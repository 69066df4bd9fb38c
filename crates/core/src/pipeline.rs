//! The cycle-level out-of-order core: fetch → decode/rename/dispatch →
//! wakeup/select → execute → writeback → commit, with configurable issue
//! schedulers (Figure 14), commit policies (Figure 15) and Table 1 sizing.

use crate::config::{exec_latency, is_unpipelined, CommitKind, CoreConfig, Pool};
use crate::crit::CriticalityEngine;
use crate::exec::{Event, EventKind, EventQueue, FuBank};
use crate::fetch::{wrong_path_load, Fetched, FetchUnit};
use crate::iq::{IqEntry, IssueQueue};
use crate::lsq::{LoadSearch, Lsq};
use crate::rename::RenameUnit;
use crate::rob::{Rob, RobEntry};
use crate::stats::SimStats;
use orinoco_isa::{DynInst, Emulator, InstClass, Opcode};
use orinoco_matrix::{BitVec64, LockdownMatrix, LockdownTable};
use orinoco_mem::{HitLevel, MemorySystem};
use orinoco_stats::{Resource, StallCause};
use orinoco_trace::{TraceEventKind, Tracer, STALL_SEQ};
use orinoco_util::xorshift64star;
use std::collections::{HashSet, VecDeque};

/// Number of lockdown-table rows (committed-but-unordered loads tracked
/// for TSO, §3.3).
const LDT_ROWS: usize = 64;

/// Cycles fetch stays idle after a mispredicted branch resolves or a
/// replay trap squashes (`Core::on_exec_done`, `Core::replay_from`).
const REDIRECT_PENALTY: u64 = 5;

/// Cycles fetch stays idle for a page-fault handler
/// (`Core::take_exception`).
const PAGEFAULT_PENALTY: u64 = 300;

/// Front-end depth: cycles between fetch and earliest dispatch
/// (`Core::fetch_stage`).
const FRONTEND_DEPTH: u64 = 5;

/// One architectural commit, as observed by the commit-trace hook
/// ([`Core::enable_commit_trace`]). Commits may be reported out of program
/// order (that is the point of Orinoco); `seq` restores program order and
/// `oldest_live_seq` records how far ahead of the ROB head the commit ran.
#[derive(Clone, Debug)]
pub struct CommitEvent {
    /// Program-order sequence number of the committed instruction.
    pub seq: u64,
    /// Cycle at which the commit happened.
    pub cycle: u64,
    /// Sequence number of the oldest live ROB entry at commit time
    /// (`None` if this commit emptied the ROB). Equal to `seq` for an
    /// in-order commit; greater depth means an unordered commit.
    pub oldest_live_seq: Option<u64>,
    /// The committed dynamic instruction (from the oracle-driven fetch).
    pub dyn_inst: DynInst,
}

impl CommitEvent {
    /// `true` if this instruction committed while an older instruction
    /// was still live in the ROB (an out-of-order commit).
    #[must_use]
    pub fn out_of_order(&self) -> bool {
        self.oldest_live_seq.is_some_and(|h| h < self.seq)
    }
}

/// A coherence-relevant observation from inside the pipeline, drained each
/// cycle by the multicore `System` (which turns them into directory fills
/// and reads-from resolutions). Only produced when coherence observation
/// is enabled; the single-core paths never allocate for these.
#[derive(Clone, Copy, Debug)]
pub enum CohEvent {
    /// A cache access for `addr` was accepted by the hierarchy (the line
    /// is — or is being — filled locally). Emitted for wrong-path and
    /// squashed loads too: they pollute the caches at access time.
    LineFilled {
        /// Accessed byte address.
        addr: u64,
        /// The access was served by a core-private level (not DRAM).
        private_hit: bool,
    },
    /// A load performed (its data returned). The `System` resolves which
    /// store the load read from: `fwd_seq` when it forwarded locally,
    /// otherwise the coherence directory's latest installed write.
    LoadPerformed {
        /// Sequence number of the load.
        seq: u64,
        /// Loaded byte address.
        addr: u64,
        /// The access that performed it hit a core-private level.
        private_hit: bool,
        /// Local same-word store it forwarded from (store-buffer entries
        /// included), if any.
        fwd_seq: Option<u64>,
        /// The load is on the wrong path (the `System` ignores it for
        /// reads-from purposes).
        wrong_path: bool,
    },
}

/// The simulated core.
pub struct Core {
    cfg: CoreConfig,
    now: u64,
    /// [`Core::step`] calls since the last reset; the clock minus the
    /// cycles fast-forward skipped ([`Core::debug_steps`]).
    steps: u64,
    fetch: FetchUnit,
    /// Fetched instructions waiting to dispatch, with the cycle they
    /// become dispatchable (front-end depth).
    fq: VecDeque<(Fetched, u64)>,
    rename: RenameUnit,
    rob: Rob,
    /// Issue queues: one unified queue, or one per FU pool (§5).
    iqs: Vec<IssueQueue>,
    lsq: Lsq,
    fus: FuBank,
    events: EventQueue,
    mem: MemorySystem,
    /// Post-commit store buffer: `(address, seq)` pairs draining to
    /// memory in program order.
    sb: VecDeque<(u64, u64)>,
    /// Multicore mode: the store buffer drains through the coherence hub
    /// (the `System` pops entries via [`Core::external_drain_commit`])
    /// instead of going straight to the local hierarchy.
    external_drain: bool,
    /// Live fence sequence numbers, maintained only in multicore mode:
    /// a load may not read the cache past an older undrained fence (the
    /// TSO fence→read ordering a single core cannot observe).
    fence_seqs: Vec<u64>,
    /// Coherence observation log ([`Core::enable_coh_log`]), drained by
    /// the `System` each cycle. `None` = single-core mode, zero overhead.
    coh_log: Option<Vec<CohEvent>>,
    /// Withheld invalidation acks released by lockdown lifts, as
    /// `(line byte address, count)` — drained by the `System`.
    released_acks: Vec<(u64, u32)>,
    /// This core's id in a multicore `System` (tags lifecycle traces).
    core_id: Option<u32>,
    crit: Option<CriticalityEngine>,
    /// Lockdown matrix + table for committed loads that passed older
    /// non-performed loads (engaged by the Orinoco commit policy).
    ldm: LockdownMatrix,
    ldt: LockdownTable,
    ldt_free: Vec<usize>,
    ldt_line: Vec<Option<u64>>,
    /// One bit per lockdown-table row, set exactly when `ldt_line[row]`
    /// is `Some` — the per-perform row scan and the squash-time pin scan
    /// walk this mask instead of all `LDT_ROWS` rows. Rows outside the
    /// mask may hold stale matrix bits; `LockdownMatrix::commit_load`
    /// overwrites the whole row at acquisition, so they are never read.
    ldt_live: u64,
    /// One bit per LQ slot holding a load whose `SPEC` bit may still be
    /// set — the candidate set of [`Core::scan_load_safety`]. Safety is
    /// monotone (nothing re-sets a resolved load's `SPEC` bit), so bits
    /// are set at LQ allocation and cleared lazily by the scan itself.
    spec_loads: BitVec64,
    /// Lockdown rows pinned on a *replayed* blocking load: the squash
    /// freed its LQ slot but the load re-executes under the same seq, so
    /// the row must stay held until the re-dispatched instance re-enters
    /// the LQ (re-pinning the new slot) and performs. Entries are
    /// `(ldt row, seq)`.
    pending_reblock: Vec<(usize, u64)>,
    /// Seqs of correct-path loads squashed for replay and not yet
    /// re-dispatched: architecturally live non-performed loads the LQ
    /// cannot see, which the TSO read→write drain gate must still honour.
    limbo_load_seqs: Vec<u64>,
    handled_faults: HashSet<u64>,
    /// Stores whose data register was in flight at issue, as
    /// `(register, ROB index, generation)` triples completed when the
    /// register writes back. A flat vector rather than a map so the
    /// steady-state issue path never allocates; dead entries are pruned
    /// lazily when the vector grows past twice the SQ size.
    store_data_waiters: Vec<(crate::rename::PhysReg, usize, u64)>,
    stats: SimStats,
    committed_count: u64,
    committed_seq_sum: u128,
    /// Commit-event trace consumed by the differential oracle
    /// (`None` = tracing disabled, zero per-commit overhead).
    trace: Option<Vec<CommitEvent>>,
    /// Instruction-lifecycle tracer ([`Core::enable_tracing`]): one event
    /// per pipeline transition plus per-cycle stall attribution, recorded
    /// into a preallocated ring buffer (`None` = disabled; every hook is
    /// a single `Option` check).
    tracer: Option<Box<Tracer>>,
    /// Fault-injection hook: clears the SPEC bit of the n-th speculative
    /// dispatch, emulating a stuck-at/upset fault in the commit matrix's
    /// SPEC column. `None` once fired or never armed.
    chaos_spec_flip: Option<u64>,
    /// Speculative dispatches so far (drives `chaos_spec_flip`).
    spec_dispatched: u64,
    // Reusable per-cycle scratch buffers (DESIGN.md §"Performance
    // engineering"): once they reach their working capacity the
    // steady-state cycle loop performs no heap allocation.
    scratch_grants: Vec<(usize, IqEntry)>,
    scratch_commit: Vec<usize>,
    scratch_squash: Vec<usize>,
    scratch_reinject: Vec<DynInst>,
    scratch_fetch: Vec<Fetched>,
    scratch_used_banks: Vec<bool>,
    scratch_replays: Vec<usize>,
    scratch_older_np: BitVec64,
    /// Candidate LQ slots snapshotted by [`Core::scan_load_safety`] so
    /// the scan can clear `spec_loads` bits while walking them.
    scratch_spec_slots: Vec<usize>,
    /// Wakeup seqs collected from the IQs during a writeback (tracing
    /// only; reused so the traced path stays allocation-free too).
    scratch_woken: Vec<u64>,
    // Per-cycle stall-attribution observations, reset at the top of
    // `step()` and resolved into one `StallCause` at the end of it.
    cyc_committed: usize,
    cyc_dispatch_block: Option<Resource>,
    cyc_ldt_full: bool,
    cyc_ready_before: usize,
    /// No pipeline activity was observed this cycle — no event delivered,
    /// nothing fetched, dispatched, issued, committed or squashed, no
    /// store-buffer traffic, no safety transition. Together with an empty
    /// ready set this is the precondition for idle-cycle fast-forward:
    /// every following cycle is identical until the next scheduled event.
    cyc_quiet: bool,
    /// The cause [`Core::attribute_stall`] recorded for this cycle
    /// (`None` when the cycle committed), reused verbatim when
    /// fast-forward bulk-attributes the skipped cycles.
    cyc_stall_cause: Option<StallCause>,
}

/// Warmed microarchitectural state carried across a core reset: the
/// memory hierarchy's cache/prefetcher contents and the frontend's
/// trained predictors. Captured by [`Core::save_warm_state`] and
/// reinstated by [`Core::apply_warm_state`]; used by the interval sampler
/// to keep long-lived training alive between detailed samples.
#[derive(Clone, Debug)]
pub struct WarmState {
    mem: MemorySystem,
    frontend: crate::fetch::FrontendWarm,
    /// `Emulator::addr_mask` of the source program — lets the pollution
    /// model below draw canonical data addresses without a fetch source.
    addr_mask: u64,
    /// xorshift64\* state for the wrong-path pollution model, which draws
    /// its loads as `FetchUnit::synth_wrong_path` does.
    rng: u64,
    /// Fixed wrong-path episode length override; `None` (the default)
    /// scales the episode with the mispredicted branch's resolution
    /// slack. See [`WarmState::set_wrong_path_depth`].
    wp_depth: Option<u32>,
    /// Instructions fed through [`WarmState::warm_step`] so far — the
    /// pseudo-clock the dependence-readiness model below counts in.
    inst_count: u64,
    /// Approximate pseudo-cycle at which each architectural register's
    /// value becomes available: loads set their destination by serving
    /// cache level, other producers propagate the max of their sources.
    /// Serially dependent chains (pointer chasing) accumulate naturally.
    reg_ready: [u64; orinoco_isa::NUM_ARCH_REGS],
}

/// Value-readiness latencies (in pseudo-cycles) assumed for a load
/// served by L1/L2/LLC/DRAM respectively — roughly the detailed
/// hierarchy's latencies.
const WARM_LOAD_LAT: [u64; 4] = [1, 20, 40, 100];

/// Wrong-path episode model: a mispredicted branch keeps wrong-path
/// fetch alive until it resolves, and the frontend fetches
/// [`WARM_WP_FETCH_PER_CYCLE`] instructions per cycle of resolution
/// slack, so the synthetic episode is `BASE + slack` instructions
/// (capped at the level the detailed core's own ROB/IQ backpressure
/// enforces). `slack` is near zero for a branch fed from registers or an
/// L1 hit and ~[`WARM_LOAD_LAT`] for one fed by an in-flight miss;
/// chained misses (pointer chasing) accumulate.
const WARM_WP_BASE: u64 = 12;
const WARM_WP_FETCH_PER_CYCLE: u64 = 1;
const WARM_WP_CAP: u64 = 200;

impl WarmState {
    /// Functionally warms the snapshot with one executed instruction:
    /// memory accesses walk and fill the cache tag arrays (and train the
    /// prefetcher), control flow trains the direction predictor, BTB and
    /// RAS. Sampled simulation feeds every fast-forwarded instruction
    /// through this so warm state tracks the full-run trajectory instead
    /// of going stale across the gap (SMARTS-style functional warming).
    ///
    /// When the warm predictor state mispredicts a branch — the detailed
    /// core would have entered wrong-path fetch here — the synthetic
    /// wrong-path load pollution `FetchUnit::synth_wrong_path` injects is
    /// emulated too: an episode of synthetic instructions, 25% of them
    /// loads at uniformly random canonical addresses, walks the warm
    /// cache hierarchy. The episode length scales with the mispredicted
    /// branch's resolution slack (a branch fed by an in-flight miss keeps
    /// wrong-path fetch alive for its whole latency). Without this the
    /// warm image is systematically colder than a detailed run's — on
    /// branchy workloads the scatter from wrong-path loads keeps most of
    /// the data footprint LLC-resident, and losing it reads 15–20% slow.
    pub fn warm_step(&mut self, d: &orinoco_isa::DynInst) {
        self.inst_count += 1;
        let now = self.inst_count;
        let ready = |r: Option<orinoco_isa::ArchReg>, regs: &[u64]| {
            r.map_or(0, |r| regs[r.index()])
        };
        let dep = ready(d.src1, &self.reg_ready)
            .max(ready(d.src2, &self.reg_ready))
            .max(now);
        let level = d.mem_addr.map(|addr| self.mem.warm_access(addr));
        if let Some(dst) = d.dst {
            if dst.index() != 0 {
                let lat = match level {
                    Some(l) if d.class == orinoco_isa::InstClass::Load => {
                        WARM_LOAD_LAT[l as usize]
                    }
                    _ => 1,
                };
                self.reg_ready[dst.index()] = dep + lat;
            }
        }
        if self.frontend.warm_update(d) {
            let slack = dep - now;
            let depth = self.wp_depth.map_or_else(
                || (WARM_WP_BASE + WARM_WP_FETCH_PER_CYCLE * slack).min(WARM_WP_CAP),
                u64::from,
            );
            for _ in 0..depth {
                if let Some(addr) = wrong_path_load(xorshift64star(&mut self.rng)) {
                    self.mem.warm_access(addr & self.addr_mask);
                }
            }
        }
    }

    /// Replaces the adaptive wrong-path episode model with a fixed
    /// episode length (synthetic instructions per misprediction); `0`
    /// disables pollution emulation entirely.
    pub fn set_wrong_path_depth(&mut self, depth: u32) {
        self.wp_depth = Some(depth);
    }
}

impl Core {
    /// Builds a core that fetches from `emu` (program and data already
    /// initialised).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(emu: Emulator, cfg: CoreConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid core configuration: {e}");
        }
        let crit = cfg
            .scheduler
            .uses_criticality()
            .then(CriticalityEngine::new);
        Self {
            fetch: FetchUnit::new(emu, &cfg),
            fq: VecDeque::new(),
            rename: RenameUnit::new(cfg.phys_regs),
            rob: Rob::new(cfg.rob_entries),
            iqs: if cfg.split_iq {
                cfg.split_iq_capacities()
                    .into_iter()
                    .map(|cap| IssueQueue::new(cfg.scheduler, cap).with_regs(cfg.phys_regs))
                    .collect()
            } else {
                vec![IssueQueue::new(cfg.scheduler, cfg.iq_entries).with_regs(cfg.phys_regs)]
            },
            lsq: Lsq::new(cfg.lq_entries, cfg.sq_entries),
            fus: FuBank::new(cfg.fu),
            events: EventQueue::new(),
            mem: MemorySystem::new(cfg.mem),
            sb: VecDeque::new(),
            external_drain: false,
            fence_seqs: Vec::new(),
            coh_log: None,
            released_acks: Vec::new(),
            core_id: None,
            crit,
            ldm: LockdownMatrix::new(LDT_ROWS, cfg.lq_entries),
            ldt: LockdownTable::new(),
            ldt_free: (0..LDT_ROWS).rev().collect(),
            ldt_line: vec![None; LDT_ROWS],
            ldt_live: 0,
            spec_loads: BitVec64::new(cfg.lq_entries),
            pending_reblock: Vec::new(),
            limbo_load_seqs: Vec::new(),
            handled_faults: HashSet::new(),
            store_data_waiters: Vec::new(),
            stats: SimStats::default(),
            committed_count: 0,
            committed_seq_sum: 0,
            trace: None,
            tracer: None,
            chaos_spec_flip: None,
            spec_dispatched: 0,
            scratch_grants: Vec::new(),
            scratch_commit: Vec::new(),
            scratch_squash: Vec::new(),
            scratch_reinject: Vec::new(),
            scratch_fetch: Vec::new(),
            scratch_used_banks: Vec::new(),
            scratch_replays: Vec::new(),
            scratch_older_np: BitVec64::new(cfg.lq_entries),
            scratch_spec_slots: Vec::with_capacity(cfg.lq_entries),
            scratch_woken: Vec::new(),
            cyc_committed: 0,
            cyc_dispatch_block: None,
            cyc_ldt_full: false,
            cyc_ready_before: 0,
            cyc_quiet: true,
            cyc_stall_cause: None,
            now: 0,
            steps: 0,
            cfg,
        }
    }

    /// Rewinds the core to its just-constructed state over a fresh
    /// emulator, reusing every internal allocation (benchmark harnesses
    /// re-run programs without paying construction or allocation cost).
    /// Behaviourally equivalent to `Core::new(emu, cfg)` with the same
    /// configuration: every architectural and microarchitectural
    /// structure — including free-list pop order, RNG seeds and predictor
    /// state — is restored to pristine, so a run after `reset` is
    /// byte-identical to a run on a freshly built core. Commit tracing
    /// and lifecycle tracing stay enabled (their buffers are cleared);
    /// an armed fault injector is disarmed.
    pub fn reset(&mut self, emu: Emulator) {
        self.now = 0;
        self.steps = 0;
        self.fetch.reset(emu, &self.cfg);
        self.fq.clear();
        self.rename.reset();
        self.rob.reset();
        for iq in &mut self.iqs {
            iq.reset();
        }
        self.lsq.reset();
        self.fus.reset();
        self.events.clear();
        self.mem.reset();
        self.sb.clear();
        // `external_drain`, `core_id` and the presence of the coherence
        // log are *modes*, not run state: they survive a reset like the
        // tracers do, with their buffers cleared.
        self.fence_seqs.clear();
        if let Some(log) = self.coh_log.as_mut() {
            log.clear();
        }
        self.released_acks.clear();
        if let Some(ce) = self.crit.as_mut() {
            ce.reset();
        }
        self.ldm.clear();
        self.ldt.clear();
        self.ldt_free.clear();
        self.ldt_free.extend((0..LDT_ROWS).rev());
        self.ldt_line.fill(None);
        self.ldt_live = 0;
        self.spec_loads.clear_all();
        self.pending_reblock.clear();
        self.limbo_load_seqs.clear();
        self.handled_faults.clear();
        self.store_data_waiters.clear();
        self.stats.reset();
        self.committed_count = 0;
        self.committed_seq_sum = 0;
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.clear();
        }
        self.chaos_spec_flip = None;
        self.spec_dispatched = 0;
        self.cyc_committed = 0;
        self.cyc_dispatch_block = None;
        self.cyc_ldt_full = false;
        self.cyc_ready_before = 0;
        self.cyc_quiet = true;
        self.cyc_stall_cause = None;
    }

    /// Like [`Core::reset`], but under a new configuration that may carry
    /// a different RNG `seed`. Everything else must match
    /// ([`CoreConfig::same_shape`]): the sized structures are reused as
    /// they are, and `reset` re-derives every seeded state (wrong-path
    /// RNG, predictors) from the new configuration. Behaviourally
    /// equivalent to `Core::new(emu, cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not same-shape with the core's configuration.
    pub fn reset_with(&mut self, emu: Emulator, cfg: CoreConfig) {
        assert!(
            self.cfg.same_shape(&cfg),
            "reset_with requires a same-shape configuration (have {}, got {})",
            self.cfg.name,
            cfg.name,
        );
        self.cfg = cfg;
        self.reset(emu);
    }

    /// Snapshots the *warm* microarchitectural state — cache contents,
    /// prefetcher training, direction predictor, BTB and RAS — for
    /// [`Core::apply_warm_state`] to reinstate on a reset core.
    /// Pipeline-transient structures (ROB, IQs, LSQ, matrices, rename
    /// tables) are deliberately excluded: they are empty at any interval
    /// boundary and refill within a few hundred instructions of detailed
    /// warmup, whereas caches and predictors take millions — exactly the
    /// long-lived state interval sampling must not lose between samples.
    #[must_use]
    pub fn save_warm_state(&self) -> WarmState {
        WarmState {
            mem: self.mem.warm_snapshot(),
            frontend: self.fetch.warm_snapshot(),
            addr_mask: self.fetch.emulator().canonical_addr(u64::MAX),
            rng: 0x005E_ED0F_0913_C0DE | 1,
            wp_depth: None,
            inst_count: 0,
            reg_ready: [0; orinoco_isa::NUM_ARCH_REGS],
        }
    }

    /// Reinstates a warm-state snapshot onto an already-reset core, such
    /// as the one a [`crate::fleet::Fleet::with_lane`] handout passes in
    /// (the handout performs the reset). Calling this on a core that has
    /// run cycles since its last reset leaves pipeline-transient state
    /// inconsistent with the warmed image; only call it reset-fresh.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken under a different memory
    /// configuration.
    pub fn apply_warm_state(&mut self, warm: &WarmState) {
        self.mem.restore_warm(&warm.mem);
        self.fetch.restore_warm(&warm.frontend);
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Statistics so far (finalised by [`Core::run`]).
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// `true` when the program has fully drained through the pipeline.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.fetch.drained()
            && self.fq.is_empty()
            && self.rob.is_empty()
            && self.events.is_empty()
            && self.sb.is_empty()
    }

    /// Runs until the program drains or `max_cycles` elapse, returning the
    /// finalised statistics by reference (clone them if the core is about
    /// to be dropped or run again).
    ///
    /// # Panics
    ///
    /// Panics on a deadlocked pipeline (no forward progress within
    /// `max_cycles`) or on architectural bookkeeping divergence — every
    /// correct-path instruction must commit exactly once.
    pub fn run(&mut self, max_cycles: u64) -> &SimStats {
        let finished = self.run_until(max_cycles);
        assert!(
            finished,
            "deadlock or overrun at cycle {} (committed {}, ROB {}, IQ {}, fq {})",
            self.now,
            self.stats.committed,
            self.rob.len(),
            self.iq_len_total(),
            self.fq.len(),
        );
        &self.stats
    }

    /// Runs until the program drains or the clock reaches the **absolute**
    /// cycle count `limit`, whichever comes first, and returns whether the
    /// program finished. Statistics are finalised exactly once, when the
    /// run completes.
    ///
    /// Resumable: a sequence of `run_until` calls with increasing limits
    /// is observationally identical to one [`Core::run`] — the idle-cycle
    /// fast-forward clamps its skip at `limit` and simply continues on the
    /// next call (skipped and stepped frozen cycles are accounted
    /// identically; the `verif ffeq` campaign is the proof). The campaign
    /// server slices its progress reports this way; the `fleet` tests pin
    /// sliced runs against one-shot runs.
    ///
    /// # Panics
    ///
    /// Panics on architectural bookkeeping divergence when the program
    /// finishes within `limit`.
    pub fn run_until(&mut self, limit: u64) -> bool {
        while !self.finished() {
            if self.now >= limit {
                return false;
            }
            self.step();
            if self.cfg.fast_forward {
                self.fast_forward_skip(limit);
            }
        }
        self.finalize_run_stats();
        true
    }

    /// Runs until at least `target` instructions have committed, the
    /// program drains, or the clock reaches the absolute cycle `limit` —
    /// whichever comes first — and returns whether the commit target was
    /// reached. The pipeline is left mid-flight when the target cuts the
    /// run short (fetch ahead of commit, instructions in the ROB): that is
    /// the measurement-window primitive of SMARTS-style interval sampling,
    /// where a window ends while the machine keeps running and the core is
    /// subsequently reset rather than drained.
    ///
    /// Live counters ([`Core::cycle`], `stats().committed`,
    /// `stats().stall_taxonomy`) are valid at return; the end-of-run
    /// snapshot fields of [`SimStats`] are only finalised if the program
    /// actually finished.
    pub fn run_to_commit(&mut self, target: u64, limit: u64) -> bool {
        while !self.finished() {
            if self.stats.committed >= target {
                return true;
            }
            if self.now >= limit {
                return false;
            }
            self.step();
            if self.cfg.fast_forward {
                self.fast_forward_skip(limit);
            }
        }
        self.finalize_run_stats();
        self.stats.committed >= target
    }

    /// Checks the end-of-run architectural invariants and finalises the
    /// statistics snapshot. [`Core::run`] calls this itself; the multicore
    /// `System`, which steps cores directly, calls it once per core when
    /// that core drains.
    ///
    /// # Panics
    ///
    /// Panics on architectural bookkeeping divergence — every correct-path
    /// instruction must commit exactly once.
    pub fn finalize_run_stats(&mut self) {
        // Every correct-path instruction committed exactly once.
        let n = self.fetch.emulator().executed();
        assert_eq!(self.committed_count, n, "commit count diverged");
        let want: u128 = (n as u128) * (n as u128 - 1) / 2;
        assert_eq!(self.committed_seq_sum, want, "commit sequence checksum diverged");
        self.stats.fetch = *self.fetch.stats();
        self.stats.mem = *self.mem.stats();
        self.stats.cycles = self.now;
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.cyc_committed = 0;
        self.cyc_dispatch_block = None;
        self.cyc_ldt_full = false;
        self.cyc_ready_before = 0;
        self.cyc_quiet = true;
        self.cyc_stall_cause = None;
        self.drain_store_buffer();
        self.process_events();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch_stage();
        self.attribute_stall();
        self.stats.rob_occ_sum += self.rob.len() as u64;
        self.stats.iq_occ_sum += self.iq_len_total() as u64;
        self.now += 1;
        self.steps += 1;
    }

    /// Read access to the oracle emulator driving fetch. After the
    /// pipeline drains, this holds the final architectural state the
    /// pipeline committed — the object a differential checker compares
    /// against an independently-run golden model.
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        self.fetch.emulator()
    }

    /// Moves the emulator out of the core, leaving an empty program in its
    /// place until the next [`Core::reset`] or [`Core::reset_with`]: a
    /// finished run hands its program back for reuse.
    pub fn take_emulator(&mut self) -> Emulator {
        self.fetch.take_emulator()
    }

    /// Turns on the commit-event trace: every subsequent architectural
    /// commit is appended to an internal buffer drained with
    /// [`Core::drain_commit_trace`]. Used by the lockstep differential
    /// oracle in `orinoco-verif`.
    pub fn enable_commit_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Removes and returns the commit events recorded since the last
    /// drain (empty if tracing is disabled or nothing committed).
    pub fn drain_commit_trace(&mut self) -> Vec<CommitEvent> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Turns on the instruction-lifecycle tracer with a ring buffer of
    /// `capacity` records (the one allocation tracing ever performs).
    /// Every subsequent pipeline transition — fetch, rename, dispatch,
    /// wakeup, issue (with grant rank), execute, complete,
    /// commit-eligible, commit, squash — and every zero-commit cycle's
    /// stall attribution is recorded; once the ring fills, the oldest
    /// events are overwritten.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut t = Box::new(Tracer::new(capacity));
        if let Some(id) = self.core_id {
            t.set_core_id(id);
        }
        self.tracer = Some(t);
    }

    /// The lifecycle tracer, if enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Detaches and returns the lifecycle tracer (tracing stops).
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.tracer.take()
    }

    /// Arms the commit-matrix fault injector: the `nth` (1-based)
    /// speculative dispatch has its SPEC bit cleared immediately,
    /// emulating a flipped bit in the commit scheduler's SPEC column.
    /// The differential oracle must catch the resulting misbehaviour
    /// (wrong-path or premature commits); used to prove the oracle is
    /// actually load-bearing.
    pub fn inject_spec_flip(&mut self, nth: u64) {
        assert!(nth > 0, "speculative dispatches are counted from 1");
        self.chaos_spec_flip = Some(nth);
    }

    /// `true` once an armed [`Core::inject_spec_flip`] has fired.
    #[must_use]
    pub fn spec_flip_fired(&self) -> bool {
        self.chaos_spec_flip.is_none() && self.spec_dispatched > 0
    }

    /// Cross-checks the unordered-commit invariants against the live ROB
    /// (integration tests; O(n²), in every build profile):
    ///
    /// * the commit grants of the dispatch-order walk — under the
    ///   configured commit width and depth window — equal those of the
    ///   paper's merged age-matrix + `SPEC` scheduler rebuilt from the
    ///   live entries in dispatch order, and live dispatch order is
    ///   strictly seq-ascending ([`Rob::grants_orinoco_matrix`]);
    /// * independently of either, no granted entry has an older live
    ///   speculative instruction.
    ///
    /// # Panics
    ///
    /// Panics if the walk and the matrix disagree, dispatch order is not
    /// seq-ascending, or any granted entry has an older live entry that is
    /// still possibly-excepting/misspeculating.
    #[doc(hidden)]
    pub fn debug_verify_commit_invariants(&self) {
        let (width, depth) = (self.cfg.commit_width, self.cfg.commit_depth);
        assert_eq!(
            self.rob.grants_orinoco_depth(width, depth),
            self.rob.grants_orinoco_matrix(width, depth),
            "walk-based commit grants diverged from the matrix oracle",
        );
        let live = self.rob.in_order(self.rob.capacity());
        for idx in self.rob.grants_orinoco(usize::MAX) {
            let g = self.rob.entry(idx);
            assert!(g.completed, "granted entry seq {} not completed", g.seq);
            assert!(!g.wrong_path, "granted entry seq {} is wrong-path", g.seq);
            for &o in &live {
                let oe = self.rob.entry(o);
                assert!(
                    oe.seq >= g.seq || self.rob.is_safe_self(o),
                    "seq {} granted commit while older seq {} is unresolved",
                    g.seq,
                    oe.seq,
                );
            }
        }
    }

    /// Cross-checks every issue queue's select order against the live
    /// entries (campaigns and integration tests; O(n²), in every build
    /// profile): the `(!critical, seq)` key ranking of the ready entries,
    /// and the single-oldest heads of AGE and MULT, equal those of the
    /// paper's age matrix rebuilt from the queue's live entries
    /// ([`IssueQueue::ranking_matrix`]).
    ///
    /// # Panics
    ///
    /// Panics if any queue's key ranking and matrix ranking disagree.
    #[doc(hidden)]
    pub fn debug_verify_issue_order(&self) {
        for (qi, iq) in self.iqs.iter().enumerate() {
            assert_eq!(
                iq.ranking(),
                iq.ranking_matrix(),
                "IQ {qi} ({:?}): key ranking diverged from the age-matrix oracle",
                iq.kind(),
            );
        }
    }

    /// Number of currently active lockdowns (committed loads still waiting
    /// for older loads to perform).
    #[must_use]
    pub fn active_lockdowns(&self) -> usize {
        self.ldt.active()
    }

    /// A currently locked-down line address, if any (harness/testing: lets
    /// a simulated remote core aim an invalidation at a line that is
    /// actually protected).
    #[must_use]
    pub fn any_locked_line(&self) -> Option<u64> {
        self.ldt_line.iter().flatten().next().map(|&l| l * 64)
    }

    // ------------------------------------------------------------------
    // Multicore (`System`) hooks
    // ------------------------------------------------------------------

    /// Delivers a remote coherence invalidation for `addr` (§3.3; the
    /// `System`'s directory calls it). The line is invalidated in the
    /// local hierarchy, then checked for a committed-early load whose
    /// value it makes stale: a performed, uncommitted, correct-path load
    /// to the invalidated line with an older non-performed load still in
    /// flight must replay, because its (already read) value may violate
    /// TSO once the remote store installs. Returns `true` when the ack
    /// can go out immediately, `false` when an active lockdown withholds
    /// it — it is then sent when the lockdown lifts, so no other core can
    /// observe a committed load's reordering.
    pub fn apply_remote_invalidation(&mut self, addr: u64) -> bool {
        let line = addr / 64;
        let ack_now = self.ldt.incoming_invalidation(line);
        self.mem.invalidate(addr);
        let mut victim: Option<(usize, u64)> = None;
        for slot in 0..self.cfg.lq_entries {
            let Some(l) = self.lsq.load(slot) else { continue };
            // Performed loads may hold a now-stale value; non-performed
            // loads with a resolved address may have a *fill in flight*
            // that started before this invalidation — it would complete
            // with the old copy after the directory already dropped this
            // core as a sharer, so no further invalidation would ever
            // reach it. Both must replay (the re-issued access starts
            // after the invalidation and re-registers the sharer).
            // Forwarded loads read the core's own store — TSO's one
            // legal W→R relaxation — and are immune.
            if l.addr.is_none_or(|a| a / 64 != line) || l.fwd_seq.is_some() {
                continue;
            }
            let Some(e) = self.rob.get(l.rob_idx) else { continue };
            if e.wrong_path || e.lq_slot != Some(slot) {
                continue;
            }
            self.lsq
                .older_nonperformed_loads_into(l.seq, &mut self.scratch_older_np);
            if self.scratch_older_np.is_zero() {
                continue; // ordered: its value is architecturally final
            }
            if victim.is_none_or(|(_, s)| l.seq < s) {
                victim = Some((l.rob_idx, l.seq));
            }
        }
        if let Some((idx, _)) = victim {
            self.replay_from(idx);
        }
        ack_now
    }

    /// Switches the store buffer to external draining: committed stores
    /// stay queued until the `System` pops them through the coherence
    /// directory ([`Core::external_drain_commit`]). Also engages the
    /// multicore-only TSO orderings a single core cannot observe (the
    /// read→write drain gate and the fence→read gate).
    pub fn set_external_drain(&mut self, on: bool) {
        self.external_drain = on;
    }

    /// The store buffer's head entry, `(address, seq)`, if any.
    #[must_use]
    pub fn sb_head(&self) -> Option<(u64, u64)> {
        self.sb.front().copied()
    }

    /// TSO read→write drain gate: the store at the SB head may only make
    /// its write globally visible once every older load has performed.
    /// (Unordered commit lets the store *commit* earlier than that; the
    /// single-core hierarchy cannot tell, but a remote reader could.)
    #[must_use]
    pub fn store_drain_allowed(&self, seq: u64) -> bool {
        // Replayed loads in the refetch gap (`limbo_load_seqs`) are
        // architecturally live and non-performed even though the LQ has
        // no entry for them — a committed store draining past one would
        // become visible before a program-order-earlier load reads.
        self.lsq.oldest_nonperformed_load().is_none_or(|o| o > seq)
            && self.limbo_load_seqs.iter().all(|&s| s > seq)
    }

    /// Drains the SB head into the local hierarchy (the `System` calls
    /// this when the directory grants the write, or directly for private
    /// addresses). Returns `false` if the SB is empty or the hierarchy
    /// rejected the access this cycle (MSHRs full).
    pub fn external_drain_commit(&mut self) -> bool {
        let Some(&(addr, _)) = self.sb.front() else {
            return false;
        };
        if self.mem.access(addr, self.now).is_some() {
            self.sb.pop_front();
            true
        } else {
            false
        }
    }

    /// Turns on the coherence observation log drained by
    /// [`Core::drain_coh_events`].
    pub fn enable_coh_log(&mut self) {
        if self.coh_log.is_none() {
            self.coh_log = Some(Vec::new());
        }
    }

    /// Moves the coherence events observed since the last drain into
    /// `out` (appending). No-op when the log is disabled.
    pub fn drain_coh_events(&mut self, out: &mut Vec<CohEvent>) {
        if let Some(log) = self.coh_log.as_mut() {
            out.append(log);
        }
    }

    /// Moves the `(line address, withheld-ack count)` pairs released by
    /// lockdown lifts since the last drain into `out` (appending).
    pub fn take_released_acks(&mut self, out: &mut Vec<(u64, u32)>) {
        out.append(&mut self.released_acks);
    }

    /// Tags this core's lifecycle trace lines with `"core":id` and
    /// remembers the id for tracers enabled later.
    pub fn set_core_id(&mut self, id: u32) {
        self.core_id = Some(id);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.set_core_id(id);
        }
    }

    /// Jumps the clock from a frozen state to `target`, replicating the
    /// per-cycle accounting exactly like the single-core fast-forward
    /// path. The caller (the `System`) is responsible for having proven
    /// the machine frozen and `target` conservative; `target <= now` is a
    /// no-op.
    pub fn bulk_skip_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        self.skip_frozen_cycles(target - self.now);
        self.now = target;
    }

    /// The issue queue serving `pool` (queue 0 when unified).
    fn iq_index(&self, pool: Pool) -> usize {
        if self.cfg.split_iq {
            pool.idx()
        } else {
            0
        }
    }

    fn iq_len_total(&self) -> usize {
        self.iqs.iter().map(IssueQueue::len).sum()
    }

    // ------------------------------------------------------------------
    // Store buffer
    // ------------------------------------------------------------------

    fn drain_store_buffer(&mut self) {
        if self.external_drain {
            // Multicore mode: the `System` drains the SB through the
            // coherence directory between steps.
            return;
        }
        if let Some(&(addr, _)) = self.sb.front() {
            // Even a rejected attempt touches the memory hierarchy, so a
            // cycle with store-buffer traffic is never quiet.
            self.cyc_quiet = false;
            if self.mem.access(addr, self.now).is_some() {
                self.sb.pop_front();
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback / resolution events
    // ------------------------------------------------------------------

    fn process_events(&mut self) {
        while let Some(ev) = self.events.pop_due(self.now) {
            self.cyc_quiet = false;
            if !self.rob.is_live(ev.rob_idx, ev.gen) {
                continue; // squashed: stale event
            }
            match ev.kind {
                EventKind::ExecDone => self.on_exec_done(ev.rob_idx),
                EventKind::AguDone => self.on_agu_done(ev.rob_idx),
                EventKind::MemDone => self.on_mem_done(ev.rob_idx),
                EventKind::MemRetry => self.try_load_access(ev.rob_idx),
            }
        }
    }

    fn complete_writeback(&mut self, idx: usize) {
        let dst = self.rob.entry(idx).dst;
        if let Some((_, new, _)) = dst {
            self.rename.writeback(new);
            if self.tracer.is_some() {
                self.scratch_woken.clear();
                for iq in &mut self.iqs {
                    iq.writeback_collect(new, &mut self.scratch_woken);
                }
                if let Some(t) = self.tracer.as_deref_mut() {
                    for &seq in &self.scratch_woken {
                        t.record(self.now, TraceEventKind::Wakeup, seq, u64::from(new.0));
                    }
                }
            } else {
                for iq in &mut self.iqs {
                    iq.writeback(new);
                }
            }
            if !self.store_data_waiters.is_empty() {
                let mut waiters = std::mem::take(&mut self.store_data_waiters);
                waiters.retain(|&(p, st, gen)| {
                    if p != new {
                        return true;
                    }
                    if self.rob.is_live(st, gen) {
                        self.store_data_arrived(st);
                    }
                    false
                });
                self.store_data_waiters = waiters;
            }
        }
        self.rob.mark_completed(idx);
        self.trace_complete(idx);
    }

    /// A waiting store's data operand became available.
    fn store_data_arrived(&mut self, idx: usize) {
        let e = self.rob.entry_mut(idx);
        e.store_data_ready = true;
        if e.agu_done && !e.completed {
            self.rob.mark_completed(idx);
            self.trace_complete(idx);
            if self.rob.entry(idx).retired {
                // A store that left the ROB before its data (VB-style
                // post-commit execution) is done once the data reaches
                // the store buffer.
                self.free_zombie(idx);
            }
        }
    }

    fn on_exec_done(&mut self, idx: usize) {
        self.complete_writeback(idx);
        let e = self.rob.entry(idx);
        let (class, seq, pc, mispredicted, retired) =
            (e.class, e.seq, e.pc, e.mispredicted, e.retired);
        if class == InstClass::Branch {
            if mispredicted {
                if let Some(ce) = self.crit.as_mut() {
                    ce.record_event(pc);
                }
                self.squash_ge(seq + 1, true);
                self.fetch.redirect(seq, self.now, REDIRECT_PENALTY);
            }
            self.mark_safe_traced(idx);
        }
        if retired {
            self.free_zombie(idx);
        }
    }

    /// A post-commit zombie finished executing: the previous register
    /// mapping only now becomes reclaimable (the VB register-status
    /// imprecision of §2.2), then the physical slot is released.
    fn free_zombie(&mut self, idx: usize) {
        if let Some((_, _, prev)) = self.rob.entry(idx).dst {
            self.rename.commit_remap(prev);
        }
        self.rob.free(idx);
    }

    fn fault_roll(&mut self, seq: u64) -> bool {
        if self.cfg.pagefault_per_million == 0 || self.handled_faults.contains(&seq) {
            return false;
        }
        let h = (seq ^ self.cfg.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
        (h % 1_000_000) < u64::from(self.cfg.pagefault_per_million)
    }

    fn on_agu_done(&mut self, idx: usize) {
        let e = self.rob.entry(idx);
        let (class, seq, wrong_path) = (e.class, e.seq, e.wrong_path);
        let addr = e.mem_addr.expect("memory op without oracle address");
        let fault = !wrong_path && self.fault_roll(seq);
        match class {
            InstClass::Load => {
                let slot = self.rob.entry(idx).lq_slot.expect("load without LQ slot");
                let search = self.lsq.load_agu(slot, addr, !fault);
                if fault {
                    self.rob.entry_mut(idx).fault = true;
                    return; // never completes; trap at head
                }
                self.rob.entry_mut(idx).agu_done = true;
                match search {
                    LoadSearch::Forward { .. } => {
                        self.events.push(Event {
                            at: self.now + 2,
                            kind: EventKind::MemDone,
                            rob_idx: idx,
                            gen: self.rob.generation(idx),
                        });
                    }
                    LoadSearch::Cache => self.try_load_access(idx),
                }
                self.scan_load_safety();
            }
            InstClass::Store => {
                if fault {
                    self.rob.entry_mut(idx).fault = true;
                    return;
                }
                let slot = self.rob.entry(idx).sq_slot.expect("store without SQ slot");
                self.lsq.store_agu_into(slot, addr, &mut self.scratch_replays);
                {
                    let e = self.rob.entry_mut(idx);
                    e.agu_done = true;
                    if e.store_data_ready {
                        self.rob.mark_completed(idx);
                        self.trace_complete(idx);
                    }
                }
                self.mark_safe_traced(idx);
                if self.rob.entry(idx).completed && self.rob.entry(idx).retired {
                    self.free_zombie(idx);
                }
                self.scan_load_safety();
                if self.cfg.commit == CommitKind::Spec {
                    // Cherry oracle: the replay cost is waived entirely —
                    // the conflicting loads are deemed repaired, so their
                    // disambiguation bits clear and they become safe.
                    if !self.scratch_replays.is_empty() {
                        self.lsq.store_forgive(slot);
                        self.scan_load_safety();
                    }
                } else {
                    // Oldest conflicting correct-path load replays.
                    let victim = self
                        .scratch_replays
                        .iter()
                        .copied()
                        .filter(|&r| !self.rob.entry(r).wrong_path)
                        .min_by_key(|&r| self.rob.entry(r).seq);
                    if let Some(v) = victim {
                        self.replay_from(v);
                    }
                }
            }
            _ => unreachable!("AGU event for non-memory class"),
        }
    }

    fn try_load_access(&mut self, idx: usize) {
        let e = self.rob.entry(idx);
        let (addr, pc, wrong_path, seq) =
            (e.mem_addr.expect("load without address"), e.pc, e.wrong_path, e.seq);
        // Multicore TSO fence→read gate: the cache read must wait for
        // every older fence to retire (its drain is externally visible
        // there). Forwarding from the local SQ/SB is never gated — a
        // forwarded value is the core's own and cannot violate TSO.
        if self.external_drain && self.fence_seqs.iter().any(|&f| f < seq) {
            self.events.push(Event {
                at: self.now + 2,
                kind: EventKind::MemRetry,
                rob_idx: idx,
                gen: self.rob.generation(idx),
            });
            return;
        }
        match self.mem.access(addr, self.now) {
            Some(out) => {
                let private_hit = out.level != HitLevel::Dram;
                if let Some(slot) = self.rob.entry(idx).lq_slot {
                    self.lsq.set_load_private_hit(slot, private_hit);
                }
                if let Some(log) = self.coh_log.as_mut() {
                    // Wrong-path accesses pollute the caches too: the
                    // directory must learn about every accepted fill.
                    log.push(CohEvent::LineFilled { addr, private_hit });
                }
                if !wrong_path && matches!(out.level, HitLevel::Llc | HitLevel::Dram) {
                    if let Some(ce) = self.crit.as_mut() {
                        ce.record_event(pc);
                    }
                }
                self.events.push(Event {
                    at: out.complete_at,
                    kind: EventKind::MemDone,
                    rob_idx: idx,
                    gen: self.rob.generation(idx),
                });
            }
            None => {
                // MSHRs full: retry shortly.
                self.events.push(Event {
                    at: self.now + 4,
                    kind: EventKind::MemRetry,
                    rob_idx: idx,
                    gen: self.rob.generation(idx),
                });
            }
        }
    }

    fn on_mem_done(&mut self, idx: usize) {
        let lq_slot = self.rob.entry(idx).lq_slot;
        if let Some(slot) = lq_slot {
            if self.coh_log.is_some() {
                let e = self.rob.entry(idx);
                let (seq, wrong_path) = (e.seq, e.wrong_path);
                let l = self.lsq.load(slot).expect("performing load has an LQ entry");
                let addr = l.addr.expect("performing load has an address");
                let private_hit = l.private_hit;
                let mut fwd = l.fwd_seq;
                if fwd.is_none() {
                    // Committed-but-undrained older stores left the SQ for
                    // the SB; the youngest same-word one still forwards
                    // architecturally (TSO reads its own store buffer).
                    let word = addr & !7;
                    fwd = self
                        .sb
                        .iter()
                        .rev()
                        .find(|&&(a, s)| s < seq && (a & !7) == word)
                        .map(|&(_, s)| s);
                }
                if let Some(log) = self.coh_log.as_mut() {
                    log.push(CohEvent::LoadPerformed {
                        seq,
                        addr,
                        private_hit,
                        fwd_seq: fwd,
                        wrong_path,
                    });
                }
            }
            self.lsq.load_performed(slot);
            self.on_load_no_longer_blocking(slot);
        }
        self.complete_writeback(idx);
        if self.rob.entry(idx).retired {
            self.free_zombie(idx);
        }
    }

    /// A load performed or vanished: clear its lockdown column and release
    /// lockdowns that became ordered.
    fn on_load_no_longer_blocking(&mut self, lq_slot: usize) {
        debug_assert!(
            (0..LDT_ROWS).all(|r| self.ldt_line[r].is_some() == (self.ldt_live >> r & 1 == 1)),
            "ldt_live mask out of sync with ldt_line",
        );
        if self.ldt_live == 0 {
            // No active lockdowns: any bits left in this load's column
            // belong to dead rows, which `commit_load` fully overwrites
            // before the row is ever read again.
            return;
        }
        self.ldm.load_performed_masked(lq_slot, self.ldt_live);
        let mut live = self.ldt_live;
        while live != 0 {
            let row = live.trailing_zeros() as usize;
            live &= live - 1;
            let line = self.ldt_line[row].expect("live mask names an unused row");
            if self.pending_reblock.iter().any(|&(r, _)| r == row) {
                continue; // pinned on a replayed load not yet back in the LQ
            }
            if self.ldm.ordered(row) {
                let withheld = self.ldt.release(line);
                if withheld > 0 && self.external_drain {
                    // The lockdown was holding invalidation acks
                    // hostage; hand them to the `System` to forward.
                    self.released_acks.push((line * 64, withheld));
                }
                self.ldt_line[row] = None;
                self.ldt_live &= !(1 << row);
                self.ldt_free.push(row);
            }
        }
    }

    /// Re-checks every resident load's speculation state after a store
    /// resolves (or a load translates): loads whose disambiguation row
    /// cleared turn non-speculative and drop their `SPEC` bit.
    fn scan_load_safety(&mut self) {
        let mut slots = std::mem::take(&mut self.scratch_spec_slots);
        slots.clear();
        slots.extend(self.spec_loads.iter_ones());
        for &slot in &slots {
            // A candidate leaves the set once nothing can ever mark it
            // safe again: the slot emptied or changed hands, the entry
            // faulted, or the `SPEC` bit already dropped (safety is
            // monotone — no release path re-sets it).
            let keep = 'candidate: {
                let Some(l) = self.lsq.load(slot) else { break 'candidate false };
                let idx = l.rob_idx;
                let Some(e) = self.rob.get(idx) else { break 'candidate false };
                if e.fault || e.lq_slot != Some(slot) {
                    break 'candidate false;
                }
                if self.rob.is_safe_self(idx) {
                    break 'candidate false;
                }
                if self.lsq.load_nonspeculative(slot) {
                    self.mark_safe_traced(idx);
                    break 'candidate false;
                }
                true
            };
            if !keep {
                self.spec_loads.clear(slot);
            }
        }
        self.scratch_spec_slots = slots;
        #[cfg(debug_assertions)]
        for slot in 0..self.cfg.lq_entries {
            if self.spec_loads.get(slot) {
                continue;
            }
            if let Some(l) = self.lsq.load(slot) {
                if let Some(e) = self.rob.get(l.rob_idx) {
                    debug_assert!(
                        e.fault
                            || e.lq_slot != Some(slot)
                            || self.rob.is_safe_self(l.rob_idx),
                        "speculative load missing from the candidate set",
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Trace hooks
    // ------------------------------------------------------------------

    /// Clears the entry's `SPEC` bit through an **architectural
    /// resolution** (branch resolved, store address known, load past
    /// disambiguation, barrier drained) and records the commit-eligible
    /// transition. The chaos fault injector deliberately bypasses this
    /// helper: a flipped SPEC bit has no resolution event, which is
    /// exactly how the trace-invariant harness catches it.
    fn mark_safe_traced(&mut self, idx: usize) {
        if self.rob.is_safe_self(idx) {
            return;
        }
        self.rob.mark_safe(idx);
        self.cyc_quiet = false;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(self.now, TraceEventKind::CommitEligible, self.rob.entry(idx).seq, 0);
        }
    }

    /// Records a completion transition (called right after
    /// `rob.mark_completed`).
    fn trace_complete(&mut self, idx: usize) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(self.now, TraceEventKind::Complete, self.rob.entry(idx).seq, 0);
        }
    }

    /// End-of-cycle stall attribution: when the cycle committed nothing,
    /// classify why (commit-side reasons take priority over backpressure,
    /// backpressure over issue starvation). The taxonomy counters are
    /// always collected; a per-cycle [`TraceEventKind::Stall`] record is
    /// emitted only when tracing is on.
    fn attribute_stall(&mut self) {
        if self.cyc_committed > 0 {
            return;
        }
        let cause = if !self.rob.is_empty() {
            if self.cyc_ldt_full {
                // An unordered load grant was withheld for want of a
                // lockdown-table row.
                StallCause::LockdownHeld
            } else if let Some(h) = self.rob.head() {
                let e = self.rob.entry(h);
                let (completed, safe) = (e.completed, self.rob.is_safe_self(h));
                if completed && !safe {
                    StallCause::CommitBlockedBySpec
                } else if !completed && self.ldt.active() > 0 {
                    // Inside a lockdown-protected window: committed loads
                    // ran ahead and the machine now waits for the older
                    // loads pinning their lockdowns.
                    StallCause::LockdownHeld
                } else if let Some(r) = self.cyc_dispatch_block {
                    StallCause::from_resource(r)
                } else if self.cyc_ready_before == 0 && self.iq_len_total() > 0 {
                    StallCause::NoReady
                } else {
                    StallCause::ExecPending
                }
            } else {
                StallCause::ExecPending // only post-commit zombies remain
            }
        } else if self.fetch.drained() && self.fq.is_empty() {
            StallCause::ExecPending // post-program drain (SB, zombies)
        } else {
            StallCause::FrontendEmpty
        };
        self.stats.stall_taxonomy.record(cause);
        self.cyc_stall_cause = Some(cause);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(self.now, TraceEventKind::Stall, STALL_SEQ, cause.idx() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Idle-cycle fast-forward (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// `true` when the cycle just stepped left the machine provably
    /// frozen: nothing committed, no pipeline activity of any kind was
    /// observed, and no IQ entry is ready to issue. From such a state
    /// every subsequent cycle is identical — same stall attribution, same
    /// (absent) commits, no RNG draws — until an external timer fires: a
    /// scheduled event, the front-end queue maturing, or fetch unstalling.
    fn frozen(&self) -> bool {
        self.cyc_quiet
            && self.cyc_committed == 0
            && self.cyc_stall_cause.is_some()
            && self.iqs.iter().map(IssueQueue::ready_count).sum::<usize>() == 0
            && !self.finished()
    }

    /// The earliest cycle at or after `now` (the cycle about to be
    /// stepped) at which a frozen machine can change state: the next
    /// scheduled exec/memory event, the cycle the oldest
    /// fetched-but-undispatchable instruction matures, the cycle fetch
    /// unstalls, or the next memory-hierarchy completion. A candidate
    /// equal to `now` means the very next cycle already differs, so no
    /// skip happens. `u64::MAX` when nothing is pending (a deadlocked
    /// pipeline).
    fn next_event_cycle(&self) -> u64 {
        let mut next = self.events.next_at().unwrap_or(u64::MAX);
        if let Some(&(_, at)) = self.fq.front() {
            if at >= self.now {
                next = next.min(at);
            }
        }
        if !self.fetch.drained() {
            let su = self.fetch.stalled_until();
            if su >= self.now {
                next = next.min(su);
            }
        }
        if let Some(mc) = self.mem.next_completion_cycle() {
            if mc >= self.now {
                next = next.min(mc);
            }
        }
        next
    }

    /// Jumps the clock from a frozen state to the next event in one step,
    /// replicating per skipped cycle exactly the accounting the naive
    /// cycle loop would have performed: a zero-width commit histogram
    /// sample, the commit-stall counters, the (unchanging) dispatch-block
    /// resource, the stall-taxonomy cause attributed this cycle, one
    /// tracer stall record, and the occupancy sums. With no pending event
    /// the clock runs to `max_cycles` so the deadlock panic in
    /// [`Core::run`] fires at the same cycle with identical state.
    fn fast_forward_skip(&mut self, max_cycles: u64) {
        if !self.frozen() {
            return;
        }
        debug_assert!(self.sb.is_empty(), "quiet cycle with store-buffer traffic");
        debug_assert_eq!(self.cyc_ready_before, 0, "quiet cycle with ready entries");
        let next = self.next_event_cycle().min(max_cycles);
        if next <= self.now {
            return;
        }
        let n = next - self.now;
        self.skip_frozen_cycles(n);
        self.now = next;
    }

    /// Bulk-attributes `n` skipped frozen cycles: exactly the accounting
    /// the naive cycle loop would have performed per cycle — a zero-width
    /// commit histogram sample, the commit-stall counters, the
    /// (unchanging) dispatch-block resource, the stall-taxonomy cause
    /// attributed this cycle, one tracer stall record, and the occupancy
    /// sums. The caller advances `now`.
    fn skip_frozen_cycles(&mut self, n: u64) {
        let cause = self.cyc_stall_cause.expect("frozen cycle carries a stall cause");
        self.stats.commit_width_hist.record_n(0, n);
        // `rob.len()` is the *logical* occupancy (zombies excluded) —
        // this must mirror the naive accounting in `commit`, where
        // `is_empty()` (which counts zombies) would over-attribute.
        let logical_occupancy = self.rob.len();
        if logical_occupancy > 0 {
            self.stats.commit_stall_cycles += n;
            if self.rob.any_grant_orinoco() {
                self.stats.commit_stall_ooo_ready += n;
            }
        }
        if let Some(r) = self.cyc_dispatch_block {
            self.stats.dispatch_stalls.record_n(r, n);
        }
        self.stats.stall_taxonomy.record_n(cause, n);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record_stall_run(self.now, n, cause.idx() as u64);
        }
        self.stats.rob_occ_sum += self.rob.len() as u64 * n;
        self.stats.iq_occ_sum += self.iq_len_total() as u64 * n;
    }

    /// Debug probe (property tests): whether the cycle just stepped left
    /// the machine frozen, and if so the uncapped next-event cycle the
    /// fast-forward path would jump to (`u64::MAX` = deadlocked).
    #[doc(hidden)]
    #[must_use]
    pub fn debug_frozen_next_event(&self) -> Option<u64> {
        self.frozen().then(|| self.next_event_cycle())
    }

    /// Debug probe (fast-forward tests): the number of [`Core::step`]
    /// calls since the core was built or last reset. Without
    /// fast-forward it equals [`Core::cycle`]; with it, the clock runs
    /// ahead by every cycle the skip jumped.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_steps(&self) -> u64 {
        self.steps
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        // Barrier serialisation: a fence at the head with drained stores
        // becomes safe.
        if let Some(h) = self.rob.head() {
            let e = self.rob.entry(h);
            // A fence at the head has no older stores left in the SQ
            // (they committed before it); it waits only for the store
            // buffer to drain. Requiring the SQ itself to empty would
            // deadlock on the fence's *younger* stores.
            if e.class == InstClass::Barrier
                && e.completed
                && !self.rob.is_safe_self(h)
                && self.sb.is_empty()
            {
                self.mark_safe_traced(h);
            }
        }
        // Orinoco commit already computed the (depth-unlimited) grant set
        // this cycle; a zero-commit cycle leaves the ROB untouched, so
        // the stall statistic below can reuse its emptiness instead of
        // re-scanning. `None` = not known (other policies, or the
        // depth-limited ablation whose grant set is narrower than the
        // statistic's unlimited scan).
        let mut ooo_ready_known: Option<bool> = None;
        let committed = match self.cfg.commit {
            CommitKind::Orinoco => self.commit_orinoco(&mut ooo_ready_known),
            CommitKind::Spec => self.commit_spec_oracle(),
            _ => self.commit_in_order(),
        };
        self.cyc_committed = committed;
        self.stats.commit_width_hist.record(committed as u64);
        // Note: `rob.len()` is the *logical* occupancy (zombies excluded),
        // deliberately not `is_empty()` which also counts zombies.
        let logical_occupancy = self.rob.len();
        if committed == 0 && logical_occupancy > 0 {
            self.stats.commit_stall_cycles += 1;
            let ooo_ready = ooo_ready_known.unwrap_or_else(|| self.rob.any_grant_orinoco());
            debug_assert_eq!(ooo_ready, self.rob.any_grant_orinoco(), "stale grant cache");
            if ooo_ready {
                self.stats.commit_stall_ooo_ready += 1;
            }
            // Precise exception: the oldest instruction holds a fault and
            // nothing can commit.
            if let Some(h) = self.rob.head() {
                if self.rob.entry(h).fault {
                    self.take_exception(h);
                }
            }
        }
    }

    fn commit_orinoco(&mut self, ooo_ready_known: &mut Option<bool>) -> usize {
        let mut grants = std::mem::take(&mut self.scratch_commit);
        self.rob
            .grants_orinoco_into(self.cfg.commit_width, self.cfg.commit_depth, &mut grants);
        if self.cfg.commit_depth.is_none() {
            // Valid on zero-commit cycles only, which is the only time the
            // caller consults it (commits mutate the ROB underneath).
            *ooo_ready_known = Some(!grants.is_empty());
        }
        let head = self.rob.head();
        let mut committed = 0;
        let mut head_committed = false;
        for &idx in &grants {
            let e = self.rob.entry(idx);
            debug_assert!(!e.wrong_path, "wrong-path instruction granted commit");
            debug_assert!(e.completed, "Orinoco commits completed instructions only");
            let (class, seq, mem_addr) = (e.class, e.seq, e.mem_addr);
            if class == InstClass::Store {
                // Stores leave the SQ in FIFO order and need SB space.
                let head_ok = self.lsq.sq_head_rob_idx() == Some(idx);
                if !head_ok || self.sb.len() >= self.cfg.sq_entries {
                    continue;
                }
            }
            // TSO lockdown: a load committing over older non-performed
            // loads needs a free lockdown-table row.
            if class == InstClass::Load {
                self.lsq
                    .older_nonperformed_loads_into(seq, &mut self.scratch_older_np);
                if !self.scratch_older_np.is_zero() {
                    let Some(row) = self.ldt_free.pop() else {
                        self.cyc_ldt_full = true;
                        continue; // LDT full: retry next cycle
                    };
                    let line = mem_addr.expect("load without address") / 64;
                    self.ldm.commit_load(row, &self.scratch_older_np);
                    self.ldt.acquire(line);
                    self.ldt_line[row] = Some(line);
                    self.ldt_live |= 1 << row;
                }
            }
            if Some(idx) != head && !head_committed {
                self.stats.ooo_commits += 1;
            } else if Some(idx) == head {
                head_committed = true;
            }
            self.retire(idx);
            committed += 1;
        }
        self.scratch_commit = grants;
        committed
    }

    /// Cherry-style oracle (SPEC): completed instructions release their
    /// resources out of order regardless of unresolved speculation, with
    /// zero rollback cost. With `spec_reclaims_rob` unset (Cherry proper,
    /// "SPEC w/o ROB"), ROB entries are only reclaimed in order once the
    /// speculation actually resolves.
    fn commit_spec_oracle(&mut self) -> usize {
        let cw = self.cfg.commit_width;
        // Oldest-first completed candidates, excluding wrong-path and
        // faulting instructions (the oracle knows) and already-released
        // entries.
        let mut candidates = std::mem::take(&mut self.scratch_commit);
        self.rob.in_order_into(self.rob.capacity(), &mut candidates);
        {
            let rob = &self.rob;
            candidates.retain(|&i| {
                let e = rob.entry(i);
                e.completed && !e.wrong_path && !e.fault && !e.released
            });
        }
        candidates.truncate(cw);
        let head = self.rob.head();
        let mut committed = 0;
        let mut head_committed = false;
        for &idx in &candidates {
            let e = self.rob.entry(idx);
            if e.class == InstClass::Store {
                let head_ok = self.lsq.sq_head_rob_idx() == Some(idx);
                if !head_ok || self.sb.len() >= self.cfg.sq_entries {
                    continue;
                }
            }
            if Some(idx) != head && !head_committed {
                self.stats.ooo_commits += 1;
            } else if Some(idx) == head {
                head_committed = true;
            }
            if self.cfg.spec_reclaims_rob {
                self.retire(idx);
            } else {
                self.release_resources(idx);
                self.rob.entry_mut(idx).released = true;
            }
            committed += 1;
        }
        self.scratch_commit = candidates;
        if !self.cfg.spec_reclaims_rob {
            // Cherry reserves ROB entries: reclaim in order once resolved.
            for _ in 0..cw {
                let Some(h) = self.rob.head() else { break };
                let e = self.rob.entry(h);
                if e.released && e.completed && self.rob.is_safe_self(h) {
                    self.rob.free(h);
                    self.cyc_quiet = false;
                } else {
                    break;
                }
            }
        }
        committed
    }

    fn commit_in_order(&mut self) -> usize {
        let policy = self.cfg.commit;
        let ecl = self.cfg.ecl;
        let cw = self.cfg.commit_width;
        let mut committed = 0;
        // "SPEC w/o ROB" holds entries after releasing resources; walk a
        // wider window so released entries do not mask grantable ones.
        let mut window = std::mem::take(&mut self.scratch_commit);
        self.rob.in_order_into(cw * 4, &mut window);
        for &idx in &window {
            if committed == cw {
                break;
            }
            let e = self.rob.entry(idx);
            if e.released {
                continue; // resources already released, awaiting reclaim
            }
            if e.wrong_path || e.fault {
                break;
            }
            let safe = self.rob.is_safe_self(idx);
            let can = match policy {
                CommitKind::InOrder => e.completed && safe,
                CommitKind::Vb => match e.class {
                    // Stores leave once non-speculative (address resolved);
                    // the SQ/SB picks the data up post-commit.
                    InstClass::Store => safe,
                    InstClass::Load => safe && (ecl || e.completed),
                    _ => safe,
                },
                CommitKind::Br => match e.class {
                    // Oracle branches never block commit.
                    InstClass::Branch => true,
                    InstClass::Load => safe && (ecl || e.completed),
                    _ => e.completed && safe,
                },
                CommitKind::Spec => unreachable!("handled separately"),
                CommitKind::Ecl => match e.class {
                    // DeSC: a safe load commits before its data arrives
                    // (safety implies the address already translated).
                    InstClass::Load => safe,
                    _ => e.completed && safe,
                },
                CommitKind::Orinoco => unreachable!("handled separately"),
            };
            let can = can
                && (e.class != InstClass::Store || self.sb.len() < self.cfg.sq_entries)
                // Post-commit execution lives in the finite validation
                // buffer: an incomplete instruction can only leave the ROB
                // if a VB entry is free.
                && (e.completed || self.rob.zombie_count() < self.cfg.vb_entries);
            if !can {
                break;
            }
            self.retire(idx);
            committed += 1;
        }
        self.scratch_commit = window;
        committed
    }

    /// Releases the architectural resources of a committing instruction:
    /// previous physical register, LQ entry, SQ entry (to the store
    /// buffer). Shared by full retire and the released-only path.
    fn release_resources(&mut self, idx: usize) {
        let e = self.rob.entry(idx);
        let (seq, class, dst, lq_slot, wrong_path) =
            (e.seq, e.class, e.dst, e.lq_slot, e.wrong_path);
        assert!(!wrong_path, "retiring a wrong-path instruction");
        if self.trace.is_some() || self.tracer.is_some() {
            let oldest_live_seq = self.rob.head().map(|h| self.rob.entry(h).seq);
            if self.trace.is_some() {
                let dyn_inst = self
                    .rob
                    .entry(idx)
                    .dyn_inst
                    .clone()
                    .expect("correct-path commit without a dynamic instruction");
                if let Some(trace) = self.trace.as_mut() {
                    trace.push(CommitEvent { seq, cycle: self.now, oldest_live_seq, dyn_inst });
                }
            }
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(
                    self.now,
                    TraceEventKind::Commit,
                    seq,
                    oldest_live_seq.unwrap_or(u64::MAX),
                );
            }
        }
        self.stats.committed += 1;
        self.committed_count += 1;
        self.committed_seq_sum += u128::from(seq);
        if let Some((_, _, prev)) = dst {
            // Completed instructions release the previous mapping now;
            // instructions leaving the ROB before completion (post-commit
            // execution) hold it until they drain — the register status
            // stays imprecise exactly as §2.2 describes for VB.
            if self.rob.entry(idx).completed {
                self.rename.commit_remap(prev);
            }
        }
        if class == InstClass::Load {
            if let Some(slot) = lq_slot {
                self.lsq.free_load(slot);
                self.rob.entry_mut(idx).lq_slot = None;
                // The entry leaves the LQ (ECL-committed non-performed
                // loads included — weak model): clear its lockdown column.
                self.on_load_no_longer_blocking(slot);
                // Under the Cherry oracle the load's disambiguation state
                // is released with the LQ entry; replays are cost-free, so
                // the load counts as resolved from here on.
                if self.cfg.commit == CommitKind::Spec && !self.rob.is_safe_self(idx) {
                    self.rob.mark_safe(idx);
                }
            }
        }
        if class == InstClass::Store {
            let entry = self.lsq.commit_store_head(idx);
            self.rob.entry_mut(idx).sq_slot = None;
            self.sb
                .push_back((entry.addr.expect("committing unresolved store"), seq));
        }
        if class == InstClass::Barrier && self.external_drain {
            self.fence_seqs.retain(|&s| s != seq);
        }
    }

    fn retire(&mut self, idx: usize) {
        self.release_resources(idx);
        if self.rob.entry(idx).completed {
            self.rob.free(idx);
        } else {
            // Post-commit execution (VB/BR/ECL): zombie until ExecDone.
            self.rob.retire_early(idx);
        }
    }

    fn take_exception(&mut self, idx: usize) {
        let seq = self.rob.entry(idx).seq;
        self.stats.exceptions += 1;
        self.handled_faults.insert(seq);
        self.squash_ge(seq, false);
        self.fetch.redirect(seq, self.now, PAGEFAULT_PENALTY);
    }

    fn replay_from(&mut self, idx: usize) {
        let seq = self.rob.entry(idx).seq;
        self.stats.replays += 1;
        self.squash_ge(seq, false);
        self.fetch.redirect(seq, self.now, REDIRECT_PENALTY);
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squashes every instruction with `seq >= from`. For a branch
    /// mispredict pass `branch.seq + 1` (the branch survives); for an
    /// exception or replay pass the offender's own sequence (it
    /// re-executes).
    fn squash_ge(&mut self, from: u64, mispredict: bool) {
        self.cyc_quiet = false;
        self.rob.from_seq_into(from, &mut self.scratch_squash);
        let mut reinject = std::mem::take(&mut self.scratch_reinject);
        reinject.clear();
        for si in 0..self.scratch_squash.len() {
            let idx = self.scratch_squash[si];
            let e = self.rob.free(idx);
            self.stats.squashed += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(self.now, TraceEventKind::Squash, e.seq, u64::from(e.wrong_path));
            }
            if e.class == InstClass::Barrier && self.external_drain {
                self.fence_seqs.retain(|&s| s != e.seq);
            }
            if let Some((qi, slot)) = e.iq_slot {
                self.iqs[qi].remove(slot);
            }
            if !e.srcs_read {
                for p in e.srcs.into_iter().flatten() {
                    self.rename.unread_operand(p);
                }
            }
            if let Some((a, n, p)) = e.dst {
                self.rename.rollback_dest(a, n, p);
            }
            if let Some(slot) = e.lq_slot {
                // A correct-path load is squashed only to *re-execute*
                // (replay/exception) under the same seq. Any lockdown it
                // pins must stay held across the refetch gap — releasing
                // now would let a withheld coherence ack escape while the
                // load still owes a perform (and a remote store would
                // install before it reads, breaking TSO).
                if !e.wrong_path {
                    let mut rows = self.ldm.blocking_rows(slot, self.ldt_live);
                    while rows != 0 {
                        let row = rows.trailing_zeros() as usize;
                        rows &= rows - 1;
                        self.pending_reblock.push((row, e.seq));
                    }
                    self.limbo_load_seqs.push(e.seq);
                }
                self.lsq.free_load(slot);
                self.on_load_no_longer_blocking(slot);
            }
            if e.sq_slot.is_some() {
                self.lsq.squash_store_tail(idx);
            }
            if !e.wrong_path {
                debug_assert!(!mispredict, "correct-path victim of a mispredict squash");
                reinject.push(e.dyn_inst.expect("correct-path entry keeps its DynInst"));
            }
        }
        // The fetch/decode queue holds only instructions younger than any
        // squash point (fetch is in order): drain and re-inject the
        // correct-path ones.
        for (f, _) in self.fq.drain(..) {
            self.stats.squashed += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(self.now, TraceEventKind::Squash, f.inst.seq, u64::from(f.wrong_path));
            }
            if !f.wrong_path {
                debug_assert!(f.inst.seq >= from);
                reinject.push(f.inst);
            }
        }
        self.fetch.clear_wrong_path_owned_by(from.saturating_sub(1));
        self.fetch.reinject_drain(&mut reinject);
        self.scratch_reinject = reinject;
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        let mut budget = self.fus.budget(self.now);
        let ready_before: usize = self.iqs.iter().map(IssueQueue::ready_count).sum();
        self.cyc_ready_before = ready_before;
        self.stats.iq_ready_sum += ready_before as u64;
        let mut grants = std::mem::take(&mut self.scratch_grants);
        let mut granted_total = 0;
        let mut remaining = self.cfg.width;
        for qi in 0..self.iqs.len() {
            if remaining == 0 {
                break;
            }
            self.iqs[qi].select_into(&mut budget, remaining, &mut grants);
            remaining -= grants.len();
            granted_total += grants.len();
            // Grants are processed per queue: a later queue's selection is
            // unaffected (it sees only the shared `budget` array).
            let rank_base = granted_total - grants.len();
            for (k, (_slot, iqe)) in grants.drain(..).enumerate() {
                let idx = iqe.rob_idx;
                let iq_seq = iqe.seq;
                for p in iqe.srcs.into_iter().flatten() {
                    self.rename.read_operand(p);
                }
                let e = self.rob.entry_mut(idx);
                e.iq_slot = None;
                e.issued = true;
                e.srcs_read = true;
                let class = e.class;
                if class == InstClass::Store {
                    // The AGU no longer waits for the data register: note
                    // whether it was already available, or arrange to be
                    // told.
                    let data_ready = iqe.srcs[1].is_none() || iqe.src_ready[1];
                    e.store_data_ready = data_ready;
                    if !data_ready {
                        let p = iqe.srcs[1].expect("pending data register");
                        let gen = self.rob.generation(idx);
                        if self.store_data_waiters.len() >= self.cfg.sq_entries * 2 {
                            // Lazy prune keeps the flat list bounded (live
                            // waiters never exceed the SQ size).
                            let rob = &self.rob;
                            self.store_data_waiters.retain(|&(_, i, g)| rob.is_live(i, g));
                        }
                        self.store_data_waiters.push((p, idx, gen));
                    }
                }
                let lat = exec_latency(class);
                let until = if is_unpipelined(class) { self.now + lat } else { self.now + 1 };
                self.fus.occupy(Pool::of(class), self.now, until);
                let kind = if class.is_mem() { EventKind::AguDone } else { EventKind::ExecDone };
                self.events.push(Event {
                    at: self.now + lat,
                    kind,
                    rob_idx: idx,
                    gen: self.rob.generation(idx),
                });
                self.stats.issued += 1;
                if let Some(t) = self.tracer.as_deref_mut() {
                    // The grant rank is the instruction's position in the
                    // cycle's priority-ordered pick (0 = first grant of
                    // the age-matrix selection).
                    t.record(self.now, TraceEventKind::Issue, iq_seq, (rank_base + k) as u64);
                    t.record(
                        self.now,
                        TraceEventKind::Execute,
                        iq_seq,
                        Pool::of(class).idx() as u64,
                    );
                }
            }
        }
        if granted_total > 0 {
            self.cyc_quiet = false;
        }
        if ready_before > granted_total && ready_before > 0 {
            self.stats.issue_conflict_cycles += 1;
        }
        self.scratch_grants = grants;
    }

    // ------------------------------------------------------------------
    // Dispatch (rename + allocate)
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        self.scratch_used_banks.clear();
        self.scratch_used_banks.resize(self.cfg.width.max(1), false);
        for _ in 0..self.cfg.width {
            let Some((f, at)) = self.fq.front() else { break };
            if *at > self.now {
                break;
            }
            let d = &f.inst;
            // Atomic resource check; attribute the first exhausted
            // resource (top-down, §6.2).
            let pool_q = self.iq_index(Pool::of(d.class));
            let blocked = if self.rob.free_count() == 0 {
                Some(Resource::Rob)
            } else if !self.iqs[pool_q].has_space() {
                Some(Resource::Iq)
            } else if d.is_load() && self.lsq.lq_free() == 0 {
                Some(Resource::Lq)
            } else if d.is_store() && self.lsq.sq_free() == 0 {
                Some(Resource::Sq)
            } else if d.dst.is_some_and(|a| !self.rename.has_free_for(a)) {
                Some(Resource::RegFile)
            } else {
                None
            };
            if let Some(r) = blocked {
                self.stats.dispatch_stalls.record(r);
                self.cyc_dispatch_block = Some(r);
                break;
            }
            let (f, _) = self.fq.pop_front().expect("checked front");
            self.cyc_quiet = false;
            let d = f.inst;
            // Criticality (correct path only).
            let critical = match self.crit.as_mut() {
                Some(ce) if !f.wrong_path => {
                    let c = ce.is_critical(d.pc);
                    ce.rename_observe(d.pc, d.src1.into_iter().chain(d.src2));
                    if let Some(dst) = d.dst {
                        ce.note_writer(dst, d.pc);
                    }
                    c
                }
                _ => false,
            };
            // Rename.
            let srcs = [
                d.src1.map(|a| self.rename.rename_source(a)),
                d.src2.map(|a| self.rename.rename_source(a)),
            ];
            let dst = d.dst.map(|a| {
                let (new, prev) = self.rename.rename_dest(a).expect("checked free regs");
                (a, new, prev)
            });
            let speculative = match d.class {
                InstClass::Branch => d.op != Opcode::Jal,
                InstClass::Load | InstClass::Store | InstClass::Barrier => true,
                _ => false,
            };
            let entry = RobEntry {
                seq: d.seq,
                pc: d.pc,
                op: d.op,
                class: d.class,
                wrong_path: f.wrong_path,
                dst,
                srcs,
                srcs_read: false,
                iq_slot: None,
                lq_slot: None,
                sq_slot: None,
                issued: false,
                agu_done: false,
                store_data_ready: false,
                completed: false,
                mispredicted: f.mispredicted,
                fault: false,
                mem_addr: d.mem_addr,
                next_pc: d.next_pc,
                taken: d.taken,
                critical,
                retired: false,
                released: false,
                // The DynInst moves into the ROB entry (no clone); the
                // bank-conflict path below recovers it from the returned
                // entry.
                dyn_inst: Some(d),
            };
            let seq = entry.seq;
            let class = entry.class;
            let rob_idx = if self.cfg.banked_dispatch {
                match self.rob.alloc_banked(entry, speculative, &self.scratch_used_banks) {
                    Ok(idx) => {
                        let b = self.rob.bank_of(idx, self.scratch_used_banks.len());
                        self.scratch_used_banks[b] = true;
                        idx
                    }
                    Err(mut entry) => {
                        // Write-port conflict: every free slot sits in a
                        // bank already written this cycle. The instruction
                        // is already renamed; un-rename and retry next
                        // cycle.
                        self.stats.bank_conflict_stalls += 1;
                        for p in srcs.into_iter().flatten() {
                            self.rename.unread_operand(p);
                        }
                        if let Some((a, n, p)) = dst {
                            self.rename.rollback_dest(a, n, p);
                        }
                        let d = entry.dyn_inst.take().expect("entry keeps its DynInst");
                        self.fq.push_front((
                            Fetched { inst: d, wrong_path: f.wrong_path, mispredicted: f.mispredicted },
                            self.now,
                        ));
                        break;
                    }
                }
            } else {
                self.rob.alloc(entry, speculative).expect("checked ROB space")
            };
            if class == InstClass::Barrier && self.external_drain {
                // Track live fences (wrong-path ones included — they gate
                // conservatively until squashed) for the fence→read gate.
                self.fence_seqs.push(seq);
            }
            if speculative {
                self.spec_dispatched += 1;
                if self.chaos_spec_flip == Some(self.spec_dispatched) {
                    // Injected commit-matrix fault: the SPEC bit this
                    // dispatch just set is flipped back off.
                    self.chaos_spec_flip = None;
                    self.rob.mark_safe(rob_idx);
                }
            }
            // LSQ.
            let lq_slot = (class == InstClass::Load)
                .then(|| self.lsq.alloc_load(rob_idx, seq).expect("checked LQ space"));
            if let Some(slot) = lq_slot {
                // Every fresh load starts as a safety-scan candidate
                // (wrong-path loads included: the scan marks them safe
                // exactly as the full-queue walk did).
                self.spec_loads.set(slot);
            }
            let sq_slot = (class == InstClass::Store)
                .then(|| self.lsq.alloc_store(rob_idx, seq).expect("checked SQ space"));
            // IQ.
            let src_ready = [
                srcs[0].is_none_or(|p| self.rename.is_ready(p)),
                srcs[1].is_none_or(|p| self.rename.is_ready(p)),
            ];
            let iq_slot = self.iqs[pool_q]
                .allocate(IqEntry {
                    rob_idx,
                    pool: Pool::of(class),
                    critical,
                    seq,
                    srcs,
                    src_ready,
                    // Stores issue address generation on the address
                    // operand alone; the data operand merges later.
                    wait_on: [true, class != InstClass::Store],
                })
                .expect("checked IQ space");
            let e = self.rob.entry_mut(rob_idx);
            e.iq_slot = Some((pool_q, iq_slot));
            e.lq_slot = lq_slot;
            e.sq_slot = sq_slot;
            if let Some(slot) = lq_slot {
                if !f.wrong_path {
                    self.limbo_load_seqs.retain(|&s| s != seq);
                    if !self.pending_reblock.is_empty() {
                        // A replayed blocking load is back in the LQ:
                        // re-pin the lockdown rows that stayed held for
                        // it.
                        self.pending_reblock.retain(|&(row, s)| {
                            if s == seq {
                                self.ldm.reblock(row, slot);
                                false
                            } else {
                                true
                            }
                        });
                    }
                }
            }
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(self.now, TraceEventKind::Rename, seq, u64::from(f.wrong_path));
                t.record(self.now, TraceEventKind::Dispatch, seq, u64::from(speculative));
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        let cap = self.cfg.width * (FRONTEND_DEPTH as usize + 2);
        if self.fq.len() >= cap {
            return;
        }
        let dispatchable_at = self.now + FRONTEND_DEPTH;
        self.fetch.fetch_into(self.now, self.cfg.width, &mut self.scratch_fetch);
        if !self.scratch_fetch.is_empty() {
            self.cyc_quiet = false;
        }
        for f in self.scratch_fetch.drain(..) {
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(self.now, TraceEventKind::Fetch, f.inst.seq, f.inst.pc);
            }
            self.fq.push_back((f, dispatchable_at));
        }
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("config", &self.cfg.name)
            .field("cycle", &self.now)
            .field("rob", &self.rob.len())
            .field("iq", &self.iq_len_total())
            .field("committed", &self.stats.committed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use orinoco_isa::ProgramBuilder;

    fn tiny_core(cfg: CoreConfig) -> Core {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.halt();
        Core::new(Emulator::new(b.build(), 256), cfg)
    }

    #[test]
    fn unified_core_has_one_queue() {
        let core = tiny_core(CoreConfig::base());
        assert_eq!(core.iqs.len(), 1);
        assert_eq!(core.iq_index(Pool::Fp), 0);
        assert_eq!(core.iq_index(Pool::Mem), 0);
    }

    #[test]
    fn split_core_has_one_queue_per_pool() {
        let core = tiny_core(CoreConfig::base().with_split_iq());
        assert_eq!(core.iqs.len(), 4);
        assert_eq!(core.iq_index(Pool::Int), Pool::Int.idx());
        assert_eq!(core.iq_index(Pool::Mem), Pool::Mem.idx());
        let caps: usize = core.iqs.iter().map(IssueQueue::capacity).sum();
        // 40/10/20/30 split of 97, each at least 4
        assert!(caps <= CoreConfig::base().iq_entries + 12);
    }

    #[test]
    fn invalidation_of_unlocked_line_acks_immediately() {
        let mut core = tiny_core(CoreConfig::base());
        assert!(core.apply_remote_invalidation(0x4000));
        assert_eq!(core.active_lockdowns(), 0);
        assert_eq!(core.any_locked_line(), None);
    }

    #[test]
    fn invalidation_replays_a_performed_load_past_an_older_pending_one() {
        // In-order commit (the base config) keeps a performed load in the
        // LQ while an older load is still pending: the older load's
        // address ends a dependency chain and misses to DRAM, the younger
        // load to line A issues at once.
        use crate::lsq::LqEntry;
        use orinoco_isa::ArchReg;
        const LINE_A: u64 = 0x1000;
        let x = ArchReg::int;
        let mut b = ProgramBuilder::new();
        b.li(x(6), LINE_A as i64);
        b.li(x(1), 0);
        for _ in 0..64 {
            b.addi(x(1), x(1), 0x100); // x1 = 0x4000, a cold line
        }
        b.ld(x(4), x(1), 0);
        b.ld(x(5), x(6), 0);
        b.halt();
        let mut core = Core::new(Emulator::new(b.build(), 1 << 16), CoreConfig::base());
        let loads = |core: &Core| -> Vec<LqEntry> {
            (0..core.cfg.lq_entries)
                .filter_map(|s| core.lsq.load(s).cloned())
                .collect()
        };
        let window_open = |core: &Core| {
            let lq = loads(core);
            lq.iter().any(|l| {
                l.addr == Some(LINE_A)
                    && l.performed
                    && lq.iter().any(|o| o.seq < l.seq && !o.performed)
            })
        };
        while !window_open(&core) {
            assert!(!core.finished(), "the younger load never performed first");
            core.step();
        }
        let older = core.lsq.oldest_nonperformed_load();
        let replays = core.stats().replays;
        let ack_now = core.apply_remote_invalidation(LINE_A);
        assert!(ack_now, "no lockdown under in-order commit");
        let replayed = core.stats().replays - replays;
        assert_eq!(replayed, 1, "the stale load was not replayed");
        assert!(
            loads(&core).iter().all(|l| l.addr != Some(LINE_A)),
            "the load that read line A is still in the LQ"
        );
        let still_older = core.lsq.oldest_nonperformed_load();
        assert_eq!(still_older, older, "the older load was squashed");
        // Drains, and `run` checks that each of the program's 69
        // instructions committed exactly once.
        assert_eq!(core.run(1_000_000).committed, 69);
    }

    #[test]
    fn fault_roll_is_deterministic_and_respects_handled_set() {
        let mut core = tiny_core(CoreConfig {
            pagefault_per_million: 500_000, // ~half of all rolls fault
            ..CoreConfig::base()
        });
        let first: Vec<bool> = (0..64).map(|s| core.fault_roll(s)).collect();
        let second: Vec<bool> = (0..64).map(|s| core.fault_roll(s)).collect();
        assert_eq!(first, second, "roll must be a pure function of seq/seed");
        assert!(first.iter().any(|&b| b));
        assert!(first.iter().any(|&b| !b));
        let victim = (0..64).find(|&s| core.fault_roll(s)).expect("some fault");
        core.handled_faults.insert(victim);
        assert!(!core.fault_roll(victim), "handled fault must not re-fire");
    }

    #[test]
    fn lifecycle_trace_covers_every_transition_kind() {
        use orinoco_isa::ArchReg;
        let mut b = ProgramBuilder::new();
        let x1 = ArchReg::int(1);
        let x2 = ArchReg::int(2);
        b.li(x1, 50);
        b.li(x2, 0);
        let top = b.label();
        b.bind(top);
        b.mul(x2, x2, x1); //   long-latency producer: consumers sleep in
        b.add(x2, x2, x1); //   the IQ and get woken by the writeback.
        b.addi(x1, x1, -1);
        b.bne(x1, ArchReg::ZERO, top);
        b.halt();
        let cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        let mut core = Core::new(Emulator::new(b.build(), 1 << 16), cfg);
        core.enable_tracing(1 << 16);
        let stats = core.run(100_000).clone();
        let t = core.tracer().expect("tracing enabled");
        assert_eq!(t.dropped(), 0, "ring sized for the whole run");
        let count = |k: TraceEventKind| t.records().filter(|r| r.kind == k).count() as u64;
        // One commit event per committed instruction, and every
        // transition kind (including wakeup and commit-eligible from the
        // speculative branches) appears.
        assert_eq!(count(TraceEventKind::Commit), stats.committed);
        for k in TraceEventKind::ALL {
            assert!(count(k) > 0, "no {} events recorded", k.label());
        }
        // The taxonomy attributes exactly the zero-commit cycles.
        assert_eq!(
            stats.stall_taxonomy.total(),
            count(TraceEventKind::Stall),
            "one stall record per attributed cycle"
        );
        assert!(stats.stall_taxonomy.total() > 0);
    }

    #[test]
    fn tiny_program_drains_in_a_few_cycles() {
        for sched in [SchedulerKind::Age, SchedulerKind::Orinoco] {
            let mut core = tiny_core(CoreConfig::base().with_scheduler(sched));
            let stats = core.run(10_000);
            assert_eq!(stats.committed, 2); // nop + halt
            assert!(stats.cycles < 100);
        }
    }
}
