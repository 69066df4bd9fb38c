//! Axiomatic TSO memory-consistency checking over the multi-core
//! [`System`] — the second oracle, independent of the per-core lockstep
//! emulator comparison (DESIGN.md §11).
//!
//! A finished `System` run yields an *observation-layer* trace:
//!
//! * **po** — each core's committed shared-window loads, stores and
//!   fences in program order (from the commit trace);
//! * **rf** — the write each load observed, tracked by the coherence hub
//!   as a [`WriteId`] (never as a data value, so the check is independent
//!   of the emulators' private memories);
//! * **co** — the global install order per 8-byte word, straight from
//!   the hub's version log ([`WriteId::Init`] is the implicit first
//!   element of every word).
//!
//! From these [`check_tso`] derives **fr** (a load reading write `w`
//! precedes every co-successor of `w`) and checks the two axioms of the
//! standard TSO formulation:
//!
//! * **sc-per-location** — for every word, acyclic(po-loc ∪ rf ∪ co ∪ fr);
//! * **tso-ghb** — globally, acyclic(ppo ∪ rfe ∪ co ∪ fr), where ppo is
//!   program order minus W→R pairs with no intervening fence, and rfi
//!   (same-core store-buffer forwarding) is excluded.
//!
//! [`mcm_campaign`] fuzzes the checker over seeded multi-threaded
//! programs (2–4 cores hammering 2–4 shared variables, with false-sharing
//! layouts, fences and dependency-chain delays), and proves the checker
//! load-bearing in the same run: [`injection_probe`] silently drops a
//! coherence invalidation ([`orinoco_mem::CohConfig::drop_invalidation`]) in a
//! message-passing scenario and requires the resulting stale read to
//! surface as a TSO cycle.

use crate::oracle::with_quiet_panics;
use crate::program_seeds;
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind, System, SystemConfig};
use orinoco_isa::{ArchReg, Emulator, InstClass, ProgramBuilder};
use orinoco_mem::coherence::{CohStats, WriteId};
use orinoco_util::pool::parallel_map;
use orinoco_util::Rng;
use orinoco_workloads::multicore::SharedWorkload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cycle budget per multi-threaded run — far above anything a generated
/// program needs, so hitting it means a coherence/pipeline deadlock.
const MAX_CYCLES: u64 = 500_000;

/// Operation kind of an [`McmEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McmOp {
    /// Load of `word`, observing write `rf`.
    Read {
        /// 8-byte-aligned word address.
        word: u64,
        /// The write this load observed.
        rf: WriteId,
    },
    /// Store to `word`.
    Write {
        /// 8-byte-aligned word address.
        word: u64,
    },
    /// Memory ordering fence.
    Fence,
}

/// One committed shared-window operation.
#[derive(Clone, Copy, Debug)]
pub struct McmEvent {
    /// Core the operation committed on.
    pub core: usize,
    /// Per-core program-order sequence number.
    pub seq: u64,
    /// What the operation did.
    pub op: McmOp,
}

/// Observation-layer trace of a finished [`System`] run.
#[derive(Clone, Debug, Default)]
pub struct McmTrace {
    /// Every shared-window commit, all cores interleaved (per-core order
    /// is program order).
    pub events: Vec<McmEvent>,
    /// Per-word install order (`co`); [`WriteId::Init`] implied first.
    pub co: BTreeMap<u64, Vec<WriteId>>,
    /// Committed shared loads with no rf record — always a bug.
    pub unresolved: Vec<(usize, u64)>,
}

/// Extracts the observation-layer trace from a finished `System`.
/// `enable_commit_trace` must have been called on every core before the
/// run; this drains those traces.
pub fn extract_trace(sys: &mut System) -> McmTrace {
    let (base, bytes) = {
        let c = sys.hub().config();
        (c.shared_base, c.shared_bytes)
    };
    let shared = |a: u64| a >= base && a < base + bytes;
    let co: BTreeMap<u64, Vec<WriteId>> = sys
        .hub()
        .memory_order()
        .iter()
        .map(|(&w, vs)| (w, vs.iter().map(|&(_, id)| id).collect()))
        .collect();
    let rf = sys.rf().clone();
    let mut trace = McmTrace { co, ..McmTrace::default() };
    for c in 0..sys.num_cores() {
        let mut evs = sys.core_mut(c).drain_commit_trace();
        // Commits are reported out of order (that is the point of
        // Orinoco); seq restores program order.
        evs.sort_by_key(|e| e.seq);
        for ev in evs {
            let d = &ev.dyn_inst;
            let op = match (d.class, d.mem_addr) {
                (InstClass::Load, Some(a)) if shared(a) => match rf.get(&(c, ev.seq)) {
                    Some(&w) => McmOp::Read { word: a & !7, rf: w },
                    None => {
                        trace.unresolved.push((c, ev.seq));
                        continue;
                    }
                },
                (InstClass::Store, Some(a)) if shared(a) => McmOp::Write { word: a & !7 },
                (InstClass::Barrier, _) => McmOp::Fence,
                _ => continue,
            };
            trace.events.push(McmEvent { core: c, seq: ev.seq, op });
        }
    }
    trace
}

/// A violated axiom (or trace well-formedness check).
#[derive(Clone, Debug)]
pub struct McmViolation {
    /// Which check failed: `sc-per-location`, `tso-ghb`, `rf-wf`,
    /// `co-wf`, `hub-invariant`, `stale-read` or `panic`.
    pub axiom: &'static str,
    /// Human-readable description, listing the offending cycle.
    pub detail: String,
}

impl std::fmt::Display for McmViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.axiom, self.detail)
    }
}

/// Relation sizes from a successful [`check_tso`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct McmCheck {
    /// Shared-window loads checked.
    pub reads: u64,
    /// Shared-window stores checked.
    pub writes: u64,
    /// Fences seen.
    pub fences: u64,
    /// External (cross-core) reads-from edges.
    pub rfe_edges: u64,
    /// Internal (forwarding) reads-from edges — excluded from the
    /// global graph, as TSO requires.
    pub rfi_edges: u64,
    /// Coherence-order edges.
    pub co_edges: u64,
    /// Derived from-read edges.
    pub fr_edges: u64,
}

fn fmt_event(e: &McmEvent) -> String {
    match e.op {
        McmOp::Read { word, rf } => format!("C{}.s{} R[{word:#x}]<-{rf:?}", e.core, e.seq),
        McmOp::Write { word } => format!("C{}.s{} W[{word:#x}]", e.core, e.seq),
        McmOp::Fence => format!("C{}.s{} F", e.core, e.seq),
    }
}

/// Iterative three-colour DFS; returns one cycle (node indices, in edge
/// order) if the graph has any.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut parent = vec![usize::MAX; n];
    for s in 0..n {
        if color[s] != 0 {
            continue;
        }
        color[s] = 1;
        let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
        while let Some(top) = stack.last_mut() {
            let (u, i) = *top;
            if i == adj[u].len() {
                color[u] = 2;
                stack.pop();
                continue;
            }
            top.1 += 1;
            let v = adj[u][i];
            match color[v] {
                0 => {
                    color[v] = 1;
                    parent[v] = u;
                    stack.push((v, 0));
                }
                1 => {
                    let mut cyc = vec![v];
                    let mut x = u;
                    while x != v {
                        cyc.push(x);
                        x = parent[x];
                    }
                    cyc.reverse();
                    return Some(cyc);
                }
                _ => {}
            }
        }
    }
    None
}

fn cycle_detail(relation: &str, cyc: &[usize], events: &[McmEvent]) -> String {
    let path = cyc.iter().map(|&i| fmt_event(&events[i])).collect::<Vec<_>>().join(" -> ");
    format!("{relation} cycle: {path} -> (back)")
}

/// Checks the trace against the TSO axioms.
///
/// # Errors
///
/// Returns the first violated axiom: a malformed rf/co (a load observing
/// a write that never committed or installed, a committed shared store
/// missing from the install order), an sc-per-location cycle, or a
/// global TSO cycle.
pub fn check_tso(trace: &McmTrace) -> Result<McmCheck, McmViolation> {
    let ev = &trace.events;
    let n = ev.len();
    let mut out = McmCheck::default();

    if let Some(&(c, s)) = trace.unresolved.first() {
        return Err(McmViolation {
            axiom: "rf-wf",
            detail: format!("committed shared load C{c}.s{s} has no rf record"),
        });
    }

    // Node index per committed store, and per-core program order.
    let mut store_at: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    let mut per_core: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, e) in ev.iter().enumerate() {
        per_core.entry(e.core).or_default().push(i);
        match e.op {
            McmOp::Write { .. } => {
                store_at.insert((e.core, e.seq), i);
                out.writes += 1;
            }
            McmOp::Read { .. } => out.reads += 1,
            McmOp::Fence => out.fences += 1,
        }
    }

    // co well-formedness: every installed write is a committed shared
    // store to that word, and every such store installs exactly once.
    let mut co_pos: BTreeMap<usize, usize> = BTreeMap::new(); // node -> 1-based slot in its word's order
    for (&word, order) in &trace.co {
        for (pos, id) in order.iter().enumerate() {
            let WriteId::Store { core, seq } = *id else {
                return Err(McmViolation {
                    axiom: "co-wf",
                    detail: format!("Init inside the install order of {word:#x}"),
                });
            };
            let Some(&node) = store_at.get(&(core, seq)) else {
                return Err(McmViolation {
                    axiom: "co-wf",
                    detail: format!(
                        "install order of {word:#x} names C{core}.s{seq}, which never committed as a shared store"
                    ),
                });
            };
            if ev[node].op != (McmOp::Write { word }) {
                return Err(McmViolation {
                    axiom: "co-wf",
                    detail: format!("C{core}.s{seq} installed at {word:#x} but committed elsewhere"),
                });
            }
            if co_pos.insert(node, pos + 1).is_some() {
                return Err(McmViolation {
                    axiom: "co-wf",
                    detail: format!("C{core}.s{seq} appears twice in the install order"),
                });
            }
        }
    }
    for (&(core, seq), &node) in &store_at {
        if !co_pos.contains_key(&node) {
            return Err(McmViolation {
                axiom: "co-wf",
                detail: format!("committed shared store C{core}.s{seq} never installed"),
            });
        }
    }

    // rf well-formedness + edge classification.
    let mut rfe: Vec<(usize, usize)> = Vec::new();
    let mut fr: Vec<(usize, usize)> = Vec::new();
    for (i, e) in ev.iter().enumerate() {
        let McmOp::Read { word, rf } = e.op else { continue };
        let from_pos = match rf {
            WriteId::Init => 0,
            WriteId::Store { core, seq } => {
                let Some(&w_node) = store_at.get(&(core, seq)) else {
                    return Err(McmViolation {
                        axiom: "rf-wf",
                        detail: format!(
                            "{} observes C{core}.s{seq}, which never committed as a shared store",
                            fmt_event(e)
                        ),
                    });
                };
                if ev[w_node].op != (McmOp::Write { word }) {
                    return Err(McmViolation {
                        axiom: "rf-wf",
                        detail: format!("{} observes a write to a different word", fmt_event(e)),
                    });
                }
                if ev[w_node].core == e.core {
                    out.rfi_edges += 1;
                } else {
                    out.rfe_edges += 1;
                    rfe.push((w_node, i));
                }
                co_pos[&w_node]
            }
        };
        // fr: this read precedes every co-successor of its source.
        if let Some(order) = trace.co.get(&word) {
            for id in &order[from_pos..] {
                let WriteId::Store { core, seq } = *id else { continue };
                fr.push((i, store_at[&(core, seq)]));
                out.fr_edges += 1;
            }
        }
    }

    // co edges (consecutive pairs chain transitively).
    let mut co_edges: Vec<(usize, usize)> = Vec::new();
    for order in trace.co.values() {
        for pair in order.windows(2) {
            let node = |id: &WriteId| match *id {
                WriteId::Store { core, seq } => store_at[&(core, seq)],
                WriteId::Init => unreachable!("checked above"),
            };
            co_edges.push((node(&pair[0]), node(&pair[1])));
            out.co_edges += 1;
        }
    }

    // sc-per-location: for every word, acyclic(po-loc ∪ rf ∪ co ∪ fr).
    for &word in trace.co.keys() {
        let mut adj = vec![Vec::new(); n];
        let touches = |i: usize| match ev[i].op {
            McmOp::Read { word: w, .. } | McmOp::Write { word: w } => w == word,
            McmOp::Fence => false,
        };
        for order in per_core.values() {
            let loc: Vec<usize> = order.iter().copied().filter(|&i| touches(i)).collect();
            for pair in loc.windows(2) {
                adj[pair[0]].push(pair[1]);
            }
        }
        for (i, e) in ev.iter().enumerate() {
            let McmOp::Read { word: w, rf } = e.op else { continue };
            if w != word {
                continue;
            }
            if let WriteId::Store { core, seq } = rf {
                adj[store_at[&(core, seq)]].push(i); // rf, rfi included
            }
        }
        for &(a, b) in co_edges.iter().chain(fr.iter()) {
            if touches(a) && touches(b) {
                adj[a].push(b);
            }
        }
        if let Some(cyc) = find_cycle(&adj) {
            return Err(McmViolation {
                axiom: "sc-per-location",
                detail: cycle_detail(&format!("coherence({word:#x})"), &cyc, ev),
            });
        }
    }

    // tso-ghb: acyclic(ppo ∪ rfe ∪ co ∪ fr). ppo drops W→R pairs with no
    // fence between them (the store-buffer reordering TSO permits); rfi
    // is dropped globally (forwarding reads the SB before the store is
    // globally visible).
    let mut adj = vec![Vec::new(); n];
    for order in per_core.values() {
        for (ai, &a) in order.iter().enumerate() {
            for &b in &order[ai + 1..] {
                let relaxed = matches!(ev[a].op, McmOp::Write { .. })
                    && matches!(ev[b].op, McmOp::Read { .. })
                    && !order[ai + 1..]
                        .iter()
                        .take_while(|&&x| x != b)
                        .any(|&x| ev[x].op == McmOp::Fence);
                if !relaxed {
                    adj[a].push(b);
                }
            }
        }
    }
    for &(a, b) in rfe.iter().chain(co_edges.iter()).chain(fr.iter()) {
        adj[a].push(b);
    }
    if let Some(cyc) = find_cycle(&adj) {
        return Err(McmViolation { axiom: "tso-ghb", detail: cycle_detail("ghb", &cyc, ev) });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Multi-threaded program generation.
// ---------------------------------------------------------------------------

/// One generated thread operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtOp {
    /// Load shared variable `v`.
    Ld(usize),
    /// Store a fresh value to shared variable `v`.
    St(usize),
    /// Memory fence.
    Fence,
    /// `n` dependent `addi`s on the base register — delays every later
    /// access of this thread (their addresses depend on it).
    Delay(u32),
}

/// A generated multi-threaded program over the shared window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MtSpec {
    /// Per-core operation sequences.
    pub threads: Vec<Vec<MtOp>>,
    /// Byte offset of each shared variable inside the window. Packed
    /// layouts put two variables on one cache line (false sharing).
    pub var_offsets: Vec<u64>,
    /// `addi` chain length materialising the window base address.
    pub chain: u64,
}

/// Deterministically generates a multi-threaded program from a seed:
/// 2–4 cores, 2–4 shared variables (half the seeds pack two per line),
/// each thread a random mix of loads, stores, fences and delays.
#[must_use]
pub fn generate_mt(pseed: u64) -> MtSpec {
    let mut rng = Rng::seed_from_u64(pseed);
    let cores = 2 + (rng.next_u64() % 3) as usize;
    let nvars = 2 + (rng.next_u64() % 3) as usize;
    let packed = rng.next_u64() & 1 == 0;
    let var_offsets = (0..nvars as u64)
        .map(|v| if packed { (v / 2) * 64 + (v % 2) * 8 } else { v * 64 })
        .collect();
    let chain = [2u64, 4, 8, 16, 32][(rng.next_u64() % 5) as usize];
    let threads = (0..cores)
        .map(|_| {
            let n = 3 + (rng.next_u64() % 5) as usize;
            (0..n)
                .map(|_| match rng.next_u64() % 100 {
                    0..=39 => MtOp::Ld((rng.next_u64() % nvars as u64) as usize),
                    40..=74 => MtOp::St((rng.next_u64() % nvars as u64) as usize),
                    75..=84 => MtOp::Fence,
                    _ => MtOp::Delay(1 + (rng.next_u64() % 24) as u32),
                })
                .collect()
        })
        .collect();
    MtSpec { threads, var_offsets, chain }
}

/// A core configuration suitable for [`System`]: Orinoco issue, the
/// commit policy chosen by the seed's low bit (both TSO-preserving
/// policies), prefetcher off, per-core fast-forward off.
fn mc_core_config(pseed: u64) -> CoreConfig {
    let commit = if pseed & 1 == 0 { CommitKind::Orinoco } else { CommitKind::InOrder };
    let mut cfg =
        CoreConfig::base().with_scheduler(SchedulerKind::Orinoco).with_commit(commit);
    cfg.mem.prefetch_streams = 0;
    cfg.fast_forward = false;
    cfg
}

/// Builds one thread of an [`MtSpec`] as a single-core program. The base
/// address is materialised through a dependent `addi` chain so `Delay`
/// ops genuinely postpone the accesses that follow them.
fn build_thread(spec: &MtSpec, ops: &[MtOp], shared_base: u64) -> Emulator {
    let mut b = ProgramBuilder::new();
    let base = ArchReg::int(1);
    let val = ArchReg::int(2);
    b.li(base, 0);
    let step = (shared_base / spec.chain) as i64;
    for _ in 0..spec.chain {
        b.addi(base, base, step);
    }
    let mut next_val = 1i64;
    let mut dst = 4u8;
    for op in ops {
        match *op {
            MtOp::Ld(v) => {
                b.ld(ArchReg::int(dst), base, spec.var_offsets[v] as i64);
                dst = 4 + (dst - 3) % 8;
            }
            MtOp::St(v) => {
                b.li(val, next_val);
                next_val += 1;
                b.st(val, base, spec.var_offsets[v] as i64);
            }
            MtOp::Fence => {
                b.fence();
            }
            MtOp::Delay(n) => {
                for _ in 0..n {
                    b.addi(base, base, 0);
                }
            }
        }
    }
    b.halt();
    Emulator::new(b.build(), 1 << 16)
}

/// Builds the [`System`] for a generated program. Coherence message
/// latencies and system-level fast-forward are varied by the seed.
#[must_use]
pub fn build_system(spec: &MtSpec, pseed: u64) -> System {
    build_system_ff(spec, pseed, (pseed >> 16) & 1 == 1)
}

/// [`build_system`] with the system fast-forward forced to
/// `fast_forward` — the ffeq campaign runs the same program both ways
/// and diffs every observable.
#[must_use]
pub fn build_system_ff(spec: &MtSpec, pseed: u64, fast_forward: bool) -> System {
    let mut scfg = SystemConfig::new(spec.threads.len());
    scfg.coh.inv_latency = 1 + (pseed >> 8) % 4;
    scfg.coh.ack_latency = 1 + (pseed >> 10) % 3;
    scfg.coh.grant_latency = 1 + (pseed >> 12) % 2;
    scfg.fast_forward = fast_forward;
    let ccfg = mc_core_config(pseed);
    let cores = spec
        .threads
        .iter()
        .map(|ops| Core::new(build_thread(spec, ops, scfg.coh.shared_base), ccfg.clone()))
        .collect();
    System::new(cores, scfg)
}

/// Wraps a [`SharedWorkload`]'s per-core programs in a [`System`] under
/// the default coherence latencies — the named cross-core traffic
/// patterns (true/false sharing, producer/consumer, lock contention) as
/// checker and ffeq fodder beside the fuzzed programs.
#[must_use]
pub fn shared_workload_system(
    w: SharedWorkload,
    cores: usize,
    seed: u64,
    fast_forward: bool,
) -> System {
    let mut scfg = SystemConfig::new(cores);
    scfg.fast_forward = fast_forward;
    let ccfg = mc_core_config(seed);
    let emus = w.build(cores, scfg.coh.shared_base, seed, 1);
    System::new(emus.into_iter().map(|e| Core::new(e, ccfg.clone())).collect(), scfg)
}

/// Per-seed campaign unit result.
#[derive(Clone, Debug)]
pub struct McmUnit {
    /// The program seed.
    pub pseed: u64,
    /// Shared-window events checked.
    pub events: u64,
    /// Stores installed in the global order.
    pub installs: u64,
    /// Coherence acks withheld by lockdown during the run.
    pub withheld: u64,
    /// The violation, if the run failed any check.
    pub violation: Option<McmViolation>,
}

/// Generates, runs and checks one multi-threaded program. Pure function
/// of `pseed`.
#[must_use]
pub fn mcm_unit(pseed: u64) -> McmUnit {
    let spec = generate_mt(pseed);
    let mut sys = build_system(&spec, pseed);
    for c in 0..sys.num_cores() {
        sys.core_mut(c).enable_commit_trace();
    }
    sys.run(MAX_CYCLES);
    let trace = extract_trace(&mut sys);
    let coh: CohStats = sys.stats().coh;
    let mut violation = check_tso(&trace).err();
    if violation.is_none() {
        if let Err(e) = sys.hub().check_invariants() {
            violation = Some(McmViolation { axiom: "hub-invariant", detail: e });
        } else if coh.stale_reads != 0 {
            violation = Some(McmViolation {
                axiom: "stale-read",
                detail: format!("{} stale reads with no fault injected", coh.stale_reads),
            });
        }
    }
    McmUnit {
        pseed,
        events: trace.events.len() as u64,
        installs: coh.installs,
        withheld: coh.acks_withheld,
        violation,
    }
}

// ---------------------------------------------------------------------------
// Fault injection: the checker must be load-bearing.
// ---------------------------------------------------------------------------

/// Outcome of the dropped-invalidation probe.
#[derive(Clone, Debug)]
pub struct McmInjection {
    /// Invalidations dropped by the fault in the faulty run.
    pub dropped: u64,
    /// The control run (no fault) passed every check.
    pub clean_ok: bool,
    /// The faulty run produced a TSO/coherence cycle.
    pub fault_caught: bool,
    /// The violation the faulty run produced (or why it was missed).
    pub detail: String,
}

impl McmInjection {
    /// `true` if the probe proved the checker load-bearing.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.clean_ok && self.fault_caught && self.dropped > 0
    }
}

/// Builds the deterministic message-passing scenario: core 0 writes
/// `data` then `flag` (addresses computed through an `addi` chain, so
/// the stores start only after core 1's warming load has filled); core 1
/// warms the `data` line early, then — behind a longer chain — reads
/// `flag` and re-reads `data`. With the fault armed, the one
/// invalidation of the run (for core 1's stale `data` copy) is silently
/// dropped, so the re-read hits the warmed private line and observes
/// `Init` even though `flag` already observes the newer write: the
/// classic MP cycle.
fn injection_system(drop: bool) -> System {
    let mut scfg = SystemConfig::new(2);
    if drop {
        scfg.coh.drop_invalidation = Some(1);
    }
    let base = scfg.coh.shared_base;

    let mut w = ProgramBuilder::new();
    let x1 = ArchReg::int(1);
    let x2 = ArchReg::int(2);
    w.li(x1, 0);
    for _ in 0..32 {
        w.addi(x1, x1, (base / 32) as i64);
    }
    w.li(x2, 1);
    w.st(x2, x1, 0); // data
    w.st(x2, x1, 0x40); // flag
    w.halt();

    let mut r = ProgramBuilder::new();
    let x6 = ArchReg::int(6);
    r.li(x6, base as i64);
    r.ld(ArchReg::int(4), x6, 0); // warm the data line early
    r.li(x1, 0);
    for _ in 0..64 {
        r.addi(x1, x1, (base / 64) as i64);
    }
    r.ld(ArchReg::int(5), x1, 0x40); // flag
    r.ld(ArchReg::int(7), x1, 0); // data, again — private hit
    r.halt();

    let cfg = mc_core_config(0);
    let cores = vec![
        Core::new(Emulator::new(w.build(), 1 << 16), cfg.clone()),
        Core::new(Emulator::new(r.build(), 1 << 16), cfg),
    ];
    System::new(cores, scfg)
}

fn injection_run(drop: bool) -> (Option<McmViolation>, CohStats) {
    let mut sys = injection_system(drop);
    for c in 0..2 {
        sys.core_mut(c).enable_commit_trace();
    }
    sys.run(MAX_CYCLES);
    let trace = extract_trace(&mut sys);
    (check_tso(&trace).err(), sys.stats().coh)
}

/// Runs the dropped-invalidation scenario twice — without and with the
/// fault — and reports whether the checker caught the fault while
/// passing the clean control run.
#[must_use]
pub fn injection_probe() -> McmInjection {
    let (clean, _) = injection_run(false);
    let (faulty, coh) = injection_run(true);
    let detail = match (&clean, &faulty) {
        (Some(v), _) => format!("control run violated: {v}"),
        (None, Some(v)) => v.to_string(),
        (None, None) => format!(
            "fault not observed ({} dropped, {} stale reads)",
            coh.invalidations_dropped, coh.stale_reads
        ),
    };
    McmInjection {
        dropped: coh.invalidations_dropped,
        clean_ok: clean.is_none(),
        fault_caught: faulty.is_some(),
        detail,
    }
}

// ---------------------------------------------------------------------------
// Campaign.
// ---------------------------------------------------------------------------

/// Result of an [`mcm_campaign`].
#[derive(Clone, Debug)]
pub struct McmOutcome {
    /// Programs generated and run.
    pub programs_run: u64,
    /// Shared-window events checked across all runs.
    pub total_events: u64,
    /// Stores installed in the global order across all runs.
    pub total_installs: u64,
    /// Coherence acks withheld by lockdown across all runs.
    pub total_withheld: u64,
    /// `(seed, violation)` per failing run, in seed order.
    pub violations: Vec<(u64, String)>,
    /// The load-bearing probe's outcome.
    pub injection: McmInjection,
}

impl McmOutcome {
    /// Clean pass found no violation **and** the injected fault was
    /// caught.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.injection.holds()
    }
}

/// Runs `programs` seeded multi-threaded programs through the System
/// and the TSO checker, sharded over `jobs` worker threads (results are
/// merged in seed order, so the outcome is byte-identical to a serial
/// run), then runs [`injection_probe`].
pub fn mcm_campaign(
    programs: u64,
    campaign_seed: u64,
    jobs: usize,
    progress: impl Fn(u64, u64) + Sync,
) -> McmOutcome {
    let seeds = program_seeds(campaign_seed, programs);
    let done = AtomicU64::new(0);
    let units: Vec<McmUnit> = parallel_map(jobs, &seeds, |_, &pseed| {
        let unit = with_quiet_panics(|| {
            std::panic::catch_unwind(|| mcm_unit(pseed)).unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                McmUnit {
                    pseed,
                    events: 0,
                    installs: 0,
                    withheld: 0,
                    violation: Some(McmViolation { axiom: "panic", detail: msg }),
                }
            })
        });
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, programs);
        unit
    });
    let mut out = McmOutcome {
        programs_run: units.len() as u64,
        total_events: 0,
        total_installs: 0,
        total_withheld: 0,
        violations: Vec::new(),
        injection: injection_probe(),
    };
    for u in units {
        out.total_events += u.events;
        out.total_installs += u.installs;
        out.total_withheld += u.withheld;
        if let Some(v) = u.violation {
            out.violations.push((u.pseed, v.to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(core: usize, seq: u64, word: u64, rf: WriteId) -> McmEvent {
        McmEvent { core, seq, op: McmOp::Read { word, rf } }
    }
    fn write(core: usize, seq: u64, word: u64) -> McmEvent {
        McmEvent { core, seq, op: McmOp::Write { word } }
    }
    fn fence(core: usize, seq: u64) -> McmEvent {
        McmEvent { core, seq, op: McmOp::Fence }
    }
    fn st(core: usize, seq: u64) -> WriteId {
        WriteId::Store { core, seq }
    }

    const X: u64 = 0x8000;
    const Y: u64 = 0x8040;

    #[test]
    fn shared_workload_kernels_run_tso_clean() {
        for w in SharedWorkload::ALL {
            let mut sys = shared_workload_system(w, 2, 9, false);
            for c in 0..sys.num_cores() {
                sys.core_mut(c).enable_commit_trace();
            }
            sys.run(MAX_CYCLES);
            let trace = extract_trace(&mut sys);
            let coh = sys.stats().coh;
            assert!(coh.installs > 0, "{w}: no store ever installed");
            assert!(coh.invalidations_sent > 0, "{w}: no cross-core invalidation");
            if let Err(v) = check_tso(&trace) {
                panic!("{w}: {v}");
            }
            sys.hub().check_invariants().unwrap_or_else(|e| panic!("{w}: {e}"));
        }
    }

    #[test]
    fn mp_without_fences_is_forbidden_by_the_checker() {
        // C0: Wx=1; Wy=1.  C1: Ry->new, Rx->Init.  W→W and R→R are both
        // in ppo under TSO, so this must cycle.
        let trace = McmTrace {
            events: vec![
                write(0, 0, X),
                write(0, 1, Y),
                read(1, 0, Y, st(0, 1)),
                read(1, 1, X, WriteId::Init),
            ],
            co: BTreeMap::from([(X, vec![st(0, 0)]), (Y, vec![st(0, 1)])]),
            unresolved: Vec::new(),
        };
        let v = check_tso(&trace).unwrap_err();
        assert_eq!(v.axiom, "tso-ghb", "{v}");
    }

    #[test]
    fn store_buffering_reordering_is_allowed_without_fences() {
        // SB: both cores' reads miss the other's write — legal under
        // TSO because W→R is not in ppo.
        let trace = McmTrace {
            events: vec![
                write(0, 0, X),
                read(0, 1, Y, WriteId::Init),
                write(1, 0, Y),
                read(1, 1, X, WriteId::Init),
            ],
            co: BTreeMap::from([(X, vec![st(0, 0)]), (Y, vec![st(1, 0)])]),
            unresolved: Vec::new(),
        };
        let chk = check_tso(&trace).expect("SB outcome is TSO-legal");
        assert_eq!(chk.fr_edges, 2);
    }

    #[test]
    fn store_buffering_with_fences_is_forbidden() {
        let trace = McmTrace {
            events: vec![
                write(0, 0, X),
                fence(0, 1),
                read(0, 2, Y, WriteId::Init),
                write(1, 0, Y),
                fence(1, 1),
                read(1, 2, X, WriteId::Init),
            ],
            co: BTreeMap::from([(X, vec![st(0, 0)]), (Y, vec![st(1, 0)])]),
            unresolved: Vec::new(),
        };
        let v = check_tso(&trace).unwrap_err();
        assert_eq!(v.axiom, "tso-ghb", "{v}");
    }

    #[test]
    fn same_core_forwarding_past_the_store_is_legal() {
        // A core reading its own buffered store before it installs is
        // rfi — excluded from ghb, so Rx->own-W with Ry->Init is fine
        // even though the other core's install order would otherwise
        // contradict it.
        let trace = McmTrace {
            events: vec![
                write(0, 0, X),
                read(0, 1, X, st(0, 0)),
                read(0, 2, Y, WriteId::Init),
                write(1, 0, Y),
                read(1, 1, Y, st(1, 0)),
                read(1, 2, X, WriteId::Init),
            ],
            co: BTreeMap::from([(X, vec![st(0, 0)]), (Y, vec![st(1, 0)])]),
            unresolved: Vec::new(),
        };
        let chk = check_tso(&trace).expect("forwarding outcome is TSO-legal");
        assert_eq!(chk.rfi_edges, 2);
        assert_eq!(chk.rfe_edges, 0);
    }

    #[test]
    fn reading_past_a_program_order_earlier_write_violates_coherence() {
        // C0: Wx then Rx->Init — po-loc ∪ fr cycles at one location.
        let trace = McmTrace {
            events: vec![write(0, 0, X), read(0, 1, X, WriteId::Init)],
            co: BTreeMap::from([(X, vec![st(0, 0)])]),
            unresolved: Vec::new(),
        };
        let v = check_tso(&trace).unwrap_err();
        assert_eq!(v.axiom, "sc-per-location", "{v}");
    }

    #[test]
    fn malformed_rf_and_co_are_rejected() {
        let trace = McmTrace {
            events: vec![read(1, 0, X, st(0, 7))],
            co: BTreeMap::new(),
            unresolved: Vec::new(),
        };
        assert_eq!(check_tso(&trace).unwrap_err().axiom, "rf-wf");
        let trace = McmTrace {
            events: vec![write(0, 0, X)],
            co: BTreeMap::new(),
            unresolved: Vec::new(),
        };
        assert_eq!(check_tso(&trace).unwrap_err().axiom, "co-wf");
    }

    #[test]
    fn generator_is_deterministic_and_in_bounds() {
        for s in 0..32u64 {
            let a = generate_mt(s);
            assert_eq!(a, generate_mt(s));
            assert!((2..=4).contains(&a.threads.len()));
            assert!((2..=4).contains(&a.var_offsets.len()));
            for t in &a.threads {
                assert!((3..=7).contains(&t.len()));
            }
            for &off in &a.var_offsets {
                assert!(off < 0x400, "offset {off:#x} outside the shared window");
            }
        }
    }

    #[test]
    fn dropped_invalidation_probe_is_load_bearing() {
        let probe = injection_probe();
        assert!(probe.clean_ok, "control run must pass: {}", probe.detail);
        assert!(probe.dropped > 0, "the fault never fired");
        assert!(probe.fault_caught, "stale read escaped the checker: {}", probe.detail);
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let out = mcm_campaign(12, 42, 2, |_, _| {});
        assert_eq!(out.programs_run, 12);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.total_events > 0, "campaign never touched the shared window");
        let serial = mcm_campaign(12, 42, 1, |_, _| {});
        assert_eq!(out.total_events, serial.total_events);
        assert_eq!(out.total_installs, serial.total_installs);
        assert_eq!(out.total_withheld, serial.total_withheld);
    }
}
