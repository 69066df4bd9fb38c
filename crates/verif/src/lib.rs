//! `orinoco-verif`: the differential co-simulation oracle.
//!
//! Proves the pipeline's ordered-issue/unordered-commit machinery is
//! **architecturally invisible**: every program runs through the in-order
//! architectural emulator (golden model) and the cycle-level out-of-order
//! pipeline in lockstep, cross-checking
//!
//! 1. every committed instruction against the golden dynamic stream
//!    (commits are reordered by sequence number before comparison),
//! 2. the final register file, memory image and instruction count,
//! 3. TSO load→load ordering, via exhaustive litmus tests (MP, SB, LB)
//!    over the lockdown matrix plus a cycle-level lockdown scenario.
//!
//! The fuzzer is fully deterministic: program structure, data images and
//! core configurations all derive from a single seed, failures shrink
//! automatically to minimal reproducers, and `verif replay <seed>` rebuilds
//! any reported failure exactly.
//!
//! To prove the oracle itself is load-bearing, every fuzz run ends with a
//! fault-injection pass: a SPEC bit is deliberately flipped in the commit
//! scheduler ([`orinoco_core::Core::inject_spec_flip`]) and the campaign
//! fails unless the oracle catches the resulting misbehaviour.

#![warn(missing_docs)]

pub mod ffeq;
pub mod gen;
pub mod litmus;
pub mod mcm;
pub mod oracle;
pub mod syslitmus;
pub mod traceinv;

pub use ffeq::{
    ff_equivalence_campaign, ffeq_chunk, sys_ff_equivalence_campaign, FfEqChunk, FfEqMismatch,
    FfEqOutcome,
};
pub use gen::{generate, shrink, ProgSpec};
pub use mcm::{check_tso, extract_trace, mcm_campaign, McmOutcome, McmTrace, McmViolation};
pub use oracle::{
    run_cosim, run_cosim_pooled, CosimOptions, CosimReport, Divergence, LockstepChecker,
};
pub use traceinv::{check_lifecycle, trace_invariant_campaign, TraceCheck, TraceInvOutcome};

use orinoco_core::{CommitKind, CoreConfig, Fleet, SchedulerKind};
use orinoco_util::Rng;
use std::time::{Duration, Instant};

std::thread_local! {
    /// Per-thread core cache shared by every campaign unit that runs on
    /// this thread. Campaign workers burn most of their short-program
    /// time constructing cores; handing units their core through
    /// [`Fleet::with_lane`] revives a parked same-shape core via
    /// `Core::reset_with` instead (behavioural equivalence to fresh cores
    /// is pinned by the `reset`/`fleet` test suites in `orinoco-core`).
    /// Thread-local so `parallel_map` workers never contend; the cache
    /// stays small — one core per distinct configuration shape the
    /// campaigns rotate.
    static UNIT_FLEET: std::cell::RefCell<Fleet> = std::cell::RefCell::new(Fleet::new());
}

/// Runs `f` with this thread's campaign [`Fleet`]. Not reentrant.
pub(crate) fn with_unit_fleet<R>(f: impl FnOnce(&mut Fleet) -> R) -> R {
    UNIT_FLEET.with(|fleet| f(&mut fleet.borrow_mut()))
}

/// Salt mixed into the campaign seed stream.
const CAMPAIGN_SALT: u64 = 0x0421_F0CC;

/// Derives the per-program seed stream of a campaign.
#[must_use]
pub fn program_seeds(campaign_seed: u64, programs: u64) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(campaign_seed ^ CAMPAIGN_SALT);
    (0..programs).map(|_| rng.next_u64()).collect()
}

/// The core configuration a program seed maps to (deterministic, so
/// `replay <seed>` reproduces the exact run). Rotates through the
/// configurations most likely to stress unordered commit: base and ultra
/// Orinoco, tiny queues, page-fault injection, and two non-Orinoco
/// control policies that exercise the oracle against other commit kinds.
#[must_use]
pub fn config_for_seed(pseed: u64) -> (CoreConfig, &'static str) {
    let (mut cfg, label) = match (pseed >> 48) % 6 {
        0 => (
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco),
            "orinoco-base",
        ),
        1 => (
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Age)
                .with_commit(CommitKind::Orinoco),
            "orinoco-agesched",
        ),
        2 => {
            let mut c = CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco);
            c.rob_entries = 24;
            c.iq_entries = 12;
            c.lq_entries = 6;
            c.sq_entries = 5;
            c.phys_regs = 40;
            c.vb_entries = 4;
            (c, "orinoco-tiny")
        }
        3 => {
            let mut c = CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco);
            c.pagefault_per_million = 2_000;
            (c, "orinoco-faults")
        }
        4 => (
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Rand)
                .with_commit(CommitKind::Vb),
            "vb-control",
        ),
        _ => (
            CoreConfig::ultra()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco),
            "orinoco-ultra",
        ),
    };
    cfg.seed = pseed;
    (cfg, label)
}

/// A fuzz failure, shrunk to a minimal reproducer.
#[derive(Clone, Debug)]
pub struct ProgramFailure {
    /// Seed that regenerates the failing program (`verif replay <seed>`).
    pub program_seed: u64,
    /// Label of the core configuration it ran under.
    pub config: &'static str,
    /// The divergence observed on the original program.
    pub divergence: Divergence,
    /// Minimised spec still exhibiting a divergence.
    pub shrunk: ProgSpec,
    /// Dynamic size before shrinking.
    pub size_before: u64,
    /// Dynamic size after shrinking.
    pub size_after: u64,
}

/// Aggregate result of a fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzOutcome {
    /// Programs co-simulated in the clean pass.
    pub programs_run: u64,
    /// Clean-pass divergences (must be empty for a healthy pipeline).
    pub failures: Vec<ProgramFailure>,
    /// Total pipeline cycles simulated.
    pub total_cycles: u64,
    /// Total commits cross-checked.
    pub total_commits: u64,
    /// Commits observed out of order (ahead of an older live instruction).
    pub total_ooo_commits: u64,
    /// Injection-pass runs attempted.
    pub injection_runs: u64,
    /// Runs where the armed SPEC flip actually fired.
    pub injection_fired: u64,
    /// Runs where the oracle caught the injected bug.
    pub injection_caught: u64,
    /// The campaign stopped early on its time budget.
    pub truncated_by_time: bool,
}

impl FuzzOutcome {
    /// Campaign verdict: no clean-pass divergences, and (unless the time
    /// budget cut the campaign short) the injected commit-matrix bug was
    /// caught at least once.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.programs_run > 0
            && self.failures.is_empty()
            && (self.truncated_by_time || self.injection_caught > 0)
    }
}

/// Per-seed result of one clean-pass co-simulation (the unit of work the
/// parallel campaign runner shards by). `ran == false` means the deadline
/// expired before this seed started, so the unit contributed nothing.
struct CleanUnit {
    ran: bool,
    cycles: u64,
    commits: u64,
    ooo_commits: u64,
    failure: Option<ProgramFailure>,
}

/// One clean-pass co-simulation: run the seeded program, and shrink any
/// divergence to a minimal reproducer. Pure function of `pseed` (the
/// thread-local fleet only recycles cores, which is behaviourally
/// invisible), so the parallel and serial campaigns produce identical
/// units. The shrink loop on the rare divergence path keeps plain
/// [`run_cosim`] — a diverged core may be mid-panic-prone state, and
/// shrinking is not throughput-critical.
fn clean_unit(pseed: u64) -> CleanUnit {
    let (cfg, label) = config_for_seed(pseed);
    let spec = gen::generate(pseed);
    let report = with_unit_fleet(|fleet| {
        run_cosim_pooled(fleet, &spec.build(), cfg.clone(), &CosimOptions::default())
    });
    let failure = if let Some(div) = report.divergence {
        let size_before = spec.size();
        let still_fails = |s: &ProgSpec| {
            run_cosim(&s.build(), cfg.clone(), &CosimOptions::default()).divergence.is_some()
        };
        let (shrunk, _) = gen::shrink(spec, still_fails, 200);
        Some(ProgramFailure {
            program_seed: pseed,
            config: label,
            divergence: div,
            size_after: shrunk.size(),
            shrunk,
            size_before,
        })
    } else {
        None
    };
    CleanUnit {
        ran: true,
        cycles: report.cycles,
        commits: report.committed,
        ooo_commits: report.ooo_commits,
        failure,
    }
}

/// Per-seed result of the SPEC-flip injection pass. `ran == false` means
/// the deadline expired before the unit started; `truncated` means it
/// expired mid-unit (partial counts are still valid and accumulated).
struct InjectUnit {
    ran: bool,
    truncated: bool,
    runs: u64,
    fired: u64,
    caught: u64,
}

/// One injection-pass unit: flip a SPEC bit in the commit scheduler and
/// demand the oracle notices. Only the unordered-commit policy is
/// sensitive to SPEC, so the pass pins the Orinoco configuration. A flip
/// is architecturally harmless when the instruction it hits turns out
/// correctly speculated, so several ordinals are tried per program
/// (stopping at the first catch). Pure function of `pseed` aside from the
/// deadline check, so parallel and serial campaigns agree whenever no
/// time budget intervenes.
fn inject_unit(pseed: u64, out_of_time: &impl Fn() -> bool) -> InjectUnit {
    let mut unit = InjectUnit { ran: true, truncated: false, runs: 0, fired: 0, caught: 0 };
    let ordinals = [1, 2, (pseed >> 8) % 13 + 3, (pseed >> 16) % 29 + 1, (pseed >> 32) % 47 + 1];
    let emu = gen::generate(pseed).build();
    for nth in ordinals {
        if out_of_time() {
            unit.truncated = true;
            break;
        }
        let mut cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        cfg.seed = pseed;
        let opts = CosimOptions { inject_spec_flip: Some(nth), ..CosimOptions::default() };
        let report = with_unit_fleet(|fleet| run_cosim_pooled(fleet, &emu, cfg, &opts));
        unit.runs += 1;
        if report.injection_fired {
            unit.fired += 1;
            if report.divergence.is_some() {
                unit.caught += 1;
                break;
            }
        }
    }
    unit
}

/// Runs a full fuzz campaign: a clean differential pass over `programs`
/// seeded programs (any divergence is shrunk and recorded), followed by a
/// SPEC-flip fault-injection pass that must be caught by the oracle.
/// `deadline` caps wall-clock time (for CI smoke runs); `progress` is
/// called after every co-simulation with `(done, total)`.
///
/// Serial front end of [`fuzz_campaign_par`] with `jobs = 1`.
pub fn fuzz_campaign(
    programs: u64,
    seed: u64,
    deadline: Option<Duration>,
    progress: impl FnMut(u64, u64) + Send,
) -> FuzzOutcome {
    let progress = std::sync::Mutex::new(progress);
    fuzz_campaign_par(programs, seed, deadline, 1, |done, total| {
        (progress.lock().expect("progress callback poisoned"))(done, total);
    })
}

/// Parallel fuzz campaign: shards the per-seed co-simulation units over
/// `jobs` worker threads via [`orinoco_util::pool::parallel_map`] and
/// merges the results in seed order, so the outcome (failures, counters,
/// verdict) is **byte-identical to a serial run** whenever no `deadline`
/// truncates the campaign. Each unit is a pure function of its program
/// seed; the merge accumulates units in seed order and stops at the first
/// unit the time budget skipped, mirroring the serial early-exit.
pub fn fuzz_campaign_par(
    programs: u64,
    seed: u64,
    deadline: Option<Duration>,
    jobs: usize,
    progress: impl Fn(u64, u64) + Sync,
) -> FuzzOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};

    let start = Instant::now();
    let out_of_time = move || deadline.is_some_and(|d| start.elapsed() >= d);
    let seeds = program_seeds(seed, programs);
    let mut out = FuzzOutcome::default();
    let total_work = programs * 2;
    let done = AtomicU64::new(0);
    let tick = |done: &AtomicU64| {
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, total_work);
    };

    // The quiet-panic hook is process-global, so one installation covers
    // every worker thread for both passes.
    oracle::with_quiet_panics(|| {
        // Clean pass: the pipeline must be architecturally invisible.
        let clean = orinoco_util::pool::parallel_map(jobs, &seeds, |_, &pseed| {
            if out_of_time() {
                return CleanUnit { ran: false, cycles: 0, commits: 0, ooo_commits: 0, failure: None };
            }
            let unit = clean_unit(pseed);
            tick(&done);
            unit
        });
        for unit in clean {
            if !unit.ran {
                out.truncated_by_time = true;
                break;
            }
            out.programs_run += 1;
            out.total_cycles += unit.cycles;
            out.total_commits += unit.commits;
            out.total_ooo_commits += unit.ooo_commits;
            out.failures.extend(unit.failure);
        }

        // Injection pass: prove the oracle is load-bearing.
        let inject = orinoco_util::pool::parallel_map(jobs, &seeds, |_, &pseed| {
            if out_of_time() {
                return InjectUnit { ran: false, truncated: false, runs: 0, fired: 0, caught: 0 };
            }
            let unit = inject_unit(pseed, &out_of_time);
            tick(&done);
            unit
        });
        for unit in inject {
            if !unit.ran {
                out.truncated_by_time = true;
                break;
            }
            out.injection_runs += unit.runs;
            out.injection_fired += unit.fired;
            out.injection_caught += unit.caught;
            if unit.truncated {
                out.truncated_by_time = true;
                break;
            }
        }
    });
    out
}

/// A wire-transportable slice of a fuzz campaign: the counters
/// [`campaign_chunk`] accumulates over a contiguous range of the
/// campaign's seed stream. Chunks merged in seed order reproduce the
/// whole-campaign counters exactly (pinned by the `chunking` tests), so a
/// campaign can be sharded across server workers — or across machines —
/// without changing its verdict.
///
/// Failures carry only the program seed: `verif replay <seed>` rebuilds
/// the full reproducer, so a chunk never has to ship a `ProgSpec`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignChunk {
    /// Programs co-simulated in this chunk's clean pass.
    pub programs_run: u64,
    /// Pipeline cycles simulated in the clean pass.
    pub total_cycles: u64,
    /// Commits cross-checked in the clean pass.
    pub total_commits: u64,
    /// Commits observed out of order.
    pub total_ooo_commits: u64,
    /// Program seeds whose clean run diverged (replayable).
    pub failure_seeds: Vec<u64>,
    /// Injection-pass runs attempted.
    pub injection_runs: u64,
    /// Runs where the armed SPEC flip actually fired.
    pub injection_fired: u64,
    /// Runs where the oracle caught the injected bug.
    pub injection_caught: u64,
}

impl CampaignChunk {
    /// Accumulates `other` into `self`. Merging chunks in seed order is
    /// associative-by-construction: every field is a sum or an append.
    pub fn merge(&mut self, other: &CampaignChunk) {
        self.programs_run += other.programs_run;
        self.total_cycles += other.total_cycles;
        self.total_commits += other.total_commits;
        self.total_ooo_commits += other.total_ooo_commits;
        self.failure_seeds.extend_from_slice(&other.failure_seeds);
        self.injection_runs += other.injection_runs;
        self.injection_fired += other.injection_fired;
        self.injection_caught += other.injection_caught;
    }
}

/// Runs the `[start, start + count)` slice of a `programs`-seed fuzz
/// campaign — clean pass and SPEC-flip injection pass — and returns the
/// chunk counters. The unit of sharding the campaign server dispatches.
///
/// Deterministic: no deadline, every unit is a pure function of its seed,
/// so any partitioning of `0..programs` into chunks merges to the same
/// totals as [`fuzz_campaign`] with no time budget (the chunking tests
/// pin this). The range is clamped to the campaign length.
///
/// Unlike [`fuzz_campaign`], no quiet-panic hook is installed — hooks are
/// process-global and chunks may run concurrently on server workers, so
/// the caller decides (the server installs one hook at startup; tests
/// wrap chunk loops in [`oracle::with_quiet_panics`]).
#[must_use]
pub fn campaign_chunk(campaign_seed: u64, start: u64, count: u64, programs: u64) -> CampaignChunk {
    let seeds = program_seeds(campaign_seed, programs);
    let lo = start.min(programs) as usize;
    let hi = start.saturating_add(count).min(programs) as usize;
    let mut out = CampaignChunk::default();
    for &pseed in &seeds[lo..hi] {
        let unit = clean_unit(pseed);
        out.programs_run += 1;
        out.total_cycles += unit.cycles;
        out.total_commits += unit.commits;
        out.total_ooo_commits += unit.ooo_commits;
        if unit.failure.is_some() {
            out.failure_seeds.push(pseed);
        }
    }
    for &pseed in &seeds[lo..hi] {
        let unit = inject_unit(pseed, &|| false);
        out.injection_runs += unit.runs;
        out.injection_fired += unit.fired;
        out.injection_caught += unit.caught;
    }
    out
}

/// Replays one program seed: rebuilds the exact program and configuration
/// and re-runs the co-simulation (optionally with an armed SPEC flip).
/// `trace_capacity > 0` records the last that many lifecycle-trace events
/// in the DUT; on a divergence the report's `trace_tail` carries the
/// window as JSONL for inspection.
#[must_use]
pub fn replay(
    pseed: u64,
    inject: Option<u64>,
    trace_capacity: usize,
) -> (ProgSpec, &'static str, CosimReport) {
    let (cfg, label) = config_for_seed(pseed);
    let spec = gen::generate(pseed);
    let opts = CosimOptions {
        inject_spec_flip: inject,
        trace_capacity,
        ..CosimOptions::default()
    };
    let report = oracle::with_quiet_panics(|| run_cosim(&spec.build(), cfg, &opts));
    (spec, label, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_catches_injection() {
        let out = fuzz_campaign(12, 0xD1FF, None, |_, _| {});
        assert_eq!(out.programs_run, 12);
        assert!(
            out.failures.is_empty(),
            "clean pass diverged: {:?}",
            out.failures.iter().map(|f| (f.program_seed, f.config)).collect::<Vec<_>>()
        );
        assert!(out.total_ooo_commits > 0, "no out-of-order commits observed");
        assert!(out.injection_fired > 0, "SPEC flip never fired");
        assert!(out.injection_caught > 0, "oracle missed every injected bug");
        assert!(out.passed());
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let serial = fuzz_campaign(12, 0xD1FF, None, |_, _| {});
        let par = fuzz_campaign_par(12, 0xD1FF, None, 3, |_, _| {});
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
        assert!(serial.passed() && par.passed());
    }

    #[test]
    fn chunked_campaign_merges_to_whole_campaign_counters() {
        let whole = fuzz_campaign(12, 0xD1FF, None, |_, _| {});
        // Uneven partition on purpose: 5 + 4 + 3, plus a clamped tail.
        let mut merged = CampaignChunk::default();
        for (start, count) in [(0, 5), (5, 4), (9, 7)] {
            merged.merge(&oracle::with_quiet_panics(|| campaign_chunk(0xD1FF, start, count, 12)));
        }
        assert_eq!(merged.programs_run, whole.programs_run);
        assert_eq!(merged.total_cycles, whole.total_cycles);
        assert_eq!(merged.total_commits, whole.total_commits);
        assert_eq!(merged.total_ooo_commits, whole.total_ooo_commits);
        assert_eq!(merged.injection_runs, whole.injection_runs);
        assert_eq!(merged.injection_fired, whole.injection_fired);
        assert_eq!(merged.injection_caught, whole.injection_caught);
        let whole_failure_seeds: Vec<u64> =
            whole.failures.iter().map(|f| f.program_seed).collect();
        assert_eq!(merged.failure_seeds, whole_failure_seeds);
    }

    #[test]
    fn chunked_ffeq_merges_to_whole_campaign_counters() {
        let whole = ff_equivalence_campaign(8, 7, 1, |_, _| {});
        let mut merged = FfEqChunk::default();
        for (start, count) in [(0, 3), (3, 3), (6, 99)] {
            merged.merge(&ffeq_chunk(7, start, count, 8));
        }
        assert_eq!(merged.programs_run, whole.programs_run);
        assert_eq!(merged.total_cycles, whole.total_cycles);
        assert_eq!(merged.total_commits, whole.total_commits);
        let whole_mismatch_seeds: Vec<u64> =
            whole.mismatches.iter().map(|m| m.program_seed).collect();
        assert_eq!(merged.mismatch_seeds, whole_mismatch_seeds);
    }

    #[test]
    fn replay_reproduces_campaign_runs() {
        let seeds = program_seeds(0xD1FF, 3);
        for pseed in seeds {
            let (_, _, report) = replay(pseed, None, 0);
            assert!(report.clean(), "replay {pseed:#x} diverged: {:?}", report.divergence);
        }
    }
}
