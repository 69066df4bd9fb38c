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
//!    over the lockdown matrix plus litmus runs and a lockdown scenario
//!    on real two-core systems ([`syslitmus`]).
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
pub mod order;
pub mod syslitmus;
pub mod traceinv;

pub use ffeq::{ff_equivalence_campaign, sys_ff_equivalence_campaign, FfEqMismatch, FfEqOutcome};
pub use gen::{generate, shrink, ProgSpec};
pub use mcm::{check_tso, extract_trace, mcm_campaign, McmOutcome, McmTrace, McmViolation};
pub use oracle::{
    run_cosim, run_cosim_pooled, CosimOptions, CosimReport, Divergence, LockstepChecker,
};
pub use order::{order_campaign, OrderFailure, OrderOutcome};
pub use traceinv::{check_lifecycle, trace_invariant_campaign, TraceCheck, TraceInvOutcome};

use orinoco_core::{CommitKind, CoreConfig, Fleet, SchedulerKind};
use orinoco_util::pool::ordered_pipeline_map;
use orinoco_util::Rng;
use std::time::{Duration, Instant};

/// Salt mixed into the campaign seed stream.
const CAMPAIGN_SALT: u64 = 0x0421_F0CC;

/// Derives the per-program seed stream of a campaign.
#[must_use]
pub fn program_seeds(campaign_seed: u64, programs: u64) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(campaign_seed ^ CAMPAIGN_SALT);
    (0..programs).map(|_| rng.next_u64()).collect()
}

/// `cfg` shrunk to tiny queues (24-entry ROB, 12-entry IQ, 6/5-entry
/// LQ/SQ, 40 physical registers per file, 4-entry VB): every slot is
/// recycled many times within one short fuzz program.
pub(crate) fn tiny(mut cfg: CoreConfig) -> CoreConfig {
    cfg.rob_entries = 24;
    cfg.iq_entries = 12;
    cfg.lq_entries = 6;
    cfg.sq_entries = 5;
    cfg.phys_regs = 40;
    cfg.vb_entries = 4;
    cfg
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
        2 => (
            tiny(
                CoreConfig::base()
                    .with_scheduler(SchedulerKind::Orinoco)
                    .with_commit(CommitKind::Orinoco),
            ),
            "orinoco-tiny",
        ),
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

/// One clean-pass co-simulation on a core of the worker's `fleet`: run
/// the seeded program, and shrink any divergence to a minimal reproducer.
/// Pure function of `pseed` (the fleet only recycles cores, which is
/// behaviourally invisible), so the parallel and serial campaigns produce
/// identical units. The shrink loop on the rare divergence path keeps
/// plain [`run_cosim`] — a diverged core may be mid-panic-prone state,
/// and shrinking is not throughput-critical.
fn clean_unit(fleet: &mut Fleet, pseed: u64) -> CleanUnit {
    let (cfg, label) = config_for_seed(pseed);
    let spec = gen::generate(pseed);
    let report = run_cosim_pooled(fleet, &spec.build(), cfg.clone(), &CosimOptions::default());
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
fn inject_unit(fleet: &mut Fleet, pseed: u64, out_of_time: &impl Fn() -> bool) -> InjectUnit {
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
        let report = run_cosim_pooled(fleet, &emu, cfg, &opts);
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
/// The per-seed units are sharded over `jobs` worker threads, each with
/// its own [`Fleet`], and merged in seed order, so the outcome (failures,
/// counters, verdict) is **byte-identical to a serial run** whenever no
/// `deadline` truncates the campaign. Each unit is a pure function of its
/// program seed; the merge accumulates units in seed order and stops at
/// the first unit the time budget skipped, mirroring the serial
/// early-exit.
pub fn fuzz_campaign(
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
        let mut next = seeds.iter().copied();
        let clean = ordered_pipeline_map(jobs, |_| Fleet::new(), || next.next(), |fleet, _, pseed| {
            if out_of_time() {
                return CleanUnit { ran: false, cycles: 0, commits: 0, ooo_commits: 0, failure: None };
            }
            let unit = clean_unit(fleet, pseed);
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
        let mut next = seeds.iter().copied();
        let inject = ordered_pipeline_map(jobs, |_| Fleet::new(), || next.next(), |fleet, _, pseed| {
            if out_of_time() {
                return InjectUnit { ran: false, truncated: false, runs: 0, fired: 0, caught: 0 };
            }
            let unit = inject_unit(fleet, pseed, &out_of_time);
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
        let out = fuzz_campaign(12, 0xD1FF, None, 1, |_, _| {});
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
        let serial = fuzz_campaign(12, 0xD1FF, None, 1, |_, _| {});
        let par = fuzz_campaign(12, 0xD1FF, None, 3, |_, _| {});
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
        assert!(serial.passed() && par.passed());
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
