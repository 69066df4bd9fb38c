//! Fast-forward observational-equivalence campaign.
//!
//! The idle-cycle fast-forward (DESIGN.md §10) lives in `Core::run` and
//! claims to be **observationally invisible**: jumping the clock over
//! frozen cycles must change nothing an experiment can measure. The
//! differential oracle cannot see it (it drives `Core::step` directly),
//! so this campaign closes the gap: every fuzz program is run to
//! completion twice under its seeded configuration — once with
//! fast-forward enabled and once with it disabled — and the two runs must
//! agree on
//!
//! 1. the full commit-event stream (sequence numbers, commit cycles,
//!    oldest-live markers and the committed [`orinoco_isa::DynInst`]s),
//! 2. the complete [`orinoco_core::SimStats`] `Debug` rendering (cycle
//!    count, every stall counter, histograms, fetch and memory stats),
//! 3. the cycle-level stall taxonomy, compared separately so a taxonomy
//!    drift is reported as such rather than as a generic stats mismatch.
//!
//! Units are pure functions of the program seed, so the parallel campaign
//! merges results in seed order and is byte-identical to a serial run.

use crate::{config_for_seed, gen, mcm, program_seeds};
use orinoco_core::{CoreConfig, Fleet, System};
use orinoco_isa::Emulator;
use orinoco_util::pool::ordered_pipeline_map;
use orinoco_workloads::multicore::SharedWorkload;

/// Cycle budget per run; matches the co-simulation default.
const MAX_CYCLES: u64 = 50_000_000;

/// One observable difference between a fast-forwarded and a
/// cycle-stepped run of the same program.
#[derive(Clone, Debug)]
pub struct FfEqMismatch {
    /// Seed that regenerates the program (`verif replay <seed>`).
    pub program_seed: u64,
    /// Label of the core configuration it ran under.
    pub config: &'static str,
    /// Human-readable description of the first difference found.
    pub detail: String,
}

/// Aggregate result of a fast-forward equivalence campaign.
#[derive(Clone, Debug, Default)]
pub struct FfEqOutcome {
    /// Programs run through both configurations.
    pub programs_run: u64,
    /// Simulated cycles per program run (identical across the pair by
    /// construction once the campaign passes), summed over programs.
    pub total_cycles: u64,
    /// Commit events cross-checked between the paired runs.
    pub total_commits: u64,
    /// Observable differences (must be empty).
    pub mismatches: Vec<FfEqMismatch>,
}

impl FfEqOutcome {
    /// Campaign verdict: at least one program ran and no run pair
    /// disagreed on any observable.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.programs_run > 0 && self.mismatches.is_empty()
    }
}

/// Runs `emu` to completion under `cfg` on a core of the worker's
/// `fleet` and renders its observables: the commit-event stream as
/// strings, the `SimStats` `Debug` form, the stall-taxonomy `Debug` form,
/// and the cycle count.
fn observe(fleet: &mut Fleet, cfg: CoreConfig, emu: Emulator) -> (Vec<String>, String, String, u64) {
    fleet.with_lane(cfg, emu, |core| {
        core.enable_commit_trace();
        let stats = core.run(MAX_CYCLES);
        let cycles = stats.cycles;
        let stats_dbg = format!("{stats:?}");
        let tax_dbg = format!("{:?}", stats.stall_taxonomy);
        let commits = core.drain_commit_trace().iter().map(|ev| format!("{ev:?}")).collect();
        (commits, stats_dbg, tax_dbg, cycles)
    })
}

/// Per-seed unit: run the program with fast-forward on, then off, and
/// diff every observable. Parked cores are revived across units; the
/// result is a pure function of `pseed`, because a revived core is
/// behaviourally a fresh one (pinned by the `fleet` tests).
fn ffeq_unit(fleet: &mut Fleet, pseed: u64) -> (u64, u64, Option<FfEqMismatch>) {
    let (cfg, label) = config_for_seed(pseed);
    let emu = gen::generate(pseed).build();
    let mut cfg_on = cfg.clone();
    cfg_on.fast_forward = true;
    let mut cfg_off = cfg;
    cfg_off.fast_forward = false;
    let (commits_on, stats_on, tax_on, cycles) = observe(fleet, cfg_on, emu.clone());
    let (commits_off, stats_off, tax_off, _) = observe(fleet, cfg_off, emu);
    let mismatch = |detail: String| FfEqMismatch { program_seed: pseed, config: label, detail };
    let diff = if tax_on != tax_off {
        Some(mismatch(format!("stall taxonomy differs:\n  ff  {tax_on}\n  off {tax_off}")))
    } else if stats_on != stats_off {
        Some(mismatch(format!("SimStats differ:\n  ff  {stats_on}\n  off {stats_off}")))
    } else if commits_on.len() != commits_off.len() {
        Some(mismatch(format!(
            "commit stream length differs: {} with fast-forward vs {} without",
            commits_on.len(),
            commits_off.len()
        )))
    } else {
        commits_on.iter().zip(&commits_off).enumerate().find_map(|(i, (a, b))| {
            (a != b).then(|| mismatch(format!("commit event {i} differs:\n  ff  {a}\n  off {b}")))
        })
    };
    (cycles, commits_on.len() as u64, diff)
}

/// Runs the fast-forward equivalence campaign over `programs` fuzz
/// programs derived from campaign `seed`, sharding run pairs over `jobs`
/// worker threads, each with its own [`Fleet`]. `progress` is called
/// after every completed pair with `(done, total)`. The outcome is
/// byte-identical to a serial run.
pub fn ff_equivalence_campaign(
    programs: u64,
    seed: u64,
    jobs: usize,
    progress: impl Fn(u64, u64) + Sync,
) -> FfEqOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};

    let seeds = program_seeds(seed, programs);
    let done = AtomicU64::new(0);
    let mut next = seeds.iter().copied();
    let units = ordered_pipeline_map(jobs, |_| Fleet::new(), || next.next(), |fleet, _, pseed| {
        let unit = ffeq_unit(fleet, pseed);
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, programs);
        unit
    });
    let mut out = FfEqOutcome::default();
    for (cycles, commits, mismatch) in units {
        out.programs_run += 1;
        out.total_cycles += cycles;
        out.total_commits += commits;
        out.mismatches.extend(mismatch);
    }
    out
}

// ---------------------------------------------------------------------------
// Multi-core: the system-level fast-forward must be equally invisible.
// ---------------------------------------------------------------------------

/// Cycle budget per system run; matches the mcm campaign's.
const SYS_MAX_CYCLES: u64 = 500_000;

/// Runs a built [`System`] to completion and renders every observable:
/// per-core commit-event streams, per-core `SimStats` and stall-taxonomy
/// `Debug` forms, the coherence-hub statistics, and the system cycle
/// count. The system-level skip claims to preserve all of them — it may
/// only jump the clock over cycles where every core is frozen *and* no
/// coherence message or drain could fire.
fn run_system_once(mut sys: System) -> (Vec<Vec<String>>, Vec<String>, String, u64) {
    for c in 0..sys.num_cores() {
        sys.core_mut(c).enable_commit_trace();
    }
    sys.run(SYS_MAX_CYCLES);
    let cycles = sys.stats().cycles;
    let coh_dbg = format!("{:?}", sys.stats().coh);
    let mut commits = Vec::with_capacity(sys.num_cores());
    let mut stats = Vec::with_capacity(sys.num_cores());
    for c in 0..sys.num_cores() {
        let core = sys.core_mut(c);
        stats.push(format!("{:?}", core.stats()));
        commits.push(core.drain_commit_trace().iter().map(|ev| format!("{ev:?}")).collect());
    }
    (commits, stats, coh_dbg, cycles)
}

/// Diffs one FF-on/FF-off system pair built by `build`. Returns the
/// skipped-run cycle count, total commits checked, and the first
/// difference found (labelled with `label` and replayable via `pseed`).
fn sys_ffeq_pair(
    pseed: u64,
    label: &'static str,
    build: impl Fn(bool) -> System,
) -> (u64, u64, Option<FfEqMismatch>) {
    let (commits_on, stats_on, coh_on, cycles) = run_system_once(build(true));
    let (commits_off, stats_off, coh_off, cycles_off) = run_system_once(build(false));
    let mismatch = |detail: String| FfEqMismatch { program_seed: pseed, config: label, detail };
    let total_commits = commits_on.iter().map(Vec::len).sum::<usize>() as u64;
    let diff = if cycles != cycles_off {
        Some(mismatch(format!("cycle count differs: {cycles} with fast-forward vs {cycles_off}")))
    } else if coh_on != coh_off {
        Some(mismatch(format!("coherence stats differ:\n  ff  {coh_on}\n  off {coh_off}")))
    } else {
        (0..commits_on.len()).find_map(|c| {
            if stats_on[c] != stats_off[c] {
                return Some(mismatch(format!(
                    "core {c} SimStats differ:\n  ff  {}\n  off {}",
                    stats_on[c], stats_off[c]
                )));
            }
            if commits_on[c].len() != commits_off[c].len() {
                return Some(mismatch(format!(
                    "core {c} commit stream length differs: {} with fast-forward vs {}",
                    commits_on[c].len(),
                    commits_off[c].len()
                )));
            }
            commits_on[c].iter().zip(&commits_off[c]).enumerate().find_map(|(i, (a, b))| {
                (a != b).then(|| {
                    mismatch(format!("core {c} commit event {i} differs:\n  ff  {a}\n  off {b}"))
                })
            })
        })
    };
    (cycles, total_commits, diff)
}

/// System-level fast-forward equivalence campaign: every generated
/// multi-threaded program (the same generator the mcm campaign fuzzes)
/// plus the four named [`SharedWorkload`] kernels run once with the
/// system skip enabled and once without, and every per-core observable
/// must agree byte-for-byte — the skip must consider pending coherence
/// messages, gated store-buffer heads and in-flight directory
/// transactions, and this campaign is the proof.
pub fn sys_ff_equivalence_campaign(
    programs: u64,
    seed: u64,
    jobs: usize,
    progress: impl Fn(u64, u64) + Sync,
) -> FfEqOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};

    enum Unit {
        Generated(u64),
        Kernel(SharedWorkload, usize),
    }
    let mut units: Vec<Unit> =
        program_seeds(seed, programs).into_iter().map(Unit::Generated).collect();
    for w in SharedWorkload::ALL {
        for cores in [2usize, 4] {
            units.push(Unit::Kernel(w, cores));
        }
    }
    let total = units.len() as u64;
    let done = AtomicU64::new(0);
    let mut next = units.into_iter();
    let results = ordered_pipeline_map(jobs, |_| (), || next.next(), |(), _, unit| {
        let r = match unit {
            Unit::Generated(pseed) => {
                let spec = mcm::generate_mt(pseed);
                sys_ffeq_pair(pseed, "system-mt", |ff| mcm::build_system_ff(&spec, pseed, ff))
            }
            Unit::Kernel(w, cores) => sys_ffeq_pair(seed, w.name(), |ff| {
                mcm::shared_workload_system(w, cores, seed, ff)
            }),
        };
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        r
    });
    let mut out = FfEqOutcome::default();
    for (cycles, commits, mismatch) in results {
        out.programs_run += 1;
        out.total_cycles += cycles;
        out.total_commits += commits;
        out.mismatches.extend(mismatch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_programs_are_ff_equivalent() {
        // Campaign seed 7 covers the vb-control configuration, whose
        // zombie-heavy ROB once exposed a logical-vs-physical occupancy
        // mix-up in the bulk commit-stall attribution.
        let out = ff_equivalence_campaign(20, 7, 4, |_, _| {});
        assert_eq!(out.programs_run, 20);
        assert!(out.total_commits > 0);
        assert!(
            out.mismatches.is_empty(),
            "fast-forward changed an observable: {}",
            out.mismatches[0].detail
        );
        assert!(out.passed());
    }

    #[test]
    fn multicore_systems_are_ff_equivalent() {
        let out = sys_ff_equivalence_campaign(12, 3, 4, |_, _| {});
        // 12 generated programs + 4 kernels × {2, 4} cores.
        assert_eq!(out.programs_run, 20);
        assert!(out.total_commits > 0);
        assert!(
            out.mismatches.is_empty(),
            "system fast-forward changed an observable ({} @ seed {:#x}): {}",
            out.mismatches[0].config,
            out.mismatches[0].program_seed,
            out.mismatches[0].detail
        );
        assert!(out.passed());
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = ff_equivalence_campaign(4, 7, 1, |_, _| {});
        let par = ff_equivalence_campaign(4, 7, 3, |_, _| {});
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }
}
