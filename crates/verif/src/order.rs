//! Order-oracle campaign: the paper's matrices, rebuilt every cycle,
//! against the walks and keys the pipeline actually schedules with.
//!
//! The ROB keeps program order as a linked list and the issue queues rank
//! ready entries by a `(!critical, seq)` key; the age and commit matrices
//! of the paper survive only as oracles. This campaign steps every fuzz
//! program by hand under each configuration of [`CONFIGS`] and, after
//! every cycle, runs both oracles on the live state:
//!
//! 1. [`Core::debug_verify_commit_invariants`]: the linked walk's commit
//!    grants, under the configured width and depth window, equal those of
//!    the merged commit matrix rebuilt from the live ROB, live dispatch
//!    order ascends in seq, and no grant passes an older unresolved
//!    instruction;
//! 2. [`Core::debug_verify_issue_order`]: each issue queue's key ranking
//!    and its AGE/MULT heads equal those of an age matrix rebuilt from the
//!    queue's live entries.
//!
//! Units are pure functions of the program seed, so the parallel campaign
//! merges in seed order and prints the same findings as a serial run.

use crate::{gen, program_seeds, tiny};
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_util::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cycle budget per run; a run that exceeds it is reported as a failure.
const MAX_CYCLES: u64 = 10_000_000;

/// A Base-shaped configuration with the given scheduler and commit
/// policy.
fn base(scheduler: SchedulerKind, commit: CommitKind) -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(scheduler)
        .with_commit(commit)
}

/// Builds one campaign configuration.
pub type ConfigMaker = fn() -> CoreConfig;

/// The schedulers with an age-ordered select (AGE, MULT and both CRI
/// variants under in-order or Orinoco commit), plain Orinoco, and the
/// depth-8 commit window of §6.2, each at the Base shape and the tiny
/// one; and tiny Orinoco under the §4.3 one-write-port-per-bank rule,
/// whose `Rob::alloc_banked` takes slots out of the free list's LIFO
/// order.
pub const CONFIGS: [(&str, ConfigMaker); 13] = [
    ("age-ioc", || base(SchedulerKind::Age, CommitKind::InOrder)),
    ("mult-ioc", || base(SchedulerKind::Mult, CommitKind::InOrder)),
    ("cri-age-ioc", || base(SchedulerKind::CriAge, CommitKind::InOrder)),
    ("cri-orinoco", || base(SchedulerKind::CriOrinoco, CommitKind::Orinoco)),
    ("orinoco", || base(SchedulerKind::Orinoco, CommitKind::Orinoco)),
    ("orinoco-depth8", || base(SchedulerKind::Orinoco, CommitKind::Orinoco).with_commit_depth(8)),
    ("age-ioc-tiny", || tiny(base(SchedulerKind::Age, CommitKind::InOrder))),
    ("mult-ioc-tiny", || tiny(base(SchedulerKind::Mult, CommitKind::InOrder))),
    ("cri-age-ioc-tiny", || tiny(base(SchedulerKind::CriAge, CommitKind::InOrder))),
    ("cri-orinoco-tiny", || tiny(base(SchedulerKind::CriOrinoco, CommitKind::Orinoco))),
    ("orinoco-tiny", || tiny(base(SchedulerKind::Orinoco, CommitKind::Orinoco))),
    ("orinoco-depth8-tiny", || {
        tiny(base(SchedulerKind::Orinoco, CommitKind::Orinoco)).with_commit_depth(8)
    }),
    ("orinoco-banked-tiny", || {
        tiny(base(SchedulerKind::Orinoco, CommitKind::Orinoco)).with_banked_dispatch()
    }),
];

/// One oracle disagreement (or other panic) during a checked run.
#[derive(Clone, Debug)]
pub struct OrderFailure {
    /// Seed that regenerates the program.
    pub program_seed: u64,
    /// Label of the configuration (one of [`CONFIGS`]).
    pub config: &'static str,
    /// The cycle the check failed after.
    pub cycle: u64,
    /// The panic message.
    pub detail: String,
}

/// Aggregate result of an order-oracle campaign.
#[derive(Clone, Debug, Default)]
pub struct OrderOutcome {
    /// (program, configuration) runs.
    pub runs: u64,
    /// Cycles stepped, each followed by both oracle checks.
    pub total_cycles: u64,
    /// Instructions committed across all runs.
    pub total_commits: u64,
    /// Disagreements (must be empty).
    pub failures: Vec<OrderFailure>,
}

impl OrderOutcome {
    /// Campaign verdict: at least one run and no disagreement.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.runs > 0 && self.failures.is_empty()
    }
}

/// Steps one program to completion under `cfg`, running both oracles
/// after every cycle. Returns `(cycles, commits)`, or the cycle and panic
/// message of the first failed check.
fn checked_run(pseed: u64, mut cfg: CoreConfig) -> Result<(u64, u64), (u64, String)> {
    cfg.seed = pseed;
    let mut cycle = 0u64;
    catch_unwind(AssertUnwindSafe(|| {
        let mut core = Core::new(gen::generate(pseed).build(), cfg);
        while !core.finished() {
            assert!(cycle < MAX_CYCLES, "no completion within {MAX_CYCLES} cycles");
            core.step();
            cycle += 1;
            core.debug_verify_commit_invariants();
            core.debug_verify_issue_order();
        }
        (cycle, core.stats().committed)
    }))
    .map_err(|p| (cycle, panic_message(&*p)))
}

/// Runs the order-oracle campaign over `programs` fuzz programs derived
/// from campaign `seed`, each under every configuration of [`CONFIGS`],
/// sharding programs over `jobs` worker threads. `progress` is called
/// after every program with `(done, total)`.
pub fn order_campaign(
    programs: u64,
    seed: u64,
    jobs: usize,
    progress: impl Fn(u64, u64) + Sync,
) -> OrderOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};

    let seeds = program_seeds(seed, programs);
    let done = AtomicU64::new(0);
    let mut next = seeds.iter().copied();
    let units = orinoco_util::pool::ordered_pipeline_map(jobs, |_| (), || next.next(), |(), _, pseed| {
        let unit: Vec<_> = CONFIGS
            .iter()
            .map(|&(label, mk)| (label, checked_run(pseed, mk())))
            .collect();
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, programs);
        (pseed, unit)
    });
    let mut out = OrderOutcome::default();
    for (pseed, unit) in units {
        for (config, result) in unit {
            out.runs += 1;
            match result {
                Ok((cycles, commits)) => {
                    out.total_cycles += cycles;
                    out.total_commits += commits;
                }
                Err((cycle, detail)) => {
                    out.total_cycles += cycle;
                    out.failures.push(OrderFailure {
                        program_seed: pseed,
                        config,
                        cycle,
                        detail,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_parallel_matches_serial() {
        let serial = order_campaign(3, 7, 1, |_, _| {});
        assert!(serial.passed(), "{:?}", serial.failures);
        assert_eq!(serial.runs, 3 * CONFIGS.len() as u64);
        let par = order_campaign(3, 7, 2, |_, _| {});
        assert_eq!(
            (par.runs, par.total_cycles, par.total_commits),
            (serial.runs, serial.total_cycles, serial.total_commits)
        );
    }
}
