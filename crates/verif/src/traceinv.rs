//! Trace-invariant harness: replays fuzzed programs with the lifecycle
//! tracer armed and checks that every instruction's event stream obeys
//! the pipeline's structural contract:
//!
//! * per-instruction ordering — fetch ≤ rename ≤ dispatch ≤ issue ≤
//!   complete ≤ commit in cycle order, with each stage present before the
//!   next is allowed to appear;
//! * commit-eligible (the SPEC bit clearing at an architectural
//!   resolution point) precedes every commit of a speculatively
//!   dispatched instruction — in particular, *unordered* commits are only
//!   ever granted with SPEC clear;
//! * each dynamic instruction commits at most once, and never after a
//!   squash of the same episode;
//! * wrong-path instructions never commit.
//!
//! The harness is itself proven load-bearing: arming
//! [`orinoco_core::Core::inject_spec_flip`] clears a SPEC bit through a
//! path that bypasses the traced resolution sites, so the injected fault
//! either trips a pipeline assertion or surfaces here as a speculative
//! commit with no commit-eligible event.

use crate::gen;
use orinoco_core::fetch::WRONG_PATH_SEQ_BASE;
use orinoco_core::{
    CommitKind, Core, CoreConfig, SchedulerKind, TraceEventKind, TraceRecord, STALL_SEQ,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cap on recorded violation strings (a broken pipeline would otherwise
/// produce one per instruction).
const MAX_VIOLATIONS: usize = 32;

/// One instruction's progress through its current fetch episode. A
/// squash ends the episode; replays and redirects may re-fetch the same
/// sequence number, starting a fresh episode.
#[derive(Clone, Copy, Default)]
struct Episode {
    fetched: Option<u64>,
    renamed: Option<u64>,
    dispatched: Option<u64>,
    speculative: bool,
    issued: Option<u64>,
    completed: Option<u64>,
    eligible: Option<u64>,
    committed: bool,
}

/// Result of checking one trace against the lifecycle invariants.
#[derive(Clone, Debug, Default)]
pub struct TraceCheck {
    /// Events inspected (stall records included).
    pub events: u64,
    /// Commit events seen.
    pub commits: u64,
    /// Commits granted while an older instruction was still live.
    pub unordered_commits: u64,
    /// Commits of speculatively dispatched instructions (each must carry
    /// a prior commit-eligible event).
    pub speculative_commits: u64,
    /// Invariant violations, capped at the first 32.
    pub violations: Vec<String>,
}

impl TraceCheck {
    /// `true` when every lifecycle invariant held.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, r: &TraceRecord, detail: &str) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!(
                "cycle {} seq {} {}: {detail}",
                r.cycle,
                r.seq,
                r.kind.label()
            ));
        }
    }
}

/// Checks an event stream (oldest first) against the lifecycle
/// invariants. The stream must be complete — run the tracer with a
/// capacity large enough that nothing is dropped, or the ordering checks
/// will misfire on the truncated prefix.
pub fn check_lifecycle<'a>(records: impl Iterator<Item = &'a TraceRecord>) -> TraceCheck {
    let mut out = TraceCheck::default();
    let mut eps: HashMap<u64, Episode> = HashMap::new();
    for r in records {
        out.events += 1;
        if r.seq == STALL_SEQ {
            if r.kind != TraceEventKind::Stall {
                out.violate(r, "lifecycle event carries the stall sentinel seq");
            }
            continue;
        }
        let ep = eps.entry(r.seq).or_default();
        let c = r.cycle;
        match r.kind {
            TraceEventKind::Fetch => {
                if ep.committed {
                    out.violate(r, "re-fetched after commit");
                }
                *ep = Episode { fetched: Some(c), ..Episode::default() };
            }
            TraceEventKind::Rename => {
                if ep.fetched.is_none_or(|f| c < f) {
                    out.violate(r, "rename without a preceding fetch");
                }
                ep.renamed = Some(c);
            }
            TraceEventKind::Dispatch => {
                if ep.renamed.is_none_or(|p| c < p) {
                    out.violate(r, "dispatch without a preceding rename");
                }
                ep.dispatched = Some(c);
                ep.speculative = r.arg != 0;
            }
            TraceEventKind::Wakeup => {
                if ep.dispatched.is_none_or(|p| c < p) {
                    out.violate(r, "wakeup before dispatch");
                }
            }
            TraceEventKind::Issue => {
                if ep.dispatched.is_none_or(|p| c < p) {
                    out.violate(r, "issue without a preceding dispatch");
                }
                ep.issued = Some(c);
            }
            TraceEventKind::Execute => {
                if ep.issued.is_none_or(|p| c < p) {
                    out.violate(r, "execute without a preceding issue");
                }
            }
            TraceEventKind::Complete => {
                if ep.issued.is_none_or(|p| c < p) {
                    out.violate(r, "complete without a preceding issue");
                }
                ep.completed = Some(c);
            }
            TraceEventKind::CommitEligible => {
                if ep.dispatched.is_none_or(|p| c < p) {
                    out.violate(r, "commit-eligible before dispatch");
                }
                ep.eligible = Some(c);
            }
            TraceEventKind::Commit => {
                out.commits += 1;
                if ep.committed {
                    out.violate(r, "committed twice");
                }
                if r.seq >= WRONG_PATH_SEQ_BASE {
                    out.violate(r, "wrong-path instruction committed");
                }
                if ep.completed.is_none_or(|p| c < p) {
                    out.violate(r, "commit without a preceding complete");
                }
                if r.arg < r.seq {
                    out.unordered_commits += 1;
                }
                if ep.speculative {
                    out.speculative_commits += 1;
                    if ep.eligible.is_none_or(|p| c < p) {
                        out.violate(
                            r,
                            "speculative instruction committed without commit-eligible \
                             (SPEC bit never cleared at a resolution site)",
                        );
                    }
                }
                ep.committed = true;
            }
            TraceEventKind::Squash => {
                if ep.committed {
                    out.violate(r, "squashed after commit");
                }
                *ep = Episode::default();
            }
            TraceEventKind::Stall => {
                out.violate(r, "stall record carries an instruction seq");
            }
        }
    }
    out
}

/// The configuration rotation of the trace-invariant campaign. Unlike the
/// cosim fuzzer, every variant pins the Orinoco commit policy: the
/// commit-eligible invariant is a statement about SPEC-gated unordered
/// commit, which VB/SPEC-style baselines violate by design.
fn config_for(pseed: u64) -> CoreConfig {
    let mut cfg = match (pseed >> 48) % 4 {
        0 => CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco),
        1 => crate::tiny(
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco),
        ),
        2 => {
            let mut c = CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco);
            c.pagefault_per_million = 2_000;
            c
        }
        _ => CoreConfig::ultra()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco),
    };
    cfg.seed = pseed;
    cfg
}

/// Outcome of one traced replay: the invariant check, or the panic
/// message if the pipeline's own assertions fired first.
pub type TracedRun = Result<TraceCheck, String>;

/// Replays the program of `pseed` with the tracer armed (capacity
/// `1 << 20`, asserted lossless) and checks the lifecycle invariants.
/// `inject` arms [`Core::inject_spec_flip`] with that speculative
/// dispatch ordinal.
pub fn run_traced(pseed: u64, inject: Option<u64>) -> TracedRun {
    let emu = gen::generate(pseed).build();
    let cfg = config_for(pseed);
    catch_unwind(AssertUnwindSafe(move || {
        let mut core = Core::new(emu, cfg);
        core.enable_tracing(1 << 20);
        if let Some(nth) = inject {
            core.inject_spec_flip(nth);
        }
        let committed = core.run(50_000_000).committed;
        let tracer = core.take_tracer().expect("tracing was enabled");
        let mut check = check_lifecycle(tracer.records());
        if tracer.dropped() > 0 {
            check
                .violations
                .push(format!("ring dropped {} events; checks unsound", tracer.dropped()));
        }
        if check.commits != committed {
            check.violations.push(format!(
                "trace saw {} commits but the pipeline reported {committed}",
                check.commits
            ));
        }
        check
    }))
    .map_err(|payload| orinoco_util::panic_message(&*payload))
}

/// Aggregate result of a trace-invariant campaign.
#[derive(Clone, Debug, Default)]
pub struct TraceInvOutcome {
    /// Programs replayed in the clean pass.
    pub programs_run: u64,
    /// Events checked across all clean-pass traces.
    pub total_events: u64,
    /// Commits checked.
    pub total_commits: u64,
    /// Unordered commits observed (must be nonzero for the campaign to
    /// have exercised the interesting machinery).
    pub total_unordered: u64,
    /// Speculative commits observed (each carried commit-eligible).
    pub total_speculative: u64,
    /// Clean-pass violations, tagged with their program seed.
    pub violations: Vec<(u64, String)>,
    /// Clean-pass pipeline panics (always a failure).
    pub panics: Vec<(u64, String)>,
    /// Injection-pass runs where the SPEC flip was detected — by a trace
    /// violation or a pipeline assertion.
    pub injection_caught: u64,
    /// Injection-pass runs attempted.
    pub injection_runs: u64,
}

impl TraceInvOutcome {
    /// Campaign verdict: clean traces everywhere, unordered commit
    /// exercised, and the injected SPEC flip caught at least once.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.programs_run > 0
            && self.violations.is_empty()
            && self.panics.is_empty()
            && self.total_unordered > 0
            && self.injection_caught > 0
    }
}

/// Runs the trace-invariant campaign: every seeded program is replayed
/// with the tracer armed and its event stream checked, then a SPEC-flip
/// injection pass proves the harness notices faults the clean pass
/// certifies the absence of.
#[must_use]
pub fn trace_invariant_campaign(programs: u64, seed: u64) -> TraceInvOutcome {
    let mut out = TraceInvOutcome::default();
    let seeds = crate::program_seeds(seed, programs);
    crate::oracle::with_quiet_panics(|| {
        for &pseed in &seeds {
            match run_traced(pseed, None) {
                Ok(check) => {
                    out.programs_run += 1;
                    out.total_events += check.events;
                    out.total_commits += check.commits;
                    out.total_unordered += check.unordered_commits;
                    out.total_speculative += check.speculative_commits;
                    out.violations.extend(
                        check.violations.into_iter().map(|v| (pseed, v)),
                    );
                }
                Err(msg) => out.panics.push((pseed, msg)),
            }
        }
        // Injection pass: several ordinals per seed, stopping at the
        // first catch (a flip on a correctly-speculated instruction can
        // be architecturally harmless yet still visible here, since the
        // traced resolution sites are bypassed either way).
        'inject: for &pseed in &seeds {
            for nth in [1, 2, (pseed >> 16) % 13 + 3] {
                out.injection_runs += 1;
                match run_traced(pseed, Some(nth)) {
                    Ok(check) if !check.clean() => {
                        out.injection_caught += 1;
                        break 'inject;
                    }
                    Ok(_) => {}
                    Err(_panic) => {
                        out.injection_caught += 1;
                        break 'inject;
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_traces_are_clean_and_injection_is_caught() {
        let out = trace_invariant_campaign(8, 0x7AC3);
        assert!(
            out.violations.is_empty(),
            "lifecycle violations: {:?}",
            &out.violations[..out.violations.len().min(4)]
        );
        assert!(out.panics.is_empty(), "clean-pass panics: {:?}", out.panics);
        assert!(out.total_unordered > 0, "no unordered commits exercised");
        assert!(out.total_speculative > 0, "no speculative commits exercised");
        assert!(out.injection_caught > 0, "SPEC flip never caught by the harness");
        assert!(out.passed());
    }

    #[test]
    fn spec_flip_surfaces_as_missing_commit_eligible() {
        // Hunt a seed/ordinal pair where the flip is caught by the trace
        // checker itself (not a pipeline assertion), and confirm the
        // violation names the missing commit-eligible event.
        let seeds = crate::program_seeds(0x7AC3, 16);
        let found = crate::oracle::with_quiet_panics(|| {
            for &pseed in &seeds {
                for nth in 1..6u64 {
                    if let Ok(check) = run_traced(pseed, Some(nth)) {
                        if let Some(v) = check
                            .violations
                            .iter()
                            .find(|v| v.contains("without commit-eligible"))
                        {
                            return Some(v.clone());
                        }
                    }
                }
            }
            None
        });
        assert!(
            found.is_some(),
            "no SPEC flip produced a missing commit-eligible violation in 80 runs"
        );
    }

    #[test]
    fn checker_flags_synthetic_violations() {
        use TraceEventKind as K;
        let rec = |cycle, kind, seq, arg| TraceRecord { cycle, seq, arg, kind };
        // Well-formed single-instruction life.
        let good = [
            rec(1, K::Fetch, 0, 0x100),
            rec(2, K::Rename, 0, 0),
            rec(2, K::Dispatch, 0, 1),
            rec(3, K::Issue, 0, 0),
            rec(3, K::Execute, 0, 0),
            rec(5, K::Complete, 0, 0),
            rec(6, K::CommitEligible, 0, 0),
            rec(7, K::Commit, 0, u64::MAX),
        ];
        let check = check_lifecycle(good.iter());
        assert!(check.clean(), "false positives: {:?}", check.violations);
        assert_eq!(check.commits, 1);
        assert_eq!(check.speculative_commits, 1);
        assert_eq!(check.unordered_commits, 0);

        // Speculative commit with no commit-eligible event.
        let missing_elig = [
            rec(1, K::Fetch, 0, 0x100),
            rec(2, K::Rename, 0, 0),
            rec(2, K::Dispatch, 0, 1),
            rec(3, K::Issue, 0, 0),
            rec(5, K::Complete, 0, 0),
            rec(7, K::Commit, 0, u64::MAX),
        ];
        let check = check_lifecycle(missing_elig.iter());
        assert!(check.violations.iter().any(|v| v.contains("without commit-eligible")));

        // Commit out of cycle order relative to complete.
        let time_travel = [
            rec(1, K::Fetch, 0, 0x100),
            rec(2, K::Rename, 0, 0),
            rec(2, K::Dispatch, 0, 0),
            rec(3, K::Issue, 0, 0),
            rec(9, K::Complete, 0, 0),
            rec(7, K::Commit, 0, u64::MAX),
        ];
        assert!(!check_lifecycle(time_travel.iter()).clean());

        // Double commit, wrong-path commit, squash-after-commit.
        let double = [
            rec(1, K::Fetch, 0, 0),
            rec(2, K::Rename, 0, 0),
            rec(2, K::Dispatch, 0, 0),
            rec(3, K::Issue, 0, 0),
            rec(4, K::Complete, 0, 0),
            rec(5, K::Commit, 0, u64::MAX),
            rec(6, K::Commit, 0, u64::MAX),
            rec(7, K::Squash, 0, 0),
        ];
        let check = check_lifecycle(double.iter());
        assert!(check.violations.iter().any(|v| v.contains("committed twice")));
        assert!(check.violations.iter().any(|v| v.contains("squashed after commit")));
        let wp = [rec(5, K::Commit, WRONG_PATH_SEQ_BASE + 3, u64::MAX)];
        assert!(check_lifecycle(wp.iter())
            .violations
            .iter()
            .any(|v| v.contains("wrong-path")));
    }
}
