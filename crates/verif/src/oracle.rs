//! The lockstep differential oracle: every program runs through the
//! in-order architectural emulator (golden model) and the cycle-level
//! out-of-order pipeline (device under test) simultaneously, and the
//! checker proves the pipeline's unordered commit is architecturally
//! invisible.
//!
//! The DUT commits out of order; the golden model executes strictly in
//! order. The [`LockstepChecker`] therefore buffers commit events in a
//! sequence-indexed reorder window and replays them against the golden
//! model in program order — each committed [`DynInst`] must equal the
//! golden model's next dynamic instruction field by field (operands,
//! addresses, branch outcomes, next-PC). At the end of the run the two
//! architectural states (registers, memory image, instruction count) must
//! be identical.
//!
//! DUT panics count as divergences too: the pipeline's internal
//! assertions (wrong-path retirement, queue hygiene) are part of the
//! oracle, so an injected fault that trips one is a successful catch.

use orinoco_core::{CommitEvent, Core, CoreConfig, Fleet, Tracer};
use orinoco_isa::{DynInst, Emulator};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A detected difference between the golden model and the pipeline.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// The instruction committed at `seq` differs from what the golden
    /// model executed there.
    CommitMismatch {
        /// Dynamic sequence number of the mismatch.
        seq: u64,
        /// What the golden model executed.
        golden: Box<DynInst>,
        /// What the pipeline committed.
        dut: Box<DynInst>,
    },
    /// The same sequence number was committed twice.
    DoubleCommit {
        /// Offending sequence number.
        seq: u64,
    },
    /// The pipeline committed more instructions than the program executes.
    ExtraCommit {
        /// First sequence number past the golden instruction stream.
        seq: u64,
    },
    /// The run ended with committed instructions still waiting for a gap
    /// in the sequence space — some instruction never committed.
    MissingCommits {
        /// First sequence number that never committed.
        next_seq: u64,
        /// Younger commits stranded behind the gap.
        stranded: usize,
    },
    /// Final architectural state differs (registers, memory or count).
    FinalState {
        /// Human-readable description of the difference.
        detail: String,
    },
    /// The pipeline failed to finish within the cycle budget.
    Deadlock {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Instructions committed by then.
        committed: u64,
    },
    /// The pipeline panicked (an internal assertion fired).
    DutPanic {
        /// The panic payload.
        message: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CommitMismatch { seq, golden, dut } => {
                write!(fm, "commit mismatch at seq {seq}: golden {golden:?} vs dut {dut:?}")
            }
            Self::DoubleCommit { seq } => write!(fm, "seq {seq} committed twice"),
            Self::ExtraCommit { seq } => {
                write!(fm, "dut committed seq {seq} beyond the golden instruction stream")
            }
            Self::MissingCommits { next_seq, stranded } => write!(
                fm,
                "seq {next_seq} never committed ({stranded} younger commits stranded)"
            ),
            Self::FinalState { detail } => write!(fm, "final architectural state differs: {detail}"),
            Self::Deadlock { cycles, committed } => {
                write!(fm, "deadlock after {cycles} cycles ({committed} committed)")
            }
            Self::DutPanic { message } => write!(fm, "dut panic: {message}"),
        }
    }
}

/// Reorders the pipeline's unordered commit stream by sequence number and
/// checks it instruction-by-instruction against a golden [`Emulator`].
pub struct LockstepChecker {
    golden: Emulator,
    window: BTreeMap<u64, DynInst>,
    next_seq: u64,
    /// Commits checked so far (in-order prefix length).
    pub committed: u64,
    /// Commit events that retired ahead of an older live instruction.
    pub ooo_commits: u64,
}

impl LockstepChecker {
    /// Creates a checker around a fresh golden model (same initial
    /// architectural state as the DUT's program).
    #[must_use]
    pub fn new(golden: Emulator) -> Self {
        Self { golden, window: BTreeMap::new(), next_seq: 0, committed: 0, ooo_commits: 0 }
    }

    /// Feeds one commit event from the pipeline. Events may arrive in any
    /// sequence order; the checker advances the golden model whenever the
    /// in-order prefix grows.
    ///
    /// # Errors
    ///
    /// Returns the first [`Divergence`] detected.
    pub fn observe(&mut self, ev: &CommitEvent) -> Result<(), Divergence> {
        if ev.out_of_order() {
            self.ooo_commits += 1;
        }
        if ev.seq < self.next_seq || self.window.contains_key(&ev.seq) {
            return Err(Divergence::DoubleCommit { seq: ev.seq });
        }
        self.window.insert(ev.seq, ev.dyn_inst.clone());
        while let Some(dut) = self.window.remove(&self.next_seq) {
            let Some(golden) = self.golden.step() else {
                return Err(Divergence::ExtraCommit { seq: self.next_seq });
            };
            if golden != dut {
                return Err(Divergence::CommitMismatch {
                    seq: self.next_seq,
                    golden: Box::new(golden),
                    dut: Box::new(dut),
                });
            }
            self.next_seq += 1;
            self.committed += 1;
        }
        Ok(())
    }

    /// End-of-run check: the commit sequence must be dense and exhausted,
    /// and the DUT's final architectural state must equal the golden
    /// model's.
    ///
    /// # Errors
    ///
    /// Returns the first [`Divergence`] detected.
    pub fn finalize(&mut self, dut: &Emulator) -> Result<(), Divergence> {
        if !self.window.is_empty() {
            return Err(Divergence::MissingCommits {
                next_seq: self.next_seq,
                stranded: self.window.len(),
            });
        }
        if let Some(extra) = self.golden.step() {
            return Err(Divergence::FinalState {
                detail: format!(
                    "golden model has uncommitted instructions from seq {}",
                    extra.seq
                ),
            });
        }
        let (g, d) = (self.golden.snapshot(), dut.snapshot());
        if g.executed != d.executed {
            return Err(Divergence::FinalState {
                detail: format!("executed count {} vs {}", g.executed, d.executed),
            });
        }
        if let Some(r) = (0..g.regs.len()).find(|&r| g.regs[r] != d.regs[r]) {
            return Err(Divergence::FinalState {
                detail: format!(
                    "arch reg {r}: golden {:#x} vs dut {:#x}",
                    g.regs[r], d.regs[r]
                ),
            });
        }
        if self.golden.mem_fingerprint() != dut.mem_fingerprint()
            || self.golden.memory() != dut.memory()
        {
            return Err(Divergence::FinalState {
                detail: format!(
                    "memory image differs (fingerprint {:#x} vs {:#x})",
                    self.golden.mem_fingerprint(),
                    dut.mem_fingerprint()
                ),
            });
        }
        Ok(())
    }
}

/// Knobs for one co-simulation.
#[derive(Clone, Debug)]
pub struct CosimOptions {
    /// Cycle budget before the run counts as deadlocked.
    pub max_cycles: u64,
    /// Arm [`Core::inject_spec_flip`] with this 1-based speculative
    /// dispatch ordinal.
    pub inject_spec_flip: Option<u64>,
    /// Record the last `trace_capacity` lifecycle events in the DUT's
    /// ring buffer (0 disables tracing). On a divergence the report's
    /// `trace_tail` carries the window as JSONL, so the pipeline activity
    /// leading up to the failure can be inspected without a re-run.
    pub trace_capacity: usize,
}

impl Default for CosimOptions {
    fn default() -> Self {
        Self {
            max_cycles: 50_000_000,
            inject_spec_flip: None,
            trace_capacity: 0,
        }
    }
}

/// Outcome of one co-simulation.
#[derive(Clone, Debug)]
pub struct CosimReport {
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
    /// Cycles simulated (0 if the DUT panicked).
    pub cycles: u64,
    /// Commits cross-checked in order.
    pub committed: u64,
    /// Commits observed ahead of an older live instruction.
    pub ooo_commits: u64,
    /// Whether an armed SPEC-flip injection actually fired.
    pub injection_fired: bool,
    /// JSONL dump of the DUT's lifecycle-trace window around the
    /// divergence. Present only when `CosimOptions::trace_capacity > 0`
    /// and the run diverged without panicking (a panic unwinds past the
    /// core, so its ring buffer is lost).
    pub trace_tail: Option<String>,
}

impl CosimReport {
    /// `true` when golden model and pipeline agreed everywhere.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// The cosim step-and-check loop on an already-prepared DUT core. Panics
/// out of the pipeline unwind through this function — callers wrap it in
/// `catch_unwind` and translate the payload to [`Divergence::DutPanic`].
fn cosim_loop(core: &mut Core, golden: Emulator, opts: &CosimOptions) -> CosimReport {
    core.enable_commit_trace();
    if opts.trace_capacity > 0 {
        core.enable_tracing(opts.trace_capacity);
    }
    if let Some(nth) = opts.inject_spec_flip {
        core.inject_spec_flip(nth);
    }
    let mut checker = LockstepChecker::new(golden);
    let mut cycles = 0u64;
    let mut divergence = None;
    'sim: while !core.finished() {
        if cycles >= opts.max_cycles {
            divergence = Some(Divergence::Deadlock { cycles, committed: checker.committed });
            break;
        }
        core.step();
        cycles += 1;
        for ev in core.drain_commit_trace() {
            if let Err(d) = checker.observe(&ev) {
                divergence = Some(d);
                break 'sim;
            }
        }
    }
    if divergence.is_none() {
        divergence = checker.finalize(core.emulator()).err();
    }
    let trace_tail = if divergence.is_some() { core.tracer().map(Tracer::to_jsonl) } else { None };
    CosimReport {
        divergence,
        cycles,
        committed: checker.committed,
        ooo_commits: checker.ooo_commits,
        injection_fired: core.spec_flip_fired(),
        trace_tail,
    }
}

/// The report for a DUT that panicked before producing one.
fn panic_report(payload: Box<dyn std::any::Any + Send>, opts: &CosimOptions) -> CosimReport {
    let message = orinoco_util::panic_message(&*payload);
    CosimReport {
        divergence: Some(Divergence::DutPanic { message }),
        cycles: 0,
        committed: 0,
        ooo_commits: 0,
        // A panic implies pipeline-internal assertions fired; with an
        // armed injector that is only reachable after the flip.
        injection_fired: opts.inject_spec_flip.is_some(),
        trace_tail: None,
    }
}

/// Runs `emu`'s program through the pipeline under `cfg` in lockstep with
/// an independent golden emulation, checking every commit and the final
/// architectural state. Pipeline panics are caught and reported as
/// [`Divergence::DutPanic`].
#[must_use]
pub fn run_cosim(emu: &Emulator, cfg: CoreConfig, opts: &CosimOptions) -> CosimReport {
    let golden = emu.clone();
    let dut_emu = emu.clone();
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut core = Core::new(dut_emu, cfg);
        cosim_loop(&mut core, golden, opts)
    }));
    result.unwrap_or_else(|payload| panic_report(payload, opts))
}

/// Pooled variant of [`run_cosim`]: the DUT core comes out of `fleet`,
/// revived through `Core::reset_with` whenever a parked core matches the
/// requested configuration shape, so campaign workers skip per-unit core
/// construction. On a clean return the core is parked back for reuse; a
/// panicking core is dropped — a core that unwound mid-cycle holds
/// broken invariants and must not be revived.
#[must_use]
pub fn run_cosim_pooled(
    fleet: &mut Fleet,
    emu: &Emulator,
    cfg: CoreConfig,
    opts: &CosimOptions,
) -> CosimReport {
    let golden = emu.clone();
    // `Fleet::with_lane` parks the core on success and drops it when the
    // panic unwinds through; the catch turns that panic into a DutPanic
    // report exactly as the unpooled path does.
    let result = catch_unwind(AssertUnwindSafe(|| {
        fleet.with_lane(cfg, emu.clone(), |core| cosim_loop(core, golden, opts))
    }));
    result.unwrap_or_else(|payload| panic_report(payload, opts))
}

/// Runs `f` with the default panic hook silenced, so expected DUT panics
/// (fault-injection campaigns) do not spam stderr. The previous hook is
/// restored afterwards, also when `f` panics: the panic is caught, the
/// hook put back, and the panic resumed. (A drop guard cannot do this:
/// the hook cannot be changed from a panicking thread.)
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    drop(std::panic::take_hook());
    std::panic::set_hook(prev);
    out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use orinoco_core::{CommitKind, SchedulerKind};

    #[test]
    fn clean_program_has_no_divergence() {
        let emu = gen::generate(1).build();
        let cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        let report = run_cosim(&emu, cfg, &CosimOptions::default());
        assert!(report.clean(), "unexpected divergence: {:?}", report.divergence);
        assert!(report.committed > 0);
    }

    #[test]
    fn divergence_report_carries_trace_window() {
        let emu = gen::generate(1).build();
        let cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        // A tiny cycle budget forces a Deadlock divergence without a
        // panic, so the DUT's ring buffer survives to be dumped.
        let opts =
            CosimOptions { max_cycles: 50, trace_capacity: 64, ..CosimOptions::default() };
        let report = run_cosim(&emu, cfg.clone(), &opts);
        assert!(matches!(report.divergence, Some(Divergence::Deadlock { .. })));
        let tail = report.trace_tail.expect("diverged with tracing armed");
        assert!(tail.lines().count() > 0 && tail.lines().count() <= 64);
        assert!(tail.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

        // Clean runs never carry a window, traced or not.
        let clean_opts = CosimOptions { trace_capacity: 64, ..CosimOptions::default() };
        let clean = run_cosim(&emu, cfg, &clean_opts);
        assert!(clean.clean());
        assert!(clean.trace_tail.is_none());
    }

    #[test]
    fn checker_rejects_double_commit() {
        let mut emu = gen::generate(2).build();
        emu.set_step_limit(100);
        let mut golden = emu.clone();
        let mut checker = LockstepChecker::new(emu);
        let first = golden.step().expect("program is non-empty");
        let ev = CommitEvent {
            seq: first.seq,
            cycle: 1,
            oldest_live_seq: None,
            dyn_inst: first,
        };
        checker.observe(&ev).expect("first commit is fine");
        assert!(matches!(
            checker.observe(&ev),
            Err(Divergence::DoubleCommit { seq: 0 })
        ));
    }

    #[test]
    fn checker_rejects_tampered_commit() {
        let emu = gen::generate(2).build();
        let mut golden = emu.clone();
        let mut checker = LockstepChecker::new(emu);
        let mut first = golden.step().expect("program is non-empty");
        first.next_pc ^= 4; // tamper
        let ev = CommitEvent { seq: first.seq, cycle: 1, oldest_live_seq: None, dyn_inst: first };
        assert!(matches!(
            checker.observe(&ev),
            Err(Divergence::CommitMismatch { seq: 0, .. })
        ));
    }

    #[test]
    fn checker_detects_missing_commit_at_finalize() {
        let emu = gen::generate(2).build();
        let mut golden = emu.clone();
        let final_emu = {
            let mut e = emu.clone();
            e.run();
            e
        };
        let mut checker = LockstepChecker::new(emu);
        let _skipped = golden.step().expect("seq 0 exists");
        let second = golden.step().expect("seq 1 exists");
        let ev = CommitEvent {
            seq: second.seq,
            cycle: 1,
            oldest_live_seq: Some(0),
            dyn_inst: second,
        };
        checker.observe(&ev).expect("buffered out-of-order commit");
        assert_eq!(checker.ooo_commits, 1);
        assert!(matches!(
            checker.finalize(&final_emu),
            Err(Divergence::MissingCommits { next_seq: 0, stranded: 1 })
        ));
    }
}
