//! The fetch unit: oracle-driven correct-path fetch with branch
//! prediction, plus synthetic wrong-path injection after a misprediction so
//! squash, recovery and resource-pollution effects are genuinely exercised
//! (gem5-O3-style timing, trace-oracle functional path).
//!
//! The functional emulator produces the correct-path [`DynInst`] stream. At
//! fetch, every control-flow instruction is predicted (TAGE direction +
//! BTB/RAS target); on a misprediction the unit switches to *wrong-path
//! mode* and emits deterministic synthetic instructions until the pipeline
//! resolves the branch and redirects. Squashed correct-path instructions
//! (exceptions, replay traps) are re-injected through a push-back stack.

use crate::config::CoreConfig;
use orinoco_frontend::{Btb, DirectionPredictor, ReturnAddressStack};
use orinoco_isa::{ArchReg, DynInst, Emulator, HaltReason, InstClass, Opcode};
use orinoco_trace::ReplayStream;

/// Sequence-number base for wrong-path instructions: larger than any
/// correct-path sequence, so age comparisons remain sound.
pub const WRONG_PATH_SEQ_BASE: u64 = 1 << 62;

/// Where the correct-path instruction stream comes from: the live
/// functional emulator (fetch+emulate as the oracle) or a replayed
/// `ORTRACE1` capture (trace-driven frontend). Both expose the same
/// stepping surface, so the pipeline behaves identically — a replayed run
/// is cycle-for-cycle equal to the live run it was captured from.
// One FetchSource lives per core (never in bulk collections), so the
// Live/Replay size gap costs nothing; boxing would tax every live step.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FetchSource {
    /// Live fetch: the emulator executes the program as fetch consumes it.
    Live(Emulator),
    /// Trace replay: the recorded stream of a previous (or offline)
    /// execution.
    Replay(ReplayStream),
}

impl FetchSource {
    fn step(&mut self) -> Option<DynInst> {
        match self {
            FetchSource::Live(emu) => emu.step(),
            FetchSource::Replay(rs) => rs.step(),
        }
    }

    /// Why the stream ended, once it has.
    #[must_use]
    pub fn halt_reason(&self) -> Option<HaltReason> {
        match self {
            FetchSource::Live(emu) => emu.halt_reason(),
            FetchSource::Replay(rs) => rs.halt_reason(),
        }
    }

    /// Correct-path instructions produced so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        match self {
            FetchSource::Live(emu) => emu.executed(),
            FetchSource::Replay(rs) => rs.executed(),
        }
    }

    /// The canonical (masked, aligned) form of `addr` for the program's
    /// memory size.
    #[must_use]
    pub fn canonical_addr(&self, addr: u64) -> u64 {
        match self {
            FetchSource::Live(emu) => emu.canonical_addr(addr),
            FetchSource::Replay(rs) => rs.canonical_addr(addr),
        }
    }

    /// The live emulator, if this source is one.
    #[must_use]
    pub fn emulator(&self) -> Option<&Emulator> {
        match self {
            FetchSource::Live(emu) => Some(emu),
            FetchSource::Replay(_) => None,
        }
    }
}

impl From<Emulator> for FetchSource {
    fn from(emu: Emulator) -> Self {
        FetchSource::Live(emu)
    }
}

impl From<ReplayStream> for FetchSource {
    fn from(rs: ReplayStream) -> Self {
        FetchSource::Replay(rs)
    }
}

/// Warmed frontend predictor state — direction predictor, BTB and return
/// address stack — captured by [`FetchUnit::warm_snapshot`] and reapplied
/// after a reset by [`FetchUnit::restore_warm`], so a sampled-simulation
/// interval can start with trained predictors instead of cold ones.
pub struct FrontendWarm {
    predictor: Box<dyn DirectionPredictor + Send>,
    btb: Btb,
    ras: ReturnAddressStack,
}

impl Clone for FrontendWarm {
    fn clone(&self) -> Self {
        Self {
            predictor: self.predictor.boxed_clone(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
        }
    }
}

impl FrontendWarm {
    /// Functionally trains the predictor structures on one executed
    /// control-flow instruction, mirroring the fetch unit's own
    /// prediction on the correct path (SMARTS-style functional warming
    /// during sampled-simulation fast-forward). Non-control-flow
    /// instructions are ignored, so callers may feed the whole stream.
    ///
    /// Returns `true` when the (warm) predictor state would have
    /// mispredicted this instruction — the exact direction/target test
    /// `FetchUnit::predict` applies. Because wrong-path instructions are
    /// synthetic and never branches, predictor state evolves only on the
    /// committed stream, so the functional mispredict sequence matches
    /// the detailed core's exactly. Callers use this to emulate
    /// wrong-path cache pollution (see [`super::pipeline::WarmState`]).
    pub fn warm_update(&mut self, d: &DynInst) -> bool {
        match d.op {
            Opcode::Jal => {
                if d.dst.is_some() {
                    self.ras.push(d.pc + 4);
                }
                false
            }
            Opcode::Jalr => {
                let predicted = self.ras.pop().or_else(|| self.btb.lookup(d.pc));
                self.btb.insert(d.pc, d.next_pc);
                predicted != Some(d.next_pc)
            }
            _ if d.class == InstClass::Branch => {
                let dir = self.predictor.predict(d.pc);
                self.predictor.update(d.pc, d.taken);
                let target = self.btb.lookup(d.pc);
                if d.taken {
                    self.btb.insert(d.pc, d.next_pc);
                }
                if dir != d.taken {
                    true
                } else if d.taken {
                    target != Some(d.next_pc)
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

impl std::fmt::Debug for FrontendWarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendWarm")
            .field("predictor", &self.predictor.name())
            .finish_non_exhaustive()
    }
}

/// A fetched instruction heading to dispatch.
#[derive(Clone, Debug)]
pub struct Fetched {
    /// The (possibly synthetic) dynamic instruction.
    pub inst: DynInst,
    /// Fetched down a mispredicted path.
    pub wrong_path: bool,
    /// This branch was mispredicted at fetch (realised at resolution).
    pub mispredicted: bool,
}

/// Fetch statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchStats {
    /// Conditional/indirect branches predicted.
    pub branches: u64,
    /// Mispredictions (direction or target).
    pub mispredicts: u64,
    /// Wrong-path instructions injected.
    pub wrong_path_insts: u64,
    /// Correct-path instructions re-injected after squashes.
    pub reinjected: u64,
}

/// The fetch unit.
pub struct FetchUnit {
    src: FetchSource,
    pushback: Vec<DynInst>,
    predictor: Box<dyn DirectionPredictor + Send>,
    btb: Btb,
    ras: ReturnAddressStack,
    /// Sequence number of the unresolved mispredicted branch, if fetch is
    /// on the wrong path.
    wrong_path_owner: Option<u64>,
    stall_until: u64,
    wp_seq: u64,
    rng: u64,
    stats: FetchStats,
}

impl FetchUnit {
    /// Creates a fetch unit over `src` — a live emulator or a replayed
    /// capture — using the configured predictor.
    #[must_use]
    pub fn new(src: impl Into<FetchSource>, cfg: &CoreConfig) -> Self {
        Self {
            src: src.into(),
            pushback: Vec::new(),
            predictor: cfg.predictor.build(),
            btb: Btb::new(512, 4),
            ras: ReturnAddressStack::new(16),
            wrong_path_owner: None,
            stall_until: 0,
            wp_seq: WRONG_PATH_SEQ_BASE,
            rng: cfg.seed | 1,
            stats: FetchStats::default(),
        }
    }

    /// Fetch statistics.
    #[must_use]
    pub fn stats(&self) -> &FetchStats {
        &self.stats
    }

    /// `true` once the program is exhausted and nothing is pending
    /// re-injection.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.pushback.is_empty()
            && self.src.halt_reason().is_some()
            && self.wrong_path_owner.is_none()
    }

    /// Read access to the underlying emulator (architectural oracle).
    ///
    /// # Panics
    ///
    /// Panics if the unit is fed by a trace replay — a capture carries no
    /// architectural state. Use [`FetchUnit::source`] when the frontend
    /// kind is not statically known.
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        self.src
            .emulator()
            .expect("trace-replay fetch has no emulator (see FetchUnit::source)")
    }

    /// Read access to the instruction source driving fetch.
    #[must_use]
    pub fn source(&self) -> &FetchSource {
        &self.src
    }

    /// `true` while fetching down a mispredicted path.
    #[must_use]
    pub fn on_wrong_path(&self) -> bool {
        self.wrong_path_owner.is_some()
    }

    /// The cycle until which fetch is stalled by a redirect penalty
    /// (fetch produces nothing while `now < stalled_until()`). Used by the
    /// idle-cycle fast-forward to bound its clock jump.
    #[must_use]
    pub fn stalled_until(&self) -> u64 {
        self.stall_until
    }

    /// Rebinds the unit to a fresh instruction source (emulator or replay)
    /// and returns every predictor structure to its post-construction
    /// state, keeping all allocations (core reset path). `cfg` must be the
    /// configuration the unit was built with.
    pub fn reset(&mut self, src: impl Into<FetchSource>, cfg: &CoreConfig) {
        self.src = src.into();
        self.pushback.clear();
        self.predictor.reset();
        self.btb.reset();
        self.ras.clear();
        self.wrong_path_owner = None;
        self.stall_until = 0;
        self.wp_seq = WRONG_PATH_SEQ_BASE;
        self.rng = cfg.seed | 1;
        self.stats = FetchStats::default();
    }

    /// Snapshots the trained predictor structures (direction predictor,
    /// BTB, RAS) for later [`FetchUnit::restore_warm`].
    #[must_use]
    pub fn warm_snapshot(&self) -> FrontendWarm {
        FrontendWarm {
            predictor: self.predictor.boxed_clone(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
        }
    }

    /// Reinstates predictor training captured by
    /// [`FetchUnit::warm_snapshot`]. Call after [`FetchUnit::reset`]; all
    /// other fetch state (pushback, wrong-path mode, stats) is left as the
    /// reset put it.
    pub fn restore_warm(&mut self, warm: &FrontendWarm) {
        self.predictor = warm.predictor.boxed_clone();
        self.btb = warm.btb.clone();
        self.ras = warm.ras.clone();
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn synth_wrong_path(&mut self) -> DynInst {
        let r = self.next_rand();
        self.wp_seq += 1;
        let seq = self.wp_seq;
        let pick = r % 100;
        let dst = Some(ArchReg::int(1 + (r >> 8) as u8 % 30));
        let src1 = Some(ArchReg::int(1 + (r >> 16) as u8 % 30));
        let src2 = Some(ArchReg::int(1 + (r >> 24) as u8 % 30));
        let (op, class, mem_addr, dst, src2) = if pick < 25 {
            // wrong-path load: pollutes caches and MSHRs realistically
            let addr = self.src.canonical_addr(r >> 13);
            (Opcode::Ld, InstClass::Load, Some(addr), dst, None)
        } else if pick < 32 {
            let addr = self.src.canonical_addr(r >> 17);
            (Opcode::St, InstClass::Store, Some(addr), None, src2)
        } else if pick < 40 {
            (Opcode::Mul, InstClass::IntMul, None, dst, src2)
        } else {
            (Opcode::Add, InstClass::IntAlu, None, dst, src2)
        };
        self.stats.wrong_path_insts += 1;
        DynInst {
            seq,
            index: usize::MAX,
            pc: 0xDEAD_0000 | (seq & 0xFFFF) << 2,
            op,
            class,
            dst,
            src1,
            src2,
            mem_addr,
            taken: false,
            next_pc: 0,
        }
    }

    fn next_correct_path(&mut self) -> Option<DynInst> {
        match self.pushback.pop() {
            Some(d) => Some(d),
            None => self.src.step(),
        }
    }

    /// Predicts the control-flow instruction `d`; returns `true` on a
    /// misprediction (direction or target), updating predictor, BTB and
    /// RAS with the oracle outcome.
    fn predict(&mut self, d: &DynInst) -> bool {
        self.stats.branches += 1;
        let mispredicted = match d.op {
            Opcode::Jal => {
                // Direct jump: target known at decode. Track calls for RAS.
                if d.dst.is_some() {
                    self.ras.push(d.pc + 4);
                }
                false
            }
            Opcode::Jalr => {
                // Return/indirect: RAS first, BTB fallback.
                let predicted = self.ras.pop().or_else(|| self.btb.lookup(d.pc));
                self.btb.insert(d.pc, d.next_pc);
                predicted != Some(d.next_pc)
            }
            _ => {
                let dir = self.predictor.predict(d.pc);
                self.predictor.update(d.pc, d.taken);
                let target = self.btb.lookup(d.pc);
                if d.taken {
                    self.btb.insert(d.pc, d.next_pc);
                }
                if dir != d.taken {
                    true
                } else if d.taken {
                    // Correct direction; target must come from the BTB.
                    target != Some(d.next_pc)
                } else {
                    false
                }
            }
        };
        if mispredicted {
            self.stats.mispredicts += 1;
        }
        mispredicted
    }

    /// Fetches up to `width` instructions at cycle `now`. The bundle
    /// breaks after a taken (or mispredicted) branch, and fetch is idle
    /// while a post-squash redirect is in flight.
    pub fn fetch(&mut self, now: u64, width: usize) -> Vec<Fetched> {
        let mut out = Vec::with_capacity(width);
        self.fetch_into(now, width, &mut out);
        out
    }

    /// Allocation-free counterpart of [`FetchUnit::fetch`]: the bundle is
    /// appended to the caller-owned `out` (cleared first).
    pub fn fetch_into(&mut self, now: u64, width: usize, out: &mut Vec<Fetched>) {
        out.clear();
        if now < self.stall_until {
            return;
        }
        for _ in 0..width {
            if self.wrong_path_owner.is_some() {
                let inst = self.synth_wrong_path();
                out.push(Fetched { inst, wrong_path: true, mispredicted: false });
                continue;
            }
            let Some(d) = self.next_correct_path() else { break };
            let is_ctrl = d.class == InstClass::Branch;
            let mispredicted = if is_ctrl { self.predict(&d) } else { false };
            let taken = d.taken;
            if mispredicted {
                self.wrong_path_owner = Some(d.seq);
            }
            out.push(Fetched { inst: d, wrong_path: false, mispredicted });
            if is_ctrl && (taken || mispredicted) {
                break; // one taken branch per fetch bundle
            }
        }
    }

    /// The mispredicted branch `seq` resolved: leave wrong-path mode and
    /// stall fetch for the redirect penalty.
    pub fn redirect(&mut self, seq: u64, now: u64, penalty: u64) {
        if self.wrong_path_owner == Some(seq) {
            self.wrong_path_owner = None;
        }
        self.stall_until = self.stall_until.max(now + penalty);
    }

    /// A squash removed in-flight correct-path instructions (exception or
    /// replay trap): re-inject them, oldest first in `insts`. Any active
    /// wrong-path episode owned by a squashed branch must be cleared by
    /// the caller via [`FetchUnit::clear_wrong_path_owned_by`].
    pub fn reinject(&mut self, mut insts: Vec<DynInst>) {
        self.reinject_drain(&mut insts);
    }

    /// Like [`FetchUnit::reinject`] but drains the caller-owned vector in
    /// place (its capacity survives for reuse as a scratch buffer).
    pub fn reinject_drain(&mut self, insts: &mut Vec<DynInst>) {
        self.stats.reinjected += insts.len() as u64;
        insts.sort_unstable_by_key(|d| std::cmp::Reverse(d.seq));
        // Stack: youngest pushed first so the oldest pops first.
        self.pushback.append(insts);
    }

    /// Clears wrong-path mode if its owning branch was squashed (it will
    /// be re-fetched and re-predicted).
    pub fn clear_wrong_path_owned_by(&mut self, squashed_seq_threshold: u64) {
        if let Some(owner) = self.wrong_path_owner {
            if owner > squashed_seq_threshold {
                self.wrong_path_owner = None;
            }
        }
    }
}

impl std::fmt::Debug for FetchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchUnit")
            .field("wrong_path_owner", &self.wrong_path_owner)
            .field("stall_until", &self.stall_until)
            .field("pushback", &self.pushback.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orinoco_isa::ProgramBuilder;

    fn counting_loop(n: i64) -> Emulator {
        let mut b = ProgramBuilder::new();
        let x1 = ArchReg::int(1);
        b.li(x1, n);
        let top = b.label();
        b.bind(top);
        b.addi(x1, x1, -1);
        b.bne(x1, ArchReg::ZERO, top);
        b.halt();
        Emulator::new(b.build(), 1 << 12)
    }

    fn cfg() -> CoreConfig {
        CoreConfig::base()
    }

    #[test]
    fn fetches_bundle_and_breaks_on_taken_branch() {
        let mut fu = FetchUnit::new(counting_loop(10), &cfg());
        let bundle = fu.fetch(0, 4);
        // li, addi, bne(taken) -> bundle breaks at the branch (3 insts)
        // unless the first bne was mispredicted, in which case it still
        // ends with the branch.
        assert!(bundle.len() <= 3);
        let last = bundle.last().unwrap();
        assert!(last.inst.is_branch() || bundle.len() == 4);
    }

    #[test]
    fn wrong_path_mode_injects_synthetics() {
        let mut fu = FetchUnit::new(counting_loop(3), &cfg());
        // Drive fetch until a misprediction occurs (a fresh TAGE will
        // mispredict the loop exit at least).
        let mut saw_wrong_path = false;
        let mut mis_seq = None;
        for now in 0..200 {
            let bundle = fu.fetch(now, 4);
            for f in &bundle {
                if f.mispredicted {
                    mis_seq = Some(f.inst.seq);
                }
                if f.wrong_path {
                    saw_wrong_path = true;
                    assert!(f.inst.seq >= WRONG_PATH_SEQ_BASE);
                }
            }
            if saw_wrong_path {
                break;
            }
        }
        assert!(saw_wrong_path, "no wrong path despite cold predictor");
        let seq = mis_seq.unwrap();
        // Redirect ends wrong-path mode and stalls fetch.
        fu.redirect(seq, 300, 5);
        assert!(!fu.on_wrong_path());
        assert!(fu.fetch(301, 4).is_empty()); // still stalled
        let resumed = fu.fetch(305, 4);
        assert!(resumed.iter().all(|f| !f.wrong_path));
    }

    #[test]
    fn full_program_streams_in_order_when_not_mispredicting() {
        // Straight-line program: no branches, no wrong path.
        let mut b = ProgramBuilder::new();
        for i in 0..10 {
            b.addi(ArchReg::int(1), ArchReg::int(1), i);
        }
        b.halt();
        let mut fu = FetchUnit::new(Emulator::new(b.build(), 4096), &cfg());
        let mut seqs = Vec::new();
        let mut now = 0;
        while !fu.drained() {
            for f in fu.fetch(now, 4) {
                seqs.push(f.inst.seq);
            }
            now += 1;
            if now > 100 {
                break;
            }
        }
        assert_eq!(seqs, (0..11).collect::<Vec<u64>>());
        assert_eq!(fu.stats().mispredicts, 0);
    }

    #[test]
    fn reinjection_replays_oldest_first() {
        let mut fu = FetchUnit::new(counting_loop(50), &cfg());
        let bundle = fu.fetch(0, 4);
        let first: Vec<DynInst> = bundle.iter().map(|f| f.inst.clone()).collect();
        assert!(!first.is_empty());
        // If the cold predictor mispredicted the loop branch, resolve it
        // first (reinjection in the pipeline always follows a squash).
        if let Some(m) = bundle.iter().find(|f| f.mispredicted) {
            fu.redirect(m.inst.seq, 0, 0);
        }
        fu.reinject(first.clone());
        let replay = fu.fetch(1, first.len());
        let seqs: Vec<u64> = replay.iter().map(|f| f.inst.seq).collect();
        let want: Vec<u64> = first.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, want);
        assert_eq!(fu.stats().reinjected, first.len() as u64);
    }

    #[test]
    fn predictor_learns_the_loop() {
        let mut fu = FetchUnit::new(counting_loop(2000), &cfg());
        let mut now = 0;
        while !fu.drained() && now < 50_000 {
            let bundle = fu.fetch(now, 4);
            for f in &bundle {
                if f.mispredicted {
                    fu.redirect(f.inst.seq, now, 1);
                    break;
                }
            }
            now += 1;
        }
        let s = fu.stats();
        assert!(s.branches > 1000);
        // A count-down loop is almost perfectly predictable.
        let rate = s.mispredicts as f64 / s.branches as f64;
        assert!(rate < 0.05, "mispredict rate {rate}");
    }

    #[test]
    fn wrong_path_cleared_when_owner_squashed() {
        let mut fu = FetchUnit::new(counting_loop(3), &cfg());
        let mut owner = None;
        for now in 0..100 {
            for f in fu.fetch(now, 4) {
                if f.mispredicted {
                    owner = Some(f.inst.seq);
                }
            }
            if owner.is_some() {
                break;
            }
        }
        let owner = owner.expect("cold predictor must mispredict");
        assert!(fu.on_wrong_path());
        // An older exception squashes everything younger than seq 0,
        // including the owning branch.
        fu.clear_wrong_path_owned_by(0);
        assert!(!fu.on_wrong_path());
        let _ = owner;
    }
}
