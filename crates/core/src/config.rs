//! Core configuration: the Base/Pro/Ultra microarchitectures of Table 1,
//! the issue-queue scheduler variants of §6.2 (Figure 14) and the commit
//! policy variants of §6.2 (Figure 15).

use orinoco_isa::InstClass;
use orinoco_mem::MemConfig;

/// Issue-queue scheduler designs evaluated in Figure 14 (plus the
/// historical queue organisations of §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Collapsible queue (Alpha 21264 style): capacity-efficient and
    /// ideally ordered, but physically unimplementable at modern sizes.
    /// Functionally identical schedule to [`SchedulerKind::Orinoco`] — the
    /// difference is circuit cost, modelled in `orinoco-circuit`.
    Shift,
    /// Circular queue: ordered but capacity-inefficient (gaps persist
    /// until the head passes them).
    Circ,
    /// Random queue: capacity-efficient, order-oblivious select.
    Rand,
    /// Random queue + classic age matrix: only the single oldest ready
    /// instruction is prioritised, the rest of the width is filled in
    /// arbitrary order (AMD Bulldozer / IBM POWER8 style).
    Age,
    /// One age matrix per FU type: the single oldest ready instruction *of
    /// each type* is prioritised (the MULT configuration).
    Mult,
    /// The paper's design: age matrix with bit count encoding, granting up
    /// to the per-type issue width oldest ready instructions.
    Orinoco,
    /// Criticality-aware scheduling on top of the classic age matrix
    /// (CRI w/ AGE in Figure 14).
    CriAge,
    /// Criticality-aware scheduling with ideal intra- and inter-class
    /// ordering (CRI w/ Orinoco in Figure 14).
    CriOrinoco,
}

impl SchedulerKind {
    /// All kinds, in Figure 14 presentation order.
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::Shift,
        SchedulerKind::Circ,
        SchedulerKind::Rand,
        SchedulerKind::Age,
        SchedulerKind::Mult,
        SchedulerKind::Orinoco,
        SchedulerKind::CriAge,
        SchedulerKind::CriOrinoco,
    ];

    /// `true` if the scheduler uses criticality tagging.
    #[must_use]
    pub fn uses_criticality(self) -> bool {
        matches!(self, SchedulerKind::CriAge | SchedulerKind::CriOrinoco)
    }

    /// Label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Shift => "SHIFT",
            SchedulerKind::Circ => "CIRC",
            SchedulerKind::Rand => "RAND",
            SchedulerKind::Age => "AGE",
            SchedulerKind::Mult => "MULT",
            SchedulerKind::Orinoco => "Orinoco",
            SchedulerKind::CriAge => "CRI w/ AGE",
            SchedulerKind::CriOrinoco => "CRI w/ Orinoco",
        }
    }
}

/// Commit policies evaluated in Figure 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitKind {
    /// In-order commit (the baseline).
    InOrder,
    /// The paper's non-speculative out-of-order commit: completed
    /// instructions leave the non-collapsible ROB as soon as no older
    /// instruction may misspeculate or fault.
    Orinoco,
    /// Validation Buffer: instructions leave the ROB *in order* as soon as
    /// they are guaranteed non-speculative, without waiting for
    /// completion (post-commit execution).
    Vb,
    /// NOREBA-style upper bound: in-order commit where branches are
    /// oracle (never block commit); non-branch instructions must complete.
    Br,
    /// Cherry-style upper bound: oracle speculative commit without
    /// rollback cost — completed instructions leave in order regardless of
    /// unresolved speculation.
    Spec,
    /// DeSC-style early commit of loads: in-order commit, but safe loads
    /// may leave before their data arrives (weak consistency only).
    Ecl,
}

impl CommitKind {
    /// All kinds, in Figure 15 presentation order.
    pub const ALL: [CommitKind; 6] = [
        CommitKind::InOrder,
        CommitKind::Orinoco,
        CommitKind::Vb,
        CommitKind::Br,
        CommitKind::Spec,
        CommitKind::Ecl,
    ];

    /// Label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CommitKind::InOrder => "IOC",
            CommitKind::Orinoco => "Orinoco",
            CommitKind::Vb => "VB",
            CommitKind::Br => "BR",
            CommitKind::Spec => "SPEC",
            CommitKind::Ecl => "ECL",
        }
    }
}

/// Functional-unit pools (counts per class group).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuPools {
    /// Integer ALUs (also execute branches and barriers).
    pub int_alu: usize,
    /// Integer multiply/divide units.
    pub muldiv: usize,
    /// Floating-point units (add/mul/div).
    pub fp: usize,
    /// Memory ports (AGUs).
    pub mem: usize,
}

impl FuPools {
    /// Total functional units (the "FU" row of Table 1).
    #[must_use]
    pub fn total(&self) -> usize {
        self.int_alu + self.muldiv + self.fp + self.mem
    }
}

/// Pool index for a given instruction class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pool {
    /// Integer ALU / branch / barrier pool.
    Int,
    /// Integer multiply/divide pool.
    MulDiv,
    /// Floating-point pool.
    Fp,
    /// Memory (AGU) pool.
    Mem,
}

impl Pool {
    /// All pools.
    pub const ALL: [Pool; 4] = [Pool::Int, Pool::MulDiv, Pool::Fp, Pool::Mem];

    /// The pool serving `class`.
    #[must_use]
    pub fn of(class: InstClass) -> Pool {
        match class {
            InstClass::IntAlu | InstClass::Branch | InstClass::Barrier => Pool::Int,
            InstClass::IntMul | InstClass::IntDiv => Pool::MulDiv,
            InstClass::FpAlu | InstClass::FpMul | InstClass::FpDiv => Pool::Fp,
            InstClass::Load | InstClass::Store => Pool::Mem,
        }
    }

    /// Index into pool-count arrays.
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            Pool::Int => 0,
            Pool::MulDiv => 1,
            Pool::Fp => 2,
            Pool::Mem => 3,
        }
    }
}

/// Execution latency in cycles for `class` (memory classes give the AGU
/// latency; the cache access is modelled separately).
#[must_use]
pub fn exec_latency(class: InstClass) -> u64 {
    match class {
        InstClass::IntAlu | InstClass::Branch | InstClass::Barrier => 1,
        InstClass::IntMul => 3,
        InstClass::IntDiv => 20,
        InstClass::FpAlu => 3,
        InstClass::FpMul => 4,
        InstClass::FpDiv => 24,
        InstClass::Load | InstClass::Store => 1,
    }
}

/// `true` if the class occupies its functional unit until completion
/// (unpipelined).
#[must_use]
pub fn is_unpipelined(class: InstClass) -> bool {
    matches!(class, InstClass::IntDiv | InstClass::FpDiv)
}

/// Full core configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Human-readable name ("Base", "Pro", "Ultra", ...).
    pub name: &'static str,
    /// Front-end fetch/rename/dispatch width and back-end issue width
    /// (the paper uses IW = CW).
    pub width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Instruction-queue entries (unified IQ).
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Physical register-file size (shared int/fp for simplicity; the
    /// paper's RF row).
    pub phys_regs: usize,
    /// Functional-unit pools.
    pub fu: FuPools,
    /// Issue-queue scheduler.
    pub scheduler: SchedulerKind,
    /// Commit policy.
    pub commit: CommitKind,
    /// Early commit of loads (ECL) applied on top of `Vb`/`Br` (the
    /// "w/o ECL" ablations of Figure 15 set this to `false`).
    pub ecl: bool,
    /// For `Spec`: reclaim ROB entries out of order too ("SPEC" keeps
    /// true; "SPEC w/o ROB" = Cherry proper sets this to `false`).
    pub spec_reclaims_rob: bool,
    /// Capacity of the post-commit execution structure for `Vb`/`Br`/
    /// `Ecl` (the validation buffer itself): instructions that left the
    /// ROB before completing occupy one entry each until they finish.
    pub vb_entries: usize,
    /// Commit depth for the Orinoco policy: how far (in program order,
    /// from the oldest live instruction) the commit logic scans for
    /// out-of-order grants. `None` = unlimited (the paper's design; §6.2
    /// notes that a limited depth "hinders reaping the maximum
    /// performance benefits of OoO commit").
    pub commit_depth: Option<usize>,
    /// Model the §4.3 multibank write-port constraint on the ROB age
    /// matrix: at most one dispatch per bank per cycle, with `width`
    /// horizontal banks over the ROB's physical slots
    /// ([`crate::Rob::alloc_banked`]).
    pub banked_dispatch: bool,
    /// Use separate per-FU-type issue queues instead of the unified IQ
    /// (§5: "separate IQs ... divide and conquer the monolithic
    /// complexity by decentralizing the wakeup matrix and the age matrix
    /// at the cost of capacity efficiency"). The unified capacity is
    /// split 40/10/20/30 across Int/MulDiv/Fp/Mem.
    pub split_iq: bool,
    /// Memory system.
    pub mem: MemConfig,
    /// Page faults injected per million memory operations (exercises the
    /// precise-exception path; 0 disables).
    pub pagefault_per_million: u32,
    /// RNG seed for deterministic wrong-path synthesis and fault
    /// injection.
    pub seed: u64,
    /// Idle-cycle fast-forward: when a cycle ends with the machine
    /// provably frozen (nothing issued, dispatched, fetched, completed or
    /// committed), jump the clock to the next scheduled event in one step.
    /// Observationally equivalent to cycle-by-cycle simulation — identical
    /// `SimStats`, stall taxonomy and lifecycle traces — just faster.
    pub fast_forward: bool,
}

impl CoreConfig {
    /// The paper's **Base** configuration (Skylake-like, Table 1):
    /// 4-wide, ROB 224, IQ 97, LQ/SQ 72/56, RF 180, 8 FUs.
    #[must_use]
    pub fn base() -> Self {
        Self {
            name: "Base",
            width: 4,
            commit_width: 4,
            rob_entries: 224,
            iq_entries: 97,
            lq_entries: 72,
            sq_entries: 56,
            phys_regs: 180,
            fu: FuPools { int_alu: 3, muldiv: 1, fp: 2, mem: 2 },
            scheduler: SchedulerKind::Age,
            commit: CommitKind::InOrder,
            ecl: true,
            spec_reclaims_rob: true,
            vb_entries: 64,
            commit_depth: None,
            banked_dispatch: false,
            split_iq: false,
            mem: MemConfig::default(),
            pagefault_per_million: 0,
            seed: 0xC0FFEE,
            fast_forward: true,
        }
    }

    /// The paper's **Pro** configuration: 6-wide, ROB 256, IQ 160,
    /// LQ/SQ 128/72, RF 280, 8 FUs.
    #[must_use]
    pub fn pro() -> Self {
        // miss-handling scales with the deeper window
        let mem = MemConfig { mshrs: 48, ..MemConfig::default() };
        Self {
            name: "Pro",
            width: 6,
            commit_width: 6,
            rob_entries: 256,
            iq_entries: 160,
            lq_entries: 128,
            sq_entries: 72,
            phys_regs: 280,
            fu: FuPools { int_alu: 3, muldiv: 1, fp: 2, mem: 2 },
            mem,
            ..Self::base()
        }
    }

    /// The paper's **Ultra** configuration: 8-wide, ROB 512, IQ 224,
    /// LQ/SQ 128/72, RF 380, 11 FUs.
    #[must_use]
    pub fn ultra() -> Self {
        // miss-handling scales with the deeper window
        let mem = MemConfig { mshrs: 64, ..MemConfig::default() };
        Self {
            name: "Ultra",
            width: 8,
            commit_width: 8,
            rob_entries: 512,
            iq_entries: 224,
            lq_entries: 128,
            sq_entries: 72,
            phys_regs: 380,
            fu: FuPools { int_alu: 4, muldiv: 1, fp: 3, mem: 3 },
            mem,
            ..Self::base()
        }
    }

    /// Sets the scheduler (builder style).
    #[must_use]
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Sets the commit policy (builder style).
    #[must_use]
    pub fn with_commit(mut self, c: CommitKind) -> Self {
        self.commit = c;
        self
    }

    /// Disables early commit of loads (the "w/o ECL" ablations).
    #[must_use]
    pub fn without_ecl(mut self) -> Self {
        self.ecl = false;
        self
    }

    /// Disables out-of-order ROB reclamation for `Spec`
    /// (the "SPEC w/o ROB" ablation).
    #[must_use]
    pub fn without_rob_reclaim(mut self) -> Self {
        self.spec_reclaims_rob = false;
        self
    }

    /// Limits the Orinoco commit scan depth (ablation; the paper's design
    /// scans the whole non-collapsible ROB).
    #[must_use]
    pub fn with_commit_depth(mut self, depth: usize) -> Self {
        self.commit_depth = Some(depth);
        self
    }

    /// Enables the multibank dispatch-steering constraint (§4.3).
    #[must_use]
    pub fn with_banked_dispatch(mut self) -> Self {
        self.banked_dispatch = true;
        self
    }

    /// Disables the idle-cycle fast-forward (cycle-by-cycle simulation;
    /// used by the equivalence harness and perf comparisons).
    #[must_use]
    pub fn without_fast_forward(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    /// Switches to separate per-FU-type issue queues (§5).
    #[must_use]
    pub fn with_split_iq(mut self) -> Self {
        self.split_iq = true;
        self
    }

    /// `true` when `other` differs from `self` at most in its RNG `seed`
    /// — the reuse predicate of [`crate::Fleet`]: a parked core built
    /// under a same-shape configuration can be re-seeded and reset for a
    /// new program instead of reallocating every structure.
    #[must_use]
    pub fn same_shape(&self, other: &Self) -> bool {
        let mut probe = self.clone();
        probe.seed = other.seed;
        probe == *other
    }

    /// Per-pool IQ capacities when `split_iq` is set: 40/10/20/30 percent
    /// of the unified capacity for Int/MulDiv/Fp/Mem (each at least 4).
    #[must_use]
    pub fn split_iq_capacities(&self) -> [usize; 4] {
        let n = self.iq_entries;
        let parts = [n * 40 / 100, n * 10 / 100, n * 20 / 100, n * 30 / 100];
        parts.map(|p| p.max(4))
    }

    /// The largest ROB or IQ a configuration may ask for. Some queue
    /// state grows with the product of sizes (each physical register's
    /// wake-up list reserves two rows per IQ entry, and the matrix oracles
    /// rebuild n×n bits), so a larger size is refused rather than left to
    /// exhaust memory. Table 1's largest ROB has 512 entries.
    pub const MAX_QUEUE_ENTRIES: usize = 4096;

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Describes the first problem of a nonsensical configuration: zero
    /// widths, IQ larger than ROB, a ROB or IQ above
    /// [`CoreConfig::MAX_QUEUE_ENTRIES`], fewer physical registers than
    /// architectural, ...
    pub fn validate(&self) -> Result<(), String> {
        let max = Self::MAX_QUEUE_ENTRIES;
        let rules = [
            (self.width > 0 && self.commit_width > 0, "zero width"),
            (self.rob_entries >= self.width, "ROB smaller than width"),
            (self.iq_entries <= self.rob_entries, "IQ larger than ROB"),
            (self.rob_entries <= max, "ROB above the queue-size ceiling"),
            (self.iq_entries <= max, "IQ above the queue-size ceiling"),
            (
                self.phys_regs > orinoco_isa::NUM_INT_REGS,
                "need more physical than architectural registers per file",
            ),
            (self.fu.total() > 0, "no functional units"),
            (self.lq_entries > 0 && self.sq_entries > 0, "empty LSQ"),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            None => Ok(()),
            Some((_, what)) => Err(format!(
                "{what} (ROB {}, IQ {}, ceiling {max} entries)",
                self.rob_entries, self.iq_entries
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let base = CoreConfig::base();
        assert_eq!((base.width, base.rob_entries, base.iq_entries), (4, 224, 97));
        assert_eq!((base.lq_entries, base.sq_entries, base.phys_regs), (72, 56, 180));
        assert_eq!(base.fu.total(), 8);
        let pro = CoreConfig::pro();
        assert_eq!((pro.width, pro.rob_entries, pro.iq_entries), (6, 256, 160));
        assert_eq!(pro.fu.total(), 8);
        let ultra = CoreConfig::ultra();
        assert_eq!((ultra.width, ultra.rob_entries, ultra.iq_entries), (8, 512, 224));
        assert_eq!(ultra.fu.total(), 11);
        for cfg in [base, pro, ultra] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn pool_mapping_covers_all_classes() {
        for class in InstClass::ALL {
            let _ = Pool::of(class);
            assert!(exec_latency(class) >= 1);
        }
        assert_eq!(Pool::of(InstClass::Branch), Pool::Int);
        assert_eq!(Pool::of(InstClass::IntDiv), Pool::MulDiv);
        assert_eq!(Pool::of(InstClass::Load), Pool::Mem);
        assert!(is_unpipelined(InstClass::FpDiv));
        assert!(!is_unpipelined(InstClass::IntMul));
    }

    #[test]
    fn builder_helpers() {
        let c = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Vb)
            .without_ecl();
        assert_eq!(c.scheduler, SchedulerKind::Orinoco);
        assert_eq!(c.commit, CommitKind::Vb);
        assert!(!c.ecl);
        let s = CoreConfig::base().with_commit(CommitKind::Spec).without_rob_reclaim();
        assert!(!s.spec_reclaims_rob);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in SchedulerKind::ALL {
            assert!(seen.insert(k.label()));
        }
        let mut seen = std::collections::HashSet::new();
        for k in CommitKind::ALL {
            assert!(seen.insert(k.label()));
        }
    }

    #[test]
    fn criticality_flags() {
        assert!(SchedulerKind::CriAge.uses_criticality());
        assert!(SchedulerKind::CriOrinoco.uses_criticality());
        assert!(!SchedulerKind::Orinoco.uses_criticality());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = CoreConfig::base();
        c.iq_entries = 1000;
        let err = c.validate().expect_err("IQ larger than ROB");
        assert!(err.starts_with("IQ larger than ROB"), "{err}");
    }

    #[test]
    fn queue_sizes_above_the_ceiling_are_rejected() {
        let max = CoreConfig::MAX_QUEUE_ENTRIES;
        let mut c = CoreConfig::base();
        c.rob_entries = max;
        c.iq_entries = max;
        assert_eq!(c.validate(), Ok(()));
        c.rob_entries = max + 1;
        assert!(c.validate().expect_err("ROB").starts_with("ROB above the queue-size ceiling"));
        c.rob_entries = 65_536;
        c.iq_entries = 65_536;
        assert!(c.validate().expect_err("both").starts_with("ROB above the queue-size ceiling"));
        c.rob_entries = max;
        c.iq_entries = max + 1;
        assert!(c.validate().expect_err("IQ").starts_with("IQ larger than ROB"));
    }
}
