//! The unified instruction queue with every scheduler variant of §6.2:
//! SHIFT, CIRC, RAND, AGE, MULT, Orinoco and the criticality-aware CRI
//! variants.
//!
//! Every age-ordered scheduler ranks the ready entries by one key,
//! `(!critical, seq)`, read from a dense per-slot array. That is exactly
//! the order of the paper's [`AgeMatrix`]: plain dispatch makes every
//! live entry older than the newcomer, so without criticality the matrix
//! order is dispatch order, and live dispatch order is seq order (fetch
//! numbers in order, squashes remove suffixes and refetch in seq order).
//! A critical dispatch (`AgeMatrix::dispatch_critical`) makes every
//! critical entry older than every non-critical one, past or future,
//! while keeping dispatch order within each class. SHIFT, Orinoco and
//! CRI-Orinoco grant in key order; AGE puts the single oldest first and
//! MULT the oldest of each pool, then pick the rest randomly; CRI-AGE
//! keeps only the oldest of each class in place. The matrix is the
//! oracle, not a second scheduler: [`IssueQueue::ranking_matrix`] rebuilds
//! it from the live entries and must rank exactly as the key does. CIRC
//! derives order from (virtual) queue position; RAND is order-oblivious.
//! All variants allocate entries from a free list except CIRC, whose gaps
//! stay unusable until the head passes them — the capacity inefficiency of
//! Figure 1(b).

use crate::config::{Pool, SchedulerKind};
use crate::rename::PhysReg;
use orinoco_matrix::{AgeMatrix, BitVec64};

/// The rank-key bit that orders non-critical entries after critical ones
/// (seqs stay below `1 << 63`).
const NON_CRITICAL: u64 = 1 << 63;

/// An instruction resident in the IQ.
#[derive(Clone, Debug)]
pub struct IqEntry {
    /// ROB index of the instruction.
    pub rob_idx: usize,
    /// Functional-unit pool it needs.
    pub pool: Pool,
    /// Criticality tag (CRI schedulers).
    pub critical: bool,
    /// Dynamic sequence number (with `critical`, the rank key of the
    /// age-ordered schedulers).
    pub seq: u64,
    /// Source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Per-source readiness.
    pub src_ready: [bool; 2],
    /// Which sources gate issue. Stores issue their address generation as
    /// soon as the address register (source 0) is ready — the data
    /// (source 1) merges at completion — so dispatch sets
    /// `[true, false]` for them (§3.2: translation happens early in the
    /// pipeline, clearing the `SPEC` bit before the data arrives).
    pub wait_on: [bool; 2],
}

impl IqEntry {
    /// `true` once every issue-gating source is ready.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        (0..2).all(|i| !self.wait_on[i] || self.srcs[i].is_none() || self.src_ready[i])
    }
}

/// The unified issue queue.
#[derive(Clone, Debug)]
pub struct IssueQueue {
    kind: SchedulerKind,
    cap: usize,
    slots: Vec<Option<IqEntry>>,
    free: Vec<usize>,
    count: usize,
    // CIRC state: ring [head, tail) including gaps.
    head: usize,
    tail: usize,
    span: usize,
    /// Deterministic xorshift state for the random picks of RAND/AGE/MULT
    /// ("the remaining issue width is selected randomly in terms of age",
    /// §2.1).
    rng: u64,
    /// Per-physical-register wakeup lists: `(slot, source index, seq)`
    /// rows appended when an entry with a not-yet-ready source is
    /// allocated and drained by [`IssueQueue::writeback`] — the exact-
    /// cost replacement for scanning every slot per write-back (the CAM
    /// broadcast). Rows go stale when their slot is freed or recycled
    /// (issue, squash); the seq and source checks at drain time filter
    /// them, and re-registration on replay is idempotent because a wake
    /// only ever sets `src_ready`.
    waiters: Vec<Vec<(usize, u8, u64)>>,
    /// Compact per-slot rank key of the occupant (`u64::MAX` when
    /// empty): its seq, with [`NON_CRITICAL`] set unless it is critical
    /// under a CRI scheduler. The selects read this dense array instead
    /// of dereferencing the wide `IqEntry` slots.
    key_of: Vec<u64>,
    /// One bit per slot: the occupant's issue-gating sources are all
    /// ready (mirrors [`IqEntry::is_ready`], updated at allocation and
    /// wake-up).
    ready_bits: BitVec64,
    /// Population count of `ready_bits`, maintained incrementally at the
    /// three mutation sites (allocate, remove, wake-up) so the per-cycle
    /// request-vector probe is O(1) instead of a popcount scan.
    nready: usize,
    // Reusable scratch for the per-cycle select path (allocation-free in
    // steady state; see DESIGN.md §"Performance engineering").
    scratch_order: Vec<usize>,
    scratch_cands: Vec<(u64, usize)>,
}

impl IssueQueue {
    /// Creates an issue queue of `cap` entries with the given scheduler.
    #[must_use]
    pub fn new(kind: SchedulerKind, cap: usize) -> Self {
        Self {
            kind,
            cap,
            slots: vec![None; cap],
            free: (0..cap).rev().collect(),
            count: 0,
            head: 0,
            tail: 0,
            span: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ cap as u64,
            waiters: Vec::new(),
            key_of: vec![u64::MAX; cap],
            ready_bits: BitVec64::new(cap),
            nready: 0,
            scratch_order: Vec::with_capacity(cap),
            scratch_cands: Vec::with_capacity(cap),
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher-Yates shuffle with the IQ's deterministic RNG.
    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_rand() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// The scheduler variant.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` if another instruction can be allocated *this cycle*. For
    /// CIRC this accounts for unreclaimed gaps (the capacity
    /// inefficiency); for everything else it is a free-list check.
    #[must_use]
    pub fn has_space(&self) -> bool {
        if self.kind == SchedulerKind::Circ {
            self.span < self.cap
        } else {
            !self.free.is_empty()
        }
    }

    /// The rank key of an entry: `(!critical, seq)` in one word.
    fn rank_key(&self, entry: &IqEntry) -> u64 {
        debug_assert!(entry.seq < NON_CRITICAL, "seq {} collides with the class bit", entry.seq);
        if entry.critical && self.kind.uses_criticality() {
            entry.seq
        } else {
            entry.seq | NON_CRITICAL
        }
    }

    /// Allocates an entry; returns its slot, or `None` when full.
    pub fn allocate(&mut self, entry: IqEntry) -> Option<usize> {
        let slot = if self.kind == SchedulerKind::Circ {
            if self.span == self.cap {
                return None;
            }
            let s = self.tail;
            debug_assert!(self.slots[s].is_none(), "CIRC tail collision");
            self.tail = (self.tail + 1) % self.cap;
            self.span += 1;
            s
        } else {
            self.free.pop()?
        };
        let srcs = entry.srcs;
        let src_ready = entry.src_ready;
        let seq = entry.seq;
        self.key_of[slot] = self.rank_key(&entry);
        let ready = entry.is_ready();
        self.ready_bits.assign(slot, ready);
        self.nready += usize::from(ready);
        self.slots[slot] = Some(entry);
        self.count += 1;
        for i in 0..2 {
            if let Some(p) = srcs[i] {
                if !src_ready[i] {
                    self.register_waiter(p, slot, i as u8, seq);
                }
            }
        }
        Some(slot)
    }

    /// Pre-sizes the wakeup lists for a register file of `nregs`
    /// physical registers, so the steady-state allocate/writeback path
    /// never grows them (see `crates/core/tests/alloc_free.rs`).
    #[must_use]
    pub fn with_regs(mut self, nregs: usize) -> Self {
        self.waiters.resize_with(nregs, Vec::new);
        for list in &mut self.waiters {
            list.reserve_exact(self.cap * 2);
        }
        self
    }

    /// Appends a wakeup-list row for `p`. Lists never reallocate in
    /// steady state: a full list is first compacted in place (stale rows
    /// from freed/recycled slots dropped), and at most one live row can
    /// exist per `(slot, source)` pair, so the compacted list always has
    /// room at `2 × cap` capacity.
    fn register_waiter(&mut self, p: PhysReg, slot: usize, i: u8, seq: u64) {
        let r = p.0 as usize;
        if r >= self.waiters.len() {
            self.waiters.resize_with(r + 1, Vec::new);
        }
        let list = &mut self.waiters[r];
        if list.capacity() == 0 {
            list.reserve_exact(self.cap * 2);
        } else if list.len() == list.capacity() {
            let slots = &self.slots;
            list.retain(|&(s, j, q)| {
                slots[s]
                    .as_ref()
                    .is_some_and(|e| e.seq == q && e.srcs[j as usize] == Some(p))
            });
        }
        list.push((slot, i, seq));
    }

    /// Removes the entry in `slot` (issue or squash).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn remove(&mut self, slot: usize) -> IqEntry {
        let entry = self.slots[slot].take().unwrap_or_else(|| {
            panic!("remove of empty IQ slot {slot}")
        });
        self.count -= 1;
        self.key_of[slot] = u64::MAX;
        self.nready -= usize::from(self.ready_bits.get(slot));
        self.ready_bits.clear(slot);
        if self.kind == SchedulerKind::Circ {
            // Reclaim the head-side gap run.
            while self.span > 0 && self.slots[self.head].is_none() {
                self.head = (self.head + 1) % self.cap;
                self.span -= 1;
            }
        } else {
            self.free.push(slot);
        }
        entry
    }

    /// Entry accessor.
    #[must_use]
    pub fn entry(&self, slot: usize) -> Option<&IqEntry> {
        self.slots[slot].as_ref()
    }

    /// Write-back broadcast: wakes every entry sourcing `p`. Walks the
    /// register's waiter list rather than every slot; stale rows (the
    /// slot was freed or recycled since registration) fail the seq or
    /// source check and are dropped.
    pub fn writeback(&mut self, p: PhysReg) {
        self.writeback_imp(p, None);
    }

    /// [`IssueQueue::writeback`] that also reports wakeups: appends the
    /// seq of every entry whose **last** gating operand just became ready
    /// (the not-ready → ready transition the trace layer records as a
    /// wakeup event). `woken` is appended to, never cleared.
    pub fn writeback_collect(&mut self, p: PhysReg, woken: &mut Vec<u64>) {
        self.writeback_imp(p, Some(woken));
    }

    fn writeback_imp(&mut self, p: PhysReg, mut woken: Option<&mut Vec<u64>>) {
        let Some(list) = self.waiters.get_mut(p.0 as usize) else {
            return;
        };
        let mut list = std::mem::take(list);
        for &(slot, i, seq) in &list {
            if let Some(e) = self.slots[slot].as_mut() {
                if e.seq == seq && e.srcs[i as usize] == Some(p) {
                    e.src_ready[i as usize] = true;
                    if e.is_ready() && !self.ready_bits.get(slot) {
                        self.ready_bits.set(slot);
                        self.nready += 1;
                        if let Some(w) = woken.as_deref_mut() {
                            w.push(seq);
                        }
                    }
                }
            }
        }
        list.clear();
        self.waiters[p.0 as usize] = list;
    }

    /// Number of entries with all issue-gating operands ready. O(1): the
    /// count is maintained incrementally by allocate/remove/wake-up rather
    /// than recomputed from the request vector every cycle.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        debug_assert_eq!(self.nready, self.ready_bits.count_ones() as usize);
        self.nready
    }

    /// Returns the queue to its post-construction state in place, keeping
    /// every allocation — including the pre-sized wakeup lists of
    /// [`IssueQueue::with_regs`] (core reset path). Free-list order and
    /// the RNG are reinitialised exactly as in [`IssueQueue::new`] so a
    /// reset queue schedules byte-identically to a fresh one.
    pub fn reset(&mut self) {
        self.slots.fill(None);
        self.key_of.fill(u64::MAX);
        self.free.clear();
        self.free.extend((0..self.cap).rev());
        self.count = 0;
        self.head = 0;
        self.tail = 0;
        self.span = 0;
        self.rng = 0x9E37_79B9_7F4A_7C15 ^ self.cap as u64;
        for list in &mut self.waiters {
            list.clear();
        }
        self.ready_bits.clear_all();
        self.nready = 0;
    }

    fn circ_position(&self, slot: usize) -> usize {
        (slot + self.cap - self.head) % self.cap
    }

    /// The ready entries as `(key, slot)` pairs in rank-key order, written
    /// into `out` (cleared first): the bit-count ranking of the ready set.
    /// The `nready` ready slots (typically a handful) come off the bit
    /// vector and are sorted, with no walk over the resident population.
    fn ready_by_key_into(&self, out: &mut Vec<(u64, usize)>) {
        out.clear();
        out.extend(self.ready_bits.iter_ones().map(|s| (self.key_of[s], s)));
        debug_assert_eq!(out.len(), self.nready, "ready count out of sync");
        out.sort_unstable();
    }

    /// The heads a single-oldest select grants first: AGE's oldest ready
    /// entry (in the first element), or MULT's oldest ready entry of each
    /// pool, in [`Pool::ALL`] order.
    fn heads(&self) -> [Option<usize>; 4] {
        let mut best: [Option<(u64, usize)>; 4] = [None; 4];
        for s in self.ready_bits.iter_ones() {
            let p = match self.kind {
                SchedulerKind::Mult => self.slots[s].as_ref().expect("ready slot live").pool.idx(),
                _ => 0,
            };
            let k = self.key_of[s];
            if best[p].is_none_or(|(bk, _)| k < bk) {
                best[p] = Some((k, s));
            }
        }
        best.map(|b| b.map(|(_, s)| s))
    }

    /// Priority-ordered ready slots for this cycle, per the scheduler
    /// variant, written into `out` (head granted first); `cands` is
    /// scratch for the key sort. Allocation-free once the scratch vectors
    /// have grown to capacity.
    fn priority_order_into(&mut self, out: &mut Vec<usize>, cands: &mut Vec<(u64, usize)>) {
        out.clear();
        match self.kind {
            SchedulerKind::Circ => {
                out.extend(self.ready_bits.iter_ones());
                out.sort_unstable_by_key(|&s| self.circ_position(s));
            }
            SchedulerKind::Rand => {
                // Genuinely random in terms of age.
                out.extend(self.ready_bits.iter_ones());
                self.shuffle(out);
            }
            SchedulerKind::Age | SchedulerKind::Mult => {
                // The single oldest (AGE) or the single oldest of each FU
                // type (MULT) first, then the rest in random order.
                let heads = self.heads();
                out.extend(heads.iter().flatten());
                let nheads = out.len();
                out.extend(self.ready_bits.iter_ones().filter(|&s| !heads.contains(&Some(s))));
                self.shuffle(&mut out[nheads..]);
            }
            SchedulerKind::Shift
            | SchedulerKind::Orinoco
            | SchedulerKind::CriAge
            | SchedulerKind::CriOrinoco => {
                self.ready_by_key_into(cands);
                out.extend(cands.iter().map(|&(_, s)| s));
                if self.kind == SchedulerKind::CriAge {
                    // CRI w/ AGE: criticals before non-criticals, but within
                    // each class only the single oldest is age-accurate; the
                    // rest are selected randomly (classic AGE behaviour).
                    let ncrit = cands.partition_point(|&(k, _)| k < NON_CRITICAL);
                    if ncrit > 2 {
                        self.shuffle(&mut out[1..ncrit]);
                    }
                    if out.len() - ncrit > 2 {
                        self.shuffle(&mut out[ncrit + 1..]);
                    }
                }
            }
        }
    }

    /// Selects and removes up to `width` ready instructions, honouring
    /// per-pool FU budgets (decremented in place). Returns
    /// `(slot, entry)` pairs in grant order.
    pub fn select(
        &mut self,
        pool_budget: &mut [usize; 4],
        width: usize,
    ) -> Vec<(usize, IqEntry)> {
        let mut grants = Vec::new();
        self.select_into(pool_budget, width, &mut grants);
        grants
    }

    /// Like [`IssueQueue::select`], but appends the grants to a
    /// caller-provided buffer (cleared first) instead of allocating. This
    /// is the hot path used by the pipeline every cycle: grants walk the
    /// priority order, skipping entries whose pool has no budget left.
    pub fn select_into(
        &mut self,
        pool_budget: &mut [usize; 4],
        width: usize,
        grants: &mut Vec<(usize, IqEntry)>,
    ) {
        grants.clear();
        if self.nready == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut cands = std::mem::take(&mut self.scratch_cands);
        self.priority_order_into(&mut order, &mut cands);
        for &slot in &order {
            if grants.len() == width {
                break;
            }
            let pool = self.slots[slot].as_ref().expect("ready slot live").pool;
            if pool_budget[pool.idx()] == 0 {
                continue;
            }
            pool_budget[pool.idx()] -= 1;
            let entry = self.remove(slot);
            grants.push((slot, entry));
        }
        self.scratch_order = order;
        self.scratch_cands = cands;
    }

    /// The key ranking of the ready entries, without removing anything:
    /// what every age-ordered select reads before its random picks.
    #[doc(hidden)]
    #[must_use]
    pub fn ranking(&self) -> Ranking {
        let mut cands = Vec::new();
        self.ready_by_key_into(&mut cands);
        let heads = match self.kind {
            SchedulerKind::Age | SchedulerKind::Mult => {
                self.heads().into_iter().flatten().collect()
            }
            _ => Vec::new(),
        };
        Ranking { order: cands.into_iter().map(|(_, s)| s).collect(), heads }
    }

    /// The matrix oracle of [`IssueQueue::ranking`]: an [`AgeMatrix`] is
    /// rebuilt from the live entries, dispatched in seq order (criticals
    /// under a CRI scheduler through `dispatch_critical`), and asked for
    /// the bit-count order of the ready set (`select_oldest`), the
    /// single-oldest head of AGE and the per-pool heads of MULT
    /// (`select_single_oldest`). It reads the wide entries — seq,
    /// criticality, pool, operand readiness — never the key array or the
    /// ready bits. Every empty slot requests too: in hardware an empty
    /// entry's request bit is a don't-care that the arbiter masks with
    /// `VLD`, so the matrix's own `VLD` mask must drop it. Rebuilding
    /// costs O(n²) per call; the invariant check of [`crate::Core`] and
    /// the tests call it, the pipeline never does.
    #[doc(hidden)]
    #[must_use]
    pub fn ranking_matrix(&self) -> Ranking {
        let mut live: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, e)| e.as_ref().map(|e| (e.seq, s)))
            .collect();
        live.sort_unstable();
        let mut age = AgeMatrix::new(self.cap);
        let mut cri = BitVec64::new(self.cap);
        for &(_, s) in &live {
            if self.slots[s].as_ref().is_some_and(|e| e.critical) && self.kind.uses_criticality() {
                age.dispatch_critical(s, &cri);
                cri.set(s);
            } else {
                age.dispatch(s);
            }
        }
        let ready_of = |pool: Option<Pool>| {
            BitVec64::from_indices(
                self.cap,
                (0..self.cap).filter(|&s| {
                    self.slots[s]
                        .as_ref()
                        .is_none_or(|e| e.is_ready() && pool.is_none_or(|p| e.pool == p))
                }),
            )
        };
        let order = age.select_oldest(&ready_of(None), self.cap);
        let heads = match self.kind {
            SchedulerKind::Age => age.select_single_oldest(&ready_of(None)).into_iter().collect(),
            SchedulerKind::Mult => Pool::ALL
                .into_iter()
                .filter_map(|p| age.select_single_oldest(&ready_of(Some(p))))
                .collect(),
            _ => Vec::new(),
        };
        Ranking { order, heads }
    }
}

/// An issue queue's ranking of its ready entries (see
/// [`IssueQueue::ranking`] and its oracle [`IssueQueue::ranking_matrix`]).
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranking {
    /// Every ready slot, oldest first: the bit-count select's order.
    pub order: Vec<usize>,
    /// The slots a single-oldest select grants first: AGE's oldest ready
    /// entry, MULT's oldest of each pool in [`Pool::ALL`] order; empty for
    /// the other schedulers.
    pub heads: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use orinoco_util::Rng;

    fn entry(rob_idx: usize, seq: u64, pool: Pool) -> IqEntry {
        IqEntry {
            rob_idx,
            pool,
            critical: false,
            seq,
            srcs: [None, None],
            src_ready: [false, false],
            wait_on: [true, true],
        }
    }

    fn crit_entry(rob_idx: usize, seq: u64) -> IqEntry {
        IqEntry { critical: true, ..entry(rob_idx, seq, Pool::Int) }
    }

    fn budgets(n: usize) -> [usize; 4] {
        [n; 4]
    }

    fn fill(iq: &mut IssueQueue, seqs: &[u64]) -> Vec<usize> {
        seqs.iter()
            .map(|&q| iq.allocate(entry(q as usize, q, Pool::Int)).unwrap())
            .collect()
    }

    #[test]
    fn ready_tracking_with_sources() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(5)), None];
        iq.allocate(e).unwrap();
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(5));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn orinoco_selects_multiple_oldest() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut iq, &[0, 1, 2, 3, 4]);
        let grants = iq.select(&mut budgets(8), 3);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn squash_refetch_slot_reuse_does_not_duplicate_grants() {
        // A precise exception or replay squashes from the offender's own
        // seq and refetches it: the same dynamic instruction re-enters the
        // IQ with the same seq, and the LIFO free list hands back the same
        // slot — recreating a (slot, seq) pair identical to the one just
        // removed. It must be granted exactly once.
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let slots = fill(&mut iq, &[0, 1, 2]);
        // Squash seqs >= 1 (youngest first, as squash_ge walks).
        iq.remove(slots[2]);
        iq.remove(slots[1]);
        // Refetch: same seqs, and the free list returns the same slots.
        assert_eq!(iq.allocate(entry(1, 1, Pool::Int)), Some(slots[1]));
        assert_eq!(iq.allocate(entry(2, 2, Pool::Int)), Some(slots[2]));
        let grants = iq.select(&mut budgets(8), 8);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(iq.is_empty());
    }

    #[test]
    fn shift_matches_orinoco_schedule() {
        // The collapsible queue provides the same ideal order.
        let mut a = IssueQueue::new(SchedulerKind::Shift, 16);
        let mut b = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut a, &[0, 1, 2, 3, 4, 5]);
        fill(&mut b, &[0, 1, 2, 3, 4, 5]);
        let ga: Vec<u64> = a.select(&mut budgets(2), 4).iter().map(|(_, e)| e.seq).collect();
        let gb: Vec<u64> = b.select(&mut budgets(2), 4).iter().map(|(_, e)| e.seq).collect();
        assert_eq!(ga, gb);
    }

    /// Creates churn so slot order no longer matches age order: seqs
    /// 0..=3 land in slots 0..=3, seq 0 leaves, seq 4 recycles slot 0.
    /// Resulting age order: 1, 2, 3, 4; slot order: 4, 1, 2, 3.
    fn churned(kind: SchedulerKind) -> IssueQueue {
        let mut iq = IssueQueue::new(kind, 16);
        let slots = fill(&mut iq, &[0, 1, 2, 3]);
        iq.remove(slots[0]);
        let s = iq.allocate(entry(4, 4, Pool::Int)).unwrap();
        assert_eq!(s, slots[0], "expected slot recycling");
        iq
    }

    #[test]
    fn age_prioritises_only_single_oldest() {
        let mut iq = churned(SchedulerKind::Age);
        let grants = iq.select(&mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // The oldest (seq 1) is always first; the second grant is a random
        // pick among the remaining ready entries.
        assert_eq!(seqs[0], 1);
        assert!([2, 3, 4].contains(&seqs[1]));
    }

    #[test]
    fn mult_prioritises_oldest_per_pool() {
        let mut iq = IssueQueue::new(SchedulerKind::Mult, 16);
        iq.allocate(entry(0, 0, Pool::Int)).unwrap();
        iq.allocate(entry(1, 1, Pool::Mem)).unwrap();
        iq.allocate(entry(2, 2, Pool::Int)).unwrap();
        iq.allocate(entry(3, 3, Pool::Mem)).unwrap();
        let grants = iq.select(&mut budgets(8), 2);
        let mut seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        seqs.sort_unstable();
        // The per-pool heads are seq 0 (Int) and seq 1 (Mem).
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn rand_ignores_age() {
        // RAND picks randomly: over many fresh queues the oldest must NOT
        // always win (a strict-age scheduler would always grant seq 1).
        let mut oldest_wins = 0;
        for _ in 0..32 {
            let mut iq = churned(SchedulerKind::Rand);
            let grants = iq.select(&mut budgets(8), 1);
            if grants[0].1.seq == 1 {
                oldest_wins += 1;
            }
        }
        assert!(oldest_wins < 32, "RAND behaved like strict age order");
    }

    #[test]
    fn pool_budget_constrains_grants() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        iq.allocate(entry(0, 0, Pool::Mem)).unwrap();
        iq.allocate(entry(1, 1, Pool::Mem)).unwrap();
        iq.allocate(entry(2, 2, Pool::Int)).unwrap();
        let mut b = budgets(8);
        b[Pool::Mem.idx()] = 1;
        let grants = iq.select(&mut b, 4);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // Only one Mem grant (the older), Int unaffected.
        assert_eq!(seqs, vec![0, 2]);
        assert_eq!(b[Pool::Mem.idx()], 0);
    }

    #[test]
    fn width_constrains_grants() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut iq, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(iq.select(&mut budgets(8), 2).len(), 2);
    }

    #[test]
    fn criticality_orders_across_classes() {
        let mut iq = IssueQueue::new(SchedulerKind::CriOrinoco, 16);
        iq.allocate(entry(0, 0, Pool::Int)).unwrap(); // non-critical, oldest
        iq.allocate(entry(1, 1, Pool::Int)).unwrap(); // non-critical
        iq.allocate(crit_entry(2, 2)).unwrap(); // critical, youngest
        let grants = iq.select(&mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // Critical first despite being youngest, then oldest non-critical.
        assert_eq!(seqs, vec![2, 0]);
    }

    #[test]
    fn cri_age_keeps_critical_head_only() {
        let mut iq = IssueQueue::new(SchedulerKind::CriAge, 32);
        let s0 = iq.allocate(crit_entry(0, 0)).unwrap();
        iq.allocate(crit_entry(1, 1)).unwrap();
        iq.allocate(crit_entry(2, 2)).unwrap();
        iq.remove(s0);
        assert_eq!(iq.allocate(crit_entry(3, 3)).unwrap(), s0);
        let grants = iq.select(&mut budgets(8), 3);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // The single oldest critical (seq 1) is age-accurate; the rest are
        // a random permutation of the remaining criticals.
        assert_eq!(seqs[0], 1);
        let mut rest = seqs[1..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn circ_capacity_inefficiency() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 4);
        let slots = fill(&mut iq, &[0, 1, 2, 3]);
        assert!(!iq.has_space());
        // Remove a middle entry: the gap is NOT reusable.
        iq.remove(slots[2]);
        assert!(!iq.has_space());
        // Remove the head: head advances over it, one slot reclaimed.
        iq.remove(slots[0]);
        assert!(iq.has_space());
        iq.allocate(entry(9, 9, Pool::Int)).unwrap();
        assert!(!iq.has_space());
    }

    #[test]
    fn circ_head_run_reclaims_interior_gap() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 4);
        let slots = fill(&mut iq, &[0, 1, 2]);
        iq.remove(slots[1]); // interior gap
        iq.remove(slots[0]); // head: run advances over the gap too
        // span now covers only seq 2 -> three slots free
        for q in [10, 11, 12] {
            assert!(iq.allocate(entry(q, q as u64, Pool::Int)).is_some());
        }
        assert!(!iq.has_space());
    }

    #[test]
    fn circ_selects_in_position_order() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 8);
        fill(&mut iq, &[5, 6, 7]);
        let grants = iq.select(&mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    #[test]
    fn rand_reuses_freed_slots() {
        let mut iq = IssueQueue::new(SchedulerKind::Rand, 2);
        let s0 = iq.allocate(entry(0, 0, Pool::Int)).unwrap();
        iq.allocate(entry(1, 1, Pool::Int)).unwrap();
        assert!(!iq.has_space());
        iq.remove(s0);
        assert!(iq.has_space()); // unlike CIRC, gaps are immediately reusable
        assert!(iq.allocate(entry(2, 2, Pool::Int)).is_some());
    }

    #[test]
    fn not_ready_entries_never_selected() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(9)), None];
        iq.allocate(e).unwrap();
        iq.allocate(entry(1, 1, Pool::Int)).unwrap();
        let grants = iq.select(&mut budgets(8), 4);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1.seq, 1);
    }

    #[test]
    #[should_panic(expected = "empty IQ slot")]
    fn remove_empty_panics() {
        IssueQueue::new(SchedulerKind::Rand, 4).remove(0);
    }

    #[test]
    fn reset_matches_fresh_queue() {
        for kind in SchedulerKind::ALL {
            let mut iq = IssueQueue::new(kind, 8).with_regs(64);
            let mut e = entry(0, 0, Pool::Int);
            e.srcs = [Some(PhysReg(5)), None];
            iq.allocate(e).unwrap();
            fill(&mut iq, &[1, 2, 3]);
            let _ = iq.select(&mut budgets(8), 2);
            iq.reset();
            let mut fresh = IssueQueue::new(kind, 8).with_regs(64);
            assert_eq!(iq.len(), 0);
            assert_eq!(iq.ready_count(), 0);
            // Same allocation, wakeup and grant behaviour after reset.
            for q in [10u64, 11, 12] {
                assert_eq!(
                    iq.allocate(entry(q as usize, q, Pool::Int)),
                    fresh.allocate(entry(q as usize, q, Pool::Int)),
                    "{kind:?} slot placement diverged"
                );
            }
            let ga: Vec<u64> =
                iq.select(&mut budgets(8), 8).iter().map(|(_, e)| e.seq).collect();
            let gb: Vec<u64> =
                fresh.select(&mut budgets(8), 8).iter().map(|(_, e)| e.seq).collect();
            assert_eq!(ga, gb, "{kind:?} grant order diverged");
        }
    }

    #[test]
    fn ready_count_stays_consistent_under_churn() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(3)), Some(PhysReg(4))];
        let s = iq.allocate(e).unwrap();
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(3));
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(4));
        assert_eq!(iq.ready_count(), 1);
        // Duplicate writeback must not double-count.
        iq.writeback(PhysReg(4));
        assert_eq!(iq.ready_count(), 1);
        iq.remove(s);
        assert_eq!(iq.ready_count(), 0);
    }

    /// How often the churn histories hit the cases the property is about.
    #[derive(Default)]
    struct Coverage {
        /// Rankings where a critical entry outranked an older one.
        crit_jumps: u64,
        /// MULT rankings with heads in two or more pools.
        multi_pool_heads: u64,
        /// Refetched entries that landed in the slot they were squashed from.
        same_slot_refetch: u64,
        /// Selects that skipped a ready entry for want of pool budget.
        budget_skips: u64,
    }

    /// The grants a strict-priority select makes walking `order` under
    /// `budget` (decremented in place) and `width`.
    fn greedy(
        iq: &IssueQueue,
        order: &[usize],
        budget: &mut [usize; 4],
        width: usize,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for &s in order {
            if out.len() == width {
                break;
            }
            let p = iq.entry(s).expect("ranked slot live").pool.idx();
            if budget[p] > 0 {
                budget[p] -= 1;
                out.push(s);
            }
        }
        out
    }

    /// One select on the real path under a random budget and width,
    /// checked against the matrix ranking taken just before it. Returns
    /// the granted slots.
    fn select_checked(rng: &mut Rng, iq: &mut IssueQueue, cov: &mut Coverage) -> Vec<usize> {
        let kind = iq.kind();
        let oracle = iq.ranking_matrix();
        let mut budget = [(); 4].map(|()| rng.gen_range(0..3usize));
        let width = rng.gen_range(0..6usize);
        let mut strict_budget = budget;
        let strict = greedy(iq, &oracle.order, &mut strict_budget, width);
        // AGE and MULT grant their heads first; CRI-AGE its oldest entry.
        let heads = match kind {
            SchedulerKind::CriAge => &oracle.order[..oracle.order.len().min(1)],
            _ => &oracle.heads[..],
        };
        let first = greedy(iq, heads, &mut budget.clone(), width);
        cov.budget_skips += u64::from(strict.len() < width.min(oracle.order.len()));
        let got: Vec<usize> = iq.select(&mut budget, width).into_iter().map(|(s, _)| s).collect();
        assert_eq!(got.len(), strict.len(), "{kind:?} grant count diverged");
        assert!(got.iter().all(|s| oracle.order.contains(s)), "{kind:?} granted a non-ready slot");
        match kind {
            // Strict age order; CIRC's queue positions are dispatch order.
            SchedulerKind::Shift
            | SchedulerKind::Circ
            | SchedulerKind::Orinoco
            | SchedulerKind::CriOrinoco => {
                assert_eq!(got, strict, "{kind:?} grants diverged from the matrix order");
                assert_eq!(budget, strict_budget, "{kind:?} budget consumption diverged");
            }
            SchedulerKind::Age | SchedulerKind::Mult | SchedulerKind::CriAge => {
                assert!(got.starts_with(&first), "{kind:?} did not grant its heads first");
            }
            SchedulerKind::Rand => {}
        }
        got
    }

    /// One random history on a `kind` queue of `cap` entries: a fill to at
    /// least half the capacity, then churn, with the key ranking checked
    /// against the matrix after every step.
    fn churn(rng: &mut Rng, kind: SchedulerKind, cap: usize, cov: &mut Coverage) {
        const NREGS: u16 = 16;
        let mut iq = IssueQueue::new(kind, cap).with_regs(usize::from(NREGS));
        // Live entries in seq order, as `(slot, entry)`.
        let mut live: Vec<(usize, IqEntry)> = Vec::new();
        let mut next_seq = 0u64;
        let fill = rng.gen_range(cap / 2..cap + 1);
        for step in 0..fill + 2 * cap {
            match if step < fill { 0 } else { rng.gen_range(0..16u32) } {
                0..=5 => {
                    let mut e = entry(live.len(), next_seq, Pool::ALL[rng.gen_range(0..4usize)]);
                    e.critical = rng.gen_bool(0.3);
                    for i in 0..2 {
                        if rng.gen_bool(0.4) {
                            e.srcs[i] = Some(PhysReg(rng.gen_range(0..NREGS)));
                            e.src_ready[i] = rng.gen_bool(0.3);
                        }
                    }
                    e.wait_on = [true, rng.gen_bool(0.8)];
                    if let Some(slot) = iq.allocate(e.clone()) {
                        live.push((slot, e));
                        next_seq += 1;
                    }
                }
                6 if !live.is_empty() => {
                    let (slot, _) = live.remove(rng.gen_range(0..live.len()));
                    iq.remove(slot);
                }
                7..=10 => iq.writeback(PhysReg(rng.gen_range(0..NREGS))),
                11..=13 => {
                    let got = select_checked(rng, &mut iq, cov);
                    live.retain(|(s, _)| !got.contains(s));
                }
                14 if !live.is_empty() => {
                    // Squash from a random live seq, youngest first, then
                    // refetch the same entries while they fit (CIRC's gaps
                    // may not take them all): the LIFO free list hands
                    // their slots back.
                    let k = rng.gen_range(0..live.len());
                    let squashed: Vec<usize> = live.drain(k..).map(|(s, _)| s).collect();
                    let mut refetch: Vec<(usize, IqEntry)> =
                        squashed.iter().rev().map(|&s| (s, iq.remove(s))).collect();
                    refetch.reverse();
                    for (old, e) in refetch {
                        let Some(slot) = iq.allocate(e.clone()) else { break };
                        cov.same_slot_refetch += u64::from(slot == old);
                        live.push((slot, e));
                    }
                }
                _ => {}
            }
            assert_eq!(iq.len(), live.len(), "{kind:?} occupancy diverged");
            let keyed = iq.ranking();
            assert_eq!(keyed, iq.ranking_matrix(), "{kind:?} cap {cap}: key ranking diverged");
            let seqs: Vec<u64> = keyed.order.iter().map(|&s| iq.entry(s).unwrap().seq).collect();
            cov.crit_jumps += u64::from(seqs.windows(2).any(|w| w[0] > w[1]));
            cov.multi_pool_heads += u64::from(keyed.heads.len() > 1);
        }
    }

    /// Every scheduler's select agrees with the age matrix rebuilt from
    /// its live entries ([`IssueQueue::ranking_matrix`]) under
    /// allocate/remove/wake-up churn, squash-and-refetch slot reuse and a
    /// mix of critical entries. After every step the key ranking equals
    /// the matrix ranking (order and heads), and every select grants what
    /// the matrix order dictates for its scheduler. Capacities straddle
    /// the 64-bit word boundary; 97 and 224 are the Base and Ultra IQs.
    #[test]
    fn key_ranking_matches_rebuilt_matrix_under_churn() {
        let mut cov = Coverage::default();
        orinoco_util::prop::forall("iq_key_vs_matrix", 0x1A6E, 2, |rng| {
            for kind in SchedulerKind::ALL {
                for cap in [63, 64, 65, 97, 224] {
                    churn(rng, kind, cap, &mut cov);
                }
            }
        });
        assert!(cov.crit_jumps > 0, "no critical entry ever outranked an older one");
        assert!(cov.multi_pool_heads > 0, "MULT never had heads in two pools");
        assert!(cov.same_slot_refetch > 0, "no refetch reused its squashed slot");
        assert!(cov.budget_skips > 0, "no select ever ran out of pool budget");
    }
}
