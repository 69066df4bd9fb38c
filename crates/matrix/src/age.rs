//! The age matrix with bit count encoding (paper §3.1).
//!
//! An [`AgeMatrix`] tracks the relative age of the instructions resident in
//! a non-collapsible queue (IQ or ROB). Each row and column is associated
//! with a queue entry; bit `(i, j)` set means *entry `j` holds an older
//! instruction than entry `i`*.
//!
//! At dispatch an instruction writes its row (everything currently valid is
//! older) and clears its column (nobody considers it older yet) — this is
//! what decouples temporal order from queue position and permits random
//! entry allocation.
//!
//! The **bit count encoding** is the paper's key extension over the classic
//! single-oldest AGE design: each requesting entry counts the number of
//! *older requesting* entries (`popcount(row & BID)`); any entry whose count
//! is below the issue width `IW` is one of the `IW` oldest and is granted,
//! all in parallel, in O(1) time.

use crate::{BitMatrix, BitVec64};

/// Age matrix over a non-collapsible queue of `n` entries.
///
/// # Examples
///
/// Selecting the two oldest ready instructions out of four in one step:
///
/// ```
/// use orinoco_matrix::{AgeMatrix, BitVec64};
///
/// let mut age = AgeMatrix::new(8);
/// // Dispatch order: slot 5, then 2, then 7 (random allocation).
/// age.dispatch(5);
/// age.dispatch(2);
/// age.dispatch(7);
/// let ready = BitVec64::from_indices(8, [2, 5, 7]);
/// // Grant the 2 oldest ready: slots 5 (oldest) and 2.
/// assert_eq!(age.select_oldest(&ready, 2), vec![5, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct AgeMatrix {
    m: BitMatrix,
    valid: BitVec64,
}

impl AgeMatrix {
    /// Creates an age matrix for a queue with `n` entries.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            m: BitMatrix::new(n, n),
            valid: BitVec64::new(n),
        }
    }

    /// Queue capacity (number of rows/columns).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.m.rows()
    }

    /// The `VLD` vector: which entries currently hold instructions.
    #[must_use]
    pub fn valid(&self) -> &BitVec64 {
        &self.valid
    }

    /// `true` if `slot` holds a live instruction.
    #[must_use]
    pub fn is_valid(&self, slot: usize) -> bool {
        self.valid.get(slot)
    }

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Dispatches an instruction into `slot`: its row is set to all ones
    /// (every existing instruction is older — the front-end is in-order),
    /// its own bit is cleared, and its column is cleared in every *valid*
    /// row so no stale state survives entry reuse.
    ///
    /// The hardware clears the whole column in one array cycle; the
    /// software model clears only the valid rows (O(occupancy) instead of
    /// O(capacity)) because a row of an invalid slot is unobservable —
    /// every query masks by `VLD` (or by `SPEC`, which is cleared at
    /// free) — and is rewritten in full by the row write of its own next
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds or already valid.
    pub fn dispatch(&mut self, slot: usize) {
        assert!(!self.valid.get(slot), "dispatch into live slot {slot}");
        self.m.set_row_all(slot);
        self.m.clear(slot, slot);
        self.m.clear_col_masked(slot, &self.valid);
        self.valid.set(slot);
    }

    /// Dispatches an instruction whose set of *older* entries is exactly
    /// `older` (used for per-type partial ordering, §5 Figure 13, and as the
    /// building block for criticality dispatch).
    ///
    /// The column is cleared in every row, so entries outside `older` will
    /// simply never see this instruction as older than themselves.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is live, out of bounds, `older` has the wrong
    /// length, or `older` claims the instruction is older than itself.
    pub fn dispatch_masked(&mut self, slot: usize, older: &BitVec64) {
        assert!(!self.valid.get(slot), "dispatch into live slot {slot}");
        assert!(!older.get(slot), "instruction cannot be older than itself");
        self.m.write_row(slot, older);
        self.m.clear_col_masked(slot, &self.valid);
        self.valid.set(slot);
    }

    /// Dispatches a **critical** instruction (§3.1 "Criticality-based
    /// Scheduling"): only the currently valid *critical* entries (`cri`)
    /// appear in its row, so every non-critical instruction — past or
    /// future — counts as younger, making critical instructions "older"
    /// than non-critical ones for the bit count encoding.
    ///
    /// The column write clears the bit in critical rows (they were
    /// dispatched earlier, hence are genuinely older) and **sets** it in
    /// live non-critical rows so instructions dispatched before this slot
    /// was recycled also treat it as older.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`AgeMatrix::dispatch_masked`].
    pub fn dispatch_critical(&mut self, slot: usize, cri: &BitVec64) {
        assert!(!self.valid.get(slot), "dispatch into live slot {slot}");
        let mut older = cri.and(&self.valid);
        older.clear(slot);
        self.m.write_row(slot, &older);
        let mut noncrit = self.valid.and(&cri.not());
        noncrit.clear(slot);
        self.m.clear_col_masked(slot, &self.valid);
        self.m.set_col_masked(slot, &noncrit);
        self.valid.set(slot);
    }

    /// Removes the instruction in `slot` (issue from the IQ, commit or
    /// squash from the ROB). The matrix itself keeps stale bits; they are
    /// scrubbed by the row write / column clear of the next dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not valid.
    pub fn free(&mut self, slot: usize) {
        assert!(self.valid.get(slot), "free of empty slot {slot}");
        self.valid.clear(slot);
    }

    /// Bit count read for one entry: how many of the entries in `request`
    /// are older than `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds or `request` has the wrong length.
    #[must_use]
    pub fn older_count(&self, slot: usize, request: &BitVec64) -> u32 {
        self.m.row_and_count(slot, request)
    }

    /// Selects up to `width` oldest entries among `request`, returned in
    /// age order (oldest first). This is the paper's parallel bit-count
    /// arbitration: entry `i` is granted iff
    /// `popcount(row_i & request) < width`.
    ///
    /// Requesting entries that are not valid are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `request.len()` differs from the capacity.
    #[must_use]
    pub fn select_oldest(&self, request: &BitVec64, width: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.select_oldest_into(request, width, &mut out);
        out
    }

    /// Allocation-free counterpart of [`AgeMatrix::select_oldest`]: grants
    /// are written into the caller-owned `out` (cleared first, capacity
    /// reused), oldest first. No intermediate `request & valid` vector is
    /// materialised — the ranking reads run three-way against the raw
    /// request and `VLD` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `request.len()` differs from the capacity.
    pub fn select_oldest_into(
        &self,
        request: &BitVec64,
        width: usize,
        out: &mut Vec<usize>,
    ) {
        assert_eq!(request.len(), self.capacity(), "request length mismatch");
        out.clear();
        if width == 0 {
            return;
        }
        // Rank-bucketing, no sort: a granted entry's rank (its count of
        // older requesting entries) indexes its position in the output
        // directly, because granted ranks always form the dense prefix
        // 0..k-1 — if rank r is granted, its r older candidates have ranks
        // below r and are granted too. Ranks never reach the capacity, so
        // `rank < width` can be tested against the clamped `limit`.
        let limit = width.min(self.capacity());
        out.resize(limit, usize::MAX);
        let mut found = 0usize;
        for (wi, (&rw, &vw)) in request.words().iter().zip(self.valid.words()).enumerate() {
            let mut m = rw & vw;
            while m != 0 {
                let slot = wi * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if let Some(rank) =
                    self.m.row_and2_rank_below(slot, request, &self.valid, limit as u32)
                {
                    let rank = rank as usize;
                    if out[rank] != usize::MAX {
                        // A rank tie is only possible under a partial order
                        // (`dispatch_masked`); resolve it exactly as the
                        // scalar path always has.
                        self.select_oldest_into_ref(request, width, out);
                        return;
                    }
                    out[rank] = slot;
                    found += 1;
                }
            }
        }
        out.truncate(found);
        #[cfg(debug_assertions)]
        {
            let mut reference = Vec::new();
            self.select_oldest_into_ref(request, width, &mut reference);
            assert_eq!(*out, reference, "word-parallel select diverged from scalar oracle");
        }
    }

    /// The scalar reference implementation of
    /// [`AgeMatrix::select_oldest_into`] (per-candidate full-row popcount +
    /// sort by rank), retained as the oracle the word-parallel path is
    /// cross-checked against in debug builds and property tests, and as the
    /// tie-breaking fallback for partial orders.
    #[doc(hidden)]
    pub fn select_oldest_into_ref(
        &self,
        request: &BitVec64,
        width: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        for slot in request.iter_ones_and(&self.valid) {
            let count = self.m.row_and2_count(slot, request, &self.valid);
            if (count as usize) < width {
                out.push(slot);
            }
        }
        // Ranks within the requesting set are distinct (up to partial-order
        // ties), so this sort is a permutation into age order; grant counts
        // are tiny (≤ width).
        out.sort_unstable_by_key(|&slot| {
            self.m.row_and2_count(slot, request, &self.valid)
        });
    }

    /// The grant vector corresponding to [`AgeMatrix::select_oldest`] — the
    /// raw sense-amplifier outputs of the PIM implementation.
    ///
    /// # Panics
    ///
    /// Panics if `request.len()` differs from the capacity.
    #[must_use]
    pub fn grant_mask(&self, request: &BitVec64, width: usize) -> BitVec64 {
        let mut out = BitVec64::new(self.capacity());
        self.grant_mask_into(request, width, &mut out);
        out
    }

    /// Allocation-free counterpart of [`AgeMatrix::grant_mask`]: the grant
    /// bits are written into the caller-owned `out` (cleared first). Each
    /// candidate costs one early-exiting rank read; no grant list is ever
    /// materialised or sorted (the mask is insensitive to grant order).
    ///
    /// # Panics
    ///
    /// Panics if `request.len()` or `out.len()` differs from the capacity.
    pub fn grant_mask_into(&self, request: &BitVec64, width: usize, out: &mut BitVec64) {
        assert_eq!(request.len(), self.capacity(), "request length mismatch");
        assert_eq!(out.len(), self.capacity(), "grant buffer length mismatch");
        out.clear_all();
        if width == 0 {
            return;
        }
        let limit = width.min(self.capacity()) as u32;
        for (wi, (&rw, &vw)) in request.words().iter().zip(self.valid.words()).enumerate() {
            let mut m = rw & vw;
            while m != 0 {
                let slot = wi * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if self.m.row_and2_rank_below(slot, request, &self.valid, limit).is_some() {
                    out.set(slot);
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut reference = Vec::new();
            self.select_oldest_into_ref(request, width, &mut reference);
            assert_eq!(
                out.iter_ones().collect::<Vec<_>>(),
                {
                    reference.sort_unstable();
                    reference
                },
                "word-parallel grant mask diverged from scalar oracle"
            );
        }
    }

    /// Classic AGE behaviour: grants only the single oldest requesting
    /// entry (`row & request` reduction-NORs to zero).
    ///
    /// Implemented by chain-following: start at any requesting valid entry
    /// and repeatedly hop to the first older requesting entry found in the
    /// current row; each hop strictly descends the age order, so the walk
    /// lands on an entry with no older requester in O(chain × words)
    /// instead of scanning every candidate's full row. Under a total age
    /// order this is *the* oldest requester; under a partial order
    /// ([`AgeMatrix::dispatch_masked`]) it is one of the minimal
    /// requesters.
    ///
    /// # Panics
    ///
    /// Panics if `request.len()` differs from the capacity.
    #[must_use]
    pub fn select_single_oldest(&self, request: &BitVec64) -> Option<usize> {
        assert_eq!(request.len(), self.capacity(), "request length mismatch");
        let mut cur = request.first_one_and(&self.valid)?;
        for _ in 0..=self.capacity() {
            match self.m.row_first_one_and2(cur, request, &self.valid) {
                None => {
                    debug_assert!(
                        self.m.row_and2_is_zero(cur, request, &self.valid),
                        "chain landed on a non-minimal entry"
                    );
                    return Some(cur);
                }
                Some(older) => cur = older,
            }
        }
        panic!("age matrix order contains a cycle");
    }

    /// The scalar reference implementation of
    /// [`AgeMatrix::select_single_oldest`] (linear candidate scan with a
    /// full-row NOR per candidate; returns the lowest-indexed minimal
    /// requester), retained as the property-test oracle.
    #[doc(hidden)]
    #[must_use]
    pub fn select_single_oldest_ref(&self, request: &BitVec64) -> Option<usize> {
        request
            .iter_ones_and(&self.valid)
            .find(|&slot| self.m.row_and2_is_zero(slot, request, &self.valid))
    }

    /// Finds the oldest valid entry (`row & VLD == 0`): the instruction
    /// that must own the oldest exception or unresolved speculation when
    /// commit is completely blocked (§3.1, precise exception location).
    #[must_use]
    pub fn oldest_valid(&self) -> Option<usize> {
        self.valid
            .iter_ones()
            .find(|&slot| self.m.row_and_is_zero(slot, &self.valid))
    }

    /// All valid entries younger than `slot` (the column read used for
    /// instruction squash, §3.2 "Precise Exception Handling").
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn younger_than(&self, slot: usize) -> BitVec64 {
        let mut col = BitVec64::new(self.capacity());
        self.younger_than_into(slot, &mut col);
        col
    }

    /// Allocation-free counterpart of [`AgeMatrix::younger_than`]: the
    /// column is read into the caller-owned `out`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds or `out.len()` differs from the
    /// capacity.
    pub fn younger_than_into(&self, slot: usize, out: &mut BitVec64) {
        self.m.read_col_into(slot, out);
        out.and_assign(&self.valid);
    }

    /// `true` if the instruction in `a` is older than the one in `b`.
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of bounds.
    #[must_use]
    pub fn is_older(&self, a: usize, b: usize) -> bool {
        self.m.get(b, a)
    }

    /// Rank of `slot` among the valid entries (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn rank(&self, slot: usize) -> u32 {
        self.m.row_and_count(slot, &self.valid)
    }

    /// All valid entries, oldest first — an O(n log n) helper for tests,
    /// debugging and statistics (the hardware never needs this order
    /// materialised).
    #[must_use]
    pub fn valid_in_age_order(&self) -> Vec<usize> {
        let mut v: Vec<(u32, usize)> = self
            .valid
            .iter_ones()
            .map(|slot| (self.rank(slot), slot))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// Row read access for composite schedulers (commit uses `row & SPEC`).
    #[must_use]
    pub(crate) fn matrix(&self) -> &BitMatrix {
        &self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(n: usize, slots: &[usize]) -> BitVec64 {
        BitVec64::from_indices(n, slots.iter().copied())
    }

    #[test]
    fn dispatch_establishes_temporal_order() {
        let mut age = AgeMatrix::new(4);
        age.dispatch(3);
        age.dispatch(0);
        age.dispatch(2);
        assert!(age.is_older(3, 0));
        assert!(age.is_older(3, 2));
        assert!(age.is_older(0, 2));
        assert!(!age.is_older(2, 0));
        assert_eq!(age.valid_in_age_order(), vec![3, 0, 2]);
    }

    #[test]
    fn select_oldest_is_exactly_the_iw_oldest() {
        let mut age = AgeMatrix::new(8);
        for s in [6, 1, 4, 0, 7] {
            age.dispatch(s);
        }
        let req = ready(8, &[0, 1, 4, 7]); // 6 not ready
        assert_eq!(age.select_oldest(&req, 2), vec![1, 4]);
        assert_eq!(age.select_oldest(&req, 10), vec![1, 4, 0, 7]);
        assert_eq!(age.select_oldest(&req, 0), Vec::<usize>::new());
    }

    #[test]
    fn select_single_oldest_matches_classic_age() {
        let mut age = AgeMatrix::new(8);
        age.dispatch(5);
        age.dispatch(3);
        let req = ready(8, &[3, 5]);
        assert_eq!(age.select_single_oldest(&req), Some(5));
        assert_eq!(age.select_single_oldest(&ready(8, &[3])), Some(3));
        assert_eq!(age.select_single_oldest(&ready(8, &[])), None);
    }

    #[test]
    fn invalid_requests_are_ignored() {
        let mut age = AgeMatrix::new(4);
        age.dispatch(1);
        // slot 2 never dispatched but requested
        let req = ready(4, &[1, 2]);
        assert_eq!(age.select_oldest(&req, 4), vec![1]);
    }

    #[test]
    fn slot_reuse_scrubs_stale_state() {
        let mut age = AgeMatrix::new(4);
        age.dispatch(0);
        age.dispatch(1);
        age.free(0); // oldest leaves
        age.dispatch(0); // slot reused: now the *youngest*
        assert!(age.is_older(1, 0));
        assert!(!age.is_older(0, 1));
        assert_eq!(age.valid_in_age_order(), vec![1, 0]);
        let req = ready(4, &[0, 1]);
        assert_eq!(age.select_oldest(&req, 1), vec![1]);
    }

    #[test]
    fn oldest_valid_finds_exception_owner() {
        let mut age = AgeMatrix::new(8);
        assert_eq!(age.oldest_valid(), None);
        age.dispatch(7);
        age.dispatch(2);
        age.dispatch(5);
        assert_eq!(age.oldest_valid(), Some(7));
        age.free(7);
        assert_eq!(age.oldest_valid(), Some(2));
    }

    #[test]
    fn younger_than_reads_column() {
        let mut age = AgeMatrix::new(8);
        age.dispatch(4);
        age.dispatch(6);
        age.dispatch(1);
        let younger = age.younger_than(6);
        assert_eq!(younger.iter_ones().collect::<Vec<_>>(), vec![1]);
        let younger = age.younger_than(4);
        assert_eq!(younger.iter_ones().collect::<Vec<_>>(), vec![1, 6]);
    }

    #[test]
    fn younger_than_excludes_freed() {
        let mut age = AgeMatrix::new(4);
        age.dispatch(0);
        age.dispatch(1);
        age.dispatch(2);
        age.free(1);
        let younger = age.younger_than(0);
        assert_eq!(younger.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn critical_dispatch_outranks_noncritical() {
        let mut age = AgeMatrix::new(8);
        let mut cri = BitVec64::new(8);
        // Two non-criticals first.
        age.dispatch(0);
        age.dispatch(1);
        // Now a critical arrives in slot 2.
        age.dispatch_critical(2, &cri);
        cri.set(2);
        // Critical slot 2 is "older" than both non-criticals.
        assert!(age.is_older(2, 0));
        assert!(age.is_older(2, 1));
        // With IW=1, the critical wins even though it is temporally youngest.
        let req = ready(8, &[0, 1, 2]);
        assert_eq!(age.select_oldest(&req, 1), vec![2]);
        // With IW=2, critical first, then the oldest non-critical.
        assert_eq!(age.select_oldest(&req, 2), vec![2, 0]);
    }

    #[test]
    fn critical_order_preserved_among_criticals() {
        let mut age = AgeMatrix::new(8);
        let mut cri = BitVec64::new(8);
        age.dispatch_critical(3, &cri);
        cri.set(3);
        age.dispatch_critical(5, &cri);
        cri.set(5);
        assert!(age.is_older(3, 5));
        let req = ready(8, &[3, 5]);
        assert_eq!(age.select_oldest(&req, 1), vec![3]);
    }

    #[test]
    fn critical_dispatch_into_recycled_slot_still_older_than_stale_rows() {
        let mut age = AgeMatrix::new(4);
        let mut cri = BitVec64::new(4);
        // N0 dispatched, then X in slot 2, X's dispatch cleared column 2 in
        // N0's row. X issues; slot 2 recycled by a critical C.
        age.dispatch(0); // N0
        age.dispatch(2); // X
        age.free(2);
        age.dispatch_critical(2, &cri); // C in recycled slot
        cri.set(2);
        // N0 must still see C as older.
        assert!(age.is_older(2, 0));
        let req = ready(4, &[0, 2]);
        assert_eq!(age.select_oldest(&req, 1), vec![2]);
    }

    #[test]
    fn masked_dispatch_partial_ordering_per_type() {
        // Per-type partial order (Fig. 13): memory ops only track older
        // memory ops; arbitration happens within the type mask.
        let mut age = AgeMatrix::new(8);
        let mut mem_mask = BitVec64::new(8);
        // int op at 0
        age.dispatch_masked(0, &BitVec64::new(8));
        // mem op at 1: older mem ops = none
        age.dispatch_masked(1, &mem_mask.and(age.valid()));
        mem_mask.set(1);
        // mem op at 2: older mem ops = {1}
        age.dispatch_masked(2, &mem_mask.and(age.valid()));
        mem_mask.set(2);
        let mem_req = ready(8, &[1, 2]);
        assert_eq!(age.select_oldest(&mem_req, 1), vec![1]);
    }

    #[test]
    fn rank_counts_older_valid() {
        let mut age = AgeMatrix::new(8);
        age.dispatch(3);
        age.dispatch(7);
        age.dispatch(0);
        assert_eq!(age.rank(3), 0);
        assert_eq!(age.rank(7), 1);
        assert_eq!(age.rank(0), 2);
    }

    #[test]
    fn grant_mask_matches_select() {
        let mut age = AgeMatrix::new(8);
        for s in [2, 4, 6] {
            age.dispatch(s);
        }
        let req = ready(8, &[2, 4, 6]);
        let mask = age.grant_mask(&req, 2);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn occupancy_tracks_valid() {
        let mut age = AgeMatrix::new(4);
        assert_eq!(age.occupancy(), 0);
        age.dispatch(1);
        age.dispatch(2);
        assert_eq!(age.occupancy(), 2);
        age.free(1);
        assert_eq!(age.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "live slot")]
    fn double_dispatch_panics() {
        let mut age = AgeMatrix::new(2);
        age.dispatch(0);
        age.dispatch(0);
    }

    #[test]
    #[should_panic(expected = "empty slot")]
    fn free_empty_panics() {
        AgeMatrix::new(2).free(1);
    }
}
