//! Unordered commit: the commit dependency matrix (§3.2) and the merged
//! age-matrix + `SPEC`-vector scheme of Figure 4.
//!
//! The commit conditions of Bell & Lipasti split into a *local* part (the
//! instruction completed, did not fault, is on the right path) and a
//! *global* part (no **older** instruction may still raise misspeculation or
//! an exception). The global part is a dependency between instructions and
//! is tracked here:
//!
//! * [`CommitDepMatrix`] is the standalone design: at dispatch an
//!   instruction's row records every older *speculative* instruction
//!   (memory ops before translation, unresolved branches, barriers, …);
//!   when such an instruction is proven safe it clears its column. A
//!   completed instruction commits when its row reduction-NORs to zero.
//! * [`CommitScheduler`] is the merged design actually used by Orinoco: it
//!   reuses the ROB's [`AgeMatrix`] rows and a single `SPEC` vector —
//!   `row & SPEC == 0` is exactly the standalone row — cutting the matrix
//!   area by ~40% for the evaluated configuration.
//!
//! Both are exercised by the test-suite and checked equivalent by property
//! tests in the crate's `tests/` tree. Neither runs in the simulated
//! pipeline: the ROB grants commit by walking a dispatch-order linked
//! list, and [`CommitScheduler`] is the oracle its commit check rebuilds
//! (`orinoco-core`'s `Rob::grants_orinoco_matrix`).

use crate::{AgeMatrix, BitMatrix, BitVec64};

/// Standalone commit dependency matrix (§3.2, Figure 5).
///
/// # Examples
///
/// ```
/// use orinoco_matrix::{BitVec64, CommitDepMatrix};
///
/// let mut cdm = CommitDepMatrix::new(8);
/// // A speculative load occupies slot 0; a younger add in slot 1 depends
/// // on it having translated successfully before it may commit.
/// cdm.dispatch(1, &BitVec64::from_indices(8, [0]));
/// assert!(!cdm.can_commit(1));
/// cdm.clear_safe(0); // load accessed the TLB without faulting
/// assert!(cdm.can_commit(1));
/// ```
#[derive(Clone, Debug)]
pub struct CommitDepMatrix {
    m: BitMatrix,
}

impl CommitDepMatrix {
    /// Creates a commit dependency matrix for an `n`-entry ROB.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { m: BitMatrix::new(n, n) }
    }

    /// ROB capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.m.rows()
    }

    /// Dispatch: record in `slot`'s row every older instruction that may
    /// still raise an exception or misspeculate.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds, `older_speculative` has the wrong
    /// length, or marks the instruction as depending on itself.
    pub fn dispatch(&mut self, slot: usize, older_speculative: &BitVec64) {
        assert!(
            !older_speculative.get(slot),
            "instruction cannot commit-depend on itself"
        );
        self.m.write_row(slot, older_speculative);
    }

    /// The instruction in `slot` is now known safe (branch resolved
    /// correctly, address translated without fault, FP op can only accrue
    /// status): clear its column so younger instructions stop waiting.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn clear_safe(&mut self, slot: usize) {
        self.m.clear_col(slot);
    }

    /// `true` if every commit dependency of `slot` has been discharged
    /// (row reduction-NORs to zero).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn can_commit(&self, slot: usize) -> bool {
        self.m.row_is_zero(slot)
    }

    /// Number of outstanding commit dependencies of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn pending(&self, slot: usize) -> u32 {
        self.m.row_count(slot)
    }
}

/// Merged commit scheduler: ROB age matrix + `SPEC` vector (Figure 4).
///
/// Tracks, for a non-collapsible ROB,
/// * relative instruction age (for squash, precise exceptions and
///   commit-width arbitration), and
/// * which instructions are still *speculative* — may yet raise an
///   exception or misspeculation.
///
/// A completed instruction is granted commit when `row & SPEC` reduction-
/// NORs to zero, i.e. no **older** instruction is still speculative. This
/// equals the standalone [`CommitDepMatrix`] because `row` already encodes
/// "older than me" and `SPEC` is global.
///
/// # Examples
///
/// ```
/// use orinoco_matrix::{BitVec64, CommitScheduler};
///
/// let mut rob = CommitScheduler::new(16);
/// rob.dispatch(3, true);  // an unresolved branch
/// rob.dispatch(9, false); // a safe ALU op, younger than the branch
/// let completed = BitVec64::from_indices(16, [9]);
/// // The ALU op completed but the older branch is unresolved: no grant.
/// assert!(rob.commit_grants(&completed, 4).is_empty());
/// rob.mark_safe(3);
/// assert_eq!(rob.commit_grants(&completed, 4), vec![9]);
/// ```
#[derive(Clone, Debug)]
pub struct CommitScheduler {
    age: AgeMatrix,
    spec: BitVec64,
}

impl CommitScheduler {
    /// Creates a merged commit scheduler for an `n`-entry ROB.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            age: AgeMatrix::new(n),
            spec: BitVec64::new(n),
        }
    }

    /// ROB capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.age.capacity()
    }

    /// Occupied entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.age.occupancy()
    }

    /// The underlying age matrix (read-only), for squash/ordering queries.
    #[must_use]
    pub fn age(&self) -> &AgeMatrix {
        &self.age
    }

    /// The current `SPEC` vector.
    #[must_use]
    pub fn spec(&self) -> &BitVec64 {
        &self.spec
    }

    /// Dispatches an instruction into ROB entry `slot`. `speculative`
    /// instructions (memory ops before translation, branches before
    /// resolution, barriers, potential FP traps) set their `SPEC` bit.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is live or out of bounds.
    pub fn dispatch(&mut self, slot: usize, speculative: bool) {
        self.age.dispatch(slot);
        self.spec.assign(slot, speculative);
    }

    /// The instruction in `slot` can no longer raise misspeculation or an
    /// exception: clear its `SPEC` bit (the column clear of the standalone
    /// matrix).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn mark_safe(&mut self, slot: usize) {
        self.spec.clear(slot);
    }

    /// Re-marks `slot` speculative (e.g. a load that must replay).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn mark_speculative(&mut self, slot: usize) {
        self.spec.set(slot);
    }

    /// `true` if `slot` still has its `SPEC` bit set.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn is_speculative(&self, slot: usize) -> bool {
        self.spec.get(slot)
    }

    /// `true` if no *older* instruction is still speculative — `slot`'s
    /// global commit condition (its own `SPEC` bit is a local condition and
    /// deliberately not part of this check; an instruction that completed
    /// without fault has already cleared it).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds or not valid.
    #[must_use]
    pub fn globally_safe(&self, slot: usize) -> bool {
        assert!(self.age.is_valid(slot), "query for empty slot {slot}");
        self.age.matrix().row_and_is_zero(slot, &self.spec)
    }

    /// Grants commit to up to `width` instructions this cycle: the
    /// candidates are the `completed`, valid, non-speculative entries whose
    /// row ANDed with `SPEC` reduction-NORs to zero, and the `width` oldest
    /// of them are selected with the bit count encoding
    /// ([`AgeMatrix::select_oldest`]). Returned oldest-first.
    ///
    /// # Panics
    ///
    /// Panics if `completed.len()` differs from the capacity.
    #[must_use]
    pub fn commit_grants(&self, completed: &BitVec64, width: usize) -> Vec<usize> {
        assert_eq!(completed.len(), self.capacity(), "completed length mismatch");
        let candidates = BitVec64::from_indices(
            self.capacity(),
            completed
                .iter_ones_and(self.age.valid())
                .filter(|&slot| !self.spec.get(slot) && self.globally_safe(slot)),
        );
        self.age.select_oldest(&candidates, width)
    }

    /// In-order commit grants for the IOC baseline: the `width` oldest
    /// valid instructions, stopping at the first that is not completed or
    /// not safe.
    ///
    /// # Panics
    ///
    /// Panics if `completed.len()` differs from the capacity.
    #[must_use]
    pub fn commit_grants_in_order(&self, completed: &BitVec64, width: usize) -> Vec<usize> {
        assert_eq!(completed.len(), self.capacity(), "completed length mismatch");
        self.age
            .valid_in_age_order()
            .into_iter()
            .take(width)
            .take_while(|&slot| completed.get(slot) && !self.spec.get(slot))
            .collect()
    }

    /// When nothing can commit, the head of the machine is the oldest
    /// valid instruction — the owner of the blocking exception or
    /// unresolved speculation (§3.1/§3.2 precise exceptions).
    #[must_use]
    pub fn oldest_blocking(&self) -> Option<usize> {
        self.age.oldest_valid()
    }

    /// Entries younger than `slot`, for squash on misspeculation.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn younger_than(&self, slot: usize) -> BitVec64 {
        self.age.younger_than(slot)
    }

    /// Frees a committed or squashed entry.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not valid.
    pub fn free(&mut self, slot: usize) {
        self.age.free(slot);
        self.spec.clear(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_matrix_tracks_dependencies() {
        let mut cdm = CommitDepMatrix::new(8);
        let older = BitVec64::from_indices(8, [0, 2]);
        cdm.dispatch(5, &older);
        assert_eq!(cdm.pending(5), 2);
        assert!(!cdm.can_commit(5));
        cdm.clear_safe(0);
        assert_eq!(cdm.pending(5), 1);
        cdm.clear_safe(2);
        assert!(cdm.can_commit(5));
    }

    #[test]
    fn standalone_dispatch_overwrites_stale_row() {
        let mut cdm = CommitDepMatrix::new(4);
        cdm.dispatch(1, &BitVec64::from_indices(4, [0]));
        // slot 1 recycled with no deps
        cdm.dispatch(1, &BitVec64::new(4));
        assert!(cdm.can_commit(1));
    }

    #[test]
    fn merged_grants_require_older_safe() {
        let mut rob = CommitScheduler::new(8);
        rob.dispatch(0, true); // speculative branch
        rob.dispatch(1, false);
        rob.dispatch(2, false);
        let completed = BitVec64::from_indices(8, [1, 2]);
        assert!(rob.commit_grants(&completed, 4).is_empty());
        rob.mark_safe(0);
        // branch itself not completed, so only 1 and 2 commit, in age order
        assert_eq!(rob.commit_grants(&completed, 4), vec![1, 2]);
    }

    #[test]
    fn merged_grants_respect_commit_width() {
        let mut rob = CommitScheduler::new(8);
        for s in 0..6 {
            rob.dispatch(s, false);
        }
        let completed = BitVec64::from_indices(8, 0..6);
        assert_eq!(rob.commit_grants(&completed, 3), vec![0, 1, 2]);
    }

    #[test]
    fn own_spec_bit_blocks_own_commit_but_not_others() {
        let mut rob = CommitScheduler::new(8);
        rob.dispatch(0, false);
        rob.dispatch(1, true); // younger, still speculative
        let completed = BitVec64::from_indices(8, [0, 1]);
        // Older safe instruction commits; the speculative one does not
        // (its own SPEC bit is a local condition).
        assert_eq!(rob.commit_grants(&completed, 4), vec![0]);
    }

    #[test]
    fn unordered_commit_passes_stalled_older() {
        let mut rob = CommitScheduler::new(8);
        rob.dispatch(0, false); // long-latency op, not completed
        rob.dispatch(1, false); // completed younger op
        let completed = BitVec64::from_indices(8, [1]);
        // 1 commits out of order past 0.
        assert_eq!(rob.commit_grants(&completed, 4), vec![1]);
        // while IOC blocks
        assert!(rob.commit_grants_in_order(&completed, 4).is_empty());
    }

    #[test]
    fn in_order_baseline_stops_at_first_incomplete() {
        let mut rob = CommitScheduler::new(8);
        for s in 0..4 {
            rob.dispatch(s, false);
        }
        let completed = BitVec64::from_indices(8, [0, 1, 3]);
        assert_eq!(rob.commit_grants_in_order(&completed, 4), vec![0, 1]);
    }

    #[test]
    fn replay_remarks_speculative() {
        let mut rob = CommitScheduler::new(4);
        rob.dispatch(0, true);
        rob.dispatch(1, false);
        rob.mark_safe(0);
        assert!(rob.globally_safe(1));
        rob.mark_speculative(0); // replay trap
        assert!(!rob.globally_safe(1));
        assert!(rob.is_speculative(0));
    }

    #[test]
    fn oldest_blocking_locates_stall_owner() {
        let mut rob = CommitScheduler::new(8);
        rob.dispatch(6, true);
        rob.dispatch(2, false);
        assert_eq!(rob.oldest_blocking(), Some(6));
        rob.free(6);
        assert_eq!(rob.oldest_blocking(), Some(2));
    }

    #[test]
    fn squash_set_comes_from_age_matrix() {
        let mut rob = CommitScheduler::new(8);
        rob.dispatch(3, true); // branch
        rob.dispatch(5, false);
        rob.dispatch(1, false);
        let squash = rob.younger_than(3);
        assert_eq!(squash.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn free_clears_spec_bit() {
        let mut rob = CommitScheduler::new(4);
        rob.dispatch(0, true);
        rob.free(0);
        rob.dispatch(0, false);
        assert!(!rob.is_speculative(0));
    }

    #[test]
    fn merged_equals_standalone_on_a_scenario() {
        // Same dispatch/safety schedule driven into both designs.
        let n = 16;
        let mut merged = CommitScheduler::new(n);
        let mut standalone = CommitDepMatrix::new(n);
        let mut spec_now = BitVec64::new(n);

        let dispatches = [(0, true), (1, false), (2, true), (3, false), (4, false)];
        for &(slot, speculative) in &dispatches {
            standalone.dispatch(slot, &spec_now);
            merged.dispatch(slot, speculative);
            if speculative {
                spec_now.set(slot);
            }
        }
        for slot in [1usize, 3, 4] {
            assert_eq!(
                merged.globally_safe(slot),
                standalone.can_commit(slot),
                "slot {slot} before safety"
            );
        }
        // branch at 0 resolves safe
        merged.mark_safe(0);
        standalone.clear_safe(0);
        spec_now.clear(0);
        for slot in [1usize, 3, 4] {
            assert_eq!(merged.globally_safe(slot), standalone.can_commit(slot));
        }
        // load at 2 resolves safe
        merged.mark_safe(2);
        standalone.clear_safe(2);
        for slot in [1usize, 3, 4] {
            assert!(merged.globally_safe(slot) && standalone.can_commit(slot));
        }
    }

    #[test]
    #[should_panic(expected = "commit-depend on itself")]
    fn self_dependency_panics() {
        let mut cdm = CommitDepMatrix::new(4);
        cdm.dispatch(1, &BitVec64::from_indices(4, [1]));
    }
}
