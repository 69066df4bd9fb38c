//! The lockdown matrix and lockdown table (§3.3, Figure 7): non-speculative
//! load→load reordering under Total Store Order with a non-collapsible LQ.
//!
//! When a load commits out of order over older *non-performed* loads, its
//! cache line must be "locked down": invalidations and evictions to its
//! address are withheld until every older load has performed, so no other
//! core can ever observe the reordering. The [`LockdownMatrix`] tracks each
//! committed load (row, an entry of the Lockdown Table) against the older
//! in-flight loads it passed (columns, LQ entries); a performed load clears
//! its column; a row that reduction-NORs to zero releases its lockdown.
//!
//! [`LockdownTable`] adds the per-address reference counting the paper
//! requires ("multiple lockdowns are allowed for the same address, the
//! acknowledgement ... is returned only when all the lockdowns for that
//! address are released").

use crate::{BitMatrix, BitVec64};
use std::collections::HashMap;

/// Lockdown matrix: rows are Lockdown Table entries (committed loads),
/// columns are LQ entries (in-flight loads).
///
/// # Examples
///
/// ```
/// use orinoco_matrix::{BitVec64, LockdownMatrix};
///
/// let mut ldm = LockdownMatrix::new(4, 8);
/// // A load commits over older non-performed loads in LQ slots 1 and 5.
/// ldm.commit_load(0, &BitVec64::from_indices(8, [1, 5]));
/// assert!(!ldm.ordered(0));
/// ldm.load_performed(1);
/// ldm.load_performed(5);
/// assert!(ldm.ordered(0)); // lockdown can be lifted
/// ```
#[derive(Clone, Debug)]
pub struct LockdownMatrix {
    m: BitMatrix,
}

impl LockdownMatrix {
    /// Creates a lockdown matrix with `ldt` table entries and `lq` LQ
    /// columns.
    #[must_use]
    pub fn new(ldt: usize, lq: usize) -> Self {
        Self { m: BitMatrix::new(ldt, lq) }
    }

    /// Load queue capacity (columns).
    #[must_use]
    pub fn lq_capacity(&self) -> usize {
        self.m.cols()
    }

    /// A speculative load commits out of order: record the older
    /// non-performed loads it passed.
    ///
    /// # Panics
    ///
    /// Panics if `ldt_slot` is out of bounds or the vector length is not
    /// the LQ capacity.
    pub fn commit_load(&mut self, ldt_slot: usize, older_nonperformed: &BitVec64) {
        self.m.write_row(ldt_slot, older_nonperformed);
    }

    /// The load in LQ entry `lq_slot` performed (data arrived in the
    /// cache): clear its column so lockdowns waiting on it make progress.
    ///
    /// # Panics
    ///
    /// Panics if `lq_slot` is out of bounds.
    pub fn load_performed(&mut self, lq_slot: usize) {
        self.m.clear_col(lq_slot);
    }

    /// [`LockdownMatrix::load_performed`] restricted to the LDT rows set in
    /// `row_mask` (bit `r` = row `r` holds a live lockdown). Rows outside
    /// the mask may keep stale bits: a dead row is unobservable until its
    /// next [`LockdownMatrix::commit_load`], whose row write overwrites it
    /// in full. With the mask usually empty or near-empty this replaces the
    /// all-rows column clear by a couple of bit clears.
    ///
    /// # Panics
    ///
    /// Panics if `lq_slot` is out of bounds or the matrix has more than 64
    /// LDT rows.
    pub fn load_performed_masked(&mut self, lq_slot: usize, row_mask: u64) {
        let mut m = row_mask & self.row_mask_all();
        while m != 0 {
            let row = m.trailing_zeros() as usize;
            m &= m - 1;
            self.m.clear(row, lq_slot);
        }
    }

    /// The subset of `row_mask` rows still pinned by the load in LQ entry
    /// `lq_slot` — the word-level form of probing
    /// [`LockdownMatrix::blocks`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `lq_slot` is out of bounds or the matrix has more than 64
    /// LDT rows.
    #[must_use]
    pub fn blocking_rows(&self, lq_slot: usize, row_mask: u64) -> u64 {
        let mut out = 0u64;
        let mut m = row_mask & self.row_mask_all();
        while m != 0 {
            let row = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.m.get(row, lq_slot) {
                out |= 1u64 << row;
            }
        }
        out
    }

    /// `true` if the lockdown in `ldt_slot` is still pinned by the load
    /// in LQ entry `lq_slot`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn blocks(&self, ldt_slot: usize, lq_slot: usize) -> bool {
        self.m.get(ldt_slot, lq_slot)
    }

    /// Re-pins the lockdown in `ldt_slot` on the load in LQ entry
    /// `lq_slot` — a replayed (squashed but architecturally live) blocking
    /// load re-entering the LQ must keep blocking until it re-performs.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn reblock(&mut self, ldt_slot: usize, lq_slot: usize) {
        self.m.set(ldt_slot, lq_slot);
    }

    /// `true` if every older load the committed load passed has performed:
    /// the load is globally *ordered* and its lockdown is lifted.
    ///
    /// # Panics
    ///
    /// Panics if `ldt_slot` is out of bounds.
    #[must_use]
    pub fn ordered(&self, ldt_slot: usize) -> bool {
        self.m.row_is_zero(ldt_slot)
    }

    /// Number of older non-performed loads still pinning this lockdown.
    ///
    /// # Panics
    ///
    /// Panics if `ldt_slot` is out of bounds.
    #[must_use]
    pub fn pending(&self, ldt_slot: usize) -> u32 {
        self.m.row_count(ldt_slot)
    }

    /// Observability: every `(ldt_slot, pending)` pair with a non-zero
    /// pending count — the lockdowns still waiting on older loads. Used
    /// by the verification harness to watch the matrix state evolve.
    #[must_use]
    pub fn pending_rows(&self) -> Vec<(usize, u32)> {
        (0..self.m.rows())
            .filter_map(|r| {
                let c = self.m.row_count(r);
                (c > 0).then_some((r, c))
            })
            .collect()
    }

    /// Observability: the LQ slots a lockdown row is still waiting on.
    ///
    /// # Panics
    ///
    /// Panics if `ldt_slot` is out of bounds.
    #[must_use]
    pub fn waiting_on(&self, ldt_slot: usize) -> Vec<usize> {
        self.m.read_row(ldt_slot).iter_ones().collect()
    }

    /// Clears every row in place (core reset path; keeps the allocation).
    pub fn clear(&mut self) {
        self.m.clear_all();
    }

    /// Mask of all existing LDT rows; mask bits past the capacity are
    /// ignored by the masked scans.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than 64 LDT rows.
    fn row_mask_all(&self) -> u64 {
        let rows = self.m.rows();
        assert!(rows <= 64, "masked scan requires at most 64 LDT rows");
        if rows == 64 { u64::MAX } else { (1u64 << rows) - 1 }
    }
}

/// Lockdown table: per-address reference counts of active lockdowns, with
/// withheld coherence acknowledgements.
///
/// Addresses are cache-line granular (the caller passes line addresses).
#[derive(Clone, Debug, Default)]
pub struct LockdownTable {
    locks: HashMap<u64, u32>,
    withheld: HashMap<u64, u32>,
}

impl LockdownTable {
    /// Creates an empty lockdown table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires a lockdown on `line`.
    pub fn acquire(&mut self, line: u64) {
        *self.locks.entry(line).or_insert(0) += 1;
    }

    /// Releases one lockdown on `line`; returns the number of withheld
    /// invalidation/eviction acknowledgements that may now be sent (zero if
    /// other lockdowns on the line remain).
    ///
    /// # Panics
    ///
    /// Panics if the line has no active lockdown.
    pub fn release(&mut self, line: u64) -> u32 {
        let count = self
            .locks
            .get_mut(&line)
            .unwrap_or_else(|| panic!("release of unlocked line {line:#x}"));
        *count -= 1;
        if *count == 0 {
            self.locks.remove(&line);
            self.withheld.remove(&line).unwrap_or(0)
        } else {
            0
        }
    }

    /// An incoming invalidation or eviction for `line`: returns `true` if
    /// it can be acknowledged immediately, `false` if the ack is withheld
    /// until the lockdowns release.
    pub fn incoming_invalidation(&mut self, line: u64) -> bool {
        if self.locks.contains_key(&line) {
            *self.withheld.entry(line).or_insert(0) += 1;
            false
        } else {
            true
        }
    }

    /// `true` if `line` is currently locked down.
    #[must_use]
    pub fn is_locked(&self, line: u64) -> bool {
        self.locks.contains_key(&line)
    }

    /// Number of active lockdowns across all lines.
    #[must_use]
    pub fn active(&self) -> usize {
        self.locks.values().map(|&c| c as usize).sum()
    }

    /// Observability: the currently locked-down line addresses, sorted
    /// (deterministic for test assertions and trace output).
    #[must_use]
    pub fn locked_lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self.locks.keys().copied().collect();
        lines.sort_unstable();
        lines
    }

    /// Observability: acknowledgements currently withheld for `line`.
    #[must_use]
    pub fn withheld_count(&self, line: u64) -> u32 {
        self.withheld.get(&line).copied().unwrap_or(0)
    }

    /// Drops every lockdown and withheld ack in place (core reset path;
    /// keeps the map capacity).
    pub fn clear(&mut self) {
        self.locks.clear();
        self.withheld.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockdown_lifts_when_older_loads_perform() {
        let mut ldm = LockdownMatrix::new(4, 8);
        ldm.commit_load(2, &BitVec64::from_indices(8, [0, 3]));
        assert_eq!(ldm.pending(2), 2);
        ldm.load_performed(0);
        assert!(!ldm.ordered(2));
        ldm.load_performed(3);
        assert!(ldm.ordered(2));
    }

    #[test]
    fn lockdown_with_no_older_loads_is_immediately_ordered() {
        let mut ldm = LockdownMatrix::new(2, 4);
        ldm.commit_load(0, &BitVec64::new(4));
        assert!(ldm.ordered(0));
    }

    #[test]
    fn performing_one_load_releases_all_rows_waiting_on_it() {
        let mut ldm = LockdownMatrix::new(4, 4);
        ldm.commit_load(0, &BitVec64::from_indices(4, [1]));
        ldm.commit_load(3, &BitVec64::from_indices(4, [1]));
        ldm.load_performed(1);
        assert!(ldm.ordered(0));
        assert!(ldm.ordered(3));
    }

    #[test]
    fn masked_perform_clears_only_live_rows() {
        let mut ldm = LockdownMatrix::new(4, 8);
        ldm.commit_load(0, &BitVec64::from_indices(8, [2]));
        ldm.commit_load(2, &BitVec64::from_indices(8, [2, 5]));
        // Row 0 is "dead" (outside the mask): its stale bit survives.
        ldm.load_performed_masked(2, 0b100);
        assert!(ldm.blocks(0, 2));
        assert!(!ldm.blocks(2, 2));
        assert!(ldm.blocks(2, 5));
        // The next commit_load into the dead row scrubs the stale bit.
        ldm.commit_load(0, &BitVec64::new(8));
        assert!(ldm.ordered(0));
    }

    #[test]
    fn blocking_rows_reports_masked_pinners() {
        let mut ldm = LockdownMatrix::new(8, 8);
        ldm.commit_load(1, &BitVec64::from_indices(8, [3]));
        ldm.commit_load(4, &BitVec64::from_indices(8, [3, 6]));
        ldm.commit_load(6, &BitVec64::from_indices(8, [6]));
        assert_eq!(ldm.blocking_rows(3, u64::MAX), 0b1_0010);
        assert_eq!(ldm.blocking_rows(3, 0b1_0000), 0b1_0000);
        assert_eq!(ldm.blocking_rows(6, u64::MAX), 0b101_0000);
        assert_eq!(ldm.blocking_rows(0, u64::MAX), 0);
    }

    #[test]
    fn table_refcounts_per_line() {
        let mut ldt = LockdownTable::new();
        ldt.acquire(0x40);
        ldt.acquire(0x40);
        ldt.acquire(0x80);
        assert_eq!(ldt.active(), 3);
        assert!(ldt.is_locked(0x40));
        assert_eq!(ldt.release(0x40), 0);
        assert!(ldt.is_locked(0x40)); // one lockdown remains
        assert_eq!(ldt.release(0x40), 0);
        assert!(!ldt.is_locked(0x40));
    }

    #[test]
    fn invalidation_ack_withheld_until_all_lockdowns_release() {
        let mut ldt = LockdownTable::new();
        ldt.acquire(0x100);
        ldt.acquire(0x100);
        assert!(!ldt.incoming_invalidation(0x100)); // withheld
        assert!(!ldt.incoming_invalidation(0x100)); // withheld again
        assert_eq!(ldt.release(0x100), 0);
        // Final release returns the two pending acks.
        assert_eq!(ldt.release(0x100), 2);
        // Subsequent invalidations ack immediately.
        assert!(ldt.incoming_invalidation(0x100));
    }

    #[test]
    fn unlocked_line_acks_immediately() {
        let mut ldt = LockdownTable::new();
        assert!(ldt.incoming_invalidation(0x0));
    }

    #[test]
    #[should_panic(expected = "release of unlocked line")]
    fn release_unlocked_panics() {
        LockdownTable::new().release(0x40);
    }
}
