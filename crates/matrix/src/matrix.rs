//! A dense bit matrix with row-major storage and efficient column writes.
//!
//! [`BitMatrix`] is the raw fabric underneath every matrix scheduler in this
//! crate. In the paper the same fabric is an 8T SRAM array: a row write is a
//! (multi-bank) word-line write, a column clear is the dual-supply-voltage
//! column-wise write of §4.2, and the row AND/NOR/bit-count reads are the
//! bit-line computing operations of §4.1.

use crate::bitvec::IterOnes;
use crate::BitVec64;
use std::fmt;

/// A dense `rows × cols` bit matrix.
///
/// Rows are stored contiguously as `u64` words so that the per-row
/// operations used by the schedulers (`row & vector`, popcount, reduction
/// NOR) run a word at a time.
///
/// # Examples
///
/// ```
/// use orinoco_matrix::{BitMatrix, BitVec64};
///
/// let mut m = BitMatrix::new(4, 4);
/// m.set(1, 0); // instruction 1's row says: entry 0 is older
/// let bid = BitVec64::from_indices(4, [0]);
/// assert_eq!(m.row_and_count(1, &bid), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    words_per_row: usize,
}

impl BitMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            words: vec![0; rows * words_per_row],
            rows,
            cols,
            words_per_row,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        debug_assert!(r < self.rows);
        let start = r * self.words_per_row;
        start..start + self.words_per_row
    }

    /// Sets the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(row < self.rows && col < self.cols, "({row},{col}) out of bounds");
        self.words[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Clears the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn clear(&mut self, row: usize, col: usize) {
        assert!(row < self.rows && col < self.cols, "({row},{col}) out of bounds");
        self.words[row * self.words_per_row + col / 64] &= !(1u64 << (col % 64));
    }

    /// Reads the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "({row},{col}) out of bounds");
        (self.words[row * self.words_per_row + col / 64] >> (col % 64)) & 1 == 1
    }

    /// Overwrites `row` with the contents of `bits`.
    ///
    /// This is the dispatch-time row write of the schedulers.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `bits.len() != cols`.
    pub fn write_row(&mut self, row: usize, bits: &BitVec64) {
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        let range = self.row_range(row);
        self.words[range].copy_from_slice(bits.words());
    }

    /// Sets every bit of `row` to one.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn set_row_all(&mut self, row: usize) {
        let range = self.row_range(row);
        for w in &mut self.words[range] {
            *w = u64::MAX;
        }
        let tail = self.cols % 64;
        if tail != 0 {
            let last = (row + 1) * self.words_per_row - 1;
            self.words[last] &= (1u64 << tail) - 1;
        }
    }

    /// Clears every bit of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn clear_row(&mut self, row: usize) {
        let range = self.row_range(row);
        for w in &mut self.words[range] {
            *w = 0;
        }
    }

    /// `row |= bits`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `bits.len() != cols`.
    pub fn row_or_assign(&mut self, row: usize, bits: &BitVec64) {
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        let range = self.row_range(row);
        for (w, b) in self.words[range].iter_mut().zip(bits.words()) {
            *w |= b;
        }
    }

    /// Clears column `col` in every row (the column-wise clear of §4.2).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn clear_col(&mut self, col: usize) {
        assert!(col < self.cols, "column {col} out of bounds");
        let word = col / 64;
        let mask = !(1u64 << (col % 64));
        for r in 0..self.rows {
            self.words[r * self.words_per_row + word] &= mask;
        }
    }

    /// Clears column `col` only in the rows selected by `row_mask`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds or `row_mask.len() != rows`.
    pub fn clear_col_masked(&mut self, col: usize, row_mask: &BitVec64) {
        assert!(col < self.cols, "column {col} out of bounds");
        assert_eq!(row_mask.len(), self.rows, "row mask length mismatch");
        let word = col / 64;
        let mask = !(1u64 << (col % 64));
        let wpr = self.words_per_row;
        for (wi, &mw) in row_mask.words().iter().enumerate() {
            let mut m = mw;
            let base = wi * 64 * wpr + word;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                m &= m - 1;
                self.words[base + r * wpr] &= mask;
            }
        }
    }

    /// Sets column `col` only in the rows selected by `row_mask`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds or `row_mask.len() != rows`.
    pub fn set_col_masked(&mut self, col: usize, row_mask: &BitVec64) {
        assert!(col < self.cols, "column {col} out of bounds");
        assert_eq!(row_mask.len(), self.rows, "row mask length mismatch");
        let word = col / 64;
        let bit = 1u64 << (col % 64);
        let wpr = self.words_per_row;
        for (wi, &mw) in row_mask.words().iter().enumerate() {
            let mut m = mw;
            let base = wi * 64 * wpr + word;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                m &= m - 1;
                self.words[base + r * wpr] |= bit;
            }
        }
    }

    /// Reads column `col` as a [`BitVec64`] of length `rows` (the
    /// column-wise read of §4.2, used for memory disambiguation and
    /// instruction squash).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn read_col(&self, col: usize) -> BitVec64 {
        let mut out = BitVec64::new(self.rows);
        self.read_col_into(col, &mut out);
        out
    }

    /// Reads column `col` into a caller-owned [`BitVec64`] of length `rows`
    /// (the allocation-free counterpart of [`BitMatrix::read_col`]).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds or `out.len() != rows`.
    pub fn read_col_into(&self, col: usize, out: &mut BitVec64) {
        assert!(col < self.cols, "column {col} out of bounds");
        assert_eq!(out.len(), self.rows, "column buffer length mismatch");
        let word = col / 64;
        let shift = col % 64;
        let out_words = out.words_mut();
        for w in out_words.iter_mut() {
            *w = 0;
        }
        for r in 0..self.rows {
            let bit = (self.words[r * self.words_per_row + word] >> shift) & 1;
            out_words[r / 64] |= bit << (r % 64);
        }
    }

    /// Copies row `row` into a fresh [`BitVec64`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn read_row(&self, row: usize) -> BitVec64 {
        let mut out = BitVec64::new(self.cols);
        self.read_row_into(row, &mut out);
        out
    }

    /// Copies row `row` word-at-a-time into a caller-owned [`BitVec64`]
    /// (the allocation-free counterpart of [`BitMatrix::read_row`],
    /// mirroring [`BitMatrix::write_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `out.len() != cols`.
    pub fn read_row_into(&self, row: usize, out: &mut BitVec64) {
        assert_eq!(out.len(), self.cols, "row buffer length mismatch");
        let range = self.row_range(row);
        out.words_mut().copy_from_slice(&self.words[range]);
    }

    /// Iterates over the column indices of the set bits of `row`, without
    /// copying the row out first — the word-at-a-time row scan used by the
    /// grant and wakeup hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn iter_row_ones(&self, row: usize) -> IterOnes<'_> {
        let range = self.row_range(row);
        IterOnes::from_words(&self.words[range])
    }

    /// Popcount of `row & mask` — the bit count encoding read (§3.1/§4.1).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `mask.len() != cols`.
    #[inline]
    #[must_use]
    pub fn row_and_count(&self, row: usize, mask: &BitVec64) -> u32 {
        assert_eq!(mask.len(), self.cols, "mask width mismatch");
        let range = self.row_range(row);
        self.words[range]
            .iter()
            .zip(mask.words())
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `true` if `row & mask` has no set bit (AND + reduction NOR).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `mask.len() != cols`.
    #[inline]
    #[must_use]
    pub fn row_and_is_zero(&self, row: usize, mask: &BitVec64) -> bool {
        assert_eq!(mask.len(), self.cols, "mask width mismatch");
        let range = self.row_range(row);
        self.words[range]
            .iter()
            .zip(mask.words())
            .all(|(a, b)| a & b == 0)
    }

    /// Popcount of `row & a & b` without materialising `a & b`.
    ///
    /// Lets the schedulers rank against `request & valid` (or any other
    /// vector pair) without allocating the intermediate AND.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or either mask has a length other
    /// than `cols`.
    #[inline]
    #[must_use]
    pub fn row_and2_count(&self, row: usize, a: &BitVec64, b: &BitVec64) -> u32 {
        assert_eq!(a.len(), self.cols, "mask width mismatch");
        assert_eq!(b.len(), self.cols, "mask width mismatch");
        let range = self.row_range(row);
        self.words[range]
            .iter()
            .zip(a.words().iter().zip(b.words()))
            .map(|(w, (x, y))| (w & x & y).count_ones())
            .sum()
    }

    /// `true` if `row & a & b` has no set bit, without materialising
    /// `a & b`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or either mask has a length other
    /// than `cols`.
    #[inline]
    #[must_use]
    pub fn row_and2_is_zero(&self, row: usize, a: &BitVec64, b: &BitVec64) -> bool {
        assert_eq!(a.len(), self.cols, "mask width mismatch");
        assert_eq!(b.len(), self.cols, "mask width mismatch");
        let range = self.row_range(row);
        self.words[range]
            .iter()
            .zip(a.words().iter().zip(b.words()))
            .all(|(w, (x, y))| w & x & y == 0)
    }

    /// `true` if every bit of `row` is zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    #[must_use]
    pub fn row_is_zero(&self, row: usize) -> bool {
        let range = self.row_range(row);
        self.words[range].iter().all(|&w| w == 0)
    }

    /// Number of set bits in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    #[must_use]
    pub fn row_count(&self, row: usize) -> u32 {
        let range = self.row_range(row);
        self.words[range].iter().map(|w| w.count_ones()).sum()
    }

    /// Clears the whole matrix.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let m = BitMatrix::new(5, 70);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 70);
        for r in 0..5 {
            assert!(m.row_is_zero(r));
        }
    }

    #[test]
    fn set_get_clear() {
        let mut m = BitMatrix::new(3, 130);
        m.set(2, 129);
        assert!(m.get(2, 129));
        assert!(!m.get(1, 129));
        m.clear(2, 129);
        assert!(!m.get(2, 129));
    }

    #[test]
    fn set_row_all_masks_tail() {
        let mut m = BitMatrix::new(2, 70);
        m.set_row_all(0);
        assert_eq!(m.row_count(0), 70);
        assert_eq!(m.row_count(1), 0);
        // read back
        let row = m.read_row(0);
        assert_eq!(row.count_ones(), 70);
    }

    #[test]
    fn write_and_read_row() {
        let mut m = BitMatrix::new(4, 100);
        let bits = BitVec64::from_indices(100, [0, 64, 99]);
        m.write_row(2, &bits);
        assert_eq!(m.read_row(2), bits);
        assert!(m.get(2, 64));
    }

    #[test]
    fn row_or_assign_merges() {
        let mut m = BitMatrix::new(2, 10);
        m.set(0, 1);
        m.row_or_assign(0, &BitVec64::from_indices(10, [3]));
        assert_eq!(m.read_row(0).iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn clear_col_clears_every_row() {
        let mut m = BitMatrix::new(4, 4);
        for r in 0..4 {
            m.set_row_all(r);
        }
        m.clear_col(2);
        for r in 0..4 {
            assert!(!m.get(r, 2));
            assert_eq!(m.row_count(r), 3);
        }
    }

    #[test]
    fn clear_col_masked_respects_mask() {
        let mut m = BitMatrix::new(4, 4);
        for r in 0..4 {
            m.set_row_all(r);
        }
        m.clear_col_masked(1, &BitVec64::from_indices(4, [0, 3]));
        assert!(!m.get(0, 1));
        assert!(m.get(1, 1));
        assert!(m.get(2, 1));
        assert!(!m.get(3, 1));
    }

    #[test]
    fn set_col_masked_sets_only_masked_rows() {
        let mut m = BitMatrix::new(4, 4);
        m.set_col_masked(3, &BitVec64::from_indices(4, [1]));
        assert!(m.get(1, 3));
        assert!(!m.get(0, 3));
    }

    #[test]
    fn read_col_roundtrip() {
        let mut m = BitMatrix::new(6, 3);
        m.set(1, 2);
        m.set(4, 2);
        let col = m.read_col(2);
        assert_eq!(col.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn row_and_count_and_is_zero() {
        let mut m = BitMatrix::new(2, 128);
        m.set(0, 5);
        m.set(0, 100);
        let mask = BitVec64::from_indices(128, [5, 100, 101]);
        assert_eq!(m.row_and_count(0, &mask), 2);
        assert!(!m.row_and_is_zero(0, &mask));
        assert!(m.row_and_is_zero(1, &mask));
        let empty = BitVec64::new(128);
        assert!(m.row_and_is_zero(0, &empty));
    }

    #[test]
    fn non_square_shapes() {
        // LQ x SQ style rectangle (72 x 56 in the paper)
        let mut m = BitMatrix::new(72, 56);
        m.set(71, 55);
        assert!(m.get(71, 55));
        m.clear_col(55);
        assert!(!m.get(71, 55));
    }

    #[test]
    fn clear_all_resets() {
        let mut m = BitMatrix::new(3, 3);
        m.set_row_all(1);
        m.clear_all();
        assert!(m.row_is_zero(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        BitMatrix::new(2, 2).set(2, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = BitMatrix::new(2, 2);
        assert!(format!("{m:?}").contains("BitMatrix 2x2"));
    }
}
