//! A fixed-capacity bit vector backed by `u64` words.
//!
//! [`BitVec64`] is the software analogue of the hardware bit vectors that
//! flow through Orinoco's matrix schedulers (the `VLD`, `BID`, `SPEC` and
//! `CRI` vectors of the paper). All hot operations — bitwise AND combined
//! with a population count, reduction NOR, masked updates — are performed a
//! word at a time so that an `n`-entry vector costs `n/64` machine
//! operations, mirroring the O(1)-per-instruction cost the PIM hardware
//! achieves with bit-line computing.

use std::fmt;

/// A fixed-capacity bit vector.
///
/// The capacity is fixed at construction; bits beyond the capacity are
/// guaranteed to be zero at all times (every mutating operation maintains
/// this invariant), which lets whole-word operations such as
/// [`BitVec64::and_count`] run without masking.
///
/// # Examples
///
/// ```
/// use orinoco_matrix::BitVec64;
///
/// let mut v = BitVec64::new(128);
/// v.set(3);
/// v.set(100);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(100));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec64 {
    words: Vec<u64>,
    len: usize,
}

impl Default for BitVec64 {
    /// An empty (zero-length) bit vector; allocation-free, so
    /// `std::mem::take` can be used to split borrows of scratch buffers.
    fn default() -> Self {
        Self::new(0)
    }
}

impl BitVec64 {
    /// Creates a new bit vector with `len` bits, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit vector with `len` bits, all one.
    ///
    /// # Examples
    ///
    /// ```
    /// use orinoco_matrix::BitVec64;
    /// let v = BitVec64::ones(70);
    /// assert_eq!(v.count_ones(), 70);
    /// ```
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self::new(len);
        v.set_all();
        v
    }

    /// Builds a bit vector of `len` bits with the given indices set.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut v = Self::new(len);
        for i in indices {
            v.set(i);
        }
        v
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Writes bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets every bit to one.
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.mask_tail();
    }

    /// Clears every bit to zero.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `true` if no bit is set (the hardware "reduction NOR" of the paper).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Population count of `self & other` without materialising the AND.
    ///
    /// This is the **bit count encoding** primitive of the paper (§3.1): a
    /// ready instruction ANDs its age-matrix row with the `BID` vector and
    /// counts the ones; a count below the issue width grants issue.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    #[must_use]
    pub fn and_count(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "length mismatch in and_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `true` if `self & other` has no set bit (AND followed by reduction
    /// NOR — the grant test of the classic age matrix and of the commit
    /// dependency check).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    #[must_use]
    pub fn and_is_zero(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "length mismatch in and_is_zero");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "length mismatch in or_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "length mismatch in and_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other` (clears every bit that is set in `other`).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn and_not_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "length mismatch in and_not_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `self & other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `!self` (restricted to the capacity) as a new vector.
    #[must_use]
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// Overwrites `self` with the contents of `other` without allocating.
    ///
    /// This is the in-place analogue of `clone()` used by the scratch-buffer
    /// hot paths (the derived `Clone` always allocates a fresh word vector).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "length mismatch in copy_from");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over the indices of the set bits in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use orinoco_matrix::BitVec64;
    /// let v = BitVec64::from_indices(80, [2, 65, 79]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![2, 65, 79]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes::from_words(&self.words)
    }

    /// Iterates over the indices set in **both** `self` and `other`, in
    /// ascending order, without materialising the AND vector. This is the
    /// allocation-free counterpart of `self.and(other).iter_ones()`.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use orinoco_matrix::BitVec64;
    /// let a = BitVec64::from_indices(80, [2, 65, 79]);
    /// let b = BitVec64::from_indices(80, [2, 66, 79]);
    /// assert_eq!(a.iter_ones_and(&b).collect::<Vec<_>>(), vec![2, 79]);
    /// ```
    pub fn iter_ones_and<'a>(&'a self, other: &'a Self) -> IterOnesAnd<'a> {
        assert_eq!(self.len, other.len, "length mismatch in iter_ones_and");
        IterOnesAnd {
            a: &self.words,
            b: &other.words,
            word_idx: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(x), Some(y)) => x & y,
                _ => 0,
            },
        }
    }

    /// Raw word access (read-only), used by [`crate::BitMatrix`] internals.
    #[must_use]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Raw word access (mutable), used by [`crate::BitMatrix`] internals.
    /// Callers must preserve the tail-bits-are-zero invariant.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec64[{}]{{", self.len)?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for BitVec64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec64 {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut v = Self::new(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                v.set(i);
            }
        }
        v
    }
}

/// Iterator over set-bit indices of a [`BitVec64`], produced by
/// [`BitVec64::iter_ones`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> IterOnes<'a> {
    /// Builds an iterator straight over a word slice, so [`crate::BitMatrix`]
    /// can iterate a row's set bits without copying the row out first.
    pub(crate) fn from_words(words: &'a [u64]) -> Self {
        Self {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Iterator over the intersection of two [`BitVec64`]s, produced by
/// [`BitVec64::iter_ones_and`]. ANDs one word pair at a time, so no
/// intermediate vector is ever allocated.
pub struct IterOnesAnd<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnesAnd<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & self.b[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let v = BitVec64::new(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
        for i in 0..130 {
            assert!(!v.get(i));
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec64::new(100);
        for i in [0, 1, 63, 64, 65, 99] {
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 6);
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn assign_matches_set_clear() {
        let mut v = BitVec64::new(10);
        v.assign(3, true);
        assert!(v.get(3));
        v.assign(3, false);
        assert!(!v.get(3));
    }

    #[test]
    fn ones_respects_capacity() {
        let v = BitVec64::ones(70);
        assert_eq!(v.count_ones(), 70);
        // tail bits beyond capacity stay clear: not() must also mask
        let n = v.not();
        assert!(n.is_zero());
    }

    #[test]
    fn set_all_then_not_is_zero() {
        let mut v = BitVec64::new(64);
        v.set_all();
        assert_eq!(v.count_ones(), 64);
        assert!(v.not().is_zero());
    }

    #[test]
    fn and_count_counts_intersection() {
        let a = BitVec64::from_indices(128, [1, 2, 3, 70, 100]);
        let b = BitVec64::from_indices(128, [2, 3, 100, 127]);
        assert_eq!(a.and_count(&b), 3);
        assert!(!a.and_is_zero(&b));
        let c = BitVec64::from_indices(128, [0, 127]);
        assert_eq!(a.and_count(&c), 0);
        assert!(a.and_is_zero(&c));
    }

    #[test]
    fn logical_ops() {
        let mut a = BitVec64::from_indices(65, [0, 64]);
        let b = BitVec64::from_indices(65, [0, 1]);
        a.or_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 1, 64]);
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        a.and_not_assign(&BitVec64::from_indices(65, [1]));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn and_returns_new() {
        let a = BitVec64::from_indices(10, [1, 2]);
        let b = BitVec64::from_indices(10, [2, 3]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![2]);
        // originals untouched
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn iter_ones_empty_and_full() {
        assert_eq!(BitVec64::new(100).iter_ones().count(), 0);
        assert_eq!(BitVec64::ones(100).iter_ones().count(), 100);
        assert_eq!(BitVec64::new(0).iter_ones().count(), 0);
    }

    #[test]
    fn from_iterator_of_bools() {
        let v: BitVec64 = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let v = BitVec64::from_indices(4, [1]);
        assert_eq!(format!("{v}"), "0100");
        assert_eq!(format!("{v:?}"), "BitVec64[4]{1}");
        let e = BitVec64::new(0);
        assert!(!format!("{e:?}").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_set_panics() {
        BitVec64::new(8).set(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_and_count_panics() {
        let _ = BitVec64::new(8).and_count(&BitVec64::new(9));
    }
}
