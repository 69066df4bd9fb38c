//! Word-boundary property tests for the [`BitVec64`] kernels the paper's
//! circuits depend on: the bit-count primitive (`and_count`, §3.1) and
//! the reduction-NOR zero-detect (`and_is_zero`/`is_zero`, §4) must equal
//! naive `Vec<bool>` references exactly at and around the 64-bit word
//! boundary (63/64/65 bits), where tail-masking bugs live.

use orinoco_matrix::BitVec64;
use orinoco_util::{prop, Rng};

/// Sizes straddling the word boundary, plus the two-word boundary.
const SIZES: [usize; 8] = [1, 7, 63, 64, 65, 127, 128, 129];

/// Random `BitVec64` plus its boolean-vector mirror.
fn random_vec(rng: &mut Rng, n: usize) -> (BitVec64, Vec<bool>) {
    let bits: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
    let bv = BitVec64::from_indices(n, (0..n).filter(|&i| bits[i]));
    (bv, bits)
}

/// `and_count` (popcount of the AND — the bit-count encoding primitive)
/// equals the naive element-wise reference at every boundary size.
#[test]
fn and_count_matches_reference_at_word_boundaries() {
    prop::check("and_count_boundaries", 0xB17C0, |rng| {
        for n in SIZES {
            let (a, ab) = random_vec(rng, n);
            let (b, bb) = random_vec(rng, n);
            let want = (0..n).filter(|&i| ab[i] && bb[i]).count() as u32;
            assert_eq!(a.and_count(&b), want, "n={n}");
            // popcount of self agrees too
            assert_eq!(a.count_ones(), ab.iter().filter(|&&x| x).count() as u32);
        }
    });
}

/// Reduction-NOR zero-detect: `and_is_zero` and `is_zero` equal the naive
/// references, including with bits set exactly at positions 62/63/64.
#[test]
fn reduction_nor_matches_reference_at_word_boundaries() {
    prop::check("reduction_nor_boundaries", 0xB17C1, |rng| {
        for n in SIZES {
            let (a, ab) = random_vec(rng, n);
            let (b, bb) = random_vec(rng, n);
            let want_and_zero = !(0..n).any(|i| ab[i] && bb[i]);
            assert_eq!(a.and_is_zero(&b), want_and_zero, "n={n}");
            assert_eq!(a.is_zero(), ab.iter().all(|&x| !x), "n={n}");
        }
    });
}

/// A single bit walked across the boundary positions is always seen by
/// both the count and the NOR, and never leaks into the masked tail.
#[test]
fn single_bit_walk_across_boundary() {
    for n in [63usize, 64, 65, 128, 129] {
        for i in 0..n {
            let mut v = BitVec64::new(n);
            v.set(i);
            assert_eq!(v.count_ones(), 1, "n={n} i={i}");
            assert!(!v.is_zero(), "n={n} i={i}");
            let ones = BitVec64::ones(n);
            assert_eq!(v.and_count(&ones), 1, "n={n} i={i}");
            assert!(!v.and_is_zero(&ones), "n={n} i={i}");
            // Complement holds everything except bit i.
            let inv = v.not();
            assert_eq!(inv.count_ones() as usize, n - 1, "n={n} i={i}");
            assert!(v.and_is_zero(&inv), "n={n} i={i}");
            v.clear(i);
            assert!(v.is_zero(), "n={n} i={i}");
        }
    }
}

/// The masked tail of the last word never contributes to counts even
/// after operations that set whole words (`ones`, `not`, `or_assign`).
#[test]
fn tail_bits_never_leak() {
    for n in [63usize, 64, 65, 127, 129] {
        let ones = BitVec64::ones(n);
        assert_eq!(ones.count_ones() as usize, n);
        let zero = BitVec64::new(n);
        let inverted = zero.not();
        assert_eq!(inverted.count_ones() as usize, n, "n={n}");
        assert_eq!(inverted.and_count(&ones) as usize, n, "n={n}");
        let mut acc = BitVec64::new(n);
        acc.or_assign(&inverted);
        assert_eq!(acc.count_ones() as usize, n, "n={n}");
        assert_eq!(acc.iter_ones().count(), n, "n={n}");
    }
}

/// `iter_ones_and` (the candidate scan of the select and commit queries)
/// yields exactly the indices set in both vectors, in ascending order, at
/// every boundary size.
#[test]
fn iter_ones_and_matches_naive_loop() {
    prop::check("iter_ones_and", 0xB17C2, |rng| {
        for n in SIZES {
            let (a, ab) = random_vec(rng, n);
            let (b, bb) = random_vec(rng, n);
            let both: Vec<usize> = (0..n).filter(|&i| ab[i] && bb[i]).collect();
            assert_eq!(a.iter_ones_and(&b).collect::<Vec<_>>(), both, "n={n}");
        }
    });
}
