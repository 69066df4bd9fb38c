//! Deterministic utilities shared across the Orinoco workspace: a seeded
//! PRNG with a `rand`-flavoured API, the raw xorshift64\* and SplitMix64
//! steps, a panic-payload formatter, a miniature property-test harness,
//! an order-preserving thread pool, the server's worker mailboxes and a
//! counting allocator for allocation-regression tests.
//!
//! The workspace must build with **no network access and no external
//! crates**; this crate replaces the `rand` and `proptest`
//! dependencies that the seed tree declared but could never resolve. All
//! randomness is seeded explicitly — there is deliberately no constructor
//! reading ambient entropy, so every test, fuzz run and workload build is
//! reproducible from a `u64`.
//!
//! # Example
//!
//! ```
//! use orinoco_util::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let a = rng.gen_range(0..100u64);
//! let b = Rng::seed_from_u64(42).gen_range(0..100u64);
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc_counter;
pub mod mailbox;
pub mod pool;
pub mod prop;

use std::ops::Range;

/// One step of SplitMix64: advances `state` by the golden-ratio increment
/// and returns its mixed image. It initialises the xoshiro state below
/// (so nearby seeds diverge immediately) and is the sampler's jitter and
/// k-means seeding stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of xorshift64\*: advances `state` (which must be non-zero) and
/// returns the scrambled output. It is the simulator's one cheap
/// per-structure stream: wrong-path synthesis, the warm pollution model,
/// the issue queue's random picks and TAGE's allocation choice.
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The text of a caught panic's payload: the `&str` or `String` that
/// `panic!` carried, or `"non-string panic payload"` for anything else.
/// Pass the payload itself (`&*boxed`), not a reference to its box.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic xoshiro256\*\* PRNG.
///
/// Not cryptographic; statistically strong enough for workload data,
/// fuzzing and property tests. The API mirrors the subset of `rand`
/// the workspace used, so call sites port with a `use` swap.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is a pure function of `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one forbidden xoshiro state; splitmix64
        // cannot produce four zeros from any seed, but keep the guard.
        if s == [0; 4] {
            s[0] = 0x0DDB_1A5E_5BAD_5EED;
        }
        Self { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform value of a primitive integer (or bool) type.
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform value in `range` (half-open, `start < end` required).
    ///
    /// Uses a simple modulo reduction: the bias is below 2⁻³² for every
    /// span the workspace uses and irrelevant for test-data generation.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

/// Types producible uniformly from the raw 64-bit stream ([`Rng::gen`]).
pub trait FromRng {
    /// Draws one uniform value.
    fn from_rng(rng: &mut Rng) -> Self;
}

macro_rules! impl_from_rng {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn from_rng(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng!(u64, i64, u32, i32, u16, i16, u8, i8, usize);

impl FromRng for bool {
    fn from_rng(rng: &mut Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a half-open range ([`Rng::gen_range`]).
pub trait SampleUniform: Sized {
    /// Draws one value in `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_sample_unsigned!(u64, u32, u16, u8, usize);

macro_rules! impl_sample_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i64).wrapping_sub(range.start as i64) as u64;
                range.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_sample_signed!(i64, i32, i16, i8);

/// `rand::seq::SliceRandom`-style extension so `data.shuffle(&mut rng)`
/// call sites keep their shape.
pub trait SliceRandom {
    /// Shuffles the slice in place.
    fn shuffle(&mut self, rng: &mut Rng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::seed_from_u64(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(-50..50i64);
            assert!((-50..50).contains(&v));
            let u = r.gen_range(3..17usize);
            assert!((3..17).contains(&u));
        }
        // Extreme span used by the workload builders.
        for _ in 0..1_000 {
            let v = r.gen_range(1..i64::MAX);
            assert!(v >= 1);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }
}
