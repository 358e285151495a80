//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the real `rand` cannot
//! be fetched; this vendored shim implements exactly the API subset the
//! workspace uses (`Rng::random`, `Rng::random_range`, `Rng::random_bool`,
//! `SeedableRng`). Generators only need determinism and reasonable
//! statistical quality — they never promise stream compatibility with the
//! upstream crate — so a faithful ChaCha core (in the sibling
//! `rand_chacha` shim) behind these traits is sufficient.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform random word source (the upstream `RngCore`).
pub trait RngCore {
    /// Next uniform 32-bit word.
    fn next_u32(&mut self) -> u32;
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable uniformly from an `RngCore` via [`Rng::random`]
/// (upstream's `StandardUniform` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

/// Integer types with an unbiased bounded-uniform sampler, enabling range
/// sampling through [`Rng::random_range`].
pub trait UniformInt: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`; `high > low`.
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// The successor (for inclusive ranges); `None` on overflow.
    fn checked_succ(self) -> Option<Self>;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                debug_assert!(high > low);
                let span = (high as u64).wrapping_sub(low as u64);
                // Rejection sampling on the top multiple of `span`.
                let zone = u64::MAX - (u64::MAX % span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return low + (v % span) as $t;
                    }
                }
            }
            fn checked_succ(self) -> Option<Self> {
                self.checked_add(1)
            }
        }
    )*};
}

impl_uniform_uint!(usize, u64, u32, u16, u8);

macro_rules! impl_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                debug_assert!(high > low);
                let span = (high as $u).wrapping_sub(low as $u) as u64;
                let zone = u64::MAX - (u64::MAX % span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return low.wrapping_add((v % span) as $t);
                    }
                }
            }
            fn checked_succ(self) -> Option<Self> {
                self.checked_add(1)
            }
        }
    )*};
}

impl_uniform_int!(isize => usize, i64 => u64, i32 => u32);

/// Range arguments accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from an empty range");
        T::sample_below(rng, self.start, self.end)
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample from an empty range");
        match hi.checked_succ() {
            Some(end) => T::sample_below(rng, lo, end),
            None => unimplemented!("inclusive range ending at the type maximum"),
        }
    }
}

/// User-facing sampling methods, mirroring `rand 0.9`'s `Rng`.
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution (`f64` in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (half-open or inclusive integer range).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of [0, 1]: {p}");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministically seedable generators, mirroring upstream `SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type (e.g. `[u8; 32]`).
    type Seed: AsMut<[u8]> + Default;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` by expanding it with SplitMix64 (the same
    /// convention upstream uses, so small seeds diffuse well).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            for (b, s) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *b = s;
            }
        }
        Self::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Lcg(42);
        for _ in 0..2000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(0usize..=5);
            assert!(w <= 5);
            let s = rng.random_range(-4i64..4);
            assert!((-4..4).contains(&s));
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Lcg(7);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = Lcg(9);
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Lcg(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
