//! The benchmark's own random stream (splitmix64).
//!
//! Every input the benchmark invents — which mesh edges to drop, which
//! endpoints a serving batch inserts, which vertices a query burst asks
//! about, which indices a probe gathers — comes from this generator, so
//! the libraries under test receive only generated inputs and `--seed`
//! alone fixes a run.

/// splitmix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A stream for sub-purpose `stream` of `seed` (instance number, rank,
    /// probe id): decorrelated from `new(seed)` and from other streams.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(base.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (multiply-shift; the bias is below 2⁻³² for
    /// every bound the benchmark uses).
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
        let mut x = SplitMix64::derive(7, 0);
        let mut y = SplitMix64::derive(7, 1);
        let mut z = SplitMix64::derive(8, 0);
        let (x0, y0, z0) = (x.next_u64(), y.next_u64(), z.next_u64());
        assert!(x0 != y0 && x0 != z0 && y0 != z0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        for bound in [1usize, 2, 3, 1000, 1 << 20] {
            for _ in 0..100 {
                assert!(r.below(bound) < bound);
            }
        }
    }
}
