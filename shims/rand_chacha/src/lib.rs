//! Offline stand-in for `rand_chacha`: a genuine ChaCha8 block cipher in
//! counter mode, exposed through the shim `rand` traits.
//!
//! The keystream is a faithful ChaCha implementation (the IETF variant's
//! quarter-round and state layout), but no attempt is made to match the
//! upstream crate's exact word-consumption order — the workspace only
//! relies on determinism per seed, which this provides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// A ChaCha8 random number generator.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key words 4..12 and counter/nonce words 12..16 of the initial state.
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next unread word within `block`; 16 forces a refill.
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&w, &s)) in self.block.iter_mut().zip(working.iter().zip(&self.state)) {
            *out = w.wrapping_add(s);
        }
        self.index = 0;
        // 64-bit block counter in words 12–13.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        // "expand 32-byte k" constants, then the 256-bit key, then
        // counter = 0 and zero nonce.
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            state,
            block: [0; 16],
            index: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        let mut c = ChaCha8Rng::seed_from_u64(124);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn words_look_uniform() {
        // Crude sanity: mean of 10k unit draws within [0.45, 0.55].
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mean: f64 = (0..10_000).map(|_| rng.random::<f64>()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn counter_advances_across_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }
}
