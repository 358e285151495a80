//! Offline stand-in for `rand_chacha`: a genuine ChaCha8 block cipher in
//! counter mode, exposed through the shim `rand` traits.
//!
//! The keystream is a faithful ChaCha implementation (the IETF variant's
//! quarter-round and state layout), but no attempt is made to match the
//! upstream crate's exact word-consumption order — the workspace only
//! relies on determinism per seed, which this provides.
//!
//! The stream is counter mode: block `b` is the cipher of counter `b`
//! (a 64-bit block index in state words 12–13), and word `w` of the
//! stream is word `w % 16` of block `w / 16`. [`ChaCha8Rng::set_word_pos`]
//! seeks to any word in constant time. It has upstream's name and word
//! semantics: after `set_word_pos(w)` the generator reads exactly what a
//! fresh one reads after `w` calls to `next_u32`, and `next_u64` is two
//! consecutive words, low word first.

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
    /// Positions the generator at word `word_offset` of its stream, in
    /// 32-bit words from the start (upstream's `set_word_pos`). The stream
    /// cycles after 2^64 blocks, so bits of the offset past 2^68 are
    /// ignored.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = (word_offset >> 4) as u64;
        self.state[12] = block as u32;
        self.state[13] = (block >> 32) as u32;
        self.refill();
        self.index = (word_offset & 15) as usize;
    }

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
        if let Some(&[lo, hi]) = self.block.get(self.index..self.index + 2) {
            self.index += 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
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

    /// The next `k` words of `rng`.
    fn words(rng: &mut ChaCha8Rng, k: usize) -> Vec<u32> {
        (0..k).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn set_word_pos_equals_skipping_words() {
        for w in [0u128, 1, 15, 16, 17, 777] {
            let mut skipped = ChaCha8Rng::seed_from_u64(42);
            for _ in 0..w {
                skipped.next_u32();
            }
            let mut sought = ChaCha8Rng::seed_from_u64(42);
            // Read first, so the seek has to discard a buffered block.
            sought.next_u64();
            sought.set_word_pos(w);
            assert_eq!(words(&mut sought, 40), words(&mut skipped, 40), "w = {w}");
        }
    }

    #[test]
    fn set_word_pos_carries_the_block_index_into_word_13() {
        // Start three words before block 2^32: reading on crosses the
        // point where the low counter word wraps.
        let start = (1u128 << 36) - 3;
        let mut read_on = ChaCha8Rng::seed_from_u64(9);
        read_on.set_word_pos(start);
        let run = words(&mut read_on, 40);
        for j in 0..40 {
            let mut sought = ChaCha8Rng::seed_from_u64(9);
            sought.set_word_pos(start + j as u128);
            assert_eq!(words(&mut sought, 40 - j), run[j..], "j = {j}");
        }
        // A lost carry would replay block 0 at block 2^32.
        let mut origin = ChaCha8Rng::seed_from_u64(9);
        assert_ne!(run[3..19], words(&mut origin, 16));
    }

    #[test]
    fn next_u64_is_two_words_at_every_offset() {
        for offset in 0..=16u128 {
            let mut wide = ChaCha8Rng::seed_from_u64(5);
            let mut narrow = ChaCha8Rng::seed_from_u64(5);
            wide.set_word_pos(offset);
            narrow.set_word_pos(offset);
            for _ in 0..20 {
                let lo = u64::from(narrow.next_u32());
                let hi = u64::from(narrow.next_u32());
                assert_eq!(wide.next_u64(), lo | (hi << 32), "offset {offset}");
            }
        }
    }
}
