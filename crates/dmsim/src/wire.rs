//! The wire formats of everything the simulator ships in encoded form.
//!
//! There is one codec per stream kind and no negotiated state: a stream's
//! encoding is readable from the stream itself, so the α-β cost model
//! charges what a sender actually ships (`⌈len/8⌉` words, `len` bytes)
//! with no special-casing.
//!
//! * **LEB128 varints** ([`push_varint`] / [`read_varint`]) — the base
//!   machinery, also reused by `gblas`'s entry frames.
//! * **delta key streams** ([`encode_keys_for`] / [`decode_keys_for`]) — a
//!   sorted key list as LEB128 of the count, the first key, then
//!   consecutive deltas; the per-hop request format of the combining
//!   hypercube and the id half of `gblas`'s sparse entry frames.
//! * **word streams** ([`encode_words_for`] / [`decode_words_for`]) — value
//!   payloads behind one mode byte. The encoder sizes three candidates per
//!   stream and ships the smallest: `(value, run-length)` varint pairs
//!   (labels near convergence are heavily repeated), raw words at the
//!   value type's native width, and raw `u16` words when every value
//!   fits 16 bits.
//! * [`WireWord`] — the fixed word representation a value type must have
//!   to ride an encoded value stream.
//!
//! Every decoder returns a [`DecodeError`] on a stream no encoder writes,
//! and nothing it allocates is sized by a count read off the stream.

/// Appends `x` to `out` as a LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Why a stream could not be decoded. The decoders never allocate by a
/// count read off the stream, so a hostile stream costs at most its own
/// length before it is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ends inside a field.
    Truncated,
    /// A varint or a key does not fit its type.
    Overflow,
    /// A mode byte no encoder writes.
    BadMode(u8),
    /// A count, run or length disagrees with the stream or the caller.
    BadCount,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("stream ends inside a field"),
            DecodeError::Overflow => f.write_str("value does not fit its type"),
            DecodeError::BadMode(m) => write!(f, "bad word-stream mode {m}"),
            DecodeError::BadCount => f.write_str("count disagrees with the stream"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads the varint at `bytes[*pos]`, advancing `pos` past it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        let part = u64::from(b & 0x7f);
        if (part << shift) >> shift != part {
            return Err(DecodeError::Overflow);
        }
        x |= part << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
    }
    Err(DecodeError::Overflow)
}

/// Encodes a sorted (non-decreasing) key list as count + first key +
/// consecutive deltas, all varints. The stream is value-based, so a `u32`
/// key list encodes to exactly the same bytes as the equal-valued `u64`
/// list — the declared width matters on the *raw* paths (pairwise
/// fallbacks, tuple payloads), not here.
pub fn encode_keys_for<K: WireWord>(keys: &[K]) -> Vec<u8> {
    debug_assert!(
        keys.windows(2).all(|w| w[0].to_word() <= w[1].to_word()),
        "keys must be sorted"
    );
    let mut out = Vec::with_capacity(keys.len() + 4);
    push_varint(&mut out, keys.len() as u64);
    let mut prev = 0u64;
    for (i, k) in keys.iter().enumerate() {
        let k = k.to_word();
        push_varint(&mut out, if i == 0 { k } else { k - prev });
        prev = k;
    }
    out
}

/// Decodes a stream produced by [`encode_keys_for`] at the same `K`. Every
/// key takes at least one byte, so a count past the bytes left is refused
/// before anything is allocated.
pub fn decode_keys_for<K: WireWord>(bytes: &[u8]) -> Result<Vec<K>, DecodeError> {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos)?;
    if n > (bytes.len() - pos) as u64 {
        return Err(DecodeError::BadCount);
    }
    let mut out = Vec::with_capacity(n as usize);
    let mut cur = 0u64;
    for _ in 0..n {
        cur = cur
            .checked_add(read_varint(bytes, &mut pos)?)
            .ok_or(DecodeError::Overflow)?;
        let k = K::from_word(cur);
        if k.to_word() != cur {
            return Err(DecodeError::Overflow);
        }
        out.push(k);
    }
    (pos == bytes.len())
        .then_some(out)
        .ok_or(DecodeError::BadCount)
}

const MODE_RAW: u8 = 0;
const MODE_RLE: u8 = 1;
const MODE_RAW16: u8 = 2;

/// Bytes [`push_varint`] writes for `x`.
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encodes a value stream behind one mode byte, as the smallest of three
/// candidates sized in one pass over `vals` (nothing is written until the
/// winner is known): run-length `(value, run)` varint pairs, raw
/// little-endian words at `T`'s native width ([`WireWord::BYTES`]), and —
/// when `T` is wider than two bytes and every word is below 2¹⁶ — raw `u16`
/// words. Run-length keeps ties and raw `u16` is taken only when strictly
/// smaller, so the stream is never longer than `1 + T::BYTES · len` bytes.
/// Decode with [`decode_words_for`] at the *same* `T`.
pub fn encode_words_for<T: WireWord>(vals: &[T]) -> Vec<u8> {
    // The maximal runs of equal words, as `(word, length)`.
    let runs = || {
        vals.chunk_by(|a, b| a.to_word() == b.to_word())
            .map(|run| (run[0].to_word(), run.len() as u64))
    };
    let mut rle_len = 1 + varint_len(vals.len() as u64);
    let mut max = 0u64;
    for (v, run) in runs() {
        rle_len += varint_len(v) + varint_len(run);
        max = max.max(v);
    }
    let raw16 = T::BYTES > 2 && max < 1 << 16 && !vals.is_empty();
    let (mode, width) = if raw16 {
        (MODE_RAW16, 2)
    } else {
        (MODE_RAW, T::BYTES)
    };
    if rle_len > 1 + width * vals.len() {
        let mut raw = vec![mode; 1 + width * vals.len()];
        // One loop per width, so each store is a fixed-size move.
        if raw16 {
            for (c, v) in raw[1..].chunks_exact_mut(2).zip(vals) {
                c.copy_from_slice(&(v.to_word() as u16).to_le_bytes());
            }
        } else {
            for (c, v) in raw[1..].chunks_exact_mut(T::BYTES).zip(vals) {
                c.copy_from_slice(&v.to_word().to_le_bytes()[..T::BYTES]);
            }
        }
        return raw;
    }
    // The length is known, so write in place instead of pushing byte by byte.
    let mut rle = vec![MODE_RLE; rle_len];
    let mut pos = 1usize;
    let mut put = |mut x: u64| {
        while x >= 0x80 {
            rle[pos] = x as u8 | 0x80;
            pos += 1;
            x >>= 7;
        }
        rle[pos] = x as u8;
        pos += 1;
    };
    put(vals.len() as u64);
    for (v, run) in runs() {
        put(v);
        put(run);
    }
    debug_assert_eq!(pos, rle_len);
    rle
}

/// Decodes a stream produced by [`encode_words_for`] at the same `T`,
/// holding the `len` values the caller expects; the mode byte says which
/// candidate the encoder shipped. The output is sized by `len`, never by a
/// count read off the stream.
pub fn decode_words_for<T: WireWord>(bytes: &[u8], len: usize) -> Result<Vec<T>, DecodeError> {
    let (&mode, body) = bytes.split_first().ok_or(DecodeError::Truncated)?;
    let width = match mode {
        MODE_RAW => T::BYTES,
        MODE_RAW16 => 2,
        MODE_RLE => {
            // The count, then `(value, run)` pairs whose runs add up to it.
            let mut pos = 1usize;
            if read_varint(bytes, &mut pos)? != len as u64 {
                return Err(DecodeError::BadCount);
            }
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let v = T::from_word(read_varint(bytes, &mut pos)?);
                match read_varint(bytes, &mut pos)? {
                    1 => out.push(v),
                    run if run == 0 || run > (len - out.len()) as u64 => {
                        return Err(DecodeError::BadCount)
                    }
                    run => out.extend(std::iter::repeat_n(v, run as usize)),
                }
            }
            return (pos == bytes.len())
                .then_some(out)
                .ok_or(DecodeError::BadCount);
        }
        other => return Err(DecodeError::BadMode(other)),
    };
    if body.len() != len * width {
        return Err(DecodeError::BadCount);
    }
    Ok(if mode == MODE_RAW16 {
        body.chunks_exact(2)
            .map(|c| T::from_word(u64::from(u16::from_le_bytes([c[0], c[1]]))))
            .collect()
    } else {
        body.chunks_exact(T::BYTES)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf[..T::BYTES].copy_from_slice(c);
                T::from_word(u64::from_le_bytes(buf))
            })
            .collect()
    })
}

/// A value type with a fixed 64-bit word representation, required to ride
/// an encoded value stream ([`encode_words_for`]) or a combining reply.
pub trait WireWord: Copy {
    /// Native width of this type on the wire, in bytes. The raw fallback
    /// of [`encode_words_for`] stores this many little-endian bytes per
    /// element, so narrow index/label types are charged their true size.
    const BYTES: usize;
    /// This value as a wire word.
    fn to_word(self) -> u64;
    /// Reconstructs the value from its wire word.
    fn from_word(w: u64) -> Self;
}

impl WireWord for u64 {
    const BYTES: usize = 8;
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl WireWord for usize {
    const BYTES: usize = 8;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

impl WireWord for u32 {
    const BYTES: usize = 4;
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl WireWord for u16 {
    const BYTES: usize = 2;
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Self {
        w as u16
    }
}

impl WireWord for bool {
    const BYTES: usize = 1;
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Word vectors with runs and with magnitudes spread over every bit
    /// width, so all three modes and their boundaries come up.
    fn arb_words() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec((0u32..=64, 0..u64::MAX, 1usize..6), 0..60).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(bits, raw, run)| {
                    std::iter::repeat_n(raw.checked_shr(64 - bits).unwrap_or(0), run)
                })
                .collect()
        })
    }

    /// The codec's whole contract, at one value type.
    fn check_codec<T>(words: &[u64]) -> Result<(), TestCaseError>
    where
        T: WireWord + PartialEq + std::fmt::Debug,
    {
        // Truncate each word to what `T` can hold.
        let vals: Vec<T> = words.iter().map(|&w| T::from_word(w)).collect();
        let enc = encode_words_for(&vals);
        prop_assert_eq!(&decode_words_for::<T>(&enc, vals.len()).unwrap(), &vals);
        prop_assert!(decode_words_for::<T>(&enc, vals.len() + 1).is_err());
        prop_assert!(enc.len() <= 1 + T::BYTES * vals.len());
        prop_assert!([MODE_RAW, MODE_RLE, MODE_RAW16].contains(&enc[0]));
        if enc[0] == MODE_RAW16 {
            prop_assert!(T::BYTES > 2, "raw-u16 at a {}-byte type", T::BYTES);
            prop_assert!(vals.iter().all(|v| v.to_word() < 1 << 16));
            prop_assert!(enc.len() == 1 + 2 * vals.len());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_streams_roundtrip_within_the_raw_bound_at_every_type(words in arb_words()) {
            check_codec::<u16>(&words)?;
            check_codec::<u32>(&words)?;
            check_codec::<u64>(&words)?;
            check_codec::<usize>(&words)?;
            check_codec::<bool>(&words)?;
        }

        #[test]
        fn arbitrary_bytes_decode_or_are_refused(
            raw in proptest::collection::vec(0u16..256, 0..24),
            len in 0usize..40,
        ) {
            // Any byte string is a value or a typed error, never a panic.
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let _ = decode_keys_for::<u32>(&bytes);
            let _ = decode_words_for::<u64>(&bytes, len);
            let _ = decode_words_for::<u16>(&bytes, len);
        }
    }

    #[test]
    fn hostile_streams_are_refused_before_anything_is_sized_by_them() {
        // A count of 2^40 read off the stream: six bytes of varint.
        let mut huge = Vec::new();
        push_varint(&mut huge, 1 << 40);
        assert_eq!(huge.len(), 6);
        // A key stream claiming 2^40 keys in no bytes.
        assert_eq!(decode_keys_for::<u32>(&huge), Err(DecodeError::BadCount));
        // A run-length word stream claiming 2^40 values.
        let rle = [&[MODE_RLE][..], &huge].concat();
        assert_eq!(rle.len(), 7);
        assert_eq!(decode_words_for::<u64>(&rle, 3), Err(DecodeError::BadCount));
        // No mode byte at all, and a mode byte no encoder writes.
        assert_eq!(decode_words_for::<u64>(&[], 3), Err(DecodeError::Truncated));
        assert_eq!(
            decode_words_for::<u64>(&[9, 0, 0], 3),
            Err(DecodeError::BadMode(9))
        );
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for x in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(x));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn key_stream_roundtrips() {
        for keys in [
            vec![],
            vec![0u64],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 1_000_000],
            (0..500).map(|k| k * 7).collect::<Vec<_>>(),
        ] {
            assert_eq!(
                decode_keys_for::<u64>(&encode_keys_for(&keys)).unwrap(),
                keys
            );
        }
    }

    #[test]
    fn dense_sorted_keys_compress_well() {
        let keys: Vec<u64> = (1000..2000).collect();
        let enc = encode_keys_for(&keys);
        assert!(enc.len() < keys.len() * 2, "got {} bytes", enc.len());
    }

    #[test]
    fn word_stream_roundtrips() {
        for words in [
            vec![],
            vec![0u64],
            vec![7; 100],
            vec![1, 2, 3, 4, 5],
            vec![u64::MAX; 3],
            (0..64).map(|k| k % 4).collect::<Vec<_>>(),
        ] {
            assert_eq!(
                decode_words_for::<u64>(&encode_words_for(&words), words.len()).unwrap(),
                words
            );
        }
    }

    #[test]
    fn repeated_words_take_rle() {
        let words = vec![42u64; 1000];
        let enc = encode_words_for(&words);
        assert_eq!(enc[0], MODE_RLE);
        assert!(
            enc.len() < 16,
            "RLE should collapse the run, got {}",
            enc.len()
        );
    }

    #[test]
    fn adversarial_words_fall_back_to_raw() {
        // Large distinct values: varints would expand past raw.
        let words: Vec<u64> = (0..100).map(|k| u64::MAX - k * 12345).collect();
        let enc = encode_words_for(&words);
        assert_eq!((enc[0], enc.len()), (MODE_RAW, 1 + 8 * words.len()));
        assert_eq!(decode_words_for::<u64>(&enc, words.len()).unwrap(), words);
    }

    #[test]
    fn narrow_raw_fallback_is_half_width() {
        // Adversarial u32-range values: varint pairs cost ~6 bytes each,
        // so the 4-byte raw fallback of the narrow type beats both the
        // wide raw (8 bytes) and the RLE stream the wide encoder keeps.
        let narrow: Vec<u32> = (0..100).map(|k| u32::MAX - k * 12345).collect();
        let wide: Vec<u64> = narrow.iter().map(|&w| u64::from(w)).collect();
        let (enc_narrow, enc_wide) = (encode_words_for(&narrow), encode_words_for(&wide));
        assert_eq!(enc_narrow.len(), 1 + 4 * narrow.len());
        assert!(enc_narrow.len() < enc_wide.len());
        assert_eq!(
            decode_words_for::<u64>(&enc_wide, wide.len()).unwrap(),
            wide
        );
        assert_eq!(
            decode_words_for::<u32>(&enc_narrow, narrow.len()).unwrap(),
            narrow
        );
    }

    #[test]
    fn narrow_key_stream_matches_wide_bytes() {
        // The delta-varint stream is value-based: narrowing the key type
        // changes nothing on the wire, only the raw fallbacks elsewhere.
        let wide: Vec<u64> = vec![3, 9, 9, 1000, 70000];
        let narrow: Vec<u32> = wide.iter().map(|&k| k as u32).collect();
        let enc = encode_keys_for::<u32>(&narrow);
        assert_eq!(enc, encode_keys_for::<u64>(&wide));
        assert_eq!(decode_keys_for::<u32>(&enc).unwrap(), narrow);
    }

    #[test]
    fn wire_word_roundtrip() {
        assert_eq!(u64::from_word(9u64.to_word()), 9);
        assert_eq!(usize::from_word(17usize.to_word()), 17);
        assert_eq!(u32::from_word(5u32.to_word()), 5);
        assert_eq!(u16::from_word(40000u16.to_word()), 40000);
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
    }

    #[test]
    fn narrow_words_u16_tier_beats_legacy_and_roundtrips() {
        // Distinct u16-range values: RLE pairs cost ~4 bytes each and the
        // native raw words 4, so the raw-u16 mode halves the stream.
        let words: Vec<u32> = (0..300).map(|k| (k * 199) % 65536).collect();
        let enc = encode_words_for(&words);
        assert_eq!((enc[0], enc.len()), (MODE_RAW16, 1 + 2 * words.len()));
        assert_eq!(decode_words_for::<u32>(&enc, words.len()).unwrap(), words);
        // A type that is two bytes wide already has nothing to narrow to.
        let short: Vec<u16> = words.iter().map(|&w| w as u16).collect();
        let enc = encode_words_for(&short);
        assert_eq!((enc[0], enc.len()), (MODE_RAW, 1 + 2 * short.len()));
        assert_eq!(decode_words_for::<u16>(&enc, short.len()).unwrap(), short);
    }

    #[test]
    fn narrow_words_out_of_range_falls_back() {
        // One word past 2^16 rules raw-u16 out for the whole stream, which
        // then costs what the better of the other two modes costs.
        let mut words: Vec<u32> = (0..300).map(|k| (k * 199) % 65536).collect();
        words[17] = 1 << 20;
        let enc = encode_words_for(&words);
        assert_ne!(enc[0], MODE_RAW16);
        assert!(enc.len() > 1 + 2 * words.len() && enc.len() <= 1 + 4 * words.len());
        assert_eq!(decode_words_for::<u32>(&enc, words.len()).unwrap(), words);
    }
}
