//! Wire-format helpers shared by the combining collectives and (via
//! re-export) the gblas value-stream codecs.
//!
//! Everything the simulator puts "on the wire" in compressed form goes
//! through these encoders, so the α-β cost model charges the *encoded*
//! byte counts with no special-casing:
//!
//! * **LEB128 varints** ([`push_varint`] / [`read_varint`]) — the base
//!   machinery, also reused by `gblas`'s entry frames.
//! * **delta key streams** ([`encode_keys`] / [`decode_keys`]) — a sorted
//!   `u64` key list as LEB128 of the first key then consecutive deltas;
//!   the per-hop request format of the combining hypercube.
//! * **word-stream RLE** ([`encode_words`] / [`decode_words`]) — value
//!   payloads as `(value, run-length)` varint pairs with a raw fallback,
//!   effective when labels near convergence are heavily repeated.
//! * **dynamic narrowing tiers** ([`encode_words_narrow`] /
//!   [`encode_keys_narrow`]) — when a per-iteration range probe shows the
//!   active label set fits, value streams drop to raw `u16` words or to
//!   dense-rank codes in a shared [`NarrowDict`], and sorted key streams
//!   re-delta over dictionary ranks. Encoders always pick the smallest
//!   valid candidate (never larger than the legacy stream), so the
//!   savings counter is monotone-nonnegative by construction.
//! * [`WireWord`] — the fixed word representation a value type must have
//!   to ride an encoded value stream.

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

/// Reads the varint at `bytes[*pos]`, advancing `pos` past it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Encodes a sorted (non-decreasing) `u64` key list as count + first key
/// + consecutive deltas, all varints.
pub fn encode_keys(keys: &[u64]) -> Vec<u8> {
    encode_keys_for::<u64>(keys)
}

/// [`encode_keys`] over any [`WireWord`] key type. The stream is
/// value-based (varints of the key values and their deltas), so a `u32`
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

/// Decodes a stream produced by [`encode_keys`].
pub fn decode_keys(bytes: &[u8]) -> Vec<u64> {
    decode_keys_for::<u64>(bytes)
}

/// Decodes a stream produced by [`encode_keys_for`] at the same `K`.
pub fn decode_keys_for<K: WireWord>(bytes: &[u8]) -> Vec<K> {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos) as usize;
    let mut out = Vec::with_capacity(n);
    let mut cur = 0u64;
    for i in 0..n {
        let d = read_varint(bytes, &mut pos);
        cur = if i == 0 { d } else { cur + d };
        out.push(K::from_word(cur));
    }
    debug_assert_eq!(pos, bytes.len(), "trailing bytes in key stream");
    out
}

const MODE_RAW: u8 = 0;
const MODE_RLE: u8 = 1;
const MODE_RAW16: u8 = 2;
const MODE_DICT: u8 = 3;

/// Wire tier the dynamic range probe selected for an exchange's
/// label-valued streams (see `DESIGN.md` §11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NarrowTier {
    /// No narrowing: streams use the static `Idx`-width codecs.
    #[default]
    Native,
    /// Every active label word fits 16 bits: raw-`u16` fallback allowed.
    U16,
    /// The surviving label *set* is small: dense-rank dictionary codes.
    Dict,
}

/// Per-iteration narrowing decision: the engine loop's range probe
/// installs it on the rank's `Comm` (`Comm::set_narrow_spec`), where every
/// narrowing-aware exchange reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NarrowSpec {
    /// Selected tier for this iteration's exchanges.
    pub tier: NarrowTier,
}

impl NarrowSpec {
    /// The no-narrowing spec (what `narrow_labels: false` pins).
    pub const NATIVE: NarrowSpec = NarrowSpec {
        tier: NarrowTier::Native,
    };

    /// Whether any narrowing tier is active.
    pub fn active(&self) -> bool {
        self.tier != NarrowTier::Native
    }
}

/// Dense-rank dictionary over the surviving label words, shared by all
/// ranks (each builds it from the same allgathered value set, so the
/// code assignment is identical everywhere). `epoch` stamps every
/// dictionary-coded stream so a decode against a stale dictionary is
/// caught rather than silently wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NarrowDict {
    epoch: u64,
    values: Vec<u64>,
    /// Dense reverse table over `values[0]..=values[last]`, built at
    /// install time: `code + 1` at `word - values[0]`, `0` where the word
    /// is not in the dictionary. Label words are vertex ids, so the span is
    /// at most `n`; a span above [`REVERSE_SPAN_MAX`] leaves the table
    /// empty and lookups search `values` instead.
    reverse: Vec<u32>,
}

/// Widest value span [`NarrowDict`] builds its reverse table over: 2²⁴
/// words, a 64 MiB zeroed allocation of which only the pages holding
/// dictionary values are ever touched.
const REVERSE_SPAN_MAX: u64 = 1 << 24;

impl NarrowDict {
    /// Builds a dictionary from a sorted, deduplicated word list.
    pub fn new(epoch: u64, values: Vec<u64>) -> Self {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "dictionary values must be sorted and unique"
        );
        let mut reverse = Vec::new();
        if let (Some(&lo), Some(&hi)) = (values.first(), values.last()) {
            if hi - lo < REVERSE_SPAN_MAX && values.len() < u32::MAX as usize {
                reverse = vec![0u32; (hi - lo) as usize + 1];
                for (code, &w) in values.iter().enumerate() {
                    reverse[(w - lo) as usize] = code as u32 + 1;
                }
            }
        }
        NarrowDict {
            epoch,
            values,
            reverse,
        }
    }

    /// The install epoch stamped into every dictionary-coded stream.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of entries (the code space is `0..len`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dense rank of `w`, or `None` when `w` is not in the dictionary
    /// (encoders fall back to the legacy stream — correctness never
    /// depends on the probe being tight). One table load per word.
    pub fn code_of(&self, w: u64) -> Option<u64> {
        if self.reverse.is_empty() {
            return self.values.binary_search(&w).ok().map(|i| i as u64);
        }
        let slot = usize::try_from(w.checked_sub(self.values[0])?).ok()?;
        match self.reverse.get(slot) {
            Some(&code) if code != 0 => Some(u64::from(code) - 1),
            _ => None,
        }
    }

    /// The word a code stands for.
    pub fn value_of(&self, code: u64) -> u64 {
        self.values[code as usize]
    }
}

/// Encodes a word stream as run-length `(value, run)` varint pairs, or
/// raw little-endian words when that would be smaller (adversarial
/// values cost at most one mode byte over raw).
pub fn encode_words(words: &[u64]) -> Vec<u8> {
    encode_words_for::<u64>(words)
}

/// [`encode_words`] whose raw fallback stores each word at `T`'s native
/// width ([`WireWord::BYTES`] little-endian bytes), so a narrow value
/// type pays `T::BYTES` per element instead of 8 even when RLE loses.
/// Decode with [`decode_words_for`] at the *same* `T`.
pub fn encode_words_for<T: WireWord>(words: &[u64]) -> Vec<u8> {
    let mut rle = Vec::with_capacity(words.len() + 4);
    rle.push(MODE_RLE);
    push_varint(&mut rle, words.len() as u64);
    let mut i = 0usize;
    while i < words.len() {
        let v = words[i];
        let mut run = 1usize;
        while i + run < words.len() && words[i + run] == v {
            run += 1;
        }
        push_varint(&mut rle, v);
        push_varint(&mut rle, run as u64);
        i += run;
    }
    let raw_len = 1 + T::BYTES * words.len();
    if rle.len() <= raw_len {
        return rle;
    }
    let mut raw = Vec::with_capacity(raw_len);
    raw.push(MODE_RAW);
    for &w in words {
        debug_assert!(
            T::BYTES == 8 || w < 1u64 << (8 * T::BYTES as u32),
            "word {w} exceeds the {}-byte raw width",
            T::BYTES
        );
        raw.extend_from_slice(&w.to_le_bytes()[..T::BYTES]);
    }
    raw
}

/// Decodes a stream produced by [`encode_words`].
pub fn decode_words(bytes: &[u8]) -> Vec<u64> {
    decode_words_for::<u64>(bytes)
}

/// Decodes a stream produced by [`encode_words_for`] at the same `T`.
pub fn decode_words_for<T: WireWord>(bytes: &[u8]) -> Vec<u64> {
    match bytes[0] {
        MODE_RAW => bytes[1..]
            .chunks_exact(T::BYTES)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf[..T::BYTES].copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect(),
        MODE_RLE => {
            let mut pos = 1usize;
            let n = read_varint(bytes, &mut pos) as usize;
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let v = read_varint(bytes, &mut pos);
                let run = read_varint(bytes, &mut pos) as usize;
                out.extend(std::iter::repeat_n(v, run));
            }
            debug_assert_eq!(pos, bytes.len(), "trailing bytes in word stream");
            out
        }
        other => panic!("bad word-stream mode {other}"),
    }
}

/// [`encode_words_for`] with the dynamic narrowing tiers layered on top.
/// Returns the encoded stream and the bytes saved relative to the legacy
/// `encode_words_for::<T>` stream. The legacy stream is always a
/// candidate, so the saving is `>= 0` and decode via
/// [`decode_words_narrow`] is correct even when the probe was stale:
/// a word outside the `u16` range or the dictionary simply disables that
/// candidate for the whole stream.
pub fn encode_words_narrow<T: WireWord>(
    words: &[u64],
    spec: NarrowSpec,
    dict: Option<&NarrowDict>,
) -> (Vec<u8>, u64) {
    let legacy = encode_words_for::<T>(words);
    if !spec.active() {
        return (legacy, 0);
    }
    let mut best = legacy;
    let legacy_len = best.len();
    // Raw-u16 candidate (valid under both narrow tiers).
    if T::BYTES > 2 && words.iter().all(|&w| w < 1 << 16) {
        let raw16_len = 1 + 2 * words.len();
        if raw16_len < best.len() {
            let mut raw16 = Vec::with_capacity(raw16_len);
            raw16.push(MODE_RAW16);
            for &w in words {
                raw16.extend_from_slice(&(w as u16).to_le_bytes());
            }
            best = raw16;
        }
    }
    // Dictionary candidate: dense-rank codes, themselves RLE-or-raw
    // encoded at u32 width (codes are bounded by the dictionary size).
    if spec.tier == NarrowTier::Dict {
        if let Some(d) = dict {
            let codes: Option<Vec<u64>> = words.iter().map(|&w| d.code_of(w)).collect();
            if let Some(codes) = codes {
                let mut enc = Vec::with_capacity(codes.len() + 4);
                enc.push(MODE_DICT);
                push_varint(&mut enc, d.epoch());
                enc.extend_from_slice(&encode_words_for::<u32>(&codes));
                if enc.len() < best.len() {
                    best = enc;
                }
            }
        }
    }
    let saved = (legacy_len - best.len()) as u64;
    (best, saved)
}

/// Decodes a stream produced by [`encode_words_narrow`] at the same `T`.
/// `dict` must be the same dictionary the encoder saw (checked via the
/// embedded epoch) whenever the stream is dictionary-coded.
pub fn decode_words_narrow<T: WireWord>(bytes: &[u8], dict: Option<&NarrowDict>) -> Vec<u64> {
    match bytes[0] {
        MODE_RAW16 => bytes[1..]
            .chunks_exact(2)
            .map(|c| u64::from(u16::from_le_bytes([c[0], c[1]])))
            .collect(),
        MODE_DICT => {
            let mut pos = 1usize;
            let epoch = read_varint(bytes, &mut pos);
            let d = dict.expect("dictionary-coded stream without an installed dictionary");
            assert_eq!(epoch, d.epoch(), "dictionary epoch mismatch on decode");
            decode_words_for::<u32>(&bytes[pos..])
                .into_iter()
                .map(|c| d.value_of(c))
                .collect()
        }
        _ => decode_words_for::<T>(bytes),
    }
}

/// [`encode_keys_for`] with the dictionary tier layered on top: when
/// every key is in the dictionary, the sorted key list can be re-deltaed
/// over its dense ranks (rank deltas are tiny where raw label deltas are
/// huge near convergence). The narrow frame is `[0x00, varint(epoch),
/// <rank key stream>]` — unambiguous because a legacy nonempty stream
/// starts with `varint(count) != 0` and the legacy empty stream is the
/// single byte `0x00`. Used only when strictly smaller, so plain streams
/// pay zero overhead. Returns `(stream, bytes saved)`.
pub fn encode_keys_narrow<K: WireWord>(
    keys: &[K],
    spec: NarrowSpec,
    dict: Option<&NarrowDict>,
) -> (Vec<u8>, u64) {
    let plain = encode_keys_for::<K>(keys);
    if spec.tier != NarrowTier::Dict || keys.is_empty() {
        return (plain, 0);
    }
    let Some(d) = dict else {
        return (plain, 0);
    };
    let codes: Option<Vec<u64>> = keys.iter().map(|k| d.code_of(k.to_word())).collect();
    let Some(codes) = codes else {
        return (plain, 0);
    };
    let mut framed = Vec::with_capacity(codes.len() + 4);
    framed.push(0u8);
    push_varint(&mut framed, d.epoch());
    framed.extend_from_slice(&encode_keys(&codes));
    if framed.len() < plain.len() {
        let saved = (plain.len() - framed.len()) as u64;
        (framed, saved)
    } else {
        (plain, 0)
    }
}

/// Decodes a stream produced by [`encode_keys_narrow`] at the same `K`.
pub fn decode_keys_narrow<K: WireWord>(bytes: &[u8], dict: Option<&NarrowDict>) -> Vec<K> {
    if bytes.len() > 1 && bytes[0] == 0 {
        let mut pos = 1usize;
        let epoch = read_varint(bytes, &mut pos);
        let d = dict.expect("dictionary-coded key stream without an installed dictionary");
        assert_eq!(epoch, d.epoch(), "dictionary epoch mismatch on key decode");
        decode_keys(&bytes[pos..])
            .into_iter()
            .map(|c| K::from_word(d.value_of(c)))
            .collect()
    } else {
        decode_keys_for::<K>(bytes)
    }
}

/// A value type with a fixed 64-bit word representation, required to ride
/// an encoded value stream ([`encode_words`]) or a combining reply.
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
            assert_eq!(
                buf.len(),
                (64 - x.leading_zeros()).max(1).div_ceil(7) as usize
            );
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
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
            assert_eq!(decode_keys(&encode_keys(&keys)), keys);
        }
    }

    #[test]
    fn dense_sorted_keys_compress_well() {
        let keys: Vec<u64> = (1000..2000).collect();
        let enc = encode_keys(&keys);
        assert!(enc.len() < keys.len() * 2, "got {} bytes", enc.len());
    }

    #[test]
    fn word_stream_roundtrips() {
        for words in [
            vec![0u64],
            vec![7; 100],
            vec![1, 2, 3, 4, 5],
            vec![u64::MAX; 3],
            (0..64).map(|k| k % 4).collect::<Vec<_>>(),
        ] {
            assert_eq!(decode_words(&encode_words(&words)), words);
        }
    }

    #[test]
    fn repeated_words_take_rle() {
        let words = vec![42u64; 1000];
        let enc = encode_words(&words);
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
        let enc = encode_words(&words);
        assert!(enc.len() <= 1 + 8 * words.len());
        assert_eq!(decode_words(&enc), words);
    }

    #[test]
    fn narrow_raw_fallback_is_half_width() {
        // Adversarial u32-range values: varint pairs cost ~6 bytes each,
        // so the narrow 4-byte raw fallback kicks in and beats both the
        // wide raw (8 bytes) and the RLE stream the wide encoder keeps.
        let words: Vec<u64> = (0..100).map(|k| u64::from(u32::MAX) - k * 12345).collect();
        let wide = encode_words_for::<u64>(&words);
        let narrow = encode_words_for::<u32>(&words);
        assert_eq!(narrow.len(), 1 + 4 * words.len());
        assert!(narrow.len() < wide.len());
        assert_eq!(decode_words_for::<u64>(&wide), words);
        assert_eq!(decode_words_for::<u32>(&narrow), words);
    }

    #[test]
    fn narrow_key_stream_matches_wide_bytes() {
        // The delta-varint stream is value-based: narrowing the key type
        // changes nothing on the wire, only the raw fallbacks elsewhere.
        let wide: Vec<u64> = vec![3, 9, 9, 1000, 70000];
        let narrow: Vec<u32> = wide.iter().map(|&k| k as u32).collect();
        let enc = encode_keys_for::<u32>(&narrow);
        assert_eq!(enc, encode_keys_for::<u64>(&wide));
        assert_eq!(decode_keys_for::<u32>(&enc), narrow);
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

    const U16_SPEC: NarrowSpec = NarrowSpec {
        tier: NarrowTier::U16,
    };
    const DICT_SPEC: NarrowSpec = NarrowSpec {
        tier: NarrowTier::Dict,
    };

    #[test]
    fn narrow_words_native_spec_is_legacy_bytes() {
        let words: Vec<u64> = (0..200).map(|k| k * 999).collect();
        let (enc, saved) = encode_words_narrow::<u32>(&words, NarrowSpec::NATIVE, None);
        assert_eq!(enc, encode_words_for::<u32>(&words));
        assert_eq!(saved, 0);
    }

    #[test]
    fn narrow_words_u16_tier_beats_legacy_and_roundtrips() {
        // Distinct u16-range values: legacy falls back to 4-byte raw,
        // the u16 tier halves that.
        let words: Vec<u64> = (0..300).map(|k| (k * 199) % 65536).collect();
        let legacy = encode_words_for::<u32>(&words);
        let (enc, saved) = encode_words_narrow::<u32>(&words, U16_SPEC, None);
        assert_eq!(enc.len() + saved as usize, legacy.len());
        assert!(saved > 0, "u16 tier should have saved bytes");
        assert_eq!(decode_words_narrow::<u32>(&enc, None), words);
    }

    #[test]
    fn narrow_words_out_of_range_falls_back() {
        let words = vec![1, 2, 1 << 20];
        let (enc, saved) = encode_words_narrow::<u32>(&words, U16_SPEC, None);
        assert_eq!(enc, encode_words_for::<u32>(&words));
        assert_eq!(saved, 0);
        assert_eq!(decode_words_narrow::<u32>(&enc, None), words);
    }

    #[test]
    fn narrow_words_dict_tier_roundtrips_and_saves() {
        // A handful of huge surviving labels: out of u16 range, but the
        // dictionary maps them to tiny dense ranks.
        let survivors: Vec<u64> = vec![1 << 20, 1 << 30, u64::from(u32::MAX) + 7, 1 << 40];
        let dict = NarrowDict::new(3, survivors.clone());
        let words: Vec<u64> = (0..400).map(|k| survivors[k % survivors.len()]).collect();
        let legacy = encode_words_for::<u64>(&words);
        let (enc, saved) = encode_words_narrow::<u64>(&words, DICT_SPEC, Some(&dict));
        assert_eq!(enc.len() + saved as usize, legacy.len());
        assert_eq!(decode_words_narrow::<u64>(&enc, Some(&dict)), words);
    }

    #[test]
    fn narrow_words_dict_miss_falls_back() {
        // Words outside both the u16 range and the dictionary: every
        // narrow candidate is ineligible, so the legacy stream ships.
        let dict = NarrowDict::new(1, vec![1 << 20, 1 << 21]);
        let words = vec![1 << 20, 1 << 21, 1 << 22]; // 1<<22 not in dict
        let (enc, saved) = encode_words_narrow::<u64>(&words, DICT_SPEC, Some(&dict));
        assert_eq!(enc, encode_words_for::<u64>(&words));
        assert_eq!(saved, 0);
    }

    #[test]
    #[should_panic(expected = "dictionary epoch mismatch")]
    fn narrow_words_stale_dict_epoch_panics() {
        let dict = NarrowDict::new(2, vec![1 << 20, 1 << 21, 1 << 22, 1 << 23]);
        let words: Vec<u64> = (0..64).map(|k| 1u64 << (20 + (k % 4))).collect();
        let (enc, _) = encode_words_narrow::<u64>(&words, DICT_SPEC, Some(&dict));
        assert_eq!(enc[0], 3, "expected the dict candidate to win");
        let stale = NarrowDict::new(5, vec![1 << 20, 1 << 21, 1 << 22, 1 << 23]);
        decode_words_narrow::<u64>(&enc, Some(&stale));
    }

    #[test]
    fn narrow_keys_dict_rank_deltas_save_and_roundtrip() {
        // Sparse huge keys, dense ranks: rank deltas are 1-byte varints
        // where the raw deltas are 3-5 bytes.
        let survivors: Vec<u64> = (0..512).map(|k| (1 << 22) + k * 1_000_003).collect();
        let dict = NarrowDict::new(7, survivors.clone());
        let keys: Vec<u64> = survivors.iter().step_by(2).copied().collect();
        let plain = encode_keys(&keys);
        let (enc, saved) = encode_keys_narrow::<u64>(&keys, DICT_SPEC, Some(&dict));
        assert!(saved > 0, "dict rank deltas should beat raw key deltas");
        assert_eq!(enc.len() + saved as usize, plain.len());
        assert_eq!(decode_keys_narrow::<u64>(&enc, Some(&dict)), keys);
        // A key outside the dictionary disables the frame for the stream.
        let mut miss = keys.clone();
        miss.push(u64::MAX);
        let (enc2, saved2) = encode_keys_narrow::<u64>(&miss, DICT_SPEC, Some(&dict));
        assert_eq!(saved2, 0);
        assert_eq!(decode_keys_narrow::<u64>(&enc2, Some(&dict)), miss);
    }

    #[test]
    fn narrow_keys_empty_and_plain_streams_unframed() {
        let dict = NarrowDict::new(1, vec![5, 6]);
        let (enc, saved) = encode_keys_narrow::<u64>(&[], DICT_SPEC, Some(&dict));
        assert_eq!(enc, encode_keys(&[]));
        assert_eq!(saved, 0);
        // Legacy streams always decode unchanged through the narrow
        // decoder (frame detection cannot misfire on them).
        for keys in [vec![], vec![0u64], vec![0, 1, 2], vec![900, 1000]] {
            let plain = encode_keys(&keys);
            assert_eq!(decode_keys_narrow::<u64>(&plain, Some(&dict)), keys);
        }
    }

    #[test]
    fn narrow_dict_lookup() {
        let d = NarrowDict::new(0, vec![100, 200, 300]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.code_of(200), Some(1));
        assert_eq!(d.code_of(150), None);
        assert_eq!(
            (d.code_of(99), d.code_of(301), d.code_of(u64::MAX)),
            (None, None, None)
        );
        assert_eq!(NarrowDict::new(0, Vec::new()).code_of(0), None);
        // A span too wide for the reverse table answers the same way.
        let wide = NarrowDict::new(0, vec![7, 1 << 40, u64::MAX]);
        assert_eq!((wide.code_of(7), wide.code_of(1 << 40)), (Some(0), Some(1)));
        assert_eq!((wide.code_of(u64::MAX), wide.code_of(8)), (Some(2), None));
        assert_eq!(d.value_of(2), 300);
        assert_eq!(d.epoch(), 0);
    }
}
