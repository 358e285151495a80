//! Value-stream codecs for the narrowing-aware exchanges.
//!
//! The `mxv` gather/reduce phases ship label-valued streams — dense
//! chunks, sparse `(id, value)` entries, `(parent, value)` pairs — as
//! byte frames whenever a narrowing tier is installed on the rank's
//! [`dmsim::Comm`]. This module is the typed front of the word-stream
//! codecs in [`dmsim::wire`]: [`encode_values`] / [`decode_values`] for
//! one scalar stream, and the [`NarrowVal`] trait that frames whole
//! (possibly tuple-valued) chunks self-delimitingly.

use dmsim::wire::{push_varint, read_varint};
use dmsim::WireWord;

/// Encodes a value stream with run-length encoding and a raw fallback at
/// `T`'s native width, re-tiered under an active `spec` as raw `u16` or
/// dictionary codes when that is strictly smaller
/// ([`dmsim::wire::encode_words_narrow`]). Returns the bytes and the saving
/// against the [`dmsim::NarrowSpec::NATIVE`] stream. Empty streams encode
/// to zero bytes.
pub fn encode_values<T: WireWord>(
    vals: &[T],
    spec: dmsim::NarrowSpec,
    dict: Option<&dmsim::NarrowDict>,
) -> (Vec<u8>, u64) {
    if vals.is_empty() {
        return (Vec::new(), 0);
    }
    let words: Vec<u64> = vals.iter().map(|v| v.to_word()).collect();
    dmsim::wire::encode_words_narrow::<T>(&words, spec, dict)
}

/// Decodes a stream produced by [`encode_values`] (any tier).
pub fn decode_values<T: WireWord>(bytes: &[u8], dict: Option<&dmsim::NarrowDict>) -> Vec<T> {
    if bytes.is_empty() {
        return Vec::new();
    }
    dmsim::wire::decode_words_narrow::<T>(bytes, dict)
        .into_iter()
        .map(T::from_word)
        .collect()
}

/// A value type whose streams can ride a narrow-framed exchange.
///
/// The mxv gather/exchange payloads are not always scalar wire words —
/// LACC's conditional hook ships `(parent, value)` pairs — so the codec
/// is chunk-level: a whole value slice encodes to one self-delimiting
/// byte frame and decodes back without external length information.
/// Scalar wire types delegate to [`encode_values`]; pairs split
/// into two component planes with a varint length prefix on the first.
///
/// Contract: `decode_chunk(&encode_chunk(v, spec, dict), dict) == v` for
/// any `spec` the encoder saw and the same `dict` epoch, and the empty
/// slice encodes to the empty frame.
pub trait NarrowVal: Copy + Send + Sync + 'static {
    /// Encodes a value slice as one self-delimiting frame.
    fn encode_chunk(
        vals: &[Self],
        spec: dmsim::NarrowSpec,
        dict: Option<&dmsim::NarrowDict>,
    ) -> Vec<u8>;
    /// Decodes a frame produced by [`NarrowVal::encode_chunk`].
    fn decode_chunk(bytes: &[u8], dict: Option<&dmsim::NarrowDict>) -> Vec<Self>;
}

macro_rules! narrow_val_scalar {
    ($($t:ty),*) => {$(
        impl NarrowVal for $t {
            fn encode_chunk(
                vals: &[Self],
                spec: dmsim::NarrowSpec,
                dict: Option<&dmsim::NarrowDict>,
            ) -> Vec<u8> {
                encode_values::<$t>(vals, spec, dict).0
            }
            fn decode_chunk(bytes: &[u8], dict: Option<&dmsim::NarrowDict>) -> Vec<Self> {
                decode_values::<$t>(bytes, dict)
            }
        }
    )*};
}

narrow_val_scalar!(u16, u32, u64, usize, bool);

impl<A: NarrowVal, B: NarrowVal> NarrowVal for (A, B) {
    fn encode_chunk(
        vals: &[Self],
        spec: dmsim::NarrowSpec,
        dict: Option<&dmsim::NarrowDict>,
    ) -> Vec<u8> {
        if vals.is_empty() {
            return Vec::new();
        }
        let a_plane: Vec<A> = vals.iter().map(|&(a, _)| a).collect();
        let b_plane: Vec<B> = vals.iter().map(|&(_, b)| b).collect();
        let a_bytes = A::encode_chunk(&a_plane, spec, dict);
        let b_bytes = B::encode_chunk(&b_plane, spec, dict);
        let mut out = Vec::with_capacity(a_bytes.len() + b_bytes.len() + 4);
        push_varint(&mut out, a_bytes.len() as u64);
        out.extend_from_slice(&a_bytes);
        out.extend_from_slice(&b_bytes);
        out
    }
    fn decode_chunk(bytes: &[u8], dict: Option<&dmsim::NarrowDict>) -> Vec<Self> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let mut pos = 0usize;
        let a_len = read_varint(bytes, &mut pos) as usize;
        let a_plane = A::decode_chunk(&bytes[pos..pos + a_len], dict);
        let b_plane = B::decode_chunk(&bytes[pos + a_len..], dict);
        debug_assert_eq!(a_plane.len(), b_plane.len(), "tuple planes align");
        a_plane.into_iter().zip(b_plane).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::NarrowSpec;

    #[test]
    fn tuple_chunks_roundtrip_across_tiers() {
        let pairs: Vec<(u32, usize)> = (0..300u32)
            .map(|k| (k * 5 % 97, (k % 11) as usize))
            .collect();
        for tier in [dmsim::NarrowTier::Native, dmsim::NarrowTier::U16] {
            let spec = dmsim::NarrowSpec { tier };
            let frame = <(u32, usize)>::encode_chunk(&pairs, spec, None);
            assert_eq!(
                <(u32, usize)>::decode_chunk(&frame, None),
                pairs,
                "{tier:?}"
            );
        }
        let spec = dmsim::NarrowSpec {
            tier: dmsim::NarrowTier::U16,
        };
        assert!(<(u32, usize)>::encode_chunk(&[], spec, None).is_empty());
        assert!(<(u32, usize)>::decode_chunk(&[], None).is_empty());
    }

    #[test]
    fn value_stream_roundtrips() {
        let native = |v: &[usize]| encode_values(v, NarrowSpec::NATIVE, None).0;
        let labels: Vec<usize> = vec![3, 3, 3, 3, 9, 9, 3, 3];
        assert_eq!(decode_values::<usize>(&native(&labels), None), labels);
        let flags = vec![true, true, false, true];
        let enc = encode_values(&flags, NarrowSpec::NATIVE, None).0;
        assert_eq!(decode_values::<bool>(&enc, None), flags);
        assert!(native(&[]).is_empty());
        assert!(decode_values::<usize>(&[], None).is_empty());
    }

    #[test]
    fn repeated_labels_collapse() {
        // Near convergence most replies carry the same label.
        let labels = vec![7usize; 4096];
        let (enc, saved) = encode_values(&labels, NarrowSpec::NATIVE, None);
        assert!(enc.len() < 16, "got {} bytes", enc.len());
        assert_eq!(saved, 0, "the native stream is the savings baseline");
    }
}
