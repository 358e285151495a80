//! Chunk frames: the typed front of [`dmsim::wire`]'s word-stream codec.
//!
//! Under [`super::Wire::Compact`] the `mxv` gather and exchange phases
//! ship their value streams — dense chunks, the value half of sparse
//! `(id, value)` entries, `(parent, value)` pairs — as byte frames.
//! [`NarrowVal`] frames a whole (possibly tuple-valued) chunk; nothing
//! outside the frame but its value count is needed to decode it.

use dmsim::wire::{decode_words_for, encode_words_for, push_varint, read_varint, DecodeError};

/// A value type whose chunks can ride the compact wire as byte frames.
///
/// The `mxv` payloads are not always scalar wire words — LACC's
/// conditional hook ships `(parent, value)` pairs — so the codec is
/// chunk-level: a whole value slice encodes to one frame, decoded against
/// the value count the receiver knows. Scalar wire types are one
/// [`dmsim::wire::encode_words_for`] stream, whose mode byte says how it
/// was encoded; pairs split into two component planes with a varint length
/// prefix on the first.
///
/// Contract: `decode_chunk(&encode_chunk(v), v.len()) == Ok(v)`, and the
/// empty slice encodes to the empty frame (which a sparse all-to-all does
/// not send).
pub trait NarrowVal: Copy + Send + Sync + 'static {
    /// Encodes a value slice as one self-delimiting frame.
    fn encode_chunk(vals: &[Self]) -> Vec<u8>;
    /// Decodes a frame of `len` values made by [`NarrowVal::encode_chunk`].
    fn decode_chunk(bytes: &[u8], len: usize) -> Result<Vec<Self>, DecodeError>;
}

macro_rules! narrow_val_scalar {
    ($($t:ty),*) => {$(
        impl NarrowVal for $t {
            fn encode_chunk(vals: &[Self]) -> Vec<u8> {
                if vals.is_empty() {
                    return Vec::new();
                }
                encode_words_for(vals)
            }
            fn decode_chunk(bytes: &[u8], len: usize) -> Result<Vec<Self>, DecodeError> {
                if bytes.is_empty() && len == 0 {
                    return Ok(Vec::new());
                }
                decode_words_for(bytes, len)
            }
        }
    )*};
}

narrow_val_scalar!(u16, u32, u64, usize, bool);

impl<A: NarrowVal, B: NarrowVal> NarrowVal for (A, B) {
    fn encode_chunk(vals: &[Self]) -> Vec<u8> {
        if vals.is_empty() {
            return Vec::new();
        }
        let a_plane: Vec<A> = vals.iter().map(|&(a, _)| a).collect();
        let b_plane: Vec<B> = vals.iter().map(|&(_, b)| b).collect();
        let a_bytes = A::encode_chunk(&a_plane);
        let b_bytes = B::encode_chunk(&b_plane);
        let mut out = Vec::with_capacity(a_bytes.len() + b_bytes.len() + 4);
        push_varint(&mut out, a_bytes.len() as u64);
        out.extend_from_slice(&a_bytes);
        out.extend_from_slice(&b_bytes);
        out
    }
    fn decode_chunk(bytes: &[u8], len: usize) -> Result<Vec<Self>, DecodeError> {
        if bytes.is_empty() && len == 0 {
            return Ok(Vec::new());
        }
        let mut pos = 0usize;
        let a_len = read_varint(bytes, &mut pos)? as usize;
        let (a_bytes, b_bytes) = bytes[pos..]
            .split_at_checked(a_len)
            .ok_or(DecodeError::Truncated)?;
        let a_plane = A::decode_chunk(a_bytes, len)?;
        let b_plane = B::decode_chunk(b_bytes, len)?;
        Ok(a_plane.into_iter().zip(b_plane).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tuple_chunks_roundtrip_across_tiers(
            pairs in proptest::collection::vec((0u32..200_000, 0usize..5), 0..80),
            nested in proptest::collection::vec(((0u64..70_000, 0u32..9), 0u16..3), 0..40),
        ) {
            // The first plane straddles 2^16, so chunks take every mode;
            // length 0 is the empty frame.
            let frame = <(u32, usize)>::encode_chunk(&pairs);
            prop_assert_eq!(frame.is_empty(), pairs.is_empty());
            prop_assert_eq!(<(u32, usize)>::decode_chunk(&frame, pairs.len()), Ok(pairs));
            let frame = <((u64, u32), u16)>::encode_chunk(&nested);
            prop_assert_eq!(<((u64, u32), u16)>::decode_chunk(&frame, nested.len()), Ok(nested));
        }
    }

    #[test]
    fn value_stream_roundtrips() {
        let labels: Vec<usize> = vec![3, 3, 3, 3, 9, 9, 3, 3];
        assert_eq!(
            usize::decode_chunk(&usize::encode_chunk(&labels), 8),
            Ok(labels)
        );
        let flags = vec![true, true, false, true];
        assert_eq!(
            bool::decode_chunk(&bool::encode_chunk(&flags), 4),
            Ok(flags)
        );
        assert!(usize::encode_chunk(&[]).is_empty());
        assert_eq!(usize::decode_chunk(&[], 0), Ok(Vec::new()));
        // An empty frame where values were expected is refused, not padded.
        assert!(usize::decode_chunk(&[], 1).is_err());
    }

    #[test]
    fn repeated_labels_collapse() {
        // Near convergence most replies carry the same label.
        let labels = vec![7usize; 4096];
        let enc = usize::encode_chunk(&labels);
        assert!(enc.len() < 16, "got {} bytes", enc.len());
    }
}
