//! Generic vertex-index word width.
//!
//! The paper's test problems top out at ~68M vertices — comfortably inside
//! 32 bits. [`Idx`] makes the index word width a type parameter of graphs,
//! the GraphBLAS kernels and the distributed vectors. The distributed
//! stack (`lacc::run`) instantiates them at `u32` and at nothing else:
//! 4-byte words instead of the 8-byte [`crate::Vid`] halve both kernel
//! memory traffic and the wire words the α-β cost model charges.
//!
//! Conversions *into* a narrow width are always checked: [`ensure_fits`]
//! (and the fallible constructors built on it, e.g. `CsrGraph::try_narrow`)
//! return a descriptive [`IdxOverflow`] instead of ever truncating
//! silently, and the graph readers ([`crate::io`]) refuse a file whose
//! vertex count `u32` cannot hold before building anything sized by it.

use std::fmt;
use std::hash::Hash;

/// A vertex-index word: the storage type for vertex ids and labels.
///
/// Implemented for `u32` (the distributed stack's width), `u64`, and
/// `usize` ([`crate::Vid`], the width of serial code and of the default
/// type parameters).
///
/// The contract mirrors how LACC uses indices: values are always in
/// `0..n` for a checked `n` (see [`ensure_fits`]), and `Self::max_value()`
/// doubles as the min-monoid identity — `ensure_fits` guarantees `n - 1 <
/// max_value()`, so the identity never collides with a real id.
pub trait Idx:
    Copy + Ord + Eq + Hash + fmt::Debug + fmt::Display + Default + Send + Sync + 'static
{
    /// Bits in the stored representation.
    const BITS: u32;
    /// Bytes each index occupies in memory and on the wire.
    const BYTES: usize;
    /// Short human-readable name (`"u32"`), used in errors and bench rows.
    const NAME: &'static str;
    /// Largest `usize` value this width can represent.
    const MAX_USIZE: usize;

    /// Converts from `usize`; debug-asserts the value fits.
    fn from_usize(v: usize) -> Self;
    /// Checked conversion from `usize`.
    fn try_from_usize(v: usize) -> Option<Self>;
    /// Widens to `usize` (always lossless for the supported widths).
    fn idx(self) -> usize;
    /// Widens to `u64` (the combining-collective key width).
    fn to_u64(self) -> u64;
    /// Converts from a `u64` key; debug-asserts the value fits.
    fn from_u64(v: u64) -> Self;
    /// The maximum representable value (the min-monoid identity).
    fn max_value() -> Self;
    /// Zero (the max-monoid identity).
    fn zero() -> Self {
        Self::default()
    }
}

macro_rules! impl_idx {
    ($ty:ty, $name:literal) => {
        impl Idx for $ty {
            const BITS: u32 = <$ty>::BITS;
            const BYTES: usize = std::mem::size_of::<$ty>();
            const NAME: &'static str = $name;
            const MAX_USIZE: usize = {
                // On 64-bit hosts u64::MAX exceeds nothing; saturate for
                // hypothetical 32-bit hosts rather than overflow the const.
                if <$ty>::BITS as usize >= usize::BITS as usize {
                    usize::MAX
                } else {
                    <$ty>::MAX as usize
                }
            };

            #[inline]
            fn from_usize(v: usize) -> Self {
                debug_assert!(v <= Self::MAX_USIZE, "index {v} exceeds {}", $name);
                v as $ty
            }

            #[inline]
            fn try_from_usize(v: usize) -> Option<Self> {
                (v <= Self::MAX_USIZE).then(|| v as $ty)
            }

            #[inline]
            fn idx(self) -> usize {
                self as usize
            }

            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }

            #[inline]
            fn from_u64(v: u64) -> Self {
                debug_assert!(v <= <$ty>::MAX as u64, "key {v} exceeds {}", $name);
                v as $ty
            }

            #[inline]
            fn max_value() -> Self {
                <$ty>::MAX
            }
        }
    };
}

impl_idx!(u32, "u32");
impl_idx!(u64, "u64");
impl_idx!(usize, "usize");

/// The error returned when a vertex universe does not fit an index width.
/// Carries everything needed for an actionable message; never produced by
/// a silent truncation path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdxOverflow {
    what: String,
    required: usize,
    width: &'static str,
    max: usize,
}

impl IdxOverflow {
    /// The index width that was too narrow (`"u32"`).
    pub fn width(&self) -> &'static str {
        self.width
    }

    /// The vertex count that did not fit.
    pub fn required(&self) -> usize {
        self.required
    }
}

impl fmt::Display for IdxOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs {} distinct vertex indices, but the {} index width holds at most {}; \
             the distributed stack stores vertex ids as u32",
            self.what, self.required, self.width, self.max
        )
    }
}

impl std::error::Error for IdxOverflow {}

/// Checks that a universe of `count` indices (`0..count`) fits `I`,
/// leaving headroom for `I::max_value()` to serve as the min-monoid
/// identity. Call this *before* allocating anything sized by `count`.
pub fn ensure_fits<I: Idx>(count: usize, what: &str) -> Result<(), IdxOverflow> {
    if count <= I::MAX_USIZE {
        Ok(())
    } else {
        Err(IdxOverflow {
            what: what.to_string(),
            required: count,
            width: I::NAME,
            max: I::MAX_USIZE,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_names() {
        assert_eq!(<u32 as Idx>::BYTES, 4);
        assert_eq!(<u64 as Idx>::BYTES, 8);
        assert_eq!(<u32 as Idx>::NAME, "u32");
        assert_eq!(<usize as Idx>::MAX_USIZE, usize::MAX);
    }

    #[test]
    fn roundtrips() {
        for v in [0usize, 1, 77, u32::MAX as usize] {
            assert_eq!(<u32 as Idx>::from_usize(v).idx(), v);
            assert_eq!(<u64 as Idx>::from_u64(v as u64).to_u64(), v as u64);
        }
        assert_eq!(<u32 as Idx>::try_from_usize(u32::MAX as usize + 1), None);
        assert_eq!(<u32 as Idx>::try_from_usize(5), Some(5u32));
    }

    #[test]
    fn ensure_fits_is_checked_not_truncating() {
        // A count over u32::MAX must fail *before* any allocation, with an
        // actionable message — never wrap around.
        let too_big = u32::MAX as usize + 2;
        let err = ensure_fits::<u32>(too_big, "test graph").unwrap_err();
        assert_eq!(err.width(), "u32");
        assert_eq!(err.required(), too_big);
        let msg = err.to_string();
        assert!(msg.contains("u32"), "{msg}");
        assert!(msg.contains("stores vertex ids as u32"), "{msg}");
        assert!(ensure_fits::<u64>(too_big, "test graph").is_ok());
        assert!(ensure_fits::<u32>(u32::MAX as usize, "edge graph").is_ok());
    }

    #[test]
    fn max_value_never_collides_with_checked_ids() {
        // ensure_fits(count) admits ids 0..count-1 < max_value().
        let count = u32::MAX as usize;
        assert!(ensure_fits::<u32>(count, "g").is_ok());
        assert!(((count - 1) as u32) < <u32 as Idx>::max_value());
    }
}
