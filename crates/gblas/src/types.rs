//! Algebraic building blocks: monoids, the `(Select2nd, min)` semiring
//! convention, and output masks.

use lacc_graph::Idx;

/// A commutative, associative combine with identity — the "add" of a
/// GraphBLAS semiring.
pub trait Monoid<T: Copy>: Copy + Send + Sync + 'static {
    /// The identity element (`combine(identity(), x) == x`).
    fn identity(&self) -> T;
    /// Combines two values.
    fn combine(&self, a: T, b: T) -> T;
}

/// `min` over any index word — the accumulator of the paper's
/// `(Select2nd, min)` semiring: among all neighbors' parent ids, keep the
/// smallest. The identity is `I::max_value()`, which [`lacc_graph::ensure_fits`]
/// guarantees never collides with a real vertex id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinUsize;

impl<I: Idx> Monoid<I> for MinUsize {
    fn identity(&self) -> I {
        I::max_value()
    }
    fn combine(&self, a: I, b: I) -> I {
        a.min(b)
    }
}

/// `max` over any index word (used in tests and the tie-break ablation —
/// the paper notes any semiring "add" works for unconditional hooking).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxUsize;

impl<I: Idx> Monoid<I> for MaxUsize {
    fn identity(&self) -> I {
        I::zero()
    }
    fn combine(&self, a: I, b: I) -> I {
        a.max(b)
    }
}

/// `+` over `usize` (degree counts, test oracles).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddUsize;

impl Monoid<usize> for AddUsize {
    fn identity(&self) -> usize {
        0
    }
    fn combine(&self, a: usize, b: usize) -> usize {
        a + b
    }
}

/// Simultaneous `(min, max)` over index-word pairs.
///
/// Used by LACC's convergence detector: one `mxv` on this monoid yields,
/// per vertex, both the smallest and the largest parent id among its
/// neighbors. A star tree whose members all see `min == max == root` has
/// no boundary edges and is a complete, converged component. (This is the
/// sound strengthening of the paper's Lemma 1 — see `lacc::serial` docs.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinMaxUsize;

impl<I: Idx> Monoid<(I, I)> for MinMaxUsize {
    fn identity(&self) -> (I, I) {
        (I::max_value(), I::zero())
    }
    fn combine(&self, a: (I, I), b: (I, I)) -> (I, I) {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

/// Logical AND over `bool` (star-membership demotion in `StarCheck`:
/// once a vertex is marked nonstar it must stay nonstar within the pass).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AndBool;

impl Monoid<bool> for AndBool {
    fn identity(&self) -> bool {
        true
    }
    fn combine(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

/// Logical OR over `bool`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrBool;

impl Monoid<bool> for OrBool {
    fn identity(&self) -> bool {
        false
    }
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

/// A GraphBLAS output mask: results are written only where the mask
/// permits.
///
/// `Complement` is the API's `GrB_SCMP` (structural complement), which the
/// paper uses in unconditional hooking to select *nonstar* parents.
#[derive(Clone, Copy, Debug)]
pub enum Mask<'a> {
    /// No masking: all outputs kept.
    None,
    /// Keep outputs at positions where the mask is `true`.
    Keep(&'a [bool]),
    /// Keep outputs at positions where the mask is `false`.
    Complement(&'a [bool]),
}

impl Mask<'_> {
    /// Whether position `i` passes the mask.
    #[inline]
    pub fn allows(&self, i: usize) -> bool {
        match self {
            Mask::None => true,
            Mask::Keep(m) => m[i],
            Mask::Complement(m) => !m[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_monoid_laws() {
        let m = MinUsize;
        assert_eq!(m.combine(m.identity(), 5usize), 5);
        assert_eq!(m.combine(3usize, 7), 3);
        assert_eq!(
            m.combine(m.combine(9usize, 2), 5),
            m.combine(9, m.combine(2, 5))
        );
    }

    #[test]
    fn monoids_generic_over_index_width() {
        // The blanket impls give the same algebra at every width.
        assert_eq!(MinUsize.combine(MinUsize.identity(), 5u32), 5);
        assert_eq!(<MinUsize as Monoid<u32>>::identity(&MinUsize), u32::MAX);
        assert_eq!(<MinUsize as Monoid<u64>>::identity(&MinUsize), u64::MAX);
        assert_eq!(MaxUsize.combine(MaxUsize.identity(), 9u32), 9);
        assert_eq!(
            MinMaxUsize.combine(MinMaxUsize.identity(), (3u32, 7u32)),
            (3, 7)
        );
    }

    #[test]
    fn add_monoids() {
        assert_eq!(AddUsize.combine(AddUsize.identity(), 4), 4);
        assert_eq!(MaxUsize.combine(MaxUsize.identity(), 0usize), 0);
    }

    #[test]
    fn mask_semantics() {
        let m = [true, false];
        assert!(Mask::None.allows(1));
        assert!(Mask::Keep(&m).allows(0));
        assert!(!Mask::Keep(&m).allows(1));
        assert!(!Mask::Complement(&m).allows(0));
        assert!(Mask::Complement(&m).allows(1));
    }
}
