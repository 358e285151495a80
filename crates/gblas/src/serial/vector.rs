//! Sparse vectors.
//!
//! Dense GraphBLAS vectors are plain `Vec<T>` in this workspace (every
//! element stored). A [`SparseVec`] stores only present entries — the
//! representation LACC's vectors collapse into after the first couple of
//! iterations ("vectors start out dense and get sparse rapidly", §IV).
//!
//! The index word is generic over [`Idx`]: `SparseVec<T, u32>` stores
//! 4-byte indices, halving entry traffic for graphs under 2^32 vertices.

use crate::Vid;
use lacc_graph::Idx;

/// A sparse vector: sorted, duplicate-free `(index, value)` entries over a
/// universe of size `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseVec<T, I: Idx = Vid> {
    n: usize,
    entries: Vec<(I, T)>,
}

impl<T: Copy, I: Idx> SparseVec<T, I> {
    /// An empty vector over `0..n`.
    pub fn empty(n: usize) -> Self {
        SparseVec {
            n,
            entries: Vec::new(),
        }
    }

    /// Builds from entries, sorting them; panics on duplicates or
    /// out-of-range indices.
    pub fn from_entries(n: usize, mut entries: Vec<(I, T)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        assert!(
            entries.iter().all(|&(i, _)| i.idx() < n),
            "index out of range"
        );
        assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate indices in sparse vector"
        );
        SparseVec { n, entries }
    }

    /// Universe size (`GrB_Vector_size`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored entries (`GrB_Vector_nvals`).
    pub fn nvals(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, sorted by index (`GrB_Vector_extractTuples`).
    pub fn entries(&self) -> &[(I, T)] {
        &self.entries
    }

    /// Value at index `i`, if present (binary search).
    pub fn get(&self, i: usize) -> Option<T> {
        let key = I::try_from_usize(i)?;
        self.entries
            .binary_search_by_key(&key, |&(j, _)| j)
            .ok()
            .map(|k| self.entries[k].1)
    }

    /// Scatters into a dense vector, with `fill` elsewhere.
    pub fn to_dense(&self, fill: T) -> Vec<T> {
        let mut out = vec![fill; self.n];
        for &(i, v) in &self.entries {
            out[i.idx()] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_sorts() {
        let v: SparseVec<char> = SparseVec::from_entries(10, vec![(7, 'a'), (2, 'b')]);
        assert_eq!(v.entries(), &[(2, 'b'), (7, 'a')]);
        assert_eq!(v.nvals(), 2);
        assert_eq!(v.get(7), Some('a'));
        assert_eq!(v.get(3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        SparseVec::<u8>::from_entries(5, vec![(1, 0u8), (1, 1u8)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_checked() {
        SparseVec::<u8>::from_entries(5, vec![(5, 0u8)]);
    }

    #[test]
    fn dense_roundtrip() {
        let v: SparseVec<i32> = SparseVec::from_entries(3, vec![(0, 10), (1, 20), (2, 30)]);
        assert_eq!(v.nvals(), 3);
        assert_eq!(v.to_dense(0), vec![10, 20, 30]);
    }

    #[test]
    fn to_dense_fills_gaps() {
        let v: SparseVec<i32> = SparseVec::from_entries(4, vec![(1, 9)]);
        assert_eq!(v.to_dense(-1), vec![-1, 9, -1, -1]);
        assert_eq!((v.nvals(), v.get(1), v.get(0)), (1, Some(9), None));
    }

    #[test]
    fn empty_vector() {
        let v: SparseVec<u32> = SparseVec::empty(0);
        assert!(v.is_empty());
        assert_eq!(v.nvals(), 0);
    }

    #[test]
    fn narrow_width_matches_default() {
        let narrow: SparseVec<u32, u32> = SparseVec::from_entries(9, vec![(4, 40), (1, 10)]);
        let wide: SparseVec<u32> = SparseVec::from_entries(9, vec![(4, 40), (1, 10)]);
        assert_eq!(narrow.to_dense(0), wide.to_dense(0));
        assert_eq!(narrow.get(4), Some(40));
    }
}
