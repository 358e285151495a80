//! Distributed dense and sparse vectors in the blocked CombBLAS layout.
//!
//! Vectors are block-distributed as in the paper's CombBLAS substrate
//! (`FullyDistVec`, §V-A): contiguous chunks in column-major grid order,
//! aligned with the matrix column blocks so the `mxv` gather stays inside
//! processor columns. [`VecLayout`] is that one layout: the round-robin
//! distribution §VII speculates about does not flatten the Figure-3 hot
//! spots and costs `mxv` a world-wide gather (EXPERIMENTS.md has the
//! measurement).

use super::dense::OwnerLocator;
use crate::serial::SparseVec;
use crate::Vid;
use dmsim::{Comm, Grid2d};
use lacc_graph::Idx;

/// Even split of `0..n` into `parts` contiguous blocks; block `k` is
/// `[k·n/parts, (k+1)·n/parts)`.
pub fn block_range(n: usize, parts: usize, k: usize) -> (usize, usize) {
    (k * n / parts, (k + 1) * n / parts)
}

/// The common distribution of all vectors in a computation: `n` elements
/// over the grid's `p` ranks in contiguous chunks ([`block_range`]), where
/// the chunk of grid rank `(i, j)` has *chunk index* `j·pr + i`
/// (column-major) — the ordering that aligns vector chunks with matrix
/// column blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VecLayout {
    n: usize,
    grid: Grid2d,
}

impl VecLayout {
    /// The layout of `n` elements on `grid`.
    pub fn new(n: usize, grid: Grid2d) -> Self {
        VecLayout { n, grid }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty vector.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Chunk index owned by `rank` (column-major grid order).
    pub fn chunk_of_rank(&self, rank: usize) -> usize {
        let (i, j) = self.grid.coords_of(rank);
        j * self.grid.rows() + i
    }

    /// Rank owning chunk `c`.
    pub fn rank_of_chunk(&self, c: usize) -> usize {
        let (i, j) = (c % self.grid.rows(), c / self.grid.rows());
        self.grid.rank_of(i, j)
    }

    /// Global index range `[start, end)` owned by `rank`.
    pub fn range_of_rank(&self, rank: usize) -> (usize, usize) {
        block_range(self.n, self.grid.size(), self.chunk_of_rank(rank))
    }

    /// Number of elements stored by `rank`.
    pub fn local_len(&self, rank: usize) -> usize {
        let (s, e) = self.range_of_rank(rank);
        e - s
    }

    /// Global index of `rank`'s element at local `offset`.
    pub fn global_of(&self, rank: usize, offset: usize) -> Vid {
        self.range_of_rank(rank).0 + offset
    }

    /// Local offset of global index `g` on its owner.
    ///
    /// # Panics (debug)
    /// If `g` is not owned by `rank`.
    pub fn offset_of(&self, rank: usize, g: Vid) -> usize {
        let (s, e) = self.range_of_rank(rank);
        debug_assert!(g >= s && g < e, "index {g} not owned by rank {rank}");
        g - s
    }

    /// Chunk index containing global index `g` (the grid-aligned `mxv`
    /// routing goes by chunk).
    pub fn chunk_containing(&self, g: Vid) -> usize {
        debug_assert!(g < self.n);
        let p = self.grid.size();
        // First guess by proportion, then correct for flooring.
        let mut c = (g * p) / self.n;
        while block_range(self.n, p, c).0 > g {
            c -= 1;
        }
        while block_range(self.n, p, c).1 <= g {
            c += 1;
        }
        c
    }

    /// Rank owning global index `g`.
    pub fn owner_of(&self, g: Vid) -> usize {
        self.rank_of_chunk(self.chunk_containing(g))
    }

    /// Buckets `(global id, payload)` items by owning rank in one pass:
    /// the legacy-wire routing of extract request planning and
    /// `dist_assign`. Ids stay at their native index width `I` so narrow
    /// layouts charge narrow wire words downstream.
    pub fn bucket_by_owner<I: Idx, P>(
        &self,
        items: impl Iterator<Item = (I, P)>,
    ) -> Vec<Vec<(I, P)>> {
        let mut buckets: Vec<Vec<(I, P)>> = (0..self.grid.size()).map(|_| Vec::new()).collect();
        let locator = self.locator();
        for (g, it) in items {
            buckets[locator.locate(g.idx()).0].push((g, it));
        }
        buckets
    }

    /// The chunk boundaries of this layout, precomputed for loops that
    /// route many ids (see [`OwnerLocator`]).
    pub fn locator(&self) -> OwnerLocator {
        OwnerLocator::new(self)
    }
}

/// A dense distributed vector: every rank stores its elements in local
/// offset order.
#[derive(Clone, Debug, PartialEq)]
pub struct DistVec<T> {
    layout: VecLayout,
    rank: usize,
    /// Global index of the local chunk's first element, cached so a local
    /// lookup does not re-derive the chunk boundaries.
    origin: usize,
    local: Vec<T>,
}

impl<T: Copy + Send + 'static> DistVec<T> {
    /// Builds this rank's elements from a function of the global index.
    pub fn from_fn(layout: VecLayout, rank: usize, f: impl Fn(Vid) -> T) -> Self {
        let (origin, end) = layout.range_of_rank(rank);
        DistVec {
            layout,
            rank,
            origin,
            local: (origin..end).map(f).collect(),
        }
    }

    /// Local offset of the locally owned global index `g`.
    pub fn local_offset(&self, g: Vid) -> usize {
        debug_assert!(self.owns(g), "index {g} not owned by rank {}", self.rank);
        g - self.origin
    }

    /// Slices this rank's elements out of a replicated global vector (test
    /// and setup convenience).
    pub fn from_global(layout: VecLayout, rank: usize, global: &[T]) -> Self {
        assert_eq!(global.len(), layout.len());
        Self::from_fn(layout, rank, |g| global[g])
    }

    /// The layout.
    pub fn layout(&self) -> VecLayout {
        self.layout
    }

    /// The owning rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Global range `[start, end)` of the local chunk.
    pub fn range(&self) -> (usize, usize) {
        self.layout.range_of_rank(self.rank)
    }

    /// Local elements in offset order.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable local elements.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Global index of the element at local `offset`.
    pub fn global_of(&self, offset: usize) -> Vid {
        self.layout.global_of(self.rank, offset)
    }

    /// Value at a locally owned global index.
    pub fn get_local(&self, g: Vid) -> T {
        self.local[self.local_offset(g)]
    }

    /// Sets a locally owned global index.
    pub fn set_local(&mut self, g: Vid, v: T) {
        let o = self.local_offset(g);
        self.local[o] = v;
    }

    /// True if this rank owns global index `g`.
    pub fn owns(&self, g: Vid) -> bool {
        g < self.layout.len() && self.layout.owner_of(g) == self.rank
    }

    /// Assembles the full vector on every rank (allgather).
    pub fn to_global(&self, comm: &mut Comm) -> Vec<T>
    where
        T: Clone,
    {
        let world = comm.world();
        // The own chunk is read in place; only the ring gets a copy.
        let by_rank = comm.allgatherv_peers(&world, self.local.clone());
        let chunks: Vec<&[T]> = (0..self.layout.grid.size())
            .map(|c| match self.layout.rank_of_chunk(c) {
                r if r == self.rank => self.local.as_slice(),
                r => by_rank[r].as_slice(),
            })
            .collect();
        let global = chunks.concat();
        assert_eq!(global.len(), self.layout.n, "gathered chunks cover 0..n");
        global
    }
}

/// A sparse distributed vector: each rank stores the present entries that
/// it owns, as `(global index, value)` sorted by index. The index word is
/// generic over [`Idx`] — `DistSpVec<T, u32>` halves entry index traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct DistSpVec<T, I: Idx = Vid> {
    layout: VecLayout,
    rank: usize,
    entries: Vec<(I, T)>,
}

impl<T: Copy + Send + 'static, I: Idx> DistSpVec<T, I> {
    /// An empty sparse vector.
    pub fn empty(layout: VecLayout, rank: usize) -> Self {
        DistSpVec {
            layout,
            rank,
            entries: Vec::new(),
        }
    }

    /// Builds from this rank's local entries (must be owned here; sorted
    /// and checked).
    pub fn from_local_entries(layout: VecLayout, rank: usize, mut entries: Vec<(I, T)>) -> Self {
        entries.sort_unstable_by_key(|&(g, _)| g);
        assert!(
            entries
                .iter()
                .all(|&(g, _)| g.idx() < layout.len() && layout.owner_of(g.idx()) == rank),
            "entry outside local chunk"
        );
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate index"
        );
        DistSpVec {
            layout,
            rank,
            entries,
        }
    }

    /// The layout.
    pub fn layout(&self) -> VecLayout {
        self.layout
    }

    /// Global range of the local chunk.
    pub fn range(&self) -> (usize, usize) {
        self.layout.range_of_rank(self.rank)
    }

    /// Local entries, sorted by global index.
    pub fn entries(&self) -> &[(I, T)] {
        &self.entries
    }

    /// Total stored entries across all ranks (an allreduce).
    pub fn global_nvals(&self, comm: &mut Comm) -> usize {
        let world = comm.world();
        comm.allreduce(&world, self.entries.len() as u64, |a, b| a + b) as usize
    }

    /// Assembles the full sparse vector on every rank.
    pub fn to_serial(&self, comm: &mut Comm) -> SparseVec<T, I> {
        let world = comm.world();
        // The own entries are read in place; only the ring gets a copy.
        let by_rank = comm.allgatherv_peers(&world, self.entries.clone());
        let mut all: Vec<(I, T)> = Vec::new();
        for (r, block) in by_rank.iter().enumerate() {
            all.extend_from_slice(if r == self.rank { &self.entries } else { block });
        }
        all.sort_unstable_by_key(|&(g, _)| g);
        SparseVec::from_entries(self.layout.n, all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::run_spmd;

    #[test]
    fn block_range_covers_and_partitions() {
        for (n, parts) in [(10, 3), (7, 7), (100, 16), (5, 8), (0, 4)] {
            let mut prev = 0;
            for k in 0..parts {
                let (s, e) = block_range(n, parts, k);
                assert_eq!(s, prev);
                assert!(e >= s);
                prev = e;
            }
            assert_eq!(prev, n);
        }
    }

    #[test]
    fn layout_owner_matches_offsets_both_distributions() {
        // n not divisible by p, and n below p (ranks owning nothing).
        for n in [103, 5] {
            let layout = VecLayout::new(n, Grid2d::square(9));
            let mut seen = 0usize;
            for r in 0..9 {
                for o in 0..layout.local_len(r) {
                    let g = layout.global_of(r, o);
                    assert!(g < n);
                    assert_eq!(layout.owner_of(g), r);
                    assert_eq!(layout.offset_of(r, g), o);
                    seen += 1;
                }
            }
            assert_eq!(seen, n, "every index owned exactly once");
        }
    }

    #[test]
    fn column_major_chunks_align_with_column_blocks() {
        // Blocked chunks of processor column j must concatenate to the
        // matrix column block j.
        let grid = Grid2d::square(16);
        let layout = VecLayout::new(97, grid);
        for j in 0..4 {
            let col_block = block_range(97, 4, j);
            let first = layout.range_of_rank(grid.rank_of(0, j)).0;
            let last = layout.range_of_rank(grid.rank_of(3, j)).1;
            assert_eq!((first, last), col_block);
        }
    }

    #[test]
    fn chunk_rank_roundtrip() {
        let layout = VecLayout::new(50, Grid2d::square(4));
        for c in 0..4 {
            assert_eq!(layout.chunk_of_rank(layout.rank_of_chunk(c)), c);
        }
    }

    #[test]
    fn distvec_to_global_roundtrip_both_layouts() {
        let global: Vec<u64> = (0..37).map(|g| g * 3).collect();
        let out = run_spmd(4, |c| {
            let layout = VecLayout::new(37, Grid2d::square(4));
            let v = DistVec::from_global(layout, c.rank(), &global);
            v.to_global(c)
        })
        .unwrap();
        for got in out {
            assert_eq!(got, global);
        }
    }

    #[test]
    fn distvec_local_accessors() {
        run_spmd(4, |c| {
            let layout = VecLayout::new(20, Grid2d::square(4));
            let mut v = DistVec::from_fn(layout, c.rank(), |g| g as u64);
            for o in 0..v.local().len() {
                let g = v.global_of(o);
                assert!(v.owns(g));
                assert_eq!(v.get_local(g), g as u64);
            }
            if !v.local().is_empty() {
                let g = v.global_of(0);
                v.set_local(g, 999);
                assert_eq!(v.local()[0], 999);
            }
        })
        .unwrap();
    }

    #[test]
    fn distspvec_global_roundtrip() {
        let out = run_spmd(9, |c| {
            let layout = VecLayout::new(40, Grid2d::square(9));
            let entries: Vec<(usize, u64)> = (0..40)
                .filter(|&g| g % 3 == 0 && layout.owner_of(g) == c.rank())
                .map(|g| (g, g as u64 * 2))
                .collect();
            let v = DistSpVec::from_local_entries(layout, c.rank(), entries);
            let total = v.global_nvals(c);
            let serial = v.to_serial(c);
            (total, serial)
        })
        .unwrap();
        let expect: Vec<(usize, u64)> = (0..40)
            .filter(|g| g % 3 == 0)
            .map(|g| (g, g as u64 * 2))
            .collect();
        for (total, serial) in out {
            assert_eq!(total, expect.len());
            assert_eq!(serial.entries(), &expect[..]);
        }
    }

    #[test]
    fn spvec_rejects_foreign_entries() {
        let err = run_spmd(4, |c| {
            let layout = VecLayout::new(16, Grid2d::square(4));
            if c.rank() == 0 {
                // Index 15 belongs to the last chunk, not rank 0's.
                let _ = DistSpVec::from_local_entries(layout, 0, vec![(15usize, 1u8)]);
            }
        })
        .unwrap_err();
        assert_eq!(err.rank, 0);
        assert!(err.message().contains("outside local chunk"));
    }
}
