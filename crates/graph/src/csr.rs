//! Compressed-sparse-row adjacency structure.
//!
//! [`CsrGraph`] is the canonical immutable graph representation consumed by
//! every connected-components algorithm in the workspace. It always stores
//! a *symmetric* simple graph: building it from an [`EdgeList`]
//! canonicalizes (self loops removed, both directions present, no
//! duplicates), matching the paper's storage of symmetric adjacency
//! matrices (Table III counts directed edges for the same reason).
//!
//! The target array is generic over the index word width [`Idx`]: the
//! default `CsrGraph` stores `usize` targets ([`Vid`], what the readers,
//! generators and serial algorithms build), while `CsrGraph<u32>` stores
//! the 4-byte words the distributed stack's matrix blocks hold, halving
//! adjacency memory traffic. Narrowing conversions are checked — see
//! [`CsrGraph::try_from_edges`] and [`CsrGraph::try_narrow`].

use crate::idx::{ensure_fits, Idx, IdxOverflow};
use crate::{EdgeList, Vid};
use std::fmt;

/// Why a graph could not be built: a generator's parameters are invalid,
/// its vertex count does not fit the index width (or `usize` itself), or
/// the host refused an array sized by it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The vertex count does not fit the index width.
    Overflow(IdxOverflow),
    /// The host could not allocate an array the graph needs.
    OutOfMemory {
        /// What the array holds.
        what: &'static str,
        /// Its length in elements.
        len: usize,
    },
    /// A generator was asked for `2^scale` vertices, which no `usize`
    /// vertex index can number.
    ScaleOverflow {
        /// The generator asked.
        generator: &'static str,
        /// Log2 of the vertex count asked for.
        scale: u32,
    },
    /// A generator's parameters are out of their domain; the text says
    /// which and why.
    InvalidParams(String),
}

impl From<IdxOverflow> for BuildError {
    fn from(e: IdxOverflow) -> Self {
        BuildError::Overflow(e)
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Overflow(e) => e.fmt(f),
            BuildError::OutOfMemory { what, len } => {
                write!(f, "out of memory allocating {what} of {len} entries")
            }
            BuildError::ScaleOverflow { generator, scale } => write!(
                f,
                "{generator} scale {scale} overflows the {}-bit vertex index \
                 (2^{scale} vertices)",
                usize::BITS
            ),
            BuildError::InvalidParams(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for BuildError {}

/// `len` copies of `value`, or [`BuildError::OutOfMemory`] where
/// `vec![value; len]` would abort the process.
pub(crate) fn try_filled<T: Clone>(
    what: &'static str,
    len: usize,
    value: T,
) -> Result<Vec<T>, BuildError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| BuildError::OutOfMemory { what, len })?;
    v.resize(len, value);
    Ok(v)
}

/// A symmetric graph in CSR form with `I`-width target indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph<I: Idx = Vid> {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<I>,
}

impl<I: Idx> CsrGraph<I> {
    /// Builds a CSR graph from an edge list, canonicalizing it on the way
    /// (see [`try_from_pairs`](Self::try_from_pairs)).
    ///
    /// Panics if the vertex count exceeds the index width `I`; use
    /// [`try_from_edges`](Self::try_from_edges) for a recoverable error.
    pub fn from_edges(el: EdgeList) -> Self {
        match Self::try_from_edges(el) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`from_edges`](Self::from_edges) with a checked conversion to the
    /// index width `I`.
    pub fn try_from_edges(el: EdgeList) -> Result<Self, BuildError> {
        Self::try_from_pairs(el.num_vertices(), el.edges())
    }

    /// Builds the symmetric simple graph of an arbitrary edge multiset over
    /// `0..n`: both orientations stored, duplicates (in either orientation)
    /// merged, self loops dropped.
    ///
    /// No global sort: a counting pass sizes every row, a scatter pass
    /// writes each edge into both endpoint rows, and each row is then
    /// sorted and deduplicated on its own while the array is compacted in
    /// place — `O(m + Σ d log d)` with no scratch beyond the CSR itself.
    /// Both passes run on up to `available_parallelism()` threads, each
    /// owning a range of rows; the graph is the same for every thread
    /// count.
    ///
    /// Errs — before allocating anything — when `n` does not fit `I`, and
    /// when the host refuses the row offsets or the target array.
    ///
    /// # Panics
    /// If an endpoint is not in `0..n` (also before allocating).
    pub fn try_from_pairs(n: usize, pairs: &[(Vid, Vid)]) -> Result<Self, BuildError> {
        let workers = std::thread::available_parallelism()
            .map_or(1, |t| t.get())
            .min(pairs.len() / MIN_PAIRS_PER_WORKER)
            .max(1);
        Self::from_pairs_on(n, pairs, workers)
    }

    /// [`try_from_pairs`](Self::try_from_pairs) on `workers` threads (the
    /// calling thread when 1).
    ///
    /// Every worker streams the whole pair list and keeps the endpoints in
    /// its own rows, so it writes through plain `&mut` slices and nothing
    /// is shared. The count pass splits the rows into equal vertex ranges;
    /// the scatter pass re-splits them by entry count, because that is
    /// what the sort and the writes cost. Each worker compacts its rows to
    /// the front of its own target range, and one `copy_within` per range
    /// then closes the gaps, so the result does not depend on `workers`.
    pub(crate) fn from_pairs_on(
        n: usize,
        pairs: &[(Vid, Vid)],
        workers: usize,
    ) -> Result<Self, BuildError> {
        ensure_fits::<I>(n, "CSR graph")?;
        if let Some(&(u, v)) = pairs.iter().find(|&&(u, v)| u >= n || v >= n) {
            panic!("edge ({u},{v}) out of range for n={n}");
        }
        // Count: offsets[v] = entries row v will receive, duplicates included.
        let mut offsets = try_filled("CSR row offsets", n + 1, 0usize)?;
        let rows = n.div_ceil(workers).max(1);
        on_ranges(offsets[..n].chunks_mut(rows), |i, counts| {
            let lo = i * rows;
            let mut count = |x: Vid| {
                if let Some(c) = counts.get_mut(x.wrapping_sub(lo)) {
                    *c += 1;
                }
            };
            for &(u, v) in pairs {
                if u != v {
                    count(u);
                    count(v);
                }
            }
        });
        let mut total = 0usize;
        for o in &mut offsets {
            total += std::mem::replace(o, total);
        }
        let mut targets = try_filled("CSR targets", total, I::zero())?;
        // Re-split by entries: range k starts at the first row that starts
        // at or past k/workers of them (ranges may be empty), and its slots
        // are targets[bases[k]..bases[k + 1]].
        let mut cuts: Vec<usize> = (0..workers)
            .map(|k| {
                let goal = (total as u128 * k as u128 / workers as u128) as usize;
                offsets[..n].partition_point(|&o| o < goal)
            })
            .collect();
        cuts.push(n);
        let bases: Vec<usize> = cuts.iter().map(|&c| offsets[c]).collect();
        let mut ranges = Vec::with_capacity(workers);
        let (mut row_rest, mut slot_rest) = (&mut offsets[..n], &mut targets[..]);
        for k in 0..workers {
            let (starts, row_tail) = row_rest.split_at_mut(cuts[k + 1] - cuts[k]);
            let (slots, slot_tail) = slot_rest.split_at_mut(bases[k + 1] - bases[k]);
            (row_rest, slot_rest) = (row_tail, slot_tail);
            ranges.push((cuts[k], bases[k], starts, slots));
        }
        let kept = on_ranges(ranges, |_, (lo, base, starts, slots)| {
            fill_rows(pairs, lo, base, starts, slots)
        });
        // Close the gaps between the ranges and rebase their offsets.
        let mut write = 0usize;
        for (k, kept) in kept.into_iter().enumerate() {
            if write != bases[k] {
                targets.copy_within(bases[k]..bases[k] + kept, write);
            }
            for o in &mut offsets[cuts[k]..cuts[k + 1]] {
                *o += write;
            }
            write += kept;
        }
        offsets[n] = write;
        targets.truncate(write);
        targets.shrink_to_fit();
        let g = CsrGraph {
            n,
            offsets,
            targets,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        Ok(g)
    }

    /// Builds a CSR graph from an edge list already in canonical form
    /// (symmetric, deduplicated, loop-free); panics in debug builds if the
    /// input is not canonical. With [`EdgeList::canonicalize`] this is the
    /// sort-based reference [`try_from_pairs`](Self::try_from_pairs) is
    /// tested against. Panics if the vertex count exceeds `I`; use
    /// [`try_from_canonical_edges`](Self::try_from_canonical_edges) to
    /// recover.
    pub fn from_canonical_edges(el: &EdgeList) -> Self {
        match Self::try_from_canonical_edges(el) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of
    /// [`from_canonical_edges`](Self::from_canonical_edges): returns a
    /// descriptive [`IdxOverflow`] — before allocating anything sized by
    /// the vertex count — when the graph does not fit `I`.
    pub fn try_from_canonical_edges(el: &EdgeList) -> Result<Self, IdxOverflow> {
        let n = el.num_vertices();
        ensure_fits::<I>(n, "CSR graph")?;
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in el.edges() {
            offsets[u + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![I::zero(); el.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in el.edges() {
            debug_assert_ne!(u, v, "self loop in canonical edge list");
            targets[cursor[u]] = I::from_usize(v);
            cursor[u] += 1;
        }
        // Sort each adjacency row for deterministic traversal and binary
        // search support.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let g = CsrGraph {
            n,
            offsets,
            targets,
        };
        debug_assert!(g.is_symmetric(), "edge list was not symmetric");
        Ok(g)
    }

    /// Re-stores the same graph at index width `J`, checking that the
    /// vertex count fits. The structure is copied verbatim (no
    /// re-canonicalization), so the result is structurally identical.
    pub fn try_narrow<J: Idx>(&self) -> Result<CsrGraph<J>, IdxOverflow> {
        ensure_fits::<J>(self.n, "CSR graph")?;
        Ok(CsrGraph {
            n: self.n,
            offsets: self.offsets.clone(),
            targets: self
                .targets
                .iter()
                .map(|&t| J::from_usize(t.idx()))
                .collect(),
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored directed edges (twice the undirected edge count).
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges.
    pub fn num_undirected_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: Vid) -> &[I] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Vid) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Average degree `2m/n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.n as f64
        }
    }

    /// The CSR offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The CSR targets array (length = number of directed edges).
    pub fn targets(&self) -> &[I] {
        &self.targets
    }

    /// True if `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: Vid, v: Vid) -> bool {
        self.neighbors(u).binary_search(&I::from_usize(v)).is_ok()
    }

    /// Iterates over all directed edges `(u, v)` as widened [`Vid`] pairs.
    pub fn edges(&self) -> impl Iterator<Item = (Vid, Vid)> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v.idx())))
    }

    /// Converts back to an edge list (directed entries).
    pub fn to_edgelist(&self) -> EdgeList {
        EdgeList::from_pairs(self.n, self.edges())
    }

    /// Checks structural symmetry: `(u,v)` present iff `(v,u)` present.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Validates internal invariants (monotone offsets, in-range targets,
    /// sorted rows, no self loops, no duplicates). Returns a description of
    /// the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.n + 1 {
            return Err(format!(
                "offsets length {} != n+1 {}",
                self.offsets.len(),
                self.n + 1
            ));
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.targets.len() {
            return Err("offsets endpoints wrong".into());
        }
        for v in 0..self.n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets not monotone at {v}"));
            }
            let row = self.neighbors(v);
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {v} not strictly sorted"));
                }
            }
            for &t in row {
                if t.idx() >= self.n {
                    return Err(format!("target {t} out of range in row {v}"));
                }
                if t.idx() == v {
                    return Err(format!("self loop at {v}"));
                }
            }
        }
        Ok(())
    }
}

/// Fewest pairs worth a builder thread of their own: every thread streams
/// the whole list twice, and a spawn costs tens of microseconds.
const MIN_PAIRS_PER_WORKER: usize = 1 << 15;

/// Runs `work` on every item, the first on the calling thread and each
/// other on a scoped thread of its own; returns the results in item
/// order.
pub(crate) fn on_ranges<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let mut items = items.into_iter().enumerate();
        let first = items.next();
        let work = &work;
        let spawned: Vec<_> = items
            .map(|(i, item)| s.spawn(move || work(i, item)))
            .collect();
        let mut out: Vec<R> = first.map(|(i, item)| work(i, item)).into_iter().collect();
        for h in spawned {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// One range of the scatter pass: writes both orientations of every
/// non-loop pair into the rows `lo..lo + starts.len()` it owns, then
/// sorts and dedups each row while compacting forward to the front of
/// `slots` (write <= start always holds, so no row is overwritten before
/// it is read).
///
/// `slots` begins at CSR position `base`, and `starts` holds the rows'
/// start positions on entry and their compacted starts within `slots` on
/// return. Returns the number of entries kept.
fn fill_rows<I: Idx>(
    pairs: &[(Vid, Vid)],
    lo: Vid,
    base: usize,
    starts: &mut [usize],
    slots: &mut [I],
) -> usize {
    // Use starts[r] as row r's cursor: afterwards it holds the row's end.
    let mut put = |row: Vid, t: Vid| {
        if let Some(cursor) = starts.get_mut(row.wrapping_sub(lo)) {
            slots[*cursor - base] = I::from_usize(t);
            *cursor += 1;
        }
    };
    for &(u, v) in pairs {
        if u != v {
            put(u, v);
            put(v, u);
        }
    }
    let (mut start, mut write) = (0usize, 0usize);
    for row_start in starts {
        let end = std::mem::replace(row_start, write) - base;
        slots[start..end].sort_unstable();
        for k in start..end {
            let t = slots[k];
            if k == start || t != slots[write - 1] {
                slots[write] = t;
                write += 1;
            }
        }
        start = end;
    }
    write
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(EdgeList::from_pairs(3, [(0, 1), (1, 2), (2, 0)]))
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.num_undirected_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_canonicalizes() {
        // Duplicates, loops, one direction only.
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 1), (2, 2), (3, 1)]);
        let g = CsrGraph::<Vid>::from_edges(el);
        assert_eq!(g.num_undirected_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(2, 2));
        assert!(g.is_symmetric());
    }

    /// The sort-based reference: canonicalize the whole list, then the
    /// canonical-input constructor.
    fn oracle<I: Idx>(n: usize, pairs: &[(Vid, Vid)]) -> CsrGraph<I> {
        let mut el = EdgeList::from_pairs(n, pairs.iter().copied());
        el.canonicalize();
        CsrGraph::from_canonical_edges(&el)
    }

    #[test]
    fn counting_build_matches_sorting_oracle_on_edge_cases() {
        // A hub holding every edge fills the first (or the last) balanced
        // range on its own and leaves the ranges beside it empty.
        let hub_first: Vec<(Vid, Vid)> = (1..8).flat_map(|k| [(0, k), (k, 0), (0, k)]).collect();
        let hub_last: Vec<(Vid, Vid)> = (0..7).map(|k| (7, k)).collect();
        // A multiset with loops and repeats in both orientations, so every
        // range drops entries and the gaps between ranges must close.
        let mut x = 12345u64;
        let mut draw = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % 300
        };
        let noisy: Vec<(Vid, Vid)> = (0..5000).map(|_| (draw(), draw() / 4)).collect();
        let cases: [(usize, &[(Vid, Vid)]); 11] = [
            (0, &[]),
            (1, &[]),
            (1, &[(0, 0), (0, 0)]),
            (5, &[]),
            (3, &[(0, 0), (1, 1), (2, 2), (1, 1)]),
            // Duplicates in both orientations around an isolated vertex 2.
            (5, &[(3, 1), (1, 3), (3, 1), (0, 4), (4, 0), (4, 4), (1, 0)]),
            // A hub whose row shrinks under dedup, shifting every later row.
            (4, &[(0, 1), (0, 1), (1, 0), (0, 2), (2, 3), (3, 2), (0, 3)]),
            (8, &hub_first),
            (8, &hub_last),
            // Fewer vertices than workers.
            (2, &[(0, 1), (1, 0), (1, 1)]),
            (300, &noisy),
        ];
        for (n, pairs) in cases {
            for workers in [1, 2, 3, 4, 7] {
                let g = CsrGraph::<Vid>::from_pairs_on(n, pairs, workers).unwrap();
                assert_eq!(g, oracle(n, pairs), "n={n}, {workers} workers, {pairs:?}");
                assert_eq!(g.validate(), Ok(()));
                let narrow = CsrGraph::<u32>::from_pairs_on(n, pairs, workers).unwrap();
                assert_eq!(narrow, oracle(n, pairs), "u32 n={n}, {workers} workers");
            }
            assert_eq!(
                CsrGraph::<Vid>::try_from_pairs(n, pairs).unwrap(),
                oracle(n, pairs)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::<Vid>::try_from_pairs(2, &[(0, 1), (0, 2)]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::<Vid>::from_edges(EdgeList::new(5));
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_directed_edges(), 0);
        assert_eq!(g.neighbors(3), &[] as &[Vid]);
        assert!(g.validate().is_ok());

        let g0 = CsrGraph::<Vid>::from_edges(EdgeList::new(0));
        assert_eq!(g0.num_vertices(), 0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn has_edge_and_iteration() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 6);
        assert!(all.contains(&(2, 1)));
    }

    #[test]
    fn roundtrip_through_edgelist() {
        let g = triangle();
        let g2 = CsrGraph::from_edges(g.to_edgelist());
        assert_eq!(g, g2);
    }

    #[test]
    fn average_degree() {
        let g = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn narrow_width_matches_default() {
        let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]);
        let wide = CsrGraph::<Vid>::from_edges(el.clone());
        let narrow = CsrGraph::<u32>::from_edges(el);
        assert_eq!(wide.num_directed_edges(), narrow.num_directed_edges());
        assert_eq!(narrow.neighbors(4), &[3u32, 5u32]);
        assert!(narrow.validate().is_ok());
        // Structural identity after widening back.
        let widened: Vec<_> = narrow.edges().collect();
        let original: Vec<_> = wide.edges().collect();
        assert_eq!(widened, original);
        // And try_narrow roundtrips.
        let renarrowed = wide.try_narrow::<u32>().unwrap();
        assert_eq!(renarrowed, narrow);
    }

    #[test]
    fn overflow_is_a_descriptive_error_not_truncation() {
        // EdgeList::new is cheap (no per-vertex allocation), so we can ask
        // for a universe beyond u32 without exhausting memory. The checked
        // constructor must refuse *before* allocating offsets.
        let huge = EdgeList::new(u32::MAX as usize + 10);
        let Err(BuildError::Overflow(err)) = CsrGraph::<u32>::try_from_edges(huge) else {
            panic!("a u32 graph of 2^32 + 9 vertices was built");
        };
        assert_eq!(err.width(), "u32");
        assert_eq!(err.required(), u32::MAX as usize + 10);
        let msg = err.to_string();
        assert!(
            msg.contains("u32") && msg.contains("stores vertex ids as u32"),
            "{msg}"
        );

        let huge = EdgeList::new(u32::MAX as usize + 10);
        assert!(CsrGraph::<u32>::try_from_canonical_edges(&huge).is_err());

        // Narrowing an in-range graph succeeds; the guard is about counts,
        // not edge density.
        let small = CsrGraph::<Vid>::from_edges(EdgeList::from_pairs(3, [(0, 1)]));
        assert!(small.try_narrow::<u32>().is_ok());
    }
}
