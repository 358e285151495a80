//! Dense-id grouping for the request path.
//!
//! Every id the `extract`/`assign`/`mxv` exchanges route is a vertex id in
//! `0..n`, and each owner's ids are one contiguous range, so deduplicating,
//! grouping by owner and sorting them needs no hash table, comparison sort
//! or search: a [`RankBitmap`] over `0..n` records which ids are present,
//! the prefix popcount of an id is its index in the sorted, deduplicated
//! list, and an [`OwnerLocator`] cuts that list at the chunk boundaries —
//! `O(k + n/64)` for `k` ids, in two sequential passes. The same words
//! carry a dense `mxv`'s mask to the ranks that fold its rows
//! (`pack_bits` / `set_bits`).

use super::dvec::VecLayout;
use crate::types::Monoid;
use crate::Vid;

/// The chunk boundaries of one [`VecLayout`], computed once per call so
/// the per-element routing loops pay a compare and a subtract per id (at
/// most one division, for the first chunk guess) instead of re-deriving
/// `block_range` each time.
pub struct OwnerLocator {
    n: usize,
    /// `base[c]` is the first global id of chunk `c`; `p + 1` entries.
    base: Vec<usize>,
    /// Rank owning chunk `c`.
    chunk_rank: Vec<usize>,
    /// Chunk owned by rank `r`.
    rank_chunk: Vec<usize>,
}

impl OwnerLocator {
    pub(super) fn new(layout: &VecLayout) -> Self {
        let (n, p) = (layout.len(), layout.grid().size());
        let chunk_rank: Vec<usize> = (0..p).map(|c| layout.rank_of_chunk(c)).collect();
        let mut base = Vec::with_capacity(p + 1);
        base.push(0);
        for c in 0..p {
            base.push(base[c] + layout.local_len(chunk_rank[c]));
        }
        debug_assert_eq!(base[p], n);
        OwnerLocator {
            n,
            base,
            chunk_rank,
            rank_chunk: (0..p).map(|r| layout.chunk_of_rank(r)).collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.chunk_rank.len()
    }

    /// `(owning rank, local offset on it)` of global index `g`.
    pub fn locate(&self, g: Vid) -> (usize, usize) {
        assert!(g < self.n, "index {g} outside a vector of {}", self.n);
        // First guess by proportion, then correct for flooring.
        let mut c = g * self.ranks() / self.n;
        while self.base[c] > g {
            c -= 1;
        }
        while self.base[c + 1] <= g {
            c += 1;
        }
        (self.chunk_rank[c], g - self.base[c])
    }

    /// The ids `rank` owns, as a half-open range.
    fn range_of(&self, rank: usize) -> (usize, usize) {
        let c = self.rank_chunk[rank];
        (self.base[c], self.base[c + 1])
    }

    /// Per rank, the half-open range of slots (indices among `present`'s
    /// ids, ascending) that fall on ids the rank owns.
    fn slot_ranges(&self, present: &RankBitmap) -> Vec<(usize, usize)> {
        (0..self.ranks())
            .map(|r| {
                let (lo, hi) = self.range_of(r);
                (present.rank(lo), present.rank(hi))
            })
            .collect()
    }

    /// Splits the present ids into one list per owning rank, each in
    /// ascending id order: `entry(slot, global index)` per id, where `slot`
    /// is the id's index among the present ones.
    pub fn split_by_owner<E>(
        &self,
        present: &RankBitmap,
        mut entry: impl FnMut(usize, Vid) -> E,
    ) -> Vec<Vec<E>> {
        let mut lists: Vec<Vec<E>> = self
            .slot_ranges(present)
            .iter()
            .map(|&(lo, hi)| Vec::with_capacity(hi - lo))
            .collect();
        for (slot, (o, g)) in self.owners(present.ones()).enumerate() {
            lists[o].push(entry(slot, g));
        }
        lists
    }

    /// Per owning rank, the sum of `per_slot` over the present ids it
    /// owns.
    pub fn owner_sums(&self, present: &RankBitmap, per_slot: &[usize]) -> Vec<usize> {
        self.slot_ranges(present)
            .iter()
            .map(|&(lo, hi)| per_slot[lo..hi].iter().sum())
            .collect()
    }

    /// Pairs ascending ids with their owning rank, advancing through the
    /// chunk boundaries instead of searching them.
    pub fn owners<'a>(
        &'a self,
        ids: impl Iterator<Item = Vid> + 'a,
    ) -> impl Iterator<Item = (usize, Vid)> + 'a {
        let mut c = 0usize;
        ids.map(move |g| {
            while g >= self.base[c + 1] {
                c += 1;
            }
            (self.chunk_rank[c], g)
        })
    }
}

/// Presence bitmap over a dense position universe with per-word prefix
/// popcounts: after construction, [`RankBitmap::rank`] of a present
/// position is its index among the present positions in ascending order.
pub struct RankBitmap {
    /// One bit per position, plus a padding word so `rank(universe)` needs
    /// no special case.
    bits: Vec<u64>,
    /// Set bits before word `w`.
    before: Vec<usize>,
    count: usize,
}

impl RankBitmap {
    /// Marks every position the iterator yields (duplicates welcome).
    ///
    /// # Panics
    /// If a position is outside `0..universe`.
    pub fn from_positions(universe: usize, positions: impl Iterator<Item = usize>) -> Self {
        let mut bits = vec![0u64; universe / 64 + 1];
        for pos in positions {
            assert!(pos < universe, "position {pos} outside 0..{universe}");
            bits[pos / 64] |= 1 << (pos % 64);
        }
        let mut before = Vec::with_capacity(bits.len());
        let mut count = 0usize;
        for w in &bits {
            before.push(count);
            count += w.count_ones() as usize;
        }
        RankBitmap {
            bits,
            before,
            count,
        }
    }

    /// Number of present positions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of present positions below `pos`, for `pos` up to and
    /// including the universe size.
    pub fn rank(&self, pos: usize) -> usize {
        let (w, b) = (pos / 64, pos % 64);
        self.before[w] + (self.bits[w] & ((1u64 << b) - 1)).count_ones() as usize
    }

    /// The present positions, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.bits)
    }
}

/// Packs `len` flags into words, bit `o % 64` of word `o / 64` holding
/// flag `o`.
pub(crate) fn pack_bits(len: usize, flag: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for o in (0..len).filter(|&o| flag(o)) {
        words[o / 64] |= 1 << (o % 64);
    }
    words
}

/// The positions of the set bits of `words`, ascending, found with
/// `trailing_zeros` — one step per set bit plus one per word.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + b)
        })
    })
}

/// `(position, value)` items grouped by position: what a `BTreeMap`
/// group-and-fold would hold, in three flat arrays.
pub(crate) struct Groups<T> {
    /// The distinct positions.
    pub present: RankBitmap,
    /// Per distinct position, ascending: its items folded through the
    /// monoid in arrival order.
    pub folded: Vec<T>,
    /// Per distinct position, ascending: how many items it had.
    pub multiplicity: Vec<usize>,
}

/// Groups `items` by position and folds each group through `monoid` in
/// arrival order — re-associating, never reordering, a later fold over the
/// same items, so the result is bit-identical for associative monoids.
pub(crate) fn group_fold<T, M>(
    universe: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
    monoid: M,
) -> Groups<T>
where
    T: Copy,
    M: Monoid<T>,
{
    let present = RankBitmap::from_positions(universe, items.clone().map(|(pos, _)| pos));
    let mut multiplicity = vec![0usize; present.count()];
    let mut folded: Vec<T> = match items.clone().next() {
        Some((_, filler)) => vec![filler; present.count()],
        None => Vec::new(),
    };
    for (pos, v) in items {
        let slot = present.rank(pos);
        folded[slot] = if multiplicity[slot] == 0 {
            v
        } else {
            monoid.combine(folded[slot], v)
        };
        multiplicity[slot] += 1;
    }
    Groups {
        present,
        folded,
        multiplicity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MinUsize;
    use dmsim::Grid2d;

    #[test]
    fn locator_agrees_with_the_layout_on_every_index() {
        for (n, p) in [(103, 9), (37, 4), (3, 4), (64, 16), (1, 1), (0, 4)] {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let loc = layout.locator();
            for g in 0..n {
                let r = layout.owner_of(g);
                assert_eq!(loc.locate(g), (r, layout.offset_of(r, g)), "{layout:?}");
            }
            for r in 0..p {
                assert_eq!(loc.range_of(r), layout.range_of_rank(r), "{layout:?}");
            }
            let owners: Vec<(usize, Vid)> = loc.owners(0..n).collect();
            assert!(owners
                .into_iter()
                .eq((0..n).map(|g| (layout.owner_of(g), g))));
        }
    }

    #[test]
    fn rank_is_the_index_among_present_positions() {
        let present = [0usize, 3, 63, 64, 65, 127, 128, 300];
        let bm = RankBitmap::from_positions(301, present.iter().copied().chain([3, 300]));
        assert_eq!(bm.count(), present.len());
        assert!(bm.ones().eq(present.iter().copied()));
        for (i, &pos) in present.iter().enumerate() {
            assert_eq!(bm.rank(pos), i);
        }
        assert_eq!(bm.rank(301), present.len());
        let full = RankBitmap::from_positions(128, 0..128);
        assert_eq!((full.rank(64), full.rank(128)), (64, 128));
        let empty = RankBitmap::from_positions(0, std::iter::empty());
        assert_eq!((empty.count(), empty.rank(0)), (0, 0));
    }

    #[test]
    fn packed_flags_come_back_as_their_set_positions() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let flag = |o: usize| o % 3 == 1 || o == 63;
            let words = pack_bits(len, flag);
            assert_eq!(words.len(), len.div_ceil(64));
            let want = (0..len).filter(|&o| flag(o));
            assert!(set_bits(&words).eq(want), "len {len}");
        }
    }

    #[test]
    fn group_fold_folds_each_position_in_arrival_order() {
        let items = [(5usize, 9usize), (2, 4), (5, 3), (2, 8), (70, 1)];
        let g = group_fold(71, items.iter().copied(), MinUsize);
        assert!(g.present.ones().eq([2, 5, 70]));
        assert_eq!((g.folded, g.multiplicity), (vec![4, 3, 1], vec![2, 2, 1]));
        let g = group_fold(8, std::iter::empty::<(usize, usize)>(), MinUsize);
        assert_eq!((g.present.count(), g.folded.len()), (0, 0));
    }
}
