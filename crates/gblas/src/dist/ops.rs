//! Distributed GraphBLAS primitives.
//!
//! Each primitive reproduces CombBLAS' communication structure (§V-A):
//!
//! * [`dist_mxv_dense`] (SpMV) — allgather of vector chunks within
//!   processor columns → local block multiply → reduce-scatter within
//!   processor rows → transpose exchange to restore vector alignment.
//! * [`dist_mxv_ids`] — SpMV over the identity vector, which reads each
//!   row's fold off its column extremes and gathers nothing.
//! * [`dist_mxv_sparse`] (SpMSpV) — the same phases mirrored, because `A`
//!   is symmetric and stored row-major only: transpose exchange → sparse
//!   allgather within processor rows → push through the stored rows →
//!   irregular all-to-all within columns + local merge, which lands on the
//!   layout owner.
//! * [`dist_extract`] / [`dist_assign`] — request/reply through a global
//!   all-to-all, with the §V-B mitigations: selectable all-to-all
//!   algorithm (pairwise / hypercube / sparse) and the hot-rank broadcast
//!   fallback for the skewed access pattern of Figure 3.
//!
//! All primitives are bit-identical to their serial counterparts in
//! [`crate::serial`]; the test module checks this across grid sizes.

use super::compact::NarrowVal;
use super::dense::{group_fold, pack_bits, set_bits, RankBitmap};
use super::dmat::DistMat;
use super::dvec::{block_range, DistSpVec, DistVec, VecLayout};
use crate::serial::CsrMirror;
use crate::types::Monoid;
use crate::Vid;
use dmsim::wire::{decode_keys_for, encode_keys_for, push_varint, read_varint, DecodeError};
use dmsim::{
    words_of, AllToAll, CombineRoute, Comm, CommHandle, Counter, Grid2d, Group, SpanKind, WireWord,
};
use lacc_graph::Idx;

/// Wire format of every exchange the primitives run: the only two points
/// of the old lever lattice any caller constructs. No function here or in
/// [`dmsim`] looks at anything else to decide how a stream is shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// The unoptimized format: every request id and update crosses the
    /// all-to-all as issued, duplicates included, replies come back raw,
    /// and the `mxv` phases ship raw typed vectors.
    Legacy,
    /// The optimized format. Requests are deduped per destination, updates
    /// are pre-combined through the op's monoid, and both ride the
    /// combining hypercube ([`Comm::combining_requests`] /
    /// [`Comm::reduce_scatter_by_key`]) so duplicates issued by *different*
    /// ranks merge at the hop where their routes meet; replies retrace the
    /// route through the word-stream codec, and starcheck's two extracts
    /// share one request route ([`FusedExtract`]). The `mxv` column gather
    /// and the SpMSpV row exchange ship [`NarrowVal`] frames through the
    /// ordinary collectives, charged as shipped. Bit-identical to
    /// [`Wire::Legacy`] for the commutative, associative monoids the
    /// engines use.
    Compact,
}

impl std::str::FromStr for Wire {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "legacy" => Ok(Wire::Legacy),
            "compact" => Ok(Wire::Compact),
            other => Err(format!(
                "invalid wire: {other:?} is not one of legacy, compact"
            )),
        }
    }
}

/// Tuning knobs for the distributed primitives (the paper's §V-B levers).
#[derive(Clone, Copy, Debug)]
pub struct DistOpts {
    /// All-to-all algorithm for irregular exchanges.
    pub alltoall: AllToAll,
    /// Hot-rank broadcast fallback in [`dist_extract`]: a rank broadcasts
    /// its chunk instead of answering requests when it would receive more
    /// than `hot_threshold ×` its chunk length in requests (the paper's
    /// system-dependent `h`). `f64::INFINITY` turns the fallback off and
    /// skips the request-count allreduce that detects hot ranks.
    pub hot_threshold: f64,
    /// Wire format of every exchange (see [`Wire`]).
    pub wire: Wire,
}

impl Default for DistOpts {
    fn default() -> Self {
        // The optimized LACC configuration: sparse all-to-all (hypercube
        // metadata exchange), hot-rank broadcasts and the compact wire
        // format.
        DistOpts {
            alltoall: AllToAll::Sparse,
            hot_threshold: 4.0,
            wire: Wire::Compact,
        }
    }
}

impl DistOpts {
    /// The unoptimized baseline: MPI_Alltoallv-style pairwise exchange, no
    /// broadcast fallback — what §V-B says stopped scaling past 1024
    /// ranks — on the legacy wire format.
    pub fn naive() -> Self {
        DistOpts {
            alltoall: AllToAll::Pairwise,
            hot_threshold: f64::INFINITY,
            wire: Wire::Legacy,
        }
    }
}

/// Allgathers each rank's chunk of `x`. Under [`Wire::Compact`] a chunk
/// rides the ordinary ring as one [`NarrowVal`] frame, charged as shipped,
/// and peers' frames are decoded inside the posted operation, so the
/// handle yields per-rank chunks at either wire level; [`Wire::Legacy`]
/// ships the raw typed vector.
fn allgather_chunks<T>(
    comm: &mut Comm,
    group: &Group,
    x: &DistVec<T>,
    opts: &DistOpts,
) -> CommHandle<Vec<Vec<T>>>
where
    T: NarrowVal,
{
    let (wire, layout, local) = (opts.wire, x.layout(), x.local().to_vec());
    comm.post(move |c| match wire {
        Wire::Legacy => c.allgatherv(group, local),
        Wire::Compact => {
            c.charge_compute(local.len() as u64 + 1);
            // A group of one ships nothing, so it encodes nothing.
            let frame = if group.size() > 1 {
                T::encode_chunk(&local)
            } else {
                Vec::new()
            };
            let gathered = c.allgatherv_peers(group, frame);
            // Member k encoded its own chunk, whose length the layout gives.
            decode_peers(group.my_index(), gathered, local, |k, b| {
                let len = layout.local_len(group.member(k));
                T::decode_chunk(b, len).expect("a peer's chunk frame")
            })
        }
    })
}

/// The typed parts of a frame exchange: `frames[k]` decoded for every
/// member `k` but this rank, `me`, whose part is the `own` it would have
/// encoded. A rank runs no codec on what it delivers to itself; a frame
/// it sent itself is never charged, so neither is skipping it. The
/// gathers move their frame into the ring ([`Comm::allgatherv_peers`]), so
/// slot `me` arrives empty.
fn decode_peers<T>(
    me: usize,
    frames: Vec<Vec<u8>>,
    own: Vec<T>,
    decode: impl Fn(usize, &[u8]) -> Vec<T>,
) -> Vec<Vec<T>> {
    let mut parts: Vec<Vec<T>> = frames
        .iter()
        .enumerate()
        .map(|(k, b)| if k == me { Vec::new() } else { decode(k, b) })
        .collect();
    parts[me] = own;
    parts
}

/// [`allgather_chunks`] over sorted sparse entries: under
/// [`Wire::Compact`] each rank's `(id, value)` list ships as one entry
/// frame ([`encode_entry_frame`]).
fn allgather_entries<T, I>(
    comm: &mut Comm,
    group: &Group,
    entries: Vec<(I, T)>,
    opts: &DistOpts,
) -> CommHandle<Vec<Vec<(I, T)>>>
where
    T: NarrowVal,
    I: Idx + WireWord,
{
    let wire = opts.wire;
    comm.post(move |c| match wire {
        Wire::Legacy => c.allgatherv(group, entries),
        Wire::Compact => {
            c.charge_compute(entries.len() as u64 + 1);
            let frame = if group.size() > 1 {
                encode_entry_frame(&entries)
            } else {
                Vec::new()
            };
            let gathered = c.allgatherv_peers(group, frame);
            // Every member encoded its share with `encode_entry_frame`.
            decode_peers(group.my_index(), gathered, entries, |_, b| {
                decode_entry_frame(b).expect("a peer's entry frame")
            })
        }
    })
}

/// One sparse-entry frame: varint id-stream length, the delta-encoded id
/// stream, then the value chunk. Requires ids sorted ascending. No entries
/// is the empty frame, which a sparse all-to-all does not send.
fn encode_entry_frame<T, I>(entries: &[(I, T)]) -> Vec<u8>
where
    T: NarrowVal,
    I: Idx + WireWord,
{
    if entries.is_empty() {
        return Vec::new();
    }
    debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "ids sorted");
    let ids: Vec<I> = entries.iter().map(|&(g, _)| g).collect();
    let id_bytes = encode_keys_for(&ids);
    let vals: Vec<T> = entries.iter().map(|&(_, v)| v).collect();
    let val_bytes = T::encode_chunk(&vals);
    let mut frame = Vec::with_capacity(10 + id_bytes.len() + val_bytes.len());
    push_varint(&mut frame, id_bytes.len() as u64);
    frame.extend_from_slice(&id_bytes);
    frame.extend_from_slice(&val_bytes);
    frame
}

/// Decodes a frame produced by [`encode_entry_frame`]: the value chunk
/// holds one value per id.
fn decode_entry_frame<T, I>(bytes: &[u8]) -> Result<Vec<(I, T)>, DecodeError>
where
    T: NarrowVal,
    I: Idx + WireWord,
{
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut pos = 0usize;
    let id_len = read_varint(bytes, &mut pos)? as usize;
    let (id_bytes, val_bytes) = bytes[pos..]
        .split_at_checked(id_len)
        .ok_or(DecodeError::Truncated)?;
    let ids = decode_keys_for::<I>(id_bytes)?;
    let vals = T::decode_chunk(val_bytes, ids.len())?;
    Ok(ids.into_iter().zip(vals).collect())
}

/// A mask aligned with the output vector's distribution.
#[derive(Clone, Copy)]
pub enum DistMask<'a> {
    /// No masking.
    None,
    /// Keep where `true`.
    Keep(&'a DistVec<bool>),
    /// Keep where `false` (`GrB_SCMP`).
    Complement(&'a DistVec<bool>),
}

impl<'a> DistMask<'a> {
    /// The mask vector and the flag value that keeps an entry; `None` when
    /// nothing is masked.
    fn keeps(self) -> Option<(&'a DistVec<bool>, bool)> {
        match self {
            DistMask::None => None,
            DistMask::Keep(m) => Some((m, true)),
            DistMask::Complement(m) => Some((m, false)),
        }
    }

    fn allows(self, g: Vid) -> bool {
        self.keeps().is_none_or(|(m, keep)| m.get_local(g) == keep)
    }

    /// A mask on another layout than the vector it masks would keep or
    /// drop the wrong rows without a trace, so this always checks.
    fn assert_layout(self, layout: VecLayout) {
        if let Some((m, _)) = self.keeps() {
            assert_eq!(m.layout(), layout, "mask built for a different layout");
        }
    }
}

/// Folds `(id, value)` arrivals that all fall in the chunk `[lo, hi)`
/// through the monoid, part by part in arrival order, into one entry per
/// distinct id, ascending. An id outside the chunk panics.
fn fold_chunk_arrivals<T, M, I>(
    (lo, hi): (usize, usize),
    parts: &[Vec<(I, T)>],
    monoid: M,
) -> Vec<(I, T)>
where
    T: Copy + Send + 'static,
    M: Monoid<T>,
    I: Idx,
{
    let arrivals = parts.iter().flat_map(|part| part.iter()).map(|&(g, v)| {
        assert!(g.idx() >= lo, "index {} below the chunk at {lo}", g.idx());
        (g.idx() - lo, v)
    });
    let groups = group_fold(hi - lo, arrivals, monoid);
    groups
        .present
        .ones()
        .zip(groups.folded)
        .map(|(o, v)| (I::from_usize(lo + o), v))
        .collect()
}

/// Phase-2 local multiply of SpMV: a row gather over the stored row-major
/// block, for the block-local rows `kept` yields. Row `r` folds
/// `x_block[j]` over its columns `j` — one random read per nonzero, one
/// `(value, touched)` pair written. Rows hold their columns in source
/// order; [`Monoid`] is commutative and [`NarrowVal`] admits no floats, so
/// that order cannot show in a value. Returns the pairs in `kept`'s order
/// and the nonzeros folded.
fn local_multiply_block<T, M, I>(
    rows: &CsrMirror<I>,
    x_block: &[T],
    kept: impl Iterator<Item = usize>,
    monoid: M,
) -> (Vec<(T, bool)>, u64)
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let mut ops = 0u64;
    let pairs = kept
        .map(|r| {
            let cols = rows.row(r);
            ops += cols.len() as u64;
            let fold = |v, j: &I| monoid.combine(v, x_block[j.idx()]);
            (cols.iter().fold(monoid.identity(), fold), !cols.is_empty())
        })
        .collect();
    (pairs, ops)
}

/// The local multiply of SpMSpV: pushes every gathered `(v, x_v)`, `v` in
/// the block's rows from global row `rs` on, through stored row `v − rs`
/// into an accumulator over the block's columns. `A` is a symmetric
/// pattern matrix, so that row *is* column `v` of the mirror block
/// `(j, i)`: this computes the block's share of `Aᵀ x = A x` with no
/// column-major copy of anything. Returns `(acc, touched columns in
/// first-touch order, op count)`.
fn local_multiply_push<T, M, I>(
    rows: &CsrMirror<I>,
    rs: usize,
    gathered: impl Iterator<Item = (I, T)>,
    monoid: M,
) -> (Vec<T>, Vec<Vid>, u64)
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let w = rows.ncols();
    let mut ops: u64 = 1;
    let mut acc = vec![monoid.identity(); w];
    let mut is_touched = vec![false; w];
    let mut touched: Vec<Vid> = Vec::new();
    for (gv, xv) in gathered {
        let cols = rows.row(gv.idx() - rs);
        for lc in cols.iter().map(|lc| lc.idx()) {
            if !is_touched[lc] {
                is_touched[lc] = true;
                touched.push(lc);
            }
            acc[lc] = monoid.combine(acc[lc], xv);
        }
        ops += cols.len() as u64 + 1;
    }
    (acc, touched, ops)
}

/// The transpose exchange: rank `(i, j)` hands `data` to rank `(j, i)` and
/// returns what `(j, i)` handed it; diagonal ranks keep theirs. Chunk
/// `i·pc + j` belongs to rank `(j, i)`, so this moves a chunk between the
/// rank a processor-row collective leaves it on and its layout owner.
fn transpose_exchange<D: Send + 'static>(comm: &mut Comm, grid: Grid2d, data: Vec<D>) -> Vec<D> {
    let (i, j) = grid.coords_of(comm.rank());
    if i == j {
        return data;
    }
    let partner = grid.rank_of(j, i);
    comm.send_vec(partner, data);
    comm.recv(partner)
}

/// The sparse reduce SpMSpV ends on, within the processor column. `acc[t]`
/// is this rank's partial result for the `t`-th index of its column block
/// `j` (chunks `j·q ..= j·q + q − 1`), `touched` the offsets it wrote: they
/// are bucketed by subchunk, exchanged within the column group — member `k`
/// takes chunk `j·q + k`, which it owns, one entry frame per bucket under
/// [`Wire::Compact`] — and folded through the monoid. Returns the entries
/// of this rank's own chunk, ascending.
fn reduce_touched_in_column<T, M, I>(
    comm: &mut Comm,
    layout: VecLayout,
    acc: &[T],
    mut touched: Vec<Vid>,
    monoid: M,
    opts: &DistOpts,
) -> Vec<(I, T)>
where
    T: NarrowVal,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let grid = layout.grid();
    let (group, b) = (grid.col_group(comm), grid.coords_of(comm.rank()).1);
    let (n, p, q) = (layout.len(), grid.size(), group.size());
    let mut buckets: Vec<Vec<(I, T)>> = vec![Vec::new(); q];
    touched.sort_unstable();
    // The offsets ascend: subchunk boundaries are walked, not searched.
    let ends: Vec<usize> = (0..q).map(|k| block_range(n, p, b * q + k).1).collect();
    let start = block_range(n, p, b * q).0;
    let mut k = 0usize;
    for &t in &touched {
        let g = start + t;
        while g >= ends[k] {
            k += 1;
        }
        buckets[k].push((I::from_usize(g), acc[t]));
    }
    let parts: Vec<Vec<(I, T)>> = match opts.wire {
        // Each bucket's ids were pushed in sorted `touched` order, so it
        // ships as one entry frame; this rank's own bucket never leaves
        // it, so it is not encoded.
        Wire::Compact => {
            let me = group.my_index();
            let frames: Vec<Vec<u8>> = (0..q)
                .map(|k| match k == me {
                    true => Vec::new(),
                    false => encode_entry_frame(&buckets[k]),
                })
                .collect();
            comm.charge_compute(touched.len() as u64 + 1);
            // Every member encoded its buckets with `encode_entry_frame`.
            let frames = comm.alltoallv(&group, frames, opts.alltoall);
            decode_peers(me, frames, std::mem::take(&mut buckets[me]), |_, b| {
                decode_entry_frame(b).expect("a peer's entry frame")
            })
        }
        Wire::Legacy => comm.alltoallv(&group, buckets, opts.alltoall),
    };
    comm.charge_compute(parts.iter().map(|part| part.len() as u64).sum());
    // Every arrival lies in the subchunk this rank takes.
    fold_chunk_arrivals(block_range(n, p, b * q + group.my_index()), &parts, monoid)
}

/// The owner-side end of SpMSpV: keeps the entries the mask allows.
fn masked_output<T, I>(
    comm: &mut Comm,
    layout: VecLayout,
    mine: impl Iterator<Item = (I, T)>,
    mask: DistMask<'_>,
) -> DistSpVec<T, I>
where
    T: Copy + Send + 'static,
    I: Idx,
{
    let entries: Vec<(I, T)> = mine.filter(|&(g, _)| mask.allows(g.idx())).collect();
    comm.charge_compute(entries.len() as u64);
    DistSpVec::from_local_entries(layout, comm.rank(), entries)
}

/// A `Keep` / `Complement` mask of SpMV as packed bits, set where a row is
/// kept, on both sides of the exchange.
struct RowBlockMask {
    /// This rank's own vector chunk, packed by this rank.
    own: Vec<u64>,
    /// The row block this rank multiplies: per subchunk `k` (global chunk
    /// `i·pc + k`), the words its owner packed.
    block: Vec<Vec<u64>>,
}

/// Steps 1–2 of a masked SpMV: the owner packs its mask chunk (charged
/// per flag), and a transpose hop plus an allgatherv within the processor
/// row — phases 3–4's route run backwards — deliver row block `i`'s words
/// to the ranks that multiply it. The words ride raw on either wire,
/// charged as shipped.
fn deliver_row_block_mask(
    comm: &mut Comm,
    grid: Grid2d,
    row_group: &Group,
    mask: &DistVec<bool>,
    keep: bool,
) -> RowBlockMask {
    let flags = mask.local();
    let own = pack_bits(flags.len(), |o| flags[o] == keep);
    comm.charge_compute(flags.len() as u64);
    let share = transpose_exchange(comm, grid, own.clone());
    let block = comm.allgatherv(row_group, share);
    RowBlockMask { own, block }
}

/// The owner's entries of a reduced SpMV chunk: `mine[k]` is the row at
/// local offset `offsets[k]`, and the rows no block touched are dropped.
fn touched_entries<T, I: Idx>(
    start: usize,
    offsets: impl Iterator<Item = usize>,
    mine: Vec<(T, bool)>,
) -> Vec<(I, T)> {
    offsets
        .zip(mine)
        .filter_map(|(o, (v, touched))| touched.then_some((I::from_usize(start + o), v)))
        .collect()
}

/// Distributed SpMV: `y = A ⊕.2nd x` with dense input `x`, masked output.
///
/// A `Keep` / `Complement` mask is applied before the fold: its bits reach
/// the ranks that multiply each row block (`deliver_row_block_mask`), so
/// only kept rows are folded and charged, and only their `(value,
/// touched)` pairs cross the reduce-scatter and the transpose hop.
pub fn dist_mxv_dense<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistVec<T>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: NarrowVal,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Mxv);
    let grid = a.grid();
    let layout = x.layout();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    mask.assert_layout(layout);
    let me = comm.rank();
    let (i, _) = grid.coords_of(me);
    let (pc, p) = (grid.cols(), grid.size());
    let row_group = grid.row_group(comm);
    let kept = mask
        .keeps()
        .map(|(m, keep)| deliver_row_block_mask(comm, grid, &row_group, m, keep));

    // Phase 1: assemble the column-block segment of x within the processor
    // column (group index within col_group equals grid row, so blocks
    // concatenate in global order). Posted non-blocking: the multiply
    // consumes gathered chunks as they stream in, so its charge lands
    // between the post and the wait and hides the transfer tail.
    let col_group = grid.col_group(comm);
    let gh = allgather_chunks(comm, &col_group, x, opts);
    let x_block: Vec<T> = gh.peek().concat();
    debug_assert_eq!(x_block.len(), a.col_range().1 - a.col_range().0);

    // Phase 2: row gather over the local block, one part per subchunk k of
    // the row block — global chunk i·pc + k, destined for row-group member
    // k — holding its rows' (value, touched) pairs. Under a mask only the
    // kept rows are folded, found by scanning the subchunk's words.
    let rs = a.row_range().0;
    let mut ops = x_block.len() as u64;
    let parts: Vec<Vec<(T, bool)>> = (0..pc)
        .map(|k| {
            let (s, e) = block_range(a.n(), p, i * pc + k);
            let (part, folded) = match &kept {
                None => local_multiply_block(a.row_mirror(), &x_block, s - rs..e - rs, monoid),
                Some(m) => {
                    ops += m.block[k].len() as u64;
                    let rows = set_bits(&m.block[k]).map(|o| s - rs + o);
                    local_multiply_block(a.row_mirror(), &x_block, rows, monoid)
                }
            };
            ops += folded;
            part
        })
        .collect();
    comm.charge_compute(ops);
    gh.wait(comm);
    let out = reduce_row_parts(comm, layout, &row_group, parts, kept.map(|m| m.own), monoid);
    comm.span_close(span);
    out
}

/// Phases 3–4 of SpMV, from the row block's `(value, touched)` parts on:
/// `parts[k]` holds the rows of subchunk `k` (global chunk `i·pc + k`),
/// one pair per row `own` keeps (every row when `own` is `None`).
///
/// Phase 3 reduce-scatters the parts within the processor row: every
/// member holds the same rows, so the parts it folds line up. Phase 4 is
/// the transpose exchange — the reduced chunk `i·pc + j` belongs to rank
/// `(j, i)` under the column-major vector layout, which packed `own`: the
/// owner places the arrivals at its kept offsets and keeps the touched
/// ones.
fn reduce_row_parts<T, M, I>(
    comm: &mut Comm,
    layout: VecLayout,
    row_group: &Group,
    parts: Vec<Vec<(T, bool)>>,
    own: Option<Vec<u64>>,
    monoid: M,
) -> DistSpVec<T, I>
where
    T: NarrowVal,
    M: Monoid<T>,
    I: Idx,
{
    let reduced = comm.reduce_scatter(row_group, parts, |aa: &mut (T, bool), bb: (T, bool)| {
        if bb.1 {
            if aa.1 {
                aa.0 = monoid.combine(aa.0, bb.0);
            } else {
                *aa = bb;
            }
        }
    });
    let me = comm.rank();
    let mine: Vec<(T, bool)> = transpose_exchange(comm, layout.grid(), reduced);
    let s = layout.range_of_rank(me).0;
    let (entries, scanned): (Vec<(I, T)>, usize) = match own {
        None => (touched_entries(s, 0.., mine), 0),
        Some(own) => {
            debug_assert_eq!(set_bits(&own).count(), mine.len(), "one per kept row");
            (touched_entries(s, set_bits(&own), mine), own.len())
        }
    };
    comm.charge_compute((entries.len() + scanned) as u64);
    DistSpVec::from_local_entries(layout, me, entries)
}

/// Distributed SpMV over the identity vector: `y = A ⊕.2nd x` with
/// `x[g] = id(g)` for every global `g`, unmasked — every engine's first
/// multiply, whose input is known before the run starts.
///
/// For a monoid that picks by order, as `min`, `max` and their pair do,
/// and an `id` monotone in `g`, a row's fold over its columns is the
/// combine of its least and greatest column's values, which
/// [`DistMat::row_extremes`] holds. So no rank gathers any of `x`: phase
/// 1 is gone, phase 2 reads one pair per row and is charged one op per
/// row of the row block (a sorted block reads the pair off the row's
/// first and last entries), and phases 3–4 are [`dist_mxv_dense`]'s.
/// Its entries are those of [`dist_mxv_dense`] over
/// `DistVec::from_fn(|g| id(g))` with [`DistMask::None`], on either wire;
/// only the clock and the words differ.
pub fn dist_mxv_ids<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    layout: VecLayout,
    id: impl Fn(Vid) -> T,
    monoid: M,
) -> DistSpVec<T, I>
where
    T: NarrowVal,
    M: Monoid<T>,
    I: Idx,
{
    let span = comm.span_open(SpanKind::Mxv);
    let grid = a.grid();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    assert_eq!(layout.grid(), grid, "matrix/vector grid mismatch");
    let (i, _) = grid.coords_of(comm.rank());
    let (pc, p) = (grid.cols(), grid.size());
    let (rs, cs) = (a.row_range().0, a.col_range().0);
    let (rows, extremes) = (a.row_mirror(), a.row_extremes());
    let fold = |r: usize| {
        let (lo, hi) = extremes[r];
        let value = monoid.combine(id(cs + lo.idx()), id(cs + hi.idx()));
        (value, !rows.row(r).is_empty())
    };
    let parts: Vec<Vec<(T, bool)>> = (0..pc)
        .map(|k| {
            let (s, e) = block_range(a.n(), p, i * pc + k);
            (s - rs..e - rs).map(fold).collect()
        })
        .collect();
    comm.charge_compute(rows.nrows() as u64);
    let out = reduce_row_parts(comm, layout, &grid.row_group(comm), parts, None, monoid);
    comm.span_close(span);
    out
}

/// Distributed SpMSpV: `y = A ⊕.2nd x` with sparse input `x`.
pub fn dist_mxv_sparse<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: NarrowVal,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Mxv);
    let grid = a.grid();
    let layout = x.layout();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    mask.assert_layout(layout);

    // `A` is symmetric, so `y = A x = Aᵀ x` and the stored rows of block
    // (i, j) are the columns of block (j, i): the multiply wants `x` over
    // this rank's *row* block. Phase 1: the transpose partner holds this
    // rank's share of it (chunk i·pc + j belongs to rank (j, i)).
    let share = transpose_exchange(comm, grid, x.entries().to_vec());

    // Phase 2: sparse allgather within the processor row — member k brings
    // chunk i·pc + k, so the parts cover the row block in order — posted
    // non-blocking so the per-entry push streams behind it.
    let row_group = grid.row_group(comm);
    let gh = allgather_entries(comm, &row_group, share, opts);

    // Phase 3: push the gathered entries through the stored rows into an
    // accumulator over the column block.
    let gathered = gh.peek().iter().flatten().copied();
    let (acc, touched, ops) =
        local_multiply_push(a.row_mirror(), a.row_range().0, gathered, monoid);
    comm.charge_compute(ops);
    gh.wait(comm);

    // Phase 4: sparse reduce within the processor column. Chunk j·pc + k
    // of the column block belongs to column-group member k, so the fold
    // lands on the layout owner: there is no transpose hop on the way out.
    let mine = reduce_touched_in_column(comm, layout, &acc, touched, monoid, opts);
    let out = masked_output(comm, layout, mine.into_iter(), mask);
    comm.span_close(span);
    out
}

/// The owner-bucketing of one extract request list, computed once by
/// [`plan_requests`] and reusable across several [`dist_extract_planned`]
/// calls over vectors sharing the layout (LACC's starcheck issues two
/// back-to-back extracts with the identical grandparent request slice, so
/// the plan is built once).
///
/// Under [`Wire::Compact`] each per-owner wire list carries every unique
/// id once (sorted); under [`Wire::Legacy`] the lists preserve request
/// order, duplicates included. Either way a request's reply is found by
/// index, never by search: the per-owner reply vectors, concatenated in
/// chunk order, are addressed by the request's `slot`. Both are
/// bit-identical to the unplanned exchange.
pub struct RequestPlan<I: Idx = Vid> {
    layout: VecLayout,
    /// Per-owner ids as they will cross the wire, at index width `I`.
    wire_ids: Vec<Vec<I>>,
    /// Per-owner number of requests (duplicates included).
    requests_to: Vec<usize>,
    /// Per request, the index of its reply in the chunk-order
    /// concatenation of the per-owner reply vectors.
    slot: Vec<u32>,
}

impl<I: Idx> RequestPlan<I> {
    /// The layout the plan was built against.
    pub fn layout(&self) -> VecLayout {
        self.layout
    }

    /// Number of local requests the plan answers.
    pub fn n_requests(&self) -> usize {
        self.slot.len()
    }

    /// Duplicate request ids this rank will *not* send, per owner.
    fn removed(&self, o: usize) -> usize {
        self.requests_to[o] - self.wire_ids[o].len()
    }

    /// Answers every request from the per-owner reply vectors
    /// (`replies[o][w]` answers `wire_ids[o][w]`).
    ///
    /// # Panics
    /// If an owner's reply vector and wire list differ in length: the
    /// replies are addressed by index, so a short or long reply would
    /// otherwise hand requests their neighbours' values.
    fn scatter<T: Copy>(&self, replies: &[Vec<T>]) -> Vec<T> {
        let mut flat: Vec<T> = Vec::with_capacity(replies.iter().map(Vec::len).sum());
        for c in 0..replies.len() {
            let o = self.layout.rank_of_chunk(c);
            assert_eq!(
                replies[o].len(),
                self.wire_ids[o].len(),
                "owner {o} answered a different number of ids than were requested"
            );
            flat.extend_from_slice(&replies[o]);
        }
        self.slot.iter().map(|&s| flat[s as usize]).collect()
    }
}

/// Buckets `requests` by owning rank under `layout` and, under
/// [`Wire::Compact`], sorts and dedups each bucket — one presence-bitmap
/// and prefix-popcount pass over the dense id universe, no hashing or
/// sorting — recording where each request's reply will land. Charged as
/// local compute; no communication happens here.
pub fn plan_requests<I: Idx>(
    comm: &mut Comm,
    layout: VecLayout,
    requests: &[I],
    opts: &DistOpts,
) -> RequestPlan<I> {
    let p = comm.size();
    assert!(
        requests.len() < u32::MAX as usize,
        "request list too long for the plan's u32 slots"
    );
    let mut ops = requests.len() as u64 + 1;
    let plan = match opts.wire {
        Wire::Legacy => {
            // Request order on the wire, sequential slots.
            let buckets =
                layout.bucket_by_owner(requests.iter().enumerate().map(|(k, &g)| (g, k as u32)));
            let mut slot = vec![0u32; requests.len()];
            let mut next = 0u32;
            for c in 0..p {
                for &(_, k) in buckets[layout.rank_of_chunk(c)].iter() {
                    slot[k as usize] = next;
                    next += 1;
                }
            }
            RequestPlan {
                layout,
                wire_ids: buckets
                    .iter()
                    .map(|b| b.iter().map(|&(g, _)| g).collect())
                    .collect(),
                requests_to: buckets.iter().map(|b| b.len()).collect(),
                slot,
            }
        }
        Wire::Compact => {
            // A request's slot is the rank of its id among the distinct
            // ids; an owner's wire list is the distinct ids in the range
            // it owns, ascending.
            let locator = layout.locator();
            let ids = requests.iter().map(|g| g.idx());
            let present = RankBitmap::from_positions(layout.len(), ids.clone());
            let slot: Vec<u32> = ids.map(|g| present.rank(g) as u32).collect();
            let mut multiplicity = vec![0usize; present.count()];
            for &s in &slot {
                multiplicity[s as usize] += 1;
            }
            let wire_ids = locator.split_by_owner(&present, |_, g| I::from_usize(g));
            let requests_to = locator.owner_sums(&present, &multiplicity);
            // Two passes over the requests: the bitmap, then the slots.
            ops += 2 * requests.len() as u64;
            RequestPlan {
                layout,
                wire_ids,
                requests_to,
                slot,
            }
        }
    };
    comm.charge_compute(ops);
    plan
}

/// Distributed gather (`GrB_extract` by index list): returns
/// `src[requests[k]]` for each locally supplied request, in order.
///
/// Implements the paper's skew mitigation: per-owner request totals are
/// allreduced; owners whose incoming load exceeds `hot_threshold ×` their
/// chunk size broadcast their chunk instead of answering point-to-point
/// (then drop out of the all-to-all, which the sparse algorithm exploits).
/// [`DistOpts::wire`] picks what the remaining requests travel as.
///
/// Counts, on the rank where each happens: the requests it answered
/// point-to-point ([`Counter::RequestsReceived`], Figure 3's data), a hot
/// owner's broadcast ([`Counter::HotBroadcasts`]) and the words request
/// dedup kept off the wire ([`Counter::WordsSaved`]).
pub fn dist_extract<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    requests: &[I],
    opts: &DistOpts,
) -> Vec<T>
where
    T: Copy + Send + WireWord + 'static,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Extract);
    let plan = plan_requests(comm, src.layout(), requests, opts);
    let out = extract_impl(comm, src, &plan, opts);
    comm.span_close(span);
    out
}

/// [`dist_extract`] against a request plan built once with
/// [`plan_requests`] — callers issuing several extracts with the same
/// request list over same-layout vectors skip the repeated bucketing.
pub fn dist_extract_planned<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    plan: &RequestPlan<I>,
    opts: &DistOpts,
) -> Vec<T>
where
    T: Copy + Send + WireWord + 'static,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Extract);
    let out = extract_impl(comm, src, plan, opts);
    comm.span_close(span);
    out
}

fn extract_impl<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    plan: &RequestPlan<I>,
    opts: &DistOpts,
) -> Vec<T>
where
    T: Copy + Send + WireWord + 'static,
    I: Idx + WireWord,
{
    let layout = src.layout();
    assert_eq!(layout, plan.layout, "plan built for a different layout");
    let p = comm.size();
    let me = comm.rank();
    let world = comm.world();

    // Per owner, the values answering `plan.wire_ids[o]`, in order.
    let mut replies: Vec<Vec<T>> = vec![Vec::new(); p];

    // Detect hot owners by global request totals — counted post-dedup,
    // i.e. by the traffic actually offered to each owner.
    let hot: Vec<bool> = if opts.hot_threshold.is_finite() && p > 1 {
        let my_counts: Vec<u64> = plan.wire_ids.iter().map(|v| v.len() as u64).collect();
        let totals = comm.allreduce_counted(&world, my_counts, p as u64, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        });
        (0..p)
            .map(|o| totals[o] as f64 > opts.hot_threshold * (layout.local_len(o).max(1) as f64))
            .collect()
    } else {
        vec![false; p]
    };

    // Hot owners broadcast their chunk; requesters self-serve.
    for o in 0..p {
        if !hot[o] {
            continue;
        }
        let chunk = comm.bcast_vec(&world, o, (me == o).then(|| src.local().to_vec()));
        if me == o {
            comm.count(Counter::HotBroadcasts, 1);
        }
        replies[o] = plan.wire_ids[o]
            .iter()
            .map(|g| chunk[layout.offset_of(o, g.idx())])
            .collect();
        comm.charge_compute(plan.requests_to[o] as u64 + 1);
    }

    // Dedup savings relative to the legacy exchange: every collapsed
    // duplicate would have crossed the wire twice (id out, reply back) —
    // charged at the narrow id width actually on the wire.
    let saved: u64 = (0..p)
        .filter(|&o| !hot[o])
        .map(|o| words_of::<I>(plan.removed(o)) + words_of::<T>(plan.removed(o)))
        .sum();
    comm.count(Counter::WordsSaved, saved);

    // Remaining requests go to their owners; hot owners keep the broadcast
    // fallback and contribute empty buckets.
    let send: Vec<Vec<I>> = (0..p)
        .map(|o| {
            if hot[o] {
                Vec::new()
            } else {
                plan.wire_ids[o].clone()
            }
        })
        .collect();
    match opts.wire {
        // In-flight combining: request ids ride the combining hypercube as
        // delta-encoded key streams, merging cross-rank duplicates at the
        // hop where their routes first meet; replies scatter back along
        // the recorded reverse route. Keys stay at the narrow index width
        // `I` — the delta streams encode identically, but the pairwise
        // fallbacks and reply tuples are charged at `I`'s true size.
        Wire::Compact => {
            let route = comm.combining_requests(&world, send);
            let values: Vec<T> = route
                .delivered_keys()
                .iter()
                .map(|&k| src.get_local(k.idx()))
                .collect();
            comm.count(Counter::RequestsReceived, values.len() as u64);
            comm.charge_compute(values.len() as u64 + 1);
            let reply = comm.combining_replies(&world, &route, &values);
            for (o, vals) in reply.into_iter().enumerate() {
                if hot[o] {
                    continue;
                }
                replies[o] = vals;
                comm.charge_compute(plan.requests_to[o] as u64 + 1);
            }
        }
        // Raw id words out through the all-to-all, raw values back.
        Wire::Legacy => {
            let incoming = comm.alltoallv(&world, send, opts.alltoall);
            let received: u64 = incoming.iter().map(|ids| ids.len() as u64).sum();
            let served: Vec<Vec<T>> = incoming
                .into_iter()
                .map(|ids| ids.iter().map(|&g| src.get_local(g.idx())).collect())
                .collect();
            comm.count(Counter::RequestsReceived, received);
            comm.charge_compute(received + 1);
            let reply_back = comm.alltoallv(&world, served, opts.alltoall);
            for (o, vals) in reply_back.into_iter().enumerate() {
                if !hot[o] {
                    replies[o] = vals;
                }
            }
        }
    }
    plan.scatter(&replies)
}

/// Several extract phases against one request plan — starcheck's two
/// extracts with identical requests (grandparent, then parent starness)
/// separated by an assign.
///
/// Under [`Wire::Compact`] the ids cross the combining hypercube once
/// ([`FusedExtract::begin`]) and each phase scatters its replies back
/// along the recorded reverse route ([`FusedExtract::extract`]). Values
/// are read at reply time, so a phase observes assigns applied after
/// `begin` — exactly the ordering the unfused pair of extracts had. This
/// path never takes the hot-rank broadcast: the combining tree already
/// collapses the duplicate traffic that made owners hot. Keys stay at the
/// plan's index width `I`. Under [`Wire::Legacy`] there is no route to
/// share: `begin` sends nothing and every phase is one
/// [`dist_extract_planned`]. So [`Counter::RequestsReceived`] counts the
/// route's delivered ids once, whatever the number of phases, and the
/// legacy phases' arrivals phase by phase.
pub struct FusedExtract<'a, I: Idx = Vid> {
    plan: &'a RequestPlan<I>,
    opts: &'a DistOpts,
    route: Option<CombineRoute<I>>,
}

impl<'a, I: Idx + WireWord> FusedExtract<'a, I> {
    /// Under [`Wire::Compact`], sends the plan's per-owner request ids
    /// through the combining hypercube and records the route for the
    /// reply phases.
    pub fn begin(comm: &mut Comm, plan: &'a RequestPlan<I>, opts: &'a DistOpts) -> Self {
        let route = (opts.wire == Wire::Compact).then(|| {
            let world = comm.world();
            let route = comm.combining_requests(&world, plan.wire_ids.to_vec());
            comm.count(
                Counter::RequestsReceived,
                route.delivered_keys().len() as u64,
            );
            route
        });
        FusedExtract { plan, opts, route }
    }

    /// One reply phase: serves the requested ids from `src` as of *now*
    /// and returns `src[requests[k]]` for each planned request, in order.
    pub fn extract<T>(&self, comm: &mut Comm, src: &DistVec<T>) -> Vec<T>
    where
        T: Copy + Send + WireWord + 'static,
    {
        let Some(route) = &self.route else {
            return dist_extract_planned(comm, src, self.plan, self.opts);
        };
        let span = comm.span_open(SpanKind::Extract);
        let world = comm.world();
        assert_eq!(
            src.layout(),
            self.plan.layout,
            "plan built for a different layout"
        );
        let values: Vec<T> = route
            .delivered_keys()
            .iter()
            .map(|&k| src.get_local(k.idx()))
            .collect();
        comm.charge_compute(values.len() as u64 + 1);
        let reply = comm.combining_replies(&world, route, &values);
        let results = self.plan.scatter(&reply);
        comm.charge_compute(self.plan.n_requests() as u64 + 1);
        comm.span_close(span);
        results
    }
}

/// Distributed scatter (`GrB_assign` by index list): applies
/// `dst[g] = v` for every locally supplied update `(g, v)`. Duplicate
/// targets (across all ranks) are resolved deterministically through the
/// monoid, mirroring [`crate::serial::assign`].
///
/// Returns the number of *locally owned* elements whose value changed
/// (callers allreduce this for the global convergence test). The words
/// monoid pre-combining kept off the wire count as [`Counter::WordsSaved`].
pub fn dist_assign<T, M, I>(
    comm: &mut Comm,
    dst: &mut DistVec<T>,
    updates: &[(I, T)],
    monoid: M,
    opts: &DistOpts,
) -> usize
where
    T: Copy + Send + PartialEq + WireWord + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Assign);
    let out = assign_impl(comm, dst, updates, monoid, opts);
    comm.span_close(span);
    out
}

/// Sender-side pre-combining of one update list: folds duplicate targets
/// through the monoid in arrival order — re-associating, never reordering,
/// the receiver's fold, so the result is bit-identical for associative
/// monoids — into one dense value slot per distinct target. Returns, per
/// owner, the combined `(id, value)` list in ascending id order and the
/// number of updates it had before combining.
fn precombine_updates<T, M, I>(
    layout: VecLayout,
    updates: &[(I, T)],
    monoid: M,
) -> (Vec<Vec<(I, T)>>, Vec<usize>)
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let locator = layout.locator();
    let groups = group_fold(
        layout.len(),
        updates.iter().map(|&(g, v)| (g.idx(), v)),
        monoid,
    );
    let buckets = locator.split_by_owner(&groups.present, |slot, g| {
        (I::from_usize(g), groups.folded[slot])
    });
    let before = locator.owner_sums(&groups.present, &groups.multiplicity);
    (buckets, before)
}

fn assign_impl<T, M, I>(
    comm: &mut Comm,
    dst: &mut DistVec<T>,
    updates: &[(I, T)],
    monoid: M,
    opts: &DistOpts,
) -> usize
where
    T: Copy + Send + PartialEq + WireWord + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let layout = dst.layout();
    let world = comm.world();
    let mut ops = 1u64;
    let buckets: Vec<Vec<(I, T)>> = match opts.wire {
        Wire::Legacy => layout.bucket_by_owner(updates.iter().copied()),
        Wire::Compact => {
            let (buckets, before) = precombine_updates(layout, updates, monoid);
            let mut saved = 0u64;
            for (b, before) in buckets.iter().zip(before) {
                ops += (before + b.len()) as u64;
                saved += words_of::<(I, T)>(before - b.len());
            }
            comm.count(Counter::WordsSaved, saved);
            buckets
        }
    };
    comm.charge_compute(updates.len() as u64 + 1);
    comm.charge_compute(ops);

    let merged: Vec<(I, T)> = match opts.wire {
        // In-flight combining: updates ride the combining hypercube keyed
        // by target id, folding through the monoid wherever two origins'
        // routes meet — each target reaches its owner at most once per
        // arrival branch instead of once per sender. LACC's monoids
        // (min-hook, and-fold) are commutative, so the merge-tree order is
        // immaterial. Keys ride at the narrow index width `I`, so the
        // per-entry tuples are charged at their true size.
        Wire::Compact => {
            let merged = comm.reduce_scatter_by_key(&world, buckets, |acc: &mut T, v| {
                *acc = monoid.combine(*acc, v)
            });
            comm.charge_compute(merged.len() as u64 + 1);
            merged
        }
        // Every update crosses the all-to-all; the owner folds.
        Wire::Legacy => {
            let parts = comm.alltoallv(&world, buckets, opts.alltoall);
            let received: u64 = parts.iter().map(|part| part.len() as u64).sum();
            comm.charge_compute(received + 1);
            fold_chunk_arrivals(layout.range_of_rank(comm.rank()), &parts, monoid)
        }
    };
    let mut changed = 0;
    for (k, v) in merged {
        let g = k.idx();
        if dst.get_local(g) != v {
            dst.set_local(g, v);
            changed += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dvec::VecLayout;
    use crate::serial::{self, Pattern, SparseVec};
    use crate::types::{AddUsize, AndBool, Mask, MaxUsize, MinMaxUsize, MinUsize, OrBool};
    use dmsim::{run_spmd, Grid2d};
    use lacc_graph::generators::{erdos_renyi_gnm, path_graph, rmat, RmatParams};
    use lacc_graph::CsrGraph;
    use rand::{Rng, SeedableRng};

    const GRIDS: [usize; 4] = [1, 4, 9, 16];

    proptest::proptest! {
        #[test]
        fn narrow_entry_frames_roundtrip_and_shrink(
            steps in proptest::collection::vec((0u32..2_000, 0usize..70_000), 0..120),
        ) {
            // Ascending ids with arbitrary gaps (repeats allowed), values on
            // both sides of 2^16; no entries is the empty frame.
            let mut id = 0u32;
            let entries: Vec<(u32, usize)> = steps
                .into_iter()
                .map(|(gap, v)| {
                    id += gap;
                    (id, v)
                })
                .collect();
            let frame = encode_entry_frame(&entries);
            proptest::prop_assert_eq!(frame.is_empty(), entries.is_empty());
            proptest::prop_assert_eq!(decode_entry_frame::<usize, u32>(&frame), Ok(entries.clone()));
            // Delta ids and values at no more than their own width: a
            // frame never costs more than the raw tuples it replaces.
            proptest::prop_assert!(
                frame.len() as u64 <= dmsim::bytes_of::<(u32, usize)>(entries.len()),
                "frame is {} bytes for {} entries", frame.len(), entries.len()
            );
        }
    }

    fn random_dense(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..n.max(1))).collect()
    }

    fn check_mxv_dense(g: &CsrGraph, x_global: &[usize], mask_global: Option<&[bool]>) {
        let a_serial = Pattern::from_graph(g);
        let n = g.num_vertices();
        for p in GRIDS {
            let expected = match mask_global {
                None => serial::mxv_dense(&a_serial, x_global, Mask::None, MinUsize),
                Some(m) => serial::mxv_dense(&a_serial, x_global, Mask::Keep(m), MinUsize),
            };
            let out = run_spmd(p, |c| {
                let grid = Grid2d::square(p);
                let layout = VecLayout::new(n, grid);
                let a = DistMat::from_graph(g, grid, c.rank());
                let x = DistVec::from_global(layout, c.rank(), x_global);
                let mv = mask_global.map(|m| DistVec::from_global(layout, c.rank(), m));
                let mask = match &mv {
                    None => DistMask::None,
                    Some(m) => DistMask::Keep(m),
                };
                let y = dist_mxv_dense(c, &a, &x, mask, MinUsize, &DistOpts::default());
                y.to_serial(c)
            })
            .unwrap();
            for y in out {
                assert_eq!(y, expected, "p={p}");
            }
        }
    }

    #[test]
    fn mxv_dense_matches_serial_er() {
        let g = erdos_renyi_gnm(60, 150, 1);
        let x = random_dense(60, 2);
        check_mxv_dense(&g, &x, None);
    }

    #[test]
    fn mxv_dense_matches_serial_masked() {
        let g = rmat(6, 4, RmatParams::graph500(), 3);
        let n = g.num_vertices();
        let x = random_dense(n, 5);
        let mask: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
        check_mxv_dense(&g, &x, Some(&mask));
    }

    #[test]
    fn mxv_dense_path_small_n_large_p() {
        // n=10 with p=16 ranks: some chunks are empty.
        let g = path_graph(10);
        let x = random_dense(10, 7);
        check_mxv_dense(&g, &x, None);
    }

    /// Per rank, for one masked SpMV of `g` traced at collective level:
    /// `(ops charged, reduce-scatter words, words of the raw transpose
    /// hops, the kept rows' nonzeros, output entries)`.
    fn traced_masked_mxv(g: &CsrGraph, p: usize, mask_global: &[bool]) -> Vec<[u64; 5]> {
        let n = g.num_vertices();
        let x_global = random_dense(n, 19);
        let sink = dmsim::TraceSink::new(dmsim::TraceLevel::Collectives);
        let model = dmsim::MachineModel::free();
        let out = dmsim::run_spmd_traced(p, model, Some(&sink), |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::<u32>::from_graph(g, grid, c.rank());
            let x = DistVec::from_global(layout, c.rank(), &x_global);
            let m = DistVec::from_global(layout, c.rank(), mask_global);
            let mask = DistMask::Keep(&m);
            let y = dist_mxv_dense(c, &a, &x, mask, MinUsize, &DistOpts::default());
            let (rs, rows) = (a.row_range().0, a.row_mirror());
            let kept = (0..rows.nrows()).filter(|&r| mask_global[rs + r]);
            let nnz: usize = kept.map(|r| rows.row(r).len()).sum();
            (nnz as u64, y.entries().len() as u64)
        })
        .unwrap();
        let traces = sink.rank_traces();
        let words = |rt: &dmsim::RankTrace, kind: SpanKind| -> u64 {
            let spans = rt.spans.iter().filter(|s| s.kind == kind);
            spans.map(|s| s.words).sum()
        };
        out.iter()
            .zip(&traces)
            .map(|(&(nnz, nvals), rt)| {
                let mxv = rt.spans.iter().find(|s| s.kind == SpanKind::Mxv).unwrap();
                let rs = words(rt, SpanKind::ReduceScatter);
                let raw = mxv.words - rs - words(rt, SpanKind::Allgatherv);
                [mxv.ops, rs, raw, nnz, nvals]
            })
            .collect()
    }

    #[test]
    fn a_dense_mask_skips_the_fold_and_the_row_payload_of_dropped_rows() {
        // Under an all-false mask the multiply charges no nonzero — the
        // call's op count equals the edgeless graph's — and neither the
        // reduce-scatter nor the transpose hop carries a row: the only raw
        // words are the mask bits' own transpose hop. Under a partial mask
        // the graph adds exactly the kept rows' nonzeros plus the entries
        // it outputs.
        let g = rmat(7, 6, RmatParams::graph500(), 17);
        let n = g.num_vertices();
        let edgeless = CsrGraph::from_edges(lacc_graph::EdgeList::new(n));
        let none = vec![false; n];
        let partial: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
        for p in GRIDS {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let dropped = traced_masked_mxv(&g, p, &none);
            let empty = traced_masked_mxv(&edgeless, p, &none);
            for (r, (got, base)) in dropped.iter().zip(&empty).enumerate() {
                let [ops, rs, raw, _, nvals] = *got;
                assert_eq!((ops, nvals), (base[0], 0), "p={p} rank {r}: ops");
                let (i, j) = grid.coords_of(r);
                let bits = |rank| layout.local_len(rank).div_ceil(64) as u64;
                let partner = grid.rank_of(j, i);
                let hop = if i == j { 0 } else { bits(r) + bits(partner) };
                assert_eq!((rs, raw), (0, hop), "p={p} rank {r}: row payload");
            }
            let kept = traced_masked_mxv(&g, p, &partial);
            let empty = traced_masked_mxv(&edgeless, p, &partial);
            assert!(kept.iter().any(|k| k[3] > 0), "p={p}: nothing kept");
            for (r, (got, base)) in kept.iter().zip(&empty).enumerate() {
                let [ops, _, _, nnz, nvals] = *got;
                assert_eq!(ops - base[0], nnz + nvals, "p={p} rank {r}: ops");
            }
        }
    }

    /// An `mxv` whose mask has `x`'s length but another grid's chunks.
    fn mxv_under_a_foreign_mask(dense: bool) {
        let g = path_graph(12);
        run_spmd(4, |c| {
            let grid = Grid2d::square(4);
            let layout = VecLayout::new(12, grid);
            let a = DistMat::<u32>::from_graph(&g, grid, c.rank());
            let foreign = VecLayout::new(12, Grid2d::new(1, 4));
            let m = DistVec::from_fn(foreign, c.rank(), |v| v % 2 == 0);
            let (mask, opts) = (DistMask::Keep(&m), DistOpts::default());
            if dense {
                let x = DistVec::from_fn(layout, c.rank(), |v| v);
                dist_mxv_dense(c, &a, &x, mask, MinUsize, &opts);
            } else {
                let x = DistSpVec::<usize, u32>::empty(layout, c.rank());
                dist_mxv_sparse(c, &a, &x, mask, MinUsize, &opts);
            }
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "mask built for a different layout")]
    fn dense_mxv_refuses_a_mask_on_another_layout() {
        mxv_under_a_foreign_mask(true);
    }

    #[test]
    #[should_panic(expected = "mask built for a different layout")]
    fn sparse_mxv_refuses_a_mask_on_another_layout() {
        mxv_under_a_foreign_mask(false);
    }

    fn check_mxv_sparse(g: &CsrGraph, x_serial: &SparseVec<usize>, opts: DistOpts) {
        let a_serial = Pattern::from_graph(g);
        let n = g.num_vertices();
        let expected = serial::mxv_sparse(&a_serial, x_serial, Mask::None, MinUsize);
        for p in GRIDS {
            let out = run_spmd(p, |c| {
                let grid = Grid2d::square(p);
                let layout = VecLayout::new(n, grid);
                let a = DistMat::from_graph(g, grid, c.rank());
                let (s, e) = layout.range_of_rank(c.rank());
                let local: Vec<(usize, usize)> = x_serial
                    .entries()
                    .iter()
                    .copied()
                    .filter(|&(g, _)| g >= s && g < e)
                    .collect();
                let x = DistSpVec::from_local_entries(layout, c.rank(), local);
                let y = dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &opts);
                y.to_serial(c)
            })
            .unwrap();
            for y in out {
                assert_eq!(y, expected, "p={p}");
            }
        }
    }

    #[test]
    fn mxv_sparse_matches_serial_all_algorithms() {
        let g = erdos_renyi_gnm(50, 120, 11);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for i in 0..50 {
            if rng.random_bool(0.3) {
                entries.push((i, rng.random_range(0..50)));
            }
        }
        let x = SparseVec::from_entries(50, entries);
        for algo in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
            check_mxv_sparse(
                &g,
                &x,
                DistOpts {
                    alltoall: algo,
                    ..DistOpts::default()
                },
            );
        }
    }

    /// The block column by column, each column's rows ascending.
    fn columns_of(rows: &CsrMirror<u32>) -> Vec<Vec<usize>> {
        let mut cols = vec![Vec::new(); rows.ncols()];
        for r in 0..rows.nrows() {
            for c in rows.row(r) {
                cols[c.idx()].push(r);
            }
        }
        cols
    }

    /// The dense kernel this crate used to run: a sweep of the block's
    /// nonempty columns, scattering into `(acc, touched)` over every row.
    fn column_sweep_oracle<T: Copy, M: Monoid<T>>(
        rows: &CsrMirror<u32>,
        x_block: &[T],
        monoid: M,
    ) -> Vec<(T, bool)> {
        let mut out = vec![(monoid.identity(), false); rows.nrows()];
        for (lc, col) in columns_of(rows).iter().enumerate() {
            for &lr in col {
                out[lr] = (monoid.combine(out[lr].0, x_block[lc]), true);
            }
        }
        out
    }

    /// Random rectangular blocks — rows in random column order, empty rows,
    /// empty columns, down to 0 × 0 — and blocks as the build leaves them,
    /// permuted and not, n = 50 not divisible by sqrt(p) = 3.
    fn sample_blocks(rng: &mut rand_chacha::ChaCha8Rng) -> Vec<CsrMirror<u32>> {
        let mut blocks: Vec<CsrMirror<u32>> = Vec::new();
        for (nrows, ncols, density) in [(0, 0, 0.0), (1, 7, 0.5), (13, 9, 0.3), (40, 64, 0.05)] {
            let mut rowptr = vec![0usize];
            let mut colidx: Vec<u32> = Vec::new();
            for r in 0..nrows {
                let mut cols: Vec<u32> = (0..ncols as u32)
                    .filter(|_| r % 5 != 3 && rng.random_bool(density))
                    .collect();
                for k in (1..cols.len()).rev() {
                    cols.swap(k, rng.random_range(0..=k));
                }
                colidx.extend(cols);
                rowptr.push(colidx.len());
            }
            blocks.push(CsrMirror::from_parts(nrows, ncols, rowptr, colidx));
        }
        let g = erdos_renyi_gnm(50, 160, 31);
        let perm = lacc_graph::permute::Permutation::random(50, 37);
        for r in 0..9 {
            let grid = Grid2d::square(9);
            blocks.push(DistMat::<u32>::from_graph(&g, grid, r).row_mirror().clone());
            let permuted = DistMat::<u32>::from_graph_permuted(&g, &perm, grid, r);
            blocks.push(permuted.row_mirror().clone());
        }
        blocks
    }

    fn word(j: u64) -> usize {
        (j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
    }

    #[test]
    fn row_gather_matches_the_column_sweep_oracle() {
        // Over every row, and over the rows a mask keeps: their pairs in
        // order, and only their nonzeros counted.
        fn check<T, M>(rows: &CsrMirror<u32>, kept: &[usize], monoid: M, val: impl Fn(u64) -> T)
        where
            T: Copy + PartialEq + std::fmt::Debug,
            M: Monoid<T>,
        {
            let x: Vec<T> = (0..rows.ncols() as u64).map(val).collect();
            let all = column_sweep_oracle(rows, &x, monoid);
            let pairs: Vec<(T, bool)> = kept.iter().map(|&r| all[r]).collect();
            let nnz: usize = kept.iter().map(|&r| rows.row(r).len()).sum();
            let got = local_multiply_block(rows, &x, kept.iter().copied(), monoid);
            assert_eq!(got, (pairs, nnz as u64));
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for rows in &sample_blocks(&mut rng) {
            let every: Vec<usize> = (0..rows.nrows()).collect();
            let some: Vec<usize> = (0..rows.nrows()).filter(|_| rng.random_bool(0.4)).collect();
            for kept in [&every, &some] {
                check(rows, kept, MinUsize, word);
                check(rows, kept, MaxUsize, word);
                check(rows, kept, AddUsize, word);
                check(rows, kept, MinMaxUsize, |j| (word(j), word(j + 1)));
                check(rows, kept, AndBool, |j| !word(j).is_multiple_of(3));
                check(rows, kept, OrBool, |j| word(j).is_multiple_of(3));
            }
        }
    }

    #[test]
    fn push_folds_each_column_over_its_present_rows() {
        fn check<T, M>(rows: &CsrMirror<u32>, present: &[bool], monoid: M, val: impl Fn(u64) -> T)
        where
            T: Copy + PartialEq + std::fmt::Debug,
            M: Monoid<T>,
        {
            // Entries over the block's rows, offset as if the block began
            // at global row 100.
            let x: Vec<(u32, T)> = (0..rows.nrows())
                .filter(|&r| present[r])
                .map(|r| (100 + r as u32, val(r as u64)))
                .collect();
            let (acc, mut touched, ops) = local_multiply_push(rows, 100, x.iter().copied(), monoid);
            touched.sort_unstable();
            let cols = columns_of(rows);
            let hit = |lc: usize| cols[lc].iter().filter(|&&r| present[r]);
            let want_touched: Vec<usize> = (0..cols.len())
                .filter(|&lc| hit(lc).next().is_some())
                .collect();
            assert_eq!(touched, want_touched);
            for (lc, &got) in acc.iter().enumerate() {
                let fold = |v, &r| monoid.combine(v, val(r as u64));
                assert_eq!(got, hit(lc).fold(monoid.identity(), fold), "column {lc}");
            }
            // One op per entry and per nonzero it meets, plus one.
            let met: usize = x.iter().map(|&(g, _)| rows.row(g.idx() - 100).len()).sum();
            assert_eq!(ops, (1 + x.len() + met) as u64);
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
        for rows in &sample_blocks(&mut rng) {
            for fill in [0.0, 0.3, 1.0] {
                let present: Vec<bool> = (0..rows.nrows()).map(|_| rng.random_bool(fill)).collect();
                check(rows, &present, MinUsize, word);
                check(rows, &present, AddUsize, word);
                check(rows, &present, MinMaxUsize, |j| (word(j), word(j + 1)));
                check(rows, &present, OrBool, |j| word(j).is_multiple_of(3));
            }
        }
    }

    #[test]
    fn mxv_sparse_empty_input() {
        let g = path_graph(20);
        let x = SparseVec::empty(20);
        check_mxv_sparse(&g, &x, DistOpts::default());
    }

    #[test]
    fn mxv_sparse_single_entry() {
        let g = path_graph(20);
        let x = SparseVec::from_entries(20, vec![(10, 3)]);
        check_mxv_sparse(&g, &x, DistOpts::default());
    }

    #[test]
    fn extract_matches_serial() {
        let n = 80;
        let src_global: Vec<usize> = (0..n).map(|g| g * 7 % 64).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        // Skewed request pattern: most requests hit low indices (as parent
        // pointers do after conditional hooking).
        let all_requests: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..30).map(|_| rng.random_range(0..n) / 3).collect())
            .collect();
        for p in GRIDS {
            for opts in [DistOpts::default(), DistOpts::naive()] {
                let out = run_spmd(p, |c| {
                    let layout = VecLayout::new(n, Grid2d::square(p));
                    let src = DistVec::from_global(layout, c.rank(), &src_global);
                    dist_extract(c, &src, &all_requests[c.rank()], &opts)
                })
                .unwrap();
                for (r, vals) in out.iter().enumerate() {
                    let expected = serial::extract(&src_global, &all_requests[r]);
                    assert_eq!(vals, &expected, "p={p} rank={r}");
                }
            }
        }
    }

    #[test]
    fn extract_hot_rank_broadcasts() {
        let n = 64;
        let p = 16;
        let src_global: Vec<usize> = (0..n).collect();
        let out = run_spmd(p, |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let src = DistVec::from_global(layout, c.rank(), &src_global);
            // Everyone hammers index 0 — its owner becomes hot.
            let reqs = vec![0usize; 40];
            let opts = DistOpts {
                hot_threshold: 2.0,
                ..DistOpts::default()
            };
            let vals = dist_extract(c, &src, &reqs, &opts);
            assert!(vals.iter().all(|&v| v == 0));
            let snap = c.snapshot();
            let count = |k| snap.counter(k);
            (
                count(Counter::HotBroadcasts),
                count(Counter::RequestsReceived),
            )
        })
        .unwrap();
        let broadcasts: Vec<u64> = out.iter().map(|&(b, _)| b).collect();
        let mut want = vec![0; p];
        want[VecLayout::new(n, Grid2d::square(p)).owner_of(0)] = 1;
        assert_eq!(broadcasts, want, "exactly the owner of index 0 broadcasts");
        // The broadcasting owner answers no point-to-point requests.
        assert!(out.iter().all(|&(b, received)| b == 0 || received == 0));
    }

    #[test]
    fn assign_matches_serial_with_duplicates() {
        let n = 60;
        let init: Vec<usize> = vec![usize::MAX; n];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let all_updates: Vec<Vec<(usize, usize)>> = (0..16)
            .map(|_| {
                (0..25)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..1000)))
                    .collect()
            })
            .collect();
        for p in GRIDS {
            // Serial reference: the first p ranks' updates, min-combined.
            let mut expected = init.clone();
            let flat: Vec<(usize, usize)> = all_updates[..p].iter().flatten().copied().collect();
            serial::assign(&mut expected, &flat, MinUsize);
            let out = run_spmd(p, |c| {
                let layout = VecLayout::new(n, Grid2d::square(p));
                let mut dst = DistVec::from_global(layout, c.rank(), &init);
                dist_assign(
                    c,
                    &mut dst,
                    &all_updates[c.rank()],
                    MinUsize,
                    &DistOpts::default(),
                );
                dst.to_global(c)
            })
            .unwrap();
            for got in out {
                assert_eq!(got, expected, "p={p}");
            }
        }
    }

    #[test]
    fn assign_empty_updates_is_noop() {
        let n = 10;
        let init: Vec<usize> = (0..n).collect();
        let out = run_spmd(4, |c| {
            let layout = VecLayout::new(n, Grid2d::square(4));
            let mut dst = DistVec::from_global(layout, c.rank(), &init);
            let none: &[(usize, usize)] = &[];
            dist_assign(c, &mut dst, none, MinUsize, &DistOpts::default());
            dst.to_global(c)
        })
        .unwrap();
        assert_eq!(out[0], init);
    }

    /// Issues `copies` duplicates of every request/update on each rank and
    /// returns the per-rank counts (words saved by the extract, words saved
    /// by the assign, words combined in flight by both) under the given
    /// options.
    fn wire_savings(copies: usize, opts: DistOpts) -> Vec<(u64, u64, u64)> {
        let n = 64;
        let p = 4;
        run_spmd(p, move |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let src = DistVec::from_fn(layout, c.rank(), |g| g * 3 % n);
            let mut reqs = Vec::new();
            let mut upds = Vec::new();
            for g in (0..n).step_by(2) {
                for _ in 0..copies {
                    reqs.push(g);
                    upds.push((g, g + c.rank()));
                }
            }
            let opts = DistOpts {
                hot_threshold: f64::INFINITY,
                ..opts
            };
            let saved = |c: &Comm| c.snapshot().counter(Counter::WordsSaved);
            dist_extract(c, &src, &reqs, &opts);
            let by_extract = saved(c);
            let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
            dist_assign(c, &mut dst, &upds, MinUsize, &opts);
            let combined = c.snapshot().counter(Counter::CombinedWords);
            (by_extract, saved(c) - by_extract, combined)
        })
        .unwrap()
    }

    #[test]
    fn legacy_wire_reports_no_savings() {
        for (by_extract, by_assign, combined) in wire_savings(4, DistOpts::naive()) {
            assert_eq!(by_extract, 0);
            assert_eq!(by_assign, 0);
            assert_eq!(combined, 0, "the legacy wire never combines in flight");
        }
    }

    #[test]
    fn compact_wire_savings_positive_and_monotone_in_duplication() {
        // With duplicated traffic every compact mechanism must report
        // savings, and quadrupling the duplication can only save more
        // words. Every rank asks for the same ids, so the hypercube hops
        // merge cross-rank duplicates even without local copies.
        let once = wire_savings(1, DistOpts::default());
        let twice = wire_savings(2, DistOpts::default());
        let eight = wire_savings(8, DistOpts::default());
        for (rank, &(_, _, combined)) in once.iter().enumerate() {
            assert!(
                combined > 0,
                "rank {rank}: identical cross-rank requests merge"
            );
        }
        for (&(ex2, as2, _), &(ex8, as8, _)) in twice.iter().zip(&eight) {
            assert!(ex2 > 0, "dedup saves on duplicates");
            assert!(as2 > 0, "combine collapses updates");
            assert!(ex8 >= ex2, "dedup savings are monotone in duplication");
            assert!(as8 >= as2, "combine savings are monotone in duplication");
        }
    }

    /// A left fold that is neither commutative nor associative, so the
    /// oracle comparison pins the *arrival order* of every group's fold.
    #[derive(Clone, Copy)]
    struct Horner;

    impl Monoid<usize> for Horner {
        fn identity(&self) -> usize {
            0
        }
        fn combine(&self, a: usize, b: usize) -> usize {
            a.wrapping_mul(31).wrapping_add(b)
        }
    }

    /// Checks the compact request plan and the assign pre-combiner of one
    /// id list against a `BTreeMap` group-and-fold.
    fn check_against_btreemap_oracle<I: Idx>(c: &mut Comm, layout: VecLayout, ids: &[usize]) {
        use std::collections::BTreeMap;
        let p = c.size();
        let ctx = format!(
            "{layout:?} rank {} ids {:?}",
            c.rank(),
            &ids[..ids.len().min(8)]
        );
        let reqs: Vec<I> = ids.iter().map(|&g| I::from_usize(g)).collect();
        let updates: Vec<(I, usize)> = reqs
            .iter()
            .enumerate()
            .map(|(k, &g)| (g, k * 7 + 1))
            .collect();
        let mut oracle: Vec<BTreeMap<I, (usize, usize)>> = vec![BTreeMap::new(); p];
        for &(g, v) in &updates {
            oracle[layout.owner_of(g.idx())]
                .entry(g)
                .and_modify(|(count, acc)| (*count, *acc) = (*count + 1, Horner.combine(*acc, v)))
                .or_insert((1, v));
        }
        let requests_to: Vec<usize> = oracle
            .iter()
            .map(|m| m.values().map(|&(count, _)| count).sum())
            .collect();

        let plan = plan_requests(c, layout, &reqs, &DistOpts::default());
        assert_eq!(plan.n_requests(), reqs.len(), "{ctx}");
        assert_eq!(plan.requests_to, requests_to, "{ctx}");
        for (o, group) in oracle.iter().enumerate() {
            let want: Vec<I> = group.keys().copied().collect();
            assert_eq!(plan.wire_ids[o], want, "{ctx}: wire ids of owner {o}");
        }
        let unique: usize = oracle.iter().map(BTreeMap::len).sum();
        let removed: usize = (0..p).map(|o| plan.removed(o)).sum();
        assert_eq!(removed, reqs.len() - unique, "{ctx}");
        let value_of = |g: I| g.idx() * 3 + 1;
        let replies: Vec<Vec<usize>> = plan
            .wire_ids
            .iter()
            .map(|ids| ids.iter().map(|&g| value_of(g)).collect())
            .collect();
        let want: Vec<usize> = reqs.iter().map(|&g| value_of(g)).collect();
        assert_eq!(plan.scatter(&replies), want, "{ctx}: reply scatter");

        let (buckets, before) = precombine_updates(layout, &updates, Horner);
        assert_eq!(before, requests_to, "{ctx}");
        for (o, group) in oracle.iter().enumerate() {
            let want: Vec<(I, usize)> = group.iter().map(|(&g, &(_, v))| (g, v)).collect();
            assert_eq!(buckets[o], want, "{ctx}: combined updates of owner {o}");
        }
    }

    #[test]
    fn planner_and_precombiner_match_a_btreemap_oracle() {
        // n below p (ranks owning nothing), not divisible by p, and well
        // below the length of the longest list; empty, all-duplicate,
        // random-with-repeats, reverse-sorted and duplicate-heavy long
        // lists; both index widths.
        for p in [1usize, 4, 9] {
            for n in [p - 1, 10 * p + 3, 701] {
                run_spmd(p, move |c| {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64((p * 1000 + n) as u64);
                    let mut lists: Vec<Vec<usize>> = vec![Vec::new()];
                    if n > 0 {
                        lists.push(vec![(c.rank() * 5) % n; 40]);
                        lists.push((0..300).map(|_| rng.random_range(0..n)).collect());
                        lists.push((0..n).rev().collect());
                        lists.push((0..2148).map(|k| (k * k + c.rank()) % n).collect());
                    }
                    let layout = VecLayout::new(n, Grid2d::square(p));
                    for ids in &lists {
                        check_against_btreemap_oracle::<usize>(c, layout, ids);
                        check_against_btreemap_oracle::<u32>(c, layout, ids);
                    }
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn short_reply_fails_loudly_instead_of_misrouting() {
        // Replies are addressed by index, so a reply vector that does not
        // match its wire list must surface as an error, not as a
        // neighbour's value.
        let err = run_spmd(4, |c| {
            let layout = VecLayout::new(40, Grid2d::square(4));
            let plan = plan_requests(c, layout, &[3usize, 17, 3, 39], &DistOpts::default());
            let mut replies: Vec<Vec<usize>> = plan
                .wire_ids
                .iter()
                .map(|ids| ids.iter().map(|g| g * 2).collect())
                .collect();
            replies[layout.owner_of(17)].clear();
            plan.scatter(&replies)
        })
        .unwrap_err();
        assert!(
            err.message().contains("answered a different number of ids"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn mxv_posted_matches_blocking_and_refunds_overlapped_compute() {
        // A posted mxv runs eagerly: bit-identical results and traffic to
        // the blocking call, and the compute charged between post and wait
        // earns a positive clock refund on top of what the blocking call
        // hid inside itself.
        let g = erdos_renyi_gnm(48, 140, 23);
        let n = g.num_vertices();
        let p = 4;
        let out = dmsim::run_spmd_with_model(p, dmsim::EDISON.lacc_model(), |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(&g, grid, c.rank());
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(usize, usize)> =
                (s..e).filter(|v| v % 2 == 0).map(|v| (v, v)).collect();
            let x = DistSpVec::from_local_entries(layout, c.rank(), local);
            let opts = DistOpts::default();
            let before = c.snapshot();
            let blocking = dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &opts);
            let mid = c.snapshot();
            let h = c.post(|c| dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &opts));
            c.charge_compute(10_000_000);
            let posted = h.wait(c);
            assert_eq!(posted.entries(), blocking.entries());
            let (b, w) = (mid.since(&before), c.snapshot().since(&mid));
            assert_eq!(w.words_sent, b.words_sent);
            assert_eq!(w.bytes_sent, b.bytes_sent);
            w.overlap_hidden_s - b.overlap_hidden_s
        })
        .unwrap();
        for refund in out {
            assert!(
                refund > 0.0,
                "the posted mxv hid nothing behind the compute"
            );
        }
    }

    #[test]
    fn planned_extract_matches_unplanned() {
        // starcheck reuses one request plan for two extracts; both must
        // match independent dist_extract calls on the same requests.
        let n = 72;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(47);
        let all_requests: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..40).map(|_| rng.random_range(0..n) / 2).collect())
            .collect();
        for p in GRIDS {
            for opts in [DistOpts::default(), DistOpts::naive()] {
                let out = run_spmd(p, |c| {
                    let layout = VecLayout::new(n, Grid2d::square(p));
                    let a = DistVec::from_fn(layout, c.rank(), |g| g * 5 % n);
                    let b = DistVec::from_fn(layout, c.rank(), |g| (g % 7 == 0) as usize);
                    let reqs = &all_requests[c.rank()];
                    let plan = plan_requests(c, a.layout(), reqs, &opts);
                    let pa = dist_extract_planned(c, &a, &plan, &opts);
                    let pb = dist_extract_planned(c, &b, &plan, &opts);
                    let ua = dist_extract(c, &a, reqs, &opts);
                    let ub = dist_extract(c, &b, reqs, &opts);
                    (pa, pb, ua, ub)
                })
                .unwrap();
                for (r, (pa, pb, ua, ub)) in out.into_iter().enumerate() {
                    assert_eq!(pa, ua, "p={p} rank={r}");
                    assert_eq!(pb, ub, "p={p} rank={r}");
                }
            }
        }
    }

    /// One rank's cost of one call: `(clock s, ops charged, [messages,
    /// words, bytes] sent, the same received)`.
    type CallCost = (f64, u64, [u64; 3], [u64; 3]);

    /// Per rank under Edison's model, the cost of one Compact dense `mxv`,
    /// one sparse `mxv` and one `reduce_touched_in_column`, each measured
    /// from its own start.
    fn compact_call_costs(p: usize) -> Vec<[CallCost; 3]> {
        let g = rmat(6, 4, RmatParams::graph500(), 3);
        let n = g.num_vertices();
        let x_global = random_dense(n, 23);
        let model = dmsim::EDISON.lacc_model();
        dmsim::run_spmd_with_model(p, model, |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::<u32>::from_graph(&g, grid, c.rank());
            let opts = DistOpts::default();
            let cost = |c: &mut Comm, op: &dyn Fn(&mut Comm)| -> CallCost {
                let before = c.snapshot();
                op(c);
                let d = c.snapshot().since(&before);
                let ops = (d.compute_s * c.model().rate).round() as u64;
                let sent = [d.messages_sent, d.words_sent, d.bytes_sent];
                let received = [d.messages_received, d.words_received, d.bytes_received];
                (d.clock_s, ops, sent, received)
            };
            let x = DistVec::from_global(layout, c.rank(), &x_global);
            let dense = cost(c, &|c| {
                dist_mxv_dense(c, &a, &x, DistMask::None, MinUsize, &opts);
            });
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(u32, usize)> = (s..e)
                .filter(|g| g % 3 != 1)
                .map(|g| (g as u32, x_global[g]))
                .collect();
            let xs = DistSpVec::from_local_entries(layout, c.rank(), local);
            let sparse = cost(c, &|c| {
                dist_mxv_sparse(c, &a, &xs, DistMask::None, MinUsize, &opts);
            });
            // A partial sum at every third column offset, touched in
            // descending order.
            let width = a.col_range().1 - a.col_range().0;
            let acc: Vec<usize> = (0..width).map(|t| (t * 13 + c.rank()) % 97).collect();
            let touched: Vec<Vid> = (0..width).rev().filter(|t| t % 3 != 2).collect();
            let reduce = cost(c, &|c| {
                reduce_touched_in_column::<usize, _, u32>(
                    c,
                    layout,
                    &acc,
                    touched.clone(),
                    MinUsize,
                    &opts,
                );
            });
            [dense, sparse, reduce]
        })
        .unwrap()
    }

    /// [`compact_call_costs`] on the rows of this table, rank by rank.
    /// Delivering a rank's own chunk or bucket is free in the model, so
    /// how a rank hands itself its own slot must not move a figure here.
    const COMPACT_CALL_COSTS: [[CallCost; 3]; 14] = [
        // p = 1
        [
            (6.750000000000001e-6, 486, [0, 0, 0], [0, 0, 0]),
            (6.430555555555556e-6, 463, [0, 0, 0], [0, 0, 0]),
            (1.2083333333333333e-6, 87, [0, 0, 0], [0, 0, 0]),
        ],
        // p = 4
        [
            (9.371466666666667e-6, 228, [2, 37, 289], [2, 36, 288]),
            (1.7466244444444448e-5, 209, [3, 13, 95], [3, 13, 90]),
            (6.676200000000006e-6, 45, [2, 8, 60], [2, 8, 60]),
        ],
        [
            (1.2562377777777777e-5, 148, [3, 68, 544], [3, 69, 545]),
            (1.4151422222222221e-5, 142, [4, 34, 263], [4, 32, 246]),
            (6.676200000000006e-6, 45, [2, 8, 60], [2, 8, 60]),
        ],
        [
            (1.2562377777777777e-5, 148, [3, 68, 544], [3, 69, 545]),
            (1.423366666666667e-5, 147, [4, 33, 253], [4, 35, 271]),
            (6.717866666666672e-6, 45, [2, 8, 60], [2, 8, 60]),
        ],
        [
            (8.2048e-6, 93, [2, 37, 289], [2, 36, 288]),
            (1.8300666666666666e-5, 77, [3, 12, 86], [3, 12, 90]),
            (6.884533333333338e-6, 45, [2, 8, 60], [2, 8, 60]),
        ],
        // p = 9
        [
            (1.44292e-5, 162, [4, 32, 254], [4, 32, 254]),
            (2.521228888888888e-5, 144, [6, 13, 85], [6, 12, 81]),
            (1.246466666666667e-5, 30, [4, 7, 49], [4, 8, 52]),
        ],
        [
            (1.6727133333333335e-5, 105, [5, 46, 365], [5, 46, 366]),
            (2.2518999999999996e-5, 93, [7, 22, 162], [7, 20, 140]),
            (1.2481755555555557e-5, 30, [4, 7, 49], [4, 8, 52]),
        ],
        [
            (1.7491022222222224e-5, 70, [5, 47, 367], [5, 47, 368]),
            (2.201586666666666e-5, 65, [7, 21, 159], [7, 20, 144]),
            (1.2481755555555557e-5, 31, [4, 8, 52], [4, 8, 52]),
        ],
        [
            (1.6727133333333335e-5, 105, [5, 46, 366], [5, 46, 366]),
            (2.2869488888888883e-5, 99, [7, 21, 144], [7, 21, 153]),
            (1.2509533333333333e-5, 30, [4, 7, 49], [4, 8, 52]),
        ],
        [
            (1.3095866666666668e-5, 66, [4, 32, 253], [4, 32, 253]),
            (2.609151111111111e-5, 64, [6, 11, 79], [6, 12, 78]),
            (1.2540511111111108e-5, 30, [4, 7, 49], [4, 8, 52]),
        ],
        [
            (1.669935555555556e-5, 58, [5, 46, 365], [5, 47, 367]),
            (2.2804333333333324e-5, 43, [7, 18, 128], [7, 20, 150]),
            (1.2484955555555558e-5, 31, [4, 8, 52], [4, 8, 52]),
        ],
        [
            (1.750491111111111e-5, 70, [5, 48, 382], [5, 46, 366]),
            (2.203935555555555e-5, 67, [7, 22, 159], [7, 22, 161]),
            (1.251702222222222e-5, 27, [4, 8, 52], [4, 6, 46]),
        ],
        [
            (1.6727133333333335e-5, 59, [5, 48, 382], [5, 46, 365]),
            (2.2536088888888884e-5, 57, [7, 21, 149], [7, 21, 152]),
            (1.24198e-5, 27, [4, 8, 52], [4, 6, 46]),
        ],
        [
            (1.3170622222222227e-5, 55, [4, 33, 256], [4, 36, 285]),
            (2.630848888888888e-5, 37, [6, 9, 64], [6, 10, 70]),
            (1.2509533333333333e-5, 31, [4, 8, 52], [4, 8, 52]),
        ],
    ];

    #[test]
    fn compact_calls_cost_what_they_ship() {
        let mut pinned = COMPACT_CALL_COSTS.iter();
        for p in [1usize, 4, 9] {
            for (rank, got) in compact_call_costs(p).iter().enumerate() {
                let want = pinned.next().unwrap();
                for (k, op) in ["dense mxv", "sparse mxv", "column reduce"]
                    .iter()
                    .enumerate()
                {
                    assert_eq!(got[k], want[k], "p={p} rank={rank} {op}");
                }
            }
        }
        assert!(pinned.next().is_none());
    }
}
