//! Serial GraphBLAS operations.
//!
//! Naming follows the paper's usage of the C API:
//!
//! * [`mxv_dense`] / [`mxv_sparse`] — `GrB_mxv` on the `(Select2nd, min)`
//!   style semiring over a pattern matrix: the multiply passes the vector
//!   value through, the monoid argument accumulates. The two entry points
//!   mirror the SpMV / SpMSpV dispatch the paper's `GrB_mxv` performs
//!   internally based on input sparsity.
//! * [`ewise_mult`] — `GrB_eWiseMult` on the intersection of supports.
//! * [`extract`] — vector-variant `GrB_extract`: gather `u[indices]`.
//! * [`assign`] — vector-variant `GrB_assign`: scatter into `w[indices]`.
//!   Duplicate target indices are resolved with the supplied monoid (the
//!   PRAM original allows arbitrary CRCW winners; a monoid makes serial
//!   and distributed runs bit-identical).
//! * [`reduce`], [`apply`], [`select`] — the obvious GraphBLAS siblings.
//!
//! # Mask semantics
//!
//! All `mxv` variants share one mask contract: **the mask restricts the
//! output support only**. An output entry exists at row `i` iff the matrix
//! has at least one stored entry in row `i` with a corresponding input
//! contribution *and* `mask.allows(i)`; its value is the monoid fold of
//! **all** of row `i`'s contributions, never reduced by the mask. The two
//! implementations realize this differently — [`mxv_dense`] accumulates
//! everywhere and filters when collecting the result, while [`mxv_sparse`]
//! skips disallowed rows *during* accumulation as an optimization — but
//! because rows accumulate independently, skipping a disallowed row early
//! changes no allowed row's value, so the observable results are
//! identical. The non-idempotent-monoid test
//! `mask_semantics_identical_across_paths` pins this equivalence down.
//!
//! # Parallel variant
//!
//! [`mxv_sparse_par`] runs [`mxv_sparse`] on a `rayon` worker pool
//! ([`rayon::ThreadPoolBuilder`] keyed by thread count; `threads <= 1`
//! executes inline) with a merge-free owner-partitioned accumulator (see
//! its docs): each worker owns a disjoint slice of the output index space
//! and folds only its own rows, in serial contribution order. It is
//! bit-identical to [`mxv_sparse`] for any associative monoid with a
//! strict identity, which every monoid in [`crate::types`] is.

use super::csc::Pattern;
use super::vector::SparseVec;
use crate::types::{Mask, Monoid};
use crate::Vid;
use lacc_graph::Idx;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// The shared kernel pool for `threads` workers (`<= 1` ⇒ inline).
fn kernel_pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("kernel pool construction cannot fail")
}

/// `y = A ⊕.2nd x` with a dense input vector (SpMV). Returns the sparse
/// result restricted by `mask`.
///
/// ```
/// use gblas::serial::{mxv_dense, Pattern};
/// use gblas::{Mask, MinUsize};
/// use lacc_graph::generators::path_graph;
///
/// // On a path 0-1-2, each vertex takes the min of its neighbors' values.
/// let a = Pattern::from_graph(&path_graph(3));
/// let y = mxv_dense(&a, &[5usize, 0, 9], Mask::None, MinUsize);
/// assert_eq!(y.to_dense(usize::MAX), vec![0, 5, 0]);
/// ```
pub fn mxv_dense<T, M, I>(a: &Pattern<I>, x: &[T], mask: Mask<'_>, monoid: M) -> SparseVec<T, I>
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let n = a.nrows();
    assert_eq!(x.len(), a.ncols(), "vector length mismatch");
    let mut acc = vec![monoid.identity(); n];
    let mut touched = vec![false; n];
    for (j, &xv) in x.iter().enumerate() {
        for &i in a.col(j) {
            acc[i.idx()] = monoid.combine(acc[i.idx()], xv);
            touched[i.idx()] = true;
        }
    }
    let entries = (0..n)
        .filter(|&i| touched[i] && mask.allows(i))
        .map(|i| (I::from_usize(i), acc[i]))
        .collect();
    SparseVec::from_entries(n, entries)
}

/// `y = A ⊕.2nd x` with a sparse input vector (SpMSpV).
pub fn mxv_sparse<T, M, I>(
    a: &Pattern<I>,
    x: &SparseVec<T, I>,
    mask: Mask<'_>,
    monoid: M,
) -> SparseVec<T, I>
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let n = a.nrows();
    assert_eq!(x.len(), a.ncols(), "vector length mismatch");
    let mut acc = vec![monoid.identity(); n];
    let mut touched: Vec<I> = Vec::new();
    let mut is_touched = vec![false; n];
    for &(j, xv) in x.entries() {
        for &i in a.col(j.idx()) {
            if !mask.allows(i.idx()) {
                continue;
            }
            if !is_touched[i.idx()] {
                is_touched[i.idx()] = true;
                touched.push(i);
            }
            acc[i.idx()] = monoid.combine(acc[i.idx()], xv);
        }
    }
    touched.sort_unstable();
    let entries = touched.into_iter().map(|i| (i, acc[i.idx()])).collect();
    SparseVec::from_entries(n, entries)
}

/// Element-wise multiply on the intersection of two sparse supports.
pub fn ewise_mult<T, U, W, F, I>(u: &SparseVec<T, I>, v: &SparseVec<U, I>, f: F) -> SparseVec<W, I>
where
    T: Copy,
    U: Copy,
    W: Copy,
    F: Fn(T, U) -> W,
    I: Idx,
{
    assert_eq!(u.len(), v.len(), "vector length mismatch");
    let (ue, ve) = (u.entries(), v.entries());
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ue.len() && j < ve.len() {
        match ue[i].0.cmp(&ve[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push((ue[i].0, f(ue[i].1, ve[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    SparseVec::from_entries(u.len(), out)
}

/// Element-wise multiply of a sparse vector with a dense one: the result
/// has the sparse operand's support.
pub fn ewise_mult_dense<T, U, W, F, I>(u: &SparseVec<T, I>, dense: &[U], f: F) -> SparseVec<W, I>
where
    T: Copy,
    U: Copy,
    W: Copy,
    F: Fn(T, U) -> W,
    I: Idx,
{
    assert_eq!(u.len(), dense.len(), "vector length mismatch");
    let entries = u
        .entries()
        .iter()
        .map(|&(i, t)| (i, f(t, dense[i.idx()])))
        .collect();
    SparseVec::from_entries(u.len(), entries)
}

/// Gather: `w[k] = src[indices[k]]` (`GrB_extract` with an index list).
pub fn extract<T: Copy>(src: &[T], indices: &[Vid]) -> Vec<T> {
    indices.iter().map(|&i| src[i]).collect()
}

/// Scatter: `w[i] ← v` for each `(i, v)` update, where duplicate target
/// indices within the batch combine through the monoid against each other
/// (not against the old value — the paper's assigns overwrite).
///
/// Returns the number of elements whose value actually changed (LACC's
/// convergence test is "`f` remains unchanged").
pub fn assign<T, M>(w: &mut [T], updates: &[(Vid, T)], monoid: M) -> usize
where
    T: Copy + PartialEq,
    M: Monoid<T>,
{
    // Combine duplicates first so the result is order-independent, then
    // overwrite.
    let mut combined: std::collections::HashMap<Vid, T> = std::collections::HashMap::new();
    for &(i, v) in updates {
        combined
            .entry(i)
            .and_modify(|acc| *acc = monoid.combine(*acc, v))
            .or_insert(v);
    }
    let mut changed = 0;
    for (i, v) in combined {
        if w[i] != v {
            w[i] = v;
            changed += 1;
        }
    }
    changed
}

/// Reduces all stored entries of `u` through the monoid.
pub fn reduce<T, M, I>(u: &SparseVec<T, I>, monoid: M) -> T
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    u.entries()
        .iter()
        .fold(monoid.identity(), |acc, &(_, v)| monoid.combine(acc, v))
}

/// Maps a function over stored values (`GrB_apply`).
pub fn apply<T, W, F, I>(u: &SparseVec<T, I>, f: F) -> SparseVec<W, I>
where
    T: Copy,
    W: Copy,
    F: Fn(T) -> W,
    I: Idx,
{
    let entries = u.entries().iter().map(|&(i, v)| (i, f(v))).collect();
    SparseVec::from_entries(u.len(), entries)
}

/// Keeps entries satisfying the predicate (`GrB_select`).
pub fn select<T, F, I>(u: &SparseVec<T, I>, pred: F) -> SparseVec<T, I>
where
    T: Copy,
    F: Fn(Vid, T) -> bool,
    I: Idx,
{
    let entries = u
        .entries()
        .iter()
        .copied()
        .filter(|&(i, v)| pred(i.idx(), v))
        .collect();
    SparseVec::from_entries(u.len(), entries)
}

/// Parallel SpMSpV with a merge-free **owner-partitioned accumulator**.
///
/// The old scheme chunked the input entries and gave every worker a
/// full-height accumulator (`threads × n` identity writes), then folded
/// the partials together serially — a merge pass that streamed all
/// `threads` accumulators through one core and left the kernel
/// bandwidth-bound below 1× speedup. Here the *output* index space is
/// what gets partitioned:
///
/// 1. **Scan/bin** — workers scan contiguous input chunks and, for every
///    matrix entry the mask admits, push `(row, value)` into the bin of
///    the row's owner (owner = `row / ceil(n/threads)`).
/// 2. **Fold** — each owner folds the bins targeting its disjoint
///    accumulator slice. No other thread writes those rows, so there is
///    no cross-thread merge and no second pass over `threads × n` words.
/// 3. **Collect** — owners' sorted touched lists concatenate in owner
///    order, which is ascending row order.
///
/// Bit-identity with [`mxv_sparse`]: scanners process contiguous input
/// ranges and owners drain scanner bins in scanner order, so each row
/// folds the same contributions in exactly the serial input order; the
/// mask is applied at the same point (during the scan); the output is
/// sorted the same way. Holds for any associative monoid.
pub fn mxv_sparse_par<T, M, I>(
    a: &Pattern<I>,
    x: &SparseVec<T, I>,
    mask: Mask<'_>,
    monoid: M,
    threads: usize,
) -> SparseVec<T, I>
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
    I: Idx,
{
    let n = a.nrows();
    assert_eq!(x.len(), a.ncols(), "vector length mismatch");
    let xe = x.entries();
    let pool = kernel_pool(threads);
    let nt = pool.current_num_threads();
    if nt <= 1 || xe.len() < 2 || n == 0 {
        return mxv_sparse(a, x, mask, monoid);
    }
    let part = n.div_ceil(nt).max(1);
    let nparts = n.div_ceil(part);
    let chunk = xe.len().div_ceil(nt).max(1);

    // Phase 1: scanners bin admitted contributions by owner.
    let mut bins: Vec<Vec<Vec<(I, T)>>> = Vec::new();
    bins.resize_with(xe.chunks(chunk).len(), || {
        let mut owners = Vec::new();
        owners.resize_with(nparts, Vec::new);
        owners
    });
    pool.scope(|s| {
        for (slot, xs) in bins.iter_mut().zip(xe.chunks(chunk)) {
            s.spawn(move || {
                for &(j, xv) in xs {
                    for &i in a.col(j.idx()) {
                        if !mask.allows(i.idx()) {
                            continue;
                        }
                        slot[i.idx() / part].push((i, xv));
                    }
                }
            });
        }
    });

    // Phase 2: owners fold into disjoint accumulator slices — merge-free.
    let mut acc: Vec<T> = vec![monoid.identity(); n];
    let mut is_touched: Vec<bool> = vec![false; n];
    let mut owner_touched: Vec<Vec<I>> = Vec::new();
    owner_touched.resize_with(nparts, Vec::new);
    let bins = &bins;
    pool.scope(|s| {
        for (k, ((acc_k, ist_k), touched_k)) in acc
            .chunks_mut(part)
            .zip(is_touched.chunks_mut(part))
            .zip(owner_touched.iter_mut())
            .enumerate()
        {
            s.spawn(move || {
                let lo = k * part;
                for scanner in bins {
                    for &(i, xv) in &scanner[k] {
                        let li = i.idx() - lo;
                        if !ist_k[li] {
                            ist_k[li] = true;
                            touched_k.push(i);
                        }
                        acc_k[li] = monoid.combine(acc_k[li], xv);
                    }
                }
                touched_k.sort_unstable();
            });
        }
    });

    // Phase 3: owner ranges ascend, so concatenation is globally sorted.
    let total: usize = owner_touched.iter().map(Vec::len).sum();
    let mut entries = Vec::with_capacity(total);
    for touched_k in &owner_touched {
        entries.extend(touched_k.iter().map(|&i| (i, acc[i.idx()])));
    }
    SparseVec::from_entries(n, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AddUsize, MinUsize};
    use lacc_graph::generators::{path_graph, star_graph};

    #[test]
    fn mxv_dense_min_neighbor() {
        // Path 0-1-2-3; x = [10, 0, 30, 20].
        let a = Pattern::from_graph(&path_graph(4));
        let x = vec![10usize, 0, 30, 20];
        let y = mxv_dense(&a, &x, Mask::None, MinUsize);
        // y[i] = min of neighbors' x.
        assert_eq!(y.to_dense(usize::MAX), vec![0, 10, 0, 30]);
    }

    #[test]
    fn mxv_dense_masked() {
        let a = Pattern::from_graph(&path_graph(4));
        let x = vec![10usize, 0, 30, 20];
        let mask = [true, false, true, false];
        let y = mxv_dense(&a, &x, Mask::Keep(&mask), MinUsize);
        assert_eq!(y.entries(), &[(0, 0), (2, 0)]);
        let yc = mxv_dense(&a, &x, Mask::Complement(&mask), MinUsize);
        assert_eq!(yc.entries(), &[(1, 10), (3, 30)]);
    }

    #[test]
    fn mxv_sparse_matches_dense() {
        let a = Pattern::from_graph(&star_graph(6));
        let dense_x = vec![9usize, 4, 2, 7, 5, 1];
        let sparse_x = SparseVec::dense(&dense_x);
        let yd = mxv_dense(&a, &dense_x, Mask::None, MinUsize);
        let ys = mxv_sparse(&a, &sparse_x, Mask::None, MinUsize);
        assert_eq!(yd, ys);
    }

    #[test]
    fn mxv_sparse_restricted_support() {
        let a = Pattern::from_graph(&path_graph(5));
        // Only vertex 2 active.
        let x = SparseVec::from_entries(5, vec![(2, 42usize)]);
        let y = mxv_sparse(&a, &x, Mask::None, MinUsize);
        assert_eq!(y.entries(), &[(1, 42), (3, 42)]);
    }

    #[test]
    fn mxv_isolated_vertex_gets_no_entry() {
        let el = lacc_graph::EdgeList::from_pairs(3, [(0, 1)]);
        let g: lacc_graph::CsrGraph = lacc_graph::CsrGraph::from_edges(el);
        let a = Pattern::from_graph(&g);
        let y = mxv_dense(&a, &[5usize, 6, 7], Mask::None, MinUsize);
        assert_eq!(y.get(2), None);
        assert_eq!(y.nvals(), 2);
    }

    #[test]
    fn ewise_mult_intersection() {
        let u: SparseVec<usize> = SparseVec::from_entries(6, vec![(0, 2), (2, 3), (5, 4)]);
        let v: SparseVec<usize> = SparseVec::from_entries(6, vec![(2, 10), (4, 20), (5, 30)]);
        let w = ewise_mult(&u, &v, |a, b| a + b);
        assert_eq!(w.entries(), &[(2, 13), (5, 34)]);
    }

    #[test]
    fn ewise_mult_dense_keeps_sparse_support() {
        let u: SparseVec<usize> = SparseVec::from_entries(4, vec![(1, 100), (3, 200)]);
        let d = vec![1usize, 2, 3, 4];
        // "second" operator: take the dense value (Algorithm 3's f_h).
        let w = ewise_mult_dense(&u, &d, |_, b| b);
        assert_eq!(w.entries(), &[(1, 2), (3, 4)]);
        // "min" operator (Algorithm 3 line 5).
        let m = ewise_mult_dense(&u, &d, |a, b| a.min(b));
        assert_eq!(m.entries(), &[(1, 2), (3, 4)]);
    }

    #[test]
    fn extract_and_assign_roundtrip() {
        let src = vec![10usize, 11, 12, 13];
        assert_eq!(extract(&src, &[3, 0, 0]), vec![13, 10, 10]);
        let mut w = vec![0usize; 4];
        assign(&mut w, &[(1, 5), (3, 6)], MinUsize);
        assert_eq!(w, vec![0, 5, 0, 6]);
    }

    #[test]
    fn assign_duplicates_resolved_by_monoid() {
        let mut w = vec![100usize; 3];
        assign(&mut w, &[(1, 7), (1, 3), (1, 9)], MinUsize);
        assert_eq!(w[1], 3);
        // Overwrite semantics: old value does not participate.
        let mut w2 = vec![0usize; 3];
        assign(&mut w2, &[(2, 9)], MinUsize);
        assert_eq!(w2[2], 9);
    }

    #[test]
    fn reduce_apply_select() {
        let u: SparseVec<usize> = SparseVec::from_entries(10, vec![(1, 5), (4, 2), (9, 8)]);
        assert_eq!(reduce(&u, MinUsize), 2);
        assert_eq!(reduce(&u, AddUsize), 15);
        let doubled = apply(&u, |v| v * 2);
        assert_eq!(doubled.get(4), Some(4));
        let big = select(&u, |_, v| v >= 5);
        assert_eq!(big.nvals(), 2);
    }

    #[test]
    fn reduce_empty_is_identity() {
        let u: SparseVec<usize> = SparseVec::empty(5);
        assert_eq!(reduce(&u, MinUsize), usize::MAX);
    }

    /// Pins the documented mask contract with a **non-idempotent** monoid
    /// (`AddUsize`): if either path dropped or double-counted a
    /// contribution depending on when the mask is applied, the sums would
    /// differ.
    #[test]
    fn mask_semantics_identical_across_paths() {
        for g in [path_graph(7), star_graph(7)] {
            let a = Pattern::from_graph(&g);
            let x: Vec<usize> = (0..7).map(|v| v * 3 + 1).collect();
            let xs = SparseVec::dense(&x);
            let flags = [true, false, true, true, false, false, true];
            for mask in [Mask::None, Mask::Keep(&flags), Mask::Complement(&flags)] {
                let yd = mxv_dense(&a, &x, mask, AddUsize);
                let ys = mxv_sparse(&a, &xs, mask, AddUsize);
                assert_eq!(yd, ys, "dense vs sparse mask semantics diverge");
                for t in [1, 2, 4] {
                    assert_eq!(ys, mxv_sparse_par(&a, &xs, mask, AddUsize, t));
                }
            }
        }
    }

    #[test]
    fn parallel_mxv_matches_serial_bitwise() {
        for g in [path_graph(33), star_graph(17)] {
            let a = Pattern::from_graph(&g);
            let n = a.nrows();
            let x: Vec<usize> = (0..n).map(|v| (v * 7 + 3) % 11).collect();
            let flags: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
            // Sparse input with partial support exercises SpMSpV chunking.
            let xs = SparseVec::from_entries(
                n,
                (0..n).filter(|v| v % 2 == 0).map(|v| (v, x[v])).collect(),
            );
            for mask in [Mask::None, Mask::Keep(&flags), Mask::Complement(&flags)] {
                let ys = mxv_sparse(&a, &xs, mask, AddUsize);
                for t in [1, 2, 4] {
                    assert_eq!(
                        ys,
                        mxv_sparse_par(&a, &xs, mask, AddUsize, t),
                        "threads={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn owner_partitioned_sparse_par_identical_at_u32() {
        // The merge-free accumulator must stay bit-identical to serial at
        // the narrow index width too.
        let g = path_graph(33).try_narrow::<u32>().unwrap();
        let a = Pattern::from_graph(&g);
        let n = a.nrows();
        let xs: SparseVec<u32, u32> = SparseVec::from_entries(
            n,
            (0..n as u32)
                .filter(|v| v % 2 == 0)
                .map(|v| (v, (v * 7 + 3) % 11))
                .collect(),
        );
        let flags: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
        for mask in [Mask::None, Mask::Keep(&flags), Mask::Complement(&flags)] {
            let serial = mxv_sparse(&a, &xs, mask, MinUsize);
            for t in [1, 2, 4] {
                assert_eq!(serial, mxv_sparse_par(&a, &xs, mask, MinUsize, t), "t={t}");
            }
        }
    }

    #[test]
    fn parallel_kernels_handle_empty_inputs() {
        let g: lacc_graph::CsrGraph =
            lacc_graph::CsrGraph::from_edges(lacc_graph::EdgeList::new(4));
        let a = Pattern::from_graph(&g);
        let xs: SparseVec<usize> = SparseVec::empty(4);
        assert_eq!(mxv_sparse_par(&a, &xs, Mask::None, MinUsize, 4).nvals(), 0);
    }
}
