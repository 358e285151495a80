//! Serial GraphBLAS operations.
//!
//! Naming follows the paper's usage of the C API:
//!
//! * [`mxv_dense`] / [`mxv_sparse`] — `GrB_mxv` on the `(Select2nd, min)`
//!   style semiring over a pattern matrix: the multiply passes the vector
//!   value through, the monoid argument accumulates. The two entry points
//!   mirror the SpMV / SpMSpV dispatch the paper's `GrB_mxv` performs
//!   internally based on input sparsity.
//! * [`extract`] — vector-variant `GrB_extract`: gather `u[indices]`.
//! * [`assign`] — vector-variant `GrB_assign`: scatter into `w[indices]`.
//!   Duplicate target indices are resolved with the supplied monoid (the
//!   PRAM original allows arbitrary CRCW winners; a monoid makes serial
//!   and distributed runs bit-identical).
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
//! [`mxv_sparse_par`] runs [`mxv_sparse`] on `threads` scoped threads
//! (`std::thread::scope`; `threads <= 1` executes inline) with a
//! merge-free owner-partitioned accumulator (see its docs): each thread
//! owns a disjoint slice of the output index space
//! and folds only its own rows, in serial contribution order. It is
//! bit-identical to [`mxv_sparse`] for any associative monoid with a
//! strict identity, which every monoid in [`crate::types`] is.

use super::csc::Pattern;
use super::vector::SparseVec;
use crate::types::{Mask, Monoid};
use crate::Vid;
use lacc_graph::Idx;
use std::panic::resume_unwind;

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

/// Runs `f` on every item, one scoped thread each; the caller's thread
/// takes the first item itself. Results come back in item order, and a
/// panic in any `f` reaches the caller with its own payload once every
/// thread has finished.
fn par_map<X, R, F>(items: Vec<X>, f: F) -> Vec<R>
where
    X: Send,
    R: Send,
    F: Fn(X) -> R + Sync,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = items.map(|x| s.spawn(move || f(x))).collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        out.extend(
            rest.into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e))),
        );
        out
    })
}

/// Parallel SpMSpV with a merge-free **owner-partitioned accumulator**,
/// on `threads` scoped threads (`threads <= 1` runs [`mxv_sparse`]
/// inline). The *output* index space is what gets partitioned, so no
/// thread ever holds a full-height accumulator and nothing is merged:
///
/// 1. **Scan/bin** — threads scan contiguous input chunks and, for every
///    matrix entry the mask admits, push `(row, value)` into the bin of
///    the row's owner (owner = `row / ceil(n/threads)`).
/// 2. **Fold** — each owner folds the bins targeting its disjoint row
///    range into its own accumulator and returns its touched rows,
///    sorted, with their values.
/// 3. **Collect** — owner ranges ascend, so concatenating the owners'
///    entries in owner order is ascending row order.
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
    if threads <= 1 || xe.len() < 2 || n == 0 {
        return mxv_sparse(a, x, mask, monoid);
    }
    let part = n.div_ceil(threads);
    let nparts = n.div_ceil(part);
    let chunk = xe.len().div_ceil(threads);

    // Phase 1: scanners bin admitted contributions by owner.
    let bins: Vec<Vec<Vec<(I, T)>>> = par_map(xe.chunks(chunk).collect(), |xs| {
        let mut owners = vec![Vec::new(); nparts];
        for &(j, xv) in xs {
            for &i in a.col(j.idx()) {
                if mask.allows(i.idx()) {
                    owners[i.idx() / part].push((i, xv));
                }
            }
        }
        owners
    });

    // Phase 2: owners fold into disjoint accumulators — merge-free.
    let owned: Vec<Vec<(I, T)>> = par_map((0..nparts).collect(), |k| {
        let lo = k * part;
        let len = part.min(n - lo);
        let mut acc = vec![monoid.identity(); len];
        let mut is_touched = vec![false; len];
        let mut touched: Vec<I> = Vec::new();
        for scanner in &bins {
            for &(i, xv) in &scanner[k] {
                let li = i.idx() - lo;
                if !is_touched[li] {
                    is_touched[li] = true;
                    touched.push(i);
                }
                acc[li] = monoid.combine(acc[li], xv);
            }
        }
        touched.sort_unstable();
        touched
            .into_iter()
            .map(|i| (i, acc[i.idx() - lo]))
            .collect()
    });

    // Phase 3: owner ranges ascend, so concatenation is globally sorted.
    SparseVec::from_entries(n, owned.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AddUsize, MinUsize};
    use lacc_graph::generators::{path_graph, star_graph};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let sparse_x = SparseVec::from_entries(6, dense_x.iter().copied().enumerate().collect());
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

    /// Pins the documented mask contract with a **non-idempotent** monoid
    /// (`AddUsize`): if either path dropped or double-counted a
    /// contribution depending on when the mask is applied, the sums would
    /// differ.
    #[test]
    fn mask_semantics_identical_across_paths() {
        for g in [path_graph(7), star_graph(7)] {
            let a = Pattern::from_graph(&g);
            let x: Vec<usize> = (0..7).map(|v| v * 3 + 1).collect();
            let xs = SparseVec::from_entries(7, x.iter().copied().enumerate().collect());
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

        // More threads than input entries and output rows.
        let a = Pattern::from_graph(&path_graph(3));
        let xs: SparseVec<usize> = SparseVec::from_entries(3, vec![(0, 4), (1, 9), (2, 2)]);
        let serial = mxv_sparse(&a, &xs, Mask::None, AddUsize);
        assert_eq!(serial, mxv_sparse_par(&a, &xs, Mask::None, AddUsize, 8));

        // A monoid that panics on row 2's fold, which a spawned owner runs
        // (the caller folds owner 0): the worker's own panic reaches the
        // caller.
        #[derive(Clone, Copy)]
        struct PanicsOn99;
        impl Monoid<usize> for PanicsOn99 {
            fn identity(&self) -> usize {
                0
            }
            fn combine(&self, a: usize, b: usize) -> usize {
                assert_ne!(b, 99, "monoid saw 99");
                a + b
            }
        }
        let g: lacc_graph::CsrGraph =
            lacc_graph::CsrGraph::from_edges(lacc_graph::EdgeList::from_pairs(3, [(1, 2)]));
        let a = Pattern::from_graph(&g);
        let xs: SparseVec<usize> = SparseVec::from_entries(3, vec![(0, 1), (1, 99), (2, 2)]);
        let err = catch_unwind(AssertUnwindSafe(|| {
            mxv_sparse_par(&a, &xs, Mask::None, PanicsOn99, 8)
        }))
        .expect_err("the worker's panic must reach the caller");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("monoid saw 99"), "payload: {msg:?}");
    }
}
