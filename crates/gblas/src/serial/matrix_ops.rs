//! Matrix-level operations on [`Csc`]: value maps, column reductions, and
//! column normalization (the Markov-clustering helpers).

use super::csc::Csc;
use crate::types::Monoid;
use crate::Vid;

/// Maps a function over stored values (`GrB_apply` on matrices).
pub fn map_values<T, W, F>(m: &Csc<T>, f: F) -> Csc<W>
where
    T: Copy,
    W: Copy,
    F: Fn(T) -> W,
{
    let triples = m.triples().map(|(i, j, v)| (i, j, f(v))).collect();
    Csc::from_triples(m.nrows(), m.ncols(), triples)
}

/// Reduces each column through a monoid (`GrB_reduce` along rows);
/// empty columns yield the identity.
pub fn column_reduce<T, M>(m: &Csc<T>, monoid: M) -> Vec<T>
where
    T: Copy,
    M: Monoid<T>,
{
    let mut out = vec![monoid.identity(); m.ncols()];
    for (_, j, v) in m.triples() {
        out[j] = monoid.combine(out[j], v);
    }
    out
}

/// Rescales every column of a nonnegative matrix to sum to 1 (columns
/// summing to zero are left untouched). The MCL normalization step.
pub fn normalize_columns(m: &Csc<f64>) -> Csc<f64> {
    let sums = column_reduce(m, crate::types::AddF64);
    let triples = m
        .triples()
        .map(|(i, j, v)| (i, j, if sums[j] > 0.0 { v / sums[j] } else { v }))
        .collect();
    Csc::from_triples(m.nrows(), m.ncols(), triples)
}

/// Structural equality up to a tolerance on values; missing entries count
/// as zero. Used as the MCL convergence test.
pub fn max_abs_diff(a: &Csc<f64>, b: &Csc<f64>) -> f64 {
    use std::collections::HashMap;
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "shape mismatch"
    );
    let mut map: HashMap<(Vid, Vid), f64> = a.triples().map(|(i, j, v)| ((i, j), v)).collect();
    let mut d = 0.0f64;
    for (i, j, v) in b.triples() {
        let av = map.remove(&(i, j)).unwrap_or(0.0);
        d = d.max((av - v).abs());
    }
    for (_, av) in map {
        d = d.max(av.abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AddF64, MaxUsize};

    fn sample() -> Csc<f64> {
        Csc::from_triples(3, 2, vec![(0, 0, 1.0), (2, 0, 3.0), (1, 1, 2.0)])
    }

    #[test]
    fn map_values_changes_type() {
        let m = sample();
        let ints: Csc<usize> = map_values(&m, |v| v as usize);
        assert_eq!(ints.nnz(), 3);
        assert_eq!(column_reduce(&ints, MaxUsize), vec![3, 2]);
    }

    #[test]
    fn column_reduce_sums() {
        assert_eq!(column_reduce(&sample(), AddF64), vec![4.0, 2.0]);
        // Empty columns give the identity.
        let empty: Csc<f64> = Csc::from_triples(2, 3, vec![(0, 1, 5.0)]);
        assert_eq!(column_reduce(&empty, AddF64), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn normalize_columns_is_stochastic() {
        let n = normalize_columns(&sample());
        let sums = column_reduce(&n, AddF64);
        for s in sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Normalization is idempotent.
        assert!(max_abs_diff(&n, &normalize_columns(&n)) < 1e-12);
    }

    #[test]
    fn max_abs_diff_sees_missing_entries() {
        let a = sample();
        let b = Csc::from_triples(3, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        // (2,0,3.0) missing from b.
        assert!((max_abs_diff(&a, &b) - 3.0).abs() < 1e-12);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }
}
