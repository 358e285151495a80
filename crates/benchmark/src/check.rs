//! Failure accounting: every result the benchmark produces is checked
//! against an oracle and counted, pass or fail, against the attempts.
//!
//! Failures are counted, never panicked on, so one bad repetition cannot
//! hide the others; the process exits non-zero when any check failed.

use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::{CsrGraph, DisjointSets, Vid};
use std::fmt::Display;

/// Canonical component labels of `g` from union-find — the oracle every
/// `lacc::run` result is compared with.
pub fn oracle_labels(g: &CsrGraph) -> Vec<Vid> {
    let mut ds = DisjointSets::new(g.num_vertices());
    for (u, v) in g.edges() {
        if u < v {
            ds.union(u, v);
        }
    }
    ds.canonical_labels()
}

/// Attempt and failure counters for one workload invocation.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// A checker with nothing attempted.
    pub fn new() -> Self {
        Checker::default()
    }

    /// Records one attempt whose verdict the caller already has (`what`
    /// is only formatted when it failed).
    pub fn expect(&mut self, what: impl Display, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# FAILED: {what}");
        }
        ok
    }

    /// Records one attempt at producing component labels: an `Err` fails,
    /// and so do labels that are not the oracle's partition (both sides
    /// are compared in canonical form, so root choice does not matter).
    pub fn labels<E: Display>(
        &mut self,
        what: &str,
        got: Result<&[Vid], E>,
        oracle: &[Vid],
    ) -> bool {
        match got {
            Err(e) => self.expect(format_args!("{what}: {e}"), false),
            Ok(labels) => {
                let ok = labels.len() == oracle.len()
                    && labels.iter().all(|&l| l < labels.len())
                    && canonicalize_labels(labels) == oracle;
                self.expect(
                    format_args!("{what}: labels differ from the union-find oracle"),
                    ok,
                )
            }
        }
    }

    /// Results checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Results that errored or mismatched their oracle.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The process exit code this accounting demands: non-zero as soon as
    /// one check failed, or when nothing was checked at all.
    pub fn exit_code(&self) -> i32 {
        if self.failed > 0 || self.attempted == 0 {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_graph::generators::path_graph;

    /// The oracle must not be a no-op: a wrong label vector and a forced
    /// `Err` are both counted against the attempts, and either one turns
    /// the exit code non-zero.
    #[test]
    fn wrong_labels_and_errors_are_counted_and_fail_the_process() {
        let g = path_graph(6);
        let oracle = oracle_labels(&g);
        assert_eq!(oracle, vec![0; 6]);

        let mut c = Checker::new();
        assert_eq!(c.exit_code(), 1, "nothing checked is not a pass");

        // A correct answer under a different root choice passes.
        assert!(c.labels(
            "roots differ",
            Ok::<_, String>(&[3, 3, 3, 3, 3, 3][..]),
            &oracle
        ));
        assert_eq!((c.attempted(), c.failed(), c.exit_code()), (1, 0, 0));

        // Deliberately wrong: vertex 5 split off into its own component.
        assert!(!c.labels("split", Ok::<_, String>(&[0, 0, 0, 0, 0, 5][..]), &oracle));
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        assert_ne!(c.exit_code(), 0);

        // A forced Err counts as a failed attempt too.
        assert!(!c.labels("errored", Err("rank 2 panicked"), &oracle));
        assert_eq!((c.attempted(), c.failed()), (3, 2));
        assert!((c.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_ne!(c.exit_code(), 0);

        // Out-of-range labels and wrong lengths are mismatches, not panics.
        assert!(!c.labels("range", Ok::<_, String>(&[9, 9, 9, 9, 9, 9][..]), &oracle));
        assert!(!c.labels("short", Ok::<_, String>(&[0, 0][..]), &oracle));
        assert_eq!((c.attempted(), c.failed()), (5, 4));
    }
}
