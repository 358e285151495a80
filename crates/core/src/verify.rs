//! Label verification: the checks a downstream consumer should run on any
//! connected-components output, plus the brute-force [`CcOracle`] those
//! checks (and the serving layer's tests) compare against.

use crate::Vid;
use lacc_graph::CsrGraph;
use std::collections::VecDeque;

/// Brute-force connected-components oracle: one BFS sweep over an
/// explicit edge multiset, answering the same queries as the serving
/// layer (`find` / `same_component` / `component_size`) from first
/// principles.
///
/// Labels are canonical (every vertex carries the minimum vertex id of
/// its component), so two oracles — or an oracle and a canonicalized
/// algorithm output — compare with `==`. Both the serving proptests and
/// [`verify_labels`]' merged-component check are built on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcOracle {
    labels: Vec<Vid>,
    sizes: Vec<usize>,
    components: usize,
}

impl CcOracle {
    /// Builds the oracle by BFS over `edges` on the vertex set `0..n`.
    /// Self loops and duplicate edges are tolerated (it is a multiset).
    ///
    /// # Panics
    /// If an endpoint is not in `0..n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (Vid, Vid)>) -> Self {
        let mut adj: Vec<Vec<Vid>> = vec![Vec::new(); n];
        for (u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            if u != v {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        let mut labels: Vec<Vid> = vec![usize::MAX; n];
        let mut queue: VecDeque<Vid> = VecDeque::new();
        let mut sizes = vec![0usize; n];
        let mut components = 0;
        // Sources are scanned in ascending id order, so each BFS labels
        // its component with the component's minimum vertex id.
        for s in 0..n {
            if labels[s] != usize::MAX {
                continue;
            }
            components += 1;
            labels[s] = s;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                sizes[s] += 1;
                for &w in &adj[u] {
                    if labels[w] == usize::MAX {
                        labels[w] = s;
                        queue.push_back(w);
                    }
                }
            }
        }
        CcOracle {
            labels,
            sizes,
            components,
        }
    }

    /// Builds the oracle from a graph's edge set.
    pub fn from_graph(g: &CsrGraph) -> Self {
        Self::from_edges(g.num_vertices(), g.edges())
    }

    /// The canonical component id (minimum member vertex id) of `u`.
    pub fn find(&self, u: Vid) -> Vid {
        self.labels[u]
    }

    /// Whether `u` and `v` are connected.
    pub fn same_component(&self, u: Vid, v: Vid) -> bool {
        self.labels[u] == self.labels[v]
    }

    /// Number of vertices in `u`'s component.
    pub fn component_size(&self, u: Vid) -> usize {
        self.sizes[self.labels[u]]
    }

    /// The full canonical label vector.
    pub fn labels(&self) -> &[Vid] {
        &self.labels
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// Errors a labeling can exhibit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabelError {
    /// Label vector length differs from the vertex count.
    WrongLength {
        /// Expected number of labels.
        expected: usize,
        /// Number of labels supplied.
        got: usize,
    },
    /// A label is not a valid vertex id.
    OutOfRange {
        /// Vertex carrying the bad label.
        vertex: Vid,
        /// The bad label.
        label: Vid,
    },
    /// The two endpoints of an edge carry different labels (a component
    /// was split).
    EdgeSplit {
        /// Edge endpoint u.
        u: Vid,
        /// Edge endpoint v.
        v: Vid,
    },
    /// Two vertices share a label without being connected (components were
    /// merged). Reports the representative vertices of the two sets.
    Merged {
        /// A vertex of the first true component.
        a: Vid,
        /// A vertex of the second true component sharing `a`'s label.
        b: Vid,
    },
}

impl std::fmt::Display for LabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelError::WrongLength { expected, got } => {
                write!(
                    f,
                    "label vector has {got} entries, graph has {expected} vertices"
                )
            }
            LabelError::OutOfRange { vertex, label } => {
                write!(f, "vertex {vertex} carries out-of-range label {label}")
            }
            LabelError::EdgeSplit { u, v } => {
                write!(f, "edge ({u},{v}) spans two labels: component split")
            }
            LabelError::Merged { a, b } => {
                write!(
                    f,
                    "vertices {a} and {b} share a label but are not connected"
                )
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Verifies that `labels` is exactly the connected-component partition of
/// `g`: every edge is label-monochromatic and no two true components share
/// a label.
pub fn verify_labels(g: &CsrGraph, labels: &[Vid]) -> Result<(), LabelError> {
    let n = g.num_vertices();
    if labels.len() != n {
        return Err(LabelError::WrongLength {
            expected: n,
            got: labels.len(),
        });
    }
    for (v, &l) in labels.iter().enumerate() {
        if l >= n {
            return Err(LabelError::OutOfRange {
                vertex: v,
                label: l,
            });
        }
    }
    // No split components: edges are monochromatic.
    for (u, v) in g.edges() {
        if labels[u] != labels[v] {
            return Err(LabelError::EdgeSplit { u, v });
        }
    }
    // No merged components: within each label class, the true component of
    // its first member must cover the whole class. Truth comes from the
    // same BFS oracle the serving tests use.
    let truth = CcOracle::from_graph(g);
    let mut rep_of_label: Vec<Option<Vid>> = vec![None; n];
    for v in 0..n {
        match rep_of_label[labels[v]] {
            None => rep_of_label[labels[v]] = Some(v),
            Some(rep) => {
                if !truth.same_component(rep, v) {
                    return Err(LabelError::Merged { a: rep, b: v });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lacc_serial, LaccOpts};
    use lacc_baselines::union_find_cc;
    use lacc_graph::generators::{community_graph, path_graph};

    #[test]
    fn accepts_correct_labelings() {
        let g = community_graph(600, 30, 3.0, 1.4, 3);
        let run = lacc_serial(&g, &LaccOpts::default());
        assert_eq!(verify_labels(&g, &run.labels), Ok(()));
        assert_eq!(verify_labels(&g, &union_find_cc(&g)), Ok(()));
    }

    #[test]
    fn rejects_wrong_length_and_range() {
        let g = path_graph(5);
        assert!(matches!(
            verify_labels(&g, &[0, 0, 0]),
            Err(LabelError::WrongLength {
                expected: 5,
                got: 3
            })
        ));
        assert!(matches!(
            verify_labels(&g, &[0, 0, 0, 0, 9]),
            Err(LabelError::OutOfRange {
                vertex: 4,
                label: 9
            })
        ));
    }

    #[test]
    fn rejects_split_components() {
        let g = path_graph(4);
        // Splits the path in the middle.
        let err = verify_labels(&g, &[0, 0, 2, 2]).unwrap_err();
        assert!(matches!(err, LabelError::EdgeSplit { .. }));
    }

    #[test]
    fn oracle_matches_ground_truth_labels() {
        let g = community_graph(400, 20, 3.0, 1.4, 11);
        let oracle = CcOracle::from_graph(&g);
        assert_eq!(oracle.labels(), &union_find_cc(&g)[..]);
        assert_eq!(
            oracle.num_components(),
            lacc_graph::unionfind::count_components(oracle.labels())
        );
    }

    #[test]
    fn oracle_answers_queries_on_multiset() {
        // Duplicates and self loops must not perturb the answers.
        let oracle = CcOracle::from_edges(6, [(0, 1), (1, 0), (3, 3), (1, 2), (4, 5), (1, 2)]);
        assert_eq!(oracle.find(2), 0);
        assert_eq!(oracle.find(3), 3);
        assert!(oracle.same_component(0, 2));
        assert!(!oracle.same_component(0, 4));
        assert_eq!(oracle.component_size(1), 3);
        assert_eq!(oracle.component_size(3), 1);
        assert_eq!(oracle.component_size(5), 2);
        assert_eq!(oracle.num_components(), 3);
    }

    #[test]
    fn rejects_merged_components() {
        // Two disjoint edges labeled identically.
        let g =
            lacc_graph::CsrGraph::from_edges(lacc_graph::EdgeList::from_pairs(4, [(0, 1), (2, 3)]));
        let err = verify_labels(&g, &[0, 0, 0, 0]).unwrap_err();
        assert!(matches!(err, LabelError::Merged { .. }));
    }
}
