//! Direct (non-algebraic) Awerbuch–Shiloach reference.
//!
//! Algorithm 1 of the paper, executed with honest PRAM two-phase semantics:
//! every parallel step first gathers all its reads, then applies all its
//! writes, with concurrent writes to one location resolved by `min` (a
//! deterministic refinement of the CRCW arbitrary-winner rule). This is
//! the oracle the linear-algebraic implementations are tested against —
//! and it is itself tested against union-find.
//!
//! One correction to the paper's Algorithm 2 as literally printed: the
//! final star propagation (`star[v] ← star[f[v]]`) must not *resurrect* a
//! vertex already excluded — a level-3 vertex reads its level-2 parent,
//! which is still marked `true` at that point. We apply the propagation as
//! `star[v] ← star[v] ∧ star[f[v]]`, which is what the CombBLAS/LAGraph
//! implementations' masked assigns compute.

use crate::Vid;
use lacc_graph::CsrGraph;

/// Recomputes star membership for the forest `f` (Algorithm 2, with the
/// conjunction fix described in the module docs).
pub fn starcheck(f: &[Vid], star: &mut [bool]) {
    let n = f.len();
    for s in star.iter_mut() {
        *s = true;
    }
    // Exclude every vertex with level > 2 and its grandparent.
    for v in 0..n {
        let gf = f[f[v]];
        if f[v] != gf {
            star[v] = false;
            star[gf] = false;
        }
    }
    // In nonstar trees, exclude vertices at level 2 (conjunction with the
    // parent's flag, two-phase).
    let snapshot = star.to_vec();
    for v in 0..n {
        star[v] = star[v] && snapshot[f[v]];
    }
}

/// Applies a batch of `(target, value)` parent updates with `min`
/// resolution of concurrent writes. Returns how many parents changed.
fn apply_hooks(f: &mut [Vid], hooks: &[(Vid, Vid)]) -> usize {
    // Combine duplicates by min, then overwrite.
    let mut combined: std::collections::HashMap<Vid, Vid> = std::collections::HashMap::new();
    for &(t, v) in hooks {
        combined
            .entry(t)
            .and_modify(|x| *x = (*x).min(v))
            .or_insert(v);
    }
    let mut changed = 0;
    for (t, v) in combined {
        if f[t] != v {
            f[t] = v;
            changed += 1;
        }
    }
    changed
}

/// Runs the Awerbuch–Shiloach algorithm; returns the parent vector (every
/// vertex points at its component's root).
///
/// # Panics
/// If convergence takes more than `4·log₂ n + 16` iterations (a bug —
/// AS converges in `O(log n)`).
pub fn awerbuch_shiloach(g: &CsrGraph) -> Vec<Vid> {
    let n = g.num_vertices();
    let mut f: Vec<Vid> = (0..n).collect();
    let mut star = vec![true; n];
    let max_iters = 4 * (usize::BITS - n.leading_zeros()) as usize + 16;
    for _iter in 0..max_iters {
        let mut changed = 0;

        // Step 1: conditional star hooking.
        let mut hooks: Vec<(Vid, Vid)> = Vec::new();
        for (u, v) in g.edges() {
            if star[u] && f[u] > f[v] {
                hooks.push((f[u], f[v]));
            }
        }
        changed += apply_hooks(&mut f, &hooks);
        starcheck(&f, &mut star);

        // Step 2: unconditional star hooking.
        hooks.clear();
        for (u, v) in g.edges() {
            if star[u] && f[u] != f[v] {
                hooks.push((f[u], f[v]));
            }
        }
        changed += apply_hooks(&mut f, &hooks);
        starcheck(&f, &mut star);

        // Step 3: shortcutting (two-phase: read all grandparents, then
        // write).
        let gf: Vec<Vid> = (0..n).map(|v| f[f[v]]).collect();
        for v in 0..n {
            if !star[v] && f[v] != gf[v] {
                f[v] = gf[v];
                changed += 1;
            }
        }
        starcheck(&f, &mut star);

        if changed == 0 {
            debug_assert!(
                (0..n).all(|v| f[f[v]] == f[v]),
                "converged forest must be flat"
            );
            return f;
        }
    }
    panic!("Awerbuch-Shiloach did not converge within {max_iters} iterations");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_baselines::union_find_cc;
    use lacc_graph::generators::*;
    use lacc_graph::unionfind::canonicalize_labels;

    fn check(g: &CsrGraph) {
        let f = awerbuch_shiloach(g);
        assert_eq!(canonicalize_labels(&f), union_find_cc(g));
    }

    #[test]
    fn basic_families() {
        check(&path_graph(1));
        check(&path_graph(2));
        check(&path_graph(100));
        check(&cycle_graph(101));
        check(&star_graph(50));
        check(&complete_graph(20));
        check(&random_forest(500, 13, 7));
    }

    #[test]
    fn random_graphs() {
        for seed in 0..5 {
            check(&erdos_renyi_gnm(200, 150, seed)); // sparse, many comps
            check(&erdos_renyi_gnm(200, 800, seed)); // denser
        }
    }

    #[test]
    fn rmat_and_communities() {
        check(&rmat(8, 4, RmatParams::graph500(), 3));
        check(&community_graph(1000, 40, 3.0, 1.5, 5));
        check(&metagenome_graph(2000, 6, 0.01, 9));
    }

    #[test]
    fn empty_and_isolated() {
        check(&CsrGraph::from_edges(lacc_graph::EdgeList::new(0)));
        check(&CsrGraph::from_edges(lacc_graph::EdgeList::new(10)));
    }

    #[test]
    fn starcheck_identifies_stars_exactly() {
        // Forest: 0←1,0←2 (star); 3←4←5 is a chain (nonstar): f[5]=4,f[4]=3.
        let f = vec![0, 0, 0, 3, 3, 4];
        let mut star = vec![false; 6];
        starcheck(&f, &mut star);
        assert_eq!(star, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn starcheck_does_not_resurrect_level3() {
        // Height-3 tree: root 0 ← 1 ← 2. The literal Algorithm 2 would
        // re-mark vertex 2 as a star via its (still-true) parent 1.
        let f = vec![0, 0, 1];
        let mut star = vec![true; 3];
        starcheck(&f, &mut star);
        assert_eq!(star, vec![false, false, false]);
    }

    #[test]
    fn starcheck_singletons_are_stars() {
        let f = vec![0, 1, 2];
        let mut star = vec![false; 3];
        starcheck(&f, &mut star);
        assert!(star.iter().all(|&s| s));
    }

    #[test]
    fn converges_in_logarithmic_iterations() {
        // A path is the adversarial case for pointer jumping; the panic
        // guard inside awerbuch_shiloach enforces the O(log n) bound.
        check(&path_graph(4096));
    }
}
