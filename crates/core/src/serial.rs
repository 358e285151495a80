//! Serial LACC on the serial GraphBLAS layer (Algorithms 3–6).
//!
//! This is the paper's LAGraph/SuiteSparse role: identical algorithm and
//! identical update-resolution rules as the distributed implementation in
//! [`crate::dist`], so the two produce bit-identical parent vectors.
//! Sparsity exploitation (Table I) is driven by [`LaccOpts::use_sparsity`].

use crate::engine::driver::log_round_bound;
use crate::options::LaccOpts;
use crate::stats::{IterStats, LaccRun, UncondHook};
use crate::Vid;
use gblas::serial::{self, Pattern, SparseVec};
use gblas::{Mask, MinUsize};
use lacc_graph::CsrGraph;
use std::time::Instant;

/// Star recomputation over the active subset (Algorithm 2 / 6, with the
/// conjunction propagation described in [`crate::asref`]).
fn starcheck_active(f: &[Vid], star: &mut [bool], active: &[bool]) {
    let n = f.len();
    for v in 0..n {
        if active[v] {
            star[v] = true;
        }
    }
    for v in 0..n {
        if !active[v] {
            continue;
        }
        let gf = f[f[v]];
        if f[v] != gf {
            star[v] = false;
            star[gf] = false;
        }
    }
    let snapshot = star.to_vec();
    for v in 0..n {
        if active[v] {
            star[v] = star[v] && snapshot[f[v]];
        }
    }
}

/// Shortcuts every vertex of `targets` at once, `f[v] ← f[f[v]]` read
/// before any write, and returns the parents it changed.
fn shortcut(f: &mut [Vid], targets: &[Vid]) -> usize {
    let parent_ids: Vec<Vid> = targets.iter().map(|&v| f[v]).collect();
    let gfs = serial::extract(f, &parent_ids);
    let mut changed = 0;
    for (&v, &gf) in targets.iter().zip(&gfs) {
        if f[v] != gf {
            f[v] = gf;
            changed += 1;
        }
    }
    changed
}

/// Runs serial LACC and returns labels plus per-iteration statistics.
///
/// ```
/// use lacc::{lacc_serial, LaccOpts};
/// use lacc_graph::generators::random_forest;
///
/// let g = random_forest(500, 12, 7); // exactly 12 trees
/// let run = lacc_serial(&g, &LaccOpts::default());
/// assert_eq!(run.num_components(), 12);
/// ```
pub fn lacc_serial(g: &CsrGraph, opts: &LaccOpts) -> LaccRun {
    let n = g.num_vertices();
    let a = Pattern::from_graph(g);
    let mut f: Vec<Vid> = (0..n).collect();
    let mut star = vec![true; n];
    let mut active = vec![true; n];
    let mut active_count = n;
    let mut iters: Vec<IterStats> = Vec::new();
    let wall_start = Instant::now();
    // Whether a parent changed after the last starcheck of the previous
    // iteration (its unconditional hook or its shortcut): the star vector
    // is then stale and is refreshed before anything reads it.
    let mut stale = false;
    // Whether the previous iteration ended with exactly one active root.
    let mut one_root = false;

    let bound = log_round_bound(n);
    for iteration in 1..=bound {
        let active_before = active_count;
        if stale {
            starcheck_active(&f, &mut star, &active);
        }

        if one_root && opts.use_sparsity {
            // The last active tree is a whole component (DESIGN.md §5): no
            // hook can change it, so it retires once a star and only
            // shortcuts until then. Its vertices are all stars or all not.
            let nonstars: Vec<Vid> = (0..n).filter(|&v| active[v] && !star[v]).collect();
            if nonstars.is_empty() {
                active.fill(false);
                active_count = 0;
            }
            let shortcut_changed = shortcut(&mut f, &nonstars);
            let active_roots = (0..n).filter(|&v| active[v] && f[v] == v).count();
            iters.push(IterStats {
                iteration,
                active_before,
                converged_after: n - active_count,
                shortcut_changed,
                fourth_changed: active_before - active_count,
                active_roots,
                ..Default::default()
            });
            // A nonstar tree has a vertex at depth 2, which the shortcut moved.
            stale = shortcut_changed > 0;
            one_root = active_roots == 1;
            if active_count == 0 {
                break;
            }
            continue;
        }

        // --- Step 1: conditional hooking (Algorithm 3), fused with the
        // convergence detector ---
        //
        // One mxv on the (min, max) monoid yields, per active star vertex,
        // both the smallest neighbor parent (the conditional hook
        // candidate) and the largest (needed by the convergence test
        // below). `star` is exact here: every iteration starts from the
        // stars of the current forest.
        let mask: Vec<bool> = (0..n).map(|v| star[v] && active[v]).collect();
        let use_dense = active_count as f64 >= opts.spmv_threshold * n as f64;
        let q = if use_dense {
            let pairs: Vec<(Vid, Vid)> = f.iter().map(|&x| (x, x)).collect();
            serial::mxv_dense(&a, &pairs, Mask::Keep(&mask), gblas::MinMaxUsize)
        } else {
            let x = SparseVec::from_entries(
                n,
                (0..n)
                    .filter(|&v| active[v])
                    .map(|v| (v, (f[v], f[v])))
                    .collect(),
            );
            serial::mxv_sparse(&a, &x, Mask::Keep(&mask), gblas::MinMaxUsize)
        };

        // --- Converged-component tracking (Lemma 1, strengthened) ---
        //
        // The paper's rule — "stars remaining after unconditional hooking
        // in iterations ≥ 2 are converged" — is unsound: if a singleton
        // star hooks onto a star, the merged tree is *still* a star, so a
        // neighboring star survives unconditional hooking (which only
        // targets nonstars, Lemma 2) without being complete. Minimal
        // counterexample: the 5-path with vertex ids 77–80–79–81–78 (see
        // `lemma1_counterexample` below). We instead detect convergence
        // soundly: a star tree is converged iff every member's neighbors
        // all carry the tree's root as parent (no boundary edges) — read
        // off the (min, max) sweep above, evaluated on the
        // start-of-iteration state.
        if opts.use_sparsity {
            let mut root_quiet = vec![true; n];
            for &(v, (lo, hi)) in q.entries() {
                if !(lo == f[v] && hi == f[v]) {
                    root_quiet[f[v]] = false;
                }
            }
            for v in 0..n {
                if active[v] && star[v] && root_quiet[f[v]] {
                    active[v] = false;
                    active_count -= 1;
                }
            }
        }

        // Hooks: f_n ← min(f_n, f); hook targets are the hooks' parents.
        // Quiet (just-deactivated) vertices have lo == f[v] and produce
        // only no-op hooks; skip them.
        let updates: Vec<(Vid, Vid)> = q
            .entries()
            .iter()
            .filter(|&&(v, _)| active[v])
            .map(|&(v, (lo, _))| (f[v], lo.min(f[v])))
            .collect();
        let cond_changed = serial::assign(&mut f, &updates, MinUsize);
        starcheck_active(&f, &mut star, &active);

        // --- Step 2: unconditional hooking (Algorithm 4), only when it
        // can act ---
        // Input: parents of active *nonstar* vertices (Lemma 2 restricts
        // targets to nonstars); output masked to active star vertices.
        // With none of either there is nothing to hook (`UncondHook::choose`);
        // otherwise a pull folds only the star rows, over parents padded
        // with the `min` identity, which no star keeps.
        let mask2: Vec<bool> = (0..n).map(|v| star[v] && active[v]).collect();
        let nonstar: Vec<bool> = (0..n).map(|v| active[v] && !star[v]).collect();
        let count = |m: &[bool]| m.iter().filter(|&&b| b).count() as u64;
        let uncond_hook = UncondHook::choose(count(&mask2), count(&nonstar));
        let fn2: Vec<(Vid, Vid)> = if uncond_hook == UncondHook::Skipped {
            Vec::new()
        } else {
            let x: Vec<Vid> = (0..n)
                .map(|v| if nonstar[v] { f[v] } else { Vid::MAX })
                .collect();
            let y = serial::mxv_dense(&a, &x, Mask::Keep(&mask2), MinUsize);
            let kept = y.entries().iter().filter(|&&(_, m)| m != Vid::MAX);
            kept.copied().collect()
        };
        let updates2: Vec<(Vid, Vid)> = fn2.iter().map(|&(v, m)| (f[v], m)).collect();
        let uncond_changed = serial::assign(&mut f, &updates2, MinUsize);

        // --- Step 3: shortcutting (Algorithm 5) ---
        //
        // No starcheck after the unconditional hook: the shortcut targets
        // the active nonstars, plus the active stars when the hook ran (a
        // hooked star's members now sit at depth 2; an unhooked star's
        // shortcut changes nothing). The next iteration refreshes the
        // stars first.
        let targets: Vec<Vid> = (0..n)
            .filter(|&v| active[v] && (!star[v] || uncond_hook != UncondHook::Skipped))
            .collect();
        let shortcut_changed = shortcut(&mut f, &targets);
        let active_roots = (0..n).filter(|&v| active[v] && f[v] == v).count();
        one_root = active_roots == 1;

        iters.push(IterStats {
            iteration,
            active_before,
            converged_after: n - active_count,
            spmv_dense: use_dense,
            mxv_nvals: if use_dense { n } else { active_before },
            uncond_hook,
            cond_changed,
            uncond_changed,
            shortcut_changed,
            fourth_changed: active_before - active_count,
            active_roots,
            ..Default::default()
        });
        // Every iteration read exact stars, so one that changed no parent
        // is a proven fixpoint; one that retired every vertex left nothing
        // to run.
        stale = uncond_changed + shortcut_changed > 0;
        if active_count == 0 || cond_changed + uncond_changed + shortcut_changed == 0 {
            break;
        }
    }
    assert!(
        iters
            .last()
            .map(|it| it.total_changed() == 0)
            .unwrap_or(n == 0),
        "LACC did not converge within {bound} iterations"
    );

    LaccRun {
        labels: f,
        iters,
        p: 1,
        modeled_total_s: 0.0,
        wall_s: wall_start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asref::awerbuch_shiloach;
    use lacc_baselines::union_find_cc;
    use lacc_graph::generators::*;
    use lacc_graph::unionfind::canonicalize_labels;

    fn check(g: &CsrGraph, opts: &LaccOpts) -> LaccRun {
        let run = lacc_serial(g, opts);
        assert_eq!(
            canonicalize_labels(&run.labels),
            union_find_cc(g),
            "wrong components"
        );
        // Final forest must be flat (all stars).
        for v in 0..g.num_vertices() {
            assert_eq!(run.labels[run.labels[v]], run.labels[v]);
        }
        run
    }

    #[test]
    fn correct_on_basic_families() {
        let opts = LaccOpts::default();
        for g in [
            path_graph(1),
            path_graph(2),
            path_graph(257),
            cycle_graph(100),
            star_graph(64),
            complete_graph(17),
            random_forest(400, 11, 3),
        ] {
            check(&g, &opts);
        }
    }

    #[test]
    fn correct_on_random_graphs_both_modes() {
        for seed in 0..4 {
            let g = erdos_renyi_gnm(300, 400, seed);
            check(&g, &LaccOpts::default());
            check(&g, &LaccOpts::dense_as());
        }
    }

    #[test]
    fn sparsity_and_dense_agree_exactly() {
        // Same partition *and* same parent vector: the sparse path must not
        // change results, only work.
        for seed in [7, 8] {
            let g = community_graph(2000, 80, 3.0, 1.4, seed);
            let a = lacc_serial(&g, &LaccOpts::default());
            let b = lacc_serial(&g, &LaccOpts::dense_as());
            assert_eq!(
                canonicalize_labels(&a.labels),
                canonicalize_labels(&b.labels)
            );
        }
    }

    #[test]
    fn matches_pointer_reference() {
        for seed in 0..3 {
            let g = rmat(8, 3, RmatParams::graph500(), seed);
            let lacc = lacc_serial(&g, &LaccOpts::default());
            let asref = awerbuch_shiloach(&g);
            assert_eq!(
                canonicalize_labels(&lacc.labels),
                canonicalize_labels(&asref)
            );
        }
    }

    #[test]
    fn converged_fraction_monotone_and_complete() {
        let g = community_graph(3000, 150, 3.0, 1.4, 2);
        let run = check(&g, &LaccOpts::default());
        let fr = run.converged_fractions();
        assert!(fr.windows(2).all(|w| w[0] <= w[1]), "monotone: {fr:?}");
        assert_eq!(*fr.last().unwrap(), 1.0, "everything converges: {fr:?}");
        // Many-component graphs converge most vertices early (Figure 7's
        // shape).
        assert!(fr[fr.len().saturating_sub(2)] > 0.5);
    }

    #[test]
    fn single_component_never_sparsifies_until_end() {
        let g = path_graph(500);
        let run = check(&g, &LaccOpts::default());
        // With one component, nothing converges before the final iteration
        // (§VI-E: "for a connected graph, LACC cannot take advantage of
        // vector sparsity at all").
        for it in &run.iters[..run.iters.len() - 2] {
            assert_eq!(it.converged_after, 0, "iter {}", it.iteration);
        }
    }

    #[test]
    fn iteration_count_logarithmic() {
        let g = path_graph(4096);
        let run = check(&g, &LaccOpts::default());
        assert!(
            run.num_iterations() <= 2 * 12 + 4,
            "took {} iterations",
            run.num_iterations()
        );
    }

    #[test]
    fn metagenome_adversarial_case() {
        let g = metagenome_graph(5000, 7, 0.005, 4);
        let run = check(&g, &LaccOpts::default());
        assert!(run.num_components() > 300);
    }

    #[test]
    fn lemma1_counterexample() {
        // The 5-path 77–80–79–81–78 (vertex ids chosen adversarially):
        // after iteration 2, both {77,79,80} and {78,81} are stars that
        // survived unconditional hooking, yet they are one component —
        // the paper's literal Lemma-1 rule would deactivate both and
        // split the component. Found by automated shrinking of a failing
        // community graph; kept as a regression test for the sound
        // convergence detector.
        let el = lacc_graph::EdgeList::from_pairs(82, [(77, 80), (80, 79), (79, 81), (81, 78)]);
        let g = CsrGraph::from_edges(el);
        check(&g, &LaccOpts::default());
        check(&g, &LaccOpts::dense_as());
    }

    #[test]
    fn empty_graphs() {
        check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(0)),
            &LaccOpts::default(),
        );
        let run = check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(5)),
            &LaccOpts::default(),
        );
        assert_eq!(run.num_components(), 5);
    }
}
