//! Per-iteration instrumentation.
//!
//! These records are the raw material of the paper's analysis figures:
//! Figure 7 (fraction of vertices in converged components per iteration),
//! Figure 8 (per-step time breakdown), and Figure 3 (per-rank extract
//! request counts).
//!
//! Since the trace subsystem landed, [`StepBreakdown`] is a thin view
//! over span durations: `crate::dist` opens a [`dmsim::SpanKind`] step
//! span around each LACC step and records the modeled seconds the close
//! returns, instead of hand-differencing clock snapshots. Full span
//! streams (per rank, with nesting down to individual collectives) are
//! available through [`dmsim::TraceSink`] via [`crate::run`] with
//! [`crate::RunConfig::with_trace`].

use crate::Vid;

/// Modeled seconds attributed to each of the four LACC steps (Figure 8's
/// categories). Starcheck aggregates all in-iteration star refreshes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepBreakdown {
    /// Conditional hooking.
    pub cond_s: f64,
    /// Unconditional hooking.
    pub uncond_s: f64,
    /// Shortcutting.
    pub shortcut_s: f64,
    /// Star membership maintenance.
    pub starcheck_s: f64,
}

impl StepBreakdown {
    /// Total across the four steps.
    pub fn total(&self) -> f64 {
        self.cond_s + self.uncond_s + self.shortcut_s + self.starcheck_s
    }

    /// Componentwise sum.
    pub fn add(&mut self, other: &StepBreakdown) {
        self.cond_s += other.cond_s;
        self.uncond_s += other.uncond_s;
        self.shortcut_s += other.shortcut_s;
        self.starcheck_s += other.starcheck_s;
    }
}

/// How a LACC round ran its unconditional hook, decided from the global
/// counts of active stars and active nonstars after the conditional hook.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UncondHook {
    /// Not run: no active star could hook, or no active nonstar could be
    /// hooked onto. Also the value of every FastSV and label-propagation
    /// round, whose unconditional step runs no `mxv`.
    #[default]
    Skipped,
    /// SpMV over the parents of the active nonstars, padded with the
    /// `min` identity, folding only the active stars' rows.
    Pull,
}

impl UncondHook {
    /// The rule both LACC implementations apply: skip when either count is
    /// zero, pull otherwise.
    pub fn choose(stars: u64, nonstars: u64) -> Self {
        if stars == 0 || nonstars == 0 {
            UncondHook::Skipped
        } else {
            UncondHook::Pull
        }
    }

    /// The word `cc-dist` prints and `--report` writes.
    pub fn name(self) -> &'static str {
        match self {
            UncondHook::Skipped => "skip",
            UncondHook::Pull => "pull",
        }
    }
}

/// Statistics for one LACC iteration.
#[derive(Clone, Debug, Default)]
pub struct IterStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Vertices still active (not in converged components) at iteration
    /// start.
    pub active_before: usize,
    /// Cumulative vertices in converged components after this iteration
    /// (Figure 7 plots this as a percentage of n).
    pub converged_after: usize,
    /// Whether the conditional-hooking `mxv` took the dense (SpMV) path.
    pub spmv_dense: bool,
    /// Entries, over all ranks, of the vector that `mxv` multiplied: `n`
    /// on the dense path, the active (LACC) or changed (FastSV, label
    /// propagation) entries on the sparse one. Zero, with `spmv_dense`
    /// false, on a LACC round that ran no `mxv`: one that only finished
    /// the last active tree.
    pub mxv_nvals: usize,
    /// How the unconditional hook ran (LACC only).
    pub uncond_hook: UncondHook,
    /// Parent updates applied by conditional hooking.
    pub cond_changed: usize,
    /// Parent updates applied by unconditional hooking.
    pub uncond_changed: usize,
    /// Parent updates applied by shortcutting.
    pub shortcut_changed: usize,
    /// The engine's fourth convergence counter: vertices retired by Lemma 1
    /// (LACC), grandparents refreshed (FastSV), zero for label propagation.
    pub fourth_changed: usize,
    /// Active roots (active `v` with `f[v] = v`) at the end of the
    /// iteration (LACC only; zero for the other engines). At 1 the last
    /// active tree is a whole component, and the next iteration finishes
    /// it without a conditional hook.
    pub active_roots: usize,
    /// Modeled per-step times (zeros for serial runs).
    pub modeled: StepBreakdown,
    /// Extract requests received per rank during this iteration's
    /// grandparent gathers (Figure 3; empty for serial runs).
    pub extract_received: Vec<u64>,
}

impl IterStats {
    /// Total parent updates in this iteration — zero means converged.
    pub fn total_changed(&self) -> usize {
        self.cond_changed + self.uncond_changed + self.shortcut_changed
    }
}

/// The result of a LACC run.
#[derive(Clone, Debug)]
pub struct LaccRun {
    /// Component label per vertex (the root id of its tree).
    pub labels: Vec<Vid>,
    /// Per-iteration statistics.
    pub iters: Vec<IterStats>,
    /// Ranks used (1 for serial).
    pub p: usize,
    /// Modeled makespan in seconds (0 for serial).
    pub modeled_total_s: f64,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
}

impl LaccRun {
    /// Number of iterations until convergence.
    pub fn num_iterations(&self) -> usize {
        self.iters.len()
    }

    /// Number of connected components found.
    pub fn num_components(&self) -> usize {
        lacc_graph::unionfind::count_components(&lacc_graph::unionfind::canonicalize_labels(
            &self.labels,
        ))
    }

    /// Summed per-step modeled breakdown across iterations.
    pub fn breakdown(&self) -> StepBreakdown {
        let mut total = StepBreakdown::default();
        for it in &self.iters {
            total.add(&it.modeled);
        }
        total
    }

    /// Fraction of vertices converged after each iteration (Figure 7's
    /// series).
    pub fn converged_fractions(&self) -> Vec<f64> {
        let n = self.labels.len().max(1) as f64;
        self.iters
            .iter()
            .map(|it| it.converged_after as f64 / n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let mut b = StepBreakdown {
            cond_s: 1.0,
            uncond_s: 2.0,
            shortcut_s: 3.0,
            starcheck_s: 4.0,
        };
        assert_eq!(b.total(), 10.0);
        b.add(&StepBreakdown {
            cond_s: 1.0,
            ..Default::default()
        });
        assert_eq!(b.cond_s, 2.0);
    }

    #[test]
    fn run_summaries() {
        let run = LaccRun {
            labels: vec![0, 0, 2, 2, 2],
            iters: vec![
                IterStats {
                    iteration: 1,
                    converged_after: 2,
                    cond_changed: 3,
                    ..Default::default()
                },
                IterStats {
                    iteration: 2,
                    converged_after: 5,
                    ..Default::default()
                },
            ],
            p: 4,
            modeled_total_s: 1.5,
            wall_s: 0.1,
        };
        assert_eq!(run.num_components(), 2);
        assert_eq!(run.num_iterations(), 2);
        assert_eq!(run.converged_fractions(), vec![0.4, 1.0]);
        assert_eq!(run.iters[0].total_changed(), 3);
    }

    #[test]
    fn uncond_hook_rule() {
        use UncondHook::*;
        let cases = [(0, 0, Skipped), (0, 5, Skipped), (5, 0, Skipped)];
        let cases = cases.into_iter().chain([(1, 2, Pull), (3, 2, Pull)]);
        for (stars, nonstars, want) in cases {
            assert_eq!(
                UncondHook::choose(stars, nonstars),
                want,
                "{stars}/{nonstars}"
            );
        }
        assert_eq!(UncondHook::default(), Skipped);
        assert_eq!([Skipped, Pull].map(UncondHook::name), ["skip", "pull"]);
    }
}
