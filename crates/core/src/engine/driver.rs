//! The one iteration driver every engine runs under.
//!
//! A rule set (`Rules`) supplies its state and one `round` of
//! `gblas::dist` primitive calls; `drive` owns everything the rounds
//! share: the identity labeling, the single convergence allreduce, the
//! per-step spans and their `StepBreakdown` buckets (`EngineCtx::step`),
//! the rank's [`IterStats`] record with the round's extract requests read
//! off the counter registry, the round bound and the final gather of the
//! labels into an `EngineRun`.

use super::{EngineCtx, EngineRun, Id};
use crate::stats::{IterStats, StepBreakdown};
use dmsim::{Counter, SpanKind};
use gblas::dist::DistVec;

/// An engine as the driver sees it: state plus one round of primitive
/// calls. `W` is the width of the convergence allreduce payload: the
/// first `W` of the round's four change counters (the engine leaves the
/// rest zero).
pub(crate) trait Rules<const W: usize> {
    /// Rounds the engine may take on `n` vertices before the run fails.
    fn max_rounds(n: usize) -> usize;

    /// One round over the labels `f`, each step under `EngineCtx::step`.
    /// Returns this rank's applied updates: conditional hooks,
    /// unconditional hooks, shortcuts, and the engine's fourth convergence
    /// counter (LACC: vertices newly retired, with its active roots in
    /// the lane's upper half; FastSV: grandparents refreshed). What else the round's record should say — the `mxv`
    /// dispatch taken and the entries it multiplied, the active count —
    /// goes into `cx.round`, preset for an engine that keeps every vertex
    /// active and every `mxv` dense.
    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4];

    /// Folds the round's globally summed counters into the engine's state
    /// and returns its verdict. An engine that packs two counts into one
    /// lane (LACC's fourth) splits it here, leaving in `changed` the four
    /// counters the round's record files.
    fn settle(&mut self, n: usize, changed: &mut [u64; 4]) -> Verdict;
}

/// The round bound of LACC (both implementations) and FastSV on `n`
/// vertices: `8·bitlen(n) + 32`, four times the `2·log₂ n` the
/// Awerbuch–Shiloach analysis gives, plus slack for tiny graphs.
pub(crate) fn log_round_bound(n: usize) -> usize {
    8 * (usize::BITS - n.leading_zeros()) as usize + 32
}

/// What `Rules::settle` concludes from a round's summed counters.
pub(crate) struct Verdict {
    /// The run has converged.
    pub(crate) done: bool,
    /// Vertices known converged so far.
    pub(crate) converged_after: usize,
    /// Active roots at the round's end (LACC; zero for the others).
    pub(crate) active_roots: usize,
}

/// The `Rules::settle` verdict of an engine without retirement: a round
/// that changed nothing anywhere is the fixpoint.
pub(crate) fn fixpoint(n: usize, changed: &[u64; 4]) -> Verdict {
    let done = changed.iter().sum::<u64>() == 0;
    Verdict {
        done,
        converged_after: if done { n } else { 0 },
        active_roots: 0,
    }
}

/// The four engine steps, each with its trace span and its bucket of the
/// round's [`StepBreakdown`].
#[derive(Clone, Copy)]
pub(crate) enum Step {
    CondHook,
    UncondHook,
    Shortcut,
    Starcheck,
}

impl Step {
    fn span(self) -> SpanKind {
        match self {
            Step::CondHook => SpanKind::CondHook,
            Step::UncondHook => SpanKind::UncondHook,
            Step::Shortcut => SpanKind::Shortcut,
            Step::Starcheck => SpanKind::Starcheck,
        }
    }

    fn bucket(self, b: &mut StepBreakdown) -> &mut f64 {
        match self {
            Step::CondHook => &mut b.cond_s,
            Step::UncondHook => &mut b.uncond_s,
            Step::Shortcut => &mut b.shortcut_s,
            Step::Starcheck => &mut b.starcheck_s,
        }
    }
}

impl EngineCtx<'_> {
    /// Runs one step of the round under its trace span and adds the
    /// span's modeled seconds to the step's bucket of the round's record.
    pub(crate) fn step<T>(&mut self, step: Step, body: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.comm.span_open(step.span());
        let out = body(self);
        *step.bucket(&mut self.round.modeled) += self.comm.span_close(span);
        out
    }
}

/// Runs `rules` to convergence on one rank of the SPMD program. All ranks
/// take the same number of rounds (they agree through the allreduce) and
/// rank 0 returns the gathered labels, widened to [`crate::Vid`]. `Err`
/// carries the round bound the engine exhausted without converging: the
/// labels at that point are not a component labeling.
pub(crate) fn drive<R: Rules<W>, const W: usize>(
    mut rules: R,
    cx: &mut EngineCtx<'_>,
) -> Result<EngineRun, usize> {
    let n = cx.n();
    let world = cx.comm.world();
    let mut f: DistVec<Id> = DistVec::from_fn(cx.layout, cx.rank, |g| g as Id);
    let bound = R::max_rounds(n);
    let mut iters: Vec<IterStats> = Vec::new();
    loop {
        if iters.len() == bound {
            return Err(bound);
        }
        cx.round = IterStats {
            iteration: iters.len() + 1,
            active_before: n,
            spmv_dense: true,
            mxv_nvals: n,
            ..IterStats::default()
        };
        let before = cx.comm.snapshot();
        let local = rules.round(cx, &mut f);
        let round = cx.comm.snapshot().since(&before);

        // The convergence test: the change counters, summed over ranks.
        let payload: [u64; W] = std::array::from_fn(|k| local[k]);
        let merged = cx
            .comm
            .allreduce(&world, payload, |x, y| std::array::from_fn(|k| x[k] + y[k]));
        let mut changed = [0u64; 4];
        changed[..W].copy_from_slice(&merged);
        let verdict = rules.settle(n, &mut changed);
        iters.push(IterStats {
            converged_after: verdict.converged_after,
            active_roots: verdict.active_roots,
            cond_changed: changed[0] as usize,
            uncond_changed: changed[1] as usize,
            shortcut_changed: changed[2] as usize,
            fourth_changed: changed[3] as usize,
            extract_received: vec![round.counter(Counter::RequestsReceived)],
            ..std::mem::take(&mut cx.round)
        });
        if verdict.done {
            break;
        }
    }

    let labels = f
        .to_global(cx.comm)
        .into_iter()
        .map(|l| l as usize)
        .collect();
    Ok(EngineRun {
        labels: (cx.rank == 0).then_some(labels),
        iters,
        final_clock_s: cx.comm.clock_s(),
    })
}
