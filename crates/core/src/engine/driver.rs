//! The one iteration driver every engine runs under.
//!
//! A rule set ([`Rules`]) supplies its state and one `round` of
//! `gblas::dist` primitive calls; [`drive`] owns everything the rounds
//! share: the identity labeling, the single convergence allreduce, the
//! per-step spans and their `StepBreakdown` buckets ([`EngineCtx::step`]),
//! the [`EngineIter`] record, the round bound and the final gather of the
//! labels into an [`EngineRun`].

use super::{EngineCtx, EngineIter, EngineRun};
use crate::options::LaccOpts;
use dmsim::{Comm, CommHandle, OverlapWindow, SpanKind, WireWord};
use gblas::dist::{DistOpts, DistVec, NarrowVal};
use lacc_graph::Idx;

/// An engine as the driver sees it: state plus one round of primitive
/// calls. `W` is the width of the convergence allreduce payload: the
/// first `W` of the round's four change counters (the engine leaves the
/// rest zero).
pub(crate) trait Rules<I: Idx, const W: usize> {
    /// Rounds the engine may take on `n` vertices before the run fails.
    fn max_rounds(n: usize, opts: &LaccOpts) -> usize;

    /// One round over the labels `f`, each step under [`EngineCtx::step`].
    /// Returns this rank's applied updates: conditional hooks,
    /// unconditional hooks, shortcuts, and the engine's fourth convergence
    /// counter (LACC: vertices newly retired; FastSV: grandparents
    /// refreshed). What else the round's record should say — the `mxv`
    /// dispatch taken and the entries it multiplied, the active count —
    /// goes into `cx.round`, preset for an engine that keeps every vertex
    /// active and every `mxv` dense.
    fn round(&mut self, cx: &mut EngineCtx<'_, I>, f: &mut DistVec<I>) -> [u64; 4];

    /// Folds the round's globally summed counters into the engine's state
    /// and returns `(converged, vertices known converged so far)`.
    fn settle(&mut self, n: usize, changed: &[u64; 4]) -> (bool, usize);
}

/// The [`Rules::settle`] verdict of an engine without retirement: a round
/// that changed nothing anywhere is the fixpoint.
pub(crate) fn fixpoint(n: usize, changed: &[u64; 4]) -> (bool, usize) {
    let done = changed.iter().sum::<u64>() == 0;
    (done, if done { n } else { 0 })
}

impl<I: Idx> EngineCtx<'_, I> {
    /// Runs one step of the round under its trace span and adds the
    /// span's modeled seconds to the step's bucket of the round's record.
    pub(crate) fn step<T>(&mut self, kind: SpanKind, body: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.comm.span_open(kind);
        let out = body(self);
        let modeled_s = self.comm.span_close(span);
        let buckets = &mut self.round.modeled;
        let bucket = match kind {
            SpanKind::CondHook => &mut buckets.cond_s,
            SpanKind::UncondHook => &mut buckets.uncond_s,
            SpanKind::Shortcut => &mut buckets.shortcut_s,
            SpanKind::Starcheck => &mut buckets.starcheck_s,
            other => unreachable!("{other:?} is not an engine step"),
        };
        *bucket += modeled_s;
        out
    }
}

/// Runs an exchange whose inputs were produced elementwise since `win`
/// opened: a real implementation streams the sends while that loop runs,
/// so the exchange's hideable time is credited against the window when
/// [`DistOpts::overlap`] is on. Messages and charges are the same either
/// way.
pub(crate) fn overlapped<T>(
    comm: &mut Comm,
    win: OverlapWindow,
    dopts: &DistOpts,
    exchange: impl FnOnce(&mut Comm) -> T,
) -> T {
    comm.overlap_from(win, dopts.overlap, exchange)
}

/// Posts `op` as a non-blocking operation: it runs now, with the messages
/// and charges of the blocking call, and local compute charged before
/// [`CommHandle::wait`] is refunded against the operation's hideable
/// exchange time when [`DistOpts::overlap`] is on.
pub(crate) fn posted<T>(
    comm: &mut Comm,
    dopts: &DistOpts,
    op: impl FnOnce(&mut Comm) -> T,
) -> CommHandle<T> {
    comm.post(dopts.overlap, op)
}

/// Runs `rules` to convergence on one rank of the SPMD program. All ranks
/// take the same number of rounds (they agree through the allreduce) and
/// rank 0 returns the gathered labels, widened to [`crate::Vid`]. `Err`
/// carries the round bound the engine exhausted without converging: the
/// labels at that point are not a component labeling.
pub(crate) fn drive<I, R, const W: usize>(
    mut rules: R,
    cx: &mut EngineCtx<'_, I>,
) -> Result<EngineRun, usize>
where
    I: Idx + WireWord + NarrowVal,
    R: Rules<I, W>,
{
    let n = cx.n();
    let world = cx.comm.world();
    let mut f: DistVec<I> = DistVec::from_fn(cx.layout, cx.rank, I::from_usize);
    let bound = R::max_rounds(n, cx.opts);
    let mut iters: Vec<EngineIter> = Vec::new();
    loop {
        if iters.len() == bound {
            return Err(bound);
        }
        cx.round = EngineIter {
            active_before: n,
            spmv_dense: true,
            mxv_nvals: n,
            ..EngineIter::default()
        };
        let local = rules.round(cx, &mut f);

        // The convergence test: the change counters, summed over ranks.
        let payload: [u64; W] = std::array::from_fn(|k| local[k]);
        let merged = cx
            .comm
            .allreduce(&world, payload, |x, y| std::array::from_fn(|k| x[k] + y[k]));
        let mut changed = [0u64; 4];
        changed[..W].copy_from_slice(&merged);
        let (done, converged_after) = rules.settle(n, &changed);
        iters.push(EngineIter {
            converged_after,
            cond_changed: changed[0],
            uncond_changed: changed[1],
            shortcut_changed: changed[2],
            fourth_changed: changed[3],
            ..std::mem::take(&mut cx.round)
        });
        if done {
            break;
        }
    }

    // Callers see `Vid` labels, whatever width the run stored them at.
    let labels = f.to_global(cx.comm).into_iter().map(|l| l.idx()).collect();
    Ok(EngineRun {
        labels: (cx.rank == 0).then_some(labels),
        iters,
        final_clock_s: cx.comm.clock_s(),
    })
}
