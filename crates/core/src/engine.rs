//! The engine portfolio: distributed connected-components algorithms as
//! rule sets over one iteration driver.
//!
//! LACC is one point in a family of linear-algebraic CC algorithms. An
//! engine here is its state plus one `round` of `gblas::dist` primitive
//! calls — connect (hook), starcheck, shortcut — that reads against its
//! published pseudocode; the loop around the rounds is written once, in
//! the `driver` module: label initialization, the convergence allreduce,
//! per-step spans, the round bound and the final label gather.
//! Every engine runs over the shared SPMD context (`EngineCtx`: vector
//! layout, distributed matrix, [`LaccOpts`]) on one id type, `Id`, and so
//! inherits the whole `gblas::dist` stack — the compact wire format,
//! overlap, tracing — for free:
//!
//! * `Lacc` — the paper's Awerbuch–Shiloach formulation with Lemma-1
//!   converged-component retirement; the default, and the slowest of the
//!   three on every measured family.
//! * `Fastsv` — FastSV (Zhang, Azad & Hu): stochastic hooking,
//!   aggressive hooking, and shortcutting on a grandparent vector; no
//!   star machinery, so fewer and cheaper supersteps per round.
//! * `LabelProp` — one closed-neighborhood min per round; converges in
//!   O(diameter) rounds, ahead of FastSV where components are many and
//!   small, hopeless on paths.
//!
//! The caller names the engine; nothing selects one (EXPERIMENTS.md,
//! "Regret of the engine selector": a constant `fastsv` beat the selector
//! this module used to carry in every measured cell).
//!
//! Engines converge to different (equally valid) representatives: LACC
//! labels are tree-root ids, FastSV and label propagation converge to
//! component *minima*. Cross-engine label comparisons must canonicalize
//! first (`lacc_graph::unionfind::canonicalize_labels`) — the engine
//! matrix tests do exactly that.

pub(crate) mod driver;

use crate::options::LaccOpts;
use crate::stats::{IterStats, UncondHook};
use crate::Vid;
use dmsim::{Comm, CommHandle, Grid2d, SpanKind};
use driver::{fixpoint, Rules};
use gblas::dist::{
    dist_assign, dist_extract, dist_extract_planned, dist_mxv_dense, dist_mxv_sparse,
    plan_requests, DistMask, DistMat, DistOpts, DistSpVec, DistVec, FusedExtract, VecLayout,
};
use gblas::{AndBool, MinMaxUsize, MinUsize};
use lacc_graph::permute::Permutation;
use lacc_graph::CsrGraph;

/// Which engine a run uses — the `--engine` vocabulary. The enum is
/// [`dmsim::EngineKind`], which also tags the run's trace span; the default
/// is LACC, bit-identical to [`crate::serial`].
pub use dmsim::EngineKind as EngineSelect;

/// A vertex id or label inside the SPMD body, in every block, vector and
/// wire payload. `crate::dist::run` refuses a graph with more vertices
/// than it can name before any rank spawns.
pub(crate) type Id = u32;

/// What one rank's engine run produced.
pub(crate) struct EngineRun {
    /// Full label vector, on rank 0 only (widened to [`Vid`]).
    pub(crate) labels: Option<Vec<Vid>>,
    /// The rank's record of every round: the global counters all ranks
    /// agree on, plus its own step seconds and its one `extract_received`
    /// entry.
    pub(crate) iters: Vec<IterStats>,
    /// The rank's final modeled clock.
    pub(crate) final_clock_s: f64,
}

/// The shared SPMD context every engine runs over: one rank's view of the
/// distributed matrix, the vector layout, and the run options. Built once
/// per rank by `crate::dist::run` and handed to the run's engine. The
/// input graph is read once, to cut out the rank's block: no engine sees
/// more of it than a real rank would hold.
pub(crate) struct EngineCtx<'a> {
    /// The rank's communicator (cost model, collectives, trace spans).
    pub(crate) comm: &'a mut Comm,
    /// Run options; engines read `dist`, `spmv_threshold`, `max_iters` and
    /// their own knobs.
    pub(crate) opts: &'a LaccOpts,
    /// The layout every vector of the run shares.
    pub(crate) layout: VecLayout,
    /// This rank's id.
    pub(crate) rank: usize,
    /// This rank's block of the adjacency matrix.
    pub(crate) a: DistMat<Id>,
    /// The record of the round in flight: `EngineCtx::step` adds each
    /// step's modeled seconds, rule sets note what else the round saw,
    /// and the driver completes and files it.
    pub(crate) round: IterStats,
}

impl<'a> EngineCtx<'a> {
    /// Builds the context for one rank: square grid, vector layout, and
    /// the rank's matrix block — relabeled by `perm` when the run
    /// load-balances, built straight from `graph` either way.
    pub(crate) fn new(
        comm: &'a mut Comm,
        graph: &CsrGraph,
        perm: Option<&Permutation>,
        opts: &'a LaccOpts,
    ) -> Self {
        let grid = Grid2d::square(comm.size());
        let layout = VecLayout::new(graph.num_vertices(), grid);
        let rank = comm.rank();
        let a = match perm {
            Some(perm) => DistMat::from_graph_permuted(graph, perm, grid, rank),
            None => DistMat::from_graph(graph, grid, rank),
        };
        EngineCtx {
            comm,
            opts,
            layout,
            rank,
            a,
            round: IterStats::default(),
        }
    }

    /// Number of vertices.
    pub(crate) fn n(&self) -> usize {
        self.layout.len()
    }
}

// --------------------------------------------------------------------------
// Rules the engines share
// --------------------------------------------------------------------------

/// The connect rule: `f[f[v]] ← m` for every local edge `(v, m)`,
/// proposals to one root combining by minimum. Returns the number of local
/// roots whose parent changed.
fn connect(
    comm: &mut Comm,
    f: &mut DistVec<Id>,
    mut edges: Vec<(Id, Id)>,
    dopts: &DistOpts,
) -> u64 {
    for (v, _) in &mut edges {
        *v = f.get_local(*v as usize);
    }
    dist_assign(comm, f, &edges, MinUsize, dopts) as u64
}

/// `f[u] ← min(f[u], m)` for every local entry `(u, m)`. Returns the
/// entries that lowered theirs.
fn lower(comm: &mut Comm, f: &mut DistVec<Id>, entries: &[(Id, Id)]) -> Vec<(Id, Id)> {
    let mut lowered = Vec::with_capacity(entries.len());
    for &(u, m) in entries {
        let o = f.local_offset(u as usize);
        if m < f.local()[o] {
            f.local_mut()[o] = m;
            lowered.push((u, m));
        }
    }
    comm.charge_compute(entries.len() as u64 + 1);
    lowered
}

/// `f ← min(f, m)` elementwise over the local chunk. Returns the number of
/// labels lowered.
fn lower_all(comm: &mut Comm, f: &mut DistVec<Id>, m: &DistVec<Id>) -> u64 {
    let mut lowered = 0u64;
    for (fu, &mu) in f.local_mut().iter_mut().zip(m.local()) {
        if mu < *fu {
            *fu = mu;
            lowered += 1;
        }
    }
    comm.charge_compute(m.local().len() as u64 + 1);
    lowered
}

/// The running minimum `mn ← min(mn, A ⊗ x)` of the delta-driven engines
/// (Snippet 3's `mngf`) for an input `x` that never rises: a neighbour
/// whose `x` did not change last round already has its value in `mn`, so a
/// round multiplies only the entries that did.
struct RunningMin {
    /// The least `x[v]` any neighbour `v` of `u` has held; `Id::MAX` until
    /// one contributes.
    mn: DistVec<Id>,
    /// The local entries of `x` that changed last round.
    changed: Vec<(Id, Id)>,
    /// `changed`'s length over all ranks, handed back by `Rules::settle`;
    /// `usize::MAX` before the first round, which multiplies all of `x`.
    changed_global: usize,
}

impl RunningMin {
    /// Nothing absorbed yet.
    fn new(cx: &EngineCtx<'_>) -> Self {
        RunningMin {
            mn: DistVec::from_fn(cx.layout, cx.rank, |_| Id::MAX),
            changed: Vec::new(),
            changed_global: usize::MAX,
        }
    }

    /// One round's `mn ← min(mn, A ⊗ x)`: SpMV over all of `x` when at
    /// least [`LaccOpts::spmv_threshold`] of it changed last round, SpMSpV
    /// over the changed entries otherwise — the round's one dispatch
    /// decision. Consumes `changed`; returns the entries of `mn` it lowered.
    fn absorb(&mut self, cx: &mut EngineCtx<'_>, x: &DistVec<Id>) -> Vec<(Id, Id)> {
        let (n, dopts) = (cx.n(), &cx.opts.dist);
        let dense = self.changed_global as f64 >= cx.opts.spmv_threshold * n as f64;
        cx.round.spmv_dense = dense;
        cx.round.mxv_nvals = if dense { n } else { self.changed_global };
        let comm = &mut *cx.comm;
        let y = if dense {
            self.changed.clear();
            dist_mxv_dense(comm, &cx.a, x, DistMask::None, MinUsize, dopts)
        } else {
            let changed = std::mem::take(&mut self.changed);
            let x = DistSpVec::from_local_entries(cx.layout, cx.rank, changed);
            dist_mxv_sparse(comm, &cx.a, &x, DistMask::None, MinUsize, dopts)
        };
        lower(comm, &mut self.mn, y.entries())
    }
}

// --------------------------------------------------------------------------
// LACC
// --------------------------------------------------------------------------

/// The paper's engine: Awerbuch–Shiloach in GraphBLAS with sparsity
/// exploitation (Lemmas 1–2) — conditional hooking fused with the
/// convergence detector, unconditional hooking where it can act, and
/// shortcutting, every round starting from the exact stars of the current
/// forest.
pub(crate) struct Lacc {
    /// Star membership (Algorithm 6) of the active vertices: exact when the
    /// conditional hook reads it and again after the starcheck that
    /// follows the hook. The hook moves only roots of hooking stars, so
    /// in between only their entries can be wrong, and that starcheck
    /// recomputes only those; the unconditional hook and the shortcut
    /// leave it for the next round's refresh.
    star: DistVec<bool>,
    /// Grandparents `f[f[v]]` of the local active vertices, by local
    /// offset, as the last starcheck over `v` extracted them. Exact for
    /// every active nonstar whenever `star` is: no step between a
    /// starcheck and the shortcut writes a parent inside a nonstar tree,
    /// so the shortcut reads its nonstars' new parents here.
    gf: Vec<Id>,
    /// Local vertices not yet retired by Lemma 1.
    active: Vec<bool>,
    /// Global count of active vertices, identical on every rank.
    active_global: usize,
    /// Whether the last round's unconditional hook or shortcut changed a
    /// parent anywhere (read off the convergence allreduce): the next
    /// round then refreshes `star` and `gf` over every active vertex
    /// before its conditional hook reads them.
    stale: bool,
}

impl Lacc {
    /// Every vertex an active singleton star.
    pub(crate) fn new(cx: &EngineCtx<'_>) -> Self {
        let star = DistVec::from_fn(cx.layout, cx.rank, |_| true);
        let gf = (0..star.local().len())
            .map(|o| star.global_of(o) as Id)
            .collect();
        Lacc {
            active: vec![true; star.local().len()],
            star,
            gf,
            active_global: cx.n(),
            stale: false,
        }
    }
}

/// The mask `star ∧ active`: the trees still hooking.
fn active_stars(star: &DistVec<bool>, active: &[bool]) -> DistVec<bool> {
    let mut mask = star.clone();
    for (m, &act) in mask.local_mut().iter_mut().zip(active) {
        *m = *m && act;
    }
    mask
}

/// The local offsets of the active vertices that are (`want_star`) or are
/// not in stars.
fn active_where(active: &[bool], star: &DistVec<bool>, want_star: bool) -> Vec<usize> {
    (0..active.len())
        .filter(|&o| active[o] && star.local()[o] == want_star)
        .collect()
}

/// Star recomputation (Algorithm 6) over the local offsets `targets`:
/// `star[v] ← (f[v] = f[f[v]]) ∧ star[f[v]]`, with the grandparents of
/// non-star vertices demoted in between. Records each target's
/// grandparent in `gf`.
///
/// Exact when `targets` are whole trees and every other active vertex is
/// a nonstar already marked so: their demotions would land inside their
/// own trees, on entries that are already `false`.
fn starcheck(
    comm: &mut Comm,
    f: &DistVec<Id>,
    star: &mut DistVec<bool>,
    targets: &[usize],
    gf: &mut [Id],
    dopts: &DistOpts,
) {
    // The target scan, star reset and request build produce the
    // grandparent extract's inputs elementwise, so the first exchange is
    // window-credited for streaming behind them.
    let win = comm.overlap_window();
    for &o in targets {
        star.local_mut()[o] = true;
    }
    comm.charge_compute(targets.len() as u64 + 1);
    // Grandparents of the targets: gf[v] = f[f[v]]. Both extracts below
    // use the identical request list over same-layout vectors, so the
    // owner bucketing (and, on the compact wire, the request route) is
    // paid for once.
    let reqs: Vec<Id> = targets.iter().map(|&o| f.local()[o]).collect();
    let plan = plan_requests(comm, f.layout(), &reqs, dopts);
    let (fx, gfs) = comm.overlap_from(win, |c| {
        let fx = FusedExtract::begin(c, &plan, dopts);
        let gfs = fx.extract(c, f);
        (fx, gfs)
    });
    let mut demote: Vec<(Id, bool)> = Vec::new();
    for (&o, &g) in targets.iter().zip(&gfs) {
        gf[o] = g;
        if f.local()[o] != g {
            star.local_mut()[o] = false;
            demote.push((g, false));
        }
    }
    comm.charge_compute(targets.len() as u64 + 1);
    dist_assign(comm, star, &demote, AndBool, dopts);
    // star[v] ← star[v] ∧ star[f[v]], read *after* the demote assign.
    let parent_star = fx.extract(comm, star);
    for (&o, &ps) in targets.iter().zip(&parent_star) {
        star.local_mut()[o] = star.local()[o] && ps;
    }
    comm.charge_compute(targets.len() as u64 + 1);
}

/// Lemma 1, strengthened (same rule as `crate::serial`, evaluated on the
/// start-of-round state): a star none of whose vertices saw a label other
/// than its root's is a converged component, and its vertices retire from
/// every later step.
///
/// Takes the posted fused sweep `qh`, `q[v] = (min, max)` neighbor label:
/// the candidate scan and the plan of the extract that will ask the
/// candidates' roots whether they stayed quiet read only start-of-round
/// state, so they run (and are charged) while the sweep is in flight.
/// Clears `active` on the converged stars and returns `q`, the number of
/// vertices retired, and the candidates that stayed active: the hooking
/// stars.
fn lemma1_retire(
    comm: &mut Comm,
    f: &DistVec<Id>,
    star: &DistVec<bool>,
    active: &mut [bool],
    qh: CommHandle<DistSpVec<(Id, Id), Id>>,
    dopts: &DistOpts,
) -> (DistSpVec<(Id, Id), Id>, u64, Vec<usize>) {
    let mut candidates = active_where(active, star, true);
    let reqs: Vec<Id> = candidates.iter().map(|&o| f.local()[o]).collect();
    comm.charge_compute(active.len() as u64 + 1);
    let plan = plan_requests(comm, f.layout(), &reqs, dopts);
    let q = qh.wait(comm);

    let mut root_quiet: DistVec<bool> = DistVec::from_fn(f.layout(), comm.rank(), |_| true);
    let noisy: Vec<(Id, bool)> = q
        .entries()
        .iter()
        .filter(|&&(v, (lo, hi))| {
            let fv = f.get_local(v as usize);
            !(lo == fv && hi == fv)
        })
        .map(|&(v, _)| (f.get_local(v as usize), false))
        .collect();
    dist_assign(comm, &mut root_quiet, &noisy, AndBool, dopts);
    let quiet = dist_extract_planned(comm, &root_quiet, &plan, dopts);
    let mut retired = 0u64;
    for (&o, &quiet) in candidates.iter().zip(&quiet) {
        if quiet {
            active[o] = false;
            retired += 1;
        }
    }
    candidates.retain(|&o| active[o]);
    comm.charge_compute(active.len() as u64 + 1);
    (q, retired, candidates)
}

/// Unconditional hooking (Algorithm 4): `f[f[v]] ←` the minimum parent
/// among `v`'s *nonstar* neighbors, for `v` in an active star, whatever the
/// id order (Table I, Lemma 2). One allreduce of the active star and
/// nonstar counts decides whether it runs, as in `crate::serial`
/// ([`UncondHook::choose`]): skipped when either is zero, else a pull over
/// the nonstars' parents padded with the `min` identity that folds only
/// the star rows. Returns the local roots whose parent changed, and the
/// execution taken.
fn uncond_hook(
    comm: &mut Comm,
    a: &DistMat<Id>,
    f: &mut DistVec<Id>,
    star: &DistVec<bool>,
    active: &[bool],
    dopts: &DistOpts,
) -> (u64, UncondHook) {
    let (layout, rank) = (f.layout(), comm.rank());
    let nonstars = active_where(active, star, false);
    let stars = active.iter().filter(|&&act| act).count() - nonstars.len();
    comm.charge_compute(active.len() as u64 + 1);
    let world = comm.world();
    let counts = [stars as u64, nonstars.len() as u64];
    let [stars, nonstars_global] =
        comm.allreduce(&world, counts, |x, y| [x[0] + y[0], x[1] + y[1]]);
    let hook = UncondHook::choose(stars, nonstars_global);
    if hook == UncondHook::Skipped {
        return (0, hook);
    }
    let win = comm.overlap_window();
    let mask = active_stars(star, active);
    comm.charge_compute(2 * active.len() as u64 + 1);
    let mut x = DistVec::from_fn(layout, rank, |_| Id::MAX);
    for &o in &nonstars {
        x.local_mut()[o] = f.local()[o];
    }
    let y = comm.overlap_from(win, |c| {
        dist_mxv_dense(c, a, &x, DistMask::Keep(&mask), MinUsize, dopts)
    });
    comm.charge_compute(y.entries().len() as u64 + 1);
    let kept = y.entries().iter().filter(|&&(_, m)| m != Id::MAX);
    (connect(comm, f, kept.copied().collect(), dopts), hook)
}

impl Rules<4> for Lacc {
    fn max_rounds(_n: usize, opts: &LaccOpts) -> usize {
        opts.max_iters
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        let (star, active, gf) = (&mut self.star, &mut self.active, &mut self.gf);
        let (layout, rank, n) = (cx.layout, cx.rank, cx.n());
        // The cond-hook's one dispatch decision (§V-A), taken from the active
        // count the convergence allreduce already delivered.
        let spmv_dense = self.active_global as f64 >= cx.opts.spmv_threshold * n as f64;
        (cx.round.active_before, cx.round.spmv_dense) = (self.active_global, spmv_dense);
        cx.round.mxv_nvals = if spmv_dense { n } else { self.active_global };

        // Refresh: the last round moved parents after its last starcheck.
        if self.stale {
            cx.step(SpanKind::Starcheck, |cx| {
                let targets: Vec<usize> = (0..active.len()).filter(|&o| active[o]).collect();
                starcheck(cx.comm, f, star, &targets, gf, &cx.opts.dist)
            });
        }

        // Step 1 — conditional hooking, fused with the convergence
        // detector: q = A ⊗ f on the (min, max) monoid over the active
        // stars (see `crate::serial`), then f[f[v]] ← min(f[v], q[v].min).
        // Returns the active stars left after retirement: the hooking trees.
        let (cond, retired, hooking) = cx.step(SpanKind::CondHook, |cx| {
            let (comm, a, dopts) = (&mut *cx.comm, &cx.a, &cx.opts.dist);
            let mask = DistMask::Keep(&active_stars(star, active));
            // The mxv is *posted*: it runs now with identical messages and
            // charges, and the handle refunds its hideable exchange time
            // against the Lemma-1 planning done before the wait.
            let qh = if spmv_dense {
                let x = DistVec::from_fn(layout, rank, |g| (f.get_local(g), f.get_local(g)));
                comm.post(|c| dist_mxv_dense(c, a, &x, mask, MinMaxUsize, dopts))
            } else {
                let entries = (0..active.len())
                    .filter(|&o| active[o])
                    .map(|o| (f.global_of(o) as Id, (f.local()[o], f.local()[o])))
                    .collect();
                let x = DistSpVec::from_local_entries(layout, rank, entries);
                comm.post(|c| dist_mxv_sparse(c, a, &x, mask, MinMaxUsize, dopts))
            };
            let (q, retired, hooking) = if cx.opts.use_sparsity {
                lemma1_retire(comm, f, star, active, qh, dopts)
            } else {
                let hooking = active_where(active, star, true);
                comm.charge_compute(active.len() as u64 + 1);
                (qh.wait(comm), 0, hooking)
            };
            // Hooks of just-retired vertices would be no-ops; skip them.
            let edges = q
                .entries()
                .iter()
                .filter(|&&(v, _)| active[f.local_offset(v as usize)])
                .map(|&(v, (lo, _))| (v, lo.min(f.get_local(v as usize))))
                .collect();
            (connect(comm, f, edges, dopts), retired, hooking)
        });
        // The hook wrote parents only at the roots of hooking stars, so
        // only their trees can have changed shape: a nonstar tree stays one
        // whatever hooks onto it, its vertices keep their exact `false`,
        // and their parents and grandparents — never star roots — keep
        // their `gf`. Algorithm 6 over the hooking stars alone is exact.
        cx.step(SpanKind::Starcheck, |cx| {
            starcheck(cx.comm, f, star, &hooking, gf, &cx.opts.dist)
        });

        // Step 2 — unconditional hooking, only where it can act.
        let (uncond, hook) = cx.step(SpanKind::UncondHook, |cx| {
            uncond_hook(cx.comm, &cx.a, f, star, active, &cx.opts.dist)
        });
        cx.round.uncond_hook = hook;

        // Step 3 — shortcutting: f[v] ← f[f[v]] on the active nonstars,
        // read from `gf` (the unconditional hook, too, writes only star
        // roots), and on the active stars too when the unconditional hook
        // ran (a hooked star's members now sit at depth 2; an unhooked
        // star's shortcut changes nothing). No starcheck follows: the next
        // round refreshes the stars first.
        let shortcut = cx.step(SpanKind::Shortcut, |cx| {
            let (comm, dopts) = (&mut *cx.comm, &cx.opts.dist);
            let win = comm.overlap_window();
            let pull = hook == UncondHook::Pull;
            let nonstars = active_where(active, star, false);
            let stars = if pull {
                active_where(active, star, true)
            } else {
                Vec::new()
            };
            let reqs: Vec<Id> = stars.iter().map(|&o| f.local()[o]).collect();
            comm.charge_compute(active.len() as u64 + 1);
            // The stars' grandparents are read before any nonstar moves: a
            // hooked root's new parent may be one. `hook` is the same on
            // every rank, so all of them join the extract or none does.
            let star_gfs = if pull {
                comm.overlap_from(win, |c| dist_extract(c, f, &reqs, dopts))
            } else {
                Vec::new()
            };
            let nonstar_gfs = nonstars.iter().map(|&o| (o, gf[o]));
            let mut moved = 0u64;
            for (o, g) in nonstar_gfs.chain(stars.into_iter().zip(star_gfs)) {
                if f.local()[o] != g {
                    f.local_mut()[o] = g;
                    moved += 1;
                }
            }
            comm.charge_compute((nonstars.len() + reqs.len()) as u64 + 1);
            moved
        });
        [cond, uncond, shortcut, retired]
    }

    fn settle(&mut self, n: usize, changed: &[u64; 4]) -> (bool, usize) {
        self.active_global -= changed[3] as usize;
        // Every round read exact stars, so one that changed no parent is a
        // proven fixpoint; one that retired every vertex left nothing to run.
        let done = self.active_global == 0 || changed[..3].iter().sum::<u64>() == 0;
        self.stale = changed[1] + changed[2] > 0;
        (done, n - self.active_global)
    }
}

// --------------------------------------------------------------------------
// FastSV
// --------------------------------------------------------------------------

/// FastSV (Zhang, Azad & Hu) over the optimized `gblas::dist` primitives:
/// the min-semiring `mxv` keeps each vertex's minimum neighbor-grandparent
/// as a running minimum over the grandparents that changed
/// (`RunningMin`), stochastic hooks route through the combining
/// `dist_assign`, and the grandparent refresh is a planned extract. Labels
/// converge to component minima.
///
/// Delta-driven and exact: `gf` never rises (`f[x] ≤ x` is invariant and
/// shortcutting sets `f[u] ≤ gf[u]`), so `mngf` equals the full product;
/// and an entry `u` that `mngf` did not lower has `f[u] ≤ mngf[u]` from
/// last round's aggressive hook, so its proposal `(f[u], f[u])` cannot
/// lower `f[f[u]] ≤ f[u]` — only the lowered entries hook stochastically.
///
/// Step-bucket mapping (Figure-8 schema reinterpreted): `cond` = the
/// `mxv` + stochastic hooking, `uncond` = aggressive hooking, `shortcut`
/// = shortcutting, `starcheck` = grandparent maintenance (the structural
/// analogue of LACC's star upkeep — the state that must be refreshed
/// after the forest mutates).
pub(crate) struct Fastsv {
    /// Grandparents `f[f[u]]` as of the end of the previous round.
    gf: DistVec<Id>,
    /// `mngf`, and the entries of `gf` the last refresh changed.
    mngf: RunningMin,
}

impl Fastsv {
    /// Every vertex its own grandparent.
    pub(crate) fn new(cx: &EngineCtx<'_>) -> Self {
        Fastsv {
            gf: DistVec::from_fn(cx.layout, cx.rank, |g| g as Id),
            mngf: RunningMin::new(cx),
        }
    }
}

impl Rules<4> for Fastsv {
    fn max_rounds(n: usize, _opts: &LaccOpts) -> usize {
        8 * (usize::BITS - n.leading_zeros()) as usize + 32
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        let (gf, mngf) = (&mut self.gf, &mut self.mngf);
        // mngf[u] ← min(mngf[u], min over neighbors v of gf[v]), then
        // stochastic hooking f[f[u]] ← min(f[u], mngf[u]) where mngf
        // dropped. The refresh at the end of the round pipelines behind the
        // two elementwise loops in between (`win`).
        let (cond, win) = cx.step(SpanKind::CondHook, |cx| {
            let mut edges = mngf.absorb(cx, gf);
            for (u, m) in &mut edges {
                *m = (*m).min(f.get_local(*u as usize));
            }
            let cond = connect(cx.comm, f, edges, &cx.opts.dist);
            (cond, cx.comm.overlap_window())
        });
        // Aggressive hooking f ← min(f, mngf) and shortcutting
        // f ← min(f, gf), local and over every vertex: the assign above
        // overwrites, so a hook can lift a non-root until these lower it.
        let uncond = cx.step(SpanKind::UncondHook, |cx| lower_all(cx.comm, f, &mngf.mn));
        let shortcut = cx.step(SpanKind::Shortcut, |cx| lower_all(cx.comm, f, gf));
        // Grandparent maintenance: gf[u] ← f[f[u]] via a planned extract,
        // noting the entries it changes for the next round's multiply.
        let refreshed = cx.step(SpanKind::Starcheck, |cx| {
            let (comm, dopts) = (&mut *cx.comm, &cx.opts.dist);
            let plan = plan_requests(comm, f.layout(), f.local(), dopts);
            let new_gf = comm.overlap_from(win, |c| dist_extract_planned(c, f, &plan, dopts));
            let origin = gf.range().0;
            for (o, (old, &new)) in gf.local_mut().iter_mut().zip(&new_gf).enumerate() {
                if *old != new {
                    *old = new;
                    mngf.changed.push(((origin + o) as Id, new));
                }
            }
            comm.charge_compute(new_gf.len() as u64 + 1);
            mngf.changed.len() as u64
        });
        [cond, uncond, shortcut, refreshed]
    }

    fn settle(&mut self, n: usize, changed: &[u64; 4]) -> (bool, usize) {
        self.mngf.changed_global = changed[3] as usize;
        fixpoint(n, changed)
    }
}

// --------------------------------------------------------------------------
// Label propagation
// --------------------------------------------------------------------------

/// Min-label propagation (the Liu–Tarjan "simple concurrent labeling"
/// family): every round, each vertex takes the minimum label in its
/// closed neighborhood via one min-semiring `mxv`. Converges in
/// eccentricity-of-the-minimum rounds — O(diameter) — with no pointer
/// forest, no hooks, and exactly one exchange per round, which makes it
/// the cheapest engine on low-diameter graphs and hopeless on paths.
/// Delta-driven and exact like `Fastsv`: labels never rise, so the
/// running minimum over the changed labels equals the full product, and a
/// vertex whose minimum did not drop already holds a label at or below it.
///
/// All work lands in the `cond` step bucket (one phase per round), and
/// the convergence payload is the one changed count. The state is each
/// vertex's minimum neighbor label and the labels the last round lowered.
pub(crate) struct LabelProp(RunningMin);

impl LabelProp {
    /// No label seen yet.
    pub(crate) fn new(cx: &EngineCtx<'_>) -> Self {
        LabelProp(RunningMin::new(cx))
    }
}

impl Rules<1> for LabelProp {
    /// The true bound is the diameter (< n); `max_iters` is sized for
    /// LACC's O(log n) trajectory and does not apply.
    fn max_rounds(n: usize, _opts: &LaccOpts) -> usize {
        n + 2
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        // mnf[u] ← min(mnf[u], min over neighbors v of f[v]), then
        // f[u] ← min(f[u], mnf[u]) where mnf dropped.
        let changed = cx.step(SpanKind::CondHook, |cx| {
            let low = self.0.absorb(cx, f);
            self.0.changed = lower(cx.comm, f, &low);
            self.0.changed.len() as u64
        });
        [changed, 0, 0, 0]
    }

    fn settle(&mut self, n: usize, changed: &[u64; 4]) -> (bool, usize) {
        self.0.changed_global = changed[0] as usize;
        fixpoint(n, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_parses_and_displays() {
        for (s, e) in [
            ("lacc", EngineSelect::Lacc),
            ("fastsv", EngineSelect::Fastsv),
            ("labelprop", EngineSelect::LabelProp),
        ] {
            assert_eq!(s.parse::<EngineSelect>().unwrap(), e);
            assert_eq!(e.to_string(), s);
        }
        // The selector is gone: `auto` is rejected like any other word, and
        // the error names exactly the three engines.
        for word in ["dijkstra", "auto"] {
            assert_eq!(
                word.parse::<EngineSelect>().unwrap_err(),
                format!("invalid engine: {word:?} is not one of lacc, fastsv, labelprop")
            );
        }
        assert_eq!(EngineSelect::default(), EngineSelect::Lacc);
    }
}
