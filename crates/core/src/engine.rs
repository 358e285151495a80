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
use dmsim::{Comm, Grid2d};
use driver::{fixpoint, log_round_bound, Rules, Step, Verdict};
use gblas::dist::{
    dist_apply_at, dist_assign, dist_extract, dist_extract_planned, dist_lower, dist_lower_all,
    dist_mxv_dense, dist_mxv_pull, dist_mxv_sparse, dist_root_all_quiet, dist_select, dist_set_at,
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
    /// Run options; engines read `dist`, `spmv_threshold` and their own
    /// knobs.
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
fn connect(comm: &mut Comm, f: &mut DistVec<Id>, mut edges: Vec<(Id, Id)>, opts: &DistOpts) -> u64 {
    for (v, _) in &mut edges {
        *v = f.get_local(*v as usize);
    }
    dist_assign(comm, f, &edges, MinUsize, opts) as u64
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
        dist_lower(comm, &mut self.mn, y.entries())
    }
}

// --------------------------------------------------------------------------
// LACC
// --------------------------------------------------------------------------

/// The paper's engine: Awerbuch–Shiloach in GraphBLAS with sparsity
/// exploitation (Lemmas 1–2) — conditional hooking fused with the
/// convergence detector, unconditional hooking where it can act, and
/// shortcutting, every round from the exact stars of the current forest.
pub(crate) struct Lacc {
    /// Star membership (Algorithm 6) of the active vertices: exact when the
    /// conditional hook reads it and after the starcheck that follows the
    /// hook; stale after the unconditional hook and the shortcut.
    star: DistVec<bool>,
    /// Grandparents `f[f[v]]` of the active vertices, as the last
    /// starcheck over `v` extracted them: exact for every active nonstar
    /// whenever `star` is, since no step writes inside a nonstar tree.
    gf: DistVec<Id>,
    /// Vertices not yet retired by Lemma 1.
    active: DistVec<bool>,
    /// Global count of active vertices, identical on every rank.
    active_global: usize,
    /// Whether the last round's unconditional hook or shortcut changed a
    /// parent anywhere: this round then refreshes `star` and `gf` first.
    stale: bool,
    /// Whether the last round ended with exactly one active root. Under
    /// Lemma-1 retirement its tree is then a whole component (DESIGN.md
    /// §5), which this round finishes without a conditional hook.
    one_root: bool,
}

impl Lacc {
    /// Every vertex an active singleton star.
    pub(crate) fn new(cx: &EngineCtx<'_>) -> Self {
        Lacc {
            star: DistVec::from_fn(cx.layout, cx.rank, |_| true),
            gf: DistVec::from_fn(cx.layout, cx.rank, |g| g as Id),
            active: DistVec::from_fn(cx.layout, cx.rank, |_| true),
            active_global: cx.n(),
            stale: false,
            one_root: false,
        }
    }
}

/// LACC's fourth convergence lane: the vertices a round retired in the low
/// 32 bits, the active roots at its end in the high 32. Both count
/// vertices, and `crate::dist::run` refuses a graph with more than
/// `u32::MAX` of them, so the lane's sum over ranks never carries from one
/// half into the other.
fn pack_lane(retired: u64, roots: u64) -> u64 {
    debug_assert!(retired <= u64::from(u32::MAX) && roots <= u64::from(u32::MAX));
    retired | roots << 32
}

/// [`pack_lane`]'s halves, `(retired, roots)`, of a lane summed over ranks.
fn unpack_lane(lane: u64) -> (u64, u64) {
    (lane & u64::from(u32::MAX), lane >> 32)
}

/// The roots (`f[v] = v`) among the local offsets `of`.
fn count_roots<'a>(f: &DistVec<Id>, of: impl IntoIterator<Item = &'a usize>) -> u64 {
    let own = |o: usize| f.global_of(o) as Id;
    of.into_iter().filter(|&&o| f.local()[o] == own(o)).count() as u64
}

/// Star recomputation (Algorithm 6) over the local offsets `targets`:
/// `star[v] ← (f[v] = f[f[v]]) ∧ star[f[v]]`, with the grandparents of
/// non-star vertices demoted in between; `gf[v] ← f[f[v]]`.
///
/// Exact when `targets` are whole trees and every other active vertex is
/// a nonstar already marked so: their demotions would land inside their
/// own trees, on entries that are already `false`.
fn starcheck(
    comm: &mut Comm,
    f: &DistVec<Id>,
    star: &mut DistVec<bool>,
    targets: &[usize],
    gf: &mut DistVec<Id>,
    dopts: &DistOpts,
) {
    // The reset pass builds the grandparent extract's requests, so the
    // extract streams behind it (`win`); both extracts share one plan.
    let win = comm.overlap_window();
    let mut reqs = Vec::with_capacity(targets.len());
    dist_apply_at(comm, star, targets, |k, s| {
        *s = true;
        reqs.push(f.local()[targets[k]]);
    });
    let plan = plan_requests(comm, f.layout(), &reqs, dopts);
    let (fx, gfs) = comm.overlap_from(win, |c| {
        let fx = FusedExtract::begin(c, &plan, dopts);
        let gfs = fx.extract(c, f);
        (fx, gfs)
    });
    let mut demote: Vec<(Id, bool)> = Vec::new();
    dist_apply_at(comm, star, targets, |k, s| {
        let (o, g) = (targets[k], gfs[k]);
        gf.local_mut()[o] = g;
        if f.local()[o] != g {
            *s = false;
            demote.push((g, false));
        }
    });
    dist_assign(comm, star, &demote, AndBool, dopts);
    // star[v] ← star[v] ∧ star[f[v]], read *after* the demote assign.
    let parent_star = fx.extract(comm, star);
    dist_apply_at(comm, star, targets, |k, s| *s = *s && parent_star[k]);
}

impl Rules<4> for Lacc {
    fn max_rounds(n: usize) -> usize {
        log_round_bound(n)
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        let (star, gf, active) = (&mut self.star, &mut self.gf, &mut self.active);
        let (layout, rank, n) = (cx.layout, cx.rank, cx.n());
        // The cond-hook's one dispatch (§V-A), on the allreduced active count.
        let spmv_dense = self.active_global as f64 >= cx.opts.spmv_threshold * n as f64;
        (cx.round.active_before, cx.round.spmv_dense) = (self.active_global, spmv_dense);
        cx.round.mxv_nvals = if spmv_dense { n } else { self.active_global };

        // Refresh: the last round moved parents after its last starcheck.
        if self.stale {
            cx.step(Step::Starcheck, |cx| {
                let targets: Vec<usize> = (0..gf.local().len())
                    .filter(|&o| active.local()[o])
                    .collect();
                starcheck(cx.comm, f, star, &targets, gf, &cx.opts.dist)
            });
        }

        // The last active tree is a whole component (DESIGN.md §5), so no
        // hook can change it: it retires once a star and shortcuts until
        // then. The exact stars above mark one tree all alike, so each rank
        // reads the verdict off its own vertices, with no message.
        if self.one_root && cx.opts.use_sparsity {
            (cx.round.spmv_dense, cx.round.mxv_nvals) = (false, 0);
            return cx.step(Step::Shortcut, |cx| {
                let (stars, _, nonstars) = dist_select(cx.comm, active, star, f);
                debug_assert!(stars.is_empty() || nonstars.is_empty());
                // A retired star leaves no root; the run ends with it, so
                // `active` keeps its bits.
                let roots = count_roots(f, &nonstars);
                let pairs = nonstars.iter().map(|&o| (o, gf.local()[o]));
                let shortcut = dist_set_at::<_, Id>(cx.comm, f, pairs).len() as u64;
                [0, 0, shortcut, pack_lane(stars.len() as u64, roots)]
            });
        }

        // Step 1 — conditional hooking fused with the convergence detector:
        // q = A ⊗ f on the (min, max) monoid over the active stars (see
        // `crate::serial`), Lemma 1 retires the stars that saw no other
        // label, and the rest hook: f[f[v]] ← min(f[v], q[v].min).
        let (cond, retired, hooking) = cx.step(Step::CondHook, |cx| {
            let (comm, a, dopts) = (&mut *cx.comm, &cx.a, &cx.opts.dist);
            let active_stars =
                DistVec::from_fn(layout, rank, |g| star.get_local(g) && active.get_local(g));
            let mask = DistMask::Keep(&active_stars);
            // The posted mxv's exchange time hides behind the Lemma-1
            // select and plan done before the wait.
            let qh = if spmv_dense {
                let x = DistVec::from_fn(layout, rank, |g| (f.get_local(g), f.get_local(g)));
                comm.post(|c| dist_mxv_dense(c, a, &x, mask, MinMaxUsize, dopts))
            } else {
                let entries = (0..f.local().len())
                    .filter(|&o| active.local()[o])
                    .map(|o| (f.global_of(o) as Id, (f.local()[o], f.local()[o])))
                    .collect();
                let x = DistSpVec::from_local_entries(layout, rank, entries);
                comm.post(|c| dist_mxv_sparse(c, a, &x, mask, MinMaxUsize, dopts))
            };
            let (stars, roots, _) = dist_select(comm, active, star, f);
            let lemma1 = cx.opts.use_sparsity;
            let plan = lemma1.then(|| plan_requests(comm, f.layout(), &roots, dopts));
            let q = qh.wait(comm);
            let noisy = q.entries().iter().filter_map(|&(v, (lo, hi))| {
                let fv = f.get_local(v as usize);
                (lo != fv || hi != fv).then_some(fv)
            });
            let (hooking, retired) = match plan {
                Some(plan) => dist_root_all_quiet(comm, noisy, &plan, stars, active, dopts),
                None => (stars, 0),
            };
            // Hooks of just-retired vertices would be no-ops; skip them.
            let edges = q
                .entries()
                .iter()
                .filter(|&&(v, _)| active.get_local(v as usize))
                .map(|&(v, (lo, _))| (v, lo.min(f.get_local(v as usize))))
                .collect();
            (connect(comm, f, edges, dopts), retired, hooking)
        });
        // The hook wrote parents only at hooking stars' roots, so only their
        // trees changed shape: a nonstar tree stays one whatever hooks onto
        // it, and its vertices keep their exact `false` and `gf` (their
        // parents are never star roots). So this starcheck is exact.
        cx.step(Step::Starcheck, |cx| {
            starcheck(cx.comm, f, star, &hooking, gf, &cx.opts.dist)
        });

        // Step 2 — unconditional hooking (Algorithm 4, Lemma 2): f[f[v]] ←
        // the least parent among v's *nonstar* neighbors, v in an active
        // star, as a pull folding only the star rows. The active star and
        // nonstar counts decide whether it runs ([`UncondHook::choose`]).
        let (uncond, hook) = cx.step(Step::UncondHook, |cx| {
            let (comm, dopts) = (&mut *cx.comm, &cx.opts.dist);
            let (stars, _, nonstars) = dist_select(comm, active, star, f);
            let world = comm.world();
            let counts = [stars.len() as u64, nonstars.len() as u64];
            let [stars, nonstars] =
                comm.allreduce(&world, counts, |x, y| [x[0] + y[0], x[1] + y[1]]);
            let hook = UncondHook::choose(stars, nonstars);
            if hook == UncondHook::Skipped {
                return (0, hook);
            }
            let kept = dist_mxv_pull(comm, &cx.a, active, star, f, MinUsize, dopts);
            (connect(comm, f, kept, dopts), hook)
        });
        cx.round.uncond_hook = hook;

        // Step 3 — shortcutting: f[v] ← f[f[v]] on the active nonstars,
        // read from `gf` (the uncond-hook, too, writes only star roots), and
        // on the active stars when the uncond-hook ran (a hooked star's
        // members sit at depth 2). The next round refreshes the stars. A
        // shortcut moves no root, so the active roots are counted here.
        let (shortcut, roots) = cx.step(Step::Shortcut, |cx| {
            let (comm, dopts) = (&mut *cx.comm, &cx.opts.dist);
            let win = comm.overlap_window();
            let (stars, roots, nonstars) = dist_select(comm, active, star, f);
            let active_roots = count_roots(f, stars.iter().chain(&nonstars));
            // Read before any nonstar moves: a hooked root's new parent may be
            // one. Every rank has the same `hook`, so all join or none does.
            let star_gfs = if hook == UncondHook::Pull {
                comm.overlap_from(win, |c| dist_extract(c, f, &roots, dopts))
            } else {
                Vec::new()
            };
            let nonstar_gfs = nonstars.iter().map(|&o| (o, gf.local()[o]));
            let pairs = nonstar_gfs.chain(stars.into_iter().zip(star_gfs));
            let shortcut = dist_set_at::<_, Id>(comm, f, pairs).len() as u64;
            (shortcut, active_roots)
        });
        [cond, uncond, shortcut, pack_lane(retired, roots)]
    }

    fn settle(&mut self, n: usize, changed: &mut [u64; 4]) -> Verdict {
        let (retired, roots) = unpack_lane(changed[3]);
        changed[3] = retired;
        self.active_global -= retired as usize;
        // Every round read exact stars, so one that changed no parent is a
        // proven fixpoint; one that retired every vertex left nothing to run.
        let done = self.active_global == 0 || changed[..3].iter().sum::<u64>() == 0;
        self.stale = changed[1] + changed[2] > 0;
        self.one_root = roots == 1;
        Verdict {
            done,
            converged_after: n - self.active_global,
            active_roots: roots as usize,
        }
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
    fn max_rounds(n: usize) -> usize {
        log_round_bound(n)
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        let (gf, mngf) = (&mut self.gf, &mut self.mngf);
        // mngf[u] ← min(mngf[u], min over neighbors v of gf[v]), then
        // stochastic hooking f[f[u]] ← min(f[u], mngf[u]) where mngf
        // dropped. The refresh at the end of the round pipelines behind the
        // two elementwise loops in between (`win`).
        let (cond, win) = cx.step(Step::CondHook, |cx| {
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
        let uncond = cx.step(Step::UncondHook, |cx| dist_lower_all(cx.comm, f, &mngf.mn));
        let shortcut = cx.step(Step::Shortcut, |cx| dist_lower_all(cx.comm, f, gf));
        // Grandparent maintenance: gf[u] ← f[f[u]] via a planned extract,
        // noting the entries it changes for the next round's multiply.
        let refreshed = cx.step(Step::Starcheck, |cx| {
            let (comm, dopts) = (&mut *cx.comm, &cx.opts.dist);
            let plan = plan_requests(comm, f.layout(), f.local(), dopts);
            let new_gf = comm.overlap_from(win, |c| dist_extract_planned(c, f, &plan, dopts));
            mngf.changed = dist_set_at(comm, gf, new_gf.into_iter().enumerate());
            mngf.changed.len() as u64
        });
        [cond, uncond, shortcut, refreshed]
    }

    fn settle(&mut self, n: usize, changed: &mut [u64; 4]) -> Verdict {
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
/// the convergence payload is the one changed count.
pub(crate) struct LabelProp(RunningMin);

impl LabelProp {
    /// No label seen yet.
    pub(crate) fn new(cx: &EngineCtx<'_>) -> Self {
        LabelProp(RunningMin::new(cx))
    }
}

impl Rules<1> for LabelProp {
    /// The true bound is the diameter (< n), not the O(log n) of LACC and
    /// FastSV.
    fn max_rounds(n: usize) -> usize {
        n + 2
    }

    fn round(&mut self, cx: &mut EngineCtx<'_>, f: &mut DistVec<Id>) -> [u64; 4] {
        // mnf[u] ← min(mnf[u], min over neighbors v of f[v]), then
        // f[u] ← min(f[u], mnf[u]) where mnf dropped.
        let changed = cx.step(Step::CondHook, |cx| {
            let low = self.0.absorb(cx, f);
            self.0.changed = dist_lower(cx.comm, f, &low);
            self.0.changed.len() as u64
        });
        [changed, 0, 0, 0]
    }

    fn settle(&mut self, n: usize, changed: &mut [u64; 4]) -> Verdict {
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

    #[test]
    fn packed_lane_carries_both_counts_up_to_u32_max() {
        let max = u64::from(u32::MAX);
        assert_eq!(unpack_lane(pack_lane(max, max)), (max, max));
        assert_eq!(unpack_lane(pack_lane(max, 0)), (max, 0));
        assert_eq!(unpack_lane(pack_lane(0, max)), (0, max));
        // Summed over ranks, as the convergence allreduce sums it: halves
        // that reach u32::MAX together carry nothing into each other.
        let ranks = [(max - 7, 1), (5, max - 3), (2, 2)];
        let sum: u64 = ranks.iter().map(|&(r, a)| pack_lane(r, a)).sum();
        assert_eq!(unpack_lane(sum), (max, max));
        let sum = pack_lane(max, 0) + pack_lane(0, 1);
        assert_eq!(unpack_lane(sum), (max, 1));
    }
}
