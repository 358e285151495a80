//! The engine portfolio: pluggable distributed connected-components
//! algorithms behind one [`CcEngine`] trait.
//!
//! LACC is one point in a family of linear-algebraic CC algorithms. This
//! module makes the algorithm a runtime choice over a shared SPMD context
//! ([`EngineCtx`]: grid, vector layout, distributed matrix, [`LaccOpts`])
//! so every engine inherits the full optimized `gblas::dist` stack — the
//! compact wire format, overlap, tracing, narrow `Idx` indices — for free:
//!
//! * [`LaccEngine`] — the paper's Awerbuch–Shiloach formulation with
//!   Lemma-1 converged-component retirement; fastest when the graph has
//!   many components to retire.
//! * [`FastsvEngine`] — FastSV (Zhang, Azad & Hu): stochastic hooking,
//!   aggressive hooking, and shortcutting on a grandparent vector; no
//!   star machinery, so fewer and cheaper supersteps per round on graphs
//!   dominated by one giant component.
//! * [`LabelPropEngine`] — one closed-neighborhood min per round;
//!   converges in O(diameter) rounds, unbeatable on low-diameter graphs.
//!
//! [`EngineSelect::Auto`] picks between them from a cheap pre-pass
//! ([`lacc_graph::stats::PrepassStats`]) computed *distributed* in one
//! allreduce: deterministic BFS seeds are split round-robin across ranks
//! and the partial eccentricity/reach maxima merge by max, so every rank
//! agrees on the choice without a coordinator.
//!
//! Engines converge to different (equally valid) representatives: LACC
//! labels are tree-root ids, FastSV and label propagation converge to
//! component *minima*. Cross-engine label comparisons must canonicalize
//! first (`lacc_graph::unionfind::canonicalize_labels`) — the engine
//! matrix tests do exactly that.

use crate::narrow::NarrowPlanner;
use crate::options::{LaccOpts, OptsError};
use crate::stats::StepBreakdown;
use crate::Vid;
use dmsim::{Comm, EngineKind, Grid2d, SpanKind, WireWord};
use gblas::dist::{
    dist_assign, dist_extract, dist_extract_planned, dist_mxv, dist_mxv_dense,
    dist_mxv_dense_start, dist_mxv_start, plan_requests, DistMask, DistMat, DistOpts, DistSpVec,
    DistVec, FusedExtract, NarrowVal, VecLayout, Wire,
};
use gblas::{AndBool, MinUsize};
use lacc_graph::permute::Permutation;
use lacc_graph::stats::{bfs_eccentricity, degree_skew, prepass_seeds, PrepassStats};
use lacc_graph::{CsrGraph, Idx};

/// Which engine a run should use — the `--engine` CLI vocabulary.
///
/// The default is [`EngineSelect::Lacc`], preserving the bit-identity
/// guarantees every existing caller relies on; `Auto` defers the choice
/// to [`choose_engine`] over a sampled pre-pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineSelect {
    /// Always run LACC (Awerbuch–Shiloach with Lemma-1 retirement).
    #[default]
    Lacc,
    /// Always run FastSV.
    Fastsv,
    /// Always run min-label propagation.
    LabelProp,
    /// Pick from graph statistics (see [`choose_engine`]).
    Auto,
}

impl std::fmt::Display for EngineSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineSelect::Lacc => "lacc",
            EngineSelect::Fastsv => "fastsv",
            EngineSelect::LabelProp => "labelprop",
            EngineSelect::Auto => "auto",
        })
    }
}

impl std::str::FromStr for EngineSelect {
    type Err = OptsError;

    fn from_str(s: &str) -> Result<Self, OptsError> {
        match s {
            "lacc" => Ok(EngineSelect::Lacc),
            "fastsv" => Ok(EngineSelect::Fastsv),
            "labelprop" => Ok(EngineSelect::LabelProp),
            "auto" => Ok(EngineSelect::Auto),
            other => Err(OptsError::new(
                "engine",
                format!("{other:?} is not one of lacc, fastsv, labelprop, auto"),
            )),
        }
    }
}

/// Static properties of an engine, for dispatch decisions and docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineCaps {
    /// Retires converged components mid-run (Lemma 1), shrinking the
    /// active set — the win on many-component graphs.
    pub sparsifies_active_set: bool,
    /// Maintains star membership (Algorithm 6) — extra supersteps per
    /// iteration.
    pub uses_starcheck: bool,
    /// Labels converge to the component *minimum* id (LACC's tree roots
    /// are arbitrary representatives instead).
    pub monotone_min_labels: bool,
    /// Round count is bounded by the graph diameter rather than
    /// O(log n) — only acceptable on low-diameter graphs.
    pub rounds_bounded_by_diameter: bool,
}

/// Per-rank, per-iteration record produced inside an engine's SPMD body.
///
/// The four [`StepBreakdown`] buckets keep the Figure-8 reporting schema
/// across engines; non-LACC engines map their phases onto the closest
/// bucket (documented on each engine).
#[derive(Clone, Debug, Default)]
pub struct EngineIter {
    /// Vertices still active at iteration start (always `n` for engines
    /// without Lemma-1 retirement).
    pub active_before: usize,
    /// Cumulative vertices known converged after the iteration.
    pub converged_after: usize,
    /// Whether the main `mxv` took the dense (SpMV) path.
    pub spmv_dense: bool,
    /// Updates applied in the "conditional hooking" bucket.
    pub cond_changed: u64,
    /// Updates applied in the "unconditional hooking" bucket.
    pub uncond_changed: u64,
    /// Updates applied in the "shortcutting" bucket.
    pub shortcut_changed: u64,
    /// Modeled per-step seconds (thin view over trace spans).
    pub modeled: StepBreakdown,
    /// Extract requests this rank received during the iteration.
    pub extract_received: u64,
}

/// What one rank's engine run produced.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Full label vector, on rank 0 only (widened to [`Vid`]).
    pub labels: Option<Vec<Vid>>,
    /// Per-iteration records.
    pub iters: Vec<EngineIter>,
    /// The rank's final modeled clock.
    pub final_clock_s: f64,
}

/// The shared SPMD context every engine runs over: one rank's view of the
/// distributed matrix, the vector layout, and the run options. Built once
/// per rank by the unified [`crate::dist::run`] entry and handed to
/// whichever engine the dispatcher picked.
pub struct EngineCtx<'a, I: Idx> {
    /// The rank's communicator (cost model, collectives, trace spans).
    pub comm: &'a mut Comm,
    /// The input graph in the caller's numbering, borrowed and shared by
    /// every rank. Engines compute on [`a`](Self::a), the rank's block of
    /// the (optionally relabeled) matrix, and never on this.
    pub graph: &'a CsrGraph,
    /// Run options; engines read `dist`, `max_iters`, and their own knobs.
    pub opts: &'a LaccOpts,
    /// The 2D process grid.
    pub grid: Grid2d,
    /// Vector layout (blocked or cyclic per `opts.cyclic_vectors`).
    pub layout: VecLayout,
    /// This rank's id.
    pub rank: usize,
    /// This rank's block of the adjacency matrix.
    pub a: DistMat<I>,
}

impl<'a, I: Idx> EngineCtx<'a, I> {
    /// Builds the context for one rank: square grid, layout per options,
    /// and the rank's matrix block — relabeled by `perm` when the run
    /// load-balances, built straight from `graph` either way.
    pub fn new(
        comm: &'a mut Comm,
        graph: &'a CsrGraph,
        perm: Option<&Permutation>,
        opts: &'a LaccOpts,
    ) -> Self {
        let p = comm.size();
        let grid = Grid2d::square(p);
        let n = graph.num_vertices();
        let layout = if opts.cyclic_vectors {
            VecLayout::cyclic(n, grid)
        } else {
            VecLayout::new(n, grid)
        };
        let rank = comm.rank();
        let a = match perm {
            Some(perm) => DistMat::<I>::from_graph_permuted(graph, perm, grid, rank),
            None => DistMat::<I>::from_graph(graph, grid, rank),
        };
        EngineCtx {
            comm,
            graph,
            opts,
            grid,
            layout,
            rank,
            a,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.num_vertices()
    }
}

/// A distributed connected-components engine over the shared context.
///
/// Contract: `run` executes one rank's share of an SPMD program; all
/// ranks execute the same iteration count (engines agree via allreduce),
/// rank 0 returns the full widened label vector, and the labels induce
/// the true component partition (property-tested in
/// `tests/engine_matrix.rs` across engines × comm configs × layouts ×
/// index widths).
pub trait CcEngine<I: Idx + WireWord + NarrowVal> {
    /// Which engine this is (tags the run's trace span).
    fn kind(&self) -> EngineKind;

    /// Stable lowercase name (`lacc`, `fastsv`, `labelprop`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Static capability flags.
    fn caps(&self) -> EngineCaps;

    /// One rank's share of the run.
    fn run(&self, ctx: &mut EngineCtx<'_, I>) -> EngineRun;
}

/// The engine implementation for a resolved [`EngineKind`].
pub fn engine_for<I: Idx + WireWord + NarrowVal>(kind: EngineKind) -> &'static dyn CcEngine<I> {
    match kind {
        EngineKind::Lacc => &LaccEngine,
        EngineKind::Fastsv => &FastsvEngine,
        EngineKind::LabelProp => &LabelPropEngine,
    }
}

/// Capability flags for a resolved [`EngineKind`] without monomorphizing
/// a trait object (the flags are width-independent).
pub fn caps_for(kind: EngineKind) -> EngineCaps {
    engine_for::<usize>(kind).caps()
}

// --------------------------------------------------------------------------
// Auto selection
// --------------------------------------------------------------------------

/// BFS seeds sampled by the `Auto` pre-pass.
pub const AUTO_SAMPLES: usize = 8;
/// Seed for the deterministic pre-pass sample.
pub const AUTO_SEED: u64 = 0x005E_EDCC;
/// Sampled diameter at or below which label propagation is considered.
pub const AUTO_LABELPROP_MAX_DIAMETER: usize = 8;
/// Sampled reach fraction above which one giant component is assumed to
/// dominate (few components → Lemma-1 retirement buys little).
pub const AUTO_GIANT_FRACTION: f64 = 0.45;

/// The `Auto` policy: maps pre-pass statistics to an engine, with a
/// human-readable rationale for reports and traces.
///
/// * Low sampled diameter **and** a dominant component → label
///   propagation (O(diameter) cheap rounds, no pointer forest at all).
/// * Dominant component but non-trivial diameter → FastSV (fewer,
///   cheaper supersteps than LACC; nothing to retire anyway).
/// * Otherwise (reach is fragmented → many components) → LACC, whose
///   Lemma-1 retirement shrinks the active set every iteration.
pub fn choose_engine(stats: &PrepassStats) -> (EngineKind, String) {
    if stats.diameter_estimate <= AUTO_LABELPROP_MAX_DIAMETER
        && stats.reached_fraction >= AUTO_GIANT_FRACTION
    {
        (
            EngineKind::LabelProp,
            format!(
                "sampled diameter {} <= {} with a dominant component ({:.0}% reached): \
                 label propagation converges in O(diameter) cheap rounds",
                stats.diameter_estimate,
                AUTO_LABELPROP_MAX_DIAMETER,
                stats.reached_fraction * 100.0
            ),
        )
    } else if stats.reached_fraction >= AUTO_GIANT_FRACTION {
        (
            EngineKind::Fastsv,
            format!(
                "one component dominates ({:.0}% reached, sampled diameter {}): \
                 FastSV's hooking beats star maintenance when there is little to retire",
                stats.reached_fraction * 100.0,
                stats.diameter_estimate
            ),
        )
    } else {
        (
            EngineKind::Lacc,
            format!(
                "sampled reach only {:.0}% (many components likely, degree skew {:.1}): \
                 LACC retires converged components via Lemma 1",
                stats.reached_fraction * 100.0,
                stats.degree_skew
            ),
        )
    }
}

/// The `Auto` pre-pass, computed distributed in **one** exchange: every
/// rank derives the same deterministic seed list, BFSes its round-robin
/// share, and a single max-allreduce merges the partial eccentricity and
/// reach maxima. Degree statistics are computed locally (the graph is
/// shared, so they are identical on every rank and cost no
/// communication).
///
/// The seeds are ids in the numbering the engines run in, so under a
/// load-balancing `perm` each is mapped back through the inverse and the
/// BFS runs on the unpermuted `g` — eccentricity, reach and degrees are
/// relabeling-invariant. The result is bit-identical to the serial
/// [`lacc_graph::stats::prepass_stats`] of the permuted graph with the
/// same `samples`/`seed`.
pub fn distributed_prepass(
    comm: &mut Comm,
    g: &CsrGraph,
    perm: Option<&Permutation>,
    samples: usize,
    seed: u64,
) -> PrepassStats {
    let n = g.num_vertices();
    let p = comm.size();
    let rank = comm.rank();
    let seeds = prepass_seeds(n, samples, seed);
    let mut ecc = 0usize;
    let mut reached_max = 0usize;
    let avg_degree = g.average_degree();
    for (i, &s) in seeds.iter().enumerate() {
        if i % p != rank {
            continue;
        }
        let (e, r) = bfs_eccentricity(g, perm.map_or(s, |perm| perm.invert(s)));
        ecc = ecc.max(e);
        reached_max = reached_max.max(r);
        comm.charge_compute((r as f64 * (1.0 + avg_degree)) as u64 + 1);
    }
    let world = comm.world();
    let merged = comm.allreduce(&world, [ecc as u64, reached_max as u64], |a, b| {
        [a[0].max(b[0]), a[1].max(b[1])]
    });
    let skew = degree_skew(g);
    comm.charge_compute(n as u64 + 1);
    PrepassStats {
        samples: seeds.len(),
        diameter_estimate: merged[0] as usize,
        reached_fraction: if n == 0 {
            1.0
        } else {
            merged[1] as f64 / n as f64
        },
        degree_skew: skew,
        avg_degree,
    }
}

/// Resolves an [`EngineSelect`] to a concrete engine inside the SPMD
/// body. `Auto` runs the distributed pre-pass under an `engine_select`
/// trace span and returns the selection rationale; fixed choices are
/// free. All ranks resolve identically (the pre-pass is deterministic
/// and max-merged), so no rank ever disagrees on the engine.
pub fn resolve_engine(
    comm: &mut Comm,
    g: &CsrGraph,
    perm: Option<&Permutation>,
    select: EngineSelect,
) -> (EngineKind, Option<String>) {
    match select {
        EngineSelect::Lacc => (EngineKind::Lacc, None),
        EngineSelect::Fastsv => (EngineKind::Fastsv, None),
        EngineSelect::LabelProp => (EngineKind::LabelProp, None),
        EngineSelect::Auto => {
            let span = comm.span_open(SpanKind::EngineSelect);
            let stats = distributed_prepass(comm, g, perm, AUTO_SAMPLES, AUTO_SEED);
            comm.span_close(span);
            let (kind, why) = choose_engine(&stats);
            (kind, Some(why))
        }
    }
}

// --------------------------------------------------------------------------
// LACC
// --------------------------------------------------------------------------

/// The paper's engine: Awerbuch–Shiloach in GraphBLAS with sparsity
/// exploitation (Lemmas 1–2) — conditional hooking fused with the
/// convergence detector, unconditional hooking, shortcutting, and star
/// maintenance after every forest mutation.
pub struct LaccEngine;

/// Star recomputation (Algorithm 6) over distributed vectors.
///
/// Returns the number of extract requests this rank received (Figure 3).
fn starcheck_dist<I: Idx + WireWord + NarrowVal>(
    comm: &mut Comm,
    f: &DistVec<I>,
    star: &mut DistVec<bool>,
    active: &[bool],
    dist_opts: &DistOpts,
) -> u64 {
    // The active scan, star reset and request build produce the
    // grandparent extract's inputs elementwise, so the first exchange is
    // window-credited for streaming behind them (see `DistOpts::overlap`).
    let win = comm.overlap_window();
    let local_active: Vec<usize> = (0..active.len()).filter(|&o| active[o]).collect();
    for &o in &local_active {
        star.local_mut()[o] = true;
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    // Grandparents of active vertices: gf[v] = f[f[v]]. Both extracts
    // below use the identical request list over same-layout vectors, so
    // the owner bucketing (and dedup) is planned once and reused.
    let reqs: Vec<I> = local_active.iter().map(|&o| f.local()[o]).collect();
    let plan = plan_requests(comm, f.layout(), &reqs, dist_opts);
    if dist_opts.wire == Wire::Compact {
        // Fused: one combining request exchange serves both reply phases
        // (the route is replayed). The parent-star phase reads `star`
        // *after* the demote assign, exactly as the unfused pair does.
        let (fx, gfs) = comm.overlap_from(win, dist_opts.overlap, |c| {
            let fx = FusedExtract::begin(c, &plan);
            let gfs = fx.extract(c, f, &plan);
            (fx, gfs)
        });
        let mut demote: Vec<(I, bool)> = Vec::new();
        for (&o, &gf) in local_active.iter().zip(&gfs) {
            if f.local()[o] != gf {
                star.local_mut()[o] = false;
                demote.push((gf, false));
            }
        }
        comm.charge_compute(local_active.len() as u64 + 1);
        dist_assign(comm, star, &demote, AndBool, dist_opts);
        let parent_star = fx.extract(comm, star, &plan);
        for (&o, &ps) in local_active.iter().zip(&parent_star) {
            star.local_mut()[o] = star.local_mut()[o] && ps;
        }
        comm.charge_compute(local_active.len() as u64 + 1);
        // Requests arrive once on this path; count them once.
        return fx.received();
    }
    let (gfs, st1) = comm.overlap_from(win, dist_opts.overlap, |c| {
        dist_extract_planned(c, f, &plan, dist_opts)
    });
    let mut demote: Vec<(I, bool)> = Vec::new();
    for (&o, &gf) in local_active.iter().zip(&gfs) {
        if f.local()[o] != gf {
            star.local_mut()[o] = false;
            demote.push((gf, false));
        }
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    dist_assign(comm, star, &demote, AndBool, dist_opts);
    // star[v] ← star[v] ∧ star[f[v]].
    let (parent_star, st2) = dist_extract_planned(comm, star, &plan, dist_opts);
    for (&o, &ps) in local_active.iter().zip(&parent_star) {
        star.local_mut()[o] = star.local_mut()[o] && ps;
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    st1.received_requests + st2.received_requests
}

impl<I: Idx + WireWord + NarrowVal> CcEngine<I> for LaccEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Lacc
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            sparsifies_active_set: true,
            uses_starcheck: true,
            monotone_min_labels: false,
            rounds_bounded_by_diameter: false,
        }
    }

    fn run(&self, ctx: &mut EngineCtx<'_, I>) -> EngineRun {
        let n = ctx.n();
        let opts = ctx.opts;
        let layout = ctx.layout;
        let rank = ctx.rank;
        let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
        let mut star: DistVec<bool> = DistVec::from_fn(layout, rank, |_| true);
        let chunk_len = f.local().len();
        let mut active = vec![true; chunk_len];
        let mut active_count_global = n;
        let world = ctx.comm.world();
        let mut iters: Vec<EngineIter> = Vec::new();
        // Star staleness bookkeeping, mirroring `crate::serial`: a
        // zero-change iteration proves a fixpoint only if the previous
        // shortcut changed nothing (the star vector was fresh).
        let mut prev_shortcut_changed = 0u64;
        // Label-range narrowing: the planner installs on the communicator
        // the wire tier for the upcoming iteration's exchanges. Iteration 1
        // is seeded for free from the identity labeling; later iterations
        // re-plan from the probe piggybacked on the convergence allreduce.
        let dopts = &opts.dist;
        let planner = NarrowPlanner::new(dopts);
        let seed = planner.seed_probe(n);
        planner.plan(ctx.comm, &world, seed[0], seed[1], false, f.local());

        for _iteration in 1..=opts.max_iters {
            let mut rec = EngineIter {
                active_before: active_count_global,
                ..Default::default()
            };
            // --- Step 1: conditional hooking, fused with the convergence
            // detector (one (min, max)-monoid mxv; see `crate::serial`) ---
            // Each step opens a trace span; the close returns the modeled
            // duration, so StepBreakdown is a thin view over span timings.
            let span = ctx.comm.span_open(SpanKind::CondHook);
            let mask_vec: DistVec<bool> = {
                let mut m = star.clone();
                for (o, ml) in m.local_mut().iter_mut().enumerate() {
                    *ml = *ml && active[o];
                }
                m
            };
            let density = if n == 0 {
                0.0
            } else {
                active_count_global as f64 / n as f64
            };
            let use_dense = density >= opts.dense_threshold;
            rec.spmv_dense = use_dense;
            // The hooking mxv is *posted* (non-blocking): it runs now with
            // identical messages and charges, and the handle refunds its
            // hideable exchange time against the Lemma-1 candidate scan and
            // request planning below, which read only start-of-iteration
            // state and so genuinely overlap the exchange.
            let qh = if use_dense {
                let pairs: DistVec<(I, I)> =
                    DistVec::from_fn(layout, rank, |g| (f.get_local(g), f.get_local(g)));
                dist_mxv_dense_start(
                    ctx.comm,
                    &ctx.a,
                    &pairs,
                    DistMask::Keep(&mask_vec),
                    gblas::MinMaxUsize,
                    dopts,
                )
            } else {
                let entries: Vec<(I, (I, I))> = active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &act)| act)
                    .map(|(o, _)| (I::from_usize(f.global_of(o)), (f.local()[o], f.local()[o])))
                    .collect();
                let x = DistSpVec::from_local_entries(layout, rank, entries);
                // Adaptive dispatch (§V-A): even when the active fraction is
                // below `dense_threshold`, the measured fill decides whether
                // the local multiply runs SpMV- or SpMSpV-style.
                dist_mxv_start(
                    ctx.comm,
                    &ctx.a,
                    &x,
                    DistMask::Keep(&mask_vec),
                    gblas::MinMaxUsize,
                    dopts,
                )
            };
            // Lemma-1 candidates (active stars) and their extract plan
            // depend only on `active`/`star`/`f` as of iteration start —
            // computed while the posted mxv is in flight.
            let lemma1 = opts.use_sparsity.then(|| {
                let candidates: Vec<usize> = (0..chunk_len)
                    .filter(|&o| active[o] && star.local()[o])
                    .collect();
                let reqs: Vec<I> = candidates.iter().map(|&o| f.local()[o]).collect();
                ctx.comm.charge_compute(chunk_len as u64 + 1);
                let plan = plan_requests(ctx.comm, layout, &reqs, dopts);
                (candidates, plan)
            });
            let q: DistSpVec<(I, I), I> = qh.wait(ctx.comm);

            // Converged-component tracking (Lemma 1, strengthened;
            // evaluated on the start-of-iteration state, same rule as
            // `crate::serial`).
            let mut newly_converged = 0u64;
            if let Some((candidates, plan)) = &lemma1 {
                let mut root_quiet: DistVec<bool> = DistVec::from_fn(layout, rank, |_| true);
                let demote: Vec<(I, bool)> = q
                    .entries()
                    .iter()
                    .filter(|&&(v, (lo, hi))| {
                        let fv = f.get_local(v.idx());
                        !(lo == fv && hi == fv)
                    })
                    .map(|&(v, _)| (f.get_local(v.idx()), false))
                    .collect();
                dist_assign(ctx.comm, &mut root_quiet, &demote, AndBool, dopts);
                let (flags, st) = dist_extract_planned(ctx.comm, &root_quiet, plan, dopts);
                rec.extract_received += st.received_requests;
                for (&o, &quiet) in candidates.iter().zip(&flags) {
                    if quiet {
                        active[o] = false;
                        newly_converged += 1;
                    }
                }
                ctx.comm.charge_compute(chunk_len as u64 + 1);
            }

            // Conditional hooks from the fused sweep (skip just-deactivated
            // vertices; their hooks are no-ops).
            let updates: Vec<(I, I)> = q
                .entries()
                .iter()
                .filter(|&&(v, _)| active[f.local_offset(v.idx())])
                .map(|&(v, (lo, _))| {
                    let fv = f.get_local(v.idx());
                    (fv, lo.min(fv))
                })
                .collect();
            rec.cond_changed = dist_assign(ctx.comm, &mut f, &updates, MinUsize, dopts).0 as u64;
            rec.modeled.cond_s += ctx.comm.span_close(span);

            let span = ctx.comm.span_open(SpanKind::Starcheck);
            rec.extract_received += starcheck_dist(ctx.comm, &f, &mut star, &active, dopts);
            rec.modeled.starcheck_s += ctx.comm.span_close(span);

            // --- Step 2: unconditional hooking ---
            let span = ctx.comm.span_open(SpanKind::UncondHook);
            // The mxv input and mask are produced elementwise, so a real
            // implementation streams the gather sends while this loop runs;
            // the window credits the exchange for that pipelining.
            let win = ctx.comm.overlap_window();
            let entries: Vec<(I, I)> = active
                .iter()
                .enumerate()
                .filter(|&(o, &act)| act && !star.local()[o])
                .map(|(o, _)| (I::from_usize(f.global_of(o)), f.local()[o]))
                .collect();
            let x = DistSpVec::from_local_entries(layout, rank, entries);
            let mask_vec2: DistVec<bool> = {
                let mut m = star.clone();
                for (o, ml) in m.local_mut().iter_mut().enumerate() {
                    *ml = *ml && active[o];
                }
                m
            };
            ctx.comm.charge_compute(2 * chunk_len as u64 + 1);
            let fn2 = ctx.comm.overlap_from(win, dopts.overlap, |c| {
                dist_mxv(c, &ctx.a, &x, DistMask::Keep(&mask_vec2), MinUsize, dopts)
            });
            let updates2: Vec<(I, I)> = fn2
                .entries()
                .iter()
                .map(|&(v, m)| (f.get_local(v.idx()), m))
                .collect();
            rec.uncond_changed = dist_assign(ctx.comm, &mut f, &updates2, MinUsize, dopts).0 as u64;
            rec.modeled.uncond_s += ctx.comm.span_close(span);

            let span = ctx.comm.span_open(SpanKind::Starcheck);
            rec.extract_received += starcheck_dist(ctx.comm, &f, &mut star, &active, dopts);
            rec.modeled.starcheck_s += ctx.comm.span_close(span);

            // --- Step 3: shortcutting (active nonstars) ---
            let span = ctx.comm.span_open(SpanKind::Shortcut);
            // The target scan produces the extract's requests elementwise —
            // window-credited streaming, as in step 2.
            let win = ctx.comm.overlap_window();
            let targets: Vec<usize> = (0..chunk_len)
                .filter(|&o| active[o] && !star.local()[o])
                .collect();
            let reqs: Vec<I> = targets.iter().map(|&o| f.local()[o]).collect();
            ctx.comm.charge_compute(chunk_len as u64 + 1);
            let (gfs, st) = ctx
                .comm
                .overlap_from(win, dopts.overlap, |c| dist_extract(c, &f, &reqs, dopts));
            rec.extract_received += st.received_requests;
            for (&o, &gf) in targets.iter().zip(&gfs) {
                if f.local()[o] != gf {
                    f.local_mut()[o] = gf;
                    rec.shortcut_changed += 1;
                }
            }
            ctx.comm.charge_compute(targets.len() as u64 + 1);
            rec.modeled.shortcut_s += ctx.comm.span_close(span);

            // --- Global convergence test, with the narrowing probe
            // piggybacked (elements 4–5: max label word max-merged, local
            // distinct count summed). The payload is six words whether
            // narrowing is on or off, so `words_sent` cannot depend on the
            // flag; the probe compute is charged only when enabled.
            let probe = planner.local_probe(ctx.comm, f.local());
            let local = [
                rec.cond_changed,
                rec.uncond_changed,
                rec.shortcut_changed,
                newly_converged,
                probe[0],
                probe[1],
            ];
            let global = ctx.comm.allreduce(&world, local, |a, b| {
                [
                    a[0] + b[0],
                    a[1] + b[1],
                    a[2] + b[2],
                    a[3] + b[3],
                    a[4].max(b[4]),
                    a[5] + b[5],
                ]
            });
            rec.cond_changed = global[0];
            rec.uncond_changed = global[1];
            rec.shortcut_changed = global[2];
            active_count_global -= global[3] as usize;
            rec.converged_after = n - active_count_global;
            // Fixpoint only counts with a fresh star vector (see the serial
            // implementation's staleness note).
            let done = global[0] + global[1] + global[2] == 0 && prev_shortcut_changed == 0;
            prev_shortcut_changed = global[2];
            iters.push(rec);
            if done {
                break;
            }
            // Plan the next iteration's wire tier; a shortcut that moved
            // labels invalidates the dictionary (stale dense ranks still
            // decode, they just stop being tight).
            planner.plan(
                ctx.comm,
                &world,
                global[4],
                global[5],
                global[2] > 0,
                f.local(),
            );
        }

        // Widen back to `Vid` at the boundary: callers always see
        // full-width labels regardless of the in-run storage width.
        let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
        EngineRun {
            labels: (rank == 0).then_some(labels),
            iters,
            final_clock_s: ctx.comm.clock_s(),
        }
    }
}

// --------------------------------------------------------------------------
// FastSV
// --------------------------------------------------------------------------

/// FastSV (Zhang, Azad & Hu) as a first-class engine over the optimized
/// `gblas::dist` primitives: the min-semiring `mxv` computes each
/// vertex's minimum neighbor-grandparent, stochastic hooks route through
/// the combining `dist_assign`, and the grandparent refresh is a planned
/// extract (dedup + in-flight combining apply). Labels converge to
/// component minima.
///
/// Step-bucket mapping (Figure-8 schema reinterpreted): `cond` = the
/// `mxv` + stochastic hooking, `uncond` = aggressive hooking, `shortcut`
/// = shortcutting, `starcheck` = grandparent maintenance (the structural
/// analogue of LACC's star upkeep — the state that must be refreshed
/// after the forest mutates).
pub struct FastsvEngine;

impl<I: Idx + WireWord + NarrowVal> CcEngine<I> for FastsvEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Fastsv
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            sparsifies_active_set: false,
            uses_starcheck: false,
            monotone_min_labels: true,
            rounds_bounded_by_diameter: false,
        }
    }

    fn run(&self, ctx: &mut EngineCtx<'_, I>) -> EngineRun {
        let n = ctx.n();
        let opts = ctx.opts;
        let layout = ctx.layout;
        let rank = ctx.rank;
        let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
        let mut gf: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
        let nlocal = f.local().len();
        let world = ctx.comm.world();
        let max_rounds = 8 * (usize::BITS - n.leading_zeros()) as usize + 32;
        let mut iters: Vec<EngineIter> = Vec::new();
        // Narrowing plan for the upcoming round, seeded from the identity
        // labeling and refreshed off the convergence allreduce (see the
        // LACC engine). `gf` values are always current-or-earlier `f`
        // values, so one f-probe covers both exchanged vectors.
        let dopts = &opts.dist;
        let planner = NarrowPlanner::new(dopts);
        let seed = planner.seed_probe(n);
        planner.plan(ctx.comm, &world, seed[0], seed[1], false, f.local());
        loop {
            assert!(iters.len() < max_rounds, "FastSV did not converge");
            let mut rec = EngineIter {
                active_before: n,
                spmv_dense: true,
                ..Default::default()
            };

            // fn[u] = min over neighbors v of gf[v], then stochastic
            // hooking f[f[u]] ← min(f[f[u]], fn[u]).
            let span = ctx.comm.span_open(SpanKind::CondHook);
            let fn_vec: DistSpVec<I, I> =
                dist_mxv_dense(ctx.comm, &ctx.a, &gf, DistMask::None, MinUsize, dopts);
            let hooks: Vec<(I, I)> = fn_vec
                .entries()
                .iter()
                .map(|&(u, m)| {
                    let fu = f.get_local(u.idx());
                    (fu, m.min(fu))
                })
                .collect();
            rec.cond_changed = dist_assign(ctx.comm, &mut f, &hooks, MinUsize, dopts).0 as u64;
            rec.modeled.cond_s += ctx.comm.span_close(span);

            // The grandparent-refresh exchange below pipelines behind the
            // aggressive-hooking and shortcutting loops: both are
            // elementwise over f, so a real implementation streams the
            // refresh requests for early elements while later elements
            // still compute. The window measures that compute and credits
            // the exchange for it (when `DistOpts::overlap` is on).
            let win = ctx.comm.overlap_window();

            // Aggressive hooking: f[u] ← min(f[u], fn[u]) (local).
            let span = ctx.comm.span_open(SpanKind::UncondHook);
            for &(u, m) in fn_vec.entries() {
                if m < f.get_local(u.idx()) {
                    f.set_local(u.idx(), m);
                    rec.uncond_changed += 1;
                }
            }
            ctx.comm.charge_compute(fn_vec.local_nvals() as u64 + 1);
            rec.modeled.uncond_s += ctx.comm.span_close(span);

            // Shortcutting: f[u] ← min(f[u], gf[u]) (local).
            let span = ctx.comm.span_open(SpanKind::Shortcut);
            for o in 0..nlocal {
                if gf.local()[o] < f.local()[o] {
                    f.local_mut()[o] = gf.local()[o];
                    rec.shortcut_changed += 1;
                }
            }
            ctx.comm.charge_compute(nlocal as u64 + 1);
            rec.modeled.shortcut_s += ctx.comm.span_close(span);

            // Grandparent maintenance: gf[u] ← f[f[u]] via a planned
            // extract (requests dedup + combine like every other gather).
            let span = ctx.comm.span_open(SpanKind::Starcheck);
            let reqs: Vec<I> = f.local().to_vec();
            let plan = plan_requests(ctx.comm, f.layout(), &reqs, dopts);
            let (new_gf, st) = ctx.comm.overlap_from(win, dopts.overlap, |c| {
                dist_extract_planned(c, &f, &plan, dopts)
            });
            rec.extract_received += st.received_requests;
            let mut gf_changed = 0u64;
            for (o, &val) in new_gf.iter().enumerate() {
                if gf.local()[o] != val {
                    gf.local_mut()[o] = val;
                    gf_changed += 1;
                }
            }
            ctx.comm.charge_compute(nlocal as u64 + 1);
            rec.modeled.starcheck_s += ctx.comm.span_close(span);

            // Converged when a full round (hooks + shortcut + grandparent
            // refresh) changed nothing anywhere. Elements 4–5 piggyback
            // the narrowing probe (max-merged word, summed distinct
            // count); the payload is six words with narrowing on or off.
            let probe = planner.local_probe(ctx.comm, f.local());
            let local = [
                rec.cond_changed,
                rec.uncond_changed,
                rec.shortcut_changed,
                gf_changed,
                probe[0],
                probe[1],
            ];
            let global = ctx.comm.allreduce(&world, local, |a, b| {
                [
                    a[0] + b[0],
                    a[1] + b[1],
                    a[2] + b[2],
                    a[3] + b[3],
                    a[4].max(b[4]),
                    a[5] + b[5],
                ]
            });
            rec.cond_changed = global[0];
            rec.uncond_changed = global[1];
            rec.shortcut_changed = global[2];
            let done = global[..4].iter().sum::<u64>() == 0;
            rec.converged_after = if done { n } else { 0 };
            iters.push(rec);
            if done {
                break;
            }
            planner.plan(
                ctx.comm,
                &world,
                global[4],
                global[5],
                global[2] > 0,
                f.local(),
            );
        }
        let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
        EngineRun {
            labels: (rank == 0).then_some(labels),
            iters,
            final_clock_s: ctx.comm.clock_s(),
        }
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
///
/// All work lands in the `cond` step bucket (one phase per round).
pub struct LabelPropEngine;

impl<I: Idx + WireWord + NarrowVal> CcEngine<I> for LabelPropEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::LabelProp
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            sparsifies_active_set: false,
            uses_starcheck: false,
            monotone_min_labels: true,
            rounds_bounded_by_diameter: true,
        }
    }

    fn run(&self, ctx: &mut EngineCtx<'_, I>) -> EngineRun {
        let n = ctx.n();
        let opts = ctx.opts;
        let layout = ctx.layout;
        let rank = ctx.rank;
        let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
        let world = ctx.comm.world();
        let mut iters: Vec<EngineIter> = Vec::new();
        // Narrowing plan for the upcoming round (seed free from identity
        // labels, refreshed off the scalar convergence allreduce widened
        // to three words — on and off alike, so words stay identical).
        let dopts = &opts.dist;
        let planner = NarrowPlanner::new(dopts);
        let seed = planner.seed_probe(n);
        planner.plan(ctx.comm, &world, seed[0], seed[1], false, f.local());
        loop {
            // The true bound is the diameter (< n); `max_iters` is a
            // safety knob for LACC's O(log n) trajectory and would be a
            // silent wrong-answer cap here, so it is deliberately ignored.
            assert!(iters.len() < n + 2, "label propagation did not converge");
            let mut rec = EngineIter {
                active_before: n,
                spmv_dense: true,
                ..Default::default()
            };
            let span = ctx.comm.span_open(SpanKind::CondHook);
            let fn_vec: DistSpVec<I, I> =
                dist_mxv_dense(ctx.comm, &ctx.a, &f, DistMask::None, MinUsize, dopts);
            let mut changed = 0u64;
            for &(u, m) in fn_vec.entries() {
                if m < f.get_local(u.idx()) {
                    f.set_local(u.idx(), m);
                    changed += 1;
                }
            }
            ctx.comm.charge_compute(fn_vec.local_nvals() as u64 + 1);
            rec.modeled.cond_s += ctx.comm.span_close(span);
            let probe = planner.local_probe(ctx.comm, f.local());
            let merged = ctx
                .comm
                .allreduce(&world, [changed, probe[0], probe[1]], |a, b| {
                    [a[0] + b[0], a[1].max(b[1]), a[2] + b[2]]
                });
            let total = merged[0];
            rec.cond_changed = total;
            let done = total == 0;
            rec.converged_after = if done { n } else { 0 };
            iters.push(rec);
            if done {
                break;
            }
            // Any label movement invalidates the dictionary for tightness
            // (the new minima are still contained, so a stale dictionary
            // would decode fine — it just stops being dense-ranked).
            planner.plan(ctx.comm, &world, merged[1], merged[2], total > 0, f.local());
        }
        let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
        EngineRun {
            labels: (rank == 0).then_some(labels),
            iters,
            final_clock_s: ctx.comm.clock_s(),
        }
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
            ("auto", EngineSelect::Auto),
        ] {
            assert_eq!(s.parse::<EngineSelect>().unwrap(), e);
            assert_eq!(e.to_string(), s);
        }
        let err = "dijkstra".parse::<EngineSelect>().unwrap_err();
        assert_eq!(err.field(), "engine");
        assert_eq!(EngineSelect::default(), EngineSelect::Lacc);
    }

    #[test]
    fn caps_distinguish_engines() {
        let lacc = caps_for(EngineKind::Lacc);
        assert!(lacc.sparsifies_active_set && lacc.uses_starcheck);
        assert!(!lacc.monotone_min_labels);
        let fastsv = caps_for(EngineKind::Fastsv);
        assert!(!fastsv.uses_starcheck && fastsv.monotone_min_labels);
        assert!(!fastsv.rounds_bounded_by_diameter);
        let lp = caps_for(EngineKind::LabelProp);
        assert!(lp.rounds_bounded_by_diameter && lp.monotone_min_labels);
        // Names round-trip through the trait objects.
        assert_eq!(engine_for::<usize>(EngineKind::Lacc).name(), "lacc");
        assert_eq!(engine_for::<u32>(EngineKind::Fastsv).name(), "fastsv");
        assert_eq!(
            engine_for::<usize>(EngineKind::LabelProp).name(),
            "labelprop"
        );
    }

    #[test]
    fn only_engines_that_run_spmspv_hold_the_block_column_major() {
        // FastSV's every `mxv` is dense, so no rank ever transposes its
        // block; LACC retires converged communities and finishes on SpMSpV.
        let g = lacc_graph::generators::community_graph(600, 30, 3.0, 1.4, 1);
        let opts = LaccOpts::default();
        let built = |kind: EngineKind| {
            dmsim::run_spmd(4, |c| {
                let mut ctx = EngineCtx::<u32>::new(c, &g, None, &opts);
                engine_for::<u32>(kind).run(&mut ctx);
                ctx.a.has_column_major()
            })
            .unwrap()
        };
        assert_eq!(built(EngineKind::Fastsv), vec![false; 4]);
        assert_eq!(built(EngineKind::Lacc), vec![true; 4]);
    }

    #[test]
    fn choose_engine_covers_the_space() {
        // Low diameter + giant component → label propagation.
        let lp = PrepassStats {
            samples: 8,
            diameter_estimate: 4,
            reached_fraction: 0.9,
            degree_skew: 20.0,
            avg_degree: 16.0,
        };
        let (kind, why) = choose_engine(&lp);
        assert_eq!(kind, EngineKind::LabelProp);
        assert!(why.contains("diameter"));
        // Giant component but deep → FastSV.
        let sv = PrepassStats {
            diameter_estimate: 200,
            ..lp
        };
        let (kind, why) = choose_engine(&sv);
        assert_eq!(kind, EngineKind::Fastsv);
        assert!(why.contains("dominates"));
        // Fragmented reach → LACC.
        let frag = PrepassStats {
            diameter_estimate: 3,
            reached_fraction: 0.02,
            ..lp
        };
        let (kind, why) = choose_engine(&frag);
        assert_eq!(kind, EngineKind::Lacc);
        assert!(why.contains("Lemma 1"));
    }

    #[test]
    fn choose_engine_is_total_over_arbitrary_stats() {
        // Any stats map to one of the three engines with a rationale.
        for d in [0usize, 1, 8, 9, 100, usize::MAX / 2] {
            for r in [0.0, 0.1, 0.449, 0.45, 0.9, 1.0] {
                for skew in [0.0, 1.0, 1e6] {
                    let s = PrepassStats {
                        samples: 8,
                        diameter_estimate: d,
                        reached_fraction: r,
                        degree_skew: skew,
                        avg_degree: 1.0,
                    };
                    let (kind, why) = choose_engine(&s);
                    assert!(matches!(
                        kind,
                        EngineKind::Lacc | EngineKind::Fastsv | EngineKind::LabelProp
                    ));
                    assert!(!why.is_empty());
                }
            }
        }
    }
}
