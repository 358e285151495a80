//! The engine lattice: the one differential harness every distributed run
//! in the tests goes through (DESIGN.md §6).
//!
//! A [`Cell`] fixes what a run can vary: engine, `DistOpts` stack, p,
//! Lemma-1 sparsity, permutation, SpMV threshold and machine model.
//! [`lattice`] holds each cell of a graph to every invariant that applies:
//! - I1: the canonical labels are union-find's.
//! - I2: unpermuted LACC equals `lacc_serial` in labels and every round.
//! - I3: unpermuted FastSV and label propagation label each vertex with
//!   its component's minimum; FastSV with `fastsv_cc`'s label.
//! - I4: the naive stack (the default, for a naive cell) gives the same.
//! - I5: under retirement no LACC round is idle and the last retires the
//!   rest; without it exactly one all-zero round comes last.
//! - I6: a free machine gives Edison's labels, rounds and rank words.
//! - I7: LACC and FastSV finish within `2·bitlen(n) + 4` rounds (n ≥ 2).
//!
//! I5 and I7 hold for the serial run of I2 too. A failing graph is shrunk
//! while the same invariant still fails; the panic names the invariant,
//! the cell, `n` and the edge list.

use dmsim::AllToAll::{self, Hypercube, Pairwise, Sparse};
use dmsim::{ErrorKind::NotConverged, MachineModel, TraceLevel, TraceSink, EDISON};
use gblas::dist::{DistOpts, Wire};
use lacc::EngineSelect::{self, Fastsv, LabelProp, Lacc};
use lacc::{lacc_serial, run, IterStats, LaccOpts, LaccRun, RunConfig};
use lacc_baselines::{fastsv_cc, union_find_cc};
use lacc_graph::generators::*;
use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::{permute::Permutation, CsrGraph, EdgeList};
use proptest::prelude::*;
use std::collections::HashMap;

/// One point of the lattice: the run options (engine, stack, sparsity,
/// permutation, threshold), the rank count, and whether the machine is
/// `MachineModel::free()` rather than Edison.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    opts: LaccOpts,
    p: usize,
    free: bool,
}

/// A sub-lattice, grown one axis at a time from [`lacc`].
struct Cells(Vec<Cell>);

/// LACC as `lacc::run` runs it by default, at p = 4 on the Edison model.
fn lacc() -> Cells {
    Cells(vec![Cell::default()]).vary(&[4], P)
}

impl Cells {
    /// Every cell once for each of `values`, which `set` writes in.
    fn vary<T: Copy>(self, values: &[T], set: fn(&mut Cell, T)) -> Cells {
        let each = |c: Cell| values.iter().map(move |&v| (c, v));
        let cells = self.0.into_iter().flat_map(each).map(|(mut c, v)| {
            set(&mut c, v);
            c
        });
        Cells(cells.collect())
    }
}

const ENGINE: fn(&mut Cell, EngineSelect) = |c, e| c.opts.engine = e;
const NAIVE: fn(&mut Cell, bool) = |c, naive| c.opts.dist = stack(naive);
const P: fn(&mut Cell, usize) = |c, p| c.p = p;
const SPARSITY: fn(&mut Cell, bool) = |c, s| c.opts.use_sparsity = s;
const PERMUTE: fn(&mut Cell, bool) = |c, b| c.opts.permute = b;
const ALLTOALL: fn(&mut Cell, AllToAll) = |c, a| c.opts.dist.alltoall = a;
const HOT: fn(&mut Cell, f64) = |c, h| c.opts.dist.hot_threshold = h;
const WIRE: fn(&mut Cell, Wire) = |c, w| c.opts.dist.wire = w;
const ENGINES: [EngineSelect; 3] = [Lacc, Fastsv, LabelProp];
const BOTH: [bool; 2] = [false, true];

/// The naive stack or the default one.
fn stack(naive: bool) -> DistOpts {
    [DistOpts::default(), DistOpts::naive()][naive as usize]
}

/// What the invariants read off one run: the labels, the rounds without
/// their modeled seconds and per-rank extract requests (a serial run has
/// neither), and each rank's words sent plus received (none serially).
#[derive(Clone)]
struct Outcome(Vec<usize>, Vec<IterStats>, Vec<u64>);

fn outcome(mut run: LaccRun, words: Vec<u64>) -> Outcome {
    for it in &mut run.iters {
        (it.modeled, it.extract_received) = Default::default();
    }
    Outcome(run.labels, run.iters, words)
}

/// The labels and rounds of `out`, comparable.
fn trajectory(out: &Outcome) -> String {
    format!("{:?} {:?}", out.0, out.1)
}

/// A broken invariant and what broke it.
struct Failure(&'static str, String);

fn ensure(ok: bool, invariant: &'static str, why: impl FnOnce() -> String) -> Result<(), Failure> {
    ok.then_some(()).ok_or_else(|| Failure(invariant, why()))
}

/// I5 and I7 on `out`, a run with options `o` on `n` vertices.
fn rounds_end_well(out: &Outcome, o: LaccOpts, n: usize) -> Result<(), Failure> {
    let (rounds, bits) = (&out.1, usize::BITS - n.max(2).leading_zeros());
    let bounded = o.engine == LabelProp || rounds.len() <= 2 * bits as usize + 4;
    ensure(bounded, "I7", || format!("{} rounds", rounds.len()))?;
    let quiet = |it: &&IterStats| it.total_changed() + it.fourth_changed == 0;
    let idle: Vec<usize> = rounds.iter().filter(quiet).map(|it| it.iteration).collect();
    let last = &rounds[rounds.len() - 1];
    let retired_rest = last.fourth_changed == last.active_before && last.converged_after == n;
    let ok = match o.use_sparsity && n > 0 {
        true => idle.is_empty() && retired_rest,
        false => idle == [rounds.len()],
    };
    ensure(o.engine != Lacc || ok, "I5", || format!("{rounds:?}"))
}

/// One graph's runs, keyed by cell (serial runs by their options), so a
/// cell that is another's partner under I4 or I6 runs once.
type Runs = HashMap<String, Outcome>;

fn run_cell(g: &CsrGraph, runs: &mut Runs, c: Cell) -> Result<Outcome, Failure> {
    if let Some(out) = runs.get(&format!("{c:?}")) {
        return Ok(out.clone());
    }
    let model = [EDISON.lacc_model(), MachineModel::free()][c.free as usize];
    let sink = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(c.p, model).with_trace(&sink);
    let run = run(g, &cfg.with_opts(c.opts)).map_err(|e| {
        let invariant = if e.kind == NotConverged { "I7" } else { "I1" };
        Failure(invariant, format!("{c:?}: {e}"))
    })?;
    let out = outcome(run.run, sink.report().rank_words);
    Ok(runs.entry(format!("{c:?}")).or_insert(out).clone())
}

/// Holds `c` to every invariant that applies to it.
fn check(g: &CsrGraph, runs: &mut Runs, c: Cell) -> Result<(), Failure> {
    let (n, o, truth) = (g.num_vertices(), c.opts, union_find_cc(g));
    let out = run_cell(g, runs, c)?;
    let (labels, got) = (&out.0, trajectory(&out));
    let ok = canonicalize_labels(labels) == truth;
    ensure(ok, "I1", || format!("{labels:?}"))?;
    if !o.permute && o.engine == Lacc {
        let key = format!("serial {} {}", o.use_sparsity, o.spmv_threshold);
        let serial = || outcome(lacc_serial(g, &o), vec![]);
        let serial = runs.entry(key).or_insert_with(serial);
        let want = trajectory(serial);
        ensure(got == want, "I2", || format!("{got}\nserial: {want}"))?;
        rounds_end_well(serial, o, n)?;
    } else if !o.permute {
        let fastsv = o.engine != Fastsv || *labels == fastsv_cc(g);
        ensure(*labels == truth && fastsv, "I3", || format!("{labels:?}"))?;
    }
    let (mut other, naive) = (c, format!("{:?}", o.dist) == format!("{:?}", stack(true)));
    NAIVE(&mut other, !naive);
    let stack = trajectory(&run_cell(g, runs, other)?);
    ensure(stack == got, "I4", || format!("{other:?}: {stack}"))?;
    let free = run_cell(g, runs, Cell { free: !c.free, ..c })?;
    let same = trajectory(&free) == got && free.2 == out.2;
    ensure(same, "I6", || format!("words {:?} vs {:?}", out.2, free.2))?;
    rounds_end_well(&out, o, n)
}

type Edges = Vec<(usize, usize)>;

/// The first failure of `c` on the graph of `n` vertices and `edges`.
fn failure(n: usize, edges: &Edges, c: Cell) -> Option<Failure> {
    let g = CsrGraph::from_edges(EdgeList::from_pairs(n, edges.iter().copied()));
    check(&g, &mut Runs::new(), c).err()
}

/// Drops runs of edges, halving the run length down to single edges, then
/// trailing untouched vertices, while `c` still breaks `invariant`.
/// `None` if the edge list does not reproduce the failure.
fn shrink(mut n: usize, mut edges: Edges, c: Cell, invariant: &str) -> Option<String> {
    let same = |f: Failure| (f.0 == invariant).then_some(f);
    let mut last = same(failure(n, &edges, c)?)?;
    let mut chunk = edges.len();
    while chunk > 0 {
        let mut at = 0;
        while at < edges.len() {
            let mut fewer = edges.clone();
            fewer.drain(at..(at + chunk).min(edges.len()));
            match failure(n, &fewer, c).and_then(same) {
                Some(f) => (edges, last) = (fewer, f),
                None => at += chunk,
            }
        }
        chunk /= 2;
    }
    while n > 0 && edges.iter().all(|&(u, v)| u.max(v) + 1 < n) {
        match failure(n - 1, &edges, c).and_then(same) {
            Some(f) => (n, last) = (n - 1, f),
            None => break,
        }
    }
    let m = edges.len();
    Some(format!(
        "shrunk to n = {n}, {m} edges {edges:?}: {}",
        last.1
    ))
}

/// Checks `g` on every cell; panics with a shrunk graph on the first failure.
fn lattice(name: &str, g: &CsrGraph, cells: &Cells) {
    let mut runs = Runs::new();
    for &c in &cells.0 {
        if let Err(Failure(invariant, why)) = check(g, &mut runs, c) {
            let edges = g.edges().filter(|&(u, v)| u <= v).collect();
            let shrunk = shrink(g.num_vertices(), edges, c, invariant);
            let shrunk = shrunk.unwrap_or_else(|| "the edge list does not reproduce it".into());
            panic!("{invariant} fails on {name} in {c:?}: {why}\n{shrunk}");
        }
    }
}

/// LACC against its serial run, with and without retirement, unpermuted.
fn serial_cells() -> Cells {
    let cells = lacc().vary(&[1, 4, 9, 16], P).vary(&BOTH, SPARSITY);
    cells.vary(&[false], PERMUTE)
}

#[test]
fn no_lacc_round_is_idle() {
    // The shapes that shape LACC's rounds: paths, cycles, stars, forests,
    // many small communities, skewed degrees, the Lemma-1 counterexample
    // and the degenerate sizes.
    let lemma1 = EdgeList::from_pairs(82, [(77, 80), (80, 79), (79, 81), (81, 78)]);
    let graphs = [
        path_graph(257),
        cycle_graph(100),
        star_graph(64),
        random_forest(400, 11, 3),
        community_graph(3000, 150, 3.0, 1.4, 2),
        rmat(10, 8, RmatParams::graph500(), 7),
        CsrGraph::from_edges(lemma1),
        CsrGraph::from_edges(EdgeList::new(0)),
        CsrGraph::from_edges(EdgeList::new(1)),
    ];
    for (i, g) in graphs.iter().enumerate() {
        lattice(&format!("round shape {i}"), g, &serial_cells());
    }
}

#[test]
fn bit_identical_to_serial_without_permutation() {
    // Paths and caterpillars under shuffled ids grow deep trees; sparse
    // random graphs hook stars onto stars.
    let mut graphs: Vec<CsrGraph> = (0..3)
        .map(|s| community_graph(600, 30, 3.0, 1.4, s))
        .collect();
    for seed in 0..6u64 {
        let n = 300;
        let path = (0..n - 1).map(|v| (v, v + 1));
        let chords = (0..n - 2).step_by(3).map(|v| (v, v + 2));
        let edges = path.chain(chords.filter(|_| seed % 2 == 1));
        let g = CsrGraph::from_edges(EdgeList::from_pairs(n, edges));
        graphs.push(Permutation::random(n, seed).permute_graph(&g));
    }
    graphs.extend((0..4).map(|seed| erdos_renyi_gnm(500, 600, seed)));
    for (i, g) in graphs.iter().enumerate() {
        lattice(&format!("graph {i}"), g, &serial_cells());
    }
}

#[test]
fn engine_matrix_agrees_on_generator_suite() {
    let cells = lacc().vary(&ENGINES, ENGINE).vary(&BOTH, NAIVE);
    for (name, g) in [
        ("path", path_graph(40)),
        ("star", star_graph(33)),
        ("forest", random_forest(60, 7, 5)),
        ("er", erdos_renyi_gnm(48, 70, 2)),
        ("rmat", rmat(5, 4, RmatParams::graph500(), 3)),
        ("community", community_graph(60, 6, 3.0, 1.4, 4)),
        ("empty", CsrGraph::from_edges(EdgeList::new(12))),
    ] {
        lattice(name, &g, &cells);
    }
}

#[test]
fn engines_and_stacks_agree_on_the_corpus() {
    let on = |e: &[EngineSelect], permute| lacc().vary(e, ENGINE).vary(&[permute], PERMUTE);
    let mut graph = 0;
    let mut check = |g: CsrGraph, cells: &Cells| {
        graph += 1;
        lattice(&format!("corpus graph {graph}"), &g, cells);
    };
    let grids = lacc().vary(&[1, 4, 9, 16], P);
    check(erdos_renyi_gnm(200, 300, 5), &grids);
    check(rmat(8, 4, RmatParams::graph500(), 9), &lacc());
    let dense_too = lacc().vary(&BOTH, SPARSITY);
    check(metagenome_graph(800, 6, 0.01, 3), &dense_too);
    check(erdos_renyi_gnm(700, 900, 17), &dense_too);
    check(path_graph(1000), &lacc().vary(&[16], P));
    let fastsv = on(&[Fastsv], false);
    check(community_graph(800, 40, 3.0, 1.4, 12), &fastsv);
    check(rmat(8, 4, RmatParams::graph500(), 21), &on(&ENGINES, true));
    check(community_graph(600, 30, 3.0, 1.4, 4), &on(&ENGINES, true));
    // Label propagation takes O(diameter) rounds: legal, but slow here.
    check(path_graph(300), &on(&[Lacc, Fastsv], true));
    check(metagenome_graph(500, 6, 0.01, 9), &on(&ENGINES, true));
    let minima = on(&[Fastsv, LabelProp], false);
    check(community_graph(400, 20, 3.0, 1.4, 6), &minima);
    let cells = on(&[Lacc], false).vary(&[1, 4, 9, 16, 25], P);
    let cells = cells.vary(&[Pairwise, Hypercube, Sparse], ALLTOALL);
    let cells = cells.vary(&[f64::INFINITY, 2.0], HOT);
    check(community_graph(900, 45, 3.0, 1.4, 21), &cells);
    let cells = on(&ENGINES, false).vary(&[Wire::Legacy, Wire::Compact], WIRE);
    check(community_graph(600, 30, 3.0, 1.4, 5), &cells);
    let both_ways = lacc().vary(&[16], P).vary(&BOTH, PERMUTE);
    check(metagenome_graph(1500, 6, 0.01, 8), &both_ways);
    // Shapes for the load-balancing permutation's planted hubs (degree
    // ≥ 8× the mean); each graph asserts its hubs, so no edit loses them.
    let planted = on(&ENGINES, true).vary(&[1, 4, 16], P);
    let hubs = |g: &CsrGraph| {
        let (n, nnz) = (g.num_vertices(), g.num_directed_edges());
        (0..n)
            .filter(|&v| g.degree(v) * n >= 8 * nnz)
            .collect::<Vec<_>>()
    };
    fn plus(n: usize, g: CsrGraph, more: impl Iterator<Item = (usize, usize)>) -> CsrGraph {
        CsrGraph::from_edges(EdgeList::from_pairs(n, g.edges().chain(more)))
    }
    // A hub at the centre of an isolated 60-leaf star, beside a larger
    // sparse random component on the first 400 ids.
    let star = (400..460).map(|leaf| (460, leaf));
    let outside = plus(500, erdos_renyi_gnm(400, 500, 3), star);
    assert_eq!(hubs(&outside), [460]);
    check(outside, &planted);
    // 17 hubs of equal degree, one more than are planted: stars of 10
    // leaves in two chains, beside isolated vertices.
    let centres = (0..17).map(|i| 11 * i);
    let spokes = centres
        .clone()
        .flat_map(|c| (c + 1..c + 11).map(move |l| (c, l)));
    let links = (0..16)
        .filter(|&i| i != 8)
        .map(|i| (11 * i + 1, 11 * i + 12));
    let seventeen = CsrGraph::from_edges(EdgeList::from_pairs(300, spokes.chain(links)));
    assert_eq!(hubs(&seventeen), centres.collect::<Vec<_>>());
    check(seventeen, &planted);
    // The only hub is the last vertex; n = 301 is odd, so no grid side
    // but p = 1's divides it.
    let last = plus(
        301,
        erdos_renyi_gnm(301, 200, 8),
        (0..40).map(|v| (300, 7 * v)),
    );
    assert_eq!(hubs(&last), [300]);
    check(last, &planted);
}

#[test]
fn more_ranks_than_vertices() {
    // Most ranks own no vertex and no edge, on every engine and stack.
    let cells = lacc().vary(&ENGINES, ENGINE).vary(&BOTH, NAIVE);
    let cells = cells.vary(&[1, 4, 16, 64], P);
    for n in [0, 1, 2, 7] {
        lattice(&format!("path of {n}"), &path_graph(n), &cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(328))]

    #[test]
    fn lattice_holds_on_arbitrary_graphs(
        n in 1usize..80,
        pairs in proptest::collection::vec((0usize..80, 0usize..80), 0..200),
        k in 0usize..5184,
    ) {
        // Cell k of the whole lattice: every engine, all-to-all, hot-rank
        // threshold, wire, grid, sparsity, permutation, SpMV threshold and
        // machine model.
        let cells = lacc().vary(&ENGINES, ENGINE).vary(&[1, 4, 9, 16], P);
        let cells = cells.vary(&[Pairwise, Hypercube, Sparse], ALLTOALL);
        let cells = cells.vary(&[f64::INFINITY, 2.0, 4.0], HOT).vary(&[Wire::Legacy, Wire::Compact], WIRE);
        let cells = cells.vary(&BOTH, SPARSITY).vary(&BOTH, PERMUTE).vary(&BOTH, |c, f| c.free = f);
        let cells = cells.vary(&[0.0, 0.5, 1.1], |c, t| c.opts.spmv_threshold = t);
        let pairs = pairs.into_iter().map(|(u, v)| (u % n, v % n));
        let g = CsrGraph::from_edges(EdgeList::from_pairs(n, pairs));
        lattice("an arbitrary graph", &g, &Cells(vec![cells.0[k]]));
    }
}
