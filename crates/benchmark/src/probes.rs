//! Layer probes: the benchmark times direct calls into one layer's public
//! functions, on the workload's own graph.
//!
//! A serial probe reports the median of `reps` calls after one warm-up.
//! A distributed probe runs inside a benchmark-owned
//! `run_spmd_with_model(4, …)`; each repetition is bracketed by a barrier
//! and read three ways — wall (the slowest rank's `Instant` delta),
//! modeled (the largest clock delta, Edison model) and bytes (the sum of
//! `bytes_sent` deltas).

use crate::check::Checker;
use crate::metrics::{median, MetricSet};
use crate::rng::SplitMix64;
use crate::spans::Recorder;
use dmsim::{run_spmd, run_spmd_with_model, AllToAll, Comm, Grid2d, Group, MachineModel};
use gblas::dist::{
    dist_assign, dist_extract, dist_mxv_dense, dist_mxv_sparse, DistMask, DistMat, DistOpts,
    DistSpVec, DistVec, VecLayout,
};
use gblas::serial::{self, Pattern, SparseVec};
use gblas::{Mask, MinUsize};
use lacc_graph::permute::Permutation;
use lacc_graph::{CsrGraph, Vid};
use std::hint::black_box;
use std::time::Instant;

/// Ranks of every distributed probe: the smallest square grid with real
/// row and column exchanges, and no more threads than this host can keep
/// mostly blocked on two cores.
pub const PROBE_RANKS: usize = 4;

/// One input vertex in twenty carries a value in the sparse-`mxv` probes
/// (5 % fill: well under the 50 % dense/sparse dispatch threshold).
const SPARSE_STRIDE: usize = 20;

/// What the probes need besides the graph.
pub struct ProbeCtx<'a> {
    /// Benchmark seed (probe inputs derive their own streams from it).
    pub seed: u64,
    /// Timed repetitions per probe.
    pub reps: usize,
    /// Repetitions of the one-word allreduce (a latency floor wants many).
    pub allreduce_reps: usize,
    /// The machine model of every modeled number.
    pub model: MachineModel,
    /// Span recorder.
    pub rec: &'a mut Recorder,
}

/// Median wall seconds of `reps` calls of `f` after one warm-up call.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A cheap fixed scramble, so probe vectors are neither sorted nor constant.
fn scramble(v: usize, n: usize) -> usize {
    v.wrapping_mul(2_654_435_761) % n.max(1)
}

/// `graph.permute_s` and `baselines.unionfind_s`; returns the permuted
/// graph, which is what `lacc::run` distributes and so what the
/// distributed probes run on.
pub fn graph_and_baseline(
    g: &CsrGraph,
    oracle: &[Vid],
    ctx: &mut ProbeCtx<'_>,
    checker: &mut Checker,
    m: &mut MetricSet,
) -> CsrGraph {
    let n = g.num_vertices();
    let span = ctx.rec.open("graph", "probe permute");
    let permute = |k: u64| Permutation::random(n, ctx.seed ^ k).permute_graph(g);
    let mut k = 0;
    m.put(
        "graph.permute_s",
        time_median(ctx.reps, || {
            k += 1;
            permute(k)
        }),
    );
    let permuted = permute(0);
    ctx.rec.close(span);

    let span = ctx.rec.open("baselines", "probe union_find_cc");
    m.put(
        "baselines.unionfind_s",
        time_median(ctx.reps, || lacc_baselines::union_find_cc(g)),
    );
    ctx.rec.close(span);
    let labels = lacc_baselines::union_find_cc(g);
    checker.labels(
        "baselines::union_find_cc",
        Ok::<_, String>(&labels[..]),
        oracle,
    );
    permuted
}

/// The `gblas.serial.*` kernels on the whole-graph `Pattern<u32>`, one
/// thread unless stated. Bytes are *computed* from array sizes (index
/// words scanned plus vector words read and written); the host's
/// last-level cache is far larger than these arrays, so no roofline ratio
/// is claimed.
pub fn gblas_serial(g: &CsrGraph, ctx: &mut ProbeCtx<'_>, m: &mut MetricSet) -> Result<(), String> {
    let n = g.num_vertices();
    let g32: CsrGraph<u32> = g.try_narrow().map_err(|e| e.to_string())?;
    let a = Pattern::from_graph(&g32);
    let x: Vec<usize> = (0..n).map(|v| scramble(v, n)).collect();
    let span = ctx.rec.open("gblas", "probe serial kernels");

    let dense_s = time_median(ctx.reps, || serial::mxv_dense(&a, &x, Mask::None, MinUsize));
    let dense_bytes = a.nnz() * 4 + 2 * n * 8;
    m.put("gblas.serial.mxv_dense_s", dense_s);
    m.put(
        "gblas.serial.mxv_dense_gbps",
        dense_bytes as f64 / dense_s / 1e9,
    );

    let entries: Vec<(u32, usize)> = (0..n)
        .step_by(SPARSE_STRIDE)
        .map(|v| (v as u32, x[v]))
        .collect();
    let touched: usize = entries.iter().map(|&(c, _)| a.col(c as usize).len()).sum();
    let sparse_bytes = touched * 4 + 2 * entries.len() * 12;
    let xs = SparseVec::from_entries(n, entries);
    let sparse_s = time_median(ctx.reps, || {
        serial::mxv_sparse(&a, &xs, Mask::None, MinUsize)
    });
    m.put("gblas.serial.mxv_sparse_s", sparse_s);
    m.put(
        "gblas.serial.mxv_sparse_gbps",
        sparse_bytes as f64 / sparse_s / 1e9,
    );
    let par2_s = time_median(ctx.reps, || {
        serial::mxv_sparse_par(&a, &xs, Mask::None, MinUsize, 2)
    });
    m.put("gblas.serial.mxv_sparse_par2_ratio", par2_s / sparse_s);

    let mut rng = SplitMix64::derive(ctx.seed, 0x5E21A1);
    let indices: Vec<Vid> = (0..n).map(|_| rng.below(n)).collect();
    m.put(
        "gblas.serial.extract_s",
        time_median(ctx.reps, || serial::extract(&x, &indices)),
    );
    let updates: Vec<(Vid, usize)> = indices.iter().map(|&i| (i, rng.below(n))).collect();
    let mut w = x.clone();
    m.put(
        "gblas.serial.assign_s",
        time_median(ctx.reps, || serial::assign(&mut w, &updates, MinUsize)),
    );
    ctx.rec.close(span);
    Ok(())
}

/// One bracketed repetition as one rank saw it.
#[derive(Clone, Copy, Debug)]
struct Sample {
    wall_s: f64,
    modeled_s: f64,
    bytes: f64,
}

/// Runs `op` once untimed and `reps` times bracketed by a world barrier.
fn bracket<R>(
    comm: &mut Comm,
    world: &Group,
    reps: usize,
    mut op: impl FnMut(&mut Comm) -> R,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(reps);
    for rep in 0..=reps {
        comm.barrier(world);
        let before = comm.snapshot();
        let t = Instant::now();
        black_box(op(comm));
        let wall_s = t.elapsed().as_secs_f64();
        let delta = comm.snapshot().since(&before);
        if rep > 0 {
            out.push(Sample {
                wall_s,
                modeled_s: delta.clock_s,
                bytes: delta.bytes_sent as f64,
            });
        }
    }
    out
}

/// Collapses one probe's per-rank samples: a repetition's wall and modeled
/// time are its slowest rank's, its bytes the sum; the probe reports the
/// median repetition of each.
fn collapse(per_rank: &[&Vec<Sample>]) -> Sample {
    let reps = per_rank.iter().map(|r| r.len()).min().unwrap_or(0);
    let over_ranks = |rep: usize, sel: fn(&Sample) -> f64, fold: fn(f64, f64) -> f64| {
        per_rank.iter().map(|r| sel(&r[rep])).fold(0.0, fold)
    };
    let series = |sel: fn(&Sample) -> f64, fold: fn(f64, f64) -> f64| -> Vec<f64> {
        (0..reps).map(|rep| over_ranks(rep, sel, fold)).collect()
    };
    Sample {
        wall_s: median(&series(|s| s.wall_s, f64::max)),
        modeled_s: median(&series(|s| s.modeled_s, f64::max)),
        bytes: median(&series(|s| s.bytes, |a, b| a + b)),
    }
}

/// The `gblas.dist.*` probes on the permuted graph `g`: `DistMat`
/// construction, dense and 5 %-fill `mxv`, and `extract`/`assign` with one
/// request per local element — half of them aimed at the first 1 % of the
/// vertices, all owned by one rank, so the hot-rank path fires.
pub fn gblas_dist(g: &CsrGraph, ctx: &mut ProbeCtx<'_>, m: &mut MetricSet) -> Result<(), String> {
    let n = g.num_vertices();
    let grid = Grid2d::square(PROBE_RANKS);
    let (seed, reps) = (ctx.seed, ctx.reps);
    let span = ctx.rec.open("gblas", "probe dist ops");
    let per_rank = run_spmd_with_model(PROBE_RANKS, ctx.model, |comm| {
        let rank = comm.rank();
        let world = comm.world();
        comm.barrier(&world);
        let t = Instant::now();
        let a = DistMat::<u32>::from_graph(g, grid, rank);
        let distribute_s = t.elapsed().as_secs_f64();

        let opts = DistOpts::default();
        let layout = VecLayout::new(n, grid);
        let x: DistVec<u32> = DistVec::from_fn(layout, rank, |v| scramble(v, n) as u32);
        let dense = bracket(comm, &world, reps, |c| {
            dist_mxv_dense(c, &a, &x, DistMask::None, MinUsize, &opts)
        });

        let (lo, hi) = layout.range_of_rank(rank);
        let entries: Vec<(u32, u32)> = (lo..hi)
            .step_by(SPARSE_STRIDE)
            .map(|v| (v as u32, x.get_local(v)))
            .collect();
        let xs = DistSpVec::from_local_entries(layout, rank, entries);
        let sparse = bracket(comm, &world, reps, |c| {
            dist_mxv_sparse(c, &a, &xs, DistMask::None, MinUsize, &opts)
        });

        let mut rng = SplitMix64::derive(seed, 0xD157 + rank as u64);
        let hot = (n / 100).max(1);
        let requests: Vec<u32> = (0..hi - lo)
            .map(|k| rng.below(if k % 2 == 0 { n } else { hot }) as u32)
            .collect();
        let extract = bracket(comm, &world, reps, |c| {
            dist_extract(c, &x, &requests, &opts)
        });
        let updates: Vec<(u32, u32)> = requests
            .iter()
            .map(|&target| (target, rng.below(n) as u32))
            .collect();
        let mut dst = x.clone();
        let assign = bracket(comm, &world, reps, |c| {
            dist_assign(c, &mut dst, &updates, MinUsize, &opts)
        });
        (distribute_s, [dense, sparse, extract, assign])
    })
    .map_err(|e| {
        format!(
            "gblas.dist probe: rank {} panicked: {}",
            e.rank,
            e.message()
        )
    })?;
    ctx.rec.close(span);

    m.put(
        "gblas.dist.distribute_s",
        per_rank.iter().map(|r| r.0).fold(0.0, f64::max),
    );
    const NAMES: [[&str; 3]; 4] = [
        [
            "gblas.dist.probe_mxv_dense_wall_s",
            "gblas.dist.probe_mxv_dense_modeled_s",
            "gblas.dist.probe_mxv_dense_bytes",
        ],
        [
            "gblas.dist.probe_mxv_sparse_wall_s",
            "gblas.dist.probe_mxv_sparse_modeled_s",
            "gblas.dist.probe_mxv_sparse_bytes",
        ],
        [
            "gblas.dist.probe_extract_wall_s",
            "gblas.dist.probe_extract_modeled_s",
            "gblas.dist.probe_extract_bytes",
        ],
        [
            "gblas.dist.probe_assign_wall_s",
            "gblas.dist.probe_assign_modeled_s",
            "gblas.dist.probe_assign_bytes",
        ],
    ];
    for (k, [wall, modeled, bytes]) in NAMES.into_iter().enumerate() {
        let s = collapse(&per_rank.iter().map(|r| &r.1[k]).collect::<Vec<_>>());
        m.put(wall, s.wall_s);
        m.put(modeled, s.modeled_s);
        m.put(bytes, s.bytes);
    }
    Ok(())
}

/// The `dmsim.*` probes on synthetic `u64` buffers of `n / 4` words per
/// rank: spawn/join of an empty SPMD region, the one-word allreduce that
/// every convergence test pays, a ring allgather, and the three
/// all-to-all algorithms (the sparse one with a single non-empty
/// destination in four, the pattern it exists for).
pub fn dmsim_collectives(
    n: usize,
    ctx: &mut ProbeCtx<'_>,
    m: &mut MetricSet,
) -> Result<(), String> {
    let span = ctx.rec.open("dmsim", "probe collectives");
    m.put(
        "dmsim.spmd_spawn_s",
        time_median(ctx.reps.max(5), || run_spmd(PROBE_RANKS, |_| ())),
    );

    let words = (n / PROBE_RANKS).max(PROBE_RANKS);
    let (reps, allreduce_reps) = (ctx.reps, ctx.allreduce_reps);
    let per_rank = run_spmd_with_model(PROBE_RANKS, ctx.model, |comm| {
        let me = comm.rank();
        let world = comm.world();
        let allreduce = bracket(comm, &world, allreduce_reps, |c| {
            c.allreduce(&world, me as u64, |a, b| a + b)
        });

        // Buffers are built before the bracket so only the exchange is timed.
        let block: Vec<u64> = (0..words as u64).collect();
        let mut blocks: Vec<Vec<u64>> = vec![block.clone(); reps + 1];
        let allgather = bracket(comm, &world, reps, |c| {
            c.allgatherv(&world, blocks.pop().expect("one block per repetition"))
        });

        let even: Vec<Vec<u64>> = vec![block[..words / PROBE_RANKS].to_vec(); PROBE_RANKS];
        let mut one_in_four: Vec<Vec<u64>> = vec![Vec::new(); PROBE_RANKS];
        one_in_four[(me + 1) % PROBE_RANKS] = block;
        let mut alltoall = |algo: AllToAll, buckets: &Vec<Vec<u64>>| {
            let mut sets: Vec<Vec<Vec<u64>>> = vec![buckets.clone(); reps + 1];
            bracket(comm, &world, reps, |c| {
                c.alltoallv(&world, sets.pop().expect("one set per repetition"), algo)
            })
        };
        let pairwise = alltoall(AllToAll::Pairwise, &even);
        let hypercube = alltoall(AllToAll::Hypercube, &even);
        let sparse = alltoall(AllToAll::Sparse, &one_in_four);
        [allreduce, allgather, pairwise, hypercube, sparse]
    })
    .map_err(|e| format!("dmsim probe: rank {} panicked: {}", e.rank, e.message()))?;
    ctx.rec.close(span);

    let probe = |k: usize| collapse(&per_rank.iter().map(|r| &r[k]).collect::<Vec<_>>());
    m.put("dmsim.probe_allreduce_wall_s", probe(0).wall_s);
    let allgather = probe(1);
    m.put("dmsim.probe_allgatherv_wall_s", allgather.wall_s);
    m.put("dmsim.probe_allgatherv_modeled_s", allgather.modeled_s);
    let pairwise = probe(2);
    m.put("dmsim.probe_alltoallv_pairwise_wall_s", pairwise.wall_s);
    m.put(
        "dmsim.probe_alltoallv_pairwise_modeled_s",
        pairwise.modeled_s,
    );
    let hypercube = probe(3);
    m.put("dmsim.probe_alltoallv_hypercube_wall_s", hypercube.wall_s);
    m.put(
        "dmsim.probe_alltoallv_hypercube_modeled_s",
        hypercube.modeled_s,
    );
    let sparse = probe(4);
    m.put("dmsim.probe_alltoallv_sparse_wall_s", sparse.wall_s);
    m.put("dmsim.probe_alltoallv_sparse_modeled_s", sparse.modeled_s);
    // Bytes the pairwise exchange put on the channels per wall second:
    // the host's measured β, what a "host" machine profile would be
    // calibrated from.
    m.put(
        "dmsim.transport_mbps",
        pairwise.bytes / pairwise.wall_s / 1e6,
    );
    Ok(())
}
