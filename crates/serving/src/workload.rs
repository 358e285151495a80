//! A scripted mixed update/query workload over a [`CcService`].
//!
//! Driven by the CLI `serve` subcommand: batches of uniform-random edge
//! insertions (optionally spiked with deletions of existing edges), each
//! followed by a burst of mixed queries against the freshly published
//! epoch. The report carries wall-clock throughput for the host-side data
//! structures and *modeled* α-β latencies for the queries, plus a final
//! consistency verdict against the brute-force [`CcOracle`].

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dmsim::{DmsimError, ErrorKind};
use lacc::CcOracle;
use lacc_graph::unionfind::canonicalize_labels;

use crate::service::{CcService, ServiceStats};
use crate::UpdateBatch;

/// Shape of a [`run_workload`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadCfg {
    /// Update batches to apply.
    pub batches: usize,
    /// Uniform-random insertions per batch.
    pub batch_size: usize,
    /// Queries issued after each batch (round-robin `find` /
    /// `same_component` / `component_size`).
    pub queries_per_batch: usize,
    /// Every `delete_every`-th batch also deletes one random existing
    /// edge, forcing a full rebuild. `0` disables deletions.
    pub delete_every: usize,
    /// RNG seed (the workload is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            batches: 20,
            batch_size: 64,
            queries_per_batch: 128,
            delete_every: 0,
            seed: 1,
        }
    }
}

/// What a [`run_workload`] run measured.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Service counters accumulated over the run.
    pub stats: ServiceStats,
    /// Epoch published by the last batch.
    pub final_epoch: u64,
    /// Components after the last batch.
    pub final_components: usize,
    /// Edges in the final multiset.
    pub final_edges: usize,
    /// Queries issued (against per-batch snapshots).
    pub queries: u64,
    /// Host wall seconds spent inside `apply_batch`.
    pub update_wall_s: f64,
    /// Host wall seconds spent answering queries.
    pub query_wall_s: f64,
    /// Modeled α-β latency of every query, in issue order.
    pub latencies_s: Vec<f64>,
    /// True when the final epoch's labels are component-equivalent to the
    /// brute-force oracle over the final edge multiset (and component
    /// sizes agree).
    pub answers_consistent: bool,
}

impl WorkloadReport {
    /// Updates applied per host wall second.
    pub fn updates_per_s(&self) -> f64 {
        let updates = self.stats.inserts + self.stats.deletes;
        updates as f64 / self.update_wall_s.max(1e-12)
    }

    /// Queries answered per host wall second.
    pub fn queries_per_s(&self) -> f64 {
        self.queries as f64 / self.query_wall_s.max(1e-12)
    }

    /// The `pct`-th percentile (0–100) of the modeled query latencies.
    pub fn latency_percentile_s(&self, pct: f64) -> f64 {
        assert!((0.0..=100.0).contains(&pct), "percentile out of range");
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(f64::total_cmp);
        let i = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[i]
    }
}

/// Drives `svc` through `cfg` and reports throughput, modeled latency and
/// the final consistency verdict. Deterministic given `cfg.seed` and the
/// service's starting state. A graph with no vertex, or a query count
/// (`batches × queries_per_batch`) past `usize`, is an
/// [`ErrorKind::InvalidConfig`] error; on one vertex every insert is a
/// self loop.
pub fn run_workload(svc: &mut CcService, cfg: &WorkloadCfg) -> Result<WorkloadReport, DmsimError> {
    let n = svc.num_vertices();
    let refuse = |why: String| Err(DmsimError::new(ErrorKind::InvalidConfig, why));
    if n == 0 {
        return refuse("a serving workload needs at least one vertex".to_string());
    }
    if cfg.batches.checked_mul(cfg.queries_per_batch).is_none() {
        return refuse(format!(
            "{} batches of {} queries overflow the query count",
            cfg.batches, cfg.queries_per_batch
        ));
    }
    let model = svc.opts().model;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // Grows with the queries answered: the product above is user input.
    let mut latencies = Vec::new();
    let mut queries = 0u64;
    let mut update_wall = 0.0f64;
    let mut query_wall = 0.0f64;

    for i in 0..cfg.batches {
        let mut batch = UpdateBatch::new();
        if cfg.delete_every > 0 && (i + 1) % cfg.delete_every == 0 && !svc.edges().is_empty() {
            let (u, v) = svc.edges()[rng.random_range(0..svc.edges().len())];
            batch.delete(u, v);
        }
        for _ in 0..cfg.batch_size {
            batch.insert(rng.random_range(0..n), rng.random_range(0..n));
        }
        let t = std::time::Instant::now();
        svc.apply_batch(&batch)?;
        update_wall += t.elapsed().as_secs_f64();

        let snap = svc.snapshot();
        let t = std::time::Instant::now();
        for q in 0..cfg.queries_per_batch {
            let u = rng.random_range(0..n);
            match q % 3 {
                0 => {
                    std::hint::black_box(snap.find(u));
                    latencies.push(snap.modeled_find_latency_s(u, &model));
                }
                1 => {
                    let v = rng.random_range(0..n);
                    std::hint::black_box(snap.same_component(u, v));
                    // The two lookups are issued concurrently; the answer
                    // arrives with the slower of the two.
                    latencies.push(
                        snap.modeled_find_latency_s(u, &model)
                            .max(snap.modeled_find_latency_s(v, &model)),
                    );
                }
                _ => {
                    std::hint::black_box(snap.component_size(u));
                    latencies.push(snap.modeled_find_latency_s(u, &model));
                }
            }
            queries += 1;
        }
        query_wall += t.elapsed().as_secs_f64();
    }

    let answers_consistent = check_consistency(svc);
    Ok(WorkloadReport {
        stats: *svc.stats(),
        final_epoch: svc.epoch(),
        final_components: svc.num_components(),
        final_edges: svc.edges().len(),
        queries,
        update_wall_s: update_wall,
        query_wall_s: query_wall,
        latencies_s: latencies,
        answers_consistent,
    })
}

/// True when the service's current epoch is component-equivalent to the
/// brute-force oracle over its own edge multiset, with matching component
/// sizes and count.
pub fn check_consistency(svc: &CcService) -> bool {
    let n = svc.num_vertices();
    let oracle = CcOracle::from_edges(n, svc.edges().iter().copied());
    let snap = svc.snapshot();
    if snap.num_components() != oracle.num_components() {
        return false;
    }
    if canonicalize_labels(&snap.labels()) != canonicalize_labels(oracle.labels()) {
        return false;
    }
    (0..n).all(|v| snap.component_size(v) == oracle.component_size(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RerunPolicy, ServeOpts};

    #[test]
    fn insert_only_workload_is_consistent_without_reruns() {
        let mut svc = CcService::new(
            64,
            ServeOpts {
                policy: RerunPolicy::never(),
                ..Default::default()
            },
        );
        let cfg = WorkloadCfg {
            batches: 6,
            batch_size: 16,
            queries_per_batch: 30,
            delete_every: 0,
            seed: 7,
        };
        let rep = run_workload(&mut svc, &cfg).unwrap();
        assert!(rep.answers_consistent);
        assert_eq!(rep.stats.reruns, 0);
        assert_eq!(rep.queries, 180);
        assert_eq!(rep.latencies_s.len(), 180);
        assert_eq!(rep.final_epoch, 6);
        assert!(rep.latency_percentile_s(99.0) >= rep.latency_percentile_s(50.0));
        assert!(rep.updates_per_s() > 0.0 && rep.queries_per_s() > 0.0);
    }

    #[test]
    fn deletions_force_rebuilds_and_stay_consistent() {
        let mut svc = CcService::new(48, ServeOpts::default());
        let cfg = WorkloadCfg {
            batches: 8,
            batch_size: 12,
            queries_per_batch: 9,
            delete_every: 3,
            seed: 42,
        };
        let rep = run_workload(&mut svc, &cfg).unwrap();
        assert!(rep.answers_consistent);
        assert!(rep.stats.deletion_reruns >= 2);
        assert!(rep.stats.rerun_modeled_s > 0.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = WorkloadCfg {
            batches: 4,
            batch_size: 10,
            queries_per_batch: 12,
            delete_every: 2,
            seed: 3,
        };
        let mut a = CcService::new(32, ServeOpts::default());
        let mut b = CcService::new(32, ServeOpts::default());
        let ra = run_workload(&mut a, &cfg).unwrap();
        let rb = run_workload(&mut b, &cfg).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert_eq!(ra.latencies_s, rb.latencies_s);
        assert_eq!(ra.final_components, rb.final_components);
        assert_eq!(ra.stats.reruns, rb.stats.reruns);
    }

    #[test]
    fn latency_percentiles_survive_a_nan() {
        let rep = WorkloadReport {
            stats: ServiceStats::default(),
            final_epoch: 0,
            final_components: 0,
            final_edges: 0,
            queries: 5,
            update_wall_s: 0.0,
            query_wall_s: 0.0,
            latencies_s: vec![0.3, f64::NAN, 0.1, 0.2, 0.4],
            answers_consistent: true,
        };
        // `total_cmp` sorts a positive NaN above every number.
        assert_eq!(rep.latency_percentile_s(50.0), 0.3);
        assert!(rep.latency_percentile_s(99.0).is_nan());
    }
}
