//! The serving front end: batched updates, consistent queries, rebuilds.

use std::sync::Arc;

use dmsim::{DmsimError, ErrorKind, MachineModel, RerunReason, TraceSink, EDISON};
use lacc_graph::CsrGraph;

use crate::batch::{Update, UpdateBatch};
use crate::policy::RerunPolicy;
use crate::store::{EpochSnapshot, LabelStore};
use crate::Vid;

/// Configuration of a [`CcService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Simulated ranks for the label shards and for rebuild runs (see
    /// [`lacc::check_ranks`]).
    pub ranks: usize,
    /// Cost model for rebuild runs and modeled query latencies.
    pub model: MachineModel,
    /// Staleness policy (deletions always rebuild). Rebuilds run
    /// [`lacc::LaccOpts::default`] under the policy's engine.
    pub policy: RerunPolicy,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            ranks: 4,
            model: EDISON.lacc_model(),
            policy: RerunPolicy::default(),
        }
    }
}

/// What one [`CcService::apply_batch`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The epoch published by this batch (queries now answer against it).
    pub epoch: u64,
    /// Component merges performed incrementally.
    pub hooks: usize,
    /// Edge occurrences actually removed.
    pub deletions: usize,
    /// The rebuild this batch triggered, if any.
    pub rerun: Option<RerunReason>,
}

/// Lifetime counters of a [`CcService`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Batches applied.
    pub batches: u64,
    /// Edge insertions received.
    pub inserts: u64,
    /// Insertions that were no-ops (self loop or endpoints already in the
    /// same component).
    pub noop_inserts: u64,
    /// Deletion requests received (whether or not the edge existed).
    pub deletes: u64,
    /// Incremental component merges.
    pub hooks: u64,
    /// Queries answered (`find` / `same_component` / `component_size`).
    pub queries: u64,
    /// Full LACC rebuilds run.
    pub reruns: u64,
    /// Rebuilds triggered by deletions.
    pub deletion_reruns: u64,
    /// Rebuilds triggered by the staleness policy.
    pub staleness_reruns: u64,
    /// Modeled seconds spent in rebuild runs.
    pub rerun_modeled_s: f64,
}

/// An incrementally maintained connected-components service.
///
/// Owns the authoritative edge multiset and an epoch-versioned
/// [`LabelStore`]; see the crate docs for the update/rebuild life cycle.
#[derive(Debug)]
pub struct CcService {
    edges: Vec<(Vid, Vid)>,
    store: LabelStore,
    opts: ServeOpts,
    sink: Option<Arc<TraceSink>>,
    hooks_since_rebuild: usize,
    stats: ServiceStats,
}

impl CcService {
    /// An empty service over `n` vertices (all singletons, epoch 0).
    pub fn new(n: usize, opts: ServeOpts) -> Self {
        CcService {
            edges: Vec::new(),
            store: LabelStore::new_singletons(n, opts.ranks),
            opts,
            sink: None,
            hooks_since_rebuild: 0,
            stats: ServiceStats::default(),
        }
    }

    /// A service bootstrapped from an existing graph: loads the edge
    /// multiset and runs one full LACC pass (tagged
    /// [`RerunReason::Bootstrap`]) to install converged labels.
    pub fn from_graph(g: &CsrGraph, opts: ServeOpts) -> Result<Self, dmsim::DmsimError> {
        CcService::from_graph_traced(g, opts, None)
    }

    /// [`from_graph`](Self::from_graph) with a trace sink attached *before*
    /// the bootstrap run, so the `rerun(bootstrap)` span is recorded too.
    pub fn from_graph_traced(
        g: &CsrGraph,
        opts: ServeOpts,
        sink: Option<Arc<TraceSink>>,
    ) -> Result<Self, dmsim::DmsimError> {
        // The shards below are laid out on the same square grid as the
        // rebuild runs; reject a rank count that has none before building.
        lacc::check_ranks(opts.ranks)?;
        let mut svc = CcService::new(g.num_vertices(), opts);
        svc.sink = sink;
        for u in 0..g.num_vertices() {
            for &v in g.neighbors(u) {
                if u <= v {
                    svc.edges.push((u, v));
                }
            }
        }
        // The caller's CSR *is* the graph of the multiset just extracted.
        svc.rebuild_on(g, RerunReason::Bootstrap)?;
        Ok(svc)
    }

    /// Attaches a trace sink: every rebuild records spans into it (tagged
    /// with the triggering [`RerunReason`]).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    /// Number of components at the current epoch.
    pub fn num_components(&self) -> usize {
        self.store.num_components()
    }

    /// The current (published) epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The authoritative edge multiset, in insertion order.
    pub fn edges(&self) -> &[(Vid, Vid)] {
        &self.edges
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The service configuration.
    pub fn opts(&self) -> &ServeOpts {
        &self.opts
    }

    /// Merges applied since the last full rebuild (the staleness input).
    pub fn hooks_since_rebuild(&self) -> usize {
        self.hooks_since_rebuild
    }

    /// Applies one batch and publishes a new epoch.
    ///
    /// Insertions hook incrementally (union by minimum root); effective
    /// deletions — and, failing that, the staleness policy — trigger a
    /// full LACC rebuild whose labels replace the forest atomically.
    ///
    /// A batch naming a vertex outside `0..n` is refused whole, as
    /// [`ErrorKind::InvalidConfig`] naming the first such update, before
    /// anything is applied: edges, counters, labels and epoch stay as they
    /// were.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<BatchOutcome, DmsimError> {
        let n = self.num_vertices();
        let out_of_range = |up: &&Update| {
            let (Update::Insert(u, v) | Update::Delete(u, v)) = **up;
            u >= n || v >= n
        };
        if let Some(up) = batch.updates().iter().find(out_of_range) {
            return Err(DmsimError::new(
                ErrorKind::InvalidConfig,
                format!("update {up:?} names a vertex outside 0..{n}"),
            ));
        }
        let mut hooks = 0usize;
        let mut deletions = 0usize;
        for up in batch.updates() {
            match *up {
                Update::Insert(u, v) => {
                    self.edges.push((u, v));
                    self.stats.inserts += 1;
                    if u == v {
                        self.stats.noop_inserts += 1;
                        continue;
                    }
                    let ru = self.store.find_compress(u);
                    let rv = self.store.find_compress(v);
                    if ru == rv {
                        self.stats.noop_inserts += 1;
                    } else {
                        // Minimum root wins: keeps representatives
                        // canonical-leaning and the merge deterministic.
                        let (keep, give) = if ru < rv { (ru, rv) } else { (rv, ru) };
                        self.store.union_roots(keep, give);
                        hooks += 1;
                    }
                }
                Update::Delete(u, v) => {
                    self.stats.deletes += 1;
                    if let Some(i) = self
                        .edges
                        .iter()
                        .position(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
                    {
                        self.edges.swap_remove(i);
                        deletions += 1;
                    }
                }
            }
        }
        self.hooks_since_rebuild += hooks;
        self.stats.hooks += hooks as u64;
        self.stats.batches += 1;

        let reason = if deletions > 0 {
            Some(RerunReason::Deletion)
        } else if self.opts.policy.stale(self.hooks_since_rebuild, n) {
            Some(RerunReason::Staleness)
        } else {
            None
        };
        match reason {
            Some(r) => self.rebuild(r)?,
            None => {
                self.store.publish();
            }
        }
        Ok(BatchOutcome {
            epoch: self.store.epoch(),
            hooks,
            deletions,
            rerun: reason,
        })
    }

    /// Full LACC recompute over the current edge multiset; installs the
    /// converged labels as a new epoch. A CSR the host cannot allocate is
    /// refused before any rank starts.
    fn rebuild(&mut self, reason: RerunReason) -> Result<(), dmsim::DmsimError> {
        let g = CsrGraph::try_from_pairs(self.num_vertices(), &self.edges)
            .map_err(|e| DmsimError::new(ErrorKind::InvalidConfig, format!("rebuild: {e}")))?;
        self.rebuild_on(&g, reason)
    }

    /// [`rebuild`](Self::rebuild) given the CSR of the current multiset.
    fn rebuild_on(&mut self, g: &CsrGraph, reason: RerunReason) -> Result<(), dmsim::DmsimError> {
        let opts = lacc::LaccOpts::builder()
            .engine(self.opts.policy.engine)
            .build();
        let cfg = lacc::RunConfig::new(self.opts.ranks, self.opts.model)
            .with_opts(opts)
            .with_trace_opt(self.sink.as_ref())
            .with_rerun(reason);
        let run = lacc::run(g, &cfg)?.run;
        self.store.install_labels(&run.labels);
        self.hooks_since_rebuild = 0;
        self.stats.reruns += 1;
        self.stats.rerun_modeled_s += run.modeled_total_s;
        match reason {
            RerunReason::Deletion => self.stats.deletion_reruns += 1,
            RerunReason::Staleness => self.stats.staleness_reruns += 1,
            RerunReason::Bootstrap => {}
        }
        Ok(())
    }

    /// A consistent view of the current epoch (cheap; never blocked or
    /// invalidated by later updates).
    pub fn snapshot(&self) -> EpochSnapshot {
        self.store.snapshot()
    }

    /// Component representative of `u` at the current epoch.
    pub fn find(&mut self, u: Vid) -> Vid {
        self.stats.queries += 1;
        self.snapshot().find(u)
    }

    /// True when `u` and `v` are connected at the current epoch.
    pub fn same_component(&mut self, u: Vid, v: Vid) -> bool {
        self.stats.queries += 1;
        self.snapshot().same_component(u, v)
    }

    /// Size of `u`'s component at the current epoch.
    pub fn component_size(&mut self, u: Vid) -> usize {
        self.stats.queries += 1;
        self.snapshot().component_size(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc::CcOracle;

    fn insert_batch(pairs: &[(Vid, Vid)]) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        for &(u, v) in pairs {
            b.insert(u, v);
        }
        b
    }

    #[test]
    fn inserts_hook_incrementally_without_reruns() {
        let mut svc = CcService::new(
            12,
            ServeOpts {
                policy: RerunPolicy::never(),
                ..Default::default()
            },
        );
        let out = svc
            .apply_batch(&insert_batch(&[(0, 1), (1, 2), (3, 4), (2, 0), (5, 5)]))
            .unwrap();
        assert_eq!(out.hooks, 3);
        assert_eq!(out.rerun, None);
        assert_eq!(out.epoch, 1);
        assert_eq!(svc.num_components(), 12 - 3);
        assert!(svc.same_component(0, 2));
        assert!(svc.same_component(3, 4));
        assert!(!svc.same_component(2, 4));
        assert_eq!(svc.component_size(1), 3);
        assert_eq!(svc.find(2), 0); // min-root representative
        assert_eq!(svc.stats().noop_inserts, 2); // self loop + cycle-closing edge
        assert_eq!(svc.stats().reruns, 0);
        assert_eq!(svc.stats().queries, 5);

        // Queries agree with the brute-force oracle over the multiset.
        let oracle = CcOracle::from_edges(12, svc.edges().iter().copied());
        let snap = svc.snapshot();
        for u in 0..12 {
            assert_eq!(snap.component_size(u), oracle.component_size(u));
            for v in 0..12 {
                assert_eq!(snap.same_component(u, v), oracle.same_component(u, v));
            }
        }
    }

    #[test]
    fn deletion_triggers_rerun_with_correct_labels() {
        let mut svc = CcService::new(
            8,
            ServeOpts {
                policy: RerunPolicy::never(),
                ..Default::default()
            },
        );
        // A path 0-1-2-3; deleting the middle edge must split it.
        svc.apply_batch(&insert_batch(&[(0, 1), (1, 2), (2, 3)]))
            .unwrap();
        assert!(svc.same_component(0, 3));

        let mut b = UpdateBatch::new();
        b.delete(2, 1); // reversed endpoints still match the (1, 2) edge
        let out = svc.apply_batch(&b).unwrap();
        assert_eq!(out.deletions, 1);
        assert_eq!(out.rerun, Some(RerunReason::Deletion));
        assert!(svc.same_component(0, 1));
        assert!(!svc.same_component(0, 3));
        assert_eq!(svc.component_size(3), 2);
        assert_eq!(svc.stats().deletion_reruns, 1);
        assert!(svc.stats().rerun_modeled_s > 0.0);

        // Deleting an absent edge is a no-op: no rerun.
        let mut b = UpdateBatch::new();
        b.delete(6, 7);
        let out = svc.apply_batch(&b).unwrap();
        assert_eq!(out.deletions, 0);
        assert_eq!(out.rerun, None);
        assert_eq!(svc.stats().reruns, 1);
    }

    #[test]
    fn staleness_policy_schedules_rebuilds() {
        // threshold 0.5 over n = 8: rebuild once > 4 hooks accumulate.
        let mut svc = CcService::new(
            8,
            ServeOpts {
                policy: RerunPolicy::staleness(0.5),
                ..Default::default()
            },
        );
        let out = svc
            .apply_batch(&insert_batch(&[(0, 1), (2, 3), (4, 5), (6, 7)]))
            .unwrap();
        assert_eq!((out.hooks, out.rerun), (4, None));
        let out = svc.apply_batch(&insert_batch(&[(1, 2)])).unwrap();
        assert_eq!(out.rerun, Some(RerunReason::Staleness));
        assert_eq!(svc.hooks_since_rebuild(), 0);
        assert_eq!(svc.stats().staleness_reruns, 1);
        // Labels after the rebuild are the canonical LACC ones.
        assert_eq!(svc.find(3), 0);
        assert_eq!(svc.num_components(), 3); // {0..3}, {4,5}, {6,7}
    }

    #[test]
    fn bootstrap_from_graph_and_trace_reasons() {
        let g = lacc_graph::generators::path_graph(9);
        let sink = TraceSink::new(dmsim::TraceLevel::Steps);
        let opts = ServeOpts {
            policy: RerunPolicy::always(),
            ..Default::default()
        };
        let mut svc = CcService::from_graph_traced(&g, opts, Some(sink.clone())).unwrap();
        assert_eq!(svc.num_components(), 1);
        assert_eq!(svc.component_size(4), 9);
        assert_eq!(svc.stats().reruns, 1); // the bootstrap

        let mut b = UpdateBatch::new();
        b.delete(0, 1); // effective deletion -> rebuild
        svc.apply_batch(&b).unwrap();
        assert_eq!(svc.num_components(), 2);
        let mut b = UpdateBatch::new();
        b.insert(1, 0);
        svc.apply_batch(&b).unwrap(); // 1 hook under always() -> staleness
        assert_eq!(svc.stats().staleness_reruns, 1);
        assert_eq!(svc.num_components(), 1);
        let report = sink.report();
        assert_eq!(report.counter(dmsim::Counter::Reruns), 3);
        assert!(report.kind_time_s("rerun(bootstrap)") > 0.0);
        assert!(report.kind_time_s("rerun(deletion)") > 0.0);
        assert!(report.kind_time_s("rerun(staleness)") > 0.0);
    }

    #[test]
    fn policy_engine_routes_rebuilds() {
        let g = lacc_graph::generators::path_graph(16);
        let sink = TraceSink::new(dmsim::TraceLevel::Steps);
        let opts = ServeOpts {
            policy: RerunPolicy::always().with_engine(lacc::EngineSelect::Fastsv),
            ..Default::default()
        };
        let mut svc = CcService::from_graph_traced(&g, opts, Some(sink.clone())).unwrap();
        assert!(svc.same_component(0, 15));
        // The bootstrap ran under the policy's engine, not the default.
        let report = sink.report();
        assert!(report.kind_time_s("engine(fastsv)") > 0.0);
        assert_eq!(report.kind_time_s("engine(lacc)"), 0.0);
    }

    #[test]
    fn an_out_of_range_update_refuses_the_whole_batch() {
        let g = lacc_graph::generators::path_graph(8);
        let mut svc = CcService::from_graph(&g, ServeOpts::default()).unwrap();
        let state = |svc: &CcService| {
            let labels = svc.snapshot().labels();
            (svc.epoch(), svc.edges().to_vec(), *svc.stats(), labels)
        };
        let before = state(&svc);
        for bad in [Update::Insert(0, 8), Update::Delete(8, 0)] {
            // The valid insert ahead of the bad update must not land either.
            let mut b = insert_batch(&[(0, 1)]);
            b.push(bad);
            let err = svc.apply_batch(&b).unwrap_err();
            assert_eq!(err.kind, dmsim::ErrorKind::InvalidConfig);
            let want = format!("update {bad:?} names a vertex outside 0..8");
            assert_eq!(err.message(), want);
            assert_eq!(state(&svc), before, "{bad:?} changed the service");
        }
    }

    #[test]
    fn snapshot_survives_rebuild() {
        let mut svc = CcService::new(6, ServeOpts::default());
        svc.apply_batch(&insert_batch(&[(0, 1)])).unwrap();
        let old = svc.snapshot();
        let mut b = UpdateBatch::new();
        b.delete(0, 1);
        svc.apply_batch(&b).unwrap(); // rebuild swaps in a new epoch
        assert!(old.same_component(0, 1));
        assert!(!svc.snapshot().same_component(0, 1));
        assert!(svc.snapshot().epoch() > old.epoch());
    }
}
