//! The metric catalogue and the set of values one run reports.
//!
//! Every metric the benchmark can print is declared here once — name,
//! unit, direction, and for end-to-end metrics the regression bound — and
//! `BENCHMARK.json` at the repository root lists the same names
//! (`tests/schema.rs` keeps the two in step). A run collects values into a
//! [`MetricSet`], which refuses to emit unless exactly the catalogue's
//! names for that pass were set, each once, each finite.

use crate::json::escape;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which this may worsen before it is
    /// a regression. Set from the spread measured over ten seeds (see the
    /// crate README), which is what the gate can resolve.
    pub bound: f64,
    /// True when the value is a function of the inputs alone (modeled
    /// clock, byte counters): two runs with one seed must agree exactly.
    pub exact: bool,
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Layer probe: the benchmark times direct calls into the layer.
    Probe,
    /// The library-traced `lacc::run` (`TraceLevel::Collectives`).
    Traced,
    /// The untraced `lacc::run` repetitions of the per-layer pass.
    Reps,
    /// The serving script (`CcService` / `EpochSnapshot` calls).
    Script,
}

/// A per-layer metric; the layer is the name's prefix (a crate).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// A bound is three times the widest spread (interquartile range over
/// median, ten seeds) any workload showed on the 2-core baseline host, or
/// the contract's cap of 0.25 if that is smaller: wall-clock metrics
/// spread up to 8–10 % there and sit at the cap, as does set-up; modeled
/// seconds and byte counts move only with the drawn graphs (up to 4 %).
/// The crate README tabulates the measured spreads.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("run_wall_s", "s", Lower, 0.25, false),
    e2e("modeled_s", "s", Lower, 0.15, true),
    e2e("modeled_p16_s", "s", Lower, 0.15, true),
    e2e("wire_bytes", "bytes", Lower, 0.15, true),
    e2e("wire_bytes_p16", "bytes", Lower, 0.15, true),
    e2e("peak_rss_mb", "MB", Lower, 0.2, false),
    e2e("serve_wall_s", "s", Lower, 0.25, false),
    e2e("insert_batch_p50_s", "s", Lower, 0.25, false),
    e2e("rebuild_batch_p50_s", "s", Lower, 0.25, false),
    e2e("queries_per_s", "1/s", Higher, 0.25, false),
    e2e("rebuild_modeled_s", "s", Lower, 0.25, true),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Probe, Reps, Script, Traced};

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// `probe_` marks numbers taken inside a benchmark-owned SPMD region;
/// the same op without it is the total over the traced `lacc::run`.
pub const PER_LAYER: &[PerLayer] = &[
    layer("graph.generate_s", "s", Lower, Probe),
    layer("graph.n", "count", Lower, Probe),
    layer("graph.m_directed", "count", Lower, Probe),
    layer("graph.components", "count", Lower, Probe),
    layer("graph.permute_s", "s", Lower, Probe),
    layer("baselines.unionfind_s", "s", Lower, Probe),
    layer("gblas.serial.mxv_dense_s", "s", Lower, Probe),
    layer("gblas.serial.mxv_dense_gbps", "GB/s", Higher, Probe),
    layer("gblas.serial.mxv_sparse_s", "s", Lower, Probe),
    layer("gblas.serial.mxv_sparse_gbps", "GB/s", Higher, Probe),
    layer("gblas.serial.mxv_sparse_par2_ratio", "ratio", Lower, Probe),
    layer("gblas.serial.extract_s", "s", Lower, Probe),
    layer("gblas.serial.assign_s", "s", Lower, Probe),
    layer("gblas.dist.distribute_s", "s", Lower, Probe),
    layer("gblas.dist.probe_mxv_dense_wall_s", "s", Lower, Probe),
    layer("gblas.dist.probe_mxv_dense_modeled_s", "s", Lower, Probe),
    layer("gblas.dist.probe_mxv_dense_bytes", "bytes", Lower, Probe),
    layer("gblas.dist.probe_mxv_sparse_wall_s", "s", Lower, Probe),
    layer("gblas.dist.probe_mxv_sparse_modeled_s", "s", Lower, Probe),
    layer("gblas.dist.probe_mxv_sparse_bytes", "bytes", Lower, Probe),
    layer("gblas.dist.probe_extract_wall_s", "s", Lower, Probe),
    layer("gblas.dist.probe_extract_modeled_s", "s", Lower, Probe),
    layer("gblas.dist.probe_extract_bytes", "bytes", Lower, Probe),
    layer("gblas.dist.probe_assign_wall_s", "s", Lower, Probe),
    layer("gblas.dist.probe_assign_modeled_s", "s", Lower, Probe),
    layer("gblas.dist.probe_assign_bytes", "bytes", Lower, Probe),
    layer("gblas.dist.mxv_modeled_s", "s", Lower, Traced),
    layer("gblas.dist.mxv_count", "count", Lower, Traced),
    layer("gblas.dist.mxv_words", "count", Lower, Traced),
    layer("gblas.dist.extract_modeled_s", "s", Lower, Traced),
    layer("gblas.dist.extract_count", "count", Lower, Traced),
    layer("gblas.dist.extract_words", "count", Lower, Traced),
    layer("gblas.dist.assign_modeled_s", "s", Lower, Traced),
    layer("gblas.dist.assign_count", "count", Lower, Traced),
    layer("gblas.dist.assign_words", "count", Lower, Traced),
    layer("dmsim.spmd_spawn_s", "s", Lower, Probe),
    layer("dmsim.probe_allreduce_wall_s", "s", Lower, Probe),
    layer("dmsim.probe_allgatherv_wall_s", "s", Lower, Probe),
    layer("dmsim.probe_allgatherv_modeled_s", "s", Lower, Probe),
    layer("dmsim.probe_alltoallv_pairwise_wall_s", "s", Lower, Probe),
    layer(
        "dmsim.probe_alltoallv_pairwise_modeled_s",
        "s",
        Lower,
        Probe,
    ),
    layer("dmsim.probe_alltoallv_hypercube_wall_s", "s", Lower, Probe),
    layer(
        "dmsim.probe_alltoallv_hypercube_modeled_s",
        "s",
        Lower,
        Probe,
    ),
    layer("dmsim.probe_alltoallv_sparse_wall_s", "s", Lower, Probe),
    layer("dmsim.probe_alltoallv_sparse_modeled_s", "s", Lower, Probe),
    layer("dmsim.transport_mbps", "MB/s", Higher, Probe),
    layer("dmsim.messages", "count", Lower, Traced),
    layer("dmsim.compute_modeled_s", "s", Lower, Traced),
    layer("dmsim.comm_modeled_s", "s", Lower, Traced),
    layer("dmsim.load_imbalance", "ratio", Lower, Traced),
    layer("dmsim.allgatherv_modeled_s", "s", Lower, Traced),
    layer("dmsim.allgatherv_words", "count", Lower, Traced),
    layer("dmsim.allgatherv_count", "count", Lower, Traced),
    layer("dmsim.reduce_scatter_modeled_s", "s", Lower, Traced),
    layer("dmsim.reduce_scatter_words", "count", Lower, Traced),
    layer("dmsim.reduce_scatter_count", "count", Lower, Traced),
    layer("dmsim.alltoallv_modeled_s", "s", Lower, Traced),
    layer("dmsim.alltoallv_words", "count", Lower, Traced),
    layer("dmsim.alltoallv_count", "count", Lower, Traced),
    layer("dmsim.allreduce_modeled_s", "s", Lower, Traced),
    layer("dmsim.allreduce_words", "count", Lower, Traced),
    layer("dmsim.allreduce_count", "count", Lower, Traced),
    layer("core.iterations", "count", Lower, Traced),
    layer("core.engine_modeled_rank_s", "s", Lower, Traced),
    layer("core.dense_iters", "count", Lower, Traced),
    layer("core.sparse_iters", "count", Lower, Traced),
    layer("core.active_frac", "ratio", Lower, Traced),
    layer("core.hooks", "count", Lower, Traced),
    layer("core.shortcut_changes", "count", Lower, Traced),
    layer("core.cond_hook_modeled_s", "s", Lower, Traced),
    layer("core.uncond_hook_modeled_s", "s", Lower, Traced),
    layer("core.shortcut_modeled_s", "s", Lower, Traced),
    layer("core.starcheck_modeled_s", "s", Lower, Traced),
    layer("core.run_wall_s", "s", Lower, Reps),
    layer("core.spmd_wall_s", "s", Lower, Reps),
    layer("core.pre_spmd_s", "s", Lower, Reps),
    layer("core.run_wall_cold_s", "s", Lower, Reps),
    layer("core.traced_wall_s", "s", Lower, Traced),
    layer("core.trace_overhead_frac", "ratio", Lower, Traced),
    layer("core.model_over_wall", "ratio", Higher, Reps),
    layer("core.vs_unionfind", "ratio", Higher, Reps),
    layer("serving.bootstrap_s", "s", Lower, Script),
    layer("serving.insert_batch_p95_s", "s", Lower, Script),
    layer("serving.insert_batch_max_s", "s", Lower, Script),
    layer("serving.rebuild_batch_max_s", "s", Lower, Script),
    layer("serving.find_ns", "ns", Lower, Script),
    layer("serving.same_component_ns", "ns", Lower, Script),
    layer("serving.component_size_ns", "ns", Lower, Script),
    layer("serving.snapshot_ns", "ns", Lower, Script),
    layer("serving.updates_per_s", "1/s", Higher, Script),
    layer("serving.hooks", "count", Lower, Script),
    layer("serving.noop_inserts", "count", Lower, Script),
    layer("serving.noop_frac", "ratio", Lower, Script),
    layer("serving.rebuilds", "count", Lower, Script),
    layer("serving.final_components", "count", Lower, Script),
    layer("serving.modeled_query_p50_s", "s", Lower, Script),
    layer("serving.modeled_query_p99_s", "s", Lower, Script),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Median, extremes and count of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// The median (mean of the middle pair for even counts).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Statistics of `samples`, or `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Stats> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Some(Stats {
            median,
            min: s[0],
            max: s[n - 1],
            n,
        })
    }
}

/// The `pct`-th percentile (nearest rank) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Stats::of(samples).map_or(0.0, |s| s.median)
}

#[derive(Clone, Debug)]
struct Entry {
    name: &'static str,
    value: f64,
    spread: Option<Stats>,
}

/// The values one pass of one workload reports.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    entries: Vec<Entry>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Sets `name` to a single measured value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.entries.push(Entry {
            name,
            value,
            spread: None,
        });
    }

    /// Sets `name` to the median of `samples`, remembering min, max and
    /// the count for the printed table. No samples reads as NaN, which
    /// [`MetricSet::validate`] rejects.
    pub fn put_samples(&mut self, name: &'static str, samples: &[f64]) {
        let spread = Stats::of(samples);
        self.entries.push(Entry {
            name,
            value: spread.map_or(f64::NAN, |s| s.median),
            spread,
        });
    }

    /// Sets `name` to the median over `groups` of each group's median —
    /// one group per graph instance, so an outlying instance moves the
    /// value not at all rather than part of the way. Min, max and count
    /// are those of all samples together.
    pub fn put_grouped(&mut self, name: &'static str, groups: &[impl AsRef<[f64]>]) {
        let medians: Vec<f64> = groups
            .iter()
            .filter_map(|g| Stats::of(g.as_ref()))
            .map(|s| s.median)
            .collect();
        let pooled: Vec<f64> = groups.iter().flat_map(|g| g.as_ref()).copied().collect();
        self.entries.push(Entry {
            name,
            value: Stats::of(&medians).map_or(f64::NAN, |s| s.median),
            spread: Stats::of(&pooled),
        });
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Checks that exactly `expected` was set: every name once, nothing
    /// else, every value finite.
    pub fn validate<'a>(&self, expected: impl Iterator<Item = &'a str>) -> Result<(), String> {
        let expected: Vec<&str> = expected.collect();
        for name in &expected {
            match self.entries.iter().filter(|e| e.name == *name).count() {
                1 => {}
                0 => return Err(format!("metric {name} was not measured")),
                k => return Err(format!("metric {name} was set {k} times")),
            }
        }
        for e in &self.entries {
            if !expected.contains(&e.name) {
                return Err(format!("metric {} is not in the catalogue", e.name));
            }
            if !e.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", e.name, e.value));
            }
        }
        Ok(())
    }

    /// The entries in catalogue order (uncatalogued names last).
    fn ordered(&self) -> Vec<&Entry> {
        let position = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .position(|n| n == name)
                .unwrap_or(usize::MAX)
        };
        let mut entries: Vec<&Entry> = self.entries.iter().collect();
        entries.sort_by_key(|e| position(e.name));
        entries
    }

    /// Prints one `metric <name> <value> <unit> [min= max= n=]` line each.
    pub fn print_table(&self) {
        for e in self.ordered() {
            let unit = unit_of(e.name).unwrap_or("?");
            match e.spread {
                Some(s) if s.n > 1 => println!(
                    "metric {} {} {} min={} max={} n={}",
                    e.name, e.value, unit, s.min, s.max, s.n
                ),
                _ => println!("metric {} {} {}", e.name, e.value, unit),
            }
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric as `{"value", "unit"}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .ordered()
            .into_iter()
            .map(|e| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(e.name),
                    e.value,
                    escape(unit_of(e.name).unwrap_or("?"))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate metric {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn stats_and_percentiles() {
        let s = Stats::of(&[3.0, 1.0, 2.0, 10.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 10.0, 4));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn validate_wants_every_name_once_and_finite() {
        let want = ["setup_s", "run_wall_s"];
        let mut m = MetricSet::new();
        m.put("setup_s", 1.0);
        assert!(m.validate(want.iter().copied()).is_err(), "missing name");
        m.put_samples("run_wall_s", &[]);
        assert!(
            m.validate(want.iter().copied()).is_err(),
            "NaN from no samples"
        );
        let mut m = MetricSet::new();
        m.put("setup_s", 1.0);
        m.put_samples("run_wall_s", &[0.5, 0.7, 0.6]);
        assert!(m.validate(want.iter().copied()).is_ok());
        m.put("peak_rss_mb", 3.0);
        assert!(m.validate(want.iter().copied()).is_err(), "unexpected name");
    }

    #[test]
    fn grouped_median_ignores_one_outlying_group() {
        let mut m = MetricSet::new();
        m.put_grouped(
            "run_wall_s",
            &[
                vec![1.0, 1.1, 1.2],
                vec![0.5, 0.5, 0.5, 0.5],
                vec![1.0, 1.2],
            ],
        );
        // Pooled, the median would be 1.0; per-group medians are 1.1, 0.5, 1.1.
        assert_eq!(m.get("run_wall_s"), Some(1.1));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = MetricSet::new();
        m.put("setup_s", 0.8127);
        m.put("wire_bytes", 48_700_000.0);
        let v = Json::parse(&m.result_line(10, 0)).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let w = v.get("metrics").and_then(|m| m.get("wire_bytes")).unwrap();
        assert_eq!(w.get("value").and_then(Json::as_f64), Some(48_700_000.0));
        assert_eq!(w.get("unit").and_then(Json::as_str), Some("bytes"));
        let bad = Json::parse(&m.result_line(10, 1)).unwrap();
        assert_eq!(bad.get("correct"), Some(&Json::Bool(false)));
    }
}
