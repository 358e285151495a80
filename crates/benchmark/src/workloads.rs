//! The four workloads: what each one generates and why it exists.
//!
//! Every workload pushes one graph family through the *whole* pipeline —
//! generate → `lacc::run` (permute, 2D distribute, iterate, gather labels)
//! → serve it (`CcService` bootstrap, insert batches, delete-triggered
//! rebuilds, query bursts) — so every end-to-end metric is defined on
//! every workload. They differ in which layers carry the weight:
//!
//! * `rmat_lacc` — skewed degrees, dense `mxv` all the way (the paper's
//!   web-crawl case);
//! * `community_lacc` — tens of thousands of components, Lemma-1
//!   retirement, sparse `mxv`, extract/assign/starcheck dominate (the
//!   protein-similarity case, Fig. 7);
//! * `mesh_fastsv` — the same `gblas::dist` primitives under a different
//!   engine: no starcheck, no retirement;
//! * `serve_mixed` — a small graph where writes sit beside reads: a long
//!   script (3 × 84 batches, 21 rebuilds), spawn/join and collective
//!   latency matter.
//!
//! The names are fixed: later issues cite them.

use crate::rng::SplitMix64;
use lacc::EngineSelect;
use lacc_graph::generators::{community_graph, mesh_3d, rmat, RmatParams};
use lacc_graph::{CsrGraph, EdgeList};

/// How big the inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Tiny inputs and few repetitions: the schema test and `selfcheck`
    /// run every workload in seconds, debug build included.
    Smoke,
}

/// The graph family of a workload.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// `rmat(scale, edge_factor, graph500, seed)`.
    Rmat {
        /// log₂ of the vertex count.
        scale: u32,
        /// Sampled edges per vertex.
        edge_factor: usize,
    },
    /// `community_graph(2^log_n, 2^log_n / 12, 8.0, 1.4, seed)`.
    Community {
        /// log₂ of the vertex count.
        log_n: u32,
    },
    /// `mesh_3d(side, side, side)` with 1 % of its edges removed by the
    /// seed. The mesh generator itself takes no seed; relabeling it would
    /// flip FastSV between 7 and 8 iterations from seed to seed, while
    /// sparse random defects keep the structure (and the iteration count)
    /// and still make every seed a different input.
    Mesh {
        /// Vertices per side.
        side: usize,
    },
}

/// Shape of the serving script one service is driven through (the
/// end-to-end pass serves three instances, so three of these).
#[derive(Clone, Copy, Debug)]
pub struct ScriptSpec {
    /// Update batches applied.
    pub batches: usize,
    /// Uniform random inserts per batch.
    pub batch_size: usize,
    /// Every `delete_every`-th batch also deletes one existing edge,
    /// which forces a full rebuild.
    pub delete_every: usize,
    /// Queries after each batch, a third each of `find`,
    /// `same_component` and `component_size`.
    pub queries_per_batch: usize,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// Input family.
    pub graph: GraphSpec,
    /// Engine `lacc::run` and the service's rebuilds use.
    pub engine: EngineSelect,
    /// Serving script shape.
    pub script: ScriptSpec,
}

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = ["rmat_lacc", "community_lacc", "mesh_fastsv", "serve_mixed"];

/// The workload called `name` at `profile` sizes.
pub fn workload(name: &str, profile: Profile) -> Option<Workload> {
    let full = profile == Profile::Full;
    // The three CC workloads serve each instance only briefly: enough
    // batches for a median, two rebuilds per instance.
    let tail = if full {
        ScriptSpec {
            batches: 16,
            batch_size: 1024,
            delete_every: 8,
            queries_per_batch: 8192,
        }
    } else {
        ScriptSpec {
            batches: 8,
            batch_size: 32,
            delete_every: 4,
            queries_per_batch: 96,
        }
    };
    let w = match name {
        "rmat_lacc" => Workload {
            name: "rmat_lacc",
            graph: GraphSpec::Rmat {
                scale: if full { 16 } else { 10 },
                edge_factor: 16,
            },
            engine: EngineSelect::Lacc,
            script: tail,
        },
        "community_lacc" => Workload {
            name: "community_lacc",
            graph: GraphSpec::Community {
                log_n: if full { 17 } else { 11 },
            },
            engine: EngineSelect::Lacc,
            script: tail,
        },
        "mesh_fastsv" => Workload {
            name: "mesh_fastsv",
            graph: GraphSpec::Mesh {
                side: if full { 48 } else { 10 },
            },
            engine: EngineSelect::Fastsv,
            script: tail,
        },
        "serve_mixed" => Workload {
            name: "serve_mixed",
            graph: GraphSpec::Rmat {
                scale: if full { 16 } else { 10 },
                edge_factor: 4,
            },
            engine: EngineSelect::Lacc,
            script: if full {
                ScriptSpec {
                    batches: 84,
                    batch_size: 1024,
                    delete_every: 12,
                    queries_per_batch: 8192,
                }
            } else {
                ScriptSpec {
                    batches: 12,
                    batch_size: 32,
                    delete_every: 6,
                    queries_per_batch: 96,
                }
            },
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Generates instance `instance` of this workload's family for `seed`
    /// (a run draws several instances; each has its own sub-seed).
    pub fn generate(&self, seed: u64, instance: u64) -> CsrGraph {
        let mut rng = SplitMix64::derive(seed, instance);
        match self.graph {
            GraphSpec::Rmat { scale, edge_factor } => {
                rmat(scale, edge_factor, RmatParams::graph500(), rng.next_u64())
            }
            GraphSpec::Community { log_n } => {
                let n = 1usize << log_n;
                community_graph(n, n / 12, 8.0, 1.4, rng.next_u64())
            }
            GraphSpec::Mesh { side } => {
                let mesh = mesh_3d(side, side, side);
                let kept = mesh.edges().filter(|&(u, v)| u < v && rng.below(100) != 0);
                CsrGraph::from_edges(EdgeList::from_pairs(mesh.num_vertices(), kept))
            }
        }
    }

    /// The generator call, for the printed run header.
    pub fn describe(&self) -> String {
        match self.graph {
            GraphSpec::Rmat { scale, edge_factor } => {
                format!("rmat({scale}, {edge_factor}, graph500, seed)")
            }
            GraphSpec::Community { log_n } => {
                format!("community_graph(2^{log_n}, 2^{log_n}/12, 8.0, 1.4, seed)")
            }
            GraphSpec::Mesh { side } => {
                format!("mesh_3d({side}, {side}, {side}) minus 1% of edges by seed")
            }
        }
    }
}

/// The random part of a serving script, drawn before anything is timed.
#[derive(Clone, Debug)]
pub struct Script {
    /// Insert endpoints, `batch_size` pairs per batch.
    pub inserts: Vec<Vec<(usize, usize)>>,
    /// For a deleting batch, a random word that picks the victim among
    /// the service's edges at that moment (`word % edges.len()`).
    pub delete_pick: Vec<Option<u64>>,
    /// Query vertices per burst: `queries_per_batch` firsts, and seconds
    /// for the `same_component` third.
    pub queries: Vec<Vec<(usize, usize)>>,
}

impl Script {
    /// Draws the script that serves instance `instance` (`n` vertices).
    pub fn generate(spec: &ScriptSpec, n: usize, seed: u64, instance: u64) -> Script {
        let mut rng = SplitMix64::derive(seed, 0x5E21_7E00 + instance);
        let mut pairs = |count: usize| -> Vec<(usize, usize)> {
            (0..count).map(|_| (rng.below(n), rng.below(n))).collect()
        };
        let inserts = (0..spec.batches).map(|_| pairs(spec.batch_size)).collect();
        let queries = (0..spec.batches)
            .map(|_| pairs(spec.queries_per_batch))
            .collect();
        let delete_pick = (0..spec.batches)
            .map(|b| {
                (spec.delete_every > 0 && (b + 1) % spec.delete_every == 0).then(|| rng.next_u64())
            })
            .collect();
        Script {
            inserts,
            delete_pick,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_at_both_profiles() {
        for name in NAMES {
            for profile in [Profile::Full, Profile::Smoke] {
                assert_eq!(workload(name, profile).unwrap().name, name);
            }
        }
        assert!(workload("nope", Profile::Full).is_none());
    }

    #[test]
    fn seed_and_instance_fix_the_inputs() {
        for name in NAMES {
            let w = workload(name, Profile::Smoke).unwrap();
            let a = w.generate(7, 0);
            assert_eq!(a.targets(), w.generate(7, 0).targets(), "{name}: same seed");
            assert_ne!(
                a.targets(),
                w.generate(8, 0).targets(),
                "{name}: other seed"
            );
            assert_ne!(
                a.targets(),
                w.generate(7, 1).targets(),
                "{name}: other instance"
            );
        }
    }

    #[test]
    fn script_shape_follows_the_spec() {
        let spec = ScriptSpec {
            batches: 6,
            batch_size: 5,
            delete_every: 3,
            queries_per_batch: 9,
        };
        let s = Script::generate(&spec, 100, 7, 0);
        assert_eq!(s.inserts.len(), 6);
        assert!(s.inserts.iter().all(|b| b.len() == 5));
        assert!(s.queries.iter().all(|q| q.len() == 9));
        let deleting: Vec<usize> = (0..6).filter(|&b| s.delete_pick[b].is_some()).collect();
        assert_eq!(deleting, vec![2, 5]);
        assert!(s.inserts.iter().flatten().all(|&(u, v)| u < 100 && v < 100));
        assert_ne!(s.inserts, Script::generate(&spec, 100, 8, 0).inserts);
        assert_ne!(s.inserts, Script::generate(&spec, 100, 7, 1).inserts);
    }
}
