//! The Table III stand-in suite.
//!
//! One entry per test problem in the paper's Table III, with the paper's
//! reported statistics attached for paper-vs-measured comparison, and a
//! laptop-scale generator recipe matched on the three properties that drive
//! LACC performance (§VI-E): component-count regime, average degree, and
//! degree skew.

use super::{community_graph, mesh_3d, metagenome_graph, rmat, RmatParams};
use crate::CsrGraph;

/// The generator family and parameters for a stand-in graph.
#[derive(Clone, Debug)]
pub enum Recipe {
    /// Protein-similarity-like: many power-law components.
    Community {
        /// Total vertices.
        n: usize,
        /// Number of communities (= components).
        components: usize,
        /// Target intra-community average degree.
        degree: f64,
        /// Power-law exponent for community sizes.
        alpha: f64,
    },
    /// 3D structural mesh (single dense component).
    Mesh3d {
        /// Grid extent in x.
        x: usize,
        /// Grid extent in y.
        y: usize,
        /// Grid extent in z.
        z: usize,
    },
    /// Skewed Kronecker graph (web/social).
    Rmat {
        /// `2^scale` vertices.
        scale: u32,
        /// Sampled edges per vertex.
        edge_factor: usize,
        /// Quadrant probabilities.
        params: RmatParams,
    },
    /// Metagenome-like: extremely sparse, huge component count.
    Metagenome {
        /// Total vertices.
        n: usize,
        /// Mean contig path length.
        mean_path: usize,
        /// Fraction of vertices receiving a random repeat edge.
        repeat_fraction: f64,
    },
}

/// A named test problem: paper statistics plus the stand-in recipe.
#[derive(Clone, Debug)]
pub struct TestProblem {
    /// Name matching the paper's Table III row.
    pub name: &'static str,
    /// Short description from Table III.
    pub description: &'static str,
    /// Vertices in the paper's graph.
    pub paper_vertices: u64,
    /// Directed edges in the paper's graph.
    pub paper_edges: u64,
    /// Connected components in the paper's graph.
    pub paper_components: u64,
    /// Stand-in generator recipe.
    pub recipe: Recipe,
    /// Seed used for the stand-in.
    pub seed: u64,
}

impl TestProblem {
    /// Builds the stand-in graph at roughly `1/shrink` of its recipe's
    /// scale; `shrink` 1 (or 0) is the full-size stand-in. Vertex counts
    /// and component counts divide by `shrink`, each mesh side by
    /// `⌈∛shrink⌉` and the RMAT scale drops by `⌈log₂ shrink⌉`, each
    /// clamped at 16 vertices, one component, side 2 and scale 4.
    ///
    /// At `shrink` 1 every divisor is 1 and no clamp bites, because every
    /// suite recipe has n ≥ 16, components ≥ 1, mesh sides ≥ 2 and RMAT
    /// scale ≥ 4: the graph is byte-identical to the recipe's own.
    pub fn build(&self, shrink: usize) -> CsrGraph {
        let s = shrink.max(1);
        match self.recipe {
            Recipe::Community {
                n,
                components,
                degree,
                alpha,
            } => community_graph(
                (n / s).max(16),
                (components / s).max(1),
                degree,
                alpha,
                self.seed,
            ),
            Recipe::Mesh3d { x, y, z } => {
                let f = (s as f64).cbrt().ceil() as usize;
                mesh_3d((x / f).max(2), (y / f).max(2), (z / f).max(2))
            }
            Recipe::Rmat {
                scale,
                edge_factor,
                params,
            } => {
                let drop = (s as f64).log2().ceil() as u32;
                rmat(
                    scale.saturating_sub(drop).max(4),
                    edge_factor,
                    params,
                    self.seed,
                )
            }
            Recipe::Metagenome {
                n,
                mean_path,
                repeat_fraction,
            } => metagenome_graph((n / s).max(16), mean_path, repeat_fraction, self.seed),
        }
    }
}

/// The eight smaller Table III problems (Figure 4's workload).
pub fn suite_small() -> Vec<TestProblem> {
    vec![
        TestProblem {
            name: "archaea",
            description: "archaea protein-similarity network",
            paper_vertices: 1_644_641,
            paper_edges: 204_790_000,
            paper_components: 59_794,
            recipe: Recipe::Community {
                n: 50_000,
                components: 1_800,
                degree: 40.0,
                alpha: 1.3,
            },
            seed: 0xA2C_AEA,
        },
        TestProblem {
            name: "queen_4147",
            description: "3D structural problem",
            paper_vertices: 4_147_110,
            paper_edges: 329_500_000,
            paper_components: 1,
            recipe: Recipe::Mesh3d {
                x: 36,
                y: 36,
                z: 36,
            },
            seed: 0x0EE2,
        },
        TestProblem {
            name: "eukarya",
            description: "eukarya protein-similarity network",
            paper_vertices: 3_230_000,
            paper_edges: 359_740_000,
            paper_components: 164_156,
            recipe: Recipe::Community {
                n: 80_000,
                components: 4_000,
                degree: 30.0,
                alpha: 1.25,
            },
            seed: 0xE0CA,
        },
        TestProblem {
            name: "uk-2002",
            description: "2002 web crawl of .uk domain",
            paper_vertices: 18_480_000,
            paper_edges: 529_440_000,
            paper_components: 1_990,
            recipe: Recipe::Rmat {
                scale: 15,
                edge_factor: 14,
                params: RmatParams::web(),
            },
            seed: 0x0002,
        },
        TestProblem {
            name: "M3",
            description: "soil metagenomic data",
            paper_vertices: 531_000_000,
            paper_edges: 1_047_000_000,
            paper_components: 7_600_000,
            recipe: Recipe::Metagenome {
                n: 300_000,
                mean_path: 7,
                repeat_fraction: 0.004,
            },
            seed: 0x3333,
        },
        TestProblem {
            name: "twitter7",
            description: "twitter follower network",
            paper_vertices: 41_650_000,
            paper_edges: 2_405_000_000,
            paper_components: 1,
            recipe: Recipe::Rmat {
                scale: 15,
                edge_factor: 28,
                params: RmatParams::graph500(),
            },
            seed: 0x7777,
        },
        TestProblem {
            name: "sk-2005",
            description: "2005 web crawl of .sk domain",
            paper_vertices: 50_640_000,
            paper_edges: 3_639_000_000,
            paper_components: 45,
            recipe: Recipe::Rmat {
                scale: 15,
                edge_factor: 36,
                params: RmatParams::web(),
            },
            seed: 0x2005,
        },
        TestProblem {
            name: "MOLIERE_2016",
            description: "automatic biomedical hypothesis generation system",
            paper_vertices: 30_220_000,
            paper_edges: 6_677_000_000,
            paper_components: 4_457,
            recipe: Recipe::Rmat {
                scale: 14,
                edge_factor: 56,
                params: RmatParams::graph500(),
            },
            seed: 0x2016,
        },
    ]
}

/// The two large Table III problems (Figure 6's workload). Stand-ins are
/// larger than the small suite but still laptop-scale; Figure 6's point is
/// scaling to thousands of ranks, which the cost model supplies.
pub fn suite_big() -> Vec<TestProblem> {
    vec![
        TestProblem {
            name: "MOLIERE_2016_big",
            description: "MOLIERE_2016 at Figure-6 scale",
            paper_vertices: 30_220_000,
            paper_edges: 6_677_000_000,
            paper_components: 4_457,
            recipe: Recipe::Rmat {
                scale: 17,
                edge_factor: 30,
                params: RmatParams::graph500(),
            },
            seed: 0x0201_6B16,
        },
        TestProblem {
            name: "iso_m100",
            description: "similarities of proteins in IMG isolate genomes",
            paper_vertices: 68_480_000,
            paper_edges: 67_160_000_000,
            paper_components: 1_350_000,
            recipe: Recipe::Community {
                n: 400_000,
                components: 8_000,
                degree: 25.0,
                alpha: 1.3,
            },
            seed: 0x1501_0100,
        },
    ]
}

/// Looks a problem up by name across both suites.
pub fn by_name(name: &str) -> Option<TestProblem> {
    suite_small()
        .into_iter()
        .chain(suite_big())
        .find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisjointSets;

    fn components(g: &CsrGraph) -> usize {
        let mut ds = DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            ds.union(u, v);
        }
        ds.num_sets()
    }

    #[test]
    fn all_names_unique_and_resolvable() {
        let mut names: Vec<_> = suite_small()
            .iter()
            .chain(suite_big().iter())
            .map(|p| p.name)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn full_size_recipes_clear_every_clamp() {
        // `build(1)` is the recipe's own graph only while no clamp bites.
        for p in suite_small().into_iter().chain(suite_big()) {
            let ok = match p.recipe {
                Recipe::Community { n, components, .. } => n >= 16 && components >= 1,
                Recipe::Mesh3d { x, y, z } => x.min(y).min(z) >= 2,
                Recipe::Rmat { scale, .. } => scale >= 4,
                Recipe::Metagenome { n, .. } => n >= 16,
            };
            assert!(ok, "{} would be clamped at shrink 1", p.name);
        }
    }

    #[test]
    fn small_builds_validate() {
        // Build drastically shrunk variants so the test is fast; the full
        // defaults are exercised by the experiment binaries.
        for p in suite_small() {
            let g = p.build(64);
            assert!(g.validate().is_ok(), "{} invalid", p.name);
            assert!(g.num_vertices() > 0);
        }
    }

    #[test]
    fn component_regimes_match_paper_classes() {
        // queen-like: single component; archaea-like: many components.
        let queen = by_name("queen_4147").unwrap().build(27);
        assert_eq!(components(&queen), 1);
        let archaea = by_name("archaea").unwrap().build(16);
        assert!(components(&archaea) > 50);
    }
}
