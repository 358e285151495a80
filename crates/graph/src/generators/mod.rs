//! Synthetic graph generators.
//!
//! The paper evaluates on ten graphs (Table III) spanning protein-similarity
//! networks, web crawls, meshes, social networks, and metagenome assembly
//! graphs. Those inputs are proprietary or too large for a single host, so
//! each generator here produces a *structurally matched stand-in*: same
//! component-count regime, similar average degree, similar degree skew —
//! the three properties §VI-E identifies as driving LACC's performance.
//!
//! All generators are deterministic given their seed.

mod community;
mod mesh;
mod metagenome;
mod random;
mod rmat;
mod simple;
mod social;
pub mod suite;

pub use community::{community_graph, try_community_graph};
pub use mesh::{mesh_2d, mesh_3d, try_mesh_3d};
pub use metagenome::{metagenome_graph, try_metagenome_graph};
pub use random::{erdos_renyi_gnm, erdos_renyi_gnp, try_erdos_renyi_gnm};
pub use rmat::{rmat, try_rmat, RmatParams};
pub use simple::{complete_graph, cycle_graph, path_graph, random_forest, star_graph};
pub use social::{barabasi_albert, watts_strogatz};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used by every generator.
pub(crate) fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}
