//! Figure 5 — strong scaling of LACC vs ParConnect on Cori KNL.
//!
//! The four test problems with the most connected components (archaea,
//! eukarya, M3, iso_m100 in the paper; our stand-ins), on the KNL machine
//! model: LACC with 4 ranks/node (16 threads each), ParConnect flat with
//! 64 ranks/node. Expected shapes: LACC wins except on M3 (comparable),
//! and both run slower than on Edison for the same node count.

use dmsim::CORI_KNL;
use lacc_bench::{scaling_figure, scaling_nodes, ScalingFigure};
use lacc_graph::generators::suite::by_name;

fn main() {
    let names = ["archaea", "eukarya", "M3", "iso_m100"];
    scaling_figure(&ScalingFigure {
        title: "Figure 5: strong scaling on Cori KNL (many-component graphs)",
        csv: "fig5_cori_scaling",
        machine: CORI_KNL,
        nodes: scaling_nodes(),
        problems: names.map(|n| by_name(n).expect("known problem")).to_vec(),
        iterations: false,
    });
}
