//! Figure 4 — strong scaling of LACC vs ParConnect on Edison.
//!
//! Eight smaller test problems, node counts up to 256 (paper: up to 256
//! nodes / 6144 cores). LACC runs 4 ranks per node (hybrid); ParConnect
//! runs flat MPI (24 ranks/node on Edison), squared down to a legal grid.
//! The y-value is modeled seconds from the α-β cost tracker — who wins,
//! by what factor, and where curves flatten is the reproduced shape.

use dmsim::EDISON;
use lacc_bench::{scaling_figure, scaling_nodes, ScalingFigure};
use lacc_graph::generators::suite::suite_small;

fn main() {
    scaling_figure(&ScalingFigure {
        title: "Figure 4: strong scaling on Edison (LACC vs ParConnect)",
        csv: "fig4_edison_scaling",
        machine: EDISON,
        nodes: scaling_nodes(),
        problems: suite_small(),
        iterations: true,
    });
}
