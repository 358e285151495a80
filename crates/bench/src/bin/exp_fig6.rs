//! Figure 6 — the two big graphs at high node counts on Cori KNL.
//!
//! The paper scales MOLIERE_2016 and iso_m100 to 4096 nodes (262,144
//! cores) and shows ParConnect collapsing past 256 nodes while LACC keeps
//! scaling. We run the larger stand-ins over an extended node sweep; rank
//! counts are clamped (thread-per-rank simulation), with the α-β model
//! still charged for the clamped grid, so the reported curve is the
//! modeled time at the simulated rank count.

use dmsim::CORI_KNL;
use lacc_bench::{full_mode, scaling_figure, ScalingFigure};
use lacc_graph::generators::suite::suite_big;

fn main() {
    let nodes = if full_mode() {
        vec![4, 16, 64, 256, 1024, 4096]
    } else {
        vec![4, 16, 64, 256]
    };
    scaling_figure(&ScalingFigure {
        title: "Figure 6: big graphs on Cori KNL",
        csv: "fig6_big_graphs",
        machine: CORI_KNL,
        nodes,
        problems: suite_big(),
        iterations: false,
    });
}
