//! The α-β communication cost model and machine presets.
//!
//! The paper analyzes its primitives in the standard model where sending a
//! message of `m` words costs `α + β·m` and a rank performing `F` local
//! operations spends `F / rate` seconds (§V-A). We parameterise two
//! machines after Table II:
//!
//! * **Edison** — Cray XC30, Intel Ivy Bridge, 24 cores/node, fast cores.
//! * **Cori KNL** — Cray XC40, Intel KNL, 68 cores/node (we model 64
//!   usable, as the paper's 64-rank ParConnect runs do), slow cores.
//!
//! Node-level resources (injection bandwidth, cores) are fixed per machine;
//! a [`MachineModel`] is derived for a given *ranks-per-node* choice, which
//! is how the paper contrasts LACC (4 ranks/node, multithreaded) with
//! ParConnect (one rank per core, flat MPI): flat MPI divides node
//! bandwidth across more ranks and multiplies latency-bound terms by the
//! larger rank count.
//!
//! The per-core throughput constants are *effective sparse-graph-op rates*
//! (edges or vector elements processed per second), not peak flops: sparse
//! kernels are memory-bound, and the ~3-4x Ivy-Bridge-vs-KNL single-thread
//! gap on such workloads is what makes both codes faster on Edison per node
//! (§VI-C).

/// Fixed physical description of a machine (per node).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Machine {
    /// Human-readable name.
    pub name: &'static str,
    /// Message latency in seconds (per message, MPI pt2pt).
    pub alpha: f64,
    /// Node injection bandwidth in 8-byte words per second.
    pub node_bw_words: f64,
    /// Effective sparse-graph operations per second per core.
    pub core_rate: f64,
    /// Cores per node.
    pub cores_per_node: usize,
}

/// NERSC Edison: Cray XC30, dual-socket Ivy Bridge (Table II).
pub const EDISON: Machine = Machine {
    name: "Edison (Ivy Bridge)",
    alpha: 3.0e-6,
    node_bw_words: 1.25e9, // ~10 GB/s injection
    core_rate: 1.2e7,
    cores_per_node: 24,
};

/// NERSC Cori: Cray XC40, Intel KNL (Table II).
pub const CORI_KNL: Machine = Machine {
    name: "Cori (KNL)",
    alpha: 5.0e-6,
    node_bw_words: 1.0e9, // ~8 GB/s injection
    core_rate: 3.5e6,
    cores_per_node: 64,
};

impl Machine {
    /// Derives the per-rank cost model when each node hosts
    /// `ranks_per_node` MPI ranks (remaining cores are used as threads
    /// inside each rank, as the paper's hybrid runs do).
    pub fn model(&self, ranks_per_node: usize) -> MachineModel {
        assert!(ranks_per_node >= 1 && ranks_per_node <= self.cores_per_node);
        let threads = (self.cores_per_node / ranks_per_node).max(1);
        MachineModel {
            machine: *self,
            ranks_per_node,
            alpha: self.alpha,
            beta: ranks_per_node as f64 / self.node_bw_words,
            rate: threads as f64 * self.core_rate,
        }
    }

    /// The paper's LACC configuration: 4 ranks per node.
    pub fn lacc_model(&self) -> MachineModel {
        self.model(4)
    }

    /// The paper's ParConnect configuration: flat MPI, one rank per core.
    pub fn flat_model(&self) -> MachineModel {
        self.model(self.cores_per_node)
    }
}

/// Per-rank cost parameters derived from a [`Machine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// The underlying machine.
    pub machine: Machine,
    /// Ranks per node this model was derived for.
    pub ranks_per_node: usize,
    /// Seconds per message.
    pub alpha: f64,
    /// Seconds per 8-byte word (per rank share of node bandwidth).
    pub beta: f64,
    /// Local operations per second for this rank.
    pub rate: f64,
}

impl MachineModel {
    /// An idealized model with zero communication cost and unit compute
    /// rate; useful in unit tests where only message *counts* matter.
    pub fn free() -> MachineModel {
        MachineModel {
            machine: Machine {
                name: "free",
                alpha: 0.0,
                node_bw_words: f64::INFINITY,
                core_rate: 1.0,
                cores_per_node: 1,
            },
            ranks_per_node: 1,
            alpha: 0.0,
            beta: 0.0,
            rate: 1.0,
        }
    }
}

/// Declares [`Counter`] from one entry per counter: its documentation, its
/// variant and the label the trace report prints before its total. The
/// variants, [`Counter::ALL`] and [`Counter::label`] cannot disagree.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $label:literal,)+) => {
        /// What a run counts besides its clock and its traffic. Each
        /// primitive notes its entry on the rank where the event happens
        /// ([`crate::Comm::count`]), into [`CostSnapshot::counters`]; the
        /// trace report sums them over ranks. No counter feeds the clock.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; [$($label),+].len()] = [$(Counter::$variant),+];

            /// What the trace report prints before a nonzero total.
            pub fn label(self) -> &'static str {
                match self {
                    $(Counter::$variant => $label,)+
                }
            }
        }
    };
}

counters! {
    /// 8-byte words request dedup and monoid pre-combining kept off the wire.
    WordsSaved => "words kept off the wire by sender-side compaction",
    /// 8-byte words that different origins merged at a combining hop here.
    CombinedWords => "words merged in flight at combining hops",
    /// Serving-layer epoch rebuilds, noted on rank 0 only: sums count each once.
    Reruns => "full LACC reruns (causes in the rerun(...) span rows)",
    /// Extract requests this rank answered point-to-point (Figure 3).
    RequestsReceived => "extract requests answered point-to-point",
    /// Hot-rank broadcasts this rank made instead of answering requests.
    HotBroadcasts => "hot-rank broadcasts",
}

/// Per-rank accounting: the simulated clock plus local breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostSnapshot {
    /// Simulated seconds elapsed on this rank (synchronized at receives).
    pub clock_s: f64,
    /// Seconds attributed to local computation.
    pub compute_s: f64,
    /// Seconds attributed to communication (α + β terms).
    pub comm_s: f64,
    /// Messages this rank sent.
    pub messages_sent: u64,
    /// Messages this rank received from other ranks.
    pub messages_received: u64,
    /// 8-byte words this rank sent.
    pub words_sent: u64,
    /// 8-byte words this rank received.
    pub words_received: u64,
    /// Exact payload bytes this rank sent. Words round each payload up to
    /// 8-byte units for the β charge; bytes record the true element sizes,
    /// so narrowing an index word from `u64` to `u32` shows up here even
    /// when a tiny payload's word count is unchanged by rounding.
    pub bytes_sent: u64,
    /// Exact payload bytes this rank received.
    pub bytes_received: u64,
    /// Seconds of exchange time hidden behind overlapped local compute by
    /// non-blocking collective handles (see [`crate::CommHandle`]). A clock
    /// term, not an observation: every second accumulated here was also
    /// subtracted from [`CostSnapshot::clock_s`] when the overlap credit
    /// was applied at completion.
    pub overlap_hidden_s: f64,
    /// The counter registry: entry `c as usize` is [`Counter`] `c`'s total
    /// on this rank (read it with [`CostSnapshot::counter`]).
    pub counters: [u64; Counter::ALL.len()],
}

impl CostSnapshot {
    /// This rank's total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Componentwise difference `self - earlier` (for phase timing).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            clock_s: self.clock_s - earlier.clock_s,
            compute_s: self.compute_s - earlier.compute_s,
            comm_s: self.comm_s - earlier.comm_s,
            messages_sent: self.messages_sent - earlier.messages_sent,
            messages_received: self.messages_received - earlier.messages_received,
            words_sent: self.words_sent - earlier.words_sent,
            words_received: self.words_received - earlier.words_received,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            overlap_hidden_s: self.overlap_hidden_s - earlier.overlap_hidden_s,
            counters: std::array::from_fn(|k| self.counters[k] - earlier.counters[k]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lacc_vs_flat_tradeoff() {
        let lacc = EDISON.lacc_model();
        let flat = EDISON.flat_model();
        // Flat MPI: more ranks per node → less bandwidth per rank and a
        // slower (single-core) rank.
        assert!(flat.beta > lacc.beta);
        assert!(flat.rate < lacc.rate);
        // Node-level compute is conserved.
        let node_rate_lacc = lacc.rate * lacc.ranks_per_node as f64;
        let node_rate_flat = flat.rate * flat.ranks_per_node as f64;
        assert!((node_rate_lacc - node_rate_flat).abs() / node_rate_flat < 1e-9);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pins the machine tables
    fn edison_faster_core_than_knl() {
        assert!(EDISON.core_rate > 3.0 * CORI_KNL.core_rate);
    }

    #[test]
    fn snapshot_difference() {
        let a = CostSnapshot {
            clock_s: 1.0,
            compute_s: 0.5,
            comm_s: 0.5,
            messages_sent: 10,
            messages_received: 8,
            words_sent: 100,
            words_received: 50,
            bytes_sent: 800,
            bytes_received: 400,
            overlap_hidden_s: 0.25,
            counters: [0, 1, 1, 0, 0],
        };
        let b = CostSnapshot {
            clock_s: 3.0,
            compute_s: 1.0,
            comm_s: 2.0,
            messages_sent: 30,
            messages_received: 12,
            words_sent: 400,
            words_received: 250,
            bytes_sent: 3000,
            bytes_received: 1800,
            overlap_hidden_s: 1.0,
            counters: [7, 4, 3, 9, 1],
        };
        let d = b.since(&a);
        assert_eq!(d.messages_sent, 20);
        assert_eq!(d.messages_received, 4);
        assert_eq!(d.bytes_sent, 2200);
        assert_eq!(d.bytes_received, 1400);
        assert_eq!(d.counters, [7, 3, 2, 9, 1]);
        assert_eq!(d.counter(Counter::Reruns), 2);
        assert!((d.clock_s - 2.0).abs() < 1e-12);
        assert!((d.overlap_hidden_s - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_per_node() {
        EDISON.model(25);
    }
}
