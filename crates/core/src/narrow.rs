//! Dynamic label-range narrowing: the per-iteration probe and wire-tier
//! planner behind [`DistOpts::narrow_labels`].
//!
//! Every engine iteration already ends in a convergence allreduce; the
//! probe piggybacks two extra words on it — the maximum live label word
//! (max-merged) and the local distinct-label count (sum-merged, an upper
//! bound on the global survivor count) — so the range measurement costs
//! **no extra collective**. From the merged probe, [`NarrowPlanner::plan`]
//! picks the wire tier for the *next* iteration's exchanges and installs
//! it on the rank's [`Comm`], where every `gblas::dist` primitive reads it:
//!
//! * every label word below [`U16_MAX`] → raw [`NarrowTier::U16`]
//!   (2 bytes per label, no setup);
//! * otherwise, a surviving-label count below [`DICT_MAX`] →
//!   [`NarrowTier::Dict`]: a dense-rank
//!   dictionary of the surviving roots, built once by a zero-word framed
//!   allgather and reused across iterations until a shortcut step moves
//!   labels (the engine then invalidates it for tightness — the value
//!   set only ever shrinks, so a stale dictionary would still *decode*
//!   correctly, it just stops being dense);
//! * otherwise → [`NarrowTier::Native`] (the legacy codecs, byte-exact
//!   with the flag off).
//!
//! Correctness never depends on the probe: every narrow encoder keeps
//! the legacy stream as a candidate and checks per-stream that the tier
//! applies (u16 range, dictionary containment), so a stale probe can
//! only cost bytes, not bits. Decode always widens back to the index
//! type, so labels and iteration counts are bit-identical with the flag
//! on or off; the framed exchange layer additionally charges β at the
//! legacy word counts, so per-rank `words_sent` is identical too and
//! the entire win shows up in
//! [`dmsim::CostSnapshot::bytes_sent`] /
//! [`dmsim::CostSnapshot::narrow_saved_bytes`].

use dmsim::{Comm, FramedBlock, Group, NarrowSpec, NarrowTier, SpanKind, WireWord};
use gblas::dist::{DistOpts, RankBitmap};
use lacc_graph::Idx;

/// The raw-`u16` tier activates when every live label word is below this
/// bound: the widest range the tier can represent.
pub const U16_MAX: u64 = 1 << 16;

/// The dictionary tier builds a dense-rank dictionary when the global
/// surviving-label count is below this bound (a build-cost heuristic —
/// dictionary codes themselves are varint, not limited to 16 bits).
pub const DICT_MAX: u64 = 1 << 16;

/// Per-run narrowing switch plus the probe/plan methods the iteration
/// driver calls; with narrowing off the probes are `[0, 0]` and
/// [`NarrowPlanner::plan`] leaves the `Comm` at [`NarrowSpec::NATIVE`].
/// The planner is stateless across iterations — the installed dictionary
/// and the active tier both live on the [`Comm`], where the wire codecs
/// and the primitives reach them.
#[derive(Clone, Copy, Debug)]
pub struct NarrowPlanner {
    enabled: bool,
}

impl NarrowPlanner {
    /// Reads [`DistOpts::narrow_labels`] for one engine run.
    pub fn new(opts: &DistOpts) -> Self {
        NarrowPlanner {
            enabled: opts.narrow_labels,
        }
    }

    /// The iteration-1 probe, free of charge: every engine starts from
    /// the identity labeling `f[v] = v`, so the global maximum is `n - 1`
    /// and the distinct count is `n` without looking at anything.
    pub fn seed_probe(&self, n: usize) -> [u64; 2] {
        if !self.enabled {
            return [0, 0];
        }
        [n.saturating_sub(1) as u64, n as u64]
    }

    /// This rank's probe contribution from its local label chunk:
    /// `[max label word, local distinct count]`. Merge element 0 by max
    /// and element 1 by sum (the sum over ranks is an upper bound on the
    /// global distinct count — conservative for the dictionary gate).
    pub fn local_probe<I: Idx + WireWord>(&self, comm: &mut Comm, labels: &[I]) -> [u64; 2] {
        if !self.enabled {
            return [0, 0];
        }
        let distinct = distinct_words(labels);
        comm.charge_compute(labels.len() as u64 + 1);
        [
            distinct.ones().last().unwrap_or(0) as u64,
            distinct.count() as u64,
        ]
    }

    /// Picks the wire tier for the next iteration from the merged probe,
    /// installs it on `comm` ([`Comm::set_narrow_spec`]) and maintains the
    /// dictionary lifetime: `invalidate_dict` (the
    /// global shortcut-moved-labels signal) drops the installed
    /// dictionary first, and entering the dictionary tier without one
    /// installed builds it from everyone's surviving labels via a
    /// zero-legacy-word framed allgather. Must be called symmetrically
    /// on every rank with the *merged* probe values (it may run a
    /// collective); records a step-level [`SpanKind::Narrow`] point span
    /// tagged with the selected tier.
    pub fn plan<I: Idx + WireWord>(
        &self,
        comm: &mut Comm,
        world: &Group,
        global_max: u64,
        global_distinct: u64,
        invalidate_dict: bool,
        labels: &[I],
    ) {
        if !self.enabled {
            return;
        }
        if invalidate_dict {
            comm.invalidate_narrow_dict();
        }
        let tier = if global_max < U16_MAX {
            NarrowTier::U16
        } else if comm.narrow_dict().is_some() {
            // A still-valid dictionary from an earlier iteration: labels
            // only ever collapse onto existing values, so containment
            // holds until the next invalidation.
            NarrowTier::Dict
        } else if global_distinct < DICT_MAX {
            build_dict(comm, world, labels);
            NarrowTier::Dict
        } else {
            NarrowTier::Native
        };
        let span = comm.span_open(SpanKind::Narrow(tier));
        comm.span_close(span);
        comm.set_narrow_spec(NarrowSpec { tier });
    }
}

/// The distinct label words, as a presence bitmap over `0..=max word`:
/// labels are vertex ids, so the universe is dense and no sort is needed.
fn distinct_words<I: Idx + WireWord>(labels: &[I]) -> RankBitmap {
    let universe = labels.iter().map(|l| l.idx() + 1).max().unwrap_or(0);
    RankBitmap::from_positions(universe, labels.iter().map(|l| l.idx()))
}

/// Builds and installs the dense-rank dictionary: every rank contributes
/// its sorted-unique local label words (delta-varint encoded — sorted
/// unique lists delta tightly), the ring allgather merges them, and the
/// identical merged set installs on every rank in the same superstep
/// (so the epochs agree; see [`Comm::install_narrow_dict`]).
///
/// The exchange is framed with `legacy_words: 0`: with narrowing off
/// this collective does not exist, so charging words for it would break
/// the words-identical contract. Its bytes are counted honestly in
/// `bytes_sent` — the dictionary build is amortized real traffic, and
/// the tier gate (`global_distinct < DICT_MAX`) bounds it.
fn build_dict<I: Idx + WireWord>(comm: &mut Comm, world: &Group, labels: &[I]) {
    let words: Vec<u64> = distinct_words(labels).ones().map(|w| w as u64).collect();
    comm.charge_compute(labels.len() as u64 + 1);
    let mut bytes = Vec::with_capacity(2 * words.len() + 8);
    dmsim::wire::push_varint(&mut bytes, words.len() as u64);
    let mut prev = 0u64;
    for (k, &w) in words.iter().enumerate() {
        dmsim::wire::push_varint(&mut bytes, if k == 0 { w } else { w - prev });
        prev = w;
    }
    let gathered = comm.allgatherv_framed(
        world,
        FramedBlock {
            legacy_words: 0,
            items: words.len() as u64,
            bytes,
        },
    );
    let mut all: Vec<u64> = Vec::new();
    for b in gathered {
        let mut pos = 0usize;
        let k = dmsim::wire::read_varint(&b, &mut pos) as usize;
        let mut cur = 0u64;
        for i in 0..k {
            let d = dmsim::wire::read_varint(&b, &mut pos);
            cur = if i == 0 { d } else { cur + d };
            all.push(cur);
        }
    }
    all.sort_unstable();
    all.dedup();
    comm.charge_compute(all.len() as u64 + 1);
    comm.install_narrow_dict(all);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::run_spmd;
    use gblas::dist::DistOpts;

    #[test]
    fn disabled_planner_always_plans_native() {
        let opts = DistOpts::naive();
        let planner = NarrowPlanner::new(&opts);
        assert_eq!(planner.seed_probe(100), [0, 0]);
        let specs = run_spmd(2, move |c| {
            let world = c.world();
            let labels: Vec<usize> = vec![1, 2, 3];
            let probe = planner.local_probe(c, &labels);
            assert_eq!(probe, [0, 0]);
            planner.plan(c, &world, 7, 3, false, &labels);
            c.narrow_spec().tier
        })
        .unwrap();
        assert!(specs.iter().all(|&t| t == NarrowTier::Native));
    }

    #[test]
    fn tier_rule_prefers_u16_then_dict_then_native() {
        let planner = NarrowPlanner::new(&DistOpts::default());
        let wide = U16_MAX + 300;
        let tiers = run_spmd(2, move |c| {
            let world = c.world();
            let labels: Vec<usize> = vec![100, 200, wide as usize];
            let mut plan = |max, distinct, invalidate| {
                planner.plan(c, &world, max, distinct, invalidate, &labels);
                (c.narrow_spec().tier, c.narrow_dict())
            };
            // Max below the u16 bound: raw u16, no dictionary needed.
            let (a, dict) = plan(U16_MAX - 1, 3, false);
            assert!(dict.is_none());
            // Max too wide but few survivors: builds + installs the dict.
            let (b, dict) = plan(wide, 3, false);
            assert_eq!(dict.expect("dictionary installed").len(), 3);
            // Reused while valid (no rebuild even at higher distinct).
            let (b2, _) = plan(wide, DICT_MAX, false);
            // Shortcut invalidation + too many survivors: back to native.
            let (d, _) = plan(wide, DICT_MAX, true);
            assert!(c.narrow_dict().is_none());
            (a, b, b2, d)
        })
        .unwrap();
        for (a, b, b2, d) in tiers {
            assert_eq!(a, NarrowTier::U16);
            assert_eq!(b, NarrowTier::Dict);
            assert_eq!(b2, NarrowTier::Dict);
            assert_eq!(d, NarrowTier::Native);
        }
    }

    #[test]
    fn dict_build_charges_zero_words() {
        let planner = NarrowPlanner::new(&DistOpts::default());
        let snaps = run_spmd(4, move |c| {
            let world = c.world();
            let labels: Vec<usize> = (0..64).map(|k| (c.rank() * 64 + k) * 3).collect();
            let before = c.snapshot().words_sent;
            planner.plan(c, &world, U16_MAX, 256, false, &labels);
            let dict = c.narrow_dict().expect("dictionary installed");
            (c.snapshot().words_sent - before, dict.len())
        })
        .unwrap();
        for (words, len) in snaps {
            assert_eq!(words, 0, "dictionary build must not charge words");
            assert_eq!(len, 256, "merged dictionary covers every rank's labels");
        }
    }
}
