//! The epoch-versioned, sharded label store.
//!
//! Labels live in per-owner shards laid out exactly like the distributed
//! vectors of a LACC run ([`VecLayout`] over [`Grid2d::square`]), so the
//! serving tier models the same data placement the batch tier computes
//! with: a query for vertex `v` lands on `layout.owner_of(v)`'s shard and
//! chases parent pointers, paying a modeled message each time the chase
//! crosses a shard boundary.
//!
//! Every shard is an `Arc<Vec<_>>`. An [`EpochSnapshot`] clones the `Arc`s
//! (O(p), not O(n)); subsequent writes go through [`Arc::make_mut`], which
//! copies a shard only while a snapshot still holds it. Readers therefore
//! never block writers and always see the single epoch they captured.

use std::sync::Arc;

use dmsim::{Grid2d, MachineModel};
use gblas::dist::VecLayout;

use crate::Vid;

/// Sharded parent-pointer forest with component sizes, versioned by epoch.
///
/// Invariants between published epochs:
/// * `parents` encodes a forest: chasing pointers from any vertex
///   terminates at a root `r` with `parents[r] == r`.
/// * `sizes[r]` is the vertex count of `r`'s component for every root `r`
///   (non-root entries are stale and never read).
/// * `components` is the number of roots.
#[derive(Clone, Debug)]
pub struct LabelStore {
    layout: VecLayout,
    parents: Vec<Arc<Vec<Vid>>>,
    sizes: Vec<Arc<Vec<usize>>>,
    epoch: u64,
    components: usize,
}

impl LabelStore {
    /// A store of `n` singleton components sharded over `ranks` owners
    /// (must be a perfect square, matching [`Grid2d::square`]). Epoch 0.
    pub fn new_singletons(n: usize, ranks: usize) -> Self {
        let layout = VecLayout::new(n, Grid2d::square(ranks));
        let mut parents = Vec::with_capacity(ranks);
        let mut sizes = Vec::with_capacity(ranks);
        for r in 0..ranks {
            let len = layout.local_len(r);
            parents.push(Arc::new((0..len).map(|o| layout.global_of(r, o)).collect()));
            sizes.push(Arc::new(vec![1usize; len]));
        }
        LabelStore {
            layout,
            parents,
            sizes,
            epoch: 0,
            components: n,
        }
    }

    /// The shard layout (blocked, matching the batch tier's vectors).
    pub fn layout(&self) -> &VecLayout {
        &self.layout
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.layout.len()
    }

    /// Number of components at the current (possibly unpublished) state.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// The current epoch (bumped by [`publish`](Self::publish) and
    /// [`install_labels`](Self::install_labels)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Parent pointer of `v`.
    pub fn parent(&self, v: Vid) -> Vid {
        let r = self.layout.owner_of(v);
        self.parents[r][self.layout.offset_of(r, v)]
    }

    fn set_parent(&mut self, v: Vid, p: Vid) {
        let r = self.layout.owner_of(v);
        let o = self.layout.offset_of(r, v);
        Arc::make_mut(&mut self.parents[r])[o] = p;
    }

    /// Component size recorded at root `r` (meaningful only for roots).
    pub fn size_of_root(&self, r: Vid) -> usize {
        let rank = self.layout.owner_of(r);
        self.sizes[rank][self.layout.offset_of(rank, r)]
    }

    fn set_size(&mut self, v: Vid, s: usize) {
        let r = self.layout.owner_of(v);
        let o = self.layout.offset_of(r, v);
        Arc::make_mut(&mut self.sizes[r])[o] = s;
    }

    /// Root of `v`'s tree, compressing the whole chased path onto the root
    /// (so later queries on these vertices are one hop).
    pub fn find_compress(&mut self, v: Vid) -> Vid {
        let mut root = v;
        while self.parent(root) != root {
            root = self.parent(root);
        }
        let mut cur = v;
        while cur != root {
            let next = self.parent(cur);
            self.set_parent(cur, root);
            cur = next;
        }
        root
    }

    /// Hooks root `give` under root `keep`, merging the components.
    ///
    /// Both arguments must be distinct roots; `keep` absorbs `give`'s
    /// size and the component count drops by one.
    pub fn union_roots(&mut self, keep: Vid, give: Vid) {
        debug_assert_ne!(keep, give);
        debug_assert_eq!(self.parent(keep), keep);
        debug_assert_eq!(self.parent(give), give);
        let absorbed = self.size_of_root(give);
        self.set_parent(give, keep);
        let grown = self.size_of_root(keep) + absorbed;
        self.set_size(keep, grown);
        self.components -= 1;
    }

    /// Replaces the whole forest with converged LACC labels (`labels[v]`
    /// is the root of `v`'s component, and roots label themselves),
    /// recomputing sizes and the component count, and bumps the epoch.
    pub fn install_labels(&mut self, labels: &[Vid]) {
        assert_eq!(labels.len(), self.layout.len());
        let mut counts = vec![0usize; labels.len()];
        for &l in labels {
            debug_assert_eq!(labels[l], l, "label vector is not converged");
            counts[l] += 1;
        }
        for r in 0..self.parents.len() {
            let len = self.layout.local_len(r);
            let parents: Vec<Vid> = (0..len)
                .map(|o| labels[self.layout.global_of(r, o)])
                .collect();
            let sizes: Vec<usize> = (0..len)
                .map(|o| counts[self.layout.global_of(r, o)])
                .collect();
            self.parents[r] = Arc::new(parents);
            self.sizes[r] = Arc::new(sizes);
        }
        self.components = counts.iter().filter(|&&c| c > 0).count();
        self.epoch += 1;
    }

    /// Publishes the current state as a new epoch (after a batch of
    /// incremental mutations).
    pub fn publish(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// An immutable view of the current epoch. O(p) `Arc` clones; later
    /// mutations copy-on-write and never disturb the snapshot.
    pub fn snapshot(&self) -> EpochSnapshot {
        EpochSnapshot {
            layout: self.layout,
            parents: self.parents.clone(),
            sizes: self.sizes.clone(),
            epoch: self.epoch,
            components: self.components,
        }
    }
}

/// A consistent, immutable view of one epoch of a [`LabelStore`].
///
/// All queries answer against the state captured at snapshot time, no
/// matter what the owning service does afterwards.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    layout: VecLayout,
    parents: Vec<Arc<Vec<Vid>>>,
    sizes: Vec<Arc<Vec<usize>>>,
    epoch: u64,
    components: usize,
}

impl EpochSnapshot {
    /// The epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.layout.len()
    }

    /// Number of components in this epoch.
    pub fn num_components(&self) -> usize {
        self.components
    }

    fn parent(&self, v: Vid) -> Vid {
        let r = self.layout.owner_of(v);
        self.parents[r][self.layout.offset_of(r, v)]
    }

    /// Component representative (root) of `v`.
    pub fn find(&self, v: Vid) -> Vid {
        self.find_with_hops(v).0
    }

    /// [`find`](Self::find), also reporting the pointer-chase length and
    /// how many chase steps crossed a shard boundary (each such step is a
    /// modeled message in [`modeled_find_latency_s`](Self::modeled_find_latency_s)).
    pub fn find_with_hops(&self, v: Vid) -> (Vid, usize, usize) {
        let mut cur = v;
        let mut shard = self.layout.owner_of(cur);
        let mut hops = 0;
        let mut crossings = 0;
        loop {
            let p = self.parent(cur);
            if p == cur {
                return (cur, hops, crossings);
            }
            let owner = self.layout.owner_of(p);
            if owner != shard {
                crossings += 1;
                shard = owner;
            }
            hops += 1;
            cur = p;
        }
    }

    /// True when `u` and `v` are in the same component in this epoch.
    pub fn same_component(&self, u: Vid, v: Vid) -> bool {
        self.find(u) == self.find(v)
    }

    /// Size of `u`'s component in this epoch.
    pub fn component_size(&self, u: Vid) -> usize {
        let root = self.find(u);
        let r = self.layout.owner_of(root);
        self.sizes[r][self.layout.offset_of(r, root)]
    }

    /// Fully resolved labels (`labels()[v]` = root of `v`) for this epoch.
    pub fn labels(&self) -> Vec<Vid> {
        (0..self.layout.len()).map(|v| self.find(v)).collect()
    }

    /// Modeled latency of serving `find(v)` on `model`'s α-β machine: the
    /// client's request/response round trip to `v`'s owner (2 messages)
    /// plus one forwarded message per cross-shard chase step, plus the
    /// pointer lookups at `model.rate`.
    pub fn modeled_find_latency_s(&self, v: Vid, model: &MachineModel) -> f64 {
        let (_, hops, crossings) = self.find_with_hops(v);
        let messages = (2 + crossings) as f64;
        messages * (model.alpha + model.beta) + (hops + 1) as f64 / model.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_union() {
        let mut st = LabelStore::new_singletons(10, 4);
        assert_eq!(st.epoch(), 0);
        assert_eq!(st.num_components(), 10);
        for v in 0..10 {
            assert_eq!(st.parent(v), v);
            assert_eq!(st.size_of_root(v), 1);
        }
        st.union_roots(2, 7);
        st.union_roots(2, 9);
        assert_eq!(st.num_components(), 8);
        assert_eq!(st.size_of_root(2), 3);
        assert_eq!(st.find_compress(9), 2);
        assert_eq!(st.find_compress(7), 2);
        // Compression flattened 7 and 9 directly onto 2.
        assert_eq!(st.parent(7), 2);
        assert_eq!(st.parent(9), 2);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut st = LabelStore::new_singletons(8, 4);
        st.union_roots(0, 5);
        st.publish();
        let snap = st.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.same_component(0, 5));
        assert!(!snap.same_component(0, 3));

        // Writer moves on: more unions and a full reinstall.
        st.union_roots(0, 3);
        st.publish();
        st.install_labels(&[0, 1, 1, 0, 4, 0, 4, 7]);

        // The old snapshot is untouched by both mutation styles.
        assert_eq!(snap.epoch(), 1);
        assert!(!snap.same_component(0, 3));
        assert_eq!(snap.component_size(0), 2);
        assert_eq!(snap.num_components(), 7);

        let fresh = st.snapshot();
        assert_eq!(fresh.epoch(), 3);
        assert!(fresh.same_component(2, 1));
        assert_eq!(fresh.component_size(5), 3);
        assert_eq!(fresh.num_components(), 4);
    }

    #[test]
    fn install_labels_recomputes_sizes_and_components() {
        let mut st = LabelStore::new_singletons(6, 4);
        st.install_labels(&[0, 0, 0, 3, 3, 5]);
        assert_eq!(st.num_components(), 3);
        assert_eq!(st.size_of_root(0), 3);
        assert_eq!(st.size_of_root(3), 2);
        assert_eq!(st.size_of_root(5), 1);
        assert_eq!(st.epoch(), 1);
        let snap = st.snapshot();
        assert_eq!(snap.labels(), vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn hops_and_crossings_feed_the_latency_model() {
        let mut st = LabelStore::new_singletons(16, 4);
        // Build a chain 15 -> 8 -> 0 without compression: shards of 16
        // elements over 4 ranks are 4-element blocks, so both links cross
        // shard boundaries.
        st.union_roots(8, 15);
        st.union_roots(0, 8);
        let snap = st.snapshot();
        let (root, hops, crossings) = snap.find_with_hops(15);
        assert_eq!((root, hops, crossings), (0, 2, 2));
        let (_, h0, c0) = snap.find_with_hops(0);
        assert_eq!((h0, c0), (0, 0));

        let model = dmsim::EDISON.lacc_model();
        let far = snap.modeled_find_latency_s(15, &model);
        let near = snap.modeled_find_latency_s(0, &model);
        // Root lookup pays only the 2-message round trip.
        let base = 2.0 * (model.alpha + model.beta) + 1.0 / model.rate;
        assert!((near - base).abs() < 1e-15);
        assert!(far > near + 1.9 * (model.alpha + model.beta));
    }
}
