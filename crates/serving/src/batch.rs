//! Update batching: the unit of work a [`crate::CcService`] applies.
//!
//! Queries answer against the last *published* epoch, so batching is the
//! consistency knob: updates inside one batch become visible together,
//! and a batch is also the granularity at which the rerun policy is
//! evaluated.

use crate::Vid;

/// One graph mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert the undirected edge `(u, v)`.
    Insert(Vid, Vid),
    /// Delete one occurrence of the undirected edge `(u, v)` (a no-op if
    /// the edge is not present).
    Delete(Vid, Vid),
}

/// An ordered group of updates applied (and published) atomically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Appends an edge insertion.
    pub fn insert(&mut self, u: Vid, v: Vid) -> &mut Self {
        self.updates.push(Update::Insert(u, v));
        self
    }

    /// Appends an edge deletion.
    pub fn delete(&mut self, u: Vid, v: Vid) -> &mut Self {
        self.updates.push(Update::Delete(u, v));
        self
    }

    /// Appends an arbitrary update.
    pub fn push(&mut self, up: Update) -> &mut Self {
        self.updates.push(up);
        self
    }

    /// The updates, in application order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}
