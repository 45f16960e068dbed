//! Consistent snapshots over mutable relations.
//!
//! A registered relation lives as a [`RelationState`]: an immutable
//! base [`Relation`] (whose sorted runs the run cache keeps, keyed by
//! `(id, base version, fingerprint)`) plus an append-only [`DeltaLog`]
//! of [`DeltaOp`]s. Writers only ever push onto the log; readers
//! capture a [`Snapshot`] — the state `Arc` plus the log length at
//! admission — and everything after that watermark is invisible to
//! them. That one `(Arc, usize)` pair is the whole isolation story:
//! the base is immutable, the log is append-only, so a prefix never
//! changes after it was captured. Writers never block readers and
//! vice versa; the only lock is the catalog map itself, held for the
//! duration of a push or a pointer clone.
//!
//! Compaction folds a delta prefix into a new base (bumping the
//! catalog version, which invalidates older cached run sets through
//! the existing `RunKey` machinery) and starts a fresh state whose log
//! carries the un-compacted tail. In-flight snapshots keep their old
//! state `Arc` — they stay consistent, pinned to the world they
//! admitted under.

use std::sync::{Arc, Mutex};

use mpsm_core::join::delta::{materialize, DeltaOp, DeltaOverlay};
use mpsm_core::Tuple;

use crate::scan::Relation;

/// An append-only log of writes against one relation version. The log
/// is the write side of snapshot isolation: pushes go under a mutex
/// (writers are rare and cheap), reads clone a prefix bounded by a
/// previously observed length.
#[derive(Debug, Default)]
pub struct DeltaLog {
    ops: Mutex<Vec<DeltaOp>>,
}

impl DeltaLog {
    /// An empty log.
    pub fn new() -> Self {
        DeltaLog::default()
    }

    /// A log pre-seeded with `ops` (compaction hands the un-compacted
    /// tail to the successor state this way).
    pub fn with_ops(ops: Vec<DeltaOp>) -> Self {
        DeltaLog { ops: Mutex::new(ops) }
    }

    /// Append one op; returns the new length (the watermark a snapshot
    /// taken now would capture).
    pub fn append(&self, op: DeltaOp) -> usize {
        let mut ops = self.ops.lock().expect("delta log poisoned");
        ops.push(op);
        ops.len()
    }

    /// Append many ops atomically; returns the new length.
    pub fn extend(&self, batch: impl IntoIterator<Item = DeltaOp>) -> usize {
        let mut ops = self.ops.lock().expect("delta log poisoned");
        ops.extend(batch);
        ops.len()
    }

    /// Current length — the watermark for a snapshot captured now.
    pub fn len(&self) -> usize {
        self.ops.lock().expect("delta log poisoned").len()
    }

    /// Whether the log holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone the first `watermark` ops (everything a snapshot at that
    /// watermark may see). Saturates at the current length.
    pub fn ops_prefix(&self, watermark: usize) -> Vec<DeltaOp> {
        let ops = self.ops.lock().expect("delta log poisoned");
        ops[..watermark.min(ops.len())].to_vec()
    }

    /// Clone the ops *after* `watermark` — the tail compaction must
    /// carry into the successor state.
    pub fn ops_from(&self, watermark: usize) -> Vec<DeltaOp> {
        let ops = self.ops.lock().expect("delta log poisoned");
        ops[watermark.min(ops.len())..].to_vec()
    }
}

/// One version epoch of a mutable relation: the immutable sorted-base
/// side (what the run cache serves) and the hot delta log. The catalog
/// points at the current state; snapshots and compaction pin older
/// ones for as long as they need them.
#[derive(Debug, Clone)]
pub struct RelationState {
    base: Arc<Relation>,
    delta: Arc<DeltaLog>,
}

impl RelationState {
    /// A fresh epoch around `base` with an empty delta.
    pub fn new(base: Arc<Relation>) -> Self {
        RelationState { base, delta: Arc::new(DeltaLog::new()) }
    }

    /// An epoch with a pre-seeded delta (the compaction hand-off).
    pub fn with_delta(base: Arc<Relation>, delta: Arc<DeltaLog>) -> Self {
        RelationState { base, delta }
    }

    /// The immutable base relation of this epoch.
    pub fn base(&self) -> &Arc<Relation> {
        &self.base
    }

    /// The epoch's delta log.
    pub fn delta(&self) -> &Arc<DeltaLog> {
        &self.delta
    }

    /// Capture a consistent snapshot: this state plus the delta length
    /// observed *now*. Lock-free apart from one log-length read.
    pub fn snapshot(self: &Arc<Self>) -> Snapshot {
        Snapshot { state: Arc::clone(self), watermark: self.delta.len() }
    }
}

/// A consistent view of one relation: a pinned [`RelationState`] and a
/// delta watermark. Everything the paper query reads about a side —
/// base runs, overlay, logical cardinality — derives from this pair,
/// so concurrent writes and compactions cannot tear a running join.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: Arc<RelationState>,
    watermark: usize,
}

impl Snapshot {
    /// Snapshot an exact `(state, watermark)` pair (tests and the
    /// compactor use this; normal capture goes through
    /// [`RelationState::snapshot`]).
    pub fn at(state: Arc<RelationState>, watermark: usize) -> Self {
        Snapshot { state, watermark }
    }

    /// The pinned state.
    pub fn state(&self) -> &Arc<RelationState> {
        &self.state
    }

    /// The base relation this snapshot reads.
    pub fn base(&self) -> &Arc<Relation> {
        self.state.base()
    }

    /// The base relation's catalog version (the `vN` EXPLAIN shows).
    pub fn base_version(&self) -> u64 {
        self.state.base().version()
    }

    /// Number of delta ops visible to this snapshot.
    pub fn delta_len(&self) -> usize {
        self.watermark
    }

    /// Fold the visible delta prefix into an overlay (adds + masked
    /// base keys).
    pub fn overlay(&self) -> DeltaOverlay {
        DeltaOverlay::from_ops(&self.state.delta.ops_prefix(self.watermark))
    }

    /// Replay the visible prefix over the base — the literal state this
    /// snapshot represents. The oracle isolation tests compare against;
    /// queries fold the prefix with [`Snapshot::overlay`] instead.
    pub fn materialize(&self) -> Vec<Tuple> {
        materialize(self.state.base().tuples(), &self.state.delta.ops_prefix(self.watermark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: u64) -> Arc<Relation> {
        Arc::new(Relation::new("R", (0..n).map(|k| Tuple::new(k, k)).collect()))
    }

    #[test]
    fn snapshots_pin_the_watermark_they_captured() {
        let state = Arc::new(RelationState::new(base(10)));
        let before = state.snapshot();
        state.delta().append(DeltaOp::Append(Tuple::new(100, 1)));
        let after = state.snapshot();
        state.delta().extend([DeltaOp::Delete { key: 0 }, DeltaOp::Update { key: 1, payload: 9 }]);

        assert_eq!(before.delta_len(), 0);
        assert_eq!(after.delta_len(), 1);
        assert_eq!(before.materialize().len(), 10, "older snapshot sees no writes");
        assert_eq!(after.materialize().len(), 11, "newer snapshot sees exactly its prefix");
        assert!(before.overlay().is_empty());
        assert_eq!(state.delta().len(), 3);
    }

    #[test]
    fn prefix_and_tail_partition_the_log() {
        let log = DeltaLog::new();
        for k in 0..6u64 {
            log.append(DeltaOp::Append(Tuple::new(k, k)));
        }
        let head = log.ops_prefix(4);
        let tail = log.ops_from(4);
        assert_eq!((head.len(), tail.len()), (4, 2));
        assert_eq!(log.ops_prefix(99).len(), 6, "prefix saturates");
        assert!(log.ops_from(99).is_empty(), "tail saturates");
        assert!(!log.is_empty());
    }

    #[test]
    fn overlay_agrees_with_materialize() {
        let state = Arc::new(RelationState::new(base(20)));
        state.delta().extend([
            DeltaOp::Append(Tuple::new(30, 3)),
            DeltaOp::Delete { key: 5 },
            DeltaOp::Update { key: 7, payload: 70 },
        ]);
        let snap = state.snapshot();
        let mut via_overlay = snap.overlay().apply(snap.base().tuples());
        let mut via_replay = snap.materialize();
        via_overlay.sort_unstable_by_key(|t| (t.key, t.payload));
        via_replay.sort_unstable_by_key(|t| (t.key, t.payload));
        assert_eq!(via_overlay, via_replay);
    }
}
