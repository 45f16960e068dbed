//! Consistent snapshots over mutable relations.
//!
//! A registered relation lives as a [`RelationState`]: an immutable
//! key-sorted base [`Relation`] (whose order a query's runs are cut
//! from) plus an append-only [`DeltaLog`]
//! of [`DeltaOp`]s. Writers only ever push onto the log; readers
//! capture a [`Snapshot`] — the state `Arc` plus the log length at
//! admission — and everything after that watermark is invisible to
//! them. That one `(Arc, usize)` pair is the whole isolation story:
//! the base is immutable, the log is append-only, so a prefix never
//! changes after it was captured. Writers never block readers and
//! vice versa; the only lock is the catalog map itself, held for the
//! duration of a push or a pointer clone.
//!
//! Reads fold each op once. The log keeps its newest fold as an
//! `Arc<`[`Fold`]`>` — the overlay, and its adds laid out as the run a
//! merge reads; a dirty snapshot extends it by the ops between that
//! fold and its own watermark (copying only that slice under the log's
//! mutex) and shares the result with every later snapshot at the same
//! watermark, so no query copies the adds. An older watermark still
//! resolves exactly — it folds its own prefix from scratch, without
//! holding the fold's lock, and leaves the newer fold in place.
//!
//! Compaction folds a delta prefix into a new base (bumping the
//! catalog version) and starts a fresh state whose log carries the
//! un-compacted tail. In-flight snapshots keep their old
//! state `Arc` — they stay consistent, pinned to the world they
//! admitted under.

use std::ops::Deref;
use std::sync::{Arc, Mutex};

use mpsm_core::join::delta::{materialize, DeltaOp, DeltaOverlay};
use mpsm_core::Tuple;
use mpsm_numa::{NodeId, NumaBuf};

use crate::scan::Relation;

/// A delta prefix folded once and shared by every snapshot that reads
/// it: the [`DeltaOverlay`] (which it derefs to), and the overlay's
/// sorted adds laid out as the one extra run a merge reads. The run is
/// made with the fold, so a query over a dirty snapshot copies nothing.
/// Snapshots pinned to any node share it; its home is nominally node 0.
#[derive(Debug)]
pub struct Fold {
    overlay: DeltaOverlay,
    run: NumaBuf<Tuple>,
}

impl Fold {
    fn new(overlay: DeltaOverlay) -> Self {
        let run = NumaBuf::from_vec(NodeId(0), overlay.adds.clone());
        Fold { overlay, run }
    }

    /// The overlay's adds as one key-sorted run.
    pub fn adds_run(&self) -> &NumaBuf<Tuple> {
        &self.run
    }
}

impl Default for Fold {
    fn default() -> Self {
        Fold::new(DeltaOverlay::default())
    }
}

impl Deref for Fold {
    type Target = DeltaOverlay;

    fn deref(&self) -> &DeltaOverlay {
        &self.overlay
    }
}

/// An append-only log of writes against one relation version. The log
/// is the write side of snapshot isolation: pushes go under a mutex
/// (writers are rare and cheap). Reads fold each op once: the log keeps
/// its newest fold, and a snapshot's overlay extends it by the ops it
/// has not seen, copying only that slice under the ops mutex.
#[derive(Debug, Default)]
pub struct DeltaLog {
    ops: Mutex<Vec<DeltaOp>>,
    /// The newest fold: a watermark and the fold of the ops below it.
    /// Its lock makes extensions single-flight; writers never take it.
    folded: Mutex<(usize, Arc<Fold>)>,
}

impl DeltaLog {
    /// An empty log.
    pub fn new() -> Self {
        DeltaLog::default()
    }

    /// A log pre-seeded with `ops` (compaction hands the un-compacted
    /// tail to the successor state this way). Its fold starts empty.
    pub fn with_ops(ops: Vec<DeltaOp>) -> Self {
        DeltaLog { ops: Mutex::new(ops), folded: Mutex::default() }
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

    /// The overlay of the first `watermark` ops (saturating at the
    /// current length). When the newest fold lies at or below
    /// `watermark` it is extended by the ops in between under the fold's
    /// lock (single-flight) and replaced by the result; an older
    /// watermark folds its own prefix with the lock released, since no
    /// other reader can reuse that fold.
    pub fn overlay_at(&self, watermark: usize) -> Arc<Fold> {
        let mut folded = self.folded.lock().expect("delta fold poisoned");
        if folded.0 > watermark {
            drop(folded);
            return Arc::new(Fold::new(DeltaOverlay::from_ops(&self.ops_prefix(watermark))));
        }
        let tail = {
            let ops = self.ops.lock().expect("delta log poisoned");
            ops[folded.0..watermark.min(ops.len())].to_vec()
        };
        if !tail.is_empty() {
            let end = folded.0 + tail.len();
            *folded = (end, Arc::new(Fold::new(folded.1.extend(&tail))));
        }
        Arc::clone(&folded.1)
    }
}

/// One version epoch of a mutable relation: the immutable sorted base
/// (what a query's runs are cut from) and the hot delta log. The catalog
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

    /// The visible delta prefix folded into an overlay (adds + masked
    /// base keys), shared with every snapshot at the same watermark
    /// through the log's newest fold ([`DeltaLog::overlay_at`]).
    pub fn overlay(&self) -> Arc<Fold> {
        self.state.delta.overlay_at(self.watermark)
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

    fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
        tuples.sort_unstable_by_key(|t| (t.key, t.payload));
        tuples
    }

    fn folded_at(log: &DeltaLog) -> usize {
        log.folded.lock().unwrap().0
    }

    #[test]
    fn snapshots_at_one_watermark_share_one_overlay() {
        let state = Arc::new(RelationState::new(base(10)));
        state.delta().extend([DeltaOp::Append(Tuple::new(40, 4)), DeltaOp::Delete { key: 3 }]);
        let (first, second) = (state.snapshot(), state.snapshot());
        let overlay = first.overlay();
        assert!(Arc::ptr_eq(&overlay, &second.overlay()), "the second read folds nothing");
        state.delta().append(DeltaOp::Update { key: 4, payload: 44 });
        let newer = state.snapshot().overlay();
        assert!(!Arc::ptr_eq(&overlay, &newer));
        assert_eq!(**newer, DeltaOverlay::from_ops(&state.delta().ops_prefix(3)));
        assert_eq!(&newer.adds_run()[..], &newer.adds[..], "the run is the adds");
        assert_eq!(folded_at(state.delta()), 3);
    }

    #[test]
    fn an_older_watermark_resolves_exactly_and_keeps_the_newer_fold() {
        let state = Arc::new(RelationState::new(base(20)));
        state.delta().extend([DeltaOp::Append(Tuple::new(30, 3)), DeltaOp::Delete { key: 5 }]);
        let older = state.snapshot();
        state
            .delta()
            .extend([DeltaOp::Update { key: 7, payload: 70 }, DeltaOp::Delete { key: 30 }]);
        let newer = state.snapshot();
        let newest_fold = newer.overlay();
        assert_eq!(folded_at(state.delta()), 4);

        let old_overlay = older.overlay();
        assert_eq!(sorted(old_overlay.apply(older.base().tuples())), sorted(older.materialize()));
        assert_eq!(folded_at(state.delta()), 4, "the older read leaves the newer fold");
        assert!(Arc::ptr_eq(&newest_fold, &newer.overlay()));
    }

    #[test]
    fn a_seeded_log_starts_from_the_empty_fold() {
        let ops = vec![DeltaOp::Append(Tuple::new(1, 1)), DeltaOp::Delete { key: 2 }];
        let log = DeltaLog::with_ops(ops.clone());
        assert_eq!(folded_at(&log), 0);
        assert!(log.folded.lock().unwrap().1.is_empty());
        assert_eq!(**log.overlay_at(2), DeltaOverlay::from_ops(&ops));
        assert_eq!(folded_at(&log), 2);
        assert_eq!(**log.overlay_at(99), DeltaOverlay::from_ops(&ops), "the watermark saturates");
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
