//! Sessions: the client-facing, name-oriented API over the scheduler.
//!
//! A [`Session`] owns a [`Scheduler`] (and therefore one shared worker
//! pool) plus a catalog of registered relations. Clients describe
//! queries as [`QuerySpec`]s — owned, `'static` descriptions built
//! from [`std::sync::Arc`]-shared relations and predicates — and
//! either block on [`Session::query`] or go asynchronous via
//! [`Session::submit`] and the returned [`QueryTicket`].
//!
//! ```
//! use mpsm_exec::session::{QuerySpec, Session};
//! use mpsm_exec::sched::SchedulerConfig;
//! use mpsm_exec::Relation;
//! use mpsm_core::Tuple;
//!
//! let session = Session::new(SchedulerConfig::new(2));
//! let r = session.register(Relation::new("R", (0..50u64).map(|k| Tuple::new(k, k)).collect()));
//! let s = session.register(Relation::new("S", (0..50u64).map(|k| Tuple::new(k, 2 * k)).collect()));
//!
//! // Blocking convenience path.
//! let out = session
//!     .query(QuerySpec::join(&r, &s).filter_r(|t| t.key < 10))
//!     .expect("query failed");
//! assert_eq!(out.result.max_payload_sum, Some(9 + 18));
//!
//! // Asynchronous path: submit many, wait later.
//! let tickets: Vec<_> = (0..4)
//!     .map(|i| {
//!         let spec = QuerySpec::join(&r, &s).filter_s(move |t| t.key >= i * 10);
//!         session.submit(spec).expect("admission rejected")
//!     })
//!     .collect();
//! for ticket in tickets {
//!     assert!(ticket.wait().expect("query failed").result.max_payload_sum.is_some());
//! }
//! ```
//!
//! ## The write path
//!
//! Registered relations are **mutable**: [`Session::append`],
//! [`Session::update`], and [`Session::delete`] land in the relation's
//! delta log without touching its immutable sorted base. The order is
//! established once, when [`Session::register`] sorts the tuples on the
//! session's pool, and kept from then on: compaction merges the
//! delta's sorted adds into the base rather than appending them. So a
//! query's registered side — clean, dirty or filtered — is a cut of the
//! stored order, never a sort. Every query captures a consistent
//! [`Snapshot`] of each side at submit time — the delta prefix visible
//! then is merged into the join on the fly; later writes are invisible.
//! A background compactor (or an explicit [`Session::compact`]) folds
//! the delta into a new base version, which re-keys the run cache
//! through the ordinary version-bump machinery.
//!
//! ```
//! use mpsm_exec::session::{QuerySpec, Session};
//! use mpsm_exec::sched::SchedulerConfig;
//! use mpsm_exec::Relation;
//! use mpsm_core::Tuple;
//!
//! let session = Session::new(SchedulerConfig::new(2));
//! let r = session.register(Relation::new("R", (0..10u64).map(|k| Tuple::new(k, k)).collect()));
//! let s = session.register(Relation::new("S", (0..10u64).map(|k| Tuple::new(k, k)).collect()));
//!
//! session.append("R", [Tuple::new(9, 100)]).expect("R is registered");
//! session.delete("S", 3).expect("S is registered");
//! let out = session.query(QuerySpec::join(&r, &s)).expect("query failed");
//! assert_eq!(out.result.max_payload_sum, Some(100 + 9));
//! assert!(out.result.plan.explain().contains("Snapshot [R: base=v1, delta=1 tuples]"));
//!
//! // Folding the delta bumps the base version; answers don't change.
//! assert!(session.compact("R"));
//! let out = session.query(QuerySpec::join(&r, &s)).expect("query failed");
//! assert_eq!(out.result.max_payload_sum, Some(100 + 9));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use std::time::Duration;

use mpsm_core::context::ExecContext;
use mpsm_core::join::anytime::AnytimeToken;
use mpsm_core::join::delta::DeltaOp;
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::Tuple;

use crate::plan::SnapshotInfo;
use crate::query::{expired_in_queue_result, paper_query_runs, PaperQueryResult};
use crate::run_cache::{cached_runs, RunCache, RunCacheConfig};
use crate::scan::Relation;
use crate::sched::{
    CompactionConfig, CompactionTask, Priority, QueryError, QueryOutput, QueryTicket, Scheduler,
    SchedulerConfig, SubmitError,
};
use crate::snapshot::{DeltaLog, RelationState, Snapshot};

/// An owned, shareable selection predicate.
pub type Predicate = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// Why a write was not applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteError {
    /// No relation with this name is registered in the session's
    /// catalog (writes need a delta log to land in; register first).
    UnknownRelation(String),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::UnknownRelation(name) => {
                write!(f, "no relation named {name:?} is registered")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// An owned description of one paper query — everything the scheduler
/// needs to run `scan → select → join → max` later, on another thread.
#[derive(Clone)]
pub struct QuerySpec {
    pub(crate) r: Arc<Relation>,
    pub(crate) s: Arc<Relation>,
    pub(crate) r_pred: Predicate,
    pub(crate) s_pred: Predicate,
    /// Whether `filter_r` was called — filtered sides bypass the run
    /// cache (their sorted runs are query-specific).
    pub(crate) r_filtered: bool,
    /// Whether `filter_s` was called.
    pub(crate) s_filtered: bool,
    /// The session's run cache, attached by [`Session::pin`].
    pub(crate) cache: Option<Arc<RunCache>>,
    /// Consistent snapshot of `r`, captured at submit time when the
    /// handle resolves in the session catalog.
    pub(crate) r_snapshot: Option<Snapshot>,
    /// Consistent snapshot of `s`.
    pub(crate) s_snapshot: Option<Snapshot>,
    /// SLA deadline, measured from submit (so queue wait counts
    /// against it). Makes the merge interruptible.
    pub(crate) deadline: Option<Duration>,
    /// Admission class (default [`Priority::Normal`]).
    pub(crate) priority: Priority,
    /// Collect up to this many joined rows (key order) alongside the
    /// aggregate. Makes the merge interruptible.
    pub(crate) rows_cap: Option<usize>,
}

impl QuerySpec {
    /// Join `r ⋈ s` with no selections.
    pub fn join(r: &Arc<Relation>, s: &Arc<Relation>) -> Self {
        QuerySpec {
            r: Arc::clone(r),
            s: Arc::clone(s),
            r_pred: Arc::new(|_| true),
            s_pred: Arc::new(|_| true),
            r_filtered: false,
            s_filtered: false,
            cache: None,
            r_snapshot: None,
            s_snapshot: None,
            deadline: None,
            priority: Priority::Normal,
            rows_cap: None,
        }
    }

    /// Set the selection on the private input `R`.
    pub fn filter_r(mut self, pred: impl Fn(&Tuple) -> bool + Send + Sync + 'static) -> Self {
        self.r_pred = Arc::new(pred);
        self.r_filtered = true;
        self
    }

    /// Set the selection on the public input `S`.
    pub fn filter_s(mut self, pred: impl Fn(&Tuple) -> bool + Send + Sync + 'static) -> Self {
        self.s_pred = Arc::new(pred);
        self.s_filtered = true;
        self
    }

    /// Set an SLA deadline, measured from submission. A deadline-hit
    /// query returns best-so-far rows plus a coverage estimate instead
    /// of failing (the plan's `Anytime` row reports both).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the admission class (default [`Priority::Normal`]). On
    /// queue overflow an arrival degrades a strictly-lower-priority
    /// queued query, when there is one, instead of being degraded
    /// itself.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Collect joined `(key, r_payload, s_payload)` rows — in key
    /// order, up to `cap` — alongside the aggregate.
    pub fn collect_rows(mut self, cap: usize) -> Self {
        self.rows_cap = Some(cap);
        self
    }

    /// Whether anything could stop this query's merge early under
    /// `token`: a deadline, a row cap, or a live token (degraded
    /// admission hands plain queries a block budget too). Such queries
    /// merge in ascending key intervals and render the plan's `Anytime`
    /// row.
    pub(crate) fn interruptible_by(&self, token: &AnytimeToken) -> bool {
        self.deadline.is_some() || self.rows_cap.is_some() || !matches!(token, AnytimeToken::Never)
    }

    /// Run this query inside `cx` (the scheduler derives one context
    /// per query, carrying its owner tag and node pinning) — the one
    /// function through which the scheduler executes a query. A query
    /// whose deadline passed while it queued (`expired_in_queue`) skips
    /// its inputs and answers an empty partial; every other query runs
    /// [`paper_query_runs`]. Either way, every catalog-resolved side
    /// reports the snapshot it was pinned to — also when its delta was
    /// empty.
    pub(crate) fn execute(
        &self,
        cx: &ExecContext,
        token: &AnytimeToken,
        expired_in_queue: bool,
    ) -> PaperQueryResult {
        let mut result = if expired_in_queue {
            expired_in_queue_result(cx, self)
        } else {
            paper_query_runs(cx, self, token)
        };
        for (side, snapshot) in [("R", &self.r_snapshot), ("S", &self.s_snapshot)] {
            if let Some(snapshot) = snapshot {
                result.plan.snapshots.push(SnapshotInfo {
                    side,
                    base_version: snapshot.base_version(),
                    delta: snapshot.delta_len(),
                });
            }
        }
        result
    }
}

impl std::fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySpec")
            .field("r", &self.r.name())
            .field("s", &self.s.name())
            .finish_non_exhaustive()
    }
}

/// One lineage of a name: the identity record of every epoch it ever
/// produced, plus the epoch states still retained.
///
/// The two grow differently on purpose. `versions` — two `u64`s per
/// compaction — is kept forever so `resolve` can place any handle ever
/// returned. The epoch `Arc`s themselves are garbage collected by
/// [`Lineage::gc`]: under steady writes-plus-compaction the retained
/// set stays O(live snapshots) instead of growing by one epoch per
/// fold.
struct Lineage {
    /// `(id, version)` of every epoch, oldest → newest; never shrinks.
    versions: Vec<(u64, u64)>,
    /// Epoch states still retained, oldest → newest. The newest is
    /// always present; older ones survive only while pinned.
    epochs: Vec<Arc<RelationState>>,
}

impl Lineage {
    fn root(state: Arc<RelationState>) -> Self {
        let base = state.base();
        Lineage { versions: vec![(base.id(), base.version())], epochs: vec![state] }
    }

    fn newest(&self) -> &Arc<RelationState> {
        self.epochs.last().expect("a lineage always retains its newest epoch")
    }

    fn push(&mut self, state: Arc<RelationState>) {
        let base = state.base();
        self.versions.push((base.id(), base.version()));
        self.epochs.push(state);
    }

    fn owns(&self, id: u64, version: u64) -> bool {
        self.versions.iter().any(|&(i, v)| i == id && v == version)
    }

    /// Drop retained epochs nothing outside the catalog pins. The
    /// newest epoch always survives — it is the live read/write target
    /// and what every handle of this lineage resolves to; an older one
    /// survives only while a [`Snapshot`] (or an in-flight compaction)
    /// still holds its `Arc`.
    fn gc(&mut self) {
        let newest = self.epochs.len().saturating_sub(1);
        let mut idx = 0;
        self.epochs.retain(|state| {
            let keep = idx == newest || Arc::strong_count(state) > 1;
            idx += 1;
            keep
        });
    }
}

/// One catalog slot: the name's history as **lineages** of
/// [`RelationState`] epochs. `register` starts a new lineage (new
/// contents — handles from older lineages must keep their old world);
/// compaction appends an epoch *within* the current lineage (same
/// logical contents, new base version — handles keep tracking live
/// writes right through it). Epoch identities stay recorded forever so
/// any handle ever returned still resolves; the epoch *states* are
/// garbage collected once nothing pins them.
#[derive(Default)]
struct MutableEntry {
    lineages: Vec<Lineage>,
}

impl MutableEntry {
    fn current(&self) -> &Arc<RelationState> {
        self.lineages.last().expect("an entry always holds at least one lineage").newest()
    }

    /// Resolve a handle's `(id, version)` to the state its queries
    /// should read: the **newest** epoch of whichever lineage the
    /// handle belongs to. Within a lineage compaction is transparent
    /// (the folded state is the same logical relation, plus any writes
    /// since); across lineages a re-registration replaced the data,
    /// so older handles stay pinned to their lineage's final world.
    fn resolve(&self, id: u64, version: u64) -> Option<&Arc<RelationState>> {
        self.lineages.iter().rev().find(|lineage| lineage.owns(id, version)).map(Lineage::newest)
    }

    /// Run the epoch GC across every lineage of this name.
    fn gc(&mut self) {
        for lineage in &mut self.lineages {
            lineage.gc();
        }
    }
}

/// Relations one background sweep folds at most before the compactor
/// goes back to sleep, so a burst of dirty relations cannot occupy the
/// pool indefinitely.
const COMPACTIONS_PER_SWEEP: usize = 4;

/// The session state shared with the scheduler's background compactor:
/// the catalog, the id allocator, the run cache, and the compaction
/// knobs. Kept apart from [`Session`] (which owns the [`Scheduler`])
/// so the compactor thread holding an `Arc` of this creates no
/// ownership cycle.
struct SessionShared {
    catalog: Mutex<HashMap<String, MutableEntry>>,
    /// Monotonic catalog-id allocator (ids start at 1; 0 means
    /// "unregistered" on a [`Relation`]).
    next_id: AtomicU64,
    run_cache: Arc<RunCache>,
    compaction: CompactionConfig,
}

impl SessionShared {
    /// The snapshot for a query-side handle: the retained epoch whose
    /// base identity matches the handle, at the delta watermark
    /// observed now. `None` when the handle never came from this
    /// catalog (unregistered, or a foreign session's).
    fn snapshot_for(&self, handle: &Arc<Relation>) -> Option<Snapshot> {
        if handle.version() == 0 {
            return None;
        }
        let catalog = self.catalog.lock().expect("catalog poisoned");
        let entry = catalog.get(handle.name())?;
        entry.resolve(handle.id(), handle.version()).map(RelationState::snapshot)
    }

    /// Fold one relation's pending delta into a new base version — the
    /// sorted base merged with the delta's sorted adds, so the new
    /// version is key-sorted too — and warm the run cache with its
    /// runs. Returns `false` when there was nothing to fold or a
    /// concurrent re-register won the race (its version bump supersedes
    /// ours).
    fn compact_relation(&self, cx: &ExecContext, name: &str) -> bool {
        // Capture the epoch and watermark to fold; the merge itself
        // runs outside the catalog lock (writers keep writing — their
        // ops land past the watermark and survive in the tail).
        let (state, watermark) = {
            let catalog = self.catalog.lock().expect("catalog poisoned");
            let Some(entry) = catalog.get(name) else { return false };
            let state = Arc::clone(entry.current());
            let watermark = state.delta().len();
            if watermark == 0 {
                return false;
            }
            (state, watermark)
        };
        // The overlay queries share: only ops no query folded yet are
        // folded here.
        let base = state.base();
        let merged = Snapshot::at(Arc::clone(&state), watermark).overlay().apply(base.tuples());
        let (id, new_version) = (base.id(), base.version() + 1);
        let new_base = Arc::new(Relation::new(base.name(), merged).with_identity(id, new_version));
        {
            let mut catalog = self.catalog.lock().expect("catalog poisoned");
            let Some(entry) = catalog.get_mut(name) else { return false };
            if !Arc::ptr_eq(entry.current(), &state) {
                // A register() replaced the epoch while we merged; its
                // contents win, our fold is stale.
                return false;
            }
            let tail = Arc::new(DeltaLog::with_ops(state.delta().ops_from(watermark)));
            entry
                .lineages
                .last_mut()
                .expect("an entry always holds at least one lineage")
                .push(Arc::new(RelationState::with_delta(Arc::clone(&new_base), tail)));
            // Release our own pin on the superseded epoch before
            // collecting — with it held that epoch would always look
            // snapshot-pinned and survive one sweep too many.
            drop(state);
            entry.gc();
        }
        // The version bump retires every older cached run set …
        self.run_cache.invalidate_relation(id, new_version);
        // … and the new version's runs are cut now, so the next analytic
        // query opens on a hit.
        let mut stats = JoinStats::new(cx.threads());
        cached_runs(cx, Some(&self.run_cache), &new_base, Phase::One, &mut stats);
        true
    }
}

impl CompactionTask for SessionShared {
    fn compact_pending(&self, cx: &ExecContext, config: &CompactionConfig) -> usize {
        let eligible: Vec<String> = {
            let catalog = self.catalog.lock().expect("catalog poisoned");
            let mut names: Vec<String> = catalog
                .iter()
                .filter(|(_, entry)| entry.current().delta().len() >= config.threshold.max(1))
                .map(|(name, _)| name.clone())
                .collect();
            names.sort();
            names.truncate(COMPACTIONS_PER_SWEEP);
            names
        };
        eligible.iter().filter(|name| self.compact_relation(cx, name)).count()
    }
}

/// A client session: one scheduler (one shared pool), a versioned
/// catalog of **mutable** relations, and a sorted-run cache shared by
/// every query on the session. See the module docs for a walkthrough of
/// both the read and the write path.
pub struct Session {
    scheduler: Scheduler,
    shared: Arc<SessionShared>,
}

impl Session {
    /// Open a session with its own scheduler, a default-configured run
    /// cache, and a default background compactor. Every registered
    /// version is stored key-sorted, so an unfiltered side's runs are a
    /// cut of that order, cached per version.
    pub fn new(config: SchedulerConfig) -> Self {
        Session::with_run_cache(config, RunCacheConfig::default())
    }

    /// Open a session with an explicitly configured run cache.
    pub fn with_run_cache(config: SchedulerConfig, cache: RunCacheConfig) -> Self {
        Session::with_compaction(config, cache, CompactionConfig::default())
    }

    /// Open a session with explicit run-cache *and* compaction
    /// configuration (pass [`CompactionConfig::manual`] to keep the
    /// background sweep from ever firing on its own).
    pub fn with_compaction(
        config: SchedulerConfig,
        cache: RunCacheConfig,
        compaction: CompactionConfig,
    ) -> Self {
        let run_cache = Arc::new(RunCache::new(cache));
        let mut scheduler = Scheduler::new(config).with_run_cache(Arc::clone(&run_cache));
        let shared = Arc::new(SessionShared {
            catalog: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            run_cache,
            compaction,
        });
        scheduler.start_compactor(
            Arc::clone(&shared) as Arc<dyn CompactionTask>,
            shared.compaction.clone(),
        );
        Session { scheduler, shared }
    }

    /// Register a relation under its own name, returning the shared,
    /// identity-stamped handle query specs are built from.
    ///
    /// The catalog stores every version key-sorted: unless the tuples
    /// already are, they are sorted here, on the session's pool, before
    /// the catalog lock is taken (the handle's
    /// [`Relation::tuples`] come back in key order).
    ///
    /// First registration of a name allocates a fresh stable id and
    /// stamps version 1. Re-registering the name keeps the id and
    /// bumps the version — which invalidates every cached run set
    /// built from older versions and starts a fresh, empty delta log.
    /// Already-submitted queries keep the `Arc` (and therefore the
    /// exact version and snapshot) they captured.
    pub fn register(&self, relation: Relation) -> Arc<Relation> {
        let relation = relation.key_sorted(self.scheduler.context());
        let mut catalog = self.shared.catalog.lock().expect("catalog poisoned");
        let (id, version) = match catalog.get(relation.name()) {
            Some(entry) => {
                let current = entry.current().base();
                (current.id(), current.version() + 1)
            }
            None => (self.shared.next_id.fetch_add(1, Ordering::Relaxed), 1),
        };
        let handle = Arc::new(relation.with_identity(id, version));
        let entry = catalog.entry(handle.name().to_string()).or_default();
        entry.lineages.push(Lineage::root(Arc::new(RelationState::new(Arc::clone(&handle)))));
        entry.gc();
        drop(catalog);
        self.shared.run_cache.invalidate_relation(id, version);
        handle
    }

    /// Look up a registered relation by name (the newest base version;
    /// pending delta ops are not folded in — they surface through
    /// queries and [`Session::compact`]).
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        let catalog = self.shared.catalog.lock().expect("catalog poisoned");
        catalog.get(name).map(|entry| Arc::clone(entry.current().base()))
    }

    /// Append tuples to a registered relation's delta. Returns the new
    /// delta watermark (ops visible to a snapshot captured now).
    pub fn append(
        &self,
        name: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, WriteError> {
        self.write(name, tuples.into_iter().map(DeltaOp::Append))
    }

    /// Upsert: delete every tuple with `key`, then insert
    /// `(key, payload)`. Returns the new delta watermark.
    pub fn update(&self, name: &str, key: u64, payload: u64) -> Result<usize, WriteError> {
        self.write(name, [DeltaOp::Update { key, payload }])
    }

    /// Delete every tuple with `key`. Returns the new delta watermark.
    pub fn delete(&self, name: &str, key: u64) -> Result<usize, WriteError> {
        self.write(name, [DeltaOp::Delete { key }])
    }

    fn write(
        &self,
        name: &str,
        ops: impl IntoIterator<Item = DeltaOp>,
    ) -> Result<usize, WriteError> {
        // The ops land in the *current* epoch's log under the catalog
        // lock: compaction swaps epochs under the same lock, so a
        // write can never slip into an epoch that was already folded
        // (no lost writes). The lock is held for one Vec::extend.
        let watermark = {
            let catalog = self.shared.catalog.lock().expect("catalog poisoned");
            let entry =
                catalog.get(name).ok_or_else(|| WriteError::UnknownRelation(name.to_string()))?;
            entry.current().delta().extend(ops)
        };
        if watermark >= self.shared.compaction.threshold {
            self.scheduler.nudge_compactor();
        }
        Ok(watermark)
    }

    /// Pending delta ops on a relation's current epoch (`None` for
    /// unknown names). 0 means queries read pure base runs.
    pub fn delta_len(&self, name: &str) -> Option<usize> {
        let catalog = self.shared.catalog.lock().expect("catalog poisoned");
        catalog.get(name).map(|entry| entry.current().delta().len())
    }

    /// Epoch states the catalog still retains for `name`, across all
    /// of its lineages (`None` for unknown names). Compaction appends
    /// an epoch per fold and the epoch GC drops the ones no live
    /// snapshot pins, so under steady writes-plus-compaction this
    /// stays proportional to the number of live snapshots rather than
    /// the number of folds ever performed.
    pub fn retained_epochs(&self, name: &str) -> Option<usize> {
        let catalog = self.shared.catalog.lock().expect("catalog poisoned");
        catalog.get(name).map(|entry| entry.lineages.iter().map(|l| l.epochs.len()).sum())
    }

    /// Fold a relation's pending delta into a new base version right
    /// now, on the caller's thread (deterministic alternative to the
    /// background sweep; tests and benchmarks use this). Like the
    /// background compactor, the fold runs in a context of its own, so
    /// its audit and arena never accumulate in the scheduler's base
    /// context. Returns whether a fold happened.
    pub fn compact(&self, name: &str) -> bool {
        let folded = self.shared.compact_relation(&self.scheduler.context().per_query(), name);
        if folded {
            self.scheduler.note_compactions(1);
        }
        folded
    }

    /// The session's sorted-run cache (always present; the `Option`
    /// keeps the signature callers match on).
    pub fn run_cache(&self) -> Option<&Arc<RunCache>> {
        Some(&self.shared.run_cache)
    }

    /// Pin `spec` to the session's state as of now: attach the run
    /// cache and capture a snapshot — epoch plus delta watermark — of
    /// each side that resolves in the catalog. [`Session::submit`] does
    /// this before queueing; callers that execute a spec themselves
    /// ([`crate::query::paper_query_runs`] under a token of their own)
    /// pin it first.
    pub fn pin(&self, mut spec: QuerySpec) -> QuerySpec {
        spec.cache = Some(Arc::clone(&self.shared.run_cache));
        spec.r_snapshot = self.shared.snapshot_for(&spec.r);
        spec.s_snapshot = self.shared.snapshot_for(&spec.s);
        spec
    }

    /// Submit a query for asynchronous execution. Fails only when the
    /// deadline is infeasible or the scheduler is shutting down; a full
    /// admission queue admits the query degraded instead.
    ///
    /// This is the snapshot capture point: each side that resolves in
    /// the catalog is pinned to its epoch and delta watermark *here*,
    /// before the query ever waits in the admission queue — writes
    /// racing the queue wait are invisible to it.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryTicket, SubmitError> {
        self.scheduler.submit(self.pin(spec))
    }

    /// Submit and block until the result is available. Admission
    /// rejections surface as [`QueryError::Rejected`].
    pub fn query(&self, spec: QuerySpec) -> Result<QueryOutput, QueryError> {
        match self.submit(spec) {
            Ok(ticket) => ticket.wait(),
            Err(err) => Err(QueryError::Rejected(err)),
        }
    }

    /// The underlying scheduler (pool metrics, direct submission).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_cache::{splitter_fingerprint, Lookup, RunKey};
    use mpsm_core::join::JoinConfig;

    fn rel(name: &str, n: u64) -> Relation {
        Relation::new(name, (0..n).map(|k| Tuple::new(k, k)).collect())
    }

    #[test]
    fn catalog_registers_and_resolves() {
        let session = Session::new(SchedulerConfig::new(1));
        session.register(rel("orders", 10));
        assert_eq!(session.relation("orders").expect("registered").len(), 10);
        assert!(session.relation("lineitem").is_none());
    }

    #[test]
    fn blocking_query_round_trip() {
        let session = Session::new(SchedulerConfig::new(2));
        let r = session.register(rel("R", 100));
        let s = session.register(rel("S", 100));
        let out = session
            .query(QuerySpec::join(&r, &s).filter_r(|t| t.key < 50).filter_s(|t| t.key >= 40))
            .expect("query failed");
        assert_eq!(out.result.max_payload_sum, Some(49 + 49));
        assert_eq!(out.result.r_selected, 50);
        assert_eq!(out.result.s_selected, 60);
        assert!(out.result.plan.queue_wait_ms.is_some(), "scheduled plans report queue wait");
    }

    #[test]
    fn register_stamps_identity_and_bumps_versions() {
        let session = Session::new(SchedulerConfig::new(1));
        let v1 = session.register(rel("orders", 10));
        assert!(v1.id() > 0, "registered relations get a non-zero id");
        assert_eq!(v1.version(), 1);
        let other = session.register(rel("lineitem", 5));
        assert_ne!(other.id(), v1.id(), "distinct names get distinct ids");
        let v2 = session.register(rel("orders", 20));
        assert_eq!(v2.id(), v1.id(), "re-registration keeps the stable id");
        assert_eq!(v2.version(), 2, "re-registration bumps the version");
        assert_eq!(v1.version(), 1, "old handles keep the version they captured");
        assert_eq!(session.relation("orders").expect("resolves").len(), 20);
    }

    /// `max(R.payload + S.payload)` by P-MPSM over the raw, unsorted
    /// tuples: a full MPSM build, independent of the catalog's order and
    /// of the cut.
    fn p_mpsm_max(r: &[Tuple], s: &[Tuple]) -> Option<u64> {
        use mpsm_core::join::p_mpsm::PMpsmJoin;
        use mpsm_core::join::JoinAlgorithm;
        use mpsm_core::sink::MaxAggSink;
        let join = PMpsmJoin::new(JoinConfig::with_threads(2));
        join.join_in::<MaxAggSink>(&ExecContext::flat(2), r, s).0
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_agree_with_uncached() {
        let cached = Session::new(SchedulerConfig::new(2));
        let (r_data, s_data): (Vec<_>, Vec<_>) = (
            (0..400u64).map(|k| Tuple::new(k, k)).collect(),
            (0..1600u64).map(|i| Tuple::new(i % 400, i)).collect(),
        );
        let expect = p_mpsm_max(&r_data, &s_data);
        let r = cached.register(Relation::new("R", r_data));
        let s = cached.register(Relation::new("S", s_data));
        for round in 0..3 {
            let out = cached.query(QuerySpec::join(&r, &s)).expect("cached").result;
            assert_eq!(out.max_payload_sum, expect, "round {round}");
            let info = out.plan.run_cache.expect("cached sessions report RunCache");
            if round > 0 {
                use crate::plan::RunCacheOutcome;
                assert_eq!(info.r, RunCacheOutcome::Hit, "round {round}");
                assert_eq!(info.s, RunCacheOutcome::Hit, "round {round}");
            }
        }
        let stats = cached.run_cache().expect("caching on by default").stats();
        assert_eq!(stats.misses, 2, "first round misses both sides");
        assert_eq!(stats.hits, 4, "two later rounds hit both sides");
        let metrics = cached.scheduler().metrics();
        assert_eq!((metrics.cache_hits, metrics.cache_misses), (4, 2));
    }

    /// `n` tuples over scattered keys, so registering them sorts.
    fn scattered(name: &str, n: u64, salt: u64) -> Relation {
        let key = |i: u64| i.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        Relation::new(name, (0..n).map(|i| Tuple::new(key(i), i)).collect())
    }

    #[test]
    fn a_warm_scheduled_miss_allocates_no_fresh_bytes() {
        let n = 4096u64;
        let budget = n as usize * std::mem::size_of::<Tuple>(); // one relation's runs
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig { byte_budget: budget },
            CompactionConfig::manual(),
        );
        let a = session.register(scattered("A", n, 1));
        let b = session.register(scattered("B", n, 2));
        let mut fresh = Vec::new();
        for rel in [&a, &b, &a] {
            let out = session.query(QuerySpec::join(rel, rel)).expect("query").result;
            let info = out.plan.run_cache.expect("cached session");
            use crate::plan::RunCacheOutcome;
            assert_eq!((info.s, info.r), (RunCacheOutcome::Miss, RunCacheOutcome::Hit));
            let placement = out.plan.placement.expect("scheduled plans report placement");
            fresh.push(placement.arena_bytes.iter().sum::<u64>());
        }
        assert_eq!(session.run_cache().expect("cached").stats().evictions, 2);
        // A and B each built fresh, B's publish evicted A into the
        // machine's spares, and A's rebuild took every buffer from them.
        assert_eq!(fresh[..2], [budget as u64; 2]);
        assert_eq!(fresh[2], 0, "the warm miss reuses the evicted runs' buffers");
        assert_eq!(session.scheduler().context().arena().total_bytes(), 0, "per-query arenas");
    }

    #[test]
    fn growing_versions_leave_no_dead_spares() {
        let threads = 2;
        let session = Session::with_compaction(
            SchedulerConfig::new(threads),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        let cx = session.scheduler().context();
        let cache = session.run_cache().expect("cached");
        let mut previous: Vec<usize> = Vec::new();
        let mut n = 1000u64;
        for round in 0..6 {
            let rel = session.register(scattered("grows", n, round));
            // The version bump dropped the previous version's runs: they
            // wait in the spares for the next build.
            let mut spares: Vec<usize> = cx.spare_buffers().iter().map(|&(_, cap)| cap).collect();
            spares.sort_unstable();
            assert_eq!(spares, previous, "round {round}: the old version's buffers are spares");

            let out = session.query(QuerySpec::join(&rel, &rel)).expect("query").result;
            assert_eq!(out.max_payload_sum, Some(2 * (n - 1)), "round {round}");
            let key = RunKey {
                relation: rel.id(),
                version: rel.version(),
                fingerprint: splitter_fingerprint(
                    threads,
                    JoinConfig::with_threads(threads).radix_bits,
                ),
            };
            let Lookup::Hit(runs) = cache.lookup(key) else { panic!("round {round}: published") };
            // Each partition was allocated on node 0 in order, so the
            // node's last request was the last run.
            let last_request = runs.runs().last().expect("T runs").len();
            let spares = cx.spare_buffers();
            assert!(spares.len() <= 2 * threads, "round {round}: {spares:?}");
            assert!(
                spares.iter().all(|&(_, cap)| cap >= last_request),
                "round {round}: {spares:?} holds a buffer smaller than {last_request}"
            );
            previous = runs.runs().iter().map(|run| run.capacity()).collect();
            previous.sort_unstable();
            n = n * 3 / 2;
        }
    }

    #[test]
    fn a_miss_on_an_evicted_version_sorts_nothing() {
        use crate::plan::RunCacheOutcome;
        let n = 4096u64;
        let budget = n as usize * std::mem::size_of::<Tuple>(); // one relation's runs
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig { byte_budget: budget },
            CompactionConfig::manual(),
        );
        let a = session.register(scattered("A", n, 1));
        let b = session.register(scattered("B", n, 2));
        // A's runs are cached, then evicted into the spares by B's.
        for rel in [&a, &b] {
            session.query(QuerySpec::join(rel, rel)).expect("query");
        }
        // B is public and hits; A is private and misses on its
        // evicted version.
        let out = session.query(QuerySpec::join(&a, &b)).expect("query").result;
        let info = out.plan.run_cache.expect("cached session");
        assert_eq!((info.r, info.s), (RunCacheOutcome::Miss, RunCacheOutcome::Hit));
        let expected = p_mpsm_max(scattered("A", n, 1).tuples(), scattered("B", n, 2).tuples());
        assert_eq!(out.max_payload_sum, expected);
        assert_eq!(out.stats.phase_ms(Phase::Three), 0.0, "the private miss sorts nothing");
        let placement = out.plan.placement.expect("scheduled plans report placement");
        assert_eq!(placement.arena_bytes.iter().sum::<u64>(), 0, "the cut reuses the spares");
    }

    #[test]
    fn registered_and_compacted_versions_are_key_sorted() {
        use mpsm_core::tuple::is_key_sorted;
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig::default(),
            CompactionConfig::default().threshold(64).interval(Duration::from_millis(5)),
        );
        let registered = session.register(scattered("R", 5000, 3));
        assert!(is_key_sorted(registered.tuples()), "register sorts");
        let mut expected: Vec<_> = scattered("R", 5000, 3).tuples().to_vec();
        let mut stored = registered.tuples().to_vec();
        expected.sort_unstable_by_key(|t| (t.key, t.payload));
        stored.sort_unstable_by_key(|t| (t.key, t.payload));
        assert_eq!(stored, expected, "register keeps every tuple");

        // A manual fold below the threshold: appends on both sides of
        // the key range, a delete and an upsert.
        let (lo, hi) = (registered.tuples()[0].key, registered.tuples()[4999].key);
        session.append("R", [Tuple::new(hi + 1, 1), Tuple::new(lo, 2)]).expect("registered");
        session.delete("R", registered.tuples()[10].key).expect("registered");
        session.update("R", registered.tuples()[20].key, 7).expect("registered");
        assert!(session.compact("R"));
        let compacted = session.relation("R").expect("registered");
        assert!(is_key_sorted(compacted.tuples()), "compact keeps the order");
        assert_eq!(compacted.version(), 2);

        // A background fold past the threshold.
        session.append("R", scattered("W", 64, 9).tuples().iter().copied()).expect("write");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while session.relation("R").expect("registered").version() < 3 {
            assert!(std::time::Instant::now() < deadline, "no background fold");
            std::thread::yield_now();
        }
        let folded = session.relation("R").expect("registered");
        assert!(is_key_sorted(folded.tuples()), "a background fold keeps the order");
        assert_eq!(folded.len(), compacted.len() + 64);
    }

    #[test]
    fn filtered_sides_bypass_the_cache() {
        use crate::plan::RunCacheOutcome;
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        let r = session.register(rel("R", 200));
        let s = session.register(rel("S", 200));
        let out = session
            .query(QuerySpec::join(&r, &s).filter_r(|t| t.key < 50))
            .expect("query failed")
            .result;
        assert_eq!(out.max_payload_sum, Some(49 + 49));
        let info = out.plan.run_cache.expect("RunCache node present");
        assert_eq!(info.r, RunCacheOutcome::Bypass, "filtered side never cached");
        assert_eq!(info.s, RunCacheOutcome::Miss, "unfiltered side populates");

        // Scattered, duplicate-heavy keys: a filtered private side of a
        // registered relation is cut from the stored order, so it sorts
        // nothing — clean, and dirty with the delta folded in first.
        let keep = |t: &Tuple| !t.key.is_multiple_of(3);
        let overlapping = |name, salt| -> Vec<Tuple> {
            let rel = scattered(name, 4096, salt);
            rel.tuples().iter().map(|t| Tuple::new(t.key % 8192, t.payload)).collect()
        };
        let (mut r_raw, s_raw) = (overlapping("A", 1), overlapping("B", 2));
        let a = session.register(Relation::new("A", r_raw.clone()));
        let b = session.register(Relation::new("B", s_raw.clone()));
        for dirty in [false, true] {
            if dirty {
                let dead = r_raw[0].key;
                session.delete("A", dead).expect("registered");
                r_raw.retain(|t| t.key != dead);
                // One append joins and dominates the aggregate.
                let joins = s_raw.iter().find(|t| keep(t)).expect("some S key passes").key;
                let appended = [Tuple::new(joins, 1 << 40), Tuple::new(8191, 1 << 41)];
                session.append("A", appended).expect("registered");
                r_raw.extend(appended);
            }
            let spec = QuerySpec::join(&a, &b).filter_r(keep);
            let out = session.query(spec).expect("filtered").result;
            let selected: Vec<Tuple> = r_raw.iter().copied().filter(keep).collect();
            assert_eq!(out.max_payload_sum, p_mpsm_max(&selected, &s_raw), "dirty = {dirty}");
            assert_eq!(out.r_selected, selected.len(), "dirty = {dirty}");
            assert_eq!(out.plan.run_cache.expect("RunCache row").r, RunCacheOutcome::Bypass);
            assert_eq!(out.stats.phase_ms(Phase::Three), 0.0, "dirty = {dirty}: R sorts nothing");
        }
    }

    #[test]
    fn manual_compaction_leaves_the_base_context_untouched() {
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        let r = session.register(scattered("R", 4096, 1));
        let s = session.register(scattered("S", 4096, 2));
        session.query(QuerySpec::join(&r, &s)).expect("cached query");
        for round in 0..3u64 {
            session.append("R", [Tuple::new(round, round)]).expect("registered");
            assert!(session.compact("R"), "round {round} folds");
        }
        let cx = session.scheduler().context();
        assert_eq!(cx.arena().total_bytes(), 0, "folds allocate in their own arena");
        assert_eq!(cx.counters().total_accesses(), 0, "folds audit in their own counters");
    }

    #[test]
    fn spec_debug_is_compact() {
        let r = Arc::new(rel("R", 1));
        let s = Arc::new(rel("S", 1));
        let text = format!("{:?}", QuerySpec::join(&r, &s));
        assert!(text.contains("\"R\"") && text.contains("\"S\"") && text.contains(".."), "{text}");
    }

    #[test]
    fn writes_are_visible_to_later_queries_and_plans() {
        let session = Session::new(SchedulerConfig::new(2));
        let r = session.register(rel("R", 50));
        let s = session.register(rel("S", 50));
        // Clean query first: Snapshot rows render with delta=0.
        let clean = session.query(QuerySpec::join(&r, &s)).expect("clean").result;
        assert_eq!(clean.max_payload_sum, Some(49 + 49));
        assert!(
            clean.plan.explain().contains("Snapshot [R: base=v1, delta=0 tuples]"),
            "{}",
            clean.plan.explain()
        );
        // Append a tuple that dominates the aggregate.
        assert_eq!(session.append("R", [Tuple::new(49, 1000)]).expect("registered"), 1);
        assert_eq!(session.delta_len("R"), Some(1));
        let dirty = session.query(QuerySpec::join(&r, &s)).expect("dirty").result;
        assert_eq!(dirty.max_payload_sum, Some(1000 + 49));
        assert_eq!(dirty.r_selected, 51, "logical cardinality includes the delta");
        assert!(
            dirty.plan.explain().contains("Snapshot [R: base=v1, delta=1 tuples]"),
            "{}",
            dirty.plan.explain()
        );
        // Delete + update through the same path.
        session.delete("S", 49).expect("registered");
        session.update("S", 48, 500).expect("registered");
        let out = session.query(QuerySpec::join(&r, &s)).expect("written").result;
        assert_eq!(out.max_payload_sum, Some(48 + 500), "S key 49 gone, 48 upserted to 500");
        assert_eq!(out.s_selected, 49, "one S tuple deleted, one replaced");
    }

    #[test]
    fn writes_error_on_unknown_relations() {
        let session = Session::new(SchedulerConfig::new(1));
        assert_eq!(
            session.append("ghost", [Tuple::new(1, 1)]),
            Err(WriteError::UnknownRelation("ghost".into()))
        );
        assert!(session.delta_len("ghost").is_none());
        assert!(!session.compact("ghost"), "nothing to fold");
        let err = WriteError::UnknownRelation("ghost".into());
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn compaction_folds_the_delta_and_bumps_the_version() {
        let session = Session::new(SchedulerConfig::new(2));
        let r = session.register(rel("R", 100));
        let s = session.register(rel("S", 100));
        session.append("R", (100..120u64).map(|k| Tuple::new(k, k))).expect("registered");
        session.delete("R", 0).expect("registered");
        let before = session.query(QuerySpec::join(&r, &s)).expect("before").result;

        assert!(session.compact("R"));
        assert!(!session.compact("R"), "second fold has nothing to do");
        assert_eq!(session.delta_len("R"), Some(0), "delta folded into the base");
        let current = session.relation("R").expect("resolves");
        assert_eq!(current.version(), 2, "compaction bumps the catalog version");
        assert_eq!(current.len(), 100 + 20 - 1, "new base holds the folded state");
        assert_eq!(session.scheduler().metrics().compactions, 1);

        // Old handles keep answering from their captured snapshot; a
        // fresh handle sees the compacted base.
        let after_old = session.query(QuerySpec::join(&r, &s)).expect("old handle").result;
        assert_eq!(after_old.max_payload_sum, before.max_payload_sum);
        let after_new = session.query(QuerySpec::join(&current, &s)).expect("new handle").result;
        assert_eq!(after_new.max_payload_sum, before.max_payload_sum);
        assert!(
            after_new.plan.explain().contains("Snapshot [R: base=v2, delta=0 tuples]"),
            "{}",
            after_new.plan.explain()
        );
    }

    #[test]
    fn background_compactor_folds_past_the_threshold() {
        use std::time::Duration;
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig::default(),
            CompactionConfig::default().threshold(8).interval(Duration::from_millis(5)),
        );
        session.register(rel("R", 64));
        session.append("R", (64..80u64).map(|k| Tuple::new(k, k))).expect("registered");
        // The write crossed the threshold and nudged the compactor;
        // wait (bounded) for the background fold to land. The compactor
        // counts a compaction only after it has published the new
        // version and re-warmed the cache, so the count is the last
        // thing to move.
        let mut folded = false;
        for _ in 0..2000 {
            if session.scheduler().metrics().compactions >= 1 {
                folded = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(folded, "background compactor never folded the delta");
        assert_eq!(session.relation("R").expect("resolves").version(), 2);
        assert_eq!(session.delta_len("R"), Some(0));
        assert_eq!(session.relation("R").expect("resolves").len(), 80);
    }

    #[test]
    fn manual_compaction_config_never_fires_on_its_own() {
        let session = Session::with_compaction(
            SchedulerConfig::new(1),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        session.register(rel("R", 10));
        session.append("R", (0..100u64).map(|k| Tuple::new(k, k))).expect("registered");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(session.relation("R").expect("resolves").version(), 1, "no background fold");
        assert_eq!(session.delta_len("R"), Some(100));
        assert!(session.compact("R"), "manual fold still works");
        assert_eq!(session.relation("R").expect("resolves").version(), 2);
    }

    #[test]
    fn epoch_gc_retains_only_pinned_and_newest_epochs() {
        let session = Session::with_compaction(
            SchedulerConfig::new(1),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        let orders = session.register(rel("orders", 64));
        // Pin the version-1 world the way a long-running query would.
        let pinned = session.shared.snapshot_for(&orders).expect("registered");

        for round in 0..16u64 {
            session.append("orders", [Tuple::new(1000 + round, round)]).expect("write");
            assert!(session.compact("orders"), "round {round} folds one op");
        }
        // 16 folds produced 16 new epochs, but the catalog retains
        // exactly two states: the pinned v1 epoch and the newest one.
        assert_eq!(session.retained_epochs("orders"), Some(2));
        assert_eq!(session.relation("orders").expect("resolves").version(), 17);
        // The pinned snapshot still reads its captured world …
        assert_eq!(pinned.materialize().len(), 64, "pinned epoch survives the GC");
        // … and identity outlives the collected epochs: the original
        // v1 handle still resolves (to the newest epoch's state).
        let snap = session.shared.snapshot_for(&orders).expect("identity kept forever");
        assert_eq!(snap.base_version(), 17);
        assert_eq!(snap.materialize().len(), 64 + 16);
        drop(snap);

        // Dropping the pin lets the next fold's sweep collect v1.
        drop(pinned);
        session.append("orders", [Tuple::new(9999, 0)]).expect("write");
        assert!(session.compact("orders"));
        assert_eq!(session.retained_epochs("orders"), Some(1), "only the newest epoch remains");

        // Re-registration starts a new lineage; the old lineage keeps
        // its final epoch so old handles still answer.
        session.register(rel("orders", 8));
        assert_eq!(session.retained_epochs("orders"), Some(2));
        let old = session.shared.snapshot_for(&orders).expect("old lineage resolves");
        assert_eq!(old.materialize().len(), 64 + 17);
    }
}
