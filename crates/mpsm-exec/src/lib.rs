//! Minimal relational executor running the paper's benchmark query.
//!
//! The paper evaluates "the common case that two relations R and S are
//! scanned, a selection is applied, and then the results are joined"
//! (§5), with the aggregate `SELECT max(R.payload + S.payload)` on top.
//! This crate provides exactly that pipeline as composable operators —
//! enough of a query engine to execute the paper's workload end to end
//! without pretending to be a full DBMS:
//!
//! * [`scan::Relation`] — a named, typed base table;
//! * [`ops::Select`] — a filtered scan (predicate over key/payload);
//! * [`query`] — the ready-made paper query: the selections feed any
//!   [`mpsm_core::join::JoinAlgorithm`] whose sink is the aggregate;
//! * [`groupby`] — sort-based early aggregation exploiting MPSM's
//!   run-structured output (the §7 extension).
//!
//! ## Serving many queries at once
//!
//! The paper's join owns the whole machine; a service cannot. The
//! [`sched`] module adds a multi-query scheduler that admits many
//! concurrent paper queries against **one** shared
//! [`mpsm_core::worker::SharedWorkerPool`] — bounded admission,
//! futures-style [`sched::QueryTicket`]s, phase-granular fair
//! interleaving, and queue/phase timings in EXPLAIN — and [`session`]
//! layers a client-facing relation catalog on top. Start at
//! [`session::Session`] or [`sched::Scheduler`]. The scheduler keeps
//! one file per concern, each on a std one-shot cell or channel.
//!
//! ## NUMA-affine placement
//!
//! Every execution flows through an
//! [`mpsm_core::context::ExecContext`]. A scheduler configured with a
//! multi-node [`sched::SchedulerConfig::topology`] pins each admitted
//! query to the least-loaded node, and every plan's EXPLAIN output
//! grows a `Placement [node=…, local=…%, remote=…%]` line reporting
//! where the join ran and how node-local its audited memory traffic
//! was.
//!
//! ## One route
//!
//! Every scheduled query runs [`query::paper_query_runs`]. It resolves
//! each side to sorted runs — S first, then R — and merges them through
//! the one run-set merge driver,
//! [`mpsm_core::join::anytime::merge_sides`]. Every registered version
//! is stored key-sorted, so a registered side — cached or not, clean,
//! dirty or filtered — is a cut of that order
//! ([`mpsm_core::join::runs::cut_run_set`]), never a sort. Only a raw,
//! unregistered handle is sorted, by one equi-height
//! [`mpsm_core::join::runs::build_run_set`]. The three sections below
//! describe what the route does for cached, mutable and SLA-bound
//! queries.
//! [`query::paper_query_in`] (and its thread-count twin
//! [`query::paper_query`]) runs the same pipeline over any
//! [`mpsm_core::join::JoinAlgorithm`] — the entry for contenders,
//! examples and tests, not a served route.
//!
//! ## Sorted-run caching
//!
//! A registered relation's runs depend only on the relation version
//! and the run layout — not on the query. The [`run_cache`] module
//! caches those runs keyed by `(relation id, version, splitter
//! fingerprint)`; a [`session::Session`] always owns one, so repeated
//! joins over registered relations skip even the cut and go straight
//! to merge-join. EXPLAIN grows a `RunCache [R=hit, S=miss]` line,
//! and re-registering a relation bumps its catalog version, which
//! invalidates every run set built from older versions.
//!
//! ## Mutable relations and consistent snapshots
//!
//! Registered relations accept writes — [`session::Session::append`],
//! [`session::Session::update`], [`session::Session::delete`] — which
//! land in a per-relation append-only delta log ([`snapshot::DeltaLog`])
//! without disturbing the immutable sorted base the run cache serves.
//! Each submitted query captures a [`snapshot::Snapshot`] per side at
//! admission: base version plus delta watermark. The join merges the
//! visible delta in on the fly (one extra sorted run, with superseded
//! base keys masked), so writers never block readers and a running join
//! never tears. A background compactor owned by the [`sched::Scheduler`]
//! folds deltas into new base versions — cache invalidation falls out of
//! the ordinary version bump. EXPLAIN grows
//! `Snapshot [R: base=vN, delta=K tuples]` rows.
//!
//! ## Deadlines, row caps and degraded admission
//!
//! A query with a [`session::QuerySpec::deadline`], a
//! [`session::QuerySpec::collect_rows`] cap, or a degraded-admission
//! block budget merges in ascending key intervals and stops between
//! them: it returns a key-order **prefix** of the full answer — over a
//! dirty snapshot too, each interval carries its slice of the delta —
//! with the coverage on the plan's `Anytime` row.

#![warn(missing_docs)]

pub mod groupby;
pub mod ops;
pub mod plan;
pub mod query;
pub mod run_cache;
pub mod scan;
pub mod sched;
pub mod session;
pub mod snapshot;

pub use groupby::{sorted_group_by, CountAgg, KeyAggregate, MaxAgg, SumAgg};
pub use ops::Select;
pub use plan::{
    AnytimeInfo, PlacementInfo, PlanStep, QueryPlan, RunCacheInfo, RunCacheOutcome, SnapshotInfo,
};
pub use query::{paper_query, paper_query_in, paper_query_runs, PaperQueryResult};
pub use run_cache::{
    splitter_fingerprint, BuildPermit, Lookup, RunCache, RunCacheConfig, RunCacheStats, RunKey,
};
pub use scan::Relation;
pub use sched::{
    CompactionConfig, CompactionTask, Priority, QueryError, QueryOutput, QueryStatus, QueryTicket,
    Scheduler, SchedulerConfig, SchedulerMetrics, SubmitError,
};
pub use session::{Predicate, QuerySpec, Session, WriteError};
pub use snapshot::{DeltaLog, RelationState, Snapshot};
