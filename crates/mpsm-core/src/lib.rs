//! # mpsm-core — Massively Parallel Sort-Merge joins
//!
//! From-scratch implementation of the MPSM join suite from *"Massively
//! Parallel Sort-Merge Joins in Main Memory Multi-Core Database
//! Systems"* (Albutiu, Kemper, Neumann; PVLDB 5(10), 2012):
//!
//! * [`join::b_mpsm`] — **B-MPSM**, the basic, absolutely skew-immune
//!   variant (§2.1): every worker sorts a private and a public chunk,
//!   then merge-joins its private run against *all* public runs.
//! * [`join::p_mpsm`] — **P-MPSM**, the range-partitioned main-memory
//!   variant (§3.2): a prologue range-partitions the private input with
//!   synchronization-free scatter so each worker only touches `1/T` of
//!   the key domain of the public input. Skew resilience via CDF +
//!   cost-balanced splitters (§4).
//! * [`join::d_mpsm`] — **D-MPSM**, the memory-constrained disk variant
//!   (§3.1): runs are spooled through `mpsm-storage`, and workers move
//!   synchronously through the key domain behind a page index, ahead of
//!   which an asynchronous prefetcher loads pages and behind which pages
//!   are released.
//!
//! Supporting machinery, each in its own module and usable on its own:
//! the paper's three-phase [`sort`] (§2.3), radix [`histogram`]s and
//! prefix sums (§3.2.1), the public-input [`cdf`] (§4.1), cost-balanced
//! [`splitter`]s (§4.2–4.3), [`interpolation`] search (§3.2.2), the
//! duplicate-correct [`merge`] join kernel, pluggable result [`sink`]s,
//! and per-phase [`stats`].
//!
//! ## Design rules (the paper's NUMA "commandments")
//!
//! * **C1** — no random writes to remote memory: all sorting happens on
//!   worker-local chunks; the only cross-worker writes (the scatter of
//!   phase 2) go *sequentially* into precomputed disjoint windows.
//! * **C2** — remote reads only sequentially: the join phase scans runs;
//!   the only non-sequential probes are the `O(log log)` interpolation
//!   search steps per (worker, run) pair.
//! * **C3** — no fine-grained synchronization: there are no atomics or
//!   latches in any hot loop; workers synchronize only at phase
//!   boundaries.
//!
//! ## Cache-conscious hot paths
//!
//! Four inner loops carry every join. Three are engineered beyond the
//! paper's literal recipe: the three-phase [`sort`] recurses its radix
//! pass until a bucket fits one 64-tuple sorting network and finishes
//! each bucket while hot; the [`merge`] kernel cuts each run pair by
//! binary search to the key span it shares before its linear loop; and
//! [`worker::SharedWorkerPool`] parks persistent worker threads between
//! phases instead of respawning them. The sort and the merge keep their seed variant reachable as a
//! reference. The [`partition`] scatter stays the paper's: one checked
//! store per tuple into its window, because software write-combining
//! measured slower on a single socket (module docs). The harness under
//! `bench/` prices each of them (`sort.*`, `partition.*`, `merge.*`,
//! `worker.*`).
//!
//! ## One execution context for every layer
//!
//! [`context::ExecContext`] bundles what an execution needs — a
//! simulated NUMA [`mpsm_numa::Topology`], a
//! [`worker::WorkerPlacement`] (worker → core → node), node-homed
//! arenas for run/partition storage, per-phase access counters, and a
//! [`worker::SharedWorkerPool`] — and every join runs through the one
//! entry shape [`join::JoinAlgorithm::join_in`]. The commandments
//! above are thereby *measured on the real code path*: sorts record
//! their traffic against the run's home node, the scatter against each
//! target partition's home, merges their actual scan extents
//! ([`merge::MergeScan`]). The context-free entry points
//! ([`join::JoinAlgorithm::join_with_sink`] and friends) build a flat
//! context for one call and delegate.
//!
//! ## Sharing the workers between joins
//!
//! [`worker::SharedWorkerPool`] lets many concurrent owners submit
//! phases to one pool through a fair FIFO turnstile; contexts derived
//! from one base ([`context::ExecContext::per_query`],
//! [`context::ExecContext::pinned_to`]) share its pool — the substrate
//! `mpsm-exec`'s multi-query scheduler builds on, deriving one pinned
//! context per admitted query for NUMA-affine placement.

#![warn(missing_docs)]

pub mod cdf;
pub mod context;
pub mod histogram;
pub mod interpolation;
pub mod join;
pub mod merge;
pub mod partition;
pub mod sink;
pub mod sort;
pub mod splitter;
pub mod stats;
pub mod tuple;
pub mod worker;

pub use context::{AllocPolicy, ExecContext};
pub use histogram::RadixDomain;
pub use join::{JoinAlgorithm, JoinConfig, Role};
pub use stats::{JoinStats, Phase};
pub use tuple::Tuple;
