//! The unified execution context: topology, placement, arenas,
//! counters, and the shared worker pool in one object.
//!
//! Before this module existed the repository had three ad-hoc ways to
//! hand a join its workers, and the NUMA model lived in a
//! simulation-only sidecar (`mpsm-numa`) consulted only by audit
//! binaries — the *real* join and executor paths allocated wherever and
//! counted nothing. An [`ExecContext`] closes that gap: it owns
//!
//! * a [`Topology`] (the simulated machine),
//! * a [`WorkerPlacement`] mapping every pool worker to a core and
//!   therefore a NUMA node,
//! * a [`NumaArena`] from which all run and partition storage is
//!   allocated with an explicit home node,
//! * per-phase [`AccessCounters`] fed by the join phases themselves,
//! * and a [`SharedWorkerPool`] executing every parallel section.
//!
//! Every execution layer — partitioning, sorting, merging, the three
//! join variants, and `mpsm-exec`'s scheduler — takes the context and
//! flows placement through, so the paper's commandments C1–C3 become
//! *measurable properties of the production code path* instead of
//! claims checked only in a sidecar simulation.
//!
//! ## The access model
//!
//! Counters record *tuple-granular* traffic at phase boundaries, using
//! quantities the phases compute anyway (chunk lengths, histogram
//! counts, merge cursor positions) — zero instrumentation cost inside
//! hot loops, mirroring commandment C3. The model, which the
//! accounting proptests pin:
//!
//! * base relations are **globally interleaved** (unplaced); scanning a
//!   chunk of length `n` records `n` interleaved sequential reads;
//! * copying a chunk into a run records `n` sequential writes against
//!   the run's home node;
//! * sorting a run of length `n` in place records `n` sequential reads
//!   plus `n` random writes against its home (the paper's local sort —
//!   random accesses are the reason C1 demands it be node-local);
//! * the scatter of P-MPSM phase 2 records, per worker, `n` interleaved
//!   sequential re-reads plus one sequential write per tuple against
//!   the home of the *target* partition (remote, but sequential into a
//!   disjoint window — exactly what C1 permits);
//! * a merge-join records the tuples each cursor actually consumed
//!   (sequential, against each run's home), and an interpolation/binary
//!   entry search records `⌈log₂ |run|⌉ + 1` random accesses against
//!   the public run's home (the `O(log log)`-ish probes C2 tolerates);
//! * sub-linear bookkeeping (CDF bounds, splitter computation, prefix
//!   sums) is not counted — the paper calls it "almost free" and it
//!   touches `O(f·T²)` values, not tuples.
//!
//! One context should serve one join (or one scheduled query): derive
//! fresh contexts with [`ExecContext::per_query`] /
//! [`ExecContext::pinned_to`] instead of reusing one across queries,
//! so audits and arena statistics stay attributable.

use std::sync::Mutex;

use mpsm_numa::{AccessCounters, CounterScope, NodeId, NumaArena, NumaBuf, Topology};

use crate::sort::SortScratch;
use crate::stats::Phase;
use crate::tuple::Tuple;
use crate::worker::{SharedWorkerPool, WorkerPlacement};

/// Where the context homes the buffers it allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Each allocation is homed on the node of the worker that will own
    /// it — the paper's design (runs and partitions in local RAM).
    #[default]
    WorkerLocal,
    /// Every allocation is homed on one fixed node, regardless of which
    /// worker owns it — the "first-touch on socket 0" anti-pattern of
    /// an unplaced `malloc`, kept as a deliberately misplaced contender
    /// so the commandments' cost is observable (see
    /// `examples/numa_placement.rs`).
    Pinned(NodeId),
}

/// The unified execution context. See the module docs for the model;
/// construction is cheap (the expensive part, the worker pool, can be
/// shared between contexts via [`ExecContext::per_query`]).
///
/// ```
/// use mpsm_core::context::ExecContext;
/// use mpsm_core::join::p_mpsm::PMpsmJoin;
/// use mpsm_core::join::{JoinAlgorithm, JoinConfig};
/// use mpsm_core::sink::CountSink;
/// use mpsm_core::Tuple;
/// use mpsm_numa::Topology;
///
/// // Eight workers on a simulated 4-socket machine, two per node.
/// let cx = ExecContext::new(Topology::paper_machine(), 8);
/// let r: Vec<Tuple> = (0..1000u64).map(|k| Tuple::new(k, k)).collect();
/// let s: Vec<Tuple> = (0..1000u64).map(|k| Tuple::new(k, k)).collect();
/// let join = PMpsmJoin::new(JoinConfig::with_threads(8));
/// let (count, _stats) = join.join_in::<CountSink>(&cx, &r, &s);
/// assert_eq!(count, 1000);
/// // The context audited the real execution: the sort phase ran on
/// // node-local partitions.
/// use mpsm_core::stats::Phase;
/// assert!(cx.phase_counters(Phase::Three).remote_fraction() < 0.05);
/// ```
#[derive(Debug)]
pub struct ExecContext {
    placement: WorkerPlacement,
    pool: SharedWorkerPool,
    arena: NumaArena,
    policy: AllocPolicy,
    phase_counters: Mutex<[AccessCounters; 4]>,
    sort_scratch: Vec<Mutex<SortScratch>>,
}

impl ExecContext {
    /// Spawn `threads` pool workers placed round-robin over `topology`'s
    /// hardware contexts (the Figure 11 numbering).
    pub fn new(topology: Topology, threads: usize) -> Self {
        Self::with_pool(topology, SharedWorkerPool::new(threads))
    }

    /// A single-node (non-NUMA) context with `threads` workers — the
    /// default substrate of the classic entry points, where every
    /// access is local by construction.
    pub fn flat(threads: usize) -> Self {
        Self::new(Topology::flat(threads as u32), threads)
    }

    /// The paper's evaluation machine as the joins use it: four nodes ×
    /// eight cores (Figure 11), one worker per physical core — 32
    /// workers, eight per socket.
    pub fn paper_machine() -> Self {
        let topology = Topology::paper_machine();
        let threads = topology.total_cores() as usize;
        Self::new(topology, threads)
    }

    /// Build over an existing pool with round-robin placement on
    /// `topology`.
    pub fn with_pool(topology: Topology, pool: SharedWorkerPool) -> Self {
        let placement = WorkerPlacement::round_robin(topology, pool.threads());
        Self::with_placement(placement, pool)
    }

    /// Build from an explicit placement (one placed core per pool
    /// worker).
    ///
    /// # Panics
    /// Panics if the placement and the pool disagree on the worker
    /// count.
    pub fn with_placement(placement: WorkerPlacement, pool: SharedWorkerPool) -> Self {
        assert_eq!(placement.threads(), pool.threads(), "one placed core per pool worker");
        let arena = NumaArena::new(placement.topology().clone());
        let sort_scratch = (0..pool.threads()).map(|_| Mutex::new(SortScratch::new())).collect();
        ExecContext {
            placement,
            pool,
            arena,
            policy: AllocPolicy::WorkerLocal,
            phase_counters: Mutex::new(Default::default()),
            sort_scratch,
        }
    }

    /// Builder-style override of the allocation policy.
    pub fn alloc_policy(mut self, policy: AllocPolicy) -> Self {
        if let AllocPolicy::Pinned(node) = policy {
            assert!(node.0 < self.topology().nodes, "node {node} outside topology");
        }
        self.policy = policy;
        self
    }

    /// Derive a context for one query (or one background owner such as
    /// the compactor): same workers and placement, fresh counters and
    /// arena so the audit is attributable to this query alone.
    pub fn per_query(&self) -> ExecContext {
        ExecContext {
            placement: self.placement.clone(),
            pool: self.pool.clone(),
            arena: NumaArena::new(self.topology().clone()),
            policy: self.policy,
            phase_counters: Mutex::new(Default::default()),
            // Fresh per-worker scratch: queries derived from one base
            // context run concurrently on the shared pool, and sharing
            // scratch would serialize their sort phases on its locks.
            sort_scratch: (0..self.pool.threads())
                .map(|_| Mutex::new(SortScratch::new()))
                .collect(),
        }
    }

    /// Derive a context whose workers (and allocations) all sit on one
    /// `node` — the NUMA-affine query placement of the scheduler: a
    /// query pinned to one socket keeps its runs, partitions, and
    /// phases node-local while other queries use the other sockets.
    ///
    /// # Panics
    /// Panics if `node` is outside the topology.
    pub fn pinned_to(&self, node: NodeId) -> ExecContext {
        let placement =
            WorkerPlacement::on_node(self.topology().clone(), node, self.pool.threads());
        ExecContext {
            placement,
            pool: self.pool.clone(),
            arena: NumaArena::new(self.topology().clone()),
            policy: self.policy,
            phase_counters: Mutex::new(Default::default()),
            sort_scratch: (0..self.pool.threads())
                .map(|_| Mutex::new(SortScratch::new()))
                .collect(),
        }
    }

    /// Number of pool workers (the `T` of a join run in this context).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The simulated machine.
    pub fn topology(&self) -> &Topology {
        self.placement.topology()
    }

    /// The worker → core → node map.
    pub fn placement(&self) -> &WorkerPlacement {
        &self.placement
    }

    /// The shared pool executing every parallel section.
    pub fn pool(&self) -> &SharedWorkerPool {
        &self.pool
    }

    /// The arena all run/partition storage is drawn from (per-node
    /// allocation statistics).
    pub fn arena(&self) -> &NumaArena {
        &self.arena
    }

    /// The node worker `w`'s local memory lives on.
    pub fn worker_node(&self, worker: usize) -> NodeId {
        self.placement.node_of(worker)
    }

    /// The home node the current policy assigns to worker `w`'s
    /// allocations ([`AllocPolicy::WorkerLocal`]: the worker's own
    /// node).
    pub fn home_of(&self, worker: usize) -> NodeId {
        match self.policy {
            AllocPolicy::WorkerLocal => self.placement.node_of(worker),
            AllocPolicy::Pinned(node) => node,
        }
    }

    /// A per-worker recording scope classifying accesses against this
    /// context's placement. Scopes are worker-private (commandment C3:
    /// no shared counters in hot paths); finish them and merge via
    /// [`ExecContext::record`].
    pub fn scope(&self, worker: usize) -> CounterScope {
        CounterScope::new(self.topology().clone(), self.placement.core_of(worker))
    }

    /// Allocate a zeroed buffer of `len` tuples homed per policy for
    /// worker `w`.
    pub fn alloc(&self, worker: usize, len: usize) -> NumaBuf<Tuple> {
        self.arena.alloc(self.home_of(worker), len)
    }

    /// Adopt `data` as worker `w`'s run, homed per policy.
    pub fn adopt(&self, worker: usize, data: Vec<Tuple>) -> NumaBuf<Tuple> {
        self.arena.adopt(self.home_of(worker), data)
    }

    /// The shared run-generation prologue of every MPSM variant: copy
    /// `chunk` into a run homed per policy for worker `w` (recording
    /// the interleaved chunk read and the home-side write), then sort
    /// it in place with the audited three-phase sort. Keeping this in
    /// one place keeps the access model identical across variants —
    /// the `4n`-per-sort-phase total the accounting proptests pin.
    pub fn sorted_run(
        &self,
        worker: usize,
        chunk: &[Tuple],
        scope: &mut CounterScope,
    ) -> NumaBuf<Tuple> {
        let mut run = self.copied_run(worker, chunk, scope);
        let home = run.home();
        self.sort_run(worker, &mut run, home, scope);
        run
    }

    /// Copy `chunk` into a run homed per policy for worker `w`,
    /// recording the interleaved chunk read and the home-side write —
    /// [`ExecContext::sorted_run`]'s copy, for a chunk that is already
    /// sorted.
    pub fn copied_run(
        &self,
        worker: usize,
        chunk: &[Tuple],
        scope: &mut CounterScope,
    ) -> NumaBuf<Tuple> {
        scope.touch_interleaved(true, chunk.len() as u64);
        let run = self.adopt(worker, chunk.to_vec());
        scope.touch(run.home(), true, chunk.len() as u64);
        run
    }

    /// Sort `run` in place through worker `w`'s reusable scratch,
    /// recording the traffic against `home`: `len` sequential reads
    /// plus `len` random writes, which is why commandment C1 wants runs
    /// sorted in *local* RAM. The one sort entry point of every
    /// execution path, MPSM variants and the scheduler alike.
    pub fn sort_run(
        &self,
        worker: usize,
        run: &mut [Tuple],
        home: NodeId,
        scope: &mut CounterScope,
    ) {
        let mut scratch = self.sort_scratch[worker].lock().expect("sort scratch poisoned");
        scope.touch(home, true, run.len() as u64);
        scope.touch(home, false, run.len() as u64);
        crate::sort::three_phase_sort_with(run, &mut scratch);
    }

    /// Merge per-worker counters into the context's tally for `phase`.
    pub fn record(&self, phase: Phase, parts: impl IntoIterator<Item = AccessCounters>) {
        let mut log = self.phase_counters.lock().expect("phase counters poisoned");
        for part in parts {
            log[phase as usize].merge(&part);
        }
    }

    /// Counters recorded for one phase so far.
    pub fn phase_counters(&self, phase: Phase) -> AccessCounters {
        self.phase_counters.lock().expect("phase counters poisoned")[phase as usize].clone()
    }

    /// Counters merged over all phases.
    pub fn counters(&self) -> AccessCounters {
        let log = self.phase_counters.lock().expect("phase counters poisoned");
        AccessCounters::merged(log.iter())
    }

    /// Reset all phase counters (e.g. between two joins sharing one
    /// context in a benchmark loop).
    pub fn reset_counters(&self) {
        *self.phase_counters.lock().expect("phase counters poisoned") = Default::default();
    }

    /// If every worker of this context sits on one node, that node
    /// (what the EXPLAIN `Placement` line reports).
    pub fn single_node(&self) -> Option<NodeId> {
        self.placement.single_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_numa::AccessKind;

    #[test]
    fn flat_context_is_single_node() {
        let cx = ExecContext::flat(4);
        assert_eq!(cx.threads(), 4);
        assert_eq!(cx.single_node(), Some(NodeId(0)));
        for w in 0..4 {
            assert_eq!(cx.worker_node(w), NodeId(0));
            assert_eq!(cx.home_of(w), NodeId(0));
        }
    }

    #[test]
    fn paper_machine_context_spreads_over_sockets() {
        let cx = ExecContext::paper_machine();
        assert_eq!(cx.threads(), 32);
        assert_eq!(cx.single_node(), None);
        assert_eq!(cx.worker_node(0), NodeId(0));
        assert_eq!(cx.worker_node(1), NodeId(1));
        assert_eq!(cx.worker_node(4), NodeId(0));
    }

    #[test]
    fn record_accumulates_per_phase() {
        let cx = ExecContext::flat(2);
        let mut a = AccessCounters::new();
        a.record(AccessKind::LocalSeq, 10);
        let mut b = AccessCounters::new();
        b.record(AccessKind::RemoteRand, 5);
        cx.record(Phase::One, [a]);
        cx.record(Phase::One, [b]);
        assert_eq!(cx.phase_counters(Phase::One).total_accesses(), 15);
        assert_eq!(cx.phase_counters(Phase::Two).total_accesses(), 0);
        assert_eq!(cx.counters().total_accesses(), 15);
        cx.reset_counters();
        assert_eq!(cx.counters().total_accesses(), 0);
    }

    #[test]
    fn allocations_follow_the_policy() {
        let cx = ExecContext::new(Topology::paper_machine(), 8);
        let buf = cx.alloc(3, 16);
        assert_eq!(buf.home(), NodeId(3), "worker 3 sits on node 3");
        let pinned = ExecContext::new(Topology::paper_machine(), 8)
            .alloc_policy(AllocPolicy::Pinned(NodeId(1)));
        assert_eq!(pinned.alloc(3, 16).home(), NodeId(1));
        assert_eq!(pinned.adopt(2, vec![Tuple::new(1, 1)]).home(), NodeId(1));
    }

    #[test]
    fn pinned_derivation_moves_all_workers_to_one_node() {
        let base = ExecContext::new(Topology::paper_machine(), 8);
        let pinned = base.pinned_to(NodeId(2));
        assert_eq!(pinned.single_node(), Some(NodeId(2)));
        assert_eq!(pinned.threads(), 8);
        // Same underlying workers: phases served are visible on both.
        pinned.pool().run(|w| w);
        assert_eq!(base.pool().phases_served(), 1);
        // Fresh counters on the derived context.
        assert_eq!(pinned.counters().total_accesses(), 0);
    }

    #[test]
    fn per_query_shares_pool_but_not_counters() {
        let base = ExecContext::flat(2);
        let mut c = AccessCounters::new();
        c.record(AccessKind::LocalSeq, 7);
        base.record(Phase::Four, [c]);
        let derived = base.per_query();
        derived.pool().run(|w| w);
        assert_eq!(base.pool().phases_served(), 1, "same underlying workers");
        assert_eq!(derived.counters().total_accesses(), 0);
        assert_eq!(base.counters().total_accesses(), 7);
    }

    #[test]
    fn scopes_classify_against_placement() {
        let cx = ExecContext::new(Topology::paper_machine(), 8);
        let mut scope = cx.scope(1); // worker 1 → node 1
        scope.touch(NodeId(1), true, 10);
        scope.touch(NodeId(0), true, 30);
        let c = scope.finish();
        assert!((c.remote_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn derived_contexts_sort_with_their_own_scratch() {
        use crate::tuple::is_key_sorted;
        let base = ExecContext::new(Topology::paper_machine(), 4);
        let input: Vec<Tuple> = (0..6000u64).rev().map(|k| Tuple::new(k * 7 % 4001, k)).collect();
        let mut expected: Vec<(u64, u64)> = input.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        // The base context sorts first, so its scratch is grown; the
        // derived contexts start from empty scratch of their own and
        // must give the same answer on every worker.
        for cx in [&base, &base.per_query(), &base.pinned_to(NodeId(2))] {
            for worker in [0, 3] {
                let mut run = input.clone();
                let mut scope = cx.scope(worker);
                cx.sort_run(worker, &mut run, NodeId(0), &mut scope);
                assert!(is_key_sorted(&run));
                let mut got: Vec<(u64, u64)> = run.iter().map(|t| (t.key, t.payload)).collect();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn sort_run_sorts_with_the_context_kernel() {
        use crate::tuple::is_key_sorted;
        let cx = ExecContext::flat(2);
        let mut run: Vec<Tuple> = (0..5000u64).rev().map(|k| Tuple::new(k * 3 % 1000, k)).collect();
        let mut scope = cx.scope(0);
        cx.sort_run(0, &mut run, NodeId(0), &mut scope);
        assert!(is_key_sorted(&run));
        let c = scope.finish();
        assert_eq!(c.total_accesses(), 10_000, "n reads + n writes recorded");
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn pinned_policy_rejects_unknown_node() {
        let _ = ExecContext::flat(2).alloc_policy(AllocPolicy::Pinned(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "one placed core per pool worker")]
    fn mismatched_placement_rejected() {
        let placement = WorkerPlacement::round_robin(Topology::flat(4), 3);
        let _ = ExecContext::with_placement(placement, SharedWorkerPool::new(4));
    }
}
