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
//! * building a run from a chunk records `n` sequential writes against
//!   the run's home node — the copy, which [`ExecContext::sorted_run`]
//!   does as the sort's top radix scatter;
//! * sorting a run of length `n` records `n` sequential reads plus `n`
//!   random writes against its home (the paper's local sort — random
//!   accesses are the reason C1 demands it be node-local);
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
//! One parallel section is one [`ExecContext::run_phase`] call: it
//! runs the section on every pool worker, hands each worker a
//! [`CounterScope`] to touch, and books that worker's time (into the
//! caller's [`JoinStats`]) and its counters (into this context) under
//! the one phase the caller names. No section books its own time or
//! merges its own scopes, so the per-worker times behind
//! [`JoinStats::imbalance`] and the per-phase audit always describe the
//! same section.
//!
//! ## Machine and query state
//!
//! A context is two halves. The **machine** half — the worker pool,
//! each worker's [`SortScratch`] and the spare run buffers — sits
//! behind one `Arc` that every context derived with
//! [`ExecContext::per_query`] / [`ExecContext::pinned_to`] shares. The
//! **query** half — placement, allocation policy, arena and phase
//! counters — is fresh per derived context, so audits and arena
//! statistics stay attributable to one join (or one scheduled query).
//!
//! A [`RunSet`](crate::join::runs::RunSet) a context builds hands its
//! buffers back to the machine's spares when its last reference drops —
//! a finished join, an evicted or invalidated cache entry, an uncached
//! side — and [`ExecContext::alloc`] serves later runs and partitions
//! from them, so a warm build page-faults no fresh memory. The sort
//! scratch is uncontended: the pool's turnstile gives one phase the
//! whole pool, and worker `w` alone locks scratch `w`.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mpsm_numa::{AccessCounters, CounterScope, NodeId, NumaArena, NumaBuf, Topology};

use crate::histogram::RadixDomain;
use crate::sort::SortScratch;
use crate::stats::{JoinStats, Phase};
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
/// construction is cheap (the expensive part, the machine state, is
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
    machine: Arc<Machine>,
    placement: WorkerPlacement,
    arena: NumaArena,
    policy: AllocPolicy,
    phase_counters: Mutex<[AccessCounters; 4]>,
    /// Whether [`ExecContext::alloc`] and the run sets this context
    /// builds go through the machine's spare list.
    reuses_spares: bool,
}

/// The state every context derived from one base shares.
#[derive(Debug)]
struct Machine {
    pool: SharedWorkerPool,
    sort_scratch: Vec<Mutex<SortScratch>>,
    spares: Arc<SpareRuns>,
}

/// Run buffers dead run sets handed back, each on its home node: at
/// most one join's worth (`2·T`).
#[derive(Debug)]
pub(crate) struct SpareRuns {
    cap: usize,
    buffers: Mutex<Vec<NumaBuf<Tuple>>>,
}

impl SpareRuns {
    /// The list, recovered if a panicking holder poisoned it: every
    /// update leaves a valid list of buffers, and [`RunSet`]'s `Drop`
    /// must not panic.
    ///
    /// [`RunSet`]: crate::join::runs::RunSet
    fn lock(&self) -> MutexGuard<'_, Vec<NumaBuf<Tuple>>> {
        self.buffers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The best-fitting spare on `home` — the smallest whose capacity
    /// holds `len`. When none does, the node's spares are all smaller
    /// than what it now asks for (a relation that grows on every fold
    /// asks for more each time) and are freed rather than kept dead.
    fn take(&self, home: NodeId, len: usize) -> Option<NumaBuf<Tuple>> {
        if len == 0 {
            return None; // an empty buffer owns no memory worth keeping
        }
        let mut spares = self.lock();
        let best = (0..spares.len())
            .filter(|&i| spares[i].home() == home && spares[i].capacity() >= len)
            .min_by_key(|&i| spares[i].capacity());
        if let Some(best) = best {
            return Some(spares.swap_remove(best));
        }
        let (freed, kept): (Vec<_>, Vec<_>) =
            std::mem::take(&mut *spares).into_iter().partition(|buf| buf.home() == home);
        *spares = kept;
        drop(spares);
        drop(freed); // outside the lock
        None
    }

    /// Keep `buffers`, whose tuples are dead, as spares; past the cap
    /// the smallest are freed.
    pub(crate) fn put(&self, buffers: Vec<NumaBuf<Tuple>>) {
        let _freed = {
            let mut spares = self.lock();
            spares.extend(buffers.into_iter().filter(|buf| buf.capacity() > 0));
            if spares.len() > self.cap {
                spares.sort_unstable_by_key(|buf| std::cmp::Reverse(buf.capacity()));
                spares.split_off(self.cap)
            } else {
                Vec::new()
            }
        };
    }
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
        let threads = pool.threads();
        let machine = Machine {
            pool,
            sort_scratch: (0..threads).map(|_| Mutex::new(SortScratch::new())).collect(),
            spares: Arc::new(SpareRuns { cap: 2 * threads, buffers: Mutex::default() }),
        };
        Self::on_machine(Arc::new(machine), placement, AllocPolicy::WorkerLocal)
    }

    fn on_machine(machine: Arc<Machine>, placement: WorkerPlacement, policy: AllocPolicy) -> Self {
        ExecContext {
            arena: NumaArena::new(placement.topology().clone()),
            machine,
            placement,
            policy,
            phase_counters: Mutex::new(Default::default()),
            reuses_spares: true,
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
    /// the compactor): the same machine — workers, sort scratch and
    /// spare run buffers — and placement, with fresh counters and a
    /// fresh arena, so the audit and the fresh-allocation volume are
    /// attributable to this query alone.
    pub fn per_query(&self) -> ExecContext {
        Self::on_machine(Arc::clone(&self.machine), self.placement.clone(), self.policy)
    }

    /// Derive a context like [`ExecContext::per_query`] whose buffers
    /// bypass the machine's spare list: [`ExecContext::alloc`] draws
    /// every one fresh from the arena, and the run sets it builds free
    /// theirs on drop. One-off work (sorting a relation as it is
    /// registered) uses it, so it neither takes the spares a query's
    /// build would reuse nor leaves buffers no query asked for.
    pub(crate) fn without_spares(&self) -> ExecContext {
        ExecContext { reuses_spares: false, ..self.per_query() }
    }

    /// Derive a context whose workers (and allocations) all sit on one
    /// `node` — the NUMA-affine query placement of the scheduler: a
    /// query pinned to one socket keeps its runs, partitions, and
    /// phases node-local while other queries use the other sockets.
    /// Like [`ExecContext::per_query`] it shares the machine and starts
    /// fresh counters and arena; it takes only spares homed on `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the topology.
    pub fn pinned_to(&self, node: NodeId) -> ExecContext {
        let placement = WorkerPlacement::on_node(self.topology().clone(), node, self.threads());
        Self::on_machine(Arc::clone(&self.machine), placement, self.policy)
    }

    /// Number of pool workers (the `T` of a join run in this context).
    pub fn threads(&self) -> usize {
        self.machine.pool.threads()
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
        &self.machine.pool
    }

    /// The arena this context's fresh run/partition storage is drawn
    /// from: per-node volume handed out since the context was made.
    /// Buffers [`ExecContext::alloc`] reuses from the machine's spares
    /// are not counted.
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
    /// no shared counters in hot paths); [`ExecContext::run_phase`]
    /// opens one per worker and merges them via [`ExecContext::record`].
    pub fn scope(&self, worker: usize) -> CounterScope {
        CounterScope::new(self.topology().clone(), self.placement.core_of(worker))
    }

    /// A buffer of `len` tuples homed per policy for worker `w`, every
    /// slot of which the caller overwrites (its contents are
    /// unspecified). The best-fitting spare of the machine on that node
    /// — the smallest whose capacity holds `len`, which the arena does
    /// not count again — or else a fresh buffer from the arena, after
    /// freeing that node's spares (none of which fits). The context
    /// [`crate::join::runs::sort_in_place`] sorts in bypasses the
    /// spares and always takes a fresh one. The one allocation path of
    /// runs and partitions.
    pub fn alloc(&self, worker: usize, len: usize) -> NumaBuf<Tuple> {
        let home = self.home_of(worker);
        match self.spares().and_then(|spares| spares.take(home, len)) {
            Some(mut buf) => {
                buf.vec_mut().resize(len, Tuple::default());
                buf
            }
            None => self.arena.alloc(home, len),
        }
    }

    /// The machine's spare list, where the run sets this context builds
    /// hand their buffers back on drop (`None` for a context made by
    /// [`ExecContext::without_spares`]).
    pub(crate) fn spares(&self) -> Option<&Arc<SpareRuns>> {
        self.reuses_spares.then_some(&self.machine.spares)
    }

    /// The spare run buffers the machine holds, as `(home, capacity)`
    /// pairs: at most `2·T`, reused by the next [`ExecContext::alloc`]
    /// on their node.
    pub fn spare_buffers(&self) -> Vec<(NodeId, usize)> {
        let spares = self.machine.spares.lock();
        spares.iter().map(|buf| (buf.home(), buf.capacity())).collect()
    }

    /// Adopt `data` as worker `w`'s run, homed per policy.
    pub fn adopt(&self, worker: usize, data: Vec<Tuple>) -> NumaBuf<Tuple> {
        self.arena.adopt(self.home_of(worker), data)
    }

    /// The shared run-generation prologue of every MPSM variant: sort
    /// `chunk` straight into a run homed per policy for worker `w`
    /// ([`crate::sort::three_phase_sort_into`] through the worker's
    /// scratch: the top radix scatter is the copy). It books what a
    /// copy then an in-place sort would: the interleaved chunk read and
    /// the home-side write, then the sort's reads and random writes.
    /// Keeping this in one place keeps the access model identical
    /// across variants — the `4n`-per-sort-phase total the accounting
    /// proptests pin.
    pub fn sorted_run(
        &self,
        worker: usize,
        chunk: &[Tuple],
        scope: &mut CounterScope,
    ) -> NumaBuf<Tuple> {
        let mut run = self.alloc(worker, chunk.len());
        let (home, n) = (run.home(), chunk.len() as u64);
        scope.touch_interleaved(true, n);
        scope.touch(home, true, n);
        scope.touch(home, true, n);
        scope.touch(home, false, n);
        let mut scratch = self.machine.sort_scratch[worker].lock().expect("sort scratch poisoned");
        crate::sort::three_phase_sort_into(chunk, &mut run, &mut scratch);
        run
    }

    /// Sort a range-partitioned run in place through worker `w`'s
    /// reusable scratch. The bucket-major scatter
    /// ([`crate::partition::range_partition_ctx`]) left fine bucket
    /// `first + i` of `domain` at `part[bounds[i]..bounds[i + 1]]`, so
    /// [`crate::sort::sort_bucket_major`] only finishes each bucket
    /// while it is cache-resident and the scratch grows to the widest
    /// bucket, not the partition. Books what [`ExecContext::sort_run`]
    /// does against the partition's home: `len` sequential reads plus
    /// `len` random writes, which is why commandment C1 wants runs
    /// sorted in *local* RAM. Phase 3 of every range-partitioned run
    /// set that is built rather than cut (P-MPSM's private side, a
    /// bypass private side, the sort of a relation as it registers).
    pub fn sort_partition(
        &self,
        worker: usize,
        part: &mut NumaBuf<Tuple>,
        bounds: &[usize],
        first: usize,
        domain: &RadixDomain,
        scope: &mut CounterScope,
    ) {
        let mut scratch = self.machine.sort_scratch[worker].lock().expect("sort scratch poisoned");
        scope.touch(part.home(), true, part.len() as u64);
        scope.touch(part.home(), false, part.len() as u64);
        crate::sort::sort_bucket_major(part, bounds, first, domain.shift(), &mut scratch);
    }

    /// Tuples held by worker `w`'s sort scratch.
    #[cfg(test)]
    pub(crate) fn scratch_held(&self, worker: usize) -> usize {
        self.machine.sort_scratch[worker].lock().expect("sort scratch poisoned").held()
    }

    /// Sort `run` in place through worker `w`'s reusable scratch, which
    /// grows to the whole run, recording the traffic against `home` as
    /// [`ExecContext::sort_partition`] does. No execution path calls
    /// it any more — phase 1 sorts through [`ExecContext::sorted_run`],
    /// phase 3 through [`ExecContext::sort_partition`] — it stays for
    /// the benchmark's whole-run sort probe.
    pub fn sort_run(
        &self,
        worker: usize,
        run: &mut [Tuple],
        home: NodeId,
        scope: &mut CounterScope,
    ) {
        let mut scratch = self.machine.sort_scratch[worker].lock().expect("sort scratch poisoned");
        scope.touch(home, true, run.len() as u64);
        scope.touch(home, false, run.len() as u64);
        crate::sort::three_phase_sort_with(run, &mut scratch);
    }

    /// Run one parallel section: `f(w, scope)` on every pool worker, in
    /// one pool admission, results in worker order. Each worker's call
    /// is timed and gets a fresh [`CounterScope`] of its own; both book
    /// under `phase` — the times into `stats`, the finished scopes into
    /// this context's counters ([`ExecContext::record`]). Every timed
    /// section of the joins and the baselines goes through here, so a
    /// phase's per-worker time and its access audit cannot drift apart.
    pub fn run_phase<R, F>(&self, phase: Phase, stats: &mut JoinStats, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut CounterScope) -> R + Sync,
    {
        let outcomes = self.pool().run(|w| {
            let start = Instant::now();
            let mut scope = self.scope(w);
            let result = f(w, &mut scope);
            (result, scope.finish(), start.elapsed())
        });
        let mut results = Vec::with_capacity(outcomes.len());
        let mut counters = Vec::with_capacity(outcomes.len());
        let mut times = Vec::with_capacity(outcomes.len());
        for (result, counted, time) in outcomes {
            results.push(result);
            counters.push(counted);
            times.push(time);
        }
        stats.record_phase(phase, &times);
        self.record(phase, counters);
        results
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
    use std::time::Duration;

    use super::*;
    use crate::join::runs::RunSet;
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
    fn run_phase_books_one_section_under_one_phase() {
        let cx = ExecContext::new(Topology::paper_machine(), 4); // worker w on node w
        let mut stats = JoinStats::new(4);
        let served = cx.pool().phases_served();
        let start = Instant::now();
        let out = cx.run_phase(Phase::Three, &mut stats, |w, scope| {
            scope.touch(NodeId(0), true, 10 * (w as u64 + 1));
            w * 10
        });
        let wall = start.elapsed();
        assert_eq!(out, vec![0, 10, 20, 30], "results in worker order");
        assert_eq!(cx.pool().phases_served(), served + 1, "one pool admission");

        // Worker 0 reads its own node, workers 1–3 read node 0 remotely.
        let booked = cx.phase_counters(Phase::Three);
        assert_eq!(booked.accesses(AccessKind::LocalSeq), 10);
        assert_eq!(booked.accesses(AccessKind::RemoteSeq), 20 + 30 + 40);
        assert_eq!(booked.total_accesses(), 100);
        for phase in [Phase::One, Phase::Two, Phase::Four] {
            assert_eq!(cx.phase_counters(phase).total_accesses(), 0, "{phase:?} untouched");
        }

        for (w, times) in stats.per_worker.iter().enumerate() {
            for phase in Phase::ALL {
                let time = times[phase as usize];
                if phase == Phase::Three {
                    assert!(time > Duration::ZERO, "worker {w} was timed");
                    assert!(time <= wall, "worker {w}'s time lies inside the call");
                } else {
                    assert_eq!(time, Duration::ZERO, "worker {w} booked nothing under {phase:?}");
                }
            }
        }
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

    /// Hand `buffers` back to `cx`'s machine the way a dropped run set
    /// does.
    fn give_back(cx: &ExecContext, buffers: Vec<NumaBuf<Tuple>>) {
        drop(RunSet::built_in(cx, buffers));
    }

    #[test]
    fn alloc_takes_the_best_fitting_spare_on_its_own_node() {
        let tuple = std::mem::size_of::<Tuple>() as u64;
        let cx = ExecContext::new(Topology::paper_machine(), 2); // worker w on node w
        give_back(&cx, vec![cx.alloc(0, 100), cx.alloc(0, 300), cx.alloc(1, 200)]);
        let fresh = cx.arena().total_bytes();
        // Node 1's spare is no candidate for worker 0, and 100 slots do
        // not hold 200.
        let a = cx.alloc(0, 200);
        assert_eq!((a.home(), a.len(), a.capacity()), (NodeId(0), 200, 300));
        let b = cx.alloc(0, 50);
        assert_eq!((b.len(), b.capacity()), (50, 100), "the smallest spare that fits");
        let c = cx.alloc(0, 10);
        assert_eq!(cx.arena().total_bytes(), fresh + 10 * tuple, "node 0 ran out of spares");
        let d = cx.alloc(1, 150);
        assert_eq!((d.home(), d.capacity()), (NodeId(1), 200));
        assert_eq!(cx.arena().total_bytes(), fresh + 10 * tuple, "reuse is not counted again");
        // 2·T = 4 spares at most: the 5-slot one is freed, so the
        // best fit for 5 is now the 10-slot one.
        give_back(&cx, vec![a, b, c, d, cx.alloc(0, 5)]);
        assert_eq!(cx.spare_buffers().len(), 4);
        assert_eq!(cx.alloc(0, 5).capacity(), 10);
    }

    #[test]
    fn an_alloc_no_spare_fits_frees_its_nodes_smaller_spares() {
        let cx = ExecContext::new(Topology::paper_machine(), 2); // worker w on node w
        give_back(&cx, vec![cx.alloc(0, 100), cx.alloc(0, 300), cx.alloc(1, 200)]);
        let fresh = cx.arena().total_bytes();
        let big = cx.alloc(0, 400);
        assert_eq!(cx.arena().total_bytes(), fresh + 400 * std::mem::size_of::<Tuple>() as u64);
        assert_eq!(cx.spare_buffers(), vec![(NodeId(1), 200)], "node 1's spare is kept");
        // Zero-length requests neither take nor free a spare, and an
        // empty buffer is never kept.
        give_back(&cx, vec![big, cx.alloc(0, 0)]);
        assert_eq!(cx.alloc(0, 0).capacity(), 0);
        assert_eq!(cx.spare_buffers(), vec![(NodeId(1), 200), (NodeId(0), 400)]);
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
    fn derived_contexts_share_the_machines_scratch_and_spares() {
        use crate::tuple::is_key_sorted;
        let base = ExecContext::new(Topology::paper_machine(), 4);
        let input: Vec<Tuple> = (0..6000u64).rev().map(|k| Tuple::new(k * 7 % 4001, k)).collect();
        let mut expected: Vec<(u64, u64)> = input.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        let (per_query, pinned) = (base.per_query(), base.pinned_to(NodeId(2)));
        // The base context sorts first and grows workers 0 and 3's
        // scratch; the derived contexts sort through that same scratch
        // and must give the same answer on every worker.
        for cx in [&base, &per_query, &pinned] {
            for worker in [0, 3] {
                let mut run = input.clone();
                let mut scope = cx.scope(worker);
                cx.sort_run(worker, &mut run, NodeId(0), &mut scope);
                assert!(is_key_sorted(&run));
                let mut got: Vec<(u64, u64)> = run.iter().map(|t| (t.key, t.payload)).collect();
                got.sort_unstable();
                assert_eq!(got, expected);
                for other in [&base, &per_query, &pinned] {
                    assert_eq!(other.scratch_held(worker), cx.scratch_held(worker));
                }
            }
        }
        assert!(base.scratch_held(0) > 0 && base.scratch_held(1) == 0);
        // A buffer one derived context hands back is the next one's
        // spare: the pinned context reuses it without a fresh byte.
        give_back(&per_query, vec![per_query.alloc(2, 500)]); // worker 2 sits on node 2
        assert_eq!(base.spare_buffers(), vec![(NodeId(2), 500)]);
        let reused = pinned.alloc(0, 500);
        assert_eq!((reused.home(), reused.capacity()), (NodeId(2), 500));
        assert_eq!(pinned.arena().total_bytes(), 0, "fresh bytes stay per context");
        assert!(base.spare_buffers().is_empty());
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
    fn a_private_build_grows_scratch_to_the_widest_fine_bucket_only() {
        use crate::histogram::{compute_histogram, RadixDomain};
        use crate::join::runs::build_run_set;
        let mut state = 77u64;
        let input: Vec<Tuple> = (0..1u64 << 17)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Tuple::new(state >> 32, i)
            })
            .collect();
        let cx = ExecContext::flat(2);
        let mut stats = JoinStats::new(2);
        let set = build_run_set(&cx, &input, 10, Phase::Two, Phase::Three, &mut stats);
        let (lo, hi) = crate::tuple::key_range(&input).expect("non-empty");
        let histogram = compute_histogram(&input, &RadixDomain::from_range(lo, hi, 10));
        let widest = histogram.into_iter().max().expect("1 024 buckets");
        for w in 0..2 {
            let held = cx.scratch_held(w);
            assert!(held > 0, "worker {w} sorted through its scratch");
            assert!(held <= widest, "worker {w} holds {held} tuples, widest bucket {widest}");
            assert!(held * 100 < set.run(w).len(), "the scratch is no partition-sized buffer");
        }
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
