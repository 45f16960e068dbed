//! Worker orchestration: chunking, phase-parallel execution, and the
//! persistent worker pool.
//!
//! MPSM assigns every worker an equal share of each input and runs the
//! four phases as parallel sections separated by barriers (the paper
//! needs only *one* real synchronization point — public runs must exist
//! before the join phase; we realize phase boundaries structurally).
//!
//! Two execution primitives are provided:
//!
//! * [`run_parallel`] / [`run_parallel_timed`] — spawn fresh scoped
//!   threads per call. Simple, but a join that runs four phases pays
//!   four rounds of thread creation and teardown. Retained as the
//!   naive path for one-shot callers.
//! * [`WorkerPool`] — spawns each worker thread **once** and parks it
//!   between phases on a condvar. All three join variants route their
//!   parallel sections through a pool, so one join run creates each
//!   worker exactly once no matter how many phases it executes
//!   (commandment C3 still holds: workers synchronize only at phase
//!   boundaries, never inside one).
//! * [`SharedWorkerPool`] — a cloneable handle that lets **many
//!   concurrent owners** (e.g. the queries of
//!   `mpsm_exec`'s scheduler) submit phases to *one* underlying
//!   [`WorkerPool`]. Submissions are serialized through a fair FIFO
//!   turnstile, so different owners' phases interleave at phase
//!   granularity instead of one owner monopolizing the workers; every
//!   served phase carries a [`PhaseTag`] naming its owner.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpsm_numa::{CoreId, NodeId, Topology};

// ---------------------------------------------------------------------
// Worker → core → node placement
// ---------------------------------------------------------------------

/// The worker → core → node map of one execution: which (logical)
/// hardware context each pool worker is pinned to, and therefore which
/// NUMA node its local memory lives on.
///
/// On the real paper machine this would be `pthread_setaffinity_np`;
/// in the simulated substrate the placement is the ground truth the
/// access audit classifies against — a buffer is *local* to worker `w`
/// iff its home node equals `node_of(w)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPlacement {
    topology: Topology,
    cores: Vec<CoreId>,
}

impl WorkerPlacement {
    /// Pin `threads` workers round-robin across the machine's hardware
    /// contexts — worker `w` on context `w % total`. Because contexts
    /// are numbered round-robin over sockets (Figure 11), the first
    /// `nodes` workers land on distinct sockets and `threads = total
    /// contexts` covers the machine evenly; this is the scheduling the
    /// paper's scalability experiments use.
    pub fn round_robin(topology: Topology, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        let total = topology.total_contexts().max(1);
        let cores = (0..threads as u32).map(|w| CoreId(w % total)).collect();
        WorkerPlacement { topology, cores }
    }

    /// Pin every worker to contexts of a single `node` — the NUMA-affine
    /// placement a scheduler uses to keep one query's phases (and all
    /// its run storage) on one socket.
    ///
    /// # Panics
    /// Panics if `node` is outside the topology.
    pub fn on_node(topology: Topology, node: NodeId, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        assert!(node.0 < topology.nodes, "node {node} outside topology");
        // Contexts of node `n` are `n, n + nodes, n + 2·nodes, …`
        // (round-robin numbering); wrap within the node when the pool
        // is wider than one socket's contexts.
        let per_node = (topology.total_contexts() / topology.nodes).max(1);
        let cores =
            (0..threads as u32).map(|w| CoreId(node.0 + (w % per_node) * topology.nodes)).collect();
        WorkerPlacement { topology, cores }
    }

    /// Build from an explicit worker → core map.
    ///
    /// # Panics
    /// Panics if `cores` is empty or names a context outside the
    /// topology.
    pub fn from_cores(topology: Topology, cores: Vec<CoreId>) -> Self {
        assert!(!cores.is_empty(), "need at least one worker");
        for &c in &cores {
            assert!(c.0 < topology.total_contexts(), "core {c} outside topology");
        }
        WorkerPlacement { topology, cores }
    }

    /// The machine this placement maps onto.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of placed workers.
    pub fn threads(&self) -> usize {
        self.cores.len()
    }

    /// The hardware context worker `w` is pinned to.
    pub fn core_of(&self, worker: usize) -> CoreId {
        self.cores[worker]
    }

    /// The NUMA node worker `w`'s local memory lives on.
    pub fn node_of(&self, worker: usize) -> NodeId {
        self.topology.node_of(self.cores[worker])
    }

    /// The worker → core map, in worker order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// If every worker sits on the same node, that node.
    pub fn single_node(&self) -> Option<NodeId> {
        let first = self.node_of(0);
        (1..self.threads()).all(|w| self.node_of(w) == first).then_some(first)
    }
}

/// Split `len` items into `parts` contiguous ranges whose sizes differ
/// by at most one (the paper's "equally sized chunks").
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot chunk into zero parts");
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Run `f(worker_id)` on `threads` parallel workers, returning their
/// results in worker order. A `threads == 1` call runs inline (useful
/// for debugging and for the single-core baseline of Figure 13).
///
/// Spawns fresh OS threads on every call; phase-structured algorithms
/// should prefer a [`WorkerPool`].
pub fn run_parallel<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker");
    if threads == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let f = &f;
                scope.spawn(move || f(w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    })
}

/// Run `f(worker_id)`, additionally timing each worker. Returns
/// `(results, per-worker durations)`.
pub fn run_parallel_timed<R, F>(threads: usize, f: F) -> (Vec<R>, Vec<Duration>)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let pairs = run_parallel(threads, |w| {
        let start = Instant::now();
        let r = f(w);
        (r, start.elapsed())
    });
    pairs.into_iter().unzip()
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// Type-erased pointer to the current phase closure. Only dereferenced
/// by workers between the epoch bump and the final `remaining`
/// decrement of that epoch; [`WorkerPool::run`] keeps the closure alive
/// (and does not return) until every worker has finished, so the
/// erased lifetime never outlives the borrow.
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and the pool's barrier protocol
// guarantees it outlives every use (see `Job` docs).
unsafe impl Send for Job {}

/// Identifies one phase served by a [`SharedWorkerPool`]: which owner
/// submitted it and its position in the pool's global service order —
/// the tag that generalizes the pool's single-owner epoch barrier to
/// multi-owner submission. Owners are handed distinct ids by their
/// scheduler (see [`SharedWorkerPool::with_owner`]); the default
/// handle submits as owner `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTag {
    /// Caller-chosen owner id (`0` = untagged / exclusive use).
    pub owner: u64,
    /// Serial number of the phase on the serving pool (1-based).
    pub seq: u64,
}

struct PoolState {
    /// Incremented once per submitted phase; workers wake on a change.
    epoch: u64,
    /// The phase closure of the current epoch.
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// Set when any worker's closure panicked during this epoch.
    panicked: bool,
    /// Tells parked workers to exit.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work_cv: Condvar,
    /// `run` parks here until `remaining` drops to zero.
    done_cv: Condvar,
}

/// Per-worker result slots. Worker `w` writes only slot `w`, and the
/// caller reads only after the phase barrier, so no per-slot locking
/// is needed.
struct Slots<R>(Vec<std::cell::UnsafeCell<Option<R>>>);
// SAFETY: disjoint index access per worker; reads happen only after
// all writers finished (enforced by the pool's done barrier).
unsafe impl<R: Send> Sync for Slots<R> {}

/// A pool of `threads` worker threads that parks between phases
/// instead of being re-spawned per parallel section.
///
/// [`WorkerPool::run`] has the same contract as [`run_parallel`] —
/// `f(worker_id)` on every worker, results in worker order, panics
/// propagated — but amortizes thread creation over the whole join. A
/// 1-thread pool spawns no OS thread at all and runs phases inline
/// (the single-core baseline of Figure 13 stays allocation-free).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawn a pool of `threads` parked workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = if threads == 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(w, &shared))
                })
                .collect()
        };
        WorkerPool { shared, handles, threads }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one phase: `f(worker_id)` on every worker, returning results
    /// in worker order. Blocks until the whole phase finished (the
    /// phase boundary barrier). `&mut self` serializes phases at
    /// compile time — the pool runs one phase at a time by design.
    ///
    /// ```
    /// use mpsm_core::worker::WorkerPool;
    ///
    /// let mut pool = WorkerPool::new(4);
    /// // Phase 1: every worker computes its share.
    /// let squares = pool.run(|w| (w as u64) * (w as u64));
    /// assert_eq!(squares, vec![0, 1, 4, 9]);
    /// // Phase 2 reuses the same parked threads — no respawn.
    /// let sum: u64 = pool.run(|w| w as u64).iter().sum();
    /// assert_eq!(sum, 6);
    /// ```
    pub fn run<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 {
            // Inline mode: no workers, no locks — the single-core
            // baseline of Figure 13 stays synchronization-free.
            return vec![f(0)];
        }
        let slots = Slots((0..self.threads).map(|_| std::cell::UnsafeCell::new(None)).collect());
        {
            let slots = &slots;
            let f = &f;
            let call = move |w: usize| {
                let r = f(w);
                // SAFETY: worker `w` owns slot `w` for this phase.
                unsafe { *slots.0[w].get() = Some(r) };
            };
            let job: &(dyn Fn(usize) + Sync) = &call;
            // SAFETY: lifetime erasure only — `run` blocks until every
            // worker finished with the pointer (see `Job` docs).
            let job: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.job = Some(Job(job));
            st.remaining = self.threads;
            st.panicked = false;
            st.epoch += 1;
            drop(st);
            self.shared.work_cv.notify_all();

            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            if st.panicked {
                // Mirror run_parallel's message so callers see one
                // failure mode regardless of the execution primitive.
                drop(st);
                panic!("worker thread panicked");
            }
        }
        slots
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("every worker must produce a result"))
            .collect()
    }

    /// Like [`WorkerPool::run`], additionally timing each worker.
    pub fn run_timed<R, F>(&mut self, f: F) -> (Vec<R>, Vec<Duration>)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let pairs = self.run(|w| {
            let start = Instant::now();
            let r = f(w);
            (r, start.elapsed())
        });
        pairs.into_iter().unzip()
    }

    /// Convert this exclusive pool into a [`SharedWorkerPool`] handle
    /// that many concurrent owners can submit phases to.
    pub fn into_shared(self) -> SharedWorkerPool {
        SharedWorkerPool::from_pool(self)
    }
}

// ---------------------------------------------------------------------
// Shared pool: many owners, one set of workers
// ---------------------------------------------------------------------

/// FIFO turnstile serializing phase submissions from many owners.
struct Turnstile {
    /// `(tickets handed out, tickets fully served)`.
    turn: Mutex<(u64, u64)>,
    cv: Condvar,
}

impl Turnstile {
    /// Draw a ticket and block until it is up. Returns the ticket
    /// number (the global phase sequence number on this pool).
    fn acquire(&self) -> u64 {
        let mut turn = self.turn.lock().expect("turnstile poisoned");
        let my = turn.0;
        turn.0 += 1;
        while turn.1 != my {
            turn = self.cv.wait(turn).expect("turnstile poisoned");
        }
        my
    }

    fn release(&self) {
        let mut turn = self.turn.lock().expect("turnstile poisoned");
        turn.1 += 1;
        drop(turn);
        self.cv.notify_all();
    }
}

/// Releases the turnstile even if the phase closure panicked, so one
/// owner's failing query cannot wedge every other owner of the pool.
struct TurnstileGuard<'a>(&'a Turnstile);

impl Drop for TurnstileGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

struct SharedPoolInner {
    /// The workers. Uncontended by construction: the turnstile admits
    /// one phase at a time, so this lock never blocks. Poisoning is
    /// deliberately ignored — a panicking phase already reported its
    /// failure to its own submitter, and the pool itself survives
    /// worker panics (see `pool_propagates_worker_panics`).
    pool: Mutex<WorkerPool>,
    turnstile: Turnstile,
    /// Tag trace of served phases, when enabled (test / EXPLAIN aid).
    trace: Mutex<Option<Vec<PhaseTag>>>,
    threads: usize,
}

/// A cloneable handle submitting phases from **many concurrent owners**
/// to one [`WorkerPool`].
///
/// This is the substrate of multi-query scheduling: every clone of the
/// handle may call [`SharedWorkerPool::run`] from its own thread, and
/// the pool serves the submissions one phase at a time in FIFO arrival
/// order. Because MPSM joins are sequences of short phases, waiting
/// owners are admitted between a competitor's phases — queries
/// *interleave* on the shared workers instead of monopolizing them
/// (and the machine is never oversubscribed, however many queries are
/// in flight).
///
/// ```
/// use mpsm_core::worker::SharedWorkerPool;
///
/// let pool = SharedWorkerPool::new(4);
/// let query_a = pool.with_owner(1);
/// let query_b = pool.with_owner(2);
/// // Both handles drive the same 4 workers; phases are serialized
/// // through a fair FIFO turnstile.
/// let a: Vec<usize> = query_a.run(|w| w + 1);
/// let b: Vec<usize> = query_b.run(|w| w * 2);
/// assert_eq!(a, vec![1, 2, 3, 4]);
/// assert_eq!(b, vec![0, 2, 4, 6]);
/// assert_eq!(pool.phases_served(), 2);
/// ```
pub struct SharedWorkerPool {
    inner: Arc<SharedPoolInner>,
    owner: u64,
}

impl std::fmt::Debug for SharedWorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWorkerPool")
            .field("threads", &self.inner.threads)
            .field("owner", &self.owner)
            .finish_non_exhaustive()
    }
}

impl Clone for SharedWorkerPool {
    fn clone(&self) -> Self {
        SharedWorkerPool { inner: Arc::clone(&self.inner), owner: self.owner }
    }
}

impl SharedWorkerPool {
    /// Spawn `threads` workers behind a fresh shared handle (owner 0).
    pub fn new(threads: usize) -> Self {
        Self::from_pool(WorkerPool::new(threads))
    }

    /// Wrap an existing pool.
    pub fn from_pool(pool: WorkerPool) -> Self {
        let threads = pool.threads();
        SharedWorkerPool {
            inner: Arc::new(SharedPoolInner {
                pool: Mutex::new(pool),
                turnstile: Turnstile { turn: Mutex::new((0, 0)), cv: Condvar::new() },
                trace: Mutex::new(None),
                threads,
            }),
            owner: 0,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// A handle submitting phases under `owner`'s id — same workers,
    /// same turnstile; only the [`PhaseTag`]s differ. Schedulers hand
    /// one owner id per query so served phases are attributable.
    pub fn with_owner(&self, owner: u64) -> SharedWorkerPool {
        SharedWorkerPool { inner: Arc::clone(&self.inner), owner }
    }

    /// This handle's owner id.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Run one phase on the shared workers: `f(worker_id)` on every
    /// worker, results in worker order, panics propagated to *this*
    /// submitter only. Blocks while competitors' already-queued phases
    /// are served (FIFO).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let seq = self.inner.turnstile.acquire();
        let _guard = TurnstileGuard(&self.inner.turnstile);
        if let Some(trace) = self.inner.trace.lock().expect("trace poisoned").as_mut() {
            trace.push(PhaseTag { owner: self.owner, seq: seq + 1 });
        }
        // Uncontended (the turnstile admitted us); ignore poisoning —
        // the pool survives worker panics by design.
        let mut pool = match self.inner.pool.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.run(f)
    }

    /// Like [`SharedWorkerPool::run`], additionally timing each worker
    /// (one turnstile admission for the whole phase).
    pub fn run_timed<R, F>(&self, f: F) -> (Vec<R>, Vec<Duration>)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let pairs = self.run(|w| {
            let start = Instant::now();
            let r = f(w);
            (r, start.elapsed())
        });
        pairs.into_iter().unzip()
    }

    /// Phases fully served so far.
    pub fn phases_served(&self) -> u64 {
        self.inner.turnstile.turn.lock().expect("turnstile poisoned").1
    }

    /// Phases currently admitted or waiting at the turnstile.
    pub fn pending_phases(&self) -> u64 {
        let turn = self.inner.turnstile.turn.lock().expect("turnstile poisoned");
        turn.0 - turn.1
    }

    /// Start recording a [`PhaseTag`] per served phase (drops any
    /// previous trace).
    pub fn enable_phase_trace(&self) {
        *self.inner.trace.lock().expect("trace poisoned") = Some(Vec::new());
    }

    /// Stop tracing and return the recorded tags in service order.
    pub fn take_phase_trace(&self) -> Vec<PhaseTag> {
        self.inner.trace.lock().expect("trace poisoned").take().unwrap_or_default()
    }
}

/// Take-once cells handing *owned* per-worker values through a pool
/// phase: [`WorkerPool::run`] takes a `Fn` closure (every worker shares
/// it), so moving a distinct owned input into each worker goes through
/// one of these — worker `w` calls [`OwnedSlots::take`]`(w)` exactly
/// once.
pub struct OwnedSlots<T>(Vec<Mutex<Option<T>>>);

impl<T> OwnedSlots<T> {
    /// Wrap one slot per item, in order.
    pub fn new(items: impl IntoIterator<Item = T>) -> Self {
        OwnedSlots(items.into_iter().map(|v| Mutex::new(Some(v))).collect())
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Take slot `w`'s value. Panics if it was already taken — each
    /// slot belongs to exactly one worker for exactly one phase.
    pub fn take(&self, w: usize) -> T {
        self.0[w].lock().expect("slot poisoned").take().expect("slot taken twice")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = match self.shared.state.lock() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(w: usize, shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            while !st.shutdown && st.epoch == seen_epoch {
                st = shared.work_cv.wait(st).expect("pool state poisoned");
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.as_ref().expect("epoch bumped without a job").0
        };
        // SAFETY: `run` keeps the closure alive until `remaining`
        // reaches zero, which happens strictly after this call.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(w) }));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if outcome.is_err() {
            // The default panic hook already printed the payload on this
            // worker's stderr; the caller re-panics with the same uniform
            // message `run_parallel` uses.
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_without_overlap() {
        for len in [0usize, 1, 7, 100, 101, 103] {
            for parts in [1usize, 2, 3, 7, 32] {
                let ranges = chunk_ranges(len, parts);
                assert_eq!(ranges.len(), parts);
                let mut pos = 0;
                for r in &ranges {
                    assert_eq!(r.start, pos);
                    pos = r.end;
                }
                assert_eq!(pos, len);
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let ranges = chunk_ranges(10, 4);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn more_parts_than_items_yields_empty_chunks() {
        let ranges = chunk_ranges(2, 5);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn parallel_results_arrive_in_worker_order() {
        let out = run_parallel(8, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = run_parallel(1, |w| w + 1);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn timed_variant_reports_durations() {
        let (out, times) = run_parallel_timed(4, |w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(times.len(), 4);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let _ = chunk_ranges(10, 0);
    }

    // ---- pool ----

    #[test]
    fn pool_results_arrive_in_worker_order() {
        let mut pool = WorkerPool::new(8);
        let out = pool.run(|w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn pool_reuses_the_same_threads_across_phases() {
        let mut pool = WorkerPool::new(4);
        let ids_a = pool.run(|_| std::thread::current().id());
        let ids_b = pool.run(|_| std::thread::current().id());
        let ids_c = pool.run(|_| std::thread::current().id());
        assert_eq!(ids_a, ids_b, "phase 2 must run on the same parked workers");
        assert_eq!(ids_b, ids_c, "phase 3 must run on the same parked workers");
        let distinct: std::collections::HashSet<_> = ids_a.iter().collect();
        assert_eq!(distinct.len(), 4, "each worker is its own thread");
    }

    #[test]
    fn pool_phases_can_borrow_local_state() {
        let data: Vec<u64> = (0..1000).collect();
        let mut pool = WorkerPool::new(3);
        let ranges = chunk_ranges(data.len(), 3);
        let sums = pool.run(|w| data[ranges[w].clone()].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 1000 * 999 / 2);
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let mut pool = WorkerPool::new(1);
        let here = std::thread::current().id();
        let ids = pool.run(|_| std::thread::current().id());
        assert_eq!(ids, vec![here]);
    }

    #[test]
    fn pool_timed_reports_durations() {
        let mut pool = WorkerPool::new(4);
        let (out, times) = pool.run_timed(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn pool_runs_many_phases_without_respawning() {
        let mut pool = WorkerPool::new(4);
        let mut total = 0usize;
        for phase in 0..32 {
            total += pool.run(|w| w + phase).iter().sum::<usize>();
        }
        assert_eq!(total, (0..32).map(|p| 4 * p + 6).sum::<usize>());
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let mut pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 2 {
                    panic!("boom");
                }
                w
            })
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // The pool stays usable after a propagated panic.
        let out = pool.run(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_thread_pool_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn shared_pool_counts_phases_across_widths() {
        for threads in [1, 4] {
            let pool = SharedWorkerPool::new(threads);
            for _ in 0..3 {
                pool.run(|w| w);
            }
            assert_eq!(pool.phases_served(), 3, "threads = {threads}");
        }
    }

    // ---- shared pool ----

    #[test]
    fn shared_pool_serves_one_owner_like_an_exclusive_pool() {
        let pool = SharedWorkerPool::new(4);
        let out = pool.run(|w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
        let (out, times) = pool.run_timed(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(times.len(), 4);
        assert_eq!(pool.phases_served(), 2);
    }

    #[test]
    fn shared_pool_runs_submissions_from_many_threads() {
        let pool = SharedWorkerPool::new(3);
        let totals: Vec<u64> = std::thread::scope(|scope| {
            (0..8u64)
                .map(|owner| {
                    let handle = pool.with_owner(owner + 1);
                    scope.spawn(move || {
                        (0..4)
                            .map(|phase| {
                                handle
                                    .run(|w| owner * 100 + phase * 10 + w as u64)
                                    .iter()
                                    .sum::<u64>()
                            })
                            .sum::<u64>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("submitter panicked"))
                .collect()
        });
        for (owner, total) in totals.iter().enumerate() {
            let o = owner as u64;
            // 4 phases × 3 workers: Σ (o·100 + p·10 + w).
            let expected: u64 = (0..4).map(|p| 3 * (o * 100 + p * 10) + 3).sum();
            assert_eq!(*total, expected, "owner {owner}");
        }
        assert_eq!(pool.phases_served(), 8 * 4);
    }

    #[test]
    fn shared_pool_underlies_all_clones() {
        let pool = SharedWorkerPool::new(4);
        let ids_a = pool.run(|_| std::thread::current().id());
        let ids_b = pool.with_owner(7).run(|_| std::thread::current().id());
        assert_eq!(ids_a, ids_b, "clones must drive the same workers");
    }

    #[test]
    fn shared_pool_turnstile_is_fifo() {
        // Owner 1 runs a phase during which owner 2 queues up; owner 1
        // immediately requests another phase. FIFO admission guarantees
        // the trace [1, 2, 1].
        let pool = SharedWorkerPool::new(2);
        pool.enable_phase_trace();
        let a = pool.with_owner(1);
        let b = pool.with_owner(2);
        std::thread::scope(|scope| {
            let b_thread = {
                let pool = pool.clone();
                let b = b.clone();
                scope.spawn(move || {
                    // Wait until owner 1's first phase is admitted.
                    while pool.pending_phases() == 0 {
                        std::thread::yield_now();
                    }
                    b.run(|_| ());
                })
            };
            a.run(|w| {
                if w == 0 {
                    // Hold the phase until owner 2 is queued behind us.
                    while pool.pending_phases() < 2 {
                        std::thread::yield_now();
                    }
                }
            });
            a.run(|_| ());
            b_thread.join().expect("owner 2 panicked");
        });
        let owners: Vec<u64> = pool.take_phase_trace().iter().map(|t| t.owner).collect();
        assert_eq!(owners, vec![1, 2, 1], "waiting owner must be admitted between phases");
    }

    #[test]
    fn shared_pool_isolates_a_panicking_owner() {
        let pool = SharedWorkerPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 1 {
                    panic!("query gone wrong");
                }
            })
        }));
        assert!(caught.is_err(), "panic must reach the submitting owner");
        // Other owners continue on the same pool.
        let out = pool.with_owner(9).run(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(pool.phases_served(), 2, "panicked phase still releases the turnstile");
    }

    #[test]
    fn shared_pool_trace_records_owner_and_sequence() {
        let pool = SharedWorkerPool::new(1);
        pool.enable_phase_trace();
        pool.with_owner(3).run(|_| ());
        pool.with_owner(5).run(|_| ());
        let trace = pool.take_phase_trace();
        assert_eq!(trace, vec![PhaseTag { owner: 3, seq: 1 }, PhaseTag { owner: 5, seq: 2 }]);
        assert!(pool.take_phase_trace().is_empty(), "trace is take-once");
    }

    #[test]
    fn exclusive_pool_converts_into_shared() {
        let pool = WorkerPool::new(2).into_shared();
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.run(|w| w), vec![0, 1]);
    }

    // ---- placement ----

    #[test]
    fn paper_machine_placement_round_robins_across_sockets() {
        // Figure 11: contexts are numbered round-robin over the four
        // sockets, so workers 0..4 land on nodes 0, 1, 2, 3 and the
        // pattern repeats every `nodes` workers.
        let p = WorkerPlacement::round_robin(Topology::paper_machine(), 32);
        for w in 0..32 {
            assert_eq!(p.node_of(w), NodeId(w as u32 % 4), "worker {w}");
            assert_eq!(p.core_of(w), CoreId(w as u32));
        }
        assert_eq!(p.single_node(), None, "32 workers span all four sockets");
        // Exactly 8 workers per node.
        for n in 0..4u32 {
            let count = (0..32).filter(|&w| p.node_of(w) == NodeId(n)).count();
            assert_eq!(count, 8, "node {n}");
        }
    }

    #[test]
    fn round_robin_wraps_beyond_the_machine() {
        let p = WorkerPlacement::round_robin(Topology::flat(2), 5);
        assert_eq!(p.threads(), 5);
        assert_eq!(p.core_of(4), CoreId(0), "worker 4 wraps to context 0");
        assert_eq!(p.single_node(), Some(NodeId(0)));
    }

    #[test]
    fn on_node_placement_stays_on_one_socket() {
        let topo = Topology::paper_machine();
        for n in 0..4u32 {
            let p = WorkerPlacement::on_node(topo.clone(), NodeId(n), 12);
            assert_eq!(p.single_node(), Some(NodeId(n)));
            for w in 0..12 {
                assert_eq!(p.node_of(w), NodeId(n), "node {n} worker {w}");
                assert!(p.core_of(w).0 < topo.total_contexts());
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn on_node_rejects_unknown_node() {
        let _ = WorkerPlacement::on_node(Topology::flat(4), NodeId(1), 2);
    }

    #[test]
    fn explicit_core_map_is_respected() {
        let topo = Topology::paper_machine();
        let p = WorkerPlacement::from_cores(topo, vec![CoreId(5), CoreId(1)]);
        assert_eq!(p.node_of(0), NodeId(1), "context 5 sits on socket 1");
        assert_eq!(p.node_of(1), NodeId(1));
        assert_eq!(p.single_node(), Some(NodeId(1)));
    }
}
