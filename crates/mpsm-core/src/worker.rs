//! Worker orchestration: chunking, phase-parallel execution, and the
//! persistent worker pool.
//!
//! MPSM assigns every worker an equal share of each input and runs the
//! four phases as parallel sections separated by barriers (the paper
//! needs only *one* real synchronization point — public runs must exist
//! before the join phase; we realize phase boundaries structurally).
//!
//! There is one execution primitive: [`SharedWorkerPool::run`] — "run
//! `f(w)` on `T` workers, barrier". Each worker thread is spawned
//! **once** and parked on a condvar between phases, so a join creates
//! no thread however many phases it executes, and workers synchronize
//! only at phase boundaries, never inside one (commandment C3). The
//! pool is a cloneable handle: many concurrent owners (the queries of
//! `mpsm_exec`'s scheduler) submit phases to the same workers through
//! a fair FIFO turnstile, so their phases interleave at phase
//! granularity instead of one owner monopolizing the machine. The
//! phase closure reaches the workers as a lifetime-erased pointer; its
//! safety rests on `run` holding the turnstile from before the pointer
//! is published until every worker has finished with it, on the return
//! and the unwind path alike — no second submitter can publish while a
//! borrow is live, and no borrow ends while a worker can still see it.

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

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

/// Type-erased pointer to the current phase closure. Only dereferenced
/// by workers between the epoch bump and the final `remaining`
/// decrement of that epoch. [`SharedWorkerPool::run`] keeps the closure
/// alive (and does not return or unwind) until every worker has
/// finished, and it holds the turnstile for exactly that span — so the
/// erased lifetime never outlives the borrow, and no second submitter
/// can publish its own pointer while this one is still in use.
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, and the turnstile-guarded barrier
// protocol guarantees it outlives every use (see `Job` docs).
unsafe impl Send for Job {}

struct PoolState {
    /// Incremented once per submitted phase; workers wake on a change.
    epoch: u64,
    /// The phase closure of the current epoch.
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// Tells parked workers to exit.
    shutdown: bool,
}

/// What the parked worker threads share with the submitters. Kept
/// apart from [`PoolCore`] so the workers' references do not keep the
/// join handles (and therefore themselves) alive.
struct PoolSync {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work_cv: Condvar,
    /// `run` parks here until `remaining` drops to zero.
    done_cv: Condvar,
}

/// FIFO turnstile serializing phase submissions from many owners.
struct Turnstile {
    /// `(tickets handed out, tickets fully served)`.
    turn: Mutex<(u64, u64)>,
    cv: Condvar,
}

impl Turnstile {
    /// Draw a ticket and block until it is up.
    fn acquire(&self) {
        let mut turn = self.turn.lock().expect("turnstile poisoned");
        let my = turn.0;
        turn.0 += 1;
        while turn.1 != my {
            turn = self.cv.wait(turn).expect("turnstile poisoned");
        }
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

struct PoolCore {
    sync: Arc<PoolSync>,
    /// Empty for a 1-thread pool, which runs phases inline.
    handles: Vec<std::thread::JoinHandle<()>>,
    turnstile: Turnstile,
    threads: usize,
}

/// The one runner: `threads` worker threads, spawned **once** and
/// parked between phases, behind a cloneable handle that **many
/// concurrent owners** submit phases to.
///
/// [`SharedWorkerPool::run`] is the whole execution model of the
/// workspace — `f(worker_id)` on every worker, results in worker
/// order, barrier. Every clone of the handle may call it from its own
/// thread, and the pool serves the submissions one phase at a time in
/// FIFO arrival order. Because MPSM joins are sequences of short
/// phases, waiting owners are admitted between a competitor's phases —
/// queries *interleave* on the shared workers instead of monopolizing
/// them (and the machine is never oversubscribed, however many queries
/// are in flight). A 1-thread pool spawns no OS thread at all and runs
/// phases inline on the submitter (the single-core baseline of
/// Figure 13).
///
/// ```
/// use mpsm_core::worker::SharedWorkerPool;
///
/// let pool = SharedWorkerPool::new(4);
/// let query_a = pool.clone();
/// let query_b = pool.clone();
/// // Both handles drive the same 4 workers; phases are serialized
/// // through a fair FIFO turnstile.
/// let a: Vec<usize> = query_a.run(|w| w + 1);
/// let b: Vec<usize> = query_b.run(|w| w * 2);
/// assert_eq!(a, vec![1, 2, 3, 4]);
/// assert_eq!(b, vec![0, 2, 4, 6]);
/// assert_eq!(pool.phases_served(), 2);
/// ```
#[derive(Clone)]
pub struct SharedWorkerPool {
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for SharedWorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWorkerPool")
            .field("threads", &self.core.threads)
            .finish_non_exhaustive()
    }
}

impl SharedWorkerPool {
    /// Spawn `threads` parked workers behind a fresh handle.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        let sync = Arc::new(PoolSync {
            state: Mutex::new(PoolState { epoch: 0, job: None, remaining: 0, shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = if threads == 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|w| {
                    let sync = Arc::clone(&sync);
                    std::thread::spawn(move || worker_loop(w, &sync))
                })
                .collect()
        };
        let turnstile = Turnstile { turn: Mutex::new((0, 0)), cv: Condvar::new() };
        SharedWorkerPool { core: Arc::new(PoolCore { sync, handles, turnstile, threads }) }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Run one phase: `f(worker_id)` on every worker, results in worker
    /// order, panics propagated to *this* submitter only. Blocks while
    /// competitors' already-queued phases are served (FIFO) and then
    /// until the whole phase finished (the phase boundary barrier).
    ///
    /// ```
    /// use mpsm_core::worker::SharedWorkerPool;
    ///
    /// let pool = SharedWorkerPool::new(4);
    /// // Phase 1: every worker computes its share.
    /// let squares = pool.run(|w| (w as u64) * (w as u64));
    /// assert_eq!(squares, vec![0, 1, 4, 9]);
    /// // Phase 2 reuses the same parked threads — no respawn.
    /// let sum: u64 = pool.run(|w| w as u64).iter().sum();
    /// assert_eq!(sum, 6);
    /// ```
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let core = &*self.core;
        core.turnstile.acquire();
        // Declared before anything a worker can see, so it is released
        // last — after `remaining == 0` on the return *and* the unwind
        // path. That ordering is the only thing keeping two owners'
        // erased `Job` pointers apart.
        let _turn = TurnstileGuard(&core.turnstile);
        if core.threads == 1 {
            // Inline mode: no workers — the single-core baseline of
            // Figure 13 pays for the turnstile and nothing else.
            return vec![f(0)];
        }
        let results = OwnedSlots::empty(core.threads);
        {
            let results = &results;
            let f = &f;
            let call = move |w: usize| results.put(w, f(w));
            let job: &(dyn Fn(usize) + Sync) = &call;
            // SAFETY: lifetime erasure only — `run` holds the turnstile
            // and blocks until every worker finished with the pointer
            // (see `Job` docs).
            let job: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            let mut st = core.sync.state.lock().expect("pool state poisoned");
            st.job = Some(Job(job));
            st.remaining = core.threads;
            st.epoch += 1;
            drop(st);
            core.sync.work_cv.notify_all();

            let mut st = core.sync.state.lock().expect("pool state poisoned");
            while st.remaining > 0 {
                st = core.sync.done_cv.wait(st).expect("pool state poisoned");
            }
            st.job = None;
        }
        // A worker whose closure panicked left its slot empty. One
        // uniform message, whichever worker failed; the pool itself
        // survives and serves the next phase.
        results.into_values().unwrap_or_else(|| panic!("worker thread panicked"))
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
        self.core.turnstile.turn.lock().expect("turnstile poisoned").1
    }

    /// Phases currently admitted or waiting at the turnstile.
    pub fn pending_phases(&self) -> u64 {
        let turn = self.core.turnstile.turn.lock().expect("turnstile poisoned");
        turn.0 - turn.1
    }
}

/// One cell per worker handing *owned* values through a pool phase, in
/// both directions: [`SharedWorkerPool::run`] takes a `Fn` closure
/// (every worker shares it), so moving a distinct owned input into each
/// worker goes through one of these — worker `w` calls
/// [`OwnedSlots::take`]`(w)` exactly once — and `run` itself collects
/// each worker's result through one, worker `w` filling slot `w`.
pub struct OwnedSlots<T>(Vec<Mutex<Option<T>>>);

impl<T> OwnedSlots<T> {
    /// Wrap one slot per item, in order.
    pub fn new(items: impl IntoIterator<Item = T>) -> Self {
        OwnedSlots(items.into_iter().map(|v| Mutex::new(Some(v))).collect())
    }

    /// `n` unfilled slots, for workers to [`OwnedSlots::put`] into.
    pub(crate) fn empty(n: usize) -> Self {
        OwnedSlots((0..n).map(|_| Mutex::new(None)).collect())
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

    /// Fill slot `w` (worker `w`'s result for this phase).
    pub(crate) fn put(&self, w: usize, value: T) {
        *self.0[w].lock().expect("slot poisoned") = Some(value);
    }

    /// Every slot's value in slot order, or `None` if any is empty.
    pub(crate) fn into_values(self) -> Option<Vec<T>> {
        self.0.into_iter().map(|slot| slot.into_inner().expect("slot poisoned")).collect()
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut st = match self.sync.state.lock() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.shutdown = true;
        }
        self.sync.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(w: usize, sync: &PoolSync) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = sync.state.lock().expect("pool state poisoned");
            while !st.shutdown && st.epoch == seen_epoch {
                st = sync.work_cv.wait(st).expect("pool state poisoned");
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.as_ref().expect("epoch bumped without a job").0
        };
        // A panic leaves this worker's result slot empty, which is how
        // the submitter learns of it; the default panic hook already
        // printed the payload on this worker's stderr.
        // SAFETY: the submitter keeps the closure alive, and holds the
        // turnstile so nobody replaces it, until `remaining` reaches
        // zero — which happens strictly after this call.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(w) }));
        let mut st = sync.state.lock().expect("pool state poisoned");
        st.remaining -= 1;
        if st.remaining == 0 {
            sync.done_cv.notify_all();
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
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let _ = chunk_ranges(10, 0);
    }

    // ---- the pool's contract ----

    #[test]
    fn pool_results_arrive_in_worker_order() {
        let pool = SharedWorkerPool::new(8);
        let out = pool.run(|w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn pool_reuses_the_same_threads_across_phases() {
        let pool = SharedWorkerPool::new(4);
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
        let pool = SharedWorkerPool::new(3);
        let ranges = chunk_ranges(data.len(), 3);
        let sums = pool.run(|w| data[ranges[w].clone()].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 1000 * 999 / 2);
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = SharedWorkerPool::new(1);
        let here = std::thread::current().id();
        let ids = pool.run(|_| std::thread::current().id());
        assert_eq!(ids, vec![here]);
    }

    #[test]
    fn pool_timed_reports_durations() {
        let pool = SharedWorkerPool::new(4);
        let (out, times) = pool.run_timed(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(times.len(), 4);
        assert_eq!(pool.phases_served(), 1, "one admission for the whole timed phase");
    }

    #[test]
    fn pool_runs_many_phases_without_respawning() {
        let pool = SharedWorkerPool::new(4);
        let mut total = 0usize;
        for phase in 0..32 {
            total += pool.run(|w| w + phase).iter().sum::<usize>();
        }
        assert_eq!(total, (0..32).map(|p| 4 * p + 6).sum::<usize>());
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = SharedWorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 2 {
                    panic!("boom");
                }
                w
            })
        }));
        // One uniform message, whichever worker failed with whatever
        // payload (the scheduler reports it to the query's ticket).
        let payload = caught.expect_err("panic must propagate to the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker thread panicked"));
        // The pool stays usable after a propagated panic.
        assert_eq!(pool.run(|w| w), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_thread_pool_panics() {
        let _ = SharedWorkerPool::new(0);
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

    #[test]
    fn shared_pool_runs_submissions_from_many_threads() {
        let pool = SharedWorkerPool::new(3);
        let totals: Vec<u64> = std::thread::scope(|scope| {
            (0..8u64)
                .map(|owner| {
                    let handle = pool.clone();
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
        let ids_b = pool.clone().run(|_| std::thread::current().id());
        assert_eq!(ids_a, ids_b, "clones must drive the same workers");
    }

    #[test]
    fn shared_pool_turnstile_is_fifo() {
        // Owner 1 runs a phase during which owner 2 queues up; owner 1
        // immediately requests another phase. FIFO admission guarantees
        // the service order [1, 2, 1], recorded by the phases themselves.
        let pool = SharedWorkerPool::new(2);
        let order = Mutex::new(Vec::new());
        let record = |owner: u64, w: usize| {
            if w == 0 {
                order.lock().expect("order poisoned").push(owner);
            }
        };
        std::thread::scope(|scope| {
            let b_thread = scope.spawn(|| {
                // Wait until owner 1's first phase is admitted.
                while pool.pending_phases() == 0 {
                    std::thread::yield_now();
                }
                pool.run(|w| record(2, w));
            });
            pool.run(|w| {
                record(1, w);
                if w == 0 {
                    // Hold the phase until owner 2 is queued behind us.
                    while pool.pending_phases() < 2 {
                        std::thread::yield_now();
                    }
                }
            });
            pool.run(|w| record(1, w));
            b_thread.join().expect("owner 2 panicked");
        });
        let order = order.into_inner().expect("order poisoned");
        assert_eq!(order, vec![1, 2, 1], "waiting owner must be admitted between phases");
    }

    #[test]
    fn shared_pool_isolates_a_panicking_owner() {
        let pool = SharedWorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 1 {
                    panic!("query gone wrong");
                }
            })
        }));
        assert!(caught.is_err(), "panic must reach the submitting owner");
        // Other owners continue on the same pool.
        let out = pool.clone().run(|w| w);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(pool.phases_served(), 2, "panicked phase still releases the turnstile");
    }

    #[test]
    fn interleaved_owners_never_see_each_others_borrows() {
        // The interleaving that would expose a `Job` pointer outliving
        // its borrow: four owners race 200 phases each, every phase
        // borrowing a buffer that lives on its submitter's stack for
        // that phase only, while owner 0 panics out of every 7th phase
        // (the unwind path must hold the turnstile to the barrier too).
        const OWNERS: u64 = 4;
        const PHASES: u64 = 200;
        let pool = SharedWorkerPool::new(3);
        std::thread::scope(|scope| {
            for owner in 0..OWNERS {
                let pool = pool.clone();
                scope.spawn(move || {
                    for phase in 0..PHASES {
                        let stamp = owner * PHASES + phase;
                        let buffer = [stamp; 32];
                        let doomed = owner == 0 && phase % 7 == 6;
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            pool.run(|w| {
                                if doomed && w == 1 {
                                    panic!("phase {stamp} gone wrong");
                                }
                                std::hint::black_box(&buffer).iter().sum::<u64>()
                            })
                        }));
                        match outcome {
                            Ok(sums) => {
                                assert!(!doomed, "phase {stamp} must have panicked");
                                assert_eq!(sums, vec![32 * stamp; 3], "phase {stamp}");
                            }
                            Err(_) => assert!(doomed, "phase {stamp} panicked unprovoked"),
                        }
                    }
                });
            }
        });
        assert_eq!(pool.phases_served(), OWNERS * PHASES);
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
