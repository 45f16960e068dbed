//! The concurrent query scheduler: many paper queries, one shared
//! worker pool.
//!
//! The MPSM paper assumes a join owns the whole machine; a system
//! serving many clients cannot — concurrent callers of
//! [`paper_query`](crate::query::paper_query) would each spawn their
//! own workers and oversubscribe every core. The scheduler inverts
//! that: it provisions **one** [`SharedWorkerPool`] and admits
//! queries against it.
//!
//! * **Degrade, don't reject** — [`Scheduler::submit`] makes the whole
//!   admission decision under the one queue lock. At most
//!   `max_in_flight` queries execute concurrently and up to
//!   `queue_capacity` more wait at full service; beyond that, admission
//!   *degrades* instead of rejecting: an overflow query (or the
//!   youngest queued query of a strictly lower [`Priority`] class, when
//!   the arrival outranks it) is admitted with a forced tight anytime
//!   budget, so it returns a coverage-stamped partial answer instead of
//!   an error.
//! * **Phase-granular fairness** — an executing query submits its
//!   selections and join phases to the shared pool one at a time; the
//!   pool's FIFO turnstile admits competitors between those phases, so
//!   a large query cannot monopolize the workers while a small one
//!   starves.
//! * **Asynchronous results** — [`Scheduler::submit`] returns a
//!   [`QueryTicket`] immediately; poll it with [`QueryTicket::status`]
//!   / [`QueryTicket::try_result`] or block on [`QueryTicket::wait`].
//! * **Isolation** — a query whose predicate (or join phase) panics
//!   fails only its own ticket ([`QueryError::Panicked`]); the pool,
//!   the coordinators, and every other in-flight query keep running.
//! * **Observability** — each result's plan reports queue wait and
//!   per-phase timings (rendered by EXPLAIN), and
//!   [`Scheduler::metrics`] aggregates submission/completion counters
//!   and queue latency across the scheduler's lifetime.
//!
//! One file per concern: `admission.rs` (the backlog and the degrade
//! decision), `ticket.rs` (a `OnceLock` per query), `compactor.rs`
//! (woken through a one-slot channel), and this one (the coordinators,
//! and a drop-time drain that waits for their channel to disconnect).
//!
//! ```
//! use mpsm_exec::sched::{Scheduler, SchedulerConfig};
//! use mpsm_exec::session::QuerySpec;
//! use mpsm_exec::Relation;
//! use mpsm_core::Tuple;
//! use std::sync::Arc;
//!
//! // 2 shared workers, at most 2 queries executing, 8 queued.
//! let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(2).queue_capacity(8));
//! let r = Arc::new(Relation::new("R", (0..100u64).map(|k| Tuple::new(k, k)).collect()));
//! let s = Arc::new(Relation::new("S", (0..100u64).map(|k| Tuple::new(k, k)).collect()));
//!
//! // Five concurrent joins over two workers — more than the pool
//! // width; the scheduler interleaves their phases.
//! let tickets: Vec<_> = (0..5u64)
//!     .map(|i| {
//!         let spec = QuerySpec::join(&r, &s).filter_r(move |t| t.key >= i);
//!         scheduler.submit(spec).expect("admission rejected")
//!     })
//!     .collect();
//! for ticket in tickets {
//!     let out = ticket.wait().expect("query failed");
//!     assert_eq!(out.result.max_payload_sum, Some(99 + 99));
//! }
//! assert_eq!(scheduler.metrics().completed, 5);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mpsm_core::context::ExecContext;
use mpsm_core::join::anytime::AnytimeToken;
use mpsm_core::worker::SharedWorkerPool;
use mpsm_numa::{NodeId, Topology};

use crate::session::QuerySpec;

mod admission;
mod compactor;
mod ticket;

use admission::{QueueState, QueuedQuery, DEGRADED_BUDGET};
use compactor::CompactorHandle;
use ticket::TicketCell;

pub use admission::{Priority, SubmitError};
pub use compactor::{CompactionConfig, CompactionTask};
pub use ticket::{QueryError, QueryOutput, QueryStatus, QueryTicket};

/// Sizing of a [`Scheduler`]: pool width, concurrency budget, queue
/// bound, and the (simulated) machine topology queries are placed on.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Width of the shared worker pool (the machine share this
    /// scheduler may use; every query's phases run at this
    /// parallelism).
    pub pool_threads: usize,
    /// Queries executing concurrently (coordinator threads). More
    /// in-flight queries means better pool utilization between a
    /// competitor's phases but more peak memory for materialized
    /// selections and runs.
    pub max_in_flight: usize,
    /// Submissions allowed to wait at full service beyond the
    /// executing ones; [`Scheduler::submit`] admits any further arrival
    /// degraded.
    pub queue_capacity: usize,
    /// The NUMA topology of the machine the scheduler places queries
    /// on. With a multi-node topology the scheduler is **NUMA-affine**:
    /// each admitted query is pinned to the least-loaded node, so its
    /// runs, partitions, and phases stay on one socket while concurrent
    /// queries use the others. The default (a flat single-node machine)
    /// disables placement.
    pub topology: Topology,
    /// Deadlines below this are rejected at submit with
    /// [`SubmitError::DeadlineInfeasible`] — the service's floor on
    /// what it will even attempt (a zero deadline is always
    /// infeasible). Deterministic by design: no execution-time
    /// estimation, so admission decisions are reproducible.
    pub min_feasible_deadline: Duration,
    /// Bound on the drop-time drain: [`Scheduler`]'s `Drop` waits this
    /// long for admitted queries to finish, then abandons the (wedged)
    /// coordinator threads instead of hanging shutdown, and fails every
    /// query still queued behind them with
    /// [`SubmitError::ShuttingDown`] (inside [`QueryError::Rejected`]),
    /// so no ticket waits forever — bounded shutdown is the contract a
    /// server needs.
    pub drain_timeout: Duration,
}

impl SchedulerConfig {
    /// A scheduler over `pool_threads` shared workers, with 2 queries
    /// in flight, a 16-deep admission queue, and a flat (non-NUMA)
    /// topology.
    pub fn new(pool_threads: usize) -> Self {
        SchedulerConfig {
            pool_threads,
            max_in_flight: 2,
            queue_capacity: 16,
            topology: Topology::flat(pool_threads as u32),
            min_feasible_deadline: Duration::ZERO,
            drain_timeout: Duration::from_secs(60),
        }
    }

    /// Builder-style override of the in-flight budget.
    pub fn max_in_flight(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one in-flight query");
        self.max_in_flight = n;
        self
    }

    /// Builder-style override of the queue bound (0 = every arrival that
    /// finds all slots busy runs degraded).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Builder-style override of the machine topology (enables
    /// NUMA-affine query placement when it has more than one node).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style override of the deadline feasibility floor.
    pub fn min_feasible_deadline(mut self, floor: Duration) -> Self {
        self.min_feasible_deadline = floor;
        self
    }

    /// Builder-style override of the drop-time drain bound.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }
}

/// Lifetime counters of a scheduler (monotonic; read at any time).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerMetrics {
    /// Queries admitted (queued or executed).
    pub submitted: u64,
    /// Queries finished successfully.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Queries that panicked while executing.
    pub panicked: u64,
    /// Total time admitted queries spent queued, in microseconds
    /// (divide by `completed + panicked` for the mean queue latency).
    pub queue_wait_micros: u64,
    /// Run-cache hits. Always 0: a served side is a view of the stored
    /// order, and nothing looks a run cache up (see
    /// [`crate::run_cache`]).
    pub cache_hits: u64,
    /// Run-cache misses. Always 0, like [`SchedulerMetrics::cache_hits`].
    pub cache_misses: u64,
    /// Run-cache evictions. Always 0, like
    /// [`SchedulerMetrics::cache_hits`].
    pub cache_evictions: u64,
    /// Delta compactions performed (background sweeps and explicit
    /// [`crate::session::Session::compact`] calls alike).
    pub compactions: u64,
    /// Background compactor sweeps that panicked. Each one is survived
    /// (the next nudge or tick sweeps again) and counted here, so a
    /// failing compactor can be told from an idle one.
    pub compactions_failed: u64,
    /// Queries that finished past their deadline — returned a partial
    /// answer, or a complete one later than promised.
    pub deadline_missed: u64,
    /// Queries that returned a partial (coverage < 100%) answer.
    pub partial_answers: u64,
    /// Queries admitted in degraded mode under overload: instead of a
    /// rejection, the query ran with a forced tight anytime budget and
    /// returned a coverage-stamped partial.
    pub degraded: u64,
}

#[derive(Default)]
struct AtomicMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    panicked: AtomicU64,
    queue_wait_micros: AtomicU64,
    compactions: AtomicU64,
    compactions_failed: AtomicU64,
    deadline_missed: AtomicU64,
    partial_answers: AtomicU64,
    degraded: AtomicU64,
}

struct SchedCore {
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    metrics: AtomicMetrics,
    /// Full-service budget, `max_in_flight + queue_capacity`: an
    /// arrival that finds this many queries running or queued is
    /// admitted degraded.
    full_service: usize,
    min_feasible_deadline: Duration,
    drain_timeout: Duration,
    next_id: AtomicU64,
    /// Queries currently pinned to each node (NUMA-affine placement
    /// picks the least-loaded one; empty when the topology is flat).
    /// One mutex guards the whole vector so a claim's min-scan and
    /// increment are atomic — two coordinators claiming concurrently
    /// must not both pick the same "least-loaded" node. Claims happen
    /// once per query, never inside a phase.
    node_load: Mutex<Vec<usize>>,
}

impl SchedCore {
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().expect("scheduler queue poisoned")
    }

    /// Claim the least-loaded node for one query (`None` on a flat
    /// topology). Ties break toward the lower node id, so a freshly
    /// started scheduler fills sockets 0, 1, 2, … in order.
    fn claim_node(&self) -> Option<NodeId> {
        let mut load = self.node_load.lock().expect("node load poisoned");
        if load.len() <= 1 {
            return None;
        }
        let node = load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(n, _)| n)
            .expect("at least two nodes");
        load[node] += 1;
        Some(NodeId(node as u32))
    }

    fn release_node(&self, node: Option<NodeId>) {
        if let Some(node) = node {
            self.node_load.lock().expect("node load poisoned")[node.0 as usize] -= 1;
        }
    }
}

/// The multi-query scheduler. See the module docs for the model and a
/// runnable example; [`crate::session::Session`] layers a relation
/// catalog on top.
pub struct Scheduler {
    core: Arc<SchedCore>,
    cx: Arc<ExecContext>,
    coordinators: Vec<std::thread::JoinHandle<()>>,
    /// Disconnects once every coordinator has exited: each holds a sender
    /// it never sends on. The mutex only makes the scheduler `Sync`.
    drained: Mutex<Receiver<()>>,
    /// Background compactor thread plus its wake/shutdown control,
    /// when [`Scheduler::start_compactor`] attached one.
    compactor: Option<CompactorHandle>,
}

impl Scheduler {
    /// Provision the shared pool and its execution context, and start
    /// the coordinator threads.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.pool_threads > 0, "need at least one pool worker");
        assert!(config.max_in_flight > 0, "need at least one in-flight query");
        let cx = Arc::new(ExecContext::new(config.topology.clone(), config.pool_threads));
        let nodes = if config.topology.nodes > 1 { config.topology.nodes as usize } else { 0 };
        let core = Arc::new(SchedCore {
            queue: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            metrics: AtomicMetrics::default(),
            full_service: config.max_in_flight + config.queue_capacity,
            min_feasible_deadline: config.min_feasible_deadline,
            drain_timeout: config.drain_timeout,
            next_id: AtomicU64::new(1),
            node_load: Mutex::new(vec![0; nodes]),
        });
        let (alive, drained) = mpsc::channel::<()>();
        let coordinators = (0..config.max_in_flight)
            .map(|_| {
                let core = Arc::clone(&core);
                let cx = Arc::clone(&cx);
                let alive = alive.clone();
                std::thread::spawn(move || {
                    let _alive = alive;
                    coordinator_loop(&core, &cx);
                })
            })
            .collect();
        let drained = Mutex::new(drained);
        Scheduler { core, cx, coordinators, drained, compactor: None }
    }

    /// Submit a query. Returns a ticket immediately; the admission
    /// decision is made here, under the queue lock, so the backlog a
    /// coordinator pops from is exactly what admission counted.
    ///
    /// SLA admission: a deadline below the configured feasibility floor
    /// (or zero) is rejected outright with
    /// [`SubmitError::DeadlineInfeasible`] — the only load-independent
    /// refusal left. Overload never rejects: once
    /// `max_in_flight + queue_capacity` queries are running or queued,
    /// a query is admitted in *degraded* mode (forced tight anytime
    /// budget, coverage-stamped partial answer), with higher-priority
    /// arrivals degrading lower-class backlog before themselves. The
    /// absolute deadline is fixed here, so queue wait counts against
    /// the SLA.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryTicket, SubmitError> {
        if let Some(deadline) = spec.deadline {
            if deadline.is_zero() || deadline < self.core.min_feasible_deadline {
                self.core.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::DeadlineInfeasible { deadline });
            }
        }
        let priority = spec.priority;
        let deadline_at = spec.deadline.map(|d| Instant::now() + d);
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(TicketCell::default());
        let job = QueuedQuery {
            spec,
            cell: Arc::clone(&cell),
            submitted_at: Instant::now(),
            priority,
            deadline_at,
            degraded: false,
        };
        {
            let mut queue = self.core.lock_queue();
            if queue.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            self.core.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            if queue.admit(job, self.core.full_service) {
                self.core.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.core.work_cv.notify_one();
        Ok(QueryTicket { id, cell })
    }

    /// The shared pool (width, phase counters, tracing).
    pub fn pool(&self) -> &SharedWorkerPool {
        self.cx.pool()
    }

    /// The scheduler's base execution context (topology, placement,
    /// arena). Each admitted query derives its own context from this
    /// one, so per-query audits do not accumulate here; all of them
    /// share its machine — pool, sort scratch and spare run buffers.
    pub fn context(&self) -> &ExecContext {
        &self.cx
    }

    /// Snapshot of the lifetime counters (the `cache_*` ones always
    /// read 0).
    pub fn metrics(&self) -> SchedulerMetrics {
        let m = &self.core.metrics;
        SchedulerMetrics {
            submitted: m.submitted.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            panicked: m.panicked.load(Ordering::Relaxed),
            queue_wait_micros: m.queue_wait_micros.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            compactions: m.compactions.load(Ordering::Relaxed),
            compactions_failed: m.compactions_failed.load(Ordering::Relaxed),
            deadline_missed: m.deadline_missed.load(Ordering::Relaxed),
            partial_answers: m.partial_answers.load(Ordering::Relaxed),
            degraded: m.degraded.load(Ordering::Relaxed),
        }
    }

    /// Queries currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.core.lock_queue().backlog.len()
    }

    /// Queries currently executing on the shared pool.
    pub fn in_flight(&self) -> usize {
        self.core.lock_queue().running
    }
}

impl Drop for Scheduler {
    /// Graceful shutdown: the compactor exits first (no new versions
    /// appear under draining queries), then already-admitted queries
    /// (executing *and* queued) are drained to completion, then the
    /// coordinators exit.
    ///
    /// The drain is **bounded** by [`SchedulerConfig::drain_timeout`]:
    /// a coordinator wedged inside a query (a parked predicate, a
    /// livelocked phase) cannot hang shutdown. On timeout the wedged
    /// threads are abandoned — they hold `Arc`s of everything they
    /// touch, so this is leak-bounded, not unsound — and every query
    /// still queued behind them fails its ticket with
    /// [`SubmitError::ShuttingDown`]. A query a wedged coordinator is
    /// running keeps its ticket live.
    fn drop(&mut self) {
        if let Some(CompactorHandle { wake, thread }) = self.compactor.take() {
            drop(wake);
            let _ = thread.join();
        }
        // A submit serialized after this point fails with ShuttingDown;
        // every earlier one is already in the backlog the coordinators
        // drain.
        self.core.lock_queue().shutdown = true;
        self.core.work_cv.notify_all();
        let drained = self.drained.get_mut().unwrap_or_else(PoisonError::into_inner);
        match drained.recv_timeout(self.core.drain_timeout) {
            Err(RecvTimeoutError::Disconnected) => {
                for handle in self.coordinators.drain(..) {
                    let _ = handle.join();
                }
            }
            _ => {
                // Wedged coordinator: abandon the handles. Joining would
                // block forever; a bounded shutdown is the server
                // contract. Nothing will pop the backlog, so fail it.
                self.coordinators.clear();
                let orphans = std::mem::take(&mut self.core.lock_queue().backlog);
                for job in orphans {
                    let _ = job.cell.done.set(Err(QueryError::Rejected(SubmitError::ShuttingDown)));
                }
            }
        }
    }
}

fn coordinator_loop(core: &SchedCore, cx: &ExecContext) {
    loop {
        let job = {
            let mut queue = core.lock_queue();
            loop {
                // Pop the highest priority class; FIFO within a class
                // (the earliest index wins a tie).
                let next = queue
                    .backlog
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, q)| (q.priority, std::cmp::Reverse(*i)))
                    .map(|(i, _)| i);
                if let Some(i) = next {
                    let job = queue.backlog.remove(i).expect("index from enumerate");
                    queue.running += 1;
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = core.work_cv.wait(queue).expect("scheduler queue poisoned");
            }
        };
        let queue_wait = job.submitted_at.elapsed();
        core.metrics.queue_wait_micros.fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);

        // Derive this query's context: fresh counters and arena over
        // the shared machine (pool, sort scratch, spare run buffers),
        // and — when the machine spans nodes — the whole query
        // pinned to the least-loaded socket so its runs, partitions,
        // and phases stay node-local (the EXPLAIN `Placement` line
        // reports the node and the audited locality). The node is
        // claimed before the ticket turns `Running`, so an observer
        // seeing `Running` knows placement happened.
        let node = core.claim_node();
        job.cell.running.store(true, Ordering::Release);
        let owned = cx.per_query();
        let query_cx = match node {
            Some(node) => owned.pinned_to(node),
            None => owned,
        };
        // Degraded admission forces a deterministic block budget: the
        // query merges at least one key-aligned block (so its answer
        // carries coverage > 0) and at most `DEGRADED_BUDGET`, however
        // late it starts. A client deadline, if any, still governs the
        // expired-in-queue fast path below.
        let token = if job.degraded {
            AnytimeToken::budget(DEGRADED_BUDGET)
        } else {
            match job.deadline_at {
                Some(at) => AnytimeToken::at(at),
                None => AnytimeToken::never(),
            }
        };
        let started = Instant::now();
        // Deadline already blown while queued: skip execution entirely
        // and return the degraded (empty, coverage-0) answer — the
        // anytime contract turns an SLA miss into a partial result, not
        // a rejection.
        let expired_in_queue = job.deadline_at.is_some_and(|at| Instant::now() >= at);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            job.spec.execute(&query_cx, &token, expired_in_queue)
        }));
        core.release_node(node);
        let done = match outcome {
            Ok(mut result) => {
                // A rows_cap stop (`capped`) is a voluntary early exit —
                // the caller got every row it asked for — so it counts
                // as neither a partial answer nor an SLA miss.
                let partial =
                    result.plan.anytime.as_ref().is_some_and(|a| !a.complete && !a.capped);
                if partial {
                    core.metrics.partial_answers.fetch_add(1, Ordering::Relaxed);
                }
                if job.deadline_at.is_some_and(|at| partial || Instant::now() > at) {
                    core.metrics.deadline_missed.fetch_add(1, Ordering::Relaxed);
                }
                result.plan.queue_wait_ms = Some(queue_wait.as_secs_f64() * 1e3);
                core.metrics.completed.fetch_add(1, Ordering::Relaxed);
                Ok(QueryOutput { result, queue_wait, execution: started.elapsed() })
            }
            Err(payload) => {
                core.metrics.panicked.fetch_add(1, Ordering::Relaxed);
                Err(QueryError::Panicked(panic_message(payload)))
            }
        };
        // Release the admission slot *before* publishing the result: a
        // client that resubmits the instant `wait()` returns must not
        // be degraded because its finished query still counts as
        // in-flight.
        core.lock_queue().running -= 1;
        let _ = job.cell.done.set(done);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::paper_query;
    use crate::scan::Relation;
    use crate::session::QuerySpec;
    use mpsm_core::join::p_mpsm::PMpsmJoin;
    use mpsm_core::join::JoinConfig;
    use mpsm_core::Tuple;
    use std::sync::atomic::AtomicUsize;

    fn rel(name: &str, n: u64) -> Arc<Relation> {
        Arc::new(Relation::new(name, (0..n).map(|k| Tuple::new(k, k)).collect()))
    }

    #[test]
    fn single_query_matches_serial_execution() {
        let r = rel("R", 200);
        let s = rel("S", 200);
        let serial = paper_query(
            &r,
            &s,
            |t| t.key % 3 == 0,
            |_| true,
            &PMpsmJoin::new(JoinConfig::with_threads(2)),
            2,
        );
        let scheduler = Scheduler::new(SchedulerConfig::new(2));
        let out = scheduler
            .submit(QuerySpec::join(&r, &s).filter_r(|t| t.key % 3 == 0))
            .expect("admitted")
            .wait()
            .expect("query failed");
        assert_eq!(out.result.max_payload_sum, serial.max_payload_sum);
        assert_eq!(out.result.r_selected, serial.r_selected);
        assert!(out.result.plan.queue_wait_ms.is_some());
        assert!(out.result.plan.explain().contains("Queue [wait ="));
    }

    #[test]
    fn ticket_reports_lifecycle() {
        let r = rel("R", 50);
        let s = rel("S", 50);
        let scheduler = Scheduler::new(SchedulerConfig::new(1));
        let ticket = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
        // The query may be anywhere in queued → running → done by now;
        // wait() must converge regardless.
        let _ = ticket.status();
        let out = ticket.wait().expect("query failed");
        assert_eq!(out.result.max_payload_sum, Some(49 + 49));
    }

    #[test]
    fn try_result_becomes_available() {
        let r = rel("R", 30);
        let s = rel("S", 30);
        let scheduler = Scheduler::new(SchedulerConfig::new(1));
        let ticket = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
        // Bounded spin: completion must arrive.
        let mut result = None;
        for _ in 0..10_000 {
            if let Some(r) = ticket.try_result() {
                result = Some(r);
                break;
            }
            std::thread::yield_now();
        }
        let out = result.expect("query never finished").expect("query failed");
        assert_eq!(out.result.max_payload_sum, Some(29 + 29));
        assert_eq!(ticket.status(), QueryStatus::Done);
    }

    #[test]
    fn overflow_admits_degraded_instead_of_rejecting() {
        // Large enough that the join spans more anytime blocks than
        // the degraded budget allows (6 at T = 2), so a degraded query
        // returns a strict partial.
        let r = rel("R", 20_000);
        let s = rel("S", 20_000);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(1).queue_capacity(1));
        let blocker = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while blocker.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        // Two arrivals while the lone slot is occupied: the first takes
        // the one queue slot (max_in_flight=1, capacity=1) and the
        // second — with no lower-class victim queued — is admitted in
        // degraded mode instead of being rejected.
        let full =
            scheduler.submit(QuerySpec::join(&r, &s).collect_rows(50_000)).expect("admitted");
        let degraded = scheduler
            .submit(QuerySpec::join(&r, &s).collect_rows(50_000))
            .expect("degrade, don't reject");
        assert_eq!(scheduler.queued(), 2, "both queued, neither rejected");
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        let full = full.wait().expect("query failed").result;
        let full_rows = full.rows.expect("collected rows");
        let out = degraded.wait().expect("a degraded query still answers").result;
        let anytime = out.plan.anytime.as_ref().expect("anytime row");
        assert!(!anytime.complete, "the forced budget must stop the merge early");
        assert!(anytime.coverage > 0.0, "degraded answers always carry >0 coverage");
        assert!(anytime.coverage < 1.0, "coverage {}", anytime.coverage);
        let rows = out.rows.expect("collected rows");
        assert!(!rows.is_empty(), "at least one block merges before the budget expires");
        assert_eq!(
            rows.as_slice(),
            &full_rows[..rows.len()],
            "degraded rows are a key-order prefix of the full answer"
        );
        let m = scheduler.metrics();
        assert_eq!(m.rejected, 0, "overload never rejects");
        assert_eq!(m.degraded, 1);
        assert_eq!(m.partial_answers, 1);
    }

    #[test]
    fn finished_query_frees_its_admission_slot_immediately() {
        let r = rel("R", 40);
        let s = rel("S", 40);
        // One slot, zero backlog. A closed-loop client resubmitting
        // right after wait() must always run at full service — the slot
        // is released before the result publishes.
        let scheduler = Scheduler::new(SchedulerConfig::new(1).max_in_flight(1).queue_capacity(0));
        for round in 0..20 {
            let ticket = scheduler
                .submit(QuerySpec::join(&r, &s))
                .unwrap_or_else(|e| panic!("round {round}: slot not freed: {e}"));
            ticket.wait().expect("query failed");
        }
        let m = scheduler.metrics();
        assert_eq!((m.rejected, m.degraded), (0, 0));
    }

    #[test]
    fn drop_drains_admitted_queries() {
        let r = rel("R", 60);
        let s = rel("S", 60);
        let scheduler = Scheduler::new(SchedulerConfig::new(1).max_in_flight(1));
        let tickets: Vec<_> =
            (0..6).map(|_| scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted")).collect();
        drop(scheduler);
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "admitted queries must drain on shutdown");
        }
    }

    #[test]
    fn submit_after_drop_is_impossible_by_construction() {
        // (The scheduler is consumed by drop; this pins the ShuttingDown
        // path through the internal flag instead.)
        let r = rel("R", 10);
        let s = rel("S", 10);
        let scheduler = Scheduler::new(SchedulerConfig::new(1));
        scheduler.core.queue.lock().expect("queue").shutdown = true;
        assert_eq!(
            scheduler.submit(QuerySpec::join(&r, &s)).err(),
            Some(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn node_claims_balance_load_and_release() {
        use mpsm_numa::Topology;

        let scheduler = Scheduler::new(SchedulerConfig::new(2).topology(Topology::paper_machine()));
        let core = &scheduler.core;
        // Fresh scheduler fills sockets in order.
        let claims: Vec<_> = (0..4).map(|_| core.claim_node()).collect();
        assert_eq!(
            claims,
            vec![Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2)), Some(NodeId(3))]
        );
        // All nodes equally loaded: the tie breaks toward node 0.
        assert_eq!(core.claim_node(), Some(NodeId(0)));
        // Releasing node 2 makes it the least loaded.
        core.release_node(Some(NodeId(2)));
        assert_eq!(core.claim_node(), Some(NodeId(2)));
    }

    #[test]
    fn numa_scheduler_pins_queries_and_reports_placement() {
        use mpsm_numa::Topology;

        let r = rel("R", 120);
        let s = rel("S", 120);
        let scheduler = Scheduler::new(
            SchedulerConfig::new(4).max_in_flight(2).topology(Topology::paper_machine()),
        );
        // Sequential queries always land on the emptiest node — after
        // each completes its claim is released, so node 0 wins every
        // tie again.
        for round in 0..3 {
            let out = scheduler
                .submit(QuerySpec::join(&r, &s))
                .expect("admitted")
                .wait()
                .expect("query failed");
            let placement = out.result.plan.placement.as_ref().expect("placement");
            assert_eq!(placement.node, Some(0), "round {round}");
            assert!(
                placement.local_pct > 50.0,
                "pinned query must be mostly local, got {} %",
                placement.local_pct
            );
            assert!(out.result.plan.explain().contains("Placement [node=0"));
        }
        // A burst of concurrent queries: every one gets pinned to some
        // node and finishes. (Which nodes depends on completion timing
        // — queries release their claim when done — so the spreading
        // *policy* is pinned deterministically by
        // `node_claims_balance_load_and_release` above, not here.)
        let tickets: Vec<_> =
            (0..6).map(|_| scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted")).collect();
        let nodes: Vec<Option<u32>> = tickets
            .into_iter()
            .map(|t| {
                let out = t.wait().expect("query failed");
                out.result.plan.placement.as_ref().and_then(|p| p.node)
            })
            .collect();
        assert!(nodes.iter().all(|n| n.is_some()), "every query is pinned somewhere");
        // All claims were released on completion.
        let load = scheduler.core.node_load.lock().expect("node load");
        assert!(load.iter().all(|&l| l == 0), "claims must drain to zero: {load:?}");
    }

    #[test]
    fn flat_scheduler_reports_single_node_placement() {
        let r = rel("R", 60);
        let s = rel("S", 60);
        let scheduler = Scheduler::new(SchedulerConfig::new(2));
        let out = scheduler
            .submit(QuerySpec::join(&r, &s))
            .expect("admitted")
            .wait()
            .expect("query failed");
        let placement = out.result.plan.placement.as_ref().expect("placement");
        assert_eq!(placement.node, Some(0), "flat topology has exactly one node");
        assert!(placement.flat, "single-node topologies mark the placement flat");
        assert!((placement.local_pct - 100.0).abs() < 1e-9);
        assert!(
            out.result.plan.explain().contains("Placement [flat, local=100.0%"),
            "{}",
            out.result.plan.explain()
        );
    }

    #[test]
    fn scheduled_queries_explain_per_phase_rates() {
        let r = rel("R", 60);
        let s = rel("S", 60);
        let scheduler = Scheduler::new(SchedulerConfig::new(2));
        let out = scheduler
            .submit(QuerySpec::join(&r, &s))
            .expect("admitted")
            .wait()
            .expect("query failed");
        let explain = out.result.plan.explain();
        assert!(explain.contains(" ns/t"), "per-phase rates must render:\n{explain}");
    }

    /// A query whose `filter_r` blocks until the gate opens, pinning
    /// the coordinator it runs on.
    fn gated_query(
        r: &Arc<Relation>,
        s: &Arc<Relation>,
        gate: &Arc<(Mutex<bool>, Condvar)>,
    ) -> QuerySpec {
        let gate = Arc::clone(gate);
        QuerySpec::join(r, s).filter_r(move |_| {
            let (open, cv) = &*gate;
            let mut open = open.lock().expect("gate poisoned");
            while !*open {
                open = cv.wait(open).expect("gate poisoned");
            }
            true
        })
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (open, cv) = &**gate;
        *open.lock().expect("gate poisoned") = true;
        cv.notify_all();
    }

    #[test]
    fn backlog_pops_by_priority_class_fifo_within() {
        let r = rel("R", 40);
        let s = rel("S", 40);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(SchedulerConfig::new(1).max_in_flight(1).queue_capacity(8));
        let blocker = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while blocker.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        // Queue 5 queries while the lone coordinator is pinned; each
        // records its pop order from inside its selection.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mark = |name: &'static str, priority: Priority| {
            let order = Arc::clone(&order);
            scheduler
                .submit(QuerySpec::join(&r, &s).priority(priority).filter_r(move |t| {
                    if t.key == 0 {
                        order.lock().expect("order poisoned").push(name);
                    }
                    true
                }))
                .expect("admitted")
        };
        let tickets = vec![
            mark("batch-1", Priority::Batch),
            mark("normal-1", Priority::Normal),
            mark("interactive-1", Priority::Interactive),
            mark("normal-2", Priority::Normal),
            mark("interactive-2", Priority::Interactive),
        ];
        open_gate(&gate);
        blocker.wait().expect("blocker failed");
        for t in tickets {
            t.wait().expect("query failed");
        }
        assert_eq!(
            *order.lock().expect("order poisoned"),
            vec!["interactive-1", "interactive-2", "normal-1", "normal-2", "batch-1"],
            "highest class first, FIFO within a class"
        );
    }

    #[test]
    fn overflow_degrades_a_lower_class_queued_query_in_place() {
        let r = rel("R", 20_000);
        let s = rel("S", 20_000);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(1).queue_capacity(1));
        let blocker = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while blocker.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        // A Batch query takes the one queue slot; the Interactive
        // arrival overflows. Instead of rejecting anyone, admission
        // picks the youngest strictly-lower-class queued query — the
        // Batch one — and degrades *it*, in place: it keeps its queue
        // position and still answers, just under a forced tight
        // budget. The Interactive query runs at full service.
        let batch = scheduler
            .submit(QuerySpec::join(&r, &s).priority(Priority::Batch).collect_rows(50_000))
            .expect("admitted");
        let interactive = scheduler
            .submit(QuerySpec::join(&r, &s).priority(Priority::Interactive).collect_rows(50_000))
            .expect("admitted at full service");
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        let full = interactive.wait().expect("query failed").result;
        assert!(full.plan.anytime.as_ref().expect("anytime row").complete);
        let full_rows = full.rows.expect("collected rows");
        let out = batch.wait().expect("degraded, not rejected").result;
        let anytime = out.plan.anytime.as_ref().expect("anytime row");
        assert!(!anytime.complete, "the victim ran under the degraded budget");
        assert!(anytime.coverage > 0.0);
        let rows = out.rows.expect("collected rows");
        assert_eq!(rows.as_slice(), &full_rows[..rows.len()], "prefix contract holds");
        let m = scheduler.metrics();
        assert_eq!(m.rejected, 0);
        assert_eq!(m.degraded, 1);
    }

    #[test]
    fn queue_capacity_bounds_full_service_waiters() {
        // One slot, one full-service queue place, the slot busy, two
        // arrivals: the first waits at full service, the second is
        // degraded the moment it is submitted — while the slot is still
        // busy, not when a coordinator gets around to it.
        let r = rel("R", 40);
        let s = rel("S", 40);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(SchedulerConfig::new(1).max_in_flight(1).queue_capacity(1));
        let blocker = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while blocker.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        let first = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
        let second = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
        assert_eq!(scheduler.metrics().degraded, 1, "admission decided at submit");
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        // Only the degraded query ran under a (budget) anytime token.
        assert!(first.wait().expect("query failed").result.plan.anytime.is_none());
        assert!(second.wait().expect("query failed").result.plan.anytime.is_some());
    }

    #[test]
    fn infeasible_deadlines_are_rejected_at_submit() {
        let r = rel("R", 10);
        let s = rel("S", 10);
        let scheduler = Scheduler::new(
            SchedulerConfig::new(1).min_feasible_deadline(Duration::from_millis(10)),
        );
        let below = scheduler.submit(QuerySpec::join(&r, &s).deadline(Duration::from_millis(2)));
        assert_eq!(
            below.err(),
            Some(SubmitError::DeadlineInfeasible { deadline: Duration::from_millis(2) })
        );
        // A zero deadline is infeasible even with no configured floor.
        let zero_floor = Scheduler::new(SchedulerConfig::new(1));
        let zero = zero_floor.submit(QuerySpec::join(&r, &s).deadline(Duration::ZERO));
        assert_eq!(zero.err(), Some(SubmitError::DeadlineInfeasible { deadline: Duration::ZERO }));
        assert_eq!(scheduler.metrics().rejected, 1);
        // At or above the floor, admission proceeds.
        let ok = scheduler.submit(QuerySpec::join(&r, &s).deadline(Duration::from_secs(3600)));
        assert!(ok.expect("feasible deadline admitted").wait().is_ok());
    }

    #[test]
    fn deadline_expired_in_queue_returns_an_empty_partial() {
        let r = rel("R", 40);
        let s = rel("S", 40);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(SchedulerConfig::new(1).max_in_flight(1));
        let blocker = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while blocker.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        let sla = scheduler
            .submit(QuerySpec::join(&r, &s).deadline(Duration::from_millis(10)).collect_rows(100))
            .expect("admitted");
        // Let the SLA expire while the query is still queued.
        std::thread::sleep(Duration::from_millis(30));
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        let out = sla.wait().expect("an SLA miss degrades, it does not fail");
        let anytime = out.result.plan.anytime.as_ref().expect("anytime row");
        assert!(!anytime.complete);
        assert_eq!(anytime.coverage, 0.0);
        assert_eq!(out.result.max_payload_sum, None);
        assert_eq!(out.result.rows.as_deref(), Some(&[][..]), "empty row prefix");
        let m = scheduler.metrics();
        assert_eq!(m.deadline_missed, 1);
        assert_eq!(m.partial_answers, 1);
        let explain = out.result.plan.explain();
        assert!(explain.contains("Anytime [coverage=0.0%, runs=0/0, partial]"), "{explain}");
    }

    #[test]
    fn generous_deadline_completes_with_full_coverage() {
        let r = rel("R", 80);
        let s = rel("S", 80);
        let scheduler = Scheduler::new(SchedulerConfig::new(2));
        let out = scheduler
            .submit(QuerySpec::join(&r, &s).deadline(Duration::from_secs(3600)))
            .expect("admitted")
            .wait()
            .expect("query failed");
        let anytime = out.result.plan.anytime.as_ref().expect("anytime row");
        assert!(anytime.complete);
        assert!((anytime.coverage - 1.0).abs() < 1e-12);
        assert_eq!(out.result.max_payload_sum, Some(79 + 79));
        let m = scheduler.metrics();
        assert_eq!(m.deadline_missed, 0);
        assert_eq!(m.partial_answers, 0);
    }

    #[test]
    fn rows_cap_stops_the_merge_without_an_sla_miss() {
        let r = rel("R", 80);
        let s = rel("S", 80);
        let scheduler = Scheduler::new(SchedulerConfig::new(2));
        let out = scheduler
            .submit(QuerySpec::join(&r, &s).deadline(Duration::from_secs(3600)).collect_rows(5))
            .expect("admitted")
            .wait()
            .expect("query failed");
        let anytime = out.result.plan.anytime.as_ref().expect("anytime row");
        assert!(anytime.capped, "the merge stops once the cap is satisfied");
        assert!(!anytime.complete);
        assert!(
            anytime.coverage > 0.0 && anytime.coverage < 1.0,
            "a capped query merges only a key prefix, coverage {}",
            anytime.coverage
        );
        // The rows are the exact key-order prefix the caller asked for…
        let rows = out.result.rows.as_ref().expect("collected rows");
        assert_eq!(rows.as_slice(), &[(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]);
        // …and the aggregate covers only the merged prefix — evidence
        // the merge really stopped rather than materializing the full
        // join and truncating afterwards.
        let merged_max = out.result.max_payload_sum.expect("non-empty join");
        assert!(merged_max < 79 + 79, "merge must stop at the cap, got max {merged_max}");
        let m = scheduler.metrics();
        assert_eq!(m.deadline_missed, 0, "a cap stop is not an SLA miss");
        assert_eq!(m.partial_answers, 0, "a capped answer satisfied its request");
        assert!(out.result.plan.explain().contains("capped]"), "{}", out.result.plan.explain());
    }

    #[test]
    fn drop_drain_is_bounded_when_a_coordinator_wedges() {
        let r = rel("R", 40);
        let s = rel("S", 40);
        // The gate never opens: the lone coordinator wedges inside the
        // query forever. Drop must still return within the configured
        // drain timeout (plus scheduling slack), abandoning the thread.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(
            SchedulerConfig::new(1).max_in_flight(1).drain_timeout(Duration::from_millis(100)),
        );
        let parked = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while parked.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        let start = Instant::now();
        drop(scheduler);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "bounded drain must not hang on a wedged coordinator (took {elapsed:?})"
        );
        // The wedged query never completed; its ticket is still live.
        assert_ne!(parked.status(), QueryStatus::Done);
        // Unblock the abandoned thread so the test process exits clean.
        open_gate(&gate);
    }

    #[test]
    fn metrics_track_queue_latency() {
        let r = rel("R", 80);
        let s = rel("S", 80);
        let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(1));
        let tickets: Vec<_> =
            (0..4).map(|_| scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted")).collect();
        for t in tickets {
            t.wait().expect("query failed");
        }
        let m = scheduler.metrics();
        assert_eq!(m.submitted, 4);
        assert_eq!(m.completed, 4);
        assert_eq!(m.panicked, 0);
    }

    #[test]
    fn abandoned_drain_fails_the_queued_backlog() {
        let r = rel("R", 40);
        let s = rel("S", 40);
        // The lone coordinator wedges on a gate that stays shut until
        // after the drop; a second query waits behind it.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let scheduler = Scheduler::new(
            SchedulerConfig::new(1).max_in_flight(1).drain_timeout(Duration::from_millis(100)),
        );
        let parked = scheduler.submit(gated_query(&r, &s, &gate)).expect("admitted");
        while parked.status() != QueryStatus::Running {
            std::thread::yield_now();
        }
        let queued = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
        drop(scheduler);
        // Nothing will ever pop the backlog, so the drain failed it…
        assert_eq!(queued.status(), QueryStatus::Done);
        assert!(
            matches!(queued.wait(), Err(QueryError::Rejected(SubmitError::ShuttingDown))),
            "an abandoned drain fails queued tickets with ShuttingDown"
        );
        // …while the wedged query's ticket stays live.
        assert_ne!(parked.status(), QueryStatus::Done);
        open_gate(&gate);
    }

    /// Spin (bounded) until `done` holds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// A compaction task whose first sweep panics; every later sweep
    /// folds one relation.
    #[derive(Default)]
    struct PanicsOnce {
        sweeps: AtomicUsize,
    }

    impl CompactionTask for PanicsOnce {
        fn compact_pending(&self, _: &CompactionConfig) -> usize {
            if self.sweeps.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first sweep gone wrong");
            }
            1
        }
    }

    #[test]
    fn compactor_survives_a_panicking_sweep() {
        let task = Arc::new(PanicsOnce::default());
        let mut scheduler = Scheduler::new(SchedulerConfig::new(1));
        // An hour-long interval: only nudges wake the compactor.
        let config = CompactionConfig::default().interval(Duration::from_secs(3600));
        scheduler.start_compactor(Arc::clone(&task) as Arc<dyn CompactionTask>, config);
        scheduler.nudge_compactor();
        wait_until("the first sweep", || task.sweeps.load(Ordering::SeqCst) >= 1);
        scheduler.nudge_compactor();
        wait_until("a sweep after the panic", || scheduler.metrics().compactions == 1);
        assert_eq!(scheduler.metrics().compactions_failed, 1, "the panicking sweep is counted");
    }

    /// A compaction task whose first sweep blocks until `release`
    /// delivers a message; it counts every sweep.
    struct BlocksFirstSweep {
        sweeps: AtomicUsize,
        release: Mutex<Receiver<()>>,
    }

    impl CompactionTask for BlocksFirstSweep {
        fn compact_pending(&self, _: &CompactionConfig) -> usize {
            if self.sweeps.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = self.release.lock().expect("release poisoned").recv();
            }
            0
        }
    }

    #[test]
    fn nudges_coalesce_into_one_sweep() {
        let (release, released) = mpsc::channel();
        let task = Arc::new(BlocksFirstSweep {
            sweeps: AtomicUsize::new(0),
            release: Mutex::new(released),
        });
        let mut scheduler = Scheduler::new(SchedulerConfig::new(1));
        let config = CompactionConfig::default().interval(Duration::from_secs(3600));
        scheduler.start_compactor(Arc::clone(&task) as Arc<dyn CompactionTask>, config);
        scheduler.nudge_compactor();
        wait_until("the first sweep", || task.sweeps.load(Ordering::SeqCst) == 1);
        // 100 nudges while that sweep is blocked owe exactly one more.
        for _ in 0..100 {
            scheduler.nudge_compactor();
        }
        release.send(()).expect("compactor alive");
        wait_until("the owed sweep", || task.sweeps.load(Ordering::SeqCst) >= 2);
        drop(scheduler);
        assert_eq!(task.sweeps.load(Ordering::SeqCst), 2, "nudges coalesce into one sweep");
    }
}
