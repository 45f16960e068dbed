//! Admission: priority classes, submit errors, the backlog, and the
//! degrade decision.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::ticket::TicketCell;
use crate::session::QuerySpec;

/// Anytime block budget forced onto a query admitted in *degraded*
/// mode (overflow beyond `max_in_flight + queue_capacity`). Each unit
/// is one key-aligned merge block
/// ([`mpsm_core::join::anytime::ANYTIME_BLOCK_TUPLES`] tuples), so the
/// budget bounds a degraded query's phase-4 work while guaranteeing a
/// non-empty, coverage-stamped prefix answer.
pub(super) const DEGRADED_BUDGET: u64 = 4;

/// Admission priority class of a query. Orders the backlog: a
/// coordinator always pops the highest class first (FIFO within a
/// class), and when the queue overflows an arriving query may *degrade*
/// the youngest queued query of a strictly lower class instead of
/// being degraded itself — load degrades batch work before interactive
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Bulk/background work: popped last, degraded first under
    /// overload.
    Batch,
    /// The default class: FIFO behind `Interactive`, ahead of `Batch`.
    #[default]
    Normal,
    /// Latency-sensitive work: popped first; on overflow it degrades a
    /// queued `Normal` or `Batch` query instead of itself.
    Interactive,
}

/// Why a submission was not admitted. Overload is *not* a reason:
/// since degrade-don't-reject, a full queue admits the query in
/// degraded mode (forced tight anytime budget) instead of rejecting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
    /// The submitted deadline is below the scheduler's
    /// [`SchedulerConfig::min_feasible_deadline`](super::SchedulerConfig::min_feasible_deadline)
    /// floor (or zero): admission refuses SLAs it cannot possibly honor
    /// instead of queueing work guaranteed to return an empty partial.
    DeadlineInfeasible {
        /// The deadline the submission asked for.
        deadline: Duration,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
            SubmitError::DeadlineInfeasible { deadline } => {
                write!(f, "deadline of {deadline:?} is below the feasibility floor")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

pub(super) struct QueuedQuery {
    pub(super) spec: QuerySpec,
    pub(super) cell: Arc<TicketCell>,
    pub(super) submitted_at: Instant,
    pub(super) priority: Priority,
    /// Absolute deadline, fixed at submit time — the SLA covers queue
    /// wait, not just execution.
    pub(super) deadline_at: Option<Instant>,
    /// Admitted under overload: the coordinator forces
    /// [`DEGRADED_BUDGET`] so the query returns a coverage-stamped
    /// partial instead of occupying the pool at full service.
    pub(super) degraded: bool,
}

#[derive(Default)]
pub(super) struct QueueState {
    pub(super) backlog: VecDeque<QueuedQuery>,
    /// Queries popped by a coordinator and not yet finished.
    pub(super) running: usize,
    /// Set on drop: [`Scheduler::submit`] refuses new work, and the
    /// coordinators exit once the backlog is drained.
    pub(super) shutdown: bool,
}

impl QueueState {
    /// Admit `job` to the backlog — the whole admission decision, made
    /// by [`Scheduler::submit`] under the queue lock. While
    /// `backlog + running` is at the `full_service` budget, the arrival
    /// either *degrades* the youngest queued query of a strictly lower
    /// class (which keeps its queue position) and is admitted at full
    /// service, or — when nothing outranks — is admitted degraded
    /// itself. Returns whether a query was degraded; nothing is ever
    /// rejected.
    pub(super) fn admit(&mut self, mut job: QueuedQuery, full_service: usize) -> bool {
        let overflow = self.backlog.len() + self.running >= full_service;
        if overflow {
            let victim = self
                .backlog
                .iter_mut()
                .enumerate()
                .filter(|(_, q)| !q.degraded && q.priority < job.priority)
                .min_by_key(|(i, q)| (q.priority, std::cmp::Reverse(*i)))
                .map(|(_, q)| q);
            match victim {
                Some(victim) => victim.degraded = true,
                None => job.degraded = true,
            }
        }
        self.backlog.push_back(job);
        overflow
    }
}
