//! Query tickets: the futures-style handle a submission returns, and
//! the result it resolves to.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use super::SubmitError;
use crate::query::PaperQueryResult;

/// Why a submitted query produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The submission was never admitted (blocking convenience paths
    /// fold [`SubmitError`] into this).
    Rejected(SubmitError),
    /// The query panicked while executing (e.g. a predicate or a join
    /// phase); other queries are unaffected.
    Panicked(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Rejected(e) => write!(f, "query rejected: {e}"),
            QueryError::Panicked(msg) => write!(f, "query panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A completed scheduled query: the paper-query result plus the
/// scheduling times (also folded into the result's EXPLAIN plan).
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The query result, with [`crate::plan::QueryPlan::queue_wait_ms`]
    /// and [`crate::plan::QueryPlan::phases_ms`] populated.
    pub result: PaperQueryResult,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Execution wall time (first selection through aggregate).
    pub execution: Duration,
}

/// Where a submitted query currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Waiting in the admission queue.
    Queued,
    /// Executing on the shared pool.
    Running,
    /// Finished (result or error available).
    Done,
}

/// One query's completion state, shared by its ticket and its backlog
/// entry.
#[derive(Default)]
pub(super) struct TicketCell {
    /// Stored with `Release` once the coordinator has claimed the
    /// query's node; [`QueryTicket::status`] loads it with `Acquire`, so
    /// `Running` implies placed.
    pub(super) running: AtomicBool,
    /// Set once: by the coordinator that ran the query, or by a drain
    /// that gave up on the backlog.
    pub(super) done: OnceLock<Result<QueryOutput, QueryError>>,
}

/// A futures-style handle to one submitted query: poll with
/// [`QueryTicket::status`] / [`QueryTicket::try_result`], or block on
/// [`QueryTicket::wait`].
pub struct QueryTicket {
    pub(super) id: u64,
    pub(super) cell: Arc<TicketCell>,
}

impl QueryTicket {
    /// The query's scheduler-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking status probe.
    pub fn status(&self) -> QueryStatus {
        if self.cell.done.get().is_some() {
            QueryStatus::Done
        } else if self.cell.running.load(Ordering::Acquire) {
            QueryStatus::Running
        } else {
            QueryStatus::Queued
        }
    }

    /// The result, if the query already finished (clones; the ticket
    /// stays usable).
    pub fn try_result(&self) -> Option<Result<QueryOutput, QueryError>> {
        self.cell.done.get().cloned()
    }

    /// Block until the query finishes and take the result.
    pub fn wait(self) -> Result<QueryOutput, QueryError> {
        self.cell.done.wait().clone()
    }
}
