//! The MPSM query service: a long-lived TCP layer over an
//! [`mpsm_exec::Session`].
//!
//! Three pieces:
//!
//! * [`protocol`] — the length-prefixed wire format: `Register`,
//!   `Query`, `Explain`, `Write`, `Ping`, and `Metrics` request frames
//!   with typed responses, plus an `Error` frame carrying a stable
//!   numeric code. Framing survives malformed bodies: a frame that
//!   parses as garbage draws an `Error` response, not a dropped
//!   connection.
//! * [`server`] — the multiplexed front-end: one acceptor thread hands
//!   sockets to a fixed pool of connection workers, each driving its
//!   share of nonblocking connections through a readiness loop with
//!   incremental frame reassembly. One [`mpsm_exec::Session`] (and
//!   therefore one [`mpsm_exec::Scheduler`] with its shared worker
//!   pool) serves every connection; queries submit asynchronously and
//!   answer by ticket, so a slow query never stalls its worker.
//! * [`client`] — a small blocking client used by the benchmark
//!   harness (`bench/`) and the protocol tests.
//!
//! Deadline-carrying queries execute on the **anytime** path
//! ([`mpsm_core::join::anytime`]): a deadline hit returns the joined
//! rows accumulated so far — always a key-order prefix of the full
//! answer — plus a coverage estimate (scalar and per key range), in
//! the response frame and on the plan's `Anytime` row. Overload
//! control follows the same philosophy — **degrade, don't reject**: a
//! full queue admits the query anyway under a forced tight anytime
//! budget, so clients see coverage-stamped partial answers under
//! storm, never `REJECTED` errors.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, QueryReply, QueryRequest, ServiceError};
pub use protocol::{DecodeError, Frame};
pub use server::{Server, ServerConfig, ServerHandle};
