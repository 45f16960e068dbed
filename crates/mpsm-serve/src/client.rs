//! A small blocking client for the query service, used by the
//! benchmark harness (`bench/`) and the protocol tests.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    read_frame, write_frame, DecodeError, Frame, MetricsBody, QueryBody, QueryResultBody,
};

/// What a request can fail with, from the client's point of view.
#[derive(Debug)]
pub enum ServiceError {
    /// The transport failed (or the server closed mid-exchange).
    Io(io::Error),
    /// The server's response did not decode.
    Protocol(DecodeError),
    /// The server answered with an `Error` frame.
    Server {
        /// Stable code from [`crate::protocol::code`].
        code: u16,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong type.
    Unexpected(Frame),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "transport: {e}"),
            ServiceError::Protocol(e) => write!(f, "protocol: {e}"),
            ServiceError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServiceError::Unexpected(frame) => write!(f, "unexpected response: {frame:?}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// A query request, mirroring the wire fields of [`QueryBody`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Private-side relation name.
    pub r: String,
    /// Public-side relation name.
    pub s: String,
    /// SLA deadline in microseconds (`0` = none).
    pub deadline_micros: u64,
    /// Admission class: `0` batch, `1` normal, `2` interactive.
    pub priority: u8,
    /// Joined rows to collect (`0` = none).
    pub rows_cap: u32,
}

impl QueryRequest {
    /// A plain no-SLA query over two registered relations.
    pub fn new(r: &str, s: &str) -> Self {
        QueryRequest {
            r: r.to_string(),
            s: s.to_string(),
            deadline_micros: 0,
            priority: 1,
            rows_cap: 0,
        }
    }

    fn body(&self) -> QueryBody {
        QueryBody {
            r: self.r.clone(),
            s: self.s.clone(),
            deadline_micros: self.deadline_micros,
            priority: self.priority,
            rows_cap: self.rows_cap,
        }
    }
}

/// A query's answer. Re-exported body of the `QueryResult` frame.
pub type QueryReply = QueryResultBody;

/// One blocking connection to the service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    /// Send one frame and read the server's response to it.
    pub fn exchange(&mut self, frame: &Frame) -> Result<Frame, ServiceError> {
        write_frame(&mut self.writer, frame)?;
        match read_frame(&mut self.reader)? {
            Some(Ok(frame)) => Ok(frame),
            Some(Err(err)) => Err(ServiceError::Protocol(err)),
            None => Err(ServiceError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    fn expect(&mut self, frame: &Frame) -> Result<Frame, ServiceError> {
        match self.exchange(frame)? {
            Frame::Error { code, message } => Err(ServiceError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        match self.expect(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(ServiceError::Unexpected(other)),
        }
    }

    /// Register a relation; returns `(rows, version)`.
    pub fn register(
        &mut self,
        name: &str,
        tuples: Vec<(u64, u64)>,
    ) -> Result<(u64, u64), ServiceError> {
        match self.expect(&Frame::Register { name: name.to_string(), tuples })? {
            Frame::Registered { rows, version } => Ok((rows, version)),
            other => Err(ServiceError::Unexpected(other)),
        }
    }

    /// Append tuples to a registered relation; returns the delta
    /// watermark.
    pub fn write(&mut self, name: &str, tuples: Vec<(u64, u64)>) -> Result<u64, ServiceError> {
        match self.expect(&Frame::Write { name: name.to_string(), tuples })? {
            Frame::Written { delta_len } => Ok(delta_len),
            other => Err(ServiceError::Unexpected(other)),
        }
    }

    /// Run a query and wait for its (possibly partial) answer.
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryReply, ServiceError> {
        match self.expect(&Frame::Query(request.body()))? {
            Frame::QueryResult(result) => Ok(result),
            other => Err(ServiceError::Unexpected(other)),
        }
    }

    /// Run a query and return its EXPLAIN text.
    pub fn explain(&mut self, request: &QueryRequest) -> Result<String, ServiceError> {
        match self.expect(&Frame::Explain(request.body()))? {
            Frame::Explained { text } => Ok(text),
            other => Err(ServiceError::Unexpected(other)),
        }
    }

    /// Fetch the scheduler's lifetime counters.
    pub fn metrics(&mut self) -> Result<MetricsBody, ServiceError> {
        match self.expect(&Frame::Metrics)? {
            Frame::MetricsReport(m) => Ok(m),
            other => Err(ServiceError::Unexpected(other)),
        }
    }
}
