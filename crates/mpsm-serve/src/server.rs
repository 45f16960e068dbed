//! The service front-end: one [`Session`] serving many multiplexed
//! TCP connections from a fixed pool of connection workers.
//!
//! A single acceptor thread hands sockets to `ServerConfig::workers`
//! connection workers; each worker drives its share of connections
//! through a readiness loop over nonblocking sockets. Per connection
//! the worker keeps a read buffer (incremental frame reassembly — a
//! frame may arrive in any number of TCP segments), a write buffer
//! (partial writes are resumed, never block the worker), and a FIFO of
//! pending replies. Cheap requests — `Ping`, `Register`, `Write`,
//! `Metrics` — are answered inline; `Query` and `Explain` are
//! submitted to the engine asynchronously and their tickets polled, so
//! a slow query on one connection never stalls the worker's other
//! connections. Replies always leave in request order (the protocol is
//! strictly request/response per connection; pipelining is the
//! client's affair).
//!
//! Every connection's queries funnel into the one scheduler, so its
//! admission rules — priority classes, deadline feasibility,
//! degrade-don't-reject overload control — arbitrate *between
//! clients*, which is the whole point of serving from a single engine.
//!
//! A malformed frame body draws a [`Frame::Error`] with
//! [`code::MALFORMED`] and the connection survives; only transport
//! errors (including an oversized length prefix, after which the
//! stream cannot be resynced) end a connection. Two reapers guard the
//! worker pool: connections idle past `idle_timeout` are closed, and a
//! connection stuck mid-frame past `read_deadline` (a stalled or
//! half-dead client) is closed rather than holding reassembly state
//! forever.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpsm_core::Tuple;
use mpsm_exec::{
    PaperQueryResult, Priority, QueryError, QuerySpec, QueryTicket, Relation, Session, SubmitError,
};

use crate::protocol::{code, Frame, MetricsBody, QueryBody, QueryResultBody, MAX_FRAME};

/// Tuning knobs for the connection-worker pool.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection workers. Each drives its share of connections; the
    /// engine's parallelism is the scheduler's affair, so a handful is
    /// plenty even for hundreds of clients.
    pub workers: usize,
    /// Close a connection with no traffic and no replies in flight for
    /// this long.
    pub idle_timeout: Duration,
    /// Close a connection stuck mid-frame (bytes of an incomplete
    /// frame buffered, nothing new arriving) for this long.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            idle_timeout: Duration::from_secs(60),
            read_deadline: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// Set the connection-worker count (min 1).
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one connection worker");
        self.workers = n;
        self
    }

    /// Set the idle-connection timeout.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Set the mid-frame read deadline.
    pub fn read_deadline(mut self, deadline: Duration) -> Self {
        self.read_deadline = deadline;
        self
    }
}

/// A bound-but-not-yet-serving query service.
pub struct Server {
    shared: Arc<ServerShared>,
    listener: TcpListener,
}

/// State shared by the acceptor and the connection workers.
struct ServerShared {
    session: Arc<Session>,
    config: ServerConfig,
    /// Accepted sockets awaiting adoption by a worker.
    intake: Mutex<VecDeque<TcpStream>>,
    stop: AtomicBool,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over a
    /// fresh handle to `session`, with the default worker-pool config.
    pub fn bind(addr: impl ToSocketAddrs, session: Session) -> io::Result<Server> {
        Server::bind_with(addr, session, ServerConfig::default())
    }

    /// [`Server::bind`] with an explicit worker-pool config.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        session: Session,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server {
            shared: Arc::new(ServerShared {
                session: Arc::new(session),
                config,
                intake: Mutex::new(VecDeque::new()),
                stop: AtomicBool::new(false),
            }),
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve on the calling thread until the process exits: spawn the
    /// worker pool, then run the accept loop inline. The server
    /// binary's entry point.
    pub fn run(self) -> io::Result<()> {
        let _workers = spawn_workers(&self.shared);
        accept_loop(&self.listener, &self.shared)
    }

    /// Serve on background threads; the returned handle shuts the pool
    /// down when asked (or dropped).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let mut threads = spawn_workers(&self.shared);
        let listener = self.listener;
        let acceptor_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let _ = accept_loop(&listener, &acceptor_shared);
        }));
        Ok(ServerHandle { addr, shared, threads })
    }
}

fn spawn_workers(shared: &Arc<ServerShared>) -> Vec<JoinHandle<()>> {
    (0..shared.config.workers)
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect()
}

fn accept_loop(listener: &TcpListener, shared: &ServerShared) -> io::Result<()> {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.intake.lock().expect("intake poisoned").push_back(stream);
    }
    Ok(())
}

/// Handle to a [`Server::spawn`]ed service.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, and join the pool.
    /// Queries already inside the engine drain under the Session drop
    /// contract (bounded by the scheduler's drain timeout).
    pub fn shutdown(mut self) {
        self.stop_serving();
    }

    fn stop_serving(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_serving();
    }
}

/// A reply owed to the client, in request order. Queries and explains
/// ride engine tickets; everything else is ready the moment it is
/// enqueued.
enum PendingReply {
    Ready(Frame),
    Query(QueryTicket),
    Explain(QueryTicket),
}

/// One multiplexed connection's state inside a worker.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed (incremental reassembly).
    read_buf: Vec<u8>,
    /// Encoded replies not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Drained prefix of `write_buf`.
    write_at: usize,
    /// Replies owed, FIFO.
    pending: VecDeque<PendingReply>,
    /// Last moment bytes moved or a reply resolved.
    last_activity: Instant,
    /// When the currently-incomplete frame started arriving.
    read_started: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_at: 0,
            pending: VecDeque::new(),
            last_activity: Instant::now(),
            read_started: None,
        }
    }
}

/// One poll outcome.
enum Poll {
    /// Something moved (bytes, frames, or replies).
    Progress,
    /// Nothing to do right now.
    Idle,
    /// The connection is done (clean close, transport error, or
    /// reaped); drop it.
    Close,
}

fn worker_loop(shared: &ServerShared) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let mut progress = false;
        // Adopt one new connection per pass: cheap, and spreads a
        // connect burst across the pool as every worker passes by.
        if let Some(stream) = shared.intake.lock().expect("intake poisoned").pop_front() {
            conns.push(Conn::new(stream));
            progress = true;
        }
        conns.retain_mut(|conn| match poll_conn(shared, conn) {
            Poll::Progress => {
                progress = true;
                true
            }
            Poll::Idle => true,
            Poll::Close => false,
        });
        if !progress {
            // Nothing moved anywhere: sleep briefly instead of
            // spinning. Short enough that a new request adds ~100µs of
            // latency at worst, long enough to keep an idle pool off
            // the CPUs.
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Drive one connection as far as it will go without blocking:
/// ingest bytes, reassemble and serve frames, resolve finished query
/// tickets, flush replies, and reap if stalled or idle.
fn poll_conn(shared: &ServerShared, conn: &mut Conn) -> Poll {
    let mut progress = false;

    // Ingest: read until the socket would block (bounded per poll so
    // one firehose connection cannot starve its worker siblings).
    let mut chunk = [0u8; 16 * 1024];
    for _ in 0..8 {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Poll::Close,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Close,
        }
    }

    // Reassemble: serve every complete frame in the buffer.
    let mut consumed = 0;
    while conn.read_buf.len() - consumed >= 4 {
        let header: [u8; 4] =
            conn.read_buf[consumed..consumed + 4].try_into().expect("4-byte slice");
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME {
            // The stream cannot be resynced past a bogus length.
            return Poll::Close;
        }
        let end = consumed + 4 + len as usize;
        if conn.read_buf.len() < end {
            break;
        }
        let body = &conn.read_buf[consumed + 4..end];
        let reply = match Frame::decode(body) {
            Ok(frame) => serve_frame(shared, frame),
            Err(err) => PendingReply::Ready(Frame::Error {
                code: code::MALFORMED,
                message: err.to_string(),
            }),
        };
        conn.pending.push_back(reply);
        consumed = end;
        progress = true;
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
    // Clock the current incomplete frame from its first bytes; a
    // client trickling one byte at a time must not evade the read
    // deadline by counting as "active".
    conn.read_started =
        if conn.read_buf.is_empty() { None } else { conn.read_started.or(Some(Instant::now())) };

    // Resolve: move finished replies, in FIFO order, into the write
    // buffer. A ticket still running blocks the replies behind it (the
    // protocol orders responses per connection) but never the worker.
    while let Some(front) = conn.pending.front() {
        let frame = match front {
            PendingReply::Ready(_) => {
                let Some(PendingReply::Ready(frame)) = conn.pending.pop_front() else {
                    unreachable!("front was Ready")
                };
                frame
            }
            PendingReply::Query(ticket) => match ticket.try_result() {
                Some(outcome) => {
                    conn.pending.pop_front();
                    match outcome {
                        Ok(out) => Frame::QueryResult(reply_of(out.result)),
                        Err(err) => error_of(err),
                    }
                }
                None => break,
            },
            PendingReply::Explain(ticket) => match ticket.try_result() {
                Some(outcome) => {
                    conn.pending.pop_front();
                    match outcome {
                        Ok(out) => Frame::Explained { text: out.result.plan.explain() },
                        Err(err) => error_of(err),
                    }
                }
                None => break,
            },
        };
        // A reply no client could read is answered with an error instead.
        let body = crate::protocol::encode_body(&frame).unwrap_or_else(|err| {
            Frame::Error { code: code::UNSUPPORTED, message: err.to_string() }.encode()
        });
        conn.write_buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        conn.write_buf.extend_from_slice(&body);
        progress = true;
    }

    // Flush: hand the socket as much of the write buffer as it takes.
    while conn.write_at < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_at..]) {
            Ok(0) => return Poll::Close,
            Ok(n) => {
                conn.write_at += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Close,
        }
    }
    if conn.write_at == conn.write_buf.len() && conn.write_at > 0 {
        conn.write_buf.clear();
        conn.write_at = 0;
    }

    // Reap a connection stuck mid-frame past the deadline (stalled or
    // trickling) — reassembly state must not live forever.
    if let Some(started) = conn.read_started {
        if started.elapsed() > shared.config.read_deadline {
            return Poll::Close;
        }
    }
    if progress {
        conn.last_activity = Instant::now();
        return Poll::Progress;
    }
    // Reap a connection with no traffic and nothing owed.
    if conn.pending.is_empty()
        && conn.write_buf.is_empty()
        && conn.last_activity.elapsed() > shared.config.idle_timeout
    {
        return Poll::Close;
    }
    Poll::Idle
}

/// Serve one request frame: cheap catalog/metrics ops answer inline,
/// queries and explains go to the engine and answer by ticket.
fn serve_frame(shared: &ServerShared, frame: Frame) -> PendingReply {
    let session = &shared.session;
    let ready = |frame| PendingReply::Ready(frame);
    match frame {
        Frame::Ping => ready(Frame::Pong),
        Frame::Register { name, tuples } => {
            let tuples = tuples.into_iter().map(|(k, p)| Tuple::new(k, p)).collect();
            let handle = session.register(Relation::new(&name, tuples));
            ready(Frame::Registered { rows: handle.len() as u64, version: handle.version() })
        }
        Frame::Write { name, tuples } => {
            ready(match session.append(&name, tuples.into_iter().map(|(k, p)| Tuple::new(k, p))) {
                Ok(watermark) => Frame::Written { delta_len: watermark as u64 },
                Err(err) => Frame::Error { code: code::UNKNOWN_RELATION, message: err.to_string() },
            })
        }
        Frame::Query(q) => match submit(session, &q) {
            Ok(ticket) => PendingReply::Query(ticket),
            Err(err) => ready(err),
        },
        Frame::Explain(q) => match submit(session, &q) {
            Ok(ticket) => PendingReply::Explain(ticket),
            Err(err) => ready(err),
        },
        Frame::Metrics => {
            let m = session.scheduler().metrics();
            ready(Frame::MetricsReport(MetricsBody {
                submitted: m.submitted,
                completed: m.completed,
                rejected: m.rejected,
                deadline_missed: m.deadline_missed,
                partial_answers: m.partial_answers,
                degraded: m.degraded,
            }))
        }
        // Server-tagged frames are well-formed but not servable.
        other => ready(Frame::Error {
            code: code::UNSUPPORTED,
            message: format!("server cannot serve frame {other:?}"),
        }),
    }
}

/// Build and submit the [`QuerySpec`] a [`QueryBody`] describes, or
/// the `Error` frame explaining why it cannot run.
fn submit(session: &Session, q: &QueryBody) -> Result<QueryTicket, Frame> {
    let resolve = |name: &str| {
        session.relation(name).ok_or_else(|| Frame::Error {
            code: code::UNKNOWN_RELATION,
            message: format!("no relation named {name:?} is registered"),
        })
    };
    let r = resolve(&q.r)?;
    let s = resolve(&q.s)?;
    let mut spec = QuerySpec::join(&r, &s).priority(match q.priority {
        0 => Priority::Batch,
        2 => Priority::Interactive,
        _ => Priority::Normal,
    });
    if q.deadline_micros > 0 {
        spec = spec.deadline(Duration::from_micros(q.deadline_micros));
    }
    if q.rows_cap > 0 {
        spec = spec.collect_rows(q.rows_cap as usize);
    }
    session.submit(spec).map_err(|err| error_of(QueryError::Rejected(err)))
}

fn error_of(err: QueryError) -> Frame {
    let (code, message) = match &err {
        QueryError::Rejected(SubmitError::DeadlineInfeasible { .. }) => {
            (code::INFEASIBLE, err.to_string())
        }
        QueryError::Rejected(_) => (code::REJECTED, err.to_string()),
        QueryError::Panicked(_) => (code::PANICKED, err.to_string()),
    };
    Frame::Error { code, message }
}

/// Shape a finished query for the wire. A query nothing could
/// interrupt (no deadline, no row cap, no degraded budget) carries no
/// `Anytime` row and is complete by construction; a `capped` stop is reported complete too — the
/// caller got every row it asked for.
fn reply_of(result: PaperQueryResult) -> QueryResultBody {
    let (complete, coverage, range_coverage) = match &result.plan.anytime {
        Some(a) => (
            a.complete || a.capped,
            a.coverage,
            a.ranges.iter().map(|kr| (kr.lo, kr.hi, kr.fraction)).collect(),
        ),
        None => (true, 1.0, Vec::new()),
    };
    QueryResultBody {
        max_payload_sum: result.max_payload_sum,
        r_selected: result.r_selected as u64,
        s_selected: result.s_selected as u64,
        complete,
        coverage,
        rows: result.rows.unwrap_or_default(),
        range_coverage,
    }
}
