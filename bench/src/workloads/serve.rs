//! `serve_open`: open-loop load over the real TCP socket.
//!
//! An in-process `Server` (one connection worker) is driven through
//! **one** pipelined connection: a paced sender thread writes query
//! frames on a fixed schedule whether or not earlier ones were
//! answered, a receiver thread reads the FIFO replies. Latency is
//! clocked from the time a request was *due*, so a stall is charged to
//! every request it delays, and generator lateness is reported. The
//! relations are small (merge ≈ 0.2 ms), so frame decode, the poll
//! loop, admission and reply encode dominate — and this is the only
//! workload that builds a queue, so the only one where the idle sleep,
//! the degraded budget and batched admission can show.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mpsm_core::Tuple;
use mpsm_exec::{RunCacheConfig, Session};
use mpsm_serve::protocol::{Frame, QueryBody, QueryResultBody, MAX_FRAME};
use mpsm_serve::{Client, QueryRequest, Server, ServerConfig, ServerHandle};

use super::{scheduler_config, Factory, Op, Scale, Window, Workload, SERVER_WORKERS};
use crate::gen::dense_relation;
use crate::metrics::OPEN_RATES;
use crate::stats::{mean, percentile, sorted};
use crate::trace::{SpanId, Tracer};

/// Deadline every Interactive query carries.
const INTERACTIVE_DEADLINE_MICROS: u64 = 20_000;
/// Every 8th query asks for this many joined rows.
const ROWS_CAP: u32 = 1024;
/// Request kinds repeat with this period (3 priorities x every-8th cap).
const KIND_CYCLE: usize = 24;
/// Once a phase's last request is sent, a connection that delivers no
/// reply for this long has failed every request still outstanding.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);
/// Latency limit (p95, from the due time) a rate must meet to count as
/// sustained.
const SLA_P95_MS: f64 = 10.0;
/// Mean coverage a rate must keep to count as sustained.
const SLA_COVERAGE: f64 = 0.95;
/// Requests the backlog may grow by between mid-phase and phase end.
const BACKLOG_SLACK: u64 = 16;
/// Share of a full window spent on the base rate, whose latencies are
/// the headline; the other rates split the rest evenly.
const BASE_SHARE: f64 = 0.5;

pub struct ServeInputs {
    r: Vec<Tuple>,
    s: Vec<Tuple>,
}

impl ServeInputs {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let n = scale.tuples(15);
        ServeInputs {
            r: dense_relation(n, 0, seed ^ 0x0152),
            s: dense_relation(n, 0, seed ^ 0x0153),
        }
    }
}

impl ServeInputs {
    /// The generated `(R, S)`, for an in-process twin of the served
    /// session.
    pub fn relations(&self) -> (&[Tuple], &[Tuple]) {
        (&self.r, &self.s)
    }
}

fn wire(tuples: &[Tuple]) -> Vec<(u64, u64)> {
    tuples.iter().map(|t| (t.key, t.payload)).collect()
}

impl Factory for ServeInputs {
    fn setup(&self) -> Result<Box<dyn Workload + '_>, String> {
        Ok(Box::new(ServeWorkload::start(self)?))
    }
}

pub struct ServeWorkload {
    /// Dropped last: shuts the server down and joins its threads.
    _server: ServerHandle,
    addr: SocketAddr,
    control: Client,
    n: usize,
    windows: u64,
}

/// One request kind of the repeating cycle.
#[derive(Debug, Clone)]
struct Kind {
    capped: bool,
    frame: Vec<u8>,
}

fn kinds() -> Vec<Kind> {
    (0..KIND_CYCLE)
        .map(|k| {
            let priority = (k % 3) as u8;
            let capped = k % 8 == 7;
            let body = Frame::Query(QueryBody {
                r: "R".to_string(),
                s: "S".to_string(),
                deadline_micros: if priority == 2 { INTERACTIVE_DEADLINE_MICROS } else { 0 },
                priority,
                rows_cap: if capped { ROWS_CAP } else { 0 },
            })
            .encode();
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            Kind { capped, frame }
        })
        .collect()
}

/// What one fixed-rate phase measured.
pub struct Phase {
    pub rate: u32,
    pub sent: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Every verified reply, clocked from its due time.
    pub ops: Vec<Op>,
    pub late_us: Vec<f64>,
    pub outstanding_max: u64,
    pub outstanding_mid: u64,
    pub outstanding_end: u64,
}

impl Phase {
    pub fn coverage(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.ops.iter().map(|op| op.credit).sum::<f64>() / self.sent as f64
        }
    }

    /// Latencies from the due time, ascending, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        sorted(self.ops.iter().map(Op::latency_ms).collect())
    }

    /// Whether the service *sustained* this rate: latency limit met,
    /// coverage kept, nothing failed, no growing backlog.
    pub fn sustained(&self) -> bool {
        percentile(&self.latencies_ms(), 95.0) <= SLA_P95_MS
            && self.coverage() >= SLA_COVERAGE
            && self.failed == 0
            && self.outstanding_end <= self.outstanding_mid + BACKLOG_SLACK
    }
}

impl ServeWorkload {
    pub fn start(inputs: &ServeInputs) -> Result<Self, String> {
        let session = Session::with_run_cache(scheduler_config(), RunCacheConfig::default());
        let server = Server::bind_with(
            "127.0.0.1:0",
            session,
            ServerConfig::default().workers(SERVER_WORKERS),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let addr = handle.addr();
        let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        control.register("R", wire(&inputs.r)).map_err(|e| format!("register R: {e}"))?;
        control.register("S", wire(&inputs.s)).map_err(|e| format!("register S: {e}"))?;
        let n = inputs.r.len();
        // Pays the compulsory run-cache misses.
        let warm = control.query(&QueryRequest::new("R", "S")).map_err(|e| format!("warm: {e}"))?;
        verify(&warm, false, n)?;
        Ok(ServeWorkload { _server: handle, addr, control, n, windows: 0 })
    }

    pub fn control(&mut self) -> &mut Client {
        &mut self.control
    }

    /// Drive one fixed-rate phase over a fresh pipelined connection.
    pub fn phase(&self, rate: u32, duration: Duration, tracer: &Tracer, op_base: u64) -> Phase {
        let kinds = kinds();
        let count = ((rate as f64 * duration.as_secs_f64()).round() as u64).max(1);
        let period = Duration::from_secs_f64(1.0 / rate as f64);
        let mut phase = Phase {
            rate,
            sent: 0,
            failed: 0,
            first_failure: None,
            ops: Vec::with_capacity(count as usize),
            late_us: Vec::new(),
            outstanding_max: 0,
            outstanding_mid: 0,
            outstanding_end: 0,
        };
        let stream = match TcpStream::connect(self.addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_millis(50)))?;
            Ok(s)
        }) {
            Ok(stream) => stream,
            Err(e) => {
                phase.sent = count;
                phase.failed = count;
                phase.first_failure = Some(format!("connect at {rate} q/s: {e}"));
                return phase;
            }
        };
        let received = AtomicU64::new(0);
        let sender_done = AtomicBool::new(false);
        let start = Instant::now() + Duration::from_millis(2);
        let due = |k: u64| start + period.mul_f64(k as f64);
        let n = self.n;

        struct Sent {
            at: Vec<Instant>,
            outstanding_max: u64,
            outstanding_mid: u64,
            outstanding_end: u64,
            error: Option<String>,
        }
        struct Received {
            /// `(arrival, decode end, verdict)` per reply.
            replies: Vec<(Instant, Instant, Result<f64, String>)>,
            error: Option<String>,
        }

        let (sent, got) = std::thread::scope(|scope| {
            let (received, sender_done, kinds) = (&received, &sender_done, &kinds);
            let mut writer = &stream;
            let sender = scope.spawn(move || {
                let mut log = Sent {
                    at: Vec::with_capacity(count as usize),
                    outstanding_max: 0,
                    outstanding_mid: 0,
                    outstanding_end: 0,
                    error: None,
                };
                for k in 0..count {
                    // Sleep to the due time, never spin: on a two-thread
                    // box a spinning generator takes from the server the
                    // very cycles it is being timed on. What the sleep
                    // overshoots is reported as generator lateness.
                    if let Some(gap) = due(k).checked_duration_since(Instant::now()) {
                        std::thread::sleep(gap);
                    }
                    if let Err(e) = writer.write_all(&kinds[k as usize % KIND_CYCLE].frame) {
                        log.error = Some(format!("send {k}: {e}"));
                        break;
                    }
                    log.at.push(Instant::now());
                    let outstanding = (k + 1).saturating_sub(received.load(Ordering::Relaxed));
                    log.outstanding_max = log.outstanding_max.max(outstanding);
                    if k == count / 2 {
                        log.outstanding_mid = outstanding;
                    }
                    log.outstanding_end = outstanding;
                }
                sender_done.store(true, Ordering::SeqCst);
                log
            });
            let mut reader = FrameReader::new(&stream);
            let receiver = scope.spawn(move || {
                let mut log = Received { replies: Vec::with_capacity(count as usize), error: None };
                let mut quiet_since: Option<Instant> = None;
                while (log.replies.len() as u64) < count {
                    match reader.next_frame() {
                        Ok(Some(body)) => {
                            quiet_since = None;
                            let arrived = Instant::now();
                            let frame = Frame::decode(&body);
                            let decoded = Instant::now();
                            let k = log.replies.len();
                            let verdict = match frame {
                                Ok(Frame::QueryResult(reply)) => {
                                    verify(&reply, kinds[k % KIND_CYCLE].capped, n)
                                }
                                Ok(other) => Err(format!("reply {k} was {other:?}")),
                                Err(e) => Err(format!("reply {k} did not decode: {e}")),
                            };
                            log.replies.push((arrived, decoded, verdict));
                            received.store(log.replies.len() as u64, Ordering::Relaxed);
                        }
                        Ok(None) => {
                            log.error = Some("server closed the connection".to_string());
                            break;
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            // Quiet socket. Once the sender is done, a
                            // server that stays silent for the drain
                            // limit has lost the remaining requests.
                            if sender_done.load(Ordering::SeqCst) {
                                let since = *quiet_since.get_or_insert_with(Instant::now);
                                if since.elapsed() > DRAIN_LIMIT {
                                    break;
                                }
                            }
                        }
                        Err(e) => {
                            log.error = Some(format!("receive: {e}"));
                            break;
                        }
                    }
                }
                log
            });
            (
                sender.join().expect("sender thread panicked"),
                receiver.join().expect("receiver thread panicked"),
            )
        });

        phase.sent = count;
        phase.outstanding_max = sent.outstanding_max;
        phase.outstanding_mid = sent.outstanding_mid;
        phase.outstanding_end = sent.outstanding_end;
        phase.first_failure = sent.error.or(got.error);
        for (k, at) in sent.at.iter().enumerate() {
            phase.late_us.push(at.saturating_duration_since(due(k as u64)).as_secs_f64() * 1e6);
            let Some((arrived, decoded, verdict)) = got.replies.get(k) else {
                continue;
            };
            let op = op_base + k as u64;
            let root = tracer.record("open.request", due(k as u64), *arrived, SpanId::NONE, op);
            tracer.record("gen.send_lag", due(k as u64), *at, root, op);
            tracer.record("wire_and_server", *at, *arrived, root, op);
            tracer.record("protocol.decode_result", *arrived, *decoded, SpanId::NONE, op);
            match verdict {
                Ok(credit) => phase.ops.push(Op::between(start, due(k as u64), *arrived, *credit)),
                Err(why) => {
                    phase.failed += 1;
                    phase.first_failure.get_or_insert_with(|| why.clone());
                }
            }
        }
        // Anything sent without a verified reply inside the drain limit,
        // or never sent at all, failed.
        let unanswered = count - got.replies.len() as u64;
        phase.failed += unanswered;
        if unanswered > 0 {
            phase.first_failure.get_or_insert_with(|| {
                format!("{unanswered} of {count} requests at {rate} q/s went unanswered")
            });
        }
        phase
    }
}

/// Incremental frame reassembly over a socket with a read timeout: a
/// timeout in the middle of a frame keeps the bytes already received.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
    consumed: usize,
}

impl<'a> FrameReader<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        FrameReader { stream, buf: Vec::with_capacity(64 << 10), consumed: 0 }
    }

    /// The next frame body; `Ok(None)` when the peer closed the stream.
    fn next_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            let pending = &self.buf[self.consumed..];
            if let Some(header) = pending.first_chunk::<4>() {
                let len = u32::from_le_bytes(*header);
                if len > MAX_FRAME {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds MAX_FRAME"),
                    ));
                }
                if let Some(body) = pending.get(4..4 + len as usize) {
                    let body = body.to_vec();
                    self.consumed += 4 + len as usize;
                    return Ok(Some(body));
                }
            }
            self.buf.drain(..self.consumed);
            self.consumed = 0;
            let mut chunk = [0u8; 64 << 10];
            match self.stream.read(&mut chunk)? {
                0 => return Ok(None),
                got => self.buf.extend_from_slice(&chunk[..got]),
            }
        }
    }
}

/// Check one reply against the closed form. `R` and `S` hold every key
/// in `0..n` once with payload = key, the private side is merged in key
/// order, so an answer covering `m` private tuples has seen exactly the
/// keys `0..m`: its max is `2 (m - 1)` and its rows are `(k, k, k)` for
/// `k` in order. Returns the credit the answer earns: 1 when the caller
/// got everything it asked for, the coverage for a verified prefix.
fn verify(reply: &QueryResultBody, capped: bool, n: usize) -> Result<f64, String> {
    if !(0.0..=1.0).contains(&reply.coverage) {
        return Err(format!("coverage {} outside [0, 1]", reply.coverage));
    }
    let merged = (reply.coverage * n as f64).round() as u64;
    let expected_max = merged.checked_sub(1).map(|top| 2 * top);
    if reply.max_payload_sum != expected_max {
        return Err(format!(
            "max {:?} with coverage {} (closed form for that prefix: {expected_max:?})",
            reply.max_payload_sum, reply.coverage
        ));
    }
    if let Some(bad) =
        reply.rows.iter().enumerate().position(|(i, &row)| row != (i as u64, i as u64, i as u64))
    {
        return Err(format!("row {bad} is {:?}: not a key-order prefix", reply.rows[bad]));
    }
    let rows_wanted = if capped { (ROWS_CAP as u64).min(n as u64) } else { 0 };
    if reply.rows.len() as u64 > rows_wanted {
        return Err(format!("{} rows returned, {rows_wanted} asked for", reply.rows.len()));
    }
    if reply.complete {
        let whole =
            if capped { reply.rows.len() as u64 == rows_wanted } else { merged == n as u64 };
        if !whole {
            return Err(format!(
                "marked complete with {} rows and coverage {}",
                reply.rows.len(),
                reply.coverage
            ));
        }
        Ok(1.0)
    } else {
        Ok(reply.coverage)
    }
}

impl Workload for ServeWorkload {
    fn run(&mut self, window: Duration, full: bool, tracer: &Tracer) -> Window {
        self.windows += 1;
        let mut out = Window { tuples_per_op: 2.0 * self.n as f64, ..Window::default() };
        let before = self.control.metrics().ok();
        let rates: &[u32] = if full { &OPEN_RATES } else { &OPEN_RATES[..1] };
        let base = if full { window.mul_f64(BASE_SHARE) } else { window };
        let other = window.saturating_sub(base).div_f64((rates.len() as f64 - 1.0).max(1.0));
        let mut phases = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            let duration = if i == 0 { base } else { other };
            let op_base = (self.windows << 40) | ((i as u64) << 32);
            phases.push(self.phase(rate, duration, tracer, op_base));
        }
        for phase in &phases {
            out.attempted += phase.sent;
            out.failed += phase.failed;
            if out.first_failure.is_none() {
                out.first_failure.clone_from(&phase.first_failure);
            }
        }
        // Headline latency at the base rate, goodput at the overload
        // rate (the last one).
        out.ops.clone_from(&phases[0].ops);
        if phases.len() > 1 {
            out.goodput_ops = Some(phases[phases.len() - 1].ops.clone());
        }
        if full {
            layer_metrics(&mut out, &phases);
        }
        if let (Some(before), Ok(after)) = (before, self.control.metrics()) {
            out.layer.extend([
                ("sched.submitted", (after.submitted - before.submitted) as f64),
                ("sched.completed", (after.completed - before.completed) as f64),
                ("sched.degraded", (after.degraded - before.degraded) as f64),
                ("sched.deadline_missed", (after.deadline_missed - before.deadline_missed) as f64),
                ("sched.partial_answers", (after.partial_answers - before.partial_answers) as f64),
            ]);
        }
        out
    }
}

/// The per-rate numbers of a full ladder, as per-layer metrics and
/// diagnostics.
pub fn layer_metrics(out: &mut Window, phases: &[Phase]) {
    const NAMES: [[&str; 3]; 6] = [
        ["open.r500.p50_ms", "open.r500.p95_ms", "open.r500.coverage"],
        ["open.r1000.p50_ms", "open.r1000.p95_ms", "open.r1000.coverage"],
        ["open.r1500.p50_ms", "open.r1500.p95_ms", "open.r1500.coverage"],
        ["open.r2000.p50_ms", "open.r2000.p95_ms", "open.r2000.coverage"],
        ["open.r3000.p50_ms", "open.r3000.p95_ms", "open.r3000.coverage"],
        ["open.r4000.p50_ms", "open.r4000.p95_ms", "open.r4000.coverage"],
    ];
    let mut max_rate = 0.0;
    let mut late = Vec::new();
    let mut outstanding_max = 0;
    for (phase, names) in phases.iter().zip(NAMES) {
        let latencies = phase.latencies_ms();
        out.layer.extend([
            (names[0], percentile(&latencies, 50.0)),
            (names[1], percentile(&latencies, 95.0)),
            (names[2], phase.coverage()),
        ]);
        out.diag(&format!("open.r{}.p99_ms", phase.rate), percentile(&latencies, 99.0), "ms");
        if phase.sustained() {
            max_rate = phase.rate as f64;
        }
        late.extend_from_slice(&phase.late_us);
        outstanding_max = outstanding_max.max(phase.outstanding_max);
    }
    let overload = &phases[phases.len() - 1];
    out.layer.extend([
        ("open.max_rate_qps", max_rate),
        ("open.overload_coverage", overload.coverage()),
        ("server.outstanding_max", outstanding_max as f64),
        ("gen.late_p95_us", percentile(&sorted(late.clone()), 95.0)),
    ]);
    out.diag("gen.late_mean_us", mean(&late), "us");
}
