//! The wire format: length-prefixed frames over a byte stream.
//!
//! Every frame is `u32` little-endian body length, then the body: one
//! tag byte followed by tag-specific fields. Integers are
//! little-endian, `f64` travels as its IEEE-754 bit pattern, strings
//! and sequences carry a `u32` count first. Client tags occupy
//! `0x01..=0x7F`, server tags set the high bit; [`Frame::Error`]
//! (`0xEE`) reports failures with a stable numeric code so clients can
//! react without parsing prose.
//!
//! The framing layer and the body codec fail independently:
//! [`read_raw`] only errors on transport problems (or a length prefix
//! beyond [`MAX_FRAME`], after which the stream cannot be resynced),
//! while [`Frame::decode`] returns [`DecodeError`] for a malformed
//! body. A server can therefore answer garbage with an `Error` frame
//! and keep the connection — the next length prefix is still trustworthy.
//!
//! Frames carry no version field. Peers must come from the same build:
//! a body whose layout changed between builds (the `MetricsReport` body
//! lost its `shed` counter, 7 → 6 `u64`s) fails cleanly with
//! [`DecodeError::Truncated`] or [`DecodeError::TrailingBytes`], never
//! with misread fields.

use std::io::{self, Read, Write};

/// Hard cap on a frame body, in bytes. A length prefix beyond this is
/// treated as stream corruption (the connection cannot be resynced),
/// not as a request for a giant allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Stable error codes carried by [`Frame::Error`]. Code 5 is retired
/// (it once meant "evicted from the queue") and is never reused.
pub mod code {
    /// The frame body did not parse.
    pub const MALFORMED: u16 = 1;
    /// A query or write named a relation the server does not know.
    pub const UNKNOWN_RELATION: u16 = 2;
    /// Admission rejected the query because the server is shutting
    /// down. Overload never rejects: it degrades.
    pub const REJECTED: u16 = 3;
    /// Admission rejected the query: its deadline is below the
    /// server's feasibility floor (or zero).
    pub const INFEASIBLE: u16 = 4;
    /// The query panicked inside the engine.
    pub const PANICKED: u16 = 6;
    /// The frame parsed but the server does not serve it (e.g. a
    /// server-tagged frame sent by a client).
    pub const UNSUPPORTED: u16 = 7;
}

/// Why a frame body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the fields it promised.
    Truncated,
    /// The tag byte names no known frame.
    UnknownTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A count field promises more items than the body could hold.
    BadCount(u32),
    /// Fields decoded, but bytes were left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame body truncated"),
            DecodeError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::BadCount(n) => write!(f, "count field {n} exceeds the body"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One protocol frame, client- or server-originated.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Liveness probe.
    Ping,
    /// Register (or replace) a relation under `name`.
    Register {
        /// Catalog name.
        name: String,
        /// The relation's `(key, payload)` tuples.
        tuples: Vec<(u64, u64)>,
    },
    /// Run the paper query `max(R.payload + S.payload)` over the two
    /// named relations.
    Query(QueryBody),
    /// Like `Query`, but respond with the executed plan's EXPLAIN text
    /// instead of the result values.
    Explain(QueryBody),
    /// Append tuples to a registered relation's delta log.
    Write {
        /// Catalog name.
        name: String,
        /// Tuples to append.
        tuples: Vec<(u64, u64)>,
    },
    /// Request the scheduler's lifetime counters.
    Metrics,
    /// Server reply to [`Frame::Ping`].
    Pong,
    /// Server reply to [`Frame::Register`].
    Registered {
        /// Rows the relation holds.
        rows: u64,
        /// Catalog version assigned to it.
        version: u64,
    },
    /// Server reply to [`Frame::Query`].
    QueryResult(QueryResultBody),
    /// Server reply to [`Frame::Explain`]: the plan text.
    Explained {
        /// `QueryPlan::explain()` output.
        text: String,
    },
    /// Server reply to [`Frame::Write`].
    Written {
        /// Delta-log length after the append.
        delta_len: u64,
    },
    /// Server reply to [`Frame::Metrics`].
    MetricsReport(MetricsBody),
    /// Server-reported failure (see [`code`]).
    Error {
        /// Stable numeric code from [`code`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// The query description shared by [`Frame::Query`] and
/// [`Frame::Explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBody {
    /// Private-side relation name.
    pub r: String,
    /// Public-side relation name.
    pub s: String,
    /// SLA deadline in microseconds; `0` means none. Non-zero makes
    /// the query's merge interruptible at the deadline.
    pub deadline_micros: u64,
    /// Admission class: `0` batch, `1` normal, `2` interactive.
    pub priority: u8,
    /// Collect up to this many joined rows (key order); `0` collects
    /// none.
    pub rows_cap: u32,
}

/// The result values for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResultBody {
    /// `max(R.payload + S.payload)`, `None` if the (covered part of
    /// the) join is empty.
    pub max_payload_sum: Option<u64>,
    /// Tuples entering the join from R.
    pub r_selected: u64,
    /// Tuples entering the join from S.
    pub s_selected: u64,
    /// Whether the merge ran to completion. `false` means a deadline
    /// hit: the values cover a key-order prefix of the join.
    pub complete: bool,
    /// Fraction of the private input merged, in `[0, 1]`.
    pub coverage: f64,
    /// Joined `(key, r_payload, s_payload)` rows, capped by the
    /// request's `rows_cap`.
    pub rows: Vec<(u64, u64, u64)>,
    /// Per-key-range coverage histogram: `(lo, hi, fraction)` per
    /// private run, ascending and disjoint. Tells a client *which*
    /// part of the key space a partial answer covers, not just how
    /// much. Empty when the query never ran the anytime merge.
    pub range_coverage: Vec<(u64, u64, f64)>,
}

/// Scheduler lifetime counters, as served to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsBody {
    /// Queries admitted.
    pub submitted: u64,
    /// Queries finished successfully.
    pub completed: u64,
    /// Queries rejected at submit.
    pub rejected: u64,
    /// Queries that finished past their deadline.
    pub deadline_missed: u64,
    /// Queries that returned partial (coverage < 100%) answers.
    pub partial_answers: u64,
    /// Queries admitted in degraded mode (forced tight anytime budget)
    /// under overload, instead of being rejected.
    pub degraded: u64,
}

const TAG_PING: u8 = 0x01;
const TAG_REGISTER: u8 = 0x02;
const TAG_QUERY: u8 = 0x03;
const TAG_EXPLAIN: u8 = 0x04;
const TAG_WRITE: u8 = 0x05;
const TAG_METRICS: u8 = 0x06;
const TAG_PONG: u8 = 0x81;
const TAG_REGISTERED: u8 = 0x82;
const TAG_QUERY_RESULT: u8 = 0x83;
const TAG_EXPLAINED: u8 = 0x84;
const TAG_WRITTEN: u8 = 0x85;
const TAG_METRICS_REPORT: u8 = 0x86;
const TAG_ERROR: u8 = 0xEE;

/// Byte-level body writer.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn string(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v.as_bytes());
    }
    fn pairs(&mut self, v: &[(u64, u64)]) {
        self.u32(v.len() as u32);
        for &(a, b) in v {
            self.u64(a);
            self.u64(b);
        }
    }
}

/// Byte-level body reader over a borrowed frame body.
struct Dec<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.body.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()?;
        let bytes = self.counted(len, 1)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    fn pairs(&mut self) -> Result<Vec<(u64, u64)>, DecodeError> {
        let n = self.u32()?;
        let bytes = self.counted(n, 16)?;
        Ok(bytes.chunks_exact(16).map(pair_of).collect())
    }
    fn triples(&mut self) -> Result<Vec<(u64, u64, u64)>, DecodeError> {
        let n = self.u32()?;
        let bytes = self.counted(n, 24)?;
        Ok(bytes
            .chunks_exact(24)
            .map(|c| {
                let (a, b) = pair_of(&c[..16]);
                (a, b, u64::from_le_bytes(c[16..24].try_into().expect("chunk of 24")))
            })
            .collect())
    }
    fn ranges(&mut self) -> Result<Vec<(u64, u64, f64)>, DecodeError> {
        let n = self.u32()?;
        let bytes = self.counted(n, 24)?;
        Ok(bytes
            .chunks_exact(24)
            .map(|c| {
                let (lo, hi) = pair_of(&c[..16]);
                (lo, hi, f64::from_bits(u64::from_le_bytes(c[16..24].try_into().expect("chunk"))))
            })
            .collect())
    }
    /// Take `count * item_bytes`, rejecting counts the body cannot
    /// hold *before* allocating (a hostile count must not OOM the
    /// server).
    fn counted(&mut self, count: u32, item_bytes: usize) -> Result<&'a [u8], DecodeError> {
        let total = (count as usize).checked_mul(item_bytes).ok_or(DecodeError::BadCount(count))?;
        if total > self.body.len().saturating_sub(self.at) {
            return Err(DecodeError::BadCount(count));
        }
        self.take(total)
    }
    fn finish(self) -> Result<(), DecodeError> {
        match self.body.len() - self.at {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

fn pair_of(c: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(c[..8].try_into().expect("chunk of 16")),
        u64::from_le_bytes(c[8..16].try_into().expect("chunk of 16")),
    )
}

impl Frame {
    /// Encode the frame body (tag byte included, length prefix not).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        match self {
            Frame::Ping => e.u8(TAG_PING),
            Frame::Register { name, tuples } => {
                e.u8(TAG_REGISTER);
                e.string(name);
                e.pairs(tuples);
            }
            Frame::Query(q) => {
                e.u8(TAG_QUERY);
                encode_query(&mut e, q);
            }
            Frame::Explain(q) => {
                e.u8(TAG_EXPLAIN);
                encode_query(&mut e, q);
            }
            Frame::Write { name, tuples } => {
                e.u8(TAG_WRITE);
                e.string(name);
                e.pairs(tuples);
            }
            Frame::Metrics => e.u8(TAG_METRICS),
            Frame::Pong => e.u8(TAG_PONG),
            Frame::Registered { rows, version } => {
                e.u8(TAG_REGISTERED);
                e.u64(*rows);
                e.u64(*version);
            }
            Frame::QueryResult(r) => {
                e.u8(TAG_QUERY_RESULT);
                e.u8(u8::from(r.max_payload_sum.is_some()));
                e.u64(r.max_payload_sum.unwrap_or(0));
                e.u64(r.r_selected);
                e.u64(r.s_selected);
                e.u8(u8::from(r.complete));
                e.f64(r.coverage);
                e.u32(r.rows.len() as u32);
                for &(k, rp, sp) in &r.rows {
                    e.u64(k);
                    e.u64(rp);
                    e.u64(sp);
                }
                e.u32(r.range_coverage.len() as u32);
                for &(lo, hi, fraction) in &r.range_coverage {
                    e.u64(lo);
                    e.u64(hi);
                    e.f64(fraction);
                }
            }
            Frame::Explained { text } => {
                e.u8(TAG_EXPLAINED);
                e.string(text);
            }
            Frame::Written { delta_len } => {
                e.u8(TAG_WRITTEN);
                e.u64(*delta_len);
            }
            Frame::MetricsReport(m) => {
                e.u8(TAG_METRICS_REPORT);
                for v in [
                    m.submitted,
                    m.completed,
                    m.rejected,
                    m.deadline_missed,
                    m.partial_answers,
                    m.degraded,
                ] {
                    e.u64(v);
                }
            }
            Frame::Error { code, message } => {
                e.u8(TAG_ERROR);
                e.u16(*code);
                e.string(message);
            }
        }
        e.0
    }

    /// Decode one frame body (as delimited by the length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame, DecodeError> {
        let mut d = Dec { body, at: 0 };
        let frame = match d.u8()? {
            TAG_PING => Frame::Ping,
            TAG_REGISTER => Frame::Register { name: d.string()?, tuples: d.pairs()? },
            TAG_QUERY => Frame::Query(decode_query(&mut d)?),
            TAG_EXPLAIN => Frame::Explain(decode_query(&mut d)?),
            TAG_WRITE => Frame::Write { name: d.string()?, tuples: d.pairs()? },
            TAG_METRICS => Frame::Metrics,
            TAG_PONG => Frame::Pong,
            TAG_REGISTERED => Frame::Registered { rows: d.u64()?, version: d.u64()? },
            TAG_QUERY_RESULT => {
                let has_max = d.u8()? != 0;
                let max = d.u64()?;
                Frame::QueryResult(QueryResultBody {
                    max_payload_sum: has_max.then_some(max),
                    r_selected: d.u64()?,
                    s_selected: d.u64()?,
                    complete: d.u8()? != 0,
                    coverage: d.f64()?,
                    rows: d.triples()?,
                    range_coverage: d.ranges()?,
                })
            }
            TAG_EXPLAINED => Frame::Explained { text: d.string()? },
            TAG_WRITTEN => Frame::Written { delta_len: d.u64()? },
            TAG_METRICS_REPORT => Frame::MetricsReport(MetricsBody {
                submitted: d.u64()?,
                completed: d.u64()?,
                rejected: d.u64()?,
                deadline_missed: d.u64()?,
                partial_answers: d.u64()?,
                degraded: d.u64()?,
            }),
            TAG_ERROR => Frame::Error { code: d.u16()?, message: d.string()? },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        d.finish()?;
        Ok(frame)
    }

    /// Whether this frame carries a server tag (high bit set).
    pub fn is_server_frame(&self) -> bool {
        self.encode()[0] & 0x80 != 0
    }
}

fn encode_query(e: &mut Enc, q: &QueryBody) {
    e.string(&q.r);
    e.string(&q.s);
    e.u64(q.deadline_micros);
    e.u8(q.priority);
    e.u32(q.rows_cap);
}

fn decode_query(d: &mut Dec<'_>) -> Result<QueryBody, DecodeError> {
    Ok(QueryBody {
        r: d.string()?,
        s: d.string()?,
        deadline_micros: d.u64()?,
        priority: d.u8()?,
        rows_cap: d.u32()?,
    })
}

/// Encode one frame body; a body longer than [`MAX_FRAME`] is refused
/// with [`io::ErrorKind::InvalidInput`], since no peer would read it.
pub fn encode_body(frame: &Frame) -> io::Result<Vec<u8>> {
    let body = frame.encode();
    if body.len() > MAX_FRAME as usize {
        let message = format!("frame body of {} bytes exceeds MAX_FRAME {MAX_FRAME}", body.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
    }
    Ok(body)
}

/// Write one frame: length prefix, then the encoded body.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body = encode_body(frame)?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Read one raw frame body. `Ok(None)` means the peer closed the
/// stream cleanly at a frame boundary; a close inside a frame is
/// [`io::ErrorKind::UnexpectedEof`]. A length prefix beyond
/// [`MAX_FRAME`] is [`io::ErrorKind::InvalidData`] — the stream cannot
/// be resynced past it.
pub fn read_raw(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = Vec::with_capacity(4);
    r.by_ref().take(4).read_to_end(&mut len)?;
    let len = match <[u8; 4]>::try_from(len) {
        Ok(len) => u32::from_le_bytes(len),
        Err(len) if len.is_empty() => return Ok(None),
        Err(_) => return Err(io::ErrorKind::UnexpectedEof.into()),
    };
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Read and decode one frame. Transport failures surface as
/// `Err(io::Error)`, a clean close as `Ok(None)`, and a malformed body
/// as `Ok(Some(Err(DecodeError)))` — the caller can answer the latter
/// and keep reading.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Result<Frame, DecodeError>>> {
    Ok(read_raw(r)?.map(|body| Frame::decode(&body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let body = frame.encode();
        assert_eq!(Frame::decode(&body).expect("frame decodes"), frame);
    }

    fn sample_query() -> QueryBody {
        QueryBody {
            r: "R".to_string(),
            s: "S".to_string(),
            deadline_micros: 1_500,
            priority: 2,
            rows_cap: 10,
        }
    }

    /// One frame of every variant (two of `QueryResult`: with and
    /// without a maximum and rows).
    fn every_frame() -> Vec<Frame> {
        vec![
            Frame::Ping,
            Frame::Register { name: "R".to_string(), tuples: vec![(1, 2), (3, 4)] },
            Frame::Query(sample_query()),
            Frame::Explain(sample_query()),
            Frame::Write { name: "S".to_string(), tuples: vec![] },
            Frame::Metrics,
            Frame::Pong,
            Frame::Registered { rows: 100, version: 3 },
            Frame::QueryResult(QueryResultBody {
                max_payload_sum: Some(42),
                r_selected: 7,
                s_selected: 9,
                complete: false,
                coverage: 0.625,
                rows: vec![(1, 2, 3), (4, 5, 6)],
                range_coverage: vec![(0, 99, 1.0), (100, 199, 0.25)],
            }),
            Frame::QueryResult(QueryResultBody {
                max_payload_sum: None,
                r_selected: 0,
                s_selected: 0,
                complete: true,
                coverage: 1.0,
                rows: vec![],
                range_coverage: vec![],
            }),
            Frame::Explained { text: "Queue [wait = 0.1 ms]\n".to_string() },
            Frame::Written { delta_len: 12 },
            Frame::MetricsReport(MetricsBody {
                submitted: 1,
                completed: 2,
                rejected: 3,
                deadline_missed: 4,
                partial_answers: 5,
                degraded: 6,
            }),
            Frame::Error { code: code::MALFORMED, message: "nope".to_string() },
        ]
    }

    #[test]
    fn every_frame_type_roundtrips() {
        for frame in every_frame() {
            roundtrip(frame);
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert_eq!(Frame::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Frame::decode(&[0x42]), Err(DecodeError::UnknownTag(0x42)));
        // Register with a string length promising more than the body.
        let mut body = vec![0x02];
        body.extend_from_slice(&100u32.to_le_bytes());
        body.push(b'R');
        assert_eq!(Frame::decode(&body), Err(DecodeError::BadCount(100)));
        // A hostile tuple count must not allocate: u32::MAX entries.
        let mut body = vec![0x02];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'R');
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&body), Err(DecodeError::BadCount(u32::MAX)));
        // Invalid UTF-8 in a name.
        let mut body = vec![0x02];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(0xFF);
        body.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Frame::decode(&body), Err(DecodeError::BadUtf8));
        // Trailing bytes after a complete frame.
        let mut body = Frame::Ping.encode();
        body.push(0);
        assert_eq!(Frame::decode(&body), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn stream_io_roundtrips_and_reports_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ping).expect("write");
        write_frame(&mut buf, &Frame::Metrics).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("io"), Some(Ok(Frame::Ping)));
        assert_eq!(read_frame(&mut r).expect("io"), Some(Ok(Frame::Metrics)));
        assert_eq!(read_frame(&mut r).expect("io"), None, "clean close at a boundary");
    }

    #[test]
    fn a_stream_ending_inside_the_length_prefix_is_not_a_clean_close() {
        let err = read_raw(&mut &[0x01u8, 0x00][..]).expect_err("truncated prefix");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_a_transport_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_raw(&mut &buf[..]).expect_err("oversized frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn server_tags_set_the_high_bit() {
        assert!(!Frame::Ping.is_server_frame());
        assert!(!Frame::Query(sample_query()).is_server_frame());
        assert!(Frame::Pong.is_server_frame());
        assert!(Frame::Error { code: 1, message: String::new() }.is_server_frame());
    }

    /// The decoder's oracle: a body decodes to a frame whose encoding
    /// decodes back to the same bytes, or fails with a [`DecodeError`].
    /// A panic fails the caller with the input that caused it.
    fn decode_or_typed_error(body: &[u8]) {
        let outcome = std::panic::catch_unwind(|| match Frame::decode(body) {
            Ok(frame) => {
                let canonical = frame.encode();
                let again = Frame::decode(&canonical).expect("a decoded frame re-encodes validly");
                assert_eq!(again.encode(), canonical, "re-encoding is stable");
            }
            Err(_typed) => {}
        });
        assert!(outcome.is_ok(), "decoding panicked on body {body:02x?}");
    }

    /// The framing layer's oracle over a byte stream: read frames until
    /// a clean close or a transport error, decoding each body; only the
    /// two documented error kinds may come back, and nothing panics.
    fn read_stream_or_typed_error(stream: &[u8]) {
        let outcome = std::panic::catch_unwind(|| {
            let mut cursor = io::Cursor::new(stream);
            loop {
                match read_raw(&mut cursor) {
                    Ok(Some(body)) => decode_or_typed_error(&body),
                    Ok(None) => break,
                    Err(e) => {
                        let kind = e.kind();
                        assert!(
                            matches!(
                                kind,
                                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                            ),
                            "unexpected transport error {kind:?}"
                        );
                        break;
                    }
                }
            }
        });
        assert!(outcome.is_ok(), "reading panicked on stream {stream:02x?}");
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut stream = (body.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(body);
        stream
    }

    #[test]
    fn mutated_frames_decode_or_fail_typed_never_panic() {
        let seeds: Vec<Vec<u8>> = every_frame().iter().map(Frame::encode).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound.max(1) as u64) as usize
        };
        let mut cases = 0usize;
        let mut check = |body: &[u8]| {
            decode_or_typed_error(body);
            read_stream_or_typed_error(&framed(body));
            cases += 1;
        };

        for seed in &seeds {
            // Every truncation.
            for len in 0..seed.len() {
                check(&seed[..len]);
            }
            // Length-field lies: a count overwritten at every offset
            // past the tag, so each `u32` count in the body is hit.
            for at in 1..seed.len().saturating_sub(3) {
                for lie in [0, 1, 0x7F, seed.len() as u32, MAX_FRAME, u32::MAX] {
                    let mut body = seed.clone();
                    body[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                    check(&body);
                }
            }
        }
        for _ in 0..1500 {
            // One to four bit flips in a random seed.
            let mut body = seeds[next(seeds.len())].clone();
            for _ in 0..=next(4) {
                let bit = next(body.len() * 8);
                body[bit / 8] ^= 1 << (bit % 8);
            }
            check(&body);
            // A splice: a prefix of one seed, then a suffix of another.
            let (a, b) = (&seeds[next(seeds.len())], &seeds[next(seeds.len())]);
            let mut spliced = a[..next(a.len() + 1)].to_vec();
            spliced.extend_from_slice(&b[next(b.len() + 1)..]);
            check(&spliced);
        }
        assert!(cases > 3000, "{cases} mutated bodies checked");

        // Whole streams: two valid frames back to back, with the length
        // prefixes themselves lied about or bits flipped anywhere.
        for _ in 0..500 {
            let mut stream = framed(&seeds[next(seeds.len())]);
            stream.extend_from_slice(&framed(&seeds[next(seeds.len())]));
            match next(3) {
                0 => {
                    let lie = [0, 1, stream.len() as u32, MAX_FRAME + 1, u32::MAX][next(5)];
                    stream[..4].copy_from_slice(&lie.to_le_bytes());
                }
                1 => {
                    let bit = next(stream.len() * 8);
                    stream[bit / 8] ^= 1 << (bit % 8);
                }
                _ => stream.truncate(next(stream.len())),
            }
            read_stream_or_typed_error(&stream);
        }
    }
}
