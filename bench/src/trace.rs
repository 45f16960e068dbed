//! Harness-side spans.
//!
//! Spans are recorded around the harness's own calls into each layer's
//! public functions — the engine is not instrumented. A span is
//! `(name, start, end, parent, op)`: spans of one operation share `op`,
//! `parent` is the span that caused it (0 = root). Spans marked
//! *derived* in the trace file are laid out from durations the engine
//! reports back (`QueryOutput::queue_wait`, `JoinStats` phases) rather
//! than from two harness clock reads.
//!
//! Everything stays in memory until [`Tracer::write`]; a disabled
//! tracer takes no lock and allocates nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle to a recorded span (index + 1; 0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
    derived: bool,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(span);
        SpanId(spans.len() as u32)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.ns(Instant::now());
        self.push(Span { name, start_ns: now, end_ns: now, parent: parent.0, op, derived: false })
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.lock().expect("a tracing thread panicked")[id.0 as usize - 1].end_ns = now;
    }

    /// Time `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span between two clock reads the harness already took.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        op: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span { name, start_ns, end_ns, parent: parent.0, op, derived: false })
    }

    /// Lay `parts` end to end from `start` as derived child spans of
    /// `parent` (durations reported by the engine, not clocked here).
    pub fn derive_sequence(
        &self,
        parent: SpanId,
        op: u64,
        start: Instant,
        parts: &[(&'static str, Duration)],
    ) -> Vec<SpanId> {
        if !self.enabled {
            return vec![SpanId::NONE; parts.len()];
        }
        let mut at = self.ns(start);
        parts
            .iter()
            .map(|&(name, dur)| {
                let end = at + dur.as_nanos() as u64;
                let id = self.push(Span {
                    name,
                    start_ns: at,
                    end_ns: end,
                    parent: parent.0,
                    op,
                    derived: true,
                });
                at = end;
                id
            })
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is
    /// the span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// Write every span plus the self-time summary as JSON.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time\": {{")?;
        let summary = self.self_times();
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let comma = if i + 1 < summary.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{comma}"
            )?;
        }
        writeln!(out, "}}, \"spans\": [")?;
        let spans = self.spans.lock().expect("a tracing thread panicked");
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op\": {}, \"derived\": {}}}{comma}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op,
                s.derived
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
