//! The six workloads and what they share: the fixed engine sizing, the
//! scale switch, and the result of one measured window.

pub mod htap;
pub mod join;
pub mod query;
pub mod serve;

use std::time::{Duration, Instant};

use mpsm_core::stats::{JoinStats, Phase};
use mpsm_exec::SchedulerConfig;

use crate::trace::Tracer;

/// Engine pool width `T`. The box has two hardware threads; everything
/// below is sized so the load generator never outnumbers them.
pub const POOL_THREADS: usize = 2;
/// Queries executing concurrently inside the scheduler.
pub const MAX_IN_FLIGHT: usize = 2;
/// Connection workers of the served workload.
pub const SERVER_WORKERS: usize = 1;
/// Upper bound on load-generating threads (and connections) of any
/// workload.
pub const LOAD_THREADS: usize = 2;

/// The one scheduler sizing every session in the benchmark uses.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig::new(POOL_THREADS).max_in_flight(MAX_IN_FLIGHT)
}

/// Full scale, or `--smoke`'s 1/16.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    shift: u32,
}

impl Scale {
    pub fn new(smoke: bool) -> Self {
        Scale { shift: if smoke { 4 } else { 0 } }
    }

    /// `2^log2` tuples at full scale.
    pub fn tuples(&self, log2: u32) -> usize {
        1usize << (log2 - self.shift)
    }

    /// A repeat or op count: `full` at full scale, 1/16 of it (at least
    /// 1) under `--smoke`.
    pub fn count(&self, full: usize) -> usize {
        (full >> self.shift).max(1)
    }

    pub fn is_smoke(&self) -> bool {
        self.shift > 0
    }
}

/// One verified operation: when it was issued (for open-loop load:
/// when it was *due*) and answered, in seconds from the window's start,
/// and the credit it earned — 1 for a complete answer, the coverage for
/// a verified prefix. Failed operations are counted, not sampled.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub start_s: f64,
    pub end_s: f64,
    pub credit: f64,
}

impl Op {
    pub fn between(epoch: Instant, start: Instant, end: Instant, credit: f64) -> Self {
        Op {
            start_s: start.saturating_duration_since(epoch).as_secs_f64(),
            end_s: end.saturating_duration_since(epoch).as_secs_f64(),
            credit,
        }
    }

    pub fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The operations the headline latencies are taken over.
    pub ops: Vec<Op>,
    /// The operations goodput is taken over, where they differ from
    /// `ops` (`serve_open`: latency at the base rate, goodput at the
    /// overload rate).
    pub goodput_ops: Option<Vec<Op>>,
    /// Input tuples one operation reads, `|R| + |S|`.
    pub tuples_per_op: f64,
    /// Per-layer numbers the workload measured on itself; they replace
    /// the fixed-size probe's numbers of the same name.
    pub layer: Vec<(&'static str, f64)>,
    /// Printed, not gated.
    pub diag: Vec<(String, f64, &'static str)>,
}

impl Window {
    /// Count one failed operation, keeping the first reason.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    pub fn diag(&mut self, name: &str, value: f64, unit: &'static str) {
        self.diag.push((name.to_string(), value, unit));
    }
}

/// The four phases' critical paths as derived spans, laid end to end.
pub fn phase_spans(stats: &JoinStats) -> [(&'static str, Duration); 4] {
    [
        ("join.phase1", stats.phase_critical(Phase::One)),
        ("join.phase2", stats.phase_critical(Phase::Two)),
        ("join.phase3", stats.phase_critical(Phase::Three)),
        ("join.phase4", stats.phase_critical(Phase::Four)),
    ]
}

/// A set-up engine ready to be measured.
pub trait Workload {
    /// Drive the workload for `window`. `full = false` asks only for
    /// the part the headline latency comes from (the short untraced
    /// reference of a traced run).
    fn run(&mut self, window: Duration, full: bool, tracer: &Tracer) -> Window;

    /// End-state check after the last window.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Generated inputs of one workload; `setup` may be called repeatedly.
pub trait Factory {
    /// Build the engine over the inputs and bring it to steady state:
    /// everything the program does before the first measured operation.
    /// `Err` when a warm-up answer was wrong or the engine did not start.
    fn setup(&self) -> Result<Box<dyn Workload + '_>, String>;
}

/// Generate the named workload's inputs from `seed`.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Factory>> {
    Some(match name {
        "join_uniform" => Box::new(join::JoinInputs::uniform(seed, scale)),
        "join_skew" => Box::new(join::JoinInputs::skew(seed, scale)),
        "query_cached" => Box::new(query::QueryInputs::cached(seed, scale)),
        "query_evict" => Box::new(query::QueryInputs::evict(seed, scale)),
        "htap_mixed" => Box::new(htap::HtapInputs::generate(seed, scale)),
        "serve_open" => Box::new(serve::ServeInputs::generate(seed, scale)),
        _ => return None,
    })
}
