//! `join_uniform` and `join_skew`: one P-MPSM join, run back to back on
//! one persistent context — the paper's own experiment (Figures 12 and
//! 16) and the only workloads where sort, scatter and splitter code is
//! on the blocking path of every operation.

use std::time::{Duration, Instant};

use mpsm_core::join::p_mpsm::PMpsmJoin;
use mpsm_core::sink::MaxAggSink;
use mpsm_core::stats::JoinStats;
use mpsm_core::{ExecContext, JoinAlgorithm, JoinConfig, Tuple};
use mpsm_workload::{fk_uniform, skewed_negative_correlation, KEY_DOMAIN};

use super::{phase_spans, Factory, Op, Scale, Window, Workload, POOL_THREADS};
use crate::gen::oracle_max_payload_sum;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Warmed iterations run inside set-up after the cold one, so the first
/// measured iteration already sees a warm allocator and sort scratch.
const WARM_ITERATIONS: usize = 2;

pub struct JoinInputs {
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    expected: Option<u64>,
}

impl JoinInputs {
    /// `fk_uniform(|R| = 2^20, m = 4)`: 5.2 M tuples, 84 MB — far out of
    /// this box's 4 MiB L2.
    pub fn uniform(seed: u64, scale: Scale) -> Self {
        let w = fk_uniform(scale.tuples(20), 4, seed);
        Self::checked(w.r, w.s)
    }

    /// R skewed to the high fifth of the key domain, S to the low fifth
    /// (Figure 16's negatively correlated worst case).
    pub fn skew(seed: u64, scale: Scale) -> Self {
        let w = skewed_negative_correlation(scale.tuples(20), 4, KEY_DOMAIN, seed);
        Self::checked(w.r, w.s)
    }

    fn checked(r: Vec<Tuple>, s: Vec<Tuple>) -> Self {
        let expected = oracle_max_payload_sum(&r, &s);
        JoinInputs { r, s, expected }
    }
}

impl Factory for JoinInputs {
    fn setup(&self) -> Result<Box<dyn Workload + '_>, String> {
        let cx = ExecContext::flat(POOL_THREADS);
        let join = PMpsmJoin::new(JoinConfig::with_threads(POOL_THREADS));
        let mut workload = JoinWorkload { inputs: self, cx, join, first_iter_ms: 0.0, op: 0 };
        let cold = Instant::now();
        let mut answers = vec![workload.iterate().0];
        workload.first_iter_ms = cold.elapsed().as_secs_f64() * 1e3;
        answers.extend((0..WARM_ITERATIONS).map(|_| workload.iterate().0));
        match answers.into_iter().find(|answer| *answer != self.expected) {
            Some(wrong) => {
                Err(format!("set-up join answered {wrong:?}, oracle says {:?}", self.expected))
            }
            None => Ok(Box::new(workload)),
        }
    }
}

struct JoinWorkload<'a> {
    inputs: &'a JoinInputs,
    cx: ExecContext,
    join: PMpsmJoin,
    first_iter_ms: f64,
    op: u64,
}

impl JoinWorkload<'_> {
    fn iterate(&self) -> (Option<u64>, JoinStats) {
        self.cx.reset_counters();
        self.join.join_in::<MaxAggSink>(&self.cx, &self.inputs.r, &self.inputs.s)
    }
}

impl Workload for JoinWorkload<'_> {
    fn run(&mut self, window: Duration, _full: bool, tracer: &Tracer) -> Window {
        let mut out = Window {
            tuples_per_op: (self.inputs.r.len() + self.inputs.s.len()) as f64,
            ..Window::default()
        };
        let mut phases: [Vec<f64>; 4] = Default::default();
        let (mut imbalance, mut coord_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < window {
            self.op += 1;
            let span = tracer.begin("join.join_in", SpanId::NONE, self.op);
            let t0 = Instant::now();
            let (result, stats) = self.iterate();
            let wall = t0.elapsed();
            tracer.end(span);
            tracer.derive_sequence(span, self.op, t0, &phase_spans(&stats));
            out.attempted += 1;
            if result == self.inputs.expected {
                out.ops.push(Op::between(start, t0, t0 + wall, 1.0));
            } else {
                let expected = self.inputs.expected;
                out.fail(|| format!("join answered {result:?}, oracle says {expected:?}"));
            }
            let wall_ms = wall.as_secs_f64() * 1e3;
            let phase_ms = stats.phases_ms();
            for (samples, ms) in phases.iter_mut().zip(phase_ms) {
                samples.push(ms);
            }
            imbalance.push(stats.imbalance());
            coord_ms.push(wall_ms - phase_ms.iter().sum::<f64>());
        }
        out.layer = vec![
            ("join.phase1_ms", median(&phases[0])),
            ("join.phase2_ms", median(&phases[1])),
            ("join.phase3_ms", median(&phases[2])),
            ("join.phase4_ms", median(&phases[3])),
            ("join.imbalance", median(&imbalance)),
            ("join.coord_ms", median(&coord_ms)),
            ("join.first_iter_ms", self.first_iter_ms),
            ("sort.tuples", out.tuples_per_op),
        ];
        out
    }
}
