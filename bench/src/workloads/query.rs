//! `query_cached` and `query_evict`: closed-loop analytic clients over
//! an in-process session. The two differ only in how the working set
//! compares with the run cache — four relations that fit, or twelve
//! against a budget that holds four — so a change to cache policy or run
//! building moves one and must leave the other flat.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsm_core::Tuple;
use mpsm_exec::{
    QueryOutput, QuerySpec, Relation, RunCacheConfig, RunCacheStats, SchedulerMetrics, Session,
};

use super::{phase_spans, scheduler_config, Factory, Op, Scale, Window, Workload, LOAD_THREADS};
use crate::gen::{dense_relation, Rng, Zipf};
use crate::stats::{percentile, sorted};
use crate::trace::{SpanId, Tracer};

const ZIPF_THETA: f64 = 0.8;

pub struct QueryInputs {
    relations: Vec<Vec<Tuple>>,
    /// `None` keeps the default 256 MiB budget.
    byte_budget: Option<usize>,
    seed: u64,
}

impl QueryInputs {
    /// 4 relations x 2^18 unique-key tuples: 16 MiB of runs, which the
    /// default cache budget holds many times over.
    pub fn cached(seed: u64, scale: Scale) -> Self {
        Self::generate(4, scale.tuples(18), None, seed)
    }

    /// 12 relations (48 MiB of runs) against a budget that holds four.
    pub fn evict(seed: u64, scale: Scale) -> Self {
        Self::generate(12, scale.tuples(18), Some(4), seed)
    }

    /// The layer probe's size: 6 small relations, room for three.
    pub fn probe(seed: u64, scale: Scale) -> Self {
        Self::generate(6, scale.tuples(14), Some(3), seed)
    }

    /// `count` relations of `n` tuples; a cache that holds `fit` of them
    /// (`None` keeps the default budget).
    fn generate(count: usize, n: usize, fit: Option<usize>, seed: u64) -> Self {
        let byte_budget = fit.map(|fit| fit * n * std::mem::size_of::<Tuple>());
        let relations =
            (0..count).map(|t| dense_relation(n, t as u64, seed ^ (t as u64 + 1) << 32)).collect();
        QueryInputs { relations, byte_budget, seed }
    }
}

impl Factory for QueryInputs {
    fn setup(&self) -> Result<Box<dyn Workload + '_>, String> {
        let mut cache = RunCacheConfig::default();
        if let Some(budget) = self.byte_budget {
            cache.byte_budget = budget;
        }
        let session = Session::with_run_cache(scheduler_config(), cache);
        let relations: Vec<Arc<Relation>> = self
            .relations
            .iter()
            .enumerate()
            .map(|(t, tuples)| session.register(Relation::new(format!("T{t}"), tuples.clone())))
            .collect();
        let workload = QueryWorkload {
            n: self.relations[0].len(),
            zipf: Zipf::new(relations.len(), ZIPF_THETA),
            session,
            relations,
            seed: self.seed,
            windows: 0,
        };
        // Compulsory misses, then enough draws of the real mix for the
        // cache to reach the occupancy the measured window will see.
        let mut rng = Rng::new(self.seed ^ 0x5E7);
        for t in 0..workload.relations.len() {
            workload.warm(t, t)?;
        }
        for _ in 0..2 * workload.relations.len() {
            let (i, j) = (workload.zipf.draw(&mut rng), workload.zipf.draw(&mut rng));
            workload.warm(i, j)?;
        }
        Ok(Box::new(workload))
    }
}

struct QueryWorkload {
    session: Session,
    relations: Vec<Arc<Relation>>,
    n: usize,
    zipf: Zipf,
    seed: u64,
    windows: u64,
}

/// `max(payload + payload)` of `T_i ⋈ T_j`: both hold every key in
/// `0..n` once with payload `key + index`.
fn closed_form(n: usize, i: usize, j: usize) -> Option<u64> {
    Some(2 * (n as u64 - 1) + i as u64 + j as u64)
}

impl QueryWorkload {
    fn warm(&self, i: usize, j: usize) -> Result<(), String> {
        let answer = self
            .session
            .query(QuerySpec::join(&self.relations[i], &self.relations[j]))
            .map(|out| out.result.max_payload_sum);
        if answer.as_ref().ok() == Some(&closed_form(self.n, i, j)) {
            Ok(())
        } else {
            Err(format!("warm-up T{i} ⋈ T{j} answered {answer:?}"))
        }
    }
}

/// What one closed-loop client brings back from a window; folded into a
/// [`Window`] by [`fold_logs`].
#[derive(Default)]
pub struct ClosedLoopLog {
    attempted: u64,
    failures: Vec<String>,
    ops: Vec<Op>,
    queue_wait_us: Vec<f64>,
    exec_ms: Vec<f64>,
    residue_us: Vec<f64>,
    phases_ms: [Vec<f64>; 4],
    /// Execution time outside the four phases' critical paths.
    coord_ms: Vec<f64>,
    imbalance: Vec<f64>,
}

/// One closed-loop client: draw a case, submit its query, wait, verify
/// the answer against the case, repeat. Shared with `htap_mixed`, whose
/// analytic client runs the same loop with its own cases.
pub fn closed_loop<C: std::fmt::Debug>(
    session: &Session,
    tracer: &Tracer,
    epoch: Instant,
    deadline: Instant,
    op_base: u64,
    mut next: impl FnMut() -> (QuerySpec, C),
    mut verify: impl FnMut(&C, &QueryOutput) -> Result<(), String>,
) -> ClosedLoopLog {
    let mut log = ClosedLoopLog::default();
    let mut op = op_base;
    while Instant::now() < deadline {
        op += 1;
        let (spec, case) = next();
        log.attempted += 1;
        let root = tracer.begin("client.query", SpanId::NONE, op);
        let t0 = Instant::now();
        let ticket = tracer.span("session.submit", root, op, || session.submit(spec));
        let submitted = Instant::now();
        let wait = tracer.begin("ticket.wait", root, op);
        let outcome = match ticket {
            Ok(ticket) => ticket.wait().map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        tracer.end(wait);
        let latency = t0.elapsed();
        tracer.end(root);
        let out = match outcome {
            Ok(out) => out,
            Err(e) => {
                log.failures.push(format!("{case:?}: {e}"));
                continue;
            }
        };
        let stats = &out.result.stats;
        let derived = tracer.derive_sequence(
            wait,
            op,
            submitted,
            &[("sched.queue_wait", out.queue_wait), ("sched.exec", out.execution)],
        );
        tracer.derive_sequence(derived[1], op, submitted + out.queue_wait, &phase_spans(stats));
        // No deadline, no row cap, and never more clients than in-flight
        // slots: nothing may degrade these to a partial answer.
        let complete = out.result.plan.anytime.as_ref().is_none_or(|a| a.complete);
        let verdict = if complete {
            verify(&case, &out)
        } else {
            Err("closed-loop query came back partial".to_string())
        };
        if let Err(why) = verdict {
            log.failures.push(format!("{case:?}: {why}"));
            continue;
        }
        let latency_us = latency.as_secs_f64() * 1e6;
        let (queue_us, exec_us) =
            (out.queue_wait.as_secs_f64() * 1e6, out.execution.as_secs_f64() * 1e6);
        log.ops.push(Op::between(epoch, t0, t0 + latency, 1.0));
        log.queue_wait_us.push(queue_us);
        log.exec_ms.push(exec_us / 1e3);
        log.residue_us.push(latency_us - queue_us - exec_us);
        let phases_ms = stats.phases_ms();
        for (samples, ms) in log.phases_ms.iter_mut().zip(phases_ms) {
            samples.push(ms);
        }
        log.coord_ms.push(exec_us / 1e3 - phases_ms.iter().sum::<f64>());
        log.imbalance.push(stats.imbalance());
    }
    log
}

/// Merge client logs into `out`: the verified operations (every one
/// complete, so each earns credit 1) and the scheduler-layer numbers
/// the loop observed.
pub fn fold_logs(out: &mut Window, logs: Vec<ClosedLoopLog>) {
    let mut all = ClosedLoopLog::default();
    for log in logs {
        out.attempted += log.attempted;
        for why in log.failures {
            out.fail(|| why);
        }
        out.ops.extend(log.ops);
        all.queue_wait_us.extend(log.queue_wait_us);
        all.exec_ms.extend(log.exec_ms);
        all.residue_us.extend(log.residue_us);
        for (into, from) in all.phases_ms.iter_mut().zip(log.phases_ms) {
            into.extend(from);
        }
        all.coord_ms.extend(log.coord_ms);
        all.imbalance.extend(log.imbalance);
    }
    let (queue, exec, residue) =
        (sorted(all.queue_wait_us), sorted(all.exec_ms), sorted(all.residue_us));
    out.layer.extend([
        ("sched.queue_wait_p50_us", percentile(&queue, 50.0)),
        ("sched.queue_wait_p95_us", percentile(&queue, 95.0)),
        ("sched.exec_p50_ms", percentile(&exec, 50.0)),
        ("sched.exec_p95_ms", percentile(&exec, 95.0)),
        ("sched.residue_p50_us", percentile(&residue, 50.0)),
        ("join.coord_ms", percentile(&sorted(all.coord_ms), 50.0)),
        ("join.imbalance", percentile(&sorted(all.imbalance), 50.0)),
    ]);
    let phase_names = ["join.phase1_ms", "join.phase2_ms", "join.phase3_ms", "join.phase4_ms"];
    for (name, samples) in phase_names.into_iter().zip(all.phases_ms) {
        out.layer.push((name, percentile(&sorted(samples), 50.0)));
    }
}

/// Scheduler and cache counters over a window, as per-layer metrics.
pub fn counter_deltas(out: &mut Window, session: &Session, before: &Counters) {
    let after = Counters::read(session);
    let (sched, was) = (&after.sched, &before.sched);
    let hits = sched.cache_hits - was.cache_hits;
    let lookups = hits + (sched.cache_misses - was.cache_misses);
    out.layer.extend([
        ("cache.hit_rate", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 }),
        ("cache.evictions", (sched.cache_evictions - was.cache_evictions) as f64),
        ("cache.inserts", (after.cache.inserts - before.cache.inserts) as f64),
        ("cache.resident_mib", after.cache.bytes as f64 / (1u64 << 20) as f64),
        ("sched.submitted", (sched.submitted - was.submitted) as f64),
        ("sched.completed", (sched.completed - was.completed) as f64),
        ("sched.degraded", (sched.degraded - was.degraded) as f64),
        ("sched.deadline_missed", (sched.deadline_missed - was.deadline_missed) as f64),
        ("sched.partial_answers", (sched.partial_answers - was.partial_answers) as f64),
        ("session.compactions", (sched.compactions - was.compactions) as f64),
    ]);
}

/// Lifetime counters of a session's scheduler and run cache.
pub struct Counters {
    sched: SchedulerMetrics,
    cache: RunCacheStats,
}

impl Counters {
    pub fn read(session: &Session) -> Self {
        Counters {
            sched: session.scheduler().metrics(),
            cache: session.run_cache().map(|c| c.stats()).unwrap_or_default(),
        }
    }
}

impl Workload for QueryWorkload {
    fn run(&mut self, window: Duration, _full: bool, tracer: &Tracer) -> Window {
        let mut out = Window { tuples_per_op: 2.0 * self.n as f64, ..Window::default() };
        self.windows += 1;
        let before = Counters::read(&self.session);
        let start = Instant::now();
        let deadline = start + window;
        let this = &*self;
        let logs: Vec<ClosedLoopLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..LOAD_THREADS as u64)
                .map(|client| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(this.seed ^ (this.windows << 8 | client) << 16);
                        closed_loop(
                            &this.session,
                            tracer,
                            start,
                            deadline,
                            (this.windows << 40) | (client << 32),
                            || {
                                let (i, j) = (this.zipf.draw(&mut rng), this.zipf.draw(&mut rng));
                                (QuerySpec::join(&this.relations[i], &this.relations[j]), (i, j))
                            },
                            |&(i, j), out| {
                                let answer = out.result.max_payload_sum;
                                if answer == closed_form(this.n, i, j) {
                                    Ok(())
                                } else {
                                    Err(format!("answered {answer:?}"))
                                }
                            },
                        )
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
        });
        fold_logs(&mut out, logs);
        counter_deltas(&mut out, &self.session, &before);
        out
    }
}
