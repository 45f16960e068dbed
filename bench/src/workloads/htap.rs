//! `htap_mixed`: writes beside reads. One writer thread paced open-loop
//! at a fixed op rate, one closed-loop analytic client, the background
//! compactor on. The only workload where the delta overlay, the masked
//! merge, compaction publish and cache re-warm sit on the analytic path
//! and the write path shares the catalog lock with snapshots.
//!
//! The write stream is built so every analytic answer has a closed
//! form *and* says how fresh its snapshot was: each 256-op batch ends by
//! upserting the top key's payload to `n - 1 + batch`, so a snapshot
//! that saw `b` whole batches answers `2 (n - 1) + b`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsm_core::Tuple;
use mpsm_exec::{CompactionConfig, QuerySpec, Relation, RunCacheConfig, Session};

use super::query::{closed_loop, counter_deltas, fold_logs, Counters};
use super::{scheduler_config, Factory, Scale, Window, Workload};
use crate::gen::{dense_relation, Rng};
use crate::stats::{percentile, sorted};
use crate::trace::{SpanId, Tracer};

/// Ops per acknowledged write batch: 204 appends, 25 upserts, 26
/// deletes (80/10/10) and the freshness upsert.
const BATCH_OPS: usize = 256;
const BATCH_APPENDS: usize = 204;
const BATCH_UPDATES: usize = 25;
const BATCH_DELETES: usize = 26;
/// Write ops per second the writer is paced at.
const WRITE_RATE: f64 = 10_000.0;
/// Delta ops that make a relation eligible for a background fold; at
/// the paced rate that is a fold every ~0.8 s.
const COMPACTION_THRESHOLD: usize = 8_192;

pub struct HtapInputs {
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    compaction_threshold: usize,
    seed: u64,
}

impl HtapInputs {
    /// `R`, `S` at 2^18 tuples.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        Self::sized(scale.tuples(18), scale.count(COMPACTION_THRESHOLD), seed)
    }

    /// The layer probe's size: small relations and a threshold low
    /// enough that a sub-second run still sees folds.
    pub fn probe(seed: u64, scale: Scale) -> Self {
        Self::sized(scale.tuples(14), scale.count(COMPACTION_THRESHOLD / 8), seed)
    }

    fn sized(n: usize, compaction_threshold: usize, seed: u64) -> Self {
        HtapInputs {
            r: dense_relation(n, 0, seed ^ 0x0052),
            s: dense_relation(n, 0, seed ^ 0x0053),
            compaction_threshold,
            seed,
        }
    }
}

impl Factory for HtapInputs {
    fn setup(&self) -> Result<Box<dyn Workload + '_>, String> {
        let session = Session::with_compaction(
            scheduler_config(),
            RunCacheConfig::default(),
            CompactionConfig::default()
                .threshold(self.compaction_threshold)
                .interval(Duration::from_millis(50)),
        );
        let n = self.r.len();
        let r = session.register(Relation::new("R", self.r.clone()));
        let s = session.register(Relation::new("S", self.s.clone()));
        let warm = session.query(QuerySpec::join(&r, &s)).map(|out| out.result.max_payload_sum);
        if warm.as_ref().ok() != Some(&Some(2 * (n as u64 - 1))) {
            return Err(format!("warm-up query answered {warm:?}"));
        }
        Ok(Box::new(HtapWorkload {
            session,
            r,
            s,
            n,
            compaction_threshold: self.compaction_threshold,
            model: vec![1; n],
            batches: 0,
            started: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            rng: Rng::new(self.seed ^ 0x3717),
            windows: 0,
        }))
    }
}

struct HtapWorkload {
    session: Session,
    r: Arc<Relation>,
    s: Arc<Relation>,
    n: usize,
    compaction_threshold: usize,
    /// Tuples per key the relation must hold once every write is
    /// folded in (keys below `n - 1` always carry payload = key).
    model: Vec<u32>,
    batches: u64,
    /// Batches whose first op has been issued / whose last op has been
    /// acknowledged; an answer's freshness must fall between the two.
    started: AtomicU64,
    acked: AtomicU64,
    rng: Rng,
    windows: u64,
}

#[derive(Default)]
struct WriterLog {
    batch_us: Vec<f64>,
    late_us: Vec<f64>,
    delta_len_max: usize,
    retained_epochs_max: usize,
    failures: Vec<String>,
}

impl HtapWorkload {
    /// Writer and analytic client side by side for `window`.
    fn drive(&mut self, window: Duration, tracer: &Tracer) -> Window {
        let mut out = Window { tuples_per_op: 2.0 * self.n as f64, ..Window::default() };
        self.windows += 1;
        let before = Counters::read(&self.session);
        let start = Instant::now();
        let deadline = start + window;
        let period = Duration::from_secs_f64(BATCH_OPS as f64 / WRITE_RATE);
        let top = self.n as u64 - 1;
        let op_base = self.windows << 40;

        let HtapWorkload { session, r, s, model, batches, started, acked, rng, .. } = self;
        let (session, r, s, started, acked) = (&*session, &*r, &*s, &*started, &*acked);
        let (writer_log, reader_log) = std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                let mut log = WriterLog::default();
                for k in 0u32.. {
                    let due = start + period * k;
                    if due >= deadline {
                        break;
                    }
                    let appends: Vec<Tuple> = (0..BATCH_APPENDS)
                        .map(|_| {
                            let key = rng.below(top);
                            Tuple::new(key, key)
                        })
                        .collect();
                    let updates: Vec<u64> = (0..BATCH_UPDATES).map(|_| rng.below(top)).collect();
                    let deletes: Vec<u64> = (0..BATCH_DELETES).map(|_| rng.below(top)).collect();
                    if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(ahead);
                    }
                    *batches += 1;
                    let op = op_base | 1 << 39 | *batches;
                    started.store(*batches, Ordering::SeqCst);
                    let root = tracer.begin("writer.batch", SpanId::NONE, op);
                    let t0 = Instant::now();
                    let mut ok = tracer
                        .span("session.append", root, op, || session.append("R", appends.clone()))
                        .is_ok();
                    for &key in &updates {
                        ok &= session.update("R", key, key).is_ok();
                    }
                    for &key in &deletes {
                        ok &= session.delete("R", key).is_ok();
                    }
                    ok &= session.update("R", top, top + *batches).is_ok();
                    let took = t0.elapsed();
                    tracer.end(root);
                    acked.store(*batches, Ordering::SeqCst);
                    if !ok {
                        log.failures.push(format!("write batch {batches} was refused"));
                    }
                    for t in &appends {
                        model[t.key as usize] += 1;
                    }
                    for &key in &updates {
                        model[key as usize] = 1;
                    }
                    for &key in &deletes {
                        model[key as usize] = 0;
                    }
                    log.batch_us.push(took.as_secs_f64() * 1e6);
                    log.late_us.push(t0.saturating_duration_since(due).as_secs_f64() * 1e6);
                    log.delta_len_max = log.delta_len_max.max(session.delta_len("R").unwrap_or(0));
                    log.retained_epochs_max =
                        log.retained_epochs_max.max(session.retained_epochs("R").unwrap_or(0));
                }
                log
            });
            let reader = scope.spawn(move || {
                closed_loop(
                    session,
                    tracer,
                    start,
                    deadline,
                    op_base,
                    || (QuerySpec::join(r, s), acked.load(Ordering::SeqCst)),
                    |&floor, out| {
                        let ceiling = started.load(Ordering::SeqCst);
                        match out.result.max_payload_sum {
                            Some(max) if (2 * top + floor..=2 * top + ceiling).contains(&max) => {
                                Ok(())
                            }
                            other => Err(format!(
                                "answered {other:?}; batches {floor}..={ceiling} were visible, \
                                 closed form is {} + batch",
                                2 * top
                            )),
                        }
                    },
                )
            });
            (
                writer.join().expect("writer thread panicked"),
                reader.join().expect("analytic client panicked"),
            )
        });
        fold_logs(&mut out, vec![reader_log]);
        counter_deltas(&mut out, &self.session, &before);
        out.attempted += writer_log.batch_us.len() as u64;
        for why in writer_log.failures {
            out.fail(|| why);
        }
        let batch_us = sorted(writer_log.batch_us);
        out.layer.extend([
            ("session.write_batch_p50_us", percentile(&batch_us, 50.0)),
            ("session.append_batch_p95_us", percentile(&batch_us, 95.0)),
            ("session.delta_len_max", writer_log.delta_len_max as f64),
            ("session.retained_epochs_max", writer_log.retained_epochs_max as f64),
        ]);
        out.diag("write_batch_p50_us", percentile(&batch_us, 50.0), "us");
        out.diag("write_batch_p95_us", percentile(&batch_us, 95.0), "us");
        out.diag("write_batches", batch_us.len() as f64, "count");
        out.diag("write_late_p95_us", percentile(&sorted(writer_log.late_us), 95.0), "us");
        out
    }
}

impl Workload for HtapWorkload {
    fn run(&mut self, window: Duration, _full: bool, tracer: &Tracer) -> Window {
        // The delta starts empty, so analytic latency climbs until the
        // first background fold; only what follows is the steady
        // sawtooth. The first window is therefore preceded by an
        // unmeasured pre-roll of more than one fold period, whose
        // answers are still checked.
        let mut carried = Window::default();
        if self.windows == 0 {
            let fold_period = self.compaction_threshold as f64 / WRITE_RATE;
            carried = self.drive(Duration::from_secs_f64(1.5 * fold_period), &Tracer::new(false));
        }
        let mut out = self.drive(window, tracer);
        out.attempted += carried.failed;
        out.failed += carried.failed;
        out.first_failure = carried.first_failure.or(out.first_failure);
        out
    }

    /// Drain the delta and check the compacted base holds every write
    /// exactly once.
    fn finish(&mut self) -> Result<(), String> {
        while self.session.delta_len("R").unwrap_or(0) > 0 {
            self.session.compact("R");
        }
        let base = self.session.relation("R").ok_or("R vanished from the catalog")?;
        let top = self.n as u64 - 1;
        let mut counts = vec![0u32; self.n];
        for t in base.tuples() {
            let expected = if t.key == top { top + self.batches } else { t.key };
            if t.key > top || t.payload != expected {
                return Err(format!("compacted base holds {t:?}, expected payload {expected}"));
            }
            counts[t.key as usize] += 1;
        }
        match counts.iter().zip(&self.model).position(|(have, want)| have != want) {
            None => Ok(()),
            Some(key) => Err(format!(
                "after {} batches key {key} is held {} times, the write stream says {}",
                self.batches, counts[key], self.model[key]
            )),
        }
    }
}
