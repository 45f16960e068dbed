//! Layer probes: every layer's public functions, called directly on
//! seeded inputs of a fixed size, each timed inside a harness span.
//!
//! A traced run of *any* workload executes all of them, so every
//! per-layer metric is a fresh measurement on every run; a workload then
//! replaces the numbers of the layers it crosses with what it measured
//! on itself (`bench/README.md` lists which). Each probe warms up once
//! and reports the median of at least three timed iterations — the
//! single-shot numbers in the old `BENCH_N.json` files are what this
//! replaces — and checks the answer it got against an oracle that shares
//! no code with the engine.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsm_baselines::{RadixJoin, WisconsinHashJoin};
use mpsm_core::cdf::{equi_height_bounds, Cdf};
use mpsm_core::histogram::{combine_histograms, compute_histogram, RadixDomain};
use mpsm_core::interpolation::interpolation_lower_bound;
use mpsm_core::join::anytime::{merge_run_sets_anytime, AnytimeToken};
use mpsm_core::join::b_mpsm::BMpsmJoin;
use mpsm_core::join::d_mpsm::DMpsmJoin;
use mpsm_core::join::delta::{merge_delta_sides_in, DeltaOp, DeltaOverlay, DeltaSide};
use mpsm_core::join::p_mpsm::PMpsmJoin;
use mpsm_core::join::runs::{build_run_set, merge_run_sets_in};
use mpsm_core::merge::{merge_join, merge_join_linear};
use mpsm_core::partition::{range_partition_ctx, range_partition_naive};
use mpsm_core::sink::{JoinSink, MaxAggSink};
use mpsm_core::splitter::{compute_splitters, equi_height_splitters, partition_costs};
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::tuple::is_key_sorted;
use mpsm_core::{ExecContext, JoinAlgorithm, JoinConfig, Tuple};
use mpsm_exec::{
    splitter_fingerprint, CompactionConfig, Lookup, QuerySpec, Relation, RunCache, RunCacheConfig,
    RunKey, Session,
};
use mpsm_numa::NodeId;
use mpsm_serve::protocol::{Frame, QueryBody, QueryResultBody};
use mpsm_serve::QueryRequest;
use mpsm_workload::{fk_uniform, skewed_80_20, skewed_negative_correlation, Workload, KEY_DOMAIN};

use crate::gen::{dense_relation, oracle_max_payload_sum, uniform_tuples, Rng};
use crate::metrics::OPEN_RATES;
use crate::report::Values;
use crate::stats::{median, percentile, sorted};
use crate::trace::{SpanId, Tracer};
use crate::workloads::htap::HtapInputs;
use crate::workloads::query::QueryInputs;
use crate::workloads::serve::{layer_metrics, ServeInputs, ServeWorkload};
use crate::workloads::{scheduler_config, Factory, Scale, Window, POOL_THREADS};

/// Timed iterations of a probe whose one call takes milliseconds.
const ITERS: usize = 3;
/// Timed iterations of a probe whose one call is so short that three
/// samples would be scheduling noise.
const ITERS_FAST: usize = 9;
/// Histogram granularity `B` the engine's own joins default to.
const RADIX_BITS: u32 = 10;

/// Span and iteration bookkeeping shared by the probes.
struct Probe<'a> {
    tracer: &'a Tracer,
    op: Cell<u64>,
}

impl Probe<'_> {
    fn next_op(&self) -> u64 {
        self.op.set(self.op.get() + 1);
        // Probe ops live above every workload's op ids.
        (1 << 62) | self.op.get()
    }

    /// One timed call inside a span; nanoseconds.
    fn once<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let op = self.next_op();
        let span = self.tracer.begin(name, SpanId::NONE, op);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.tracer.end(span);
        (out, ns)
    }

    /// Warm up once, then the median of `iters` timed calls, in
    /// nanoseconds. `f` gets the iteration index (0 = warm-up) so it
    /// can pick a fresh pre-built input.
    fn median_ns(&self, name: &'static str, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        f(0);
        let samples: Vec<f64> = (1..=iters).map(|i| self.once(name, || f(i)).1).collect();
        median(&samples)
    }
}

/// Sort both inputs with the standard library — the reference layout
/// the merge probes run on.
fn std_sorted(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut out = tuples.to_vec();
    out.sort_unstable_by_key(|t| t.key);
    out
}

/// Run every probe; returns a value for every per-layer metric except
/// `trace.overhead_pct`, which only a workload's two windows can give.
pub fn run(seed: u64, scale: Scale, tracer: &Tracer) -> Values {
    let probe = Probe { tracer, op: Cell::new(0) };
    let mut values = Values::default();
    let cx = ExecContext::flat(POOL_THREADS);
    let inputs = fk_uniform(scale.tuples(18), 4, seed ^ 0x9801);
    let expected = oracle_max_payload_sum(&inputs.r, &inputs.s);

    sort(&probe, &mut values, &cx, seed, scale);
    partition(&probe, &mut values, &cx, seed, scale);
    merge(&probe, &mut values, &inputs, expected, seed);
    let mpsm_ns_per_tuple = join(&probe, &mut values, &inputs, expected);
    worker_and_arena(&probe, &mut values, &cx, scale);
    runs_anytime_delta(&probe, &mut values, &cx, &inputs, expected, seed);
    contenders(&probe, &mut values, &cx, &inputs, expected, mpsm_ns_per_tuple);
    exec(&probe, &mut values, seed, scale);
    protocol(&probe, &mut values, scale);
    serve(&probe, &mut values, seed, scale);
    values
}

/// `mpsm-core::sort`: the context's one sort entry point on a uniform
/// and on an 80:20 skewed chunk.
fn sort(probe: &Probe, values: &mut Values, cx: &ExecContext, seed: u64, scale: Scale) {
    let n = scale.tuples(20);
    let inputs = [
        ("sort.uniform_ns_per_tuple", uniform_tuples(n, KEY_DOMAIN, seed ^ 0x5001)),
        ("sort.skew_ns_per_tuple", skewed_80_20(n, KEY_DOMAIN, true, seed ^ 0x5002)),
    ];
    for (name, input) in inputs {
        let mut copies: Vec<Vec<Tuple>> = (0..=ITERS).map(|_| input.clone()).collect();
        let ns = probe.median_ns("core.sort_run", ITERS, |i| {
            let mut scope = cx.scope(0);
            cx.sort_run(0, &mut copies[i], NodeId(0), &mut scope);
        });
        assert!(copies.iter().all(|c| is_key_sorted(c)), "{name}: sort_run left a run unsorted");
        values.set(name, ns / n as f64);
    }
    values.set("sort.tuples", n as f64);
}

/// `mpsm-core::partition` with `histogram`, `cdf` and `splitter`: the
/// write-combining scatter against the naive one, and the cost-balanced
/// splitter computation on negatively correlated skew.
fn partition(probe: &Probe, values: &mut Values, cx: &ExecContext, seed: u64, scale: Scale) {
    let n = scale.tuples(20);
    let r = uniform_tuples(n, KEY_DOMAIN, seed ^ 0x7001);
    let chunks: Vec<&[Tuple]> = r.chunks(n.div_ceil(POOL_THREADS)).collect();
    let domain = RadixDomain::from_tuples(chunks.iter().copied(), RADIX_BITS);
    let histograms: Vec<_> = chunks.iter().map(|c| compute_histogram(c, &domain)).collect();
    let splitters = equi_height_splitters(&combine_histograms(&histograms), POOL_THREADS);
    let wc = probe.median_ns("core.range_partition_ctx", ITERS, |_| {
        let parts = range_partition_ctx(cx, &chunks, &domain, &splitters);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), n, "scatter lost tuples");
    });
    let naive = probe.median_ns("core.range_partition_naive", ITERS, |_| {
        let parts = range_partition_naive(&chunks, &domain, &splitters);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), n, "scatter lost tuples");
    });
    values.set("partition.ns_per_tuple", wc / n as f64);
    values.set("partition.naive_ns_per_tuple", naive / n as f64);
    values.set("partition.wc_over_naive", wc / naive);

    let skewed = skewed_negative_correlation(scale.tuples(18), 4, KEY_DOMAIN, seed ^ 0x7002);
    let fan = 4 * POOL_THREADS;
    let locals: Vec<(Vec<u64>, usize)> = skewed
        .s
        .chunks(skewed.s.len().div_ceil(POOL_THREADS))
        .map(|chunk| (equi_height_bounds(&std_sorted(chunk), fan), chunk.len()))
        .collect();
    let cdf = Cdf::from_local_bounds(&locals);
    let domain = RadixDomain::from_tuples([skewed.r.as_slice()], RADIX_BITS);
    let r_hist = compute_histogram(&skewed.r, &domain);
    let mut chosen = None;
    let ns = probe.median_ns("core.compute_splitters", ITERS_FAST, |_| {
        chosen = Some(compute_splitters(&r_hist, &domain, &cdf, POOL_THREADS));
    });
    let costs = partition_costs(&chosen.expect("ran at least once"), &r_hist, &domain, &cdf);
    let mean_cost = costs.iter().sum::<f64>() / costs.len() as f64;
    values.set("splitter.us", ns / 1e3);
    values.set("splitter.imbalance", costs.iter().cloned().fold(0.0, f64::max) / mean_cost);
}

/// `mpsm-core::merge` and `interpolation`: the galloping kernel, the
/// linear reference kernel, and the entry-point search.
fn merge(probe: &Probe, values: &mut Values, inputs: &Workload, expected: Option<u64>, seed: u64) {
    let (r, s) = (std_sorted(&inputs.r), std_sorted(&inputs.s));
    let tuples = (r.len() + s.len()) as f64;
    type Kernel = fn(&[Tuple], &[Tuple], &mut MaxAggSink);
    let kernels: [(&'static str, &'static str, Kernel); 2] = [
        ("merge.ns_per_tuple", "core.merge_join", merge_join::<MaxAggSink>),
        ("merge.linear_ns_per_tuple", "core.merge_join_linear", merge_join_linear::<MaxAggSink>),
    ];
    for (name, span, kernel) in kernels {
        let ns = probe.median_ns(span, ITERS_FAST, |_| {
            let mut sink = MaxAggSink::default();
            kernel(&r, &s, &mut sink);
            assert_eq!(sink.finish(), expected, "{name}: wrong join answer");
        });
        values.set(name, ns / tuples);
    }
    let mut rng = Rng::new(seed ^ 0x1417);
    let keys: Vec<u64> = (0..4096).map(|_| r[rng.below(r.len() as u64) as usize].key).collect();
    let ns = probe.median_ns("core.interpolation_lower_bound", ITERS_FAST, |_| {
        for &key in &keys {
            let at = interpolation_lower_bound(black_box(&s), key);
            assert!(s[at].key == key, "interpolation search missed key {key}");
        }
    });
    values.set("interpolation.ns_per_probe", ns / keys.len() as f64);
}

/// `mpsm-core::join::p_mpsm`: the whole join on a fresh context — cold
/// first iteration, then warmed medians of each phase from the returned
/// `JoinStats`. Returns the warmed ns per input tuple.
fn join(probe: &Probe, values: &mut Values, inputs: &Workload, expected: Option<u64>) -> f64 {
    let cx = ExecContext::flat(POOL_THREADS);
    let join = PMpsmJoin::new(JoinConfig::with_threads(POOL_THREADS));
    let run = || {
        cx.reset_counters();
        let (result, stats) = join.join_in::<MaxAggSink>(&cx, &inputs.r, &inputs.s);
        assert_eq!(result, expected, "P-MPSM probe: wrong join answer");
        stats
    };
    let (_, first_ns) = probe.once("core.join_in", run);
    run();
    let mut phases: [Vec<f64>; 4] = Default::default();
    let (mut wall_ms, mut coord_ms, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ITERS {
        let (stats, ns) = probe.once("core.join_in", run);
        let phase_ms = stats.phases_ms();
        for (samples, ms) in phases.iter_mut().zip(phase_ms) {
            samples.push(ms);
        }
        wall_ms.push(ns / 1e6);
        coord_ms.push(ns / 1e6 - phase_ms.iter().sum::<f64>());
        imbalance.push(stats.imbalance());
    }
    values.set("join.first_iter_ms", first_ns / 1e6);
    values.set("join.phase1_ms", median(&phases[0]));
    values.set("join.phase2_ms", median(&phases[1]));
    values.set("join.phase3_ms", median(&phases[2]));
    values.set("join.phase4_ms", median(&phases[3]));
    values.set("join.coord_ms", median(&coord_ms));
    values.set("join.imbalance", median(&imbalance));
    median(&wall_ms) * 1e6 / (inputs.r.len() + inputs.s.len()) as f64
}

/// `mpsm-core::worker` (an empty phase round trip on the context's
/// shared pool) and `mpsm-numa` (arena allocation plus first touch).
fn worker_and_arena(probe: &Probe, values: &mut Values, cx: &ExecContext, scale: Scale) {
    let phases = scale.count(2000);
    let ns = probe.median_ns("core.pool_run", ITERS, |_| {
        for _ in 0..phases {
            black_box(cx.pool().run(|w| w));
        }
    });
    values.set("worker.phase_dispatch_us", ns / phases as f64 / 1e3);

    let len = scale.tuples(20);
    let page = 4096 / std::mem::size_of::<Tuple>();
    let ns = probe.median_ns("numa.alloc", ITERS, |_| {
        let mut buf = cx.alloc(0, len);
        for i in (0..len).step_by(page) {
            buf[i] = Tuple::new(1, 1);
        }
        black_box(&buf);
    });
    let mib = (len * std::mem::size_of::<Tuple>()) as f64 / (1u64 << 20) as f64;
    values.set("arena.alloc_us_per_mib", ns / 1e3 / mib);
}

/// `mpsm-core::join::runs`, `anytime` and `delta`: building a run set,
/// the plain phase-4 merge over two run sets, the same merge through
/// the interruptible driver with a token that never fires, and the
/// snapshot merge with a 5 % delta (4 % appends, 1 % deletes).
fn runs_anytime_delta(
    probe: &Probe,
    values: &mut Values,
    cx: &ExecContext,
    inputs: &Workload,
    expected: Option<u64>,
    seed: u64,
) {
    let mut stats = JoinStats::new(cx.threads());
    let mut built = None;
    let ns = probe.median_ns("core.build_run_set", ITERS, |_| {
        built =
            Some(build_run_set(cx, &inputs.r, RADIX_BITS, Phase::Two, Phase::Three, &mut stats));
    });
    values.set("runs.build_ns_per_tuple", ns / inputs.r.len() as f64);
    let r_runs = built.expect("ran at least once");
    let s_runs = build_run_set(cx, &inputs.s, RADIX_BITS, Phase::One, Phase::One, &mut stats);
    let tuples = (inputs.r.len() + inputs.s.len()) as f64;

    let clean = probe.median_ns("core.merge_run_sets_in", ITERS_FAST, |_| {
        let max = merge_run_sets_in::<MaxAggSink>(cx, &r_runs, &s_runs, &mut stats);
        assert_eq!(max, expected, "run-set merge: wrong join answer");
    });
    let never = AnytimeToken::never();
    let anytime = probe.median_ns("core.merge_run_sets_anytime", ITERS_FAST, |_| {
        let out = merge_run_sets_anytime::<MaxAggSink>(cx, &r_runs, &s_runs, &never, &mut stats);
        assert!(out.complete && out.result == expected, "anytime merge: wrong join answer");
    });
    values.set("runs.merge_ns_per_tuple", clean / tuples);
    values.set("anytime.merge_ns_per_tuple", anytime / tuples);
    values.set("anytime.block_check_overhead_pct", (anytime / clean - 1.0) * 100.0);

    let mut rng = Rng::new(seed ^ 0xDE17A);
    let existing = |rng: &mut Rng| inputs.r[rng.below(inputs.r.len() as u64) as usize].key;
    let mut ops: Vec<DeltaOp> = (0..inputs.r.len() / 25)
        .map(|_| DeltaOp::Append(Tuple::new(existing(&mut rng), 0)))
        .collect();
    ops.extend((0..inputs.r.len() / 100).map(|_| DeltaOp::Delete { key: existing(&mut rng) }));
    let mut folded = None;
    let ns = probe.median_ns("core.delta_overlay", ITERS, |_| {
        folded = Some(DeltaOverlay::from_ops(&ops));
    });
    values.set("delta.overlay_us_per_kop", ns / 1e3 / (ops.len() as f64 / 1e3));
    let overlay = folded.expect("ran at least once");
    let live = oracle_max_payload_sum(&overlay.apply(&inputs.r), &inputs.s);
    let delta_run = cx.adopt(0, overlay.adds.clone());
    let r_side = DeltaSide { base: &r_runs, delta: Some(&delta_run), mask: &overlay.masked };
    let s_side = DeltaSide::base_only(&s_runs);
    let logical = (r_side.logical_tuples() + s_side.logical_tuples()) as f64;
    let masked = probe.median_ns("core.merge_delta_sides_in", ITERS_FAST, |_| {
        let max = merge_delta_sides_in::<MaxAggSink>(cx, r_side, s_side, &mut stats);
        assert_eq!(max, live, "delta merge: wrong join answer");
    });
    values.set("delta.merge_ns_per_tuple", masked / logical);
    values.set("delta.vs_clean", masked / clean);
}

/// `mpsm-storage` (D-MPSM over the in-memory disk array), B-MPSM and
/// the two hash contenders on the P-MPSM probe's inputs: reference
/// numbers that keep Figure 12's ordering tracked.
fn contenders(
    probe: &Probe,
    values: &mut Values,
    cx: &ExecContext,
    inputs: &Workload,
    expected: Option<u64>,
    mpsm_ns_per_tuple: f64,
) {
    let config = JoinConfig::with_threads(POOL_THREADS);
    let tuples = (inputs.r.len() + inputs.s.len()) as f64;
    let mut time = |name: &'static str, span, run: &dyn Fn() -> Option<u64>| {
        let ns = probe.median_ns(span, ITERS, |_| {
            assert_eq!(run(), expected, "{name}: wrong join answer");
        });
        values.set(name, ns / tuples);
        ns / tuples
    };
    let dmpsm = DMpsmJoin::with_join_config(config.clone());
    time("storage.dmpsm_ns_per_tuple", "core.dmpsm_join_in", &|| {
        dmpsm.join_in::<MaxAggSink>(cx, &inputs.r, &inputs.s).0
    });
    let bmpsm = BMpsmJoin::new(config.clone());
    time("variant.bmpsm_ns_per_tuple", "core.bmpsm_join_in", &|| {
        bmpsm.join_in::<MaxAggSink>(cx, &inputs.r, &inputs.s).0
    });
    let wisconsin = WisconsinHashJoin::new(config.clone());
    time("contender.wisconsin_ns_per_tuple", "baselines.wisconsin", &|| {
        wisconsin.join_with_sink::<MaxAggSink>(&inputs.r, &inputs.s).0
    });
    let radix = RadixJoin::new(config);
    let radix_ns = time("contender.radix_ns_per_tuple", "baselines.radix", &|| {
        radix.join_with_sink::<MaxAggSink>(&inputs.r, &inputs.s).0
    });
    values.set("contender.mpsm_over_radix", mpsm_ns_per_tuple / radix_ns);
}

/// `mpsm-exec`: the run cache's hit path, then short runs of the query
/// and HTAP workloads at probe size for the scheduler, cache and
/// session numbers, and the write path's own costs.
fn exec(probe: &Probe, values: &mut Values, seed: u64, scale: Scale) {
    let cx = ExecContext::flat(POOL_THREADS);
    let tuples = uniform_tuples(scale.tuples(16), KEY_DOMAIN, seed ^ 0xCAC1);
    let mut stats = JoinStats::new(cx.threads());
    let runs = build_run_set(&cx, &tuples, RADIX_BITS, Phase::One, Phase::One, &mut stats);
    let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
    let key = RunKey {
        relation: 1,
        version: 1,
        fingerprint: splitter_fingerprint(POOL_THREADS, RADIX_BITS),
    };
    match cache.lookup(key) {
        Lookup::Miss(permit) => permit.publish(Arc::new(runs)),
        _ => panic!("a fresh cache must miss"),
    }
    let lookups = scale.count(10_000);
    let ns = probe.median_ns("exec.run_cache_lookup", ITERS, |_| {
        for _ in 0..lookups {
            assert!(matches!(cache.lookup(key), Lookup::Hit(_)), "published key must hit");
        }
    });
    values.set("cache.lookup_hit_us", ns / lookups as f64 / 1e3);

    let window = Duration::from_millis(if scale.is_smoke() { 150 } else { 400 });
    let query = mini_run(&QueryInputs::probe(seed ^ 0xE8EC, scale), window, probe.tracer);
    let htap = mini_run(&HtapInputs::probe(seed ^ 0x47A9, scale), window, probe.tracer);
    for (name, value) in query.layer {
        if name.starts_with("cache.") || name.starts_with("sched.") {
            values.set(name, value);
        }
    }
    for (name, value) in htap.layer {
        if name.starts_with("session.") {
            values.set(name, value);
        }
    }

    // Registration, and folding a threshold-sized delta (the HTAP
    // workload's 80/10/10 mix) on the caller's thread.
    let session = Session::with_compaction(
        scheduler_config(),
        RunCacheConfig::default(),
        CompactionConfig::manual(),
    );
    let n = scale.tuples(16);
    let base = dense_relation(n, 0, seed ^ 0x5E55);
    let mut copies: Vec<Vec<Tuple>> = (0..=ITERS).map(|_| base.clone()).collect();
    let ns = probe.median_ns("session.register", ITERS, |i| {
        session.register(Relation::new("P", std::mem::take(&mut copies[i])));
    });
    values.set("session.register_ms", ns / 1e6);
    let delta_ops = scale.tuples(14);
    let mut rng = Rng::new(seed ^ 0xC0A7);
    let mut fold_ns = Vec::new();
    for iteration in 0..=ITERS {
        refill(&session, &mut rng, n, delta_ops);
        let (folded, ns) = probe.once("session.compact", || session.compact("P"));
        assert!(folded, "a refilled delta must fold");
        if iteration > 0 {
            fold_ns.push(ns);
        }
    }
    values.set("session.compact_ms", median(&fold_ns) / 1e6);
    let p = session.relation("P").expect("P is registered");
    let answer = session.query(QuerySpec::join(&p, &p)).expect("self-join after compaction");
    assert!(answer.result.max_payload_sum.is_some(), "compacted relation joins with itself");
}

/// Append the HTAP mix to `P`'s delta: 80 % appends, 10 % upserts, 10 %
/// deletes.
fn refill(session: &Session, rng: &mut Rng, n: usize, ops: usize) {
    let appends: Vec<Tuple> = (0..ops * 8 / 10)
        .map(|_| {
            let key = rng.below(n as u64);
            Tuple::new(key, key)
        })
        .collect();
    session.append("P", appends).expect("P is registered");
    for _ in 0..ops / 10 {
        let key = rng.below(n as u64);
        session.update("P", key, key).expect("P is registered");
        session.delete("P", rng.below(n as u64)).expect("P is registered");
    }
}

/// Set a workload up at probe size, run it for `window`, check it.
fn mini_run(factory: &dyn Factory, window: Duration, tracer: &Tracer) -> Window {
    let mut workload = factory.setup().expect("a probe-size workload sets up");
    let out = workload.run(window, true, tracer);
    let finished = workload.finish();
    assert!(
        out.failed == 0 && finished.is_ok(),
        "a probe-size workload failed: {:?} {finished:?}",
        out.first_failure
    );
    out
}

/// `mpsm-serve::protocol`: encode and decode of a query frame and of a
/// 1024-row reply.
fn protocol(probe: &Probe, values: &mut Values, scale: Scale) {
    let repeats = scale.count(2000);
    let query = Frame::Query(QueryBody {
        r: "R".to_string(),
        s: "S".to_string(),
        deadline_micros: 20_000,
        priority: 2,
        rows_cap: 1024,
    });
    let result = Frame::QueryResult(QueryResultBody {
        max_payload_sum: Some(2046),
        r_selected: 1 << 15,
        s_selected: 1 << 15,
        complete: true,
        coverage: 0.125,
        rows: (0..1024u64).map(|k| (k, k, k)).collect(),
        range_coverage: vec![(0, 16_383, 0.25), (16_384, 32_767, 0.0)],
    });
    let frames = [
        (&query, "protocol.encode_query_us", "protocol.decode_query_us", repeats),
        (&result, "protocol.encode_result_us", "protocol.decode_result_us", repeats / 10),
    ];
    for (frame, encode_name, decode_name, repeats) in frames {
        let bytes = frame.encode();
        let ns = probe.median_ns("protocol.encode", ITERS, |_| {
            for _ in 0..repeats {
                black_box(black_box(frame).encode());
            }
        });
        values.set(encode_name, ns / repeats as f64 / 1e3);
        let ns = probe.median_ns("protocol.decode", ITERS, |_| {
            for _ in 0..repeats {
                let decoded = Frame::decode(black_box(&bytes)).expect("own encoding decodes");
                black_box(decoded);
            }
        });
        values.set(decode_name, ns / repeats as f64 / 1e3);
        assert_eq!(&Frame::decode(&bytes).expect("own encoding decodes"), frame);
    }
}

/// `mpsm-serve::server` and `client`: ping round trips, what the wire
/// adds to an in-process query over the same relations and sizing, and
/// a short pass over the rate ladder.
fn serve(probe: &Probe, values: &mut Values, seed: u64, scale: Scale) {
    let inputs = ServeInputs::generate(seed ^ 0x5E87, scale);
    let mut served = ServeWorkload::start(&inputs).expect("probe server starts");
    let (pings, queries) = (scale.count(300), scale.count(200));
    served.control().ping().expect("server answers pings");
    let ping_us: Vec<f64> = (0..pings)
        .map(|_| {
            let (pong, ns) = probe.once("client.ping", || served.control().ping());
            pong.expect("server answers pings");
            ns / 1e3
        })
        .collect();
    let ping_us = sorted(ping_us);
    values.set("server.ping_rtt_p50_us", percentile(&ping_us, 50.0));
    values.set("server.ping_rtt_p95_us", percentile(&ping_us, 95.0));

    let request = QueryRequest::new("R", "S");
    let over_wire: Vec<f64> = (0..queries)
        .map(|_| {
            let (reply, ns) = probe.once("client.query", || served.control().query(&request));
            assert!(reply.expect("served query").complete, "unloaded served query is complete");
            ns / 1e3
        })
        .collect();
    let session = Session::with_run_cache(scheduler_config(), RunCacheConfig::default());
    let (r, s) = inputs.relations();
    let r = session.register(Relation::new("R", r.to_vec()));
    let s = session.register(Relation::new("S", s.to_vec()));
    session.query(QuerySpec::join(&r, &s)).expect("in-process warm-up");
    let in_process: Vec<f64> = (0..queries)
        .map(|_| {
            let (out, ns) = probe.once("session.query", || session.query(QuerySpec::join(&r, &s)));
            out.expect("in-process query");
            ns / 1e3
        })
        .collect();
    values.set("server.wire_overhead_p50_us", median(&over_wire) - median(&in_process));

    let per_rate = Duration::from_millis(if scale.is_smoke() { 60 } else { 250 });
    let phases: Vec<_> = OPEN_RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| served.phase(rate, per_rate, probe.tracer, (1 << 61) | (i as u64) << 32))
        .collect();
    assert!(
        phases.iter().all(|p| p.failed == 0),
        "probe ladder failed: {:?}",
        phases.iter().find_map(|p| p.first_failure.clone())
    );
    let mut ladder = Window::default();
    layer_metrics(&mut ladder, &phases);
    values.extend(ladder.layer);
}
