//! The engine surface the repository's benchmark links, in the shapes
//! its source uses it.
//!
//! The benchmark (`bench/`, declared by `BENCHMARK.json`) is a crate of
//! its own, outside the workspace, so `cargo test` never builds it.
//! This file imports every engine item `bench/src` imports — one `use`
//! per benchmark import line — and calls each the way the benchmark
//! does, at toy sizes, so a change that would break the benchmark's
//! build fails `cargo test` as well. Edit it together with the
//! benchmark's imports.

use std::sync::Arc;

// bench/src/probes.rs
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
// bench/src/workloads/{mod,query,serve}.rs
use mpsm_exec::{QueryOutput, RunCacheStats, SchedulerConfig, SchedulerMetrics};
use mpsm_serve::protocol::MAX_FRAME;
use mpsm_serve::{Client, Server, ServerConfig, ServerHandle};

const THREADS: usize = 2;
const RADIX_BITS: u32 = 6;

fn workload() -> Workload {
    fk_uniform(1 << 10, 2, 7)
}

#[test]
fn core_kernels_link_in_the_probe_shapes() {
    let cx = ExecContext::flat(THREADS);
    let mut run: Vec<Tuple> = skewed_80_20(512, KEY_DOMAIN, true, 3);
    let mut scope = cx.scope(0);
    cx.sort_run(0, &mut run, NodeId(0), &mut scope);
    assert!(is_key_sorted(&run));

    let chunks: Vec<&[Tuple]> = run.chunks(run.len().div_ceil(THREADS)).collect();
    let domain = RadixDomain::from_tuples(chunks.iter().copied(), RADIX_BITS);
    let histograms: Vec<_> = chunks.iter().map(|c| compute_histogram(c, &domain)).collect();
    let splitters = equi_height_splitters(&combine_histograms(&histograms), THREADS);
    let parts = range_partition_ctx(&cx, &chunks, &domain, &splitters);
    assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), run.len());
    let parts = range_partition_naive(&chunks, &domain, &splitters);
    assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), run.len());

    let skewed = skewed_negative_correlation(1 << 10, 2, KEY_DOMAIN, 5);
    let mut sorted_s = skewed.s.clone();
    sorted_s.sort_unstable_by_key(|t| t.key);
    let locals: Vec<(Vec<u64>, usize)> = vec![(equi_height_bounds(&sorted_s, 4), sorted_s.len())];
    let cdf = Cdf::from_local_bounds(&locals);
    let domain = RadixDomain::from_tuples([skewed.r.as_slice()], RADIX_BITS);
    let r_hist = compute_histogram(&skewed.r, &domain);
    let chosen = compute_splitters(&r_hist, &domain, &cdf, THREADS);
    let costs: Vec<f64> = partition_costs(&chosen, &r_hist, &domain, &cdf);
    assert_eq!(costs.len(), THREADS);

    type Kernel = fn(&[Tuple], &[Tuple], &mut MaxAggSink);
    let kernels: [Kernel; 2] = [merge_join::<MaxAggSink>, merge_join_linear::<MaxAggSink>];
    for kernel in kernels {
        let mut sink = MaxAggSink::default();
        kernel(&run, &run, &mut sink);
        assert!(sink.finish().is_some());
    }
    assert_eq!(run[interpolation_lower_bound(&run, run[5].key)].key, run[5].key);
    assert_eq!(cx.pool().run(|w| w), (0..THREADS).collect::<Vec<_>>());
    let mut buf = cx.alloc(0, 16);
    buf[0] = Tuple::new(1, 1);
}

#[test]
fn joins_and_run_sets_link_in_the_probe_shapes() {
    let cx = ExecContext::flat(THREADS);
    let inputs = workload();
    let config = JoinConfig::with_threads(THREADS);
    cx.reset_counters();
    let (expected, stats): (Option<u64>, JoinStats) =
        PMpsmJoin::new(config.clone()).join_in::<MaxAggSink>(&cx, &inputs.r, &inputs.s);
    let _: [f64; 4] = stats.phases_ms();
    let _: f64 = stats.imbalance();
    let _ = stats.phase_critical(Phase::Four);
    let dmpsm = DMpsmJoin::with_join_config(config.clone());
    assert_eq!(dmpsm.join_in::<MaxAggSink>(&cx, &inputs.r, &inputs.s).0, expected);
    assert_eq!(
        BMpsmJoin::new(config.clone()).join_in::<MaxAggSink>(&cx, &inputs.r, &inputs.s).0,
        expected
    );
    let wisconsin = WisconsinHashJoin::new(config.clone());
    assert_eq!(wisconsin.join_with_sink::<MaxAggSink>(&inputs.r, &inputs.s).0, expected);
    assert_eq!(
        RadixJoin::new(config).join_with_sink::<MaxAggSink>(&inputs.r, &inputs.s).0,
        expected
    );

    let mut stats = JoinStats::new(cx.threads());
    let r_runs = build_run_set(&cx, &inputs.r, RADIX_BITS, Phase::Two, Phase::Three, &mut stats);
    let s_runs = build_run_set(&cx, &inputs.s, RADIX_BITS, Phase::One, Phase::One, &mut stats);
    assert_eq!(merge_run_sets_in::<MaxAggSink>(&cx, &r_runs, &s_runs, &mut stats), expected);
    let never = AnytimeToken::Never;
    let out = merge_run_sets_anytime::<MaxAggSink>(&cx, &r_runs, &s_runs, &never, &mut stats);
    assert_eq!(out.result, expected);

    let ops = vec![DeltaOp::Append(Tuple::new(inputs.r[0].key, 0)), DeltaOp::Delete { key: 1 }];
    let overlay = DeltaOverlay::from_ops(&ops);
    let _: Vec<Tuple> = overlay.apply(&inputs.r);
    let r_side = DeltaSide {
        base: &r_runs,
        delta: Some(&cx.adopt(0, overlay.adds.clone())),
        mask: &overlay.masked,
    };
    let s_side = DeltaSide::base_only(&s_runs);
    assert!(r_side.logical_tuples() + s_side.logical_tuples() > 0);
    assert!(merge_delta_sides_in::<MaxAggSink>(&cx, r_side, s_side, &mut stats).is_some());
}

#[test]
fn the_run_cache_links_in_the_probe_shape() {
    let cx = ExecContext::flat(THREADS);
    let tuples = workload().s;
    let mut stats = JoinStats::new(cx.threads());
    let runs = build_run_set(&cx, &tuples, RADIX_BITS, Phase::One, Phase::One, &mut stats);
    let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
    let key =
        RunKey { relation: 1, version: 1, fingerprint: splitter_fingerprint(THREADS, RADIX_BITS) };
    match cache.lookup(key) {
        Lookup::Miss(permit) => permit.publish(Arc::new(runs)),
        _ => panic!("a fresh cache must miss"),
    }
    assert!(matches!(cache.lookup(key), Lookup::Hit(_)), "published key must hit");
}

#[test]
fn sessions_link_in_the_workload_shapes() {
    let config: SchedulerConfig = SchedulerConfig::new(THREADS).max_in_flight(2);
    // `bench/src/workloads/query.rs`: an optional budget over the default.
    let mut cache = RunCacheConfig::default();
    if let Some(budget) = Some(1 << 20) {
        cache.byte_budget = budget;
    }
    let session = Session::with_run_cache(config, cache);
    let compacting = Session::with_compaction(
        SchedulerConfig::new(THREADS),
        RunCacheConfig::default(),
        CompactionConfig::default().threshold(64).interval(std::time::Duration::from_millis(50)),
    );
    let manual = Session::with_compaction(
        SchedulerConfig::new(THREADS),
        RunCacheConfig::default(),
        CompactionConfig::manual(),
    );
    let inputs = workload();
    for session in [&session, &compacting, &manual] {
        let r: Arc<Relation> = session.register(Relation::new("R", inputs.r.clone()));
        let s = session.register(Relation::new("S", inputs.s.clone()));
        let out: QueryOutput = session.query(QuerySpec::join(&r, &s)).expect("query");
        assert!(out.result.max_payload_sum.is_some());
        let _ = (out.queue_wait, out.execution, &out.result.stats);
        assert!(out.result.plan.anytime.as_ref().is_none_or(|a| a.complete));
        let ticket = session.submit(QuerySpec::join(&r, &s)).expect("admitted");
        ticket.wait().expect("query");
        session.append("R", [Tuple::new(1, 1)]).expect("R is registered");
        session.update("R", 2, 2).expect("R is registered");
        session.delete("R", 3).expect("R is registered");
    }
    assert!(manual.compact("R"));
    assert!(manual.relation("R").is_some());

    let metrics: SchedulerMetrics = session.scheduler().metrics();
    let cache: RunCacheStats = session.run_cache().map(|c| c.stats()).unwrap_or_default();
    let _ = (metrics.cache_hits, metrics.cache_misses, metrics.cache_evictions);
    let _ = (cache.inserts, cache.bytes);
    let _ = (metrics.submitted, metrics.completed, metrics.degraded, metrics.compactions);
    let _ = (metrics.deadline_missed, metrics.partial_answers);
}

#[test]
fn the_server_and_protocol_link_in_the_serve_shapes() {
    let query = Frame::Query(QueryBody {
        r: "R".to_string(),
        s: "S".to_string(),
        deadline_micros: 20_000,
        priority: 2,
        rows_cap: 8,
    });
    let result = Frame::QueryResult(QueryResultBody {
        max_payload_sum: Some(2),
        r_selected: 1,
        s_selected: 1,
        complete: true,
        coverage: 1.0,
        rows: vec![(1, 1, 1)],
        range_coverage: vec![(0, 1, 1.0)],
    });
    for frame in [&query, &result] {
        let bytes = frame.encode();
        assert!(bytes.len() <= MAX_FRAME as usize);
        assert_eq!(&Frame::decode(&bytes).expect("own encoding decodes"), frame);
    }

    let session = Session::with_run_cache(SchedulerConfig::new(THREADS), RunCacheConfig::default());
    let server = Server::bind_with("127.0.0.1:0", session, ServerConfig::default().workers(1))
        .expect("bind");
    let handle: ServerHandle = server.spawn().expect("spawn");
    let mut control = Client::connect(handle.addr()).expect("connect");
    control.ping().expect("ping");
    let wire = |tuples: &[Tuple]| tuples.iter().map(|t| (t.key, t.payload)).collect::<Vec<_>>();
    let inputs = workload();
    control.register("R", wire(&inputs.r)).expect("register R");
    control.register("S", wire(&inputs.s)).expect("register S");
    let reply = control.query(&QueryRequest::new("R", "S")).expect("query");
    assert!(reply.complete && reply.max_payload_sum.is_some());
    handle.shutdown();
}
