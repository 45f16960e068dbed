//! The benchmark's contract in one place: workload names, end-to-end
//! metrics with their regression bounds, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is *generated* from these
//! tables (`--emit-benchmark-json`; `selfcheck.sh` diffs the two), and
//! every run asserts that it printed exactly these names — so the file,
//! the README and the program cannot drift apart.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the
    /// driver runs it and holds its end-to-end metrics to their bounds.
    pub gated: bool,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "join_uniform",
        gated: true,
        why: "one out-of-cache P-MPSM join on uniform FK keys (paper Fig. 12): sort is ~75% of wall, so sort, scatter and merge kernels show here and nothing else does",
    },
    WorkloadDef {
        name: "join_skew",
        gated: true,
        why: "same driver on negatively correlated 80:20 skew with cost-balanced splitters (paper sec. 4): a kernel win on uniform keys that costs skewed or duplicate-heavy keys shows here",
    },
    WorkloadDef {
        name: "query_cached",
        gated: true,
        why: "2 closed-loop clients, Zipf pairs over 4 relations whose runs fit the run cache: sort does nothing; merge, pool dispatch, admission and cache lookup do all the work",
    },
    WorkloadDef {
        name: "query_evict",
        gated: true,
        why: "same loop over 12 relations with a cache a third of the working set: misses re-sort and evictions run, so cache policy and run building move this and leave query_cached flat",
    },
    WorkloadDef {
        name: "htap_mixed",
        gated: true,
        why: "a paced writer (append/update/delete 80/10/10) beside one closed-loop analytic client with the compactor on: delta overlay, masked merge, compaction publish and cache re-warm",
    },
    // Run by the one-command mode and `selfcheck.sh`, but not listed in
    // `BENCHMARK.json`: on this box its sub-millisecond latencies are
    // set by vCPU wake-ups and move 20-70 % between identical runs (see
    // `bench/README.md`), more than any bound the contract allows. Its
    // rate ladder is still priced on every traced run of every gated
    // workload through the `open.*` per-layer metrics.
    WorkloadDef {
        name: "serve_open",
        gated: false,
        why: "open-loop TCP load on one pipelined connection at six fixed rates, small relations: frame decode, the poll loop, admission, degrade and reply encode dominate; the only workload that queues",
    },
];

/// What a user of the system sees. Every workload reports every one of
/// these; `bench/README.md` says what an operation is on each. Bounds:
/// three times the worst ten-seed spread measured on this box for the
/// metric on any gated workload, capped at the contract's 0.25 — which
/// every one of them hits (worst spreads 8 - 19 % in the box's noisy
/// phases).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p95_ms", "ms", "lower", 0.25),
    e2e("ns_per_tuple", "ns", "lower", 0.25),
    e2e("goodput_per_s", "1/s", "higher", 0.25),
];

pub const OPEN_RATES: [u32; 6] = [500, 1000, 1500, 2000, 3000, 4000];

/// Single-layer metrics of the traced run, grouped by the module they
/// price.
pub const PER_LAYER: &[MetricDef] = &[
    // mpsm-core::sort
    layer("sort.uniform_ns_per_tuple", "ns", "lower"),
    layer("sort.skew_ns_per_tuple", "ns", "lower"),
    layer("sort.tuples", "count", "higher"),
    // mpsm-core::partition (+ histogram, cdf, splitter)
    layer("partition.ns_per_tuple", "ns", "lower"),
    layer("partition.naive_ns_per_tuple", "ns", "lower"),
    layer("partition.wc_over_naive", "ratio", "lower"),
    layer("splitter.us", "us", "lower"),
    layer("splitter.imbalance", "ratio", "lower"),
    // mpsm-core::merge / interpolation
    layer("merge.ns_per_tuple", "ns", "lower"),
    layer("merge.linear_ns_per_tuple", "ns", "lower"),
    layer("interpolation.ns_per_probe", "ns", "lower"),
    // mpsm-core::join::p_mpsm
    layer("join.phase1_ms", "ms", "lower"),
    layer("join.phase2_ms", "ms", "lower"),
    layer("join.phase3_ms", "ms", "lower"),
    layer("join.phase4_ms", "ms", "lower"),
    layer("join.imbalance", "ratio", "lower"),
    layer("join.coord_ms", "ms", "lower"),
    layer("join.first_iter_ms", "ms", "lower"),
    // mpsm-core::worker
    layer("worker.phase_dispatch_us", "us", "lower"),
    // mpsm-numa
    layer("arena.alloc_us_per_mib", "us/MiB", "lower"),
    // mpsm-core::join::runs / anytime / delta
    layer("runs.build_ns_per_tuple", "ns", "lower"),
    layer("runs.merge_ns_per_tuple", "ns", "lower"),
    layer("anytime.merge_ns_per_tuple", "ns", "lower"),
    layer("anytime.block_check_overhead_pct", "%", "lower"),
    layer("delta.overlay_us_per_kop", "us", "lower"),
    layer("delta.merge_ns_per_tuple", "ns", "lower"),
    layer("delta.vs_clean", "ratio", "lower"),
    // mpsm-exec::run_cache
    layer("cache.hit_rate", "ratio", "higher"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.inserts", "count", "lower"),
    layer("cache.resident_mib", "MiB", "lower"),
    layer("cache.lookup_hit_us", "us", "lower"),
    // mpsm-exec::sched
    layer("sched.queue_wait_p50_us", "us", "lower"),
    layer("sched.queue_wait_p95_us", "us", "lower"),
    layer("sched.exec_p50_ms", "ms", "lower"),
    layer("sched.exec_p95_ms", "ms", "lower"),
    layer("sched.residue_p50_us", "us", "lower"),
    layer("sched.submitted", "count", "higher"),
    layer("sched.completed", "count", "higher"),
    layer("sched.degraded", "count", "lower"),
    layer("sched.deadline_missed", "count", "lower"),
    layer("sched.partial_answers", "count", "lower"),
    // mpsm-exec::session (write path, snapshots, compactor)
    layer("session.write_batch_p50_us", "us", "lower"),
    layer("session.append_batch_p95_us", "us", "lower"),
    layer("session.compactions", "count", "higher"),
    layer("session.compact_ms", "ms", "lower"),
    layer("session.delta_len_max", "count", "lower"),
    layer("session.retained_epochs_max", "count", "lower"),
    layer("session.register_ms", "ms", "lower"),
    // mpsm-serve::protocol
    layer("protocol.encode_query_us", "us", "lower"),
    layer("protocol.decode_query_us", "us", "lower"),
    layer("protocol.encode_result_us", "us", "lower"),
    layer("protocol.decode_result_us", "us", "lower"),
    // mpsm-serve::server / client
    layer("server.ping_rtt_p50_us", "us", "lower"),
    layer("server.ping_rtt_p95_us", "us", "lower"),
    layer("server.wire_overhead_p50_us", "us", "lower"),
    layer("server.outstanding_max", "count", "lower"),
    layer("gen.late_p95_us", "us", "lower"),
    layer("open.r500.p50_ms", "ms", "lower"),
    layer("open.r500.p95_ms", "ms", "lower"),
    layer("open.r500.coverage", "ratio", "higher"),
    layer("open.r1000.p50_ms", "ms", "lower"),
    layer("open.r1000.p95_ms", "ms", "lower"),
    layer("open.r1000.coverage", "ratio", "higher"),
    layer("open.r1500.p50_ms", "ms", "lower"),
    layer("open.r1500.p95_ms", "ms", "lower"),
    layer("open.r1500.coverage", "ratio", "higher"),
    layer("open.r2000.p50_ms", "ms", "lower"),
    layer("open.r2000.p95_ms", "ms", "lower"),
    layer("open.r2000.coverage", "ratio", "higher"),
    layer("open.r3000.p50_ms", "ms", "lower"),
    layer("open.r3000.p95_ms", "ms", "lower"),
    layer("open.r3000.coverage", "ratio", "higher"),
    layer("open.r4000.p50_ms", "ms", "lower"),
    layer("open.r4000.p95_ms", "ms", "lower"),
    layer("open.r4000.coverage", "ratio", "higher"),
    layer("open.max_rate_qps", "1/s", "higher"),
    layer("open.overload_coverage", "ratio", "higher"),
    // mpsm-storage, mpsm-baselines, other variants (reference only)
    layer("storage.dmpsm_ns_per_tuple", "ns", "lower"),
    layer("variant.bmpsm_ns_per_tuple", "ns", "lower"),
    layer("contender.radix_ns_per_tuple", "ns", "lower"),
    layer("contender.wisconsin_ns_per_tuple", "ns", "lower"),
    layer("contender.mpsm_over_radix", "ratio", "lower"),
    // harness
    layer("trace.overhead_pct", "%", "lower"),
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let gated: Vec<&WorkloadDef> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Panics unless the tables respect the limits the contract sets; run
/// by `--emit-benchmark-json` and by every `--smoke` run.
pub fn validate_tables() {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()), "2 to 8 workloads");
    assert!((1..=16).contains(&END_TO_END.len()), "1 to 16 end-to-end metrics");
    assert!((1..=128).contains(&PER_LAYER.len()), "1 to 128 per-layer metrics");
    let mut seen = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name), "bad workload name {}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {} too long", w.name);
        assert!(seen.insert(w.name), "name {} used twice", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "bad metric name {}", m.name);
        assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(m.better == "lower" || m.better == "higher", "bad direction of {}", m.name);
        assert!((0.0..=0.25).contains(&m.bound), "bound of {} outside [0, 0.25]", m.name);
        assert!(seen.insert(m.name), "name {} used twice", m.name);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}
