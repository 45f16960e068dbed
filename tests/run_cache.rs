//! Concurrency and invalidation suite for the sorted-run cache:
//! clients racing on one key must agree with P-MPSM over the raw tuples
//! while the cache keeps exactly one run set per side (a racing publish
//! keeps the resident set), and
//! re-registering a relation mid-stream must never serve stale runs —
//! every handle joins exactly the version it captured.

use std::sync::Arc;

use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::sink::MaxAggSink;
use mpsm::core::{ExecContext, Tuple};
use mpsm::exec::{CompactionConfig, QuerySpec, Relation, RunCacheConfig, SchedulerConfig, Session};
use proptest::prelude::*;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

/// R with payloads stamped by `version`, so a result proves which
/// version of the relation the join actually read.
fn versioned_r(n: u64, version: u64) -> Relation {
    Relation::new("R", (0..n).map(|k| Tuple::new(k, version * 1_000_000 + k)).collect())
}

fn plain_s(n: u64) -> Relation {
    Relation::new("S", (0..n).map(|k| Tuple::new(k, k)).collect())
}

/// `max(R.payload + S.payload)` for `versioned_r(n, version) ⋈ plain_s(n)`.
fn expected_max(n: u64, version: u64) -> Option<u64> {
    Some(version * 1_000_000 + (n - 1) + (n - 1))
}

#[test]
fn racing_clients_on_one_key_agree_with_uncached_execution() {
    let mut next = lcg(2012);
    let r_data: Vec<Tuple> = (0..3000).map(|i| Tuple::new(next() % 700, i)).collect();
    let s_data: Vec<Tuple> = (0..9000).map(|i| Tuple::new(next() % 700, i)).collect();

    // P-MPSM over the raw, unsorted tuples: a full MPSM build.
    let join = PMpsmJoin::new(JoinConfig::with_threads(2));
    let (expect, _) = join.join_in::<MaxAggSink>(&ExecContext::flat(2), &r_data, &s_data);

    let cached = Session::new(SchedulerConfig::new(2).max_in_flight(4).queue_capacity(64));
    let r = cached.register(Relation::new("R", r_data));
    let s = cached.register(Relation::new("S", s_data));

    // 8 client threads × 4 queries, all on the same cache key. The
    // first misses race: each cuts its own runs without waiting, and
    // only the first publish per side becomes resident.
    std::thread::scope(|scope| {
        for client in 0..8 {
            let (cached, r, s) = (&cached, &r, &s);
            let expect = &expect;
            scope.spawn(move || {
                for round in 0..4 {
                    let out = cached
                        .query(QuerySpec::join(r, s))
                        .unwrap_or_else(|e| panic!("client {client} round {round}: {e}"));
                    assert_eq!(
                        out.result.max_payload_sum, *expect,
                        "client {client} round {round}"
                    );
                }
            });
        }
    });

    let stats = cached.run_cache().expect("cached session").stats();
    assert_eq!(stats.inserts, 2, "a racing publish keeps the resident set");
    assert_eq!(stats.entries, 2, "both run sets resident");
    assert_eq!(stats.hits + stats.misses, 64, "32 queries × 2 sides all consulted the cache");
    assert!(stats.hits >= 2, "later rounds must hit; got {stats:?}");
    assert_eq!(stats.evictions, 0, "nothing invalidated or over budget");
}

#[test]
fn old_handles_recompute_after_invalidation() {
    let n = 512;
    let session = Session::new(SchedulerConfig::new(2));
    let s = session.register(plain_s(n));
    let v1 = session.register(versioned_r(n, 1));
    // Populate the cache for version 1, then bump the relation.
    assert_eq!(
        session.query(QuerySpec::join(&v1, &s)).expect("v1 query").result.max_payload_sum,
        expected_max(n, 1)
    );
    let v2 = session.register(versioned_r(n, 2));
    // The bump invalidated version 1's cached runs; both handles still
    // answer for exactly the data they captured.
    assert_eq!(
        session.query(QuerySpec::join(&v2, &s)).expect("v2 query").result.max_payload_sum,
        expected_max(n, 2)
    );
    assert_eq!(
        session.query(QuerySpec::join(&v1, &s)).expect("stale-handle query").result.max_payload_sum,
        expected_max(n, 1)
    );
    let stats = session.run_cache().expect("cached").stats();
    assert!(stats.evictions >= 1, "the re-registration evicted v1's runs: {stats:?}");
}

/// Compaction folds the delta, bumps the version, and — with cache
/// warming on — publishes **exactly one** cache entry per new version,
/// which the very next query hits on both sides.
#[test]
fn compaction_warms_exactly_one_cache_entry_per_version() {
    let n = 256;
    let session = Session::with_compaction(
        SchedulerConfig::new(2),
        RunCacheConfig::default(),
        CompactionConfig::manual(),
    );
    let s = session.register(plain_s(n));
    let r = session.register(versioned_r(n, 1));
    assert_eq!(
        session.query(QuerySpec::join(&r, &s)).expect("populate").result.max_payload_sum,
        expected_max(n, 1)
    );
    let base_inserts = session.run_cache().expect("cached").stats().inserts;
    assert_eq!(base_inserts, 2, "first query built both sides into the cache");

    for round in 1..=4u64 {
        // One dominating append on key 0 (plain S has payload 0 there),
        // so every round's answer proves which writes the join saw.
        session.append("R", [Tuple::new(0, 9_000_000 + round)]).expect("registered");
        let misses = session.run_cache().expect("cached").stats().misses;
        assert!(session.compact("R"), "round {round}: delta folds");
        let stats = session.run_cache().expect("cached").stats();
        assert_eq!(stats.misses, misses, "round {round}: the re-warm is not a query-side miss");
        assert_eq!(
            stats.inserts,
            base_inserts + round,
            "round {round}: compaction publishes exactly one entry for the new version"
        );
        let before = stats;
        let out = session.query(QuerySpec::join(&r, &s)).expect("post-compaction").result;
        assert_eq!(out.max_payload_sum, Some(9_000_000 + round), "round {round}");
        let after = session.run_cache().expect("cached").stats();
        assert_eq!(after.hits, before.hits + 2, "round {round}: warmed runs hit on both sides");
        assert_eq!(after.inserts, before.inserts, "round {round}: the query built nothing");
        assert_eq!(
            session.relation("R").expect("resolves").version(),
            1 + round,
            "round {round}: each fold bumps the version"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write storm vs. the cache: random appends, deletes, compactions,
    /// re-registrations and queries, with every answer checked against
    /// a replayed model of the handle's own lineage. A stale hit —
    /// cached runs served for contents they no longer describe — shows
    /// up as a wrong `max` immediately.
    #[test]
    fn write_storms_never_serve_stale_hits(
        ops in proptest::collection::vec(any::<u64>(), 4..40),
    ) {
        let n = 192u64;
        let session = Session::with_compaction(
            SchedulerConfig::new(2),
            RunCacheConfig::default(),
            CompactionConfig::manual(),
        );
        let s = session.register(plain_s(n));
        let s_data: Vec<Tuple> = (0..n).map(|k| Tuple::new(k, k)).collect();
        let oracle = |model: &[Tuple]| -> Option<u64> {
            let mut max = None;
            for rt in model {
                for st in &s_data {
                    if rt.key == st.key {
                        let sum = rt.payload + st.payload;
                        if max.is_none_or(|m| sum > m) {
                            max = Some(sum);
                        }
                    }
                }
            }
            max
        };

        // Per-lineage replayed contents: a re-registration freezes the
        // old lineage's model (its handles pin that final world) and
        // starts a new one; writes and compactions evolve the last.
        let first: Vec<Tuple> = (0..n).map(|k| Tuple::new(k, 1_000_000 + k)).collect();
        let mut lineages: Vec<Vec<Tuple>> = vec![first];
        let mut handles: Vec<(Arc<Relation>, usize)> =
            vec![(session.register(versioned_r(n, 1)), 0)];
        let mut version = 1u64;
        let mut stamp = 0u64;
        for (step, w) in ops.iter().enumerate() {
            match w % 6 {
                0 | 1 => {
                    stamp += 1;
                    let t = Tuple::new(w % n, 2_000_000 + stamp);
                    session.append("R", [t]).expect("registered");
                    lineages.last_mut().expect("nonempty").push(t);
                }
                2 => {
                    let key = (w / 6) % n;
                    session.delete("R", key).expect("registered");
                    lineages.last_mut().expect("nonempty").retain(|t| t.key != key);
                }
                3 => {
                    session.compact("R");
                }
                4 => {
                    version += 1;
                    lineages.push(
                        (0..n).map(|k| Tuple::new(k, version * 1_000_000 + k)).collect(),
                    );
                    handles.push((session.register(versioned_r(n, version)), lineages.len() - 1));
                }
                _ => {
                    let (handle, lineage) = &handles[(*w as usize / 6) % handles.len()];
                    let out = session
                        .query(QuerySpec::join(handle, &s))
                        .expect("query failed")
                        .result;
                    prop_assert_eq!(
                        out.max_payload_sum,
                        oracle(&lineages[*lineage]),
                        "step {}: stale or torn answer for lineage {}",
                        step,
                        lineage
                    );
                }
            }
        }
        // Quiesce and sweep every handle once more.
        session.compact("R");
        for (handle, lineage) in &handles {
            let out = session.query(QuerySpec::join(handle, &s)).expect("final sweep").result;
            prop_assert_eq!(out.max_payload_sum, oracle(&lineages[*lineage]));
        }
    }

    #[test]
    fn random_register_query_interleavings_never_serve_stale_runs(
        ops in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        // A random interleaving of re-registrations and queries —
        // queries target a random previously captured handle, so both
        // the newest version and arbitrarily stale handles are joined
        // while the cache churns underneath. Every answer must carry
        // the payload stamp of the handle's own version.
        let n = 256;
        let session = Session::new(SchedulerConfig::new(2));
        let s = session.register(plain_s(n));
        let mut version = 1u64;
        let mut handles: Vec<(Arc<Relation>, u64)> =
            vec![(session.register(versioned_r(n, version)), version)];
        for w in ops {
            if w % 3 == 0 {
                version += 1;
                handles.push((session.register(versioned_r(n, version)), version));
            } else {
                let (handle, v) = &handles[(w as usize / 3) % handles.len()];
                let out = session
                    .query(QuerySpec::join(handle, &s))
                    .expect("query failed")
                    .result;
                prop_assert_eq!(out.max_payload_sum, expected_max(n, *v));
            }
        }
    }
}
