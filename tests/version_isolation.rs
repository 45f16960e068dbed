//! Answer oracles for served queries over registered versions: clients
//! racing on one version must agree with P-MPSM over the raw tuples,
//! and re-registering, writing to and compacting a relation mid-stream
//! must never serve a stale version — every handle joins exactly the
//! version (and delta prefix) it captured.

use std::sync::Arc;

use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::sink::MaxAggSink;
use mpsm::core::{ExecContext, Tuple};
use mpsm::exec::{
    CompactionConfig, QuerySpec, Relation, RunCacheConfig, SchedulerConfig, Session, SideSource,
};
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
fn racing_clients_agree_with_p_mpsm_over_the_raw_tuples() {
    let mut next = lcg(2012);
    let r_data: Vec<Tuple> = (0..3000).map(|i| Tuple::new(next() % 700, i)).collect();
    let s_data: Vec<Tuple> = (0..9000).map(|i| Tuple::new(next() % 700, i)).collect();

    // P-MPSM over the raw, unsorted tuples: a full MPSM build.
    let join = PMpsmJoin::new(JoinConfig::with_threads(2));
    let (expect, _) = join.join_in::<MaxAggSink>(&ExecContext::flat(2), &r_data, &s_data);

    let session = Session::new(SchedulerConfig::new(2).max_in_flight(4).queue_capacity(64));
    let r = session.register(Relation::new("R", r_data));
    let s = session.register(Relation::new("S", s_data));

    // 8 client threads × 4 queries, all on the same versions: each
    // query cuts its own view of the shared stored order.
    std::thread::scope(|scope| {
        for client in 0..8 {
            let (session, r, s) = (&session, &r, &s);
            let expect = &expect;
            scope.spawn(move || {
                for round in 0..4 {
                    let out = session
                        .query(QuerySpec::join(r, s))
                        .unwrap_or_else(|e| panic!("client {client} round {round}: {e}"));
                    assert_eq!(
                        out.result.max_payload_sum, *expect,
                        "client {client} round {round}"
                    );
                    let sources = out.result.plan.sources.expect("Source row");
                    assert_eq!((sources.r, sources.s), (SideSource::Stored, SideSource::Stored));
                }
            });
        }
    });
    assert_eq!(session.scheduler().metrics().completed, 32);
}

#[test]
fn old_handles_answer_for_the_version_they_captured() {
    let n = 512;
    let session = Session::new(SchedulerConfig::new(2));
    let s = session.register(plain_s(n));
    let v1 = session.register(versioned_r(n, 1));
    // Query version 1, then bump the relation.
    assert_eq!(
        session.query(QuerySpec::join(&v1, &s)).expect("v1 query").result.max_payload_sum,
        expected_max(n, 1)
    );
    let v2 = session.register(versioned_r(n, 2));
    // Both handles answer for exactly the data they captured.
    assert_eq!(
        session.query(QuerySpec::join(&v2, &s)).expect("v2 query").result.max_payload_sum,
        expected_max(n, 2)
    );
    assert_eq!(
        session.query(QuerySpec::join(&v1, &s)).expect("stale-handle query").result.max_payload_sum,
        expected_max(n, 1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write storm: random appends, deletes, compactions,
    /// re-registrations and queries, with every answer checked against
    /// a replayed model of the handle's own lineage. A stale version —
    /// runs cut from contents the handle no longer describes — shows up
    /// as a wrong `max` immediately.
    #[test]
    fn write_storms_never_serve_a_stale_version(
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
        // the newest version and arbitrarily stale handles are joined.
        // Every answer must carry
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
