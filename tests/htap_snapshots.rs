//! Snapshot-isolation torture suite for mutable relations.
//!
//! Three angles on the same contract — a query joins **exactly** the
//! state its snapshot captured, no matter what writes, re-registrations
//! or compactions happen around it:
//!
//! 1. randomized sequential interleavings of appends / updates /
//!    deletes / compactions / queries, checked against a replayed
//!    model of the relation at each query point;
//! 2. delta-merge equivalence over the same six adversarial key
//!    distributions the sort-kernel suite uses (uniform, all-equal,
//!    near-`u64::MAX`, presorted, reversed, zipf-skewed) — the delta
//!    path must agree with a nested-loop join over the materialized
//!    union, before and after compaction;
//! 3. genuinely concurrent writers + background compactor vs. racing
//!    analytic readers, where every answer must describe a consistent
//!    write prefix (cardinality and content must agree on *how many*
//!    writes the snapshot saw).

use mpsm::core::context::ExecContext;
use mpsm::core::join::anytime::AnytimeToken;
use mpsm::core::Tuple;
use mpsm::exec::{
    paper_query_runs, CompactionConfig, QuerySpec, Relation, RunCacheConfig, SchedulerConfig,
    Session,
};
use proptest::prelude::*;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

/// `max(r.payload + s.payload)` over the equi-join, by nested loop —
/// the oracle every executor answer is compared against.
fn oracle_max(r: &[Tuple], s: &[Tuple]) -> Option<u64> {
    let mut max = None;
    for rt in r {
        for st in s {
            if rt.key == st.key {
                let sum = rt.payload + st.payload;
                if max.is_none_or(|m| sum > m) {
                    max = Some(sum);
                }
            }
        }
    }
    max
}

/// The model's replay of one write against a materialized relation —
/// must mirror `Session::{append, update, delete}` semantics exactly.
#[derive(Debug, Clone)]
enum ModelWrite {
    Append(Tuple),
    Update { key: u64, payload: u64 },
    Delete { key: u64 },
}

fn apply_model(state: &mut Vec<Tuple>, write: &ModelWrite) {
    match write {
        ModelWrite::Append(t) => state.push(*t),
        ModelWrite::Update { key, payload } => {
            state.retain(|t| t.key != *key);
            state.push(Tuple::new(*key, *payload));
        }
        ModelWrite::Delete { key } => state.retain(|t| t.key != *key),
    }
}

/// The six adversarial key distributions from `tests/sort_kernels.rs`.
fn keys_for(dist: usize, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    match dist % 6 {
        0 => (0..n).map(|_| next()).collect(),
        1 => vec![u64::MAX - (seed % 3); n],
        2 => (0..n).map(|i| u64::MAX - (i as u64 % 2)).collect(),
        3 => (0..n).map(|i| i as u64 * 37).collect(),
        4 => (0..n).map(|i| (n - i) as u64 * 37).collect(),
        5 => (0..n).map(|_| 1u64 << (next() % 60)).collect(),
        _ => unreachable!(),
    }
}

/// A session whose compactor only runs when the test says so.
fn manual_session(threads: usize) -> Session {
    Session::with_compaction(
        SchedulerConfig::new(threads),
        RunCacheConfig::default(),
        CompactionConfig::manual(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of writes, compactions and queries against
    /// a replayed model: at every query point the executor must join
    /// exactly the model's current state — and folding the delta at an
    /// arbitrary point must never change any later answer.
    #[test]
    fn random_write_interleavings_agree_with_a_replayed_model(
        ops in proptest::collection::vec(any::<u64>(), 8..48),
        seed in any::<u64>(),
    ) {
        let n = 96u64;
        let key_space = 128u64;
        let session = manual_session(2);
        let r = session.register(Relation::new(
            "R",
            (0..n).map(|k| Tuple::new(k, k)).collect(),
        ));
        let s_data: Vec<Tuple> = (0..n).map(|k| Tuple::new(k, 10_000 + k)).collect();
        let s = session.register(Relation::new("S", s_data.clone()));

        let mut model: Vec<Tuple> = (0..n).map(|k| Tuple::new(k, k)).collect();
        let mut next = lcg(seed);
        for (step, w) in ops.iter().enumerate() {
            match w % 5 {
                0 => {
                    let t = Tuple::new(next() % key_space, next() % 1_000_000);
                    session.append("R", [t]).expect("R is registered");
                    apply_model(&mut model, &ModelWrite::Append(t));
                }
                1 => {
                    let (key, payload) = (next() % key_space, next() % 1_000_000);
                    session.update("R", key, payload).expect("R is registered");
                    apply_model(&mut model, &ModelWrite::Update { key, payload });
                }
                2 => {
                    let key = next() % key_space;
                    session.delete("R", key).expect("R is registered");
                    apply_model(&mut model, &ModelWrite::Delete { key });
                }
                3 => {
                    // Folding the delta is invisible to answers; it only
                    // bumps the base version under the hood.
                    session.compact("R");
                }
                _ => {
                    let out = session
                        .query(QuerySpec::join(&r, &s))
                        .expect("query failed")
                        .result;
                    prop_assert_eq!(
                        out.max_payload_sum,
                        oracle_max(&model, &s_data),
                        "step {}: answer diverged from the replayed model",
                        step
                    );
                    prop_assert_eq!(
                        out.r_selected,
                        model.len(),
                        "step {}: logical cardinality diverged",
                        step
                    );
                }
            }
        }
        // Final checks: drain the delta and ask once more.
        session.compact("R");
        prop_assert_eq!(session.delta_len("R"), Some(0));
        let out = session.query(QuerySpec::join(&r, &s)).expect("final query").result;
        prop_assert_eq!(out.max_payload_sum, oracle_max(&model, &s_data));
        prop_assert_eq!(out.r_selected, model.len());
    }

    /// Delta-merge equivalence over the six sort-kernel distributions:
    /// with both sides drawn from an adversarial key distribution and
    /// a random batch of writes applied to R, the executor's answer
    /// must match the nested-loop oracle over the materialized state —
    /// with the delta live, and again after compaction folds it.
    #[test]
    fn delta_merge_matches_oracle_across_distributions(
        dist in 0usize..6,
        seed in any::<u64>(),
        write_count in 1usize..48,
    ) {
        let n = 160;
        let r_keys = keys_for(dist, n, seed ^ 0xA11CE);
        let s_keys = keys_for(dist, n, seed ^ 0xB0B);
        let r_data: Vec<Tuple> =
            r_keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect();
        let s_data: Vec<Tuple> =
            s_keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, 5_000 + i as u64)).collect();

        let session = manual_session(2);
        let r = session.register(Relation::new("R", r_data.clone()));
        let s = session.register(Relation::new("S", s_data.clone()));

        // Writes target keys from the same distribution so deletes and
        // updates actually hit base tuples (fresh keys exercise pure
        // appends).
        let mut model = r_data;
        let mut next = lcg(seed | 0x10);
        for _ in 0..write_count {
            let key = if next().is_multiple_of(2) {
                r_keys[(next() as usize) % r_keys.len()]
            } else {
                next()
            };
            let write = match next() % 3 {
                0 => ModelWrite::Append(Tuple::new(key, next() % 1_000)),
                1 => ModelWrite::Update { key, payload: next() % 1_000 },
                _ => ModelWrite::Delete { key },
            };
            match &write {
                ModelWrite::Append(t) => {
                    session.append("R", [*t]).expect("registered");
                }
                ModelWrite::Update { key, payload } => {
                    session.update("R", *key, *payload).expect("registered");
                }
                ModelWrite::Delete { key } => {
                    session.delete("R", *key).expect("registered");
                }
            }
            apply_model(&mut model, &write);
        }
        let expect = oracle_max(&model, &s_data);

        let live = session.query(QuerySpec::join(&r, &s)).expect("live-delta query").result;
        prop_assert_eq!(live.max_payload_sum, expect, "live delta diverged (dist {})", dist);
        prop_assert_eq!(live.r_selected, model.len());

        session.compact("R");
        prop_assert_eq!(session.delta_len("R"), Some(0));
        let folded = session.query(QuerySpec::join(&r, &s)).expect("post-compaction").result;
        prop_assert_eq!(folded.max_payload_sum, expect, "compaction changed the answer");
        let fresh = session.relation("R").expect("resolves");
        let refreshed =
            session.query(QuerySpec::join(&fresh, &s)).expect("fresh handle").result;
        prop_assert_eq!(refreshed.max_payload_sum, expect, "fresh handle diverged");
    }
}

/// A snapshot captured before a write must keep answering from its
/// pre-write world even after the write, a compaction, *and* a
/// re-registration of the name have all landed.
#[test]
fn snapshots_pin_their_world_through_writes_compaction_and_reregistration() {
    let n = 200u64;
    let session = manual_session(2);
    let r1 = session.register(Relation::new("R", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let s = session.register(Relation::new("S", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let clean_max = Some(2 * (n - 1));

    session.append("R", [Tuple::new(n - 1, 77_777)]).expect("registered");
    let dirty = session.query(QuerySpec::join(&r1, &s)).expect("dirty").result;
    assert_eq!(dirty.max_payload_sum, Some(77_777 + n - 1));

    assert!(session.compact("R"), "delta folds");
    let r2 = session.relation("R").expect("resolves");
    assert_eq!(r2.version(), 2);

    // Re-register the name with different contents entirely.
    let r3 = session
        .register(Relation::new("R", (0..n).map(|k| Tuple::new(k, 1_000_000 + k)).collect()));
    assert_eq!(r3.version(), 3);

    // Every captured handle still answers for exactly its own world.
    let via_r1 = session.query(QuerySpec::join(&r1, &s)).expect("v1 handle").result;
    assert_eq!(via_r1.max_payload_sum, Some(77_777 + n - 1), "v1 pins base + its delta prefix");
    let via_r2 = session.query(QuerySpec::join(&r2, &s)).expect("v2 handle").result;
    assert_eq!(via_r2.max_payload_sum, Some(77_777 + n - 1), "v2 is the folded same world");
    let via_r3 = session.query(QuerySpec::join(&r3, &s)).expect("v3 handle").result;
    assert_eq!(via_r3.max_payload_sum, Some(1_000_000 + 2 * (n - 1)));
    let _ = clean_max;
}

/// A pinned spec resolved *after* a newer query advanced the log's
/// shared fold still joins exactly its own delta prefix: an older
/// watermark never reads the newer overlay.
#[test]
fn a_pinned_prefix_outlives_a_newer_fold() {
    let n = 300u64;
    let session = manual_session(2);
    let r = session.register(Relation::new("R", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let s = session.register(Relation::new("S", (0..n).map(|k| Tuple::new(k, k)).collect()));
    session.append("R", [Tuple::new(n - 1, 70_000)]).expect("registered");
    session.delete("R", 0).expect("registered");
    session.update("R", 5, 50_000).expect("registered");
    let pinned = session.pin(QuerySpec::join(&r, &s));

    session.append("R", [Tuple::new(n - 1, 90_000)]).expect("registered");
    session.delete("R", 1).expect("registered");
    session.delete("R", 2).expect("registered");
    let live = session.query(QuerySpec::join(&r, &s)).expect("live").result;
    assert_eq!(live.max_payload_sum, Some(90_000 + n - 1));
    assert_eq!(live.r_selected as u64, n + 1 - 1 + 1 - 2, "all six writes");

    let old = paper_query_runs(&ExecContext::flat(2), &pinned, &AnytimeToken::Never);
    assert_eq!(old.max_payload_sum, Some(70_000 + n - 1), "the pinned prefix only");
    assert_eq!(old.r_selected as u64, n + 1 - 1, "the first three writes");
}

/// Concurrent writers + background compactor vs. racing readers. The
/// writer appends strictly increasing payloads onto one key, so every
/// answer reveals exactly how many appends the query's snapshot saw —
/// and the reported cardinality must agree with that count (a torn
/// snapshot shows up as a cardinality/content mismatch), and the
/// visible prefix must never shrink between a reader's own queries.
#[test]
fn racing_readers_see_consistent_monotone_write_prefixes() {
    let n = 512u64;
    let appends = 160u64;
    let session = Session::with_compaction(
        SchedulerConfig::new(2).max_in_flight(4).queue_capacity(256),
        RunCacheConfig::default(),
        CompactionConfig::default().threshold(24).interval(std::time::Duration::from_millis(1)),
    );
    let r = session.register(Relation::new("R", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let s = session.register(Relation::new("S", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let base_max = 2 * (n - 1);

    std::thread::scope(|scope| {
        let session_ref = &session;
        let writer = scope.spawn(move || {
            // Append i carries payload base_max + i + 1 on key 0 (S has
            // key 0 / payload 0): after k appends the true max is
            // base_max + k, so answers decode k exactly.
            for i in 0..appends {
                session_ref.append("R", [Tuple::new(0, base_max + i + 1)]).expect("registered");
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        for reader in 0..3 {
            let (session, r, s) = (&session, &r, &s);
            scope.spawn(move || {
                let mut last_seen = 0u64;
                for round in 0..12 {
                    let out = session
                        .query(QuerySpec::join(r, s))
                        .unwrap_or_else(|e| panic!("reader {reader} round {round}: {e}"));
                    let max = out.result.max_payload_sum.expect("join never empty");
                    assert!(max >= base_max, "reader {reader} lost base tuples");
                    let k = max - base_max;
                    assert!(k <= appends, "reader {reader} saw phantom appends: {k}");
                    assert_eq!(
                        out.result.r_selected as u64,
                        n + k,
                        "reader {reader} round {round}: cardinality says a different \
                         prefix than the content (torn snapshot)"
                    );
                    assert!(
                        k >= last_seen,
                        "reader {reader}: visible prefix shrank {last_seen} -> {k}"
                    );
                    last_seen = k;
                }
            });
        }
        writer.join().expect("writer panicked");
    });

    // Quiesce: fold everything and confirm the final state holds every
    // append exactly once.
    while session.delta_len("R").unwrap_or(0) > 0 {
        session.compact("R");
    }
    let out = session.query(QuerySpec::join(&r, &s)).expect("final query").result;
    assert_eq!(out.max_payload_sum, Some(base_max + appends));
    assert_eq!(out.r_selected as u64, n + appends);
    assert_eq!(session.relation("R").expect("resolves").len() as u64, n + appends);
}

/// Deletes and updates racing a reader can only ever expose prefix
/// states: with writes that alternately delete and restore the same
/// key, every answer must be one of the two legal worlds — never a
/// blend.
#[test]
fn delete_restore_races_expose_only_legal_worlds() {
    let n = 256u64;
    let session = Session::with_compaction(
        SchedulerConfig::new(2),
        RunCacheConfig::default(),
        CompactionConfig::default().threshold(16).interval(std::time::Duration::from_millis(1)),
    );
    let r = session.register(Relation::new("R", (0..n).map(|k| Tuple::new(k, k)).collect()));
    let s = session.register(Relation::new("S", (0..n).map(|k| Tuple::new(k, k)).collect()));
    // Two legal worlds: key n-1 present with payload n-1 (max =
    // 2(n-1)) or updated to 9999 (max = 9999 + n-1). A delete
    // immediately followed by an update(9999) and then an
    // update(n-1)... cycles between them.
    let with_update = 9_999 + (n - 1);
    let without = 2 * (n - 1);

    std::thread::scope(|scope| {
        let session_ref = &session;
        let writer = scope.spawn(move || {
            for round in 0..60u64 {
                if round % 2 == 0 {
                    session_ref.update("R", n - 1, 9_999).expect("registered");
                } else {
                    session_ref.update("R", n - 1, n - 1).expect("registered");
                }
            }
        });
        for reader in 0..2 {
            let (session, r, s) = (&session, &r, &s);
            scope.spawn(move || {
                for round in 0..10 {
                    let out = session
                        .query(QuerySpec::join(r, s))
                        .unwrap_or_else(|e| panic!("reader {reader} round {round}: {e}"));
                    let max = out.result.max_payload_sum.expect("join never empty");
                    assert!(
                        max == with_update || max == without,
                        "reader {reader} round {round}: illegal blended world, max = {max}"
                    );
                    assert_eq!(
                        out.result.r_selected as u64, n,
                        "updates replace — cardinality never changes"
                    );
                }
            });
        }
        writer.join().expect("writer panicked");
    });
}
