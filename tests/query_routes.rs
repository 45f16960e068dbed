//! One differential oracle for every query route.
//!
//! A query reaches the executor in one of nine input states —
//! unregistered relations, a run-cache miss, a run-cache hit, a
//! snapshot made dirty by appends / updates / deletes, a filtered
//! private side over a dirty snapshot, a filtered public side against a
//! dirty private one, and a handle compaction has moved past — and in
//! one of four modes: no token, a deterministic block budget, a row
//! cap, a far-future deadline. Every cell of that matrix, at `T` = 1, 2
//! and 3 workers, answers to the same oracle: a nested-loop join over
//! the literally replayed (`materialize`d) inputs. Complete answers
//! must equal it; interrupted answers must be a key-order prefix of it
//! that holds *all* matches of every key it covers, with coverage
//! monotone in the budget.

use std::sync::Arc;
use std::time::Duration;

use mpsm::core::join::anytime::AnytimeToken;
use mpsm::core::join::delta::{materialize, DeltaOp};
use mpsm::core::Tuple;
use mpsm::exec::{
    paper_query_runs, CompactionConfig, PaperQueryResult, QuerySpec, Relation, RunCacheConfig,
    RunCacheOutcome, SchedulerConfig, Session,
};

const R_TUPLES: usize = 9_000;
const S_TUPLES: usize = 6_000;
const DOMAIN: u64 = 3_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Unregistered,
    CacheMiss,
    CacheHit,
    Appended,
    Updated,
    Deleted,
    FilteredDirty,
    FilteredPublic,
    CompactedPastTheHandle,
}

const STATES: [State; 9] = [
    State::Unregistered,
    State::CacheMiss,
    State::CacheHit,
    State::Appended,
    State::Updated,
    State::Deleted,
    State::FilteredDirty,
    State::FilteredPublic,
    State::CompactedPastTheHandle,
];

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

fn random(n: usize, seed: u64) -> Vec<Tuple> {
    let mut next = lcg(seed);
    (0..n).map(|i| Tuple::new(next() % DOMAIN, i as u64)).collect()
}

/// `n` writes of the given mix; keys reach 10 % past the base domain so
/// appends land below, inside and above every base run.
fn writes(n: usize, seed: u64, appends: bool, updates: bool, deletes: bool) -> Vec<DeltaOp> {
    let mut next = lcg(seed);
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let key = next() % (DOMAIN + DOMAIN / 10);
        let payload = 1_000_000 + ops.len() as u64;
        match next() % 3 {
            0 if appends => ops.push(DeltaOp::Append(Tuple::new(key, payload))),
            1 if updates => ops.push(DeltaOp::Update { key, payload }),
            2 if deletes => ops.push(DeltaOp::Delete { key }),
            _ => {}
        }
    }
    ops
}

fn apply(session: &Session, name: &str, ops: &[DeltaOp]) {
    for op in ops {
        match *op {
            DeltaOp::Append(t) => session.append(name, [t]),
            DeltaOp::Update { key, payload } => session.update(name, key, payload),
            DeltaOp::Delete { key } => session.delete(name, key),
        }
        .expect("registered");
    }
}

fn r_keeps(t: &Tuple) -> bool {
    !t.key.is_multiple_of(3)
}

fn s_keeps(t: &Tuple) -> bool {
    !t.key.is_multiple_of(5)
}

/// One cell's inputs: a session in the given state, the spec that
/// queries it, and the oracle's answer.
struct Case {
    session: Session,
    spec: QuerySpec,
    /// The full join, sorted by `(key, r_payload, s_payload)`.
    expected: Vec<(u64, u64, u64)>,
    r_selected: usize,
    s_selected: usize,
}

fn case(state: State, threads: usize) -> Case {
    let session = Session::with_compaction(
        SchedulerConfig::new(threads),
        RunCacheConfig::default(),
        CompactionConfig::manual(),
    );
    let (r_base, s_base) = (random(R_TUPLES, 11), random(S_TUPLES, 13));
    let (r_rel, s_rel) = (Relation::new("R", r_base.clone()), Relation::new("S", s_base.clone()));
    let (r, s) = if state == State::Unregistered {
        (Arc::new(r_rel), Arc::new(s_rel))
    } else {
        (session.register(r_rel), session.register(s_rel))
    };
    let (mut r_ops, mut s_ops) = (Vec::new(), Vec::new());
    let mut spec = QuerySpec::join(&r, &s);
    match state {
        State::Unregistered | State::CacheMiss => {}
        State::CacheHit => {
            session.query(spec.clone()).expect("warm-up");
        }
        State::Appended => {
            r_ops = writes(300, 17, true, false, false);
            s_ops = writes(100, 19, true, false, false);
        }
        State::Updated => {
            r_ops = writes(150, 23, false, true, false);
            s_ops = writes(60, 29, false, true, false);
        }
        State::Deleted => {
            r_ops = writes(150, 31, false, false, true);
            s_ops = writes(60, 37, false, false, true);
        }
        State::FilteredDirty => {
            r_ops = writes(300, 41, true, true, true);
            spec = spec.filter_r(r_keeps);
        }
        State::FilteredPublic => {
            // A chunked bypass public side against a cached private
            // side that carries a delta.
            r_ops = writes(300, 53, true, true, true);
            spec = spec.filter_s(s_keeps);
        }
        State::CompactedPastTheHandle => {
            r_ops = writes(300, 43, true, true, true);
        }
    }
    apply(&session, "R", &r_ops);
    apply(&session, "S", &s_ops);
    if state == State::CompactedPastTheHandle {
        // Fold R, then write past the fold: the old handle `r` now
        // resolves to a newer base *and* a live delta.
        assert!(session.compact("R"));
        let tail = writes(40, 47, true, true, true);
        apply(&session, "R", &tail);
        r_ops.extend(tail);
    }

    let mut r_now = materialize(&r_base, &r_ops);
    if state == State::FilteredDirty {
        r_now.retain(r_keeps);
    }
    let mut s_now = materialize(&s_base, &s_ops);
    if state == State::FilteredPublic {
        s_now.retain(s_keeps);
    }
    let mut expected = Vec::new();
    for rt in &r_now {
        for st in s_now.iter().filter(|st| st.key == rt.key) {
            expected.push((rt.key, rt.payload, st.payload));
        }
    }
    expected.sort_unstable();
    Case { session, spec, expected, r_selected: r_now.len(), s_selected: s_now.len() }
}

fn max_of(rows: &[(u64, u64, u64)]) -> Option<u64> {
    rows.iter().map(|&(_, rp, sp)| rp + sp).max()
}

/// `rows` is a key-order prefix of `expected` that ends on a key-group
/// boundary: every covered key has all of its matches.
fn assert_prefix(rows: &[(u64, u64, u64)], expected: &[(u64, u64, u64)], what: &str) {
    assert!(rows.len() <= expected.len(), "{what}: more rows than the full join");
    assert_eq!(rows, &expected[..rows.len()], "{what}: not a key-order prefix");
    if let (Some(last), Some(next)) = (rows.last(), expected.get(rows.len())) {
        assert_ne!(last.0, next.0, "{what}: key {} is only partly covered", last.0);
    }
}

fn check_cardinalities(out: &PaperQueryResult, case: &Case, what: &str) {
    assert_eq!(out.r_selected, case.r_selected, "{what}: |R|");
    assert_eq!(out.s_selected, case.s_selected, "{what}: |S|");
}

#[test]
fn plain_queries_equal_the_oracle_on_every_route() {
    for threads in 1..=3 {
        for state in STATES {
            let what = format!("{state:?}, T = {threads}, no token");
            let case = case(state, threads);
            let out = case.session.query(case.spec.clone()).expect("query").result;
            assert_eq!(out.max_payload_sum, max_of(&case.expected), "{what}");
            check_cardinalities(&out, &case, &what);
            assert!(out.plan.anytime.is_none(), "{what}: nothing could interrupt this query");
            assert!(out.rows.is_none(), "{what}: no rows were asked for");
            // The routes this matrix means to hit are the ones it hits.
            let cache = out.plan.run_cache.as_ref().map(|info| (info.r, info.s));
            let (hit, miss, bypass) =
                (RunCacheOutcome::Hit, RunCacheOutcome::Miss, RunCacheOutcome::Bypass);
            let expected_cache = match state {
                State::Unregistered => Some((bypass, bypass)),
                State::CacheMiss => Some((miss, miss)),
                State::CacheHit => Some((hit, hit)),
                State::Appended | State::Updated | State::Deleted => Some((miss, miss)),
                State::FilteredDirty => Some((bypass, miss)),
                State::FilteredPublic => Some((miss, bypass)),
                // The compactor warmed R's new base version.
                State::CompactedPastTheHandle => Some((hit, miss)),
            };
            assert_eq!(cache, expected_cache, "{what}: RunCache row");
            // A second look at the same state is served from the cache
            // wherever an unfiltered side has a base version to key on.
            if state != State::Unregistered {
                let again = case.session.query(case.spec.clone()).expect("query").result;
                assert_eq!(again.max_payload_sum, out.max_payload_sum, "{what}: second run");
                let info = again.plan.run_cache.expect("RunCache row");
                if state != State::FilteredPublic {
                    assert_eq!(info.s, hit, "{what}: S is cached now");
                }
                if state != State::FilteredDirty {
                    assert_eq!(info.r, hit, "{what}: R is cached now");
                }
            }
        }
    }
}

#[test]
fn budgeted_queries_return_growing_key_order_prefixes_on_every_route() {
    for threads in 1..=3 {
        for state in STATES {
            let case = case(state, threads);
            let cx = case.session.scheduler().context();
            let all_rows = R_TUPLES * S_TUPLES;
            let mut last_coverage = -1.0f64;
            let mut complete_at = None;
            for budget in 0..16u64 {
                let what = format!("{state:?}, T = {threads}, budget {budget}");
                // Pin per run: a fresh snapshot of the same (quiescent)
                // state, against a cache earlier budgets have warmed.
                let spec = case.session.pin(case.spec.clone().collect_rows(all_rows));
                let out = paper_query_runs(cx, &spec, &AnytimeToken::budget(budget));
                check_cardinalities(&out, &case, &what);
                let info = out.plan.anytime.as_ref().expect("a live token renders the row");
                assert!(info.coverage >= last_coverage, "{what}: coverage shrank");
                last_coverage = info.coverage;
                let rows = out.rows.as_deref().expect("rows collected");
                assert_prefix(rows, &case.expected, &what);
                assert_eq!(out.max_payload_sum, max_of(rows), "{what}: aggregate over the prefix");
                // The aggregate-only sink sees the same prefix.
                let spec = case.session.pin(case.spec.clone());
                let agg = paper_query_runs(cx, &spec, &AnytimeToken::budget(budget));
                assert_eq!(agg.max_payload_sum, out.max_payload_sum, "{what}: MaxAggSink");
                assert!(agg.rows.is_none());
                if budget == 0 {
                    assert!(rows.is_empty() && !info.complete, "{what}: nothing may merge");
                }
                if info.complete {
                    assert_eq!(rows.len(), case.expected.len(), "{what}: complete but short");
                    complete_at = Some(budget);
                    break;
                }
            }
            let complete_at = complete_at.expect("sixteen steps cover 9000 private tuples");
            assert!(
                complete_at >= 2,
                "{state:?}, T = {threads}: the merge must span several steps"
            );
        }
    }
}

#[test]
fn capped_queries_stop_early_with_the_first_rows_on_every_route() {
    for threads in 1..=3 {
        for state in STATES {
            let what = format!("{state:?}, T = {threads}, cap");
            let case = case(state, threads);
            let cap = 64;
            let out =
                case.session.query(case.spec.clone().collect_rows(cap)).expect("query").result;
            check_cardinalities(&out, &case, &what);
            let rows = out.rows.as_deref().expect("rows collected");
            assert_eq!(rows, &case.expected[..cap], "{what}: the first {cap} rows in key order");
            let info = out.plan.anytime.as_ref().expect("a row cap renders the row");
            assert!(info.capped && info.coverage < 1.0, "{what}: the cap must stop the merge");
            // A cap nothing reaches is the full answer.
            let all = case.spec.clone().collect_rows(R_TUPLES * S_TUPLES);
            let out = case.session.query(all).expect("query").result;
            assert_eq!(out.rows.as_deref(), Some(case.expected.as_slice()), "{what}: uncapped");
            assert_eq!(out.max_payload_sum, max_of(&case.expected), "{what}: uncapped");
            let info = out.plan.anytime.as_ref().expect("a row cap renders the row");
            assert!(info.complete && !info.capped, "{what}: uncapped");
        }
    }
}

#[test]
fn far_future_deadlines_complete_on_every_route() {
    for threads in 1..=3 {
        for state in STATES {
            let what = format!("{state:?}, T = {threads}, deadline");
            let case = case(state, threads);
            let spec = case.spec.clone().deadline(Duration::from_secs(3600));
            let out = case.session.query(spec).expect("query").result;
            assert_eq!(out.max_payload_sum, max_of(&case.expected), "{what}");
            check_cardinalities(&out, &case, &what);
            let info = out.plan.anytime.as_ref().expect("a deadline renders the row");
            assert!(info.complete && !info.capped, "{what}");
            assert!((info.coverage - 1.0).abs() < 1e-12, "{what}: coverage {}", info.coverage);
        }
    }
}
