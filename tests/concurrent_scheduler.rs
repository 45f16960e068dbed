//! Concurrency suite for the multi-query scheduler: N concurrent
//! submissions over one shared pool must agree with serial
//! `paper_query` runs, survive a panicking query, and respect the
//! admission budget.

use std::sync::Arc;

use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::JoinConfig;
use mpsm::core::Tuple;
use mpsm::exec::{
    paper_query, QueryError, QuerySpec, Relation, Scheduler, SchedulerConfig, Session,
};

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

fn workload() -> (Arc<Relation>, Arc<Relation>) {
    let mut next = lcg(2026);
    let r: Vec<Tuple> = (0..4000).map(|i| Tuple::new(next() % 1024, i)).collect();
    let s: Vec<Tuple> = (0..12000).map(|i| Tuple::new(next() % 1024, i)).collect();
    (Arc::new(Relation::new("R", r)), Arc::new(Relation::new("S", s)))
}

/// The per-query predicates, parameterized by query index so the N
/// queries are genuinely different.
fn preds(i: u64) -> (impl Fn(&Tuple) -> bool + Copy, impl Fn(&Tuple) -> bool + Copy) {
    let modulus = 2 + i % 5;
    (move |t: &Tuple| !t.key.is_multiple_of(modulus), move |t: &Tuple| t.key >= i * 37)
}

#[test]
fn concurrent_submissions_match_serial_runs() {
    let (r, s) = workload();
    // 8 concurrent queries over a 2-wide pool: more clients than
    // workers, so phases of different queries must interleave.
    const N: u64 = 8;
    let serial: Vec<_> = (0..N)
        .map(|i| {
            let (pr, ps) = preds(i);
            paper_query(&r, &s, pr, ps, &PMpsmJoin::new(JoinConfig::with_threads(2)), 2)
        })
        .collect();

    let scheduler =
        Scheduler::new(SchedulerConfig::new(2).max_in_flight(3).queue_capacity(N as usize));
    let tickets: Vec<_> = (0..N)
        .map(|i| {
            let (pr, ps) = preds(i);
            scheduler
                .submit(QuerySpec::join(&r, &s).filter_r(pr).filter_s(ps))
                .expect("within admission budget")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let out = ticket.wait().unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        assert_eq!(out.result.max_payload_sum, serial[i].max_payload_sum, "query {i}");
        assert_eq!(out.result.r_selected, serial[i].r_selected, "query {i}");
        assert_eq!(out.result.s_selected, serial[i].s_selected, "query {i}");
        assert!(out.result.plan.queue_wait_ms.is_some(), "query {i} lacks queue wait");
        assert!(out.result.plan.phases_ms.is_some(), "query {i} lacks phase timings");
    }
    let m = scheduler.metrics();
    assert_eq!((m.submitted, m.completed, m.panicked), (N, N, 0));
}

#[test]
fn panicking_query_is_isolated() {
    let (r, s) = workload();
    let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(2).queue_capacity(8));
    // Interleave good queries around one whose R predicate panics
    // mid-scan on the shared pool.
    let before = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
    let poison = scheduler
        .submit(QuerySpec::join(&r, &s).filter_r(|t| {
            if t.key == 999 {
                panic!("predicate exploded");
            }
            true
        }))
        .expect("admitted");
    let after = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");

    let expected =
        paper_query(&r, &s, |_| true, |_| true, &PMpsmJoin::new(JoinConfig::with_threads(2)), 2);
    match poison.wait() {
        Err(QueryError::Panicked(msg)) => {
            assert!(msg.contains("panicked"), "uniform pool panic message, got {msg:?}")
        }
        other => panic!("poisoned query must fail, got {other:?}"),
    }
    for (name, ticket) in [("before", before), ("after", after)] {
        let out = ticket.wait().unwrap_or_else(|e| panic!("{name} query failed: {e}"));
        assert_eq!(out.result.max_payload_sum, expected.max_payload_sum, "{name}");
    }
    // The scheduler and pool stay serviceable afterwards.
    let again = scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted");
    assert_eq!(
        again.wait().expect("healthy query").result.max_payload_sum,
        expected.max_payload_sum
    );
    assert_eq!(scheduler.metrics().panicked, 1);
}

#[test]
fn session_round_trip_with_mixed_algorithms() {
    let (r, s) = workload();
    let session = Session::new(SchedulerConfig::new(2).max_in_flight(2).queue_capacity(8));
    let r = session.register(Arc::try_unwrap(r).expect("sole owner"));
    let s = session.register(Arc::try_unwrap(s).expect("sole owner"));
    let p = session.query(QuerySpec::join(&r, &s)).expect("P-MPSM");
    // The session's one engine agrees with B-MPSM run serially.
    let b =
        paper_query(&r, &s, |_| true, |_| true, &BMpsmJoin::new(JoinConfig::with_threads(2)), 2);
    assert_eq!(p.result.max_payload_sum, b.max_payload_sum);
    assert!(p.result.plan.explain().starts_with("Queue [wait ="), "scheduled EXPLAIN");
    // Catalog lookups resolve the registered handles.
    assert_eq!(session.relation("R").expect("registered").len(), 4000);
}

#[test]
fn phases_of_concurrent_queries_interleave_on_the_pool() {
    let (r, s) = workload();
    let scheduler = Scheduler::new(SchedulerConfig::new(2).max_in_flight(4).queue_capacity(16));
    let expected =
        paper_query(&r, &s, |_| true, |_| true, &PMpsmJoin::new(JoinConfig::with_threads(2)), 2);
    let tickets: Vec<_> =
        (0..4).map(|_| scheduler.submit(QuerySpec::join(&r, &s)).expect("admitted")).collect();
    for t in tickets {
        let out = t.wait().expect("query failed");
        assert_eq!(out.result.max_payload_sum, expected.max_payload_sum);
    }
    // Each P-MPSM query submits multiple phases (sorts, CDF, histogram,
    // scatter, join) plus two selections.
    let served = scheduler.pool().phases_served();
    assert!(served >= 4 * 6, "expected many phases, saw {served}");
}
