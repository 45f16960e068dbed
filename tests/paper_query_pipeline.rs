//! End-to-end: the paper's benchmark query through the `mpsm-exec`
//! pipeline, across algorithms, workloads, and selections.

use mpsm::baselines::nested_loop::oracle_max_payload_sum;
use mpsm::baselines::{RadixJoin, WisconsinHashJoin};
use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::sink::{CollectSink, MaxAggSink};
use mpsm::core::{ExecContext, Tuple};
use mpsm::exec::{paper_query, QuerySpec, Relation, SchedulerConfig, Session};
use mpsm::workload::{fk_uniform, skewed_negative_correlation};

#[test]
fn query_without_selection_matches_oracle() {
    let w = fk_uniform(800, 4, 5);
    let r = Relation::new("R", w.r.clone());
    let s = Relation::new("S", w.s.clone());
    let expected = oracle_max_payload_sum(&w.r, &w.s);
    let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
    let out = paper_query(&r, &s, |_| true, |_| true, &algo, 4);
    assert_eq!(out.max_payload_sum, expected);
    assert_eq!(out.r_selected, 800);
    assert_eq!(out.s_selected, 3200);
}

#[test]
fn query_with_selection_matches_filtered_oracle() {
    let w = fk_uniform(600, 4, 9);
    let pred_r = |t: &Tuple| t.key.is_multiple_of(3);
    let pred_s = |t: &Tuple| t.key.is_multiple_of(2);
    let r_f: Vec<Tuple> = w.r.iter().copied().filter(pred_r).collect();
    let s_f: Vec<Tuple> = w.s.iter().copied().filter(pred_s).collect();
    let expected = oracle_max_payload_sum(&r_f, &s_f);

    let r = Relation::new("R", w.r.clone());
    let s = Relation::new("S", w.s.clone());
    let algo = BMpsmJoin::new(JoinConfig::with_threads(3));
    let out = paper_query(&r, &s, pred_r, pred_s, &algo, 3);
    assert_eq!(out.max_payload_sum, expected);
    assert_eq!(out.r_selected, r_f.len());
    assert_eq!(out.s_selected, s_f.len());
}

#[test]
fn all_algorithms_agree_on_skewed_query() {
    let w = skewed_negative_correlation(500, 4, 1 << 14, 11);
    let r = Relation::new("R", w.r);
    let s = Relation::new("S", w.s);
    let cfg = JoinConfig::with_threads(4);
    let results: Vec<Option<u64>> = vec![
        paper_query(&r, &s, |_| true, |_| true, &PMpsmJoin::new(cfg.clone()), 4).max_payload_sum,
        paper_query(&r, &s, |_| true, |_| true, &BMpsmJoin::new(cfg.clone()), 4).max_payload_sum,
        paper_query(&r, &s, |_| true, |_| true, &RadixJoin::new(cfg.clone()), 4).max_payload_sum,
        paper_query(&r, &s, |_| true, |_| true, &WisconsinHashJoin::new(cfg), 4).max_payload_sum,
    ];
    assert!(results.windows(2).all(|w| w[0] == w[1]), "results diverge: {results:?}");
}

/// The session's one route cuts both registered sides from the stored
/// key order; the answer — aggregate and rows — is what P-MPSM answers
/// over the raw, unsorted tuples, on negatively correlated skew.
#[test]
fn session_answers_what_p_mpsm_answers() {
    let w = skewed_negative_correlation(3000, 4, 1 << 16, 17);
    for threads in 1..=4 {
        let cx = ExecContext::flat(threads);
        let join = PMpsmJoin::new(JoinConfig::with_threads(threads));
        let (max, _) = join.join_in::<MaxAggSink>(&cx, &w.r, &w.s);
        let (mut rows, _) = join.join_in::<CollectSink>(&cx, &w.r, &w.s);
        rows.sort_unstable();
        assert!(!rows.is_empty());

        let session = Session::new(SchedulerConfig::new(threads));
        let r = session.register(Relation::new("R", w.r.clone()));
        let s = session.register(Relation::new("S", w.s.clone()));
        let out = session.query(QuerySpec::join(&r, &s)).expect("query").result;
        assert_eq!(out.max_payload_sum, max, "T = {threads}");
        let join_row = format!("Join [P-MPSM; T = {threads}]");
        assert!(out.plan.explain().contains(&join_row), "{}", out.plan.explain());
        let spec = QuerySpec::join(&r, &s).collect_rows(rows.len());
        let all = session.query(spec).expect("rows").result;
        assert_eq!(all.rows.as_deref(), Some(rows.as_slice()), "T = {threads}");
    }
}

#[test]
fn stats_flow_through_the_pipeline() {
    let w = fk_uniform(2000, 2, 13);
    let r = Relation::new("R", w.r);
    let s = Relation::new("S", w.s);
    let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
    let out = paper_query(&r, &s, |_| true, |_| true, &algo, 2);
    assert_eq!(out.stats.per_worker.len(), 2);
    assert!(out.stats.wall_ms() > 0.0);
}

#[test]
fn context_width_is_the_one_thread_count() {
    // The algorithm is configured four-wide but the query is asked to
    // run three-wide: selections, join and printed plan must all agree
    // on the context's `T = 3`.
    let w = fk_uniform(900, 2, 17);
    let r = Relation::new("R", w.r);
    let s = Relation::new("S", w.s);
    let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
    let out = paper_query(&r, &s, |_| true, |_| true, &algo, 3);
    let text = out.plan.explain();
    assert!(text.contains("Join [P-MPSM; T = 3]"), "{text}");
    assert_eq!(out.stats.per_worker.len(), 3, "the join ran as wide as the plan says");
    // The context-free call prints the rows every other route prints.
    assert!(text.contains("Placement ["), "{text}");
    assert!(out.plan.phases_ms.is_some());
}
