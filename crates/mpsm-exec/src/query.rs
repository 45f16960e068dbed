//! The paper's benchmark query, end to end (§5.1).
//!
//! ```sql
//! SELECT max(R.payload + S.payload)
//! FROM R, S
//! WHERE R.joinkey = S.joinkey
//! ```
//!
//! with optional selections on both inputs (the paper applies a
//! selection so "no referential integrity (foreign keys) or indexes
//! could be exploited").

use std::sync::Arc;
use std::time::Instant;

use mpsm_core::context::ExecContext;
use mpsm_core::join::anytime::{merge_sides, AnytimeOutcome, AnytimeToken};
use mpsm_core::join::delta::DeltaSide;
use mpsm_core::join::runs::{build_run_set, cut_run_set, RunSet};
use mpsm_core::join::{JoinAlgorithm, JoinConfig};
use mpsm_core::sink::{CollectSink, MaxAggSink};
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::Tuple;

use crate::ops::Select;
use crate::plan::{AnytimeInfo, PlacementInfo, PlanStep, QueryPlan, SideSource, SourceInfo};
use crate::scan::Relation;
use crate::session::QuerySpec;
use crate::snapshot::Fold;

/// The plan name of the engine every scheduled query runs: P-MPSM's
/// phases as run-set builds feeding [`merge_sides`].
const ENGINE: &str = "P-MPSM";

/// Result of one paper-query execution.
#[derive(Debug, Clone)]
pub struct PaperQueryResult {
    /// `max(R.payload + S.payload)`, `None` if the join is empty.
    pub max_payload_sum: Option<u64>,
    /// Tuples surviving the R selection.
    pub r_selected: usize,
    /// Tuples surviving the S selection.
    pub s_selected: usize,
    /// Join phase statistics.
    pub stats: JoinStats,
    /// The executed plan, for EXPLAIN-style display.
    pub plan: QueryPlan,
    /// Joined `(key, r_payload, s_payload)` rows in key order, present
    /// only when the spec asked to collect them
    /// ([`QuerySpec::collect_rows`](crate::session::QuerySpec::collect_rows)).
    /// On a deadline-hit anytime query this is a key-order **prefix**
    /// of the full join (see [`mpsm_core::join::anytime`]).
    pub rows: Option<Vec<(u64, u64, u64)>>,
}

/// Run `scan → select → join → max` with the given join algorithm on
/// a flat context of `threads` workers built for this one call — the
/// one `T` of the selections, the join and the printed plan (the
/// algorithm's own configured width is not consulted). See
/// [`paper_query_in`].
pub fn paper_query<J, PR, PS>(
    r: &Relation,
    s: &Relation,
    r_pred: PR,
    s_pred: PS,
    algorithm: &J,
    threads: usize,
) -> PaperQueryResult
where
    J: JoinAlgorithm,
    PR: Fn(&Tuple) -> bool + Sync,
    PS: Fn(&Tuple) -> bool + Sync,
{
    paper_query_in(&ExecContext::flat(threads), r, s, r_pred, s_pred, algorithm)
}

/// The paper query inside an [`ExecContext`] — the unified execution
/// path: selections and join phases run on the context's pool, run and
/// partition storage comes from its node-local arenas, and the plan's
/// `Placement` node reports which node the query was pinned to (if any)
/// plus the audited local/remote split of the join's memory traffic.
///
/// One context should serve one query (the scheduler derives a fresh
/// context per admitted query); reusing a context accumulates counters
/// across executions and the placement line reports the mix.
pub fn paper_query_in<J, PR, PS>(
    cx: &ExecContext,
    r: &Relation,
    s: &Relation,
    r_pred: PR,
    s_pred: PS,
    algorithm: &J,
) -> PaperQueryResult
where
    J: JoinAlgorithm,
    PR: Fn(&Tuple) -> bool + Sync,
    PS: Fn(&Tuple) -> bool + Sync,
{
    let r_sel = Select::new(r, r_pred).execute_in(cx);
    let s_sel = Select::new(s, s_pred).execute_in(cx);
    let (max, stats) = algorithm.join_in::<MaxAggSink>(cx, &r_sel, &s_sel);
    executed_in(
        cx,
        assemble(algorithm.name(), cx.threads(), r, s, r_sel.len(), s_sel.len(), max, stats),
    )
}

/// Stamp the rows every context-run plan carries: per-phase timings and
/// rates, and the audited placement.
fn executed_in(cx: &ExecContext, mut out: PaperQueryResult) -> PaperQueryResult {
    out.plan.phases_ms = Some(out.stats.phases_ms());
    out.plan.phase_tuples = Some((out.r_selected + out.s_selected) as u64);
    out.plan.placement = Some(placement_of(cx));
    out
}

/// Derive the plan's `Placement` node from a context's audited memory
/// traffic.
fn placement_of(cx: &ExecContext) -> PlacementInfo {
    let remote = cx.counters().remote_fraction();
    PlacementInfo {
        node: cx.single_node().map(|n| n.0),
        local_pct: (1.0 - remote) * 100.0,
        remote_pct: remote * 100.0,
        flat: cx.topology().nodes <= 1,
        arena_bytes: cx.arena().stats().iter().map(|s| s.bytes).collect(),
    }
}

/// The run-oriented paper query — the one execution path of every
/// scheduled query: clean, filtered, unregistered, dirty (a snapshot
/// with a live delta, or one compaction moved past the handle),
/// deadlined, row-capped and degraded queries alike.
///
/// Each side resolves to a [`DeltaSide`] (see `resolve_side`): base
/// runs — cuts of the stored key order read in place; the selection's
/// output cut in place when the side is filtered; sorted from scratch
/// only for a raw, unregistered handle — plus the visible delta's
/// sorted adds run and the mask of dead base keys, both from the
/// snapshot's shared fold.
/// [`merge_sides`] joins them under `token`: with
/// [`AnytimeToken::Never`] and no row cap that is the plain
/// single-dispatch merge; otherwise the merge advances through
/// ascending key intervals and, when the token expires or the cap is
/// met, returns best-so-far results plus a coverage estimate instead of
/// failing.
///
/// The plan's `Anytime` row is rendered for deadline, row-cap and
/// live-token queries only; its `Source` row always. With
/// [`QuerySpec::collect_rows`](crate::session::QuerySpec::collect_rows)
/// set, the joined rows come back sorted by `(key, r_payload,
/// s_payload)` and truncated to the cap; a partial answer's rows are a
/// key-order prefix of the full join's — over a dirty snapshot too. The
/// cap is *streaming*: the merge stops between steps once enough rows
/// exist, so a capped query never pays for rows its caller discards —
/// its coverage (and its aggregate, computed over the merged-so-far
/// rows before truncation) reflects the key prefix actually merged.
pub fn paper_query_runs(
    cx: &ExecContext,
    spec: &QuerySpec,
    token: &AnytimeToken,
) -> PaperQueryResult {
    let wall = Instant::now();
    let mut stats = JoinStats::new(cx.threads());
    let s = resolve_side(cx, spec, false, &mut stats);
    let r = resolve_side(cx, spec, true, &mut stats);
    let (r_side, s_side) = (r.side(), s.side());
    let (r_rows, s_rows) = (r_side.logical_tuples(), s_side.logical_tuples());

    fn split<R>(out: AnytimeOutcome<R>) -> (AnytimeInfo, R) {
        let info = AnytimeInfo {
            coverage: out.coverage(),
            merged_runs: out.merged_runs,
            total_runs: out.total_runs,
            complete: out.complete,
            capped: out.capped,
            ranges: out.ranges,
        };
        (info, out.result)
    }
    let (anytime, rows, max) = match spec.rows_cap {
        Some(cap) => {
            let out = merge_sides::<CollectSink>(cx, r_side, s_side, token, Some(cap), &mut stats);
            let (anytime, mut rows) = split(out);
            rows.sort_unstable();
            let max = rows.iter().map(|&(_, rp, sp)| rp.wrapping_add(sp)).max();
            rows.truncate(cap);
            (anytime, Some(rows), max)
        }
        None => {
            let out = merge_sides::<MaxAggSink>(cx, r_side, s_side, token, None, &mut stats);
            let (anytime, max) = split(out);
            (anytime, None, max)
        }
    };
    stats.wall = wall.elapsed();

    let assembled = assemble(ENGINE, cx.threads(), &spec.r, &spec.s, r_rows, s_rows, max, stats);
    let mut result = executed_in(cx, assembled);
    result.rows = rows;
    result.plan.anytime = spec.interruptible_by(token).then_some(anytime);
    result.plan.sources = Some(SourceInfo { r: r.source, s: s.source });
    result
}

/// One join input resolved to merge inputs: base runs, the snapshot's
/// shared fold whose adds run and mask the side borrows, and what the
/// plan's `Source` row says.
struct ResolvedSide {
    base: RunSet,
    fold: Option<Arc<Fold>>,
    source: SideSource,
}

impl ResolvedSide {
    fn side(&self) -> DeltaSide<'_> {
        match &self.fold {
            None => DeltaSide::base_only(&self.base),
            Some(fold) => DeltaSide {
                base: &self.base,
                delta: (!fold.adds.is_empty()).then(|| fold.adds_run()),
                mask: &fold.masked,
            },
        }
    }
}

/// Resolve one side of `spec` to sorted runs: R — the private side —
/// when `private`, S otherwise. The tuple source is the captured
/// snapshot's base, or the handle itself when no snapshot was captured.
/// Three routes, reported on the plan's `Source` row:
///
/// * **built** — a raw handle (`version() == 0`) carries no order: its
///   tuples, selected when the side is filtered, get one equi-height
///   [`build_run_set`], booked under the side's partition and sort
///   phases.
/// * **selected** — a filtered registered side: select from the base,
///   or from the base with the snapshot's visible delta folded in by the
///   overlay, and cut the selection — a selection over key-sorted
///   tuples is key-sorted — in place ([`cut_run_set`]).
/// * **stored** — an unfiltered registered side, clean or dirty:
///   [`cut_run_set`] of the stored version itself, so the side
///   allocates, copies and books nothing before phase 4. The visible
///   delta's sorted adds (the fold's run) become one extra run and its
///   deleted/overwritten keys the mask.
fn resolve_side(
    cx: &ExecContext,
    spec: &QuerySpec,
    private: bool,
    stats: &mut JoinStats,
) -> ResolvedSide {
    let (rel, snapshot, pred, filtered, partition_phase, sort_phase) = if private {
        (&spec.r, spec.r_snapshot.as_ref(), &spec.r_pred, spec.r_filtered, Phase::Two, Phase::Three)
    } else {
        (&spec.s, spec.s_snapshot.as_ref(), &spec.s_pred, spec.s_filtered, Phase::One, Phase::One)
    };
    let source: &Relation = snapshot.map_or(rel, |snapshot| snapshot.base());
    // A clean snapshot never touches (or locks) its delta log.
    let fold = snapshot.filter(|s| s.delta_len() > 0).map(|s| s.overlay());

    let selected = filtered.then(|| match &fold {
        None => Select::new(source, |t| pred(t)).execute_in(cx),
        Some(fold) => fold.apply(source.tuples()).into_iter().filter(|t| pred(t)).collect(),
    });
    if source.version() == 0 {
        let tuples = selected.as_deref().unwrap_or(source.tuples());
        let bits = JoinConfig::with_threads(cx.threads()).radix_bits;
        let base = build_run_set(cx, tuples, bits, partition_phase, sort_phase, stats);
        return ResolvedSide { base, fold: None, source: SideSource::Built };
    }
    match selected {
        Some(selected) => {
            let base = cut_run_set(Arc::new(selected), cx.threads());
            ResolvedSide { base, fold: None, source: SideSource::Selected }
        }
        None => {
            let base = cut_run_set(Arc::clone(source.shared_tuples()), cx.threads());
            ResolvedSide { base, fold, source: SideSource::Stored }
        }
    }
}

/// The result of an anytime query whose deadline had already passed
/// when a coordinator popped it: an empty partial (coverage 0, zero
/// runs merged) produced without touching the inputs. The scheduler
/// uses this to honour an SLA that expired in the queue without
/// spending merge work it is certain to discard.
pub(crate) fn expired_in_queue_result(cx: &ExecContext, spec: &QuerySpec) -> PaperQueryResult {
    let stats = JoinStats::new(cx.threads());
    let mut result = assemble(ENGINE, cx.threads(), &spec.r, &spec.s, 0, 0, None, stats);
    result.rows = spec.rows_cap.map(|_| Vec::new());
    result.plan.anytime = Some(AnytimeInfo {
        coverage: 0.0,
        merged_runs: 0,
        total_runs: 0,
        complete: false,
        capped: false,
        ranges: vec![],
    });
    result
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    algorithm: &str,
    threads: usize,
    r: &Relation,
    s: &Relation,
    r_selected: usize,
    s_selected: usize,
    max: Option<u64>,
    stats: JoinStats,
) -> PaperQueryResult {
    let plan = QueryPlan {
        algorithm: algorithm.to_string(),
        threads,
        private: vec![
            PlanStep::Scan { relation: r.name().to_string(), rows: r.len() },
            PlanStep::Select { rows_out: r_selected },
        ],
        public: vec![
            PlanStep::Scan { relation: s.name().to_string(), rows: s.len() },
            PlanStep::Select { rows_out: s_selected },
        ],
        aggregate: "max(R.payload + S.payload)".to_string(),
        join_rows: None,
        queue_wait_ms: None,
        anytime: None,
        phases_ms: None,
        phase_tuples: None,
        placement: None,
        sources: None,
        snapshots: vec![],
    };
    PaperQueryResult { max_payload_sum: max, r_selected, s_selected, stats, plan, rows: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SideSource;
    use mpsm_core::join::b_mpsm::BMpsmJoin;
    use mpsm_core::join::p_mpsm::PMpsmJoin;
    use mpsm_core::join::JoinConfig;

    fn rel(name: &str, n: u64) -> Relation {
        Relation::new(name, (0..n).map(|k| Tuple::new(k, k)).collect())
    }

    #[test]
    fn full_pipeline_on_known_data() {
        let r = rel("R", 100);
        let s = rel("S", 100);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
        let out = paper_query(&r, &s, |_| true, |_| true, &algo, 4);
        assert_eq!(out.r_selected, 100);
        assert_eq!(out.s_selected, 100);
        assert_eq!(out.max_payload_sum, Some(99 + 99));
    }

    #[test]
    fn selection_narrows_the_join() {
        let r = rel("R", 100);
        let s = rel("S", 100);
        let algo = BMpsmJoin::new(JoinConfig::with_threads(2));
        // Keep keys < 50 in R, keys >= 40 in S: overlap 40..50.
        let out = paper_query(&r, &s, |t| t.key < 50, |t| t.key >= 40, &algo, 2);
        assert_eq!(out.r_selected, 50);
        assert_eq!(out.s_selected, 60);
        assert_eq!(out.max_payload_sum, Some(49 + 49));
    }

    #[test]
    fn empty_join_returns_none() {
        let r = rel("R", 10);
        let s = rel("S", 10);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let out = paper_query(&r, &s, |t| t.key < 3, |t| t.key > 7, &algo, 2);
        assert_eq!(out.max_payload_sum, None);
    }

    #[test]
    fn plan_explains_the_pipeline() {
        let r = rel("R", 100);
        let s = rel("S", 200);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let out = paper_query(&r, &s, |t| t.key < 10, |_| true, &algo, 2);
        let text = out.plan.explain();
        assert!(text.contains("Join [P-MPSM; T = 2]"), "{text}");
        assert!(text.contains("Scan R [100 rows]"), "{text}");
        assert!(text.contains("Select [out = 10 rows]"), "{text}");
        assert!(text.contains("Scan S [200 rows]"), "{text}");
    }

    #[test]
    fn context_query_reports_placement() {
        use mpsm_numa::{NodeId, Topology};

        let r = rel("R", 300);
        let s = Relation::new("S", (0..1200u64).map(|i| Tuple::new(i % 300, i)).collect());
        let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
        // Spread over the paper machine: workers on all four sockets.
        let cx = ExecContext::new(Topology::paper_machine(), 4);
        let out = paper_query_in(&cx, &r, &s, |_| true, |_| true, &algo);
        let placement = out.plan.placement.clone().expect("context queries report placement");
        assert_eq!(placement.node, None, "4 workers round-robin over 4 sockets");
        assert!(placement.remote_pct > 0.0, "cross-socket scatter traffic exists");
        assert!(out.plan.explain().contains("Placement [node=spread"), "{}", out.plan.explain());
        // Pinned to one node: everything except the interleaved
        // base-table reads is local, so locality beats the spread run.
        let pinned = cx.pinned_to(NodeId(1));
        let out = paper_query_in(&pinned, &r, &s, |_| true, |_| true, &algo);
        let pinned_placement = out.plan.placement.clone().expect("placement");
        assert_eq!(pinned_placement.node, Some(1));
        assert!(
            pinned_placement.local_pct > placement.local_pct,
            "pinned {} % vs spread {} %",
            pinned_placement.local_pct,
            placement.local_pct
        );
        assert!(out.plan.explain().contains("Placement [node=1, local="), "{}", out.plan.explain());
    }

    #[test]
    fn algorithms_agree_on_the_query() {
        let r = rel("R", 500);
        let s = Relation::new("S", (0..2000u64).map(|i| Tuple::new(i % 500, i)).collect());
        let p = PMpsmJoin::new(JoinConfig::with_threads(4));
        let b = BMpsmJoin::new(JoinConfig::with_threads(4));
        let out_p = paper_query(&r, &s, |_| true, |_| true, &p, 4);
        let out_b = paper_query(&r, &s, |_| true, |_| true, &b, 4);
        assert_eq!(out_p.max_payload_sum, out_b.max_payload_sum);
    }

    /// A registered side — clean or dirty, on the first query of its
    /// version or a later one — is a view of the stored version: the
    /// query draws no arena bytes, spends no time and books no access in
    /// phases 1–3, and every run addresses the stored tuples themselves.
    #[test]
    fn registered_sides_are_views_of_the_stored_version() {
        use crate::sched::{CompactionConfig, SchedulerConfig};
        use crate::session::Session;
        use crate::RunCacheConfig;

        let config = SchedulerConfig::new(2);
        let session =
            Session::with_compaction(config, RunCacheConfig::default(), CompactionConfig::manual());
        // Scattered, duplicate-heavy keys, so registering sorts them.
        let scattered = |name: &str, salt: u64| {
            let key = |i: u64| i.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
            Relation::new(name, (0..4096u64).map(|i| Tuple::new(key(i), i)).collect())
        };
        let r = session.register(scattered("R", 1));
        let s = session.register(scattered("S", 2));
        let check = |what: &str| {
            let spec = session.pin(QuerySpec::join(&r, &s));
            let cx = session.scheduler().context().per_query();
            for (private, snapshot) in [(false, &spec.s_snapshot), (true, &spec.r_snapshot)] {
                let mut stats = JoinStats::new(cx.threads());
                let side = resolve_side(&cx, &spec, private, &mut stats);
                assert_eq!(side.source, SideSource::Stored, "{what}");
                let stored = snapshot.as_ref().expect("registered").base().tuples().as_ptr_range();
                for run in side.base.runs().filter(|run| !run.is_empty()) {
                    let run = run.as_ptr_range();
                    assert!(stored.start <= run.start && run.end <= stored.end, "{what}: a copy");
                }
            }
            let direct = paper_query_runs(&cx, &spec, &AnytimeToken::Never);
            let scheduled = session.query(QuerySpec::join(&r, &s)).expect("query").result;
            assert_eq!(direct.max_payload_sum, scheduled.max_payload_sum, "{what}");
            for out in [&direct, &scheduled] {
                let placement = out.plan.placement.as_ref().expect("placement");
                assert_eq!(placement.arena_bytes.iter().sum::<u64>(), 0, "{what}: arena bytes");
                for phase in [Phase::One, Phase::Two, Phase::Three] {
                    assert_eq!(out.stats.phase_ms(phase), 0.0, "{what}: {phase:?} time");
                }
            }
            for phase in [Phase::One, Phase::Two, Phase::Three] {
                let accesses = cx.phase_counters(phase).total_accesses();
                assert_eq!(accesses, 0, "{what}: {phase:?} accesses");
            }
        };
        check("clean, first query on v1");
        check("clean, a later query");
        session.append("R", [Tuple::new(7, 1 << 40), Tuple::new(1 << 20, 1)]).expect("R");
        session.delete("S", s.tuples()[100].key).expect("S");
        check("dirty, first query at its watermark");
        assert!(session.compact("R"));
        check("first query on the compacted version");
    }
}
