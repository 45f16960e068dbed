//! The run-set merge driver — MPSM's phase 4 over sorted run sets, as
//! a *degradable* operator.
//!
//! [`merge_sides`] is the one loop that pairs private runs with public
//! runs: plain cached joins, snapshot joins with a live delta, and
//! deadline-, budget- or cap-interrupted joins all go through it, and
//! its `merge_pair` helper is the one place a pair is merged
//! (interpolation entry, then the masked kernel: one key-span cut and a
//! linear merge over each mask-free stretch).
//!
//! MPSM is naturally anytime: the private side is range-partitioned
//! ([`build_run_set`](super::runs::build_run_set)), its runs covering
//! **ascending disjoint key ranges** — `merge_sides` debug-asserts it —
//! so merging run 0, then run 1, … advances monotonically through the
//! sorted key domain. (The public side may be chunked: every private
//! piece meets every public run anyway.) A merge interrupted after the
//! first `k` steps has joined a *downward-closed prefix* of the key
//! domain — a well-defined partial answer ("joined through key `x`,
//! covering `c%` of the input"), not an arbitrary subset.
//!
//! ## Step plans
//!
//! The driver picks its plan from what it can observe, never from a
//! caller flag:
//!
//! * **Single step** — the token is [`AnytimeToken::Never`] and no row
//!   cap can take effect (none given, or the sink does not count rows).
//!   Nothing can interrupt the merge, so it is one pool dispatch whose
//!   pieces are the private runs plus the delta run. A pool dispatch
//!   costs tens of microseconds on a busy box; the plain merge must not
//!   pay one per block.
//! * **Key-interval steps** — otherwise. The private base runs are cut,
//!   in ascending order, into key-group-aligned blocks of roughly
//!   [`ANYTIME_BLOCK_TUPLES`] tuples; step `k` is block `k` **plus the
//!   slice of the private delta run falling into the same key
//!   interval** `(last key of block k−1, last key of block k]` (the
//!   first interval is open below, the last open above). The block is
//!   cut into at most `T` contiguous pieces, and the delta slice is one
//!   more; key alignment only matters between steps. The driver thread
//!   consults the token, and the row cap, once per step.
//!
//! Both plans split a step's work the same way: worker `w` merges
//! pieces `w, w + T, …` of the step, each against every public run.
//!
//! Blocks never split a key group and every step carries all private
//! tuples — base and delta — of its key interval, which gives the
//! **prefix contract** also over a dirty snapshot: for every covered
//! key the partial result holds *all* of the full join's matches, and
//! therefore the partial rows — sorted by `(key, r_payload, s_payload)`
//! — are exactly a prefix of the sorted full join. Only the driver
//! thread consults the token, between steps, so budget tokens stay
//! deterministic.
//!
//! Coverage is reported as merged private tuples over total private
//! tuples, whatever splitters cut the runs. Alongside the scalar, the
//! outcome carries a per-key-range histogram ([`KeyRangeCoverage`], one
//! entry per non-empty private base run) that shows *where* in the key
//! domain the merge stopped.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::context::ExecContext;
use crate::join::delta::{merge_pair, DeltaSide, Piece};
use crate::join::runs::RunSet;
use crate::sink::JoinSink;
use crate::stats::{JoinStats, Phase};
use crate::tuple::Tuple;

/// Target base tuples per interruption step. The driver checks the
/// token once per step, so this bounds how far a merge overshoots its
/// deadline: one block of private tuples (times the matching public
/// work). Blocks are extended past duplicate keys, so a block may be
/// larger when a key group straddles the boundary.
pub const ANYTIME_BLOCK_TUPLES: usize = 4096;

/// When a run-set merge must stop. Checked by the *driver* thread
/// between steps — never inside the hot merge kernel, and never
/// concurrently — so budget-based tokens are fully deterministic.
#[derive(Debug, Clone)]
pub enum AnytimeToken {
    /// Never expires: the merge runs to completion (the non-anytime
    /// behaviour, with identical results).
    Never,
    /// Expires once the wall clock passes the instant (an absolute
    /// deadline; schedulers compute it at submit time so the SLA
    /// includes queue wait).
    Deadline(Instant),
    /// Expires after a fixed number of checks: check `n` and later
    /// report expired. Deterministic — step order is fixed and
    /// only the driver consults the token — which is what makes
    /// coverage-monotonicity properties testable without wall-clock
    /// flakiness.
    Budget(Arc<AtomicI64>),
}

impl AnytimeToken {
    /// A token that never expires.
    pub fn never() -> Self {
        AnytimeToken::Never
    }

    /// A token expiring at the absolute instant.
    pub fn at(deadline: Instant) -> Self {
        AnytimeToken::Deadline(deadline)
    }

    /// A deterministic token allowing exactly `checks` successful
    /// checks before reporting expiry.
    pub fn budget(checks: u64) -> Self {
        AnytimeToken::Budget(Arc::new(AtomicI64::new(checks.min(i64::MAX as u64) as i64)))
    }

    /// Consult the token. Budget tokens count this call.
    pub fn expired(&self) -> bool {
        match self {
            AnytimeToken::Never => false,
            AnytimeToken::Deadline(at) => Instant::now() >= *at,
            AnytimeToken::Budget(left) => left.fetch_sub(1, Ordering::Relaxed) <= 0,
        }
    }
}

/// Coverage of one private key range (one non-empty private base run)
/// in a run-set merge: how much of the run's `[lo, hi]` key span was merged
/// before the merge stopped. Runs cover ascending disjoint ranges, so
/// the vector of these reads as a small histogram over the key domain —
/// fully merged ranges at 1.0, the in-progress range somewhere between,
/// unreached ranges at 0.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyRangeCoverage {
    /// Smallest key in the range.
    pub lo: u64,
    /// Largest key in the range.
    pub hi: u64,
    /// Fraction of the range's tuples merged, in `[0, 1]`.
    pub fraction: f64,
}

/// What [`merge_sides`] produced: the (possibly partial) sink result
/// plus exactly how much of the private input it covered.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome<R> {
    /// The combined sink result over every merged step.
    pub result: R,
    /// Private base runs merged to completion (prefix of the run order).
    pub merged_runs: usize,
    /// Private base runs in the set.
    pub total_runs: usize,
    /// Private tuples (base and delta) in merged steps.
    pub merged_tuples: usize,
    /// Private tuples (base and delta) on the side.
    pub total_tuples: usize,
    /// Whether the merge ran to completion (`coverage() == 1.0`).
    pub complete: bool,
    /// Per-key-range coverage, one entry per non-empty private base run
    /// in ascending key order (see [`KeyRangeCoverage`]).
    pub ranges: Vec<KeyRangeCoverage>,
    /// Whether the merge stopped early because a `rows_cap` was
    /// satisfied rather than because the token expired.
    pub capped: bool,
}

impl<R> AnytimeOutcome<R> {
    /// Fraction of the private input merged, in `[0, 1]`. Equi-height
    /// runs make this the estimator of the key-domain fraction covered.
    /// An empty private input counts as fully covered.
    pub fn coverage(&self) -> f64 {
        if self.total_tuples == 0 {
            1.0
        } else {
            self.merged_tuples as f64 / self.total_tuples as f64
        }
    }
}

/// Split `run` into blocks of roughly `target` tuples whose boundaries
/// never divide a key group: a boundary landing inside a group of equal
/// keys is pushed past it, so each key of the run lives in exactly one
/// block. Returns the block end offsets (ascending, last == `run.len()`).
fn key_aligned_block_ends(run: &[Tuple], target: usize) -> Vec<usize> {
    let target = target.max(1);
    let mut ends = Vec::with_capacity(run.len() / target + 1);
    let mut end = 0;
    while end < run.len() {
        end = (end + target).min(run.len());
        while end < run.len() && run[end].key == run[end - 1].key {
            end += 1;
        }
        ends.push(end);
    }
    ends
}

/// One pool dispatch of the driver: the private pieces merged in it and
/// how many of their tuples are base tuples (the rest is delta).
struct Step<'a> {
    pieces: Vec<Piece<'a>>,
    base_tuples: usize,
}

/// The interruptible plan: one step per key-aligned block of the
/// private base runs, in ascending key order, cut into at most `t`
/// contiguous pieces and joined by the slice of the private delta run
/// whose keys fall into the block's interval (everything not yet taken,
/// up to the block's last key; the last step takes the rest). A side
/// with no base tuples merges its delta in one step.
fn key_interval_steps<'a>(r: DeltaSide<'a>, t: usize) -> Vec<Step<'a>> {
    let mut blocks = Vec::new();
    for idx in 0..r.base.parts() {
        let run = r.piece(idx);
        let mut start = 0;
        for end in key_aligned_block_ends(run.tuples, ANYTIME_BLOCK_TUPLES) {
            blocks.push(Piece { tuples: &run.tuples[start..end], ..run });
            start = end;
        }
    }
    let delta = r.delta.map(|_| r.piece(r.base.parts()));
    let last = blocks.len().saturating_sub(1);
    let mut taken = 0;
    let mut steps: Vec<Step<'a>> = blocks
        .into_iter()
        .enumerate()
        .map(|(i, block)| {
            let base_tuples = block.tuples.len();
            let pieces = block.tuples.chunks(base_tuples.div_ceil(t));
            let mut step = Step {
                pieces: pieces.map(|tuples| Piece { tuples, ..block }).collect(),
                base_tuples,
            };
            if let Some(delta) = delta {
                let hi = block.tuples[block.tuples.len() - 1].key;
                let upto = if i == last {
                    delta.tuples.len()
                } else {
                    delta.tuples.partition_point(|t| t.key <= hi)
                };
                step.pieces.push(Piece { tuples: &delta.tuples[taken..upto], ..delta });
                taken = upto;
            }
            step
        })
        .collect();
    if let Some(delta) = delta.filter(|d| steps.is_empty() && !d.tuples.is_empty()) {
        steps.push(Step { pieces: vec![delta], base_tuples: 0 });
    }
    steps
}

/// Phase 4 over two sides of sorted runs: every private run merges with
/// every public run through `merge_pair`, in the step plan the module
/// docs describe. The private base runs must be range-partitioned; the
/// public ones may be any sorted runs. A [`AnytimeToken::Never`] token
/// with no effective `rows_cap` is the plain merge (one dispatch, always
/// complete); any other combination merges ascending key intervals and
/// stops *between* steps when the token expires or — for sinks whose
/// [`JoinSink::result_len`] reports a count — once at least `rows_cap`
/// rows exist, so a capped query stops paying for rows its caller will
/// discard. Time and access counters book under [`Phase::Four`].
pub fn merge_sides<S: JoinSink>(
    cx: &ExecContext,
    r: DeltaSide<'_>,
    s: DeltaSide<'_>,
    token: &AnytimeToken,
    rows_cap: Option<usize>,
    stats: &mut JoinStats,
) -> AnytimeOutcome<S::Result> {
    debug_assert!(
        r.base.is_range_partitioned(),
        "the private side must be range-partitioned: its base runs cover ascending, disjoint key \
         ranges"
    );
    let t = cx.threads();
    let total_tuples = r.base.total_tuples() + r.delta.map_or(0, |d| d.len());
    let rows_cap = rows_cap.filter(|_| S::result_len(&S::default().finish()).is_some());
    let single = matches!(token, AnytimeToken::Never) && rows_cap.is_none();
    let steps = if single {
        let pieces = (0..r.run_count()).map(|idx| r.piece(idx)).collect();
        vec![Step { pieces, base_tuples: r.base.total_tuples() }]
    } else {
        key_interval_steps(r, t)
    };

    let mut partials: Vec<S::Result> = Vec::with_capacity(steps.len());
    let (mut merged_base, mut merged_tuples, mut produced_rows) = (0, 0, 0);
    let (mut expired, mut capped) = (false, false);
    for step in &steps {
        if token.expired() {
            expired = true;
            break;
        }
        let step_partials = cx.run_phase(Phase::Four, stats, |w, scope| {
            let mut sink = S::default();
            for piece in step.pieces.iter().skip(w).step_by(t) {
                for sp in 0..s.run_count() {
                    merge_pair(*piece, s.piece(sp), &mut sink, scope);
                }
            }
            sink.finish()
        });
        let combined = S::combine_all(step_partials);
        produced_rows += S::result_len(&combined).unwrap_or(0);
        partials.push(combined);
        merged_base += step.base_tuples;
        merged_tuples += step.pieces.iter().map(|p| p.tuples.len()).sum::<usize>();
        if rows_cap.is_some_and(|cap| produced_rows >= cap) {
            capped = true;
            break;
        }
    }

    // Steps consume the base runs front to back, so `merged_base` alone
    // says how far each run got: fully merged ranges first, at most one
    // partially merged range, then untouched ones.
    let mut left = merged_base;
    let mut merged_runs = 0;
    let mut prefix_done = true;
    let mut ranges = Vec::with_capacity(r.base.parts());
    for run in r.base.runs() {
        let done = left.min(run.len());
        left -= done;
        prefix_done &= done == run.len();
        merged_runs += usize::from(prefix_done);
        if let (Some(lo), Some(hi)) = (run.first(), run.last()) {
            let fraction = done as f64 / run.len() as f64;
            ranges.push(KeyRangeCoverage { lo: lo.key, hi: hi.key, fraction });
        }
    }
    AnytimeOutcome {
        result: S::combine_all(partials),
        merged_runs,
        total_runs: r.base.parts(),
        merged_tuples,
        total_tuples,
        complete: !expired && merged_tuples == total_tuples,
        ranges,
        capped,
    }
}

/// [`merge_sides`] over two plain run sets (no delta, no cap).
pub fn merge_run_sets_anytime<S: JoinSink>(
    cx: &ExecContext,
    r_runs: &RunSet,
    s_runs: &RunSet,
    token: &AnytimeToken,
    stats: &mut JoinStats,
) -> AnytimeOutcome<S::Result> {
    merge_sides::<S>(
        cx,
        DeltaSide::base_only(r_runs),
        DeltaSide::base_only(s_runs),
        token,
        None,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;

    use super::super::runs::{build_run_set, merge_run_sets_in};
    use super::*;
    use crate::join::delta::{materialize, DeltaOp, DeltaOverlay};
    use crate::sink::{CollectSink, CountSink, MaxAggSink};

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        }
    }

    fn random(n: usize, domain: u64, seed: u64) -> Vec<Tuple> {
        let mut next = lcg(seed);
        (0..n).map(|i| Tuple::new(next() % domain, i as u64)).collect()
    }

    fn sets(r: &[Tuple], s: &[Tuple], cx: &ExecContext) -> (RunSet, RunSet) {
        let mut stats = JoinStats::new(cx.threads());
        let r_runs = build_run_set(cx, r, 10, Phase::Two, Phase::Three, &mut stats);
        let s_runs = build_run_set(cx, s, 10, Phase::One, Phase::One, &mut stats);
        (r_runs, s_runs)
    }

    fn sorted_rows(mut rows: Vec<(u64, u64, u64)>) -> Vec<(u64, u64, u64)> {
        rows.sort_unstable();
        rows
    }

    #[test]
    fn never_expiring_token_matches_the_plain_merge() {
        let r = random(5000, 900, 3);
        let s = random(9000, 900, 5);
        let cx = ExecContext::flat(4);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        let mut stats = JoinStats::new(4);
        let full = merge_run_sets_in::<CountSink>(&cx, &r_runs, &s_runs, &mut stats);
        let mut stats = JoinStats::new(4);
        let served = cx.pool().phases_served();
        let out = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::never(),
            &mut stats,
        );
        assert_eq!(
            cx.pool().phases_served() - served,
            1,
            "nothing can interrupt a Never merge, so it is one pool dispatch"
        );
        assert_eq!(out.result, full);
        assert!(out.complete);
        assert_eq!(out.merged_runs, out.total_runs);
        assert_eq!(out.merged_tuples, r.len());
        assert!((out.coverage() - 1.0).abs() < 1e-12);
        let [.., p4] = stats.phases_ms();
        assert!(p4 >= 0.0, "merge time books under phase 4");
    }

    #[test]
    fn zero_budget_merges_nothing() {
        let r = random(2000, 300, 7);
        let s = random(2000, 300, 9);
        let cx = ExecContext::flat(2);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        let mut stats = JoinStats::new(2);
        let out = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::budget(0),
            &mut stats,
        );
        assert_eq!(out.result, 0);
        assert!(!out.complete);
        assert_eq!(out.merged_tuples, 0);
        assert_eq!(out.coverage(), 0.0);
    }

    #[test]
    fn coverage_is_monotone_in_the_budget_and_rows_are_a_prefix() {
        // Duplicate-heavy input so key groups straddle block targets.
        let r = random(6000, 150, 11);
        let s = random(3000, 150, 13);
        let cx = ExecContext::flat(3);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        let mut stats = JoinStats::new(3);
        let full = sorted_rows(
            merge_run_sets_anytime::<CollectSink>(
                &cx,
                &r_runs,
                &s_runs,
                &AnytimeToken::never(),
                &mut stats,
            )
            .result,
        );
        let mut last_coverage = -1.0f64;
        for budget in 0..8u64 {
            let mut stats = JoinStats::new(3);
            let out = merge_run_sets_anytime::<CollectSink>(
                &cx,
                &r_runs,
                &s_runs,
                &AnytimeToken::budget(budget),
                &mut stats,
            );
            let coverage = out.coverage();
            assert!(
                coverage >= last_coverage,
                "coverage must grow with the budget: {coverage} after {last_coverage}"
            );
            last_coverage = coverage;
            let rows = sorted_rows(out.result);
            assert_eq!(
                rows.as_slice(),
                &full[..rows.len()],
                "budget {budget}: partial rows must be a key-order prefix of the full join"
            );
            if out.complete {
                assert_eq!(rows.len(), full.len());
            }
        }
    }

    #[test]
    fn partial_max_never_exceeds_the_full_answer() {
        let r = random(4000, 500, 17);
        let s = random(4000, 500, 19);
        let cx = ExecContext::flat(2);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        let mut stats = JoinStats::new(2);
        let full = merge_run_sets_anytime::<MaxAggSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::never(),
            &mut stats,
        );
        for budget in [1u64, 2, 3] {
            let mut stats = JoinStats::new(2);
            let part = merge_run_sets_anytime::<MaxAggSink>(
                &cx,
                &r_runs,
                &s_runs,
                &AnytimeToken::budget(budget),
                &mut stats,
            );
            if let Some(m) = part.result {
                assert!(m <= full.result.expect("full join is non-empty"));
            }
        }
    }

    #[test]
    fn empty_private_input_is_complete_with_full_coverage() {
        let s = random(500, 64, 23);
        let cx = ExecContext::flat(2);
        let (r_runs, s_runs) = sets(&[], &s, &cx);
        let mut stats = JoinStats::new(2);
        let out = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::budget(0),
            &mut stats,
        );
        assert_eq!(out.result, 0);
        assert!(out.complete, "no work to interrupt");
        assert_eq!(out.coverage(), 1.0);
    }

    #[test]
    fn block_ends_never_split_a_key_group() {
        let mut run: Vec<Tuple> = Vec::new();
        for key in 0..40u64 {
            for i in 0..(1 + key % 7) {
                run.push(Tuple::new(key, i));
            }
        }
        let ends = key_aligned_block_ends(&run, 16);
        assert_eq!(*ends.last().expect("non-empty"), run.len());
        let mut prev = 0;
        for &end in &ends {
            assert!(end > prev, "blocks advance");
            if end < run.len() {
                assert_ne!(run[end - 1].key, run[end].key, "boundary splits a key group");
            }
            prev = end;
        }
        // A single giant key group becomes one block.
        let dup: Vec<Tuple> = (0..100).map(|i| Tuple::new(7, i)).collect();
        assert_eq!(key_aligned_block_ends(&dup, 8), vec![100]);
    }

    #[test]
    fn range_histogram_tracks_where_the_merge_stopped() {
        let r = random(6000, 400, 29);
        let s = random(3000, 400, 31);
        let cx = ExecContext::flat(3);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        // Full merge: every range at 1.0, ascending and disjoint.
        let mut stats = JoinStats::new(3);
        let full = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::never(),
            &mut stats,
        );
        assert!(!full.ranges.is_empty());
        assert!(full.ranges.iter().all(|kr| (kr.fraction - 1.0).abs() < 1e-12));
        assert!(full.ranges.iter().all(|kr| kr.lo <= kr.hi));
        assert!(
            full.ranges.windows(2).all(|w| w[0].hi <= w[1].lo),
            "ranges cover ascending disjoint key spans: {:?}",
            full.ranges
        );
        assert!(!full.capped);
        // An interrupted merge: fully merged ranges first, then at most
        // one partially merged range, then zeros — a downward-closed
        // key prefix, in histogram form.
        let mut stats = JoinStats::new(3);
        let part = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::budget(2),
            &mut stats,
        );
        assert!(!part.complete);
        assert_eq!(part.ranges.len(), full.ranges.len());
        let mut seen_partial = false;
        for kr in &part.ranges {
            if seen_partial {
                assert_eq!(kr.fraction, 0.0, "nothing merges past the stop point: {kr:?}");
            } else if kr.fraction < 1.0 {
                seen_partial = true;
            }
        }
        let scalar = part.coverage();
        let from_hist: f64 = part
            .ranges
            .iter()
            .zip(r_runs.runs().iter().filter(|run| !run.is_empty()))
            .map(|(kr, run)| kr.fraction * run.len() as f64)
            .sum::<f64>()
            / r.len() as f64;
        assert!((scalar - from_hist).abs() < 1e-9, "histogram refines the scalar");
    }

    #[test]
    fn rows_cap_stops_the_merge_between_blocks() {
        // Enough tuples for several blocks per run.
        let r = random(20_000, 5_000, 37);
        let s = random(20_000, 5_000, 41);
        let cx = ExecContext::flat(2);
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        let mut stats = JoinStats::new(2);
        let full = merge_run_sets_anytime::<CollectSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::never(),
            &mut stats,
        );
        let full_rows = sorted_rows(full.result);
        let cap = 64;
        let mut stats = JoinStats::new(2);
        let (r_side, s_side) = (DeltaSide::base_only(&r_runs), DeltaSide::base_only(&s_runs));
        let out = merge_sides::<CollectSink>(
            &cx,
            r_side,
            s_side,
            &AnytimeToken::never(),
            Some(cap),
            &mut stats,
        );
        assert!(out.capped, "cap must trigger before the merge finishes");
        assert!(
            out.merged_tuples < out.total_tuples,
            "the cap stops merge work early: {}/{}",
            out.merged_tuples,
            out.total_tuples
        );
        assert!(out.result.len() >= cap, "cap satisfied before stopping");
        // Sorted-and-truncated, the capped rows are a prefix of the
        // full join: every merged block is complete, in key order.
        let rows = sorted_rows(out.result);
        assert_eq!(&rows[..cap], &full_rows[..cap]);
        // Aggregating sinks never cap — and, with nothing left that
        // could interrupt them, take the single-dispatch plan.
        let mut stats = JoinStats::new(2);
        let served = cx.pool().phases_served();
        let agg = merge_sides::<CountSink>(
            &cx,
            r_side,
            s_side,
            &AnytimeToken::never(),
            Some(cap),
            &mut stats,
        );
        assert!(agg.complete && !agg.capped, "a counting sink reports no rows to cap on");
        assert_eq!(cx.pool().phases_served() - served, 1);
    }

    /// The prefix contract over a dirty private *and* public side: for
    /// every budget the rows are a key-order prefix of the join over
    /// the materialized relations, coverage grows with the budget, and
    /// every step carried its key interval's delta tuples with it.
    #[test]
    fn interrupted_merge_over_a_live_delta_is_a_key_order_prefix() {
        let cx = ExecContext::flat(3);
        let r_base = random(9000, 600, 43);
        let s_base = random(5000, 600, 47);
        let mut next = lcg(53);
        let mut ops = |n: usize| -> Vec<DeltaOp> {
            (0..n)
                .map(|i| match next() % 4 {
                    0 => DeltaOp::Delete { key: next() % 700 },
                    1 => DeltaOp::Update { key: next() % 700, payload: 900_000 + i as u64 },
                    _ => DeltaOp::Append(Tuple::new(next() % 700, 500_000 + i as u64)),
                })
                .collect()
        };
        let (r_ops, s_ops) = (ops(300), ops(200));
        let (r_overlay, s_overlay) =
            (DeltaOverlay::from_ops(&r_ops), DeltaOverlay::from_ops(&s_ops));
        let (r_runs, s_runs) = sets(&r_base, &s_base, &cx);
        let mut scope = cx.scope(0);
        let r_delta = cx.sorted_run(0, &r_overlay.adds, &mut scope);
        let s_delta = cx.sorted_run(0, &s_overlay.adds, &mut scope);
        let r_side = DeltaSide { base: &r_runs, delta: Some(&r_delta), mask: &r_overlay.masked };
        let s_side = DeltaSide { base: &s_runs, delta: Some(&s_delta), mask: &s_overlay.masked };

        let (r_full, s_full) = (materialize(&r_base, &r_ops), materialize(&s_base, &s_ops));
        let mut expected = Vec::new();
        for rt in &r_full {
            for st in s_full.iter().filter(|st| st.key == rt.key) {
                expected.push((rt.key, rt.payload, st.payload));
            }
        }
        expected.sort_unstable();

        let mut last_coverage = -1.0f64;
        let mut completed = false;
        for budget in 0..12u64 {
            let mut stats = JoinStats::new(3);
            let out = merge_sides::<CollectSink>(
                &cx,
                r_side,
                s_side,
                &AnytimeToken::budget(budget),
                None,
                &mut stats,
            );
            assert!(out.coverage() >= last_coverage, "budget {budget}: coverage shrank");
            last_coverage = out.coverage();
            let rows = sorted_rows(out.result);
            assert_eq!(rows.as_slice(), &expected[..rows.len()], "budget {budget}: not a prefix");
            if let Some(&(last_key, ..)) = rows.last() {
                let next_key = expected.get(rows.len()).map(|row| row.0);
                assert_ne!(next_key, Some(last_key), "budget {budget}: a key group was split");
            }
            if out.complete {
                assert_eq!(rows.len(), expected.len());
                assert_eq!(out.merged_tuples, r_runs.total_tuples() + r_delta.len());
                completed = true;
            }
        }
        assert!(completed, "twelve steps cover 9000 base tuples");
    }

    #[test]
    fn a_delta_only_private_side_merges_in_one_step() {
        let cx = ExecContext::flat(2);
        let s = random(400, 50, 59);
        let (r_runs, s_runs) = sets(&[], &s, &cx);
        let adds: Vec<Tuple> = (0..50u64).map(|k| Tuple::new(k, k)).collect();
        let mut scope = cx.scope(0);
        let delta = cx.sorted_run(0, &adds, &mut scope);
        let r_side = DeltaSide { base: &r_runs, delta: Some(&delta), mask: &[] };
        let run = |budget| {
            let mut stats = JoinStats::new(2);
            let token = AnytimeToken::budget(budget);
            merge_sides::<CountSink>(
                &cx,
                r_side,
                DeltaSide::base_only(&s_runs),
                &token,
                None,
                &mut stats,
            )
        };
        let none = run(0);
        assert!(!none.complete && none.result == 0 && none.coverage() == 0.0);
        let all = run(1);
        assert!(all.complete);
        assert_eq!(all.result, 400, "every S key in 0..50 meets its one delta tuple");
    }

    /// Chunked runs overlap in key range: as the private side they would
    /// void the key-order prefix contract and [`KeyRangeCoverage`].
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the private side must be range-partitioned")]
    fn a_chunked_private_side_is_rejected() {
        use super::super::runs::chunked_run_set;
        let cx = ExecContext::flat(2);
        let mut stats = JoinStats::new(2);
        let r = chunked_run_set(&cx, &random(1000, 500, 61), Phase::Two, &mut stats);
        let s = build_run_set(&cx, &random(1000, 500, 67), 10, Phase::One, Phase::One, &mut stats);
        merge_run_sets_in::<CountSink>(&cx, &r, &s, &mut stats);
    }

    /// Records which pool threads saw at least one match.
    #[derive(Default)]
    struct ThreadsSink {
        seen: HashSet<ThreadId>,
    }

    impl JoinSink for ThreadsSink {
        type Result = HashSet<ThreadId>;

        fn on_match(&mut self, _private: Tuple, _public: Tuple) {
            if self.seen.is_empty() {
                self.seen.insert(std::thread::current().id());
            }
        }

        fn finish(self) -> Self::Result {
            self.seen
        }

        fn combine(mut a: Self::Result, b: Self::Result) -> Self::Result {
            a.extend(b);
            a
        }
    }

    /// Over range-partitioned sides a block meets a single public run, so
    /// a step runs `T`-wide only if its private block is what is split
    /// across the workers.
    #[test]
    fn an_interrupted_step_merges_on_every_worker() {
        let cx = ExecContext::flat(2);
        let (r_runs, s_runs) = sets(&random(40_000, 40_000, 71), &random(40_000, 40_000, 73), &cx);
        let mut stats = JoinStats::new(2);
        let out = merge_run_sets_anytime::<ThreadsSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::budget(1),
            &mut stats,
        );
        assert!(!out.complete, "one step of many");
        assert_eq!(out.result.len(), 2, "both workers merged part of the step");
    }

    /// An interruptible merge costs one pool admission per step it runs,
    /// so a competitor is admitted between two steps; a token expired
    /// before step 0 costs none.
    #[test]
    fn an_interruptible_merge_dispatches_once_per_step_it_runs() {
        let cx = ExecContext::flat(3);
        let (r_runs, s_runs) = sets(&random(30_000, 9_000, 79), &random(30_000, 9_000, 83), &cx);
        let (r_side, s_side) = (DeltaSide::base_only(&r_runs), DeltaSide::base_only(&s_runs));
        let dispatches = |token: AnytimeToken, rows_cap: Option<usize>| {
            let served = cx.pool().phases_served();
            let mut stats = JoinStats::new(3);
            let out = merge_sides::<CollectSink>(&cx, r_side, s_side, &token, rows_cap, &mut stats);
            (cx.pool().phases_served() - served, out)
        };
        assert_eq!(dispatches(AnytimeToken::budget(0), None).0, 0);
        let mut budget_tuples = vec![0];
        for budget in 1..=6 {
            let (n, out) = dispatches(AnytimeToken::budget(budget), None);
            assert_eq!(n, budget, "budget {budget}");
            assert!(!out.complete, "budget {budget} stops early");
            budget_tuples.push(out.merged_tuples);
        }
        let (n, out) = dispatches(AnytimeToken::never(), Some(100));
        assert!(out.capped && !out.complete);
        assert_eq!(out.merged_tuples, budget_tuples[n as usize], "{n} steps ran");
        let (all_steps, full) = dispatches(AnytimeToken::budget(u64::MAX), None);
        assert!(full.complete);
        let live = AnytimeToken::at(Instant::now() + Duration::from_secs(3600));
        let (n, out) = dispatches(live, None);
        assert_eq!(n, all_steps);
        assert!(out.complete, "a deadline an hour away lets every step run");
    }

    #[test]
    fn repeated_interrupted_merges_are_identical() {
        let cx = ExecContext::flat(3);
        let (r_runs, s_runs) = sets(&random(30_000, 9_000, 89), &random(30_000, 9_000, 97), &cx);
        let (r_side, s_side) = (DeltaSide::base_only(&r_runs), DeltaSide::base_only(&s_runs));
        for (budget, rows_cap) in [(3, None), (u64::MAX, Some(500))] {
            let run = || {
                let mut stats = JoinStats::new(3);
                let token = AnytimeToken::budget(budget);
                merge_sides::<CollectSink>(&cx, r_side, s_side, &token, rows_cap, &mut stats)
            };
            let first = run();
            assert!(first.merged_tuples < first.total_tuples, "{budget}/{rows_cap:?} stops early");
            for _ in 0..20 {
                let again = run();
                assert_eq!(again.result, first.result, "rows, in order");
                assert_eq!(again.merged_tuples, first.merged_tuples);
                assert_eq!(again.ranges, first.ranges);
                assert_eq!(again.capped, first.capped);
            }
        }
    }

    /// Matches seen by every [`PanickingSink`] so far, and the match on
    /// which one panics.
    static MATCHES_SEEN: AtomicUsize = AtomicUsize::new(0);
    static PANIC_AT_MATCH: AtomicUsize = AtomicUsize::new(usize::MAX);

    #[derive(Default)]
    struct PanickingSink;

    impl JoinSink for PanickingSink {
        type Result = ();

        fn on_match(&mut self, _private: Tuple, _public: Tuple) {
            if MATCHES_SEEN.fetch_add(1, Ordering::Relaxed) + 1
                == PANIC_AT_MATCH.load(Ordering::Relaxed)
            {
                panic!("sink failed");
            }
        }

        fn finish(self) {}

        fn combine((): (), (): ()) {}
    }

    #[test]
    fn a_panic_in_a_later_step_reaches_the_caller_and_frees_the_pool() {
        let cx = Arc::new(ExecContext::flat(3));
        let (r, s) = (random(30_000, 9_000, 101), random(30_000, 9_000, 103));
        let (r_runs, s_runs) = sets(&r, &s, &cx);
        // Panic on the first match past the first two steps.
        let mut stats = JoinStats::new(3);
        let two_steps = merge_run_sets_anytime::<CountSink>(
            &cx,
            &r_runs,
            &s_runs,
            &AnytimeToken::budget(2),
            &mut stats,
        );
        assert!(!two_steps.complete);
        PANIC_AT_MATCH.store(two_steps.result as usize + 1, Ordering::Relaxed);
        let (done_tx, done) = std::sync::mpsc::channel();
        let merge_cx = Arc::clone(&cx);
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut stats = JoinStats::new(3);
                let token = AnytimeToken::budget(100);
                merge_run_sets_anytime::<PanickingSink>(
                    &merge_cx, &r_runs, &s_runs, &token, &mut stats,
                )
            }));
            let _ = done_tx.send(outcome.map(drop));
        });
        let payload = done
            .recv_timeout(Duration::from_secs(60))
            .expect("the merge must not hang")
            .expect_err("the sink's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker thread panicked"));
        assert!(MATCHES_SEEN.load(Ordering::Relaxed) > two_steps.result as usize);
        assert_eq!(cx.pool().run(|w| w), vec![0, 1, 2]);
    }

    #[test]
    fn token_constructors_behave() {
        assert!(!AnytimeToken::never().expired());
        assert!(AnytimeToken::at(Instant::now() - Duration::from_millis(1)).expired());
        let b = AnytimeToken::budget(2);
        assert!(!b.expired());
        assert!(!b.expired());
        assert!(b.expired(), "third check exceeds a budget of 2");
        assert!(b.expired(), "expiry is sticky");
    }
}
