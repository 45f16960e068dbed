//! Reusable sorted-run production and consumption — the machinery
//! behind the executor's cross-query run cache (§7's observation that
//! MPSM's sorted runs are a free by-product of the join).
//!
//! [`build_run_set`] turns a relation into `T` *range-partitioned,
//! sorted* runs: equi-height splitters derived from the relation's own
//! radix histogram bound each run to a disjoint slice of the key
//! domain, the write-combining scatter of P-MPSM phase 2.3 places run
//! `i` on worker `i`'s node, and each worker three-phase-sorts its
//! partition locally. The result depends only on the relation's bytes,
//! the worker count and the radix width — not on the other join input —
//! which is what makes a [`RunSet`] shareable across queries.
//!
//! A run-oriented join builds (or is handed, pre-built and shared) one
//! [`RunSet`] per side — a pre-built side skips phases 1–3 entirely —
//! and merges them with
//! [`merge_sides`], which joins every private run against every public
//! run from an interpolation-searched entry point, exactly like P-MPSM
//! phase 4 — correct for *any* pair of per-side disjoint partitionings,
//! aligned or not, because a matching pair `(r, s)` lives in exactly one
//! `(R_i, S_j)` combination.

use std::sync::Arc;

use mpsm_numa::NumaBuf;

use crate::context::ExecContext;
use crate::histogram::{combine_histograms, compute_histogram, RadixDomain};
use crate::join::anytime::{merge_sides, AnytimeToken};
use crate::join::delta::DeltaSide;
use crate::partition::range_partition_ctx;
use crate::sink::JoinSink;
use crate::splitter::equi_height_splitters;
use crate::stats::{JoinStats, Phase};
use crate::tuple::{key_range, Tuple};
use crate::worker::{chunk_ranges, OwnedSlots};

/// A relation's sorted, range-partitioned, node-homed runs — the
/// output of phases 1–3 and the unit the executor's run cache stores.
///
/// Runs keep their [`NumaBuf`] homes, so a cached set re-used by a
/// query pinned elsewhere is read remotely (sequentially — still C2);
/// nothing is copied out of the arena on either publish or reuse.
#[derive(Debug, Clone)]
pub struct RunSet {
    runs: Vec<NumaBuf<Tuple>>,
    total: usize,
}

impl RunSet {
    /// Wrap already-sorted runs.
    pub fn new(runs: Vec<NumaBuf<Tuple>>) -> Self {
        let total = runs.iter().map(|r| r.len()).sum();
        RunSet { runs, total }
    }

    /// The runs, in partition order (ascending disjoint key ranges).
    pub fn runs(&self) -> &[NumaBuf<Tuple>] {
        &self.runs
    }

    /// Number of runs (the worker count the set was built with).
    pub fn parts(&self) -> usize {
        self.runs.len()
    }

    /// Total tuples across all runs.
    pub fn total_tuples(&self) -> usize {
        self.total
    }

    /// Payload bytes held by the set (what cache budgets meter).
    pub fn bytes(&self) -> usize {
        self.total * std::mem::size_of::<Tuple>()
    }
}

/// A [`RunSet`] shared between a cache and any number of concurrent
/// readers.
pub type SharedRunSet = Arc<RunSet>;

/// Build a relation's [`RunSet`]: histogram → equi-height splitters →
/// NUMA-placed scatter → local sort.
///
/// Phase attribution: scan/histogram/scatter wall time is recorded
/// under `partition_phase`, the sort under `sort_phase` (the public
/// side of a join records both under `Phase::One`, the private side
/// under `Phase::Two`/`Phase::Three`, mirroring P-MPSM's numbering).
/// [`range_partition_ctx`] books its access counters under
/// `Phase::Two` regardless — the scatter is phase-2 work in the
/// paper's audit taxonomy no matter which side triggers it.
pub fn build_run_set(
    cx: &ExecContext,
    tuples: &[Tuple],
    radix_bits: u32,
    partition_phase: Phase,
    sort_phase: Phase,
    stats: &mut JoinStats,
) -> RunSet {
    let t = cx.threads();
    let pool = cx.pool();
    let ranges = chunk_ranges(tuples.len(), t);
    let chunks: Vec<&[Tuple]> = ranges.iter().map(|rng| &tuples[rng.clone()]).collect();

    // Key domain: parallel min/max scan.
    let (scan_out, d_scan) = pool.run_timed(|w| {
        let mut scope = cx.scope(w);
        scope.touch_interleaved(true, chunks[w].len() as u64);
        (key_range(chunks[w]), scope.finish())
    });
    let (key_ranges, c_scan): (Vec<_>, Vec<_>) = scan_out.into_iter().unzip();
    stats.record_phase(partition_phase, &d_scan);
    cx.record(partition_phase, c_scan);
    let (min, max) = key_ranges
        .into_iter()
        .flatten()
        .fold((u64::MAX, 0u64), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
    let domain = if min <= max {
        RadixDomain::from_range(min, max, radix_bits)
    } else {
        RadixDomain::from_range(0, 0, radix_bits)
    };

    // Equi-height splitters from the relation's own histogram: the
    // partitioning is a pure function of (relation, T, B) — the
    // property the cache key fingerprints.
    let (hist_out, d_hist) = pool.run_timed(|w| {
        let mut scope = cx.scope(w);
        scope.touch_interleaved(true, chunks[w].len() as u64);
        (compute_histogram(chunks[w], &domain), scope.finish())
    });
    let (histograms, c_hist): (Vec<_>, Vec<_>) = hist_out.into_iter().unzip();
    stats.record_phase(partition_phase, &d_hist);
    cx.record(partition_phase, c_hist);
    let splitters = equi_height_splitters(&combine_histograms(&histograms), t);

    let scatter_start = std::time::Instant::now();
    let partitions = range_partition_ctx(cx, &chunks, &domain, &splitters);
    stats.record_phase(partition_phase, &vec![scatter_start.elapsed(); t]);

    // Local sort of each partition on its home node.
    let slots = OwnedSlots::new(partitions);
    let (sorted, d_sort) = pool.run_timed(|w| {
        let mut scope = cx.scope(w);
        let mut part = slots.take(w);
        let home = part.home();
        cx.sort_run(w, &mut part, home, &mut scope);
        (part, scope.finish())
    });
    let (runs, c_sort): (Vec<_>, Vec<_>) = sorted.into_iter().unzip();
    stats.record_phase(sort_phase, &d_sort);
    cx.record(sort_phase, c_sort);

    RunSet::new(runs)
}

/// Phase 4 over two plain run sets, run to completion: [`merge_sides`]
/// with no delta under a token that never expires. A cached set built
/// at a different width than the current context still joins correctly
/// (workers pick up private runs round-robin).
pub fn merge_run_sets_in<S: JoinSink>(
    cx: &ExecContext,
    r_runs: &RunSet,
    s_runs: &RunSet,
    stats: &mut JoinStats,
) -> S::Result {
    let (r, s) = (DeltaSide::base_only(r_runs), DeltaSide::base_only(s_runs));
    merge_sides::<S>(cx, r, s, &AnytimeToken::Never, None, stats).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountSink};
    use crate::tuple::is_key_sorted;

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        }
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    fn random(n: usize, domain: u64, seed: u64) -> Vec<Tuple> {
        let mut next = lcg(seed);
        (0..n).map(|i| Tuple::new(next() % domain, i as u64)).collect()
    }

    /// Build one side's runs the way a cache miss does (public side
    /// under phase 1, private under phases 2/3).
    fn build(cx: &ExecContext, tuples: &[Tuple], private: bool, stats: &mut JoinStats) -> RunSet {
        let (partition, sort) =
            if private { (Phase::Two, Phase::Three) } else { (Phase::One, Phase::One) };
        build_run_set(cx, tuples, 10, partition, sort, stats)
    }

    /// The driver over two plain sets, run to completion.
    fn merge<S: JoinSink>(
        cx: &ExecContext,
        r_runs: &RunSet,
        s_runs: &RunSet,
        stats: &mut JoinStats,
    ) -> S::Result {
        let (r, s) = (DeltaSide::base_only(r_runs), DeltaSide::base_only(s_runs));
        let out = merge_sides::<S>(cx, r, s, &AnytimeToken::Never, None, stats);
        assert!(out.complete && !out.capped, "nothing can interrupt a Never merge");
        out.result
    }

    /// Both sides built fresh, then merged.
    fn fresh_join<S: JoinSink>(
        cx: &ExecContext,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, RunSet, RunSet) {
        let mut stats = JoinStats::new(cx.threads());
        let s_runs = build(cx, s, false, &mut stats);
        let r_runs = build(cx, r, true, &mut stats);
        let result = merge::<S>(cx, &r_runs, &s_runs, &mut stats);
        (result, r_runs, s_runs)
    }

    #[test]
    fn built_runs_are_sorted_disjoint_and_complete() {
        let tuples = random(3000, 700, 11);
        let cx = ExecContext::flat(4);
        let mut stats = JoinStats::new(4);
        let set = build_run_set(&cx, &tuples, 10, Phase::One, Phase::One, &mut stats);
        assert_eq!(set.parts(), 4);
        assert_eq!(set.total_tuples(), tuples.len());
        assert_eq!(set.bytes(), tuples.len() * std::mem::size_of::<Tuple>());
        let mut last_max: Option<u64> = None;
        for run in set.runs() {
            assert!(is_key_sorted(run), "each run key-sorted");
            if let (Some(prev), Some(first)) = (last_max, run.first()) {
                assert!(first.key > prev, "runs cover ascending disjoint key ranges");
            }
            if let Some(t) = run.last() {
                last_max = Some(t.key);
            }
        }
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let r = random(800, 512, 5);
        let s = random(2400, 512, 7);
        let expected = nested_loop_count(&r, &s);
        for threads in [1, 2, 3, 5, 8] {
            let cx = ExecContext::flat(threads);
            let (count, r_runs, s_runs) = fresh_join::<CountSink>(&cx, &r, &s);
            assert_eq!(count, expected, "threads = {threads}");
            assert_eq!(r_runs.total_tuples(), r.len());
            assert_eq!(s_runs.total_tuples(), s.len());
        }
    }

    #[test]
    fn cached_runs_reproduce_the_fresh_join() {
        let r = random(1000, 300, 21);
        let s = random(3000, 300, 23);
        let cx = ExecContext::flat(4);
        let (fresh, r_runs, s_runs) = fresh_join::<CountSink>(&cx, &r, &s);
        // Every hit/miss combination must agree with the fresh join: a
        // hit side reuses the shared set, a miss side rebuilds its own.
        for (r_hit, s_hit) in [(true, true), (true, false), (false, true)] {
            let mut stats = JoinStats::new(4);
            let s_rebuilt = (!s_hit).then(|| build(&cx, &s, false, &mut stats));
            let r_rebuilt = (!r_hit).then(|| build(&cx, &r, true, &mut stats));
            let again = merge::<CountSink>(
                &cx,
                r_rebuilt.as_ref().unwrap_or(&r_runs),
                s_rebuilt.as_ref().unwrap_or(&s_runs),
                &mut stats,
            );
            assert_eq!(again, fresh, "r hit = {r_hit}, s hit = {s_hit}");
        }
    }

    #[test]
    fn cached_runs_join_under_a_different_width() {
        // Runs built at T=6 must merge correctly in a T=2 context
        // (round-robin run pickup).
        let r = random(900, 256, 31);
        let s = random(1800, 256, 37);
        let expected = nested_loop_count(&r, &s);
        let wide = ExecContext::flat(6);
        let (built, r_runs, s_runs) = fresh_join::<CountSink>(&wide, &r, &s);
        assert_eq!(built, expected);
        let narrow = ExecContext::flat(2);
        let mut stats = JoinStats::new(2);
        assert_eq!(merge::<CountSink>(&narrow, &r_runs, &s_runs, &mut stats), expected);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let cx = ExecContext::flat(4);
        let empty: Vec<Tuple> = Vec::new();
        let some = random(50, 8, 3);
        assert_eq!(fresh_join::<CountSink>(&cx, &empty, &some).0, 0);
        assert_eq!(fresh_join::<CountSink>(&cx, &some, &empty).0, 0);
        // All keys identical: one partition gets everything.
        let dup: Vec<Tuple> = (0..200).map(|i| Tuple::new(9, i)).collect();
        assert_eq!(fresh_join::<CountSink>(&cx, &dup, &dup).0, 200 * 200);
    }

    #[test]
    fn collects_correct_pairs_with_payloads() {
        let r: Vec<Tuple> = vec![Tuple::new(4, 0), Tuple::new(2, 1)];
        let s: Vec<Tuple> = vec![Tuple::new(2, 0), Tuple::new(4, 1)];
        let cx = ExecContext::flat(2);
        let (mut rows, ..) = fresh_join::<CollectSink>(&cx, &r, &s);
        rows.sort_unstable();
        assert_eq!(rows, vec![(2, 1, 0), (4, 0, 1)]);
    }

    #[test]
    fn stats_attribute_build_phases_to_the_right_side() {
        let r = random(4000, 4096, 41);
        let s = random(4000, 4096, 43);
        let cx = ExecContext::flat(4);
        let (fresh, r_runs, s_runs) = fresh_join::<CountSink>(&cx, &r, &s);
        // A both-sides-cached join spends nothing in phases 1-3.
        let mut stats = JoinStats::new(4);
        let hit = merge::<CountSink>(&cx, &r_runs, &s_runs, &mut stats);
        let [p1, p2, p3, p4] = stats.phases_ms();
        assert_eq!(p1 + p2 + p3, 0.0, "hit path skips build phases");
        assert!(p4 >= 0.0);
        assert_eq!(hit, fresh);
    }
}
