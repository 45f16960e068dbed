//! Sorted-run production and consumption — the parts every MPSM join
//! is composed of (§7's observation that MPSM's sorted runs are a free
//! by-product of the join).
//!
//! A [`RunSet`] comes in two shapes:
//!
//! * **Chunked** — [`chunked_run_set`] cuts a relation into `T`
//!   contiguous chunks and sorts each into a run on its worker's node:
//!   MPSM's phase 1. The runs' key ranges overlap, so a chunked set can
//!   only be the *public* side of a merge.
//! * **Range-partitioned** — each run holds a disjoint slice of the key
//!   domain. [`build_run_set`] (and [`build_run_set_with`]) sort
//!   unsorted input into one: splitters from the relation's radix
//!   histogram, the scatter of P-MPSM phase 2.3 placing run `i` on
//!   worker `i`'s node and laying it out bucket-major over the
//!   histogram's `2^B` fine buckets — the sort's top radix level — and
//!   a local sort of each fine bucket in place while it is
//!   cache-resident. With the public side's CDF ([`run_set_cdf`], §4.1)
//!   the splitters are P-MPSM's cost-balanced ones (§4.3).
//!   [`cut_run_set`] makes one from input that is already key-sorted —
//!   a registered relation version, which the executor's catalog stores
//!   sorted ([`sort_in_place`]) — without touching it: `T` equal-count
//!   ranges of the shared tuples, read in place. Nothing is scanned,
//!   histogrammed, scattered, sorted, copied or allocated.
//!
//! [`merge_sides`] joins every private run against every public run
//! from an interpolation-searched entry point — P-MPSM's phase 4. It is
//! correct for a range-partitioned private side against *any* public
//! side, aligned or not, because a matching pair `(r, s)` lives in
//! exactly one `(R_i, S_j)` combination. So P-MPSM is a chunked public
//! set, a cost-balanced private set and `merge_sides`, and a query over
//! stored versions is the same merge over two cuts.

use std::ops::Range;
use std::sync::Arc;

use mpsm_numa::NumaBuf;

use crate::cdf::{equi_height_bounds, Cdf};
use crate::context::{ExecContext, SpareRuns};
use crate::histogram::{combine_histograms, RadixDomain};
use crate::join::anytime::{merge_sides, AnytimeToken};
use crate::join::delta::{DeltaSide, Home};
use crate::partition::{local_histograms, range_partition_histogrammed};
use crate::sink::JoinSink;
use crate::splitter::{compute_splitters, equi_height_splitters};
use crate::stats::{JoinStats, Phase};
use crate::tuple::{key_range, Tuple};
use crate::worker::{chunk_ranges, OwnedSlots};

/// A relation's sorted runs — the output of phases 1–3 and the input
/// of phase 4 — held one of two ways:
///
/// * **built** — node-homed arena runs the set owns, from the
///   ad-hoc builds ([`chunked_run_set`], [`build_run_set`]; P-, B- and
///   D-MPSM). A set built by a context hands its buffers back to that
///   context's machine when it drops (see [`crate::context`]), so the
///   next build on the machine reuses them;
/// * **view** — `T` ranges of a key-sorted version shared through an
///   [`Arc`] ([`cut_run_set`]): the stored order read in place. The
///   version lives interleaved across the nodes, so a view's runs are
///   read remotely, sequentially — still C2.
#[derive(Debug)]
pub struct RunSet {
    runs: Runs,
    total: usize,
}

#[derive(Debug)]
enum Runs {
    Built { runs: Vec<NumaBuf<Tuple>>, spares: Option<Arc<SpareRuns>> },
    View { tuples: Arc<Vec<Tuple>>, ranges: Vec<Range<usize>> },
}

impl RunSet {
    /// Wrap already-sorted runs; their buffers are freed on drop.
    pub fn new(runs: Vec<NumaBuf<Tuple>>) -> Self {
        let total = runs.iter().map(|r| r.len()).sum();
        RunSet { runs: Runs::Built { runs, spares: None }, total }
    }

    /// Wrap runs `cx` built, to go back to its machine's spares on
    /// drop.
    pub(crate) fn built_in(cx: &ExecContext, runs: Vec<NumaBuf<Tuple>>) -> Self {
        let total = runs.iter().map(|r| r.len()).sum();
        RunSet { runs: Runs::Built { runs, spares: cx.spares().cloned() }, total }
    }

    /// Run `i`, key-sorted, and where its tuples live: a built run's
    /// home node, or the interleaved stored version a view reads.
    pub(crate) fn run_at(&self, i: usize) -> (&[Tuple], Home) {
        match &self.runs {
            Runs::Built { runs, .. } => (&runs[i], Home::Node(runs[i].home())),
            Runs::View { tuples, ranges } => (&tuples[ranges[i].clone()], Home::Interleaved),
        }
    }

    /// Run `i`, key-sorted.
    pub(crate) fn run(&self, i: usize) -> &[Tuple] {
        self.run_at(i).0
    }

    /// The runs, each key-sorted: in partition order (ascending disjoint
    /// key ranges) for a set from [`build_run_set`] or [`cut_run_set`],
    /// in chunk order (overlapping key ranges) for one from
    /// [`chunked_run_set`].
    pub fn runs(&self) -> impl ExactSizeIterator<Item = &[Tuple]> + '_ {
        (0..self.parts()).map(|i| self.run(i))
    }

    /// The node-homed buffers of a built set.
    ///
    /// # Panics
    /// Panics on a view, which owns no buffers.
    pub(crate) fn buffers(&self) -> &[NumaBuf<Tuple>] {
        match &self.runs {
            Runs::Built { runs, .. } => runs,
            Runs::View { .. } => panic!("a view of a stored version owns no run buffers"),
        }
    }

    /// Number of runs (the worker count the set was built with).
    pub fn parts(&self) -> usize {
        match &self.runs {
            Runs::Built { runs, .. } => runs.len(),
            Runs::View { ranges, .. } => ranges.len(),
        }
    }

    /// Total tuples across all runs.
    pub fn total_tuples(&self) -> usize {
        self.total
    }

    /// Payload bytes the runs address.
    pub fn bytes(&self) -> usize {
        self.total * std::mem::size_of::<Tuple>()
    }

    /// Whether the non-empty runs cover ascending, disjoint key ranges
    /// — one comparison per run boundary.
    pub(crate) fn is_range_partitioned(&self) -> bool {
        let mut below: Option<u64> = None;
        self.runs().filter_map(|run| Some((run.first()?.key, run.last()?.key))).all(|(lo, hi)| {
            let ascends = below.is_none_or(|prev| prev < lo);
            below = Some(hi);
            ascends
        })
    }
}

impl Drop for RunSet {
    fn drop(&mut self) {
        if let Runs::Built { runs, spares: Some(spares) } = &mut self.runs {
            spares.put(std::mem::take(runs));
        }
    }
}

/// A [`RunSet`] shared between any number of concurrent readers.
pub type SharedRunSet = Arc<RunSet>;

/// Chunk `tuples` into `T` contiguous pieces and sort each into a run
/// homed on its worker's node ([`ExecContext::sorted_run`]: the sort's
/// top radix scatter reads the interleaved chunk and writes node-homed
/// storage, the rest of the sort stays there — the paper's
/// "redistribute, then work locally"). MPSM's phase 1, and B-MPSM's
/// phase 2; time and access counters book under `phase`.
pub fn chunked_run_set(
    cx: &ExecContext,
    tuples: &[Tuple],
    phase: Phase,
    stats: &mut JoinStats,
) -> RunSet {
    let ranges = chunk_ranges(tuples.len(), cx.threads());
    let runs =
        cx.run_phase(phase, stats, |w, scope| cx.sorted_run(w, &tuples[ranges[w].clone()], scope));
    RunSet::built_in(cx, runs)
}

/// Cut `sorted`, which must be key-sorted, into `parts`
/// range-partitioned runs read in place: `parts` equal-count cuts, each
/// moved forward past the end of the duplicate-key group it falls in (a
/// binary search), so the runs cover ascending, disjoint key ranges.
/// The set shares `sorted` and copies, allocates and books nothing:
/// the cut is all the partitioning a sorted relation needs, and the
/// merge books its reads of the view as interleaved.
pub fn cut_run_set(sorted: Arc<Vec<Tuple>>, parts: usize) -> RunSet {
    debug_assert!(crate::tuple::is_key_sorted(&sorted), "only a key-sorted slice can be cut");
    let parts = parts.max(1);
    let cuts: Vec<usize> = (0..=parts)
        .map(|i| match i * sorted.len() / parts {
            0 => 0,
            at => sorted.partition_point(|tuple| tuple.key <= sorted[at - 1].key),
        })
        .collect();
    let ranges = cuts.windows(2).map(|w| w[0]..w[1]).collect();
    RunSet { total: sorted.len(), runs: Runs::View { tuples: sorted, ranges } }
}

/// Key-sort `tuples` in place on `cx`'s pool: the equi-height
/// range-partitioned build of [`build_run_set`], its runs laid end to
/// end back over `tuples`. The build runs in a context of its own
/// whose buffers bypass the machine's spare list and are freed on
/// return, so a one-off sort neither takes the spares a query's build
/// would reuse nor leaves buffers behind. How the executor's catalog
/// stores each registered relation version sorted.
pub fn sort_in_place(cx: &ExecContext, tuples: &mut [Tuple], radix_bits: u32) {
    let own = cx.without_spares();
    let mut stats = JoinStats::new(own.threads());
    let set = build_run_set(&own, tuples, radix_bits, Phase::Two, Phase::Three, &mut stats);
    let mut at = 0;
    for run in set.runs() {
        tuples[at..at + run.len()].copy_from_slice(run);
        at += run.len();
    }
}

/// The global CDF of a set's key distribution (§4.1, P-MPSM phase 2.1):
/// `fan` equi-height bounds read from every sorted run (almost free —
/// the runs are sorted) and merged. Sub-linear, so it books time under
/// [`Phase::Two`] but nothing in the access audit.
pub fn run_set_cdf(cx: &ExecContext, set: &RunSet, fan: usize, stats: &mut JoinStats) -> Cdf {
    let t = cx.threads();
    let locals = cx.run_phase(Phase::Two, stats, |w, _| {
        let runs = set.runs().skip(w).step_by(t);
        runs.map(|run| (equi_height_bounds(run, fan), run.len())).collect::<Vec<_>>()
    });
    Cdf::from_local_bounds(&locals.concat())
}

/// Build a relation's range-partitioned [`RunSet`] with equi-height
/// splitters from its own histogram: [`build_run_set_with`] with no
/// public CDF. The partitioning is a pure function of (relation, `T`,
/// `B`).
pub fn build_run_set(
    cx: &ExecContext,
    tuples: &[Tuple],
    radix_bits: u32,
    partition_phase: Phase,
    sort_phase: Phase,
    stats: &mut JoinStats,
) -> RunSet {
    build_run_set_with(cx, tuples, radix_bits, None, partition_phase, sort_phase, stats)
}

/// Build a relation's range-partitioned [`RunSet`]: key-domain scan →
/// radix histogram → splitters → NUMA-placed, bucket-major scatter
/// (which reuses the histogram) → per-bucket local sort
/// ([`ExecContext::sort_partition`]; P-MPSM phases 2.2–3). The sort is
/// skipped when every fine bucket holds one key value. `public_cdf`
/// picks the splitters: `None` cuts equi-height by the relation's own
/// histogram, `Some` balances the §4.3 cost against the public side's
/// distribution.
///
/// Phase attribution: the scan, histogram and scatter sections book
/// each worker's time and access counters under `partition_phase`, the
/// sort under `sort_phase` (a public side books both under
/// `Phase::One`, a private side under `Phase::Two`/`Phase::Three`,
/// mirroring P-MPSM's numbering).
pub fn build_run_set_with(
    cx: &ExecContext,
    tuples: &[Tuple],
    radix_bits: u32,
    public_cdf: Option<&Cdf>,
    partition_phase: Phase,
    sort_phase: Phase,
    stats: &mut JoinStats,
) -> RunSet {
    let t = cx.threads();
    let ranges = chunk_ranges(tuples.len(), t);
    let chunks: Vec<&[Tuple]> = ranges.iter().map(|rng| &tuples[rng.clone()]).collect();

    // Key domain: parallel min/max scan.
    let key_ranges = cx.run_phase(partition_phase, stats, |w, scope| {
        scope.touch_interleaved(true, chunks[w].len() as u64);
        key_range(chunks[w])
    });
    let (min, max) = key_ranges
        .into_iter()
        .flatten()
        .fold((u64::MAX, 0u64), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
    let domain = if min <= max {
        RadixDomain::from_range(min, max, radix_bits)
    } else {
        RadixDomain::from_range(0, 0, radix_bits)
    };

    let histograms = local_histograms(cx, &chunks, &domain, partition_phase, stats);
    let histogram = combine_histograms(&histograms);
    let splitters = match public_cdf {
        Some(cdf) => compute_splitters(&histogram, &domain, cdf, t),
        None => equi_height_splitters(&histogram, t),
    };

    let partitions = range_partition_histogrammed(
        cx,
        &chunks,
        &domain,
        &splitters,
        &histograms,
        partition_phase,
        stats,
    );

    // The scatter wrote every partition's top radix level. When each
    // fine bucket holds a single key value (domain shift 0, or one key
    // overall) the partitions are already sorted.
    if min >= max || domain.shift().shift == 0 {
        return RunSet::built_in(cx, partitions);
    }
    // Local sort of each partition on its home node, one fine bucket
    // at a time.
    let slots = OwnedSlots::new(partitions);
    let runs = cx.run_phase(sort_phase, stats, |w, scope| {
        let mut part = slots.take(w);
        let buckets = splitters.bucket_range(w);
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(histogram[buckets.clone()].iter().scan(0, |end, &n| {
                *end += n;
                Some(*end)
            }))
            .collect();
        cx.sort_partition(w, &mut part, &bounds, buckets.start, &domain, scope);
        part
    });
    RunSet::built_in(cx, runs)
}

/// Phase 4 over two plain run sets, run to completion: [`merge_sides`]
/// with no delta under a token that never expires. A set built at a
/// different width than the current context still joins correctly
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
    use crate::histogram::compute_histogram;
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

    /// Build one side's runs equi-height (public side under phase 1,
    /// private under phases 2/3).
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
    fn cuts_never_split_a_duplicate_key_group() {
        let mut heavy = random(3000, 40, 17);
        heavy.sort_unstable_by_key(|t| t.key);
        let one_key: Vec<Tuple> = (0..500).map(|i| Tuple::new(7, i)).collect();
        for threads in [1, 2, 3, 5, 8] {
            for sorted in [&heavy, &one_key, &Vec::new()] {
                let shared = Arc::new(sorted.clone());
                let set = cut_run_set(Arc::clone(&shared), threads);
                assert_eq!(set.parts(), threads);
                assert!(set.is_range_partitioned(), "T = {threads}");
                let laid: Vec<Tuple> = set.runs().flat_map(|run| run.to_vec()).collect();
                assert_eq!(&laid, sorted, "the runs laid end to end are the input");
                // Every run addresses the shared tuples themselves.
                let stored = shared.as_ptr_range();
                for run in set.runs().filter(|run| !run.is_empty()) {
                    let run = run.as_ptr_range();
                    assert!(stored.start <= run.start && run.end <= stored.end, "T = {threads}");
                }
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

    /// The §4 adversary, shaped like
    /// `mpsm_workload::skewed_negative_correlation`: 80 % of R in the top
    /// fifth of the key domain, 80 % of S in the bottom fifth.
    fn skewed_negative_correlation(r_len: usize, multiplicity: usize) -> (Vec<Tuple>, Vec<Tuple>) {
        const DOMAIN: u64 = 1 << 20;
        let fifth = DOMAIN / 5;
        let mut next = lcg(47);
        let mut draw = |hot: std::ops::Range<u64>, cold: std::ops::Range<u64>| {
            let band = if next() % 10 < 8 { hot } else { cold };
            band.start + next() % (band.end - band.start)
        };
        let r = (0..r_len)
            .map(|i| Tuple::new(draw(DOMAIN - fifth..DOMAIN, 0..DOMAIN - fifth), i as u64))
            .collect();
        let s = (0..r_len * multiplicity)
            .map(|i| Tuple::new(draw(0..fifth, fifth..DOMAIN), i as u64))
            .collect();
        (r, s)
    }

    #[test]
    fn chunked_sets_are_sorted_complete_and_overlapping() {
        let tuples = random(3000, 700, 13);
        let cx = ExecContext::flat(4);
        let mut stats = JoinStats::new(4);
        let set = chunked_run_set(&cx, &tuples, Phase::One, &mut stats);
        assert_eq!(set.parts(), 4);
        assert_eq!(set.total_tuples(), tuples.len());
        assert!(set.runs().all(is_key_sorted));
        assert!(!set.is_range_partitioned(), "chunks of random keys overlap");
        assert!(stats.phase_ms(Phase::One) > 0.0, "the sort books under the given phase");
    }

    #[test]
    fn cost_balanced_runs_follow_the_splitters_the_cdf_implies() {
        let (r, s) = skewed_negative_correlation(8000, 4);
        let t = 4;
        let cx = ExecContext::flat(t);
        let mut stats = JoinStats::new(t);
        let public = chunked_run_set(&cx, &s, Phase::One, &mut stats);
        let cdf = run_set_cdf(&cx, &public, 4 * t, &mut stats);
        let balanced =
            build_run_set_with(&cx, &r, 10, Some(&cdf), Phase::Two, Phase::Three, &mut stats);
        let equi = build_run_set(&cx, &r, 10, Phase::Two, Phase::Three, &mut stats);

        // The partition counts `compute_splitters` implies for R.
        let (lo, hi) = key_range(&r).expect("non-empty");
        let domain = RadixDomain::from_range(lo, hi, 10);
        let histogram = compute_histogram(&r, &domain);
        let splitters = compute_splitters(&histogram, &domain, &cdf, t);
        let implied = crate::histogram::fold_histogram(&histogram, splitters.assignment(), t);
        let sizes = |set: &RunSet| set.runs().map(|run| run.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&balanced), implied);
        assert_ne!(sizes(&balanced), sizes(&equi), "S's skew must move the cut");
        assert!(balanced.is_range_partitioned() && equi.is_range_partitioned());
        // A range-partitioned private side joins a chunked public one.
        let head = build_run_set(&cx, &r[..200], 10, Phase::Two, Phase::Three, &mut stats);
        let expected = nested_loop_count(&r[..200], &s);
        assert_eq!(merge::<CountSink>(&cx, &head, &public, &mut stats), expected);
    }

    /// Every run of `set` must be what `three_phase_sort` makes of the
    /// same partition: the tuples whose fine bucket of `tuples`' own
    /// `bits`-bit domain the splitters from `cdf` (or, without one, the
    /// equi-height ones) assign to it.
    fn assert_runs_match_the_reference_sort(
        set: &RunSet,
        tuples: &[Tuple],
        bits: u32,
        cdf: Option<&Cdf>,
    ) {
        let t = set.parts();
        let (lo, hi) = key_range(tuples).expect("non-empty");
        let domain = RadixDomain::from_range(lo, hi, bits);
        let histogram = compute_histogram(tuples, &domain);
        let splitters = match cdf {
            Some(cdf) => compute_splitters(&histogram, &domain, cdf, t),
            None => equi_height_splitters(&histogram, t),
        };
        let pairs = |run: &[Tuple]| {
            let mut pairs: Vec<(u64, u64)> = run.iter().map(|t| (t.key, t.payload)).collect();
            pairs.sort_unstable();
            pairs
        };
        for (p, run) in set.runs().enumerate() {
            let mut reference: Vec<Tuple> = tuples
                .iter()
                .filter(|tu| splitters.partition_of_bucket(domain.bucket_of(tu.key)) == p)
                .copied()
                .collect();
            crate::sort::three_phase_sort(&mut reference);
            let keys = |run: &[Tuple]| run.iter().map(|t| t.key).collect::<Vec<_>>();
            assert_eq!(keys(run), keys(&reference), "T = {t}: run {p} key order");
            assert_eq!(pairs(run), pairs(&reference), "T = {t}: run {p} tuples");
        }
    }

    #[test]
    fn runs_match_the_reference_sort_on_edge_domains() {
        let mut next = lcg(59);
        let n = 20_000;
        let below_fine_width: Vec<Tuple> =
            (0..n).map(|i| Tuple::new(1_000 + next() % 700, i as u64)).collect();
        let single_key: Vec<Tuple> = (0..n).map(|i| Tuple::new(42, i as u64)).collect();
        let near_max: Vec<Tuple> =
            (0..n).map(|i| Tuple::new(u64::MAX - next() % 5_000, i as u64)).collect();
        // Half the tuples on three keys of one fine bucket, the rest
        // uniform over 2^32.
        let one_heavy_bucket: Vec<Tuple> = (0..n)
            .map(|i| {
                let key = if i % 2 == 0 { 0x1234_5678 + (i as u64 % 3) } else { next() };
                Tuple::new(key, i as u64)
            })
            .collect();
        // About 98 tuples per fine bucket: every bucket scatters once
        // more before its networks. At 4 radix bits the same tuples
        // leave fine buckets of about 6 250, which split on the
        // descent's widest (11-bit) digit.
        let wide = random(100_000, 1 << 32, 61);
        let (skewed_r, skewed_s) = skewed_negative_correlation(n, 2);
        for threads in [1, 2, 3, 5] {
            let cx = ExecContext::flat(threads);
            let mut stats = JoinStats::new(threads);
            for tuples in [&below_fine_width, &single_key, &near_max, &one_heavy_bucket, &wide] {
                let set = build_run_set(&cx, tuples, 10, Phase::Two, Phase::Three, &mut stats);
                assert_runs_match_the_reference_sort(&set, tuples, 10, None);
            }
            let set = build_run_set(&cx, &wide, 4, Phase::Two, Phase::Three, &mut stats);
            assert_runs_match_the_reference_sort(&set, &wide, 4, None);
            let public = chunked_run_set(&cx, &skewed_s, Phase::One, &mut stats);
            let cdf = run_set_cdf(&cx, &public, 4 * threads, &mut stats);
            let set = build_run_set_with(
                &cx,
                &skewed_r,
                10,
                Some(&cdf),
                Phase::Two,
                Phase::Three,
                &mut stats,
            );
            assert_runs_match_the_reference_sort(&set, &skewed_r, 10, Some(&cdf));
        }
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
