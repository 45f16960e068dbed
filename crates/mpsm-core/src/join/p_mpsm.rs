//! P-MPSM: the range-partitioned MPSM join (§3.2, Figures 5/6/10).
//!
//! Extends B-MPSM with a prologue that range-partitions the private
//! input so every worker joins only `1/T`-th of the key domain:
//!
//! 1. **Phase 1** — chunk and locally sort the public input `S` into
//!    runs `S_1 … S_T`;
//! 2. **Phase 2** — range-partition the private input `R`:
//!    * *2.1* every worker derives `f·T` equi-height bounds from its
//!      sorted `S_i` (almost free — the run is sorted) and the bounds
//!      merge into a global CDF of the S key distribution (§4.1);
//!    * *2.2* every worker radix-histograms its `R` chunk with `2^B`
//!      buckets (§4.2);
//!    * *2.3* global splitters balance
//!      `|R_i|·log|R_i| + T·|R_i| + CDF-share of S` per worker (§4.3),
//!      then every worker scatters its chunk through prefix-summed,
//!      disjoint windows — branch-free, comparison-free,
//!      synchronization-free (Figure 6);
//! 3. **Phase 3** — every worker sorts its private partition `R_i`;
//! 4. **Phase 4** — every worker merge-joins `R_i` with all `S_j`,
//!    entering each `S_j` at an interpolation-searched start point
//!    (Figure 7) and leaving when `R_i` is exhausted — so it scans only
//!    `≈ |S|/T²` of each public run.
//!
//! Skew in `R`, `S`, or both (even negatively correlated, Figure 16) is
//! absorbed by the CDF + splitter machinery; location skew needs no
//! handling at all because `R` is redistributed anyway (§5.5).

use crate::cdf::{equi_height_bounds, Cdf};
use crate::context::ExecContext;
use crate::histogram::{combine_histograms, compute_histogram, RadixDomain};
use crate::interpolation::interpolation_lower_bound;
use crate::join::variant::{emit_variant_rows, merge_join_mark, JoinVariant};
use crate::join::{JoinAlgorithm, JoinConfig};
use crate::merge::merge_join_scanned;
use crate::partition::range_partition_ctx;
use crate::sink::JoinSink;
use crate::splitter::{compute_splitters, equi_height_splitters, Splitters};
use crate::stats::{JoinStats, Phase};
use crate::tuple::{key_range, Tuple};
use crate::worker::chunk_ranges;

/// How phase 4 locates the start of the relevant range in each public
/// run (the §3.2.2 design decision; `ablation_entry_points` measures
/// the alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntrySearch {
    /// Interpolation search (the paper's choice, Figure 7).
    #[default]
    Interpolation,
    /// Plain binary search.
    Binary,
    /// No search: scan each public run from the beginning ("sequentially
    /// searching ... would incur numerous expensive comparisons").
    FullScan,
}

/// Splitter policy for phase 2.3 (the Figure 16 experiment contrasts
/// the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitterPolicy {
    /// Cost-balanced splitters from CDF + R histogram (the paper's
    /// algorithm; default).
    #[default]
    CostBalanced,
    /// Equal `|R_i|` cardinality, ignoring S — the strawman whose
    /// imbalance Figure 16b demonstrates.
    EquiHeight,
}

/// The range-partitioned MPSM join.
#[derive(Debug, Clone)]
pub struct PMpsmJoin {
    config: JoinConfig,
    policy: SplitterPolicy,
    entry: EntrySearch,
}

impl PMpsmJoin {
    /// Create a P-MPSM join with the given configuration and the
    /// paper's cost-balanced splitters.
    pub fn new(config: JoinConfig) -> Self {
        PMpsmJoin {
            config,
            policy: SplitterPolicy::CostBalanced,
            entry: EntrySearch::Interpolation,
        }
    }

    /// Override the splitter policy (for the Figure 16 experiment).
    pub fn with_splitter_policy(mut self, policy: SplitterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the phase-4 entry-point search (for the ablation).
    pub fn with_entry_search(mut self, entry: EntrySearch) -> Self {
        self.entry = entry;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }
}

impl PMpsmJoin {
    /// Run a non-inner variant (left-outer / left-semi / left-anti on
    /// the private side) — the paper's §7 extension. `Inner` delegates
    /// to the plain path.
    pub fn join_variant_with_sink<S: JoinSink>(
        &self,
        variant: JoinVariant,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        self.execute::<S>(&ExecContext::flat(self.config.threads), variant, r, s)
    }
}

impl JoinAlgorithm for PMpsmJoin {
    fn name(&self) -> &'static str {
        "P-MPSM"
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn join_in<S: JoinSink>(
        &self,
        cx: &ExecContext,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        self.execute::<S>(cx, JoinVariant::Inner, r, s)
    }
}

impl PMpsmJoin {
    fn execute<S: JoinSink>(
        &self,
        cx: &ExecContext,
        variant: JoinVariant,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        // The context decides the worker count: a self-pooled join gets
        // `config.threads` workers, a scheduled join shares whatever
        // width the scheduler provisioned.
        let t = cx.threads();
        let pool = cx.pool();
        let (r, s, _swapped) = self.config.assign_roles(r, s);
        let wall = std::time::Instant::now();
        let mut stats = JoinStats::new(t);

        // ---- Phase 1: sort public chunks into node-homed runs
        // S_1 … S_T. ----
        let s_ranges = chunk_ranges(s.len(), t);
        let (phase1, d1) = pool.run_timed(|w| {
            let mut scope = cx.scope(w);
            let run = cx.sorted_run(w, &s[s_ranges[w].clone()], &mut scope);
            (run, scope.finish())
        });
        let (s_runs, c1): (Vec<_>, Vec<_>) = phase1.into_iter().unzip();
        stats.record_phase(Phase::One, &d1);
        cx.record(Phase::One, c1);

        // ---- Phase 2.1: global S distribution (CDF). Sub-linear
        // (f·T bounds per worker, read from the already-sorted local
        // run) — not counted in the access audit. ----
        let fan = (self.config.cdf_fan * t).max(1);
        let (locals, d21) =
            pool.run_timed(|w| (equi_height_bounds(&s_runs[w], fan), s_runs[w].len()));
        stats.record_phase(Phase::Two, &d21);
        let cdf = Cdf::from_local_bounds(&locals);

        // ---- Phase 2.2: fine-grained R histograms. ----
        let r_ranges = chunk_ranges(r.len(), t);
        let r_chunks: Vec<&[Tuple]> = r_ranges.iter().map(|rng| &r[rng.clone()]).collect();
        // Key domain of R: cheap parallel min/max scan (the "bitwise
        // shift preprocessing" of §3.2.1 needs the bounds).
        let (scan_out, d_scan) = pool.run_timed(|w| {
            let mut scope = cx.scope(w);
            scope.touch_interleaved(true, r_chunks[w].len() as u64);
            (key_range(r_chunks[w]), scope.finish())
        });
        let (ranges, c_scan): (Vec<_>, Vec<_>) = scan_out.into_iter().unzip();
        stats.record_phase(Phase::Two, &d_scan);
        cx.record(Phase::Two, c_scan);
        let (min, max) = ranges
            .into_iter()
            .flatten()
            .fold((u64::MAX, 0u64), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
        let domain = if min <= max {
            RadixDomain::from_range(min, max, self.config.radix_bits)
        } else {
            RadixDomain::from_range(0, 0, self.config.radix_bits)
        };
        let (hist_out, d22) = pool.run_timed(|w| {
            let mut scope = cx.scope(w);
            scope.touch_interleaved(true, r_chunks[w].len() as u64);
            (compute_histogram(r_chunks[w], &domain), scope.finish())
        });
        let (histograms, c22): (Vec<_>, Vec<_>) = hist_out.into_iter().unzip();
        stats.record_phase(Phase::Two, &d22);
        cx.record(Phase::Two, c22);
        let global_hist = combine_histograms(&histograms);

        // ---- Phase 2.3: splitters + synchronization-free scatter into
        // partitions homed on their owning workers' nodes (the audited,
        // placement-aware path). ----
        let splitters: Splitters = match self.policy {
            SplitterPolicy::CostBalanced => compute_splitters(&global_hist, &domain, &cdf, t),
            SplitterPolicy::EquiHeight => equi_height_splitters(&global_hist, t),
        };
        let scatter_start = std::time::Instant::now();
        let partitions = range_partition_ctx(cx, &r_chunks, &domain, &splitters);
        let scatter = scatter_start.elapsed();
        // The scatter is a parallel section; attribute its wall time to
        // every worker's phase 2 (all workers participate end-to-end).
        stats.record_phase(Phase::Two, &vec![scatter; t]);

        // ---- Phase 3: sort private partitions R_i. Each worker takes
        // ownership of its partition — homed on its own node by the
        // scatter above — and sorts it in place (commandment C1: the
        // random accesses of the sort all hit local RAM). The take-once
        // slots hand each partition to its pool worker.
        let slots = crate::worker::OwnedSlots::new(partitions);
        let (phase3, d3) = pool.run_timed(|w| {
            let mut scope = cx.scope(w);
            let mut part = slots.take(w);
            let home = part.home();
            cx.sort_run(w, &mut part, home, &mut scope);
            (part, scope.finish())
        });
        let (r_runs, c3): (Vec<_>, Vec<_>) = phase3.into_iter().unzip();
        stats.record_phase(Phase::Three, &d3);
        cx.record(Phase::Three, c3);

        // ---- Phase 4: merge join R_i with every S_j, starting at an
        // interpolated offset. Non-inner variants track a worker-local
        // matched bitmap across the public runs. The audit records the
        // entry probes as random accesses against the public run's home
        // (the O(log log) exception C2 tolerates) and the merge itself
        // at its actual scan extents — with T workers each touching
        // ≈ |S|/T² of every public run, the phase stays overwhelmingly
        // node-local, which `tests/numa_context.rs` asserts. ----
        let entry = self.entry;
        let find_start = move |s_run: &[Tuple], key: u64| -> usize {
            match entry {
                EntrySearch::Interpolation => interpolation_lower_bound(s_run, key),
                EntrySearch::Binary => s_run.partition_point(|t| t.key < key),
                EntrySearch::FullScan => 0,
            }
        };
        let probe_cost = move |s_run: &[Tuple]| -> u64 {
            match entry {
                EntrySearch::FullScan => 0,
                _ if s_run.is_empty() => 0,
                _ => (s_run.len() as u64).ilog2() as u64 + 1,
            }
        };
        let (phase4, d4) = pool.run_timed(|w| {
            let mut scope = cx.scope(w);
            let mut sink = S::default();
            let run = &r_runs[w];
            let my_home = run.home();
            if let Some(first) = run.first() {
                if variant == JoinVariant::Inner {
                    for s_run in &s_runs {
                        let start = find_start(s_run, first.key);
                        scope.touch(s_run.home(), false, probe_cost(s_run));
                        let scan = merge_join_scanned(run, &s_run[start..], &mut sink);
                        scope.touch(my_home, true, scan.r_scanned as u64);
                        scope.touch(s_run.home(), true, scan.s_scanned as u64);
                    }
                } else {
                    let mut matched = vec![false; run.len()];
                    for s_run in &s_runs {
                        let start = find_start(s_run, first.key);
                        scope.touch(s_run.home(), false, probe_cost(s_run));
                        let scan = merge_join_mark(
                            run,
                            &s_run[start..],
                            &mut matched,
                            variant.emits_pairs(),
                            &mut sink,
                        );
                        scope.touch(my_home, true, scan.r_scanned as u64);
                        scope.touch(s_run.home(), true, scan.s_scanned as u64);
                    }
                    emit_variant_rows(variant, run, &matched, &mut sink);
                }
            }
            (sink.finish(), scope.finish())
        });
        let (partials, c4): (Vec<_>, Vec<_>) = phase4.into_iter().unzip();
        stats.record_phase(Phase::Four, &d4);
        cx.record(Phase::Four, c4);

        stats.wall = wall.elapsed();
        (S::combine_all(partials), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::Role;
    use crate::sink::{CollectSink, CountSink};

    fn keyed(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        }
    }

    #[test]
    fn joins_small_relations() {
        let r = keyed(&[1, 5, 9, 5]);
        let s = keyed(&[5, 5, 2, 9]);
        let join = PMpsmJoin::new(JoinConfig::with_threads(2));
        assert_eq!(join.count(&r, &s), nested_loop_count(&r, &s));
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let mut next = lcg(5);
        let r: Vec<Tuple> = (0..800).map(|i| Tuple::new(next() % 512, i)).collect();
        let s: Vec<Tuple> = (0..2400).map(|i| Tuple::new(next() % 512, i)).collect();
        let expected = nested_loop_count(&r, &s);
        for threads in [1, 2, 3, 5, 8, 16] {
            let join = PMpsmJoin::new(JoinConfig::with_threads(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn equi_height_policy_is_also_correct() {
        let mut next = lcg(9);
        let r: Vec<Tuple> = (0..500).map(|i| Tuple::new(next() % 256, i)).collect();
        let s: Vec<Tuple> = (0..1500).map(|i| Tuple::new(next() % 256, i)).collect();
        let join = PMpsmJoin::new(JoinConfig::with_threads(4))
            .with_splitter_policy(SplitterPolicy::EquiHeight);
        assert_eq!(join.count(&r, &s), nested_loop_count(&r, &s));
    }

    #[test]
    fn skewed_and_negatively_correlated_inputs() {
        // R mass high, S mass low (Figure 16's adversarial case).
        let mut next = lcg(13);
        let r: Vec<Tuple> = (0..2000)
            .map(|i| {
                let k = if next() % 10 < 8 { 800 + next() % 224 } else { next() % 800 };
                Tuple::new(k, i)
            })
            .collect();
        let s: Vec<Tuple> = (0..4000)
            .map(|i| {
                let k = if next() % 10 < 8 { next() % 205 } else { 205 + next() % 819 };
                Tuple::new(k, i)
            })
            .collect();
        let expected = nested_loop_count(&r, &s);
        for threads in [1, 4, 8] {
            let join = PMpsmJoin::new(JoinConfig::with_threads(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let join = PMpsmJoin::new(JoinConfig::with_threads(4));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[7]), &[]), 0);
        assert_eq!(join.count(&[], &keyed(&[7])), 0);
        assert_eq!(join.count(&keyed(&[7]), &keyed(&[7, 7])), 2);
        // All keys identical: one partition gets everything.
        let r = keyed(&vec![3u64; 300]);
        let s = keyed(&vec![3u64; 70]);
        assert_eq!(join.count(&r, &s), 300 * 70);
    }

    #[test]
    fn more_threads_than_tuples() {
        let r = keyed(&[2, 9]);
        let s = keyed(&[9, 2, 9]);
        let join = PMpsmJoin::new(JoinConfig::with_threads(16));
        assert_eq!(join.count(&r, &s), 3);
    }

    #[test]
    fn collects_correct_pairs_with_payloads() {
        let r = keyed(&[4, 2]); // payloads 0, 1
        let s = keyed(&[2, 4]); // payloads 0, 1
        let join = PMpsmJoin::new(JoinConfig::with_threads(2));
        let (mut rows, _) = join.join_with_sink::<CollectSink>(&r, &s);
        rows.sort_unstable();
        assert_eq!(rows, vec![(2, 1, 0), (4, 0, 1)]);
    }

    #[test]
    fn role_reversal_preserves_symmetric_results() {
        let mut next = lcg(21);
        let r: Vec<Tuple> = (0..300).map(|i| Tuple::new(next() % 128, i)).collect();
        let s: Vec<Tuple> = (0..900).map(|i| Tuple::new(next() % 128, i)).collect();
        let fixed = PMpsmJoin::new(JoinConfig::with_threads(4));
        let auto = PMpsmJoin::new(JoinConfig::with_threads(4).role(Role::SmallerPrivate));
        assert_eq!(
            fixed.count(&r, &s),
            auto.count(&s, &r),
            "role policy must not change cardinality"
        );
        assert_eq!(fixed.max_payload_sum(&r, &s), auto.max_payload_sum(&s, &r));
    }

    #[test]
    fn stats_report_four_phases() {
        let mut next = lcg(33);
        let r: Vec<Tuple> = (0..5000).map(|i| Tuple::new(next() % 4096, i)).collect();
        let s: Vec<Tuple> = (0..5000).map(|i| Tuple::new(next() % 4096, i)).collect();
        let join = PMpsmJoin::new(JoinConfig::with_threads(4));
        let (_, stats) = join.join_with_sink::<CountSink>(&r, &s);
        assert_eq!(stats.per_worker.len(), 4);
        assert!(stats.wall_ms() > 0.0);
    }

    #[test]
    fn entry_search_strategies_agree() {
        let mut next = lcg(77);
        let r: Vec<Tuple> = (0..600).map(|i| Tuple::new(next() % 400, i)).collect();
        let s: Vec<Tuple> = (0..1800).map(|i| Tuple::new(next() % 400, i)).collect();
        let base = PMpsmJoin::new(JoinConfig::with_threads(4)).count(&r, &s);
        for entry in [EntrySearch::Binary, EntrySearch::FullScan] {
            let join = PMpsmJoin::new(JoinConfig::with_threads(4)).with_entry_search(entry);
            assert_eq!(join.count(&r, &s), base, "{entry:?}");
        }
    }

    #[test]
    fn context_join_keeps_sort_local_and_partitions_placed() {
        use mpsm_numa::{AccessKind, Topology};

        let mut next = lcg(101);
        let n = 4000;
        let r: Vec<Tuple> = (0..n).map(|i| Tuple::new(next() % 65536, i)).collect();
        let s: Vec<Tuple> = (0..n).map(|i| Tuple::new(next() % 65536, i)).collect();
        let cx = ExecContext::new(Topology::paper_machine(), 8);
        let join = PMpsmJoin::new(JoinConfig::with_threads(8));
        let count = join.join_in::<CountSink>(&cx, &r, &s).0;
        assert_eq!(count, nested_loop_count(&r, &s));
        // C1 in the real path: the private sort phase runs on
        // partitions the scatter homed on the sorting worker's own node
        // — 100% local.
        let sort = cx.phase_counters(Phase::Three);
        assert!(sort.total_accesses() > 0);
        assert_eq!(sort.remote_fraction(), 0.0, "partition sort is node-local");
        // The scatter wrote remotely, but only sequentially (C1 permits
        // sequential stores into disjoint remote windows).
        let scatter = cx.phase_counters(Phase::Two);
        assert!(scatter.accesses(AccessKind::RemoteSeq) > 0, "cross-node scatter traffic");
        // No remote random accesses anywhere in phase 2 or 3.
        assert_eq!(scatter.accesses(AccessKind::RemoteRand), 0);
        assert_eq!(sort.accesses(AccessKind::RemoteRand), 0);
    }

    #[test]
    fn paper_query_over_known_data() {
        // R: keys 0..10 payload = key; S: key k payload 100k.
        let r: Vec<Tuple> = (0..10u64).map(|k| Tuple::new(k, k)).collect();
        let s: Vec<Tuple> = (0..10u64).map(|k| Tuple::new(k, 100 * k)).collect();
        let join = PMpsmJoin::new(JoinConfig::with_threads(3));
        assert_eq!(join.max_payload_sum(&r, &s), Some(9 + 900));
    }
}
