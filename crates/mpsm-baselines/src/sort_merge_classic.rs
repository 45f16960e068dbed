//! Classic sort-merge join with a global merge — the strawman MPSM
//! avoids.
//!
//! "Unlike traditional sort-merge joins we refrain from merging the
//! sorted runs to obtain a global sort order [...] as doing so would
//! heavily reduce the parallelization power of modern multi-core
//! machines" (§2.1). This baseline is that traditional algorithm:
//!
//! 1. chunk-sort both inputs in parallel (same run generation as MPSM);
//! 2. **merge all runs of each input into one globally sorted array** —
//!    a k-way heap merge that is inherently sequential (the bottleneck
//!    the quote is about);
//! 3. a single merge join over the two sorted arrays.
//!
//! Comparing its phase breakdown against B-MPSM quantifies exactly what
//! skipping the merge buys (the `complexity_model` experiment). A
//! steel-manned variant with a rank-partitioned *parallel* merge
//! ([`crate::parallel_merge`]) is available via
//! [`ClassicSortMergeJoin::with_parallel_merge`].
//!
//! Phase mapping in [`JoinStats`]: phase 1 = sort runs, phase 2 = global
//! merges, phase 3 = merge join.

use std::time::{Duration, Instant};

use mpsm_core::context::ExecContext;
use mpsm_core::join::{JoinAlgorithm, JoinConfig};
use mpsm_core::merge::merge_join;
use mpsm_core::sink::JoinSink;
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::worker::chunk_ranges;
use mpsm_core::Tuple;

/// The classic (global-merge) sort-merge join.
#[derive(Debug, Clone)]
pub struct ClassicSortMergeJoin {
    config: JoinConfig,
    parallel_merge: bool,
}

impl ClassicSortMergeJoin {
    /// Create the join with the given worker configuration (sequential
    /// merge, as in the traditional algorithm).
    pub fn new(config: JoinConfig) -> Self {
        ClassicSortMergeJoin { config, parallel_merge: false }
    }

    /// Enable the rank-partitioned parallel merge (the strong strawman;
    /// see [`crate::parallel_merge`]).
    pub fn with_parallel_merge(mut self, enabled: bool) -> Self {
        self.parallel_merge = enabled;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }
}

impl JoinAlgorithm for ClassicSortMergeJoin {
    fn name(&self) -> &'static str {
        "Classic SMJ"
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
        let t = cx.threads();
        let (r, s, _swapped) = self.config.assign_roles(r, s);
        let wall = Instant::now();
        let mut stats = JoinStats::new(t);

        // Phase 1: parallel run generation for both inputs, through the
        // run-generation prologue MPSM uses (and books) too.
        let sorted_chunks = |input: &[Tuple], stats: &mut JoinStats| {
            let ranges = chunk_ranges(input.len(), t);
            cx.run_phase(Phase::One, stats, |w, scope| {
                cx.sorted_run(w, &input[ranges[w].clone()], scope).into_inner()
            })
        };
        let r_runs = sorted_chunks(r, &mut stats);
        let s_runs = sorted_chunks(s, &mut stats);

        // Phase 2: the global merges — the bottleneck. Sequential by
        // default (the traditional algorithm); rank-partitioned parallel
        // when steel-manning.
        let (r_sorted, s_sorted) = if self.parallel_merge && t > 1 {
            (
                crate::parallel_merge::parallel_kway_merge(cx, &mut stats, r_runs),
                crate::parallel_merge::parallel_kway_merge(cx, &mut stats, s_runs),
            )
        } else {
            let merge_start = Instant::now();
            let sorted = (
                crate::parallel_merge::sequential_kway_merge(r_runs),
                crate::parallel_merge::sequential_kway_merge(s_runs),
            );
            // Only worker 0 is busy; attributing it there makes the
            // imbalance visible in the stats.
            let mut merge_durations = vec![Duration::ZERO; t];
            merge_durations[0] = merge_start.elapsed();
            stats.record_phase(Phase::Two, &merge_durations);
            sorted
        };

        // Phase 3: one sequential merge join over the sorted arrays.
        let join_start = Instant::now();
        let mut sink = S::default();
        merge_join(&r_sorted, &s_sorted, &mut sink);
        let mut join_durations = vec![Duration::ZERO; t];
        join_durations[0] = join_start.elapsed();
        stats.record_phase(Phase::Three, &join_durations);

        stats.wall = wall.elapsed();
        (sink.finish(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::oracle_count;

    fn keyed(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
    }

    #[test]
    fn parallel_merge_variant_matches_oracle() {
        let mut state = 23u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 53
        };
        let r: Vec<Tuple> = (0..700).map(|i| Tuple::new(next(), i)).collect();
        let s: Vec<Tuple> = (0..1400).map(|i| Tuple::new(next(), i)).collect();
        let expected = oracle_count(&r, &s);
        let join = ClassicSortMergeJoin::new(JoinConfig::with_threads(4)).with_parallel_merge(true);
        assert_eq!(join.count(&r, &s), expected);
    }

    #[test]
    fn matches_oracle() {
        let mut state = 17u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 53
        };
        let r: Vec<Tuple> = (0..800).map(|i| Tuple::new(next(), i)).collect();
        let s: Vec<Tuple> = (0..1600).map(|i| Tuple::new(next(), i)).collect();
        let expected = oracle_count(&r, &s);
        for threads in [1, 4, 8] {
            let join = ClassicSortMergeJoin::new(JoinConfig::with_threads(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let join = ClassicSortMergeJoin::new(JoinConfig::with_threads(4));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[1]), &[]), 0);
    }

    #[test]
    fn merge_phase_is_attributed_to_one_worker() {
        let r = keyed(&(0..5000u64).rev().collect::<Vec<_>>());
        let s = keyed(&(0..5000u64).collect::<Vec<_>>());
        let join = ClassicSortMergeJoin::new(JoinConfig::with_threads(4));
        let (_, stats) = join.join_with_sink::<mpsm_core::sink::CountSink>(&r, &s);
        // Worker 0 carries phases 2 and 3 alone: imbalance > 1.
        assert!(stats.imbalance() > 1.0, "sequential merge must show as imbalance");
    }
}
