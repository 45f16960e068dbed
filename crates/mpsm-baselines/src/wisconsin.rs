//! The Wisconsin ("no-partitioning") hash join of Blanas et al. \[1\].
//!
//! The paper's first contender (§2, Figure 2a): build one global hash
//! table over `R` with all workers inserting concurrently, then probe it
//! with all workers scanning chunks of `S`. Its appeal is simplicity —
//! no partitioning pass at all; its cost on a NUMA machine is exactly
//! what the MPSM commandments forbid:
//!
//! * the build latches shared bucket heads (violates C3) and writes
//!   them randomly across NUMA partitions (violates C1);
//! * the probe reads hash buckets randomly across the whole table
//!   (violates C2 — the prefetcher cannot help).
//!
//! This implementation keeps that behaviour faithfully (CAS-latched
//! chains, random probes) so the access-pattern audit (experiment E11)
//! and the contender benchmark (Figure 12) show the same contrast the
//! paper reports.
//!
//! Phase mapping in [`JoinStats`]: phase 1 = build, phase 2 = probe.

use mpsm_core::context::ExecContext;
use mpsm_core::join::{JoinAlgorithm, JoinConfig};
use mpsm_core::sink::JoinSink;
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::worker::{chunk_ranges, OwnedSlots};
use mpsm_core::Tuple;

use crate::hash_table::SharedChainedTable;

/// The Wisconsin hash join baseline.
#[derive(Debug, Clone)]
pub struct WisconsinHashJoin {
    config: JoinConfig,
}

impl WisconsinHashJoin {
    /// Create the join with the given worker configuration.
    pub fn new(config: JoinConfig) -> Self {
        WisconsinHashJoin { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }
}

impl JoinAlgorithm for WisconsinHashJoin {
    fn name(&self) -> &'static str {
        "Wisconsin"
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
        let wall = std::time::Instant::now();
        let mut stats = JoinStats::new(t);

        // ---- Build: all workers insert into one shared table, each
        // through its own window of the entry arena (handed over via
        // take-once slots). ----
        let mut table = SharedChainedTable::new(r.len());
        let r_ranges = chunk_ranges(r.len(), t);
        let sizes: Vec<usize> = r_ranges.iter().map(|rng| rng.len()).collect();
        {
            let windows = OwnedSlots::new(table.carve_windows(&sizes));
            cx.run_phase(Phase::One, &mut stats, |w, _| {
                let mut win = windows.take(w);
                for tup in &r[r_ranges[w].clone()] {
                    win.insert(*tup);
                }
            });
        }

        // ---- Probe: all workers scan S chunks, probing randomly. ----
        let s_ranges = chunk_ranges(s.len(), t);
        let partials = cx.run_phase(Phase::Two, &mut stats, |w, _| {
            let mut sink = S::default();
            for st in &s[s_ranges[w].clone()] {
                table.probe(st.key, |rt| sink.on_match(rt, *st));
            }
            sink.finish()
        });

        stats.wall = wall.elapsed();
        (S::combine_all(partials), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::oracle_count;
    use mpsm_core::sink::CollectSink;

    fn keyed(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
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
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(2));
        assert_eq!(join.count(&r, &s), oracle_count(&r, &s));
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let mut next = lcg(61);
        let r: Vec<Tuple> = (0..1000).map(|i| Tuple::new(next() % 700, i)).collect();
        let s: Vec<Tuple> = (0..3000).map(|i| Tuple::new(next() % 700, i)).collect();
        let expected = oracle_count(&r, &s);
        for threads in [1, 2, 4, 8, 16] {
            let join = WisconsinHashJoin::new(JoinConfig::with_threads(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(4));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[1]), &[]), 0);
        assert_eq!(join.count(&[], &keyed(&[1])), 0);
    }

    #[test]
    fn duplicate_cross_products() {
        let r = keyed(&[4, 4, 4]);
        let s = keyed(&[4, 4]);
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(2));
        assert_eq!(join.count(&r, &s), 6);
    }

    #[test]
    fn collects_pairs_with_private_first() {
        let r = keyed(&[2]); // payload 0
        let s = keyed(&[2, 2]); // payloads 0, 1
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(1));
        let (mut rows, _) = join.join_with_sink::<CollectSink>(&r, &s);
        rows.sort_unstable();
        assert_eq!(rows, vec![(2, 0, 0), (2, 0, 1)]);
    }

    #[test]
    fn stats_cover_build_and_probe() {
        let mut next = lcg(67);
        let r: Vec<Tuple> = (0..4000).map(|i| Tuple::new(next() % 1024, i)).collect();
        let s: Vec<Tuple> = (0..4000).map(|i| Tuple::new(next() % 1024, i)).collect();
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(4));
        let (_, stats) = join.join_with_sink::<mpsm_core::sink::CountSink>(&r, &s);
        assert!(stats.wall_ms() > 0.0);
        assert_eq!(stats.per_worker.len(), 4);
    }

    #[test]
    fn skewed_build_keys_still_correct() {
        // All R keys identical: one bucket chain holds everything.
        let r = keyed(&vec![9u64; 400]);
        let s = keyed(&[9, 9, 1]);
        let join = WisconsinHashJoin::new(JoinConfig::with_threads(8));
        assert_eq!(join.count(&r, &s), 800);
    }
}
