//! B-MPSM: the basic massively parallel sort-merge join (§2.1, Figure 3).
//!
//! Three phases, `T` workers:
//!
//! 1. chunk the public input `S`; every worker sorts its chunk into a
//!    run `S_i` (local memory only — commandment C1);
//! 2. chunk the private input `R`; every worker sorts its chunk into a
//!    run `R_i`;
//! 3. every worker merge-joins its own `R_i` against **all** public runs
//!    `S_1 … S_T` (sequential scans only — commandment C2).
//!
//! There is a single synchronization point — public runs must exist
//! before the join phase — and no shared mutable state (commandment C3).
//! Because no range partitioning happens, B-MPSM is "absolutely
//! insensitive to any kind of skew": every worker touches exactly
//! `|R|/T + |S|` tuples in phase 3 no matter how the keys are
//! distributed. The price is that the join phase does not shrink as `T`
//! grows — the motivation for P-MPSM (§2.2).

use crate::context::ExecContext;
use crate::join::runs::chunked_run_set;
use crate::join::variant::{band_merge_join, join_variant, JoinVariant};
use crate::join::{JoinAlgorithm, JoinConfig};
use crate::sink::JoinSink;
use crate::stats::{JoinStats, Phase};
use crate::tuple::Tuple;

/// The basic MPSM join.
#[derive(Debug, Clone)]
pub struct BMpsmJoin {
    config: JoinConfig,
}

impl BMpsmJoin {
    /// Create a B-MPSM join with the given configuration.
    pub fn new(config: JoinConfig) -> Self {
        BMpsmJoin { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }
}

impl BMpsmJoin {
    /// Run a non-inner variant (left-outer / left-semi / left-anti on
    /// the private side).
    pub fn join_variant_with_sink<S: JoinSink>(
        &self,
        variant: JoinVariant,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        self.execute::<S>(&ExecContext::flat(self.config.threads), Kernel::Variant(variant), r, s)
    }

    /// Band (non-equi) join: all pairs with `|r.key − s.key| ≤ delta`.
    /// B-MPSM's topology — every worker scans all of S — makes band
    /// predicates correct without partition-boundary replication.
    pub fn band_join_with_sink<S: JoinSink>(
        &self,
        delta: u64,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        self.execute::<S>(&ExecContext::flat(self.config.threads), Kernel::Band(delta), r, s)
    }
}

/// Which merge kernel phase 3 runs.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Variant(JoinVariant),
    Band(u64),
}

impl JoinAlgorithm for BMpsmJoin {
    fn name(&self) -> &'static str {
        "B-MPSM"
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
        self.execute::<S>(cx, Kernel::Variant(JoinVariant::Inner), r, s)
    }
}

impl BMpsmJoin {
    fn execute<S: JoinSink>(
        &self,
        cx: &ExecContext,
        kernel: Kernel,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        // The context decides the worker count (see `JoinAlgorithm::join_in`).
        let (r, s, _swapped) = self.config.assign_roles(r, s);
        let wall = std::time::Instant::now();
        let mut stats = JoinStats::new(cx.threads());

        // Phases 1 and 2: sorted public runs, then sorted private runs.
        let public = chunked_run_set(cx, s, Phase::One, &mut stats);
        let private = chunked_run_set(cx, r, Phase::Two, &mut stats);

        // Phase 3: every worker joins its private run with all public
        // runs. The own run is re-scanned per public run (T times),
        // which the complexity analysis of §2.2 accounts as T · |R|/T.
        // The audit records each kernel call's actual scan extents:
        // forward-only cursors, so every remote read here is sequential
        // (commandment C2 — pinned by the accounting proptests).
        let partials = cx.run_phase(Phase::Three, &mut stats, |w, scope| {
            let mut sink = S::default();
            let run = &private.buffers()[w];
            let my_home = run.home();
            match kernel {
                Kernel::Variant(variant) => {
                    join_variant(variant, run, public.buffers(), &mut sink, |s_run, scan| {
                        scope.touch(my_home, true, scan.r_scanned as u64);
                        scope.touch(s_run.home(), true, scan.s_scanned as u64);
                    });
                }
                Kernel::Band(delta) => {
                    for s_run in public.buffers() {
                        band_merge_join(run, s_run, delta, &mut sink);
                        scope.touch(my_home, true, run.len() as u64);
                        scope.touch(s_run.home(), true, s_run.len() as u64);
                    }
                }
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
    use crate::sink::{CollectSink, CountSink};

    fn keyed(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    #[test]
    fn joins_small_relations() {
        let r = keyed(&[1, 5, 9, 5]);
        let s = keyed(&[5, 5, 2, 9]);
        let join = BMpsmJoin::new(JoinConfig::with_threads(2));
        assert_eq!(join.count(&r, &s), nested_loop_count(&r, &s));
    }

    #[test]
    fn matches_oracle_on_random_input_all_thread_counts() {
        let mut state = 11u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 54
        };
        let r: Vec<Tuple> = (0..700).map(|i| Tuple::new(next(), i)).collect();
        let s: Vec<Tuple> = (0..1900).map(|i| Tuple::new(next(), i)).collect();
        let expected = nested_loop_count(&r, &s);
        for threads in [1, 2, 3, 7, 16] {
            let join = BMpsmJoin::new(JoinConfig::with_threads(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let join = BMpsmJoin::new(JoinConfig::with_threads(4));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[1]), &[]), 0);
        assert_eq!(join.count(&[], &keyed(&[1])), 0);
    }

    #[test]
    fn more_threads_than_tuples() {
        let r = keyed(&[3, 4]);
        let s = keyed(&[4, 3, 4]);
        let join = BMpsmJoin::new(JoinConfig::with_threads(16));
        assert_eq!(join.count(&r, &s), 3);
    }

    #[test]
    fn collects_correct_pairs() {
        let r = keyed(&[2, 4]);
        let s = keyed(&[4, 2]);
        let join = BMpsmJoin::new(JoinConfig::with_threads(2));
        let (mut rows, _) = join.join_with_sink::<CollectSink>(&r, &s);
        rows.sort_unstable();
        assert_eq!(rows, vec![(2, 0, 1), (4, 1, 0)]);
    }

    #[test]
    fn stats_report_three_phases() {
        let r = keyed(&(0..3000).map(|i| i % 97).collect::<Vec<_>>());
        let s = keyed(&(0..3000).map(|i| i % 89).collect::<Vec<_>>());
        let join = BMpsmJoin::new(JoinConfig::with_threads(4));
        let (_, stats) = join.join_with_sink::<CountSink>(&r, &s);
        assert_eq!(stats.per_worker.len(), 4);
        assert!(stats.wall_ms() > 0.0);
        assert_eq!(stats.phase_ms(Phase::Four), 0.0, "B-MPSM has no phase 4");
    }

    #[test]
    fn context_join_obeys_c1_and_c2_on_the_paper_machine() {
        use mpsm_numa::{AccessKind, Topology};

        let mut state = 77u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 44
        };
        let r: Vec<Tuple> = (0..2000).map(|i| Tuple::new(next(), i)).collect();
        let s: Vec<Tuple> = (0..2000).map(|i| Tuple::new(next(), i)).collect();
        let cx = ExecContext::new(Topology::paper_machine(), 8);
        let join = BMpsmJoin::new(JoinConfig::with_threads(8));
        let count = join.join_in::<CountSink>(&cx, &r, &s).0;
        assert_eq!(count, nested_loop_count(&r, &s));
        // C1: runs are sorted in local RAM — no remote random accesses
        // in either sort phase.
        for phase in [Phase::One, Phase::Two] {
            let c = cx.phase_counters(phase);
            assert_eq!(c.accesses(AccessKind::RemoteRand), 0, "{phase:?}");
            assert!(c.total_accesses() > 0, "{phase:?} must be audited");
        }
        // C2: the merge phase reads remote runs, but only sequentially.
        let merge = cx.phase_counters(Phase::Three);
        assert!(merge.accesses(AccessKind::RemoteSeq) > 0, "B-MPSM scans remote runs");
        assert_eq!(merge.accesses(AccessKind::RemoteRand), 0, "remote reads sequential-only");
        // Every worker's runs landed on its own node's arena.
        assert!(cx.arena().stats().iter().all(|s| s.bytes > 0), "all four nodes hold runs");
    }

    #[test]
    fn skewed_input_still_correct() {
        // All R keys identical: the worst case for partitioned joins is
        // business as usual for B-MPSM.
        let r = keyed(&vec![42u64; 500]);
        let mut s_keys = vec![42u64; 100];
        s_keys.extend(0..400u64);
        let s = keyed(&s_keys);
        let join = BMpsmJoin::new(JoinConfig::with_threads(8));
        // 42 appears 100 times in the band plus once in 0..400.
        assert_eq!(join.count(&r, &s), 500 * 101);
        assert_eq!(join.count(&r, &s), nested_loop_count(&r, &s));
    }
}
