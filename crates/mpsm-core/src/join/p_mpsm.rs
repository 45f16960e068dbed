//! P-MPSM: the range-partitioned MPSM join (§3.2, Figures 5/6/10).
//!
//! Extends B-MPSM with a prologue that range-partitions the private
//! input so every worker joins only `1/T`-th of the key domain. The
//! join is a composition of the run-set parts in [`crate::join::runs`]
//! and the one merge driver:
//!
//! 1. **Phase 1** — [`chunked_run_set`]: chunk and locally sort the
//!    public input `S` into runs `S_1 … S_T`;
//! 2. **Phase 2** — range-partition the private input `R`:
//!    * *2.1* [`run_set_cdf`]: every worker derives `f·T` equi-height
//!      bounds from its sorted `S_i` (almost free — the run is sorted)
//!      and the bounds merge into a global CDF of the S key
//!      distribution (§4.1);
//!    * *2.2–2.3* [`build_run_set_with`]: every worker radix-histograms
//!      its `R` chunk with `2^B` buckets (§4.2), global splitters
//!      balance `|R_i|·log|R_i| + T·|R_i| + CDF-share of S` per worker
//!      (§4.3), then every worker scatters its chunk through
//!      prefix-summed, disjoint windows — branch-free, comparison-free,
//!      synchronization-free (Figure 6);
//! 3. **Phase 3** — the same build sorts every private partition `R_i`
//!    on its worker's node. The scatter laid `R_i` out by fine
//!    histogram bucket, so this is each bucket sorted in place while it
//!    is cache-resident;
//! 4. **Phase 4** — [`merge_sides`]: every worker merge-joins its `R_i`
//!    with all `S_j`, entering each `S_j` at an interpolation-searched
//!    start point (Figure 7) and leaving when `R_i` is exhausted — so it
//!    scans only `≈ |S|/T²` of each public run.
//!
//! Both run sets then go back to the context
//! (`ExecContext::reclaim`), whose next join sorts and scatters into
//! them instead of faulting in fresh memory.
//!
//! Skew in `R`, `S`, or both (even negatively correlated, Figure 16) is
//! absorbed by the CDF + splitter machinery; location skew needs no
//! handling at all because `R` is redistributed anyway (§5.5).

use crate::context::ExecContext;
use crate::join::anytime::{merge_sides, AnytimeToken};
use crate::join::delta::DeltaSide;
use crate::join::runs::{build_run_set_with, chunked_run_set, run_set_cdf};
use crate::join::{JoinAlgorithm, JoinConfig};
use crate::sink::JoinSink;
use crate::stats::{JoinStats, Phase};
use crate::tuple::Tuple;

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
}

impl PMpsmJoin {
    /// Create a P-MPSM join with the given configuration and the
    /// paper's cost-balanced splitters.
    pub fn new(config: JoinConfig) -> Self {
        PMpsmJoin { config, policy: SplitterPolicy::CostBalanced }
    }

    /// Override the splitter policy (for the Figure 16 experiment).
    pub fn with_splitter_policy(mut self, policy: SplitterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
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
        // The context decides the worker count: a self-pooled join gets
        // `config.threads` workers, a scheduled join shares whatever
        // width the scheduler provisioned.
        let (r, s, _swapped) = self.config.assign_roles(r, s);
        let wall = std::time::Instant::now();
        let mut stats = JoinStats::new(cx.threads());

        // Phase 1: sorted public runs S_1 … S_T.
        let public = chunked_run_set(cx, s, Phase::One, &mut stats);
        // Phase 2.1: the global S distribution — only the cost-balanced
        // splitters read it.
        let cdf = (self.policy == SplitterPolicy::CostBalanced).then(|| {
            run_set_cdf(cx, &public, (self.config.cdf_fan * cx.threads()).max(1), &mut stats)
        });
        // Phases 2.2–3: histogram, splitters, scatter into partitions
        // homed on their owning workers' nodes, local sort of each R_i.
        let private = build_run_set_with(
            cx,
            r,
            self.config.radix_bits,
            cdf.as_ref(),
            Phase::Two,
            Phase::Three,
            &mut stats,
        );
        // Phase 4: every R_i against every S_j from its interpolated
        // entry. The audit books the entry probes as random accesses
        // against the public run's home (the O(log log) exception C2
        // tolerates) and the merge at its actual scan extents — with T
        // workers each touching ≈ |S|/T² of every public run, the phase
        // stays overwhelmingly node-local (`tests/numa_context.rs`).
        let (r_side, s_side) = (DeltaSide::base_only(&private), DeltaSide::base_only(&public));
        let out = merge_sides::<S>(cx, r_side, s_side, &AnytimeToken::Never, None, &mut stats);
        // The runs are dead; the next join on this context reuses them.
        cx.reclaim(public.into_runs().into_iter().chain(private.into_runs()));

        stats.wall = wall.elapsed();
        (out.result, stats)
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
    fn a_reused_context_answers_every_join_from_reclaimed_runs() {
        // Big, then small over a disjoint key range, so a stale tuple
        // left in a reused buffer shows up as a wrong match, then big
        // again.
        let mut next = lcg(57);
        let big_r: Vec<Tuple> = (0..6000).map(|i| Tuple::new(next() % 4096, i)).collect();
        let big_s: Vec<Tuple> = (0..18000).map(|i| Tuple::new(next() % 4096, i)).collect();
        let far = 1 << 20;
        let small_r: Vec<Tuple> = (0..700).map(|i| Tuple::new(far + next() % 64, i)).collect();
        let small_s: Vec<Tuple> = (0..900).map(|i| Tuple::new(far + next() % 64, i)).collect();
        let cx = ExecContext::flat(2);
        let join = PMpsmJoin::new(JoinConfig::with_threads(2));
        let mut allocated = Vec::new();
        for (r, s) in [(&big_r, &big_s), (&small_r, &small_s), (&big_r, &big_s)] {
            let (rows, _) = join.join_in::<CollectSink>(&cx, r, s);
            assert_eq!(rows.len() as u64, nested_loop_count(r, s));
            for &(key, rp, sp) in &rows {
                assert_eq!((r[rp as usize].key, s[sp as usize].key), (key, key), "stale tuple");
            }
            allocated.push(cx.arena().total_bytes());
        }
        assert!(allocated[0] > 0);
        assert_eq!(allocated[2], allocated[0], "the second big join reuses every buffer");
    }

    #[test]
    fn reclaimed_runs_stay_on_their_node() {
        use mpsm_numa::Topology;

        let mut next = lcg(59);
        let r: Vec<Tuple> = (0..4000).map(|i| Tuple::new(next() % 65536, i)).collect();
        let s: Vec<Tuple> = (0..4000).map(|i| Tuple::new(next() % 65536, i)).collect();
        let cx = ExecContext::new(Topology::paper_machine(), 8);
        let join = PMpsmJoin::new(JoinConfig::with_threads(8));
        for _ in 0..2 {
            cx.reset_counters();
            assert_eq!(join.join_in::<CountSink>(&cx, &r, &s).0, nested_loop_count(&r, &s));
            assert_eq!(cx.phase_counters(Phase::Three).remote_fraction(), 0.0);
        }
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
