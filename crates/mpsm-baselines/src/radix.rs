//! Parallel radix join — the MonetDB \[19\] / Kim et al. \[17\] algorithm
//! and this repository's stand-in for the paper's Vectorwise contender.
//!
//! The join achieves cache locality by partitioning *both* inputs into
//! fragments small enough that the build-side hash table of each
//! fragment fits in cache:
//!
//! 1. **pass 1** — histogram-based parallel range partitioning of `R`
//!    and `S` on the highest `B1` bits (prefix sums, synchronization-free
//!    scatter — the technique MPSM adapts from \[14\]). This is the step
//!    that "writes across NUMA partitions" (paper Figure 2b): every
//!    worker's chunk scatters into every target fragment;
//! 2. **pass 2** — each fragment is sub-partitioned *locally* on the
//!    next `B2` bits (the recursive refinement that keeps TLB pressure
//!    bounded);
//! 3. **join** — for every final fragment pair, build a
//!    [`LocalChainedTable`] over the R side and probe with the S side.
//!    Fragments are distributed over workers by total size (LPT-style)
//!    so no worker starves.
//!
//! Phase mapping in [`JoinStats`]: phase 1 = partition R, phase 2 =
//! partition S, phase 3 = local refinement + join.

use mpsm_core::context::ExecContext;
use mpsm_core::histogram::RadixDomain;
use mpsm_core::join::{JoinAlgorithm, JoinConfig};
use mpsm_core::partition::range_partition_ctx;
use mpsm_core::sink::JoinSink;
use mpsm_core::splitter::Splitters;
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::worker::chunk_ranges;
use mpsm_core::Tuple;

use crate::hash_table::LocalChainedTable;

/// The radix join baseline.
#[derive(Debug, Clone)]
pub struct RadixJoin {
    config: JoinConfig,
    /// Pass-1 bits (global scatter fan-out).
    pass1_bits: u32,
    /// Pass-2 bits (local refinement fan-out); 0 disables pass 2.
    pass2_bits: u32,
}

impl RadixJoin {
    /// Radix join with the classic 2-pass configuration
    /// (`2^8` fragments globally, `2^6` locally).
    pub fn new(config: JoinConfig) -> Self {
        RadixJoin { config, pass1_bits: 8, pass2_bits: 6 }
    }

    /// Override the per-pass radix widths.
    pub fn with_bits(mut self, pass1: u32, pass2: u32) -> Self {
        assert!((1..=16).contains(&pass1), "pass-1 bits out of range");
        assert!(pass2 <= 16, "pass-2 bits out of range");
        self.pass1_bits = pass1;
        self.pass2_bits = pass2;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// Identity splitters: every radix bucket is its own fragment.
    fn identity_splitters(buckets: usize) -> Splitters {
        Splitters::from_assignment((0..buckets as u32).collect(), buckets)
    }
}

impl JoinAlgorithm for RadixJoin {
    fn name(&self) -> &'static str {
        "Radix (VW-style)"
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

        // The two inputs must agree on the fragment boundaries, so the
        // domain spans both key ranges.
        let domain = RadixDomain::from_tuples([r, s], self.pass1_bits);
        let splitters = Self::identity_splitters(domain.buckets());

        // ---- Pass 1 over R. ----
        let p1 = std::time::Instant::now();
        let r_ranges = chunk_ranges(r.len(), t);
        let r_chunks: Vec<&[Tuple]> = r_ranges.iter().map(|rng| &r[rng.clone()]).collect();
        let r_frags = range_partition_ctx(cx, &r_chunks, &domain, &splitters);
        stats.record_phase(Phase::One, &vec![p1.elapsed(); t]);

        // ---- Pass 1 over S. ----
        let p2 = std::time::Instant::now();
        let s_ranges = chunk_ranges(s.len(), t);
        let s_chunks: Vec<&[Tuple]> = s_ranges.iter().map(|rng| &s[rng.clone()]).collect();
        let s_frags = range_partition_ctx(cx, &s_chunks, &domain, &splitters);
        stats.record_phase(Phase::Two, &vec![p2.elapsed(); t]);

        // ---- Assign fragments to workers by size (largest-first). ----
        let mut order: Vec<usize> = (0..r_frags.len()).collect();
        order.sort_unstable_by_key(|&f| std::cmp::Reverse(r_frags[f].len() + s_frags[f].len()));
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); t];
        let mut loads = vec![0usize; t];
        for f in order {
            let w = (0..t).min_by_key(|&w| loads[w]).expect("at least one worker");
            loads[w] += r_frags[f].len() + s_frags[f].len();
            assignment[w].push(f);
        }

        // ---- Pass 2 + fragment joins, in parallel. ----
        let pass2_bits = self.pass2_bits;
        let partials = cx.run_phase(Phase::Three, &mut stats, |w, _| {
            let mut sink = S::default();
            for &f in &assignment[w] {
                join_fragment(&r_frags[f], &s_frags[f], pass2_bits, &mut sink);
            }
            sink.finish()
        });

        stats.wall = wall.elapsed();
        (S::combine_all(partials), stats)
    }
}

/// Join one pass-1 fragment pair, refining locally first if configured.
fn join_fragment<S: JoinSink>(r_frag: &[Tuple], s_frag: &[Tuple], pass2_bits: u32, sink: &mut S) {
    if r_frag.is_empty() || s_frag.is_empty() {
        return;
    }
    if pass2_bits == 0 || r_frag.len() <= 64 {
        hash_join_fragment(r_frag, s_frag, sink);
        return;
    }
    // Local refinement: counting-sort both sides into 2^B2 sub-fragments
    // (single-owner, no synchronization — this is the cache-friendly,
    // TLB-friendly part of the radix join).
    let domain = RadixDomain::from_tuples([r_frag, s_frag], pass2_bits);
    let r_sub = local_partition(r_frag, &domain);
    let s_sub = local_partition(s_frag, &domain);
    for (rs, ss) in r_sub.iter().zip(&s_sub) {
        if !rs.is_empty() && !ss.is_empty() {
            hash_join_fragment(rs, ss, sink);
        }
    }
}

/// Sequential counting-sort partition of one fragment.
fn local_partition(frag: &[Tuple], domain: &RadixDomain) -> Vec<Vec<Tuple>> {
    let mut counts = vec![0usize; domain.buckets()];
    for t in frag {
        counts[domain.bucket_of(t.key)] += 1;
    }
    let mut out: Vec<Vec<Tuple>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for t in frag {
        out[domain.bucket_of(t.key)].push(*t);
    }
    out
}

/// Build-and-probe of one final fragment pair.
fn hash_join_fragment<S: JoinSink>(r_frag: &[Tuple], s_frag: &[Tuple], sink: &mut S) {
    let table = LocalChainedTable::build(r_frag);
    for st in s_frag {
        table.probe(st.key, |rt| sink.on_match(rt, *st));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::oracle_count;

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
        let join = RadixJoin::new(JoinConfig::with_threads(2));
        assert_eq!(join.count(&r, &s), oracle_count(&r, &s));
    }

    #[test]
    fn matches_oracle_across_thread_counts_and_passes() {
        let mut next = lcg(81);
        let r: Vec<Tuple> = (0..900).map(|i| Tuple::new(next() % 2048, i)).collect();
        let s: Vec<Tuple> = (0..2700).map(|i| Tuple::new(next() % 2048, i)).collect();
        let expected = oracle_count(&r, &s);
        for threads in [1, 3, 8] {
            for (b1, b2) in [(4, 0), (8, 6), (2, 8)] {
                let join = RadixJoin::new(JoinConfig::with_threads(threads)).with_bits(b1, b2);
                assert_eq!(join.count(&r, &s), expected, "threads {threads}, bits {b1}/{b2}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let join = RadixJoin::new(JoinConfig::with_threads(4));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[1]), &[]), 0);
        assert_eq!(join.count(&[], &keyed(&[1])), 0);
    }

    #[test]
    fn skewed_keys_pile_into_one_fragment() {
        // All keys equal: one fragment carries the whole join; the size
        // balancer gives it to a single worker but correctness holds.
        let r = keyed(&vec![7u64; 300]);
        let s = keyed(&vec![7u64; 50]);
        let join = RadixJoin::new(JoinConfig::with_threads(8));
        assert_eq!(join.count(&r, &s), 300 * 50);
    }

    #[test]
    fn fragment_assignment_balances_load() {
        // Uniform keys: loads should end up near-equal. (Indirectly
        // validated through correctness + the LPT assignment being
        // deterministic; here we just exercise multiple fragments per
        // worker.)
        let mut next = lcg(91);
        let r: Vec<Tuple> = (0..4096).map(|i| Tuple::new(next() % 65536, i)).collect();
        let s: Vec<Tuple> = (0..4096).map(|i| Tuple::new(next() % 65536, i)).collect();
        let join = RadixJoin::new(JoinConfig::with_threads(3)).with_bits(6, 4);
        assert_eq!(join.count(&r, &s), oracle_count(&r, &s));
    }
}
