//! Property tests for the extension features: the sort's network leaf, join
//! variants, band joins, parallel merge, sorted-run aggregation,
//! storage round-trips, the scatter's bucket-major layout, and the
//! optimized-vs-naive galloping merge kernel.

use mpsm::baselines::parallel_merge::{parallel_kway_merge, sequential_kway_merge};
use mpsm::core::context::ExecContext;
use mpsm::core::histogram::{combine_histograms, compute_histogram, RadixDomain};
use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::variant::JoinVariant;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::merge::{merge_join, merge_join_linear};
use mpsm::core::partition::{range_partition_ctx, range_partition_naive};
use mpsm::core::sink::{CollectSink, CountSink, JoinSink, SortedRunsSink};
use mpsm::core::sort::network::network_sort_exact;
use mpsm::core::sort::NETWORK_BLOCK;
use mpsm::core::splitter::equi_height_splitters;
use mpsm::core::tuple::is_key_sorted;
use mpsm::core::worker::{chunk_ranges, SharedWorkerPool};
use mpsm::core::Tuple;
use mpsm::exec::{sorted_group_by, CountAgg};
use mpsm::storage::{MemBackend, Record, RunStore};
use proptest::prelude::*;

fn tuples(keys: Vec<u64>) -> Vec<Tuple> {
    keys.into_iter().enumerate().map(|(i, k)| Tuple::new(k, i as u64)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitonic_sorts_any_input(
        keys in proptest::collection::vec(any::<u64>(), 0..=NETWORK_BLOCK),
    ) {
        let mut data = tuples(keys);
        let mut expected: Vec<u64> = data.iter().map(|t| t.key).collect();
        expected.sort_unstable();
        network_sort_exact(&mut data);
        prop_assert!(is_key_sorted(&data));
        prop_assert_eq!(data.iter().map(|t| t.key).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn outer_join_cardinality_identity(
        r_keys in proptest::collection::vec(0u64..96, 0..200),
        s_keys in proptest::collection::vec(0u64..96, 0..200),
        threads in 1usize..5,
    ) {
        // |R LEFT OUTER S| == |R INNER S| + |R ANTI S| and
        // |R SEMI S| + |R ANTI S| == |R| on B-MPSM, whose inner count
        // P-MPSM must reproduce.
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let cfg = JoinConfig::with_threads(threads);
        let join = BMpsmJoin::new(cfg.clone());
        let count = |v: JoinVariant| join.join_variant_with_sink::<CountSink>(v, &r, &s).0;
        let inner = count(JoinVariant::Inner);
        let outer = count(JoinVariant::LeftOuter);
        let semi = count(JoinVariant::LeftSemi);
        let anti = count(JoinVariant::LeftAnti);
        prop_assert_eq!(outer, inner + anti);
        prop_assert_eq!(semi + anti, r.len() as u64);
        prop_assert_eq!(PMpsmJoin::new(cfg).count(&r, &s), inner);
    }

    #[test]
    fn band_join_widening_is_monotone(
        r_keys in proptest::collection::vec(0u64..2000, 1..100),
        s_keys in proptest::collection::vec(0u64..2000, 1..100),
        delta in 0u64..64,
    ) {
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let join = BMpsmJoin::new(JoinConfig::with_threads(2));
        let narrow = join.band_join_with_sink::<CountSink>(delta, &r, &s).0;
        let wide = join.band_join_with_sink::<CountSink>(delta + 8, &r, &s).0;
        prop_assert!(wide >= narrow, "widening the band cannot lose pairs");
        // Reference check at the narrow delta.
        let expected: u64 = r
            .iter()
            .map(|rt| s.iter().filter(|st| st.key.abs_diff(rt.key) <= delta).count() as u64)
            .sum();
        prop_assert_eq!(narrow, expected);
    }

    #[test]
    fn parallel_merge_equals_sequential_merge(
        runs_keys in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..150), 1..6),
        threads in 1usize..6,
    ) {
        let runs: Vec<Vec<Tuple>> = runs_keys
            .into_iter()
            .map(|mut ks| {
                ks.sort_unstable();
                tuples(ks)
            })
            .collect();
        let seq = sequential_kway_merge(runs.clone());
        let par = parallel_kway_merge(&SharedWorkerPool::new(threads), runs);
        prop_assert!(is_key_sorted(&par));
        prop_assert_eq!(
            par.iter().map(|t| t.key).collect::<Vec<_>>(),
            seq.iter().map(|t| t.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sorted_runs_group_counts_equal_join_count(
        r_keys in proptest::collection::vec(0u64..64, 0..150),
        s_keys in proptest::collection::vec(0u64..64, 0..150),
        threads in 1usize..5,
    ) {
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let join = PMpsmJoin::new(JoinConfig::with_threads(threads));
        let (runs, _) = join.join_with_sink::<SortedRunsSink>(&r, &s);
        for run in &runs {
            prop_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        let groups = sorted_group_by::<CountAgg>(&runs);
        let total: u64 = groups.iter().map(|&(_, c)| c).sum();
        let (count, _) = join.join_with_sink::<CountSink>(&r, &s);
        prop_assert_eq!(total, count, "group counts must add up to the join cardinality");
    }

    #[test]
    fn run_store_roundtrips_any_sorted_run(
        mut keys in proptest::collection::vec(any::<u64>(), 0..400),
        page in 1u32..64,
    ) {
        keys.sort_unstable();
        let run = tuples(keys);
        let store = RunStore::new(MemBackend::disk_array(), page);
        let meta = store.store_run(&run).unwrap();
        prop_assert_eq!(meta.len as usize, run.len());
        let mut out = Vec::new();
        for p in 0..meta.pages() {
            out.extend(store.read_page::<Tuple>(meta.id, p).unwrap());
        }
        prop_assert_eq!(out, run);
        // Page min/max keys bracket their pages.
        for p in 0..meta.pages() {
            prop_assert!(meta.min_keys[p as usize] <= meta.max_keys[p as usize]);
        }
    }

    #[test]
    fn tuple_record_roundtrip(key in any::<u64>(), payload in any::<u64>()) {
        let t = Tuple::new(key, payload);
        let mut buf = [0u8; 16];
        t.write_to(&mut buf);
        prop_assert_eq!(Tuple::read_from(&buf), t);
    }

    #[test]
    fn scatter_matches_the_bucket_major_layout(
        keys in proptest::collection::vec(any::<u64>(), 0..1200),
        workers in 1usize..6,
        fan in 1usize..9,
        bits in 1u32..8,
        skew in 0u8..3,
    ) {
        // Skewed key domains: full 64-bit, a narrow band (dense
        // duplicates), or 90% of the mass in 1% of the domain.
        let keys: Vec<u64> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| match skew {
                0 => k,
                1 => k % 97,
                _ if i % 10 < 9 => k % 41,
                _ => k,
            })
            .collect();
        let data = tuples(keys);
        let ranges = chunk_ranges(data.len(), workers);
        let chunks: Vec<&[Tuple]> = ranges.iter().map(|r| &data[r.clone()]).collect();
        let domain = RadixDomain::from_tuples(chunks.iter().copied(), bits);
        let hist = combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let splitters = equi_height_splitters(&hist, fan);
        // The bucket-major layout guarantee, spelled out: partition p
        // holds its fine buckets in bucket order, each bucket's tuples
        // in worker order and chunk order within a worker.
        let mut layout: Vec<Vec<Tuple>> = vec![Vec::new(); splitters.parts()];
        for b in 0..domain.buckets() {
            for chunk in &chunks {
                layout[splitters.partition_of_bucket(b)]
                    .extend(chunk.iter().filter(|t| domain.bucket_of(t.key) == b));
            }
        }
        let cx = ExecContext::flat(workers);
        let placed: Vec<Vec<Tuple>> = range_partition_ctx(&cx, &chunks, &domain, &splitters)
            .into_iter()
            .map(|buf| buf.into_inner())
            .collect();
        prop_assert_eq!(&placed, &layout);
        prop_assert_eq!(range_partition_naive(&chunks, &domain, &splitters), layout);
    }

    #[test]
    fn galloping_merge_agrees_with_linear_and_oracle(
        r_keys in proptest::collection::vec(any::<u64>(), 0..400),
        s_keys in proptest::collection::vec(any::<u64>(), 0..400),
        shape in 0u8..4,
    ) {
        // Shapes: duplicate-heavy, disjoint ranges, one-sided skew
        // (sparse r vs. dense s), and raw 64-bit keys.
        let reshape = |ks: Vec<u64>, side: u64| -> Vec<u64> {
            ks.into_iter()
                .map(|k| match shape {
                    0 => k % 23,
                    1 => (k % 1000) + side * 1_000_000,
                    2 if side == 0 => (k % 8) * 100_000,
                    2 => k % 500_000,
                    _ => k,
                })
                .collect()
        };
        let mut r = tuples(reshape(r_keys, 0));
        let mut s = tuples(reshape(s_keys, 1));
        r.sort_unstable();
        s.sort_unstable();
        let mut gallop = CollectSink::default();
        merge_join(&r, &s, &mut gallop);
        let mut linear = CollectSink::default();
        merge_join_linear(&r, &s, &mut linear);
        prop_assert_eq!(gallop.finish(), linear.finish());
        let expected: u64 = r
            .iter()
            .map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64)
            .sum();
        let mut count = CountSink::default();
        merge_join(&r, &s, &mut count);
        prop_assert_eq!(count.finish(), expected);
    }
}
