//! Property-based invariants over the core data structures and the
//! join algorithms (proptest).

use mpsm::baselines::nested_loop::oracle_count;
use mpsm::core::cdf::{equi_height_bounds, Cdf};
use mpsm::core::context::ExecContext;
use mpsm::core::histogram::{combine_histograms, compute_histogram, RadixDomain};
use mpsm::core::interpolation::interpolation_lower_bound;
use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::delta::DeltaOp;
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::merge::{merge_join, merge_join_linear};
use mpsm::core::partition::range_partition_ctx;
use mpsm::core::sink::{CollectSink, CountSink, JoinSink};
use mpsm::core::sort::three_phase_sort;
use mpsm::core::splitter::{compute_splitters, equi_height_splitters};
use mpsm::core::tuple::is_key_sorted;
use mpsm::core::worker::chunk_ranges;
use mpsm::core::Tuple;
use mpsm::exec::{Relation, RelationState};
use proptest::prelude::*;
use std::sync::Arc;

fn tuples(keys: Vec<u64>) -> Vec<Tuple> {
    keys.into_iter().enumerate().map(|(i, k)| Tuple::new(k, i as u64)).collect()
}

fn key_multiset(ts: &[Tuple]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = ts.iter().map(|t| (t.key, t.payload)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sort_produces_sorted_permutation(keys in proptest::collection::vec(any::<u64>(), 0..2000)) {
        let mut data = tuples(keys);
        let before = key_multiset(&data);
        three_phase_sort(&mut data);
        prop_assert!(is_key_sorted(&data));
        prop_assert_eq!(key_multiset(&data), before);
    }

    #[test]
    fn sort_on_narrow_domains(keys in proptest::collection::vec(0u64..16, 0..1500)) {
        let mut data = tuples(keys);
        let before = key_multiset(&data);
        three_phase_sort(&mut data);
        prop_assert!(is_key_sorted(&data));
        prop_assert_eq!(key_multiset(&data), before);
    }

    #[test]
    fn interpolation_equals_partition_point(
        mut keys in proptest::collection::vec(any::<u64>(), 0..800),
        probe in any::<u64>(),
    ) {
        keys.sort_unstable();
        let run = tuples(keys);
        // tuples() keeps key order; payload differs but keys stay sorted.
        prop_assert_eq!(
            interpolation_lower_bound(&run, probe),
            run.partition_point(|t| t.key < probe)
        );
    }

    #[test]
    fn delta_fold_over_a_sorted_base_stays_sorted_and_matches_the_replay(
        mut base_keys in proptest::collection::vec(0u64..200, 0..600),
        op_codes in proptest::collection::vec(0u64..2000, 0..150),
    ) {
        base_keys.sort_unstable();
        let base = Arc::new(Relation::new("R", tuples(base_keys)));
        let state = Arc::new(RelationState::new(Arc::clone(&base)));
        // Append / update / delete 80 / 10 / 10 over the base's keys
        // and some past them.
        state.delta().extend(op_codes.iter().enumerate().map(|(i, &code)| {
            let (key, payload) = (code / 10 % 250, 1_000_000 + i as u64);
            match code % 10 {
                0 => DeltaOp::Delete { key },
                1 => DeltaOp::Update { key, payload },
                _ => DeltaOp::Append(Tuple::new(key, payload)),
            }
        }));
        let snapshot = state.snapshot();
        let applied = snapshot.overlay().apply(base.tuples());
        prop_assert!(is_key_sorted(&applied));
        prop_assert_eq!(key_multiset(&applied), key_multiset(&snapshot.materialize()));
    }

    #[test]
    fn merge_join_count_matches_oracle(
        r_keys in proptest::collection::vec(0u64..64, 0..300),
        s_keys in proptest::collection::vec(0u64..64, 0..300),
    ) {
        let mut r = tuples(r_keys);
        let mut s = tuples(s_keys);
        let expected = oracle_count(&r, &s);
        r.sort_unstable_by_key(|t| t.key);
        s.sort_unstable_by_key(|t| t.key);
        let mut sink = CountSink::default();
        merge_join(&r, &s, &mut sink);
        prop_assert_eq!(sink.finish(), expected);
    }

    #[test]
    fn cut_merge_emits_exactly_the_linear_merge_rows(
        seg_words in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        // The key-span-cut kernel must emit the exact row set of the
        // plain linear merge across regime shifts — densely interleaved
        // stretches (one-step advances), one-sided sparse stretches
        // (long skips, and private keys outside the public span), and
        // duplicate blocks (group cross products). Each word encodes
        // one segment.
        let mut r_keys = Vec::new();
        let mut s_keys = Vec::new();
        let mut base = 0u64;
        for w in seg_words {
            let len = 1 + (w >> 2) % 400;
            match w % 4 {
                // Perfectly interleaved, disjoint: r gets evens, s odds.
                0 => {
                    for i in 0..len {
                        r_keys.push(base + 2 * i);
                        s_keys.push(base + 2 * i + 1);
                    }
                    base += 2 * len;
                }
                // s dense, r sparse: one r probe into the middle.
                1 => {
                    s_keys.extend((0..len).map(|i| base + i));
                    r_keys.push(base + len / 2);
                    base += len + 1;
                }
                // r dense, s sparse.
                2 => {
                    r_keys.extend((0..len).map(|i| base + i));
                    s_keys.push(base + len / 2);
                    base += len + 1;
                }
                // Matching keys duplicated ×3 on both sides.
                _ => {
                    for i in 0..len {
                        r_keys.push(base + i / 3);
                        s_keys.push(base + i / 3);
                    }
                    base += len / 3 + 1;
                }
            }
        }
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let mut cut = CollectSink::default();
        merge_join(&r, &s, &mut cut);
        let mut linear = CollectSink::default();
        merge_join_linear(&r, &s, &mut linear);
        prop_assert_eq!(cut.finish(), linear.finish());
    }

    #[test]
    fn partition_is_range_respecting_permutation(
        keys in proptest::collection::vec(any::<u64>(), 1..1000),
        workers in 1usize..5,
        parts in 1usize..5,
        bits in 3u32..8,
    ) {
        let data = tuples(keys);
        let domain = RadixDomain::from_tuples([data.as_slice()], bits);
        let ranges = chunk_ranges(data.len(), workers);
        let chunks: Vec<&[Tuple]> = ranges.iter().map(|r| &data[r.clone()]).collect();
        let hist = combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let splitters = equi_height_splitters(&hist, parts);
        let runs = range_partition_ctx(&ExecContext::flat(workers), &chunks, &domain, &splitters);

        // Permutation.
        let mut out: Vec<(u64, u64)> =
            runs.iter().flat_map(|r| r.iter().map(|t| (t.key, t.payload))).collect();
        out.sort_unstable();
        prop_assert_eq!(out, key_multiset(&data));
        // Range-respecting.
        for (p, run) in runs.iter().enumerate() {
            for t in run.iter() {
                prop_assert_eq!(splitters.partition_of_bucket(domain.bucket_of(t.key)), p);
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded(
        mut keys in proptest::collection::vec(any::<u64>(), 1..500),
        fan in 1usize..32,
    ) {
        keys.sort_unstable();
        let run = tuples(keys);
        let bounds = equi_height_bounds(&run, fan);
        let cdf = Cdf::from_local_bounds(&[(bounds, run.len())]);
        let total = cdf.total();
        prop_assert!((total - run.len() as f64).abs() < 1e-6);
        let mut prev = -1.0;
        for probe in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let e = cdf.estimate(probe);
            prop_assert!(e >= prev - 1e-9);
            prop_assert!((-1e-9..=total + 1e-9).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn splitters_cover_all_buckets_monotonically(
        hist in proptest::collection::vec(0usize..50, 8..64),
        parts in 1usize..6,
    ) {
        let domain = RadixDomain::from_range(0, (hist.len() as u64 * 7).max(1), 6);
        // Domain bucket count may differ from hist len; rebuild hist to width.
        let mut h = hist.clone();
        h.resize(domain.buckets(), 0);
        let run: Vec<Tuple> = (0..100u64).map(|k| Tuple::new(k, 0)).collect();
        let cdf = Cdf::exact(&[&run]);
        let sp = compute_splitters(&h, &domain, &cdf, parts);
        prop_assert!(sp.assignment().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(sp.assignment().iter().all(|&p| (p as usize) < parts));
        prop_assert_eq!(sp.assignment().len(), domain.buckets());
    }

    #[test]
    fn p_mpsm_matches_b_mpsm(
        r_keys in proptest::collection::vec(0u64..128, 0..400),
        s_keys in proptest::collection::vec(0u64..128, 0..400),
        threads in 1usize..6,
    ) {
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let cfg = JoinConfig::with_threads(threads);
        let p = PMpsmJoin::new(cfg.clone()).count(&r, &s);
        let b = BMpsmJoin::new(cfg).count(&r, &s);
        prop_assert_eq!(p, b);
        prop_assert_eq!(p, oracle_count(&r, &s));
    }
}
