//! The §7 extensions: outer / semi / anti variants, band joins, and the
//! sort-based early aggregation over MPSM's run-structured output.

use std::collections::HashMap;

use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::d_mpsm::{DMpsmConfig, DMpsmJoin};
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::variant::JoinVariant;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::sink::{CollectSink, CountSink, SortedRunsSink, NULL_PAYLOAD};
use mpsm::core::{ExecContext, Tuple};
use mpsm::exec::{sorted_group_by, CountAgg, SumAgg};
use mpsm::storage::MemBackend;
use mpsm::workload::{fk_uniform, uniform_independent};

/// One-sided skew: 16 private keys 10 000 apart against 50 000 dense
/// public keys, where the kernel skips long stretches of the public side.
fn one_sided_skew() -> (Vec<Tuple>, Vec<Tuple>) {
    let sparse = (0..16u64).map(|i| Tuple::new(i * 10_000, i)).collect();
    let dense = (0..50_000u64).map(|i| Tuple::new(i * 3, i)).collect();
    (sparse, dense)
}

/// The uniform input, the one-sided skew and its mirror.
fn variant_inputs() -> Vec<(&'static str, Vec<Tuple>, Vec<Tuple>)> {
    let w = uniform_independent(700, 1400, 400, 3);
    let (sparse, dense) = one_sided_skew();
    vec![
        ("uniform", w.r, w.s),
        ("one-sided skew", sparse.clone(), dense.clone()),
        ("one-sided skew mirrored", dense, sparse),
    ]
}

/// Every row a variant emits, from a nested loop: pairs for the inner
/// and outer joins, one padded row per unmatched private tuple for the
/// outer and anti joins, one per matched private tuple for the semi join.
fn reference_variant_rows(variant: JoinVariant, r: &[Tuple], s: &[Tuple]) -> Vec<(u64, u64, u64)> {
    let mut rows = Vec::new();
    for rt in r {
        let partners: Vec<&Tuple> = s.iter().filter(|st| st.key == rt.key).collect();
        if variant.emits_pairs() {
            rows.extend(partners.iter().map(|st| (rt.key, rt.payload, st.payload)));
        }
        let padded = match variant {
            JoinVariant::Inner => false,
            JoinVariant::LeftOuter | JoinVariant::LeftAnti => partners.is_empty(),
            JoinVariant::LeftSemi => !partners.is_empty(),
        };
        if padded {
            rows.push((rt.key, rt.payload, NULL_PAYLOAD));
        }
    }
    rows.sort_unstable();
    rows
}

/// Private keys that start below and end above every public key, with
/// duplicate groups on both sides and public gaps inside the span: each
/// B-MPSM run pair's key-span cut drops a head and a tail of the private
/// run, so a row reaches the right private tuple only if the cut kept
/// its indices absolute.
fn overhanging() -> (Vec<Tuple>, Vec<Tuple>) {
    let r = (0..4000u64).map(|i| Tuple::new((i * 7919) % 2000, i)).collect();
    let s = (0..1500u64)
        .map(|i| Tuple::new(500 + (i * 613) % 1000, 10_000 + i))
        .filter(|t| t.key % 3 != 0)
        .collect();
    (r, s)
}

const VARIANTS: [JoinVariant; 4] =
    [JoinVariant::Inner, JoinVariant::LeftOuter, JoinVariant::LeftSemi, JoinVariant::LeftAnti];

#[test]
fn variants_match_reference_on_both_mpsm_topologies() {
    for (input, r, s) in variant_inputs() {
        for threads in [1usize, 4, 8] {
            let cfg = JoinConfig::with_threads(threads);
            let p = PMpsmJoin::new(cfg.clone());
            let b = BMpsmJoin::new(cfg);
            for variant in VARIANTS {
                let expected = reference_variant_rows(variant, &r, &s).len() as u64;
                let (bc, _) = b.join_variant_with_sink::<CountSink>(variant, &r, &s);
                assert_eq!(bc, expected, "B-MPSM {variant:?} with {threads} threads on {input}");
                // P-MPSM runs the inner join only: its workers each see one
                // key range of R against the slice of every public run that
                // range meets.
                if variant == JoinVariant::Inner {
                    assert_eq!(
                        p.count(&r, &s),
                        expected,
                        "P-MPSM with {threads} threads on {input}"
                    );
                }
            }
        }
    }
}

#[test]
fn d_mpsm_variants_match_reference_on_one_sided_skew() {
    let (sparse, dense) = one_sided_skew();
    let mut cfg = DMpsmConfig::with_join(JoinConfig::with_threads(4));
    cfg.page_records = 1024;
    cfg.budget_pages = 8;
    let join = DMpsmJoin::new(cfg);
    let cx = ExecContext::flat(4);
    for (input, r, s) in [("skew", &sparse, &dense), ("skew mirrored", &dense, &sparse)] {
        for variant in VARIANTS {
            let (count, _, _) = join
                .join_variant_in::<_, CountSink>(&cx, variant, MemBackend::disk_array(), r, s)
                .expect("in-memory backend cannot fail");
            assert_eq!(
                count,
                reference_variant_rows(variant, r, s).len() as u64,
                "D-MPSM {variant:?} on {input}"
            );
        }
    }
}

#[test]
fn variant_rows_match_nested_loop_when_private_keys_overhang_the_public_span() {
    let (r, s) = overhanging();
    let mut cfg = DMpsmConfig::with_join(JoinConfig::with_threads(4));
    cfg.page_records = 256;
    cfg.budget_pages = 8;
    let d = DMpsmJoin::new(cfg);
    let cx = ExecContext::flat(4);
    for variant in VARIANTS {
        let expected = reference_variant_rows(variant, &r, &s);
        assert!(!expected.is_empty(), "{variant:?} emits rows on this input");
        for threads in [1usize, 4] {
            let b = BMpsmJoin::new(JoinConfig::with_threads(threads));
            let (mut rows, _) = b.join_variant_with_sink::<CollectSink>(variant, &r, &s);
            rows.sort_unstable();
            assert_eq!(rows, expected, "B-MPSM {variant:?} with {threads} threads");
        }
        let (mut rows, _, _) = d
            .join_variant_in::<_, CollectSink>(&cx, variant, MemBackend::disk_array(), &r, &s)
            .expect("in-memory backend cannot fail");
        rows.sort_unstable();
        assert_eq!(rows, expected, "D-MPSM {variant:?}");
    }
}

#[test]
fn outer_join_pads_with_null_sentinel() {
    let r: Vec<Tuple> = vec![Tuple::new(1, 10), Tuple::new(2, 20)];
    let s: Vec<Tuple> = vec![Tuple::new(1, 100)];
    let join = BMpsmJoin::new(JoinConfig::with_threads(2));
    let (mut rows, _) = join.join_variant_with_sink::<CollectSink>(JoinVariant::LeftOuter, &r, &s);
    rows.sort_unstable();
    assert_eq!(rows, vec![(1, 10, 100), (2, 20, NULL_PAYLOAD)]);
}

#[test]
fn semi_join_emits_each_private_tuple_at_most_once() {
    // Key 5 has three partners: semi must still emit r once.
    let r: Vec<Tuple> = vec![Tuple::new(5, 1), Tuple::new(6, 2)];
    let s: Vec<Tuple> = vec![Tuple::new(5, 0), Tuple::new(5, 0), Tuple::new(5, 0)];
    let join = BMpsmJoin::new(JoinConfig::with_threads(2));
    let (rows, _) = join.join_variant_with_sink::<CollectSink>(JoinVariant::LeftSemi, &r, &s);
    assert_eq!(rows, vec![(5, 1, NULL_PAYLOAD)]);
}

#[test]
fn anti_join_complements_semi() {
    let w = fk_uniform(500, 1, 9);
    // Drop half of S so half of R is unmatched.
    let s_half: Vec<Tuple> = w.s.iter().copied().filter(|t| t.key % 2 == 0).collect();
    let join = BMpsmJoin::new(JoinConfig::with_threads(4));
    let (semi, _) = join.join_variant_with_sink::<CountSink>(JoinVariant::LeftSemi, &w.r, &s_half);
    let (anti, _) = join.join_variant_with_sink::<CountSink>(JoinVariant::LeftAnti, &w.r, &s_half);
    assert_eq!(semi + anti, 500, "semi and anti partition R");
}

#[test]
fn band_join_matches_reference() {
    let w = uniform_independent(300, 600, 10_000, 11);
    let join = BMpsmJoin::new(JoinConfig::with_threads(4));
    for delta in [0u64, 3, 50] {
        let expected: u64 =
            w.r.iter()
                .map(|rt| w.s.iter().filter(|st| st.key.abs_diff(rt.key) <= delta).count() as u64)
                .sum();
        let (count, _) = join.band_join_with_sink::<CountSink>(delta, &w.r, &w.s);
        assert_eq!(count, expected, "delta {delta}");
    }
}

#[test]
fn band_join_delta_zero_equals_equi_join() {
    let w = uniform_independent(400, 800, 300, 13);
    let join = BMpsmJoin::new(JoinConfig::with_threads(4));
    let (band, _) = join.band_join_with_sink::<CountSink>(0, &w.r, &w.s);
    assert_eq!(band, join.count(&w.r, &w.s));
}

#[test]
fn sorted_runs_flow_into_group_by() {
    // The §7 "rough sort order" exploitation: P-MPSM output runs feed a
    // merge-based group-by whose result must equal a hash-based one.
    let w = fk_uniform(2000, 4, 17);
    let join = PMpsmJoin::new(JoinConfig::with_threads(4));
    let (runs, _) = join.join_with_sink::<SortedRunsSink>(&w.r, &w.s);

    // Every run must be key-ascending (the physical property).
    for run in &runs {
        assert!(run.windows(2).all(|p| p[0].0 <= p[1].0), "run not sorted");
    }
    // With range partitioning, a worker emits at most T runs.
    assert!(runs.len() <= 4 * 4, "too many runs: {}", runs.len());

    let sums = sorted_group_by::<SumAgg>(&runs);
    let counts = sorted_group_by::<CountAgg>(&runs);

    // Hash-based reference over the raw join.
    let mut ref_sums: HashMap<u64, u64> = HashMap::new();
    let mut ref_counts: HashMap<u64, u64> = HashMap::new();
    for rt in &w.r {
        for st in w.s.iter().filter(|st| st.key == rt.key) {
            *ref_sums.entry(rt.key).or_default() = ref_sums
                .get(&rt.key)
                .copied()
                .unwrap_or(0)
                .wrapping_add(rt.payload.wrapping_add(st.payload));
            *ref_counts.entry(rt.key).or_default() += 1;
        }
    }
    assert_eq!(sums.len(), ref_sums.len());
    for (k, v) in &sums {
        assert_eq!(ref_sums[k], *v, "sum for key {k}");
    }
    for (k, v) in &counts {
        assert_eq!(ref_counts[k], *v, "count for key {k}");
    }
    // And the output is globally key-sorted.
    assert!(sums.windows(2).all(|p| p[0].0 < p[1].0));
}
