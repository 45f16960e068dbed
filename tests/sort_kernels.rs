//! Equivalence of the production sort with its reference.
//!
//! `three_phase_sort_with` — the in-place sort every join, query and
//! benchmark workload runs (via `ExecContext::sort_run`) — must produce
//! exactly what `three_phase_sort_naive` produces: the same key order
//! and the same multiset of `(key, payload)` pairs (neither sort is
//! stable, so payload *order* within a key group may differ, but no
//! tuple may be dropped, duplicated, or invented). Its out-of-place
//! twin `three_phase_sort_into` (via `ExecContext::sorted_run`, every
//! phase-1 run) must in turn produce what `three_phase_sort_with`
//! produces on a copy. The inputs straddle
//! every dispatch boundary (insertion cutoff 16, the network block 64
//! at which the radix descent stops, and sizes and shapes that drive
//! the descent from one level to its last digit) and include the
//! adversarial distributions that broke earlier drafts: all-equal keys,
//! keys at `u64::MAX`, presorted, reversed, heavily skewed domains, and
//! the duplicate densities at which the leaf's cost moves most.

use mpsm::core::sort::{
    three_phase_sort_into, three_phase_sort_naive, three_phase_sort_with, SortScratch,
    INSERTION_CUTOFF, NETWORK_BLOCK,
};
use mpsm::core::tuple::is_key_sorted;
use mpsm::core::Tuple;
use proptest::prelude::*;

/// Tuples with distinct payloads so multiset comparison catches any
/// dropped or duplicated element.
fn tuples(keys: &[u64]) -> Vec<Tuple> {
    keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
}

fn pairs(tuples: &[Tuple]) -> Vec<(u64, u64)> {
    tuples.iter().map(|t| (t.key, t.payload)).collect()
}

/// Sort `keys` with the production sort through `scratch` and check the
/// result against the naive reference: keys identically ordered,
/// `(key, payload)` multiset identical.
fn check_with(keys: &[u64], scratch: &mut SortScratch) -> Result<(), String> {
    let n = keys.len();
    let mut expected = tuples(keys);
    three_phase_sort_naive(&mut expected);

    let mut got = tuples(keys);
    three_phase_sort_with(&mut got, scratch);

    if !is_key_sorted(&got) {
        return Err(format!("output not key-sorted (n={n})"));
    }
    if !got.iter().map(|t| t.key).eq(expected.iter().map(|t| t.key)) {
        return Err(format!("key order diverges (n={n})"));
    }
    let mut got_pairs = pairs(&got);
    let mut expected_pairs = pairs(&expected);
    got_pairs.sort_unstable();
    expected_pairs.sort_unstable();
    if got_pairs != expected_pairs {
        return Err(format!(
            "(key, payload) multiset diverges (n={n}) — tuples dropped, duplicated, or invented"
        ));
    }
    Ok(())
}

fn check(keys: &[u64]) -> Result<(), String> {
    check_with(keys, &mut SortScratch::new())
}

/// The sizes where dispatch changes shape: around the insertion cutoff
/// and the network block at which the descent stops (and twice it plus
/// one); then sizes per depth regime of the radix descent — 2047 –
/// 4096, where uniform keys leave first-level buckets of 8 – 16 tuples
/// and the skewed distribution (60 distinct keys) is already several
/// levels deep, and 2^15 / 2^18, where uniform keys need a second level
/// and the skewed ones run out of digits.
const BOUNDARY_SIZES: [usize; 19] = [
    0,
    1,
    2,
    3,
    INSERTION_CUTOFF - 1,
    INSERTION_CUTOFF,
    INSERTION_CUTOFF + 1,
    NETWORK_BLOCK - 1,
    NETWORK_BLOCK,
    NETWORK_BLOCK + 1,
    2 * NETWORK_BLOCK + 1,
    255,
    256,
    2047,
    2048,
    2049,
    4096,
    1 << 15,
    1 << 18,
];

/// Deterministic key generators indexed by `dist`; `seed` varies the
/// pseudo-random ones.
fn keys_for(dist: usize, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    match dist % 6 {
        // Uniform over the full u64 domain.
        0 => (0..n).map(|_| next()).collect(),
        // All keys equal (and huge): every bucket collapses.
        1 => vec![u64::MAX - (seed % 3); n],
        // Keys at/near u64::MAX: the top of the domain, where rebasing
        // arithmetic is closest to overflow.
        2 => (0..n).map(|i| u64::MAX - (i as u64 % 2)).collect(),
        // Presorted.
        3 => (0..n).map(|i| i as u64 * 37).collect(),
        // Reverse-sorted.
        4 => (0..n).map(|i| (n - i) as u64 * 37).collect(),
        // Zipf-flavored skew: exponentially spread magnitudes, so a few
        // buckets hold most tuples at every radix level.
        5 => (0..n).map(|_| 1u64 << (next() % 60)).collect(),
        _ => unreachable!(),
    }
}

#[test]
fn matches_naive_at_every_boundary_size() {
    for n in BOUNDARY_SIZES {
        for dist in 0..6 {
            let keys = keys_for(dist, n, 0x5EED_0007 + dist as u64);
            if let Err(msg) = check(&keys) {
                panic!("dist {dist}, n {n}: {msg}");
            }
        }
    }
}

/// The regime where the leaf's cost is most sensitive to the data: a
/// fixed 2^16 tuples over ever fewer distinct keys. 65 536 possible
/// values leave first-level buckets of 256 keys, 1 000 of four keys;
/// either way a second scatter at shift 0 orders each bucket by exact
/// value. 16 are ordered by the first scatter alone; one key —
/// `u64::MAX` — returns before it.
#[test]
fn matches_naive_across_duplicate_densities() {
    const N: usize = 1 << 16;
    for distinct in [16u64, 1_000, 65_536] {
        let keys: Vec<u64> =
            keys_for(0, N, 0xD0_0D + distinct).iter().map(|k| (k >> 11) % distinct).collect();
        check(&keys).unwrap_or_else(|msg| panic!("{distinct} distinct keys: {msg}"));
    }
    check(&vec![u64::MAX; N]).unwrap_or_else(|msg| panic!("all-u64::MAX run: {msg}"));
}

/// `u64::MAX` is an ordinary key to the leaf — the network has no
/// padding sentinel a real tuple could be mistaken for. Key 0 and keys
/// below 2^63 stretch the first scatter over all 64 bits, so its top
/// bucket holds exactly the 60 tuples at the very top of the domain —
/// genuine `(u64::MAX, u64::MAX)` tuples, distinct-payload `u64::MAX`
/// keys and their near neighbours — and that bucket goes to one
/// network.
#[test]
fn leaf_keeps_real_u64_max_tuples() {
    let n = 200;
    let mut data: Vec<Tuple> = (0..n)
        .map(|i| match i {
            0..20 => Tuple::new(u64::MAX, u64::MAX),
            20..40 => Tuple::new(u64::MAX, i),
            40..60 => Tuple::new(u64::MAX - 1 - 7 * i, i),
            _ => Tuple::new((i - 60).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1, i),
        })
        .collect();
    let mut expected = pairs(&data);
    expected.sort_unstable();

    three_phase_sort_with(&mut data, &mut SortScratch::new());

    assert!(is_key_sorted(&data));
    let mut got = pairs(&data);
    got.sort_unstable();
    assert_eq!(got, expected, "max-valued tuples must survive the leaf");
}

/// Same property against the reference: a run dominated by `u64::MAX`
/// keys, five values wide at the very top of the domain.
#[test]
fn sort_survives_a_max_key_heavy_run() {
    let keys: Vec<u64> =
        (0..3000).map(|i| if i % 7 == 0 { u64::MAX } else { u64::MAX - (i as u64 % 5) }).collect();
    check(&keys).unwrap();
}

/// A staircase `levels` digits deep: `bottom` keys below
/// `2^(64 − 8·levels)`, which share bucket 0 of every level, plus for
/// each level `l < levels` the key `u64::MAX >> 8l`, which that level's
/// scatter peels off into bucket 255 on its own — so every pass splits
/// (none collapses) and the bucket carried down shrinks by one tuple
/// per level until only the `bottom` keys are left.
fn staircase(levels: u32, bottom: usize, seed: u64) -> Vec<u64> {
    let below = 1u64 << (64 - 8 * levels);
    let mut keys = keys_for(0, bottom, seed);
    keys.iter_mut().for_each(|k| *k %= below);
    keys.extend((0..levels).map(|l| u64::MAX >> (8 * l)));
    keys
}

/// Shapes that drive the descent through many levels before a bucket
/// fits one network:
/// * 65 tuples carried through all eight digits of a full 64-bit span
///   (seven peeling scatters, then the eighth at shift 0);
/// * 80:20 skew with the hot band sized so its level-2 buckets hold
///   65 – 128 tuples each and scatter a third time — the occupancy
///   `skewed_80_20` gives the hot band at 2^20 tuples over 2^32, reached
///   here with 2^16;
/// * staircases of every depth whose carried bucket ends one below, at
///   and one above the network block, starting on either side of the
///   ping-pong buffer.
#[test]
fn deep_descent_shapes_match_naive() {
    check(&staircase(7, 65, 0x8_1E7E1)).unwrap_or_else(|msg| panic!("eight levels: {msg}"));

    const N: usize = 1 << 16;
    const HOT: u64 = 3 << 30;
    const HOT_BUCKETS: u64 = 544; // level-2 buckets are 2^16 keys wide
    let mut state = 0x80_20u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    // 0 and 2^32 − 1 pin the first scatter's base and shift (24).
    let mut keys = vec![0, (1 << 32) - 1];
    keys.extend((2..N).map(|i| {
        if i % 5 == 0 {
            next() % (1 << 32)
        } else {
            HOT + next() % (HOT_BUCKETS << 16)
        }
    }));
    let mut per_bucket = vec![0usize; HOT_BUCKETS as usize];
    for &k in keys.iter().filter(|&&k| (HOT..HOT + (HOT_BUCKETS << 16)).contains(&k)) {
        per_bucket[((k - HOT) >> 16) as usize] += 1;
    }
    let in_shape = per_bucket.iter().filter(|&&c| (65..=128).contains(&c)).count();
    assert!(in_shape * 20 >= per_bucket.len() * 19, "hot level-2 buckets: {per_bucket:?}");
    check(&keys).unwrap_or_else(|msg| panic!("80:20 skew: {msg}"));

    for levels in 1..=8 {
        for bottom in [NETWORK_BLOCK - 1, NETWORK_BLOCK, NETWORK_BLOCK + 1] {
            let mut keys = staircase(levels, bottom, u64::from(levels));
            check(&keys).unwrap_or_else(|msg| panic!("staircase {levels} x {bottom}: {msg}"));
            // Without its top step the descent starts one level lower,
            // so every bucket lands on the other side of the ping-pong.
            keys.retain(|&k| k != u64::MAX);
            check(&keys)
                .unwrap_or_else(|msg| panic!("staircase {levels} x {bottom} less its top: {msg}"));
        }
    }
}

/// One scratch carried across runs of shrinking then growing length —
/// how a pool worker's scratch lives — gives the answers fresh scratch
/// gives: a buffer left longer than the run (and full of the previous
/// run's tuples) must not leak into the next.
#[test]
fn reused_scratch_matches_fresh_scratch() {
    let mut scratch = SortScratch::new();
    for (round, n) in [40_000usize, 5_000, 65, 17, 3, 0, 2_049, 70_000].into_iter().enumerate() {
        for dist in [0, 2, 5] {
            let keys = keys_for(dist, n, 0xA0_0A + round as u64);
            check_with(&keys, &mut scratch)
                .unwrap_or_else(|msg| panic!("round {round}, dist {dist}, n {n}: {msg}"));
        }
    }
}

/// `three_phase_sort_into` against `three_phase_sort_with` on a copy:
/// identical key order and `(key, payload)` multiset, `src` untouched.
/// `dst` starts full of a sentinel no input contains, so a slot the
/// sort leaves unwritten shows up in the multiset.
fn check_into(keys: &[u64], scratch: &mut SortScratch) -> Result<(), String> {
    let n = keys.len();
    let src = tuples(keys);
    let mut expected = src.clone();
    three_phase_sort_with(&mut expected, &mut SortScratch::new());

    let mut dst = vec![Tuple::new(0xDEAD, u64::MAX); n];
    three_phase_sort_into(&src, &mut dst, scratch);

    if src != tuples(keys) {
        return Err(format!("source modified (n={n})"));
    }
    if !dst.iter().map(|t| t.key).eq(expected.iter().map(|t| t.key)) {
        return Err(format!("key order diverges from the in-place sort (n={n})"));
    }
    let mut got_pairs = pairs(&dst);
    let mut expected_pairs = pairs(&expected);
    got_pairs.sort_unstable();
    expected_pairs.sort_unstable();
    if got_pairs != expected_pairs {
        return Err(format!("(key, payload) multiset diverges (n={n}) — a slot left unwritten?"));
    }
    Ok(())
}

/// Every size up to past the insertion cutoff, every boundary size,
/// every `keys_for` shape and every staircase — largest first through
/// one scratch, so a scratch left longer than the next sort's top
/// bucket (and full of the previous sort's tuples) is exercised too.
#[test]
fn sort_into_matches_the_in_place_sort() {
    let mut sizes: Vec<usize> = (0..=INSERTION_CUTOFF + 1).chain(BOUNDARY_SIZES).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.dedup();
    let mut scratch = SortScratch::new();
    for n in sizes {
        for dist in 0..6 {
            let keys = keys_for(dist, n, 0x1_470 + dist as u64);
            check_into(&keys, &mut scratch).unwrap_or_else(|msg| panic!("dist {dist}: {msg}"));
        }
    }
    for levels in (1..=8).rev() {
        for bottom in [NETWORK_BLOCK + 1, NETWORK_BLOCK, NETWORK_BLOCK - 1] {
            let mut keys = staircase(levels, bottom, u64::from(levels));
            check_into(&keys, &mut scratch)
                .unwrap_or_else(|msg| panic!("staircase {levels} x {bottom}: {msg}"));
            keys.retain(|&k| k != u64::MAX);
            check_into(&keys, &mut scratch)
                .unwrap_or_else(|msg| panic!("staircase {levels} x {bottom} less its top: {msg}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matches_naive_on_arbitrary_keys(
        keys in proptest::collection::vec(any::<u64>(), 0..2600),
    ) {
        if let Err(msg) = check(&keys) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn matches_naive_on_adversarial_distributions(
        dist in 0usize..6,
        n in 1usize..2600,
        seed in any::<u64>(),
    ) {
        if let Err(msg) = check(&keys_for(dist, n, seed)) {
            prop_assert!(false, "dist {}, n {}: {}", dist, n, msg);
        }
    }
}
