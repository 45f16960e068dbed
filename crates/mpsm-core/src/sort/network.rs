//! Batcher's odd-even sorting network — the sort's leaf.
//!
//! > "For sorting in MPSM we developed our own Radix/IntroSort. In the
//! > future however, wider SIMD registers will allow to explore bitonic
//! > SIMD sorting \[6\]." (§6)
//!
//! What survived that exploration is Batcher's *odd-even* mergesort
//! network in portable scalar Rust: a fixed, **branch-free** schedule
//! of ascending compare-exchanges. Each exchange computes an
//! all-ones/all-zeros mask from the key comparison and blends keys
//! *and payloads* with bitwise selects — no data-dependent branch, so
//! the branch predictor has nothing to mispredict (the property that
//! makes the network the right finisher for small partitions of
//! *random* keys, where insertion sort eats a mispredict per element).
//! Every size up to [`NETWORK_BLOCK`] has its own exact schedule (see
//! `batcher_pairs_into`), so nothing is padded or staged.
//!
//! Entry point: [`network_sort_exact`], one slice of at most
//! [`NETWORK_BLOCK`] tuples — what the radix descent calls on every
//! bucket it stops at.

use super::NETWORK_BLOCK;
use crate::tuple::Tuple;

/// Precomputed Batcher odd-even comparator schedules for every size up
/// to [`NETWORK_BLOCK`], flattened into one pair array.
struct Schedules {
    offsets: [usize; NETWORK_BLOCK + 2],
    pairs: Vec<(u8, u8)>,
}

/// Batcher's odd-even mergesort uses *ascending comparators only*, so
/// the power-of-two network pruned to the pairs whose both lanes are
/// `< n` is a valid sorting network for exactly `n` lanes: imagining
/// `+∞` sentinels in lanes `≥ n`, every pruned comparator would have
/// been a no-op (its upper lane already holds the maximum), hence
/// removing it cannot change the result on the live lanes. (Bitonic
/// networks flip comparator directions, so this pruning is *not* valid
/// there.) The
/// `zero_one_principle_validates_every_exact_schedule` test verifies
/// the pruned schedules exhaustively.
fn batcher_pairs_into(n: usize, pairs: &mut Vec<(u8, u8)>) {
    if n < 2 {
        return;
    }
    let pn = n.next_power_of_two();
    let mut p = 1usize;
    while p < pn {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < pn {
                for i in 0..k {
                    let a = i + j;
                    let b = i + j + k;
                    if b >= pn {
                        break;
                    }
                    if a / (2 * p) == b / (2 * p) && b < n {
                        pairs.push((a as u8, b as u8));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

fn schedules() -> &'static Schedules {
    static S: std::sync::OnceLock<Schedules> = std::sync::OnceLock::new();
    S.get_or_init(|| {
        let mut offsets = [0usize; NETWORK_BLOCK + 2];
        let mut pairs = Vec::new();
        for (n, off) in offsets.iter_mut().enumerate().take(NETWORK_BLOCK + 1) {
            *off = pairs.len();
            batcher_pairs_into(n, &mut pairs);
        }
        offsets[NETWORK_BLOCK + 1] = pairs.len();
        Schedules { offsets, pairs }
    })
}

/// Sort a slice of at most [`NETWORK_BLOCK`] tuples in place with its
/// exact-size odd-even schedule: branch-free compare-exchanges, no
/// padding, no staging copy. Radix buckets land on every size up to
/// the block, not just powers of two, which is why each size has its
/// own schedule.
pub fn network_sort_exact(tuples: &mut [Tuple]) {
    let n = tuples.len();
    debug_assert!(n <= NETWORK_BLOCK);
    if n < 2 {
        return;
    }
    let s = schedules();
    for &(a, b) in &s.pairs[s.offsets[n]..s.offsets[n + 1]] {
        let (lo, hi) = (a as usize, b as usize);
        let x = tuples[lo];
        let y = tuples[hi];
        // Ascending comparator, branch-free: all-ones mask when out of
        // order, bitwise blend of keys and payloads.
        let m = ((x.key > y.key) as u64).wrapping_neg();
        tuples[lo] = Tuple::new((x.key & !m) | (y.key & m), (x.payload & !m) | (y.payload & m));
        tuples[hi] = Tuple::new((y.key & !m) | (x.key & m), (y.payload & !m) | (x.payload & m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::is_key_sorted;

    fn pseudo_random(n: usize, seed: u64) -> Vec<Tuple> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Tuple::new(state >> 32, i as u64)
            })
            .collect()
    }

    #[test]
    fn network_preserves_payload_pairs() {
        let mut data = pseudo_random(NETWORK_BLOCK, 3);
        let mut before: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        network_sort_exact(&mut data);
        let mut after: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn network_handles_duplicates() {
        let mut data: Vec<Tuple> =
            (0..NETWORK_BLOCK as u64).map(|i| Tuple::new(i % 5, i)).collect();
        network_sort_exact(&mut data);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn real_max_keyed_tuples_keep_their_payloads() {
        // The network has no padding sentinel, so `u64::MAX` is an
        // ordinary key: every payload must survive the blends exactly.
        for n in [3usize, 5, 7, 11, 21, 33, NETWORK_BLOCK] {
            let mut data: Vec<Tuple> = (0..n as u64).map(|i| Tuple::new(u64::MAX, i)).collect();
            network_sort_exact(&mut data);
            let mut payloads: Vec<u64> = data.iter().map(|t| t.payload).collect();
            payloads.sort_unstable();
            assert_eq!(payloads, (0..n as u64).collect::<Vec<_>>(), "size {n}: payload lost");
            assert!(data.iter().all(|t| t.key == u64::MAX));
        }
        // Mixed case: MAX-keyed tuples among ordinary ones, including a
        // `(MAX, MAX)` tuple. Equal-key payload order is unspecified;
        // the multiset must survive exactly.
        let mut data = vec![
            Tuple::new(5, 50),
            Tuple::new(u64::MAX, 1),
            Tuple::new(7, 70),
            Tuple::new(u64::MAX, u64::MAX),
            Tuple::new(u64::MAX, 2),
        ];
        let mut expected: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        network_sort_exact(&mut data);
        assert!(is_key_sorted(&data));
        let mut got: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn zero_one_principle_validates_every_exact_schedule() {
        // A comparator network sorts all inputs iff it sorts all 0-1
        // sequences (Knuth 5.3.4). Exhaustive up to 2^n sequences gets
        // expensive fast, so go exhaustive where feasible and spot-check
        // the larger schedules with every rotation of a few patterns.
        for n in 0..=16usize {
            for bits in 0u32..(1u32 << n) {
                let mut data: Vec<Tuple> =
                    (0..n).map(|i| Tuple::new(((bits >> i) & 1) as u64, i as u64)).collect();
                network_sort_exact(&mut data);
                assert!(is_key_sorted(&data), "n={n} bits={bits:b}");
                assert_eq!(
                    data.iter().filter(|t| t.key == 1).count(),
                    bits.count_ones() as usize,
                    "n={n}: multiset changed"
                );
            }
        }
        for n in [17usize, 23, 31, 33, 48, 63, NETWORK_BLOCK] {
            let mut state = n as u64;
            for _ in 0..2000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut data: Vec<Tuple> =
                    (0..n).map(|i| Tuple::new((state >> (i % 60)) & 1, i as u64)).collect();
                let ones = data.iter().filter(|t| t.key == 1).count();
                network_sort_exact(&mut data);
                assert!(is_key_sorted(&data), "n={n}");
                assert_eq!(data.iter().filter(|t| t.key == 1).count(), ones);
            }
        }
    }

    #[test]
    fn exact_network_matches_std_sort_at_every_size() {
        for n in 0..=NETWORK_BLOCK {
            let mut data = pseudo_random(n, n as u64 + 3);
            let mut expected: Vec<u64> = data.iter().map(|t| t.key).collect();
            expected.sort_unstable();
            network_sort_exact(&mut data);
            let got: Vec<u64> = data.iter().map(|t| t.key).collect();
            assert_eq!(got, expected, "size {n}");
        }
    }
}
