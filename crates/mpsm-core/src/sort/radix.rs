//! In-place MSD radix pass — phase 1 of the paper's sorting routine.
//!
//! Computes a 256-bucket histogram over the 8 most significant
//! *discriminating* bits of the keys, derives the bucket boundaries, and
//! swaps every element into its bucket in place (American-flag /
//! cycle-leader permutation, after Knuth \[18\]). The buckets are in key
//! order, so a subsequent per-bucket sort yields a totally ordered run.
//!
//! Keys rarely use all 64 bits (the paper draws them from `[0, 2^32)`),
//! so the pass first derives a shift from the observed key range — the
//! bitwise-shift preprocessing mentioned in §3.2.1.

use crate::sort::RADIX_BITS;
use crate::tuple::{key_range, Tuple};

/// Number of radix buckets (256, as in the paper).
pub const BUCKETS: usize = 1 << RADIX_BITS;

/// How to map a key to its radix bucket: `(key - base) >> shift`.
///
/// Derived from an observed key range so the top `RADIX_BITS` of the
/// *used* domain discriminate. Shared with the partitioning phase,
/// which radix-clusters on the same principle with `B` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixShift {
    /// Subtracted from every key before shifting (the domain minimum).
    pub base: u64,
    /// Right-shift applied after rebasing.
    pub shift: u32,
}

impl RadixShift {
    /// Derive the shift for `bits` leading bits over `[min, max]`.
    pub fn for_range(min: u64, max: u64, bits: u32) -> Self {
        debug_assert!(min <= max);
        if min == max {
            // Degenerate single-key domain. Without the early-out,
            // `needed` collapses to 0 and shift 0 sends any key above
            // `base` through the top-bucket `.min()` clamp — the
            // opposite end of the domain. Shift 63 routes everything
            // within 2^63 of the base into bucket 0, which is the only
            // meaningful bucket of a one-key domain.
            return RadixShift { base: min, shift: 63 };
        }
        let span = max - min;
        let needed = 64 - span.leading_zeros(); // bits needed for the span
        let shift = needed.saturating_sub(bits);
        RadixShift { base: min, shift }
    }

    /// Bucket of `key` among `2^bits` buckets.
    #[inline]
    pub fn bucket(&self, key: u64, bits: u32) -> usize {
        debug_assert!(key >= self.base);
        (((key - self.base) >> self.shift) as usize).min((1usize << bits) - 1)
    }

    /// The shift for recursing into non-empty `bucket` of a partition
    /// made with `self`: the next `bits` lower key bits.
    ///
    /// Needs **no scan of the bucket**: a partition on `self` confines
    /// bucket `b`'s keys to the span of width `2^shift` starting at
    /// `base + (b << shift)` — for the clamped top bucket too, because
    /// [`RadixShift::for_range`] guarantees the whole span is below
    /// `2^(shift + bits)`. So the child rebases to the bucket's floor
    /// and consumes the next digit. Once `self.shift` is 0 every bucket
    /// holds a single key value and recursion must stop — callers check
    /// that before deriving a child.
    ///
    /// Only call this for buckets that **contain a key**: the rebased
    /// floor is then bounded by that key, so the addition cannot
    /// overflow. For empty high buckets of a near-`u64::MAX` domain the
    /// floor itself can exceed `u64::MAX` (callers skip trivial buckets
    /// before deriving children).
    #[inline]
    pub fn child(&self, bucket: usize, bits: u32) -> RadixShift {
        RadixShift {
            base: self.base + ((bucket as u64) << self.shift),
            shift: self.shift.saturating_sub(bits),
        }
    }
}

/// Prefetch the cache line holding `*p` into all levels (T0 hint).
/// A pure hint: any address is architecturally safe, and the function
/// is a no-op off x86_64.
#[inline(always)]
fn prefetch_read(p: *const Tuple) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults; SSE is in the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Partition `tuples` in place into up to 256 key-ordered buckets.
/// Returns the `BUCKETS + 1` boundary offsets (bucket `b` occupies
/// `tuples[bounds[b]..bounds[b+1]]`).
pub fn msd_radix_partition(tuples: &mut [Tuple]) -> Vec<usize> {
    let Some((min, max)) = key_range(tuples) else {
        return vec![0; BUCKETS + 1];
    };
    let shift = RadixShift::for_range(min, max, RADIX_BITS);
    msd_radix_partition_with(tuples, shift)
}

/// Like [`msd_radix_partition`], with a caller-provided shift (used when
/// the global domain is known from a previous scan).
pub fn msd_radix_partition_with(tuples: &mut [Tuple], shift: RadixShift) -> Vec<usize> {
    // 1. Histogram. A pure sequential scan: the hardware prefetcher
    // tracks it perfectly, so no software hints here (measured: an
    // explicit per-element hint *costs* ~2 ns/tuple at 1M).
    let mut counts = [0usize; BUCKETS];
    for t in tuples.iter() {
        counts[shift.bucket(t.key, RADIX_BITS)] += 1;
    }
    // 2. Boundaries (exclusive prefix sums).
    let mut bounds = vec![0usize; BUCKETS + 1];
    for b in 0..BUCKETS {
        bounds[b + 1] = bounds[b] + counts[b];
    }
    // 3. In-place cycle-leader permutation (American-flag style):
    // `heads[b]` is the next write position of bucket `b`. A displaced
    // element is carried in a register and follows its cycle — one read
    // and one write per element instead of a full `swap` (two of each),
    // which matters because every hop is a cache miss at scale. Each
    // hop's destination line is prefetched as soon as the carried key
    // names it, overlapping the fill with the loop's bookkeeping.
    let mut heads: Vec<usize> = bounds[..BUCKETS].to_vec();
    for b in 0..BUCKETS {
        let end = bounds[b + 1];
        while heads[b] < end {
            let cursor = heads[b];
            let mut carried = tuples[cursor];
            let mut target = shift.bucket(carried.key, RADIX_BITS);
            if target == b {
                heads[b] += 1;
                continue;
            }
            prefetch_read(&raw const tuples[heads[target]]);
            // Follow the displacement cycle until an element belonging
            // to bucket `b` lands in the cursor slot.
            loop {
                let dest = heads[target];
                heads[target] += 1;
                std::mem::swap(&mut carried, &mut tuples[dest]);
                target = shift.bucket(carried.key, RADIX_BITS);
                if target == b {
                    tuples[cursor] = carried;
                    heads[b] += 1;
                    break;
                }
                prefetch_read(&raw const tuples[heads[target]]);
            }
        }
    }
    bounds
}

/// Out-of-place MSD radix scatter: histogram `src`, then stream it into
/// `dst` bucket-ordered. Returns the same boundary offsets as the
/// in-place pass.
///
/// This is the sort's descent pass: the in-place cycle-leader
/// permutation above reads *and* writes at random addresses and each
/// hop serially depends on the carried tuple, so at scale the core
/// stalls on one cache miss at a time. The scatter reads sequentially
/// (hardware-prefetched) and writes to 256 independent streams the
/// store buffer can overlap — at the price of an equal-sized aux
/// buffer, which the callers ping-pong so even-depth recursions land
/// back in place with zero extra copies.
///
/// The scatter is **stable** (bucket-internal order preserved), which
/// the collapse-retighten path in the caller relies on: a partition
/// that lands in a single bucket leaves `dst` an exact copy of `src`.
pub fn msd_radix_scatter(src: &[Tuple], dst: &mut [Tuple], shift: RadixShift) -> Vec<usize> {
    assert_eq!(src.len(), dst.len(), "scatter needs an equal-sized destination");
    let mut counts = [0usize; BUCKETS];
    for t in src.iter() {
        counts[shift.bucket(t.key, RADIX_BITS)] += 1;
    }
    let mut bounds = vec![0usize; BUCKETS + 1];
    for b in 0..BUCKETS {
        bounds[b + 1] = bounds[b] + counts[b];
    }
    let mut heads: Vec<usize> = bounds[..BUCKETS].to_vec();
    for t in src.iter() {
        let b = shift.bucket(t.key, RADIX_BITS);
        dst[heads[b]] = *t;
        heads[b] += 1;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<Tuple> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Tuple::new(state >> 32, i as u64)
            })
            .collect()
    }

    fn assert_is_radix_partitioned(tuples: &[Tuple], bounds: &[usize], shift: RadixShift) {
        assert_eq!(bounds.len(), BUCKETS + 1);
        assert_eq!(bounds[BUCKETS], tuples.len());
        for b in 0..BUCKETS {
            for t in &tuples[bounds[b]..bounds[b + 1]] {
                assert_eq!(shift.bucket(t.key, RADIX_BITS), b, "tuple in wrong bucket");
            }
        }
    }

    #[test]
    fn partitions_respect_buckets() {
        let mut data = pseudo_random(10_000, 21);
        let (min, max) = key_range(&data).unwrap();
        let shift = RadixShift::for_range(min, max, RADIX_BITS);
        let bounds = msd_radix_partition(&mut data);
        assert_is_radix_partitioned(&data, &bounds, shift);
    }

    #[test]
    fn buckets_are_key_ordered() {
        let mut data = pseudo_random(10_000, 23);
        let bounds = msd_radix_partition(&mut data);
        // Max key of bucket b must not exceed min key of any later bucket.
        let mut prev_max = None;
        for b in 0..BUCKETS {
            let bucket = &data[bounds[b]..bounds[b + 1]];
            if bucket.is_empty() {
                continue;
            }
            let min = bucket.iter().map(|t| t.key).min().unwrap();
            let max = bucket.iter().map(|t| t.key).max().unwrap();
            if let Some(pm) = prev_max {
                assert!(min >= pm, "bucket order violated");
            }
            prev_max = Some(max);
        }
    }

    #[test]
    fn permutation_preserves_multiset() {
        let mut data = pseudo_random(5_000, 27);
        let mut before: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        msd_radix_partition(&mut data);
        let mut after: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn empty_input() {
        let bounds = msd_radix_partition(&mut []);
        assert_eq!(bounds, vec![0; BUCKETS + 1]);
    }

    #[test]
    fn all_equal_keys_land_in_one_bucket() {
        let mut data: Vec<Tuple> = (0..100).map(|i| Tuple::new(7, i)).collect();
        let bounds = msd_radix_partition(&mut data);
        let non_empty: Vec<usize> = (0..BUCKETS).filter(|&b| bounds[b + 1] > bounds[b]).collect();
        assert_eq!(non_empty.len(), 1);
    }

    #[test]
    fn narrow_range_spreads_over_buckets() {
        // Keys 0..=255 with bits=8 should occupy 256 distinct buckets.
        let mut data: Vec<Tuple> = (0..256u64).rev().map(|k| Tuple::new(k, 0)).collect();
        let bounds = msd_radix_partition(&mut data);
        let non_empty = (0..BUCKETS).filter(|&b| bounds[b + 1] > bounds[b]).count();
        assert_eq!(non_empty, 256);
        // And the pass alone fully sorts this input.
        assert!(crate::tuple::is_key_sorted(&data));
    }

    #[test]
    fn shift_for_range_clamps_top_bucket() {
        // A span that is not a power of two must still map max into the
        // last bucket, not beyond.
        let shift = RadixShift::for_range(10, 300, RADIX_BITS);
        assert!(shift.bucket(300, RADIX_BITS) < BUCKETS);
        assert_eq!(shift.bucket(10, RADIX_BITS), 0);
    }

    #[test]
    fn shift_for_single_key_range() {
        let shift = RadixShift::for_range(42, 42, RADIX_BITS);
        assert_eq!(shift.bucket(42, RADIX_BITS), 0);
    }

    #[test]
    fn single_key_domain_routes_everything_to_bucket_zero() {
        // The degenerate min == max early-out: stray keys above the base
        // must land in bucket 0, not be funneled into the top bucket by
        // the clamp.
        let shift = RadixShift::for_range(42, 42, RADIX_BITS);
        assert_eq!(shift.shift, 63);
        for key in [42u64, 43, 1000, 1 << 40, (1 << 62) + 41] {
            assert_eq!(shift.bucket(key, RADIX_BITS), 0, "key {key}");
        }
        // A partition pass over an all-equal slice stays a no-op.
        let mut data: Vec<Tuple> = (0..200).map(|i| Tuple::new(42, i)).collect();
        let before = data.clone();
        let bounds = msd_radix_partition(&mut data);
        assert_eq!(data, before);
        assert_eq!(bounds[1] - bounds[0], 200, "all tuples in bucket 0");
    }

    #[test]
    fn child_shift_covers_every_bucket_without_rescanning() {
        // Partition, then check each non-empty bucket against the shift
        // derived arithmetically: every key must land at or above the
        // child base and inside the child's 2^(shift + RADIX_BITS) span,
        // which is exactly what lets the recursion skip the re-scan.
        let mut data = pseudo_random(20_000, 41);
        let (min, max) = key_range(&data).unwrap();
        let shift = RadixShift::for_range(min, max, RADIX_BITS);
        let bounds = msd_radix_partition_with(&mut data, shift);
        for b in 0..BUCKETS {
            let bucket = &data[bounds[b]..bounds[b + 1]];
            if bucket.is_empty() {
                continue;
            }
            let child = shift.child(b, RADIX_BITS);
            assert_eq!(child.shift, shift.shift.saturating_sub(RADIX_BITS));
            for t in bucket {
                assert!(t.key >= child.base, "bucket {b}: key below child base");
                let span = t.key - child.base;
                assert!(
                    (span >> child.shift) >> RADIX_BITS == 0,
                    "bucket {b}: key {:#x} outside the derived child domain",
                    t.key
                );
            }
        }
    }

    #[test]
    fn scatter_agrees_with_inplace_pass_and_is_stable() {
        let mut inplace = pseudo_random(10_000, 43);
        let src = inplace.clone();
        let (min, max) = key_range(&src).unwrap();
        let shift = RadixShift::for_range(min, max, RADIX_BITS);
        let bounds_inplace = msd_radix_partition_with(&mut inplace, shift);
        let mut dst = vec![Tuple::new(0, 0); src.len()];
        let bounds = msd_radix_scatter(&src, &mut dst, shift);
        assert_eq!(bounds, bounds_inplace);
        assert_is_radix_partitioned(&dst, &bounds, shift);
        // Stability: within each bucket the source order (encoded in
        // the payloads) must be preserved — the collapse-retighten path
        // in the sort relies on it.
        for b in 0..BUCKETS {
            let bucket = &dst[bounds[b]..bounds[b + 1]];
            assert!(
                bucket.windows(2).all(|w| w[0].payload < w[1].payload),
                "bucket {b} not stable"
            );
        }
    }

    #[test]
    fn collapsed_scatter_is_an_exact_copy() {
        // All keys in one bucket: stability means dst == src verbatim,
        // which is what lets the sort re-tighten without a copy-back.
        let src: Vec<Tuple> = (0..500).map(|i| Tuple::new(7_000_000 + (i % 3), i)).collect();
        let shift = RadixShift::for_range(0, u64::MAX, RADIX_BITS);
        let mut dst = vec![Tuple::new(0, 0); src.len()];
        let bounds = msd_radix_scatter(&src, &mut dst, shift);
        assert_eq!(dst, src);
        let non_empty = (0..BUCKETS).filter(|&b| bounds[b + 1] > bounds[b]).count();
        assert_eq!(non_empty, 1);
    }

    #[test]
    fn full_domain_shift() {
        let shift = RadixShift::for_range(0, u64::MAX, RADIX_BITS);
        assert_eq!(shift.shift, 56);
        assert_eq!(shift.bucket(u64::MAX, RADIX_BITS), BUCKETS - 1);
        assert_eq!(shift.bucket(0, RADIX_BITS), 0);
    }
}
