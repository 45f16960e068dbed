//! The MSD radix pass — phase 1 of the paper's sorting routine — in
//! its two forms (the shift from the observed key range is the
//! bitwise-shift preprocessing mentioned in §3.2.1):
//!
//! * [`radix_scatter`], out of place and stable, over one digit of up
//!   to [`MAX_DIGIT_BITS`] bits: the one scatter kernel every
//!   production sort runs, at the top level straight off the input (8
//!   bits, as in the paper) and at every level of the descent, whose
//!   digits [`Span::digit`] sizes from the bucket they split (see the
//!   `sort` module docs);
//! * [`msd_radix_partition`], the paper's literal in-place
//!   American-flag / cycle-leader permutation (after Knuth \[18\]) over
//!   256 buckets, which only the reference
//!   [`crate::sort::three_phase_sort_naive`] still runs.
//!
//! Either way the buckets come out in key order, so sorting each bucket
//! yields a totally ordered run.

use std::ops::Range;

use crate::sort::{MAX_DIGIT_BITS, RADIX_BITS};
use crate::tuple::{key_range, Tuple};

/// Number of radix buckets of the in-place pass (256, as in the paper).
pub const BUCKETS: usize = 1 << RADIX_BITS;

/// Buckets of the widest digit [`radix_scatter`] takes.
const MAX_BUCKETS: usize = 1 << MAX_DIGIT_BITS;

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
}

/// The keys `[base, base + 2^bits)` a bucket can hold: all the descent
/// knows about a bucket, and all it needs to split it, without a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The smallest key the span admits.
    pub base: u64,
    /// Key bits left to discriminate (at most 64).
    pub bits: u32,
}

impl Span {
    /// The narrowest span holding every key of `[min, max]`.
    pub fn of_range(min: u64, max: u64) -> Span {
        debug_assert!(min <= max);
        Span { base: min, bits: 64 - (max - min).leading_zeros() }
    }

    /// The span of bucket `b` of a scatter or partition on `shift`:
    /// base `base + (b << shift)`, `shift` bits wide. A partition on
    /// `shift` confines bucket `b`'s keys there — for the top bucket of
    /// a [`RadixShift::for_range`] domain too, which guarantees the
    /// whole domain fits its buckets — so the descent never re-scans.
    ///
    /// Only call this for a bucket that **contains a key**: the base is
    /// then bounded by that key, so the sum cannot overflow. For empty
    /// high buckets of a near-`u64::MAX` domain it can, so the callers
    /// skip trivial buckets before deriving their spans.
    #[inline]
    pub fn of_bucket(shift: RadixShift, b: usize) -> Span {
        Span { base: shift.base + ((b as u64) << shift.shift), bits: shift.shift }
    }

    /// The digit that splits a bucket of `len` tuples over this span:
    /// `clamp(ceil_log2(len) − 2, 8, MAX_DIGIT_BITS)` bits, capped at
    /// the span's. The children then hold two to four tuples each on
    /// uniform keys (more above 2^13 tuples, where the digit stops
    /// widening), and a bucket of at most 1 024 tuples takes the
    /// paper's 8 bits. Returns the shift and the width for
    /// [`radix_scatter`]; at shift 0 the scatter orders the bucket by
    /// exact key value.
    #[inline]
    pub fn digit(self, len: usize) -> (RadixShift, u32) {
        debug_assert!(self.bits > 0, "a zero-bit span holds one key and needs no digit");
        let ceil_log2 = usize::BITS - len.saturating_sub(1).leading_zeros();
        let bits = ceil_log2.saturating_sub(2).clamp(RADIX_BITS, MAX_DIGIT_BITS).min(self.bits);
        (RadixShift { base: self.base, shift: self.bits - bits }, bits)
    }
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
    // 1. Histogram.
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
    // which matters because every hop is a cache miss at scale.
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
            }
        }
    }
    bounds
}

/// Where one [`radix_scatter`] put each of its `2^bits` buckets.
pub struct Buckets {
    /// `ends[b]` is one past the last slot of bucket `b`.
    ends: [u32; MAX_BUCKETS],
    buckets: usize,
}

impl Buckets {
    /// The non-empty buckets in key order: `(bucket, slots)`.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut start = 0;
        self.ends[..self.buckets].iter().enumerate().filter_map(move |(b, &end)| {
            let slots = start..end as usize;
            start = slots.end;
            (!slots.is_empty()).then_some((b, slots))
        })
    }

    /// Whether one bucket holds every tuple (the pass split nothing).
    pub fn collapsed(&self) -> bool {
        let total = self.ends[self.buckets - 1] as usize;
        self.ranges().next().is_some_and(|(_, slots)| slots.len() == total)
    }
}

/// Out-of-place, stable MSD radix scatter of `src` into the
/// equal-length `dst` on the digit `((key - base) >> shift) & mask`, for
/// a `bits`-bit digit (at most [`MAX_DIGIT_BITS`]): count into `u32`
/// counters, turn them into bucket starts, then stream `src` into
/// `dst` bucket-ordered.
///
/// This is the sort's one scatter kernel, top level and descent alike:
/// the in-place cycle-leader permutation above reads *and* writes at
/// random addresses and each hop serially depends on the carried tuple,
/// so at scale the core stalls on one cache miss at a time. The scatter
/// reads sequentially (hardware-prefetched) and writes to `2^bits`
/// independent streams the store buffer can overlap — at the price of
/// an equal-sized aux buffer, which the callers ping-pong so even-depth
/// recursions land back in place with zero extra copies.
///
/// Every key must lie in the `2^(shift + bits)` keys above `base`, as
/// [`RadixShift::for_range`] and [`Span::digit`] guarantee; the mask
/// only keeps the counter index in bounds. The scatter is **stable**
/// (bucket-internal order preserved), which the collapse-retighten path
/// in the caller relies on: a pass that lands in a single bucket leaves
/// `dst` an exact copy of `src`.
///
/// # Panics
/// Panics if `src` and `dst` differ in length, `src` holds more than
/// `u32::MAX` tuples, or `bits` exceeds [`MAX_DIGIT_BITS`].
pub fn radix_scatter(src: &[Tuple], dst: &mut [Tuple], shift: RadixShift, bits: u32) -> Buckets {
    assert_eq!(src.len(), dst.len(), "scatter needs an equal-sized destination");
    assert!(u32::try_from(src.len()).is_ok(), "scatter counters are 32-bit");
    assert!(bits <= MAX_DIGIT_BITS, "digit of {bits} bits is wider than the scatter");
    let mut out = Buckets { ends: [0; MAX_BUCKETS], buckets: 1 << bits };
    let mask = out.buckets - 1;
    let digit = |key: u64| {
        debug_assert!((key - shift.base) >> shift.shift >> bits == 0, "key outside the digit");
        (((key - shift.base) >> shift.shift) as usize) & mask
    };
    let heads = &mut out.ends[..out.buckets];
    for t in src {
        heads[digit(t.key)] += 1;
    }
    let mut start = 0;
    for head in heads.iter_mut() {
        (*head, start) = (start, start + *head);
    }
    for t in src {
        let head = &mut heads[digit(t.key)];
        dst[*head as usize] = *t;
        *head += 1;
    }
    out
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

    /// Bucket starts of a scatter in the in-place pass's layout.
    fn starts(buckets: &Buckets, n: usize) -> Vec<usize> {
        let mut bounds = vec![0; buckets.buckets + 1];
        for (b, slots) in buckets.ranges() {
            bounds[b] = slots.start;
            bounds[b + 1] = slots.end;
        }
        for b in 1..bounds.len() {
            bounds[b] = bounds[b].max(bounds[b - 1]);
        }
        bounds[buckets.buckets] = n;
        bounds
    }

    #[test]
    fn sized_digit_children_cover_every_bucket_without_rescanning() {
        // Scatter buckets of every digit width, then check each
        // non-empty bucket against the span derived arithmetically:
        // every key must land at or above the child base and inside
        // the child's 2^bits span, which is exactly what lets the
        // descent skip the re-scan.
        for (n, bits) in [(1_024, 8), (1_025, 9), (2_049, 10), (4_097, 11), (1 << 16, 11)] {
            let src = pseudo_random(n, 41 + n as u64);
            let (min, max) = key_range(&src).unwrap();
            let (shift, digit_bits) = Span::of_range(min, max).digit(n);
            assert_eq!(digit_bits, bits, "{n} tuples");
            let mut dst = vec![Tuple::new(0, 0); n];
            let buckets = radix_scatter(&src, &mut dst, shift, digit_bits);
            for (b, slots) in buckets.ranges() {
                let child = Span::of_bucket(shift, b);
                assert_eq!(child.bits, shift.shift);
                for t in &dst[slots] {
                    assert!(t.key >= child.base, "bucket {b}: key below child base");
                    assert!(
                        (t.key - child.base) >> child.bits == 0,
                        "bucket {b}: key {:#x} outside the derived child span",
                        t.key
                    );
                }
            }
        }
    }

    #[test]
    fn digit_width_follows_the_bucket_and_the_span() {
        let wide = Span { base: 0, bits: 32 };
        for (len, bits) in [(65, 8), (1_024, 8), (1_025, 9), (2_048, 9), (2_049, 10), (8_192, 11)] {
            assert_eq!(wide.digit(len), (RadixShift { base: 0, shift: 32 - bits }, bits), "{len}");
        }
        assert_eq!(wide.digit(1 << 20).1, MAX_DIGIT_BITS);
        // A narrow span caps the digit and ends the descent at shift 0.
        let narrow = Span { base: 7, bits: 5 };
        assert_eq!(narrow.digit(1 << 20), (RadixShift { base: 7, shift: 0 }, 5));
        assert_eq!(Span::of_range(9, 9), Span { base: 9, bits: 0 });
        assert_eq!(Span::of_range(0, u64::MAX), Span { base: 0, bits: 64 });
        // The highest bucket of an 11-bit digit over the top of the key
        // domain rebases to within one bucket of u64::MAX.
        let top = RadixShift { base: u64::MAX - ((1 << 20) - 1), shift: 9 };
        assert_eq!(Span::of_bucket(top, 2_047), Span { base: u64::MAX - 511, bits: 9 });
    }

    #[test]
    fn scatter_agrees_with_inplace_pass_and_is_stable() {
        let mut inplace = pseudo_random(10_000, 43);
        let src = inplace.clone();
        let (min, max) = key_range(&src).unwrap();
        let shift = RadixShift::for_range(min, max, RADIX_BITS);
        let bounds_inplace = msd_radix_partition_with(&mut inplace, shift);
        let mut dst = vec![Tuple::new(0, 0); src.len()];
        let buckets = radix_scatter(&src, &mut dst, shift, RADIX_BITS);
        let bounds = starts(&buckets, src.len());
        assert_eq!(bounds, bounds_inplace);
        assert_is_radix_partitioned(&dst, &bounds, shift);
        // Stability: within each bucket the source order (encoded in
        // the payloads) must be preserved — the collapse-retighten path
        // in the sort relies on it.
        for (b, slots) in buckets.ranges() {
            assert!(
                dst[slots].windows(2).all(|w| w[0].payload < w[1].payload),
                "bucket {b} not stable"
            );
        }
    }

    #[test]
    fn collapsed_scatter_is_an_exact_copy() {
        // All keys in one bucket: stability means dst == src verbatim,
        // which is what lets the sort re-tighten without a copy-back.
        let src: Vec<Tuple> = (0..500).map(|i| Tuple::new(7_000_000 + (i % 3), i)).collect();
        for bits in [RADIX_BITS, MAX_DIGIT_BITS] {
            let shift = RadixShift { base: 0, shift: 64 - bits };
            let mut dst = vec![Tuple::new(0, 0); src.len()];
            let buckets = radix_scatter(&src, &mut dst, shift, bits);
            assert_eq!(dst, src);
            assert!(buckets.collapsed());
            assert_eq!(buckets.ranges().count(), 1);
        }
    }

    #[test]
    fn full_domain_shift() {
        let shift = RadixShift::for_range(0, u64::MAX, RADIX_BITS);
        assert_eq!(shift.shift, 56);
        assert_eq!(shift.bucket(u64::MAX, RADIX_BITS), BUCKETS - 1);
        assert_eq!(shift.bucket(0, RADIX_BITS), 0);
    }
}
