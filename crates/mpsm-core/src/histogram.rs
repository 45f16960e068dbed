//! Radix histograms and synchronization-free prefix sums (§3.2.1).
//!
//! P-MPSM redistributes the private input with a scheme that is
//! *branch-free, comparison-free, and synchronization-free*:
//!
//! 1. every worker radix-clusters its chunk on the highest `B` bits of
//!    the (shift-normalized) join key, producing a local histogram;
//! 2. the local histograms are combined into prefix sums
//!    `ps_i[j] = Σ_{k<i} h_k[j]` — the exact start position of worker
//!    `i`'s sub-partition inside target run `j` (Figure 6);
//! 3. every worker then scatters sequentially into its precomputed,
//!    disjoint windows — no latch, no atomic, no cache-line ping-pong.
//!
//! The histogram granularity `B` also drives skew handling: more bits
//! give the splitter computation (§4.2) a finer view of the key
//! distribution at almost no cost (Figure 9).

use crate::sort::radix::RadixShift;
use crate::tuple::Tuple;

/// A radix bucketing of a key domain: `2^bits` buckets over
/// `[min, max]`, bucket of `key` = `(key - base) >> shift` (clamped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixDomain {
    shift: RadixShift,
    bits: u32,
}

impl RadixDomain {
    /// Build a domain for `bits` leading bits over the observed
    /// key range `[min, max]`.
    pub fn from_range(min: u64, max: u64, bits: u32) -> Self {
        assert!(bits > 0 && bits <= 32, "radix bits out of range: {bits}");
        RadixDomain { shift: RadixShift::for_range(min, max, bits), bits }
    }

    /// Scan `relations` for their combined key range and build the
    /// domain from it. Empty input yields a 1-bucket domain over `\[0,0\]`.
    pub fn from_tuples<'a>(relations: impl IntoIterator<Item = &'a [Tuple]>, bits: u32) -> Self {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut any = false;
        for rel in relations {
            for t in rel {
                min = min.min(t.key);
                max = max.max(t.key);
                any = true;
            }
        }
        if !any {
            (min, max) = (0, 0);
        }
        Self::from_range(min, max, bits)
    }

    /// Number of buckets (`2^bits`).
    pub fn buckets(&self) -> usize {
        1usize << self.bits
    }

    /// Number of leading bits used.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The `(key - base) >> shift` map behind [`RadixDomain::bucket_of`]:
    /// its [`Span::of_bucket`](crate::sort::radix::Span::of_bucket) of
    /// bucket `b` holds `b`'s keys, so the sort needs no scan. At shift
    /// 0 every bucket holds a single key value.
    pub fn shift(&self) -> RadixShift {
        self.shift
    }

    /// Bucket index of `key`.
    #[inline]
    pub fn bucket_of(&self, key: u64) -> usize {
        if key <= self.shift.base {
            return 0;
        }
        (((key - self.shift.base) >> self.shift.shift) as usize).min(self.buckets() - 1)
    }

    /// Smallest key that maps to bucket `b` (the bucket's lower bound).
    pub fn bucket_lower_bound(&self, b: usize) -> u64 {
        self.shift.base.saturating_add((b as u64) << self.shift.shift)
    }

    /// One-past-the-largest key of bucket `b` (saturating at `u64::MAX`).
    pub fn bucket_upper_bound(&self, b: usize) -> u64 {
        if b + 1 >= self.buckets() {
            u64::MAX
        } else {
            self.bucket_lower_bound(b + 1)
        }
    }
}

/// Histogram of one chunk over the domain's buckets.
pub fn compute_histogram(chunk: &[Tuple], domain: &RadixDomain) -> Vec<usize> {
    let mut counts = vec![0usize; domain.buckets()];
    for t in chunk {
        counts[domain.bucket_of(t.key)] += 1;
    }
    counts
}

/// Fold a bucket histogram into a partition histogram using a
/// bucket→partition `assignment` (monotone, from the splitter phase).
pub fn fold_histogram(bucket_hist: &[usize], assignment: &[u32], parts: usize) -> Vec<usize> {
    assert_eq!(bucket_hist.len(), assignment.len());
    let mut out = vec![0usize; parts];
    for (count, &part) in bucket_hist.iter().zip(assignment) {
        out[part as usize] += count;
    }
    out
}

/// Element-wise sum of per-worker histograms (the global histogram).
pub fn combine_histograms(histograms: &[Vec<usize>]) -> Vec<usize> {
    let Some(first) = histograms.first() else {
        return Vec::new();
    };
    let mut out = vec![0usize; first.len()];
    for h in histograms {
        assert_eq!(h.len(), out.len(), "histogram widths differ");
        for (o, c) in out.iter_mut().zip(h) {
            *o += c;
        }
    }
    out
}

/// The paper's prefix sums (Figure 6): `ps[i][j] = Σ_{k<i} h_k[j]` is
/// the start offset of worker `i`'s sub-partition within target run `j`.
pub fn prefix_sums(histograms: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let workers = histograms.len();
    if workers == 0 {
        return Vec::new();
    }
    let width = histograms[0].len();
    let mut ps = vec![vec![0usize; width]; workers];
    for i in 1..workers {
        for j in 0..width {
            ps[i][j] = ps[i - 1][j] + histograms[i - 1][j];
        }
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().map(|&k| Tuple::new(k, k)).collect()
    }

    #[test]
    fn paper_figure_6_example() {
        // Figure 6: 5-bit join keys in [0, 32), B = 1 bit → 2 buckets
        // split at 16.
        let domain = RadixDomain::from_range(0, 31, 1);
        let c1 = tuples(&[19, 7, 3, 21, 1, 17, 4]);
        let c2 = tuples(&[2, 23, 4, 31, 8, 20, 26]);
        let h1 = compute_histogram(&c1, &domain);
        let h2 = compute_histogram(&c2, &domain);
        assert_eq!(h1, vec![4, 3], "C1: four < 16, three >= 16");
        assert_eq!(h2, vec![3, 4], "C2: three < 16, four >= 16");
        let ps = prefix_sums(&[h1.clone(), h2.clone()]);
        assert_eq!(ps[0], vec![0, 0], "W1 scatters from position 0");
        assert_eq!(ps[1], vec![4, 3], "W2 starts after W1's counts (paper: ps2)");
        assert_eq!(combine_histograms(&[h1, h2]), vec![7, 7]);
    }

    #[test]
    fn bucket_of_respects_bounds() {
        let domain = RadixDomain::from_range(0, (1 << 32) - 1, 10);
        assert_eq!(domain.buckets(), 1024);
        assert_eq!(domain.bucket_of(0), 0);
        assert_eq!(domain.bucket_of((1 << 32) - 1), 1023);
        // Monotone.
        let mut prev = 0;
        for key in (0u64..1 << 32).step_by(1 << 26) {
            let b = domain.bucket_of(key);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        let domain = RadixDomain::from_range(1000, 9000, 4);
        for b in 0..domain.buckets() {
            let lo = domain.bucket_lower_bound(b);
            if b > 0 {
                assert_eq!(domain.bucket_of(lo), b, "lower bound maps into its own bucket");
            }
            let hi = domain.bucket_upper_bound(b);
            assert!(hi > lo);
        }
        assert_eq!(domain.bucket_upper_bound(domain.buckets() - 1), u64::MAX);
    }

    #[test]
    fn keys_below_base_clamp_to_bucket_zero() {
        let domain = RadixDomain::from_range(100, 200, 3);
        assert_eq!(domain.bucket_of(5), 0);
    }

    #[test]
    fn from_tuples_scans_all_relations() {
        let a = tuples(&[50, 60]);
        let b = tuples(&[10, 90]);
        let domain = RadixDomain::from_tuples([a.as_slice(), b.as_slice()], 2);
        assert_eq!(domain.bucket_of(10), 0);
        // The max key lands in a high (not necessarily the last) bucket:
        // the shift guarantees the span fits, not that it fills.
        assert!(domain.bucket_of(90) >= domain.buckets() / 2);
        assert!(domain.bucket_of(90) < domain.buckets());
    }

    #[test]
    fn empty_relations_make_trivial_domain() {
        let domain = RadixDomain::from_tuples(std::iter::empty::<&[Tuple]>(), 4);
        // Degenerate [0, 0] domain: any key clamps into a valid bucket.
        assert!(domain.bucket_of(123) < domain.buckets());
        assert_eq!(domain.bucket_of(0), 0);
    }

    #[test]
    fn fold_maps_buckets_to_partitions() {
        let bucket_hist = vec![5, 3, 2, 1];
        let assignment = vec![0, 0, 1, 1];
        assert_eq!(fold_histogram(&bucket_hist, &assignment, 2), vec![8, 3]);
    }

    #[test]
    fn prefix_sums_are_exclusive_running_totals() {
        let hs = vec![vec![2, 1], vec![3, 4], vec![1, 1]];
        let ps = prefix_sums(&hs);
        assert_eq!(ps, vec![vec![0, 0], vec![2, 1], vec![5, 5]]);
    }

    #[test]
    fn combine_histograms_sums_columns() {
        let hs = vec![vec![1, 2, 3], vec![4, 5, 6]];
        assert_eq!(combine_histograms(&hs), vec![5, 7, 9]);
    }

    #[test]
    fn histogram_counts_every_tuple() {
        let domain = RadixDomain::from_range(0, 1023, 6);
        let chunk: Vec<Tuple> = (0..1024u64).map(|k| Tuple::new(k, 0)).collect();
        let h = compute_histogram(&chunk, &domain);
        assert_eq!(h.iter().sum::<usize>(), 1024);
        assert_eq!(h.len(), 64);
        assert!(h.iter().all(|&c| c == 16), "uniform keys spread uniformly");
    }
}
