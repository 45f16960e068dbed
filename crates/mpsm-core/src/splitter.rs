//! Cost-balanced splitter computation (§4.2–§4.3, Figure 10).
//!
//! Given the global radix histogram of the private input `R` (phase 2.2)
//! and the CDF of the public input `S` (phase 2.1), choose partition
//! bounds — *splitters* — that balance the per-worker
//!
//! ```text
//! split-relevant-cost_i =  |R_i| · log2(|R_i|)          (sort chunk R_i)
//!                        + T · |R_i|                    (process run R_i)
//!                        + CDF(R_i.high) − CDF(R_i.low) (relevant S data)
//! ```
//!
//! We minimize the *maximum* cost over all workers, the objective the
//! paper states ("we determine the partition bounds such that they
//! minimize the biggest cost split-relevant-cost_i"), with the classic
//! bottleneck trick the paper attributes to Ross & Cieslewicz \[23\]:
//! binary-search the bottleneck value and greedily check feasibility.
//! Splitters live on radix-bucket boundaries ("the boundaries are
//! determined at the radix granularity of R's histograms").

use crate::cdf::Cdf;
use crate::histogram::RadixDomain;

/// A bucket→partition assignment: monotone, `assignment[b]` is the
/// partition of radix bucket `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splitters {
    assignment: Vec<u32>,
    parts: usize,
}

impl Splitters {
    /// Build from an explicit assignment vector (must be monotone,
    /// starting at 0, with no gaps).
    pub fn from_assignment(assignment: Vec<u32>, parts: usize) -> Self {
        debug_assert!(assignment.windows(2).all(|w| w[0] <= w[1]), "assignment must be monotone");
        // Checked in release too: the assignment is caller input, and an
        // out-of-range partition would otherwise surface only later, as
        // an index panic where phase 2 sizes its partitions.
        assert!(
            assignment.iter().all(|&p| (p as usize) < parts),
            "assignment values must be < parts"
        );
        Splitters { assignment, parts }
    }

    /// Partition of radix bucket `b`.
    #[inline]
    pub fn partition_of_bucket(&self, b: usize) -> usize {
        self.assignment[b] as usize
    }

    /// Number of target partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The raw assignment vector (bucket → partition).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The bucket range `[lo, hi)` assigned to partition `p`.
    pub fn bucket_range(&self, p: usize) -> std::ops::Range<usize> {
        let lo = self.assignment.partition_point(|&a| (a as usize) < p);
        let hi = self.assignment.partition_point(|&a| (a as usize) <= p);
        lo..hi
    }

    /// The key range `[low, high)` of partition `p` under `domain`.
    pub fn key_range(&self, p: usize, domain: &RadixDomain) -> (u64, u64) {
        let r = self.bucket_range(p);
        if r.is_empty() {
            return (0, 0);
        }
        (domain.bucket_lower_bound(r.start), domain.bucket_upper_bound(r.end - 1))
    }
}

/// The paper's per-partition cost: sort + own-run processing + relevant
/// S data (all in tuple units; `log2` of an empty/1-tuple chunk is 0).
pub fn split_relevant_cost(r_count: f64, s_count: f64, threads: usize) -> f64 {
    let sort = if r_count > 1.0 { r_count * r_count.log2() } else { 0.0 };
    sort + threads as f64 * r_count + s_count
}

/// Compute cost-balanced splitters from the global R histogram and the
/// S CDF (P-MPSM phase 2.3).
pub fn compute_splitters(
    r_hist: &[usize],
    domain: &RadixDomain,
    cdf: &Cdf,
    parts: usize,
) -> Splitters {
    assert_eq!(r_hist.len(), domain.buckets(), "histogram width must match domain");
    assert!(parts > 0);
    let buckets = r_hist.len();

    // Per-bucket (r_count, s_estimate) — s via CDF probes at the bucket's
    // radix bounds, as in Figure 10.
    let bucket_cost: Vec<(f64, f64)> = (0..buckets)
        .map(|b| {
            let r = r_hist[b] as f64;
            let s = cdf
                .estimate_range(domain.bucket_lower_bound(b), domain.bucket_upper_bound(b))
                .max(0.0);
            (r, s)
        })
        .collect();

    // Feasibility: can the buckets be cut into ≤ `parts` contiguous
    // groups, each with cost ≤ limit?
    let groups_needed = |limit: f64| -> usize {
        let mut groups = 1usize;
        let mut r_acc = 0.0;
        let mut s_acc = 0.0;
        for &(r, s) in &bucket_cost {
            let cost = split_relevant_cost(r_acc + r, s_acc + s, parts);
            if cost > limit && (r_acc > 0.0 || s_acc > 0.0) {
                groups += 1;
                r_acc = r;
                s_acc = s;
            } else {
                r_acc += r;
                s_acc += s;
            }
        }
        groups
    };

    // Bottleneck binary search between "largest single bucket" and
    // "everything in one partition".
    let total_r: f64 = bucket_cost.iter().map(|c| c.0).sum();
    let total_s: f64 = bucket_cost.iter().map(|c| c.1).sum();
    let mut hi = split_relevant_cost(total_r, total_s, parts);
    let mut lo =
        bucket_cost.iter().map(|&(r, s)| split_relevant_cost(r, s, parts)).fold(0.0f64, f64::max);
    for _ in 0..64 {
        if hi - lo <= 1.0 || (hi - lo) / hi.max(1.0) < 1e-6 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if groups_needed(mid) <= parts {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Materialize the assignment at the feasible limit `hi`.
    let mut assignment = vec![0u32; buckets];
    let mut part = 0u32;
    let mut r_acc = 0.0;
    let mut s_acc = 0.0;
    for (b, &(r, s)) in bucket_cost.iter().enumerate() {
        let cost = split_relevant_cost(r_acc + r, s_acc + s, parts);
        if cost > hi && (r_acc > 0.0 || s_acc > 0.0) && (part as usize) < parts - 1 {
            part += 1;
            r_acc = r;
            s_acc = s;
        } else {
            r_acc += r;
            s_acc += s;
        }
        assignment[b] = part;
    }
    Splitters { assignment, parts }
}

/// Equi-height splitters balancing only `|R_i|` (ignoring S) — the
/// strawman of Figure 16a/b, used by the skew experiments to demonstrate
/// why cost-based splitters are necessary.
pub fn equi_height_splitters(r_hist: &[usize], parts: usize) -> Splitters {
    assert!(parts > 0);
    let total: usize = r_hist.iter().sum();
    let target = (total as f64 / parts as f64).max(1.0);
    let mut assignment = vec![0u32; r_hist.len()];
    let mut part = 0u32;
    let mut acc = 0usize;
    for (b, &c) in r_hist.iter().enumerate() {
        if acc as f64 + c as f64 > target * (part as f64 + 1.0)
            && acc > 0
            && (part as usize) < parts - 1
        {
            part += 1;
        }
        acc += c;
        assignment[b] = part;
    }
    Splitters { assignment, parts }
}

/// Evaluate the realized per-partition costs of an assignment (used by
/// tests and by the Figure 16 experiment to show balance).
pub fn partition_costs(
    splitters: &Splitters,
    r_hist: &[usize],
    domain: &RadixDomain,
    cdf: &Cdf,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(splitters.parts());
    for p in 0..splitters.parts() {
        let range = splitters.bucket_range(p);
        let r: usize = r_hist[range.clone()].iter().sum();
        let s = if range.is_empty() {
            0.0
        } else {
            cdf.estimate_range(
                domain.bucket_lower_bound(range.start),
                domain.bucket_upper_bound(range.end - 1),
            )
        };
        out.push(split_relevant_cost(r as f64, s, splitters.parts()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::equi_height_bounds;
    use crate::tuple::Tuple;

    fn uniform_cdf(n: usize, max_key: u64) -> Cdf {
        let run: Vec<Tuple> =
            (0..n).map(|i| Tuple::new(i as u64 * max_key / n as u64, 0)).collect();
        Cdf::from_local_bounds(&[(equi_height_bounds(&run, 64), n)])
    }

    #[test]
    fn uniform_inputs_give_balanced_partitions() {
        let domain = RadixDomain::from_range(0, 1023, 6); // 64 buckets
        let r_hist = vec![100usize; 64];
        let cdf = uniform_cdf(6400, 1024);
        let sp = compute_splitters(&r_hist, &domain, &cdf, 4);
        let costs = partition_costs(&sp, &r_hist, &domain, &cdf);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.5, "uniform split should be balanced: {costs:?}");
        // All four partitions used.
        assert_eq!(sp.partition_of_bucket(63), 3);
    }

    #[test]
    fn assignment_is_monotone_and_complete() {
        let domain = RadixDomain::from_range(0, 999, 5);
        let r_hist: Vec<usize> = (0..32).map(|b| (b * 7) % 50).collect();
        let cdf = uniform_cdf(1000, 1000);
        let sp = compute_splitters(&r_hist, &domain, &cdf, 8);
        assert!(sp.assignment().windows(2).all(|w| w[0] <= w[1]));
        assert!(sp.assignment().iter().all(|&p| p < 8));
    }

    #[test]
    fn skewed_r_shrinks_heavy_partitions() {
        // 80% of R mass in the top 20% of buckets.
        let buckets = 64usize;
        let mut r_hist = vec![10usize; buckets];
        for c in r_hist.iter_mut().skip(buckets * 4 / 5) {
            *c = 300;
        }
        let domain = RadixDomain::from_range(0, (buckets as u64) * 16 - 1, 6);
        let cdf = uniform_cdf(6400, (buckets as u64) * 16);
        let sp = compute_splitters(&r_hist, &domain, &cdf, 4);
        // The heavy tail must be cut into more partitions than the light
        // head: partition of the last bucket is 3, and the first
        // partition must cover many more buckets than the last.
        let first = sp.bucket_range(0).len();
        let last = sp.bucket_range(3).len();
        assert!(first > last, "light head {first} buckets vs heavy tail {last} buckets");
        let costs = partition_costs(&sp, &r_hist, &domain, &cdf);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
        assert!(max / min < 3.0, "cost balance under skew: {costs:?}");
    }

    #[test]
    fn negatively_correlated_skew_balances_combined_cost() {
        // Figure 16: R skewed high, S skewed low.
        let buckets = 64usize;
        let mut r_hist = vec![5usize; buckets];
        for c in r_hist.iter_mut().skip(buckets * 4 / 5) {
            *c = 400; // R mass high
        }
        // S mass low: CDF with steep start.
        let mut s_keys: Vec<Tuple> = Vec::new();
        for i in 0..8000u64 {
            s_keys.push(Tuple::new(i % 200, 0)); // low band
        }
        for i in 0..2000u64 {
            s_keys.push(Tuple::new(200 + (i % 824), 0));
        }
        s_keys.sort_unstable_by_key(|t| t.key);
        let cdf = Cdf::from_local_bounds(&[(equi_height_bounds(&s_keys, 128), s_keys.len())]);
        let domain = RadixDomain::from_range(0, 1023, 6);

        let balanced = compute_splitters(&r_hist, &domain, &cdf, 4);
        let naive = equi_height_splitters(&r_hist, 4);
        let b_costs = partition_costs(&balanced, &r_hist, &domain, &cdf);
        let n_costs = partition_costs(&naive, &r_hist, &domain, &cdf);
        let bottleneck = |c: &[f64]| c.iter().cloned().fold(0.0, f64::max);
        assert!(
            bottleneck(&b_costs) <= bottleneck(&n_costs),
            "cost-based splitters must not be worse than equi-height: {b_costs:?} vs {n_costs:?}"
        );
    }

    #[test]
    fn single_partition_takes_everything() {
        let domain = RadixDomain::from_range(0, 255, 4);
        let r_hist = vec![10usize; 16];
        let cdf = uniform_cdf(160, 256);
        let sp = compute_splitters(&r_hist, &domain, &cdf, 1);
        assert!(sp.assignment().iter().all(|&p| p == 0));
    }

    #[test]
    fn more_partitions_than_occupied_buckets() {
        let domain = RadixDomain::from_range(0, 255, 2); // 4 buckets
        let r_hist = vec![5, 0, 0, 5];
        let cdf = uniform_cdf(10, 256);
        let sp = compute_splitters(&r_hist, &domain, &cdf, 8);
        // Monotone, within range; empty partitions are fine.
        assert!(sp.assignment().windows(2).all(|w| w[0] <= w[1]));
        assert!(sp.assignment().iter().all(|&p| p < 8));
    }

    #[test]
    fn bucket_and_key_ranges_agree() {
        let domain = RadixDomain::from_range(0, 1023, 4); // 16 buckets à 64 keys
        let sp =
            Splitters::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3], 4);
        assert_eq!(sp.bucket_range(1), 4..8);
        let (lo, hi) = sp.key_range(1, &domain);
        assert_eq!(lo, 4 * 64);
        assert_eq!(hi, 8 * 64);
        let (_, last_hi) = sp.key_range(3, &domain);
        assert_eq!(last_hi, u64::MAX, "top partition is open-ended");
    }

    #[test]
    fn cost_formula_matches_paper_terms() {
        // |R_i| = 8, T = 4, S range = 20:
        // 8·log2(8) + 4·8 + 20 = 24 + 32 + 20 = 76.
        assert_eq!(split_relevant_cost(8.0, 20.0, 4), 76.0);
        assert_eq!(split_relevant_cost(0.0, 0.0, 4), 0.0);
        assert_eq!(split_relevant_cost(1.0, 0.0, 4), 4.0, "log term vanishes at 1");
    }

    #[test]
    fn equi_height_balances_r_cardinality() {
        let r_hist = vec![10usize; 40];
        let sp = equi_height_splitters(&r_hist, 4);
        for p in 0..4 {
            let r: usize = r_hist[sp.bucket_range(p)].iter().sum();
            assert_eq!(r, 100, "equal R share per partition");
        }
    }
}
