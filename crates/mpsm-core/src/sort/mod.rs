//! The paper's three-phase sorting routine (§2.3).
//!
//! > "we developed our own three-phase sorting algorithm that operates
//! > as follows: 1. in-place Radix sort that generates 2^8 = 256
//! > partitions according to the 8 most significant bits. [...]
//! > 2. IntroSort: use Quicksort to at most 2·log(N) recursion levels;
//! > if this does not suffice, resort to heapsort. As soon as a
//! > quicksort partition contains less than 16 elements stop and leave
//! > it to a final insertion sort pass to obtain the total ordering."
//!
//! The entry point is [`three_phase_sort`]. The phases are exposed
//! individually ([`radix::msd_radix_partition`], [`intro::introsort_coarse`],
//! [`insertion::insertion_sort`]) because the benchmark harness ablates
//! them and because the radix pass doubles as the histogram pass of the
//! partitioning phase.
//!
//! Cache-conscious refinements over the paper's literal recipe:
//!
//! * **Recursive radix pass.** A bucket larger than [`NETWORK_BLOCK`]
//!   recurses the radix pass instead of going to a comparison sort: one
//!   O(n) counting pass + scatter replaces a digit's worth of quicksort
//!   levels of branchy comparisons. Every level runs the same stable
//!   out-of-place kernel, [`radix::radix_scatter`]. The top level takes
//!   the paper's 8 bits, so the scatter from memory writes 256 streams;
//!   below it a bucket is cache-resident and [`radix::Span::digit`]
//!   sizes its digit from its length — `clamp(ceil_log2(len) − 2, 8,
//!   11)` bits ([`MAX_DIGIT_BITS`] is the 11), capped at the bits its
//!   key span has left — so one pass splits it into leaves of about
//!   four tuples (a bucket of at most 1 024 tuples takes 8 bits). A
//!   child's key span, `(base, bits)`, is derived arithmetically from
//!   its parent's digit ([`radix::Span::of_bucket`]) — no re-scan. The
//!   descent ends on its own: every level consumes real key bits, a
//!   digit at shift 0 leaves single-key buckets, a pass that collapses
//!   into one bucket re-tightens its span with one range scan, and a
//!   single-key bucket returns. It scatters out of place into a
//!   per-worker ping-pong buffer (sequential reads, independent write
//!   streams) rather than the American-flag in-place permutation, whose
//!   displacement chain serializes on one cache miss at a time;
//!   even-depth recursions land back in place with zero extra copies.
//! * **Sort from the source.** [`three_phase_sort_into`] takes its top
//!   level straight from a read-only input into the destination run and
//!   descends each top bucket in place there, so building a sorted copy
//!   costs no copy pass and only a top-bucket-sized scratch.
//! * **Sort from the scatter.** The private side's range-partition
//!   scatter already lays each partition out bucket-major over its fine
//!   histogram buckets, so [`sort_bucket_major`] skips the scan, the
//!   histogram and the top scatter and only descends each fine bucket
//!   in place, through a scratch as wide as the widest bucket.
//! * **Per-bucket finishing.** The finisher runs per radix
//!   bucket, immediately after that bucket lands, while the bucket
//!   (≤ 1 KiB) is still cache-hot — instead of one global pass that
//!   re-streams the whole (multi-MiB) array from memory. The seed's
//!   global-pass variant is retained as [`three_phase_sort_naive`],
//!   the reference the equivalence tests compare against.
//! * **Network leaf.** That finisher is one exact-size, branch-free
//!   odd-even network per bucket ([`network::network_sort_exact`]),
//!   mostly of a handful of tuples under sized digits; no comparison
//!   sort sits between the descent and the network. The paper's
//!   introsort + insertion survives in the references
//!   [`three_phase_sort_naive`] and [`introsort_only`].
//!
//! Keys may occupy any sub-range of the 64-bit domain (the paper's
//! evaluation draws them from `[0, 2^32)`), so the radix pass first
//! derives a shift from the observed key range — the "preprocessing of
//! the join keys using bitwise shift operations" of §3.2.1.

pub mod insertion;
pub mod intro;
pub mod network;
pub mod radix;

use std::cell::RefCell;

use crate::tuple::Tuple;

/// Number of leading bits (and thus `2^RADIX_BITS` buckets) used by the
/// first phase, as in the paper: the top level's digit, and the
/// narrowest digit of the descent.
pub const RADIX_BITS: u32 = 8;

/// The widest digit of the descent: a cache-resident bucket of 2^13
/// tuples or more splits 2^11 ways in one pass
/// ([`radix::Span::digit`]).
pub const MAX_DIGIT_BITS: u32 = 11;

/// Quicksort partitions smaller than this are left to the final
/// insertion pass, as in the paper.
pub const INSERTION_CUTOFF: usize = 16;

/// The radix descent's leaf size: a bucket of at most this many tuples
/// is sorted by its exact-size odd-even network
/// ([`network::network_sort_exact`]); a larger one scatters again.
/// ARCHITECTURE.md, "The sort", has the pricing behind the value.
pub const NETWORK_BLOCK: usize = 64;

/// The ping-pong buffer of the out-of-place radix descent: grows to the
/// largest span sorted through it and stays, so a caller that keeps one
/// scratch alive pays for it once. That span is the largest top-level
/// bucket — about `n / 256` on uniform keys — for
/// [`three_phase_sort_into`] (`ExecContext::sorted_run`, every phase-1
/// run), and the widest fine bucket for [`sort_bucket_major`]
/// (`ExecContext::sort_partition`, every range-partitioned run). Only
/// the in-place [`three_phase_sort_with`] grows it to the whole run.
/// An `ExecContext`'s machine keeps one per pool worker, shared by the
/// contexts `per_query` / `pinned_to` derive from it.
#[derive(Debug, Default)]
pub struct SortScratch {
    aux: Vec<Tuple>,
}

impl SortScratch {
    /// Empty scratch; the buffer grows on first use and is then reused.
    pub fn new() -> Self {
        SortScratch::default()
    }

    /// Tuples the buffer holds.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.aux.len()
    }

    /// The first `len` slots, growing the buffer to `len` if it is
    /// shorter.
    fn head(&mut self, len: usize) -> &mut [Tuple] {
        if self.aux.len() < len {
            self.aux.resize(len, Tuple::new(0, 0));
        }
        &mut self.aux[..len]
    }
}

thread_local! {
    /// Scratch for the classic (non-`ExecContext`) entry points, so
    /// callers of the plain [`three_phase_sort`] reuse one ping-pong
    /// buffer per thread. Executor paths thread per-worker scratch
    /// explicitly instead.
    static TLS_SCRATCH: RefCell<SortScratch> = RefCell::new(SortScratch::new());
}

/// Sort `tuples` by key with the paper's three-phase algorithm, using
/// a thread-local scratch. Recurses the radix pass until every bucket
/// fits one network and finishes each bucket while it is cache-hot.
///
/// ```
/// use mpsm_core::sort::three_phase_sort;
/// use mpsm_core::Tuple;
///
/// let mut run: Vec<Tuple> = [9u64, 2, 7, 2, 0]
///     .iter()
///     .enumerate()
///     .map(|(i, &k)| Tuple::new(k, i as u64))
///     .collect();
/// three_phase_sort(&mut run);
/// let keys: Vec<u64> = run.iter().map(|t| t.key).collect();
/// assert_eq!(keys, vec![0, 2, 2, 7, 9]);
/// ```
pub fn three_phase_sort(tuples: &mut [Tuple]) {
    TLS_SCRATCH.with(|s| three_phase_sort_with(tuples, &mut s.borrow_mut()));
}

/// [`three_phase_sort`] in place with caller scratch, which grows to
/// the whole run (`ExecContext::sort_run`, which only the benchmark's
/// sort probe calls, threads its per-worker [`SortScratch`] through
/// here).
pub fn three_phase_sort_with(tuples: &mut [Tuple], scratch: &mut SortScratch) {
    if tuples.len() <= INSERTION_CUTOFF {
        insertion::insertion_sort(tuples);
        return;
    }
    let aux = scratch.head(tuples.len());
    let Some((buckets, shift)) = top_scatter(tuples, aux) else {
        return; // one key: any order is sorted
    };
    if shift.shift == 0 {
        // Sub-256 span: the scatter ordered by exact key value.
        tuples.copy_from_slice(aux);
    } else {
        spill_children(aux, tuples, &buckets, shift);
    }
}

/// Sort `src` by key into the equal-length `dst`, leaving `src`
/// untouched and never reading `dst`'s old contents. The top radix
/// level scatters straight from `src` into `dst` — the sequential read
/// of the input commandment C2 allows, with the scatter's random writes
/// landing in the (local) run as C1 demands — and each top bucket then
/// descends in place in `dst`. So there is no copy pass, and `scratch`
/// grows only to the largest top bucket. `ExecContext::sorted_run`
/// builds every phase-1 run through here.
///
/// # Panics
/// Panics if `src` and `dst` differ in length.
pub fn three_phase_sort_into(src: &[Tuple], dst: &mut [Tuple], scratch: &mut SortScratch) {
    assert_eq!(src.len(), dst.len(), "sort needs an equal-sized destination");
    if src.len() <= INSERTION_CUTOFF {
        dst.copy_from_slice(src);
        insertion::insertion_sort(dst);
        return;
    }
    let Some((buckets, shift)) = top_scatter(src, dst) else {
        dst.copy_from_slice(src); // one key: any order is sorted
        return;
    };
    if shift.shift == 0 {
        return; // the top scatter ordered dst by exact key value
    }
    let widest = buckets.ranges().map(|(_, slots)| slots.len()).max().unwrap_or(0);
    descend_resident(dst, scratch.head(widest), buckets.ranges(), shift);
}

/// Finish a span that a radix scatter on `shift` already laid out
/// bucket-major: bucket `first + i` occupies
/// `data[bounds[i]..bounds[i + 1]]`, and each bucket is sorted in place
/// while it is cache-resident, its key span derived arithmetically
/// from its global index ([`radix::Span::of_bucket`]) — no key-range
/// scan, no histogram, no top-level scatter. `scratch` grows only to the widest
/// bucket. At shift 0 every bucket holds one key value and there is
/// nothing to do. The private side's partitions come out of the
/// bucket-major scatter ([`crate::partition`]) in exactly this shape,
/// with `shift` the [`crate::histogram::RadixDomain::shift`] of the
/// partitioning domain; [`three_phase_sort_into`] finishes its own top
/// scatter here.
///
/// # Panics
/// Panics if `bounds` does not end inside `data`.
pub fn sort_bucket_major(
    data: &mut [Tuple],
    bounds: &[usize],
    first: usize,
    shift: radix::RadixShift,
    scratch: &mut SortScratch,
) {
    if shift.shift == 0 {
        return;
    }
    let widest = bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let buckets = bounds.windows(2).enumerate().map(|(i, w)| (first + i, w[0]..w[1]));
    descend_resident(data, scratch.head(widest), buckets, shift);
}

/// The prologue both whole-run entry points share: the sort's one
/// key-range scan (the descent derives every child span arithmetically,
/// [`radix::Span::of_bucket`]), the top-level shift, and the top
/// radix scatter of `src` into the equal-length `dst`, on the paper's
/// 8 bits. `None`, with `dst` untouched, when all keys are equal (or
/// there are none). Otherwise the top buckets and their shift; at shift
/// 0 the scatter already ordered `dst` by exact key value. The shift is
/// tight by construction (`for_range` on the real range), so the top
/// level cannot collapse into one bucket.
fn top_scatter(src: &[Tuple], dst: &mut [Tuple]) -> Option<(radix::Buckets, radix::RadixShift)> {
    let (min, max) = crate::tuple::key_range(src)?;
    if min == max {
        return None;
    }
    let shift = radix::RadixShift::for_range(min, max, RADIX_BITS);
    Some((radix::radix_scatter(src, dst, shift, RADIX_BITS), shift))
}

/// Recurse into every non-empty bucket of a scatter on `shift` whose
/// output landed in `src`, delivering each bucket sorted into `dst`.
/// Singleton buckets are copied. Only non-empty buckets derive their
/// span — see the overflow note on [`radix::Span::of_bucket`].
fn spill_children(
    src: &mut [Tuple],
    dst: &mut [Tuple],
    buckets: &radix::Buckets,
    shift: radix::RadixShift,
) {
    for (b, slots) in buckets.ranges() {
        if slots.len() == 1 {
            dst[slots.start] = src[slots.start];
        } else {
            let span = radix::Span::of_bucket(shift, b);
            sort_spill(&mut src[slots.clone()], &mut dst[slots], span);
        }
    }
}

/// Sort a bucket whose tuples currently sit in `src` and whose keys lie
/// in `span`, delivering the sorted result into `dst` (`src` is scatter
/// space afterwards). With [`sort_resident`] this forms the ping-pong
/// descent: each radix level is one out-of-place
/// [`radix::radix_scatter`] on the digit [`radix::Span::digit`] sizes
/// from the bucket — sequential reads, up to 2 048 independent write
/// streams — instead of the in-place cycle-leader permutation whose
/// displacement chain serializes on one cache miss at a time.
/// Even-depth recursions land back in place with zero extra copies;
/// odd-depth subtrees pay one sequential bucket copy at the leaf.
fn sort_spill(src: &mut [Tuple], dst: &mut [Tuple], span: radix::Span) {
    debug_assert_eq!(src.len(), dst.len());
    if src.len() <= NETWORK_BLOCK {
        dst.copy_from_slice(src);
        network::network_sort_exact(dst);
        return;
    }
    let (shift, bits) = span.digit(src.len());
    let buckets = radix::radix_scatter(src, dst, shift, bits);
    if shift.shift == 0 {
        return; // digits exhausted: dst is ordered by exact key value
    }
    if buckets.collapsed() {
        // A skewed bucket can collapse into a single child (all keys
        // share the next digit). The descent would still terminate —
        // each level consumes real key bits until the shift hits 0 —
        // but one range scan re-tightens the span to the occupied
        // keys and skips the dead levels. The scatter is stable, so
        // `dst` is an exact copy of `src`: sort it in place.
        if let Some(tight) = tightened(dst) {
            sort_resident(dst, src, tight);
        }
        return;
    }
    descend_resident(dst, src, buckets.ranges(), shift);
}

/// The span of a collapsed bucket's actual keys; `None` for a
/// single-key bucket, which is already totally ordered.
fn tightened(bucket: &[Tuple]) -> Option<radix::Span> {
    let (min, max) = crate::tuple::key_range(bucket).expect("bucket is non-empty");
    (min < max).then(|| radix::Span::of_range(min, max))
}

/// Sort every bucket of a scatter on `shift` that landed in `data` in
/// place, each through the head of `aux`, which must be at least as
/// long as the widest bucket; `buckets` yields each bucket's global
/// index and slots. A bucket of fewer than two tuples is already in
/// place; see the overflow note on [`radix::Span::of_bucket`].
fn descend_resident(
    data: &mut [Tuple],
    aux: &mut [Tuple],
    buckets: impl Iterator<Item = (usize, std::ops::Range<usize>)>,
    shift: radix::RadixShift,
) {
    for (b, slots) in buckets {
        if slots.len() >= 2 {
            let aux = &mut aux[..slots.len()];
            sort_resident(&mut data[slots], aux, radix::Span::of_bucket(shift, b));
        }
    }
}

/// Sort a bucket in place in `data`, whose keys lie in `span`, using
/// same-sized `aux` as scatter space. The ping-pong counterpart of
/// [`sort_spill`].
fn sort_resident(data: &mut [Tuple], aux: &mut [Tuple], span: radix::Span) {
    debug_assert_eq!(data.len(), aux.len());
    if data.len() <= NETWORK_BLOCK {
        network::network_sort_exact(data);
        return;
    }
    let (shift, bits) = span.digit(data.len());
    let buckets = radix::radix_scatter(data, aux, shift, bits);
    if shift.shift == 0 {
        data.copy_from_slice(aux);
        return;
    }
    if buckets.collapsed() {
        // Collapsed (see sort_spill): `aux == data`, re-tighten.
        if let Some(tight) = tightened(data) {
            sort_resident(data, aux, tight);
        }
        return;
    }
    spill_children(aux, data, &buckets, shift);
}

/// The seed's literal three-phase sort: one radix pass, coarse
/// introsort per bucket, then a single **global** insertion pass that
/// re-streams the whole array. Retained as the reference oracle of the
/// equivalence tests (`tests/sort_kernels.rs`); every join path sorts
/// through `ExecContext::sorted_run` or `ExecContext::sort_partition`,
/// i.e. [`three_phase_sort_into`] or [`sort_bucket_major`].
pub fn three_phase_sort_naive(tuples: &mut [Tuple]) {
    if tuples.len() < 2 {
        return;
    }
    if tuples.len() <= INSERTION_CUTOFF {
        insertion::insertion_sort(tuples);
        return;
    }
    let boundaries = radix::msd_radix_partition(tuples);
    for w in boundaries.windows(2) {
        let bucket = &mut tuples[w[0]..w[1]];
        if bucket.len() > INSERTION_CUTOFF {
            intro::introsort_coarse(bucket, INSERTION_CUTOFF);
        }
    }
    insertion::insertion_sort(tuples);
}

/// Sort by key using introsort alone (no radix pass); `sort_comparison`
/// uses it to quantify the radix phase's contribution.
pub fn introsort_only(tuples: &mut [Tuple]) {
    intro::introsort_coarse(tuples, INSERTION_CUTOFF);
    insertion::insertion_sort(tuples);
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
    fn sorts_random_input() {
        let mut data = pseudo_random(10_000, 7);
        let mut expected = data.clone();
        expected.sort_unstable_by_key(|t| t.key);
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
        // Same multiset of keys.
        let mut got_keys: Vec<u64> = data.iter().map(|t| t.key).collect();
        let exp_keys: Vec<u64> = expected.iter().map(|t| t.key).collect();
        got_keys.sort_unstable();
        let mut exp_sorted = exp_keys.clone();
        exp_sorted.sort_unstable();
        assert_eq!(got_keys, exp_sorted);
    }

    #[test]
    fn preserves_payloads() {
        let mut data = pseudo_random(5_000, 99);
        let mut expected: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        three_phase_sort(&mut data);
        let mut got: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn handles_small_and_degenerate_inputs() {
        let mut empty: Vec<Tuple> = vec![];
        three_phase_sort(&mut empty);

        let mut one = vec![Tuple::new(5, 0)];
        three_phase_sort(&mut one);
        assert_eq!(one[0].key, 5);

        let mut two = vec![Tuple::new(9, 0), Tuple::new(1, 0)];
        three_phase_sort(&mut two);
        assert!(is_key_sorted(&two));
    }

    #[test]
    fn handles_all_equal_keys() {
        let mut data: Vec<Tuple> = (0..1000).map(|i| Tuple::new(42, i)).collect();
        three_phase_sort(&mut data);
        assert!(data.iter().all(|t| t.key == 42));
        assert_eq!(data.len(), 1000);
    }

    #[test]
    fn handles_presorted_and_reversed() {
        let mut asc: Vec<Tuple> = (0..5000u64).map(|k| Tuple::new(k, 0)).collect();
        three_phase_sort(&mut asc);
        assert!(is_key_sorted(&asc));

        let mut desc: Vec<Tuple> = (0..5000u64).rev().map(|k| Tuple::new(k, 0)).collect();
        three_phase_sort(&mut desc);
        assert!(is_key_sorted(&desc));
    }

    #[test]
    fn handles_narrow_key_range() {
        // All keys in [100, 103]: the radix shift must not collapse to
        // nonsense and the sort must still be total.
        let mut data: Vec<Tuple> = (0..4000u64).map(|i| Tuple::new(100 + (i % 4), i)).collect();
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn handles_full_64bit_keys() {
        let mut data = vec![
            Tuple::new(u64::MAX, 0),
            Tuple::new(0, 1),
            Tuple::new(u64::MAX / 2, 2),
            Tuple::new(1, 3),
            Tuple::new(u64::MAX - 1, 4),
        ];
        // Pad to clear the small-input path.
        for i in 0..100 {
            data.push(Tuple::new(i * 0x0101_0101_0101, i));
        }
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn per_bucket_finish_matches_naive_global_pass() {
        // The keys at these seeds are collision-free, so any correct
        // sort produces the identical tuple sequence regardless of
        // partition strategy (scatter vs. in-place) or finisher.
        for seed in [3u64, 17, 91] {
            let mut a = pseudo_random(30_000, seed);
            let mut b = a.clone();
            three_phase_sort(&mut a);
            three_phase_sort_naive(&mut b);
            assert_eq!(a, b, "seed {seed}: both finishes must produce the same total order");
        }
    }

    #[test]
    fn recursion_handles_one_giant_bucket() {
        // One outlier stretches the domain so the first pass dumps
        // everything else into bucket 0, which exceeds the network
        // block and must recurse with a re-derived shift.
        let mut state = 5u64;
        let mut data: Vec<Tuple> = (0..(110 * NETWORK_BLOCK as u64))
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Tuple::new(state >> 40, i) // keys < 2^24
            })
            .collect();
        data.push(Tuple::new(u64::MAX, 0)); // the outlier
        let mut expected: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
        let got: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, expected, "recursion must preserve the multiset");
    }

    #[test]
    fn recursion_early_outs_on_single_key_buckets() {
        // One giant equal-key bucket plus an outlier: the recursion must
        // detect min == max and stop instead of re-partitioning forever.
        let mut data: Vec<Tuple> =
            (0..(64 * NETWORK_BLOCK as u64)).map(|i| Tuple::new(7, i)).collect();
        data.push(Tuple::new(u64::MAX, 0));
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
        assert_eq!(data.last().unwrap().key, u64::MAX);
    }

    #[test]
    fn descent_sorts_large_input() {
        // 50 000 keys over 2^32: first-level buckets hold ~195 tuples,
        // so every bucket scatters a second time before it reaches the
        // network.
        let mut data = pseudo_random(50_000, 9);
        let mut expected: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        three_phase_sort_with(&mut data, &mut SortScratch::new());
        assert!(is_key_sorted(&data));
        let mut got: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn introsort_only_matches() {
        let mut a = pseudo_random(3000, 3);
        let mut b = a.clone();
        three_phase_sort(&mut a);
        introsort_only(&mut b);
        assert_eq!(
            a.iter().map(|t| t.key).collect::<Vec<_>>(),
            b.iter().map(|t| t.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn skewed_distribution_sorts() {
        // 80:20 style skew: most keys in a narrow high band.
        let mut state = 12345u64;
        let mut data: Vec<Tuple> = (0..20_000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = state >> 33;
                let key = if r % 10 < 8 { (1 << 31) + (r % (1 << 29)) } else { r % (1 << 31) };
                Tuple::new(key, i)
            })
            .collect();
        three_phase_sort(&mut data);
        assert!(is_key_sorted(&data));
    }
}
