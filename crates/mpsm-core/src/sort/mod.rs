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
//!   recurses the radix pass (with the child shift derived
//!   arithmetically by [`radix::RadixShift::child`] — no re-scan)
//!   instead of going to a comparison sort: one O(n) counting pass +
//!   scatter replaces `RADIX_BITS` quicksort levels of branchy
//!   comparisons. The descent ends on its own: every level above the
//!   block at a non-zero shift consumes `RADIX_BITS` key bits, a shift
//!   of 0 leaves single-key buckets, a pass that collapses into one
//!   bucket re-tightens its shift, and a single-key bucket returns. It
//!   scatters out of place into a per-worker ping-pong buffer
//!   (sequential reads, independent write streams) rather than the
//!   American-flag in-place permutation, whose displacement chain
//!   serializes on one cache miss at a time; even-depth recursions land
//!   back in place with zero extra copies.
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
//!   odd-even network per bucket ([`network::network_sort_exact`]);
//!   no comparison sort sits between the descent and the network. The
//!   paper's introsort + insertion survives in the references
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
/// first phase, as in the paper.
pub const RADIX_BITS: u32 = 8;

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
    let Some((bounds, shift)) = top_scatter(tuples, aux) else {
        return; // one key: any order is sorted
    };
    if shift.shift == 0 {
        // Sub-256 span: the scatter ordered by exact key value.
        tuples.copy_from_slice(aux);
    } else {
        spill_children(aux, tuples, &bounds, shift);
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
    let Some((bounds, shift)) = top_scatter(src, dst) else {
        dst.copy_from_slice(src); // one key: any order is sorted
        return;
    };
    sort_bucket_major(dst, &bounds, 0, shift, scratch);
}

/// Finish a span that a radix scatter on `shift` already laid out
/// bucket-major: bucket `first + i` occupies
/// `data[bounds[i]..bounds[i + 1]]`, and each bucket is sorted in place
/// while it is cache-resident, its child shift derived arithmetically
/// from its global index ([`radix::RadixShift::child`]) — no key-range
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
    descend_resident(data, scratch.head(widest), bounds, first, shift);
}

/// The prologue both whole-run entry points share: the sort's one key-range scan
/// (the descent derives every child shift arithmetically,
/// [`radix::RadixShift::child`]), the top-level shift, and the top
/// radix scatter of `src` into the equal-length `dst`. `None`, with
/// `dst` untouched, when all keys are equal (or there are none).
/// Otherwise the top buckets' bounds and shift; at shift 0 the scatter
/// already ordered `dst` by exact key value. The shift is tight by
/// construction (`for_range` on the real range), so the top level
/// cannot collapse into one bucket.
fn top_scatter(src: &[Tuple], dst: &mut [Tuple]) -> Option<(Vec<usize>, radix::RadixShift)> {
    let (min, max) = crate::tuple::key_range(src)?;
    if min == max {
        return None;
    }
    let shift = radix::RadixShift::for_range(min, max, RADIX_BITS);
    Some((radix::msd_radix_scatter(src, dst, shift), shift))
}

/// Recurse into every non-trivial bucket of a scatter whose output
/// landed in `src`, delivering each bucket sorted into `dst`.
/// Singleton buckets are copied; empty buckets are skipped *before*
/// deriving the child shift — `child`'s base arithmetic is only
/// overflow-safe for buckets that contain a key (the sum is bounded by
/// that key), and near-`u64::MAX` domains do overflow it for empty high
/// buckets.
fn spill_children(
    src: &mut [Tuple],
    dst: &mut [Tuple],
    bounds: &[usize],
    shift: radix::RadixShift,
) {
    for (b, w) in bounds.windows(2).enumerate() {
        match w[1] - w[0] {
            0 => {}
            1 => dst[w[0]] = src[w[0]],
            _ => sort_spill(&mut src[w[0]..w[1]], &mut dst[w[0]..w[1]], shift.child(b, RADIX_BITS)),
        }
    }
}

/// Sort a bucket whose tuples currently sit in `src`, delivering the
/// sorted result into `dst` (`src` is scatter space afterwards). With
/// [`sort_resident`] this forms the ping-pong descent: each radix level
/// is one out-of-place [`radix::msd_radix_scatter`] — sequential reads,
/// 256 independent write streams — instead of the in-place cycle-leader
/// permutation whose displacement chain serializes on one cache miss at
/// a time. Even-depth recursions land back in place with zero extra
/// copies; odd-depth subtrees pay one sequential bucket copy at the
/// leaf.
fn sort_spill(src: &mut [Tuple], dst: &mut [Tuple], shift: radix::RadixShift) {
    debug_assert_eq!(src.len(), dst.len());
    if src.len() <= NETWORK_BLOCK {
        dst.copy_from_slice(src);
        network::network_sort_exact(dst);
        return;
    }
    let bounds = radix::msd_radix_scatter(src, dst, shift);
    if shift.shift == 0 {
        return; // digits exhausted: dst is ordered by exact key value
    }
    // A skewed bucket can collapse into a single child (all keys share
    // the next digit). The descent still terminates — each level
    // consumes RADIX_BITS real key bits until the shift hits 0 — but
    // one range scan re-tightens the shift to the occupied sub-domain
    // and skips the dead levels. The scatter is stable, so a collapsed
    // pass left `dst` an exact copy of `src` and both stay usable.
    if bounds.windows(2).any(|w| w[1] - w[0] == dst.len()) {
        let (min, max) = crate::tuple::key_range(dst).expect("bucket is non-empty");
        if min == max {
            return; // single-key bucket is already totally ordered
        }
        let tight = radix::RadixShift::for_range(min, max, RADIX_BITS);
        let bounds = radix::msd_radix_scatter(dst, src, tight);
        spill_children(src, dst, &bounds, tight);
        return;
    }
    descend_resident(dst, src, &bounds, 0, shift);
}

/// Sort every bucket of a scatter that landed in `data` in place, each
/// through the head of `aux`, which must be at least as long as the
/// widest bucket; `bounds[i]` starts bucket `first + i` of `shift`. A
/// bucket of fewer than two tuples is already in place; see the
/// overflow note on [`spill_children`].
fn descend_resident(
    data: &mut [Tuple],
    aux: &mut [Tuple],
    bounds: &[usize],
    first: usize,
    shift: radix::RadixShift,
) {
    for (i, w) in bounds.windows(2).enumerate() {
        let len = w[1] - w[0];
        if len >= 2 {
            let child = shift.child(first + i, RADIX_BITS);
            sort_resident(&mut data[w[0]..w[1]], &mut aux[..len], child);
        }
    }
}

/// Sort a bucket in place in `data`, using same-sized `aux` as scatter
/// space. The ping-pong counterpart of [`sort_spill`].
fn sort_resident(data: &mut [Tuple], aux: &mut [Tuple], shift: radix::RadixShift) {
    debug_assert_eq!(data.len(), aux.len());
    if data.len() <= NETWORK_BLOCK {
        network::network_sort_exact(data);
        return;
    }
    let bounds = radix::msd_radix_scatter(data, aux, shift);
    if shift.shift == 0 {
        data.copy_from_slice(aux);
        return;
    }
    if bounds.windows(2).any(|w| w[1] - w[0] == data.len()) {
        // Collapsed (see sort_spill): `aux == data`, re-tighten from
        // `data` and scatter again.
        let (min, max) = crate::tuple::key_range(data).expect("bucket is non-empty");
        if min == max {
            return;
        }
        let tight = radix::RadixShift::for_range(min, max, RADIX_BITS);
        let bounds = radix::msd_radix_scatter(data, aux, tight);
        spill_children(aux, data, &bounds, tight);
        return;
    }
    spill_children(aux, data, &bounds, shift);
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
