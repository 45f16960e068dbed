//! Synchronization-free range partitioning of the private input
//! (P-MPSM phase 2.3, Figure 6 / Figure 10), laid out as the sort's top
//! radix level.
//!
//! Every worker scatters its chunk into the target runs through the
//! indirection of the splitter vector:
//!
//! ```text
//! memcpy(ps_i[sp[t.key >> (64 − B)]]++, t, t.size)
//! ```
//!
//! The prefix sums give every worker a *dedicated index range in each
//! target run* into which it writes sequentially — "orders of magnitude
//! more efficient than synchronized writing" (Figure 1 (2)) and immune
//! to cache-coherency overhead. In Rust the disjoint windows are
//! materialized as `&mut [Tuple]` slices carved with `split_at_mut`, so
//! the compiler proves what the paper argues: no two workers can touch
//! the same element.
//!
//! ## Bucket-major windows
//!
//! The prefix sums run over (fine bucket, worker) rather than over
//! (partition, worker): each worker owns one window per `2^B` histogram
//! bucket, and partition `p` holds its buckets (a contiguous range,
//! [`Splitters::bucket_range`]) in bucket order, each bucket's tuples
//! in worker order and, within a worker, in chunk order. So the scatter
//! that range-partitions also writes the first radix level of every
//! partition's sort: phase 3 only has to sort each fine bucket in place
//! while it is cache-resident ([`crate::sort::sort_bucket_major`]). With
//! one bucket per partition — the identity splitters of the radix
//! contender — this is exactly the paper's Figure 6 layout.
//!
//! ## Per-tuple stores
//!
//! Each worker writes every tuple straight into its window for the
//! tuple's bucket: one checked 16-byte store and one cursor bump. A
//! window write past the histogram's count panics instead of
//! corrupting a neighbour's window. Software write-combining (staging
//! tuples per bucket and flushing 128 B at a time) was measured against
//! it on the `join_uniform` shape (2^20 tuples, `B` = 10, two workers)
//! in three runs of 30 interleaved pairs: staging read 24.7, 20.9 and
//! 21.5 ns/tuple against 22.1, 19.3 and 19.3 for per-tuple stores. The
//! last-level cache absorbs the scattered stores on a single socket, so
//! the staging copy cannot pay for itself. Commandment C1 leaves
//! sequential remote writes to the hardware's write-combining too.

use mpsm_numa::NumaBuf;

use crate::context::ExecContext;
use crate::histogram::{compute_histogram, fold_histogram, RadixDomain};
use crate::splitter::Splitters;
use crate::stats::{JoinStats, Phase};
use crate::tuple::Tuple;
use crate::worker::OwnedSlots;

/// Every worker's `2^B`-bucket histogram of its chunk (one interleaved
/// read of every chunk), as one section whose per-worker times and
/// access counters book under `phase`.
pub(crate) fn local_histograms(
    cx: &ExecContext,
    chunks: &[&[Tuple]],
    domain: &RadixDomain,
    phase: Phase,
    stats: &mut JoinStats,
) -> Vec<Vec<usize>> {
    if chunks.is_empty() {
        return Vec::new();
    }
    cx.run_phase(phase, stats, |w, scope| {
        scope.touch_interleaved(true, chunks[w].len() as u64);
        compute_histogram(chunks[w], domain)
    })
}

/// Carve the target runs into per-worker, per-bucket disjoint windows:
/// `windows[w][b]` is worker `w`'s slice of fine bucket `b`, inside the
/// partition the splitters assign `b` to. Each partition is consumed
/// front to back in bucket order and, within a bucket, in worker order
/// — the prefix sums over (bucket, worker).
fn carve_windows<'a>(
    mut remaining: Vec<&'a mut [Tuple]>,
    histograms: &[Vec<usize>],
    splitters: &Splitters,
) -> Vec<Vec<&'a mut [Tuple]>> {
    let buckets = splitters.assignment().len();
    let mut windows: Vec<Vec<&mut [Tuple]>> =
        histograms.iter().map(|_| Vec::with_capacity(buckets)).collect();
    for b in 0..buckets {
        let rem = &mut remaining[splitters.partition_of_bucket(b)];
        for (row, hist) in windows.iter_mut().zip(histograms) {
            let (head, tail) = std::mem::take(rem).split_at_mut(hist[b]);
            row.push(head);
            *rem = tail;
        }
    }
    debug_assert!(remaining.iter().all(|r| r.is_empty()), "windows must cover the runs");
    windows
}

/// One worker's scatter: each tuple is stored at its bucket window's
/// cursor. The window index is checked, so a histogram that undercounts
/// the chunk panics instead of writing past the window.
fn scatter_per_tuple(chunk: &[Tuple], row: &mut [&mut [Tuple]], domain: &RadixDomain) {
    let mut cursors = vec![0usize; row.len()];
    for t in chunk {
        let b = domain.bucket_of(t.key);
        row[b][cursors[b]] = *t;
        cursors[b] += 1;
    }
}

/// Range-partition `chunks` (one per worker of `cx`) into
/// `splitters.parts()` target runs — the NUMA-placed scatter of P-MPSM
/// phase 2.3. Returns the unsorted target runs, each laid out
/// bucket-major over the domain's `2^B` fine buckets (module docs):
/// bucket by bucket, each bucket's tuples in worker order and, within a
/// worker, in chunk order. With one bucket per partition that is the
/// paper's Figure 6 layout.
///
/// Storage for partition `p` comes from [`ExecContext::alloc`] (a
/// spare of the context's machine or its arena) homed per its allocation
/// policy for worker `p` (with the default
/// [`crate::context::AllocPolicy::WorkerLocal`], partition `p` lives on
/// the node of the worker that will sort and join it — the paper's
/// layout). The histogram and scatter sections run as two phases on the
/// context's pool, booking their time into a [`JoinStats`] of their own
/// that is dropped on return, and the context's `Phase::Two` counters
/// record, per worker, the interleaved chunk reads plus one sequential
/// write per tuple against the *target* partition's home — sequential writes into
/// disjoint windows are exactly the cross-node traffic commandment C1
/// permits, and the per-(worker, partition) write volumes are the
/// already-computed histogram counts, so the audit adds nothing to the
/// scatter's inner loop.
///
/// ```
/// use mpsm_core::context::ExecContext;
/// use mpsm_core::histogram::RadixDomain;
/// use mpsm_core::partition::range_partition_ctx;
/// use mpsm_core::splitter::Splitters;
/// use mpsm_core::Tuple;
///
/// // Two workers scatter their chunks into two key ranges (B = 1:
/// // keys below 32 go to partition 0, the rest to partition 1).
/// let cx = ExecContext::flat(2);
/// let domain = RadixDomain::from_range(0, 63, 1);
/// let splitters = Splitters::from_assignment(vec![0, 1], 2);
/// let c1: Vec<Tuple> = vec![Tuple::new(40, 0), Tuple::new(3, 1)];
/// let c2: Vec<Tuple> = vec![Tuple::new(9, 2), Tuple::new(60, 3)];
/// let runs = range_partition_ctx(&cx, &[&c1, &c2], &domain, &splitters);
/// let keys: Vec<u64> = runs[0].iter().map(|t| t.key).collect();
/// assert_eq!(keys, vec![3, 9], "worker 1's small keys, then worker 2's");
/// ```
pub fn range_partition_ctx(
    cx: &ExecContext,
    chunks: &[&[Tuple]],
    domain: &RadixDomain,
    splitters: &Splitters,
) -> Vec<NumaBuf<Tuple>> {
    let mut stats = JoinStats::new(cx.threads());
    let histograms = local_histograms(cx, chunks, domain, Phase::Two, &mut stats);
    range_partition_histogrammed(cx, chunks, domain, splitters, &histograms, Phase::Two, &mut stats)
}

/// [`range_partition_ctx`] over the per-worker bucket histograms the
/// caller already computed ([`local_histograms`] of the same chunks
/// and domain), so the chunks are read once by the scatter alone. The
/// one skeleton: prefix sums over (bucket, worker) → windows → scatter.
/// The scatter is one section whose per-worker times and access
/// counters book under `phase` — the caller's partition phase.
pub(crate) fn range_partition_histogrammed(
    cx: &ExecContext,
    chunks: &[&[Tuple]],
    domain: &RadixDomain,
    splitters: &Splitters,
    histograms: &[Vec<usize>],
    phase: Phase,
    stats: &mut JoinStats,
) -> Vec<NumaBuf<Tuple>> {
    let workers = chunks.len();
    assert_eq!(cx.threads(), workers.max(1), "one context worker per chunk");
    assert_eq!(histograms.len(), workers, "one histogram per chunk");
    let parts = splitters.parts();
    if workers == 0 {
        return (0..parts).map(|_| cx.alloc(0, 0)).collect();
    }

    // Per-(worker, partition) volumes: the partition sizes and the
    // scatter's write audit.
    let volumes: Vec<Vec<usize>> =
        histograms.iter().map(|h| fold_histogram(h, splitters.assignment(), parts)).collect();
    let sizes = (0..parts).map(|p| volumes.iter().map(|v| v[p]).sum());

    // Partition p is homed where worker p will consume it. (When the
    // splitter fan exceeds the worker count, surplus partitions wrap
    // round-robin, matching how callers assign them to workers.)
    let mut partitions: Vec<NumaBuf<Tuple>> =
        sizes.enumerate().map(|(p, sz)| cx.alloc(p % workers, sz)).collect();
    let homes: Vec<_> = partitions.iter().map(|b| b.home()).collect();
    let windows =
        carve_windows(partitions.iter_mut().map(|b| &mut b[..]).collect(), histograms, splitters);

    // Phase: synchronization-free scatter (one interleaved re-read of
    // every chunk, sequential writes into the precomputed windows —
    // commandments C1 + C3). Window rows are handed to their worker
    // through take-once slots so the pool's `Fn` closure can move them.
    let slots = OwnedSlots::new(windows);
    cx.run_phase(phase, stats, |w, scope| {
        scope.touch_interleaved(true, chunks[w].len() as u64);
        for (p, &home) in homes.iter().enumerate() {
            scope.touch(home, true, volumes[w][p] as u64);
        }
        let mut row = slots.take(w);
        scatter_per_tuple(chunks[w], &mut row, domain);
    });

    partitions
}

/// [`range_partition_ctx`] on a flat context of its own, unwrapped to
/// plain vectors: the same kernel and the same layout, with no context
/// to set up. The tests and the benchmark harness use it as their
/// context-free reference.
pub fn range_partition_naive(
    chunks: &[&[Tuple]],
    domain: &RadixDomain,
    splitters: &Splitters,
) -> Vec<Vec<Tuple>> {
    let cx = ExecContext::flat(chunks.len().max(1));
    range_partition_ctx(&cx, chunks, domain, splitters)
        .into_iter()
        .map(NumaBuf::into_inner)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::equi_height_splitters;

    fn tuples(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().map(|&k| Tuple::new(k, k * 100)).collect()
    }

    #[test]
    fn paper_figure_6_scatter() {
        // B = 1, keys in [0, 32), two workers.
        let domain = RadixDomain::from_range(0, 31, 1);
        let sp = Splitters::from_assignment(vec![0, 1], 2);
        let c1 = tuples(&[19, 7, 3, 21, 1, 17, 4]);
        let c2 = tuples(&[2, 23, 4, 31, 8, 20, 26]);
        let runs = range_partition_naive(&[&c1, &c2], &domain, &sp);
        let keys = |r: &[Tuple]| r.iter().map(|t| t.key).collect::<Vec<_>>();
        // Figure 6: R1 = W1's small keys in order, then W2's.
        assert_eq!(keys(&runs[0]), vec![7, 3, 1, 4, 2, 4, 8]);
        assert_eq!(keys(&runs[1]), vec![19, 21, 17, 23, 31, 20, 26]);
    }

    #[test]
    fn partitions_respect_key_ranges() {
        let domain = RadixDomain::from_range(0, 4095, 6);
        let chunks_data: Vec<Vec<Tuple>> = (0..4)
            .map(|w| (0..1000u64).map(|i| Tuple::new((i * 37 + w * 13) % 4096, i)).collect())
            .collect();
        let chunks: Vec<&[Tuple]> = chunks_data.iter().map(|c| c.as_slice()).collect();
        let hist = crate::histogram::combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let sp = equi_height_splitters(&hist, 4);
        let runs = range_partition_naive(&chunks, &domain, &sp);
        assert_eq!(runs.len(), 4);
        for (p, run) in runs.iter().enumerate() {
            for t in run {
                assert_eq!(
                    sp.partition_of_bucket(domain.bucket_of(t.key)),
                    p,
                    "tuple {t:?} in wrong partition"
                );
            }
        }
    }

    #[test]
    fn scatter_is_a_permutation() {
        let domain = RadixDomain::from_range(0, 999, 4);
        let chunks_data: Vec<Vec<Tuple>> = (0..3)
            .map(|w| (0..500u64).map(|i| Tuple::new((i * 7 + w) % 1000, i + w * 1000)).collect())
            .collect();
        let chunks: Vec<&[Tuple]> = chunks_data.iter().map(|c| c.as_slice()).collect();
        let hist = crate::histogram::combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let sp = equi_height_splitters(&hist, 3);
        let runs = range_partition_naive(&chunks, &domain, &sp);

        let mut before: Vec<(u64, u64)> =
            chunks_data.iter().flat_map(|c| c.iter().map(|t| (t.key, t.payload))).collect();
        let mut after: Vec<(u64, u64)> =
            runs.iter().flat_map(|r| r.iter().map(|t| (t.key, t.payload))).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "partitioning must not lose or duplicate tuples");
    }

    #[test]
    fn empty_chunks_produce_empty_partitions() {
        let domain = RadixDomain::from_range(0, 100, 2);
        let sp = Splitters::from_assignment(vec![0, 1, 2, 3], 4);
        let empty: [&[Tuple]; 2] = [&[], &[]];
        let runs = range_partition_naive(&empty, &domain, &sp);
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn single_worker_single_partition() {
        let domain = RadixDomain::from_range(0, 100, 1);
        let sp = Splitters::from_assignment(vec![0, 0], 1);
        let c = tuples(&[5, 99, 1]);
        let runs = range_partition_naive(&[&c], &domain, &sp);
        assert_eq!(runs.len(), 1);
        // Keys below 64 fill bucket 0, in chunk order, before bucket 1.
        assert_eq!(runs[0], tuples(&[5, 1, 99]), "bucket-major, chunk order within a bucket");
    }

    #[test]
    fn duplicates_stay_in_one_partition() {
        let domain = RadixDomain::from_range(0, 1023, 5);
        let chunks_data: Vec<Vec<Tuple>> = (0..4)
            .map(|w| (0..256).map(|i| Tuple::new(512, (w * 256 + i) as u64)).collect())
            .collect();
        let chunks: Vec<&[Tuple]> = chunks_data.iter().map(|c| c.as_slice()).collect();
        let hist = crate::histogram::combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let sp = equi_height_splitters(&hist, 4);
        let runs = range_partition_naive(&chunks, &domain, &sp);
        let non_empty = runs.iter().filter(|r| !r.is_empty()).count();
        assert_eq!(non_empty, 1, "equal keys cannot be split across partitions");
        assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), 1024);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn an_undercounting_histogram_panics_instead_of_overrunning_a_window() {
        // One worker (inline on the caller, so the kernel's own panic
        // surfaces); its histogram claims one tuple fewer in bucket 0
        // than the chunk holds.
        let cx = ExecContext::flat(1);
        let domain = RadixDomain::from_range(0, 63, 1);
        let sp = Splitters::from_assignment(vec![0, 1], 2);
        let c = tuples(&[1, 2, 3, 40]);
        let mut hist = compute_histogram(&c, &domain);
        hist[0] -= 1;
        let mut stats = JoinStats::new(1);
        range_partition_histogrammed(&cx, &[&c], &domain, &sp, &[hist], Phase::Two, &mut stats);
    }

    #[test]
    fn context_scatter_matches_standalone_and_audits_traffic() {
        use mpsm_numa::Topology;

        let domain = RadixDomain::from_range(0, 4095, 6);
        let chunks_data: Vec<Vec<Tuple>> = (0..4)
            .map(|w| (0..600u64).map(|i| Tuple::new((i * 41 + w * 11) % 4096, i)).collect())
            .collect();
        let chunks: Vec<&[Tuple]> = chunks_data.iter().map(|c| c.as_slice()).collect();
        let hist = crate::histogram::combine_histograms(
            &chunks.iter().map(|c| compute_histogram(c, &domain)).collect::<Vec<_>>(),
        );
        let sp = equi_height_splitters(&hist, 4);

        let cx = ExecContext::new(Topology::paper_machine(), 4);
        let placed = range_partition_ctx(&cx, &chunks, &domain, &sp);
        let reference = range_partition_naive(&chunks, &domain, &sp);
        for (p, (got, want)) in placed.iter().zip(&reference).enumerate() {
            assert_eq!(&got[..], &want[..], "partition {p}");
            assert_eq!(got.home(), cx.worker_node(p), "partition {p} homed on its owner's node");
        }
        // Model: histogram read |R| + scatter read |R| + scatter write
        // |R| = 3|R| accesses under Phase::Two.
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        assert_eq!(cx.phase_counters(Phase::Two).total_accesses(), 3 * total);
        // The arena saw every partition.
        assert_eq!(cx.arena().total_bytes(), total * std::mem::size_of::<Tuple>() as u64);
    }
}
