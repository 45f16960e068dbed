//! Parallel k-way merge — steel-manning the classic sort-merge join.
//!
//! The paper dismisses the traditional global merge as "hard to
//! parallelize" and MPSM avoids it entirely. To make that comparison
//! fair, this module implements the *strong* version of the strawman: a
//! rank-partitioned parallel k-way merge (the merge-path idea lifted to
//! k runs). The output is cut into `T` equal ranges; for each range
//! boundary a key-space binary search finds per-run split positions
//! whose piecewise merge is independent, so `T` workers merge into
//! disjoint output windows without synchronization.
//!
//! [`ClassicSortMergeJoin`](crate::sort_merge_classic) exposes it via
//! `with_parallel_merge(true)`; the `complexity_model` experiment shows
//! that even with the merge parallelized the extra full materialization
//! keeps the classic join behind MPSM — the paper's argument holds
//! against the strong strawman too.

use mpsm_core::context::ExecContext;
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::worker::OwnedSlots;
use mpsm_core::Tuple;

/// Per-run split positions for one output rank boundary: positions
/// `p[i]` such that `Σ p[i] == rank` and every element left of a split
/// is `≤` every element right of any split.
fn rank_split(runs: &[Vec<Tuple>], rank: usize) -> Vec<usize> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    debug_assert!(rank <= total);
    if rank == 0 {
        return vec![0; runs.len()];
    }
    if rank == total {
        return runs.iter().map(|r| r.len()).collect();
    }

    // Binary search the smallest key `k` with count(key ≤ k) ≥ rank.
    let count_le =
        |k: u64| -> usize { runs.iter().map(|r| r.partition_point(|t| t.key <= k)).sum() };
    let mut lo = 0u64;
    let mut hi = u64::MAX;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count_le(mid) >= rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let k = lo;

    // Take everything < k, then distribute the elements == k until the
    // rank is met (deterministically, in run order).
    let mut positions: Vec<usize> = runs.iter().map(|r| r.partition_point(|t| t.key < k)).collect();
    let mut have: usize = positions.iter().sum();
    debug_assert!(have <= rank);
    for (p, run) in positions.iter_mut().zip(runs) {
        while have < rank && *p < run.len() && run[*p].key == k {
            *p += 1;
            have += 1;
        }
        if have == rank {
            break;
        }
    }
    debug_assert_eq!(have, rank);
    positions
}

/// Sequential k-way merge of run segments into `out` (binary-heap
/// cursor merge; segments are small enough per worker that the heap
/// stays in cache).
fn merge_segment(runs: &[Vec<Tuple>], from: &[usize], to: &[usize], out: &mut [Tuple]) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(i, _)| from[*i] < to[*i])
        .map(|(i, r)| Reverse((r[from[i]].key, i, from[i])))
        .collect();
    let mut w = 0usize;
    while let Some(Reverse((_, run, off))) = heap.pop() {
        out[w] = runs[run][off];
        w += 1;
        let next = off + 1;
        if next < to[run] {
            heap.push(Reverse((runs[run][next].key, run, next)));
        }
    }
    debug_assert_eq!(w, out.len());
}

/// Merge sorted runs into one globally sorted vector in one
/// [`ExecContext::run_phase`] booked under [`Phase::Two`] (the classic
/// join's merge phase), one disjoint rank range per pool worker.
pub fn parallel_kway_merge(
    cx: &ExecContext,
    stats: &mut JoinStats,
    runs: Vec<Vec<Tuple>>,
) -> Vec<Tuple> {
    let threads = cx.threads();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if total == 0 {
        return Vec::new();
    }

    // Rank boundaries and their per-run split positions.
    let bounds: Vec<Vec<usize>> =
        (0..=threads).map(|t| rank_split(&runs, t * total / threads)).collect();

    let mut out = vec![Tuple::default(); total];
    {
        // Carve the output into the workers' disjoint windows, handed
        // to their worker through take-once cells.
        let mut windows: Vec<&mut [Tuple]> = Vec::with_capacity(threads);
        let mut rest = out.as_mut_slice();
        for t in 0..threads {
            let len = (t + 1) * total / threads - t * total / threads;
            let (head, tail) = rest.split_at_mut(len);
            windows.push(head);
            rest = tail;
        }
        let slots = OwnedSlots::new(windows);
        cx.run_phase(Phase::Two, stats, |t, _| {
            merge_segment(&runs, &bounds[t], &bounds[t + 1], slots.take(t))
        });
    }
    out
}

/// Sequential reference (used by the classic join when parallel merge
/// is disabled, and by tests).
pub fn sequential_kway_merge(runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = vec![Tuple::default(); total];
    let from: Vec<usize> = vec![0; runs.len()];
    let to: Vec<usize> = runs.iter().map(|r| r.len()).collect();
    merge_segment(&runs, &from, &to, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_core::tuple::is_key_sorted;

    fn merge_on(cx: &ExecContext, runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
        parallel_kway_merge(cx, &mut JoinStats::new(cx.threads()), runs)
    }

    fn sorted_run(keys: &[u64]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> =
            keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect();
        v.sort_unstable_by_key(|t| t.key);
        v
    }

    fn random_runs(count: usize, len: usize, seed: u64) -> Vec<Vec<Tuple>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                let keys: Vec<u64> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 34
                    })
                    .collect();
                sorted_run(&keys)
            })
            .collect()
    }

    #[test]
    fn parallel_merge_equals_sequential() {
        let runs = random_runs(7, 1000, 3);
        let seq = sequential_kway_merge(runs.clone());
        for threads in [1usize, 2, 3, 8] {
            let par = merge_on(&ExecContext::flat(threads), runs.clone());
            assert!(is_key_sorted(&par));
            assert_eq!(
                par.iter().map(|t| t.key).collect::<Vec<_>>(),
                seq.iter().map(|t| t.key).collect::<Vec<_>>(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn merge_preserves_multiset_with_payloads() {
        let runs = random_runs(4, 500, 7);
        let mut expected: Vec<(u64, u64)> =
            runs.iter().flatten().map(|t| (t.key, t.payload)).collect();
        let merged = merge_on(&ExecContext::flat(4), runs);
        let mut got: Vec<(u64, u64)> = merged.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn duplicate_heavy_runs_split_cleanly() {
        // All keys equal: rank splits land inside one giant duplicate
        // group and must still partition exactly.
        let runs: Vec<Vec<Tuple>> =
            (0..4).map(|r| (0..256).map(|i| Tuple::new(9, r * 256 + i)).collect()).collect();
        let merged = merge_on(&ExecContext::flat(8), runs);
        assert_eq!(merged.len(), 1024);
        assert!(merged.iter().all(|t| t.key == 9));
    }

    #[test]
    fn empty_and_ragged_runs() {
        let runs = vec![
            sorted_run(&[5, 6]),
            vec![],
            sorted_run(&[1]),
            sorted_run(&[2, 3, 4, 7, 8, 9, 10]),
        ];
        let merged = merge_on(&ExecContext::flat(3), runs);
        let keys: Vec<u64> = merged.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn rank_split_positions_sum_to_rank() {
        let runs = random_runs(5, 300, 11);
        let total = 5 * 300;
        for rank in [0usize, 1, 7, total / 2, total - 1, total] {
            let pos = rank_split(&runs, rank);
            assert_eq!(pos.iter().sum::<usize>(), rank);
            // Split invariant: max key left of splits ≤ min key right.
            let left_max =
                runs.iter().zip(&pos).filter(|(_, &p)| p > 0).map(|(r, &p)| r[p - 1].key).max();
            let right_min =
                runs.iter().zip(&pos).filter(|(r, &p)| p < r.len()).map(|(r, &p)| r[p].key).min();
            if let (Some(l), Some(rt)) = (left_max, right_min) {
                assert!(l <= rt, "rank {rank}: split crosses key order");
            }
        }
    }

    #[test]
    fn more_threads_than_elements() {
        let runs = vec![sorted_run(&[1, 2])];
        let merged = merge_on(&ExecContext::flat(16), runs);
        assert_eq!(merged.len(), 2);
        assert!(is_key_sorted(&merged));
    }

    #[test]
    fn pooled_merge_matches_standalone() {
        let runs = random_runs(5, 800, 13);
        let seq = sequential_kway_merge(runs.clone());
        let cx = ExecContext::flat(4);
        let mut stats = JoinStats::new(4);
        // Two merges on the same context — the classic SMJ's usage
        // pattern — each one pool admission.
        for _ in 0..2 {
            let served = cx.pool().phases_served();
            let merged = parallel_kway_merge(&cx, &mut stats, runs.clone());
            assert_eq!(cx.pool().phases_served(), served + 1);
            assert_eq!(
                merged.iter().map(|t| (t.key, t.payload)).collect::<Vec<_>>(),
                seq.iter().map(|t| (t.key, t.payload)).collect::<Vec<_>>()
            );
        }
    }
}
