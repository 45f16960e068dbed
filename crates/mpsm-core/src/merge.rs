//! The merge-join kernel.
//!
//! Joins two key-sorted runs with full duplicate semantics: for every
//! group of equal keys the cross product of the two groups is emitted
//! (an equi-join must produce `|G_r| × |G_s|` pairs). The kernel is the
//! inner loop of every MPSM variant: B-MPSM's phase 3, P-MPSM's phase 4
//! (through the masked kernel of the run-set merge) and D-MPSM's stepped
//! merge over paged runs all call it once per `(private run, public
//! run)` pair, and so do the outer, semi and anti joins of
//! [`crate::join::variant`], which hand it a consumer that marks matched
//! private tuples instead of a plain [`JoinSink`].
//!
//! Both runs are only ever scanned forward, which is what makes the
//! remote reads of the join phase sequential (commandment C2).
//!
//! ## One cut, then one linear loop
//!
//! Before its loop the kernel cuts both runs by binary search to the
//! key span they share (`KeySpan`): `r` to `[s.first, s.last]`, and
//! `s` from the cut `r`'s first key on. No tuple outside that span can
//! match, so a private run that lies wholly below or above a public run
//! costs a few binary searches instead of a walk. Inside the span the
//! loop is the paper's plain forward merge: one inline step per
//! advance, with the rest of a longer skip in a cold out-of-line helper
//! so the loop itself stays small. Equal singleton keys (the dominant
//! case on FK joins) take a branch-reduced fast path that emits the
//! pair without the general group scan. The cut never re-bases an
//! index: the private indices a `Matches` consumer sees and the
//! [`MergeScan`] positions are those of the uncut runs.
//!
//! The seed's kernel is retained as [`merge_join_linear`] — the
//! reference oracle for tests and the benchmark harness's
//! `merge.linear_ns_per_tuple` probe.

use crate::sink::JoinSink;
use crate::tuple::Tuple;

/// Advance `idx` to the first position `>= idx` whose key is `>= key`.
///
/// Out of line and cold: the merge loop resolves single-position
/// advances (the dominant case on densely interleaved runs) with one
/// inline step and only calls here when that step was not enough, so
/// the loop's own code stays small.
#[cold]
#[inline(never)]
fn advance(run: &[Tuple], mut idx: usize, key: u64) -> usize {
    while idx < run.len() && run[idx].key < key {
        idx += 1;
    }
    idx
}

/// Extent of one merge-join call: the cursor positions at exit, i.e.
/// how far the kernel got through each run. Tuples the `KeySpan` cut
/// skipped count as passed, so a private run cut short at its upper
/// end reports `r.len()`. The join phases feed these into the
/// [`crate::context::ExecContext`] access audit — the quantities are
/// byproducts of the merge itself, so the accounting costs nothing
/// inside the kernel (commandment C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeScan {
    /// Tuples consumed from the private run `r`.
    pub r_scanned: usize,
    /// Tuples consumed from the public run `s`.
    pub s_scanned: usize,
}

/// The key span two runs share, as positions in the uncut runs: the
/// private tuples with keys in `[s.first, s.last]` are
/// `r[r_start..r_end]`, and the public run is read from `s_start`, the
/// lower bound of `r[r_start]`'s key.
pub(crate) struct KeySpan {
    pub(crate) r_start: usize,
    pub(crate) r_end: usize,
    pub(crate) s_start: usize,
    r_len: usize,
}

impl KeySpan {
    /// Cut `r` and `s` to their shared key span; `None` when `s` is
    /// empty.
    pub(crate) fn cut(r: &[Tuple], s: &[Tuple]) -> Option<KeySpan> {
        let (first, last) = (s.first()?.key, s.last()?.key);
        let r_start = r.partition_point(|t| t.key < first);
        let r_end = r_start + r[r_start..].partition_point(|t| t.key <= last);
        let s_start = r.get(r_start).map_or(0, |lo| s.partition_point(|t| t.key < lo.key));
        Some(KeySpan { r_start, r_end, s_start, r_len: r.len() })
    }

    /// The extents of a merge inside this span that stopped at `(i, j)`:
    /// a private cursor at the span's end has passed all of `r`.
    pub(crate) fn scan(&self, i: usize, j: usize) -> MergeScan {
        MergeScan { r_scanned: if i == self.r_end { self.r_len } else { i }, s_scanned: j }
    }
}

/// What the kernel hands each match to. Every [`JoinSink`] is one (it
/// emits the pairs); the non-inner variants implement it to mark the
/// matched private tuples by index.
pub(crate) trait Matches {
    /// Private tuple `r` at index `i` and public tuple `s` share a key
    /// that no other tuple of either run has.
    fn pair(&mut self, i: usize, r: Tuple, s: Tuple);

    /// Two groups of equal keys; the private group starts at index `i`.
    fn groups(&mut self, i: usize, r: &[Tuple], s: &[Tuple]);
}

impl<S: JoinSink> Matches for S {
    #[inline]
    fn pair(&mut self, _i: usize, r: Tuple, s: Tuple) {
        self.on_match(r, s);
    }

    #[inline]
    fn groups(&mut self, _i: usize, r: &[Tuple], s: &[Tuple]) {
        for rt in r {
            for st in s {
                self.on_match(*rt, *st);
            }
        }
    }
}

/// Merge-join two key-sorted runs into `sink`, cut to their shared key
/// span. `r` is the private input (first argument of `on_match`).
///
/// ```
/// use mpsm_core::merge::merge_join;
/// use mpsm_core::sink::{CollectSink, JoinSink};
/// use mpsm_core::Tuple;
///
/// // Key 7 appears twice in `s`: duplicate semantics emit both pairs.
/// let r = vec![Tuple::new(3, 0), Tuple::new(7, 1)];
/// let s = vec![Tuple::new(7, 10), Tuple::new(7, 11), Tuple::new(9, 12)];
/// let mut sink = CollectSink::default();
/// merge_join(&r, &s, &mut sink);
/// let mut pairs = sink.finish();
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(7, 1, 10), (7, 1, 11)]);
/// ```
pub fn merge_join<S: JoinSink>(r: &[Tuple], s: &[Tuple], sink: &mut S) {
    let _ = merge_join_scanned(r, s, sink);
}

/// [`merge_join`] into any [`Matches`], additionally returning how far
/// each cursor advanced — the audited entry point of the join phases.
pub(crate) fn merge_join_scanned<M: Matches>(r: &[Tuple], s: &[Tuple], sink: &mut M) -> MergeScan {
    debug_assert!(crate::tuple::is_key_sorted(r), "private run must be sorted");
    debug_assert!(crate::tuple::is_key_sorted(s), "public run must be sorted");
    let Some(span) = KeySpan::cut(r, s) else { return MergeScan::default() };
    let (i, j) = merge_loop(&r[..span.r_end], s, span.r_start, span.s_start, sink);
    span.scan(i, j)
}

/// The uncut linear loop: merge `r[i..]` with `s[j..]` until either run
/// is exhausted and return both cursors. Indices are those of `r` and
/// `s` as passed, so a caller that cuts by slicing `r[..end]` and by
/// starting positions keeps every index absolute.
pub(crate) fn merge_loop<M: Matches>(
    r: &[Tuple],
    s: &[Tuple],
    mut i: usize,
    mut j: usize,
    sink: &mut M,
) -> (usize, usize) {
    while i < r.len() && j < s.len() {
        let rk = r[i].key;
        let sk = s[j].key;
        if rk < sk {
            // One inline step first: densely interleaved runs advance
            // by a single position almost always, and the main loop's
            // own comparison then re-dispatches without a call.
            i += 1;
            if i < r.len() && r[i].key < sk {
                i = advance(r, i + 1, sk);
            }
        } else if rk > sk {
            j += 1;
            if j < s.len() && s[j].key < rk {
                j = advance(s, j + 1, rk);
            }
        } else {
            // Equal keys. Fast path: both groups are singletons (the
            // dominant case on FK joins) — emit without group scans.
            let i1 = i + 1;
            let j1 = j + 1;
            let r_single = i1 == r.len() || r[i1].key != rk;
            let s_single = j1 == s.len() || s[j1].key != rk;
            if r_single & s_single {
                sink.pair(i, r[i], s[j]);
                i = i1;
                j = j1;
            } else {
                let i_end = group_end(r, i);
                let j_end = group_end(s, j);
                sink.groups(i, &r[i..i_end], &s[j..j_end]);
                i = i_end;
                j = j_end;
            }
        }
    }
    (i, j)
}

/// The seed's purely linear kernel, uncut and with inline skips — the
/// reference oracle [`merge_join`] is verified against, and the
/// baseline of the harness's `merge.linear_ns_per_tuple` probe.
pub fn merge_join_linear<S: JoinSink>(r: &[Tuple], s: &[Tuple], sink: &mut S) {
    debug_assert!(crate::tuple::is_key_sorted(r), "private run must be sorted");
    debug_assert!(crate::tuple::is_key_sorted(s), "public run must be sorted");
    let mut i = 0;
    let mut j = 0;
    while i < r.len() && j < s.len() {
        let rk = r[i].key;
        let sk = s[j].key;
        if rk < sk {
            // Skip ahead over the non-matching r group.
            i += 1;
            while i < r.len() && r[i].key < sk {
                i += 1;
            }
        } else if rk > sk {
            j += 1;
            while j < s.len() && s[j].key < rk {
                j += 1;
            }
        } else {
            // Equal keys: emit the cross product of both groups.
            let i_end = group_end(r, i);
            let j_end = group_end(s, j);
            for rt in &r[i..i_end] {
                for st in &s[j..j_end] {
                    sink.on_match(*rt, *st);
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// One-past-the-end of the duplicate group starting at `start`.
#[inline]
fn group_end(run: &[Tuple], start: usize) -> usize {
    let key = run[start].key;
    let mut end = start + 1;
    while end < run.len() && run[end].key == key {
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountSink};

    fn sorted(keys: &[(u64, u64)]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = keys.iter().map(|&(k, p)| Tuple::new(k, p)).collect();
        v.sort_unstable();
        v
    }

    fn count(r: &[Tuple], s: &[Tuple]) -> u64 {
        let mut sink = CountSink::default();
        merge_join(r, s, &mut sink);
        sink.finish()
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    /// Both kernels must emit the same rows in the same order.
    fn assert_kernels_agree(r: &[Tuple], s: &[Tuple], label: &str) {
        let mut cut = CollectSink::default();
        merge_join(r, s, &mut cut);
        let mut linear = CollectSink::default();
        merge_join_linear(r, s, &mut linear);
        assert_eq!(cut.finish(), linear.finish(), "{label}");
        assert_eq!(count(r, s), nested_loop_count(r, s), "{label} vs oracle");
    }

    #[test]
    fn joins_simple_runs() {
        let r = sorted(&[(1, 10), (3, 30), (5, 50)]);
        let s = sorted(&[(2, 2), (3, 3), (5, 5), (7, 7)]);
        let mut sink = CollectSink::default();
        merge_join(&r, &s, &mut sink);
        assert_eq!(sink.finish(), vec![(3, 30, 3), (5, 50, 5)]);
    }

    #[test]
    fn duplicate_groups_emit_cross_products() {
        let r = sorted(&[(4, 1), (4, 2), (4, 3)]);
        let s = sorted(&[(4, 10), (4, 20)]);
        assert_eq!(count(&r, &s), 6, "3 × 2 pairs");
        let mut sink = CollectSink::default();
        merge_join(&r, &s, &mut sink);
        let rows = sink.finish();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|&(k, _, _)| k == 4));
    }

    #[test]
    fn disjoint_runs_join_empty() {
        let r = sorted(&[(1, 0), (2, 0)]);
        let s = sorted(&[(10, 0), (20, 0)]);
        assert_eq!(count(&r, &s), 0);
    }

    #[test]
    fn empty_inputs() {
        let r = sorted(&[(1, 0)]);
        assert_eq!(count(&r, &[]), 0);
        assert_eq!(count(&[], &r), 0);
        assert_eq!(count(&[], &[]), 0);
    }

    #[test]
    fn matches_nested_loop_on_random_input() {
        let mut state = 3u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 56 // narrow domain → many duplicates
        };
        let r = sorted(&(0..300).map(|i| (next(), i)).collect::<Vec<_>>());
        let s = sorted(&(0..500).map(|i| (next(), i)).collect::<Vec<_>>());
        assert_kernels_agree(&r, &s, "random narrow-domain input");
    }

    #[test]
    fn interleaved_gaps_are_skipped() {
        let r = sorted(&[(1, 0), (100, 0), (200, 0), (300, 0)]);
        let s = sorted(&[(50, 0), (100, 0), (150, 0), (250, 0), (300, 0)]);
        let mut sink = CountSink::default();
        merge_join(&r, &s, &mut sink);
        assert_eq!(sink.finish(), 2); // 100 and 300
    }

    #[test]
    fn all_equal_keys_is_full_cross_product() {
        let r = sorted(&(0..50u64).map(|i| (9, i)).collect::<Vec<_>>());
        let s = sorted(&(0..40u64).map(|i| (9, i)).collect::<Vec<_>>());
        assert_eq!(count(&r, &s), 50 * 40);
    }

    #[test]
    fn scanned_extents_reflect_cursor_positions() {
        // r exhausts first: the kernel must not claim it consumed the
        // dead tail of s.
        let r = sorted(&[(1, 0), (2, 0)]);
        let s = sorted(&[(1, 0), (2, 0), (50, 0), (60, 0), (70, 0)]);
        let mut sink = CountSink::default();
        let scan = merge_join_scanned(&r, &s, &mut sink);
        assert_eq!(sink.finish(), 2);
        assert_eq!(scan.r_scanned, 2);
        assert!(scan.s_scanned <= 3, "tail beyond the last match is never touched");
        // Fully overlapping runs consume both sides (up to the shorter
        // exhausting).
        let a = sorted(&(0..100u64).map(|k| (k, 0)).collect::<Vec<_>>());
        let mut sink = CountSink::default();
        let scan = merge_join_scanned(&a, &a, &mut sink);
        assert_eq!(scan.r_scanned, 100);
        assert_eq!(scan.s_scanned, 100);
        // Empty inputs scan nothing.
        let mut sink = CountSink::default();
        assert_eq!(merge_join_scanned(&a, &[], &mut sink), MergeScan::default());
    }

    #[test]
    fn key_span_cut_keeps_indices_and_extents_absolute() {
        // Private keys start below and end above every public key.
        let r = sorted(&(0..40u64).map(|k| (k * 5, k)).collect::<Vec<_>>());
        let s = sorted(&(60..120u64).map(|k| (k, k)).collect::<Vec<_>>());
        let span = KeySpan::cut(&r, &s).expect("both runs are non-empty");
        assert_eq!((span.r_start, span.r_end, span.s_start), (12, 24, 0));
        // The indices handed to a consumer are those of the uncut run.
        struct Indices(Vec<usize>);
        impl Matches for Indices {
            fn pair(&mut self, i: usize, _: Tuple, _: Tuple) {
                self.0.push(i);
            }
            fn groups(&mut self, i: usize, r: &[Tuple], _: &[Tuple]) {
                self.0.extend(i..i + r.len());
            }
        }
        let mut seen = Indices(Vec::new());
        let scan = merge_join_scanned(&r, &s, &mut seen);
        assert_eq!(seen.0, (12..24).collect::<Vec<_>>());
        assert!(seen.0.iter().all(|&i| (60..120).contains(&r[i].key)));
        // The private run is passed whole; the public one up to the
        // last private key inside the span.
        assert_eq!(scan, MergeScan { r_scanned: 40, s_scanned: 56 });
        // Runs that miss each other are passed without a match.
        assert_eq!(count(&r[..12], &s), 0);
        assert_eq!(count(&r[24..], &s), 0);
    }

    #[test]
    fn one_sided_skew_agrees_with_linear() {
        // r holds a handful of far-apart keys; s is dense — the
        // out-of-line skip does all the work on s.
        let r = sorted(&(0..16u64).map(|i| (i * 10_000, i)).collect::<Vec<_>>());
        let s = sorted(&(0..50_000u64).map(|i| (i * 3, i)).collect::<Vec<_>>());
        assert_kernels_agree(&r, &s, "one-sided skew");
        // And mirrored.
        assert_kernels_agree(&s, &r, "one-sided skew mirrored");
    }

    #[test]
    fn duplicate_heavy_runs_agree_with_linear() {
        // 64-tuple groups on both sides with gaps between group keys.
        let r = sorted(&(0..2048u64).map(|i| ((i / 64) * 37, i)).collect::<Vec<_>>());
        let s = sorted(&(0..2048u64).map(|i| ((i / 64) * 51, i)).collect::<Vec<_>>());
        assert_kernels_agree(&r, &s, "duplicate-heavy");
    }

    #[test]
    fn disjoint_ranges_agree_with_linear() {
        let r = sorted(&(0..5000u64).map(|i| (i, i)).collect::<Vec<_>>());
        let s = sorted(&(0..5000u64).map(|i| (1_000_000 + i, i)).collect::<Vec<_>>());
        assert_kernels_agree(&r, &s, "disjoint ranges");
        assert_kernels_agree(&s, &r, "disjoint ranges mirrored");
    }

    #[test]
    fn alternating_blocks_agree_with_linear() {
        // Blocks of 100 matching keys alternating with dead stretches of
        // 3000 keys present on only one side.
        let mut r_keys = Vec::new();
        let mut s_keys = Vec::new();
        for block in 0..8u64 {
            let base = block * 10_000;
            for k in 0..100 {
                r_keys.push((base + k, k));
                s_keys.push((base + k, k));
            }
            for k in 0..3000 {
                if block % 2 == 0 {
                    r_keys.push((base + 200 + k, k));
                } else {
                    s_keys.push((base + 200 + k, k));
                }
            }
        }
        let r = sorted(&r_keys);
        let s = sorted(&s_keys);
        assert_kernels_agree(&r, &s, "alternating blocks");
    }

    #[test]
    fn regime_shift_dense_then_sparse_agrees_with_linear() {
        // First half: perfectly interleaved disjoint keys (the "0pct"
        // ablation shape, all one-step advances); second half: sparse r
        // against dense s, where every advance takes the long skip.
        let mut r_keys = Vec::new();
        let mut s_keys = Vec::new();
        for i in 0..4_000u64 {
            r_keys.push((2 * i, i));
            s_keys.push((2 * i + 1, i));
        }
        let base = 10_000u64;
        for i in 0..16u64 {
            r_keys.push((base + i * 5_000, i));
        }
        for i in 0..40_000u64 {
            s_keys.push((base + i * 2, i));
        }
        let r = sorted(&r_keys);
        let s = sorted(&s_keys);
        assert_kernels_agree(&r, &s, "regime shift");
        assert_kernels_agree(&s, &r, "regime shift mirrored");
    }
}
