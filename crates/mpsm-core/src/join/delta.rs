//! Delta stores and snapshot-aware run merging — the core half of the
//! HTAP turn.
//!
//! The paper's §7 treats sorted runs as a durable by-product; this
//! module makes relations *mutable* without giving that up. A relation
//! becomes an immutable sorted **base** (the runs the executor's cache
//! keeps) plus a small unsorted **delta** of [`DeltaOp`]s. Readers fold
//! the delta prefix they captured into a [`DeltaOverlay`] — a set of
//! added tuples and a set of *masked* keys (deleted or overwritten in
//! the base) — and the merge phase joins base runs and the sorted delta
//! run together, skipping masked keys inline. Writers never touch the
//! base, so they never block readers; a compactor folds the delta into
//! a new base version off the hot path (LSM-style, the Polynesia /
//! consistent-snapshot design space named in PAPERS.md).
//!
//! The fold is defined against a trivially-correct oracle,
//! [`materialize`], which replays the ops literally; proptests pin
//! [`DeltaOverlay::apply`] multiset-equal to that replay for arbitrary
//! op interleavings. Production code folds with the overlay only — the
//! replay is `O(|base| · |ops|)` and exists for tests to compare
//! against.

use std::collections::BTreeMap;

use mpsm_numa::{CounterScope, NodeId, NumaBuf};

use crate::context::ExecContext;
use crate::interpolation::interpolation_lower_bound;
use crate::join::anytime::{merge_sides, AnytimeToken};
use crate::join::runs::RunSet;
use crate::merge::{merge_loop, KeySpan, MergeScan};
use crate::sink::JoinSink;
use crate::stats::JoinStats;
use crate::tuple::Tuple;

/// One logical write against a mutable relation. Ops are keyed —
/// [`DeltaOp::Update`] and [`DeltaOp::Delete`] affect *every* base or
/// previously-appended tuple with the key (an update is an upsert:
/// delete-all-with-key, then insert exactly one tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert one tuple (duplicates with existing keys are fine — the
    /// relation is a multiset, like every join input here).
    Append(Tuple),
    /// Upsert: remove every tuple with `key`, then insert
    /// `(key, payload)`.
    Update {
        /// Key whose tuples are replaced.
        key: u64,
        /// Payload of the single surviving tuple.
        payload: u64,
    },
    /// Remove every tuple with `key`.
    Delete {
        /// Key whose tuples are removed.
        key: u64,
    },
}

/// Replay `ops` literally over `base` — the trivially-correct oracle
/// the [`DeltaOverlay`] fold is verified against. One `Vec::retain` per
/// delete or update makes it quadratic; nothing outside tests calls it.
pub fn materialize(base: &[Tuple], ops: &[DeltaOp]) -> Vec<Tuple> {
    let mut tuples = base.to_vec();
    for op in ops {
        match *op {
            DeltaOp::Append(t) => tuples.push(t),
            DeltaOp::Delete { key } => tuples.retain(|t| t.key != key),
            DeltaOp::Update { key, payload } => {
                tuples.retain(|t| t.key != key);
                tuples.push(Tuple::new(key, payload));
            }
        }
    }
    tuples
}

/// The folded effect of a delta prefix: tuples to add on top of the
/// base, plus the base keys that no longer exist (deleted, or replaced
/// by an update). The fold needs no base reads at all — which is what
/// lets a reader capture a snapshot with one lock-free length read and
/// fold it later, off the write path.
///
/// Folds compose: [`DeltaOverlay::extend`] folds only the ops past a
/// prefix's overlay, and the result is *equal* (`==`, `Vec` order
/// included) to folding the whole stream from scratch. That is what
/// lets the executor's delta log fold each op once and share the newest
/// overlay between every snapshot that reads it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOverlay {
    /// Tuples the delta adds (sorted by key; appended and upserted
    /// rows that survived later deletes/updates).
    pub adds: Vec<Tuple>,
    /// Keys whose *base* tuples are dead (sorted, deduplicated). Only
    /// the base is masked — `adds` already reflects every in-delta
    /// overwrite.
    pub masked: Vec<u64>,
}

impl DeltaOverlay {
    /// Fold `ops` in order. Per key the fold tracks whether the base
    /// group is dead and which added payloads survive:
    /// append pushes a payload, delete kills the base group *and* the
    /// pending adds, update kills both and leaves exactly one payload.
    pub fn from_ops(ops: &[DeltaOp]) -> Self {
        #[derive(Default)]
        struct KeyState {
            masked: bool,
            adds: Vec<u64>,
        }
        let mut keys: BTreeMap<u64, KeyState> = BTreeMap::new();
        for op in ops {
            match *op {
                DeltaOp::Append(t) => keys.entry(t.key).or_default().adds.push(t.payload),
                DeltaOp::Delete { key } => {
                    let state = keys.entry(key).or_default();
                    state.masked = true;
                    state.adds.clear();
                }
                DeltaOp::Update { key, payload } => {
                    let state = keys.entry(key).or_default();
                    state.masked = true;
                    state.adds = vec![payload];
                }
            }
        }
        let mut adds = Vec::new();
        let mut masked = Vec::new();
        for (key, state) in keys {
            if state.masked {
                masked.push(key);
            }
            adds.extend(state.adds.into_iter().map(|p| Tuple::new(key, p)));
        }
        DeltaOverlay { adds, masked }
    }

    /// The overlay of this overlay's ops followed by `ops`, folding only
    /// `ops`. Per key, a kill (delete or update) in `ops` leaves exactly
    /// the tail fold's adds; otherwise the old adds come first and the
    /// tail's follow. So `from_ops(a).extend(b) == from_ops(a ++ b)`,
    /// in `O(|self| + b log b)` for `b` new ops.
    pub fn extend(&self, ops: &[DeltaOp]) -> DeltaOverlay {
        let tail = DeltaOverlay::from_ops(ops);
        let mut adds = Vec::with_capacity(self.adds.len() + tail.adds.len());
        let mut killed = tail.masked.iter().copied().peekable();
        let mut new = tail.adds.iter().copied().peekable();
        for &old in &self.adds {
            while killed.next_if(|&k| k < old.key).is_some() {}
            if killed.peek() == Some(&old.key) {
                continue;
            }
            while let Some(t) = new.next_if(|t| t.key < old.key) {
                adds.push(t);
            }
            adds.push(old);
        }
        adds.extend(new);
        DeltaOverlay { adds, masked: key_union(&self.masked, &tail.masked).collect() }
    }

    /// Apply the overlay to `base`: every base tuple whose key is not
    /// masked, merged with the sorted adds. Multiset-equal to the
    /// [`materialize`] replay of the ops this overlay was folded from,
    /// and key-sorted when `base` is — how compaction folds a delta into
    /// a sorted base version without sorting, in `O(|base| + |adds| +
    /// |masked|)`. An unsorted base still gets the right multiset: the
    /// mask cursor re-seeks by binary search whenever a key descends.
    pub fn apply(&self, base: &[Tuple]) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(base.len() + self.adds.len());
        let mut adds = self.adds.iter().copied().peekable();
        let (mut mask, mut previous) = (0, 0);
        for &t in base {
            if t.key < previous {
                mask = self.masked.partition_point(|&k| k < t.key);
            }
            previous = t.key;
            while self.masked.get(mask).is_some_and(|&k| k < t.key) {
                mask += 1;
            }
            if self.masked.get(mask) == Some(&t.key) {
                continue;
            }
            while let Some(add) = adds.next_if(|add| add.key < t.key) {
                out.push(add);
            }
            out.push(t);
        }
        out.extend(adds);
        out
    }

    /// Whether the overlay changes nothing (empty delta prefix).
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.masked.is_empty()
    }
}

/// The sorted, deduplicated union of two sorted, deduplicated key lists.
fn key_union<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    let (mut a, mut b) = (a.iter().copied().peekable(), b.iter().copied().peekable());
    std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(x), _) => {
            b.next_if_eq(&x);
            a.next()
        }
        (None, _) => b.next(),
    })
}

/// Merge-join two key-sorted runs, skipping every key present in the
/// corresponding sorted mask. The masked kernel of `merge_pair`: a
/// masked key on either side produces no pair. The pair is cut to its
/// shared key span once ([`KeySpan`]); the kernel then walks the union
/// of both masks and runs the uncut linear loop over each mask-free
/// stretch of `r` — `s` continuing where the previous stretch left it —
/// and skips `r`'s group for the masked key. `s`'s masked groups need
/// no skip: no `r` key left can match them.
pub(crate) fn merge_join_masked<S: JoinSink>(
    r: &[Tuple],
    s: &[Tuple],
    r_masked: &[u64],
    s_masked: &[u64],
    sink: &mut S,
) -> MergeScan {
    debug_assert!(crate::tuple::is_key_sorted(r), "private run must be sorted");
    debug_assert!(crate::tuple::is_key_sorted(s), "public run must be sorted");
    let Some(span) = KeySpan::cut(r, s) else { return MergeScan::default() };
    let r = &r[..span.r_end];
    let (mut i, mut j) = (span.r_start, span.s_start);
    let mut masked = key_union(r_masked, s_masked);
    loop {
        let key = masked.next();
        let stretch = key.map_or(r.len(), |key| i + r[i..].partition_point(|t| t.key < key));
        (i, j) = merge_loop(&r[..stretch], s, i, j, sink);
        // Stop after the last stretch, or once `s` is exhausted.
        let Some(key) = key.filter(|_| j < s.len()) else { return span.scan(i, j) };
        i = stretch + r[stretch..].partition_point(|t| t.key <= key);
        if i == r.len() {
            return span.scan(i, j);
        }
    }
}

/// Tuples of the sorted `run` whose key is in the sorted `mask`: the
/// mask is cut to the run's key span, and each key is searched from the
/// previous key's hit.
fn masked_tuples(run: &[Tuple], mask: &[u64]) -> usize {
    let (Some(first), Some(last)) = (run.first(), run.last()) else { return 0 };
    let lo = mask.partition_point(|&k| k < first.key);
    let hi = mask.partition_point(|&k| k <= last.key);
    let (mut at, mut dead) = (0usize, 0usize);
    for &key in &mask[lo..hi] {
        let start = at + run[at..].partition_point(|t| t.key < key);
        at = start + run[start..].partition_point(|t| t.key <= key);
        dead += at - start;
    }
    dead
}

/// One join input of a run-set merge: the immutable base runs (served
/// from the run cache or built fresh), the sorted delta run of added
/// tuples, and the mask of dead base keys. `delta: None, mask: []` is
/// exactly a plain [`RunSet`] side.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSide<'a> {
    /// The relation's sorted, range-partitioned base runs.
    pub base: &'a RunSet,
    /// Sorted run of tuples the delta adds (never masked).
    pub delta: Option<&'a NumaBuf<Tuple>>,
    /// Sorted, deduplicated keys whose base tuples are dead.
    pub mask: &'a [u64],
}

impl<'a> DeltaSide<'a> {
    /// A side with no delta at all (plain run-set semantics).
    pub fn base_only(base: &'a RunSet) -> Self {
        DeltaSide { base, delta: None, mask: &[] }
    }

    /// Base runs plus the optional delta run.
    pub(crate) fn run_count(&self) -> usize {
        self.base.parts() + usize::from(self.delta.is_some())
    }

    /// Run `idx` as a merge input: base runs carry the shared base
    /// mask, the delta run (the last index) carries none.
    pub(crate) fn piece(&self, idx: usize) -> Piece<'a> {
        match self.base.runs().get(idx) {
            Some(run) => Piece { tuples: run, home: run.home(), mask: self.mask },
            None => {
                let run = self.delta.expect("index beyond base implies a delta run");
                Piece { tuples: run, home: run.home(), mask: &[] }
            }
        }
    }

    /// Logical tuple count of the side: base minus masked base tuples
    /// plus the delta run. Each run counts only the masked keys inside
    /// its own key span.
    pub fn logical_tuples(&self) -> usize {
        let dead: usize = self.base.runs().iter().map(|run| masked_tuples(run, self.mask)).sum();
        self.base.total_tuples() - dead + self.delta.map_or(0, |d| d.len())
    }
}

/// One key-sorted stretch of a side — a whole run or a key-aligned
/// block of one — with its home node and the dead-key mask that
/// applies to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Piece<'a> {
    pub(crate) tuples: &'a [Tuple],
    pub(crate) home: NodeId,
    pub(crate) mask: &'a [u64],
}

/// Merge one private piece with one public run — the one place phase 4
/// pairs runs. The public run is entered at the interpolation-searched
/// lower bound of the private piece's first key, and both masks are cut
/// to the piece's key span (no other key can match) before the masked
/// kernel runs. Scan extents and the entry probe are booked on `scope`.
pub(crate) fn merge_pair<S: JoinSink>(
    r: Piece<'_>,
    s: Piece<'_>,
    sink: &mut S,
    scope: &mut CounterScope,
) {
    let (Some(first), Some(last)) = (r.tuples.first(), r.tuples.last()) else { return };
    if s.tuples.is_empty() {
        return;
    }
    let entry = interpolation_lower_bound(s.tuples, first.key);
    scope.touch(s.home, false, (s.tuples.len() as u64).ilog2() as u64 + 1);
    let span = |mask: &[u64]| {
        let lo = mask.partition_point(|&k| k < first.key);
        let hi = mask.partition_point(|&k| k <= last.key);
        lo..hi
    };
    let (r_mask, s_mask) = (&r.mask[span(r.mask)], &s.mask[span(s.mask)]);
    let scan = merge_join_masked(r.tuples, &s.tuples[entry..], r_mask, s_mask, sink);
    scope.touch(r.home, true, scan.r_scanned as u64);
    scope.touch(s.home, true, scan.s_scanned as u64);
}

/// Phase 4 over two snapshot sides, run to completion:
/// [`merge_sides`] under a token that never expires.
pub fn merge_delta_sides_in<S: JoinSink>(
    cx: &ExecContext,
    r: DeltaSide<'_>,
    s: DeltaSide<'_>,
    stats: &mut JoinStats,
) -> S::Result {
    merge_sides::<S>(cx, r, s, &AnytimeToken::Never, None, stats).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::runs::build_run_set;
    use crate::sink::{CollectSink, CountSink};
    use crate::stats::Phase;
    use mpsm_numa::AccessKind;

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        }
    }

    fn random(n: usize, domain: u64, seed: u64) -> Vec<Tuple> {
        let mut next = lcg(seed);
        (0..n).map(|i| Tuple::new(next() % domain, i as u64)).collect()
    }

    fn random_ops(n: usize, domain: u64, seed: u64) -> Vec<DeltaOp> {
        let mut next = lcg(seed);
        (0..n)
            .map(|i| match next() % 4 {
                0 => DeltaOp::Delete { key: next() % domain },
                1 => DeltaOp::Update { key: next() % domain, payload: 900_000 + i as u64 },
                _ => DeltaOp::Append(Tuple::new(next() % domain, 500_000 + i as u64)),
            })
            .collect()
    }

    fn multiset(tuples: &[Tuple]) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = tuples.iter().map(|t| (t.key, t.payload)).collect();
        v.sort_unstable();
        v
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    /// The write mix of the `htap_mixed` workload: append / update /
    /// delete 80 / 10 / 10.
    fn mixed_ops(n: usize, domain: u64, seed: u64) -> Vec<DeltaOp> {
        let mut next = lcg(seed);
        (0..n)
            .map(|i| match next() % 10 {
                0 => DeltaOp::Delete { key: next() % domain },
                1 => DeltaOp::Update { key: next() % domain, payload: 900_000 + i as u64 },
                _ => DeltaOp::Append(Tuple::new(next() % domain, 500_000 + i as u64)),
            })
            .collect()
    }

    fn directed_cases() -> Vec<Vec<DeltaOp>> {
        vec![
            vec![],
            vec![DeltaOp::Append(Tuple::new(5, 50))],
            vec![DeltaOp::Delete { key: 2 }],
            vec![DeltaOp::Update { key: 2, payload: 99 }],
            // Append then delete the same key: the append dies too.
            vec![DeltaOp::Append(Tuple::new(7, 70)), DeltaOp::Delete { key: 7 }],
            // Delete then append: the append survives.
            vec![DeltaOp::Delete { key: 1 }, DeltaOp::Append(Tuple::new(1, 11))],
            // Append then update: exactly one tuple survives.
            vec![DeltaOp::Append(Tuple::new(3, 31)), DeltaOp::Update { key: 3, payload: 32 }],
            // Update then append: both survive.
            vec![DeltaOp::Update { key: 3, payload: 32 }, DeltaOp::Append(Tuple::new(3, 33))],
            // Delete a key that only exists in the delta.
            vec![DeltaOp::Append(Tuple::new(9, 90)), DeltaOp::Delete { key: 9 }],
        ]
    }

    #[test]
    fn fold_matches_materialize_on_directed_cases() {
        let base = vec![Tuple::new(1, 10), Tuple::new(2, 20), Tuple::new(2, 21), Tuple::new(3, 30)];
        for (i, ops) in directed_cases().iter().enumerate() {
            let overlay = DeltaOverlay::from_ops(ops);
            assert_eq!(
                multiset(&overlay.apply(&base)),
                multiset(&materialize(&base, ops)),
                "case {i}: {ops:?}"
            );
        }
    }

    #[test]
    fn fold_matches_materialize_on_random_interleavings() {
        for seed in 0..20u64 {
            let base = random(200, 40, seed);
            let ops = random_ops(60, 40, seed ^ 0xA5A5);
            let overlay = DeltaOverlay::from_ops(&ops);
            assert!(crate::tuple::is_key_sorted(&overlay.adds), "adds come out key-sorted");
            assert!(overlay.masked.windows(2).all(|w| w[0] < w[1]), "mask sorted + deduped");
            assert_eq!(
                multiset(&overlay.apply(&base)),
                multiset(&materialize(&base, &ops)),
                "seed {seed}"
            );
        }
    }

    /// Folding a prefix and extending it by the rest is the one-shot
    /// fold, exactly: same adds in the same order, same mask.
    #[test]
    fn extend_equals_the_fold_of_the_concatenation() {
        let mut streams = directed_cases();
        streams.extend((0..8u64).map(|seed| mixed_ops(60, 24, seed ^ 0x5EED)));
        for (i, ops) in streams.iter().enumerate() {
            for split in 0..=ops.len() {
                let (head, tail) = ops.split_at(split);
                assert_eq!(
                    DeltaOverlay::from_ops(head).extend(tail),
                    DeltaOverlay::from_ops(ops),
                    "stream {i} split at {split}"
                );
            }
        }
        // Chained one op at a time, as a log read after every write is.
        let ops = mixed_ops(60, 24, 99);
        let chained = ops.iter().fold(DeltaOverlay::default(), |o, op| o.extend(&[*op]));
        assert_eq!(chained, DeltaOverlay::from_ops(&ops));
    }

    /// Brute force: every pair with equal keys, neither key masked.
    fn masked_oracle(
        r: &[Tuple],
        s: &[Tuple],
        r_mask: &[u64],
        s_mask: &[u64],
    ) -> Vec<(u64, u64, u64)> {
        let mut rows: Vec<_> = r
            .iter()
            .filter(|t| !r_mask.contains(&t.key))
            .flat_map(|rt| {
                s.iter()
                    .filter(move |st| st.key == rt.key && !s_mask.contains(&st.key))
                    .map(move |st| (rt.key, rt.payload, st.payload))
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    fn sorted_mask(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut next = lcg(seed);
        let mut mask: Vec<u64> = (0..n).map(|_| next() % domain).collect();
        mask.sort_unstable();
        mask.dedup();
        mask
    }

    #[test]
    fn masked_merge_matches_brute_force_on_duplicate_heavy_runs() {
        for seed in 0..200u64 {
            let domain = 8 + seed % 40;
            let mut r = random(1 + (seed as usize * 7) % 90, domain, seed);
            let mut s = random(1 + (seed as usize * 13) % 120, domain, seed ^ 0xF00D);
            r.sort_unstable_by_key(|t| t.key);
            s.sort_unstable_by_key(|t| t.key);
            let r_mask = sorted_mask((seed % 6) as usize, domain + 4, seed ^ 1);
            let s_mask = sorted_mask((seed % 5) as usize, domain + 4, seed ^ 2);
            let mut sink = CollectSink::default();
            let scan = merge_join_masked(&r, &s, &r_mask, &s_mask, &mut sink);
            let mut rows = sink.finish();
            rows.sort_unstable();
            assert_eq!(rows, masked_oracle(&r, &s, &r_mask, &s_mask), "seed {seed}");
            assert!(scan.r_scanned <= r.len() && scan.s_scanned <= s.len(), "seed {seed}");
            assert!(
                scan.r_scanned == r.len() || scan.s_scanned == s.len(),
                "seed {seed}: the merge stops only when one side is exhausted"
            );
        }
    }

    #[test]
    fn masked_merge_skips_exactly_the_masked_keys() {
        let r: Vec<Tuple> = (0..20u64).map(|k| Tuple::new(k, k)).collect();
        let s: Vec<Tuple> = (0..20u64).map(|k| Tuple::new(k, 100 + k)).collect();
        let mut sink = CollectSink::default();
        let scan = merge_join_masked(&r, &s, &[3, 7], &[7, 11], &mut sink);
        let rows = sink.finish();
        assert_eq!(rows.len(), 20 - 3, "keys 3, 7, 11 drop out");
        assert!(rows.iter().all(|&(k, _, _)| k != 3 && k != 7 && k != 11));
        assert!(scan.r_scanned >= 19 && scan.s_scanned >= 19);
    }

    #[test]
    fn masked_merge_handles_duplicate_groups_and_empty_masks() {
        let r = vec![Tuple::new(4, 1), Tuple::new(4, 2), Tuple::new(9, 3)];
        let s = vec![Tuple::new(4, 10), Tuple::new(4, 11), Tuple::new(9, 12)];
        // Empty masks: plain duplicate semantics (2 × 2 + 1 × 1).
        let mut sink = CountSink::default();
        merge_join_masked(&r, &s, &[], &[], &mut sink);
        assert_eq!(sink.finish(), 5);
        // Masking the duplicate group on one side kills all its pairs.
        let mut sink = CountSink::default();
        merge_join_masked(&r, &s, &[4], &[], &mut sink);
        assert_eq!(sink.finish(), 1);
    }

    /// A masked pair enters the public run where an unmasked one does:
    /// same rows as the masked kernel run from offset 0, and no public
    /// tuple below the entry is read.
    #[test]
    fn masked_pair_enters_the_public_run_at_the_interpolated_offset() {
        let cx = ExecContext::flat(1);
        let r_run = cx.adopt(0, (600..700u64).map(|k| Tuple::new(k, k)).collect());
        let s_run = cx.adopt(0, (0..1000u64).map(|k| Tuple::new(k, 10_000 + k)).collect());
        // Masks reach below, into and above the private key span.
        let r_mask = [5, 610, 650, 900];
        let s_mask = [100, 650, 699, 950];
        let entry = interpolation_lower_bound(&s_run, 600);
        assert_eq!(entry, 600);

        let mut from_zero = CollectSink::default();
        let scan = merge_join_masked(&r_run, &s_run, &r_mask, &s_mask, &mut from_zero);
        assert!(scan.s_scanned >= entry, "the from-zero scan walks the whole prefix");

        let mut entered = CollectSink::default();
        let mut scope = cx.scope(0);
        merge_pair(
            Piece { tuples: &r_run, home: r_run.home(), mask: &r_mask },
            Piece { tuples: &s_run, home: s_run.home(), mask: &s_mask },
            &mut entered,
            &mut scope,
        );
        let rows = entered.finish();
        assert_eq!(rows, from_zero.finish());
        assert_eq!(rows.len(), 100 - 3, "keys 610, 650 and 699 are masked out");
        let sequential = scope.finish().accesses(AccessKind::LocalSeq) as usize;
        assert!(
            sequential <= r_run.len() + (s_run.len() - entry),
            "{sequential} sequential reads reach below entry {entry}"
        );

        // A pair whose masks miss the private key span joins exactly as
        // the unmasked kernel does.
        let mut plain = CountSink::default();
        crate::merge::merge_join(&r_run, &s_run[entry..], &mut plain);
        let mut unmasked = CountSink::default();
        merge_pair(
            Piece { tuples: &r_run, home: r_run.home(), mask: &[5, 900] },
            Piece { tuples: &s_run, home: s_run.home(), mask: &[100, 950] },
            &mut unmasked,
            &mut cx.scope(0),
        );
        assert_eq!(unmasked.finish(), plain.finish());
    }

    /// The structural invariant of the snapshot merge: joining
    /// (base runs + delta run + mask) per side must equal the plain
    /// join over the materialized relations.
    #[test]
    fn delta_merge_equals_join_over_materialized_union() {
        let cx = ExecContext::flat(4);
        for seed in 0..6u64 {
            let r_base = random(1200, 300, seed * 2 + 1);
            let s_base = random(2400, 300, seed * 2 + 2);
            let r_ops = random_ops(80, 300, seed ^ 0x11);
            let s_ops = random_ops(50, 300, seed ^ 0x22);
            let r_overlay = DeltaOverlay::from_ops(&r_ops);
            let s_overlay = DeltaOverlay::from_ops(&s_ops);
            let expected =
                nested_loop_count(&materialize(&r_base, &r_ops), &materialize(&s_base, &s_ops));

            let mut stats = JoinStats::new(4);
            let r_runs = build_run_set(&cx, &r_base, 10, Phase::Two, Phase::Three, &mut stats);
            let s_runs = build_run_set(&cx, &s_base, 10, Phase::One, Phase::One, &mut stats);
            let mut scope = cx.scope(0);
            let r_delta = cx.sorted_run(0, &r_overlay.adds, &mut scope);
            let s_delta = cx.sorted_run(0, &s_overlay.adds, &mut scope);
            scope.finish();
            let r_side =
                DeltaSide { base: &r_runs, delta: Some(&r_delta), mask: &r_overlay.masked };
            let s_side =
                DeltaSide { base: &s_runs, delta: Some(&s_delta), mask: &s_overlay.masked };
            let got = merge_delta_sides_in::<CountSink>(&cx, r_side, s_side, &mut stats);
            assert_eq!(got, expected, "seed {seed}");
            assert_eq!(
                r_side.logical_tuples(),
                materialize(&r_base, &r_ops).len(),
                "seed {seed}: logical cardinality"
            );
        }
    }

    /// Masks reach below, between and above every run; the base keys
    /// leave gaps (every third key) so some masked keys hit no tuple.
    #[test]
    fn logical_tuples_equals_a_brute_force_count() {
        let cx = ExecContext::flat(4);
        for seed in 0..8u64 {
            let base: Vec<Tuple> = random(3000, 60, seed)
                .into_iter()
                .map(|t| Tuple::new(10 + 3 * t.key, t.payload))
                .collect();
            let mut stats = JoinStats::new(4);
            let runs = build_run_set(&cx, &base, 10, Phase::One, Phase::One, &mut stats);
            assert!(runs.parts() > 1, "several runs to cut the mask against");
            let mut mask = sorted_mask(40, 200, seed ^ 0xBEEF);
            mask.extend([0, 1, 190, 1_000]);
            mask.sort_unstable();
            mask.dedup();
            let delta = cx.adopt(0, random(seed as usize * 5, 60, seed));
            let side = DeltaSide { base: &runs, delta: Some(&delta), mask: &mask };
            let alive = base.iter().filter(|t| mask.binary_search(&t.key).is_err()).count();
            assert_eq!(side.logical_tuples(), alive + delta.len(), "seed {seed}");
        }
    }

    #[test]
    fn zero_delta_side_degenerates_to_plain_run_merge() {
        let cx = ExecContext::flat(3);
        let r = random(900, 256, 7);
        let s = random(1800, 256, 9);
        let mut stats = JoinStats::new(3);
        let r_runs = build_run_set(&cx, &r, 10, Phase::Two, Phase::Three, &mut stats);
        let s_runs = build_run_set(&cx, &s, 10, Phase::One, Phase::One, &mut stats);
        let got = merge_delta_sides_in::<CountSink>(
            &cx,
            DeltaSide::base_only(&r_runs),
            DeltaSide::base_only(&s_runs),
            &mut stats,
        );
        assert_eq!(got, nested_loop_count(&r, &s));
        assert_eq!(DeltaSide::base_only(&r_runs).logical_tuples(), r.len());
    }

    #[test]
    fn empty_base_with_delta_only_still_joins() {
        let cx = ExecContext::flat(2);
        let base: Vec<Tuple> = Vec::new();
        let ops: Vec<DeltaOp> = (0..50u64).map(|k| DeltaOp::Append(Tuple::new(k, k))).collect();
        let overlay = DeltaOverlay::from_ops(&ops);
        let s = random(400, 50, 13);
        let mut stats = JoinStats::new(2);
        let r_runs = build_run_set(&cx, &base, 10, Phase::Two, Phase::Three, &mut stats);
        let s_runs = build_run_set(&cx, &s, 10, Phase::One, Phase::One, &mut stats);
        let mut scope = cx.scope(0);
        let delta = cx.sorted_run(0, &overlay.adds, &mut scope);
        scope.finish();
        let r_side = DeltaSide { base: &r_runs, delta: Some(&delta), mask: &overlay.masked };
        let got = merge_delta_sides_in::<CountSink>(
            &cx,
            r_side,
            DeltaSide::base_only(&s_runs),
            &mut stats,
        );
        assert_eq!(got, nested_loop_count(&materialize(&base, &ops), &s));
        assert_eq!(r_side.logical_tuples(), 50);
    }
}
