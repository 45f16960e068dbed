//! Non-inner join variants (paper §7 future work: "outer, semi, and
//! non-equi joins").
//!
//! The MPSM structure makes one-sided variants natural on the *private*
//! side: every worker owns a complete private run `R_i` and scans all
//! public runs, so after the merge phase it knows, per private tuple,
//! whether a partner existed *anywhere* in `S`. A per-run `matched`
//! bitmap (worker-local, commandment C3 intact) carries that knowledge
//! across the `T` public runs:
//!
//! * **left outer** — inner pairs plus [`crate::sink::JoinSink::on_private`]
//!   for every unmatched private tuple;
//! * **left semi** — each matched private tuple once (no pairs);
//! * **left anti** — each unmatched private tuple once.
//!
//! Non-equi **band joins** (`|r.key − s.key| ≤ delta`) are provided for
//! the B-MPSM topology, where every worker sees all of `S` so no
//! partition-boundary replication is needed ([`band_merge_join`]).

use std::ops::Deref;

use crate::merge::{merge_join_scanned, Matches, MergeScan};
use crate::sink::JoinSink;
use crate::tuple::Tuple;

/// The supported join variants (the private side is the "left").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinVariant {
    /// Plain equi-join: all matching pairs.
    #[default]
    Inner,
    /// All pairs plus one single-sided row per unmatched private tuple.
    LeftOuter,
    /// One single-sided row per private tuple with ≥ 1 partner.
    LeftSemi,
    /// One single-sided row per private tuple with no partner.
    LeftAnti,
}

impl JoinVariant {
    /// Whether the variant emits matching pairs.
    pub fn emits_pairs(self) -> bool {
        matches!(self, JoinVariant::Inner | JoinVariant::LeftOuter)
    }
}

/// The marking consumer of the merge kernel: every matched private
/// index is set in `matched`, and pairs reach `sink` only when the
/// variant emits them — semi and anti joins never walk a group's cross
/// product.
struct Marker<'a, S> {
    matched: &'a mut [bool],
    sink: &'a mut S,
    pairs: bool,
}

impl<S: JoinSink> Matches for Marker<'_, S> {
    #[inline]
    fn pair(&mut self, i: usize, r: Tuple, s: Tuple) {
        self.matched[i] = true;
        if self.pairs {
            self.sink.on_match(r, s);
        }
    }

    fn groups(&mut self, i: usize, r: &[Tuple], s: &[Tuple]) {
        self.matched[i..i + r.len()].fill(true);
        if self.pairs {
            self.sink.groups(i, r, s);
        }
    }
}

/// Join the private run `r` against every run of `public` under
/// `variant` — the one join routine of B-MPSM's phase 3 and D-MPSM's
/// steps. Each public run goes through the merge kernel, cut to the key
/// span it shares with `r` (the matched indices stay those of the whole
/// `r`), and its scan extents are reported to `scanned` for the access
/// audit. The inner join emits pairs straight into `sink`; the other
/// variants mark matched private tuples across all public runs and then
/// emit their single-sided rows.
pub(crate) fn join_variant<'p, P, S>(
    variant: JoinVariant,
    r: &[Tuple],
    public: impl IntoIterator<Item = &'p P>,
    sink: &mut S,
    mut scanned: impl FnMut(&P, MergeScan),
) where
    P: Deref<Target = [Tuple]> + 'p,
    S: JoinSink,
{
    if variant == JoinVariant::Inner {
        for s in public {
            scanned(s, merge_join_scanned(r, s, sink));
        }
        return;
    }
    let mut matched = vec![false; r.len()];
    let mut marker = Marker { matched: &mut matched, sink, pairs: variant.emits_pairs() };
    for s in public {
        scanned(s, merge_join_scanned(r, s, &mut marker));
    }
    emit_variant_rows(variant, r, &matched, sink);
}

/// Finish a variant after all public runs were merged: emit the
/// single-sided rows the variant calls for.
fn emit_variant_rows<S: JoinSink>(
    variant: JoinVariant,
    r: &[Tuple],
    matched: &[bool],
    sink: &mut S,
) {
    match variant {
        JoinVariant::Inner => {}
        JoinVariant::LeftOuter | JoinVariant::LeftAnti => {
            for (t, &m) in r.iter().zip(matched) {
                if !m {
                    sink.on_private(*t);
                }
            }
        }
        JoinVariant::LeftSemi => {
            for (t, &m) in r.iter().zip(matched) {
                if m {
                    sink.on_private(*t);
                }
            }
        }
    }
}

/// Band merge join: emit all pairs with `|r.key − s.key| ≤ delta` from
/// two key-sorted runs. Forward-only on both runs (a sliding window on
/// `s`), so remote scans stay sequential (commandment C2).
pub fn band_merge_join<S: JoinSink>(r: &[Tuple], s: &[Tuple], delta: u64, sink: &mut S) {
    debug_assert!(crate::tuple::is_key_sorted(r));
    debug_assert!(crate::tuple::is_key_sorted(s));
    let mut window_start = 0usize;
    for rt in r {
        let lo = rt.key.saturating_sub(delta);
        let hi = rt.key.saturating_add(delta);
        while window_start < s.len() && s[window_start].key < lo {
            window_start += 1;
        }
        let mut j = window_start;
        while j < s.len() && s[j].key <= hi {
            sink.on_match(*rt, s[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountSink, NULL_PAYLOAD};

    fn sorted(keys: &[(u64, u64)]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = keys.iter().map(|&(k, p)| Tuple::new(k, p)).collect();
        v.sort_unstable();
        v
    }

    /// The sorted rows of `variant` over `r` against the `public` runs.
    fn rows(variant: JoinVariant, r: &[Tuple], public: &[Vec<Tuple>]) -> Vec<(u64, u64, u64)> {
        let mut sink = CollectSink::default();
        join_variant(variant, r, public, &mut sink, |_, _| {});
        let mut rows = sink.finish();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn marking_accumulates_across_runs() {
        let r = sorted(&[(1, 0), (2, 0), (3, 0)]);
        let public = [sorted(&[(1, 10)]), sorted(&[(3, 30)])];
        let mut calls = 0;
        let mut sink = CollectSink::default();
        join_variant(JoinVariant::LeftOuter, &r, &public, &mut sink, |_, _| calls += 1);
        assert_eq!(calls, 2, "one scan report per public run");
        let mut rows = sink.finish();
        rows.sort_unstable();
        assert_eq!(rows, vec![(1, 0, 10), (2, 0, NULL_PAYLOAD), (3, 0, 30)]);
    }

    #[test]
    fn outer_rows_pad_unmatched() {
        let r = sorted(&[(1, 11), (2, 22)]);
        let s = sorted(&[(1, 100)]);
        assert_eq!(
            rows(JoinVariant::LeftOuter, &r, &[s]),
            vec![(1, 11, 100), (2, 22, NULL_PAYLOAD)]
        );
    }

    #[test]
    fn semi_and_anti_partition_the_private_input() {
        let r = sorted(&[(1, 0), (2, 0), (3, 0), (3, 1)]);
        let public = [sorted(&[(3, 0), (3, 9), (5, 0)])];
        let semi = rows(JoinVariant::LeftSemi, &r, &public);
        let anti = rows(JoinVariant::LeftAnti, &r, &public);
        assert!(
            semi.iter().chain(&anti).all(|&(.., s)| s == NULL_PAYLOAD),
            "semi/anti must not emit pairs"
        );
        assert_eq!(
            semi,
            vec![(3, 0, NULL_PAYLOAD), (3, 1, NULL_PAYLOAD)],
            "both key-3 tuples matched"
        );
        assert_eq!(
            anti,
            vec![(1, 0, NULL_PAYLOAD), (2, 0, NULL_PAYLOAD)],
            "keys 1 and 2 unmatched"
        );
    }

    #[test]
    fn duplicate_groups_mark_every_member_and_emit_cross_products() {
        let r = sorted(&[(7, 0), (7, 1)]);
        let public = [sorted(&[(7, 10), (7, 11), (7, 12)])];
        let outer = rows(JoinVariant::LeftOuter, &r, &public);
        assert_eq!(outer.len(), 6, "2 × 3 pairs and no padded row");
        assert!(outer.iter().all(|&(.., s)| s != NULL_PAYLOAD));
        assert!(rows(JoinVariant::LeftAnti, &r, &public).is_empty(), "every member is marked");
        assert_eq!(rows(JoinVariant::LeftSemi, &r, &public).len(), 2);
    }

    #[test]
    fn band_join_window() {
        let r = sorted(&[(10, 0), (20, 1)]);
        let s = sorted(&[(7, 0), (9, 1), (12, 2), (18, 3), (25, 4)]);
        let mut sink = CollectSink::default();
        band_merge_join(&r, &s, 2, &mut sink);
        let mut rows = sink.finish();
        rows.sort_unstable();
        // 10 matches 9 and 12 (|Δ|≤2); 20 matches 18.
        assert_eq!(rows, vec![(10, 0, 1), (10, 0, 2), (20, 1, 3)]);
    }

    #[test]
    fn band_join_delta_zero_is_equi() {
        let r = sorted(&[(5, 0), (6, 0)]);
        let s = sorted(&[(5, 1), (7, 1)]);
        let mut sink = CountSink::default();
        band_merge_join(&r, &s, 0, &mut sink);
        assert_eq!(sink.finish(), 1);
    }

    #[test]
    fn band_join_saturates_at_domain_edges() {
        let r = sorted(&[(0, 0), (u64::MAX, 1)]);
        let s = sorted(&[(1, 0), (u64::MAX - 1, 1)]);
        let mut sink = CountSink::default();
        band_merge_join(&r, &s, 5, &mut sink);
        assert_eq!(sink.finish(), 2, "no overflow at either end");
    }

    #[test]
    fn variant_pair_emission_flags() {
        assert!(JoinVariant::Inner.emits_pairs());
        assert!(JoinVariant::LeftOuter.emits_pairs());
        assert!(!JoinVariant::LeftSemi.emits_pairs());
        assert!(!JoinVariant::LeftAnti.emits_pairs());
    }
}
