//! Join result sinks.
//!
//! MPSM workers produce matches independently; a [`JoinSink`] consumes
//! them without cross-worker synchronization (each worker owns one sink
//! instance; results are combined after the barrier). The paper's
//! benchmark query
//!
//! ```sql
//! SELECT max(R.payload + S.payload) FROM R, S WHERE R.joinkey = S.joinkey
//! ```
//!
//! "is designed to ensure that the payload data is fed through the join
//! while only one output tuple is generated" — that is [`MaxAggSink`].

use crate::tuple::Tuple;

/// Per-worker consumer of join matches.
///
/// `on_match(private, public)` is called once per joined pair; the
/// private tuple is the one from the (possibly role-reversed) private
/// input `R`. After its worker finishes, `finish` extracts a partial
/// result; partial results are folded with `combine`.
pub trait JoinSink: Default + Send {
    /// Combined result type.
    type Result: Send;

    /// Consume one match.
    fn on_match(&mut self, private: Tuple, public: Tuple);

    /// Consume a *single-sided* private tuple, produced by the non-inner
    /// join variants (§7 "other join variants"): the padded row of a
    /// left-outer join, or the output row of a semi/anti join. The
    /// default treats it like a match against a NULL public side with
    /// payload 0 semantics defined per sink; sinks that care (e.g.
    /// [`CollectSink`]) override it.
    fn on_private(&mut self, private: Tuple) {
        let _ = private;
    }

    /// Extract this worker's partial result.
    fn finish(self) -> Self::Result;

    /// Fold two partial results.
    fn combine(a: Self::Result, b: Self::Result) -> Self::Result;

    /// Fold many partial results (empty input gives the identity
    /// obtained from an empty sink).
    fn combine_all(parts: impl IntoIterator<Item = Self::Result>) -> Self::Result {
        let mut iter = parts.into_iter();
        let first = match iter.next() {
            Some(f) => f,
            None => Self::default().finish(),
        };
        iter.fold(first, Self::combine)
    }

    /// Rows materialized in a partial result, when the sink produces
    /// countable rows at all. `None` (the default) means the sink
    /// aggregates instead of materializing; cap-aware drivers (the
    /// anytime merge's `rows_cap` early stop) can only stop early on
    /// sinks that report a count.
    fn result_len(result: &Self::Result) -> Option<usize> {
        let _ = result;
        None
    }
}

/// Counts join matches — the cheapest way to validate cardinality.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    count: u64,
}

impl JoinSink for CountSink {
    type Result = u64;

    #[inline]
    fn on_match(&mut self, _private: Tuple, _public: Tuple) {
        self.count += 1;
    }

    #[inline]
    fn on_private(&mut self, _private: Tuple) {
        self.count += 1;
    }

    fn finish(self) -> u64 {
        self.count
    }

    fn combine(a: u64, b: u64) -> u64 {
        a + b
    }
}

/// The paper's benchmark aggregate: `max(R.payload + S.payload)`.
/// `None` when the join is empty.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxAggSink {
    max: Option<u64>,
}

impl JoinSink for MaxAggSink {
    type Result = Option<u64>;

    #[inline]
    fn on_match(&mut self, private: Tuple, public: Tuple) {
        let v = private.payload.wrapping_add(public.payload);
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    fn finish(self) -> Option<u64> {
        self.max
    }

    fn combine(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// Materializes all matches as `(key, private payload, public payload)`.
/// For tests and small queries; large joins should aggregate instead.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    rows: Vec<(u64, u64, u64)>,
}

/// Sentinel standing for a NULL public payload in [`CollectSink`] rows
/// produced by outer/semi/anti variants.
pub const NULL_PAYLOAD: u64 = u64::MAX;

impl JoinSink for CollectSink {
    type Result = Vec<(u64, u64, u64)>;

    #[inline]
    fn on_match(&mut self, private: Tuple, public: Tuple) {
        // No equal-key assertion: band (non-equi) joins legitimately
        // pair different keys. The recorded key is the private one.
        self.rows.push((private.key, private.payload, public.payload));
    }

    #[inline]
    fn on_private(&mut self, private: Tuple) {
        self.rows.push((private.key, private.payload, NULL_PAYLOAD));
    }

    fn finish(self) -> Self::Result {
        self.rows
    }

    fn combine(mut a: Self::Result, mut b: Self::Result) -> Self::Result {
        a.append(&mut b);
        a
    }

    fn result_len(result: &Self::Result) -> Option<usize> {
        Some(result.len())
    }
}

/// Captures the "interesting physical property" of MPSM output (§6/§7):
/// each worker emits matches as a small number of key-ascending runs
/// (one per public run it merges against). This sink materializes those
/// runs *as runs*, splitting whenever the key decreases, so downstream
/// sort-based operators (early aggregation, merge-based group-by) can
/// consume them without re-sorting — see `mpsm_exec::groupby`.
#[derive(Debug, Default, Clone)]
pub struct SortedRunsSink {
    runs: Vec<Vec<(u64, u64)>>,
}

impl JoinSink for SortedRunsSink {
    /// Key-ascending runs of `(key, private.payload + public.payload)`.
    type Result = Vec<Vec<(u64, u64)>>;

    #[inline]
    fn on_match(&mut self, private: Tuple, public: Tuple) {
        let row = (private.key, private.payload.wrapping_add(public.payload));
        match self.runs.last_mut() {
            Some(run) if run.last().is_none_or(|last| last.0 <= row.0) => run.push(row),
            _ => self.runs.push(vec![row]),
        }
    }

    fn finish(self) -> Self::Result {
        self.runs
    }

    fn combine(mut a: Self::Result, mut b: Self::Result) -> Self::Result {
        a.append(&mut b);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: u64, payload: u64) -> Tuple {
        Tuple::new(key, payload)
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        s.on_match(t(1, 1), t(1, 2));
        s.on_match(t(1, 1), t(1, 3));
        assert_eq!(s.finish(), 2);
        assert_eq!(CountSink::combine(2, 3), 5);
        assert_eq!(CountSink::combine_all([1, 2, 3]), 6);
        assert_eq!(CountSink::combine_all(std::iter::empty()), 0);
    }

    #[test]
    fn max_agg_matches_paper_query() {
        let mut s = MaxAggSink::default();
        s.on_match(t(1, 10), t(1, 5));
        s.on_match(t(2, 3), t(2, 100));
        assert_eq!(s.finish(), Some(103));
        assert_eq!(MaxAggSink::combine(Some(5), Some(9)), Some(9));
        assert_eq!(MaxAggSink::combine(None, Some(9)), Some(9));
        assert_eq!(MaxAggSink::combine(None, None), None);
        assert_eq!(MaxAggSink::default().finish(), None, "empty join → NULL");
    }

    #[test]
    fn collect_sink_keeps_all_rows() {
        let mut s = CollectSink::default();
        s.on_match(t(7, 1), t(7, 2));
        let rows = s.finish();
        assert_eq!(rows, vec![(7, 1, 2)]);
        let combined = CollectSink::combine(rows, vec![(8, 0, 0)]);
        assert_eq!(combined.len(), 2);
    }

    #[test]
    fn single_sided_rows_flow_through_sinks() {
        let mut c = CountSink::default();
        c.on_private(t(9, 9));
        assert_eq!(c.finish(), 1);

        let mut col = CollectSink::default();
        col.on_private(t(9, 5));
        assert_eq!(col.finish(), vec![(9, 5, NULL_PAYLOAD)]);

        let mut m = MaxAggSink::default();
        m.on_private(t(9, 5));
        assert_eq!(m.finish(), None, "NULL public side contributes nothing to max");
    }

    #[test]
    fn sorted_runs_sink_splits_on_descending_keys() {
        let mut s = SortedRunsSink::default();
        s.on_match(t(1, 0), t(1, 1));
        s.on_match(t(3, 0), t(3, 1));
        s.on_match(t(2, 0), t(2, 1)); // key went down: new run
        s.on_match(t(2, 5), t(2, 1)); // equal key continues the run
        let runs = s.finish();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], vec![(1, 1), (3, 1)]);
        assert_eq!(runs[1], vec![(2, 1), (2, 6)]);
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "runs must be sorted");
        }
    }

    #[test]
    fn max_agg_wraps_rather_than_panics() {
        let mut s = MaxAggSink::default();
        s.on_match(t(0, u64::MAX), t(0, 2));
        assert_eq!(s.finish(), Some(1), "wrapping add, as documented");
    }
}
