//! Relational operators: filtered scan, join, aggregates.
//!
//! The pipeline shape is fixed to the paper's evaluation plan
//! (`scan → select → join → aggregate`), so the operators compose by
//! value rather than through a general iterator/volcano interface —
//! deliberate minimalism: the join is the system under test, the
//! executor only has to feed it realistically (a selection means "no
//! referential integrity or indexes could be exploited", §5).

use mpsm_core::context::ExecContext;
use mpsm_core::join::JoinAlgorithm;
use mpsm_core::sink::{CountSink, JoinSink, MaxAggSink};
use mpsm_core::stats::JoinStats;
use mpsm_core::worker::{chunk_ranges, run_parallel};
use mpsm_core::Tuple;

use crate::scan::Relation;

/// A filtered scan: materializes the tuples of `relation` satisfying
/// `predicate`. Runs in parallel over input chunks.
pub struct Select<'a, P: Fn(&Tuple) -> bool + Sync> {
    relation: &'a Relation,
    predicate: P,
}

impl<'a, P: Fn(&Tuple) -> bool + Sync> Select<'a, P> {
    /// Create a filtered scan.
    pub fn new(relation: &'a Relation, predicate: P) -> Self {
        Select { relation, predicate }
    }

    /// Execute with `threads` workers (fresh threads per call).
    pub fn execute(&self, threads: usize) -> Vec<Tuple> {
        let tuples = self.relation.tuples();
        let ranges = chunk_ranges(tuples.len(), threads.max(1));
        let parts = run_parallel(threads.max(1), |w| {
            tuples[ranges[w].clone()]
                .iter()
                .filter(|t| (self.predicate)(t))
                .copied()
                .collect::<Vec<_>>()
        });
        Self::concat(parts)
    }

    /// Execute inside an execution context: the scan runs as one tagged
    /// phase on the context's pool, so scheduled queries never spawn
    /// threads for their selections. Base relations are unplaced
    /// (globally interleaved) in the NUMA model, so the selection
    /// contributes no placement decisions — the join it feeds does.
    pub fn execute_in(&self, cx: &ExecContext) -> Vec<Tuple> {
        let tuples = self.relation.tuples();
        let ranges = chunk_ranges(tuples.len(), cx.threads());
        let parts = cx.pool().run(|w| {
            tuples[ranges[w].clone()]
                .iter()
                .filter(|t| (self.predicate)(t))
                .copied()
                .collect::<Vec<_>>()
        });
        Self::concat(parts)
    }

    fn concat(parts: Vec<Vec<Tuple>>) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for mut p in parts {
            out.append(&mut p);
        }
        out
    }
}

/// An equi-join node over two tuple streams, parameterized by the join
/// algorithm under test.
pub struct JoinOp<'a, J: JoinAlgorithm> {
    algorithm: &'a J,
}

impl<'a, J: JoinAlgorithm> JoinOp<'a, J> {
    /// Wrap a join algorithm as an operator.
    pub fn new(algorithm: &'a J) -> Self {
        JoinOp { algorithm }
    }

    /// Execute the join, feeding matches into sink `S`.
    pub fn execute<S: JoinSink>(&self, r: &[Tuple], s: &[Tuple]) -> (S::Result, JoinStats) {
        self.algorithm.join_with_sink::<S>(r, s)
    }

    /// Execute the join inside an execution context: phases on the
    /// context's pool, run storage from its node-local arenas, access
    /// audit into its per-phase counters (see
    /// [`mpsm_core::join::JoinAlgorithm::join_in`]).
    pub fn execute_in<S: JoinSink>(
        &self,
        cx: &ExecContext,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        self.algorithm.join_in::<S>(cx, r, s)
    }
}

/// The paper's aggregate: `max(R.payload + S.payload)`.
pub struct MaxPayloadSum;

impl MaxPayloadSum {
    /// Run over a join operator's output.
    pub fn over<J: JoinAlgorithm>(
        join: &JoinOp<'_, J>,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (Option<u64>, JoinStats) {
        join.execute::<MaxAggSink>(r, s)
    }

    /// Run over a join operator's output, inside an execution context.
    pub fn over_in<J: JoinAlgorithm>(
        cx: &ExecContext,
        join: &JoinOp<'_, J>,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (Option<u64>, JoinStats) {
        join.execute_in::<MaxAggSink>(cx, r, s)
    }
}

/// `COUNT(*)` over the join result.
pub struct CountRows;

impl CountRows {
    /// Run over a join operator's output.
    pub fn over<J: JoinAlgorithm>(
        join: &JoinOp<'_, J>,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (u64, JoinStats) {
        join.execute::<CountSink>(r, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_core::join::p_mpsm::PMpsmJoin;
    use mpsm_core::join::JoinConfig;

    fn rel(name: &str, keys: &[u64]) -> Relation {
        Relation::new(
            name,
            keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect(),
        )
    }

    #[test]
    fn select_filters_in_parallel() {
        let r = rel("r", &(0..1000u64).collect::<Vec<_>>());
        let sel = Select::new(&r, |t| t.key % 10 == 0);
        for threads in [1, 4] {
            let out = sel.execute(threads);
            assert_eq!(out.len(), 100);
            assert!(out.iter().all(|t| t.key % 10 == 0));
        }
    }

    #[test]
    fn select_preserves_order_within_result() {
        let r = rel("r", &[5, 1, 8, 3]);
        let out = Select::new(&r, |t| t.key > 2).execute(2);
        let keys: Vec<u64> = out.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![5, 8, 3], "chunk order concatenation");
    }

    #[test]
    fn join_op_and_aggregates() {
        let r = rel("r", &[1, 2, 3]);
        let s = rel("s", &[2, 3, 3]);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let join = JoinOp::new(&algo);
        let (count, _) = CountRows::over(&join, r.tuples(), s.tuples());
        assert_eq!(count, 3);
        let (max, _) = MaxPayloadSum::over(&join, r.tuples(), s.tuples());
        // Matches: (2: 1+0), (3: 2+1), (3: 2+2) → max 4.
        assert_eq!(max, Some(4));
    }

    #[test]
    fn empty_select_yields_empty_join() {
        let r = rel("r", &[1, 2, 3]);
        let s = rel("s", &[1, 2, 3]);
        let none = Select::new(&r, |_| false).execute(2);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let join = JoinOp::new(&algo);
        let (count, _) = CountRows::over(&join, &none, s.tuples());
        assert_eq!(count, 0);
    }
}
