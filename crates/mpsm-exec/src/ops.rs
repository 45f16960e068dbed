//! Relational operators: the filtered scan.
//!
//! The pipeline shape is fixed to the paper's evaluation plan
//! (`scan → select → join → aggregate`), so there is no general
//! iterator/volcano interface — deliberate minimalism: the join is the
//! system under test and the aggregate is its sink
//! ([`mpsm_core::join::JoinAlgorithm::join_in`] with a
//! [`mpsm_core::sink::MaxAggSink`]), so the executor only has to feed it
//! realistically (a selection means "no referential integrity or
//! indexes could be exploited", §5).

use mpsm_core::context::ExecContext;
use mpsm_core::worker::chunk_ranges;
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

    /// Execute inside an execution context: the scan runs as one
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_core::join::p_mpsm::PMpsmJoin;
    use mpsm_core::join::{JoinAlgorithm, JoinConfig};
    use mpsm_core::sink::CountSink;

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
            let out = sel.execute_in(&ExecContext::flat(threads));
            assert_eq!(out.len(), 100);
            assert!(out.iter().all(|t| t.key % 10 == 0));
        }
    }

    #[test]
    fn select_preserves_order_within_result() {
        let r = rel("r", &[5, 1, 8, 3]);
        let out = Select::new(&r, |t| t.key > 2).execute_in(&ExecContext::flat(2));
        let keys: Vec<u64> = out.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![5, 8, 3], "chunk order concatenation");
    }

    #[test]
    fn empty_select_yields_empty_join() {
        let r = rel("r", &[1, 2, 3]);
        let s = rel("s", &[1, 2, 3]);
        let cx = ExecContext::flat(2);
        let none = Select::new(&r, |_| false).execute_in(&cx);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let (count, _) = algo.join_in::<CountSink>(&cx, &none, s.tuples());
        assert_eq!(count, 0);
    }
}
