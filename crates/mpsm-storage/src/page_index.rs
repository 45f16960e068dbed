//! The global page index of Figure 4.
//!
//! The index contains one entry per stored page: `⟨v_ij, S_i, j⟩` where
//! `v_ij` is the first (minimal) join key on the `j`-th page of run
//! `S_i`, sorted ascending by `v_ij`. D-MPSM's join phase cuts this
//! order into ascending key intervals and moves its workers through them
//! in step, prefetching the next interval's pages. The structure is
//! built once after run generation and then accessed read-only — "the
//! common page index structure does not require any synchronization"
//! (paper §3.1).

use crate::run_store::{RunId, RunMeta};

/// One page's entry in the global index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// First (minimal) key on the page — `v_ij`.
    pub min_key: u64,
    /// Last (maximal) key on the page; the page is dead once the join
    /// has passed this key.
    pub max_key: u64,
    /// The run the page belongs to.
    pub run: RunId,
    /// Page number within the run.
    pub page: u32,
}

/// Key-ordered index over all pages of a set of runs.
#[derive(Debug, Clone, Default)]
pub struct PageIndex {
    entries: Vec<IndexEntry>,
}

impl PageIndex {
    /// Build the index from run metadata (any order), sorting entries by
    /// `min_key` and breaking ties by run id then page number so the
    /// order is deterministic.
    pub fn build(metas: &[RunMeta]) -> Self {
        let mut entries = Vec::with_capacity(metas.iter().map(|m| m.pages() as usize).sum());
        for meta in metas {
            for page in 0..meta.pages() {
                entries.push(IndexEntry {
                    min_key: meta.min_keys[page as usize],
                    max_key: meta.max_keys[page as usize],
                    run: meta.id,
                    page,
                });
            }
        }
        entries.sort_unstable_by_key(|e| (e.min_key, e.run, e.page));
        PageIndex { entries }
    }

    /// All entries in key order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Number of indexed pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u32, min_keys: Vec<u64>, max_keys: Vec<u64>) -> RunMeta {
        let pages = min_keys.len() as u64;
        RunMeta { id: RunId(id), len: pages * 4, page_records: 4, min_keys, max_keys }
    }

    #[test]
    fn entries_are_key_ordered_across_runs() {
        // Mirrors the paper's example: v11 ≤ v41 ≤ v21 ≤ v12 ≤ v31 ...
        let metas = vec![
            meta(1, vec![10, 40], vec![39, 80]),
            meta(2, vec![30], vec![90]),
            meta(3, vec![50], vec![70]),
            meta(4, vec![20, 60], vec![55, 99]),
        ];
        let idx = PageIndex::build(&metas);
        let keys: Vec<u64> = idx.entries().iter().map(|e| e.min_key).collect();
        assert_eq!(keys, vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(idx.entries()[1].run, RunId(4));
    }

    #[test]
    fn ties_break_deterministically() {
        let metas = vec![meta(2, vec![5], vec![9]), meta(1, vec![5], vec![7])];
        let idx = PageIndex::build(&metas);
        assert_eq!(idx.entries()[0].run, RunId(1));
        assert_eq!(idx.entries()[1].run, RunId(2));
    }

    #[test]
    fn empty_index() {
        let idx = PageIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(idx.entries().is_empty());
    }
}
