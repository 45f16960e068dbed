//! Sorted-run storage: writers, metadata, and page reads.
//!
//! During D-MPSM run generation each worker sorts its chunk and spools it
//! through a [`RunWriter`], which cuts the stream into fixed-size pages,
//! records each page's minimal and maximal join key (the material of the
//! page index, Figure 4), and hands the page image to the backend.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::DiskBackend;
use crate::record::{decode_page, encode_page, Record};
use crate::{Result, StorageError};

/// Identifier of a run within a [`RunStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u32);

/// Metadata describing one stored sorted run.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// The run's id.
    pub id: RunId,
    /// Total records in the run.
    pub len: u64,
    /// Records per full page.
    pub page_records: u32,
    /// First (minimal) key of each page — `v_ij` in the paper's index.
    pub min_keys: Vec<u64>,
    /// Last (maximal) key of each page — used to decide when a page has
    /// been passed by all workers and can be released.
    pub max_keys: Vec<u64>,
}

impl RunMeta {
    /// Number of pages in the run.
    pub fn pages(&self) -> u32 {
        self.min_keys.len() as u32
    }

    /// Number of records on page `page` (the final page may be short).
    pub fn records_on_page(&self, page: u32) -> u32 {
        let full = self.page_records as u64;
        let before = page as u64 * full;
        (self.len - before).min(full) as u32
    }
}

/// A shared store of sorted runs on one backend.
pub struct RunStore<B> {
    backend: Arc<B>,
    page_records: u32,
    metas: Mutex<Vec<RunMeta>>,
}

impl<B: DiskBackend> RunStore<B> {
    /// Create a store cutting pages of `page_records` records.
    pub fn new(backend: B, page_records: u32) -> Self {
        assert!(page_records > 0, "page size must be positive");
        RunStore { backend: Arc::new(backend), page_records, metas: Mutex::new(Vec::new()) }
    }

    /// Records per page.
    pub fn page_records(&self) -> u32 {
        self.page_records
    }

    /// Access the underlying backend (for I/O statistics).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Begin writing a new run; returns its writer.
    pub fn begin_run<R: Record>(&self) -> RunWriter<'_, B, R> {
        let id = {
            let mut metas = self.metas.lock();
            let id = RunId(metas.len() as u32);
            metas.push(RunMeta {
                id,
                len: 0,
                page_records: self.page_records,
                min_keys: Vec::new(),
                max_keys: Vec::new(),
            });
            id
        };
        RunWriter {
            store: self,
            id,
            buf: Vec::with_capacity(self.page_records as usize),
            next_page: 0,
            written: 0,
        }
    }

    /// Write a whole pre-sorted slice as a run (convenience for tests and
    /// run generation).
    pub fn store_run<R: Record>(&self, records: &[R]) -> Result<RunMeta> {
        debug_assert!(records.windows(2).all(|w| w[0].key() <= w[1].key()), "run must be sorted");
        let mut writer = self.begin_run::<R>();
        for r in records {
            writer.push(*r)?;
        }
        writer.finish()
    }

    /// Metadata of run `id`.
    pub fn meta(&self, id: RunId) -> Result<RunMeta> {
        self.metas.lock().get(id.0 as usize).cloned().ok_or(StorageError::UnknownRun(id))
    }

    /// Metadata of all runs, in id order.
    pub fn all_metas(&self) -> Vec<RunMeta> {
        self.metas.lock().clone()
    }

    /// Number of runs stored.
    pub fn run_count(&self) -> u32 {
        self.metas.lock().len() as u32
    }

    /// Read one page of a run, decoded.
    pub fn read_page<R: Record>(&self, run: RunId, page: u32) -> Result<Vec<R>> {
        let meta = self.meta(run)?;
        if page >= meta.pages() {
            return Err(StorageError::PageOutOfBounds { run, page, pages: meta.pages() });
        }
        Ok(decode_page(&self.backend.read_page(run, page)?))
    }

    fn flush_page<R: Record>(&self, id: RunId, page: u32, records: &[R]) -> Result<()> {
        self.backend.write_page(id, page, &encode_page(records))?;
        let mut metas = self.metas.lock();
        let meta = &mut metas[id.0 as usize];
        meta.min_keys.push(records.first().expect("non-empty page").key());
        meta.max_keys.push(records.last().expect("non-empty page").key());
        meta.len += records.len() as u64;
        Ok(())
    }
}

/// Incremental writer for one run. Records must arrive in key order.
pub struct RunWriter<'a, B: DiskBackend, R: Record> {
    store: &'a RunStore<B>,
    id: RunId,
    buf: Vec<R>,
    next_page: u32,
    written: u64,
}

impl<'a, B: DiskBackend, R: Record> RunWriter<'a, B, R> {
    /// The id of the run being written.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Append one record (must be `>=` the previous record's key).
    pub fn push(&mut self, record: R) -> Result<()> {
        if let Some(last) = self.buf.last() {
            debug_assert!(last.key() <= record.key(), "records must be pushed in key order");
        }
        self.buf.push(record);
        self.written += 1;
        if self.buf.len() == self.store.page_records as usize {
            self.store.flush_page(self.id, self.next_page, &self.buf)?;
            self.next_page += 1;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flush the final partial page and return the run's metadata.
    pub fn finish(self) -> Result<RunMeta> {
        if !self.buf.is_empty() {
            self.store.flush_page(self.id, self.next_page, &self.buf)?;
        }
        self.store.meta(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::record::KvRecord;

    fn store() -> RunStore<MemBackend> {
        RunStore::new(MemBackend::disk_array(), 8)
    }

    fn sorted_records(n: u64) -> Vec<KvRecord> {
        (0..n).map(|i| KvRecord::new(i * 3, i)).collect()
    }

    #[test]
    fn store_and_read_back() {
        let s = store();
        let recs = sorted_records(20);
        let meta = s.store_run(&recs).unwrap();
        assert_eq!(meta.len, 20);
        assert_eq!(meta.pages(), 3); // 8 + 8 + 4
        assert_eq!(meta.records_on_page(0), 8);
        assert_eq!(meta.records_on_page(2), 4);
        let mut out = Vec::new();
        for page in 0..meta.pages() {
            out.extend(s.read_page::<KvRecord>(meta.id, page).unwrap());
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn min_max_keys_per_page() {
        let s = store();
        let meta = s.store_run(&sorted_records(20)).unwrap();
        assert_eq!(meta.min_keys, vec![0, 24, 48]);
        assert_eq!(meta.max_keys, vec![21, 45, 57]);
    }

    #[test]
    fn multiple_runs_get_distinct_ids() {
        let s = store();
        let a = s.store_run(&sorted_records(4)).unwrap();
        let b = s.store_run(&sorted_records(4)).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(s.run_count(), 2);
    }

    #[test]
    fn empty_run_has_no_pages() {
        let s = store();
        let meta = s.store_run::<KvRecord>(&[]).unwrap();
        assert_eq!(meta.pages(), 0);
        assert_eq!(meta.len, 0);
        assert!(matches!(
            s.read_page::<KvRecord>(meta.id, 0),
            Err(StorageError::PageOutOfBounds { page: 0, pages: 0, .. })
        ));
    }

    #[test]
    fn page_out_of_bounds_is_reported() {
        let s = store();
        let meta = s.store_run(&sorted_records(4)).unwrap();
        match s.read_page::<KvRecord>(meta.id, 7) {
            Err(StorageError::PageOutOfBounds { page: 7, pages: 1, .. }) => {}
            other => panic!("expected out-of-bounds, got {other:?}"),
        }
    }

    #[test]
    fn unknown_run_is_reported() {
        let s = store();
        assert!(matches!(s.meta(RunId(3)), Err(StorageError::UnknownRun(RunId(3)))));
    }

    #[test]
    fn exact_page_multiple_has_no_partial_page() {
        let s = store();
        let meta = s.store_run(&sorted_records(16)).unwrap();
        assert_eq!(meta.pages(), 2);
        assert_eq!(meta.records_on_page(1), 8);
    }

    #[test]
    fn incremental_writer_matches_bulk() {
        let s = store();
        let recs = sorted_records(13);
        let mut w = s.begin_run::<KvRecord>();
        for r in &recs {
            w.push(*r).unwrap();
        }
        let meta = w.finish().unwrap();
        let bulk = s.store_run(&recs).unwrap();
        assert_eq!(meta.min_keys, bulk.min_keys);
        assert_eq!(meta.max_keys, bulk.max_keys);
        assert_eq!(meta.len, bulk.len);
    }
}
