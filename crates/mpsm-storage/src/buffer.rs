//! Budgeted buffer pool realizing the Figure 4 page lifecycle.
//!
//! Pages enter the pool either via [`BufferPool::prefetch`], a step ahead
//! of the join, or on demand through [`BufferPool::get`] (a worker needs
//! them *now* — rare, because the next interval is prefetched while the
//! current one merges). Pages leave when the join releases every page
//! wholly below the interval it has finished, or when the budget forces
//! eviction of idle pages. The pool tracks a resident-page high-water
//! mark so experiments can verify that D-MPSM really runs within its RAM
//! budget (experiment E10).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::DiskBackend;
use crate::page_index::IndexEntry;
use crate::record::Record;
use crate::run_store::{RunId, RunStore};
use crate::Result;

/// Counters describing pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Demand reads satisfied from the pool.
    pub hits: u64,
    /// Demand reads that had to go to the backend.
    pub misses: u64,
    /// Pages loaded ahead of demand.
    pub prefetches: u64,
    /// Pages dropped because the join passed them.
    pub releases: u64,
    /// Pages dropped by budget pressure.
    pub evictions: u64,
    /// Maximum resident pages observed.
    pub high_water_pages: u64,
}

struct PoolInner<R> {
    pages: HashMap<(RunId, u32), Arc<Vec<R>>>,
    arrival: VecDeque<(RunId, u32)>,
    stats: BufferStats,
}

impl<R> PoolInner<R> {
    fn note_resident(&mut self) {
        self.stats.high_water_pages = self.stats.high_water_pages.max(self.pages.len() as u64);
    }
}

/// Shared, budgeted page cache over a [`RunStore`].
pub struct BufferPool<B: DiskBackend, R: Record> {
    store: Arc<RunStore<B>>,
    budget_pages: usize,
    inner: Mutex<PoolInner<R>>,
}

impl<B: DiskBackend, R: Record> BufferPool<B, R> {
    /// Create a pool over `store` holding at most `budget_pages` pages
    /// (evicting idle pages beyond that; pages still referenced by
    /// readers are never dropped from under them thanks to `Arc`).
    pub fn new(store: Arc<RunStore<B>>, budget_pages: usize) -> Self {
        assert!(budget_pages > 0, "buffer budget must be positive");
        BufferPool {
            store,
            budget_pages,
            inner: Mutex::new(PoolInner {
                pages: HashMap::new(),
                arrival: VecDeque::new(),
                stats: BufferStats::default(),
            }),
        }
    }

    /// The RAM budget, in pages.
    pub fn budget_pages(&self) -> usize {
        self.budget_pages
    }

    /// The underlying run store.
    pub fn store(&self) -> &RunStore<B> {
        &self.store
    }

    /// Demand-read a page (hit or miss); the returned `Arc` keeps the
    /// page alive regardless of pool eviction.
    pub fn get(&self, run: RunId, page: u32) -> Result<Arc<Vec<R>>> {
        {
            let mut inner = self.inner.lock();
            if let Some(p) = inner.pages.get(&(run, page)) {
                let p = Arc::clone(p);
                inner.stats.hits += 1;
                return Ok(p);
            }
            inner.stats.misses += 1;
        }
        // Read without holding the lock; concurrent duplicate loads of
        // the same page are benign (last insert wins).
        let data = Arc::new(self.store.read_page::<R>(run, page)?);
        let mut inner = self.inner.lock();
        inner.pages.insert((run, page), Arc::clone(&data));
        inner.arrival.push_back((run, page));
        inner.note_resident();
        self.enforce_budget(&mut inner);
        Ok(data)
    }

    /// Load a page ahead of demand if it is not already resident.
    pub fn prefetch(&self, run: RunId, page: u32) -> Result<()> {
        {
            let inner = self.inner.lock();
            if inner.pages.contains_key(&(run, page)) {
                return Ok(());
            }
        }
        let data = Arc::new(self.store.read_page::<R>(run, page)?);
        let mut inner = self.inner.lock();
        if inner.pages.insert((run, page), data).is_none() {
            inner.arrival.push_back((run, page));
            inner.stats.prefetches += 1;
        }
        inner.note_resident();
        self.enforce_budget(&mut inner);
        Ok(())
    }

    /// Drop the given pages (no later key interval reads them — Figure
    /// 4, green). Pages still referenced by a reader stay alive through
    /// their `Arc` but leave the pool immediately.
    pub fn release<'a>(&self, entries: impl IntoIterator<Item = &'a IndexEntry>) {
        let mut inner = self.inner.lock();
        for e in entries {
            if inner.pages.remove(&(e.run, e.page)).is_some() {
                inner.stats.releases += 1;
            }
        }
        let PoolInner { pages, arrival, .. } = &mut *inner;
        arrival.retain(|k| pages.contains_key(k));
    }

    /// Whether a page is currently resident (for tests and audits).
    pub fn is_resident(&self, run: RunId, page: u32) -> bool {
        self.inner.lock().pages.contains_key(&(run, page))
    }

    /// Current resident page count.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> BufferStats {
        self.inner.lock().stats
    }

    fn enforce_budget(&self, inner: &mut PoolInner<R>) {
        while inner.pages.len() > self.budget_pages {
            // Evict the oldest idle page; pages still referenced by a
            // reader (strong_count > 1) are skipped.
            let Some(pos) = inner
                .arrival
                .iter()
                .position(|k| inner.pages.get(k).is_some_and(|p| Arc::strong_count(p) == 1))
            else {
                // Everything is in use: tolerate the overshoot (it is
                // recorded in the high-water mark).
                break;
            };
            let key = inner.arrival.remove(pos).expect("position just found");
            inner.pages.remove(&key);
            inner.stats.evictions += 1;
        }
        let PoolInner { pages, arrival, .. } = &mut *inner;
        arrival.retain(|k| pages.contains_key(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::page_index::PageIndex;
    use crate::record::KvRecord;

    fn setup(
        pages: u64,
        budget: usize,
    ) -> (Arc<RunStore<MemBackend>>, BufferPool<MemBackend, KvRecord>) {
        let store = Arc::new(RunStore::new(MemBackend::disk_array(), 4));
        let recs: Vec<KvRecord> = (0..pages * 4).map(|i| KvRecord::new(i, i)).collect();
        store.store_run(&recs).unwrap();
        let pool = BufferPool::new(Arc::clone(&store), budget);
        (store, pool)
    }

    #[test]
    fn get_caches_pages() {
        let (_s, pool) = setup(4, 8);
        let a = pool.get(RunId(0), 0).unwrap();
        let b = pool.get(RunId(0), 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = pool.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 1);
    }

    #[test]
    fn budget_evicts_idle_pages() {
        let (_s, pool) = setup(6, 2);
        for p in 0..6 {
            let page = pool.get(RunId(0), p).unwrap();
            drop(page); // page becomes idle immediately
        }
        assert!(pool.resident_pages() <= 2);
        let st = pool.stats();
        assert_eq!(st.evictions, 4);
        assert!(st.high_water_pages <= 3);
    }

    #[test]
    fn pinned_pages_survive_budget_pressure() {
        let (_s, pool) = setup(6, 2);
        let pinned: Vec<_> = (0..4).map(|p| pool.get(RunId(0), p).unwrap()).collect();
        assert_eq!(pool.resident_pages(), 4, "all pages referenced, none evictable");
        // The pinned pages still hold their data.
        assert_eq!(pinned[0][0].key, 0);
        drop(pinned);
        // New traffic now triggers eviction down to budget.
        let _ = pool.get(RunId(0), 5).unwrap();
        assert!(pool.resident_pages() <= 2);
    }

    #[test]
    fn prefetch_counts_separately() {
        let (_s, pool) = setup(4, 8);
        pool.prefetch(RunId(0), 1).unwrap();
        pool.prefetch(RunId(0), 1).unwrap(); // already resident: no-op
        let _ = pool.get(RunId(0), 1).unwrap();
        let st = pool.stats();
        assert_eq!(st.prefetches, 1);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 0);
    }

    #[test]
    fn release_drops_passed_pages() {
        let (store, pool) = setup(4, 8);
        for p in 0..4 {
            pool.prefetch(RunId(0), p).unwrap();
        }
        let index = PageIndex::build(&store.all_metas());
        // Slowest worker at key 8 → pages with max_key < 8 (pages 0..2) die.
        pool.release(index.entries().iter().filter(|e| e.max_key < 8));
        assert!(!pool.is_resident(RunId(0), 0));
        assert!(!pool.is_resident(RunId(0), 1));
        assert!(pool.is_resident(RunId(0), 2));
        assert_eq!(pool.stats().releases, 2);
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let (_s, pool) = setup(4, 8);
        for p in 0..4 {
            pool.prefetch(RunId(0), p).unwrap();
        }
        assert_eq!(pool.stats().high_water_pages, 4);
        let index = PageIndex::build(&pool.store().all_metas());
        pool.release(index.entries());
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.stats().high_water_pages, 4, "hwm is a peak, not current");
    }

    #[test]
    fn eviction_is_fifo_over_idle_pages() {
        let (_s, pool) = setup(4, 2);
        for p in 0..3 {
            drop(pool.get(RunId(0), p).unwrap());
        }
        // Budget 2, three arrivals: the oldest idle page (0) must be the
        // one evicted; the two youngest stay.
        assert!(!pool.is_resident(RunId(0), 0), "oldest page evicted first");
        assert!(pool.is_resident(RunId(0), 1));
        assert!(pool.is_resident(RunId(0), 2));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn prefetch_path_enforces_budget_too() {
        let (_s, pool) = setup(6, 2);
        for p in 0..6 {
            pool.prefetch(RunId(0), p).unwrap();
        }
        assert!(pool.resident_pages() <= 2, "prefetch must not overshoot the budget");
        let st = pool.stats();
        assert_eq!(st.prefetches, 6);
        assert_eq!(st.evictions, 4);
    }

    #[test]
    fn fifo_skips_pinned_victims() {
        let (_s, pool) = setup(4, 2);
        let pinned = pool.get(RunId(0), 0).unwrap(); // oldest, but referenced
        drop(pool.get(RunId(0), 1).unwrap());
        drop(pool.get(RunId(0), 2).unwrap());
        // Page 0 is the FIFO head but pinned: page 1 must be the victim.
        assert!(pool.is_resident(RunId(0), 0), "pinned page must not be evicted");
        assert!(!pool.is_resident(RunId(0), 1), "oldest idle page is the victim");
        assert!(pool.is_resident(RunId(0), 2));
        assert_eq!(pinned[0].key, 0);
    }

    #[test]
    fn release_of_nonresident_pages_is_noop() {
        let (store, pool) = setup(4, 8);
        let index = PageIndex::build(&store.all_metas());
        pool.release(index.entries()); // nothing resident yet
        assert_eq!(pool.stats().releases, 0);
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn concurrent_demand_reads_stay_coherent() {
        let (_s, pool) = setup(8, 4);
        let pool = Arc::new(pool);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let page = ((t + round) % 8) as u32;
                        let data = pool.get(RunId(0), page).unwrap();
                        assert_eq!(data[0].key, page as u64 * 4, "page content corrupted");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = pool.stats();
        assert_eq!(st.hits + st.misses, 200);
        // Pinned pages may push the pool past its budget transiently; the
        // overshoot is bounded by the number of concurrent readers.
        assert!(pool.resident_pages() <= 4 + 4, "overshoot beyond pinned readers");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let store = Arc::new(RunStore::new(MemBackend::disk_array(), 4));
        let _: BufferPool<MemBackend, KvRecord> = BufferPool::new(store, 0);
    }
}
