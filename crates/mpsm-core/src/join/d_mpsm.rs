//! D-MPSM: the memory-constrained, disk-enabled MPSM join (§3.1,
//! Figure 4).
//!
//! Derived from B-MPSM: the private input is *not* range-partitioned
//! (D-MPSM is "completely skew immune"); instead the sorted runs are
//! spooled to disk and the workers progress **synchronously through the
//! key domain** so only a sliding window of pages needs RAM:
//!
//! * run generation writes each sorted run page-wise through
//!   `mpsm-storage`, recording the first key of every page;
//! * the read-only page index `⟨v_ij, S_i⟩`, ordered by key, tells the
//!   prefetcher (and the workers) in which order pages become active;
//! * an asynchronous prefetcher loads pages ahead of the slowest worker
//!   (yellow in Figure 4) and releases pages behind it (green);
//! * every worker streams its own `R_i` run in key order and merge-joins
//!   it against **all** `S` runs simultaneously, advancing a cursor per
//!   run — the workers' published progress keys drive the window.
//!
//! The page index is shared without synchronization (read-only); worker
//! progress is published through padded atomics, not locks.

use std::sync::Arc;
use std::time::Duration;

use mpsm_storage::{
    BufferPool, BufferStats, DiskBackend, MemBackend, PageIndex, Prefetcher, Progress, Result,
    RunMeta, RunStore,
};

use crate::context::ExecContext;
use crate::join::variant::JoinVariant;
use crate::join::{JoinAlgorithm, JoinConfig};
use crate::sink::JoinSink;
use crate::stats::{JoinStats, Phase};
use crate::tuple::Tuple;
use crate::worker::chunk_ranges;

/// Storage-related knobs of D-MPSM.
#[derive(Debug, Clone)]
pub struct DMpsmConfig {
    /// Join-level configuration (threads, roles).
    pub join: JoinConfig,
    /// Tuples per disk page.
    pub page_records: u32,
    /// Buffer pool budget in pages — the RAM footprint of the join
    /// phase (Figure 4: only active pages are resident).
    pub budget_pages: usize,
    /// Prefetch lookahead as a fraction of the key domain (e.g. 0.05 =
    /// pages whose first key is within the next 5% of the domain are
    /// loaded ahead).
    pub lookahead_fraction: f64,
    /// Poll interval of the prefetcher thread.
    pub prefetch_poll: Duration,
    /// Sample the buffer pool's resident-page count during the join
    /// phase (for the Figure 4 window trace); interval, or `None` to
    /// disable.
    pub sample_residency: Option<Duration>,
}

impl DMpsmConfig {
    /// Defaults: 4096-tuple pages, 256-page budget, 5% lookahead.
    pub fn with_join(join: JoinConfig) -> Self {
        DMpsmConfig {
            join,
            page_records: 4096,
            budget_pages: 256,
            lookahead_fraction: 0.05,
            prefetch_poll: Duration::from_micros(200),
            sample_residency: None,
        }
    }
}

/// Storage behaviour observed during one D-MPSM run (experiment E10).
#[derive(Debug, Clone, Default)]
pub struct DMpsmReport {
    /// Buffer pool counters, including the resident high-water mark.
    pub buffer: BufferStats,
    /// Bytes spooled during run generation.
    pub bytes_written: u64,
    /// Bytes read back during the join phase.
    pub bytes_read: u64,
    /// Simulated I/O time charged by the backend, in ms (0 for real
    /// file backends).
    pub simulated_io_ms: f64,
    /// `(ms since join-phase start, resident pages)` samples, when
    /// [`DMpsmConfig::sample_residency`] is set — the raw material of
    /// the Figure 4 window trace.
    pub residency_trace: Vec<(f64, usize)>,
}

/// The disk-enabled MPSM join.
#[derive(Debug, Clone)]
pub struct DMpsmJoin {
    config: DMpsmConfig,
}

impl DMpsmJoin {
    /// Create a D-MPSM join.
    pub fn new(config: DMpsmConfig) -> Self {
        DMpsmJoin { config }
    }

    /// Convenience constructor from a plain [`JoinConfig`].
    pub fn with_join_config(join: JoinConfig) -> Self {
        Self::new(DMpsmConfig::with_join(join))
    }

    /// Access the configuration.
    pub fn config(&self) -> &DMpsmConfig {
        &self.config
    }

    /// Run the join on an explicit backend, returning the storage
    /// report alongside result and stats — [`DMpsmJoin::join_variant_in`]
    /// for the inner join on a flat context of the configured width,
    /// built for this one call.
    pub fn join_on<B, S>(
        &self,
        backend: B,
        r: &[Tuple],
        s: &[Tuple],
    ) -> Result<(S::Result, JoinStats, DMpsmReport)>
    where
        B: DiskBackend + 'static,
        S: JoinSink,
    {
        let cx = ExecContext::flat(self.config.join.threads);
        self.join_variant_in::<B, S>(&cx, JoinVariant::Inner, backend, r, s)
    }

    /// Run a (possibly non-inner) join variant on an explicit backend
    /// inside an execution context — D-MPSM's one body.
    ///
    /// Variants stream naturally through D-MPSM: a private duplicate
    /// group's match status is final the moment its key has been merged
    /// against every public run, so no bitmap is needed — the variant
    /// rows are emitted on the spot, preserving the bounded-RAM window.
    ///
    /// Run generation's sort buffers are drawn from the context's arena
    /// and audited, and the windowed join phase records its page
    /// traffic as interleaved sequential reads (spooled runs live
    /// behind the shared buffer pool, not on any NUMA node — the
    /// commandments D-MPSM answers to are about the *sort* staying
    /// local and the window moving sequentially). Only the prefetcher
    /// and the optional residency sampler run on their own asynchronous
    /// threads — they are continuous background services, not
    /// barrier-separated phases.
    pub fn join_variant_in<B, S>(
        &self,
        cx: &ExecContext,
        variant: JoinVariant,
        backend: B,
        r: &[Tuple],
        s: &[Tuple],
    ) -> Result<(S::Result, JoinStats, DMpsmReport)>
    where
        B: DiskBackend + 'static,
        S: JoinSink,
    {
        let workers = cx.pool();
        let t = workers.threads();
        let (r, s, _swapped) = self.config.join.assign_roles(r, s);
        let wall = std::time::Instant::now();
        let mut stats = JoinStats::new(t);

        let store = Arc::new(RunStore::new(backend, self.config.page_records));

        // ---- Phase 1: sort and spool public runs (the sort buffer is
        // node-local per commandment C1; spooling to "disk" is I/O, not
        // NUMA memory traffic, and is reported via `DMpsmReport`). ----
        let s_ranges = chunk_ranges(s.len(), t);
        let (phase1, d1) = workers.run_timed(|w| {
            let mut scope = cx.scope(w);
            let run = cx.sorted_run(w, &s[s_ranges[w].clone()], &mut scope);
            (store.store_run(&run), scope.finish())
        });
        let (s_metas, c1): (Vec<_>, Vec<_>) = phase1.into_iter().unzip();
        stats.record_phase(Phase::One, &d1);
        cx.record(Phase::One, c1);
        let s_metas: Vec<RunMeta> = s_metas.into_iter().collect::<Result<_>>()?;

        // ---- Phase 2: sort and spool private runs. ----
        let r_ranges = chunk_ranges(r.len(), t);
        let (phase2, d2) = workers.run_timed(|w| {
            let mut scope = cx.scope(w);
            let run = cx.sorted_run(w, &r[r_ranges[w].clone()], &mut scope);
            (store.store_run(&run), scope.finish())
        });
        let (r_metas, c2): (Vec<_>, Vec<_>) = phase2.into_iter().unzip();
        stats.record_phase(Phase::Two, &d2);
        cx.record(Phase::Two, c2);
        let r_metas: Vec<RunMeta> = r_metas.into_iter().collect::<Result<_>>()?;

        // ---- Join phase: page index over S, prefetcher, windowed
        // multiway merge. ----
        let index = Arc::new(PageIndex::build(&s_metas));
        let pool: Arc<BufferPool<B, Tuple>> =
            Arc::new(BufferPool::new(Arc::clone(&store), self.config.budget_pages));
        let progress = Arc::new(Progress::new(t));
        let lookahead = self.lookahead_keys(s);
        let prefetcher = Prefetcher::spawn(
            Arc::clone(&pool),
            Arc::clone(&index),
            Arc::clone(&progress),
            lookahead,
            self.config.prefetch_poll,
        );

        // Optional residency sampler (Figure 4 window trace).
        let sampler_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = self.config.sample_residency.map(|interval| {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&sampler_stop);
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                let mut trace = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    trace.push((start.elapsed().as_secs_f64() * 1e3, pool.resident_pages()));
                    std::thread::sleep(interval);
                }
                trace
            })
        });

        let (phase4, d4) = workers.run_timed(|w| {
            let mut scope = cx.scope(w);
            let mut sink = S::default();
            let mut r_reader = PooledReader::new(&pool, r_metas[w].clone());
            let mut s_readers: Vec<PooledReader<'_, B>> =
                s_metas.iter().map(|m| PooledReader::new(&pool, m.clone())).collect();
            let mut r_group: Vec<Tuple> = Vec::new();

            // The streaming loop, with `?` confined so the consumed-page
            // accounting below runs on the success *and* error paths.
            let body = || -> Result<S::Result> {
                while let Some(head) = r_reader.peek()? {
                    let key = head.key;
                    progress.update(w, key);
                    // Collect the duplicate group of `key` from R_w.
                    r_group.clear();
                    while let Some(t) = r_reader.peek()? {
                        if t.key != key {
                            break;
                        }
                        r_group.push(t);
                        r_reader.advance()?;
                    }
                    // Join the group against every S run; the group's
                    // match status is final after this loop.
                    let mut group_matched = false;
                    for sr in s_readers.iter_mut() {
                        sr.skip_below(key)?;
                        while let Some(st) = sr.peek()? {
                            if st.key != key {
                                break;
                            }
                            group_matched = true;
                            if variant.emits_pairs() {
                                for rt in &r_group {
                                    sink.on_match(*rt, st);
                                }
                            }
                            sr.advance()?;
                        }
                    }
                    match variant {
                        JoinVariant::Inner => {}
                        JoinVariant::LeftOuter | JoinVariant::LeftAnti if !group_matched => {
                            for rt in &r_group {
                                sink.on_private(*rt);
                            }
                        }
                        JoinVariant::LeftSemi if group_matched => {
                            for rt in &r_group {
                                sink.on_private(*rt);
                            }
                        }
                        _ => {}
                    }
                }
                progress.finish(w);
                Ok(sink.finish())
            };
            let result = body();
            // Audit: spooled pages reach the worker through the shared
            // buffer pool, so the window's tuple traffic is interleaved
            // and — because cursors only move forward — sequential.
            let consumed =
                r_reader.consumed() + s_readers.iter().map(|r| r.consumed()).sum::<u64>();
            scope.touch_interleaved(true, consumed);
            (result, scope.finish())
        });
        let (partials, c4): (Vec<_>, Vec<_>) = phase4.into_iter().unzip();
        stats.record_phase(Phase::Four, &d4);
        cx.record(Phase::Four, c4);
        prefetcher.stop();
        sampler_stop.store(true, std::sync::atomic::Ordering::Release);
        let residency_trace =
            sampler.map(|h| h.join().expect("sampler panicked")).unwrap_or_default();

        let partials: Vec<S::Result> = partials.into_iter().collect::<Result<_>>()?;
        stats.wall = wall.elapsed();
        let backend = store.backend();
        let report = DMpsmReport {
            buffer: pool.stats(),
            bytes_written: backend.bytes_written(),
            bytes_read: backend.bytes_read(),
            simulated_io_ms: backend.simulated_io_ns() as f64 / 1e6,
            residency_trace,
        };
        Ok((S::combine_all(partials), stats, report))
    }

    fn lookahead_keys(&self, s: &[Tuple]) -> u64 {
        let span = crate::tuple::key_range(s).map(|(lo, hi)| hi - lo).unwrap_or(0);
        ((span as f64 * self.config.lookahead_fraction) as u64).max(1)
    }
}

impl JoinAlgorithm for DMpsmJoin {
    fn name(&self) -> &'static str {
        "D-MPSM"
    }

    fn threads(&self) -> usize {
        self.config.join.threads
    }

    /// [`DMpsmJoin::join_variant_in`] over the default simulated disk
    /// array; storage errors cannot occur on the in-memory backend, so
    /// this unwraps internally. Use the backend-typed methods for
    /// fallible storage or the [`DMpsmReport`].
    fn join_in<S: JoinSink>(
        &self,
        cx: &ExecContext,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats) {
        let (result, stats, _report) = self
            .join_variant_in::<MemBackend, S>(
                cx,
                JoinVariant::Inner,
                MemBackend::disk_array(),
                r,
                s,
            )
            .expect("in-memory backend cannot fail");
        (result, stats)
    }
}

/// Sequential reader over a stored run, fetching pages through the
/// shared buffer pool (so the Figure 4 window accounting sees every
/// access).
struct PooledReader<'a, B: DiskBackend> {
    pool: &'a BufferPool<B, Tuple>,
    meta: RunMeta,
    page: u32,
    offset: usize,
    current: Option<Arc<Vec<Tuple>>>,
    /// Tuples consumed through this reader (page-level hops in
    /// `skip_below` touch nothing and are not counted) — feeds the
    /// join-phase access audit.
    consumed: u64,
}

impl<'a, B: DiskBackend> PooledReader<'a, B> {
    fn new(pool: &'a BufferPool<B, Tuple>, meta: RunMeta) -> Self {
        PooledReader { pool, meta, page: 0, offset: 0, current: None, consumed: 0 }
    }

    fn consumed(&self) -> u64 {
        self.consumed
    }

    fn peek(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(page) = &self.current {
                if self.offset < page.len() {
                    return Ok(Some(page[self.offset]));
                }
            }
            if self.page >= self.meta.pages() {
                return Ok(None);
            }
            // Release our pin on the previous page before fetching the
            // next: the pool may then evict or release it.
            self.current = Some(self.pool.get(self.meta.id, self.page)?);
            self.page += 1;
            self.offset = 0;
        }
    }

    fn advance(&mut self) -> Result<()> {
        self.offset += 1;
        self.consumed += 1;
        Ok(())
    }

    /// Skip tuples with key `< key`, using the per-page max keys to hop
    /// over whole pages without touching their contents.
    fn skip_below(&mut self, key: u64) -> Result<()> {
        // Page-level skip: while the *current* page ends below `key`,
        // drop it and move on (its data cannot match).
        while self.page < self.meta.pages()
            && self.current.is_none()
            && self.meta.max_keys[self.page as usize] < key
        {
            self.page += 1;
        }
        loop {
            match self.peek()? {
                Some(t) if t.key < key => {
                    // Within-page skip; if the whole rest of the page is
                    // below, peek will fetch the next page, where the
                    // page-level test applies again via max_keys.
                    if self.meta.max_keys[(self.page - 1) as usize] < key {
                        // Entire current page below key: jump past it.
                        self.current = None;
                        while self.page < self.meta.pages()
                            && self.meta.max_keys[self.page as usize] < key
                        {
                            self.page += 1;
                        }
                    } else {
                        self.advance()?;
                    }
                }
                _ => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_storage::FileBackend;

    fn keyed(keys: &[u64]) -> Vec<Tuple> {
        keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
    }

    fn nested_loop_count(r: &[Tuple], s: &[Tuple]) -> u64 {
        r.iter().map(|rt| s.iter().filter(|st| st.key == rt.key).count() as u64).sum()
    }

    fn small_cfg(threads: usize) -> DMpsmConfig {
        let mut cfg = DMpsmConfig::with_join(JoinConfig::with_threads(threads));
        cfg.page_records = 16;
        cfg.budget_pages = 8;
        cfg
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        }
    }

    #[test]
    fn joins_small_relations() {
        let r = keyed(&[1, 5, 9, 5]);
        let s = keyed(&[5, 5, 2, 9]);
        let join = DMpsmJoin::new(small_cfg(2));
        assert_eq!(join.count(&r, &s), nested_loop_count(&r, &s));
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let mut next = lcg(41);
        let r: Vec<Tuple> = (0..600).map(|i| Tuple::new(next() % 300, i)).collect();
        let s: Vec<Tuple> = (0..1800).map(|i| Tuple::new(next() % 300, i)).collect();
        let expected = nested_loop_count(&r, &s);
        for threads in [1, 2, 4, 8] {
            let join = DMpsmJoin::new(small_cfg(threads));
            assert_eq!(join.count(&r, &s), expected, "threads = {threads}");
        }
    }

    #[test]
    fn stays_within_page_budget() {
        let mut next = lcg(43);
        let r: Vec<Tuple> = (0..2000).map(|i| Tuple::new(next() % 5000, i)).collect();
        let s: Vec<Tuple> = (0..6000).map(|i| Tuple::new(next() % 5000, i)).collect();
        let join = DMpsmJoin::new(small_cfg(4));
        let (count, _stats, report) = join
            .join_on::<MemBackend, crate::sink::CountSink>(MemBackend::disk_array(), &r, &s)
            .unwrap();
        assert_eq!(count, nested_loop_count(&r, &s));
        // Total pages spooled far exceeds the budget; the high-water
        // mark must stay near the budget (pinned pages can push it a
        // little past: T workers × (1 R page + T S pins)).
        let total_pages = (2000 + 6000) / 16;
        assert!(
            report.buffer.high_water_pages < total_pages as u64 / 2,
            "window stayed far below full residency: hwm {} of {} pages",
            report.buffer.high_water_pages,
            total_pages
        );
        assert!(report.bytes_written > 0);
        assert!(report.bytes_read > 0);
        assert!(report.buffer.releases + report.buffer.evictions > 0, "window must move");
    }

    #[test]
    fn works_on_a_real_file_backend() {
        let dir = std::env::temp_dir().join(format!("mpsm-dmpsm-{}", std::process::id()));
        let backend = FileBackend::new(&dir).unwrap();
        let mut next = lcg(47);
        let r: Vec<Tuple> = (0..300).map(|i| Tuple::new(next() % 100, i)).collect();
        let s: Vec<Tuple> = (0..900).map(|i| Tuple::new(next() % 100, i)).collect();
        let join = DMpsmJoin::new(small_cfg(3));
        let (count, _, _) =
            join.join_on::<FileBackend, crate::sink::CountSink>(backend, &r, &s).unwrap();
        assert_eq!(count, nested_loop_count(&r, &s));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_inputs() {
        let join = DMpsmJoin::new(small_cfg(2));
        assert_eq!(join.count(&[], &[]), 0);
        assert_eq!(join.count(&keyed(&[1]), &[]), 0);
        assert_eq!(join.count(&[], &keyed(&[1])), 0);
    }

    #[test]
    fn duplicate_heavy_inputs() {
        let r = keyed(&vec![5u64; 200]);
        let s = keyed(&vec![5u64; 64]);
        let join = DMpsmJoin::new(small_cfg(4));
        assert_eq!(join.count(&r, &s), 200 * 64);
    }

    #[test]
    fn residency_trace_is_collected_when_enabled() {
        let mut next = lcg(71);
        let r: Vec<Tuple> = (0..3000).map(|i| Tuple::new(next() % 8000, i)).collect();
        let s: Vec<Tuple> = (0..9000).map(|i| Tuple::new(next() % 8000, i)).collect();
        let mut cfg = small_cfg(4);
        cfg.sample_residency = Some(std::time::Duration::from_micros(200));
        let join = DMpsmJoin::new(cfg);
        let (_, _, report) = join
            .join_on::<MemBackend, crate::sink::CountSink>(MemBackend::disk_array(), &r, &s)
            .unwrap();
        assert!(!report.residency_trace.is_empty(), "sampler must collect");
        let max = report.residency_trace.iter().map(|&(_, p)| p).max().unwrap();
        assert_eq!(max as u64, report.buffer.high_water_pages.max(max as u64).min(max as u64));
        // Timestamps are monotone.
        assert!(report.residency_trace.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn variants_stream_correctly() {
        use crate::join::variant::JoinVariant;
        let mut next = lcg(59);
        let r: Vec<Tuple> = (0..400).map(|i| Tuple::new(next() % 300, i)).collect();
        let s: Vec<Tuple> = (0..400).map(|i| Tuple::new(next() % 300, i)).collect();
        let s_keys: std::collections::HashSet<u64> = s.iter().map(|t| t.key).collect();
        let inner = nested_loop_count(&r, &s);
        let matched = r.iter().filter(|t| s_keys.contains(&t.key)).count() as u64;
        let unmatched = r.len() as u64 - matched;

        let join = DMpsmJoin::new(small_cfg(4));
        let cx = ExecContext::flat(4);
        for (variant, expected) in [
            (JoinVariant::Inner, inner),
            (JoinVariant::LeftOuter, inner + unmatched),
            (JoinVariant::LeftSemi, matched),
            (JoinVariant::LeftAnti, unmatched),
        ] {
            let (count, _, _) = join
                .join_variant_in::<MemBackend, crate::sink::CountSink>(
                    &cx,
                    variant,
                    MemBackend::disk_array(),
                    &r,
                    &s,
                )
                .unwrap();
            assert_eq!(count, expected, "{variant:?}");
        }
    }

    #[test]
    fn faulty_backend_surfaces_errors() {
        use mpsm_storage::FaultyBackend;
        let mut next = lcg(53);
        let r: Vec<Tuple> = (0..200).map(|i| Tuple::new(next() % 50, i)).collect();
        let s: Vec<Tuple> = (0..200).map(|i| Tuple::new(next() % 50, i)).collect();
        // Fail every read: the join phase must report the error, not
        // hang or panic.
        let backend = FaultyBackend::new(MemBackend::disk_array(), (0..10_000).collect());
        let join = DMpsmJoin::new(small_cfg(2));
        let result = join.join_on::<_, crate::sink::CountSink>(backend, &r, &s);
        assert!(result.is_err(), "injected faults must surface");
    }
}
