//! D-MPSM: the memory-constrained, disk-enabled MPSM join (§3.1,
//! Figure 4).
//!
//! Derived from B-MPSM: the private input is *not* range-partitioned
//! (D-MPSM is "completely skew immune"); instead the sorted runs are
//! spooled to disk and the workers progress **synchronously through the
//! key domain** so only a sliding window of pages needs RAM:
//!
//! * run generation writes each sorted run page-wise through
//!   `mpsm-storage`, recording the first and last key of every page;
//! * the read-only page index `⟨v_ij, S_i⟩` over both sides' pages,
//!   ordered by key, is cut into ascending key intervals of about a
//!   quarter of the page budget each (bounds are every W-th `v_ij`);
//! * the join phase is one pool dispatch per interval: worker `w` pins
//!   the pages of its own run `R_w` and of every public run that meet
//!   the interval (white in Figure 4), cuts each page to the interval
//!   and merges each private slice against each overlapping public
//!   slice with B-MPSM's kernels;
//! * while interval `k` merges, one prefetch thread loads interval
//!   `k + 1`'s pages (yellow); after step `k` the join releases every
//!   page that lies wholly below the interval's upper bound (green).
//!
//! A key never crosses an interval bound, so a private tuple's match
//! status is final when its interval's step ends: the non-inner variants
//! stream out step by step, with a match bitmap over one page slice.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use mpsm_numa::CounterScope;
use mpsm_storage::{
    BufferPool, BufferStats, DiskBackend, IndexEntry, MemBackend, PageIndex, Result, RunId,
    RunMeta, RunStore,
};

use crate::context::ExecContext;
use crate::join::variant::{join_variant, JoinVariant};
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
    /// phase (Figure 4: only active pages are resident). It also sets
    /// the key intervals: each spans about `budget_pages / 4` pages, so
    /// the merging interval and the prefetched next one take about half
    /// the budget.
    pub budget_pages: usize,
}

impl DMpsmConfig {
    /// Defaults: 4096-tuple pages, 256-page budget.
    pub fn with_join(join: JoinConfig) -> Self {
        DMpsmConfig { join, page_records: 4096, budget_pages: 256 }
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
    /// One `(ms since join-phase start, resident pages)` sample per key
    /// interval, taken when the interval's merge ends and before its
    /// passed pages are released — the Figure 4 window trace.
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
        B: DiskBackend,
        S: JoinSink,
    {
        let cx = ExecContext::flat(self.config.join.threads);
        self.join_variant_in::<B, S>(&cx, JoinVariant::Inner, backend, r, s)
    }

    /// Run a (possibly non-inner) join variant on an explicit backend
    /// inside an execution context — D-MPSM's one body.
    ///
    /// Run generation's sort buffers are drawn from the context's arena
    /// and audited, and the windowed join phase records the tuples its
    /// kernels scan as interleaved sequential reads (spooled runs live
    /// behind the shared buffer pool, not on any NUMA node — the
    /// commandments D-MPSM answers to are about the *sort* staying
    /// local and the window moving sequentially). Only the prefetch
    /// thread runs outside the pool; it lives for this call.
    pub fn join_variant_in<B, S>(
        &self,
        cx: &ExecContext,
        variant: JoinVariant,
        backend: B,
        r: &[Tuple],
        s: &[Tuple],
    ) -> Result<(S::Result, JoinStats, DMpsmReport)>
    where
        B: DiskBackend,
        S: JoinSink,
    {
        let t = cx.threads();
        let (r, s, _swapped) = self.config.join.assign_roles(r, s);
        let wall = Instant::now();
        let mut stats = JoinStats::new(t);

        let store = Arc::new(RunStore::new(backend, self.config.page_records));

        // ---- Phase 1: sort and spool public runs (the sort buffer is
        // node-local per commandment C1; spooling to "disk" is I/O, not
        // NUMA memory traffic, and is reported via `DMpsmReport`). ----
        let s_ranges = chunk_ranges(s.len(), t);
        let s_metas = cx.run_phase(Phase::One, &mut stats, |w, scope| {
            store.store_run(&cx.sorted_run(w, &s[s_ranges[w].clone()], scope))
        });
        let s_metas: Vec<RunMeta> = s_metas.into_iter().collect::<Result<_>>()?;

        // ---- Phase 2: sort and spool private runs. ----
        let r_ranges = chunk_ranges(r.len(), t);
        let r_metas = cx.run_phase(Phase::Two, &mut stats, |w, scope| {
            store.store_run(&cx.sorted_run(w, &r[r_ranges[w].clone()], scope))
        });
        let r_metas: Vec<RunMeta> = r_metas.into_iter().collect::<Result<_>>()?;

        // ---- Join phase: the stepped merge over both sides' pages. ----
        let index = PageIndex::build(&store.all_metas());
        let steps = Step::plan(&index, (self.config.budget_pages / 4).max(1));
        let public: Vec<RunId> = s_metas.iter().map(|m| m.id).collect();
        let pool = BufferPool::<B, Tuple>::new(Arc::clone(&store), self.config.budget_pages);
        let start = Instant::now();
        let mut residency_trace = Vec::with_capacity(steps.len());
        let partials = std::thread::scope(|threads| -> Result<Vec<S::Result>> {
            // The prefetch thread loads each batch it is sent and
            // acknowledges it; it exits once the step loop drops `to_load`.
            // A failed prefetch leaves the page to the demand read that
            // needs it, which surfaces the error if it persists.
            let (to_load, batches) = mpsc::channel::<&[IndexEntry]>();
            let (ack, loaded) = mpsc::channel::<()>();
            let pool = &pool;
            threads.spawn(move || {
                for batch in batches {
                    for e in batch {
                        let _ = pool.prefetch(e.run, e.page);
                    }
                    if ack.send(()).is_err() {
                        break;
                    }
                }
            });

            let mut window: Vec<IndexEntry> = Vec::new();
            let mut partials = Vec::with_capacity(steps.len());
            if let Some(first) = steps.first() {
                let _ = to_load.send(first.pages);
            }
            for (k, step) in steps.iter().enumerate() {
                if let Some(next) = steps.get(k + 1) {
                    let _ = to_load.send(next.pages);
                }
                // Wait for this step's batch, so its pages are resident
                // when it starts and no prefetch lands after a release.
                let _ = loaded.recv();
                window.extend_from_slice(step.pages);
                let results = cx.run_phase(Phase::Four, &mut stats, |w, scope| {
                    step.merge::<B, S>(pool, &window, r_metas[w].id, &public, variant, scope)
                });
                residency_trace.push((start.elapsed().as_secs_f64() * 1e3, pool.resident_pages()));
                // Figure 4's green pages: no later interval reads them.
                let (passed, carry): (Vec<_>, Vec<_>) =
                    window.drain(..).partition(|e| step.hi.is_none_or(|hi| e.max_key < hi));
                pool.release(&passed);
                window = carry;
                partials.push(S::combine_all(results.into_iter().collect::<Result<Vec<_>>>()?));
            }
            Ok(partials)
        })?;

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

/// One step of the join phase: the keys `[lo, hi)` (`hi = None` runs to
/// the top of the key domain) and the index entries whose `min_key`
/// falls among them — the pages no earlier step needed.
struct Step<'a> {
    lo: u64,
    hi: Option<u64>,
    pages: &'a [IndexEntry],
}

impl<'a> Step<'a> {
    /// Cut `index` into ascending key intervals whose bounds are every
    /// `width`-th `min_key`, deduplicated.
    fn plan(index: &'a PageIndex, width: usize) -> Vec<Step<'a>> {
        let entries = index.entries();
        let mut bounds: Vec<u64> = entries.iter().step_by(width).map(|e| e.min_key).collect();
        bounds.dedup();
        let mut starts: Vec<usize> =
            bounds.iter().map(|&b| entries.partition_point(|e| e.min_key < b)).collect();
        starts.push(entries.len());
        bounds
            .iter()
            .enumerate()
            .map(|(k, &lo)| Step {
                lo,
                hi: bounds.get(k + 1).copied(),
                pages: &entries[starts[k]..starts[k + 1]],
            })
            .collect()
    }

    /// The part of a sorted page whose keys fall in this interval.
    fn cut<'p>(&self, page: &'p [Tuple]) -> &'p [Tuple] {
        let from = page.partition_point(|t| t.key < self.lo);
        let to = self.hi.map_or(page.len(), |hi| page.partition_point(|t| t.key < hi));
        &page[from..to]
    }

    /// Worker's share of the step: the pages of its `private` run in
    /// `window` against every `public` page there, both cut to the
    /// interval, through B-MPSM's phase-3 kernels.
    fn merge<B: DiskBackend, S: JoinSink>(
        &self,
        pool: &BufferPool<B, Tuple>,
        window: &[IndexEntry],
        private: RunId,
        public: &[RunId],
        variant: JoinVariant,
        scope: &mut CounterScope,
    ) -> Result<S::Result> {
        let pin = |e: &IndexEntry| pool.get(e.run, e.page);
        let mine: Vec<_> =
            window.iter().filter(|e| e.run == private).map(pin).collect::<Result<_>>()?;
        let theirs: Vec<_> =
            window.iter().filter(|e| public.contains(&e.run)).map(pin).collect::<Result<_>>()?;
        let theirs: Vec<&[Tuple]> =
            theirs.iter().map(|page| self.cut(page)).filter(|s| !s.is_empty()).collect();

        let mut sink = S::default();
        let mut scanned = 0;
        for page in &mine {
            let r = self.cut(page);
            let (Some(first), Some(last)) = (r.first(), r.last()) else { continue };
            let overlapping =
                theirs.iter().filter(|s| s[0].key <= last.key && first.key <= s[s.len() - 1].key);
            join_variant(variant, r, overlapping, &mut sink, |_, scan| {
                scanned += scan.r_scanned + scan.s_scanned;
            });
        }
        scope.touch_interleaved(true, scanned as u64);
        Ok(sink.finish())
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

    /// The lower bounds of the steps `join_on` should plan for `r ⋈ s`:
    /// every `budget_pages / 4`-th first key over both sides' pages,
    /// deduplicated.
    fn plan_bounds(cfg: &DMpsmConfig, r: &[Tuple], s: &[Tuple]) -> Vec<u64> {
        let mut firsts = Vec::new();
        for side in [s, r] {
            for range in chunk_ranges(side.len(), cfg.join.threads) {
                let mut run = side[range].to_vec();
                run.sort_unstable_by_key(|t| t.key);
                firsts.extend(run.chunks(cfg.page_records as usize).map(|page| page[0].key));
            }
        }
        firsts.sort_unstable();
        let mut bounds: Vec<u64> =
            firsts.into_iter().step_by((cfg.budget_pages / 4).max(1)).collect();
        bounds.dedup();
        bounds
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
    fn residency_trace_has_one_sample_per_step() {
        let mut next = lcg(71);
        let r: Vec<Tuple> = (0..3000).map(|i| Tuple::new(next() % 8000, i)).collect();
        let s: Vec<Tuple> = (0..9000).map(|i| Tuple::new(next() % 8000, i)).collect();
        let cfg = small_cfg(4);
        let steps = plan_bounds(&cfg, &r, &s).len();
        let join = DMpsmJoin::new(cfg);
        let (_, _, report) = join
            .join_on::<MemBackend, crate::sink::CountSink>(MemBackend::disk_array(), &r, &s)
            .unwrap();
        let trace = &report.residency_trace;
        assert_eq!(trace.len(), steps, "one sample per key interval");
        assert!(trace.len() >= 2, "the input spans several intervals");
        let hwm = report.buffer.high_water_pages;
        assert!(trace.iter().all(|&(_, pages)| pages as u64 <= hwm), "a sample above the peak");
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0), "timestamps never decrease");
    }

    #[test]
    fn window_of_two_intervals_keeps_to_the_budget() {
        let mut next = lcg(61);
        let r: Vec<Tuple> = (0..640).map(|i| Tuple::new(next() % 4000, i)).collect();
        let s: Vec<Tuple> = (0..1920).map(|i| Tuple::new(next() % 4000, i)).collect();
        // Intervals of 8 pages: the merging one, the prefetched next one
        // and the pages straddling into them fit in 32.
        let mut cfg = small_cfg(2);
        cfg.budget_pages = 32;
        let join = DMpsmJoin::new(cfg);
        let (count, _, report) = join
            .join_on::<MemBackend, crate::sink::CountSink>(MemBackend::disk_array(), &r, &s)
            .unwrap();
        assert_eq!(count, nested_loop_count(&r, &s));
        let pool = report.buffer;
        assert!(pool.high_water_pages <= 32, "high-water {} pages", pool.high_water_pages);
        assert_eq!(pool.evictions, 0, "the window never pressed the budget");
        assert!(pool.prefetches > 0);
        // Both sides split into 16-tuple pages exactly: 160 pages.
        assert_eq!(pool.releases, (640 + 1920) / 16, "every page is released");
    }

    #[test]
    fn a_failed_prefetch_falls_back_to_the_demand_read() {
        use mpsm_storage::FaultyBackend;
        let mut next = lcg(67);
        let r: Vec<Tuple> = (0..500).map(|i| Tuple::new(next() % 400, i)).collect();
        let s: Vec<Tuple> = (0..1500).map(|i| Tuple::new(next() % 400, i)).collect();
        // Workers wait for the first batch, so read #0 is a prefetch.
        let backend = FaultyBackend::new(MemBackend::disk_array(), vec![0]);
        let join = DMpsmJoin::new(small_cfg(2));
        let (count, _, report) =
            join.join_on::<_, crate::sink::CountSink>(backend, &r, &s).unwrap();
        assert_eq!(count, nested_loop_count(&r, &s));
        assert!(report.buffer.misses >= 1, "the faulted page is read on demand");
    }

    #[test]
    fn a_key_group_across_pages_and_an_interval_bound_is_exact_for_every_variant() {
        use crate::sink::{CollectSink, NULL_PAYLOAD};
        // Each of the two private runs sorts to keys 0..10, 38 copies of
        // 100 and 200..210. In 16-tuple pages, page 0 ends with six 100s
        // and pages 1 and 2 hold the other 32.
        let run: Vec<u64> = (0..10).chain(std::iter::repeat_n(100, 38)).chain(200..210).collect();
        let r = keyed(&[run.clone(), run].concat());
        let s = keyed(&[5, 100, 150, 100, 205, 100, 300, 9, 9]);
        let mut cfg = small_cfg(2);
        // One page per interval: every distinct first key is a bound, so
        // page 0 straddles the bound at 100.
        cfg.budget_pages = 4;
        assert!(plan_bounds(&cfg, &r, &s).contains(&100));
        let join = DMpsmJoin::new(cfg);
        let cx = ExecContext::flat(2);
        for variant in [
            JoinVariant::Inner,
            JoinVariant::LeftOuter,
            JoinVariant::LeftSemi,
            JoinVariant::LeftAnti,
        ] {
            let mut expected = Vec::new();
            for rt in &r {
                let partners: Vec<&Tuple> = s.iter().filter(|st| st.key == rt.key).collect();
                if variant.emits_pairs() {
                    expected.extend(partners.iter().map(|st| (rt.key, rt.payload, st.payload)));
                }
                let single = match variant {
                    JoinVariant::Inner => false,
                    JoinVariant::LeftOuter | JoinVariant::LeftAnti => partners.is_empty(),
                    JoinVariant::LeftSemi => !partners.is_empty(),
                };
                if single {
                    expected.push((rt.key, rt.payload, NULL_PAYLOAD));
                }
            }
            expected.sort_unstable();
            let (mut rows, _, _) = join
                .join_variant_in::<MemBackend, CollectSink>(
                    &cx,
                    variant,
                    MemBackend::disk_array(),
                    &r,
                    &s,
                )
                .unwrap();
            rows.sort_unstable();
            assert_eq!(rows, expected, "{variant:?}");
        }
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
