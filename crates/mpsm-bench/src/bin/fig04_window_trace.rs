//! Experiment — Figure 4 as a time series: the D-MPSM page window.
//!
//! D-MPSM's join phase steps through ascending key intervals and records
//! the buffer pool's resident-page count at the end of every step. This
//! renders that trace as ASCII bars, one row per step: the paper's
//! Figure 4 claims that at any moment only the active window (white) is
//! in RAM while passed pages are released (green) and upcoming pages are
//! prefetched (yellow). A flat, budget-bounded trace over a data volume
//! many times the budget is that claim, observed.

use mpsm_bench::parse_args;
use mpsm_core::join::d_mpsm::{DMpsmConfig, DMpsmJoin};
use mpsm_core::join::JoinConfig;
use mpsm_core::sink::CountSink;
use mpsm_storage::MemBackend;
use mpsm_workload::fk_uniform;

fn main() {
    let args = parse_args();
    let w = fk_uniform(args.scale, 4, args.seed);
    let page_records = 1024u32;
    let budget = 96usize;
    let total_pages = (w.r.len() + w.s.len()).div_ceil(page_records as usize);

    let mut cfg = DMpsmConfig::with_join(JoinConfig::with_threads(args.threads));
    cfg.page_records = page_records;
    cfg.budget_pages = budget;
    let join = DMpsmJoin::new(cfg);

    println!(
        "Figure 4 — window trace (|R| = {}, m = 4, {} pages total, budget {} pages, T = {})\n",
        args.scale, total_pages, budget, args.threads
    );
    let (count, stats, report) = join
        .join_on::<MemBackend, CountSink>(MemBackend::disk_array(), &w.r, &w.s)
        .expect("in-memory backend cannot fail");
    println!(
        "join: {count} matches in {:.1} ms; high-water {} pages of {} total\n",
        stats.wall_ms(),
        report.buffer.high_water_pages,
        total_pages
    );

    // Downsample the per-step trace to at most 40 rows and render bars.
    let trace = &report.residency_trace;
    let rows = 40.min(trace.len());
    let peak = trace.iter().map(|&(_, p)| p).max().unwrap_or(0).max(1);
    println!(
        "{:>6}  {:>9}  {:>9}  window (peak = {peak} pages; '.' = budget mark)",
        "step", "ms", "pages"
    );
    for row in 0..rows {
        let step = row * trace.len() / rows;
        let (ms, pages) = trace[step];
        let width = 50usize;
        let bar_len = pages * width / peak;
        let budget_mark = (budget.min(peak) * width / peak).min(width.saturating_sub(1));
        let mut bar: Vec<char> = vec![' '; width];
        for c in bar.iter_mut().take(bar_len) {
            *c = '#';
        }
        if bar[budget_mark] == ' ' {
            bar[budget_mark] = '.';
        }
        println!("{step:>6}  {ms:>9.1}  {pages:>9}  |{}|", bar.iter().collect::<String>());
    }
    println!(
        "\n(the window stays under the budget for the whole join — residency is bounded by\n \
         two key intervals, not by the {total_pages}-page data volume; paper Figure 4)"
    );
}
