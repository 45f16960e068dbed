//! Experiment E3 — Figure 9: fine-grained histograms at little
//! overhead.
//!
//! Sweeps the radix-histogram granularity 32…2048 buckets (B = 5…11)
//! and measures the three phase-2 sub-steps (histogram, prefix sums,
//! partitioning/scatter). The paper's point: finer radix histograms are
//! effectively free, while *comparison-based* partitioning against
//! explicit bounds is several times slower — so P-MPSM can afford very
//! precise skew information.

use std::time::Instant;

use mpsm_bench::table::fmt_ms;
use mpsm_bench::{parse_args, TableBuilder};
use mpsm_core::context::ExecContext;
use mpsm_core::histogram::{combine_histograms, compute_histogram, prefix_sums, RadixDomain};
use mpsm_core::partition::range_partition_ctx;
use mpsm_core::splitter::equi_height_splitters;
use mpsm_core::worker::chunk_ranges;
use mpsm_core::Tuple;
use mpsm_workload::fk_uniform;

fn main() {
    let args = parse_args();
    println!(
        "Figure 9 — histogram granularity sweep (|R| = {}, threads = {})\n",
        args.scale, args.threads
    );
    let w = fk_uniform(args.scale, 1, args.seed);
    let t = args.threads;
    let cx = ExecContext::flat(t);
    let ranges = chunk_ranges(w.r.len(), t);
    let chunks: Vec<&[Tuple]> = ranges.iter().map(|rng| &w.r[rng.clone()]).collect();

    let mut table = TableBuilder::new(&[
        "granularity",
        "histogram ms",
        "prefix ms",
        "partition ms",
        "total ms",
    ]);

    for bits in 5..=11u32 {
        let domain = RadixDomain::from_range(0, (1 << 32) - 1, bits);

        let h0 = Instant::now();
        let histograms = cx.pool().run(|wk| compute_histogram(chunks[wk], &domain));
        let hist_ms = h0.elapsed().as_secs_f64() * 1e3;

        let p0 = Instant::now();
        let global = combine_histograms(&histograms);
        let splitters = equi_height_splitters(&global, t);
        let _ps = prefix_sums(&histograms);
        let prefix_ms = p0.elapsed().as_secs_f64() * 1e3;

        let s0 = Instant::now();
        let parts = range_partition_ctx(&cx, &chunks, &domain, &splitters);
        let part_ms = s0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), w.r.len());

        table.row(&[
            format!("{} (radix B={bits})", 1usize << bits),
            fmt_ms(hist_ms),
            fmt_ms(prefix_ms),
            fmt_ms(part_ms),
            fmt_ms(hist_ms + prefix_ms + part_ms),
        ]);
    }

    // Comparison-based partitioning against 32 explicit bounds (the
    // right-hand bar of Figure 9).
    let bounds: Vec<u64> = (1..=t as u64).map(|i| i * ((1u64 << 32) / t as u64)).collect();
    let c0 = Instant::now();
    let scattered = cx.pool().run(|wk| {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); t];
        for tup in chunks[wk] {
            let p = bounds.partition_point(|&b| b <= tup.key).min(t - 1);
            parts[p].push(*tup);
        }
        parts
    });
    let cmp_ms = c0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        scattered.iter().flat_map(|ps| ps.iter().map(|p| p.len())).sum::<usize>(),
        w.r.len()
    );
    table.row(&[
        format!("{t} (explicit bounds, comparison-based)"),
        "-".to_string(),
        "-".to_string(),
        fmt_ms(cmp_ms),
        fmt_ms(cmp_ms),
    ]);

    table.print();
    println!("\n(paper: radix cost flat across granularities; explicit bounds clearly slower)");
}
