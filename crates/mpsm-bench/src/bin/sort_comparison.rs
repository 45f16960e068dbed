//! Experiment E2 — §2.3: the three-phase sort vs. the standard sort.
//!
//! "We analyzed that this sorting routine is about 30% faster than, for
//! example, the STL sort method — even when up to 32 workers sort their
//! local runs in parallel." This binary compares the paper's sort
//! against Rust's `slice::sort_unstable_by_key` (the STL-equivalent
//! pattern-defeating quicksort) and against introsort without the radix
//! pass (ablation), single-threaded and with all workers busy.

use std::time::Instant;

use mpsm_bench::table::fmt_ms;
use mpsm_bench::{parse_args, TableBuilder};
use mpsm_core::context::ExecContext;
use mpsm_core::sort::{introsort_only, three_phase_sort};
use mpsm_core::worker::SharedWorkerPool;
use mpsm_core::Tuple;
use mpsm_workload::unique_keys;

fn dataset(n: usize, seed: u64) -> Vec<Tuple> {
    unique_keys(n, seed).into_iter().enumerate().map(|(i, k)| Tuple::new(k, i as u64)).collect()
}

fn time_single(mut data: Vec<Tuple>, f: impl Fn(&mut [Tuple])) -> f64 {
    let t0 = Instant::now();
    f(&mut data);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(mpsm_core::tuple::is_key_sorted(&data));
    std::hint::black_box(&data);
    ms
}

fn time_parallel(
    pool: &SharedWorkerPool,
    n: usize,
    seed: u64,
    f: impl Fn(&mut [Tuple]) + Sync,
) -> f64 {
    let chunks: Vec<Vec<Tuple>> =
        (0..pool.threads()).map(|w| dataset(n, seed + w as u64)).collect();
    let t0 = Instant::now();
    pool.run(|w| {
        let mut chunk = chunks[w].clone();
        f(&mut chunk);
        std::hint::black_box(chunk.len())
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = parse_args();
    let n = args.scale;
    let cx = ExecContext::flat(args.threads);
    println!("§2.3 — sort comparison ({} tuples per run, seed {})\n", n, args.seed);

    let mut table =
        TableBuilder::new(&["sort", "1 thread ms", "vs std", "all-threads ms", "vs std"]);
    let std_1 = time_single(dataset(n, args.seed), |d| d.sort_unstable_by_key(|t| t.key));
    let std_t = time_parallel(cx.pool(), n, args.seed, |d| d.sort_unstable_by_key(|t| t.key));
    type SortFn = Box<dyn Fn(&mut [Tuple]) + Sync>;
    let rows: Vec<(&str, SortFn)> = vec![
        ("std sort_unstable", Box::new(|d: &mut [Tuple]| d.sort_unstable_by_key(|t| t.key))),
        ("three-phase (paper)", Box::new(|d: &mut [Tuple]| three_phase_sort(d))),
        ("introsort only (no radix)", Box::new(|d: &mut [Tuple]| introsort_only(d))),
    ];
    for (name, f) in rows {
        let one = time_single(dataset(n, args.seed), &f);
        let many = time_parallel(cx.pool(), n, args.seed, &f);
        table.row(&[
            name.to_string(),
            fmt_ms(one),
            format!("{:.2}x", std_1 / one),
            fmt_ms(many),
            format!("{:.2}x", std_t / many),
        ]);
    }
    table.print();
    println!("\n(paper: the three-phase sort beats STL sort by ~30%, also under full parallelism)");
}
