//! `mpsm-perfbench` — the repository's benchmark, measured from outside.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is the JSON result the driver reads: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without it, all six workloads run one after another,
//! each in its own child process. `bench/README.md` documents every
//! workload and metric; `src/metrics.rs` is the table both it and
//! `BENCHMARK.json` are written from.

mod gen;
mod headline;
mod machine;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use headline::Headline;
use machine::Fingerprint;
use report::Values;
use stats::{median, percentile, sorted};
use trace::Tracer;
use workloads::{Scale, Window};

/// Times the engine is set up in one run; `setup_s` is their median.
/// A fixed count, so that what earlier set-ups leave in the allocator —
/// and with it `peak_rss_mib` — does not depend on how fast they ran.
const SETUP_REPEATS: usize = 5;
/// Share of a traced run's window spent on the untraced reference that
/// `trace.overhead_pct` compares against.
const REFERENCE_SHARE: f64 = 0.25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    emit: bool,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.3 } else { metrics::RUN_SECONDS as f64 })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 42, seconds: None, trace: false, smoke: false, emit: false };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} outside (0, 60]"));
                }
                args.seconds = Some(seconds);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--emit-benchmark-json" => args.emit = true,
            other => {
                return Err(format!(
                    "unknown flag {other}; supported: --workload --seed --seconds --trace \
                     --smoke --emit-benchmark-json"
                ))
            }
        }
    }
    Ok(args)
}

/// `bench/out` of the checkout the command runs from (the driver's
/// case), else next to this package's manifest.
fn out_dir() -> PathBuf {
    let local = Path::new("bench");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mpsm-perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        metrics::validate_tables();
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// Run every workload, each in its own child process so that peak RSS,
/// allocator state and thread pools never leak from one into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = Vec::new();
    for workload in metrics::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child; its output goes straight to ours.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{}: {status}", workload.name)),
            Err(e) => failed.push(format!("{}: {e}", workload.name)),
        }
    }
    if failed.is_empty() {
        println!("# all {} workloads correct", metrics::WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

/// Headline numbers of a window (see `headline.rs` for the estimator).
fn headline_of(window: &Window) -> Headline {
    headline::headline(&window.ops, window.goodput_ops.as_deref().unwrap_or(&window.ops))
}

/// The end-to-end metrics, which every workload reports the same way.
fn end_to_end(window: &Window, head: &Headline, setup_s: f64) -> Values {
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("peak_rss_mib", machine::peak_rss_mib());
    values.set("op_p50_ms", head.p50_ms);
    values.set("op_p95_ms", head.p95_ms);
    values.set("ns_per_tuple", head.p50_ms * 1e6 / window.tuples_per_op);
    values.set("goodput_per_s", head.goodput_per_s);
    values
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let scale = Scale::new(args.smoke);
    if args.smoke {
        metrics::validate_tables();
    }
    let seconds = args.seconds();
    let machine = Fingerprint::read();
    println!(
        "# mpsm-perfbench workload={name} seed={} seconds={seconds} trace={} smoke={}",
        args.seed, args.trace as u8, args.smoke
    );
    println!("# machine {}", machine.json());
    println!(
        "# config pool_threads={} max_in_flight={} server_workers={} load_threads<={}",
        workloads::POOL_THREADS,
        workloads::MAX_IN_FLIGHT,
        workloads::SERVER_WORKERS,
        workloads::LOAD_THREADS
    );

    let gen_start = Instant::now();
    let Some(factory) = workloads::generate(name, args.seed, scale) else {
        let known: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("mpsm-perfbench: unknown workload {name}; known: {known:?}");
        return ExitCode::from(2);
    };
    let gen_s = gen_start.elapsed().as_secs_f64();

    // Set up several times and report the median: one set-up is a
    // single sample of a sub-second cost. Only the last engine is kept.
    let mut setup_samples = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        match factory.setup() {
            Ok(ready) => workload = Some(ready),
            Err(why) => {
                eprintln!("mpsm-perfbench: set-up of {name} failed: {why}");
                return ExitCode::FAILURE;
            }
        }
        setup_samples.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS > 0");
    let setup_s = median(&setup_samples);

    // A traced run spends the head of its window on an untraced
    // reference (for `trace.overhead_pct`) and the rest with spans on.
    let window = Duration::from_secs_f64(seconds);
    let tracer = Tracer::new(args.trace);
    let reference = args
        .trace
        .then(|| workload.run(window.mul_f64(REFERENCE_SHARE), false, &Tracer::new(false)));
    let measured_share = if args.trace { 1.0 - REFERENCE_SHARE } else { 1.0 };
    let measured = workload.run(window.mul_f64(measured_share), true, &tracer);
    let mut attempted = measured.attempted;
    let mut failed = measured.failed;
    let mut first_failure = measured.first_failure.clone();
    let finish_start = Instant::now();
    if let Err(why) = workload.finish() {
        failed += 1;
        first_failure.get_or_insert(why);
    }
    // The engine (and its background threads) is gone before the probes
    // run, so they price each layer on an otherwise idle process.
    drop(workload);
    let finish_s = finish_start.elapsed().as_secs_f64();

    let head = headline_of(&measured);
    let mut diag: Vec<(String, f64, &'static str)> =
        vec![("gen_s".to_string(), gen_s, "s"), ("finish_s".to_string(), finish_s, "s")];
    let (values, table);
    if let Some(reference) = reference {
        // The probes price every layer at a fixed size; the workload's
        // own numbers replace theirs where it has them.
        let mut layer = probes::run(args.seed, scale, &tracer);
        layer.extend(measured.layer.iter().copied());
        let reference_p50 = headline_of(&reference).p50_ms;
        layer.set(
            "trace.overhead_pct",
            if reference_p50 > 0.0 { (head.p50_ms / reference_p50 - 1.0) * 100.0 } else { 0.0 },
        );
        diag.push(("traced_op_p50_ms".to_string(), head.p50_ms, "ms"));
        diag.push(("untraced_op_p50_ms".to_string(), reference_p50, "ms"));
        attempted += reference.attempted;
        failed += reference.failed;
        first_failure = reference.first_failure.or(first_failure);
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| tracer.write(&dir.join(format!("trace-{name}.json")), name, args.seed));
        if let Err(e) = written {
            eprintln!("mpsm-perfbench: could not write the trace: {e}");
            return ExitCode::FAILURE;
        }
        values = layer;
        table = metrics::PER_LAYER;
    } else {
        let latencies = sorted(measured.ops.iter().map(|op| op.latency_ms()).collect());
        diag.push(("window_p50_ms".to_string(), head.window_p50_ms, "ms"));
        diag.push(("window_p95_ms".to_string(), head.window_p95_ms, "ms"));
        diag.push(("window_goodput_per_s".to_string(), head.window_goodput_per_s, "1/s"));
        diag.push(("op_p99_ms".to_string(), percentile(&latencies, 99.0), "ms"));
        diag.push(("op_max_ms".to_string(), percentile(&latencies, 100.0), "ms"));
        diag.push(("op_samples".to_string(), latencies.len() as f64, "count"));
        values = end_to_end(&measured, &head, setup_s);
        table = metrics::END_TO_END;
    }
    diag.extend(measured.diag.iter().cloned());

    values.assert_matches(table);
    values.print(name, table);
    for (diag_name, value, unit) in &diag {
        println!("diag {name} {diag_name} {value} {unit}");
    }
    println!("ops {name} {attempted}");
    println!("failed_ops {name} {failed}");
    if let Some(why) = &first_failure {
        println!("# first failure: {why}");
    }
    let line = report::result_line(attempted.max(1), failed, &values, table);
    if let Err(e) = write_report(name, args, seconds, &machine, &line, &diag) {
        eprintln!("mpsm-perfbench: could not write the report: {e}");
    }
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's record on disk: what was asked, on what machine, with the
/// fixed engine sizing, and every number printed.
fn write_report(
    name: &str,
    args: &Args,
    seconds: f64,
    machine: &Fingerprint,
    result: &str,
    diag: &[(String, f64, &'static str)],
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("report-{name}-trace{}.json", args.trace as u8));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let diagnostics: Vec<String> = diag
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    writeln!(
        out,
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \
         \"smoke\": {},\n \"machine\": {},\n \"config\": {{\"pool_threads\": {}, \
         \"max_in_flight\": {}, \"server_workers\": {}, \"max_load_threads\": {}}},\n \
         \"diagnostics\": {{{}}},\n \"result\": {result}}}",
        args.seed,
        args.trace,
        args.smoke,
        machine.json(),
        workloads::POOL_THREADS,
        workloads::MAX_IN_FLIGHT,
        workloads::SERVER_WORKERS,
        workloads::LOAD_THREADS,
        diagnostics.join(", ")
    )?;
    out.flush()
}
