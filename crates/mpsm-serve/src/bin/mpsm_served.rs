//! `mpsm_served` — the query-service daemon: one [`Session`] behind a
//! TCP socket speaking the [`mpsm_serve::protocol`] wire format.
//!
//! ```text
//! cargo run --release -p mpsm-serve --bin mpsm_served
//!     [--addr HOST:PORT] [--threads N] [--in-flight N] [--queue N]
//!     [--min-deadline-micros N] [--drain-timeout-ms N] [--workers N]
//!     [--idle-timeout-ms N] [--read-deadline-ms N]
//! ```
//!
//! Prints `mpsm_served listening on ADDR` once the socket accepts —
//! the readiness line scripts block on. Clients register relations,
//! write deltas, and run queries over the wire: `tests/served_binary.rs`
//! drives this process end to end, and the harness's `serve_open`
//! workload (`bench/`) is the load generator.

use std::time::Duration;

use mpsm_exec::{SchedulerConfig, Session};
use mpsm_serve::{Server, ServerConfig};

struct Args {
    addr: String,
    threads: usize,
    in_flight: usize,
    queue: usize,
    min_deadline_micros: u64,
    drain_timeout_ms: u64,
    workers: usize,
    idle_timeout_ms: u64,
    read_deadline_ms: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        threads: 4,
        in_flight: 2,
        queue: 16,
        min_deadline_micros: 0,
        drain_timeout_ms: 10_000,
        workers: 4,
        idle_timeout_ms: 60_000,
        read_deadline_ms: 10_000,
    };
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{flag} needs a number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = it.next().unwrap_or_else(|| panic!("--addr needs HOST:PORT")),
            "--threads" => args.threads = num(&mut it, "--threads"),
            "--in-flight" => args.in_flight = num(&mut it, "--in-flight"),
            "--queue" => args.queue = num(&mut it, "--queue"),
            "--min-deadline-micros" => {
                args.min_deadline_micros = num(&mut it, "--min-deadline-micros") as u64
            }
            "--drain-timeout-ms" => {
                args.drain_timeout_ms = num(&mut it, "--drain-timeout-ms") as u64
            }
            "--workers" => args.workers = num(&mut it, "--workers"),
            "--idle-timeout-ms" => args.idle_timeout_ms = num(&mut it, "--idle-timeout-ms") as u64,
            "--read-deadline-ms" => {
                args.read_deadline_ms = num(&mut it, "--read-deadline-ms") as u64
            }
            other => panic!(
                "unknown flag {other}; supported: --addr --threads --in-flight --queue \
                 --min-deadline-micros --drain-timeout-ms --workers --idle-timeout-ms \
                 --read-deadline-ms"
            ),
        }
    }
    assert!(args.threads > 0 && args.in_flight > 0 && args.workers > 0);
    args
}

fn main() {
    let args = parse_args();
    let config = SchedulerConfig::new(args.threads)
        .max_in_flight(args.in_flight)
        .queue_capacity(args.queue)
        .min_feasible_deadline(Duration::from_micros(args.min_deadline_micros))
        .drain_timeout(Duration::from_millis(args.drain_timeout_ms));
    let session = Session::new(config);
    let server_config = ServerConfig::default()
        .workers(args.workers)
        .idle_timeout(Duration::from_millis(args.idle_timeout_ms))
        .read_deadline(Duration::from_millis(args.read_deadline_ms));
    let server = Server::bind_with(args.addr.as_str(), session, server_config).expect("bind");
    let addr = server.local_addr().expect("bound address");
    println!("mpsm_served listening on {addr}");
    eprintln!(
        "pool = {} exec threads, {} in flight, queue = {}, deadline floor = {} us, \
         {} connection workers",
        args.threads, args.in_flight, args.queue, args.min_deadline_micros, args.workers
    );
    server.run().expect("accept loop");
}
