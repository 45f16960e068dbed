//! The real `mpsm_served` process, end to end: spawn the binary on an
//! ephemeral port, block on its readiness line, and drive every request
//! kind over a real [`Client`] against closed-form relations.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use mpsm_serve::{Client, QueryRequest};

/// Kills the server when the test ends, passing or panicking.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn served_binary_answers_over_a_real_socket() {
    let child = Command::new(env!("CARGO_BIN_EXE_mpsm_served"))
        .args(["--addr", "127.0.0.1:0", "--threads", "2", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mpsm_served");
    let mut served = Served(child);

    // Readiness is the line the process prints once the socket accepts;
    // EOF first means it died before binding.
    let mut line = String::new();
    BufReader::new(served.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read readiness line");
    let addr = line
        .trim()
        .strip_prefix("mpsm_served listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"));

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");

    // Every key in 0..n once on both sides, payload = key (R ascending,
    // S descending): the join has n rows and max(r + s) = 2(n − 1).
    let n = 4096u64;
    let (rows, version) = client.register("R", (0..n).map(|k| (k, k)).collect()).expect("R");
    assert_eq!((rows, version > 0), (n, true));
    client.register("S", (0..n).rev().map(|k| (k, k)).collect()).expect("S");

    let request = QueryRequest::new("R", "S");
    let reply = client.query(&request).expect("query");
    assert!(reply.complete, "an unconstrained query completes");
    assert_eq!(reply.r_selected, n);
    assert_eq!(reply.max_payload_sum, Some(2 * (n - 1)), "answer equals the closed form");

    let plan = client.explain(&request).expect("explain");
    assert!(plan.contains("Join [P-MPSM"), "{plan}");

    let metrics = client.metrics().expect("metrics");
    assert!(metrics.completed >= 1, "the query is counted: {metrics:?}");
    assert_eq!(metrics.rejected, 0);
}
