//! The query-service layer, end to end: every frame type round-trips
//! over a real TCP socket, malformed frames draw errors without
//! killing the connection, SLA admission surfaces as typed error
//! codes, and the anytime contract — coverage monotone in the budget,
//! partial rows a key-order prefix of the full join — holds both
//! deterministically (budget tokens, proptest) and over the wire.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mpsm::core::context::ExecContext;
use mpsm::core::join::anytime::AnytimeToken;
use mpsm::core::Tuple;
use mpsm::exec::{Priority, QuerySpec, Relation, RunCacheConfig, SchedulerConfig, Session};
use mpsm_serve::protocol::{code, read_frame, write_frame, Frame, QueryBody, MAX_FRAME};
use mpsm_serve::{Client, QueryRequest, Server, ServerHandle, ServiceError};
use proptest::prelude::*;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

/// `(key, payload)` pairs: every key in `0..n` once, payload = key.
fn closed_form_tuples(n: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut keys: Vec<u64> = (0..n).collect();
    let mut next = lcg(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    keys.into_iter().map(|k| (k, k)).collect()
}

/// A served session on an ephemeral port.
fn serve(config: SchedulerConfig) -> ServerHandle {
    let session = Session::with_run_cache(config, RunCacheConfig::default());
    Server::bind("127.0.0.1:0", session).expect("bind").spawn().expect("spawn")
}

#[test]
fn every_frame_type_round_trips_over_a_real_socket() {
    let server = serve(SchedulerConfig::new(2));
    let mut client = Client::connect(server.addr()).expect("connect");

    // Ping / Pong.
    client.ping().expect("ping");

    // Register / Registered, both sides.
    let n = 512u64;
    let (rows, version) = client.register("R", closed_form_tuples(n, 7)).expect("register R");
    assert_eq!(rows, n);
    assert!(version > 0);
    client.register("S", closed_form_tuples(n, 11)).expect("register S");

    // Query / QueryResult with a rows cap: the merge stops as soon as
    // the cap is satisfied, so the reply reports complete (the caller
    // got every row it asked for) while coverage and the per-range
    // histogram say how much of the key space the merge visited.
    let mut request = QueryRequest::new("R", "S");
    request.rows_cap = 8;
    let reply = client.query(&request).expect("query");
    assert_eq!(reply.r_selected, n);
    assert!(reply.complete, "a capped stop is complete on the wire");
    assert!(reply.coverage > 0.0 && reply.coverage <= 1.0);
    assert!(!reply.range_coverage.is_empty(), "per-range histogram rides the reply");
    if let Some(max) = reply.max_payload_sum {
        assert!(max <= 2 * (n - 1), "aggregate over a prefix never exceeds the full join");
    }
    assert_eq!(
        reply.rows,
        (0..8).map(|k| (k, k, k)).collect::<Vec<_>>(),
        "collected rows arrive in key order"
    );

    // Explain / Explained carries the plan (with the service rows).
    let explain = client.explain(&request).expect("explain");
    assert!(explain.contains("Join [P-MPSM"), "{explain}");
    assert!(explain.contains("Anytime [coverage="), "{explain}");
    assert!(explain.contains("Queue [wait ="), "{explain}");
    assert!(explain.contains("Source [R=stored, S=stored]"), "{explain}");

    // Write / Written lands in the delta and the next query sees it.
    let watermark = client.write("R", vec![(0, 5000)]).expect("write");
    assert_eq!(watermark, 1);
    let reply = client.query(&QueryRequest::new("R", "S")).expect("query after write");
    assert_eq!(reply.max_payload_sum, Some(5000), "append visible to the next query");
    assert_eq!(reply.r_selected, n + 1);

    // Metrics / MetricsReport.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.submitted >= 3, "query + explain + post-write query were submitted");
    assert_eq!(metrics.completed, metrics.submitted);

    server.shutdown();
}

#[test]
fn malformed_frames_draw_errors_without_killing_the_connection() {
    let server = serve(SchedulerConfig::new(2));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    let expect_error = |stream: &mut TcpStream, expected: u16, why: &str| {
        let frame = read_frame(stream).expect("read").expect("open").expect("decodes");
        match frame {
            Frame::Error { code, .. } => assert_eq!(code, expected, "{why}"),
            other => panic!("{why}: expected an Error frame, got {other:?}"),
        }
    };

    // An unknown tag inside a well-framed body.
    stream.write_all(&1u32.to_le_bytes()).expect("len");
    stream.write_all(&[0x42]).expect("tag");
    expect_error(&mut stream, code::MALFORMED, "unknown tag");

    // A truncated Register body.
    let mut body = vec![0x02];
    body.extend_from_slice(&100u32.to_le_bytes());
    stream.write_all(&(body.len() as u32).to_le_bytes()).expect("len");
    stream.write_all(&body).expect("body");
    expect_error(&mut stream, code::MALFORMED, "truncated body");

    // A well-formed server-tagged frame is refused, not served.
    write_frame(&mut stream, &Frame::Pong).expect("write");
    expect_error(&mut stream, code::UNSUPPORTED, "server frame from a client");

    // A query for relations that don't exist.
    write_frame(
        &mut stream,
        &Frame::Query(QueryBody {
            r: "ghost".to_string(),
            s: "ghost".to_string(),
            deadline_micros: 0,
            priority: 1,
            rows_cap: 0,
        }),
    )
    .expect("write");
    expect_error(&mut stream, code::UNKNOWN_RELATION, "unknown relation");

    // The connection survived all four: a valid Ping still answers.
    write_frame(&mut stream, &Frame::Ping).expect("write");
    let frame = read_frame(&mut stream).expect("read").expect("open").expect("decodes");
    assert_eq!(frame, Frame::Pong, "connection must survive malformed frames");

    // An oversized length prefix is unrecoverable: the server closes.
    stream.write_all(&u32::MAX.to_le_bytes()).expect("len");
    let mut probe = [0u8; 1];
    let closed = match stream.read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(_) => true,
    };
    assert!(closed, "an unsyncable stream must be dropped");

    server.shutdown();
}

#[test]
fn a_reply_past_max_frame_draws_an_error_and_keeps_the_connection() {
    let server = serve(SchedulerConfig::new(2));
    let mut client = Client::connect(server.addr()).expect("connect");
    // One shared key: 1 800 × 1 600 = 2.88 M rows, about 69 MB encoded.
    client.register("R", (0..1800).map(|p| (7, p)).collect()).expect("register R");
    client.register("S", (0..1600).map(|p| (7, p)).collect()).expect("register S");
    let mut request = QueryRequest::new("R", "S");
    request.rows_cap = 3_000_000;
    match client.query(&request) {
        Err(ServiceError::Server { code, message }) => {
            assert_eq!(code, code::UNSUPPORTED, "{message}");
            assert!(message.contains("MAX_FRAME"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    client.ping().expect("the connection survives an oversized reply");
    server.shutdown();
}

#[test]
fn write_frame_refuses_a_body_past_max_frame() {
    let tuples = vec![(0u64, 0u64); MAX_FRAME as usize / 16 + 1];
    let mut stream = Vec::new();
    let err = write_frame(&mut stream, &Frame::Register { name: "R".to_string(), tuples })
        .expect_err("oversized body");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(stream.is_empty(), "nothing reaches the stream");
}

#[test]
fn sla_rejections_surface_as_typed_error_codes() {
    let server = serve(SchedulerConfig::new(2).min_feasible_deadline(Duration::from_millis(1)));
    let mut client = Client::connect(server.addr()).expect("connect");
    client.register("R", closed_form_tuples(64, 3)).expect("register R");
    client.register("S", closed_form_tuples(64, 5)).expect("register S");

    let mut request = QueryRequest::new("R", "S");
    request.deadline_micros = 10; // below the 1 ms floor
    match client.query(&request) {
        Err(ServiceError::Server { code, .. }) => assert_eq!(code, code::INFEASIBLE),
        other => panic!("expected an INFEASIBLE error, got {other:?}"),
    }
    // The connection is still usable and a feasible deadline runs.
    request.deadline_micros = 60_000_000;
    let reply = client.query(&request).expect("feasible deadline");
    assert!(reply.complete);

    server.shutdown();
}

#[test]
fn deadline_hit_over_the_wire_returns_a_partial_prefix() {
    // Deterministic over the wire is impossible (wall clocks), so run
    // the loop the bench uses: descend the deadline until a partial
    // arrives, then check the prefix property. The deterministic
    // version of the same contract is the proptest below.
    let n = 1u64 << 14;
    let server = serve(SchedulerConfig::new(2));
    let mut client = Client::connect(server.addr()).expect("connect");
    client.register("R", closed_form_tuples(n, 7)).expect("register R");
    client.register("S", closed_form_tuples(n, 9)).expect("register S");

    let mut full_req = QueryRequest::new("R", "S");
    full_req.rows_cap = n as u32;
    let full = client.query(&full_req).expect("full query");
    assert!(full.complete);
    assert_eq!(full.rows.len(), n as usize);

    // The 1 us floor guarantees termination: by the time the
    // coordinator pops a 1 us-deadline query it is already expired
    // (dispatch alone takes longer), which yields an empty partial —
    // the prefix property holds for the empty prefix too.
    let mut deadline_micros = 2_000u64;
    let mut partial = None;
    for _ in 0..40 {
        let mut req = full_req.clone();
        req.deadline_micros = deadline_micros;
        let reply = client.query(&req).expect("deadline query");
        if !reply.complete {
            partial = Some(reply);
            break;
        }
        if deadline_micros == 1 {
            break;
        }
        deadline_micros = ((deadline_micros * 6) / 10).max(1);
    }
    let partial = partial.expect("some deadline must interrupt the merge");
    assert!(partial.coverage < 1.0);
    assert_eq!(
        partial.rows.as_slice(),
        &full.rows[..partial.rows.len()],
        "partial rows must be a key-order prefix of the full join"
    );
    if let Some(m) = partial.max_payload_sum {
        assert!(m <= full.max_payload_sum.expect("full join non-empty"));
    }

    server.shutdown();
}

#[test]
fn concurrent_wire_clients_agree_on_the_answer() {
    let n = 2048u64;
    let server = serve(SchedulerConfig::new(2).max_in_flight(2).queue_capacity(64));
    let mut setup = Client::connect(server.addr()).expect("connect");
    setup.register("R", closed_form_tuples(n, 13)).expect("register R");
    setup.register("S", closed_form_tuples(n, 17)).expect("register S");

    let addr = server.addr();
    std::thread::scope(|scope| {
        for i in 0..6 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut request = QueryRequest::new("R", "S");
                request.priority = (i % 3) as u8;
                for _ in 0..4 {
                    let reply = client.query(&request).expect("query");
                    assert_eq!(reply.max_payload_sum, Some(2 * (n - 1)));
                }
            });
        }
    });

    server.shutdown();
}

/// Deterministic anytime contract, in-process (budget tokens make the
/// interruption point exact): coverage is monotone non-decreasing in
/// the budget and every partial's rows are a key-order prefix of the
/// full join's.
fn spec_for(r: &Arc<Relation>, s: &Arc<Relation>, cap: usize) -> QuerySpec {
    QuerySpec::join(r, s).priority(Priority::Normal).collect_rows(cap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn anytime_coverage_is_monotone_and_rows_are_a_prefix(
        r_keys in proptest::collection::vec(0u64..400, 1..1200),
        s_keys in proptest::collection::vec(0u64..400, 1..1200),
        threads in 1usize..4,
    ) {
        let tuples = |keys: &[u64]| -> Vec<Tuple> {
            keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u64)).collect()
        };
        let r = Arc::new(Relation::new("R", tuples(&r_keys)));
        let s = Arc::new(Relation::new("S", tuples(&s_keys)));
        let cx = ExecContext::flat(threads);
        let cap = r_keys.len() * s_keys.len();

        let full = mpsm::exec::paper_query_runs(
            &cx,
            &spec_for(&r, &s, cap),
            &AnytimeToken::never(),
        );
        let full_rows = full.rows.clone().expect("rows collected");
        prop_assert!(full.plan.anytime.as_ref().expect("anytime row").complete);

        let mut last_coverage = -1.0f64;
        for budget in 0..6u64 {
            let out = mpsm::exec::paper_query_runs(
                &cx,
                &spec_for(&r, &s, cap),
                &AnytimeToken::budget(budget),
            );
            let info = out.plan.anytime.as_ref().expect("anytime row").clone();
            prop_assert!(
                info.coverage >= last_coverage,
                "coverage {} dropped below {} at budget {}",
                info.coverage,
                last_coverage,
                budget
            );
            last_coverage = info.coverage;
            let rows = out.rows.expect("rows collected");
            prop_assert!(rows.len() <= full_rows.len());
            prop_assert_eq!(
                rows.as_slice(),
                &full_rows[..rows.len()],
                "budget {}: partial rows must be a key-order prefix",
                budget
            );
            if info.complete {
                prop_assert_eq!(rows.len(), full_rows.len());
                prop_assert_eq!(out.max_payload_sum, full.max_payload_sum);
            }
        }
    }
}
