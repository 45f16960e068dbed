//! Overload and connection-hygiene behaviour of the multiplexed
//! front-end: a saturating client storm draws **zero rejections** and
//! every degraded answer is a verified key-order prefix with positive
//! coverage; a client dropped mid-frame never wedges a connection
//! worker; and the two reapers — idle timeout and mid-frame read
//! deadline — close stalled connections without touching healthy ones.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mpsm::exec::{RunCacheConfig, SchedulerConfig, Session};
use mpsm_serve::protocol::{read_frame, write_frame, Frame};
use mpsm_serve::{Client, QueryRequest, Server, ServerConfig, ServerHandle};

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 32
    }
}

/// `(key, payload)` pairs: every key in `0..n` once, payload = key, so
/// the sorted join is exactly `(k, k, k)` for `k` in `0..n` and any
/// prefix can be verified in closed form.
fn closed_form_tuples(n: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut keys: Vec<u64> = (0..n).collect();
    let mut next = lcg(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    keys.into_iter().map(|k| (k, k)).collect()
}

fn serve_with(scheduler: SchedulerConfig, server: ServerConfig) -> ServerHandle {
    let session = Session::with_run_cache(scheduler, RunCacheConfig::default());
    Server::bind_with("127.0.0.1:0", session, server).expect("bind").spawn().expect("spawn")
}

/// Read once from a raw stream and decide whether the server hung up.
/// A read timeout means it did NOT — the connection is still open.
fn assert_reaped(stream: &mut TcpStream, why: &str) {
    let mut probe = [0u8; 16];
    match stream.read(&mut probe) {
        Ok(0) => {}
        Ok(n) => panic!("{why}: expected a close, got {n} unsolicited bytes"),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            panic!("{why}: connection still open after the timeout window")
        }
        Err(_) => {} // a reset counts as reaped too
    }
}

/// Saturate a tiny admission budget from many concurrent clients.
/// Degrade-don't-reject means every query answers: no `REJECTED`
/// errors, and each degraded (incomplete) answer carries
/// coverage > 0 with rows that are an exact key-order prefix of the
/// full join.
#[test]
fn client_storm_degrades_with_zero_rejections() {
    let n = 1u64 << 16; // 16 blocks of merge work: a 4-block degraded budget is a strict partial
    let server = serve_with(
        SchedulerConfig::new(2).max_in_flight(2).queue_capacity(2),
        ServerConfig::default().workers(2),
    );
    let mut setup = Client::connect(server.addr()).expect("connect");
    setup.register("R", closed_form_tuples(n, 7)).expect("register R");
    setup.register("S", closed_form_tuples(n, 11)).expect("register S");

    let addr = server.addr();
    let incomplete = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..12u8 {
            let incomplete = &incomplete;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut request = QueryRequest::new("R", "S");
                request.priority = t % 3;
                request.rows_cap = n as u32;
                for _ in 0..6 {
                    // `expect` fails the test on any Error frame — a
                    // REJECTED answer can't slip through.
                    let reply = client.query(&request).expect("storm queries are never rejected");
                    assert!(reply.coverage > 0.0, "every answer carries some coverage");
                    let rows = reply.rows;
                    assert_eq!(
                        rows,
                        (0..rows.len() as u64).map(|k| (k, k, k)).collect::<Vec<_>>(),
                        "every answer is an exact key-order prefix of the full join"
                    );
                    if !reply.complete {
                        incomplete.fetch_add(1, Ordering::Relaxed);
                        assert!(reply.coverage < 1.0);
                        assert!((rows.len() as u64) < n, "incomplete answers are strict prefixes");
                        assert!(
                            !reply.range_coverage.is_empty(),
                            "degraded answers carry the per-range histogram"
                        );
                    } else {
                        assert_eq!(rows.len() as u64, n, "complete answers deliver every row");
                    }
                }
            });
        }
    });

    let metrics = setup.metrics().expect("metrics");
    assert_eq!(metrics.rejected, 0, "degrade-don't-reject: nothing is rejected under storm");
    assert!(metrics.degraded > 0, "the storm must have overflowed the 4-slot budget");
    assert_eq!(metrics.completed, metrics.submitted, "every admitted query answered");
    assert!(
        incomplete.load(Ordering::Relaxed) > 0,
        "at least one degraded query must have returned a partial answer"
    );

    server.shutdown();
}

/// A client that vanishes mid-frame (length prefix promised, body
/// truncated) or mid-reply must not wedge its connection worker: with
/// a single worker, a healthy connection sharing that worker keeps
/// getting answers.
#[test]
fn mid_frame_disconnect_never_wedges_a_connection_worker() {
    let server = serve_with(SchedulerConfig::new(2), ServerConfig::default().workers(1));
    let mut client = Client::connect(server.addr()).expect("connect");
    client.register("R", closed_form_tuples(256, 3)).expect("register R");
    client.register("S", closed_form_tuples(256, 5)).expect("register S");

    let mut request = QueryRequest::new("R", "S");
    request.rows_cap = 4;
    for round in 0..8 {
        // Promise a 64-byte frame, deliver 4 bytes, vanish.
        let mut half = TcpStream::connect(server.addr()).expect("connect");
        half.write_all(&64u32.to_le_bytes()).expect("len");
        half.write_all(&[0x05, 1, 2, round]).expect("partial body");
        drop(half);

        // Variant: a complete Query frame, but the client disconnects
        // before reading the reply — the worker writes into a dead
        // socket and must shrug it off.
        let mut ghost = TcpStream::connect(server.addr()).expect("connect");
        write_frame(
            &mut ghost,
            &Frame::Query(mpsm_serve::protocol::QueryBody {
                r: "R".to_string(),
                s: "S".to_string(),
                deadline_micros: 0,
                priority: 1,
                rows_cap: 4,
            }),
        )
        .expect("write");
        drop(ghost);

        // The lone worker still serves the healthy connection.
        let reply = client.query(&request).expect("query after mid-frame disconnects");
        assert_eq!(reply.rows, vec![(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]);
    }

    server.shutdown();
}

/// A connection stuck mid-frame is reaped at the read deadline, and
/// trickling one byte at a time does not reset the clock.
#[test]
fn mid_frame_stall_is_reaped_at_the_read_deadline() {
    let server = serve_with(
        SchedulerConfig::new(2),
        ServerConfig::default().workers(1).read_deadline(Duration::from_millis(100)),
    );
    let mut stuck = TcpStream::connect(server.addr()).expect("connect");
    stuck.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stuck.write_all(&64u32.to_le_bytes()).expect("len");
    stuck.write_all(&[0x01]).expect("first byte");
    // Trickle another byte inside the window: the deadline clocks from
    // the frame's first byte, so this must not buy more time.
    std::thread::sleep(Duration::from_millis(50));
    let _ = stuck.write_all(&[0x02]);
    assert_reaped(&mut stuck, "mid-frame stall");

    // The worker that reaped it still serves new connections.
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping after reap");

    server.shutdown();
}

/// A connection with no traffic and nothing owed is reaped at the idle
/// timeout, while an active sibling on the same worker keeps running.
#[test]
fn idle_connection_is_reaped_while_an_active_one_survives() {
    let server = serve_with(
        SchedulerConfig::new(2),
        ServerConfig::default().workers(1).idle_timeout(Duration::from_millis(150)),
    );
    let mut idle = TcpStream::connect(server.addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // One clean exchange, then silence.
    write_frame(&mut idle, &Frame::Ping).expect("write");
    let frame = read_frame(&mut idle).expect("read").expect("open").expect("decodes");
    assert_eq!(frame, Frame::Pong);

    // An active sibling pings through the idle window and survives.
    let mut active = Client::connect(server.addr()).expect("connect");
    let window = Instant::now() + Duration::from_millis(600);
    while Instant::now() < window {
        active.ping().expect("active connection must survive the reaper");
        std::thread::sleep(Duration::from_millis(50));
    }

    assert_reaped(&mut idle, "idle connection");
    server.shutdown();
}
