//! Raw-socket tests of the thread-per-connection server: hand-built frames over plain
//! `TcpStream`s, no client stack, so each test pins one property of `serve` itself —
//! reply routing across concurrent connections, deferred replies crossing connections,
//! a hostile connection's isolation, shutdown while others idle, and the per-frame
//! round-trip floor.

use legostore_proto::msg::{ProtoMsg, ProtoReply, ReconfigPayload};
use legostore_proto::server::{ControlMsg, Inbound};
use legostore_proto::wire::Frame;
use legostore_server::spawn_server_thread;
use legostore_types::{ClientId, ConfigEpoch, Configuration, DcId, Key, Tag, Value};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DC: DcId = DcId(0);

fn config() -> Configuration {
    Configuration::abd_majority(vec![DC, DcId(1), DcId(2)], 1)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    // A regression that loses a reply fails the test instead of hanging it.
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    conn
}

fn send(conn: &mut TcpStream, frame: Frame) {
    frame.write_to(conn).expect("send frame");
}

fn recv(conn: &mut TcpStream) -> Frame {
    Frame::read_from(conn).expect("read frame").expect("not eof")
}

fn request(from: u64, msg_id: u64, key: &str, msg: ProtoMsg) -> Frame {
    Frame::Request(Inbound {
        from,
        msg_id,
        phase: 1,
        key: Key::from(key),
        epoch: config().epoch,
        msg,
    })
}

fn install(conn: &mut TcpStream, key: &str, value: &str) {
    send(
        conn,
        Frame::Control(ControlMsg::InstallKey {
            key: Key::from(key),
            config: config(),
            tag: Tag::INITIAL,
            payload: ReconfigPayload::Value(Value::from(value)),
        }),
    );
}

/// A stats round trip on `conn`: every frame sent on it before has been served, and the
/// next frame it reads after any replies still owed is the stats reply.
fn sync(conn: &mut TcpStream, token: u64) {
    send(conn, Frame::StatsRequest { token });
    let Frame::StatsReply { token: got, .. } = recv(conn) else {
        panic!("expected the stats reply, nothing else, on this connection");
    };
    assert_eq!(got, token);
}

/// Asserts the reply to an ABD read of a key holding `value`, addressed to `endpoint`.
fn expect_value(frame: Frame, endpoint: u64, value: &str) {
    let Frame::Reply { endpoint: got, reply: ProtoReply::AbdTagValue { value: v, .. }, .. } =
        frame
    else {
        panic!("expected an AbdTagValue reply, got {frame:?}");
    };
    assert_eq!((got, v), (endpoint, Value::from(value)));
}

fn join_within(handle: JoinHandle<std::io::Result<()>>, limit: Duration) {
    let start = Instant::now();
    while !handle.is_finished() {
        assert!(start.elapsed() < limit, "serve did not return within {limit:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("join").expect("serve ok");
}

/// Four connections pipeline 500 reads each, concurrently, as distinct endpoints: each
/// reads back exactly its own 500 replies, and nothing else lands on it.
#[test]
fn concurrent_connections_each_read_back_only_their_own_replies() {
    const CONNS: u64 = 4;
    const PER_CONN: u64 = 500;
    let (addr, handle) = spawn_server_thread(DC).expect("spawn");
    let mut ctl = connect(addr);
    for i in 0..CONNS {
        install(&mut ctl, &format!("k{i}"), &format!("v{i}"));
    }
    sync(&mut ctl, 0);

    let workers: Vec<_> = (0..CONNS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let mut writer = conn.try_clone().expect("clone");
                let endpoint = 100 + i;
                let key = format!("k{i}");
                let sender = std::thread::spawn(move || {
                    for msg_id in 0..PER_CONN {
                        send(&mut writer, request(endpoint, msg_id, &key, ProtoMsg::AbdReadQuery));
                    }
                });
                for _ in 0..PER_CONN {
                    expect_value(recv(&mut conn), endpoint, &format!("v{i}"));
                }
                sender.join().expect("sender");
                conn
            })
        })
        .collect();
    let conns: Vec<TcpStream> = workers.into_iter().map(|w| w.join().expect("worker")).collect();
    // Every request has been answered, so a stray reply would already be queued ahead
    // of each connection's stats reply.
    for (token, mut conn) in (1..).zip(conns) {
        sync(&mut conn, token);
    }
    send(&mut ctl, Frame::Shutdown);
    join_within(handle, Duration::from_secs(10));
}

/// A write sent on A while B's `ReconfigQuery` blocks the key is deferred, and its reply
/// leaves on A only when B's `FinishReconfig` flushes it from B's connection thread.
#[test]
fn deferred_reply_is_flushed_to_the_connection_that_asked() {
    let (addr, handle) = spawn_server_thread(DC).expect("spawn");
    let (mut a, mut b) = (connect(addr), connect(addr));
    install(&mut b, "k", "v0");
    let mut target = config();
    target.epoch = ConfigEpoch(target.epoch.0 + 1);

    let query = ProtoMsg::ReconfigQuery { new_config: Box::new(target.clone()) };
    send(&mut b, request(2, 0, "k", query));
    expect_value(recv(&mut b), 2, "v0");

    let tag = Tag::new(1, ClientId(3));
    send(&mut a, request(1, 0, "k", ProtoMsg::AbdWrite { tag, value: Value::from("during") }));
    // The write has been served (same connection, in order) yet not answered.
    sync(&mut a, 7);

    let finish = ProtoMsg::FinishReconfig { highest_tag: tag, new_config: Box::new(target) };
    send(&mut b, request(2, 1, "k", finish));
    let Frame::Reply { endpoint: 2, reply: ProtoReply::Ack, .. } = recv(&mut b) else {
        panic!("expected B's finish to be acknowledged");
    };
    let reply = recv(&mut a);
    let Frame::Reply { endpoint: 1, reply: ProtoReply::Ack, .. } = reply else {
        panic!("expected the deferred write's ack on A, got {reply:?}");
    };

    send(&mut a, Frame::Shutdown);
    join_within(handle, Duration::from_secs(10));
}

/// splitmix64: a seeded byte stream with no dependency.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Connections that send 4 KiB of seeded random bytes are dropped, one by one, while
/// connection B keeps completing requests in between.
#[test]
fn garbage_connection_is_dropped_while_others_are_served() {
    let (addr, handle) = spawn_server_thread(DC).expect("spawn");
    let mut b = connect(addr);
    install(&mut b, "k", "v");
    for seed in 1..=4u64 {
        let mut hostile = connect(addr);
        hostile.write_all(&random_bytes(seed, 4096)).expect("send garbage");
        // Half-close, so a prefix promising more than 4 KiB meets EOF, not a wait.
        let _ = hostile.shutdown(Shutdown::Write);
        let mut rest = Vec::new();
        if let Err(e) = hostile.read_to_end(&mut rest) {
            let kind = e.kind();
            assert!(
                !matches!(kind, std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "seed {seed}: the server kept the garbage connection open"
            );
        }
        send(&mut b, request(9, seed, "k", ProtoMsg::AbdReadQuery));
        expect_value(recv(&mut b), 9, "v");
    }
    send(&mut b, Frame::Shutdown);
    join_within(handle, Duration::from_secs(10));
}

/// A `Shutdown` from a third connection joins `serve` while A and B are open and idle
/// (their threads blocked in `read`), and both then see their connection closed.
#[test]
fn shutdown_from_a_third_connection_joins_while_others_idle() {
    let (addr, handle) = spawn_server_thread(DC).expect("spawn");
    let (mut a, mut b) = (connect(addr), connect(addr));
    sync(&mut a, 1);
    sync(&mut b, 2);
    send(&mut connect(addr), Frame::Shutdown);
    join_within(handle, Duration::from_secs(10));
    for conn in [&mut a, &mut b] {
        assert!(!matches!(Frame::read_from(conn), Ok(Some(_))), "connection still served");
    }
}

/// The per-frame floor: 2 000 one-frame `AbdReadQuery` round trips over one loopback
/// connection, printed as the median µs per round trip. It asserts nothing about timing;
/// it is the number the client's per-phase latencies compare against.
#[test]
fn per_frame_round_trip_floor() {
    const ROUND_TRIPS: usize = 2_000;
    let (addr, handle) = spawn_server_thread(DC).expect("spawn");
    let mut conn = connect(addr);
    conn.set_nodelay(true).expect("nodelay");
    install(&mut conn, "k", "v");
    let mut samples_ns: Vec<u64> = (0..ROUND_TRIPS as u64)
        .map(|msg_id| {
            let start = Instant::now();
            send(&mut conn, request(5, msg_id, "k", ProtoMsg::AbdReadQuery));
            expect_value(recv(&mut conn), 5, "v");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples_ns.sort_unstable();
    let median_us = samples_ns[ROUND_TRIPS / 2] as f64 / 1_000.0;
    println!(
        "server per-frame floor: median {median_us:.1} µs per AbdReadQuery round trip \
         ({ROUND_TRIPS} over loopback)"
    );
    send(&mut conn, Frame::Shutdown);
    join_within(handle, Duration::from_secs(10));
}
