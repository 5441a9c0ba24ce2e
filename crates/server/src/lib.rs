//! A standalone LEGOStore per-DC server speaking the wire protocol of
//! [`legostore_proto::wire`] over real TCP sockets.
//!
//! The in-process deployment (`legostore-core`) runs every data center's server as a
//! thread behind a channel. This crate hosts the *same* [`RequestServer`] (and the
//! `DcServer` inside it) behind a `TcpListener` instead, so a cluster can run as one OS
//! process per data center, exchanging real bytes — the `legostore-server` binary is a
//! thin CLI over [`serve`], and `Cluster::connect_tcp` on the client side completes the
//! pair.
//!
//! The server is deliberately simple: a single dispatch loop owns the protocol state
//! (matching the one-thread-per-DC concurrency model the protocol code was written
//! against), an acceptor thread turns incoming connections into per-connection reader
//! threads, and every reader funnels decoded [`Frame`]s into the dispatch loop over a
//! channel. Replies are routed back through the connection that carried the endpoint's
//! most recent request, exactly like the in-process server routes replies through each
//! request's reply channel. A `Shutdown` frame from any connection stops the server —
//! deployments that outlive their drivers can simply not send one.

#![warn(missing_docs)]

use legostore_obs::{Gauge, Obs, ObsConfig};
use legostore_proto::server::RequestServer;
use legostore_proto::wire::Frame;
use legostore_types::DcId;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the acceptor and reader threads feed the dispatch loop.
enum Event {
    /// A new client connection (the write half the dispatch loop replies through).
    Connected(u64, TcpStream),
    /// One decoded frame from connection `.0`, plus its size on the wire in bytes.
    Frame(u64, Frame, u64),
    /// Connection `.0` reached EOF or failed; its routes are dead.
    Disconnected(u64),
}

/// Runs a LEGOStore data-center server on `listener` until a client sends a `Shutdown`
/// frame (or the listener fails). Blocks the calling thread for the server's lifetime.
///
/// Every accepted connection may carry requests from many endpoints (a driver process
/// multiplexes all its clients over one connection per server). Replies go back through
/// the connection that carried the endpoint's most recent request; the bounded routing
/// table, the dispatch and the telemetry are [`RequestServer`]'s, shared with the
/// in-process server loop.
pub fn serve(dc: DcId, listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    // Reply timestamps are process-local nanoseconds; receivers re-stamp on arrival
    // (cross-process clocks are not comparable), so the epoch choice is arbitrary.
    let epoch = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    // A standalone server always keeps at least metric counting on: it is per-process
    // state a remote driver can only see through a stats scrape, and the cost is a few
    // atomic adds per request. `LEGOSTORE_TRACE=1` raises the level further.
    let obs = Obs::new(match ObsConfig::from_env() {
        ObsConfig::Off => ObsConfig::Metrics,
        level => level,
    });
    let mut host: RequestServer<u64> = RequestServer::new(dc, obs);
    // Dispatch-queue depth, tracked across the reader/dispatch seam: readers increment
    // as they enqueue (and push the high-water mark), the dispatch loop decrements.
    let queue_depth = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Event>();
    let acceptor = {
        let stop = stop.clone();
        let depth = queue_depth.clone();
        let depth_max = host.metrics().queue_depth_max.clone();
        std::thread::Builder::new()
            .name(format!("legostore-accept-{dc}"))
            .spawn(move || accept_loop(listener, tx, stop, depth, depth_max))?
    };

    // Epoch-lease expiry runs on the same process-local clock as the reply timestamps.
    // Disabled unless configured: a standalone server has no deployment-wide op timeout
    // to derive a default from, so the driver (or operator) must opt in.
    if let Some(ms) = std::env::var("LEGOSTORE_EPOCH_LEASE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        host.server.set_epoch_lease_ns(ms.saturating_mul(1_000_000));
    }
    // Write halves of live connections; replies route by connection id.
    let mut conns: HashMap<u64, TcpStream> = HashMap::new();
    'dispatch: while let Ok(event) = rx.recv() {
        if matches!(event, Event::Frame(..)) {
            queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        match event {
            Event::Connected(id, stream) => {
                conns.insert(id, stream);
            }
            Event::Disconnected(id) => {
                conns.remove(&id);
                host.forget_routes(|conn| *conn == id);
            }
            Event::Frame(_, Frame::Shutdown, _) => break 'dispatch,
            Event::Frame(_, Frame::Control(ctrl), _) => host.server.apply_control(ctrl),
            Event::Frame(_, Frame::Reply { .. }, _) => {} // clients never send replies
            Event::Frame(_, Frame::StatsReply { .. }, _) => {} // likewise
            Event::Frame(id, Frame::StatsRequest { token }, _) => {
                // Answered on the connection the scrape arrived on (stats frames bypass
                // the endpoint routing table).
                let frame = Frame::StatsReply { token, dc, snapshot: host.stats() };
                if let Some(stream) = conns.get_mut(&id) {
                    let _ = frame.write_to(stream);
                }
            }
            Event::Frame(id, Frame::Request(inbound), wire_bytes) => {
                let now_ns = || epoch.elapsed().as_nanos() as u64;
                let mut failed = Vec::new();
                host.serve(id, inbound, wire_bytes, now_ns, |&conn, r| {
                    // Encode once: the same buffer is written and counted.
                    let bytes = Frame::Reply {
                        endpoint: r.endpoint,
                        from: r.from,
                        sent_at_ns: r.sent_at_ns,
                        service_ns: r.service_ns,
                        phase: r.phase,
                        epoch: r.epoch,
                        reply: r.reply,
                    }
                    .encode();
                    if io::Write::write_all(conns.get_mut(&conn)?, &bytes).is_err() {
                        failed.push(conn);
                        return None;
                    }
                    Some(bytes.len() as u64)
                });
                for conn in failed {
                    conns.remove(&conn);
                    host.forget_routes(|c| *c == conn);
                }
            }
        }
    }

    // Teardown: stop the acceptor (a dummy self-connection unblocks its accept), close
    // every connection so the reader threads see EOF, and join them all via the acceptor.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local);
    for stream in conns.values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    drop(rx);
    let _ = acceptor.join();
    Ok(())
}

/// Accepts connections, registering each with the dispatch loop and spawning its reader.
/// Joins every reader before returning, so [`serve`] owns the whole thread tree.
fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    depth: Arc<AtomicU64>,
    depth_max: Arc<Gauge>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 1;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else { continue };
        let id = next_id;
        next_id += 1;
        if tx.send(Event::Connected(id, stream)).is_err() {
            break; // the dispatch loop is gone
        }
        let tx = tx.clone();
        let depth = depth.clone();
        let depth_max = depth_max.clone();
        let handle = std::thread::Builder::new()
            .name(format!("legostore-conn-{id}"))
            .spawn(move || read_loop(id, read_half, tx, depth, depth_max));
        match handle {
            Ok(h) => readers.push(h),
            Err(_) => break,
        }
    }
    for handle in readers {
        let _ = handle.join();
    }
}

/// Decodes frames off one connection until EOF, error, or dispatch-loop shutdown.
fn read_loop(
    id: u64,
    mut stream: TcpStream,
    tx: mpsc::Sender<Event>,
    depth: Arc<AtomicU64>,
    depth_max: Arc<Gauge>,
) {
    loop {
        match Frame::read_from_counted(&mut stream) {
            Ok(Some((frame, wire_bytes))) => {
                depth_max.maximize(depth.fetch_add(1, Ordering::Relaxed) + 1);
                if tx.send(Event::Frame(id, frame, wire_bytes)).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Disconnected(id));
                return;
            }
        }
    }
}

/// Binds an OS-assigned loopback port and runs [`serve`] on a background thread:
/// the in-process way to stand up a TCP cluster (tests, benchmarks, single-process
/// demos). Returns the bound address and the server thread's handle; the thread exits
/// when a connected driver sends a `Shutdown` frame (e.g. `Cluster::shutdown`).
pub fn spawn_server_thread(dc: DcId) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name(format!("legostore-serve-{dc}"))
        .spawn(move || serve(dc, listener))?;
    Ok((addr, handle))
}

/// Locates the compiled `legostore-server` binary for multi-process launchers.
///
/// Honors `LEGOSTORE_SERVER_BIN` when set; otherwise walks up from the current
/// executable's directory (examples live in `target/<profile>/examples/`, test binaries
/// in `target/<profile>/deps/`, the binary itself in `target/<profile>/`).
pub fn find_server_binary() -> Option<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("LEGOSTORE_SERVER_BIN") {
        return Some(std::path::PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("legostore-server{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_proto::msg::{ProtoMsg, ProtoReply, ReconfigPayload};
    use legostore_proto::server::{ControlMsg, Inbound};
    use legostore_types::{Configuration, Key, StoreError, Tag, Value};

    /// Drives one server over a raw socket, no client stack: install a key via a
    /// `Control` frame, read it back with an ABD read query, shut the server down.
    #[test]
    fn raw_socket_round_trip_and_shutdown() {
        let dc = DcId(0);
        let (addr, handle) = spawn_server_thread(dc).expect("spawn");
        let mut conn = TcpStream::connect(addr).expect("connect");

        let config = Configuration::abd_majority(vec![dc, DcId(1), DcId(2)], 1);
        Frame::Control(ControlMsg::InstallKey {
            key: Key::from("k"),
            config: config.clone(),
            tag: Tag::INITIAL,
            payload: ReconfigPayload::Value(Value::from("hello")),
        })
        .write_to(&mut conn)
        .expect("install");

        Frame::Request(Inbound {
            from: 42,
            msg_id: 0,
            phase: 1,
            key: Key::from("k"),
            epoch: config.epoch,
            msg: ProtoMsg::AbdReadQuery,
        })
        .write_to(&mut conn)
        .expect("query");

        let reply = Frame::read_from(&mut conn).expect("read").expect("not eof");
        let Frame::Reply { endpoint, from, phase, reply, .. } = reply else {
            panic!("expected a reply frame");
        };
        assert_eq!((endpoint, from, phase), (42, dc, 1));
        let ProtoReply::AbdTagValue { tag, value } = reply else {
            panic!("expected AbdTagValue, got {reply:?}");
        };
        assert_eq!(tag, Tag::INITIAL);
        assert_eq!(value, Value::from("hello"));

        // A request for an unknown key gets a typed error back, not silence.
        Frame::Request(Inbound {
            from: 42,
            msg_id: 0,
            phase: 1,
            key: Key::from("missing"),
            epoch: config.epoch,
            msg: ProtoMsg::AbdReadQuery,
        })
        .write_to(&mut conn)
        .expect("query missing");
        let reply = Frame::read_from(&mut conn).expect("read").expect("not eof");
        let Frame::Reply { reply: ProtoReply::Error(err), .. } = reply else {
            panic!("expected an error reply, got {reply:?}");
        };
        assert!(matches!(err, StoreError::KeyNotFound(_)), "{err:?}");

        Frame::Shutdown.write_to(&mut conn).expect("shutdown");
        handle.join().expect("join").expect("serve ok");
    }

    /// A reply frame nesting 20 000 `QuorumUnreachable`s (100 058 bytes, built by hand)
    /// costs connection A its connection, not the server process: connection B is still
    /// served and `Shutdown` still joins.
    #[test]
    fn hostile_nesting_drops_one_connection_not_the_server() {
        let dc = DcId(0);
        let (addr, handle) = spawn_server_thread(dc).expect("spawn");
        let mut hostile = TcpStream::connect(addr).expect("connect A");
        let mut payload = vec![2u8]; // kind: Reply
        payload.extend_from_slice(&[0; 8 + 2 + 8 + 8 + 1 + 8]); // endpoint .. epoch
        payload.push(5); // ProtoReply::Error
        for _ in 0..20_000 {
            payload.extend_from_slice(&[3, 4, 0, 0, 0]); // QuorumUnreachable, attempts
        }
        payload.push(2); // QuorumTimeout
        payload.extend_from_slice(&[0; 16]);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        assert_eq!(frame.len(), 100_058);
        io::Write::write_all(&mut hostile, &frame).expect("send hostile frame");
        // The server drops the connection once it rejects the frame.
        assert!(!matches!(Frame::read_from(&mut hostile), Ok(Some(_))));

        let mut conn = TcpStream::connect(addr).expect("connect B");
        let config = Configuration::abd_majority(vec![dc, DcId(1), DcId(2)], 1);
        Frame::Control(ControlMsg::InstallKey {
            key: Key::from("k"),
            config: config.clone(),
            tag: Tag::INITIAL,
            payload: ReconfigPayload::Value(Value::from("v")),
        })
        .write_to(&mut conn)
        .expect("install");
        Frame::Request(Inbound {
            from: 7,
            msg_id: 0,
            phase: 1,
            key: Key::from("k"),
            epoch: config.epoch,
            msg: ProtoMsg::AbdReadQuery,
        })
        .write_to(&mut conn)
        .expect("query");
        let reply = Frame::read_from(&mut conn).expect("read").expect("not eof");
        let Frame::Reply { endpoint: 7, reply: ProtoReply::AbdTagValue { value, .. }, .. } = reply
        else {
            panic!("expected an AbdTagValue reply, got {reply:?}");
        };
        assert_eq!(value, Value::from("v"));

        Frame::Shutdown.write_to(&mut conn).expect("shutdown");
        handle.join().expect("join").expect("serve ok");
    }

    #[test]
    fn server_binary_is_discoverable_via_env_override() {
        std::env::set_var("LEGOSTORE_SERVER_BIN", "/tmp/somewhere/legostore-server");
        let found = find_server_binary().expect("env override always resolves");
        assert_eq!(found, std::path::Path::new("/tmp/somewhere/legostore-server"));
        std::env::remove_var("LEGOSTORE_SERVER_BIN");
    }
}
