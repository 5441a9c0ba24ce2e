//! A standalone LEGOStore per-DC server speaking the wire protocol of
//! [`legostore_proto::wire`] over real TCP sockets.
//!
//! The in-process deployment (`legostore-core`) serves every data center's
//! [`RequestServer`] on the sending thread, under a per-DC lock. This crate hosts the
//! *same* [`RequestServer`] (and the
//! `DcServer` inside it) behind a `TcpListener` instead, so a cluster can run as one OS
//! process per data center, exchanging real bytes — the `legostore-server` binary is a
//! thin CLI over [`serve`], and `Cluster::connect_tcp` on the client side completes the
//! pair.
//!
//! The server is deliberately simple: one thread per connection, every one serving the
//! same per-DC state under one lock (the one-request-at-a-time model the protocol code was
//! written against). A connection thread decodes a frame off its socket, locks the state,
//! serves the frame and writes the replies, then unlocks: no thread hand-off lies between
//! a request's bytes and its reply's. A reply to the request being served goes back on
//! the connection it arrived on. A request parked behind a reconfiguration leaves its
//! connection as the endpoint's route, exactly like the in-process server keeps a parked
//! request's reply channel — so a deferred reply flushed by a `FinishReconfig` can leave
//! on another connection than the one being served. A
//! `Shutdown` frame from any connection stops the server — deployments that outlive their
//! drivers can simply not send one.

#![warn(missing_docs)]

use legostore_obs::{Gauge, Obs, ObsConfig};
use legostore_proto::server::RequestServer;
use legostore_proto::wire::Frame;
use legostore_types::DcId;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// The per-DC state every connection thread serves under the one lock.
struct State {
    host: RequestServer<u64>,
    /// Write halves of the registered connections; replies route by connection id.
    conns: HashMap<u64, TcpStream>,
    /// Set by a `Shutdown` frame; no connection is registered or served after it.
    stop: bool,
}

/// What [`serve`] and its connection threads share.
struct Shared {
    state: Mutex<State>,
    /// Connection threads holding or waiting for `state`, and the peak of that count.
    contending: AtomicU64,
    contending_max: Arc<Gauge>,
    /// Reply timestamps are process-local nanoseconds since this instant; receivers
    /// re-stamp on arrival (cross-process clocks are not comparable).
    epoch: Instant,
    /// The listener's own address: a `Shutdown` connects to it to unblock `accept`.
    local: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a connection thread panicked while serving")
    }
}

/// Runs a LEGOStore data-center server on `listener` until a client sends a `Shutdown`
/// frame, which closes every connection; returns once every connection thread is joined.
///
/// The calling thread only accepts. Each connection thread serves frames one at a time
/// under the per-DC lock, and every write happens under it, so frames never interleave on
/// a socket. The bounded routing table, the dispatch and the telemetry are
/// [`RequestServer`]'s, shared with the in-process deployment.
pub fn serve(dc: DcId, listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    // A standalone server always keeps at least metric counting on: it is per-process
    // state a remote driver can only see through a stats scrape, and the cost is a few
    // atomic adds per request. `LEGOSTORE_TRACE=1` raises the level further.
    let obs = Obs::new(match ObsConfig::from_env() {
        ObsConfig::Off => ObsConfig::Metrics,
        level => level,
    });
    let mut host: RequestServer<u64> = RequestServer::new(dc, obs);
    // Epoch-lease expiry runs on the same process-local clock as the reply timestamps.
    // Disabled unless configured: a standalone server has no deployment-wide op timeout
    // to derive a default from, so the driver (or operator) must opt in.
    if let Some(ms) = std::env::var("LEGOSTORE_EPOCH_LEASE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        host.server.set_epoch_lease_ns(ms.saturating_mul(1_000_000));
    }
    let shared = Arc::new(Shared {
        contending: AtomicU64::new(0),
        contending_max: host.metrics().queue_depth_max.clone(),
        state: Mutex::new(State { host, conns: HashMap::new(), stop: false }),
        epoch: Instant::now(),
        local,
    });

    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, conn) in (1u64..).zip(listener.incoming()) {
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else { continue };
        // Registered under the lock that holds the stop flag: a connection racing a
        // `Shutdown` is either closed by it or never served, so every thread spawned
        // here is one the shutdown unblocks.
        {
            let mut state = shared.lock();
            if state.stop {
                break;
            }
            state.conns.insert(id, write_half);
        }
        // Exited connection threads are let go, so their stacks do not pile up.
        threads.retain(|t| !t.is_finished());
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("legostore-conn-{id}"))
            .spawn(move || serve_connection(id, stream, &conn_shared));
        match spawned {
            Ok(t) => threads.push(t),
            Err(_) => shared.lock().drop_conn(id),
        }
    }
    for t in threads {
        let _ = t.join();
    }
    Ok(())
}

/// Serves connection `id` until EOF, a wire error or shutdown, one frame at a time under
/// the state lock.
fn serve_connection(id: u64, mut stream: TcpStream, shared: &Shared) {
    while let Ok(Some((frame, wire_bytes))) = Frame::read_from_counted(&mut stream) {
        shared.contending_max.maximize(shared.contending.fetch_add(1, Ordering::Relaxed) + 1);
        let mut state = shared.lock();
        let shutdown = !state.stop && matches!(frame, Frame::Shutdown);
        if !state.stop {
            state.serve_frame(id, frame, wire_bytes, shared);
        }
        drop(state);
        shared.contending.fetch_sub(1, Ordering::Relaxed);
        if shutdown {
            // Unblocks `accept`. Outside the lock: `serve` takes it to register what it
            // accepts.
            let _ = TcpStream::connect(shared.local);
        }
    }
    shared.lock().drop_conn(id);
}

impl State {
    /// Serves one frame that arrived on connection `id` as `wire_bytes` bytes.
    fn serve_frame(&mut self, id: u64, frame: Frame, wire_bytes: u64, shared: &Shared) {
        match frame {
            Frame::Shutdown => {
                self.stop = true;
                for stream in self.conns.values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
            Frame::Control(ctrl) => self.host.server.apply_control(ctrl),
            Frame::StatsRequest { token } => {
                // Answered on the connection the scrape arrived on (stats frames bypass
                // the endpoint routing table).
                let (dc, snapshot) = (self.host.server.dc(), self.host.stats());
                let frame = Frame::StatsReply { token, dc, snapshot };
                if let Some(stream) = self.conns.get_mut(&id) {
                    let _ = frame.write_to(stream);
                }
            }
            Frame::Request(inbound) => {
                let now_ns = || shared.epoch.elapsed().as_nanos() as u64;
                let State { host, conns, .. } = self;
                let mut failed = Vec::new();
                host.serve(|| id, inbound, wire_bytes, now_ns, |route, r| {
                    let conn = route.copied().unwrap_or(id);
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
                    if conns.get_mut(&conn)?.write_all(&bytes).is_err() {
                        failed.push(conn);
                        return None;
                    }
                    Some(bytes.len() as u64)
                });
                for conn in failed {
                    self.drop_conn(conn);
                }
            }
            Frame::Reply { .. } | Frame::StatsReply { .. } => {} // clients never send these
        }
    }

    /// Closes connection `id` (its thread then reads EOF) and forgets its routes.
    fn drop_conn(&mut self, id: u64) {
        if let Some(stream) = self.conns.remove(&id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.host.forget_routes(|conn| *conn == id);
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
