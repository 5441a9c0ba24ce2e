//! The deployment's transport seam: how protocol messages travel between endpoints
//! (clients, the reconfiguration controller) and per-DC servers.
//!
//! Everything above this module — the client operation loops, the reconfiguration
//! controller, the cluster orchestration — talks only to the [`Transport`] trait. Two
//! implementations exist:
//!
//! * [`InProcTransport`] — the original runtime: every server is a locked
//!   [`RequestServer`] in this process, served on the sending thread. A reply to the
//!   request being served goes straight into the sending endpoint's delayed inbox. Only a
//!   deferred reply — one a `FinishReconfig` or an expired epoch lease flushes for a
//!   request parked earlier, possibly from another thread — travels on the parked
//!   endpoint's clocked crossbeam channel. Works under both clocks; under
//!   [`Clock::virtual_time`] the clocked channels count in-flight replies, which is the
//!   transport-side half of the virtual clock's quiescence rule (time only jumps when no
//!   thread is busy *and no message is in flight on the transport*). A reply buffered in
//!   place needs no such count: its arrival instant is in the inbox the owner waits on.
//! * [`TcpTransport`] — real length-prefixed frames (see [`legostore_proto::wire`]) over
//!   std `TcpStream`s to `legostore-server` processes (or in-process serve loops from
//!   the `legostore-server` crate). Socket delivery is invisible to the virtual clock's
//!   in-flight accounting, so this transport only supports [`Clock::real`];
//!   [`Cluster::connect_tcp`](crate::cluster::Cluster::connect_tcp) falls back to a real
//!   clock automatically.
//!
//! Both implementations share the same link policy: the cloud model's scaled
//! geo-latencies are imposed on the reply leg, and a deterministic
//! [`FaultPlan`] is interposed at exactly two points —
//! [`Transport::send_request`] (request leg) and the reply's entry into its
//! [`Endpoint`]'s delayed inbox (reply leg). `Endpoint::recv` is the one wait: it
//! returns replies in modeled-arrival order. Because the verdicts are drawn on the client
//! side of the seam, the *same seeded plan* produces the same drop/duplicate/delay
//! schedule whether the request is served in-process or crosses a socket. (The simulator
//! draws the same `LinkVerdict`s from its own `FaultState` inside its single-threaded
//! event loop, on the same two legs.) In-process, the reply-leg verdict is drawn as the
//! request is served, at the same clock instant as the request-leg one.

use crate::clock::{Clock, ClockedReceiver, ClockedSender};
use crate::inbox::DelayedInbox;
use legostore_cloud::{CloudModel, METADATA_BYTES};
use legostore_obs::{Counter, MetricsSnapshot, Obs, ObsConfig};
use legostore_proto::server::{ControlMsg, Inbound, RequestServer, ServedReply};
use legostore_proto::wire::Frame;
use legostore_types::{DcId, FaultPlan, FaultState, LinkVerdict, StoreError, StoreResult};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Demux table mapping live endpoint ids to their reply queues (TCP transport only).
type ReplyRoutes = Arc<Mutex<HashMap<u64, ClockedSender<ServedReply>>>>;

/// Pending stats scrapes keyed by token (TCP transport only): the reader thread routes
/// each `StatsReply` frame to the scraping thread that sent the matching request.
type StatsWaiters = Arc<Mutex<HashMap<u64, std::sync::mpsc::Sender<(DcId, MetricsSnapshot)>>>>;

/// How long a [`Transport::fetch_stats`] scrape waits for the server's snapshot (TCP
/// transport only).
const STATS_TIMEOUT: Duration = Duration::from_secs(10);

/// A reply-receiving endpoint: one per operation attempt (and one per reconfiguration),
/// and the one place where a reply waits for its modeled arrival.
///
/// Every reply addressed to the endpoint enters its delayed inbox through
/// `Endpoint::arrive`, which draws the reply-leg fault verdict and stamps the modeled
/// arrival instant for a consumer at the endpoint's data center. The in-process transport
/// calls it for the replies to a request it serves on the owning thread; everything else
/// (replies read off a socket, deferred replies flushed by another thread) crosses a
/// clocked channel and is buffered as `Endpoint::recv` takes it off.
///
/// Dropping the endpoint closes its channel (draining stragglers, releasing any virtual
/// clock in-flight counts) and, on transports with an explicit routing table, removes its
/// route — so replies to finished attempts are discarded at the source.
pub struct Endpoint {
    id: u64,
    /// The data center that consumes the replies (the delay is modeled from there).
    at: DcId,
    links: Arc<LinkPolicy>,
    tx: ClockedSender<ServedReply>,
    rx: ClockedReceiver<ServedReply>,
    /// Replies buffered until their modeled arrival instant.
    inbox: RefCell<DelayedInbox<ServedReply>>,
    /// TCP demux table this endpoint is registered in, if any (an in-process server keeps
    /// a parked request's reply sender instead).
    registry: Option<ReplyRoutes>,
}

impl Endpoint {
    fn new(id: u64, at: DcId, links: &Arc<LinkPolicy>, registry: Option<ReplyRoutes>) -> Self {
        let (tx, rx) = links.clock.channel();
        if let Some(routes) = &registry {
            routes.lock().insert(id, tx.clone());
        }
        let (links, inbox) = (links.clone(), RefCell::default());
        Endpoint { id, at, links, tx, rx, inbox, registry }
    }

    /// The endpoint id carried in [`Inbound::from`] and echoed in replies.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The fault-interposition point of the reply leg: a faulted link drops the reply
    /// (the client only notices via its attempt timeout), a slow or lossy link defers it
    /// past the fault-free arrival instant, and a duplicating link buffers it twice (the
    /// protocol quorum trackers dedupe responders by DC, so duplicates are harmless).
    fn arrive(&self, env: ServedReply) {
        let (links, at) = (&*self.links, self.at);
        let Some((copies, extra_ms)) = links.verdict(env.from, at).deliveries() else {
            if links.obs.enabled() {
                links.drops_reply.inc();
                links.obs.flight().record(
                    links.clock.now_ns(),
                    env.endpoint,
                    format!("fault verdict dropped reply {} -> {at} (phase {})", env.from, env.phase),
                );
            }
            return;
        };
        let bytes = env.reply.wire_size(METADATA_BYTES);
        let delay = reply_delay(&links.model, links.latency_scale, at, env.from, bytes)
            + Duration::from_secs_f64(extra_ms * links.latency_scale / 1000.0);
        let mut inbox = self.inbox.borrow_mut();
        for _ in 1..copies {
            inbox.push(env.sent_at_ns, delay, env.clone());
        }
        inbox.push(env.sent_at_ns, delay, env);
    }

    /// The next reply in modeled-arrival order, waiting on the clock for it; `None` once
    /// `deadline_ns` ([`Clock::now_ns`] domain) has passed with no reply due by then (a
    /// reply due by the deadline wins over the timeout). The wait is a channel receive
    /// bounded by the earlier of the inbox's head and the deadline, so replies that cross
    /// the channel keep being buffered while it waits.
    pub(crate) fn recv(&self, deadline_ns: u64) -> Option<ServedReply> {
        let clock = &self.links.clock;
        loop {
            let mut inbox = self.inbox.borrow_mut();
            if let Some(env) = inbox.pop_ready(clock.now_ns()) {
                return Some(env);
            }
            if clock.now_ns() >= deadline_ns {
                return None;
            }
            let wake_ns = inbox.next_available_at().map_or(deadline_ns, |t| t.min(deadline_ns));
            drop(inbox);
            if let Ok(env) = self.rx.recv_deadline_ns(wake_ns) {
                self.arrive(env);
            }
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if let Some(registry) = &self.registry {
            registry.lock().remove(&self.id);
        }
    }
}

/// How messages are delivered between this process's endpoints and the per-DC servers.
///
/// Implementations must be cheap to call from many client threads concurrently. The fault
/// interposition contract: `send_request` draws the request-leg verdict and the endpoint
/// draws the reply-leg verdict as a reply enters its inbox; a transport must not apply
/// faults anywhere else, so that one seeded [`FaultPlan`] produces the same schedule on
/// every transport.
pub trait Transport: Send + Sync {
    /// Opens a fresh reply endpoint with a transport-unique id, for a consumer at `at`.
    fn open_endpoint(&self, at: DcId) -> Endpoint;

    /// Sends one protocol request from `endpoint`'s data center to the server at `to`,
    /// with replies routed to `endpoint`. A fault-dropped request returns `Ok(())` — the
    /// network gives no failure signal; the client only notices via its attempt timeout.
    /// Over TCP, a failed write to a known peer (its server exited) is dropped the same
    /// way.
    fn send_request(&self, to: DcId, endpoint: &Endpoint, inbound: Inbound) -> StoreResult<()>;

    /// Sends an out-of-band administration command to the server at `to`. Unknown
    /// destinations are ignored (best-effort, like the drivers' admin paths).
    fn control(&self, to: DcId, msg: ControlMsg) -> StoreResult<()>;

    /// Scrapes the telemetry snapshot of the server at `to`. In-process servers are read
    /// under their lock; socket servers answer with a `StatsReply` frame routed back by
    /// token. Scrapes bypass the fault plan — they are operator telemetry, not protocol
    /// traffic, and must work while the data plane is being faulted.
    fn fetch_stats(&self, to: DcId) -> StoreResult<MetricsSnapshot>;

    /// Shuts the transport down: in-process servers stop serving, socket peers get a
    /// `Shutdown` frame and their connections are closed. After it, in-process requests
    /// and scrapes fail with a transport error. Idempotent.
    fn shutdown(&self);
}

/// The modeled round trip a client at `client` waits before consuming a `reply_bytes`
/// reply from `from`: the RTT plus the reply's transfer time, scaled by `latency_scale`.
pub(crate) fn reply_delay(
    model: &CloudModel,
    latency_scale: f64,
    client: DcId,
    from: DcId,
    reply_bytes: u64,
) -> Duration {
    let ms = model.rtt_ms(client, from) + model.transfer_time_ms(from, client, reply_bytes);
    Duration::from_secs_f64(ms * latency_scale / 1000.0)
}

/// The delivery policy both deployment transports share: the cloud model's scaled
/// geo-latencies and the deterministic fault plan.
pub(crate) struct LinkPolicy {
    model: Arc<CloudModel>,
    latency_scale: f64,
    clock: Clock,
    /// Interpreter of the fault plan; `None` when the plan is empty so the fault-free
    /// message path takes no lock.
    faults: Option<Mutex<FaultState>>,
    /// Client-process telemetry handle (fault drops are observed on this side of the
    /// seam, where the verdicts are drawn).
    obs: Obs,
    drops_request: Arc<Counter>,
    drops_reply: Arc<Counter>,
}

impl LinkPolicy {
    pub(crate) fn new(
        model: Arc<CloudModel>,
        latency_scale: f64,
        clock: Clock,
        fault_plan: &FaultPlan,
        obs: Obs,
    ) -> Self {
        let faults = (!fault_plan.is_empty()).then(|| Mutex::new(FaultState::new(fault_plan)));
        let drops_request = obs.registry().counter("transport.drops.request");
        let drops_reply = obs.registry().counter("transport.drops.reply");
        LinkPolicy { model, latency_scale, clock, faults, obs, drops_request, drops_reply }
    }

    /// The clock reading converted to the fault plan's time domain (model milliseconds,
    /// i.e. clock time divided by `latency_scale`).
    fn model_now_ms(&self) -> f64 {
        self.clock.now_ns() as f64 / 1_000_000.0 / self.latency_scale
    }

    /// The fate of one message on the `from → to` link under the active fault plan.
    /// Fault events are applied lazily: everything scheduled at or before the current
    /// model instant takes effect before the verdict is drawn.
    fn verdict(&self, from: DcId, to: DcId) -> LinkVerdict {
        let Some(faults) = &self.faults else {
            return LinkVerdict::CLEAN;
        };
        let mut state = faults.lock();
        state.advance_to(self.model_now_ms());
        state.verdict(from, to)
    }

    /// Request-leg verdict plus drop accounting: both transports call this from
    /// `send_request` so a fault-dropped request shows up in the drop counter and the
    /// flight recorder even though the caller sees `Ok(())`.
    fn request_deliveries(&self, from: DcId, to: DcId) -> Option<(u32, f64)> {
        let deliveries = self.verdict(from, to).deliveries();
        if deliveries.is_none() && self.obs.enabled() {
            self.drops_request.inc();
            self.obs.flight().record(
                self.clock.now_ns(),
                0,
                format!("fault verdict dropped request {from} -> {to}"),
            );
        }
        deliveries
    }

    /// Drop accounting for a request whose write to a known peer failed (its server
    /// exited or reset the connection): a dead peer is a lossy link, not an error, so
    /// the caller sees `Ok(())` and the client notices only through its attempt timeout.
    fn request_lost(&self, from: DcId, to: DcId, err: &std::io::Error) {
        if self.obs.enabled() {
            self.drops_request.inc();
            self.obs.flight().record(
                self.clock.now_ns(),
                0,
                format!("write to {to} failed ({err}); dropped request {from} -> {to}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// One in-process data center: its [`RequestServer`], which keeps a parked request's
/// endpoint channel to route the deferred reply.
type InProcServer = RequestServer<ClockedSender<ServedReply>>;

/// The in-process runtime: one locked [`RequestServer`] per data center, served on the
/// sending thread.
pub struct InProcTransport {
    links: Arc<LinkPolicy>,
    servers: HashMap<DcId, Mutex<InProcServer>>,
    next_endpoint: AtomicU64,
    down: AtomicBool,
}

impl InProcTransport {
    /// Builds one server per data center, each with its own `Obs` at `obs` (per-DC
    /// registries, exactly like one per server process) and an epoch lease of
    /// `epoch_lease_ns`.
    pub(crate) fn new(
        links: LinkPolicy,
        dcs: impl IntoIterator<Item = DcId>,
        obs: ObsConfig,
        epoch_lease_ns: u64,
    ) -> Self {
        let servers = dcs
            .into_iter()
            .map(|dc| {
                let mut host = RequestServer::new(dc, Obs::new(obs));
                host.server.set_epoch_lease_ns(epoch_lease_ns);
                (dc, Mutex::new(host))
            })
            .collect();
        let (next_endpoint, down) = (AtomicU64::new(1), AtomicBool::new(false));
        InProcTransport { links: Arc::new(links), servers, next_endpoint, down }
    }

    /// The server at `to`, unless it is unknown or the transport has shut down.
    fn server(&self, to: DcId) -> StoreResult<&Mutex<InProcServer>> {
        let server = self
            .servers
            .get(&to)
            .ok_or_else(|| StoreError::Transport(format!("unknown data center {to}")))?;
        if self.down.load(Ordering::Acquire) {
            return Err(StoreError::Transport(format!("server {to} has shut down")));
        }
        Ok(server)
    }
}

impl Transport for InProcTransport {
    fn open_endpoint(&self, at: DcId) -> Endpoint {
        Endpoint::new(self.next_endpoint.fetch_add(1, Ordering::Relaxed), at, &self.links, None)
    }

    /// Serves the request on the calling thread, under the destination's lock, at the
    /// send's clock instant (every sender holds a [`Clock::enter`] guard, so a virtual
    /// clock cannot advance while it serves).
    ///
    /// The reply to the request enters `endpoint`'s inbox on the spot, through
    /// `Endpoint::arrive`: no clock lock, no in-flight count. Only a parked request gives
    /// the server `endpoint`'s clocked sender, and a deferred reply that this request
    /// flushes for another endpoint goes into that endpoint's clocked channel. Either way
    /// the reply keeps its `sent_at_ns`, so the modeled reply leg is untouched. Lock order:
    /// a server's lock, then the fault state's or the clock's (inside a deferred reply's
    /// send), never the reverse.
    ///
    /// Telemetry: byte counters use the *modeled* wire sizes (the same
    /// `wire_size(METADATA_BYTES)` the latency model charges for), and dispatch time comes
    /// off the deployment clock — so under a virtual clock, durations are the modeled ones
    /// (deterministically 0 for compute, since the serving thread pins virtual time) and
    /// two identical runs snapshot identically.
    fn send_request(&self, to: DcId, endpoint: &Endpoint, inbound: Inbound) -> StoreResult<()> {
        let Some((copies, _)) = self.links.request_deliveries(endpoint.at, to) else {
            return Ok(());
        };
        let (clock, bytes_in) = (&self.links.clock, inbound.msg.wire_size(METADATA_BYTES));
        let mut host = self.server(to)?.lock();
        let mut serve = |inbound| {
            let parked = || endpoint.tx.clone();
            host.serve(parked, inbound, bytes_in, || clock.now_ns(), |route, r| {
                let bytes = r.reply.wire_size(METADATA_BYTES);
                match route {
                    None => endpoint.arrive(r),
                    Some(tx) => tx.send(r).ok()?,
                }
                Some(bytes)
            })
        };
        for _ in 1..copies {
            serve(inbound.clone());
        }
        serve(inbound);
        Ok(())
    }

    fn control(&self, to: DcId, msg: ControlMsg) -> StoreResult<()> {
        if let Ok(server) = self.server(to) {
            server.lock().server.apply_control(msg);
        }
        Ok(())
    }

    fn fetch_stats(&self, to: DcId) -> StoreResult<MetricsSnapshot> {
        Ok(self.server(to)?.lock().stats())
    }

    fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// How long [`TcpTransport::connect`] keeps retrying a refused connection before giving
/// up (servers may still be binding their listeners when the client starts).
const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);

/// Real sockets: one `TcpStream` per data center, length-prefixed
/// [`Frame`]s on the wire, and a per-process reader thread per connection that demuxes
/// replies to endpoints through a routing table.
pub struct TcpTransport {
    links: Arc<LinkPolicy>,
    /// Write halves, locked per-peer so concurrent clients interleave whole frames.
    peers: HashMap<DcId, Mutex<TcpStream>>,
    /// endpoint id → reply channel (the demux table reader threads route through).
    routes: ReplyRoutes,
    /// stats token → waiting scraper (see [`StatsWaiters`]).
    stats_waiters: StatsWaiters,
    next_endpoint: AtomicU64,
    next_stats_token: AtomicU64,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    down: AtomicBool,
}

impl TcpTransport {
    /// Connects to one server per data center. Refused connections are retried for a few
    /// seconds (the servers may still be starting); other errors fail fast.
    ///
    /// The clock must be real: socket delivery is invisible to a virtual clock's
    /// in-flight accounting, so a virtual-time TCP deployment would deadlock its
    /// quiescence rule.
    pub(crate) fn connect(
        links: LinkPolicy,
        addrs: &HashMap<DcId, SocketAddr>,
    ) -> StoreResult<Self> {
        if links.clock.is_virtual() {
            return Err(StoreError::Transport(
                "the TCP transport requires a real clock (no in-flight accounting on sockets)"
                    .into(),
            ));
        }
        let routes: ReplyRoutes =
            Arc::new(Mutex::new(HashMap::new()));
        let stats_waiters: StatsWaiters = Arc::new(Mutex::new(HashMap::new()));
        let mut peers = HashMap::new();
        let mut readers = Vec::new();
        for (&dc, &addr) in addrs {
            let stream = connect_with_retry(addr)?;
            stream.set_nodelay(true).map_err(transport_err)?;
            let reader_stream = stream.try_clone().map_err(transport_err)?;
            let routes = routes.clone();
            let waiters = stats_waiters.clone();
            let clock = links.clock.clone();
            let handle = std::thread::Builder::new()
                .name(format!("legostore-tcp-reader-{dc}"))
                .spawn(move || reader_loop(reader_stream, routes, waiters, clock))
                .map_err(transport_err)?;
            readers.push(handle);
            peers.insert(dc, Mutex::new(stream));
        }
        // Endpoint ids must be unique per *server*, and several OS processes share one
        // server over independent transports — seed the counter with this process's pid so
        // two drivers' endpoints cannot collide in a server's routing table.
        let seed = ((std::process::id() as u64) << 32) | 1;
        Ok(TcpTransport {
            links: Arc::new(links),
            peers,
            routes,
            stats_waiters,
            next_endpoint: AtomicU64::new(seed),
            next_stats_token: AtomicU64::new(seed),
            readers: Mutex::new(readers),
            down: AtomicBool::new(false),
        })
    }

    fn peer(&self, to: DcId) -> StoreResult<&Mutex<TcpStream>> {
        self.peers
            .get(&to)
            .ok_or_else(|| StoreError::Transport(format!("unknown data center {to}")))
    }

    fn write_frame(&self, to: DcId, frame: &Frame) -> StoreResult<()> {
        let bytes = frame.encode();
        self.peer(to)?.lock().write_all(&bytes).map_err(transport_err)
    }
}

fn transport_err(e: impl std::fmt::Display) -> StoreError {
    StoreError::Transport(e.to_string())
}

fn connect_with_retry(addr: SocketAddr) -> StoreResult<TcpStream> {
    let start = std::time::Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if start.elapsed() < CONNECT_RETRY_WINDOW => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                return Err(StoreError::Transport(format!("connect {addr}: {e}")));
            }
        }
    }
}

/// Per-connection reader: parses frames off the socket and routes replies to endpoints.
/// Exits on EOF (server closed), on a wire error, or when our side shuts the socket down.
fn reader_loop(
    mut stream: TcpStream,
    routes: ReplyRoutes,
    stats_waiters: StatsWaiters,
    clock: Clock,
) {
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Reply { endpoint, from, service_ns, phase, epoch, reply, .. })) => {
                let Some(route) = routes.lock().get(&endpoint).cloned() else {
                    continue; // the attempt already finished; discard the straggler
                };
                // Re-stamp the arrival instant with our clock (the server's clock is
                // another process's); `service_ns` is a duration, so it survives the
                // process boundary untouched.
                let _ = route.send(ServedReply {
                    endpoint,
                    from,
                    sent_at_ns: clock.now_ns(),
                    service_ns,
                    phase,
                    epoch,
                    reply,
                });
            }
            Ok(Some(Frame::StatsReply { token, dc, snapshot })) => {
                if let Some(waiter) = stats_waiters.lock().remove(&token) {
                    let _ = waiter.send((dc, snapshot));
                }
            }
            Ok(Some(_)) => {} // servers send nothing else; ignore anything unexpected
            Ok(None) | Err(_) => return,
        }
    }
}

impl Transport for TcpTransport {
    fn open_endpoint(&self, at: DcId) -> Endpoint {
        let id = self.next_endpoint.fetch_add(1, Ordering::Relaxed);
        Endpoint::new(id, at, &self.links, Some(self.routes.clone()))
    }

    fn send_request(&self, to: DcId, endpoint: &Endpoint, inbound: Inbound) -> StoreResult<()> {
        // Request-leg fault verdict, drawn on this side of the socket so the same seeded
        // plan drives both transports identically.
        let Some((copies, _)) = self.links.request_deliveries(endpoint.at, to) else {
            return Ok(());
        };
        let peer = self.peer(to)?;
        // Encoded once, outside the lock: duplicate copies resend the same bytes.
        let bytes = Frame::Request(inbound).encode();
        for _ in 0..copies {
            if let Err(e) = peer.lock().write_all(&bytes) {
                self.links.request_lost(endpoint.at, to, &e);
                break;
            }
        }
        Ok(())
    }

    fn control(&self, to: DcId, msg: ControlMsg) -> StoreResult<()> {
        if !self.peers.contains_key(&to) {
            return Ok(());
        }
        self.write_frame(to, &Frame::Control(msg))
    }

    fn fetch_stats(&self, to: DcId) -> StoreResult<MetricsSnapshot> {
        let token = self.next_stats_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        self.stats_waiters.lock().insert(token, tx);
        if let Err(e) = self.write_frame(to, &Frame::StatsRequest { token }) {
            self.stats_waiters.lock().remove(&token);
            return Err(e);
        }
        match rx.recv_timeout(STATS_TIMEOUT) {
            Ok((_dc, snapshot)) => Ok(snapshot),
            Err(_) => {
                self.stats_waiters.lock().remove(&token);
                Err(StoreError::Transport(format!("stats scrape of {to} timed out")))
            }
        }
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        for (dc, peer) in &self.peers {
            let _ = dc;
            let mut stream = peer.lock();
            let _ = Frame::Shutdown.write_to(&mut *stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in self.readers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_cloud::CloudModelBuilder;
    use legostore_proto::msg::ProtoReply;
    use legostore_types::{ConfigEpoch, Tag};
    use std::time::Instant;

    const MS: u64 = 1_000_000;

    /// An endpoint at the one DC of a uniform model, on `clock`, with no fault plan.
    fn endpoint(clock: &Clock) -> Endpoint {
        let model = Arc::new(CloudModelBuilder::uniform(1).build());
        let links = LinkPolicy::new(model, 1.0, clock.clone(), &FaultPlan::none(), Obs::new(ObsConfig::Off));
        Endpoint::new(1, DcId(0), &Arc::new(links), None)
    }

    /// A reply labelled `label` (in its phase byte), handed over at `sent_at_ns`.
    fn reply(label: u8, sent_at_ns: u64) -> ServedReply {
        let (epoch, reply) = (ConfigEpoch::INITIAL, ProtoReply::TagOnly { tag: Tag::INITIAL });
        ServedReply { endpoint: 1, from: DcId(0), sent_at_ns, service_ns: 0, phase: label, epoch, reply }
    }

    /// The modeled reply leg of every [`reply`].
    fn leg_ns(endpoint: &Endpoint) -> u64 {
        let bytes = reply(0, 0).reply.wire_size(METADATA_BYTES);
        reply_delay(&endpoint.links.model, 1.0, DcId(0), DcId(0), bytes).as_nanos() as u64
    }

    #[test]
    fn replies_come_out_in_modelled_arrival_order() {
        let clock = Clock::virtual_time();
        let endpoint = endpoint(&clock);
        for (label, sent_ms) in [(3, 30), (1, 1), (2, 10)] {
            endpoint.arrive(reply(label, sent_ms * MS));
        }
        let deadline = 1_000 * MS;
        let got: Vec<_> =
            std::iter::from_fn(|| endpoint.recv(deadline)).map(|r| (r.phase, clock.now_ns())).collect();
        let leg = leg_ns(&endpoint);
        assert_eq!(got, [(1, MS + leg), (2, 10 * MS + leg), (3, 30 * MS + leg)]);
        assert_eq!(clock.now_ns(), deadline, "then the deadline passed with nothing due");
    }

    #[test]
    fn a_missed_deadline_does_not_advance_a_virtual_clock() {
        let clock = Clock::virtual_time();
        let endpoint = endpoint(&clock);
        clock.sleep_until_ns(5 * MS);
        endpoint.arrive(reply(1, 60_000 * MS));
        assert!(endpoint.recv(5 * MS).is_none());
        assert_eq!(clock.now_ns(), 5 * MS, "a deadline already reached does not move the clock");
        assert!(endpoint.recv(6 * MS).is_none());
        assert_eq!(clock.now_ns(), 6 * MS, "the wait stops at the deadline, not at the reply");
        assert_eq!(endpoint.recv(u64::MAX).map(|r| r.phase), Some(1), "the reply stays buffered");
        assert_eq!(clock.now_ns(), 60_000 * MS + leg_ns(&endpoint));
    }

    #[test]
    fn a_real_clock_wait_really_waits() {
        let clock = Clock::real();
        let endpoint = endpoint(&clock);
        let (wall, t0) = (Instant::now(), clock.now_ns());
        endpoint.arrive(reply(7, t0 + 20 * MS));
        assert_eq!(endpoint.recv(t0 + 1_000 * MS).map(|r| r.phase), Some(7));
        assert!(wall.elapsed() >= Duration::from_millis(20), "{:?}", wall.elapsed());
    }

    /// Replies answered in place enter the inbox at once; deferred ones cross the channel
    /// from another thread and enter it as `recv` takes them. Arrival instants decide.
    #[test]
    fn answered_and_deferred_replies_interleave_by_arrival() {
        let clock = Clock::virtual_time();
        let endpoint = endpoint(&clock);
        endpoint.arrive(reply(2, 10 * MS));
        endpoint.arrive(reply(4, 20 * MS));
        let tx = endpoint.tx.clone();
        std::thread::spawn(move || {
            tx.send(reply(3, 15 * MS)).unwrap();
            tx.send(reply(1, 5 * MS)).unwrap();
        })
        .join()
        .unwrap();
        let order: Vec<u8> = std::iter::from_fn(|| endpoint.recv(1_000 * MS)).map(|r| r.phase).collect();
        assert_eq!(order, [1, 2, 3, 4]);
    }
}
