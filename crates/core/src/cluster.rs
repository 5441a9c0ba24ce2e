//! The deployment: per-DC servers, the metadata service and the reconfiguration
//! controller, all behind the [`Transport`] seam.
//!
//! [`Cluster::new`] is the in-process runtime (one locked server per data center, served
//! on the sending thread, which puts the reply straight into its endpoint's delayed inbox;
//! only a reply deferred by a reconfiguration crosses a clocked channel).
//! [`Cluster::connect_tcp`] is the same deployment over real sockets: the servers are
//! `legostore-server` processes (or threads) elsewhere, and every protocol message crosses
//! the wire as a length-prefixed frame. Clients, the metadata service and the
//! reconfiguration controller are identical in both cases — they only see the
//! [`Transport`] trait, and wait for replies in an [`Endpoint`](crate::Endpoint)'s `recv`.

use crate::clock::Clock;
use crate::transport::{InProcTransport, LinkPolicy, TcpTransport, Transport};
use legostore_cloud::CloudModel;
use legostore_lincheck::HistoryRecorder;
use legostore_obs::{ClientMetrics, MetricsSnapshot, Obs, ObsConfig};
use legostore_proto::reconfig::{ReconfigDriver, ReconfigStep};
use legostore_proto::server::{ControlMsg, DcServer, Inbound};
use legostore_types::{
    Configuration, DcId, FaultPlan, Key, StoreError, StoreResult, Tag, Value,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Duration;

/// Fault tolerance `f` of the configuration CREATE uses when none is given.
const DEFAULT_FAULT_TOLERANCE: usize = 1;

/// Tunables of a deployment.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Factor applied to the cloud model's RTTs before sleeping (1.0 = real geo latencies;
    /// tests use a small fraction so a 300 ms RTT becomes a few ms).
    pub latency_scale: f64,
    /// Per-attempt operation timeout in *scaled* clock time.
    pub op_timeout: Duration,
    /// Maximum operation attempts (initial + retries) before giving up.
    pub max_attempts: u32,
    /// Data center hosting the reconfiguration controller and authoritative metadata.
    pub controller_dc: DcId,
    /// Time source shared by every component of the deployment. Defaults to real
    /// (wall-clock) time; [`Clock::virtual_time`] runs the same protocols on logical time,
    /// collapsing modeled RTT waits to microseconds and making timestamps deterministic.
    /// Only transports that support the virtual clock's in-flight accounting can run on
    /// virtual time — [`Cluster::connect_tcp`] falls back to a real clock.
    pub clock: Clock,
    /// Deterministic fault schedule injected at the deployment's transport layer (see
    /// [`legostore_types::fault`]). Event times are model milliseconds, scaled by
    /// [`ClusterOptions::latency_scale`] exactly like the cloud model's RTTs. The default
    /// empty plan injects nothing and costs nothing on the message path. The same plan
    /// drives both transports: verdicts are drawn on the client side of the seam, whether
    /// the message then crosses a channel or a socket.
    pub fault_plan: FaultPlan,
    /// Telemetry level (see [`ObsConfig`]). Defaults to [`ObsConfig::from_env`], so
    /// `LEGOSTORE_OBS=1` / `LEGOSTORE_TRACE=1` light up any deployment without a code
    /// change; `Off` costs one relaxed atomic load per would-be instrumentation point.
    pub obs: ObsConfig,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            latency_scale: 0.05,
            op_timeout: Duration::from_millis(500),
            max_attempts: 4,
            controller_dc: DcId(7),
            clock: Clock::real(),
            fault_plan: FaultPlan::none(),
            obs: ObsConfig::from_env(),
        }
    }
}

pub(crate) struct ClusterInner {
    pub(crate) model: Arc<CloudModel>,
    pub(crate) options: ClusterOptions,
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) metadata: Mutex<HashMap<Key, Configuration>>,
    pub(crate) recorder: Arc<HistoryRecorder>,
    pub(crate) next_client_id: AtomicU32,
    /// Client-process telemetry (spans, flight recorder, transport drop counters). Every
    /// [`StoreClient`](crate::client::StoreClient) of this deployment feeds it; servers
    /// each have their own `Obs`, scraped through the transport.
    pub(crate) obs: Obs,
    /// Pre-resolved client metric handles (shared by all clients of the deployment).
    pub(crate) client_metrics: ClientMetrics,
}

impl ClusterInner {
    /// The deployment's shared time source.
    pub(crate) fn clock(&self) -> &Clock {
        &self.options.clock
    }

    /// Nanoseconds since the clock's epoch (used as linearizability-check timestamps).
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock().now_ns()
    }

    /// The client side of a deployment: the link policy, the transport `connect` builds
    /// on it, the metadata service and the client telemetry.
    fn assemble<T: Transport + 'static>(
        model: CloudModel,
        options: ClusterOptions,
        connect: impl FnOnce(LinkPolicy) -> StoreResult<T>,
    ) -> StoreResult<Arc<ClusterInner>> {
        let model = Arc::new(model);
        let obs = Obs::new(options.obs);
        let links = LinkPolicy::new(
            model.clone(),
            options.latency_scale,
            options.clock.clone(),
            &options.fault_plan,
            obs.clone(),
        );
        let transport = Arc::new(connect(links)?);
        let client_metrics = ClientMetrics::new(&obs);
        Ok(Arc::new(ClusterInner {
            model,
            options,
            transport,
            metadata: Mutex::new(HashMap::new()),
            recorder: Arc::new(HistoryRecorder::new()),
            next_client_id: AtomicU32::new(1),
            obs,
            client_metrics,
        }))
    }

    pub(crate) fn control(&self, to: DcId, msg: ControlMsg) {
        let _ = self.transport.control(to, msg);
    }

    /// See [`Cluster::default_config`].
    pub(crate) fn default_config(&self, near: DcId) -> Configuration {
        let f = DEFAULT_FAULT_TOLERANCE;
        let dcs = self.model.nearest_dcs(near).into_iter().take(2 * f + 1).collect();
        Configuration::abd_majority(dcs, f)
    }
}

/// One [`Cluster::stats`] scrape: the client-process metrics snapshot plus one snapshot
/// per data-center server, fetched through the transport (read under the in-process
/// server's lock, or the `StatsRequest`/`StatsReply` wire frames — the same call works
/// against a 6-process TCP deployment).
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Client-side metrics: operation spans, retries, transport fault drops.
    pub client: MetricsSnapshot,
    /// Per-DC server metrics, keyed by data center.
    pub servers: BTreeMap<DcId, MetricsSnapshot>,
}

/// A LEGOStore deployment (in-process or over TCP).
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Builds one in-process server per data center of `model`. No thread is spawned:
    /// each request is served on the thread that sends it, under its server's lock.
    ///
    /// A server keeps a key's requests parked for a reconfiguration whose
    /// `FinishReconfig` never arrives for an epoch lease of 16 × `op_timeout` before it
    /// re-activates the old epoch and drains them there (see `DcServer::expire_leases`):
    /// twice the controller's own 8 × `op_timeout` deadline, so a live controller always
    /// finishes or stalls out before any server gives up on it, and a lease expiry implies
    /// the controller is gone and the metadata service never published the new
    /// configuration.
    pub fn new(model: CloudModel, options: ClusterOptions) -> Cluster {
        let dcs = model.dc_ids();
        let lease = options.op_timeout * (2 * ReconfigDriver::DEADLINE_TIMEOUTS) as u32;
        let (obs, epoch_lease_ns) = (options.obs, lease.as_nanos() as u64);
        let inner = ClusterInner::assemble(model, options, |links| {
            Ok(InProcTransport::new(links, dcs, obs, epoch_lease_ns))
        })
        .expect("the in-process transport cannot fail to build");
        Cluster { inner }
    }

    /// Connects to an already-running deployment: one `legostore-server` (process or
    /// thread) per data center of `model`, listening at `addrs`.
    ///
    /// The servers exchange real bytes with this process — length-prefixed frames from
    /// [`legostore_proto::wire`] — so a 6-DC cluster can run as 6 OS processes. Socket
    /// delivery is invisible to a virtual clock's in-flight accounting, so if
    /// `options.clock` is virtual it is silently replaced with [`Clock::real`] (the
    /// returned cluster's [`Cluster::options`] show the clock actually in use). Modeled
    /// geo-latencies and the fault plan still apply: both are imposed on this side of the
    /// socket, additively with the real loopback/network delay.
    ///
    /// Fails if some server cannot be reached (refused connections are retried for a few
    /// seconds to tolerate servers that are still starting).
    pub fn connect_tcp(
        model: CloudModel,
        mut options: ClusterOptions,
        addrs: &HashMap<DcId, SocketAddr>,
    ) -> StoreResult<Cluster> {
        if options.clock.is_virtual() {
            options.clock = Clock::real();
        }
        for dc in model.dc_ids() {
            if !addrs.contains_key(&dc) {
                return Err(StoreError::Transport(format!("no server address for {dc}")));
            }
        }
        let inner = ClusterInner::assemble(model, options, |links| TcpTransport::connect(links, addrs))?;
        Ok(Cluster { inner })
    }

    /// Spawns a deployment over the paper's nine GCP data centers with default options.
    pub fn gcp9(options: ClusterOptions) -> Cluster {
        Cluster::new(CloudModel::gcp9(), options)
    }

    /// The cloud model this deployment spans.
    pub fn model(&self) -> &CloudModel {
        &self.inner.model
    }

    /// The options the deployment was built with.
    pub fn options(&self) -> &ClusterOptions {
        &self.inner.options
    }

    /// A client bound to data center `dc` (the paper's "client" component that the user
    /// library talks to; users pick the nearest DC).
    pub fn client(&self, dc: DcId) -> crate::client::StoreClient {
        crate::client::StoreClient::new(self.inner.clone(), dc)
    }

    /// The shared operation-history recorder (for linearizability checking).
    pub fn recorder(&self) -> Arc<HistoryRecorder> {
        self.inner.recorder.clone()
    }

    /// The client-process telemetry handle: metrics registry, per-op records, and the
    /// fault flight recorder. Inert unless [`ClusterOptions::obs`] enables it.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Scrapes the full deployment: the local client snapshot plus every data-center
    /// server's snapshot through the transport. Works identically for in-process
    /// servers (read under their lock) and multi-process TCP servers (stats frames).
    pub fn stats(&self) -> StoreResult<ClusterStats> {
        let mut servers = BTreeMap::new();
        for dc in self.inner.model.dc_ids() {
            servers.insert(dc, self.inner.transport.fetch_stats(dc)?);
        }
        Ok(ClusterStats { client: self.inner.obs.snapshot(), servers })
    }

    /// The authoritative configuration of `key`, if it exists.
    pub fn metadata_config(&self, key: &Key) -> Option<Configuration> {
        self.inner.metadata.lock().get(key).cloned()
    }

    /// Marks a data center as failed: its server drops all traffic.
    pub fn fail_dc(&self, dc: DcId) {
        self.inner.control(dc, ControlMsg::SetFailed(true));
    }

    /// Runs CAS garbage collection on every server, keeping `keep_recent` old versions.
    pub fn garbage_collect(&self, keep_recent: usize) {
        for dc in self.inner.model.dc_ids() {
            self.inner.control(dc, ControlMsg::GarbageCollect(keep_recent));
        }
    }

    /// The default configuration CREATE uses when none is given: ABD with majority quorums
    /// over the `2f + 1` data centers nearest to the creating client (paper §3.1 footnote:
    /// "a default configuration uses the nearest DCs").
    pub fn default_config(&self, near: DcId) -> Configuration {
        self.inner.default_config(near)
    }

    /// Installs `key` with an explicit configuration and initial value, bypassing the
    /// networked CREATE path (used by experiments to set up many keys quickly).
    pub fn install_key(&self, key: impl Into<Key>, config: Configuration, value: &Value) {
        let key = key.into();
        for (dc, payload) in DcServer::initial_payloads(&config, value) {
            self.inner.control(
                dc,
                ControlMsg::InstallKey {
                    key: key.clone(),
                    config: config.clone(),
                    tag: Tag::INITIAL,
                    payload,
                },
            );
        }
        self.inner
            .recorder
            .register_key(key.as_str(), legostore_lincheck::recorder::fingerprint(value.as_bytes()));
        self.inner.metadata.lock().insert(key, config);
    }

    /// Runs the reconfiguration protocol, moving `key` to `new_config`.
    ///
    /// Returns the clock-time duration of the transfer (query → write → metadata update →
    /// finish), which the paper reports as sub-second at real geo latencies. Under a
    /// virtual clock this is the modeled duration, independent of scheduler jitter.
    ///
    /// Fault tolerance is the [`ReconfigDriver`]'s: lost rounds are re-sent, so a crashed
    /// or partitioned minority of either placement only delays the transfer, and beyond
    /// that it stalls with [`StoreError::ReconfigStalled`] naming the round it died in,
    /// the metadata service still pointing at the old configuration. This function only
    /// moves the driver's messages and tells it the time.
    pub fn reconfigure(&self, key: impl Into<Key>, new_config: Configuration) -> StoreResult<Duration> {
        let key = key.into();
        let old = self
            .metadata_config(&key)
            .ok_or_else(|| StoreError::KeyNotFound(key.clone()))?;
        let clock = self.inner.clock().clone();
        let _participant = clock.enter();
        let started_ns = clock.now_ns();
        let controller_dc = self.inner.options.controller_dc;
        let op_timeout_ns = self.inner.options.op_timeout.as_nanos() as u64;
        let mut driver = ReconfigDriver::new(key.clone(), old, new_config, op_timeout_ns, started_ns);
        let transport = &self.inner.transport;
        let endpoint = transport.open_endpoint(controller_dc);
        let mut outbound = driver.start();
        loop {
            for out in outbound.drain(..) {
                transport.send_request(out.to, &endpoint, Inbound::new(endpoint.id(), out))?;
            }
            let step = match endpoint.recv(driver.wake_ns()) {
                Some(env) => driver.on_reply(env.from, env.phase, env.reply, clock.now_ns()),
                None => driver.tick(clock.now_ns()),
            };
            match step {
                ReconfigStep::Wait => {}
                ReconfigStep::Send(msgs) => outbound = msgs,
                ReconfigStep::Publish { new_config, finish } => {
                    self.inner.metadata.lock().insert(key.clone(), *new_config);
                    outbound = finish;
                }
                ReconfigStep::Done(result) => {
                    return result.map(|()| Duration::from_nanos(clock.now_ns() - started_ns));
                }
            }
        }
    }

    /// Shuts the deployment down, as dropping it does: in-process servers stop serving;
    /// TCP servers receive a shutdown frame and their connections are closed.
    pub fn shutdown(self) {}
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.inner.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_cloud::GcpLocation;

    fn fast_options() -> ClusterOptions {
        ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            clock: Clock::virtual_time(),
            ..Default::default()
        }
    }

    #[test]
    fn cluster_spins_up_and_shuts_down() {
        let cluster = Cluster::gcp9(fast_options());
        assert_eq!(cluster.model().num_dcs(), 9);
        assert!(cluster.metadata_config(&Key::from("nothing")).is_none());
        cluster.shutdown();
    }

    #[test]
    fn default_config_uses_nearest_dcs() {
        let cluster = Cluster::gcp9(fast_options());
        let tokyo = GcpLocation::Tokyo.dc();
        let config = cluster.default_config(tokyo);
        assert_eq!(config.n, 3);
        assert!(config.dcs.contains(&tokyo));
        config.validate().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn install_key_registers_metadata_and_servers() {
        let cluster = Cluster::gcp9(fast_options());
        let config = Configuration::cas_default(
            vec![
                GcpLocation::Tokyo.dc(),
                GcpLocation::Singapore.dc(),
                GcpLocation::Oregon.dc(),
                GcpLocation::Virginia.dc(),
                GcpLocation::Frankfurt.dc(),
            ],
            3,
            1,
        );
        cluster.install_key("wiki", config.clone(), &Value::filler(333));
        assert_eq!(cluster.metadata_config(&Key::from("wiki")).unwrap().describe(), "CAS(5,3)");
        // A client can read the installed value.
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let v = client.get(&Key::from("wiki")).expect("get succeeds");
        assert_eq!(v, Value::filler(333));
        cluster.shutdown();
    }

    #[test]
    fn reconfigure_moves_a_key_between_protocols() {
        let cluster = Cluster::gcp9(fast_options());
        let tokyo = GcpLocation::Tokyo.dc();
        let abd = Configuration::abd_majority(
            vec![tokyo, GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()],
            1,
        );
        cluster.install_key("k", abd, &Value::from("original"));
        let mut client = cluster.client(tokyo);
        client.put(&Key::from("k"), Value::from("v2")).unwrap();

        let new_config = Configuration::cas_default(
            vec![
                GcpLocation::Singapore.dc(),
                GcpLocation::Frankfurt.dc(),
                GcpLocation::Virginia.dc(),
                GcpLocation::Oregon.dc(),
            ],
            2,
            1,
        );
        let took = cluster.reconfigure("k", new_config).expect("reconfig succeeds");
        assert!(took < Duration::from_secs(5));
        let meta = cluster.metadata_config(&Key::from("k")).unwrap();
        assert_eq!(meta.describe(), "CAS(4,2)");
        assert_eq!(meta.epoch.0, 1);
        // Reads (from a fresh client and from the stale one) observe the latest value.
        let mut fresh = cluster.client(GcpLocation::Frankfurt.dc());
        assert_eq!(fresh.get(&Key::from("k")).unwrap(), Value::from("v2"));
        assert_eq!(client.get(&Key::from("k")).unwrap(), Value::from("v2"));
        cluster.shutdown();
    }

    #[test]
    fn failed_dc_is_tolerated_by_quorums() {
        let cluster = Cluster::gcp9(fast_options());
        let tokyo = GcpLocation::Tokyo.dc();
        let config = Configuration::abd_majority(
            vec![tokyo, GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()],
            1,
        );
        cluster.install_key("k", config, &Value::from("v"));
        cluster.fail_dc(GcpLocation::LosAngeles.dc());
        let mut client = cluster.client(tokyo);
        // The operation may need a timeout-driven retry with a widened quorum, but must
        // succeed because only one of three DCs failed.
        let got = client.get(&Key::from("k")).expect("tolerates one failure");
        assert_eq!(got, Value::from("v"));
        client.put(&Key::from("k"), Value::from("v2")).expect("puts tolerate failure too");
        assert_eq!(client.get(&Key::from("k")).unwrap(), Value::from("v2"));
        cluster.shutdown();
    }

    /// A virtual-time jump never parks its lone participant, so the client thread
    /// parks only if a request or a reply is handed to another thread.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_lone_client_is_served_on_its_own_thread() {
        let cluster = Cluster::gcp9(fast_options());
        let tokyo = GcpLocation::Tokyo.dc();
        let nearest = cluster.model().nearest_dcs(tokyo).into_iter().take(5).collect();
        cluster.install_key("k", Configuration::cas_default(nearest, 3, 1), &Value::filler(64));
        let (mut client, key) = (cluster.client(tokyo), Key::from("k"));
        let before = crate::clock::voluntary_switches();
        for i in 0..200 {
            client.put(&key, Value::filler(65 + i)).unwrap();
            assert_eq!(client.get(&key).unwrap(), Value::filler(65 + i));
        }
        let switches = crate::clock::voluntary_switches() - before;
        assert!(switches < 20, "200 PUT+GET pairs parked the client {switches} times");
        cluster.shutdown();
    }

    /// `fast_options` with metrics on, so stats scrapes carry the server gauges.
    fn metered_options() -> ClusterOptions {
        ClusterOptions { obs: ObsConfig::Metrics, ..fast_options() }
    }

    /// Each DC's `server.reply_routes` gauge, in DC order.
    fn reply_routes(cluster: &Cluster) -> Vec<(DcId, u64)> {
        let stats = cluster.stats().expect("in-process scrape");
        stats.servers.iter().map(|(dc, snap)| (*dc, snap.gauge("server.reply_routes"))).collect()
    }

    #[test]
    fn answered_requests_leave_no_reply_route() {
        let cluster = Cluster::gcp9(metered_options());
        let tokyo = GcpLocation::Tokyo.dc();
        let nearest = cluster.model().nearest_dcs(tokyo).into_iter().take(5).collect();
        cluster.install_key("k", Configuration::cas_default(nearest, 3, 1), &Value::filler(64));
        let (mut client, key) = (cluster.client(tokyo), Key::from("k"));
        for i in 0..100 {
            client.put(&key, Value::filler(65 + i)).unwrap();
            assert_eq!(client.get(&key).unwrap(), Value::filler(65 + i));
        }
        let routes = reply_routes(&cluster);
        assert_eq!(routes.len(), 9);
        assert!(routes.iter().all(|(_, n)| *n == 0), "{routes:?}");
        cluster.shutdown();
    }

    /// Runs `f` on a new thread registered with `clock`, once all of `start` have met.
    fn participant<T: Send + 'static>(
        clock: &Clock,
        start: &Arc<std::sync::Barrier>,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let (clock, start) = (clock.clone(), start.clone());
        std::thread::spawn(move || {
            let _participant = clock.enter();
            start.wait();
            f()
        })
    }

    /// A PUT that reaches the old placement after the controller's query round has
    /// blocked it is parked there. The `FinishReconfig` flushes its redirect from the
    /// controller's thread, over the channel its parked request left as a route, so the
    /// PUT restarts in the new epoch without waiting out its attempt timeout.
    #[test]
    fn a_put_parked_by_reconfigure_is_answered_from_the_controller_thread() {
        let cluster = Arc::new(Cluster::gcp9(metered_options()));
        let clock = cluster.options().clock.clone();
        let tokyo = GcpLocation::Tokyo.dc();
        let old = vec![tokyo, GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()];
        cluster.install_key("k", Configuration::abd_majority(old.clone(), 1), &Value::from("v1"));
        let new = vec![
            GcpLocation::Singapore.dc(),
            GcpLocation::Frankfurt.dc(),
            GcpLocation::Virginia.dc(),
        ];
        // Everyone registers with the clock before anyone moves, so the instants below
        // are exact: the query round blocks the key at 0, the PUT arrives at 1 ns, the
        // scrape looks at 2 ns, and no reply can arrive before a modelled round trip.
        let start = Arc::new(std::sync::Barrier::new(3));
        let controller = {
            let cluster = cluster.clone();
            let to = Configuration::abd_majority(new, 1);
            participant(&clock, &start, move || cluster.reconfigure("k", to).expect("reconfigure"))
        };
        let put = {
            let (cluster, at) = (cluster.clone(), clock.clone());
            participant(&clock, &start, move || {
                at.sleep(Duration::from_nanos(1));
                let mut client = cluster.client(tokyo);
                client.put(&Key::from("k"), Value::from("v2")).expect("put");
                (client.stats(), at.now_ns() - 1)
            })
        };
        let parked = {
            let _participant = clock.enter();
            start.wait();
            clock.sleep(Duration::from_nanos(2));
            reply_routes(&cluster)
        };
        controller.join().unwrap();
        let (stats, took_ns) = put.join().unwrap();

        // A lost redirect would surface as a timeout that finds the new epoch in the
        // metadata: a timeout restart, and a PUT that outlasts its attempt timeout.
        assert_eq!(stats.reconfig_restarts, 1, "{stats:?}");
        assert_eq!(stats.timeout_restarts, 0, "the deferred redirect reached the PUT: {stats:?}");
        let timeout_ns = cluster.options().op_timeout.as_nanos() as u64;
        assert!(took_ns < timeout_ns, "the PUT took {took_ns} ns, past its {timeout_ns} ns");
        // The ABD query round goes to the first two DCs of the placement.
        let expected: Vec<(DcId, u64)> =
            parked.iter().map(|(dc, _)| (*dc, u64::from(old[..2].contains(dc)))).collect();
        assert_eq!(parked, expected, "one route at each DC the parked PUT reached");
        assert!(reply_routes(&cluster).iter().all(|(_, n)| *n == 0), "flushed routes are gone");
        assert_eq!(cluster.metadata_config(&Key::from("k")).unwrap().epoch.0, 1);
        assert!(cluster.recorder().check_all().is_empty());
    }

    #[test]
    fn real_clock_smoke_round_trip() {
        // One end-to-end exercise of the default (wall-clock) time source, so the
        // RealClock wiring stays covered even though most tests run on virtual time.
        let cluster = Cluster::gcp9(ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            ..Default::default()
        });
        assert!(!cluster.options().clock.is_virtual());
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let key = Key::from("real-time");
        client.create(&key, Value::from("wall")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::from("wall"));
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn connect_tcp_rejects_missing_addresses_and_forces_real_clock() {
        use legostore_cloud::CloudModelBuilder;
        use std::net::TcpListener;

        let model = CloudModelBuilder::uniform(2).build();
        // Missing address for DC 1 → typed transport error, no hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut addrs = HashMap::new();
        addrs.insert(DcId(0), listener.local_addr().unwrap());
        let Err(err) = Cluster::connect_tcp(model.clone(), fast_options(), &addrs) else {
            panic!("expected a transport error for the missing address");
        };
        assert!(matches!(err, StoreError::Transport(_)), "{err:?}");

        // With both addresses present the cluster connects — and silently swaps the
        // requested virtual clock for a real one (sockets have no in-flight accounting).
        let listener2 = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.insert(DcId(1), listener2.local_addr().unwrap());
        let drain = |listener: TcpListener| {
            std::thread::spawn(move || {
                // Accept the one client connection and drain it until EOF.
                if let Ok((mut conn, _)) = listener.accept() {
                    let mut buf = [0u8; 1024];
                    while matches!(std::io::Read::read(&mut conn, &mut buf), Ok(n) if n > 0) {}
                }
            })
        };
        let t1 = drain(listener);
        let t2 = drain(listener2);
        let options = fast_options();
        assert!(options.clock.is_virtual());
        let cluster = Cluster::connect_tcp(model, options, &addrs).expect("connects");
        assert!(!cluster.options().clock.is_virtual(), "virtual clock must be replaced");
        cluster.shutdown();
        t1.join().unwrap();
        t2.join().unwrap();
    }
}
