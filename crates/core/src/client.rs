//! The LEGOStore client: the user-facing CREATE / GET / PUT / DELETE API (§3.1).
//!
//! A [`StoreClient`] is bound to one data center (users are served by the client in or
//! nearest to their DC). Each operation resolves the key's configuration (from the client's
//! local view, falling back to the metadata service) and hosts a
//! [`legostore_proto::OpDriver`] against the servers. The driver decides how the operation
//! survives the two kinds of disruption the paper studies — reconfigurations and
//! data-center failures; this module moves its messages over the transport, waits on the
//! deployment clock and keeps the client's view, GET cache, statistics and telemetry.

use crate::cluster::ClusterInner;
use crate::transport::reply_delay;
use legostore_cloud::METADATA_BYTES;
use legostore_lincheck::recorder::fingerprint;
use legostore_obs::{OpRecord, OpSpan, SpanEventKind};
use legostore_proto::server::{ControlMsg, DcServer, Inbound};
use legostore_proto::{Completed, Host, OpDriver, OpSpec, RetryCause, Step};
use legostore_types::{
    ClientId, Configuration, DcId, Key, OpKind, StoreError, StoreResult, Tag, Value,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Statistics kept by a client about its own operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientStats {
    /// Completed GETs.
    pub gets: u64,
    /// GETs that finished in one phase (optimized GETs).
    pub one_phase_gets: u64,
    /// Completed PUTs.
    pub puts: u64,
    /// Operation attempts that were restarted because of a reconfiguration.
    pub reconfig_restarts: u64,
    /// Operation attempts that were restarted after a timeout.
    pub timeout_restarts: u64,
}

/// A LEGOStore client bound to one data center.
pub struct StoreClient {
    cluster: Arc<ClusterInner>,
    dc: DcId,
    client_id: ClientId,
    /// Local view of key configurations (refreshed on redirects).
    view: HashMap<Key, Configuration>,
    /// Client-side cache used by the CAS optimized GET.
    cas_cache: HashMap<Key, (Tag, Value)>,
    /// Per-client operation statistics.
    stats: ClientStats,
}

impl StoreClient {
    pub(crate) fn new(cluster: Arc<ClusterInner>, dc: DcId) -> StoreClient {
        let client_id = ClientId(cluster.next_client_id.fetch_add(1, Ordering::Relaxed));
        StoreClient {
            cluster,
            dc,
            client_id,
            view: HashMap::new(),
            cas_cache: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The data center this client runs in.
    pub fn dc(&self) -> DcId {
        self.dc
    }

    /// This client's unique identifier (the tie-breaker in tags).
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// Operation statistics collected so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// CREATE: registers `key` with the default configuration (ABD over the nearest DCs) and
    /// stores `value` as its initial version. Errors if the key already exists.
    pub fn create(&mut self, key: &Key, value: Value) -> StoreResult<()> {
        let config = self.cluster.default_config(self.dc);
        self.create_with_config(key, value, config)
    }

    /// CREATE with an explicit configuration (e.g. one produced by the optimizer).
    pub fn create_with_config(
        &mut self,
        key: &Key,
        value: Value,
        config: Configuration,
    ) -> StoreResult<()> {
        config
            .validate()
            .map_err(|e| StoreError::InvalidConfiguration(e.to_string()))?;
        {
            let mut meta = self.cluster.metadata.lock();
            if meta.contains_key(key) {
                return Err(StoreError::KeyAlreadyExists(key.clone()));
            }
            meta.insert(key.clone(), config.clone());
        }
        for (dc, payload) in DcServer::initial_payloads(&config, &value) {
            self.cluster.control(
                dc,
                ControlMsg::InstallKey {
                    key: key.clone(),
                    config: config.clone(),
                    tag: Tag::INITIAL,
                    payload,
                },
            );
        }
        self.cluster
            .recorder
            .register_key(key.as_str(), fingerprint(value.as_bytes()));
        self.view.insert(key.clone(), config);
        Ok(())
    }

    /// DELETE: removes the key everywhere. Errors if the key does not exist.
    pub fn delete(&mut self, key: &Key) -> StoreResult<()> {
        let existed = self.cluster.metadata.lock().remove(key).is_some();
        if !existed {
            return Err(StoreError::KeyNotFound(key.clone()));
        }
        for dc in self.cluster.model.dc_ids() {
            self.cluster.control(dc, ControlMsg::RemoveKey(key.clone()));
        }
        self.view.remove(key);
        self.cas_cache.remove(key);
        Ok(())
    }

    /// GET: returns the value of `key`.
    pub fn get(&mut self, key: &Key) -> StoreResult<Value> {
        let invoke = self.cluster.now_ns();
        let Completed { value, one_phase, .. } = self.run_operation(key, None)?;
        let ret = self.cluster.now_ns();
        self.stats.gets += 1;
        if one_phase {
            self.stats.one_phase_gets += 1;
        }
        self.cluster.recorder.record_get(
            key.as_str(),
            self.client_id.0,
            fingerprint(value.as_bytes()),
            invoke,
            ret,
        );
        Ok(value)
    }

    /// PUT: overwrites the value of `key`.
    pub fn put(&mut self, key: &Key, value: Value) -> StoreResult<()> {
        let invoke = self.cluster.now_ns();
        let fp = fingerprint(value.as_bytes());
        self.run_operation(key, Some(value))?;
        let ret = self.cluster.now_ns();
        self.stats.puts += 1;
        self.cluster
            .recorder
            .record_put(key.as_str(), self.client_id.0, fp, invoke, ret);
        Ok(())
    }

    /// Refreshes this client's view of `key`'s configuration from the metadata service.
    pub fn refresh_view(&mut self, key: &Key) -> StoreResult<Configuration> {
        let config = self
            .cluster
            .metadata
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::KeyNotFound(key.clone()))?;
        self.view.insert(key.clone(), config.clone());
        Ok(config)
    }

    fn config_for(&mut self, key: &Key) -> StoreResult<Configuration> {
        if let Some(c) = self.view.get(key) {
            return Ok(c.clone());
        }
        self.refresh_view(key)
    }

    /// Runs one PUT of `value` (or a GET, if `None`) to completion.
    ///
    /// Every protocol decision — which messages, when to widen, how to cross an epoch,
    /// when to give up — is the [`OpDriver`]'s. This function opens and closes the
    /// per-attempt endpoints, waits, sleeps the modelled metadata round trip, keeps the
    /// client's view and GET cache, and wraps the operation in telemetry: when
    /// observability is on, the driver fills an [`OpSpan`] that feeds the client metric
    /// bundle and the bounded op-record queue.
    fn run_operation(&mut self, key: &Key, value: Option<Value>) -> StoreResult<Completed> {
        let config = self.config_for(key)?;
        let cluster = self.cluster.clone();
        let clock = cluster.clock().clone();
        // Register with the clock for the whole operation: a virtual clock must not jump
        // ahead while this thread is between sends and waits.
        let _participant = clock.enter();
        let started_ns = clock.now_ns();
        let kind = if value.is_some() { OpKind::Put } else { OpKind::Get };
        let span = cluster
            .obs
            .enabled()
            .then(|| OpSpan::new(cluster.obs.next_op_id(), kind, key.as_str(), self.dc, started_ns));
        let spec = OpSpec {
            key: key.clone(),
            client_dc: self.dc,
            client_id: self.client_id,
            max_attempts: cluster.options.max_attempts,
        };
        let (epoch, op_id) = (config.epoch, span.as_ref().map(|s| s.op_id));
        let cache = self.cas_cache.get(key).cloned();
        let host = Host {
            now_ns: &|| clock.now_ns(),
            metadata: &|| cluster.metadata.lock().get(key).cloned(),
            cache: &|| cache.clone(),
        };
        let mut driver = OpDriver::new(spec, config, value, span, &host);
        let result = self.drive(&cluster, &mut driver, &host, op_id);
        if driver.config().epoch != epoch {
            self.view.insert(key.clone(), driver.config().clone());
        }
        if let Ok(done) = &result {
            self.cas_cache.insert(key.clone(), (done.tag, done.value.clone()));
        }
        if let Some(span) = driver.take_span() {
            self.finish_span(span, &result);
        }
        result
    }

    /// The host loop: one iteration per attempt. `op_id` is the operation's span id when
    /// it is observed (retries then also leave a line in the flight recorder).
    fn drive(
        &mut self,
        cluster: &ClusterInner,
        driver: &mut OpDriver,
        host: &Host,
        op_id: Option<u64>,
    ) -> StoreResult<Completed> {
        let clock = cluster.clock();
        let note = |what: String| {
            if let Some(id) = op_id {
                cluster.obs.flight().record(clock.now_ns(), id, what);
            }
        };
        loop {
            // A fresh endpoint per attempt: dropping it at the end of the attempt closes
            // its reply channel (and deregisters its route, on transports that keep one),
            // so replies that straggle in after a timeout or a reconfiguration redirect
            // are discarded at the source (and cannot hold a virtual clock back).
            let endpoint = cluster.transport.open_endpoint(self.dc);
            let deadline_ns = clock.now_ns() + cluster.options.op_timeout.as_nanos() as u64;
            let mut outbound = driver.open_attempt(host);
            let cause = loop {
                for out in outbound.drain(..) {
                    cluster.transport.send_request(out.to, &endpoint, Inbound::new(endpoint.id(), out))?;
                }
                let step = match endpoint.recv(deadline_ns) {
                    Some(env) => {
                        driver.on_reply(env.from, env.phase, env.epoch, env.service_ns, env.reply, host)
                    }
                    None => driver.on_timeout(host),
                };
                match step {
                    Step::Wait => {}
                    Step::Send(msgs) => outbound = msgs,
                    Step::Reopen(cause) => break cause,
                    Step::Done(result) => return result,
                }
            };
            // The attempt is over: close its endpoint before pausing — a bare sleep with
            // an open channel could strand straggler replies and stall a virtual clock.
            drop(endpoint);
            let (kind, key) = (driver.kind(), driver.key());
            match cause {
                RetryCause::Redirect => {
                    self.stats.reconfig_restarts += 1;
                    note(format!("{kind} {key}: restarting against epoch {}", driver.config().epoch));
                    // Fetching the new configuration is modeled as a metadata round
                    // trip to the controller DC.
                    clock.sleep(reply_delay(
                        &cluster.model,
                        cluster.options.latency_scale,
                        self.dc,
                        cluster.options.controller_dc,
                        METADATA_BYTES,
                    ));
                }
                RetryCause::Timeout => {
                    self.stats.timeout_restarts += 1;
                    note(format!(
                        "{kind} {key}: attempt timed out in phase {}; widening to the full placement",
                        driver.phase()
                    ));
                }
                // The attempt ended by its timeout, like a widening one.
                RetryCause::EpochMoved => self.stats.timeout_restarts += 1,
                RetryCause::Failure => {}
            }
        }
    }

    /// Closes a finished operation's span: the terminal event, the client metrics, the
    /// op-record queue, the `LEGOSTORE_TRACE` rendering — and, on a terminal
    /// [`StoreError::QuorumUnreachable`], a flight-recorder dump to stderr so the events
    /// leading up to the give-up are preserved.
    fn finish_span(&self, mut span: OpSpan, result: &StoreResult<Completed>) {
        let obs = &self.cluster.obs;
        let completed_ns = self.cluster.now_ns();
        let ok = result.is_ok();
        span.push(completed_ns, SpanEventKind::Finished { ok });
        self.cluster.client_metrics.observe_span(&span, completed_ns, ok);
        if matches!(result, Ok(done) if done.one_phase) {
            self.cluster.client_metrics.one_phase_gets.inc();
        }
        obs.push_op(OpRecord {
            op_id: span.op_id,
            kind: span.kind,
            key: span.key.clone(),
            origin: self.dc,
            started_ns: span.started_ns,
            completed_ns,
            object_bytes: result.as_ref().map(|done| done.value.as_bytes().len() as u64).unwrap_or(0),
            ok,
        });
        if obs.trace_enabled() {
            eprintln!("{}", span.render());
        }
        if let Err(StoreError::QuorumUnreachable { attempts, last }) = result {
            let (kind, key) = (span.kind, &span.key);
            obs.flight().record(
                completed_ns,
                span.op_id,
                format!("{kind} {key} gave up after {attempts} attempts (last: {last})"),
            );
            obs.flight().dump_to_stderr(&format!("{kind} {key} from {} hit QuorumUnreachable", self.dc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::cluster::{Cluster, ClusterOptions};
    use legostore_cloud::GcpLocation;
    use std::time::Duration;

    fn fast_cluster() -> Cluster {
        Cluster::gcp9(ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            clock: Clock::virtual_time(),
            ..Default::default()
        })
    }

    #[test]
    fn create_get_put_delete_round_trip() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let key = Key::from("user:1");
        client.create(&key, Value::from("hello")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::from("hello"));
        client.put(&key, Value::from("world")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::from("world"));
        client.delete(&key).unwrap();
        assert!(matches!(client.get(&key), Err(StoreError::KeyNotFound(_))));
        cluster.shutdown();
    }

    #[test]
    fn create_twice_fails_and_delete_missing_fails() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Oregon.dc());
        let key = Key::from("dup");
        client.create(&key, Value::from("a")).unwrap();
        assert!(matches!(
            client.create(&key, Value::from("b")),
            Err(StoreError::KeyAlreadyExists(_))
        ));
        assert!(matches!(
            client.delete(&Key::from("missing")),
            Err(StoreError::KeyNotFound(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn cas_configuration_round_trip_and_cache() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Virginia.dc());
        let key = Key::from("coded");
        let config = Configuration::cas_default(
            vec![
                GcpLocation::Virginia.dc(),
                GcpLocation::Oregon.dc(),
                GcpLocation::LosAngeles.dc(),
                GcpLocation::Frankfurt.dc(),
                GcpLocation::London.dc(),
            ],
            3,
            1,
        );
        client
            .create_with_config(&key, Value::filler(5000), config)
            .unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::filler(5000));
        client.put(&key, Value::filler(2500)).unwrap();
        // The second GET can use the client-side cache and complete in one phase.
        assert_eq!(client.get(&key).unwrap(), Value::filler(2500));
        let stats = client.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.puts, 1);
        assert!(stats.one_phase_gets >= 1, "{stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        // CAS with n < k + 2f is invalid.
        let bad = Configuration::cas_default(
            vec![GcpLocation::Tokyo.dc(), GcpLocation::Oregon.dc(), GcpLocation::Virginia.dc()],
            3,
            1,
        );
        assert!(matches!(
            client.create_with_config(&Key::from("bad"), Value::empty(), bad),
            Err(StoreError::InvalidConfiguration(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn two_clients_in_different_dcs_see_each_others_writes() {
        let cluster = fast_cluster();
        let key = Key::from("shared");
        let mut tokyo = cluster.client(GcpLocation::Tokyo.dc());
        let mut london = cluster.client(GcpLocation::London.dc());
        tokyo.create(&key, Value::from("t0")).unwrap();
        tokyo.put(&key, Value::from("from-tokyo")).unwrap();
        assert_eq!(london.get(&key).unwrap(), Value::from("from-tokyo"));
        london.put(&key, Value::from("from-london")).unwrap();
        assert_eq!(tokyo.get(&key).unwrap(), Value::from("from-london"));
        // The recorded history is linearizable.
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }

    /// A fault plan crashing `victims` from t=0 with no recovery (a beyond-`f` outage
    /// when more than `f` of the placement is listed).
    fn permanent_crash_plan(victims: &[DcId]) -> legostore_types::FaultPlan {
        legostore_types::FaultPlan {
            seed: 1,
            events: victims
                .iter()
                .map(|dc| legostore_types::FaultEvent {
                    at_ms: 0.0,
                    kind: legostore_types::FaultKind::CrashDc { dc: *dc },
                })
                .collect(),
        }
    }

    fn faulted_cluster(victims: &[DcId]) -> Cluster {
        Cluster::gcp9(ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            max_attempts: 3,
            clock: Clock::virtual_time(),
            fault_plan: permanent_crash_plan(victims),
            ..Default::default()
        })
    }

    #[test]
    fn abd_beyond_f_returns_quorum_unreachable() {
        // ABD(3, f=1) with 2 of 3 hosts crashed forever: no attempt can ever assemble a
        // majority. The client must give up with the typed terminal error — bounded in
        // (virtual) time, no hang, no panic.
        let victims = [GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()];
        let cluster = faulted_cluster(&victims);
        let config = Configuration::abd_majority(
            vec![GcpLocation::Tokyo.dc(), victims[0], victims[1]],
            1,
        );
        cluster.install_key("k", config, &Value::from("v"));
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let put = client.put(&Key::from("k"), Value::from("w"));
        let Err(StoreError::QuorumUnreachable { attempts, last }) = put else {
            panic!("expected QuorumUnreachable, got {put:?}");
        };
        assert_eq!(attempts, 3);
        // The wrapped error carries the stalled phase's real progress: the write-query
        // quorum is 2 and only Tokyo could answer.
        assert_eq!(*last, StoreError::QuorumTimeout { needed: 2, received: 1 });
        let get = client.get(&Key::from("k"));
        assert!(matches!(get, Err(StoreError::QuorumUnreachable { .. })), "{get:?}");
        // Failed operations are never recorded, so the history cannot be corrupted.
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn cas_beyond_f_returns_quorum_unreachable() {
        // CAS(5, k=3, f=1) needs quorums of 4; with 2 hosts crashed only 3 remain.
        let victims = [GcpLocation::Oregon.dc(), GcpLocation::Frankfurt.dc()];
        let cluster = faulted_cluster(&victims);
        let config = Configuration::cas_default(
            vec![
                GcpLocation::Virginia.dc(),
                victims[0],
                GcpLocation::LosAngeles.dc(),
                victims[1],
                GcpLocation::London.dc(),
            ],
            3,
            1,
        );
        cluster.install_key("coded", config, &Value::filler(600));
        let mut client = cluster.client(GcpLocation::Virginia.dc());
        let put = client.put(&Key::from("coded"), Value::filler(300));
        assert!(matches!(put, Err(StoreError::QuorumUnreachable { attempts: 3, .. })), "{put:?}");
        let get = client.get(&Key::from("coded"));
        assert!(matches!(get, Err(StoreError::QuorumUnreachable { .. })), "{get:?}");
        assert!(client.stats().timeout_restarts >= 2, "{:?}", client.stats());
        cluster.shutdown();
    }

    /// A client whose view still names a reconfigured key's old placement, all of it
    /// failed, hears nothing: its attempt times out, finds the new epoch in the metadata
    /// and restarts there. Its timeout ended the attempt, so it counts as one.
    #[test]
    fn a_timeout_that_finds_a_newer_epoch_counts_as_a_timeout_restart() {
        let cluster = fast_cluster();
        let tokyo = GcpLocation::Tokyo.dc();
        let old = vec![tokyo, GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()];
        cluster.install_key("k", Configuration::abd_majority(old.clone(), 1), &Value::from("v1"));
        let (mut client, key) = (cluster.client(tokyo), Key::from("k"));
        assert_eq!(client.get(&key).unwrap(), Value::from("v1"));
        let new = [GcpLocation::Singapore, GcpLocation::Frankfurt, GcpLocation::Virginia];
        let new = Configuration::abd_majority(new.iter().map(|l| l.dc()).collect(), 1);
        cluster.reconfigure("k", new).unwrap();
        old.into_iter().for_each(|dc| cluster.fail_dc(dc));
        assert_eq!(client.get(&key).unwrap(), Value::from("v1"));
        let stats = client.stats();
        assert_eq!((stats.reconfig_restarts, stats.timeout_restarts), (0, 1), "{stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn history_recorder_sees_all_operations() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Sydney.dc());
        let key = Key::from("audited");
        client.create(&key, Value::from("0")).unwrap();
        for i in 1..=5 {
            client.put(&key, Value::from(format!("{i}").as_str())).unwrap();
            client.get(&key).unwrap();
        }
        assert_eq!(cluster.recorder().len("audited"), 10);
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }
}
