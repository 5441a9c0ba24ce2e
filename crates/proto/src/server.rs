//! The per-data-center server: hosts per-key, per-epoch protocol state, dispatches protocol
//! messages, and implements the server side of the reconfiguration protocol (Algorithm 2).
//!
//! The server is transport-agnostic: the hosting runtime wraps every request in an
//! [`Inbound`] envelope (carrying an opaque endpoint id, a message id and the sender's view
//! of the configuration epoch) and delivers the returned [`Reply`] envelopes. One inbound
//! message may produce zero replies (the request was deferred because a reconfiguration is
//! in progress) or many (a `FinishReconfig` flushes all deferred requests).

use crate::abd::AbdKeyState;
use crate::cas::CasKeyState;
use crate::msg::{Outbound, ProtoMsg, ProtoReply, ReconfigPayload, MSG_KIND_NAMES};
use legostore_erasure::Shard;
use legostore_obs::{MetricsSnapshot, Obs, ServerMetrics};
use legostore_types::{ConfigEpoch, Configuration, DcId, Key, ProtocolKind, StoreError, Tag, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Opaque identifier of the endpoint (client, controller, …) that sent a request; the
/// runtime uses it to route the reply.
pub type EndpointId = u64;

/// A request envelope delivered to a [`DcServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Inbound {
    /// Reply routing handle.
    pub from: EndpointId,
    /// Unique message id, echoed in the reply.
    pub msg_id: u64,
    /// Client-side phase number, echoed in the reply.
    pub phase: u8,
    /// Key the request concerns.
    pub key: Key,
    /// Configuration epoch the sender believes is current.
    pub epoch: ConfigEpoch,
    /// Request body.
    pub msg: ProtoMsg,
}

impl Inbound {
    /// Wraps a state machine's [`Outbound`] for delivery, replies to be routed to `from`.
    pub fn new(from: EndpointId, out: Outbound) -> Self {
        Inbound { from, msg_id: 0, phase: out.phase, key: out.key, epoch: out.epoch, msg: out.msg }
    }
}

/// An out-of-band server administration command.
///
/// Controls are not part of the quorum protocols: they model the operations a deployment
/// driver performs against individual servers (installing a freshly created key, deleting a
/// key, failing or recovering a DC, triggering CAS garbage collection). Every transport
/// carries them next to [`Inbound`] requests — the in-process runtime as a channel message,
/// the TCP runtime as a dedicated wire frame — and applies them via
/// [`DcServer::apply_control`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Install `key` under `config` with the given tag and per-DC payload (CREATE).
    InstallKey {
        /// Key to install.
        key: Key,
        /// Configuration the key is served under.
        config: Configuration,
        /// Initial tag.
        tag: Tag,
        /// This server's replica value (ABD) or codeword symbol (CAS).
        payload: ReconfigPayload,
    },
    /// Remove every epoch of the key (DELETE).
    RemoveKey(Key),
    /// Mark the server failed (drops all traffic) or recovered.
    SetFailed(bool),
    /// Run CAS garbage collection keeping this many old versions.
    GarbageCollect(usize),
}

/// A reply envelope produced by a [`DcServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Endpoint the reply is addressed to.
    pub to: EndpointId,
    /// Echo of [`Inbound::msg_id`].
    pub msg_id: u64,
    /// Echo of [`Inbound::phase`].
    pub phase: u8,
    /// Key the reply concerns.
    pub key: Key,
    /// Echo of [`Inbound::epoch`] — the epoch the *request* was addressed to. Clients
    /// that were redirected to a newer configuration use this to discard stragglers
    /// from the epoch they abandoned; attempt ids alone cannot tell a slow same-epoch
    /// reply from a reply minted under a retired configuration.
    pub epoch: ConfigEpoch,
    /// Reply body.
    pub reply: ProtoReply,
}

/// Protocol-specific per-key state.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoState {
    /// Replication state.
    Abd(AbdKeyState),
    /// Erasure-coded state.
    Cas(CasKeyState),
}

impl ProtoState {
    fn handle(&mut self, msg: &ProtoMsg) -> ProtoReply {
        match self {
            ProtoState::Abd(s) => s.handle(msg),
            ProtoState::Cas(s) => s.handle(msg),
        }
    }

    /// Bytes of payload storage used by this key at this server.
    pub fn storage_bytes(&self) -> u64 {
        match self {
            ProtoState::Abd(s) => s.storage_bytes(),
            ProtoState::Cas(s) => s.storage_bytes(),
        }
    }
}

/// Whether the key is serving normally, blocked by an in-flight reconfiguration, or retired.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyStatus {
    /// Serving client operations.
    Active,
    /// A `ReconfigQuery` was received; client operations are deferred until
    /// `FinishReconfig` — or until the epoch lease expires (controller crash), at
    /// which point the key re-activates in the old epoch and serves the parked
    /// requests (see [`DcServer::set_epoch_lease_ns`]).
    Blocked {
        /// Requests deferred while blocked.
        deferred: Vec<Inbound>,
        /// Server-clock nanoseconds when the key blocked (the lease starts here; a
        /// duplicate `ReconfigQuery` from a controller retry re-arms it).
        since_ns: u64,
        /// Target configuration carried by the blocking `ReconfigQuery`.
        new_config: Box<Configuration>,
    },
    /// The key moved to a new configuration; clients are redirected.
    Retired {
        /// Configuration clients should use instead.
        new_config: Box<Configuration>,
    },
}

/// Per-key, per-epoch state hosted at one data center.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyServerState {
    /// The configuration this state belongs to.
    pub config: Configuration,
    /// Protocol-specific state.
    pub proto: ProtoState,
    /// Serving status.
    pub status: KeyStatus,
    /// Target epoch of a reconfiguration attempt whose lease expired here. A late
    /// `FinishReconfig` for this epoch is rejected (its controller's view of our tags
    /// is stale — writes were accepted after the lease expired), unless a fresh
    /// `ReconfigQuery` re-arms the attempt first.
    pub aborted_target: Option<ConfigEpoch>,
}

impl KeyServerState {
    /// Bytes of storage used by this key state.
    pub fn storage_bytes(&self) -> u64 {
        self.proto.storage_bytes()
    }
}

/// The server process of one data center.
#[derive(Debug, Clone)]
pub struct DcServer {
    dc: DcId,
    /// key → epoch → state. Multiple epochs coexist transiently during a reconfiguration.
    keys: HashMap<Key, BTreeMap<ConfigEpoch, KeyServerState>>,
    /// When true the server drops every message (models a DC failure).
    failed: bool,
    /// Epoch lease: how long a key may stay `Blocked` awaiting `FinishReconfig` before
    /// the server gives up on the controller and re-activates the old epoch.
    /// `u64::MAX` disables expiry (the default — hosting runtimes opt in with a lease
    /// derived from their clock and the controller's deadline).
    lease_ns: u64,
    /// A lower bound on `since_ns + lease_ns` (saturating) over every `Blocked` state:
    /// below it no lease can have expired, so [`DcServer::expire_leases`] skips the
    /// sweep. A key that finishes or re-arms leaves the bound too early, which only
    /// costs one extra sweep.
    next_expiry_ns: u64,
    /// Keys with a CAS state touched since the last [`DcServer::garbage_collect`] (by a
    /// handled message, an install or a transfer): only these can have become
    /// collectable since.
    touched: HashSet<Key>,
    /// The `keep_recent` of the last collection; a lower one walks every key.
    last_keep: usize,
}

impl DcServer {
    /// Creates the server for data center `dc`.
    pub fn new(dc: DcId) -> Self {
        DcServer {
            dc,
            keys: HashMap::new(),
            failed: false,
            lease_ns: u64::MAX,
            next_expiry_ns: u64::MAX,
            touched: HashSet::new(),
            last_keep: 0,
        }
    }

    /// Sets the epoch lease (nanoseconds on the hosting runtime's clock, the same
    /// clock whose readings are passed to [`DcServer::handle_at`]).
    ///
    /// Safety requirement: the lease must be **no shorter than the controller's
    /// overall `reconfigure` deadline**. A server's lease starts when the controller's
    /// query arrives — after the controller started its own timer — so with
    /// `lease ≥ deadline` a lease can only expire once that controller has given up,
    /// and the late-`FinishReconfig` rejection below can never fire against a
    /// still-live single controller.
    pub fn set_epoch_lease_ns(&mut self, lease_ns: u64) {
        self.lease_ns = lease_ns;
        // Keys may already be blocked: the next message sweeps and re-derives the bound.
        self.next_expiry_ns = 0;
    }

    /// The data center this server runs in.
    pub fn dc(&self) -> DcId {
        self.dc
    }

    /// Marks the server failed (drops all traffic) or recovered.
    pub fn set_failed(&mut self, failed: bool) {
        self.failed = failed;
    }

    /// Number of keys hosted (any epoch).
    fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total bytes of payload storage across all keys and epochs.
    pub fn storage_bytes(&self) -> u64 {
        self.keys
            .values()
            .flat_map(|epochs| epochs.values())
            .map(|s| s.storage_bytes())
            .sum()
    }

    /// Direct (non-networked) installation of a key, used by CREATE and by tests.
    ///
    /// `payload` must already be this server's replica value (ABD) or codeword symbol (CAS).
    pub fn install_key(&mut self, key: Key, config: Configuration, tag: Tag, payload: ReconfigPayload) {
        let proto = match (config.protocol, payload) {
            (ProtocolKind::Abd, ReconfigPayload::Value(v)) => ProtoState::Abd(AbdKeyState::new(tag, v)),
            (ProtocolKind::Cas, ReconfigPayload::Shard(s)) => {
                ProtoState::Cas(CasKeyState::new(tag, Some(s)))
            }
            // Mismatched payloads are coerced: a value installed under CAS is treated as the
            // degenerate k=1 symbol, a shard under ABD as an opaque value.
            (ProtocolKind::Abd, ReconfigPayload::Shard(s)) => {
                ProtoState::Abd(AbdKeyState::new(tag, Value::new(s)))
            }
            (ProtocolKind::Cas, ReconfigPayload::Value(v)) => {
                ProtoState::Cas(CasKeyState::new(tag, Some(v.bytes())))
            }
        };
        if let ProtoState::Cas(_) = proto {
            touch(&mut self.touched, &key);
        }
        self.keys.entry(key).or_default().insert(
            config.epoch,
            KeyServerState {
                config,
                proto,
                status: KeyStatus::Active,
                aborted_target: None,
            },
        );
    }

    /// Removes every epoch of `key` (DELETE).
    fn remove_key(&mut self, key: &Key) -> bool {
        self.touched.remove(key);
        self.keys.remove(key).is_some()
    }

    /// Read-only access to a key's state at a specific epoch (tests, metrics).
    pub fn key_state(&self, key: &Key, epoch: ConfigEpoch) -> Option<&KeyServerState> {
        self.keys.get(key).and_then(|m| m.get(&epoch))
    }

    /// Latest epoch hosted for `key`.
    pub fn latest_epoch(&self, key: &Key) -> Option<ConfigEpoch> {
        self.keys
            .get(key)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// Runs CAS garbage collection on every hosted key, returning the number of removed
    /// versions.
    ///
    /// Its cost follows the writes, not the hosted keys: a key left untouched since the
    /// last collection has nothing more to collect at the same or a larger `keep_recent`,
    /// so only the keys touched since are visited. A `keep_recent` lower than the last
    /// call's walks every key.
    pub fn garbage_collect(&mut self, keep_recent: usize) -> usize {
        let every_key = keep_recent < self.last_keep;
        self.last_keep = keep_recent;
        let mut removed = 0;
        if every_key {
            self.touched.clear();
            for epochs in self.keys.values_mut() {
                removed += collect_key(epochs, keep_recent);
            }
        }
        for key in self.touched.drain() {
            if let Some(epochs) = self.keys.get_mut(&key) {
                removed += collect_key(epochs, keep_recent);
            }
        }
        removed
    }

    /// Applies one administration command (see [`ControlMsg`]).
    pub fn apply_control(&mut self, ctrl: ControlMsg) {
        match ctrl {
            ControlMsg::InstallKey { key, config, tag, payload } => {
                self.install_key(key, config, tag, payload)
            }
            ControlMsg::RemoveKey(key) => {
                self.remove_key(&key);
            }
            ControlMsg::SetFailed(failed) => self.set_failed(failed),
            ControlMsg::GarbageCollect(keep) => {
                self.garbage_collect(keep);
            }
        }
    }

    /// Handles one inbound request, producing zero or more replies.
    ///
    /// Time-free convenience wrapper around [`DcServer::handle_at`]: the server clock
    /// reads 0 forever, so epoch leases never expire. Unit tests and callers that do
    /// not model controller crashes use this.
    pub fn handle(&mut self, inbound: Inbound) -> Vec<Reply> {
        self.handle_at(inbound, 0)
    }

    /// Handles one inbound request at server-clock time `now_ns`, producing zero or
    /// more replies.
    ///
    /// Before dispatching, expired epoch leases are collected (see
    /// [`DcServer::expire_leases`]): any key still `Blocked` past the lease
    /// re-activates in its old epoch and its deferred requests are served (their
    /// replies are returned alongside the current request's). Expiry is driven by
    /// message arrival, which is sufficient: a deferred client's own timeout resend is
    /// itself a message. Until the earliest lease end passes this costs one comparison.
    pub fn handle_at(&mut self, inbound: Inbound, now_ns: u64) -> Vec<Reply> {
        if self.failed {
            return Vec::new();
        }
        let mut replies = self.expire_leases(now_ns);
        // ReconfigWrite installs a brand-new epoch (possibly for a key this DC did not host
        // before), so treat it before the existence checks.
        if let ProtoMsg::ReconfigWrite { tag, data, config } = &inbound.msg {
            // Idempotent install: if this epoch already exists here (controller round
            // resend, or a second controller attempt racing client traffic that has
            // already started writing in the new epoch), merge by tag through the
            // protocol state machine instead of clobbering — ABD ignores a transferred
            // tag at or below its current one, CAS inserts the version only if absent.
            if config.protocol == ProtocolKind::Cas {
                touch(&mut self.touched, &inbound.key);
            }
            let existing = self
                .keys
                .get_mut(&inbound.key)
                .and_then(|epochs| epochs.get_mut(&config.epoch))
                .filter(|state| state.config.protocol == config.protocol);
            match (existing, data) {
                (Some(state), ReconfigPayload::Value(v)) => {
                    state.proto.handle(&ProtoMsg::AbdWrite { tag: *tag, value: v.clone() });
                }
                (Some(state), ReconfigPayload::Shard(s)) => {
                    state.proto.handle(&ProtoMsg::CasPreWrite { tag: *tag, shard: s.clone() });
                    state.proto.handle(&ProtoMsg::CasFinalizeWrite { tag: *tag });
                }
                (None, _) => {
                    self.install_key(inbound.key.clone(), (**config).clone(), *tag, data.clone());
                }
            }
            replies.push(Self::reply_of(&inbound, ProtoReply::Ack));
            return replies;
        }
        let Some(epochs) = self.keys.get_mut(&inbound.key) else {
            let reply = ProtoReply::Error(StoreError::KeyNotFound(inbound.key.clone()));
            replies.push(Self::reply_of(&inbound, reply));
            return replies;
        };
        let latest_epoch = *epochs.keys().next_back().expect("non-empty epoch map");
        // A client using an older epoch than anything we host is redirected to the newest
        // configuration we know about.
        if inbound.epoch < *epochs.keys().next().expect("non-empty") {
            let new_config = Box::new(epochs[&latest_epoch].config.clone());
            replies.push(Self::reply_of(&inbound, ProtoReply::OperationFail { new_config }));
            return replies;
        }
        let Some(state) = epochs.get_mut(&inbound.epoch) else {
            // The sender is ahead of us (it knows a newer epoch than we host). This can only
            // happen for client traffic racing a reconfiguration; ask it to refresh.
            let reply = ProtoReply::Error(StoreError::StaleConfiguration {
                observed: inbound.epoch,
                current: latest_epoch,
            });
            replies.push(Self::reply_of(&inbound, reply));
            return replies;
        };
        if let ProtoState::Cas(_) = state.proto {
            touch(&mut self.touched, &inbound.key);
        }
        let finished = matches!(inbound.msg, ProtoMsg::FinishReconfig { .. });
        let served = Self::handle_at_state(state, inbound, now_ns);
        if let KeyStatus::Blocked { since_ns, .. } = &state.status {
            self.next_expiry_ns = self.next_expiry_ns.min(since_ns.saturating_add(self.lease_ns));
        }
        if finished {
            Self::prune_retired(epochs);
        }
        // Almost always no lease expired: hand back the request's own replies as built.
        if replies.is_empty() {
            return served;
        }
        replies.extend(served);
        replies
    }

    /// Re-activates the old epoch of every key whose epoch lease expired and serves
    /// its parked requests. Returns the replies for those requests.
    ///
    /// Returns at once while `now_ns` is below the earliest lease end of any blocked
    /// key. Otherwise it sweeps every hosted key and re-derives that bound from the
    /// keys still blocked.
    pub fn expire_leases(&mut self, now_ns: u64) -> Vec<Reply> {
        if self.lease_ns == u64::MAX || now_ns < self.next_expiry_ns {
            return Vec::new();
        }
        let mut replies = Vec::new();
        let mut next_expiry_ns = u64::MAX;
        for (key, epochs) in self.keys.iter_mut() {
            for state in epochs.values_mut() {
                let KeyStatus::Blocked { since_ns, new_config, .. } = &state.status else {
                    continue;
                };
                if now_ns.saturating_sub(*since_ns) < self.lease_ns {
                    next_expiry_ns = next_expiry_ns.min(since_ns.saturating_add(self.lease_ns));
                    continue;
                }
                // The controller went silent past the lease: its FinishReconfig (if it
                // ever arrives) is now rejected via `aborted_target`, so re-activating
                // the old epoch and accepting writes again is safe — the new placement
                // was never announced to any client (metadata updates only on finish).
                let target = new_config.epoch;
                let deferred = match std::mem::replace(&mut state.status, KeyStatus::Active) {
                    KeyStatus::Blocked { deferred, .. } => deferred,
                    _ => Vec::new(),
                };
                state.aborted_target = Some(target);
                if let ProtoState::Cas(_) = state.proto {
                    touch(&mut self.touched, key);
                }
                for parked in deferred {
                    replies.extend(Self::handle_at_state(state, parked, now_ns));
                }
                if let KeyStatus::Blocked { since_ns, .. } = &state.status {
                    next_expiry_ns = next_expiry_ns.min(since_ns.saturating_add(self.lease_ns));
                }
            }
        }
        self.next_expiry_ns = next_expiry_ns;
        replies
    }

    /// Bounds per-key epoch history: once a `FinishReconfig` retires an epoch, drop
    /// every *retired* epoch older than the most recent retired one. At most two
    /// epochs per key survive steady state (the active one and its predecessor, kept
    /// so a controller retry can still re-read a half-finished transfer).
    fn prune_retired(epochs: &mut BTreeMap<ConfigEpoch, KeyServerState>) {
        while epochs.len() > 2 {
            let oldest = *epochs.keys().next().expect("non-empty");
            if matches!(epochs[&oldest].status, KeyStatus::Retired { .. }) {
                epochs.remove(&oldest);
            } else {
                break;
            }
        }
    }

    fn reply_of(inbound: &Inbound, reply: ProtoReply) -> Reply {
        Reply {
            to: inbound.from,
            msg_id: inbound.msg_id,
            phase: inbound.phase,
            key: inbound.key.clone(),
            epoch: inbound.epoch,
            reply,
        }
    }

    fn handle_at_state(state: &mut KeyServerState, inbound: Inbound, now_ns: u64) -> Vec<Reply> {
        match &mut state.status {
            KeyStatus::Retired { new_config } => match &inbound.msg {
                // A retired epoch still answers the controller's transfer reads: its
                // state is frozen (no writes after retirement), so a second controller
                // attempt can re-read a half-finished move through the servers the
                // first attempt already retired.
                ProtoMsg::ReconfigQuery { .. } => {
                    let reply = Self::reconfig_query_reply(state);
                    vec![Self::reply_of(&inbound, reply)]
                }
                ProtoMsg::ReconfigGet { tag } => {
                    let tag = *tag;
                    let reply = state.proto.handle(&ProtoMsg::CasFinalizeRead { tag });
                    vec![Self::reply_of(&inbound, reply)]
                }
                // Duplicate finish (controller resend): idempotent acknowledgement.
                ProtoMsg::FinishReconfig { .. } => {
                    vec![Self::reply_of(&inbound, ProtoReply::Ack)]
                }
                _ => {
                    vec![Self::reply_of(
                        &inbound,
                        ProtoReply::OperationFail {
                            new_config: new_config.clone(),
                        },
                    )]
                }
            },
            KeyStatus::Active => match &inbound.msg {
                ProtoMsg::ReconfigQuery { new_config } => {
                    let new_config = new_config.clone();
                    let reply = Self::reconfig_query_reply(state);
                    // A fresh query re-arms an attempt whose lease expired here.
                    state.aborted_target = None;
                    state.status = KeyStatus::Blocked {
                        deferred: Vec::new(),
                        since_ns: now_ns,
                        new_config,
                    };
                    vec![Self::reply_of(&inbound, reply)]
                }
                ProtoMsg::ReconfigGet { tag } => {
                    let reply = state.proto.handle(&ProtoMsg::CasFinalizeRead { tag: *tag });
                    vec![Self::reply_of(&inbound, reply)]
                }
                ProtoMsg::FinishReconfig { highest_tag, new_config } => {
                    if state.aborted_target == Some(new_config.epoch) {
                        // The lease for this attempt expired and writes were accepted
                        // since; the controller's transferred snapshot is stale.
                        // Retiring now could lose those writes, so refuse.
                        return vec![Self::reply_of(
                            &inbound,
                            ProtoReply::Error(StoreError::ReconfigStalled {
                                epoch: new_config.epoch,
                                round: 4,
                            }),
                        )];
                    }
                    let (ht, nc) = (*highest_tag, new_config.clone());
                    Self::finish_reconfig(state, ht, nc, &inbound)
                }
                _ => {
                    let reply = state.proto.handle(&inbound.msg);
                    vec![Self::reply_of(&inbound, reply)]
                }
            },
            KeyStatus::Blocked { deferred, since_ns, new_config } => match &inbound.msg {
                ProtoMsg::ReconfigGet { tag } => {
                    let tag = *tag;
                    let reply = state.proto.handle(&ProtoMsg::CasFinalizeRead { tag });
                    vec![Self::reply_of(&inbound, reply)]
                }
                ProtoMsg::ReconfigQuery { new_config: target } => {
                    // Duplicate query (controller retry): answer it again and re-arm
                    // the lease — the controller is demonstrably alive.
                    *since_ns = now_ns;
                    *new_config = target.clone();
                    let reply = Self::reconfig_query_reply(state);
                    vec![Self::reply_of(&inbound, reply)]
                }
                ProtoMsg::FinishReconfig { highest_tag, new_config } => {
                    let (ht, nc) = (*highest_tag, new_config.clone());
                    Self::finish_reconfig(state, ht, nc, &inbound)
                }
                _ => {
                    deferred.push(inbound);
                    Vec::new()
                }
            },
        }
    }

    fn reconfig_query_reply(state: &mut KeyServerState) -> ProtoReply {
        match &mut state.proto {
            ProtoState::Abd(abd) => ProtoReply::AbdTagValue {
                tag: abd.tag,
                value: abd.value.clone(),
            },
            ProtoState::Cas(cas) => ProtoReply::TagOnly {
                tag: cas.highest_fin().unwrap_or(Tag::INITIAL),
            },
        }
    }

    /// Implements the `FinishReconfig` handling of Algorithm 2: complete deferred operations
    /// whose tag is at or below the controller's tag, fail the rest (and all queries) with
    /// the new configuration, and retire this epoch.
    fn finish_reconfig(
        state: &mut KeyServerState,
        highest_tag: Tag,
        new_config: Box<Configuration>,
        finish_inbound: &Inbound,
    ) -> Vec<Reply> {
        let deferred = match std::mem::replace(
            &mut state.status,
            KeyStatus::Retired {
                new_config: new_config.clone(),
            },
        ) {
            KeyStatus::Blocked { deferred, .. } => deferred,
            _ => Vec::new(),
        };
        let mut replies = Vec::with_capacity(deferred.len() + 1);
        for pending in deferred {
            let reply = match &pending.msg {
                // Tag queries are restarted in the new configuration.
                ProtoMsg::AbdReadQuery | ProtoMsg::AbdWriteQuery | ProtoMsg::CasQuery => {
                    ProtoReply::OperationFail {
                        new_config: new_config.clone(),
                    }
                }
                // Value-carrying operations with tags at or below the transferred tag can
                // complete in the old configuration (their effect is already captured).
                ProtoMsg::AbdWrite { tag, .. }
                | ProtoMsg::CasPreWrite { tag, .. }
                | ProtoMsg::CasFinalizeWrite { tag }
                | ProtoMsg::CasFinalizeRead { tag } => {
                    if *tag <= highest_tag {
                        state.proto.handle(&pending.msg)
                    } else {
                        ProtoReply::OperationFail {
                            new_config: new_config.clone(),
                        }
                    }
                }
                _ => ProtoReply::OperationFail {
                    new_config: new_config.clone(),
                },
            };
            replies.push(Self::reply_of(&pending, reply));
        }
        replies.push(Self::reply_of(finish_inbound, ProtoReply::Ack));
        replies
    }

    /// Helper used by CREATE: builds the per-DC payloads for installing `value` under
    /// `config` (whole value for ABD, per-DC codeword symbol for CAS).
    pub fn initial_payloads(
        config: &Configuration,
        value: &Value,
    ) -> Vec<(DcId, ReconfigPayload)> {
        match config.protocol {
            ProtocolKind::Abd => config
                .dcs
                .iter()
                .map(|dc| (*dc, ReconfigPayload::Value(value.clone())))
                .collect(),
            ProtocolKind::Cas => {
                let shards: Vec<Shard> =
                    legostore_erasure::encode_value(value.as_bytes(), config.n, config.k)
                        .expect("validated configuration");
                config
                    .dcs
                    .iter()
                    .map(|dc| {
                        let idx = config.symbol_index(*dc).expect("host");
                        (*dc, ReconfigPayload::Shard(shards[idx].data.clone()))
                    })
                    .collect()
            }
        }
    }
}

/// Adds `key` to `touched`, cloning it only on its first touch since the last collection.
fn touch(touched: &mut HashSet<Key>, key: &Key) {
    if !touched.contains(key) {
        touched.insert(key.clone());
    }
}

/// Collects every CAS epoch of one key; see [`CasKeyState::garbage_collect`].
fn collect_key(epochs: &mut BTreeMap<ConfigEpoch, KeyServerState>, keep_recent: usize) -> usize {
    epochs
        .values_mut()
        .map(|state| match &mut state.proto {
            ProtoState::Cas(cas) => cas.garbage_collect(keep_recent),
            ProtoState::Abd(_) => 0,
        })
        .sum()
}

/// Upper bound on a [`RequestServer`]'s reply-routing table; crossing it evicts the
/// least-recently-parked half via [`evict_stale_routes`]. Only a request parked behind a
/// reconfiguration leaves a route, and the reply that ends its wait takes it away, so the
/// table holds one entry per endpoint with a parked request. A request whose reply never
/// comes (its key was deleted, or no lease ends the block) is what the cap is for.
const MAX_REPLY_ROUTES: usize = 100_000;

/// Drops the least-recently-stamped reply routes until only `keep` remain.
///
/// `routes` maps an endpoint id to its reply handle (a channel for the in-process runtime,
/// a connection id for the TCP server) plus the per-server counter value at which the
/// endpoint last had a request parked. The freshest routes are the ones whose parked
/// requests may still be flushed; evicting only the stale tail — instead of clearing the
/// whole table — keeps them routable.
fn evict_stale_routes<T>(routes: &mut HashMap<u64, (T, u64)>, keep: usize) {
    if routes.len() <= keep {
        return;
    }
    let mut stamps: Vec<u64> = routes.values().map(|(_, seen)| *seen).collect();
    stamps.sort_unstable();
    // Stamps are unique (one per inserted route), so this keeps exactly `keep` entries.
    let cutoff = stamps[stamps.len() - keep];
    routes.retain(|_, (_, seen)| *seen >= cutoff);
}

/// A reply stamped for its way back: the fields of a reply frame, whether the host
/// puts them on a socket or on a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReply {
    /// Endpoint the reply is addressed to.
    pub endpoint: EndpointId,
    /// The serving data center.
    pub from: DcId,
    /// Host clock when the reply was handed over. A receiver in another process re-stamps
    /// it on arrival, because the two clocks are not comparable.
    pub sent_at_ns: u64,
    /// How long [`DcServer::handle_at`] took on the request that produced it.
    pub service_ns: u64,
    /// Echo of the request's phase.
    pub phase: u8,
    /// Echo of the request's epoch.
    pub epoch: ConfigEpoch,
    /// Reply body.
    pub reply: ProtoReply,
}

/// The request-serving half of a per-DC server host: the [`DcServer`], its telemetry and
/// the bounded table that routes deferred replies — flushed long after their request by a
/// `FinishReconfig` or an expired epoch lease — back to the endpoint that asked. A reply
/// that answers the request being served goes back the way that request came, so only a
/// request that waits leaves a route. Generic over the host's route handle `R` (a reply
/// channel in-process, a connection id over TCP); hosts keep only their receive loop and
/// their way of writing a reply.
pub struct RequestServer<R> {
    /// The protocol state. Hosts apply controls and set the epoch lease on it directly.
    pub server: DcServer,
    obs: Obs,
    metrics: ServerMetrics,
    /// endpoint → (route, stamp of the endpoint's latest parked request).
    routes: HashMap<EndpointId, (R, u64)>,
    stamp: u64,
}

impl<R> RequestServer<R> {
    /// A server for `dc` reporting into `obs`.
    pub fn new(dc: DcId, obs: Obs) -> Self {
        RequestServer {
            server: DcServer::new(dc),
            metrics: ServerMetrics::new(&obs, &MSG_KIND_NAMES),
            obs,
            routes: HashMap::new(),
            stamp: 0,
        }
    }

    /// The metric handles (for gauges only the host can feed, e.g. its lock contention).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Serves one request that arrived as `bytes_in` bytes, dispatching it at `now_ns()`,
    /// and hands every resulting reply, stamped, to `write`, which returns the bytes it put
    /// on the wire or `None` if the route turned out dead.
    ///
    /// A reply addressed to the request's own endpoint goes to `write` with `None`: it
    /// leaves the way the request came. Any other reply is a deferred one, flushed by this
    /// request, and goes with the route its endpoint left; a reply with no route is
    /// discarded. `route` is called only if a live server answered nothing to the
    /// endpoint — the request was parked behind a reconfiguration — and its result is
    /// remembered until a reply to that endpoint is written. A failed server drops the
    /// request and will never answer it, so that leaves no route either.
    pub fn serve(
        &mut self,
        route: impl FnOnce() -> R,
        inbound: Inbound,
        bytes_in: u64,
        now_ns: impl Fn() -> u64,
        mut write: impl FnMut(Option<&R>, ServedReply) -> Option<u64>,
    ) {
        let (from, msg_kind, phase) = (inbound.from, inbound.msg.kind_index(), inbound.phase);
        let handled_at = now_ns();
        let replies = self.server.handle_at(inbound, handled_at);
        let service_ns = now_ns().saturating_sub(handled_at);
        let mut bytes_out = 0;
        let mut answered = false;
        let mut flushed = Vec::new();
        let produced = replies.len() as u64;
        for r in replies {
            let route = if r.to == from {
                answered = true;
                None
            } else {
                let Some((route, _)) = self.routes.get(&r.to) else { continue };
                flushed.push(r.to);
                Some(route)
            };
            let served = ServedReply {
                endpoint: r.to,
                from: self.server.dc(),
                sent_at_ns: now_ns(),
                service_ns,
                phase: r.phase,
                epoch: r.epoch,
                reply: r.reply,
            };
            bytes_out += write(route, served).unwrap_or(0);
        }
        // A reply ends its endpoint's wait: the requests an endpoint sends all concern one
        // key at one epoch, so whatever flushes one of its parked requests flushes them all.
        for endpoint in flushed {
            self.routes.remove(&endpoint);
        }
        if answered {
            if !self.routes.is_empty() {
                self.routes.remove(&from);
            }
        } else if !self.server.failed {
            self.stamp += 1;
            self.routes.insert(from, (route(), self.stamp));
            // Evicting only the least-recently-stamped half (not the whole table) keeps
            // the routes of recently parked requests alive.
            if self.routes.len() > MAX_REPLY_ROUTES {
                evict_stale_routes(&mut self.routes, MAX_REPLY_ROUTES / 2);
            }
        }
        if self.obs.enabled() {
            self.metrics.bytes_in.add(bytes_in);
            self.metrics.bytes_out.add(bytes_out);
            self.metrics.on_request(msg_kind, phase, service_ns, produced);
        }
    }

    /// Forgets every route for which `dead` holds (a closed connection's endpoints).
    pub fn forget_routes(&mut self, dead: impl Fn(&R) -> bool) {
        self.routes.retain(|_, (route, _)| !dead(route));
    }

    /// A stats scrape: refreshes the point-in-time gauges (everything else accumulated
    /// as requests were served) and snapshots the registry.
    pub fn stats(&self) -> MetricsSnapshot {
        self.metrics.keys.set(self.server.key_count() as u64);
        self.metrics.reply_routes.set(self.routes.len() as u64);
        self.metrics.storage_bytes.set(self.server.storage_bytes());
        self.obs.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_types::ClientId;

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    fn inbound(msg_id: u64, epoch: ConfigEpoch, msg: ProtoMsg) -> Inbound {
        Inbound {
            from: 7,
            msg_id,
            phase: 1,
            key: Key::from("k"),
            epoch,
            msg,
        }
    }

    fn abd_server_with_key() -> DcServer {
        let config = Configuration::abd_majority(dcs(3), 1);
        let mut s = DcServer::new(DcId(0));
        s.install_key(
            Key::from("k"),
            config,
            Tag::INITIAL,
            ReconfigPayload::Value(Value::from("init")),
        );
        s
    }

    /// A `ReconfigQuery` announcing a move to an ABD configuration at `epoch`.
    fn reconfig_query(epoch: u64) -> ProtoMsg {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        c.epoch = ConfigEpoch(epoch);
        ProtoMsg::ReconfigQuery { new_config: Box::new(c) }
    }

    #[test]
    fn unknown_key_returns_not_found() {
        let mut s = DcServer::new(DcId(0));
        let replies = s.handle(inbound(1, ConfigEpoch(0), ProtoMsg::AbdReadQuery));
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0].reply, ProtoReply::Error(StoreError::KeyNotFound(_))));
    }

    #[test]
    fn basic_abd_dispatch_and_metadata_echo() {
        let mut s = abd_server_with_key();
        let mut req = inbound(42, ConfigEpoch(0), ProtoMsg::AbdReadQuery);
        req.phase = 3;
        let replies = s.handle(req);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].msg_id, 42);
        assert_eq!(replies[0].phase, 3);
        assert_eq!(replies[0].to, 7);
        assert!(matches!(replies[0].reply, ProtoReply::AbdTagValue { .. }));
    }

    #[test]
    fn failed_server_drops_messages() {
        let mut s = abd_server_with_key();
        s.set_failed(true);
        assert!(s.handle(inbound(1, ConfigEpoch(0), ProtoMsg::AbdReadQuery)).is_empty());
        s.set_failed(false);
        assert_eq!(s.handle(inbound(2, ConfigEpoch(0), ProtoMsg::AbdReadQuery)).len(), 1);
    }

    #[test]
    fn stale_epoch_is_redirected() {
        let mut s = abd_server_with_key();
        // Install a newer epoch directly (as a reconfiguration write would).
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(2);
        s.install_key(
            Key::from("k"),
            new_config.clone(),
            Tag::new(5, ClientId(1)),
            ReconfigPayload::Value(Value::from("v5")),
        );
        // Remove the old epoch the way finish_reconfig would retire it: here we just query
        // with the old epoch and expect a redirect only when the old epoch no longer exists.
        let replies = s.handle(inbound(1, ConfigEpoch(1), ProtoMsg::AbdReadQuery));
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].reply,
            ProtoReply::Error(StoreError::StaleConfiguration { .. })
        ));
        // An epoch older than everything hosted gets an OperationFail redirect. First drop
        // the epoch-0 state by deleting and reinstalling only epoch 2.
        let mut s2 = DcServer::new(DcId(0));
        s2.install_key(
            Key::from("k"),
            new_config.clone(),
            Tag::new(5, ClientId(1)),
            ReconfigPayload::Value(Value::from("v5")),
        );
        let replies = s2.handle(inbound(1, ConfigEpoch(0), ProtoMsg::AbdReadQuery));
        let ProtoReply::OperationFail { new_config: got } = &replies[0].reply else {
            panic!("{replies:?}")
        };
        assert_eq!(got.epoch, ConfigEpoch(2));
    }

    #[test]
    fn reconfig_query_blocks_and_finish_flushes() {
        let mut s = abd_server_with_key();
        // Controller announces a reconfiguration.
        let replies = s.handle(inbound(1, ConfigEpoch(0), reconfig_query(1)));
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0].reply, ProtoReply::AbdTagValue { .. }));

        // A client write arrives while blocked: no reply yet.
        let deferred_write = inbound(
            2,
            ConfigEpoch(0),
            ProtoMsg::AbdWrite { tag: Tag::new(1, ClientId(3)), value: Value::from("during") },
        );
        assert!(s.handle(deferred_write).is_empty());
        // A client query arrives while blocked: also deferred.
        assert!(s.handle(inbound(3, ConfigEpoch(0), ProtoMsg::AbdReadQuery)).is_empty());

        // Controller finishes the reconfiguration having read tag (1, c3).
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        let replies = s.handle(inbound(
            4,
            ConfigEpoch(0),
            ProtoMsg::FinishReconfig {
                highest_tag: Tag::new(1, ClientId(3)),
                new_config: Box::new(new_config.clone()),
            },
        ));
        // Three replies: the deferred write (completed, tag <= highest), the deferred query
        // (failed over to the new configuration) and the ack for the finish message itself.
        assert_eq!(replies.len(), 3);
        let write_reply = replies.iter().find(|r| r.msg_id == 2).unwrap();
        assert_eq!(write_reply.reply, ProtoReply::Ack);
        let query_reply = replies.iter().find(|r| r.msg_id == 3).unwrap();
        assert!(matches!(query_reply.reply, ProtoReply::OperationFail { .. }));
        let finish_ack = replies.iter().find(|r| r.msg_id == 4).unwrap();
        assert_eq!(finish_ack.reply, ProtoReply::Ack);

        // Afterwards the old epoch is retired: further old-epoch traffic is redirected.
        let replies = s.handle(inbound(5, ConfigEpoch(0), ProtoMsg::AbdReadQuery));
        assert!(matches!(replies[0].reply, ProtoReply::OperationFail { .. }));
    }

    #[test]
    fn deferred_write_with_higher_tag_is_failed_over() {
        let mut s = abd_server_with_key();
        s.handle(inbound(1, ConfigEpoch(0), reconfig_query(1)));
        s.handle(inbound(
            2,
            ConfigEpoch(0),
            ProtoMsg::AbdWrite { tag: Tag::new(9, ClientId(3)), value: Value::from("late") },
        ));
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        let replies = s.handle(inbound(
            3,
            ConfigEpoch(0),
            ProtoMsg::FinishReconfig { highest_tag: Tag::new(2, ClientId(0)), new_config: Box::new(new_config) },
        ));
        let write_reply = replies.iter().find(|r| r.msg_id == 2).unwrap();
        assert!(matches!(write_reply.reply, ProtoReply::OperationFail { .. }));
    }

    #[test]
    fn epoch_lease_expiry_reactivates_and_serves_deferred() {
        let mut s = abd_server_with_key();
        s.set_epoch_lease_ns(1_000_000);
        s.handle_at(inbound(1, ConfigEpoch(0), reconfig_query(1)), 0);
        let write = inbound(
            2,
            ConfigEpoch(0),
            ProtoMsg::AbdWrite { tag: Tag::new(1, ClientId(3)), value: Value::from("during") },
        );
        assert!(s.handle_at(write, 10).is_empty(), "deferred while blocked");
        // The next message past the lease unparks the write; it completes in the old
        // epoch, and the piggy-backed read sees normal service again.
        let replies = s.handle_at(inbound(3, ConfigEpoch(0), ProtoMsg::AbdReadQuery), 2_000_000);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies.iter().find(|r| r.msg_id == 2).unwrap().reply, ProtoReply::Ack);
        assert!(matches!(
            replies.iter().find(|r| r.msg_id == 3).unwrap().reply,
            ProtoReply::AbdTagValue { .. }
        ));
        // A late finish from the silent controller is refused: its snapshot predates
        // the write accepted after expiry.
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        let finish = ProtoMsg::FinishReconfig {
            highest_tag: Tag::INITIAL,
            new_config: Box::new(new_config.clone()),
        };
        let replies = s.handle_at(inbound(4, ConfigEpoch(0), finish.clone()), 3_000_000);
        assert!(matches!(
            replies[0].reply,
            ProtoReply::Error(StoreError::ReconfigStalled { epoch: ConfigEpoch(1), round: 4 })
        ));
        // A fresh query re-arms the attempt; its finish is then accepted.
        s.handle_at(inbound(5, ConfigEpoch(0), reconfig_query(1)), 3_000_000);
        let replies = s.handle_at(inbound(6, ConfigEpoch(0), finish), 3_100_000);
        assert!(replies.iter().any(|r| r.msg_id == 6 && r.reply == ProtoReply::Ack));
        let state = s.key_state(&Key::from("k"), ConfigEpoch(0)).unwrap();
        assert!(matches!(state.status, KeyStatus::Retired { .. }));
    }

    #[test]
    fn duplicate_reconfig_query_rearms_the_lease() {
        let mut s = abd_server_with_key();
        s.set_epoch_lease_ns(1_000_000);
        s.handle_at(inbound(1, ConfigEpoch(0), reconfig_query(1)), 0);
        // A controller retry at t=900µs pushes the expiry out to t=1.9ms.
        s.handle_at(inbound(2, ConfigEpoch(0), reconfig_query(1)), 900_000);
        let replies = s.handle_at(inbound(3, ConfigEpoch(0), ProtoMsg::AbdReadQuery), 1_500_000);
        assert!(replies.is_empty(), "lease re-armed; still blocked and deferring");
    }

    /// `inbound`, addressed to `key` instead of `k`.
    fn inbound_for(key: &str, msg_id: u64, msg: ProtoMsg) -> Inbound {
        Inbound { key: Key::from(key), ..inbound(msg_id, ConfigEpoch(0), msg) }
    }

    /// A server hosting the ABD keys `names` at epoch 0, with a 1 ms epoch lease.
    fn abd_server_with_keys(names: &[&str]) -> DcServer {
        let mut s = DcServer::new(DcId(0));
        for name in names {
            s.install_key(
                Key::from(*name),
                Configuration::abd_majority(dcs(3), 1),
                Tag::INITIAL,
                ReconfigPayload::Value(Value::from("init")),
            );
        }
        s.set_epoch_lease_ns(1_000_000);
        s
    }

    /// Blocks `key` with a `ReconfigQuery` at `now_ns` and parks a write (`msg_id`) on it.
    fn block_with_parked_write(s: &mut DcServer, key: &str, msg_id: u64, now_ns: u64) {
        s.handle_at(inbound_for(key, msg_id - 1, reconfig_query(1)), now_ns);
        let write = ProtoMsg::AbdWrite { tag: Tag::new(1, ClientId(3)), value: Value::from("w") };
        assert!(s.handle_at(inbound_for(key, msg_id, write), now_ns).is_empty(), "parked");
    }

    /// The ids of the replies to a read of the never-blocked key `c` at `now_ns`,
    /// other than the read's own.
    fn unparked_by_read_at(s: &mut DcServer, now_ns: u64) -> Vec<u64> {
        let replies = s.handle_at(inbound_for("c", 99, ProtoMsg::AbdReadQuery), now_ns);
        assert!(replies.iter().any(|r| r.msg_id == 99), "the read itself is served");
        replies.iter().map(|r| r.msg_id).filter(|id| *id != 99).collect()
    }

    #[test]
    fn leases_of_two_keys_expire_at_their_own_deadlines() {
        let mut s = abd_server_with_keys(&["a", "b", "c"]);
        block_with_parked_write(&mut s, "a", 2, 0);
        block_with_parked_write(&mut s, "b", 12, 500_000);
        assert_eq!(unparked_by_read_at(&mut s, 999_999), Vec::<u64>::new());
        assert_eq!(unparked_by_read_at(&mut s, 1_000_000), vec![2], "only a's lease ended");
        assert_eq!(unparked_by_read_at(&mut s, 1_499_999), Vec::<u64>::new());
        assert_eq!(unparked_by_read_at(&mut s, 1_500_000), vec![12]);
        assert_eq!(unparked_by_read_at(&mut s, 5_000_000), Vec::<u64>::new());
    }

    #[test]
    fn finished_key_leaves_no_phantom_expiry() {
        let mut s = abd_server_with_keys(&["a", "b", "c"]);
        block_with_parked_write(&mut s, "a", 2, 0);
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        let finish = ProtoMsg::FinishReconfig {
            highest_tag: Tag::new(1, ClientId(3)),
            new_config: Box::new(new_config),
        };
        let replies = s.handle_at(inbound_for("a", 3, finish), 100_000);
        assert!(replies.iter().any(|r| r.msg_id == 2), "the finish flushes a's write");
        let a = s.key_state(&Key::from("a"), ConfigEpoch(0)).unwrap();
        assert!(matches!(a.status, KeyStatus::Retired { .. }));
        block_with_parked_write(&mut s, "b", 12, 500_000);
        // Past a's stale lease end, before b's: nothing expires, and the sweep this
        // triggers tightens the bound to b's lease end.
        assert_eq!(unparked_by_read_at(&mut s, 1_200_000), Vec::<u64>::new());
        assert_eq!(s.next_expiry_ns, 1_500_000);
        assert_eq!(unparked_by_read_at(&mut s, 1_499_999), Vec::<u64>::new());
        assert_eq!(unparked_by_read_at(&mut s, 1_500_000), vec![12]);
    }

    #[test]
    fn lease_set_after_a_key_blocked_still_expires_it() {
        let mut s = abd_server_with_keys(&["a", "c"]);
        s.set_epoch_lease_ns(u64::MAX);
        block_with_parked_write(&mut s, "a", 2, 0);
        assert_eq!(unparked_by_read_at(&mut s, 10_000_000), Vec::<u64>::new(), "no lease");
        s.set_epoch_lease_ns(1_000_000);
        assert_eq!(unparked_by_read_at(&mut s, 10_000_000), vec![2]);
    }

    /// Median nanoseconds per `AbdReadQuery` over 5 rounds of 2 000, on a server hosting
    /// `hosted` ABD keys with the lease set and no key blocked. The reads cycle over the
    /// same 20 keys whatever `hosted` is.
    fn median_read_ns(hosted: usize) -> f64 {
        let names: Vec<String> = (0..hosted).map(|i| format!("k{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut s = abd_server_with_keys(&names);
        let reads: Vec<Inbound> =
            (0..20).map(|i| inbound_for(names[i], 1, ProtoMsg::AbdReadQuery)).collect();
        let mut now_ns = 0;
        let mut rounds: Vec<f64> = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                for i in 0..2_000 {
                    now_ns += 1_000;
                    let replies = s.handle_at(reads[i % reads.len()].clone(), now_ns);
                    assert_eq!(replies.len(), 1);
                }
                start.elapsed().as_nanos() as f64 / 2_000.0
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        rounds[2]
    }

    #[test]
    fn handle_at_cost_does_not_grow_with_hosted_keys() {
        let few = median_read_ns(20);
        let many = median_read_ns(20_000);
        let ratio = many / few;
        println!("handle_at: {few:.0} ns/msg at 20 keys, {many:.0} ns/msg at 20 000 ({ratio:.1}x)");
        assert!(ratio < 10.0, "per-message cost grows with hosted keys: {ratio:.1}x");
    }

    /// SplitMix64: a seeded, dependency-free stream for the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The collection before it followed the writes: every CAS state of every key.
    fn collect_every_key(s: &mut DcServer, keep_recent: usize) -> usize {
        s.keys.values_mut().map(|epochs| collect_key(epochs, keep_recent)).sum()
    }

    fn cas_config(epoch: u64) -> Configuration {
        let mut config = Configuration::cas_default(dcs(5), 3, 1);
        config.epoch = ConfigEpoch(epoch);
        config
    }

    /// A server hosting the CAS keys `k0..k{hosted}` at epoch 0.
    fn cas_server_with_keys(hosted: usize) -> DcServer {
        let mut s = DcServer::new(DcId(0));
        for i in 0..hosted {
            let shard = ReconfigPayload::Shard(vec![0u8; 8].into());
            s.install_key(Key::new(format!("k{i}")), cas_config(0), Tag::INITIAL, shard);
        }
        s
    }

    #[test]
    fn touched_key_collection_matches_a_full_walk() {
        for seed in 0..200u64 {
            let mut rng = seed;
            let mut s = cas_server_with_keys(6);
            s.install_key(
                Key::from("abd"),
                Configuration::abd_majority(dcs(3), 1),
                Tag::INITIAL,
                ReconfigPayload::Value(Value::from("init")),
            );
            s.set_epoch_lease_ns(1_000);
            let mut full = s.clone();
            let mut now_ns = 0;
            for step in 0..300 {
                let r = splitmix(&mut rng);
                let key = if r % 13 == 0 { Key::from("abd") } else { Key::new(format!("k{}", r % 6)) };
                let tag = Tag::new((r >> 8) % 24 + 1, ClientId(((r >> 16) % 3) as u32));
                let shard = || vec![1u8; ((r >> 20) % 8 + 1) as usize].into();
                let msg = match (r >> 24) % 9 {
                    0 | 1 => ProtoMsg::CasPreWrite { tag, shard: shard() },
                    2 | 3 => ProtoMsg::CasFinalizeWrite { tag },
                    4 => ProtoMsg::CasFinalizeRead { tag },
                    5 => ProtoMsg::AbdWrite { tag, value: Value::from("w") },
                    6 => ProtoMsg::ReconfigQuery { new_config: Box::new(cas_config(1)) },
                    7 => ProtoMsg::FinishReconfig { highest_tag: tag, new_config: Box::new(cas_config(1)) },
                    _ => ProtoMsg::ReconfigWrite {
                        tag,
                        data: ReconfigPayload::Shard(shard()),
                        config: Box::new(cas_config(1)),
                    },
                };
                let epoch = ConfigEpoch((r >> 28) % 2);
                let inbound = Inbound { from: 1, msg_id: step, phase: 1, key, epoch, msg };
                now_ns += (r >> 32) % 400;
                assert_eq!(s.handle_at(inbound.clone(), now_ns), full.handle_at(inbound, now_ns));
                if (r >> 48) % 6 == 0 {
                    let keep = ((r >> 52) % 4) as usize;
                    let removed = s.garbage_collect(keep);
                    assert_eq!(removed, collect_every_key(&mut full, keep), "seed {seed} step {step}");
                    assert_eq!(s.storage_bytes(), full.storage_bytes(), "seed {seed} step {step}");
                }
            }
        }
    }

    /// Median nanoseconds per collection over 5 rounds of 200, on a server hosting
    /// `hosted` CAS keys; before each collection the same 20 keys take a write.
    fn median_gc_ns(hosted: usize) -> f64 {
        let mut s = cas_server_with_keys(hosted);
        s.garbage_collect(1);
        let mut seq = 0;
        let mut rounds: Vec<f64> = (0..5)
            .map(|_| {
                let mut spent = std::time::Duration::ZERO;
                for _ in 0..200 {
                    seq += 1;
                    let tag = Tag::new(seq, ClientId(1));
                    for i in 0..20 {
                        let key = format!("k{i}");
                        let shard = vec![1u8; 8].into();
                        s.handle(inbound_for(&key, seq, ProtoMsg::CasPreWrite { tag, shard }));
                        s.handle(inbound_for(&key, seq, ProtoMsg::CasFinalizeWrite { tag }));
                    }
                    let start = std::time::Instant::now();
                    assert_eq!(s.garbage_collect(1), if seq > 1 { 20 } else { 0 });
                    spent += start.elapsed();
                }
                spent.as_nanos() as f64 / 200.0
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        rounds[2]
    }

    #[test]
    fn garbage_collect_cost_does_not_grow_with_idle_keys() {
        let few = median_gc_ns(20);
        let many = median_gc_ns(20_000);
        let ratio = many / few;
        println!("garbage_collect: {few:.0} ns at 20 keys, {many:.0} ns at 20 000 ({ratio:.1}x)");
        assert!(ratio < 10.0, "collection cost grows with idle keys: {ratio:.1}x");
    }

    #[test]
    fn retired_epoch_still_answers_controller_reads() {
        let mut s = abd_server_with_key();
        s.handle(inbound(1, ConfigEpoch(0), reconfig_query(1)));
        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        s.handle(inbound(
            2,
            ConfigEpoch(0),
            ProtoMsg::FinishReconfig {
                highest_tag: Tag::INITIAL,
                new_config: Box::new(new_config.clone()),
            },
        ));
        // Client traffic against the retired epoch is redirected…
        let replies = s.handle(inbound(3, ConfigEpoch(0), ProtoMsg::AbdReadQuery));
        assert!(matches!(replies[0].reply, ProtoReply::OperationFail { .. }));
        // …but a second controller attempt can still re-read the frozen state and
        // re-finish idempotently.
        let replies = s.handle(inbound(4, ConfigEpoch(0), reconfig_query(1)));
        assert!(matches!(replies[0].reply, ProtoReply::AbdTagValue { .. }));
        let replies = s.handle(inbound(
            5,
            ConfigEpoch(0),
            ProtoMsg::FinishReconfig {
                highest_tag: Tag::INITIAL,
                new_config: Box::new(new_config),
            },
        ));
        assert_eq!(replies[0].reply, ProtoReply::Ack);
    }

    #[test]
    fn replies_echo_the_request_epoch() {
        let mut s = abd_server_with_key();
        let replies = s.handle(inbound(1, ConfigEpoch(0), ProtoMsg::AbdReadQuery));
        assert_eq!(replies[0].epoch, ConfigEpoch(0));
    }

    #[test]
    fn retired_epochs_are_pruned_to_a_bounded_tail() {
        let mut s = abd_server_with_key();
        // Walk the key through three reconfigurations, epoch 0 → 1 → 2 → 3.
        for e in 0u64..3 {
            let mut next = Configuration::abd_majority(dcs(3), 1);
            next.epoch = ConfigEpoch(e + 1);
            s.handle(inbound(10 + e, ConfigEpoch(e), reconfig_query(e + 1)));
            s.install_key(
                Key::from("k"),
                next.clone(),
                Tag::INITIAL,
                ReconfigPayload::Value(Value::from("moved")),
            );
            s.handle(inbound(
                20 + e,
                ConfigEpoch(e),
                ProtoMsg::FinishReconfig {
                    highest_tag: Tag::INITIAL,
                    new_config: Box::new(next),
                },
            ));
        }
        // Only the active epoch and the most recent retired one survive.
        assert!(s.key_state(&Key::from("k"), ConfigEpoch(0)).is_none());
        assert!(s.key_state(&Key::from("k"), ConfigEpoch(1)).is_none());
        assert!(s.key_state(&Key::from("k"), ConfigEpoch(2)).is_some());
        assert!(s.key_state(&Key::from("k"), ConfigEpoch(3)).is_some());
    }

    #[test]
    fn reconfig_write_installs_new_epoch() {
        let mut s = DcServer::new(DcId(1));
        let mut config = Configuration::cas_default(dcs(5), 3, 1);
        config.epoch = ConfigEpoch(4);
        let replies = s.handle(Inbound {
            from: 1,
            msg_id: 10,
            phase: 0,
            key: Key::from("moved"),
            epoch: ConfigEpoch(4),
            msg: ProtoMsg::ReconfigWrite {
                tag: Tag::new(8, ClientId(2)),
                data: ReconfigPayload::Shard(vec![1u8, 2, 3].into()),
                config: Box::new(config.clone()),
            },
        });
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].reply, ProtoReply::Ack);
        assert_eq!(s.latest_epoch(&Key::from("moved")), Some(ConfigEpoch(4)));
        let state = s.key_state(&Key::from("moved"), ConfigEpoch(4)).unwrap();
        assert_eq!(state.storage_bytes(), 3);
        // The new epoch serves CAS queries.
        let replies = s.handle(Inbound {
            from: 1,
            msg_id: 11,
            phase: 1,
            key: Key::from("moved"),
            epoch: ConfigEpoch(4),
            msg: ProtoMsg::CasQuery,
        });
        assert_eq!(replies[0].reply, ProtoReply::TagOnly { tag: Tag::new(8, ClientId(2)) });
    }

    #[test]
    fn cas_reconfig_query_reports_highest_fin() {
        let config = Configuration::cas_default(dcs(5), 3, 1);
        let mut s = DcServer::new(DcId(0));
        s.install_key(
            Key::from("k"),
            config,
            Tag::new(6, ClientId(4)),
            ReconfigPayload::Shard(vec![0u8; 16].into()),
        );
        let replies = s.handle(inbound(1, ConfigEpoch(0), reconfig_query(1)));
        assert_eq!(replies[0].reply, ProtoReply::TagOnly { tag: Tag::new(6, ClientId(4)) });
        // ReconfigGet returns the stored shard for that tag.
        let replies = s.handle(inbound(2, ConfigEpoch(0), ProtoMsg::ReconfigGet { tag: Tag::new(6, ClientId(4)) }));
        let ProtoReply::CasShard { shard, .. } = &replies[0].reply else { panic!() };
        assert_eq!(shard.as_ref().unwrap().len(), 16);
    }

    #[test]
    fn initial_payloads_shape() {
        let abd = Configuration::abd_majority(dcs(3), 1);
        let v = Value::filler(1000);
        let payloads = DcServer::initial_payloads(&abd, &v);
        assert_eq!(payloads.len(), 3);
        assert!(payloads
            .iter()
            .all(|(_, p)| matches!(p, ReconfigPayload::Value(val) if val.len() == 1000)));

        let cas = Configuration::cas_default(dcs(5), 3, 1);
        let payloads = DcServer::initial_payloads(&cas, &v);
        assert_eq!(payloads.len(), 5);
        for (_, p) in &payloads {
            let ReconfigPayload::Shard(s) = p else { panic!() };
            assert_eq!(s.len(), legostore_erasure::shard_len(1000, 3));
        }
    }

    #[test]
    fn delete_and_gc() {
        let mut s = abd_server_with_key();
        assert_eq!(s.key_count(), 1);
        assert!(s.storage_bytes() > 0);
        assert_eq!(s.garbage_collect(1), 0); // ABD has nothing to collect
        assert!(s.remove_key(&Key::from("k")));
        assert!(!s.remove_key(&Key::from("k")));
        assert_eq!(s.key_count(), 0);
    }

    #[test]
    fn apply_control_drives_the_same_paths_as_direct_calls() {
        let mut s = DcServer::new(DcId(0));
        s.apply_control(ControlMsg::InstallKey {
            key: Key::from("k"),
            config: Configuration::abd_majority(dcs(3), 1),
            tag: Tag::INITIAL,
            payload: ReconfigPayload::Value(Value::from("init")),
        });
        assert_eq!(s.key_count(), 1);
        s.apply_control(ControlMsg::SetFailed(true));
        assert!(s.handle(inbound(1, ConfigEpoch(0), ProtoMsg::AbdReadQuery)).is_empty());
        s.apply_control(ControlMsg::SetFailed(false));
        assert_eq!(s.handle(inbound(2, ConfigEpoch(0), ProtoMsg::AbdReadQuery)).len(), 1);
        s.apply_control(ControlMsg::GarbageCollect(1));
        s.apply_control(ControlMsg::RemoveKey(Key::from("k")));
        assert_eq!(s.key_count(), 0);
    }

    /// Serves `msg` from endpoint `from` (whose route is its own id) and returns what
    /// `write` got: each reply's route (`None` for the way the request came), its
    /// endpoint and its body.
    fn serve_from(
        host: &mut RequestServer<u64>,
        from: EndpointId,
        msg: ProtoMsg,
    ) -> Vec<(Option<u64>, EndpointId, ProtoReply)> {
        let mut written = Vec::new();
        let request = Inbound { from, ..inbound(from, ConfigEpoch(0), msg) };
        host.serve(|| from, request, 0, || 0, |route, r| {
            written.push((route.copied(), r.endpoint, r.reply));
            Some(0)
        });
        written
    }

    #[test]
    fn only_a_parked_request_leaves_a_reply_route() {
        const CLIENT: EndpointId = 7;
        const PARKED: EndpointId = 8;
        const CONTROLLER: EndpointId = 9;
        let mut host = RequestServer::new(DcId(0), Obs::new(legostore_obs::ObsConfig::Metrics));
        host.server = abd_server_with_key();
        let routes = |host: &RequestServer<u64>| host.stats().gauge("server.reply_routes");

        let written = serve_from(&mut host, CLIENT, ProtoMsg::AbdReadQuery);
        let answer = matches!(written[..], [(None, CLIENT, ProtoReply::AbdTagValue { .. })]);
        assert!(answer, "{written:?}");
        assert!(host.routes.is_empty(), "an answered request leaves no route");
        let written = serve_from(&mut host, CONTROLLER, reconfig_query(1));
        assert!(matches!(written[..], [(None, CONTROLLER, _)]), "{written:?}");

        let write = ProtoMsg::AbdWrite { tag: Tag::new(1, ClientId(3)), value: Value::from("w") };
        assert!(serve_from(&mut host, PARKED, write).is_empty(), "parked");
        assert_eq!(host.routes.keys().collect::<Vec<_>>(), [&PARKED]);
        assert_eq!(routes(&host), 1);

        let mut new_config = Configuration::abd_majority(dcs(3), 1);
        new_config.epoch = ConfigEpoch(1);
        let finish = ProtoMsg::FinishReconfig {
            highest_tag: Tag::new(1, ClientId(3)),
            new_config: Box::new(new_config),
        };
        let written = serve_from(&mut host, CONTROLLER, finish);
        assert_eq!(
            written,
            [(Some(PARKED), PARKED, ProtoReply::Ack), (None, CONTROLLER, ProtoReply::Ack)],
            "the deferred reply takes the parked route, the finish's own Ack the way it came"
        );
        assert!(host.routes.is_empty(), "the flushed request waits no more");
        assert_eq!(routes(&host), 0);
    }

    #[test]
    fn a_failed_server_keeps_no_route_for_what_it_drops() {
        let mut host = RequestServer::new(DcId(0), Obs::new(legostore_obs::ObsConfig::Off));
        host.server = abd_server_with_key();
        host.server.set_failed(true);
        assert!(serve_from(&mut host, 7, ProtoMsg::AbdReadQuery).is_empty());
        assert!(host.routes.is_empty());
    }

    #[test]
    fn stale_route_eviction_keeps_recent_endpoints() {
        let mut routes: HashMap<u64, ((), u64)> = HashMap::new();
        for endpoint in 0..100u64 {
            routes.insert(endpoint, ((), endpoint + 1)); // stamp = insertion order
        }
        // Endpoint 3 sends a fresh request much later: its stamp is refreshed.
        routes.insert(3, ((), 101));
        evict_stale_routes(&mut routes, 10);
        assert_eq!(routes.len(), 10);
        assert!(routes.contains_key(&3), "recently active endpoint must survive");
        for endpoint in 92..100u64 {
            assert!(routes.contains_key(&endpoint), "endpoint {endpoint} is recent");
        }
        assert!(!routes.contains_key(&0), "stale endpoint must be evicted");
        // Under the threshold nothing happens.
        let before: Vec<u64> = routes.keys().copied().collect();
        evict_stale_routes(&mut routes, 10);
        assert_eq!(routes.len(), before.len());
    }
}
