//! The reconfiguration controller — Algorithm 1 of the paper.
//!
//! The controller reads a consistent `(tag, value)` from the old configuration (blocking
//! concurrent operations at the servers it reaches), writes it into the new configuration
//! (re-encoding if the new configuration uses CAS), updates the metadata service, and then
//! releases the old configuration's servers with `FinishReconfig`. Operations that were
//! blocked either complete in the old configuration (if their tag is at or below the
//! transferred tag) or are failed over to the new configuration, where clients retry.
//!
//! The controller is a state machine like the client operations: [`ReconfigController::start`]
//! emits the first round of messages, [`ReconfigController::on_reply`] consumes replies and
//! emits follow-up rounds, and the final [`ReconfigOutcome`] carries the `FinishReconfig`
//! messages for the runtime to deliver after it has updated the metadata service.
//! [`ReconfigDriver`] wraps it with everything that involves time — the resend cadence, the
//! give-up deadline, finish-ack tracking — so a hosting runtime only moves its messages.

use crate::msg::{Outbound, ProtoMsg, ProtoReply, ReconfigPayload};
use crate::quorum::QuorumTracker;
use legostore_erasure::{decode_value, encode_value, Shard};
use legostore_types::{
    Configuration, DcId, Key, ProtocolKind, QuorumId, StoreError, Tag, Value,
};

/// Message phase numbers used by the controller (echoed by servers; distinct from the client
/// protocols' 1–3 so that instrumentation can tell them apart).
pub const PHASE_QUERY: u8 = 11;
/// Phase number of the CAS collection round.
pub const PHASE_COLLECT: u8 = 12;
/// Phase number of the write-to-new-configuration round.
pub const PHASE_WRITE: u8 = 13;
/// Phase number of the final `FinishReconfig` round (fire-and-forget).
pub const PHASE_FINISH: u8 = 14;

/// Which stage the controller is currently in (exposed for instrumentation; Figure 5's
/// breakdown reports the duration of each stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerPhase {
    /// Waiting for `ReconfigQuery` responses from the old configuration.
    Query,
    /// Waiting for codeword symbols from the old configuration (CAS only).
    Collect,
    /// Waiting for write acknowledgements from the new configuration.
    WriteNew,
    /// Finished.
    Done,
}

/// Progress report from feeding one reply into the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerProgress {
    /// Keep waiting.
    Pending,
    /// Send these messages and keep waiting.
    Send(Vec<Outbound>),
    /// Reconfiguration transfer complete.
    Done(Box<ReconfigOutcome>),
}

/// Result of a completed reconfiguration transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Key that was reconfigured.
    pub key: Key,
    /// The new configuration (epoch already bumped).
    pub new_config: Configuration,
    /// Highest tag transferred from the old configuration.
    pub highest_tag: Tag,
    /// The transferred value.
    pub value: Value,
    /// `FinishReconfig` messages to deliver to the old configuration's servers *after*
    /// updating the metadata service.
    pub finish_messages: Vec<Outbound>,
}

/// The reconfiguration controller state machine.
#[derive(Debug, Clone)]
pub struct ReconfigController {
    key: Key,
    old: Configuration,
    new: Configuration,
    phase: ControllerPhase,
    query_quorum: QuorumTracker,
    collect_quorum: QuorumTracker,
    write_quorum: QuorumTracker,
    highest_tag: Tag,
    /// Value read from an ABD old configuration (directly from query replies).
    abd_value: Option<Value>,
    /// Shards collected from a CAS old configuration.
    shards: Vec<Shard>,
    value: Option<Value>,
}

impl ReconfigController {
    /// Creates a controller that moves `key` from `old` to `new`. The new configuration's
    /// epoch is forced to be the successor of the old one.
    pub fn new(key: Key, old: Configuration, mut new: Configuration) -> Self {
        new.epoch = old.epoch.next();
        let n_old = old.n;
        let query_needed = match old.protocol {
            ProtocolKind::Abd => n_old - old.quorums.size(QuorumId::Q2) + 1,
            ProtocolKind::Cas => {
                let q3 = old.quorums.size(QuorumId::Q3);
                let q4 = old.quorums.size(QuorumId::Q4);
                (n_old - q3 + 1).max(n_old - q4 + 1)
            }
        };
        let collect_needed = match old.protocol {
            ProtocolKind::Abd => 0,
            ProtocolKind::Cas => old.quorums.size(QuorumId::Q4),
        };
        let write_needed = match new.protocol {
            ProtocolKind::Abd => new.quorums.size(QuorumId::Q2),
            ProtocolKind::Cas => new
                .quorums
                .size(QuorumId::Q2)
                .max(new.quorums.size(QuorumId::Q3)),
        };
        ReconfigController {
            key,
            old,
            new,
            phase: ControllerPhase::Query,
            query_quorum: QuorumTracker::new(query_needed),
            collect_quorum: QuorumTracker::new(collect_needed),
            write_quorum: QuorumTracker::new(write_needed),
            highest_tag: Tag::INITIAL,
            abd_value: None,
            shards: Vec::new(),
            value: None,
        }
    }

    /// The new configuration (with its bumped epoch).
    pub fn new_config(&self) -> &Configuration {
        &self.new
    }

    /// Current stage, for instrumentation.
    pub fn phase(&self) -> ControllerPhase {
        self.phase
    }

    /// First round: `ReconfigQuery` to every server of the old configuration.
    pub fn start(&self) -> Vec<Outbound> {
        self.old
            .dcs
            .iter()
            .map(|dc| Outbound {
                to: *dc,
                phase: PHASE_QUERY,
                key: self.key.clone(),
                epoch: self.old.epoch,
                msg: ProtoMsg::ReconfigQuery {
                    new_config: Box::new(self.new.clone()),
                },
            })
            .collect()
    }

    /// Re-emits the messages of the round currently awaited, for timeout-driven
    /// resends. Replies are deduplicated per data center by the quorum trackers and
    /// servers handle every round idempotently (duplicate queries re-answer, duplicate
    /// installs merge by tag), so re-driving a round is always safe.
    fn resend_current_round(&mut self) -> Vec<Outbound> {
        match self.phase {
            ControllerPhase::Query => self.start(),
            ControllerPhase::Collect => self.collect_messages(),
            ControllerPhase::WriteNew => self.write_messages(),
            ControllerPhase::Done => Vec::new(),
        }
    }

    /// 1-based number of the round currently awaited, matching the `round` field of
    /// [`StoreError::ReconfigStalled`]: 1 = query, 2 = collect, 3 = write-new,
    /// 4 = finish.
    fn round_number(&self) -> u8 {
        match self.phase {
            ControllerPhase::Query => 1,
            ControllerPhase::Collect => 2,
            ControllerPhase::WriteNew => 3,
            ControllerPhase::Done => 4,
        }
    }

    fn collect_messages(&self) -> Vec<Outbound> {
        self.old
            .dcs
            .iter()
            .map(|dc| Outbound {
                to: *dc,
                phase: PHASE_COLLECT,
                key: self.key.clone(),
                epoch: self.old.epoch,
                msg: ProtoMsg::ReconfigGet {
                    tag: self.highest_tag,
                },
            })
            .collect()
    }

    fn write_messages(&self) -> Vec<Outbound> {
        let value = self.value.as_ref().expect("value available before write");
        match self.new.protocol {
            ProtocolKind::Abd => self
                .new
                .dcs
                .iter()
                .map(|dc| Outbound {
                    to: *dc,
                    phase: PHASE_WRITE,
                    key: self.key.clone(),
                    epoch: self.new.epoch,
                    msg: ProtoMsg::ReconfigWrite {
                        tag: self.highest_tag,
                        data: ReconfigPayload::Value(value.clone()),
                        config: Box::new(self.new.clone()),
                    },
                })
                .collect(),
            ProtocolKind::Cas => {
                let shards = encode_value(value.as_bytes(), self.new.n, self.new.k)
                    .expect("validated configuration");
                self.new
                    .dcs
                    .iter()
                    .map(|dc| {
                        let idx = self.new.symbol_index(*dc).expect("host");
                        Outbound {
                            to: *dc,
                            phase: PHASE_WRITE,
                            key: self.key.clone(),
                            epoch: self.new.epoch,
                            msg: ProtoMsg::ReconfigWrite {
                                tag: self.highest_tag,
                                data: ReconfigPayload::Shard(shards[idx].data.clone()),
                                config: Box::new(self.new.clone()),
                            },
                        }
                    })
                    .collect()
            }
        }
    }

    fn finish_messages(&self) -> Vec<Outbound> {
        self.old
            .dcs
            .iter()
            .map(|dc| Outbound {
                to: *dc,
                phase: PHASE_FINISH,
                key: self.key.clone(),
                epoch: self.old.epoch,
                msg: ProtoMsg::FinishReconfig {
                    highest_tag: self.highest_tag,
                    new_config: Box::new(self.new.clone()),
                },
            })
            .collect()
    }

    fn done(&self) -> ControllerProgress {
        ControllerProgress::Done(Box::new(ReconfigOutcome {
            key: self.key.clone(),
            new_config: self.new.clone(),
            highest_tag: self.highest_tag,
            value: self.value.clone().expect("value transferred"),
            finish_messages: self.finish_messages(),
        }))
    }

    /// Feeds one reply into the controller.
    pub fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> ControllerProgress {
        match (self.phase, phase) {
            (ControllerPhase::Query, PHASE_QUERY) => {
                match reply {
                    ProtoReply::AbdTagValue { tag, value } => {
                        if tag >= self.highest_tag || self.abd_value.is_none() {
                            self.highest_tag = self.highest_tag.max(tag);
                            if tag == self.highest_tag {
                                self.abd_value = Some(value);
                            }
                        }
                    }
                    ProtoReply::TagOnly { tag } => {
                        self.highest_tag = self.highest_tag.max(tag);
                    }
                    _ => return ControllerProgress::Pending,
                }
                if self.query_quorum.record(from) {
                    match self.old.protocol {
                        ProtocolKind::Abd => {
                            self.value = self.abd_value.clone();
                            self.phase = ControllerPhase::WriteNew;
                            ControllerProgress::Send(self.write_messages())
                        }
                        ProtocolKind::Cas => {
                            self.phase = ControllerPhase::Collect;
                            ControllerProgress::Send(self.collect_messages())
                        }
                    }
                } else {
                    ControllerProgress::Pending
                }
            }
            (ControllerPhase::Collect, PHASE_COLLECT) => {
                if let ProtoReply::CasShard { tag, shard } = reply {
                    if tag == self.highest_tag {
                        if let Some(data) = shard {
                            if let Some(idx) = self.old.symbol_index(from) {
                                // Resent rounds can produce duplicate replies; a
                                // repeated symbol index must not count toward `k`.
                                if !self.shards.iter().any(|s| s.index == idx) {
                                    self.shards.push(Shard::new(idx, data));
                                }
                            }
                        }
                    }
                }
                self.collect_quorum.record(from);
                // Too few decodable shards stays Pending: `tick` resends the collect
                // round and the deadline ends the attempt as `ReconfigStalled`.
                let enough = self.collect_quorum.reached() && self.shards.len() >= self.old.k;
                match enough.then(|| decode_value(&self.shards, self.old.n, self.old.k)) {
                    Some(Ok(bytes)) => {
                        self.value = Some(Value::from(bytes));
                        self.phase = ControllerPhase::WriteNew;
                        ControllerProgress::Send(self.write_messages())
                    }
                    _ => ControllerProgress::Pending,
                }
            }
            (ControllerPhase::WriteNew, PHASE_WRITE) => {
                if matches!(reply, ProtoReply::Ack) && self.write_quorum.record(from) {
                    self.phase = ControllerPhase::Done;
                    self.done()
                } else {
                    ControllerProgress::Pending
                }
            }
            _ => ControllerProgress::Pending,
        }
    }
}

/// What the host of a [`ReconfigDriver`] does next.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigStep {
    /// Keep waiting: for a reply, or until [`ReconfigDriver::wake_ns`] to call
    /// [`ReconfigDriver::tick`].
    Wait,
    /// Send these and keep waiting.
    Send(Vec<Outbound>),
    /// A write quorum of the new placement holds the transferred value: publish
    /// `new_config` in the metadata service — never earlier — then send `finish` to
    /// release the old placement.
    Publish {
        /// The configuration to publish (epoch already bumped).
        new_config: Box<Configuration>,
        /// The `FinishReconfig` round.
        finish: Vec<Outbound>,
    },
    /// The reconfiguration is over. `Err` is [`StoreError::ReconfigStalled`]: the
    /// deadline passed before write-new completed, the metadata still lists the old
    /// configuration and the old servers re-activate on their epoch lease. A finish
    /// round that was only partly acknowledged by the deadline is still `Ok`: the
    /// metadata already points at the new configuration, and an old server that never
    /// hears the finish re-activates on its lease and redirects from then on.
    Done(Result<(), StoreError>),
}

/// Paces a [`ReconfigController`] through faults: every round is idempotent at the
/// servers, so a round that makes no progress for one operation timeout is re-sent in
/// full, and the whole transfer gives up at [`ReconfigDriver::DEADLINE_TIMEOUTS`]
/// timeouts. The host supplies the time with every input and moves the messages.
#[derive(Debug, Clone)]
pub struct ReconfigDriver {
    controller: ReconfigController,
    op_timeout_ns: u64,
    resend_at_ns: u64,
    deadline_ns: u64,
    /// Finish messages not yet acknowledged (empty until write-new completes).
    unacked_finish: Vec<Outbound>,
}

impl ReconfigDriver {
    /// The controller gives up this many operation timeouts after it started. Servers
    /// hold their epoch lease for twice as long, so a live controller always finishes
    /// or stalls out before any server gives up on it.
    pub const DEADLINE_TIMEOUTS: u64 = 8;

    /// A driver moving `key` from `old` to `new`, started at `now_ns`.
    pub fn new(key: Key, old: Configuration, new: Configuration, op_timeout_ns: u64, now_ns: u64) -> Self {
        ReconfigDriver {
            controller: ReconfigController::new(key, old, new),
            op_timeout_ns,
            resend_at_ns: now_ns + op_timeout_ns,
            deadline_ns: now_ns + op_timeout_ns * Self::DEADLINE_TIMEOUTS,
            unacked_finish: Vec::new(),
        }
    }

    /// The first round's messages.
    pub fn start(&self) -> Vec<Outbound> {
        self.controller.start()
    }

    /// When the host must call [`ReconfigDriver::tick`] if no reply arrives first.
    pub fn wake_ns(&self) -> u64 {
        self.resend_at_ns.min(self.deadline_ns)
    }

    /// Feeds in one reply.
    pub fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply, now_ns: u64) -> ReconfigStep {
        if self.controller.phase == ControllerPhase::Done {
            if phase == PHASE_FINISH {
                self.unacked_finish.retain(|out| out.to != from);
                if self.unacked_finish.is_empty() {
                    return ReconfigStep::Done(Ok(()));
                }
            }
            return ReconfigStep::Wait;
        }
        let progress = self.controller.on_reply(from, phase, reply);
        if progress != ControllerProgress::Pending {
            self.resend_at_ns = now_ns + self.op_timeout_ns;
        }
        match progress {
            ControllerProgress::Pending => ReconfigStep::Wait,
            ControllerProgress::Send(msgs) => ReconfigStep::Send(msgs),
            ControllerProgress::Done(outcome) => {
                self.unacked_finish = outcome.finish_messages.clone();
                ReconfigStep::Publish {
                    new_config: Box::new(outcome.new_config),
                    finish: outcome.finish_messages,
                }
            }
        }
    }

    /// Tells the driver the time, at or after [`ReconfigDriver::wake_ns`].
    pub fn tick(&mut self, now_ns: u64) -> ReconfigStep {
        let finishing = self.controller.phase == ControllerPhase::Done;
        if now_ns >= self.deadline_ns {
            return ReconfigStep::Done(if finishing {
                Ok(())
            } else {
                Err(StoreError::ReconfigStalled {
                    epoch: self.controller.new.epoch,
                    round: self.controller.round_number(),
                })
            });
        }
        if now_ns < self.resend_at_ns {
            return ReconfigStep::Wait;
        }
        self.resend_at_ns = now_ns + self.op_timeout_ns;
        ReconfigStep::Send(if finishing {
            self.unacked_finish.clone()
        } else {
            self.controller.resend_current_round()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ProtoMsg;
    use crate::server::{DcServer, Inbound};
    use legostore_types::{ClientId, ConfigEpoch};
    use std::collections::BTreeMap;

    fn dcs(ids: &[u16]) -> Vec<DcId> {
        ids.iter().map(|i| DcId(*i)).collect()
    }

    /// Builds one DcServer per DC in 0..n and installs `key` under `config` with `value`.
    fn deploy(config: &Configuration, value: &Value, n: usize) -> BTreeMap<DcId, DcServer> {
        let mut servers: BTreeMap<DcId, DcServer> =
            (0..n).map(|i| (DcId::from(i), DcServer::new(DcId::from(i)))).collect();
        for (dc, payload) in DcServer::initial_payloads(config, value) {
            servers
                .get_mut(&dc)
                .unwrap()
                .install_key(Key::from("k"), config.clone(), Tag::new(3, ClientId(1)), payload);
        }
        servers
    }

    /// Runs a full reconfiguration against in-memory servers, returning the outcome.
    fn run_reconfig(
        servers: &mut BTreeMap<DcId, DcServer>,
        old: &Configuration,
        new: &Configuration,
    ) -> ReconfigOutcome {
        let mut controller = ReconfigController::new(Key::from("k"), old.clone(), new.clone());
        let mut inflight = controller.start();
        let mut msg_id = 100;
        let outcome = loop {
            assert!(!inflight.is_empty(), "controller stalled in {:?}", controller.phase());
            let out = inflight.remove(0);
            msg_id += 1;
            let replies = servers.get_mut(&out.to).unwrap().handle(Inbound {
                from: 0,
                msg_id,
                phase: out.phase,
                key: out.key.clone(),
                epoch: out.epoch,
                msg: out.msg.clone(),
            });
            let mut done = None;
            for r in replies {
                match controller.on_reply(out.to, r.phase, r.reply) {
                    ControllerProgress::Pending => {}
                    ControllerProgress::Send(more) => inflight.extend(more),
                    ControllerProgress::Done(o) => done = Some(*o),
                }
            }
            if let Some(o) = done {
                // Let any still-in-flight write messages land (the real runtime does not
                // cancel them either) before moving on.
                for out in inflight {
                    msg_id += 1;
                    servers.get_mut(&out.to).unwrap().handle(Inbound {
                        from: 0,
                        msg_id,
                        phase: out.phase,
                        key: out.key.clone(),
                        epoch: out.epoch,
                        msg: out.msg.clone(),
                    });
                }
                break o;
            }
        };
        // Deliver the finish messages (the runtime would update metadata first).
        for out in &outcome.finish_messages {
            msg_id += 1;
            servers.get_mut(&out.to).unwrap().handle(Inbound {
                from: 0,
                msg_id,
                phase: out.phase,
                key: out.key.clone(),
                epoch: out.epoch,
                msg: out.msg.clone(),
            });
        }
        outcome
    }

    #[test]
    fn abd_to_cas_reconfiguration_transfers_value() {
        let old = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let mut new = Configuration::cas_default(dcs(&[3, 4, 5, 6]), 2, 1);
        new.epoch = ConfigEpoch(0); // controller bumps it
        let value = Value::filler(2000);
        let mut servers = deploy(&old, &value, 7);
        let outcome = run_reconfig(&mut servers, &old, &new);
        assert_eq!(outcome.highest_tag, Tag::new(3, ClientId(1)));
        assert_eq!(outcome.value, value);
        assert_eq!(outcome.new_config.epoch, ConfigEpoch(1));
        // New configuration servers now host the key at the new epoch with the CAS shards.
        for dc in &outcome.new_config.dcs {
            let s = servers.get(dc).unwrap();
            assert_eq!(s.latest_epoch(&Key::from("k")), Some(ConfigEpoch(1)));
        }
        // Old servers are retired: a client op with the old epoch is redirected.
        let replies = servers.get_mut(&DcId(0)).unwrap().handle(Inbound {
            from: 9,
            msg_id: 999,
            phase: 1,
            key: Key::from("k"),
            epoch: old.epoch,
            msg: ProtoMsg::AbdReadQuery,
        });
        assert!(matches!(replies[0].reply, ProtoReply::OperationFail { .. }));
    }

    #[test]
    fn cas_to_abd_reconfiguration_decodes_and_rereplicates() {
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new = Configuration::abd_majority(dcs(&[5, 6, 7]), 1);
        let value = Value::filler(3333);
        let mut servers = deploy(&old, &value, 8);
        let outcome = run_reconfig(&mut servers, &old, &new);
        assert_eq!(outcome.value, value);
        // The new ABD servers hold the full value.
        for dc in &outcome.new_config.dcs {
            let s = servers.get(dc).unwrap();
            let state = s
                .key_state(&Key::from("k"), ConfigEpoch(1))
                .expect("installed");
            assert_eq!(state.storage_bytes(), 3333);
        }
    }

    #[test]
    fn cas_to_cas_changes_code_parameters() {
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new = Configuration::cas_default(dcs(&[0, 1, 2, 5]), 2, 1);
        let value = Value::filler(1024);
        let mut servers = deploy(&old, &value, 6);
        let outcome = run_reconfig(&mut servers, &old, &new);
        assert_eq!(outcome.value, value);
        let expected_shard = legostore_erasure::shard_len(1024, 2) as u64;
        for dc in &outcome.new_config.dcs {
            let s = servers.get(dc).unwrap();
            let state = s.key_state(&Key::from("k"), ConfigEpoch(1)).unwrap();
            assert_eq!(state.storage_bytes(), expected_shard);
        }
    }

    #[test]
    fn quorum_sizes_follow_the_paper() {
        // ABD old: wait for N - q2 + 1 responses.
        let old = Configuration::abd_majority(dcs(&[0, 1, 2, 3, 4]), 1);
        let new = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let c = ReconfigController::new(Key::from("k"), old.clone(), new.clone());
        assert_eq!(c.query_quorum.needed(), 5 - 3 + 1);
        assert_eq!(c.write_quorum.needed(), 2);
        // CAS old: wait for max(N-q3+1, N-q4+1).
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new_cas = Configuration::cas_default(dcs(&[5, 6, 7, 8]), 2, 1);
        let c = ReconfigController::new(Key::from("k"), old.clone(), new_cas.clone());
        let q3 = old.quorums.size(QuorumId::Q3);
        let q4 = old.quorums.size(QuorumId::Q4);
        assert_eq!(c.query_quorum.needed(), (5 - q3 + 1).max(5 - q4 + 1));
        assert_eq!(c.collect_quorum.needed(), q4);
        assert_eq!(
            c.write_quorum.needed(),
            new_cas.quorums.size(QuorumId::Q2).max(new_cas.quorums.size(QuorumId::Q3))
        );
    }

    #[test]
    fn epoch_is_bumped_exactly_once() {
        let old = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let mut old2 = old.clone();
        old2.epoch = ConfigEpoch(7);
        let new = Configuration::abd_majority(dcs(&[3, 4, 5]), 1);
        let c = ReconfigController::new(Key::from("k"), old2, new);
        assert_eq!(c.new_config().epoch, ConfigEpoch(8));
    }

    #[test]
    fn finish_messages_target_all_old_servers() {
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new = Configuration::abd_majority(dcs(&[5, 6, 7]), 1);
        let value = Value::filler(100);
        let mut servers = deploy(&old, &value, 8);
        let outcome = run_reconfig(&mut servers, &old, &new);
        assert_eq!(outcome.finish_messages.len(), 5);
        assert!(outcome
            .finish_messages
            .iter()
            .all(|o| matches!(o.msg, ProtoMsg::FinishReconfig { .. }) && o.phase == PHASE_FINISH));
    }

    #[test]
    fn blocked_client_op_is_failed_over_during_reconfig() {
        let old = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let new = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let value = Value::from("v");
        let mut servers = deploy(&old, &value, 3);
        // Start the controller and deliver only the query to DC 0 so it blocks.
        let controller = ReconfigController::new(Key::from("k"), old.clone(), new.clone());
        let queries = controller.start();
        let q0 = queries.iter().find(|o| o.to == DcId(0)).unwrap();
        servers.get_mut(&DcId(0)).unwrap().handle(Inbound {
            from: 0,
            msg_id: 1,
            phase: q0.phase,
            key: q0.key.clone(),
            epoch: q0.epoch,
            msg: q0.msg.clone(),
        });
        // A client read query to DC 0 is now deferred (no reply).
        let deferred = servers.get_mut(&DcId(0)).unwrap().handle(Inbound {
            from: 42,
            msg_id: 2,
            phase: 1,
            key: Key::from("k"),
            epoch: old.epoch,
            msg: ProtoMsg::AbdReadQuery,
        });
        assert!(deferred.is_empty());
        // Finish the reconfiguration at DC 0: the deferred query is answered with
        // OperationFail carrying the new configuration.
        let mut bumped = new.clone();
        bumped.epoch = old.epoch.next();
        let replies = servers.get_mut(&DcId(0)).unwrap().handle(Inbound {
            from: 0,
            msg_id: 3,
            phase: PHASE_FINISH,
            key: Key::from("k"),
            epoch: old.epoch,
            msg: ProtoMsg::FinishReconfig {
                highest_tag: Tag::new(3, ClientId(1)),
                new_config: Box::new(bumped.clone()),
            },
        });
        let client_reply = replies.iter().find(|r| r.to == 42).unwrap();
        let ProtoReply::OperationFail { new_config } = &client_reply.reply else { panic!() };
        assert_eq!(new_config.epoch, bumped.epoch);
    }
}
