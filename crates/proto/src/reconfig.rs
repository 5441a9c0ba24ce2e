//! The reconfiguration protocol — Algorithm 1 of the paper — as one state machine.
//!
//! [`ReconfigDriver`] reads a consistent `(tag, value)` from the old configuration
//! (blocking concurrent operations at the servers it reaches), writes it into the new
//! configuration (re-encoding if the new configuration uses CAS), has its host publish the
//! new configuration in the metadata service, and then releases the old configuration's
//! servers with `FinishReconfig`. Operations that were blocked either complete in the old
//! configuration (if their tag is at or below the transferred tag) or are failed over to
//! the new configuration, where clients retry.
//!
//! Like the client operations, the driver performs no I/O and reads no clock:
//! [`ReconfigDriver::start`] emits the first round, [`ReconfigDriver::on_reply`] consumes
//! replies, [`ReconfigDriver::tick`] tells it the time, and each answers with a
//! [`ReconfigStep`] — the next round, a resend, the moment to publish, or the verdict. A
//! hosting runtime only moves the messages.

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
/// Phase number of the final `FinishReconfig` round.
pub const PHASE_FINISH: u8 = 14;

/// The round the driver is awaiting. Its discriminant is the `round` field of
/// [`StoreError::ReconfigStalled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// `ReconfigQuery` to the old placement: the highest tag (and, from ABD, its value).
    Query = 1,
    /// `ReconfigGet` to the old placement: that tag's codeword symbols (CAS only).
    Collect = 2,
    /// `ReconfigWrite` of the transferred value to the new placement.
    WriteNew = 3,
    /// `FinishReconfig` to the old placement, once the metadata is published.
    Finish = 4,
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

/// The reconfiguration controller: Algorithm 1's rounds, paced through faults. Every
/// round is idempotent at the servers (duplicate queries re-answer, duplicate installs
/// merge by tag, and replies are deduplicated per data center), so a round that makes no
/// progress for one operation timeout is re-sent in full, and the whole transfer gives up
/// at [`ReconfigDriver::DEADLINE_TIMEOUTS`] timeouts. The host supplies the time with
/// every input and moves the messages.
#[derive(Debug, Clone)]
pub struct ReconfigDriver {
    key: Key,
    old: Configuration,
    /// The target configuration, its epoch already bumped.
    new: Configuration,
    round: Round,
    query_quorum: QuorumTracker,
    collect_quorum: QuorumTracker,
    write_quorum: QuorumTracker,
    highest_tag: Tag,
    /// The value to transfer: the one stored under the highest tag an ABD old placement
    /// reported, or the one decoded from a CAS old placement's symbols.
    value: Option<Value>,
    /// Symbols collected from a CAS old placement, at most one per symbol index.
    shards: Vec<Shard>,
    /// Finish messages not yet acknowledged (empty until write-new completes).
    unacked_finish: Vec<Outbound>,
    op_timeout_ns: u64,
    resend_at_ns: u64,
    deadline_ns: u64,
}

impl ReconfigDriver {
    /// The controller gives up this many operation timeouts after it started. Servers
    /// hold their epoch lease for twice as long, so a live controller always finishes
    /// or stalls out before any server gives up on it.
    pub const DEADLINE_TIMEOUTS: u64 = 8;

    /// A driver moving `key` from `old` to `new`, started at `now_ns`. The new
    /// configuration's epoch is forced to be the successor of the old one.
    pub fn new(key: Key, old: Configuration, mut new: Configuration, op_timeout_ns: u64, now_ns: u64) -> Self {
        new.epoch = old.epoch.next();
        let n_old = old.n;
        let (query_needed, collect_needed) = match old.protocol {
            ProtocolKind::Abd => (n_old - old.quorums.size(QuorumId::Q2) + 1, 0),
            ProtocolKind::Cas => {
                let q3 = old.quorums.size(QuorumId::Q3);
                let q4 = old.quorums.size(QuorumId::Q4);
                ((n_old - q3 + 1).max(n_old - q4 + 1), q4)
            }
        };
        let write_needed = match new.protocol {
            ProtocolKind::Abd => new.quorums.size(QuorumId::Q2),
            ProtocolKind::Cas => new
                .quorums
                .size(QuorumId::Q2)
                .max(new.quorums.size(QuorumId::Q3)),
        };
        ReconfigDriver {
            key,
            old,
            new,
            round: Round::Query,
            query_quorum: QuorumTracker::new(query_needed),
            collect_quorum: QuorumTracker::new(collect_needed),
            write_quorum: QuorumTracker::new(write_needed),
            highest_tag: Tag::INITIAL,
            value: None,
            shards: Vec::new(),
            unacked_finish: Vec::new(),
            op_timeout_ns,
            resend_at_ns: now_ns + op_timeout_ns,
            deadline_ns: now_ns + op_timeout_ns * Self::DEADLINE_TIMEOUTS,
        }
    }

    /// The first round's messages: `ReconfigQuery` to every server of the old placement.
    pub fn start(&self) -> Vec<Outbound> {
        self.round_messages(Round::Query)
    }

    /// When the host must call [`ReconfigDriver::tick`] if no reply arrives first.
    pub fn wake_ns(&self) -> u64 {
        self.resend_at_ns.min(self.deadline_ns)
    }

    /// Feeds in one reply.
    pub fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply, now_ns: u64) -> ReconfigStep {
        let complete = match (self.round, phase) {
            (Round::Query, PHASE_QUERY) => self.on_query_reply(from, reply),
            (Round::Collect, PHASE_COLLECT) => self.on_collect_reply(from, reply),
            (Round::WriteNew, PHASE_WRITE) => {
                matches!(reply, ProtoReply::Ack) && self.write_quorum.record(from)
            }
            (Round::Finish, PHASE_FINISH) => {
                self.unacked_finish.retain(|out| out.to != from);
                return if self.unacked_finish.is_empty() {
                    ReconfigStep::Done(Ok(()))
                } else {
                    ReconfigStep::Wait
                };
            }
            _ => false,
        };
        if !complete {
            return ReconfigStep::Wait;
        }
        self.resend_at_ns = now_ns + self.op_timeout_ns;
        self.round = match (self.round, self.old.protocol) {
            (Round::Query, ProtocolKind::Cas) => Round::Collect,
            (Round::Query | Round::Collect, _) => Round::WriteNew,
            _ => Round::Finish,
        };
        if self.round != Round::Finish {
            return ReconfigStep::Send(self.round_messages(self.round));
        }
        self.unacked_finish = self.to_each(&self.old, PHASE_FINISH, |_| ProtoMsg::FinishReconfig {
            highest_tag: self.highest_tag,
            new_config: Box::new(self.new.clone()),
        });
        ReconfigStep::Publish {
            new_config: Box::new(self.new.clone()),
            finish: self.unacked_finish.clone(),
        }
    }

    /// Tells the driver the time, at or after [`ReconfigDriver::wake_ns`].
    pub fn tick(&mut self, now_ns: u64) -> ReconfigStep {
        if now_ns >= self.deadline_ns {
            return ReconfigStep::Done(match self.round {
                Round::Finish => Ok(()),
                round => Err(StoreError::ReconfigStalled { epoch: self.new.epoch, round: round as u8 }),
            });
        }
        if now_ns < self.resend_at_ns {
            return ReconfigStep::Wait;
        }
        self.resend_at_ns = now_ns + self.op_timeout_ns;
        ReconfigStep::Send(self.round_messages(self.round))
    }

    /// Folds in one query reply: the highest tag, and from ABD the value stored under
    /// it. True once the query quorum is reached.
    fn on_query_reply(&mut self, from: DcId, reply: ProtoReply) -> bool {
        match reply {
            ProtoReply::AbdTagValue { tag, value } => {
                if tag >= self.highest_tag {
                    self.highest_tag = tag;
                    self.value = Some(value);
                }
            }
            ProtoReply::TagOnly { tag } => self.highest_tag = self.highest_tag.max(tag),
            _ => return false,
        }
        self.query_quorum.record(from)
    }

    /// Keeps the highest tag's symbol from one collect reply. True once a collect quorum
    /// has answered and the symbols decode.
    fn on_collect_reply(&mut self, from: DcId, reply: ProtoReply) -> bool {
        if let ProtoReply::CasShard { tag, shard: Some(data) } = reply {
            if let Some(idx) = self.old.symbol_index(from).filter(|_| tag == self.highest_tag) {
                // Resent rounds can produce duplicate replies; a repeated symbol index
                // must not count toward `k`.
                if !self.shards.iter().any(|s| s.index == idx) {
                    self.shards.push(Shard::new(idx, data));
                }
            }
        }
        self.collect_quorum.record(from);
        // Too few decodable shards keeps the round open: `tick` resends it and the
        // deadline ends the attempt as `ReconfigStalled`.
        if !self.collect_quorum.reached() || self.shards.len() < self.old.k {
            return false;
        }
        match decode_value(&self.shards, self.old.n, self.old.k) {
            Ok(bytes) => {
                self.value = Some(Value::from(bytes));
                true
            }
            Err(_) => false,
        }
    }

    /// The messages of `round`: its first send, and its resend on a timeout (the finish
    /// round resends only to the servers that have not acknowledged it).
    fn round_messages(&self, round: Round) -> Vec<Outbound> {
        match round {
            Round::Query => self.to_each(&self.old, PHASE_QUERY, |_| ProtoMsg::ReconfigQuery {
                new_config: Box::new(self.new.clone()),
            }),
            Round::Collect => self.to_each(&self.old, PHASE_COLLECT, |_| ProtoMsg::ReconfigGet {
                tag: self.highest_tag,
            }),
            Round::WriteNew => {
                let value = self.value.as_ref().expect("value available before write");
                let shards = (self.new.protocol == ProtocolKind::Cas).then(|| {
                    encode_value(value.as_bytes(), self.new.n, self.new.k)
                        .expect("validated configuration")
                });
                self.to_each(&self.new, PHASE_WRITE, |idx| ProtoMsg::ReconfigWrite {
                    tag: self.highest_tag,
                    data: match &shards {
                        Some(shards) => ReconfigPayload::Shard(shards[idx].data.clone()),
                        None => ReconfigPayload::Value(value.clone()),
                    },
                    config: Box::new(self.new.clone()),
                })
            }
            Round::Finish => self.unacked_finish.clone(),
        }
    }

    /// One `phase` message per data center of `placement`, in placement order. `msg`
    /// receives the data center's position, which is also its symbol index.
    fn to_each(
        &self,
        placement: &Configuration,
        phase: u8,
        msg: impl Fn(usize) -> ProtoMsg,
    ) -> Vec<Outbound> {
        let outbound = |(idx, &to): (usize, &DcId)| Outbound {
            to,
            phase,
            key: self.key.clone(),
            epoch: placement.epoch,
            msg: msg(idx),
        };
        placement.dcs.iter().enumerate().map(outbound).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Completed, Host, OpDriver, OpSpec, Step};
    use crate::server::{DcServer, Inbound, Reply};
    use legostore_types::{ClientId, ConfigEpoch};
    use std::collections::{BTreeMap, VecDeque};

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

    /// Hands `out` to its server, replies addressed to endpoint `from`.
    fn deliver(servers: &mut BTreeMap<DcId, DcServer>, from: u64, out: Outbound) -> Vec<Reply> {
        servers.get_mut(&out.to).unwrap().handle(Inbound::new(from, out))
    }

    /// What a completed reconfiguration left behind.
    struct Transfer {
        new_config: Configuration,
        finish: Vec<Outbound>,
    }

    impl Transfer {
        /// The tag the finish round releases the old placement at.
        fn highest_tag(&self) -> Tag {
            let ProtoMsg::FinishReconfig { highest_tag, .. } = &self.finish[0].msg else {
                panic!("{:?}", self.finish[0])
            };
            *highest_tag
        }
    }

    /// Runs a full reconfiguration against in-memory servers, delivering every message in
    /// send order — write-new stragglers land before the finish round, as in a runtime
    /// that does not cancel them — until every finish is acknowledged.
    fn run_reconfig(
        servers: &mut BTreeMap<DcId, DcServer>,
        old: &Configuration,
        new: &Configuration,
    ) -> Transfer {
        let mut driver = ReconfigDriver::new(Key::from("k"), old.clone(), new.clone(), 100, 0);
        let mut inflight = VecDeque::from(driver.start());
        let mut published = None;
        while let Some(out) = inflight.pop_front() {
            let to = out.to;
            for r in deliver(servers, 0, out) {
                match driver.on_reply(to, r.phase, r.reply, 0) {
                    ReconfigStep::Wait => {}
                    ReconfigStep::Send(more) => inflight.extend(more),
                    ReconfigStep::Publish { new_config, finish } => {
                        inflight.extend(finish.clone());
                        published = Some(Transfer { new_config: *new_config, finish });
                    }
                    ReconfigStep::Done(result) => {
                        assert_eq!(result, Ok(()));
                        return published.expect("published before done");
                    }
                }
            }
        }
        panic!("driver stalled in {:?}", driver.round);
    }

    /// Reads the key back from `config`'s servers with a client GET.
    fn read_back(servers: &mut BTreeMap<DcId, DcServer>, config: &Configuration) -> Completed {
        let spec =
            OpSpec { key: Key::from("k"), client_dc: config.dcs[0], client_id: ClientId(9), max_attempts: 1 };
        let host = Host { now_ns: &|| 0, metadata: &|| None, cache: &|| None };
        let mut get = OpDriver::new(spec, config.clone(), None, None, &host);
        let mut inflight = VecDeque::from(get.open_attempt(&host));
        while let Some(out) = inflight.pop_front() {
            let to = out.to;
            for r in deliver(servers, 1, out) {
                match get.on_reply(to, r.phase, r.epoch, 0, r.reply, &host) {
                    Step::Wait => {}
                    Step::Send(more) => inflight.extend(more),
                    Step::Done(result) => return result.expect("the read completes"),
                    Step::Reopen(cause) => panic!("read reopened: {cause:?}"),
                }
            }
        }
        panic!("read stalled");
    }

    #[test]
    fn abd_to_cas_reconfiguration_transfers_value() {
        let old = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let mut new = Configuration::cas_default(dcs(&[3, 4, 5, 6]), 2, 1);
        new.epoch = ConfigEpoch(0); // the driver bumps it
        let value = Value::filler(2000);
        let mut servers = deploy(&old, &value, 7);
        let transfer = run_reconfig(&mut servers, &old, &new);
        assert_eq!(transfer.highest_tag(), Tag::new(3, ClientId(1)));
        assert_eq!(transfer.new_config.epoch, ConfigEpoch(1));
        let read = read_back(&mut servers, &transfer.new_config);
        assert_eq!((read.tag, read.value), (Tag::new(3, ClientId(1)), value));
        // New configuration servers now host the key at the new epoch with the CAS shards.
        for dc in &transfer.new_config.dcs {
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
        let transfer = run_reconfig(&mut servers, &old, &new);
        assert_eq!(read_back(&mut servers, &transfer.new_config).value, value);
        // The new ABD servers hold the full value.
        for dc in &transfer.new_config.dcs {
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
        let transfer = run_reconfig(&mut servers, &old, &new);
        assert_eq!(read_back(&mut servers, &transfer.new_config).value, value);
        let expected_shard = legostore_erasure::shard_len(1024, 2) as u64;
        for dc in &transfer.new_config.dcs {
            let s = servers.get(dc).unwrap();
            let state = s.key_state(&Key::from("k"), ConfigEpoch(1)).unwrap();
            assert_eq!(state.storage_bytes(), expected_shard);
        }
    }

    #[test]
    fn quorum_sizes_follow_the_paper() {
        let driver = |old: &Configuration, new: &Configuration| {
            ReconfigDriver::new(Key::from("k"), old.clone(), new.clone(), 100, 0)
        };
        // ABD old: wait for N - q2 + 1 responses.
        let old = Configuration::abd_majority(dcs(&[0, 1, 2, 3, 4]), 1);
        let new = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        let d = driver(&old, &new);
        assert_eq!(d.query_quorum.needed(), 5 - 3 + 1);
        assert_eq!(d.write_quorum.needed(), 2);
        // CAS old: wait for max(N-q3+1, N-q4+1).
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new_cas = Configuration::cas_default(dcs(&[5, 6, 7, 8]), 2, 1);
        let d = driver(&old, &new_cas);
        let q3 = old.quorums.size(QuorumId::Q3);
        let q4 = old.quorums.size(QuorumId::Q4);
        assert_eq!(d.query_quorum.needed(), (5 - q3 + 1).max(5 - q4 + 1));
        assert_eq!(d.collect_quorum.needed(), q4);
        assert_eq!(
            d.write_quorum.needed(),
            new_cas.quorums.size(QuorumId::Q2).max(new_cas.quorums.size(QuorumId::Q3))
        );
    }

    #[test]
    fn a_symbol_answered_twice_is_stored_once() {
        // The codec also skips repeated indices, so a step-level table cannot tell;
        // keeping one symbol per index bounds the list across resends and skips decodes
        // that cannot succeed.
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new = Configuration::abd_majority(dcs(&[5, 6, 7]), 1);
        let mut d = ReconfigDriver::new(Key::from("k"), old.clone(), new, 100, 0);
        let tag = Tag::new(3, ClientId(1));
        for dc in &old.dcs {
            d.on_reply(*dc, PHASE_QUERY, ProtoReply::TagOnly { tag }, 0);
        }
        assert_eq!(d.round, Round::Collect);
        let symbols = encode_value(b"v", 5, 3).unwrap();
        for _ in 0..2 {
            let reply = ProtoReply::CasShard { tag, shard: Some(symbols[0].data.clone()) };
            assert_eq!(d.on_reply(DcId(0), PHASE_COLLECT, reply, 0), ReconfigStep::Wait);
        }
        assert_eq!(d.shards.len(), 1);
    }

    #[test]
    fn epoch_is_bumped_exactly_once() {
        let mut old = Configuration::abd_majority(dcs(&[0, 1, 2]), 1);
        old.epoch = ConfigEpoch(7);
        let new = Configuration::abd_majority(dcs(&[3, 4, 5]), 1);
        let mut servers = deploy(&old, &Value::from("v"), 6);
        let transfer = run_reconfig(&mut servers, &old, &new);
        assert_eq!(transfer.new_config.epoch, ConfigEpoch(8));
        for out in &transfer.finish {
            let ProtoMsg::FinishReconfig { new_config, .. } = &out.msg else { panic!("{out:?}") };
            assert_eq!((out.epoch, new_config.epoch), (ConfigEpoch(7), ConfigEpoch(8)));
        }
    }

    #[test]
    fn finish_messages_target_all_old_servers() {
        let old = Configuration::cas_default(dcs(&[0, 1, 2, 3, 4]), 3, 1);
        let new = Configuration::abd_majority(dcs(&[5, 6, 7]), 1);
        let value = Value::filler(100);
        let mut servers = deploy(&old, &value, 8);
        let transfer = run_reconfig(&mut servers, &old, &new);
        let targets: Vec<DcId> = transfer.finish.iter().map(|o| o.to).collect();
        assert_eq!(targets, old.dcs);
        assert!(transfer
            .finish
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
        let driver = ReconfigDriver::new(Key::from("k"), old.clone(), new.clone(), 100, 0);
        let queries = driver.start();
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
