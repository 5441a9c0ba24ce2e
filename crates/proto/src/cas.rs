//! The CAS (Coded Atomic Storage) protocol — Figures 8 and 9 of the paper.
//!
//! Servers store a list of `(tag, codeword symbol?, label)` triples per key, where the label
//! is `pre` (value staged but not yet safe to expose) or `fin` (finalized). PUT runs three
//! phases (query, pre-write, finalize); GET runs two (query, finalize-read + decode). The
//! *optimized GET* uses a client-side cache of the last decoded `(tag, value)` to finish in
//! one phase when the highest finalized tag has not changed.
//!
//! Garbage collection (Appendix F) prunes triples older than the latest finalized version;
//! it never affects safety, only the ability of very slow concurrent readers to terminate,
//! and the paper sets the horizon orders of magnitude above operation latencies.

use crate::msg::{OpOutcome, OpProgress, Outbound, ProtoMsg, ProtoReply};
use crate::quorum::OpCore;
use bytes::Bytes;
use legostore_erasure::{decode_value, encode_value, Shard};
use legostore_types::{ClientId, Configuration, DcId, Key, QuorumId, StoreError, Tag, Value};
use std::collections::BTreeMap;

/// Label attached to every stored triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Staged by a pre-write; not yet visible to queries.
    Pre,
    /// Finalized; visible to queries.
    Fin,
}

/// Per-key server state for CAS.
#[derive(Debug, Clone, PartialEq)]
pub struct CasKeyState {
    /// Version history: tag → (codeword symbol if stored locally, label). Symbols are
    /// shared [`Bytes`] handles, so storing a received shard never copies it.
    triples: BTreeMap<Tag, (Option<Bytes>, Label)>,
    /// The tag this state was installed with. For a state installed by a
    /// reconfiguration transfer this is the transferred `highest_tag`: every version
    /// strictly below it was already superseded in the *old* epoch, so requests about
    /// older tags (stragglers from before the move, or a stale second controller) are
    /// acknowledged without storing anything — the floor is the server-side half of the
    /// cross-epoch dedup invariant.
    transfer_floor: Tag,
}

impl CasKeyState {
    /// Initial state holding this server's codeword symbol of the initial value, finalized.
    pub fn new(tag: Tag, shard: Option<Bytes>) -> Self {
        let mut triples = BTreeMap::new();
        triples.insert(tag, (shard, Label::Fin));
        CasKeyState { triples, transfer_floor: tag }
    }

    /// Highest tag labeled `fin`, if any.
    pub fn highest_fin(&self) -> Option<Tag> {
        self.triples
            .iter()
            .rev()
            .find(|(_, (_, l))| *l == Label::Fin)
            .map(|(t, _)| *t)
    }

    /// Number of stored triples (used by GC tests and storage metering).
    pub fn version_count(&self) -> usize {
        self.triples.len()
    }

    /// Bytes of storage consumed by all stored symbols.
    pub fn storage_bytes(&self) -> u64 {
        self.triples
            .values()
            .map(|(s, _)| s.as_ref().map(|v| v.len() as u64).unwrap_or(0))
            .sum()
    }

    /// Handles a CAS request, returning the reply.
    pub fn handle(&mut self, msg: &ProtoMsg) -> ProtoReply {
        match msg {
            ProtoMsg::CasQuery => match self.highest_fin() {
                Some(tag) => ProtoReply::TagOnly { tag },
                None => ProtoReply::TagOnly { tag: Tag::INITIAL },
            },
            ProtoMsg::CasPreWrite { tag, shard } => {
                if *tag >= self.transfer_floor {
                    self.triples
                        .entry(*tag)
                        .or_insert_with(|| (Some(shard.clone()), Label::Pre));
                }
                ProtoReply::Ack
            }
            ProtoMsg::CasFinalizeWrite { tag } => {
                if *tag >= self.transfer_floor {
                    match self.triples.get_mut(tag) {
                        Some((_, label)) => *label = Label::Fin,
                        None => {
                            self.triples.insert(*tag, (None, Label::Fin));
                        }
                    }
                }
                ProtoReply::Ack
            }
            ProtoMsg::CasFinalizeRead { tag } => {
                if *tag < self.transfer_floor {
                    // A pre-floor version was superseded before the transfer; answer
                    // without resurrecting a metadata-only triple for it.
                    return ProtoReply::CasShard { tag: *tag, shard: None };
                }
                match self.triples.get_mut(tag) {
                    Some((shard, label)) => {
                        *label = Label::Fin;
                        ProtoReply::CasShard {
                            tag: *tag,
                            shard: shard.clone(),
                        }
                    }
                    None => {
                        self.triples.insert(*tag, (None, Label::Fin));
                        ProtoReply::CasShard { tag: *tag, shard: None }
                    }
                }
            }
            other => ProtoReply::Error(StoreError::Internal(format!(
                "CAS server cannot handle {other:?}"
            ))),
        }
    }

    /// Garbage-collects versions strictly older than the highest finalized tag.
    ///
    /// `keep_recent` additional most-recent older versions are retained as a safety margin
    /// for slow concurrent readers (the paper uses a time horizon; a version-count horizon
    /// is equivalent for bounded-latency operations). Returns the number of removed triples.
    pub fn garbage_collect(&mut self, keep_recent: usize) -> usize {
        let Some(highest_fin) = self.highest_fin() else {
            return 0;
        };
        let older: Vec<Tag> = self
            .triples
            .range(..highest_fin)
            .rev()
            .skip(keep_recent)
            .map(|(t, _)| *t)
            .collect();
        let removed = older.len();
        for t in older {
            self.triples.remove(&t);
        }
        removed
    }
}

/// Client-side state machine for a CAS PUT (3 phases).
#[derive(Debug, Clone)]
pub struct CasPut {
    pub(crate) core: OpCore,
    client_id: ClientId,
    value: Value,
    max_tag: Tag,
    new_tag: Option<Tag>,
    /// The codeword of `value` under the configuration's `(n, k)` code: built on entering
    /// phase 2 (never in [`CasPut::new`]) and reused by every timeout re-send.
    encoded: Vec<Shard>,
}

impl CasPut {
    /// Creates the state machine. The value is erasure-coded only once phase 1 has
    /// chosen the tag, inside the `on_reply` that completes it.
    pub fn new(
        key: Key,
        config: Configuration,
        client_dc: DcId,
        client_id: ClientId,
        value: Value,
    ) -> Self {
        let needed = [QuorumId::Q1, QuorumId::Q2, QuorumId::Q3].map(|q| config.quorums.size(q));
        CasPut {
            core: OpCore::new(key, config, client_dc, &needed),
            client_id,
            value,
            max_tag: Tag::INITIAL,
            new_tag: None,
            encoded: Vec::new(),
        }
    }

    /// Rebuilds a PUT that already chose its tag in a *previous* configuration epoch so
    /// it re-enters the new epoch at the pre-write phase with that tag pinned.
    ///
    /// Cross-epoch analogue of [`CasPut::resend_widened`]'s tag pinning (see
    /// [`crate::AbdPut::resume_write`] for the full linearizability argument). The value
    /// is re-encoded under the *new* configuration's `(n, k)` code — the old epoch's
    /// symbols are useless in a placement with different hosts or code parameters — but
    /// the tag survives the move, so wherever the transfer already delivered this
    /// version the re-sent pre-write/finalize pair is absorbed idempotently.
    pub fn resume_write(
        key: Key,
        config: Configuration,
        client_dc: DcId,
        client_id: ClientId,
        tag: Tag,
        value: Value,
    ) -> Self {
        let mut put = CasPut::new(key, config, client_dc, client_id, value);
        put.enter_pre_write(tag);
        put
    }

    /// Pins `tag`, encodes the value and moves to phase 2.
    fn enter_pre_write(&mut self, tag: Tag) {
        let config = &self.core.config;
        self.encoded = encode_value(self.value.as_bytes(), config.n, config.k)
            .expect("configuration was validated");
        self.new_tag = Some(tag);
        self.core.phase = 2;
    }

    /// The tag this PUT will install (available once phase 1 completes).
    pub fn chosen_tag(&self) -> Option<Tag> {
        self.new_tag
    }

    /// Messages for the first phase this machine runs: the query for a fresh PUT, or
    /// the pinned-tag pre-write fan-out for a machine built by [`CasPut::resume_write`].
    pub fn start(&self) -> Vec<Outbound> {
        let tag = || self.new_tag.expect("past phase 1 the tag is chosen");
        match self.core.phase {
            1 => self.core.fan_out(QuorumId::Q1, |_| Some(ProtoMsg::CasQuery)),
            2 => self.core.fan_out(QuorumId::Q2, |to| {
                let shard = self.encoded[self.core.config.symbol_index(to)?].data.clone();
                Some(ProtoMsg::CasPreWrite { tag: tag(), shard })
            }),
            _ => self.core.fan_out(QuorumId::Q3, |_| Some(ProtoMsg::CasFinalizeWrite { tag: tag() })),
        }
    }

    /// Re-sends the current phase's messages to every DC of the placement — the paper's
    /// §4.5 timeout handling. As with [`crate::AbdPut::resend_widened`], resuming with
    /// the pinned [`CasPut::chosen_tag`] is a linearizability requirement: a restarted
    /// attempt would pick a fresh higher tag, and the partially-finalized old tag could
    /// surface to readers *before* an interleaved writer while the fresh tag surfaces
    /// *after* it — one PUT, two linearization points. The widening is sticky: later
    /// phases of the resumed operation also target the full placement.
    pub fn resend_widened(&mut self) -> Vec<Outbound> {
        self.core.widen();
        self.start()
    }

    /// Feeds one reply into the state machine.
    pub fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        let reply = match self.core.screen(from, phase, reply) {
            Ok(reply) => reply,
            Err(progress) => return progress,
        };
        match (self.core.phase, reply) {
            (1, ProtoReply::TagOnly { tag }) => {
                self.max_tag = self.max_tag.max(tag);
                if !self.core.record(from) {
                    return OpProgress::Pending;
                }
                self.enter_pre_write(self.max_tag.successor(self.client_id));
                OpProgress::Send(self.start())
            }
            (2, ProtoReply::Ack) if self.core.record(from) => {
                self.core.phase = 3;
                OpProgress::Send(self.start())
            }
            (3, ProtoReply::Ack) if self.core.record(from) => OpProgress::Done(OpOutcome::PutOk {
                tag: self.new_tag.expect("set in phase 1"),
            }),
            _ => OpProgress::Pending,
        }
    }
}

/// Client-side state machine for a CAS GET (2 phases, optional one-phase fast path).
#[derive(Debug, Clone)]
pub struct CasGet {
    pub(crate) core: OpCore,
    max_fin_tag: Tag,
    target_tag: Option<Tag>,
    shards: Vec<Shard>,
    /// Targets of the finalize-read phase (needed to detect exhaustion; compared against
    /// the phase's *distinct* responder count, so duplicated replies cannot fake it).
    phase2_targets: usize,
    /// Client-side cache from a previous GET: `(tag, value)` (the optimized-GET fast path).
    cache: Option<(Tag, Value)>,
}

impl CasGet {
    /// Creates the state machine. `cache` carries the client's last decoded `(tag, value)`
    /// for this key; if the highest finalized tag is unchanged the GET finishes in one phase.
    pub fn new(
        key: Key,
        config: Configuration,
        client_dc: DcId,
        cache: Option<(Tag, Value)>,
    ) -> Self {
        let needed = [config.quorums.size(QuorumId::Q1), config.quorums.size(QuorumId::Q4)];
        CasGet {
            core: OpCore::new(key, config, client_dc, &needed),
            max_fin_tag: Tag::INITIAL,
            target_tag: None,
            shards: Vec::new(),
            phase2_targets: 0,
            cache,
        }
    }

    /// Messages for phase 1 (query for the highest finalized tag).
    pub fn start(&self) -> Vec<Outbound> {
        self.core.fan_out(QuorumId::Q1, |_| Some(ProtoMsg::CasQuery))
    }

    /// The finalize-read fan-out for the chosen target tag.
    fn finalize_read(&mut self) -> Vec<Outbound> {
        let tag = self.target_tag.expect("phase 2 implies a target tag");
        let msgs = self.core.fan_out(QuorumId::Q4, |_| Some(ProtoMsg::CasFinalizeRead { tag }));
        self.phase2_targets = msgs.len();
        msgs
    }

    /// Re-sends the current phase's messages to every DC of the placement (§4.5 timeout
    /// handling; see [`CasPut::resend_widened`]). The finalize-read targets widen to the
    /// whole placement, so the symbol hunt for the target tag gets every surviving coded
    /// element a chance to answer. The widening is sticky: a phase-1 resume that later
    /// advances to the finalize-read also targets the full placement.
    pub fn resend_widened(&mut self) -> Vec<Outbound> {
        self.core.widen();
        match self.core.phase {
            1 => self.start(),
            _ => self.finalize_read(),
        }
    }

    /// Feeds one reply into the state machine.
    pub fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        let reply = match self.core.screen(from, phase, reply) {
            Ok(reply) => reply,
            Err(progress) => return progress,
        };
        let config = &self.core.config;
        match (self.core.phase, reply) {
            (1, ProtoReply::TagOnly { tag }) => {
                self.max_fin_tag = self.max_fin_tag.max(tag);
                if !self.core.record(from) {
                    return OpProgress::Pending;
                }
                let target = self.max_fin_tag;
                // Optimized GET: the cached value is exactly the finalized version the
                // second phase would decode.
                if let Some((_, value)) = self.cache.take().filter(|(tag, _)| *tag == target) {
                    return OpProgress::Done(OpOutcome::GetOk { tag: target, value, one_phase: true });
                }
                self.target_tag = Some(target);
                self.core.phase = 2;
                OpProgress::Send(self.finalize_read())
            }
            (2, ProtoReply::CasShard { tag, shard }) => {
                let target = self.target_tag.expect("phase 2 implies target chosen");
                if let (true, Some(data), Some(idx)) = (tag == target, shard, config.symbol_index(from)) {
                    // Dedupe by symbol index: a widened re-send can elicit a second
                    // reply from a DC whose element is already collected.
                    if !self.shards.iter().any(|s| s.index == idx) {
                        self.shards.push(Shard::new(idx, data));
                    }
                }
                let (n, k) = (config.n, config.k);
                self.core.record(from);
                let q4 = self.core.tracker(2);
                let starved = StoreError::DecodeFailed { have: self.shards.len(), need: k };
                if q4.reached() && self.shards.len() >= k {
                    OpProgress::Done(match decode_value(&self.shards, n, k) {
                        Ok(bytes) => OpOutcome::GetOk {
                            tag: target,
                            value: Value::from(bytes),
                            one_phase: false,
                        },
                        Err(_) => OpOutcome::Failed(starved),
                    })
                } else if q4.count() >= self.phase2_targets && self.shards.len() < k {
                    // Every contacted server answered (distinct responders, so duplicated
                    // replies can't fake exhaustion) but too few had the symbol; the
                    // driver retries with a fresh machine.
                    OpProgress::Done(OpOutcome::Failed(starved))
                } else {
                    OpProgress::Pending
                }
            }
            _ => OpProgress::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReconfigPayload;
    use crate::server::DcServer;

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    /// The CAS states CREATE installs for a fresh key: each host's own symbol of `initial`,
    /// tagged [`Tag::INITIAL`].
    fn initial_cas_states(config: &Configuration, initial: &Value) -> BTreeMap<DcId, CasKeyState> {
        DcServer::initial_payloads(config, initial)
            .into_iter()
            .map(|(dc, payload)| {
                let ReconfigPayload::Shard(symbol) = payload else { panic!("CAS payload") };
                (dc, CasKeyState::new(Tag::INITIAL, Some(symbol)))
            })
            .collect()
    }

    fn config53() -> Configuration {
        Configuration::cas_default(dcs(5), 3, 1)
    }

    fn run_put(
        servers: &mut BTreeMap<DcId, CasKeyState>,
        config: &Configuration,
        client_id: u32,
        value: &Value,
    ) -> OpOutcome {
        let mut put = CasPut::new(
            Key::from("k"),
            config.clone(),
            DcId(0),
            ClientId(client_id),
            value.clone(),
        );
        let mut inflight = put.start();
        loop {
            let out = inflight.remove(0);
            let reply = servers.get_mut(&out.to).unwrap().handle(&out.msg);
            match put.on_reply(out.to, out.phase, reply) {
                OpProgress::Pending => {}
                OpProgress::Send(more) => inflight.extend(more),
                OpProgress::Done(outcome) => return outcome,
            }
            assert!(!inflight.is_empty(), "protocol stalled");
        }
    }

    fn run_get(
        servers: &mut BTreeMap<DcId, CasKeyState>,
        config: &Configuration,
        cache: Option<(Tag, Value)>,
    ) -> OpOutcome {
        let mut get = CasGet::new(Key::from("k"), config.clone(), DcId(0), cache);
        let mut inflight = get.start();
        loop {
            let out = inflight.remove(0);
            let reply = servers.get_mut(&out.to).unwrap().handle(&out.msg);
            match get.on_reply(out.to, out.phase, reply) {
                OpProgress::Pending => {}
                OpProgress::Send(more) => inflight.extend(more),
                OpProgress::Done(outcome) => return outcome,
            }
            assert!(!inflight.is_empty(), "protocol stalled");
        }
    }

    #[test]
    fn put_resend_pins_the_chosen_tag_across_phases() {
        let config = config53();
        let mut put = CasPut::new(
            Key::from("k"),
            config.clone(),
            DcId(0),
            ClientId(4),
            Value::filler(600),
        );
        put.start();
        // Complete phase 1 (q1 = 2 of 5 for CAS(5,3)): the tag is chosen.
        assert_eq!(
            put.on_reply(DcId(0), 1, ProtoReply::TagOnly { tag: Tag::INITIAL }),
            OpProgress::Pending
        );
        let OpProgress::Send(pre) = put.on_reply(DcId(1), 1, ProtoReply::TagOnly { tag: Tag::INITIAL })
        else {
            panic!()
        };
        assert!(pre.iter().all(|m| m.phase == 2));
        let tag = put.chosen_tag().expect("phase 1 done");
        // A timed-out attempt resumes phase 2 with the *same* tag on all 5 DCs (a
        // restarted machine would re-query and pick a fresh higher tag — the
        // double-effect hazard).
        let resent = put.resend_widened();
        assert_eq!(resent.len(), 5);
        for m in &resent {
            let ProtoMsg::CasPreWrite { tag: t, .. } = &m.msg else { panic!("{m:?}") };
            assert_eq!(*t, tag);
        }
        // Advance to phase 3 (q2 = 4 acks) and resend there too: still the same tag.
        for dc in 0..3 {
            assert_eq!(put.on_reply(DcId(dc), 2, ProtoReply::Ack), OpProgress::Pending);
        }
        let OpProgress::Send(fins) = put.on_reply(DcId(3), 2, ProtoReply::Ack) else { panic!() };
        assert!(fins.iter().all(|m| matches!(m.msg, ProtoMsg::CasFinalizeWrite { tag: t } if t == tag)));
        let refins = put.resend_widened();
        assert_eq!(refins.len(), 5);
        assert!(refins
            .iter()
            .all(|m| matches!(m.msg, ProtoMsg::CasFinalizeWrite { tag: t } if t == tag)));
    }

    #[test]
    fn resumed_put_starts_at_pre_write_with_pinned_tag_and_fresh_code() {
        // The old epoch ran CAS(5,3); the new placement runs CAS(4,1). The resumed PUT
        // must keep its old tag but encode under the new code.
        let new_config = Configuration::cas_default(dcs(4), 1, 1);
        let pinned = Tag::new(3, ClientId(2));
        let payload = Value::filler(700);
        let mut put = CasPut::resume_write(
            Key::from("k"),
            new_config.clone(),
            DcId(0),
            ClientId(2),
            pinned,
            payload.clone(),
        );
        let msgs = put.start();
        assert!(!msgs.is_empty());
        for m in &msgs {
            assert_eq!(m.phase, 2);
            let ProtoMsg::CasPreWrite { tag, shard } = &m.msg else { panic!("{m:?}") };
            assert_eq!(*tag, pinned);
            assert_eq!(shard.len(), legostore_erasure::shard_len(700, new_config.k));
        }
        // Drive it to completion against servers seeded by a transfer at the same tag:
        // the pre-write is absorbed idempotently and the PUT finishes under `pinned`.
        let mut servers: BTreeMap<DcId, CasKeyState> = new_config
            .dcs
            .iter()
            .map(|d| {
                let idx = new_config.symbol_index(*d).unwrap();
                let shards = encode_value(payload.as_bytes(), new_config.n, new_config.k).unwrap();
                (*d, CasKeyState::new(pinned, Some(shards[idx].data.clone())))
            })
            .collect();
        let mut inflight = msgs;
        let outcome = loop {
            let out = inflight.remove(0);
            let reply = servers.get_mut(&out.to).unwrap().handle(&out.msg);
            match put.on_reply(out.to, out.phase, reply) {
                OpProgress::Pending => {}
                OpProgress::Send(more) => inflight.extend(more),
                OpProgress::Done(outcome) => break outcome,
            }
            assert!(!inflight.is_empty(), "protocol stalled");
        };
        assert_eq!(outcome, OpOutcome::PutOk { tag: pinned });
        for s in servers.values() {
            assert_eq!(s.highest_fin(), Some(pinned));
            assert_eq!(s.version_count(), 1, "replay must not grow the history");
        }
    }

    #[test]
    fn transfer_floor_absorbs_pre_floor_stragglers() {
        // A transferred state starts at the moved `highest_tag`; requests about older
        // tags (old-epoch stragglers) are acknowledged but store nothing.
        let floor = Tag::new(5, ClientId(1));
        let mut s = CasKeyState::new(floor, Some(vec![1u8; 8].into()));
        let stale = Tag::new(3, ClientId(9));
        assert_eq!(
            s.handle(&ProtoMsg::CasPreWrite { tag: stale, shard: vec![2u8; 8].into() }),
            ProtoReply::Ack
        );
        assert_eq!(s.handle(&ProtoMsg::CasFinalizeWrite { tag: stale }), ProtoReply::Ack);
        assert_eq!(
            s.handle(&ProtoMsg::CasFinalizeRead { tag: stale }),
            ProtoReply::CasShard { tag: stale, shard: None }
        );
        assert_eq!(s.version_count(), 1, "pre-floor traffic must not grow the history");
        assert_eq!(s.highest_fin(), Some(floor));
        // At or above the floor everything behaves as before.
        let newer = Tag::new(6, ClientId(2));
        s.handle(&ProtoMsg::CasPreWrite { tag: newer, shard: vec![3u8; 8].into() });
        s.handle(&ProtoMsg::CasFinalizeWrite { tag: newer });
        assert_eq!(s.highest_fin(), Some(newer));
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn get_resend_rehunts_symbols_and_dedupes_shards() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let payload = Value::filler(900);
        let OpOutcome::PutOk { tag } = run_put(&mut servers, &config, 1, &payload) else {
            panic!()
        };
        let mut get = CasGet::new(Key::from("k"), config.clone(), DcId(0), None);
        get.start();
        // q1 = 2 query replies pick the target tag.
        assert_eq!(get.on_reply(DcId(0), 1, ProtoReply::TagOnly { tag }), OpProgress::Pending);
        let OpProgress::Send(_) = get.on_reply(DcId(1), 1, ProtoReply::TagOnly { tag }) else {
            panic!()
        };
        // One shard arrives, then the attempt "times out" and resumes: the finalize-read
        // goes to every DC, and the already-collected element must not be double-counted
        // when its server answers again.
        let shard0 = servers.get_mut(&DcId(0)).unwrap().handle(&ProtoMsg::CasFinalizeRead { tag });
        assert_eq!(get.on_reply(DcId(0), 2, shard0.clone()), OpProgress::Pending);
        let resent = get.resend_widened();
        assert_eq!(resent.len(), 5);
        assert!(resent
            .iter()
            .all(|m| matches!(m.msg, ProtoMsg::CasFinalizeRead { tag: t } if t == tag)));
        assert_eq!(get.on_reply(DcId(0), 2, shard0), OpProgress::Pending, "duplicate element");
        // Distinct elements complete the decode once the quorum is met.
        let mut outcome = OpProgress::Pending;
        for dc in 1..5 {
            let reply = servers.get_mut(&DcId(dc)).unwrap().handle(&ProtoMsg::CasFinalizeRead { tag });
            outcome = get.on_reply(DcId(dc), 2, reply);
            if matches!(outcome, OpProgress::Done(_)) {
                break;
            }
        }
        let OpProgress::Done(OpOutcome::GetOk { value, .. }) = outcome else {
            panic!("{outcome:?}")
        };
        assert_eq!(value, payload);
    }

    #[test]
    fn put_then_get_round_trip() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let payload = Value::filler(1000);
        let OpOutcome::PutOk { tag } = run_put(&mut servers, &config, 1, &payload) else {
            panic!()
        };
        assert_eq!(tag.seq, 1);
        let OpOutcome::GetOk { value, one_phase, tag: read_tag } =
            run_get(&mut servers, &config, None)
        else {
            panic!()
        };
        assert_eq!(value, payload);
        assert_eq!(read_tag, tag);
        assert!(!one_phase);
    }

    #[test]
    fn get_of_initial_value() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("genesis"));
        let OpOutcome::GetOk { tag, value, .. } = run_get(&mut servers, &config, None) else {
            panic!()
        };
        assert_eq!(tag, Tag::INITIAL);
        assert_eq!(value, Value::from("genesis"));
    }

    #[test]
    fn cached_get_completes_in_one_phase() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let payload = Value::filler(512);
        let OpOutcome::PutOk { tag } = run_put(&mut servers, &config, 1, &payload) else {
            panic!()
        };
        // Second GET with the (tag, value) cache hits the fast path.
        let OpOutcome::GetOk { value, one_phase, .. } =
            run_get(&mut servers, &config, Some((tag, payload.clone())))
        else {
            panic!()
        };
        assert!(one_phase);
        assert_eq!(value, payload);
        // A stale cache (older tag) must not trigger the fast path.
        let newer = Value::filler(64);
        run_put(&mut servers, &config, 2, &newer);
        let OpOutcome::GetOk { value, one_phase, .. } =
            run_get(&mut servers, &config, Some((tag, payload)))
        else {
            panic!()
        };
        assert!(!one_phase);
        assert_eq!(value, newer);
    }

    #[test]
    fn unfinalized_prewrite_is_invisible_to_reads() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        // Stage a pre-write at every server but never finalize it.
        let tag = Tag::new(7, ClientId(9));
        let shards = encode_value(b"hidden", config.n, config.k).unwrap();
        for (dc, state) in servers.iter_mut() {
            let idx = config.symbol_index(*dc).unwrap();
            state.handle(&ProtoMsg::CasPreWrite { tag, shard: shards[idx].data.clone() });
        }
        // A GET must still return the initial value.
        let OpOutcome::GetOk { tag: read_tag, value, .. } = run_get(&mut servers, &config, None)
        else {
            panic!()
        };
        assert_eq!(read_tag, Tag::INITIAL);
        assert_eq!(value, Value::from("init"));
    }

    #[test]
    fn finalize_read_propagates_fin_label() {
        // The GET's second phase acts as a write-back of the `fin` label.
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let payload = Value::filler(128);
        run_put(&mut servers, &config, 1, &payload);
        // After the PUT, finalize reached q3 servers; run a GET and then every server that
        // was contacted in phase 2 must have the tag finalized.
        run_get(&mut servers, &config, None);
        let fin_count = servers
            .values()
            .filter(|s| s.highest_fin().map(|t| t.seq) == Some(1))
            .count();
        assert!(fin_count >= config.quorums.size(QuorumId::Q4));
    }

    #[test]
    fn concurrent_puts_resolve_by_tag_order() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let a = Value::from("aaaa");
        let b = Value::from("bbbb");
        // Two sequential PUTs from different clients; the second sees the first's tag.
        run_put(&mut servers, &config, 1, &a);
        let OpOutcome::PutOk { tag: tb } = run_put(&mut servers, &config, 2, &b) else { panic!() };
        assert_eq!(tb.seq, 2);
        let OpOutcome::GetOk { value, .. } = run_get(&mut servers, &config, None) else { panic!() };
        assert_eq!(value, b);
    }

    #[test]
    fn cas_k1_behaves_like_replication() {
        let config = Configuration::cas_default(dcs(4), 1, 1);
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        let v = Value::filler(257);
        run_put(&mut servers, &config, 1, &v);
        let OpOutcome::GetOk { value, .. } = run_get(&mut servers, &config, None) else { panic!() };
        assert_eq!(value, v);
    }

    #[test]
    fn garbage_collection_keeps_latest_fin_and_newer() {
        let config = config53();
        let mut servers = initial_cas_states(&config, &Value::from("init"));
        for i in 0..5 {
            run_put(&mut servers, &config, 1, &Value::filler(64 + i));
        }
        let s = servers.get_mut(&DcId(0)).unwrap();
        let before = s.version_count();
        assert!(before >= 3);
        let removed = s.garbage_collect(0);
        assert!(removed > 0);
        // The highest finalized version survives and still answers queries.
        let highest = s.highest_fin().unwrap();
        assert_eq!(highest.seq, 5);
        assert_eq!(s.version_count(), before - removed);
        // Storage shrank or stayed equal.
        let removed_again = s.garbage_collect(0);
        assert_eq!(removed_again, 0);
    }

    #[test]
    fn garbage_collection_respects_keep_recent() {
        let mut s = CasKeyState::new(Tag::INITIAL, Some(vec![0u8; 8].into()));
        for i in 1..=4u64 {
            let t = Tag::new(i, ClientId(1));
            s.handle(&ProtoMsg::CasPreWrite { tag: t, shard: vec![0u8; 8].into() });
            s.handle(&ProtoMsg::CasFinalizeWrite { tag: t });
        }
        assert_eq!(s.version_count(), 5);
        s.garbage_collect(2);
        // Latest fin (seq 4) plus two older kept => 3 versions remain.
        assert_eq!(s.version_count(), 3);
        assert_eq!(s.highest_fin().unwrap().seq, 4);
    }

    #[test]
    fn server_rejects_abd_messages() {
        let mut s = CasKeyState::new(Tag::INITIAL, None);
        assert!(matches!(
            s.handle(&ProtoMsg::AbdReadQuery),
            ProtoReply::Error(StoreError::Internal(_))
        ));
    }

    #[test]
    fn put_phases_target_the_right_quorums() {
        let config = config53();
        let put = CasPut::new(Key::from("k"), config.clone(), DcId(0), ClientId(1), Value::filler(300));
        let p1 = put.start();
        assert_eq!(p1.len(), config.quorums.size(QuorumId::Q1));
        assert!(p1.iter().all(|o| matches!(o.msg, ProtoMsg::CasQuery)));
        // Drive phase 1 manually to observe phase 2 fan-out and shard sizes.
        let mut put = put;
        let mut progress = OpProgress::Pending;
        for (i, o) in p1.iter().enumerate() {
            progress = put.on_reply(o.to, 1, ProtoReply::TagOnly { tag: Tag::INITIAL });
            if i + 1 < config.quorums.size(QuorumId::Q1) {
                assert_eq!(progress, OpProgress::Pending);
            }
        }
        let OpProgress::Send(p2) = progress else { panic!() };
        assert_eq!(p2.len(), config.quorums.size(QuorumId::Q2));
        for o in &p2 {
            let ProtoMsg::CasPreWrite { shard, .. } = &o.msg else { panic!() };
            assert_eq!(shard.len(), legostore_erasure::shard_len(300, config.k));
        }
    }

    #[test]
    fn get_fails_cleanly_when_symbols_unavailable() {
        // Servers know a fin tag but none has the symbol (e.g. GC'd beyond horizon plus a
        // writer that crashed after finalize metadata-only writes). The GET must not hang.
        let config = Configuration::cas_default(dcs(5), 3, 1);
        let mut servers: BTreeMap<DcId, CasKeyState> = config
            .dcs
            .iter()
            .map(|d| (*d, CasKeyState::new(Tag::new(3, ClientId(1)), None)))
            .collect();
        let outcome = run_get(&mut servers, &config, None);
        assert!(matches!(outcome, OpOutcome::Failed(StoreError::DecodeFailed { .. })));
    }

    #[test]
    fn initial_states_cover_all_hosts_with_distinct_symbols() {
        let config = config53();
        let servers = initial_cas_states(&config, &Value::filler(5000));
        assert_eq!(servers.len(), 5);
        let lens: Vec<u64> = servers.values().map(|s| s.storage_bytes()).collect();
        assert!(lens.iter().all(|l| *l == lens[0]));
        assert_eq!(lens[0], legostore_erasure::shard_len(5000, 3) as u64);
    }
}
