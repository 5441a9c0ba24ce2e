//! The ABD (Attiya–Bar-Noy–Dolev) replication protocol — Figure 7 of the paper.
//!
//! * Server side: each data center stores one `(tag, value)` pair per key and replaces it
//!   whenever it receives a higher-tagged write ([`AbdKeyState`]).
//! * PUT ([`AbdPut`]): phase 1 queries `q1` servers for their tags; phase 2 propagates the
//!   new `(tag, value)` to `q2` servers.
//! * GET ([`AbdGet`]): phase 1 queries `q1` servers for `(tag, value)` pairs; phase 2
//!   writes the highest pair back to `q2` servers. With the *optimized GET* enhancement the
//!   read returns after phase 1 if at least `q2` of `max(q1, q2)` responses already carry
//!   the highest tag (so the write-back would be a no-op).

use crate::msg::{OpOutcome, OpProgress, Outbound, ProtoMsg, ProtoReply};
use crate::quorum::OpCore;
use legostore_types::{ClientId, Configuration, DcId, Key, QuorumId, StoreError, Tag, Value};
use std::collections::BTreeMap;

/// Per-key server state for ABD.
#[derive(Debug, Clone, PartialEq)]
pub struct AbdKeyState {
    /// Highest tag seen so far.
    pub tag: Tag,
    /// Value associated with [`Self::tag`].
    pub value: Value,
}

impl AbdKeyState {
    /// Initial state installed by CREATE or by a reconfiguration write.
    pub fn new(tag: Tag, value: Value) -> Self {
        AbdKeyState { tag, value }
    }

    /// Handles an ABD request, returning the reply.
    pub fn handle(&mut self, msg: &ProtoMsg) -> ProtoReply {
        match msg {
            ProtoMsg::AbdReadQuery => ProtoReply::AbdTagValue {
                tag: self.tag,
                value: self.value.clone(),
            },
            ProtoMsg::AbdWriteQuery => ProtoReply::TagOnly { tag: self.tag },
            ProtoMsg::AbdWrite { tag, value } => {
                if *tag > self.tag {
                    self.tag = *tag;
                    self.value = value.clone();
                }
                ProtoReply::Ack
            }
            other => ProtoReply::Error(StoreError::Internal(format!(
                "ABD server cannot handle {other:?}"
            ))),
        }
    }

    /// Bytes of storage this key consumes at the server (value only; tags are negligible).
    pub fn storage_bytes(&self) -> u64 {
        self.value.len() as u64
    }
}

/// Client-side state machine for an ABD PUT.
#[derive(Debug, Clone)]
pub struct AbdPut {
    pub(crate) core: OpCore,
    client_id: ClientId,
    value: Value,
    max_tag: Tag,
    new_tag: Option<Tag>,
}

impl AbdPut {
    /// Creates the state machine. `client_dc` selects the optimizer-recommended quorums.
    pub fn new(
        key: Key,
        config: Configuration,
        client_dc: DcId,
        client_id: ClientId,
        value: Value,
    ) -> Self {
        let needed = [config.quorums.size(QuorumId::Q1), config.quorums.size(QuorumId::Q2)];
        AbdPut {
            core: OpCore::new(key, config, client_dc, &needed),
            client_id,
            value,
            max_tag: Tag::INITIAL,
            new_tag: None,
        }
    }

    /// Rebuilds a PUT that already chose its tag in a *previous* configuration epoch so
    /// it re-enters the new epoch at the write phase with that tag pinned.
    ///
    /// This is the cross-epoch analogue of [`AbdPut::resend_widened`]'s tag pinning, and
    /// just as much a linearizability requirement: when a reconfiguration redirects a
    /// partially-complete PUT, phase-2 writes carrying the old tag may already have taken
    /// effect at old-epoch servers and been *transferred* into the new placement. A
    /// restarted machine would re-query and install the same value under a fresh, higher
    /// tag — one logical PUT linearizing twice (readers could observe new → old → new).
    /// Resuming keeps the single linearization point: the new-epoch servers' strictly-
    /// greater write rule makes the re-sent `(tag, value)` a no-op wherever the transfer
    /// already delivered it.
    pub fn resume_write(
        key: Key,
        config: Configuration,
        client_dc: DcId,
        client_id: ClientId,
        tag: Tag,
        value: Value,
    ) -> Self {
        let mut put = AbdPut::new(key, config, client_dc, client_id, value);
        put.core.phase = 2;
        put.new_tag = Some(tag);
        put
    }

    /// The tag this PUT will install (available once phase 1 completes).
    pub fn chosen_tag(&self) -> Option<Tag> {
        self.new_tag
    }

    /// Messages for the first phase this machine runs: the write-query for a fresh PUT,
    /// or the pinned-tag write fan-out for a machine built by [`AbdPut::resume_write`].
    pub fn start(&self) -> Vec<Outbound> {
        match self.core.phase {
            1 => self.core.fan_out(QuorumId::Q1, |_| Some(ProtoMsg::AbdWriteQuery)),
            _ => {
                let tag = self.new_tag.expect("phase 2 implies a chosen tag");
                let write = || ProtoMsg::AbdWrite { tag, value: self.value.clone() };
                self.core.fan_out(QuorumId::Q2, |_| Some(write()))
            }
        }
    }

    /// Re-sends the *current* phase's messages to every DC of the placement — the
    /// paper's §4.5 failure handling ("send the request to all other DCs participating
    /// in the configuration") for a timed-out attempt.
    ///
    /// Resuming (instead of restarting) is a linearizability requirement, not just an
    /// optimization: once phase 1 completed, phase-2 writes carrying
    /// [`AbdPut::chosen_tag`] may already have taken effect at some servers. A restarted
    /// attempt would query again and install the same value under a fresh, *higher* tag,
    /// making one logical PUT take effect at two distinct linearization points (reads
    /// could then observe new → old → new). Re-sending keeps the tag pinned, so the
    /// retried write is idempotent. Responses already counted stay counted (the quorum
    /// trackers deduplicate by DC). The widening is sticky for the later phases.
    pub fn resend_widened(&mut self) -> Vec<Outbound> {
        self.core.widen();
        self.start()
    }

    /// Feeds one reply (tagged with the phase it answers) into the state machine.
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
                self.new_tag = Some(self.max_tag.successor(self.client_id));
                self.core.phase = 2;
                OpProgress::Send(self.start())
            }
            (2, ProtoReply::Ack) if self.core.record(from) => OpProgress::Done(OpOutcome::PutOk {
                tag: self.new_tag.expect("tag chosen in phase 1"),
            }),
            _ => OpProgress::Pending,
        }
    }
}

/// Client-side state machine for an ABD GET.
#[derive(Debug, Clone)]
pub struct AbdGet {
    pub(crate) core: OpCore,
    optimized: bool,
    /// Highest `(tag, value)` pair seen in phase 1.
    best: Option<(Tag, Value)>,
    /// How many phase-1 responders reported each tag (needed for the fast-path test).
    tag_counts: BTreeMap<Tag, usize>,
}

impl AbdGet {
    /// Creates the state machine. When `optimized` is true the GET may complete in one
    /// phase if enough servers already store the highest tag; phase 1 then waits for
    /// `max(q1, q2)` responses instead of `q1`.
    pub fn new(key: Key, config: Configuration, client_dc: DcId, optimized: bool) -> Self {
        let q1 = config.quorums.size(QuorumId::Q1);
        let q2 = config.quorums.size(QuorumId::Q2);
        let needed = [if optimized { q1.max(q2) } else { q1 }, q2];
        AbdGet {
            core: OpCore::new(key, config, client_dc, &needed),
            optimized,
            best: None,
            tag_counts: BTreeMap::new(),
        }
    }

    /// Messages for the current phase: the read-query (phase 1) or the write-back.
    pub fn start(&self) -> Vec<Outbound> {
        if self.core.phase >= 2 {
            let (tag, value) = self.best.clone().expect("phase 2 implies a best pair");
            let write = || ProtoMsg::AbdWrite { tag, value: value.clone() };
            return self.core.fan_out(QuorumId::Q2, |_| Some(write()));
        }
        let config = &self.core.config;
        let mut targets = config.quorum_for(self.core.client_dc, QuorumId::Q1).to_vec();
        if self.optimized {
            // Need max(q1, q2) responses; widen the target set with the Q2 preference.
            for &dc in config.quorum_for(self.core.client_dc, QuorumId::Q2) {
                if !targets.contains(&dc) {
                    targets.push(dc);
                }
            }
        }
        self.core.send_to(&targets, |_| Some(ProtoMsg::AbdReadQuery))
    }

    /// Re-sends the current phase's messages to every DC of the placement (§4.5 timeout
    /// handling; see [`AbdPut::resend_widened`]). Reads have no double-effect hazard, but
    /// resuming preserves the responses already gathered, which matters for liveness on
    /// lossy links.
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
            (1, ProtoReply::AbdTagValue { tag, value }) => {
                if self.core.tracker(1).has_responded(from) {
                    return OpProgress::Pending;
                }
                match &self.best {
                    Some((t, _)) if *t >= tag => {}
                    _ => self.best = Some((tag, value)),
                }
                *self.tag_counts.entry(tag).or_insert(0) += 1;
                if !self.core.record(from) {
                    return OpProgress::Pending;
                }
                let (tag, value) = self.best.clone().expect("at least one response");
                let agreeing = self.tag_counts.get(&tag).copied().unwrap_or(0);
                if self.optimized && agreeing >= self.core.tracker(2).needed() {
                    return OpProgress::Done(OpOutcome::GetOk { tag, value, one_phase: true });
                }
                self.core.phase = 2;
                OpProgress::Send(self.start())
            }
            (2, ProtoReply::Ack) if self.core.record(from) => {
                let (tag, value) = self.best.clone().expect("phase 1 completed");
                OpProgress::Done(OpOutcome::GetOk { tag, value, one_phase: false })
            }
            _ => OpProgress::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    fn config3() -> Configuration {
        Configuration::abd_majority(dcs(3), 1)
    }

    /// Drives a full PUT against in-memory server states, returning the outcome.
    fn run_put(
        servers: &mut BTreeMap<DcId, AbdKeyState>,
        config: &Configuration,
        client_id: u32,
        value: &str,
    ) -> OpOutcome {
        let mut put = AbdPut::new(
            Key::from("k"),
            config.clone(),
            DcId(0),
            ClientId(client_id),
            Value::from(value),
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
        servers: &mut BTreeMap<DcId, AbdKeyState>,
        config: &Configuration,
        optimized: bool,
    ) -> OpOutcome {
        let mut get = AbdGet::new(Key::from("k"), config.clone(), DcId(0), optimized);
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

    fn fresh_servers(config: &Configuration) -> BTreeMap<DcId, AbdKeyState> {
        config
            .dcs
            .iter()
            .map(|d| (*d, AbdKeyState::new(Tag::INITIAL, Value::from("init"))))
            .collect()
    }

    #[test]
    fn put_then_get_round_trip() {
        let config = config3();
        let mut servers = fresh_servers(&config);
        let outcome = run_put(&mut servers, &config, 1, "v1");
        let OpOutcome::PutOk { tag } = outcome else { panic!("{outcome:?}") };
        assert_eq!(tag.seq, 1);
        let outcome = run_get(&mut servers, &config, false);
        let OpOutcome::GetOk { value, one_phase, .. } = outcome else { panic!("{outcome:?}") };
        assert_eq!(value, Value::from("v1"));
        assert!(!one_phase);
    }

    #[test]
    fn get_of_initial_value() {
        let config = config3();
        let mut servers = fresh_servers(&config);
        let OpOutcome::GetOk { tag, value, .. } = run_get(&mut servers, &config, false) else {
            panic!()
        };
        assert_eq!(tag, Tag::INITIAL);
        assert_eq!(value, Value::from("init"));
    }

    #[test]
    fn successive_puts_use_increasing_tags() {
        let config = config3();
        let mut servers = fresh_servers(&config);
        let OpOutcome::PutOk { tag: t1 } = run_put(&mut servers, &config, 1, "a") else { panic!() };
        let OpOutcome::PutOk { tag: t2 } = run_put(&mut servers, &config, 2, "b") else { panic!() };
        assert!(t2 > t1);
        let OpOutcome::GetOk { value, .. } = run_get(&mut servers, &config, false) else { panic!() };
        assert_eq!(value, Value::from("b"));
    }

    #[test]
    fn optimized_get_completes_in_one_phase_when_replicas_agree() {
        let config = config3();
        let mut servers = fresh_servers(&config);
        run_put(&mut servers, &config, 1, "stable");
        let OpOutcome::GetOk { value, one_phase, .. } = run_get(&mut servers, &config, true) else {
            panic!()
        };
        assert_eq!(value, Value::from("stable"));
        assert!(one_phase, "all replicas agree, fast path must trigger");
    }

    #[test]
    fn optimized_get_falls_back_when_replicas_disagree() {
        let config = config3();
        let mut servers = fresh_servers(&config);
        // Manually install a newer version at only one server (as if a PUT is in flight).
        let newer = Tag::new(5, ClientId(9));
        servers
            .get_mut(&DcId(1))
            .unwrap()
            .handle(&ProtoMsg::AbdWrite { tag: newer, value: Value::from("new") });
        let OpOutcome::GetOk { tag, value, one_phase } = run_get(&mut servers, &config, true) else {
            panic!()
        };
        // The read must return the newer value (it saw it) and must have written it back.
        assert_eq!(tag, newer);
        assert_eq!(value, Value::from("new"));
        assert!(!one_phase, "disagreement forces the write-back phase");
        // Write-back propagated the newer version to a quorum.
        let holders = servers.values().filter(|s| s.tag == newer).count();
        assert!(holders >= 2);
    }

    #[test]
    fn stale_write_does_not_overwrite_newer_value() {
        let mut s = AbdKeyState::new(Tag::new(5, ClientId(1)), Value::from("new"));
        let reply = s.handle(&ProtoMsg::AbdWrite { tag: Tag::new(3, ClientId(2)), value: Value::from("old") });
        assert_eq!(reply, ProtoReply::Ack);
        assert_eq!(s.value, Value::from("new"));
        assert_eq!(s.tag, Tag::new(5, ClientId(1)));
    }

    #[test]
    fn server_rejects_cas_messages() {
        let mut s = AbdKeyState::new(Tag::INITIAL, Value::empty());
        let reply = s.handle(&ProtoMsg::CasQuery);
        assert!(matches!(reply, ProtoReply::Error(StoreError::Internal(_))));
    }

    #[test]
    fn put_ignores_replies_from_previous_phase() {
        let config = config3();
        let mut put = AbdPut::new(Key::from("k"), config.clone(), DcId(0), ClientId(1), Value::from("x"));
        let start = put.start();
        assert_eq!(start.len(), 2); // q1 = 2 for N=3 majority
        // First phase-1 reply: still pending.
        assert_eq!(
            put.on_reply(DcId(0), 1, ProtoReply::TagOnly { tag: Tag::INITIAL }),
            OpProgress::Pending
        );
        // Second phase-1 reply: transition to phase 2.
        let OpProgress::Send(p2) = put.on_reply(DcId(1), 1, ProtoReply::TagOnly { tag: Tag::INITIAL }) else {
            panic!()
        };
        assert_eq!(p2.len(), 2);
        assert!(p2.iter().all(|o| o.phase == 2));
        // A straggler phase-1 reply must be ignored.
        assert_eq!(
            put.on_reply(DcId(2), 1, ProtoReply::TagOnly { tag: Tag::new(9, ClientId(7)) }),
            OpProgress::Pending
        );
        // Phase-2 acks complete the operation.
        assert_eq!(put.on_reply(DcId(0), 2, ProtoReply::Ack), OpProgress::Pending);
        let OpProgress::Done(OpOutcome::PutOk { tag }) = put.on_reply(DcId(1), 2, ProtoReply::Ack) else {
            panic!()
        };
        assert_eq!(tag.seq, 1);
        assert_eq!(put.chosen_tag(), Some(tag));
    }

    #[test]
    fn put_resend_pins_the_chosen_tag_and_widens_to_all_dcs() {
        let config = config3();
        let mut put = AbdPut::new(Key::from("k"), config, DcId(0), ClientId(1), Value::from("x"));
        // Before phase 1 completes, a resend re-queries (no tag exists to pin).
        let msgs = put.resend_widened();
        assert_eq!(msgs.len(), 3, "widened to the full placement");
        assert!(msgs.iter().all(|m| matches!(m.msg, ProtoMsg::AbdWriteQuery)));
        // Complete phase 1; the tag is now chosen.
        put.on_reply(DcId(0), 1, ProtoReply::TagOnly { tag: Tag::INITIAL });
        let OpProgress::Send(_) = put.on_reply(DcId(1), 1, ProtoReply::TagOnly { tag: Tag::INITIAL })
        else {
            panic!()
        };
        let tag = put.chosen_tag().expect("phase 1 done");
        // A timed-out attempt resumes: same tag, same value, all DCs. A fresh state
        // machine would pick a higher tag here — the double-effect bug the
        // linearizability-under-faults suite caught.
        let msgs = put.resend_widened();
        assert_eq!(msgs.len(), 3);
        for m in &msgs {
            assert_eq!(m.phase, 2);
            let ProtoMsg::AbdWrite { tag: t, value } = &m.msg else { panic!("{m:?}") };
            assert_eq!(*t, tag);
            assert_eq!(value, &Value::from("x"));
        }
        // Acks gathered before and after the resend combine into one quorum.
        assert_eq!(put.on_reply(DcId(2), 2, ProtoReply::Ack), OpProgress::Pending);
        let OpProgress::Done(OpOutcome::PutOk { tag: done }) =
            put.on_reply(DcId(0), 2, ProtoReply::Ack)
        else {
            panic!()
        };
        assert_eq!(done, tag);
    }

    #[test]
    fn resumed_put_starts_at_the_write_phase_with_the_pinned_tag() {
        let config = config3();
        let pinned = Tag::new(4, ClientId(6));
        let mut put = AbdPut::resume_write(
            Key::from("k"),
            config.clone(),
            DcId(0),
            ClientId(6),
            pinned,
            Value::from("moved"),
        );
        // No query round: the machine opens directly with the pinned write.
        let msgs = put.start();
        assert!(!msgs.is_empty());
        for m in &msgs {
            assert_eq!(m.phase, 2);
            let ProtoMsg::AbdWrite { tag, value } = &m.msg else { panic!("{m:?}") };
            assert_eq!(*tag, pinned);
            assert_eq!(value, &Value::from("moved"));
        }
        // Replaying the pinned write at a server that already received it via the
        // reconfiguration transfer is a no-op Ack — no second linearization point.
        let mut transferred = AbdKeyState::new(pinned, Value::from("moved"));
        assert_eq!(transferred.handle(&msgs[0].msg), ProtoReply::Ack);
        assert_eq!(transferred.tag, pinned);
        // Acks complete the PUT under the original tag.
        assert_eq!(put.on_reply(DcId(0), 2, ProtoReply::Ack), OpProgress::Pending);
        let OpProgress::Done(OpOutcome::PutOk { tag }) = put.on_reply(DcId(1), 2, ProtoReply::Ack)
        else {
            panic!()
        };
        assert_eq!(tag, pinned);
    }

    #[test]
    fn put_chooses_tag_above_max_observed() {
        let config = config3();
        let mut put = AbdPut::new(Key::from("k"), config, DcId(0), ClientId(3), Value::from("x"));
        put.start();
        put.on_reply(DcId(0), 1, ProtoReply::TagOnly { tag: Tag::new(7, ClientId(2)) });
        let OpProgress::Send(_) = put.on_reply(DcId(1), 1, ProtoReply::TagOnly { tag: Tag::new(4, ClientId(1)) }) else {
            panic!()
        };
        assert_eq!(put.chosen_tag(), Some(Tag::new(8, ClientId(3))));
    }

    #[test]
    fn operation_fail_aborts_with_new_config() {
        let config = config3();
        let mut new_config = config.clone();
        new_config.epoch = new_config.epoch.next();
        let mut put = AbdPut::new(Key::from("k"), config.clone(), DcId(0), ClientId(1), Value::from("x"));
        put.start();
        let progress = put.on_reply(
            DcId(0),
            1,
            ProtoReply::OperationFail { new_config: Box::new(new_config.clone()) },
        );
        let OpProgress::Done(OpOutcome::Reconfigured { new_config: got }) = progress else {
            panic!("{progress:?}")
        };
        assert_eq!(got.epoch, new_config.epoch);
    }

    #[test]
    fn get_duplicate_phase1_replies_do_not_count_twice() {
        let config = config3();
        let mut get = AbdGet::new(Key::from("k"), config, DcId(0), false);
        get.start();
        let r = ProtoReply::AbdTagValue { tag: Tag::INITIAL, value: Value::from("v") };
        assert_eq!(get.on_reply(DcId(0), 1, r.clone()), OpProgress::Pending);
        assert_eq!(get.on_reply(DcId(0), 1, r.clone()), OpProgress::Pending);
        // Only a second *distinct* responder completes the quorum.
        assert!(matches!(get.on_reply(DcId(1), 1, r), OpProgress::Send(_)));
    }

    #[test]
    fn key_not_found_fails_only_once_a_read_quorum_agrees() {
        let config = config3();
        let mut get = AbdGet::new(Key::from("k"), config, DcId(0), false);
        get.start();
        let nf = ProtoReply::Error(StoreError::KeyNotFound(Key::from("k")));
        // A single key-less server (e.g. a new-placement DC that missed the transfer's
        // write round) is a non-reply, not a veto.
        assert_eq!(get.on_reply(DcId(0), 1, nf.clone()), OpProgress::Pending);
        // The same server repeating itself still is not a quorum.
        assert_eq!(get.on_reply(DcId(0), 1, nf.clone()), OpProgress::Pending);
        // A read quorum (2 of 3) agreeing the key is absent is authoritative.
        let progress = get.on_reply(DcId(1), 1, nf);
        assert!(matches!(progress, OpProgress::Done(OpOutcome::Failed(_))));
    }
}
