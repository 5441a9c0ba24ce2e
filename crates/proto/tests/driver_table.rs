//! The two drivers as pure functions: scripted event sequences against expected steps.
//!
//! No clock, no thread, no transport — every scenario here is a decision that used to be
//! written once per runtime (and fixed once per runtime): what a timeout re-sends, how an
//! operation enters a new epoch, which replies are dropped, when to give up and with what
//! error; for the controller, what is re-sent when, when it stalls, and when the metadata
//! may be published.

use legostore_proto::msg::{Outbound, ProtoMsg, ProtoReply, ReconfigPayload};
use legostore_proto::reconfig::{
    ReconfigDriver, ReconfigStep, PHASE_COLLECT, PHASE_FINISH, PHASE_QUERY, PHASE_WRITE,
};
use legostore_proto::{Completed, Host, OpDriver, OpSpec, RetryCause, Step};
use legostore_types::{
    ClientId, ConfigEpoch, Configuration, DcId, Key, StoreError, Tag, Value,
};

const E0: ConfigEpoch = ConfigEpoch(0);
const E1: ConfigEpoch = ConfigEpoch(1);

fn dcs(ids: std::ops::Range<u16>) -> Vec<DcId> {
    ids.map(DcId).collect()
}

fn abd3() -> Configuration {
    Configuration::abd_majority(dcs(0..3), 1)
}

fn cas53() -> Configuration {
    Configuration::cas_default(dcs(0..5), 3, 1)
}

fn at_epoch(mut config: Configuration, epoch: ConfigEpoch) -> Configuration {
    config.epoch = epoch;
    config
}

/// A host whose metadata service lists `config` for the key (or nothing).
macro_rules! host {
    ($config:expr) => {
        Host { now_ns: &|| 0, metadata: &|| $config, cache: &|| None }
    };
}

fn driver(config: Configuration, value: Option<Value>, max_attempts: u32) -> OpDriver {
    let spec = OpSpec {
        key: Key::from("k"),
        client_dc: DcId(0),
        client_id: ClientId(7),
        max_attempts,
    };
    OpDriver::new(spec, config, value, None, &host!(None))
}

fn targets(msgs: &[Outbound]) -> Vec<u16> {
    msgs.iter().map(|m| m.to.0).collect()
}

fn tag_only(seq: u64) -> ProtoReply {
    ProtoReply::TagOnly { tag: Tag::new(seq, ClientId(1)) }
}

/// Feeds `reply` from each of `from` (all answering `phase` in `epoch`), returning the
/// last step.
fn replies(d: &mut OpDriver, from: &[u16], phase: u8, epoch: ConfigEpoch, reply: &ProtoReply) -> Step {
    let mut step = Step::Wait;
    for dc in from {
        step = d.on_reply(DcId(*dc), phase, epoch, 0, reply.clone(), &host!(None));
    }
    step
}

#[test]
fn timeout_after_phase_one_resends_the_same_tag_to_the_full_placement_and_stays_widened() {
    let mut d = driver(cas53(), Some(Value::filler(600)), 4);
    assert_eq!(targets(&d.open_attempt(&host!(None))), [0, 1], "CAS(5,3) queries q1 = 2");
    let Step::Send(pre) = replies(&mut d, &[0, 1], 1, E0, &tag_only(4)) else { panic!() };
    assert_eq!(targets(&pre), [0, 1, 2, 3], "pre-write goes to the preferred q2 = 4");
    let ProtoMsg::CasPreWrite { tag, .. } = pre[0].msg.clone() else { panic!("{pre:?}") };
    assert_eq!(tag, Tag::new(5, ClientId(7)));

    // The attempt times out in phase 2 with the metadata unchanged: same machine, same
    // tag, every DC of the placement.
    assert_eq!(d.on_timeout(&host!(Some(cas53()))), Step::Reopen(RetryCause::Timeout));
    let resent = d.open_attempt(&host!(None));
    assert_eq!(targets(&resent), [0, 1, 2, 3, 4]);
    for m in &resent {
        assert!(matches!(&m.msg, ProtoMsg::CasPreWrite { tag: t, .. } if *t == tag), "{m:?}");
    }
    // Sticky: the phase the resumed operation enters next is widened too.
    let Step::Send(fin) = replies(&mut d, &[0, 1, 3, 4], 2, E0, &ProtoReply::Ack) else { panic!() };
    assert_eq!(targets(&fin), [0, 1, 2, 3, 4]);
    assert!(fin.iter().all(|m| m.msg == ProtoMsg::CasFinalizeWrite { tag }));
    let done = replies(&mut d, &[4, 3, 1, 0], 3, E0, &ProtoReply::Ack);
    let Step::Done(Ok(Completed { tag: installed, one_phase: false, .. })) = done else {
        panic!("{done:?}")
    };
    assert_eq!(installed, tag, "one PUT, one tag");
}

#[test]
fn redirect_pins_a_chosen_tag_into_the_new_epoch_and_restarts_fresh_before_that() {
    let moved = || ProtoReply::OperationFail { new_config: Box::new(at_epoch(cas53(), E1)) };

    // Redirected after phase 1 chose the tag (the PR 10 double-apply): the new epoch is
    // entered at the write phase, under the new code, with the old tag.
    let mut d = driver(abd3(), Some(Value::from("v")), 4);
    d.open_attempt(&host!(None));
    let Step::Send(writes) = replies(&mut d, &[0, 1], 1, E0, &tag_only(2)) else { panic!() };
    let ProtoMsg::AbdWrite { tag, .. } = writes[0].msg.clone() else { panic!() };
    let step = d.on_reply(DcId(0), 2, E0, 0, moved(), &host!(None));
    assert_eq!(step, Step::Reopen(RetryCause::Redirect));
    assert_eq!(d.config().epoch, E1);
    let resumed = d.open_attempt(&host!(None));
    assert!(!resumed.is_empty());
    for m in &resumed {
        assert_eq!((m.phase, m.epoch), (2, E1));
        assert!(matches!(&m.msg, ProtoMsg::CasPreWrite { tag: t, .. } if *t == tag), "{m:?}");
    }

    // Redirected while still querying: nothing of the PUT can have landed, so it
    // restarts from the query in the new epoch.
    let mut d = driver(abd3(), Some(Value::from("v")), 4);
    d.open_attempt(&host!(None));
    replies(&mut d, &[0], 1, E0, &tag_only(2));
    assert_eq!(d.on_reply(DcId(1), 1, E0, 0, moved(), &host!(None)), Step::Reopen(RetryCause::Redirect));
    let fresh = d.open_attempt(&host!(None));
    assert!(fresh.iter().all(|m| m.msg == ProtoMsg::CasQuery && m.epoch == E1), "{fresh:?}");
}

#[test]
fn a_redirect_to_an_invalid_configuration_is_discarded_not_crossed_into() {
    // A CAS(5,3) with k = 9: a garbled redirect must neither be entered nor re-encode
    // the pinned write under a code that cannot exist.
    let mut garbled = at_epoch(cas53(), E1);
    garbled.k = 9;
    assert!(garbled.validate().is_err());
    let mut d = driver(abd3(), Some(Value::from("v")), 4);
    d.open_attempt(&host!(None));
    let Step::Send(writes) = replies(&mut d, &[0, 1], 1, E0, &tag_only(2)) else { panic!() };
    let ProtoMsg::AbdWrite { tag, .. } = writes[0].msg.clone() else { panic!() };
    let redirect = ProtoReply::OperationFail { new_config: Box::new(garbled) };
    assert_eq!(d.on_reply(DcId(0), 2, E0, 0, redirect, &host!(None)), Step::Wait);
    assert_eq!(d.config().epoch, E0);
    // The attempt times out as if the reply were lost and resumes its write in place.
    assert_eq!(d.on_timeout(&host!(Some(abd3()))), Step::Reopen(RetryCause::Timeout));
    let resent = d.open_attempt(&host!(None));
    assert_eq!(targets(&resent), [0, 1, 2]);
    for m in &resent {
        assert_eq!(m.epoch, E0);
        assert!(matches!(&m.msg, ProtoMsg::AbdWrite { tag: t, .. } if *t == tag), "{m:?}");
    }
}

#[test]
fn a_reply_stamped_with_another_epoch_is_discarded() {
    let mut d = driver(at_epoch(abd3(), E1), Some(Value::from("v")), 4);
    d.open_attempt(&host!(None));
    // Two old-epoch stragglers would complete the q1 = 2 query — they must not count.
    assert_eq!(replies(&mut d, &[0, 1], 1, E0, &tag_only(9)), Step::Wait);
    assert_eq!(replies(&mut d, &[0], 1, E1, &tag_only(2)), Step::Wait);
    let Step::Send(writes) = replies(&mut d, &[1], 1, E1, &tag_only(2)) else { panic!() };
    // ... nor may their tag leak into the one this PUT mints.
    assert!(matches!(&writes[0].msg, ProtoMsg::AbdWrite { tag, .. } if tag.seq == 3), "{writes:?}");
}

#[test]
fn a_spent_budget_yields_quorum_unreachable_with_the_stalled_phases_real_counts() {
    let mut d = driver(abd3(), None, 2);
    d.open_attempt(&host!(None));
    let one = ProtoReply::AbdTagValue { tag: Tag::INITIAL, value: Value::from("v") };
    assert_eq!(replies(&mut d, &[2], 1, E0, &one), Step::Wait);
    assert_eq!(d.on_timeout(&host!(Some(abd3()))), Step::Reopen(RetryCause::Timeout));
    d.open_attempt(&host!(None));
    // The second (and last) attempt times out as well. An optimized ABD GET waits for
    // max(q1, q2) = 2 in phase 1 and one server answered.
    let Step::Done(Err(StoreError::QuorumUnreachable { attempts, last })) = d.on_timeout(&host!(None))
    else {
        panic!()
    };
    assert_eq!(attempts, 2);
    assert_eq!(*last, StoreError::QuorumTimeout { needed: 2, received: 1 });
}

#[test]
fn a_timed_out_attempt_crosses_epochs_when_the_metadata_moved() {
    let mut d = driver(abd3(), Some(Value::from("v")), 4);
    d.open_attempt(&host!(None));
    let Step::Send(writes) = replies(&mut d, &[0, 1], 1, E0, &tag_only(2)) else { panic!() };
    let ProtoMsg::AbdWrite { tag, .. } = writes[0].msg.clone() else { panic!() };
    let step = d.on_timeout(&host!(Some(at_epoch(abd3(), E1))));
    assert_eq!(step, Step::Reopen(RetryCause::EpochMoved));
    let resumed = d.open_attempt(&host!(None));
    assert!(resumed
        .iter()
        .all(|m| m.epoch == E1 && matches!(&m.msg, ProtoMsg::AbdWrite { tag: t, .. } if *t == tag)));
}

#[test]
fn key_not_found_after_a_redirect_is_retried_only_while_the_metadata_lists_the_key() {
    let not_found = ProtoReply::Error(StoreError::KeyNotFound(Key::from("k")));
    let moved = ProtoReply::OperationFail { new_config: Box::new(at_epoch(abd3(), E1)) };
    for listed in [true, false] {
        let mut d = driver(abd3(), None, 4);
        d.open_attempt(&host!(None));
        replies(&mut d, &[0], 1, E0, &moved);
        d.open_attempt(&host!(None));
        // One key-less server is a non-reply; a read quorum of them is an answer.
        assert_eq!(replies(&mut d, &[0], 1, E1, &not_found), Step::Wait);
        let metadata = listed.then(|| at_epoch(abd3(), E1));
        let step = d.on_reply(DcId(1), 1, E1, 0, not_found.clone(), &host!(metadata.clone()));
        if listed {
            // The redirect raced the controller's write-new round.
            assert_eq!(step, Step::Reopen(RetryCause::Failure));
        } else {
            assert!(matches!(step, Step::Done(Err(StoreError::KeyNotFound(_)))), "{step:?}");
        }
    }
    // Without a redirect behind it, a KeyNotFound quorum is final even for a listed key.
    let mut d = driver(abd3(), None, 4);
    d.open_attempt(&host!(None));
    replies(&mut d, &[0], 1, E0, &not_found);
    let step = d.on_reply(DcId(1), 1, E0, 0, not_found.clone(), &host!(Some(abd3())));
    assert!(matches!(step, Step::Done(Err(StoreError::KeyNotFound(_)))), "{step:?}");
}

// ---- the reconfiguration driver ----

const TIMEOUT_NS: u64 = 100;

fn abd_to_abd(now_ns: u64) -> ReconfigDriver {
    let new = Configuration::abd_majority(dcs(3..6), 1);
    ReconfigDriver::new(Key::from("k"), abd3(), new, TIMEOUT_NS, now_ns)
}

fn stored() -> ProtoReply {
    ProtoReply::AbdTagValue { tag: Tag::new(3, ClientId(1)), value: Value::from("v") }
}

#[test]
fn a_lost_round_is_resent_and_the_deadline_names_the_round_it_died_in() {
    let mut d = abd_to_abd(1_000);
    let query = d.start();
    assert_eq!(targets(&query), [0, 1, 2]);
    assert_eq!(d.wake_ns(), 1_100);
    assert_eq!(d.tick(1_050), ReconfigStep::Wait, "not due yet");
    assert_eq!(d.tick(1_100), ReconfigStep::Send(query.clone()), "the whole round again");
    assert_eq!(d.wake_ns(), 1_200);

    // Progress re-arms the resend timer but never the deadline (8 timeouts from start).
    assert_eq!(d.on_reply(DcId(0), PHASE_QUERY, stored(), 1_150), ReconfigStep::Wait);
    let ReconfigStep::Send(writes) = d.on_reply(DcId(1), PHASE_QUERY, stored(), 1_190) else {
        panic!()
    };
    assert_eq!(targets(&writes), [3, 4, 5]);
    assert_eq!(d.wake_ns(), 1_290);
    assert_eq!(d.tick(1_290), ReconfigStep::Send(writes), "now the write round is the one re-sent");
    let stalled = StoreError::ReconfigStalled { epoch: E1, round: 3 };
    assert_eq!(d.tick(1_800), ReconfigStep::Done(Err(stalled)));

    // A controller that never hears from the old placement dies in round 1.
    let stalled = StoreError::ReconfigStalled { epoch: E1, round: 1 };
    assert_eq!(abd_to_abd(0).tick(800), ReconfigStep::Done(Err(stalled)));
}

#[test]
fn a_collect_round_without_decodable_shards_is_resent_and_stalls_in_round_two() {
    let new = Configuration::abd_majority(dcs(5..8), 1);
    let mut d = ReconfigDriver::new(Key::from("k"), cas53(), new, TIMEOUT_NS, 0);
    assert_eq!(targets(&d.start()), [0, 1, 2, 3, 4]);
    let mut query_replies = (0..5).map(|dc| d.on_reply(DcId(dc), PHASE_QUERY, tag_only(3), 20));
    let Some(ReconfigStep::Send(collect)) = query_replies.find(|s| *s != ReconfigStep::Wait) else {
        panic!("the query round completes")
    };
    assert_eq!(targets(&collect), [0, 1, 2, 3, 4]);
    assert!(collect.iter().all(|m| m.phase == PHASE_COLLECT));

    // Every server has the tag's metadata but no symbol: nothing to decode, so the
    // whole collect round goes out again, and the deadline names round 2.
    let metadata_only = ProtoReply::CasShard { tag: Tag::new(3, ClientId(1)), shard: None };
    for dc in 0..5 {
        let step = d.on_reply(DcId(dc), PHASE_COLLECT, metadata_only.clone(), 30);
        assert_eq!(step, ReconfigStep::Wait);
    }
    assert_eq!(d.tick(120), ReconfigStep::Send(collect));
    let stalled = StoreError::ReconfigStalled { epoch: E1, round: 2 };
    assert_eq!(d.tick(800), ReconfigStep::Done(Err(stalled)));
}

#[test]
fn a_symbol_answered_twice_to_a_resent_collect_round_counts_once_toward_k() {
    let new = Configuration::abd_majority(dcs(5..8), 1);
    let mut d = ReconfigDriver::new(Key::from("k"), cas53(), new, TIMEOUT_NS, 0);
    d.start();
    let mut query_replies = (0..5).map(|dc| d.on_reply(DcId(dc), PHASE_QUERY, tag_only(3), 20));
    let Some(ReconfigStep::Send(collect)) = query_replies.find(|s| *s != ReconfigStep::Wait) else {
        panic!("the query round completes")
    };

    let value = Value::filler(900);
    let symbols = legostore_erasure::encode_value(value.as_bytes(), 5, 3).unwrap();
    let tag = Tag::new(3, ClientId(1));
    let symbol = |dc: u16| ProtoReply::CasShard { tag, shard: Some(symbols[dc as usize].data.clone()) };
    // DCs 3 and 4 have the tag's metadata only; DC 0 answers the collect round, and
    // again when the round is resent.
    let metadata_only = ProtoReply::CasShard { tag, shard: None };
    for dc in [3, 4] {
        assert_eq!(d.on_reply(DcId(dc), PHASE_COLLECT, metadata_only.clone(), 30), ReconfigStep::Wait);
    }
    assert_eq!(d.on_reply(DcId(0), PHASE_COLLECT, symbol(0), 40), ReconfigStep::Wait);
    assert_eq!(d.tick(140), ReconfigStep::Send(collect));
    assert_eq!(d.on_reply(DcId(0), PHASE_COLLECT, symbol(0), 150), ReconfigStep::Wait);
    // A collect quorum (q4 = 4) has answered, but only two distinct symbols of k = 3.
    assert_eq!(d.on_reply(DcId(1), PHASE_COLLECT, symbol(1), 160), ReconfigStep::Wait);
    let ReconfigStep::Send(writes) = d.on_reply(DcId(2), PHASE_COLLECT, symbol(2), 170) else {
        panic!("the third distinct symbol decodes")
    };
    assert_eq!(targets(&writes), [5, 6, 7]);
    for m in &writes {
        let ProtoMsg::ReconfigWrite { tag: t, data: ReconfigPayload::Value(v), .. } = &m.msg else {
            panic!("{m:?}")
        };
        assert_eq!((m.phase, *t, v), (PHASE_WRITE, tag, &value));
    }
}

#[test]
fn metadata_is_published_only_once_write_new_completes_and_finish_is_resent_until_acked() {
    let mut d = abd_to_abd(0);
    d.start();
    d.on_reply(DcId(0), PHASE_QUERY, stored(), 10);
    let step = d.on_reply(DcId(2), PHASE_QUERY, stored(), 20);
    assert!(matches!(step, ReconfigStep::Send(_)), "value read, nothing to publish yet: {step:?}");
    let step = d.on_reply(DcId(3), PHASE_WRITE, ProtoReply::Ack, 30);
    assert_eq!(step, ReconfigStep::Wait, "one ack is not a write quorum");
    let ReconfigStep::Publish { new_config, finish } = d.on_reply(DcId(5), PHASE_WRITE, ProtoReply::Ack, 40)
    else {
        panic!()
    };
    assert_eq!((new_config.epoch, &new_config.dcs), (E1, &dcs(3..6)));
    assert_eq!(targets(&finish), [0, 1, 2], "finish releases the old placement");

    // Only the servers that have not acknowledged are asked again.
    assert_eq!(d.on_reply(DcId(1), PHASE_FINISH, ProtoReply::Ack, 50), ReconfigStep::Wait);
    let ReconfigStep::Send(again) = d.tick(140) else { panic!() };
    assert_eq!(targets(&again), [0, 2]);
    assert_eq!(d.on_reply(DcId(0), PHASE_FINISH, ProtoReply::Ack, 150), ReconfigStep::Wait);
    assert_eq!(d.on_reply(DcId(2), PHASE_FINISH, ProtoReply::Ack, 160), ReconfigStep::Done(Ok(())));

    // A finish round cut short by the deadline is not an error: the metadata already
    // points at the new configuration.
    let mut d = abd_to_abd(0);
    d.start();
    d.on_reply(DcId(0), PHASE_QUERY, stored(), 10);
    d.on_reply(DcId(1), PHASE_QUERY, stored(), 10);
    d.on_reply(DcId(3), PHASE_WRITE, ProtoReply::Ack, 20);
    let step = d.on_reply(DcId(4), PHASE_WRITE, ProtoReply::Ack, 20);
    assert!(matches!(step, ReconfigStep::Publish { .. }));
    assert_eq!(d.tick(800), ReconfigStep::Done(Ok(())));
}
