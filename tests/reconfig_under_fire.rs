//! Reconfiguration-under-fire stress suite.
//!
//! A reconfiguration moves a key between epochs while clients are mid-operation, so the
//! dangerous races all live on the transfer path (paper §4.4–4.5):
//!
//! * a PUT that chose its tag in the old epoch and is redirected must *resume* with
//!   that tag pinned in the new epoch — a rebuilt operation would install the same
//!   value under a fresh tag and linearize twice (readers see new→old→new once a
//!   concurrent writer lands between the transferred copy and the replay);
//! * the controller itself can crash, stall, or race client traffic: within-`f` faults
//!   must only delay the transfer, beyond-`f` faults must stall it with the typed
//!   [`StoreError::ReconfigStalled`] verdict and leave no key half-moved;
//! * servers whose `FinishReconfig` never arrives must not park deferred requests
//!   forever — the epoch lease re-activates the old epoch deterministically.
//!
//! Knobs: `LEGOSTORE_FAULT_ITERS=<n>` widens the threaded-runtime seed sweep (CI's
//! `faults` job runs 300); the discrete-event simulator sweeps [`SIM_SEEDS`] seeds
//! regardless, so the combined default already exceeds 200 seeded schedules.

use legostore::lincheck::recorder::fingerprint;
use legostore::prelude::*;
use legostore::proto::msg::{OpOutcome, OpProgress, Outbound, ProtoMsg};
use legostore::proto::reconfig::{ReconfigDriver, ReconfigStep};
use legostore::proto::server::{DcServer, Inbound, ProtoState, Reply};
use legostore::proto::{AbdGet, AbdPut};
use legostore::types::{FaultEvent, FaultKind, FaultPlan};
use legostore_workload::FaultPlanSpec;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// First seed of every sweep (`seed = SEED_BASE + i`), so a failure names its plan.
const SEED_BASE: u64 = 7_000;

/// Simulator seeds per sweep (virtual time makes each run cost milliseconds).
const SIM_SEEDS: u64 = 200;

/// Threaded-runtime seeds when `LEGOSTORE_FAULT_ITERS` is unset.
const DEFAULT_CLUSTER_SEEDS: u64 = 8;

fn cluster_seed_count() -> u64 {
    std::env::var("LEGOSTORE_FAULT_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CLUSTER_SEEDS)
        .max(1)
}

fn abd_config() -> Configuration {
    Configuration::abd_majority(
        vec![
            GcpLocation::Tokyo.dc(),
            GcpLocation::LosAngeles.dc(),
            GcpLocation::Oregon.dc(),
        ],
        1,
    )
}

fn cas_config() -> Configuration {
    Configuration::cas_default(
        vec![
            GcpLocation::Tokyo.dc(),
            GcpLocation::Singapore.dc(),
            GcpLocation::Virginia.dc(),
            GcpLocation::LosAngeles.dc(),
            GcpLocation::Oregon.dc(),
        ],
        3,
        1,
    )
}

/// A within-`f` seeded fault schedule over the union of the old and the new placement,
/// with the whole nine-DC universe eligible for partition cuts.
fn transfer_plan(old: &Configuration, new: &Configuration, seed: u64, duration_ms: f64) -> FaultPlan {
    let mut union = old.dcs.clone();
    for dc in &new.dcs {
        if !union.contains(dc) {
            union.push(*dc);
        }
    }
    let f = old.f.min(new.f);
    let mut spec = FaultPlanSpec::for_placement(union, f, duration_ms);
    spec.universe = CloudModel::gcp9().dc_ids();
    spec.windows = 2;
    let plan = legostore_workload::generate_fault_plan(&spec, seed);
    assert!(plan.max_concurrent_faulted() <= f, "generator must respect f: {plan:?}");
    plan
}

// ---------------------------------------------------------------------------
// Pinned regression: the cross-epoch double-apply, step by step.
// ---------------------------------------------------------------------------

/// Delivers `msgs` from endpoint `token` straight into the servers and returns the
/// replies addressed back to that endpoint (deterministic single-threaded pump).
fn deliver(
    servers: &mut HashMap<DcId, DcServer>,
    token: u64,
    msgs: Vec<Outbound>,
) -> Vec<(DcId, Reply)> {
    let mut out = Vec::new();
    for m in msgs {
        let dc = m.to;
        let replies = servers.get_mut(&dc).expect("dc exists").handle(Inbound {
            from: token,
            msg_id: 0,
            phase: m.phase,
            key: m.key.clone(),
            epoch: m.epoch,
            msg: m.msg,
        });
        out.extend(replies.into_iter().filter(|r| r.to == token).map(|r| (dc, r)));
    }
    out
}

/// The exact interleaving behind the bug this PR closes, frozen as a regression test:
///
/// 1. a PUT finishes its query phase in epoch 0 (tag `t1` chosen) and lands its write
///    at *one* old-placement server before the client loses the race;
/// 2. the controller transfers the key — the partial write is the highest tag, so the
///    new placement is seeded with `(t1, v1)`;
/// 3. the client learns the new configuration and restarts the PUT there.
///
/// Before the fix, step 3 rebuilt the state machine: it re-queried the new placement,
/// chose a tag above `t1`, and installed the same value a second time — one user write
/// with two linearization points. The fixed client resumes at the write phase with `t1`
/// pinned, so the replay is absorbed as a no-op and every observer agrees on a single
/// application. The assertions below (final tag == pinned tag, readers see `t1`) fail
/// on the rebuild-with-fresh-tag behavior.
#[test]
fn redirected_put_resumes_with_its_old_epoch_tag_pinned() {
    const CLIENT: u64 = 1;
    const CTRL: u64 = 2;
    const READER: u64 = 3;
    let key = Key::from("pinned");
    let old = abd_config();
    let new_base = Configuration::abd_majority(
        vec![
            GcpLocation::Singapore.dc(),
            GcpLocation::Frankfurt.dc(),
            GcpLocation::Virginia.dc(),
        ],
        1,
    );
    let mut servers: HashMap<DcId, DcServer> = CloudModel::gcp9()
        .dc_ids()
        .into_iter()
        .map(|d| (d, DcServer::new(d)))
        .collect();
    let v0 = Value::from("v0");
    let v1 = Value::from("v1");
    for (dc, payload) in DcServer::initial_payloads(&old, &v0) {
        servers.get_mut(&dc).unwrap().install_key(key.clone(), old.clone(), Tag::INITIAL, payload);
    }

    // 1. Query phase completes in epoch 0; the write lands at exactly one server.
    let mut put = AbdPut::new(key.clone(), old.clone(), old.dcs[0], ClientId(9), v1.clone());
    let mut write_msgs = Vec::new();
    for (dc, r) in deliver(&mut servers, CLIENT, put.start()) {
        if let OpProgress::Send(msgs) = put.on_reply(dc, r.phase, r.reply) {
            write_msgs = msgs;
        }
    }
    let t1 = put.chosen_tag().expect("query phase completed");
    assert!(!write_msgs.is_empty(), "the PUT must have advanced to its write phase");
    let partial: Vec<Outbound> = write_msgs.into_iter().filter(|m| m.to == old.dcs[0]).collect();
    deliver(&mut servers, CLIENT, partial);

    // 2. The controller transfers the key; the partial write is what it finds.
    let mut ctl = ReconfigDriver::new(key.clone(), old.clone(), new_base, 1_000, 0);
    let mut msgs = ctl.start();
    let (new_config, finish) = 'transfer: loop {
        assert!(!msgs.is_empty(), "controller stalled");
        for (dc, r) in deliver(&mut servers, CTRL, std::mem::take(&mut msgs)) {
            match ctl.on_reply(dc, r.phase, r.reply, 0) {
                ReconfigStep::Wait => {}
                ReconfigStep::Send(next) => msgs = next,
                ReconfigStep::Publish { new_config, finish } => break 'transfer (*new_config, finish),
                ReconfigStep::Done(result) => panic!("done before publishing: {result:?}"),
            }
        }
    };
    let ProtoMsg::FinishReconfig { highest_tag, .. } = &finish[0].msg else { panic!("{finish:?}") };
    assert_eq!(*highest_tag, t1, "the partial write is the transferred state");
    for dc in &new_config.dcs {
        let installed = servers[dc].key_state(&key, new_config.epoch).map(|s| &s.proto);
        let Some(ProtoState::Abd(state)) = installed else { panic!("{dc}: {installed:?}") };
        assert_eq!((state.tag, &state.value), (t1, &v1), "{dc} holds the transferred value");
    }
    deliver(&mut servers, CTRL, finish);

    // 3. The redirected client resumes in epoch 1 with the tag pinned.
    let mut resumed = AbdPut::resume_write(
        key.clone(),
        new_config.clone(),
        old.dcs[0],
        ClientId(9),
        t1,
        v1.clone(),
    );
    let mut finished = None;
    for (dc, r) in deliver(&mut servers, CLIENT, resumed.start()) {
        if let OpProgress::Done(done) = resumed.on_reply(dc, r.phase, r.reply) {
            finished = Some(done);
        }
    }
    let Some(OpOutcome::PutOk { tag }) = finished else {
        panic!("the resumed PUT must complete in the new epoch: {finished:?}");
    };
    assert_eq!(tag, t1, "one write, one linearization point: the pinned tag survives");

    // Every reader of the new epoch observes the single application at t1 — a rebuilt
    // PUT would have left the value at a fresh tag above t1.
    let mut get = AbdGet::new(key.clone(), new_config.clone(), new_config.dcs[0], false);
    let observed;
    'read: loop {
        let replies = deliver(&mut servers, READER, get.start());
        for (dc, r) in replies {
            match get.on_reply(dc, r.phase, r.reply) {
                OpProgress::Done(done) => {
                    observed = Some(done);
                    break 'read;
                }
                OpProgress::Send(msgs) => {
                    for (dc2, r2) in deliver(&mut servers, READER, msgs) {
                        if let OpProgress::Done(done) = get.on_reply(dc2, r2.phase, r2.reply) {
                            observed = Some(done);
                            break 'read;
                        }
                    }
                }
                OpProgress::Pending => {}
            }
        }
    }
    let Some(OpOutcome::GetOk { tag, value, .. }) = observed else {
        panic!("the read must complete: {observed:?}");
    };
    assert_eq!((tag, value), (t1, v1));
}

// ---------------------------------------------------------------------------
// Negative control: the checker must flag the double-apply this PR prevents.
// ---------------------------------------------------------------------------

/// Hand-injects the history a cross-epoch double-apply produces and asserts the
/// linearizability checker rejects it — proving the green sweeps below are meaningful.
///
/// Shape: `put(vA)` is transferred to the new epoch, `put(vB)` lands on top of it,
/// then the restarted old-epoch attempt re-applies `vA` under a fresh tag. Sequential
/// readers observe `vA`, `vB`, `vA` — the second `vA` read has no write to explain it.
#[test]
fn negative_control_cross_epoch_double_apply_is_not_linearizable() {
    let recorder = HistoryRecorder::new();
    let (va, vb) = (fingerprint(b"vA"), fingerprint(b"vB"));
    recorder.register_key("k", fingerprint(b"init"));
    recorder.record_put("k", 1, va, 0, 10); // the write that crossed the epoch boundary
    recorder.record_get("k", 2, va, 20, 30); // new epoch: transferred copy visible
    recorder.record_put("k", 3, vb, 40, 50); // a later write supersedes it
    recorder.record_get("k", 4, vb, 60, 70);
    recorder.record_get("k", 5, va, 80, 90); // the replayed vA resurfaces: new→old→new
    let failures = recorder.check_all();
    assert_eq!(failures.len(), 1, "the double-apply must be flagged: {failures:?}");
    assert!(!failures[0].1.is_ok());

    // The same anomaly expressed directly against the History API.
    let mut h = History::new(fingerprint(b"init"));
    h.push(legostore::lincheck::Operation::write(1, va, 0, 10));
    h.push(legostore::lincheck::Operation::write(2, vb, 20, 30));
    h.push(legostore::lincheck::Operation::read(3, va, 40, 50));
    assert_eq!(h.check(), CheckOutcome::NotLinearizable);
}

// ---------------------------------------------------------------------------
// Seeded storms: PUT/GET racing reconfigurations under within-f fault plans.
// ---------------------------------------------------------------------------

/// Discrete-event runtime: 200 seeded schedules of concurrent traffic, two protocol
/// flips, and a within-`f` fault plan over both placements. Every recorded history
/// must check linearizable (payloads are token-stamped, so any double-apply or stale
/// cross-epoch read is visible to the checker) and every operation must complete.
#[test]
fn sim_reconfig_storm_stays_linearizable_across_seeds() {
    for i in 0..SIM_SEEDS {
        let seed = SEED_BASE + i;
        let (old, flipped) = if seed % 2 == 0 {
            (abd_config(), cas_config())
        } else {
            (cas_config(), abd_config())
        };
        let plan = transfer_plan(&old, &flipped, seed, 12_000.0);
        let mut sim = Simulation::with_options(
            CloudModel::gcp9(),
            // Eight attempts, like the threaded storm below: every attempt counts
            // against the one budget, whether a timeout or a redirect ended the last.
            SimOptions {
                op_timeout_ms: 1_000.0,
                max_timeout_retries: 7,
            },
        );
        sim.enable_history_recording();
        sim.set_fault_plan(&plan);
        sim.create_key("storm", old.clone(), &Value::filler(64));
        let origins = [GcpLocation::Tokyo.dc(), GcpLocation::Oregon.dc(), GcpLocation::Frankfurt.dc()];
        for n in 0..36u64 {
            let kind = if n % 3 == 0 { OpKind::Put } else { OpKind::Get };
            sim.schedule_request(n as f64 * 250.0, origins[(n % 3) as usize], kind, "storm", 64);
        }
        // Two transfers race the traffic: flip protocols mid-stream, then flip back.
        let mut back = old.clone();
        back.dcs.rotate_left(1);
        sim.schedule_reconfig(2_000.0, "storm", flipped.clone());
        sim.schedule_reconfig(6_500.0, "storm", back);
        let report = sim.run();
        let histories = report.histories.as_ref().expect("recording enabled");
        let failures = histories.check_all();
        assert!(
            failures.is_empty(),
            "seed {seed}: non-linearizable under reconfig storm: {failures:?}"
        );
        assert_eq!(report.failures(), 0, "seed {seed}: within-f must stay live: {:?}", report.operations);
        assert!(
            !report.reconfig_durations_ms.is_empty(),
            "seed {seed}: at least one transfer must complete under within-f faults"
        );
    }
}

/// Threaded runtime: concurrent writer/reader threads race `Cluster::reconfigure`
/// while a seeded within-`f` fault plan fires, all on virtual time. The transfer must
/// complete, every operation must complete, and the history must check linearizable.
#[test]
fn cluster_reconfig_storm_stays_linearizable_across_seeds() {
    for i in 0..cluster_seed_count() {
        let seed = SEED_BASE + i;
        let (old, target) = if seed % 2 == 0 {
            (abd_config(), cas_config())
        } else {
            (cas_config(), abd_config())
        };
        let plan = transfer_plan(&old, &target, seed, 20_000.0);
        let cluster = Cluster::gcp9(ClusterOptions {
            latency_scale: 1.0,
            op_timeout: Duration::from_secs(2),
            max_attempts: 8,
            clock: Clock::virtual_time(),
            fault_plan: plan,
            obs: ObsConfig::Metrics,
            ..Default::default()
        });
        let key = Key::from(format!("storm-{seed}").as_str());
        cluster.install_key(key.clone(), old.clone(), &Value::from("init"));
        let clock = cluster.options().clock.clone();
        let key = Arc::new(key);
        let mut handles = Vec::new();
        // Two writers and a reader, placed across both placements plus one outsider.
        let spots = [old.dcs[0], target.dcs[0], GcpLocation::Frankfurt.dc()];
        for (who, dc) in spots.into_iter().enumerate() {
            let writes = who < 2;
            let mut client = cluster.client(dc);
            let key = key.clone();
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                let _guard = clock.enter();
                for n in 0..6 {
                    if writes {
                        let value = Value::from(format!("c{who}-v{n}").as_str());
                        client.put(&key, value).unwrap_or_else(|e| {
                            panic!("put c{who}-v{n} must survive a within-f transfer: {e}")
                        });
                    } else {
                        client.get(&key).unwrap_or_else(|e| {
                            panic!("get #{n} at {dc} must survive a within-f transfer: {e}")
                        });
                    }
                    clock.sleep(Duration::from_millis(1_200));
                }
            }));
        }
        // The transfer fires mid-traffic, racing the clients and the fault plan.
        {
            let _guard = clock.enter();
            clock.sleep(Duration::from_millis(2_000));
        }
        let took = cluster
            .reconfigure(key.as_ref().clone(), target.clone())
            .unwrap_or_else(|e| panic!("seed {seed}: within-f transfer must complete: {e}"));
        assert!(took < Duration::from_secs(16), "seed {seed}: {took:?}");
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(
            cluster.metadata_config(&key).unwrap().epoch,
            ConfigEpoch(1),
            "seed {seed}"
        );
        let failures = cluster.recorder().check_all();
        if !failures.is_empty() {
            cluster.obs().flight().dump_to_stderr("reconfig storm check failed");
        }
        assert!(
            failures.is_empty(),
            "seed {seed}: non-linearizable under reconfig storm: {failures:?}\nhistory: {:#?}",
            cluster.recorder().history(key.as_str())
        );
        assert_eq!(cluster.recorder().len(key.as_str()), 3 * 6, "seed {seed}: all ops completed");
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Beyond-f: the transfer stalls with a typed verdict and no half-moved key.
// ---------------------------------------------------------------------------

#[test]
fn beyond_f_faults_stall_the_transfer_with_a_typed_error() {
    // Crash two of three old-placement DCs (f = 1): the controller's query round can
    // never assemble a quorum, so the transfer must stall with the typed verdict —
    // naming the round — and leave the metadata pointing at the old configuration.
    let old = abd_config();
    let plan = FaultPlan {
        seed: 3,
        events: vec![
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: old.dcs[1] } },
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: old.dcs[2] } },
        ],
    };
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 1.0,
        op_timeout: Duration::from_millis(500),
        clock: Clock::virtual_time(),
        fault_plan: plan,
        ..Default::default()
    });
    let key = Key::from("stall");
    cluster.install_key(key.clone(), old.clone(), &Value::from("kept"));
    let err = cluster
        .reconfigure(key.clone(), cas_config())
        .expect_err("a beyond-f outage must stall the transfer");
    let StoreError::ReconfigStalled { epoch, round } = err else {
        panic!("the stall must be the typed verdict, got {err:?}");
    };
    assert_eq!(epoch, ConfigEpoch(1));
    assert_eq!(round, 1, "the query round is where the quorum is unreachable");
    // No half-moved key: the metadata still names the old epoch and configuration.
    let meta = cluster.metadata_config(&key).unwrap();
    assert_eq!(meta.epoch, ConfigEpoch::INITIAL);
    assert_eq!(meta.describe(), old.describe());
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Epoch lease: a dead controller cannot park deferred requests forever.
// ---------------------------------------------------------------------------

#[test]
fn epoch_lease_drains_deferred_requests_when_the_controller_stalls() {
    // The controller blocks the old placement in its query round, then stalls forever
    // in write-new (the entire new placement is down — beyond f for the transfer, but
    // zero faults on the old placement). Client requests parked behind the pending
    // epoch must not wait on a FinishReconfig that will never come: the epoch lease
    // expires on the virtual clock, the old epoch re-activates, and the parked
    // requests drain there — while the metadata still names the old configuration.
    let old = abd_config();
    let new = Configuration::abd_majority(
        vec![
            GcpLocation::Singapore.dc(),
            GcpLocation::Frankfurt.dc(),
            GcpLocation::Virginia.dc(),
        ],
        1,
    );
    let events = new
        .dcs
        .iter()
        .map(|dc| FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: *dc } })
        .collect();
    let op_timeout = Duration::from_millis(500);
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 1.0,
        op_timeout,
        // Enough timed-out attempts to outlast the default lease (16 × op_timeout).
        max_attempts: 24,
        clock: Clock::virtual_time(),
        fault_plan: FaultPlan { seed: 5, events },
        ..Default::default()
    });
    let key = Key::from("leased");
    cluster.install_key(key.clone(), old.clone(), &Value::from("v1"));
    let clock = cluster.options().clock.clone();

    // Both sides register with the clock before either moves, so the client fires at
    // exactly 1 s, after the controller's query round has blocked the old epoch at 0.
    let start = Arc::new(std::sync::Barrier::new(2));
    let put = {
        let mut client = cluster.client(old.dcs[0]);
        let (key, clock, start) = (key.clone(), clock.clone(), start.clone());
        std::thread::spawn(move || {
            let _participant = clock.enter();
            start.wait();
            clock.sleep(Duration::from_millis(1_000));
            let put = client.put(&key, Value::from("v2"));
            (put, clock.now_ns(), client.stats())
        })
    };
    let err = {
        let _participant = clock.enter();
        start.wait();
        cluster.reconfigure(key.clone(), new)
    }
    .expect_err("the transfer cannot complete with the new placement down");
    let StoreError::ReconfigStalled { round, .. } = err else {
        panic!("expected the typed stall verdict, got {err:?}");
    };
    assert_eq!(round, 3, "write-new is where the dead placement bites");
    let (put, done_ns, stats) = put.join().expect("client thread");
    put.expect("the parked PUT must drain via the epoch lease, in the old epoch");
    // The PUT stayed parked, attempt after attempt, until the lease ended.
    let lease_ns = (op_timeout * 2 * ReconfigDriver::DEADLINE_TIMEOUTS as u32).as_nanos() as u64;
    assert!(done_ns >= lease_ns, "the PUT returned at {done_ns} ns, before the lease ended");
    assert!(stats.timeout_restarts >= 1, "{stats:?}");

    // The key was never half-moved: old epoch, old placement, and the drained write
    // is durably readable there.
    let meta = cluster.metadata_config(&key).unwrap();
    assert_eq!(meta.epoch, ConfigEpoch::INITIAL);
    // A third-party reader (London hosts nothing and is not crashed) sees the drained
    // write through the old placement.
    let mut reader = cluster.client(GcpLocation::London.dc());
    assert_eq!(reader.get(&key).unwrap(), Value::from("v2"));
    assert!(cluster.recorder().check_all().is_empty());
    cluster.shutdown();
}
