//! End-to-end telemetry: the observability layer observed from the outside.
//!
//! Three loops are closed here. (1) `Cluster::stats()` exposes client per-phase
//! histograms and per-DC server registries from a live in-process deployment.
//! (2) The §3.4 reconfiguration triggers fire from *live* span records drained off the
//! instrumented client path (`Obs::drain_ops` → `WorkloadMonitor::ingest`) rather than
//! hand-built observations. (3) A terminal `QuorumUnreachable` leaves a flight-recorder
//! timeline naming the fault verdicts and quorum widenings that led up to it.

use legostore::optimizer::{CostBreakdown, ReconfigTrigger, TriggerThresholds, WorkloadMonitor};
use legostore::types::{FaultEvent, FaultKind, FaultPlan};
use legostore::prelude::*;
use std::time::Duration;

fn cas_placement() -> Vec<DcId> {
    vec![
        GcpLocation::Tokyo.dc(),
        GcpLocation::Singapore.dc(),
        GcpLocation::Virginia.dc(),
        GcpLocation::LosAngeles.dc(),
        GcpLocation::Oregon.dc(),
    ]
}

fn instrumented_cluster() -> Cluster {
    Cluster::gcp9(ClusterOptions {
        clock: Clock::virtual_time(),
        obs: ObsConfig::Metrics,
        ..Default::default()
    })
}

#[test]
fn inproc_stats_expose_client_phases_and_per_dc_server_registries() {
    let cluster = instrumented_cluster();
    let key = Key::from("stats-key");
    cluster.install_key(
        key.clone(),
        Configuration::cas_default(cas_placement(), 3, 1),
        &Value::filler(2_048),
    );
    let mut client = cluster.client(GcpLocation::Tokyo.dc());
    for _ in 0..5 {
        client.put(&key, Value::filler(2_048)).expect("put");
        client.get(&key).expect("get");
    }

    let stats = cluster.stats().expect("in-proc scrape");
    assert_eq!(stats.servers.len(), 9, "one registry per gcp9 DC");

    // Client side: op counters and the per-phase breakdown of the CAS state machines.
    assert_eq!(stats.client.counter("client.put.ops"), 5);
    assert_eq!(stats.client.counter("client.get.ops"), 5);
    assert_eq!(stats.client.counter("client.ops_failed"), 0);
    for phase in 1..=3 {
        let h = stats
            .client
            .histogram(&format!("client.put.phase{phase}_ns"))
            .expect("CAS PUT phase histogram");
        assert_eq!(h.count, 5, "every PUT runs all 3 CAS phases");
    }
    assert!(stats.client.histogram("client.encode_ns").expect("encode").count >= 5);
    assert!(stats.client.histogram("client.decode_ns").expect("decode").count >= 5);
    // Sequential GETs against a quiet key take the one-phase fast path.
    assert_eq!(stats.client.counter("client.get.one_phase"), 5);

    // Server side. Phase 1 goes to a read quorum and phases 2–3 to a write quorum, not
    // to the full placement — the per-DC registries make that routing visible. Every DC
    // that served traffic metered bytes and filed dispatch times under the phase that
    // caused them; the scrape also refreshed the storage gauges everywhere the key
    // was installed.
    let served: Vec<DcId> = cas_placement()
        .into_iter()
        .filter(|dc| stats.servers[dc].counter("server.requests") > 0)
        .collect();
    assert!(served.len() >= 3, "at least a quorum served traffic: {served:?}");
    let mut phase1_total = 0;
    let mut finalize_total = 0;
    for dc in &served {
        let snap = &stats.servers[dc];
        assert!(snap.counter("server.bytes_in") > 0, "{dc}");
        assert!(snap.counter("server.bytes_out") > 0, "{dc}");
        let dispatched: u64 = (1..=4)
            .filter_map(|p| snap.histogram(&format!("server.dispatch_ns.phase{p}")))
            .map(|h| h.count)
            .sum();
        assert_eq!(dispatched, snap.counter("server.requests"), "{dc}");
        phase1_total += snap.histogram("server.dispatch_ns.phase1").map_or(0, |h| h.count);
        finalize_total += snap.counter("server.msg.cas_finalize_write");
    }
    assert!(phase1_total >= 10, "5 PUT + 5 GET queries hit the read quorum");
    assert!(finalize_total >= 5 * 3, "PUT finalizes hit the write quorum");
    for dc in cas_placement() {
        assert!(stats.servers[&dc].gauge("server.keys") >= 1, "{dc} stores the key");
        assert!(stats.servers[&dc].gauge("server.storage_bytes") > 0, "{dc}");
    }
    // A DC outside the placement answered the scrape too — with an idle registry.
    let idle = &stats.servers[&GcpLocation::Frankfurt.dc()];
    assert_eq!(idle.counter("server.requests"), 0);
    cluster.shutdown();
}

#[test]
fn reconfig_triggers_fire_from_live_ingested_spans() {
    // The key is planned for Tokyo-local traffic with loose SLOs; the actual workload
    // arrives from Frankfurt, far outside the placement. Every record that reaches the
    // monitor below came off the instrumented client path, not a hand-built fixture.
    let cluster = instrumented_cluster();
    let key = Key::from("skewed-key");
    cluster.install_key(
        key.clone(),
        Configuration::cas_default(cas_placement(), 3, 1),
        &Value::filler(4_096),
    );
    let mut client = cluster.client(GcpLocation::Frankfurt.dc());
    for _ in 0..12 {
        client.put(&key, Value::filler(4_096)).expect("put");
        client.get(&key).expect("get");
    }

    let records = cluster.obs().drain_ops();
    assert_eq!(records.len(), 24, "one record per completed operation");
    assert!(records.iter().all(|r| r.ok && r.key == "skewed-key"));

    // SLOs the installed configuration was supposed to meet: 50 ms is generous for the
    // planned Tokyo-local clients and hopeless from Frankfurt.
    let mut monitor = WorkloadMonitor::new(600_000.0, 50.0, 50.0);
    let scale = cluster.options().latency_scale;
    for rec in &records {
        monitor.ingest(rec, scale);
    }
    assert_eq!(monitor.len(), 24);
    assert_eq!(monitor.client_distribution(), vec![(GcpLocation::Frankfurt.dc(), 1.0)]);

    let mut planned = WorkloadSpec::example();
    planned.arrival_rate = 100.0;
    planned.read_ratio = 0.5;
    planned.client_distribution = vec![(GcpLocation::Tokyo.dc(), 1.0)];
    let predicted = CostBreakdown { get_network: 0.1, put_network: 0.1, storage: 0.05, vm: 0.05 };
    let triggers =
        monitor.triggers(&planned, &predicted, 1.0, &TriggerThresholds::default());

    // Persistent SLO violations (24 of 24 ops over the SLO), a cost overrun (observed
    // $1.0/h vs $0.3/h predicted) and workload drift (the client mix moved wholesale
    // from Tokyo to Frankfurt) must all be flagged.
    assert!(
        triggers.iter().any(|t| matches!(t, ReconfigTrigger::SloViolations { count, .. } if *count == 24)),
        "{triggers:?}"
    );
    assert!(
        triggers.iter().any(|t| matches!(t, ReconfigTrigger::CostOverrun { .. })),
        "{triggers:?}"
    );
    assert!(
        triggers.iter().any(|t| matches!(t, ReconfigTrigger::WorkloadDrift { .. })),
        "{triggers:?}"
    );

    // The drained estimate is directly re-plannable by the optimizer.
    let estimate = monitor.estimate(&planned);
    estimate.validate().expect("estimated spec is well-formed");
    assert_eq!(estimate.client_dcs(), vec![GcpLocation::Frankfurt.dc()]);
    assert_eq!(estimate.object_size, 4_096);

    // Draining is consuming: a second drain sees only what happened since.
    assert!(cluster.obs().drain_ops().is_empty());
    cluster.shutdown();
}

#[test]
fn encode_span_times_the_codec_not_the_constructor() {
    // A CAS PUT builds its codeword on leaving phase 1, inside the driver step that
    // completes the query — that step is what the Encode span must cover. On a real
    // clock, coding 100 KiB under (5,3) cannot take under a microsecond; the span used
    // to wrap `CasPut::new`, which encodes nothing, and read a few hundred ns.
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 0.002,
        obs: ObsConfig::Metrics,
        ..Default::default()
    });
    let key = Key::from("bulk");
    let config = Configuration::cas_default(cas_placement(), 3, 1);
    cluster.install_key(key.clone(), config, &Value::filler(1));
    let mut client = cluster.client(GcpLocation::Tokyo.dc());
    client.put(&key, Value::filler(100 * 1024)).expect("put");
    let snap = cluster.obs().snapshot();
    let encode = snap.histogram("client.encode_ns").expect("encode histogram");
    assert_eq!(encode.count, 1, "one PUT, one encode");
    assert!(encode.mean() >= 1_000.0, "encode span of {} ns", encode.mean());
    cluster.shutdown();
}

#[test]
fn quorum_unreachable_leaves_a_flight_recorder_timeline() {
    // Crash 2 of 3 ABD hosts — beyond f = 1 — so the client exhausts its attempts and
    // returns the typed verdict. The flight recorder must then hold the story: fault
    // verdicts dropping requests, timeout widenings, and the final give-up line.
    let placement = vec![
        GcpLocation::Tokyo.dc(),
        GcpLocation::LosAngeles.dc(),
        GcpLocation::Oregon.dc(),
    ];
    let plan = FaultPlan {
        seed: 21,
        events: vec![
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: placement[1] } },
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: placement[2] } },
        ],
    };
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 1.0,
        op_timeout: Duration::from_millis(500),
        max_attempts: 2,
        clock: Clock::virtual_time(),
        fault_plan: plan,
        obs: ObsConfig::Metrics,
        ..Default::default()
    });
    let key = Key::from("doomed");
    cluster.install_key(key.clone(), Configuration::abd_majority(placement, 1), &Value::from("v"));
    let mut client = cluster.client(GcpLocation::Tokyo.dc());

    let err = client.put(&key, Value::from("lost")).unwrap_err();
    assert!(matches!(err, StoreError::QuorumUnreachable { .. }), "{err:?}");

    let dump = cluster.obs().flight().dump("test inspection");
    assert!(dump.contains("fault verdict dropped request"), "{dump}");
    assert!(dump.contains("widening to the full placement"), "{dump}");
    assert!(dump.contains("gave up after"), "{dump}");

    // The failure also landed in the metrics and the op stream.
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("client.ops_failed"), 1);
    assert!(snap.counter("client.retries.timeout_widen") >= 1);
    assert!(snap.counter("transport.drops.request") > 0);
    let records = cluster.obs().drain_ops();
    assert_eq!(records.len(), 1);
    assert!(!records[0].ok);
    cluster.shutdown();
}

#[test]
fn trace_level_renders_span_timelines() {
    // `ObsConfig::Trace` (the `LEGOSTORE_TRACE=1` knob) implies metrics and adds the
    // per-op timeline rendering on stderr; this exercises that path end to end.
    let cluster = Cluster::gcp9(ClusterOptions {
        clock: Clock::virtual_time(),
        obs: ObsConfig::Trace,
        ..Default::default()
    });
    assert!(cluster.obs().trace_enabled());
    let key = Key::from("traced");
    let mut client = cluster.client(GcpLocation::Tokyo.dc());
    client.create(&key, Value::from("v0")).expect("create");
    assert_eq!(client.get(&key).expect("get"), Value::from("v0"));
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("client.get.ops"), 1);
    cluster.shutdown();
}
