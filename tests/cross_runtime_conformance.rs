//! Cross-runtime conformance: one workload trace + one fault plan, replayed on the
//! discrete-event simulator, on the virtual-time threaded deployment, *and* on the TCP
//! transport (real loopback sockets to `legostore-server` loops), must agree.
//!
//! This closes the ROADMAP item "the bench harness never drives the threaded
//! deployment": every experiment used to run only on `legostore-sim`, so nothing
//! checked that the simulator's latencies mean anything for real thread interleavings.
//! Here both runtimes execute the identical open-loop Poisson trace (one request
//! thread per arrival in the deployment, mirroring the simulator's open loop) under
//! the identical fault schedule, and the test asserts:
//!
//! * both record linearizable histories (the simulator now records histories too);
//! * every operation completes in both runtimes (the plan stays within `f = 1`);
//! * per-operation latencies agree — tightly for operations untouched by the fault
//!   window, loosely overall (retry timers may round differently at window edges).
//!
//! Stated tolerance: fault-free operations must match within [`CLEAN_TOLERANCE_MS`]
//! per op; the overall means within [`MEAN_TOLERANCE_FRACTION`]. Both runtimes are
//! deterministic here (virtual clocks, seeded trace, seeded faults), so these bounds
//! are stable, not flaky.
//!
//! The TCP runtime runs on a real clock (sockets are invisible to the virtual clock's
//! in-flight accounting), so its latencies carry loopback and scheduler noise and are
//! not compared numerically. It is held to the protocol-level guarantees instead: the
//! same concurrent faulty trace completes every operation with a linearizable history,
//! and a sequential trace produces the *identical* history (same operation kinds, same
//! observed values) as the in-process transport.

use legostore::prelude::*;
use legostore::types::{FaultEvent, FaultKind, FaultPlan};
use legostore_workload::Request;
use std::time::Duration;

/// Per-op latency agreement for operations outside the fault window (ms). The runtimes
/// model the same round trips; the slack covers the simulator metering transfer time on
/// the request leg, which the deployment does not charge at all (it models only the
/// reply's transfer time).
const CLEAN_TOLERANCE_MS: f64 = 5.0;

/// Relative agreement of the overall mean latencies (faulted ops included).
const MEAN_TOLERANCE_FRACTION: f64 = 0.15;

const OBJECT_BYTES: u64 = 64;

fn key() -> Key {
    Key::from("conformance")
}

fn config() -> Configuration {
    Configuration::abd_majority(
        vec![
            GcpLocation::Tokyo.dc(),
            GcpLocation::LosAngeles.dc(),
            GcpLocation::Oregon.dc(),
        ],
        1,
    )
}

/// The shared fault schedule: Los Angeles (a majority-quorum member for both client
/// sites) crashes for five seconds mid-trace, then recovers.
fn fault_plan() -> FaultPlan {
    let la = GcpLocation::LosAngeles.dc();
    FaultPlan {
        seed: 3,
        events: vec![
            FaultEvent { at_ms: 6_000.0, kind: FaultKind::CrashDc { dc: la } },
            FaultEvent { at_ms: 11_000.0, kind: FaultKind::RestartDc { dc: la } },
        ],
    }
}

/// True if an operation arriving at `t_ms` can interact with the crash window (the
/// window itself plus the retry budget after it).
fn touches_fault_window(t_ms: f64) -> bool {
    (2_000.0..=13_500.0).contains(&t_ms)
}

/// The shared trace: open-loop Poisson arrivals from Tokyo and Virginia.
fn trace() -> Vec<Request> {
    let mut spec = WorkloadSpec::example();
    spec.arrival_rate = 2.0;
    spec.read_ratio = 0.5;
    spec.object_size = OBJECT_BYTES;
    spec.client_distribution = vec![
        (GcpLocation::Tokyo.dc(), 0.6),
        (GcpLocation::Virginia.dc(), 0.4),
    ];
    let mut gen = TraceGenerator::new(spec, 1, 4242);
    gen.generate(20_000.0)
}

/// A 64-byte PUT payload unique to request `i` (distinct fingerprints keep the
/// linearizability check meaningful).
fn put_value(i: usize) -> Value {
    let mut bytes = vec![0xCDu8; OBJECT_BYTES as usize];
    bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
    Value::from(bytes)
}

fn initial_value() -> Value {
    Value::filler(OBJECT_BYTES as usize)
}

/// Replays the trace on the simulator; returns per-request latencies in trace order.
fn run_simulator(trace: &[Request]) -> Vec<f64> {
    let mut sim = Simulation::with_options(
        CloudModel::gcp9(),
        SimOptions {
            op_timeout_ms: 2_000.0,
            max_timeout_retries: 3,
        },
    );
    sim.enable_history_recording();
    sim.set_fault_plan(&fault_plan());
    sim.create_key(key().as_str(), config(), &initial_value());
    sim.schedule_trace(trace, 0.0, |_| key().to_string());
    let report = sim.run();
    assert_eq!(report.operations.len(), trace.len());
    assert_eq!(report.failures(), 0, "≤ f faults: every op completes: {:?}", report.operations);
    let histories = report.histories.as_ref().expect("recording enabled");
    let failures = histories.check_all();
    assert!(failures.is_empty(), "simulator history not linearizable: {failures:?}");
    // Operations are recorded in completion order; restore trace (arrival) order.
    let mut ops = report.operations.clone();
    ops.sort_by(|a, b| a.start_ms.partial_cmp(&b.start_ms).unwrap());
    ops.iter().map(|o| o.latency_ms()).collect()
}

/// Replays the trace on the threaded deployment under a virtual clock at
/// `latency_scale = 1.0` (model milliseconds == clock milliseconds): one thread per
/// arrival, released at its scheduled instant — the simulator's open loop, with real
/// thread interleavings. Returns per-request latencies in trace order.
fn run_deployment(trace: &[Request]) -> Vec<f64> {
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 1.0,
        op_timeout: Duration::from_secs(2),
        max_attempts: 4,
        clock: Clock::virtual_time(),
        fault_plan: fault_plan(),
        ..Default::default()
    });
    cluster.install_key(key(), config(), &initial_value());
    let clock = cluster.options().clock.clone();
    let key = key();
    let mut results: Vec<(usize, f64)> = std::thread::scope(|scope| {
        // Hold a participant guard while the request threads start: the virtual clock
        // must not advance past early arrival times before every thread has registered.
        let gate = clock.enter();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let handles: Vec<_> = trace
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let mut client = cluster.client(req.origin);
                let clock = clock.clone();
                let key = key.clone();
                let ready = ready_tx.clone();
                scope.spawn(move || {
                    let _guard = clock.enter();
                    ready.send(()).expect("main waits for readiness");
                    clock.sleep_until_ns((req.time_ms * 1_000_000.0) as u64);
                    let t0 = clock.now_ns();
                    match req.kind {
                        OpKind::Get => {
                            client.get(&key).unwrap_or_else(|e| panic!("get #{i}: {e}"));
                        }
                        OpKind::Put => {
                            client
                                .put(&key, put_value(i))
                                .unwrap_or_else(|e| panic!("put #{i}: {e}"));
                        }
                    }
                    (i, (clock.now_ns() - t0) as f64 / 1_000_000.0)
                })
            })
            .collect();
        for _ in 0..handles.len() {
            ready_rx.recv().expect("request thread panicked before registering");
        }
        drop(gate);
        handles.into_iter().map(|h| h.join().expect("request thread")).collect()
    });
    let failures = cluster.recorder().check_all();
    assert!(failures.is_empty(), "deployment history not linearizable: {failures:?}");
    assert_eq!(cluster.recorder().len(key.as_str()), trace.len());
    cluster.shutdown();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, l)| l).collect()
}

/// Replays the trace over real loopback sockets: one `legostore-server` loop per GCP
/// data center, the driver connected via `Cluster::connect_tcp`, arrivals scheduled on
/// the real clock at `TCP_SCALE` of model time. Asserts completion and linearizability
/// (latencies are not compared — real sockets add loopback and scheduler noise).
fn run_tcp_deployment(trace: &[Request]) {
    /// Real seconds per model second: compresses the 20 s trace to ~1 s of wall time
    /// while keeping the scaled op timeout (100 ms) far above a loopback round trip.
    const TCP_SCALE: f64 = 0.05;

    let model = CloudModel::gcp9();
    let mut addrs = std::collections::HashMap::new();
    let mut servers = Vec::new();
    for dc in model.dc_ids() {
        let (addr, handle) = legostore_server::spawn_server_thread(dc).expect("spawn server");
        addrs.insert(dc, addr);
        servers.push(handle);
    }
    let cluster = Cluster::connect_tcp(
        model,
        ClusterOptions {
            latency_scale: TCP_SCALE,
            op_timeout: Duration::from_secs_f64(2.0 * TCP_SCALE),
            max_attempts: 4,
            fault_plan: fault_plan(),
            ..Default::default()
        },
        &addrs,
    )
    .expect("connect to socket servers");
    cluster.install_key(key(), config(), &initial_value());
    let clock = cluster.options().clock.clone();
    let key = key();
    std::thread::scope(|scope| {
        let handles: Vec<_> = trace
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let mut client = cluster.client(req.origin);
                let clock = clock.clone();
                let key = key.clone();
                scope.spawn(move || {
                    clock.sleep_until_ns((req.time_ms * TCP_SCALE * 1_000_000.0) as u64);
                    match req.kind {
                        OpKind::Get => {
                            client.get(&key).unwrap_or_else(|e| panic!("tcp get #{i}: {e}"));
                        }
                        OpKind::Put => {
                            client
                                .put(&key, put_value(i))
                                .unwrap_or_else(|e| panic!("tcp put #{i}: {e}"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("tcp request thread");
        }
    });
    let failures = cluster.recorder().check_all();
    assert!(failures.is_empty(), "tcp history not linearizable: {failures:?}");
    assert_eq!(cluster.recorder().len(key.as_str()), trace.len());
    cluster.shutdown();
    for handle in servers {
        handle.join().expect("server thread").expect("server exits cleanly");
    }
}

#[test]
fn simulator_and_deployment_agree_on_the_same_faulty_trace() {
    let trace = trace();
    assert!(trace.len() >= 25, "expected a meaningful trace, got {}", trace.len());
    assert!(trace.iter().any(|r| touches_fault_window(r.time_ms)));
    let sim = run_simulator(&trace);
    let core = run_deployment(&trace);
    assert_eq!(sim.len(), core.len());

    let mut clean_worst: f64 = 0.0;
    for (i, req) in trace.iter().enumerate() {
        if !touches_fault_window(req.time_ms) {
            clean_worst = clean_worst.max((sim[i] - core[i]).abs());
        }
    }
    assert!(
        clean_worst <= CLEAN_TOLERANCE_MS,
        "fault-free ops must agree per-op: worst |Δ| = {clean_worst:.3} ms\nsim: {sim:?}\ncore: {core:?}"
    );

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (sim_mean, core_mean) = (mean(&sim), mean(&core));
    let rel = (sim_mean - core_mean).abs() / sim_mean.max(core_mean);
    assert!(
        rel <= MEAN_TOLERANCE_FRACTION,
        "overall means diverge: sim {sim_mean:.1} ms vs deployment {core_mean:.1} ms ({:.0}%)",
        rel * 100.0
    );

    // The fault window visibly inflated latency in both runtimes (the trace really
    // exercised the crash, this is not a vacuous comparison).
    let faulted_max = trace
        .iter()
        .enumerate()
        .filter(|(_, r)| touches_fault_window(r.time_ms))
        .map(|(i, _)| sim[i].max(core[i]))
        .fold(0.0f64, f64::max);
    assert!(
        faulted_max >= 1_000.0,
        "some op should have ridden through a timeout, max faulted latency {faulted_max:.1} ms"
    );
}

/// The third runtime: the identical concurrent faulty trace over real loopback sockets.
/// Same fault plan, same `f = 1` budget — every operation must complete and the recorded
/// history must be linearizable, like the channel-backed runtimes above.
#[test]
fn tcp_transport_completes_the_same_faulty_trace_linearizably() {
    let trace = trace();
    assert!(trace.iter().any(|r| touches_fault_window(r.time_ms)));
    run_tcp_deployment(&trace);
}

/// A deterministic sequential trace must produce the *identical* history — the same
/// operation kinds observing the same values in the same order — whether the messages
/// cross in-process channels or real sockets. This pins the transports to each other at
/// the level the paper cares about (what clients observe), not just "both linearizable".
#[test]
fn sequential_trace_yields_identical_histories_on_both_transports() {
    use legostore_lincheck::history::OperationKind;

    let ops_of = |recorder: &legostore_lincheck::HistoryRecorder, key: &Key| -> Vec<OperationKind> {
        recorder
            .history(key.as_str())
            .expect("key recorded")
            .operations
            .iter()
            .map(|op| op.kind)
            .collect()
    };
    let drive = |cluster: &Cluster| -> Vec<OperationKind> {
        cluster.install_key(key(), config(), &initial_value());
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        for i in 0..20usize {
            if i % 2 == 0 {
                client.put(&key(), put_value(i)).unwrap_or_else(|e| panic!("put #{i}: {e}"));
            } else {
                client.get(&key()).unwrap_or_else(|e| panic!("get #{i}: {e}"));
            }
        }
        assert!(cluster.recorder().check_all().is_empty());
        ops_of(&cluster.recorder(), &key())
    };

    let inproc = Cluster::gcp9(ClusterOptions {
        latency_scale: 0.01,
        clock: Clock::virtual_time(),
        ..Default::default()
    });
    let inproc_history = drive(&inproc);
    inproc.shutdown();

    let model = CloudModel::gcp9();
    let mut addrs = std::collections::HashMap::new();
    let mut servers = Vec::new();
    for dc in model.dc_ids() {
        let (addr, handle) = legostore_server::spawn_server_thread(dc).expect("spawn server");
        addrs.insert(dc, addr);
        servers.push(handle);
    }
    let tcp = Cluster::connect_tcp(
        model,
        ClusterOptions { latency_scale: 0.01, ..Default::default() },
        &addrs,
    )
    .expect("connect");
    let tcp_history = drive(&tcp);
    tcp.shutdown();
    for handle in servers {
        handle.join().expect("server thread").expect("server exits cleanly");
    }

    assert_eq!(inproc_history.len(), 20);
    assert_eq!(
        inproc_history, tcp_history,
        "the two transports observed different histories"
    );
}
