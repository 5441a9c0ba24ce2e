//! Full-stack TCP transport tests: the same client/protocol/cluster stack that runs over
//! in-process channels, now over real loopback sockets to `legostore-server` loops —
//! including deterministic fault injection at the TCP seam (the same `FaultPlan` type
//! that drives the in-process transport and the simulator).

use legostore_core::{Clock, Cluster, ClusterOptions};
use legostore_cloud::CloudModelBuilder;
use legostore_proto::wire::Frame;
use legostore_server::spawn_server_thread;
use legostore_types::{
    Configuration, DcId, FaultEvent, FaultKind, FaultPlan, Key, StoreError, Value,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stands up `n` TCP servers (threads with real listeners) and returns their addresses.
fn spawn_servers(n: u16) -> (HashMap<DcId, SocketAddr>, Vec<JoinHandle<std::io::Result<()>>>) {
    let mut addrs = HashMap::new();
    let mut handles = Vec::new();
    for id in 0..n {
        let (addr, handle) = spawn_server_thread(DcId(id)).expect("spawn server");
        addrs.insert(DcId(id), addr);
        handles.push(handle);
    }
    (addrs, handles)
}

fn tcp_options() -> ClusterOptions {
    ClusterOptions {
        // Modeled geo-latencies at 2% of real scale: the uniform model's 100 ms RTT
        // becomes 2 ms on top of the real loopback round trip.
        latency_scale: 0.02,
        op_timeout: Duration::from_millis(500),
        controller_dc: DcId(0),
        ..Default::default()
    }
}

/// PUT/GET/reconfigure over real sockets: ABD and CAS keys served by six TCP servers,
/// linearizable recorded history, clean shutdown of every server.
#[test]
fn tcp_cluster_serves_abd_and_cas_with_linearizable_history() {
    let (addrs, handles) = spawn_servers(6);
    let model = CloudModelBuilder::uniform(6).build();
    let cluster = Cluster::connect_tcp(model, tcp_options(), &addrs).expect("connect");

    let abd_key = Key::from("abd");
    let cas_key = Key::from("cas");
    let abd = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
    let cas = Configuration::cas_default(
        vec![DcId(0), DcId(1), DcId(2), DcId(3), DcId(4)],
        3,
        1,
    );
    cluster.install_key(abd_key.clone(), abd, &Value::from("a0"));
    cluster.install_key(cas_key.clone(), cas, &Value::filler(700));

    let mut near = cluster.client(DcId(0));
    let mut far = cluster.client(DcId(5));
    assert_eq!(near.get(&abd_key).expect("abd get"), Value::from("a0"));
    near.put(&abd_key, Value::from("a1")).expect("abd put");
    assert_eq!(far.get(&abd_key).expect("abd get from afar"), Value::from("a1"));
    assert_eq!(far.get(&cas_key).expect("cas get"), Value::filler(700));
    far.put(&cas_key, Value::filler(350)).expect("cas put");
    assert_eq!(near.get(&cas_key).expect("cas get back"), Value::filler(350));

    // The reconfiguration controller drives Algorithm 1 over the same sockets.
    let new_config = Configuration::cas_default(
        vec![DcId(1), DcId(2), DcId(3), DcId(4)],
        2,
        1,
    );
    cluster.reconfigure(abd_key.clone(), new_config).expect("reconfigure over tcp");
    assert_eq!(
        cluster.metadata_config(&abd_key).unwrap().describe(),
        "CAS(4,2)"
    );
    assert_eq!(near.get(&abd_key).expect("get after reconfig"), Value::from("a1"));
    far.put(&abd_key, Value::from("a2")).expect("put after reconfig");
    assert_eq!(near.get(&abd_key).expect("final get"), Value::from("a2"));

    let failures = cluster.recorder().check_all();
    assert!(failures.is_empty(), "history not linearizable: {failures:?}");
    cluster.shutdown();
    for handle in handles {
        handle.join().expect("server thread").expect("server exits cleanly");
    }
}

/// A within-`f` fault plan applied at the TCP seam: DC 1 is crashed for a window and its
/// inbound link is lossy/duplicating even while alive, DC 2 is slowed. The quorum
/// `{0, 2}` stays clean throughout, so every operation must complete and the recorded
/// history must stay linearizable — the same guarantees the in-process transport gives
/// under this plan.
#[test]
fn fault_plan_over_sockets_stays_linearizable_within_f() {
    for seed in [11u64, 29] {
        let plan = FaultPlan {
            seed,
            events: vec![
                FaultEvent {
                    at_ms: 0.0,
                    kind: FaultKind::SlowDc { dc: DcId(2), extra_ms: 10.0 },
                },
                FaultEvent {
                    at_ms: 0.0,
                    kind: FaultKind::LinkFault {
                        from: DcId(0),
                        to: DcId(1),
                        drop_prob: 0.4,
                        dup_prob: 0.3,
                        extra_ms: 2.0,
                    },
                },
                FaultEvent { at_ms: 3_000.0, kind: FaultKind::CrashDc { dc: DcId(1) } },
                FaultEvent { at_ms: 6_000.0, kind: FaultKind::RestartDc { dc: DcId(1) } },
            ],
        };
        let (addrs, handles) = spawn_servers(3);
        let model = CloudModelBuilder::uniform(3).build();
        let options = ClusterOptions {
            fault_plan: plan,
            // Dropped preferred-quorum messages cost a full attempt timeout before the
            // widened re-send rides through quorum {0, 2}; keep the timeout small so the
            // ~40%-lossy link doesn't dominate test wall time.
            op_timeout: Duration::from_millis(100),
            ..tcp_options()
        };
        let cluster = Cluster::connect_tcp(model, options, &addrs).expect("connect");
        let key = Key::from("faulted");
        let config = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
        cluster.install_key(key.clone(), config, &Value::from("v0"));

        let mut client = cluster.client(DcId(0));
        for i in 0..20u32 {
            if i % 3 == 0 {
                let value = Value::from(format!("v{i}").as_str());
                client.put(&key, value).unwrap_or_else(|e| panic!("seed {seed} put #{i}: {e}"));
            } else {
                client.get(&key).unwrap_or_else(|e| panic!("seed {seed} get #{i}: {e}"));
            }
        }
        let failures = cluster.recorder().check_all();
        assert!(failures.is_empty(), "seed {seed}: history not linearizable: {failures:?}");
        assert_eq!(cluster.recorder().len(key.as_str()), 20);
        cluster.shutdown();
        for handle in handles {
            handle.join().expect("server thread").expect("server exits cleanly");
        }
    }
}

/// Stops one server process the way an operator would: a raw `Shutdown` frame on its own
/// connection, then waits for its serve loop to exit.
fn stop_server(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut conn = TcpStream::connect(addr).expect("connect to stop");
    Frame::Shutdown.write_to(&mut conn).expect("send shutdown");
    handle.join().expect("server thread").expect("server exits cleanly");
}

/// A server that really exits (no fault plan involved) is a dead link, not an error:
/// writes to its closed socket are dropped requests, so within `f` every operation and a
/// reconfiguration still complete, and beyond `f` the client gives up with the typed
/// `QuorumUnreachable`, never a `Transport` error.
#[test]
fn exited_server_is_a_dropped_link_not_a_failed_operation() {
    let (addrs, handles) = spawn_servers(4);
    let mut handles: Vec<Option<_>> = handles.into_iter().map(Some).collect();
    let model = CloudModelBuilder::uniform(4).build();
    let options = ClusterOptions {
        // DC 1 is in DC 0's preferred quorum {0, 1}: every operation pays one attempt
        // timeout before the widened re-send completes on {0, 2}.
        op_timeout: Duration::from_millis(40),
        ..tcp_options()
    };
    let cluster = Cluster::connect_tcp(model, options, &addrs).expect("connect");
    let abd = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
    let (key, doomed) = (Key::from("survivor"), Key::from("doomed"));
    cluster.install_key(key.clone(), abd.clone(), &Value::from("v0"));
    cluster.install_key(doomed.clone(), abd, &Value::from("d0"));

    stop_server(addrs[&DcId(1)], handles[1].take().expect("DC 1 running"));
    let mut client = cluster.client(DcId(0));
    for i in 0..50u32 {
        let value = Value::from(format!("v{i}").as_str());
        client.put(&key, value.clone()).unwrap_or_else(|e| panic!("put #{i}: {e}"));
        assert_eq!(client.get(&key).unwrap_or_else(|e| panic!("get #{i}: {e}")), value);
    }
    let moved = Configuration::abd_majority(vec![DcId(0), DcId(2), DcId(3)], 1);
    cluster.reconfigure(key.clone(), moved).expect("reconfigure away from the dead DC");
    assert_eq!(client.get(&key).expect("get after reconfig"), Value::from("v49"));

    stop_server(addrs[&DcId(2)], handles[2].take().expect("DC 2 running"));
    let put = client.put(&doomed, Value::from("d1"));
    assert!(
        matches!(put, Err(StoreError::QuorumUnreachable { .. })),
        "expected QuorumUnreachable, got {put:?}"
    );

    let failures = cluster.recorder().check_all();
    assert!(failures.is_empty(), "history not linearizable: {failures:?}");
    assert_eq!(cluster.recorder().len(key.as_str()), 101);
    cluster.shutdown();
    for handle in handles.into_iter().flatten() {
        handle.join().expect("server thread").expect("server exits cleanly");
    }
}

/// Beyond-`f` at the TCP seam: two of three ABD hosts crashed from t = 0. Every attempt
/// times out and the client must give up with the typed terminal error — bounded time,
/// no hang, no panic — exactly as over the in-process transport.
#[test]
fn fault_plan_over_sockets_beyond_f_returns_quorum_unreachable() {
    let plan = FaultPlan {
        seed: 5,
        events: vec![
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: DcId(1) } },
            FaultEvent { at_ms: 0.0, kind: FaultKind::CrashDc { dc: DcId(2) } },
        ],
    };
    let (addrs, handles) = spawn_servers(3);
    let model = CloudModelBuilder::uniform(3).build();
    let options = ClusterOptions {
        fault_plan: plan,
        op_timeout: Duration::from_millis(150),
        max_attempts: 2,
        // A virtual clock is requested but sockets cannot support it; connect_tcp must
        // fall back to a real clock rather than deadlock the quiescence rule.
        clock: Clock::virtual_time(),
        ..tcp_options()
    };
    let cluster = Cluster::connect_tcp(model, options, &addrs).expect("connect");
    assert!(!cluster.options().clock.is_virtual());
    let key = Key::from("doomed");
    let config = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
    cluster.install_key(key.clone(), config, &Value::from("v"));

    let mut client = cluster.client(DcId(0));
    let put = client.put(&key, Value::from("w"));
    let Err(StoreError::QuorumUnreachable { attempts, last }) = put else {
        panic!("expected QuorumUnreachable, got {put:?}");
    };
    assert_eq!(attempts, 2);
    assert!(
        matches!(*last, StoreError::QuorumTimeout { .. }),
        "wrapped error should be the stalled quorum: {last:?}"
    );
    // Failed operations are never recorded, so the history cannot be corrupted.
    assert!(cluster.recorder().check_all().is_empty());
    cluster.shutdown();
    for handle in handles {
        handle.join().expect("server thread").expect("server exits cleanly");
    }
}
