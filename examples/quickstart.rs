//! Quickstart: spin up an in-process geo-distributed LEGOStore, write and read a key from
//! clients in different continents, then let the optimizer move the key to a cheaper
//! erasure-coded configuration — all while the recorded history stays linearizable.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use legostore::prelude::*;

fn main() {
    // One server per GCP region of the paper; inter-DC latencies are injected from
    // the measured RTT table, scaled down 50x so the example finishes quickly.
    let cluster = Cluster::gcp9(ClusterOptions {
        latency_scale: 0.02,
        ..Default::default()
    });

    let tokyo = GcpLocation::Tokyo.dc();
    let london = GcpLocation::London.dc();
    let mut tokyo_client = cluster.client(tokyo);
    let mut london_client = cluster.client(london);

    // CREATE installs the key with the default configuration: ABD replication over the
    // three DCs nearest to the creating client.
    let key = Key::from("user:42:profile");
    tokyo_client
        .create(&key, Value::from("{\"name\": \"Ada\", \"plan\": \"free\"}"))
        .expect("create");
    println!(
        "created {key} with configuration {}",
        cluster.metadata_config(&key).unwrap().describe()
    );

    // Linearizable GET/PUT from anywhere in the world.
    let v = london_client.get(&key).expect("get from London");
    println!("London read : {}", String::from_utf8_lossy(v.as_bytes()));
    london_client
        .put(&key, Value::from("{\"name\": \"Ada\", \"plan\": \"pro\"}"))
        .expect("put from London");
    let v = tokyo_client.get(&key).expect("get from Tokyo");
    println!("Tokyo read  : {}", String::from_utf8_lossy(v.as_bytes()));

    // Ask the optimizer for the cheapest configuration for this key's (read-heavy, Tokyo +
    // London) workload, then migrate the key to it with the reconfiguration protocol.
    let mut spec = WorkloadSpec::example();
    spec.object_size = 64;
    spec.read_ratio = 0.95;
    spec.arrival_rate = 120.0;
    spec.client_distribution = vec![(tokyo, 0.5), (london, 0.5)];
    spec.slo_get_ms = 1000.0;
    spec.slo_put_ms = 1000.0;
    let plan = Optimizer::new(CloudModel::gcp9())
        .optimize(&spec)
        .expect("a feasible plan exists at a 1 s SLO");
    println!(
        "optimizer recommends {} at ${:.4}/hour (worst-case GET {:.0} ms, PUT {:.0} ms)",
        plan.config.describe(),
        plan.total_cost(),
        plan.worst_get_latency_ms,
        plan.worst_put_latency_ms
    );

    let took = cluster
        .reconfigure(key.clone(), plan.config.clone())
        .expect("reconfiguration succeeds");
    println!(
        "reconfigured to {} in {:.0?} (scaled time)",
        cluster.metadata_config(&key).unwrap().describe(),
        took
    );

    // The value survived the migration and every recorded operation is linearizable.
    let v = tokyo_client.get(&key).expect("get after reconfiguration");
    println!("after move  : {}", String::from_utf8_lossy(v.as_bytes()));
    let failures = cluster.recorder().check_all();
    println!(
        "linearizability check over {} operations: {}",
        cluster.recorder().len(key.as_str()),
        if failures.is_empty() { "OK" } else { "FAILED" }
    );
    cluster.shutdown();
}
