//! # LEGOStore
//!
//! A reproduction, as a Rust library, of **"LEGOStore: A Linearizable Geo-Distributed Store
//! Combining Replication and Erasure Coding"** (VLDB 2022): a linearizable key-value store
//! that, per key, chooses between the replication-based ABD protocol and the erasure-coded
//! CAS protocol, places quorums across public-cloud data centers with a cost optimizer, and
//! migrates keys between configurations with an agile, provably linearizable
//! reconfiguration protocol.
//!
//! This crate is a thin facade over the workspace's focused crates:
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`types`] | `legostore-types` | Keys, values, tags, configurations, errors |
//! | [`erasure`] | `legostore-erasure` | GF(2^8) Reed–Solomon codec |
//! | [`cloud`] | `legostore-cloud` | The 9-DC GCP model (RTTs, prices) and custom topologies |
//! | [`proto`] | `legostore-proto` | ABD / CAS / reconfiguration protocol state machines |
//! | [`obs`] | `legostore-obs` | Telemetry: lock-light metrics, phase spans, flight recorder |
//! | [`store`] | `legostore-core` | The runnable store: transports, clients, controller |
//! | [`server`] | `legostore-server` | Standalone per-DC TCP server (`legostore-server` binary) |
//! | [`optimizer`] | `legostore-optimizer` | Cost model, placement search, baselines |
//! | [`sim`] | `legostore-sim` | Deterministic geo-distributed simulator with cost metering |
//! | [`workload`] | `legostore-workload` | Workload grid, Poisson traces, Wikipedia-like trace |
//! | [`lincheck`] | `legostore-lincheck` | Linearizability checker for recorded histories |
//! | [`campaign`] | `legostore-campaign` | Tiered seeded scenario sweeps with deterministic reports |
//!
//! ## Quickstart
//!
//! ```
//! use legostore::prelude::*;
//!
//! // An in-process deployment spanning the paper's nine GCP regions (latencies scaled
//! // down so the example runs fast).
//! let cluster = Cluster::gcp9(ClusterOptions { latency_scale: 0.001, ..Default::default() });
//! let mut client = cluster.client(GcpLocation::Tokyo.dc());
//!
//! let key = Key::from("greeting");
//! client.create(&key, Value::from("hello geo-distributed world")).unwrap();
//! assert_eq!(client.get(&key).unwrap(), Value::from("hello geo-distributed world"));
//!
//! // Ask the optimizer for a cheaper configuration for this key's workload ...
//! let optimizer = Optimizer::new(CloudModel::gcp9());
//! let mut spec = WorkloadSpec::example();
//! spec.client_distribution = vec![(GcpLocation::Tokyo.dc(), 1.0)];
//! let plan = optimizer.optimize(&spec).expect("feasible");
//!
//! // ... and migrate the key to it without losing linearizability.
//! cluster.reconfigure(key.clone(), plan.config.clone()).unwrap();
//! assert_eq!(client.get(&key).unwrap(), Value::from("hello geo-distributed world"));
//! assert!(cluster.recorder().check_all().is_empty());
//! ```
//!
//! ## Going multi-process
//!
//! The same deployment can run as one OS process per data center: start the
//! `legostore-server` binary per DC and connect with [`store::Cluster::connect_tcp`],
//! which speaks the length-prefixed wire protocol of [`proto::wire`] over real TCP
//! sockets. See `examples/multi_process.rs` and the "Transport" section of
//! `ARCHITECTURE.md`.

pub use legostore_campaign as campaign;
pub use legostore_cloud as cloud;
pub use legostore_core as store;
pub use legostore_erasure as erasure;
pub use legostore_lincheck as lincheck;
pub use legostore_obs as obs;
pub use legostore_optimizer as optimizer;
pub use legostore_proto as proto;
pub use legostore_server as server;
pub use legostore_sim as sim;
pub use legostore_types as types;
pub use legostore_workload as workload;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use legostore_cloud::{CloudModel, CloudModelBuilder, DataCenter, GcpLocation};
    pub use legostore_core::{Clock, Cluster, ClusterOptions, ClusterStats, StoreClient};
    pub use legostore_obs::{MetricsSnapshot, Obs, ObsConfig};
    pub use legostore_server::{find_server_binary, spawn_server_thread};
    pub use legostore_lincheck::{CheckOutcome, History, HistoryRecorder};
    pub use legostore_optimizer::{
        baselines::{evaluate_baseline, Baseline},
        search::{Objective, Optimizer, ProtocolFilter, SearchOptions},
        Plan,
    };
    pub use legostore_sim::{SimOptions, SimReport, Simulation};
    pub use legostore_types::{
        ClientId, ConfigEpoch, Configuration, DcId, Key, OpKind, ProtocolKind, QuorumId,
        StoreError, StoreResult, Tag, Value,
    };
    pub use legostore_workload::{
        basic_workloads, client_distribution, ClientDistribution, ReadRatio, TraceGenerator,
        WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let model = CloudModel::gcp9();
        assert_eq!(model.num_dcs(), 9);
        let spec = WorkloadSpec::example();
        spec.validate().unwrap();
        let config = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
        config.validate().unwrap();
        assert_eq!(ProtocolKind::Cas.put_phases(), 3);
    }
}
