//! The worst-case latency model of Appendix C (equations (16)–(19)).
//!
//! Tail latency is approximated by worst-case latency: for each phase, the slowest quorum
//! member determines the phase's duration, and phases add up. Each phase's per-server term
//! is the round trip (`l_ij + l_ji`) plus the transfer time of whatever payload moves in
//! that phase (`o_m / B` for metadata, `o_g / B` for full values, `o_g / (k·B)` for codeword
//! symbols). Intra-DC queueing, encoding and decoding are ignored, as in the paper.

use legostore_cloud::CloudModel;
use legostore_types::{Configuration, DcId, ProtocolKind, QuorumId};
use legostore_workload::WorkloadSpec;

/// One phase of an operation in the latency model: the client contacts every member of
/// `quorum`, sending `to_server_bytes` and receiving `from_server_bytes` from each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    pub(crate) quorum: QuorumId,
    to_server_bytes: u64,
    from_server_bytes: u64,
}

impl Phase {
    fn new(quorum: QuorumId, to_server_bytes: u64, from_server_bytes: u64) -> Self {
        Phase {
            quorum,
            to_server_bytes,
            from_server_bytes,
        }
    }

    /// The phase's duration if `member` is its slowest quorum member: the round trip plus
    /// both transfer times.
    pub(crate) fn member_ms(&self, model: &CloudModel, client: DcId, member: DcId) -> f64 {
        model.rtt_ms(client, member)
            + model.transfer_time_ms(client, member, self.to_server_bytes)
            + model.transfer_time_ms(member, client, self.from_server_bytes)
    }
}

/// The phases of a GET, in order (equations (16)/(18)).
pub(crate) fn get_phases(spec: &WorkloadSpec, protocol: ProtocolKind, k: usize) -> Vec<Phase> {
    let om = spec.metadata_size;
    let og = spec.object_size;
    match protocol {
        // Phase 1: query goes out (metadata), tag+value come back; phase 2: the write-back
        // ships the value, the ack returns.
        ProtocolKind::Abd => vec![
            Phase::new(QuorumId::Q1, om, om + og),
            Phase::new(QuorumId::Q2, om + og, om),
        ],
        ProtocolKind::Cas => {
            let symbol = og / k as u64;
            vec![
                Phase::new(QuorumId::Q1, om, om),
                Phase::new(QuorumId::Q4, om, om + symbol),
            ]
        }
    }
}

/// The phases of a PUT, in order (equations (17)/(19)).
pub(crate) fn put_phases(spec: &WorkloadSpec, protocol: ProtocolKind, k: usize) -> Vec<Phase> {
    let om = spec.metadata_size;
    let og = spec.object_size;
    match protocol {
        ProtocolKind::Abd => vec![
            Phase::new(QuorumId::Q1, om, om),
            Phase::new(QuorumId::Q2, om + og, om),
        ],
        ProtocolKind::Cas => {
            let symbol = og / k as u64;
            vec![
                Phase::new(QuorumId::Q1, om, om),
                Phase::new(QuorumId::Q2, om + symbol, om),
                Phase::new(QuorumId::Q3, om, om),
            ]
        }
    }
}

/// Worst-case latency (ms) of `phases` for a client at `client`: each phase lasts as long
/// as its slowest quorum member, and phases add.
fn latency_ms(model: &CloudModel, config: &Configuration, client: DcId, phases: &[Phase]) -> f64 {
    phases
        .iter()
        .map(|phase| {
            config
                .quorum_for(client, phase.quorum)
                .iter()
                .map(|j| phase.member_ms(model, client, *j))
                .fold(0.0, f64::max)
        })
        .sum()
}

/// Worst-case GET latency (ms) for a client located at `client` (equations (16)/(18)).
pub fn get_latency_ms(
    model: &CloudModel,
    spec: &WorkloadSpec,
    config: &Configuration,
    client: DcId,
) -> f64 {
    let phases = get_phases(spec, config.protocol, config.k);
    latency_ms(model, config, client, &phases)
}

/// Worst-case PUT latency (ms) for a client located at `client` (equations (17)/(19)).
pub fn put_latency_ms(
    model: &CloudModel,
    spec: &WorkloadSpec,
    config: &Configuration,
    client: DcId,
) -> f64 {
    let phases = put_phases(spec, config.protocol, config.k);
    latency_ms(model, config, client, &phases)
}

/// Worst-case GET/PUT latencies over every client location with non-zero traffic.
pub fn worst_latencies_ms(
    model: &CloudModel,
    spec: &WorkloadSpec,
    config: &Configuration,
) -> (f64, f64) {
    let mut worst_get: f64 = 0.0;
    let mut worst_put: f64 = 0.0;
    for (client, frac) in &spec.client_distribution {
        if *frac <= 0.0 {
            continue;
        }
        worst_get = worst_get.max(get_latency_ms(model, spec, config, *client));
        worst_put = worst_put.max(put_latency_ms(model, spec, config, *client));
    }
    (worst_get, worst_put)
}

/// True if `config` meets the SLOs of `spec` for every client location.
pub fn meets_slo(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> bool {
    let (g, p) = worst_latencies_ms(model, spec, config);
    g <= spec.slo_get_ms && p <= spec.slo_put_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_cloud::{CloudModel, CloudModelBuilder, GcpLocation};
    use legostore_types::DcId;
    use legostore_workload::WorkloadSpec;

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    fn spec_at(client: DcId) -> WorkloadSpec {
        let mut s = WorkloadSpec::example();
        s.client_distribution = vec![(client, 1.0)];
        s.metadata_size = 0; // isolate propagation delay in the simple tests
        s.object_size = 1; // negligible transfer time
        s
    }

    #[test]
    fn abd_latency_is_two_worst_case_rtts() {
        let model = CloudModelBuilder::uniform(3)
            .rtt(0, 1, 50.0)
            .rtt(0, 2, 200.0)
            .rtt(1, 2, 100.0)
            .build();
        let spec = spec_at(DcId(0));
        let mut config = Configuration::abd_majority(dcs(3), 1);
        std::sync::Arc::make_mut(&mut config.preferred_quorums)
            .insert(DcId(0), vec![vec![DcId(0), DcId(1)], vec![DcId(0), DcId(1)]]);
        // Each phase is dominated by the 50 ms RTT to DC 1.
        let put = put_latency_ms(&model, &spec, &config, DcId(0));
        assert!((put - 100.0).abs() < 1.0, "put {put}");
        let get = get_latency_ms(&model, &spec, &config, DcId(0));
        assert!((get - 100.0).abs() < 1.0, "get {get}");
        // Using the far DC instead makes both phases 200 ms.
        std::sync::Arc::make_mut(&mut config.preferred_quorums)
            .insert(DcId(0), vec![vec![DcId(0), DcId(2)], vec![DcId(0), DcId(2)]]);
        let put = put_latency_ms(&model, &spec, &config, DcId(0));
        assert!((put - 400.0).abs() < 1.0);
    }

    #[test]
    fn cas_put_has_three_phases() {
        let model = CloudModelBuilder::uniform(5).build(); // all RTTs 100 ms
        let spec = spec_at(DcId(0));
        let config = Configuration::cas_default(dcs(5), 3, 1);
        let put = put_latency_ms(&model, &spec, &config, DcId(0));
        let get = get_latency_ms(&model, &spec, &config, DcId(0));
        // Quorums include remote DCs, so each phase is ~100 ms.
        assert!((put - 300.0).abs() < 2.0, "put {put}");
        assert!((get - 200.0).abs() < 2.0, "get {get}");
    }

    #[test]
    fn transfer_time_matters_for_large_objects() {
        let model = CloudModelBuilder::uniform(3).bandwidth_all(1_000_000.0).build(); // 1 MB/s
        let mut spec = spec_at(DcId(0));
        spec.object_size = 1_000_000; // 1 MB -> 1 s transfer
        spec.metadata_size = 100;
        let config = Configuration::abd_majority(dcs(3), 1);
        let put = put_latency_ms(&model, &spec, &config, DcId(0));
        // Phase 2 ships the 1 MB value: ≥ 1000 ms on top of the RTTs.
        assert!(put > 1000.0);
        // CAS with k=3 over 5 DCs ships only a third of the value.
        let cas = Configuration::cas_default(dcs(3), 1, 1);
        let cas_put = put_latency_ms(&model, &spec, &cas, DcId(0));
        assert!(cas_put > 1000.0); // k=1 still ships everything
    }

    #[test]
    fn paper_example_tokyo_ec_vs_replication() {
        // §4.2.5: for users in Tokyo with f=1, the lowest GET latency via ABD is 139 ms
        // (quorum {Tokyo, LA, Oregon}-ish) whereas CAS achieves ~160 ms. Check that our
        // latency model reproduces those magnitudes with the paper's RTT table.
        let model = CloudModel::gcp9();
        let tokyo = GcpLocation::Tokyo.dc();
        let mut spec = WorkloadSpec::example();
        spec.client_distribution = vec![(tokyo, 1.0)];
        spec.object_size = 1024;

        // ABD(3) over Tokyo, LA, Oregon with majority quorums.
        let abd = Configuration::abd_majority(
            vec![tokyo, GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()],
            1,
        );
        let abd_get = get_latency_ms(&model, &spec, &abd, tokyo);
        assert!(abd_get > 100.0 && abd_get < 250.0, "ABD GET {abd_get}");

        // CAS(4,2) over Tokyo, LA, Oregon, Singapore.
        let cas = Configuration::cas_default(
            vec![
                tokyo,
                GcpLocation::LosAngeles.dc(),
                GcpLocation::Oregon.dc(),
                GcpLocation::Singapore.dc(),
            ],
            2,
            1,
        );
        let cas_get = get_latency_ms(&model, &spec, &cas, tokyo);
        assert!(cas_get > 100.0 && cas_get < 300.0, "CAS GET {cas_get}");
        // CAS PUT has an extra phase and must be slower than CAS GET.
        assert!(put_latency_ms(&model, &spec, &cas, tokyo) > cas_get);
    }

    #[test]
    fn meets_slo_and_worst_latencies() {
        let model = CloudModelBuilder::uniform(3).build();
        let mut spec = spec_at(DcId(0));
        spec.client_distribution = vec![(DcId(0), 0.5), (DcId(2), 0.5)];
        let config = Configuration::abd_majority(dcs(3), 1);
        let (g, p) = worst_latencies_ms(&model, &spec, &config);
        assert!(g > 0.0 && p > 0.0);
        spec.slo_get_ms = g + 1.0;
        spec.slo_put_ms = p + 1.0;
        assert!(meets_slo(&model, &spec, &config));
        spec.slo_get_ms = g - 1.0;
        assert!(!meets_slo(&model, &spec, &config));
    }

    #[test]
    fn uniform_distribution_lower_bounds_slo() {
        // §4.2.2: with uniformly distributed users, SLOs below ~300 ms are infeasible
        // because some client is far from every possible quorum.
        let model = CloudModel::gcp9();
        let mut spec = WorkloadSpec::example();
        spec.client_distribution = model
            .dc_ids()
            .into_iter()
            .map(|d| (d, 1.0 / 9.0))
            .collect();
        spec.object_size = 1024;
        // Even the geographically central ABD(3) placement can't get both phases under
        // 300 ms for Sydney/São Paulo users.
        let central = Configuration::abd_majority(
            vec![
                GcpLocation::Virginia.dc(),
                GcpLocation::Oregon.dc(),
                GcpLocation::LosAngeles.dc(),
            ],
            1,
        );
        let (g, p) = worst_latencies_ms(&model, &spec, &central);
        assert!(g.max(p) > 300.0, "got {g}/{p}");
    }
}
