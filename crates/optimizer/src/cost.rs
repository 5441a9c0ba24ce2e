//! The cost model of Appendix C: networking cost of GETs and PUTs (equations (12), (13),
//! (28), (29)), storage cost (14) and VM cost (15), all expressed in $/hour.

use legostore_cloud::CloudModel;
use legostore_types::{Configuration, DcId, ProtocolKind, QuorumId};
use legostore_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Cost per hour, broken down by component (the four terms of objective (1)).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Networking cost of GET operations ($/hour).
    pub get_network: f64,
    /// Networking cost of PUT operations ($/hour).
    pub put_network: f64,
    /// Storage cost ($/hour).
    pub storage: f64,
    /// VM (compute) cost ($/hour).
    pub vm: f64,
}

impl CostBreakdown {
    /// Total cost per hour.
    pub fn total(&self) -> f64 {
        self.get_network + self.put_network + self.storage + self.vm
    }
}

const SECONDS_PER_HOUR: f64 = 3600.0;

/// Computes the full cost breakdown of running `spec` under `config` on `model`.
///
/// The configuration's per-client preferred quorums define the `iq` indicator variables of
/// the paper's formulation; clients without a recorded preference are assumed to contact the
/// quorum-size prefix of the placement (the same default the protocols use).
pub fn cost_of(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> CostBreakdown {
    CostBreakdown {
        get_network: get_network_cost(model, spec, config),
        put_network: put_network_cost(model, spec, config),
        storage: storage_cost(model, spec, config),
        vm: vm_cost(model, spec, config),
    }
}

/// One priced byte flow of an operation: bytes that cross between the client and every
/// member of a quorum, in one direction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// `bytes` from the client to each member of the quorum.
    ToServers(QuorumId, f64),
    /// `bytes` from each member of the quorum back to the client.
    FromServers(QuorumId, f64),
}

impl Flow {
    pub(crate) fn quorum(&self) -> QuorumId {
        match *self {
            Flow::ToServers(quorum, _) | Flow::FromServers(quorum, _) => quorum,
        }
    }

    /// $ one request from `client` pays for this flow's bytes to or from `member`.
    pub(crate) fn member_cost(&self, model: &CloudModel, client: DcId, member: DcId) -> f64 {
        match *self {
            Flow::ToServers(_, bytes) => bytes * model.net_price_per_byte(client, member),
            Flow::FromServers(_, bytes) => bytes * model.net_price_per_byte(member, client),
        }
    }
}

/// The priced flows of one PUT, in billing order: equation (12) for ABD, (13) for CAS.
pub(crate) fn put_flows(spec: &WorkloadSpec, protocol: ProtocolKind, k: usize) -> Vec<Flow> {
    let om = spec.metadata_size as f64;
    let og = spec.object_size as f64;
    match protocol {
        // Phase 1: servers in Q1 respond with their tags (metadata, server → client);
        // phase 2: the client ships the full value to Q2 (client → server).
        ProtocolKind::Abd => vec![
            Flow::FromServers(QuorumId::Q1, om),
            Flow::ToServers(QuorumId::Q2, og),
        ],
        // Tags from Q1, codeword symbols to Q2, the finalize metadata to Q3.
        ProtocolKind::Cas => vec![
            Flow::FromServers(QuorumId::Q1, om),
            Flow::ToServers(QuorumId::Q2, og / k as f64),
            Flow::ToServers(QuorumId::Q3, om),
        ],
    }
}

/// The priced flows of one GET, in billing order: equation (28) for ABD, (29) for CAS.
pub(crate) fn get_flows(spec: &WorkloadSpec, protocol: ProtocolKind, k: usize) -> Vec<Flow> {
    let om = spec.metadata_size as f64;
    let og = spec.object_size as f64;
    match protocol {
        // Phase 1: Q1 servers return whole values; phase 2: the client writes the value
        // back to Q2 — both move `og` bytes per contacted server.
        ProtocolKind::Abd => vec![
            Flow::FromServers(QuorumId::Q1, og),
            Flow::ToServers(QuorumId::Q2, og),
        ],
        // Phase 1 metadata from Q1; phase 2 metadata to Q4 plus codeword symbols back
        // from Q4.
        ProtocolKind::Cas => vec![
            Flow::FromServers(QuorumId::Q1, om),
            Flow::ToServers(QuorumId::Q4, om),
            Flow::FromServers(QuorumId::Q4, og / k as f64),
        ],
    }
}

/// $/hour of `rate` requests/second split over client locations as `(fraction, $ per
/// request)` pairs; `per_client` is not consumed when the rate is zero.
pub(crate) fn network_cost_per_hour(
    rate: f64,
    per_client: impl Iterator<Item = (f64, f64)>,
) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    let mut dollars_per_sec = 0.0;
    for (frac, per_request) in per_client {
        dollars_per_sec += rate * frac * per_request;
    }
    dollars_per_sec * SECONDS_PER_HOUR
}

/// Network $/hour of `flows` at `rate` requests/second under `config`'s quorums.
fn network_cost(
    model: &CloudModel,
    spec: &WorkloadSpec,
    config: &Configuration,
    rate: f64,
    flows: &[Flow],
) -> f64 {
    let per_client = spec
        .client_distribution
        .iter()
        .filter(|(_, frac)| *frac > 0.0)
        .map(|(client, frac)| {
            let per_request: f64 = flows
                .iter()
                .map(|flow| {
                    config
                        .quorum_for(*client, flow.quorum())
                        .iter()
                        .map(|j| flow.member_cost(model, *client, *j))
                        .sum::<f64>()
                })
                .sum();
            (*frac, per_request)
        });
    network_cost_per_hour(rate, per_client)
}

/// Networking cost of PUTs ($/hour): equation (12) for ABD, (13) for CAS.
fn put_network_cost(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> f64 {
    let flows = put_flows(spec, config.protocol, config.k);
    network_cost(model, spec, config, spec.put_rate(), &flows)
}

/// Networking cost of GETs ($/hour): equation (28) for ABD, (29) for CAS.
fn get_network_cost(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> f64 {
    let flows = get_flows(spec, config.protocol, config.k);
    network_cost(model, spec, config, spec.get_rate(), &flows)
}

/// Storage $/hour of one host (the summand of equation (14)): its share of the key group's
/// total data footprint.
pub(crate) fn host_storage_cost(
    model: &CloudModel,
    spec: &WorkloadSpec,
    protocol: ProtocolKind,
    k: usize,
    dc: DcId,
) -> f64 {
    let per_dc_bytes = match protocol {
        ProtocolKind::Abd => spec.total_data_bytes as f64,
        ProtocolKind::Cas => spec.total_data_bytes as f64 / k as f64,
    };
    per_dc_bytes * model.storage_price_per_byte_hour(dc)
}

/// Storage cost ($/hour): equation (14), applied to the key group's total data footprint.
fn storage_cost(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> f64 {
    config
        .dcs
        .iter()
        .map(|dc| host_storage_cost(model, spec, config.protocol, config.k, *dc))
        .sum()
}

/// Requests/second a client location with traffic fraction `frac` sends to each quorum.
pub(crate) fn client_request_rate(spec: &WorkloadSpec, frac: f64) -> f64 {
    spec.arrival_rate * frac
}

/// VM $/hour at `dc` per request/second of load.
pub(crate) fn vm_price_per_request_rate(model: &CloudModel, dc: DcId) -> f64 {
    model.theta_v() * model.vm_price_hour(dc)
}

/// VM cost ($/hour): equation (15). Each data center needs VM capacity proportional to the
/// request rate it receives, which is the client arrival rate times the number of quorums
/// (phases) that include it.
pub fn vm_cost(model: &CloudModel, spec: &WorkloadSpec, config: &Configuration) -> f64 {
    let mut cost = 0.0;
    let quorum_count = config.protocol.quorum_count();
    for j in &config.dcs {
        let mut rate_at_j = 0.0;
        for (client, frac) in &spec.client_distribution {
            if *frac <= 0.0 {
                continue;
            }
            let phases_including_j = QuorumId::ALL[..quorum_count]
                .iter()
                .filter(|q| config.quorum_for(*client, **q).contains(j))
                .count();
            rate_at_j += client_request_rate(spec, *frac) * phases_including_j as f64;
        }
        cost += vm_price_per_request_rate(model, *j) * rate_at_j;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_cloud::CloudModelBuilder;
    use legostore_types::DcId;

    /// Sets the per-client preferred quorums of `config` so that every client location in
    /// `spec` uses `members_per_quorum[q]` (one vector per quorum of the protocol).
    fn with_uniform_quorums(
        mut config: Configuration,
        spec: &WorkloadSpec,
        members_per_quorum: Vec<Vec<DcId>>,
    ) -> Configuration {
        let preferred = std::sync::Arc::make_mut(&mut config.preferred_quorums);
        for (client, _) in &spec.client_distribution {
            preferred.insert(*client, members_per_quorum.clone());
        }
        config
    }

    fn uniform_model() -> CloudModel {
        CloudModelBuilder::uniform(5)
            .storage_price(0, 0.04)
            .storage_price(1, 0.04)
            .storage_price(2, 0.04)
            .storage_price(3, 0.04)
            .storage_price(4, 0.04)
            .vm_price(0, 0.02)
            .vm_price(1, 0.02)
            .vm_price(2, 0.02)
            .vm_price(3, 0.02)
            .vm_price(4, 0.02)
            .theta_v(0.001)
            .build()
    }

    fn spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::example();
        s.object_size = 1000;
        s.metadata_size = 100;
        s.arrival_rate = 100.0;
        s.read_ratio = 0.5;
        s.total_data_bytes = 1_000_000_000; // 1 GB
        s.client_distribution = vec![(DcId(0), 1.0)];
        s
    }

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    #[test]
    fn abd_put_cost_matches_hand_computation() {
        let model = uniform_model();
        let spec = spec();
        let config = Configuration::abd_majority(dcs(3), 1);
        // q1 = q2 = 2 (prefix {0,1}); client at DC 0.
        // Phase 1: om from each of 2 servers -> client; server 0 is the client's own DC so
        // its price is 0; server 1 costs 0.08/GB.
        // Phase 2: og to each of 2 servers; again only DC 1 is billed.
        let p = 0.08 / 1e9;
        let per_put = 100.0 * p + 1000.0 * p;
        let expected = 50.0 * per_put * 3600.0; // 50 puts/sec
        let got = put_network_cost(&model, &spec, &config);
        assert!((got - expected).abs() < 1e-9, "got {got}, expected {expected}");
    }

    #[test]
    fn abd_get_cost_counts_values_both_ways() {
        let model = uniform_model();
        let spec = spec();
        let config = Configuration::abd_majority(dcs(3), 1);
        let p = 0.08 / 1e9;
        // Phase 1: og from server 1 (server 0 free); phase 2: og to server 1.
        let per_get = 1000.0 * p + 1000.0 * p;
        let expected = 50.0 * per_get * 3600.0;
        let got = get_network_cost(&model, &spec, &config);
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn cas_put_ships_fractional_value() {
        let model = uniform_model();
        let spec = spec();
        let config = Configuration::cas_default(dcs(5), 3, 1);
        let got = put_network_cost(&model, &spec, &config);
        // Compare against a direct evaluation of equation (13).
        let p = |from: usize, to: usize| -> f64 {
            if from == to {
                0.0
            } else {
                0.08 / 1e9
            }
        };
        let q1 = config.quorum_for(DcId(0), QuorumId::Q1);
        let q2 = config.quorum_for(DcId(0), QuorumId::Q2);
        let q3 = config.quorum_for(DcId(0), QuorumId::Q3);
        let mut per_put = 0.0;
        for j in q1 {
            per_put += 100.0 * p(j.index(), 0);
        }
        for j in q3 {
            per_put += 100.0 * p(0, j.index());
        }
        for j in q2 {
            per_put += (1000.0 / 3.0) * p(0, j.index());
        }
        let expected = 50.0 * per_put * 3600.0;
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn cas_get_is_cheaper_than_abd_get_for_same_n() {
        // The paper's point: ABD's GET write-back carries data, CAS's only metadata, so even
        // CAS(k=1) has cheaper GETs than ABD.
        let model = uniform_model();
        let mut spec = spec();
        spec.read_ratio = 1.0;
        let abd = Configuration::abd_majority(dcs(3), 1);
        let cas = Configuration::cas_default(dcs(3), 1, 1);
        let abd_cost = get_network_cost(&model, &spec, &abd);
        let cas_cost = get_network_cost(&model, &spec, &cas);
        assert!(cas_cost < abd_cost, "CAS {cas_cost} vs ABD {abd_cost}");
    }

    #[test]
    fn storage_cost_scales_with_k() {
        let model = uniform_model();
        let spec = spec();
        let abd = Configuration::abd_majority(dcs(3), 1);
        let cas = Configuration::cas_default(dcs(5), 3, 1);
        let s_abd = storage_cost(&model, &spec, &abd);
        let s_cas = storage_cost(&model, &spec, &cas);
        // ABD stores 3 full copies; CAS(5,3) stores 5/3 of the data.
        let per_byte_hour = 0.04 / 1e9 / 730.0;
        assert!((s_abd - 3.0 * 1e9 * per_byte_hour).abs() < 1e-9);
        assert!((s_cas - (5.0 / 3.0) * 1e9 * per_byte_hour).abs() < 1e-9);
        assert!(s_cas < s_abd);
    }

    #[test]
    fn vm_cost_grows_with_quorum_fanout() {
        let model = uniform_model();
        let spec = spec();
        let small = Configuration::cas_default(dcs(3), 1, 1);
        let large = Configuration::cas_default(dcs(5), 3, 1);
        assert!(vm_cost(&model, &spec, &large) > vm_cost(&model, &spec, &small));
    }

    #[test]
    fn zero_rate_workloads_cost_nothing_on_the_network() {
        let model = uniform_model();
        let mut s = spec();
        s.arrival_rate = 0.0;
        let config = Configuration::abd_majority(dcs(3), 1);
        assert_eq!(put_network_cost(&model, &s, &config), 0.0);
        assert_eq!(get_network_cost(&model, &s, &config), 0.0);
        assert_eq!(vm_cost(&model, &s, &config), 0.0);
        assert!(storage_cost(&model, &s, &config) > 0.0);
    }

    #[test]
    fn read_ratio_splits_network_cost() {
        let model = uniform_model();
        let mut hr = spec();
        hr.read_ratio = 1.0;
        let mut hw = spec();
        hw.read_ratio = 0.0;
        let config = Configuration::abd_majority(dcs(3), 1);
        assert_eq!(put_network_cost(&model, &hr, &config), 0.0);
        assert_eq!(get_network_cost(&model, &hw, &config), 0.0);
        assert!(put_network_cost(&model, &hw, &config) > 0.0);
        assert!(get_network_cost(&model, &hr, &config) > 0.0);
    }

    #[test]
    fn total_is_sum_of_components() {
        let model = uniform_model();
        let s = spec();
        let config = Configuration::cas_default(dcs(5), 3, 1);
        let b = cost_of(&model, &s, &config);
        assert!((b.total() - (b.get_network + b.put_network + b.storage + b.vm)).abs() < 1e-12);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn preferred_quorums_change_the_bill() {
        // Using an expensive DC in the quorum must show up in the cost.
        let model = CloudModelBuilder::uniform(3)
            .net_price(2, 0, 0.15)
            .net_price(0, 2, 0.15)
            .build();
        let s = spec();
        let base = Configuration::abd_majority(dcs(3), 1);
        let cheap = with_uniform_quorums(
            base.clone(),
            &s,
            vec![vec![DcId(0), DcId(1)], vec![DcId(0), DcId(1)]],
        );
        let pricey = with_uniform_quorums(
            base,
            &s,
            vec![vec![DcId(0), DcId(2)], vec![DcId(0), DcId(2)]],
        );
        assert!(
            cost_of(&model, &s, &pricey).total() > cost_of(&model, &s, &cheap).total(),
            "expensive quorum must cost more"
        );
    }
}
