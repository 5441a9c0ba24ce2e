//! Pins the optimizer's decisions: every plan the search returns over a set of workloads
//! is folded into one FNV-1a fingerprint, which must match a literal.
//!
//! A plan enters the fingerprint whole: its configuration (protocol, `n`, `k`, `f`, epoch,
//! quorum sizes, placement and every client's preferred quorums) and the bit patterns of
//! its four cost terms and both worst-case latencies. An infeasible search enters as a
//! marker. A change to the search that is meant to preserve behaviour must leave every
//! fingerprint here untouched; one that changes a placement decision must re-pin them and
//! say why.
//!
//! The tier-1 tests cover the cost objective over the 567-workload grid at two SLOs and
//! slices for the latency-objective baselines, `fixed_k`, `excluded_dcs`, `f = 2` and
//! `evaluate_placement`. The ignored test pins the whole grid at five SLOs under all three
//! protocol filters (release: `cargo test --release -p legostore-optimizer -- --ignored`).

use legostore_cloud::{CloudModel, GcpLocation};
use legostore_optimizer::baselines::{evaluate_baseline, Baseline};
use legostore_optimizer::search::{Objective, Optimizer, ProtocolFilter, SearchOptions};
use legostore_optimizer::Plan;
use legostore_types::{DcId, ProtocolKind};
use legostore_workload::{basic_workloads, WorkloadSpec};

/// 64-bit FNV-1a over little-endian words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn plan(&mut self, plan: Option<&Plan>) {
        let Some(plan) = plan else {
            self.word(u64::MAX);
            return;
        };
        let c = &plan.config;
        self.word(match c.protocol {
            ProtocolKind::Abd => 1,
            ProtocolKind::Cas => 2,
        });
        for v in [c.n, c.k, c.f] {
            self.word(v as u64);
        }
        self.word(c.epoch.0);
        for size in c.quorums.sizes() {
            self.word(size as u64);
        }
        self.dcs(&c.dcs);
        self.word(c.preferred_quorums.len() as u64);
        for (client, quorums) in c.preferred_quorums.iter() {
            self.word(client.index() as u64);
            self.word(quorums.len() as u64);
            for members in quorums {
                self.dcs(members);
            }
        }
        for x in [
            plan.cost.get_network,
            plan.cost.put_network,
            plan.cost.storage,
            plan.cost.vm,
            plan.worst_get_latency_ms,
            plan.worst_put_latency_ms,
        ] {
            self.word(x.to_bits());
        }
    }

    fn dcs(&mut self, dcs: &[DcId]) {
        self.word(dcs.len() as u64);
        for d in dcs {
            self.word(d.index() as u64);
        }
    }
}

fn grid(slo_ms: f64, f: usize) -> Vec<WorkloadSpec> {
    basic_workloads(&CloudModel::gcp9(), slo_ms, slo_ms, f)
}

/// Every `step`-th workload of the grid.
fn slice(slo_ms: f64, f: usize, step: usize) -> Vec<WorkloadSpec> {
    grid(slo_ms, f).into_iter().step_by(step).collect()
}

fn optimizer(options: SearchOptions) -> Optimizer {
    Optimizer::with_options(CloudModel::gcp9(), options)
}

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: fingerprint {got:#018x} != pinned {pinned:#018x}; a placement decision moved"
    );
}

#[test]
fn cost_objective_decisions_over_the_grid_are_pinned() {
    let opt = optimizer(SearchOptions::default());
    let mut fp = Fingerprint::new();
    for slo in [300.0, 1000.0] {
        for spec in grid(slo, 1) {
            fp.plan(opt.optimize(&spec).as_ref());
        }
    }
    assert_pinned(
        "optimize, 567 workloads x {300, 1000} ms",
        fp.0,
        0x1eca_a5d4_3bd1_af48,
    );
}

#[test]
fn latency_objective_baselines_are_pinned() {
    let model = CloudModel::gcp9();
    let mut fp = Fingerprint::new();
    for slo in [300.0, 1000.0] {
        for spec in slice(slo, 1, 9) {
            for baseline in [Baseline::AbdNearest, Baseline::CasNearest] {
                fp.plan(evaluate_baseline(&model, &spec, baseline).as_ref());
            }
        }
    }
    let latency = optimizer(SearchOptions {
        objective: Objective::Latency,
        ..Default::default()
    });
    for spec in slice(500.0, 1, 27) {
        fp.plan(latency.optimize(&spec).as_ref());
    }
    assert_pinned("latency objective", fp.0, 0xbea5_a228_75b7_a923);
}

#[test]
fn fixed_k_decisions_are_pinned() {
    let mut fp = Fingerprint::new();
    for k in 1..=5 {
        let opt = optimizer(SearchOptions {
            fixed_k: Some(k),
            ..Default::default()
        });
        for spec in slice(1000.0, 1, 27) {
            fp.plan(
                opt.optimize_filtered(&spec, ProtocolFilter::CasOnly)
                    .as_ref(),
            );
        }
    }
    assert_pinned("fixed_k", fp.0, 0x555c_2351_0471_7004);
}

#[test]
fn excluded_dc_decisions_are_pinned() {
    let model = CloudModel::gcp9();
    let mut exclusions: Vec<Vec<DcId>> = model.dc_ids().into_iter().map(|d| vec![d]).collect();
    exclusions.push(vec![GcpLocation::Tokyo.dc(), GcpLocation::Singapore.dc()]);
    exclusions.push(vec![GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()]);
    let mut fp = Fingerprint::new();
    for excluded_dcs in exclusions {
        let opt = optimizer(SearchOptions {
            excluded_dcs,
            ..Default::default()
        });
        for slo in [300.0, 1000.0] {
            for spec in slice(slo, 1, 27) {
                fp.plan(opt.optimize(&spec).as_ref());
            }
        }
    }
    assert_pinned("excluded_dcs", fp.0, 0x9212_abf0_8098_eca0);
}

#[test]
fn fault_tolerance_two_decisions_are_pinned() {
    let opt = optimizer(SearchOptions::default());
    let mut fp = Fingerprint::new();
    for slo in [500.0, 1000.0] {
        for spec in slice(slo, 2, 9) {
            for filter in [
                ProtocolFilter::Any,
                ProtocolFilter::AbdOnly,
                ProtocolFilter::CasOnly,
            ] {
                fp.plan(opt.optimize_filtered(&spec, filter).as_ref());
            }
        }
    }
    assert_pinned("f = 2", fp.0, 0xe184_a92a_e59c_f3fe);
}

#[test]
fn evaluate_placement_decisions_are_pinned() {
    let model = CloudModel::gcp9();
    let placements: [(ProtocolKind, usize, &[GcpLocation]); 5] = [
        (
            ProtocolKind::Abd,
            1,
            &[
                GcpLocation::Tokyo,
                GcpLocation::Singapore,
                GcpLocation::LosAngeles,
            ],
        ),
        (
            ProtocolKind::Abd,
            1,
            &[
                GcpLocation::Oregon,
                GcpLocation::Virginia,
                GcpLocation::LosAngeles,
                GcpLocation::Sydney,
                GcpLocation::Tokyo,
            ],
        ),
        (
            ProtocolKind::Cas,
            2,
            &[
                GcpLocation::Tokyo,
                GcpLocation::LosAngeles,
                GcpLocation::Oregon,
                GcpLocation::Singapore,
            ],
        ),
        (
            ProtocolKind::Cas,
            3,
            &[
                GcpLocation::Sydney,
                GcpLocation::Singapore,
                GcpLocation::Tokyo,
                GcpLocation::LosAngeles,
                GcpLocation::Oregon,
            ],
        ),
        (
            ProtocolKind::Cas,
            1,
            &[
                GcpLocation::Virginia,
                GcpLocation::Oregon,
                GcpLocation::Tokyo,
            ],
        ),
    ];
    let latency = optimizer(SearchOptions {
        objective: Objective::Latency,
        ..Default::default()
    });
    let cost = optimizer(SearchOptions::default());
    let mut fp = Fingerprint::new();
    for slo in [300.0, 1000.0] {
        for spec in slice(slo, 1, 9) {
            for baseline in [Baseline::AbdFixed, Baseline::CasFixed] {
                fp.plan(evaluate_baseline(&model, &spec, baseline).as_ref());
            }
            for (protocol, k, locations) in &placements {
                let placement: Vec<DcId> = locations.iter().map(|l| l.dc()).collect();
                for opt in [&cost, &latency] {
                    let plan = opt.evaluate_placement(&spec, *protocol, *k, placement.clone());
                    fp.plan(plan.as_ref());
                }
            }
        }
    }
    assert_pinned("evaluate_placement", fp.0, 0x8334_dbdf_ed3f_6804);
}

#[test]
#[ignore = "the whole grid: 5 SLOs x 3 filters x 567 workloads; run in release"]
fn whole_grid_decisions_are_pinned() {
    let opt = optimizer(SearchOptions::default());
    let mut fp = Fingerprint::new();
    for slo in [150.0, 200.0, 300.0, 500.0, 1000.0] {
        for spec in grid(slo, 1) {
            for filter in [
                ProtocolFilter::Any,
                ProtocolFilter::AbdOnly,
                ProtocolFilter::CasOnly,
            ] {
                fp.plan(opt.optimize_filtered(&spec, filter).as_ref());
            }
        }
    }
    assert_pinned("whole grid", fp.0, 0xbab2_a213_e03d_0465);
}
