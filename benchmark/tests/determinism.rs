//! Two runs with one seed must agree exactly on everything that is modelled or counted:
//! the `geo-*` latencies, SLO attainment and cost, and the walk's counts. Only wall-clock
//! figures may differ. A different seed must give different traffic.

use legostore_benchmark::geo::{self, GeoPlan, Scale, Traffic};
use legostore_benchmark::load::{ValueFactory, INITIAL_WRITER};
use legostore_benchmark::report::RunResult;
use legostore_benchmark::tcp;
use legostore_benchmark::walk::{WalkBed, WalkOp};
use legostore_cloud::CloudModel;
use legostore_types::{Key, OpKind};
use std::time::Instant;

const MODELLED: [&str; 4] = [
    "put_mid_ms",
    "get_mid_ms",
    "slo_met_frac",
    "cost_usd_per_hr",
];
const SCALE: Scale = Scale {
    ops: 1_500,
    setup_reps: 1,
};

fn modelled(result: &RunResult) -> Vec<u64> {
    assert!(result.correct(), "{:?}", result.problems);
    MODELLED
        .iter()
        .map(|name| result.metrics.get(name).expect("measured").to_bits())
        .collect()
}

#[test]
fn geo_core_modelled_metrics_repeat_exactly() {
    let first = geo::run_core(11, SCALE, Instant::now());
    let second = geo::run_core(11, SCALE, Instant::now());
    assert_eq!(modelled(&first), modelled(&second));
    assert_eq!(first.attempted, second.attempted);
    let other_seed = geo::run_core(12, SCALE, Instant::now());
    assert_ne!(
        modelled(&first)[..2],
        modelled(&other_seed)[..2],
        "the seed must change the traffic"
    );
    assert_eq!(
        modelled(&first)[3],
        modelled(&other_seed)[3],
        "the plan, and so the cost, is seed-independent"
    );
}

#[test]
fn geo_sim_modelled_metrics_repeat_exactly() {
    let first = geo::run_sim(11, SCALE, Instant::now());
    let second = geo::run_sim(11, SCALE, Instant::now());
    assert_eq!(modelled(&first), modelled(&second));
    assert_eq!(first.attempted, second.attempted);
}

#[test]
fn geo_walk_counts_repeat_exactly() {
    let plan = GeoPlan::new();
    let counts = |seed: u64| {
        let traffic = Traffic::generate(&plan, seed, 1_500);
        let values = plan.values();
        let mut bed = WalkBed::new(plan.model.dc_ids(), false);
        for (index, key, group) in plan.keys_with_groups() {
            bed.install(
                key.clone(),
                group.plan.config.clone(),
                &plan.initial_value(&values, index),
            );
        }
        let ops: Vec<WalkOp> = traffic
            .ops
            .iter()
            .take(300)
            .enumerate()
            .map(|(i, op)| WalkOp {
                key: plan.keys[op.key as usize].clone(),
                origin: op.origin,
                put: (op.kind == OpKind::Put).then(|| values.make(op.size as usize, 0, i as u64)),
            })
            .collect();
        bed.run(&ops).expect("walk").counts
    };
    assert_eq!(counts(5), counts(5));
    assert_ne!(counts(5), counts(6));
}

#[test]
fn tcp_walk_counts_repeat_exactly() {
    let model = CloudModel::gcp9();
    let counts = || {
        let values = ValueFactory::new(tcp::ABD_1K.value_bytes);
        let mut bed = WalkBed::new(model.dc_ids(), true);
        let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("k{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            bed.install(
                key.clone(),
                tcp::ABD_1K.config(&model),
                &values.make(1024, INITIAL_WRITER, i as u64),
            );
        }
        let ops: Vec<WalkOp> = (0..200u64)
            .map(|i| WalkOp {
                key: keys[(i * 7 % 4) as usize].clone(),
                origin: legostore_cloud::GcpLocation::Tokyo.dc(),
                put: (i % 3 != 0).then(|| values.make(1024, 0, i)),
            })
            .collect();
        bed.run(&ops).expect("walk").counts
    };
    assert_eq!(counts(), counts());
}
