//! Pins one simulation's outcome to a literal fingerprint, so that "the event loop pops
//! events in the same order" is checked against a fixed value rather than only run
//! against run.
//!
//! The schedule is hand-built (no `TraceGenerator`, hence no libm): every instant is an
//! integer millisecond, so the result is the same on every platform. It covers ABD and
//! CAS keys, requests sharing an instant, and a reconfiguration, a DC failure and its
//! recovery that each share an instant with a request. They are scheduled out of time
//! order, so ties are broken by the order of the `schedule_*` calls.

use legostore_cloud::{CloudModel, GcpLocation};
use legostore_sim::{SimOptions, Simulation};
use legostore_types::{Configuration, OpKind, Value};

const OBJECT_BYTES: u64 = 64;

fn sim() -> Simulation {
    use GcpLocation::*;
    let mut sim = Simulation::with_options(
        CloudModel::gcp9(),
        SimOptions { op_timeout_ms: 700.0, ..Default::default() },
    );
    sim.enable_history_recording();
    let initial = Value::filler(OBJECT_BYTES as usize);
    sim.create_key("abd", Configuration::abd_majority(vec![Tokyo.dc(), LosAngeles.dc(), Oregon.dc()], 1), &initial);
    let cas = vec![Singapore.dc(), Frankfurt.dc(), Virginia.dc(), LosAngeles.dc(), Oregon.dc()];
    sim.create_key("cas", Configuration::cas_default(cas, 3, 1), &initial);

    // Scheduled before the requests they coincide with, and late events first.
    let moved = Configuration::abd_majority(vec![Tokyo.dc(), Sydney.dc(), Singapore.dc()], 1);
    sim.schedule_reconfig(1_200.0, "abd", moved);
    sim.schedule_recovery(1_800.0, LosAngeles.dc());
    sim.schedule_failure(600.0, LosAngeles.dc());

    // Three requests per instant on one key from one origin: a PUT and two GETs that
    // differ only in their recorded size, so the order in which they start (and hence
    // complete) shows in the report.
    let origins = [Tokyo.dc(), Virginia.dc(), Sydney.dc(), Frankfurt.dc()];
    for i in (0..60u32).rev() {
        let step = i / 3;
        let key = if step % 2 == 0 { "abd" } else { "cas" };
        let kind = if i % 3 == 0 { OpKind::Put } else { OpKind::Get };
        let origin = origins[step as usize % origins.len()];
        sim.schedule_request(f64::from(step * 100), origin, kind, key, OBJECT_BYTES + u64::from(i % 3));
    }
    sim
}

#[test]
fn hand_built_schedule_has_a_pinned_fingerprint() {
    let report = sim().run();
    assert_eq!(report.operations.len(), 60);
    assert_eq!(report.failures(), 0, "{:?}", report.operations);
    assert!(report.operations.iter().any(|o| o.timeout_retries > 0), "the failure must bite");
    assert_eq!(report.reconfig_durations_ms.len(), 1);
    let histories = report.histories.as_ref().expect("recording enabled");
    assert!(histories.check_all().is_empty());
    assert_eq!(report.fingerprint(), 0xd192_cd71_c1b2_46e8);
}
