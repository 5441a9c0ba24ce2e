//! Cell execution: one virtual-time simulation per cell, fanned across a bounded
//! thread pool.
//!
//! Every cell is a self-contained, seeded simulation — no shared mutable state — so
//! the pool is embarrassingly parallel and the *set* of outcomes is independent of
//! scheduling: workers pull cell indices from an atomic counter and results are
//! re-ordered by index before aggregation. A panicking cell is caught and reported as
//! an aborted (failing) outcome rather than taking the campaign down.

use crate::outcome::{outcome_from_report, ExpectedProperty, RunOutcome};
use crate::spec::{flip_epoch2_workload, CellSpec, ScenarioFamily, SweepSpec, CAMPAIGN_F};
use legostore_cloud::{CloudModel, GcpLocation};
use legostore_obs::{Obs, ObsConfig};
use legostore_optimizer::{Optimizer, ReconfigTrigger, TriggerThresholds, WorkloadMonitor};
use legostore_sim::{SimOptions, SimReport, Simulation};
use legostore_types::{Configuration, DcId, FaultPlan, ProtocolKind, Value};
use legostore_workload::{
    correlated_outage_plan, diurnal_schedule, flash_crowd_schedule, generate_fault_plan,
    pick_outage_region, reconfig_storm_plan, reconfig_storm_times, FaultPlanSpec, Request,
    TraceGenerator,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Minimum availability a baseline cell must sustain *during* its within-`f` fault
/// windows (after the heal it must be perfect; see
/// [`ExpectedProperty::safe_with_recovery`]).
pub const BASELINE_MIN_AVAILABILITY: f64 = 0.9;

/// Availability floor for a region outage: low enough that losing a whole region's
/// clients for a third of the run still passes. Within-`f` outages are *allowed* to
/// keep availability at 1.0 (clients retry through the window); the vacuity guard is
/// the timeout-widen floor in the expected property, not an availability cap.
pub const OUTAGE_MIN_AVAILABILITY: f64 = 0.5;

fn sim_options() -> SimOptions {
    SimOptions {
        // Tighter than the 1.5 s default so faulted cells converge quickly, with more
        // retries so within-`f` faults exhaust patience, not correctness.
        op_timeout_ms: 1_000.0,
        max_timeout_retries: 4,
    }
}

fn key_name(i: usize) -> String {
    format!("key-{i}")
}

fn protocol_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::Abd => "abd",
        ProtocolKind::Cas => "cas",
    }
}

/// Runs one prepared simulation: keys installed, trace + optional fault plan applied,
/// history always recorded.
fn simulate(
    cell: &CellSpec,
    config: &Configuration,
    trace: &[Request],
    fault_plan: Option<&FaultPlan>,
) -> SimReport {
    let mut sim = Simulation::with_options(CloudModel::gcp9(), sim_options());
    sim.enable_history_recording();
    let initial = Value::filler(cell.workload.object_size as usize);
    for i in 0..cell.keys() {
        sim.create_key(key_name(i), config.clone(), &initial);
    }
    if let Some(plan) = fault_plan {
        sim.set_fault_plan(plan);
    }
    sim.schedule_trace(trace, 0.0, key_name);
    sim.run()
}

fn run_baseline(cell: &CellSpec) -> RunOutcome {
    let config = cell.placement.config(cell.protocol);
    let spec = FaultPlanSpec::for_placement(config.dcs.clone(), CAMPAIGN_F, cell.duration_ms * 0.6);
    let plan = generate_fault_plan(&spec, cell.seed);
    let heal_ms = plan.events.iter().map(|e| e.at_ms).fold(0.0, f64::max);
    let trace = TraceGenerator::new(cell.workload.clone(), cell.keys(), cell.seed)
        .generate(cell.duration_ms);
    let report = simulate(cell, &config, &trace, Some(&plan));
    let expected = ExpectedProperty::safe_with_recovery(BASELINE_MIN_AVAILABILITY, heal_ms + 1.0);
    outcome_from_report(cell, protocol_label(cell.protocol).into(), &report, &expected)
}

fn run_diurnal(cell: &CellSpec) -> RunOutcome {
    let config = cell.placement.config(cell.protocol);
    let trace = diurnal_schedule(
        &cell.workload,
        cell.keys(),
        cell.seed,
        cell.duration_ms,
        2,   // two day/night cycles
        0.8, // peaks at 1.8× the mean rate
    );
    let report = simulate(cell, &config, &trace, None);
    outcome_from_report(
        cell,
        protocol_label(cell.protocol).into(),
        &report,
        &ExpectedProperty::always_live(),
    )
}

fn run_flash_crowd(cell: &CellSpec) -> RunOutcome {
    let config = cell.placement.config(cell.protocol);
    let trace = flash_crowd_schedule(
        &cell.workload,
        cell.keys(),
        cell.seed,
        cell.duration_ms,
        GcpLocation::Sydney.dc(),
        0.40 * cell.duration_ms,
        0.60 * cell.duration_ms,
        0.6, // 60% of all requests land in the surge window
        0.9, // and 90% of those pile onto Sydney
    );
    let report = simulate(cell, &config, &trace, None);
    outcome_from_report(
        cell,
        protocol_label(cell.protocol).into(),
        &report,
        &ExpectedProperty::always_live(),
    )
}

fn run_region_outage(cell: &CellSpec) -> RunOutcome {
    let config = cell.placement.config(cell.protocol);
    let Some(region) = pick_outage_region(&config.dcs, CAMPAIGN_F, cell.seed) else {
        return RunOutcome::aborted(cell, "no region survivable by this placement".into());
    };
    let start_ms = 0.25 * cell.duration_ms;
    let end_ms = 0.55 * cell.duration_ms;
    let plan = correlated_outage_plan(region, &config.dcs, CAMPAIGN_F, start_ms, end_ms, cell.seed)
        .expect("picked region is within tolerance");
    let trace = TraceGenerator::new(cell.workload.clone(), cell.keys(), cell.seed)
        .generate(cell.duration_ms);
    let report = simulate(cell, &config, &trace, Some(&plan));
    let expected = ExpectedProperty {
        min_availability: OUTAGE_MIN_AVAILABILITY,
        max_availability: None,
        live_after_ms: Some(end_ms + 1.0),
        min_reconfigs: 0,
        // The crashed region hosts clients (the outage workload spreads them across
        // every DC), so a real outage must force at least one timeout widen.
        min_timeout_widens: 1,
    };
    outcome_from_report(cell, protocol_label(cell.protocol).into(), &report, &expected)
}

/// The ABD↔CAS flip scenario, end to end through the PR 8 live-monitor path:
///
/// 1. plan epoch 1 with the optimizer (a read-heavy 1 KB Tokyo mix ⇒ ABD);
/// 2. run a pilot carrying both epochs under that plan, export its ops into an
///    [`Obs`] stream, and feed the epoch-2 window through [`WorkloadMonitor`];
/// 3. require a [`ReconfigTrigger::WorkloadDrift`] and re-plan from the monitor's
///    *estimated* (not scripted) workload;
/// 4. re-run the same schedule live, reconfiguring every key to the new plan at the
///    epoch boundary, and judge the run with `min_reconfigs ≥ 1`.
///
/// If the monitor misses the drift or the optimizer keeps the old protocol, no
/// reconfiguration is scheduled and the expected property fails the cell — the
/// scenario proves the adaptation loop, not just the reconfig primitive.
fn run_protocol_flip(cell: &CellSpec) -> RunOutcome {
    let model = CloudModel::gcp9();
    let optimizer = Optimizer::new(model.clone());
    let epoch1 = &cell.workload;
    let epoch2 = flip_epoch2_workload(&model);
    let Some(plan1) = optimizer.optimize(epoch1) else {
        return RunOutcome::aborted(cell, "no feasible epoch-1 plan".into());
    };
    let half_ms = 0.5 * cell.duration_ms;
    let keys = cell.keys();
    let trace1 = TraceGenerator::new(epoch1.clone(), keys, cell.seed).generate(half_ms);
    let trace2 =
        TraceGenerator::new(epoch2.clone(), keys, cell.seed ^ 0x5eed_f11b).generate(half_ms);

    // Pilot: both epochs under the epoch-1 plan, watched by the monitor.
    let mut pilot = Simulation::with_options(model.clone(), sim_options());
    let initial = Value::filler(epoch1.object_size as usize);
    for i in 0..keys {
        pilot.create_key(key_name(i), plan1.config.clone(), &initial);
    }
    pilot.schedule_trace(&trace1, 0.0, key_name);
    pilot.schedule_trace(&trace2, half_ms, key_name);
    let pilot_report = pilot.run();

    let obs = Obs::new(ObsConfig::Metrics);
    pilot_report.export_ops(&obs);
    let mut monitor = WorkloadMonitor::new(half_ms, epoch1.slo_get_ms, epoch1.slo_put_ms);
    let epoch2_start_ns = (half_ms * 1e6) as u64;
    for rec in obs.drain_ops() {
        if rec.started_ns >= epoch2_start_ns {
            monitor.ingest(&rec, 1.0);
        }
    }
    let triggers = monitor.triggers(
        epoch1,
        &plan1.cost,
        plan1.total_cost(),
        &TriggerThresholds::default(),
    );
    let drifted = triggers
        .iter()
        .any(|t| matches!(t, ReconfigTrigger::WorkloadDrift { .. }));
    let observed = monitor.estimate(epoch1);
    let plan2 = optimizer.optimize(&observed);
    let flips = plan2
        .as_ref()
        .map(|p| p.config.protocol != plan1.config.protocol || p.config.dcs != plan1.config.dcs)
        .unwrap_or(false);

    // Live run: same schedule, with the reconfiguration the monitor earned (if any).
    let mut sim = Simulation::with_options(model, sim_options());
    sim.enable_history_recording();
    for i in 0..keys {
        sim.create_key(key_name(i), plan1.config.clone(), &initial);
    }
    sim.schedule_trace(&trace1, 0.0, key_name);
    sim.schedule_trace(&trace2, half_ms, key_name);
    let label = if let (true, true, Some(plan2)) = (drifted, flips, plan2.as_ref()) {
        for i in 0..keys {
            sim.schedule_reconfig(half_ms + 200.0, key_name(i), plan2.config.clone());
        }
        format!(
            "{}->{}",
            protocol_label(plan1.config.protocol),
            protocol_label(plan2.config.protocol)
        )
    } else {
        format!("{}->none", protocol_label(plan1.config.protocol))
    };
    let report = sim.run();
    let expected = ExpectedProperty {
        min_availability: 0.995,
        max_availability: None,
        live_after_ms: None,
        min_reconfigs: 1,
        min_timeout_widens: 0,
    };
    outcome_from_report(cell, label, &report, &expected)
}

/// The reconfiguration-storm scenario: the transfer path itself under fire. The cell's
/// protocol picks the starting configuration; the storm flips every key to the *other*
/// protocol's placement mid-run and back again, while a seeded within-`f` fault plan —
/// drawn over the union of both placements, so crash/partition windows land on the
/// transfer's source and destination alike — races the controller rounds and the
/// client traffic. Judged with `min_reconfigs ≥ 1` (the storm must actually move the
/// keys) on top of the usual linearizability verdict; a cell whose history double-
/// applies a redirected PUT across the epoch boundary fails here.
fn run_reconfig_storm(cell: &CellSpec) -> RunOutcome {
    let model = CloudModel::gcp9();
    let start_config = cell.placement.config(cell.protocol);
    let other = match cell.protocol {
        ProtocolKind::Abd => ProtocolKind::Cas,
        ProtocolKind::Cas => ProtocolKind::Abd,
    };
    let flip_config = cell.placement.config(other);
    let universe: Vec<DcId> = (0..model.num_dcs()).map(DcId::from).collect();
    let plan = reconfig_storm_plan(
        &[start_config.dcs.clone(), flip_config.dcs.clone()],
        universe,
        CAMPAIGN_F,
        cell.duration_ms,
        cell.seed,
    );
    let heal_ms = plan.events.iter().map(|e| e.at_ms).fold(0.0, f64::max);
    let trace = TraceGenerator::new(cell.workload.clone(), cell.keys(), cell.seed)
        .generate(cell.duration_ms);

    let mut sim = Simulation::with_options(model, sim_options());
    sim.enable_history_recording();
    let initial = Value::filler(cell.workload.object_size as usize);
    for i in 0..cell.keys() {
        sim.create_key(key_name(i), start_config.clone(), &initial);
    }
    sim.set_fault_plan(&plan);
    sim.schedule_trace(&trace, 0.0, key_name);
    for (flip, at_ms) in reconfig_storm_times(cell.duration_ms, 2).into_iter().enumerate() {
        let target = if flip % 2 == 0 { &flip_config } else { &start_config };
        for i in 0..cell.keys() {
            sim.schedule_reconfig(at_ms, key_name(i), target.clone());
        }
    }
    let report = sim.run();
    let expected = ExpectedProperty {
        min_availability: BASELINE_MIN_AVAILABILITY,
        max_availability: None,
        live_after_ms: Some(heal_ms + 1.0),
        min_reconfigs: 1,
        min_timeout_widens: 0,
    };
    let label = format!(
        "{}<->{}",
        protocol_label(cell.protocol),
        protocol_label(other)
    );
    outcome_from_report(cell, label, &report, &expected)
}

/// Executes one cell (synchronously, on the calling thread).
pub fn run_cell(cell: &CellSpec) -> RunOutcome {
    match cell.family {
        ScenarioFamily::Baseline => run_baseline(cell),
        ScenarioFamily::Diurnal => run_diurnal(cell),
        ScenarioFamily::FlashCrowd => run_flash_crowd(cell),
        ScenarioFamily::RegionOutage => run_region_outage(cell),
        ScenarioFamily::ProtocolFlip => run_protocol_flip(cell),
        ScenarioFamily::ReconfigStorm => run_reconfig_storm(cell),
    }
}

/// Expands `spec` and runs every cell across `threads` workers (0 ⇒ all cores, capped
/// at 8). Returns outcomes in cell order regardless of completion order, so downstream
/// reports are deterministic.
pub fn run_campaign(spec: &SweepSpec, threads: usize) -> Vec<RunOutcome> {
    run_cells(&spec.cells(), threads, false)
}

/// Runs an explicit cell list (the engine behind [`run_campaign`]; also what
/// `legostore-campaign --only` filters down to). With `verbose`, each completed cell
/// logs its wall time to stderr — stderr only, so reports stay byte-deterministic.
pub fn run_cells(cells: &[CellSpec], threads: usize, verbose: bool) -> Vec<RunOutcome> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
    } else {
        threads
    }
    .max(1)
    .min(cells.len().max(1));

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RunOutcome)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let started = std::time::Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| run_cell(cell)))
                    .unwrap_or_else(|p| {
                        let reason = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "panic".into());
                        RunOutcome::aborted(cell, format!("panic: {reason}"))
                    });
                if verbose {
                    eprintln!("  [{:>6.1}s] {}", started.elapsed().as_secs_f64(), cell.id);
                }
                // The receiver outlives the scope; a send can only fail if the main
                // thread panicked, in which case the campaign is already dead.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
        slots.into_iter().map(|s| s.expect("every cell reports")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SweepSpec, Tier};

    #[test]
    fn a_fault_free_scenario_cell_passes() {
        let cells = SweepSpec::for_tier(Tier::Smoke).cells();
        let cell = cells
            .iter()
            .find(|c| c.family == ScenarioFamily::Diurnal && c.protocol == ProtocolKind::Abd)
            .expect("smoke tier has a diurnal cell");
        let out = run_cell(cell);
        assert!(out.passed(), "diurnal ABD cell failed: {:?}", out.violations);
        assert_eq!(out.linearizable, Some(true));
        assert_eq!(out.failures, 0);
        assert!(out.ops > 100);
    }

    #[test]
    fn cells_rerun_to_identical_outcomes() {
        let cells = SweepSpec::for_tier(Tier::Smoke).cells();
        let cell = cells
            .iter()
            .find(|c| c.family == ScenarioFamily::Baseline)
            .unwrap();
        assert_eq!(run_cell(cell), run_cell(cell));
    }
}
