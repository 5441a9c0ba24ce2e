//! Per-run results and the per-scenario "what does pass mean" contract.

use crate::spec::CellSpec;
use legostore_obs::{Obs, ObsConfig};
use legostore_sim::SimReport;

/// What a scenario promises: the checker side of the (schedule, fault plan,
/// expected-property) triple. Linearizability is always required; the rest varies by
/// family (a region outage *should* fail some ops, a fault-free diurnal run none).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedProperty {
    /// Minimum fraction of operations that must succeed.
    pub min_availability: f64,
    /// If set, no operation *started* at or after this instant may fail: liveness must
    /// return once the faults heal.
    pub live_after_ms: Option<f64>,
    /// Minimum number of completed reconfigurations (the flip scenario's teeth).
    pub min_reconfigs: usize,
    /// Minimum total timeout-widen retries — evidence that a fault scenario actually
    /// stressed the run. Within-`f` faults are *supposed* to leave availability at
    /// 1.0 (ops retry and complete), so failed ops cannot prove the faults bit;
    /// retries can.
    pub min_timeout_widens: u64,
}

impl ExpectedProperty {
    /// Fault-free schedule: every operation must succeed.
    pub fn always_live() -> ExpectedProperty {
        ExpectedProperty {
            min_availability: 1.0,
            live_after_ms: None,
            min_reconfigs: 0,
            min_timeout_widens: 0,
        }
    }

    /// Within-`f` faults: high availability, and full liveness after `heal_ms`.
    pub fn safe_with_recovery(min_availability: f64, heal_ms: f64) -> ExpectedProperty {
        ExpectedProperty {
            min_availability,
            live_after_ms: Some(heal_ms),
            min_reconfigs: 0,
            min_timeout_widens: 0,
        }
    }
}

/// The outcome of one campaign cell — everything the aggregator needs, nothing it
/// must recompute.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The cell's stable id.
    pub cell_id: String,
    /// Scenario family label.
    pub family: String,
    /// Workload name.
    pub workload: String,
    /// Protocol label — `abd`, `cas`, or e.g. `abd->cas` for a flip cell.
    pub protocol: String,
    /// Placement label.
    pub placement: String,
    /// Cell seed.
    pub seed: u64,
    /// Total operations issued.
    pub ops: usize,
    /// Operations that failed.
    pub failures: usize,
    /// Fraction of operations that succeeded.
    pub availability: f64,
    /// Whether every per-key history linearized, as the checker decided it; `None` only
    /// when the run's history was unverifiable (no recording, or a failed PUT whose
    /// effect is unknowable — the success-only recorder cannot express "may or may not
    /// have been applied").
    pub linearizable: Option<bool>,
    /// Median latency over successful ops (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency over successful ops (ms).
    pub p99_ms: f64,
    /// Mean latency over successful ops (ms).
    pub mean_ms: f64,
    /// Throughput over the virtual duration (ops/s).
    pub ops_per_sec: f64,
    /// Network dollars metered by the simulator.
    pub cost_usd: f64,
    /// Completed reconfigurations.
    pub reconfigs: usize,
    /// Total timeout retries across all ops, widened or moved into a newer epoch.
    pub timeout_widens: u64,
    /// The simulation report's FNV-1a fingerprint.
    pub sim_fingerprint: u64,
    /// FNV-1a digest of the run's exported obs metrics snapshot (JSON form).
    pub obs_digest: u64,
    /// Expected-property violations; empty ⇒ the cell passed.
    pub violations: Vec<String>,
}

impl RunOutcome {
    /// True when the cell met its expected property (and linearized).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A synthetic outcome for a cell whose runner panicked or could not be set up —
    /// reported as a failure, never swallowed.
    pub fn aborted(cell: &CellSpec, reason: String) -> RunOutcome {
        RunOutcome {
            cell_id: cell.id.clone(),
            family: cell.family.label().into(),
            workload: cell.workload.name.clone(),
            protocol: "n/a".into(),
            placement: cell.placement.label().into(),
            seed: cell.seed,
            ops: 0,
            failures: 0,
            availability: 0.0,
            linearizable: None,
            p50_ms: 0.0,
            p99_ms: 0.0,
            mean_ms: 0.0,
            ops_per_sec: 0.0,
            cost_usd: 0.0,
            reconfigs: 0,
            timeout_widens: 0,
            sim_fingerprint: 0,
            obs_digest: 0,
            violations: vec![format!("aborted: {reason}")],
        }
    }
}

/// FNV-1a over a byte string (the same constants the rest of the repo uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Reduces a finished simulation into a [`RunOutcome`], judging it against `expected`.
///
/// The obs digest is produced by exporting the report's metrics into a fresh
/// [`Obs`] registry and hashing the deterministic JSON snapshot — the same bytes a
/// live deployment would scrape, so simulated and real runs are diffable.
pub fn outcome_from_report(
    cell: &CellSpec,
    protocol_label: String,
    report: &SimReport,
    expected: &ExpectedProperty,
) -> RunOutcome {
    let ops = report.operations.len();
    let failures = report.failures();
    let availability = report.availability();
    let timeout_widens: u64 = report
        .operations
        .iter()
        .map(|o| u64::from(o.timeout_retries))
        .sum();
    let lat = report.latency(None, None, None, None);
    let reconfigs = report.reconfig_durations_ms.len();

    // A failed PUT may or may not have been applied; the recorder only keeps
    // successes, so a later read of the phantom value would be (wrongly) flagged.
    // Such histories are unverifiable with a success-only recorder — report them as
    // skipped, never as passed.
    let failed_puts = report
        .operations
        .iter()
        .filter(|o| !o.ok && o.kind == legostore_types::OpKind::Put)
        .count();
    let (linearizable, lin_failures): (Option<bool>, Vec<String>) = match &report.histories {
        Some(recorder) if failed_puts == 0 => {
            let fails: Vec<String> = recorder.check_all().into_iter().map(|(k, _)| k).collect();
            (Some(fails.is_empty()), fails)
        }
        _ => (None, Vec::new()),
    };

    let obs = Obs::new(ObsConfig::Metrics);
    report.export_metrics(&obs);
    let obs_digest = fnv1a(obs.snapshot().to_json().as_bytes());

    let mut violations = Vec::new();
    if report.histories.is_none() {
        violations.push("no history recorded; linearizability unverified".to_string());
    }
    for key in &lin_failures {
        violations.push(format!("non-linearizable history for {key}"));
    }
    if availability < expected.min_availability {
        violations.push(format!(
            "availability {availability:.4} below required {:.4}",
            expected.min_availability
        ));
    }
    if let Some(after) = expected.live_after_ms {
        let late = report.failures_after(after);
        if late > 0 {
            violations.push(format!("{late} op(s) started after heal ({after:.0} ms) failed"));
        }
    }
    if reconfigs < expected.min_reconfigs {
        violations.push(format!(
            "{reconfigs} reconfiguration(s) completed, expected ≥ {}",
            expected.min_reconfigs
        ));
    }
    if timeout_widens < expected.min_timeout_widens {
        violations.push(format!(
            "{timeout_widens} timeout widen(s), expected ≥ {}: the scenario's stress never bit",
            expected.min_timeout_widens
        ));
    }

    RunOutcome {
        cell_id: cell.id.clone(),
        family: cell.family.label().into(),
        workload: cell.workload.name.clone(),
        protocol: protocol_label,
        placement: cell.placement.label().into(),
        seed: cell.seed,
        ops,
        failures,
        availability,
        linearizable,
        p50_ms: lat.p50_ms,
        p99_ms: lat.p99_ms,
        mean_ms: lat.mean_ms,
        ops_per_sec: ops as f64 / (cell.duration_ms / 1_000.0),
        cost_usd: report.cost.total(),
        reconfigs,
        timeout_widens,
        sim_fingerprint: report.fingerprint(),
        obs_digest,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScenarioFamily, SweepSpec, Tier};
    use legostore_sim::OpRecord;
    use legostore_types::{DcId, OpKind};

    fn any_cell() -> CellSpec {
        SweepSpec::for_tier(Tier::Smoke)
            .cells()
            .into_iter()
            .find(|c| c.family == ScenarioFamily::Baseline)
            .unwrap()
    }

    fn ok_op(start: f64, end: f64) -> OpRecord {
        OpRecord {
            origin: DcId(0),
            kind: OpKind::Get,
            key: "key-0".into(),
            start_ms: start,
            end_ms: end,
            ok: true,
            one_phase: false,
            reconfig_retries: 0,
            timeout_retries: 0,
            object_bytes: 1024,
        }
    }

    #[test]
    fn unrecorded_history_is_a_violation_not_a_pass() {
        let cell = any_cell();
        let mut report = SimReport::default();
        report.operations.push(ok_op(0.0, 10.0));
        let out =
            outcome_from_report(&cell, "abd".into(), &report, &ExpectedProperty::always_live());
        assert_eq!(out.linearizable, None);
        assert!(!out.passed());
        assert!(out.violations[0].contains("unverified"));
    }

    #[test]
    fn expected_property_violations_are_reported() {
        let cell = any_cell();
        let mut report = SimReport::default();
        report.operations.push(ok_op(0.0, 10.0));
        let mut failed = ok_op(5_000.0, 5_010.0);
        failed.ok = false;
        report.operations.push(failed);
        let expected = ExpectedProperty::safe_with_recovery(0.9, 4_000.0);
        let out = outcome_from_report(&cell, "abd".into(), &report, &expected);
        // availability 0.5 < 0.9 and a post-heal failure: both violations present.
        assert!(out.violations.iter().any(|v| v.contains("availability")));
        assert!(out.violations.iter().any(|v| v.contains("after heal")));
    }

    #[test]
    fn aborted_outcome_always_fails() {
        let cell = any_cell();
        let out = RunOutcome::aborted(&cell, "panic: boom".into());
        assert!(!out.passed());
        assert_eq!(out.cell_id, cell.id);
    }
}
