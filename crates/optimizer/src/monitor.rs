//! Workload monitoring: the "is a key configured poorly?" half of §3.4.
//!
//! LEGOStore reacts to workload change by watching, per key (or key group), the request
//! stream it actually serves: arrival rate, read ratio, where requests come from, how large
//! objects are, how often the SLO is violated, and how the running cost compares to what the
//! optimizer predicted. [`WorkloadMonitor`] ingests one record per completed operation and
//! maintains windowed estimates; [`WorkloadMonitor::estimate`] turns them into a
//! [`WorkloadSpec`] the optimizer can re-plan with, and [`WorkloadMonitor::triggers`]
//! evaluates the two reactive rules of the paper (persistent SLO violations, cost
//! sub-optimality) so the reconfiguration controller knows when to act.

use crate::cost::CostBreakdown;
use legostore_types::{DcId, OpKind};
use legostore_workload::WorkloadSpec;
use std::collections::BTreeMap;

/// One completed operation, as observed by the serving client/proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpObservation {
    /// Wall-clock (or virtual) time the operation completed, in milliseconds.
    pub at_ms: f64,
    /// Data center the request originated in/near.
    pub origin: DcId,
    /// GET or PUT.
    pub kind: OpKind,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Object bytes carried by the operation.
    pub object_bytes: u64,
}

/// Thresholds for the reactive reconfiguration rules of §3.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerThresholds {
    /// Minimum number of SLO violations inside the window before the key is flagged.
    pub slo_violation_count: usize,
    /// Minimum fraction of operations violating the SLO before the key is flagged.
    pub slo_violation_fraction: f64,
    /// Fractional cost overrun (observed vs predicted) that flags the key, e.g. `0.2` = 20%.
    pub cost_overrun_fraction: f64,
}

impl Default for TriggerThresholds {
    fn default() -> Self {
        TriggerThresholds {
            slo_violation_count: 20,
            slo_violation_fraction: 0.01,
            cost_overrun_fraction: 0.2,
        }
    }
}

/// Why the monitor thinks the key should be reconsidered.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigTrigger {
    /// The latency SLO is being violated persistently.
    SloViolations {
        /// Number of violating operations in the window.
        count: usize,
        /// Fraction of operations violating the SLO.
        fraction: f64,
    },
    /// The observed running cost exceeds the optimizer's prediction by more than the
    /// configured threshold.
    CostOverrun {
        /// Observed cost rate in $/hour.
        observed_per_hour: f64,
        /// Predicted cost rate in $/hour.
        predicted_per_hour: f64,
    },
    /// The observed workload features have drifted far from the ones the configuration was
    /// planned for (arrival rate or read ratio changed by more than 50%, or the client mix
    /// moved by more than 0.3 in total variation distance).
    WorkloadDrift {
        /// Observed aggregate arrival rate (req/s).
        observed_rate: f64,
        /// Arrival rate the plan assumed (req/s).
        planned_rate: f64,
    },
}

/// Sliding-window workload monitor for one key (or key group).
#[derive(Debug, Clone)]
pub struct WorkloadMonitor {
    window_ms: f64,
    slo_get_ms: f64,
    slo_put_ms: f64,
    observations: Vec<OpObservation>,
}

impl WorkloadMonitor {
    /// Creates a monitor with the given sliding-window length and the SLOs the current
    /// configuration is supposed to meet.
    pub fn new(window_ms: f64, slo_get_ms: f64, slo_put_ms: f64) -> Self {
        WorkloadMonitor {
            window_ms,
            slo_get_ms,
            slo_put_ms,
            observations: Vec::new(),
        }
    }

    /// Ingests one completed operation.
    pub fn record(&mut self, obs: OpObservation) {
        self.observations.push(obs);
        self.evict(obs.at_ms);
    }

    /// Ingests one live [`OpRecord`](legostore_obs::OpRecord) from the telemetry layer
    /// (the runtime's span stream, drained via `Obs::drain_ops`), converting its clock
    /// nanoseconds to the monitor's model milliseconds. `latency_scale` is the
    /// deployment's RTT scaling factor — dividing by it recovers model time, so the
    /// same SLO thresholds work at any scale (and under a virtual clock).
    pub fn ingest(&mut self, rec: &legostore_obs::OpRecord, latency_scale: f64) {
        let to_model_ms = |ns: u64| ns as f64 / 1_000_000.0 / latency_scale;
        self.record(OpObservation {
            at_ms: to_model_ms(rec.completed_ns),
            origin: rec.origin,
            kind: rec.kind,
            latency_ms: to_model_ms(rec.latency_ns()),
            object_bytes: rec.object_bytes,
        });
    }

    /// Number of observations currently inside the window.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if no observations are inside the window.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    fn evict(&mut self, now_ms: f64) {
        let cutoff = now_ms - self.window_ms;
        self.observations.retain(|o| o.at_ms >= cutoff);
    }

    /// The span of time actually covered by the window, in seconds (at least one second to
    /// avoid dividing by ~zero right after start-up).
    fn window_seconds(&self) -> f64 {
        if self.observations.len() < 2 {
            return 1.0;
        }
        let first = self.observations.iter().map(|o| o.at_ms).fold(f64::MAX, f64::min);
        let last = self.observations.iter().map(|o| o.at_ms).fold(0.0, f64::max);
        ((last - first) / 1000.0).max(1.0)
    }

    /// Observed aggregate arrival rate in requests/second.
    pub fn arrival_rate(&self) -> f64 {
        self.observations.len() as f64 / self.window_seconds()
    }

    /// Observed fraction of GETs.
    pub fn read_ratio(&self) -> f64 {
        if self.observations.is_empty() {
            return 0.5;
        }
        self.observations.iter().filter(|o| o.kind == OpKind::Get).count() as f64
            / self.observations.len() as f64
    }

    /// Observed mean object size in bytes.
    fn mean_object_bytes(&self) -> u64 {
        if self.observations.is_empty() {
            return 0;
        }
        (self.observations.iter().map(|o| o.object_bytes).sum::<u64>() as f64
            / self.observations.len() as f64) as u64
    }

    /// Observed client distribution (fractions per origin DC, summing to 1).
    pub fn client_distribution(&self) -> Vec<(DcId, f64)> {
        let mut counts: BTreeMap<DcId, usize> = BTreeMap::new();
        for o in &self.observations {
            *counts.entry(o.origin).or_insert(0) += 1;
        }
        let total = self.observations.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(dc, c)| (dc, c as f64 / total))
            .collect()
    }

    /// Number and fraction of operations violating their SLO inside the window.
    pub fn slo_violations(&self) -> (usize, f64) {
        let count = self
            .observations
            .iter()
            .filter(|o| {
                let slo = match o.kind {
                    OpKind::Get => self.slo_get_ms,
                    OpKind::Put => self.slo_put_ms,
                };
                o.latency_ms > slo
            })
            .count();
        let fraction = count as f64 / self.observations.len().max(1) as f64;
        (count, fraction)
    }

    /// Builds the workload spec the optimizer should re-plan with, carrying over the SLOs,
    /// fault tolerance and data footprint from the spec the key was last planned with.
    pub fn estimate(&self, planned: &WorkloadSpec) -> WorkloadSpec {
        let mut spec = planned.clone();
        spec.name = format!("{}-observed", planned.name);
        spec.arrival_rate = self.arrival_rate();
        spec.read_ratio = self.read_ratio();
        if self.mean_object_bytes() > 0 {
            spec.object_size = self.mean_object_bytes();
        }
        let dist = self.client_distribution();
        if !dist.is_empty() {
            spec.client_distribution = dist;
        }
        spec
    }

    /// Evaluates the §3.4 reactive triggers against the observations in the window.
    ///
    /// `predicted` is the cost breakdown of the plan currently installed;
    /// `observed_cost_per_hour` is what the billing meter reports for this key over the same
    /// window (the simulator and the threaded runtime both expose it).
    pub fn triggers(
        &self,
        planned: &WorkloadSpec,
        predicted: &CostBreakdown,
        observed_cost_per_hour: f64,
        thresholds: &TriggerThresholds,
    ) -> Vec<ReconfigTrigger> {
        let mut out = Vec::new();
        let (count, fraction) = self.slo_violations();
        if count >= thresholds.slo_violation_count && fraction >= thresholds.slo_violation_fraction
        {
            out.push(ReconfigTrigger::SloViolations { count, fraction });
        }
        if observed_cost_per_hour
            > predicted.total() * (1.0 + thresholds.cost_overrun_fraction)
        {
            out.push(ReconfigTrigger::CostOverrun {
                observed_per_hour: observed_cost_per_hour,
                predicted_per_hour: predicted.total(),
            });
        }
        let observed_rate = self.arrival_rate();
        let planned_rate = planned.arrival_rate.max(1e-9);
        let rate_drift = (observed_rate - planned_rate).abs() / planned_rate;
        let ratio_drift = (self.read_ratio() - planned.read_ratio).abs();
        let mix_drift = {
            let observed: BTreeMap<DcId, f64> = self.client_distribution().into_iter().collect();
            let planned_mix: BTreeMap<DcId, f64> =
                planned.client_distribution.iter().copied().collect();
            let mut keys: Vec<DcId> = observed.keys().chain(planned_mix.keys()).copied().collect();
            keys.sort();
            keys.dedup();
            keys.iter()
                .map(|k| {
                    (observed.get(k).copied().unwrap_or(0.0)
                        - planned_mix.get(k).copied().unwrap_or(0.0))
                    .abs()
                })
                .sum::<f64>()
                / 2.0
        };
        if self.observations.len() >= 20
            && (rate_drift > 0.5 || ratio_drift > 0.25 || mix_drift > 0.3)
        {
            out.push(ReconfigTrigger::WorkloadDrift {
                observed_rate,
                planned_rate,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(at_ms: f64, origin: u16, kind: OpKind, latency_ms: f64) -> OpObservation {
        OpObservation {
            at_ms,
            origin: DcId(origin),
            kind,
            latency_ms,
            object_bytes: 1024,
        }
    }

    fn planned() -> WorkloadSpec {
        let mut s = WorkloadSpec::example();
        s.arrival_rate = 100.0;
        s.read_ratio = 0.5;
        s.client_distribution = vec![(DcId(0), 1.0)];
        s.slo_get_ms = 700.0;
        s.slo_put_ms = 800.0;
        s
    }

    fn feed_uniform(monitor: &mut WorkloadMonitor, n: usize, rate_per_sec: f64, origin: u16) {
        for i in 0..n {
            let t = i as f64 * 1000.0 / rate_per_sec;
            let kind = if i % 2 == 0 { OpKind::Get } else { OpKind::Put };
            monitor.record(obs(t, origin, kind, 150.0));
        }
    }

    #[test]
    fn estimates_rate_ratio_and_mix() {
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        feed_uniform(&mut m, 200, 100.0, 0);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 200);
        assert!((m.arrival_rate() - 100.0).abs() < 10.0, "{}", m.arrival_rate());
        assert!((m.read_ratio() - 0.5).abs() < 0.05);
        assert_eq!(m.mean_object_bytes(), 1024);
        let dist = m.client_distribution();
        assert_eq!(dist, vec![(DcId(0), 1.0)]);
        let est = m.estimate(&planned());
        est.validate().unwrap();
        assert_eq!(est.fault_tolerance, planned().fault_tolerance);
    }

    #[test]
    fn window_evicts_old_observations() {
        let mut m = WorkloadMonitor::new(10_000.0, 700.0, 800.0);
        m.record(obs(0.0, 0, OpKind::Get, 100.0));
        m.record(obs(5_000.0, 0, OpKind::Get, 100.0));
        assert_eq!(m.len(), 2);
        m.record(obs(20_000.0, 0, OpKind::Get, 100.0));
        assert_eq!(m.len(), 1, "observations older than the window are evicted");
    }

    #[test]
    fn slo_violation_trigger_fires_only_when_persistent() {
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        // 30 fast GETs and 25 slow ones.
        for i in 0..30 {
            m.record(obs(i as f64 * 100.0, 0, OpKind::Get, 200.0));
        }
        for i in 30..55 {
            m.record(obs(i as f64 * 100.0, 0, OpKind::Get, 950.0));
        }
        let (count, fraction) = m.slo_violations();
        assert_eq!(count, 25);
        assert!(fraction > 0.4);
        let predicted = CostBreakdown { get_network: 0.1, put_network: 0.1, storage: 0.1, vm: 0.1 };
        let triggers = m.triggers(&planned(), &predicted, 0.4, &TriggerThresholds::default());
        assert!(triggers
            .iter()
            .any(|t| matches!(t, ReconfigTrigger::SloViolations { .. })));

        // A handful of violations below the count threshold does not trigger.
        let mut quiet = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        for i in 0..100 {
            let lat = if i < 5 { 950.0 } else { 200.0 };
            quiet.record(obs(i as f64 * 100.0, 0, OpKind::Get, lat));
        }
        let triggers = quiet.triggers(&planned(), &predicted, 0.4, &TriggerThresholds::default());
        assert!(!triggers
            .iter()
            .any(|t| matches!(t, ReconfigTrigger::SloViolations { .. })));
    }

    #[test]
    fn cost_overrun_trigger() {
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        feed_uniform(&mut m, 50, 100.0, 0);
        let predicted = CostBreakdown { get_network: 0.2, put_network: 0.2, storage: 0.05, vm: 0.05 };
        // Observed 0.9 $/h vs predicted 0.5 $/h: 80% overrun.
        let triggers = m.triggers(&planned(), &predicted, 0.9, &TriggerThresholds::default());
        assert!(triggers
            .iter()
            .any(|t| matches!(t, ReconfigTrigger::CostOverrun { .. })));
        // Observed within 20% of prediction: no trigger.
        let triggers = m.triggers(&planned(), &predicted, 0.55, &TriggerThresholds::default());
        assert!(!triggers
            .iter()
            .any(|t| matches!(t, ReconfigTrigger::CostOverrun { .. })));
    }

    #[test]
    fn workload_drift_trigger_on_rate_and_mix_change() {
        // Planned for 100 req/s from DC 0, observed 400 req/s from DC 3.
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        feed_uniform(&mut m, 400, 400.0, 3);
        let predicted = CostBreakdown::default();
        let triggers = m.triggers(&planned(), &predicted, 0.0, &TriggerThresholds::default());
        assert!(triggers
            .iter()
            .any(|t| matches!(t, ReconfigTrigger::WorkloadDrift { .. })));
        // The estimated spec reflects the new reality and can be re-planned directly.
        let est = m.estimate(&planned());
        assert!(est.arrival_rate > 300.0);
        assert_eq!(est.client_dcs(), vec![DcId(3)]);
    }

    #[test]
    fn ingest_converts_op_records_to_model_time() {
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        let rec = legostore_obs::OpRecord {
            op_id: 1,
            kind: OpKind::Put,
            key: "k".into(),
            origin: DcId(3),
            started_ns: 0,
            completed_ns: 2_000_000, // 2 ms of (scaled) clock time
            object_bytes: 4096,
            ok: true,
        };
        m.ingest(&rec, 0.01); // 1% latency scale → 200 model ms, inside the PUT SLO
        assert_eq!(m.len(), 1);
        assert_eq!(m.mean_object_bytes(), 4096);
        assert_eq!(m.slo_violations().0, 0);
        // 9 scaled ms is 900 model ms: a GET SLO violation once unscaled.
        let slow = legostore_obs::OpRecord {
            op_id: 2,
            kind: OpKind::Get,
            key: "k".into(),
            origin: DcId(3),
            started_ns: 2_000_000,
            completed_ns: 11_000_000,
            object_bytes: 4096,
            ok: true,
        };
        m.ingest(&slow, 0.01);
        assert_eq!(m.slo_violations().0, 1);
        assert_eq!(m.client_distribution(), vec![(DcId(3), 1.0)]);
    }

    #[test]
    fn stable_workload_produces_no_triggers() {
        let mut m = WorkloadMonitor::new(60_000.0, 700.0, 800.0);
        feed_uniform(&mut m, 300, 100.0, 0);
        let predicted = CostBreakdown { get_network: 0.3, put_network: 0.3, storage: 0.2, vm: 0.2 };
        let triggers = m.triggers(&planned(), &predicted, 1.0, &TriggerThresholds::default());
        assert!(triggers.is_empty(), "{triggers:?}");
    }
}
