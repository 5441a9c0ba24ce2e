//! Simulation outputs: per-operation records, latency summaries and cost metering.

use legostore_lincheck::HistoryRecorder;
use legostore_types::{DcId, Key, OpKind};
use std::sync::Arc;

/// One completed (or abandoned) client operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Data center the issuing user resides in.
    pub origin: DcId,
    /// GET or PUT.
    pub kind: OpKind,
    /// The key operated on.
    pub key: Key,
    /// Virtual time the user issued the operation (ms).
    pub start_ms: f64,
    /// Virtual time the operation completed (ms).
    pub end_ms: f64,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// True if a GET completed in one phase (optimized GET).
    pub one_phase: bool,
    /// Number of times the operation was restarted because of a reconfiguration.
    pub reconfig_retries: u32,
    /// Number of times the operation was restarted after a timeout (e.g. a failed DC):
    /// widened, or moved into a newer epoch the metadata service listed by then.
    pub timeout_retries: u32,
    /// Object bytes carried (PUT payload / GET response size as requested).
    pub object_bytes: u64,
}

impl OpRecord {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Aggregate latency statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of operations aggregated.
    pub count: usize,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Maximum latency (ms).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Builds a summary from raw latencies.
    fn from_latencies(mut lat: Vec<f64>) -> LatencySummary {
        if lat.is_empty() {
            return LatencySummary::default();
        }
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let count = lat.len();
        let mean = lat.iter().sum::<f64>() / count as f64;
        let pick = |q: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            lat[idx.min(count - 1)]
        };
        LatencySummary {
            count,
            mean_ms: mean,
            p50_ms: pick(0.50),
            p99_ms: pick(0.99),
            max_ms: lat[count - 1],
        }
    }
}

/// Network-cost meter, in dollars, attributed per traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostMeter {
    /// Dollars spent on GET traffic.
    pub get_network: f64,
    /// Dollars spent on PUT traffic.
    pub put_network: f64,
    /// Dollars spent on reconfiguration traffic.
    pub reconfig_network: f64,
    /// Bytes moved in total.
    pub bytes_moved: u64,
}

impl CostMeter {
    /// Total dollars spent on the network.
    pub fn total(&self) -> f64 {
        self.get_network + self.put_network + self.reconfig_network
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// All completed operations.
    pub operations: Vec<OpRecord>,
    /// Network-cost meter.
    pub cost: CostMeter,
    /// Virtual time at which the simulation stopped (ms).
    pub end_time_ms: f64,
    /// Durations (ms) of each completed reconfiguration, in completion order.
    pub reconfig_durations_ms: Vec<f64>,
    /// Per-key operation histories for linearizability checking; present only when
    /// [`Simulation::enable_history_recording`](crate::Simulation::enable_history_recording)
    /// was called before the run.
    pub histories: Option<Arc<HistoryRecorder>>,
}

impl SimReport {
    /// Latency summary over operations matching the filters (`None` matches everything).
    pub fn latency(
        &self,
        kind: Option<OpKind>,
        origin: Option<DcId>,
        from_ms: Option<f64>,
        to_ms: Option<f64>,
    ) -> LatencySummary {
        let lats: Vec<f64> = self
            .operations
            .iter()
            .filter(|o| o.ok)
            .filter(|o| kind.map(|k| o.kind == k).unwrap_or(true))
            .filter(|o| origin.map(|d| o.origin == d).unwrap_or(true))
            .filter(|o| from_ms.map(|t| o.start_ms >= t).unwrap_or(true))
            .filter(|o| to_ms.map(|t| o.start_ms < t).unwrap_or(true))
            .map(|o| o.latency_ms())
            .collect();
        LatencySummary::from_latencies(lats)
    }

    /// Fraction of successful GETs that completed in one phase.
    pub fn optimized_get_fraction(&self) -> f64 {
        let gets: Vec<&OpRecord> = self
            .operations
            .iter()
            .filter(|o| o.ok && o.kind == OpKind::Get)
            .collect();
        if gets.is_empty() {
            return 0.0;
        }
        gets.iter().filter(|o| o.one_phase).count() as f64 / gets.len() as f64
    }

    /// Number of operations that violated `slo_ms`, optionally restricted to one kind.
    pub fn slo_violations(&self, slo_ms: f64, kind: Option<OpKind>) -> usize {
        self.operations
            .iter()
            .filter(|o| o.ok)
            .filter(|o| kind.map(|k| o.kind == k).unwrap_or(true))
            .filter(|o| o.latency_ms() > slo_ms)
            .count()
    }

    /// Number of failed operations.
    pub fn failures(&self) -> usize {
        self.operations.iter().filter(|o| !o.ok).count()
    }

    /// Fraction of operations that succeeded (1.0 for an empty report: an idle run
    /// failed nothing).
    pub fn availability(&self) -> f64 {
        if self.operations.is_empty() {
            return 1.0;
        }
        1.0 - self.failures() as f64 / self.operations.len() as f64
    }

    /// Number of failed operations that *started* after `after_ms` — the campaign
    /// engine's "liveness returns after the faults heal" check.
    pub fn failures_after(&self, after_ms: f64) -> usize {
        self.operations
            .iter()
            .filter(|o| !o.ok && o.start_ms >= after_ms)
            .count()
    }

    /// A deterministic FNV-1a digest of the report's observable outcome — every
    /// operation record (latency quantized to nanoseconds), the cost meter and the
    /// reconfiguration durations. Two runs of the same seeded simulation produce the
    /// same fingerprint; campaign reports use it as a regression-friendly identity
    /// for a run without storing the run.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for op in &self.operations {
            eat(op.key.as_str().as_bytes());
            eat(&[op.kind as u8, u8::from(op.ok), u8::from(op.one_phase)]);
            eat(&op.origin.0.to_le_bytes());
            eat(&((op.start_ms * 1e6) as u64).to_le_bytes());
            eat(&((op.end_ms * 1e6) as u64).to_le_bytes());
            eat(&op.reconfig_retries.to_le_bytes());
            eat(&op.timeout_retries.to_le_bytes());
            eat(&op.object_bytes.to_le_bytes());
        }
        eat(&self.cost.bytes_moved.to_le_bytes());
        eat(&self.cost.total().to_bits().to_le_bytes());
        for d in &self.reconfig_durations_ms {
            eat(&d.to_bits().to_le_bytes());
        }
        h
    }

    /// Pushes every operation into `obs`'s op-record stream — the same stream the
    /// threaded runtime's spans feed — so `Obs::drain_ops` →
    /// `WorkloadMonitor::ingest` works identically on simulated traffic (the campaign
    /// engine's live-monitor path for scenario runs). Model milliseconds are converted
    /// to clock nanoseconds (`latency_scale` 1.0). No-op when `obs` is disabled.
    pub fn export_ops(&self, obs: &legostore_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        for op in &self.operations {
            obs.push_op(legostore_obs::OpRecord {
                op_id: obs.next_op_id(),
                kind: op.kind,
                key: op.key.to_string(),
                origin: op.origin,
                started_ns: (op.start_ms * 1e6) as u64,
                completed_ns: (op.end_ms * 1e6) as u64,
                object_bytes: op.object_bytes,
                ok: op.ok,
            });
        }
    }

    /// Exports the report into `obs`'s metrics registry under the same names the
    /// threaded runtime publishes (`client.{get,put}.ops`, `client.{get,put}.latency_ns`,
    /// `client.ops_failed`, `client.get.one_phase`, retry counters), so simulated and
    /// live snapshots can be diffed with the same tooling. Model milliseconds are
    /// converted to nanoseconds. No-op when `obs` is disabled. `client.retries.timeout_widen`
    /// sums `timeout_retries`, epoch-moved attempts included; the threaded runtime derives
    /// it from its spans' `TimeoutWiden` events, which only widening attempts record.
    pub fn export_metrics(&self, obs: &legostore_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        let r = obs.registry();
        let ops = [r.counter("client.get.ops"), r.counter("client.put.ops")];
        let latency =
            [r.histogram("client.get.latency_ns"), r.histogram("client.put.latency_ns")];
        let failed = r.counter("client.ops_failed");
        let one_phase = r.counter("client.get.one_phase");
        let widens = r.counter("client.retries.timeout_widen");
        let reconfigs = r.counter("client.retries.reconfig");
        for op in &self.operations {
            let slot = usize::from(op.kind == OpKind::Put);
            ops[slot].inc();
            if op.ok {
                latency[slot].record((op.latency_ms() * 1e6) as u64);
            } else {
                failed.inc();
            }
            if op.one_phase {
                one_phase.inc();
            }
            widens.add(u64::from(op.timeout_retries));
            reconfigs.add(u64::from(op.reconfig_retries));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, start: f64, end: f64, origin: u16) -> OpRecord {
        OpRecord {
            origin: DcId(origin),
            kind,
            key: "k".into(),
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
    fn latency_summary_percentiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_latencies(lat);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_ms, 51.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(LatencySummary::from_latencies(vec![]).count, 0);
    }

    #[test]
    fn report_filters_by_kind_origin_and_time() {
        let mut report = SimReport::default();
        report.operations.push(rec(OpKind::Get, 0.0, 100.0, 0));
        report.operations.push(rec(OpKind::Put, 0.0, 300.0, 0));
        report.operations.push(rec(OpKind::Get, 500.0, 550.0, 1));
        let all = report.latency(None, None, None, None);
        assert_eq!(all.count, 3);
        let gets = report.latency(Some(OpKind::Get), None, None, None);
        assert_eq!(gets.count, 2);
        let dc1 = report.latency(None, Some(DcId(1)), None, None);
        assert_eq!(dc1.count, 1);
        assert_eq!(dc1.mean_ms, 50.0);
        let early = report.latency(None, None, Some(0.0), Some(400.0));
        assert_eq!(early.count, 2);
        assert_eq!(report.slo_violations(200.0, None), 1);
        assert_eq!(report.slo_violations(200.0, Some(OpKind::Get)), 0);
    }

    #[test]
    fn optimized_fraction_and_failures() {
        let mut report = SimReport::default();
        let mut a = rec(OpKind::Get, 0.0, 10.0, 0);
        a.one_phase = true;
        report.operations.push(a);
        report.operations.push(rec(OpKind::Get, 0.0, 10.0, 0));
        let mut failed = rec(OpKind::Put, 0.0, 10.0, 0);
        failed.ok = false;
        report.operations.push(failed);
        assert!((report.optimized_get_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(report.failures(), 1);
    }

    #[test]
    fn export_metrics_mirrors_runtime_taxonomy() {
        let mut report = SimReport::default();
        let mut fast = rec(OpKind::Get, 0.0, 10.0, 0);
        fast.one_phase = true;
        report.operations.push(fast);
        report.operations.push(rec(OpKind::Put, 0.0, 250.0, 1));
        let mut failed = rec(OpKind::Put, 0.0, 10.0, 0);
        failed.ok = false;
        failed.timeout_retries = 2;
        report.operations.push(failed);

        let obs = legostore_obs::Obs::new(legostore_obs::ObsConfig::Metrics);
        report.export_metrics(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("client.get.ops"), 1);
        assert_eq!(snap.counter("client.put.ops"), 2);
        assert_eq!(snap.counter("client.ops_failed"), 1);
        assert_eq!(snap.counter("client.get.one_phase"), 1);
        assert_eq!(snap.counter("client.retries.timeout_widen"), 2);
        let put_lat = snap.histogram("client.put.latency_ns").unwrap();
        assert_eq!(put_lat.count, 1, "failed ops carry no latency sample");
        assert_eq!(put_lat.sum, 250_000_000);

        // Disabled obs stays empty: the export is a no-op, not a partial write.
        let off = legostore_obs::Obs::off();
        report.export_metrics(&off);
        assert_eq!(off.snapshot().counter("client.get.ops"), 0);
    }

    #[test]
    fn availability_and_post_fault_failures() {
        let mut report = SimReport::default();
        assert_eq!(report.availability(), 1.0);
        report.operations.push(rec(OpKind::Get, 0.0, 10.0, 0));
        let mut failed = rec(OpKind::Put, 100.0, 400.0, 0);
        failed.ok = false;
        report.operations.push(failed);
        assert!((report.availability() - 0.5).abs() < 1e-12);
        assert_eq!(report.failures_after(50.0), 1);
        assert_eq!(report.failures_after(150.0), 0);
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let mut a = SimReport::default();
        a.operations.push(rec(OpKind::Get, 0.0, 10.0, 0));
        let mut b = SimReport::default();
        b.operations.push(rec(OpKind::Get, 0.0, 10.0, 0));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.operations[0].end_ms = 11.0;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn export_ops_feeds_the_monitor_stream() {
        let mut report = SimReport::default();
        report.operations.push(rec(OpKind::Get, 0.0, 10.0, 2));
        let mut failed = rec(OpKind::Put, 5.0, 20.0, 3);
        failed.ok = false;
        report.operations.push(failed);
        let obs = legostore_obs::Obs::new(legostore_obs::ObsConfig::Metrics);
        report.export_ops(&obs);
        let drained = obs.drain_ops();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].origin, DcId(2));
        assert_eq!(drained[0].latency_ns(), 10_000_000);
        assert!(!drained[1].ok);
        assert_eq!(drained[1].object_bytes, 1024);
        // Disabled obs: nothing exported.
        let off = legostore_obs::Obs::off();
        report.export_ops(&off);
        assert!(off.drain_ops().is_empty());
    }

    #[test]
    fn cost_meter_totals() {
        let m = CostMeter {
            get_network: 1.0,
            put_network: 2.0,
            reconfig_network: 0.5,
            bytes_moved: 100,
        };
        assert!((m.total() - 3.5).abs() < 1e-12);
    }
}
