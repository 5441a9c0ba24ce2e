//! LEGOStore's telemetry layer: lock-light metrics, per-operation phase spans, a
//! wire-exportable snapshot format, and a bounded fault flight recorder.
//!
//! The paper's §3.4 reconfiguration loop needs the request stream *observed* — arrival
//! rates, origin mix, SLO violations — and explaining benchmark numbers needs to know
//! where an operation's time goes (encode vs phase-1 quorum vs decode vs retry
//! widening). This crate provides the shared machinery; the runtime crates thread it
//! through their hot paths:
//!
//! * [`metrics`] — atomic [`Counter`]/[`Gauge`]/log₂ [`Histogram`] primitives, the
//!   name-keyed [`Registry`], and the deterministic [`MetricsSnapshot`] export.
//! * [`span`] — [`OpSpan`] timelines of one client operation and the pre-resolved
//!   [`ClientMetrics`]/[`ServerMetrics`] bundles.
//! * [`flight`] — the [`FlightRecorder`] ring dumped on `QuorumUnreachable` and on
//!   stress-suite linearizability failures.
//!
//! Design rules enforced throughout:
//!
//! * **Near-zero cost when off.** Every instrumentation site guards on
//!   [`Obs::enabled`], a single relaxed atomic load; with [`ObsConfig::Off`] nothing
//!   else runs.
//! * **Clock-agnostic, hence deterministic.** This crate never reads a clock; all
//!   timestamps are caller-supplied nanoseconds from whichever `Clock` the deployment
//!   runs under. Virtual-time runs therefore export modeled durations and identical
//!   runs snapshot byte-identically.

#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{
    bucket_bounds, bucket_index, escape_json, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry,
};
pub use span::{ClientMetrics, OpSpan, ServerMetrics, SpanEvent, SpanEventKind, MAX_PHASES};

use legostore_types::{DcId, OpKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// How much telemetry a component records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsConfig {
    /// Record nothing; instrumentation sites reduce to one atomic load and a skip.
    #[default]
    Off,
    /// Record metrics, spans, op records and flight events.
    Metrics,
    /// Everything `Metrics` records, plus a pretty-printed timeline of every finished
    /// operation on stderr (the `LEGOSTORE_TRACE=1` debugging aid).
    Trace,
}

impl ObsConfig {
    /// Resolves the level from the environment: `LEGOSTORE_TRACE=1` selects
    /// [`ObsConfig::Trace`], otherwise `LEGOSTORE_OBS=1` selects
    /// [`ObsConfig::Metrics`], otherwise [`ObsConfig::Off`].
    pub fn from_env() -> Self {
        let on = |var: &str| std::env::var(var).is_ok_and(|v| v == "1");
        if on("LEGOSTORE_TRACE") {
            ObsConfig::Trace
        } else if on("LEGOSTORE_OBS") {
            ObsConfig::Metrics
        } else {
            ObsConfig::Off
        }
    }
}

/// One finished client operation, as fed to `WorkloadMonitor::ingest` — the live
/// counterpart of the monitor's synthetic `OpObservation`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Process-unique operation id (matches the span and flight-recorder entries).
    pub op_id: u64,
    /// GET or PUT.
    pub kind: OpKind,
    /// Key operated on.
    pub key: String,
    /// Data center of the issuing client.
    pub origin: DcId,
    /// Clock nanoseconds at invocation.
    pub started_ns: u64,
    /// Clock nanoseconds at completion (or terminal failure).
    pub completed_ns: u64,
    /// Size of the value written (PUT) or read (GET) in bytes.
    pub object_bytes: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl OpRecord {
    /// End-to-end latency in clock nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.started_ns)
    }
}

/// Most op records kept for [`Obs::drain_ops`] before the oldest are discarded.
const MAX_OP_RECORDS: usize = 65_536;

struct ObsInner {
    level: AtomicU8,
    registry: Registry,
    flight: FlightRecorder,
    ops: Mutex<VecDeque<OpRecord>>,
    next_op_id: AtomicU64,
}

/// A cheaply clonable handle to one component's telemetry state: the enablement level,
/// the metric [`Registry`], the [`FlightRecorder`], and the bounded stream of
/// [`OpRecord`]s awaiting [`Obs::drain_ops`].
///
/// A deployment typically owns one `Obs` for the client side and one per hosted DC
/// server; clones share state.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("level", &self.level()).finish()
    }
}

impl Obs {
    /// Creates a handle at `config`'s level.
    pub fn new(config: ObsConfig) -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                level: AtomicU8::new(config as u8),
                registry: Registry::default(),
                flight: FlightRecorder::default(),
                ops: Mutex::new(VecDeque::new()),
                next_op_id: AtomicU64::new(1),
            }),
        }
    }

    /// A disabled handle ([`ObsConfig::Off`]).
    pub fn off() -> Self {
        Obs::new(ObsConfig::Off)
    }

    /// Current level.
    pub fn level(&self) -> ObsConfig {
        match self.inner.level.load(Ordering::Relaxed) {
            0 => ObsConfig::Off,
            1 => ObsConfig::Metrics,
            _ => ObsConfig::Trace,
        }
    }

    /// True when anything at all should be recorded — the single atomic load every
    /// instrumentation site guards on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.level.load(Ordering::Relaxed) != ObsConfig::Off as u8
    }

    /// True when finished operations should additionally print their span timeline.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.level.load(Ordering::Relaxed) == ObsConfig::Trace as u8
    }

    /// The metric registry behind this handle.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The flight recorder behind this handle.
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Allocates the next operation id.
    pub fn next_op_id(&self) -> u64 {
        self.inner.next_op_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a finished operation to the record stream (bounded; oldest discarded).
    pub fn push_op(&self, rec: OpRecord) {
        let mut ops = self.inner.ops.lock().expect("obs op stream poisoned");
        if ops.len() == MAX_OP_RECORDS {
            ops.pop_front();
        }
        ops.push_back(rec);
    }

    /// Takes every op record accumulated since the last drain — the feed for
    /// `WorkloadMonitor::ingest`.
    pub fn drain_ops(&self) -> Vec<OpRecord> {
        self.inner.ops.lock().expect("obs op stream poisoned").drain(..).collect()
    }

    /// Freezes the registry into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_reports_disabled_with_one_load() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert!(!obs.trace_enabled());
        assert_eq!(obs.level(), ObsConfig::Off);
    }

    #[test]
    fn levels_round_trip() {
        assert_eq!(Obs::new(ObsConfig::Metrics).level(), ObsConfig::Metrics);
        assert!(Obs::new(ObsConfig::Metrics).enabled());
        assert!(!Obs::new(ObsConfig::Metrics).trace_enabled());
        assert!(Obs::new(ObsConfig::Trace).trace_enabled());
    }

    #[test]
    fn op_stream_is_bounded_and_drains() {
        let obs = Obs::new(ObsConfig::Metrics);
        let rec = |i: u64| OpRecord {
            op_id: i,
            kind: OpKind::Put,
            key: "k".into(),
            origin: DcId(0),
            started_ns: 0,
            completed_ns: 10,
            object_bytes: 1,
            ok: true,
        };
        obs.push_op(rec(1));
        obs.push_op(rec(2));
        let drained = obs.drain_ops();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].op_id, 2);
        assert_eq!(drained[0].latency_ns(), 10);
        assert!(obs.drain_ops().is_empty());
    }

    #[test]
    fn from_env_honors_trace_then_obs() {
        // Sequential set/remove inside one test: no other test in this crate reads
        // these variables.
        std::env::remove_var("LEGOSTORE_TRACE");
        std::env::remove_var("LEGOSTORE_OBS");
        assert_eq!(ObsConfig::from_env(), ObsConfig::Off);
        std::env::set_var("LEGOSTORE_OBS", "1");
        assert_eq!(ObsConfig::from_env(), ObsConfig::Metrics);
        std::env::set_var("LEGOSTORE_TRACE", "1");
        assert_eq!(ObsConfig::from_env(), ObsConfig::Trace);
        std::env::remove_var("LEGOSTORE_TRACE");
        std::env::remove_var("LEGOSTORE_OBS");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig::Metrics);
        let clone = obs.clone();
        clone.registry().counter("shared").inc();
        assert_eq!(obs.snapshot().counter("shared"), 1);
        assert_eq!(obs.next_op_id(), 1);
        assert_eq!(clone.next_op_id(), 2);
    }
}
