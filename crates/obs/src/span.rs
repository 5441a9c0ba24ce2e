//! Per-operation phase spans and the pre-resolved metric bundles components feed.
//!
//! A [`OpSpan`] is built up by the client while one GET/PUT runs: phase starts, replies
//! (with the server-reported service time split out of the network time), encode/decode
//! durations, timeout widenings and reconfiguration restarts. When the operation
//! finishes, [`ClientMetrics::observe_span`] folds the span into histograms/counters and
//! — under `ObsConfig::Trace` — [`OpSpan::render`] pretty-prints the timeline.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::Obs;
use legostore_types::{DcId, OpKind};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// What happened at one instant of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEventKind {
    /// Erasure-encoding the value into shards took `dur_ns` (CAS PUT only).
    Encode {
        /// Encoding duration in clock nanoseconds.
        dur_ns: u64,
    },
    /// Protocol phase `phase` began fanning out to its quorum.
    PhaseStart {
        /// 1-based protocol phase (ABD has 2 phases, CAS PUT has 3).
        phase: u8,
    },
    /// A reply arrived from `from` for phase `phase`.
    Reply {
        /// The answering data center.
        from: DcId,
        /// Phase the reply belongs to.
        phase: u8,
        /// Server-side processing duration, carried in the reply frame.
        service_ns: u64,
        /// Time attributed to the network: elapsed since the phase started, minus
        /// the server's service time.
        network_ns: u64,
    },
    /// Erasure-decoding shards back into the value took `dur_ns` (CAS GET only).
    Decode {
        /// Decoding duration in clock nanoseconds.
        dur_ns: u64,
    },
    /// The attempt timed out; the current phase was re-sent to the full placement
    /// (§4.5 widening).
    TimeoutWiden {
        /// Phase that was widened.
        phase: u8,
    },
    /// The servers answered with a newer configuration; the operation restarted
    /// against it.
    ReconfigRestart,
    /// The operation completed (`ok`) or failed terminally (`!ok`).
    Finished {
        /// Whether the operation succeeded.
        ok: bool,
    },
}

impl fmt::Display for SpanEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanEventKind::Encode { dur_ns } => write!(f, "encode {:.3} ms", ms(*dur_ns)),
            SpanEventKind::PhaseStart { phase } => write!(f, "phase {phase} start"),
            SpanEventKind::Reply { from, phase, service_ns, network_ns } => write!(
                f,
                "reply from {from} phase={phase} service={:.3} ms network={:.3} ms",
                ms(*service_ns),
                ms(*network_ns)
            ),
            SpanEventKind::Decode { dur_ns } => write!(f, "decode {:.3} ms", ms(*dur_ns)),
            SpanEventKind::TimeoutWiden { phase } => {
                write!(f, "timeout; widening phase {phase} to full placement")
            }
            SpanEventKind::ReconfigRestart => write!(f, "reconfigured; restarting op"),
            SpanEventKind::Finished { ok } => {
                write!(f, "finished {}", if *ok { "ok" } else { "FAILED" })
            }
        }
    }
}

/// A timestamped [`SpanEventKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Clock nanoseconds when the event happened.
    pub at_ns: u64,
    /// What happened.
    pub kind: SpanEventKind,
}

/// The recorded timeline of one client operation.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Process-unique operation id (also stamped on flight-recorder entries).
    pub op_id: u64,
    /// GET or PUT.
    pub kind: OpKind,
    /// Key operated on.
    pub key: String,
    /// Data center the client issuing the operation lives in.
    pub origin: DcId,
    /// Clock nanoseconds at invocation.
    pub started_ns: u64,
    /// Events in arrival order.
    pub events: Vec<SpanEvent>,
}

/// Highest protocol phase a span tracks per-phase durations for (CAS PUT uses 3; one
/// extra slot leaves headroom for reconfiguration's 4-phase shape).
pub const MAX_PHASES: usize = 4;

impl OpSpan {
    /// Starts an empty span.
    pub fn new(op_id: u64, kind: OpKind, key: &str, origin: DcId, started_ns: u64) -> Self {
        OpSpan {
            op_id,
            kind,
            key: key.to_owned(),
            origin,
            started_ns,
            events: Vec::with_capacity(12),
        }
    }

    /// Appends an event at `at_ns`.
    pub fn push(&mut self, at_ns: u64, kind: SpanEventKind) {
        self.events.push(SpanEvent { at_ns, kind });
    }

    /// Total time spent in each protocol phase, plus how often each phase started.
    ///
    /// A phase runs from its `PhaseStart` to the next `PhaseStart` (or to the last
    /// event). Retried phases accumulate: a phase that ran twice contributes both
    /// stretches to its total.
    fn phase_durations(&self) -> [(u64, u32); MAX_PHASES] {
        let mut totals = [(0u64, 0u32); MAX_PHASES];
        let mut open: Option<(usize, u64)> = None;
        for ev in &self.events {
            if let SpanEventKind::PhaseStart { phase } = ev.kind {
                if let Some((slot, since)) = open.take() {
                    totals[slot].0 += ev.at_ns.saturating_sub(since);
                }
                let slot = (phase as usize).clamp(1, MAX_PHASES) - 1;
                totals[slot].1 += 1;
                open = Some((slot, ev.at_ns));
            }
        }
        if let (Some((slot, since)), Some(last)) = (open, self.events.last()) {
            totals[slot].0 += last.at_ns.saturating_sub(since);
        }
        totals
    }

    /// Pretty-prints the timeline (the `LEGOSTORE_TRACE=1` output): one line per event
    /// with a millisecond offset relative to invocation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "op#{} {} key={:?} origin={} started at {} ns",
            self.op_id, self.kind, self.key, self.origin, self.started_ns
        );
        for ev in &self.events {
            let _ = writeln!(
                out,
                "  +{:>10.3} ms  {}",
                ms(ev.at_ns.saturating_sub(self.started_ns)),
                ev.kind
            );
        }
        let phases = self.phase_durations();
        let _ = write!(out, "  phase totals:");
        for (i, (total, starts)) in phases.iter().enumerate() {
            if *starts > 0 {
                let _ = write!(out, "  p{}={:.3} ms (x{})", i + 1, ms(*total), starts);
            }
        }
        out.push('\n');
        out
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Index of `kind` in the per-kind metric arrays ([GET, PUT]).
fn kind_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Get => 0,
        OpKind::Put => 1,
    }
}

/// The client-side metric bundle: handles resolved once per `StoreClient`, fed once per
/// finished operation by [`ClientMetrics::observe_span`].
#[derive(Debug, Clone)]
pub struct ClientMetrics {
    /// Completed+failed operations by kind (`client.get.ops` / `client.put.ops`).
    pub ops: [Arc<Counter>; 2],
    /// Operations that ended in a terminal error (`client.ops_failed`).
    pub ops_failed: Arc<Counter>,
    /// GETs that finished in one phase (`client.get.one_phase`).
    pub one_phase_gets: Arc<Counter>,
    /// Timeout-triggered quorum widenings (`client.retries.timeout_widen`).
    pub timeout_widens: Arc<Counter>,
    /// Restarts caused by concurrent reconfiguration (`client.retries.reconfig`).
    pub reconfig_restarts: Arc<Counter>,
    /// End-to-end latency by kind (`client.{get,put}.latency_ns`).
    pub latency: [Arc<Histogram>; 2],
    /// Per-phase time by kind (`client.{get,put}.phase{1..4}_ns`).
    pub phase: [[Arc<Histogram>; MAX_PHASES]; 2],
    /// Erasure-encode time on CAS PUTs (`client.encode_ns`).
    pub encode: Arc<Histogram>,
    /// Erasure-decode time on CAS GETs (`client.decode_ns`).
    pub decode: Arc<Histogram>,
    /// Server-reported processing time per reply (`client.reply.service_ns`).
    pub reply_service: Arc<Histogram>,
    /// Network share of each reply's round trip (`client.reply.network_ns`).
    pub reply_network: Arc<Histogram>,
}

impl ClientMetrics {
    /// Resolves all client metric handles from `obs`'s registry.
    pub fn new(obs: &Obs) -> Self {
        let r = obs.registry();
        let phase_histograms = |kind: &str| {
            std::array::from_fn(|i| r.histogram(&format!("client.{kind}.phase{}_ns", i + 1)))
        };
        ClientMetrics {
            ops: [r.counter("client.get.ops"), r.counter("client.put.ops")],
            ops_failed: r.counter("client.ops_failed"),
            one_phase_gets: r.counter("client.get.one_phase"),
            timeout_widens: r.counter("client.retries.timeout_widen"),
            reconfig_restarts: r.counter("client.retries.reconfig"),
            latency: [r.histogram("client.get.latency_ns"), r.histogram("client.put.latency_ns")],
            phase: [phase_histograms("get"), phase_histograms("put")],
            encode: r.histogram("client.encode_ns"),
            decode: r.histogram("client.decode_ns"),
            reply_service: r.histogram("client.reply.service_ns"),
            reply_network: r.histogram("client.reply.network_ns"),
        }
    }

    /// Folds a finished span into the bundle: op/latency by kind, accumulated per-phase
    /// times, encode/decode durations, per-reply service/network split, retry counters.
    pub fn observe_span(&self, span: &OpSpan, completed_ns: u64, ok: bool) {
        let slot = kind_slot(span.kind);
        self.ops[slot].inc();
        if !ok {
            self.ops_failed.inc();
        }
        self.latency[slot].record(completed_ns.saturating_sub(span.started_ns));
        for (i, (total, starts)) in span.phase_durations().iter().enumerate() {
            if *starts > 0 {
                self.phase[slot][i].record(*total);
            }
        }
        for ev in &span.events {
            match ev.kind {
                SpanEventKind::Encode { dur_ns } => self.encode.record(dur_ns),
                SpanEventKind::Decode { dur_ns } => self.decode.record(dur_ns),
                SpanEventKind::Reply { service_ns, network_ns, .. } => {
                    self.reply_service.record(service_ns);
                    self.reply_network.record(network_ns);
                }
                SpanEventKind::TimeoutWiden { .. } => self.timeout_widens.inc(),
                SpanEventKind::ReconfigRestart => self.reconfig_restarts.inc(),
                _ => {}
            }
        }
    }
}

/// The server-side metric bundle (one per `DcServer` host, whether that host is an
/// in-process thread or the standalone TCP server).
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Request frames dispatched (`server.requests`).
    pub requests: Arc<Counter>,
    /// Reply frames produced (`server.replies`).
    pub replies: Arc<Counter>,
    /// Bytes received, wire framing included (`server.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Bytes sent, wire framing included (`server.bytes_out`).
    pub bytes_out: Arc<Counter>,
    /// Peak number of connection threads holding or waiting for the per-DC state lock
    /// (`server.queue_depth_max`; TCP server only — the in-process queue length is
    /// scheduling-dependent and would break virtual-time snapshot determinism).
    pub queue_depth_max: Arc<Gauge>,
    /// Keys currently hosted (`server.keys`, refreshed when stats are scraped).
    pub keys: Arc<Gauge>,
    /// Bytes of stored state (`server.storage_bytes`, refreshed when stats are scraped).
    pub storage_bytes: Arc<Gauge>,
    /// Endpoints with a reply route held for a request that waits
    /// (`server.reply_routes`, refreshed when stats are scraped).
    pub reply_routes: Arc<Gauge>,
    /// Dispatch time by protocol phase (`server.dispatch_ns.phase{0..4}`; phase 0
    /// catches control traffic outside the 1..=4 range).
    pub dispatch: [Arc<Histogram>; MAX_PHASES + 1],
    /// Requests by protocol message kind (`server.msg.<kind>`), index-aligned with the
    /// kind-name list given to [`ServerMetrics::new`].
    pub msg_kinds: Vec<Arc<Counter>>,
}

impl ServerMetrics {
    /// Resolves all server metric handles from `obs`'s registry. `msg_kind_names` is
    /// the protocol's message-kind catalog (index-aligned with the wire encoding) — it
    /// is passed in so this crate needs no dependency on the protocol crate.
    pub fn new(obs: &Obs, msg_kind_names: &[&str]) -> Self {
        let r = obs.registry();
        ServerMetrics {
            requests: r.counter("server.requests"),
            replies: r.counter("server.replies"),
            bytes_in: r.counter("server.bytes_in"),
            bytes_out: r.counter("server.bytes_out"),
            queue_depth_max: r.gauge("server.queue_depth_max"),
            keys: r.gauge("server.keys"),
            storage_bytes: r.gauge("server.storage_bytes"),
            reply_routes: r.gauge("server.reply_routes"),
            dispatch: std::array::from_fn(|i| {
                r.histogram(&format!("server.dispatch_ns.phase{i}"))
            }),
            msg_kinds: msg_kind_names
                .iter()
                .map(|name| r.counter(&format!("server.msg.{name}")))
                .collect(),
        }
    }

    /// Records one dispatched request: its message kind, its protocol phase, how long
    /// `DcServer::handle` took, and how many reply frames it produced.
    pub fn on_request(&self, msg_kind: usize, phase: u8, dispatch_ns: u64, replies: u64) {
        self.requests.inc();
        self.replies.add(replies);
        if let Some(c) = self.msg_kinds.get(msg_kind) {
            c.inc();
        }
        let slot = if (1..=MAX_PHASES as u8).contains(&phase) { phase as usize } else { 0 };
        self.dispatch[slot].record(dispatch_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsConfig;

    #[test]
    fn phase_durations_accumulate_across_retries() {
        let mut span = OpSpan::new(1, OpKind::Put, "k", DcId(0), 0);
        span.push(0, SpanEventKind::PhaseStart { phase: 1 });
        span.push(100, SpanEventKind::PhaseStart { phase: 2 });
        span.push(150, SpanEventKind::TimeoutWiden { phase: 2 });
        span.push(150, SpanEventKind::PhaseStart { phase: 2 });
        span.push(400, SpanEventKind::Finished { ok: true });
        let phases = span.phase_durations();
        assert_eq!(phases[0], (100, 1));
        assert_eq!(phases[1], (300, 2), "both phase-2 stretches count");
        assert_eq!(phases[2], (0, 0));
    }

    #[test]
    fn observe_span_feeds_every_bundle_member() {
        let obs = Obs::new(ObsConfig::Metrics);
        let m = ClientMetrics::new(&obs);
        let mut span = OpSpan::new(7, OpKind::Get, "k", DcId(2), 1_000);
        span.push(1_000, SpanEventKind::PhaseStart { phase: 1 });
        span.push(1_500, SpanEventKind::Reply {
            from: DcId(3),
            phase: 1,
            service_ns: 100,
            network_ns: 400,
        });
        span.push(1_600, SpanEventKind::Decode { dur_ns: 50 });
        span.push(1_700, SpanEventKind::Finished { ok: true });
        m.observe_span(&span, 1_700, true);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("client.get.ops"), 1);
        assert_eq!(snap.counter("client.ops_failed"), 0);
        assert_eq!(snap.histogram("client.get.latency_ns").unwrap().sum, 700);
        assert_eq!(snap.histogram("client.get.phase1_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("client.reply.service_ns").unwrap().sum, 100);
        assert_eq!(snap.histogram("client.reply.network_ns").unwrap().sum, 400);
        assert_eq!(snap.histogram("client.decode_ns").unwrap().sum, 50);
    }

    #[test]
    fn render_is_one_line_per_event_plus_totals() {
        let mut span = OpSpan::new(9, OpKind::Put, "key", DcId(1), 0);
        span.push(0, SpanEventKind::PhaseStart { phase: 1 });
        span.push(2_000_000, SpanEventKind::Finished { ok: true });
        let text = span.render();
        assert!(text.contains("op#9 PUT"), "{text}");
        assert!(text.contains("phase 1 start"), "{text}");
        assert!(text.contains("p1=2.000 ms"), "{text}");
    }

    #[test]
    fn server_metrics_classify_phases_and_kinds() {
        let obs = Obs::new(ObsConfig::Metrics);
        let m = ServerMetrics::new(&obs, &["abd_read_query", "abd_write"]);
        m.on_request(0, 1, 500, 1);
        m.on_request(1, 2, 700, 1);
        m.on_request(1, 9, 100, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.requests"), 3);
        assert_eq!(snap.counter("server.replies"), 2);
        assert_eq!(snap.counter("server.msg.abd_write"), 2);
        assert_eq!(snap.histogram("server.dispatch_ns.phase1").unwrap().count, 1);
        assert_eq!(snap.histogram("server.dispatch_ns.phase0").unwrap().count, 1);
    }
}
