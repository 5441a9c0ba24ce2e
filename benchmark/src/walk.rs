//! The walk: a single-threaded, transport-free replay in which the harness itself plays
//! the network. Every call into a layer — building the operation's state machine,
//! `start`, wire encode and decode of each frame, `DcServer::handle_at`, `on_reply`, the
//! history fingerprint — is one leaf span under the operation's root span, so a layer's
//! cost is the self time of its spans and the counts are exact and repeatable.
//!
//! What the walk leaves out is what the transports add: socket writes and reads, the
//! reader → dispatch → reply hand-offs, timers and scheduling. `core.transport.*` is the
//! difference between a measured one-client median and the walk's total.

use crate::report::Metrics;
use crate::spans::{self_times, Span, Tracer};
use crate::stats::median;
use bytes::Bytes;
use legostore_lincheck::recorder::fingerprint;
use legostore_lincheck::HistoryRecorder;
use legostore_proto::msg::{OpOutcome, OpProgress, Outbound, ProtoMsg, ProtoReply};
use legostore_proto::server::{DcServer, Inbound};
use legostore_proto::wire::Frame;
use legostore_proto::{AbdGet, AbdPut, CasGet, CasPut};
use legostore_types::{ClientId, Configuration, DcId, Key, ProtocolKind, Tag, Value};
use std::collections::{BTreeMap, HashMap};

/// Operations the walk replays (the workload's first ones).
pub const WALK_OPS: usize = 2_000;

const SPAN_OP_PUT: &str = "op.put";
const SPAN_OP_GET: &str = "op.get";
const SPAN_NEW: &str = "proto.client.new";
const SPAN_START: &str = "proto.client.start";
const SPAN_ON_REPLY: &str = "proto.client.on_reply";
const SPAN_FINGERPRINT: &str = "lincheck.fingerprint";
const SPAN_RECORD: &str = "lincheck.record";
/// Wire span names: `[stage][carries a payload]`, stages in the order a round trip
/// passes them.
const SPAN_WIRE: [[&str; 2]; 4] = [
    [
        "proto.wire.encode_req.meta",
        "proto.wire.encode_req.payload",
    ],
    [
        "proto.wire.decode_req.meta",
        "proto.wire.decode_req.payload",
    ],
    [
        "proto.wire.encode_rep.meta",
        "proto.wire.encode_rep.payload",
    ],
    [
        "proto.wire.decode_rep.meta",
        "proto.wire.decode_rep.payload",
    ],
];
/// `DcServer::handle_at` span names, index-aligned with [`MSG_KIND_NAMES`].
const SPAN_HANDLE: [&str; 7] = [
    "proto.server.handle.abd_read_query",
    "proto.server.handle.abd_write_query",
    "proto.server.handle.abd_write",
    "proto.server.handle.cas_query",
    "proto.server.handle.cas_pre_write",
    "proto.server.handle.cas_finalize_write",
    "proto.server.handle.cas_finalize_read",
];
/// Catalog names of the per-kind handler metrics, index-aligned with [`SPAN_HANDLE`].
const METRIC_HANDLE: [&str; 7] = [
    "proto.server.handle_ns.abd_read_query",
    "proto.server.handle_ns.abd_write_query",
    "proto.server.handle_ns.abd_write",
    "proto.server.handle_ns.cas_query",
    "proto.server.handle_ns.cas_pre_write",
    "proto.server.handle_ns.cas_finalize_write",
    "proto.server.handle_ns.cas_finalize_read",
];

/// One operation to replay.
#[derive(Debug, Clone)]
pub struct WalkOp {
    /// Key operated on (must be installed in the servers).
    pub key: Key,
    /// Data center of the issuing client.
    pub origin: DcId,
    /// The value to write, or `None` for a GET.
    pub put: Option<Value>,
}

/// The four client state machines behind one interface, as every runtime of the repo
/// wraps them.
enum Machine {
    AbdPut(AbdPut),
    AbdGet(AbdGet),
    CasPut(CasPut),
    CasGet(CasGet),
}

impl Machine {
    fn start(&self) -> Vec<Outbound> {
        match self {
            Machine::AbdPut(m) => m.start(),
            Machine::AbdGet(m) => m.start(),
            Machine::CasPut(m) => m.start(),
            Machine::CasGet(m) => m.start(),
        }
    }

    fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        match self {
            Machine::AbdPut(m) => m.on_reply(from, phase, reply),
            Machine::AbdGet(m) => m.on_reply(from, phase, reply),
            Machine::CasPut(m) => m.on_reply(from, phase, reply),
            Machine::CasGet(m) => m.on_reply(from, phase, reply),
        }
    }
}

/// The nine servers plus the client-side state a `StoreClient` would keep.
pub struct WalkBed {
    servers: BTreeMap<DcId, DcServer>,
    configs: HashMap<Key, Configuration>,
    /// Last `(tag, value)` seen per `(origin, key)`: the CAS optimized-GET cache.
    cache: HashMap<(DcId, Key), (Tag, Value)>,
    recorder: HistoryRecorder,
    /// Whether requests and replies pass through the wire codec (the `tcp-*` workloads)
    /// or are handed over as values (in-process transports never serialise).
    wire: bool,
    metadata_bytes: u64,
    user_bytes: u64,
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalkCounts {
    /// PUTs and GETs replayed.
    pub puts: u64,
    /// GETs replayed.
    pub gets: u64,
    /// GETs that finished in one phase.
    pub one_phase_gets: u64,
    /// Requests sent on behalf of PUTs / GETs.
    pub put_msgs: u64,
    /// Requests sent on behalf of GETs.
    pub get_msgs: u64,
    /// Request plus reply bytes moved for PUTs (frame bytes when the wire codec is in the
    /// path, the cost model's `wire_size` otherwise).
    pub put_bytes: u64,
    /// Request plus reply bytes moved for GETs.
    pub get_bytes: u64,
}

/// What a walk produced.
pub struct Walk {
    /// Every span, in order.
    pub spans: Vec<Span>,
    /// Self time of each span, index-aligned with `spans`.
    self_ns: Vec<u64>,
    /// Exact counts.
    pub counts: WalkCounts,
    /// Per operation: `(is a PUT, sum of its leaf spans' time in ns)`.
    pub op_totals: Vec<(bool, u64)>,
    /// Sizes of payload-carrying request and reply frames seen (wire walks only).
    frame_bytes: [Vec<f64>; 2],
}

impl WalkBed {
    /// Empty servers for the data centers `dcs`.
    pub fn new(dcs: impl IntoIterator<Item = DcId>, wire: bool) -> Self {
        WalkBed {
            servers: dcs.into_iter().map(|dc| (dc, DcServer::new(dc))).collect(),
            configs: HashMap::new(),
            cache: HashMap::new(),
            recorder: HistoryRecorder::new(),
            wire,
            metadata_bytes: legostore_cloud::METADATA_BYTES,
            user_bytes: 0,
        }
    }

    /// Installs `key` under `config` with `initial` as its value.
    pub fn install(&mut self, key: Key, config: Configuration, initial: &Value) {
        for (dc, payload) in DcServer::initial_payloads(&config, initial) {
            self.servers
                .get_mut(&dc)
                .expect("placement uses known data centers")
                .install_key(key.clone(), config.clone(), Tag::INITIAL, payload);
        }
        self.recorder
            .register_key(key.as_str(), fingerprint(initial.as_bytes()));
        self.user_bytes += initial.len() as u64;
        self.configs.insert(key, config);
    }

    /// Replays `ops` in order and returns the spans and counts.
    pub fn run(&mut self, ops: &[WalkOp]) -> Result<Walk, String> {
        let mut tracer = Tracer::default();
        let mut counts = WalkCounts::default();
        let mut frame_bytes = [Vec::new(), Vec::new()];
        let mut now_ns = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let id = i as u32;
            let name = if op.put.is_some() {
                SPAN_OP_PUT
            } else {
                SPAN_OP_GET
            };
            tracer
                .scope(name, id, |t| {
                    self.run_op(t, id, op, &mut counts, &mut frame_bytes, &mut now_ns)
                })
                .map_err(|e| format!("walk op {i} ({name} {}): {e}", op.key))?;
        }
        let spans = tracer.spans().to_vec();
        let own = self_times(&spans);
        let mut op_totals: Vec<(bool, u64)> = ops.iter().map(|op| (op.put.is_some(), 0)).collect();
        for (span, self_ns) in spans.iter().zip(&own) {
            if span.parent.is_some() {
                op_totals[span.op as usize].1 += self_ns;
            }
        }
        Ok(Walk {
            spans,
            self_ns: own,
            counts,
            op_totals,
            frame_bytes,
        })
    }

    fn run_op(
        &mut self,
        t: &mut Tracer,
        id: u32,
        op: &WalkOp,
        counts: &mut WalkCounts,
        frame_bytes: &mut [Vec<f64>; 2],
        now_ns: &mut u64,
    ) -> Result<(), String> {
        let config = self
            .configs
            .get(&op.key)
            .ok_or("key not installed")?
            .clone();
        let client = ClientId(1);
        let is_put = op.put.is_some();
        // `StoreClient::put` fingerprints the value before running the operation,
        // `StoreClient::get` fingerprints what it read afterwards.
        let invoke = *now_ns;
        let put_fp = op
            .put
            .as_ref()
            .map(|v| t.leaf(SPAN_FINGERPRINT, id, || fingerprint(v.as_bytes())));
        let mut machine = t.leaf(SPAN_NEW, id, || match (config.protocol, &op.put) {
            (ProtocolKind::Abd, Some(v)) => Machine::AbdPut(AbdPut::new(
                op.key.clone(),
                config.clone(),
                op.origin,
                client,
                v.clone(),
            )),
            (ProtocolKind::Abd, None) => {
                Machine::AbdGet(AbdGet::new(op.key.clone(), config.clone(), op.origin, true))
            }
            (ProtocolKind::Cas, Some(v)) => Machine::CasPut(CasPut::new(
                op.key.clone(),
                config.clone(),
                op.origin,
                client,
                v.clone(),
            )),
            (ProtocolKind::Cas, None) => {
                let cached = self.cache.get(&(op.origin, op.key.clone())).cloned();
                Machine::CasGet(CasGet::new(
                    op.key.clone(),
                    config.clone(),
                    op.origin,
                    cached,
                ))
            }
        });
        let mut outbound = t.leaf(SPAN_START, id, || machine.start());
        let outcome = 'phases: loop {
            let (msgs, bytes) = if is_put {
                (&mut counts.put_msgs, &mut counts.put_bytes)
            } else {
                (&mut counts.get_msgs, &mut counts.get_bytes)
            };
            let mut replies = Vec::new();
            for out in outbound.drain(..) {
                *msgs += 1;
                *now_ns += 1;
                self.deliver(t, id, out, *now_ns, bytes, frame_bytes, &mut replies)?;
            }
            for (from, phase, reply) in replies {
                match t.leaf(SPAN_ON_REPLY, id, || machine.on_reply(from, phase, reply)) {
                    OpProgress::Pending => {}
                    OpProgress::Send(next) => {
                        outbound = next;
                        continue 'phases;
                    }
                    OpProgress::Done(outcome) => break 'phases outcome,
                }
            }
            return Err("every reply was delivered but the operation is still pending".into());
        };
        *now_ns += 1;
        match (outcome, &op.put) {
            (OpOutcome::PutOk { tag }, Some(value)) => {
                counts.puts += 1;
                self.cache
                    .insert((op.origin, op.key.clone()), (tag, value.clone()));
                let fp = put_fp.expect("fingerprinted above");
                t.leaf(SPAN_RECORD, id, || {
                    self.recorder
                        .record_put(op.key.as_str(), client.0, fp, invoke, *now_ns)
                });
            }
            (
                OpOutcome::GetOk {
                    tag,
                    value,
                    one_phase,
                },
                None,
            ) => {
                counts.gets += 1;
                counts.one_phase_gets += u64::from(one_phase);
                let fp = t.leaf(SPAN_FINGERPRINT, id, || fingerprint(value.as_bytes()));
                t.leaf(SPAN_RECORD, id, || {
                    self.recorder
                        .record_get(op.key.as_str(), client.0, fp, invoke, *now_ns)
                });
                self.cache.insert((op.origin, op.key.clone()), (tag, value));
            }
            (other, _) => return Err(format!("unexpected outcome {other:?}")),
        }
        Ok(())
    }

    /// Carries one request to its server and the replies back, through the wire codec if
    /// this bed has one.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        t: &mut Tracer,
        id: u32,
        out: Outbound,
        now_ns: u64,
        bytes: &mut u64,
        frame_bytes: &mut [Vec<f64>; 2],
        replies: &mut Vec<(DcId, u8, ProtoReply)>,
    ) -> Result<(), String> {
        let to = out.to;
        let kind = out.msg.kind_index();
        let mut inbound = Inbound {
            from: 1,
            msg_id: 0,
            phase: out.phase,
            key: out.key,
            epoch: out.epoch,
            msg: out.msg,
        };
        if self.wire {
            let payload = usize::from(carries_payload_msg(&inbound.msg));
            let frame = Frame::Request(inbound);
            let buf = t.leaf(SPAN_WIRE[0][payload], id, || frame.encode());
            *bytes += buf.len() as u64;
            if payload == 1 {
                frame_bytes[0].push(buf.len() as f64);
            }
            // The receiver strips the length prefix before decoding, as `read_from` does.
            let body = Bytes::from(buf).slice(4..);
            let decoded = t
                .leaf(SPAN_WIRE[1][payload], id, || Frame::decode(body))
                .map_err(|e| e.to_string())?;
            let Frame::Request(decoded) = decoded else {
                return Err("request decoded as another frame".into());
            };
            inbound = decoded;
        } else {
            *bytes += inbound.msg.wire_size(self.metadata_bytes);
        }
        let server = self
            .servers
            .get_mut(&to)
            .ok_or("message to an unknown data center")?;
        let handle_span = SPAN_HANDLE
            .get(kind)
            .ok_or("reconfiguration message in a walk")?;
        for r in t.leaf(handle_span, id, || server.handle_at(inbound, now_ns)) {
            let mut reply = r.reply;
            if self.wire {
                let payload = usize::from(carries_payload_reply(&reply));
                let frame = Frame::Reply {
                    endpoint: r.to,
                    from: to,
                    sent_at_ns: now_ns,
                    service_ns: 0,
                    phase: r.phase,
                    epoch: r.epoch,
                    reply,
                };
                let buf = t.leaf(SPAN_WIRE[2][payload], id, || frame.encode());
                *bytes += buf.len() as u64;
                if payload == 1 {
                    frame_bytes[1].push(buf.len() as f64);
                }
                let body = Bytes::from(buf).slice(4..);
                let decoded = t
                    .leaf(SPAN_WIRE[3][payload], id, || Frame::decode(body))
                    .map_err(|e| e.to_string())?;
                let Frame::Reply { reply: decoded, .. } = decoded else {
                    return Err("reply decoded as another frame".into());
                };
                reply = decoded;
            } else {
                *bytes += reply.wire_size(self.metadata_bytes);
            }
            replies.push((to, r.phase, reply));
        }
        Ok(())
    }

    /// [`WalkBed::run`], plus everything a traced run reports about it: the walk's
    /// metrics, `trace-<workload>.json` under `out_dir`, the cost of a garbage collection
    /// on the walked servers, what they store afterwards, and the verdict on the walk's
    /// own history. A walk that cannot complete is a problem, not an error.
    pub fn run_reported(
        &mut self,
        ops: &[WalkOp],
        workload: &str,
        seed: u64,
        out_dir: &std::path::Path,
        metrics: &mut Metrics,
        problems: &mut Vec<String>,
    ) -> std::io::Result<Option<Walk>> {
        let walk = match self.run(ops) {
            Ok(walk) => walk,
            Err(e) => {
                problems.push(e);
                return Ok(None);
            }
        };
        metrics.extend(walk.metrics());
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(
            out_dir.join(format!("trace-{workload}.json")),
            crate::spans::to_json(workload, seed, &walk.spans),
        )?;
        let gc = self.garbage_collect(crate::tcp::GC_KEEP);
        metrics.set("proto.server.gc_ns", median(&gc), gc.len() as u64);
        metrics.set(
            "proto.server.stored_bytes_per_user_byte",
            self.stored_bytes_per_user_byte(),
            1,
        );
        problems.extend(crate::load::check_histories(&self.recorder).0);
        Ok(Some(walk))
    }

    /// Runs `DcServer::garbage_collect(keep)` on every server; returns the time of each
    /// call in ns.
    pub fn garbage_collect(&mut self, keep: usize) -> Vec<f64> {
        self.servers
            .values_mut()
            .map(|server| {
                let started = std::time::Instant::now();
                std::hint::black_box(server.garbage_collect(keep));
                started.elapsed().as_nanos() as f64
            })
            .collect()
    }

    /// Bytes the servers store per byte of installed user data.
    pub fn stored_bytes_per_user_byte(&self) -> f64 {
        let stored: u64 = self.servers.values().map(DcServer::storage_bytes).sum();
        stored as f64 / self.user_bytes.max(1) as f64
    }

    /// The history the walk recorded (it is checked like every other history).
    pub fn recorder(&self) -> &HistoryRecorder {
        &self.recorder
    }
}

fn carries_payload_msg(msg: &ProtoMsg) -> bool {
    matches!(
        msg,
        ProtoMsg::AbdWrite { .. } | ProtoMsg::CasPreWrite { .. }
    )
}

fn carries_payload_reply(reply: &ProtoReply) -> bool {
    matches!(
        reply,
        ProtoReply::AbdTagValue { .. } | ProtoReply::CasShard { shard: Some(_), .. }
    )
}

/// `(median, count)` of `samples`; `(0, 0)` when there are none (the layer did no work).
fn median_or_zero(samples: &[f64]) -> (f64, u64) {
    if samples.is_empty() {
        (0.0, 0)
    } else {
        (median(samples), samples.len() as u64)
    }
}

impl Walk {
    /// Median self time, in ns, of the spans named `name` (0 with no such span).
    pub fn median_self_ns(&self, name: &str) -> (f64, u64) {
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64)
            .collect();
        median_or_zero(&v)
    }

    /// Median over the PUTs (or GETs) of the time their spans named in `names` took.
    fn median_per_op(&self, put: bool, names: &[&str]) -> (f64, u64) {
        let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&self.self_ns) {
            if self.op_totals[span.op as usize].0 == put && names.contains(&span.name) {
                *per_op.entry(span.op).or_default() += self_ns;
            }
        }
        let v: Vec<f64> = per_op.values().map(|ns| *ns as f64).collect();
        median_or_zero(&v)
    }

    /// Median total time of a PUT's (or GET's) leaf spans, in ns: the walk's estimate of
    /// the processor time one operation costs across every layer it crosses.
    pub fn median_op_total_ns(&self, put: bool) -> f64 {
        let v: Vec<f64> = self
            .op_totals
            .iter()
            .filter(|(p, _)| *p == put)
            .map(|(_, ns)| *ns as f64)
            .collect();
        median_or_zero(&v).0
    }

    /// The walk's share of the per-layer catalog.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = &self.counts;
        for (stage, name) in [
            "proto.wire.encode_req_ns",
            "proto.wire.decode_req_ns",
            "proto.wire.encode_rep_ns",
            "proto.wire.decode_rep_ns",
        ]
        .into_iter()
        .enumerate()
        {
            let (ns, n) = self.median_self_ns(SPAN_WIRE[stage][1]);
            m.set(name, ns, n);
        }
        for (i, name) in ["proto.wire.req_frame_bytes", "proto.wire.rep_frame_bytes"]
            .into_iter()
            .enumerate()
        {
            let (bytes, n) = median_or_zero(&self.frame_bytes[i]);
            m.set(name, bytes, n);
        }
        for (span, name) in SPAN_HANDLE.iter().zip(METRIC_HANDLE) {
            let (ns, n) = self.median_self_ns(span);
            m.set(name, ns, n);
        }
        let client = [SPAN_NEW, SPAN_START, SPAN_ON_REPLY];
        let (ns, n) = self.median_per_op(true, &client);
        m.set("proto.client.put_cpu_ns", ns, n);
        let (ns, n) = self.median_per_op(false, &client);
        m.set("proto.client.get_cpu_ns", ns, n);
        let (ns, n) = self.median_self_ns(SPAN_FINGERPRINT);
        m.set("lincheck.fingerprint_ns", ns, n);
        let per = |total: u64, ops: u64| {
            if ops == 0 {
                0.0
            } else {
                total as f64 / ops as f64
            }
        };
        m.set("proto.client.msgs_per_put", per(c.put_msgs, c.puts), c.puts);
        m.set("proto.client.msgs_per_get", per(c.get_msgs, c.gets), c.gets);
        m.set(
            "proto.client.bytes_per_put",
            per(c.put_bytes, c.puts),
            c.puts,
        );
        m.set(
            "proto.client.bytes_per_get",
            per(c.get_bytes, c.gets),
            c.gets,
        );
        m.set(
            "proto.client.one_phase_get_frac",
            per(c.one_phase_gets, c.gets),
            c.gets,
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{check_histories, ValueFactory, INITIAL_WRITER};
    use legostore_cloud::{CloudModel, GcpLocation};
    use legostore_proto::msg::MSG_KIND_NAMES;

    fn bed(cas: bool, wire: bool) -> (WalkBed, Vec<WalkOp>) {
        let model = CloudModel::gcp9();
        let tokyo = GcpLocation::Tokyo.dc();
        let values = ValueFactory::new(3000);
        let n = if cas { 5 } else { 3 };
        let dcs: Vec<DcId> = model.nearest_dcs(tokyo).into_iter().take(n).collect();
        let config = if cas {
            Configuration::cas_default(dcs, 3, 1)
        } else {
            Configuration::abd_majority(dcs, 1)
        };
        let mut bed = WalkBed::new(model.dc_ids(), wire);
        let keys = [Key::from("a"), Key::from("b")];
        for (i, key) in keys.iter().enumerate() {
            bed.install(
                key.clone(),
                config.clone(),
                &values.make(3000, INITIAL_WRITER, i as u64),
            );
        }
        let ops = (0..40u64)
            .map(|i| WalkOp {
                key: keys[(i % 2) as usize].clone(),
                origin: tokyo,
                put: (i % 4 < 2).then(|| values.make(3000, 0, i)),
            })
            .collect();
        (bed, ops)
    }

    #[test]
    fn walk_counts_are_exact_repeatable_and_histories_linearizable() {
        for cas in [false, true] {
            for wire in [false, true] {
                let (mut bed, ops) = bed(cas, wire);
                let first = bed.run(&ops).expect("walk");
                let (problems, checked, _) = check_histories(bed.recorder());
                assert!(problems.is_empty(), "{problems:?}");
                assert_eq!(checked, 40);
                assert_eq!((first.counts.puts, first.counts.gets), (20, 20));
                let (mut again, ops) = self::bed(cas, wire);
                assert_eq!(
                    again.run(&ops).expect("walk").counts,
                    first.counts,
                    "cas={cas} wire={wire}"
                );
                // A PUT sends one request per member of each phase's quorum: 2 + 2 under
                // ABD(3) majorities, 2 + 4 + 4 under CAS(5,3)'s default quorums.
                let put_msgs = if cas { 10 } else { 4 };
                assert_eq!(first.counts.put_msgs, 20 * put_msgs, "cas={cas}");
                // Every GET follows a PUT to the same key by the same client, so all of
                // them take the one-phase path.
                assert_eq!(first.counts.one_phase_gets, 20, "cas={cas}");
            }
        }
    }

    #[test]
    fn every_leaf_span_hangs_off_its_operation_and_totals_add_up() {
        let (mut bed, ops) = bed(true, true);
        let walk = bed.run(&ops).expect("walk");
        let roots: Vec<&Span> = walk.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), ops.len());
        for span in walk.spans.iter().filter(|s| s.parent.is_some()) {
            let root = &walk.spans[span.parent.unwrap() as usize];
            assert!(root.parent.is_none() && root.op == span.op, "{span:?}");
        }
        let own = self_times(&walk.spans);
        for (i, root) in roots.iter().enumerate() {
            let root_index = walk
                .spans
                .iter()
                .position(|s| std::ptr::eq(s, *root))
                .unwrap();
            assert_eq!(walk.op_totals[i].1 + own[root_index], root.duration_ns());
        }
        let m = walk.metrics();
        assert!(m.get("proto.wire.encode_req_ns").unwrap() > 0.0);
        assert!(m.get("proto.server.handle_ns.cas_pre_write").unwrap() > 0.0);
        assert_eq!(m.get("proto.server.handle_ns.abd_write"), Some(0.0));
        assert!(m.get("lincheck.fingerprint_ns").unwrap() > 0.0);
        assert!(m.get("proto.wire.req_frame_bytes").unwrap() > 1000.0);
        assert!(walk.median_op_total_ns(true) > walk.median_op_total_ns(false));
    }

    #[test]
    fn handler_spans_and_metrics_follow_the_message_kind_catalog() {
        for ((span, metric), kind) in SPAN_HANDLE.iter().zip(METRIC_HANDLE).zip(MSG_KIND_NAMES) {
            assert_eq!(*span, format!("proto.server.handle.{kind}"));
            assert_eq!(metric, format!("proto.server.handle_ns.{kind}"));
        }
    }

    #[test]
    fn garbage_collection_bounds_what_the_servers_store() {
        let (mut bed, ops) = bed(true, false);
        bed.run(&ops).expect("walk");
        let before = bed.stored_bytes_per_user_byte();
        assert_eq!(bed.garbage_collect(2).len(), 9);
        let after = bed.stored_bytes_per_user_byte();
        // CAS(5,3): 5/3 per version, the current one plus at most two old ones.
        assert!(after < before && after <= 5.1, "{before} -> {after}");
    }
}
