//! The discrete-event simulator: a scheduler over the crate's world engine.
//!
//! The world holds the servers and the drivers; this file only decides when each input
//! reaches it (modelled delays on an event queue), which messages the injected fault plan
//! drops or duplicates, and what the run costs and records.

use crate::report::{CostMeter, OpRecord, SimReport};
use crate::world::{endpoint, OpInfo, Out, Tagged, TrafficClass, World, CONTROLLER_DC};
use legostore_cloud::{CloudModel, METADATA_BYTES};
use legostore_lincheck::{recorder::fingerprint, HistoryRecorder};
use legostore_proto::msg::Outbound;
use legostore_proto::server::{Inbound, Reply};
use legostore_proto::{Completed, RetryCause};
use legostore_types::{Configuration, DcId, FaultPlan, FaultState, Key, OpKind, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Tunables of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Per-attempt operation timeout (virtual ms) before the client widens its quorum to the
    /// full placement and retries. Servers hold a reconfiguration's epoch lease for 16 of
    /// these — twice the controller's own give-up horizon — before re-activating the old
    /// epoch.
    pub op_timeout_ms: f64,
    /// Retries an operation may spend before it is reported failed: its attempt budget is
    /// `max_timeout_retries + 1`, and every new attempt counts against it, whatever caused
    /// it (timeout, reconfiguration redirect, retryable failure).
    pub max_timeout_retries: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { op_timeout_ms: 1500.0, max_timeout_retries: 2 }
    }
}

/// What the simulator keeps of each operation in flight.
#[derive(Debug, Clone, Copy)]
struct OpMeta {
    start_ms: f64,
    object_bytes: u64,
}

#[derive(Debug, Clone)]
enum Event {
    StartRequest { origin: DcId, kind: OpKind, key: Key, value_size: u64 },
    DeliverToServer { to: DcId, inbound: Inbound },
    DeliverReply { from: DcId, reply: Reply },
    OpTimeout { token: u64 },
    ReconfigTick { token: u64 },
    StartReconfig { key: Key, new_config: Configuration },
    OpenAttempt { token: u64 },
    SetDcFailed { dc: DcId, failed: bool },
}

/// The pending events, popped in `(instant_us, seq)` order, where `seq` numbers the
/// pushes. Each event sits in one of three sources, and [`EventQueue::pop`] takes the
/// smallest of their heads:
/// - the *agenda*: what was scheduled before the run, sorted once by
///   [`EventQueue::start`] and consumed from its end;
/// - the *timers*: operation timeouts. Each is armed a fixed `op_timeout_ms` after the
///   current instant, which never goes back, so they arrive in order and wait in a FIFO;
/// - the *heap*: everything else raised during the run (deliveries, reconfiguration
///   ticks, reopen pauses). It orders small entries that index a free-listed slab of
///   payloads.
#[derive(Default)]
struct EventQueue {
    /// Pushes so far: the tie-breaker among equal instants, and the `msg_id` that
    /// `send_outbound` gives a message.
    seq: u64,
    /// Descending by `(instant_us, seq)` once started, so the next event is the last.
    agenda: Vec<(u64, u64, Event)>,
    /// `(instant_us, seq, route)` of each pending [`Event::OpTimeout`], ascending.
    timers: VecDeque<(u64, u64, u64)>,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    slab: Vec<Option<Event>>,
    free: Vec<usize>,
}

impl EventQueue {
    /// Adds a pre-run event to the agenda. All of them come before [`EventQueue::start`].
    fn schedule(&mut self, at_us: u64, event: Event) {
        self.seq += 1;
        self.agenda.push((at_us, self.seq, event));
    }

    /// Sorts the agenda; call it once, after the last [`EventQueue::schedule`].
    fn start(&mut self) {
        self.agenda.sort_unstable_by_key(|&(at_us, seq, _)| Reverse((at_us, seq)));
    }

    fn push(&mut self, at_us: u64, event: Event) {
        self.seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.slab[slot] = Some(event);
        self.heap.push(Reverse((at_us, self.seq, slot)));
    }

    /// Arms the timeout of the attempt on `route` at `at_us`, which must not precede the
    /// last timer armed.
    fn push_timer(&mut self, at_us: u64, route: u64) {
        self.seq += 1;
        if let Some(&(last_us, _, _)) = self.timers.back() {
            assert!(last_us <= at_us, "operation timers must be armed in time order");
        }
        self.timers.push_back((at_us, self.seq, route));
    }

    /// Removes and returns the earliest event as `(instant_us, seq, event)`.
    fn pop(&mut self) -> Option<(u64, u64, Event)> {
        const NONE: (u64, u64) = (u64::MAX, u64::MAX);
        let agenda = self.agenda.last().map_or(NONE, |&(at_us, seq, _)| (at_us, seq));
        let timer = self.timers.front().map_or(NONE, |&(at_us, seq, _)| (at_us, seq));
        let heap = self.heap.peek().map_or(NONE, |&Reverse((at_us, seq, _))| (at_us, seq));
        if timer < agenda && timer < heap {
            let (at_us, seq, token) = self.timers.pop_front()?;
            Some((at_us, seq, Event::OpTimeout { token }))
        } else if agenda < heap {
            self.agenda.pop()
        } else {
            let Reverse((at_us, seq, slot)) = self.heap.pop()?;
            self.free.push(slot);
            Some((at_us, seq, self.slab[slot].take().expect("a queued slot holds its event")))
        }
    }
}

/// The simulator.
pub struct Simulation {
    model: CloudModel,
    options: SimOptions,
    now_us: u64,
    queue: EventQueue,
    world: World<OpMeta>,
    records: Vec<OpRecord>,
    cost: CostMeter,
    reconfig_durations: Vec<f64>,
    /// The injected fault plan's interpreter (see [`Simulation::set_fault_plan`]); `None`
    /// makes the fault-free delivery decision free.
    faults: Option<FaultState>,
    /// Per-key operation histories, recorded only when
    /// [`Simulation::enable_history_recording`] was called.
    recorder: Option<Arc<HistoryRecorder>>,
}

impl Simulation {
    /// Creates a simulator over `model` with default options.
    pub fn new(model: CloudModel) -> Self {
        Self::with_options(model, SimOptions::default())
    }

    /// Creates a simulator with explicit options.
    pub fn with_options(model: CloudModel, options: SimOptions) -> Self {
        let op_timeout_ns = (options.op_timeout_ms * 1e6) as u64;
        Simulation {
            world: World::new(model.dc_ids(), op_timeout_ns, options.max_timeout_retries + 1),
            model,
            options,
            now_us: 0,
            queue: EventQueue::default(),
            records: Vec::new(),
            cost: CostMeter::default(),
            reconfig_durations: Vec::new(),
            faults: None,
            recorder: None,
        }
    }

    /// Injects a deterministic fault plan (see [`legostore_types::fault`]). The plan's
    /// events are applied lazily as virtual time passes their instants; per-message
    /// drop/duplication coin flips come from the plan's seed, so a faulty run is exactly
    /// as reproducible as a fault-free one. The same plan fed to a virtual-time
    /// `legostore-core` deployment injects the same schedule there.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = (!plan.is_empty()).then(|| FaultState::new(plan));
    }

    /// Starts recording per-key operation histories for linearizability checking; the
    /// report carries them in [`SimReport::histories`].
    ///
    /// Must be called before any key is created. While recording, PUT payloads are
    /// stamped with the operation token (same size as requested, so latency and cost
    /// accounting are unchanged) — otherwise every PUT of a size would write identical
    /// filler bytes and the checker could not tell writes apart. Payloads shorter than
    /// 8 bytes truncate the stamp and can alias once tokens exceed `256^len`; use
    /// ≥ 8-byte objects when the linearizability verdict matters.
    pub fn enable_history_recording(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(Arc::new(HistoryRecorder::new()));
        }
    }

    /// Current virtual time in milliseconds.
    fn now_ms(&self) -> f64 {
        self.now_us as f64 / 1000.0
    }

    /// Installs `key` with `config` and `initial_value` at its hosting servers and registers
    /// it in the metadata service (the CREATE operation, performed before the run starts).
    pub fn create_key(&mut self, key: impl Into<Key>, config: Configuration, initial_value: &Value) {
        let key = key.into();
        if let Some(recorder) = &self.recorder {
            recorder.register_key(key.as_str(), fingerprint(initial_value.as_bytes()));
        }
        self.world.create_key(key, config, initial_value);
    }

    /// Schedules a single client request at virtual time `at_ms`.
    pub fn schedule_request(&mut self, at_ms: f64, origin: DcId, kind: OpKind, key: impl Into<Key>, value_size: u64) {
        self.schedule_event(at_ms, Event::StartRequest { origin, kind, key: key.into(), value_size });
    }

    /// Schedules every request of a workload trace; `key_of` maps the trace's key index to a
    /// key name. It is called once per distinct index, and the requests on one key share
    /// its name.
    pub fn schedule_trace<F: Fn(usize) -> String>(
        &mut self,
        trace: &[legostore_workload::Request],
        offset_ms: f64,
        key_of: F,
    ) {
        let mut keys: HashMap<usize, Key> = HashMap::new();
        for r in trace {
            let key = keys.entry(r.key_index).or_insert_with(|| Key::new(key_of(r.key_index)));
            self.schedule_request(offset_ms + r.time_ms, r.origin, r.kind, key.clone(), r.object_size);
        }
    }

    /// Schedules a reconfiguration of `key` to `new_config` at `at_ms` (the controller reads
    /// the old configuration from the metadata service when the event fires).
    pub fn schedule_reconfig(&mut self, at_ms: f64, key: impl Into<Key>, new_config: Configuration) {
        self.schedule_event(at_ms, Event::StartReconfig { key: key.into(), new_config });
    }

    /// Schedules a whole-DC failure at `at_ms`.
    pub fn schedule_failure(&mut self, at_ms: f64, dc: DcId) {
        self.schedule_event(at_ms, Event::SetDcFailed { dc, failed: true });
    }

    /// Schedules a DC recovery at `at_ms`.
    pub fn schedule_recovery(&mut self, at_ms: f64, dc: DcId) {
        self.schedule_event(at_ms, Event::SetDcFailed { dc, failed: false });
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Events are handled in `(instant, seq)` order, `seq` being the order in which they
    /// were pushed, so equal instants keep the order of the `schedule_*` calls and of the
    /// sends. The events scheduled before the run are sorted once, here, rather than
    /// each paying for a place in a heap.
    pub fn run(mut self) -> SimReport {
        self.queue.start();
        while let Some((t_us, _, event)) = self.queue.pop() {
            self.now_us = t_us;
            self.handle_event(event);
        }
        SimReport {
            operations: self.records,
            cost: self.cost,
            end_time_ms: self.now_us as f64 / 1000.0,
            reconfig_durations_ms: self.reconfig_durations,
            histories: self.recorder,
        }
    }

    /// The event queue's microsecond for `at_ms` (negative times clamp to 0).
    fn instant_us(at_ms: f64) -> u64 {
        (at_ms.max(0.0) * 1000.0).round() as u64
    }

    /// Queues a pre-run event on the agenda.
    fn schedule_event(&mut self, at_ms: f64, event: Event) {
        self.queue.schedule(Self::instant_us(at_ms), event);
    }

    /// Queues an event raised during the run (a delivery, a reconfiguration tick or a
    /// reopen pause) on the heap.
    fn push_event(&mut self, at_ms: f64, event: Event) {
        self.queue.push(Self::instant_us(at_ms), event);
    }

    fn meter(&mut self, from: DcId, to: DcId, bytes: u64, class: TrafficClass) {
        let dollars = self.model.transfer_cost(from, to, bytes);
        self.cost.bytes_moved += bytes;
        match class {
            TrafficClass::Get => self.cost.get_network += dollars,
            TrafficClass::Put => self.cost.put_network += dollars,
            TrafficClass::Reconfig => self.cost.reconfig_network += dollars,
        }
    }

    /// The fault plan's verdict on one message on the `from → to` link, drawn now: `None`
    /// if it is dropped, otherwise `(copies, extra_delay_ms)`.
    fn deliveries(&mut self, from: DcId, to: DcId) -> Option<(u32, f64)> {
        let Some(state) = &mut self.faults else { return Some((1, 0.0)) };
        state.advance_to(self.now_us as f64 / 1000.0);
        state.verdict(from, to).deliveries()
    }

    /// Sends protocol messages from `from` on behalf of route `token`.
    ///
    /// Request-leg fault interposition. Cost is metered once per *logical* send: the
    /// sender pays for its egress exactly once, and both dropping and duplication
    /// happen downstream of that billed egress (a dropped message was still sent; a
    /// network-duplicated one was not sent twice). Extra fault delay is applied on the
    /// reply leg only, mirroring `legostore-core`, which models the whole round trip
    /// on the reply side.
    fn send_outbound(&mut self, token: u64, from: DcId, msgs: Vec<Outbound>) {
        let (_, class) = endpoint(token);
        for out in msgs {
            let bytes = out.msg.wire_size(METADATA_BYTES);
            self.meter(from, out.to, bytes, class);
            let Some((copies, _)) = self.deliveries(from, out.to) else { continue };
            let delay_ms = self.model.latency_ms(from, out.to)
                + self.model.transfer_time_ms(from, out.to, bytes);
            let to = out.to;
            let inbound = Inbound { msg_id: self.queue.seq, ..Inbound::new(token, out) };
            for _ in 1..copies {
                self.push_event(self.now_ms() + delay_ms, Event::DeliverToServer { to, inbound: inbound.clone() });
            }
            self.push_event(self.now_ms() + delay_ms, Event::DeliverToServer { to, inbound });
        }
    }

    /// Serves a request at `to` and sends its replies back. Reply-leg fault
    /// interposition: this is where slow-DC / lossy-link extra delay lands (see
    /// [`Simulation::send_outbound`]).
    fn serve(&mut self, to: DcId, inbound: Inbound) {
        for reply in self.world.deliver_request(to, inbound, self.now_us * 1000) {
            let (dest_dc, class) = endpoint(reply.to);
            let bytes = reply.reply.wire_size(METADATA_BYTES);
            self.meter(to, dest_dc, bytes, class);
            let Some((copies, extra_ms)) = self.deliveries(to, dest_dc) else { continue };
            let delay_ms = self.model.latency_ms(to, dest_dc)
                + self.model.transfer_time_ms(to, dest_dc, bytes)
                + extra_ms;
            // Clone only for duplicated deliveries; the common single-copy case moves the
            // reply (CAS shards carry real payloads).
            for _ in 1..copies {
                self.push_event(self.now_ms() + delay_ms, Event::DeliverReply { from: to, reply: reply.clone() });
            }
            self.push_event(self.now_ms() + delay_ms, Event::DeliverReply { from: to, reply });
        }
    }

    fn handle_event(&mut self, event: Event) {
        let now_ns = self.now_us * 1000;
        let step = match event {
            Event::StartRequest { origin, kind, key, value_size } => {
                return self.start_request(origin, kind, key, value_size);
            }
            Event::DeliverToServer { to, inbound } => return self.serve(to, inbound),
            Event::DeliverReply { from, reply } => self.world.deliver_reply(from, reply, now_ns),
            Event::OpTimeout { token } => self.world.time_out(token),
            Event::OpenAttempt { token } => self.world.reopen(token),
            Event::ReconfigTick { token } => {
                if let Some(step) = self.world.tick(token, now_ns) {
                    self.carry_out(step);
                }
                return self.arm_reconfig_tick(token);
            }
            Event::StartReconfig { key, new_config } => {
                let Some(step) = self.world.start_reconfig(key, new_config, now_ns) else { return };
                let token = step.route;
                self.carry_out(step);
                return self.arm_reconfig_tick(token);
            }
            Event::SetDcFailed { dc, failed } => return self.world.set_failed(dc, failed),
        };
        if let Some(step) = step {
            self.carry_out(step);
        }
    }

    fn start_request(&mut self, origin: DcId, kind: OpKind, key: Key, value_size: u64) {
        let meta = OpMeta { start_ms: self.now_ms(), object_bytes: value_size };
        let recording = self.recorder.is_some();
        let value_of = |token: u64| match kind {
            // While recording histories, stamp the payload with the operation token
            // (same length — truncating the stamp for tiny payloads — so latency and
            // cost accounting are identical with recording on or off): distinct writes
            // must have distinct fingerprints or the linearizability check is vacuous.
            OpKind::Put if recording => {
                let mut bytes = vec![0xABu8; value_size as usize];
                let stamp = (value_size as usize).min(8);
                bytes[..stamp].copy_from_slice(&token.to_le_bytes()[..stamp]);
                Some(Value::from(bytes))
            }
            OpKind::Put => Some(Value::filler(value_size as usize)),
            OpKind::Get => None,
        };
        match self.world.start_op(origin, key, value_of, meta) {
            Ok(step) => self.carry_out(step),
            // Key unknown anywhere: record an immediate failure.
            Err(key) => {
                self.finish_op(origin, OpInfo { key, kind, id: 0, redirects: 0, timeouts: 0, meta }, None);
            }
        }
    }

    /// Does what a driver's step asks of the host: moves its messages, arms an opened
    /// attempt's timer, pauses before a reopen, records a finished operation and measures
    /// a reconfiguration up to its publication.
    fn carry_out(&mut self, Tagged { route, from, step }: Tagged<OpMeta>) {
        match step {
            Out::Opened(msgs) => {
                self.send_outbound(route, from, msgs);
                let at_us = Self::instant_us(self.now_ms() + self.options.op_timeout_ms);
                self.queue.push_timer(at_us, route);
            }
            Out::Send(msgs) => self.send_outbound(route, from, msgs),
            // Hosts own the modelled pauses: learning the new configuration costs one
            // RTT to the controller's metadata service.
            Out::Reopen(RetryCause::Redirect) => {
                let pause_ms = self.model.rtt_ms(from, CONTROLLER_DC).max(1.0);
                self.push_event(self.now_ms() + pause_ms, Event::OpenAttempt { token: route });
            }
            Out::Reopen(_) => {
                if let Some(step) = self.world.reopen(route) {
                    self.carry_out(step);
                }
            }
            Out::Done(op, done) => self.finish_op(from, op, done),
            Out::Published { started_ns, finish } => {
                self.reconfig_durations.push(self.now_ms() - started_ns as f64 / 1e6);
                self.send_outbound(route, from, finish);
            }
        }
    }

    /// Records the finished operation and, when it succeeded, its history entry. Failed
    /// operations are never entered into a history, matching the threaded runtime: an
    /// operation without a response has no place in a completed-operation history.
    fn finish_op(&mut self, origin: DcId, op: OpInfo<OpMeta>, done: Option<Completed>) {
        let kind = op.kind;
        if let (Some(recorder), Some(done)) = (&self.recorder, &done) {
            let invoke_us = (op.meta.start_ms * 1000.0).round() as u64;
            let ret_us = self.now_us.max(invoke_us);
            let fp = fingerprint(done.value.as_bytes());
            let id = op.id as u32;
            match kind {
                OpKind::Get => recorder.record_get(op.key.as_str(), id, fp, invoke_us, ret_us),
                OpKind::Put => recorder.record_put(op.key.as_str(), id, fp, invoke_us, ret_us),
            }
        }
        self.records.push(OpRecord {
            origin,
            kind,
            key: op.key,
            start_ms: op.meta.start_ms,
            end_ms: self.now_ms(),
            ok: done.is_some(),
            one_phase: done.is_some_and(|d| d.one_phase),
            reconfig_retries: op.redirects,
            timeout_retries: op.timeouts,
            object_bytes: op.meta.object_bytes,
        });
    }

    /// Schedules the next `tick` of a still-running reconfiguration at its driver's
    /// wake-up time (rounded up to the event queue's microsecond, never early).
    fn arm_reconfig_tick(&mut self, token: u64) {
        if let Some(wake_ns) = self.world.reconfig_wake_ns(token) {
            let wake_us = wake_ns.div_ceil(1000);
            self.push_event(wake_us as f64 / 1000.0, Event::ReconfigTick { token });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use legostore_cloud::{CloudModel, GcpLocation};
    use legostore_types::{ClientId, ConfigEpoch, Tag};

    fn gcp() -> CloudModel {
        CloudModel::gcp9()
    }

    fn abd3_config() -> Configuration {
        Configuration::abd_majority(
            vec![
                GcpLocation::Tokyo.dc(),
                GcpLocation::LosAngeles.dc(),
                GcpLocation::Oregon.dc(),
            ],
            1,
        )
    }

    fn cas53_config() -> Configuration {
        Configuration::cas_default(
            vec![
                GcpLocation::Singapore.dc(),
                GcpLocation::Frankfurt.dc(),
                GcpLocation::Virginia.dc(),
                GcpLocation::LosAngeles.dc(),
                GcpLocation::Oregon.dc(),
            ],
            3,
            1,
        )
    }

    #[test]
    fn single_put_and_get_latencies_match_rtt_expectations() {
        let mut sim = Simulation::new(gcp());
        sim.create_key("k", abd3_config(), &Value::filler(1024));
        let tokyo = GcpLocation::Tokyo.dc();
        sim.schedule_request(0.0, tokyo, OpKind::Put, "k", 1024);
        sim.schedule_request(1000.0, tokyo, OpKind::Get, "k", 1024);
        let report = sim.run();
        assert_eq!(report.operations.len(), 2);
        assert!(report.operations.iter().all(|o| o.ok));
        let put = &report.operations[0];
        // ABD PUT = 2 phases; each phase waits for the majority quorum {Tokyo, LA}: ~100 ms
        // RTT each -> ~200 ms total (plus negligible transfer time).
        assert!(put.latency_ms() > 150.0 && put.latency_ms() < 300.0, "{}", put.latency_ms());
        let get = &report.operations[1];
        // Optimized GET completes in one phase after the PUT stabilized the value.
        assert!(get.one_phase);
        assert!(get.latency_ms() < 150.0, "{}", get.latency_ms());
        assert!(report.cost.total() > 0.0);
        assert!(report.cost.put_network > report.cost.get_network);
    }

    #[test]
    fn cas_workload_runs_and_meters_cost() {
        let mut sim = Simulation::new(gcp());
        sim.create_key("k", cas53_config(), &Value::filler(4096));
        let tokyo = GcpLocation::Tokyo.dc();
        for i in 0..20 {
            let kind = if i % 2 == 0 { OpKind::Put } else { OpKind::Get };
            sim.schedule_request(i as f64 * 200.0, tokyo, kind, "k", 4096);
        }
        let report = sim.run();
        assert_eq!(report.operations.len(), 20);
        assert_eq!(report.failures(), 0);
        // 3-phase CAS PUTs are slower than 2-phase GETs on average.
        let puts = report.latency(Some(OpKind::Put), None, None, None);
        let gets = report.latency(Some(OpKind::Get), None, None, None);
        assert!(puts.mean_ms > gets.mean_ms);
        assert!(report.cost.bytes_moved > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let build = || {
            let mut sim = Simulation::new(gcp());
            sim.create_key("k", cas53_config(), &Value::filler(1024));
            for i in 0..10 {
                sim.schedule_request(
                    i as f64 * 50.0,
                    GcpLocation::Sydney.dc(),
                    if i % 3 == 0 { OpKind::Put } else { OpKind::Get },
                    "k",
                    1024,
                );
            }
            sim.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.operations.len(), b.operations.len());
        for (x, y) in a.operations.iter().zip(b.operations.iter()) {
            assert_eq!(x.latency_ms(), y.latency_ms());
        }
        assert_eq!(a.cost.total(), b.cost.total());
    }

    #[test]
    fn reconfiguration_completes_quickly_and_redirects_clients() {
        let mut sim = Simulation::new(gcp());
        sim.create_key("k", cas53_config(), &Value::filler(1024));
        let sydney = GcpLocation::Sydney.dc();
        // Steady trickle of requests before, during and after the reconfiguration.
        for i in 0..40 {
            let kind = if i % 2 == 0 { OpKind::Get } else { OpKind::Put };
            sim.schedule_request(i as f64 * 100.0, sydney, kind, "k", 1024);
        }
        // At t=2s, switch to ABD(3) on Tokyo/Sydney/Singapore.
        let new_config = Configuration::abd_majority(
            vec![
                GcpLocation::Tokyo.dc(),
                GcpLocation::Sydney.dc(),
                GcpLocation::Singapore.dc(),
            ],
            1,
        );
        sim.schedule_reconfig(2000.0, "k", new_config);
        let report = sim.run();
        assert_eq!(report.reconfig_durations_ms.len(), 1);
        // The controller completes within ~4 inter-DC RTTs (< 1.5 s for these distances).
        assert!(
            report.reconfig_durations_ms[0] < 1500.0,
            "reconfig took {} ms",
            report.reconfig_durations_ms[0]
        );
        // All operations eventually succeed, and at least one was failed over to the new
        // configuration (client-visible reconfig retry).
        assert_eq!(report.failures(), 0);
        assert!(report.operations.iter().any(|o| o.reconfig_retries > 0));
        assert!(report.cost.reconfig_network > 0.0);
        // Operations issued well after the reconfiguration hit the new ABD config directly.
        let late = report.latency(None, None, Some(3500.0), None);
        assert!(late.count > 0);
    }

    #[test]
    fn dc_failure_triggers_timeouts_but_operations_survive() {
        let mut sim = Simulation::with_options(
            gcp(),
            SimOptions {
                op_timeout_ms: 800.0,
                ..Default::default()
            },
        );
        let config = cas53_config();
        sim.create_key("k", config.clone(), &Value::filler(1024));
        // Fail Los Angeles (a quorum member) before the requests arrive.
        sim.schedule_failure(0.0, GcpLocation::LosAngeles.dc());
        let virginia = GcpLocation::Virginia.dc();
        for i in 0..10 {
            sim.schedule_request(10.0 + i as f64 * 100.0, virginia, OpKind::Get, "k", 1024);
        }
        let report = sim.run();
        assert_eq!(report.operations.len(), 10);
        // With f=1 tolerance the operations must still succeed, via timeout + widened quorum.
        assert_eq!(report.failures(), 0, "{:?}", report.operations);
        let with_retry = report.operations.iter().filter(|o| o.timeout_retries > 0).count();
        assert!(with_retry > 0, "the failed DC must have forced retries");
        // And their latency is inflated by at least the timeout.
        let slow = report.latency(None, None, None, None);
        assert!(slow.max_ms >= 800.0);
    }

    #[test]
    fn replies_to_a_closed_attempt_are_billed_to_its_operation() {
        // LA, a member of the CAS(5,3) placement, is down: Virginia's GETs time out, widen
        // and finish before their slowest replies arrive. Those stragglers are GET traffic
        // on server → Virginia, not reconfiguration traffic to the controller's DC.
        let mut sim = Simulation::with_options(gcp(), SimOptions { op_timeout_ms: 800.0, ..Default::default() });
        sim.create_key("k", cas53_config(), &Value::filler(1024));
        sim.schedule_failure(0.0, GcpLocation::LosAngeles.dc());
        let virginia = GcpLocation::Virginia.dc();
        for i in 0..10 {
            sim.schedule_request(10.0 + i as f64 * 100.0, virginia, OpKind::Get, "k", 1024);
        }
        let report = sim.run();
        assert!(report.operations.iter().any(|o| o.timeout_retries > 0));
        assert_eq!(report.cost.reconfig_network, 0.0, "{:?}", report.cost);
        assert!(report.cost.get_network > 0.0);

        // A route names its client for good: after its attempt closed and after its
        // operation finished, a reply to it still goes to Virginia, billed as a GET.
        let mut world = World::new(gcp().dc_ids(), 800_000_000, 3);
        world.create_key(Key::from("k"), cas53_config(), &Value::filler(64));
        let first = world.start_op(virginia, Key::from("k"), |_| None, ()).expect("listed").route;
        assert!(matches!(world.time_out(first).map(|t| t.step), Some(Out::Reopen(RetryCause::Timeout))));
        let second = world.reopen(first).expect("closed").route;
        assert_ne!(first, second);
        for route in [first, second] {
            assert_eq!(endpoint(route), (virginia, TrafficClass::Get));
        }
    }

    #[test]
    fn fault_plan_crash_window_is_ridden_out_by_retries() {
        use legostore_types::{FaultEvent, FaultKind};
        let la = GcpLocation::LosAngeles.dc();
        let mut sim = Simulation::with_options(
            gcp(),
            SimOptions {
                op_timeout_ms: 800.0,
                ..Default::default()
            },
        );
        sim.enable_history_recording();
        sim.set_fault_plan(&legostore_types::FaultPlan {
            seed: 9,
            events: vec![
                FaultEvent { at_ms: 100.0, kind: FaultKind::CrashDc { dc: la } },
                FaultEvent { at_ms: 2_500.0, kind: FaultKind::RestartDc { dc: la } },
            ],
        });
        sim.create_key("k", abd3_config(), &Value::filler(512));
        let tokyo = GcpLocation::Tokyo.dc();
        for i in 0..12 {
            let kind = if i % 3 == 0 { OpKind::Put } else { OpKind::Get };
            sim.schedule_request(i as f64 * 400.0, tokyo, kind, "k", 512);
        }
        let report = sim.run();
        assert_eq!(report.operations.len(), 12);
        // f = 1 and one DC crashed: every operation must still complete (liveness)...
        assert_eq!(report.failures(), 0, "{:?}", report.operations);
        // ...some of them only after a timeout-driven widened retry...
        assert!(report.operations.iter().any(|o| o.timeout_retries > 0));
        // ...and the recorded history must be linearizable (safety).
        let histories = report.histories.as_ref().expect("recording enabled");
        assert!(histories.len("k") > 0);
        assert!(histories.check_all().is_empty());
    }

    #[test]
    fn fault_plan_slow_dc_inflates_latency_without_failures() {
        use legostore_types::{FaultEvent, FaultKind};
        let run = |extra_ms: f64| {
            let mut sim = Simulation::new(gcp());
            sim.set_fault_plan(&legostore_types::FaultPlan {
                seed: 1,
                events: vec![FaultEvent {
                    at_ms: 0.0,
                    kind: FaultKind::SlowDc { dc: GcpLocation::LosAngeles.dc(), extra_ms },
                }],
            });
            sim.create_key("k", abd3_config(), &Value::filler(256));
            for i in 0..6 {
                sim.schedule_request(i as f64 * 500.0, GcpLocation::Tokyo.dc(), OpKind::Get, "k", 256);
            }
            sim.run()
        };
        let slow = run(120.0);
        let clean = run(0.0);
        assert_eq!(slow.failures(), 0);
        // LA is in the majority quorum for Tokyo, so its replies gate every phase.
        let slow_mean = slow.latency(None, None, None, None).mean_ms;
        let clean_mean = clean.latency(None, None, None, None).mean_ms;
        assert!(
            slow_mean >= clean_mean + 100.0,
            "slow-DC delay must surface in latency: {slow_mean} vs {clean_mean}"
        );
    }

    #[test]
    fn shard_starved_cas_get_is_not_counted_as_a_reconfig_retry() {
        use legostore_proto::msg::ProtoMsg;
        let mut sim = Simulation::new(gcp());
        let config = cas53_config();
        sim.create_key("k", config.clone(), &Value::filler(1024));
        // Finalize a tag nobody pre-wrote: every server now reports it as the highest
        // finalized version but holds no coded element of it, so a GET's finalize-read
        // gathers zero of the k = 3 symbols — the retryable `DecodeFailed`.
        let tag = Tag::new(9, ClientId(99));
        for dc in &config.dcs {
            let inbound = Inbound {
                from: 0,
                msg_id: 0,
                phase: 3,
                key: Key::from("k"),
                epoch: config.epoch,
                msg: ProtoMsg::CasFinalizeWrite { tag },
            };
            sim.world.deliver_request(*dc, inbound, 0);
        }
        sim.schedule_request(0.0, GcpLocation::Virginia.dc(), OpKind::Get, "k", 1024);
        let report = sim.run();
        let get = &report.operations[0];
        // The driver retries at once with a fresh machine until the attempt budget
        // (max_timeout_retries + 1 = 3) is spent; none of that is a reconfiguration
        // restart or a timeout, and the counters say so.
        assert!(!get.ok);
        assert_eq!((get.reconfig_retries, get.timeout_retries), (0, 0));
        assert!(get.latency_ms() < SimOptions::default().op_timeout_ms, "{}", get.latency_ms());
    }

    /// SplitMix64, the generator behind the workspace's `StdRng` shim.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        /// A draw from `0..n`.
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn event_queue_pops_in_the_order_of_one_binary_heap() {
        const AGENDA: u64 = 0;
        const HEAP: u64 = 1;
        const TIMER: u64 = 2;
        // Timers sit a fixed offset after the current instant, as operation timeouts do.
        const TIMER_OFFSET_US: u64 = 2_000;
        // Instants on a 1 ms grid a few steps apart, so equal instants are common.
        let push = |queue: &mut EventQueue, rng: &mut SplitMix64, now_us: u64, source: u64| {
            let at_us = match source {
                AGENDA => {
                    let at_us = rng.below(50) * 1_000;
                    queue.schedule(at_us, Event::OpenAttempt { token: source });
                    at_us
                }
                HEAP => {
                    let at_us = now_us + rng.below(4) * 1_000;
                    queue.push(at_us, Event::OpenAttempt { token: source });
                    at_us
                }
                _ => {
                    queue.push_timer(now_us + TIMER_OFFSET_US, source);
                    now_us + TIMER_OFFSET_US
                }
            };
            Reverse((at_us, queue.seq))
        };

        let mut rng = SplitMix64(36);
        let mut queue = EventQueue::default();
        let mut reference = BinaryHeap::new();
        // Before the run: the agenda out of time order, interleaved with heap and timer
        // pushes.
        for _ in 0..3_000 {
            let source = rng.below(3);
            reference.push(push(&mut queue, &mut rng, 0, source));
        }
        queue.start();
        let (mut now_us, mut last_source, mut pops) = (0, AGENDA, 0);
        let (mut agenda_heap_ties, mut timer_ties) = (0, 0);
        for step in 0.. {
            let draining = step >= 15_000;
            if draining && reference.is_empty() {
                break;
            }
            if draining || rng.below(2) == 0 {
                let popped = queue.pop();
                assert_eq!(
                    popped.as_ref().map(|&(at_us, seq, _)| (at_us, seq)),
                    reference.pop().map(|Reverse(entry)| entry),
                    "pop {pops}"
                );
                let Some((at_us, _, Event::OpenAttempt { token } | Event::OpTimeout { token })) = popped else {
                    continue;
                };
                let source = token;
                pops += 1;
                if at_us == now_us && source != last_source {
                    if TIMER == source || TIMER == last_source {
                        timer_ties += 1;
                    } else {
                        agenda_heap_ties += 1;
                    }
                }
                (now_us, last_source) = (at_us, source);
            } else {
                let source = HEAP + rng.below(2);
                reference.push(push(&mut queue, &mut rng, now_us, source));
            }
        }
        assert!(queue.pop().is_none());
        assert!(pops >= 10_000, "{pops}");
        // Ties across sources, where only `seq` decides: between the agenda and the heap,
        // and between the timer lane and either of them.
        assert!(agenda_heap_ties >= 100, "{agenda_heap_ties}");
        assert!(timer_ties >= 100, "{timer_ties}");
    }

    #[test]
    fn unknown_key_fails_immediately() {
        let mut sim = Simulation::new(gcp());
        sim.schedule_request(0.0, GcpLocation::Tokyo.dc(), OpKind::Get, "missing", 100);
        let report = sim.run();
        assert_eq!(report.operations.len(), 1);
        assert!(!report.operations[0].ok);
    }

    #[test]
    fn trace_scheduling_and_epoch_bumps() {
        let model = gcp();
        let mut spec = legostore_workload::WorkloadSpec::example();
        spec.arrival_rate = 20.0;
        spec.client_distribution = vec![(GcpLocation::Tokyo.dc(), 1.0)];
        let mut gen = legostore_workload::TraceGenerator::new(spec, 2, 99);
        let trace = gen.generate(2_000.0);
        let mut sim = Simulation::new(model);
        sim.create_key("key-0", abd3_config(), &Value::filler(512));
        sim.create_key("key-1", abd3_config(), &Value::filler(512));
        let calls = std::cell::Cell::new(0);
        sim.schedule_trace(&trace, 0.0, |i| {
            calls.set(calls.get() + 1);
            format!("key-{i}")
        });
        let distinct: std::collections::BTreeSet<_> = trace.iter().map(|r| r.key_index).collect();
        assert_eq!(distinct.len(), 2, "both keys are requested");
        assert!(trace.len() > 2 * distinct.len());
        assert_eq!(calls.get(), distinct.len(), "one name per key, not one per request");
        let report = sim.run();
        assert_eq!(report.operations.len(), trace.len());
        assert_eq!(report.failures(), 0);
        // Epoch of the created keys stays at the initial value (no reconfig scheduled).
        assert_eq!(abd3_config().epoch, ConfigEpoch::INITIAL);
    }
}
