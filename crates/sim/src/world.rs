//! The simulated world, one input at a time.
//!
//! The world is what a geo-distributed deployment holds between two messages: the
//! `DcServer`s, the live `OpDriver`s keyed by the reply route of their current attempt, the
//! live `ReconfigDriver`s, the metadata service, and one `ClientView` per client DC, which
//! that DC's clients share. [`World`] applies one input and hands back what the driver
//! asked for, tagged with its route and the DC its messages leave from. It decides nothing
//! about time or the network: a scheduler chooses the next input, carries the messages and
//! arms the timers. [`Simulation`](crate::Simulation) is one scheduler, an event queue over
//! modelled delays; the seeded interleaver in this file's tests is the other.

use legostore_proto::msg::{Outbound, ProtoReply};
use legostore_proto::reconfig::{ReconfigDriver, ReconfigStep};
use legostore_proto::server::{DcServer, Inbound, Reply};
use legostore_proto::{ClientView, Completed, Host, OpDriver, OpSpec, Retries, RetryCause, Step};
use legostore_types::{ClientId, ConfigEpoch, Configuration, DcId, Key, OpKind, Tag, Value};
use std::collections::HashMap;

/// Where the reconfiguration controller and the authoritative metadata run: Los Angeles in
/// the gcp9 model, where the paper places them.
pub(crate) const CONTROLLER_DC: DcId = DcId(7);

/// Who pays for a route's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrafficClass {
    Get,
    Put,
    Reconfig,
}

/// Bits below a route's serial number: its endpoint's DC (16) and traffic class (2).
const ENDPOINT_BITS: u32 = 18;

/// The DC a reply to `route` goes to, and who pays for it. Both ride in the route itself,
/// so a reply that outlives its attempt, or its operation, is still billed on its own link
/// and class.
pub(crate) fn endpoint(route: u64) -> (DcId, TrafficClass) {
    let class = [TrafficClass::Get, TrafficClass::Put, TrafficClass::Reconfig][(route & 3) as usize];
    (DcId((route >> 2) as u16), class)
}

/// What an operation's driver may ask of the world: no clock (no spans are recorded
/// here), the metadata service, and the last version its origin DC's clients saw.
macro_rules! host {
    ($world:expr, $origin:expr, $key:expr) => {
        Host {
            now_ns: &|| 0,
            metadata: &|| $world.metadata.get($key).cloned(),
            cache: &|| $world.views.get(&$origin).and_then(|view| view.cached($key)),
        }
    };
}

/// What the world knows of an operation besides its driver.
pub(crate) struct OpInfo<M> {
    pub(crate) key: Key,
    pub(crate) kind: OpKind,
    /// Serial number of the first attempt's route: the operation's identity in recorded
    /// histories.
    pub(crate) id: u64,
    /// The scheduler's own record of the operation.
    pub(crate) meta: M,
}

/// One client operation in flight, keyed in the world by its current attempt's route.
struct LiveOp<M> {
    driver: OpDriver,
    info: OpInfo<M>,
    /// True between a `Step::Reopen` and the reopen: the closed attempt's replies and
    /// timer are ignored.
    closed: bool,
}

struct LiveReconfig {
    driver: ReconfigDriver,
    key: Key,
    started_ns: u64,
}

/// What one input asks the scheduler to carry out on `route`, whose messages leave `from`.
pub(crate) struct Tagged<M> {
    pub(crate) route: u64,
    pub(crate) from: DcId,
    pub(crate) step: Out<M>,
}

/// A driver's step, after the world took its share of it.
pub(crate) enum Out<M> {
    /// An operation's attempt opened on the route: send these and arm its timer.
    Opened(Vec<Outbound>),
    /// Send these on the route.
    Send(Vec<Outbound>),
    /// The operation closed its attempt; [`World::reopen`] opens the next, now or after
    /// the pause the cause costs.
    Reopen(RetryCause),
    /// The operation is over, after these retries (`None`: it failed).
    Done(OpInfo<M>, Retries, Option<Completed>),
    /// The reconfiguration published its target configuration; send the finish round.
    Published { started_ns: u64, finish: Vec<Outbound> },
}

/// The world engine; `M` is what the scheduler keeps of each operation.
pub(crate) struct World<M> {
    servers: HashMap<DcId, DcServer>,
    ops: HashMap<u64, LiveOp<M>>,
    reconfigs: HashMap<u64, LiveReconfig>,
    metadata: HashMap<Key, Configuration>,
    views: HashMap<DcId, ClientView>,
    next_route: u64,
    next_client_id: u32,
    op_timeout_ns: u64,
    max_attempts: u32,
}

impl<M> World<M> {
    /// A world of one server per DC in `dcs`. `op_timeout_ns` is the controller's resend
    /// interval; servers hold an epoch lease for twice the controller's give-up horizon.
    /// An operation gives up after `max_attempts` attempts.
    pub(crate) fn new(dcs: impl IntoIterator<Item = DcId>, op_timeout_ns: u64, max_attempts: u32) -> Self {
        let lease_ns = op_timeout_ns * 2 * ReconfigDriver::DEADLINE_TIMEOUTS;
        let servers = dcs
            .into_iter()
            .map(|d| {
                let mut server = DcServer::new(d);
                server.set_epoch_lease_ns(lease_ns);
                (d, server)
            })
            .collect();
        World {
            servers,
            ops: HashMap::new(),
            reconfigs: HashMap::new(),
            metadata: HashMap::new(),
            views: HashMap::new(),
            next_route: 1,
            next_client_id: 1,
            op_timeout_ns,
            max_attempts,
        }
    }

    /// CREATE: installs `key` with `initial` at its placement and lists it at the
    /// metadata service.
    pub(crate) fn create_key(&mut self, key: Key, config: Configuration, initial: &Value) {
        for (dc, payload) in DcServer::initial_payloads(&config, initial) {
            let server = self.servers.get_mut(&dc).expect("dc exists");
            server.install_key(key.clone(), config.clone(), Tag::INITIAL, payload);
        }
        self.metadata.insert(key, config);
    }

    /// The next route serial number.
    fn serial(&mut self) -> u64 {
        self.next_route += 1;
        self.next_route - 1
    }

    /// A route for replies to `dc`, billed to `class`.
    fn route(serial: u64, dc: DcId, class: TrafficClass) -> u64 {
        (serial << ENDPOINT_BITS) | (u64::from(dc.0) << 2) | class as u64
    }

    /// Starts an operation of a client in `origin` on `key` and opens its first attempt:
    /// a PUT of the value `value_of` returns for the operation's id, or a GET if it returns
    /// `None`. `Err` gives `key` back if the metadata service does not list it.
    pub(crate) fn start_op(
        &mut self,
        origin: DcId,
        key: Key,
        value_of: impl FnOnce(u64) -> Option<Value>,
        meta: M,
    ) -> Result<Tagged<M>, Key> {
        let metadata = &self.metadata;
        let view = self.views.entry(origin).or_default();
        let Some(config) = view.config(&key, || metadata.get(&key).cloned()) else { return Err(key) };
        let id = self.serial();
        let spec = OpSpec {
            key: key.clone(),
            client_dc: origin,
            client_id: ClientId(self.next_client_id),
            max_attempts: self.max_attempts,
        };
        self.next_client_id += 1;
        let value = value_of(id);
        let kind = if value.is_some() { OpKind::Put } else { OpKind::Get };
        let driver = OpDriver::new(spec, config, value, None, &host!(self, origin, &key));
        let info = OpInfo { key, kind, id, meta };
        Ok(self.open(id, LiveOp { driver, info, closed: false }))
    }

    /// Opens an attempt of `op` on the route numbered `serial`. Replies and timers
    /// addressed to an earlier route find nothing.
    fn open(&mut self, serial: u64, mut op: LiveOp<M>) -> Tagged<M> {
        op.closed = false;
        let from = op.driver.client_dc();
        let class = if op.info.kind == OpKind::Put { TrafficClass::Put } else { TrafficClass::Get };
        let route = Self::route(serial, from, class);
        let msgs = op.driver.open_attempt(&host!(self, from, &op.info.key));
        self.ops.insert(route, op);
        Tagged { route, from, step: Out::Opened(msgs) }
    }

    /// Moves the closed operation on `route` to a fresh route and opens its next attempt.
    pub(crate) fn reopen(&mut self, route: u64) -> Option<Tagged<M>> {
        let op = self.ops.remove(&route)?;
        let serial = self.serial();
        Some(self.open(serial, op))
    }

    /// Serves one request at DC `to`.
    pub(crate) fn deliver_request(&mut self, to: DcId, inbound: Inbound, now_ns: u64) -> Vec<Reply> {
        self.servers.get_mut(&to).map_or_else(Vec::new, |server| server.handle_at(inbound, now_ns))
    }

    /// Feeds a reply from `from` to the driver listening on its route, if any.
    pub(crate) fn deliver_reply(&mut self, from: DcId, reply: Reply, now_ns: u64) -> Option<Tagged<M>> {
        let Reply { to: route, phase, epoch, reply, .. } = reply;
        if self.ops.contains_key(&route) {
            return self.op_input(route, Some((from, phase, epoch, reply)));
        }
        let rc = self.reconfigs.get_mut(&route)?;
        let step = rc.driver.on_reply(from, phase, reply, now_ns);
        self.reconfig_step(route, step)
    }

    /// Fires the timer of the attempt on `route`, if it is still open.
    pub(crate) fn time_out(&mut self, route: u64) -> Option<Tagged<M>> {
        self.op_input(route, None)
    }

    fn op_input(&mut self, route: u64, reply: Option<(DcId, u8, ConfigEpoch, ProtoReply)>) -> Option<Tagged<M>> {
        let op = self.ops.get_mut(&route).filter(|op| !op.closed)?;
        let from = op.driver.client_dc();
        let host = host!(self, from, &op.info.key);
        let step = match reply {
            Some((dc, phase, epoch, reply)) => op.driver.on_reply(dc, phase, epoch, 0, reply, &host),
            None => op.driver.on_timeout(&host),
        };
        if matches!(step, Step::Reopen(_) | Step::Done(_)) {
            self.views.entry(from).or_default().note(&op.driver, &step);
        }
        let step = match step {
            Step::Wait => return None,
            Step::Send(msgs) => Out::Send(msgs),
            Step::Reopen(cause) => {
                op.closed = true;
                Out::Reopen(cause)
            }
            Step::Done(result) => {
                let LiveOp { driver, info, .. } = self.ops.remove(&route).expect("stepped just now");
                Out::Done(info, driver.retries(), result.ok())
            }
        };
        Some(Tagged { route, from, step })
    }

    /// Starts moving `key` to `new_config`, unless the metadata service does not list it.
    pub(crate) fn start_reconfig(&mut self, key: Key, new_config: Configuration, now_ns: u64) -> Option<Tagged<M>> {
        let old = self.metadata.get(&key)?.clone();
        let driver = ReconfigDriver::new(key.clone(), old, new_config, self.op_timeout_ns, now_ns);
        let msgs = driver.start();
        let route = Self::route(self.serial(), CONTROLLER_DC, TrafficClass::Reconfig);
        self.reconfigs.insert(route, LiveReconfig { driver, key, started_ns: now_ns });
        Some(Tagged { route, from: CONTROLLER_DC, step: Out::Send(msgs) })
    }

    /// When the reconfiguration on `route` must be ticked; `None` once it is over.
    pub(crate) fn reconfig_wake_ns(&self, route: u64) -> Option<u64> {
        self.reconfigs.get(&route).map(|rc| rc.driver.wake_ns())
    }

    /// Ticks the reconfiguration on `route`.
    pub(crate) fn tick(&mut self, route: u64, now_ns: u64) -> Option<Tagged<M>> {
        let rc = self.reconfigs.get_mut(&route)?;
        let step = rc.driver.tick(now_ns);
        self.reconfig_step(route, step)
    }

    /// The world's share of a reconfiguration step: it publishes the metadata when told
    /// to. A stalled transfer leaves the metadata at the old configuration; the blocked
    /// servers re-activate on their epoch lease.
    fn reconfig_step(&mut self, route: u64, step: ReconfigStep) -> Option<Tagged<M>> {
        let step = match step {
            ReconfigStep::Wait => return None,
            ReconfigStep::Send(msgs) => Out::Send(msgs),
            ReconfigStep::Publish { new_config, finish } => {
                let rc = &self.reconfigs[&route];
                self.metadata.insert(rc.key.clone(), *new_config);
                Out::Published { started_ns: rc.started_ns, finish }
            }
            ReconfigStep::Done(_) => {
                self.reconfigs.remove(&route);
                return None;
            }
        };
        Some(Tagged { route, from: CONTROLLER_DC, step })
    }

    /// Fails (or recovers) DC `dc`'s server.
    pub(crate) fn set_failed(&mut self, dc: DcId, failed: bool) {
        if let Some(server) = self.servers.get_mut(&dc) {
            server.set_failed(failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_types::QuorumId;
    use std::sync::Arc;

    fn targets(step: Option<Tagged<()>>) -> Vec<DcId> {
        match step.map(|t| t.step) {
            Some(Out::Opened(msgs)) => msgs.iter().map(|m| m.to).collect(),
            _ => panic!("expected an opened attempt"),
        }
    }

    /// Configurations share their preferred-quorum map, so the §4.5 widening of one timed
    /// out operation must copy it rather than write through to everyone else's.
    #[test]
    fn a_widened_operation_leaves_the_shared_preferred_quorums_alone() {
        let (tokyo, la, oregon) = (DcId(0), DcId(7), DcId(8));
        let mut config = Configuration::abd_majority(vec![tokyo, la, oregon], 1);
        let preferred = vec![vec![tokyo, oregon], vec![tokyo, oregon]];
        Arc::make_mut(&mut config.preferred_quorums).insert(tokyo, preferred.clone());
        let mut copy = config.clone();
        assert!(Arc::ptr_eq(&copy.preferred_quorums, &config.preferred_quorums));
        Arc::make_mut(&mut copy.preferred_quorums).remove(&tokyo);
        assert!(!Arc::ptr_eq(&copy.preferred_quorums, &config.preferred_quorums), "a write copies");
        assert_eq!(config.quorum_for(tokyo, QuorumId::Q1), preferred[0]);

        let key = Key::from("k");
        let mut world = World::new([tokyo, la, oregon], 1_000_000_000, 3);
        world.create_key(key.clone(), config.clone(), &Value::filler(16));
        let opened = world.start_op(tokyo, key.clone(), |_| None, ()).expect("listed");
        let first = opened.route;
        assert_eq!(targets(Some(opened)), preferred[0]);
        let second = world.start_op(tokyo, key.clone(), |_| None, ()).expect("listed").route;
        assert!(matches!(world.time_out(first).map(|t| t.step), Some(Out::Reopen(RetryCause::Timeout))));
        assert_eq!(targets(world.reopen(first)), config.dcs, "the timed-out GET widens");

        // Nobody else saw the widening: not the metadata, not the client's view, not the
        // other operation, nor one started after it. They all still share one map.
        let view = world.views.get_mut(&tokyo).and_then(|view| view.config(&key, || None));
        let view = view.expect("the client DC remembers the key");
        let shared = [&world.metadata[&key], &view, world.ops[&second].driver.config()];
        for seen in shared {
            assert_eq!(seen.quorum_for(tokyo, QuorumId::Q1), preferred[0]);
            assert!(Arc::ptr_eq(&seen.preferred_quorums, &config.preferred_quorums));
        }
        assert_eq!(targets(world.start_op(tokyo, key, |_| None, ()).ok()), preferred[0]);
    }
}

#[cfg(test)]
mod interleaver {
    //! The second scheduler: the drivers under a seeded, thread-free, clock-free interleaver.
    //!
    //! Two closed-loop clients and one reconfiguration controller share a world of five
    //! servers (three host ABD, five host CAS) and one bag of in-flight messages. Every step
    //! the interleaver draws one flight from the bag at random and delivers it, drops it (5 %),
    //! or delivers it and leaves a duplicate behind (5 %); each step a client's open attempt
    //! also times out early with 1 % odds. One ABD↔CAS reconfiguration starts at a random
    //! step. Time is the step counter. Every seed's history must check linearizable: the
    //! small-scope exploration sampled instead of enumerated.

    use super::*;
    use crate::simulation::tests::SplitMix64;
    use legostore_lincheck::recorder::fingerprint;
    use legostore_lincheck::{CheckOutcome, History, Operation};

    const SEEDS: u64 = 600;
    const OPS_PER_CLIENT: usize = 12;
    /// An attempt's timeout and the controller's resend interval, in interleaver steps.
    const TIMEOUT_STEPS: u64 = 60;

    enum Flight {
        Request { to: DcId, inbound: Inbound },
        Reply { from: DcId, reply: Reply },
        /// The metadata round trip a redirected operation owes before its next attempt.
        Open { route: u64 },
    }

    struct Client {
        dc: DcId,
        issued: usize,
        busy: bool,
        /// Route of the open attempt; `None` while the client pauses between attempts.
        route: Option<u64>,
        deadline: u64,
    }

    /// What a seed did, summed over the seeds. Each path must be taken somewhere, or the
    /// run does not test what it claims to.
    #[derive(Default)]
    struct Tally {
        completed: usize,
        redirect_reopens: usize,
        timeout_reopens: usize,
        dropped: usize,
        duplicated: usize,
    }

    /// One seed's scheduler. An operation's `M` is its invocation step and, for a PUT,
    /// the fingerprint it writes.
    struct Run<'t> {
        world: World<(u64, Option<u64>)>,
        /// All the randomness a seed stands for.
        rng: SplitMix64,
        now: u64,
        bag: Vec<Flight>,
        clients: Vec<Client>,
        history: History,
        tally: &'t mut Tally,
    }

    impl Run<'_> {
        fn client(&mut self, dc: DcId) -> (usize, &mut Client) {
            let index = self.clients.iter().position(|c| c.dc == dc).expect("a client's DC");
            (index, &mut self.clients[index])
        }

        fn issue(&mut self, index: usize) {
            let put = self.rng.below(2) == 0;
            let client = &mut self.clients[index];
            let value = put.then(|| Value::from(format!("c{index}-op{}", client.issued).as_str()));
            let meta = (self.now, value.as_ref().map(|v| fingerprint(v.as_bytes())));
            (client.issued, client.busy) = (client.issued + 1, true);
            let dc = client.dc;
            let step = self.world.start_op(dc, Key::from("k"), |_| value, meta);
            self.carry_out(step.expect("the key is listed"));
        }

        fn send(&mut self, route: u64, msgs: Vec<Outbound>) {
            let flights = msgs.into_iter().map(|out| Flight::Request { to: out.to, inbound: Inbound::new(route, out) });
            self.bag.extend(flights);
        }

        fn carry_out(&mut self, Tagged { route, from, step }: Tagged<(u64, Option<u64>)>) {
            match step {
                Out::Opened(msgs) => {
                    let deadline = self.now + TIMEOUT_STEPS;
                    let (_, client) = self.client(from);
                    (client.route, client.deadline) = (Some(route), deadline);
                    self.send(route, msgs);
                }
                Out::Send(msgs) | Out::Published { finish: msgs, .. } => self.send(route, msgs),
                Out::Reopen(cause) => {
                    self.client(from).1.route = None;
                    if cause == RetryCause::Redirect {
                        self.tally.redirect_reopens += 1;
                        self.bag.push(Flight::Open { route });
                    } else {
                        self.tally.timeout_reopens += usize::from(cause == RetryCause::Timeout);
                        let step = self.world.reopen(route).expect("the attempt just closed");
                        self.carry_out(step);
                    }
                }
                Out::Done(op, _, done) => {
                    let now = self.now;
                    let (index, client) = self.client(from);
                    (client.route, client.busy) = (None, false);
                    let ((invoked, put_fp), process) = (op.meta, index as u32);
                    self.tally.completed += usize::from(done.is_some());
                    let recorded = match (done, put_fp) {
                        (Some(done), None) => {
                            Operation::read(process, fingerprint(done.value.as_bytes()), invoked, now)
                        }
                        (Some(_), Some(fp)) => Operation::write(process, fp, invoked, now),
                        // A PUT that gave up may still have landed somewhere: it stays
                        // pending forever, free to take effect at any later point or never.
                        (None, Some(fp)) => Operation::write(process, fp, invoked, u64::MAX),
                        (None, None) => return,
                    };
                    self.history.push(recorded);
                }
            }
        }
    }

    fn run(seed: u64, tally: &mut Tally) -> CheckOutcome {
        let abd = Configuration::abd_majority((0..3).map(DcId).collect(), 1);
        let cas = Configuration::cas_default((0..5).map(DcId).collect(), 3, 1);
        let (old, new) = if seed % 2 == 0 { (abd, cas) } else { (cas, abd) };
        let initial = Value::from("initial");
        let mut world = World::new((0..5).map(DcId), TIMEOUT_STEPS, 8);
        world.create_key(Key::from("k"), old, &initial);
        let clients = [DcId(0), DcId(2)].map(|dc| Client { dc, issued: 0, busy: false, route: None, deadline: 0 });
        let mut run = Run {
            world,
            rng: SplitMix64(seed),
            now: 0,
            bag: Vec::new(),
            clients: clients.into(),
            history: History::new(fingerprint(initial.as_bytes())),
            tally,
        };
        let reconfig_at = 5 + run.rng.below(115);
        let mut controller = None;

        loop {
            run.now += 1;
            for index in 0..run.clients.len() {
                if !run.clients[index].busy && run.clients[index].issued < OPS_PER_CLIENT {
                    run.issue(index);
                }
            }
            if controller.is_none() && run.now >= reconfig_at {
                let step = run.world.start_reconfig(Key::from("k"), new.clone(), run.now);
                let step = step.expect("the key is listed");
                controller = Some(step.route);
                run.carry_out(step);
            }
            let wake = controller.and_then(|route| run.world.reconfig_wake_ns(route));
            if controller.is_some() && wake.is_none() && run.clients.iter().all(|c| !c.busy) {
                return run.history.check();
            }

            // Timers: a due (or, rarely, an early) attempt timeout; the controller's tick.
            for index in 0..run.clients.len() {
                let early = run.rng.below(100) == 0;
                let client = &run.clients[index];
                let due = client.route.filter(|_| early || run.now >= client.deadline);
                if let Some(step) = due.and_then(|route| run.world.time_out(route)) {
                    run.carry_out(step);
                }
            }
            let due = controller.filter(|_| wake.is_some_and(|wake| run.now >= wake));
            if let Some(step) = due.and_then(|route| run.world.tick(route, run.now)) {
                run.carry_out(step);
            }

            // The network: one flight, chosen at random; 5 % lost, 5 % duplicated.
            if run.bag.is_empty() {
                continue;
            }
            let pick = run.rng.below(run.bag.len() as u64) as usize;
            let flight = run.bag.swap_remove(pick);
            let fate = run.rng.below(100);
            if let Flight::Open { route } = flight {
                let step = run.world.reopen(route).expect("the attempt is paused");
                run.carry_out(step);
                continue;
            }
            if fate < 5 {
                run.tally.dropped += 1;
                continue;
            }
            if fate < 10 {
                run.tally.duplicated += 1;
            }
            match flight {
                Flight::Request { to, inbound } => {
                    if fate < 10 {
                        run.bag.push(Flight::Request { to, inbound: inbound.clone() });
                    }
                    let replies = run.world.deliver_request(to, inbound, run.now);
                    run.bag.extend(replies.into_iter().map(|reply| Flight::Reply { from: to, reply }));
                }
                Flight::Reply { from, reply } => {
                    if fate < 10 {
                        run.bag.push(Flight::Reply { from, reply: reply.clone() });
                    }
                    if let Some(step) = run.world.deliver_reply(from, reply, run.now) {
                        run.carry_out(step);
                    }
                }
                Flight::Open { .. } => unreachable!("opened above"),
            }
        }
    }

    #[test]
    fn every_interleaving_of_two_drivers_and_a_reconfiguration_is_linearizable() {
        let started = std::time::Instant::now();
        let mut tally = Tally::default();
        for seed in 0..SEEDS {
            let verdict = run(seed, &mut tally);
            assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
        }
        // Drops, duplicates and early timeouts are survivable: (nearly) everything completes.
        let issued = SEEDS as usize * 2 * OPS_PER_CLIENT;
        let completed = tally.completed;
        assert!(completed * 100 >= issued * 98, "{completed} of {issued} operations completed");
        let paths = [
            ("redirect reopens", tally.redirect_reopens),
            ("timeout reopens", tally.timeout_reopens),
            ("dropped flights", tally.dropped),
            ("duplicated flights", tally.duplicated),
        ];
        println!("{completed} of {issued} operations completed; {paths:?}");
        for (path, count) in paths {
            assert!(count > 0, "no {path} in {SEEDS} seeds");
        }
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
    }
}
