//! The operation driver under a seeded, thread-free, clock-free interleaver.
//!
//! Two closed-loop clients, one reconfiguration controller and three (ABD) or five (CAS)
//! in-memory `DcServer`s share one bag of in-flight messages. Every step the interleaver
//! draws one message from the bag at random and delivers it, drops it, or delivers it
//! and leaves a duplicate behind; now and then it fires an attempt's timeout while
//! replies are still in flight. The only host duties left are the ones `OpDriver` and
//! `ReconfigDriver` assign to a host: route ids per attempt, a step counter for time, a
//! metadata cell. Every seed's history must check linearizable — the first rung of the
//! roadmap's exhaustive small-scope exploration, sampled instead of enumerated.

use legostore::lincheck::recorder::fingerprint;
use legostore::lincheck::{CheckOutcome, History, Operation};
use legostore::proto::msg::{Outbound, ProtoReply};
use legostore::proto::reconfig::{ReconfigDriver, ReconfigStep};
use legostore::proto::server::{DcServer, Inbound};
use legostore::proto::{Host, OpDriver, OpSpec, RetryCause, Step};
use legostore::types::{ClientId, ConfigEpoch, Configuration, DcId, Key, Tag, Value};
use std::collections::HashMap;

const SEEDS: u64 = 600;
const OPS_PER_CLIENT: usize = 12;
/// An attempt's timeout and the controller's resend interval, in interleaver steps.
const TIMEOUT_STEPS: u64 = 60;
/// Route id of the controller.
const CONTROLLER: u64 = 0;

/// SplitMix64: all the randomness a seed stands for.
struct Rng(u64);

impl Rng {
    /// A draw from `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

enum Flight {
    Request { to: DcId, inbound: Inbound },
    Reply { route: u64, from: DcId, phase: u8, epoch: ConfigEpoch, reply: ProtoReply },
    /// The pause a client owes before its next attempt (the metadata round trip).
    Open { client: usize },
}

struct Client {
    dc: DcId,
    /// The running operation, its invocation step and the fingerprint it writes (PUT).
    op: Option<(OpDriver, u64, Option<u64>)>,
    /// Route of the open attempt; `None` while the client pauses between attempts.
    route: Option<u64>,
    deadline: u64,
    issued: usize,
    cache: Option<(Tag, Value)>,
}

struct World {
    rng: Rng,
    now: u64,
    next_route: u64,
    servers: HashMap<DcId, DcServer>,
    bag: Vec<Flight>,
    metadata: Configuration,
    history: History,
    completed: usize,
}

impl World {
    fn send(&mut self, route: u64, msgs: Vec<Outbound>) {
        for out in msgs {
            self.bag.push(Flight::Request { to: out.to, inbound: Inbound::new(route, out) });
        }
    }

    /// Opens an attempt: a fresh route (replies to any earlier one now find nobody), a
    /// fresh deadline, the driver's messages.
    fn open(&mut self, client: &mut Client) {
        let route = self.next_route;
        self.next_route += 1;
        client.route = Some(route);
        client.deadline = self.now + TIMEOUT_STEPS;
        let (driver, ..) = client.op.as_mut().expect("an operation is running");
        let msgs = driver.open_attempt(&Host { now_ns: &|| 0, metadata: &|| None, cache: &|| None });
        self.send(route, msgs);
    }

    fn issue(&mut self, client: &mut Client, index: usize) {
        let put = self.rng.below(2) == 0;
        let value = put.then(|| Value::from(format!("c{index}-op{}", client.issued).as_str()));
        let spec = OpSpec {
            key: Key::from("k"),
            client_dc: client.dc,
            client_id: ClientId(index as u32 + 1),
                max_attempts: 8,
        };
        let fp = value.as_ref().map(|v| fingerprint(v.as_bytes()));
        let host = Host { now_ns: &|| 0, metadata: &|| None, cache: &|| client.cache.clone() };
        let driver = OpDriver::new(spec, self.metadata.clone(), value, None, &host);
        client.op = Some((driver, self.now, fp));
        client.issued += 1;
        self.open(client);
    }

    fn apply(&mut self, client: &mut Client, index: usize, step: Step) {
        match step {
            Step::Wait => {}
            Step::Send(msgs) => self.send(client.route.expect("attempt open"), msgs),
            Step::Reopen(cause) => {
                client.route = None;
                if cause == RetryCause::Redirect {
                    self.bag.push(Flight::Open { client: index });
                } else {
                    self.open(client);
                }
            }
            Step::Done(result) => {
                let (_, invoked, put_fp) = client.op.take().expect("an operation is running");
                client.route = None;
                match (result, put_fp) {
                    (Ok(done), None) => {
                        let fp = fingerprint(done.value.as_bytes());
                        self.history.push(Operation::read(index as u32, fp, invoked, self.now));
                        client.cache = Some((done.tag, done.value));
                        self.completed += 1;
                    }
                    (Ok(done), Some(fp)) => {
                        self.history.push(Operation::write(index as u32, fp, invoked, self.now));
                        client.cache = Some((done.tag, done.value));
                        self.completed += 1;
                    }
                    // A PUT that gave up may still have landed somewhere: it stays
                    // pending forever, free to take effect at any later point or never.
                    (Err(_), Some(fp)) => {
                        self.history.push(Operation::write(index as u32, fp, invoked, u64::MAX));
                    }
                    (Err(_), None) => {}
                }
            }
        }
    }
}

/// One seed: returns the checked history's verdict and how many operations completed.
fn run(seed: u64) -> (CheckOutcome, usize) {
    let abd = Configuration::abd_majority((0..3).map(DcId).collect(), 1);
    let cas = Configuration::cas_default((0..5).map(DcId).collect(), 3, 1);
    let (old, new) = if seed % 2 == 0 { (abd, cas) } else { (cas, abd) };
    let initial = Value::from("initial");
    let mut servers: HashMap<DcId, DcServer> = (0..5)
        .map(|i| {
            let mut server = DcServer::new(DcId(i));
            server.set_epoch_lease_ns(TIMEOUT_STEPS * 16);
            (DcId(i), server)
        })
        .collect();
    for (dc, payload) in DcServer::initial_payloads(&old, &initial) {
        servers.get_mut(&dc).unwrap().install_key(Key::from("k"), old.clone(), Tag::INITIAL, payload);
    }
    let mut world = World {
        rng: Rng(seed),
        now: 0,
        next_route: CONTROLLER + 1,
        servers,
        bag: Vec::new(),
        metadata: old.clone(),
        history: History::new(fingerprint(initial.as_bytes())),
        completed: 0,
    };
    let mut clients: Vec<Client> = [DcId(0), DcId(2)]
        .into_iter()
        .map(|dc| Client { dc, op: None, route: None, deadline: 0, issued: 0, cache: None })
        .collect();
    let reconfig_at = 5 + world.rng.below(115);
    let mut controller: Option<ReconfigDriver> = None;
    let mut reconfigured = false;

    loop {
        world.now += 1;
        for (index, client) in clients.iter_mut().enumerate() {
            if client.op.is_none() && client.issued < OPS_PER_CLIENT {
                world.issue(client, index);
            }
        }
        if !reconfigured && world.now >= reconfig_at {
            reconfigured = true;
            let driver = ReconfigDriver::new(
                Key::from("k"),
                world.metadata.clone(),
                new.clone(),
                TIMEOUT_STEPS,
                world.now,
            );
            world.send(CONTROLLER, driver.start());
            controller = Some(driver);
        }
        if clients.iter().all(|c| c.op.is_none()) && controller.is_none() && reconfigured {
            break;
        }

        // Timers: a due (or, rarely, an early) attempt timeout; the controller's tick.
        for (index, client) in clients.iter_mut().enumerate() {
            let early = world.rng.below(100) == 0;
            if client.route.is_some() && (early || world.now >= client.deadline) {
                let (driver, ..) = client.op.as_mut().expect("attempt open");
                let listed = world.metadata.clone();
                let cached = client.cache.clone();
                let host = Host { now_ns: &|| 0, metadata: &|| Some(listed.clone()), cache: &|| cached.clone() };
                let step = driver.on_timeout(&host);
                world.apply(client, index, step);
            }
        }
        if let Some(driver) = controller.as_mut().filter(|d| world.now >= d.wake_ns()) {
            let step = driver.tick(world.now);
            reconfig_step(&mut world, &mut controller, step);
        }

        // The network: one flight, chosen at random; 5% lost, 5% duplicated.
        if world.bag.is_empty() {
            continue;
        }
        let pick = world.rng.below(world.bag.len() as u64) as usize;
        let flight = world.bag.swap_remove(pick);
        let fate = world.rng.below(100);
        if fate < 5 && !matches!(flight, Flight::Open { .. }) {
            continue;
        }
        match flight {
            Flight::Open { client } => {
                let client = &mut clients[client];
                world.open(client);
            }
            Flight::Request { to, inbound } => {
                if fate < 10 {
                    world.bag.push(Flight::Request { to, inbound: inbound.clone() });
                }
                let replies = world.servers.get_mut(&to).unwrap().handle_at(inbound, world.now);
                for r in replies {
                    world.bag.push(Flight::Reply {
                        route: r.to,
                        from: to,
                        phase: r.phase,
                        epoch: r.epoch,
                        reply: r.reply,
                    });
                }
            }
            Flight::Reply { route, from, phase, epoch, reply } => {
                if fate < 10 {
                    world.bag.push(Flight::Reply { route, from, phase, epoch, reply: reply.clone() });
                }
                if route == CONTROLLER {
                    if let Some(driver) = controller.as_mut() {
                        let step = driver.on_reply(from, phase, reply, world.now);
                        reconfig_step(&mut world, &mut controller, step);
                    }
                } else if let Some(index) = clients.iter().position(|c| c.route == Some(route)) {
                    let client = &mut clients[index];
                    let (driver, ..) = client.op.as_mut().expect("attempt open");
                    let listed = world.metadata.clone();
                    let cached = client.cache.clone();
                let host = Host { now_ns: &|| 0, metadata: &|| Some(listed.clone()), cache: &|| cached.clone() };
                    let step = driver.on_reply(from, phase, epoch, 0, reply, &host);
                    world.apply(client, index, step);
                }
            }
        }
    }
    (world.history.check(), world.completed)
}

fn reconfig_step(world: &mut World, controller: &mut Option<ReconfigDriver>, step: ReconfigStep) {
    match step {
        ReconfigStep::Wait => {}
        ReconfigStep::Send(msgs) => world.send(CONTROLLER, msgs),
        ReconfigStep::Publish { new_config, finish } => {
            world.metadata = *new_config;
            world.send(CONTROLLER, finish);
        }
        ReconfigStep::Done(_) => *controller = None,
    }
}

#[test]
fn every_interleaving_of_two_drivers_and_a_reconfiguration_is_linearizable() {
    let started = std::time::Instant::now();
    let mut completed = 0;
    for seed in 0..SEEDS {
        let (verdict, done) = run(seed);
        assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
        completed += done;
    }
    // Drops, duplicates and early timeouts are survivable: (nearly) everything completes.
    let issued = SEEDS as usize * 2 * OPS_PER_CLIENT;
    assert!(completed * 100 >= issued * 98, "{completed} of {issued} operations completed");
    assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
}
