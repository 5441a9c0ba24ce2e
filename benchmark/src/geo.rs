//! The two `geo-*` workloads: the paper's own pipeline — optimizer → placement →
//! protocol over modelled gcp9 round trips → reconfiguration — on the in-process
//! deployment (`geo-core`, virtual clock, closed loop) and on the discrete-event
//! simulator (`geo-sim`, open loop), fed the same planned keys, the same request list
//! and the same reconfiguration schedule.

use crate::load::{
    check_histories, check_stamps, peak_rss_mb, set_up_repeatedly, ReadObservation, ValueFactory,
    WriteLog, INITIAL_WRITER,
};
use crate::report::{Metrics, RunResult};
use crate::stats::{median, midmean_sorted, percentile, percentile_sorted};
use crate::tcp::{GC_EVERY_PUTS, GC_KEEP, SEGMENTS};
use crate::walk::{WalkBed, WalkOp};
use legostore_cloud::CloudModel;
use legostore_core::{Clock, Cluster, ClusterOptions, StoreClient};
use legostore_obs::ObsConfig;
use legostore_optimizer::search::ProtocolFilter;
use legostore_optimizer::{Optimizer, Plan};
use legostore_sim::{SimOptions, SimReport, Simulation};
use legostore_types::{Configuration, DcId, Key, OpKind, ProtocolKind, Value};
use legostore_workload::{basic_workloads, TraceGenerator, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Key groups the optimizer plans.
pub const GROUPS: usize = 24;
/// Reconfigurations per run: eight keys, each moved to the best plan of the other
/// protocol and back.
pub const RECONFIGS: usize = 16;
/// Closed-loop client threads of `geo-core`.
pub const CLIENTS: usize = 2;
/// Offered load one key may carry, req/s; a group gets `ceil(rate / 4)` keys (the
/// campaign engine's rule, which keeps every per-key history cheap to check).
const MAX_RATE_PER_KEY: f64 = 4.0;
/// Per-attempt operation timeout in both runtimes, in modelled ms: above the loosest
/// SLO a group is planned for, so no healthy operation times out.
const OP_TIMEOUT_MS: u64 = 1_500;
/// Least modelled time between two reconfigurations of one key on the simulator: twice
/// the paper's sub-second bound on one.
const SIM_RECONFIG_GAP_MS: f64 = 2_000.0;
/// Requests `geo-core` replays per second of `--seconds` (sized on the baseline box so
/// the replay takes about that long; a constant, so counts depend on `--seconds` only).
pub const CORE_OPS_PER_RUN_SECOND: usize = 2_500;
/// Requests each of `geo-sim`'s five repetitions runs per second of `--seconds`.
pub const SIM_OPS_PER_RUN_SECOND: usize = 3_000;
/// Requests each timed replay of a traced `geo-*` run covers per second of `--seconds`.
pub const TRACED_OPS_PER_RUN_SECOND: usize = 1_000;

/// One planned key group.
pub struct Group {
    /// The workload the group was planned for.
    pub spec: WorkloadSpec,
    /// The optimizer's choice.
    pub plan: Plan,
    /// The best plan of the protocol the optimizer did not choose.
    pub other: Plan,
    /// Global index of the group's first key.
    pub first_key: usize,
    /// Keys in the group.
    pub keys: usize,
    /// Wall ms `Optimizer::optimize` took.
    pub optimize_ms: f64,
    /// Wall ms the single-protocol search for `other` took.
    pub other_ms: f64,
}

/// The planned deployment.
pub struct GeoPlan {
    /// The cloud model planned against.
    pub model: CloudModel,
    /// The key groups.
    pub groups: Vec<Group>,
    /// Key names by global index (`g07/k012`).
    pub keys: Vec<Key>,
    /// Group of each key, by global index.
    pub group_of: Vec<u32>,
}

/// The specs the groups are planned for: a fixed stratified slice of the paper's grid —
/// every 31st of the 378 `basic_workloads` with 1 KiB or 10 KiB objects, twelve at a
/// 300 ms SLO and twelve at 1000 ms. Fixed rather than drawn from `--seed`: the plans
/// set `cost_usd_per_hr` and the modelled latencies, and those must be comparable across
/// seeds (the seed drives the traffic instead).
pub fn group_specs(model: &CloudModel) -> Vec<WorkloadSpec> {
    let mut specs = Vec::with_capacity(GROUPS);
    for (slo, offset) in [(300.0, 5), (1000.0, 17)] {
        let grid: Vec<WorkloadSpec> = basic_workloads(model, slo, slo, 1)
            .into_iter()
            .filter(|s| s.object_size <= 10 * 1024)
            .collect();
        specs.extend(grid.into_iter().skip(offset).step_by(31).take(GROUPS / 2));
    }
    assert_eq!(
        specs.len(),
        GROUPS,
        "the grid is large enough for the stride"
    );
    specs
}

impl GeoPlan {
    /// Plans every group with `Optimizer::optimize`, and the other protocol's best plan
    /// with `optimize_filtered`.
    pub fn new() -> GeoPlan {
        let model = CloudModel::gcp9();
        let optimizer = Optimizer::new(model.clone());
        let mut groups = Vec::with_capacity(GROUPS);
        let mut keys = Vec::new();
        let mut group_of = Vec::new();
        for (g, spec) in group_specs(&model).into_iter().enumerate() {
            let started = Instant::now();
            let plan = optimizer
                .optimize(&spec)
                .expect("every sampled spec is feasible");
            let optimize_ms = started.elapsed().as_secs_f64() * 1e3;
            let filter = match plan.config.protocol {
                ProtocolKind::Abd => ProtocolFilter::CasOnly,
                ProtocolKind::Cas => ProtocolFilter::AbdOnly,
            };
            let started = Instant::now();
            let other = optimizer
                .optimize_filtered(&spec, filter)
                .expect("both protocols are feasible");
            let other_ms = started.elapsed().as_secs_f64() * 1e3;
            let count = (spec.arrival_rate / MAX_RATE_PER_KEY).ceil().max(1.0) as usize;
            let first_key = keys.len();
            for k in 0..count {
                keys.push(Key::new(format!("g{g:02}/k{k:03}")));
                group_of.push(g as u32);
            }
            groups.push(Group {
                spec,
                plan,
                other,
                first_key,
                keys: count,
                optimize_ms,
                other_ms,
            });
        }
        let plan = GeoPlan {
            model,
            groups,
            keys,
            group_of,
        };
        let cas = plan
            .groups
            .iter()
            .filter(|g| g.plan.config.protocol == ProtocolKind::Cas)
            .count();
        assert!(
            cas > 0 && cas < GROUPS,
            "the sample must be planned with both protocols ({cas} CAS)"
        );
        plan
    }

    /// Every key with the group it belongs to, in global index order.
    pub fn keys_with_groups(&self) -> impl Iterator<Item = (usize, &Key, &Group)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(index, key)| (index, key, &self.groups[self.group_of[index] as usize]))
    }

    /// The group `key` (a global index) belongs to.
    pub fn group(&self, key: u32) -> &Group {
        &self.groups[self.group_of[key as usize] as usize]
    }

    /// A value factory large enough for every size the traffic writes (up to 1.5 × the
    /// largest average object size).
    pub fn values(&self) -> ValueFactory {
        let largest = self
            .groups
            .iter()
            .map(|g| g.spec.object_size as usize)
            .max()
            .unwrap_or(0);
        ValueFactory::new(largest * 3 / 2 + 1)
    }

    /// The value `key` (a global index) is installed with.
    pub fn initial_value(&self, values: &ValueFactory, key: usize) -> Value {
        values.make(
            self.group(key as u32).spec.object_size as usize,
            INITIAL_WRITER,
            key as u64,
        )
    }

    /// Σ `Plan::total_cost()` over the groups.
    pub fn cost_usd_per_hr(&self) -> f64 {
        self.groups.iter().map(|g| g.plan.total_cost()).sum()
    }

    /// The `optimizer.*` timing metrics.
    pub fn optimizer_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let n = self.groups.len() as u64;
        let all: Vec<f64> = self.groups.iter().map(|g| g.optimize_ms).collect();
        m.set(
            "optimizer.optimize_ms_per_key",
            all.iter().sum::<f64>() / all.len() as f64,
            n,
        );
        m.set(
            "optimizer.optimize_ms_max",
            all.iter().copied().fold(0.0, f64::max),
            n,
        );
        for (name, protocol) in [
            ("optimizer.abd_only_ms", ProtocolKind::Abd),
            ("optimizer.cas_only_ms", ProtocolKind::Cas),
        ] {
            let v: Vec<f64> = self
                .groups
                .iter()
                .filter(|g| g.other.config.protocol == protocol)
                .map(|g| g.other_ms)
                .collect();
            m.set(
                name,
                v.iter().sum::<f64>() / v.len().max(1) as f64,
                v.len() as u64,
            );
        }
        let cas = self
            .groups
            .iter()
            .filter(|g| g.plan.config.protocol == ProtocolKind::Cas)
            .count();
        m.set(
            "optimizer.cas_chosen_frac",
            cas as f64 / self.groups.len() as f64,
            n,
        );
        m
    }
}

impl Default for GeoPlan {
    fn default() -> Self {
        GeoPlan::new()
    }
}

/// One request of the merged list.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoOp {
    /// Poisson arrival time, ms from the start of the trace (`geo-sim` issues at it;
    /// `geo-core` ignores it).
    pub time_ms: f64,
    /// Global key index.
    pub key: u32,
    /// Data center of the issuing client.
    pub origin: DcId,
    /// GET or PUT.
    pub kind: OpKind,
    /// Bytes written by a PUT: uniform within ±50 % of the group's average object size.
    pub size: u32,
}

/// One scheduled reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReconfig {
    /// Issued when the replay reaches this request index.
    pub at_op: usize,
    /// Global key index.
    pub key: u32,
    /// Target configuration.
    pub to: Configuration,
}

/// The seeded traffic: requests merged over all groups by arrival time, and the
/// reconfiguration schedule.
pub struct Traffic {
    /// The request list.
    pub ops: Vec<GeoOp>,
    /// The reconfigurations, ascending by `at_op`.
    pub reconfigs: Vec<GeoReconfig>,
}

impl Traffic {
    /// Generates `count` requests: each group contributes in proportion to its arrival
    /// rate from its own `TraceGenerator::generate_count`, so the merged trace is the
    /// superposition of the groups' Poisson processes.
    pub fn generate(plan: &GeoPlan, seed: u64, count: usize) -> Traffic {
        let total_rate: f64 = plan.groups.iter().map(|g| g.spec.arrival_rate).sum();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED);
        let mut ops = Vec::with_capacity(count + GROUPS);
        for (g, group) in plan.groups.iter().enumerate() {
            let share = (count as f64 * group.spec.arrival_rate / total_rate).round() as usize;
            let mut generator = TraceGenerator::new(
                group.spec.clone(),
                group.keys,
                seed.wrapping_mul(GROUPS as u64 + 1) + g as u64,
            );
            for r in generator.generate_count(share) {
                let jitter = 0.5 + rng.gen::<f64>();
                ops.push(GeoOp {
                    time_ms: r.time_ms,
                    key: (group.first_key + r.key_index) as u32,
                    origin: r.origin,
                    kind: r.kind,
                    size: ((r.object_size as f64 * jitter) as u32)
                        .max(crate::load::STAMP_BYTES as u32),
                });
            }
        }
        ops.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms).then(a.key.cmp(&b.key)));

        // Eight distinct groups chosen by the seed; each one's busiest key goes to the
        // other protocol's plan and back, at evenly spaced request indices.
        let mut order: Vec<usize> = (0..plan.groups.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut per_key: HashMap<u32, usize> = HashMap::new();
        for op in &ops {
            *per_key.entry(op.key).or_default() += 1;
        }
        // All eight moves to the other protocol first, then the eight moves back, so a
        // key's two reconfigurations are half a run apart and never overlap.
        let mut reconfigs = Vec::with_capacity(RECONFIGS);
        for step in 0..2 {
            for (pair, &g) in order.iter().take(RECONFIGS / 2).enumerate() {
                let group = &plan.groups[g];
                let key = (group.first_key..group.first_key + group.keys)
                    .map(|k| k as u32)
                    .max_by_key(|k| (per_key.get(k).copied().unwrap_or(0), std::cmp::Reverse(*k)))
                    .expect("groups have keys");
                let to = if step == 0 {
                    &group.other.config
                } else {
                    &group.plan.config
                };
                let slot = step * RECONFIGS / 2 + pair + 1;
                reconfigs.push(GeoReconfig {
                    at_op: slot * ops.len() / (RECONFIGS + 1),
                    key,
                    to: to.clone(),
                });
            }
        }
        Traffic { ops, reconfigs }
    }
}

/// Outcome of one replayed request.
#[derive(Debug, Clone, Copy)]
pub struct GeoSample {
    /// Index into the request list.
    pub op: u32,
    /// Modelled latency, ms.
    pub latency_ms: f64,
    /// Wall time of completion, ns after the replay started.
    pub done_wall_ns: u64,
    /// False if the operation returned an error.
    pub ok: bool,
}

/// Everything a replay on either runtime produced.
pub struct Replay {
    /// One sample per request.
    pub samples: Vec<GeoSample>,
    /// Modelled duration of each completed reconfiguration, ms.
    pub reconfig_ms: Vec<f64>,
    /// Wall time of the whole replay.
    pub wall: Duration,
    /// `VmHWM` of the process when the replay ended, before its outputs were checked.
    pub peak_rss_mb: Option<f64>,
    /// Output problems found (histories, stamps, reconfigurations).
    pub problems: Vec<String>,
    /// Operations the linearizability checker went through, and the seconds it took.
    pub checked: (u64, f64),
    /// Operation attempts restarted by a reconfiguration, summed over the clients.
    pub reconfig_restarts: u64,
}

/// The in-process deployment with the plan installed.
pub struct CoreDeployment {
    /// The cluster (virtual clock, full modelled latencies).
    pub cluster: Cluster,
    values: ValueFactory,
}

impl CoreDeployment {
    /// Spawns the nine in-process servers and installs every planned key.
    pub fn start(plan: &GeoPlan, obs: ObsConfig) -> CoreDeployment {
        let cluster = Cluster::new(
            plan.model.clone(),
            ClusterOptions {
                clock: Clock::virtual_time(),
                latency_scale: 1.0,
                op_timeout: Duration::from_millis(OP_TIMEOUT_MS),
                obs,
                ..Default::default()
            },
        );
        let values = plan.values();
        for (index, key, group) in plan.keys_with_groups() {
            let initial = plan.initial_value(&values, index);
            cluster.install_key(key.clone(), group.plan.config.clone(), &initial);
        }
        CoreDeployment { cluster, values }
    }

    /// Replays `traffic` closed-loop on `clients` threads: client `t` issues the requests
    /// whose index is `t` modulo `clients`, each from a `StoreClient` at the request's
    /// origin; client 0 also performs the reconfigurations when it reaches their index.
    pub fn replay(&self, plan: &GeoPlan, traffic: &Traffic, clients: usize) -> Replay {
        let barrier = Barrier::new(clients);
        let puts = AtomicU64::new(0);
        let started = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let (barrier, puts) = (&barrier, &puts);
                    scope.spawn(move || {
                        self.client_loop(plan, traffic, t, clients, barrier, puts, started)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = started.elapsed();
        let peak_rss_mb = peak_rss_mb();
        let mut samples = Vec::with_capacity(traffic.ops.len());
        let mut reads = Vec::new();
        let mut writers: Vec<WriteLog> = Vec::new();
        let mut reconfig_ms = Vec::new();
        let mut problems = Vec::new();
        let mut reconfig_restarts = 0;
        for log in logs {
            samples.extend(log.samples);
            reads.extend(log.reads);
            writers.push(log.writes);
            reconfig_ms.extend(log.reconfig_ms);
            problems.extend(log.problems);
            reconfig_restarts += log.reconfig_restarts;
        }
        samples.sort_by_key(|s| s.op);
        let (found, ops, secs) = check_histories(&self.cluster.recorder());
        problems.extend(found);
        problems.extend(check_stamps(&reads, &writers, |key| {
            plan.group(key).spec.object_size as u32
        }));
        Replay {
            samples,
            reconfig_ms,
            wall,
            peak_rss_mb,
            problems,
            checked: (ops, secs),
            reconfig_restarts,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn client_loop(
        &self,
        plan: &GeoPlan,
        traffic: &Traffic,
        t: usize,
        clients: usize,
        barrier: &Barrier,
        puts: &AtomicU64,
        started: Instant,
    ) -> ClientLog {
        let clock = self.cluster.options().clock.clone();
        let mut at_dc: HashMap<DcId, StoreClient> = HashMap::new();
        let mut log = ClientLog::default();
        let mut next_reconfig = 0;
        barrier.wait();
        // A participant for the whole replay: between two operations this thread is
        // about to send again, and virtual time must not run ahead of it.
        let _participant = clock.enter();
        for (index, op) in traffic.ops.iter().enumerate() {
            if t == 0 {
                while let Some(r) = traffic
                    .reconfigs
                    .get(next_reconfig)
                    .filter(|r| r.at_op <= index)
                {
                    next_reconfig += 1;
                    match self
                        .cluster
                        .reconfigure(plan.keys[r.key as usize].clone(), r.to.clone())
                    {
                        Ok(took) => log.reconfig_ms.push(took.as_secs_f64() * 1e3),
                        Err(e) => log
                            .problems
                            .push(format!("reconfiguration of key {} failed: {e}", r.key)),
                    }
                }
            }
            if index % clients != t {
                continue;
            }
            let client = at_dc
                .entry(op.origin)
                .or_insert_with(|| self.cluster.client(op.origin));
            let key = &plan.keys[op.key as usize];
            let (ok, latency_ns) = match op.kind {
                OpKind::Put => {
                    let value =
                        self.values
                            .make(op.size as usize, t as u64, log.writes.len() as u64);
                    log.writes.push((op.key, value.len() as u32));
                    let invoked = clock.now_ns();
                    let result = client.put(key, value);
                    (result.is_ok(), clock.now_ns() - invoked)
                }
                OpKind::Get => {
                    let invoked = clock.now_ns();
                    let result = client.get(key);
                    let latency = clock.now_ns() - invoked;
                    if let Ok(value) = &result {
                        log.reads.push(ReadObservation {
                            key: op.key,
                            stamp: self.values.read_stamp(value),
                            len: value.len() as u32,
                        });
                    }
                    (result.is_ok(), latency)
                }
            };
            log.samples.push(GeoSample {
                op: index as u32,
                latency_ms: latency_ns as f64 / 1e6,
                done_wall_ns: started.elapsed().as_nanos() as u64,
                ok,
            });
            if op.kind == OpKind::Put
                && (puts.fetch_add(1, Ordering::Relaxed) + 1) % GC_EVERY_PUTS == 0
            {
                self.cluster.garbage_collect(GC_KEEP);
            }
        }
        log.reconfig_restarts = at_dc.values().map(|c| c.stats().reconfig_restarts).sum();
        log
    }
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<GeoSample>,
    writes: WriteLog,
    reads: Vec<ReadObservation>,
    reconfig_ms: Vec<f64>,
    problems: Vec<String>,
    reconfig_restarts: u64,
}

/// Builds the simulator with the plan installed and `traffic` scheduled.
pub fn build_sim(plan: &GeoPlan, traffic: &Traffic) -> Simulation {
    let mut sim = Simulation::with_options(
        plan.model.clone(),
        SimOptions {
            op_timeout_ms: OP_TIMEOUT_MS as f64,
            ..Default::default()
        },
    );
    sim.enable_history_recording();
    for (_, key, group) in plan.keys_with_groups() {
        sim.create_key(
            key.clone(),
            group.plan.config.clone(),
            &Value::filler(group.spec.object_size as usize),
        );
    }
    for op in &traffic.ops {
        sim.schedule_request(
            op.time_ms,
            op.origin,
            op.kind,
            plan.keys[op.key as usize].clone(),
            u64::from(op.size),
        );
    }
    // A reconfiguration starts when the request it is pinned to arrives — but never
    // within `SIM_RECONFIG_GAP_MS` of the same key's previous one, which on a short
    // trace would otherwise still be running (the closed-loop replay cannot overlap
    // them: its controller calls are synchronous).
    let mut last: HashMap<u32, f64> = HashMap::new();
    for r in &traffic.reconfigs {
        let mut at_ms = traffic.ops.get(r.at_op).map_or(0.0, |op| op.time_ms);
        if let Some(previous) = last.get(&r.key) {
            at_ms = at_ms.max(previous + SIM_RECONFIG_GAP_MS);
        }
        last.insert(r.key, at_ms);
        sim.schedule_reconfig(at_ms, plan.keys[r.key as usize].clone(), r.to.clone());
    }
    sim
}

/// Turns a simulator report into a [`Replay`] (call it right after the run: it reads
/// `VmHWM` before checking the histories). The simulator reports operations in completion
/// order and names them by `(origin, kind, key, start time)`, which is matched back to
/// the request list.
pub fn sim_replay(plan: &GeoPlan, traffic: &Traffic, report: &SimReport, wall: Duration) -> Replay {
    let peak_rss_mb = peak_rss_mb();
    let key_index: HashMap<&str, u32> = plan
        .keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i as u32))
        .collect();
    // Requests by (key, kind, origin, start µs) → indices, consumed in order.
    let mut pending: HashMap<(u32, bool, DcId, u64), Vec<u32>> = HashMap::new();
    for (i, op) in traffic.ops.iter().enumerate().rev() {
        let start_us = (op.time_ms.max(0.0) * 1000.0).round() as u64;
        pending
            .entry((op.key, op.kind == OpKind::Put, op.origin, start_us))
            .or_default()
            .push(i as u32);
    }
    let mut problems = Vec::new();
    let mut samples = Vec::with_capacity(report.operations.len());
    let mut restarts = 0;
    for record in &report.operations {
        let start_us = (record.start_ms * 1000.0).round() as u64;
        let slot = key_index
            .get(record.key.as_str())
            .and_then(|k| {
                pending.get_mut(&(*k, record.kind == OpKind::Put, record.origin, start_us))
            })
            .and_then(Vec::pop);
        let Some(op) = slot else {
            problems.push(format!(
                "the simulator reported an operation nobody scheduled: {record:?}"
            ));
            continue;
        };
        restarts += u64::from(record.reconfig_retries);
        samples.push(GeoSample {
            op,
            latency_ms: record.latency_ms(),
            done_wall_ns: 0,
            ok: record.ok,
        });
    }
    samples.sort_by_key(|s| s.op);
    if samples.len() != traffic.ops.len() {
        problems.push(format!(
            "{} of {} scheduled requests completed",
            samples.len(),
            traffic.ops.len()
        ));
    }
    let checked = match &report.histories {
        Some(recorder) => {
            let (found, ops, secs) = check_histories(recorder);
            problems.extend(found);
            (ops, secs)
        }
        None => {
            problems.push("the simulator recorded no histories".into());
            (0, 0.0)
        }
    };
    Replay {
        samples,
        reconfig_ms: report.reconfig_durations_ms.clone(),
        wall,
        peak_rss_mb,
        problems,
        checked,
        reconfig_restarts: restarts,
    }
}

/// The modelled end-to-end figures of a replay, identical in form for both runtimes.
pub struct Modelled {
    /// PUT latencies, ms, sorted ascending.
    pub put_ms: Vec<f64>,
    /// GET latencies, ms, sorted ascending.
    pub get_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Requests over their group's SLO (a failed one counts).
    pub slo_missed: u64,
}

impl Modelled {
    /// Sorts a replay's samples into the figures above.
    pub fn of(plan: &GeoPlan, traffic: &Traffic, replay: &Replay) -> Modelled {
        let mut m = Modelled {
            put_ms: Vec::new(),
            get_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            slo_missed: 0,
        };
        for s in &replay.samples {
            let op = &traffic.ops[s.op as usize];
            let spec = &plan.group(op.key).spec;
            m.attempted += 1;
            let slo = if op.kind == OpKind::Put {
                spec.slo_put_ms
            } else {
                spec.slo_get_ms
            };
            if !s.ok {
                m.failed += 1;
                m.slo_missed += 1;
                continue;
            }
            m.slo_missed += u64::from(s.latency_ms > slo);
            if op.kind == OpKind::Put {
                &mut m.put_ms
            } else {
                &mut m.get_ms
            }
            .push(s.latency_ms);
        }
        m.put_ms.sort_by(f64::total_cmp);
        m.get_ms.sort_by(f64::total_cmp);
        m
    }

    /// Midmean of the PUT (or GET) latencies, ms; 0 when every one of them failed.
    pub fn midmean_ms(&self, put: bool) -> f64 {
        let v = if put { &self.put_ms } else { &self.get_ms };
        if v.is_empty() {
            0.0
        } else {
            midmean_sorted(v)
        }
    }

    /// Nearest-rank percentile of the PUT (or GET) latencies, ms.
    pub fn percentile_ms(&self, put: bool, p: f64) -> f64 {
        let v = if put { &self.put_ms } else { &self.get_ms };
        if v.is_empty() {
            0.0
        } else {
            percentile_sorted(v, p)
        }
    }

    fn fill(&self, metrics: &mut Metrics, plan: &GeoPlan) {
        let n = self.attempted;
        metrics.set(
            "put_mid_ms",
            self.midmean_ms(true),
            self.put_ms.len() as u64,
        );
        metrics.set(
            "get_mid_ms",
            self.midmean_ms(false),
            self.get_ms.len() as u64,
        );
        metrics.set(
            "slo_met_frac",
            1.0 - self.slo_missed as f64 / n.max(1) as f64,
            n,
        );
        metrics.set(
            "cost_usd_per_hr",
            plan.cost_usd_per_hr(),
            plan.groups.len() as u64,
        );
    }
}

/// Checks that the schedule's reconfigurations all completed, in both directions.
fn check_reconfigs(traffic: &Traffic, replay: &Replay) -> Vec<String> {
    let to_cas = traffic
        .reconfigs
        .iter()
        .filter(|r| r.to.protocol == ProtocolKind::Cas)
        .count();
    let to_abd = traffic.reconfigs.len() - to_cas;
    let mut problems = Vec::new();
    if !traffic.reconfigs.is_empty() && (to_cas == 0 || to_abd == 0) {
        problems.push("the schedule does not reconfigure in both directions".into());
    }
    if replay.reconfig_ms.len() != traffic.reconfigs.len() {
        problems.push(format!(
            "{} of {} scheduled reconfigurations completed",
            replay.reconfig_ms.len(),
            traffic.reconfigs.len()
        ));
    }
    problems
}

/// How much an end-to-end `geo-*` run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Requests replayed (`geo-core`), or run per repetition (`geo-sim`).
    pub ops: usize,
    /// Times the set-up is repeated (the median is reported).
    pub setup_reps: usize,
}

/// The end-to-end run of `geo-core`.
pub fn run_core(seed: u64, scale: Scale, process_start: Instant) -> RunResult {
    let ((plan, traffic, dep), setup_s) = set_up_repeatedly(
        scale.setup_reps,
        process_start,
        || {
            let plan = GeoPlan::new();
            let traffic = Traffic::generate(&plan, seed, scale.ops);
            let dep = CoreDeployment::start(&plan, ObsConfig::Off);
            (plan, traffic, dep)
        },
        drop,
    );
    let replay = dep.replay(&plan, &traffic, CLIENTS);
    dep.cluster.shutdown();

    // Five equal request-count segments; a segment ends when its last request completes.
    let mut ends = [0u64; SEGMENTS];
    let mut counts = [0u64; SEGMENTS];
    for s in &replay.samples {
        let seg = (s.op as usize * SEGMENTS / traffic.ops.len()).min(SEGMENTS - 1);
        ends[seg] = ends[seg].max(s.done_wall_ns);
        counts[seg] += 1;
    }
    let mut previous = 0;
    let mut per_segment = Vec::with_capacity(SEGMENTS);
    for (end, count) in ends.into_iter().zip(counts) {
        if count > 0 && end > previous {
            per_segment.push(count as f64 / ((end - previous) as f64 / 1e9));
            previous = end;
        }
    }

    let modelled = Modelled::of(&plan, &traffic, &replay);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
    metrics.set_median("ops_per_s", &per_segment);
    modelled.fill(&mut metrics, &plan);
    metrics.set("peak_rss_mb", replay.peak_rss_mb.unwrap_or(f64::NAN), 1);
    let mut problems = replay.problems.clone();
    problems.extend(check_reconfigs(&traffic, &replay));
    RunResult {
        workload: "geo-core",
        traced: false,
        attempted: modelled.attempted,
        failed: modelled.failed,
        problems,
        metrics,
    }
}

/// The end-to-end run of `geo-sim`: the same simulation [`SEGMENTS`] times over. The
/// modelled figures must come out identical every time; the wall-clock figure is the
/// median.
pub fn run_sim(seed: u64, scale: Scale, process_start: Instant) -> RunResult {
    let ((plan, traffic, first_sim), setup_s) = set_up_repeatedly(
        scale.setup_reps,
        process_start,
        || {
            let plan = GeoPlan::new();
            let traffic = Traffic::generate(&plan, seed, scale.ops);
            let sim = build_sim(&plan, &traffic);
            (plan, traffic, sim)
        },
        drop,
    );
    let mut sim = Some(first_sim);
    let mut per_rep = Vec::new();
    let mut problems = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    for _ in 0..SEGMENTS {
        let this = sim.take().unwrap_or_else(|| build_sim(&plan, &traffic));
        let started = Instant::now();
        let report = this.run();
        let wall = started.elapsed();
        per_rep.push(report.operations.len() as f64 / wall.as_secs_f64());
        fingerprints.push(report.fingerprint());
        last = Some((report, wall));
    }
    if fingerprints.iter().any(|f| *f != fingerprints[0]) {
        problems.push(format!(
            "repetitions of one simulation disagree: {fingerprints:x?}"
        ));
    }
    let (report, wall) = last.expect("at least one repetition");
    let replay = sim_replay(&plan, &traffic, &report, wall);
    problems.extend(replay.problems.iter().cloned());
    problems.extend(check_reconfigs(&traffic, &replay));

    let modelled = Modelled::of(&plan, &traffic, &replay);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
    metrics.set_median("ops_per_s", &per_rep);
    modelled.fill(&mut metrics, &plan);
    metrics.set("peak_rss_mb", replay.peak_rss_mb.unwrap_or(f64::NAN), 1);
    RunResult {
        workload: "geo-sim",
        traced: false,
        attempted: modelled.attempted,
        failed: modelled.failed,
        problems,
        metrics,
    }
}

/// Median relative error of the plans' worst-case latency against the measured
/// modelled 99th percentile, over the groups with at least 20 samples of the kind.
fn model_error(plan: &GeoPlan, traffic: &Traffic, replay: &Replay, put: bool) -> (f64, u64) {
    let mut per_group: Vec<Vec<u64>> = vec![Vec::new(); plan.groups.len()];
    for s in replay.samples.iter().filter(|s| s.ok) {
        let op = &traffic.ops[s.op as usize];
        if (op.kind == OpKind::Put) == put {
            per_group[plan.group_of[op.key as usize] as usize].push((s.latency_ms * 1e6) as u64);
        }
    }
    let errors: Vec<f64> = per_group
        .iter_mut()
        .zip(&plan.groups)
        .filter(|(v, _)| v.len() >= 20)
        .map(|(v, g)| {
            let predicted = if put {
                g.plan.worst_put_latency_ms
            } else {
                g.plan.worst_get_latency_ms
            };
            (percentile(v, 0.99) as f64 / 1e6 - predicted).abs() / predicted
        })
        .collect();
    if errors.is_empty() {
        (0.0, 0)
    } else {
        (median(&errors), errors.len() as u64)
    }
}

/// How much a traced `geo-*` run does.
#[derive(Debug, Clone)]
pub struct TraceScale {
    /// Requests of each timed replay (telemetry off, telemetry on, simulator).
    pub ops: usize,
    /// Requests the walk replays.
    pub walk_ops: usize,
    /// Repetitions of each micro-measurement.
    pub micro_reps: usize,
    /// Whether to time the campaign engine's smoke tier (`geo-sim` only: it is the
    /// engine every campaign cell runs on).
    pub campaign: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: std::path::PathBuf,
}

/// The traced run of a `geo-*` workload. Both workloads go through the same procedure —
/// the walk, a one-client replay, an untraced and a telemetry-on replay on the
/// in-process deployment, and the same requests on the simulator — because the
/// per-layer numbers describe the layers under this traffic, whichever runtime hosts them.
pub fn run_traced(
    workload: &'static str,
    seed: u64,
    scale: &TraceScale,
) -> std::io::Result<RunResult> {
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let plan = GeoPlan::new();
    metrics.extend(plan.optimizer_metrics());
    let traffic = Traffic::generate(&plan, seed, scale.ops);

    // One client, then two, telemetry off.
    let single = Traffic {
        ops: traffic.ops[..traffic.ops.len() / 4].to_vec(),
        reconfigs: Vec::new(),
    };
    let dep = CoreDeployment::start(&plan, ObsConfig::Off);
    let c1 = dep.replay(&plan, &single, 1);
    problems.extend(c1.problems.iter().cloned());
    dep.cluster.shutdown();
    let c1_modelled = Modelled::of(&plan, &single, &c1);
    metrics.set(
        "core.client.c1_put_p50_us",
        c1_modelled.percentile_ms(true, 0.5) * 1e3,
        c1_modelled.put_ms.len() as u64,
    );
    metrics.set(
        "core.client.c1_get_p50_us",
        c1_modelled.percentile_ms(false, 0.5) * 1e3,
        c1_modelled.get_ms.len() as u64,
    );

    let dep = CoreDeployment::start(&plan, ObsConfig::Off);
    let off = dep.replay(&plan, &traffic, CLIENTS);
    dep.cluster.shutdown();
    problems.extend(off.problems.iter().cloned());
    problems.extend(check_reconfigs(&traffic, &off));
    let core = Modelled::of(&plan, &traffic, &off);
    metrics.set(
        "core.client.put_p50_us",
        core.percentile_ms(true, 0.5) * 1e3,
        core.put_ms.len() as u64,
    );
    metrics.set(
        "core.client.get_p50_us",
        core.percentile_ms(false, 0.5) * 1e3,
        core.get_ms.len() as u64,
    );
    metrics.set(
        "core.client.put_p99_us",
        core.percentile_ms(true, 0.99) * 1e3,
        core.put_ms.len() as u64,
    );
    metrics.set(
        "core.client.get_p99_us",
        core.percentile_ms(false, 0.99) * 1e3,
        core.get_ms.len() as u64,
    );
    metrics.set(
        "core.client.fail_frac",
        core.failed as f64 / core.attempted.max(1) as f64,
        core.attempted,
    );
    metrics.set(
        "core.client.slo_miss_frac",
        core.slo_missed as f64 / core.attempted.max(1) as f64,
        core.attempted,
    );
    metrics.set("lincheck.check_ms", off.checked.1 * 1e3, 1);
    metrics.set("lincheck.ops_checked", off.checked.0 as f64, 1);
    metrics.set("proto.client.reconfigs", off.reconfig_ms.len() as f64, 1);
    metrics.set(
        "proto.client.reconfig_p50_ms",
        if off.reconfig_ms.is_empty() {
            0.0
        } else {
            median(&off.reconfig_ms)
        },
        off.reconfig_ms.len() as u64,
    );
    for (name, put) in [
        ("optimizer.model_put_err_frac", true),
        ("optimizer.model_get_err_frac", false),
    ] {
        let (err, n) = model_error(&plan, &traffic, &off, put);
        metrics.set(name, err, n);
    }

    // Telemetry on: the scrape, and what telemetry costs in wall time.
    let dep = CoreDeployment::start(&plan, ObsConfig::Metrics);
    let on = dep.replay(&plan, &traffic, CLIENTS);
    match dep.cluster.stats() {
        Ok(stats) => metrics.extend(crate::scrape::metrics(&stats, traffic.ops.len() as u64)),
        Err(e) => problems.push(format!("stats scrape failed: {e}")),
    }
    dep.cluster.shutdown();
    problems.extend(on.problems.iter().cloned());
    let rate = |r: &Replay| r.samples.len() as f64 / r.wall.as_secs_f64();
    metrics.set("obs.overhead_frac", 1.0 - rate(&on) / rate(&off), 2);
    // The scrape cannot see restarts of the untraced replay; the clients counted them.
    metrics.set(
        "core.client.reconfig_restarts",
        off.reconfig_restarts as f64,
        1,
    );

    // The same requests on the simulator.
    let sim = build_sim(&plan, &traffic);
    let started = Instant::now();
    let report = sim.run();
    let sim_run = sim_replay(&plan, &traffic, &report, started.elapsed());
    problems.extend(sim_run.problems.iter().cloned());
    problems.extend(check_reconfigs(&traffic, &sim_run));
    let simulated = Modelled::of(&plan, &traffic, &sim_run);
    let hours = report.end_time_ms / 3.6e6;
    metrics.set(
        "sim.metered_cost_usd_per_hr",
        if hours > 0.0 {
            report.cost.total() / hours
        } else {
            0.0
        },
        1,
    );
    metrics.set(
        "sim.core_put_mid_delta_ms",
        simulated.midmean_ms(true) - core.midmean_ms(true),
        1,
    );
    metrics.set(
        "sim.core_get_mid_delta_ms",
        simulated.midmean_ms(false) - core.midmean_ms(false),
        1,
    );

    // The walk: no wire codec in the path of either runtime.
    let mut bed = WalkBed::new(plan.model.dc_ids(), false);
    let values = plan.values();
    for (index, key, group) in plan.keys_with_groups() {
        bed.install(
            key.clone(),
            group.plan.config.clone(),
            &plan.initial_value(&values, index),
        );
    }
    let ops: Vec<WalkOp> = traffic
        .ops
        .iter()
        .take(scale.walk_ops)
        .enumerate()
        .map(|(i, op)| WalkOp {
            key: plan.keys[op.key as usize].clone(),
            origin: op.origin,
            put: (op.kind == OpKind::Put).then(|| values.make(op.size as usize, 0, i as u64)),
        })
        .collect();
    bed.run_reported(
        &ops,
        workload,
        seed,
        &scale.out_dir,
        &mut metrics,
        &mut problems,
    )?;
    // Modelled time leaves processor time out, so there is no budget to reconcile and
    // no transport residue on these workloads.
    for name in [
        "core.transport.put_overhead_us",
        "core.transport.get_overhead_us",
        "budget.put_explained_frac",
        "budget.get_explained_frac",
    ] {
        metrics.set(name, 0.0, 0);
    }

    // The codec at the busiest erasure-coded group's parameters.
    let busiest = plan
        .groups
        .iter()
        .filter(|g| g.plan.config.protocol == ProtocolKind::Cas)
        .max_by(|a, b| {
            a.spec
                .arrival_rate
                .total_cmp(&b.spec.arrival_rate)
                .then(b.first_key.cmp(&a.first_key))
        })
        .expect("the plan uses both protocols");
    let sample = values.make(busiest.spec.object_size as usize, 0, 0);
    metrics.extend(crate::micro::erasure(
        sample.as_bytes(),
        busiest.plan.config.n,
        busiest.plan.config.k,
        scale.micro_reps,
    ));
    let (gbps, n) = crate::micro::gf_mul_acc_gbps(scale.micro_reps);
    metrics.set("erasure.gf_mul_acc_gbps", gbps, n);
    if scale.campaign {
        let (cells_per_s, cells, found) = crate::micro::campaign_smoke();
        problems.extend(found);
        metrics.set("campaign.smoke_cells_per_s", cells_per_s, cells);
    } else {
        metrics.set("campaign.smoke_cells_per_s", 0.0, 0);
    }
    let attempted =
        c1_modelled.attempted + core.attempted + traffic.ops.len() as u64 + simulated.attempted;
    let failed = c1_modelled.failed
        + core.failed
        + on.samples.iter().filter(|s| !s.ok).count() as u64
        + simulated.failed;
    Ok(RunResult {
        workload,
        traced: true,
        attempted,
        failed,
        problems,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sample_is_fixed_and_planned_with_both_protocols() {
        let model = CloudModel::gcp9();
        let specs = group_specs(&model);
        assert_eq!(specs.len(), GROUPS);
        assert_eq!(
            specs.iter().filter(|s| s.slo_get_ms == 300.0).count(),
            GROUPS / 2
        );
        assert!(specs
            .iter()
            .all(|s| s.object_size == 1024 || s.object_size == 10 * 1024));
        let names: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.name.as_str()).collect();
        assert!(
            names.len() >= GROUPS - 1,
            "the stride revisits few grid points: {names:?}"
        );
        let plan = GeoPlan::new();
        assert!(plan.cost_usd_per_hr() > 0.0);
        assert_eq!(plan.keys.len(), plan.group_of.len());
        for g in &plan.groups {
            assert_ne!(g.plan.config.protocol, g.other.config.protocol);
            assert!(g.keys as f64 * MAX_RATE_PER_KEY >= g.spec.arrival_rate);
        }
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let plan = GeoPlan::new();
        let a = Traffic::generate(&plan, 7, 600);
        let b = Traffic::generate(&plan, 7, 600);
        let c = Traffic::generate(&plan, 8, 600);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.reconfigs, b.reconfigs);
        assert_ne!(a.ops, c.ops);
        assert!(a.ops.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
        assert!((590..=610).contains(&a.ops.len()), "{}", a.ops.len());
        assert_eq!(a.reconfigs.len(), RECONFIGS);
        assert!(a.reconfigs.windows(2).all(|w| w[0].at_op <= w[1].at_op));
        // Eight keys move to the other protocol, then the same eight move back.
        let (there, back) = a.reconfigs.split_at(RECONFIGS / 2);
        for (t, b) in there.iter().zip(back) {
            assert_eq!(t.key, b.key);
            let g = plan.group(t.key);
            assert_eq!(t.to.protocol, g.other.config.protocol);
            assert_eq!(b.to.protocol, g.plan.config.protocol);
        }
    }
}
