//! The two `tcp-*` workloads: nine `legostore-server` loops on loopback sockets, one
//! `Cluster::connect_tcp` driver, two closed-loop clients at Tokyo, no injected delay
//! (`latency_scale = 0.0`), so every latency is processor plus loopback time.

use crate::load::{
    check_histories, check_stamps, peak_rss_mb, set_up_repeatedly, ReadObservation, ValueFactory,
    WriteLog, INITIAL_WRITER, TCP_SLO_MS,
};
use crate::report::{Metrics, RunResult};
use crate::stats::{median, midmean_sorted, percentile};
use crate::walk::{WalkBed, WalkOp};
use legostore_cloud::{CloudModel, GcpLocation};
use legostore_core::{Cluster, ClusterOptions};
use legostore_obs::ObsConfig;
use legostore_optimizer::cost::cost_of;
use legostore_server::spawn_server_thread;
use legostore_types::{Configuration, DcId, Key, Value};
use legostore_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keys each `tcp-*` workload spreads its operations over (uniformly).
pub const KEYS: usize = 64;
/// Closed-loop client threads. Fixed at the core count of the box the baseline was
/// taken on: more clients would only measure the scheduler.
pub const CLIENTS: usize = 2;
/// Operations run (and discarded) before the first measured one; part of `setup_s`.
pub const WARMUP_OPS: usize = 2_000;
/// Segments a measured window is cut into; wall-clock metrics are medians over them.
pub const SEGMENTS: usize = 5;
/// Whichever client completes the deployment's every 256th PUT asks every server to
/// collect CAS versions. Mandatory: nothing else ever collects them (README.md,
/// "Policies"). Counted deployment-wide, not per client, so the versions that pile up
/// between two collections — and with them the peak memory — do not depend on how the
/// clients' counters happen to interleave.
pub const GC_EVERY_PUTS: u64 = 256;
/// Old versions a collection keeps per key.
pub const GC_KEEP: usize = 2;
/// Arrival rate the cost model is evaluated at for the fixed `tcp-*` configurations.
const NOMINAL_RATE: f64 = 200.0;

/// Which of the two socket workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpWorkload {
    /// Catalog name.
    pub name: &'static str,
    /// CAS(5,3) when true, ABD over 3 replicas otherwise.
    pub cas: bool,
    /// Size of every value in bytes.
    pub value_bytes: usize,
    /// `peak_rss_mb` is read when the measured window has completed this many operations
    /// per second of its length — about two thirds of what the baseline box achieves.
    /// Histories grow with every operation, so memory read at the end of a fixed *time*
    /// would rise with throughput; read at a fixed *count* it does not.
    pub rss_probe_ops_per_second: u64,
}

/// `tcp-cas-100k`: the bulk path.
pub const CAS_100K: TcpWorkload = TcpWorkload {
    name: "tcp-cas-100k",
    cas: true,
    value_bytes: 100 * 1024,
    rss_probe_ops_per_second: 2_000,
};
/// `tcp-abd-1k`: the per-message path.
pub const ABD_1K: TcpWorkload = TcpWorkload {
    name: "tcp-abd-1k",
    cas: false,
    value_bytes: 1024,
    rss_probe_ops_per_second: 7_000,
};

impl TcpWorkload {
    /// The configuration every key of the workload is installed with: the `n` data
    /// centers nearest to Tokyo, `f = 1`.
    pub fn config(&self, model: &CloudModel) -> Configuration {
        let n = if self.cas { 5 } else { 3 };
        let dcs: Vec<DcId> = model
            .nearest_dcs(GcpLocation::Tokyo.dc())
            .into_iter()
            .take(n)
            .collect();
        if self.cas {
            Configuration::cas_default(dcs, 3, 1)
        } else {
            Configuration::abd_majority(dcs, 1)
        }
    }

    /// The workload's keys, by index.
    pub fn keys(&self) -> Vec<Key> {
        (0..KEYS).map(|i| Key::new(format!("k{i:02}"))).collect()
    }

    /// The value key `index` is installed with.
    pub fn initial_value(&self, values: &ValueFactory, index: usize) -> Value {
        values.make(self.value_bytes, INITIAL_WRITER, index as u64)
    }

    /// Hourly cost of serving this workload's keys under [`TcpWorkload::config`], by the
    /// optimizer's cost model at a nominal 200 req/s.
    pub fn modelled_cost_usd_per_hr(&self, model: &CloudModel) -> f64 {
        let spec = WorkloadSpec {
            name: self.name.into(),
            object_size: self.value_bytes as u64,
            metadata_size: legostore_cloud::METADATA_BYTES,
            read_ratio: 0.5,
            arrival_rate: NOMINAL_RATE,
            total_data_bytes: (KEYS * self.value_bytes) as u64,
            client_distribution: vec![(GcpLocation::Tokyo.dc(), 1.0)],
            slo_get_ms: TCP_SLO_MS,
            slo_put_ms: TCP_SLO_MS,
            fault_tolerance: 1,
        };
        cost_of(model, &spec, &self.config(model)).total()
    }
}

/// A running deployment: nine server threads behind sockets plus the connected driver.
pub struct Deployment {
    /// The driver side.
    pub cluster: Cluster,
    servers: Vec<JoinHandle<std::io::Result<()>>>,
    /// The workload's keys, by index.
    pub keys: Vec<Key>,
    workload: TcpWorkload,
    values: ValueFactory,
    /// Write logs of every client that has run on this deployment, by writer id.
    writers: Vec<WriteLog>,
    reads: Vec<ReadObservation>,
    /// PUTs completed by all clients, for the collection cadence.
    puts: AtomicU64,
    /// Operations completed in the current pass, and the count at which to read `VmHWM`.
    pass_ops: AtomicU64,
    rss_probe: (u64, Mutex<Option<f64>>),
    /// Operations issued so far (warm-up included), for per-op server counters.
    pub ops_issued: u64,
    /// Operations that returned an error so far.
    pub failed: u64,
}

impl Deployment {
    /// Spawns the servers, connects, and installs the keys.
    pub fn start(workload: TcpWorkload, obs: ObsConfig) -> Deployment {
        let model = CloudModel::gcp9();
        let mut addrs: HashMap<DcId, SocketAddr> = HashMap::new();
        let mut servers = Vec::new();
        for dc in model.dc_ids() {
            let (addr, handle) = spawn_server_thread(dc).expect("bind a loopback listener");
            addrs.insert(dc, addr);
            servers.push(handle);
        }
        let config = workload.config(&model);
        let options = ClusterOptions {
            latency_scale: 0.0,
            op_timeout: Duration::from_secs(5),
            obs,
            ..Default::default()
        };
        let cluster = Cluster::connect_tcp(model, options, &addrs).expect("connect to the servers");
        let values = ValueFactory::new(workload.value_bytes);
        let keys = workload.keys();
        for (i, key) in keys.iter().enumerate() {
            cluster.install_key(
                key.clone(),
                config.clone(),
                &workload.initial_value(&values, i),
            );
        }
        Deployment {
            cluster,
            servers,
            keys,
            workload,
            values,
            writers: Vec::new(),
            reads: Vec::new(),
            puts: AtomicU64::new(0),
            pass_ops: AtomicU64::new(0),
            rss_probe: (0, Mutex::new(None)),
            ops_issued: 0,
            failed: 0,
        }
    }

    /// Runs `clients` closed-loop threads until `stop`, each choosing keys uniformly and
    /// PUT or GET with equal probability from its own generator seeded by `seed`.
    pub fn run_pass(&mut self, clients: usize, seed: u64, stop: Stop) -> Pass {
        self.run_pass_probing(clients, seed, stop, 0)
    }

    /// [`Deployment::run_pass`], reading `VmHWM` when the pass completes its
    /// `probe_at`-th operation (at the end of the pass if it never gets that far).
    pub fn run_pass_probing(
        &mut self,
        clients: usize,
        seed: u64,
        stop: Stop,
        probe_at: u64,
    ) -> Pass {
        self.pass_ops = AtomicU64::new(0);
        self.rss_probe = (probe_at, Mutex::new(None));
        let base = self.writers.len() as u64;
        let barrier = Barrier::new(clients);
        let this = &*self;
        let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || this.client_loop(base + t as u64, seed, stop, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        // Read before the logs are merged: the copies below are the harness's, not the
        // store's.
        let probed = self.rss_probe.1.lock().expect("no client panicked").take();
        let mut pass = Pass {
            samples: Vec::new(),
            failed: 0,
            one_phase_gets: 0,
            gets: 0,
            peak_rss_mb: probed.or_else(peak_rss_mb),
        };
        for log in logs {
            pass.failed += log.failed;
            self.ops_issued += log.samples.len() as u64 + log.failed;
            self.failed += log.failed;
            self.writers.push(log.writes);
            self.reads.extend(log.reads);
            pass.one_phase_gets += log.one_phase_gets;
            pass.gets += log.gets;
            pass.samples.extend(log.samples);
        }
        pass
    }

    fn client_loop(&self, writer: u64, seed: u64, stop: Stop, barrier: &Barrier) -> ThreadLog {
        let mut client = self.cluster.client(GcpLocation::Tokyo.dc());
        let mut rng =
            StdRng::seed_from_u64(seed ^ (writer + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut log = ThreadLog::default();
        let size = self.workload.value_bytes;
        barrier.wait();
        let started = Instant::now();
        loop {
            match stop {
                Stop::Ops(n) if log.samples.len() as u64 + log.failed >= n as u64 => break,
                Stop::After(d) if started.elapsed() >= d => break,
                _ => {}
            }
            let key_index = rng.gen_range(0..KEYS);
            let key = &self.keys[key_index];
            let put = rng.gen::<f64>() < 0.5;
            // Value construction and bookkeeping stay outside the timed interval.
            let latency = if put {
                let value = self.values.make(size, writer, log.writes.len() as u64);
                log.writes.push((key_index as u32, size as u32));
                let t = Instant::now();
                let result = client.put(key, value);
                let latency = t.elapsed();
                result.is_ok().then_some(latency)
            } else {
                let t = Instant::now();
                let result = client.get(key);
                let latency = t.elapsed();
                result.ok().map(|value| {
                    log.reads.push(ReadObservation {
                        key: key_index as u32,
                        stamp: self.values.read_stamp(&value),
                        len: value.len() as u32,
                    });
                    latency
                })
            };
            match latency {
                Some(latency) => log.samples.push(Sample {
                    done_ns: started.elapsed().as_nanos() as u64,
                    latency_ns: latency.as_nanos() as u64,
                    put,
                }),
                None => log.failed += 1,
            }
            if self.pass_ops.fetch_add(1, Ordering::Relaxed) + 1 == self.rss_probe.0 {
                *self.rss_probe.1.lock().expect("no client panicked") = peak_rss_mb();
            }
            if put && (self.puts.fetch_add(1, Ordering::Relaxed) + 1) % GC_EVERY_PUTS == 0 {
                self.cluster.garbage_collect(GC_KEEP);
            }
        }
        let stats = client.stats();
        log.gets = stats.gets;
        log.one_phase_gets = stats.one_phase_gets;
        log
    }

    /// Checks every output produced on this deployment so far: linearizability of all
    /// keys and the origin of every value a GET returned. Returns
    /// `(problems, operations checked, seconds the checker took)`.
    pub fn verify(&self) -> (Vec<String>, u64, f64) {
        let (mut problems, ops, secs) = check_histories(&self.cluster.recorder());
        let initial_len = self.workload.value_bytes as u32;
        problems.extend(check_stamps(&self.reads, &self.writers, |_| initial_len));
        if self.failed > 0 {
            problems.push(format!("{} operations failed", self.failed));
        }
        (problems, ops, secs)
    }

    /// Shuts the driver down and joins the server threads.
    pub fn stop(self) {
        self.cluster.shutdown();
        for handle in self.servers {
            handle
                .join()
                .expect("server thread")
                .expect("server exits cleanly");
        }
    }
}

/// When a pass ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After each client completed this many operations.
    Ops(usize),
    /// After this much wall time.
    After(Duration),
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds after the client's start.
    pub done_ns: u64,
    /// Wall time inside `StoreClient::put` / `get`.
    pub latency_ns: u64,
    /// PUT or GET.
    pub put: bool,
}

#[derive(Default)]
struct ThreadLog {
    samples: Vec<Sample>,
    writes: WriteLog,
    reads: Vec<ReadObservation>,
    failed: u64,
    gets: u64,
    one_phase_gets: u64,
}

/// The successful operations of one pass, all clients merged.
pub struct Pass {
    /// Every completed operation.
    pub samples: Vec<Sample>,
    /// Operations that returned an error.
    pub failed: u64,
    /// GETs that completed in one phase.
    pub one_phase_gets: u64,
    /// GETs completed.
    pub gets: u64,
    /// `VmHWM` of the process at the probe count, or when the last client finished.
    pub peak_rss_mb: Option<f64>,
}

impl Pass {
    /// Latencies of the PUTs (`put = true`) or GETs of the pass, unsorted.
    pub fn latencies(&self, put: bool) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.put == put)
            .map(|s| s.latency_ns)
            .collect()
    }

    /// Operations the pass attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    /// Completed operations per wall second over a window of `window`.
    pub fn ops_per_s(&self, window: Duration) -> f64 {
        self.samples.len() as f64 / window.as_secs_f64()
    }
}

/// Per-segment figures of a measured window.
pub struct Segmented {
    /// Completed operations per second.
    pub ops_per_s: Vec<f64>,
    /// PUT midmean latency, ms.
    pub put_mid_ms: Vec<f64>,
    /// GET midmean latency, ms.
    pub get_mid_ms: Vec<f64>,
}

/// Cuts a window of `window` into [`SEGMENTS`] equal segments by completion time.
/// Operations that complete after the window (each client's last one) are left out.
pub fn segment(samples: &[Sample], window: Duration) -> Segmented {
    let seg_ns = (window.as_nanos() as u64 / SEGMENTS as u64).max(1);
    let mut puts: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    let mut gets: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    for s in samples {
        let i = (s.done_ns / seg_ns) as usize;
        if i < SEGMENTS {
            if s.put { &mut puts[i] } else { &mut gets[i] }.push(s.latency_ns as f64 / 1e6);
        }
    }
    let mid = |per_seg: &mut [Vec<f64>]| -> Vec<f64> {
        per_seg
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| {
                v.sort_by(f64::total_cmp);
                midmean_sorted(v)
            })
            .collect()
    };
    let seg_s = seg_ns as f64 / 1e9;
    Segmented {
        ops_per_s: puts
            .iter()
            .zip(&gets)
            .map(|(p, g)| (p.len() + g.len()) as f64 / seg_s)
            .collect(),
        put_mid_ms: mid(&mut puts),
        get_mid_ms: mid(&mut gets),
    }
}

/// How much of each quantity a run does; `--smoke` shrinks all of it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured window of the end-to-end run.
    pub window: Duration,
    /// Times the set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Warm-up operations per set-up.
    pub warmup_ops: usize,
}

/// Stands the deployment up and warms it: everything `setup_s` covers.
pub fn set_up(workload: TcpWorkload, obs: ObsConfig, seed: u64, warmup_ops: usize) -> Deployment {
    let mut dep = Deployment::start(workload, obs);
    dep.run_pass(CLIENTS, seed ^ 0x5EED_0000, Stop::Ops(warmup_ops / CLIENTS));
    dep
}

/// The end-to-end run of a `tcp-*` workload.
pub fn run_end_to_end(
    workload: TcpWorkload,
    seed: u64,
    scale: Scale,
    process_start: Instant,
) -> RunResult {
    // Set-up is repeated so its time can be reported as a median; the last deployment
    // is the one measured.
    let (mut dep, setup_s) = set_up_repeatedly(
        scale.setup_reps,
        process_start,
        || set_up(workload, ObsConfig::Off, seed, scale.warmup_ops),
        Deployment::stop,
    );

    let probe_at = (scale.window.as_secs_f64() * workload.rss_probe_ops_per_second as f64) as u64;
    let pass = dep.run_pass_probing(CLIENTS, seed, Stop::After(scale.window), probe_at);
    let attempted = pass.attempted();
    let seg = segment(&pass.samples, scale.window);
    let (problems, _, _) = dep.verify();
    let failed = dep.failed;
    let within_slo = pass
        .samples
        .iter()
        .filter(|s| s.latency_ns as f64 / 1e6 <= TCP_SLO_MS)
        .count();
    let cost = workload.modelled_cost_usd_per_hr(dep.cluster.model());
    dep.stop();

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
    metrics.set_median("ops_per_s", &seg.ops_per_s);
    metrics.set_median("put_mid_ms", &seg.put_mid_ms);
    metrics.set_median("get_mid_ms", &seg.get_mid_ms);
    metrics.set(
        "slo_met_frac",
        within_slo as f64 / attempted.max(1) as f64,
        attempted,
    );
    metrics.set("cost_usd_per_hr", cost, 1);
    metrics.set("peak_rss_mb", pass.peak_rss_mb.unwrap_or(f64::NAN), 1);
    RunResult {
        workload: workload.name,
        traced: false,
        attempted,
        failed,
        problems,
        metrics,
    }
}

/// How much the traced run does; `--smoke` shrinks all of it.
#[derive(Debug, Clone)]
pub struct TraceScale {
    /// Length of each of the three timed passes (one client; two clients untraced; two
    /// clients with telemetry on).
    pub pass: Duration,
    /// Warm-up operations per deployment.
    pub warmup_ops: usize,
    /// Operations the walk replays.
    pub walk_ops: usize,
    /// Repetitions of each micro-measurement.
    pub micro_reps: usize,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: std::path::PathBuf,
}

/// The operations client 0 of a measured pass would issue, as a walk list.
fn walk_ops(
    workload: TcpWorkload,
    keys: &[Key],
    values: &ValueFactory,
    seed: u64,
    count: usize,
) -> Vec<WalkOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..count as u64)
        .map(|i| {
            let key = keys[rng.gen_range(0..KEYS)].clone();
            let put = (rng.gen::<f64>() < 0.5).then(|| values.make(workload.value_bytes, 0, i));
            WalkOp {
                key,
                origin: GcpLocation::Tokyo.dc(),
                put,
            }
        })
        .collect()
}

/// The traced run of a `tcp-*` workload: the walk, the scrape, and the measurements
/// that tie them to the end-to-end figures.
pub fn run_traced(
    workload: TcpWorkload,
    seed: u64,
    scale: &TraceScale,
) -> std::io::Result<RunResult> {
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let pct_us = |pass: &Pass, put: bool, p: f64| {
        let mut v = pass.latencies(put);
        if v.is_empty() {
            0.0
        } else {
            percentile(&mut v, p) as f64 / 1e3
        }
    };

    // Untraced deployment: one client (no queueing between clients), then the usual two.
    let mut dep = set_up(workload, ObsConfig::Off, seed, scale.warmup_ops);
    let c1 = dep.run_pass(1, seed.wrapping_add(1), Stop::After(scale.pass));
    let (c1_put, c1_get) = (pct_us(&c1, true, 0.50), pct_us(&c1, false, 0.50));
    metrics.set("core.client.c1_put_p50_us", c1_put, c1.samples.len() as u64);
    metrics.set("core.client.c1_get_p50_us", c1_get, c1.samples.len() as u64);
    let off = dep.run_pass(CLIENTS, seed, Stop::After(scale.pass));
    for (name, put, p) in [
        ("core.client.put_p50_us", true, 0.50),
        ("core.client.get_p50_us", false, 0.50),
        ("core.client.put_p99_us", true, 0.99),
        ("core.client.get_p99_us", false, 0.99),
    ] {
        metrics.set(name, pct_us(&off, put, p), off.samples.len() as u64);
    }
    let (found, checked, check_s) = dep.verify();
    problems.extend(found);
    metrics.set("lincheck.check_ms", check_s * 1e3, 1);
    metrics.set("lincheck.ops_checked", checked as f64, 1);
    let mut attempted = c1.attempted() + off.attempted();
    let mut failed = dep.failed;
    let over_slo = |p: &Pass| {
        p.samples
            .iter()
            .filter(|s| s.latency_ns as f64 / 1e6 > TCP_SLO_MS)
            .count() as u64
    };
    let mut missed = over_slo(&c1) + over_slo(&off) + c1.failed + off.failed;
    dep.stop();

    // Same deployment with telemetry on: the scrape, and what telemetry costs.
    let mut dep = set_up(workload, ObsConfig::Metrics, seed, scale.warmup_ops);
    let on = dep.run_pass(CLIENTS, seed, Stop::After(scale.pass));
    match dep.cluster.stats() {
        Ok(stats) => metrics.extend(crate::scrape::metrics(&stats, dep.ops_issued)),
        Err(e) => problems.push(format!("stats scrape failed: {e}")),
    }
    problems.extend(dep.verify().0);
    attempted += on.attempted();
    failed += dep.failed;
    missed += over_slo(&on) + on.failed;
    dep.stop();
    let overhead = 1.0 - on.ops_per_s(scale.pass) / off.ops_per_s(scale.pass);
    metrics.set("obs.overhead_frac", overhead, 2);
    metrics.set(
        "core.client.fail_frac",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    );
    metrics.set(
        "core.client.slo_miss_frac",
        missed as f64 / attempted.max(1) as f64,
        attempted,
    );

    // The walk over the same keys, configuration and operation mix.
    let model = CloudModel::gcp9();
    let config = workload.config(&model);
    let values = ValueFactory::new(workload.value_bytes);
    let keys = workload.keys();
    let mut bed = WalkBed::new(model.dc_ids(), true);
    for (i, key) in keys.iter().enumerate() {
        bed.install(
            key.clone(),
            config.clone(),
            &workload.initial_value(&values, i),
        );
    }
    let ops = walk_ops(workload, &keys, &values, seed, scale.walk_ops);
    if let Some(walk) = bed.run_reported(
        &ops,
        workload.name,
        seed,
        &scale.out_dir,
        &mut metrics,
        &mut problems,
    )? {
        // What one client's median leaves unexplained once every walked layer is priced
        // is the transports' share: syscalls, hand-offs, timers.
        for (put, c1_us, overhead, explained) in [
            (
                true,
                c1_put,
                "core.transport.put_overhead_us",
                "budget.put_explained_frac",
            ),
            (
                false,
                c1_get,
                "core.transport.get_overhead_us",
                "budget.get_explained_frac",
            ),
        ] {
            let walked_us = walk.median_op_total_ns(put) / 1e3;
            metrics.set(overhead, c1_us - walked_us, 1);
            metrics.set(
                explained,
                if c1_us > 0.0 { walked_us / c1_us } else { 0.0 },
                1,
            );
        }
    }

    // Layers the walk cannot isolate.
    if workload.cas {
        let sample = values.make(workload.value_bytes, 0, 0);
        metrics.extend(crate::micro::erasure(
            sample.as_bytes(),
            config.n,
            config.k,
            scale.micro_reps,
        ));
    } else {
        metrics.extend(crate::micro::erasure_idle());
    }
    let (gbps, n) = crate::micro::gf_mul_acc_gbps(scale.micro_reps);
    metrics.set("erasure.gf_mul_acc_gbps", gbps, n);
    // Layers these workloads never enter.
    for name in [
        "proto.client.reconfig_p50_ms",
        "proto.client.reconfigs",
        "optimizer.optimize_ms_per_key",
        "optimizer.optimize_ms_max",
        "optimizer.abd_only_ms",
        "optimizer.cas_only_ms",
        "optimizer.cas_chosen_frac",
        "optimizer.model_put_err_frac",
        "optimizer.model_get_err_frac",
        "sim.metered_cost_usd_per_hr",
        "sim.core_put_mid_delta_ms",
        "sim.core_get_mid_delta_ms",
        "campaign.smoke_cells_per_s",
    ] {
        metrics.set(name, 0.0, 0);
    }
    Ok(RunResult {
        workload: workload.name,
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
    fn segments_split_by_completion_time_and_drop_the_overrun() {
        let window = Duration::from_nanos(500);
        let s = |done_ns, latency_ns, put| Sample {
            done_ns,
            latency_ns,
            put,
        };
        let samples = [
            s(10, 2_000_000, true),
            s(99, 4_000_000, true),
            s(100, 1_000_000, false),
            s(450, 3_000_000, false),
            s(500, 9_000_000, true), // completed after the window
        ];
        let seg = segment(&samples, window);
        assert_eq!(seg.ops_per_s, vec![2e7, 1e7, 0.0, 0.0, 1e7]);
        assert_eq!(seg.put_mid_ms, vec![3.0]);
        assert_eq!(seg.get_mid_ms, vec![1.0, 3.0]);
    }

    #[test]
    fn workload_configurations_are_the_advertised_ones() {
        let model = CloudModel::gcp9();
        let cas = CAS_100K.config(&model);
        assert_eq!(cas.describe(), "CAS(5,3)");
        assert_eq!(cas.dcs[0], GcpLocation::Tokyo.dc());
        cas.validate().expect("valid");
        let abd = ABD_1K.config(&model);
        assert_eq!(abd.describe(), "ABD(3)");
        abd.validate().expect("valid");
        assert!(CAS_100K.modelled_cost_usd_per_hr(&model) > 0.0);
        assert!(ABD_1K.modelled_cost_usd_per_hr(&model) > 0.0);
    }
}
