//! Cross-crate integration: the optimizer's plans hold up when executed — the simulator's
//! measured latencies respect the plan's worst-case predictions and SLOs, the metered
//! network cost ranks configurations the same way the cost model does, and the paper's
//! headline qualitative findings come out of the pipeline end to end.
//!
//! The second half states each of the paper's figures as the claim it makes, checked as
//! an inequality: on a slice of the workload grids here, on every workload by
//! `cargo test --release --test optimizer_and_simulation -- --ignored --nocapture`.

use legostore::optimizer::latency::put_latency_ms;
use legostore::prelude::*;
use legostore::proto::cas::CasKeyState;
use legostore::proto::msg::ProtoMsg;
use legostore::workload::wikipedia::{synthesize_wikipedia, WikipediaParams};

fn sim_workload(plan: &Plan, spec: &WorkloadSpec, duration_ms: f64, seed: u64) -> SimReport {
    let model = CloudModel::gcp9();
    let mut sim = Simulation::new(model);
    sim.create_key("k", plan.config.clone(), &Value::filler(spec.object_size as usize));
    let mut gen = TraceGenerator::new(spec.clone(), 1, seed);
    sim.schedule_trace(&gen.generate(duration_ms), 0.0, |_| "k".to_string());
    sim.run()
}

fn spec_for(dist: ClientDistribution, read_ratio: f64, slo_ms: f64) -> WorkloadSpec {
    let model = CloudModel::gcp9();
    let mut spec = WorkloadSpec::example();
    spec.object_size = 1024;
    spec.arrival_rate = 60.0;
    spec.read_ratio = read_ratio;
    spec.client_distribution = client_distribution(dist, &model);
    spec.slo_get_ms = slo_ms;
    spec.slo_put_ms = slo_ms;
    spec
}

#[test]
fn simulated_latencies_respect_the_plans_predictions() {
    let spec = spec_for(ClientDistribution::SydneyTokyo, 0.5, 1000.0);
    let plan = Optimizer::new(CloudModel::gcp9()).optimize(&spec).expect("feasible");
    let report = sim_workload(&plan, &spec, 30_000.0, 11);
    assert!(report.operations.len() > 500);
    assert_eq!(report.failures(), 0);
    // Worst-case model bounds the simulator's per-op latencies (small tolerance for the
    // metadata-fetch rounding in the simulator).
    let put = report.latency(Some(OpKind::Put), None, None, None);
    let get = report.latency(Some(OpKind::Get), None, None, None);
    assert!(
        put.max_ms <= plan.worst_put_latency_ms + 20.0,
        "simulated PUT max {} vs predicted worst case {}",
        put.max_ms,
        plan.worst_put_latency_ms
    );
    assert!(
        get.max_ms <= plan.worst_get_latency_ms + 20.0,
        "simulated GET max {} vs predicted worst case {}",
        get.max_ms,
        plan.worst_get_latency_ms
    );
    // And therefore the SLO is met.
    assert_eq!(report.slo_violations(spec.slo_get_ms, Some(OpKind::Get)), 0);
    assert_eq!(report.slo_violations(spec.slo_put_ms, Some(OpKind::Put)), 0);
}

#[test]
fn metered_cost_ranks_plans_like_the_cost_model() {
    // For a read-heavy workload the cost model says CAS is cheaper than ABD on the network;
    // the simulator's byte-level metering must agree on the ranking.
    let spec = spec_for(ClientDistribution::Tokyo, 0.97, 1000.0);
    let optimizer = Optimizer::new(CloudModel::gcp9());
    let abd = optimizer
        .optimize_filtered(&spec, ProtocolFilter::AbdOnly)
        .expect("ABD feasible");
    let cas = optimizer
        .optimize_filtered(&spec, ProtocolFilter::CasOnly)
        .expect("CAS feasible");
    let abd_report = sim_workload(&abd, &spec, 30_000.0, 5);
    let cas_report = sim_workload(&cas, &spec, 30_000.0, 5);
    assert!(
        cas_report.cost.total() < abd_report.cost.total(),
        "CAS metered ${} vs ABD metered ${}",
        cas_report.cost.total(),
        abd_report.cost.total()
    );
    // Model-level ordering agrees.
    assert!(
        cas.cost.get_network + cas.cost.put_network
            < abd.cost.get_network + abd.cost.put_network
    );
}

#[test]
fn headline_findings_hold_end_to_end() {
    let model = CloudModel::gcp9();
    let optimizer = Optimizer::new(model.clone());

    // (1) With a relaxed SLO, read-heavy workloads choose erasure coding.
    let relaxed = spec_for(ClientDistribution::Tokyo, 30.0 / 31.0, 1000.0);
    let plan = optimizer.optimize(&relaxed).unwrap();
    assert_eq!(plan.config.protocol, ProtocolKind::Cas);

    // (2) With a stringent SLO and spread-out users, CAS becomes infeasible but ABD copes.
    let stringent = spec_for(ClientDistribution::SydneyTokyo, 0.5, 200.0);
    assert!(optimizer
        .optimize_filtered(&stringent, ProtocolFilter::CasOnly)
        .is_none());
    assert!(optimizer
        .optimize_filtered(&stringent, ProtocolFilter::AbdOnly)
        .is_some());

    // (3) The optimizer never loses to any baseline.
    let workload = spec_for(ClientDistribution::SydneySingapore, 0.5, 1000.0);
    let best = optimizer.optimize(&workload).unwrap();
    for b in Baseline::ALL {
        if let Some(p) = evaluate_baseline(&model, &workload, b) {
            assert!(best.total_cost() <= p.total_cost() + 1e-9, "{}", b.label());
        }
    }

    // (4) Write-heavy small objects at high arrival rates prefer ABD even at relaxed SLOs
    //     (§4.2.3 / Figure 2(a): HW, 1 KB, 500 req/s).
    let mut hw = spec_for(ClientDistribution::Tokyo, 1.0 / 31.0, 1000.0);
    hw.arrival_rate = 500.0;
    hw.total_data_bytes = 100 * 1_000_000_000;
    let hw_plan = optimizer.optimize(&hw).unwrap();
    assert_eq!(hw_plan.config.protocol, ProtocolKind::Abd);
}

#[test]
fn failed_dc_is_excluded_by_a_follow_up_optimization() {
    // §4.5: after a DC failure the optimizer recomputes a configuration that avoids the
    // failed DC, and the store transitions to it.
    let model = CloudModel::gcp9();
    let spec = spec_for(ClientDistribution::SydneyTokyo, 0.5, 1000.0);
    let original = Optimizer::new(model.clone()).optimize(&spec).unwrap();
    let victim = original.config.dcs[0];
    let replanned = Optimizer::with_options(
        model.clone(),
        SearchOptions {
            excluded_dcs: vec![victim],
            ..Default::default()
        },
    )
    .optimize(&spec)
    .expect("still feasible with one DC excluded");
    assert!(!replanned.config.dcs.contains(&victim));

    // Execute the transition in the simulator with the victim actually failed.
    let mut sim = Simulation::new(model);
    sim.create_key("k", original.config.clone(), &Value::filler(1024));
    let mut gen = TraceGenerator::new(spec.clone(), 1, 3);
    sim.schedule_trace(&gen.generate(20_000.0), 0.0, |_| "k".to_string());
    sim.schedule_failure(5_000.0, victim);
    sim.schedule_reconfig(8_000.0, "k", replanned.config.clone());
    let report = sim.run();
    assert_eq!(report.reconfig_durations_ms.len(), 1);
    assert_eq!(report.failures(), 0, "operations must survive failure + reconfiguration");
}

#[test]
fn wikipedia_pipeline_produces_savings() {
    // A miniature version of §4.6: synthesize Wikipedia-like keys, optimize each, and check
    // the optimizer saves cost against the latency-oriented baseline in aggregate.
    let model = CloudModel::gcp9();
    let params = legostore::workload::wikipedia::WikipediaParams {
        num_keys: 25,
        ..Default::default()
    };
    let keys = legostore::workload::synthesize_wikipedia(&model, &params, 3);
    let optimizer = Optimizer::new(model.clone());
    let mut optimal_total = 0.0;
    let mut nearest_total = 0.0;
    for key in &keys {
        let plan = optimizer.optimize(&key.t1).expect("feasible at 750 ms");
        optimal_total += plan.total_cost();
        if let Some(nearest) = evaluate_baseline(&model, &key.t1, Baseline::CasNearest) {
            nearest_total += nearest.total_cost();
        }
    }
    assert!(optimal_total > 0.0);
    assert!(
        optimal_total <= nearest_total,
        "optimizer ${optimal_total} vs nearest ${nearest_total}"
    );
}

// ---- The paper's figures as claims ----

/// The baseline grids of Figures 1 and 12: (SLO in ms for GETs and PUTs, f).
const GRIDS: [(f64, usize); 4] = [(1000.0, 1), (200.0, 1), (1000.0, 2), (300.0, 2)];

fn dcs(locations: &[GcpLocation]) -> Vec<DcId> {
    locations.iter().map(|l| l.dc()).collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Each baseline's normalised costs, one per workload it can serve.
type NormalisedCosts = Vec<(Baseline, Vec<f64>)>;

/// Normalised cost (baseline cost ÷ optimizer cost) of each baseline on every workload it
/// serves. The optimizer's own plan must meet the workload's SLOs, and it must find one
/// wherever a baseline does.
fn normalised_costs<'a>(workloads: impl Iterator<Item = &'a WorkloadSpec>) -> NormalisedCosts {
    let model = CloudModel::gcp9();
    let optimizer = Optimizer::new(model.clone());
    let mut costs: NormalisedCosts = Baseline::ALL.iter().map(|b| (*b, Vec::new())).collect();
    for w in workloads {
        let best = optimizer.optimize(w);
        if let Some(best) = &best {
            assert!(best.worst_get_latency_ms <= w.slo_get_ms, "{}: GET SLO", w.name);
            assert!(best.worst_put_latency_ms <= w.slo_put_ms, "{}: PUT SLO", w.name);
        }
        for (b, values) in &mut costs {
            let Some(plan) = evaluate_baseline(&model, w, *b) else { continue };
            let only = || panic!("{}: only {} is feasible", w.name, b.label());
            let best = best.as_ref().unwrap_or_else(only);
            values.push(plan.total_cost() / best.total_cost());
        }
    }
    costs
}

/// Figures 1, 12 and 15: no baseline plan is cheaper than the optimizer's.
fn assert_no_baseline_undercuts(label: &str, costs: &NormalisedCosts) {
    for (b, values) in costs {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min >= 1.0 - 1e-6, "{label}: {} costs {min} x the optimizer", b.label());
    }
}

fn wikipedia_t1_workloads() -> Vec<WorkloadSpec> {
    let params = WikipediaParams { num_keys: 1550, ..Default::default() };
    synthesize_wikipedia(&CloudModel::gcp9(), &params, 7).into_iter().map(|k| k.t1).collect()
}

/// Figures 2 and 13: walking the SLO up through `slos` (ascending) never raises the
/// optimizer's cost and never turns a feasible workload infeasible, for both fault
/// tolerances, 1 and 10 KiB objects and every read ratio; the most relaxed SLO is
/// feasible. Returns the steps checked.
fn assert_relaxing_the_slo_never_costs_more(dists: &[ClientDistribution], slos: &[f64]) -> usize {
    let optimizer = Optimizer::new(CloudModel::gcp9());
    let mut steps = 0;
    for f in [1, 2] {
        for size in [1024, 10 * 1024] {
            for ratio in ReadRatio::ALL {
                for &dist in dists {
                    let mut w = spec_for(dist, ratio.rho(), slos[0]);
                    (w.object_size, w.arrival_rate, w.fault_tolerance) = (size, 500.0, f);
                    let mut last: Option<f64> = None;
                    let what = format!("f={f} {size} B {} {}", ratio.label(), dist.label());
                    for &slo in slos {
                        (w.slo_get_ms, w.slo_put_ms) = (slo, slo);
                        let cost = optimizer.optimize(&w).map(|p| p.total_cost());
                        if let Some(before) = last {
                            let lost = || panic!("{what}: infeasible at {slo} ms");
                            let cost = cost.unwrap_or_else(lost);
                            assert!(cost <= before + 1e-9, "{what} at {slo} ms: {cost} > {before}");
                        }
                        last = cost;
                    }
                    assert!(last.is_some(), "{what}: infeasible at the most relaxed SLO");
                    steps += slos.len() - 1;
                }
            }
        }
    }
    steps
}

#[test]
fn no_baseline_undercuts_the_optimizer_on_a_grid_slice() {
    let model = CloudModel::gcp9();
    for (slo, f) in GRIDS {
        let grid = basic_workloads(&model, slo, slo, f);
        let costs = normalised_costs(grid.iter().step_by(11));
        assert_no_baseline_undercuts(&format!("{slo} ms, f={f}"), &costs);
    }
    let wikipedia = wikipedia_t1_workloads();
    assert_no_baseline_undercuts("wikipedia T1", &normalised_costs(wikipedia.iter().step_by(50)));
}

#[test]
fn relaxing_the_slo_never_raises_cost_or_loses_feasibility() {
    use ClientDistribution::*;
    let dists = [Tokyo, SydneyTokyo, Uniform];
    let steps = assert_relaxing_the_slo_never_costs_more(&dists, &[200.0, 400.0, 700.0, 1000.0]);
    assert_eq!(steps, 2 * 2 * 3 * 3 * 3);
}

/// Every figure claim over every workload: all 567 workloads of each baseline grid, the
/// 1 550 Wikipedia keys, and the Figure 2/13 matrix over all eight client distributions
/// at 50 ms SLO steps. Prints each baseline's median normalised cost.
#[test]
#[ignore = "full depth, minutes in release; run with --ignored"]
fn every_figure_claim_holds_on_every_workload() {
    let model = CloudModel::gcp9();
    let report = |label: String, costs: NormalisedCosts| {
        assert_no_baseline_undercuts(&label, &costs);
        println!("{label}: normalised cost, median and minimum (feasible workloads)");
        for (b, values) in &costs {
            let min = values.iter().copied().fold(f64::NAN, f64::min);
            println!("  {:20} {:.3} {:.3} ({})", b.label(), median(values), min, values.len());
        }
    };
    for (slo, f) in GRIDS {
        let grid = basic_workloads(&model, slo, slo, f);
        let label = format!("grid {slo} ms, f={f}, {} workloads", grid.len());
        report(label, normalised_costs(grid.iter()));
    }
    let wikipedia = wikipedia_t1_workloads();
    report(format!("wikipedia T1, {} keys", wikipedia.len()), normalised_costs(wikipedia.iter()));

    let slos: Vec<f64> = (1..=20).map(|i| 50.0 * i as f64).collect();
    let steps = assert_relaxing_the_slo_never_costs_more(&ClientDistribution::ALL, &slos);
    println!("figures 2/13: {steps} SLO steps, no cost rose and no workload lost feasibility");
}

/// The cost of the search's cheapest CAS plan for each code dimension K in 1..=7 it can fit.
fn cas_cost_by_k(w: &WorkloadSpec) -> Vec<(usize, f64)> {
    (1..=7)
        .filter_map(|k| {
            let options = SearchOptions { fixed_k: Some(k), ..Default::default() };
            let plan = Optimizer::with_options(CloudModel::gcp9(), options)
                .optimize_filtered(w, ProtocolFilter::CasOnly)?;
            Some((k, plan.total_cost()))
        })
        .collect()
}

/// The cheapest K for `w` (the smallest on a tie).
fn best_k(w: &WorkloadSpec) -> usize {
    let cheapest = cas_cost_by_k(w).into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
    cheapest.expect("CAS feasible").0
}

#[test]
fn best_k_grows_with_object_size_and_shrinks_with_arrival_rate() {
    // Figure 3: Sydney+Tokyo users, RW, 1 s SLO, f = 1, 200 req/s, 1 TB of 1 KiB objects.
    let mut base = spec_for(ClientDistribution::SydneyTokyo, 0.5, 1000.0);
    (base.arrival_rate, base.total_data_bytes) = (200.0, 1_000_000_000_000);
    // (a) cost falls and then rises again with K.
    let costs: Vec<f64> = cas_cost_by_k(&base).into_iter().map(|(_, cost)| cost).collect();
    assert!(costs.windows(2).any(|p| p[1] < p[0]), "{costs:?}");
    assert!(costs.windows(2).any(|p| p[1] > p[0]), "{costs:?}");
    // (b) the object count stays at 10^9, so storage grows with the object size.
    let by_size: Vec<usize> = [256, 1024, 4096, 16 * 1024, 64 * 1024]
        .map(|size| {
            let mut w = base.clone();
            (w.object_size, w.total_data_bytes) = (size, size * 1_000_000_000);
            best_k(&w)
        })
        .to_vec();
    assert!(by_size.windows(2).all(|p| p[1] >= p[0]), "K by size {by_size:?}");
    // (c) the busier the key, the smaller K.
    let by_rate: Vec<usize> = [50.0, 150.0, 250.0, 350.0, 450.0, 550.0]
        .map(|rate| best_k(&base.with_arrival_rate(rate)))
        .to_vec();
    assert!(by_rate.windows(2).all(|p| p[1] <= p[0]), "K by rate {by_rate:?}");
}

#[test]
fn optimizer_beats_both_nearest_placements_for_sydney_tokyo_high_read() {
    // Figure 14: HR, 50% Sydney / 50% Tokyo, 500 req/s, 10^6 objects of 1 KiB, 1 s SLO.
    let model = CloudModel::gcp9();
    let mut w = spec_for(ClientDistribution::SydneyTokyo, 30.0 / 31.0, 1000.0);
    (w.arrival_rate, w.total_data_bytes) = (500.0, 1_000_000_000);
    let best = Optimizer::new(model.clone()).optimize(&w).expect("feasible");
    for b in [Baseline::AbdNearest, Baseline::CasNearest] {
        let nearest = evaluate_baseline(&model, &w, b).expect("nearest placement feasible");
        assert!(best.total_cost() <= nearest.total_cost() + 1e-9, "{}", b.label());
    }
}

#[test]
fn erasure_coding_is_cheaper_at_comparable_get_latency() {
    // §4.2.5: Tokyo users, HR (97% reads), 500 req/s, 10^6 objects of 1 KiB.
    let model = CloudModel::gcp9();
    let fastest = Optimizer::with_options(
        model.clone(),
        SearchOptions { objective: Objective::Latency, ..Default::default() },
    );
    for f in [1, 2] {
        let mut w = spec_for(ClientDistribution::Tokyo, 0.97, 1000.0);
        (w.arrival_rate, w.total_data_bytes, w.fault_tolerance) = (500.0, 1024 * 1_000_000, f);
        let abd = fastest.optimize_filtered(&w, ProtocolFilter::AbdOnly).expect("ABD feasible");
        let cas = fastest.optimize_filtered(&w, ProtocolFilter::CasOnly).expect("CAS feasible");
        assert!(cas.total_cost() < abd.total_cost(), "f={f}");
        assert!(cas.worst_get_latency_ms - abd.worst_get_latency_ms < 120.0, "f={f}");
    }
}

#[test]
fn cas_latency_is_flat_in_the_arrival_rate() {
    // Figure 4: one 1 KiB key as CAS(5,3), users everywhere, RW; Tokyo users' latency.
    use GcpLocation::*;
    let model = CloudModel::gcp9();
    let placement = dcs(&[Singapore, Frankfurt, Virginia, LosAngeles, Oregon]);
    let plan_config = Configuration::cas_default(placement, 3, 1);
    let mean_put_ms = |rate: f64| {
        let mut spec = spec_for(ClientDistribution::Uniform, 0.5, 1000.0);
        spec.arrival_rate = rate;
        let mut sim = Simulation::new(model.clone());
        sim.create_key("hot", plan_config.clone(), &Value::filler(1024));
        let mut gen = TraceGenerator::new(spec, 1, 3);
        sim.schedule_trace(&gen.generate(20_000.0), 0.0, |_| "hot".to_string());
        let report = sim.run();
        let get = report.latency(Some(OpKind::Get), Some(Tokyo.dc()), None, None);
        let put = report.latency(Some(OpKind::Put), Some(Tokyo.dc()), None, None);
        assert!(get.count > 10 && put.count > 10 && get.count + put.count > 30);
        // Three phases per CAS PUT, two per GET.
        assert!(put.mean_ms > get.mean_ms, "rate {rate}");
        put.mean_ms
    };
    let (slow, fast) = (mean_put_ms(20.0), mean_put_ms(60.0));
    assert!((fast - slow).abs() / slow < 0.15, "PUT mean {slow} -> {fast} ms");
}

#[test]
fn reconfigurations_finish_within_a_second_through_load_change_and_dc_failure() {
    // Figure 5 on a compressed timeline: 3 keys in CAS(5,3), users in Tokyo, Sydney,
    // Singapore (30% each) and Frankfurt; the rate quadruples at 4 s and the keys move to
    // ABD(3); Singapore fails at 8 s; at 10 s the keys move to CAS(4,2) without it.
    use GcpLocation::*;
    let mut sim = Simulation::with_options(
        CloudModel::gcp9(),
        SimOptions::default(),
    );
    let start = dcs(&[Tokyo, Sydney, Singapore, Virginia, Oregon]);
    let start = Configuration::cas_default(start, 3, 1);
    let abd = Configuration::abd_majority(dcs(&[Tokyo, Sydney, Singapore]), 1);
    let end = Configuration::cas_default(dcs(&[Tokyo, Sydney, Virginia, Oregon]), 2, 1);
    let mut spec = spec_for(ClientDistribution::Tokyo, 0.5, 1000.0);
    spec.client_distribution =
        vec![(Tokyo.dc(), 0.3), (Sydney.dc(), 0.3), (Singapore.dc(), 0.3), (Frankfurt.dc(), 0.1)];
    let keys = 3;
    for i in 0..keys {
        sim.create_key(format!("key-{i}"), start.clone(), &Value::filler(1024));
        sim.schedule_reconfig(4_050.0, format!("key-{i}"), abd.clone());
        sim.schedule_reconfig(10_000.0, format!("key-{i}"), end.clone());
    }
    let mut gen = TraceGenerator::new(spec.with_arrival_rate(30.0), keys, 5);
    sim.schedule_trace(&gen.generate(4_000.0), 0.0, |i| format!("key-{i}"));
    let mut gen = TraceGenerator::new(spec.with_arrival_rate(120.0), keys, 4);
    sim.schedule_trace(&gen.generate(10_000.0), 4_000.0, |i| format!("key-{i}"));
    sim.schedule_failure(8_000.0, Singapore.dc());
    let report = sim.run();
    assert_eq!(report.reconfig_durations_ms.len(), 2 * keys);
    for d in &report.reconfig_durations_ms {
        assert!(*d < 1000.0, "reconfiguration took {d} ms");
    }
    assert!(report.operations.len() > 200);
    assert_eq!(report.failures(), 0, "no operation is lost");
}

#[test]
fn wikipedia_hot_key_moves_to_eight_dcs_without_failing_an_operation() {
    // Figure 6: 20 KiB, 97% reads; CAS(5,1) over five Asian and European DCs at 16 req/s
    // in T1, CAS(8,1) when T2 brings 35 req/s from everywhere.
    use GcpLocation::*;
    let t1_dcs = [Tokyo, Sydney, Singapore, Frankfurt, London];
    let mut t1 = spec_for(ClientDistribution::Uniform, 0.97, 1000.0);
    (t1.object_size, t1.arrival_rate) = (20 * 1024, 16.0);
    t1.client_distribution = t1_dcs.iter().map(|l| (l.dc(), 0.2)).collect();
    let everywhere = client_distribution(ClientDistribution::Uniform, &CloudModel::gcp9());
    let t2 = t1.with_arrival_rate(35.0).with_clients(everywhere);
    let mut sim = Simulation::with_options(
        CloudModel::gcp9(),
        SimOptions::default(),
    );
    let t1_config = Configuration::cas_default(dcs(&t1_dcs), 1, 1);
    sim.create_key("wiki-hot", t1_config, &Value::filler(20 * 1024));
    let mut gen = TraceGenerator::new(t1, 1, 11);
    sim.schedule_trace(&gen.generate(5_000.0), 0.0, |_| "wiki-hot".to_string());
    let mut gen = TraceGenerator::new(t2, 1, 12);
    sim.schedule_trace(&gen.generate(5_000.0), 5_000.0, |_| "wiki-hot".to_string());
    let t2_dcs = [Tokyo, Sydney, Singapore, Frankfurt, London, Virginia, LosAngeles, Oregon];
    sim.schedule_reconfig(5_000.0, "wiki-hot", Configuration::cas_default(dcs(&t2_dcs), 1, 1));
    let report = sim.run();
    assert_eq!(report.reconfig_durations_ms.len(), 1);
    assert_eq!(report.failures(), 0);
}

#[test]
fn worst_case_model_bounds_mean_measured_put_latency_at_every_location() {
    // Figure 11: users everywhere, 1 KiB, HW, 30 req/s, 1 s SLO, the optimizer's CAS plan.
    let model = CloudModel::gcp9();
    let mut spec = spec_for(ClientDistribution::Uniform, 1.0 / 31.0, 1000.0);
    spec.arrival_rate = 30.0;
    let plan = Optimizer::new(model.clone())
        .optimize_filtered(&spec, ProtocolFilter::CasOnly)
        .expect("CAS feasible at 1 s");
    let report = sim_workload(&plan, &spec, 5_000.0, 1);
    for l in GcpLocation::ALL {
        let put = report.latency(Some(OpKind::Put), Some(l.dc()), None, None);
        let predicted = put_latency_ms(&model, &spec, &plan.config, l.dc());
        if put.count > 5 {
            let mean = put.mean_ms;
            assert!(mean <= predicted + 25.0, "{}: PUT {mean} vs {predicted} ms", l.name());
        }
    }
}

#[test]
fn garbage_collection_bounds_cas_version_history() {
    // Appendix F: 200 writes of one 3000-byte value's CAS(5,3) shard, collected every 10th.
    let shard = legostore::erasure::encode_value(&[7u8; 3000], 5, 3).unwrap().remove(0).data;
    let history = |gc_every: Option<u64>| {
        let mut state = CasKeyState::new(Tag::INITIAL, Some(shard.clone()));
        for i in 1..=200 {
            let tag = Tag::new(i, ClientId(1));
            state.handle(&ProtoMsg::CasPreWrite { tag, shard: shard.clone() });
            state.handle(&ProtoMsg::CasFinalizeWrite { tag });
            if gc_every.is_some_and(|n| i % n == 0) {
                state.garbage_collect(1);
            }
        }
        (state.version_count(), state.storage_bytes())
    };
    let (versions, bytes) = history(None);
    let (versions_gc, bytes_gc) = history(Some(10));
    assert_eq!(versions, 201);
    assert!(versions_gc <= 3 && bytes_gc < bytes / 10, "{versions_gc} versions, {bytes_gc} B");
}
