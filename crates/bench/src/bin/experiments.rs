//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p legostore-bench --bin experiments -- all
//! cargo run --release -p legostore-bench --bin experiments -- fig1 fig3 fig5
//! cargo run --release -p legostore-bench --bin experiments -- all --tier nightly
//! cargo run --release -p legostore-bench --bin experiments -- fig1 --quick
//! ```
//!
//! Grid depth is budgeted through the campaign tiers (see `legostore-campaign`):
//! the default `ci` tier subsamples every workload grid so `all` finishes in
//! seconds, and only `--tier nightly` / `--tier full` evaluate the paper's full
//! 567-workload grids. `--quick` is shorthand for `--tier smoke`.

use legostore_bench::experiments::{optimizer_studies as opt, sim_studies as sim};
use legostore_campaign::Tier;

struct Settings {
    tier: Tier,
}

impl Settings {
    /// Workload-grid stride: the campaign tier's budget for the bounded tiers, the
    /// full grid (stride 1) for the unbudgeted nightly/full tiers.
    fn stride(&self) -> usize {
        match self.tier {
            Tier::Nightly | Tier::Full => 1,
            t => t.budget().grid_stride,
        }
    }

    /// True for the unbudgeted tiers that run the paper's experiments at full depth.
    fn deep(&self) -> bool {
        matches!(self.tier, Tier::Nightly | Tier::Full)
    }
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 16] = [
    "tables", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig11", "fig12", "fig13",
    "fig14", "fig15", "kopt", "ec", "gc",
];

fn usage_error(problem: &str) -> ! {
    let names = EXPERIMENTS.join("|");
    eprintln!(
        "{problem}\nusage: experiments [all|{names}]... [--quick] [--tier smoke|ci|nightly|full]"
    );
    std::process::exit(2);
}

fn main() {
    // Every argument is checked before anything runs: a typo must not yield a green, empty run.
    let mut tier = Tier::Ci;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => tier = Tier::Smoke,
            "--tier" => match args.next().and_then(|v| Tier::parse(&v)) {
                Some(t) => tier = t,
                None => usage_error("--tier requires one of: smoke, ci, nightly, full"),
            },
            name if name == "all" || EXPERIMENTS.contains(&name) => selected.push(arg),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if selected.is_empty() || selected.iter().any(|a| a == "all") {
        selected = EXPERIMENTS.iter().map(|e| e.to_string()).collect();
    }
    let settings = Settings { tier };
    println!(
        "experiments tier={} (grid stride {}); the full 567-workload grids run only at \
         --tier nightly|full",
        settings.tier.label(),
        settings.stride()
    );
    for name in selected {
        run_experiment(&name, &settings);
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn run_experiment(name: &str, s: &Settings) {
    match name {
        "tables" => {
            banner("Tables 1 & 2: embedded GCP prices and RTTs");
            println!("{}", opt::table_inputs());
        }
        "table3" => {
            banner("Table 3: coarse ABD vs CAS comparison");
            println!("{}", opt::table3(1024));
        }
        "fig1" => {
            banner("Figure 1: baseline normalized-cost CDFs, f = 1");
            let stride = s.stride();
            for slo in [1000.0, 200.0] {
                let cdf = opt::baseline_cdf(slo, 1, stride);
                println!("{}", cdf.render());
            }
        }
        "fig12" => {
            banner("Figure 12: baseline normalized-cost CDFs, f = 2");
            let stride = s.stride();
            for slo in [1000.0, 300.0] {
                let cdf = opt::baseline_cdf(slo, 2, stride);
                println!("{}", cdf.render());
            }
        }
        "fig2" | "fig13" => {
            let f = if name == "fig2" { 1 } else { 2 };
            banner(&format!("Figure {}: optimizer choice vs latency SLO, f = {f}", if f == 1 { 2 } else { 13 }));
            let slos: Vec<f64> = if !s.deep() {
                vec![200.0, 400.0, 700.0, 1000.0]
            } else {
                (1..=20).map(|i| 50.0 * i as f64).collect()
            };
            let dists = if !s.deep() {
                vec![
                    legostore_workload::ClientDistribution::Tokyo,
                    legostore_workload::ClientDistribution::SydneyTokyo,
                    legostore_workload::ClientDistribution::Uniform,
                ]
            } else {
                legostore_workload::ClientDistribution::ALL.to_vec()
            };
            let rows = opt::slo_sensitivity(f, &[1024, 10 * 1024], &slos, &dists);
            println!("{}", opt::render_slo_sensitivity(&rows));
        }
        "fig3" => {
            banner("Figure 3: cost vs K and Kopt trends");
            let study = opt::kopt_study(if s.deep() { 7 } else { 5 });
            println!("{}", study.render());
        }
        "kopt" => {
            banner("Eq. 4 analytical model vs optimizer");
            for (size, model_k, search_k) in opt::kopt_model_validation() {
                println!("object {size:>6} B: analytic Kopt = {model_k:.1}, optimizer K = {search_k}");
            }
        }
        "fig4" => {
            banner("Figure 4: latency robustness under concurrent access");
            let duration = if s.deep() { 60_000.0 } else { 10_000.0 };
            for (label, rho) in [("RW (50% reads)", 0.5), ("HW (3.2% reads)", 1.0 / 31.0)] {
                println!("-- {label}");
                let rates = [20.0, 40.0, 60.0, 80.0, 100.0];
                let points = sim::concurrency_robustness(&rates, rho, duration, 42);
                println!("{}", sim::render_concurrency(&points));
            }
        }
        "fig5" => {
            banner("Figure 5: reconfiguration under load change and DC failure");
            let scale = if s.deep() { 0.25 } else { 0.05 };
            let result = sim::reconfiguration_scenario(
                if s.deep() { 20 } else { 5 },
                200_000.0 * scale,
                360_000.0 * scale,
                400_000.0 * scale,
                500_000.0 * scale,
                if s.deep() { 100.0 } else { 40.0 },
                7,
            );
            println!("{}", result.render());
        }
        "fig6" => {
            banner("Figure 6: Wikipedia hot key reconfiguration");
            let result = sim::wikipedia_key_scenario(if s.deep() { 600_000.0 } else { 20_000.0 }, 13);
            println!("{}", result.render());
            if let Some((t1, t2)) = opt::wikipedia_hot_key_choices() {
                println!(
                    "optimizer choice: T1 {} (${:.4}/h) -> T2 {} (${:.4}/h)",
                    t1.config.describe(),
                    t1.total_cost(),
                    t2.config.describe(),
                    t2.total_cost()
                );
            }
        }
        "fig11" => {
            banner("Figure 11: predicted vs measured latency (and under LA failure)");
            let duration = if s.deep() { 60_000.0 } else { 10_000.0 };
            let rows = sim::model_validation(duration, 50.0, 3);
            println!("{}", sim::render_model_validation(&rows));
        }
        "fig14" => {
            banner("Figure 14: nearest placements vs the optimizer (Sydney+Tokyo HR)");
            let rows = opt::nearest_vs_optimal();
            println!("{}", opt::render_nearest_vs_optimal(&rows));
        }
        "fig15" => {
            banner("Figure 15: Wikipedia-derived keys, baseline normalized-cost CDF");
            let keys = if s.deep() { 1550 } else { 100 };
            let cdf = opt::wikipedia_cdf(keys);
            println!("{}", cdf.render());
        }
        "ec" => {
            banner("§4.2.5: EC at comparable latency, lower cost (Tokyo HR)");
            for row in opt::ec_vs_replication_latency() {
                println!(
                    "f={} {}: {} GET latency {:.0} ms, cost ${:.4}/h",
                    row.f, row.family, row.config, row.get_latency_ms, row.cost_per_hour
                );
            }
        }
        "gc" => {
            banner("Appendix F: garbage-collection overhead");
            let (v_no, b_no, v_gc, b_gc) = sim::gc_overhead(1000, 1024, 50);
            println!(
                "without GC: {v_no} versions, {b_no} bytes/server; with GC every 50 PUTs: {v_gc} versions, {b_gc} bytes/server"
            );
        }
        other => unreachable!("'{other}' passed validation against EXPERIMENTS"),
    }
}
