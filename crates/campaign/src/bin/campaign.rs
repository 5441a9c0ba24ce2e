//! `legostore-campaign` — run a tiered scenario campaign and write its reports.
//!
//! ```text
//! legostore-campaign --tier smoke|ci|nightly|full [--out-dir DIR] [--threads N]
//!                    [--seed-base N] [--list] [--only SUBSTR] [--verbose]
//! ```
//!
//! Writes `campaign_<tier>.csv` (per-cell rows) and `campaign_<tier>.json` (summary)
//! into `--out-dir` (default `target/campaign`), prints the group rollup, and exits
//! non-zero if any cell violated its expected property. Everything runs on virtual
//! time; two identical invocations produce byte-identical reports. `--list` prints the
//! cell ids instead of running them, `--only` keeps the cells whose id contains
//! `SUBSTR`, and `--verbose` logs each cell's wall time to stderr.

use legostore_campaign::runner::run_cells;
use legostore_campaign::{Aggregator, SweepSpec, Tier};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    tier: Tier,
    out_dir: PathBuf,
    threads: usize,
    seed_base: u64,
    list: bool,
    only: Option<String>,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tier: Tier::Smoke,
        out_dir: PathBuf::from("target/campaign"),
        threads: 0,
        seed_base: 42,
        list: false,
        only: None,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--tier" => {
                let v = value("--tier")?;
                args.tier = Tier::parse(&v)
                    .ok_or_else(|| format!("unknown tier `{v}` (smoke|ci|nightly|full)"))?;
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--threads" => {
                args.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed-base" => {
                args.seed_base =
                    value("--seed-base")?.parse().map_err(|e| format!("--seed-base: {e}"))?;
            }
            "--list" => args.list = true,
            "--only" => args.only = Some(value("--only")?),
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: legostore-campaign --tier smoke|ci|nightly|full \
                     [--out-dir DIR] [--threads N] [--seed-base N] [--only SUBSTR] \
                     [--list] [--verbose]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let spec = SweepSpec { tier: args.tier, seed_base: args.seed_base };
    let mut cells = spec.cells();
    if let Some(filter) = &args.only {
        cells.retain(|c| c.id.contains(filter.as_str()));
    }
    if args.list {
        for cell in &cells {
            println!("{}", cell.id);
        }
        println!("{} cells", cells.len());
        return ExitCode::SUCCESS;
    }

    println!(
        "campaign tier={} cells={} seed_base={}",
        args.tier.label(),
        cells.len(),
        args.seed_base
    );
    let outcomes = run_cells(&cells, args.threads, args.verbose);
    let mut agg = Aggregator::new(args.tier.label());
    for outcome in outcomes {
        agg.ingest(outcome);
    }
    let report = agg.finish();

    println!(
        "{:<14} {:<10} {:<8} {:>5} {:>6} {:>9} {:>9} {:>9} {:>8}",
        "family", "protocol", "place", "cells", "failed", "p50_ms", "p99_ms", "ops/s", "avail"
    );
    for g in &report.groups {
        println!(
            "{:<14} {:<10} {:<8} {:>5} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>8.4}",
            g.family,
            g.protocol,
            g.placement,
            g.cells,
            g.failed,
            g.median_p50_ms,
            g.median_p99_ms,
            g.median_ops_per_sec,
            g.mean_availability,
        );
    }
    for failure in report.failures() {
        eprintln!("FAIL {}: {}", failure.cell_id, failure.violations.join("; "));
    }

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: creating {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let csv_path = args.out_dir.join(format!("campaign_{}.csv", args.tier.label()));
    let json_path = args.out_dir.join(format!("campaign_{}.json", args.tier.label()));
    for (path, body) in [(&csv_path, report.to_csv()), (&json_path, report.to_json())] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let failed = report.failures().len();
    println!(
        "{} cells, {} failed, fingerprint {:016x} -> {}, {}",
        report.rows.len(),
        failed,
        report.fingerprint,
        csv_path.display(),
        json_path.display()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
