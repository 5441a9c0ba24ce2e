//! Command line, the leaf run of one workload in one mode, and the orchestration that
//! runs each workload in a process of its own.

use crate::catalog::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::report::{parse_result_line, RunResult};
use crate::stats::{iqr_frac, median};
use crate::{geo, tcp};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`: only this workload.
    pub workload: Option<String>,
    /// `--seed N` (default 1): drives trace generation, key, operation and size choice.
    pub seed: u64,
    /// `--seconds S` (default `run_seconds`): how long a run measures.
    pub seconds: f64,
    /// `--trace 0|1`: run one mode of one workload in this process and print its result
    /// line. Without it, every selected workload runs both modes in child processes.
    pub trace: Option<bool>,
    /// `--smoke`: the whole set in seconds; same metric names, numbers not comparable.
    pub smoke: bool,
    /// `--repeat-check`: two sets of end-to-end runs compared against the bounds.
    pub repeat_check: bool,
    /// `--runs N` (default 1): runs per workload and set under `--repeat-check`, on seeds
    /// `seed..seed+N`; with four or more the interquartile spread is checked too.
    pub runs: usize,
    /// `--out-dir DIR` (default `out`): where traces go.
    pub out_dir: PathBuf,
    /// `--print-benchmark-json`: print the text of `BENCHMARK.json` and exit.
    pub print_benchmark_json: bool,
}

/// What `--smoke` measures for, whatever `--seconds` says.
const SMOKE_SECONDS: f64 = 1.0;

/// Usage text.
pub const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--repeat-check [--runs N]] [--out-dir DIR] [--print-benchmark-json]";

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: None,
            smoke: false,
            repeat_check: false,
            runs: 1,
            out_dir: PathBuf::from("out"),
            print_benchmark_json: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.iter().any(|w| w.name == name) {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!("unknown workload {name:?}; known: {known:?}"));
                    }
                    out.workload = Some(name);
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    out.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    out.trace = Some(match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--runs" => {
                    out.runs = value("a count")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?;
                    if out.runs == 0 {
                        return Err("--runs must be at least 1".into());
                    }
                }
                "--out-dir" => out.out_dir = PathBuf::from(value("a directory")?),
                "--smoke" => out.smoke = true,
                "--repeat-check" => out.repeat_check = true,
                "--print-benchmark-json" => out.print_benchmark_json = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if out.trace.is_some() && out.workload.is_none() {
            return Err("--trace needs --workload".into());
        }
        Ok(out)
    }
}

/// Runs one mode of one workload in this process.
pub fn run_leaf(args: &Args, process_start: Instant) -> std::io::Result<RunResult> {
    let workload = selected(args)[0];
    let traced = args.trace.expect("leaf runs name their mode");
    let smoke = args.smoke;
    let seconds = if smoke { SMOKE_SECONDS } else { args.seconds };
    let setup_reps = |full: usize| if smoke { 1 } else { full };
    let warmup_ops = if smoke { 200 } else { tcp::WARMUP_OPS };
    let walk_ops = if smoke { 200 } else { crate::walk::WALK_OPS };
    let micro_reps = if smoke { 20 } else { 200 };
    let per_second = |rate: usize| ((seconds * rate as f64) as usize).max(400);
    let socket = |w: tcp::TcpWorkload| -> std::io::Result<RunResult> {
        if traced {
            let scale = tcp::TraceScale {
                pass: Duration::from_secs_f64(seconds / 4.0),
                warmup_ops,
                walk_ops,
                micro_reps,
                out_dir: args.out_dir.clone(),
            };
            tcp::run_traced(w, args.seed, &scale)
        } else {
            let scale = tcp::Scale {
                window: Duration::from_secs_f64(seconds),
                setup_reps: setup_reps(5),
                warmup_ops,
            };
            Ok(tcp::run_end_to_end(w, args.seed, scale, process_start))
        }
    };
    match workload {
        "tcp-cas-100k" => socket(tcp::CAS_100K),
        "tcp-abd-1k" => socket(tcp::ABD_1K),
        name if traced => {
            let scale = geo::TraceScale {
                ops: per_second(geo::TRACED_OPS_PER_RUN_SECOND),
                walk_ops,
                micro_reps,
                campaign: name == "geo-sim",
                out_dir: args.out_dir.clone(),
            };
            geo::run_traced(name, args.seed, &scale)
        }
        "geo-core" => {
            let scale = geo::Scale {
                ops: per_second(geo::CORE_OPS_PER_RUN_SECOND),
                setup_reps: setup_reps(3),
            };
            Ok(geo::run_core(args.seed, scale, process_start))
        }
        _ => {
            let scale = geo::Scale {
                ops: per_second(geo::SIM_OPS_PER_RUN_SECOND),
                setup_reps: setup_reps(3),
            };
            Ok(geo::run_sim(args.seed, scale, process_start))
        }
    }
}

/// The workloads `--workload` selects (all of them without it), by catalog name.
fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().map_or(true, |only| only == *name))
        .collect()
}

/// Result of one child process.
struct Child {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one mode of one workload in a child process (this executable again), echoing
/// its report, and parses its result line.
fn run_child(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload").arg(workload);
    cmd.arg("--seed").arg(seed.to_string());
    cmd.arg("--seconds").arg(args.seconds.to_string());
    cmd.arg("--trace").arg(if traced { "1" } else { "0" });
    cmd.arg("--out-dir").arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", stdout.trim_end()),
    };
    if !args.repeat_check {
        println!("{report}");
    }
    let (correct, metrics) = parse_result_line(line).ok_or_else(|| {
        format!(
            "{workload} (trace {}) printed no result line; exit {}",
            u8::from(traced),
            output.status
        )
    })?;
    Ok(Child {
        correct: correct && output.status.success(),
        metrics,
    })
}

/// Runs every selected workload in both modes, each in its own process. Returns whether
/// every output was right.
pub fn run_all(args: &Args) -> bool {
    let mut all_correct = true;
    for workload in selected(args) {
        for traced in [false, true] {
            match run_child(args, workload, args.seed, traced) {
                Ok(child) => all_correct &= child.correct,
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            }
        }
    }
    println!(
        "{}",
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WRONG"
        }
    );
    all_correct
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own direction
/// (negative when `b` is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `--repeat-check`: two sets of end-to-end runs of the same code; for every (metric,
/// workload) the second median may not be worse than the first by more than the
/// metric's bound, and with four or more runs per set no interquartile spread but
/// `setup_s`'s may exceed it. Returns whether every pair held.
pub fn repeat_check(args: &Args) -> bool {
    let selected = selected(args);
    // sets[set][workload][metric] = one value per run
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> =
        vec![BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    for (set, values) in sets.iter_mut().enumerate() {
        for &workload in &selected {
            for run in 0..args.runs {
                let seed = args.seed + run as u64;
                eprintln!("set {} {workload} seed {seed}", set + 1);
                match run_child(args, workload, seed, false) {
                    Ok(child) => {
                        ok &= child.correct;
                        for (name, value) in child.metrics {
                            values
                                .entry(workload)
                                .or_default()
                                .entry(name)
                                .or_default()
                                .push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median 1", "median 2", "worse by", "bound", "spread 1", "spread 2"
    );
    for &workload in &selected {
        for def in &END_TO_END {
            let runs = |set: usize| {
                sets[set]
                    .get(workload)
                    .and_then(|m| m.get(def.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (runs(0), runs(1));
            if a.len() != args.runs || b.len() != args.runs {
                println!("{workload:<14} {:<16} missing runs", def.name);
                ok = false;
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worse_by(def.better, median(&a), median(&b));
            let spreads = (args.runs >= 4).then(|| (iqr_frac(&a), iqr_frac(&b)));
            let spread_breach =
                def.name != "setup_s" && spreads.is_some_and(|(x, y)| x.max(y) > bound);
            let breach = worse > bound || spread_breach;
            ok &= !breach;
            let pct = |x: f64| format!("{:+.2}%", x * 100.0);
            let (s1, s2) = spreads.map_or(("-".to_string(), "-".to_string()), |(x, y)| {
                (pct(x), pct(y))
            });
            println!(
                "{workload:<14} {:<16} {:>14.6} {:>14.6} {:>9} {:>7} {:>9} {:>9}  {}",
                def.name,
                median(&a),
                median(&b),
                pct(worse),
                pct(bound),
                s1,
                s2,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "repeat check passed"
        } else {
            "REPEAT CHECK FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--out-dir",
            "benchmark/out",
            "--workload",
            "geo-sim",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("geo-sim"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, Some(true)));
        assert_eq!(a.out_dir, PathBuf::from("benchmark/out"));
        let d = parse(&[]).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.runs),
            (1, RUN_SECONDS as f64, None, 1)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse(&["--trace", "1"])
            .unwrap_err()
            .contains("needs --workload"));
        assert!(parse(&["--workload", "geo-sim", "--trace", "2"])
            .unwrap_err()
            .contains("0 or 1"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs"));
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.10);
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.10);
        assert_eq!(worse_by(Better::Higher, 100.0, 125.0), -0.25);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }
}
