//! `legostore-benchmark`: see README.md beside this package's manifest.

use legostore_benchmark::catalog;
use legostore_benchmark::cli::{repeat_check, run_all, run_leaf, Args, USAGE};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", catalog::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    let problems = catalog::validate();
    if !problems.is_empty() {
        eprintln!("the metric catalog breaks its contract: {problems:#?}");
        return ExitCode::from(2);
    }
    if args.trace.is_none() {
        let ok = if args.repeat_check {
            repeat_check(&args)
        } else {
            run_all(&args)
        };
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let result = match run_leaf(&args, process_start) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("could not write the trace: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", result.table());
    match result.result_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("no result line: {e}");
            return ExitCode::from(2);
        }
    }
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
