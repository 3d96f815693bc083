//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-dir> <head-dir> [--benchmark BENCHMARK.json]
//! perfbench digests
//! ```
//!
//! A run prints its result as the last line of standard output. Scratch
//! directories and span files go under `.bench_build/perfbench/` of the
//! working directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use rats_perfbench::{compare, expected, run, Options, Scale};

const OUT_ROOT: &str = ".bench_build/perfbench";

fn usage() -> String {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     perfbench compare <base-dir> <head-dir> [--benchmark BENCHMARK.json]\n       \
     perfbench digests"
        .to_string()
}

fn parse_run(args: &[String], out_root: PathBuf) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        scale: Scale::Full,
        out_root,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = Duration::from_secs_f64(value.parse().map_err(|e| bad(&e))?)
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if opts.workload.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

fn main_inner() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_root = PathBuf::from(OUT_ROOT);
    std::fs::create_dir_all(&out_root).map_err(|e| format!("{out_root:?}: {e}"))?;
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [base, head] = [args.get(1), args.get(2)].map(|a| a.ok_or_else(usage));
            let benchmark = match args.get(3).map(String::as_str) {
                Some("--benchmark") => args.get(4).ok_or_else(usage)?.as_str(),
                _ => "BENCHMARK.json",
            };
            let text =
                std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
            let base = compare::read_set(Path::new(base?))?;
            let head = compare::read_set(Path::new(head?))?;
            print!("{}", compare::report(&text, &base, &head)?);
            Ok(())
        }
        Some("digests") => {
            println!("{}", expected::recompute(&out_root)?);
            Ok(())
        }
        _ => {
            let opts = parse_run(&args, out_root)?;
            let outcome = run(&opts)?;
            println!("{}", outcome.to_json());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
