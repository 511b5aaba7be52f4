//! `warper-benchmark`: one command runs one workload at one seed through the
//! system's whole lifecycle — set-up → serve → bulk estimate → ingest →
//! drift + adapt → checkpoint → recover — verifies every answer, prints
//! every metric by name with its unit, and ends with one JSON result line.
//!
//! ```text
//! warper-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! warper-benchmark compare <dirA> <dirB>
//! ```
//!
//! An end-to-end run spawns itself once per pass (`--pass <i>`, not for use
//! by hand): see `run.rs`.

mod catalogue;
mod compare;
mod gen;
mod host;
mod layers;
mod phases;
mod report;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = workloads::all().iter().map(|s| s.name).collect();
    eprintln!(
        "usage: warper-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       warper-benchmark compare <dirA> <dirB> [--bounds <BENCHMARK.json>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out = None;
    // Set by a run for the processes it spawns, one per pass.
    let mut pass = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = workloads::by_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 1.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out" => out = Some(std::path::PathBuf::from(value)),
            "--pass" => {
                pass = Some(value.parse::<usize>().ok().filter(|p| *p < run::PASSES));
            }
            _ => return usage(),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(traced)) = (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("benchmark/results"));
    match pass {
        Some(Some(pass)) if !traced => {
            println!("{}", run::pass(&spec, seed, pass, seconds, &out).to_json());
            return ExitCode::SUCCESS;
        }
        Some(_) => return usage(),
        None => {}
    }
    let result = if traced {
        layers::run(&spec, seed, seconds, &out)
    } else {
        run::run(&spec, seed, seconds, &out)
    };
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
