//! `dsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload from the repository root and prints a summary, then
//! one JSON result line:
//! `{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run. Scratch files and spans files go to
//! `.dsbench/` under the current directory. Exits 2 on bad arguments and
//! 1 when the run cannot start; neither prints a result line.

use dsbench::{run, Outcome, Params, Workload};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: dsbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        dsbench::workload::NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 40.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: ".dsbench".into(),
    })
}

/// Caps the library's pool at the machine's core count: the benchmark
/// is one process with one client, and more workers than cores would
/// measure the scheduler instead of the library.
fn limit_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("DS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let threads = asked.map_or(cores, |n| n.min(cores));
    std::env::set_var("DS_THREADS", threads.to_string());
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dsbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    limit_threads();
    match run(&params) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsbench: {}: {e}", params.workload.name);
            ExitCode::from(1)
        }
    }
}
