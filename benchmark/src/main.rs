//! `ibis-e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>`
//!
//! Checks every output against the oracle, then prints each metric by name
//! with its unit and, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed gate or any
//! error exits non-zero before a single metric line.

use ibis_e2e::fixture::WORKLOADS;
use ibis_e2e::oracle::Sabotage;
use ibis_e2e::runner::{run, Args};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ibis-e2e --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--out <dir>] [--sabotage count|selection] [--verbose]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        spec: WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        // inside the benchmark's own directory, wherever the checkout is
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        sabotage: Sabotage::None,
        verbose: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--sabotage" => {
                args.sabotage = match value()?.as_str() {
                    "count" => Sabotage::Count,
                    "selection" => Sabotage::Selection,
                    other => return Err(format!("unknown sabotage {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    args.spec = *WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "unknown workload {name}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv).and_then(|args| run(&args)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ibis-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("ibis-e2e: metric {} is not finite", bad.name);
        return ExitCode::from(2);
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
