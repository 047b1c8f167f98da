//! Drives the built binary through the whole contract at `--smoke` sizes:
//! every workload prints every metric `BENCHMARK.json` names, a sabotaged
//! output aborts before any number, and count-type metrics repeat exactly.

use ibis_insitu::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"))
}

fn run(workload: &str, tag: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ibis-e2e"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "0.2",
        ])
        .args(["--out", out_dir(tag).to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn ibis-e2e")
}

/// The metrics of the final JSON line, by name.
fn metrics(out: &Output) -> BTreeMap<String, (f64, String)> {
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the last line is JSON");
    assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(doc.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        panic!("no metrics object in {last}");
    };
    entries
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                (
                    m.get("value").and_then(Json::as_num).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                ),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark_json();
    for workload in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let got = metrics(&run(&workload, "contract", &["--trace", trace]));
            let want: Vec<String> = names(&spec, key);
            assert_eq!(
                got.keys().cloned().collect::<Vec<_>>(),
                {
                    let mut sorted = want.clone();
                    sorted.sort();
                    sorted
                },
                "{workload} --trace {trace}"
            );
            for m in spec.get(key).and_then(Json::as_arr).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                let unit = m.get("unit").and_then(Json::as_str).unwrap();
                assert_eq!(got[name].1, unit, "{workload}: unit of {name}");
                if key == "end_to_end" {
                    assert!(got[name].0 > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
        let trace = out_dir("contract").join(format!("{workload}.trace.json"));
        let doc = json::parse(&std::fs::read_to_string(&trace).expect("trace file")).unwrap();
        assert!(!doc.get("spans").and_then(Json::as_arr).unwrap().is_empty());
        assert!(
            !out_dir("contract").read_dir().unwrap().any(|e| e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("scratch-")),
            "{workload} left its scratch directory behind"
        );
    }
}

#[test]
fn a_wrong_answer_aborts_before_any_number() {
    for (workload, sabotage) in [
        ("ocean_flat_batch", "count"),
        ("heat3d_flat_batch", "selection"),
        ("ocean_shard_evict", "count"),
    ] {
        let out = run(workload, "sabotage", &["--sabotage", sabotage]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{workload} --sabotage {sabotage}"
        );
        assert!(
            out.stdout.is_empty(),
            "no metric line may follow a failed gate: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("oracle") || stderr.contains("full data selects"),
            "{stderr}"
        );
    }
}

#[test]
fn count_type_metrics_repeat_exactly_for_one_seed() {
    let spec = benchmark_json();
    let exact_units = ["count", "bytes"];
    for workload in names(&spec, "workloads") {
        let a = metrics(&run(&workload, "repeat-a", &["--trace", "1"]));
        let b = metrics(&run(&workload, "repeat-b", &["--trace", "1"]));
        for (name, (value, unit)) in &a {
            // fallback_used reports the machine's weather, not the program
            if exact_units.contains(&unit.as_str()) && name != "noise.fallback_used" {
                assert_eq!(*value, b[name].0, "{workload}: {name}");
            }
        }
        let a = metrics(&run(&workload, "repeat-a", &["--trace", "0"]));
        let b = metrics(&run(&workload, "repeat-b", &["--trace", "0"]));
        assert_eq!(
            a["stored_bytes_per_raw_byte"], b["stored_bytes_per_raw_byte"],
            "{workload}"
        );
    }
}

#[test]
fn unknown_arguments_fail_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_ibis-e2e"))
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
