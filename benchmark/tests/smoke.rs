//! Tiny-scale smoke test of the benchmark's metric plumbing: every
//! workload named in `BENCHMARK.json` runs untraced and traced, and each
//! run must emit exactly the metrics `BENCHMARK.json` lists for its mode,
//! with the listed unit and better-direction.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

/// `(name, unit, better)` of every metric in one `BENCHMARK.json` list.
fn listed(bench: &Value, list: &str) -> Vec<(String, String, String)> {
    field(bench, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                text(m, "name").into(),
                text(m, "unit").into(),
                text(m, "better").into(),
            )
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse(&raw).expect("BENCHMARK.json parses")
}

/// Run one tiny-scale benchmark invocation and return its stdout.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cerl-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Check one run's output against the metrics listed for its mode.
fn check(stdout: &str, expected: &[(String, String, String)], what: &str) {
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{what}");
    assert!(
        matches!(field(&result, "attempted"), Value::UInt(n) if *n >= 1),
        "{what}"
    );
    let metrics = field(&result, "metrics")
        .as_object()
        .expect("metrics object");
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(emitted, names, "{what}: emitted metric names");
    for (name, unit, better) in expected {
        let m = &metrics.iter().find(|(k, _)| k == name).expect("emitted").1;
        assert_eq!(text(m, "unit"), unit, "{what}: unit of {name}");
        assert!(matches!(
            field(m, "value"),
            Value::Float(_) | Value::UInt(_) | Value::Int(_)
        ));
        let line = format!("metric {name} = ");
        let printed = stdout
            .lines()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("{what}: no line for {name}"));
        assert!(
            printed.ends_with(&format!(" {unit} (better: {better})")),
            "{what}: {printed}"
        );
    }
}

#[test]
fn every_workload_emits_every_listed_metric() {
    let bench = benchmark_json();
    let end_to_end = listed(&bench, "end_to_end");
    let per_layer = listed(&bench, "per_layer");
    let workloads: Vec<String> = field(&bench, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name").into())
        .collect();
    assert_eq!(workloads, ["small_net", "scatter_net", "train_publish"]);
    for w in &workloads {
        check(&run(w, 5, 0), &end_to_end, &format!("{w} untraced"));
        check(&run(w, 5, 1), &per_layer, &format!("{w} traced"));
    }
}

#[test]
fn train_publish_is_deterministic_per_seed() {
    let digest = |stdout: String| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("final_snapshot_digest=").map(str::to_owned))
            .expect("the run prints its final snapshot digest")
    };
    let a = digest(run("train_publish", 9, 0));
    assert_eq!(a, digest(run("train_publish", 9, 0)));
    assert_ne!(a, digest(run("train_publish", 10, 0)));
}
