//! The registry in code against `BENCHMARK.json`, and a `--quick` run of
//! every workload through the driver's command line.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use lambada_benchmark::json::{self, Value};
use lambada_benchmark::metrics::{END_TO_END, PER_LAYER};
use lambada_benchmark::workload::{RUN_SECONDS, WORKLOADS};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_and_the_registry_agree() {
    let doc = benchmark_json();
    assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS));

    let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
    let listed: Vec<(&str, &str)> =
        workloads.iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, coded);
    for (name, why) in listed {
        assert!(is_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one line of at most 200");
    }

    let end_to_end = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    let listed: Vec<_> = end_to_end
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let coded: Vec<_> =
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better.as_str(), m.bound)).collect();
    assert_eq!(listed, coded);
    assert!(coded.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    assert!(coded.iter().any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));

    let per_layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
    let listed: Vec<_> =
        per_layer.iter().map(|m| (text(m, "name"), text(m, "unit"), text(m, "better"))).collect();
    let coded: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better.as_str())).collect();
    assert_eq!(listed, coded);
    assert!(coded.len() <= 128);

    let mut names = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(is_name(name), "metric name `{name}`");
        assert!(is_unit(unit), "unit `{unit}` of `{name}`");
        assert!(names.insert(name), "`{name}` is used twice");
    }
}

/// One `--quick` run through the driver's command line; returns the
/// parsed result line.
fn quick(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// The metrics of a result line as (name, value); a name printed twice
/// would show up twice.
fn metrics(result: &Value) -> Vec<(&str, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            (name.as_str(), m.get("value").and_then(Value::as_f64).expect("a finite number"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_exactly_once_and_fails_no_op() {
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = quick(w.name, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{}", w.name);
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{}: failed_share is 0",
                w.name
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let got = metrics(&result);
            let names: Vec<&str> = got.iter().map(|m| m.0).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(names, want, "{} trace {trace}", w.name);
            if !trace {
                // End-to-end metrics are never 0.
                assert!(got.iter().all(|m| m.1 > 0.0), "{}: {got:?}", w.name);
            } else if w.name == "join_shuffle" {
                trace_is_loadable_and_has_the_span_tree();
            }
        }
    }
}

/// Checked right after the traced `join_shuffle` run above wrote it (a
/// test of its own would race that run for the file).
fn trace_is_loadable_and_has_the_span_tree() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/join_shuffle.trace.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("the trace file")).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    // name -> names of parents seen.
    let spans: Vec<(&str, Option<f64>, f64)> = events
        .iter()
        .filter(|e| text(e, "ph") == "X")
        .map(|e| {
            let args = e.get("args").unwrap();
            (
                text(e, "name"),
                args.get("parent").and_then(Value::as_f64),
                args.get("id").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let name_of = |id: f64| spans.iter().find(|s| s.2 == id).unwrap().0;
    let has_edge = |parent: &str, child: &str| {
        spans.iter().any(|s| s.0 == child && s.1.is_some_and(|p| name_of(p) == parent))
    };
    for (parent, child) in [
        ("run", "session"),
        ("session", "setup"),
        ("setup", "generate"),
        ("setup", "encode"),
        ("setup", "stage"),
        ("session", "op"),
        ("op", "plan"),
        ("op", "verify"),
        ("op", "execute"),
        ("op", "replay"),
        ("replay", "pipeline"),
        ("replay", "join_probe"),
    ] {
        assert!(has_edge(parent, child), "no `{child}` span under `{parent}`");
    }
}
