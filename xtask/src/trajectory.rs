//! `cargo xtask trajectory OLD NEW` — the trajectory gate.
//!
//! Reads two benchmark run documents (`benchmark run … --out FILE`, the
//! committed `BENCH_<n>.json`) and holds NEW to OLD on the rows the
//! simulation fixes: for every seed and workload of NEW, each
//! [`GATED`] metric must carry the same bits as OLD's. Those rows are
//! functions of the seed alone — virtual clocks, bills, request and
//! object counts — so a change that moves one has moved what the system
//! does, and must say so and commit the refreshed file. Host rows (wall
//! time, throughput, RSS) compare machines as much as code: they are
//! printed beside OLD's and never gated.
//!
//! The command fails on a gated mismatch, on a seed of NEW that OLD does
//! not have, on a workload or gated metric that one file has and the
//! other lacks for a shared seed, on a workload of NEW that is not
//! `correct`, and on a higher `failed` count than OLD's. A seed of OLD
//! that NEW did not run is fine: CI runs seed 1 against a file of four.
//!
//! `cargo xtask trajectory OLD NEW --moved W…` is the gate for a change
//! that means to move workloads `W…`: their gated rows may differ, and
//! each is printed old → new with its ratio, but a named workload that
//! moved no gated row on a seed fails, as does one NEW does not have.
//! Every other workload is held bit for bit as above.
//!
//! `cargo xtask trajectory --coverage A B` checks `GATED` itself, on two
//! `--all --seed 1 --traced` runs of one commit: it fails on a checked
//! row ([`checked`]) that is bit-equal in A and B on every workload it
//! appears in but is not gated — a row the simulation fixes that no gate
//! holds — and on a gated row that differs between A and B, which reads
//! the host and would fail every gate by chance.
//!
//! The layout it reads is one array of `{seed, seconds, workloads: {name:
//! {correct, attempted, failed, metrics: {name: {value, unit}}}}}`.

use std::collections::BTreeMap;
use std::process::ExitCode;

// The benchmark's own JSON reader and writer, which `benchmark compare`
// reads these files with: xtask takes no dependencies.
#[allow(dead_code)]
#[path = "../../benchmark/src/json.rs"]
mod json;

use json::Value;

/// The metrics held bit-equal. The four end-to-end virtual rows of
/// `BENCHMARK.json` and `sim.steps_per_op`, then every `core.*` and
/// `sim.*` row that repeated bit for bit across two `--all --seed 1
/// --traced` runs of one commit (the others — codec and partition
/// throughputs, driver host milliseconds and shares, the cost model's
/// measured-over-model ratios, the executor's host nanoseconds — read
/// the host clock).
const GATED: [&str; 45] = [
    "op_span_virtual_s",
    "op_span_virtual_p90_s",
    "op_cost_usd",
    "ops_per_virtual_s",
    "sim.steps_per_op",
    "core.driver.stage_exec_virtual_s",
    "core.driver.stage_queue_wait_virtual_s",
    "core.driver.workers_per_op",
    "core.exchange.bytes_left_per_op",
    "core.exchange.bytes_shuffled",
    "core.exchange.objects_left_per_op",
    "core.exchange.read_virtual_s",
    "core.exchange.s3_requests_per_mib",
    "core.exchange.wait_virtual_s",
    "core.exchange.write_virtual_s",
    "core.invoke.cold_span_virtual_s",
    "core.invoke.cold_starts",
    "core.invoke.last_worker_running_virtual_s",
    "core.invoke.virtual_s",
    "core.scan.bytes_read",
    "core.scan.get_requests",
    "core.scan.row_groups_pruned_share",
    "core.service.admission_wait_virtual_p90_s",
    "core.service.admission_wait_virtual_s",
    "core.service.peak_inflight_workers",
    "core.service.request_usd_per_op",
    "core.service.tenant_span_spread",
    "core.streaming.carried_groups_peak",
    "core.streaming.emitted_rows",
    "core.streaming.events_per_virtual_s",
    "core.streaming.generator_lag_virtual_s",
    "core.streaming.late_events",
    "core.streaming.usd_per_million_events",
    "core.transport.p2p_bytes",
    "core.transport.p2p_requests_per_mib",
    "core.transport.s3_requests",
    "core.worker.backup_invocations",
    "core.worker.processing_virtual_s",
    "core.worker.straggler_ratio",
    "sim.billing.lambda_usd",
    "sim.billing.other_usd",
    "sim.billing.s3_request_usd",
    "sim.s3.get_requests",
    "sim.s3.list_requests",
    "sim.s3.put_requests",
];

/// The end-to-end rows of `BENCHMARK.json` that read the virtual clock
/// or the bill; the others (setup, host milliseconds, RSS) read the host.
const VIRTUAL_END_TO_END: [&str; 4] =
    ["op_span_virtual_s", "op_span_virtual_p90_s", "op_cost_usd", "ops_per_virtual_s"];

/// Whether the coverage check reads `metric`: every `core.*` and `sim.*`
/// row and the virtual end-to-end rows.
fn checked(metric: &str) -> bool {
    metric.starts_with("core.")
        || metric.starts_with("sim.")
        || VIRTUAL_END_TO_END.contains(&metric)
}

/// `cargo xtask trajectory OLD NEW` and `cargo xtask trajectory
/// --coverage A B`.
pub fn run(args: &[String]) -> ExitCode {
    let (coverage_check, old, new, moved) = match args {
        [flag, a, b] if flag == "--coverage" => (true, a, b, &[][..]),
        [old, new] => (false, old, new, &[][..]),
        [old, new, flag, moved @ ..] if flag == "--moved" && !moved.is_empty() => {
            (false, old, new, moved)
        }
        _ => {
            eprintln!("usage: cargo xtask trajectory [--coverage] OLD NEW [--moved W…]");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old_runs, new_runs) = match (read(old), read(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask trajectory: {e}");
            return ExitCode::from(2);
        }
    };
    if coverage_check {
        let failures = coverage(&old_runs, &new_runs);
        for f in &failures {
            println!("FAIL {f}");
        }
        if failures.is_empty() {
            println!("xtask trajectory: GATED covers every row that repeats in {old} and {new}");
            return ExitCode::SUCCESS;
        }
        println!("xtask trajectory: {} coverage failure(s)", failures.len());
        return ExitCode::FAILURE;
    }
    let (lines, failures) = compare(&old_runs, &new_runs, moved);
    for line in &lines {
        println!("{line}");
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        let except =
            if moved.is_empty() { String::new() } else { format!(" but {}'s", moved.join(", ")) };
        println!("xtask trajectory: {new} holds every gated row of {old}{except}");
        ExitCode::SUCCESS
    } else {
        println!("xtask trajectory: {} failure(s) of {new} against {old}", failures.len());
        ExitCode::FAILURE
    }
}

/// One workload's row of a run.
#[derive(Debug)]
struct Row {
    correct: bool,
    failed: f64,
    /// Value by metric name.
    metrics: BTreeMap<String, f64>,
}

/// A run document: by seed, by workload.
type Runs = BTreeMap<u64, BTreeMap<String, Row>>;

/// Hold `new` to `old`: the report lines (host rows included) and the
/// failures, empty when `new` passes. The `moved` workloads' gated rows
/// are reported old → new instead, and each must have moved one.
fn compare(old: &Runs, new: &Runs, moved: &[String]) -> (Vec<String>, Vec<String>) {
    let (mut lines, mut failures) = (Vec::new(), Vec::new());
    for name in moved.iter().filter(|w| new.values().all(|rows| !rows.contains_key(*w))) {
        failures.push(format!("{name}: named as moved, but not in the new file"));
    }
    for (seed, new_rows) in new {
        let Some(old_rows) = old.get(seed) else {
            failures.push(format!("seed {seed}: not in the old file"));
            continue;
        };
        for name in old_rows.keys().filter(|w| !new_rows.contains_key(*w)) {
            failures.push(format!("seed {seed} {name}: not in the new file"));
        }
        for (name, n) in new_rows {
            let at = format!("seed {seed} {name}");
            let Some(o) = old_rows.get(name) else {
                failures.push(format!("{at}: not in the old file"));
                continue;
            };
            if !n.correct {
                failures.push(format!("{at}: not correct"));
            }
            if n.failed > o.failed {
                failures.push(format!("{at}: {} failed operations, {} before", n.failed, o.failed));
            }
            let may_move = moved.contains(name);
            let (mut equal, mut rows) = (0, Vec::new());
            for metric in GATED {
                match (o.metrics.get(metric), n.metrics.get(metric)) {
                    (None, None) => {}
                    (Some(a), Some(b)) if a.to_bits() == b.to_bits() => equal += 1,
                    (Some(a), Some(b)) if may_move => {
                        let ratio = if *a != 0.0 { format!("x{:.3}", b / a) } else { "-".into() };
                        rows.push(format!("  moved {metric}: {a} -> {b} ({ratio})"));
                    }
                    (Some(a), Some(b)) => failures.push(format!("{at} {metric}: {b}, {a} before")),
                    (Some(_), None) => failures.push(format!("{at} {metric}: missing")),
                    (None, Some(_)) => failures.push(format!("{at} {metric}: not in the old file")),
                }
            }
            if may_move && rows.is_empty() {
                failures.push(format!("{at}: named as moved, but no gated row moved"));
            }
            lines.push(format!("{at}: {equal} gated rows equal, {} moved", rows.len()));
            lines.append(&mut rows);
            for (metric, b) in n.metrics.iter().filter(|(m, _)| !GATED.contains(&m.as_str())) {
                let Some(a) = o.metrics.get(metric) else { continue };
                let ratio = if *a != 0.0 { format!("x{:.3}", b / a) } else { "-".to_string() };
                lines.push(format!("  host {metric}: {b} ({a} before, {ratio})"));
            }
        }
    }
    (lines, failures)
}

/// Hold [`GATED`] to two runs `a` and `b` of one commit: the failures,
/// empty when every checked row that repeats bit for bit on every
/// workload and seed both runs share is gated, and every gated row
/// repeats. Two runs that share no workload check nothing, and fail.
fn coverage(a: &Runs, b: &Runs) -> Vec<String> {
    let mut failures = Vec::new();
    // By metric: whether it repeated on every shared workload so far.
    let mut repeats: BTreeMap<&str, bool> = BTreeMap::new();
    for (seed, a_rows) in a {
        let Some(b_rows) = b.get(seed) else { continue };
        for (name, x) in a_rows {
            let Some(y) = b_rows.get(name) else { continue };
            for (metric, u) in &x.metrics {
                let Some(v) = y.metrics.get(metric) else { continue };
                let equal = u.to_bits() == v.to_bits();
                *repeats.entry(metric).or_insert(true) &= equal;
                if !equal && GATED.contains(&metric.as_str()) {
                    failures.push(format!("seed {seed} {name} {metric}: gated, but {u} and {v}"));
                }
            }
        }
    }
    if repeats.is_empty() {
        failures.push("the two runs share no workload".to_string());
    }
    let uncovered = repeats.iter().filter(|(m, &equal)| equal && checked(m) && !GATED.contains(m));
    for (metric, _) in uncovered {
        failures.push(format!("{metric}: repeats bit for bit on every workload, but is not gated"));
    }
    failures
}

/// Parse a run document.
fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for run in json::parse(text)?.as_array().ok_or("the document is no array")? {
        let seed = number(run, "seed")?;
        let mut rows = BTreeMap::new();
        for (name, w) in object(run, "workloads")? {
            let metrics = object(w, "metrics")?
                .iter()
                .map(|(metric, m)| Ok((metric.clone(), number(m, "value")?)));
            let row = Row {
                correct: w.get("correct") == Some(&Value::Bool(true)),
                failed: number(w, "failed")?,
                metrics: metrics.collect::<Result<_, String>>()?,
            };
            rows.insert(name.clone(), row);
        }
        if runs.insert(seed as u64, rows).is_some() {
            return Err(format!("seed {seed} twice"));
        }
    }
    Ok(runs)
}

/// The number at `v[key]`.
fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or(format!("`{key}` is no number"))
}

/// The object at `v[key]`.
fn object<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    v.get(key).and_then(Value::as_object).ok_or(format!("`{key}` is no object"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seeds of two workloads, in the benchmark's layout.
    const SAMPLE: &str = r#"[
{"seed": 1, "seconds": 10, "workloads": {"scan_agg": {"correct": true, "attempted": 120, "failed": 0, "metrics": {"host_ms_per_op": {"value": 22.263970750000002, "unit": "ms"}, "op_span_virtual_s": {"value": 0.20997684149999998, "unit": "s"}, "op_cost_usd": {"value": 0.000023650000000000138, "unit": "USD"}, "sim.s3.get_requests": {"value": 8, "unit": "count/op"}}}, "stream_windows": {"correct": true, "attempted": 2400, "failed": 0, "metrics": {"host_ms_per_op": {"value": 1.5, "unit": "ms"}, "op_span_virtual_s": {"value": 0.0625, "unit": "s"}, "core.streaming.late_events": {"value": 0, "unit": "count"}}}}},
{"seed": 2, "seconds": 10, "workloads": {"scan_agg": {"correct": true, "attempted": 120, "failed": 0, "metrics": {"host_ms_per_op": {"value": 21.5, "unit": "ms"}, "op_span_virtual_s": {"value": 0.2101, "unit": "s"}, "op_cost_usd": {"value": 2.365e-5, "unit": "USD"}, "sim.s3.get_requests": {"value": 8, "unit": "count/op"}}}, "stream_windows": {"correct": true, "attempted": 2400, "failed": 0, "metrics": {"host_ms_per_op": {"value": 1.4, "unit": "ms"}, "op_span_virtual_s": {"value": 0.0626, "unit": "s"}, "core.streaming.late_events": {"value": 0, "unit": "count"}}}}}
]"#;

    fn failures(old: &str, new: &str) -> Vec<String> {
        moved_failures(old, new, &[])
    }

    fn moved_failures(old: &str, new: &str, moved: &[&str]) -> Vec<String> {
        let moved: Vec<String> = moved.iter().map(|w| w.to_string()).collect();
        compare(&parse_runs(old).unwrap(), &parse_runs(new).unwrap(), &moved).1
    }

    #[test]
    fn equal_files_pass() {
        let runs = parse_runs(SAMPLE).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[&1]["scan_agg"].metrics["op_cost_usd"], 0.000023650000000000138);
        assert_eq!(failures(SAMPLE, SAMPLE), Vec::<String>::new());
    }

    #[test]
    fn a_one_ulp_move_in_a_gated_metric_fails() {
        let span: f64 = 0.20997684149999998;
        let moved = f64::from_bits(span.to_bits() + 1);
        assert_ne!(format!("{span}"), format!("{moved}"));
        let new = SAMPLE.replacen(&format!("{span}"), &format!("{moved}"), 1);
        let got = failures(SAMPLE, &new);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].starts_with("seed 1 scan_agg op_span_virtual_s"), "{got:?}");
    }

    /// Two one-workload runs of one seed, with a gated row, a checked row
    /// and a host row each taking the given values.
    fn pair(gated: [f64; 2], checked: [f64; 2], host: [f64; 2]) -> (Runs, Runs) {
        let run = |k: usize| {
            let m = |v: f64| format!(r#"{{"value": {v}, "unit": "s"}}"#);
            let text = format!(
                r#"[{{"seed": 1, "seconds": 10, "workloads": {{"scan_agg": {{"correct": true, "attempted": 3, "failed": 0, "metrics": {{"op_span_virtual_s": {}, "core.verify.ms": {}, "host_ms_per_op": {}}}}}}}}}]"#,
                m(gated[k]),
                m(checked[k]),
                m(host[k]),
            );
            parse_runs(&text).unwrap()
        };
        (run(0), run(1))
    }

    #[test]
    fn a_gated_list_that_covers_every_repeating_row_passes() {
        // The checked row and the host row read the host: they differ.
        let (a, b) = pair([0.5, 0.5], [1.5, 1.25], [22.0, 22.0]);
        assert_eq!(coverage(&a, &b), Vec::<String>::new());
    }

    #[test]
    fn a_repeating_checked_row_missing_from_the_list_fails() {
        let (a, b) = pair([0.5, 0.5], [1.5, 1.5], [22.0, 23.0]);
        let got = coverage(&a, &b);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].starts_with("core.verify.ms: repeats"), "{got:?}");
    }

    #[test]
    fn a_gated_row_that_flaps_fails() {
        let (a, b) = pair([0.5, 0.75], [1.5, 1.25], [22.0, 22.0]);
        let got = coverage(&a, &b);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].starts_with("seed 1 scan_agg op_span_virtual_s: gated"), "{got:?}");
    }

    #[test]
    fn a_host_row_move_passes() {
        let new = SAMPLE.replacen("22.263970750000002", "31.0", 1);
        let (lines, failed) =
            compare(&parse_runs(SAMPLE).unwrap(), &parse_runs(&new).unwrap(), &[]);
        assert_eq!(failed, Vec::<String>::new());
        assert!(
            lines.iter().any(|l| l.contains("host host_ms_per_op: 31 (22.263970750000002 before")),
            "{lines:?}"
        );
    }

    /// `SAMPLE` with seed 1's `scan_agg` span moved by one ulp.
    fn scan_agg_moved() -> String {
        let span: f64 = 0.20997684149999998;
        SAMPLE.replacen(&format!("{span}"), &format!("{}", f64::from_bits(span.to_bits() + 1)), 1)
    }

    #[test]
    fn a_workload_named_as_moved_may_move_and_is_printed() {
        let new = scan_agg_moved();
        let moved = ["scan_agg".to_string()];
        let (lines, failed) =
            compare(&parse_runs(SAMPLE).unwrap(), &parse_runs(&new).unwrap(), &moved);
        // Seed 2's `scan_agg` did not move: that alone fails.
        assert_eq!(failed, vec!["seed 2 scan_agg: named as moved, but no gated row moved"]);
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("  moved op_span_virtual_s: 0.20997684149999998 -> ")
                    && l.ends_with("(x1.000)")),
            "{lines:?}"
        );
    }

    #[test]
    fn a_workload_named_as_moved_that_did_not_move_fails() {
        let got = moved_failures(SAMPLE, SAMPLE, &["stream_windows"]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got
            .iter()
            .all(|f| f.ends_with("stream_windows: named as moved, but no gated row moved")));
        let got = moved_failures(SAMPLE, SAMPLE, &["join_shuffle"]);
        assert_eq!(got, vec!["join_shuffle: named as moved, but not in the new file"]);
    }

    #[test]
    fn a_workload_not_named_as_moved_is_still_held() {
        let got = moved_failures(SAMPLE, &scan_agg_moved(), &["stream_windows"]);
        assert!(got.iter().any(|f| f.starts_with("seed 1 scan_agg op_span_virtual_s")), "{got:?}");
    }
}
