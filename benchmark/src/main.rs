//! The repo's benchmark: six workloads on both clocks (host wall time
//! and the sim's virtual time and dollars), with a per-layer replay
//! trace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run (--all | --workload <name>) --seed <n> [--traced] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is one run in this process and ends with one JSON
//! line. `run` starts a child process per workload and run, so that heap
//! state and peak RSS belong to that workload alone.

use std::process::{Command, ExitCode, Stdio};

use lambada_benchmark::metrics::{self, END_TO_END, FAILED_SHARE, PER_LAYER};
use lambada_benchmark::run::{self, RunArgs, RunOutput};
use lambada_benchmark::workload::{self, Workload, RUN_SECONDS, WORKLOADS};
use lambada_benchmark::{compare, json};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  benchmark run (--all | --workload <name>) --seed <n> [--seconds <s>] [--traced] [--quick] [--out FILE]
  benchmark compare A.json B.json
  benchmark list";

/// Where traces and run documents go: `benchmark/out/`, git-ignored.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    all: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = Some(value()?.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => f.trace = true,
            "--quick" => f.quick = true,
            "--all" => f.all = true,
            "--out" => f.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(f)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
    })
}

/// The driver's result line: `correct`, `attempted`, `failed` and the
/// metrics of the kind of run (`--trace 0`: end to end; `1`: per layer).
fn result_line(out: &RunOutput, trace: bool) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.metrics.to_json(names.into_iter()),
    )
}

/// One run in this process. Prints every metric by name with its unit,
/// then the result line.
fn single(f: &Flags) -> Result<ExitCode, String> {
    let workload = find_workload(f.workload.as_deref().ok_or("--workload is required")?)?;
    let args = RunArgs {
        workload,
        seed: f.seed.ok_or("--seed is required")?,
        seconds: f.seconds.ok_or("--seconds is required")?,
        trace: f.trace,
        quick: f.quick,
    };
    let out = run::run(&args);
    let names = if f.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.push(FAILED_SHARE);
        names
    };
    println!(
        "workload {} seed {} ({})",
        workload.name,
        args.seed,
        if f.trace { "traced" } else { "untraced" }
    );
    for name in names {
        let unit = metrics::unit_of(name).unwrap_or("");
        println!("  {name:<52} {:>22} {unit}", json::number(out.metrics.get(name).unwrap_or(0.0)));
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    if let Some(trace) = &out.chrome_trace {
        let dir = out_dir();
        let path = dir.join(format!("{}.trace.json", workload.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace: {}", path.display());
    }
    println!("{}", result_line(&out, f.trace));
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and return its result line.
fn child(
    name: &str,
    f: &Flags,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if f.quick {
        cmd.arg("--quick");
    }
    let output =
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child's human-readable lines pass through; its last line is
    // the result.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("workload {name} exited with {}", output.status));
    }
    json::parse(last).map_err(|e| format!("workload {name}: bad result line: {e}"))
}

/// `run`: every chosen workload in a process of its own, untraced and
/// (with `--traced`) traced; the run document goes to `--out`.
fn run_many(f: &Flags) -> Result<ExitCode, String> {
    let seed = f.seed.ok_or("--seed is required")?;
    let seconds = f.seconds.unwrap_or(RUN_SECONDS);
    let chosen: Vec<&Workload> = match (&f.workload, f.all) {
        (Some(name), false) => vec![find_workload(name)?],
        (None, true) => WORKLOADS.iter().collect(),
        _ => return Err("run takes either --all or --workload <name>".to_string()),
    };
    let mut all_correct = true;
    let mut docs = Vec::new();
    for w in chosen {
        let mut fields = Vec::new();
        let mut correct = true;
        let mut counts = (0.0, 0.0);
        for trace in [false, true] {
            if trace && !f.trace {
                continue;
            }
            let result = child(w.name, f, seed, seconds, trace)?;
            correct &= result.get("correct") == Some(&json::Value::Bool(true));
            if !trace {
                let n = |k| result.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
                counts = (n("attempted"), n("failed"));
            }
            for (name, m) in result.get("metrics").and_then(json::Value::as_object).unwrap_or(&[]) {
                let value = m.get("value").and_then(json::Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::number(value),
                    json::escape(unit)
                ));
            }
        }
        let failed_share = if counts.0 > 0.0 { counts.1 / counts.0 } else { 1.0 };
        fields.push(format!(
            "\"{FAILED_SHARE}\": {{\"value\": {}, \"unit\": \"ratio\"}}",
            json::number(failed_share)
        ));
        all_correct &= correct;
        docs.push(format!(
            "\"{}\": {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            w.name,
            counts.0,
            counts.1,
            fields.join(", ")
        ));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {}, \"workloads\": {{{}}}}}",
        json::number(seconds),
        docs.join(", ")
    );
    let path = match &f.out {
        Some(p) => std::path::PathBuf::from(p),
        None => out_dir().join(format!("run-seed{seed}.json")),
    };
    append_run(&path, &doc)?;
    println!("run document appended to {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run files are JSON arrays of run documents, so that repetitions of
/// one commit accumulate in one file for `compare`.
fn append_run(path: &std::path::Path, doc: &str) -> Result<(), String> {
    let mut runs: Vec<String> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        let existing = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Re-serialising would need a writer; the array's elements are
        // kept as the text between its top-level brackets instead.
        if existing.as_array().is_some_and(|a| !a.is_empty()) {
            let inner = text.trim().trim_start_matches('[').trim_end_matches(']').trim();
            runs.push(inner.to_string());
        }
    }
    runs.push(doc.to_string());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", runs.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_many(&f)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|table| {
                print!("{table}");
                ExitCode::SUCCESS
            }),
            _ => Err("compare takes two run files".to_string()),
        },
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<22} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => parse_flags(&args).and_then(|f| single(&f)),
        None => Err("no arguments".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
