//! `cargo xtask lint`, the offline workspace linter; `cargo xtask loc`,
//! the size count that code-size targets are set in; and `cargo xtask
//! trajectory OLD NEW`, the gate that holds a benchmark run to a
//! committed one on every row the simulation fixes ([`trajectory`]) —
//! with `--coverage A B`, the check that its gated list holds every row
//! two runs of one commit repeat.
//!
//! `lint` enforces repo invariants neither the compiler nor clippy can
//! see, as the second layer of the static-analysis pass (`core::verify`
//! checks plans at runtime; this checks sources at CI time). The
//! hot-path panic rule is clippy's: the worker, driver and exchange
//! files and the kernels they run on bytes off the wire deny
//! `unwrap_used`, `expect_used`, `panic` and `unreachable` themselves.
//! Dependency-free by design — the vendor tree carries no `syn`, so
//! everything here is line-based scanning over [`code_only`]-stripped
//! text:
//!
//! 1. **doc-variant** — every `StageKind` and `TransportKind` variant
//!    is named in `docs/OPERATORS.md`, so the operator reference can't
//!    silently fall behind the planner or the transports.
//! 2. **doc-metric** — every public `WorkerMetrics` field is named in
//!    `docs/OPERATORS.md`'s stage-report metric table.
//! 3. **wire-stability** — every public struct/enum in the wire-format
//!    module (`crates/core/src/message.rs`) carries a doc comment with
//!    a `Wire stability` note.
//! 4. **free-staging** — nothing under `crates/core/src` calls
//!    `ObjectStore::stage`, which stores with no latency, billing or
//!    bandwidth: it is for data that exists before a run starts, so
//!    nothing the system does at run time may use it.
//! 5. **hand-counted-requests** — no non-test code under
//!    `crates/core/src` adds to a request counter ([`REQUEST_COUNTERS`])
//!    outside a *tally fold*, a function that takes a `Tally`: a stage's
//!    requests are what its clients counted where the cloud billed them,
//!    never a count kept beside the calls.
//! 6. **env-knob** — no non-test code under `crates/{core,sim,engine,
//!    format,workloads}/src` reads the process environment
//!    (`std::env::var`, `var_os`, `vars`): a knob set from outside is a
//!    setting no config struct shows, and no run records. The sweep
//!    sizes of `crates/bench` are not in those crates: a bench may read
//!    its scale from the environment.
//! 7. **sim-free-plan** — no non-test code of the launch planner
//!    (`crates/core/src/plan.rs`) names the simulation ([`SIM_NAMES`]:
//!    `Cloud`, `Simulation`, `SimHandle`, a service or its client) or is
//!    `async`: a plan is a value of the DAG, the tables and the configs,
//!    built and tested without a cloud.
//!
//! Findings print as `path:line: [rule] message`; the process exits
//! nonzero when any are found, so CI fails the build.
//!
//! `loc` prints the non-test, non-comment line count ([`counted_lines`])
//! of every first-party crate and of every file under `crates/core/src`,
//! then the settable values of the config structs ([`settable_values`]),
//! and exits nonzero when those exceed [`MAX_SETTABLE_VALUES`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod trajectory;

struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("loc") => loc(),
        Some("trajectory") => trajectory::run(&args.collect::<Vec<_>>()),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint, loc, trajectory");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask <lint|loc|trajectory [--coverage] OLD NEW>");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();

    let docs = read_or_report(&root.join("docs/OPERATORS.md"), "doc-variant", &mut findings);
    let stage_src =
        read_or_report(&root.join("crates/core/src/stage.rs"), "doc-variant", &mut findings);
    let transport_src =
        read_or_report(&root.join("crates/core/src/transport.rs"), "doc-variant", &mut findings);
    let message_src =
        read_or_report(&root.join("crates/core/src/message.rs"), "wire-stability", &mut findings);

    if let (Some(docs), Some(stage_src)) = (&docs, &stage_src) {
        lint_doc_variants(
            &root.join("crates/core/src/stage.rs"),
            stage_src,
            "StageKind",
            docs,
            &mut findings,
        );
    }
    if let (Some(docs), Some(transport_src)) = (&docs, &transport_src) {
        lint_doc_variants(
            &root.join("crates/core/src/transport.rs"),
            transport_src,
            "TransportKind",
            docs,
            &mut findings,
        );
    }
    if let (Some(docs), Some(message_src)) = (&docs, &message_src) {
        lint_doc_metrics(
            &root.join("crates/core/src/message.rs"),
            message_src,
            docs,
            &mut findings,
        );
    }
    if let Some(message_src) = &message_src {
        lint_wire_stability(&root.join("crates/core/src/message.rs"), message_src, &mut findings);
    }

    let mut core_files = Vec::new();
    match rs_files(&root.join("crates/core/src"), &mut core_files) {
        Ok(()) => {
            for path in &core_files {
                if let Some(src) = read_or_report(path, "free-staging", &mut findings) {
                    lint_free_staging(path, &src, &mut findings);
                    lint_hand_counted_requests(path, &src, &mut findings);
                }
            }
        }
        Err(e) => findings.push(Finding {
            path: root.join("crates/core/src"),
            line: 0,
            rule: "free-staging",
            message: format!("cannot list sources: {e}"),
        }),
    }

    let plan = root.join("crates/core/src/plan.rs");
    if let Some(src) = read_or_report(&plan, "sim-free-plan", &mut findings) {
        lint_sim_free_plan(&plan, &src, &mut findings);
    }

    for krate in KNOBLESS_CRATES {
        let mut files = Vec::new();
        let dir = root.join("crates").join(krate).join("src");
        if let Err(e) = rs_files(&dir, &mut files) {
            let message = format!("cannot list sources: {e}");
            findings.push(Finding { path: dir, line: 0, rule: "env-knob", message });
        }
        for path in &files {
            if let Some(src) = read_or_report(path, "env-knob", &mut findings) {
                lint_env_knobs(path, &src, &mut findings);
            }
        }
    }

    if findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The lines of a source file the size criteria count: everything above
/// the first column-0 `#[cfg(test)]`, minus blank lines and `//` comment
/// lines. Equal by construction to
/// `awk '/^#\[cfg\(test\)\]/{exit} {print}' f | grep -v '^\s*//' | grep -v '^\s*$' | wc -l`.
fn counted_lines(src: &str) -> usize {
    src.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under `dir`, recursively, in path order, with its
/// [`counted_lines`].
fn count_tree(dir: &Path, out: &mut Vec<(PathBuf, usize)>) -> std::io::Result<()> {
    let mut files = Vec::new();
    rs_files(dir, &mut files)?;
    for path in files {
        let lines = counted_lines(&std::fs::read_to_string(&path)?);
        out.push((path, lines));
    }
    Ok(())
}

fn loc() -> ExitCode {
    let root = workspace_root();
    let crates = ["sim", "format", "engine", "core", "workloads", "baselines", "bench"];
    let mut sources: Vec<(String, PathBuf)> =
        crates.iter().map(|c| (format!("crates/{c}"), root.join("crates").join(c))).collect();
    sources.push(("xtask".to_string(), root.join("xtask")));
    sources.push(("lambada (facade)".to_string(), root.clone()));

    println!("non-test, non-comment lines (above the first `#[cfg(test)]`)");
    let mut total = 0;
    let mut core_src = String::new();
    for (name, dir) in &sources {
        let mut files = Vec::new();
        if let Err(e) = count_tree(&dir.join("src"), &mut files) {
            eprintln!("xtask loc: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let lines: usize = files.iter().map(|(_, n)| n).sum();
        total += lines;
        println!("  {name:<24} {lines:>6}");
        if name == "crates/core" {
            for (path, n) in &files {
                let shown = path.strip_prefix(dir.join("src")).unwrap_or(path);
                println!("    {:<22} {n:>6}", shown.display());
                match std::fs::read_to_string(path) {
                    Ok(src) => core_src.push_str(&src),
                    Err(e) => {
                        eprintln!("xtask loc: {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!("  {:<24} {total:>6}", "total");

    println!("settable values (public config fields; a config-struct field is expanded below)");
    let mut lines = Vec::new();
    let values: usize =
        CONFIG_ROOTS.iter().map(|root| settable_values(&core_src, root, 1, &mut lines)).sum();
    lines.iter().for_each(|line| println!("{line}"));
    println!("  {:<24} {values:>6}", "total");
    match settable_within(values, MAX_SETTABLE_VALUES) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask loc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The most settable values the config structs may hold. A knob needs a
/// measured reason to exist, so a change that adds one raises this in its
/// own diff, where review sees it.
const MAX_SETTABLE_VALUES: usize = 33;

/// `Err` naming the overrun when `values` exceeds `max`.
fn settable_within(values: usize, max: usize) -> Result<(), String> {
    if values <= max {
        return Ok(());
    }
    Err(format!(
        "{values} settable values exceed MAX_SETTABLE_VALUES ({max}); \
         an added option raises the constant in xtask/src/main.rs"
    ))
}

/// The `crates/core` structs a caller configures the system through:
/// the installation's config and the per-query and per-stream ones.
const CONFIG_ROOTS: [&str; 3] = ["LambadaConfig", "ExecPolicy", "StreamSpec"];

/// Append to `out` one line for struct `name` — its own settable values
/// and their names — followed by the structs its fields nest, indented
/// one level deeper, and return the count over all of them. A field
/// counts as one value unless its type is a struct with public fields
/// in `src`, which is expanded instead.
fn settable_values(src: &str, name: &str, depth: usize, out: &mut Vec<String>) -> usize {
    let at = out.len();
    out.push(String::new());
    let (mut own, mut nested) = (Vec::new(), 0);
    for (field, ty) in struct_fields(src, name) {
        if struct_fields(src, &ty).is_empty() {
            own.push(field);
        } else {
            nested += settable_values(src, &ty, depth + 1, out);
        }
    }
    let pad = "  ".repeat(depth);
    out[at] = format!("{pad}{name:<w$} {:>6}  {}", own.len(), own.join(" "), w = 26 - pad.len());
    own.len() + nested
}

/// The workspace root: xtask always runs via cargo, which sets the
/// manifest dir to `<root>/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let p = PathBuf::from(manifest);
    p.parent().map(Path::to_path_buf).unwrap_or(p)
}

fn read_or_report(path: &Path, rule: &'static str, findings: &mut Vec<Finding>) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: 0,
                rule,
                message: format!("cannot read file: {e}"),
            });
            None
        }
    }
}

/// Strip line comments, block comments, and string literals from one
/// line, so `{}` inside format strings or comments never trips brace
/// tracking, nor a name inside them a match. `in_block` carries block
/// comment state across lines.
fn code_only(line: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => break,
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                *in_block = true;
                i += 2;
            }
            b'"' => {
                // Skip the string literal (escape-aware); keep a marker
                // so `.expect("...")` still reads as `.expect("")`.
                out.push_str("\"\"");
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Extract the variant names of `pub enum <name>` from source text.
fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let header = format!("pub enum {name}");
    let mut in_block = false;
    let mut variants = Vec::new();
    let mut inside = false;
    let mut depth = 0i64;
    for raw in src.lines() {
        let code = code_only(raw, &mut in_block);
        if !inside {
            if code.contains(&header) {
                inside = true;
                depth = 0;
                for c in code.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
            }
            continue;
        }
        let trimmed = code.trim();
        // A variant line at depth 1 starts with an uppercase identifier.
        if depth == 1 {
            let ident: String =
                trimmed.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push(ident);
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth <= 0 {
            break;
        }
    }
    variants
}

fn lint_doc_variants(
    path: &Path,
    src: &str,
    enum_name: &str,
    docs: &str,
    findings: &mut Vec<Finding>,
) {
    let variants = enum_variants(src, enum_name);
    if variants.is_empty() {
        findings.push(Finding {
            path: path.to_path_buf(),
            line: 0,
            rule: "doc-variant",
            message: format!("could not find any variants of `pub enum {enum_name}`"),
        });
        return;
    }
    for v in variants {
        if !docs.contains(&v) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: 0,
                rule: "doc-variant",
                message: format!("{enum_name}::{v} is not mentioned in docs/OPERATORS.md"),
            });
        }
    }
}

/// Extract the `pub <field>: <type>` pairs of `pub struct <name> { ... }`.
fn struct_fields(src: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("pub struct {name}");
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut in_block = false;
    let mut fields = Vec::new();
    let mut inside = false;
    for raw in src.lines() {
        let code = code_only(raw, &mut in_block);
        if !inside {
            // The whole name: `pub struct Scan` is not `pub struct ScanConfig`.
            let after = code.find(&header).map(|at| code[at + header.len()..].chars().next());
            inside = after.is_some_and(|next| !next.is_some_and(is_ident));
            continue;
        }
        let trimmed = code.trim();
        if trimmed.starts_with('}') {
            break;
        }
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let ident = rest[..colon].trim();
                if ident.chars().all(is_ident) && !ident.is_empty() {
                    let ty = rest[colon + 1..].trim().trim_end_matches(',');
                    fields.push((ident.to_string(), ty.to_string()));
                }
            }
        }
    }
    fields
}

fn lint_doc_metrics(path: &Path, src: &str, docs: &str, findings: &mut Vec<Finding>) {
    let fields = struct_fields(src, "WorkerMetrics");
    if fields.is_empty() {
        findings.push(Finding {
            path: path.to_path_buf(),
            line: 0,
            rule: "doc-metric",
            message: "could not find any fields of `pub struct WorkerMetrics`".to_string(),
        });
        return;
    }
    for (f, _) in fields {
        if !docs.contains(&f) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: 0,
                rule: "doc-metric",
                message: format!(
                    "WorkerMetrics::{f} is not documented in docs/OPERATORS.md's metric table"
                ),
            });
        }
    }
}

/// Every public type in the wire-format module needs a `Wire stability`
/// doc note, so codec discipline (append-only fields, frozen tags) is
/// stated where the next editor will read it.
fn lint_wire_stability(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = src.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        let is_pub_type = (trimmed.starts_with("pub struct ") || trimmed.starts_with("pub enum "))
            && raw.starts_with("pub"); // top-level only (no indentation)
        if !is_pub_type {
            continue;
        }
        // Walk back over the doc/attribute/derive block above the item.
        let mut noted = false;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let above = lines[j].trim_start();
            if above.starts_with("///") || above.starts_with("#[") {
                if above.contains("Wire stability") {
                    noted = true;
                    break;
                }
            } else {
                break;
            }
        }
        if !noted {
            let name = trimmed
                .trim_start_matches("pub struct ")
                .trim_start_matches("pub enum ")
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
                .unwrap_or("")
                .to_string();
            findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "wire-stability",
                message: format!("public wire type `{name}` has no `Wire stability` doc note"),
            });
        }
    }
}

/// `ObjectStore::stage` puts an object for free and at once. A call to
/// it — `.stage(`, or `::stage(` — in code (comments and strings
/// stripped) is a finding: every byte the system moves at run time must
/// go through a modelled, billed path.
fn lint_free_staging(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let mut in_block = false;
    for (idx, raw) in src.lines().enumerate() {
        let code = code_only(raw, &mut in_block);
        if code.contains(".stage(") || code.contains("::stage(") {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "free-staging",
                message: "calls `ObjectStore::stage`, which stores for free; \
                          only data that exists before a run may be staged"
                    .to_string(),
            });
        }
    }
}

/// The crates whose sources may not read the process environment.
const KNOBLESS_CRATES: [&str; 5] = ["core", "sim", "engine", "format", "workloads"];

/// A read of the process environment — `env::var(`, `env::var_os(` or
/// `env::vars(`, by any path — in code above the first column-0
/// `#[cfg(test)]` (comments and strings stripped) is a finding.
fn lint_env_knobs(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let mut in_block = false;
    for (idx, raw) in src.lines().enumerate() {
        if raw.starts_with("#[cfg(test)]") {
            break;
        }
        let code = code_only(raw, &mut in_block);
        if ["env::var(", "env::var_os(", "env::vars("].iter().any(|call| code.contains(call)) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "env-knob",
                message: "reads the process environment; a setting belongs in a config struct"
                    .to_string(),
            });
        }
    }
}

/// What the launch planner may not name: the cloud handle, the
/// simulation and its clock, the simulated services and their clients,
/// and async code.
const SIM_NAMES: [&str; 15] = [
    "Cloud",
    "CloudState",
    "WeakCloud",
    "Simulation",
    "SimHandle",
    "ObjectStore",
    "S3Client",
    "QueueService",
    "SqsClient",
    "FaasService",
    "FaasCaller",
    "P2pService",
    "P2pClient",
    "async",
    "await",
];

/// A whole identifier of [`SIM_NAMES`] in code above the first column-0
/// `#[cfg(test)]` (comments and strings stripped) is a finding:
/// `CloudConfig` is a config, not the cloud, and passes.
fn lint_sim_free_plan(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let mut in_block = false;
    for (idx, raw) in src.lines().enumerate() {
        if raw.starts_with("#[cfg(test)]") {
            break;
        }
        let code = code_only(raw, &mut in_block);
        let mut words = code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        if let Some(name) = words.find(|w| SIM_NAMES.contains(w)) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "sim-free-plan",
                message: format!(
                    "the planner names `{name}`; a plan reads the DAG, the tables and the \
                     configs, never the simulation"
                ),
            });
        }
    }
}

/// The request counters of a stage's report (`WorkerMetrics`, and the
/// `StageReport` sums of them).
const REQUEST_COUNTERS: [&str; 10] = [
    "get_requests",
    "put_requests",
    "list_requests",
    "hedged_gets",
    "hedged_puts",
    "p2p_requests",
    "p2p_bytes",
    "bytes_read",
    "bytes_written",
    "sqs_requests",
];

/// The counter `code` adds to with `+=`, if any: the name as a whole
/// identifier, then `+=`.
fn added_counter(code: &str) -> Option<&'static str> {
    REQUEST_COUNTERS.into_iter().find(|name| {
        code.match_indices(name).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            let whole = !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            whole && code[at + name.len()..].trim_start().starts_with("+=")
        })
    })
}

/// A `+=` to a request counter in code above the first column-0
/// `#[cfg(test)]` (comments and strings stripped) is a finding, unless
/// it lies in the body of a function whose signature names `Tally`.
fn lint_hand_counted_requests(path: &Path, src: &str, findings: &mut Vec<Finding>) {
    let mut in_block = false;
    // Brace depth, the depth of the signature being read (and whether it
    // names `Tally`), and the depth of the tally fold being walked.
    let (mut depth, mut signature, mut fold) = (0i64, None::<(i64, bool)>, None::<i64>);
    for (idx, raw) in src.lines().enumerate() {
        if raw.starts_with("#[cfg(test)]") {
            break;
        }
        let code = code_only(raw, &mut in_block);
        if signature.is_none() && fold.is_none() && code.contains("fn ") {
            signature = Some((depth, false));
        }
        if let Some((at, tallied)) = signature {
            let tallied = tallied || code.contains("Tally");
            signature = Some((at, tallied));
            if code.contains('{') || code.contains(';') {
                fold = (tallied && code.contains('{')).then_some(at);
                signature = None;
            }
        }
        if let (Some(name), None) = (added_counter(&code), fold) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "hand-counted-requests",
                message: format!(
                    "adds to `{name}` by hand; a stage's requests are its clients' tally, \
                     folded by `WorkerMetrics::add`"
                ),
            });
        }
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if fold.is_some_and(|at| depth <= at) {
            fold = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(line: &str) -> String {
        let mut in_block = false;
        code_only(line, &mut in_block)
    }

    #[test]
    fn code_only_strips_comments_and_strings() {
        assert_eq!(strip("let x = 1; // .unwrap()"), "let x = 1; ");
        assert_eq!(
            strip(r#"let m = format!("call .unwrap() {}", x);"#),
            "let m = format!(\"\", x);"
        );
        assert_eq!(strip("a /* panic!( */ b"), "a  b");
        assert_eq!(strip(r#"let s = "brace { inside";"#), "let s = \"\";");
    }

    #[test]
    fn code_only_tracks_block_comments_across_lines() {
        let mut in_block = false;
        assert_eq!(code_only("before /* start", &mut in_block), "before ");
        assert!(in_block);
        assert_eq!(code_only(".unwrap() still comment", &mut in_block), "");
        assert_eq!(code_only("end */ after", &mut in_block), " after");
        assert!(!in_block);
    }

    #[test]
    fn enum_variants_and_struct_fields_parse() {
        let src = "/// doc\npub enum StageKind {\n    Scan(ScanStage),\n    Join(JoinStage),\n    \
                   AggMerge(AggMergeStage),\n    Sort(SortStage),\n}\n";
        assert_eq!(enum_variants(src, "StageKind"), vec!["Scan", "Join", "AggMerge", "Sort"]);
        let src = "pub struct WorkerMetrics {\n    /// doc\n    pub rows_in: u64,\n    pub cold_start: bool,\n}\n";
        let names: Vec<String> =
            struct_fields(src, "WorkerMetrics").into_iter().map(|f| f.0).collect();
        assert_eq!(names, vec!["rows_in", "cold_start"]);
    }

    /// A field whose type is a config struct is expanded, not counted;
    /// one of any other type — a private-field struct included — is one
    /// value, and a name that only prefixes another struct's is no match.
    #[test]
    fn settable_values_expand_nested_config_structs() {
        let src = "pub struct Root {\n    pub a: u32,\n    pub inner: Inner,\n    pub gate: Option<Gate>,\n}\n\
                   pub struct InnerX {\n    pub wrong: u8,\n}\n\
                   pub struct Inner {\n    /// doc\n    pub b: f64,\n    pub c: Duration,\n}\n\
                   pub struct Gate {\n    cap: usize,\n}\n";
        let mut lines = Vec::new();
        assert_eq!(settable_values(src, "Root", 1, &mut lines), 4);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("  Root ") && lines[0].ends_with("2  a gate"), "{}", lines[0]);
        assert!(lines[1].starts_with("    Inner ") && lines[1].ends_with("2  b c"), "{}", lines[1]);
    }

    /// The settable-values gate passes at its maximum and fails one past
    /// it, naming the constant to raise.
    #[test]
    fn settable_values_past_the_maximum_fail() {
        assert_eq!(settable_within(39, 39), Ok(()));
        assert_eq!(settable_within(0, 39), Ok(()));
        let err = settable_within(40, 39).unwrap_err();
        assert!(err.contains("40") && err.contains("MAX_SETTABLE_VALUES"), "{err}");
    }

    /// A call to `stage`, by method or by path, is a finding; the name in
    /// a comment or a string, a field named `stage` and another method
    /// that ends in it are not.
    #[test]
    fn free_staging_flags_calls_to_stage() {
        let mut findings = Vec::new();
        let src = "cloud.s3.stage(&bucket, &key, body);\n\
                   // s3.stage(&b, &k, body) in a comment\n\
                   let m = \"s3.stage(\";\n\
                   let kind = &dag.stages[sid];\n\
                   let s = task.stage.clone();\n\
                   ObjectStore::stage(&store, \"b\", \"k\", body);\n\
                   let t = self.stage_task(&scope);\n\
                   let u = self.upstage(x);\n";
        lint_free_staging(Path::new("c.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![1, 6],
            "{:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        assert!(findings.iter().all(|f| f.rule == "free-staging"));
    }

    /// A `+=` to a request counter is a finding outside a function that
    /// takes a `Tally` and allowed inside one, a signature over several
    /// lines included; another field, a counter named in a comment or a
    /// string, a mere read and the test module are not findings.
    #[test]
    fn hand_counted_requests_are_flagged_outside_the_tally_folds() {
        let mut findings = Vec::new();
        let src = "impl WorkerMetrics {\n\
                   \x20   pub fn add(&mut self, tally: Tally) {\n\
                   \x20       self.get_requests += tally.gets;\n\
                   \x20   }\n\
                   }\n\
                   fn report(m: &mut WorkerMetrics) -> u64 {\n\
                   \x20   m.put_requests += 1;\n\
                   \x20   m.rows_out += 1; // m.get_requests += 1\n\
                   \x20   let s = \"bytes_read += 1\";\n\
                   \x20   m.p2p_bytes\n\
                   }\n\
                   fn fold(\n\
                   \x20   m: &mut StageReport,\n\
                   \x20   tally: Tally,\n\
                   ) {\n\
                   \x20   m.hedged_gets += tally.hedged_gets;\n\
                   }\n\
                   fn after() {\n\
                   \x20   stats.bytes_written+=2;\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(m: &mut WorkerMetrics) { m.bytes_read += 1; }\n\
                   }\n";
        lint_hand_counted_requests(Path::new("c.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![7, 19],
            "{:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        assert!(findings.iter().all(|f| f.rule == "hand-counted-requests"));
        assert!(findings[0].message.contains("`put_requests`"), "{}", findings[0].message);
    }

    /// A read of the environment is a finding in code, by any path; the
    /// name in a comment or a string, another function named `var`, a
    /// `CARGO_*` compile-time `env!` and the test module are not.
    #[test]
    fn env_knobs_are_flagged_outside_tests() {
        let mut findings = Vec::new();
        let src = "let n = std::env::var(\"LAMBADA_N\").ok();\n\
                   // std::env::var(\"X\") in a comment\n\
                   let s = \"env::var(\";\n\
                   let v = config.var(3);\n\
                   let dir = env!(\"CARGO_MANIFEST_DIR\");\n\
                   use std::env;\n\
                   let o = env::var_os(\"HOME\");\n\
                   for (k, v) in env::vars() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t() { let _ = std::env::var(\"T\"); }\n\
                   }\n";
        lint_env_knobs(Path::new("k.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![1, 7, 8],
            "{:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        assert!(findings.iter().all(|f| f.rule == "env-knob"));
    }

    /// A planted simulator name or async code is a finding; `CloudConfig`,
    /// a name in a comment or a string, and the test module are not.
    #[test]
    fn sim_free_plan_flags_the_simulation_outside_tests() {
        let mut findings = Vec::new();
        let src = "pub fn plan(cloud: &CloudConfig) -> u64 { 1 }\n\
                   // needs no Cloud or Simulation\n\
                   let s = \"SimHandle\";\n\
                   pub fn bad(cloud: &Cloud) {}\n\
                   pub async fn worse() { x.await }\n\
                   let c = lambada_sim::services::queue::SqsClient::new();\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(sim: &Simulation) {}\n\
                   }\n";
        lint_sim_free_plan(Path::new("plan.rs"), src, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![4, 5, 6],
            "{:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        assert!(findings.iter().all(|f| f.rule == "sim-free-plan"));
        assert!(findings[0].message.contains("`Cloud`"), "{}", findings[0].message);
    }

    #[test]
    fn wire_stability_requires_note() {
        let mut findings = Vec::new();
        let src = "/// Wire stability: append-only.\npub struct A { pub x: u64 }\n\n\
                   /// No note here.\npub struct B { pub y: u64 }\n";
        lint_wire_stability(Path::new("m.rs"), src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`B`"), "{}", findings[0].message);
    }
}
