//! `cargo xtask lint` — the offline workspace linter — and
//! `cargo xtask loc`, the size count the simplicity issues measure.
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
//!
//! Findings print as `path:line: [rule] message`; the process exits
//! nonzero when any are found, so CI fails the build.
//!
//! `loc` prints the non-test, non-comment line count ([`counted_lines`])
//! of every first-party crate and of every file under `crates/core/src`,
//! then the settable values of the config structs ([`settable_values`]).

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint, loc");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask <lint|loc>");
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

/// Every `.rs` file under `dir`, recursively, in path order, with its
/// [`counted_lines`].
fn count_tree(dir: &Path, out: &mut Vec<(PathBuf, usize)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            count_tree(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push((path.clone(), counted_lines(&std::fs::read_to_string(&path)?)));
        }
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
    ExitCode::SUCCESS
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
