//! Documentation link check: every relative markdown link in README.md
//! and docs/*.md must point at a file that exists in the repository, so
//! cross-references between the README, ARCHITECTURE, and OPERATORS
//! documents cannot rot as the tree moves. Runs as part of `cargo test`.

use std::path::{Path, PathBuf};

/// Extract the targets of inline markdown links `[text](target)` from
/// one document. Good enough for this repo's hand-written markdown: it
/// ignores fenced code blocks (where `](` sequences are code, not
/// links) and inline code spans.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("](") {
            let after = &rest[pos + 2..];
            let Some(end) = after.find(')') else { break };
            out.push(after[..end].to_string());
            rest = &after[end + 1..];
        }
    }
    out
}

#[test]
fn markdown_cross_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut documents: Vec<PathBuf> = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            documents.push(path);
        }
    }
    assert!(documents.len() >= 3, "README + at least two docs, got {documents:?}");
    // The operator contracts and their machine-checked counterpart must
    // both stay in the checked set — the verifier's diagnostic table
    // cross-links into OPERATORS.md line by line.
    for required in ["OPERATORS.md", "VERIFIER.md"] {
        assert!(
            documents.iter().any(|d| d.file_name().is_some_and(|n| n == required)),
            "docs/{required} missing from the link check"
        );
    }

    let mut broken = Vec::new();
    let mut checked = 0usize;
    for doc in &documents {
        let text = std::fs::read_to_string(doc).unwrap();
        for target in link_targets(&text) {
            // External links and pure in-page anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            // Strip a trailing anchor from a file link.
            let file_part = target.split('#').next().unwrap();
            let resolved = doc.parent().unwrap().join(file_part);
            checked += 1;
            if !resolved.exists() {
                broken.push(format!("{}: {target}", doc.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken markdown links:\n{}", broken.join("\n"));
    assert!(checked > 0, "the link extractor found no relative links at all");
}
