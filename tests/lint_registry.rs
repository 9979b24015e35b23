//! Lint-registry completeness (the `--list-lints` contract).
//!
//! Three sources must agree on the set of lint codes:
//!
//! 1. the `codes` module in `crates/analyze/src/diag.rs` — the
//!    declaration site every analysis emits through;
//! 2. `diag::registry()` — the machine-readable table behind
//!    `mini-analyze --list-lints`;
//! 3. the README analysis matrix — the human-facing documentation.
//!
//! A code declared but never emitted, emitted but unregistered, or
//! registered but undocumented is a drift bug this test pins.
//!
//! The same drift check covers the `POSETRL_*` environment variables:
//! the names the library sources read must equal the README's
//! "Environment variables" list, and every name CI sets must be read by
//! some source or test harness.
//!
//! One design rule rides along: every content-addressed cache goes
//! through `posetrl_analyze::Memo`, so no library source outside
//! `crates/analyze/src/memo.rs` names the `BoundedMap` under it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses `pub const IDENT: &str = "code";` declarations out of the
/// `codes` module source.
fn declared_codes() -> BTreeSet<(String, String)> {
    let src = repo_file("crates/analyze/src/diag.rs");
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("pub const ") else {
            continue;
        };
        let Some((ident, rhs)) = rest.split_once(": &str = \"") else {
            continue;
        };
        let Some((code, _)) = rhs.split_once('"') else {
            continue;
        };
        out.insert((ident.trim().to_string(), code.to_string()));
    }
    out
}

#[test]
fn every_declared_code_is_registered_and_vice_versa() {
    let declared: BTreeSet<String> = declared_codes().into_iter().map(|(_, c)| c).collect();
    assert!(
        declared.len() >= 21,
        "suspiciously few declared codes: {declared:?}"
    );
    let registered: BTreeSet<String> = posetrl_analyze::diag::registry()
        .iter()
        .map(|l| l.code.to_string())
        .collect();
    assert_eq!(
        declared, registered,
        "diag::codes and diag::registry() must list the same codes"
    );
}

#[test]
fn every_declared_code_is_emitted_somewhere() {
    // each `codes::IDENT` must appear at least once outside diag.rs —
    // a declaration nothing emits is dead registry weight
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/analyze/src");
    let sources: Vec<String> = rust_sources(&root)
        .into_iter()
        .filter(|p| p.file_name().is_some_and(|n| n != "diag.rs"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    assert!(sources.len() >= 10, "analyze source tree looks truncated");
    let all = sources.concat();
    for (ident, code) in declared_codes() {
        assert!(
            all.contains(&format!("codes::{ident}")),
            "codes::{ident} (\"{code}\") is declared but never emitted by any analysis"
        );
    }
}

#[test]
fn every_registered_code_is_documented_in_the_readme_matrix() {
    let readme = repo_file("README.md");
    let matrix: String = readme
        .lines()
        .filter(|l| l.starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        matrix.contains("| Analysis | Module | Lints |"),
        "README analysis matrix header moved"
    );
    for l in posetrl_analyze::diag::registry() {
        assert!(
            matrix.contains(&format!("`{}`", l.code)),
            "lint `{}` ({}) is missing from the README analysis matrix",
            l.code,
            l.analysis
        );
    }
}

#[test]
fn list_lints_json_round_trips_the_registry() {
    // the exact payload `mini-analyze --list-lints` prints
    let json = serde_json::to_string_pretty(&posetrl_analyze::diag::registry()).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    let arr = parsed.as_array().expect("registry serializes as an array");
    assert_eq!(arr.len(), posetrl_analyze::diag::registry().len());
    let json_codes: BTreeSet<&str> = arr
        .iter()
        .map(|e| e["code"].as_str().expect("every entry has a code"))
        .collect();
    for l in posetrl_analyze::diag::registry() {
        assert!(json_codes.contains(l.code), "`{}` missing in JSON", l.code);
        let entry = arr
            .iter()
            .find(|e| e["code"].as_str() == Some(l.code))
            .unwrap();
        assert!(
            entry["severity"].as_str().is_some() && entry["analysis"].as_str().is_some(),
            "`{}` entry lacks severity/analysis fields",
            l.code
        );
    }
}

/// The `.rs` files under `dir`, recursively.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out
}

/// The library sources: `crates/*/src`, minus the standalone benchmark
/// harness (its own package, not part of the library).
fn crate_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = root.join("crates/bench/src/bin/benchmark");
    let mut out = Vec::new();
    for e in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = e.unwrap().path().join("src");
        if src.is_dir() {
            out.extend(rust_sources(&src));
        }
    }
    out.retain(|p| !p.starts_with(&benchmark));
    assert!(out.len() >= 50, "crate source tree looks truncated");
    out
}

/// Every `POSETRL_*` name in `text`, with the character just before and
/// just after it (`"` around a string literal, `*` after a family glob).
fn env_names(text: &str) -> Vec<(Option<char>, String, Option<char>)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("POSETRL_") {
        let len = text[at..]
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(text.len() - at);
        let name = &text[at..at + len];
        out.push((
            text[..at].chars().next_back(),
            name.to_string(),
            text[at + len..].chars().next(),
        ));
    }
    out
}

/// The `"POSETRL_…"` string literals in `files`.
fn env_literals(files: &[PathBuf]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in files {
        let text = std::fs::read_to_string(f).unwrap();
        for (before, name, after) in env_names(&text) {
            if before == Some('"') && after == Some('"') {
                out.insert(name);
            }
        }
    }
    out
}

#[test]
fn every_env_variable_the_crates_read_is_in_the_readme_list() {
    let readme = repo_file("README.md");
    let section = readme
        .split_once("\n## Environment variables\n")
        .expect("README has an \"Environment variables\" section")
        .1;
    let section = section.split("\n## ").next().unwrap();
    let documented: BTreeSet<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect();
    assert!(
        !documented.is_empty(),
        "the README environment table lists no variables"
    );
    let read = env_literals(&crate_sources());
    assert_eq!(
        read, documented,
        "the POSETRL_* names read in crates/*/src must equal the README \"Environment variables\" list"
    );
}

#[test]
fn every_env_variable_ci_sets_is_read_somewhere() {
    let ci = repo_file(".github/workflows/ci.yml");
    let set: BTreeSet<String> = env_names(&ci)
        .into_iter()
        .filter(|(_, _, after)| *after != Some('*'))
        .map(|(_, name, _)| name)
        .collect();
    assert!(!set.is_empty(), "ci.yml sets no POSETRL_* variable");
    let mut files = crate_sources();
    files.extend(rust_sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests"),
    ));
    let read = env_literals(&files);
    let unread: Vec<&String> = set.difference(&read).collect();
    assert!(
        unread.is_empty(),
        "ci.yml sets {unread:?}, which no source under crates/*/src or tests/ reads"
    );
}

#[test]
fn only_the_memo_module_names_the_bounded_map() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let naming: Vec<PathBuf> = crate_sources()
        .into_iter()
        .filter(|p| std::fs::read_to_string(p).unwrap().contains("BoundedMap"))
        .map(|p| p.strip_prefix(root).unwrap().to_path_buf())
        .collect();
    assert_eq!(
        naming,
        [PathBuf::from("crates/analyze/src/memo.rs")],
        "caches must use posetrl_analyze::Memo rather than wrap their own BoundedMap"
    );
}
