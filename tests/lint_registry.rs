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
//! Design rules ride along: every content-addressed cache goes
//! through `posetrl_analyze::Memo`, so no library source outside
//! `crates/analyze/src/memo.rs` names the `BoundedMap` under it; and the
//! module analyses are chained only by `posetrl_analyze::ModuleAnalyses`,
//! so the per-analysis shortcuts that chained them by hand stay deleted
//! and no other code calls the scev or depend module drivers. Two more
//! keep one home each: a lookup through an optional memo goes through
//! `posetrl_analyze::memo::memoized`, and only the call graph absint and
//! alias share builds the address-taken set.

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

/// Every `.rs` file under `crates/`, `src/`, `tests/` and `examples/`
/// (build outputs excluded), with its repo-relative path; this file,
/// which names the deleted entry points, is left out.
fn all_rust_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for p in rust_sources(&root.join(dir)) {
            let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
            if rel.split('/').any(|c| c == "target") || rel == "tests/lint_registry.rs" {
                continue;
            }
            out.push((rel, std::fs::read_to_string(&p).unwrap()));
        }
    }
    assert!(out.len() >= 100, "source tree looks truncated");
    out
}

/// Occurrences of `pat` in `text` that are whole identifiers or paths
/// (no identifier character on either side) and end with `suffix`.
fn token_count(text: &str, pat: &str, suffix: &str) -> usize {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    text.match_indices(pat)
        .filter(|(i, _)| {
            let rest = &text[i + pat.len()..];
            !ident(text[..*i].chars().next_back())
                && !ident(rest.chars().next())
                && rest.starts_with(suffix)
        })
        .count()
}

#[test]
fn only_module_analyses_chains_the_analyses() {
    // the shortcuts that chained absint -> alias -> scev -> depend by hand
    let deleted: [(&str, &[&str]); 7] = [
        ("absint/mod.rs", &["analyze_module", "check", "check_with"]),
        ("alias/mod.rs", &["analyze_module", "check"]),
        (
            "scev/mod.rs",
            &[
                "analyze_module",
                "analyze_module_with",
                "analyze_module_cfg",
                "check",
            ],
        ),
        (
            "depend/mod.rs",
            &["analyze_module", "analyze_module_with", "check"],
        ),
        ("profile/mod.rs", &["analyze_module", "analyze_module_with"]),
        (
            "absint/features.rs",
            &["module_features", "features_with", "features_with_alias"],
        ),
        ("analyses/mod.rs", &["run_all_with"]),
    ];
    let mut found = Vec::new();
    for (rel, text) in all_rust_sources() {
        for (file, names) in deleted {
            let module = file.trim_end_matches(".rs").trim_end_matches("/mod");
            let module = module.rsplit('/').next().unwrap();
            for name in names {
                let defined = rel == format!("crates/analyze/src/{file}")
                    && (token_count(&text, &format!("fn {name}"), "(") > 0
                        || token_count(&text, &format!("fn {name}"), "<") > 0);
                let path = token_count(&text, &format!("{module}::{name}"), "");
                // features and the lint suite's twin were called unqualified
                let bare = [
                    "module_features",
                    "features_with",
                    "features_with_alias",
                    "run_all_with",
                ]
                .contains(name)
                    && token_count(&text, name, "(") > 0;
                if defined || path > 0 || bare {
                    found.push(format!("{rel}: {module}::{name}"));
                }
            }
        }
        // the manager-less lint suite and the crate-root absint shortcut
        if token_count(&text, "fn run_all(m: &Module", "") > 0
            || token_count(&text, "posetrl_analyze::analyze_module", "") > 0
        {
            found.push(format!("{rel}: a manager-less shortcut"));
        }
    }
    assert!(
        found.is_empty(),
        "deleted analysis entry points are back: {found:#?}"
    );

    // the scev and depend drivers take their upstream results as
    // arguments; only the bundle supplies them (plus the scev unit test
    // that lowers the trip budget)
    let mut callers = BTreeSet::new();
    for (rel, text) in all_rust_sources() {
        for driver in ["analyze_module_cfg_absint", "analyze_module_full"] {
            let calls = token_count(&text, driver, "(");
            let defs = token_count(&text, &format!("fn {driver}"), "(");
            if calls > defs {
                callers.insert((rel.clone(), driver));
            }
        }
    }
    let expected = BTreeSet::from([
        (
            "crates/analyze/src/bundle.rs".to_string(),
            "analyze_module_cfg_absint",
        ),
        (
            "crates/analyze/src/bundle.rs".to_string(),
            "analyze_module_full",
        ),
        (
            "crates/analyze/src/scev/mod.rs".to_string(),
            "analyze_module_cfg_absint",
        ),
    ]);
    assert_eq!(
        callers, expected,
        "chain the analyses through ModuleAnalyses"
    );
}

/// The library lines of every `.rs` file under `dir` — those before the
/// file's first `#[cfg(test)]`, comment lines dropped — as
/// `(repo-relative path, 1-based line number, line)`.
fn library_lines(dir: &str) -> Vec<(String, usize, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for p in rust_sources(&root.join(dir)) {
        let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&p).unwrap();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("#[cfg(test)]") {
                break;
            }
            if !trimmed.starts_with("//") {
                out.push((rel.clone(), i + 1, line.to_string()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn only_the_memo_helper_branches_on_an_optional_memo() {
    // a caller holding an optional manager or cache computes through
    // `memo::memoized`, which builds the key only when a memo is present;
    // a direct `get_or_compute` call is a hand-written "with a memo /
    // without one" branch. `validate::refine` (never stores a refutation)
    // and `cache::memoized_step` (rewrites the module in place) keep their
    // own `Memo::get`/`insert` on purpose and are not matched.
    let mut found = Vec::new();
    for dir in ["crates/analyze/src", "crates/core/src"] {
        for (rel, n, line) in library_lines(dir) {
            if rel != "crates/analyze/src/memo.rs" && token_count(&line, "get_or_compute", "(") > 0
            {
                found.push(format!("{rel}:{n}"));
            }
        }
    }
    assert!(
        found.is_empty(),
        "memoize through posetrl_analyze::memo::memoized: {found:#?}"
    );
}

#[test]
fn only_the_shared_call_graph_builds_an_address_taken_set() {
    let found: Vec<String> = library_lines("crates/analyze/src")
        .into_iter()
        .filter(|(rel, _, line)| {
            rel != "crates/analyze/src/callgraph.rs"
                && (line.contains("if let Value::Func(")
                    || token_count(line, "address_taken.insert", "(") > 0)
        })
        .map(|(rel, n, _)| format!("{rel}:{n}"))
        .collect();
    assert!(
        found.is_empty(),
        "read the address-taken set off callgraph::CallGraph: {found:#?}"
    );
}
