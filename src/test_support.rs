//! Shared helpers for the golden `.pir` corpora under `tests/analyze/`.
//!
//! Six corpora share the `; expect:` header convention: the lint corpus
//! (`tests/analyze/*.pir`), the validator pairs
//! (`tests/analyze/validate/*.{src,tgt}.pir`) and the four analysis
//! corpora (`tests/analyze/{absint,alias,scev,depend}/*.pir`). Parsing
//! the header lives here once so the convention cannot drift between
//! suites.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Reads the `; expect: <code>, <code>` header of a golden corpus file.
/// An empty code list (a bare `; expect:`) means "must lint clean".
/// Panics when the header is missing, so a new corpus file cannot
/// accidentally pin nothing.
pub fn expected_codes(text: &str) -> BTreeSet<String> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("; expect:") {
            return rest
                .split(',')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect();
        }
    }
    panic!("corpus file is missing its '; expect:' header");
}

/// Reads the `; expect: proved|refuted|inconclusive` header of a
/// validator-corpus target file.
pub fn expected_verdict(text: &str) -> String {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("; expect:") {
            let v = rest.trim().to_string();
            assert!(
                matches!(v.as_str(), "proved" | "refuted" | "inconclusive"),
                "unknown expected verdict '{v}'"
            );
            return v;
        }
    }
    panic!("target file is missing its '; expect:' header");
}

/// The files of one golden corpus directory whose name ends in `suffix`
/// (e.g. `".pir"` or `".src.pir"`), sorted for deterministic iteration.
/// Subdirectories are skipped: each corpus owns exactly one directory.
pub fn corpus_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("corpus directory {} exists: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().ends_with(suffix))
        })
        .collect();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_codes_are_trimmed_and_deduplicated() {
        let codes = expected_codes("; expect: a, b , a\nmodule \"m\"\n");
        assert_eq!(codes.len(), 2);
        assert!(codes.contains("a") && codes.contains("b"));
    }

    #[test]
    fn bare_header_means_clean() {
        assert!(expected_codes("; expect:\nmodule \"m\"\n").is_empty());
    }

    #[test]
    #[should_panic(expected = "missing its '; expect:' header")]
    fn missing_header_panics() {
        expected_codes("module \"m\"\n");
    }

    #[test]
    #[should_panic(expected = "unknown expected verdict")]
    fn unknown_verdict_panics() {
        expected_verdict("; expect: maybe\n");
    }

    #[test]
    fn verdict_header_round_trips() {
        assert_eq!(expected_verdict("; expect: proved\n"), "proved");
        assert_eq!(expected_verdict("; expect:  refuted \n"), "refuted");
    }
}
