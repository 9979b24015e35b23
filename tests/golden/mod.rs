//! Golden-corpus harness shared by the lint-producing analyses, driven
//! by one row of [`posetrl_analyze::suite::ANALYSES`]. Each
//! `tests/<name>_golden.rs` is the entry point for one row (`cargo test
//! --test depend_golden` runs one).
//!
//! Every `.pir` file under `tests/analyze/<name>/` carries an
//! `; expect: <code>, <code>` header naming exactly the lint codes the
//! analysis must produce for it; a bare header pins a false-positive
//! guard. The files double as living documentation of what each analysis
//! can and cannot prove (DESIGN.md §11, §14–§16). Each analysis must also
//! render deterministically, stay quiet at warning severity on the
//! lint-clean example programs, and terminate with a stable dump on the
//! generated training workloads.

use posetrl_analyze::suite::{self, Analysis};
use posetrl_analyze::Severity;
use posetrl_ir::parser::parse_module;
use posetrl_suite::test_support::{corpus_files, expected_codes};
use std::collections::BTreeSet;
use std::path::Path;

fn row(name: &str) -> &'static Analysis {
    suite::find(name).expect("the analysis is in the table")
}

pub fn corpus_produces_exactly_the_expected_codes(name: &str) {
    let a = row(name);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/analyze")
        .join(a.name);
    let files = corpus_files(&dir, ".pir");
    assert!(
        files.len() >= 10,
        "{}: corpus has at least 10 modules",
        a.name
    );

    let mut positives = 0usize;
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = expected_codes(&text);
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        posetrl_ir::verifier::verify_module(&m).unwrap_or_else(|e| panic!("{name} verifies: {e}"));

        let mut diags = Vec::new();
        let dump = (a.report)(&m, &mut diags);
        let got: BTreeSet<String> = diags.iter().map(|d| d.code.to_string()).collect();
        assert_eq!(
            got, expected,
            "{name}: {} codes diverge from header",
            a.name
        );
        positives += diags.len();

        // the dump mode must render every corpus module deterministically
        assert!(
            dump.contains(&format!("module {}", m.name)),
            "{name}: dump names the module"
        );
        assert_eq!(
            dump,
            (a.report)(&m, &mut Vec::new()),
            "{name}: two runs render identically"
        );
    }
    assert!(
        positives >= 10,
        "{}: the corpus must pin at least 10 true positives, got {positives}",
        a.name
    );
}

pub fn lints_are_clean_on_the_example_modules(name: &str) {
    let a = row(name);
    // zero false positives at warning severity on the lint-clean example
    // programs (advisory notes are excluded)
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/ir");
    for path in corpus_files(&dir, ".pir") {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        let mut diags = Vec::new();
        (a.check)(&m, &mut diags);
        let findings: Vec<_> = diags
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .collect();
        assert!(
            findings.is_empty(),
            "{name}: unexpected {} findings {findings:?}",
            a.name
        );
    }
}

pub fn dump_is_stable_on_the_training_suite(name: &str) {
    let a = row(name);
    // the analysis must terminate and render deterministically on every
    // generated workload, not just the hand-written corpus
    for b in posetrl_workloads::suites::training_suite().iter().take(8) {
        assert_eq!(
            (a.report)(&b.module, &mut Vec::new()),
            (a.report)(&b.module, &mut Vec::new()),
            "{}: nondeterministic {} dump",
            b.name,
            a.name
        );
    }
}

#[test]
fn every_table_entry_has_a_golden_entry_point() {
    for a in suite::ANALYSES {
        let file = format!("tests/{}_golden.rs", a.name);
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(&file).is_file(),
            "{}: no {file}",
            a.name
        );
    }
}
