//! Golden corpus for the loop data-dependence analysis: `tests/analyze/depend/` pins the depend lint
//! codes (`loop-carried-uaf`, `overlap-copy`) exactly (DESIGN.md §16). The checks are the shared
//! table-driven harness in `tests/golden/mod.rs`, run on the `depend` row of
//! `posetrl_analyze::suite::ANALYSES`.

mod golden;

#[test]
fn depend_corpus_produces_exactly_the_expected_codes() {
    golden::corpus_produces_exactly_the_expected_codes("depend");
}

#[test]
fn depend_lints_are_clean_on_the_example_modules() {
    golden::lints_are_clean_on_the_example_modules("depend");
}

#[test]
fn depend_dump_mode_is_stable_on_the_training_suite() {
    golden::dump_is_stable_on_the_training_suite("depend");
}
