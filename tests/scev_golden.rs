//! Golden corpus for the scalar-evolution + static-profile analysis: `tests/analyze/scev/` pins the scev lint
//! codes (`infinite-loop`, `iv-overflow`) exactly (DESIGN.md §15). The checks are the shared
//! table-driven harness in `tests/golden/mod.rs`, run on the `scev` row of
//! `posetrl_analyze::suite::ANALYSES`.

mod golden;

#[test]
fn scev_corpus_produces_exactly_the_expected_codes() {
    golden::corpus_produces_exactly_the_expected_codes("scev");
}

#[test]
fn scev_lints_are_clean_on_the_example_modules() {
    golden::lints_are_clean_on_the_example_modules("scev");
}

#[test]
fn scev_dump_mode_is_stable_on_the_training_suite() {
    golden::dump_is_stable_on_the_training_suite("scev");
}
