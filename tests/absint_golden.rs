//! Golden corpus for the interprocedural abstract interpreter: `tests/analyze/absint/` pins the absint lint
//! codes (`range-trap`, `null-deref`, `dead-branch`) exactly (DESIGN.md §11). The checks are the shared
//! table-driven harness in `tests/golden/mod.rs`, run on the `absint` row of
//! `posetrl_analyze::suite::ANALYSES`.

mod golden;

#[test]
fn absint_corpus_produces_exactly_the_expected_codes() {
    golden::corpus_produces_exactly_the_expected_codes("absint");
}

#[test]
fn absint_lints_are_clean_on_the_example_modules() {
    golden::lints_are_clean_on_the_example_modules("absint");
}

#[test]
fn absint_dump_mode_is_stable_on_the_training_suite() {
    golden::dump_is_stable_on_the_training_suite("absint");
}
