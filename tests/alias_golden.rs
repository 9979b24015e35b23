//! Golden corpus for the interprocedural alias analysis: `tests/analyze/alias/` pins the alias lint
//! codes (`alias-uaf`, `store-dead`, `uninit-load`, `const-write`) exactly (DESIGN.md §14). The checks are the shared
//! table-driven harness in `tests/golden/mod.rs`, run on the `alias` row of
//! `posetrl_analyze::suite::ANALYSES`.

mod golden;

#[test]
fn alias_corpus_produces_exactly_the_expected_codes() {
    golden::corpus_produces_exactly_the_expected_codes("alias");
}

#[test]
fn alias_lints_are_clean_on_the_example_modules() {
    golden::lints_are_clean_on_the_example_modules("alias");
}

#[test]
fn alias_dump_mode_is_stable_on_the_training_suite() {
    golden::dump_is_stable_on_the_training_suite("alias");
}
