//! The incremental-analysis equivalence contract (PR 7).
//!
//! `IncrementalAnalysisManager` memoizes per-function embeddings, lint
//! bundles, absint summaries, alias/memdep results (PR 8) and validate
//! obligations by content keys.
//! The contract is **bit-identity**: for any module reachable by any
//! pass pipeline, the incremental path must return exactly the results
//! of the from-scratch path — same embedding bits, same findings, same
//! summaries, same verdicts. These tests drive random pipelines over the
//! checked-in `.pir` corpora (examples/ir + the analyze/validate golden
//! files) and check the equivalence after every single step, with one
//! manager persisting across the whole pipeline so hits really happen.
//!
//! The second half pins *invalidation propagation* on hand-built call
//! graphs: a local edit recomputes exactly the edited function, an edit
//! that moves a return summary additionally recomputes the callers whose
//! view changed (transitively), and nothing else — observed through the
//! manager's recompute log.
//!
//! `POSETRL_INCREMENTAL_SWEEP=1` (nightly CI) additionally sweeps the
//! training corpus through fixed 15-action episodes, counts bit
//! mismatches (hard gate: zero) and archives warm-path timings to
//! `results/incremental_sweep.json` (hard gate: incremental at least 2x
//! faster than from-scratch on the warm episode encode path).

use posetrl_analyze::{
    absint, alias, depend, run_all, run_all_with, scev, validate_transform,
    validate_transform_with, IncrementalAnalysisManager, ValidateConfig,
};
use posetrl_embed::Embedder;
use posetrl_ir::parser::parse_module;
use posetrl_ir::{digest_str, function_fingerprint, Module};
use posetrl_odg::ActionSpace;
use posetrl_opt::manager::PassManager;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Every checked-in `.pir` module: examples plus the golden corpora.
fn corpus() -> Vec<(String, Module)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let dirs = [
        format!("{root}/examples/ir"),
        format!("{root}/tests/analyze"),
        format!("{root}/tests/analyze/absint"),
    ];
    let mut out = Vec::new();
    for dir in dirs {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pir"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).unwrap();
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            match parse_module(&text) {
                Ok(m) => out.push((name, m)),
                Err(_) => continue, // a golden file may pin a parse error
            }
        }
    }
    assert!(out.len() >= 20, "corpus unexpectedly small: {}", out.len());
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Embeds through the manager exactly the way `PhaseEnv::encode` does.
fn embed_incremental(
    embedder: &Embedder,
    cfg_digest: u128,
    m: &Module,
    mgr: &IncrementalAnalysisManager,
) -> Vec<f64> {
    embedder.embed_module_with(m, |e, f| {
        mgr.embed
            .get_or_compute(&f.name, (function_fingerprint(m, f), cfg_digest), || {
                Arc::new(e.embed_function(f))
            })
    })
}

/// Asserts the three analysis products are bit-identical incremental vs
/// from-scratch on `m`.
fn assert_equivalent(
    ctx: &str,
    m: &Module,
    mgr: &IncrementalAnalysisManager,
    embedder: &Embedder,
    cfg_digest: u128,
) {
    let full_embed = embedder.embed_module(m);
    let inc_embed = embed_incremental(embedder, cfg_digest, m, mgr);
    assert_eq!(
        bits(&full_embed),
        bits(&inc_embed),
        "{ctx}: embedding bits diverged"
    );
    let full_lints = run_all(m);
    let inc_lints = run_all_with(m, Some(mgr));
    assert_eq!(full_lints, inc_lints, "{ctx}: lint report diverged");
    let full_abs = absint::analyze_module(m);
    let inc_abs = absint::analyze_module_with(m, Some(mgr));
    assert_eq!(full_abs, inc_abs, "{ctx}: absint summaries diverged");
    let full_alias = alias::analyze_module(m);
    let inc_alias = alias::analyze_module_with(m, Some(mgr));
    assert_eq!(
        full_alias, inc_alias,
        "{ctx}: alias summaries / points-to facts / memdep diverged"
    );
    let full_scev = scev::analyze_module(m);
    let inc_scev = scev::analyze_module_with(m, Some(mgr));
    assert_eq!(
        full_scev, inc_scev,
        "{ctx}: scev loops / trips / profile frequencies diverged"
    );
    let full_dep = depend::analyze_module(m);
    let inc_dep = depend::analyze_module_with(m, Some(mgr));
    assert_eq!(
        full_dep, inc_dep,
        "{ctx}: dependence edges / distances / verdicts diverged"
    );
}

/// Cases per property (see tests/pass_properties.rs).
fn proptest_cases() -> u32 {
    posetrl_analyze::env_budget_or_usage("POSETRL_PROPTEST_CASES", 24)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(),
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Random pass pipelines over the `.pir` corpora: after every step the
    /// incremental results must be bit-identical to from-scratch, with one
    /// manager persisting across the pipeline.
    #[test]
    fn incremental_matches_from_scratch_at_every_step(
        file_idx in 0usize..1_000,
        pass_picks in prop::collection::vec(0usize..1_000, 1..8),
    ) {
        let corpus = corpus();
        let (name, m0) = &corpus[file_idx % corpus.len()];
        let mgr = IncrementalAnalysisManager::new();
        let embedder = Embedder::default();
        let cfg_digest = digest_str(&format!("{:?}", embedder.config()));
        assert_equivalent(&format!("{name} (initial)"), m0, &mgr, &embedder, cfg_digest);

        let pm = PassManager::new();
        let names = pm.pass_names();
        let mut m = m0.clone();
        for (step, pick) in pass_picks.iter().enumerate() {
            let pass = names[pick % names.len()];
            pm.run_pass(&mut m, pass).unwrap();

            assert_equivalent(
                &format!("{name} after step {step} ({pass})"),
                &m,
                &mgr,
                &embedder,
                cfg_digest,
            );
        }
    }
}

/// A replay of identical analyses through a warm manager is pure hits:
/// the absint recompute log stays empty on the second run.
#[test]
fn warm_replay_recomputes_nothing() {
    for (name, m) in corpus().iter().take(8) {
        let mgr = IncrementalAnalysisManager::new();
        let _ = absint::analyze_module_with(m, Some(&mgr));
        assert!(
            !mgr.absint.drain_log().is_empty(),
            "{name}: cold run must analyze something"
        );
        let _ = absint::analyze_module_with(m, Some(&mgr));
        assert_eq!(
            mgr.absint.drain_log(),
            Vec::<String>::new(),
            "{name}: warm replay must be all memo hits"
        );
        let _ = alias::analyze_module_with(m, Some(&mgr));
        assert!(
            !mgr.alias.drain_log().is_empty(),
            "{name}: cold alias run must analyze something"
        );
        let _ = alias::analyze_module_with(m, Some(&mgr));
        assert_eq!(
            mgr.alias.drain_log(),
            Vec::<String>::new(),
            "{name}: warm alias replay must be all memo hits"
        );
        let _ = scev::analyze_module_with(m, Some(&mgr));
        assert!(
            !mgr.scev.drain_log().is_empty(),
            "{name}: cold scev run must analyze something"
        );
        let _ = scev::analyze_module_with(m, Some(&mgr));
        assert_eq!(
            mgr.scev.drain_log(),
            Vec::<String>::new(),
            "{name}: warm scev replay must be all memo hits"
        );
        let _ = depend::analyze_module_with(m, Some(&mgr));
        assert!(
            !mgr.depend.drain_log().is_empty(),
            "{name}: cold depend run must analyze something"
        );
        let _ = depend::analyze_module_with(m, Some(&mgr));
        assert_eq!(
            mgr.depend.drain_log(),
            Vec::<String>::new(),
            "{name}: warm depend replay must be all memo hits"
        );
    }
}

// ---------------------------------------------------------------------
// Invalidation propagation on hand-built call graphs.
// ---------------------------------------------------------------------

/// Distinct function names whose absint analysis re-ran for `text`,
/// against a manager warmed on `base`.
fn recomputed_after_edit(base: &str, text: &str) -> BTreeSet<String> {
    let m0 = parse_module(base).expect("base fixture parses");
    let mgr = IncrementalAnalysisManager::new();
    let cold = absint::analyze_module_with(&m0, Some(&mgr));
    mgr.absint.drain_log();
    let m1 = parse_module(text).expect("edited fixture parses");
    let inc = absint::analyze_module_with(&m1, Some(&mgr));
    assert_eq!(
        inc,
        absint::analyze_module(&m1),
        "incremental re-analysis diverged from scratch"
    );
    if base == text {
        assert_eq!(cold, inc);
    }
    mgr.absint.drain_log().into_iter().collect()
}

const CHAIN: &str = "module \"chain\"\n\n\
fn @leaf() -> i64 internal {\nbb0:\n  ret 1:i64\n}\n\n\
fn @mid() -> i64 internal {\nbb0:\n  %x = call @leaf() -> i64\n  ret %x\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  %y = call @mid() -> i64\n  ret %y\n}\n";

#[test]
fn direct_call_chain_summary_change_propagates_to_callers() {
    // moving @leaf's return summary invalidates the whole caller chain
    let edited = CHAIN.replace("ret 1:i64", "ret 2:i64");
    let recomputed = recomputed_after_edit(CHAIN, &edited);
    let expect: BTreeSet<String> = ["leaf", "mid", "main"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(recomputed, expect, "summary change recomputes the chain");
}

#[test]
fn direct_call_chain_local_edit_recomputes_only_the_edited_function() {
    // a body edit that keeps @leaf's return summary at [1,1] must leave
    // @mid and @main as pure hits — invalidation is content-wise, not
    // "every transitive caller"
    let edited = CHAIN.replace(
        "fn @leaf() -> i64 internal {\nbb0:\n  ret 1:i64\n}",
        "fn @leaf() -> i64 internal {\nbb0:\n  %d = add i64 3:i64, 4:i64\n  ret 1:i64\n}",
    );
    assert_ne!(edited, CHAIN, "fixture edit must apply");
    let recomputed = recomputed_after_edit(CHAIN, &edited);
    let expect: BTreeSet<String> = ["leaf"].into_iter().map(String::from).collect();
    assert_eq!(
        recomputed, expect,
        "a local edit with an unchanged summary stays local"
    );
}

const SCC: &str = "module \"scc\"\n\n\
fn @even(i64) -> i64 internal {\nbb0:\n  %c = icmp eq i64 %arg0, 0:i64\n  condbr %c, bb1, bb2\nbb1:\n  ret 1:i64\nbb2:\n  %n = sub i64 %arg0, 1:i64\n  %r = call @odd(%n) -> i64\n  ret %r\n}\n\n\
fn @odd(i64) -> i64 internal {\nbb0:\n  %c = icmp eq i64 %arg0, 0:i64\n  condbr %c, bb1, bb2\nbb1:\n  ret 0:i64\nbb2:\n  %n = sub i64 %arg0, 1:i64\n  %r = call @even(%n) -> i64\n  ret %r\n}\n\n\
fn @aloof() -> i64 internal {\nbb0:\n  ret 7:i64\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  %r = call @even(10:i64) -> i64\n  ret %r\n}\n";

#[test]
fn scc_cycle_edit_reanalyzes_the_cycle_but_not_bystanders() {
    // change @odd's base case: the SCC fixpoint re-runs @odd (fingerprint
    // moved) and @even (its callee's summary moved), and @main sees the
    // new summary; @aloof is untouched by construction
    let edited = SCC.replace("ret 0:i64", "ret 2:i64");
    let recomputed = recomputed_after_edit(SCC, &edited);
    assert!(recomputed.contains("odd"), "edited SCC member re-runs");
    assert!(
        recomputed.contains("even"),
        "SCC sibling re-runs once the cycle's summaries move"
    );
    assert!(
        !recomputed.contains("aloof"),
        "a function outside the SCC and its caller set must stay memoized: {recomputed:?}"
    );
}

const ADDR: &str = "module \"addr\"\n\n\
fn @cb(i64) -> i64 internal {\nbb0:\n  %r = add i64 %arg0, 5:i64\n  ret %r\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  %s = alloca i64 x 1\n  store ptr &@cb, %s\n  ret 3:i64\n}\n";

#[test]
fn address_taken_root_is_isolated_from_unrelated_edits() {
    // @cb is address-taken (analyzed as a root with top arguments) and
    // never directly called: editing @main's unrelated body must not
    // invalidate it, and editing @cb must not invalidate @main (no
    // direct-call edge carries its summary)
    let main_edit = ADDR.replace("ret 3:i64", "ret 4:i64");
    let recomputed = recomputed_after_edit(ADDR, &main_edit);
    let expect: BTreeSet<String> = ["main"].into_iter().map(String::from).collect();
    assert_eq!(recomputed, expect, "address-taken root stays memoized");

    let cb_edit = ADDR.replace("5:i64", "6:i64");
    let recomputed = recomputed_after_edit(ADDR, &cb_edit);
    let expect: BTreeSet<String> = ["cb"].into_iter().map(String::from).collect();
    assert_eq!(
        recomputed, expect,
        "an address-taken root's edit invalidates only itself"
    );
}

// ---------------------------------------------------------------------
// Alias-memo invalidation (PR 8): the points-to leaves are keyed by
// fingerprint + config + callee-summary digest, so an edit that moves a
// callee's mod/ref summary re-solves its callers while a summary-
// preserving body edit stays local — same contract as absint above.
// ---------------------------------------------------------------------

/// Distinct function names whose alias analysis re-ran for `text`,
/// against a manager warmed on `base`.
fn alias_recomputed_after_edit(base: &str, text: &str) -> BTreeSet<String> {
    let m0 = parse_module(base).expect("base fixture parses");
    let mgr = IncrementalAnalysisManager::new();
    let cold = alias::analyze_module_with(&m0, Some(&mgr));
    mgr.alias.drain_log();
    let m1 = parse_module(text).expect("edited fixture parses");
    let inc = alias::analyze_module_with(&m1, Some(&mgr));
    assert_eq!(
        inc,
        alias::analyze_module(&m1),
        "incremental alias re-analysis diverged from scratch"
    );
    if base == text {
        assert_eq!(cold, inc);
    }
    mgr.alias.drain_log().into_iter().collect()
}

const ACHAIN: &str = "module \"achain\"\n\n\
global @g : i64 x 1 mutable internal = []\n\n\
fn @sink(ptr) -> void internal {\nbb0:\n  store i64 1:i64, %arg0\n  ret\n}\n\n\
fn @mid(ptr) -> void internal {\nbb0:\n  call @sink(%arg0) -> void\n  ret\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  call @mid(@g) -> void\n  %v = load i64, @g\n  ret %v\n}\n";

#[test]
fn alias_mod_summary_change_propagates_to_callers() {
    // retargeting @sink's store from its argument to @g moves its mod
    // summary from the parameterized arg object to the global, which must
    // re-solve the whole caller chain through the callee-summary digests
    let edited = ACHAIN.replace("store i64 1:i64, %arg0", "store i64 1:i64, @g");
    assert_ne!(edited, ACHAIN, "fixture edit must apply");
    let recomputed = alias_recomputed_after_edit(ACHAIN, &edited);
    let expect: BTreeSet<String> = ["sink", "mid", "main"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(
        recomputed, expect,
        "mod-summary change recomputes the chain"
    );
}

#[test]
fn alias_local_edit_with_stable_summary_stays_local() {
    // a pure integer edit inside @sink moves its fingerprint but not its
    // points-to summary: the callers' memo keys are unchanged
    let edited = ACHAIN.replace(
        "bb0:\n  store i64 1:i64, %arg0",
        "bb0:\n  %d = add i64 3:i64, 4:i64\n  store i64 1:i64, %arg0",
    );
    assert_ne!(edited, ACHAIN, "fixture edit must apply");
    let recomputed = alias_recomputed_after_edit(ACHAIN, &edited);
    let expect: BTreeSet<String> = ["sink"].into_iter().map(String::from).collect();
    assert_eq!(
        recomputed, expect,
        "a summary-preserving edit must not invalidate callers"
    );
}

// ---------------------------------------------------------------------
// Scev-memo invalidation: the per-function results are keyed by
// fingerprint + config + a digest of the absint inputs the trip engine
// reads (argument summaries, value facts, callee no-return bits), so a
// caller edit that moves a callee's argument interval re-analyzes the
// callee while an unrelated edit stays local.
// ---------------------------------------------------------------------

/// Distinct function names whose scev analysis re-ran for `text`,
/// against a manager warmed on `base`.
fn scev_recomputed_after_edit(base: &str, text: &str) -> BTreeSet<String> {
    let m0 = parse_module(base).expect("base fixture parses");
    let mgr = IncrementalAnalysisManager::new();
    let cold = scev::analyze_module_with(&m0, Some(&mgr));
    mgr.scev.drain_log();
    let m1 = parse_module(text).expect("edited fixture parses");
    let inc = scev::analyze_module_with(&m1, Some(&mgr));
    assert_eq!(
        inc,
        scev::analyze_module(&m1),
        "incremental scev re-analysis diverged from scratch"
    );
    if base == text {
        assert_eq!(cold, inc);
    }
    mgr.scev.drain_log().into_iter().collect()
}

const SCHAIN: &str = "module \"schain\"\n\n\
fn @count(i64) -> i64 internal {\nbb0:\n  br bb1\nbb1:\n  %i = phi i64 [bb0: 0:i64], [bb2: %n]\n  %c = icmp slt i64 %i, %arg0\n  condbr %c, bb2, bb3\nbb2:\n  %n = add i64 %i, 1:i64\n  br bb1\nbb3:\n  ret %i\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  %a = call @count(10:i64) -> i64\n  ret %a\n}\n";

#[test]
fn scev_absint_digest_change_reanalyzes_the_bound_consumer() {
    // widening the call-site constant moves @count's argument interval,
    // which its symbolic trip bound reads: the absint-input digest in the
    // scev memo key must move and re-run @count (plus @main, whose own
    // fingerprint changed)
    let edited = SCHAIN.replace("@count(10:i64)", "@count(20:i64)");
    assert_ne!(edited, SCHAIN, "fixture edit must apply");
    let recomputed = scev_recomputed_after_edit(SCHAIN, &edited);
    assert!(
        recomputed.contains("count"),
        "bound consumer re-runs when its argument interval moves: {recomputed:?}"
    );
    assert!(recomputed.contains("main"), "edited caller re-runs");
}

#[test]
fn scev_local_edit_with_stable_absint_inputs_stays_local() {
    // a dead-code edit in @main keeps @count's fingerprint and argument
    // summary intact: only @main re-runs
    let edited = SCHAIN.replace(
        "bb0:\n  %a = call @count(10:i64) -> i64",
        "bb0:\n  %d = add i64 3:i64, 4:i64\n  %a = call @count(10:i64) -> i64",
    );
    assert_ne!(edited, SCHAIN, "fixture edit must apply");
    let recomputed = scev_recomputed_after_edit(SCHAIN, &edited);
    let expect: BTreeSet<String> = ["main"].into_iter().map(String::from).collect();
    assert_eq!(
        recomputed, expect,
        "an edit that leaves the callee's absint inputs alone stays local"
    );
}

// ---------------------------------------------------------------------
// Depend-memo invalidation: each function's dependence analysis is
// keyed by fingerprint + config + a digest of the scev loop structure
// and the alias facts/summary/memdep slices it reads, so an edit that
// moves a callee's mod summary (and with it the caller's alias view)
// re-analyzes the caller's dependences, while a summary-preserving body
// edit stays local — the same contract as the alias class above.
// ---------------------------------------------------------------------

/// Distinct function names whose dependence analysis re-ran for `text`,
/// against a manager warmed on `base`.
fn depend_recomputed_after_edit(base: &str, text: &str) -> BTreeSet<String> {
    let m0 = parse_module(base).expect("base fixture parses");
    let mgr = IncrementalAnalysisManager::new();
    let cold = depend::analyze_module_with(&m0, Some(&mgr));
    mgr.depend.drain_log();
    let m1 = parse_module(text).expect("edited fixture parses");
    let inc = depend::analyze_module_with(&m1, Some(&mgr));
    assert_eq!(
        inc,
        depend::analyze_module(&m1),
        "incremental depend re-analysis diverged from scratch"
    );
    if base == text {
        assert_eq!(cold, inc);
    }
    mgr.depend.drain_log().into_iter().collect()
}

const DCHAIN: &str = "module \"dchain\"\n\n\
global @g : i64 x 1 mutable internal = []\n\n\
fn @sink(ptr) -> void internal {\nbb0:\n  store i64 1:i64, %arg0\n  ret\n}\n\n\
fn @looper(ptr) -> i64 internal {\nbb0:\n  br bb1\nbb1:\n  %i = phi i64 [bb0: 0:i64], [bb2: %n]\n  %c = icmp slt i64 %i, 8:i64\n  condbr %c, bb2, bb3\nbb2:\n  call @sink(%arg0) -> void\n  %v = load i64, %arg0\n  %n = add i64 %i, %v\n  br bb1\nbb3:\n  ret %i\n}\n\n\
fn @main() -> i64 internal {\nbb0:\n  %s = alloca i64 x 1\n  store i64 0:i64, %s\n  %r = call @looper(%s) -> i64\n  ret %r\n}\n";

#[test]
fn depend_reanalyzes_a_caller_when_the_callee_alias_view_moves() {
    // retargeting @sink's store to @g changes its mod summary; @looper's
    // call-site memdep/facts move with it, so its dependence analysis
    // (which disambiguates the call against the loop's load) must re-run
    let edited = DCHAIN.replace("store i64 1:i64, %arg0", "store i64 1:i64, @g");
    assert_ne!(edited, DCHAIN, "fixture edit must apply");
    let recomputed = depend_recomputed_after_edit(DCHAIN, &edited);
    assert!(recomputed.contains("sink"), "edited callee re-runs");
    assert!(
        recomputed.contains("looper"),
        "caller's dependence view follows the callee summary: {recomputed:?}"
    );
}

#[test]
fn depend_local_edit_with_stable_alias_inputs_stays_local() {
    // a dead integer edit in @main leaves @sink and @looper's
    // fingerprints and alias slices intact: only @main re-runs
    let edited = DCHAIN.replace(
        "bb0:\n  %s = alloca i64 x 1",
        "bb0:\n  %d = add i64 3:i64, 4:i64\n  %s = alloca i64 x 1",
    );
    assert_ne!(edited, DCHAIN, "fixture edit must apply");
    let recomputed = depend_recomputed_after_edit(DCHAIN, &edited);
    let expect: BTreeSet<String> = ["main"].into_iter().map(String::from).collect();
    assert_eq!(
        recomputed, expect,
        "an edit that leaves the loop function's inputs alone stays local"
    );
}

#[test]
fn depend_loop_body_edit_moves_the_verdict_and_only_that_function() {
    // turning the loop's disjoint-array copy into a distance-1 shift
    // flips vector_safe; the sibling function is untouched
    const TWO: &str = "module \"dtwo\"\n\n\
fn @shift(ptr) -> i64 internal {\nbb0:\n  br bb1\nbb1:\n  %i = phi i64 [bb0: 0:i64], [bb2: %n]\n  %c = icmp slt i64 %i, 8:i64\n  condbr %c, bb2, bb3\nbb2:\n  %p = gep i64, %arg0, %i\n  %v = load i64, %p\n  %q = gep i64, %arg0, %i\n  store i64 %v, %q\n  %n = add i64 %i, 1:i64\n  br bb1\nbb3:\n  ret %i\n}\n\n\
fn @aloof() -> i64 internal {\nbb0:\n  ret 7:i64\n}\n";
    let edited = TWO.replace(
        "%q = gep i64, %arg0, %i",
        "%t = add i64 %i, 1:i64\n  %q = gep i64, %arg0, %t",
    );
    assert_ne!(edited, TWO, "fixture edit must apply");
    let recomputed = depend_recomputed_after_edit(TWO, &edited);
    let expect: BTreeSet<String> = ["shift"].into_iter().map(String::from).collect();
    assert_eq!(recomputed, expect, "only the edited loop function re-runs");

    // and the verdicts really did move
    let m = parse_module(&edited).unwrap();
    let md = depend::analyze_module(&m);
    let fid = m.func_by_name("shift").unwrap();
    let l = &md.func(fid).unwrap().loops[0];
    assert!(!l.parallel_safe, "the shifted store carries a dependence");
}

/// Validate obligations: memoized verdicts are bit-identical to fresh
/// ones, both on the cold run (misses) and the warm rerun (hits).
#[test]
fn validate_verdicts_match_with_memoization() {
    let pm = PassManager::new();
    let cfg = ValidateConfig::default();
    for (name, m0) in corpus().iter().take(6) {
        for pass in ["instcombine", "simplifycfg"] {
            let mut post = m0.clone();
            pm.run_pass(&mut post, pass).unwrap();
            let full = validate_transform(m0, &post, &cfg);
            let mgr = IncrementalAnalysisManager::new();
            let cold = validate_transform_with(m0, &post, &cfg, Some(&mgr));
            let warm = validate_transform_with(m0, &post, &cfg, Some(&mgr));
            assert_eq!(
                format!("{full:?}"),
                format!("{cold:?}"),
                "{name}/{pass}: cold memoized validation diverged"
            );
            assert_eq!(
                format!("{cold:?}"),
                format!("{warm:?}"),
                "{name}/{pass}: warm memoized validation diverged"
            );
            let stats = mgr.stats();
            assert!(
                stats.validate.misses > 0,
                "{name}/{pass}: the cold run must populate the table"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Nightly sweep (opt-in): bit-identity + warm-path speedup, archived.
// ---------------------------------------------------------------------

#[test]
fn incremental_sweep_archives_mismatches_and_speedup() {
    if std::env::var("POSETRL_INCREMENTAL_SWEEP").is_err() {
        return; // nightly CI sets the variable; the default run skips
    }
    let step: usize = posetrl_analyze::env_budget_or_usage("POSETRL_INCREMENTAL_SWEEP_STEP", 1);
    let pm = PassManager::new();
    let space = ActionSpace::odg();
    let embedder = Embedder::default();
    let cfg_digest = digest_str(&format!("{:?}", embedder.config()));
    // the determinism suite's fixed 15-action episode
    let episode: [usize; 15] = [8, 23, 30, 13, 5, 19, 0, 33, 21, 10, 2, 27, 17, 6, 31];

    let mut modules = 0usize;
    let mut states = 0usize;
    let mut mismatches = 0usize;
    let mut mismatch_names: Vec<String> = Vec::new();
    let mut full_ns = 0u128;
    let mut inc_ns = 0u128;
    let mut agg_stats: BTreeMap<&str, posetrl_analyze::ClassStats> = BTreeMap::new();

    for b in posetrl_workloads::training_suite().iter().step_by(step) {
        modules += 1;
        // materialize the episode's 16 module states
        let mut m = b.module.clone();
        let mut trajectory = vec![m.clone()];
        for &a in &episode {
            for pass in space.subsequence(a % space.len()) {
                pm.run_pass(&mut m, pass).unwrap();
            }
            trajectory.push(m.clone());
        }
        states += trajectory.len();

        // from-scratch pass over the whole trajectory (the warm-path
        // baseline: each state re-encoded and re-analyzed in full)
        let t0 = std::time::Instant::now();
        let full: Vec<_> = trajectory
            .iter()
            .map(|m| {
                (
                    embedder.embed_module(m),
                    run_all(m),
                    absint::analyze_module(m),
                    alias::analyze_module(m),
                    scev::analyze_module(m),
                    depend::analyze_module(m),
                )
            })
            .collect();
        full_ns += t0.elapsed().as_nanos();

        // incremental: prime the manager on the trajectory once (cold),
        // then time the warm pass — this is what episode N+1 on the same
        // module costs, i.e. the warm path of a cached evaluation sweep
        let mgr = IncrementalAnalysisManager::new();
        for m in &trajectory {
            let _ = embed_incremental(&embedder, cfg_digest, m, &mgr);
            let _ = run_all_with(m, Some(&mgr));
            let _ = absint::analyze_module_with(m, Some(&mgr));
            let _ = alias::analyze_module_with(m, Some(&mgr));
            let _ = scev::analyze_module_with(m, Some(&mgr));
            let _ = depend::analyze_module_with(m, Some(&mgr));
        }
        let t1 = std::time::Instant::now();
        let inc: Vec<_> = trajectory
            .iter()
            .map(|m| {
                (
                    embed_incremental(&embedder, cfg_digest, m, &mgr),
                    run_all_with(m, Some(&mgr)),
                    absint::analyze_module_with(m, Some(&mgr)),
                    alias::analyze_module_with(m, Some(&mgr)),
                    scev::analyze_module_with(m, Some(&mgr)),
                    depend::analyze_module_with(m, Some(&mgr)),
                )
            })
            .collect();
        inc_ns += t1.elapsed().as_nanos();

        for (i, ((fe, fl, fa, fal, fs, fd), (ie, il, ia, ial, is, id))) in
            full.iter().zip(&inc).enumerate()
        {
            if bits(fe) != bits(ie) || fl != il || fa != ia || fal != ial || fs != is || fd != id {
                mismatches += 1;
                mismatch_names.push(format!("{} state {i}", b.name));
            }
        }
        for (class, c) in mgr.stats().classes() {
            let agg = agg_stats.entry(class).or_default();
            agg.hits += c.hits;
            agg.misses += c.misses;
        }
    }

    let speedup = full_ns as f64 / inc_ns.max(1) as f64;
    let memo = serde_json::Value::Object(
        ["embed", "lint", "absint", "alias", "scev", "depend"]
            .into_iter()
            .map(|class| {
                let c = agg_stats[class];
                let json = serde_json::json!({ "hits": c.hits, "misses": c.misses });
                (class.to_string(), json)
            })
            .collect(),
    );
    let payload = serde_json::json!({
        "modules": modules,
        "states": states,
        "mismatches": mismatches,
        "mismatch_names": mismatch_names,
        "full_ns": full_ns as u64,
        "incremental_warm_ns": inc_ns as u64,
        "speedup": speedup,
        "memo": memo,
    });
    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        "results/incremental_sweep.json",
        serde_json::to_string_pretty(&payload).unwrap(),
    )
    .unwrap();
    eprintln!(
        "[incremental-sweep] {modules} modules / {states} states: \
         {mismatches} mismatches, warm speedup {speedup:.2}x ({agg_stats:?})"
    );

    assert_eq!(
        mismatches, 0,
        "incremental results diverged from scratch: {mismatch_names:?}"
    );
    assert!(
        speedup >= 2.0,
        "warm incremental path must be at least 2x faster than from-scratch \
         (measured {speedup:.2}x)"
    );
}
