//! Structural-hash contract on the real training corpus.
//!
//! `module_hash` hashes the canonically printed form of a module, so the
//! evaluation cache's correctness rests on one invariant: **hash equality
//! holds exactly when printer output equality holds**. These tests check
//! that equivalence over the full 130-program training suite — as
//! generated, after cloning, and after running pass pipelines — rather
//! than on hand-picked toy modules.

use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::{
    fold_module_hash, function_hashes, module_hash, module_header_hash, FunctionHash, ModuleHash,
};
use posetrl_opt::pipelines;
use posetrl_opt::PassManager;
use posetrl_workloads::training_suite;
use std::collections::HashMap;

/// Asserts hash equality ⇔ printed-form equality across `modules`.
///
/// Both directions are checked exhaustively: every pair of equal hashes
/// must print identically (no collisions), and every pair of equal
/// printed forms must hash identically (no spurious splits).
fn assert_hash_matches_printer(printed: &[(String, ModuleHash, String)]) {
    let mut by_hash: HashMap<ModuleHash, &str> = HashMap::new();
    let mut by_text: HashMap<&str, ModuleHash> = HashMap::new();
    for (name, h, text) in printed {
        match by_hash.get(h) {
            Some(prev) => assert_eq!(
                *prev, text,
                "{name}: hash {h} collides with a differently-printed module"
            ),
            None => {
                by_hash.insert(*h, text);
            }
        }
        match by_text.get(text.as_str()) {
            Some(prev) => assert_eq!(
                prev, h,
                "{name}: identical printed form produced two different hashes"
            ),
            None => {
                by_text.insert(text, *h);
            }
        }
    }
}

fn corpus() -> Vec<(String, ModuleHash, String)> {
    training_suite()
        .iter()
        .map(|b| {
            (
                b.name.clone(),
                module_hash(&b.module),
                print_module(&b.module),
            )
        })
        .collect()
}

#[test]
fn hash_equality_iff_printer_equality_on_training_suite() {
    let printed = corpus();
    assert_eq!(printed.len(), 130, "full training suite");
    assert_hash_matches_printer(&printed);
    // Program names are part of the print, so the 130 generated programs
    // must all be pairwise distinct — a collapsed corpus would let the
    // cache alias unrelated benchmarks.
    let distinct: std::collections::HashSet<ModuleHash> =
        printed.iter().map(|(_, h, _)| *h).collect();
    assert_eq!(distinct.len(), printed.len());
}

#[test]
fn hash_is_stable_across_clone_on_training_suite() {
    for b in training_suite() {
        let h = module_hash(&b.module);
        assert_eq!(h, module_hash(&b.module.clone()), "{}", b.name);
    }
}

#[test]
fn hash_tracks_printer_through_pass_pipelines() {
    let pm = PassManager::new();
    // A spread of distinct sub-pipelines keeps the check cheap while still
    // producing genuinely transformed modules (including no-op runs, which
    // must keep the original hash).
    let pipelines: [&[&str]; 3] = [
        &["simplifycfg", "sroa", "early-cse"],
        &["instcombine", "gvn", "adce"],
        &["mem2reg", "bdce", "globaldce"],
    ];
    let mut printed = Vec::new();
    for (i, b) in training_suite().iter().enumerate().step_by(7) {
        let mut m = b.module.clone();
        let pre = module_hash(&m);
        let changed = pm
            .run_pipeline(&mut m, pipelines[i % pipelines.len()])
            .expect("known passes");
        let post = module_hash(&m);
        if !changed {
            assert_eq!(pre, post, "{}: unchanged module must keep its hash", b.name);
        }
        assert_eq!(
            post,
            module_hash(&m),
            "{}: hashing must be deterministic",
            b.name
        );
        printed.push((b.name.clone(), post, print_module(&m)));
    }
    assert!(printed.len() >= 18);
    assert_hash_matches_printer(&printed);
}

/// The PR-7 fold contract on the whole corpus: `module_hash` must equal
/// the fold of the header digest and every per-function chunk digest, in
/// function order, so a function edit moves exactly its own chunk.
#[test]
fn module_hash_is_fold_of_function_hashes_on_training_suite() {
    for b in training_suite() {
        let header = module_header_hash(&b.module);
        let funcs = function_hashes(&b.module);
        assert_eq!(
            funcs.len(),
            b.module.func_ids().count(),
            "{}: every function gets a chunk hash",
            b.name
        );
        let folded = fold_module_hash(header, funcs.iter().map(|(_, h)| h.0));
        assert_eq!(
            module_hash(&b.module),
            folded,
            "{}: module hash is the fold of its function hashes",
            b.name
        );
    }
}

/// Editing one function must leave every *other* function's hash (and the
/// header digest) untouched — the property incremental invalidation rests
/// on — while moving both the edited function's hash and the module hash.
#[test]
fn function_hashes_ignore_unrelated_edits_and_track_local_ones() {
    let base = "module \"m\"\n\nfn @stable(i64) -> i64 internal {\nbb0:\n  %x = add i64 %arg0, 1:i64\n  ret %x\n}\n\nfn @edited() -> i64 internal {\nbb0:\n  ret 1:i64\n}\n";
    let edited = base.replace("ret 1:i64", "ret 2:i64");
    let m0 = parse_module(base).expect("base parses");
    let m1 = parse_module(&edited).expect("edited variant parses");
    assert_eq!(module_header_hash(&m0), module_header_hash(&m1));
    let h0: HashMap<String, FunctionHash> = function_hashes(&m0).into_iter().collect();
    let h1: HashMap<String, FunctionHash> = function_hashes(&m1).into_iter().collect();
    assert_eq!(
        h0["stable"], h1["stable"],
        "an edit elsewhere must not move an untouched function's hash"
    );
    assert_ne!(
        h0["edited"], h1["edited"],
        "a local mutation must move the edited function's hash"
    );
    assert_ne!(module_hash(&m0), module_hash(&m1));
}

/// Pass pipelines report per-function chunk hashes consistently with the
/// printer: a function whose printed body is unchanged keeps its hash.
#[test]
fn function_hashes_track_printed_chunks_through_passes() {
    let pm = PassManager::new();
    for b in training_suite().iter().step_by(17) {
        let mut m = b.module.clone();
        let pre: HashMap<String, FunctionHash> = function_hashes(&m).into_iter().collect();
        pm.run_pipeline(&mut m, &["instcombine", "simplifycfg"])
            .expect("known passes");
        for (name, post_hash) in function_hashes(&m) {
            if let Some(pre_hash) = pre.get(&name) {
                let pre_f = b
                    .module
                    .func(b.module.func_by_name(&name).unwrap())
                    .unwrap();
                let post_f = m.func(m.func_by_name(&name).unwrap()).unwrap();
                let mut pre_text = String::new();
                let mut post_text = String::new();
                posetrl_ir::printer::write_function_entry(&mut pre_text, &b.module, pre_f).unwrap();
                posetrl_ir::printer::write_function_entry(&mut post_text, &m, post_f).unwrap();
                assert_eq!(
                    *pre_hash == post_hash,
                    pre_text == post_text,
                    "{}/{name}: chunk-hash equality must match chunk-print equality",
                    b.name
                );
            }
        }
    }
}

#[test]
fn hash_tracks_printer_through_full_oz() {
    let pm = PassManager::new();
    let mut printed = Vec::new();
    for b in training_suite().iter().step_by(13) {
        let mut m = b.module.clone();
        pm.run_pipeline(&mut m, &pipelines::oz()).expect("oz runs");
        printed.push((b.name.clone(), module_hash(&m), print_module(&m)));
    }
    assert_eq!(printed.len(), 10);
    assert_hash_matches_printer(&printed);
}
