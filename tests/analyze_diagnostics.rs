//! Golden-diagnostics corpus plus the mutation-injection proof that the
//! pass-pipeline sanitizer actually catches miscompiles.
//!
//! Three layers:
//!
//! 1. **Golden corpus** — every `.pir` file under `tests/analyze/` carries
//!    an `; expect: <code>, <code>` header naming exactly the diagnostic
//!    codes the lint suite must produce for it. Files double as living
//!    documentation of what each lint catches.
//! 2. **Mutation injection** — seeded opcode/operand corruptions are
//!    applied to optimizer output over the training corpus, keeping only
//!    mutants whose observable behaviour provably changed; the sanitizer
//!    at level `full` must then flag **every single one** as a miscompile
//!    (the detector has no excuse: the ground truth is known).
//! 3. **Nightly sweep** — with `POSETRL_SANITIZE_SWEEP=1`, every action of
//!    both action spaces runs over the whole training corpus under
//!    `run_pipeline_sanitized` at level `full`; any fatal verdict fails.

use posetrl_analyze::{SanitizeLevel, Sanitizer};
use posetrl_ir::inst::{BinOp, Op};
use posetrl_ir::interp::Interpreter;
use posetrl_ir::parser::parse_module;
use posetrl_ir::Module;
use posetrl_opt::manager::PassManager;
use posetrl_suite::test_support::{corpus_files, expected_codes};
use std::collections::BTreeSet;
use std::path::Path;

// ---------------------------------------------------------------------------
// 1. golden corpus
// ---------------------------------------------------------------------------

#[test]
fn golden_corpus_produces_exactly_the_expected_codes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analyze");
    let files = corpus_files(&dir, ".pir");
    assert!(files.len() >= 10, "corpus has at least 10 modules");

    let san = Sanitizer::new(SanitizeLevel::Verify);
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = expected_codes(&text);
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        let got: BTreeSet<String> = san
            .check_module(&m, None)
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        assert_eq!(
            got, expected,
            "{name}: diagnostic codes diverge from header"
        );
    }
}

// ---------------------------------------------------------------------------
// 2. mutation injection
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// Flip the first `add` whose operands differ into a `sub`.
    OpcodeFlip,
    /// Swap the operands of the first non-commutative `sub`/`sdiv`.
    OperandSwap,
    /// Flip the first `icmp` `slt` into `sgt` (branch polarity change).
    PredFlip,
}

const MUTATIONS: [Mutation; 3] = [
    Mutation::OpcodeFlip,
    Mutation::OperandSwap,
    Mutation::PredFlip,
];

/// Applies `which` at its first applicable site; `false` if no site exists.
fn inject(m: &mut Module, which: Mutation) -> bool {
    let fids: Vec<_> = m.func_ids().collect();
    for fid in fids {
        if m.func(fid).unwrap().is_decl {
            continue;
        }
        let f = m.func_mut(fid).unwrap();
        let ids = f.inst_ids();
        for id in ids {
            let op = f.op(id).clone();
            match (which, op) {
                (
                    Mutation::OpcodeFlip,
                    Op::Bin {
                        op: BinOp::Add,
                        ty,
                        lhs,
                        rhs,
                    },
                ) if lhs != rhs => {
                    f.inst_mut(id).unwrap().op = Op::Bin {
                        op: BinOp::Sub,
                        ty,
                        lhs,
                        rhs,
                    };
                    return true;
                }
                (Mutation::OperandSwap, Op::Bin { op, ty, lhs, rhs })
                    if matches!(op, BinOp::Sub | BinOp::SDiv) && lhs != rhs =>
                {
                    f.inst_mut(id).unwrap().op = Op::Bin {
                        op,
                        ty,
                        lhs: rhs,
                        rhs: lhs,
                    };
                    return true;
                }
                (
                    Mutation::PredFlip,
                    Op::Icmp {
                        pred: posetrl_ir::inst::IntPred::Slt,
                        ty,
                        lhs,
                        rhs,
                    },
                ) => {
                    f.inst_mut(id).unwrap().op = Op::Icmp {
                        pred: posetrl_ir::inst::IntPred::Sgt,
                        ty,
                        lhs,
                        rhs,
                    };
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

fn observe(m: &Module) -> posetrl_ir::interp::Observation {
    Interpreter::new(m).run("main", &[]).observation()
}

#[test]
fn mutation_injection_is_always_detected() {
    let pm = PassManager::new();
    let san = Sanitizer::new(SanitizeLevel::Full);
    let mut seeded = 0usize;
    let mut detected = 0usize;

    for b in posetrl_workloads::training_suite().iter().step_by(5) {
        // the "pass" whose output we corrupt: a real mem2reg+instcombine run
        let mut optimized = b.module.clone();
        pm.run_pipeline(&mut optimized, &["mem2reg", "instcombine"])
            .unwrap();

        for mutation in MUTATIONS {
            let mut corrupt = optimized.clone();
            if !inject(&mut corrupt, mutation) {
                continue;
            }
            // ground truth: keep only mutants that verify but demonstrably
            // change clean-running observable behaviour — those are exactly
            // the silent miscompiles the sanitizer exists for
            if posetrl_ir::verifier::verify_module(&corrupt).is_err() {
                continue;
            }
            let before = observe(&b.module);
            if before.result.is_err() || before == observe(&corrupt) {
                continue;
            }

            seeded += 1;
            let verdict =
                san.check_transform("lying-pass", &b.module, &corrupt, None, None, &mut None);
            if verdict.is_fatal() {
                let mc = verdict
                    .miscompile
                    .as_ref()
                    .unwrap_or_else(|| panic!("{}/{mutation:?}: fatal but no repro", b.name));
                // without a reapply closure the repro is the unreduced pre
                // module, so bound it by that
                assert!(
                    !mc.repro.is_empty() && mc.repro_insts <= b.module.num_insts(),
                    "{}/{mutation:?}: repro is well-formed",
                    b.name
                );
                detected += 1;
            } else {
                panic!(
                    "{}/{mutation:?}: behaviour-changing mutant escaped the sanitizer",
                    b.name
                );
            }
        }
    }

    assert!(
        seeded >= 10,
        "the corpus must yield a meaningful mutant population, got {seeded}"
    );
    assert_eq!(
        detected, seeded,
        "100% of seeded miscompiles must be detected"
    );
    let stats = san.stats();
    assert_eq!(stats.miscompiles, seeded as u64, "{stats:?}");
}

// ---------------------------------------------------------------------------
// 3. nightly full-corpus sweep (opt-in: POSETRL_SANITIZE_SWEEP=1)
// ---------------------------------------------------------------------------

#[test]
fn full_corpus_action_sweep_is_diagnostic_clean() {
    if std::env::var("POSETRL_SANITIZE_SWEEP").is_err() {
        return; // nightly CI sets the variable; the default run skips
    }
    let pm = PassManager::new();
    let san = Sanitizer::new(SanitizeLevel::Full);
    for space in [
        posetrl_odg::ActionSpace::manual(),
        posetrl_odg::ActionSpace::odg(),
    ] {
        for b in posetrl_workloads::training_suite() {
            for a in 0..space.len() {
                let mut m = b.module.clone();
                pm.run_pipeline_sanitized(&mut m, space.subsequence(a), &san, None)
                    .unwrap_or_else(|e| {
                        panic!(
                            "[{}] action {a} on '{}' is not diagnostic-clean:\n{e}",
                            space.kind().name(),
                            b.name
                        )
                    });
            }
        }
    }
    eprintln!("[sweep] {}", san.stats().render());
    assert_eq!(san.stats().miscompiles, 0);
}
