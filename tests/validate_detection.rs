//! Detection and soundness proofs for the symbolic translation
//! validator (`--sanitize=validate`).
//!
//! Three layers, mirroring `analyze_diagnostics.rs` for the `full`
//! level:
//!
//! 1. **Mutation injection** — the same seeded opcode/operand/predicate
//!    corruptions, but checked at level `validate`: every
//!    behaviour-changing mutant must be flagged, either by a static
//!    refutation with an interpreter-confirmed counterexample or by
//!    the dynamic diff-execution fallback on inconclusive functions.
//! 2. **Soundness properties** — the validator must *prove* identity
//!    pipelines and pure relabelings (block-label permutation, phi
//!    incoming reordering, commutative operand swaps) on the full
//!    training corpus and on random frontend-style programs, and must
//!    never refute them.
//! 3. **Nightly sweep** — with `POSETRL_VALIDATE_SWEEP=1`, every
//!    action of both action spaces runs over the whole training corpus
//!    pass-by-pass; each changed module is validated statically. The
//!    run writes `results/validate_sweep.json` and enforces the
//!    headline criteria: zero refutations of real passes, and a static
//!    proved rate of at least 70% of (pass, module) applications.

use posetrl_analyze::{validate_transform, SanitizeLevel, Sanitizer, ValidateConfig};
use posetrl_ir::inst::{BinOp, Op};
use posetrl_ir::interp::Interpreter;
use posetrl_ir::module::Function;
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::value::Value;
use posetrl_ir::Module;
use posetrl_opt::manager::PassManager;
use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// 1. mutation injection at level `validate`
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    OpcodeFlip,
    OperandSwap,
    PredFlip,
}

const MUTATIONS: [Mutation; 3] = [
    Mutation::OpcodeFlip,
    Mutation::OperandSwap,
    Mutation::PredFlip,
];

/// Applies `which` at its first applicable site; `false` if none exists.
fn inject(m: &mut Module, which: Mutation) -> bool {
    let fids: Vec<_> = m.func_ids().collect();
    for fid in fids {
        if m.func(fid).unwrap().is_decl {
            continue;
        }
        let f = m.func_mut(fid).unwrap();
        for id in f.inst_ids() {
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
fn validate_level_mutation_injection_is_always_detected() {
    let pm = PassManager::new();
    let san = Sanitizer::new(SanitizeLevel::Validate);
    let mut seeded = 0usize;
    let mut detected = 0usize;

    for b in posetrl_workloads::training_suite().iter().step_by(5) {
        let mut optimized = b.module.clone();
        pm.run_pipeline(&mut optimized, &["mem2reg", "instcombine"])
            .unwrap();

        for mutation in MUTATIONS {
            let mut corrupt = optimized.clone();
            if !inject(&mut corrupt, mutation) {
                continue;
            }
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
            assert!(
                verdict.is_fatal(),
                "{}/{mutation:?}: behaviour-changing mutant escaped level validate",
                b.name
            );
            let mc = verdict
                .miscompile
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{mutation:?}: fatal but no repro", b.name));
            assert!(
                !mc.repro.is_empty() && mc.repro_insts <= b.module.num_insts(),
                "{}/{mutation:?}: repro is well-formed",
                b.name
            );
            detected += 1;
        }
    }

    assert!(seeded >= 10, "meaningful mutant population, got {seeded}");
    assert_eq!(
        detected, seeded,
        "100% combined static+fallback detection required"
    );
    let stats = san.stats();
    assert_eq!(stats.miscompiles, seeded as u64, "{stats:?}");
    // the mutants live in reachable arithmetic of bounded programs, so a
    // real share must fall to the *static* refuter, not just the fallback
    assert!(
        stats.validate_refuted > 0,
        "at least one mutant must be statically refuted: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// 2. soundness: identity and pure relabelings are proved, never refuted
// ---------------------------------------------------------------------------

/// Rebuilds `f` as a pure relabeling: non-entry blocks are re-added in
/// reverse arena order (permuting the printed `bbN` labels), every
/// phi's incoming list is reversed, and commutative binop operands are
/// swapped. The printed text changes on any branchy function; the
/// semantics provably do not.
fn relabel_function(f: &Function) -> Function {
    let mut nf = Function::new(f.name.clone(), f.params.clone(), f.ret);
    nf.linkage = f.linkage;
    nf.attrs = f.attrs;

    // block map: entry keeps id 0, the rest are re-added reversed
    let mut bmap: HashMap<_, _> = HashMap::new();
    bmap.insert(f.entry, nf.entry);
    let others: Vec<_> = f.block_ids().filter(|&b| b != f.entry).collect();
    for &b in others.iter().rev() {
        bmap.insert(b, nf.add_block());
    }

    // append instructions (old operand/block ids for now), then remap
    let mut imap: HashMap<_, _> = HashMap::new();
    let mut order: Vec<_> = vec![f.entry];
    order.extend(others.iter().rev().copied());
    for &b in &order {
        for &id in &f.block(b).unwrap().insts {
            imap.insert(id, nf.append_inst(bmap[&b], f.op(id).clone()));
        }
    }
    for id in nf.inst_ids() {
        let mut op = nf.op(id).clone();
        op.map_operands(|v| match v {
            Value::Inst(old) => Value::Inst(imap[&old]),
            other => other,
        });
        match &mut op {
            Op::Br { target } => *target = bmap[target],
            Op::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = bmap[then_bb];
                *else_bb = bmap[else_bb];
            }
            Op::Phi { incomings, .. } => {
                for (b, _) in incomings.iter_mut() {
                    *b = bmap[b];
                }
                incomings.reverse();
            }
            Op::Bin {
                op: bop, lhs, rhs, ..
            } if bop.is_commutative() => {
                std::mem::swap(lhs, rhs);
            }
            _ => {}
        }
        nf.inst_mut(id).unwrap().op = op;
    }
    nf
}

/// Applies [`relabel_function`] to every defined function of `m`.
fn relabel(m: &Module) -> Module {
    let mut nm = Module::new(m.name.clone());
    for gid in m.global_ids() {
        nm.add_global(m.global(gid).unwrap().clone());
    }
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            nm.add_function(f.clone());
        } else {
            nm.add_function(relabel_function(f));
        }
    }
    nm
}

/// Asserts the validator's soundness contract on a known-correct pair.
fn assert_proved(name: &str, src: &Module, tgt: &Module, cfg: &ValidateConfig) {
    let mv = validate_transform(src, tgt, cfg);
    assert_eq!(
        mv.refuted(),
        0,
        "{name}: refuted a semantics-preserving transform: {:?}",
        mv.first_refutation()
    );
    assert!(
        mv.all_proved(),
        "{name}: failed to prove a pure relabeling: {:?}",
        mv.funcs
            .iter()
            .map(|fv| (fv.name.as_str(), format!("{:?}", fv.verdict)))
            .collect::<Vec<_>>()
    );
}

#[test]
fn validator_proves_identity_and_relabeling_on_the_corpus() {
    let cfg = ValidateConfig::default();
    for b in posetrl_workloads::training_suite() {
        // identity: the structural fast path must make this instant
        assert_proved(&b.name, &b.module, &b.module.clone(), &cfg);

        // pure relabeling: the text differs, forcing the symbolic route
        let ren = relabel(&b.module);
        posetrl_ir::verifier::verify_module(&ren)
            .unwrap_or_else(|e| panic!("{}: relabeling broke the module: {e}", b.name));
        assert_proved(&b.name, &b.module, &ren, &cfg);
    }
}

fn kind_from(i: u8) -> ProgramKind {
    ProgramKind::ALL[i as usize % ProgramKind::ALL.len()]
}

fn proptest_cases() -> u32 {
    posetrl_analyze::env_budget_or_usage("POSETRL_PROPTEST_CASES", 24)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(),
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Random frontend-style programs: identity and relabeling pipelines
    /// are proved for every function, for all inputs, without running
    /// the program once.
    #[test]
    fn validator_proves_relabeled_random_programs(
        seed in 0u64..5_000,
        kind_idx in 0u8..8,
    ) {
        let spec = ProgramSpec {
            name: "vprop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed,
        };
        let m = generate(&spec);
        let cfg = ValidateConfig::default();

        let mv = validate_transform(&m, &m.clone(), &cfg);
        prop_assert!(mv.all_proved(), "identity must be proved structurally");

        let ren = relabel(&m);
        let mv = validate_transform(&m, &ren, &cfg);
        prop_assert_eq!(mv.refuted(), 0, "refuted a relabeling");
        prop_assert!(
            mv.all_proved(),
            "relabeling not proved: {:?}",
            mv.funcs
                .iter()
                .map(|fv| (fv.name.as_str(), format!("{:?}", fv.verdict)))
                .collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// 3. nightly sweep (opt-in: POSETRL_VALIDATE_SWEEP=1)
// ---------------------------------------------------------------------------

#[test]
fn full_corpus_action_sweep_meets_the_proved_rate_floor() {
    if std::env::var("POSETRL_VALIDATE_SWEEP").is_err() {
        return; // nightly CI sets the variable; the default run skips
    }
    let pm = PassManager::new();
    let cfg = ValidateConfig::from_env();
    // corpus stride for quick local measurements; nightly runs at 1
    let step: usize = posetrl_analyze::env_budget_or_usage("POSETRL_VALIDATE_SWEEP_STEP", 1);

    // (pass, module) applications: a pass applied to a module state.
    // A no-op application (pass leaves the module byte-identical) is
    // proved structurally; `changed` counts the ones that needed real
    // validation work.
    let mut applications = 0usize;
    let mut changed = 0usize;
    let mut proved = 0usize;
    let mut refuted = 0usize;
    let mut inconclusive = 0usize;
    let mut fn_proved = 0usize;
    let mut fn_refuted = 0usize;
    let mut fn_inconclusive = 0usize;
    let mut refutations: Vec<String> = Vec::new();
    let mut reasons: HashMap<String, usize> = HashMap::new();

    for space in [
        posetrl_odg::ActionSpace::manual(),
        posetrl_odg::ActionSpace::odg(),
    ] {
        for b in posetrl_workloads::training_suite().iter().step_by(step) {
            for a in 0..space.len() {
                let mut m = b.module.clone();
                for pass in space.subsequence(a) {
                    let pre = m.clone();
                    pm.run_pass(&mut m, pass).unwrap();
                    applications += 1;
                    if print_module(&pre) == print_module(&m) {
                        proved += 1; // no-op application: proved structurally
                        continue;
                    }
                    changed += 1;
                    let mv = validate_transform(&pre, &m, &cfg);
                    fn_proved += mv.proved();
                    fn_refuted += mv.refuted();
                    fn_inconclusive += mv.inconclusive();
                    for fv in &mv.funcs {
                        if let posetrl_analyze::Verdict::Inconclusive(why) = &fv.verdict {
                            *reasons.entry(why.clone()).or_default() += 1;
                        }
                    }
                    if mv.refuted() > 0 {
                        refuted += 1;
                        refutations.push(format!(
                            "[{}] action {a} pass {pass} on '{}'",
                            space.kind().name(),
                            b.name
                        ));
                    } else if mv.all_proved() {
                        proved += 1;
                    } else {
                        inconclusive += 1;
                    }
                }
            }
        }
    }

    let rate = proved as f64 / applications.max(1) as f64;
    let changed_rate =
        (proved + changed).saturating_sub(applications) as f64 / changed.max(1) as f64;
    let functions = serde_json::json!({
        "proved": fn_proved,
        "refuted": fn_refuted,
        "inconclusive": fn_inconclusive,
    });
    let mut reason_rows: Vec<_> = reasons.into_iter().collect();
    reason_rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let reason_rows: Vec<String> = reason_rows
        .into_iter()
        .map(|(why, n)| format!("{n}x {why}"))
        .collect();
    let payload = serde_json::json!({
        "applications": applications,
        "changed": changed,
        "proved": proved,
        "refuted": refuted,
        "inconclusive": inconclusive,
        "proved_rate": rate,
        "changed_proved_rate": changed_rate,
        "functions": functions,
        "inconclusive_reasons": reason_rows,
        "refutations": refutations,
    });
    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        "results/validate_sweep.json",
        serde_json::to_string_pretty(&payload).unwrap(),
    )
    .unwrap();
    eprintln!(
        "[validate-sweep] {applications} applications ({changed} changed): \
         {proved} proved, {refuted} refuted, {inconclusive} inconclusive \
         (rate {rate:.3}, changed-only {changed_rate:.3})"
    );

    assert_eq!(refuted, 0, "real passes were refuted: {refutations:?}");
    assert!(
        rate >= 0.7,
        "static proved rate {rate:.3} is below the 0.70 floor"
    );
}

// ---------------------------------------------------------------------------
// sanity: the relabeling really changes the printed text somewhere
// ---------------------------------------------------------------------------

#[test]
fn relabeling_changes_text_on_branchy_functions() {
    let text = "module \"t\"\n\nfn @f(i64) -> i64 internal {\nbb0:\n  %c = icmp sgt i64 %arg0, 0:i64\n  condbr %c, bb1, bb2\nbb1:\n  %a = add i64 %arg0, 1:i64\n  br bb3\nbb2:\n  %b = sub i64 %arg0, 1:i64\n  br bb3\nbb3:\n  %p = phi i64 [bb1: %a], [bb2: %b]\n  ret %p\n}\n";
    let m = parse_module(text).unwrap();
    let ren = relabel(&m);
    assert_ne!(
        print_module(&m),
        print_module(&ren),
        "relabeling must defeat the structural fast path"
    );
}
