//! Property-based testing of the optimization substrate: for randomly
//! generated programs and randomly ordered pass sequences, every
//! transformation must keep the module verifier-clean and preserve the
//! observable behaviour defined by the reference interpreter.
//!
//! This is the repo's strongest correctness instrument: it exercises
//! exactly the state space the RL agent explores (arbitrary sub-sequence
//! orderings on arbitrary frontend-style programs).

use posetrl_ir::interp::{InterpConfig, Interpreter, Observation};
use posetrl_ir::verifier::verify_module;
use posetrl_odg::ActionSpace;
use posetrl_opt::manager::PassManager;
use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};
use proptest::prelude::*;

fn observe(m: &posetrl_ir::Module) -> Observation {
    Interpreter::with_config(
        m,
        InterpConfig {
            fuel: 20_000_000,
            max_depth: 512,
        },
    )
    .run("main", &[])
    .observation()
}

fn kind_from(i: u8) -> ProgramKind {
    ProgramKind::ALL[i as usize % ProgramKind::ALL.len()]
}

/// Cases per property: 24 by default, raised via `POSETRL_PROPTEST_CASES`
/// on the nightly CI profile (the vendored proptest stand-in does not read
/// environment variables itself).
fn proptest_cases() -> u32 {
    posetrl_analyze::env_budget_or_usage("POSETRL_PROPTEST_CASES", 24)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(),
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Random single passes on random programs preserve semantics.
    #[test]
    fn random_passes_preserve_semantics(
        seed in 0u64..5_000,
        kind_idx in 0u8..8,
        pass_picks in prop::collection::vec(0usize..1_000, 1..10),
    ) {
        let spec = ProgramSpec {
            name: "prop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed,
        };
        let m0 = generate(&spec);
        let before = observe(&m0);

        let pm = PassManager::new();
        let names = pm.pass_names();
        let mut m = m0.clone();
        let mut applied = Vec::new();
        for pick in &pass_picks {
            let pass = names[pick % names.len()];
            applied.push(pass);
            pm.run_pass(&mut m, pass).unwrap();
            if let Err(e) = verify_module(&m) {
                panic!("verifier failed after {applied:?}: {e}");
            }
        }
        let after = observe(&m);
        prop_assert_eq!(before, after, "behaviour changed by {:?}", applied);
    }

    /// Random ODG/manual action sequences (what the agent actually applies)
    /// preserve semantics.
    #[test]
    fn random_action_episodes_preserve_semantics(
        seed in 0u64..5_000,
        kind_idx in 0u8..8,
        use_odg in any::<bool>(),
        actions in prop::collection::vec(0usize..1_000, 1..8),
    ) {
        let spec = ProgramSpec {
            name: "prop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed: seed.wrapping_add(77),
        };
        let m0 = generate(&spec);
        let before = observe(&m0);

        let space = if use_odg { ActionSpace::odg() } else { ActionSpace::manual() };
        let pm = PassManager::new();
        let mut m = m0.clone();
        let mut applied = Vec::new();
        for a in &actions {
            let idx = a % space.len();
            applied.push(idx);
            pm.run_pipeline(&mut m, space.subsequence(idx)).unwrap();
            if let Err(e) = verify_module(&m) {
                panic!("verifier failed after {} actions {applied:?}: {e}", space.kind().name());
            }
        }
        let after = observe(&m);
        prop_assert_eq!(before, after, "{} actions {:?} changed behaviour", space.kind().name(), applied);
    }

    /// Composition: any *pair* of action sub-sequences applied back-to-back
    /// preserves interpreter observations — and so does the reversed pair.
    /// Single-action properties can miss bugs where one pass leaves a state
    /// that is verifier-clean but miscompiled by a follow-up pass; episodes
    /// are exactly such chains, so pairs are the minimal composition unit
    /// worth pinning separately.
    #[test]
    fn pass_pair_composition_preserves_semantics(
        seed in 0u64..5_000,
        kind_idx in 0u8..8,
        use_odg in any::<bool>(),
        first in 0usize..1_000,
        second in 0usize..1_000,
    ) {
        let spec = ProgramSpec {
            name: "prop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed: seed.wrapping_add(131),
        };
        let m0 = generate(&spec);
        let before = observe(&m0);

        let space = if use_odg { ActionSpace::odg() } else { ActionSpace::manual() };
        let a = first % space.len();
        let b = second % space.len();
        let pm = PassManager::new();
        for order in [[a, b], [b, a]] {
            let mut m = m0.clone();
            for &idx in &order {
                pm.run_pipeline(&mut m, space.subsequence(idx)).unwrap();
                if let Err(e) = verify_module(&m) {
                    panic!("verifier failed in {} pair {order:?} at {idx}: {e}", space.kind().name());
                }
            }
            let after = observe(&m);
            prop_assert_eq!(
                &before,
                &after,
                "{} pair {:?} changed behaviour",
                space.kind().name(),
                order
            );
        }
    }

    /// `dse` (alias-backed store elimination and store-to-load forwarding)
    /// composed with every other registered pass, in both orders, preserves
    /// interpreter observables. dse leans on interprocedural points-to
    /// summaries and MemorySSA-style reachability, so the risky partners are
    /// passes that inline, split blocks, or rewrite pointer arithmetic
    /// underneath those facts — this pins all of them.
    #[test]
    fn dse_pairs_with_every_pass_preserve_semantics(
        seed in 0u64..5_000,
        kind_idx in 0u8..8,
        other_pick in 0usize..1_000,
    ) {
        let spec = ProgramSpec {
            name: "prop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed: seed.wrapping_add(409),
        };
        let m0 = generate(&spec);
        let before = observe(&m0);

        let pm = PassManager::new();
        let names = pm.pass_names();
        let other = names[other_pick % names.len()];
        for order in [["dse", other], [other, "dse"]] {
            let mut m = m0.clone();
            for pass in order {
                pm.run_pass(&mut m, pass).unwrap();
                if let Err(e) = verify_module(&m) {
                    panic!("verifier failed in dse pair {order:?} at {pass}: {e}");
                }
            }
            let after = observe(&m);
            prop_assert_eq!(&before, &after, "dse pair {:?} changed behaviour", order);
        }
    }

    /// Object size and MCA throughput are well-defined at every point the
    /// agent can reach.
    #[test]
    fn measurements_total_on_reachable_states(
        seed in 0u64..2_000,
        kind_idx in 0u8..8,
        actions in prop::collection::vec(0usize..34, 0..6),
    ) {
        let spec = ProgramSpec {
            name: "prop".into(),
            kind: kind_from(kind_idx),
            size: SizeClass::Small,
            seed: seed.wrapping_add(31),
        };
        let mut m = generate(&spec);
        let space = ActionSpace::odg();
        let pm = PassManager::new();
        for a in &actions {
            pm.run_pipeline(&mut m, space.subsequence(a % space.len())).unwrap();
        }
        for arch in posetrl_target::TargetArch::ALL {
            let s = posetrl_target::size::object_size(&m, arch);
            prop_assert!(s.total > 0);
            let r = posetrl_target::mca::analyze(&m, arch);
            prop_assert!(r.throughput.is_finite() && r.throughput > 0.0);
            let e = posetrl_embed::Embedder::default().embed_module(&m);
            prop_assert!(e.iter().all(|x| x.is_finite()));
        }
    }
}
