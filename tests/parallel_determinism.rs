//! The engine's determinism contract, enforced end to end.
//!
//! `posetrl::engine` promises bit-identical training for any worker count,
//! with the evaluation cache on or off (see the module docs for why the
//! generational design makes that possible). These tests pin the contract:
//! same seed ⇒ identical episode rewards, identical replay contents (via
//! bit-identical final network weights — any divergence in replay order or
//! content would diverge the weights), and an identical final greedy
//! pipeline, for workers ∈ {1, 2, 8}.

use posetrl::actions::ActionSet;
use posetrl::engine::{train_parallel, EngineConfig};
use posetrl::eval::{evaluate_suite, evaluate_suite_parallel, ParallelEval};
use posetrl::EvalCache;
use posetrl_target::TargetArch;
use posetrl_workloads::{mibench, training_suite, Benchmark};
use std::sync::Arc;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn engine_cfg(workers: usize, cache: bool) -> EngineConfig {
    EngineConfig {
        workers,
        cache,
        validate_every: 2,
        seed: 0xC0FF_EE00,
        ..EngineConfig::quick()
    }
}

/// One full quick training run; returns everything identity-relevant.
fn run(workers: usize, cache: bool, programs: &[Benchmark]) -> (Vec<u64>, String, Vec<Vec<usize>>) {
    run_with(engine_cfg(workers, cache), workers, programs)
}

fn run_with(
    cfg: EngineConfig,
    workers: usize,
    programs: &[Benchmark],
) -> (Vec<u64>, String, Vec<Vec<usize>>) {
    let valset = &programs[..3];
    let (model, report) = train_parallel(&cfg, ActionSet::odg(), programs, valset);
    assert_eq!(report.workers, workers.max(1));
    let greedy: Vec<Vec<usize>> = programs
        .iter()
        .step_by(29)
        .map(|b| model.predict_sequence(b.module.clone()))
        .collect();
    (bits(&report.episode_rewards), model.agent.to_json(), greedy)
}

#[test]
fn training_is_bit_identical_across_worker_counts() {
    let programs = training_suite();
    let (rewards1, weights1, greedy1) = run(1, true, &programs);
    assert!(!rewards1.is_empty());
    for workers in [2, 8] {
        let (rewards, weights, greedy) = run(workers, true, &programs);
        assert_eq!(
            rewards1, rewards,
            "episode rewards must not depend on worker count ({workers})"
        );
        assert_eq!(
            weights1, weights,
            "replay contents / update order must not depend on worker count ({workers})"
        );
        assert_eq!(
            greedy1, greedy,
            "final greedy pipeline must not depend on worker count ({workers})"
        );
    }
}

#[test]
fn training_is_bit_identical_with_cache_disabled() {
    let programs = training_suite();
    let (rewards_on, weights_on, greedy_on) = run(2, true, &programs);
    let (rewards_off, weights_off, greedy_off) = run(2, false, &programs);
    assert_eq!(rewards_on, rewards_off, "the cache must be invisible");
    assert_eq!(weights_on, weights_off);
    assert_eq!(greedy_on, greedy_off);
}

#[test]
fn training_with_static_features_is_bit_identical() {
    // the absint + alias feature vector (40 dims since PR 8) rides along in
    // the state: it must not cost any determinism, for any worker count,
    // with the cache on or off. The ODG walks these runs train over include
    // the alias-backed `dse` pass, so points-to-driven rewrites are on the
    // training path too.
    let space = ActionSet::odg();
    assert!(
        (0..space.len()).any(|i| space.passes(i).contains(&"dse")),
        "the ODG action space must expose the dse pass"
    );
    let programs = training_suite();
    let run_sf = |workers: usize, cache: bool| {
        let mut cfg = engine_cfg(workers, cache);
        cfg.trainer.env.static_features = true;
        run_with(cfg, workers, &programs)
    };
    let (rewards1, weights1, greedy1) = run_sf(1, true);
    assert!(!rewards1.is_empty());
    for (workers, cache) in [(2, true), (8, true), (1, false), (2, false), (8, false)] {
        let (rewards, weights, greedy) = run_sf(workers, cache);
        assert_eq!(
            rewards1, rewards,
            "episode rewards diverged (workers={workers}, cache={cache})"
        );
        assert_eq!(
            weights1, weights,
            "weights diverged (workers={workers}, cache={cache})"
        );
        assert_eq!(
            greedy1, greedy,
            "greedy pipeline diverged (workers={workers}, cache={cache})"
        );
    }
    // feature-extended states really are wider than plain ones
    let plain = posetrl::env::PhaseEnv::new(posetrl::env::EnvConfig::default(), ActionSet::odg());
    let extended = posetrl::env::PhaseEnv::new(
        posetrl::env::EnvConfig {
            static_features: true,
            ..posetrl::env::EnvConfig::default()
        },
        ActionSet::odg(),
    );
    assert_eq!(
        extended.state_dim(),
        plain.state_dim() + posetrl_analyze::absint::features::FEATURE_DIM
    );
}

#[test]
fn training_is_bit_identical_with_incremental_on_and_off_across_workers() {
    // PR-7 contract, extended over the PR-8 memo classes: the per-function
    // incremental analysis manager must be invisible — same rewards, same
    // final weights, same greedy pipelines — for workers ∈ {1, 2, 8} with
    // incremental on or off. Static features are enabled so the absint AND
    // alias/memdep memos (not just the embed memo) are on the state path,
    // and the episodes apply `dse` through the ODG walks.
    let programs = training_suite();
    let run_inc = |workers: usize, incremental: bool| {
        let mut cfg = engine_cfg(workers, true);
        cfg.incremental = incremental;
        cfg.trainer.env.static_features = true;
        run_with(cfg, workers, &programs)
    };
    let (rewards1, weights1, greedy1) = run_inc(1, false);
    assert!(!rewards1.is_empty());
    for workers in [1usize, 2, 8] {
        for incremental in [false, true] {
            if workers == 1 && !incremental {
                continue; // the baseline itself
            }
            let (rewards, weights, greedy) = run_inc(workers, incremental);
            assert_eq!(
                rewards1, rewards,
                "episode rewards diverged (workers={workers}, incremental={incremental})"
            );
            assert_eq!(
                weights1, weights,
                "weights diverged (workers={workers}, incremental={incremental})"
            );
            assert_eq!(
                greedy1, greedy,
                "greedy pipeline diverged (workers={workers}, incremental={incremental})"
            );
        }
    }
}

#[test]
fn evaluation_numbers_are_identical_cached_parallel_vs_serial() {
    let programs = training_suite();
    let (model, _) = train_parallel(
        &engine_cfg(1, true),
        ActionSet::odg(),
        &programs,
        &programs[..1],
    );
    let benches: Vec<Benchmark> = mibench().into_iter().take(4).collect();

    let (serial, serial_stats) = evaluate_suite(&model, &benches, TargetArch::X86_64, true);
    // a shared cache must be invisible to every number
    let cache = Arc::new(EvalCache::with_capacity(1 << 12));
    for workers in [2, 8] {
        let (par, par_stats) = evaluate_suite_parallel(
            &model,
            &benches,
            TargetArch::X86_64,
            true,
            &ParallelEval::with_cache(workers, Arc::clone(&cache)),
        );
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.name, p.name, "result order is benchmark order");
            assert_eq!(s.oz_size, p.oz_size);
            assert_eq!(s.model_size, p.model_size);
            assert_eq!(s.sequence, p.sequence);
            assert_eq!(
                s.size_reduction_pct.to_bits(),
                p.size_reduction_pct.to_bits()
            );
            assert_eq!(s.oz_cycles.to_bits(), p.oz_cycles.to_bits());
            assert_eq!(s.model_cycles.to_bits(), p.model_cycles.to_bits());
            assert_eq!(
                s.runtime_improvement_pct.to_bits(),
                p.runtime_improvement_pct.to_bits()
            );
        }
        assert_eq!(
            serial_stats.avg_size_reduction_pct.to_bits(),
            par_stats.avg_size_reduction_pct.to_bits()
        );
    }
    // The second sweep re-evaluated the same modules: the shared cache must
    // have served hits rather than recomputing.
    let stats = cache.stats();
    assert!(stats.total_hits() > 0, "{}", stats.render());
}
