//! Serial vs parallel+cached validation sweeps (PR 2 acceptance bench).
//!
//! `eval_serial_uncached` is the pre-engine path: every criterion iteration
//! re-runs the full `-Oz` baseline and greedy rollout per benchmark.
//! `eval_parallel_cached_2w` / `_8w` share one `EvalCache` across all
//! iterations — after the first (cold) iteration every sweep is served from
//! memoized step/measure/embed entries, which is exactly what repeated
//! per-epoch validation looks like during training. The numbers are
//! bit-identical across all three (tests/parallel_determinism.rs); only the
//! wall clock differs.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl::actions::ActionSet;
use posetrl::engine::{train_parallel, EngineConfig};
use posetrl::env::{EnvConfig, PhaseEnv};
use posetrl::eval::{evaluate_suite, evaluate_suite_parallel, ParallelEval};
use posetrl::trainer::TrainedModel;
use posetrl::EvalCache;
use posetrl_analyze::IncrementalAnalysisManager;
use posetrl_target::TargetArch;
use posetrl_workloads::{mibench, training_suite, Benchmark};
use std::hint::black_box;
use std::sync::Arc;

fn sweep_fixture() -> (TrainedModel, Vec<Benchmark>) {
    let (model, _) = train_parallel(
        &EngineConfig::quick(),
        ActionSet::odg(),
        &training_suite(),
        &[],
    );
    let benches: Vec<Benchmark> = mibench().into_iter().take(6).collect();
    (model, benches)
}

fn bench_validation_sweeps(c: &mut Criterion) {
    let (model, benches) = sweep_fixture();
    let arch = TargetArch::X86_64;

    c.bench_function("eval_serial_uncached", |b| {
        b.iter(|| {
            let (results, _) = evaluate_suite(&model, &benches, arch, false);
            black_box(results.len())
        })
    });

    for workers in [2usize, 8] {
        let cache = EvalCache::shared();
        let opts = ParallelEval::with_cache(workers, Arc::clone(&cache));
        c.bench_function(&format!("eval_parallel_cached_{workers}w"), |b| {
            b.iter(|| {
                let (results, _) = evaluate_suite_parallel(&model, &benches, arch, false, &opts);
                black_box(results.len())
            })
        });
        eprintln!("[parallel_eval] {workers}w {}", cache.stats().render());
    }
}

/// Incremental-vs-full on the warm episode path: a fixed 15-step episode
/// replayed with and without a (persistent, hence warm after the first
/// iteration) per-function [`IncrementalAnalysisManager`]. With the
/// manager attached, each step re-embeds and re-analyzes only the
/// functions the step's passes touched; without it, every step restarts
/// from scratch. No `EvalCache` is attached, so the comparison isolates
/// the per-function memoization (a step memo would hide the analysis
/// work entirely). States are bit-identical either way
/// (tests/incremental_equivalence.rs).
fn bench_incremental_episode(c: &mut Criterion) {
    let module = mibench()
        .into_iter()
        .next()
        .expect("mibench is non-empty")
        .module;
    let actions = ActionSet::odg();
    let seq: [usize; 15] = [8, 23, 30, 13, 5, 19, 0, 33, 21, 10, 2, 27, 17, 6, 31];
    let cfg = EnvConfig {
        static_features: true,
        ..EnvConfig::default()
    };
    for incremental in [false, true] {
        let label = if incremental {
            "episode_15step_incremental_warm"
        } else {
            "episode_15step_full"
        };
        let mut env = PhaseEnv::new(cfg.clone(), actions.clone());
        let mgr = incremental.then(|| Arc::new(IncrementalAnalysisManager::new()));
        env.set_incremental(mgr.clone());
        c.bench_function(label, |b| {
            b.iter(|| {
                let mut state = env.reset(module.clone());
                for &a in &seq {
                    state = env.step(a).state;
                }
                black_box(state.len())
            })
        });
        if let Some(mgr) = &mgr {
            eprintln!("[parallel_eval] {:?}", mgr.stats());
        }
    }
}

criterion_group!(benches, bench_validation_sweeps, bench_incremental_episode);
criterion_main!(benches);
