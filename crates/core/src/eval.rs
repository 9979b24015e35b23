//! Evaluation against `-Oz` (Section V-B).
//!
//! For every benchmark the evaluator compiles two versions of the module —
//! one with the standard `-Oz` pipeline and one with the trained model's
//! greedy phase ordering — and compares:
//!
//! - **object size** (the paper's Table IV metric, negative = regression),
//! - **estimated runtime** from the dynamic cost model (Table V / Fig. 5).

use crate::cache::{memoized_step, sequence_signature, EvalCache};
use crate::env::run_passes;
use crate::trainer::TrainedModel;
use parking_lot::Mutex;
use posetrl_analyze::{IncrementalAnalysisManager, Sanitizer};
use posetrl_ir::interp::{InterpConfig, Interpreter};
use posetrl_ir::module_hash;
use posetrl_opt::manager::PassManager;
use posetrl_opt::pipelines;
use posetrl_target::runtime::dynamic_cycles;
use posetrl_target::size::object_size;
use posetrl_target::TargetArch;
use posetrl_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-benchmark comparison of the model's sequence against `-Oz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// Suite display name.
    pub suite: String,
    /// Object size after `-Oz`.
    pub oz_size: u64,
    /// Object size after the predicted sequence.
    pub model_size: u64,
    /// Size reduction relative to `-Oz`, percent (positive = smaller).
    pub size_reduction_pct: f64,
    /// Estimated cycles after `-Oz` (0 when runtime was not measured).
    pub oz_cycles: f64,
    /// Estimated cycles after the predicted sequence.
    pub model_cycles: f64,
    /// Runtime improvement relative to `-Oz`, percent (positive = faster).
    pub runtime_improvement_pct: f64,
    /// The predicted action indices.
    pub sequence: Vec<usize>,
}

/// Aggregate statistics over one suite (one row of Table IV / V).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteStats {
    /// Suite display name.
    pub suite: String,
    /// Architecture the sizes were measured on.
    pub arch: TargetArch,
    /// Minimum size reduction (negative = worst regression).
    pub min_size_reduction_pct: f64,
    /// Mean size reduction.
    pub avg_size_reduction_pct: f64,
    /// Maximum size reduction.
    pub max_size_reduction_pct: f64,
    /// Mean runtime improvement (x86 measurements only in the paper).
    pub avg_runtime_improvement_pct: f64,
}

/// Interpreter budget for runtime measurement.
fn eval_interp_config() -> InterpConfig {
    InterpConfig {
        fuel: 50_000_000,
        max_depth: 512,
    }
}

/// Measures estimated cycles of `module`'s `main` on `arch`.
///
/// Incomplete runs (trap or fuel exhaustion) are reported to stderr — the
/// returned cycle count then covers only the executed prefix, which would
/// silently flatter the slower binary in comparisons.
pub fn measure_cycles(module: &posetrl_ir::Module, arch: TargetArch) -> f64 {
    let out = Interpreter::with_config(module, eval_interp_config()).run("main", &[]);
    if let Err(e) = &out.result {
        eprintln!(
            "[eval] warning: '{}' did not complete ({e}); cycles cover the executed prefix",
            module.name
        );
    }
    dynamic_cycles(module, &out.profile, arch)
}

/// Evaluates a trained model over `benchmarks`.
///
/// Size is measured on `arch`; runtime is measured only when
/// `measure_runtime` is set (the paper reports runtime for x86 only).
pub fn evaluate_suite(
    model: &TrainedModel,
    benchmarks: &[Benchmark],
    arch: TargetArch,
    measure_runtime: bool,
) -> (Vec<BenchmarkResult>, SuiteStats) {
    evaluate_suite_parallel(
        model,
        benchmarks,
        arch,
        measure_runtime,
        &ParallelEval::serial(),
    )
}

/// Parallelism/caching options for [`evaluate_suite_parallel`].
#[derive(Debug, Clone, Default)]
pub struct ParallelEval {
    /// Worker threads (0 = one per available core, 1 = no spawning).
    pub workers: usize,
    /// Shared evaluation cache; greedy rollouts and the `-Oz` baseline are
    /// memoized in it, so repeated sweeps get cheaper.
    pub cache: Option<Arc<EvalCache>>,
    /// Shared pass-pipeline sanitizer: every `-Oz` baseline compile and
    /// greedy rollout is checked through it, and its counters aggregate
    /// across workers. `None` evaluates unchecked.
    pub sanitizer: Option<Arc<Sanitizer>>,
}

impl ParallelEval {
    /// The plain serial configuration (`evaluate_suite`'s behaviour).
    pub fn serial() -> ParallelEval {
        ParallelEval {
            workers: 1,
            ..ParallelEval::default()
        }
    }

    /// `workers` threads sharing `cache`.
    pub fn with_cache(workers: usize, cache: Arc<EvalCache>) -> ParallelEval {
        ParallelEval {
            workers,
            cache: Some(cache),
            ..ParallelEval::default()
        }
    }

    /// Attaches a shared sanitizer (builder style).
    pub fn with_sanitizer(mut self, sanitizer: Arc<Sanitizer>) -> ParallelEval {
        self.sanitizer = Some(sanitizer);
        self
    }
}

/// Resolves a worker-count setting: 0 means one per available core.
pub(crate) fn resolved_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Applies the `-Oz` pipeline, sanitized when a sanitizer is attached
/// (memoizing its checks through `mgr`, when given).
pub(crate) fn run_oz(
    pm: &PassManager,
    m: &mut posetrl_ir::Module,
    san: Option<&Sanitizer>,
    mgr: Option<&IncrementalAnalysisManager>,
) {
    run_passes(pm, m, &pipelines::oz(), san, mgr);
}

/// Evaluates one benchmark: `-Oz` baseline vs the model's greedy sequence.
fn evaluate_one(
    model: &TrainedModel,
    b: &Benchmark,
    arch: TargetArch,
    measure_runtime: bool,
    pm: &PassManager,
    oz_signature: u64,
    opts: &ParallelEval,
) -> BenchmarkResult {
    let cache = opts.cache.as_ref();
    // -Oz baseline, memoized as a step when a cache is attached
    let mut oz_module = b.module.clone();
    let mgr = cache.and_then(|c| c.incremental()).map(Arc::as_ref);
    let run = |m: &mut posetrl_ir::Module| run_oz(pm, m, opts.sanitizer.as_deref(), mgr);
    match cache {
        Some(cache) => {
            let pre = module_hash(&b.module);
            memoized_step(&cache.step, pre, oz_signature, &mut oz_module, run);
        }
        None => run(&mut oz_module),
    }
    let oz_size = object_size(&oz_module, arch).total;

    // model-predicted sequence
    let (model_module, sequence) =
        model.optimize_with(b.module.clone(), cache.cloned(), opts.sanitizer.clone());
    let model_size = object_size(&model_module, arch).total;

    let size_reduction_pct = 100.0 * (oz_size as f64 - model_size as f64) / oz_size as f64;

    let (oz_cycles, model_cycles, runtime_improvement_pct) = if measure_runtime {
        let ozc = measure_cycles(&oz_module, arch);
        let mc = measure_cycles(&model_module, arch);
        let imp = if ozc > 0.0 {
            100.0 * (ozc - mc) / ozc
        } else {
            0.0
        };
        (ozc, mc, imp)
    } else {
        (0.0, 0.0, 0.0)
    };

    BenchmarkResult {
        name: b.name.clone(),
        suite: b.suite.name().to_string(),
        oz_size,
        model_size,
        size_reduction_pct,
        oz_cycles,
        model_cycles,
        runtime_improvement_pct,
        sequence,
    }
}

/// Evaluates a trained model over `benchmarks`, fanning the per-benchmark
/// work out across `opts.workers` threads.
///
/// Results are ordered by benchmark index regardless of scheduling, and the
/// numbers are bit-identical to the serial, uncached sweep — benchmarks are
/// independent and every memoized evaluation is deterministic.
pub fn evaluate_suite_parallel(
    model: &TrainedModel,
    benchmarks: &[Benchmark],
    arch: TargetArch,
    measure_runtime: bool,
    opts: &ParallelEval,
) -> (Vec<BenchmarkResult>, SuiteStats) {
    let workers = resolved_workers(opts.workers);
    // "apply the whole -Oz pipeline" is memoized like any other action
    let oz_signature = sequence_signature(&pipelines::oz());
    let results: Vec<BenchmarkResult> = if workers <= 1 || benchmarks.len() <= 1 {
        let pm = PassManager::new();
        benchmarks
            .iter()
            .map(|b| evaluate_one(model, b, arch, measure_runtime, &pm, oz_signature, opts))
            .collect()
    } else {
        let next: Mutex<usize> = Mutex::new(0);
        let slots: Mutex<Vec<Option<BenchmarkResult>>> = Mutex::new(
            std::iter::repeat_with(|| None)
                .take(benchmarks.len())
                .collect(),
        );
        std::thread::scope(|s| {
            for _ in 0..workers.min(benchmarks.len()) {
                s.spawn(|| {
                    let pm = PassManager::new();
                    loop {
                        let i = {
                            let mut n = next.lock();
                            let i = *n;
                            *n += 1;
                            i
                        };
                        if i >= benchmarks.len() {
                            break;
                        }
                        let r = evaluate_one(
                            model,
                            &benchmarks[i],
                            arch,
                            measure_runtime,
                            &pm,
                            oz_signature,
                            opts,
                        );
                        slots.lock()[i] = Some(r);
                    }
                });
            }
        });
        slots
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every benchmark evaluated"))
            .collect()
    };
    let stats = aggregate(&results, arch);
    (results, stats)
}

/// Aggregates per-benchmark results into suite statistics.
pub fn aggregate(results: &[BenchmarkResult], arch: TargetArch) -> SuiteStats {
    let suite = results.first().map(|r| r.suite.clone()).unwrap_or_default();
    let n = results.len().max(1) as f64;
    let min = results
        .iter()
        .map(|r| r.size_reduction_pct)
        .fold(f64::INFINITY, f64::min);
    let max = results
        .iter()
        .map(|r| r.size_reduction_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let avg = results.iter().map(|r| r.size_reduction_pct).sum::<f64>() / n;
    let avg_rt = results
        .iter()
        .map(|r| r.runtime_improvement_pct)
        .sum::<f64>()
        / n;
    SuiteStats {
        suite,
        arch,
        min_size_reduction_pct: if min.is_finite() { min } else { 0.0 },
        avg_size_reduction_pct: avg,
        max_size_reduction_pct: if max.is_finite() { max } else { 0.0 },
        avg_runtime_improvement_pct: avg_rt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionSet;
    use crate::trainer::{train, TrainerConfig};
    use posetrl_workloads::{mibench, training_suite};

    #[test]
    fn evaluation_produces_consistent_stats() {
        let programs = training_suite();
        let model = train(&TrainerConfig::quick(), ActionSet::odg(), &programs);
        let benches: Vec<_> = mibench().into_iter().take(3).collect();
        let (results, stats) = evaluate_suite(&model, &benches, TargetArch::X86_64, false);
        assert_eq!(results.len(), 3);
        assert!(stats.min_size_reduction_pct <= stats.avg_size_reduction_pct);
        assert!(stats.avg_size_reduction_pct <= stats.max_size_reduction_pct);
        for r in &results {
            assert!(r.oz_size > 0 && r.model_size > 0);
            assert_eq!(r.sequence.len(), 5);
        }
    }

    #[test]
    fn runtime_measurement_is_positive_when_enabled() {
        let programs = training_suite();
        let model = train(&TrainerConfig::quick(), ActionSet::manual(), &programs);
        let benches: Vec<_> = mibench().into_iter().take(1).collect();
        let (results, _) = evaluate_suite(&model, &benches, TargetArch::X86_64, true);
        assert!(results[0].oz_cycles > 0.0);
        assert!(results[0].model_cycles > 0.0);
    }

    #[test]
    fn sanitized_sweep_matches_unchecked_sweep() {
        use posetrl_analyze::SanitizeLevel;
        let programs = training_suite();
        let model = train(&TrainerConfig::quick(), ActionSet::odg(), &programs);
        let benches: Vec<_> = mibench().into_iter().take(2).collect();
        let (plain, _) = evaluate_suite(&model, &benches, TargetArch::X86_64, false);
        let san = Arc::new(Sanitizer::new(SanitizeLevel::Verify));
        let opts = ParallelEval::serial().with_sanitizer(Arc::clone(&san));
        let (checked, _) =
            evaluate_suite_parallel(&model, &benches, TargetArch::X86_64, false, &opts);
        for (p, c) in plain.iter().zip(&checked) {
            assert_eq!(p.oz_size, c.oz_size, "{}", p.name);
            assert_eq!(p.model_size, c.model_size, "{}", p.name);
        }
        let stats = san.stats();
        assert!(stats.checks > 0, "sweep was checked: {stats:?}");
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.miscompiles, 0);
    }

    #[test]
    fn evaluated_modules_preserve_semantics() {
        use posetrl_ir::interp::Interpreter;
        let programs = training_suite();
        let model = train(&TrainerConfig::quick(), ActionSet::odg(), &programs);
        for b in mibench().into_iter().take(2) {
            let before = Interpreter::new(&b.module).run("main", &[]).observation();
            let (optimized, _) = model.optimize(b.module.clone());
            let after = Interpreter::new(&optimized).run("main", &[]).observation();
            assert_eq!(before, after, "{}", b.name);
        }
    }
}
