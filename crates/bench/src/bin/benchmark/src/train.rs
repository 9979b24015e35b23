//! The `train` workload: `train_parallel` as a user runs it.
//!
//! Set-up draws 24 training-suite programs by the seed. The timed phase
//! trains on them [`runs`] times on two workers, each run with its own
//! engine seed; a run's operations are its environment steps, and its one
//! latency sample is its time to a trained model, scaled to reference
//! speed by a sampler thread that runs beside it. An untimed greedy
//! evaluation of the first run's model on the 12 MiBench stand-ins
//! against `-Oz` follows, and each of its outputs is checked. Last, the
//! served policy answers the same stand-ins for the quality metrics every
//! workload reports.

use crate::corpus::{self, draw_training};
use crate::metrics::{self, Counters, Measured};
use crate::replay::{self, Tracer};
use crate::speed::{Span, Speed};
use crate::stats::ratio_vs_oz;
use crate::{quality, serve, Args, Outcome, SETUP_REPS};
use posetrl::eval::ParallelEval;
use posetrl::{
    evaluate_suite_parallel, train_parallel, ActionSet, EngineConfig, EvalCache, TrainerConfig,
};
use posetrl_ir::printer::print_module;
use posetrl_serve::quick_model;
use posetrl_target::TargetArch;
use posetrl_workloads::{mibench, training_suite};
use serde_json::json;
use std::sync::Arc;

const WORKERS: usize = 2;

/// Environment steps of one training run: 3 rounds of 8 episodes of 15
/// steps. The engine gives episode `k` program `k mod 24`, so a run
/// trains on each of the 24 programs once.
const RUN_STEPS: u64 = 3 * 8 * 15;

/// Steps per second of `--seconds`: at the baseline on two cores the
/// training runs last about `--seconds`. Parent and child of a change do
/// the same work for the same `--seconds`.
const STEPS_PER_S: f64 = 45.0;

/// Steps of the traced serial training loop.
const REPLAY_STEPS: u64 = 300;

/// Training runs in a timed phase of `seconds`.
fn runs(seconds: f64) -> u64 {
    (seconds * STEPS_PER_S / RUN_STEPS as f64).round().max(1.0) as u64
}

/// The engine configuration of run `run`, every field set explicitly.
fn engine_config(seed: u64, run: u64) -> EngineConfig {
    EngineConfig {
        trainer: TrainerConfig {
            total_steps: RUN_STEPS,
            ..TrainerConfig::default()
        },
        workers: WORKERS,
        episodes_per_round: 8,
        cache: true,
        cache_capacity: EvalCache::DEFAULT_CAPACITY,
        incremental: true,
        validate_every: 0,
        seed: corpus::mix(seed ^ (run << 32)),
    }
}

/// Runs the `train` workload.
///
/// # Errors
///
/// Never; the signature matches the serving workloads'.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut speed = Speed::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (drawn, span) =
            speed.bracket(|| (draw_training(args.seed, &training_suite()), mibench()));
        setups.push(span);
        inputs = Some(drawn);
    }
    let (programs, benches) = inputs.expect("at least one set-up");
    let setup_hwm_mb = metrics::status_mb("VmHWM");

    let mut items = Vec::new();
    let mut first = None;
    for run in 0..runs(args.seconds) {
        let ((model, report), span) = speed.during(|| {
            train_parallel(
                &engine_config(args.seed, run),
                ActionSet::odg(),
                &programs,
                &[],
            )
        });
        items.push((report.rounds.last().map_or(0, |r| r.steps), span));
        first.get_or_insert((model, report));
    }
    let peak_rss_mb = metrics::status_mb("VmHWM");
    let (model, report) = first.expect("at least one run");

    let references = corpus::par_map(benches.len(), |i| {
        corpus::run(&benches[i].module).observation()
    });
    let cache = Arc::new(EvalCache::with_capacity(EvalCache::DEFAULT_CAPACITY));
    let opts = ParallelEval {
        workers: WORKERS,
        cache: Some(Arc::clone(&cache)),
        sanitizer: None,
    };
    let (results, _) = evaluate_suite_parallel(&model, &benches, TargetArch::X86_64, true, &opts);
    let mut failures: Vec<String> = corpus::par_map(benches.len(), |i| {
        let name = &benches[i].name;
        let (out, seq) = model.optimize_cached(benches[i].module.clone(), Some(Arc::clone(&cache)));
        if seq != results[i].sequence {
            return Some(format!("{name}: the evaluated sequence does not repeat"));
        }
        let checked = corpus::check(&print_module(&out), &references[i]);
        checked.err().map(|e| format!("{name}: {e}"))
    })
    .into_iter()
    .flatten()
    .collect();
    let size: Vec<(f64, f64)> = results
        .iter()
        .map(|r| (r.model_size as f64, r.oz_size as f64))
        .collect();
    let cycles: Vec<(f64, f64)> = results
        .iter()
        .map(|r| (r.model_cycles, r.oz_cycles))
        .collect();

    let (_, _, server, warm) = serve::start(&quick_model().to_json());
    failures.extend(warm.err());
    let (quality, checked, wrong) = quality::served(&server);
    failures.extend(wrong);

    let c = report.cache.unwrap_or_default();
    let counters = Counters {
        step_hit_rate: metrics::rate(c.step_hits, c.step_misses),
        measure_hit_rate: metrics::rate(c.measure_hits, c.measure_misses),
        embed_hit_rate: metrics::rate(c.embed_hits, c.embed_misses),
        ..Counters::default()
    };

    let trace = args.trace.then(|| {
        let mut tr = Tracer::new();
        replay::train_loop(
            &mut tr,
            &engine_config(args.seed, 0).trainer,
            &ActionSet::odg(),
            &programs,
            REPLAY_STEPS,
        );
        tr
    });

    // one chunk per training run
    let measured = |seconds: &dyn Fn(Span) -> f64| {
        Measured::new(&setups, &items, 1, seconds, peak_rss_mb, quality)
    };
    let mut detail = vec![
        ("setup_hwm_mb".to_string(), json!(setup_hwm_mb)),
        (
            "trained_size_ratio_vs_oz".to_string(),
            json!(ratio_vs_oz(&size)),
        ),
        (
            "trained_runtime_ratio_vs_oz".to_string(),
            json!(ratio_vs_oz(&cycles)),
        ),
    ];
    detail.extend(speed.detail());
    Ok(Outcome {
        timed: measured(&|s| speed.scaled(s)),
        unscaled: measured(&Span::seconds),
        attempted: benches.len() as u64 + 1 + checked,
        failures,
        counters,
        detail,
        trace,
    })
}
