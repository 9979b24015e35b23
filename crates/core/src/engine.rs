//! The parallel episode engine.
//!
//! Training wall-clock is dominated by episode rollouts (pass pipelines,
//! size/MCA measurement, embedding) rather than by gradient updates. The
//! engine exploits that split: rollouts fan out across a worker pool while
//! every weight update stays on the coordinator thread, and a shared
//! [`EvalCache`] memoizes repeated evaluations across episodes, restarts
//! and validation sweeps.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for any worker count** (and with the cache
//! on or off). The engine guarantees this by construction:
//!
//! 1. Training proceeds in *rounds*. Each round freezes the current policy
//!    ([`posetrl_rl::Policy`] snapshot) and plans a fixed batch of episodes
//!    up front — `episodes_per_round` is a schedule constant, independent
//!    of how many workers execute the batch.
//! 2. Every planned episode owns a private RNG seeded from
//!    `(engine seed, episode index)` and a pre-assigned global step range
//!    that determines its ε schedule, so a rollout's trajectory depends
//!    only on the plan, never on which thread runs it or when.
//! 3. Workers drain a shared job queue and write results into per-job
//!    slots; the coordinator consumes them **in episode order**, pushing
//!    transitions into replay and training the live agent exactly as the
//!    serial path would.
//! 4. Validation sweeps evaluate the round's frozen policy greedily; they
//!    share the worker pool and the cache but touch no training state.
//!
//! `workers == 1` runs the identical algorithm on the coordinator thread
//! with no thread spawns — that is the "serial path" the determinism suite
//! compares against.

use crate::actions::ActionSet;
use crate::cache::{CacheStats, EvalCache};
use crate::env::PhaseEnv;
use crate::eval::{resolved_workers, run_oz};
use crate::trainer::{tail_mean_reward, TrainedModel, TrainerConfig};
use parking_lot::Mutex;
use posetrl_analyze::{IncrementalAnalysisManager, SanitizeLevel, Sanitizer, SanitizerStats};
use posetrl_opt::manager::PassManager;
use posetrl_rl::dqn::{DqnAgent, DqnConfig, Policy};
use posetrl_rl::replay::Transition;
use posetrl_target::size::object_size;
use posetrl_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine configuration: a [`TrainerConfig`] plus parallelism/cache knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The training schedule, environment and agent hyper-parameters.
    pub trainer: TrainerConfig,
    /// Worker threads for rollouts (0 = one per available core, 1 = run
    /// everything on the coordinator thread without spawning).
    pub workers: usize,
    /// Episodes planned per round. A schedule constant: it must not depend
    /// on `workers`, or determinism across worker counts would break.
    pub episodes_per_round: usize,
    /// Memoize evaluations in a shared [`EvalCache`].
    pub cache: bool,
    /// Cache capacity in entries (FIFO eviction past this).
    pub cache_capacity: usize,
    /// Share one per-function [`IncrementalAnalysisManager`] across every
    /// worker: embeddings, lint bundles, absint summaries and validate
    /// obligations memoize by function content, so a step that touches one
    /// function re-analyzes only that function. Results are bit-identical
    /// either way. On by default.
    pub incremental: bool,
    /// Run a greedy validation sweep every N rounds (0 = never).
    pub validate_every: usize,
    /// Seed for the per-episode rollout RNGs (independent of the agent's
    /// weight-init/replay seed so ablations can vary them separately).
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            trainer: TrainerConfig::default(),
            workers: 0,
            episodes_per_round: 8,
            cache: true,
            cache_capacity: EvalCache::DEFAULT_CAPACITY,
            incremental: true,
            validate_every: 0,
            seed: 0x0D15_EA5E,
        }
    }
}

impl EngineConfig {
    /// A fast configuration for tests, mirroring [`TrainerConfig::quick`].
    pub fn quick() -> EngineConfig {
        EngineConfig {
            trainer: TrainerConfig::quick(),
            episodes_per_round: 4,
            ..EngineConfig::default()
        }
    }
}

/// Per-round training log entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundLog {
    /// Round number (0-based).
    pub round: usize,
    /// Episodes completed after this round.
    pub episodes: usize,
    /// Environment steps completed after this round.
    pub steps: u64,
    /// Mean episode reward within this round.
    pub mean_reward: f64,
    /// Exploration rate at the end of the round.
    pub epsilon: f64,
    /// Cache counters after this round (None when caching is off).
    pub cache: Option<CacheStats>,
    /// Sanitizer counters after this round (None when sanitizing is off).
    /// Cumulative across workers — every env reports into one shared
    /// [`Sanitizer`], so the sums are worker-count independent.
    pub sanitizer: Option<SanitizerStats>,
}

/// One validation sweep's aggregate (size-vs-Oz of the frozen policy).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationLog {
    /// Round the sweep ran after.
    pub round: usize,
    /// Mean size reduction vs `-Oz`, percent.
    pub avg_size_reduction_pct: f64,
    /// Worst benchmark.
    pub min_size_reduction_pct: f64,
    /// Best benchmark.
    pub max_size_reduction_pct: f64,
}

/// Everything the engine observed during one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// Worker threads actually used.
    pub workers: usize,
    /// Reward of every episode, in episode order.
    pub episode_rewards: Vec<f64>,
    /// Per-round log (the "trainer's episode log").
    pub rounds: Vec<RoundLog>,
    /// Validation sweeps, oldest first.
    pub validations: Vec<ValidationLog>,
    /// Final cache counters (None when caching was off).
    pub cache: Option<CacheStats>,
    /// Final sanitizer counters (None when sanitizing was off).
    pub sanitizer: Option<SanitizerStats>,
}

/// Deterministic per-episode RNG (splitmix64 stream).
#[derive(Debug, Clone)]
pub(crate) struct EngineRng(u64);

impl EngineRng {
    pub(crate) fn new(seed: u64) -> EngineRng {
        EngineRng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of episode `ep_index`'s private RNG.
fn episode_seed(engine_seed: u64, ep_index: u64) -> u64 {
    // one splitmix64 scramble so neighbouring episodes get unrelated streams
    let mut z = engine_seed ^ ep_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Job {
    Episode {
        slot: usize,
        ep_index: u64,
        start_step: u64,
        module: posetrl_ir::Module,
    },
    Validate {
        slot: usize,
        oz_size: u64,
        module: posetrl_ir::Module,
    },
}

enum JobResult {
    Episode {
        reward: f64,
        transitions: Vec<Transition>,
    },
    Validate {
        size_reduction_pct: f64,
    },
}

/// Everything a worker needs to run jobs (shared immutably per round).
struct RoundCtx<'a> {
    config: &'a EngineConfig,
    agent_cfg: &'a DqnConfig,
    actions: &'a ActionSet,
    policy: &'a Policy,
    cache: Option<&'a Arc<EvalCache>>,
    sanitizer: Option<&'a Arc<Sanitizer>>,
    incremental: Option<&'a Arc<IncrementalAnalysisManager>>,
}

impl RoundCtx<'_> {
    fn make_env(&self) -> PhaseEnv {
        let env_cfg = self.config.trainer.env.clone();
        let mut env = match self.cache {
            Some(c) => PhaseEnv::with_cache(env_cfg, self.actions.clone(), Arc::clone(c)),
            None => PhaseEnv::new(env_cfg, self.actions.clone()),
        };
        // replace the env's private incremental manager with the run-wide
        // shared one (or clear it when `config.incremental` is off); the
        // sanitizer checks this env's steps through that manager, and is
        // itself shared so its counters aggregate over every worker
        env.set_incremental(self.incremental.map(Arc::clone));
        env.set_sanitizer(self.sanitizer.map(Arc::clone));
        env
    }

    fn run(&self, env: &mut PhaseEnv, job: Job) -> (usize, JobResult) {
        match job {
            Job::Episode {
                slot,
                ep_index,
                start_step,
                module,
            } => {
                let mut rng = EngineRng::new(episode_seed(self.config.seed, ep_index));
                let mut state = env.reset(module);
                let mut transitions = Vec::with_capacity(self.config.trainer.env.episode_len);
                let mut reward = 0.0;
                let mut offset = 0u64;
                loop {
                    let eps = self.agent_cfg.epsilon_at(start_step + offset);
                    let a = if rng.next_f64() < eps {
                        rng.next_below(self.actions.len())
                    } else {
                        self.policy.act_greedy(&state)
                    };
                    let r = env.step(a);
                    reward += r.reward;
                    transitions.push(Transition {
                        state: std::mem::take(&mut state),
                        action: a,
                        reward: r.reward,
                        next_state: r.state.clone(),
                        done: r.done,
                    });
                    state = r.state;
                    offset += 1;
                    if r.done {
                        break;
                    }
                }
                (
                    slot,
                    JobResult::Episode {
                        reward,
                        transitions,
                    },
                )
            }
            Job::Validate {
                slot,
                oz_size,
                module,
            } => {
                env.greedy_rollout(module, |s| self.policy.act_greedy(s));
                let model_size = object_size(env.module(), self.config.trainer.env.arch).total;
                let size_reduction_pct =
                    100.0 * (oz_size as f64 - model_size as f64) / oz_size as f64;
                (slot, JobResult::Validate { size_reduction_pct })
            }
        }
    }
}

/// Runs `jobs` to completion on `workers` threads (in the caller's thread
/// when `workers <= 1`) and returns results in slot order.
fn run_round(ctx: &RoundCtx<'_>, jobs: Vec<Job>, workers: usize) -> Vec<JobResult> {
    let n = jobs.len();
    let queue: Mutex<VecDeque<Job>> = Mutex::new(jobs.into());
    let slots: Mutex<Vec<Option<JobResult>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n).collect());

    let drain = |ctx: &RoundCtx<'_>| {
        let mut env = ctx.make_env();
        loop {
            let job = queue.lock().pop_front();
            let Some(job) = job else { break };
            let (slot, result) = ctx.run(&mut env, job);
            slots.lock()[slot] = Some(result);
        }
    };

    if workers <= 1 {
        drain(ctx);
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers.min(n.max(1)) {
                s.spawn(|| drain(ctx));
            }
        });
    }

    slots
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every job slot filled"))
        .collect()
}

/// Trains with the parallel episode engine.
///
/// `valset` (when non-empty and `validate_every > 0`) is swept greedily
/// against `-Oz` with the round's frozen policy, on the same worker pool.
///
/// # Panics
///
/// Panics if `programs` is empty after applying `max_programs`.
pub fn train_parallel(
    config: &EngineConfig,
    actions: ActionSet,
    programs: &[Benchmark],
    valset: &[Benchmark],
) -> (TrainedModel, EngineReport) {
    let tcfg = &config.trainer;
    let used: Vec<&Benchmark> = match tcfg.max_programs {
        Some(n) => programs.iter().take(n).collect(),
        None => programs.iter().collect(),
    };
    assert!(!used.is_empty(), "training needs at least one program");

    let incremental = config
        .incremental
        .then(|| Arc::new(IncrementalAnalysisManager::new()));
    let cache = config.cache.then(|| {
        Arc::new(
            EvalCache::with_capacity(config.cache_capacity).with_incremental(incremental.clone()),
        )
    });
    let sanitizer = (tcfg.env.sanitize != SanitizeLevel::Off)
        .then(|| Arc::new(Sanitizer::new(tcfg.env.sanitize)));
    let workers = resolved_workers(config.workers);

    let mut agent_cfg = tcfg.agent.clone();
    agent_cfg.state_dim = PhaseEnv::new(tcfg.env.clone(), actions.clone()).state_dim();
    agent_cfg.n_actions = actions.len();
    let mut agent = DqnAgent::new(agent_cfg.clone());

    // -Oz baselines for the validation sweep, computed once up front
    let oz_sizes: Vec<u64> = if config.validate_every > 0 {
        let pm = PassManager::new();
        valset
            .iter()
            .map(|b| {
                let mut m = b.module.clone();
                run_oz(&pm, &mut m, sanitizer.as_deref(), incremental.as_deref());
                object_size(&m, tcfg.env.arch).total
            })
            .collect()
    } else {
        Vec::new()
    };

    let ep_len = tcfg.env.episode_len.max(1) as u64;
    let mut episode_rewards: Vec<f64> = Vec::new();
    let mut rounds: Vec<RoundLog> = Vec::new();
    let mut validations: Vec<ValidationLog> = Vec::new();
    let mut steps: u64 = 0;
    let mut ep_index: u64 = 0;
    let mut round = 0usize;
    let mut last_logged_chunk = 0u64;

    while steps < tcfg.total_steps {
        // plan the round: a fixed batch of episodes with pre-assigned step
        // ranges, plus (periodically) the validation sweep
        let mut jobs: Vec<Job> = Vec::new();
        let mut planned = 0u64;
        while jobs.len() < config.episodes_per_round.max(1)
            && steps + planned * ep_len < tcfg.total_steps
        {
            let program_idx = (ep_index as usize) % used.len();
            jobs.push(Job::Episode {
                slot: jobs.len(),
                ep_index,
                start_step: steps + planned * ep_len,
                module: used[program_idx].module.clone(),
            });
            ep_index += 1;
            planned += 1;
        }
        let n_episodes = jobs.len();
        let validate = config.validate_every > 0
            && round.is_multiple_of(config.validate_every)
            && !valset.is_empty();
        if validate {
            for (i, b) in valset.iter().enumerate() {
                jobs.push(Job::Validate {
                    slot: n_episodes + i,
                    oz_size: oz_sizes[i],
                    module: b.module.clone(),
                });
            }
        }

        let policy = agent.policy();
        let ctx = RoundCtx {
            config,
            agent_cfg: &agent_cfg,
            actions: &actions,
            policy: &policy,
            cache: cache.as_ref(),
            sanitizer: sanitizer.as_ref(),
            incremental: incremental.as_ref(),
        };
        let results = run_round(&ctx, jobs, workers);

        // consume in plan order: replay filling + gradient updates stay on
        // this coordinator thread
        let mut round_reward = 0.0;
        let mut results = results.into_iter();
        for result in results.by_ref().take(n_episodes) {
            let JobResult::Episode {
                reward,
                transitions,
            } = result
            else {
                unreachable!("episode slots precede validation slots")
            };
            for t in transitions {
                agent.advance_steps(1);
                agent.observe(t);
                steps += 1;
            }
            round_reward += reward;
            episode_rewards.push(reward);
        }
        if validate {
            let mut reductions: Vec<f64> = Vec::with_capacity(valset.len());
            for result in results {
                let JobResult::Validate { size_reduction_pct } = result else {
                    unreachable!("validation slots follow episode slots")
                };
                reductions.push(size_reduction_pct);
            }
            let n = reductions.len().max(1) as f64;
            validations.push(ValidationLog {
                round,
                avg_size_reduction_pct: reductions.iter().sum::<f64>() / n,
                min_size_reduction_pct: reductions.iter().copied().fold(f64::INFINITY, f64::min),
                max_size_reduction_pct: reductions
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max),
            });
        }

        let log = RoundLog {
            round,
            episodes: episode_rewards.len(),
            steps,
            mean_reward: round_reward / n_episodes.max(1) as f64,
            epsilon: agent.epsilon(),
            cache: cache.as_ref().map(|c| c.stats()),
            sanitizer: sanitizer.as_ref().map(|s| s.stats()),
        };
        if tcfg.log_every > 0 && steps / tcfg.log_every > last_logged_chunk {
            last_logged_chunk = steps / tcfg.log_every;
            let mut cache_line = log
                .cache
                .map(|s| format!("; {}", s.render()))
                .unwrap_or_default();
            if let Some(s) = &log.sanitizer {
                cache_line.push_str(&format!("; sanitizer {}", s.render()));
            }
            eprintln!(
                "[engine:{}@{}] round {round} step {steps}/{} eps={:.3} episodes={} workers={workers}{cache_line}",
                actions.name, tcfg.env.arch, tcfg.total_steps, log.epsilon, log.episodes,
            );
        }
        rounds.push(log);
        round += 1;
    }

    let final_mean_reward = tail_mean_reward(&episode_rewards);
    let report = EngineReport {
        workers,
        episode_rewards: episode_rewards.clone(),
        rounds,
        validations,
        cache: cache.as_ref().map(|c| c.stats()),
        sanitizer: sanitizer.as_ref().map(|s| s.stats()),
    };
    (
        TrainedModel {
            agent,
            actions,
            env: tcfg.env.clone(),
            final_mean_reward,
            episode_rewards,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_workloads::training_suite;

    #[test]
    fn engine_rng_is_deterministic_and_covers() {
        let mut a = EngineRng::new(episode_seed(7, 3));
        let mut b = EngineRng::new(episode_seed(7, 3));
        let mut seen = [false; 8];
        for _ in 0..200 {
            let x = a.next_below(8);
            assert_eq!(x, b.next_below(8));
            seen[x] = true;
            let f = a.next_f64();
            assert_eq!(f, b.next_f64());
            assert!((0.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "200 draws cover all 8 values");
    }

    #[test]
    fn neighbouring_episode_seeds_diverge() {
        let s0 = episode_seed(42, 0);
        let s1 = episode_seed(42, 1);
        assert_ne!(s0, s1);
        let mut r0 = EngineRng::new(s0);
        let mut r1 = EngineRng::new(s1);
        let same = (0..64).filter(|_| r0.next_u64() == r1.next_u64()).count();
        assert_eq!(same, 0, "streams are unrelated");
    }

    #[test]
    fn quick_parallel_training_runs_and_reports() {
        let programs = training_suite();
        let cfg = EngineConfig {
            workers: 2,
            validate_every: 2,
            ..EngineConfig::quick()
        };
        let (model, report) = train_parallel(
            &cfg,
            ActionSet::odg(),
            &programs,
            &programs[..2.min(programs.len())],
        );
        assert!(!model.episode_rewards.is_empty());
        assert!(!report.rounds.is_empty());
        assert!(!report.validations.is_empty());
        let stats = report.cache.expect("cache enabled by default");
        assert!(
            stats.total_hits() > 0,
            "training revisits states: {}",
            stats.render()
        );
        let seq = model.predict_sequence(programs[3].module.clone());
        assert_eq!(seq.len(), cfg.trainer.env.episode_len);
    }

    #[test]
    fn sanitized_engine_run_reports_clean_counters() {
        let programs = training_suite();
        let mut cfg = EngineConfig {
            workers: 2,
            ..EngineConfig::quick()
        };
        cfg.trainer.env.sanitize = SanitizeLevel::Verify;
        let (_, report) = train_parallel(&cfg, ActionSet::odg(), &programs, &[]);
        let stats = report.sanitizer.expect("sanitizer enabled");
        assert!(stats.checks > 0, "passes were checked: {stats:?}");
        assert_eq!(stats.verify_failures, 0, "no pass broke the verifier");
        assert_eq!(stats.miscompiles, 0);
        let per_round = report.rounds.last().unwrap().sanitizer.unwrap();
        assert_eq!(per_round, stats, "final round log carries final stats");
    }
}
