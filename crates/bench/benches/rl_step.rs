//! Benchmarks of the RL stack: DQN inference/training and full
//! environment steps (the unit of training cost).

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl::actions::ActionSet;
use posetrl::env::{EnvConfig, PhaseEnv};
use posetrl::trainer::TrainerConfig;
use posetrl_bench::bench_module;
use posetrl_rl::dqn::{DqnAgent, DqnConfig};
use posetrl_rl::nn::Mlp;
use posetrl_rl::replay::Transition;
use std::hint::black_box;

fn bench_dqn(c: &mut Criterion) {
    let cfg = DqnConfig {
        state_dim: 300,
        n_actions: 34,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(cfg);
    let state = vec![0.1; 300];
    c.bench_function("dqn_forward_300x128x64x34", |b| {
        b.iter(|| black_box(agent.q_values(black_box(&state))))
    });
    // pre-fill replay so observe() trains each call
    for i in 0..128 {
        agent.observe(Transition {
            state: vec![0.01 * i as f64; 300],
            action: (i % 34) as usize,
            reward: 0.1,
            next_state: vec![0.01 * (i + 1) as f64; 300],
            done: i % 15 == 14,
        });
    }
    c.bench_function("dqn_train_batch32", |b| {
        b.iter(|| {
            agent.observe(Transition {
                state: vec![0.5; 300],
                action: 3,
                reward: 0.2,
                next_state: vec![0.4; 300],
                done: false,
            })
        })
    });
}

/// A deterministic 300-wide state with mixed signs, so ReLU masks vary
/// from row to row like real embeddings do.
fn state(i: usize) -> Vec<f64> {
    (0..300).map(|j| ((i * 31 + j * 7) as f64).sin()).collect()
}

/// The learner shape `train` runs: `TrainerConfig::default()`'s agent
/// (batch 64, 2 updates per step) at 300 state dims and 34 ODG actions.
fn bench_trainer_learner(c: &mut Criterion) {
    let cfg = DqnConfig {
        state_dim: 300,
        n_actions: 34,
        ..TrainerConfig::default().agent
    };
    let mut agent = DqnAgent::new(cfg);
    for i in 0..256 {
        agent.observe(Transition {
            state: state(i),
            action: i % 34,
            reward: 0.1,
            next_state: state(i + 1),
            done: i % 15 == 14,
        });
    }
    let mut i = 256;
    c.bench_function("dqn_observe_trainer_default", |b| {
        b.iter(|| {
            i += 1;
            agent.observe(Transition {
                state: state(i),
                action: i % 34,
                reward: 0.2,
                next_state: state(i + 1),
                done: i % 15 == 14,
            })
        })
    });

    let mlp = Mlp::new(&[300, 128, 64, 34], 1);
    let rows: Vec<f64> = (0..64).flat_map(state).collect();
    c.bench_function("mlp_forward_rows_64", |b| {
        b.iter(|| black_box(mlp.forward_rows(black_box(&rows), 64)))
    });
}

fn bench_env_step(c: &mut Criterion) {
    let module = bench_module(20);
    c.bench_function("env_episode_15_odg_actions", |b| {
        b.iter(|| {
            let mut env = PhaseEnv::new(EnvConfig::default(), ActionSet::odg());
            env.reset(module.clone());
            let mut total = 0.0;
            for a in [23, 8, 5, 30, 13, 0, 19, 33, 10, 2, 27, 17, 6, 31, 21] {
                total += env.step(a).reward;
            }
            black_box(total)
        })
    });
}

criterion_group!(benches, bench_dqn, bench_trainer_learner, bench_env_step);
criterion_main!(benches);
