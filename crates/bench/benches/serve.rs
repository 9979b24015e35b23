//! Benchmarks of the serving stack: policy inference as a serve worker
//! runs it (one state per decision) and protocol encode/decode cost per
//! request line.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl_rl::dqn::{DqnAgent, DqnConfig};
use posetrl_serve::protocol::{parse_request, Request};
use posetrl_target::TargetArch;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let cfg = DqnConfig {
        state_dim: 300,
        n_actions: 34,
        ..DqnConfig::default()
    };
    let agent = DqnAgent::new(cfg);
    let policy = agent.policy();
    let states: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            (0..300)
                .map(|d| 0.01 * ((i * 7 + d) % 100) as f64)
                .collect()
        })
        .collect();
    c.bench_function("policy_act_greedy_x16_solo", |b| {
        b.iter(|| {
            for s in &states {
                black_box(policy.act_greedy(black_box(s)));
            }
        })
    });
}

fn bench_protocol(c: &mut Criterion) {
    let module = "x".repeat(8 * 1024);
    let line = Request {
        id: "bench-request".into(),
        module,
        arch: TargetArch::X86_64,
        max_steps: Some(15),
    }
    .to_json();
    c.bench_function("protocol_parse_request_8k", |b| {
        b.iter(|| black_box(parse_request(black_box(&line)).unwrap()))
    });
    let req = parse_request(&line).unwrap();
    c.bench_function("protocol_encode_request_8k", |b| {
        b.iter(|| black_box(black_box(&req).to_json()))
    });
}

criterion_group!(benches, bench_inference, bench_protocol);
criterion_main!(benches);
