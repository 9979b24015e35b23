//! Pins the bits of one validating engine run.
//!
//! `parallel_determinism.rs` compares engine configurations with each
//! other, so a change that moves every configuration the same way still
//! passes there. This test holds one run to fixed expected values instead:
//! `EngineConfig::quick()` with `validate_every: 2`, a fixed seed and three
//! validation programs, for workers ∈ {1, 2} with the evaluation cache on
//! and off. It pins the episode rewards and the final agent snapshot (as
//! FNV-1a digests) and every field of every validation sweep. The values
//! were taken from the engine while validation still ran as its own job
//! kind with up-front `-Oz` sizes; the shared greedy-vs-`-Oz` sweep
//! reproduces them bit for bit.

use posetrl::actions::ActionSet;
use posetrl::engine::{train_parallel, EngineConfig};
use posetrl_ir::hash::fnv1a;
use posetrl_workloads::training_suite;

/// `(round, avg, min, max)` of every sweep, the percentages as `f64` bits.
const GOLDEN_VALIDATIONS: [(usize, u64, u64, u64); 8] = [
    (
        0,
        0xc035e176dec5dba8,
        0xc039ff83ff07fe10,
        0xc0313194be3ab010,
    ),
    (
        2,
        0xc056d7944f451ce8,
        0xc058b41c54fefcf7,
        0xc05435715e71e504,
    ),
    (
        4,
        0xc0341c3e359913b3,
        0xc03863c8c7918f23,
        0xc02f39ad07153fbf,
    ),
    (
        6,
        0xc03493dc19208a5c,
        0xc03b96672cce599d,
        0xc0305bd10a568f55,
    ),
    (
        8,
        0xc04f5abdc7944b7f,
        0xc053cf8f9f1f3e3e,
        0xc04aa0273ff4c928,
    ),
    (
        10,
        0xc041ed07b1fb1677,
        0xc049bdb92b828797,
        0xc037e34375ecb9bc,
    ),
    (
        12,
        0xc033644f6ad2c655,
        0xc0387c00f801f004,
        0xc02b45d1745d1746,
    ),
    (
        14,
        0xc02b4a0cb2315258,
        0xc02e86ebd97378ba,
        0xc025efcf6e4ae0a2,
    ),
];

#[test]
fn validating_engine_run_matches_golden() {
    let programs = training_suite();
    for workers in [1, 2] {
        for cache in [true, false] {
            let cfg = EngineConfig {
                workers,
                cache,
                validate_every: 2,
                seed: 0x5EED_0025,
                ..EngineConfig::quick()
            };
            let (model, report) = train_parallel(&cfg, ActionSet::odg(), &programs, &programs[..3]);
            let reward_bytes: Vec<u8> = report
                .episode_rewards
                .iter()
                .flat_map(|r| r.to_bits().to_le_bytes())
                .collect();
            let validations: Vec<(usize, u64, u64, u64)> = report
                .validations
                .iter()
                .map(|v| {
                    (
                        v.round,
                        v.avg_size_reduction_pct.to_bits(),
                        v.min_size_reduction_pct.to_bits(),
                        v.max_size_reduction_pct.to_bits(),
                    )
                })
                .collect();
            assert_eq!(
                report.episode_rewards.len(),
                60,
                "workers={workers} cache={cache}"
            );
            assert_eq!(
                fnv1a(&reward_bytes),
                0x763b_89ee_c749_7d42,
                "episode rewards moved (workers={workers} cache={cache})"
            );
            assert_eq!(
                fnv1a(model.agent.to_json().as_bytes()),
                0xe528_c1c6_a644_cf3f,
                "agent snapshot moved (workers={workers} cache={cache})"
            );
            assert_eq!(
                validations, GOLDEN_VALIDATIONS,
                "validation sweeps moved (workers={workers} cache={cache})"
            );
        }
    }
}
