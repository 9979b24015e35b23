//! Pins the DQN learner's result bits.
//!
//! Each case trains a `DqnAgent` on a seeded synthetic transition stream
//! and folds the final `to_json()` snapshot plus every loss `observe`
//! returned into one FNV-1a digest. The expected digests were taken from
//! the per-sample learner (one forward, one `backward` and one
//! `add_assign` per sampled transition); the batched learner must
//! reproduce them bit for bit. The remaining tests hold the batched
//! kernels (`Mlp::forward_rows_cache`, `Mlp::backward_rows`) to the
//! per-sample reference on odd shapes and sparse, dense and zero
//! gradients.

use posetrl::trainer::TrainerConfig;
use posetrl_rl::dqn::{DqnAgent, DqnConfig};
use posetrl_rl::nn::{Grads, Mlp};
use posetrl_rl::replay::Transition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A synthetic state: exact zeros, negatives and positives, so ReLU
/// masks fire in the first hidden layer.
fn state(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|_| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => -rng.gen::<f64>(),
            _ => rng.gen::<f64>() * 2.0,
        })
        .collect()
}

/// Trains an agent for `steps` environment steps on a seeded stream
/// (ε-greedy `act` on the live agent, then `observe`) and returns the
/// digest of its snapshot and every returned loss.
fn train_digest(cfg: DqnConfig, steps: usize, done_every: Option<usize>, seed: u64) -> u64 {
    let dim = cfg.state_dim;
    let mut agent = DqnAgent::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = FNV_OFFSET;
    let mut s = state(&mut rng, dim);
    for step in 0..steps {
        let action = agent.act(&s);
        let next = state(&mut rng, dim);
        let done = match done_every {
            Some(k) => step % k == k - 1,
            None => true,
        };
        let reward = rng.gen::<f64>() * 4.0 - 2.0;
        if let Some(loss) = agent.observe(Transition {
            state: s,
            action,
            reward,
            next_state: next.clone(),
            done,
        }) {
            h = fnv(h, &loss.to_bits().to_le_bytes());
        }
        s = if done { state(&mut rng, dim) } else { next };
    }
    fnv(h, agent.to_json().as_bytes())
}

fn default_agent(double: bool) -> DqnConfig {
    DqnConfig {
        state_dim: 300,
        n_actions: 34,
        double,
        ..TrainerConfig::default().agent
    }
}

#[test]
fn trainer_default_double_learner_bits_are_pinned() {
    let digest = train_digest(default_agent(true), 260, Some(7), 1);
    assert_eq!(digest, 0x758d_cf42_d9ac_b2a0, "digest {digest:#018x}");
}

#[test]
fn trainer_default_vanilla_learner_bits_are_pinned() {
    let digest = train_digest(default_agent(false), 260, Some(7), 2);
    assert_eq!(digest, 0x688f_e071_495d_9c43, "digest {digest:#018x}");
}

#[test]
fn trainer_quick_learner_bits_are_pinned() {
    let cfg = DqnConfig {
        state_dim: 300,
        n_actions: 15,
        ..TrainerConfig::quick().agent
    };
    let digest = train_digest(cfg, 300, Some(5), 3);
    assert_eq!(digest, 0x29af_bd27_c9bb_4444, "digest {digest:#018x}");
}

#[test]
fn all_terminal_stream_learner_bits_are_pinned() {
    let cfg = DqnConfig {
        state_dim: 300,
        n_actions: 15,
        ..TrainerConfig::quick().agent
    };
    let digest = train_digest(cfg, 120, None, 4);
    assert_eq!(digest, 0xb756_3114_57ef_e7f4, "digest {digest:#018x}");
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `backward_rows` against the per-sample reference: `backward` on each
/// row, folded with `add_assign` in row order exactly as the per-sample
/// learner folded them (the first row's gradients taken as they are).
fn check_backward_rows(sizes: &[usize], n: usize, dout_of: impl Fn(usize, usize) -> f64) {
    let mlp = Mlp::new(sizes, 17 + n as u64);
    let (n_in, n_out) = (sizes[0], *sizes.last().unwrap());
    let mut rng = StdRng::seed_from_u64(n as u64);
    let x: Vec<f64> = (0..n).flat_map(|_| state(&mut rng, n_in)).collect();
    let dout: Vec<f64> = (0..n * n_out)
        .map(|k| dout_of(k / n_out, k % n_out))
        .collect();

    let cache = mlp.forward_rows_cache(&x, n);
    let batched = mlp.backward_rows(&cache, &dout);
    let mut reference: Option<Grads> = None;
    for r in 0..n {
        let row = &x[r * n_in..][..n_in];
        let solo = mlp.forward_cache(row);
        assert_eq!(
            bits(solo.output()),
            bits(&cache.output()[r * n_out..][..n_out]),
            "{sizes:?} n={n}: row {r} forward differs"
        );
        let g = mlp.backward(&solo, &dout[r * n_out..][..n_out]);
        match &mut reference {
            Some(acc) => acc.add_assign(&g),
            None => reference = Some(g),
        }
    }
    let reference = reference.expect("at least one row");
    for li in 0..mlp.layers.len() {
        assert_eq!(
            bits(&batched.dw[li]),
            bits(&reference.dw[li]),
            "{sizes:?} n={n}: layer {li} dW differs"
        );
        assert_eq!(
            bits(&batched.db[li]),
            bits(&reference.db[li]),
            "{sizes:?} n={n}: layer {li} db differs"
        );
    }
}

/// The learner's output gradient: one non-zero entry per row, the taken
/// action's Huber derivative (exactly zero on some rows).
fn one_hot(r: usize, o: usize, n_out: usize) -> f64 {
    match (r % 5, o == (r * 7) % n_out) {
        (4, _) | (_, false) => 0.0,
        (1, true) => -1.0,
        _ => 0.37 - 0.11 * r as f64,
    }
}

#[test]
fn backward_rows_matches_per_sample_backward_on_learner_gradients() {
    for (sizes, n) in [
        (&[300, 128, 64, 34][..], 64),
        (&[300, 128, 64, 34][..], 1),
        (&[300, 32, 15][..], 17),
        (&[9, 7, 6, 3][..], 5),
        (&[4, 5, 1][..], 3),
    ] {
        let n_out = *sizes.last().unwrap();
        check_backward_rows(sizes, n, |r, o| one_hot(r, o, n_out));
    }
}

#[test]
fn backward_rows_matches_per_sample_backward_on_dense_and_zero_gradients() {
    // dense rows of mixed sign, including negative zeros
    let dense = |r: usize, o: usize| match (r + o) % 4 {
        0 => -0.0,
        1 => ((r * 13 + o) as f64).sin(),
        2 => -((r + 3 * o) as f64).cos(),
        _ => 0.0,
    };
    for (sizes, n) in [
        (&[300, 128, 64, 34][..], 7),
        (&[6, 10, 5][..], 9),
        (&[3, 2][..], 2),
    ] {
        check_backward_rows(sizes, n, dense);
    }
    // every row's gradient is zero: the sums stay +0.0
    check_backward_rows(&[8, 6, 5], 4, |_, _| 0.0);
}
