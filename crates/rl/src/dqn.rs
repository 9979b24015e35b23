//! The (Double) Deep Q-Network agent.
//!
//! Follows the paper's setup: ε-greedy exploration annealed linearly from
//! 1.0 to 0.01 over 20 000 steps, replay memory, an online network trained
//! with Huber loss on TD targets, and a periodically synchronized target
//! network. With `double: true` (the paper's choice) the next-state action
//! is selected by the online network and evaluated by the target network,
//! which counters Q-value overestimation.

use crate::nn::{huber, Adam, Mlp};
use crate::replay::{ReplayBuffer, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the agent (defaults follow the paper where stated).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DqnConfig {
    /// State dimensionality (IR2Vec program embeddings: 300).
    pub state_dim: usize,
    /// Number of discrete actions (15 manual or 34 ODG sub-sequences).
    pub n_actions: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Learning rate (paper: 1e-4).
    pub lr: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Replay memory capacity.
    pub replay_capacity: usize,
    /// Steps between target-network syncs.
    pub target_sync_every: u64,
    /// Use Double DQN targets (paper: yes).
    pub double: bool,
    /// Initial exploration rate (paper: 1.0).
    pub eps_start: f64,
    /// Final exploration rate (paper: 0.01).
    pub eps_end: f64,
    /// Steps over which ε anneals linearly (paper: 20 000).
    pub eps_decay_steps: u64,
    /// Transitions collected before training starts.
    pub learn_start: usize,
    /// Gradient updates performed per observed transition.
    pub updates_per_step: usize,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl DqnConfig {
    /// The exploration rate after `step` environment steps (ε annealed
    /// linearly from `eps_start` to `eps_end` over `eps_decay_steps`).
    ///
    /// Exposed so the parallel episode engine can reproduce the agent's
    /// schedule for steps planned ahead of time: the engine assigns each
    /// episode a fixed global step range before fanning out, so exploration
    /// is identical no matter which worker runs the episode.
    pub fn epsilon_at(&self, step: u64) -> f64 {
        if step >= self.eps_decay_steps {
            self.eps_end
        } else {
            let frac = step as f64 / self.eps_decay_steps as f64;
            self.eps_start + (self.eps_end - self.eps_start) * frac
        }
    }
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            state_dim: 300,
            n_actions: 34,
            hidden: vec![128, 64],
            lr: 1e-4,
            gamma: 0.99,
            batch_size: 32,
            replay_capacity: 10_000,
            target_sync_every: 250,
            double: true,
            eps_start: 1.0,
            eps_end: 0.01,
            eps_decay_steps: 20_000,
            learn_start: 64,
            updates_per_step: 1,
            seed: 0xDD05_5EED,
        }
    }
}

/// The agent.
#[derive(Debug)]
pub struct DqnAgent {
    config: DqnConfig,
    online: Mlp,
    target: Mlp,
    optimizer: Adam,
    replay: ReplayBuffer,
    rng: StdRng,
    steps: u64,
}

/// Serializable snapshot of a trained agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct DqnSnapshot {
    /// Configuration the agent was built with.
    pub config: DqnConfig,
    /// Online network weights.
    pub online: Mlp,
    /// Environment steps taken so far.
    pub steps: u64,
}

impl DqnAgent {
    /// Creates a fresh agent.
    pub fn new(config: DqnConfig) -> DqnAgent {
        let mut sizes = vec![config.state_dim];
        sizes.extend(&config.hidden);
        sizes.push(config.n_actions);
        let online = Mlp::new(&sizes, config.seed);
        let target = online.clone();
        let optimizer = Adam::new(&online, config.lr);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed ^ 0xA5A5_5A5A);
        DqnAgent {
            config,
            online,
            target,
            optimizer,
            replay,
            rng,
            steps: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Environment steps observed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon_at(self.steps)
    }

    /// Q-values of `state` under the online network.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.online.forward(state)
    }

    /// ε-greedy action selection (advances the exploration schedule).
    pub fn act(&mut self, state: &[f64]) -> usize {
        let eps = self.epsilon();
        self.steps += 1;
        if self.rng.gen::<f64>() < eps {
            self.rng.gen_range(0..self.config.n_actions)
        } else {
            argmax(&self.q_values(state))
        }
    }

    /// Greedy action (inference; does not advance the schedule).
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// A frozen, shareable snapshot of the current online policy.
    ///
    /// The snapshot owns a copy of the network, is `Send + Sync`, and acts
    /// purely by value — rollout workers can score states against it while
    /// the coordinator keeps training the live agent.
    pub fn policy(&self) -> Policy {
        Policy {
            net: self.online.clone(),
            n_actions: self.config.n_actions,
        }
    }

    /// Advances the environment-step counter without selecting an action.
    ///
    /// The parallel episode engine selects actions on worker threads from a
    /// frozen [`Policy`]; the coordinator calls this once per replayed
    /// transition so the ε schedule and target-sync cadence stay aligned
    /// with the serial path.
    pub fn advance_steps(&mut self, n: u64) {
        self.steps += n;
    }

    /// Stores a transition and trains one mini-batch when ready. Returns
    /// the batch loss if a training step ran.
    pub fn observe(&mut self, t: Transition) -> Option<f64> {
        self.replay.push(t);
        if self.replay.len() < self.config.learn_start.max(self.config.batch_size) {
            return None;
        }
        let mut loss = 0.0;
        let n = self.config.updates_per_step.max(1);
        for _ in 0..n {
            loss += self.train_batch();
        }
        if self.steps.is_multiple_of(self.config.target_sync_every) {
            self.sync_target();
        }
        Some(loss / n as f64)
    }

    /// Copies the online network into the target network.
    pub fn sync_target(&mut self) {
        self.target = self.online.clone();
    }

    /// One Huber-loss gradient step on a uniformly sampled mini-batch;
    /// returns the batch's mean loss.
    ///
    /// The batch runs as row-major sweeps: the target network (and, for
    /// Double DQN, the online network) over the non-terminal next states,
    /// a cached online forward over the states, then one
    /// [`Mlp::backward_rows`] and one Adam step. Every row keeps the
    /// arithmetic of a per-sample forward/backward, so the result is the
    /// same to the bit as handling the samples one by one.
    fn train_batch(&mut self) -> f64 {
        let n = self.config.batch_size;
        let n_actions = self.config.n_actions;
        let gamma = self.config.gamma;
        let batch = self.replay.sample(&mut self.rng, n);
        let live: Vec<f64> = batch
            .iter()
            .filter(|t| !t.done)
            .flat_map(|t| t.next_state.iter().copied())
            .collect();
        let n_live = batch.iter().filter(|t| !t.done).count();
        let q_target = self.target.forward_rows(&live, n_live);
        // Double DQN selects the next action with the online network
        let q_select = if self.config.double {
            self.online.forward_rows(&live, n_live)
        } else {
            q_target.clone()
        };
        let mut next_values = q_target
            .chunks_exact(n_actions)
            .zip(q_select.chunks_exact(n_actions))
            .map(|(q, select)| q[argmax(select)]);

        let states: Vec<f64> = batch.iter().flat_map(|t| t.state.iter().copied()).collect();
        let cache = self.online.forward_rows_cache(&states, n);
        let mut dout = vec![0.0; n * n_actions];
        let mut total_loss = 0.0;
        for (r, t) in batch.iter().enumerate() {
            let target_q = if t.done {
                t.reward
            } else {
                let value = next_values.next().expect("one value per live row");
                t.reward + gamma * value
            };
            assert!(t.action < n_actions, "action {} out of range", t.action);
            let at = r * n_actions + t.action;
            let (loss, dpred) = huber(cache.output()[at], target_q, 1.0);
            total_loss += loss;
            dout[at] = dpred;
        }
        if n > 0 {
            let mut g = self.online.backward_rows(&cache, &dout);
            g.scale(1.0 / n as f64);
            self.optimizer.step(&mut self.online, &g);
        }
        total_loss / n as f64
    }

    /// Serializes the trained agent to JSON.
    pub fn to_json(&self) -> String {
        let snap = DqnSnapshot {
            config: self.config.clone(),
            online: self.online.clone(),
            steps: self.steps,
        };
        serde_json::to_string(&snap).expect("agent serializes")
    }

    /// Restores an agent from [`DqnAgent::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json(json: &str) -> Result<DqnAgent, serde_json::Error> {
        let snap: DqnSnapshot = serde_json::from_str(json)?;
        let mut agent = DqnAgent::new(snap.config);
        agent.online = snap.online.clone();
        agent.target = snap.online;
        agent.steps = snap.steps;
        // note: the optimizer moments and replay memory are not serialized —
        // a restored agent predicts identically but resumes training from
        // fresh Adam state and an empty buffer
        agent.optimizer = Adam::new(&agent.online, agent.config.lr);
        Ok(agent)
    }
}

/// A frozen policy snapshot: the online network at one instant.
#[derive(Debug, Clone)]
pub struct Policy {
    net: Mlp,
    n_actions: usize,
}

impl Policy {
    /// Number of discrete actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Q-values of `state`.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward(state)
    }

    /// The greedy action (first index on ties, like the agent).
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 1-d line world: state in [-1, 1], actions {left, right},
    /// reward 1 when reaching +1. Tests that DQN learns "go right".
    struct LineWorld {
        pos: f64,
    }

    impl LineWorld {
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0.0;
            vec![self.pos]
        }

        fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
            self.pos += if action == 1 { 0.25 } else { -0.25 };
            self.pos = self.pos.clamp(-1.0, 1.0);
            let done = self.pos >= 1.0 || self.pos <= -1.0;
            let reward = if self.pos >= 1.0 {
                1.0
            } else if self.pos <= -1.0 {
                -1.0
            } else {
                -0.01
            };
            (vec![self.pos], reward, done)
        }
    }

    fn small_config() -> DqnConfig {
        DqnConfig {
            state_dim: 1,
            n_actions: 2,
            hidden: vec![16],
            lr: 5e-3,
            gamma: 0.95,
            batch_size: 16,
            replay_capacity: 2000,
            target_sync_every: 100,
            double: true,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay_steps: 1500,
            learn_start: 32,
            updates_per_step: 1,
            seed: 11,
        }
    }

    #[test]
    fn epsilon_anneals_linearly() {
        let mut agent = DqnAgent::new(small_config());
        assert!((agent.epsilon() - 1.0).abs() < 1e-9);
        for _ in 0..750 {
            agent.act(&[0.0]);
        }
        let mid = agent.epsilon();
        assert!(mid < 0.6 && mid > 0.4, "mid-schedule epsilon {mid}");
        for _ in 0..2000 {
            agent.act(&[0.0]);
        }
        assert!((agent.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn learns_line_world() {
        let mut agent = DqnAgent::new(small_config());
        let mut env = LineWorld { pos: 0.0 };
        for _episode in 0..120 {
            let mut s = env.reset();
            for _ in 0..32 {
                let a = agent.act(&s);
                let (s2, r, done) = env.step(a);
                agent.observe(Transition {
                    state: s.clone(),
                    action: a,
                    reward: r,
                    next_state: s2.clone(),
                    done,
                });
                s = s2;
                if done {
                    break;
                }
            }
        }
        // the greedy policy must walk right from every interior state
        for p in [-0.5, 0.0, 0.5] {
            assert_eq!(agent.act_greedy(&[p]), 1, "greedy at {p} goes right");
        }
    }

    #[test]
    fn double_and_vanilla_produce_different_training() {
        let mut cfg = small_config();
        cfg.double = true;
        let mut a = DqnAgent::new(cfg.clone());
        cfg.double = false;
        let mut b = DqnAgent::new(cfg);
        let mut env = LineWorld { pos: 0.0 };
        for agent in [&mut a, &mut b] {
            let mut s = env.reset();
            for _ in 0..200 {
                let act = agent.act(&s);
                let (s2, r, done) = env.step(act);
                agent.observe(Transition {
                    state: s.clone(),
                    action: act,
                    reward: r,
                    next_state: s2.clone(),
                    done,
                });
                s = if done { env.reset() } else { s2 };
            }
        }
        // same seeds, different target rules -> diverged q-values
        let qa = a.q_values(&[0.25]);
        let qb = b.q_values(&[0.25]);
        assert_ne!(qa, qb);
    }

    #[test]
    fn snapshot_round_trip_preserves_policy() {
        let mut agent = DqnAgent::new(small_config());
        for _ in 0..100 {
            agent.act(&[0.3]);
        }
        let json = agent.to_json();
        let restored = DqnAgent::from_json(&json).unwrap();
        assert_eq!(agent.act_greedy(&[0.3]), restored.act_greedy(&[0.3]));
        assert_eq!(agent.q_values(&[-0.2]), restored.q_values(&[-0.2]));
        assert_eq!(agent.steps(), restored.steps());
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }
}
