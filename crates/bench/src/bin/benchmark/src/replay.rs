//! The traced replay.
//!
//! After a workload's timed phase, `--trace 1` replays one pass of its
//! operations through the same public calls the program makes, with no
//! caches, and records a span around each call. Per-layer times therefore
//! give the full cost of each layer on the workload's inputs; the real
//! run's counters say how much of that work the caches removed.
//!
//! [`Stepper`] is `PhaseEnv::reset` and `PhaseEnv::step` taken apart into
//! their calls (a unit test holds it to the environment bit for bit), and
//! [`serve_request`] is the server's admit-and-rollout path around it.

use posetrl::env::{EnvConfig, StateEncoding};
use posetrl::{ActionSet, TrainerConfig};
use posetrl_embed::{EmbedConfig, Embedder};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::{module_hash, Module, ModuleHash};
use posetrl_opt::manager::PassManager;
use posetrl_rl::dqn::{DqnAgent, Policy};
use posetrl_rl::replay::Transition;
use posetrl_serve::protocol::{parse_request, OkResponse, Response};
use posetrl_target::{mca, size::object_size};
use posetrl_workloads::Benchmark;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Work counted at the same boundaries the spans cover.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// `PassManager::run_pass` calls.
    pub passes: u64,
    /// Of those, calls that reported no change.
    pub pass_noops: u64,
    /// Environment steps.
    pub steps: u64,
    /// Of those, steps whose `module_hash` did not move.
    pub step_noops: u64,
}

/// Spans in memory, written out at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
    /// Work counters.
    pub counts: Counts,
}

/// Per-call and per-layer totals of one replay.
pub struct Summary {
    /// Replay wall time, seconds.
    pub wall_s: f64,
    /// Span name → (calls, total seconds).
    pub calls: BTreeMap<String, (u64, f64)>,
    /// Layer (span-name prefix) → self time, seconds.
    pub layer_self_s: BTreeMap<String, f64>,
}

impl Tracer {
    /// Starts the replay clock.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            counts: Counts::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the following spans with request (or episode) id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span that later spans nest under.
    pub fn begin(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.spans[idx].start_ns = self.now();
        self.open.push(idx);
        idx
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in order");
    }

    /// Runs `call` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, call: impl FnOnce() -> T) -> T {
        let idx = self.begin(&name.into());
        let out = call();
        self.end(idx);
        out
    }

    /// Totals per call and self time per layer. A layer is the span name
    /// up to its first `.`; `bench.*` spans are the replay's own.
    pub fn summary(&self) -> Summary {
        // the replay ends with its last span, not when this is called
        let wall_s = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0) as f64 * 1e-9;
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += dur(s);
            }
        }
        let mut calls: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let mut layer_self_s: BTreeMap<String, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let c = calls.entry(s.name.clone()).or_default();
            c.0 += 1;
            c.1 += dur(s);
            let layer = s.name.split('.').next().unwrap_or_default();
            *layer_self_s.entry(layer.to_string()).or_default() += dur(s) - children;
        }
        Summary {
            wall_s,
            calls,
            layer_self_s,
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

/// Static measurements of one module state.
#[derive(Clone, Copy)]
pub struct Measure {
    /// `object_size(..).total`.
    pub size: u64,
    /// `mca::analyze(..).flat_cycles`.
    pub cycles: f64,
}

/// What one step returns, as `PhaseEnv::step` does.
pub struct StepOut {
    pub state: Vec<f64>,
    pub reward: f64,
    pub done: bool,
}

/// `PhaseEnv` without caches, one span per call it makes.
pub struct Stepper<'a> {
    cfg: EnvConfig,
    actions: &'a ActionSet,
    pm: PassManager,
    embedder: Embedder,
    module: Module,
    hash: ModuleHash,
    initial: Measure,
    last: Measure,
    applied: Vec<usize>,
}

impl<'a> Stepper<'a> {
    /// A stepper for environments configured as `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` uses plain IR2Vec states, the only encoding the
    /// replay mirrors.
    pub fn new(cfg: EnvConfig, actions: &'a ActionSet) -> Stepper<'a> {
        assert!(
            cfg.encoding == StateEncoding::Ir2Vec && !cfg.static_features,
            "the replay mirrors IR2Vec states without static features"
        );
        let module = Module::new("unset");
        let hash = module_hash(&module);
        let none = Measure {
            size: 0,
            cycles: 0.0,
        };
        Stepper {
            cfg,
            actions,
            pm: PassManager::new(),
            embedder: Embedder::new(EmbedConfig::default()),
            module,
            hash,
            initial: none,
            last: none,
            applied: Vec::new(),
        }
    }

    fn measure(&self, tr: &mut Tracer) -> Measure {
        let (m, arch) = (&self.module, self.cfg.arch);
        let cycles = tr.span("target.mca_analyze", || mca::analyze(m, arch).flat_cycles);
        let size = tr.span("target.object_size", || object_size(m, arch).total);
        Measure { size, cycles }
    }

    fn embed(&self, tr: &mut Tracer) -> Vec<f64> {
        let (e, m) = (&self.embedder, &self.module);
        tr.span("embed.embed_module", || e.embed_module(m))
    }

    /// State dimensionality.
    pub fn state_dim(&self) -> usize {
        self.embedder.dim()
    }

    /// `PhaseEnv::reset`: starts an episode on `module`.
    pub fn reset(&mut self, tr: &mut Tracer, module: Module) -> Vec<f64> {
        self.hash = tr.span("ir.module_hash", || module_hash(&module));
        self.module = module;
        self.initial = self.measure(tr);
        self.last = self.initial;
        self.applied.clear();
        self.embed(tr)
    }

    /// `PhaseEnv::step`: applies action `a` and scores it by Eqns 1-3.
    pub fn step(&mut self, tr: &mut Tracer, a: usize) -> StepOut {
        let actions: &ActionSet = self.actions;
        for pass in &actions.sequences[a] {
            let (pm, m) = (&self.pm, &mut self.module);
            let changed = tr
                .span(format!("opt.pass.{}", pass.trim_start_matches('-')), || {
                    pm.run_pass(m, pass)
                })
                .expect("action passes are registered");
            tr.counts.passes += 1;
            tr.counts.pass_noops += u64::from(!changed);
        }
        let m = &self.module;
        let hash = tr.span("ir.module_hash", || module_hash(m));
        tr.counts.steps += 1;
        tr.counts.step_noops += u64::from(hash == self.hash);
        self.hash = hash;

        let now = self.measure(tr);
        let base_size = (self.initial.size as f64).max(1.0);
        let base_cycles = self.initial.cycles.max(1.0);
        let r_size = (self.last.size as f64 - now.size as f64) / base_size;
        let r_tp = (self.last.cycles - now.cycles) / base_cycles;
        self.last = now;
        self.applied.push(a);
        StepOut {
            state: self.embed(tr),
            reward: self.cfg.alpha * r_size + self.cfg.beta * r_tp,
            done: self.applied.len() >= self.cfg.episode_len,
        }
    }

    /// The current module.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// Replays one request line the way `Server::handle` answers a store
/// miss: parse, verify, hash, the greedy rollout, print and encode.
///
/// `max_steps` is the server's episode budget; `env` is the served
/// model's environment.
pub fn serve_request(
    tr: &mut Tracer,
    line: &str,
    policy: &Policy,
    env: &EnvConfig,
    actions: &ActionSet,
    max_steps: u64,
) -> Result<OkResponse, String> {
    let root = tr.begin("bench.request");
    let out = answer(tr, line, policy, env, actions, max_steps);
    tr.end(root);
    out
}

fn answer(
    tr: &mut Tracer,
    line: &str,
    policy: &Policy,
    env: &EnvConfig,
    actions: &ActionSet,
    max_steps: u64,
) -> Result<OkResponse, String> {
    let req = tr
        .span("serve.parse_request", || parse_request(line))
        .map_err(|e| e.to_string())?;
    let module = tr
        .span("ir.parse_module", || parse_module(&req.module))
        .map_err(|e| format!("{e:?}"))?;
    tr.span("ir.verify_module", || verify_module(&module))
        .map_err(|e| e.to_string())?;
    let steps = req.max_steps.unwrap_or(max_steps).clamp(1, max_steps);
    let cfg = EnvConfig {
        arch: req.arch,
        episode_len: steps as usize,
        ..env.clone()
    };
    let mut stepper = Stepper::new(cfg, actions);
    let mut state = stepper.reset(tr, module);
    loop {
        let a = tr.span("rl.act_greedy", || policy.act_greedy(&state));
        let r = stepper.step(tr, a);
        state = r.state;
        if r.done {
            break;
        }
    }
    let m = stepper.module();
    let text = tr.span("ir.print_module", || print_module(m));
    let ok = OkResponse {
        id: req.id,
        module: text,
        actions: stepper.applied.iter().map(|&a| a as u64).collect(),
        size_before: stepper.initial.size,
        size_after: stepper.last.size,
        cycles_before: stepper.initial.cycles,
        cycles_after: stepper.last.cycles,
        wall_us: 0,
        cached: false,
        shard: 0,
        batch: 1,
    };
    let resp = Response::Ok(ok);
    tr.span("serve.to_json", || resp.to_json());
    match resp {
        Response::Ok(ok) => Ok(ok),
        Response::Err(_) => unreachable!("built as a success"),
    }
}

/// The loop of `posetrl::trainer::train` for `steps` steps over
/// `programs`, with a span around every call it makes.
pub fn train_loop(
    tr: &mut Tracer,
    trainer: &TrainerConfig,
    actions: &ActionSet,
    programs: &[Benchmark],
    steps: u64,
) {
    let mut stepper = Stepper::new(trainer.env.clone(), actions);
    let mut agent_cfg = trainer.agent.clone();
    agent_cfg.state_dim = stepper.state_dim();
    agent_cfg.n_actions = actions.len();
    let mut agent = DqnAgent::new(agent_cfg);
    let mut done = 0;
    for (episode, b) in programs.iter().cycle().enumerate() {
        if done >= steps {
            break;
        }
        tr.set_request(episode as u64);
        let mut state = stepper.reset(tr, b.module.clone());
        loop {
            let root = tr.begin("bench.step");
            let a = tr.span("rl.act", || agent.act(&state));
            let r = stepper.step(tr, a);
            let t = Transition {
                state,
                action: a,
                reward: r.reward,
                next_state: r.state.clone(),
                done: r.done,
            };
            tr.span("rl.observe", || agent.observe(t));
            tr.end(root);
            state = r.state;
            done += 1;
            if r.done || done >= steps {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl::PhaseEnv;
    use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};

    #[test]
    fn stepper_matches_phase_env_bit_for_bit() {
        let actions = ActionSet::odg();
        let cfg = EnvConfig::default();
        for (seed, kind) in [
            (11, ProgramKind::Mixed),
            (12, ProgramKind::CallHeavy),
            (13, ProgramKind::NumericKernel),
        ] {
            let module = generate(&ProgramSpec {
                name: format!("replay{seed}"),
                kind,
                size: SizeClass::Small,
                seed,
            });
            let mut env = PhaseEnv::new(cfg.clone(), actions.clone());
            let mut tr = Tracer::new();
            let mut stepper = Stepper::new(cfg.clone(), &actions);
            assert_eq!(env.reset(module.clone()), stepper.reset(&mut tr, module));
            for (i, a) in [8, 23, 5, 5, 30, 13, 0, 19].into_iter().enumerate() {
                let want = env.step(a);
                let got = stepper.step(&mut tr, a);
                assert_eq!(want.state, got.state, "state after step {i} of seed {seed}");
                assert_eq!(want.reward.to_bits(), got.reward.to_bits(), "reward {i}");
                assert_eq!(want.done, got.done);
                assert_eq!(print_module(env.module()), print_module(stepper.module()));
            }
            assert!(
                tr.counts.step_noops > 0,
                "repeating action 5 leaves a fixed point"
            );
        }
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tr = Tracer::new();
        let root = tr.begin("bench.request");
        tr.span("ir.parse_module", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(root);
        let s = tr.summary();
        assert_eq!(s.calls["ir.parse_module"].0, 1);
        assert!(s.layer_self_s["ir"] >= 0.005);
        assert!(s.layer_self_s["bench"] < s.layer_self_s["ir"]);
    }
}
