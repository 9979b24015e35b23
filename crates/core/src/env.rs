//! The compiler environment (Section III).
//!
//! The environment holds the LLVM-IR-like module being optimized. States
//! are program embeddings; an action applies one pass sub-sequence through
//! the pass manager; the reward combines the change in object-file size and
//! MCA-estimated throughput relative to the *unoptimized* baseline:
//!
//! ```text
//! R           = α · R_BinSize + β · R_Throughput          (Eqn 1)
//! R_BinSize   = (size_last − size_curr)   / size_base     (Eqn 2)
//! R_Throughput= (tp_curr  − tp_last)      / tp_base       (Eqn 3)
//! ```
//!
//! with α = 10 and β = 5 (Section V-A), size from
//! [`posetrl_target::size::object_size`] and throughput from
//! [`posetrl_target::mca::analyze`] — both static, exactly as the paper
//! computes rewards at compile time.
//!
//! Substitution note (documented in DESIGN.md): our MCA stand-in exposes
//! unweighted MCA cycles (llvm-mca sees machine code with no loop-nest
//! information), and Eqn 3 is computed on the *cycle-reduction
//! fraction* `(cycles_last − cycles_curr) / cycles_base`. This is the same
//! quantity the paper's throughput ratio tracks ("higher the throughput,
//! lesser would be the runtime") but keeps R_BinSize and R_Throughput on
//! the same [−1, 1]-ish scale, so the paper's α:β = 10:5 weighting carries
//! over meaningfully.

use crate::actions::ActionSet;
use crate::cache::{memoized_step, sequence_signature, EvalCache, MeasureMemo};
use posetrl_analyze::memo::memoized;
use posetrl_analyze::{IncrementalAnalysisManager, ModuleAnalyses, SanitizeLevel, Sanitizer};
use posetrl_embed::{EmbedConfig, Embedder};
use posetrl_ir::hash::fnv1a;
use posetrl_ir::{function_fingerprint, module_hash, Module, ModuleHash, Op};
use posetrl_opt::manager::{PassManager, PipelineError};
use posetrl_target::{mca, size::object_size, TargetArch};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// How states are represented (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateEncoding {
    /// IR2Vec-style flow-aware embeddings (the paper's choice).
    Ir2Vec,
    /// A flat opcode histogram (expert-feature baseline).
    Histogram,
}

/// Environment configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Reward weight on the size term (paper: 10).
    pub alpha: f64,
    /// Reward weight on the throughput term (paper: 5).
    pub beta: f64,
    /// Actions per episode (the paper's predicted sequences have 15).
    pub episode_len: usize,
    /// Target architecture for size/throughput measurement.
    pub arch: TargetArch,
    /// State representation.
    pub encoding: StateEncoding,
    /// Pass-pipeline sanitization applied to every action (see
    /// `posetrl_analyze::Sanitizer`). `Off` is the historical unchecked
    /// behaviour; `Verify` re-verifies and lints after each applied pass;
    /// `Validate` additionally runs the symbolic translation validator on
    /// each pass application, falling back to differential execution only
    /// when the static proof is inconclusive; `Full` diff-executes pre/post
    /// modules for every pass and delta-reduces miscompile repros. A fatal
    /// finding panics the episode — the RL loop must never learn from
    /// corrupted rewards.
    pub sanitize: SanitizeLevel,
    /// Appends the AutoPhase-style static feature vector
    /// (`posetrl_analyze::absint::features`, `FEATURE_DIM` extra dims) to
    /// every state. The features are a pure function of the module, so the
    /// extended state stays memoizable: with a cache attached it is stored
    /// under the same structural `module_hash` with a distinct encoding
    /// tag, keeping parallel training bit-deterministic.
    pub static_features: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            alpha: 10.0,
            beta: 5.0,
            episode_len: 15,
            arch: TargetArch::X86_64,
            encoding: StateEncoding::Ir2Vec,
            sanitize: SanitizeLevel::Off,
            static_features: false,
        }
    }
}

/// The result of one environment step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// New state (embedding of the transformed module).
    pub state: Vec<f64>,
    /// Reward for the applied action.
    pub reward: f64,
    /// Whether the episode is over.
    pub done: bool,
    /// Object size after the action.
    pub size: u64,
    /// Throughput after the action.
    pub throughput: f64,
}

/// The phase-ordering environment.
#[derive(Debug)]
pub struct PhaseEnv {
    config: EnvConfig,
    actions: ActionSet,
    /// Content signature per action (hash of its pass names) — the cache
    /// key component identifying *what* an action does, independent of the
    /// action set it came from.
    action_sigs: Vec<u64>,
    pm: PassManager,
    /// The process-wide embedder for the (fixed) embedding configuration,
    /// shared so its interned instruction rows and pooled flow blocks
    /// outlive any one env (serve builds an env per request, the engine
    /// one per episode).
    embedder: Arc<Embedder>,
    module: Option<Module>,
    /// Shared memoization cache; `None` runs every evaluation from scratch.
    cache: Option<Arc<EvalCache>>,
    /// Pass-pipeline sanitizer; `None` when `config.sanitize` is `Off` and
    /// no shared sanitizer was attached. Shared across envs (engine
    /// workers) so its counters aggregate.
    sanitizer: Option<Arc<Sanitizer>>,
    /// Per-function incremental analysis manager: memoizes embeddings,
    /// lint bundles, absint summaries and validate obligations by
    /// function-content keys, so a step that touches one function
    /// re-analyzes only that function (plus the callers whose view of it
    /// changed). Adopted from the attached cache when it carries one,
    /// otherwise built fresh per env.
    /// Bit-identical to from-scratch analysis by construction.
    incr: Option<Arc<IncrementalAnalysisManager>>,
    /// Digest of the embedder configuration: the second component of
    /// per-function embedding memo keys.
    embed_cfg_digest: u128,
    /// Structural hash of the current module (tracked only when caching).
    cur_hash: Option<ModuleHash>,
    base_size: f64,
    base_cycles: f64,
    last_size: f64,
    last_cycles: f64,
    steps_taken: usize,
    applied: Vec<usize>,
}

impl PhaseEnv {
    /// Creates an environment with the given configuration and action set.
    pub fn new(config: EnvConfig, actions: ActionSet) -> PhaseEnv {
        let action_sigs = actions
            .sequences
            .iter()
            .map(|passes| sequence_signature(passes))
            .collect();
        let sanitizer = (config.sanitize != SanitizeLevel::Off)
            .then(|| Arc::new(Sanitizer::new(config.sanitize)));
        let (embedder, embed_cfg_digest) = shared_embedder();
        PhaseEnv {
            config,
            actions,
            action_sigs,
            pm: PassManager::new(),
            embedder: Arc::clone(embedder),
            module: None,
            cache: None,
            sanitizer,
            incr: Some(Arc::new(IncrementalAnalysisManager::new())),
            embed_cfg_digest: *embed_cfg_digest,
            cur_hash: None,
            base_size: 0.0,
            base_cycles: 0.0,
            last_size: 0.0,
            last_cycles: 0.0,
            steps_taken: 0,
            applied: Vec::new(),
        }
    }

    /// Creates an environment that memoizes evaluations in `cache`
    /// (adopting the cache's incremental manager, if it carries one).
    pub fn with_cache(config: EnvConfig, actions: ActionSet, cache: Arc<EvalCache>) -> PhaseEnv {
        let mut env = PhaseEnv::new(config, actions);
        env.set_cache(Some(cache));
        env
    }

    /// Creates an environment attached to an optional shared `cache` and
    /// an optional shared `sanitizer` (`None` keeps the one
    /// `config.sanitize` builds).
    pub(crate) fn attached(
        config: EnvConfig,
        actions: ActionSet,
        cache: Option<&Arc<EvalCache>>,
        sanitizer: Option<&Arc<Sanitizer>>,
    ) -> PhaseEnv {
        let mut env = PhaseEnv::new(config, actions);
        env.set_cache(cache.cloned());
        if let Some(san) = sanitizer {
            env.set_sanitizer(Some(Arc::clone(san)));
        }
        env
    }

    /// Attaches (or detaches, with `None`) a shared evaluation cache.
    /// Takes effect from the next [`PhaseEnv::reset`]. A cache carrying an
    /// [`IncrementalAnalysisManager`] makes this env adopt it, so every
    /// worker sharing the cache shares one set of per-function memo
    /// tables.
    pub fn set_cache(&mut self, cache: Option<Arc<EvalCache>>) {
        if let Some(mgr) = cache.as_ref().and_then(|c| c.incremental()) {
            self.set_incremental(Some(Arc::clone(mgr)));
        }
        self.cache = cache;
    }

    /// Attaches (or detaches, with `None`) an incremental analysis
    /// manager; the sanitizer's checks of this env's steps memoize through
    /// it too. Tests use this to compare incremental mode on and off.
    pub fn set_incremental(&mut self, mgr: Option<Arc<IncrementalAnalysisManager>>) {
        self.incr = mgr;
    }

    /// The attached incremental analysis manager, if any.
    pub fn incremental(&self) -> Option<&Arc<IncrementalAnalysisManager>> {
        self.incr.as_ref()
    }

    /// Attaches (or detaches, with `None`) a shared sanitizer, replacing
    /// the one built from `config.sanitize`. Sharing one sanitizer across
    /// environments aggregates its counters (the engine does this so every
    /// worker reports into the same [`posetrl_analyze::SanitizerStats`]).
    pub fn set_sanitizer(&mut self, sanitizer: Option<Arc<Sanitizer>>) {
        self.sanitizer = sanitizer;
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Arc<Sanitizer>> {
        self.sanitizer.as_ref()
    }

    /// The configured action set.
    pub fn actions(&self) -> &ActionSet {
        &self.actions
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Action indices applied since the last reset.
    pub fn applied_actions(&self) -> &[usize] {
        &self.applied
    }

    /// Structural hash of the current module: `Some` after a reset while
    /// a cache is attached, which is when the environment tracks it.
    pub fn current_hash(&self) -> Option<ModuleHash> {
        self.cur_hash
    }

    /// The current module (after the actions applied so far).
    ///
    /// # Panics
    ///
    /// Panics if called before [`PhaseEnv::reset`].
    pub fn module(&self) -> &Module {
        self.module.as_ref().expect("environment not reset")
    }

    /// Encodes `m`, the current module, into a state, memoized under its
    /// hash when caching.
    fn encode_memo(&self, m: &Module) -> Vec<f64> {
        // the high bit distinguishes feature-extended embeddings from plain
        // ones under the same module hash
        let enc = self.config.encoding as u8 | if self.config.static_features { 0x80 } else { 0 };
        let key = || (self.cur_hash.expect("hash tracked while caching"), enc);
        Arc::unwrap_or_clone(memoized(
            self.cache.as_deref().map(|c| &c.embed),
            "embed",
            key,
            || Arc::new(self.encode(m)),
        ))
    }

    /// Starts an episode on `module` (the unoptimized input). Returns the
    /// initial state.
    pub fn reset(&mut self, module: Module) -> Vec<f64> {
        let hash = self.cache.as_ref().map(|_| module_hash(&module));
        self.start(module, hash)
    }

    /// [`PhaseEnv::reset`] on a module the caller has already hashed:
    /// `hash` is `module_hash(&module)`, and a cached environment keys its
    /// memos by it instead of hashing the module again.
    pub fn reset_hashed(&mut self, module: Module, hash: ModuleHash) -> Vec<f64> {
        debug_assert_eq!(hash, module_hash(&module), "reset_hashed got a stale hash");
        let hash = self.cache.as_ref().map(|_| hash);
        self.start(module, hash)
    }

    /// The one body of both resets; `hash` is tracked exactly when caching.
    fn start(&mut self, module: Module, hash: Option<ModuleHash>) -> Vec<f64> {
        self.cur_hash = hash;
        let meas = measure(
            self.cache.as_deref().zip(self.cur_hash),
            &module,
            self.config.arch,
        );
        let size = meas.size as f64;
        let cycles = meas.flat_cycles;
        self.base_size = size.max(1.0);
        self.base_cycles = cycles.max(1.0);
        self.last_size = size;
        self.last_cycles = cycles;
        self.steps_taken = 0;
        self.applied.clear();
        let state = self.encode_memo(&module);
        self.module = Some(module);
        state
    }

    /// Applies action `a` (one pass sub-sequence) and returns the reward
    /// per Eqns 1–3.
    ///
    /// With a cache attached, the `(state, action)` pair is first looked up
    /// as a step memo — a hit replaces the pass-pipeline run, and the
    /// post-state measurements/embedding are themselves memoized by the
    /// post-state's structural hash. All memoized functions are
    /// deterministic, so cached and uncached runs produce identical
    /// rewards, states and modules.
    ///
    /// # Panics
    ///
    /// Panics if the environment was not reset or `a` is out of range.
    pub fn step(&mut self, a: usize) -> StepResult {
        let module = self.module.as_mut().expect("environment not reset");
        // every applied pass is re-checked when a sanitizer is attached;
        // a step-memo hit skips this, the memoized module was sanitized
        // when it was first computed
        let run = |m: &mut Module| {
            let passes = &self.actions.sequences[a];
            let (san, mgr) = (self.sanitizer.as_deref(), self.incr.as_deref());
            run_passes(&self.pm, m, passes, san, mgr);
        };
        match &self.cache {
            Some(cache) => {
                let pre = self.cur_hash.expect("hash tracked while caching");
                let post = memoized_step(&cache.step, pre, self.action_sigs[a], module, run);
                self.cur_hash = Some(post);
            }
            None => run(module),
        }

        let module = self.module.as_ref().unwrap();
        let meas = measure(
            self.cache.as_deref().zip(self.cur_hash),
            module,
            self.config.arch,
        );
        let size = meas.size as f64;
        let cycles = meas.flat_cycles;

        let r_size = (self.last_size - size) / self.base_size;
        // cycle-reduction fraction: the throughput term on the size term's
        // scale (see the module docs)
        let r_tp = (self.last_cycles - cycles) / self.base_cycles;
        let reward = self.config.alpha * r_size + self.config.beta * r_tp;

        self.last_size = size;
        self.last_cycles = cycles;
        self.steps_taken += 1;
        self.applied.push(a);

        let state = self.encode_memo(self.module.as_ref().unwrap());
        StepResult {
            state,
            reward,
            done: self.steps_taken >= self.config.episode_len,
            size: meas.size,
            throughput: meas.throughput,
        }
    }

    /// The greedy inference loop: from `state`, the state a reset just
    /// returned, applies the action `pick` chooses for each state until
    /// the episode ends. The optimized module and the applied actions are
    /// left in the environment. Every greedy rollout (inference, serving,
    /// the engine's validation sweeps) runs through here.
    pub fn greedy_rollout(&mut self, mut state: Vec<f64>, pick: impl Fn(&[f64]) -> usize) {
        loop {
            let r = self.step(pick(&state));
            if r.done {
                break;
            }
            state = r.state;
        }
    }

    /// Encodes a module into the RL state per the configured encoding.
    ///
    /// With an incremental manager attached, per-function embeddings and
    /// the static features' analyses are memoized by function content
    /// (through one [`ModuleAnalyses`]), so an episode
    /// step embeds each untouched function exactly once. The memoized
    /// helpers replicate the from-scratch float-op order exactly, so the
    /// state is bit-identical either way.
    pub fn encode(&self, m: &Module) -> Vec<f64> {
        let mut v = match self.config.encoding {
            StateEncoding::Ir2Vec => self.embedder.embed_module_with(m, |e, f| {
                let key = || (function_fingerprint(m, f), self.embed_cfg_digest);
                memoized(self.incr.as_deref().map(|g| &g.embed), &f.name, key, || {
                    Arc::new(e.embed_function(f))
                })
            }),
            StateEncoding::Histogram => histogram_state(m, self.embedder.dim()),
        };
        if self.config.static_features {
            let analyses = ModuleAnalyses::new(m, self.incr.as_deref());
            v.extend_from_slice(&posetrl_analyze::absint::features::features(&analyses));
        }
        v
    }

    /// State dimensionality.
    pub fn state_dim(&self) -> usize {
        let extra = if self.config.static_features {
            posetrl_analyze::absint::features::FEATURE_DIM
        } else {
            0
        };
        self.embedder.dim() + extra
    }
}

/// The embedder every environment shares, with the digest of its
/// configuration.
fn shared_embedder() -> &'static (Arc<Embedder>, u128) {
    static SHARED: OnceLock<(Arc<Embedder>, u128)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let embedder = Embedder::new(EmbedConfig::default());
        let digest = posetrl_ir::digest_str(&format!("{:?}", embedder.config()));
        (Arc::new(embedder), digest)
    })
}

/// Runs `passes` on `m` in place, sanitized when a sanitizer is attached
/// (at `Full`, every pass that changed the module is also diff-executed);
/// `mgr`, when given, memoizes the sanitizer's lints and validation.
/// A failure panics with the rendered diagnosis, after printing a
/// miscompile's delta-reduced JSON repro on stderr. Actions and the `-Oz`
/// baseline both run through here.
pub(crate) fn run_passes(
    pm: &PassManager,
    m: &mut Module,
    passes: &[impl AsRef<str>],
    san: Option<&Sanitizer>,
    mgr: Option<&IncrementalAnalysisManager>,
) {
    let run = match san {
        Some(san) => pm.run_pipeline_sanitized(m, passes, san, mgr),
        None => pm.run_pipeline(m, passes).map_err(PipelineError::from),
    };
    if let Err(e) = run {
        if let PipelineError::Sanitizer { verdict, .. } = &e {
            if let Some(mc) = &verdict.miscompile {
                eprintln!("--- miscompile artifact (JSON) ---\n{}", mc.to_json());
            }
        }
        let names: Vec<&str> = passes.iter().map(AsRef::as_ref).collect();
        panic!("pipeline {names:?} failed:\n{e}");
    }
}

/// Measures `m` on `arch`: object size, flat MCA cycles and throughput.
/// With `memo = Some((cache, h))` the result is memoized in `cache` under
/// the module hash `h`. The environment and `posetrl-serve` both measure
/// through this one function, so their numbers are bit-identical.
pub fn measure(
    memo: Option<(&EvalCache, ModuleHash)>,
    m: &Module,
    arch: TargetArch,
) -> MeasureMemo {
    let compute = || {
        let report = mca::analyze(m, arch);
        MeasureMemo {
            size: object_size(m, arch).total,
            flat_cycles: report.flat_cycles,
            throughput: report.throughput,
        }
    };
    let (cache, h) = memo.unzip();
    let key = || (h.expect("a hash comes with the cache"), arch);
    memoized(cache.map(|c| &c.measure), "measure", key, compute)
}

/// The expert-feature baseline state: hashed opcode histogram, normalized.
fn histogram_state(m: &Module, dim: usize) -> Vec<f64> {
    let mut v = vec![0.0; dim];
    let mut total = 0.0f64;
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        for id in f.inst_ids() {
            let token = f.op(id).kind_name();
            let h = fnv1a(token.as_bytes());
            v[(h % dim as u64) as usize] += 1.0;
            total += 1.0;
            // block counts in a second band
            if matches!(f.op(id), Op::Br { .. } | Op::CondBr { .. }) {
                v[(h.rotate_left(17) % dim as u64) as usize] += 1.0;
            }
        }
    }
    if total > 0.0 {
        for x in &mut v {
            *x /= total.sqrt();
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionSet;
    use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};

    fn program(seed: u64) -> Module {
        generate(&ProgramSpec {
            name: format!("env{seed}"),
            kind: ProgramKind::Mixed,
            size: SizeClass::Small,
            seed,
        })
    }

    #[test]
    fn episode_runs_to_length() {
        let mut env = PhaseEnv::new(EnvConfig::default(), ActionSet::odg());
        let s0 = env.reset(program(1));
        assert_eq!(s0.len(), env.state_dim());
        let mut done = false;
        let mut steps = 0;
        while !done {
            let r = env.step(steps % env.actions().len());
            done = r.done;
            steps += 1;
            assert!(steps <= 15);
        }
        assert_eq!(steps, 15);
        assert_eq!(env.applied_actions().len(), 15);
    }

    #[test]
    fn size_reducing_action_gets_positive_size_term() {
        // Action 24 of Table III (index 23) is the big inliner sequence; on
        // a call-heavy module it reduces size markedly. Compare reward signs
        // with alpha-only weighting.
        let cfg = EnvConfig {
            alpha: 1.0,
            beta: 0.0,
            ..EnvConfig::default()
        };
        let mut env = PhaseEnv::new(cfg, ActionSet::odg());
        env.reset(program(7));
        let r = env.step(23);
        assert!(
            r.reward >= 0.0,
            "shrinking module yields non-negative size reward: {}",
            r.reward
        );
    }

    #[test]
    fn rewards_are_deltas_not_absolutes() {
        // applying the same idempotent action twice: the second application
        // changes nothing, so its reward must be ~0
        let mut env = PhaseEnv::new(EnvConfig::default(), ActionSet::odg());
        env.reset(program(3));
        let _ = env.step(5); // "instcombine"
        let _ = env.step(5);
        let r3 = env.step(5);
        assert!(
            r3.reward.abs() < 1e-9,
            "idempotent action rewards vanish: {}",
            r3.reward
        );
    }

    #[test]
    fn histogram_encoding_works() {
        let cfg = EnvConfig {
            encoding: StateEncoding::Histogram,
            ..EnvConfig::default()
        };
        let env = PhaseEnv::new(cfg, ActionSet::manual());
        let m = program(9);
        let v = env.encode(&m);
        assert_eq!(v.len(), env.state_dim());
        assert!(v.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn static_features_extend_the_state() {
        use crate::cache::EvalCache;
        let cfg = EnvConfig {
            static_features: true,
            episode_len: 2,
            ..EnvConfig::default()
        };
        let base = PhaseEnv::new(EnvConfig::default(), ActionSet::manual());
        let mut env = PhaseEnv::new(cfg.clone(), ActionSet::manual());
        assert_eq!(
            env.state_dim(),
            base.state_dim() + posetrl_analyze::absint::features::FEATURE_DIM
        );
        let s0 = env.reset(program(4));
        assert_eq!(s0.len(), env.state_dim());
        // the appended tail is the module's feature vector
        let feats =
            posetrl_analyze::absint::features::features(&ModuleAnalyses::new(env.module(), None));
        assert_eq!(&s0[base.state_dim()..], &feats[..]);

        // cached and uncached encodings agree bit-for-bit, and the
        // feature-extended embedding does not collide with the plain one
        let mut cached = PhaseEnv::with_cache(
            cfg,
            ActionSet::manual(),
            std::sync::Arc::new(EvalCache::with_capacity(256)),
        );
        let c0 = cached.reset(program(4));
        assert_eq!(s0, c0);
        let r_plain = PhaseEnv::new(EnvConfig::default(), ActionSet::manual()).reset(program(4));
        assert_eq!(r_plain.len() + feats.len(), c0.len());
        assert_eq!(&c0[..r_plain.len()], &r_plain[..]);
    }

    #[test]
    fn sanitized_episode_runs_clean_and_counts() {
        let cfg = EnvConfig {
            sanitize: SanitizeLevel::Full,
            episode_len: 4,
            ..EnvConfig::default()
        };
        let mut env = PhaseEnv::new(cfg, ActionSet::odg());
        env.reset(program(5));
        for a in [8, 23, 5, 0] {
            env.step(a);
        }
        let stats = env.sanitizer().expect("sanitizer attached").stats();
        assert!(stats.checks > 0, "passes were checked: {stats:?}");
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.miscompiles, 0);
    }

    #[test]
    fn semantics_preserved_across_whole_episode() {
        use posetrl_ir::interp::Interpreter;
        let m = program(11);
        let before = Interpreter::new(&m).run("main", &[]).observation();
        let mut env = PhaseEnv::new(EnvConfig::default(), ActionSet::odg());
        env.reset(m);
        for a in [8, 23, 30, 13, 5, 19, 0, 33, 21, 10, 2, 27, 17, 6, 31] {
            env.step(a);
        }
        let after = Interpreter::new(env.module())
            .run("main", &[])
            .observation();
        assert_eq!(
            before, after,
            "episode of 15 ODG actions preserves semantics"
        );
    }
}
