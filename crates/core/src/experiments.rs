//! One function per table/figure of the paper (the reproduction index of
//! DESIGN.md).
//!
//! Every experiment returns a serializable result struct with a
//! `render()` method that prints the same rows the paper reports. The
//! `repro` binary in `posetrl-bench` drives these and records the outputs
//! in `EXPERIMENTS.md`.

use crate::actions::ActionSet;
use crate::env::EnvConfig;
use crate::eval::{self, evaluate_suite, BenchmarkResult, OzBaselines, ParallelEval, SuiteStats};
use crate::trainer::{train, TrainedModel, TrainerConfig};
use posetrl_analyze::{IncrementalAnalysisManager, ModuleAnalyses, SanitizeLevel, SanitizerStats};
use posetrl_odg::graph::OzDependenceGraph;
use posetrl_opt::manager::PassManager;
use posetrl_opt::pipelines;
use posetrl_rl::dqn::DqnConfig;
use posetrl_target::size::object_size;
use posetrl_target::TargetArch;
use posetrl_workloads::{mibench, spec2006, spec2017, training_suite, Benchmark, Suite};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How much compute to spend on the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds; tiny models, benchmark subsets (CI-sized smoke run).
    Quick,
    /// Minutes; full benchmark suites, moderately trained models.
    Standard,
    /// The paper's training schedule (hours).
    Paper,
}

impl Scale {
    fn trainer(self) -> TrainerConfig {
        match self {
            Scale::Quick => TrainerConfig {
                total_steps: 600,
                env: EnvConfig {
                    episode_len: 15,
                    ..EnvConfig::default()
                },
                agent: DqnConfig {
                    hidden: vec![64],
                    eps_decay_steps: 400,
                    lr: 1e-3,
                    batch_size: 16,
                    learn_start: 32,
                    ..DqnConfig::default()
                },
                max_programs: Some(12),
                log_every: 0,
            },
            Scale::Standard => TrainerConfig {
                total_steps: 6_000,
                env: EnvConfig::default(),
                agent: DqnConfig {
                    eps_decay_steps: 4_000,
                    lr: 3e-4,
                    gamma: 0.9,
                    batch_size: 64,
                    updates_per_step: 2,
                    target_sync_every: 400,
                    replay_capacity: 30_000,
                    hidden: vec![256, 128],
                    eps_end: 0.05,
                    ..DqnConfig::default()
                },
                max_programs: None,
                log_every: 1_005,
            },
            Scale::Paper => TrainerConfig::paper_scale(),
        }
    }

    fn benchmark_cap(self) -> usize {
        match self {
            Scale::Quick => 4,
            _ => usize::MAX,
        }
    }
}

/// Shared experiment state: trained models per (action space, target).
pub struct ExperimentContext {
    /// The scale everything was run at.
    pub scale: Scale,
    /// Models keyed by (space name, arch).
    pub models: Vec<((String, TargetArch), TrainedModel)>,
    training: Vec<Benchmark>,
}

impl ExperimentContext {
    /// Trains the four models the paper evaluates (manual/ODG × x86/AArch64).
    pub fn new(scale: Scale) -> ExperimentContext {
        let training = training_suite();
        let mut models = Vec::new();
        for arch in TargetArch::ALL {
            for set in [ActionSet::manual(), ActionSet::odg()] {
                let mut cfg = scale.trainer();
                cfg.env.arch = arch;
                let name = set.name.clone();
                let model = train(&cfg, set, &training);
                models.push(((name, arch), model));
            }
        }
        ExperimentContext {
            scale,
            models,
            training,
        }
    }

    /// The model for (space, arch).
    ///
    /// # Panics
    ///
    /// Panics if the combination was not trained.
    pub fn model(&self, space: &str, arch: TargetArch) -> &TrainedModel {
        &self
            .models
            .iter()
            .find(|((n, a), _)| n == space && *a == arch)
            .unwrap_or_else(|| panic!("no model for ({space}, {arch})"))
            .1
    }

    fn suites(&self) -> Vec<(&'static str, Vec<Benchmark>)> {
        let cap = self.scale.benchmark_cap();
        vec![
            ("SPEC-2017", spec2017().into_iter().take(cap).collect()),
            ("SPEC-2006", spec2006().into_iter().take(cap).collect()),
            ("MiBench", mibench().into_iter().take(cap).collect()),
        ]
    }

    /// The training corpus (exposed for ablations).
    pub fn training(&self) -> &[Benchmark] {
        &self.training
    }
}

// ---------------------------------------------------------------------------
// Fig. 1 — O3 vs Oz
// ---------------------------------------------------------------------------

/// One benchmark's O3-vs-Oz comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: String,
    /// Estimated cycles under `-O3`.
    pub o3_cycles: f64,
    /// Estimated cycles under `-Oz`.
    pub oz_cycles: f64,
    /// Object size under `-O3`.
    pub o3_size: u64,
    /// Object size under `-Oz`.
    pub oz_size: u64,
}

/// Fig. 1: runtime and code size of `-O3` vs `-Oz` on SPEC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig1Row>,
    /// Mean extra runtime of `-Oz` over `-O3`, percent (paper: ~10%).
    pub avg_oz_runtime_penalty_pct: f64,
    /// Mean size saving of `-Oz` over `-O3`, percent (paper: ~3.5%).
    pub avg_oz_size_saving_pct: f64,
}

/// Reproduces Fig. 1 on the SPEC suites.
pub fn fig1(scale: Scale) -> Fig1 {
    let pm = PassManager::new();
    let cap = scale.benchmark_cap();
    let benches: Vec<Benchmark> = spec2017()
        .into_iter()
        .chain(spec2006())
        .take(cap.saturating_mul(2).max(6))
        .collect();
    let mut rows = Vec::new();
    for b in benches {
        let mut o3 = b.module.clone();
        pm.run_pipeline(&mut o3, &pipelines::o3()).unwrap();
        let mut oz = b.module.clone();
        pm.run_pipeline(&mut oz, &pipelines::oz()).unwrap();
        rows.push(Fig1Row {
            name: b.name.clone(),
            o3_cycles: eval::measure_cycles(&o3, TargetArch::X86_64),
            oz_cycles: eval::measure_cycles(&oz, TargetArch::X86_64),
            o3_size: object_size(&o3, TargetArch::X86_64).total,
            oz_size: object_size(&oz, TargetArch::X86_64).total,
        });
    }
    let n = rows.len().max(1) as f64;
    let avg_rt = rows
        .iter()
        .map(|r| 100.0 * (r.oz_cycles - r.o3_cycles) / r.o3_cycles.max(1.0))
        .sum::<f64>()
        / n;
    let avg_sz = rows
        .iter()
        .map(|r| 100.0 * (r.o3_size as f64 - r.oz_size as f64) / r.o3_size as f64)
        .sum::<f64>()
        / n;
    Fig1 {
        rows,
        avg_oz_runtime_penalty_pct: avg_rt,
        avg_oz_size_saving_pct: avg_sz,
    }
}

impl Fig1 {
    /// Renders the figure data as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Fig. 1: O3 vs Oz (x86-64)");
        let _ = writeln!(
            s,
            "{:<16} {:>12} {:>12} {:>10} {:>10}",
            "benchmark", "O3 cycles", "Oz cycles", "O3 size", "Oz size"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<16} {:>12.0} {:>12.0} {:>10} {:>10}",
                r.name, r.o3_cycles, r.oz_cycles, r.o3_size, r.oz_size
            );
        }
        let _ = writeln!(
            s,
            "avg Oz runtime penalty: {:+.2}%  (paper: ~+10%)",
            self.avg_oz_runtime_penalty_pct
        );
        let _ = writeln!(
            s,
            "avg Oz size saving:     {:+.2}%  (paper: ~+3.5%)",
            self.avg_oz_size_saving_pct
        );
        s
    }
}

// ---------------------------------------------------------------------------
// Table IV — size reduction vs Oz
// ---------------------------------------------------------------------------

/// One row of Table IV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Suite name.
    pub suite: String,
    /// Target architecture.
    pub arch: TargetArch,
    /// Action space ("manual" or "ODG").
    pub space: String,
    /// Aggregate size-reduction statistics.
    pub stats: SuiteStats,
}

/// Table IV: min/avg/max % size reduction w.r.t. Oz.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// All rows (suite × arch × space).
    pub rows: Vec<Table4Row>,
    /// Per-benchmark size detail for the ODG model on x86-64.
    pub details: Vec<BenchmarkResult>,
}

/// Reproduces Table IV.
///
/// Each suite's `-Oz` baselines are built once per architecture and serve
/// both action spaces.
pub fn table4(ctx: &ExperimentContext) -> Table4 {
    let opts = ParallelEval::serial();
    let suites = ctx.suites();
    let mut rows = Vec::new();
    let mut details = Vec::new();
    for arch in TargetArch::ALL {
        let oz: Vec<OzBaselines> = suites
            .iter()
            .map(|(_, benches)| OzBaselines::compute(benches, arch, false, &opts))
            .collect();
        for space in ["manual", "ODG"] {
            let model = ctx.model(space, arch);
            let greedy = |s: &[f64]| model.agent.act_greedy(s);
            for ((suite_name, benches), oz) in suites.iter().zip(&oz) {
                let (mut res, _) =
                    oz.greedy_vs_oz(&greedy, &model.env, &model.actions, benches, &opts);
                rows.push(Table4Row {
                    suite: suite_name.to_string(),
                    arch,
                    space: space.to_string(),
                    stats: eval::aggregate(&res, arch),
                });
                if arch == TargetArch::X86_64 && space == "ODG" {
                    details.append(&mut res);
                }
            }
        }
    }
    Table4 { rows, details }
}

impl Table4 {
    /// Renders the table as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Table IV: % size reduction w.r.t. Oz (min / avg / max)");
        for arch in TargetArch::ALL {
            let _ = writeln!(s, "-- {arch} --");
            let _ = writeln!(
                s,
                "{:<12} {:>28} {:>28}",
                "benchmark", "manual (min/avg/max)", "ODG (min/avg/max)"
            );
            for suite in ["SPEC-2017", "SPEC-2006", "MiBench"] {
                let get = |space: &str| {
                    self.rows
                        .iter()
                        .find(|r| r.suite == suite && r.arch == arch && r.space == space)
                        .map(|r| {
                            format!(
                                "{:+.2}/{:+.2}/{:+.2}",
                                r.stats.min_size_reduction_pct,
                                r.stats.avg_size_reduction_pct,
                                r.stats.max_size_reduction_pct
                            )
                        })
                        .unwrap_or_default()
                };
                let _ = writeln!(s, "{:<12} {:>28} {:>28}", suite, get("manual"), get("ODG"));
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Table V — execution time improvement (x86)
// ---------------------------------------------------------------------------

/// Table V: % decrease in execution time w.r.t. Oz (x86).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// (suite, manual %, ODG %) under the paper's flat/interpreted costing.
    pub rows: Vec<(String, f64, f64)>,
    /// The same comparison under the frequency-weighted *static* costing
    /// ([`posetrl_target::runtime::static_cycles`] over the SCEV-backed
    /// block-frequency profile): (suite, manual %, ODG %). Diagnostic
    /// only — the paper's numbers and the reward stay flat.
    pub weighted_rows: Vec<(String, f64, f64)>,
    /// Per-benchmark detail for the ODG model; its SPEC rows are Fig. 5
    /// (see [`fig5`]).
    pub details: Vec<BenchmarkResult>,
}

/// Frequency-weighted static cycles of `m` on x86-64 (no interpreter
/// run): [`posetrl_target::runtime::static_cycles`] over the SCEV-backed
/// block-frequency profile, memoized through `mgr`.
fn weighted_cycles(m: &posetrl_ir::Module, mgr: &IncrementalAnalysisManager) -> f64 {
    let profile = posetrl_analyze::profile::of_scev(ModuleAnalyses::new(m, Some(mgr)).scev());
    posetrl_target::runtime::static_cycles(m, &profile, TargetArch::X86_64)
}

/// Reproduces Table V.
///
/// Each suite's `-Oz` baselines are built once, and each model's greedy
/// sweep against them feeds both the flat row and the frequency-weighted
/// row: one rollout per (model, benchmark).
pub fn table5(ctx: &ExperimentContext) -> Table5 {
    let arch = TargetArch::X86_64;
    let opts = ParallelEval::serial();
    let mut rows = Vec::new();
    let mut weighted_rows = Vec::new();
    let mut details = Vec::new();
    for (suite_name, benches) in ctx.suites() {
        let oz = OzBaselines::compute(&benches, arch, true, &opts);
        // one shared manager per suite: unchanged functions in the
        // -Oz/model module pairs hit the scev/profile memo instead of
        // recomputing the profile (bit-identical either way)
        let mgr = IncrementalAnalysisManager::new();
        let oz_weighted: Vec<f64> = (0..benches.len())
            .map(|i| weighted_cycles(oz.module(i), &mgr))
            .collect();
        let [(manual, manual_w), (mut odg, odg_w)] = ["manual", "ODG"].map(|space| {
            let model = ctx.model(space, arch);
            let greedy = |s: &[f64]| model.agent.act_greedy(s);
            let (results, modules) =
                oz.greedy_vs_oz(&greedy, &model.env, &model.actions, &benches, &opts);
            let weighted = modules
                .iter()
                .zip(&oz_weighted)
                .map(|(m, &ozc)| {
                    let mc = weighted_cycles(m, &mgr);
                    if ozc > 0.0 {
                        100.0 * (ozc - mc) / ozc
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / benches.len().max(1) as f64;
            (results, weighted)
        });
        rows.push((
            suite_name.to_string(),
            eval::aggregate(&manual, arch).avg_runtime_improvement_pct,
            eval::aggregate(&odg, arch).avg_runtime_improvement_pct,
        ));
        weighted_rows.push((suite_name.to_string(), manual_w, odg_w));
        details.append(&mut odg);
    }
    Table5 {
        rows,
        weighted_rows,
        details,
    }
}

impl Table5 {
    /// Renders the table as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table V: % improvement in execution time w.r.t. Oz (x86-64)"
        );
        let _ = writeln!(s, "{:<12} {:>10} {:>10}", "benchmark", "manual", "ODG");
        for (suite, m, o) in &self.rows {
            let _ = writeln!(s, "{:<12} {:>+10.2} {:>+10.2}", suite, m, o);
        }
        if !self.weighted_rows.is_empty() {
            let _ = writeln!(
                s,
                "frequency-weighted static costing (diagnostic, not the reward):"
            );
            let _ = writeln!(s, "{:<12} {:>10} {:>10}", "benchmark", "manual", "ODG");
            for (suite, m, o) in &self.weighted_rows {
                let _ = writeln!(s, "{:<12} {:>+10.2} {:>+10.2}", suite, m, o);
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Fig. 5 — per-benchmark runtime and size series
// ---------------------------------------------------------------------------

/// Fig. 5: per-benchmark Oz-vs-ODG runtime and size series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// SPEC 2017 per-benchmark results (ODG model, x86).
    pub spec2017: Vec<BenchmarkResult>,
    /// SPEC 2006 per-benchmark results.
    pub spec2006: Vec<BenchmarkResult>,
}

/// Reproduces Fig. 5: the SPEC rows of Table V's ODG x86 detail, which
/// already measured runtime and size for every benchmark.
pub fn fig5(t5: &Table5) -> Fig5 {
    let suite = |name: &str| -> Vec<BenchmarkResult> {
        t5.details
            .iter()
            .filter(|r| r.suite == name)
            .cloned()
            .collect()
    };
    Fig5 {
        spec2017: suite(Suite::Spec2017.name()),
        spec2006: suite(Suite::Spec2006.name()),
    }
}

impl Fig5 {
    /// Renders both panels as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (title, rows) in [
            ("Fig. 5a/5c: SPEC-2017", &self.spec2017),
            ("Fig. 5b/5d: SPEC-2006", &self.spec2006),
        ] {
            let _ = writeln!(s, "{title} (x86-64, ODG model vs Oz)");
            let _ = writeln!(
                s,
                "{:<16} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8}",
                "benchmark", "Oz cycles", "ODG cycles", "Oz KB", "ODG KB", "Δrt%", "Δsz%"
            );
            for r in rows {
                let _ = writeln!(
                    s,
                    "{:<16} {:>12.0} {:>12.0} {:>9.2} {:>9.2} {:>+8.2} {:>+8.2}",
                    r.name,
                    r.oz_cycles,
                    r.model_cycles,
                    r.oz_size as f64 / 1024.0,
                    r.model_size as f64 / 1024.0,
                    r.runtime_improvement_pct,
                    r.size_reduction_pct
                );
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Table VI — predicted sequences
// ---------------------------------------------------------------------------

/// Table VI: example predicted action-index sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6 {
    /// (benchmark, arch, sequence of ODG action indices).
    pub rows: Vec<(String, TargetArch, Vec<usize>)>,
}

/// Reproduces Table VI: the ODG model's predicted sequences for the same
/// benchmarks the paper samples.
pub fn table6(ctx: &ExperimentContext) -> Table6 {
    let picks = [
        ("508.namd", TargetArch::X86_64),
        ("525.x264", TargetArch::X86_64),
        ("susan", TargetArch::X86_64),
        ("508.namd", TargetArch::AArch64),
        ("511.povray", TargetArch::AArch64),
    ];
    let all: Vec<Benchmark> = spec2017().into_iter().chain(mibench()).collect();
    let mut rows = Vec::new();
    for (name, arch) in picks {
        let Some(b) = all.iter().find(|b| b.name == name) else {
            continue;
        };
        let model = ctx.model("ODG", arch);
        let seq = model.predict_sequence(b.module.clone());
        rows.push((name.to_string(), arch, seq));
    }
    Table6 { rows }
}

impl Table6 {
    /// Renders the table as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Table VI: predicted ODG sub-sequences (action indices)");
        for (i, (name, arch, seq)) in self.rows.iter().enumerate() {
            let chain: Vec<String> = seq.iter().map(|a| a.to_string()).collect();
            let _ = writeln!(
                s,
                "{} [{:>8} {:>7}]  {}",
                i + 1,
                name,
                arch.name(),
                chain.join(" -> ")
            );
        }
        s
    }
}

// ---------------------------------------------------------------------------
// ODG statistics (Section IV-B)
// ---------------------------------------------------------------------------

/// ODG construction statistics and the k-threshold sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OdgStats {
    /// Number of nodes (unique Oz passes).
    pub nodes: usize,
    /// Number of deduplicated edges.
    pub edges: usize,
    /// (k, number of critical nodes).
    pub k_sweep: Vec<(usize, usize)>,
    /// Critical nodes at k = 8 with their degrees.
    pub critical_at_8: Vec<(String, usize)>,
}

/// Computes the ODG statistics the paper reports in Section IV-B.
pub fn odg_stats() -> OdgStats {
    let g = OzDependenceGraph::from_oz();
    let k_sweep = (2..=12).map(|k| (k, g.critical_nodes(k).len())).collect();
    OdgStats {
        nodes: g.nodes().len(),
        edges: g.edges().len(),
        k_sweep,
        critical_at_8: g
            .critical_nodes(8)
            .into_iter()
            .map(|(n, d)| (n.to_string(), d))
            .collect(),
    }
}

impl OdgStats {
    /// Renders the statistics as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ODG: {} nodes, {} edges", self.nodes, self.edges);
        let _ = writeln!(
            s,
            "critical nodes at k>=8 (paper: simplifycfg=11, instcombine=10, loop-simplify=8):"
        );
        for (n, d) in &self.critical_at_8 {
            let _ = writeln!(s, "  {n}: degree {d}");
        }
        let _ = writeln!(s, "k sweep: {:?}", self.k_sweep);
        s
    }
}

// ---------------------------------------------------------------------------
// Analysis census (DESIGN.md §11, §14–§16)
// ---------------------------------------------------------------------------

/// Corpus census of one lint-producing analysis over the training suite:
/// lint counts, how many modules each consumer pass changes, and the
/// analysis's own facts ([`posetrl_analyze::suite::Analysis::facts`]).
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisStats {
    /// The analysis's table name.
    pub analysis: &'static str,
    /// Passes run on every module before the census looks at it.
    pub canonicalize: &'static [&'static str],
    /// Modules analyzed.
    pub modules: usize,
    /// Diagnostics per lint code over the whole corpus.
    pub lints: BTreeMap<String, usize>,
    /// Modules where each consumer pass changed at least one instruction.
    pub consumers: BTreeMap<String, usize>,
    /// The analysis-specific numbers (counts, means, vector means).
    pub facts: BTreeMap<String, serde_json::Value>,
}

/// Computes [`AnalysisStats`] for one table entry. Modules are first
/// canonicalized with the entry's prefix (`mem2reg` + `loop-simplify`
/// for the loop analyses: the generated corpus keeps induction variables
/// in memory, and those analyses, like the passes they power, run
/// mid-pipeline, after promotion).
pub fn analysis_stats(a: &'static posetrl_analyze::suite::Analysis) -> AnalysisStats {
    let pm = PassManager::new();
    let suite = training_suite();
    let mut lints: BTreeMap<String, usize> = BTreeMap::new();
    let mut consumers: BTreeMap<String, usize> =
        a.consumers.iter().map(|p| (p.to_string(), 0)).collect();
    let mut facts = posetrl_analyze::suite::Facts::default();
    for b in &suite {
        let mut canon = b.module.clone();
        pm.run_pipeline(&mut canon, a.canonicalize)
            .expect("canonicalizing passes are registered");
        let analyses = ModuleAnalyses::new(&canon, None);
        let mut diags = Vec::new();
        (a.lint)(&analyses, &mut diags);
        for d in &diags {
            *lints.entry(d.code.to_string()).or_default() += 1;
        }
        (a.facts)(&analyses, &mut facts);
        for (pass, changed) in consumers.iter_mut() {
            let mut m = canon.clone();
            if pm
                .run_pass(&mut m, pass)
                .expect("consumer pass is registered")
            {
                *changed += 1;
            }
        }
    }
    AnalysisStats {
        analysis: a.name,
        canonicalize: a.canonicalize,
        modules: suite.len(),
        lints,
        consumers,
        facts: facts.to_json(),
    }
}

impl AnalysisStats {
    /// Renders the statistics as text.
    pub fn render(&self) -> String {
        let mut s = self.analysis.to_string();
        if !self.canonicalize.is_empty() {
            let _ = write!(s, " (post {})", self.canonicalize.join("+"));
        }
        let _ = writeln!(s, ": {} modules", self.modules);
        for (code, n) in &self.lints {
            let _ = writeln!(s, "  {code}: {n}");
        }
        for (pass, n) in &self.consumers {
            let pct = 100.0 * *n as f64 / self.modules.max(1) as f64;
            let _ = writeln!(s, "{pass} changed {n} ({pct:.1}%)");
        }
        let num = |v: &serde_json::Value| match v.as_u64() {
            Some(n) => n.to_string(),
            None => format!("{:.3}", v.as_f64().unwrap_or(f64::NAN)),
        };
        for (name, v) in &self.facts {
            match (v.get("dim"), v.get("means").and_then(|m| m.as_array())) {
                (Some(dim), Some(means)) => {
                    let means: Vec<String> = means.iter().map(num).collect();
                    let _ = writeln!(s, "{name} ({}d): [{}]", num(dim), means.join(", "));
                }
                _ => {
                    let _ = writeln!(s, "{name}: {}", num(v));
                }
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

/// Result of one ablation arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationArm {
    /// Arm label.
    pub label: String,
    /// Mean size reduction vs Oz over the probe benchmarks.
    pub avg_size_reduction_pct: f64,
    /// Mean final training reward.
    pub final_mean_reward: f64,
}

/// A named ablation with its arms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// What is being ablated.
    pub name: String,
    /// The arms.
    pub arms: Vec<AblationArm>,
}

impl Ablation {
    /// Renders the ablation as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Ablation: {}", self.name);
        for a in &self.arms {
            let _ = writeln!(
                s,
                "  {:<28} avg size reduction {:+.2}%   final reward {:+.3}",
                a.label, a.avg_size_reduction_pct, a.final_mean_reward
            );
        }
        s
    }
}

/// Ablation arms use a reduced training budget (the comparison is
/// *between arms*, not against the paper's headline numbers).
fn ablation_budget(mut cfg: TrainerConfig) -> TrainerConfig {
    cfg.total_steps = (cfg.total_steps / 5).max(600);
    cfg.agent.eps_decay_steps = (cfg.agent.eps_decay_steps / 5).max(400);
    cfg.max_programs = Some(40);
    cfg
}

fn ablation_arm(
    label: &str,
    cfg: &TrainerConfig,
    actions: ActionSet,
    training: &[Benchmark],
    probes: &[Benchmark],
) -> AblationArm {
    let model = train(cfg, actions, training);
    let (_, stats) = evaluate_suite(&model, probes, cfg.env.arch, false);
    AblationArm {
        label: label.to_string(),
        avg_size_reduction_pct: stats.avg_size_reduction_pct,
        final_mean_reward: model.final_mean_reward,
    }
}

/// Sweeps the reward weights α/β (paper fixes 10/5).
pub fn ablate_reward(ctx: &ExperimentContext) -> Ablation {
    let probes: Vec<Benchmark> = mibench()
        .into_iter()
        .take(ctx.scale.benchmark_cap())
        .collect();
    let mut arms = Vec::new();
    for (alpha, beta) in [(10.0, 5.0), (10.0, 0.0), (0.0, 5.0), (5.0, 10.0)] {
        let mut cfg = ablation_budget(ctx.scale.trainer());
        cfg.env.alpha = alpha;
        cfg.env.beta = beta;
        arms.push(ablation_arm(
            &format!("alpha={alpha} beta={beta}"),
            &cfg,
            ActionSet::odg(),
            ctx.training(),
            &probes,
        ));
    }
    Ablation {
        name: "reward weights (paper: alpha=10, beta=5)".into(),
        arms,
    }
}

/// Double DQN vs vanilla DQN (paper uses double).
pub fn ablate_ddqn(ctx: &ExperimentContext) -> Ablation {
    let probes: Vec<Benchmark> = mibench()
        .into_iter()
        .take(ctx.scale.benchmark_cap())
        .collect();
    let mut arms = Vec::new();
    for double in [true, false] {
        let mut cfg = ablation_budget(ctx.scale.trainer());
        cfg.agent.double = double;
        arms.push(ablation_arm(
            if double {
                "double DQN (paper)"
            } else {
                "vanilla DQN"
            },
            &cfg,
            ActionSet::odg(),
            ctx.training(),
            &probes,
        ));
    }
    Ablation {
        name: "double vs vanilla DQN".into(),
        arms,
    }
}

/// Sub-sequence actions vs naive single-pass actions (Section IV).
pub fn ablate_actions(ctx: &ExperimentContext) -> Ablation {
    let probes: Vec<Benchmark> = mibench()
        .into_iter()
        .take(ctx.scale.benchmark_cap())
        .collect();
    let cfg = ablation_budget(ctx.scale.trainer());
    let arms = vec![
        ablation_arm(
            "ODG sub-sequences (34)",
            &cfg,
            ActionSet::odg(),
            ctx.training(),
            &probes,
        ),
        ablation_arm(
            "manual sub-sequences (15)",
            &cfg,
            ActionSet::manual(),
            ctx.training(),
            &probes,
        ),
        ablation_arm(
            "single passes (54)",
            &cfg,
            ActionSet::single_passes(),
            ctx.training(),
            &probes,
        ),
    ];
    Ablation {
        name: "action-space granularity".into(),
        arms,
    }
}

/// IR2Vec-style embeddings vs a flat opcode histogram.
pub fn ablate_embed(ctx: &ExperimentContext) -> Ablation {
    use crate::env::StateEncoding;
    let probes: Vec<Benchmark> = mibench()
        .into_iter()
        .take(ctx.scale.benchmark_cap())
        .collect();
    let mut arms = Vec::new();
    for (label, enc) in [
        ("IR2Vec flow-aware (paper)", StateEncoding::Ir2Vec),
        ("opcode histogram", StateEncoding::Histogram),
    ] {
        let mut cfg = ablation_budget(ctx.scale.trainer());
        cfg.env.encoding = enc;
        arms.push(ablation_arm(
            label,
            &cfg,
            ActionSet::odg(),
            ctx.training(),
            &probes,
        ));
    }
    Ablation {
        name: "state encoding".into(),
        arms,
    }
}

// ---------------------------------------------------------------------------
// Episode engine statistics (PR 2: parallel engine + evaluation cache)
// ---------------------------------------------------------------------------

/// Timings and cache behaviour of the parallel episode engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads the engine resolved to.
    pub workers: usize,
    /// Training rounds run.
    pub rounds: usize,
    /// Episodes completed.
    pub episodes: usize,
    /// Mean reward of the last 50 episodes.
    pub final_mean_reward: f64,
    /// Training cache hit rate, percent.
    pub train_hit_rate_pct: f64,
    /// Serial, uncached validation sweep, milliseconds.
    pub serial_sweep_ms: f64,
    /// First parallel+cached sweep (cold cache), milliseconds.
    pub cold_sweep_ms: f64,
    /// Second parallel+cached sweep (warm cache), milliseconds.
    pub warm_sweep_ms: f64,
    /// `serial_sweep_ms / warm_sweep_ms` — what repeated sweeps gain.
    pub warm_speedup: f64,
    /// Evaluation cache hit rate after both sweeps, percent.
    pub eval_hit_rate_pct: f64,
    /// Rendered evaluation cache counter line.
    pub eval_cache_line: String,
    /// Sanitize level the run used (`off`, `verify` or `full`).
    pub sanitize: String,
    /// Training sanitizer counters (None when sanitizing was off).
    pub sanitizer: Option<SanitizerStats>,
}

/// Trains with the parallel engine and measures serial vs parallel+cached
/// validation sweeps.
///
/// The benchmark sweep runs three times: once serial and uncached (the
/// pre-engine path), once parallel with a cold shared cache, and once more
/// with the now-warm cache — the configuration repeated validation actually
/// runs in. All three produce bit-identical numbers (see
/// `tests/parallel_determinism.rs`); only the wall clock differs.
pub fn engine_stats(scale: Scale, sanitize: SanitizeLevel) -> EngineStats {
    use crate::engine::{train_parallel, EngineConfig};
    use crate::eval::{evaluate_suite_parallel, ParallelEval};
    use std::time::Instant;

    let mut trainer = scale.trainer();
    trainer.env.sanitize = sanitize;
    let config = EngineConfig {
        trainer,
        validate_every: 4,
        ..EngineConfig::default()
    };
    let training = training_suite();
    let cap = scale.benchmark_cap().min(8);
    let benches: Vec<Benchmark> = mibench().into_iter().take(cap).collect();

    let (model, report) = train_parallel(&config, ActionSet::odg(), &training, &benches);
    let train_stats = report.cache.expect("engine defaults to caching");

    let arch = TargetArch::X86_64;
    let t0 = Instant::now();
    let (serial_results, _) = evaluate_suite(&model, &benches, arch, false);
    let serial_sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    let cache = crate::cache::EvalCache::shared();
    let opts = ParallelEval::with_cache(0, std::sync::Arc::clone(&cache));
    let t1 = Instant::now();
    let (cold_results, _) = evaluate_suite_parallel(&model, &benches, arch, false, &opts);
    let cold_sweep_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let (warm_results, _) = evaluate_suite_parallel(&model, &benches, arch, false, &opts);
    let warm_sweep_ms = t2.elapsed().as_secs_f64() * 1e3;

    for (s, w) in serial_results
        .iter()
        .zip(cold_results.iter().zip(&warm_results))
    {
        assert_eq!(
            s.model_size, w.0.model_size,
            "sweeps must agree ({})",
            s.name
        );
        assert_eq!(
            s.model_size, w.1.model_size,
            "sweeps must agree ({})",
            s.name
        );
    }

    let eval_stats = cache.stats();
    EngineStats {
        workers: report.workers,
        rounds: report.rounds.len(),
        episodes: report.episode_rewards.len(),
        final_mean_reward: model.final_mean_reward,
        train_hit_rate_pct: 100.0 * train_stats.hit_rate(),
        serial_sweep_ms,
        cold_sweep_ms,
        warm_sweep_ms,
        warm_speedup: serial_sweep_ms / warm_sweep_ms.max(1e-9),
        eval_hit_rate_pct: 100.0 * eval_stats.hit_rate(),
        eval_cache_line: eval_stats.render(),
        sanitize: sanitize.name().to_string(),
        sanitizer: report.sanitizer,
    }
}

impl EngineStats {
    /// Renders the statistics as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Episode engine: {} workers, {} rounds, {} episodes, final mean reward {:+.3}",
            self.workers, self.rounds, self.episodes, self.final_mean_reward
        );
        let _ = writeln!(
            s,
            "training cache hit rate: {:.1}%",
            self.train_hit_rate_pct
        );
        let _ = writeln!(
            s,
            "validation sweep: serial {:.1} ms, parallel cold {:.1} ms, parallel warm {:.1} ms ({:.1}x)",
            self.serial_sweep_ms, self.cold_sweep_ms, self.warm_sweep_ms, self.warm_speedup
        );
        let _ = writeln!(s, "{}", self.eval_cache_line);
        match &self.sanitizer {
            Some(st) => {
                let _ = writeln!(s, "sanitizer ({}): {}", self.sanitize, st.render());
            }
            None => {
                let _ = writeln!(s, "sanitizer: off");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_stats_reports_cache_activity() {
        let s = engine_stats(Scale::Quick, SanitizeLevel::Verify);
        assert!(s.episodes > 0 && s.rounds > 0);
        let san = s.sanitizer.expect("sanitizer was on");
        assert!(san.checks > 0, "training was checked: {san:?}");
        assert_eq!(san.miscompiles, 0);
        assert_eq!(san.verify_failures, 0);
        assert!(
            s.train_hit_rate_pct > 0.0,
            "training must revisit cached states"
        );
        assert!(
            s.eval_hit_rate_pct > 0.0,
            "the warm sweep must hit the cache"
        );
        assert!(
            s.warm_sweep_ms <= s.serial_sweep_ms * 1.5,
            "warm sweep regressed"
        );
        let r = s.render();
        assert!(r.contains("cache hit rate"));
    }

    #[test]
    fn odg_stats_match_paper() {
        let s = odg_stats();
        assert_eq!(s.nodes, 54);
        let names: Vec<&str> = s.critical_at_8.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"simplifycfg"));
        let render = s.render();
        assert!(render.contains("simplifycfg: degree 11"));
    }

    #[test]
    fn fig1_oz_smaller_but_slower_than_o3() {
        let f = fig1(Scale::Quick);
        assert!(!f.rows.is_empty());
        // the paper's shape: Oz saves size at a runtime cost
        assert!(
            f.avg_oz_size_saving_pct > -1.0,
            "Oz should not be much larger than O3: {:+.2}%",
            f.avg_oz_size_saving_pct
        );
        assert!(
            f.avg_oz_runtime_penalty_pct > -5.0,
            "Oz should not be much faster than O3: {:+.2}%",
            f.avg_oz_runtime_penalty_pct
        );
    }

    // The full-context experiments (Table IV/V/VI, Fig. 5, ablations) are
    // exercised by the integration tests and the `repro` binary; training
    // four models is too slow for a unit test.
}
