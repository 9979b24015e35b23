//! The pass-pipeline sanitizer: detects miscompiles introduced by
//! optimization passes.
//!
//! POSET-RL assumes every action (a sub-sequence of `-Oz`) is semantics
//! preserving; a buggy pass silently corrupts both the reward signal and
//! the learned policy. The sanitizer closes that hole with three layers,
//! selected by [`SanitizeLevel`]:
//!
//! 1. **verify** — structural/SSA verification plus the lint suite after
//!    every applied pass, reporting only *newly introduced* findings so
//!    pre-existing corpus quirks never count against a pass.
//! 2. **validate** — additionally attempts a *static proof* that the
//!    transform is a refinement for **all** inputs, via the symbolic
//!    translation validator ([`crate::validate`]). A confirmed refutation
//!    becomes a miscompile report immediately; `Inconclusive` functions
//!    escalate to the differential layer below.
//! 3. **full** — differentially executes the module before and after the
//!    pass in the reference interpreter on seeded inputs and compares
//!    [`Observation`]s (return value + external-call trace).
//! 4. On a mismatch, a delta-reduction loop shrinks the pre-pass module to
//!    a minimal reproducer (re-applying the pass through a caller-supplied
//!    closure after each removal) and packages it as a JSON artifact.
//!
//! The differential layer honours the IR's UB contract: when the *pre*
//! module already traps or runs out of fuel, passes are free to refine the
//! erroneous execution, so no comparison is made.
//!
//! Reduction and differential execution are budgeted: the delta reducer
//! stops at `MAX_REDUCTION_ATTEMPTS` predicate runs *or* a wall-clock
//! deadline (30 s), emitting whatever repro it has at that point; every
//! differential run gets 2 000 000 units of interpreter fuel.

use crate::analyses::{run_all, sort_report};
use crate::bundle::ModuleAnalyses;
use crate::diag::{codes, Diagnostic, Severity};
use crate::incremental::IncrementalAnalysisManager;
use crate::validate::{validate_transform_with, ValidateConfig};
use posetrl_ir::interp::{InterpConfig, Interpreter, Observation, RtVal};
use posetrl_ir::printer::print_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::{Module, Ty};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Re-applies the pass under scrutiny to a (reduced) module; `None` when
/// the pass fails on the candidate, which aborts that reduction step.
pub type Reapply<'a> = &'a dyn Fn(&Module) -> Option<Module>;

/// How much checking the sanitizer performs after each applied pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SanitizeLevel {
    /// No checking (the historical behaviour).
    #[default]
    Off,
    /// Verifier + lint suite after every applied pass.
    Verify,
    /// `Verify` plus symbolic translation validation; inconclusive
    /// functions fall back to differential execution.
    Validate,
    /// `Verify` plus differential execution and delta-reduced repros.
    Full,
}

/// A sanitize level name [`SanitizeLevel::parse`] rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError(pub String);

impl std::fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown sanitize level '{}': expected off, verify, validate or full",
            self.0
        )
    }
}

impl std::error::Error for ParseLevelError {}

impl SanitizeLevel {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Result<SanitizeLevel, ParseLevelError> {
        match s {
            "off" | "none" => Ok(SanitizeLevel::Off),
            "verify" => Ok(SanitizeLevel::Verify),
            "validate" => Ok(SanitizeLevel::Validate),
            "full" => Ok(SanitizeLevel::Full),
            _ => Err(ParseLevelError(s.to_string())),
        }
    }

    /// Canonical name, inverse of [`SanitizeLevel::parse`].
    pub fn name(self) -> &'static str {
        match self {
            SanitizeLevel::Off => "off",
            SanitizeLevel::Verify => "verify",
            SanitizeLevel::Validate => "validate",
            SanitizeLevel::Full => "full",
        }
    }
}

/// Cumulative sanitizer counters, suitable for round logs and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanitizerStats {
    /// Per-pass transform checks performed.
    pub checks: u64,
    /// Whole-module lint sweeps performed.
    pub module_checks: u64,
    /// Transforms whose output failed structural verification.
    pub verify_failures: u64,
    /// Newly introduced warning-or-worse diagnostics across all checks.
    pub diagnostics: u64,
    /// Differential interpreter executions (pairs count once).
    pub diff_execs: u64,
    /// Observation mismatches (miscompiles) detected.
    pub miscompiles: u64,
    /// Functions statically proved correct by the translation validator.
    pub validate_proved: u64,
    /// Functions refuted with an interpreter-confirmed counterexample.
    pub validate_refuted: u64,
    /// Functions the validator could not decide (escalated to the
    /// dynamic fallback).
    pub validate_inconclusive: u64,
}

impl SanitizerStats {
    /// One-line human-readable rendering for logs.
    pub fn render(&self) -> String {
        format!(
            "checks={} verify_failures={} new_diags={} diff_execs={} miscompiles={} validate={}p/{}r/{}i",
            self.checks,
            self.verify_failures,
            self.diagnostics,
            self.diff_execs,
            self.miscompiles,
            self.validate_proved,
            self.validate_refuted,
            self.validate_inconclusive
        )
    }

    /// Accumulates another stats block (used when merging worker reports).
    pub fn merge(&mut self, other: &SanitizerStats) {
        self.checks += other.checks;
        self.module_checks += other.module_checks;
        self.verify_failures += other.verify_failures;
        self.diagnostics += other.diagnostics;
        self.diff_execs += other.diff_execs;
        self.miscompiles += other.miscompiles;
        self.validate_proved += other.validate_proved;
        self.validate_refuted += other.validate_refuted;
        self.validate_inconclusive += other.validate_inconclusive;
    }
}

/// A self-contained miscompile artifact: what ran, what diverged, and a
/// delta-reduced module that reproduces the divergence.
#[derive(Debug, Clone, Serialize)]
pub struct MiscompileReport {
    /// The pass (or pipeline) that introduced the divergence.
    pub pass: String,
    /// Entry function of the differential run.
    pub entry: String,
    /// Rendered runtime arguments of the run.
    pub args: Vec<String>,
    /// Observation of the pre-pass module.
    pub before: String,
    /// Observation of the post-pass module.
    pub after: String,
    /// Textual IR of the minimal pre-pass module that still reproduces.
    pub repro: String,
    /// Instruction count of the reduced reproducer.
    pub repro_insts: usize,
}

impl MiscompileReport {
    /// Serializes the artifact to JSON for diagnostic dumps.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("miscompile report serializes")
    }
}

/// The outcome of checking a single transform.
#[derive(Debug, Clone)]
pub struct TransformVerdict {
    /// Which pass was checked.
    pub pass: String,
    /// Diagnostics newly introduced by the transform (absent before it).
    pub diagnostics: Vec<Diagnostic>,
    /// Differential-execution mismatch, if one was found.
    pub miscompile: Option<MiscompileReport>,
}

impl TransformVerdict {
    /// `true` when the transform is unacceptable: it broke verification,
    /// introduced an error-severity finding, or changed observable
    /// behaviour.
    pub fn is_fatal(&self) -> bool {
        self.miscompile.is_some()
            || self
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error)
    }

    /// Multi-line human-readable rendering for panics and logs.
    pub fn render(&self) -> String {
        let mut s = format!("pass '{}' failed sanitization:\n", self.pass);
        for d in &self.diagnostics {
            s.push_str(&format!("  {d}\n"));
        }
        if let Some(mc) = &self.miscompile {
            s.push_str(&format!(
                "  miscompile: entry @{} args [{}]\n    before: {}\n    after:  {}\n  reduced repro ({} insts):\n{}",
                mc.entry,
                mc.args.join(", "),
                mc.before,
                mc.after,
                mc.repro_insts,
                mc.repro
            ));
        }
        s
    }
}

/// Maximum delta-reduction predicate evaluations per miscompile; each
/// evaluation re-applies the pass and re-runs the interpreter twice.
const MAX_REDUCTION_ATTEMPTS: usize = 200;

/// The sanitizer: shared, thread-safe checking state.
///
/// All counters are atomics so one `Arc<Sanitizer>` can be shared across
/// the parallel episode engine's workers; totals are order-independent
/// sums and do not perturb the engine's determinism contract.
#[derive(Debug, Default)]
pub struct Sanitizer {
    level: SanitizeLevel,
    validate_cfg: ValidateConfig,
    checks: AtomicU64,
    module_checks: AtomicU64,
    verify_failures: AtomicU64,
    diagnostics: AtomicU64,
    diff_execs: AtomicU64,
    miscompiles: AtomicU64,
    validate_proved: AtomicU64,
    validate_refuted: AtomicU64,
    validate_inconclusive: AtomicU64,
}

impl Sanitizer {
    /// Creates a sanitizer operating at `level`, with validation budgets
    /// read from the environment.
    pub fn new(level: SanitizeLevel) -> Sanitizer {
        Sanitizer {
            level,
            validate_cfg: ValidateConfig::from_env(),
            ..Sanitizer::default()
        }
    }

    /// The configured level.
    pub fn level(&self) -> SanitizeLevel {
        self.level
    }

    /// `true` unless the level is [`SanitizeLevel::Off`].
    pub fn enabled(&self) -> bool {
        self.level != SanitizeLevel::Off
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> SanitizerStats {
        SanitizerStats {
            checks: self.checks.load(Ordering::Relaxed),
            module_checks: self.module_checks.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            diagnostics: self.diagnostics.load(Ordering::Relaxed),
            diff_execs: self.diff_execs.load(Ordering::Relaxed),
            miscompiles: self.miscompiles.load(Ordering::Relaxed),
            validate_proved: self.validate_proved.load(Ordering::Relaxed),
            validate_refuted: self.validate_refuted.load(Ordering::Relaxed),
            validate_inconclusive: self.validate_inconclusive.load(Ordering::Relaxed),
        }
    }

    /// Runs verification plus the full lint suite over `m` and returns the
    /// ordered report. Returns an empty report at level `off`. `mgr`,
    /// when given, memoizes the lint bundles and analyses.
    pub fn check_module(
        &self,
        m: &Module,
        mgr: Option<&IncrementalAnalysisManager>,
    ) -> Vec<Diagnostic> {
        if !self.enabled() {
            return Vec::new();
        }
        self.module_checks.fetch_add(1, Ordering::Relaxed);
        let diags = lint_module(m, mgr);
        let noisy = diags
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .count() as u64;
        self.diagnostics.fetch_add(noisy, Ordering::Relaxed);
        diags
    }

    /// Checks one transform: `pre` is the module before the pass, `post`
    /// after it. `reapply` re-runs the pass on a reduced module during
    /// delta reduction; passing `None` skips reduction (the full module is
    /// used as the repro). `mgr`, when given, memoizes the lints, the
    /// analyses and the validate obligations; every result is
    /// bit-identical without it.
    ///
    /// Only diagnostics *absent before the transform* are reported, so
    /// pre-existing corpus findings never indict a pass. `lints` holds
    /// `pre`'s verifier + lint report when the caller has it (`None`
    /// lints `pre` here) and is left holding `post`'s, so a pipeline
    /// hands each check's post-state report to the next check instead
    /// of linting that state twice.
    pub fn check_transform(
        &self,
        pass: &str,
        pre: &Module,
        post: &Module,
        reapply: Option<Reapply<'_>>,
        mgr: Option<&IncrementalAnalysisManager>,
        lints: &mut Option<Vec<Diagnostic>>,
    ) -> TransformVerdict {
        let mut verdict = TransformVerdict {
            pass: pass.to_string(),
            diagnostics: Vec::new(),
            miscompile: None,
        };
        if !self.enabled() {
            return verdict;
        }
        self.checks.fetch_add(1, Ordering::Relaxed);

        // -- layer 1: verifier + lints, differenced against `pre` -----------
        let pre_diags = lints.take().unwrap_or_else(|| lint_module(pre, mgr));
        let pre_keys: HashSet<String> = pre_diags.iter().map(diag_key).collect();
        let post_diags = lints.insert(lint_module(post, mgr));
        let mut fresh: Vec<Diagnostic> = post_diags
            .iter()
            .filter(|d| d.severity >= Severity::Warning && !pre_keys.contains(&diag_key(d)))
            .cloned()
            .collect();
        if fresh.iter().any(|d| d.code == codes::VERIFY) {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.diagnostics
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        sort_report(&mut fresh);
        verdict.diagnostics = fresh;

        // -- layer 2: symbolic translation validation -----------------------
        // static proof first; a confirmed refutation short-circuits, a
        // fully proved module skips differential execution entirely, and
        // anything inconclusive escalates to the dynamic fallback below
        let mut run_diff = self.level == SanitizeLevel::Full;
        if self.level == SanitizeLevel::Validate {
            let mv = validate_transform_with(pre, post, &self.validate_cfg, mgr);
            self.validate_proved
                .fetch_add(mv.proved() as u64, Ordering::Relaxed);
            self.validate_refuted
                .fetch_add(mv.refuted() as u64, Ordering::Relaxed);
            self.validate_inconclusive
                .fetch_add(mv.inconclusive() as u64, Ordering::Relaxed);
            if let Some((_, cex)) = mv.first_refutation() {
                self.miscompiles.fetch_add(1, Ordering::Relaxed);
                let baseline = run_entry(pre, &cex.entry, &cex.args);
                let repro = match reapply {
                    Some(re) if baseline.result.is_ok() => {
                        reduce(pre, &cex.entry, &cex.args, &baseline, re)
                    }
                    _ => pre.clone(),
                };
                verdict.miscompile = Some(MiscompileReport {
                    pass: pass.to_string(),
                    entry: cex.entry.clone(),
                    args: cex.args.iter().map(render_rtval).collect(),
                    before: cex.src_obs.clone(),
                    after: cex.tgt_obs.clone(),
                    repro_insts: repro.num_insts(),
                    repro: print_module(&repro),
                });
                return verdict;
            }
            run_diff = !mv.all_proved();
        }

        // -- layer 3: differential execution --------------------------------
        if run_diff {
            if let Some((entry, args)) = diff_entry(pre) {
                self.diff_execs.fetch_add(1, Ordering::Relaxed);
                let before = run_entry(pre, &entry, &args);
                // UB contract: a trapping or diverging pre-module may be
                // refined arbitrarily by a pass
                if before.result.is_ok() {
                    let after = run_entry(post, &entry, &args);
                    if before != after {
                        self.miscompiles.fetch_add(1, Ordering::Relaxed);
                        let repro = match reapply {
                            Some(re) => reduce(pre, &entry, &args, &before, re),
                            None => pre.clone(),
                        };
                        verdict.miscompile = Some(MiscompileReport {
                            pass: pass.to_string(),
                            entry,
                            args: args.iter().map(render_rtval).collect(),
                            before: render_observation(&before),
                            after: render_observation(&after),
                            repro_insts: repro.num_insts(),
                            repro: print_module(&repro),
                        });
                    }
                }
            }
        }
        verdict
    }
}

/// Panicking verification entry point: the single choke point for "this
/// module must be well-formed here" assertions across the workspace.
pub fn expect_verified(m: &Module, context: &str) {
    if let Err(e) = verify_module(m) {
        panic!("IR verification failed ({context}): {e}");
    }
}

/// Verifier + lint suite as one diagnostic list.
fn lint_module(m: &Module, mgr: Option<&IncrementalAnalysisManager>) -> Vec<Diagnostic> {
    match verify_module(m) {
        Ok(()) => run_all(&ModuleAnalyses::new(m, mgr)),
        // a structurally broken module makes the dataflow analyses
        // meaningless; report only the verifier finding
        Err(e) => vec![Diagnostic {
            code: codes::VERIFY,
            severity: Severity::Error,
            loc: e.loc.clone(),
            message: e.message.clone(),
        }],
    }
}

/// Location-independent identity of a diagnostic, used to difference the
/// post-pass report against the pre-pass one. Instruction ids shift as
/// passes rewrite code, so the key uses function + code + message only.
fn diag_key(d: &Diagnostic) -> String {
    format!(
        "{}|{}|{}",
        d.loc.func.as_deref().unwrap_or(""),
        d.code,
        d.message
    )
}

/// Picks the entry function and seeded arguments for differential
/// execution: `main` when defined, otherwise the first function body.
/// Returns `None` when no suitable entry exists or a parameter is a
/// pointer (no meaningful seed exists without an allocation protocol).
pub(crate) fn diff_entry(m: &Module) -> Option<(String, Vec<RtVal>)> {
    let fid = m
        .func_by_name("main")
        .filter(|&id| !m.func(id).unwrap().is_decl)
        .or_else(|| m.func_ids().find(|&id| !m.func(id).unwrap().is_decl))?;
    let f = m.func(fid).unwrap();
    let mut args = Vec::with_capacity(f.params.len());
    for (i, &p) in f.params.iter().enumerate() {
        let seed = i as i64 + 2;
        match p {
            Ty::Ptr => return None,
            Ty::F64 => args.push(RtVal::Float(seed as f64 * 0.5)),
            Ty::Void => return None,
            _ => args.push(RtVal::Int(seed)),
        }
    }
    Some((f.name.clone(), args))
}

/// Interpreter fuel of every differential run, so a pathological
/// workload cannot stall the engine.
const DIFF_FUEL: u64 = 2_000_000;

/// Wall-clock deadline of one delta-reduction loop.
const REDUCE_DEADLINE: Duration = Duration::from_millis(30_000);

fn run_entry(m: &Module, entry: &str, args: &[RtVal]) -> Observation {
    let config = InterpConfig {
        fuel: DIFF_FUEL,
        ..InterpConfig::default()
    };
    Interpreter::with_config(m, config)
        .run(entry, args)
        .observation()
}

fn render_rtval(v: &RtVal) -> String {
    match v {
        RtVal::Int(i) => format!("{i}"),
        RtVal::Float(f) => format!("{f:?}"),
        RtVal::Ptr(_) => "<ptr>".to_string(),
        RtVal::Undef => "undef".to_string(),
    }
}

fn render_observation(o: &Observation) -> String {
    let result = match &o.result {
        Ok(Some(v)) => format!("ret {v:?}"),
        Ok(None) => "ret void".to_string(),
        Err(e) => format!("trap: {e}"),
    };
    format!("{result}, {} external calls", o.trace.len())
}

/// `true` when `candidate` still reproduces the divergence: it verifies,
/// the entry still runs cleanly to the same observation as the original
/// pre-module, and re-applying the pass still changes that observation.
fn still_reproduces(
    candidate: &Module,
    entry: &str,
    args: &[RtVal],
    baseline: &Observation,
    reapply: Reapply<'_>,
) -> bool {
    if verify_module(candidate).is_err() {
        return false;
    }
    let before = run_entry(candidate, entry, args);
    if before.result.is_err() || before != *baseline {
        return false;
    }
    let Some(post) = reapply(candidate) else {
        return false;
    };
    run_entry(&post, entry, args) != before
}

/// Greedy delta reduction: repeatedly tries to drop functions, globals and
/// individual unused pure instructions while the candidate keeps
/// reproducing, bounded by [`MAX_REDUCTION_ATTEMPTS`] predicate runs *and*
/// a wall-clock deadline. When either budget runs out the current (still
/// reproducing, possibly unreduced) module is emitted as-is.
fn reduce(
    pre: &Module,
    entry: &str,
    args: &[RtVal],
    baseline: &Observation,
    reapply: Reapply<'_>,
) -> Module {
    let mut current = pre.clone();
    let mut budget = MAX_REDUCTION_ATTEMPTS;
    let deadline = Instant::now() + REDUCE_DEADLINE;
    loop {
        let mut progressed = false;

        // drop whole functions (except the entry)
        for fid in current.func_ids().collect::<Vec<_>>() {
            if budget == 0 || Instant::now() >= deadline {
                return current;
            }
            if current.func(fid).map(|f| f.name == entry).unwrap_or(true) {
                continue;
            }
            let mut candidate = current.clone();
            candidate.remove_function(fid);
            budget -= 1;
            if still_reproduces(&candidate, entry, args, baseline, reapply) {
                current = candidate;
                progressed = true;
            }
        }

        // drop globals
        for gid in current.global_ids().collect::<Vec<_>>() {
            if budget == 0 || Instant::now() >= deadline {
                return current;
            }
            let mut candidate = current.clone();
            candidate.remove_global(gid);
            budget -= 1;
            if still_reproduces(&candidate, entry, args, baseline, reapply) {
                current = candidate;
                progressed = true;
            }
        }

        // drop unused pure instructions, one at a time
        for fid in current.func_ids().collect::<Vec<_>>() {
            let f = current.func(fid).unwrap();
            if f.is_decl {
                continue;
            }
            let uses = f.uses();
            let removable: Vec<_> = f
                .inst_ids()
                .into_iter()
                .filter(|&id| {
                    let op = f.op(id);
                    op.is_pure()
                        && !op.is_terminator()
                        && uses.get(&id).map(Vec::is_empty).unwrap_or(true)
                })
                .collect();
            for id in removable {
                if budget == 0 || Instant::now() >= deadline {
                    return current;
                }
                let mut candidate = current.clone();
                candidate.func_mut(fid).unwrap().remove_inst(id);
                budget -= 1;
                if still_reproduces(&candidate, entry, args, baseline, reapply) {
                    current = candidate;
                    progressed = true;
                }
            }
        }

        if !progressed {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::{BinOp, Function, Op, Ty, Value};

    /// `main() -> i64 { return 2 + 3 }`
    fn good_module() -> Module {
        let mut m = Module::new("m");
        let mut f = Function::new("main", vec![], Ty::I64);
        let e = f.entry;
        let s = f.append_inst(
            e,
            Op::Bin {
                op: BinOp::Add,
                ty: Ty::I64,
                lhs: Value::i64(2),
                rhs: Value::i64(3),
            },
        );
        f.append_inst(
            e,
            Op::Ret {
                val: Some(Value::Inst(s)),
            },
        );
        m.add_function(f);
        m
    }

    /// Flips the returned constant: observably different from `good_module`.
    fn miscompiled_module() -> Module {
        let mut m = Module::new("m");
        let mut f = Function::new("main", vec![], Ty::I64);
        f.append_inst(
            f.entry,
            Op::Ret {
                val: Some(Value::i64(41)),
            },
        );
        m.add_function(f);
        m
    }

    #[test]
    fn level_parse_round_trips_and_rejects_garbage() {
        for level in [
            SanitizeLevel::Off,
            SanitizeLevel::Verify,
            SanitizeLevel::Validate,
            SanitizeLevel::Full,
        ] {
            assert_eq!(SanitizeLevel::parse(level.name()), Ok(level));
        }
        assert_eq!(SanitizeLevel::parse("none"), Ok(SanitizeLevel::Off));
        let e = SanitizeLevel::parse("fuzz").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("fuzz") && msg.contains("validate"), "{msg}");
    }

    #[test]
    fn off_level_is_a_no_op() {
        let san = Sanitizer::new(SanitizeLevel::Off);
        let m = good_module();
        let bad = miscompiled_module();
        let v = san.check_transform("p", &m, &bad, None, None, &mut None);
        assert!(!v.is_fatal());
        assert_eq!(san.stats().checks, 0);
    }

    #[test]
    fn identity_transform_is_clean_at_full() {
        let san = Sanitizer::new(SanitizeLevel::Full);
        let m = good_module();
        let v = san.check_transform("noop", &m, &m.clone(), None, None, &mut None);
        assert!(!v.is_fatal(), "{}", v.render());
        let st = san.stats();
        assert_eq!(st.checks, 1);
        assert_eq!(st.diff_execs, 1);
        assert_eq!(st.miscompiles, 0);
    }

    #[test]
    fn observable_change_is_a_fatal_miscompile() {
        let san = Sanitizer::new(SanitizeLevel::Full);
        let m = good_module();
        let bad = miscompiled_module();
        let v = san.check_transform("evil", &m, &bad, None, None, &mut None);
        assert!(v.is_fatal());
        let mc = v.miscompile.expect("miscompile detected");
        assert_eq!(mc.entry, "main");
        assert!(mc.before.contains("Int(5)"), "{}", mc.before);
        assert!(mc.after.contains("Int(41)"), "{}", mc.after);
        assert_eq!(san.stats().miscompiles, 1);
        // JSON artifact round-trips through serde_json
        assert!(mc.to_json().contains("\"pass\":\"evil\""));
    }

    #[test]
    fn verify_level_skips_differential_execution() {
        let san = Sanitizer::new(SanitizeLevel::Verify);
        let m = good_module();
        let bad = miscompiled_module();
        let v = san.check_transform("evil", &m, &bad, None, None, &mut None);
        // both modules verify and lint clean, and no execution happens
        assert!(!v.is_fatal(), "{}", v.render());
        assert_eq!(san.stats().diff_execs, 0);
    }

    #[test]
    fn broken_post_module_fails_verification_layer() {
        let san = Sanitizer::new(SanitizeLevel::Verify);
        let m = good_module();
        let mut bad = m.clone();
        // orphan the terminator: remove the ret so the block is malformed
        let fid = bad.func_by_name("main").unwrap();
        let f = bad.func_mut(fid).unwrap();
        let ret = f.terminator(f.entry).unwrap();
        f.remove_inst(ret);
        let v = san.check_transform("breaker", &m, &bad, None, None, &mut None);
        assert!(v.is_fatal(), "{}", v.render());
        assert!(v.diagnostics.iter().any(|d| d.code == codes::VERIFY));
        assert_eq!(san.stats().verify_failures, 1);
    }

    #[test]
    fn preexisting_findings_do_not_indict_a_pass() {
        // a module with a pre-existing warning (uninit load) stays
        // non-fatal when the pass leaves that finding untouched
        let mut m = Module::new("m");
        let mut f = Function::new("main", vec![], Ty::I64);
        let e = f.entry;
        let a = f.append_inst(
            e,
            Op::Alloca {
                ty: Ty::I64,
                count: 1,
            },
        );
        let l = f.append_inst(
            e,
            Op::Load {
                ty: Ty::I64,
                ptr: Value::Inst(a),
            },
        );
        f.append_inst(
            e,
            Op::Ret {
                val: Some(Value::Inst(l)),
            },
        );
        m.add_function(f);
        let san = Sanitizer::new(SanitizeLevel::Verify);
        let v = san.check_transform("noop", &m, &m.clone(), None, None, &mut None);
        assert!(!v.is_fatal(), "{}", v.render());
        assert!(v.diagnostics.is_empty(), "{:?}", v.diagnostics);
    }

    #[test]
    fn delta_reduction_shrinks_the_repro() {
        // module: main plus two unrelated helper functions and a global;
        // the "pass" rewrites main's ret constant, so everything else can
        // be reduced away
        let mut m = good_module();
        m.add_function(Function::new_decl("helper1", vec![Ty::I64], Ty::I64));
        m.add_function(Function::new_decl("helper2", vec![], Ty::Void));
        let evil = |input: &Module| -> Option<Module> {
            let mut out = input.clone();
            let fid = out.func_by_name("main")?;
            let f = out.func_mut(fid)?;
            let ret = f.terminator(f.entry)?;
            if let Some(inst) = f.inst_mut(ret) {
                inst.op = Op::Ret {
                    val: Some(Value::i64(0)),
                };
            }
            Some(out)
        };
        let san = Sanitizer::new(SanitizeLevel::Full);
        let post = evil(&m).unwrap();
        let v = san.check_transform("evil", &m, &post, Some(&evil), None, &mut None);
        let mc = v.miscompile.expect("detected");
        // helpers reduced away; the add feeding the original ret is dead
        // after the rewrite and may or may not be removable, but function
        // count must be down to just main
        assert!(
            !mc.repro.contains("helper1") && !mc.repro.contains("helper2"),
            "{}",
            mc.repro
        );
        assert!(mc.repro.contains("main"), "{}", mc.repro);
    }

    #[test]
    fn expect_verified_accepts_good_modules() {
        expect_verified(&good_module(), "unit test");
    }

    #[test]
    #[should_panic(expected = "IR verification failed")]
    fn expect_verified_panics_on_broken_modules() {
        let mut m = good_module();
        let fid = m.func_by_name("main").unwrap();
        let f = m.func_mut(fid).unwrap();
        let ret = f.terminator(f.entry).unwrap();
        f.remove_inst(ret);
        expect_verified(&m, "unit test");
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = SanitizerStats {
            checks: 1,
            module_checks: 2,
            verify_failures: 3,
            diagnostics: 4,
            diff_execs: 5,
            miscompiles: 6,
            validate_proved: 7,
            validate_refuted: 8,
            validate_inconclusive: 9,
        };
        a.merge(&a.clone());
        assert_eq!(a.checks, 2);
        assert_eq!(a.miscompiles, 12);
        assert_eq!(a.validate_proved, 14);
        assert_eq!(a.validate_inconclusive, 18);
        assert!(a.render().contains("miscompiles=12"));
        assert!(a.render().contains("validate=14p/16r/18i"));
    }

    #[test]
    fn validate_level_proves_identity_without_executing() {
        let san = Sanitizer::new(SanitizeLevel::Validate);
        let m = good_module();
        let v = san.check_transform("noop", &m, &m.clone(), None, None, &mut None);
        assert!(!v.is_fatal(), "{}", v.render());
        let st = san.stats();
        assert_eq!(st.validate_proved, 1);
        assert_eq!(st.validate_refuted, 0);
        assert_eq!(st.validate_inconclusive, 0);
        // the static proof makes differential execution unnecessary
        assert_eq!(st.diff_execs, 0);
    }

    #[test]
    fn validate_level_refutes_observable_change() {
        let san = Sanitizer::new(SanitizeLevel::Validate);
        let m = good_module();
        let bad = miscompiled_module();
        let v = san.check_transform("evil", &m, &bad, None, None, &mut None);
        assert!(v.is_fatal());
        let mc = v.miscompile.expect("refutation becomes a miscompile");
        assert_eq!(mc.entry, "main");
        assert!(mc.before.contains("Int(5)"), "{}", mc.before);
        assert!(mc.after.contains("Int(41)"), "{}", mc.after);
        let st = san.stats();
        assert_eq!(st.validate_refuted, 1);
        assert_eq!(st.miscompiles, 1);
    }
}
