//! Pass registry and pipeline execution.

use crate::passes;
use crate::Pass;
use posetrl_analyze::{IncrementalAnalysisManager, Sanitizer, TransformVerdict};
use posetrl_ir::{module_hash, Module};
use std::collections::BTreeMap;
use std::fmt;

/// Error returned when a pipeline names a pass that is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPassError {
    /// The unknown name.
    pub name: String,
}

impl fmt::Display for UnknownPassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown pass '{}'", self.name)
    }
}

impl std::error::Error for UnknownPassError {}

/// Why a sanitized pipeline stopped.
#[derive(Debug)]
pub enum PipelineError {
    /// A pipeline entry named an unregistered pass.
    UnknownPass(UnknownPassError),
    /// A pass failed sanitization (verifier break, newly introduced
    /// error-severity lint, or an observation mismatch).
    Sanitizer {
        /// The offending pass.
        pass: String,
        /// The full verdict, including any delta-reduced miscompile repro.
        verdict: Box<TransformVerdict>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownPass(e) => e.fmt(f),
            PipelineError::Sanitizer { verdict, .. } => f.write_str(&verdict.render()),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<UnknownPassError> for PipelineError {
    fn from(e: UnknownPassError) -> PipelineError {
        PipelineError::UnknownPass(e)
    }
}

/// Applies passes and pipelines by name, mirroring LLVM's `opt` tool.
///
/// Names accept an optional leading `-` so that sequences copied verbatim
/// from the paper's tables (`-simplifycfg -sroa ...`) work unchanged.
pub struct PassManager {
    registry: BTreeMap<&'static str, Box<dyn Pass + Send + Sync>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.registry.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates a manager with every pass in this crate registered.
    pub fn new() -> PassManager {
        let mut registry: BTreeMap<&'static str, Box<dyn Pass + Send + Sync>> = BTreeMap::new();
        for pass in passes::all_passes() {
            registry.insert(pass.name(), pass);
        }
        PassManager { registry }
    }

    /// The sorted list of registered pass names.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.registry.keys().copied().collect()
    }

    /// Returns `true` if `name` (with or without a leading `-`) is registered.
    pub fn has_pass(&self, name: &str) -> bool {
        self.registry.contains_key(name.trim_start_matches('-'))
    }

    /// Runs a single pass by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPassError`] if the name is not registered.
    pub fn run_pass(&self, module: &mut Module, name: &str) -> Result<bool, UnknownPassError> {
        let key = name.trim_start_matches('-');
        match self.registry.get(key) {
            Some(pass) => Ok(pass.run(module)),
            None => Err(UnknownPassError {
                name: name.to_string(),
            }),
        }
    }

    /// Runs a sequence of passes in order; returns `true` if any changed the
    /// module.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPassError`] on the first unknown name (passes before
    /// it will already have run).
    pub fn run_pipeline<S: AsRef<str>>(
        &self,
        module: &mut Module,
        names: &[S],
    ) -> Result<bool, UnknownPassError> {
        let mut changed = false;
        for name in names {
            changed |= self.run_pass(module, name.as_ref())?;
        }
        Ok(changed)
    }

    /// Runs a pipeline under a [`Sanitizer`]: after every pass that
    /// actually changed the module (compared by hash, so a pass cannot
    /// mis-report), the sanitizer re-verifies, re-lints and — at level
    /// `full` — differentially executes the module. Non-fatal findings
    /// are counted in the sanitizer's statistics. Returns `true` if any
    /// pass changed the module. `mgr`, when given, memoizes the
    /// sanitizer's lints, analyses and validate obligations.
    ///
    /// Each module state is linted once: the first changed pass's
    /// pre-state, then every post-state, whose report is the next check's
    /// pre-state report. A pass that leaves the hash unchanged is taken to
    /// leave the report unchanged too; the only such edit seen, `inferattrs`
    /// setting attributes on declarations, is invisible to the lint suite,
    /// which reads no attributes.
    ///
    /// With a disabled sanitizer this is [`run_pipeline`].
    ///
    /// # Errors
    ///
    /// - [`PipelineError::UnknownPass`] on the first unknown name;
    /// - [`PipelineError::Sanitizer`] when a pass breaks verification,
    ///   introduces an error-severity finding, or changes observable
    ///   behaviour. The module is left in its post-failure state so
    ///   callers can dump it.
    ///
    /// [`run_pipeline`]: PassManager::run_pipeline
    pub fn run_pipeline_sanitized<S: AsRef<str>>(
        &self,
        module: &mut Module,
        names: &[S],
        san: &Sanitizer,
        mgr: Option<&IncrementalAnalysisManager>,
    ) -> Result<bool, PipelineError> {
        if !san.enabled() {
            return Ok(self.run_pipeline(module, names)?);
        }
        let mut changed = false;
        let mut hash = module_hash(module);
        let mut lints = None;
        for name in names {
            let name = name.as_ref();
            let pre = module.clone();
            self.run_pass(module, name)?;
            let pre_hash = std::mem::replace(&mut hash, module_hash(module));
            if pre_hash == hash {
                continue;
            }
            changed = true;
            let reapply = |input: &Module| -> Option<Module> {
                let mut out = input.clone();
                self.run_pass(&mut out, name).ok().map(|_| out)
            };
            let verdict = san.check_transform(name, &pre, module, Some(&reapply), mgr, &mut lints);
            if verdict.is_fatal() {
                return Err(PipelineError::Sanitizer {
                    pass: name.to_string(),
                    verdict: Box::new(verdict),
                });
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    #[test]
    fn registry_contains_every_oz_pass_name() {
        let pm = PassManager::new();
        // The unique pass names of LLVM 10's Oz sequence (Table I).
        let oz_unique = [
            "ee-instrument",
            "simplifycfg",
            "sroa",
            "early-cse",
            "lower-expect",
            "forceattrs",
            "inferattrs",
            "ipsccp",
            "called-value-propagation",
            "attributor",
            "globalopt",
            "mem2reg",
            "deadargelim",
            "instcombine",
            "prune-eh",
            "inline",
            "functionattrs",
            "early-cse-memssa",
            "speculative-execution",
            "jump-threading",
            "correlated-propagation",
            "loop-simplify",
            "lcssa",
            "loop-rotate",
            "licm",
            "loop-unswitch",
            "tailcallelim",
            "reassociate",
            "indvars",
            "loop-idiom",
            "loop-deletion",
            "loop-unroll",
            "mldst-motion",
            "gvn",
            "memcpyopt",
            "sccp",
            "bdce",
            "dse",
            "adce",
            "barrier",
            "elim-avail-extern",
            "rpo-functionattrs",
            "globaldce",
            "float2int",
            "lower-constant-intrinsics",
            "loop-distribute",
            "loop-vectorize",
            "loop-load-elim",
            "alignment-from-assumptions",
            "strip-dead-prototypes",
            "constmerge",
            "loop-sink",
            "instsimplify",
            "div-rem-pairs",
        ];
        for name in oz_unique {
            assert!(pm.has_pass(name), "missing pass: {name}");
        }
    }

    #[test]
    fn unknown_pass_is_an_error() {
        let pm = PassManager::new();
        let mut m = Module::new("m");
        let e = pm.run_pass(&mut m, "-frobnicate").unwrap_err();
        assert_eq!(e.name, "-frobnicate");
    }

    #[test]
    fn sanitized_pipeline_checks_only_changing_passes() {
        use posetrl_analyze::{SanitizeLevel, Sanitizer};
        let pm = PassManager::new();
        let mut m = parse_module(
            r#"
module "m"
fn @main() -> i64 internal {
bb0:
  %p = alloca i64 x 1
  store i64 7:i64, %p
  %v = load i64, %p
  ret %v
}
"#,
        )
        .unwrap();
        let san = Sanitizer::new(SanitizeLevel::Full);
        let changed = pm
            .run_pipeline_sanitized(&mut m, &["mem2reg", "barrier"], &san, None)
            .expect("clean pipeline sanitizes");
        assert!(changed, "mem2reg rewrites the allocas");
        assert_eq!(san.stats().checks, 1, "the no-op barrier is not checked");
        assert_eq!(san.stats().miscompiles, 0);
        let changed = pm
            .run_pipeline_sanitized(&mut m, &["barrier"], &san, None)
            .unwrap();
        assert!(!changed, "barrier is a no-op");
        assert_eq!(san.stats().checks, 1);
    }

    #[test]
    fn sanitized_pipeline_with_off_sanitizer_matches_plain_run() {
        use posetrl_analyze::{SanitizeLevel, Sanitizer};
        let pm = PassManager::new();
        let text = r#"
module "m"
fn @main() -> i64 internal {
bb0:
  %p = alloca i64 x 1
  store i64 7:i64, %p
  %v = load i64, %p
  ret %v
}
"#;
        let mut a = parse_module(text).unwrap();
        let mut b = parse_module(text).unwrap();
        let san = Sanitizer::new(SanitizeLevel::Off);
        pm.run_pipeline_sanitized(&mut a, &["mem2reg", "instcombine"], &san, None)
            .unwrap();
        pm.run_pipeline(&mut b, &["mem2reg", "instcombine"])
            .unwrap();
        use posetrl_ir::printer::print_module;
        assert_eq!(print_module(&a), print_module(&b));
        assert_eq!(san.stats().checks, 0);
    }

    #[test]
    fn sanitized_pipeline_reports_unknown_pass() {
        use posetrl_analyze::{SanitizeLevel, Sanitizer};
        let pm = PassManager::new();
        let mut m = Module::new("m");
        let san = Sanitizer::new(SanitizeLevel::Verify);
        let err = pm
            .run_pipeline_sanitized(&mut m, &["-frobnicate"], &san, None)
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnknownPass(_)), "{err}");
    }
}
