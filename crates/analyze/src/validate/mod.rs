//! Symbolic translation validation (Alive2-style refinement checking).
//!
//! Given a *(source, optimized)* module pair, the validator proves — for
//! **all** inputs, not just the ones the diff-executor happens to run —
//! that every defined behaviour of the optimized code is a defined
//! behaviour of the source, including undef and trap refinement:
//!
//! 1. [`term`] — a hash-consed bitvector/bool term language whose
//!    constant folding is delegated to the reference interpreter's own
//!    `eval_bin`/`eval_cast_src`, so the term algebra cannot diverge
//!    from the executable semantics.
//! 2. [`exec`] — a symbolic executor that turns SSA into a term DAG
//!    with path conditions, carrying a *(value, undef)* pair per scalar
//!    and a deferred-UB condition per path; loops are unrolled up to a
//!    configurable bound with an explicit `Inconclusive` beyond it.
//! 3. [`bitblast`] — Tseitin lowering of the refinement obligation to
//!    CNF (ripple-carry adders, barrel shifters, signed comparators;
//!    `sdiv`/`srem` and floats stay uninterpreted).
//! 4. [`sat`] — a clean-room CDCL core (two-watched literals, 1-UIP
//!    learning, VSIDS, restarts) with a conflict budget.
//! 5. [`refine`] — the driver: builds the violation formula, discharges
//!    it, and replays every satisfying model through the reference
//!    interpreter; only an interpreter-confirmed counterexample yields
//!    `Refuted`, everything unprovable-but-unconfirmed stays
//!    `Inconclusive` (and escalates to the dynamic diff-execution
//!    fallback in the sanitizer).
//!
//! The escalation ladder is: structural equality → symbolic proof →
//! SAT counterexample + interpreter replay → dynamic diff-execution.
//! See DESIGN.md §10 for the refinement relation and per-opcode
//! undef/trap rules.

pub mod bitblast;
pub mod canon;
pub mod exec;
pub mod refine;
pub mod sat;
pub mod term;

pub use refine::{
    validate_transform, validate_transform_with, Counterexample, FuncVerdict, ModuleValidation,
    Verdict,
};

/// Budgets for one validation problem, env-tunable via
/// `POSETRL_VALIDATE_*`; the defaults are sized for the generated
/// workload corpus (concrete trip counts ≤ 24, arrays ≤ 64 cells).
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Maximum number of path forks across one function execution.
    pub max_paths: usize,
    /// Maximum visits of a single block per path (the unrolling bound k).
    pub max_block_visits: u32,
    /// Maximum symbolically executed instructions per function pair.
    pub max_steps: u64,
    /// Maximum source×target path pairs in the mismatch obligation.
    pub max_path_pairs: usize,
    /// CNF clause budget for the bit-blaster.
    pub max_clauses: usize,
    /// Conflict budget for the SAT core.
    pub max_conflicts: u64,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig {
            max_paths: 64,
            max_block_visits: 640,
            max_steps: 100_000,
            max_path_pairs: 512,
            max_clauses: 120_000,
            max_conflicts: 8_000,
        }
    }
}

/// A `POSETRL_*` environment knob whose value failed to parse.
///
/// An unset knob means "use the default"; a *malformed* knob is a user
/// error and must never be silently ignored — the CLIs turn this into a
/// usage-level exit, the engine hot paths report it on stderr and fall
/// back to the default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The environment variable that was set.
    pub key: &'static str,
    /// The value that failed to parse.
    pub value: String,
}

impl std::fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}='{}': expected an unsigned integer",
            self.key, self.value
        )
    }
}

impl std::error::Error for EnvParseError {}

/// Parses one budget knob: `None` (unset) yields the default, anything
/// set must parse. Pure over `raw` so unit tests never race on the
/// process environment.
pub fn parse_env_budget<T: std::str::FromStr>(
    key: &'static str,
    raw: Option<&str>,
    dflt: T,
) -> Result<T, EnvParseError> {
    match raw {
        None => Ok(dflt),
        Some(s) => s.trim().parse().map_err(|_| EnvParseError {
            key,
            value: s.to_string(),
        }),
    }
}

/// [`parse_env_budget`] over the process environment with CLI/test
/// error handling: a malformed knob prints the structured error and
/// exits with [`crate::exit_codes::USAGE`], so every harness that reads
/// a numeric `POSETRL_*` variable reports bad values the same way
/// instead of silently falling back to the default.
pub fn env_budget_or_usage<T: std::str::FromStr>(key: &'static str, dflt: T) -> T {
    match parse_env_budget(key, std::env::var(key).ok().as_deref(), dflt) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(crate::exit_codes::USAGE);
        }
    }
}

impl ValidateConfig {
    /// Reads the budgets through `lookup` (`POSETRL_VALIDATE_PATHS`,
    /// `_UNROLL`, `_STEPS`, `_PAIRS`, `_CLAUSES`, `_CONFLICTS`). Unset
    /// knobs fall back to the defaults; malformed knobs are a structured
    /// error.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, EnvParseError> {
        let d = ValidateConfig::default();
        macro_rules! get {
            ($key:literal, $dflt:expr) => {
                parse_env_budget($key, lookup($key).as_deref(), $dflt)?
            };
        }
        Ok(ValidateConfig {
            max_paths: get!("POSETRL_VALIDATE_PATHS", d.max_paths),
            max_block_visits: get!("POSETRL_VALIDATE_UNROLL", d.max_block_visits),
            max_steps: get!("POSETRL_VALIDATE_STEPS", d.max_steps),
            max_path_pairs: get!("POSETRL_VALIDATE_PAIRS", d.max_path_pairs),
            max_clauses: get!("POSETRL_VALIDATE_CLAUSES", d.max_clauses),
            max_conflicts: get!("POSETRL_VALIDATE_CONFLICTS", d.max_conflicts),
        })
    }

    /// [`ValidateConfig::from_vars`] over the process environment.
    pub fn try_from_env() -> Result<Self, EnvParseError> {
        Self::from_vars(|k| std::env::var(k).ok())
    }

    /// Like [`ValidateConfig::try_from_env`], but for callers that cannot
    /// propagate the error (the engine hot paths): malformed knobs are
    /// reported on stderr and the defaults are used instead. CLIs should
    /// prefer `try_from_env` and exit with a usage error.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| {
            eprintln!("posetrl-analyze: {e}; using the default budgets");
            ValidateConfig::default()
        })
    }
}

#[cfg(test)]
mod env_tests {
    use super::*;

    #[test]
    fn unset_knobs_yield_the_defaults() {
        let cfg = ValidateConfig::from_vars(|_| None).unwrap();
        let d = ValidateConfig::default();
        assert_eq!(cfg.max_paths, d.max_paths);
        assert_eq!(cfg.max_block_visits, d.max_block_visits);
        assert_eq!(cfg.max_steps, d.max_steps);
        assert_eq!(cfg.max_conflicts, d.max_conflicts);
    }

    #[test]
    fn well_formed_knobs_override_their_field_only() {
        let cfg =
            ValidateConfig::from_vars(|k| (k == "POSETRL_VALIDATE_PATHS").then(|| "7".to_string()))
                .unwrap();
        assert_eq!(cfg.max_paths, 7);
        assert_eq!(cfg.max_steps, ValidateConfig::default().max_steps);
    }

    #[test]
    fn malformed_knob_is_a_structured_error() {
        let e = ValidateConfig::from_vars(|k| {
            (k == "POSETRL_VALIDATE_STEPS").then(|| "lots".to_string())
        })
        .unwrap_err();
        assert_eq!(e.key, "POSETRL_VALIDATE_STEPS");
        assert_eq!(e.value, "lots");
        let msg = e.to_string();
        assert!(
            msg.contains("POSETRL_VALIDATE_STEPS") && msg.contains("lots"),
            "{msg}"
        );
    }

    #[test]
    fn negative_and_empty_budgets_are_rejected() {
        assert!(ValidateConfig::from_vars(|k| {
            (k == "POSETRL_VALIDATE_CLAUSES").then(|| "-3".to_string())
        })
        .is_err());
        assert!(ValidateConfig::from_vars(|k| {
            (k == "POSETRL_VALIDATE_PAIRS").then(String::new)
        })
        .is_err());
    }

    #[test]
    fn surrounding_whitespace_is_tolerated() {
        let cfg = ValidateConfig::from_vars(|k| {
            (k == "POSETRL_VALIDATE_UNROLL").then(|| " 12 ".to_string())
        })
        .unwrap();
        assert_eq!(cfg.max_block_visits, 12);
    }
}
