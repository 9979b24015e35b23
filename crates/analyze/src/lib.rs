//! Dataflow-based IR sanitizer for the POSET-RL reproduction.
//!
//! POSET-RL's phase-ordering agent applies long, learned sequences of
//! optimization passes; the paper implicitly trusts every pass. This crate
//! removes that trust boundary with three layers:
//!
//! - a generic worklist fixpoint **dataflow engine** ([`dataflow`]) over
//!   the IR's CFG, parameterized by a join-semilattice domain and a
//!   direction;
//! - a **lint suite** ([`analyses`]) built on it: dominance-aware SSA
//!   use-before-def, undef/poison propagation, constant-memory bounds and
//!   mutability checks, uninitialized-stack-load detection,
//!   unreachable/dead-code notes and call-boundary type consistency;
//! - a **pass-pipeline sanitizer** ([`sanitizer`]) that re-runs the suite
//!   after every applied pass, differentially executes the pre/post
//!   modules in the reference interpreter and, on an observation mismatch,
//!   emits a delta-reduced minimal reproducer as a JSON artifact;
//! - a **symbolic translation validator** ([`validate`]) that statically
//!   proves individual pass applications correct for *all* inputs
//!   (Alive2-style refinement: term language → symbolic execution →
//!   bit-blasting → CDCL SAT, with interpreter-confirmed
//!   counterexamples), wired in as the `validate` sanitizer level.
//!
//! The `mini-analyze` binary exposes the suite over `.pir` files and the
//! generated workload corpora for CI. The lint-producing analyses
//! (absint, alias, scev, depend) are chained in one place,
//! [`ModuleAnalyses`], which computes each of them at most once per
//! module, and are listed once in [`suite::ANALYSES`], which the CLI, the
//! golden and sweep harnesses and the census read.

pub mod absint;
pub mod alias;
pub mod analyses;
pub mod bundle;
mod callgraph;
pub mod dataflow;
pub mod depend;
pub mod diag;
pub mod exit_codes;
pub mod incremental;
pub mod memo;
pub mod profile;
pub mod sanitizer;
pub mod scev;
pub mod suite;
pub mod validate;

pub use absint::{FnSummary, FuncFacts, ModuleAbsint};
pub use alias::{
    memdep::MemDep, AliasFnResult, FnAliasSummary, FuncAlias, MemObj, ModuleAlias, PtsSet,
};
pub use analyses::run_all;
pub use bundle::ModuleAnalyses;
pub use dataflow::{solve, BitSet, DataflowAnalysis, Direction, Fixpoint, JoinSemiLattice};
pub use depend::{DepKind, DependFnResult, Dependence, LoopDepend, ModuleDepend};
pub use diag::{codes, Diagnostic, Severity};
pub use incremental::{IncrementalAnalysisManager, IncrementalStats};
pub use memo::{ClassStats, Memo};
pub use profile::{FnProfile, ModuleProfile};
pub use sanitizer::{
    expect_verified, MiscompileReport, ParseLevelError, SanitizeLevel, Sanitizer, SanitizerStats,
    TransformVerdict,
};
pub use scev::{AddRec, LoopScev, ModuleScev, ScevConfig, ScevFnResult, TripCount};
pub use validate::{
    env_budget_or_usage, parse_env_budget, validate_transform, validate_transform_with,
    EnvParseError, ModuleValidation, ValidateConfig, Verdict,
};
