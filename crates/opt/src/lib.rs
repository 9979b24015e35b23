//! Optimization passes for the POSET-RL mini-IR.
//!
//! This crate reimplements, at mini-IR scale, every transformation pass that
//! appears in LLVM 10's `-Oz` pipeline (Table I of the POSET-RL paper), plus
//! the surrounding machinery:
//!
//! - the [`Pass`] trait and a string-keyed registry in [`manager`] that
//!   mirrors `opt -pass-name` flags,
//! - a [`manager::PassManager`] that applies pipelines,
//! - the standard [`pipelines`] (`O0`, `O1`, `O2`, `O3`, `Os`, `Oz`).
//!
//! Passes are real transformations: they interact the way their LLVM
//! namesakes do (mem2reg feeds instcombine/GVN, inlining feeds SROA,
//! rotation feeds LICM, unrolling trades size for speed), which is what
//! makes phase ordering a non-trivial optimization landscape.
//!
//! # Example
//!
//! ```
//! use posetrl_ir::parser::parse_module;
//! use posetrl_opt::manager::PassManager;
//!
//! let mut m = parse_module(r#"
//! module "m"
//! fn @f(i64) -> i64 internal {
//! bb0:
//!   %p = alloca i64 x 1
//!   store i64 %arg0, %p
//!   %v = load i64, %p
//!   %r = add i64 %v, 0:i64
//!   ret %r
//! }
//! "#).unwrap();
//! let pm = PassManager::new();
//! pm.run_pipeline(&mut m, &["mem2reg", "instcombine", "adce"]).unwrap();
//! // alloca/store/load collapse to `ret %arg0`
//! assert_eq!(m.num_insts(), 1);
//! ```

pub mod manager;
pub mod passes;
pub mod pipelines;
pub mod util;

#[cfg(test)]
pub(crate) mod testutil;

pub use manager::{PassManager, PipelineError, UnknownPassError};

use posetrl_ir::Module;

/// A module-level transformation.
pub trait Pass {
    /// The flag-style name of the pass (e.g. `"simplifycfg"`).
    fn name(&self) -> &'static str;

    /// Runs the pass, returning `true` if the module changed.
    fn run(&self, module: &mut Module) -> bool;
}
