//! A miniature SSA intermediate representation modelled after LLVM IR.
//!
//! This crate is the compiler substrate for the POSET-RL reproduction. It
//! provides everything the optimization passes, cost models, embeddings and
//! the RL environment need:
//!
//! - a typed, SSA-form IR ([`Module`], [`Function`], [`Block`], [`Inst`]),
//! - a convenient [`builder::FunctionBuilder`] for constructing programs,
//! - a human-readable textual format with a [`printer`] and [`parser`],
//! - a structural/SSA [`verifier`],
//! - standard [`analysis`] passes (CFG, dominators, natural loops,
//!   use-def chains),
//! - a reference [`interp`] interpreter used to check that optimizations
//!   preserve observable semantics and to profile dynamic execution.
//!
//! # Example
//!
//! ```
//! use posetrl_ir::builder::ModuleBuilder;
//! use posetrl_ir::{Ty, Value, Const};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.begin_function("add1", vec![Ty::I64], Ty::I64);
//! {
//!     let mut fb = mb.func_builder(f);
//!     let one = Value::Const(Const::int(Ty::I64, 1));
//!     let sum = fb.add(Ty::I64, Value::Arg(0), one);
//!     fb.ret(Some(sum));
//! }
//! let module = mb.finish();
//! assert!(posetrl_ir::verifier::verify_module(&module).is_ok());
//! ```

pub mod analysis;
pub mod builder;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use hash::{
    digest_str, fold_module_hash, function_fingerprint, function_hash, function_hashes,
    globals_fingerprint, module_hash, module_header_hash, FunctionHash, ModuleHash,
};
pub use inst::{BinOp, CastKind, FloatPred, Inst, InstId, IntPred, Op};
pub use module::{Block, BlockId, FnAttrs, FuncId, Function, Global, GlobalId, Linkage, Module};
pub use types::Ty;
pub use value::{Const, Value};
pub use verifier::{SourceLoc, VerifyError};
