//! Static branch-probability heuristics and block-frequency estimates.
//!
//! The `llvm-mca` stand-in in `posetrl-target` treats every basic block
//! as executing once (`flat_cycles`). It cannot see *which* path through
//! a function is hot: a cold error branch and the loop body it guards
//! weigh the same. This module closes that gap the way
//! `-branch-prob`/`-block-freq` do in LLVM, but purely statically:
//!
//! 1. **Branch probabilities** per conditional branch, from ordered
//!    heuristics (first match wins):
//!    - *absint dead-branch facts*: a condition with a singleton abstract
//!      value gets probability 1/0 — the dead successor is never taken;
//!    - *cold successors*: an edge into a block that ends in
//!      `unreachable` or calls a no-return function gets probability 0
//!      (executing `unreachable` traps, so the edge is semantically
//!      never taken on well-defined executions);
//!    - *loop back-edge*: the in-loop successor of an exiting block is
//!      taken with probability `n/(n+1)` when the loop's trip count `n`
//!      is known, [`DEFAULT_STAY`] otherwise;
//!    - *pointer null-compare*: `icmp eq ptr, null` is unlikely true
//!      ([`NULL_EQ_PROB`]), `ne` is the complement;
//!    - everything else splits 50/50.
//! 2. **Block frequencies**: probabilities are propagated in reverse
//!    post-order over the acyclic CFG (back edges into a containing
//!    loop's header are skipped), then each block is multiplied by the
//!    trip products of the loops containing it — exact trips when the
//!    scalar-evolution analysis ([`crate::scev`]) proved them, a
//!    [`DEFAULT_LOOP_TRIPS`] guess otherwise, each factor capped at
//!    [`TRIP_MULT_CAP`] so products stay finite.
//!
//! The result is deterministic: every sum runs in a fixed order, so the
//! same module produces bit-identical `f64`s on every run and worker.
//! Frequencies feed three consumers: the profile-weighted cycle
//! estimators in `posetrl-target` (behind a config flag — the RL reward
//! stays `flat_cycles`, see `mca.rs`), the hot-block-ratio feature
//! dimensions in [`crate::absint::features`], and the
//! [`render`](crate::scev::render) dump of `mini-analyze --scev`.

use crate::absint::FuncFacts;
use posetrl_ir::analysis::{Cfg, LoopForest};
use posetrl_ir::{BlockId, Const, Function, IntPred, Module, Op, Ty, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Probability that an exiting block stays in its loop when the trip
/// count is unknown (the classic 7/8 back-edge heuristic).
pub const DEFAULT_STAY: f64 = 0.875;

/// Probability that a pointer null-equality compare is true.
pub const NULL_EQ_PROB: f64 = 0.1;

/// Assumed iterations of a loop whose trip count is unknown.
pub const DEFAULT_LOOP_TRIPS: f64 = 8.0;

/// Cap on any single loop's frequency multiplier (keeps nested products
/// bounded and the feature squashes meaningful).
pub const TRIP_MULT_CAP: f64 = 64.0;

/// A block is "hot" when its estimated frequency reaches this many
/// executions per function entry.
pub const HOT_THRESHOLD: f64 = 4.0;

/// Per-function static profile: estimated execution frequency per block
/// (entry = 1.0) and the derived hot-block ratio.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnProfile {
    /// Estimated executions per function entry, keyed by block arena id.
    pub freqs: BTreeMap<u32, f64>,
    /// Fraction of blocks with frequency ≥ [`HOT_THRESHOLD`].
    pub hot_ratio: f64,
}

impl FnProfile {
    /// The estimated frequency of `b` (1.0 for unknown blocks, so
    /// consumers degrade to flat costing).
    pub fn freq(&self, b: BlockId) -> f64 {
        self.freqs.get(&b.0).copied().unwrap_or(1.0)
    }
}

/// Module-level view: one [`FnProfile`] per defined function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleProfile {
    /// Profiles keyed by function arena id.
    pub funcs: BTreeMap<u32, FnProfile>,
}

impl ModuleProfile {
    /// The profile of `fid`, if the function is defined.
    pub fn func(&self, fid: posetrl_ir::FuncId) -> Option<&FnProfile> {
        self.funcs.get(&fid.0)
    }

    /// The estimated frequency of `(fid, b)`; 1.0 when unknown.
    pub fn freq(&self, fid: posetrl_ir::FuncId, b: BlockId) -> f64 {
        self.func(fid).map(|p| p.freq(b)).unwrap_or(1.0)
    }
}

/// Extracts the [`ModuleProfile`] view from a scalar-evolution result,
/// which embeds this module's heuristics:
/// `of_scev(ModuleAnalyses::new(m, mgr).scev())` profiles `m`, and with
/// a manager, repeated estimates over an unchanged module are memo hits.
pub fn of_scev(sc: &crate::scev::ModuleScev) -> ModuleProfile {
    ModuleProfile {
        funcs: sc
            .funcs
            .iter()
            .map(|(i, r)| (*i, r.profile.clone()))
            .collect(),
    }
}

/// The set of defined functions that provably never return: no `ret`
/// instruction at all (trap-only or endless bodies). Declarations are
/// assumed returning.
pub fn noreturn_funcs(m: &Module) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let returns = f
            .inst_ids()
            .iter()
            .any(|&id| matches!(f.op(id), Op::Ret { .. }));
        if !returns {
            out.insert(fid.0);
        }
    }
    out
}

/// Whether `b` is cold: it ends in `unreachable` or calls a no-return
/// function (reaching it on a well-defined execution is a trap).
fn is_cold_block(f: &Function, b: BlockId, noreturn: &BTreeSet<u32>) -> bool {
    let Some(block) = f.block(b) else {
        return false;
    };
    block.insts.iter().any(|&id| match f.op(id) {
        Op::Unreachable => true,
        Op::Call { callee, .. } => noreturn.contains(&callee.0),
        _ => false,
    })
}

/// Probability that the `then_bb` edge of the conditional branch ending
/// `b` is taken. `trips` maps loop headers to proved trip counts.
#[allow(clippy::too_many_arguments)]
fn then_probability(
    f: &Function,
    facts: Option<&FuncFacts>,
    forest: &LoopForest,
    trips: &BTreeMap<u32, u64>,
    noreturn: &BTreeSet<u32>,
    b: BlockId,
    cond: Value,
    then_bb: BlockId,
    else_bb: BlockId,
) -> f64 {
    // 1. absint dead-branch facts: a decided condition is 1/0
    let decided = match cond {
        Value::Inst(i) => facts.and_then(|fa| fa.value(i).singleton()),
        Value::Const(Const::Int { val, .. }) => Some(val),
        _ => None,
    };
    if let Some(v) = decided {
        return if v != 0 { 1.0 } else { 0.0 };
    }

    // 2. cold successors (unreachable / no-return callee)
    let then_cold = is_cold_block(f, then_bb, noreturn);
    let else_cold = is_cold_block(f, else_bb, noreturn);
    match (then_cold, else_cold) {
        (true, false) => return 0.0,
        (false, true) => return 1.0,
        _ => {}
    }

    // 3. loop back-edge: prefer staying in the innermost loop of `b`
    if let Some(l) = forest.innermost_containing(b) {
        let then_in = l.blocks.contains(&then_bb);
        let else_in = l.blocks.contains(&else_bb);
        if then_in != else_in {
            let stay = match trips.get(&l.header.0) {
                Some(&n) => {
                    let n = n as f64;
                    n / (n + 1.0)
                }
                None => DEFAULT_STAY,
            };
            return if then_in { stay } else { 1.0 - stay };
        }
    }

    // 4. pointer null-compare: equality with null is unlikely
    if let Some(i) = cond.as_inst() {
        if let Op::Icmp {
            pred: pred @ (IntPred::Eq | IntPred::Ne),
            ty: Ty::Ptr,
            lhs,
            rhs,
        } = f.op(i)
        {
            let against_null = matches!(lhs, Value::Const(Const::Null))
                || matches!(rhs, Value::Const(Const::Null));
            if against_null {
                return match pred {
                    IntPred::Eq => NULL_EQ_PROB,
                    _ => 1.0 - NULL_EQ_PROB,
                };
            }
        }
    }

    0.5
}

/// Computes the static profile of one function.
///
/// Pure in `(function content, absint facts, loop forest, trips)`: the
/// scalar-evolution driver calls this per function and memoizes the
/// enclosing result, so determinism here is part of the bit-identity
/// contract.
pub fn compute_fn(
    f: &Function,
    facts: Option<&FuncFacts>,
    cfg: &Cfg,
    forest: &LoopForest,
    trips: &BTreeMap<u32, u64>,
    noreturn: &BTreeSet<u32>,
) -> FnProfile {
    // edge probabilities: prob(p -> s) for every CFG edge
    let mut edge_prob: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for &b in &cfg.rpo {
        let Some(block) = f.block(b) else { continue };
        let Some(&term) = block.insts.last() else {
            continue;
        };
        match f.op(term) {
            Op::Br { target } => {
                edge_prob.insert((b.0, target.0), 1.0);
            }
            Op::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                if then_bb == else_bb {
                    edge_prob.insert((b.0, then_bb.0), 1.0);
                } else {
                    let p = then_probability(
                        f, facts, forest, trips, noreturn, b, *cond, *then_bb, *else_bb,
                    );
                    edge_prob.insert((b.0, then_bb.0), p);
                    edge_prob.insert((b.0, else_bb.0), 1.0 - p);
                }
            }
            _ => {}
        }
    }

    // acyclic propagation in RPO; back edges (into a header of a loop
    // containing the source) are skipped
    let is_back_edge = |p: BlockId, s: BlockId| -> bool {
        forest
            .loop_with_header(s)
            .map(|l| l.blocks.contains(&p))
            .unwrap_or(false)
    };
    let mut local: BTreeMap<u32, f64> = BTreeMap::new();
    for &b in &cfg.rpo {
        if b == f.entry {
            local.insert(b.0, 1.0);
            continue;
        }
        let mut sum = 0.0;
        if let Some(preds) = cfg.preds.get(&b) {
            for &p in preds {
                if is_back_edge(p, b) {
                    continue;
                }
                sum += local.get(&p.0).copied().unwrap_or(0.0)
                    * edge_prob.get(&(p.0, b.0)).copied().unwrap_or(0.0);
            }
        }
        local.insert(b.0, sum);
    }

    // loop trip multipliers
    let mut freqs: BTreeMap<u32, f64> = BTreeMap::new();
    for &b in &cfg.rpo {
        let mut w = local.get(&b.0).copied().unwrap_or(0.0);
        for l in &forest.loops {
            if l.blocks.contains(&b) {
                let mult = match trips.get(&l.header.0) {
                    Some(&n) => (n as f64).max(1.0),
                    None => DEFAULT_LOOP_TRIPS,
                };
                w *= mult.min(TRIP_MULT_CAP);
            }
        }
        freqs.insert(b.0, w);
    }

    let n_blocks = freqs.len().max(1) as f64;
    let hot = freqs.values().filter(|&&w| w >= HOT_THRESHOLD).count() as f64;
    FnProfile {
        hot_ratio: hot / n_blocks,
        freqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    fn profile_of(m: &Module) -> ModuleProfile {
        of_scev(crate::ModuleAnalyses::new(m, None).scev())
    }

    const LOOPY: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#;

    #[test]
    fn loop_body_is_hotter_than_exit() {
        let m = parse_module(LOOPY).unwrap();
        let mp = profile_of(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let ids: Vec<_> = f.block_ids().collect();
        let p = mp.func(fid).unwrap();
        let body = p.freqs[&ids[2].0]; // bb2
        let exit = p.freqs[&ids[3].0]; // bb3
        assert!(body > exit, "body {body} must outweigh exit {exit}");
        // trip count 10 is proved, so the body runs ~10x per entry
        assert!(body > 5.0, "trip-informed body frequency: {body}");
        assert!(p.hot_ratio > 0.0, "the loop makes some blocks hot");
    }

    #[test]
    fn profile_is_deterministic() {
        let m = parse_module(LOOPY).unwrap();
        assert_eq!(profile_of(&m), profile_of(&m));
    }

    #[test]
    fn cold_unreachable_successor_gets_zero_weight() {
        let m = parse_module(
            r#"
module "t"
fn @main(i64) -> i64 internal {
bb0:
  %c = icmp slt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  unreachable
bb2:
  ret %arg0
}
"#,
        )
        .unwrap();
        let mp = profile_of(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let ids: Vec<_> = f.block_ids().collect();
        let p = mp.func(fid).unwrap();
        assert_eq!(
            p.freqs[&ids[1].0], 0.0,
            "trap path never taken: {:?}",
            p.freqs
        );
        assert_eq!(
            p.freqs[&ids[2].0], 1.0,
            "fallthrough certain: {:?}",
            p.freqs
        );
    }

    #[test]
    fn null_compare_is_unlikely() {
        let m = parse_module(
            r#"
module "t"
fn @main(ptr) -> i64 internal {
bb0:
  %c = icmp eq ptr %arg0, null
  condbr %c, bb1, bb2
bb1:
  ret 0:i64
bb2:
  ret 1:i64
}
"#,
        )
        .unwrap();
        let mp = profile_of(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let ids: Vec<_> = f.block_ids().collect();
        let p = mp.func(fid).unwrap();
        assert!(p.freqs[&ids[1].0] < 0.2, "null path cold: {:?}", p.freqs);
        assert!(p.freqs[&ids[2].0] > 0.8, "non-null path hot: {:?}", p.freqs);
    }
}
