//! `-sccp` and `-ipsccp`: sparse conditional constant propagation.
//!
//! `sccp` runs the classic Wegman–Zadeck lattice analysis per function:
//! values start unknown (⊤), meet to a constant or overdefined (⊥), and
//! branch feasibility is tracked so code behind never-taken edges does not
//! pollute the result. `ipsccp` additionally propagates constants across
//! internal call boundaries (arguments passed identically at every call
//! site, and constant return values).

use crate::util::{remove_unreachable_blocks, simplify_trivial_phis};
use crate::Pass;
use posetrl_ir::{BlockId, Const, FuncId, Function, InstId, Linkage, Module, Op, Value};
use std::collections::{HashMap, HashSet, VecDeque};

/// The constant-propagation lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lattice {
    /// Not yet known (top).
    Unknown,
    /// Proven constant.
    Const(Const),
    /// Multiple possible values (bottom).
    Over,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Unknown, x) | (x, Lattice::Unknown) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Over,
        }
    }
}

/// The `sccp` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        module.for_each_body(|_, f| {
            changed |= sccp_function(f, &HashMap::new());
        });
        changed
    }
}

/// The `ipsccp` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct IpSccp;

impl Pass for IpSccp {
    fn name(&self) -> &'static str {
        "ipsccp"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        // Interprocedural seeding: for internal functions whose address is
        // never taken, compute per-parameter meets over all call sites and
        // per-function constant returns, then specialize.
        for _round in 0..2 {
            let address_taken: HashSet<FuncId> = module
                .func_ids()
                .flat_map(|fid| {
                    let f = module.func(fid).unwrap();
                    f.inst_ids()
                        .into_iter()
                        .flat_map(move |id| f.op(id).operands())
                        .filter_map(|v| match v {
                            Value::Func(t) => Some(t),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                })
                .collect();

            // arg meets
            let mut arg_meet: HashMap<FuncId, Vec<Lattice>> = HashMap::new();
            let mut callers: HashMap<FuncId, usize> = HashMap::new();
            for fid in module.func_ids() {
                let f = module.func(fid).unwrap();
                for id in f.inst_ids() {
                    if let Op::Call { callee, args, .. } = f.op(id) {
                        *callers.entry(*callee).or_insert(0) += 1;
                        let entry = arg_meet
                            .entry(*callee)
                            .or_insert_with(|| vec![Lattice::Unknown; args.len()]);
                        for (i, a) in args.iter().enumerate() {
                            let l = match a.as_const() {
                                Some(c) if !c.is_undef() => Lattice::Const(c),
                                _ => Lattice::Over,
                            };
                            if let Some(slot) = entry.get_mut(i) {
                                *slot = slot.meet(l);
                            }
                        }
                    }
                }
            }

            // constant returns
            let mut const_ret: HashMap<FuncId, Const> = HashMap::new();
            for fid in module.func_ids() {
                let f = module.func(fid).unwrap();
                if f.is_decl || f.linkage != Linkage::Internal {
                    continue;
                }
                let mut ret: Lattice = Lattice::Unknown;
                for id in f.inst_ids() {
                    if let Op::Ret { val: Some(v) } = f.op(id) {
                        let l = match v.as_const() {
                            Some(c) if !c.is_undef() => Lattice::Const(c),
                            _ => Lattice::Over,
                        };
                        ret = ret.meet(l);
                    }
                }
                if let Lattice::Const(c) = ret {
                    const_ret.insert(fid, c);
                }
            }

            let mut round_changed = false;
            let fids: Vec<FuncId> = module.func_ids().collect();
            for fid in fids {
                let f = module.func(fid).unwrap();
                if f.is_decl {
                    continue;
                }
                // seed argument lattices for internal, non-address-taken fns
                let mut args: HashMap<u32, Const> = HashMap::new();
                // Entry points can be invoked from outside the module with
                // arbitrary arguments (the interpreter runs `main` directly),
                // so only specialize functions whose complete caller set is
                // visible inside the module.
                let externally_invocable = f.name == "main" || f.linkage != Linkage::Internal;
                if !externally_invocable
                    && !address_taken.contains(&fid)
                    && callers.get(&fid).copied().unwrap_or(0) > 0
                {
                    if let Some(meets) = arg_meet.get(&fid) {
                        for (i, l) in meets.iter().enumerate() {
                            if let Lattice::Const(c) = l {
                                args.insert(i as u32, *c);
                            }
                        }
                    }
                }
                // replace calls with known-constant returns (keep the call
                // for its side effects; DCE cleans up pure ones)
                let f = module.func_mut(fid).unwrap();
                let returns = used_constant_returns(f, &const_ret);
                round_changed |= !returns.is_empty();
                f.replace_all_uses_map(&returns);
                round_changed |= sccp_function(f, &args);
            }
            changed |= round_changed;
            if !round_changed {
                break;
            }
        }
        changed
    }
}

/// The calls in `f` to a function with a known constant return whose
/// result is used, each mapped to that constant.
fn used_constant_returns(
    f: &Function,
    const_ret: &HashMap<FuncId, Const>,
) -> HashMap<InstId, Value> {
    let ids = f.inst_ids();
    let mut returns: HashMap<InstId, Value> = ids
        .iter()
        .filter_map(|&id| match f.op(id) {
            Op::Call { callee, .. } => const_ret.get(callee).map(|&c| (id, Value::Const(c))),
            _ => None,
        })
        .collect();
    if !returns.is_empty() {
        let used: HashSet<InstId> = ids
            .iter()
            .flat_map(|&id| f.op(id).operands())
            .filter_map(|v| v.as_inst())
            .collect();
        returns.retain(|id, _| used.contains(id));
    }
    returns
}

/// Worklist steps after which the solver gives up. The analysis is
/// monotone, so this is a safety net: over the 169 corpus programs (the
/// hot action three times, `-Oz`, `sccp` + `ipsccp`) the peak is 3,240.
const MAX_SOLVER_STEPS: usize = 200_000;

/// Runs the SCCP analysis + rewrite on one function. `arg_consts` seeds
/// known-constant parameters (used by `ipsccp`).
fn sccp_function(f: &mut Function, arg_consts: &HashMap<u32, Const>) -> bool {
    match solve(f, arg_consts, MAX_SOLVER_STEPS) {
        Some(value) => rewrite(f, &value),
        None => false,
    }
}

/// The lattice value of every instruction at the fixpoint, indexed by
/// [`InstId::index`], or `None` when the worklist has not drained after
/// `max_steps` steps: a value still constant there could yet go
/// overdefined, so nothing may be folded.
fn solve(f: &Function, arg_consts: &HashMap<u32, Const>, max_steps: usize) -> Option<Vec<Lattice>> {
    let ids = f.inst_ids();
    let n = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
    let mut value: Vec<Lattice> = vec![Lattice::Unknown; n];
    let blocks = f.block_ids().map(|b| b.index() + 1).max().unwrap_or(0);
    let mut exec_blocks: Vec<bool> = vec![false; blocks];
    let mut exec_edges: HashSet<(BlockId, BlockId)> = HashSet::new();
    let mut flow: VecDeque<BlockId> = VecDeque::new();
    let mut ssa: VecDeque<InstId> = VecDeque::new();

    // users of each instruction, in instruction order (as `Function::uses`)
    let mut uses: Vec<Vec<InstId>> = vec![Vec::new(); n];
    for &id in &ids {
        for v in f.op(id).operands() {
            if let Some(users) = v.as_inst().and_then(|d| uses.get_mut(d.index())) {
                users.push(id);
            }
        }
    }

    let lattice_of = |v: Value, value: &[Lattice]| -> Lattice {
        match v {
            Value::Const(c) if !c.is_undef() => Lattice::Const(c),
            Value::Const(_) => Lattice::Over,
            Value::Inst(id) => value.get(id.index()).copied().unwrap_or(Lattice::Unknown),
            Value::Arg(i) => match arg_consts.get(&i) {
                Some(&c) => Lattice::Const(c),
                None => Lattice::Over,
            },
            Value::Global(_) | Value::Func(_) => Lattice::Over,
        }
    };

    flow.push_back(f.entry);
    exec_blocks[f.entry.index()] = true;

    let eval_inst = |id: InstId,
                     f: &Function,
                     value: &[Lattice],
                     exec_edges: &HashSet<(BlockId, BlockId)>|
     -> Lattice {
        let op = f.op(id);
        match op {
            Op::Phi { incomings, .. } => {
                let b = f.inst(id).unwrap().block;
                let mut l = Lattice::Unknown;
                for (p, v) in incomings {
                    if exec_edges.contains(&(*p, b)) {
                        l = l.meet(lattice_of(*v, value));
                    }
                }
                l
            }
            Op::Load { .. } | Op::Call { .. } | Op::Alloca { .. } | Op::Gep { .. } => Lattice::Over,
            op if op.result_ty() != posetrl_ir::Ty::Void => {
                // operands all constant -> fold with interpreter semantics
                let operands = op.operands();
                let mut lat = Vec::with_capacity(operands.len());
                for v in &operands {
                    lat.push(lattice_of(*v, value));
                }
                if lat.iter().any(|l| matches!(l, Lattice::Over)) {
                    return Lattice::Over;
                }
                if lat.iter().any(|l| matches!(l, Lattice::Unknown)) {
                    return Lattice::Unknown;
                }
                // substitute and fold on a scratch clone
                let mut scratch = op.clone();
                let mut idx = 0usize;
                scratch.map_operands(|_| {
                    let l = lat[idx];
                    idx += 1;
                    match l {
                        Lattice::Const(c) => Value::Const(c),
                        _ => unreachable!("checked above"),
                    }
                });
                // fold via a temporary single-inst view
                match fold_scratch(&scratch) {
                    Some(c) => Lattice::Const(c),
                    None => Lattice::Over,
                }
            }
            _ => Lattice::Over,
        }
    };

    let mut steps = 0usize;
    while !flow.is_empty() || !ssa.is_empty() {
        steps += 1;
        if steps > max_steps {
            return None;
        }
        if let Some(b) = flow.pop_front() {
            for &id in &f.block(b).unwrap().insts {
                ssa.push_back(id);
            }
        }
        if let Some(id) = ssa.pop_front() {
            let b = f.inst(id).unwrap().block;
            if !exec_blocks[b.index()] {
                continue;
            }
            let op = f.op(id);
            if op.is_terminator() {
                let succs: Vec<BlockId> = match op {
                    Op::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => match lattice_of(*cond, &value) {
                        Lattice::Const(c) => {
                            if c.as_int() == Some(1) {
                                vec![*then_bb]
                            } else {
                                vec![*else_bb]
                            }
                        }
                        Lattice::Unknown => vec![],
                        Lattice::Over => vec![*then_bb, *else_bb],
                    },
                    Op::Br { target } => vec![*target],
                    _ => vec![],
                };
                for s in succs {
                    let new_edge = exec_edges.insert((b, s));
                    let new_block = !std::mem::replace(&mut exec_blocks[s.index()], true);
                    if new_block {
                        flow.push_back(s);
                    } else if new_edge {
                        // re-evaluate phis of s
                        for &pid in &f.block(s).unwrap().insts {
                            if matches!(f.op(pid), Op::Phi { .. }) {
                                ssa.push_back(pid);
                            }
                        }
                    }
                }
                continue;
            }
            if op.result_ty() == posetrl_ir::Ty::Void {
                continue;
            }
            let new = eval_inst(id, f, &value, &exec_edges);
            let old = value[id.index()];
            let merged = old.meet(new);
            if merged != old {
                value[id.index()] = merged;
                let users = &uses[id.index()];
                ssa.extend(users.iter().copied());
                // condbr users need re-evaluation too
                ssa.extend(users.iter().copied().filter(|u| f.op(*u).is_terminator()));
            }
        }
    }

    Some(value)
}

/// Rewrites `f` from the solved lattice: constants, then constant branches,
/// then unreachable code.
fn rewrite(f: &mut Function, value: &[Lattice]) -> bool {
    // constants are never keys, so one sweep equals one rewrite per value
    let folded: HashMap<InstId, Value> = value
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Lattice::Const(c) => Some((InstId(i as u32), Value::Const(*c))),
            _ => None,
        })
        .collect();
    let mut changed = !folded.is_empty();
    f.replace_all_uses_map(&folded);
    // a call is never folded (its lattice value is overdefined), so no
    // callee attribute decides what is removable here
    for &id in folded.keys() {
        if f.op(id).is_pure() {
            f.remove_inst(id);
        }
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        let Some(term) = f.terminator(b) else {
            continue;
        };
        if let Op::CondBr {
            cond,
            then_bb,
            else_bb,
        } = f.op(term).clone()
        {
            if let Some(c) = cond.const_int() {
                let (taken, dropped) = if c != 0 {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                if taken != dropped {
                    f.inst_mut(term).unwrap().op = Op::Br { target: taken };
                    f.remove_phi_incoming(dropped, b);
                    changed = true;
                }
            }
        }
    }
    changed |= remove_unreachable_blocks(f);
    changed |= simplify_trivial_phis(f);
    changed
}

/// Folds an operation whose operands are all constants (scratch copy, not
/// part of any function).
fn fold_scratch(op: &Op) -> Option<Const> {
    use posetrl_ir::interp::{eval_bin, RtVal};
    let cv = |v: Value| -> Option<RtVal> {
        match v.as_const()? {
            Const::Int { val, .. } => Some(RtVal::Int(val)),
            Const::Float(x) => Some(RtVal::Float(x)),
            _ => None,
        }
    };
    match op {
        Op::Bin { op, ty, lhs, rhs } => {
            let r = eval_bin(*op, *ty, cv(*lhs)?, cv(*rhs)?).ok()?;
            match r {
                RtVal::Int(i) => Some(Const::int(*ty, i)),
                RtVal::Float(x) => Some(Const::Float(x)),
                _ => None,
            }
        }
        Op::Icmp { pred, lhs, rhs, .. } => Some(Const::bool(
            pred.eval(lhs.as_const()?.as_int()?, rhs.as_const()?.as_int()?),
        )),
        Op::Fcmp { pred, lhs, rhs } => Some(Const::bool(
            pred.eval(lhs.as_const()?.as_float()?, rhs.as_const()?.as_float()?),
        )),
        Op::Cast { kind, to, val } => {
            let src = val.as_const()?.ty();
            let r = posetrl_ir::interp::eval_cast_src(*kind, *to, src, cv(*val)?).ok()?;
            match r {
                RtVal::Int(i) => Some(Const::int(*to, i)),
                RtVal::Float(x) => Some(Const::Float(x)),
                _ => None,
            }
        }
        Op::Select {
            cond, tval, fval, ..
        } => {
            let c = cond.as_const()?.as_int()?;
            (if c != 0 { tval } else { fval }).as_const()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::{solve, Lattice, MAX_SOLVER_STEPS};
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;
    use posetrl_ir::parser::parse_module;
    use std::collections::HashMap;

    #[test]
    fn solver_that_runs_out_of_steps_folds_nothing() {
        // %x is constant for the first few steps, then the back edge makes
        // it overdefined: a cut-off solve must not report it constant
        let m = parse_module(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %x = phi i64 [bb0: 0:i64], [bb1: %y]
  %y = add i64 %x, 1:i64
  %c = icmp slt i64 %y, %arg0
  condbr %c, bb1, bb2
bb2:
  ret %x
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("main").unwrap()).unwrap();
        let x = f.inst_ids()[1];
        let full = solve(f, &HashMap::new(), MAX_SOLVER_STEPS).expect("drains");
        assert_eq!(full[x.index()], Lattice::Over);
        let steps = (1..MAX_SOLVER_STEPS)
            .find(|&n| solve(f, &HashMap::new(), n).is_some())
            .unwrap();
        assert!(steps > 5, "the loop takes several steps to drain");
        assert!(solve(f, &HashMap::new(), steps - 1).is_none());
    }

    #[test]
    fn propagates_through_feasible_edges_only() {
        // The classic SCCP example: x is 1 on both paths of a branch that a
        // simple pass would treat as joining 1 with an unreachable value.
        let m = assert_preserves(
            r#"
module "m"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %x = phi i64 [bb0: 1:i64], [bb3: %y]
  %c = icmp eq i64 %x, 1:i64
  condbr %c, bb2, bb3
bb2:
  ret %x
bb3:
  %y = add i64 %x, 1:i64
  br bb1
}
"#,
            &["sccp"],
            &[],
        );
        let f = m.func(m.func_by_name("main").unwrap()).unwrap();
        assert_eq!(f.num_blocks(), 3, "infeasible back edge removed");
        assert_eq!(count_ops(&m, "phi"), 0);
        assert_eq!(count_ops(&m, "add"), 0);
    }

    #[test]
    fn folds_constant_branch_chains() {
        let m = assert_preserves(
            r#"
module "m"
declare @print_i64(i64) -> void
fn @main() -> i64 internal {
bb0:
  %a = add i64 2:i64, 2:i64
  %c = icmp eq i64 %a, 4:i64
  condbr %c, bb1, bb2
bb1:
  call @print_i64(%a) -> void
  ret %a
bb2:
  call @print_i64(0:i64) -> void
  ret 0:i64
}
"#,
            &["sccp"],
            &[],
        );
        let f = m.func(m.func_by_name("main").unwrap()).unwrap();
        assert!(f.num_blocks() <= 2, "dead branch removed");
    }

    #[test]
    fn ipsccp_propagates_constant_arguments() {
        let m = assert_preserves(
            r#"
module "m"
fn @scale(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, 3:i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = call @scale(7:i64) -> i64
  %b = call @scale(7:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["ipsccp"],
            &[],
        );
        // scale's body folds to ret 21; call results replaced by 21
        assert_eq!(count_ops(&m, "mul"), 0);
    }

    #[test]
    fn ipsccp_keeps_varying_arguments() {
        let m = assert_preserves(
            r#"
module "m"
fn @scale(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, 3:i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = call @scale(7:i64) -> i64
  %b = call @scale(8:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["ipsccp"],
            &[],
        );
        assert_eq!(count_ops(&m, "mul"), 1, "argument varies across call sites");
    }

    #[test]
    fn sccp_handles_select_and_casts() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %t = trunc 300:i64 to i8
  %w = sext %t to i64
  %c = icmp slt i64 %w, 0:i64
  %s = select i64 %c, 1:i64, 2:i64
  %r = add i64 %s, %arg0
  ret %r
}
"#,
            &["sccp"],
            &[vec![RtVal::Int(10)]],
        );
        assert_eq!(m.num_insts(), 2, "everything but the final add folds");
    }
}
