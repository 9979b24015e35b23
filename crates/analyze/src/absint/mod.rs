//! Interprocedural abstract interpretation over the product domain of
//! known-bits, signed/unsigned intervals and pointer nullness/alignment.
//!
//! The engine is context-insensitive: every function gets one
//! argument/return summary ([`FnSummary`]). Analysis proceeds bottom-up
//! over the call graph's strongly connected components (callees before
//! callers), so non-recursive call results flow from final summaries;
//! within an SCC the member summaries iterate from ⊥ to a fixpoint.
//! Because argument facts flow in the opposite direction (callers into
//! callees), the whole module is analyzed in two rounds: round one runs
//! with ⊤ argument summaries, then every reachable call site's argument
//! facts are joined into its callee's summary, and round two re-runs with
//! the sharpened arguments. Functions whose arguments cannot be enumerated
//! — external linkage, `main`, address-taken, or never called — keep ⊤.
//!
//! The intraprocedural half reuses the generic [`crate::dataflow`]
//! worklist engine: the domain is the whole SSA environment (one
//! [`AbsVal`] per instruction arena slot, joined pointwise), and the
//! per-block transfer interprets each instruction abstractly. Widening
//! inside [`domain::IntFacts::join`] keeps every chain finite, so the
//! engine terminates without a dedicated widening hook.
//!
//! Three consumers sit on top: the `range-trap`/`null-deref`/`dead-branch`
//! lints ([`lint_with`]), the SCEV analysis (which bounds symbolic trip counts
//! with these facts), and the static feature vector ([`features`]) the RL
//! environment can append to its state. No pass reads the facts directly.

pub mod domain;
pub mod features;

use crate::callgraph::CallGraph;
use crate::dataflow::{solve, DataflowAnalysis, Direction, JoinSemiLattice};
use crate::diag::{codes, Diagnostic};
use crate::memo::memoized;
use domain::{
    transfer_bin, transfer_cast, transfer_icmp, AbsVal, IntFacts, Nullness, PtrBase, PtrFacts,
};
use posetrl_ir::analysis::cfg::Cfg;
use posetrl_ir::{BlockId, FuncId, Function, InstId, Module, Op, SourceLoc, Ty, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-function argument/return summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSummary {
    /// Abstract value of each parameter (exported form).
    pub args: Vec<AbsVal>,
    /// Abstract return value (exported form); ⊥ until a `ret` is reached.
    pub ret: AbsVal,
}

/// Final per-instruction facts of one analyzed function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncFacts {
    /// One fact per instruction arena slot; ⊥ for void results, removed
    /// slots and unreachable code.
    pub values: Vec<AbsVal>,
    /// Blocks reachable from the entry (the facts' domain of validity).
    pub reachable: Vec<BlockId>,
}

impl FuncFacts {
    /// The fact of `id` (⊥ when out of range).
    pub fn value(&self, id: InstId) -> AbsVal {
        self.values
            .get(id.index())
            .copied()
            .unwrap_or(AbsVal::Bottom)
    }
}

/// The module-wide analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAbsint {
    /// Summaries keyed by function arena index (deterministic order).
    pub summaries: BTreeMap<u32, FnSummary>,
    /// Per-function facts for every defined function.
    pub funcs: BTreeMap<u32, FuncFacts>,
}

impl ModuleAbsint {
    /// The summary of `id`, if analyzed.
    pub fn summary(&self, id: FuncId) -> Option<&FnSummary> {
        self.summaries.get(&id.0)
    }

    /// The facts of `id`, if it has a body.
    pub fn facts(&self, id: FuncId) -> Option<&FuncFacts> {
        self.funcs.get(&id.0)
    }
}

// ---------------------------------------------------------------------------
// Intraprocedural transfer (over the generic dataflow engine)
// ---------------------------------------------------------------------------

/// The dataflow domain: the whole SSA environment, joined pointwise.
#[derive(Debug, Clone)]
pub struct Env(pub Vec<AbsVal>);

impl JoinSemiLattice for Env {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            changed |= a.join(b);
        }
        changed
    }
}

struct Intra<'a> {
    universe: usize,
    args: &'a [AbsVal],
    summaries: &'a BTreeMap<u32, FnSummary>,
}

impl Intra<'_> {
    fn value_of(&self, env: &Env, v: Value) -> AbsVal {
        match v {
            Value::Const(c) => AbsVal::of_const(c),
            Value::Arg(i) => self.args.get(i as usize).copied().unwrap_or(AbsVal::Top),
            Value::Inst(id) => env.0.get(id.index()).copied().unwrap_or(AbsVal::Bottom),
            Value::Global(g) => AbsVal::Ptr(PtrFacts::object(PtrBase::Global(g.0), 8)),
            Value::Func(_) => AbsVal::Top,
        }
    }

    fn int_of(&self, env: &Env, v: Value, ty: Ty) -> Option<IntFacts> {
        match self.value_of(env, v) {
            AbsVal::Bottom => None,
            AbsVal::Int(f) if f.ty == ty => Some(f),
            _ => Some(IntFacts::top(ty)),
        }
    }

    fn compute(&self, f: &Function, id: InstId, env: &Env) -> AbsVal {
        let op = f.op(id);
        match op {
            Op::Bin { op, ty, lhs, rhs } => {
                if op.is_float() {
                    return AbsVal::Float;
                }
                let (Some(a), Some(b)) = (self.int_of(env, *lhs, *ty), self.int_of(env, *rhs, *ty))
                else {
                    return AbsVal::Bottom;
                };
                transfer_bin(*op, *ty, &a, &b)
            }
            Op::Icmp { pred, ty, lhs, rhs } => {
                let (Some(a), Some(b)) = (self.int_of(env, *lhs, *ty), self.int_of(env, *rhs, *ty))
                else {
                    return AbsVal::Bottom;
                };
                match transfer_icmp(*pred, &a, &b) {
                    Some(v) => AbsVal::Int(IntFacts::exact(Ty::I1, v as i64)),
                    None => AbsVal::Int(IntFacts::top(Ty::I1)),
                }
            }
            Op::Fcmp { lhs, rhs, .. } => {
                if self.value_of(env, *lhs).is_bottom() || self.value_of(env, *rhs).is_bottom() {
                    AbsVal::Bottom
                } else {
                    AbsVal::Int(IntFacts::top(Ty::I1))
                }
            }
            Op::Select {
                cond, tval, fval, ..
            } => {
                let c = self.value_of(env, *cond);
                if c.is_bottom() {
                    return AbsVal::Bottom;
                }
                match c.singleton() {
                    Some(1) => self.value_of(env, *tval),
                    Some(_) => self.value_of(env, *fval),
                    None => {
                        let mut v = self.value_of(env, *tval);
                        v.join(&self.value_of(env, *fval));
                        v
                    }
                }
            }
            Op::Cast { kind, to, val } => {
                let v = self.value_of(env, *val);
                if v.is_bottom() {
                    return AbsVal::Bottom;
                }
                transfer_cast(*kind, *to, &v)
            }
            Op::Alloca { ty, .. } => {
                let tz = ty.byte_size().max(1).trailing_zeros().min(8) as u8;
                AbsVal::Ptr(PtrFacts::object(PtrBase::Alloca(id.0), tz))
            }
            Op::Load { ty, .. } => AbsVal::top_of(*ty),
            Op::Gep {
                elem_ty,
                ptr,
                index,
            } => {
                let p = self.value_of(env, *ptr);
                let i = self.value_of(env, *index);
                if p.is_bottom() || i.is_bottom() {
                    return AbsVal::Bottom;
                }
                let mut out = match p.as_ptr() {
                    Some(p) => *p,
                    None => PtrFacts::top(),
                };
                let elem_tz = elem_ty.byte_size().max(1).trailing_zeros().min(8);
                match i.as_int() {
                    Some(idx) => {
                        if out.base != PtrBase::Unknown {
                            let lo = out.off_lo as i128 + idx.lo as i128;
                            let hi = out.off_hi as i128 + idx.hi as i128;
                            if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
                                out.off_lo = lo as i64;
                                out.off_hi = hi as i64;
                            } else {
                                out.base = PtrBase::Unknown;
                            }
                        }
                        let idx_tz = idx
                            .as_singleton()
                            .map(|v| if v == 0 { 8 } else { v.trailing_zeros().min(8) })
                            .unwrap_or_else(|| idx.bits.trailing_zeros().min(8));
                        out.align_tz = out.align_tz.min((idx_tz + elem_tz).min(8) as u8);
                    }
                    None => {
                        out.base = PtrBase::Unknown;
                        out.align_tz = 0;
                    }
                }
                AbsVal::Ptr(out)
            }
            Op::Call { callee, ret_ty, .. } => match self.summaries.get(&callee.0) {
                Some(s) if !s.ret.is_bottom() => s.ret,
                Some(_) => AbsVal::Bottom,
                None => AbsVal::top_of(*ret_ty),
            },
            Op::Phi { incomings, .. } => {
                let mut v = AbsVal::Bottom;
                for (_, inc) in incomings {
                    v.join(&self.value_of(env, *inc));
                }
                v
            }
            // void results: no fact slot
            _ => AbsVal::Bottom,
        }
    }
}

impl DataflowAnalysis for Intra<'_> {
    type Domain = Env;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _f: &Function) -> Env {
        Env(vec![AbsVal::Bottom; self.universe])
    }

    fn bottom(&self, _f: &Function) -> Env {
        Env(vec![AbsVal::Bottom; self.universe])
    }

    fn transfer(&self, f: &Function, b: BlockId, state: &mut Env) {
        let Some(block) = f.block(b) else { return };
        for &id in &block.insts {
            let v = self.compute(f, id, state);
            if let Some(slot) = state.0.get_mut(id.index()) {
                // facts only move up the lattice across worklist revisits
                slot.join(&v);
            }
        }
    }
}

/// Analyzes one function body against fixed summaries, returning its
/// facts and the (exported) return fact.
fn analyze_function(
    f: &Function,
    args: &[AbsVal],
    summaries: &BTreeMap<u32, FnSummary>,
) -> (FuncFacts, AbsVal) {
    let cfg = Cfg::compute(f);
    let universe = f
        .inst_ids()
        .iter()
        .map(|i| i.index() + 1)
        .max()
        .unwrap_or(0);
    let analysis = Intra {
        universe,
        args,
        summaries,
    };
    let fx = solve(f, &cfg, &analysis);

    // final fact of every value: join over all reachable block outputs
    let mut values = vec![AbsVal::Bottom; universe];
    for b in &cfg.rpo {
        if let Some(env) = fx.output.get(b) {
            for (slot, v) in values.iter_mut().zip(&env.0) {
                slot.join(v);
            }
        }
    }

    let env = Env(values.clone());
    let mut ret = AbsVal::Bottom;
    for &b in &cfg.rpo {
        if let Some(t) = f.terminator(b) {
            if let Op::Ret { val } = f.op(t) {
                match val {
                    Some(v) => ret.join(&analysis.value_of(&env, *v).exported()),
                    None => ret.join(&AbsVal::Top),
                };
            }
        }
    }
    (
        FuncFacts {
            values,
            reachable: cfg.rpo,
        },
        ret,
    )
}

// ---------------------------------------------------------------------------
// The module driver
// ---------------------------------------------------------------------------

/// Runs the interprocedural analysis over `m`, optionally memoizing
/// per-function analyses through an
/// [`IncrementalAnalysisManager`](crate::incremental::IncrementalAnalysisManager).
///
/// The driver schedule (two sharpening rounds, bottom-up SCC fixpoints,
/// widening at `SCC_ITER_LIMIT`) is identical with and without a manager;
/// only the `analyze_function` leaf calls are content-addressed. Each
/// leaf is a pure function of `(function fingerprint, argument
/// summaries, direct-callee return summaries)` — exactly the memo key —
/// so results are bit-identical either way.
pub fn analyze_module_with(
    m: &Module,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleAbsint {
    let cg = CallGraph::new(m);
    let is_root = |fid: FuncId, f: &Function| {
        f.linkage == posetrl_ir::Linkage::External
            || f.name == "main"
            || cg.address_taken.contains(&fid.0)
            || cg.call_counts.get(&fid.0).copied().unwrap_or(0) == 0
    };

    let top_args =
        |f: &Function| -> Vec<AbsVal> { f.params.iter().map(|&t| AbsVal::top_of(t)).collect() };

    let run_one = |f: &Function,
                   i: u32,
                   args: &[AbsVal],
                   summaries: &BTreeMap<u32, FnSummary>|
     -> (FuncFacts, AbsVal) {
        let key = || {
            (
                cg.fingerprint(i),
                posetrl_ir::digest_str(&format!("{args:?}")),
                cg.callee_digest(i, summaries, |s| &s.ret),
            )
        };
        Arc::unwrap_or_clone(memoized(mgr.map(|g| &g.absint), &f.name, key, || {
            Arc::new(analyze_function(f, args, summaries))
        }))
    };

    // argument summaries for the current round; round 1 is all-⊤
    let mut args: BTreeMap<u32, Vec<AbsVal>> = BTreeMap::new();
    for fid in m.func_ids() {
        args.insert(fid.0, top_args(m.func(fid).unwrap()));
    }

    let mut summaries: BTreeMap<u32, FnSummary> = BTreeMap::new();
    let mut funcs: BTreeMap<u32, FuncFacts> = BTreeMap::new();

    for round in 0..2 {
        summaries.clear();
        funcs.clear();
        // declarations: unconstrained returns, fixed from the start
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            if f.is_decl {
                summaries.insert(
                    fid.0,
                    FnSummary {
                        args: args[&fid.0].clone(),
                        ret: AbsVal::top_of(f.ret),
                    },
                );
            }
        }

        cg.scc_fixpoint(
            &mut summaries,
            |i, _| FnSummary {
                args: args[&i].clone(),
                ret: AbsVal::Bottom,
            },
            |i, f| FnSummary {
                args: args[&i].clone(),
                ret: AbsVal::top_of(f.ret),
            },
            |i, f, summaries| {
                let (facts, ret) = run_one(f, i, &args[&i], summaries);
                funcs.insert(i, facts);
                ret
            },
            |s, ret| s.ret.join(&ret),
        );

        if round == 1 {
            break;
        }

        // sharpen argument summaries from every reachable call site
        let mut acc: BTreeMap<u32, Vec<AbsVal>> = BTreeMap::new();
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            let Some(facts) = funcs.get(&fid.0) else {
                continue;
            };
            let env = Env(facts.values.clone());
            let intra = Intra {
                universe: facts.values.len(),
                args: &args[&fid.0],
                summaries: &summaries,
            };
            for &b in &facts.reachable {
                let Some(block) = f.block(b) else { continue };
                for &id in &block.insts {
                    if let Op::Call {
                        callee,
                        args: call_args,
                        ..
                    } = f.op(id)
                    {
                        let slot = acc
                            .entry(callee.0)
                            .or_insert_with(|| vec![AbsVal::Bottom; call_args.len()]);
                        for (s, a) in slot.iter_mut().zip(call_args) {
                            s.join(&intra.value_of(&env, *a).exported());
                        }
                    }
                }
            }
        }
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            if is_root(fid, f) {
                continue;
            }
            if let Some(seen) = acc.remove(&fid.0) {
                if seen.len() == f.params.len() && seen.iter().all(|v| !v.is_bottom()) {
                    args.insert(fid.0, seen);
                }
            }
        }
    }

    // final summaries reflect the argument facts they were computed with
    for (i, s) in summaries.iter_mut() {
        s.args = args[i].clone();
    }

    ModuleAbsint { summaries, funcs }
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// Follows constant-index gep chains to a base (mirrors the `constmem`
/// resolver): accesses it can resolve are already covered by `const-oob`,
/// so the absint OOB lint skips them instead of double-reporting.
fn const_chain_resolves(f: &Function, v: Value, depth: u32) -> bool {
    if depth == 0 {
        return false;
    }
    match v {
        Value::Global(_) => true,
        Value::Inst(id) => match f.inst(id).map(|i| &i.op) {
            Some(Op::Alloca { .. }) => true,
            Some(Op::Gep { ptr, index, .. }) => {
                index.const_int().is_some() && const_chain_resolves(f, *ptr, depth - 1)
            }
            _ => false,
        },
        _ => false,
    }
}

/// Element count of a pointer base, if it still exists.
fn base_count(m: &Module, f: &Function, base: PtrBase) -> Option<i64> {
    match base {
        PtrBase::Global(g) => Some(m.global(posetrl_ir::GlobalId(g))?.count as i64),
        PtrBase::Alloca(i) => match f.inst(InstId(i)).map(|i| &i.op) {
            Some(Op::Alloca { count, .. }) => Some(*count as i64),
            _ => None,
        },
        PtrBase::Unknown => None,
    }
}

/// Lints one module against precomputed facts.
pub fn lint_with(m: &Module, mi: &ModuleAbsint, out: &mut Vec<Diagnostic>) {
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let Some(facts) = mi.facts(fid) else { continue };
        let env = Env(facts.values.clone());
        let intra = Intra {
            universe: facts.values.len(),
            args: &mi.summary(fid).map(|s| s.args.clone()).unwrap_or_default(),
            summaries: &mi.summaries,
        };
        for &b in &facts.reachable {
            let Some(block) = f.block(b) else { continue };
            for &id in &block.insts {
                let op = f.op(id);
                let loc = || SourceLoc::of_inst(f, id);
                match op {
                    Op::Bin {
                        op: bin, rhs, ty, ..
                    } if bin.can_trap() => {
                        let d = intra.value_of(&env, *rhs);
                        if d.singleton() == Some(0) {
                            out.push(Diagnostic::warning(
                                codes::RANGE_TRAP,
                                loc(),
                                format!("{} divisor is provably zero ({ty})", bin.mnemonic()),
                            ));
                        }
                    }
                    Op::Load { ptr, .. } | Op::Store { ptr, .. } => {
                        let p = intra.value_of(&env, *ptr);
                        let Some(pf) = p.as_ptr() else { continue };
                        if pf.null == Nullness::Null {
                            out.push(Diagnostic::warning(
                                codes::NULL_DEREF,
                                loc(),
                                format!("{} through a provably null pointer", op.kind_name()),
                            ));
                            continue;
                        }
                        if let Some(count) = base_count(m, f, pf.base) {
                            let proven_oob = pf.off_hi < 0 || pf.off_lo >= count;
                            if proven_oob && !const_chain_resolves(f, *ptr, 32) {
                                out.push(Diagnostic::warning(
                                    codes::RANGE_TRAP,
                                    loc(),
                                    format!(
                                        "{} at offset in [{}, {}] is provably outside the \
                                         {count}-element allocation",
                                        op.kind_name(),
                                        pf.off_lo,
                                        pf.off_hi
                                    ),
                                ));
                            }
                        }
                    }
                    Op::MemCpy { dst, src, .. } => {
                        for (what, v) in [("memcpy destination", dst), ("memcpy source", src)] {
                            let p = intra.value_of(&env, *v);
                            if p.as_ptr().map(|pf| pf.null) == Some(Nullness::Null) {
                                out.push(Diagnostic::warning(
                                    codes::NULL_DEREF,
                                    loc(),
                                    format!("{what} is provably null"),
                                ));
                            }
                        }
                    }
                    Op::MemSet { dst, .. } => {
                        let p = intra.value_of(&env, *dst);
                        if p.as_ptr().map(|pf| pf.null) == Some(Nullness::Null) {
                            out.push(Diagnostic::warning(
                                codes::NULL_DEREF,
                                loc(),
                                "memset destination is provably null",
                            ));
                        }
                    }
                    Op::CondBr { cond, .. } => {
                        if let Some(v) = intra.value_of(&env, *cond).singleton() {
                            let (taken, dead) = if v != 0 {
                                ("then", "else")
                            } else {
                                ("else", "then")
                            };
                            out.push(Diagnostic::note(
                                codes::DEAD_BRANCH,
                                loc(),
                                format!(
                                    "condition is provably {}; the {dead} edge is dead \
                                     (always branches to {taken})",
                                    v != 0
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Textual dump (mini-analyze --absint)
// ---------------------------------------------------------------------------

/// Renders one abstract value in the stable dump syntax.
pub fn render_absval(v: &AbsVal) -> String {
    match v {
        AbsVal::Bottom => "unreachable".to_string(),
        AbsVal::Top => "top".to_string(),
        AbsVal::Float => "f64 any".to_string(),
        AbsVal::Int(f) => {
            let mut s = format!("{} in [{}, {}] u[{}, {}]", f.ty, f.lo, f.hi, f.ulo, f.uhi);
            s.push_str(&format!(" known {}/64", f.bits.count_known()));
            if f.bits.trailing_zeros() > 0 && f.as_singleton().is_none() {
                s.push_str(&format!(" tz {}", f.bits.trailing_zeros()));
            }
            s
        }
        AbsVal::Ptr(p) => {
            let mut s = String::from("ptr ");
            s.push_str(match p.null {
                Nullness::Null => "null",
                Nullness::NonNull => "nonnull",
                Nullness::Maybe => "maybe-null",
            });
            match p.base {
                PtrBase::Alloca(i) => s.push_str(&format!(
                    " base alloca %{i} off [{}, {}]",
                    p.off_lo, p.off_hi
                )),
                PtrBase::Global(g) => s.push_str(&format!(
                    " base global #{g} off [{}, {}]",
                    p.off_lo, p.off_hi
                )),
                PtrBase::Unknown => {}
            }
            if p.align_tz > 0 {
                s.push_str(&format!(" align {}", 1u32 << p.align_tz.min(8)));
            }
            s
        }
    }
}

/// Renders the whole analysis in a stable, line-oriented format.
pub fn render(m: &Module, mi: &ModuleAbsint) -> String {
    let mut out = String::new();
    out.push_str(&format!("module {}\n", m.name));
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        out.push_str(&format!("fn @{}\n", f.name));
        if let Some(s) = mi.summary(fid) {
            for (i, a) in s.args.iter().enumerate() {
                out.push_str(&format!("  arg {i}: {}\n", render_absval(a)));
            }
            out.push_str(&format!("  ret: {}\n", render_absval(&s.ret)));
        }
        if let Some(facts) = mi.facts(fid) {
            for b in f.block_ids() {
                let Some(block) = f.block(b) else { continue };
                out.push_str(&format!("  {b}:\n"));
                for &id in &block.insts {
                    if f.op(id).result_ty() == Ty::Void {
                        continue;
                    }
                    out.push_str(&format!(
                        "    %{}: {}\n",
                        id.0,
                        render_absval(&facts.value(id))
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    fn facts_of(text: &str, func: &str) -> (Module, ModuleAbsint, FuncId) {
        let m = parse_module(text).expect("test module parses");
        let mi = analyze_module_with(&m, None);
        let fid = m.func_by_name(func).expect("function exists");
        (m, mi, fid)
    }

    #[test]
    fn straight_line_constant_folding() {
        let (m, mi, fid) = facts_of(
            r#"
module "t"

fn @main() -> i64 internal {
bb0:
  %0 = add i64 2:i64, 3:i64
  %1 = mul i64 %0, 4:i64
  ret %1
}
"#,
            "main",
        );
        let f = m.func(fid).unwrap();
        let ids = f.inst_ids();
        let facts = mi.facts(fid).unwrap();
        assert_eq!(facts.value(ids[0]).singleton(), Some(5));
        assert_eq!(facts.value(ids[1]).singleton(), Some(20));
        assert_eq!(mi.summary(fid).unwrap().ret.singleton(), Some(20));
    }

    #[test]
    fn loop_counter_widens_but_terminates() {
        // while (i < 10) i++ — the back edge forces widening; the analysis
        // must terminate and keep i's lower bound
        let (m, mi, fid) = facts_of(
            r#"
module "t"

fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#,
            "main",
        );
        let f = m.func(fid).unwrap();
        let phi = f.inst_ids()[1];
        let facts = mi.facts(fid).unwrap();
        let pf = facts.value(phi);
        let int = pf.as_int().expect("phi is an integer");
        // Without branch-edge refinement the wrapping increment forces the
        // counter to ⊤ — the point of this test is that widening got there
        // in finitely many joins instead of counting up one by one.
        assert!(int.is_top(), "widened to ⊤: {int:?}");
        let ret = mi.summary(fid).unwrap().ret;
        assert!(!ret.is_bottom(), "exit block stayed reachable");
    }

    #[test]
    fn widening_terminates_on_nested_and_down_counting_loops() {
        // the nastiest chain shapes for interval widening: a two-deep nest
        // whose inner counter runs *down*, plus a stand-alone down-counting
        // loop with a stride that skips the exit value. The assertion is
        // mostly that `analyze_module_with` converges (a widening bug here loops
        // until SCC_ITER_LIMIT or forever); the summaries staying non-⊥
        // pins that every exit stayed reachable through the joins.
        let (_, mi, outer) = facts_of(
            r#"
module "t"

fn @nest(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb4: %i2]
  %s = phi i64 [bb0: 0:i64], [bb4: %t]
  %ci = icmp slt i64 %i, %arg0
  condbr %ci, bb2, bb5
bb2:
  %j = phi i64 [bb1: 8:i64], [bb3: %j2]
  %t = phi i64 [bb1: %s], [bb3: %t2]
  %cj = icmp sgt i64 %j, 0:i64
  condbr %cj, bb3, bb4
bb3:
  %t2 = add i64 %t, %j
  %j2 = sub i64 %j, 1:i64
  br bb2
bb4:
  %i2 = add i64 %i, 1:i64
  br bb1
bb5:
  ret %s
}

fn @down(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: %arg0], [bb2: %i2]
  %c = icmp sgt i64 %i, 0:i64
  condbr %c, bb2, bb3
bb2:
  %i2 = sub i64 %i, 3:i64
  br bb1
bb3:
  ret %i
}
"#,
            "nest",
        );
        assert!(!mi.summary(outer).unwrap().ret.is_bottom());
        let down = mi.summaries.values().filter(|s| !s.ret.is_bottom()).count();
        assert_eq!(down, 2, "both loop functions reached their exits");
    }

    #[test]
    fn interprocedural_return_summary_flows_to_caller() {
        let (m, mi, fid) = facts_of(
            r#"
module "t"

fn @five() -> i64 internal {
bb0:
  ret 5:i64
}

fn @main() -> i64 internal {
bb0:
  %0 = call @five() -> i64
  %1 = add i64 %0, 1:i64
  ret %1
}
"#,
            "main",
        );
        let f = m.func(fid).unwrap();
        let facts = mi.facts(fid).unwrap();
        assert_eq!(facts.value(f.inst_ids()[1]).singleton(), Some(6));
    }

    #[test]
    fn argument_summaries_sharpen_in_round_two() {
        let (m, mi, _) = facts_of(
            r#"
module "t"

fn @helper(i64) -> i64 internal {
bb0:
  %0 = add i64 %arg0, 1:i64
  ret %0
}

fn @main() -> i64 internal {
bb0:
  %0 = call @helper(41:i64) -> i64
  ret %0
}
"#,
            "main",
        );
        let hid = m.func_by_name("helper").unwrap();
        let s = mi.summary(hid).unwrap();
        assert_eq!(s.args[0].singleton(), Some(41), "call-site arg joined");
        assert_eq!(s.ret.singleton(), Some(42), "return recomputed with it");
    }

    #[test]
    fn recursion_reaches_a_sound_fixpoint() {
        let (m, mi, _) = facts_of(
            r#"
module "t"

fn @count(i64) -> i64 internal {
bb0:
  %0 = icmp sle i64 %arg0, 0:i64
  condbr %0, bb1, bb2
bb1:
  ret 0:i64
bb2:
  %1 = sub i64 %arg0, 1:i64
  %2 = call @count(%1) -> i64
  %3 = add i64 %2, 1:i64
  ret %3
}

fn @main() -> i64 internal {
bb0:
  %0 = call @count(3:i64) -> i64
  ret %0
}
"#,
            "main",
        );
        // the summary must be a sound over-approximation of {0..}, not ⊥
        let s = mi.summary(m.func_by_name("count").unwrap()).unwrap();
        assert!(!s.ret.is_bottom(), "recursive summary converged");
    }

    #[test]
    fn lints_fire_on_provable_traps() {
        let m = parse_module(
            r#"
module "t"

fn @main(i64) -> i64 internal {
bb0:
  %0 = srem i64 %arg0, 7:i64
  %1 = mul i64 %0, 0:i64
  %2 = sdiv i64 %arg0, %1
  ret %2
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        lint_with(&m, &analyze_module_with(&m, None), &mut out);
        assert!(
            out.iter().any(|d| d.code == codes::RANGE_TRAP),
            "x * 0 is provably zero: {out:?}"
        );
    }

    #[test]
    fn clean_code_stays_clean() {
        let m = parse_module(
            r#"
module "t"

fn @main(i64) -> i64 internal {
bb0:
  %0 = srem i64 %arg0, 7:i64
  %1 = add i64 %0, 10:i64
  %2 = sdiv i64 100:i64, %1
  ret %2
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        lint_with(&m, &analyze_module_with(&m, None), &mut out);
        assert!(out.is_empty(), "srem in [-6,6] + 10 is never zero: {out:?}");
    }

    #[test]
    fn dead_branch_note_on_proven_condition() {
        let m = parse_module(
            r#"
module "t"

fn @main(i64) -> i64 internal {
bb0:
  %0 = srem i64 %arg0, 4:i64
  %1 = icmp slt i64 %0, 100:i64
  condbr %1, bb1, bb2
bb1:
  ret 1:i64
bb2:
  ret 2:i64
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        lint_with(&m, &analyze_module_with(&m, None), &mut out);
        let notes: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::DEAD_BRANCH)
            .collect();
        assert_eq!(notes.len(), 1, "{out:?}");
        assert!(notes[0].message.contains("provably true"));
    }

    #[test]
    fn render_is_stable_and_mentions_facts() {
        let (m, mi, _) = facts_of(
            r#"
module "t"

fn @main() -> i64 internal {
bb0:
  %0 = add i64 2:i64, 2:i64
  ret %0
}
"#,
            "main",
        );
        let a = render(&m, &mi);
        let b = render(&m, &analyze_module_with(&m, None));
        assert_eq!(a, b, "renders deterministically");
        assert!(a.contains("fn @main"));
        assert!(a.contains("in [4, 4]"), "{a}");
    }
}
