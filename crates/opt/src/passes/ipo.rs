//! Interprocedural passes: `-globalopt`, `-globaldce`, `-deadargelim`,
//! `-constmerge`, `-strip-dead-prototypes`, the attribute-inference family
//! (`-functionattrs`, `-rpo-functionattrs`, `-attributor`, `-inferattrs`,
//! `-forceattrs`), and the faithful no-ops (`-called-value-propagation`,
//! `-elim-avail-extern`).

use crate::util::{escaping_allocas, pointer_root, PtrRoot};
use crate::Pass;
use posetrl_ir::analysis::Cfg;
use posetrl_ir::{FuncId, GlobalId, Linkage, Module, Op, Value};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// attribute inference
// ---------------------------------------------------------------------------

/// Memory behaviour of one function body, before interprocedural closure.
#[derive(Debug, Clone, Copy)]
struct LocalMem {
    writes_nonlocal: bool,
    reads_nonlocal: bool,
    has_back_edge: bool,
}

fn local_memory_behaviour(m: &Module, fid: FuncId) -> LocalMem {
    let f = m.func(fid).unwrap();
    let mut writes = false;
    let mut reads = false;
    // swept at the first stack access; most bodies after `sroa` have none
    let escaping = std::cell::OnceCell::new();
    let is_local = |v: Value| -> bool {
        match pointer_root(f, v).0 {
            PtrRoot::Alloca(a) => !escaping.get_or_init(|| escaping_allocas(f)).contains(&a),
            _ => false,
        }
    };
    for id in f.inst_ids() {
        match f.op(id) {
            Op::Store { ptr, .. } | Op::MemSet { dst: ptr, .. } if !is_local(*ptr) => {
                writes = true;
            }
            Op::MemCpy { dst, src, .. } => {
                if !is_local(*dst) {
                    writes = true;
                }
                if !is_local(*src) {
                    reads = true;
                }
            }
            Op::Load { ptr, .. } if !is_local(*ptr) => {
                reads = true;
            }
            _ => {}
        }
    }
    let cfg = Cfg::compute(f);
    let index = cfg.rpo_index();
    let mut back_edge = false;
    for (&b, succs) in &cfg.succs {
        for s in succs {
            if let (Some(&ib), Some(&is)) = (index.get(&b), index.get(s)) {
                if is <= ib {
                    back_edge = true;
                }
            }
        }
    }
    LocalMem {
        writes_nonlocal: writes,
        reads_nonlocal: reads,
        has_back_edge: back_edge,
    }
}

/// Shared implementation of the attribute-inference passes.
fn infer_function_attrs(module: &mut Module) -> bool {
    let fids: Vec<FuncId> = module.func_ids().collect();
    let locals: HashMap<FuncId, LocalMem> = fids
        .iter()
        .filter(|&&fid| !module.func(fid).unwrap().is_decl)
        .map(|&fid| (fid, local_memory_behaviour(module, fid)))
        .collect();

    // direct call edges among defined functions; calls to decls are tracked
    // separately (a decl call is observable I/O — never readonly)
    let mut callees: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
    let mut calls_decl: HashSet<FuncId> = HashSet::new();
    for &fid in &fids {
        let f = module.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        for id in f.inst_ids() {
            if let Op::Call { callee, .. } = f.op(id) {
                if module.func(*callee).unwrap().is_decl {
                    calls_decl.insert(fid);
                } else {
                    callees.entry(fid).or_default().push(*callee);
                }
            }
        }
    }

    // transitive-callee closure for norecurse
    let mut reach: HashMap<FuncId, HashSet<FuncId>> = HashMap::new();
    for &fid in &fids {
        let mut seen = HashSet::new();
        let mut stack: Vec<FuncId> = callees.get(&fid).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                stack.extend(callees.get(&c).cloned().unwrap_or_default());
            }
        }
        reach.insert(fid, seen);
    }

    // optimistic start, refine downwards to a fixpoint
    let mut readnone: HashMap<FuncId, bool> = HashMap::new();
    let mut readonly: HashMap<FuncId, bool> = HashMap::new();
    let mut willreturn: HashMap<FuncId, bool> = HashMap::new();
    for &fid in &fids {
        let f = module.func(fid).unwrap();
        if f.is_decl {
            // externals: unknown side effects, but assumed to return (the
            // runtime's print helpers do); inferattrs refines further
            readnone.insert(fid, false);
            readonly.insert(fid, false);
            willreturn.insert(fid, true);
            continue;
        }
        let lm = locals[&fid];
        readnone.insert(
            fid,
            !lm.writes_nonlocal && !lm.reads_nonlocal && !calls_decl.contains(&fid),
        );
        readonly.insert(fid, !lm.writes_nonlocal && !calls_decl.contains(&fid));
        willreturn.insert(fid, !lm.has_back_edge);
    }
    let mut changed_fix = true;
    while changed_fix {
        changed_fix = false;
        for &fid in &fids {
            let f = module.func(fid).unwrap();
            if f.is_decl {
                continue;
            }
            let cs = callees.get(&fid).cloned().unwrap_or_default();
            let rn = readnone[&fid] && cs.iter().all(|c| readnone[c]);
            let ro = readonly[&fid] && cs.iter().all(|c| readonly[c]);
            let wr =
                willreturn[&fid] && cs.iter().all(|c| willreturn[c]) && !reach[&fid].contains(&fid);
            if rn != readnone[&fid] || ro != readonly[&fid] || wr != willreturn[&fid] {
                readnone.insert(fid, rn);
                readonly.insert(fid, ro);
                willreturn.insert(fid, wr);
                changed_fix = true;
            }
        }
    }

    let mut changed = false;
    for &fid in &fids {
        let norec = !reach.get(&fid).map(|r| r.contains(&fid)).unwrap_or(false);
        let f = module.func_mut(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let new = posetrl_ir::FnAttrs {
            readnone: readnone[&fid],
            readonly: readonly[&fid] || readnone[&fid],
            norecurse: norec,
            nounwind: true,
            willreturn: willreturn[&fid],
        };
        if f.attrs != new {
            f.attrs = new;
            changed = true;
        }
    }
    changed
}

/// `-functionattrs` / `-rpo-functionattrs`: attribute inference. Both
/// variants share the fixpoint engine (the RPO variant differs in LLVM only
/// in traversal order, which the fixpoint subsumes).
#[derive(Debug, Clone, Copy)]
pub struct FunctionAttrs {
    rpo: bool,
}

impl FunctionAttrs {
    /// The `-functionattrs` instance.
    pub fn forward() -> FunctionAttrs {
        FunctionAttrs { rpo: false }
    }

    /// The `-rpo-functionattrs` instance.
    pub fn rpo() -> FunctionAttrs {
        FunctionAttrs { rpo: true }
    }
}

impl Pass for FunctionAttrs {
    fn name(&self) -> &'static str {
        if self.rpo {
            "rpo-functionattrs"
        } else {
            "functionattrs"
        }
    }

    fn run(&self, module: &mut Module) -> bool {
        infer_function_attrs(module)
    }
}

/// `-attributor`: the heavyweight attribute-deduction framework; here it is
/// the same fixpoint as `functionattrs` (which already reaches the closure
/// our attribute lattice supports).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attributor;

impl Pass for Attributor {
    fn name(&self) -> &'static str {
        "attributor"
    }

    fn run(&self, module: &mut Module) -> bool {
        infer_function_attrs(module)
    }
}

/// `-inferattrs`: seeds attributes of known runtime declarations (the
/// `print_*` family): they perform I/O (never readnone/readonly) but always
/// return and never recurse.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferAttrs;

impl Pass for InferAttrs {
    fn name(&self) -> &'static str {
        "inferattrs"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        let fids: Vec<FuncId> = module.func_ids().collect();
        for fid in fids {
            let f = module.func_mut(fid).unwrap();
            if f.is_decl && f.name.starts_with("print_") {
                let new = posetrl_ir::FnAttrs {
                    readnone: false,
                    readonly: false,
                    norecurse: true,
                    nounwind: true,
                    willreturn: true,
                };
                if f.attrs != new {
                    f.attrs = new;
                    changed = true;
                }
            }
        }
        changed
    }
}

/// `-forceattrs`: applies attributes listed on the command line; none are
/// configured in this reproduction, so it faithfully does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForceAttrs;

impl Pass for ForceAttrs {
    fn name(&self) -> &'static str {
        "forceattrs"
    }

    fn run(&self, _module: &mut Module) -> bool {
        false
    }
}

/// `-called-value-propagation`: attaches possible-callee metadata to
/// indirect calls; the mini-IR only has direct calls, so this faithfully
/// does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalledValuePropagation;

impl Pass for CalledValuePropagation {
    fn name(&self) -> &'static str {
        "called-value-propagation"
    }

    fn run(&self, _module: &mut Module) -> bool {
        false
    }
}

/// `-elim-avail-extern`: converts `available_externally` definitions to
/// declarations; that linkage does not exist in the mini-IR, so this
/// faithfully does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElimAvailExtern;

impl Pass for ElimAvailExtern {
    fn name(&self) -> &'static str {
        "elim-avail-extern"
    }

    fn run(&self, _module: &mut Module) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// global optimization / DCE
// ---------------------------------------------------------------------------

/// Which globals are written (stores/memset/memcpy-dst or escaping uses).
fn written_globals(m: &Module) -> HashSet<GlobalId> {
    let mut out = HashSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        for id in f.inst_ids() {
            let mut mark = |v: Value| {
                match pointer_root(f, v).0 {
                    PtrRoot::Global(g) => {
                        out.insert(g);
                    }
                    PtrRoot::Unknown => {
                        // writing through unknown pointers may hit any global
                        for g in m.global_ids() {
                            out.insert(g);
                        }
                    }
                    PtrRoot::Alloca(_) => {}
                }
            };
            match f.op(id) {
                Op::Store { ptr, val, .. } => {
                    mark(*ptr);
                    // a global whose *address* is stored escapes: assume written
                    if let PtrRoot::Global(g) = pointer_root(f, *val).0 {
                        out.insert(g);
                    }
                }
                Op::MemSet { dst, .. } => mark(*dst),
                Op::MemCpy { dst, .. } => mark(*dst),
                Op::Call { args, .. } => {
                    for a in args {
                        if let PtrRoot::Global(g) = pointer_root(f, *a).0 {
                            out.insert(g); // callee may write through it
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// `-globalopt`: marks never-written internal globals constant and deletes
/// stores to never-read internal globals.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalOpt;

impl Pass for GlobalOpt {
    fn name(&self) -> &'static str {
        "globalopt"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        let written = written_globals(module);
        let read = crate::util::globals_read_or_escaping(module);

        // never-written internal mutable globals become constants
        let gids: Vec<GlobalId> = module.global_ids().collect();
        for gid in &gids {
            let g = module.global(*gid).unwrap();
            if g.mutable && g.linkage == Linkage::Internal && !written.contains(gid) {
                module.global_mut(*gid).unwrap().mutable = false;
                changed = true;
            }
        }

        // stores to never-read internal globals are dead
        let dead_targets: HashSet<GlobalId> = gids
            .iter()
            .copied()
            .filter(|g| {
                let gl = module.global(*g).unwrap();
                gl.linkage == Linkage::Internal && !read.contains(g)
            })
            .collect();
        if !dead_targets.is_empty() {
            let fids: Vec<FuncId> = module.func_ids().collect();
            for fid in fids {
                if module.func(fid).unwrap().is_decl {
                    continue;
                }
                let f = module.func_mut(fid).unwrap();
                for id in f.inst_ids() {
                    let kill = match f.op(id) {
                        Op::Store { ptr, .. } | Op::MemSet { dst: ptr, .. } => {
                            matches!(pointer_root(f, *ptr).0, PtrRoot::Global(g) if dead_targets.contains(&g))
                        }
                        _ => false,
                    };
                    if kill {
                        f.remove_inst(id);
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// Roots and reachability for `globaldce`.
fn reachable_symbols(m: &Module) -> (HashSet<FuncId>, HashSet<GlobalId>) {
    let mut funcs: HashSet<FuncId> = HashSet::new();
    let mut globals: HashSet<GlobalId> = HashSet::new();
    let mut work: Vec<FuncId> = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.linkage == Linkage::External || f.name == "main" {
            funcs.insert(fid);
            work.push(fid);
        }
    }
    for gid in m.global_ids() {
        if m.global(gid).unwrap().linkage == Linkage::External {
            globals.insert(gid);
        }
    }
    while let Some(fid) = work.pop() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        for id in f.inst_ids() {
            if let Op::Call { callee, .. } = f.op(id) {
                if funcs.insert(*callee) {
                    work.push(*callee);
                }
            }
            for v in f.op(id).operands() {
                match v {
                    Value::Global(g) => {
                        globals.insert(g);
                    }
                    Value::Func(t) if funcs.insert(t) => {
                        work.push(t);
                    }
                    _ => {}
                }
            }
        }
    }
    (funcs, globals)
}

/// `-globaldce`: removes unreferenced internal functions and globals.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalDce;

impl Pass for GlobalDce {
    fn name(&self) -> &'static str {
        "globaldce"
    }

    fn run(&self, module: &mut Module) -> bool {
        let (funcs, globals) = reachable_symbols(module);
        let mut changed = false;
        for fid in module.func_ids().collect::<Vec<_>>() {
            let f = module.func(fid).unwrap();
            if !funcs.contains(&fid) && f.linkage == Linkage::Internal && !f.is_decl {
                module.remove_function(fid);
                changed = true;
            }
        }
        for gid in module.global_ids().collect::<Vec<_>>() {
            if !globals.contains(&gid) && module.global(gid).unwrap().linkage == Linkage::Internal {
                module.remove_global(gid);
                changed = true;
            }
        }
        changed
    }
}

/// `-deadargelim`: removes unused parameters of internal functions and
/// rewrites every call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadArgElim;

impl Pass for DeadArgElim {
    fn name(&self) -> &'static str {
        "deadargelim"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        // address-taken functions keep their signature
        let mut address_taken: HashSet<FuncId> = HashSet::new();
        for fid in module.func_ids() {
            let f = module.func(fid).unwrap();
            for id in f.inst_ids() {
                for v in f.op(id).operands() {
                    if let Value::Func(t) = v {
                        address_taken.insert(t);
                    }
                }
            }
        }
        let fids: Vec<FuncId> = module.func_ids().collect();
        for fid in fids {
            let f = module.func(fid).unwrap();
            if f.is_decl || f.linkage != Linkage::Internal || address_taken.contains(&fid) {
                continue;
            }
            if f.name == "main" {
                continue; // the harness entry keeps its signature
            }
            let nparams = f.params.len();
            if nparams == 0 {
                continue;
            }
            let mut used = vec![false; nparams];
            for id in f.inst_ids() {
                for v in f.op(id).operands() {
                    if let Value::Arg(i) = v {
                        if let Some(slot) = used.get_mut(i as usize) {
                            *slot = true;
                        }
                    }
                }
            }
            if used.iter().all(|&u| u) {
                continue;
            }
            // index remapping for kept params
            let mut remap: Vec<Option<u32>> = Vec::with_capacity(nparams);
            let mut next = 0u32;
            for &u in &used {
                if u {
                    remap.push(Some(next));
                    next += 1;
                } else {
                    remap.push(None);
                }
            }
            // rewrite the function signature and body
            {
                let f = module.func_mut(fid).unwrap();
                f.params = f
                    .params
                    .iter()
                    .zip(&used)
                    .filter(|(_, &u)| u)
                    .map(|(t, _)| *t)
                    .collect();
                for id in f.inst_ids() {
                    if let Some(inst) = f.inst_mut(id) {
                        inst.op.map_operands(|v| match v {
                            Value::Arg(i) => Value::Arg(remap[i as usize].expect("kept arg")),
                            other => other,
                        });
                    }
                }
            }
            // rewrite all call sites
            for caller in module.func_ids().collect::<Vec<_>>() {
                if module.func(caller).unwrap().is_decl {
                    continue;
                }
                let f = module.func_mut(caller).unwrap();
                for id in f.inst_ids() {
                    let Some(inst) = f.inst_mut(id) else { continue };
                    if let Op::Call { callee, args, .. } = &mut inst.op {
                        if *callee == fid {
                            let kept: Vec<Value> = args
                                .iter()
                                .zip(&used)
                                .filter(|(_, &u)| u)
                                .map(|(v, _)| *v)
                                .collect();
                            *args = kept;
                        }
                    }
                }
            }
            changed = true;
        }
        changed
    }
}

/// `-constmerge`: merges duplicate immutable globals.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstMerge;

impl Pass for ConstMerge {
    fn name(&self) -> &'static str {
        "constmerge"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut canonical: HashMap<(posetrl_ir::Ty, u32, Vec<posetrl_ir::Const>), GlobalId> =
            HashMap::new();
        let mut replace: Vec<(GlobalId, GlobalId)> = Vec::new();
        for gid in module.global_ids() {
            let g = module.global(gid).unwrap();
            if g.mutable || g.linkage != Linkage::Internal {
                continue;
            }
            let key = (g.ty, g.count, g.init.clone());
            match canonical.get(&key) {
                Some(&first) => replace.push((gid, first)),
                None => {
                    canonical.insert(key, gid);
                }
            }
        }
        if replace.is_empty() {
            return false;
        }
        let fids: Vec<FuncId> = module.func_ids().collect();
        for fid in fids {
            if module.func(fid).unwrap().is_decl {
                continue;
            }
            let f = module.func_mut(fid).unwrap();
            for id in f.inst_ids() {
                if let Some(inst) = f.inst_mut(id) {
                    inst.op.map_operands(|v| match v {
                        Value::Global(g) => match replace.iter().find(|(dup, _)| *dup == g) {
                            Some((_, first)) => Value::Global(*first),
                            None => v,
                        },
                        other => other,
                    });
                }
            }
        }
        for (dup, _) in replace {
            module.remove_global(dup);
        }
        true
    }
}

/// `-strip-dead-prototypes`: removes unreferenced external declarations.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripDeadPrototypes;

impl Pass for StripDeadPrototypes {
    fn name(&self) -> &'static str {
        "strip-dead-prototypes"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut referenced: HashSet<FuncId> = HashSet::new();
        for fid in module.func_ids() {
            let f = module.func(fid).unwrap();
            for id in f.inst_ids() {
                if let Op::Call { callee, .. } = f.op(id) {
                    referenced.insert(*callee);
                }
                for v in f.op(id).operands() {
                    if let Value::Func(t) = v {
                        referenced.insert(t);
                    }
                }
            }
        }
        let mut changed = false;
        for fid in module.func_ids().collect::<Vec<_>>() {
            let f = module.func(fid).unwrap();
            if f.is_decl && !referenced.contains(&fid) {
                module.remove_function(fid);
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;
    use posetrl_ir::Linkage;

    #[test]
    fn functionattrs_marks_pure_function() {
        let m = assert_preserves(
            r#"
module "m"
fn @pure(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, %arg0
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = call @pure(4:i64) -> i64
  ret %a
}
"#,
            &["functionattrs"],
            &[],
        );
        let f = m.func(m.func_by_name("pure").unwrap()).unwrap();
        assert!(f.attrs.readnone && f.attrs.willreturn && f.attrs.norecurse);
    }

    #[test]
    fn functionattrs_enables_call_cse() {
        let m = assert_preserves(
            r#"
module "m"
fn @pure(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, %arg0
  ret %r
}
fn @main(i64) -> i64 internal {
bb0:
  %a = call @pure(%arg0) -> i64
  %b = call @pure(%arg0) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["functionattrs", "early-cse"],
            &[vec![RtVal::Int(3)]],
        );
        assert_eq!(count_ops(&m, "call"), 1, "duplicate pure call CSE'd");
    }

    #[test]
    fn recursive_function_not_willreturn() {
        let m = assert_preserves(
            r#"
module "m"
fn @rec(i64) -> i64 internal {
bb0:
  %c = icmp sle i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  ret 0:i64
bb2:
  %n = sub i64 %arg0, 1:i64
  %r = call @rec(%n) -> i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %r = call @rec(3:i64) -> i64
  ret %r
}
"#,
            &["functionattrs"],
            &[],
        );
        let f = m.func(m.func_by_name("rec").unwrap()).unwrap();
        assert!(!f.attrs.norecurse);
        assert!(!f.attrs.willreturn);
        assert!(f.attrs.readnone, "recursion is still memory-pure");
    }

    #[test]
    fn print_calls_are_never_pure() {
        let m = assert_preserves(
            r#"
module "m"
declare @print_i64(i64) -> void
fn @noisy(i64) -> i64 internal {
bb0:
  call @print_i64(%arg0) -> void
  ret %arg0
}
fn @main() -> i64 internal {
bb0:
  %a = call @noisy(1:i64) -> i64
  %b = call @noisy(1:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["inferattrs", "functionattrs", "early-cse", "adce"],
            &[],
        );
        assert_eq!(
            count_ops(&m, "call"),
            3,
            "both noisy calls and the inner print survive"
        );
    }

    #[test]
    fn globalopt_constifies_unwritten_global() {
        let m = assert_preserves(
            r#"
module "m"
global @k : i64 x 1 mutable internal = [9:i64]
fn @main() -> i64 internal {
bb0:
  %v = load i64, @k
  ret %v
}
"#,
            &["globalopt", "instcombine"],
            &[],
        );
        let g = m.global(m.global_by_name("k").unwrap()).unwrap();
        assert!(!g.mutable);
        assert_eq!(count_ops(&m, "load"), 0, "constified load folds away");
    }

    #[test]
    fn globalopt_removes_stores_to_writeonly_global() {
        let m = assert_preserves(
            r#"
module "m"
global @sink : i64 x 1 mutable internal = []
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @sink
  store i64 1:i64, @sink
  ret %arg0
}
"#,
            &["globalopt"],
            &[vec![RtVal::Int(5)]],
        );
        assert_eq!(count_ops(&m, "store"), 0);
    }

    #[test]
    fn globaldce_removes_dead_function_and_global() {
        let m = assert_preserves(
            r#"
module "m"
global @dead : i64 x 8 mutable internal = []
fn @unused() -> void internal {
bb0:
  ret
}
fn @main() -> i64 internal {
bb0:
  ret 3:i64
}
"#,
            &["globaldce"],
            &[],
        );
        assert!(m.func_by_name("unused").is_none());
        assert!(m.global_by_name("dead").is_none());
        assert!(m.func_by_name("main").is_some());
    }

    #[test]
    fn deadargelim_drops_unused_parameter() {
        let m = assert_preserves(
            r#"
module "m"
fn @f(i64, i64, i64) -> i64 internal {
bb0:
  %r = add i64 %arg0, %arg2
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %r = call @f(1:i64, 2:i64, 3:i64) -> i64
  ret %r
}
"#,
            &["deadargelim"],
            &[],
        );
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn constmerge_deduplicates_constants() {
        let m = assert_preserves(
            r#"
module "m"
global @a : i64 x 2 const internal = [1:i64, 2:i64]
global @b : i64 x 2 const internal = [1:i64, 2:i64]
fn @main() -> i64 internal {
bb0:
  %x = load i64, @a
  %p = gep i64, @b, 1:i64
  %y = load i64, %p
  %r = add i64 %x, %y
  ret %r
}
"#,
            &["constmerge", "globaldce"],
            &[],
        );
        let count = m.global_ids().count();
        assert_eq!(count, 1, "duplicate constant merged then dce'd");
    }

    #[test]
    fn strip_dead_prototypes_removes_unused_decl() {
        let m = assert_preserves(
            r#"
module "m"
declare @never_called(i64) -> void
declare @print_i64(i64) -> void
fn @main() -> void internal {
bb0:
  call @print_i64(1:i64) -> void
  ret
}
"#,
            &["strip-dead-prototypes"],
            &[],
        );
        assert!(m.func_by_name("never_called").is_none());
        assert!(m.func_by_name("print_i64").is_some());
    }

    #[test]
    fn external_function_survives_globaldce() {
        let m = assert_preserves(
            r#"
module "m"
fn @api() -> i64 external {
bb0:
  ret 1:i64
}
fn @main() -> i64 internal {
bb0:
  ret 0:i64
}
"#,
            &["globaldce"],
            &[],
        );
        assert!(m.func_by_name("api").is_some());
        let f = m.func(m.func_by_name("api").unwrap()).unwrap();
        assert_eq!(f.linkage, Linkage::External);
    }
}
