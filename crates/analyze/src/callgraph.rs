//! The call graph the two interprocedural analyses (absint and alias)
//! share, and the bottom-up SCC fixpoint both of their module drivers run.
//!
//! [`CallGraph::new`] walks the module once for the direct callees, the
//! address-taken functions and the call-site counts, and orders the
//! call-graph SCCs bottom-up. The arena fingerprints that key the
//! per-function memos are computed on first use, which only a driver
//! holding a manager ever reaches (see [`crate::memo::memoized`]).

use posetrl_ir::{FuncId, Function, Module, Op, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{Debug, Write as _};

/// Upper bound on within-SCC summary iterations before the member
/// summaries widen.
pub(crate) const SCC_ITER_LIMIT: usize = 24;

/// One module's call graph, built once per driver run.
pub(crate) struct CallGraph<'m> {
    m: &'m Module,
    /// Sorted, deduplicated direct callees of every function body.
    pub callees: HashMap<u32, Vec<u32>>,
    /// Functions whose address is an operand somewhere in the module.
    pub address_taken: HashSet<u32>,
    /// Direct call sites per callee.
    pub call_counts: HashMap<u32, usize>,
    /// Call-graph SCCs, bottom-up (every SCC precedes its callers).
    pub sccs: Vec<Vec<u32>>,
    fingerprints: OnceCell<BTreeMap<u32, u128>>,
}

impl<'m> CallGraph<'m> {
    /// The call graph of `m`.
    pub fn new(m: &'m Module) -> CallGraph<'m> {
        let mut callees: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut address_taken = HashSet::new();
        let mut call_counts: HashMap<u32, usize> = HashMap::new();
        for fid in m.func_ids() {
            let f = m.func(fid).expect("func_ids yields live functions");
            if f.is_decl {
                continue;
            }
            let mut cs = Vec::new();
            for id in f.inst_ids() {
                let op = f.op(id);
                if let Op::Call { callee, .. } = op {
                    cs.push(callee.0);
                    *call_counts.entry(callee.0).or_default() += 1;
                }
                for v in op.operands() {
                    if let Value::Func(g) = v {
                        address_taken.insert(g.0);
                    }
                }
            }
            cs.sort_unstable();
            cs.dedup();
            callees.insert(fid.0, cs);
        }
        let sccs = sccs(m, &callees);
        CallGraph {
            m,
            callees,
            address_taken,
            call_counts,
            sccs,
            fingerprints: OnceCell::new(),
        }
    }

    /// The arena fingerprint of function `i`
    /// ([`posetrl_ir::function_fingerprint`]); the first call
    /// fingerprints every function.
    pub fn fingerprint(&self, i: u32) -> u128 {
        self.fingerprints.get_or_init(|| {
            self.m
                .func_ids()
                .map(|fid| {
                    let f = self.m.func(fid).expect("func_ids yields live functions");
                    (fid.0, posetrl_ir::function_fingerprint(self.m, f))
                })
                .collect()
        })[&i]
    }

    /// Digest of what `i` reads of its direct callees' summaries:
    /// `part` of each callee's summary, or `N` for a callee without one
    /// yet. The memo-key component through which a moved callee summary
    /// reaches its callers.
    pub fn callee_digest<S, D: Debug + ?Sized>(
        &self,
        i: u32,
        summaries: &BTreeMap<u32, S>,
        part: impl Fn(&S) -> &D,
    ) -> u128 {
        let mut cal = String::new();
        for c in self.callees.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
            let _ = match summaries.get(c) {
                Some(s) => write!(cal, "{c}:{:?};", part(s)),
                None => write!(cal, "{c}:N;"),
            };
        }
        posetrl_ir::digest_str(&cal)
    }

    /// The bottom-up SCC fixpoint. Within each SCC (declarations left
    /// out) every member's summary starts at `bottom`; each round visits
    /// the members in order against the current summaries and `merge`s
    /// each visit's result into that member's summary, until a round
    /// changes nothing. After [`SCC_ITER_LIMIT`] rounds every member's
    /// summary is replaced by `widen`, and each member is visited once
    /// more against the widened summaries (that result is dropped).
    pub fn scc_fixpoint<S, R>(
        &self,
        summaries: &mut BTreeMap<u32, S>,
        bottom: impl Fn(u32, &Function) -> S,
        widen: impl Fn(u32, &Function) -> S,
        mut visit: impl FnMut(u32, &Function, &BTreeMap<u32, S>) -> R,
        merge: impl Fn(&mut S, R) -> bool,
    ) {
        let func = |i: u32| self.m.func(FuncId(i)).expect("SCC members are live");
        for scc in &self.sccs {
            let members: Vec<u32> = scc
                .iter()
                .copied()
                .filter(|i| !self.m.func(FuncId(*i)).map(|f| f.is_decl).unwrap_or(true))
                .collect();
            if members.is_empty() {
                continue;
            }
            for &i in &members {
                summaries.insert(i, bottom(i, func(i)));
            }
            let mut iter = 0;
            loop {
                let mut changed = false;
                for &i in &members {
                    let r = visit(i, func(i), summaries);
                    let s = summaries.get_mut(&i).expect("members start at bottom");
                    changed |= merge(s, r);
                }
                iter += 1;
                if !changed {
                    break;
                }
                if iter >= SCC_ITER_LIMIT {
                    for &i in &members {
                        summaries.insert(i, widen(i, func(i)));
                    }
                    for &i in &members {
                        visit(i, func(i), summaries);
                    }
                    break;
                }
            }
        }
    }
}

/// Iterative Tarjan SCC over the call graph; returns SCCs bottom-up
/// (every SCC precedes its callers).
fn sccs(m: &Module, callees: &HashMap<u32, Vec<u32>>) -> Vec<Vec<u32>> {
    let nodes: Vec<u32> = m.func_ids().map(|f| f.0).collect();
    let mut index: HashMap<u32, u32> = HashMap::new();
    let mut low: HashMap<u32, u32> = HashMap::new();
    let mut on_stack: HashSet<u32> = HashSet::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();

    for &root in &nodes {
        if index.contains_key(&root) {
            continue;
        }
        // explicit DFS frames: (node, next child position)
        let mut frames: Vec<(u32, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index.insert(v, next);
                low.insert(v, next);
                next += 1;
                stack.push(v);
                on_stack.insert(v);
            }
            let succs = callees.get(&v).map(|s| s.as_slice()).unwrap_or(&[]);
            if *ci < succs.len() {
                let w = succs[*ci];
                *ci += 1;
                if !index.contains_key(&w) {
                    frames.push((w, 0));
                } else if on_stack.contains(&w) {
                    let lw = index[&w];
                    let lv = low.get_mut(&v).expect("v is on the DFS stack");
                    *lv = (*lv).min(lw);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let lv = low[&v];
                    let lp = low.get_mut(&p).expect("p is on the DFS stack");
                    *lp = (*lp).min(lv);
                }
                if low[&v] == index[&v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack.remove(&w);
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}
