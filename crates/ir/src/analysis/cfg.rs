//! Control-flow graph: successors, predecessors, reachability and orderings.

use crate::module::{BlockId, Function};
use std::collections::{HashMap, HashSet};

/// A snapshot of the function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Entry block.
    pub entry: BlockId,
    /// Successor lists.
    pub succs: HashMap<BlockId, Vec<BlockId>>,
    /// Predecessor lists.
    pub preds: HashMap<BlockId, Vec<BlockId>>,
    /// Blocks reachable from the entry, in reverse post-order.
    pub rpo: Vec<BlockId>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let mut succs: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for b in f.block_ids() {
            succs.insert(b, f.successors(b));
            preds.entry(b).or_default();
        }
        // Build predecessor lists in block order, not map order: pred-list
        // order reaches the printed form (phi incomings follow it), so it
        // must be a deterministic function of the module.
        for b in f.block_ids() {
            for &s in &succs[&b] {
                preds.entry(s).or_default().push(b);
            }
        }
        let rpo = Self::reverse_post_order(f.entry, &succs);
        Cfg {
            entry: f.entry,
            succs,
            preds,
            rpo,
        }
    }

    fn reverse_post_order(entry: BlockId, succs: &HashMap<BlockId, Vec<BlockId>>) -> Vec<BlockId> {
        let mut visited = HashSet::new();
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-successor-index).
        let mut stack = vec![(entry, 0usize)];
        visited.insert(entry);
        while let Some(&mut (b, ref mut idx)) = stack.last_mut() {
            let ss = succs.get(&b).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx < ss.len() {
                let next = ss[*idx];
                *idx += 1;
                if visited.insert(next) {
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Blocks reachable from the entry.
    pub fn reachable(&self) -> HashSet<BlockId> {
        self.rpo.iter().copied().collect()
    }

    /// Post-order position of each reachable block (used by dominators).
    pub fn rpo_index(&self) -> HashMap<BlockId, usize> {
        self.rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;
    use crate::types::Ty;
    use crate::value::Value;

    /// entry -> {a, b} -> merge, plus an unreachable block.
    fn diamond() -> Function {
        let mut f = Function::new("d", vec![], Ty::Void);
        let entry = f.entry;
        let a = f.add_block();
        let b = f.add_block();
        let merge = f.add_block();
        let dead = f.add_block();
        f.append_inst(
            entry,
            Op::CondBr {
                cond: Value::bool(true),
                then_bb: a,
                else_bb: b,
            },
        );
        f.append_inst(a, Op::Br { target: merge });
        f.append_inst(b, Op::Br { target: merge });
        f.append_inst(merge, Op::Ret { val: None });
        f.append_inst(dead, Op::Ret { val: None });
        f
    }

    #[test]
    fn rpo_visits_entry_first_and_skips_unreachable() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo[0], f.entry);
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        for (&b, ss) in &cfg.succs {
            for s in ss {
                assert!(cfg.preds[s].contains(&b));
            }
        }
        assert_eq!(cfg.preds[&BlockId(3)].len(), 2);
    }

    #[test]
    fn reachable_excludes_dead_block() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.reachable().contains(&BlockId(4)));
    }
}
