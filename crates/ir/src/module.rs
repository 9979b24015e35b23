//! Modules, functions, blocks and globals.

use crate::inst::{Inst, InstId, Op};
use crate::types::Ty;
use crate::value::{Const, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Stable identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stable identifier of a global variable within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stable identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Symbol linkage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Linkage {
    /// Visible outside the module; must be preserved.
    External,
    /// Module-private; may be removed or transformed freely.
    Internal,
}

/// Function attributes inferred by interprocedural passes.
///
/// These mirror the LLVM attributes that `-functionattrs`, `-attributor` and
/// friends infer, and are consulted by CSE/GVN/DCE to treat calls as pure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnAttrs {
    /// The function neither reads nor writes observable memory and performs
    /// no I/O: calls to it are pure expressions.
    pub readnone: bool,
    /// The function may read but does not write memory and performs no I/O.
    pub readonly: bool,
    /// The function does not call itself, directly or transitively.
    pub norecurse: bool,
    /// The function cannot unwind (always true in this IR; set by prune-eh).
    pub nounwind: bool,
    /// The function always returns (no infinite loops / unreachable exits).
    pub willreturn: bool,
}

/// A basic block: an ordered list of instruction ids, the last of which is a
/// terminator once the function is complete.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Ordered instruction ids.
    pub insts: Vec<InstId>,
}

/// A global variable: `count` elements of `ty` with optional initializer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements.
    pub count: u32,
    /// Initializer; when shorter than `count` the remainder is zero-filled.
    pub init: Vec<Const>,
    /// `false` marks a constant global.
    pub mutable: bool,
    /// Symbol linkage.
    pub linkage: Linkage,
}

impl Global {
    /// Footprint in bytes (element size × count).
    pub fn byte_size(&self) -> u64 {
        self.ty.byte_size() as u64 * self.count as u64
    }
}

/// A function: parameter/return types, attributes, and a CFG of blocks over
/// an instruction arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Symbol linkage.
    pub linkage: Linkage,
    /// `true` for external declarations without a body.
    pub is_decl: bool,
    /// Inferred attributes.
    pub attrs: FnAttrs,
    /// Entry block.
    pub entry: BlockId,
    insts: Vec<Option<Inst>>,
    blocks: Vec<Option<Block>>,
}

impl Function {
    /// Creates an empty function with a fresh entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            linkage: Linkage::Internal,
            is_decl: false,
            attrs: FnAttrs::default(),
            entry: BlockId(0),
            insts: Vec::new(),
            blocks: vec![Some(Block::default())],
        }
    }

    /// Creates an external declaration (no body).
    pub fn new_decl(name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            linkage: Linkage::External,
            is_decl: true,
            attrs: FnAttrs::default(),
            entry: BlockId(0),
            insts: Vec::new(),
            blocks: Vec::new(),
        }
    }

    // ---- block management -------------------------------------------------

    /// Adds a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Some(Block::default()));
        id
    }

    /// Returns the block, if it still exists.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index()).and_then(|b| b.as_ref())
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> Option<&mut Block> {
        self.blocks.get_mut(id.index()).and_then(|b| b.as_mut())
    }

    /// Removes a block and all of its instructions.
    pub fn remove_block(&mut self, id: BlockId) {
        if let Some(Some(block)) = self.blocks.get(id.index()) {
            for iid in block.insts.clone() {
                self.insts[iid.index()] = None;
            }
        }
        if id.index() < self.blocks.len() {
            self.blocks[id.index()] = None;
        }
    }

    /// Iterates over live block ids in arena order (entry first by
    /// convention of the builder).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| BlockId(i as u32)))
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    // ---- instruction management -------------------------------------------

    /// Returns the instruction, if it still exists.
    pub fn inst(&self, id: InstId) -> Option<&Inst> {
        self.insts.get(id.index()).and_then(|i| i.as_ref())
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> Option<&mut Inst> {
        self.insts.get_mut(id.index()).and_then(|i| i.as_mut())
    }

    /// The operation of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has been removed.
    pub fn op(&self, id: InstId) -> &Op {
        &self.inst(id).expect("instruction removed").op
    }

    /// Allocates an instruction in the arena without placing it in a block.
    fn alloc_inst(&mut self, op: Op, block: BlockId) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Some(Inst { op, block }));
        id
    }

    /// Appends an instruction to the end of `block`.
    pub fn append_inst(&mut self, block: BlockId, op: Op) -> InstId {
        let id = self.alloc_inst(op, block);
        self.blocks[block.index()]
            .as_mut()
            .expect("append to removed block")
            .insts
            .push(id);
        id
    }

    /// Inserts an instruction at `pos` within `block`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, op: Op) -> InstId {
        let id = self.alloc_inst(op, block);
        self.blocks[block.index()]
            .as_mut()
            .expect("insert into removed block")
            .insts
            .insert(pos, id);
        id
    }

    /// Inserts an instruction just before the terminator of `block`.
    pub fn insert_before_terminator(&mut self, block: BlockId, op: Op) -> InstId {
        let len = self.blocks[block.index()]
            .as_ref()
            .expect("removed block")
            .insts
            .len();
        let pos = len.saturating_sub(1);
        self.insert_inst(block, pos, op)
    }

    /// Removes `id` from its block and frees it in the arena.
    pub fn remove_inst(&mut self, id: InstId) {
        if let Some(inst) = self.insts.get(id.index()).and_then(|i| i.as_ref()) {
            let block = inst.block;
            if let Some(Some(b)) = self.blocks.get_mut(block.index()) {
                b.insts.retain(|&i| i != id);
            }
            self.insts[id.index()] = None;
        }
    }

    /// Moves an existing instruction to the end of `block` (before nothing;
    /// callers must maintain terminator position themselves).
    pub fn move_inst_to_end(&mut self, id: InstId, block: BlockId) {
        let old = self.inst(id).expect("moved instruction must exist").block;
        if let Some(Some(b)) = self.blocks.get_mut(old.index()) {
            b.insts.retain(|&i| i != id);
        }
        self.blocks[block.index()]
            .as_mut()
            .expect("removed block")
            .insts
            .push(id);
        self.insts[id.index()].as_mut().unwrap().block = block;
    }

    /// Moves an instruction to just before the terminator of `block`.
    pub fn move_inst_before_terminator(&mut self, id: InstId, block: BlockId) {
        let old = self.inst(id).expect("moved instruction must exist").block;
        if let Some(Some(b)) = self.blocks.get_mut(old.index()) {
            b.insts.retain(|&i| i != id);
        }
        let blk = self.blocks[block.index()].as_mut().expect("removed block");
        let pos = blk.insts.len().saturating_sub(1);
        blk.insts.insert(pos, id);
        self.insts[id.index()].as_mut().unwrap().block = block;
    }

    /// Iterates over live instruction ids across all blocks, in block order.
    pub fn inst_ids(&self) -> Vec<InstId> {
        let mut out = Vec::new();
        for bid in self.block_ids() {
            out.extend(self.block(bid).unwrap().insts.iter().copied());
        }
        out
    }

    /// Number of live instructions.
    pub fn num_insts(&self) -> usize {
        self.block_ids()
            .map(|b| self.block(b).unwrap().insts.len())
            .sum()
    }

    /// The terminator instruction of `block`, if the block is non-empty and
    /// properly terminated.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let b = self.block(block)?;
        let last = *b.insts.last()?;
        if self.op(last).is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    /// Successor blocks of `block`.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        self.terminator(block)
            .map(|t| self.op(t).successors())
            .unwrap_or_default()
    }

    // ---- value rewriting ---------------------------------------------------

    /// Replaces every use of `from` with `to` in all instructions.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for inst in self.insts.iter_mut().flatten() {
            inst.op.map_operands(|v| if v == from { to } else { v });
        }
    }

    /// Replaces every use of `Inst(id)` with `map[&id]`, in one sweep over
    /// all instructions. When no replacement value is itself a key, this
    /// equals one [`Function::replace_all_uses`] per entry, in any order.
    pub fn replace_all_uses_map(&mut self, map: &HashMap<InstId, Value>) {
        if map.is_empty() {
            return;
        }
        for inst in self.insts.iter_mut().flatten() {
            inst.op.map_operands(|v| match v {
                Value::Inst(id) => map.get(&id).copied().unwrap_or(v),
                other => other,
            });
        }
    }

    /// Replaces uses of `from` with `to` within a single instruction.
    pub fn replace_uses_in(&mut self, id: InstId, from: Value, to: Value) {
        if let Some(inst) = self.inst_mut(id) {
            inst.op.map_operands(|v| if v == from { to } else { v });
        }
    }

    /// Collects, for each instruction result, the instructions that use it.
    pub fn uses(&self) -> HashMap<InstId, Vec<InstId>> {
        let mut map: HashMap<InstId, Vec<InstId>> = HashMap::new();
        for id in self.inst_ids() {
            for v in self.op(id).operands() {
                if let Value::Inst(def) = v {
                    map.entry(def).or_default().push(id);
                }
            }
        }
        map
    }

    /// Predecessor map: for every live block, the blocks that branch to it.
    pub fn predecessors(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut map: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for b in self.block_ids() {
            map.entry(b).or_default();
        }
        for b in self.block_ids() {
            for s in self.successors(b) {
                map.entry(s).or_default().push(b);
            }
        }
        map
    }

    /// Compacts phi nodes after `pred` stopped being a predecessor of
    /// `block`: removes matching incoming entries.
    pub fn remove_phi_incoming(&mut self, block: BlockId, pred: BlockId) {
        let ids: Vec<InstId> = match self.block(block) {
            Some(b) => b.insts.clone(),
            None => return,
        };
        for id in ids {
            if let Some(inst) = self.inst_mut(id) {
                if let Op::Phi { incomings, .. } = &mut inst.op {
                    incomings.retain(|(b, _)| *b != pred);
                }
            }
        }
    }

    /// Retargets phi incomings in `block` from `old_pred` to `new_pred`.
    pub fn retarget_phi_incoming(&mut self, block: BlockId, old_pred: BlockId, new_pred: BlockId) {
        let ids: Vec<InstId> = match self.block(block) {
            Some(b) => b.insts.clone(),
            None => return,
        };
        for id in ids {
            if let Some(inst) = self.inst_mut(id) {
                if let Op::Phi { incomings, .. } = &mut inst.op {
                    for (b, _) in incomings.iter_mut() {
                        if *b == old_pred {
                            *b = new_pred;
                        }
                    }
                }
            }
        }
    }
}

/// A translation unit: globals plus functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Module {
    /// Module name (used in diagnostics and experiment reports).
    pub name: String,
    functions: Vec<Option<Function>>,
    globals: Vec<Option<Global>>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(Some(f));
        id
    }

    /// Adds a global variable, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Some(g));
        id
    }

    /// Returns the function, if it still exists.
    pub fn func(&self, id: FuncId) -> Option<&Function> {
        self.functions.get(id.index()).and_then(|f| f.as_ref())
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> Option<&mut Function> {
        self.functions.get_mut(id.index()).and_then(|f| f.as_mut())
    }

    /// Removes a function (used by globaldce).
    pub fn remove_function(&mut self, id: FuncId) {
        if id.index() < self.functions.len() {
            self.functions[id.index()] = None;
        }
    }

    /// Returns the global, if it still exists.
    pub fn global(&self, id: GlobalId) -> Option<&Global> {
        self.globals.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Mutable access to a global.
    pub fn global_mut(&mut self, id: GlobalId) -> Option<&mut Global> {
        self.globals.get_mut(id.index()).and_then(|g| g.as_mut())
    }

    /// Removes a global (used by globaldce).
    pub fn remove_global(&mut self, id: GlobalId) {
        if id.index() < self.globals.len() {
            self.globals[id.index()] = None;
        }
    }

    /// Iterates over live function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| FuncId(i as u32)))
    }

    /// Iterates over live global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        self.globals
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|_| GlobalId(i as u32)))
    }

    /// Looks up a function by symbol name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_ids()
            .find(|&id| self.func(id).unwrap().name == name)
    }

    /// Looks up a global by symbol name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_ids()
            .find(|&id| self.global(id).unwrap().name == name)
    }

    /// Total number of live instructions across all function bodies.
    pub fn num_insts(&self) -> usize {
        self.func_ids()
            .map(|f| self.func(f).unwrap().num_insts())
            .sum()
    }

    /// Applies `f` to every function body (skipping declarations).
    pub fn for_each_body(&mut self, mut f: impl FnMut(FuncId, &mut Function)) {
        let ids: Vec<FuncId> = self.func_ids().collect();
        for id in ids {
            let func = self.functions[id.index()].as_mut().unwrap();
            if !func.is_decl {
                f(id, func);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Op};
    use crate::value::Value;

    fn sample_function() -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let entry = f.entry;
        let add = f.append_inst(
            entry,
            Op::Bin {
                op: BinOp::Add,
                ty: Ty::I64,
                lhs: Value::Arg(0),
                rhs: Value::i64(1),
            },
        );
        f.append_inst(
            entry,
            Op::Ret {
                val: Some(Value::Inst(add)),
            },
        );
        f
    }

    #[test]
    fn build_and_count() {
        let f = sample_function();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 2);
        assert!(f.terminator(f.entry).is_some());
    }

    #[test]
    fn remove_inst_unlinks_from_block() {
        let mut f = sample_function();
        let first = f.block(f.entry).unwrap().insts[0];
        f.remove_inst(first);
        assert_eq!(f.num_insts(), 1);
        assert!(f.inst(first).is_none());
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = sample_function();
        let add = f.block(f.entry).unwrap().insts[0];
        f.replace_all_uses(Value::Inst(add), Value::i64(42));
        let ret = f.terminator(f.entry).unwrap();
        assert_eq!(
            f.op(ret),
            &Op::Ret {
                val: Some(Value::i64(42))
            }
        );
    }

    #[test]
    fn map_rewrite_equals_sequential_replace_all_uses() {
        let m = crate::parser::parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = mul i64 %a, %a
  %c = icmp slt i64 %b, %a
  condbr %c, bb1, bb2
bb1:
  %d = sub i64 %b, %arg0
  br bb2
bb2:
  %p = phi i64 [bb0: %a], [bb1: %d]
  %s = select i64 %c, %p, %b
  ret %s
}
"#,
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid).unwrap();
        let ids = f.inst_ids();
        // two constants and one instruction that is not itself a key
        let map: HashMap<InstId, Value> = [
            (ids[0], Value::i64(5)),
            (ids[2], Value::bool(true)),
            (ids[4], Value::Inst(ids[1])),
        ]
        .into_iter()
        .collect();
        let mut sequential = f.clone();
        for (&from, &to) in &map {
            sequential.replace_all_uses(Value::Inst(from), to);
        }
        let mut batched = f.clone();
        batched.replace_all_uses_map(&map);
        for &id in &ids {
            assert_eq!(batched.op(id), sequential.op(id), "{id:?}");
        }
        assert_ne!(
            batched.op(ids[1]),
            f.op(ids[1]),
            "the map rewrote something"
        );
    }

    #[test]
    fn predecessors_and_successors() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let entry = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.append_inst(
            entry,
            Op::CondBr {
                cond: Value::bool(true),
                then_bb: b1,
                else_bb: b2,
            },
        );
        f.append_inst(b1, Op::Ret { val: None });
        f.append_inst(b2, Op::Ret { val: None });
        assert_eq!(f.successors(entry), vec![b1, b2]);
        let preds = f.predecessors();
        assert_eq!(preds[&b1], vec![entry]);
        assert_eq!(preds[&b2], vec![entry]);
        assert!(preds[&entry].is_empty());
    }

    #[test]
    fn remove_block_frees_instructions() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let b1 = f.add_block();
        let i = f.append_inst(b1, Op::Ret { val: None });
        f.remove_block(b1);
        assert!(f.inst(i).is_none());
        assert!(f.block(b1).is_none());
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn module_lookup_by_name() {
        let mut m = Module::new("m");
        let id = m.add_function(sample_function());
        assert_eq!(m.func_by_name("f"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
        m.remove_function(id);
        assert_eq!(m.func_by_name("f"), None);
    }

    #[test]
    fn phi_incoming_maintenance() {
        let mut f = Function::new("g", vec![], Ty::I64);
        let entry = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let merge = f.add_block();
        f.append_inst(
            entry,
            Op::CondBr {
                cond: Value::bool(true),
                then_bb: b1,
                else_bb: b2,
            },
        );
        f.append_inst(b1, Op::Br { target: merge });
        f.append_inst(b2, Op::Br { target: merge });
        let phi = f.append_inst(
            merge,
            Op::Phi {
                ty: Ty::I64,
                incomings: vec![(b1, Value::i64(1)), (b2, Value::i64(2))],
            },
        );
        f.append_inst(
            merge,
            Op::Ret {
                val: Some(Value::Inst(phi)),
            },
        );
        f.remove_phi_incoming(merge, b1);
        match f.op(phi) {
            Op::Phi { incomings, .. } => assert_eq!(incomings.len(), 1),
            _ => unreachable!(),
        }
        f.retarget_phi_incoming(merge, b2, b1);
        match f.op(phi) {
            Op::Phi { incomings, .. } => assert_eq!(incomings[0].0, b1),
            _ => unreachable!(),
        }
    }
}
