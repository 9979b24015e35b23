//! IR2Vec-style program embeddings.
//!
//! IR2Vec represents LLVM IR as high-dimensional vectors built from a seed
//! vocabulary over the IR's fundamental entities — opcode, type and
//! operands — combined per instruction with fixed weights and refined with
//! flow information (use-def chains), then summed up to function and
//! program level. This crate applies the identical construction to the
//! mini-IR:
//!
//! - [`Vocabulary`] deterministically derives a unit vector per entity
//!   token (seeded, so embeddings are reproducible),
//! - [`Embedder::embed_inst_symbolic`] combines opcode/type/operand vectors
//!   with the paper's 1.0 / 0.5 / 0.2 weights,
//! - a configurable number of flow iterations mixes in the embeddings of
//!   reaching definitions (use-def flow),
//! - [`Embedder::embed_module`] sums to program level and scales by
//!   `1/sqrt(n)` so state magnitudes stay bounded for the DQN.
//!
//! # Example
//!
//! ```
//! use posetrl_embed::Embedder;
//! use posetrl_ir::parser::parse_module;
//!
//! let m = parse_module(r#"
//! module "m"
//! fn @f(i64) -> i64 internal {
//! bb0:
//!   %r = add i64 %arg0, 1:i64
//!   ret %r
//! }
//! "#).unwrap();
//! let e = Embedder::default();
//! let v = e.embed_module(&m);
//! assert_eq!(v.len(), posetrl_embed::DIM);
//! ```

use parking_lot::{Mutex, RwLock};
use posetrl_ir::hash::{fnv1a, mix64, SPLITMIX_GAMMA};
use posetrl_ir::{Function, InstId, Module, Op, Ty, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Embedding dimensionality (the paper uses IR2Vec's 300-d program level).
pub const DIM: usize = 300;

/// Weight of the opcode entity (IR2Vec's `Wo`).
pub const W_OPCODE: f64 = 1.0;
/// Weight of the type entity (IR2Vec's `Wt`).
pub const W_TYPE: f64 = 0.5;
/// Weight of each operand entity (IR2Vec's `Wa`).
pub const W_OPERAND: f64 = 0.2;

/// `f64`s per pooled flow block: 32 rows at [`DIM`], 76.8 KB. Every block
/// stays under glibc's 128 KiB mmap threshold, so freeing one never raises
/// the allocator's trim threshold, and blocks are recycled rather than
/// faulted back in on the next call.
const BLOCK_LEN: usize = 32 * DIM;

/// Most instruction signatures one embedder interns. The training suite
/// has 169; past the cap a row is built per call instead.
const TABLE_CAP: usize = 1024;

/// Most free flow blocks one embedder keeps (4.9 MB). The benchmark's
/// workloads peak at 36 (`serve_cold`) and 47 (`train`, two workers);
/// blocks freed past the cap go back to the allocator, so one very large
/// function cannot pin its buffer for the embedder's lifetime.
const POOL_CAP: usize = 64;

/// Most tokens one vocabulary caches (614 KB). The benchmark's workloads
/// use under 50; declaration names and successor counts come from the
/// module, so past the cap a vector is built per call and input cannot
/// grow the cache.
const VOCAB_CAP: usize = 256;

/// A deterministic seed vocabulary: token → unit vector.
#[derive(Debug)]
pub struct Vocabulary {
    dim: usize,
    seed: u64,
    cache: Mutex<HashMap<String, Arc<[f64]>>>,
}

impl Vocabulary {
    /// Creates a vocabulary with the given dimensionality and seed.
    pub fn new(dim: usize, seed: u64) -> Vocabulary {
        Vocabulary {
            dim,
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The vector for `token` (deterministic across runs; cached and
    /// shared for the first 256 tokens).
    pub fn vector(&self, token: &str) -> Arc<[f64]> {
        if let Some(v) = self.cache.lock().get(token) {
            return Arc::clone(v);
        }
        let mut state = self.seed ^ fnv1a(token.as_bytes());
        let mut v = Vec::with_capacity(self.dim);
        for _ in 0..self.dim {
            // iterate the full SplitMix64 step on its own output
            state = mix64(state.wrapping_add(SPLITMIX_GAMMA));
            // uniform in [-1, 1]
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            v.push(x);
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        for x in &mut v {
            *x /= norm;
        }
        let v: Arc<[f64]> = v.into();
        let mut cache = self.cache.lock();
        if cache.len() < VOCAB_CAP {
            cache.insert(token.to_string(), Arc::clone(&v));
        }
        v
    }
}

/// Configuration of the embedding construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Vocabulary seed.
    pub seed: u64,
    /// Strength of the flow (reaching-definition) mixing term.
    pub flow_beta: f64,
    /// Number of flow refinement iterations.
    pub flow_iters: usize,
    /// Fixed scale applied to the program-level sum. IR2Vec program vectors
    /// are raw sums, so their magnitude carries program size — a signal the
    /// size-reward RL agent needs. The scale only keeps network inputs in a
    /// comfortable numeric range.
    pub scale: f64,
    /// Compress the program vector's norm logarithmically
    /// (`v · log(1+‖v‖)/‖v‖`). Keeps the size signal (monotone in program
    /// size) while bounding the dynamic range, so programs much larger than
    /// anything seen in training still produce in-distribution states.
    pub log_compress: bool,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig {
            dim: DIM,
            seed: 0x1125_2022,
            flow_beta: 0.3,
            flow_iters: 2,
            scale: 1.0 / 64.0,
            log_compress: true,
        }
    }
}

/// Operand entity tokens, indexed by [`operand_class`]. Class 0 is
/// unused, so a signature's packed operand list ends at its first zero.
const OPERAND_TOKENS: [&str; 8] = [
    "",
    "operand.inst",
    "operand.arg",
    "operand.const.fp",
    "operand.const.ptr",
    "operand.const.int",
    "operand.global",
    "operand.func",
];

fn operand_class(v: Value) -> u64 {
    match v {
        Value::Inst(_) => 1,
        Value::Arg(_) => 2,
        Value::Const(c) => match c.ty() {
            Ty::F64 => 3,
            Ty::Ptr => 4,
            _ => 5,
        },
        Value::Global(_) => 6,
        Value::Func(_) => 7,
    }
}

/// Everything [`Embedder::embed_inst_symbolic`] reads of an instruction:
/// its opcode name (which also fixes the successor count), result type,
/// and operand classes packed 3 bits each from bit 0.
type Signature = (&'static str, Ty, u64);

/// The signature of `op`, or `None` for more than 21 operands.
fn signature(op: &Op) -> Option<Signature> {
    let mut classes = Some(0u64);
    let mut shift = 0;
    op.for_each_operand(|o| {
        classes = classes
            .filter(|_| shift <= 60)
            .map(|c| c | operand_class(o) << shift);
        shift += 3;
    });
    Some((op.kind_name(), op.result_ty(), classes?))
}

/// Interned symbolic rows, one per instruction signature, at most
/// [`TABLE_CAP`].
#[derive(Default)]
struct RowTable(RwLock<HashMap<Signature, Arc<[f64]>>>);

impl fmt::Debug for RowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowTable")
            .field("interned", &self.0.read().len())
            .finish()
    }
}

/// Free flow blocks of [`BLOCK_LEN`] `f64`s, at most [`POOL_CAP`], shared
/// by every thread that uses the embedder.
#[derive(Default)]
struct BlockPool {
    free: Mutex<Vec<Box<[f64]>>>,
}

impl BlockPool {
    /// Room for `n` rows of `dim` values, from free blocks where it can.
    fn take(&self, n: usize, dim: usize) -> Rows<'_> {
        let per = (BLOCK_LEN / dim).max(1);
        let need = n.div_ceil(per);
        let mut blocks = {
            let mut free = self.free.lock();
            let keep = free.len().saturating_sub(need);
            free.split_off(keep)
        };
        blocks.resize_with(need, || vec![0.0; per * dim].into_boxed_slice());
        Rows {
            blocks,
            per,
            dim,
            pool: self,
        }
    }
}

impl fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockPool")
            .field("free_blocks", &self.free.lock().len())
            .finish()
    }
}

/// One flow iteration's rows by instruction position, `per` to a pooled
/// block; the blocks go back to the pool on drop.
struct Rows<'p> {
    blocks: Vec<Box<[f64]>>,
    per: usize,
    dim: usize,
    pool: &'p BlockPool,
}

impl Rows<'_> {
    fn row(&self, i: usize) -> &[f64] {
        let at = (i % self.per) * self.dim;
        &self.blocks[i / self.per][at..at + self.dim]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let at = (i % self.per) * self.dim;
        &mut self.blocks[i / self.per][at..at + self.dim]
    }
}

impl Drop for Rows<'_> {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock();
        self.blocks.truncate(POOL_CAP.saturating_sub(free.len()));
        free.append(&mut self.blocks);
    }
}

/// The rows a flow iteration reads: the symbolic rows, or the previous
/// iteration's.
#[derive(Clone, Copy)]
enum Prev<'a> {
    Symbolic(&'a [Arc<[f64]>]),
    Flow(&'a Rows<'a>),
}

impl<'a> Prev<'a> {
    fn row(self, i: usize) -> &'a [f64] {
        match self {
            Prev::Symbolic(rows) => &rows[i],
            Prev::Flow(rows) => rows.row(i),
        }
    }
}

/// Use-def edges by instruction position: the positions of instruction
/// `i`'s operand defs, in operand order (repeats kept; defs in no block
/// dropped), are `defs[starts[i]..starts[i + 1]]`, found through an
/// arena-indexed position vector.
struct DefEdges {
    starts: Vec<u32>,
    defs: Vec<u32>,
}

impl DefEdges {
    fn new(f: &Function, ids: &[InstId]) -> DefEdges {
        let mut pos = vec![u32::MAX; ids.iter().map(|id| id.index() + 1).max().unwrap_or(0)];
        for (i, id) in ids.iter().enumerate() {
            pos[id.index()] = i as u32;
        }
        let mut starts = Vec::with_capacity(ids.len() + 1);
        let mut defs = Vec::with_capacity(2 * ids.len());
        starts.push(0);
        for &id in ids {
            f.op(id).for_each_operand(|o| {
                if let Value::Inst(d) = o {
                    match pos.get(d.index()) {
                        Some(&p) if p != u32::MAX => defs.push(p),
                        _ => {}
                    }
                }
            });
            starts.push(defs.len() as u32);
        }
        DefEdges { starts, defs }
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.defs[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Instruction `i`'s next flow row over its operand defs `defs`:
/// `out = prev[i] + s·prev[d₀] + s·prev[d₁] + …` with `s = beta / #defs`,
/// added element by element in operand order. The copy is fused with the first two terms;
/// each element still sees exactly the additions, in the order, of a
/// clone followed by one `axpy` per def.
fn flow_row(out: &mut [f64], prev: Prev<'_>, i: usize, defs: &[u32], beta: f64) {
    let own = prev.row(i);
    let s = beta / defs.len() as f64;
    match *defs {
        [] => out.copy_from_slice(own),
        [d0] => {
            for ((o, &x), &a) in out.iter_mut().zip(own).zip(prev.row(d0 as usize)) {
                *o = x + s * a;
            }
        }
        [d0, d1, ref rest @ ..] => {
            let (r0, r1) = (prev.row(d0 as usize), prev.row(d1 as usize));
            for (((o, &x), &a), &b) in out.iter_mut().zip(own).zip(r0).zip(r1) {
                *o = x + s * a + s * b;
            }
            for &d in rest {
                axpy(out, s, prev.row(d as usize));
            }
        }
    }
}

/// The embedder: vocabulary + combination rules, plus the interned
/// instruction rows and pooled flow blocks that make repeated embedding
/// cheap. Share one embedder (behind an `Arc`) across threads to share
/// both.
#[derive(Debug)]
pub struct Embedder {
    config: EmbedConfig,
    vocab: Vocabulary,
    rows: RowTable,
    pool: BlockPool,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder::new(EmbedConfig::default())
    }
}

impl Embedder {
    /// Creates an embedder from a configuration.
    pub fn new(config: EmbedConfig) -> Embedder {
        let vocab = Vocabulary::new(config.dim, config.seed);
        Embedder {
            config,
            vocab,
            rows: RowTable::default(),
            pool: BlockPool::default(),
        }
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The full configuration (consumers digest it into memo keys).
    pub fn config(&self) -> &EmbedConfig {
        &self.config
    }

    /// The symbolic (pre-flow) embedding of one instruction.
    pub fn embed_inst_symbolic(&self, f: &Function, id: InstId) -> Vec<f64> {
        let op = f.op(id);
        let mut v = vec![0.0; self.config.dim];
        axpy(
            &mut v,
            W_OPCODE,
            &self.vocab.vector(&format!("opcode.{}", op.kind_name())),
        );
        axpy(
            &mut v,
            W_TYPE,
            &self.vocab.vector(&format!("type.{}", op.result_ty())),
        );
        op.for_each_operand(|o| {
            let token = OPERAND_TOKENS[operand_class(o) as usize];
            axpy(&mut v, W_OPERAND, &self.vocab.vector(token));
        });
        // terminators with successors contribute control-flow tokens
        let nsucc = op.successors().len();
        if nsucc > 0 {
            axpy(
                &mut v,
                W_OPERAND,
                &self.vocab.vector(&format!("cfg.succ{nsucc}")),
            );
        }
        v
    }

    /// The symbolic row of each instruction in `ids`: the interned row of
    /// its signature, or one built now (and interned while the table has
    /// room).
    fn symbolic_rows(&self, f: &Function, ids: &[InstId]) -> Vec<Arc<[f64]>> {
        let mut fresh = Vec::new();
        let rows = {
            let table = self.rows.0.read();
            ids.iter()
                .map(|&id| {
                    let key = signature(f.op(id));
                    match key.and_then(|k| table.get(&k)) {
                        Some(row) => Arc::clone(row),
                        None => {
                            let row: Arc<[f64]> = self.embed_inst_symbolic(f, id).into();
                            fresh.extend(key.map(|k| (k, Arc::clone(&row))));
                            row
                        }
                    }
                })
                .collect()
        };
        if !fresh.is_empty() {
            let mut table = self.rows.0.write();
            for (key, row) in fresh {
                if table.len() < TABLE_CAP {
                    table.entry(key).or_insert(row);
                }
            }
        }
        rows
    }

    /// Function-level embedding: the sum of its flow-aware instruction
    /// embeddings.
    ///
    /// Float-order contract: instruction `i`'s row after a flow iteration
    /// is its previous row plus `flow_beta / #defs` times each operand
    /// def's previous row, added in operand order (defs in no block are
    /// skipped); the function vector starts at zero and adds `1.0 · row`
    /// for every instruction in [`Function::inst_ids`] order. Symbolic
    /// rows come from the interned table, iteration 1 to `flow_iters - 1`
    /// fill pooled block buffers (two at most, alternating), and the last
    /// iteration is computed one row at a time straight into the sum.
    pub fn embed_function(&self, f: &Function) -> Vec<f64> {
        let dim = self.config.dim;
        let mut v = vec![0.0; dim];
        if f.is_decl {
            axpy(&mut v, 1.0, &self.vocab.vector(&format!("decl.{}", f.name)));
            return v;
        }
        // Accumulate in block-order traversal (the printer's order), not by
        // raw InstId: float addition is not associative, and arena numbering
        // differs between modules that print identically, so this is what
        // makes the embedding a pure function of the printed form (which the
        // evaluation cache's bit-identical contract relies on).
        let ids = f.inst_ids();
        let n = ids.len();
        let edges = DefEdges::new(f, &ids);
        let sym = self.symbolic_rows(f, &ids);

        if self.config.flow_iters == 0 {
            for row in &sym {
                axpy(&mut v, 1.0, row);
            }
            return v;
        }
        let beta = self.config.flow_beta;
        let (mut stored, mut spare): (Option<Rows>, Option<Rows>) = (None, None);
        for _ in 1..self.config.flow_iters {
            let mut next = spare.take().unwrap_or_else(|| self.pool.take(n, dim));
            let prev = stored.as_ref().map_or(Prev::Symbolic(&sym), Prev::Flow);
            for i in 0..n {
                flow_row(next.row_mut(i), prev, i, edges.of(i), beta);
            }
            spare = stored.replace(next);
        }
        let prev = stored.as_ref().map_or(Prev::Symbolic(&sym), Prev::Flow);
        let mut row = vec![0.0; dim];
        for i in 0..n {
            flow_row(&mut row, prev, i, edges.of(i), beta);
            axpy(&mut v, 1.0, &row);
        }
        v
    }

    /// Program-level embedding (the RL state): sum of function embeddings
    /// plus global-variable entities, under a fixed scale (so, like IR2Vec's
    /// raw sums, the vector's magnitude tracks program size).
    pub fn embed_module(&self, m: &Module) -> Vec<f64> {
        self.embed_module_with(m, |e, f| Arc::new(e.embed_function(f)))
    }

    /// [`embed_module`] with the per-function vectors supplied by
    /// `provider` — the hook the incremental analysis manager uses to
    /// memoize untouched functions.
    ///
    /// The float-operation order (function accumulation in `func_ids`
    /// order, then globals, scale, log-compression) is exactly
    /// [`embed_module`]'s, so as long as `provider` returns the same
    /// vectors [`Embedder::embed_function`] would, the module vector is
    /// bit-identical. Providers must key any memo by the function's
    /// *arena fingerprint* (`posetrl_ir::function_fingerprint`):
    /// accumulation inside `embed_function` walks raw arena order, so
    /// two functions that merely print alike may embed differently.
    ///
    /// [`embed_module`]: Embedder::embed_module
    pub fn embed_module_with<P>(&self, m: &Module, mut provider: P) -> Vec<f64>
    where
        P: FnMut(&Embedder, &Function) -> Arc<Vec<f64>>,
    {
        let mut v = vec![0.0; self.config.dim];
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            axpy(&mut v, 1.0, &provider(self, f));
        }
        for gid in m.global_ids() {
            let g = m.global(gid).unwrap();
            let token = format!(
                "global.{}.{}",
                g.ty,
                if g.mutable { "mut" } else { "const" }
            );
            axpy(&mut v, 0.5, &self.vocab.vector(&token));
        }
        for x in &mut v {
            *x *= self.config.scale;
        }
        if self.config.log_compress {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 {
                let k = norm.ln_1p() / norm;
                for x in &mut v {
                    *x *= k;
                }
            }
        }
        v
    }
}

fn axpy(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

/// The per-function embedding the dense kernel replaced: `HashMap`s of
/// cloned 300-`f64` rows, a fresh symbolic row per instruction. Kept as
/// the reference the kernel is checked against bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    fn operand_token(v: Value) -> &'static str {
        match v {
            Value::Inst(_) => "operand.inst",
            Value::Arg(_) => "operand.arg",
            Value::Const(c) => match c.ty() {
                Ty::F64 => "operand.const.fp",
                Ty::Ptr => "operand.const.ptr",
                _ => "operand.const.int",
            },
            Value::Global(_) => "operand.global",
            Value::Func(_) => "operand.func",
        }
    }

    fn embed_inst_symbolic(e: &Embedder, f: &Function, id: InstId) -> Vec<f64> {
        let op = f.op(id);
        let mut v = vec![0.0; e.config.dim];
        let opcode = e.vocab.vector(&format!("opcode.{}", op.kind_name()));
        axpy(&mut v, W_OPCODE, &opcode);
        let ty = e.vocab.vector(&format!("type.{}", op.result_ty()));
        axpy(&mut v, W_TYPE, &ty);
        for o in op.operands() {
            axpy(&mut v, W_OPERAND, &e.vocab.vector(operand_token(o)));
        }
        let nsucc = op.successors().len();
        if nsucc > 0 {
            let succ = e.vocab.vector(&format!("cfg.succ{nsucc}"));
            axpy(&mut v, W_OPERAND, &succ);
        }
        v
    }

    fn embed_function_insts(e: &Embedder, f: &Function) -> HashMap<InstId, Vec<f64>> {
        let ids = f.inst_ids();
        let mut cur: HashMap<InstId, Vec<f64>> = ids
            .iter()
            .map(|&id| (id, embed_inst_symbolic(e, f, id)))
            .collect();
        for _ in 0..e.config.flow_iters {
            let mut next = HashMap::with_capacity(cur.len());
            for &id in &ids {
                let mut v = cur[&id].clone();
                let defs: Vec<&Vec<f64>> = f
                    .op(id)
                    .operands()
                    .iter()
                    .filter_map(|o| match o {
                        Value::Inst(d) => cur.get(d),
                        _ => None,
                    })
                    .collect();
                if !defs.is_empty() {
                    let scale = e.config.flow_beta / defs.len() as f64;
                    for d in defs {
                        axpy(&mut v, scale, d);
                    }
                }
                next.insert(id, v);
            }
            cur = next;
        }
        cur
    }

    pub fn embed_function(e: &Embedder, f: &Function) -> Vec<f64> {
        let mut v = vec![0.0; e.config.dim];
        if f.is_decl {
            axpy(&mut v, 1.0, &e.vocab.vector(&format!("decl.{}", f.name)));
            return v;
        }
        let embeddings = embed_function_insts(e, f);
        for id in f.inst_ids() {
            axpy(&mut v, 1.0, &embeddings[&id]);
        }
        v
    }

    pub fn embed_module(e: &Embedder, m: &Module) -> Vec<f64> {
        e.embed_module_with(m, |e, f| Arc::new(embed_function(e, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;
    use posetrl_ir::verifier::verify_module;
    use posetrl_opt::manager::PassManager;
    use std::path::Path;

    const PROGRAM: &str = r#"
module "m"
global @g : i64 x 4 mutable internal = [1:i64, 2:i64, 3:i64, 4:i64]
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %c = icmp slt i64 %i, %arg0
  condbr %c, bb2, bb3
bb2:
  %p = gep i64, @g, %i
  %v = load i64, %p
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#;

    #[test]
    fn deterministic_across_embedder_instances() {
        let m = parse_module(PROGRAM).unwrap();
        let a = Embedder::default().embed_module(&m);
        let b = Embedder::default().embed_module(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn vocabulary_vectors_are_unit_norm_and_distinct() {
        let v = Vocabulary::new(DIM, 7);
        let a = v.vector("opcode.add");
        let b = v.vector("opcode.mul");
        let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((na - 1.0).abs() < 1e-9);
        let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!(
            dot.abs() < 0.5,
            "random unit vectors are near-orthogonal: {dot}"
        );
        assert_eq!(a, v.vector("opcode.add"), "cache returns identical vectors");
    }

    #[test]
    fn embedding_changes_when_code_is_optimized() {
        let m0 = parse_module(PROGRAM).unwrap();
        let e = Embedder::default();
        let before = e.embed_module(&m0);
        let mut m2 = m0.clone();
        let changed = PassManager::new().run_pass(&mut m2, "loop-rotate").unwrap();
        assert!(changed, "rotation applies to the while loop");
        let after = e.embed_module(&m2);
        let dist: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1e-6, "state moves when the module changes");
    }

    #[test]
    fn flow_term_distinguishes_dataflow() {
        // same multiset of instructions, different use-def wiring
        let chain = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = add i64 %a, 1:i64
  %c = add i64 %b, 1:i64
  ret %c
}
"#,
        )
        .unwrap();
        let parallel = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = add i64 %arg0, 1:i64
  %c = add i64 %arg0, 1:i64
  ret %c
}
"#,
        )
        .unwrap();
        let e = Embedder::default();
        let va = e.embed_module(&chain);
        let vb = e.embed_module(&parallel);
        let dist: f64 = va
            .iter()
            .zip(&vb)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            dist > 1e-9,
            "flow-aware embeddings separate different dataflow"
        );
    }

    #[test]
    fn magnitude_stays_bounded_with_program_size() {
        // 1 function with a long straight line: norm should not explode
        let mut text = String::from("module \"m\"\nfn @f(i64) -> i64 internal {\nbb0:\n");
        text.push_str("  %v0 = add i64 %arg0, 1:i64\n");
        for i in 1..400 {
            text.push_str(&format!("  %v{i} = add i64 %v{}, 1:i64\n", i - 1));
        }
        text.push_str("  ret %v399\n}\n");
        let m = parse_module(&text).unwrap();
        let v = Embedder::default().embed_module(&m);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm.is_finite() && norm > 0.01);
        // magnitude tracks size: a longer program embeds with larger norm
        let small =
            parse_module("module \"s\"\nfn @f(i64) -> i64 internal {\nbb0:\n  ret %arg0\n}\n")
                .unwrap();
        let vs = Embedder::default().embed_module(&small);
        let ns: f64 = vs.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm > ns * 5.0, "size signal preserved: {norm} vs {ns}");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the kernel matches the reference bit for bit on every
    /// function of `m` and on the module vector.
    fn assert_matches_reference(e: &Embedder, name: &str, m: &Module) {
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            assert_eq!(
                bits(&e.embed_function(f)),
                bits(&reference::embed_function(e, f)),
                "{name}: function {}",
                f.name
            );
        }
        assert_eq!(
            bits(&e.embed_module(m)),
            bits(&reference::embed_module(e, m)),
            "{name}: module"
        );
    }

    /// The generated suites (training, MiBench, SPEC 2006/2017 stand-ins),
    /// raw and after serve's hot ODG action, plus every hand-written `.pir`
    /// file that parses and verifies.
    fn corpus() -> Vec<(String, Module)> {
        let pm = PassManager::new();
        let hot = posetrl_odg::ActionSpace::odg().subsequence(23).to_vec();
        let mut out = Vec::new();
        let suites = posetrl_workloads::training_suite()
            .into_iter()
            .chain(posetrl_workloads::mibench())
            .chain(posetrl_workloads::spec2006())
            .chain(posetrl_workloads::spec2017());
        for b in suites {
            let mut after = b.module.clone();
            for pass in &hot {
                pm.run_pass(&mut after, pass).expect("a registered pass");
            }
            out.push((format!("{} | hot", b.name), after));
            out.push((b.name, b.module));
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("examples/ir"), root.join("tests/analyze")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("a corpus directory") {
                let path = entry.expect("a directory entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|x| x == "pir") {
                    let text = std::fs::read_to_string(&path).expect("a readable file");
                    if let Ok(m) = parse_module(&text) {
                        if verify_module(&m).is_ok() {
                            out.push((path.display().to_string(), m));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn kernel_is_bit_identical_to_the_reference_on_the_corpus() {
        let programs = corpus();
        assert!(programs.len() > 2 * 169, "corpus size {}", programs.len());
        let e = Embedder::default();
        for (name, m) in &programs {
            assert_matches_reference(&e, name, m);
        }
        // a second pass reads only interned rows and recycled blocks
        for (name, m) in programs.iter().step_by(7) {
            assert_matches_reference(&e, name, m);
        }
    }

    #[test]
    fn kernel_is_bit_identical_for_every_flow_iteration_count() {
        let programs = corpus();
        for flow_iters in 0..=3 {
            let e = Embedder::new(EmbedConfig {
                flow_iters,
                ..EmbedConfig::default()
            });
            for (name, m) in programs.iter().step_by(5) {
                assert_matches_reference(&e, &format!("{name} @ {flow_iters}"), m);
            }
            assert_matches_reference(&e, "loop", &parse_module(PROGRAM).unwrap());
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_edge_fixtures() {
        // a phi that uses a later instruction, a repeated operand, three
        // and four instruction operands, a declaration and a global
        let m = parse_module(
            r#"
module "m"
global @g : i64 x 2 mutable internal = [1:i64, 2:i64]
declare @h(i64, i64, i64, i64) -> i64
fn @f(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb1: %i2]
  %sq = mul i64 %i, %i
  %c = icmp slt i64 %sq, %arg0
  %s = select i64 %c, %sq, %i
  %k = call @h(%s, %sq, %i, %s) -> i64
  %i2 = add i64 %k, 1:i64
  condbr %c, bb1, bb2
bb2:
  ret %i2
}
"#,
        )
        .unwrap();
        for seed in [1, 2] {
            let e = Embedder::new(EmbedConfig {
                seed,
                ..EmbedConfig::default()
            });
            assert_matches_reference(&e, "fixture", &m);
        }

        // operands whose defs are in no block: one detached from its block
        // (still in the arena, highest id), one removed from the arena
        let mut m2 = m.clone();
        let fid = m2.func_by_name("f").unwrap();
        let f = m2.func_mut(fid).unwrap();
        let ids = f.inst_ids();
        let (k, sq) = (ids[5], ids[2]);
        let detached = f.append_inst(f.entry, Op::Unreachable);
        f.block_mut(f.entry)
            .unwrap()
            .insts
            .retain(|&i| i != detached);
        f.inst_mut(k).unwrap().op.map_operands(|v| match v {
            Value::Inst(d) if d == sq => Value::Inst(detached),
            v => v,
        });
        f.remove_inst(ids[1]);
        assert_matches_reference(&Embedder::default(), "detached defs", &m2);
    }

    #[test]
    fn embedders_with_different_seeds_do_not_share_rows() {
        let m = parse_module(PROGRAM).unwrap();
        let a = Embedder::new(EmbedConfig {
            seed: 11,
            ..EmbedConfig::default()
        });
        let b = Embedder::new(EmbedConfig {
            seed: 12,
            ..EmbedConfig::default()
        });
        let (va, vb) = (a.embed_module(&m), b.embed_module(&m));
        assert_ne!(bits(&va), bits(&vb));
        assert_eq!(bits(&va), bits(&a.embed_module(&m)));
        assert_matches_reference(&a, "seed 11", &m);
        assert_matches_reference(&b, "seed 12", &m);
    }

    #[test]
    fn signatures_past_the_table_cap_and_long_operand_lists_match() {
        // 1,100 distinct call signatures overflow the table, and a call with
        // 20 arguments has no packed signature; both take per-call rows
        let args = ["%x", "%arg0", "1:i64", "1.5:f64", "null", "@g"];
        let mut text = String::from(
            "module \"m\"\nglobal @g : i64 x 1 mutable internal = [0:i64]\n\
             declare @h(i64, i64, i64, i64) -> i64\n\
             declare @w(i64, i64, i64, i64, i64, i64, i64, i64, i64, i64, \
             i64, i64, i64, i64, i64, i64, i64, i64, i64, i64) -> i64\n\
             fn @f(i64) -> i64 internal {\nbb0:\n  %x = add i64 %arg0, 1:i64\n",
        );
        for i in 0..1100usize {
            let a: Vec<&str> = (0..4).map(|k| args[i / 6usize.pow(k) % 6]).collect();
            text.push_str(&format!("  %c{i} = call @h({}) -> i64\n", a.join(", ")));
        }
        let wide: Vec<String> = (0..20).map(|i| format!("%c{i}")).collect();
        text.push_str(&format!("  %w = call @w({}) -> i64\n", wide.join(", ")));
        text.push_str("  ret %w\n}\n");
        let m = parse_module(&text).unwrap();
        let e = Embedder::default();
        assert_matches_reference(&e, "overflow", &m);
        assert_eq!(e.rows.0.read().len(), TABLE_CAP);
        assert_matches_reference(&e, "overflow, full table", &m);
    }

    #[test]
    fn distinct_declaration_names_do_not_grow_the_vocabulary_past_its_cap() {
        // one long-lived embedder (as serve shares one) sees 600 modules,
        // each declaring a name no other module uses
        let e = Embedder::default();
        for i in 0..600 {
            let m = parse_module(&format!(
                "module \"m\"\ndeclare @client_{i}(i64) -> i64\n\
                 fn @f(i64) -> i64 internal {{\nbb0:\n  \
                 %r = call @client_{i}(%arg0) -> i64\n  ret %r\n}}\n"
            ))
            .unwrap();
            if i % 97 == 0 || i == 599 {
                assert_matches_reference(&e, &format!("decl {i}"), &m);
            } else {
                e.embed_module(&m);
            }
        }
        assert_eq!(e.vocab.cache.lock().len(), VOCAB_CAP);
    }

    #[test]
    fn one_very_large_function_does_not_grow_the_free_pool_past_its_cap() {
        // 80 blocks' worth of rows for a single function
        let n = 80 * (BLOCK_LEN / DIM);
        let mut text = String::from("module \"m\"\nfn @f(i64) -> i64 internal {\nbb0:\n");
        text.push_str("  %v0 = add i64 %arg0, 1:i64\n");
        for i in 1..n {
            text.push_str(&format!("  %v{i} = mul i64 %v{}, %arg0\n", i - 1));
        }
        text.push_str(&format!("  ret %v{}\n}}\n", n - 1));
        let m = parse_module(&text).unwrap();
        let e = Embedder::default();
        assert_matches_reference(&e, "large", &m);
        assert_eq!(e.pool.free.lock().len(), POOL_CAP);
        assert_matches_reference(&e, "large, capped pool", &m);
        assert_eq!(e.pool.free.lock().len(), POOL_CAP);
    }
}
