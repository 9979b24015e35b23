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

use parking_lot::Mutex;
use posetrl_ir::{Function, InstId, Module, Ty, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Embedding dimensionality (the paper uses IR2Vec's 300-d program level).
pub const DIM: usize = 300;

/// Weight of the opcode entity (IR2Vec's `Wo`).
pub const W_OPCODE: f64 = 1.0;
/// Weight of the type entity (IR2Vec's `Wt`).
pub const W_TYPE: f64 = 0.5;
/// Weight of each operand entity (IR2Vec's `Wa`).
pub const W_OPERAND: f64 = 0.2;

/// A deterministic seed vocabulary: token → unit vector.
#[derive(Debug)]
pub struct Vocabulary {
    dim: usize,
    seed: u64,
    cache: Mutex<HashMap<String, Vec<f64>>>,
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

    /// The vector for `token` (cached; deterministic across runs).
    pub fn vector(&self, token: &str) -> Vec<f64> {
        if let Some(v) = self.cache.lock().get(token) {
            return v.clone();
        }
        let mut state = self.seed ^ fnv1a(token);
        let mut v = Vec::with_capacity(self.dim);
        for _ in 0..self.dim {
            state = splitmix64(state);
            // uniform in [-1, 1]
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            v.push(x);
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        for x in &mut v {
            *x /= norm;
        }
        self.cache.lock().insert(token.to_string(), v.clone());
        v
    }
}

/// FNV-1a hash of a token (shared across the workspace for deterministic,
/// seed-stable token hashing).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
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

/// The embedder: vocabulary + combination rules.
#[derive(Debug)]
pub struct Embedder {
    config: EmbedConfig,
    vocab: Vocabulary,
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
        Embedder { config, vocab }
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The full configuration (consumers digest it into memo keys).
    pub fn config(&self) -> &EmbedConfig {
        &self.config
    }

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
        for o in op.operands() {
            axpy(
                &mut v,
                W_OPERAND,
                &self.vocab.vector(Self::operand_token(o)),
            );
        }
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

    /// Flow-aware instruction embeddings for a whole function.
    pub fn embed_function_insts(&self, f: &Function) -> HashMap<InstId, Vec<f64>> {
        let ids = f.inst_ids();
        let mut cur: HashMap<InstId, Vec<f64>> = ids
            .iter()
            .map(|&id| (id, self.embed_inst_symbolic(f, id)))
            .collect();
        for _ in 0..self.config.flow_iters {
            let mut next = HashMap::with_capacity(cur.len());
            for &id in &ids {
                let mut v = cur[&id].clone();
                // mix in the reaching definitions (operand defs)
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
                    let scale = self.config.flow_beta / defs.len() as f64;
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

    /// Function-level embedding: the sum of its instruction embeddings.
    pub fn embed_function(&self, f: &Function) -> Vec<f64> {
        let mut v = vec![0.0; self.config.dim];
        if f.is_decl {
            axpy(&mut v, 1.0, &self.vocab.vector(&format!("decl.{}", f.name)));
            return v;
        }
        // Accumulate in block-order traversal (the printer's order), not by
        // raw InstId: float addition is not associative, and arena numbering
        // differs between modules that print identically, so this is what
        // makes the embedding a pure function of the printed form (which the
        // evaluation cache's bit-identical contract relies on).
        let embeddings = self.embed_function_insts(f);
        for id in f.inst_ids() {
            axpy(&mut v, 1.0, &embeddings[&id]);
        }
        v
    }

    /// Program-level embedding (the RL state): sum of function embeddings
    /// plus global-variable entities, under a fixed scale (so, like IR2Vec's
    /// raw sums, the vector's magnitude tracks program size).
    pub fn embed_module(&self, m: &Module) -> Vec<f64> {
        self.embed_module_with(m, |e, f| std::sync::Arc::new(e.embed_function(f)))
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
        P: FnMut(&Embedder, &Function) -> std::sync::Arc<Vec<f64>>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;
    use posetrl_opt::manager::PassManager;

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
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
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
}
