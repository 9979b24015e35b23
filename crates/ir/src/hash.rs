//! Structural module hashing.
//!
//! [`module_hash`] is a **fold over per-function digests plus the
//! module-level header**: each function's chunk of the canonical printed
//! form (the exact bytes [`crate::printer::write_module`] emits for it) is
//! digested on its own into a [`FunctionHash`], and the module hash absorbs
//! the header digest followed by every function digest in `func_ids` order.
//! Because the chunk decomposition of the printed stream is unambiguous
//! (header lines are `module`/`global` lines; every chunk starts with a
//! blank line followed by `fn @`/`declare @`, and no body line can start a
//! chunk), the fold keeps the printer contract of the original streaming
//! hash:
//!
//! - stable across [`Clone`] and across processes (no addresses, no
//!   randomized state),
//! - equal **iff** the printed forms are equal (up to the ~2⁻¹²⁸ collision
//!   probability of the double-FNV digest),
//! - sensitive to every instruction, operand, CFG edge, attribute, linkage
//!   and global-variable change the printer can express.
//!
//! The per-function digests are what make change tracking cheap: after a
//! pass runs, `posetrl-opt` diffs the [`function_hashes`] table to learn
//! exactly which functions changed, and the incremental analysis manager
//! in `posetrl-analyze` re-embeds/re-lints/re-analyzes only those.
//!
//! Two *fingerprints* ride alongside the print-chunk hashes:
//! [`function_fingerprint`] and [`globals_fingerprint`] digest the raw
//! arena representation (slot indices, raw instruction ids, operand ids).
//! Analyses whose outputs mention arena ids — absint `FuncFacts` indexed
//! by `InstId`, lint locations carrying arena `BlockId`s, embeddings
//! accumulated in arena order — must be memoized under the fingerprint,
//! not the print hash: two functions can print identically yet lay out
//! their arenas differently, and a print-keyed memo would then replay
//! facts whose ids point at the wrong slots.

use crate::module::{Function, Module};
use crate::printer::{write_function_entry, write_module_header};
use std::fmt::{self, Write};

/// A 128-bit structural digest of a module's canonical printed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleHash(pub u128);

impl fmt::Display for ModuleHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 128-bit structural digest of one function's chunk of the canonical
/// printed form (leading blank line + declare line or body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionHash(pub u128);

impl fmt::Display for FunctionHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
// A second, independent 64-bit stream: different offset basis (digits of π)
// and a different odd multiplier, so a collision must defeat both.
const ALT_OFFSET: u64 = 0x2437_53a4_7a8e_a36b;
const ALT_PRIME: u64 = 0x0000_0100_0000_0a07;

/// A `fmt::Write` sink that folds every byte into two FNV-1a streams.
struct HashSink {
    a: u64,
    b: u64,
}

impl HashSink {
    fn new() -> HashSink {
        HashSink {
            a: FNV_OFFSET,
            b: ALT_OFFSET,
        }
    }

    fn fold_byte(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ byte as u64).wrapping_mul(ALT_PRIME);
    }

    /// Absorbs a fixed-width 128-bit digest (big-endian bytes).
    fn fold_digest(&mut self, d: u128) {
        for byte in d.to_be_bytes() {
            self.fold_byte(byte);
        }
    }

    fn digest(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

impl Write for HashSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.fold_byte(byte);
        }
        Ok(())
    }
}

/// 64-bit FNV-1a of `bytes`: the workspace's seed-stable token hash
/// (embedding vocabulary, action signatures, benchmark seeds).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The SplitMix64 increment (2⁶⁴ / φ, odd).
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective mix that spreads every input bit
/// over the whole output. One step of the SplitMix64 generator is
/// `mix64(state += SPLITMIX_GAMMA)`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digests an arbitrary string with the same double-FNV scheme the
/// structural hashes use. Consumers (the incremental analysis manager)
/// use this to derive composite memo keys from digests + debug forms.
pub fn digest_str(s: &str) -> u128 {
    let mut sink = HashSink::new();
    sink.write_str(s).expect("hash sink cannot fail");
    sink.digest()
}

/// Digests the module-level header (module line + globals) of the
/// canonical printed form.
pub fn module_header_hash(m: &Module) -> u128 {
    let mut sink = HashSink::new();
    write_module_header(&mut sink, m).expect("hash sink cannot fail");
    sink.digest()
}

/// Digests one function's chunk of the canonical printed form without
/// materializing the string.
pub fn function_hash(m: &Module, f: &Function) -> FunctionHash {
    let mut sink = HashSink::new();
    write_function_entry(&mut sink, m, f).expect("hash sink cannot fail");
    FunctionHash(sink.digest())
}

/// Per-function hash table in `func_ids` order: `(name, chunk digest)`.
///
/// These are the digests [`module_hash`] folds (see [`fold_module_hash`]).
pub fn function_hashes(m: &Module) -> Vec<(String, FunctionHash)> {
    m.func_ids()
        .map(|fid| {
            let f = m.func(fid).unwrap();
            (f.name.clone(), function_hash(m, f))
        })
        .collect()
}

/// Recombines a header digest and per-function digests (in `func_ids`
/// order) into the module hash. `module_hash(m)` is exactly
/// `fold_module_hash(module_header_hash(m), function_hashes(m) digests)`.
pub fn fold_module_hash(header: u128, funcs: impl IntoIterator<Item = u128>) -> ModuleHash {
    let mut sink = HashSink::new();
    sink.fold_digest(header);
    for d in funcs {
        sink.fold_digest(d);
    }
    ModuleHash(sink.digest())
}

/// Computes the structural hash of `m` as a fold over the header digest
/// and each function's chunk digest, without materializing any string.
pub fn module_hash(m: &Module) -> ModuleHash {
    fold_module_hash(
        module_header_hash(m),
        m.func_ids()
            .map(|fid| function_hash(m, m.func(fid).unwrap()).0),
    )
}

/// Digests the raw arena representation of `f`: slot indices, raw
/// instruction ids, and operand ids exactly as stored.
///
/// Unlike [`function_hash`] this is **not** renumbering-invariant — that
/// is the point. Any analysis result that mentions arena ids (absint
/// `FuncFacts`, lint `SourceLoc`s, arena-order embedding accumulation)
/// must be keyed by this fingerprint so a memo hit is guaranteed to
/// replay ids that are valid for the module in hand.
pub fn function_fingerprint(m: &Module, f: &Function) -> u128 {
    let mut sink = HashSink::new();
    write!(
        sink,
        "{}\x1f{:?}\x1f{:?}\x1f{:?}\x1f{:?}\x1f{}\x1f{}",
        f.name, f.params, f.ret, f.linkage, f.attrs, f.is_decl, f.entry.0
    )
    .expect("hash sink cannot fail");
    for b in f.block_ids() {
        write!(sink, "|b{}", b.0).expect("hash sink cannot fail");
        for &id in &f.block(b).unwrap().insts {
            // Op's Debug form spells out raw Value::Inst/Global/Func ids.
            write!(sink, ";{}:{:?}", id.0, f.op(id)).expect("hash sink cannot fail");
        }
    }
    let _ = m; // globals referenced by id are covered by `globals_fingerprint`
    sink.digest()
}

/// Digests every global in arena-slot order (raw slot index + full
/// contents). Analyses that read globals by `GlobalId` (const-memory
/// lints, absint base-object bounds) key their memos by
/// `(function_fingerprint, globals_fingerprint)`.
pub fn globals_fingerprint(m: &Module) -> u128 {
    let mut sink = HashSink::new();
    for gid in m.global_ids() {
        write!(sink, "|g{}:{:?}", gid.0, m.global(gid).unwrap()).expect("hash sink cannot fail");
    }
    sink.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::module::Linkage;
    use crate::printer::{print_module, write_function_entry, write_module_header};
    use crate::types::Ty;
    use crate::value::{Const, Value};

    #[test]
    fn token_hashes_match_their_reference_vectors() {
        // episode seeds, serve's shard routing, benchmark seeds and the
        // embedding vocabulary all hang off these two functions
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // the first SplitMix64 output from seed 0
        assert_eq!(mix64(SPLITMIX_GAMMA), 0xe220_a839_7b1d_cdaf);
    }

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.add_global("tbl", Ty::I64, 4, vec![Const::int(Ty::I64, 7)], true);
        let f = mb.begin_function("f", vec![Ty::I64], Ty::I64);
        {
            let mut fb = mb.func_builder(f);
            let x = fb.add(Ty::I64, Value::Arg(0), Value::i64(1));
            let y = fb.mul(Ty::I64, x, Value::i64(3));
            fb.ret(Some(y));
        }
        mb.finish()
    }

    fn two_function_module() -> Module {
        let mut mb = ModuleBuilder::new("m2");
        let f = mb.begin_function("f", vec![Ty::I64], Ty::I64);
        {
            let mut fb = mb.func_builder(f);
            let x = fb.add(Ty::I64, Value::Arg(0), Value::i64(1));
            fb.ret(Some(x));
        }
        let g = mb.begin_function("g", vec![Ty::I64], Ty::I64);
        {
            let mut fb = mb.func_builder(g);
            let x = fb.mul(Ty::I64, Value::Arg(0), Value::i64(2));
            fb.ret(Some(x));
        }
        mb.finish()
    }

    #[test]
    fn stable_across_clone() {
        let m = sample_module();
        assert_eq!(module_hash(&m), module_hash(&m.clone()));
    }

    #[test]
    fn fold_matches_printed_chunks() {
        // module_hash is the fold of the header digest and per-function
        // chunk digests, and those chunks concatenate to the printed form.
        let m = two_function_module();

        let mut header = String::new();
        write_module_header(&mut header, &m).unwrap();
        let mut rebuilt = header.clone();
        let mut func_digests = Vec::new();
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            let mut chunk = String::new();
            write_function_entry(&mut chunk, &m, f).unwrap();
            rebuilt.push_str(&chunk);
            func_digests.push(function_hash(&m, f).0);
        }
        assert_eq!(rebuilt, print_module(&m), "chunks must tile the print");
        assert_eq!(
            module_hash(&m),
            fold_module_hash(module_header_hash(&m), func_digests)
        );
    }

    #[test]
    fn function_hashes_cover_all_functions() {
        let m = two_function_module();
        let table = function_hashes(&m);
        assert_eq!(
            table.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["f", "g"]
        );
        assert_ne!(table[0].1, table[1].1);
    }

    #[test]
    fn sensitive_to_instruction_change() {
        let m0 = sample_module();
        let mut m1 = m0.clone();
        let fid = m1.func_by_name("f").unwrap();
        let f = m1.func_mut(fid).unwrap();
        let entry = f.entry;
        let first = f.block(entry).unwrap().insts[0];
        f.replace_uses_in(first, Value::i64(1), Value::i64(2));
        assert_ne!(module_hash(&m0), module_hash(&m1));
        let fid0 = m0.func_by_name("f").unwrap();
        assert_ne!(
            function_hash(&m0, m0.func(fid0).unwrap()),
            function_hash(&m1, m1.func(fid).unwrap())
        );
    }

    #[test]
    fn sensitive_to_cfg_and_global_changes() {
        let m0 = sample_module();

        // adding an (empty-printable) block changes the CFG shape — but an
        // empty block prints a label, so the hash must move
        let mut m1 = m0.clone();
        let fid = m1.func_by_name("f").unwrap();
        m1.func_mut(fid).unwrap().add_block();
        assert_ne!(module_hash(&m0), module_hash(&m1));

        // global initializer change
        let mut m2 = m0.clone();
        let gid = m2.global_by_name("tbl").unwrap();
        m2.global_mut(gid).unwrap().init[0] = Const::int(Ty::I64, 8);
        assert_ne!(module_hash(&m0), module_hash(&m2));
        assert_ne!(globals_fingerprint(&m0), globals_fingerprint(&m2));
        // ... but the function chunk is untouched
        let fid0 = m0.func_by_name("f").unwrap();
        assert_eq!(
            function_hash(&m0, m0.func(fid0).unwrap()),
            function_hash(&m2, m2.func(fid0).unwrap())
        );

        // linkage change
        let mut m3 = m0.clone();
        let fid = m3.func_by_name("f").unwrap();
        m3.func_mut(fid).unwrap().linkage = Linkage::External;
        assert_ne!(module_hash(&m0), module_hash(&m3));
    }

    #[test]
    fn module_name_participates() {
        let mut m1 = sample_module();
        m1.name = "other".into();
        assert_ne!(module_hash(&sample_module()), module_hash(&m1));
    }

    #[test]
    fn fingerprint_tracks_arena_layout_where_print_hash_cannot() {
        let m = sample_module();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid).unwrap();
        // fingerprint is self-consistent
        assert_eq!(function_fingerprint(&m, f), function_fingerprint(&m, f));
        // and moves when an instruction operand changes
        let mut m1 = m.clone();
        let f1 = m1.func_mut(fid).unwrap();
        let entry = f1.entry;
        let first = f1.block(entry).unwrap().insts[0];
        f1.replace_uses_in(first, Value::i64(1), Value::i64(2));
        assert_ne!(
            function_fingerprint(&m, f),
            function_fingerprint(&m1, m1.func(fid).unwrap())
        );
    }
}
