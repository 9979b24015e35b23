//! The incremental analysis manager: per-function, content-addressed
//! memoization of the expensive analyses.
//!
//! A pass step typically touches one or two functions, yet every analysis
//! used to restart from scratch on the whole module. The
//! [`IncrementalAnalysisManager`] keys each per-function result by a
//! digest of everything that result can read, so an untouched function is
//! a guaranteed memo hit and a touched function (plus exactly the callers
//! whose view of it changed) recomputes.
//!
//! The manager is seven public [`Memo`] fields, one per analysis class,
//! that the analyses call directly (`mgr.absint.get_or_compute(..)`);
//! adding a class is one field plus one line in
//! [`IncrementalAnalysisManager::stats`]. The four interprocedural
//! classes (absint, alias, scev, depend) log the names of the functions
//! they recompute, which the invalidation tests drain with
//! [`Memo::drain_log`]. The classes and their keys:
//!
//! - **Embeddings** — keyed by the function's arena fingerprint
//!   ([`posetrl_ir::function_fingerprint`]) + the embedder-config digest.
//!   The fingerprint (not the print-chunk hash) is required because the
//!   embedder accumulates in raw arena order.
//! - **Lint bundles** (`ssa-def`/`undef`/`constmem`/`deadcode` per
//!   function) — keyed by `(function fingerprint, globals fingerprint)`;
//!   `constmem` reads globals by arena id.
//! - **Absint function analyses** — keyed by `(function fingerprint,
//!   argument-summary digest, callee-summary digest)`. The
//!   intraprocedural transfer reads *only* the return summaries of the
//!   function's direct callees, so this key is exact: the SCC driver
//!   replays its usual bottom-up schedule and every `analyze_function`
//!   call whose inputs are unchanged is a hit. Invalidation therefore
//!   propagates content-wise — a changed function recomputes, and its
//!   callers recompute only if its *summary* actually moved (a subset of
//!   the SCC-dependents set, never more).
//! - **Alias/memdep function analyses** — keyed by `(function
//!   fingerprint, fid+config digest, callee-summary digest)`, see
//!   [`AliasKey`].
//! - **Scev/profile function analyses** — keyed by `(function
//!   fingerprint, fid+config digest, absint-input digest)`. The trip
//!   refinement reads the function's own absint facts and argument
//!   summary, and the profile reads the no-return bit of each direct
//!   callee; the third key component digests exactly those, so a callee
//!   edit invalidates callers only when their view actually moved.
//! - **Dependence function analyses** — keyed by `(function
//!   fingerprint, fid+config digest, scev/alias-input digest)`. The
//!   subscript tests read the function's scev loop structure and the
//!   alias facts/summaries backing the fallback disambiguation; the
//!   third component digests exactly those, so an upstream analysis
//!   shift reaches this class content-wise.
//! - **Validate obligations** — per-function-pair verdicts keyed by the
//!   pair's transitive call-closure digests (symbolic execution inlines
//!   callees) + globals fingerprints + config digest. Only `Proved` and
//!   `Inconclusive` verdicts are cached; a `Refuted` verdict carries a
//!   counterexample and is always re-derived.
//!
//! **Determinism contract:** every memoized computation is a pure
//! function of its key, so a hit returns bit-identical results to a
//! recompute — same embeddings, same findings, same summaries — for any
//! worker count and any interleaving. Every class is the same bounded
//! first-write-wins FIFO table ([`crate::memo`]) that also backs the
//! `EvalCache` classes and the server's response store.

use crate::absint::domain::AbsVal;
use crate::absint::FuncFacts;
use crate::diag::Diagnostic;
use crate::memo::{ClassStats, Memo};
use crate::validate::Verdict;
use std::sync::Arc;

/// Default per-table entry bound.
const DEFAULT_TABLE_CAPACITY: usize = 1 << 14;

/// Key of one memoized per-function embedding.
pub type EmbedKey = (u128, u128);
/// Key of one memoized per-function lint bundle.
pub type LintKey = (u128, u128);
/// Key of one memoized absint function analysis.
pub type AbsintKey = (u128, u128, u128);
/// Key of one memoized alias/memdep function analysis: `(function
/// fingerprint, fid+config digest, callee-summary digest)`. The function
/// arena index is folded in because the points-to objects
/// ([`crate::alias::MemObj::Alloca`]) carry it — two content-identical
/// functions at different ids must not share a memo entry.
pub type AliasKey = (u128, u128, u128);
/// Key of one memoized validate obligation.
pub type ValidateKey = (u128, u128, u128);
/// Key of one memoized scev/profile function analysis: `(function
/// fingerprint, fid+config digest, absint-input digest)`. The last
/// component digests the absint facts/summary and callee no-return bits
/// the result reads, so a callee edit that moves any of those reaches
/// this class content-wise.
pub type ScevKey = (u128, u128, u128);
/// Key of one memoized dependence function analysis: `(function
/// fingerprint, fid+config digest, scev/alias-input digest)`. The last
/// component digests the function's scev loop structure and the alias
/// facts/summaries the subscript tests and the fallback disambiguation
/// read, so an upstream analysis shift reaches this class content-wise.
pub type DependKey = (u128, u128, u128);

/// A snapshot of every class's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Per-function embedding memo.
    pub embed: ClassStats,
    /// Per-function lint-bundle memo.
    pub lint: ClassStats,
    /// Absint function-analysis memo.
    pub absint: ClassStats,
    /// Alias/memdep function-analysis memo.
    pub alias: ClassStats,
    /// Scev/profile function-analysis memo.
    pub scev: ClassStats,
    /// Dependence function-analysis memo.
    pub depend: ClassStats,
    /// Validate obligation memo.
    pub validate: ClassStats,
}

impl IncrementalStats {
    /// Every class's counters, by class name.
    pub fn classes(&self) -> [(&'static str, ClassStats); 7] {
        [
            ("embed", self.embed),
            ("lint", self.lint),
            ("absint", self.absint),
            ("alias", self.alias),
            ("scev", self.scev),
            ("depend", self.depend),
            ("validate", self.validate),
        ]
    }
}

/// The shared, thread-safe memo store: one [`Memo`] per analysis class,
/// used directly by the analyses. See the module docs for keying and the
/// determinism contract.
pub struct IncrementalAnalysisManager {
    /// Per-function embeddings.
    pub embed: Memo<EmbedKey, Arc<Vec<f64>>>,
    /// Per-function lint bundles.
    pub lint: Memo<LintKey, Arc<Vec<Diagnostic>>>,
    /// Absint function analyses (logs recomputed function names).
    pub absint: Memo<AbsintKey, Arc<(FuncFacts, AbsVal)>>,
    /// Alias/memdep function analyses (logs recomputed function names).
    pub alias: Memo<AliasKey, Arc<crate::alias::AliasFnResult>>,
    /// Scev/profile function analyses (logs recomputed function names).
    pub scev: Memo<ScevKey, Arc<crate::scev::ScevFnResult>>,
    /// Dependence function analyses (logs recomputed function names).
    pub depend: Memo<DependKey, Arc<crate::depend::DependFnResult>>,
    /// Validate obligations. Only `Proved`/`Inconclusive` verdicts are
    /// stored; the rule sits at the single insert in `validate::refine`.
    pub validate: Memo<ValidateKey, Verdict>,
}

impl std::fmt::Debug for IncrementalAnalysisManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalAnalysisManager")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for IncrementalAnalysisManager {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalAnalysisManager {
    /// A manager with the default per-table capacity.
    pub fn new() -> IncrementalAnalysisManager {
        Self::with_capacity(DEFAULT_TABLE_CAPACITY)
    }

    /// A manager bounding every table at `capacity` entries.
    pub fn with_capacity(capacity: usize) -> IncrementalAnalysisManager {
        IncrementalAnalysisManager {
            embed: Memo::new(capacity),
            lint: Memo::new(capacity),
            absint: Memo::logged(capacity),
            alias: Memo::logged(capacity),
            scev: Memo::logged(capacity),
            depend: Memo::logged(capacity),
            validate: Memo::new(capacity),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            embed: self.embed.stats(),
            lint: self.lint.stats(),
            absint: self.absint.stats(),
            alias: self.alias.stats(),
            scev: self.scev.stats(),
            depend: self.depend.stats(),
            validate: self.validate.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::refine::{memoize_verdict, Counterexample};

    #[test]
    fn embed_memo_hits_and_first_write_wins() {
        let mgr = IncrementalAnalysisManager::new();
        let a = mgr
            .embed
            .get_or_compute("f", (1, 2), || Arc::new(vec![1.0, 2.0]));
        let b = mgr
            .embed
            .get_or_compute("f", (1, 2), || panic!("must not recompute"));
        assert_eq!(a, b);
        let st = mgr.stats();
        assert_eq!((st.embed.hits, st.embed.misses), (1, 1));
        assert!(st.embed.hit_rate() > 0.49 && st.embed.hit_rate() < 0.51);
    }

    #[test]
    fn fifo_eviction_bounds_the_table() {
        let mgr = IncrementalAnalysisManager::with_capacity(2);
        let empty = || Arc::new(Vec::new());
        mgr.embed.get_or_compute("f", (1, 0), empty);
        mgr.embed.get_or_compute("f", (2, 0), empty);
        mgr.embed.get_or_compute("f", (3, 0), empty); // evicts (1, 0)
        mgr.embed.get_or_compute("f", (1, 0), empty); // recomputes
        let st = mgr.stats();
        assert_eq!(st.embed.misses, 4);
        assert_eq!(st.embed.hits, 0);
        assert_eq!(mgr.embed.evictions(), 2);
    }

    #[test]
    fn recompute_log_drains() {
        let mgr = IncrementalAnalysisManager::new();
        let facts = FuncFacts {
            values: Vec::new(),
            reachable: Vec::new(),
        };
        let compute = || Arc::new((facts.clone(), AbsVal::Top));
        mgr.absint.get_or_compute("f", (1, 1, 1), compute);
        mgr.absint.get_or_compute("f", (1, 1, 1), compute);
        mgr.absint.get_or_compute("g", (2, 1, 1), compute);
        assert_eq!(mgr.absint.drain_log(), vec!["f", "g"]);
        assert!(mgr.absint.drain_log().is_empty());
        assert_eq!(mgr.stats().absint.misses, 2);
    }

    #[test]
    fn validate_memo_skips_refutations() {
        let mgr = IncrementalAnalysisManager::new();
        assert!(mgr.validate.get(&(1, 2, 3)).is_none());
        memoize_verdict(&mgr, (1, 2, 3), &Verdict::Proved);
        assert!(matches!(
            mgr.validate.get(&(1, 2, 3)),
            Some(Verdict::Proved)
        ));
        let refuted = Verdict::Refuted(Box::new(Counterexample {
            entry: "f".into(),
            args: Vec::new(),
            src_obs: "ret 0".into(),
            tgt_obs: "ret 1".into(),
        }));
        memoize_verdict(&mgr, (4, 5, 6), &refuted);
        assert!(
            mgr.validate.get(&(4, 5, 6)).is_none(),
            "refutations are re-derived"
        );
        assert_eq!(mgr.stats().validate, ClassStats { hits: 1, misses: 2 });
    }

    #[test]
    fn stats_iterate_every_class() {
        let mgr = IncrementalAnalysisManager::new();
        mgr.lint
            .get_or_compute("f", (1, 1), || Arc::new(Vec::new()));
        let classes = mgr.stats().classes();
        assert_eq!(classes.len(), 7);
        let misses: Vec<_> = classes.iter().map(|(name, c)| (*name, c.misses)).collect();
        assert!(misses.contains(&("lint", 1)));
        assert_eq!(misses.iter().map(|(_, m)| m).sum::<u64>(), 1);
    }
}
