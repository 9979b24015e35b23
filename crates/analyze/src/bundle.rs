//! [`ModuleAnalyses`]: the one place the module analyses are chained.
//!
//! absint feeds scev (trip-count refinement, dead-branch probabilities),
//! scev and alias feed depend (subscript tests, fallback
//! disambiguation), and the lint suite, the static features, the census
//! and the dump modes read several of them at once. A [`ModuleAnalyses`]
//! computes each result lazily, at most once, from the results it
//! depends on — the role LLVM's new-pass-manager `AnalysisManager` plays
//! for one IR unit. With a manager attached, every driver memoizes its
//! per-function leaves there, so a bundle over a lightly edited module
//! recomputes only what the edit reached.
//!
//! Every analysis is a pure function of the module, and the memo's
//! bit-identity contract ([`crate::incremental`]) covers the manager
//! path, so a bundle's results do not depend on whether a manager is
//! attached, on which accessor runs first, or on what else the manager
//! holds.
//!
//! Each analysis has exactly one module driver, which takes its upstream
//! results as arguments: [`absint::analyze_module_with`],
//! [`alias::analyze_module_with`], [`scev::analyze_module_cfg_absint`]
//! and [`depend::analyze_module_full`]. Passes that need only alias
//! facts call the alias driver directly; no other code calls the scev
//! or depend drivers.

use crate::absint::{self, ModuleAbsint};
use crate::alias::{self, ModuleAlias};
use crate::depend::{self, ModuleDepend};
use crate::incremental::IncrementalAnalysisManager;
use crate::scev::{self, ModuleScev, ScevConfig};
use posetrl_ir::Module;
use std::cell::OnceCell;

/// The analyses of one module, each computed on first use.
pub struct ModuleAnalyses<'m> {
    m: &'m Module,
    mgr: Option<&'m IncrementalAnalysisManager>,
    absint: OnceCell<ModuleAbsint>,
    alias: OnceCell<ModuleAlias>,
    scev: OnceCell<ModuleScev>,
    depend: OnceCell<ModuleDepend>,
}

impl<'m> ModuleAnalyses<'m> {
    /// A bundle over `m` with nothing computed yet; `mgr`, when given,
    /// memoizes every driver's per-function leaves.
    pub fn new(m: &'m Module, mgr: Option<&'m IncrementalAnalysisManager>) -> ModuleAnalyses<'m> {
        ModuleAnalyses {
            m,
            mgr,
            absint: OnceCell::new(),
            alias: OnceCell::new(),
            scev: OnceCell::new(),
            depend: OnceCell::new(),
        }
    }

    /// The analyzed module.
    pub(crate) fn module(&self) -> &'m Module {
        self.m
    }

    /// The attached manager, if any.
    pub(crate) fn mgr(&self) -> Option<&'m IncrementalAnalysisManager> {
        self.mgr
    }

    /// Interprocedural abstract interpretation.
    pub fn absint(&self) -> &ModuleAbsint {
        self.absint
            .get_or_init(|| absint::analyze_module_with(self.m, self.mgr))
    }

    /// Points-to facts, mod/ref summaries and memory dependence.
    pub fn alias(&self) -> &ModuleAlias {
        self.alias
            .get_or_init(|| alias::analyze_module_with(self.m, self.mgr))
    }

    /// Recurrences, trip counts and the static profile, at the default
    /// budgets, over [`Self::absint`].
    pub fn scev(&self) -> &ModuleScev {
        self.scev.get_or_init(|| {
            scev::analyze_module_cfg_absint(self.m, self.absint(), &ScevConfig::default(), self.mgr)
        })
    }

    /// Loop dependences over [`Self::scev`] and [`Self::alias`].
    pub fn depend(&self) -> &ModuleDepend {
        self.depend.get_or_init(|| {
            depend::analyze_module_full(self.m, self.scev(), self.alias(), self.mgr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::features::features;
    use crate::analyses::run_all;
    use posetrl_ir::parser::parse_module;

    /// A call, a loop with a carried dependence and memory traffic, so
    /// every analysis has something to say.
    const SAMPLE: &str = r#"
module "bundle"

fn @fill(ptr, i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %i2 = add i64 %i, 2:i64
  %ps = gep i64, %arg0, %i
  %v = load i64, %ps
  %pd = gep i64, %arg0, %i2
  store i64 %v, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}

fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 16
  store i64 1:i64, %a
  %r = call @fill(%a, 3:i64) -> i64
  ret %r
}
"#;

    fn modules() -> Vec<Module> {
        let mut ms = vec![parse_module(SAMPLE).unwrap()];
        let suite = posetrl_workloads::suites::training_suite();
        ms.extend(suite.into_iter().take(3).map(|b| b.module));
        ms
    }

    /// The four drivers chained by hand, their results preset in a bundle.
    fn chained_by_hand<'m>(
        m: &'m Module,
        mgr: Option<&'m IncrementalAnalysisManager>,
    ) -> ModuleAnalyses<'m> {
        let mi = absint::analyze_module_with(m, mgr);
        let ma = alias::analyze_module_with(m, mgr);
        let ms = scev::analyze_module_cfg_absint(m, &mi, &ScevConfig::default(), mgr);
        let md = depend::analyze_module_full(m, &ms, &ma, mgr);
        let a = ModuleAnalyses::new(m, mgr);
        assert!(a.absint.set(mi).is_ok() && a.alias.set(ma).is_ok());
        assert!(a.scev.set(ms).is_ok() && a.depend.set(md).is_ok());
        a
    }

    #[test]
    fn each_analysis_runs_at_most_once_and_matches_the_drivers_chained_by_hand() {
        for m in &modules() {
            // features, then the lints, then every accessor: each class
            // sees exactly the lookups of one driver run on a fresh
            // manager, so nothing ran twice
            let mgr = IncrementalAnalysisManager::new();
            let a = ModuleAnalyses::new(m, Some(&mgr));
            let feats = features(&a);
            let lints = run_all(&a);
            let once = IncrementalAnalysisManager::new();
            let h = chained_by_hand(m, Some(&once));
            assert_eq!(run_all(&h), lints, "{}", m.name);
            assert_eq!(features(&h), feats, "{}", m.name);
            let results = (a.absint(), a.alias(), a.scev(), a.depend());
            assert_eq!(results, (h.absint(), h.alias(), h.scev(), h.depend()));
            assert_eq!(mgr.stats(), once.stats(), "{}", m.name);
            assert!(
                mgr.stats().depend.misses > 0,
                "{}: the manager was used",
                m.name
            );

            // without a manager the bundle equals the drivers chained by
            // hand, and so do the features and lints over it
            let lazy = ModuleAnalyses::new(m, None);
            let h0 = chained_by_hand(m, None);
            assert_eq!(features(&lazy), feats, "{}: features bit-identical", m.name);
            assert_eq!(features(&h0), feats, "{}", m.name);
            assert_eq!(run_all(&lazy), lints, "{}", m.name);
            assert_eq!(run_all(&h0), lints, "{}", m.name);
            assert_eq!(
                results,
                (lazy.absint(), lazy.alias(), lazy.scev(), lazy.depend())
            );
            assert_eq!(results, (h0.absint(), h0.alias(), h0.scev(), h0.depend()));
        }
    }
}
