//! The lint suite: individual analyses over a module.
//!
//! Each analysis appends [`Diagnostic`]s to a shared vector; [`run_all`]
//! drives them over every function body, adds the absint lints over the
//! bundle's absint result ([`ModuleAnalyses::absint`]) and returns a
//! deterministically ordered report.

pub mod callcheck;
pub mod constmem;
pub mod deadcode;
pub mod ssa_def;
pub mod undef;

use crate::bundle::ModuleAnalyses;
use crate::diag::Diagnostic;
use crate::memo::memoized;
use posetrl_ir::analysis::cfg::Cfg;
use posetrl_ir::analysis::dom::DomTree;
use posetrl_ir::{Function, Module};
use std::cell::OnceCell;
use std::sync::Arc;

/// Universe size for instruction-indexed bit sets: one bit per arena slot
/// up to the highest live instruction id.
pub(crate) fn inst_universe(f: &Function) -> usize {
    f.inst_ids()
        .iter()
        .map(|i| i.index() + 1)
        .max()
        .unwrap_or(0)
}

/// One function's local lint bundle (the per-function fixpoint lints, in
/// the order [`run_all`] has always emitted them).
fn function_lints(m: &Module, f: &Function) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    ssa_def::check(f, &cfg, &dt, &mut out);
    undef::check(f, &cfg, &mut out);
    constmem::check(m, f, &cfg, &mut out);
    deadcode::check(f, &cfg, &mut out);
    out
}

/// Runs every lint over the bundle's module and returns the combined,
/// ordered report. With a manager on the bundle, the per-function lint
/// bundles are memoized there.
///
/// The pre-sort emission order is the same with and without a manager
/// (callcheck, then each function's bundle in `func_ids` order, then the
/// absint lints), and [`sort_report`] is stable, so the final report is
/// identical either way. Bundles are keyed by `(function fingerprint,
/// globals fingerprint)` — `constmem` reads globals by arena id, and
/// lint locations carry arena ids, so the arena-sensitive fingerprint
/// (not the print hash) is the sound key.
pub fn run_all(a: &ModuleAnalyses) -> Vec<Diagnostic> {
    let (m, mgr) = (a.module(), a.mgr());
    let mut out = Vec::new();
    callcheck::check(m, &mut out);
    let globals_fp = OnceCell::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let key = || {
            let gfp = *globals_fp.get_or_init(|| posetrl_ir::globals_fingerprint(m));
            (posetrl_ir::function_fingerprint(m, f), gfp)
        };
        let bundle = memoized(mgr.map(|g| &g.lint), &f.name, key, || {
            Arc::new(function_lints(m, f))
        });
        out.extend(Arc::unwrap_or_clone(bundle));
    }
    crate::absint::lint_with(m, a.absint(), &mut out);
    sort_report(&mut out);
    out
}

/// Orders diagnostics by location (function, block, index) then code so
/// reports are stable across runs and hash maps.
pub fn sort_report(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (
                d.loc.func.clone().unwrap_or_default(),
                d.loc.block.map(|b| b.index()).unwrap_or(usize::MAX),
                d.loc.inst_index.unwrap_or(usize::MAX),
                d.code,
            )
        };
        key(a).cmp(&key(b)).then_with(|| {
            // higher severity first among co-located findings
            b.severity.cmp(&a.severity)
        })
    });
}
