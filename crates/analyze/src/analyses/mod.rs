//! The lint suite: individual analyses over a module.
//!
//! Each analysis appends [`Diagnostic`]s to a shared vector; [`run_all`]
//! drives them over every function body and returns a deterministically
//! ordered report.

pub mod callcheck;
pub mod constmem;
pub mod deadcode;
pub mod ssa_def;
pub mod undef;

use crate::diag::Diagnostic;
use posetrl_ir::analysis::cfg::Cfg;
use posetrl_ir::analysis::dom::DomTree;
use posetrl_ir::{Function, Module};

/// Universe size for instruction-indexed bit sets: one bit per arena slot
/// up to the highest live instruction id.
pub(crate) fn inst_universe(f: &Function) -> usize {
    f.inst_ids()
        .iter()
        .map(|i| i.index() + 1)
        .max()
        .unwrap_or(0)
}

/// Runs every analysis over `m` and returns the combined, ordered report.
pub fn run_all(m: &Module) -> Vec<Diagnostic> {
    run_all_with(m, None)
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

/// [`run_all`], optionally memoizing the per-function lint bundles and
/// absint analyses through an [`IncrementalAnalysisManager`].
///
/// The pre-sort emission order is byte-for-byte the non-incremental one
/// (callcheck, then each function's bundle in `func_ids` order, then the
/// absint lints), and [`sort_report`] is stable, so the final report is
/// identical with and without a manager. Bundles are keyed by
/// `(function fingerprint, globals fingerprint)` — `constmem` reads
/// globals by arena id, and lint locations carry arena ids, so the
/// arena-sensitive fingerprint (not the print hash) is the sound key.
///
/// [`IncrementalAnalysisManager`]: crate::incremental::IncrementalAnalysisManager
pub fn run_all_with(
    m: &Module,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    callcheck::check(m, &mut out);
    let globals_fp = mgr.map(|_| posetrl_ir::globals_fingerprint(m));
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        match (mgr, globals_fp) {
            (Some(mgr), Some(gfp)) => {
                let key = (posetrl_ir::function_fingerprint(m, f), gfp);
                let bundle = mgr
                    .lint
                    .get_or_compute(&f.name, key, || std::sync::Arc::new(function_lints(m, f)));
                out.extend(bundle.iter().cloned());
            }
            _ => out.append(&mut function_lints(m, f)),
        }
    }
    crate::absint::check_with(m, mgr, &mut out);
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
