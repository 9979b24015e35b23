//! Nightly validator sweeps of the lint-producing analyses, one test per
//! row of [`posetrl_analyze::suite::ANALYSES`] with consumer passes (alias
//! and scev; no pass trusts absint's or depend's facts directly; opt-in:
//! `POSETRL_ANALYSIS_SWEEP=1`; `cargo test --test analysis_sweep alias`
//! runs one; `POSETRL_ANALYSIS_SWEEP_STEP=n` samples every n-th module
//! for quick local measurements, nightly runs at 1).
//!
//! Each sweep runs the analysis's lints and facts over the training
//! corpus and applies every consumer pass raw and behind the entry's two
//! canonicalizing prefixes, discharging every module-changing application
//! through the symbolic translation validator. It archives lint counts,
//! facts and the proved/refuted/inconclusive rewrite rates as
//! `results/<name>_sweep.json` for the nightly CI artifact.
//!
//! The hard gates: **zero refuted applications** (a refutation means a
//! pass trusted a fact the analysis did not actually prove), and at least
//! one changed application (otherwise the sweep measured nothing). An
//! inconclusive verdict is acceptable (the validator's budgets are
//! finite) and its rate is reported.

use posetrl_analyze::suite::{self, Facts};
use posetrl_analyze::{validate_transform, ModuleAnalyses, ValidateConfig};
use posetrl_ir::printer::print_module;
use posetrl_opt::manager::PassManager;
use std::collections::BTreeMap;

fn sweep(name: &str) {
    if std::env::var("POSETRL_ANALYSIS_SWEEP").is_err() {
        return; // nightly CI sets the variable; the default run skips
    }
    let a = suite::find(name).expect("the analysis is in the table");
    let step: usize = posetrl_analyze::env_budget_or_usage("POSETRL_ANALYSIS_SWEEP_STEP", 1);
    let pm = PassManager::new();
    let cfg = ValidateConfig::from_env();

    let mut modules = 0usize;
    let mut lint_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut facts = Facts::default();
    let mut applications = 0usize;
    let mut changed = 0usize;
    let mut proved = 0usize;
    let mut refuted = 0usize;
    let mut inconclusive = 0usize;
    let mut per_pass: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // (changed, proved)
    let mut refutations: Vec<String> = Vec::new();

    for b in posetrl_workloads::training_suite().iter().step_by(step) {
        modules += 1;
        let analyses = ModuleAnalyses::new(&b.module, None);
        let mut diags = Vec::new();
        (a.lint)(&analyses, &mut diags);
        for d in &diags {
            *lint_counts.entry(d.code.to_string()).or_default() += 1;
        }
        (a.facts)(&analyses, &mut facts);

        for &pass in a.consumers {
            for prefix in a.sweep_prefixes {
                let mut m = b.module.clone();
                pm.run_pipeline(&mut m, prefix).unwrap();
                let pre = m.clone();
                pm.run_pass(&mut m, pass).unwrap();
                applications += 1;
                if print_module(&pre) == print_module(&m) {
                    continue; // no-op application: nothing to discharge
                }
                changed += 1;
                per_pass.entry(pass.to_string()).or_default().0 += 1;
                let mv = validate_transform(&pre, &m, &cfg);
                if mv.refuted() > 0 {
                    refuted += 1;
                    refutations.push(format!("{pass} after {prefix:?} on '{}'", b.name));
                } else if mv.all_proved() {
                    proved += 1;
                    per_pass.entry(pass.to_string()).or_default().1 += 1;
                } else {
                    inconclusive += 1;
                }
            }
        }
    }

    let proved_rate = proved as f64 / changed.max(1) as f64;
    let inconclusive_rate = inconclusive as f64 / changed.max(1) as f64;
    let passes: BTreeMap<String, serde_json::Value> = per_pass
        .iter()
        .map(|(p, (c, pr))| (p.clone(), serde_json::json!({ "changed": c, "proved": pr })))
        .collect();
    let consumers = serde_json::json!({
        "applications": applications,
        "changed": changed,
        "proved": proved,
        "refuted": refuted,
        "inconclusive": inconclusive,
        "proved_rate": proved_rate,
        "inconclusive_rate": inconclusive_rate,
        "per_pass": passes,
    });
    let payload = serde_json::json!({
        "modules": modules,
        "lints": lint_counts,
        "facts": facts.to_json(),
        "consumers": consumers,
        "refutations": refutations,
    });
    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        format!("results/{name}_sweep.json"),
        serde_json::to_string_pretty(&payload).unwrap(),
    )
    .unwrap();
    eprintln!(
        "[{name}-sweep] {modules} modules: {applications} consumer applications \
         ({changed} changed): {proved} proved, {refuted} refuted, \
         {inconclusive} inconclusive (proved rate {proved_rate:.3})"
    );

    assert_eq!(
        refuted, 0,
        "{name}-backed rewrites were refuted: {refutations:?}"
    );
    assert!(
        changed > 0,
        "no {name} consumer ever fired on the corpus — the sweep measured nothing"
    );
}

macro_rules! sweep_tests {
    ($($name:ident),*) => {
        $(
            #[test]
            fn $name() {
                sweep(stringify!($name));
            }
        )*

        #[test]
        fn every_table_entry_with_consumers_has_a_sweep() {
            let swept: Vec<&str> = suite::ANALYSES
                .iter()
                .filter(|a| !a.consumers.is_empty())
                .map(|a| a.name)
                .collect();
            assert_eq!(swept, [$(stringify!($name)),*]);
        }
    };
}

sweep_tests!(alias, scev);
