//! The table of lint-producing analyses.
//!
//! absint, alias, scev and depend each produce lints, render a stable
//! textual dump, feed a (possibly empty) set of consumer passes and
//! report a handful of corpus-level numbers. [`ANALYSES`] records those
//! facts once. A row's `lint`, `render` and `facts` read one
//! [`ModuleAnalyses`], so a harness that lints, dumps and counts a module
//! computes each analysis once. Every harness reads the rows from here: the golden corpus
//! harness (`tests/golden/mod.rs`), the nightly validator sweep
//! (`tests/analysis_sweep.rs`), the corpus census (`repro <name>stats`),
//! the `mini-analyze --<name>` dump mode and the CI matrix. Adding a
//! fifth analysis means adding a row here, a golden directory
//! `tests/analyze/<name>/` and a `tests/<name>_golden.rs` entry point.

use crate::bundle::ModuleAnalyses;
use crate::diag::Diagnostic;
use crate::{absint, alias, depend, scev};
use std::collections::BTreeMap;

/// One lint-producing analysis and everything its harnesses need.
pub struct Analysis {
    /// Short name: the `mini-analyze --<name>` flag, the golden corpus
    /// directory `tests/analyze/<name>/`, the sweep artifact
    /// `results/<name>_sweep.json` and the `repro <name>stats` census.
    pub name: &'static str,
    /// Appends the analysis's lints.
    pub lint: fn(&ModuleAnalyses, &mut Vec<Diagnostic>),
    /// The analysis's stable textual dump.
    pub render: fn(&ModuleAnalyses) -> String,
    /// Passes whose rewrites trust this analysis's facts. The nightly
    /// sweep covers exactly the analyses with at least one.
    pub consumers: &'static [&'static str],
    /// Passes the census runs first, so the analysis sees the module in
    /// the shape its consumers see mid-pipeline.
    pub canonicalize: &'static [&'static str],
    /// The pipelines the sweep applies each consumer behind (raw first).
    pub sweep_prefixes: [&'static [&'static str]; 3],
    /// Records the analysis-specific corpus numbers of one module.
    pub facts: fn(&ModuleAnalyses, &mut Facts),
}

/// Promotes induction variables out of memory and gives every loop a
/// preheader; the generated corpus keeps IVs in memory.
const LOOP_CANON: &[&str] = &["mem2reg", "loop-simplify"];

/// Sweep prefixes: raw, promoted, then constant-folded (absint, alias)
/// or loop-canonicalized (scev, depend).
const SCALAR_PREFIXES: [&[&str]; 3] = [&[], &["mem2reg", "instcombine"], &["sccp", "simplifycfg"]];
const LOOP_PREFIXES: [&[&str]; 3] = [
    &[],
    &["mem2reg", "instcombine"],
    &["loop-simplify", "simplifycfg"],
];

/// absint, alias, scev and depend, in registry order.
pub const ANALYSES: [Analysis; 4] = [
    Analysis {
        name: "absint",
        lint: |a, out| absint::lint_with(a.module(), a.absint(), out),
        render: |a| absint::render(a.module(), a.absint()),
        // no pass trusts absint's facts directly: absint feeds lints,
        // static feature dims 0-31 and scev, whose consumers the scev
        // sweep validates
        consumers: &[],
        canonicalize: &[],
        sweep_prefixes: SCALAR_PREFIXES,
        facts: absint_facts,
    },
    Analysis {
        name: "alias",
        lint: |a, out| alias::lint_with(a.module(), a.alias(), out),
        render: |a| alias::render(a.module(), a.alias()),
        consumers: &["dse", "gvn", "early-cse-memssa", "licm"],
        canonicalize: &[],
        sweep_prefixes: SCALAR_PREFIXES,
        facts: alias_facts,
    },
    Analysis {
        name: "scev",
        lint: |a, out| scev::lint_with(a.module(), a.scev(), out),
        render: |a| scev::render(a.module(), a.scev()),
        consumers: &[
            "indvars",
            "loop-unroll",
            "loop-unroll-aggressive",
            "loop-vectorize",
        ],
        canonicalize: LOOP_CANON,
        sweep_prefixes: LOOP_PREFIXES,
        facts: scev_facts,
    },
    Analysis {
        name: "depend",
        lint: |a, out| depend::lint_with(a.module(), a.scev(), a.alias(), out),
        render: |a| depend::render(a.module(), a.depend()),
        // no pass trusts dependence verdicts: depend feeds lints, the
        // census and static feature dims 48-55 only
        consumers: &[],
        canonicalize: LOOP_CANON,
        sweep_prefixes: LOOP_PREFIXES,
        facts: depend_facts,
    },
];

/// Looks up a table entry by name.
pub fn find(name: &str) -> Option<&'static Analysis> {
    ANALYSES.iter().find(|a| a.name == name)
}

/// Corpus totals of one analysis's named numbers, filled module by module
/// through [`Analysis::facts`]. A name is a count (summed), a mean
/// (averaged over the samples recorded under it) or a vector mean
/// (averaged element-wise). Samples are added in recording order, so a
/// total is bit-identical to a hand-written accumulation loop.
#[derive(Debug, Clone, Default)]
pub struct Facts(BTreeMap<&'static str, Total>);

#[derive(Debug, Clone)]
enum Total {
    Count(usize),
    Mean { sum: f64, samples: usize },
    VecMean { sums: Vec<f64>, samples: usize },
}

impl Facts {
    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        match self.0.entry(name).or_insert(Total::Count(0)) {
            Total::Count(c) => *c += n,
            _ => panic!("fact '{name}' is not a count"),
        }
    }

    /// Records one sample of the mean `name`.
    pub fn sample(&mut self, name: &'static str, x: f64) {
        match self.0.entry(name).or_insert(Total::Mean {
            sum: 0.0,
            samples: 0,
        }) {
            Total::Mean { sum, samples } => {
                *sum += x;
                *samples += 1;
            }
            _ => panic!("fact '{name}' is not a mean"),
        }
    }

    /// Records one sample of the element-wise mean `name`.
    pub fn sample_vec(&mut self, name: &'static str, xs: &[f64]) {
        match self.0.entry(name).or_insert(Total::VecMean {
            sums: vec![0.0; xs.len()],
            samples: 0,
        }) {
            Total::VecMean { sums, samples } if sums.len() == xs.len() => {
                for (s, x) in sums.iter_mut().zip(xs) {
                    *s += x;
                }
                *samples += 1;
            }
            _ => panic!("fact '{name}' is not a {}-wide vector mean", xs.len()),
        }
    }

    /// The totals as JSON values: counts are integers, means floats and
    /// vector means `{"dim": n, "means": [...]}`.
    pub fn to_json(&self) -> BTreeMap<String, serde_json::Value> {
        let mean = |sum: f64, samples: usize| sum / samples.max(1) as f64;
        self.0
            .iter()
            .map(|(name, t)| {
                let v = match t {
                    Total::Count(c) => serde_json::json!(c),
                    Total::Mean { sum, samples } => serde_json::json!(mean(*sum, *samples)),
                    Total::VecMean { sums, samples } => serde_json::json!({
                        "dim": sums.len(),
                        "means": sums.iter().map(|s| mean(*s, *samples)).collect::<Vec<_>>(),
                    }),
                };
                (name.to_string(), v)
            })
            .collect()
    }
}

/// The static feature vector's per-dimension means.
fn absint_facts(a: &ModuleAnalyses, facts: &mut Facts) {
    facts.sample_vec("feature_means", &absint::features::features(a));
}

/// Mod/ref summary shape and memory-dependence metrics per defined
/// function.
fn alias_facts(a: &ModuleAnalyses, facts: &mut Facts) {
    let (m, ma) = (a.module(), a.alias());
    for fid in m.func_ids() {
        if m.func(fid).is_none_or(|f| f.is_decl) {
            continue;
        }
        facts.count("functions", 1);
        let top = ma.summary(fid).is_some_and(|s| s.mods.top || s.refs.top);
        facts.count("top_modref_functions", top as usize);
        let md = ma.memdep(fid);
        facts.count("dead_stores", md.map_or(0, |md| md.dead_stores.len()));
        // adding 0.0 for a function without MemDep leaves the sum exact
        facts.sample("mean_max_chain", md.map_or(0.0, |md| md.max_chain as f64));
    }
}

/// Trip-count classes, loop flags, recurrences and the static profile's
/// hot-block ratio.
fn scev_facts(a: &ModuleAnalyses, facts: &mut Facts) {
    for fr in a.scev().funcs.values() {
        facts.sample("mean_hot_ratio", fr.profile.hot_ratio);
        for l in &fr.loops {
            facts.count("loops", 1);
            facts.count("add_recs", l.recs.len());
            let (exact, bounded) = match l.trip {
                scev::TripCount::Exact(_) => (1, 0),
                scev::TripCount::Bounded(_) => (0, 1),
                scev::TripCount::Unknown => (0, 0),
            };
            facts.count("exact_trips", exact);
            facts.count("bounded_trips", bounded);
            facts.count("unknown_trips", 1 - exact - bounded);
            facts.count("infinite_loops", l.provably_infinite as usize);
            facts.count("iv_wraps", l.iv_wraps as usize);
        }
    }
}

/// Dependence edges by kind, proved distances and per-loop legality
/// verdicts.
fn depend_facts(a: &ModuleAnalyses, facts: &mut Facts) {
    for fr in a.depend().funcs.values() {
        for l in &fr.loops {
            facts.count("loops", 1);
            facts.count("disambiguated_pairs", l.disambiguated as usize);
            facts.count(
                "opaque_or_truncated",
                (l.opaque_calls || l.truncated) as usize,
            );
            facts.count("parallel_safe_loops", l.parallel_safe as usize);
            facts.count("vector_safe_loops", l.vector_safe as usize);
            facts.count("carrying_loops", l.deps.iter().any(|d| d.carried) as usize);
            for d in &l.deps {
                let kind = match d.kind {
                    depend::DepKind::Flow => "flow_deps",
                    depend::DepKind::Anti => "anti_deps",
                    depend::DepKind::Output => "output_deps",
                };
                facts.count(kind, 1);
                facts.count("carried_deps", d.carried as usize);
                facts.count("proved_distances", d.distance.is_some() as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_totals_match_a_hand_written_accumulation() {
        let xs = [0.1, 0.2, 0.3, 0.7];
        let mut f = Facts::default();
        let mut hand = 0.0;
        for x in xs {
            f.count("n", 2);
            f.sample("m", x);
            f.sample_vec("v", &[x, 1.0]);
            hand += x;
        }
        let j = f.to_json();
        assert_eq!(j["n"], serde_json::json!(8usize));
        assert_eq!(j["m"], serde_json::json!(hand / 4.0));
        assert_eq!(
            j["v"],
            serde_json::json!({ "dim": 2usize, "means": [hand / 4.0, 1.0] })
        );
    }

    #[test]
    #[should_panic(expected = "not a count")]
    fn one_name_keeps_one_kind() {
        let mut f = Facts::default();
        f.sample("x", 1.0);
        f.count("x", 1);
    }
}
