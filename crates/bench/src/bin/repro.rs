//! The reproduction harness.
//!
//! ```text
//! repro [--scale quick|standard|paper] [--sanitize off|verify|validate|full] <experiment>...
//!
//! experiments:
//!   table1      the Oz pass sequence (Table I)
//!   table2      the 15 manual sub-sequences (Table II)
//!   table3      the 34 ODG sub-sequences (Table III)
//!   odgstats    ODG node/edge/degree statistics (Section IV-B)
//!   absintstats aliasstats scevstats dependstats
//!               corpus census of one analysis of the analysis table
//!               (DESIGN.md §11, §14-§16)
//!   fig1        O3 vs Oz runtime/size on SPEC (Fig. 1)
//!   table4      % size reduction vs Oz (Table IV)
//!   table5      % execution-time improvement vs Oz (Table V)
//!   fig5        per-benchmark runtime & size series (Fig. 5)
//!   table6      predicted sub-sequences (Table VI)
//!   enginestats parallel episode engine: sweep timings + cache hit rate
//!   servestats  posetrl-serve load bench: 1/8/64 clients, p50/p99, hit rates
//!   ablate-reward | ablate-ddqn | ablate-actions | ablate-embed
//!   all         everything above
//! ```
//!
//! Text output goes to stdout; machine-readable copies land in `results/`.
//!
//! `--sanitize` selects the pass-pipeline sanitizer level for the
//! `enginestats` experiment (`verify` re-checks the IR after every applied
//! pass; `validate` additionally attempts a static refinement proof of
//! each pass application, diff-executing only the inconclusive remainder;
//! `full` diff-executes everything and delta-reduces miscompiles).

use posetrl::experiments::{self, ExperimentContext, Scale};
use posetrl_analyze::suite::{Analysis, ANALYSES};
use posetrl_analyze::SanitizeLevel;
use posetrl_bench::write_artifact;
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Standard;
    let mut sanitize = SanitizeLevel::Off;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "standard" => Scale::Standard,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale '{other}' (quick|standard|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--sanitize" => {
                let v = it.next().unwrap_or_default();
                sanitize = SanitizeLevel::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale quick|standard|paper] [--sanitize off|verify|validate|full] <experiment>..."
                );
                println!(
                    "experiments: table1 table2 table3 odgstats absintstats aliasstats scevstats dependstats fig1 table4 table5 fig5 table6"
                );
                println!(
                    "             enginestats servestats ablate-reward ablate-ddqn ablate-actions"
                );
                println!("             ablate-embed all");
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let census = |a: &Analysis| format!("{}stats", a.name);
    const KNOWN: [&str; 16] = [
        "all",
        "table1",
        "table2",
        "table3",
        "odgstats",
        "fig1",
        "table4",
        "table5",
        "fig5",
        "table6",
        "enginestats",
        "servestats",
        "ablate-reward",
        "ablate-ddqn",
        "ablate-actions",
        "ablate-embed",
    ];
    for w in &wanted {
        if !KNOWN.contains(&w.as_str()) && !ANALYSES.iter().any(|a| census(a) == *w) {
            eprintln!("unknown experiment '{w}' (see --help)");
            std::process::exit(2);
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    // static experiments (no training)
    if want("table1") {
        run_table1();
    }
    if want("table2") {
        run_table2();
    }
    if want("table3") {
        run_table3();
    }
    if want("odgstats") {
        let s = experiments::odg_stats();
        emit("odgstats", &s.render(), &serde_json::to_value(&s).unwrap());
    }
    for a in &ANALYSES {
        let name = census(a);
        if want(&name) {
            let s = experiments::analysis_stats(a);
            emit(&name, &s.render(), &serde_json::to_value(&s).unwrap());
        }
    }
    if want("fig1") {
        let f = experiments::fig1(scale);
        emit("fig1", &f.render(), &serde_json::to_value(&f).unwrap());
    }
    if want("enginestats") {
        let s = experiments::engine_stats(scale, sanitize);
        emit(
            "enginestats",
            &s.render(),
            &serde_json::to_value(&s).unwrap(),
        );
    }
    if want("servestats") {
        match posetrl_serve::servestats() {
            Ok((text, json)) => emit("servestats", &text, &json),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    // trained experiments share one context
    let needs_ctx = [
        "table4",
        "table5",
        "fig5",
        "table6",
        "ablate-reward",
        "ablate-ddqn",
        "ablate-actions",
        "ablate-embed",
    ]
    .iter()
    .any(|e| want(e));
    if !needs_ctx {
        return;
    }
    eprintln!("[repro] training models at {scale:?} scale ...");
    let ctx = ExperimentContext::new(scale);
    eprintln!("[repro] training done; running experiments");

    if want("table4") {
        let t = experiments::table4(&ctx);
        emit("table4", &t.render(), &serde_json::to_value(&t).unwrap());
    }
    // Fig. 5 is a view of Table V's per-benchmark detail
    if want("table5") || want("fig5") {
        let t = experiments::table5(&ctx);
        if want("table5") {
            emit("table5", &t.render(), &serde_json::to_value(&t).unwrap());
        }
        if want("fig5") {
            let f = experiments::fig5(&t);
            emit("fig5", &f.render(), &serde_json::to_value(&f).unwrap());
        }
    }
    if want("table6") {
        let t = experiments::table6(&ctx);
        emit("table6", &t.render(), &serde_json::to_value(&t).unwrap());
    }
    if want("ablate-reward") {
        let a = experiments::ablate_reward(&ctx);
        emit(
            "ablate-reward",
            &a.render(),
            &serde_json::to_value(&a).unwrap(),
        );
    }
    if want("ablate-ddqn") {
        let a = experiments::ablate_ddqn(&ctx);
        emit(
            "ablate-ddqn",
            &a.render(),
            &serde_json::to_value(&a).unwrap(),
        );
    }
    if want("ablate-actions") {
        let a = experiments::ablate_actions(&ctx);
        emit(
            "ablate-actions",
            &a.render(),
            &serde_json::to_value(&a).unwrap(),
        );
    }
    if want("ablate-embed") {
        let a = experiments::ablate_embed(&ctx);
        emit(
            "ablate-embed",
            &a.render(),
            &serde_json::to_value(&a).unwrap(),
        );
    }
}

fn emit(name: &str, text: &str, json: &serde_json::Value) {
    println!("==== {name} ====");
    println!("{text}");
    write_artifact(name, text, json);
}

fn run_table1() {
    let seq = posetrl_opt::pipelines::oz();
    let unique: std::collections::BTreeSet<&str> = seq.iter().copied().collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table I: the Oz sequence ({} passes, {} unique)",
        seq.len(),
        unique.len()
    );
    let flags: Vec<String> = seq.iter().map(|p| format!("-{p}")).collect();
    let _ = writeln!(text, "{}", flags.join(" "));
    emit(
        "table1",
        &text,
        &serde_json::json!({ "passes": seq, "unique": unique.len() }),
    );
}

fn run_table2() {
    let mut text = String::from("Table II: manual sub-sequences\n");
    for (i, seq) in posetrl_odg::manual::MANUAL_SUBSEQUENCES.iter().enumerate() {
        let flags: Vec<String> = seq.iter().map(|p| format!("-{p}")).collect();
        let _ = writeln!(text, "{:>2}  {}", i + 1, flags.join(" "));
    }
    emit(
        "table2",
        &text,
        &serde_json::json!({ "subsequences": posetrl_odg::manual::MANUAL_SUBSEQUENCES.to_vec() }),
    );
}

fn run_table3() {
    let mut text = String::from("Table III: ODG sub-sequences\n");
    for (i, seq) in posetrl_odg::walks::ODG_SUBSEQUENCES.iter().enumerate() {
        let flags: Vec<String> = seq.iter().map(|p| format!("-{p}")).collect();
        let _ = writeln!(text, "{:>2}  {}", i + 1, flags.join(" "));
    }
    emit(
        "table3",
        &text,
        &serde_json::json!({ "subsequences": posetrl_odg::walks::ODG_SUBSEQUENCES.to_vec() }),
    );
}
