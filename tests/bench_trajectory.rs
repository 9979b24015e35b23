//! Shape check of the committed performance trajectory.
//!
//! Each `BENCH_<workload>.json` at the repository root is a JSON array
//! of the benchmark's result lines, one per run: `commit`, `workload`,
//! `seed`, `correct`, `attempted`, `failed` and `metrics`, the last as
//! the benchmark prints them (`{name: {value, unit}}`). This test checks
//! that every line names a workload and metrics `BENCHMARK.json`
//! declares, with the declared unit and a finite value. It re-times
//! nothing: runner noise would make a timing gate here meaningless.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"))
}

/// Metric name → unit, over both of `BENCHMARK.json`'s metric lists.
fn declared_units(benchmark: &Value) -> BTreeMap<String, String> {
    ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| benchmark[*list].as_array().expect("a metric list"))
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_bench_file_holds_result_lines_of_declared_workloads_and_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = read_json(&root.join("BENCHMARK.json"));
    let workloads: Vec<&str> = benchmark["workloads"]
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("a workload name"))
        .collect();
    let units = declared_units(&benchmark);

    let mut files: Vec<_> = std::fs::read_dir(root)
        .expect("the repository root lists")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");

    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        let file_workload = &name["BENCH_".len()..name.len() - ".json".len()];
        assert!(
            workloads.contains(&file_workload),
            "{name}: `{file_workload}` is not a workload of BENCHMARK.json"
        );
        let lines = read_json(path);
        let lines = lines
            .as_array()
            .unwrap_or_else(|| panic!("{name}: not an array of result lines"));
        assert!(!lines.is_empty(), "{name}: no result line");
        for (i, line) in lines.iter().enumerate() {
            let at = format!("{name}[{i}]");
            let commit = line["commit"].as_str().unwrap_or("");
            assert!(!commit.is_empty(), "{at}: no commit");
            assert_eq!(
                line["workload"].as_str(),
                Some(file_workload),
                "{at}: workload"
            );
            assert!(line["seed"].as_u64().is_some(), "{at}: no integer seed");
            assert!(line["correct"].as_bool().is_some(), "{at}: no `correct`");
            for key in ["attempted", "failed"] {
                assert!(line[key].as_u64().is_some(), "{at}: no count `{key}`");
            }
            let metrics = line["metrics"]
                .as_object()
                .unwrap_or_else(|| panic!("{at}: no metrics object"));
            assert!(!metrics.is_empty(), "{at}: no metric");
            for (metric, m) in metrics {
                let declared = units
                    .get(metric)
                    .unwrap_or_else(|| panic!("{at}: `{metric}` is not declared"));
                assert_eq!(
                    m["unit"].as_str(),
                    Some(declared.as_str()),
                    "{at}: unit of `{metric}`"
                );
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{at}: `{metric}` has no finite value"
                );
            }
        }
    }
}
