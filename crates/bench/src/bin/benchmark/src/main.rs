//! The repository benchmark: one training and two serving workloads.
//!
//! ```text
//! benchmark --workload train|serve_cold|serve_repeat
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets up (several times, reporting the median), runs the timed
//! phase for about `--seconds`, checks every output against the
//! interpreter run of its unoptimised input, and prints one JSON object as
//! its last line of standard output: the end-to-end metrics, their
//! timings scaled to a reference speed (see `speed`), or with `--trace 1`
//! the per-layer metrics of a traced replay that follows the untouched
//! timed phase. The line before it carries details (sample counts, the
//! tail percentile, the time spent making inputs, the end-to-end metrics
//! unscaled).
//!
//! Exit codes: 0 with a result, 2 on a usage error, a set `POSETRL_*`
//! variable, or a replay that does not reproduce the real responses.

mod corpus;
mod metrics;
mod quality;
mod replay;
mod serve;
mod speed;
mod stats;
mod train;

use metrics::{Counters, Measured, Metric};
use replay::Tracer;
use serde_json::Value;
use std::process::exit;

const USAGE: &str =
    "usage: benchmark --workload train|serve_cold|serve_repeat [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Train,
    ServeCold,
    ServeRepeat,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Train, Workload::ServeCold, Workload::ServeRepeat];

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeCold => "serve_cold",
            Workload::ServeRepeat => "serve_repeat",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Train,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What a workload run hands back.
pub struct Outcome {
    /// Timings at reference speed.
    pub timed: Measured,
    /// The same timings at the machine's own speed, for the details line.
    pub unscaled: Measured,
    /// Outputs checked.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    pub counters: Counters,
    /// Workload-specific numbers for the detail line.
    pub detail: Vec<(String, Value)>,
    /// The traced replay (`--trace 1` only).
    pub trace: Option<Tracer>,
}

fn object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = serde_json::json!({ "value": value, "unit": unit });
                (name.clone(), m)
            })
            .collect(),
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        exit(2)
    });
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("POSETRL_"))
    {
        eprintln!("benchmark: {var} is set; POSETRL_* knobs change what runs, so unset them");
        exit(2);
    }
    let outcome = match args.workload {
        Workload::Train => train::run(&args),
        kind => serve::run(kind, &args),
    }
    .unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        exit(2)
    });

    let e2e = metrics::end_to_end(&outcome.timed);
    let chunks = &outcome.timed.chunks;
    let mut sorted: Vec<f64> = chunks
        .iter()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    sorted.sort_by(f64::total_cmp);
    let mut detail: Vec<(String, Value)> = vec![
        (
            "workload".into(),
            Value::String(args.workload.name().into()),
        ),
        ("seed".into(), serde_json::json!(args.seed)),
        (
            "ops".into(),
            serde_json::json!(chunks.iter().map(|c| c.ops).sum::<u64>()),
        ),
        (
            "phase_s".into(),
            serde_json::json!(chunks.iter().map(|c| c.seconds).sum::<f64>()),
        ),
        ("chunks".into(), serde_json::json!(chunks.len())),
        ("latency_samples".into(), serde_json::json!(sorted.len())),
        (
            "setup_runs_s".into(),
            serde_json::json!(outcome.timed.setup_s),
        ),
    ];
    if let Some(pm) = stats::tail_ladder(sorted.len()) {
        detail.push(("tail_pct".into(), serde_json::json!(pm as f64 / 10.0)));
        detail.push((
            "tail_ms".into(),
            serde_json::json!(stats::percentile(&sorted, pm)),
        ));
    }
    detail.push((
        "error_rate".into(),
        serde_json::json!(outcome.failures.len() as f64 / outcome.attempted.max(1) as f64),
    ));
    detail.extend(outcome.detail);
    detail.push(("end_to_end".into(), object(&e2e)));
    detail.push((
        "unscaled".into(),
        object(&metrics::end_to_end(&outcome.unscaled)),
    ));

    let metrics = match &outcome.trace {
        None => e2e,
        Some(tr) => {
            let path = format!(
                ".bench_out/trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            );
            tr.write_jsonl(std::path::Path::new(&path))
                .unwrap_or_else(|e| {
                    eprintln!("benchmark: cannot write {path}: {e}");
                    exit(2)
                });
            detail.push(("trace_file".into(), Value::String(path)));
            metrics::per_layer(&tr.summary(), &tr.counts, &outcome.counters)
        }
    };

    for f in outcome.failures.iter().take(10) {
        eprintln!("benchmark: check failed: {f}");
    }
    println!("{}", Value::Object(detail));
    let result = serde_json::json!({
        "correct": outcome.failures.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failures.len() as u64,
        "metrics": object(&metrics),
    });
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse(&[
            "--workload",
            "serve_cold",
            "--seed",
            "2",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServeCold);
        assert_eq!((a.seed, a.seconds, a.trace), (2, 10.0, true));
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "serve_hot"]).is_err());
        assert!(parse(&["--workload", "train", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "train", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }
}
