//! Every metric the benchmark reports, with its unit.
//!
//! End-to-end metrics come from the untraced timed phase; their timings
//! are scaled to reference speed (see `speed`). Per-layer
//! metrics come from the traced replay (times and work counts) and from
//! the real run's own counters (hit rates). A layer is a workspace crate;
//! `core` is crate `posetrl`.

use crate::quality::Quality;
use crate::replay::{Counts, Summary};
use crate::speed::Span;
use crate::stats::{median, percentile};

/// A metric value with its unit, in report order.
pub type Metric = (String, f64, &'static str);

/// Passes of the ODG action set, one `opt.pass.<name>.ms` metric each.
/// Fixed here so the metric names stay put if the action set changes.
pub const ODG_PASSES: [&str; 53] = [
    "adce",
    "alignment-from-assumptions",
    "attributor",
    "barrier",
    "bdce",
    "called-value-propagation",
    "constmerge",
    "correlated-propagation",
    "deadargelim",
    "div-rem-pairs",
    "dse",
    "early-cse",
    "early-cse-memssa",
    "elim-avail-extern",
    "float2int",
    "forceattrs",
    "functionattrs",
    "globaldce",
    "globalopt",
    "gvn",
    "indvars",
    "inferattrs",
    "inline",
    "instcombine",
    "instsimplify",
    "ipsccp",
    "jump-threading",
    "lcssa",
    "licm",
    "loop-deletion",
    "loop-distribute",
    "loop-idiom",
    "loop-load-elim",
    "loop-rotate",
    "loop-simplify",
    "loop-sink",
    "loop-unroll",
    "loop-unswitch",
    "loop-vectorize",
    "lower-constant-intrinsics",
    "lower-expect",
    "mem2reg",
    "memcpyopt",
    "mldst-motion",
    "prune-eh",
    "reassociate",
    "rpo-functionattrs",
    "sccp",
    "simplifycfg",
    "speculative-execution",
    "sroa",
    "strip-dead-prototypes",
    "tailcallelim",
];

/// Layers whose self time the replay attributes.
const LAYERS: [&str; 6] = ["serve", "ir", "opt", "embed", "target", "rl"];

/// A stretch of the timed phase.
pub struct Chunk {
    /// Operations completed in it.
    pub ops: u64,
    /// Its wall time, seconds.
    pub seconds: f64,
    /// Latency of each of its operations, milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// What a run measured, for the end-to-end metrics.
pub struct Measured {
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase, in order.
    pub chunks: Vec<Chunk>,
    /// The highest resident set size of the timed phase, MB.
    pub peak_rss_mb: f64,
    /// The served policy against `-Oz`.
    pub quality: Quality,
}

impl Measured {
    /// What a run measured: the spans of its set-ups, and its timed items
    /// as `(operations, span)` in order, every span's length taken by
    /// `seconds`. An item is a request, or a training run. The items are
    /// cut into chunks of `per`, one after another, as one closed-loop
    /// client runs them: a chunk lasts as long as its items took, and each
    /// item is one latency sample. Items past the last whole chunk are
    /// left out; with fewer than `per`, all of them form one chunk.
    pub fn new(
        setups: &[Span],
        items: &[(u64, Span)],
        per: usize,
        seconds: impl Fn(Span) -> f64,
        peak_rss_mb: f64,
        quality: Quality,
    ) -> Measured {
        let per = per.min(items.len()).max(1);
        let chunks = items
            .chunks_exact(per)
            .map(|part| {
                let latencies_ms: Vec<f64> = part.iter().map(|i| seconds(i.1) * 1e3).collect();
                Chunk {
                    ops: part.iter().map(|i| i.0).sum(),
                    seconds: latencies_ms.iter().sum::<f64>() / 1e3,
                    latencies_ms,
                }
            })
            .collect();
        Measured {
            setup_s: setups.iter().map(|&s| seconds(s)).collect(),
            chunks,
            peak_rss_mb,
            quality,
        }
    }
}

/// Hit rates and batch sizes the real run's counters report over its
/// timed phase; 0 where the workload does not reach the layer or the
/// program does not expose the counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub store_hit_rate: f64,
    pub batch_mean: f64,
    pub step_hit_rate: f64,
    pub measure_hit_rate: f64,
    pub embed_hit_rate: f64,
    pub incremental_embed_hit_rate: f64,
    pub incremental_alias_hit_rate: f64,
}

/// `hits / (hits + misses)`, 0 when idle.
pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The end-to-end metrics. Timings are medians over the chunks, so a
/// second in which the machine stalls moves one chunk, not the result.
pub fn end_to_end(t: &Measured) -> Vec<Metric> {
    let over_chunks =
        |f: &dyn Fn(&Chunk) -> f64| median(&t.chunks.iter().map(f).collect::<Vec<_>>());
    let pct = |pm| {
        move |c: &Chunk| {
            let mut sorted = c.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, pm)
        }
    };
    vec![
        ("setup_s".into(), median(&t.setup_s), "s"),
        (
            "throughput_per_s".into(),
            over_chunks(&|c| c.ops as f64 / c.seconds),
            "1/s",
        ),
        ("latency_p50_ms".into(), over_chunks(&pct(500)), "ms"),
        ("latency_p90_ms".into(), over_chunks(&pct(900)), "ms"),
        ("peak_rss_mb".into(), t.peak_rss_mb, "MB"),
        ("size_ratio_vs_oz".into(), t.quality.size_ratio, "ratio"),
        (
            "runtime_ratio_vs_oz".into(),
            t.quality.runtime_ratio,
            "ratio",
        ),
    ]
}

/// The per-layer metrics of one replay plus the real run's counters.
pub fn per_layer(s: &Summary, counts: &Counts, c: &Counters) -> Vec<Metric> {
    let call = |name: &str| s.calls.get(name).copied().unwrap_or((0, 0.0));
    let mean_us = |names: &[&str]| {
        let (n, total) = names
            .iter()
            .map(|n| call(n))
            .fold((0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        if n == 0 {
            0.0
        } else {
            total / n as f64 * 1e6
        }
    };
    let mut m: Vec<Metric> = vec![
        (
            "serve.parse_request_us".into(),
            mean_us(&["serve.parse_request"]),
            "us",
        ),
        (
            "serve.encode_response_us".into(),
            mean_us(&["serve.to_json"]),
            "us",
        ),
        ("serve.store_hit_rate".into(), c.store_hit_rate, "fraction"),
        ("serve.batch_mean".into(), c.batch_mean, "states"),
        ("ir.parse_us".into(), mean_us(&["ir.parse_module"]), "us"),
        ("ir.verify_us".into(), mean_us(&["ir.verify_module"]), "us"),
        ("ir.hash_us".into(), mean_us(&["ir.module_hash"]), "us"),
        ("ir.print_us".into(), mean_us(&["ir.print_module"]), "us"),
        ("opt.pass_calls".into(), counts.passes as f64, "count"),
        (
            "opt.pass_noop_rate".into(),
            rate(counts.pass_noops, counts.passes - counts.pass_noops),
            "fraction",
        ),
    ];
    for pass in ODG_PASSES {
        m.push((
            format!("opt.pass.{pass}.ms"),
            call(&format!("opt.pass.{pass}")).1 * 1e3,
            "ms",
        ));
    }
    m.extend([
        (
            "core.step_noop_rate".into(),
            rate(counts.step_noops, counts.steps - counts.step_noops),
            "fraction",
        ),
        (
            "core.cache.step_hit_rate".into(),
            c.step_hit_rate,
            "fraction",
        ),
        (
            "core.cache.measure_hit_rate".into(),
            c.measure_hit_rate,
            "fraction",
        ),
        (
            "core.cache.embed_hit_rate".into(),
            c.embed_hit_rate,
            "fraction",
        ),
        (
            "analyze.incremental.embed_hit_rate".into(),
            c.incremental_embed_hit_rate,
            "fraction",
        ),
        (
            "analyze.incremental.alias_hit_rate".into(),
            c.incremental_alias_hit_rate,
            "fraction",
        ),
        (
            "embed.module_us".into(),
            mean_us(&["embed.embed_module"]),
            "us",
        ),
        (
            "target.size_us".into(),
            mean_us(&["target.object_size"]),
            "us",
        ),
        (
            "target.mca_us".into(),
            mean_us(&["target.mca_analyze"]),
            "us",
        ),
        (
            "rl.forward_us".into(),
            mean_us(&["rl.act_greedy", "rl.act"]),
            "us",
        ),
        ("rl.update_ms".into(), mean_us(&["rl.observe"]) * 1e-3, "ms"),
    ]);
    let self_s = |layer: &str| s.layer_self_s.get(layer).copied().unwrap_or(0.0);
    for layer in LAYERS {
        m.push((
            format!("layer.{layer}.self_share"),
            self_s(layer) / s.wall_s,
            "fraction",
        ));
    }
    let covered: f64 = LAYERS.iter().map(|l| self_s(l)).sum();
    m.push(("trace.coverage".into(), covered / s.wall_s, "fraction"));
    m
}

/// A memory field of this process's `/proc/self/status`, such as `VmRSS`
/// (resident set size now) or `VmHWM` (its high-water mark), MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` does not report it (not Linux).
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Tracer;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
        v[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(m: Vec<Metric>) -> Vec<(String, String)> {
        m.into_iter().map(|(n, _, u)| (n, u.to_string())).collect()
    }

    /// Items of one operation each, `ms` long, one after another.
    fn measured(ms: &[f64], per: usize, scale: f64) -> Measured {
        let mut at = 0.0;
        let items: Vec<(u64, Span)> = ms
            .iter()
            .map(|m| {
                let from = at;
                at += m / 1e3;
                (1, Span { from, to: at })
            })
            .collect();
        let quality = Quality {
            size_ratio: 1.0,
            runtime_ratio: 1.0,
        };
        let setups = [Span { from: 0.0, to: 1.0 }];
        Measured::new(
            &setups,
            &items,
            per,
            |s| (s.to - s.from) * scale,
            1.0,
            quality,
        )
    }

    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let v = benchmark_json();
        let timed = measured(&[1.0], 1, 1.0);
        assert_eq!(emitted(end_to_end(&timed)), declared(&v, "end_to_end"));
        let layers = per_layer(
            &Tracer::new().summary(),
            &Counts::default(),
            &Counters::default(),
        );
        assert_eq!(emitted(layers), declared(&v, "per_layer"));
    }

    #[test]
    fn only_whole_chunks_count() {
        let m = measured(&[500.0; 23], 5, 1.0);
        let c = &m.chunks;
        assert_eq!(c.iter().map(|c| c.ops).collect::<Vec<_>>(), [5; 4]);
        assert_eq!(c.iter().map(|c| c.seconds).collect::<Vec<_>>(), [2.5; 4]);
        assert_eq!(
            end_to_end(&m)[1].1,
            2.0,
            "two ops per second in every chunk"
        );
        let short = measured(&[500.0; 3], 5, 1.0).chunks;
        assert_eq!(short.len(), 1, "less than a chunk forms one");
        assert_eq!((short[0].ops, short[0].seconds), (3, 1.5));
    }

    #[test]
    fn every_timing_is_scaled() {
        let m = measured(&[500.0; 10], 5, 0.5);
        assert_eq!(m.setup_s, [0.5]);
        let e2e = end_to_end(&m);
        let value = |name: &str| e2e.iter().find(|e| e.0 == name).unwrap().1;
        assert_eq!(value("throughput_per_s"), 4.0);
        assert_eq!(value("latency_p50_ms"), 250.0);
    }

    #[test]
    fn pass_list_is_the_odg_action_set() {
        let mut odg: Vec<String> = posetrl::ActionSet::odg()
            .sequences
            .iter()
            .flatten()
            .map(|p| p.trim_start_matches('-').to_string())
            .collect();
        odg.sort();
        odg.dedup();
        assert_eq!(odg, ODG_PASSES);
    }
}
