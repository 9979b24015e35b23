//! The content-addressed evaluation cache.
//!
//! RL training over phase orderings revisits identical `(module, action)`
//! states constantly: every episode restarts from the same benchmark
//! modules, ε-greedy exploration replays common prefixes, and the greedy
//! validation sweep re-walks states training already measured. This cache
//! memoizes the three expensive evaluations behind a structural
//! [`ModuleHash`] (printer-equality identity, see `posetrl_ir::hash`):
//!
//! - **step memos** — `(pre-state hash, action signature)` → the post-pass
//!   module (plus its hash), skipping the whole pass pipeline on a hit,
//! - **measurements** — `(hash, arch)` → object size and MCA cycles /
//!   throughput,
//! - **embeddings** — `(hash, encoding)` → the IR2Vec-style state vector.
//!
//! All three memoized functions are deterministic in the module's canonical
//! printed form, so a hit returns bit-identical data to recomputation —
//! the determinism contract `tests/parallel_determinism.rs` locks down.
//!
//! Each class is one public [`Memo`] (the bounded first-write-wins FIFO
//! table behind every content-addressed cache, see `posetrl_analyze::memo`),
//! shared by every worker thread and used directly by the callers — the
//! same layout as the per-function classes of
//! [`posetrl_analyze::IncrementalAnalysisManager`]. A capacity bounds each
//! class separately, so a flood of step memos never evicts a measurement
//! or an embedding.

use posetrl_analyze::Memo;
use posetrl_ir::{module_hash, Module, ModuleHash};
use posetrl_target::TargetArch;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Key of one step memo: `(pre-state hash, action signature)`.
pub type StepKey = (ModuleHash, u64);
/// Key of one measurement: `(module hash, target)`.
pub type MeasureKey = (ModuleHash, TargetArch);
/// Key of one embedding: `(module hash, encoding tag)`.
pub type EmbedKey = (ModuleHash, u8);

/// Content signature of a pass list: the step-memo key component
/// identifying *what* a step applies, independent of the action set (or
/// baseline pipeline) it came from.
pub(crate) fn sequence_signature(passes: &[impl AsRef<str>]) -> u64 {
    let mut joined = String::new();
    for p in passes {
        joined.push_str(p.as_ref());
        joined.push('\x1f');
    }
    posetrl_embed::fnv1a(&joined)
}

/// A memoized environment step: the module after applying one action.
#[derive(Debug)]
pub struct StepMemo {
    /// The post-pass module state.
    pub module: Module,
    /// Structural hash of `module` (saves rehashing on a hit).
    pub post: ModuleHash,
}

/// Memoized static measurements of one module state on one target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureMemo {
    /// Object size in bytes.
    pub size: u64,
    /// Flat (loop-unweighted) MCA cycles.
    pub flat_cycles: f64,
    /// MCA throughput estimate.
    pub throughput: f64,
}

/// Applies `run` to `m` (hashed `pre`) through the step memo under
/// `(pre, action)`: a hit replaces `m` with the memoized post-state, a
/// miss runs `run` in place and memoizes the result. Returns the
/// post-state hash. The environment's steps and the `-Oz` baseline both
/// take this one path.
pub(crate) fn memoized_step(
    steps: &Memo<StepKey, Arc<StepMemo>>,
    pre: ModuleHash,
    action: u64,
    m: &mut Module,
    run: impl FnOnce(&mut Module),
) -> ModuleHash {
    if let Some(memo) = steps.get(&(pre, action)) {
        *m = memo.module.clone();
        return memo.post;
    }
    run(m);
    let post = module_hash(m);
    let memo = StepMemo {
        module: m.clone(),
        post,
    };
    steps.insert((pre, action), Arc::new(memo));
    post
}

/// Point-in-time counter snapshot (per class and total).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Step-memo hits.
    pub step_hits: u64,
    /// Step-memo misses.
    pub step_misses: u64,
    /// Measurement hits.
    pub measure_hits: u64,
    /// Measurement misses.
    pub measure_misses: u64,
    /// Embedding hits.
    pub embed_hits: u64,
    /// Embedding misses.
    pub embed_misses: u64,
    /// Entries evicted (FIFO) since creation.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Total hits across classes.
    pub fn total_hits(&self) -> u64 {
        self.step_hits + self.measure_hits + self.embed_hits
    }

    /// Total misses across classes.
    pub fn total_misses(&self) -> u64 {
        self.step_misses + self.measure_misses + self.embed_misses
    }

    /// Overall hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let h = self.total_hits();
        let total = h + self.total_misses();
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "cache: {:.1}% hit ({} hits / {} lookups; step {}/{}, measure {}/{}, embed {}/{}; {} entries, {} evicted)",
            100.0 * self.hit_rate(),
            self.total_hits(),
            self.total_hits() + self.total_misses(),
            self.step_hits,
            self.step_hits + self.step_misses,
            self.measure_hits,
            self.measure_hits + self.measure_misses,
            self.embed_hits,
            self.embed_hits + self.embed_misses,
            self.entries,
            self.evictions,
        )
    }
}

/// The shared evaluation cache: one [`Memo`] per class, used directly.
pub struct EvalCache {
    /// Post-pass module state per `(state, action)` pair.
    pub step: Memo<StepKey, Arc<StepMemo>>,
    /// Object size + MCA cycle measurements.
    pub measure: Memo<MeasureKey, MeasureMemo>,
    /// Program embeddings (the RL state vector).
    pub embed: Memo<EmbedKey, Arc<Vec<f64>>>,
    /// Optional per-function incremental analysis manager. Environments
    /// adopting this cache also adopt the manager, so every worker sharing
    /// the cache shares one set of per-function memo tables.
    incremental: Option<Arc<posetrl_analyze::IncrementalAnalysisManager>>,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalCache {
    /// Default per-class capacity: enough for the training suite's
    /// reachable-state working set at test scale without unbounded memory
    /// growth.
    pub const DEFAULT_CAPACITY: usize = 1 << 14;

    /// Creates a cache bounding each class at `capacity` entries (FIFO
    /// eviction within the class).
    pub fn with_capacity(capacity: usize) -> EvalCache {
        EvalCache {
            step: Memo::new(capacity),
            measure: Memo::new(capacity),
            embed: Memo::new(capacity),
            incremental: None,
        }
    }

    /// Attaches a per-function [`IncrementalAnalysisManager`] shared by
    /// every environment that adopts this cache (builder style).
    ///
    /// [`IncrementalAnalysisManager`]: posetrl_analyze::IncrementalAnalysisManager
    pub fn with_incremental(
        mut self,
        mgr: Option<Arc<posetrl_analyze::IncrementalAnalysisManager>>,
    ) -> EvalCache {
        self.incremental = mgr;
        self
    }

    /// The attached incremental analysis manager, if any.
    pub fn incremental(&self) -> Option<&Arc<posetrl_analyze::IncrementalAnalysisManager>> {
        self.incremental.as_ref()
    }

    /// Creates a cache with [`EvalCache::DEFAULT_CAPACITY`], wrapped for
    /// sharing across the engine's workers.
    pub fn shared() -> Arc<EvalCache> {
        Arc::new(EvalCache::with_capacity(Self::DEFAULT_CAPACITY))
    }

    /// Snapshot of the counters, summed over the three classes.
    pub fn stats(&self) -> CacheStats {
        let (step, measure, embed) = (self.step.stats(), self.measure.stats(), self.embed.stats());
        CacheStats {
            step_hits: step.hits,
            step_misses: step.misses,
            measure_hits: measure.hits,
            measure_misses: measure.misses,
            embed_hits: embed.hits,
            embed_misses: embed.misses,
            evictions: self.step.evictions() + self.measure.evictions() + self.embed.evictions(),
            entries: (self.step.len() + self.measure.len() + self.embed.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};

    fn hash_of(seed: u64) -> (ModuleHash, Module) {
        let m = generate(&ProgramSpec {
            name: format!("cache{seed}"),
            kind: ProgramKind::BranchyInteger,
            size: SizeClass::Small,
            seed,
        });
        (module_hash(&m), m)
    }

    #[test]
    fn measure_round_trip_and_counters() {
        let cache = EvalCache::with_capacity(16);
        let (h, _) = hash_of(1);
        assert!(cache.measure.get(&(h, TargetArch::X86_64)).is_none());
        cache.measure.insert(
            (h, TargetArch::X86_64),
            MeasureMemo {
                size: 100,
                flat_cycles: 42.0,
                throughput: 1.5,
            },
        );
        let m = cache.measure.get(&(h, TargetArch::X86_64)).unwrap();
        assert_eq!(m.size, 100);
        // per-arch keying
        assert!(cache.measure.get(&(h, TargetArch::AArch64)).is_none());
        let s = cache.stats();
        assert_eq!(s.measure_hits, 1);
        assert_eq!(s.measure_misses, 2);
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn step_memo_round_trip() {
        let cache = EvalCache::with_capacity(16);
        let (pre, module) = hash_of(2);
        let post = pre; // identity action for the test
        cache.step.insert(
            (pre, 7),
            Arc::new(StepMemo {
                module: module.clone(),
                post,
            }),
        );
        let memo = cache.step.get(&(pre, 7)).unwrap();
        assert_eq!(memo.post, post);
        assert_eq!(memo.module.num_insts(), module.num_insts());
        assert!(cache.step.get(&(pre, 8)).is_none(), "action participates");
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = EvalCache::with_capacity(4);
        for i in 0..10u64 {
            let (h, _) = hash_of(i);
            cache.embed.insert((h, 0), Arc::new(vec![i as f64]));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 6);
        // oldest entries are gone, newest survive
        let (h9, _) = hash_of(9);
        assert!(cache.embed.get(&(h9, 0)).is_some());
        let (h0, _) = hash_of(0);
        assert!(cache.embed.get(&(h0, 0)).is_none());
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = EvalCache::shared();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let (h, _) = hash_of(t * 50 + i);
                        cache.embed.insert((h, 0), Arc::new(vec![1.0]));
                        assert!(cache.embed.get(&(h, 0)).is_some());
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.total_hits(), 200);
    }

    #[test]
    fn step_overflow_evicts_only_steps_and_stats_sum_the_classes() {
        let cache = EvalCache::with_capacity(2);
        let (h, module) = hash_of(3);
        let meas = MeasureMemo {
            size: 1,
            flat_cycles: 2.0,
            throughput: 3.0,
        };
        cache.measure.insert((h, TargetArch::X86_64), meas);
        cache.embed.insert((h, 0), Arc::new(vec![1.0]));
        // five step memos into a class bounded at two
        for action in 0..5u64 {
            let mut m = module.clone();
            let post = memoized_step(&cache.step, h, action, &mut m, |_| {});
            assert_eq!(post, h, "an identity step keeps the hash");
        }
        assert_eq!(cache.step.evictions(), 3);
        assert_eq!(cache.measure.get(&(h, TargetArch::X86_64)), Some(meas));
        assert!(cache.embed.get(&(h, 0)).is_some());
        // the newest step hits without running
        let mut m = module.clone();
        memoized_step(&cache.step, h, 4, &mut m, |_| {
            unreachable!("a hit runs nothing")
        });

        let s = cache.stats();
        let (step, measure, embed) = (
            cache.step.stats(),
            cache.measure.stats(),
            cache.embed.stats(),
        );
        assert_eq!((s.step_hits, s.step_misses), (step.hits, step.misses));
        assert_eq!(
            (s.measure_hits, s.measure_misses),
            (measure.hits, measure.misses)
        );
        assert_eq!((s.embed_hits, s.embed_misses), (embed.hits, embed.misses));
        assert_eq!((s.step_hits, s.step_misses), (1, 5));
        assert_eq!(
            s.evictions,
            cache.step.evictions() + cache.measure.evictions() + cache.embed.evictions()
        );
        assert_eq!(
            s.entries as usize,
            cache.step.len() + cache.measure.len() + cache.embed.len()
        );
        assert_eq!((s.evictions, s.entries), (3, 2 + 1 + 1));
    }
}
