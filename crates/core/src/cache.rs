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
//! The cache is shared across worker threads and internally **sharded** by
//! the module hash: each shard owns a `parking_lot`-style mutex around one
//! bounded first-write-wins FIFO table ([`posetrl_analyze::BoundedMap`],
//! the memo core every content-addressed cache shares) holding all three
//! classes, plus its own per-class hit/miss counters, so
//! `posetrl-serve` can route whole requests to the shard that owns their
//! module and report shard balance. [`EvalCache::with_capacity`] keeps the
//! original single-shard behaviour (one global FIFO); [`EvalCache::sharded`]
//! splits the capacity across a fixed shard count.

use parking_lot::Mutex;
use posetrl_analyze::BoundedMap;
use posetrl_ir::{Module, ModuleHash};
use posetrl_target::TargetArch;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a cache entry memoizes (also indexes the per-class counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// Post-pass module state for a `(state, action)` pair.
    Step,
    /// Object size + MCA cycle measurements.
    Measure,
    /// Program embedding (the RL state vector).
    Embed,
}

impl CacheClass {
    fn index(self) -> usize {
        match self {
            CacheClass::Step => 0,
            CacheClass::Measure => 1,
            CacheClass::Embed => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CacheClass::Step => "step",
            CacheClass::Measure => "measure",
            CacheClass::Embed => "embed",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Step { pre: ModuleHash, action: u64 },
    Measure { h: ModuleHash, arch: TargetArch },
    Embed { h: ModuleHash, encoding: u8 },
}

impl Key {
    fn class(&self) -> CacheClass {
        match self {
            Key::Step { .. } => CacheClass::Step,
            Key::Measure { .. } => CacheClass::Measure,
            Key::Embed { .. } => CacheClass::Embed,
        }
    }

    /// The module hash a key routes on: every key derived from the same
    /// module state lands in the same shard.
    fn route(&self) -> ModuleHash {
        match self {
            Key::Step { pre, .. } => *pre,
            Key::Measure { h, .. } => *h,
            Key::Embed { h, .. } => *h,
        }
    }
}

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

#[derive(Debug, Clone)]
enum Entry {
    Step(Arc<StepMemo>),
    Measure(MeasureMemo),
    Embed(Arc<Vec<f64>>),
}

/// One shard: one bounded table shared by the three classes, and
/// per-class counters.
#[derive(Debug)]
struct Shard {
    table: Mutex<BoundedMap<Key, Entry>>,
    hits: [AtomicU64; 3],
    misses: [AtomicU64; 3],
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            table: Mutex::new(BoundedMap::new(capacity)),
            hits: Default::default(),
            misses: Default::default(),
        }
    }

    fn record(&self, class: CacheClass, hit: bool) {
        let ctr = if hit { &self.hits } else { &self.misses };
        ctr[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> CacheStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let table = self.table.lock();
        CacheStats {
            step_hits: load(&self.hits[CacheClass::Step.index()]),
            step_misses: load(&self.misses[CacheClass::Step.index()]),
            measure_hits: load(&self.hits[CacheClass::Measure.index()]),
            measure_misses: load(&self.misses[CacheClass::Measure.index()]),
            embed_hits: load(&self.hits[CacheClass::Embed.index()]),
            embed_misses: load(&self.misses[CacheClass::Embed.index()]),
            evictions: table.evictions(),
            entries: table.len() as u64,
        }
    }
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

    /// Total lookups (hits + misses) across classes.
    pub fn total_lookups(&self) -> u64 {
        self.total_hits() + self.total_misses()
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

    /// Componentwise sum of two snapshots.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            step_hits: self.step_hits + other.step_hits,
            step_misses: self.step_misses + other.step_misses,
            measure_hits: self.measure_hits + other.measure_hits,
            measure_misses: self.measure_misses + other.measure_misses,
            embed_hits: self.embed_hits + other.embed_hits,
            embed_misses: self.embed_misses + other.embed_misses,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
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

/// The shared evaluation cache.
#[derive(Debug)]
pub struct EvalCache {
    shards: Box<[Shard]>,
    shard_capacity: usize,
    /// Optional per-function incremental analysis manager. Environments
    /// adopting this cache also adopt the manager, so every worker sharing
    /// the cache shares one set of per-function memo tables.
    incremental: Option<Arc<posetrl_analyze::IncrementalAnalysisManager>>,
}

impl EvalCache {
    /// Default capacity: enough for the training suite's reachable-state
    /// working set at test scale without unbounded memory growth.
    pub const DEFAULT_CAPACITY: usize = 1 << 14;

    /// Creates a single-shard cache bounded to `capacity` entries (FIFO
    /// eviction over one global queue — the original PR-2 behaviour).
    pub fn with_capacity(capacity: usize) -> EvalCache {
        EvalCache::sharded(capacity, 1)
    }

    /// Creates a cache with `shards` independent shards splitting
    /// `total_capacity` entries between them (each shard FIFO-evicts its
    /// own slice). Keys route by [`EvalCache::shard_of`] on their module
    /// hash, so all entries derived from one module state share a shard.
    pub fn sharded(total_capacity: usize, shards: usize) -> EvalCache {
        let n = shards.max(1);
        let per_shard = total_capacity.div_ceil(n).max(1);
        EvalCache {
            shards: (0..n).map(|_| Shard::new(per_shard)).collect(),
            shard_capacity: per_shard,
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

    /// Maximum number of entries across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a module hash routes to. `posetrl-serve` uses the
    /// same function to pin whole requests to the worker owning their
    /// module's shard.
    pub fn shard_of(&self, h: ModuleHash) -> usize {
        shard_index(h, self.shards.len())
    }

    fn shard_for(&self, key: &Key) -> &Shard {
        &self.shards[shard_index(key.route(), self.shards.len())]
    }

    fn get(&self, key: &Key) -> Option<Entry> {
        let shard = self.shard_for(key);
        let found = shard.table.lock().get(key).cloned();
        shard.record(key.class(), found.is_some());
        found
    }

    fn put(&self, key: Key, entry: Entry) {
        self.shard_for(&key).table.lock().insert(key, entry);
    }

    /// Looks up the memoized result of applying `action` to the state
    /// hashed `pre`.
    pub fn get_step(&self, pre: ModuleHash, action: u64) -> Option<Arc<StepMemo>> {
        match self.get(&Key::Step { pre, action }) {
            Some(Entry::Step(m)) => Some(m),
            _ => None,
        }
    }

    /// Memoizes a step result.
    pub fn put_step(&self, pre: ModuleHash, action: u64, memo: StepMemo) {
        self.put(Key::Step { pre, action }, Entry::Step(Arc::new(memo)));
    }

    /// Looks up memoized size/MCA measurements.
    pub fn get_measure(&self, h: ModuleHash, arch: TargetArch) -> Option<MeasureMemo> {
        match self.get(&Key::Measure { h, arch }) {
            Some(Entry::Measure(m)) => Some(m),
            _ => None,
        }
    }

    /// Memoizes size/MCA measurements.
    pub fn put_measure(&self, h: ModuleHash, arch: TargetArch, memo: MeasureMemo) {
        self.put(Key::Measure { h, arch }, Entry::Measure(memo));
    }

    /// Looks up a memoized state embedding.
    pub fn get_embed(&self, h: ModuleHash, encoding: u8) -> Option<Arc<Vec<f64>>> {
        match self.get(&Key::Embed { h, encoding }) {
            Some(Entry::Embed(v)) => Some(v),
            _ => None,
        }
    }

    /// Memoizes a state embedding.
    pub fn put_embed(&self, h: ModuleHash, encoding: u8, v: Vec<f64>) {
        self.put(Key::Embed { h, encoding }, Entry::Embed(Arc::new(v)));
    }

    /// Per-shard counter snapshots, in shard-index order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Snapshot of the counters, aggregated over every shard.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(Shard::stats)
            .fold(CacheStats::default(), |acc, s| acc.merge(&s))
    }
}

/// Maps a module hash to a shard index in `[0, shards)`.
///
/// The structural hash is already well-mixed, but its low bits alone feed
/// the modulo, so fold the halves together and run a SplitMix64 finalizer
/// to spread any residual structure.
fn shard_index(h: ModuleHash, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let folded = (h.0 as u64) ^ ((h.0 >> 64) as u64);
    let mut z = folded.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::module_hash;
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
        assert!(cache.get_measure(h, TargetArch::X86_64).is_none());
        cache.put_measure(
            h,
            TargetArch::X86_64,
            MeasureMemo {
                size: 100,
                flat_cycles: 42.0,
                throughput: 1.5,
            },
        );
        let m = cache.get_measure(h, TargetArch::X86_64).unwrap();
        assert_eq!(m.size, 100);
        // per-arch keying
        assert!(cache.get_measure(h, TargetArch::AArch64).is_none());
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
        cache.put_step(
            pre,
            7,
            StepMemo {
                module: module.clone(),
                post,
            },
        );
        let memo = cache.get_step(pre, 7).unwrap();
        assert_eq!(memo.post, post);
        assert_eq!(memo.module.num_insts(), module.num_insts());
        assert!(cache.get_step(pre, 8).is_none(), "action participates");
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = EvalCache::with_capacity(4);
        for i in 0..10u64 {
            let (h, _) = hash_of(i);
            cache.put_embed(h, 0, vec![i as f64]);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 6);
        // oldest entries are gone, newest survive
        let (h9, _) = hash_of(9);
        assert!(cache.get_embed(h9, 0).is_some());
        let (h0, _) = hash_of(0);
        assert!(cache.get_embed(h0, 0).is_none());
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
                        cache.put_embed(h, 0, vec![1.0]);
                        assert!(cache.get_embed(h, 0).is_some());
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.total_hits(), 200);
    }

    #[test]
    fn sharded_routing_is_stable_and_total() {
        let cache = EvalCache::sharded(64, 4);
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.capacity(), 64);
        let mut seen = [false; 4];
        for i in 0..40u64 {
            let (h, _) = hash_of(i);
            let s = cache.shard_of(h);
            assert!(s < 4);
            assert_eq!(s, cache.shard_of(h), "routing must be deterministic");
            seen[s] = true;
        }
        assert!(
            seen.iter().filter(|&&b| b).count() >= 2,
            "40 distinct modules should spread over more than one shard"
        );
    }

    #[test]
    fn shard_counters_split_and_aggregate() {
        let cache = EvalCache::sharded(64, 4);
        let mut per_shard_puts = vec![0u64; 4];
        for i in 0..24u64 {
            let (h, _) = hash_of(i);
            per_shard_puts[cache.shard_of(h)] += 1;
            cache.put_embed(h, 0, vec![i as f64]);
            assert!(cache.get_embed(h, 0).is_some());
            assert!(cache.get_embed(h, 1).is_none());
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 4);
        for (s, puts) in shards.iter().zip(&per_shard_puts) {
            assert_eq!(s.embed_hits, *puts, "hits stay in the owning shard");
            assert_eq!(s.embed_misses, *puts);
            assert_eq!(s.entries, *puts);
        }
        let total = cache.stats();
        assert_eq!(total.embed_hits, 24);
        assert_eq!(total.embed_misses, 24);
        assert_eq!(total.entries, 24);
        // aggregate equals the componentwise shard sum
        let summed = shards
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(s));
        assert_eq!(summed.total_lookups(), total.total_lookups());
    }

    #[test]
    fn sharded_eviction_is_per_shard() {
        // 4 shards x 2 entries each: overflowing one shard must not evict
        // entries owned by another.
        let cache = EvalCache::sharded(8, 4);
        let mut by_shard: Vec<Vec<ModuleHash>> = vec![Vec::new(); 4];
        let mut i = 0u64;
        // collect 4 hashes for one shard and 1 for another
        while by_shard.iter().all(|v| v.len() < 4) {
            let (h, _) = hash_of(i);
            by_shard[cache.shard_of(h)].push(h);
            i += 1;
        }
        let full = by_shard.iter().position(|v| v.len() == 4).unwrap();
        let other = (0..4).find(|&s| s != full && !by_shard[s].is_empty());
        for h in &by_shard[full] {
            cache.put_embed(*h, 0, vec![0.0]);
        }
        let stats = cache.shard_stats();
        assert_eq!(stats[full].entries, 2, "shard capacity is 8/4 = 2");
        assert_eq!(stats[full].evictions, 2);
        if let Some(o) = other {
            cache.put_embed(by_shard[o][0], 0, vec![0.0]);
            assert!(
                cache.get_embed(by_shard[o][0], 0).is_some(),
                "other shards are unaffected by a full sibling"
            );
        }
    }
}
