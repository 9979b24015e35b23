//! The one bounded memo behind every content-addressed cache.
//!
//! Three layers memoize pure functions of content: the per-function
//! analysis classes of [`crate::IncrementalAnalysisManager`], the step,
//! measurement and embedding classes of the evaluation cache
//! (`posetrl::EvalCache`) and the response store of `posetrl-serve`. All
//! of them share one discipline, implemented once here:
//!
//! - [`BoundedMap`] — a first-write-wins map holding at most `capacity`
//!   entries, evicting the oldest insertion first (FIFO). A second write
//!   of a present key is dropped: the values are identical by purity, and
//!   keeping the original means a hit never changes which value callers
//!   see.
//! - [`Memo`] — a `BoundedMap` behind the non-poisoning `parking_lot`
//!   lock, with hit/miss counters and an optional log of recomputed
//!   names. [`Memo::get_or_compute`] runs `compute` with no lock held, so
//!   a panicking computation stores nothing and leaves the table usable
//!   for every other caller. Recovering a poisoned guard is sound: only
//!   key hashing, clones and the map updates run under the lock, never a
//!   computation.
//! - [`memoized`] — the one way a caller holding an *optional* memo
//!   computes through it: the key is built only when a memo is present,
//!   so a caller without one pays for no fingerprint or digest.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded first-write-wins map with FIFO eviction.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    map: HashMap<K, V>,
    fifo: VecDeque<K>,
    capacity: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> BoundedMap<K, V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> BoundedMap<K, V> {
        BoundedMap {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Stores `value` under `key` unless the key is present (first write
    /// wins), evicting the oldest entries to stay within capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            self.map.remove(&old);
            self.evictions += 1;
        }
        self.fifo.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Hit/miss counters of one memo class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
}

impl ClassStats {
    /// Hit rate in [0, 1]; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe [`BoundedMap`] that counts its lookups.
pub struct Memo<K, V> {
    table: Mutex<BoundedMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    log: Option<Mutex<Vec<String>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// A memo bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Memo<K, V> {
        Memo {
            table: Mutex::new(BoundedMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            log: None,
        }
    }

    /// A memo that also logs the name of every recomputation, for tests
    /// asserting exactly which entries a change invalidated.
    pub fn logged(capacity: usize) -> Memo<K, V> {
        Memo {
            log: Some(Mutex::new(Vec::new())),
            ..Memo::new(capacity)
        }
    }

    /// The cached value for `key`, counted as a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.table.lock().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `value` under `key` (first write wins).
    pub fn insert(&self, key: K, value: V) {
        self.table.lock().insert(key, value);
    }

    /// The cached value for `key`, or `compute()` stored under it. On a
    /// miss `name` is logged before computing; `compute` runs with no
    /// lock held, so concurrent misses on one key may both compute (the
    /// first to finish is kept) and a panic stores nothing.
    pub fn get_or_compute(&self, name: &str, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        if let Some(log) = &self.log {
            log.lock().push(name.to_string());
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Takes the recompute log: every name logged since the last drain,
    /// in recompute order (duplicates preserved). Always empty for a memo
    /// built with [`Memo::new`].
    pub fn drain_log(&self) -> Vec<String> {
        self.log
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock()))
            .unwrap_or_default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClassStats {
        ClassStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.table.lock().evictions()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.table.lock().len()
    }

    /// Whether the memo holds no entry.
    pub fn is_empty(&self) -> bool {
        self.table.lock().is_empty()
    }
}

/// `compute()`, memoized in `memo` when there is one: only then is `key`
/// called, and the value is [`Memo::get_or_compute`] under `name` and
/// that key. With no memo, `compute` runs directly and `key` is never
/// called.
pub fn memoized<K: Hash + Eq + Clone, V: Clone>(
    memo: Option<&Memo<K, V>>,
    name: &str,
    key: impl FnOnce() -> K,
    compute: impl FnOnce() -> V,
) -> V {
    match memo {
        Some(memo) => memo.get_or_compute(name, key(), compute),
        None => compute(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn first_write_wins_and_fifo_evicts_oldest() {
        let mut t = BoundedMap::new(2);
        t.insert(1, "a");
        t.insert(1, "b"); // dropped: first write wins
        t.insert(2, "c");
        t.insert(3, "d"); // evicts 1
        assert_eq!(
            (t.get(&1), t.get(&2), t.get(&3)),
            (None, Some(&"c"), Some(&"d"))
        );
        assert_eq!((t.len(), t.evictions()), (2, 1));
    }

    #[test]
    fn zero_capacity_still_holds_one_entry() {
        let mut t = BoundedMap::new(0);
        t.insert(1, ());
        t.insert(2, ());
        assert_eq!((t.len(), t.evictions()), (1, 1));
        assert!(t.get(&2).is_some());
    }

    #[test]
    fn panicking_compute_leaves_the_memo_usable() {
        let memo: Memo<u32, u64> = Memo::logged(8);
        assert_eq!(memo.get_or_compute("warm", 1, || 10), 10);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_compute("boom", 2, || panic!("worker died"))
        }));
        assert!(panicked.is_err());
        // nothing was stored for the panicking key
        assert_eq!(memo.get(&2), None);
        // other keys still hit; the failed key recomputes
        assert_eq!(memo.get_or_compute("warm", 1, || unreachable!()), 10);
        assert_eq!(memo.get_or_compute("boom", 2, || 20), 20);
        assert_eq!(memo.get_or_compute("boom", 2, || unreachable!()), 20);
        // every lookup is counted exactly once
        assert_eq!(memo.stats(), ClassStats { hits: 2, misses: 4 });
        assert_eq!(memo.drain_log(), vec!["warm", "boom", "boom"]);
        // concurrent users see a healthy table after the panic
        std::thread::scope(|s| {
            for k in 3..7u32 {
                let memo = &memo;
                s.spawn(move || memo.get_or_compute("t", k, || u64::from(k)));
            }
        });
        for k in 3..7u32 {
            assert_eq!(memo.get(&k), Some(u64::from(k)));
        }
    }

    #[test]
    fn memoized_without_a_memo_computes_and_never_builds_the_key() {
        let v = memoized::<u32, u32>(None, "f", || panic!("key built"), || 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn memoized_with_a_memo_computes_once_and_logs_the_miss() {
        let memo: Memo<u32, u32> = Memo::logged(4);
        let mut runs = 0;
        for _ in 0..2 {
            let v = memoized(
                Some(&memo),
                "f",
                || 1,
                || {
                    runs += 1;
                    10
                },
            );
            assert_eq!(v, 10);
        }
        assert_eq!(runs, 1);
        assert_eq!(memo.stats(), ClassStats { hits: 1, misses: 1 });
        assert_eq!(memo.drain_log(), vec!["f"]);
    }

    #[test]
    fn unlogged_memo_keeps_no_log() {
        let memo: Memo<u32, u32> = Memo::new(4);
        memo.get_or_compute("f", 1, || 1);
        assert!(memo.drain_log().is_empty());
        assert_eq!(memo.stats().misses, 1);
    }
}
