//! Sharded, lock-striped memoization of canonical forms.
//!
//! Canonicalization is the graph-layer cost of Protocol ELECT: every
//! agent canonicalizes its map in `COMPUTE & ORDER`, and batch
//! experiments (the E5 sweeps, `qelectctl sweep`) and the daemon
//! re-evaluate thousands of overlapping instances. This module memoizes
//! [`canonicalize`] results behind a cheap structural fingerprint so
//! repeated work is a hash lookup:
//!
//! * [`ShardedCache`] — the generic engine: entries are striped over
//!   independently-locked shards by fingerprint, so concurrent sweep
//!   workers rarely contend. A fingerprint is *not* trusted: each shard
//!   chains entries and falls back to full-key comparison, so a
//!   fingerprint collision costs a counter tick, never a wrong answer.
//!   Per-shard FIFO eviction bounds memory; hit/miss/eviction/collision
//!   counters are surfaced through [`CacheStats`] snapshots.
//! * [`canonicalize_cached`] / [`ordered_classes_cached`] — drop-in
//!   cached equivalents of the eager functions, backed by the
//!   process-wide [`global`] cache. The classes need no cache of their
//!   own: [`classes_from_canon`] reads them off the cached
//!   canonicalization in `O(n log n)`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::bicolored::Bicolored;
use crate::canon::{canonicalize, CanonResult};
use crate::digraph::ColoredDigraph;
use crate::surrounding::{classes_from_canon, OrderedClasses};

/// A structural fingerprint function over an encoded key.
pub type Fingerprinter = fn(&[u64]) -> u64;

/// FNV-1a over the `u64` words of an encoded key — the default cheap
/// structural fingerprint.
pub fn fnv_fingerprint(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for shift in [0u32, 16, 32, 48] {
            h ^= (w >> shift) & 0xffff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Counter snapshot of one cache (or a sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then inserted).
    pub misses: u64,
    /// Entries dropped by the per-shard FIFO bound.
    pub evictions: u64,
    /// Chain walks past an entry whose fingerprint matched but whose
    /// full key did not (the collision-fallback path).
    pub collisions: u64,
}

impl CacheStats {
    /// Counter increments between an earlier and a later snapshot of
    /// the same (monotone) cache.
    pub fn delta(&self, later: &CacheStats) -> CacheStats {
        CacheStats {
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            evictions: later.evictions - self.evictions,
            collisions: later.collisions - self.collisions,
        }
    }

    /// Component-wise sum (for reporting several caches as one line).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            collisions: self.collisions + other.collisions,
        }
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `hits / lookups`, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// One cached entry: the full key (for collision fallback) plus the
/// shared result.
struct CacheEntry<V> {
    key: Vec<u64>,
    value: Arc<V>,
}

/// One lock stripe: fingerprint → collision chain, plus FIFO order.
struct Shard<V> {
    chains: HashMap<u64, Vec<CacheEntry<V>>>,
    order: VecDeque<u64>,
    len: usize,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            chains: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
        }
    }
}

/// A sharded, lock-striped memo table keyed by encoded `u64` words.
///
/// The value type is wrapped in `Arc` so hits hand out shared results
/// without cloning the payload under the shard lock.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    cap_per_shard: usize,
    fingerprint: Fingerprinter,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// A cache with `shards` independent stripes of at most
    /// `cap_per_shard` entries each, using the default fingerprint.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        Self::with_fingerprinter(shards, cap_per_shard, fnv_fingerprint)
    }

    /// [`ShardedCache::new`] with an explicit fingerprint function —
    /// the test hook that forces every key onto one fingerprint to
    /// exercise the collision-fallback path.
    pub fn with_fingerprinter(
        shards: usize,
        cap_per_shard: usize,
        fingerprint: Fingerprinter,
    ) -> Self {
        assert!(shards > 0 && cap_per_shard > 0, "cache must have capacity");
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            cap_per_shard,
            fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total live entries (sums per-shard lengths; approximate under
    /// concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept: they are cumulative).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.chains.clear();
            s.order.clear();
            s.len = 0;
        }
    }

    /// Look up `key`, computing and inserting on a miss. The compute
    /// closure runs *outside* the shard lock, so a slow canonicalization
    /// never serializes other shards' — or even this shard's — lookups.
    pub fn get_or_insert_with(&self, key: Vec<u64>, compute: impl FnOnce() -> V) -> Arc<V> {
        let fp = (self.fingerprint)(&key);
        let idx = (fp as usize) % self.shards.len();
        if let Some(v) = self.lookup(idx, fp, &key) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return v;
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let value = Arc::new(compute());
        self.insert(idx, fp, key, Arc::clone(&value));
        value
    }

    fn lookup(&self, idx: usize, fp: u64, key: &[u64]) -> Option<Arc<V>> {
        let shard = self.shards[idx].lock();
        let chain = shard.chains.get(&fp)?;
        let mut walked_past = 0u64;
        let mut found = None;
        for entry in chain {
            if entry.key == key {
                found = Some(Arc::clone(&entry.value));
                break;
            }
            walked_past += 1;
        }
        drop(shard);
        if walked_past > 0 {
            self.collisions.fetch_add(walked_past, Ordering::SeqCst);
        }
        found
    }

    fn insert(&self, idx: usize, fp: u64, key: Vec<u64>, value: Arc<V>) {
        let mut shard = self.shards[idx].lock();
        // A racing worker may have inserted the same key while we were
        // computing; keep the first copy and drop ours.
        if let Some(chain) = shard.chains.get(&fp) {
            if chain.iter().any(|e| e.key == key) {
                return;
            }
        }
        if shard.len >= self.cap_per_shard {
            if let Some(old_fp) = shard.order.pop_front() {
                let empty = {
                    let chain = shard
                        .chains
                        .get_mut(&old_fp)
                        .expect("order entries track live chains");
                    chain.remove(0);
                    chain.is_empty()
                };
                if empty {
                    shard.chains.remove(&old_fp);
                }
                shard.len -= 1;
                self.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
        shard
            .chains
            .entry(fp)
            .or_default()
            .push(CacheEntry { key, value });
        shard.order.push_back(fp);
        shard.len += 1;
    }

    /// Counter snapshot at one instant: the four monotone counters are
    /// loaded twice and the read retries until both passes agree, the
    /// discipline of `AgentMetrics::snapshot`. An instant is all a
    /// reader needs here, because no lookup leaves the counters in a
    /// state that breaks an invariant: a lookup bumps one of `hits` and
    /// `misses`, and an eviction is counted only after the miss that
    /// caused it, so `evictions ≤ misses` holds at every instant.
    pub fn stats(&self) -> CacheStats {
        loop {
            let first = self.load_counters();
            let second = self.load_counters();
            if first == second {
                return first;
            }
        }
    }

    fn load_counters(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            collisions: self.collisions.load(Ordering::SeqCst),
        }
    }
}

/// Encode a [`ColoredDigraph`] exactly (identity labeling): the memo key
/// under which its canonicalization is stored.
pub fn encode_digraph(d: &ColoredDigraph) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + d.n() + 3 * d.arc_count());
    key.push(d.n() as u64);
    key.push(d.arc_count() as u64);
    key.extend_from_slice(d.node_colors());
    for a in d.arcs() {
        key.push(u64::from(a.from));
        key.push(u64::from(a.to));
        key.push(a.color);
    }
    key
}

/// A write-through observer of canon-cache misses: called with the
/// exact digraph key and the freshly computed result, outside every
/// shard lock. `qelectd` installs one to append each new canonical
/// form to its persistent store; anything installed here must be cheap
/// and must never canonicalize (it runs on the compute path).
pub type CanonObserver = Arc<dyn Fn(&[u64], &CanonResult) + Send + Sync>;

/// The process-wide cache behind the `_cached` entry points.
pub struct GraphCaches {
    /// Memoized [`canonicalize`] results, keyed by exact digraph.
    pub canon: ShardedCache<CanonResult>,
    enabled: AtomicBool,
    /// Fast-path flag for [`GraphCaches::canon_observer`]; avoids the
    /// mutex on every lookup when no observer is installed (the
    /// overwhelmingly common case).
    observing: AtomicBool,
    observer: Mutex<Option<CanonObserver>>,
}

/// Shards of the global cache (lock striping width).
pub const GLOBAL_SHARDS: usize = 16;
/// Per-shard entry bound of the global cache.
pub const GLOBAL_SHARD_CAP: usize = 512;

impl GraphCaches {
    fn new() -> Self {
        GraphCaches {
            canon: ShardedCache::new(GLOBAL_SHARDS, GLOBAL_SHARD_CAP),
            enabled: AtomicBool::new(true),
            observing: AtomicBool::new(false),
            observer: Mutex::new(None),
        }
    }

    /// Install (or remove, with `None`) the canon-miss observer. The
    /// observer sees every canonicalization the `_cached` entry points
    /// compute from scratch — exactly the entries a persistent
    /// canonical-form store must capture to make a restart warm.
    /// Directly seeding the cache with `canon.get_or_insert_with` does
    /// *not* fire it, so replaying a store never re-persists.
    pub fn set_canon_observer(&self, observer: Option<CanonObserver>) {
        let mut slot = self.observer.lock();
        self.observing.store(observer.is_some(), Ordering::SeqCst);
        *slot = observer;
    }

    /// The currently installed canon-miss observer, if any.
    pub fn canon_observer(&self) -> Option<CanonObserver> {
        if !self.observing.load(Ordering::SeqCst) {
            return None;
        }
        self.observer.lock().clone()
    }

    /// Turn the global cache on or off (off = every `_cached` call
    /// computes eagerly and touches no counters). Benchmarks use this
    /// to time the uncached baseline in-process.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether the `_cached` entry points currently memoize.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Drop every memoized entry (counters are kept — they are
    /// cumulative process totals). `qelectd` exposes this through its
    /// admin endpoint so cold-cache phases of the serving benchmark
    /// start from an empty memo, not an empty process.
    pub fn clear(&self) {
        self.canon.clear();
    }

    /// The cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.canon.stats()
    }
}

/// The process-wide [`GraphCaches`] instance.
pub fn global() -> &'static GraphCaches {
    static GLOBAL: OnceLock<GraphCaches> = OnceLock::new();
    GLOBAL.get_or_init(GraphCaches::new)
}

/// [`canonicalize`] through the global memo cache. A miss hands the
/// fresh `(key, result)` pair to the installed [`CanonObserver`], if
/// any; the key is cloned only when an observer exists.
pub fn canonicalize_cached(d: &ColoredDigraph) -> Arc<CanonResult> {
    let caches = global();
    if !caches.is_enabled() {
        return Arc::new(canonicalize(d));
    }
    let key = encode_digraph(d);
    match caches.canon_observer() {
        None => caches.canon.get_or_insert_with(key, || canonicalize(d)),
        Some(observe) => {
            let mirror = key.clone();
            caches.canon.get_or_insert_with(key, move || {
                let res = canonicalize(d);
                observe(&mirror, &res);
                res
            })
        }
    }
}

/// `surrounding::ordered_classes` through the global memo cache: one
/// cached canonicalization of the instance, then [`classes_from_canon`].
/// Each agent's map is labeled by its own drawing, so the maps of one
/// instance are separate cache keys; repeated instances (the oracle's
/// second look, sweeps, the daemon's warm path) hit.
pub fn ordered_classes_cached(bc: &Bicolored) -> OrderedClasses {
    classes_from_canon(
        bc,
        &canonicalize_cached(&ColoredDigraph::from_bicolored(bc)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::surrounding::ordered_classes;

    /// Held by the tests that flip the process-global enabled flag or
    /// rely on it staying on: the observer test's miss would bypass the
    /// cache (and its observer) if it ran while the cache is disabled.
    static GLOBAL_SETTINGS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn global_settings() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_SETTINGS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn instance(n: usize, homes: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), homes).unwrap()
    }

    #[test]
    fn second_lookup_hits() {
        let cache: ShardedCache<u64> = ShardedCache::new(4, 8);
        let a = cache.get_or_insert_with(vec![1, 2, 3], || 42);
        let b = cache.get_or_insert_with(vec![1, 2, 3], || unreachable!("must hit"));
        assert_eq!(*a, 42);
        assert_eq!(*b, 42);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn collision_fallback_distinguishes_keys() {
        fn constant(_: &[u64]) -> u64 {
            7
        }
        let cache: ShardedCache<u64> = ShardedCache::with_fingerprinter(4, 8, constant);
        assert_eq!(*cache.get_or_insert_with(vec![1], || 10), 10);
        assert_eq!(*cache.get_or_insert_with(vec![2], || 20), 20);
        assert_eq!(*cache.get_or_insert_with(vec![1], || unreachable!()), 10);
        assert_eq!(*cache.get_or_insert_with(vec![2], || unreachable!()), 20);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert!(
            s.collisions > 0,
            "chain walks past foreign keys are counted"
        );
    }

    #[test]
    fn fifo_eviction_is_counted_and_bounds_len() {
        let cache: ShardedCache<u64> = ShardedCache::with_fingerprinter(1, 2, |_| 0);
        for i in 0..5u64 {
            cache.get_or_insert_with(vec![i], || i);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        // The two newest survive; the oldest were evicted (recompute).
        let mut recomputed = false;
        cache.get_or_insert_with(vec![0], || {
            recomputed = true;
            0
        });
        assert!(recomputed);
    }

    #[test]
    fn cached_classes_match_uncached() {
        for (n, homes) in [(5usize, vec![0usize]), (6, vec![0, 3]), (6, vec![0, 2, 3])] {
            let bc = instance(n, &homes);
            let eager = ordered_classes(&bc);
            // Twice: the second call reads the memoized canonicalization.
            assert_eq!(ordered_classes_cached(&bc), eager);
            assert_eq!(ordered_classes_cached(&bc), eager);
        }
    }

    #[test]
    fn stats_snapshot_is_consistent_under_concurrent_lookups() {
        // Two shards of two entries under four writers cycling through
        // 64 keys: misses and evictions race constantly. Every snapshot
        // must satisfy the instant invariant and never run backwards.
        let cache: ShardedCache<u64> = ShardedCache::new(2, 2);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..3000u64 {
                        let k = (w * 7 + i) % 64;
                        cache.get_or_insert_with(vec![k], || k);
                    }
                });
            }
            let mut last = CacheStats::default();
            for _ in 0..2000 {
                let s = cache.stats();
                assert!(s.evictions <= s.misses, "torn snapshot: {s:?}");
                assert!(
                    s.hits >= last.hits
                        && s.misses >= last.misses
                        && s.evictions >= last.evictions
                        && s.collisions >= last.collisions,
                    "snapshot ran backwards: {last:?} then {s:?}"
                );
                last = s;
            }
        });
        let s = cache.stats();
        assert_eq!(s.lookups(), 12_000);
        // A miss that loses an insert race stores nothing.
        assert!(s.misses - s.evictions >= cache.len() as u64);
    }

    #[test]
    fn disabled_cache_computes_eagerly() {
        // Note: the enabled flag is process-global, so this test only
        // checks the *correctness* of the disabled path — concurrent
        // tests may interleave counter traffic, so no counter asserts.
        let bc = instance(5, &[0]);
        let _settings = global_settings();
        global().set_enabled(false);
        let oc = ordered_classes_cached(&bc);
        let canon = canonicalize_cached(&ColoredDigraph::from_bicolored(&bc));
        global().set_enabled(true);
        assert_eq!(oc.k(), ordered_classes(&bc).k());
        assert_eq!(
            canon.form,
            canonicalize(&ColoredDigraph::from_bicolored(&bc)).form
        );
    }

    #[test]
    fn canon_observer_sees_misses_not_hits_or_seeds() {
        // The observer is process-global; use a distinctive instance so
        // concurrent tests' traffic cannot be mistaken for ours.
        let _settings = global_settings();
        let bc = instance(46, &[0, 9, 21]);
        let d = ColoredDigraph::from_bicolored(&bc);
        let key = encode_digraph(&d);
        let observed: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&observed);
        global().set_canon_observer(Some(Arc::new(move |k: &[u64], r: &CanonResult| {
            assert!(!r.form.0.is_empty());
            sink.lock().push(k.to_vec());
        })));
        // First cached lookup: a miss — the observer must see our key.
        let cold = canonicalize_cached(&d);
        let count_after_miss = observed.lock().iter().filter(|k| **k == key).count();
        assert_eq!(count_after_miss, 1, "the miss fires the observer once");
        // Second lookup: a hit — no new observation of our key.
        let warm = canonicalize_cached(&d);
        assert_eq!(warm.form, cold.form);
        let count_after_hit = observed.lock().iter().filter(|k| **k == key).count();
        assert_eq!(count_after_hit, 1, "hits never fire the observer");
        // Direct seeding (the store-replay path) bypasses the observer.
        let bc2 = instance(46, &[0, 9, 22]);
        let d2 = ColoredDigraph::from_bicolored(&bc2);
        let key2 = encode_digraph(&d2);
        let seeded = canonicalize(&d2);
        global()
            .canon
            .get_or_insert_with(key2.clone(), move || seeded);
        assert!(
            !observed.lock().contains(&key2),
            "direct seeding must not re-persist"
        );
        global().set_canon_observer(None);
        assert!(global().canon_observer().is_none());
    }

    #[test]
    fn stats_delta_and_rates() {
        let a = CacheStats {
            hits: 2,
            misses: 2,
            evictions: 0,
            collisions: 1,
        };
        let b = CacheStats {
            hits: 6,
            misses: 3,
            evictions: 1,
            collisions: 1,
        };
        let d = a.delta(&b);
        assert_eq!(
            d,
            CacheStats {
                hits: 4,
                misses: 1,
                evictions: 1,
                collisions: 0
            }
        );
        assert!((b.hit_rate() - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let m = a.merge(&b);
        assert_eq!(m.lookups(), 13);
    }
}
