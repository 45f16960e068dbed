//! The run cache: cross-query reuse of a registered relation's runs.
//!
//! The paper's §7 observes that the sorted runs an MPSM join produces
//! are a free by-product. The session's catalog keeps them as the table
//! itself — every registered version is stored key-sorted — so a
//! version's runs are a cut of the stored order
//! ([`mpsm_core::join::runs::cut_run_set`]): a copy into `T` node-homed
//! buffers, with nothing partitioned or sorted. A [`RunCache`] maps
//! `(relation id, version, splitter fingerprint)` to the shared
//! [`SharedRunSet`] a previous query cut, so a hit skips that copy and
//! goes straight to the merge phase.
//!
//! ## Key derivation
//!
//! [`RunKey`] combines the catalog identity of a relation — stable
//! `id` plus monotonic `version`, both stamped by
//! [`crate::session::Session::register`] — with a
//! [`splitter_fingerprint`]: an FNV-1a hash of the run-layout inputs
//! (worker count, radix bits, layout version). Two queries share runs
//! only if the same bytes would be partitioned the same way.
//!
//! ## Invalidation
//!
//! Two mechanisms, both cheap; no entry ever goes stale, so nothing
//! expires by age:
//! * **version keying** — re-registering a name (or compacting it)
//!   bumps the version, so superseded entries simply stop being
//!   addressable; [`RunCache::invalidate_relation`] additionally drops
//!   them eagerly.
//! * **byte budget** — publishing evicts least-recently-used `Ready`
//!   entries until the cache fits [`RunCacheConfig::byte_budget`]
//!   (the storage layer's bounded-frame idiom, upgraded FIFO → LRU).
//!
//! ## Single-flight
//!
//! The first miss installs a `Building` placeholder and receives a
//! [`BuildPermit`]; concurrent misses on the same key see the
//! placeholder and get [`Lookup::Busy`] — they run uncached rather
//! than duplicating the build into the same slot or blocking on a
//! possibly-slow builder. Dropping an unused permit (builder panicked
//! or bailed) removes the placeholder so the key can be built again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpsm_core::join::runs::SharedRunSet;

/// Tuning for a [`RunCache`].
#[derive(Debug, Clone)]
pub struct RunCacheConfig {
    /// Total bytes of run storage the cache may retain.
    pub byte_budget: usize,
}

impl Default for RunCacheConfig {
    fn default() -> Self {
        RunCacheConfig { byte_budget: 256 << 20 }
    }
}

/// Bump when the run layout of a cached relation version changes
/// incompatibly. Version 2 is the equal-count cut of the key-sorted
/// version ([`mpsm_core::join::runs::cut_run_set`]).
const RUN_LAYOUT_VERSION: u64 = 2;

/// FNV-1a over the inputs that determine a relation's run layout.
/// Runs built with a different worker count or radix width partition
/// the key domain differently and must not alias in the cache.
pub fn splitter_fingerprint(threads: usize, radix_bits: u32) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for word in [RUN_LAYOUT_VERSION, threads as u64, radix_bits as u64] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Cache key: which relation bytes, partitioned how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Stable catalog id of the relation.
    pub relation: u64,
    /// Catalog version the runs were built from.
    pub version: u64,
    /// [`splitter_fingerprint`] of the layout parameters.
    pub fingerprint: u64,
}

#[derive(Debug)]
struct Entry {
    runs: SharedRunSet,
    bytes: usize,
    last_used: Instant,
}

#[derive(Debug)]
enum Slot {
    /// A permit holder is building this key right now.
    Building,
    /// Published runs.
    Ready(Entry),
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<RunKey, Slot>,
    /// Bytes held by `Ready` entries.
    bytes: usize,
}

/// Counter snapshot (see [`RunCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Lookups served from a `Ready` entry.
    pub hits: u64,
    /// Lookups that found nothing servable (includes `Busy`).
    pub misses: u64,
    /// Entries evicted by the byte budget or version invalidation.
    pub evictions: u64,
    /// Run sets successfully published.
    pub inserts: u64,
    /// `Ready` entries currently resident.
    pub entries: usize,
    /// Bytes currently resident.
    pub bytes: usize,
}

/// The outcome of [`RunCache::lookup`].
pub enum Lookup {
    /// Cached runs, ready to merge.
    Hit(SharedRunSet),
    /// Nothing cached — the caller should build and publish through
    /// the permit.
    Miss(BuildPermit),
    /// Another query is building this key; run uncached, do not
    /// publish.
    Busy,
}

/// Cross-query cache of sorted run sets. See the module docs.
#[derive(Debug)]
pub struct RunCache {
    config: RunCacheConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl RunCache {
    /// Create a cache with `config`.
    pub fn new(config: RunCacheConfig) -> Self {
        RunCache {
            config,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Look up `key`, claiming the build on a miss (single-flight).
    pub fn lookup(self: &Arc<Self>, key: RunKey) -> Lookup {
        let mut inner = self.inner.lock().expect("run cache poisoned");
        match inner.map.get_mut(&key) {
            Some(Slot::Ready(entry)) => {
                entry.last_used = Instant::now();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(Arc::clone(&entry.runs));
            }
            Some(Slot::Building) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Busy;
            }
            None => {}
        }
        inner.map.insert(key, Slot::Building);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(BuildPermit { cache: Arc::clone(self), key, armed: true })
    }

    /// Eagerly drop every entry of `relation` older than
    /// `keep_version` (called by `register` on a version bump;
    /// `Building` placeholders are left for their permits to resolve).
    /// The dropped sets are released after the cache lock: freeing one
    /// hands its buffers to the spares of the machine that built it.
    pub fn invalidate_relation(&self, relation: u64, keep_version: u64) {
        let _victims = {
            let mut inner = self.inner.lock().expect("run cache poisoned");
            let stale: Vec<RunKey> = inner
                .map
                .iter()
                .filter(|(k, slot)| {
                    k.relation == relation
                        && k.version < keep_version
                        && matches!(slot, Slot::Ready(_))
                })
                .map(|(k, _)| *k)
                .collect();
            stale
                .into_iter()
                .filter_map(|key| self.remove_ready(&mut inner, key))
                .collect::<Vec<_>>()
        };
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> RunCacheStats {
        let inner = self.inner.lock().expect("run cache poisoned");
        RunCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: inner.map.values().filter(|s| matches!(s, Slot::Ready(_))).count(),
            bytes: inner.bytes,
        }
    }

    /// The configured budget.
    pub fn config(&self) -> &RunCacheConfig {
        &self.config
    }

    /// Remove `key`'s `Ready` entry, counting an eviction; the caller
    /// drops the returned runs once the lock is released.
    fn remove_ready(&self, inner: &mut Inner, key: RunKey) -> Option<SharedRunSet> {
        let Some(Slot::Ready(entry)) = inner.map.remove(&key) else { return None };
        inner.bytes -= entry.bytes;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(entry.runs)
    }

    /// Publish `runs` under `key`, evicting least-recently-used entries
    /// until they fit; the victims (or `runs` itself, when it alone
    /// busts the budget) drop after the lock is released.
    fn publish_inner(&self, key: RunKey, runs: SharedRunSet) {
        let bytes = runs.bytes();
        let mut victims = Vec::new();
        let mut inner = self.inner.lock().expect("run cache poisoned");
        if bytes > self.config.byte_budget {
            // The set alone busts the budget: drop the placeholder and
            // give up rather than evicting the whole cache for it.
            inner.map.remove(&key);
            drop(inner);
            return;
        }
        // LRU eviction until the new set fits.
        while inner.bytes + bytes > self.config.byte_budget {
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(e) => Some((*k, e.last_used)),
                    Slot::Building => None,
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            victims.extend(self.remove_ready(&mut inner, victim));
        }
        inner.bytes += bytes;
        inner.map.insert(key, Slot::Ready(Entry { runs, bytes, last_used: Instant::now() }));
        self.inserts.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        drop(victims);
    }

    fn abandon(&self, key: RunKey) {
        let mut inner = self.inner.lock().expect("run cache poisoned");
        if let Some(Slot::Building) = inner.map.get(&key) {
            inner.map.remove(&key);
        }
    }
}

/// The exclusive right to populate one cache slot, handed out by
/// [`RunCache::lookup`] on a miss. [`BuildPermit::publish`] fills the
/// slot; dropping the permit unfilled (panic, error path) releases it
/// so a later query can claim the build.
pub struct BuildPermit {
    cache: Arc<RunCache>,
    key: RunKey,
    armed: bool,
}

impl BuildPermit {
    /// Publish freshly built runs under the permit's key.
    pub fn publish(mut self, runs: SharedRunSet) {
        self.armed = false;
        self.cache.publish_inner(self.key, runs);
    }

    /// The key this permit claims.
    pub fn key(&self) -> RunKey {
        self.key
    }
}

impl Drop for BuildPermit {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abandon(self.key);
        }
    }
}

impl std::fmt::Debug for BuildPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildPermit").field("key", &self.key).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_core::join::runs::RunSet;
    use mpsm_core::Tuple;
    use mpsm_numa::{NodeId, NumaBuf};

    fn run_set(tuples: usize) -> SharedRunSet {
        let data: Vec<Tuple> = (0..tuples as u64).map(|k| Tuple::new(k, k)).collect();
        Arc::new(RunSet::new(vec![NumaBuf::from_vec(NodeId(0), data)]))
    }

    fn key(relation: u64, version: u64) -> RunKey {
        RunKey { relation, version, fingerprint: splitter_fingerprint(4, 10) }
    }

    #[test]
    fn miss_then_publish_then_hit() {
        let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
        let Lookup::Miss(permit) = cache.lookup(key(1, 1)) else {
            panic!("first lookup must miss");
        };
        permit.publish(run_set(100));
        match cache.lookup(key(1, 1)) {
            Lookup::Hit(runs) => assert_eq!(runs.total_tuples(), 100),
            _ => panic!("second lookup must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 100 * std::mem::size_of::<Tuple>());
    }

    #[test]
    fn building_slot_reports_busy_until_resolved() {
        let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
        let Lookup::Miss(permit) = cache.lookup(key(1, 1)) else { panic!() };
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Busy), "single-flight");
        permit.publish(run_set(10));
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Hit(_)));
    }

    #[test]
    fn dropping_a_permit_releases_the_slot() {
        let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
        let Lookup::Miss(permit) = cache.lookup(key(1, 1)) else { panic!() };
        drop(permit);
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Miss(_)), "slot released");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let tuple = std::mem::size_of::<Tuple>();
        let cache = Arc::new(RunCache::new(RunCacheConfig { byte_budget: 250 * tuple }));
        for rel in 1..=2u64 {
            let Lookup::Miss(p) = cache.lookup(key(rel, 1)) else { panic!() };
            p.publish(run_set(100));
        }
        // Touch relation 1 so relation 2 is the LRU victim.
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Hit(_)));
        let Lookup::Miss(p) = cache.lookup(key(3, 1)) else { panic!() };
        p.publish(run_set(100));
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Hit(_)), "recently used survives");
        assert!(matches!(cache.lookup(key(3, 1)), Lookup::Hit(_)), "new entry resident");
        assert!(!matches!(cache.lookup(key(2, 1)), Lookup::Hit(_)), "LRU victim gone");
    }

    #[test]
    fn oversized_sets_are_not_cached() {
        let tuple = std::mem::size_of::<Tuple>();
        let cache = Arc::new(RunCache::new(RunCacheConfig { byte_budget: 10 * tuple }));
        let Lookup::Miss(p) = cache.lookup(key(1, 1)) else { panic!() };
        p.publish(run_set(100));
        assert_eq!(cache.stats().inserts, 0);
        assert!(matches!(cache.lookup(key(1, 1)), Lookup::Miss(_)));
    }

    #[test]
    fn invalidate_relation_drops_only_older_versions() {
        let cache = Arc::new(RunCache::new(RunCacheConfig::default()));
        for version in 1..=3u64 {
            let Lookup::Miss(p) = cache.lookup(key(7, version)) else { panic!() };
            p.publish(run_set(10));
        }
        let Lookup::Miss(p) = cache.lookup(key(8, 1)) else { panic!() };
        p.publish(run_set(10));
        cache.invalidate_relation(7, 3);
        assert!(matches!(cache.lookup(key(7, 3)), Lookup::Hit(_)), "current version kept");
        assert!(matches!(cache.lookup(key(8, 1)), Lookup::Hit(_)), "other relations kept");
        assert!(!matches!(cache.lookup(key(7, 1)), Lookup::Hit(_)));
        assert!(!matches!(cache.lookup(key(7, 2)), Lookup::Hit(_)));
    }

    #[test]
    fn fingerprint_separates_layouts() {
        assert_ne!(splitter_fingerprint(4, 10), splitter_fingerprint(8, 10));
        assert_ne!(splitter_fingerprint(4, 10), splitter_fingerprint(4, 11));
        assert_eq!(splitter_fingerprint(4, 10), splitter_fingerprint(4, 10));
    }
}
