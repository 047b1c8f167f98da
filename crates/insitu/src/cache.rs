//! A sharded, byte-budgeted LRU cache of decoded indices over a durable
//! [`Store`] — the warm read path of the query engine.
//!
//! [`Store::get`] re-reads and re-verifies a blob on every call; an
//! interactive query session hits the same few `(variable, step)` pairs
//! over and over, so [`CachedStore`] keeps the verified form resident:
//!
//! * a miss *verifies* everything and *materialises* nothing: the blob is
//!   read once, its length, frame and CRC checked, every bin decoded or —
//!   a Roaring bin — deserialized with all of its checks, so a malformed
//!   payload is a typed error from [`CachedStore::get`] and never from a
//!   later query. What the entry then holds is each bin in its at-rest
//!   form. Counts, probes and the joint table's label walk — everything
//!   a reply reads — take a Roaring bin where it lies; it is transcoded to
//!   WAH only for a caller outside the engine that asks for that form
//!   ([`ibis_core::BitmapIndex::bin`]). Concurrent readers share one copy;
//! * each entry is an `Arc<MultiLevelIndex>` around the decoded index with
//!   no grouping (`group` 1): nothing reads a cached entry's high level,
//!   and the wrapper stays only because the `ibis-e2e` harness spells the
//!   return type (ROADMAP item 2b);
//! * an entry is charged its index's at-rest bytes
//!   ([`ibis_core::BitmapIndex::size_bytes`]), once, on arrival. Every
//!   statistic a reply computes reads a partition where its bins lie
//!   ([`ibis_analysis::SubsetQuery::count`],
//!   [`ibis_analysis::correlation_partial_shard`]), so no reply transcodes
//!   a bin and an entry never grows while it is used: `resident_bytes` is
//!   the sum of the resident entries' sizes;
//! * entries are spread over fixed shards (key-hashed), each behind its own
//!   [`parking_lot::Mutex`] — readers of different shards never contend,
//!   and the underlying catalog is an `Arc<Store>` that is never mutated;
//! * the read happens *outside* any lock (a slow blob read stalls only the
//!   requesting thread), with a double-check on insert so a racing thread's
//!   copy wins and the loser's work is dropped;
//! * the byte budget is enforced per shard by last-used eviction on a
//!   miss; the entry being returned is never evicted, so a single
//!   oversized index still serves (the budget is a high-water target, not
//!   a hard allocator).
//!
//! Counters (family `query.cache`, see DESIGN.md §6g):
//! `query.cache.{hits,misses,evictions}` and the gauge
//! `query.cache.resident_bytes`. Per-instance [`CacheStats`] mirror them so
//! tests and the CLI don't depend on global observability state.

use crate::error::Result;
use crate::store::{LossyCompanion, Store};
use ibis_core::{MultiLevelIndex, RowOrder, RowPermutation};
use ibis_obs::{LazyCounter, LazyGauge};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static OBS_CACHE_HITS: LazyCounter = LazyCounter::new("query.cache.hits");
static OBS_CACHE_MISSES: LazyCounter = LazyCounter::new("query.cache.misses");
static OBS_CACHE_EVICTIONS: LazyCounter = LazyCounter::new("query.cache.evictions");
static OBS_CACHE_RESIDENT: LazyGauge = LazyGauge::new("query.cache.resident_bytes");

/// Point-in-time counters of one [`CachedStore`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Reads served from a resident entry.
    pub hits: u64,
    /// Reads that had to decode from the store.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes the resident entries hold, across all shards.
    pub resident_bytes: u64,
}

type Key = (usize, String);

struct Entry {
    index: Arc<MultiLevelIndex>,
    bytes: u64,
    last_used: u64,
}

/// A step's stored row order: which [`RowOrder`] produced it plus the
/// permutation to map stored rows back to original rows.
pub type StoredOrder = Arc<(RowOrder, RowPermutation)>;

/// Memoized lossy companions, keyed by `(variable, step)` (`None` = no
/// companion stored for that entry).
type LossyMemo = HashMap<(String, usize), Option<Arc<LossyCompanion>>>;

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    resident: u64,
}

/// A read-through cache of decoded indices over a [`Store`],
/// safe to share across threads (`&self` everywhere, clone-cheap via the
/// inner `Arc`s).
pub struct CachedStore {
    store: Arc<Store>,
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    // Instance label for per-instance obs gauges (`query.cache.<label>.*`).
    // `None` publishes none.
    label: Option<String>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    // Row permutations, memoized per step (`None` = step stored in its
    // original order, also memoized so absence costs one store probe
    // total). Deliberately outside the byte budget although a decoded
    // permutation is 8 bytes/row (gather order and inverse) plus its
    // segment starts, which under a sorting order is far *more* than the
    // index it orders (a fill or two a bin): every region query of the
    // step resolves against it, and evicting it would break in-flight
    // queries' row mapping.
    orders: Mutex<HashMap<usize, Option<StoredOrder>>>,
    // Lossy superset companions, memoized per (variable, step) exactly
    // like `orders` (`None` = no companion stored, also memoized). Outside
    // the byte budget: a companion is a filter the engine consults before
    // the (much larger) exact index, so evicting it would defeat its
    // purpose precisely when the cache is under pressure.
    lossy: Mutex<LossyMemo>,
}

impl std::fmt::Debug for CachedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedStore")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

/// FNV-1a over the key, for shard selection.
fn shard_of(step: usize, variable: &str, nshards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in variable
        .as_bytes()
        .iter()
        .copied()
        .chain(step.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % nshards as u64) as usize
}

impl CachedStore {
    /// Default shard count: enough to keep a handful of reader threads off
    /// each other's locks without scattering the budget too thin.
    const DEFAULT_SHARDS: usize = 8;

    /// Wraps a store with a cache holding at most ~`budget_bytes` of
    /// decoded indices (enforced per shard).
    pub fn new(store: Store, budget_bytes: u64) -> Self {
        Self::with_shards(store, budget_bytes, Self::DEFAULT_SHARDS)
    }

    /// [`CachedStore::new`] with an explicit shard count (min 1).
    pub fn with_shards(store: Store, budget_bytes: u64, nshards: usize) -> Self {
        let nshards = nshards.max(1);
        CachedStore {
            store: Arc::new(store),
            shards: (0..nshards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / nshards as u64,
            label: None,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            orders: Mutex::new(HashMap::new()),
            lossy: Mutex::new(HashMap::new()),
        }
    }

    /// Names this instance for per-instance obs gauges: the engine's
    /// `publish_obs` sets `query.cache.<label>.{hits,misses,evictions,`
    /// `resident_bytes}`, so a process fronting several caches (one per
    /// spatial shard, say) exposes each one's residency separately.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The instance label set by [`CachedStore::with_label`], if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The underlying read-only catalog.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The total byte budget this cache enforces (sum over lock shards).
    pub fn budget_bytes(&self) -> u64 {
        self.shard_budget * self.shards.len() as u64
    }

    /// Evicts entries whose step fails `keep`, regardless of recency, and
    /// returns the bytes freed. Maintenance hook: after a selection pass
    /// decides which steps stay hot, the rest stop occupying budget.
    pub fn evict_retain(&self, keep: impl Fn(usize) -> bool) -> u64 {
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            let victims: Vec<_> = s
                .map
                .keys()
                .filter(|(step, _)| !keep(*step))
                .cloned()
                .collect();
            for key in victims {
                if let Some(e) = s.map.remove(&key) {
                    s.resident -= e.bytes;
                    freed += e.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    OBS_CACHE_EVICTIONS.inc();
                }
            }
        }
        OBS_CACHE_RESIDENT.add(-(freed as i64));
        freed
    }

    /// Evicts least-recently-used entries until total residency is at or
    /// under `target_bytes` (applied per lock shard as an even split), and
    /// returns the bytes freed. Unlike the insert-path eviction this may
    /// empty a shard completely — a maintenance tier squeezing an idle
    /// cache below its serving budget.
    pub fn evict_to(&self, target_bytes: u64) -> u64 {
        let per_shard = target_bytes / self.shards.len() as u64;
        let freed = self
            .shards
            .iter()
            .map(|shard| self.evict_lru(&mut shard.lock(), per_shard, None))
            .sum();
        OBS_CACHE_RESIDENT.add(-(freed as i64));
        freed
    }

    /// Evicts `s`'s least-recently-used entries, sparing `keep`, until it
    /// holds at most `target` bytes or nothing else is left; returns the
    /// bytes freed.
    fn evict_lru(&self, s: &mut Shard, target: u64, keep: Option<&Key>) -> u64 {
        let mut freed = 0;
        while s.resident > target {
            let victim = s
                .map
                .iter()
                .filter(|(k, _)| Some(*k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(e) = victim.and_then(|k| s.map.remove(&k)) else {
                break;
            };
            s.resident -= e.bytes;
            freed += e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            OBS_CACHE_EVICTIONS.inc();
        }
        freed
    }

    /// Reads `(variable, step)` through the cache: a resident entry is
    /// shared via `Arc`, a miss reads and verifies outside the shard lock
    /// and then inserts (first racer wins), evicting least-recently-used
    /// entries past the byte budget.
    pub fn get(&self, variable: &str, step: usize) -> Result<Arc<MultiLevelIndex>> {
        let key = (step, variable.to_string());
        let shard = &self.shards[shard_of(step, variable, self.shards.len())];
        let hit = |s: &mut Shard| {
            let e = s.map.get_mut(&key)?;
            e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(&e.index))
        };
        if let Some(index) = hit(&mut shard.lock()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            OBS_CACHE_HITS.inc();
            return Ok(index);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        OBS_CACHE_MISSES.inc();
        // Read and verify with no lock held: a cold blob stalls only this
        // reader.
        let low = self.store.get(step, variable)?;
        let ml = Arc::new(MultiLevelIndex::from_low(low, 1));

        let mut s = shard.lock();
        if let Some(index) = hit(&mut s) {
            // Another thread read the same blob while we did; its copy is
            // already shared — drop ours.
            return Ok(index);
        }
        let bytes = ml.low().size_bytes() as u64;
        s.map.insert(
            key.clone(),
            Entry {
                index: Arc::clone(&ml),
                bytes,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
        s.resident += bytes;
        let freed = self.evict_lru(&mut s, self.shard_budget, Some(&key));
        OBS_CACHE_RESIDENT.add(bytes as i64 - freed as i64);
        Ok(ml)
    }

    /// The row order and permutation `step` was ingested under, or `None`
    /// for identity-order steps, memoized across calls (see the `orders`
    /// field note on why permutations sit outside the byte budget). A
    /// corrupt permutation blob surfaces as [`crate::error::IbisError::Corrupt`]
    /// on every call rather than being cached — the caller decides whether
    /// to fsck.
    pub fn get_order(&self, step: usize) -> Result<Option<StoredOrder>> {
        self.get_order_over(step, None)
    }

    /// [`CachedStore::get_order`] by a caller that knows how many `rows`
    /// the order must cover ([`Store::load_order_over`]).
    pub(crate) fn get_order_over(
        &self,
        step: usize,
        rows: Option<u64>,
    ) -> Result<Option<StoredOrder>> {
        if let Some(cached) = self.orders.lock().get(&step) {
            return Ok(cached.clone());
        }
        // Load outside the lock; a racing thread's copy wins below.
        let loaded = self.store.load_order_over(step, rows)?.map(Arc::new);
        Ok(self.orders.lock().entry(step).or_insert(loaded).clone())
    }

    /// The lossy superset companion stored for `(variable, step)`, or
    /// `None` when the run wrote none, memoized across calls (see the
    /// `lossy` field note on why companions sit outside the byte budget).
    /// A corrupt companion blob surfaces as
    /// [`crate::error::IbisError::Corrupt`] on every call rather than
    /// being cached.
    pub fn get_lossy(&self, variable: &str, step: usize) -> Result<Option<Arc<LossyCompanion>>> {
        let key = (variable.to_string(), step);
        if let Some(cached) = self.lossy.lock().get(&key) {
            return Ok(cached.clone());
        }
        // Load outside the lock; a racing thread's copy wins below.
        let loaded = self.store.load_lossy(step, variable)?.map(Arc::new);
        Ok(self.lossy.lock().entry(key).or_insert(loaded).clone())
    }

    /// This instance's counters (independent of the global obs registry,
    /// so tests running in parallel see only their own cache).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.shards.iter().map(|s| s.lock().resident).sum(),
        }
    }

    /// Sets `query.cache.<label>.{hits,misses,evictions,resident_bytes}`
    /// for a labeled instance, registered lazily by name; nothing for an
    /// unlabeled one. The static family is [`CacheStats::publish_obs`]'s:
    /// an engine publishes the *sum* over its caches there, once.
    pub(crate) fn publish_labeled_obs(&self) {
        // Gated on ENABLED so the no-op obs build registers nothing.
        if !ibis_obs::ENABLED {
            return;
        }
        let Some(label) = &self.label else { return };
        let (s, reg) = (self.stats(), ibis_obs::global());
        reg.gauge(&format!("query.cache.{label}.hits"))
            .set(s.hits as i64);
        reg.gauge(&format!("query.cache.{label}.misses"))
            .set(s.misses as i64);
        reg.gauge(&format!("query.cache.{label}.evictions"))
            .set(s.evictions as i64);
        reg.gauge(&format!("query.cache.{label}.resident_bytes"))
            .set(s.resident_bytes as i64);
    }
}

impl CacheStats {
    /// Publishes these counters as the `query.cache.stat.*` gauges plus
    /// `query.cache.hit_ratio_pct`, so a server's hit ratio lands in
    /// `--obs-json` snapshots (the global `query.cache.{hits,misses}`
    /// counters aggregate *every* cache in the process; these gauges are
    /// the publisher's view — one cache, or an engine's sum over shards).
    /// Call it right before snapshotting; a no-op in the no-op obs build.
    pub fn publish_obs(&self) {
        static OBS_STAT_HITS: LazyGauge = LazyGauge::new("query.cache.stat.hits");
        static OBS_STAT_MISSES: LazyGauge = LazyGauge::new("query.cache.stat.misses");
        static OBS_STAT_EVICTIONS: LazyGauge = LazyGauge::new("query.cache.stat.evictions");
        static OBS_STAT_RESIDENT: LazyGauge = LazyGauge::new("query.cache.stat.resident_bytes");
        static OBS_HIT_RATIO: LazyGauge = LazyGauge::new("query.cache.hit_ratio_pct");
        OBS_STAT_HITS.set(self.hits as i64);
        OBS_STAT_MISSES.set(self.misses as i64);
        OBS_STAT_EVICTIONS.set(self.evictions as i64);
        OBS_STAT_RESIDENT.set(self.resident_bytes as i64);
        if let Some(pct) = (self.hits * 100).checked_div(self.hits + self.misses) {
            OBS_HIT_RATIO.set(pct as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreWriter;
    use ibis_core::{Binner, BitmapIndex};
    use ibis_testkit::TempDir;

    fn sample_index(seed: usize) -> BitmapIndex {
        let data: Vec<f64> = (0..2000).map(|i| ((i * (seed + 3)) % 40) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    fn store_with(name: &str, steps: &[usize], vars: &[&str]) -> (TempDir, Store) {
        let dir = TempDir::new(&format!("cache-{name}"));
        let mut w = StoreWriter::create(&dir).unwrap();
        for &s in steps {
            for (i, v) in vars.iter().enumerate() {
                w.put(s, v, &sample_index(s + i * 7)).unwrap();
            }
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn hit_returns_shared_decoded_index() {
        let (_dir, store) = store_with("hit", &[0, 1], &["temperature"]);
        let cache = CachedStore::new(store, 64 << 20);
        let a = cache.get("temperature", 0).unwrap();
        let b = cache.get("temperature", 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the decoded copy");
        assert_eq!(a.low().counts(), sample_index(0).counts());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert!(st.resident_bytes > 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let (_dir, store) = store_with("evict", &[0, 1, 2, 3], &["temperature"]);
        // what an entry is charged on arrival: its bins as they are stored
        let one = store.get(0, "temperature").unwrap().size_bytes() as u64;
        // one shard, room for ~2 entries
        let cache = CachedStore::with_shards(store, 2 * one + one / 2, 1);
        for s in [0usize, 1, 2, 3] {
            cache.get("temperature", s).unwrap();
        }
        let st = cache.stats();
        assert!(st.evictions >= 1, "budget must force evictions: {st:?}");
        assert!(
            st.resident_bytes <= 3 * one,
            "resident {} must stay near budget",
            st.resident_bytes
        );
        // step 3 is the most recent entry: still a hit
        cache.get("temperature", 3).unwrap();
        assert_eq!(cache.stats().hits, 1);
        // step 0 was evicted: a second read is a miss, but still correct
        let again = cache.get("temperature", 0).unwrap();
        assert_eq!(again.low().counts(), sample_index(0).counts());
    }

    #[test]
    fn publish_obs_exports_stats_as_gauges() {
        let (_dir, store) = store_with("publish", &[0, 1], &["temperature"]);
        let cache = CachedStore::new(store, 64 << 20);
        cache.get("temperature", 0).unwrap();
        cache.get("temperature", 0).unwrap();
        cache.get("temperature", 1).unwrap();
        cache.stats().publish_obs();
        if ibis_obs::ENABLED {
            let snap = ibis_obs::global().snapshot();
            let gauge = |name: &str| match snap.get(name) {
                Some(ibis_obs::MetricValue::Gauge { value, .. }) => *value,
                other => panic!("{name}: expected gauge, got {other:?}"),
            };
            // Other parallel tests share the global registry, but these
            // gauges are only set by publish_obs on *this* instance's stats
            // (the only caller in the lib test binary), so values are exact.
            assert_eq!(gauge("query.cache.stat.hits"), 1);
            assert_eq!(gauge("query.cache.stat.misses"), 2);
            assert_eq!(gauge("query.cache.stat.evictions"), 0);
            assert!(gauge("query.cache.stat.resident_bytes") > 0);
            assert_eq!(gauge("query.cache.hit_ratio_pct"), 33);
        }
    }

    #[test]
    fn oversized_entry_still_serves() {
        let (_dir, store) = store_with("oversize", &[0], &["temperature"]);
        let cache = CachedStore::with_shards(store, 1, 1); // 1-byte budget
        let idx = cache.get("temperature", 0).unwrap();
        assert_eq!(idx.low().counts(), sample_index(0).counts());
    }

    #[test]
    fn an_entry_is_charged_its_at_rest_bytes() {
        let (_dir, store) = store_with("at-rest", &[0, 1, 2], &["temperature"]);
        let at_rest: Vec<u64> = (0..3)
            .map(|s| store.get(s, "temperature").unwrap().size_bytes() as u64)
            .collect();
        let cache = CachedStore::with_shards(store, 64 << 20, 1);
        let held: Vec<_> = (0..3)
            .map(|s| cache.get("temperature", s).unwrap())
            .collect();
        assert_eq!(cache.stats().resident_bytes, at_rest.iter().sum::<u64>());
        // what a caller asks of an entry is not charged to it
        assert_eq!(held[1].low().bins().count(), held[1].low().nbins());
        cache.get("temperature", 1).unwrap();
        assert_eq!(cache.stats().resident_bytes, at_rest.iter().sum::<u64>());
        let freed = cache.evict_retain(|step| step != 1);
        assert_eq!(freed, at_rest[1], "an entry frees what it was charged");
    }

    #[test]
    fn serves_tagged_and_untagged_blobs_alike() {
        // Scattered data stores as a tagged v2 payload (per-bin
        // Roaring/mixed plans), smooth data as the untagged all-WAH v1
        // payload — the cache's decode path must serve both transparently.
        let dir = TempDir::new("cache-codecs");
        let scattered = sample_index(0);
        let smooth = {
            let data: Vec<f64> = (0..20_000).map(|i| (i / 500) as f64).collect();
            BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
        };
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &scattered).unwrap();
        w.put(1, "temperature", &smooth).unwrap();
        w.finish().unwrap();
        // the payload's layout version sits behind the 12-byte frame
        // header and the payload's own 4-byte magic
        let version = |file: &str| std::fs::read(dir.join(file)).unwrap()[16];
        assert_eq!(version("s000000_temperature.ibis"), 2, "scattered → tagged");
        assert_eq!(version("s000001_temperature.ibis"), 1, "smooth → untagged");

        let cache = CachedStore::new(Store::open(&dir).unwrap(), 64 << 20);
        assert_eq!(
            cache.get("temperature", 0).unwrap().low().counts(),
            scattered.counts()
        );
        assert_eq!(
            cache.get("temperature", 1).unwrap().low().counts(),
            smooth.counts()
        );
        assert!(Arc::ptr_eq(
            &cache.get("temperature", 0).unwrap(),
            &cache.get("temperature", 0).unwrap()
        ));
    }

    #[test]
    fn get_order_memoizes_presence_and_absence() {
        let dir = TempDir::new("cache-order");
        let data: Vec<f64> = (0..2000).map(|i| ((i * 3) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(
            0,
            "temperature",
            &BitmapIndex::build_permuted(&data, binner, &perm),
        )
        .unwrap();
        w.put_order(0, order, &perm).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        let cache = CachedStore::new(Store::open(&dir).unwrap(), 64 << 20);
        let a = cache.get_order(0).unwrap().unwrap();
        let b = cache.get_order(0).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups must share the Arc");
        assert_eq!(a.0, order);
        assert_eq!(a.1, perm);
        assert_eq!(cache.get_order(1).unwrap(), None);
        assert_eq!(cache.get_order(1).unwrap(), None);
    }

    #[test]
    fn evict_retain_drops_only_unkept_steps() {
        let (_dir, store) = store_with("retain", &[0, 1, 2], &["temperature"]);
        let cache = CachedStore::new(store, 64 << 20);
        for s in [0usize, 1, 2] {
            cache.get("temperature", s).unwrap();
        }
        let before = cache.stats().resident_bytes;
        let freed = cache.evict_retain(|step| step == 1);
        assert!(freed > 0);
        let st = cache.stats();
        assert_eq!(st.resident_bytes, before - freed);
        assert_eq!(st.evictions, 2);
        // step 1 kept: still a hit; steps 0 and 2 re-decode
        cache.get("temperature", 1).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn evict_to_squeezes_below_target() {
        let (_dir, store) = store_with("squeeze", &[0, 1, 2, 3], &["temperature"]);
        let cache = CachedStore::with_shards(store, 64 << 20, 1);
        for s in [0usize, 1, 2, 3] {
            cache.get("temperature", s).unwrap();
        }
        let freed = cache.evict_to(0);
        assert!(freed > 0);
        assert_eq!(
            cache.stats().resident_bytes,
            0,
            "target 0 empties the cache"
        );
        // still serves after a full squeeze
        assert_eq!(
            cache.get("temperature", 2).unwrap().low().counts(),
            sample_index(2).counts()
        );
    }

    #[test]
    fn labeled_instance_publishes_per_instance_gauges() {
        let (_dir, store) = store_with("label", &[0], &["temperature"]);
        let cache = CachedStore::new(store, 64 << 20).with_label("shard007");
        assert_eq!(cache.label(), Some("shard007"));
        cache.get("temperature", 0).unwrap();
        cache.get("temperature", 0).unwrap();
        // only the labeled half: the static family belongs to the test above
        cache.publish_labeled_obs();
        if ibis_obs::ENABLED {
            let snap = ibis_obs::global().snapshot();
            let gauge = |name: &str| match snap.get(name) {
                Some(ibis_obs::MetricValue::Gauge { value, .. }) => *value,
                other => panic!("{name}: expected gauge, got {other:?}"),
            };
            assert_eq!(gauge("query.cache.shard007.hits"), 1);
            assert_eq!(gauge("query.cache.shard007.misses"), 1);
            assert!(gauge("query.cache.shard007.resident_bytes") > 0);
        }
    }

    #[test]
    fn missing_entry_surfaces_not_found() {
        let (_dir, store) = store_with("miss", &[0], &["temperature"]);
        let cache = CachedStore::new(store, 1 << 20);
        let err = cache.get("salinity", 0).unwrap_err();
        assert!(matches!(err, crate::error::IbisError::NotFound { .. }));
    }
}
