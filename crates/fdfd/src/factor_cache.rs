//! Factorization reuse: one banded LU per (design, frequency, PML).
//!
//! The banded LU factorization is `O(n·nx²)` — the dominant cost of every
//! direct solve — while a substitution sweep is only `O(n·nx)`. Forward,
//! adjoint, repeated monitor, and S-parameter solves against the *same*
//! discretized operator therefore want to share one factorization. This
//! module provides that sharing:
//!
//! - a cheap 128-bit [`Fingerprint`] of the operator inputs (permittivity
//!   bits, `omega`, grid dims, spacing, PML config) identifies "the same
//!   operator" without retaining the inputs;
//! - a process-wide [`FactorCache`] maps fingerprints to `Arc<BandedLu>`
//!   with bounded capacity and LRU eviction;
//! - independent of the LRU ring, the cache always retains the **most
//!   recent** factorization, so an adjoint solve immediately following the
//!   forward solve of the same design reuses its factor even when the cache
//!   is disabled (`MAPS_FACTOR_CACHE=0`);
//! - **single-flight coalescing** ([`FactorCache::factorize_coalesced`]):
//!   concurrent misses of the same fingerprint elect one leader to
//!   factorize while followers wait and share the result — the mechanism a
//!   multi-client solve service (`mapsd`) relies on to answer a stampede of
//!   identical designs with one factorization. In-flight bookkeeping is
//!   sharded by fingerprint bits ([`FLIGHT_SHARDS`]) to kill lock
//!   contention between unrelated designs.
//!
//! Reuse is bit-identical by construction: a hit returns the *same*
//! factorization a cold call would recompute (the factorization is a
//! deterministic function of the fingerprinted inputs), so forward and
//! transposed solves produce exactly the same bits either way.
//!
//! Telemetry: `fdfd.factor_cache.{hit,miss,evict}` counters in the
//! [`maps_obs`] global registry, plus per-instance [`CacheStats`].
//!
//! The capacity knob is the `MAPS_FACTOR_CACHE` environment variable:
//! unset/empty keeps the default (4 entries), `0`/`off` disables the LRU
//! ring (the last-factor slot stays active), any other integer sets the
//! capacity. A cached factor for an `nx × ny` grid holds
//! `(3·nx + 1)·nx·ny` complex doubles (~25 MB at the default 80×80 device
//! grid), so capacities stay small.

use crate::pml::PmlConfig;
use maps_core::RealField2d;
use maps_linalg::{BandedLu, BandedMatrix, LinalgError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default LRU capacity when `MAPS_FACTOR_CACHE` is unset.
pub const DEFAULT_CAPACITY: usize = 4;

/// Number of independent single-flight registries. Concurrent factorizations
/// of *different* fingerprints coordinate on different shards (selected by
/// fingerprint bits), so a daemon serving many designs at once never
/// serializes its in-flight bookkeeping behind one lock.
pub const FLIGHT_SHARDS: usize = 16;

/// A cheap identity of one assembled Helmholtz operator.
///
/// Two FNV-1a passes with independent offset bases over the raw bit
/// patterns of every input that reaches the operator assembly: permittivity
/// cells, `omega`, grid dims and spacing, and the PML configuration. With
/// 128 independent hash bits, an accidental collision between two *distinct*
/// operators in a cache of single-digit capacity is vanishingly unlikely
/// (birthday bound ≪ 1e-30), and any intentional inputs that differ in even
/// one bit fingerprint differently — which is exactly the invalidation rule
/// bit-identical reuse needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    h: [u64; 2],
    cells: usize,
}

impl Fingerprint {
    /// The single-flight shard this fingerprint coordinates on.
    fn shard(&self) -> usize {
        (self.h[0] as usize) % FLIGHT_SHARDS
    }

    /// The 128-bit digest as 32 hex chars — the stable operator identity
    /// traces and logs use to say *which* factorization a span computed.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.h[0], self.h[1])
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
// Second pass starts from an unrelated offset so the two 64-bit digests are
// independent functions of the input stream.
const FNV_OFFSET_B: u64 = 0x6C62_272E_07BB_0142;

#[derive(Clone, Copy)]
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        Fnv2 {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Hash byte-wise: FNV-1a mixes per octet. Pass B sees each byte
        // XOR-masked so the two digests are independent functions of the
        // input stream, not a shared value from two offsets.
        for shift in (0..64).step_by(8) {
            let byte = (v >> shift) & 0xFF;
            self.a = (self.a ^ byte).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ (byte ^ 0xA5)).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

/// Computes the [`Fingerprint`] of the operator assembled from these inputs.
pub fn fingerprint(eps_r: &RealField2d, omega: f64, pml: &PmlConfig) -> Fingerprint {
    let grid = eps_r.grid();
    let mut h = Fnv2::new();
    h.write_u64(grid.nx as u64);
    h.write_u64(grid.ny as u64);
    h.write_f64(grid.dl);
    h.write_f64(omega);
    h.write_u64(pml.thickness as u64);
    h.write_f64(pml.order);
    h.write_f64(pml.target_reflection);
    for v in eps_r.as_slice() {
        h.write_f64(*v);
    }
    Fingerprint {
        h: [h.a, h.b],
        cells: grid.len(),
    }
}

/// Hit/miss/eviction counts of one [`FactorCache`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to factorize (single-flight leaders included).
    pub misses: u64,
    /// Entries dropped from the LRU ring to respect capacity.
    pub evictions: u64,
    /// Lookups that joined another thread's in-flight factorization instead
    /// of computing their own (single-flight followers).
    pub coalesced: u64,
}

/// How one coalesced factorization request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorOutcome {
    /// The factorization was already cached.
    Hit,
    /// This call computed the factorization (and published it to every
    /// concurrent follower).
    Leader,
    /// This call waited on a concurrent leader's factorization of the same
    /// fingerprint and shared its result.
    Follower,
}

/// One in-flight factorization: followers block on the condvar until the
/// leader publishes a result (or its abort) into the slot.
struct Flight {
    slot: Mutex<Option<Result<Arc<BandedLu>, LinalgError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<BandedLu>, LinalgError>) {
        let mut slot = self.slot.lock().expect("flight slot");
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<BandedLu>, LinalgError> {
        let mut slot = self.slot.lock().expect("flight slot");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("flight wait");
        }
        slot.as_ref().expect("published flight result").clone()
    }
}

/// Removes the leader's in-flight entry and publishes an abort if the leader
/// unwinds without publishing a real result — followers must never block on
/// a leader that panicked mid-factorization.
/// A registry shard: the in-flight factorizations whose fingerprints hash
/// into this shard.
type FlightShard = Vec<(Fingerprint, Arc<Flight>)>;

struct FlightGuard<'a> {
    shard: &'a Mutex<FlightShard>,
    key: Fingerprint,
    flight: &'a Arc<Flight>,
    published: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.flight.publish(Err(LinalgError::Aborted {
                detail: "single-flight leader panicked before factorizing".into(),
            }));
        }
        let mut inflight = self.shard.lock().expect("flight shard");
        inflight.retain(|(k, _)| *k != self.key);
    }
}

struct Entry {
    key: Fingerprint,
    lu: Arc<BandedLu>,
    used: u64,
}

struct Inner {
    /// Most recent factorization — always retained, even at capacity 0,
    /// so forward → adjoint pairs on one design share a factor
    /// unconditionally.
    last: Option<(Fingerprint, Arc<BandedLu>)>,
    ring: Vec<Entry>,
    capacity: usize,
    clock: u64,
}

/// A bounded LRU cache of banded LU factorizations.
///
/// The process-wide instance is [`global`]; independent instances are
/// constructible for tests and special-purpose pipelines.
pub struct FactorCache {
    inner: Mutex<Inner>,
    /// Single-flight registries, sharded by fingerprint bits so concurrent
    /// factorizations of unrelated designs never contend on one lock.
    flights: Vec<Mutex<FlightShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl std::fmt::Debug for FactorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FactorCache")
            .field("capacity", &self.capacity())
            .field("stats", &s)
            .finish()
    }
}

impl FactorCache {
    /// Creates a cache with an LRU ring of `capacity` entries (0 disables
    /// the ring; the last-factor slot is always active).
    pub fn new(capacity: usize) -> Self {
        FactorCache {
            inner: Mutex::new(Inner {
                last: None,
                ring: Vec::new(),
                capacity,
                clock: 0,
            }),
            flights: (0..FLIGHT_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Current LRU capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("factor cache lock").capacity
    }

    /// Resizes the LRU ring, evicting least-recently-used entries if the
    /// new capacity is smaller. The last-factor slot is unaffected.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.capacity = capacity;
        while inner.ring.len() > capacity {
            evict_lru(&mut inner);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("fdfd.factor_cache.evict").inc();
        }
    }

    /// Raises (or lowers) the LRU capacity for a bounded scope: the
    /// returned guard restores the prior capacity when dropped, evicting
    /// down to it. Benchmarks and sweeps that need a temporarily larger
    /// ring (e.g. one factor per spectrum frequency) use this instead of a
    /// bare [`FactorCache::set_capacity`], which would leave a process-wide
    /// capacity raise sticky after the sweep ends — every later caller
    /// would silently retain far more factor memory than `MAPS_FACTOR_CACHE`
    /// configured.
    #[must_use = "dropping the guard immediately restores the prior capacity"]
    pub fn scoped_capacity(&self, capacity: usize) -> CapacityGuard<'_> {
        let prior = self.capacity();
        self.set_capacity(capacity);
        CapacityGuard { cache: self, prior }
    }

    /// Drops every cached factorization (including the last-factor slot)
    /// without touching the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.last = None;
        inner.ring.clear();
    }

    /// Instance counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Looks up a factorization without counting a miss (used by
    /// [`FactorCache::factorize_with`]; exposed for diagnostics).
    pub fn get(&self, key: &Fingerprint) -> Option<Arc<BandedLu>> {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.clock += 1;
        let now = inner.clock;
        if let Some((k, lu)) = &inner.last {
            if k == key {
                let lu = Arc::clone(lu);
                // Refresh the ring entry too, if present.
                if let Some(e) = inner.ring.iter_mut().find(|e| e.key == *key) {
                    e.used = now;
                }
                return Some(lu);
            }
        }
        if let Some(e) = inner.ring.iter_mut().find(|e| e.key == *key) {
            e.used = now;
            let lu = Arc::clone(&e.lu);
            inner.last = Some((*key, Arc::clone(&lu)));
            return Some(lu);
        }
        None
    }

    /// Inserts a factorization, evicting the least-recently-used ring entry
    /// when over capacity.
    pub fn insert(&self, key: Fingerprint, lu: Arc<BandedLu>) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.clock += 1;
        let now = inner.clock;
        inner.last = Some((key, Arc::clone(&lu)));
        if inner.capacity == 0 {
            return;
        }
        if let Some(e) = inner.ring.iter_mut().find(|e| e.key == key) {
            e.used = now;
            e.lu = lu;
            return;
        }
        while inner.ring.len() >= inner.capacity {
            evict_lru(&mut inner);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("fdfd.factor_cache.evict").inc();
        }
        inner.ring.push(Entry { key, lu, used: now });
    }

    /// The factorization for `key`, computing it with `assemble` +
    /// [`BandedMatrix::factorize`] on a miss. See
    /// [`FactorCache::factorize_coalesced`] for the concurrency contract.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the factorization.
    pub fn factorize_with(
        &self,
        key: Fingerprint,
        assemble: impl FnOnce() -> BandedMatrix,
    ) -> Result<Arc<BandedLu>, LinalgError> {
        self.factorize_coalesced(key, assemble).map(|(lu, _)| lu)
    }

    /// Single-flight factorization: concurrent misses of the same `key`
    /// elect one **leader** that assembles and factorizes; every concurrent
    /// **follower** blocks until the leader publishes and then shares the
    /// same `Arc<BandedLu>`. A `N`-way stampede on one fingerprint therefore
    /// costs exactly one `O(n·b²)` factorization instead of `N`.
    ///
    /// Only the leader emits the `fdfd.factorize` span, so span-recorder
    /// tests can count actual factorizations. A leader that fails (or
    /// panics) publishes the failure to its followers — the error is a
    /// deterministic function of the fingerprinted inputs, so re-running it
    /// per follower would only repeat the same failure N times.
    ///
    /// Telemetry: `fdfd.factor_cache.coalesce.{leader,follower}` counters,
    /// plus the per-instance [`CacheStats::coalesced`] follower count.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the factorization (leaders and
    /// followers alike), or [`LinalgError::Aborted`] to followers whose
    /// leader panicked.
    pub fn factorize_coalesced(
        &self,
        key: Fingerprint,
        assemble: impl FnOnce() -> BandedMatrix,
    ) -> Result<(Arc<BandedLu>, FactorOutcome), LinalgError> {
        if let Some(lu) = self.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("fdfd.factor_cache.hit").inc();
            return Ok((lu, FactorOutcome::Hit));
        }
        let shard = &self.flights[key.shard()];
        let flight = Arc::new(Flight::new());
        let joined = {
            let mut inflight = shard.lock().expect("flight shard");
            // Re-check under the shard lock: a leader that finished between
            // our lookup and here has already inserted into the cache.
            if let Some(lu) = self.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                maps_obs::counter("fdfd.factor_cache.hit").inc();
                return Ok((lu, FactorOutcome::Hit));
            }
            match inflight.iter().find(|(k, _)| *k == key) {
                Some((_, leader)) => Some(Arc::clone(leader)),
                None => {
                    inflight.push((key, Arc::clone(&flight)));
                    None
                }
            }
        };
        if let Some(leader) = joined {
            // Follower: wait for the leader's published result.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("fdfd.factor_cache.coalesce.follower").inc();
            return leader.wait().map(|lu| (lu, FactorOutcome::Follower));
        }
        // Leader: factorize outside every lock, publish, then deregister.
        let mut guard = FlightGuard {
            shard,
            key,
            flight: &flight,
            published: false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        maps_obs::counter("fdfd.factor_cache.miss").inc();
        maps_obs::counter("fdfd.factor_cache.coalesce.leader").inc();
        let result = {
            let _s = maps_obs::span("fdfd.factorize")
                .field("cells", key.cells)
                .field("fingerprint", key.hex());
            assemble().factorize().map(Arc::new)
        };
        if let Ok(lu) = &result {
            self.insert(key, Arc::clone(lu));
        }
        flight.publish(result.clone());
        guard.published = true;
        drop(guard);
        result.map(|lu| (lu, FactorOutcome::Leader))
    }
}

/// Restores a [`FactorCache`]'s prior LRU capacity on drop (see
/// [`FactorCache::scoped_capacity`]).
#[derive(Debug)]
pub struct CapacityGuard<'a> {
    cache: &'a FactorCache,
    prior: usize,
}

impl CapacityGuard<'_> {
    /// The capacity the guard will restore.
    pub fn prior(&self) -> usize {
        self.prior
    }
}

impl Drop for CapacityGuard<'_> {
    fn drop(&mut self) {
        self.cache.set_capacity(self.prior);
    }
}

fn evict_lru(inner: &mut Inner) {
    if let Some(pos) = inner
        .ring
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.used)
        .map(|(i, _)| i)
    {
        inner.ring.swap_remove(pos);
    }
}

/// Parses the `MAPS_FACTOR_CACHE` knob into an LRU capacity. The `off` /
/// `false` aliases mean capacity 0; an unparseable value warns once via
/// the `MAPS_LOG` error sink and keeps the default (the shared warn-once
/// discipline of [`maps_obs::parse_env_or`]).
fn capacity_from_env() -> usize {
    match std::env::var("MAPS_FACTOR_CACHE") {
        Ok(v) => {
            let v = v.trim();
            if v.is_empty() {
                DEFAULT_CAPACITY
            } else if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false") {
                0
            } else {
                v.parse().unwrap_or_else(|_| {
                    maps_obs::warn_invalid_env(
                        "MAPS_FACTOR_CACHE",
                        v,
                        "a capacity integer, or off/false",
                    );
                    DEFAULT_CAPACITY
                })
            }
        }
        Err(_) => DEFAULT_CAPACITY,
    }
}

/// The process-wide factorization cache (capacity from `MAPS_FACTOR_CACHE`
/// at first use; adjustable later via [`FactorCache::set_capacity`]).
pub fn global() -> &'static FactorCache {
    static GLOBAL: OnceLock<FactorCache> = OnceLock::new();
    GLOBAL.get_or_init(|| FactorCache::new(capacity_from_env()))
}

/// One-call convenience over the [`global`] cache: fingerprint the inputs
/// and return the shared factorization, assembling and factoring on a miss.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the factorization.
pub fn factor(
    eps_r: &RealField2d,
    omega: f64,
    pml: &PmlConfig,
    assemble: impl FnOnce() -> BandedMatrix,
) -> Result<Arc<BandedLu>, LinalgError> {
    global().factorize_with(fingerprint(eps_r, omega, pml), assemble)
}

/// Like [`factor`], but also reports whether this call hit the cache, led
/// the factorization, or followed a concurrent leader — the signal `mapsd`
/// uses to account request-level coalescing.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the factorization.
pub fn factor_coalesced(
    eps_r: &RealField2d,
    omega: f64,
    pml: &PmlConfig,
    assemble: impl FnOnce() -> BandedMatrix,
) -> Result<(Arc<BandedLu>, FactorOutcome), LinalgError> {
    global().factorize_coalesced(fingerprint(eps_r, omega, pml), assemble)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::Grid2d;
    use maps_linalg::Complex64;

    fn toy_banded(seed: f64) -> BandedMatrix {
        let mut a = BandedMatrix::zeros(4, 1, 1);
        for i in 0..4 {
            a.set(i, i, Complex64::new(3.0 + seed, 0.2));
        }
        a
    }

    fn key_for(tag: f64) -> Fingerprint {
        let grid = Grid2d::new(3, 3, 0.1);
        let eps = RealField2d::constant(grid, tag);
        fingerprint(&eps, 4.0, &PmlConfig::default())
    }

    #[test]
    fn fingerprint_distinguishes_every_input() {
        let grid = Grid2d::new(8, 6, 0.1);
        let eps = RealField2d::constant(grid, 2.0);
        let pml = PmlConfig {
            thickness: 2,
            ..Default::default()
        };
        let base = fingerprint(&eps, 4.0, &pml);
        assert_eq!(base, fingerprint(&eps, 4.0, &pml), "deterministic");
        // One-ULP permittivity change.
        let mut eps2 = eps.clone();
        eps2.set(3, 3, f64::from_bits(2.0f64.to_bits() + 1));
        assert_ne!(base, fingerprint(&eps2, 4.0, &pml));
        // Frequency change.
        assert_ne!(base, fingerprint(&eps, 4.0 + 1e-12, &pml));
        // PML change.
        let pml2 = PmlConfig {
            thickness: 3,
            ..pml
        };
        assert_ne!(base, fingerprint(&eps, 4.0, &pml2));
        // Grid spacing change (same dims and values).
        let eps3 = RealField2d::constant(Grid2d::new(8, 6, 0.05), 2.0);
        assert_ne!(base, fingerprint(&eps3, 4.0, &pml));
        // Transposed dims with identical cell count.
        let eps4 = RealField2d::constant(Grid2d::new(6, 8, 0.1), 2.0);
        assert_ne!(base, fingerprint(&eps4, 4.0, &pml));
    }

    #[test]
    fn hit_returns_the_same_factorization() {
        let cache = FactorCache::new(2);
        let key = key_for(1.0);
        let a = cache.factorize_with(key, || toy_banded(0.0)).unwrap();
        let b = cache
            .factorize_with(key, || panic!("must not refactorize on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the factorization");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = FactorCache::new(2);
        let (k1, k2, k3) = (key_for(1.0), key_for(2.0), key_for(3.0));
        cache.factorize_with(k1, || toy_banded(0.1)).unwrap();
        cache.factorize_with(k2, || toy_banded(0.2)).unwrap();
        // Touch k1 so k2 is the LRU entry when k3 arrives.
        assert!(cache.get(&k1).is_some());
        cache.factorize_with(k3, || toy_banded(0.3)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&k1).is_some(), "recently used entry survives");
        assert!(cache.get(&k2).is_none(), "LRU entry was evicted");
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn capacity_zero_still_retains_the_last_factor() {
        let cache = FactorCache::new(0);
        let key = key_for(4.0);
        let a = cache.factorize_with(key, || toy_banded(0.0)).unwrap();
        // The immediately following lookup (the adjoint solve of the same
        // design) hits the last-factor slot.
        let b = cache
            .factorize_with(key, || panic!("adjoint must reuse the forward factor"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different design displaces it; the old key is gone.
        cache
            .factorize_with(key_for(5.0), || toy_banded(0.5))
            .unwrap();
        assert!(
            cache.get(&key).is_none(),
            "capacity 0 keeps only the last factor"
        );
        assert_eq!(
            cache.stats().evictions,
            0,
            "last-slot turnover is not an eviction"
        );
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let cache = FactorCache::new(3);
        for t in 0..3 {
            cache
                .factorize_with(key_for(10.0 + t as f64), || toy_banded(t as f64))
                .unwrap();
        }
        cache.set_capacity(1);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn clear_drops_everything() {
        let cache = FactorCache::new(2);
        let key = key_for(6.0);
        cache.factorize_with(key, || toy_banded(0.0)).unwrap();
        cache.clear();
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn scoped_capacity_restores_on_drop() {
        let cache = FactorCache::new(2);
        {
            let guard = cache.scoped_capacity(16);
            assert_eq!(cache.capacity(), 16);
            assert_eq!(guard.prior(), 2);
            for t in 0..5 {
                cache
                    .factorize_with(key_for(20.0 + t as f64), || toy_banded(t as f64))
                    .unwrap();
            }
            assert_eq!(cache.stats().evictions, 0, "raised ring holds all 5");
        }
        assert_eq!(cache.capacity(), 2, "guard restores the prior capacity");
        assert_eq!(cache.stats().evictions, 3, "restore evicts down to prior");
    }

    #[test]
    fn outcome_reports_hit_and_leader() {
        let cache = FactorCache::new(2);
        let key = key_for(7.0);
        let (a, first) = cache.factorize_coalesced(key, || toy_banded(0.0)).unwrap();
        assert_eq!(first, FactorOutcome::Leader);
        let (b, second) = cache
            .factorize_coalesced(key, || panic!("hit must not refactorize"))
            .unwrap();
        assert_eq!(second, FactorOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().coalesced, 0);
    }

    #[test]
    fn stampede_elects_one_leader_and_shares_the_factor() {
        let cache = FactorCache::new(4);
        let key = key_for(8.0);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let factorizations = AtomicU64::new(0);
        let outcomes: Vec<(FactorOutcome, Arc<BandedLu>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (lu, outcome) = cache
                            .factorize_coalesced(key, || {
                                factorizations.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window so followers really
                                // do arrive while the leader is working.
                                std::thread::sleep(std::time::Duration::from_millis(30));
                                toy_banded(0.0)
                            })
                            .unwrap();
                        (outcome, lu)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            factorizations.load(Ordering::Relaxed),
            1,
            "exactly one thread may factorize"
        );
        let leaders = outcomes
            .iter()
            .filter(|(o, _)| *o == FactorOutcome::Leader)
            .count();
        assert_eq!(leaders, 1);
        let reference = &outcomes[0].1;
        for (_, lu) in &outcomes {
            assert!(Arc::ptr_eq(reference, lu), "all threads share one factor");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(
            stats.coalesced + stats.hits,
            threads as u64 - 1,
            "everyone but the leader followed or hit"
        );
    }

    #[test]
    fn leader_failure_propagates_to_followers() {
        let cache = FactorCache::new(2);
        let key = key_for(9.0);
        // A singular matrix: the leader's factorization fails and every
        // follower must see that failure instead of hanging.
        let singular = || BandedMatrix::zeros(4, 1, 1);
        let barrier = std::sync::Barrier::new(3);
        let errors: Vec<LinalgError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache
                            .factorize_coalesced(key, || {
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                singular()
                            })
                            .unwrap_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(errors.len(), 3);
        for e in &errors {
            assert!(
                matches!(e, LinalgError::Singular { .. }),
                "followers see the leader's error: {e:?}"
            );
        }
        assert!(cache.get(&key).is_none(), "failures are not cached");
    }

    #[test]
    fn leader_panic_releases_followers_with_aborted() {
        let cache = Arc::new(FactorCache::new(2));
        let key = key_for(10.0);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let follower = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait(); // leader is inside its assemble closure
                cache.factorize_coalesced(key, || toy_banded(0.0))
            })
        };
        let leader = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = cache.factorize_coalesced(key, || {
                    gate.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("injected leader panic");
                });
            })
        };
        assert!(leader.join().is_err(), "leader thread must have panicked");
        match follower.join().unwrap() {
            // The follower either joined the doomed flight (Aborted) or
            // arrived after deregistration and factorized on its own.
            Err(LinalgError::Aborted { .. }) => {}
            Ok((_, FactorOutcome::Leader)) => {}
            other => panic!("unexpected follower outcome: {other:?}"),
        }
    }
}
