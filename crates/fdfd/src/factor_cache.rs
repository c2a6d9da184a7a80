//! Factorization reuse: one direct-solver factor per (design, frequency,
//! PML).
//!
//! The `L·Δ·Lᵀ` factorization of the symmetrized operator is `O(n·nx²)`,
//! the dominant cost of every direct solve, while a substitution sweep is
//! only `O(n·nx)`. Forward, adjoint, repeated monitor, and S-parameter
//! solves against the *same* discretized operator therefore want to share
//! one factorization. This module provides that sharing, and it owns the
//! assembly: [`factor`] and [`factor_coalesced`] take (ε, ω, PML) and
//! assemble the operator themselves, so no caller builds a band.
//!
//! - a cheap 128-bit [`Fingerprint`] of the operator inputs (permittivity
//!   bits, `omega`, grid dims, spacing, PML config) identifies "the same
//!   operator" without retaining the inputs;
//! - a process-wide [`FactorCache`] maps fingerprints to
//!   `Arc<SymmetricFactor>` in one LRU ring of bounded capacity. The
//!   capacity is at least 1, so the cache always retains the **most
//!   recent** factorization, and an adjoint solve immediately following the
//!   forward solve of the same design reuses its factor even at
//!   `MAPS_FACTOR_CACHE=0`. A leader that is about to build a factor into a
//!   full ring evicts the least-recently-used entry first, so a miss never
//!   holds more than `capacity` factors;
//! - **single-flight coalescing** ([`FactorCache::factorize_coalesced`]):
//!   concurrent misses of the same fingerprint elect one leader to
//!   factorize while followers wait and share the result — the mechanism a
//!   multi-client solve service (`mapsd`) relies on to answer a stampede of
//!   identical designs with one factorization. The in-flight registry sits
//!   beside the ring under the cache's one mutex, so a leader registers in
//!   the same critical section as its hit check; no lock is held while it
//!   factorizes, and concurrent leaders are at most the worker threads;
//! - **failure memory**: the cache remembers the most recent build that
//!   failed with [`LinalgError::Singular`], and a lookup of that
//!   fingerprint returns the same error without assembling, so a retry of
//!   a singular operator does not repeat its factorization.
//!
//! - **exterior reuse**: a leader resumes from a **donor**, the most
//!   recently used cached factor of the same (grid, ω, PML). The two
//!   stencils' bits give the first and last cells that differ, and each
//!   half of the twisted factorization keeps the donor's columns outside
//!   them and eliminates only the rows around the design window
//!   ([`SymmetricOperator`]'s `factorize_from`). The leader picks its donor
//!   before it evicts, then builds in the evicted entry's storage when
//!   nothing else holds it; an evicted entry built on the donor's seams
//!   already holds the exterior, so the steady inverse-design loop copies
//!   and allocates nothing for it.
//!
//! Reuse is bit-identical by construction: a hit returns the *same*
//! factorization a cold call would recompute (the factorization is a
//! deterministic function of the fingerprinted inputs), and a resumed
//! build computes the same bits as a cold one, because every column it
//! takes from the donor depends only on cells the two stencils share. So
//! forward and adjoint solves produce exactly the same bits whatever the
//! cache held.
//!
//! Telemetry: `fdfd.factor_cache.{hit,miss,evict}` counters in the
//! [`maps_obs`] global registry, plus per-instance [`CacheStats`]; the
//! leader's `fdfd.factorize` span carries `eliminated` and `reused`
//! columns, and the `fdfd.factorize.resumed` counter counts builds that
//! reused any.
//!
//! The capacity knob is the `MAPS_FACTOR_CACHE` environment variable:
//! unset/empty keeps the default (4 entries), `0`/`off` keeps only the
//! most recent factor (capacity 1), any other integer sets the capacity.
//! A cached factor for an `nx × ny` grid holds at most
//! [`factor_bytes`](crate::operator::factor_bytes)`(nx, ny)` bytes (~8.9 MB
//! at the default 80×80 device grid), so capacities stay small.

use crate::operator::{SymmetricFactor, SymmetricOperator};
use crate::pml::PmlConfig;
use maps_core::RealField2d;
use maps_linalg::LinalgError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default LRU capacity when `MAPS_FACTOR_CACHE` is unset.
pub const DEFAULT_CAPACITY: usize = 4;

/// A cheap identity of one assembled Helmholtz operator.
///
/// Two independent 64-bit lanes over the raw bit patterns of every input
/// that reaches the operator assembly: permittivity cells, `omega`, grid
/// dims and spacing, and the PML configuration. Each lane folds in one
/// 64-bit word per step (xor into the state, then a 64×64→128-bit multiply
/// by the lane's odd constant folded by xor, a step in which every input
/// bit reaches every output bit), so the state depends on the words' order
/// and on every bit of each. With 128 hash bits, an accidental collision
/// between two *distinct* operators in a cache of single-digit capacity is
/// vanishingly unlikely (birthday bound ≪ 1e-30), and any intentional
/// inputs that differ in even one bit fingerprint differently — which is
/// exactly the invalidation rule bit-identical reuse needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    h: [u64; 2],
    cells: usize,
    /// Lane A's digest of the inputs before the permittivity: the
    /// (grid, ω, PML) a donor must share.
    shape: u64,
}

impl Fingerprint {
    /// The 128-bit digest as 32 hex chars — the stable operator identity
    /// traces and logs use to say *which* factorization a span computed.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.h[0], self.h[1])
    }
}

/// Each lane's seed and odd multiplier; the two lanes share neither, so
/// their digests are independent functions of the input stream.
const LANES: [(u64, u64); 2] = [
    (0xCBF2_9CE4_8422_2325, 0xA076_1D64_78BD_642F),
    (0x6C62_272E_07BB_0142, 0xE703_7ED1_A0B4_28DB),
];

#[derive(Clone, Copy)]
struct Hasher2([u64; 2]);

impl Hasher2 {
    fn new() -> Self {
        Hasher2(LANES.map(|(seed, _)| seed))
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        for (h, (_, k)) in self.0.iter_mut().zip(LANES) {
            let p = u128::from(*h ^ v) * u128::from(k);
            *h = (p as u64) ^ ((p >> 64) as u64);
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
    let mut h = Hasher2::new();
    h.write_u64(grid.nx as u64);
    h.write_u64(grid.ny as u64);
    h.write_f64(grid.dl);
    h.write_f64(omega);
    h.write_u64(pml.thickness as u64);
    h.write_f64(pml.order);
    h.write_f64(pml.target_reflection);
    let shape = h.0[0];
    for v in eps_r.as_slice() {
        h.write_f64(*v);
    }
    Fingerprint {
        h: h.0,
        cells: grid.len(),
        shape,
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
    /// Misses whose factorization took columns from a donor's exterior
    /// instead of eliminating every column.
    pub resumed: u64,
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
    slot: Mutex<Option<Result<Arc<SymmetricFactor>, LinalgError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<SymmetricFactor>, LinalgError>) {
        let mut slot = self.slot.lock().expect("flight slot");
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<SymmetricFactor>, LinalgError> {
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
struct FlightGuard<'a> {
    inner: &'a Mutex<Inner>,
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
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.flights.retain(|(k, _)| *k != self.key);
    }
}

struct Entry {
    key: Fingerprint,
    factor: Arc<SymmetricFactor>,
    used: u64,
}

struct Inner {
    ring: Vec<Entry>,
    /// At least 1: the most recently used entry is never evicted, so
    /// forward → adjoint pairs on one design share a factor at every
    /// capacity.
    capacity: usize,
    clock: u64,
    /// The most recent build that failed with [`LinalgError::Singular`].
    /// The error is a deterministic function of the fingerprinted inputs
    /// (a resumed build fails exactly like a cold one), so it stands for
    /// every later build of the same key.
    failed: Option<(Fingerprint, LinalgError)>,
    /// The in-flight factorizations, one per leader.
    flights: Vec<(Fingerprint, Arc<Flight>)>,
}

impl Inner {
    /// The cached factor of `key`, marked most recently used.
    fn touch(&mut self, key: &Fingerprint) -> Option<Arc<SymmetricFactor>> {
        self.clock += 1;
        let now = self.clock;
        let e = self.ring.iter_mut().find(|e| e.key == *key)?;
        e.used = now;
        Some(Arc::clone(&e.factor))
    }
}

/// A bounded LRU cache of direct-solver factorizations.
///
/// The process-wide instance is [`global`]; independent instances are
/// constructible for tests and special-purpose pipelines.
pub struct FactorCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
    resumed: AtomicU64,
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
    /// Creates a cache with an LRU ring of `capacity` entries (0 means 1:
    /// the most recent factor is always kept).
    pub fn new(capacity: usize) -> Self {
        FactorCache {
            inner: Mutex::new(Inner {
                ring: Vec::new(),
                capacity: capacity.max(1),
                clock: 0,
                failed: None,
                flights: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
        }
    }

    /// Current LRU capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("factor cache lock").capacity
    }

    /// Resizes the LRU ring, evicting least-recently-used entries if the
    /// new capacity is smaller (0 means 1, as in [`FactorCache::new`]).
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.capacity = capacity.max(1);
        let capacity = inner.capacity;
        self.evict_to(&mut inner, capacity);
    }

    /// Drops every cached factorization and the remembered failure,
    /// without touching the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.ring.clear();
        inner.failed = None;
    }

    /// Instance counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
        }
    }

    /// Looks up a factorization without counting a miss (used by
    /// [`FactorCache::factorize_with`]; exposed for diagnostics).
    pub fn get(&self, key: &Fingerprint) -> Option<Arc<SymmetricFactor>> {
        self.inner.lock().expect("factor cache lock").touch(key)
    }

    /// Inserts a factorization, evicting the least-recently-used ring entry
    /// when over capacity.
    pub fn insert(&self, key: Fingerprint, factor: Arc<SymmetricFactor>) {
        let mut inner = self.inner.lock().expect("factor cache lock");
        inner.clock += 1;
        let now = inner.clock;
        if let Some(e) = inner.ring.iter_mut().find(|e| e.key == key) {
            e.used = now;
            e.factor = factor;
            return;
        }
        let room = inner.capacity - 1;
        self.evict_to(&mut inner, room);
        inner.ring.push(Entry {
            key,
            factor,
            used: now,
        });
    }

    /// Evicts least-recently-used entries until at most `len` remain,
    /// returning their factors.
    fn evict_to(&self, inner: &mut Inner, len: usize) -> Vec<Arc<SymmetricFactor>> {
        let mut evicted = Vec::new();
        while inner.ring.len() > len {
            evicted.extend(evict_lru(inner));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("fdfd.factor_cache.evict").inc();
        }
        evicted
    }

    /// The factorization for `key`, computing it with `assemble` +
    /// [`SymmetricOperator::factorize`] on a miss. See
    /// [`FactorCache::factorize_coalesced`] for the concurrency contract.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the factorization.
    pub fn factorize_with(
        &self,
        key: Fingerprint,
        assemble: impl FnOnce() -> SymmetricOperator,
    ) -> Result<Arc<SymmetricFactor>, LinalgError> {
        self.factorize_coalesced(key, assemble)
            .map(|(factor, _)| factor)
    }

    /// Single-flight factorization: concurrent misses of the same `key`
    /// elect one **leader** that assembles and factorizes; every concurrent
    /// **follower** blocks until the leader publishes and then shares the
    /// same `Arc<SymmetricFactor>`. A `N`-way stampede on one fingerprint
    /// therefore costs exactly one `O(n·b²)` factorization instead of `N`.
    /// A leader takes the most recently used factor of the same (grid, ω,
    /// PML) as its donor, then, facing a full ring, evicts the
    /// least-recently-used entry before it assembles, so the new factor
    /// never coexists with `capacity` cached ones. It resumes from the
    /// donor and builds in the evicted entry's storage when nothing else
    /// holds it (the donor itself at capacity 1).
    ///
    /// Only the leader emits the `fdfd.factorize` span, so span-recorder
    /// tests can count actual factorizations. A leader that fails (or
    /// panics) publishes the failure to its followers — the error is a
    /// deterministic function of the fingerprinted inputs, so re-running it
    /// per follower would only repeat the same failure N times. For the
    /// same reason the cache remembers the most recent
    /// [`LinalgError::Singular`] failure, and a later call with its key
    /// (a retry) returns that error as a hit, without assembling. A leader
    /// that panicked is not remembered: its followers get
    /// [`LinalgError::Aborted`], and the next call elects a new leader.
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
        assemble: impl FnOnce() -> SymmetricOperator,
    ) -> Result<(Arc<SymmetricFactor>, FactorOutcome), LinalgError> {
        // One critical section answers a hit (a cached factor, or the error
        // of the key's most recent failed build), joins a leader's flight,
        // or registers this call as the leader, picks its donor and makes
        // room for its factor.
        let (flight, donor, evicted) = {
            let mut inner = self.inner.lock().expect("factor cache lock");
            let hit = match inner.touch(&key) {
                Some(factor) => Some(Ok((factor, FactorOutcome::Hit))),
                None => inner
                    .failed
                    .as_ref()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, e)| Err(e.clone())),
            };
            if let Some(hit) = hit {
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                maps_obs::counter("fdfd.factor_cache.hit").inc();
                return hit;
            }
            if let Some((_, leader)) = inner.flights.iter().find(|(k, _)| *k == key) {
                // Follower: wait for the leader's published result.
                let leader = Arc::clone(leader);
                drop(inner);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                maps_obs::counter("fdfd.factor_cache.coalesce.follower").inc();
                return leader
                    .wait()
                    .map(|factor| (factor, FactorOutcome::Follower));
            }
            let flight = Arc::new(Flight::new());
            inner.flights.push((key, Arc::clone(&flight)));
            let donor = inner
                .ring
                .iter()
                .filter(|e| e.key.shape == key.shape)
                .max_by_key(|e| e.used)
                .map(|e| Arc::clone(&e.factor));
            let room = inner.capacity - 1;
            (flight, donor, self.evict_to(&mut inner, room))
        };
        // Leader: factorize outside the lock, publish, then deregister.
        let mut guard = FlightGuard {
            inner: &self.inner,
            key,
            flight: &flight,
            published: false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        maps_obs::counter("fdfd.factor_cache.miss").inc();
        maps_obs::counter("fdfd.factor_cache.coalesce.leader").inc();
        let result = {
            let mut span = maps_obs::span("fdfd.factorize")
                .field("cells", key.cells)
                .field("fingerprint", key.hex());
            let op = assemble();
            let cells = op.grid().len();
            // Storage to build in: an evicted entry nothing else holds. When
            // it is the donor, it is read from in place.
            let (donor, spare) = match (donor, evicted.into_iter().next()) {
                (Some(d), Some(e)) if Arc::ptr_eq(&d, &e) => {
                    drop(e);
                    match Arc::try_unwrap(d) {
                        Ok(owned) => (None, Some(owned)),
                        Err(d) => (Some(d), None),
                    }
                }
                (d, e) => (d, e.and_then(|e| Arc::try_unwrap(e).ok())),
            };
            op.factorize_from(donor.as_deref(), spare)
                .map(|(factor, reused)| {
                    span.add_field("eliminated", cells - reused);
                    span.add_field("reused", reused);
                    if reused > 0 {
                        self.resumed.fetch_add(1, Ordering::Relaxed);
                        maps_obs::counter("fdfd.factorize.resumed").inc();
                    }
                    Arc::new(factor)
                })
        };
        match &result {
            Ok(factor) => self.insert(key, Arc::clone(factor)),
            Err(e @ LinalgError::Singular { .. }) => {
                self.inner.lock().expect("factor cache lock").failed = Some((key, e.clone()));
            }
            Err(_) => {}
        }
        flight.publish(result.clone());
        guard.published = true;
        drop(guard);
        result.map(|factor| (factor, FactorOutcome::Leader))
    }
}

fn evict_lru(inner: &mut Inner) -> Option<Arc<SymmetricFactor>> {
    let pos = inner
        .ring
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.used)
        .map(|(i, _)| i)?;
    Some(inner.ring.swap_remove(pos).factor)
}

/// Parses the `MAPS_FACTOR_CACHE` knob into an LRU capacity. The `off` /
/// `false` aliases mean capacity 0 (which the cache floors at 1); an
/// unparseable value warns once via
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
/// and return the shared factorization, assembling the symmetrized operator
/// and factoring it on a miss.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the factorization.
pub fn factor(
    eps_r: &RealField2d,
    omega: f64,
    pml: &PmlConfig,
) -> Result<Arc<SymmetricFactor>, LinalgError> {
    factor_coalesced(eps_r, omega, pml).map(|(factor, _)| factor)
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
) -> Result<(Arc<SymmetricFactor>, FactorOutcome), LinalgError> {
    global().factorize_coalesced(fingerprint(eps_r, omega, pml), || {
        SymmetricOperator::new(eps_r, omega, pml)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::Grid2d;

    const NO_PML: PmlConfig = PmlConfig {
        thickness: 0,
        order: 3.0,
        target_reflection: 1e-8,
    };

    /// A 2×2-cell operator without PML, diagonally dominant for
    /// `seed ≥ 0`: a factor small enough to build in every test.
    fn toy_operator(seed: f64) -> SymmetricOperator {
        let eps = RealField2d::constant(Grid2d::new(2, 2, 1.0), 3.0 + seed);
        SymmetricOperator::new(&eps, 2.0, &NO_PML)
    }

    /// `ω²·ε·dl² = 4` cancels the four unit couplings of cell 0's diagonal:
    /// an exactly zero first pivot.
    fn singular_operator() -> SymmetricOperator {
        let eps = RealField2d::constant(Grid2d::new(2, 2, 1.0), 1.0);
        SymmetricOperator::new(&eps, 2.0, &NO_PML)
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
        // Sign-bit flips at one cell, at another, and at both.
        let flipped = |cells: &[(usize, usize)]| {
            let mut e = eps.clone();
            for &(ix, iy) in cells {
                e.set(ix, iy, -e.get(ix, iy));
            }
            fingerprint(&e, 4.0, &pml)
        };
        let flips = [
            base,
            flipped(&[(1, 2)]),
            flipped(&[(5, 4)]),
            flipped(&[(1, 2), (5, 4)]),
        ];
        for (i, a) in flips.iter().enumerate() {
            for b in &flips[i + 1..] {
                assert_ne!(a, b, "sign flips");
            }
        }
        // Two cells' values swapped.
        let mut eps5 = eps.clone();
        eps5.set(2, 1, 3.0);
        let mut eps6 = eps5.clone();
        eps6.set(2, 1, 2.0);
        eps6.set(6, 3, 3.0);
        assert_ne!(fingerprint(&eps5, 4.0, &pml), fingerprint(&eps6, 4.0, &pml));
        // +0.0 against −0.0 in one cell.
        let mut eps7 = eps.clone();
        eps7.set(4, 2, 0.0);
        let mut eps8 = eps.clone();
        eps8.set(4, 2, -0.0);
        assert_ne!(fingerprint(&eps7, 4.0, &pml), fingerprint(&eps8, 4.0, &pml));
    }

    const WINDOW_PML: PmlConfig = PmlConfig {
        thickness: 2,
        order: 3.0,
        target_reflection: 1e-8,
    };

    /// A 12×9 grid with a 2-cell PML, ε `value` in the design window
    /// `(4..8, 3..6)` and 2.25 elsewhere: designs whose factors share both
    /// halves' exterior.
    fn windowed(value: f64) -> RealField2d {
        let mut eps = RealField2d::constant(Grid2d::new(12, 9, 0.1), 2.25);
        for iy in 3..6 {
            for ix in 4..8 {
                eps.set(ix, iy, value);
            }
        }
        eps
    }

    fn build(cache: &FactorCache, eps: &RealField2d) -> Arc<SymmetricFactor> {
        cache
            .factorize_with(fingerprint(eps, 4.0, &WINDOW_PML), || {
                SymmetricOperator::new(eps, 4.0, &WINDOW_PML)
            })
            .unwrap()
    }

    fn cold(eps: &RealField2d) -> SymmetricFactor {
        SymmetricOperator::new(eps, 4.0, &WINDOW_PML)
            .factorize()
            .unwrap()
    }

    /// Capacity 1: the donor is the evicted entry. With nothing else
    /// holding it the new factor is built in its storage; held elsewhere,
    /// it is copied from. Either way the factor equals a cold build.
    #[test]
    fn capacity_one_resumes_from_the_evicted_donor() {
        let cache = FactorCache::new(1);
        build(&cache, &windowed(3.0));
        build(&cache, &windowed(5.0));
        let held = build(&cache, &windowed(7.0));
        held.assert_same_bits(&cold(&windowed(7.0)), "built in the donor");
        let copied = build(&cache, &windowed(9.0));
        copied.assert_same_bits(&cold(&windowed(9.0)), "copied from a held donor");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.evictions, stats.resumed), (4, 3, 2));
    }

    /// A leader's donor that a concurrent leader evicts mid-build stays
    /// alive for the build, which still equals a cold one.
    #[test]
    fn donor_evicted_by_a_concurrent_leader_still_serves() {
        let cache = FactorCache::new(2);
        build(&cache, &windowed(3.0));
        let donor = windowed(5.0);
        build(&cache, &donor);
        let donor = fingerprint(&donor, 4.0, &WINDOW_PML);
        cache
            .factorize_with(key_for(1.0), || toy_operator(0.1))
            .unwrap();
        assert!(cache.get(&donor).is_some(), "the donor is the most recent");
        let eps = windowed(7.0);
        let f = cache
            .factorize_with(fingerprint(&eps, 4.0, &WINDOW_PML), || {
                // This leader took its donor and evicted the toy factor;
                // two more leaders refill the ring and evict the donor.
                cache
                    .factorize_with(key_for(2.0), || toy_operator(0.2))
                    .unwrap();
                cache
                    .factorize_with(key_for(3.0), || toy_operator(0.3))
                    .unwrap();
                assert!(cache.get(&donor).is_none(), "the donor was evicted");
                SymmetricOperator::new(&eps, 4.0, &WINDOW_PML)
            })
            .unwrap();
        f.assert_same_bits(&cold(&eps), "evicted donor");
        assert_eq!(cache.stats().resumed, 1);
    }

    /// A 1×12 chain without PML at ω = dl = 1: cell `k`'s diagonal is
    /// `ε_k − 3` (`ε − 2` in the last cell) and its coupling 1, so leading
    /// diagonals 1, 2, 2, 2 eliminate to pivots 1, 1, 1, 1, and a next
    /// diagonal of 1 to an exactly zero pivot. Cells 0..4 lead the top
    /// half to cell 4 and cells 11..8 the bottom half to cell 8. Designs
    /// that differ only in that cell resume from the seams of the design
    /// before, and the one whose pivot there is zero fails at the cell a
    /// cold build reports.
    #[test]
    fn singular_pivot_in_the_redone_rows_reports_the_cold_index() {
        let chain = |top: f64, bottom: f64| {
            let values = [
                4.0, 5.0, 5.0, 5.0, top, 6.0, 6.0, 6.0, bottom, 5.0, 5.0, 3.0,
            ];
            let mut eps = RealField2d::constant(Grid2d::new(1, 12, 1.0), 0.0);
            for (iy, v) in values.into_iter().enumerate() {
                eps.set(0, iy, v);
            }
            eps
        };
        for (cell, seams, designs) in [
            (
                4,
                [Some(3), Some(4)],
                [4.25, 4.5, 4.0].map(|v| chain(v, 4.5)),
            ),
            (
                8,
                [Some(5), Some(2)],
                [4.25, 4.5, 4.0].map(|v| chain(4.5, v)),
            ),
        ] {
            let cache = FactorCache::new(4);
            let key = |eps: &RealField2d| fingerprint(eps, 1.0, &NO_PML);
            let op = |eps: &RealField2d| SymmetricOperator::new(eps, 1.0, &NO_PML);
            cache
                .factorize_with(key(&designs[0]), || op(&designs[0]))
                .unwrap();
            let donor = cache
                .factorize_with(key(&designs[1]), || op(&designs[1]))
                .unwrap();
            assert_eq!(donor.seam_columns(), seams, "cell {cell}: donor seams");
            let singular = LinalgError::Singular { index: cell };
            assert_eq!(op(&designs[2]).factorize().unwrap_err(), singular);
            let resumed = cache.factorize_with(key(&designs[2]), || op(&designs[2]));
            assert_eq!(resumed.unwrap_err(), singular, "cell {cell}: resumed");
        }
    }

    #[test]
    fn hit_returns_the_same_factorization() {
        let cache = FactorCache::new(2);
        let key = key_for(1.0);
        let a = cache.factorize_with(key, || toy_operator(0.0)).unwrap();
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
        cache.factorize_with(k1, || toy_operator(0.1)).unwrap();
        cache.factorize_with(k2, || toy_operator(0.2)).unwrap();
        // Touch k1 so k2 is the LRU entry when k3 arrives.
        assert!(cache.get(&k1).is_some());
        cache.factorize_with(k3, || toy_operator(0.3)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&k1).is_some(), "recently used entry survives");
        assert!(cache.get(&k2).is_none(), "LRU entry was evicted");
        assert!(cache.get(&k3).is_some());
    }

    /// A leader facing a full ring evicts the least-recently-used entry
    /// before it assembles, so a miss never holds `capacity + 1` factors.
    #[test]
    fn leader_makes_room_before_it_assembles() {
        let cache = FactorCache::new(2);
        let (k1, k2, k3) = (key_for(1.0), key_for(2.0), key_for(3.0));
        cache.factorize_with(k1, || toy_operator(0.1)).unwrap();
        cache.factorize_with(k2, || toy_operator(0.2)).unwrap();
        cache
            .factorize_with(k3, || {
                assert!(cache.get(&k1).is_none(), "k1 must be gone before assembly");
                assert_eq!(cache.stats().evictions, 1);
                toy_operator(0.3)
            })
            .unwrap();
        assert!(cache.get(&k2).is_some() && cache.get(&k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_zero_still_retains_the_last_factor() {
        let cache = FactorCache::new(0);
        assert_eq!(cache.capacity(), 1, "capacity 0 is floored at 1");
        let key = key_for(4.0);
        let a = cache.factorize_with(key, || toy_operator(0.0)).unwrap();
        // The immediately following lookup (the adjoint solve of the same
        // design) hits the one retained factor.
        let b = cache
            .factorize_with(key, || panic!("adjoint must reuse the forward factor"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different design displaces it; the old key is gone.
        cache
            .factorize_with(key_for(5.0), || toy_operator(0.5))
            .unwrap();
        assert!(
            cache.get(&key).is_none(),
            "capacity 0 keeps only the last factor"
        );
        assert_eq!(
            cache.stats().evictions,
            1,
            "turnover of the one slot is an eviction"
        );
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let cache = FactorCache::new(3);
        for t in 0..3 {
            cache
                .factorize_with(key_for(10.0 + t as f64), || toy_operator(t as f64))
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
        cache.factorize_with(key, || toy_operator(0.0)).unwrap();
        cache.clear();
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn outcome_reports_hit_and_leader() {
        let cache = FactorCache::new(2);
        let key = key_for(7.0);
        let (a, first) = cache
            .factorize_coalesced(key, || toy_operator(0.0))
            .unwrap();
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
        let outcomes: Vec<(FactorOutcome, Arc<SymmetricFactor>)> = std::thread::scope(|s| {
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
                                toy_operator(0.0)
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
        let singular = singular_operator;
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
        assert!(cache.get(&key).is_none(), "a failed build caches no factor");
    }

    /// A retry of a singular operator gets the remembered error without
    /// assembling again; `clear` forgets it.
    #[test]
    fn singular_failure_is_remembered_until_cleared() {
        let cache = FactorCache::new(2);
        let key = key_for(11.0);
        let assembled = AtomicU64::new(0);
        let lookup = || {
            cache
                .factorize_with(key, || {
                    assembled.fetch_add(1, Ordering::Relaxed);
                    singular_operator()
                })
                .unwrap_err()
        };
        let (first, retry) = (lookup(), lookup());
        assert_eq!(first, LinalgError::Singular { index: 0 });
        assert_eq!(retry, first, "the retry returns the same error");
        assert_eq!(assembled.load(Ordering::Relaxed), 1, "assembled once");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // A success under another key keeps the failure remembered.
        cache
            .factorize_with(key_for(12.0), || toy_operator(0.0))
            .unwrap();
        assert_eq!(lookup(), first);
        assert_eq!(assembled.load(Ordering::Relaxed), 1);
        cache.clear();
        assert_eq!(lookup(), first);
        assert_eq!(assembled.load(Ordering::Relaxed), 2, "clear forgets it");
    }

    /// A leader that panics leaves nothing behind: the next call with its
    /// key assembles and factorizes as a new leader.
    #[test]
    fn panicked_leader_is_not_remembered() {
        let cache = FactorCache::new(2);
        let key = key_for(13.0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.factorize_with(key, || panic!("injected leader panic"))
        }));
        assert!(panicked.is_err(), "the leader panicked");
        let (_, outcome) = cache
            .factorize_coalesced(key, || toy_operator(0.0))
            .expect("a new leader factorizes");
        assert_eq!(outcome, FactorOutcome::Leader);
        assert_eq!(cache.stats().misses, 2);
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
                cache.factorize_coalesced(key, || toy_operator(0.0))
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
