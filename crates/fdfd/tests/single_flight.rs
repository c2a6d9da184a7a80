//! Concurrency pin for single-flight factorization coalescing.
//!
//! Hammers a factor cache from many threads with overlapping fingerprints
//! and asserts — via the span recorder, which only sees a `fdfd.factorize`
//! span from an actual leader — that no fingerprint is ever factorized
//! twice, no matter how the threads interleave.
//!
//! This file intentionally holds a single `#[test]`: the span recorder is
//! process-global, and a sibling test emitting `fdfd.factorize` spans in
//! parallel would poison the count.

use maps_core::{Grid2d, RealField2d};
use maps_fdfd::factor_cache::{fingerprint, FactorCache, Fingerprint};
use maps_fdfd::{FactorOutcome, PmlConfig, SymmetricOperator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn key_for(tag: f64) -> Fingerprint {
    let grid = Grid2d::new(4, 4, 0.1);
    let eps = RealField2d::constant(grid, tag);
    fingerprint(&eps, 4.0, &PmlConfig::default())
}

/// A 3×2-cell operator without PML: a factor small enough to build on
/// every thread.
fn toy_operator(seed: f64) -> SymmetricOperator {
    let eps = RealField2d::constant(Grid2d::new(3, 2, 1.0), 5.0 + seed);
    let no_pml = PmlConfig {
        thickness: 0,
        ..PmlConfig::default()
    };
    SymmetricOperator::new(&eps, 1.0, &no_pml)
}

#[test]
fn hammered_cache_never_double_factorizes() {
    maps_obs::recorder::enable();
    let cache = Arc::new(FactorCache::new(8));
    let distinct = 3usize;
    let threads = 12usize;
    let rounds = 5usize;
    let keys: Vec<Fingerprint> = (0..distinct).map(|t| key_for(10.0 + t as f64)).collect();
    let barrier = Arc::new(Barrier::new(threads));
    let assembled = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for worker in 0..threads {
            let cache = Arc::clone(&cache);
            let keys = keys.clone();
            let barrier = Arc::clone(&barrier);
            let assembled = Arc::clone(&assembled);
            s.spawn(move || {
                barrier.wait();
                for round in 0..rounds {
                    // Each worker walks the key set with a different phase,
                    // so every round overlaps different fingerprints across
                    // threads.
                    let key = keys[(worker + round) % keys.len()];
                    let seed = 10.0 + ((worker + round) % keys.len()) as f64;
                    let (factor, outcome) = cache
                        .factorize_coalesced(key, || {
                            assembled.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open long enough for peers to
                            // pile in behind the leader.
                            std::thread::sleep(std::time::Duration::from_millis(15));
                            toy_operator(seed)
                        })
                        .expect("factorize");
                    assert!(matches!(
                        outcome,
                        FactorOutcome::Hit | FactorOutcome::Leader | FactorOutcome::Follower
                    ));
                    std::hint::black_box(&factor);
                }
            });
        }
    });

    // Exactly one assembly per distinct fingerprint, and exactly one
    // `fdfd.factorize` span each (followers and hits emit none).
    assert_eq!(
        assembled.load(Ordering::Relaxed),
        distinct as u64,
        "each fingerprint must be assembled exactly once"
    );
    let spans = maps_obs::recorder::take();
    let factorize_spans = spans.iter().filter(|s| s.name == "fdfd.factorize").count();
    assert_eq!(
        factorize_spans, distinct,
        "span recorder must see one fdfd.factorize per distinct fingerprint"
    );

    let stats = cache.stats();
    assert_eq!(stats.misses, distinct as u64, "one leader per fingerprint");
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        (threads * rounds) as u64,
        "every lookup is a hit, a leader, or a follower"
    );
    assert!(
        stats.coalesced > 0,
        "with {threads} threads over {distinct} keys some lookups must coalesce"
    );
}
