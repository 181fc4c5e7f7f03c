//! Fingerprint-keyed result cache.
//!
//! Keyed by [`JobConfig::cache_key`](crate::config::JobConfig::cache_key)
//! — the FNV-1a hash of the canonical *problem* description. Because runs
//! are bitwise reproducible across any execution geometry, a key hit
//! guarantees the stored solution fingerprint is exactly what a fresh run
//! would produce, so hits are served with zero recompute.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use vibe_prof::JobCycleMetric;

/// The cached outcome of one completed job.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// FNV-1a fingerprint of the final merged solution.
    pub fingerprint: u64,
    /// Final simulation time.
    pub time: f64,
    /// Final timestep.
    pub dt: f64,
    /// Cycles the producing run advanced.
    pub cycles: u64,
    /// The producing job's per-cycle metrics; a hit re-serves them under
    /// its own job id.
    pub metrics: Vec<JobCycleMetric>,
}

/// Thread-safe result cache with hit/miss counters.
#[derive(Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<u64, CachedResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, recovered from a poisoned lock: every update is one
    /// map operation, so a panic while it was held left the map whole.
    fn entries(&self) -> MutexGuard<'_, HashMap<u64, CachedResult>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, counting the outcome.
    pub fn lookup(&self, key: u64) -> Option<CachedResult> {
        let hit = self.entries().get(&key).cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a completed result. First write wins: concurrent producers
    /// of the same key computed bitwise-identical results, so keeping the
    /// incumbent is equivalent and keeps re-served bytes stable.
    pub fn insert(&self, key: u64, result: CachedResult) {
        self.entries().entry(key).or_insert(result);
    }

    /// (hits, misses, entries) since construction.
    pub fn stats(&self) -> (u64, u64, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.entries().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(fp: u64) -> CachedResult {
        CachedResult {
            fingerprint: fp,
            time: 1.0,
            dt: 0.1,
            cycles: 4,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = ResultCache::new();
        assert!(c.lookup(7).is_none());
        c.insert(7, result(42));
        assert_eq!(c.lookup(7).unwrap().fingerprint, 42);
        assert!(c.lookup(8).is_none());
        assert_eq!(c.stats(), (1, 2, 1));
    }

    #[test]
    fn first_insert_wins() {
        let c = ResultCache::new();
        c.insert(1, result(10));
        c.insert(1, result(11));
        assert_eq!(c.lookup(1).unwrap().fingerprint, 10);
    }
}
