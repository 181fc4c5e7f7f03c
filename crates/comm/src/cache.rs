//! Boundary buffer caches: the serial bookkeeping around communication.
//!
//! Parthenon's `InitializeBufferCache` iterates all mesh boundaries and
//! *sorts and randomizes* the boundary keys on every communication phase;
//! `RebuildBufferCache` re-allocates views-of-views and fills buffer
//! metadata after every mesh change. The paper (§VIII-A) identifies both as
//! serial hotspots — `RebuildBufferCache` alone is ~13.3% of runtime in a
//! 1-GPU/1-rank configuration. This module records the cost inputs of that
//! bookkeeping (keys walked, keys sorted and shuffled, buffers reallocated)
//! for the platform model; the host does not sort, shuffle or keep the keys,
//! because nothing on the host path reads their order.

use vibe_prof::{Recorder, SerialWork, StepFunction};

/// Identifies one directed boundary buffer: data flowing from the sender
/// block to the receiver block under a direction tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundaryKey {
    /// Sender block gid.
    pub send_gid: usize,
    /// Receiver block gid.
    pub recv_gid: usize,
    /// Direction tag (offset index) disambiguating multiple buffers between
    /// the same block pair.
    pub tag: u32,
}

impl BoundaryKey {
    /// Creates a key.
    pub fn new(send_gid: usize, recv_gid: usize, tag: u32) -> Self {
        Self {
            send_gid,
            recv_gid,
            tag,
        }
    }
}

/// Configuration of the buffer-cache bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Account the sort+shuffle of boundary keys (Parthenon's default; can
    /// be disabled to ablate the §VIII-A recommendation).
    pub sort_and_randomize: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            sort_and_randomize: true,
        }
    }
}

/// The per-rank boundary buffer cache.
#[derive(Debug, Clone, Default)]
pub struct BufferCache {
    valid: bool,
}

impl BufferCache {
    /// Creates an empty, invalid cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` until the mesh changes under the cache.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Invalidates the cache (called after every regrid / redistribution).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// `InitializeBufferCache`: records the serial cost inputs of walking
    /// this phase's boundary keys and (optionally) sorting and randomizing
    /// their order. Invoked by the send path on every phase.
    pub fn initialize(
        &mut self,
        keys: impl IntoIterator<Item = BoundaryKey>,
        config: &CacheConfig,
        rec: &mut Recorder,
    ) {
        let func = StepFunction::InitializeBufferCache;
        let n = keys.into_iter().count() as u64;
        rec.record_serial(func, SerialWork::BoundaryLoop(n));
        if config.sort_and_randomize {
            rec.record_serial(func, SerialWork::SortedKeys(n));
        }
    }

    /// `RebuildBufferCache`: re-allocate buffer metadata after a mesh
    /// change. `buffer_count` buffers with `metadata_bytes` of views-of-views
    /// population and host-to-device setup copies are accounted.
    pub fn rebuild(&mut self, buffer_count: u64, metadata_bytes: u64, rec: &mut Recorder) {
        rec.record_serial(
            StepFunction::RebuildBufferCache,
            SerialWork::Allocations(buffer_count),
        );
        rec.record_serial(
            StepFunction::RebuildBufferCache,
            SerialWork::BoundaryLoop(buffer_count),
        );
        rec.record_serial(
            StepFunction::RebuildBufferCache,
            SerialWork::HostCopyBytes(metadata_bytes),
        );
        self.valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<BoundaryKey> {
        (0..n)
            .map(|i| BoundaryKey::new(i % 7, (i * 3) % 5, (i % 4) as u32))
            .collect()
    }

    fn recorder() -> Recorder {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r
    }

    #[test]
    fn no_sort_count_when_sort_and_randomize_is_off() {
        let mut rec = recorder();
        let cfg = CacheConfig {
            sort_and_randomize: false,
        };
        BufferCache::new().initialize(keys(10), &cfg, &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let s = &rec.totals().serial[&StepFunction::InitializeBufferCache];
        assert_eq!(s.sorted_keys, 0, "no sort work recorded");
        assert_eq!(s.boundary_loop, 10);
    }

    #[test]
    fn sort_work_recorded_when_enabled() {
        let mut rec = recorder();
        let mut cache = BufferCache::new();
        cache.initialize(keys(30), &CacheConfig::default(), &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let s = &rec.totals().serial[&StepFunction::InitializeBufferCache];
        assert_eq!(s.sorted_keys, 30);
    }

    #[test]
    fn rebuild_validates_and_records() {
        let mut rec = recorder();
        let mut cache = BufferCache::new();
        assert!(!cache.is_valid());
        cache.rebuild(120, 4096, &mut rec);
        assert!(cache.is_valid());
        cache.invalidate();
        assert!(!cache.is_valid());
        cache.rebuild(100, 2048, &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let s = &rec.totals().serial[&StepFunction::RebuildBufferCache];
        assert_eq!(s.allocations, 220);
        assert_eq!(s.host_copy_bytes, 6144);
    }
}
