//! Memoized window synthesis: a caching [`WindowSource`] for hot profiling
//! streams.
//!
//! Synthesizing a window stream from `(seed, subjects, activity schedule)` is
//! deterministic, so re-running [`SynthWindows`](crate::SynthWindows) over the
//! same parameters repeats identical signal-generation work. That happens
//! constantly at fleet scale: the CHRIS profiling table is re-profiled over
//! identical calibration windows, and simulated devices whose scenarios share
//! a `(seed, schedule)` pair re-synthesize the same session. This module
//! memoizes that work:
//!
//! * [`WindowCacheKey`] — the full synthesis input: seed, subject count,
//!   activity schedule, per-activity sample count and synthesis mode. Two streams with equal
//!   keys are bit-identical, so sharing the materialized windows is
//!   observationally invisible,
//! * [`WindowCache`] — a **bounded, deterministic LRU** from keys to
//!   shared window buffers. Eviction depends only on the access sequence
//!   (never on hash order or clocks), so a run that uses a cache is exactly
//!   as reproducible as one that does not. Hit/miss counters let callers
//!   surface cache effectiveness,
//! * [`CachedWindows`] — the replay [`WindowSource`]: the crate's one buffer
//!   cursor, [`BufferWindows`], over a shared `Arc<[LabeledWindow]>`, so the
//!   zero-copy [`try_for_each_window`](WindowSource::try_for_each_window)
//!   and [`as_slice`](WindowSource::as_slice) fast paths are the ones
//!   eager slices use. Every lookup returns one, hit or miss, at any
//!   capacity.
//!
//! The cache is deliberately **not** synchronized. The fleet executor
//! instead fills one session per pool slot per simulation via
//! [`drain_shared`], and its workers share them.

use std::sync::Arc;

use crate::activity::Activity;
use crate::dataset::Synthesis;
use crate::error::DataError;
use crate::window::LabeledWindow;

use super::{BufferWindows, WindowSource};

/// The complete input of a synthesized window stream; equal keys imply
/// bit-identical streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowCacheKey {
    /// Master RNG seed of the synthesis.
    pub seed: u64,
    /// Number of subjects synthesized.
    pub subjects: usize,
    /// Activity schedule, in order (order is part of the synthesis input).
    pub activities: Vec<Activity>,
    /// Samples generated per activity segment.
    pub samples_per_activity: usize,
    /// Whether the windows carry signals or labels only: the two modes never
    /// share an entry.
    pub synthesis: Synthesis,
}

/// A bounded, deterministic LRU cache of materialized window streams.
///
/// `capacity` bounds the number of *entries* (one entry per distinct
/// [`WindowCacheKey`]; a capacity of `0` disables storage, so every lookup
/// misses and replays a session it synthesized just for that lookup — useful
/// as a control, and the reports it produces are still identical). Entries
/// are evicted strictly least-recently-used, where "use" is a
/// [`WindowCache::stream_with`] call; the eviction order therefore depends
/// only on the access sequence, keeping cached runs as reproducible as
/// uncached ones.
#[derive(Debug, Clone, Default)]
pub struct WindowCache {
    capacity: usize,
    /// Most-recently-used first; linear scan keeps ordering deterministic
    /// and is faster than hashing for the small capacities caches run with.
    entries: Vec<(WindowCacheKey, Arc<[LabeledWindow]>)>,
    hits: u64,
    misses: u64,
}

impl WindowCache {
    /// Creates a cache holding at most `capacity` materialized streams
    /// (`usize::MAX` for unbounded, `0` to disable storage).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups that found a cached stream.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to synthesize (including every lookup at capacity 0).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Streams the windows for `key`: a hit replays the shared buffer, a
    /// miss materializes the stream once via `synth` and stores it (unless
    /// the capacity is 0, which replays the materialized session without
    /// storing it).
    ///
    /// The returned source yields element-wise exactly what draining
    /// `synth()` would have yielded — consumers cannot observe whether their
    /// stream was a hit or a miss (beyond the counters).
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] from `synth` or from the drained stream;
    /// failed syntheses are not cached.
    pub fn stream_with<S, F>(
        &mut self,
        key: WindowCacheKey,
        synth: F,
    ) -> Result<CachedWindows, DataError>
    where
        S: WindowSource,
        F: FnOnce() -> Result<S, DataError>,
    {
        if let Some(index) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            // LRU touch: move to front without disturbing relative order of
            // the other entries.
            let entry = self.entries.remove(index);
            let windows = Arc::clone(&entry.1);
            self.entries.insert(0, entry);
            return Ok(BufferWindows::new(windows));
        }
        self.misses += 1;
        let windows = drain_shared(synth()?)?;
        // At capacity 0 the truncation drops the new entry again.
        self.entries.insert(0, (key, Arc::clone(&windows)));
        self.entries.truncate(self.capacity);
        Ok(BufferWindows::new(windows))
    }
}

/// Drains `source` into a shared buffer, the fill of a memoized session.
///
/// # Errors
///
/// Propagates the first [`DataError`] the stream yields.
pub fn drain_shared<S: WindowSource>(source: S) -> Result<Arc<[LabeledWindow]>, DataError> {
    crate::collect_windows(source).map(Arc::from)
}

/// [`WindowSource`] replaying a shared, memoized window buffer (see
/// [`WindowCache::stream_with`]).
///
/// Cloning the source restarts the replay from the clone's position without
/// duplicating the buffer.
pub type CachedWindows = BufferWindows<Arc<[LabeledWindow]>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn builder(seed: u64) -> DatasetBuilder {
        DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(seed)
    }

    #[test]
    fn hit_replays_the_synthesized_stream_exactly() {
        let mut cache = WindowCache::new(4);
        let eager: Vec<_> = builder(7)
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let miss: Vec<_> = builder(7)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let hit: Vec<_> = builder(7)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(miss, eager);
        assert_eq!(hit, eager);
        assert_eq!((cache.hits(), cache.misses()), (1, 2 - 1));
        assert_eq!(cache.entries.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut cache = WindowCache::new(4);
        let a: Vec<_> = builder(1)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let b: Vec<_> = builder(2)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_ne!(a, b);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn full_and_labels_only_lookups_never_alias() {
        let mut cache = WindowCache::new(4);
        let full = builder(5);
        let labels = builder(5).synthesis(Synthesis::LabelsOnly);
        assert_ne!(
            full.window_cache_key().unwrap(),
            labels.window_cache_key().unwrap()
        );
        let full: Vec<_> = full
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let labels: Vec<_> = labels
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(full.len(), labels.len());
        assert!(full.iter().all(|w| w.ppg.len() == crate::WINDOW_SAMPLES));
        assert!(labels
            .iter()
            .all(|w| w.ppg.is_empty() && w.accel_x.is_empty()));
    }

    #[test]
    fn lru_eviction_is_strictly_least_recently_used() {
        let mut cache = WindowCache::new(2);
        builder(1).cached_window_stream(&mut cache).unwrap(); // miss: [1]
        builder(2).cached_window_stream(&mut cache).unwrap(); // miss: [2, 1]
        builder(1).cached_window_stream(&mut cache).unwrap(); // hit:  [1, 2]
        builder(3).cached_window_stream(&mut cache).unwrap(); // miss, evicts 2
        builder(1).cached_window_stream(&mut cache).unwrap(); // still a hit
        builder(2).cached_window_stream(&mut cache).unwrap(); // miss again
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage_but_still_streams() {
        let mut cache = WindowCache::new(0);
        let eager: Vec<_> = builder(9)
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        for _ in 0..2 {
            let streamed: Vec<_> = builder(9)
                .cached_window_stream(&mut cache)
                .unwrap()
                .iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(streamed, eager);
            // Storage is disabled: the replayed session is never retained.
            assert!(cache.entries.is_empty());
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn cached_windows_supports_slice_and_visitor_fast_paths() {
        let mut cache = WindowCache::new(1);
        let mut stream = builder(11).cached_window_stream(&mut cache).unwrap();
        let total = stream.size_hint().0;
        assert!(total > 0);
        assert_eq!(stream.size_hint(), (total, Some(total)));
        assert_eq!(stream.as_slice().unwrap().len(), total);
        stream.next_window().unwrap().unwrap();
        assert_eq!(stream.as_slice().unwrap().len(), total - 1);
        let visited = stream
            .try_for_each_window(|_| Ok::<(), DataError>(()))
            .unwrap();
        assert_eq!(visited, total - 1);
        assert!(stream.next_window().is_none());
        assert_eq!(stream.size_hint(), (0, Some(0)));
    }

    #[test]
    fn synthesis_failures_are_not_cached() {
        let mut cache = WindowCache::new(4);
        let short = DatasetBuilder::new().subjects(1).seconds_per_activity(1.0);
        assert!(short.window_cache_key().is_err());
        // A failing synth closure leaves the cache empty.
        let key = builder(1).window_cache_key().unwrap();
        let result = cache.stream_with(key, || {
            Err::<crate::SynthWindows, _>(DataError::InvalidParameter {
                name: "synth",
                requirement: "always fails",
            })
        });
        assert!(result.is_err());
        assert!(cache.entries.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}
