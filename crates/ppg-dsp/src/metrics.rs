//! Per-stage duration instrumentation for the DSP hot path.
//!
//! The DSP entry points ([`band_pass`](crate::filter::band_pass),
//! [`dominant_frequency`](crate::fft::dominant_frequency), feature
//! extraction) time themselves into the shared
//! [`telemetry::STAGE_DURATION_SERIES`] histogram family of the thread's
//! active registry. Handle resolution goes through the registry's internal
//! lock, so each thread memoizes its handles in a [`telemetry::HandleCache`]
//! and re-resolves only when the active registry changes (executor workers
//! install one registry for their whole lifetime, so in steady state a timer
//! start is a TLS read plus an `Instant::now`). All stage series are
//! [`Observational`](telemetry::Stability::Observational): wall-clock
//! durations are scheduling-dependent and never embedded in byte-stable
//! artifacts.

use telemetry::{HandleCache, Histogram, ScopedTimer, Stability, DURATION_NS_BOUNDS};

/// The DSP pipeline stages instrumented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Cardiac-band IIR filtering of a PPG window.
    BandPass,
    /// Spectral analysis (power spectrum + peak search).
    Fft,
    /// Statistical feature extraction for activity recognition.
    Features,
}

impl Stage {
    const ALL: [Stage; 3] = [Stage::BandPass, Stage::Fft, Stage::Features];

    fn label(self) -> &'static str {
        match self {
            Stage::BandPass => "band_pass",
            Stage::Fft => "fft",
            Stage::Features => "features",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::BandPass => 0,
            Stage::Fft => 1,
            Stage::Features => 2,
        }
    }
}

thread_local! {
    /// Per-stage histogram handles of the registry they were resolved from,
    /// indexed by [`Stage::index`].
    static HANDLES: HandleCache<[Histogram; 3]> = const { HandleCache::new() };
}

/// Starts a timer observing into the active registry's histogram for
/// `stage`; the elapsed nanoseconds are recorded when the guard drops.
pub fn stage_timer(stage: Stage) -> ScopedTimer {
    HANDLES.with(|cache| {
        cache.with(
            |registry| {
                Stage::ALL.map(|s| {
                    registry
                        .histogram(
                            telemetry::STAGE_DURATION_SERIES,
                            &[("stage", s.label())],
                            telemetry::STAGE_DURATION_HELP,
                            Stability::Observational,
                            &DURATION_NS_BOUNDS,
                        )
                        .expect("stage histogram registration cannot fail")
                })
            },
            |handles| handles[stage.index()].start_timer(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timers_record_into_the_scoped_registry() {
        let registry = telemetry::Registry::new();
        {
            let _scope = telemetry::scoped(&registry);
            drop(stage_timer(Stage::Fft));
            drop(stage_timer(Stage::Fft));
            drop(stage_timer(Stage::BandPass));
        }
        let snap = registry.snapshot();
        let count = |stage: &str| {
            snap.histograms
                .iter()
                .find(|h| h.labels == vec![("stage".to_string(), stage.to_string())])
                .map(|h| h.count)
        };
        assert_eq!(count("fft"), Some(2));
        assert_eq!(count("band_pass"), Some(1));
        assert_eq!(count("features"), Some(0));
    }

    #[test]
    fn handles_re_resolve_when_the_active_registry_changes() {
        let a = telemetry::Registry::new();
        let b = telemetry::Registry::new();
        {
            let _scope = telemetry::scoped(&a);
            drop(stage_timer(Stage::Features));
        }
        {
            let _scope = telemetry::scoped(&b);
            drop(stage_timer(Stage::Features));
        }
        for reg in [&a, &b] {
            let snap = reg.snapshot();
            let features = snap
                .histograms
                .iter()
                .find(|h| h.labels == vec![("stage".to_string(), "features".to_string())])
                .expect("features series registered");
            assert_eq!(features.count, 1);
        }
    }

    #[test]
    fn a_new_registry_is_never_served_a_dropped_ones_handles() {
        // A registry dropped and replaced on the same thread: the new one
        // often reuses the old one's allocation, so an address-keyed cache
        // would keep timing into the dead registry.
        let a = telemetry::Registry::new();
        {
            let _scope = telemetry::scoped(&a);
            drop(stage_timer(Stage::Fft));
        }
        drop(a);
        let b = telemetry::Registry::new();
        {
            let _scope = telemetry::scoped(&b);
            drop(stage_timer(Stage::Fft));
        }
        let exposition = b.exposition();
        assert!(
            exposition.contains("chris_stage_duration_ns_count{stage=\"fft\"} 1"),
            "{exposition}"
        );
    }
}
