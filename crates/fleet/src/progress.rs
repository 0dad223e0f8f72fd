//! Live progress reporting for streaming fleet execution.
//!
//! With eager window synthesis, a shard worker was silent until its whole
//! device range finished. The streaming executor pulls windows one at a time,
//! so it can report partial progress — windows processed, devices completed —
//! through a [`ProgressSink`] while the simulation runs, which is what the
//! `--progress` flag of the `fleet` / `fleet-shard` CLIs surfaces. Progress
//! is observational only: sinks receive callbacks from worker threads in
//! whatever order devices finish, and the simulation's reports remain
//! byte-identical whether a sink is attached or not.

use ppg_data::{DataError, IntoWindowSource, LabeledWindow, WindowSource};

/// Receiver of live fleet-execution progress.
///
/// Implementations must be [`Sync`]: the executor's worker threads call them
/// concurrently. Callbacks arrive in completion order, which depends on
/// scheduling — sinks must not assume device-id order. Run totals such as
/// the profile-cache hit/miss counts are telemetry series
/// ([`crate::PROFILE_CACHE_EVENTS_SERIES`]), read from the registry the run
/// recorded into, not callbacks.
pub trait ProgressSink: Sync {
    /// One or more windows of `device_id` were pulled through the runtime.
    fn windows_processed(&self, device_id: u64, count: usize);

    /// The device finished simulating; `windows` is its total window count.
    fn device_completed(&self, device_id: u64, windows: usize);

    /// Cooperative cancellation hook, polled by the executor between devices
    /// (before each device starts, and before a worker claims its next
    /// chunk). Returning `true` makes the run abort at the next device
    /// boundary with [`crate::FleetError::Cancelled`] instead of producing a
    /// partial report — in-flight devices finish their current window stream
    /// first, so cancellation never tears a device mid-simulation. Default:
    /// never cancel, which keeps plain progress sinks byte-invisible.
    fn should_cancel(&self) -> bool {
        false
    }
}

/// [`WindowSource`] adapter that reports every pulled window to a
/// [`ProgressSink`] — how the executor observes progress without the runtime
/// knowing about fleets.
#[derive(Clone, Copy)]
pub struct ProgressSource<'a, S> {
    inner: S,
    sink: &'a dyn ProgressSink,
    device_id: u64,
}

impl<'a, S: WindowSource> ProgressSource<'a, S> {
    /// Wraps a window source so each yielded window is reported to `sink`
    /// under `device_id`.
    pub fn new(inner: S, sink: &'a dyn ProgressSink, device_id: u64) -> Self {
        Self {
            inner,
            sink,
            device_id,
        }
    }
}

/// The one place a window is counted, shared by both consumption paths.
///
/// Counting contract: a window is reported to the sink exactly when the
/// source successfully *yields* it — error items are never counted, and a
/// consumer that fails while processing an already-yielded window does not
/// un-count it (the pull path could not know about that failure anyway).
/// Keeping `next_window` and `try_for_each_window` on this single helper is
/// what guarantees the two paths report identical totals, including when a
/// callback errors mid-stream (locked in by the
/// `callback_error_leaves_identical_totals_on_both_paths` test).
fn report_yielded(sink: &dyn ProgressSink, device_id: u64) {
    sink.windows_processed(device_id, 1);
}

impl<S: WindowSource> WindowSource for ProgressSource<'_, S> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        let item = self.inner.next_window();
        if let Some(Ok(_)) = &item {
            report_yielded(self.sink, self.device_id);
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    /// Delegates to the inner source's visitor (preserving its zero-copy
    /// overrides). Each window is reported at yield time — before the
    /// visitor consumes it, mirroring `next_window`'s yield-time counting —
    /// so the sink's totals are identical on both paths even when the
    /// visitor fails mid-stream.
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        let sink = self.sink;
        let device_id = self.device_id;
        self.inner.try_for_each_window(|window| {
            report_yielded(sink, device_id);
            f(window)
        })
    }
}

impl<'a, S: WindowSource> IntoWindowSource for ProgressSource<'a, S> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct CountingSink {
        windows: AtomicUsize,
        devices: AtomicUsize,
    }

    impl ProgressSink for CountingSink {
        fn windows_processed(&self, _device_id: u64, count: usize) {
            // relaxed: single-threaded test counter.
            self.windows.fetch_add(count, Ordering::Relaxed);
        }

        fn device_completed(&self, _device_id: u64, _windows: usize) {
            // relaxed: single-threaded test counter.
            self.devices.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Test source yielding a scripted sequence of windows and in-band
    /// errors.
    struct ScriptedSource {
        items: std::vec::IntoIter<Result<LabeledWindow, DataError>>,
    }

    impl ScriptedSource {
        fn new(items: Vec<Result<LabeledWindow, DataError>>) -> Self {
            Self {
                items: items.into_iter(),
            }
        }
    }

    impl WindowSource for ScriptedSource {
        fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
            self.items.next()
        }
    }

    fn sample_windows(count: usize) -> Vec<LabeledWindow> {
        ppg_data::DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(24.0)
            .seed(5)
            .window_stream()
            .unwrap()
            .iter()
            .take(count)
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn callback_error_leaves_identical_totals_on_both_paths() {
        let windows = sample_windows(6);
        assert_eq!(windows.len(), 6);
        let fail_at = 3usize; // error on the 4th window, mid-stream

        // Path 1: the visitor (`try_for_each_window`, the runtime's path).
        let visitor_sink = CountingSink::default();
        let mut source =
            ProgressSource::new(ppg_data::SliceSource::new(&windows), &visitor_sink, 7);
        let mut seen = 0usize;
        let result: Result<usize, DataError> = source.try_for_each_window(|_| {
            if seen == fail_at {
                return Err(DataError::RecordingTooShort {
                    samples: 0,
                    required: 1,
                });
            }
            seen += 1;
            Ok(())
        });
        assert!(result.is_err());

        // Path 2: a manual `next_window` pull loop applying the same
        // failing consumer.
        let pull_sink = CountingSink::default();
        let mut source = ProgressSource::new(ppg_data::SliceSource::new(&windows), &pull_sink, 7);
        let mut seen = 0usize;
        while let Some(item) = source.next_window() {
            item.unwrap();
            if seen == fail_at {
                break; // the consumer fails on this window
            }
            seen += 1;
        }

        assert_eq!(
            // relaxed: single-threaded test assertion.
            visitor_sink.windows.load(Ordering::Relaxed),
            // relaxed: single-threaded test assertion.
            pull_sink.windows.load(Ordering::Relaxed),
            "the visitor and pull paths must report identical progress totals"
        );
        // Both count the yielded-but-failed window: yield-time counting.
        // relaxed: single-threaded test assertion.
        assert_eq!(pull_sink.windows.load(Ordering::Relaxed), fail_at + 1);
    }

    #[test]
    fn source_errors_are_not_counted_on_either_path() {
        let windows = sample_windows(3);
        let script = || {
            vec![
                Ok(windows[0].clone()),
                Ok(windows[1].clone()),
                Err(DataError::RecordingTooShort {
                    samples: 0,
                    required: 1,
                }),
                Ok(windows[2].clone()),
            ]
        };

        let visitor_sink = CountingSink::default();
        let mut source = ProgressSource::new(ScriptedSource::new(script()), &visitor_sink, 1);
        let result: Result<usize, DataError> = source.try_for_each_window(|_| Ok(()));
        assert!(result.is_err());

        let pull_sink = CountingSink::default();
        let mut source = ProgressSource::new(ScriptedSource::new(script()), &pull_sink, 1);
        let mut failed = false;
        while let Some(item) = source.next_window() {
            if item.is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);

        // relaxed: single-threaded test assertion.
        assert_eq!(visitor_sink.windows.load(Ordering::Relaxed), 2);
        // relaxed: single-threaded test assertion.
        assert_eq!(pull_sink.windows.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn progress_source_reports_every_window_and_preserves_the_stream() {
        let stream = ppg_data::DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(3)
            .window_stream()
            .unwrap();
        let expected: Vec<_> = stream.clone().iter().map(Result::unwrap).collect();
        let sink = CountingSink::default();
        let observed: Vec<_> = ProgressSource::new(stream, &sink, 7)
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(observed, expected);
        // relaxed: single-threaded test assertion.
        assert_eq!(sink.windows.load(Ordering::Relaxed), expected.len());
    }
}
