//! Streaming window delivery: the [`WindowSource`] trait and its sources.
//!
//! The paper's CHRIS system is an *online* pipeline — the wearable sees one
//! 8-second window at a time and decides per window whether to run locally or
//! offload. Batch `Vec<LabeledWindow>` APIs were an artifact of the
//! reproduction, not the design. This module makes the window-by-window shape
//! first-class:
//!
//! * [`WindowSource`] — an iterator-like pull interface
//!   (`next_window() -> Option<Result<LabeledWindow, DataError>>`) with a
//!   [`size_hint`](WindowSource::size_hint) contract, implemented by every
//!   window producer in the workspace,
//! * [`RecordingWindows`] — the one window cursor over a recording, borrowed
//!   ([`SessionRecording::window_stream`](crate::SessionRecording::window_stream))
//!   or owned (inside [`SynthWindows`]),
//! * [`SynthWindows`] — fully lazy synthesis from
//!   `(seed, subjects, activity schedule)` via
//!   [`DatasetBuilder::window_stream`](crate::DatasetBuilder::window_stream):
//!   at most **one activity segment** (labels, plus raw signal unless the
//!   builder synthesizes labels only) is alive at a time and exactly **one
//!   window** is materialized per pull, instead of the whole session,
//! * [`BufferWindows`] — the one cursor over an in-memory window buffer:
//!   [`SliceSource`] for borrowed slices and [`cache::CachedWindows`] for
//!   shared cache entries. [`IntoWindowSource`] converts `&[LabeledWindow]`,
//!   `&Vec<LabeledWindow>` and window arrays into a [`SliceSource`], so
//!   consumers such as `chris_core::ChrisRuntime::run` accept both eager
//!   buffers and streams through one generic parameter,
//! * [`cache`] — memoized synthesis: [`cache::WindowCache`] is a bounded,
//!   deterministic LRU over materialized streams keyed by the full synthesis
//!   input, and its replays are observationally identical to a fresh
//!   [`SynthWindows`].
//!
//! The streams are **bit-exact** replays of the eager paths: collecting any
//! of them yields element-wise the same `LabeledWindow`s the
//! `Vec`-returning methods produce (locked in by property tests), so reports
//! computed from a stream are byte-identical to reports computed from the
//! eager vectors.

pub mod cache;

use std::borrow::Borrow;

use crate::dataset::{SessionRecording, Sessions};
use crate::error::DataError;
use crate::window::LabeledWindow;
use crate::{WINDOW_SAMPLES, WINDOW_STRIDE};

/// Number of analysis windows extractable from `samples` samples with the
/// paper's 256-sample / 64-sample-stride scheme (0 when too short).
pub fn window_count_for(samples: usize) -> usize {
    if samples < WINDOW_SAMPLES {
        0
    } else {
        (samples - WINDOW_SAMPLES) / WINDOW_STRIDE + 1
    }
}

/// A pull-based producer of labeled analysis windows.
///
/// The streaming analogue of `&[LabeledWindow]`: callers repeatedly ask for
/// the next window until `None`, and at most one window needs to be alive at
/// a time. Errors are yielded in-band (`Some(Err(..))`) so lazy synthesis can
/// fail mid-stream without having validated the whole session up front.
///
/// # Contract
///
/// * After the first `None`, every subsequent call returns `None` (fused).
/// * [`size_hint`](Self::size_hint) bounds the number of *windows* still to
///   be yielded (error items are not counted); like
///   [`Iterator::size_hint`], `(lo, Some(hi))` promises `lo <= n <= hi`.
///   Sources backed by known geometry (slices, synthesis) return exact
///   bounds.
pub trait WindowSource {
    /// Pulls the next window, `Some(Err(..))` on a synthesis/extraction
    /// failure, or `None` when the stream is exhausted.
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>>;

    /// Bounds on the number of windows remaining, `(lower, upper)`.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Drives the source to exhaustion with a **by-reference** visitor,
    /// returning the number of windows visited; stops at the first error
    /// (from the source, converted via `From<DataError>`, or from the
    /// visitor).
    ///
    /// The zero-copy consumption path: single-pass consumers
    /// (`chris_core::ChrisRuntime::run`, `chris_core::Profiler`) drive their
    /// loops through it, so [`BufferWindows`] overrides it to iterate without cloning a single window — eager call
    /// sites keep their pre-streaming cost.
    ///
    /// `#[inline]`, as the override is: rustc then instantiates it in the
    /// caller's codegen unit, so the runtime's per-window visitor inlines
    /// into its loop in whichever crate instantiates the loop, instead of
    /// depending on how that crate's other code happens to be partitioned.
    #[inline]
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E>
    where
        Self: Sized,
    {
        let mut n = 0usize;
        while let Some(item) = self.next_window() {
            let window = item.map_err(E::from)?;
            f(&window)?;
            n += 1;
        }
        Ok(n)
    }

    /// Borrowed view of the remaining windows when the source is backed by
    /// an in-memory buffer ([`BufferWindows`]); `None` for lazy sources. Lets inherently multi-pass consumers
    /// (`chris_core::Profiler::profile_all`) use already-materialized
    /// workloads in place instead of buffering a copy.
    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        None
    }

    /// Adapts the source into a standard [`Iterator`] of
    /// `Result<LabeledWindow, DataError>` for use with combinators.
    fn iter(self) -> WindowSourceIter<Self>
    where
        Self: Sized,
    {
        WindowSourceIter { source: self }
    }
}

/// Conversion into a [`WindowSource`].
///
/// The generic bound used by window consumers
/// (`chris_core::ChrisRuntime::run`, `chris_core::Profiler::profile_all`):
/// every [`WindowSource`] converts into itself and references to window
/// buffers convert into a [`SliceSource`], so call sites can pass
/// `&windows`, `&[..]` or any stream without adapting manually.
pub trait IntoWindowSource {
    /// The concrete source this value converts into.
    type Source: WindowSource;

    /// Performs the conversion.
    fn into_window_source(self) -> Self::Source;
}

/// [`Iterator`] adapter over any [`WindowSource`] (see
/// [`WindowSource::iter`]).
#[derive(Debug)]
pub struct WindowSourceIter<S> {
    source: S,
}

impl<S: WindowSource> Iterator for WindowSourceIter<S> {
    type Item = Result<LabeledWindow, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.source.next_window()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The source's hint counts windows only; this iterator additionally
        // yields error items, so only the lower bound carries over.
        (self.source.size_hint().0, None)
    }
}

/// Eagerly drains a source into a `Vec`, stopping at the first error.
///
/// The bridge back from the streaming world for call sites that genuinely
/// need random access (multi-pass profiling, tests), and the fill of a
/// memoized session ([`drain_shared`](crate::drain_shared)). Fleet devices
/// stream instead: `fleet`'s `tests/no_eager_alloc.rs` checks with a
/// counting allocator that no device materializes its session.
///
/// # Errors
///
/// Propagates the first [`DataError`] the source yields.
pub fn collect_windows<S: IntoWindowSource>(source: S) -> Result<Vec<LabeledWindow>, DataError> {
    let mut source = source.into_window_source();
    let mut out = Vec::with_capacity(source.size_hint().0);
    while let Some(item) = source.next_window() {
        out.push(item?);
    }
    Ok(out)
}

/// [`WindowSource`] cursor over an in-memory window buffer: a borrowed slice
/// ([`SliceSource`]) or a shared cache entry
/// ([`CachedWindows`](cache::CachedWindows)).
///
/// [`next_window`](WindowSource::next_window) clones one window per pull;
/// [`try_for_each_window`](WindowSource::try_for_each_window) and
/// [`as_slice`](WindowSource::as_slice) read the buffer in place, so eager
/// call sites and cache replays keep their zero-copy cost. Cloning the cursor
/// restarts the replay from the clone's position without duplicating a shared
/// buffer.
#[derive(Debug, Clone)]
pub struct BufferWindows<B> {
    buffer: B,
    next: usize,
}

/// [`WindowSource`] over a borrowed window slice: what `&[LabeledWindow]`,
/// `&Vec<LabeledWindow>` and window arrays convert into.
pub type SliceSource<'a> = BufferWindows<&'a [LabeledWindow]>;

impl<B: AsRef<[LabeledWindow]>> BufferWindows<B> {
    /// Starts a replay at the first window of `buffer`.
    pub fn new(buffer: B) -> Self {
        Self { buffer, next: 0 }
    }
}

impl<B: AsRef<[LabeledWindow]>> WindowSource for BufferWindows<B> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        let window = self.buffer.as_ref().get(self.next)?.clone();
        self.next += 1;
        Some(Ok(window))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.buffer.as_ref().len() - self.next;
        (remaining, Some(remaining))
    }

    /// Zero-copy override: visits the buffered windows by reference. On a
    /// visitor error the cursor is positioned after the failing window,
    /// exactly like the default implementation.
    #[inline]
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut visited = 0usize;
        while let Some(window) = self.buffer.as_ref().get(self.next) {
            self.next += 1;
            f(window)?;
            visited += 1;
        }
        Ok(visited)
    }

    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        Some(&self.buffer.as_ref()[self.next..])
    }
}

/// Every source converts into itself.
impl<S: WindowSource> IntoWindowSource for S {
    type Source = S;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

impl<'a> IntoWindowSource for &'a [LabeledWindow] {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a> IntoWindowSource for &'a Vec<LabeledWindow> {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a, const N: usize> IntoWindowSource for &'a [LabeledWindow; N] {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

/// Lazy [`WindowSource`] over one [`SessionRecording`], borrowed (see
/// [`SessionRecording::window_stream`]) or owned (the segment a
/// [`SynthWindows`] stream holds alive).
///
/// A recording shorter than one window yields a single
/// [`DataError::RecordingTooShort`]; otherwise every stride-aligned window is
/// yielded in order, one allocation per pull.
#[derive(Debug, Clone)]
pub struct RecordingWindows<R> {
    recording: R,
    next_start: usize,
    done: bool,
}

impl<R: Borrow<SessionRecording>> RecordingWindows<R> {
    pub(crate) fn new(recording: R) -> Self {
        Self {
            recording,
            next_start: 0,
            done: false,
        }
    }
}

impl<R: Borrow<SessionRecording>> WindowSource for RecordingWindows<R> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        if self.done {
            return None;
        }
        let recording = self.recording.borrow();
        let start = self.next_start;
        if start + WINDOW_SAMPLES > recording.len() {
            self.done = true;
            // Only a recording too short for its first window fails.
            return (start == 0).then(|| {
                Err(DataError::RecordingTooShort {
                    samples: recording.len(),
                    required: WINDOW_SAMPLES,
                })
            });
        }
        self.next_start += WINDOW_STRIDE;
        Some(Ok(recording.window_at(start)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.done {
            0
        } else {
            window_count_for(self.recording.borrow().len() - self.next_start)
        };
        (remaining, Some(remaining))
    }
}

/// Fully lazy [`WindowSource`]: synthesizes windows on demand from
/// `(seed, subject count, activity schedule)` without ever materializing the
/// dataset, a session, or a window vector.
///
/// Produced by [`DatasetBuilder::window_stream`](crate::DatasetBuilder::window_stream)
/// (and, one layer up, by `fleet::DeviceScenario::window_stream`). It pulls
/// recordings one at a time from the same session generator
/// [`DatasetBuilder::build`](crate::DatasetBuilder::build) collects, so the
/// replay is bit-exact with the eager `build()?.windows()` path. Peak memory
/// is one activity segment (a few KiB of raw signal, or of heart rate alone
/// in [`Synthesis::LabelsOnly`](crate::Synthesis::LabelsOnly) mode) instead
/// of the whole multi-activity session and its window vector.
#[derive(Debug, Clone)]
pub struct SynthWindows {
    sessions: Sessions,
    /// The one activity segment currently alive.
    current: Option<RecordingWindows<SessionRecording>>,
    remaining: usize,
}

impl SynthWindows {
    pub(crate) fn new(sessions: Sessions) -> Self {
        let remaining = sessions.window_total();
        Self {
            sessions,
            current: None,
            remaining,
        }
    }

    /// Exact number of windows still to be synthesized.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl WindowSource for SynthWindows {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        loop {
            if let Some(item) = self
                .current
                .as_mut()
                .and_then(RecordingWindows::next_window)
            {
                self.remaining -= 1;
                return Some(item);
            }
            // Drop the exhausted segment before synthesizing the next one.
            self.current = None;
            self.current = Some(RecordingWindows::new(self.sessions.next()?));
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn small_builder() -> DatasetBuilder {
        DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(11)
    }

    #[test]
    fn slice_source_round_trips_and_reports_exact_size() {
        let windows = small_builder().build().unwrap().windows();
        let mut source = SliceSource::new(&windows);
        assert_eq!(source.size_hint(), (windows.len(), Some(windows.len())));
        let mut collected = Vec::new();
        while let Some(item) = source.next_window() {
            collected.push(item.unwrap());
        }
        assert_eq!(collected, windows);
        assert_eq!(source.size_hint(), (0, Some(0)));
        assert!(source.next_window().is_none());
    }

    #[test]
    fn slice_visitor_stops_after_the_failing_window() {
        let windows = small_builder().build().unwrap().windows();
        let mut source = SliceSource::new(&windows);
        let mut seen = 0usize;
        let result = source.try_for_each_window(|_| {
            seen += 1;
            if seen == 2 {
                return Err(DataError::InvalidParameter {
                    name: "visitor",
                    requirement: "fails on the second window",
                });
            }
            Ok(())
        });
        assert!(result.is_err());
        assert_eq!(source.size_hint().0, windows.len() - 2);
        assert_eq!(source.next_window().unwrap().unwrap(), windows[2]);
    }

    #[test]
    fn owned_recording_cursor_matches_the_borrowed_one() {
        let dataset = small_builder().build().unwrap();
        let recording = &dataset.recordings()[0];
        let borrowed: Vec<_> = recording
            .window_stream()
            .iter()
            .map(Result::unwrap)
            .collect();
        let owned: Vec<_> = RecordingWindows::new(recording.clone())
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(borrowed.len(), recording.window_count());
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn synth_stream_replays_the_eager_dataset_exactly() {
        let eager = small_builder().build().unwrap().windows();
        let stream = small_builder().window_stream().unwrap();
        assert_eq!(stream.len(), eager.len());
        let streamed: Vec<_> = stream.iter().map(Result::unwrap).collect();
        assert_eq!(streamed, eager);
    }

    #[test]
    fn synth_stream_size_hint_counts_down_exactly() {
        let mut stream = small_builder().window_stream().unwrap();
        let total = stream.len();
        assert!(total > 0);
        let mut seen = 0usize;
        while let Some(item) = stream.next_window() {
            item.unwrap();
            seen += 1;
            assert_eq!(stream.size_hint(), (total - seen, Some(total - seen)));
        }
        assert_eq!(seen, total);
        assert!(stream.is_empty());
    }

    #[test]
    fn recording_stream_errors_once_on_short_recordings() {
        let dataset = small_builder().build().unwrap();
        let mut recording = dataset.recordings()[0].clone();
        recording.ppg.truncate(100);
        let mut stream = recording.window_stream();
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(matches!(
            stream.next_window(),
            Some(Err(DataError::RecordingTooShort { samples: 100, .. }))
        ));
        assert!(stream.next_window().is_none());
    }

    #[test]
    fn window_count_for_matches_extraction_arithmetic() {
        assert_eq!(window_count_for(0), 0);
        assert_eq!(window_count_for(WINDOW_SAMPLES - 1), 0);
        assert_eq!(window_count_for(WINDOW_SAMPLES), 1);
        assert_eq!(window_count_for(WINDOW_SAMPLES + WINDOW_STRIDE), 2);
        let samples = (24.0 * crate::SAMPLE_RATE_HZ) as usize;
        let dataset = small_builder().build().unwrap();
        assert_eq!(
            dataset.recordings()[0].window_count(),
            window_count_for(samples)
        );
    }
}
