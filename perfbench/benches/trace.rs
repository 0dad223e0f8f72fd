//! In-memory span recording for the traced run.
//!
//! Spans are taken from the benchmark's own code, around each call into a
//! layer's public functions; nothing inside the program is instrumented.
//! Every span keeps its name, start and end (nanoseconds since the trace
//! began), the unit of work that caused it (a device id or a job id) and
//! how many work items it covered, so per-item rates are measured where the
//! work happens. The spans stay in memory until the run ends and can then
//! be written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `chris_core.runtime`.
    pub name: &'static str,
    /// The device or job the span worked for.
    pub unit: u64,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Work items (windows, devices, shards) the span processed.
    pub items: u64,
}

/// Total time and items of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Summed span durations, in nanoseconds.
    pub ns: u64,
    /// Summed work items.
    pub items: u64,
    /// Number of spans.
    pub spans: u64,
}

impl Total {
    /// Nanoseconds per work item; `0.0` when nothing was recorded.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// Starts an empty trace.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `items` maps the result to the
    /// work items the span processed.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce() -> T,
        items: impl FnOnce(&T) -> u64,
    ) -> T {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns,
            items: items(&value),
        });
        value
    }

    /// Renames span `index` (in recording order) once its outcome is known,
    /// e.g. a cache lookup that turned out to be a hit.
    pub fn rename(&mut self, index: usize, name: &'static str) {
        if let Some(span) = self.spans.get_mut(index) {
            span.name = name;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for span in &self.spans {
            let total = totals.entry(span.name).or_default();
            total.ns += span.end_ns - span.start_ns;
            total.items += span.items;
            total.spans += 1;
        }
        totals
    }

    /// The total of one span name (all zero when it never ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_jsonl(&self, out: &mut impl Write, run: &str) -> std::io::Result<()> {
        for span in &self.spans {
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                span.name, span.unit, span.start_ns, span.end_ns, span.items
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_durations_and_items_per_name() {
        let mut trace = Trace::new();
        let n = trace.span("a", 0, || 3u64, |&n| n);
        trace.span("a", 1, || (), |_| 2);
        trace.span(
            "b",
            0,
            || std::thread::sleep(std::time::Duration::from_millis(1)),
            |_| 1,
        );
        trace.rename(0, "c");
        assert_eq!(n, 3);
        let a = trace.total("a");
        assert_eq!((a.items, a.spans), (2, 1));
        assert_eq!(trace.total("c").items, 3);
        assert!(trace.total("b").ns >= 1_000_000);
        assert_eq!(trace.total("missing").spans, 0);
        let mut out = Vec::new();
        trace.write_jsonl(&mut out, "t").unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
