//! Benchmark-side spans: recorded in memory around calls into each
//! layer, written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; later spans are counted, not stored, so a long
/// run's memory stays bounded.
const MAX_SPANS: usize = 1 << 18;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index + 1 of the span that caused this one (0: none).
    parent: u32,
    job: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Handle of a recorded span (0 when the span was dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No parent.
    pub const ROOT: SpanId = SpanId(0);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        job: u64,
    ) -> SpanId {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId::ROOT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.0,
            job,
        };
        self.spans.push(span);
        SpanId(self.spans.len() as u32)
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId, job: u64) -> SpanId {
        self.record(name, start, start, parent, job)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != SpanId::ROOT {
            let ns = self.ns(end);
            self.spans[id.0 as usize - 1].end_ns = ns;
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, job);
        (out, (end - start).as_secs_f64())
    }

    /// The spans as a JSON document with `header` fields prepended.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in header {
            let _ = write!(out, "\"{k}\":{v},");
        }
        let _ = write!(out, "\"spans_dropped\":{},\"spans\":[", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.job
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_their_parent_and_serialize() {
        let mut t = Tracer::default();
        let now = Instant::now();
        let job = t.open("job", now, SpanId::ROOT, 7);
        let child = t.record("submit", now, Instant::now(), job, 7);
        t.close(job, Instant::now());
        assert_eq!(t.spans[child.0 as usize - 1].parent, job.0);
        let json = t.to_json(&[("workload", "\"x\"".into())]);
        assert!(json.starts_with("{\"workload\":\"x\",\"spans_dropped\":0,"));
        assert!(json.contains("\"name\":\"submit\""));
    }
}
