//! The span recorder of a traced run: spans are kept in memory while
//! the workload runs and written out once, when it ends.
//!
//! Spans are recorded from the benchmark's own side of each call into a
//! layer; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Spans of one operation share this.
    op: u64,
}

/// Self time of one span name across a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_us: f64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording during
    /// the measured phase does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span from the two instants the caller already
    /// took for its own latency sample.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        id
    }

    /// Record a span of a known duration starting at `start` (a call
    /// too short to time alone is timed in a batch and recorded at the
    /// batch's mean).
    pub fn record_duration(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        duration_us: f64,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (duration_us * 1e3).round() as u64,
            parent,
            op,
        });
        id
    }

    /// Move a parent's end to cover its children (a replay's root span
    /// is the sum of staged calls, recorded before they run).
    pub fn extend_to(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent.0 as usize];
                let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                covered[parent.0 as usize] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            let entry = out.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_us += own as f64 / 1e3;
        }
        out
    }

    /// Write the trace as one JSON document: `{"spans": [{"id", "name",
    /// "start_ns", "end_ns", "parent", "op"}, …]}`, one span per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            // Span names are the benchmark's own identifiers: no escaping needed.
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::with_capacity(8);
        let t0 = r.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = r.record("op", None, 1, at(0), at(100));
        let child = r.record("layer.a", Some(root), 1, at(10), at(40));
        r.record("layer.a.inner", Some(child), 1, at(15), at(25));
        r.record_duration("layer.b", Some(root), 1, at(50), 20.0);
        r.record("op", None, 2, at(200), at(230));
        let st = r.self_times();
        // Root 1: 100 − 30 − 20 = 50; root 2: 30.
        assert_eq!(
            st["op"],
            SelfTime {
                spans: 2,
                total_us: 80.0
            }
        );
        assert_eq!(
            st["layer.a"],
            SelfTime {
                spans: 1,
                total_us: 20.0
            }
        );
        assert_eq!(
            st["layer.a.inner"],
            SelfTime {
                spans: 1,
                total_us: 10.0
            }
        );
        assert_eq!(
            st["layer.b"],
            SelfTime {
                spans: 1,
                total_us: 20.0
            }
        );
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn trace_file_is_json_with_one_object_per_span() {
        let mut r = Recorder::with_capacity(2);
        let t0 = r.origin;
        let root = r.record("op", None, 7, t0, t0 + Duration::from_nanos(500));
        r.record("layer", Some(root), 7, t0, t0 + Duration::from_nanos(200));
        let path = std::env::temp_dir().join(format!(
            "sommelier-benchmark-trace-{}.json",
            std::process::id()
        ));
        r.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let Some(serde::Value::Seq(spans)) = doc.get_field("spans") else {
            panic!("no spans array in {text}");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get_field("parent"), Some(&serde::Value::UInt(0)));
        assert_eq!(spans[1].get_field("end_ns"), Some(&serde::Value::UInt(200)));
        assert_eq!(spans[0].get_field("op"), Some(&serde::Value::UInt(7)));
    }
}
