//! The benchmark's own span recorder. Spans are recorded around calls
//! *into* the program from the benchmark's files, kept in memory, and
//! written out as Chrome-trace JSON when the run ends; nothing inside
//! `crates/*` is instrumented.

use std::time::Instant;

use crate::json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (rows, bytes, ...), so that ratios are
    /// measured where the work happens.
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle of a span that has begun; hand it back to [`Recorder::end`].
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: None }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording off and on between spans; a traced run leaves
    /// every other op unrecorded to measure what recording costs.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans begun from now on belong to `op`.
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    /// Begin a span as a child of the innermost open one. The clock is
    /// read whether or not the recorder is on, so callers take their
    /// durations from [`Recorder::end`] in both kinds of run.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { slot: None, start };
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            id: slot as u32,
            parent: self.stack.last().map(|&p| p as u32),
            op: self.op,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(slot);
        Open { slot: Some(slot), start }
    }

    /// End a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        self.end_with(open, &[])
    }

    pub fn end_with(&mut self, open: Open, counts: &[(&'static str, f64)]) -> u64 {
        let elapsed = open.start.elapsed().as_nanos() as u64;
        if let Some(slot) = open.slot {
            let span = &mut self.spans[slot];
            span.end_ns = span.start_ns + elapsed;
            span.counts.extend_from_slice(counts);
            // Spans end innermost first; anything else is a benchmark bug.
            assert_eq!(self.stack.pop(), Some(slot), "span `{}` ended out of order", span.name);
        }
        elapsed
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans in Chrome's trace-event format (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, microsecond
    /// timestamps, and id/parent/op/self-time/counts under `args`.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(process_name)
        ));
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let mut args = format!("\"id\":{}", span.id);
            if let Some(p) = span.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(op) = span.op {
                args.push_str(&format!(",\"op\":{op}"));
            }
            args.push_str(&format!(",\"self_us\":{}", json::number(self_ns as f64 / 1e3)));
            for (k, v) in &span.counts {
                args.push_str(&format!(",\"{}\":{}", json::escape(k), json::number(*v)));
            }
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                json::escape(span.name),
                json::number(span.start_ns as f64 / 1e3),
                json::number((span.end_ns - span.start_ns) as f64 / 1e3),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: None, name: "s", start_ns, end_ns, counts: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60), // overlaps span 1 by 10
            span(3, Some(1), 10, 20),
            span(4, Some(0), 90, 130), // runs past its parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 30, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut rec = Recorder::new(true);
        let run = rec.begin("run");
        rec.set_op(Some(7));
        let op = rec.begin("op");
        let plan = rec.begin("plan");
        rec.end_with(plan, &[("rows", 3.0)]);
        rec.end(op);
        rec.set_op(None);
        rec.end(run);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].op), (Some(0), Some(7)));
        assert_eq!((s[2].parent, s[2].op), (Some(1), Some(7)));
        assert_eq!(s[2].counts, vec![("rows", 3.0)]);
        assert!(s[0].end_ns >= s[1].end_ns);
        let doc = crate::json::parse(&rec.chrome_trace("w")).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn a_recorder_that_is_off_still_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("x");
        let _ = rec.end(s);
        assert!(rec.spans().is_empty());
    }
}
