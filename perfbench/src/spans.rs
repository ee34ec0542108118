//! Spans recorded from the benchmark's own files around each call into a
//! layer: name, start, end, parent, and a group id shared by the spans of
//! one checkpoint or batch. Kept in memory and written at exit as a Chrome
//! trace through `disco_telemetry::trace`.

use disco_telemetry::trace::{escape_json, ChromeTrace};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Checkpoint or batch the span belongs to.
    pub group: u64,
    /// Enclosing span (index into [`Tracer::spans`]).
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Extra numeric attributes.
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The attribute `key`, if attached.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|a| a.1)
    }

    /// For an engine span (one carrying upcall time): its duration minus
    /// the upcall time inside it. Traced passes run the sequential engine,
    /// so the upcalls inside a span ran one at a time.
    pub fn engine_self_ns(&self) -> Option<f64> {
        Some(self.dur_ns() as f64 - self.arg("upcall_ns")?)
    }
}

/// An open span: its start, and its slot when recording.
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    t0: Instant,
    slot: Option<usize>,
}

/// Span recorder. Disabled, it only reads the clock, which the benchmark
/// needs for its per-phase timings anyway.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        let t0 = Instant::now();
        let slot = self.on.then(|| {
            let start_ns = (t0 - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                group,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
                args: Vec::new(),
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { t0, slot }
    }

    /// Close `open`; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        self.end_with(open, Vec::new)
    }

    /// Close `open`, attaching `args()` (evaluated only when recording).
    pub fn end_with(&mut self, open: Open, args: impl FnOnce() -> Vec<(String, f64)>) -> f64 {
        let elapsed = open.t0.elapsed();
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(slot), "spans close innermost first");
            let span = &mut self.spans[slot];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            span.args = args();
        }
        elapsed.as_secs_f64()
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its child spans
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Render the spans as a Chrome `trace_event` document; `summary` is
    /// a ready-made JSON object added at the top level.
    pub fn chrome_json(&self, summary: &str) -> String {
        let mut tr = ChromeTrace::new();
        tr.thread_name(1, "perfbench");
        for ((i, s), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let mut args = format!(
                "{{\"id\":{i},\"parent\":{},\"group\":{},\"self_us\":{:.3}",
                s.parent.map_or(-1, |p| p as i64),
                s.group,
                self_ns as f64 * 1e-3
            );
            for (k, v) in &s.args {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(args, ",\"{}\":{v}", escape_json(k));
            }
            args.push('}');
            tr.complete(
                s.name,
                1,
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                Some(&args),
            );
        }
        tr.into_json(&[("perfbench_summary", summary.to_string())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_is_valid_json() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 0);
        let inner = tr.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end_with(inner, || vec![("k".to_string(), 1.5)]);
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = tr.self_ns();
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
        let json = tr.chrome_json("{}");
        disco_telemetry::validate_json(&json).expect("valid trace JSON");
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x", 0);
        assert!(tr.end(s) >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
