//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files around each call into a
//! layer (`setup`, every `lacc::run`, `apply_batch`, query burst and layer
//! probe) — never from inside the program under test. They live in memory
//! and are written once, at exit, as Chrome-trace JSON (`--trace-out`).
//! A span knows its parent, so a layer's *self* time is its spans'
//! duration minus the part their children cover.
//!
//! The recorder is disabled for the untraced (`--trace 0`) pass: `open`
//! then returns a dead handle and records nothing, which is what keeps
//! end-to-end timings free of tracing cost.

use crate::json::escape;
use std::time::Instant;

/// Handle to an open span (index into the recorder; dead when disabled).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

const DEAD: usize = usize::MAX;

#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    layer: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span store for one workload invocation.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    trace_id: u64,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; `trace_id` is shared by every span of this invocation.
    pub fn new(enabled: bool, trace_id: u64) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span of `layer` (a crate name) under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(DEAD);
        }
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_string(),
            layer,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            counts: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Attaches a count to an open or closed span (work done at that
    /// boundary: edges, batches, queries, bytes).
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        if id.0 != DEAD {
            self.spans[id.0].counts.push((key, value));
        }
    }

    /// Closes `id`; spans close innermost-first.
    pub fn close(&mut self, id: SpanId) {
        if id.0 == DEAD {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_us = self.now_us();
    }

    /// Self time per layer in seconds (span duration minus its children),
    /// layers in first-seen order.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(child_us) {
            let own = (s.end_us - s.start_us - kids).max(0.0) / 1e6;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(e) => e.1 += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// The spans as a Chrome-trace document (`ts`/`dur` in microseconds;
    /// `args` carry the span id, its parent, the invocation id and counts).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}",
                escape(&s.name),
                s.layer,
                s.start_us,
                s.end_us - s.start_us,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.trace_id
            ));
            for (k, v) in &s.counts {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded (always, when disabled).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut r = Recorder::new(true, 42);
        let outer = r.open("core", "run");
        let inner = r.open("gblas", "probe");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.count(inner, "words", 8.0);
        r.close(inner);
        r.close(outer);
        let doc = Json::parse(&r.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("trace").and_then(Json::as_f64), Some(42.0));
        assert_eq!(args.get("words").and_then(Json::as_f64), Some(8.0));
        let by_layer = r.self_time_by_layer();
        let of = |l: &str| by_layer.iter().find(|(k, _)| *k == l).unwrap().1;
        // The child's 2 ms belong to gblas, not to its parent.
        assert!(of("gblas") >= 0.002);
        assert!(of("core") < of("gblas"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 1);
        let s = r.open("core", "run");
        r.count(s, "n", 1.0);
        r.close(s);
        assert!(r.is_empty());
        assert_eq!(
            r.chrome_trace_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
