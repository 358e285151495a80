//! Trace subsystem tests: span nesting/ordering invariants, Chrome-trace
//! JSON schema validation, and the zero-cost guarantee (results and cost
//! snapshots bit-identical with tracing off vs. on).

use dmsim::{run_spmd_traced, AllToAll, RankTrace, SpanKind, TraceLevel, TraceSink, EDISON};
use proptest::prelude::*;
use std::sync::Arc;

/// SPMD body exercising steps, ops-level spans, and several collectives.
fn traced_body(c: &mut dmsim::Comm) -> (Vec<u64>, u64) {
    let w = c.world();
    let p = c.size();
    let step = c.span_open(SpanKind::CondHook);
    let gathered = c.allgatherv(&w, vec![c.rank() as u64; c.rank() + 1]);
    let bufs: Vec<Vec<u64>> = (0..p).map(|d| vec![(c.rank() + d) as u64; 3]).collect();
    let exchanged = c.alltoallv(&w, bufs, AllToAll::Sparse);
    let d = c.span_close(step);
    assert!(d >= 0.0);
    let step2 = c.span_open(SpanKind::Shortcut);
    c.barrier(&w);
    let total = c.allreduce(&w, c.rank() as u64, |a, b| a + b);
    c.span_close(step2);
    let flat: Vec<u64> = gathered.into_iter().chain(exchanged).flatten().collect();
    (flat, total)
}

fn nesting_invariants(rt: &RankTrace) {
    // Records are appended at open time, so start times never decrease.
    for w in rt.spans.windows(2) {
        assert!(
            w[1].start_s >= w[0].start_s,
            "rank {}: spans out of open order",
            rt.rank
        );
    }
    for sp in &rt.spans {
        assert!(sp.end_s >= sp.start_s, "rank {}: negative span", rt.rank);
        assert!(sp.end_s.is_finite(), "rank {}: unclosed span", rt.rank);
    }
    // Proper nesting: any later span either starts after an earlier one
    // ended, or closes before it does. The simulated clock is monotone and
    // shared endpoints come from the same clock read, so the comparisons
    // are exact.
    for i in 0..rt.spans.len() {
        for j in i + 1..rt.spans.len() {
            let (a, b) = (&rt.spans[i], &rt.spans[j]);
            assert!(
                b.start_s >= a.end_s || b.end_s <= a.end_s,
                "rank {}: spans {i} and {j} interleave: {a:?} vs {b:?}",
                rt.rank
            );
        }
    }
    // Recorded depths match a stack replay over the intervals.
    let mut stack: Vec<f64> = Vec::new(); // end times of open ancestors
    for sp in &rt.spans {
        while let Some(&end) = stack.last() {
            if end <= sp.start_s && !(end == sp.start_s && sp.end_s == end) {
                stack.pop();
            } else {
                break;
            }
        }
        assert!(
            sp.depth as usize <= stack.len(),
            "rank {}: depth {} exceeds replay depth {}",
            rt.rank,
            sp.depth,
            stack.len()
        );
        stack.push(sp.end_s);
    }
}

#[test]
fn span_nesting_and_ordering_p1_and_p4() {
    for p in [1usize, 4] {
        let sink = TraceSink::new(TraceLevel::Collectives);
        run_spmd_traced(p, EDISON.lacc_model(), Some(&sink), |c| {
            traced_body(c);
        })
        .unwrap();
        let traces = sink.rank_traces();
        assert_eq!(traces.len(), p);
        for (i, rt) in traces.iter().enumerate() {
            assert_eq!(rt.rank, i);
            assert!(!rt.spans.is_empty());
            // The first span opened on every rank is the CondHook step.
            assert_eq!(rt.spans[0].kind, SpanKind::CondHook);
            assert_eq!(rt.spans[0].depth, 0);
            nesting_invariants(rt);
        }
        if p > 1 {
            // A sparse exchange nests its count exchange as a child span.
            let rt = &traces[0];
            let sparse_idx = rt
                .spans
                .iter()
                .position(|s| s.kind == SpanKind::Alltoallv(AllToAll::Sparse))
                .expect("sparse alltoallv span");
            assert_eq!(
                rt.spans[sparse_idx + 1].kind,
                SpanKind::Alltoallv(AllToAll::Hypercube),
                "count exchange nested inside sparse alltoallv"
            );
            assert!(rt.spans[sparse_idx + 1].depth > rt.spans[sparse_idx].depth);
        }
    }
}

#[test]
fn trace_level_gates_span_kinds() {
    let sink = TraceSink::new(TraceLevel::Steps);
    run_spmd_traced(4, EDISON.lacc_model(), Some(&sink), |c| {
        traced_body(c);
    })
    .unwrap();
    for rt in sink.rank_traces() {
        assert_eq!(rt.spans.len(), 2, "steps level records only step spans");
        assert!(rt
            .spans
            .iter()
            .all(|s| matches!(s.kind, SpanKind::CondHook | SpanKind::Shortcut)));
    }
}

#[test]
fn sink_collects_snapshots_even_when_off() {
    let sink = TraceSink::new(TraceLevel::Off);
    run_spmd_traced(2, EDISON.lacc_model(), Some(&sink), |c| {
        traced_body(c);
    })
    .unwrap();
    let traces = sink.rank_traces();
    assert_eq!(traces.len(), 2);
    for rt in &traces {
        assert!(rt.spans.is_empty());
        assert!(rt.snapshot.clock_s > 0.0);
    }
    let report = sink.report();
    assert_eq!(report.p, 2);
    assert!(report.load_imbalance >= 1.0);
    assert!(report.rank_words.iter().all(|&w| w > 0));
}

#[test]
fn collective_variant_spans_all_appear() {
    let sink = TraceSink::new(TraceLevel::Collectives);
    run_spmd_traced(4, EDISON.lacc_model(), Some(&sink), |c| {
        let w = c.world();
        for algo in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
            let bufs: Vec<Vec<u64>> = (0..4).map(|d| vec![d as u64; 2]).collect();
            c.alltoallv(&w, bufs, algo);
        }
        c.bcast_vec(&w, 0, (c.rank() == 0).then(|| vec![1u64]));
        let parts: Vec<Vec<u64>> = (0..4).map(|_| vec![1u64; 2]).collect();
        c.reduce_scatter(&w, parts, |a, b| *a += b);
    })
    .unwrap();
    let json = sink.chrome_trace_json();
    for needle in [
        "alltoallv(pairwise)",
        "alltoallv(hypercube)",
        "alltoallv(sparse)",
        "bcast",
        "reduce_scatter",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    let report = sink.report();
    assert!(report.kind_time_s("alltoallv(pairwise)") > 0.0);
    assert_eq!(
        report
            .per_kind
            .iter()
            .find(|k| k.name == "bcast")
            .unwrap()
            .count,
        4,
        "one bcast span per rank"
    );
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (test-only) for schema validation of the export.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("expected number, got {other:?}"),
        }
    }
    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        *self.b.get(self.i).expect("unexpected end of JSON")
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => self.number(),
        }
    }
    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                c => panic!("bad object separator {:?}", c as char),
            }
        }
    }
    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                c => panic!("bad array separator {:?}", c as char),
            }
        }
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut s = String::new();
        loop {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return s,
                b'\\' => {
                    s.push(self.b[self.i] as char);
                    self.i += 1;
                }
                _ => s.push(c as char),
            }
        }
    }
    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("utf8 number");
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing bytes after JSON document");
    v
}

#[test]
fn chrome_trace_json_schema() {
    let p = 4;
    let sink = TraceSink::new(TraceLevel::Collectives);
    run_spmd_traced(p, EDISON.lacc_model(), Some(&sink), |c| {
        traced_body(c);
    })
    .unwrap();
    let doc = parse_json(&sink.chrome_trace_json());
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty());
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), "ms");
    let known = [
        "cond_hook",
        "uncond_hook",
        "shortcut",
        "starcheck",
        "mxv",
        "assign",
        "extract",
        "barrier",
        "bcast",
        "allgatherv",
        "allreduce",
        "reduce_scatter",
        "gatherv",
        "alltoallv(pairwise)",
        "alltoallv(hypercube)",
        "alltoallv(sparse)",
    ];
    for ev in events {
        assert!(known.contains(&ev.get("name").expect("name").as_str()));
        assert!(["step", "op", "collective"].contains(&ev.get("cat").expect("cat").as_str()));
        assert_eq!(ev.get("ph").expect("ph").as_str(), "X");
        assert!(ev.get("ts").expect("ts").as_num() >= 0.0);
        assert!(ev.get("dur").expect("dur").as_num() >= 0.0);
        assert_eq!(ev.get("pid").expect("pid").as_num(), 0.0);
        let tid = ev.get("tid").expect("tid").as_num();
        assert!(tid >= 0.0 && tid < p as f64);
        let args = ev.get("args").expect("args");
        assert!(args.get("words").expect("words").as_num() >= 0.0);
        assert!(args.get("ops").expect("ops").as_num() >= 0.0);
        assert!(args.get("depth").expect("depth").as_num() >= 0.0);
    }
}

// ---------------------------------------------------------------------------
// Zero-cost guarantee: tracing must not perturb results or cost accounting.
// ---------------------------------------------------------------------------

fn arb_shapes(p: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..30, p), p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tracing_off_vs_collectives_is_bit_identical(
        shape in arb_shapes(4),
        algo_idx in 0usize..3,
    ) {
        let p = 4;
        let algo = [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse][algo_idx];
        let shape_ref = &shape;
        let run = |sink: Option<&Arc<TraceSink>>| {
            run_spmd_traced(p, EDISON.lacc_model(), sink, move |c| {
                let w = c.world();
                let step = c.span_open(SpanKind::UncondHook);
                let bufs: Vec<Vec<u64>> = shape_ref[c.rank()]
                    .iter()
                    .enumerate()
                    .map(|(d, &len)| (0..len).map(|k| (c.rank() * 997 + d * 31 + k) as u64).collect())
                    .collect();
                let exchanged = c.alltoallv(&w, bufs, algo);
                let total = c.allreduce(&w, exchanged.iter().map(Vec::len).sum::<usize>() as u64, |a, b| a + b);
                c.span_close(step);
                (exchanged, total, c.snapshot())
            })
            .unwrap()
        };
        let off = run(None);
        let sink = TraceSink::new(TraceLevel::Collectives);
        let on = run(Some(&sink));
        for rank in 0..p {
            // Results and CostSnapshot (clock, compute/comm seconds, all
            // counters) must be identical — `CostSnapshot: PartialEq`
            // compares the f64 fields exactly.
            prop_assert_eq!(&off[rank].0, &on[rank].0, "results differ on rank {}", rank);
            prop_assert_eq!(off[rank].1, on[rank].1);
            prop_assert_eq!(off[rank].2, on[rank].2, "cost snapshot differs on rank {}", rank);
        }
        // And the traced run actually recorded something.
        let traces = sink.rank_traces();
        prop_assert_eq!(traces.len(), p);
        prop_assert!(traces.iter().all(|rt| !rt.spans.is_empty()));
    }
}
