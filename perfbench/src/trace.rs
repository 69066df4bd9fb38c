//! In-memory spans around calls into the simulator's layers.
//!
//! A [`Tracer`] records, per thread, one [`Span`] per timed call: its
//! name, start and end (nanoseconds since a shared epoch), the span that
//! was open when it started, and an operation id (a job or interval
//! index) shared by every span of one operation. Counts read from the
//! simulator at the same boundaries are recorded beside the spans. Nothing
//! is written until the run ends ([`Trace::write_jsonl`]); a disabled
//! tracer records nothing and never reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `core.run`.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index (in the same [`Trace`]) of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans and counts of one run, merged across threads.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Every span, parents before children within one thread.
    pub spans: Vec<Span>,
    /// Counter totals by name.
    pub counts: BTreeMap<String, f64>,
    /// Observed distributions by name.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    trace: Trace,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder whose times count from `epoch`; records nothing unless
    /// `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            trace: Trace::default(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.trace.spans.len();
        let start_ns = self.now_ns();
        self.trace.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes the span `id` (spans close innermost first).
    pub fn close(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let end = self.now_ns();
            assert_eq!(
                self.open.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.trace.spans[idx].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op);
        let r = f();
        self.close(id);
        r
    }

    /// Records an interval that is a wait rather than a call (from
    /// sending a request to its acknowledgement): a root span with
    /// explicit bounds.
    pub fn record(&mut self, name: &str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| {
                u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
                    .unwrap_or(u64::MAX)
            };
            let (start_ns, end_ns) = (ns(start), ns(end));
            self.trace.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: None,
                op,
            });
        }
    }

    /// Adds `value` to the counter `name` (only while tracing).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            *self.trace.counts.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// Appends one observation to the distribution `name` (only while
    /// tracing).
    pub fn count_sample(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.trace
                .samples
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// The recorded spans and counts.
    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "trace finished with open spans");
        self.trace
    }
}

impl Trace {
    /// Appends another thread's trace, re-basing its parent indices.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Observations of the distribution `name` (empty when none).
    #[must_use]
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self times of every span named `name`, in nanoseconds.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Total self time of spans named `name`, in seconds.
    #[must_use]
    pub fn total_self_s(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Counter total (0 when never counted).
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// One JSON object per line: every span, then every counter.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","op":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        for (k, v) in &self.counts {
            let _ = writeln!(out, r#"{{"count":"{k}","value":{v}}}"#);
        }
        for (k, vs) in &self.samples {
            for v in vs {
                let _ = writeln!(out, r#"{{"sample":"{k}","value":{v}}}"#);
            }
        }
        out
    }

    /// Writes [`Trace::to_jsonl`] to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// Parses what [`Trace::to_jsonl`] wrote.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut t = Trace::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("trace line {}: {what}", n + 1);
            let v = crate::json::parse(line).map_err(|e| bad(&e))?;
            if let Some(name) = v.get("count").and_then(|c| c.as_str()) {
                let value = v
                    .get("value")
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| bad("count value"))?;
                t.counts.insert(name.to_string(), value);
                continue;
            }
            if let Some(name) = v.get("sample").and_then(|c| c.as_str()) {
                let value = v
                    .get("value")
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| bad("sample value"))?;
                t.samples.entry(name.to_string()).or_default().push(value);
                continue;
            }
            let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).ok_or_else(|| bad(k));
            t.spans.push(Span {
                name: v
                    .get("name")
                    .and_then(|x| x.as_str())
                    .ok_or_else(|| bad("name"))?
                    .to_string(),
                op: num("op")? as u64,
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: v.get("parent").and_then(|x| x.as_f64()).map(|p| p as usize),
            });
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // job [0,100) holds compute [10,60) which holds core [20,50), and
        // codec [70,80); a second root [200,210) has no children.
        let t = Trace {
            spans: vec![
                span("job", 0, 100, None),
                span("compute", 10, 60, Some(0)),
                span("core", 20, 50, Some(1)),
                span("codec", 70, 80, Some(0)),
                span("job", 200, 210, None),
            ],
            ..Trace::default()
        };
        assert_eq!(t.self_times(), vec![100 - 50 - 10, 50 - 30, 30, 10, 10]);
        assert_eq!(t.self_ns("job"), vec![40.0, 10.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let t = Trace {
            spans: vec![
                span("batch", 0, 100, None),
                span("a", 10, 50, Some(0)),
                span("b", 30, 70, Some(0)),
                span("c", 90, 130, Some(0)),
            ],
            ..Trace::default()
        };
        // children cover [10,70) and [90,100): 70 of 100.
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn tracer_nests_merges_and_round_trips() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let outer = a.open("outer", 7);
        a.time("inner", 7, || std::hint::black_box(1 + 1));
        a.close(outer);
        a.count("events", 3.0);
        let mut b = Tracer::new(epoch, true);
        b.time("other", 8, || ());
        b.count("events", 2.0);
        b.count_sample("bytes", 10.0);
        b.record("wait", 8, epoch, Instant::now());
        let mut t = a.finish();
        t.merge(b.finish());
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert_eq!(t.spans[3].name, "wait");
        assert_eq!(t.count("events"), 5.0);
        assert_eq!(t.samples("bytes"), vec![10.0]);
        let back = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back.spans, t.spans);
        assert_eq!(back.counts, t.counts);
        assert_eq!(back.samples, t.samples);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now(), false);
        let id = tr.open("x", 1);
        tr.close(id);
        tr.count("y", 1.0);
        let t = tr.finish();
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
