//! Spans recorded around the benchmark's calls into the library's public
//! functions: name, start, end, parent span and operation id. Spans stay in
//! memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (nothing when tracing is off).
pub struct Open {
    idx: Option<usize>,
    started: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off; operations outside a traced stretch
    /// still get their durations, just no spans.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.open.last().copied(),
                start_ns: (started - self.t0).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, started }
    }

    /// Closes a span; returns its duration in seconds either way.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = span.idx {
            self.spans[i].end_ns = (now - self.t0).as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
        (now - span.started).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is the span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one CSV line: `op,name,parent,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "op,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                f,
                "{},{},{},{},{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
