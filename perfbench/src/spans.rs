//! The traced run's span recorder: a span per call into a layer, kept in
//! memory and summarized (or written out as JSON lines) when the run ends.
//!
//! Spans are recorded by the benchmark around public calls; nothing inside
//! the program is instrumented. Spans of one request (a sweep job, a
//! control step, a plan) share a request id, and each span names the span
//! that caused it, so a layer's self time can be derived offline.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            name,
            parent,
            request,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        };
        self.records.lock().expect("span log poisoned").push(span);
        out
    }

    fn durations(&self, name: &str, scale: f64) -> Vec<f64> {
        self.records
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / scale)
            .collect()
    }

    /// Every duration of spans called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.durations(name, 1e6)
    }

    /// Every duration of spans called `name`, in microseconds.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.durations(name, 1e3)
    }

    /// Sum of the durations of spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name, 1e9).iter().sum()
    }

    /// Appends every span to `out` as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for s in self.records.lock().expect("span log poisoned").iter() {
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
    }
}
