//! Collected results of one benchmark run and the two ways they are
//! printed: an aligned human-readable table, then one JSON object as the
//! last line of stdout.

use crate::common::{HostProbe, SETUP_REPS};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human context: which end-to-end metric a layer metric moves, the
    /// percentile and sample count behind a timing, or an alias.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the JSON result line.
    pub metrics: Vec<Metric>,
    /// Extra human-only lines (aliases, fail ratio, sample counts).
    pub info: Vec<Metric>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a correctness gate.
    pub failed: u64,
    /// Every correctness-gate failure, in the order found.
    pub gate_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds the end-to-end metrics of an untraced run, plus the fail
    /// ratio the JSON carries as `attempted` and `failed`. With a host
    /// probe, timings are scaled to the reference host's speed (see
    /// [`HostProbe`]) and the table also shows them as measured.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        let n = e.latencies_ms.len();
        let tail_pct = e.tail * 100.0;
        let slowdown = e.host.map_or(1.0, HostProbe::slowdown);
        let iqm = interquartile_mean(e.latencies_ms);
        let tail = quantile(e.latencies_ms, e.tail);
        let timings = [
            (
                "ops_per_s",
                e.ops_per_s,
                1.0 / slowdown,
                "1/s",
                e.ops.to_string(),
            ),
            (
                "latency_ms_iqm",
                iqm,
                slowdown,
                "ms",
                format!("{}: mean of the middle half of {n}", e.op),
            ),
            (
                "latency_ms_tail",
                tail,
                slowdown,
                "ms",
                format!("{}: p{tail_pct:.0} of {n}", e.op),
            ),
            (
                "setup_s",
                e.setup_s,
                slowdown,
                "s",
                format!("{}, median of {SETUP_REPS}", e.setup),
            ),
        ];
        for (name, measured, per, unit, note) in timings {
            self.metric(name, measured / per, unit, note);
            if e.host.is_some() {
                self.info(
                    &format!("measured.{name}"),
                    measured,
                    unit,
                    "before host-speed scaling",
                );
            }
        }
        if let Some(host) = e.host {
            self.info(
                "host.slowdown",
                slowdown,
                "ratio",
                format!("median of {} host probes / reference", host.samples()),
            );
        }
        self.metric(
            "peak_rss_mb",
            e.rss_mb,
            "MB",
            "VmHWM of the benchmark process",
        );
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.info(
            "fail_ratio",
            fail_ratio,
            "ratio",
            "failed / attempted operations",
        );
    }

    /// Records a correctness-gate outcome; a failed gate also fails the
    /// operation it checked.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the table, then the JSON result line.
    pub fn print(&self, workload: &str, trace: bool) {
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "perfbench {workload} ({}, {cores} cores): {} attempted, {} failed",
            if trace { "traced run" } else { "untraced run" },
            self.attempted,
            self.failed
        );
        let width = self
            .metrics
            .iter()
            .chain(&self.info)
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0);
        for m in self.metrics.iter().chain(&self.info) {
            println!(
                "  {:width$}  {:>14.4} {:6}  {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for failure in &self.gate_failures {
            println!("  GATE FAILED: {failure}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // Rust's `{}` for f64 is the shortest string that round-trips,
            // i.e. every significant digit. Non-finite values are not
            // JSON; they are caught as gate failures before printing.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }

    /// Fails the run if any JSON metric is not a finite number.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite ({})", m.name, m.value))
            .collect();
        self.gate_failures.extend(bad);
    }
}

/// What every workload's untraced run measured.
#[derive(Debug)]
pub struct EndToEnd<'a> {
    /// Work units per second of measured time.
    pub ops_per_s: f64,
    /// What a work unit is.
    pub ops: &'a str,
    /// Latency of every operation a user waits for.
    pub latencies_ms: &'a [f64],
    /// What one operation is.
    pub op: &'a str,
    /// The quantile `latency_ms_tail` reports.
    pub tail: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// What set-up covers.
    pub setup: &'a str,
    /// Peak RSS at the end of the measured region.
    pub rss_mb: f64,
    /// The host's speed over the run, for workloads that keep every core
    /// busy; `None` reports timings as measured.
    pub host: Option<&'a HostProbe>,
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The mean of the middle half of `values` (the interquartile mean);
/// `NaN` for an empty slice.
///
/// The central latency metric uses it, not the median: when latencies
/// fall in clusters with gaps between them, the median can sit in a gap
/// and jump to the next cluster on a small shift in the mix, while the
/// mean of the middle half moves in proportion.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    mean(&sorted[n / 4..n - n / 4])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process so far (`VmHWM`), in MB. The
/// in-process pool, daemon, and coordinator all count; spawned worker
/// processes do not.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
