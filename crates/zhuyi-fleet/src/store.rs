//! The fleet result store: merged job outcomes, percentile aggregation,
//! and CSV/JSON/trace export.
//!
//! Exports are *deterministic*: results are kept sorted by [`JobId`], all
//! derived tables iterate in that order, and no wall-clock data enters any
//! exported byte. Two sweeps of the same plan therefore export identical
//! bytes whatever the worker count — the property pinned down by the
//! `parallel == sequential` determinism tests.

use crate::job::{JobId, JobKind, SweepJob};
use crate::search::MsfSearch;
use av_core::state::ActorId;
use av_core::units::{Meters, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use zhuyi_bench::Table;

/// Outcome of a [`JobKind::Probe`] job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeOutcome {
    /// Whether the ego collided.
    pub collided: bool,
    /// When the collision happened, if any.
    pub collision_time: Option<Seconds>,
    /// Who the ego collided with, if anyone.
    pub collision_actor: Option<ActorId>,
    /// Smallest ego-to-actor clearance over the run.
    pub min_clearance: Option<Meters>,
    /// How long the run lasted (collisions end runs early).
    pub duration: Seconds,
    /// The full trace as [`av_sim::io`] CSV, when the job asked to keep it.
    pub trace_csv: Option<String>,
}

/// Outcome of a [`JobKind::Analyze`] job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisOutcome {
    /// Whether the reference run collided (in which case no estimate is
    /// produced).
    pub collided: bool,
    /// Scenes analyzed (after striding).
    pub steps: usize,
    /// The peak per-camera rate requirement over the whole trace.
    pub max_camera_fpr: Option<f64>,
    /// Total Eq.-1/2 constraint evaluations spent.
    pub constraint_evaluations: u64,
}

/// What a finished job produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Collision probe result.
    Probe(ProbeOutcome),
    /// Minimum-safe-FPR search result.
    MinSafeFpr(MsfSearch),
    /// Zhuyi trace analysis result.
    Analysis(AnalysisOutcome),
}

/// One finished job: the job echoed back plus its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job that ran.
    pub job: SweepJob,
    /// What it produced.
    pub outcome: JobOutcome,
}

/// Nearest-rank percentile of `values` (`0 < p <= 100`); `None` for an
/// empty slice. Not an interpolating percentile: always returns an
/// observed value.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN percentile input"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Per-scenario aggregation across every seed/rate/predictor variant that
/// scenario ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// The scenario's name (Table-1 name for catalog scenarios, the
    /// declared name for registry-defined ones).
    pub name: String,
    /// Jobs that ran for it.
    pub jobs: usize,
    /// Probe/analyze runs that collided.
    pub collisions: usize,
    /// Median minimum-safe rate across seeds (MSF jobs only).
    pub msf_p50: Option<f64>,
    /// 90th-percentile minimum-safe rate across seeds.
    pub msf_p90: Option<f64>,
    /// Worst (largest) minimum-safe rate across seeds.
    pub msf_max: Option<f64>,
    /// MSF jobs whose instance still collided at the grid's largest rate
    /// (their rate is unknown above the grid; they enter the percentile
    /// columns as infinity and the JSON export as `null`).
    pub msf_above_grid: usize,
    /// Median peak Zhuyi estimate across analyze jobs.
    pub est_p50: Option<f64>,
    /// Worst peak Zhuyi estimate across analyze jobs.
    pub est_max: Option<f64>,
}

/// Merged, id-ordered results of one fleet sweep.
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    results: Vec<JobResult>,
}

impl ResultStore {
    /// Builds a store from finished jobs (re-sorted by id defensively).
    pub fn new(mut results: Vec<JobResult>) -> Self {
        results.sort_by_key(|r| r.job.id);
        Self { results }
    }

    /// The results, ascending by [`JobId`].
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    /// Number of finished jobs.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Looks a result up by id.
    pub fn get(&self, id: JobId) -> Option<&JobResult> {
        self.results
            .binary_search_by_key(&id, |r| r.job.id)
            .ok()
            .map(|i| &self.results[i])
    }

    /// One row per job, in id order — the sweep's full ledger.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new([
            "job",
            "scenario",
            "seed",
            "kind",
            "rates",
            "predictor",
            "collided",
            "collision_time_s",
            "collision_actor",
            "min_clearance_m",
            "duration_s",
            "msf",
            "sims_run",
            "grid_size",
            "max_camera_fpr",
            "steps",
        ]);
        for result in &self.results {
            let job = &result.job;
            let mut row = vec![
                job.id.0.to_string(),
                job.spec.scenario.name().to_string(),
                job.spec.seed.to_string(),
                job.spec.kind.name().to_string(),
            ];
            let dash = || "-".to_string();
            match &job.spec.kind {
                JobKind::Probe { plan, .. } => row.extend([plan.to_string(), dash()]),
                JobKind::MinSafeFpr { .. } => row.extend([dash(), dash()]),
                JobKind::Analyze {
                    plan, predictor, ..
                } => row.extend([plan.to_string(), predictor.to_string()]),
            }
            match &result.outcome {
                JobOutcome::Probe(p) => row.extend([
                    p.collided.to_string(),
                    p.collision_time
                        .map_or_else(dash, |t| format!("{:.3}", t.value())),
                    p.collision_actor.map_or_else(dash, |a| a.0.to_string()),
                    p.min_clearance
                        .map_or_else(dash, |c| format!("{:.3}", c.value())),
                    format!("{:.2}", p.duration.value()),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                ]),
                JobOutcome::MinSafeFpr(m) => row.extend([
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    m.label(),
                    m.sims_run.to_string(),
                    m.grid_size.to_string(),
                    dash(),
                    dash(),
                ]),
                JobOutcome::Analysis(a) => row.extend([
                    a.collided.to_string(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    a.max_camera_fpr.map_or_else(dash, |f| format!("{f:.2}")),
                    a.steps.to_string(),
                ]),
            }
            table.row(row);
        }
        table
    }

    /// The full ledger as CSV (header first), via [`Table::to_csv`].
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// Per-scenario summaries, in the sweep's scenario order.
    pub fn summaries(&self) -> Vec<ScenarioSummary> {
        let mut order: Vec<&str> = Vec::new();
        for result in &self.results {
            let name = result.job.spec.scenario.name();
            if !order.contains(&name) {
                order.push(name);
            }
        }
        order
            .into_iter()
            .map(|name| {
                let of_scenario: Vec<&JobResult> = self
                    .results
                    .iter()
                    .filter(|r| r.job.spec.scenario.name() == name)
                    .collect();
                let msf: Vec<f64> = of_scenario
                    .iter()
                    .filter_map(|r| match &r.outcome {
                        JobOutcome::MinSafeFpr(m) => Some(m.numeric()),
                        _ => None,
                    })
                    .collect();
                let est: Vec<f64> = of_scenario
                    .iter()
                    .filter_map(|r| match &r.outcome {
                        JobOutcome::Analysis(a) => a.max_camera_fpr,
                        _ => None,
                    })
                    .collect();
                let collisions = of_scenario
                    .iter()
                    .filter(|r| match &r.outcome {
                        JobOutcome::Probe(p) => p.collided,
                        JobOutcome::Analysis(a) => a.collided,
                        JobOutcome::MinSafeFpr(_) => false,
                    })
                    .count();
                let msf_above_grid = msf.iter().filter(|v| v.is_infinite()).count();
                ScenarioSummary {
                    name: name.to_string(),
                    jobs: of_scenario.len(),
                    collisions,
                    msf_p50: percentile(&msf, 50.0),
                    msf_p90: percentile(&msf, 90.0),
                    msf_max: percentile(&msf, 100.0),
                    msf_above_grid,
                    est_p50: percentile(&est, 50.0),
                    est_max: percentile(&est, 100.0),
                }
            })
            .collect()
    }

    /// The summaries as an aligned table.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new([
            "scenario",
            "jobs",
            "collisions",
            "msf_p50",
            "msf_p90",
            "msf_max",
            "est_p50",
            "est_max",
        ]);
        let fmt = |v: Option<f64>| match v {
            None => "-".to_string(),
            Some(x) if x.is_infinite() => ">max".to_string(),
            Some(x) => format!("{x:.1}"),
        };
        for s in self.summaries() {
            table.row([
                s.name.clone(),
                s.jobs.to_string(),
                s.collisions.to_string(),
                fmt(s.msf_p50),
                fmt(s.msf_p90),
                fmt(s.msf_max),
                fmt(s.est_p50),
                fmt(s.est_max),
            ]);
        }
        table
    }

    /// The whole sweep as a JSON document (jobs ledger + summaries).
    ///
    /// Hand-rolled writer: the workspace's serde is a hermetic no-op shim,
    /// and the document is flat enough that a real serializer buys
    /// nothing. Field order is fixed, so output is byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.results.len() * 160 + 256);
        out.push_str("{\n  \"jobs\": [");
        for (i, result) in self.results.iter().enumerate() {
            let job = &result.job;
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"id\": {}, \"scenario\": {}, \"seed\": {}, \"kind\": {}",
                job.id.0,
                json_str(job.spec.scenario.name()),
                job.spec.seed,
                json_str(job.spec.kind.name()),
            );
            match &job.spec.kind {
                JobKind::Probe { plan, .. } => {
                    let _ = write!(out, ", \"rates\": {}", json_str(&plan.to_string()));
                }
                JobKind::MinSafeFpr { candidates } => {
                    let cells: Vec<String> = candidates.iter().map(|c| c.to_string()).collect();
                    let _ = write!(out, ", \"candidates\": [{}]", cells.join(", "));
                }
                JobKind::Analyze {
                    plan, predictor, ..
                } => {
                    let _ = write!(
                        out,
                        ", \"rates\": {}, \"predictor\": {}",
                        json_str(&plan.to_string()),
                        json_str(predictor.name()),
                    );
                }
            }
            match &result.outcome {
                JobOutcome::Probe(p) => {
                    let _ = write!(
                        out,
                        ", \"collided\": {}, \"collision_time_s\": {}, \"collision_actor\": {}, \"min_clearance_m\": {}, \"duration_s\": {}",
                        p.collided,
                        json_opt_num(p.collision_time.map(|t| t.value())),
                        p.collision_actor
                            .map_or_else(|| "null".to_string(), |a| a.0.to_string()),
                        json_opt_num(p.min_clearance.map(|c| c.value())),
                        json_opt_num(Some(p.duration.value())),
                    );
                }
                JobOutcome::MinSafeFpr(m) => {
                    let _ = write!(
                        out,
                        ", \"msf\": {}, \"sims_run\": {}, \"grid_size\": {}",
                        json_str(&m.label()),
                        m.sims_run,
                        m.grid_size,
                    );
                }
                JobOutcome::Analysis(a) => {
                    let _ = write!(
                        out,
                        ", \"collided\": {}, \"max_camera_fpr\": {}, \"steps\": {}, \"constraint_evaluations\": {}",
                        a.collided,
                        json_opt_num(a.max_camera_fpr),
                        a.steps,
                        a.constraint_evaluations,
                    );
                }
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"summaries\": [");
        for (i, s) in self.summaries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"scenario\": {}, \"jobs\": {}, \"collisions\": {}, \"msf_p50\": {}, \"msf_p90\": {}, \"msf_max\": {}, \"msf_above_grid\": {}, \"est_p50\": {}, \"est_max\": {}}}",
                json_str(&s.name),
                s.jobs,
                s.collisions,
                json_opt_num(s.msf_p50),
                json_opt_num(s.msf_p90),
                json_opt_num(s.msf_max),
                s.msf_above_grid,
                json_opt_num(s.est_p50),
                json_opt_num(s.est_max),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Kept probe traces as `(file_name, csv)` pairs, in id order, named
    /// `trace_<job>_<scenario-slug>_seed<k>.csv`.
    pub fn kept_traces(&self) -> Vec<(String, &str)> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                JobOutcome::Probe(p) => p.trace_csv.as_deref().map(|csv| {
                    (
                        format!(
                            "trace_{}_{}_seed{}.csv",
                            r.job.id.0,
                            r.job.spec.scenario.slug(),
                            r.job.spec.seed
                        ),
                        csv,
                    )
                }),
                _ => None,
            })
            .collect()
    }
}

/// Encodes `s` as a quoted JSON string literal: quotes, backslashes and
/// newlines get their short escapes, every other control character a
/// `\uXXXX` escape. The distributed sweep's quarantine manifest uses it
/// too, so both exports escape identically.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number-or-null JSON value. Non-finite values map to `null` so every
/// numeric field stays monotyped for schema-driven consumers; summaries
/// carry the above-grid information separately in `msf_above_grid`.
fn json_opt_num(v: Option<f64>) -> String {
    match v {
        None => "null".to_string(),
        Some(x) if !x.is_finite() => "null".to_string(),
        Some(x) => format!("{x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_scenarios::catalog::Mrf;

    #[test]
    fn percentile_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 75.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
    }

    #[test]
    fn msf_label_and_numeric_follow_the_grid() {
        let search = |mrf| MsfSearch {
            mrf,
            sims_run: 3,
            grid_size: 4,
            grid_min: 2,
            grid_max: 6,
        };
        assert_eq!(search(Mrf::BelowMinimumTested).label(), "<2");
        assert_eq!(search(Mrf::Fpr(4)).label(), "4");
        assert_eq!(search(Mrf::AboveMaximumTested).label(), ">6");
        assert_eq!(search(Mrf::BelowMinimumTested).numeric(), 1.0);
        assert_eq!(search(Mrf::Fpr(6)).numeric(), 6.0);
        assert!(search(Mrf::AboveMaximumTested).numeric().is_infinite());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_opt_num(None), "null");
        assert_eq!(json_opt_num(Some(2.5)), "2.5");
        assert_eq!(json_opt_num(Some(f64::INFINITY)), "null");
        assert_eq!(json_opt_num(Some(f64::NAN)), "null");
    }
}
