//! The poisoned-job quarantine manifest: which jobs a distributed sweep
//! gave up on, and every recorded strike against them.
//!
//! Quarantine is the coordinator's graceful-degradation contract: a job
//! that keeps failing (K strikes — contained panics, expired deadlines)
//! is pulled out of the schedule instead of wedging or aborting the
//! sweep. The sweep then *completes*, the main CSV/JSON exports carry
//! only trustworthy completed jobs (byte-identical to a single-process
//! run over the same surviving set), and the quarantined remainder is
//! reported here — printed after the stats and exported as a sibling
//! `*.quarantine.csv` / `*.quarantine.json` artifact so automation can
//! assert it is empty on a clean pass.

use zhuyi_bench::Table;
use zhuyi_fleet::store::json_str;
use zhuyi_fleet::SweepJob;

use crate::wire::JobError;

/// One quarantined job plus the strikes that condemned it, in the order
/// they were recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The job the sweep gave up on.
    pub job: SweepJob,
    /// Every recorded failure, oldest first; its length is exactly the
    /// configured strike limit.
    pub strikes: Vec<JobError>,
}

/// The full quarantine ledger of one distributed sweep, job-id ordered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuarantineManifest {
    entries: Vec<QuarantineEntry>,
}

impl QuarantineManifest {
    /// Builds a manifest, sorting entries into job-id order so exports
    /// are deterministic regardless of quarantine timing.
    pub fn new(mut entries: Vec<QuarantineEntry>) -> Self {
        entries.sort_by_key(|e| e.job.id.0);
        Self { entries }
    }

    /// The entries, ascending by job id.
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// Number of quarantined jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was quarantined — the clean-pass invariant CI
    /// asserts on.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One row per quarantined job.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(["job", "scenario", "seed", "kind", "strikes", "errors"]);
        for entry in &self.entries {
            let job = &entry.job;
            let kinds: Vec<&str> = entry.strikes.iter().map(|s| s.kind.name()).collect();
            let last = entry
                .strikes
                .last()
                .map_or_else(String::new, |s| sanitize(&s.detail));
            table.row(vec![
                job.id.0.to_string(),
                job.spec.scenario.name().to_string(),
                job.spec.seed.to_string(),
                job.spec.kind.name().to_string(),
                entry.strikes.len().to_string(),
                format!("{} | {last}", kinds.join(";")),
            ]);
        }
        table
    }

    /// The manifest as CSV (header always present, so an empty manifest
    /// is a header-only file automation can diff against).
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// The manifest as a JSON document with per-strike details.
    ///
    /// Hand-rolled like every export in the workspace (the vendored
    /// serde is a no-op shim); field order fixed, byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"quarantined\": [");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"job\": {}, \"scenario\": {}, \"seed\": {}, \"kind\": {}, \"strikes\": [",
                entry.job.id.0,
                json_str(entry.job.spec.scenario.name()),
                entry.job.spec.seed,
                json_str(entry.job.spec.kind.name()),
            ));
            for (j, strike) in entry.strikes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"kind\": {}, \"detail\": {}}}",
                    json_str(strike.kind.name()),
                    json_str(&sanitize(&strike.detail)),
                ));
            }
            out.push_str("]}");
        }
        if self.entries.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Flattens a failure detail (panic messages span lines) to one bounded
/// line so CSV rows and log lines stay intact.
fn sanitize(detail: &str) -> String {
    let mut flat: String = detail
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    if flat.len() > 200 {
        let mut cut = 200;
        while !flat.is_char_boundary(cut) {
            cut -= 1;
        }
        flat.truncate(cut);
        flat.push_str("...");
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::JobErrorKind;
    use av_scenarios::catalog::ScenarioId;
    use zhuyi_fleet::{JobId, JobKind, JobSpec, RateSpec};

    fn entry(id: u64, strikes: usize) -> QuarantineEntry {
        QuarantineEntry {
            job: SweepJob {
                id: JobId(id),
                spec: JobSpec {
                    scenario: ScenarioId::CutOut.into(),
                    seed: 3,
                    kind: JobKind::Probe {
                        plan: RateSpec::Uniform(4.0),
                        keep_trace: false,
                    },
                },
            },
            strikes: (0..strikes)
                .map(|k| JobError {
                    kind: JobErrorKind::Panic,
                    detail: format!("strike {k}:\nmulti-line, \"quoted\""),
                })
                .collect(),
        }
    }

    #[test]
    fn manifest_orders_entries_by_job_id() {
        let manifest = QuarantineManifest::new(vec![entry(9, 1), entry(2, 3)]);
        let ids: Vec<u64> = manifest.entries().iter().map(|e| e.job.id.0).collect();
        assert_eq!(ids, vec![2, 9]);
        assert_eq!(manifest.len(), 2);
        assert!(!manifest.is_empty());
    }

    #[test]
    fn empty_manifest_exports_are_header_only() {
        let manifest = QuarantineManifest::default();
        assert!(manifest.is_empty());
        assert_eq!(manifest.to_csv(), "job,scenario,seed,kind,strikes,errors\n");
        assert_eq!(manifest.to_json(), "{\n  \"quarantined\": []\n}\n");
    }

    #[test]
    fn exports_flatten_multiline_panic_details() {
        let manifest = QuarantineManifest::new(vec![entry(5, 3)]);
        let csv = manifest.to_csv();
        assert_eq!(csv.lines().count(), 2, "header + one row: {csv}");
        assert!(csv.contains("panic;panic;panic"));
        let json = manifest.to_json();
        assert!(json.contains("\"strikes\": [{\"kind\": \"panic\""));
        assert!(!json.contains("strike 0:\n"), "details must be flattened");
        // Deterministic: same manifest, same bytes.
        assert_eq!(
            manifest.to_json(),
            QuarantineManifest::new(vec![entry(5, 3)]).to_json()
        );
    }
}
