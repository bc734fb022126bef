//! The sweep coordinator: shards a [`SweepPlan`] across worker processes,
//! reassigns work on crashes, checkpoints completed jobs, and merges
//! results deterministically.
//!
//! # Scheduler
//!
//! Pending jobs are chunked into contiguous *shards* (batches) that idle
//! workers pull from a shared queue — dynamic self-scheduling, so fast
//! workers naturally take more shards. When the queue runs dry and a
//! worker goes idle, the scheduler **steals the tail half** of the busiest
//! in-flight shard: the stolen job ids are revoked from the victim (which
//! skips any of them it has not started) and assigned to the idle worker.
//! A job that both workers end up executing is harmless — execution is a
//! pure function of the job, and the merge keeps only the first result
//! per id.
//!
//! # Worker lifecycle
//!
//! ```text
//!           spawn/accept          Assign             BatchDone
//!  (child) ────────────► idle ──────────► busy ────────────► idle ─► ...
//!                          │                │ socket EOF /
//!                          │                │ heartbeat timeout
//!                          ▼                ▼
//!                        dead ◄──────── dead: shard's unfinished jobs
//!                    (respawn if          requeue at the front
//!                     coordinator-spawned
//!                     and budget remains)
//! ```
//!
//! Crash detection is two-layered: a closed socket (EOF mid-read) is
//! immediate, and a heartbeat timeout catches connections that died
//! without an EOF (half-open sockets, vanished hosts). A worker whose
//! *simulation* wedges is deliberately not declared dead by heartbeats —
//! its ticker thread keeps beating, and since job execution is
//! deterministic, a wedged job would wedge identically on any other
//! worker; [`DistConfig::stall_timeout`] is the backstop that ends such
//! a run with an explicit error. Workers the coordinator spawned itself
//! are respawned (fresh, without fault-injection flags) while work
//! remains and the respawn budget allows; externally joined workers are
//! simply dropped.
//!
//! # Fault tolerance
//!
//! Beyond whole-worker crashes, the coordinator survives *per-job*
//! failures without aborting the sweep:
//!
//! - a worker's contained panic arrives as [`Frame::JobFailed`] and
//!   counts one **strike** against the job; the job is requeued;
//! - an optional per-job deadline ([`DistConfig::job_deadline`]) strikes
//!   a job whose shard stops yielding results — the wedged worker is
//!   dropped (and its spawned process killed, so the respawn path brings
//!   up a replacement) and the shard's remainder requeued;
//! - at [`DistConfig::max_job_failures`] strikes a job is **quarantined**:
//!   pulled from every queue, revoked wherever assigned, and reported in
//!   the [`DistReport::quarantine`] manifest. The sweep then *completes*
//!   over the surviving jobs — graceful degradation, never a poisoned
//!   hang;
//! - an optional sampled fraction of jobs
//!   ([`DistConfig::verify_fraction`]) is executed **twice**, on the
//!   back of the queue; because execution is bit-deterministic the two
//!   encoded results must match byte-for-byte, so any mismatch is
//!   executor corruption and fails the run loudly with
//!   [`DistError::VerifyMismatch`].
//!
//! # Determinism invariant
//!
//! The merged [`ResultStore`] is built exclusively from id-deduplicated
//! results sorted by [`zhuyi_fleet::JobId`] — the same merge a
//! single-process [`zhuyi_fleet::run_sweep`] performs — so worker count,
//! shard boundaries, steals, crashes, and checkpoint resumes cannot change
//! a single exported byte. `tests/dist_determinism.rs` pins this, and
//! `tests/chaos.rs` extends it under injected fault storms: completed-job
//! exports stay byte-identical to a clean single-process run over the
//! same surviving job set.

use crate::faultnet::{self, ChaosSpec};
use crate::journal::{self, JournalError, JournalRecord, JournalWriter};
use crate::quarantine::{QuarantineEntry, QuarantineManifest};
use crate::wire::{self, Frame, JobError, JobErrorKind, WireError, PROTOCOL_VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use zhuyi_fleet::{ExecOptions, JobId, JobResult, ResultStore, SweepJob, SweepPlan};
use zhuyi_telemetry::{Counter, FlightRecorder, Gauge, Registry, Snapshot};

/// Configuration of one distributed sweep run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker processes the coordinator spawns itself (0 is allowed when
    /// [`DistConfig::listen`] accepts external workers).
    pub spawn_workers: usize,
    /// Path of the `fleet_shard` worker binary; `None` resolves a sibling
    /// of the current executable (see [`default_worker_binary`]).
    pub worker_binary: Option<PathBuf>,
    /// Additional listen address (`host:port`) for workers joining from
    /// other processes or hosts via `--connect`. `None` binds an ephemeral
    /// loopback port used only by spawned workers.
    pub listen: Option<String>,
    /// Checkpoint file, a one-plan [`crate::journal`]: completed jobs
    /// append here and an existing, fingerprint-matching file is resumed
    /// instead of re-simulated.
    pub checkpoint: Option<PathBuf>,
    /// Sweep-wide execution options, forwarded to every worker.
    pub options: ExecOptions,
    /// Jobs per shard; `None` derives `ceil(pending / (workers * 4))`,
    /// small enough for the pull queue to balance, large enough to
    /// amortize frames.
    pub batch_size: Option<usize>,
    /// A worker silent for longer than this is declared dead.
    pub heartbeat_timeout: Duration,
    /// Hard cap on sweep-wide silence: if no result arrives for this long
    /// the run aborts with [`DistError::Stalled`] instead of hanging.
    pub stall_timeout: Duration,
    /// Replacement processes the coordinator may spawn for crashed
    /// spawned workers.
    pub max_respawns: usize,
    /// Extra argv appended to the k-th *initially* spawned worker —
    /// the fault-injection hook (`--fail-after N`) the crash tests use.
    /// Respawned replacements never inherit these.
    pub worker_extra_args: Vec<Vec<String>>,
    /// Extra argv appended to every *respawned* replacement worker.
    /// Empty (the default) keeps respawns clean; the chaos tests use it
    /// to make replacements inherit a `--poison-job`/`--wedge-job` fault
    /// (but never chaos or `--fail-after` flags, which must not recur).
    pub respawn_extra_args: Vec<String>,
    /// Strikes (contained panics, expired deadlines) a job may accrue
    /// before it is quarantined; clamped to at least 1.
    pub max_job_failures: usize,
    /// If set, a shard that yields no result for this long strikes the
    /// job it is stuck on and drops (and kills, if spawned) its worker.
    /// Must comfortably exceed the slowest honest job.
    pub job_deadline: Option<Duration>,
    /// Fraction (0.0–1.0) of jobs sampled for duplicate-execution
    /// cross-checking; sampled ids are chosen by a hash of the job id
    /// and the plan fingerprint, so the same sweep verifies the same
    /// jobs on every run.
    pub verify_fraction: f64,
    /// Deterministic fault injection: spawned workers receive
    /// `--chaos-profile`/`--chaos-seed` flags derived from this spec
    /// (per-worker seeds via [`faultnet::derive_worker_seed`]).
    /// Respawned replacements never inherit chaos.
    pub chaos: Option<ChaosSpec>,
    /// Test hook: abort the run (checkpoint intact) after this many fresh
    /// results, simulating a coordinator crash mid-sweep.
    pub abort_after_results: Option<usize>,
    /// Collect telemetry: workers run with an installed registry and
    /// piggyback cumulative [`Frame::Metrics`] snapshots on the result
    /// stream; the coordinator folds them (in worker-id order) with its
    /// own scheduling counters into [`DistReport::telemetry`]. Telemetry
    /// is strictly out-of-band — it cannot change a single exported byte.
    pub telemetry: bool,
    /// Serve a Prometheus-style plaintext exposition of the live folded
    /// telemetry on this `host:port` for the duration of the run.
    /// Implies telemetry collection even when [`DistConfig::telemetry`]
    /// is off.
    pub metrics_listen: Option<String>,
    /// Directory for flight-recorder dumps. When set, the coordinator
    /// keeps a bounded ring of recent scheduling events and writes
    /// `flight-job<ID>-<trigger>.json` post-mortems on every job panic,
    /// deadline strike, and quarantine.
    pub flight_dir: Option<PathBuf>,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            spawn_workers: 2,
            worker_binary: None,
            listen: None,
            checkpoint: None,
            options: ExecOptions::default(),
            batch_size: None,
            heartbeat_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(600),
            max_respawns: 3,
            worker_extra_args: Vec::new(),
            respawn_extra_args: Vec::new(),
            max_job_failures: 3,
            job_deadline: None,
            verify_fraction: 0.0,
            chaos: None,
            abort_after_results: None,
            telemetry: false,
            metrics_listen: None,
            flight_dir: None,
        }
    }
}

/// Counters describing how a distributed run actually unfolded. None of
/// these influence the merged output (see the determinism invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Workers that completed the handshake.
    pub workers_connected: usize,
    /// Workers lost to EOF or heartbeat timeout.
    pub workers_lost: usize,
    /// Replacement processes spawned for crashed spawned workers.
    pub workers_respawned: usize,
    /// Shards assigned (including reassignments and stolen shards).
    pub batches_assigned: usize,
    /// Shards whose unfinished jobs were requeued after a worker died.
    pub batches_reassigned: usize,
    /// Jobs moved to an idle worker by tail stealing.
    pub jobs_stolen: usize,
    /// Results discarded because another worker delivered the job first.
    pub duplicate_results: usize,
    /// Jobs recovered from the checkpoint instead of executed.
    pub resumed_jobs: usize,
    /// Jobs executed (first results) this run.
    pub executed_jobs: usize,
    /// Strikes recorded (contained panics + deadline expiries).
    pub job_failures: usize,
    /// Strikes that came from an expired per-job deadline.
    pub deadline_strikes: usize,
    /// Jobs that reached the strike limit and were quarantined.
    pub jobs_quarantined: usize,
    /// Jobs sampled for duplicate-execution cross-checking.
    pub verify_jobs: usize,
    /// Cross-checked job pairs whose encoded results matched exactly.
    pub verify_confirmed: usize,
    /// Respawn attempts that failed to start a process (each consumes
    /// one unit of the respawn budget and is retried after a backoff).
    pub respawn_failures: usize,
}

/// A finished distributed sweep: the merged store plus run statistics.
#[derive(Debug)]
pub struct DistReport {
    /// Merged, id-ordered results — byte-identical exports to a
    /// single-process sweep of the same plan (minus any quarantined
    /// jobs).
    pub store: ResultStore,
    /// How the run unfolded.
    pub stats: DistStats,
    /// Jobs the sweep gave up on, with their recorded strikes; empty on
    /// a clean run.
    pub quarantine: QuarantineManifest,
    /// The folded telemetry snapshot — the coordinator's own scheduling
    /// registry merged with every worker's final cumulative snapshot in
    /// worker-id order. `None` unless [`DistConfig::telemetry`] (or
    /// [`DistConfig::metrics_listen`]) asked for collection.
    pub telemetry: Option<Snapshot>,
}

/// Errors a distributed run can end with.
#[derive(Debug)]
pub enum DistError {
    /// Socket or process plumbing failed.
    Io(String),
    /// No worker could serve the sweep (none spawned, none joined, none
    /// respawnable).
    NoWorkers(String),
    /// The worker binary could not be resolved.
    WorkerBinary(String),
    /// The checkpoint journal could not be written or loaded.
    Checkpoint(JournalError),
    /// The checkpoint journal records a different (plan, options) pair.
    PlanMismatch {
        /// Fingerprint of the plan recorded in the file.
        found: u64,
        /// Fingerprint of the sweep being resumed.
        expected: u64,
    },
    /// The `abort_after_results` test hook fired.
    Aborted {
        /// Fresh results recorded before aborting.
        completed: usize,
    },
    /// No result arrived within [`DistConfig::stall_timeout`].
    Stalled {
        /// Jobs finished before the stall.
        completed: usize,
        /// Jobs the plan wanted.
        total: usize,
    },
    /// Duplicate-execution cross-checking caught two byte-different
    /// results for the same job — executor corruption or lost
    /// determinism; the results cannot be trusted.
    VerifyMismatch {
        /// The job whose two executions disagreed.
        job: u64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(what) => write!(f, "distributed sweep i/o failure: {what}"),
            DistError::NoWorkers(what) => write!(f, "no workers available: {what}"),
            DistError::WorkerBinary(what) => write!(f, "{what}"),
            DistError::Checkpoint(e) => write!(f, "{e}"),
            DistError::PlanMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this sweep \
                 ({expected:#018x}); it records a different plan or options"
            ),
            DistError::Aborted { completed } => {
                write!(f, "aborted by test hook after {completed} results")
            }
            DistError::Stalled { completed, total } => {
                write!(f, "sweep stalled at {completed}/{total} jobs")
            }
            DistError::VerifyMismatch { job } => {
                write!(
                    f,
                    "duplicate-execution cross-check failed: job {job} produced two \
                     byte-different results — executor corruption or lost determinism"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<JournalError> for DistError {
    fn from(e: JournalError) -> Self {
        DistError::Checkpoint(e)
    }
}

/// Resolves the `fleet_shard` worker binary as a sibling of the running
/// executable (where cargo places every binary of the workspace).
///
/// # Errors
///
/// A human-readable message naming the missing path and the build command
/// that produces it.
pub fn default_worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "current exe has no parent directory".to_string())?;
    let candidate = dir.join(format!("fleet_shard{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "worker binary not found at {} — build it first \
             (`cargo build --release -p zhuyi-distd --bin fleet_shard`) \
             or pass an explicit path",
            candidate.display()
        ))
    }
}

/// Chunks `jobs` into contiguous shards of at most `size` jobs.
pub(crate) fn chunk_batches(jobs: &[SweepJob], size: usize) -> VecDeque<Vec<SweepJob>> {
    jobs.chunks(size.max(1)).map(<[SweepJob]>::to_vec).collect()
}

/// The derived default shard size: small enough for the pull queue to
/// balance across `workers`, large enough to amortize protocol frames.
/// An external-only coordinator (`workers == 0`, `--listen`) cannot know
/// how many workers will join, so it assumes a fleet of 8 — fine-grained
/// enough that late joiners pull real work instead of living off steals.
pub(crate) fn default_batch_size(pending: usize, workers: usize) -> usize {
    let workers = if workers == 0 { 8 } else { workers };
    pending.div_ceil(workers * 4).max(1)
}

pub(crate) type WorkerId = u64;

/// Locks a possibly-poisoned mutex, recovering the inner value instead of
/// panicking. A metrics scrape or fold that panicked while holding the
/// lock poisons it, but the snapshot map inside is plain data and stays
/// valid — letting the poison flag take down the whole coordinator (or
/// daemon) would turn one observability hiccup into a lost sweep. Each
/// recovery is counted in telemetry when a registry is at hand.
pub(crate) fn lock_recovering<'a, T>(
    mutex: &'a Mutex<T>,
    registry: Option<&Registry>,
) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        if let Some(reg) = registry {
            reg.inc(Counter::PoisonRecoveries);
        }
        poisoned.into_inner()
    })
}

/// First retry delay after a failed respawn attempt; doubles per
/// consecutive failure up to [`RESPAWN_BACKOFF_CEIL`].
const RESPAWN_BACKOFF_FLOOR: Duration = Duration::from_millis(250);
/// Upper bound on the respawn retry backoff.
const RESPAWN_BACKOFF_CEIL: Duration = Duration::from_secs(2);

enum Event {
    Connected {
        worker: WorkerId,
        writer: TcpStream,
        spawned: bool,
        name: String,
    },
    Frame {
        worker: WorkerId,
        frame: Frame,
    },
    Disconnected {
        worker: WorkerId,
    },
}

struct WorkerConn {
    writer: TcpStream,
    name: String,
    spawned: bool,
    busy: Option<u32>,
    last_seen: Instant,
}

struct Inflight {
    worker: WorkerId,
    remaining: BTreeMap<u64, SweepJob>,
    /// When this shard last yielded a result (or was assigned) — what
    /// the per-job deadline measures against.
    last_result: Instant,
}

pub(crate) struct ChildSlot {
    pub(crate) name: String,
    pub(crate) child: Child,
    pub(crate) exited: bool,
}

/// What a recorded strike did to the job.
enum StrikeOutcome {
    /// Below the limit: the job deserves another attempt.
    Retry,
    /// The strike limit was reached; the job is now quarantined.
    Quarantined,
    /// The job was already done or quarantined — the strike is moot.
    Settled,
}

/// Everything the scheduling loop mutates, factored out so event handling
/// stays in named methods instead of one giant match.
struct Coordinator {
    workers: BTreeMap<WorkerId, WorkerConn>,
    /// Execution options stamped onto every [`Frame::Assign`] (v7 carries
    /// them per-assignment, not per-session, so warm workers can serve
    /// plans with different shapes).
    options: ExecOptions,
    pending: VecDeque<Vec<SweepJob>>,
    inflight: BTreeMap<u32, Inflight>,
    done: BTreeMap<JobId, JobResult>,
    next_batch: u32,
    stats: DistStats,
    checkpoint: Option<JournalWriter>,
    /// The plan's [`journal::plan_fingerprint`], stamped on checkpoint
    /// records.
    fingerprint: u64,
    total: usize,
    /// Every plan job this run may execute, for requeues and the
    /// quarantine manifest.
    jobs_by_id: BTreeMap<u64, SweepJob>,
    /// Strikes recorded against jobs not (yet) quarantined.
    failures: BTreeMap<u64, Vec<JobError>>,
    /// Jobs the sweep gave up on.
    quarantined: BTreeMap<u64, QuarantineEntry>,
    /// Duplicate-execution slots: `None` until the first result arrives,
    /// then its encoded bytes until the second confirms (and the entry
    /// is removed) or mismatches (and the run fails).
    verify_pending: BTreeMap<u64, Option<Vec<u8>>>,
    max_job_failures: usize,
    /// The coordinator's own registry (scheduling counters, gauges, and
    /// received-frame accounting); `None` when telemetry is off.
    telemetry: Option<Arc<Registry>>,
    /// Latest cumulative snapshot per worker, shared with the metrics
    /// endpoint thread. A worker's snapshot survives its death — the
    /// work it reported on still happened.
    worker_metrics: Arc<Mutex<BTreeMap<WorkerId, Snapshot>>>,
    /// Bounded ring of recent scheduling events, dumped on job panics,
    /// deadline strikes, and quarantines; `None` without a dump dir.
    flight: Option<(FlightRecorder, PathBuf)>,
}

impl Coordinator {
    fn note(&self, counter: Counter) {
        if let Some(reg) = &self.telemetry {
            reg.inc(counter);
        }
    }

    /// Records one scheduling event into the flight ring (no-op without
    /// a recorder).
    fn flight_note(&self, kind: &'static str, worker: WorkerId, job: Option<u64>, detail: String) {
        if let Some((recorder, _)) = &self.flight {
            recorder.record(kind, worker, job, detail);
        }
    }

    /// Dumps the flight ring for `job` into the configured dump dir as
    /// `flight-job<ID>-<trigger>.json` (best-effort: a failed write must
    /// not take down the sweep).
    fn flight_dump(&self, trigger: &'static str, job: u64) {
        if let Some((recorder, dir)) = &self.flight {
            let path = dir.join(format!("flight-job{job}-{trigger}.json"));
            if std::fs::write(&path, recorder.dump_json(trigger, Some(job))).is_ok() {
                self.note(Counter::FlightDumps);
            } else {
                eprintln!(
                    "fleet coordinator: could not write flight dump {}",
                    path.display()
                );
            }
        }
    }

    /// True while any job still needs executing: unfinished plan jobs,
    /// or outstanding duplicate-execution copies.
    fn work_outstanding(&self) -> bool {
        self.done.len() + self.quarantined.len() < self.total || !self.verify_pending.is_empty()
    }

    /// Ingests one streamed result; returns whether it was fresh (first
    /// for its id).
    fn handle_result(&mut self, worker: WorkerId, result: JobResult) -> Result<bool, DistError> {
        let id = result.job.id;
        // Quarantine is final: a straggler result for a quarantined job
        // (say, a wedged copy that eventually finished) is discarded so
        // the manifest and the completed set stay mutually exclusive.
        if self.quarantined.contains_key(&id.0) {
            self.stats.duplicate_results += 1;
            return Ok(false);
        }
        if let Some(slot) = self.verify_pending.get_mut(&id.0) {
            let mut bytes = Vec::with_capacity(160);
            wire::put_job_result(&mut bytes, &result);
            match slot.take() {
                None => *slot = Some(bytes),
                Some(first) => {
                    if first != bytes {
                        return Err(DistError::VerifyMismatch { job: id.0 });
                    }
                    self.stats.verify_confirmed += 1;
                    self.verify_pending.remove(&id.0);
                }
            }
            // Clear only the copy this worker reported on; the other
            // copy stays tracked so a crash still requeues it.
            self.clear_copy(worker, id.0);
        } else {
            for fl in self.inflight.values_mut() {
                if fl.remaining.remove(&id.0).is_some() {
                    fl.last_result = Instant::now();
                }
            }
        }
        if self.done.contains_key(&id) {
            self.stats.duplicate_results += 1;
            return Ok(false);
        }
        if let Some(writer) = &mut self.checkpoint {
            writer.append(&JournalRecord::Result {
                fingerprint: self.fingerprint,
                result: Box::new(result.clone()),
            })?;
        }
        self.stats.executed_jobs += 1;
        self.flight_note("result", worker, Some(id.0), String::new());
        self.done.insert(id, result);
        Ok(true)
    }

    /// Removes the one assigned copy of `id` that `worker` just reported
    /// on (result or failure), leaving any duplicate-execution copy
    /// tracked elsewhere.
    fn clear_copy(&mut self, worker: WorkerId, id: u64) {
        for fl in self.inflight.values_mut() {
            if fl.worker == worker && fl.remaining.remove(&id).is_some() {
                fl.last_result = Instant::now();
                return;
            }
        }
    }

    /// Records one strike against `id` and quarantines it at the limit.
    fn strike(&mut self, id: u64, error: JobError) -> StrikeOutcome {
        if self.done.contains_key(&JobId(id)) || self.quarantined.contains_key(&id) {
            return StrikeOutcome::Settled;
        }
        self.stats.job_failures += 1;
        let strikes = self.failures.entry(id).or_default();
        strikes.push(error);
        if strikes.len() >= self.max_job_failures {
            self.quarantine(id);
            StrikeOutcome::Quarantined
        } else {
            StrikeOutcome::Retry
        }
    }

    /// Pulls `id` out of the sweep entirely: every queued copy dropped,
    /// every assigned copy revoked, the verify slot cancelled, and the
    /// job recorded in the manifest with its strikes.
    fn quarantine(&mut self, id: u64) {
        let strikes = self.failures.remove(&id).unwrap_or_default();
        eprintln!(
            "fleet coordinator: quarantining job {id} after {} strike(s); last: {}",
            strikes.len(),
            strikes.last().map_or_else(String::new, |s| s.to_string()),
        );
        for batch in &mut self.pending {
            batch.retain(|j| j.id.0 != id);
        }
        self.pending.retain(|batch| !batch.is_empty());
        let holders: Vec<WorkerId> = self
            .inflight
            .values_mut()
            .filter_map(|fl| fl.remaining.remove(&id).map(|_| fl.worker))
            .collect();
        for worker in holders {
            if let Some(conn) = self.workers.get_mut(&worker) {
                let _ = wire::write_frame(&mut conn.writer, &Frame::Revoke { jobs: vec![id] });
            }
        }
        self.verify_pending.remove(&id);
        let job = self
            .jobs_by_id
            .get(&id)
            .cloned()
            .expect("a struck job is always a plan job");
        self.stats.jobs_quarantined += 1;
        self.note(Counter::QuarantinedJobs);
        self.flight_note(
            "quarantine",
            0,
            Some(id),
            format!("{} strike(s)", strikes.len()),
        );
        self.flight_dump("quarantine", id);
        self.quarantined
            .insert(id, QuarantineEntry { job, strikes });
    }

    /// Gives `worker` its next shard: pull from the queue, or steal the
    /// tail half of the busiest in-flight shard.
    fn dispatch(&mut self, worker: WorkerId) {
        let Some(conn) = self.workers.get(&worker) else {
            return;
        };
        if conn.busy.is_some() {
            return;
        }
        if let Some(jobs) = self.pending.pop_front() {
            self.assign(worker, jobs);
            return;
        }
        // Steal: the in-flight shard with the most remaining jobs, as long
        // as there are at least two to split.
        let victim = self
            .inflight
            .iter()
            .filter(|(_, fl)| fl.worker != worker && fl.remaining.len() >= 2)
            .max_by_key(|(_, fl)| fl.remaining.len())
            .map(|(&batch, _)| batch);
        let Some(victim_batch) = victim else {
            return;
        };
        let (victim_worker, stolen) = {
            let fl = self.inflight.get_mut(&victim_batch).expect("victim exists");
            let keep = fl.remaining.len().div_ceil(2);
            let stolen_ids: Vec<u64> = fl.remaining.keys().skip(keep).copied().collect();
            let stolen: Vec<SweepJob> = stolen_ids
                .iter()
                .map(|id| fl.remaining.remove(id).expect("stolen id present"))
                .collect();
            (fl.worker, stolen)
        };
        if stolen.is_empty() {
            return;
        }
        self.stats.jobs_stolen += stolen.len();
        if let Some(reg) = &self.telemetry {
            reg.add(Counter::Steals, stolen.len() as u64);
        }
        self.flight_note(
            "steal",
            worker,
            None,
            format!("{} jobs from worker {victim_worker}", stolen.len()),
        );
        // Tell the victim to skip anything it has not started; failure to
        // deliver only costs a duplicated (identical) result.
        if let Some(victim_conn) = self.workers.get_mut(&victim_worker) {
            let revoke = Frame::Revoke {
                jobs: stolen.iter().map(|j| j.id.0).collect(),
            };
            let _ = wire::write_frame(&mut victim_conn.writer, &revoke);
        }
        self.assign(worker, stolen);
    }

    fn assign(&mut self, worker: WorkerId, jobs: Vec<SweepJob>) {
        let batch = self.next_batch;
        self.next_batch += 1;
        let Some(conn) = self.workers.get_mut(&worker) else {
            self.pending.push_front(jobs);
            return;
        };
        if wire::write_assign(&mut conn.writer, batch, self.options, &jobs).is_err() {
            self.pending.push_front(jobs);
            self.lose_worker(worker);
            return;
        }
        conn.busy = Some(batch);
        self.stats.batches_assigned += 1;
        self.flight_note("assign", worker, None, format!("batch {batch}"));
        self.inflight.insert(
            batch,
            Inflight {
                worker,
                remaining: jobs.into_iter().map(|j| (j.id.0, j)).collect(),
                last_result: Instant::now(),
            },
        );
    }

    /// Removes a worker and requeues the unfinished jobs of its shards.
    /// Returns the worker's name if the coordinator spawned its process
    /// (so the caller can kill a wedged child and trigger a respawn).
    fn lose_worker(&mut self, worker: WorkerId) -> Option<String> {
        let conn = self.workers.remove(&worker)?;
        let _ = conn.writer.shutdown(Shutdown::Both);
        self.stats.workers_lost += 1;
        self.note(Counter::WorkersLost);
        self.flight_note("worker_lost", worker, None, conn.name.clone());
        eprintln!(
            "fleet coordinator: lost {}worker {} mid-sweep; reassigning its shard",
            if conn.spawned { "spawned " } else { "" },
            conn.name,
        );
        let orphaned: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, fl)| fl.worker == worker)
            .map(|(&batch, _)| batch)
            .collect();
        for batch in orphaned {
            let fl = self.inflight.remove(&batch).expect("batch listed");
            if !fl.remaining.is_empty() {
                self.stats.batches_reassigned += 1;
                self.pending
                    .push_front(fl.remaining.into_values().collect());
            }
        }
        conn.spawned.then_some(conn.name)
    }

    fn dispatch_idle(&mut self) {
        let idle: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, c)| c.busy.is_none())
            .map(|(&id, _)| id)
            .collect();
        for worker in idle {
            self.dispatch(worker);
        }
    }

    fn shutdown_workers(&mut self) {
        for conn in self.workers.values_mut() {
            // Send the frame but do not hard-close the socket: a worker
            // may still be flushing its final BatchDone, and exits
            // cleanly on its own once it reads Shutdown.
            let _ = wire::write_frame(&mut conn.writer, &Frame::Shutdown);
        }
        self.workers.clear();
    }
}

pub(crate) fn spawn_worker(
    binary: &PathBuf,
    addr: &str,
    name: &str,
    extra: &[String],
) -> Result<Child, DistError> {
    Command::new(binary)
        .arg("--connect")
        .arg(addr)
        .arg("--name")
        .arg(name)
        .arg("--spawned")
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| DistError::Io(format!("spawning {}: {e}", binary.display())))
}

pub(crate) fn reap_children(children: &mut [ChildSlot]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut alive = false;
        for slot in children.iter_mut() {
            if slot.exited {
                continue;
            }
            match slot.child.try_wait() {
                Ok(Some(_)) | Err(_) => slot.exited = true,
                Ok(None) => alive = true,
            }
        }
        if !alive {
            return;
        }
        if Instant::now() >= deadline {
            for slot in children.iter_mut() {
                if !slot.exited {
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    slot.exited = true;
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Opens `path` as this sweep's checkpoint: a journal holding one plan.
/// An existing file that replays to this plan is compacted in place and
/// its journaled results are returned for resuming; one that replays to
/// no plan at all (magic only, or a torn first record) starts fresh.
fn open_checkpoint(
    path: &Path,
    plan: &SweepPlan,
    options: ExecOptions,
    fingerprint: u64,
) -> Result<(JournalWriter, Vec<JobResult>), DistError> {
    if path.exists() {
        let plans = journal::replay(&journal::load(path)?);
        // One rule covers both a different sweep's checkpoint and a
        // multi-plan daemon journal passed by mistake.
        if let Some(other) = plans.iter().find(|p| p.fingerprint != fingerprint) {
            return Err(DistError::PlanMismatch {
                found: other.fingerprint,
                expected: fingerprint,
            });
        }
        if let Some(replayed) = plans.into_iter().next() {
            let writer = JournalWriter::resume(path, &replayed.to_records())?;
            return Ok((writer, replayed.results));
        }
    }
    let mut writer = JournalWriter::create(path)?;
    writer.append(&JournalRecord::Submitted {
        fingerprint,
        client: "run_distributed".into(),
        options,
        jobs: plan.jobs().to_vec(),
    })?;
    Ok((writer, Vec::new()))
}

/// Runs every job of `plan` across worker processes and merges the
/// results; see the module docs for scheduling, fault handling, and the
/// determinism invariant.
///
/// # Errors
///
/// See [`DistError`]. On any error, spawned workers are torn down and the
/// checkpoint (if configured) retains everything completed so far.
pub fn run_distributed(plan: &SweepPlan, config: &DistConfig) -> Result<DistReport, DistError> {
    if config.spawn_workers == 0 && config.listen.is_none() {
        return Err(DistError::NoWorkers(
            "spawn_workers is 0 and no listen address accepts external workers".into(),
        ));
    }

    let fingerprint = journal::plan_fingerprint(plan, config.options);
    // Metrics serving needs a registry to read even when plain collection
    // was not requested.
    let telemetry_on = config.telemetry || config.metrics_listen.is_some();
    let registry = telemetry_on.then(|| Arc::new(Registry::new()));
    let worker_metrics: Arc<Mutex<BTreeMap<WorkerId, Snapshot>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let flight = match &config.flight_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| DistError::Io(format!("creating {}: {e}", dir.display())))?;
            Some((
                FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
                dir.clone(),
            ))
        }
        None => None,
    };
    let mut coordinator = Coordinator {
        workers: BTreeMap::new(),
        options: config.options,
        pending: VecDeque::new(),
        inflight: BTreeMap::new(),
        done: BTreeMap::new(),
        next_batch: 0,
        stats: DistStats::default(),
        checkpoint: None,
        fingerprint,
        total: plan.len(),
        jobs_by_id: BTreeMap::new(),
        failures: BTreeMap::new(),
        quarantined: BTreeMap::new(),
        verify_pending: BTreeMap::new(),
        max_job_failures: config.max_job_failures.max(1),
        telemetry: registry.clone(),
        worker_metrics: Arc::clone(&worker_metrics),
        flight,
    };

    if let Some(path) = &config.checkpoint {
        let (writer, resumed) = open_checkpoint(path, plan, config.options, fingerprint)?;
        coordinator.stats.resumed_jobs = resumed.len();
        coordinator.checkpoint = Some(writer);
        coordinator
            .done
            .extend(resumed.into_iter().map(|r| (r.job.id, r)));
    }

    let pending_jobs: Vec<SweepJob> = plan
        .jobs()
        .iter()
        .filter(|j| !coordinator.done.contains_key(&j.id))
        .cloned()
        .collect();
    if pending_jobs.is_empty() {
        return Ok(DistReport {
            store: ResultStore::new(coordinator.done.into_values().collect()),
            stats: coordinator.stats,
            quarantine: QuarantineManifest::default(),
            // Everything came from the checkpoint; nothing executed, so
            // the registry (if any) is empty but well-formed.
            telemetry: registry.as_ref().map(|reg| reg.snapshot()),
        });
    }
    coordinator.jobs_by_id = pending_jobs.iter().map(|j| (j.id.0, j.clone())).collect();
    let batch_size = config
        .batch_size
        .unwrap_or_else(|| default_batch_size(pending_jobs.len(), config.spawn_workers));
    coordinator.pending = chunk_batches(&pending_jobs, batch_size);

    // Duplicate-execution sampling: the verify set is a pure function of
    // (job id, plan fingerprint), so reruns of the same sweep verify the
    // same jobs. Second copies ride at the back of the queue — the
    // first-result-wins merge makes them invisible in the output, and
    // the byte-compare in `handle_result` turns bit-determinism into a
    // corruption detector.
    if config.verify_fraction > 0.0 {
        let threshold = (config.verify_fraction.min(1.0) * 1_000_000.0) as u64;
        let verify_jobs: Vec<SweepJob> = pending_jobs
            .iter()
            .filter(|j| faultnet::splitmix64(j.id.0 ^ fingerprint) % 1_000_000 < threshold)
            .cloned()
            .collect();
        coordinator.stats.verify_jobs = verify_jobs.len();
        for job in &verify_jobs {
            coordinator.verify_pending.insert(job.id.0, None);
        }
        for batch in chunk_batches(&verify_jobs, batch_size) {
            coordinator.pending.push_back(batch);
        }
    }

    // --- plumbing: listener, accept/reader threads, spawned children. ---
    let listener = match &config.listen {
        Some(addr) => {
            TcpListener::bind(addr).map_err(|e| DistError::Io(format!("binding {addr}: {e}")))?
        }
        None => TcpListener::bind("127.0.0.1:0")
            .map_err(|e| DistError::Io(format!("binding loopback: {e}")))?,
    };
    let bound = listener
        .local_addr()
        .map_err(|e| DistError::Io(format!("local_addr: {e}")))?;
    // Spawned workers (and the shutdown self-connect that unblocks the
    // accept loop) must dial a *routable* address: a wildcard bind like
    // 0.0.0.0:7700 is a listen address, not a destination, so map it to
    // the same-family loopback with the bound port.
    let local_addr = routable_addr(bound);

    // The live metrics endpoint: a plaintext Prometheus-style exposition
    // of the coordinator registry folded with the latest worker
    // snapshots, served for the duration of the run.
    let metrics = match &config.metrics_listen {
        Some(addr) => {
            let metrics_listener = TcpListener::bind(addr)
                .map_err(|e| DistError::Io(format!("binding metrics {addr}: {e}")))?;
            let metrics_addr = routable_addr(
                metrics_listener
                    .local_addr()
                    .map_err(|e| DistError::Io(format!("metrics local_addr: {e}")))?,
            );
            let metrics_stop = Arc::new(AtomicBool::new(false));
            {
                let reg = Arc::clone(registry.as_ref().expect("metrics imply a registry"));
                let worker_metrics = Arc::clone(&worker_metrics);
                let stop = Arc::clone(&metrics_stop);
                std::thread::spawn(move || {
                    serve_metrics(&metrics_listener, &reg, &worker_metrics, &stop)
                });
            }
            Some((metrics_addr, metrics_stop))
        }
        None => None,
    };

    let (events_tx, events_rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let events_tx = events_tx.clone();
        let stop = Arc::clone(&stop);
        let registry = registry.clone();
        let telemetry_flag = config.telemetry;
        let listener = listener
            .try_clone()
            .map_err(|e| DistError::Io(format!("cloning listener: {e}")))?;
        std::thread::spawn(move || {
            let mut next_worker: WorkerId = 0;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let worker = next_worker;
                next_worker += 1;
                let events_tx = events_tx.clone();
                let registry = registry.clone();
                std::thread::spawn(move || {
                    serve_connection(stream, worker, telemetry_flag, registry, &events_tx);
                });
            }
        });
    }

    // Teardown shared by every exit path below — the accept thread,
    // bound ports, metrics server, and spawned children must never
    // outlive this call, even when setup itself fails partway.
    let finish = |coordinator: &mut Coordinator,
                  children: &mut Vec<ChildSlot>,
                  stop: &AtomicBool,
                  local_addr: &str| {
        coordinator.shutdown_workers();
        stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop so its thread exits.
        let _ = TcpStream::connect(local_addr);
        if let Some((metrics_addr, metrics_stop)) = &metrics {
            metrics_stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(metrics_addr);
        }
        reap_children(children);
    };

    let mut children: Vec<ChildSlot> = Vec::new();
    let mut spawned_total = 0usize;
    let binary = if config.spawn_workers > 0 {
        match &config.worker_binary {
            Some(path) => Some(path.clone()),
            None => match default_worker_binary() {
                Ok(path) => Some(path),
                Err(message) => {
                    finish(&mut coordinator, &mut children, &stop, &local_addr);
                    return Err(DistError::WorkerBinary(message));
                }
            },
        }
    } else {
        None
    };
    for k in 0..config.spawn_workers {
        let mut extra = config.worker_extra_args.get(k).cloned().unwrap_or_default();
        if let Some(chaos) = config.chaos {
            extra.extend([
                "--chaos-seed".to_string(),
                faultnet::derive_worker_seed(chaos.seed, k as u64).to_string(),
                "--chaos-profile".to_string(),
                chaos.profile.name.to_string(),
            ]);
        }
        let name = format!("spawned-{k}");
        match spawn_worker(
            binary.as_ref().expect("binary resolved when spawning"),
            &local_addr,
            &name,
            &extra,
        ) {
            Ok(child) => {
                children.push(ChildSlot {
                    name,
                    child,
                    exited: false,
                });
                spawned_total += 1;
            }
            Err(e) => {
                finish(&mut coordinator, &mut children, &stop, &local_addr);
                return Err(e);
            }
        }
    }

    // --- the scheduling loop. -------------------------------------------
    let mut respawns_used = 0usize;
    let mut respawn_queue = 0usize;
    let mut respawn_backoff = RESPAWN_BACKOFF_FLOOR;
    let mut next_respawn_at = Instant::now();
    let mut last_progress = Instant::now();
    let result: Result<(), DistError> = loop {
        if !coordinator.work_outstanding() {
            break Ok(());
        }
        match events_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(Event::Connected {
                worker,
                writer,
                spawned,
                name,
            }) => {
                coordinator.stats.workers_connected += 1;
                coordinator.note(Counter::WorkersConnected);
                coordinator.flight_note("connect", worker, None, name.clone());
                coordinator.workers.insert(
                    worker,
                    WorkerConn {
                        writer,
                        name,
                        spawned,
                        busy: None,
                        last_seen: Instant::now(),
                    },
                );
                coordinator.dispatch(worker);
            }
            Ok(Event::Frame { worker, frame }) => {
                if let Some(conn) = coordinator.workers.get_mut(&worker) {
                    conn.last_seen = Instant::now();
                }
                match frame {
                    Frame::Heartbeat => {
                        // v6: echo the beat so the worker can sample its
                        // round-trip time (it ignores echoes when its own
                        // telemetry is off).
                        if let Some(conn) = coordinator.workers.get_mut(&worker) {
                            let _ = wire::write_frame(&mut conn.writer, &Frame::Heartbeat);
                        }
                    }
                    Frame::Metrics { snapshot } => {
                        // Snapshots are cumulative; the latest one per
                        // worker supersedes everything before it.
                        lock_recovering(
                            &coordinator.worker_metrics,
                            coordinator.telemetry.as_deref(),
                        )
                        .insert(worker, *snapshot);
                    }
                    Frame::Result { result } => {
                        match coordinator.handle_result(worker, *result) {
                            Ok(fresh) => {
                                if fresh {
                                    last_progress = Instant::now();
                                }
                            }
                            Err(e) => break Err(e),
                        }
                        if let Some(limit) = config.abort_after_results {
                            if coordinator.stats.executed_jobs >= limit {
                                break Err(DistError::Aborted {
                                    completed: coordinator.stats.executed_jobs,
                                });
                            }
                        }
                    }
                    Frame::JobFailed { job, error } => {
                        eprintln!(
                            "fleet coordinator: job {job} failed on worker {}: {error}",
                            coordinator
                                .workers
                                .get(&worker)
                                .map_or("?", |c| c.name.as_str()),
                        );
                        coordinator.clear_copy(worker, job);
                        coordinator.note(Counter::PanicStrikes);
                        coordinator.flight_note("job_failed", worker, Some(job), error.to_string());
                        coordinator.flight_dump("panic", job);
                        if matches!(coordinator.strike(job, error), StrikeOutcome::Retry) {
                            // Retry rides at the back so healthy work
                            // drains first; a fresh worker (or the same
                            // one, later) gets another attempt.
                            if let Some(j) = coordinator.jobs_by_id.get(&job).cloned() {
                                coordinator.pending.push_back(vec![j]);
                            }
                        }
                        coordinator.dispatch_idle();
                        // A contained failure is still forward progress:
                        // the worker lives and the job is accounted for.
                        last_progress = Instant::now();
                    }
                    Frame::BatchDone { batch } => {
                        if let Some(conn) = coordinator.workers.get_mut(&worker) {
                            if conn.busy == Some(batch) {
                                conn.busy = None;
                            }
                        }
                        if let Some(fl) = coordinator.inflight.remove(&batch) {
                            // Defensive: anything not delivered and not
                            // stolen goes back on the queue.
                            if !fl.remaining.is_empty() {
                                coordinator
                                    .pending
                                    .push_front(fl.remaining.into_values().collect());
                            }
                        }
                        coordinator.dispatch(worker);
                    }
                    // Workers never send anything else (coordinator-bound
                    // control frames, client-session frames): ignore
                    // rather than trust.
                    _ => {}
                }
            }
            Ok(Event::Disconnected { worker }) => {
                coordinator.lose_worker(worker);
                coordinator.dispatch_idle();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(DistError::Io("event channel closed".into()));
            }
        }

        // Housekeeping on every iteration (cheap at these event rates).
        let timed_out: Vec<WorkerId> = coordinator
            .workers
            .iter()
            .filter(|(_, c)| c.last_seen.elapsed() > config.heartbeat_timeout)
            .map(|(&id, _)| id)
            .collect();
        for worker in timed_out {
            coordinator.lose_worker(worker);
        }

        // Per-job deadline: a shard that stops yielding results is stuck
        // on its first remaining id (in-shard execution is serial and
        // id-ordered). The job gets a strike, and the worker — which may
        // be wedged in a loop its heartbeat thread happily outlives — is
        // dropped; killing its spawned process routes it through the
        // ordinary crash-respawn path below.
        if let Some(deadline) = config.job_deadline {
            let expired: Vec<u32> = coordinator
                .inflight
                .iter()
                .filter(|(_, fl)| !fl.remaining.is_empty() && fl.last_result.elapsed() > deadline)
                .map(|(&batch, _)| batch)
                .collect();
            for batch in expired {
                let Some(fl) = coordinator.inflight.get(&batch) else {
                    continue;
                };
                let stuck = *fl.remaining.keys().next().expect("filtered non-empty");
                let victim = fl.worker;
                coordinator.stats.deadline_strikes += 1;
                let detail = format!(
                    "no result within {deadline:?} on worker {}",
                    coordinator
                        .workers
                        .get(&victim)
                        .map_or("?", |c| c.name.as_str()),
                );
                coordinator.note(Counter::DeadlineStrikes);
                coordinator.flight_note("deadline", victim, Some(stuck), detail.clone());
                coordinator.flight_dump("deadline", stuck);
                coordinator.strike(
                    stuck,
                    JobError {
                        kind: JobErrorKind::Deadline,
                        detail,
                    },
                );
                if let Some(name) = coordinator.lose_worker(victim) {
                    for slot in children.iter_mut() {
                        if slot.name == name && !slot.exited {
                            // Reaped (and respawned) by try_wait below.
                            let _ = slot.child.kill();
                        }
                    }
                }
                last_progress = Instant::now();
            }
        }

        for slot in &mut children {
            if slot.exited {
                continue;
            }
            if let Ok(Some(status)) = slot.child.try_wait() {
                slot.exited = true;
                if !status.success() && coordinator.work_outstanding() {
                    respawn_queue += 1;
                }
            }
        }
        // Drain the respawn queue. A failed attempt consumes one unit of
        // the budget and is retried after a bounded backoff — never
        // written off wholesale, so a transiently missing binary or a
        // brief fork failure costs attempts, not the whole budget.
        while respawn_queue > 0
            && coordinator.work_outstanding()
            && respawns_used < config.max_respawns
            && Instant::now() >= next_respawn_at
        {
            respawns_used += 1;
            let name = format!("spawned-{spawned_total}");
            match spawn_worker(
                binary.as_ref().expect("respawn implies spawned workers"),
                &local_addr,
                &name,
                &config.respawn_extra_args,
            ) {
                Ok(child) => {
                    spawned_total += 1;
                    respawn_queue -= 1;
                    respawn_backoff = RESPAWN_BACKOFF_FLOOR;
                    coordinator.stats.workers_respawned += 1;
                    children.push(ChildSlot {
                        name,
                        child,
                        exited: false,
                    });
                }
                Err(e) => {
                    coordinator.stats.respawn_failures += 1;
                    next_respawn_at = Instant::now() + respawn_backoff;
                    eprintln!(
                        "fleet coordinator: respawn failed ({respawns_used} of {} budget used, \
                         retrying in {respawn_backoff:?}): {e}",
                        config.max_respawns,
                    );
                    respawn_backoff = (respawn_backoff * 2).min(RESPAWN_BACKOFF_CEIL);
                    break;
                }
            }
        }
        coordinator.dispatch_idle();

        if let Some(reg) = &coordinator.telemetry {
            reg.set_gauge(Gauge::LiveWorkers, coordinator.workers.len() as u64);
            reg.set_gauge(Gauge::PendingBatches, coordinator.pending.len() as u64);
            reg.set_gauge(Gauge::InflightBatches, coordinator.inflight.len() as u64);
        }

        if coordinator.workers.is_empty()
            && children.iter().all(|slot| slot.exited)
            && config.listen.is_none()
            && (respawn_queue == 0 || respawns_used >= config.max_respawns)
        {
            break Err(DistError::NoWorkers(
                "every spawned worker exited and the respawn budget is spent".into(),
            ));
        }
        if last_progress.elapsed() > config.stall_timeout {
            break Err(DistError::Stalled {
                completed: coordinator.done.len(),
                total: coordinator.total,
            });
        }
    };

    finish(&mut coordinator, &mut children, &stop, &local_addr);
    result?;
    // Fold the coordinator's own registry with the final cumulative
    // snapshot of every worker, in worker-id order — deterministic
    // regardless of the order snapshots arrived in.
    let telemetry = registry.as_ref().map(|reg| {
        let mut folded = reg.snapshot();
        let workers = lock_recovering(&worker_metrics, Some(reg));
        for snap in workers.values() {
            folded.merge(snap);
        }
        folded
    });
    Ok(DistReport {
        store: ResultStore::new(coordinator.done.into_values().collect()),
        stats: coordinator.stats,
        quarantine: QuarantineManifest::new(coordinator.quarantined.into_values().collect()),
        telemetry,
    })
}

/// Maps a bound socket address to one a client can dial: wildcard binds
/// (`0.0.0.0`, `[::]`) become the same-family loopback with the bound
/// port; anything else round-trips unchanged.
pub(crate) fn routable_addr(bound: std::net::SocketAddr) -> String {
    if bound.ip().is_unspecified() {
        let loopback: std::net::IpAddr = if bound.is_ipv4() {
            std::net::Ipv4Addr::LOCALHOST.into()
        } else {
            std::net::Ipv6Addr::LOCALHOST.into()
        };
        std::net::SocketAddr::new(loopback, bound.port()).to_string()
    } else {
        bound.to_string()
    }
}

/// The metrics endpoint thread: answers every connection with a
/// Prometheus-style plaintext exposition of the coordinator registry
/// folded with the latest worker snapshots. Exits on the stop flag (the
/// coordinator self-connects to unblock the accept).
fn serve_metrics(
    listener: &TcpListener,
    registry: &Registry,
    worker_metrics: &Mutex<BTreeMap<WorkerId, Snapshot>>,
    stop: &AtomicBool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // Drain (best-effort) whatever request line the client sent; the
        // endpoint serves one document regardless of the path.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut request = [0u8; 1024];
        let _ = std::io::Read::read(&mut stream, &mut request);
        let mut folded = registry.snapshot();
        {
            let workers = lock_recovering(worker_metrics, Some(registry));
            for snap in workers.values() {
                folded.merge(snap);
            }
        }
        let body = folded.to_prometheus();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        let _ = std::io::Write::write_all(&mut stream, response.as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Per-connection thread: handshake, then pump frames into the event
/// channel until the socket dies.
fn serve_connection(
    mut stream: TcpStream,
    worker: WorkerId,
    telemetry: bool,
    registry: Option<Arc<Registry>>,
    events: &mpsc::Sender<Event>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let hello = match wire::read_frame(&mut stream) {
        Ok(Frame::Hello {
            version,
            spawned,
            name,
        }) => {
            if version != PROTOCOL_VERSION {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!(
                            "protocol version {version} != coordinator {PROTOCOL_VERSION}"
                        ),
                    },
                );
                return;
            }
            (spawned, name)
        }
        _ => return, // not a worker; drop silently
    };
    if wire::write_frame(
        &mut stream,
        &Frame::Welcome {
            version: PROTOCOL_VERSION,
            telemetry,
        },
    )
    .is_err()
    {
        return;
    }
    let _ = stream.set_read_timeout(None);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if events
        .send(Event::Connected {
            worker,
            writer,
            spawned: hello.0,
            name: hello.1,
        })
        .is_err()
    {
        return;
    }
    loop {
        match wire::read_frame_recorded(&mut stream, registry.as_deref()) {
            Ok(frame) => {
                if events.send(Event::Frame { worker, frame }).is_err() {
                    return;
                }
            }
            Err(WireError::Io(_))
            | Err(WireError::FrameTooLarge(_))
            | Err(WireError::Malformed(_)) => {
                let _ = events.send(Event::Disconnected { worker });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhuyi_fleet::SweepPlan;

    fn plan(jobs: usize) -> Vec<SweepJob> {
        let plan = SweepPlan::builder()
            .scenarios([av_scenarios::catalog::ScenarioId::CutOut])
            .seeds(0..jobs as u64)
            .probe(4.0, false)
            .build();
        plan.jobs().to_vec()
    }

    #[test]
    fn batches_chunk_contiguously_and_cover_everything() {
        let jobs = plan(10);
        let batches = chunk_batches(&jobs, 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let flat: Vec<u64> = batches.iter().flatten().map(|j| j.id.0).collect();
        assert_eq!(flat, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn default_batch_size_balances_without_degenerating() {
        assert_eq!(default_batch_size(160, 4), 10);
        assert_eq!(default_batch_size(3, 4), 1);
        assert_eq!(default_batch_size(0, 4), 1);
        // External-only coordinators assume an 8-worker fleet.
        assert_eq!(default_batch_size(96, 0), 3);
    }

    #[test]
    fn zero_workers_without_listen_is_rejected_up_front() {
        let plan = SweepPlan::builder()
            .scenarios([av_scenarios::catalog::ScenarioId::CutOut])
            .seeds([0])
            .probe(4.0, false)
            .build();
        let config = DistConfig {
            spawn_workers: 0,
            ..DistConfig::default()
        };
        assert!(matches!(
            run_distributed(&plan, &config),
            Err(DistError::NoWorkers(_))
        ));
    }
}
