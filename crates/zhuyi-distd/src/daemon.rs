//! The persistent sweep daemon: a long-lived coordinator service that
//! accepts **plan submissions over TCP**, executes them one at a time on
//! a warm worker fleet, and survives anything short of losing the disk.
//!
//! Where [`crate::coord::run_distributed`] runs one plan and dies with
//! its process, the daemon decouples plan lifetime from process lifetime:
//!
//! - **Durable plan queue.** Every admission, per-job result, completion,
//!   cancellation, and fetch is appended to a write-ahead [`crate::journal`]
//!   and flushed per record. A restarted daemon replays the journal and
//!   resumes every queued and in-flight sweep exactly where it stopped —
//!   `kill -9` mid-sweep costs at most the jobs whose results had not yet
//!   been journaled, never a queued plan.
//! - **Idempotent submission.** Plans are identified by their client-side
//!   fingerprint ([`crate::journal::plan_fingerprint`]); a retried
//!   [`Frame::Submit`] matches the known fingerprint and is answered
//!   `Accepted { deduped: true }` without enqueueing a second copy, so a
//!   client that lost the first `Accepted` to a flaky link can retry
//!   blindly.
//! - **Bounded admission.** At most [`DaemonConfig::max_queue`] plans
//!   wait at a time; the daemon answers [`Frame::Busy`] beyond that (and
//!   while draining) — explicit load-shedding, never a hang and never a
//!   silent drop.
//! - **Per-client round-robin fairness.** Queued plans live in per-client
//!   FIFO lanes; the next plan to run is drawn from the lanes in rotation
//!   so one chatty client cannot starve the rest.
//! - **Lease-based orphan handling.** Every client frame naming a
//!   fingerprint renews that plan's lease. A queued plan whose lease
//!   expires is cancelled; a completed-but-unfetched plan whose lease
//!   expires has its results released. A *running* plan always finishes —
//!   execution is deterministic and the work is worth keeping.
//! - **Warm workers.** Worker sessions persist across plans (v7 carries
//!   [`ExecOptions`] per [`Frame::Assign`], not per handshake), so
//!   back-to-back plans skip process spawn and reconnect entirely.
//!   Spawned workers that crash are respawned with backoff for as long
//!   as the daemon lives.
//! - **Graceful drain.** [`Frame::Drain`] stops admission, finishes every
//!   queued and running plan, flushes the journal, shuts the fleet down,
//!   and returns — zero journal loss, ready for an upgrade restart.
//!
//! # Determinism invariant
//!
//! The results a client fetches are id-deduplicated and ascending by job
//! id — the exact single-process merge. Daemon restarts, worker churn,
//! queue order, chaos on the submit link: all invisible in the exported
//! bytes. `tests/daemon.rs` pins this with `kill -9` restarts and storm
//! chaos.
//!
//! # Scope
//!
//! The daemon's scheduler deliberately omits the one-shot coordinator's
//! tail-stealing, duplicate-execution sampling, and per-job deadlines; a
//! contained panic still costs a strike and a job that exhausts
//! [`DaemonConfig::max_job_failures`] strikes is abandoned (reported in
//! the status counts, absent from the results — the same graceful
//! degradation shape as quarantine).

use crate::coord::{self, ChildSlot, DistError, WorkerId};
use crate::journal::{self, JournalError, JournalRecord, JournalWriter};
use crate::wire::{self, Frame, PlanState, PROTOCOL_VERSION};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use zhuyi_fleet::{ExecOptions, JobResult, SweepJob};
use zhuyi_telemetry::{Counter, Gauge, Registry, Snapshot};

/// Configuration of one daemon process.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address for both workers and clients (`host:port`).
    pub listen: String,
    /// The write-ahead journal path; created if missing, replayed (and
    /// compacted) if present.
    pub journal: PathBuf,
    /// Worker processes the daemon spawns itself (external workers may
    /// join on [`DaemonConfig::listen`] regardless).
    pub spawn_workers: usize,
    /// Path of the `fleet_shard` worker binary; `None` resolves a
    /// sibling of the current executable.
    pub worker_binary: Option<PathBuf>,
    /// Admission-queue bound: plans *waiting* (not running) beyond this
    /// are answered [`Frame::Busy`].
    pub max_queue: usize,
    /// Plan lease duration; renewed by any client frame naming the plan.
    pub lease: Duration,
    /// Jobs per shard; `None` derives the coordinator's default.
    pub batch_size: Option<usize>,
    /// A worker silent for longer than this is declared dead.
    pub heartbeat_timeout: Duration,
    /// Strikes before a job is abandoned for its plan.
    pub max_job_failures: usize,
    /// Collect telemetry (daemon counters folded with worker snapshots
    /// into [`DaemonReport::telemetry`]).
    pub telemetry: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            journal: PathBuf::from("fleet.journal"),
            spawn_workers: 2,
            worker_binary: None,
            max_queue: 8,
            lease: Duration::from_secs(300),
            batch_size: None,
            heartbeat_timeout: Duration::from_secs(30),
            max_job_failures: 3,
            telemetry: false,
        }
    }
}

/// How a daemon run can fail. Once serving, the daemon only returns
/// through a drain; errors are limited to startup (bind, journal, worker
/// binary) and unrecoverable journal writes.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket or process plumbing failed.
    Io(String),
    /// The journal could not be created, replayed, or appended to.
    Journal(JournalError),
    /// The worker binary could not be resolved.
    WorkerBinary(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(what) => write!(f, "daemon i/o failure: {what}"),
            DaemonError::Journal(e) => write!(f, "{e}"),
            DaemonError::WorkerBinary(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<JournalError> for DaemonError {
    fn from(e: JournalError) -> Self {
        DaemonError::Journal(e)
    }
}

impl From<DistError> for DaemonError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::WorkerBinary(what) => DaemonError::WorkerBinary(what),
            other => DaemonError::Io(other.to_string()),
        }
    }
}

/// Counters describing a daemon's service lifetime, returned on drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Fresh plans admitted into the queue.
    pub plans_admitted: usize,
    /// Retried submits answered from the fingerprint index.
    pub submits_deduped: usize,
    /// Submits shed with [`Frame::Busy`] (full queue or draining).
    pub submits_shed: usize,
    /// Plans that ran to completion.
    pub plans_completed: usize,
    /// Plans cancelled (client request or queued-lease expiry).
    pub plans_cancelled: usize,
    /// Leases that expired (cancelled queued plans + released results).
    pub lease_expiries: usize,
    /// Plans recovered from the journal at startup.
    pub plans_replayed: usize,
    /// Journaled results resumed at startup (jobs not re-executed).
    pub resumed_results: usize,
    /// Workers that completed the handshake.
    pub workers_connected: usize,
    /// Workers lost to EOF or heartbeat timeout.
    pub workers_lost: usize,
    /// Replacement worker processes spawned.
    pub workers_respawned: usize,
}

/// What a drained daemon hands back.
#[derive(Debug)]
pub struct DaemonReport {
    /// Service-lifetime counters.
    pub stats: DaemonStats,
    /// The folded telemetry snapshot (daemon registry + final worker
    /// snapshots in worker-id order); `None` unless
    /// [`DaemonConfig::telemetry`].
    pub telemetry: Option<Snapshot>,
}

/// One plan's in-daemon state. `results` carries what the journal knows;
/// the merge a client fetches is this map's values ascending by id.
struct PlanEntry {
    client: String,
    options: ExecOptions,
    jobs: Vec<SweepJob>,
    results: BTreeMap<u64, JobResult>,
    state: PlanState,
    /// Results released: fetched by the client, or abandoned by lease
    /// expiry. Retired entries stay in memory for fingerprint dedup and
    /// are compacted out of the journal on the next restart.
    fetched: bool,
    lease: Instant,
}

/// Scheduling state of the one plan currently executing.
struct Running {
    fingerprint: u64,
    pending: VecDeque<Vec<SweepJob>>,
    inflight: BTreeMap<u32, InflightShard>,
    failures: BTreeMap<u64, usize>,
    abandoned: BTreeSet<u64>,
    total: usize,
}

struct InflightShard {
    worker: WorkerId,
    remaining: BTreeMap<u64, SweepJob>,
}

struct WorkerConn {
    writer: TcpStream,
    name: String,
    spawned: bool,
    busy: Option<u32>,
    last_seen: Instant,
}

struct ClientConn {
    writer: TcpStream,
    name: String,
}

/// Session events pumped into the daemon's single scheduling thread.
enum Event {
    WorkerConnected {
        id: u64,
        writer: TcpStream,
        spawned: bool,
        name: String,
    },
    ClientConnected {
        id: u64,
        writer: TcpStream,
        name: String,
    },
    Frame {
        id: u64,
        frame: Frame,
    },
    Disconnected {
        id: u64,
    },
}

/// First retry delay after a failed respawn; doubles to the ceiling.
const RESPAWN_BACKOFF_FLOOR: Duration = Duration::from_millis(250);
const RESPAWN_BACKOFF_CEIL: Duration = Duration::from_secs(2);

struct Daemon {
    config: DaemonConfig,
    plans: BTreeMap<u64, PlanEntry>,
    /// Per-client FIFO lanes in first-appearance order; the round-robin
    /// cursor rotates across them.
    lanes: Vec<(String, VecDeque<u64>)>,
    rr_next: usize,
    running: Option<Running>,
    workers: BTreeMap<u64, WorkerConn>,
    clients: BTreeMap<u64, ClientConn>,
    journal: JournalWriter,
    draining: bool,
    stats: DaemonStats,
    telemetry: Option<Arc<Registry>>,
    worker_metrics: BTreeMap<u64, Snapshot>,
    next_batch: u32,
}

impl Daemon {
    fn note(&self, counter: Counter) {
        if let Some(reg) = &self.telemetry {
            reg.inc(counter);
        }
    }

    /// Plans waiting in the lanes (excludes the running plan).
    fn queued_count(&self) -> usize {
        self.lanes.iter().map(|(_, lane)| lane.len()).sum()
    }

    /// Admits `fingerprint` into its client's lane, creating the lane on
    /// the client's first submission.
    fn enqueue(&mut self, client: &str, fingerprint: u64) {
        match self.lanes.iter_mut().find(|(name, _)| name == client) {
            Some((_, lane)) => lane.push_back(fingerprint),
            None => {
                self.lanes
                    .push((client.to_string(), VecDeque::from([fingerprint])));
            }
        }
    }

    /// Removes `fingerprint` from whatever lane holds it (cancellation).
    fn unqueue(&mut self, fingerprint: u64) {
        for (_, lane) in &mut self.lanes {
            lane.retain(|&f| f != fingerprint);
        }
    }

    /// Round-robin draw: the next queued plan, rotating across client
    /// lanes so one client cannot starve the rest. Empty lanes are
    /// skipped but kept (their clients may submit again).
    fn next_plan(&mut self) -> Option<u64> {
        if self.lanes.is_empty() {
            return None;
        }
        for offset in 0..self.lanes.len() {
            let i = (self.rr_next + offset) % self.lanes.len();
            if let Some(fingerprint) = self.lanes[i].1.pop_front() {
                self.rr_next = (i + 1) % self.lanes.len();
                return Some(fingerprint);
            }
        }
        None
    }

    /// Starts the next queued plan if nothing is running.
    fn start_next_plan(&mut self) {
        if self.running.is_some() {
            return;
        }
        let Some(fingerprint) = self.next_plan() else {
            return;
        };
        let (pending_jobs, total) = {
            let Some(entry) = self.plans.get_mut(&fingerprint) else {
                return;
            };
            entry.state = PlanState::Running;
            let pending: Vec<SweepJob> = entry
                .jobs
                .iter()
                .filter(|j| !entry.results.contains_key(&j.id.0))
                .cloned()
                .collect();
            eprintln!(
                "fleet daemon: starting plan {fingerprint:#018x} for client {} \
                 ({} jobs, {} already journaled)",
                entry.client,
                entry.jobs.len(),
                entry.results.len(),
            );
            (pending, entry.jobs.len())
        };
        let batch_size = self.config.batch_size.unwrap_or_else(|| {
            coord::default_batch_size(pending_jobs.len(), self.config.spawn_workers)
        });
        self.running = Some(Running {
            fingerprint,
            pending: coord::chunk_batches(&pending_jobs, batch_size),
            inflight: BTreeMap::new(),
            failures: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            total,
        });
        self.dispatch_idle();
        // A fully journaled plan (every result resumed) completes without
        // dispatching anything.
        self.check_plan_complete();
    }

    /// Gives `worker` its next shard of the running plan, if any.
    fn dispatch(&mut self, worker: WorkerId) {
        let assign_failed = {
            let Daemon {
                running,
                workers,
                plans,
                next_batch,
                ..
            } = self;
            let Some(running) = running.as_mut() else {
                return;
            };
            let Some(conn) = workers.get_mut(&worker) else {
                return;
            };
            if conn.busy.is_some() {
                return;
            }
            let Some(jobs) = running.pending.pop_front() else {
                return;
            };
            let options = plans
                .get(&running.fingerprint)
                .map(|p| p.options)
                .unwrap_or_default();
            let batch = *next_batch;
            *next_batch += 1;
            if wire::write_assign(&mut conn.writer, batch, options, &jobs).is_err() {
                running.pending.push_front(jobs);
                true
            } else {
                conn.busy = Some(batch);
                running.inflight.insert(
                    batch,
                    InflightShard {
                        worker,
                        remaining: jobs.into_iter().map(|j| (j.id.0, j)).collect(),
                    },
                );
                false
            }
        };
        if assign_failed {
            self.lose_worker(worker);
        }
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

    /// Removes a worker and requeues the unfinished jobs of its shards.
    /// Returns the worker's name if the daemon spawned its process.
    fn lose_worker(&mut self, worker: WorkerId) -> Option<String> {
        let conn = self.workers.remove(&worker)?;
        let _ = conn.writer.shutdown(Shutdown::Both);
        self.stats.workers_lost += 1;
        self.note(Counter::WorkersLost);
        eprintln!(
            "fleet daemon: lost {}worker {}; reassigning its shard",
            if conn.spawned { "spawned " } else { "" },
            conn.name,
        );
        if let Some(running) = &mut self.running {
            let orphaned: Vec<u32> = running
                .inflight
                .iter()
                .filter(|(_, fl)| fl.worker == worker)
                .map(|(&batch, _)| batch)
                .collect();
            for batch in orphaned {
                let fl = running.inflight.remove(&batch).expect("batch listed");
                if !fl.remaining.is_empty() {
                    running
                        .pending
                        .push_front(fl.remaining.into_values().collect());
                }
            }
        }
        conn.spawned.then_some(conn.name)
    }

    /// Ingests one streamed result for the running plan: journal first,
    /// then credit — a result the client can ever see is always durable.
    fn handle_result(&mut self, result: JobResult) -> Result<(), DaemonError> {
        {
            let Daemon {
                running,
                plans,
                journal,
                ..
            } = self;
            let Some(running) = running.as_mut() else {
                return Ok(()); // stale result from a settled plan: ignore
            };
            let id = result.job.id.0;
            for fl in running.inflight.values_mut() {
                fl.remaining.remove(&id);
            }
            if running.abandoned.contains(&id) {
                return Ok(());
            }
            let fingerprint = running.fingerprint;
            let Some(entry) = plans.get_mut(&fingerprint) else {
                return Ok(());
            };
            if entry.results.contains_key(&id) {
                return Ok(()); // duplicate: first result wins, as everywhere
            }
            journal.append(&JournalRecord::Result {
                fingerprint,
                result: Box::new(result.clone()),
            })?;
            entry.results.insert(id, result);
        }
        self.check_plan_complete();
        Ok(())
    }

    /// Records a strike against `job`; abandons it at the limit.
    fn handle_job_failed(&mut self, worker: WorkerId, job: u64, detail: &str) {
        if self.running.is_none() {
            return;
        }
        eprintln!(
            "fleet daemon: job {job} failed on worker {}: {detail}",
            self.workers.get(&worker).map_or("?", |c| c.name.as_str()),
        );
        let abandoned = {
            let Daemon {
                running,
                plans,
                config,
                ..
            } = self;
            let running = running.as_mut().expect("checked above");
            for fl in running.inflight.values_mut() {
                if fl.worker == worker {
                    fl.remaining.remove(&job);
                }
            }
            let strikes = running.failures.entry(job).or_insert(0);
            *strikes += 1;
            if *strikes >= config.max_job_failures.max(1) {
                eprintln!("fleet daemon: abandoning job {job} after {strikes} strike(s)");
                running.abandoned.insert(job);
                for batch in &mut running.pending {
                    batch.retain(|j| j.id.0 != job);
                }
                running.pending.retain(|batch| !batch.is_empty());
                true
            } else {
                if let Some(j) = plans
                    .get(&running.fingerprint)
                    .and_then(|e| e.jobs.iter().find(|j| j.id.0 == job))
                {
                    // Retry at the back so healthy work drains first.
                    running.pending.push_back(vec![j.clone()]);
                }
                false
            }
        };
        if abandoned {
            self.check_plan_complete();
        }
        self.dispatch_idle();
    }

    /// Completes the running plan once every job is credited or abandoned.
    fn check_plan_complete(&mut self) {
        let done = match &self.running {
            Some(running) => {
                let entry = self.plans.get(&running.fingerprint);
                entry.is_some_and(|entry| {
                    entry.results.len() + running.abandoned.len() >= running.total
                })
            }
            None => false,
        };
        if !done {
            return;
        }
        let running = self.running.take().expect("checked above");
        if let Err(e) = self.journal.append(&JournalRecord::Completed {
            fingerprint: running.fingerprint,
        }) {
            // An unwritable journal is fatal for durability but not for
            // this plan's in-memory results; scream and serve on.
            eprintln!("fleet daemon: journal append failed: {e}");
        }
        if let Some(entry) = self.plans.get_mut(&running.fingerprint) {
            entry.state = PlanState::Completed;
            entry.lease = Instant::now();
        }
        self.stats.plans_completed += 1;
        self.note(Counter::PlansCompleted);
        eprintln!(
            "fleet daemon: plan {:#018x} completed ({} abandoned)",
            running.fingerprint,
            running.abandoned.len(),
        );
        self.start_next_plan();
    }

    /// Cancels a plan: journals the record, retires the entry, and frees
    /// its lane slot. Running plans are not cancellable (determinism
    /// makes finishing cheaper than unwinding); the caller reports the
    /// actual resulting state back to the client.
    fn cancel(&mut self, fingerprint: u64) {
        {
            let Daemon { plans, journal, .. } = self;
            let Some(entry) = plans.get_mut(&fingerprint) else {
                return;
            };
            if entry.state != PlanState::Queued {
                return;
            }
            if let Err(e) = journal.append(&JournalRecord::Cancelled { fingerprint }) {
                eprintln!("fleet daemon: journal append failed: {e}");
            }
            entry.state = PlanState::Cancelled;
        }
        self.unqueue(fingerprint);
        self.stats.plans_cancelled += 1;
    }

    /// Lease housekeeping: queued plans with expired leases are
    /// cancelled; completed-but-unfetched plans are released. Running
    /// plans always finish.
    fn expire_leases(&mut self) {
        let expired: Vec<(u64, PlanState)> = self
            .plans
            .iter()
            .filter(|(_, e)| e.lease.elapsed() > self.config.lease)
            .filter(|(_, e)| match e.state {
                PlanState::Queued => true,
                PlanState::Completed => !e.fetched,
                _ => false,
            })
            .map(|(&f, e)| (f, e.state))
            .collect();
        for (fingerprint, state) in expired {
            self.stats.lease_expiries += 1;
            self.note(Counter::LeaseExpiries);
            match state {
                PlanState::Queued => {
                    eprintln!(
                        "fleet daemon: lease expired on queued plan {fingerprint:#018x}; \
                         cancelling"
                    );
                    self.cancel(fingerprint);
                }
                _ => {
                    eprintln!(
                        "fleet daemon: lease expired on completed plan {fingerprint:#018x}; \
                         releasing results"
                    );
                    if let Err(e) = self.journal.append(&JournalRecord::Fetched { fingerprint }) {
                        eprintln!("fleet daemon: journal append failed: {e}");
                    }
                    if let Some(entry) = self.plans.get_mut(&fingerprint) {
                        entry.fetched = true;
                    }
                }
            }
        }
    }

    /// Handles one client request frame, writing the reply directly to
    /// the client's socket (best-effort: a dead client just retries).
    fn handle_client_frame(&mut self, id: u64, frame: Frame) -> Result<(), DaemonError> {
        let client_name = match self.clients.get(&id) {
            Some(c) => c.name.clone(),
            None => return Ok(()),
        };
        let reply = match frame {
            Frame::Submit {
                fingerprint,
                options,
                jobs,
            } => {
                let known_state = self.plans.get_mut(&fingerprint).map(|entry| {
                    entry.lease = Instant::now();
                    entry.state
                });
                if let Some(state) = known_state {
                    self.stats.submits_deduped += 1;
                    self.note(Counter::SubmitsDeduped);
                    Frame::Accepted {
                        fingerprint,
                        deduped: true,
                        position: match state {
                            PlanState::Queued => self.queued_count().saturating_sub(1) as u32,
                            _ => 0,
                        },
                    }
                } else if self.draining || self.queued_count() >= self.config.max_queue {
                    self.stats.submits_shed += 1;
                    self.note(Counter::SubmitsShed);
                    Frame::Busy {
                        queue_limit: if self.draining {
                            0
                        } else {
                            self.config.max_queue as u32
                        },
                    }
                } else {
                    self.journal.append(&JournalRecord::Submitted {
                        fingerprint,
                        client: client_name.clone(),
                        options,
                        jobs: jobs.clone(),
                    })?;
                    let position = self.queued_count() as u32;
                    self.plans.insert(
                        fingerprint,
                        PlanEntry {
                            client: client_name.clone(),
                            options,
                            jobs,
                            results: BTreeMap::new(),
                            state: PlanState::Queued,
                            fetched: false,
                            lease: Instant::now(),
                        },
                    );
                    self.enqueue(&client_name, fingerprint);
                    self.stats.plans_admitted += 1;
                    self.note(Counter::PlanSubmits);
                    self.start_next_plan();
                    Frame::Accepted {
                        fingerprint,
                        deduped: false,
                        position,
                    }
                }
            }
            Frame::Status { fingerprint } => self.status_report(fingerprint),
            Frame::Cancel { fingerprint } => {
                self.cancel(fingerprint);
                self.status_report(fingerprint)
            }
            Frame::FetchResults { fingerprint } => {
                let ready = self.plans.get_mut(&fingerprint).is_some_and(|entry| {
                    if entry.state == PlanState::Completed {
                        entry.lease = Instant::now();
                        true
                    } else {
                        false
                    }
                });
                if ready {
                    let Daemon { plans, journal, .. } = &mut *self;
                    let entry = plans.get_mut(&fingerprint).expect("checked above");
                    if !entry.fetched {
                        journal.append(&JournalRecord::Fetched { fingerprint })?;
                        entry.fetched = true;
                    }
                    Frame::Results {
                        fingerprint,
                        results: entry.results.values().cloned().collect(),
                    }
                } else {
                    // Not done yet (or unknown): report where it stands
                    // so the client keeps polling instead of misreading
                    // an empty result set as a finished sweep.
                    self.status_report(fingerprint)
                }
            }
            Frame::Drain => {
                if !self.draining {
                    self.draining = true;
                    self.note(Counter::DrainRequests);
                    eprintln!(
                        "fleet daemon: drain requested; {} plan(s) to finish",
                        self.queued_count() + usize::from(self.running.is_some()),
                    );
                }
                Frame::DrainAck {
                    queued: (self.queued_count() + usize::from(self.running.is_some())) as u32,
                }
            }
            // Anything else on a client session is a protocol violation;
            // ignore rather than trust.
            _ => return Ok(()),
        };
        if let Some(conn) = self.clients.get_mut(&id) {
            let _ = wire::write_frame(&mut conn.writer, &reply);
        }
        Ok(())
    }

    fn status_report(&mut self, fingerprint: u64) -> Frame {
        match self.plans.get_mut(&fingerprint) {
            Some(entry) => {
                entry.lease = Instant::now();
                Frame::StatusReport {
                    fingerprint,
                    state: entry.state,
                    completed: entry.results.len() as u64,
                    total: entry.jobs.len() as u64,
                }
            }
            None => Frame::StatusReport {
                fingerprint,
                state: PlanState::Unknown,
                completed: 0,
                total: 0,
            },
        }
    }

    fn shutdown_workers(&mut self) {
        for conn in self.workers.values_mut() {
            let _ = wire::write_frame(&mut conn.writer, &Frame::Shutdown);
        }
        self.workers.clear();
    }
}

/// Runs the daemon until a client drains it; see the module docs.
///
/// # Errors
///
/// See [`DaemonError`]: startup failures (bind, journal replay, worker
/// binary) and unrecoverable journal appends on the admission path.
pub fn run_daemon(config: &DaemonConfig) -> Result<DaemonReport, DaemonError> {
    let telemetry = config.telemetry.then(|| Arc::new(Registry::new()));
    let mut stats = DaemonStats::default();

    // --- journal replay: the restart path. -----------------------------
    let (journal_writer, recovered) = if config.journal.exists() {
        let records = journal::load(&config.journal)?;
        let plans = journal::replay(&records);
        if let Some(reg) = &telemetry {
            reg.inc(Counter::JournalReplays);
        }
        let live: Vec<JournalRecord> = plans
            .iter()
            .filter(|p| p.live())
            .flat_map(journal::ReplayedPlan::to_records)
            .collect();
        let writer = JournalWriter::resume(&config.journal, &live)?;
        let live_plans: Vec<journal::ReplayedPlan> = plans
            .into_iter()
            .filter(journal::ReplayedPlan::live)
            .collect();
        stats.plans_replayed = live_plans.len();
        stats.resumed_results = live_plans.iter().map(|p| p.results.len()).sum();
        eprintln!(
            "fleet daemon: journal replayed — {} live plan(s), {} journaled result(s)",
            stats.plans_replayed, stats.resumed_results,
        );
        (writer, live_plans)
    } else {
        (JournalWriter::create(&config.journal)?, Vec::new())
    };

    let mut daemon = Daemon {
        config: config.clone(),
        plans: BTreeMap::new(),
        lanes: Vec::new(),
        rr_next: 0,
        running: None,
        workers: BTreeMap::new(),
        clients: BTreeMap::new(),
        journal: journal_writer,
        draining: false,
        stats,
        telemetry: telemetry.clone(),
        worker_metrics: BTreeMap::new(),
        next_batch: 0,
    };

    // Re-admit recovered plans in their journaled submission order:
    // completed-but-unfetched plans go straight to the fetch index,
    // everything else requeues (with its journaled results credited, so
    // only the remainder re-executes).
    for plan in recovered {
        let state = if plan.completed {
            PlanState::Completed
        } else {
            PlanState::Queued
        };
        daemon.plans.insert(
            plan.fingerprint,
            PlanEntry {
                client: plan.client.clone(),
                options: plan.options,
                jobs: plan.jobs,
                results: plan.results.into_iter().map(|r| (r.job.id.0, r)).collect(),
                state,
                fetched: false,
                lease: Instant::now(),
            },
        );
        if state == PlanState::Queued {
            daemon.enqueue(&plan.client, plan.fingerprint);
        }
    }

    // --- plumbing: listener, session threads, spawned workers. ---------
    // A daemon restarted right after a crash can race its predecessor's
    // half-closed sockets out of TIME_WAIT on the same port; retry the
    // bind briefly instead of refusing to come back up.
    let listener = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match TcpListener::bind(&config.listen) {
                Ok(l) => break l,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(250));
                }
                Err(e) => {
                    return Err(DaemonError::Io(format!("binding {}: {e}", config.listen)));
                }
            }
        }
    };
    let bound = listener
        .local_addr()
        .map_err(|e| DaemonError::Io(format!("local_addr: {e}")))?;
    let local_addr = coord::routable_addr(bound);
    eprintln!(
        "fleet daemon: serving on {local_addr}, journal {}",
        config.journal.display()
    );

    let (events_tx, events_rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    let draining_flag = Arc::new(AtomicBool::new(false));
    {
        let events_tx = events_tx.clone();
        let stop = Arc::clone(&stop);
        let draining_flag = Arc::clone(&draining_flag);
        let registry = telemetry.clone();
        let telemetry_on = config.telemetry;
        let listener = listener
            .try_clone()
            .map_err(|e| DaemonError::Io(format!("cloning listener: {e}")))?;
        std::thread::spawn(move || {
            let mut next_id: u64 = 0;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let id = next_id;
                next_id += 1;
                let events_tx = events_tx.clone();
                let registry = registry.clone();
                let draining_flag = Arc::clone(&draining_flag);
                std::thread::spawn(move || {
                    serve_session(
                        stream,
                        id,
                        telemetry_on,
                        &draining_flag,
                        registry,
                        &events_tx,
                    );
                });
            }
        });
    }

    let binary = if config.spawn_workers > 0 {
        match &config.worker_binary {
            Some(path) => Some(path.clone()),
            None => Some(coord::default_worker_binary().map_err(DaemonError::WorkerBinary)?),
        }
    } else {
        None
    };
    let mut children: Vec<ChildSlot> = Vec::new();
    let mut spawned_total = 0usize;
    for _ in 0..config.spawn_workers {
        let name = format!("daemon-worker-{spawned_total}");
        let child = coord::spawn_worker(
            binary.as_ref().expect("binary resolved when spawning"),
            &local_addr,
            &name,
            &[],
        )?;
        children.push(ChildSlot {
            name,
            child,
            exited: false,
        });
        spawned_total += 1;
    }

    // --- the service loop. ---------------------------------------------
    let mut respawn_queue = 0usize;
    let mut respawn_backoff = RESPAWN_BACKOFF_FLOOR;
    let mut next_respawn_at = Instant::now();
    daemon.start_next_plan();
    let result: Result<(), DaemonError> = loop {
        if daemon.draining && daemon.running.is_none() && daemon.queued_count() == 0 {
            break Ok(());
        }
        match events_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(Event::WorkerConnected {
                id,
                writer,
                spawned,
                name,
            }) => {
                daemon.stats.workers_connected += 1;
                daemon.note(Counter::WorkersConnected);
                daemon.workers.insert(
                    id,
                    WorkerConn {
                        writer,
                        name,
                        spawned,
                        busy: None,
                        last_seen: Instant::now(),
                    },
                );
                daemon.dispatch(id);
            }
            Ok(Event::ClientConnected { id, writer, name }) => {
                daemon.clients.insert(id, ClientConn { writer, name });
            }
            Ok(Event::Frame { id, frame }) => {
                if daemon.clients.contains_key(&id) {
                    if let Err(e) = daemon.handle_client_frame(id, frame) {
                        break Err(e);
                    }
                } else {
                    if let Some(conn) = daemon.workers.get_mut(&id) {
                        conn.last_seen = Instant::now();
                    }
                    match frame {
                        Frame::Heartbeat => {
                            if let Some(conn) = daemon.workers.get_mut(&id) {
                                let _ = wire::write_frame(&mut conn.writer, &Frame::Heartbeat);
                            }
                        }
                        Frame::Metrics { snapshot } => {
                            daemon.worker_metrics.insert(id, *snapshot);
                        }
                        Frame::Result { result } => {
                            if let Err(e) = daemon.handle_result(*result) {
                                break Err(e);
                            }
                        }
                        Frame::JobFailed { job, error } => {
                            daemon.handle_job_failed(id, job, &error.to_string());
                        }
                        Frame::BatchDone { batch } => {
                            if let Some(conn) = daemon.workers.get_mut(&id) {
                                if conn.busy == Some(batch) {
                                    conn.busy = None;
                                }
                            }
                            if let Some(running) = &mut daemon.running {
                                if let Some(fl) = running.inflight.remove(&batch) {
                                    if !fl.remaining.is_empty() {
                                        running
                                            .pending
                                            .push_front(fl.remaining.into_values().collect());
                                    }
                                }
                            }
                            daemon.dispatch(id);
                        }
                        _ => {}
                    }
                }
            }
            Ok(Event::Disconnected { id }) => {
                if daemon.clients.remove(&id).is_none() {
                    daemon.lose_worker(id);
                    daemon.dispatch_idle();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(DaemonError::Io("event channel closed".into()));
            }
        }

        // Housekeeping on every iteration.
        draining_flag.store(daemon.draining, Ordering::SeqCst);
        daemon.expire_leases();
        let timed_out: Vec<u64> = daemon
            .workers
            .iter()
            .filter(|(_, c)| c.last_seen.elapsed() > config.heartbeat_timeout)
            .map(|(&id, _)| id)
            .collect();
        for worker in timed_out {
            daemon.lose_worker(worker);
        }
        for slot in &mut children {
            if slot.exited {
                continue;
            }
            if let Ok(Some(_)) = slot.child.try_wait() {
                slot.exited = true;
                if !daemon.draining {
                    respawn_queue += 1;
                }
            }
        }
        // Respawn crashed spawned workers with bounded backoff — a
        // daemon is a service, so the budget is its lifetime.
        while respawn_queue > 0 && !daemon.draining && Instant::now() >= next_respawn_at {
            let name = format!("daemon-worker-{spawned_total}");
            match coord::spawn_worker(
                binary.as_ref().expect("respawn implies spawned workers"),
                &local_addr,
                &name,
                &[],
            ) {
                Ok(child) => {
                    spawned_total += 1;
                    respawn_queue -= 1;
                    respawn_backoff = RESPAWN_BACKOFF_FLOOR;
                    daemon.stats.workers_respawned += 1;
                    children.push(ChildSlot {
                        name,
                        child,
                        exited: false,
                    });
                }
                Err(e) => {
                    next_respawn_at = Instant::now() + respawn_backoff;
                    eprintln!(
                        "fleet daemon: respawn failed (retrying in {respawn_backoff:?}): {e}"
                    );
                    respawn_backoff = (respawn_backoff * 2).min(RESPAWN_BACKOFF_CEIL);
                    break;
                }
            }
        }
        daemon.start_next_plan();
        daemon.dispatch_idle();

        if let Some(reg) = &daemon.telemetry {
            reg.set_gauge(Gauge::QueuedPlans, daemon.queued_count() as u64);
            reg.set_gauge(Gauge::LiveWorkers, daemon.workers.len() as u64);
            reg.set_gauge(
                Gauge::InflightBatches,
                daemon
                    .running
                    .as_ref()
                    .map_or(0, |r| r.inflight.len() as u64),
            );
        }
    };

    // Teardown: drain complete (or fatal error). Flush is implicit — the
    // journal flushes per record — so the only work left is the fleet.
    daemon.shutdown_workers();
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&local_addr);
    coord::reap_children(&mut children);
    result?;
    eprintln!(
        "fleet daemon: drained cleanly ({} plan(s) completed over the service lifetime)",
        daemon.stats.plans_completed,
    );
    let telemetry = telemetry.as_ref().map(|reg| {
        let mut folded = reg.snapshot();
        for snap in daemon.worker_metrics.values() {
            folded.merge(snap);
        }
        folded
    });
    Ok(DaemonReport {
        stats: daemon.stats,
        telemetry,
    })
}

/// Per-connection thread: discriminate worker vs client on the first
/// frame, handshake accordingly, then pump frames into the event channel
/// until the socket dies.
fn serve_session(
    mut stream: TcpStream,
    id: u64,
    telemetry: bool,
    draining: &AtomicBool,
    registry: Option<Arc<Registry>>,
    events: &mpsc::Sender<Event>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let connected = match wire::read_frame(&mut stream) {
        Ok(Frame::Hello {
            version,
            spawned,
            name,
        }) => {
            if version != PROTOCOL_VERSION {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("protocol version {version} != daemon {PROTOCOL_VERSION}"),
                    },
                );
                return;
            }
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
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            Event::WorkerConnected {
                id,
                writer,
                spawned,
                name,
            }
        }
        Ok(Frame::ClientHello { version, client }) => {
            if version != PROTOCOL_VERSION {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("protocol version {version} != daemon {PROTOCOL_VERSION}"),
                    },
                );
                return;
            }
            if wire::write_frame(
                &mut stream,
                &Frame::ClientWelcome {
                    version: PROTOCOL_VERSION,
                    draining: draining.load(Ordering::SeqCst),
                },
            )
            .is_err()
            {
                return;
            }
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            Event::ClientConnected {
                id,
                writer,
                name: client,
            }
        }
        _ => return, // neither handshake: drop silently
    };
    let _ = stream.set_read_timeout(None);
    if events.send(connected).is_err() {
        return;
    }
    loop {
        match wire::read_frame_recorded(&mut stream, registry.as_deref()) {
            Ok(frame) => {
                if events.send(Event::Frame { id, frame }).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = events.send(Event::Disconnected { id });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_lanes_interleave_clients() {
        let mut daemon = Daemon {
            config: DaemonConfig::default(),
            plans: BTreeMap::new(),
            lanes: Vec::new(),
            rr_next: 0,
            running: None,
            workers: BTreeMap::new(),
            clients: BTreeMap::new(),
            journal: JournalWriter::create(&tmp("rr")).expect("journal"),
            draining: false,
            stats: DaemonStats::default(),
            telemetry: None,
            worker_metrics: BTreeMap::new(),
            next_batch: 0,
        };
        // Client a floods three plans; client b submits one.
        daemon.enqueue("a", 1);
        daemon.enqueue("a", 2);
        daemon.enqueue("a", 3);
        daemon.enqueue("b", 10);
        let order: Vec<u64> = std::iter::from_fn(|| daemon.next_plan()).collect();
        assert_eq!(
            order,
            vec![1, 10, 2, 3],
            "b's plan must not wait behind all of a's"
        );
        let _ = std::fs::remove_file(tmp("rr"));
    }

    #[test]
    fn unqueue_frees_a_cancelled_plans_slot() {
        let mut daemon = Daemon {
            config: DaemonConfig::default(),
            plans: BTreeMap::new(),
            lanes: Vec::new(),
            rr_next: 0,
            running: None,
            workers: BTreeMap::new(),
            clients: BTreeMap::new(),
            journal: JournalWriter::create(&tmp("unq")).expect("journal"),
            draining: false,
            stats: DaemonStats::default(),
            telemetry: None,
            worker_metrics: BTreeMap::new(),
            next_batch: 0,
        };
        daemon.enqueue("a", 1);
        daemon.enqueue("a", 2);
        assert_eq!(daemon.queued_count(), 2);
        daemon.unqueue(1);
        assert_eq!(daemon.queued_count(), 1);
        assert_eq!(daemon.next_plan(), Some(2));
        let _ = std::fs::remove_file(tmp("unq"));
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "zhuyi-daemon-test-{tag}-{}.journal",
            std::process::id()
        ))
    }
}
