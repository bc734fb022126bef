//! `sweep-service`: a closed loop of one client against a warm sweep
//! daemon with two spawned workers. The client runs a stream of distinct
//! small MSF plans through `zhuyi_distd::run_via_daemon`, so fixed
//! per-plan cost — admission, journal append, wire round trips, status
//! polling, fetch — dominates. Layers: `distd.daemon`, `distd.journal`,
//! `distd.wire`, `distd.client`.

use crate::common::{
    export_bytes, file_len, jitter_seed, sampled, setup_median, Ctx, HostProbe, GRID, TAIL,
    THREADS, WARM_SEED,
};
use crate::report::{median, peak_rss_mb, EndToEnd, Report};
use crate::spans::Spans;
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zhuyi_distd::{client, run_daemon, ClientConfig, DaemonConfig, DaemonError, DaemonReport};
use zhuyi_distd::{JournalRecord, JournalWriter};
use zhuyi_fleet::{run_sweep_with, ExecOptions, ResultStore, SweepPlan};

/// Jitter seeds per plan: the nine catalog scenarios × 3 seeds is 27 MSF
/// jobs, whose execution spans several status polls.
const SEEDS_PER_PLAN: u64 = 3;

/// The client's status-poll interval. The library default (200 ms)
/// quantizes plan latency into 200 ms steps, which would hide any change
/// smaller than a step.
const POLL: Duration = Duration::from_millis(10);

/// Plans after which `peak_rss_mb` is read. The daemon keeps every
/// plan's results for fetching, so its memory grows with the plans it has
/// served; read after a fixed number, it does not depend on how fast the
/// host ran the plans.
const RSS_PLANS: usize = 128;

const STREAM_TIMED: u64 = 21;
const STREAM_SETUP: u64 = 22;
const STREAM_TRACED: u64 = 23;
const STREAM_TELEMETRY: u64 = 24;

fn plan(seed: u64, stream: u64, index: u64) -> SweepPlan {
    SweepPlan::builder()
        .seeds((0..SEEDS_PER_PLAN).map(|k| jitter_seed(seed, stream, index * SEEDS_PER_PLAN + k)))
        .min_safe_fpr(GRID.to_vec())
        .build()
}

fn free_addr() -> Result<String, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    Ok(addr.to_string())
}

/// A daemon running on a thread of this process. Dropping it drains the
/// daemon (which stops its workers) and joins the thread, so no exit path
/// leaves a daemon or a worker process behind.
struct Daemon {
    client: ClientConfig,
    journal: PathBuf,
    thread: Option<JoinHandle<Result<DaemonReport, DaemonError>>>,
}

impl Daemon {
    /// Starts a daemon and returns once it has accepted a client hello.
    fn start(ctx: &Ctx, dir: PathBuf, telemetry: bool) -> Result<Self, String> {
        let addr = free_addr()?;
        let journal = dir.join("fleet.journal");
        let config = DaemonConfig {
            listen: addr.clone(),
            journal: journal.clone(),
            spawn_workers: THREADS,
            worker_binary: Some(ctx.worker_binary.clone()),
            telemetry,
            ..DaemonConfig::default()
        };
        let thread = std::thread::spawn(move || run_daemon(&config));
        let mut daemon = Daemon {
            client: ClientConfig {
                addr,
                name: "perfbench".to_string(),
                poll_interval: POLL,
                poll_timeout: Duration::from_secs(60),
                ..ClientConfig::default()
            },
            journal,
            thread: Some(thread),
        };
        // The first accepted hello: a status query for a plan nobody
        // submitted, answered once the daemon's handshake is up.
        let probe = ClientConfig {
            retry_max: 0,
            read_timeout: Duration::from_secs(5),
            ..daemon.client.clone()
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while client::plan_status(&probe, 0).is_err() {
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let outcome = daemon.thread.take().expect("checked").join();
                return Err(format!("daemon exited during start-up: {outcome:?}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not accept a hello within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// Drains the daemon and returns its service report.
    fn stop(mut self) -> Result<DaemonReport, String> {
        let thread = self
            .thread
            .take()
            .expect("daemon thread present until stopped");
        client::drain(&self.client).map_err(|e| format!("drain failed: {e}"))?;
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon failed: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            if client::drain(&self.client).is_ok() {
                let _ = thread.join();
            }
        }
    }
}

fn via_daemon(daemon: &Daemon, plan: &SweepPlan) -> Result<ResultStore, String> {
    client::run_via_daemon(&daemon.client, plan, ExecOptions::default()).map_err(|e| e.to_string())
}

/// Start-up gate plus warm-up: daemon start to first accepted hello, then
/// one plan so both workers are connected and warm.
fn warm_daemon(ctx: &Ctx, rep: usize, telemetry: bool) -> Result<Daemon, String> {
    let daemon = Daemon::start(
        ctx,
        ctx.scratch_dir(&format!("daemon-{rep}-{telemetry}")),
        telemetry,
    )?;
    via_daemon(&daemon, &plan(WARM_SEED, STREAM_SETUP, 0))?;
    Ok(daemon)
}

/// Gates common to both runs: drained cleanly, nothing deduped, nothing
/// lost.
fn gate_report(report: &mut Report, stopped: Result<DaemonReport, String>, submitted: usize) {
    match stopped {
        Ok(daemon) => {
            let s = daemon.stats;
            report.gate(s.submits_deduped == 0, || {
                format!("{} submissions were deduped", s.submits_deduped)
            });
            report.gate(s.plans_admitted == submitted, || {
                format!(
                    "daemon admitted {} plans of {submitted} submitted",
                    s.plans_admitted
                )
            });
            report.gate(s.workers_lost == 0, || {
                format!("daemon lost {} workers", s.workers_lost)
            });
        }
        Err(e) => report.gate(false, || e),
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut host = HostProbe::start(THREADS);
    let (daemon, setup_s) = match setup_median(&mut host, |rep| warm_daemon(ctx, rep, false)) {
        Ok(ok) => ok,
        Err(e) => {
            report.gate(false, || format!("daemon set-up failed: {e}"));
            return;
        }
    };

    let mut latencies_ms = Vec::new();
    let mut jobs = 0usize;
    let mut busy_s = 0.0;
    let mut kept = Vec::new();
    let mut rss = f64::NAN;
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) || i < RSS_PLANS {
        host.tick();
        let plan = plan(ctx.seed, STREAM_TIMED, i as u64);
        let t = Instant::now();
        let fetched = via_daemon(&daemon, &plan);
        let dt = t.elapsed().as_secs_f64();
        report.attempted += 1;
        i += 1;
        match fetched {
            Ok(store) => {
                latencies_ms.push(dt * 1e3);
                busy_s += dt;
                jobs += plan.len();
                report.gate(store.len() == plan.len(), || {
                    format!("plan {i}: {} results for {} jobs", store.len(), plan.len())
                });
                if sampled(i - 1) {
                    kept.push((plan, export_bytes(&store)));
                }
            }
            Err(e) => report.gate(false, || format!("plan {i} failed: {e}")),
        }
        if i == RSS_PLANS {
            rss = peak_rss_mb();
        }
    }
    gate_report(report, daemon.stop(), i + 1);
    for (plan, bytes) in &kept {
        let local = export_bytes(&run_sweep_with(plan, THREADS, ExecOptions::default()));
        report.gate(*bytes == local, || {
            "fetched exports differ from in-process run_sweep_with".to_string()
        });
    }

    report.end_to_end(EndToEnd {
        ops_per_s: jobs as f64 / busy_s,
        ops: "MSF jobs per second through the daemon",
        latencies_ms: &latencies_ms,
        op: "plan_ms, submit to fetched store",
        tail: TAIL,
        setup_s,
        setup: "daemon start to first hello + warm-up plan",
        rss_mb: rss,
        host: Some(&host),
    });
}

/// Times `JournalWriter::append` on a scratch journal: per plan, the
/// submission, one result per job, and the completion, as the daemon
/// writes them.
fn journal_append_us(ctx: &Ctx, plans: &[(SweepPlan, ResultStore)]) -> Result<Vec<f64>, String> {
    let path = ctx.scratch_dir("journal-append").join("scratch.journal");
    let mut writer = JournalWriter::create(&path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for (fingerprint, (plan, store)) in (1..).zip(plans) {
        let mut records = vec![JournalRecord::Submitted {
            fingerprint,
            client: "perfbench".to_string(),
            options: ExecOptions::default(),
            jobs: plan.jobs().to_vec(),
        }];
        records.extend(store.results().iter().map(|r| JournalRecord::Result {
            fingerprint,
            result: Box::new(r.clone()),
        }));
        records.push(JournalRecord::Completed { fingerprint });
        for record in &records {
            let t = Instant::now();
            writer.append(record).map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(times)
}

pub fn trace(ctx: &Ctx, spans: &Spans, report: &mut Report) {
    const P50: &str = "moves latency_ms_iqm (plan_ms_p50) on sweep-service";
    const TAIL_MOVES: &str = "moves latency_ms_tail (plan_ms_p75) on sweep-service";
    let daemon = match warm_daemon(ctx, 0, false) {
        Ok(daemon) => daemon,
        Err(e) => return report.gate(false, || format!("daemon set-up failed: {e}")),
    };
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut journal_bytes = Vec::new();
    let mut fetched_plans = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) {
        // Alternate an untraced plan and a traced one.
        let plain = plan(ctx.seed, STREAM_TRACED, 2 * i as u64);
        let t = Instant::now();
        if let Err(e) = via_daemon(&daemon, &plain) {
            report.gate(false, || format!("plan failed: {e}"));
        }
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let plan = plan(ctx.seed, STREAM_TRACED, 2 * i as u64 + 1);
        let req = i as u64;
        let before = file_len(&daemon.journal);
        let t = Instant::now();
        let fetched = spans.time(
            "distd.client.plan",
            None,
            req,
            || -> Result<ResultStore, String> {
                let parent = Some("distd.client.plan");
                let outcome = spans.time("distd.client.submit", parent, req, || {
                    client::submit_plan(&daemon.client, &plan, ExecOptions::default())
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                if outcome.deduped {
                    return Err(format!("plan {:#x} was deduped", outcome.fingerprint));
                }
                spans
                    .time("distd.client.wait", parent, req, || {
                        client::wait_for_plan(&daemon.client, outcome.fingerprint)
                    })
                    .map_err(|e| e.to_string())?;
                let results = spans
                    .time("distd.client.fetch", parent, req, || {
                        client::fetch_results(&daemon.client, outcome.fingerprint)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(ResultStore::new(results))
            },
        );
        let latency = t.elapsed().as_secs_f64();
        traced_ms.push(latency * 1e3);
        journal_bytes.push(file_len(&daemon.journal).saturating_sub(before) as f64);
        report.attempted += 2;
        match fetched {
            Ok(store) => {
                // The same plan in process: the reference for both the
                // exports gate and the daemon's overhead share.
                let t = Instant::now();
                let local = run_sweep_with(&plan, THREADS, ExecOptions::default());
                overhead.push(1.0 - t.elapsed().as_secs_f64() / latency);
                report.gate(export_bytes(&store) == export_bytes(&local), || {
                    "fetched exports differ from in-process run_sweep_with".to_string()
                });
                fetched_plans.push((plan, store));
            }
            Err(e) => report.gate(false, || format!("traced plan failed: {e}")),
        }
        i += 1;
    }
    gate_report(report, daemon.stop(), 2 * i + 1);

    // Exact wire frame counts need the daemon's telemetry, which slows the
    // workers, so they come from a separate short-lived daemon.
    let frames_per_plan = match warm_daemon(ctx, 1, true) {
        Ok(daemon) => {
            let extra = plan(ctx.seed, STREAM_TELEMETRY, 0);
            if let Err(e) = via_daemon(&daemon, &extra) {
                report.gate(false, || format!("telemetry plan failed: {e}"));
            }
            match daemon.stop() {
                Ok(r) => {
                    let frames: u64 = r.telemetry.map_or(0, |t| t.wire_recv_frames.iter().sum());
                    frames as f64 / r.stats.plans_completed.max(1) as f64
                }
                Err(e) => {
                    report.gate(false, || e);
                    f64::NAN
                }
            }
        }
        Err(e) => {
            report.gate(false, || format!("telemetry daemon failed: {e}"));
            f64::NAN
        }
    };
    let append_us = journal_append_us(ctx, &fetched_plans).unwrap_or_else(|e| {
        report.gate(false, || format!("journal append failed: {e}"));
        Vec::new()
    });

    report.metric(
        "distd.client.submit_ms_p50",
        median(&spans.ms("distd.client.submit")),
        "ms",
        format!("p50 of {i} plans; {P50}"),
    );
    report.metric(
        "distd.client.wait_ms_p50",
        median(&spans.ms("distd.client.wait")),
        "ms",
        format!("status polling until complete; {P50}"),
    );
    report.metric(
        "distd.client.fetch_ms_p50",
        median(&spans.ms("distd.client.fetch")),
        "ms",
        format!("p50; {P50}"),
    );
    report.metric(
        "distd.daemon.overhead_share",
        median(&overhead),
        "share",
        format!("1 - in-process exec / plan latency, p50; {P50}"),
    );
    report.metric(
        "distd.journal.append_us_p50",
        median(&append_us),
        "us",
        format!(
            "p50 of {} appends on a scratch file; {TAIL_MOVES}",
            append_us.len()
        ),
    );
    report.metric(
        "distd.journal.bytes_per_plan",
        median(&journal_bytes),
        "bytes",
        format!("journal growth per plan, p50; {TAIL_MOVES}"),
    );
    report.metric(
        "distd.wire.frames_per_plan",
        frames_per_plan,
        "count",
        format!("frames received by daemon and workers per plan; {TAIL_MOVES}"),
    );
    report.metric(
        "bench.sweep-service.trace_overhead",
        median(&traced_ms) / median(&plain_ms),
        "ratio",
        "traced (split client calls) / untraced plan latency, p50",
    );
}
