//! `corpus-dist`: a fuzzed registry corpus (mixed straight and curved
//! roads) swept by the one-shot coordinator, `run_distributed`, with two
//! spawned `fleet_shard` processes per call. Definitions cross the wire as
//! canonical text and are re-parsed on each worker. Process spawns stay in
//! the timed region: users pay them on every run. Layers: `distd.coord`,
//! `distd.wire`, `registry`.

use crate::common::{
    derive, export_bytes, sampled, setup_median, Ctx, HostProbe, GRID, TAIL, THREADS, WARM_SEED,
};
use crate::report::{mean, median, peak_rss_mb, EndToEnd, Report};
use crate::spans::Spans;
use std::time::{Duration, Instant};
use zhuyi_distd::{run_distributed, DistConfig, DistReport};
use zhuyi_fleet::{run_sweep_with, ExecOptions, SweepPlan};
use zhuyi_registry::{FuzzConfig, ScenarioDef, ScenarioSource};

/// Definitions per corpus, one MSF job each.
const DEFS: usize = 48;

const STREAM_TIMED: u64 = 31;
const STREAM_SETUP: u64 = 32;
const STREAM_TRACED: u64 = 33;

fn corpus(seed: u64, stream: u64, index: u64) -> Vec<ScenarioDef> {
    FuzzConfig {
        prefix: "perfbench".to_string(),
        count: DEFS,
        seed: derive(seed, stream, index),
    }
    .generate()
}

fn plan(defs: &[ScenarioDef]) -> SweepPlan {
    SweepPlan::builder()
        .sources(defs.iter().cloned().map(ScenarioSource::from))
        .min_safe_fpr(GRID.to_vec())
        .build()
}

fn config(ctx: &Ctx, telemetry: bool) -> DistConfig {
    DistConfig {
        spawn_workers: THREADS,
        worker_binary: Some(ctx.worker_binary.clone()),
        // A wedged run must fail well inside the benchmark's time limit.
        stall_timeout: Duration::from_secs(30),
        telemetry,
        ..DistConfig::default()
    }
}

/// Gates every distributed run: complete, nothing quarantined, no worker
/// lost.
fn gate_run(report: &mut Report, what: &str, plan: &SweepPlan, run: &DistReport) {
    report.gate(run.store.len() == plan.len(), || {
        format!(
            "{what}: {} results for {} jobs",
            run.store.len(),
            plan.len()
        )
    });
    report.gate(run.quarantine.is_empty(), || {
        format!("{what}: {} jobs quarantined", run.quarantine.len())
    });
    report.gate(run.stats.workers_lost == 0, || {
        format!("{what}: {} workers lost", run.stats.workers_lost)
    });
}

/// Gate: a distributed export must equal the in-process sweep of the plan.
fn gate_exports(report: &mut Report, what: &str, plan: &SweepPlan, bytes: &str) {
    let local = export_bytes(&run_sweep_with(plan, THREADS, ExecOptions::default()));
    report.gate(bytes == local, || {
        format!("{what}: exports differ from in-process run_sweep_with")
    });
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut host = HostProbe::start(THREADS);
    // Set-up: corpus generation and a warm-up distributed run (binary
    // paged in, scenario tables built).
    let setup = setup_median(&mut host, |_| {
        let warm = plan(&corpus(WARM_SEED, STREAM_SETUP, 0));
        run_distributed(&warm, &config(ctx, false)).map_err(|e| e.to_string())?;
        Ok(plan(&corpus(ctx.seed, STREAM_TIMED, 0)))
    });
    let (mut next, setup_s) = match setup {
        Ok(ok) => ok,
        Err(e) => return report.gate(false, || format!("set-up failed: {e}")),
    };

    let mut latencies_ms = Vec::new();
    let mut jobs = 0usize;
    let mut busy_s = 0.0;
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) {
        host.tick();
        let plan = next;
        let t = Instant::now();
        let run = run_distributed(&plan, &config(ctx, false));
        let dt = t.elapsed().as_secs_f64();
        report.attempted += 1;
        match run {
            Ok(run) => {
                latencies_ms.push(dt * 1e3);
                busy_s += dt;
                jobs += plan.len();
                gate_run(report, &format!("run {i}"), &plan, &run);
                if sampled(i) {
                    kept.push((i, plan, export_bytes(&run.store)));
                }
            }
            Err(e) => report.gate(false, || format!("run {i} failed: {e}")),
        }
        i += 1;
        next = self::plan(&corpus(ctx.seed, STREAM_TIMED, i as u64));
    }
    let rss = peak_rss_mb();
    for (i, plan, bytes) in &kept {
        gate_exports(report, &format!("run {i}"), plan, bytes);
    }

    report.end_to_end(EndToEnd {
        ops_per_s: jobs as f64 / busy_s,
        ops: "jobs_per_s: MSF jobs per second through run_distributed",
        latencies_ms: &latencies_ms,
        op: &format!("one {DEFS}-job run_distributed incl. spawns"),
        tail: TAIL,
        setup_s,
        setup: "corpus generation + warm-up run",
        rss_mb: rss,
        host: Some(&host),
    });
}

pub fn trace(ctx: &Ctx, spans: &Spans, report: &mut Report) {
    const MOVES: &str = "moves ops_per_s on corpus-dist";
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut pool_s = 0.0;
    let mut steals = Vec::new();
    let mut first_plan = None;

    if let Err(e) = run_distributed(
        &plan(&corpus(WARM_SEED, STREAM_SETUP, 0)),
        &config(ctx, false),
    ) {
        return report.gate(false, || format!("warm-up failed: {e}"));
    }
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) {
        let defs = corpus(ctx.seed, STREAM_TRACED, i as u64);
        // Registry: canonical text back to definitions, as each worker
        // does for every definition it receives.
        for (k, def) in defs.iter().enumerate() {
            let text = def.to_text();
            let parsed = spans.time("registry.parse", None, (i * DEFS + k) as u64, || {
                ScenarioDef::parse(&text)
            });
            report.gate(parsed.as_ref() == Ok(def), || {
                format!("{}: canonical text does not parse back", def.name)
            });
        }
        let plan = plan(&defs);

        let t = Instant::now();
        let plain = run_distributed(&plan, &config(ctx, false));
        plain_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let traced = spans.time("distd.coord.run", None, i as u64, || {
            run_distributed(&plan, &config(ctx, false))
        });
        traced_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let local = spans.time("fleet.pool.sweep", None, i as u64, || {
            run_sweep_with(&plan, THREADS, ExecOptions::default())
        });
        pool_s += t.elapsed().as_secs_f64();

        report.attempted += 2;
        for (what, run) in [("plain run", plain), ("traced run", traced)] {
            match run {
                Ok(run) => {
                    gate_run(report, what, &plan, &run);
                    report.gate(export_bytes(&run.store) == export_bytes(&local), || {
                        format!("{what} {i}: exports differ from in-process run_sweep_with")
                    });
                    steals.push(run.stats.jobs_stolen as f64);
                }
                Err(e) => report.gate(false, || format!("{what} {i} failed: {e}")),
            }
        }
        first_plan.get_or_insert(plan);
        i += 1;
    }

    // Fixed coordinator cost: a one-job plan, spawns and handshakes
    // included.
    let one =
        SweepPlan::from_jobs(first_plan.as_ref().expect("one traced run").jobs()[..1].to_vec());
    for k in 0..3 {
        match spans.time("distd.coord.one_job", None, k, || {
            run_distributed(&one, &config(ctx, false))
        }) {
            Ok(run) => gate_run(report, "one-job run", &one, &run),
            Err(e) => report.gate(false, || format!("one-job run failed: {e}")),
        }
    }
    // Wire bytes need worker telemetry, which slows the simulation, so
    // they come from one extra run of the first traced plan.
    let bytes_per_job = match run_distributed(
        first_plan.as_ref().expect("one traced run"),
        &config(ctx, true),
    ) {
        Ok(run) => {
            let bytes: u64 = run.telemetry.map_or(0, |t| t.wire_recv_bytes.iter().sum());
            bytes as f64 / run.store.len().max(1) as f64
        }
        Err(e) => {
            report.gate(false, || format!("telemetry run failed: {e}"));
            f64::NAN
        }
    };

    let parse_us = spans.us("registry.parse");
    report.metric(
        "distd.coord.fixed_ms",
        median(&spans.ms("distd.coord.one_job")),
        "ms",
        format!("1-job run_distributed, p50 of 3; {MOVES}"),
    );
    report.metric(
        "distd.wire.bytes_per_job",
        bytes_per_job,
        "bytes",
        format!("payload bytes received by coordinator and workers per job; {MOVES}"),
    );
    report.metric(
        "distd.coord.steals",
        mean(&steals),
        "count",
        format!("DistStats.jobs_stolen per run, mean; {MOVES}"),
    );
    report.metric(
        "registry.parse_us_per_def",
        mean(&parse_us),
        "us",
        format!("mean of {} parses; {MOVES}", parse_us.len()),
    );
    report.metric(
        "distd.vs_pool_ratio",
        plain_s / pool_s,
        "ratio",
        format!("run_distributed / in-process {THREADS}-thread pool, same plans; {MOVES}"),
    );
    report.metric(
        "bench.corpus-dist.trace_overhead",
        traced_s / plain_s,
        "ratio",
        "traced / untraced run_distributed wall",
    );
}
