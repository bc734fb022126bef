//! `table1-sweep`: the paper's pre-deployment experiment. The nine catalog
//! scenarios times fresh jitter seeds, each a minimum-safe-FPR search over
//! the Table-1 grid, swept by `zhuyi_fleet::run_sweep_with` on the
//! in-process pool. Layers: `sim` batch ticks, `fleet.search`,
//! `fleet.exec`, `fleet.pool`, `scenarios`, and `telemetry` when on.

use crate::common::{
    jitter_seed, sampled, setup_median, Ctx, HostProbe, GRID, TAIL, THREADS, WARM_SEED,
};
use crate::report::{mean, median, peak_rss_mb, quantile, EndToEnd, Report};
use crate::spans::Spans;
use std::sync::Arc;
use std::time::Instant;
use zhuyi_fleet::{
    exec, pool, run_sweep_with, ExecOptions, JobKind, JobOutcome, SweepJob, SweepPlan,
};
use zhuyi_telemetry::{Counter, Phase, Registry, Snapshot};

/// Jitter seeds per scenario in one sweep: 9 × 3 = 27 MSF jobs.
const SEEDS_PER_SWEEP: u64 = 3;
const JOBS_PER_SWEEP: usize = 9 * SEEDS_PER_SWEEP as usize;

/// Input stream ids (see [`crate::common::derive`]).
const STREAM_TIMED: u64 = 1;
const STREAM_SETUP: u64 = 2;
const STREAM_TRACED: u64 = 3;

fn plan(seed: u64, stream: u64, index: u64) -> SweepPlan {
    SweepPlan::builder()
        .seeds((0..SEEDS_PER_SWEEP).map(|k| jitter_seed(seed, stream, index * SEEDS_PER_SWEEP + k)))
        .min_safe_fpr(GRID.to_vec())
        .build()
}

fn sweep(plan: &SweepPlan) -> zhuyi_fleet::ResultStore {
    run_sweep_with(plan, THREADS, ExecOptions::default())
}

/// The per-rate reference search every export is checked against.
fn reference(plan: &SweepPlan) -> String {
    crate::common::export_bytes(&run_sweep_with(
        plan,
        THREADS,
        ExecOptions {
            batch_lanes: 1,
            ..ExecOptions::default()
        },
    ))
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut host = HostProbe::start(THREADS);
    // Set-up: plan generation and a warm-up sweep (pool threads, page
    // faults, lazily built tables).
    let ((), setup_s) = setup_median(&mut host, |_| {
        sweep(&plan(WARM_SEED, STREAM_SETUP, 0));
        Ok(())
    })
    .expect("table1 setup cannot fail");

    let mut latencies_ms = Vec::new();
    let mut jobs = 0usize;
    let mut busy_s = 0.0;
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) {
        host.tick();
        let plan = plan(ctx.seed, STREAM_TIMED, i as u64);
        let t = Instant::now();
        let store = sweep(&plan);
        let dt = t.elapsed().as_secs_f64();
        latencies_ms.push(dt * 1e3);
        busy_s += dt;
        jobs += plan.len();
        report.attempted += 1;
        report.gate(store.len() == plan.len(), || {
            format!("sweep {i}: {} results for {} jobs", store.len(), plan.len())
        });
        if sampled(i) {
            kept.push((i, plan, crate::common::export_bytes(&store)));
        }
        i += 1;
    }
    let rss = peak_rss_mb();

    // Correctness: the batched default path must export exactly what the
    // per-rate reference search exports.
    for (i, plan, bytes) in &kept {
        report.gate(*bytes == reference(plan), || {
            format!("sweep {i}: exports differ from the per-rate reference search")
        });
    }

    report.end_to_end(EndToEnd {
        ops_per_s: jobs as f64 / busy_s,
        ops: "jobs_per_s: MSF jobs per second of sweeping",
        latencies_ms: &latencies_ms,
        op: &format!("one {JOBS_PER_SWEEP}-job sweep"),
        tail: TAIL,
        setup_s,
        setup: "warm-up sweep",
        rss_mb: rss,
        host: Some(&host),
    });
}

/// Phase ticks and durations folded over every telemetry-on sweep.
fn phase_shares(snapshot: &Snapshot) -> Vec<(Phase, f64)> {
    let total: u64 = Phase::ALL
        .iter()
        .map(|p| snapshot.phase_ns[p.index()].sum)
        .sum();
    Phase::ALL
        .iter()
        .map(|&p| {
            (
                p,
                snapshot.phase_ns[p.index()].sum as f64 / total.max(1) as f64,
            )
        })
        .collect()
}

pub fn trace(ctx: &Ctx, spans: &Spans, report: &mut Report) {
    const MOVES: &str = "moves ops_per_s on table1-sweep";
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut telemetry_s = 0.0;
    let mut exec_busy_s = 0.0;
    let mut first_counts: Option<Snapshot> = None;
    let mut folded = Snapshot::default();
    let opts = ExecOptions::default();

    // Warm-up, untimed.
    sweep(&plan(WARM_SEED, STREAM_SETUP, 0));
    let start = Instant::now();
    let mut i = 0;
    while ctx.more(start, i) {
        let plan = plan(ctx.seed, STREAM_TRACED, i as u64);
        let jobs = plan.jobs().to_vec();
        // One request per job across every traced sweep.
        let request = |job: &SweepJob| (i * JOBS_PER_SWEEP) as u64 + job.id.0;

        // (a) Untraced: the end-to-end call.
        let t = Instant::now();
        let untraced = sweep(&plan);
        plain_s += t.elapsed().as_secs_f64();

        // (b) The pool around exec, one `fleet.exec` span per job.
        let t = Instant::now();
        let outcomes = pool::run_indexed(jobs.clone(), THREADS, |job| {
            spans.time("fleet.exec", Some("fleet.pool"), request(job), || {
                exec::execute_with(&job.spec, opts)
            })
        });
        let wall = t.elapsed().as_secs_f64();
        traced_s += wall;
        exec_busy_s += wall * THREADS as f64;

        // (c) exec split into its two calls: build, then search.
        let split = pool::run_indexed(jobs.clone(), THREADS, |job| {
            let scenario = spans.time("scenarios.build", Some("fleet.pool"), request(job), || {
                job.spec.scenario.build(job.spec.seed)
            });
            let JobKind::MinSafeFpr { candidates } = &job.spec.kind else {
                unreachable!("table1 plans hold MSF jobs only")
            };
            JobOutcome::MinSafeFpr(spans.time(
                "fleet.search",
                Some("fleet.pool"),
                request(job),
                || zhuyi_fleet::min_safe_fpr_batched(&scenario, candidates, opts.batch_lanes),
            ))
        });
        let stored: Vec<&JobOutcome> = untraced.results().iter().map(|r| &r.outcome).collect();
        report.gate(outcomes.iter().collect::<Vec<_>>() == stored, || {
            format!("traced sweep {i}: pool+exec outcomes differ from run_sweep_with")
        });
        report.gate(split == outcomes, || {
            format!("traced sweep {i}: build+search outcomes differ from exec")
        });

        // (d) The same sweep with a telemetry registry installed.
        let registry = Arc::new(Registry::new());
        let t = Instant::now();
        {
            let _guard = zhuyi_telemetry::install(&registry);
            sweep(&plan);
        }
        telemetry_s += t.elapsed().as_secs_f64();
        let snapshot = registry.snapshot();
        folded.merge(&snapshot);
        first_counts.get_or_insert(snapshot);
        report.attempted += 1;
        i += 1;
    }

    let exec_ms = spans.ms("fleet.exec");
    let counts = first_counts.expect("at least one traced sweep");
    let c = |counter: Counter| counts.counters[counter.index()] as f64;
    report.metric(
        "scenarios.build_ms",
        median(&spans.ms("scenarios.build")),
        "ms",
        format!(
            "p50 of {} builds; {MOVES}",
            spans.ms("scenarios.build").len()
        ),
    );
    report.metric(
        "fleet.exec.job_ms_p50",
        median(&exec_ms),
        "ms",
        format!("p50 of {} jobs; {MOVES}", exec_ms.len()),
    );
    report.metric(
        "fleet.exec.job_ms_p99",
        quantile(&exec_ms, 0.99),
        "ms",
        format!("p99 of {} jobs; {MOVES}", exec_ms.len()),
    );
    report.metric(
        "fleet.search.msf_ms_p50",
        median(&spans.ms("fleet.search")),
        "ms",
        format!("p50 of batched MSF searches; {MOVES}"),
    );
    report.metric(
        "fleet.pool.busy_share",
        spans.total_s("fleet.exec") / exec_busy_s,
        "share",
        format!("sum of exec time / ({THREADS} threads x wall); {MOVES}"),
    );
    report.metric(
        "sim.batch.lane_ticks",
        c(Counter::BatchLaneTicks),
        "count",
        format!("exact, first traced sweep; {MOVES}"),
    );
    report.metric(
        "sim.batch.ticks_retired",
        c(Counter::BatchTicksRetired),
        "count",
        format!("exact, first traced sweep; {MOVES}"),
    );
    report.metric(
        "sim.batch.cert_success_ratio",
        c(Counter::BatchCertifiedLanes) / c(Counter::BatchCertAttempts).max(1.0),
        "ratio",
        format!("certified lanes / certificate attempts; {MOVES}"),
    );
    for (phase, share) in phase_shares(&folded) {
        report.metric(
            &format!("sim.phase.{}_share", phase.name()),
            share,
            "share",
            format!("taken with telemetry on (~3x overhead); {MOVES}"),
        );
    }
    report.metric(
        "telemetry.on_off_ratio",
        telemetry_s / plain_s,
        "ratio",
        format!("sweep wall with a registry installed / without; {MOVES}"),
    );
    report.metric(
        "bench.table1-sweep.trace_overhead",
        traced_s / plain_s,
        "ratio",
        "traced (pool+exec spans) / untraced sweep wall",
    );
    report.info(
        "table1-sweep.traced_sweeps",
        i as f64,
        "count",
        format!("mean exec {:.3} ms", mean(&exec_ms)),
    );
}
