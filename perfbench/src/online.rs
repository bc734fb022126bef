//! `online-check`: the paper's post-deployment use. Jittered catalog
//! scenarios run closed-loop at 30 FPR; every 0.1 s of simulated time the
//! benchmark calls `ZhuyiRuntime::control_step` (constant-acceleration
//! predictor, budget prioritization applied) and times it. Layers:
//! `runtime`, `prediction`, `zhuyi`; batching, the pool, and distd are
//! bypassed.

use crate::common::{jitter_seed, sampled, setup_median, Ctx, HostProbe, WARM_SEED};
use crate::report::{mean, median, peak_rss_mb, quantile, EndToEnd, Report};
use crate::spans::Spans;
use av_core::prelude::*;
use av_core::scene::Scene;
use av_perception::rig::CameraId;
use av_perception::system::RatePlan;
use av_prediction::kinematic::ConstantAcceleration;
use av_prediction::predictor::TrajectoryPredictor;
use av_scenarios::catalog::{Scenario, ScenarioId};
use av_sim::engine::{Simulation, StepOutcome};
use av_sim::observer::NullObserver;
use std::time::Instant;
use zhuyi::aggregate::aggregate_latencies;
use zhuyi::camera_fpr::{per_camera_fpr, ActorEstimate};
use zhuyi::estimator::{EgoKinematics, SearchOutcome, SearchStats, TolerableLatencyEstimator};
use zhuyi::future::{ActorFuture, TrajectoryFuture};
use zhuyi_runtime::{
    check, drive, BudgetAllocator, OnlineEstimates, RuntimeConfig, RuntimeDecision, ZhuyiRuntime,
};

/// Uniform camera rate the scenarios start at.
const START_FPR: f64 = 30.0;

/// Passes over the nine scenarios that make up one run's inputs.
const CYCLES: u64 = 4;

const STREAM_TIMED: u64 = 11;
const STREAM_SETUP: u64 = 12;
const STREAM_TRACED: u64 = 13;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        // The paper's reference system: five cameras sharing the frame
        // budget of three provisioned at 30 FPR.
        budget: Some(BudgetAllocator {
            total: Fpr(3.0 * 30.0),
            min_per_camera: Fpr(1.0),
            max_per_camera: Fpr(30.0),
        }),
        apply_allocation: true,
        ..RuntimeConfig::default()
    }
}

fn runtime() -> ZhuyiRuntime {
    ZhuyiRuntime::new(config()).expect("benchmark runtime config is valid")
}

/// One cycle: every catalog scenario once, each with a fresh jitter seed.
fn cycle(seed: u64, stream: u64, index: u64) -> Vec<Scenario> {
    ScenarioId::ALL
        .iter()
        .enumerate()
        .map(|(k, &id)| Scenario::build(id, jitter_seed(seed, stream, index * 9 + k as u64)))
        .collect()
}

fn simulation(scenario: &Scenario) -> Simulation {
    scenario
        .simulation(RatePlan::Uniform(Fpr(START_FPR)))
        .expect("uniform 30 FPR is a valid rate plan")
}

/// `zhuyi_runtime::drive`'s loop with `step` in place of the runtime's
/// control step (the untraced run times it; the traced run splits it).
fn drive_with(
    mut sim: Simulation,
    period: f64,
    mut step: impl FnMut(&mut Simulation) -> RuntimeDecision,
) -> Vec<RuntimeDecision> {
    let mut decisions = Vec::new();
    let mut next_control = 0.0;
    loop {
        if sim.time().value() + 1e-12 >= next_control {
            decisions.push(step(&mut sim));
            next_control = sim.time().value() + period;
        }
        match sim.step_with(&mut NullObserver) {
            StepOutcome::Running => continue,
            StepOutcome::Collided | StepOutcome::Finished => break,
        }
    }
    decisions
}

/// Bit-level comparison: `Debug` prints every `f64` in its shortest
/// round-trip form, so equal strings mean equal bits.
fn same(a: &[RuntimeDecision], b: &[RuntimeDecision]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Gate: a timed drive's decisions must equal `zhuyi_runtime::drive` on
/// the same simulation.
fn gate_drive(report: &mut Report, what: &str, scenario: &Scenario, got: &[RuntimeDecision]) {
    let (_, expected) = drive(simulation(scenario), &runtime(), &ConstantAcceleration);
    report.gate(same(got, &expected), || {
        format!(
            "{what} {}: decisions differ from zhuyi_runtime::drive",
            scenario.name
        )
    });
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let period = config().control_period.value();
    let mut host = HostProbe::start(1);
    // Set-up: runtime construction, input generation, and one warm-up
    // drive.
    let ((runtime, mut first), setup_s) = setup_median(&mut host, |_| {
        let runtime = runtime();
        let warm = cycle(WARM_SEED, STREAM_SETUP, 0);
        let timed = cycle(ctx.seed, STREAM_TIMED, 0);
        drive(simulation(&warm[0]), &runtime, &ConstantAcceleration);
        Ok((runtime, timed))
    })
    .expect("online setup cannot fail");

    // The run's inputs: CYCLES passes over the nine scenarios, each
    // scenario with its own jitter seed.
    let scenarios: Vec<Scenario> = (0..CYCLES)
        .flat_map(|c| {
            if c == 0 {
                std::mem::take(&mut first)
            } else {
                cycle(ctx.seed, STREAM_TIMED, c)
            }
        })
        .collect();
    // Per control step, the fastest of its timings over all rounds; per
    // drive, the fastest of its wall times.
    let mut best_ms: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut best_drive_s = vec![f64::INFINITY; scenarios.len()];
    let mut steps_run = 0u64;
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    // Whole rounds only, so every step has the same number of timings.
    while ctx.more(start, rounds) {
        for (k, scenario) in scenarios.iter().enumerate() {
            let mut times = Vec::with_capacity(best_ms[k].len());
            let t = Instant::now();
            let decisions = drive_with(simulation(scenario), period, |sim| {
                let t = Instant::now();
                let d = runtime.control_step(sim, &ConstantAcceleration);
                times.push(t.elapsed().as_secs_f64() * 1e3);
                d
            });
            best_drive_s[k] = best_drive_s[k].min(t.elapsed().as_secs_f64());
            // Between drives, so the probe sees the host the drives saw.
            host.sample();
            steps_run += times.len() as u64;
            if rounds == 0 {
                best_ms[k] = times;
                if sampled(k) {
                    kept.push((scenario, decisions));
                }
            } else {
                // A deterministic drive makes the same steps every round.
                report.gate(times.len() == best_ms[k].len(), || {
                    format!("drive {}: rounds made different steps", scenario.name)
                });
                for (best, t) in best_ms[k].iter_mut().zip(times) {
                    *best = best.min(t);
                }
            }
        }
        rounds += 1;
    }
    let step_ms: Vec<f64> = best_ms.concat();
    let drive_s: f64 = best_drive_s.iter().sum();
    report.attempted = steps_run;
    let rss = peak_rss_mb();

    for (scenario, decisions) in &kept {
        gate_drive(report, "drive", scenario, decisions);
    }

    report.end_to_end(EndToEnd {
        ops_per_s: step_ms.len() as f64 / drive_s,
        ops: "control steps per second of closed-loop driving, fastest round per drive",
        latencies_ms: &step_ms,
        op: "control_step_ms, fastest round per step",
        tail: 0.99,
        setup_s,
        setup: "runtime + inputs + warm-up drive",
        rss_mb: rss,
        host: Some(&host),
    });
    report.info(
        "online-check.rounds",
        rounds as f64,
        "count",
        format!("timed passes over {} drives", scenarios.len()),
    );
}

/// `ZhuyiRuntime::control_step`, call for call, with a span around each
/// public call it makes; adds the number of predicted futures to
/// `futures_seen`.
fn traced_step(
    sim: &mut Simulation,
    cfg: &RuntimeConfig,
    estimator: &TolerableLatencyEstimator,
    predictor: &dyn TrajectoryPredictor,
    spans: &Spans,
    request: u64,
    futures_seen: &mut usize,
) -> RuntimeDecision {
    const STEP: Option<&str> = Some("runtime.control_step");
    let zcfg = estimator.config();
    let (now, perceived, path, rates, current_latency) =
        spans.time("runtime.perceive", STEP, request, || {
            let now = sim.time();
            let ego = sim.ego().to_agent(sim.road());
            let tracked = sim.perception().world().coasted_agents(now);
            let perceived = Scene::new(now, ego, tracked);
            let path = sim.road().path().clone();
            let rates = sim.perception().rates();
            let current_latency = rates
                .iter()
                .map(|r| r.latency())
                .fold(Seconds(f64::INFINITY), Seconds::min);
            (now, perceived, path, rates, current_latency)
        });
    let ego = EgoKinematics::from_state(&perceived.ego.state);
    let mut actors = Vec::with_capacity(perceived.actors.len());
    for actor in &perceived.actors {
        let futures = spans.time("prediction.predict", STEP, request, || {
            predictor.predict(actor, perceived.time, cfg.online.prediction_horizon)
        });
        if futures.is_empty() {
            continue;
        }
        *futures_seen += futures.len();
        let mut samples = Vec::with_capacity(futures.len());
        let mut stats = SearchStats::default();
        let mut any_infeasible = false;
        let mut all_unconstrained = true;
        for traj in futures {
            let future = spans.time("zhuyi.future_build", STEP, request, || {
                TrajectoryFuture::new(
                    path.clone(),
                    &perceived.ego.state,
                    perceived.ego.dims,
                    actor.dims,
                    traj,
                    perceived.time,
                    zcfg.corridor_margin,
                )
            });
            let prob = future.probability();
            let est = spans.time("zhuyi.tolerable_latency", STEP, request, || {
                estimator.tolerable_latency(ego, &future, current_latency)
            });
            stats.absorb(est.stats);
            any_infeasible |= est.outcome == SearchOutcome::Infeasible;
            all_unconstrained &= est.outcome == SearchOutcome::Unconstrained;
            samples.push((est.latency, prob));
        }
        let latency =
            aggregate_latencies(&samples, cfg.online.aggregation).unwrap_or(zcfg.max_latency);
        let outcome = if all_unconstrained {
            SearchOutcome::Unconstrained
        } else if any_infeasible && latency <= zcfg.min_latency {
            SearchOutcome::Infeasible
        } else {
            SearchOutcome::Tolerable
        };
        actors.push(ActorEstimate {
            actor: actor.id,
            latency,
            outcome,
            stats,
        });
    }
    let cameras = spans.time("zhuyi.per_camera_fpr", STEP, request, || {
        per_camera_fpr(
            sim.perception().rig(),
            &perceived,
            &actors,
            zcfg.max_latency,
        )
    });
    let verdict = spans.time("runtime.check", STEP, request, || check(&rates, &cameras));
    let allocation = cfg.budget.and_then(|b| {
        let alloc = spans
            .time("runtime.allocate", STEP, request, || b.allocate(&cameras))
            .ok()?;
        if cfg.apply_allocation {
            for (i, rate) in alloc.rates.iter().enumerate() {
                let _ = sim.perception_mut().set_rate(CameraId(i), *rate);
            }
        }
        Some(alloc)
    });
    RuntimeDecision {
        time: now,
        estimates: OnlineEstimates {
            time: perceived.time,
            actors,
            cameras,
        },
        verdict,
        allocation,
    }
}

pub fn trace(ctx: &Ctx, spans: &Spans, report: &mut Report) {
    const MOVES: &str = "moves latency_ms_iqm/_tail (control_step_ms) on online-check";
    let cfg = config();
    let period = cfg.control_period.value();
    let runtime = runtime();
    let estimator =
        TolerableLatencyEstimator::new(cfg.online.zhuyi).expect("paper config is valid");
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut evaluations = Vec::new();
    let mut futures = Vec::new();
    let mut actors = Vec::new();
    let mut request = 0u64;
    let mut kept = Vec::new();

    drive(
        simulation(&cycle(WARM_SEED, STREAM_SETUP, 0)[0]),
        &runtime,
        &ConstantAcceleration,
    );
    let start = Instant::now();
    let mut c = 0;
    while ctx.more(start, c) {
        for scenario in cycle(ctx.seed, STREAM_TRACED, c as u64) {
            let t = Instant::now();
            drive_with(simulation(&scenario), period, |sim| {
                runtime.control_step(sim, &ConstantAcceleration)
            });
            plain_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let decisions = drive_with(simulation(&scenario), period, |sim| {
                let mut step_futures = 0;
                request += 1;
                let d = spans.time("runtime.control_step", None, request, || {
                    traced_step(
                        sim,
                        &cfg,
                        &estimator,
                        &ConstantAcceleration,
                        spans,
                        request,
                        &mut step_futures,
                    )
                });
                futures.push(step_futures as f64);
                d
            });
            traced_s += t.elapsed().as_secs_f64();
            for d in &decisions {
                evaluations.push(
                    d.estimates
                        .actors
                        .iter()
                        .map(|a| a.stats.constraint_evaluations)
                        .sum::<u64>() as f64,
                );
                actors.push(d.estimates.actors.len() as f64);
            }
            report.attempted += decisions.len() as u64;
            if sampled(c) {
                kept.push((scenario, decisions));
            }
        }
        c += 1;
    }
    for (scenario, decisions) in &kept {
        gate_drive(report, "traced drive", scenario, decisions);
    }

    let p50 = |name: &str| median(&spans.us(name));
    let n = spans.us("runtime.control_step").len();
    report.metric(
        "runtime.perceive_us_p50",
        p50("runtime.perceive"),
        "us",
        format!("p50 of {n} steps; {MOVES}"),
    );
    report.metric(
        "prediction.predict_us_p50",
        p50("prediction.predict"),
        "us",
        format!("p50 per actor; {MOVES}"),
    );
    report.metric(
        "zhuyi.future_build_us_p50",
        p50("zhuyi.future_build"),
        "us",
        format!("p50 per future; {MOVES}"),
    );
    report.metric(
        "zhuyi.tolerable_latency_us_p50",
        p50("zhuyi.tolerable_latency"),
        "us",
        format!("p50 per future; {MOVES}"),
    );
    report.metric(
        "zhuyi.tolerable_latency_us_p99",
        quantile(&spans.us("zhuyi.tolerable_latency"), 0.99),
        "us",
        format!(
            "p99 of {} searches; {MOVES}",
            spans.us("zhuyi.tolerable_latency").len()
        ),
    );
    report.metric(
        "zhuyi.per_camera_fpr_us_p50",
        p50("zhuyi.per_camera_fpr"),
        "us",
        format!("p50 per step; {MOVES}"),
    );
    report.metric(
        "runtime.check_us_p50",
        p50("runtime.check"),
        "us",
        format!("p50 per step; {MOVES}"),
    );
    report.metric(
        "runtime.allocate_us_p50",
        p50("runtime.allocate"),
        "us",
        format!("p50 per step; {MOVES}"),
    );
    const TAIL: &str = "moves latency_ms_tail (control_step_ms_p99) on online-check";
    report.metric(
        "zhuyi.constraint_evaluations_per_step",
        mean(&evaluations),
        "count",
        format!("mean, from SearchStats; {TAIL}"),
    );
    report.metric(
        "zhuyi.futures_per_step",
        mean(&futures),
        "count",
        format!("mean predicted futures; {TAIL}"),
    );
    report.metric(
        "zhuyi.actors_per_step",
        mean(&actors),
        "count",
        format!("mean estimated actors; {TAIL}"),
    );
    report.metric(
        "bench.online-check.trace_overhead",
        traced_s / plain_s,
        "ratio",
        "traced (split step) / untraced drive wall",
    );
}
