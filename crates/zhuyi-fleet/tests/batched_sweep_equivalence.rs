//! Fleet-level batched-vs-per-rate export equality: whatever
//! `ExecOptions::batch_lanes` says, a sweep's CSV and JSON exports must
//! be byte-identical — the batched backend replays the per-rate search's
//! accounting, so not even `sims_run` may drift.

use zhuyi_fleet::{run_sweep_with, ExecOptions, SweepPlan};

fn options(batch_lanes: usize) -> ExecOptions {
    ExecOptions {
        batch_lanes,
        ..ExecOptions::default()
    }
}

#[test]
fn msf_sweep_exports_are_identical_across_batch_granularities() {
    // The full jittered catalog (all nine scenarios, two variants each)
    // over the full paper rate grid: per-rate reference, whole-grid
    // batching, and an uneven chunk size that forces multiple passes.
    let plan = SweepPlan::builder()
        .scenarios(av_scenarios::catalog::ScenarioId::ALL)
        .jittered_variants(2)
        .min_safe_fpr(av_scenarios::catalog::PAPER_RATE_GRID.to_vec())
        .build();
    let per_rate = run_sweep_with(&plan, 2, options(1));
    for lanes in [0usize, 5] {
        let batched = run_sweep_with(&plan, 2, options(lanes));
        assert_eq!(
            per_rate.to_csv(),
            batched.to_csv(),
            "batch_lanes {lanes}: CSV export diverged from the per-rate path"
        );
        assert_eq!(
            per_rate.to_json(),
            batched.to_json(),
            "batch_lanes {lanes}: JSON export diverged from the per-rate path"
        );
    }
}

#[test]
fn batch_lanes_does_not_perturb_other_job_kinds() {
    // Probe, per-camera and analyze jobs (all three predictors) never
    // consult batch_lanes; a mixed plan pins that the flag cannot change
    // a byte of their exports either.
    use zhuyi_fleet::PredictorChoice;
    let scenarios = [
        av_scenarios::catalog::ScenarioId::CutOut,
        av_scenarios::catalog::ScenarioId::VehicleFollowing,
    ];
    let mut plans = vec![
        SweepPlan::builder()
            .scenarios(scenarios)
            .jittered_variants(2)
            .probe(4.0, false)
            .build(),
        SweepPlan::builder()
            .scenarios(scenarios)
            .jittered_variants(1)
            .probe_per_camera_plans(
                av_scenarios::catalog::PER_CAMERA_PLANS
                    .iter()
                    .map(|p| p.rates.to_vec()),
                false,
            )
            .build(),
    ];
    for predictor in [
        PredictorChoice::Oracle,
        PredictorChoice::ConstantVelocity,
        PredictorChoice::ConstantAcceleration,
    ] {
        plans.push(
            SweepPlan::builder()
                .scenarios([av_scenarios::catalog::ScenarioId::CutOut])
                .jittered_variants(1)
                .analyze(8.0, predictor, 50)
                .build(),
        );
    }
    for (i, plan) in plans.iter().enumerate() {
        let per_rate = run_sweep_with(plan, 2, options(1));
        let batched = run_sweep_with(plan, 2, options(0));
        assert_eq!(
            per_rate.to_csv(),
            batched.to_csv(),
            "plan {i}: non-MSF exports diverged under batch_lanes"
        );
    }
}

#[test]
fn record_traces_keeps_the_classic_path_whatever_batch_lanes_says() {
    let plan = SweepPlan::builder()
        .scenarios([av_scenarios::catalog::ScenarioId::CutOutFast])
        .jittered_variants(1)
        .min_safe_fpr(vec![1, 4, 30])
        .build();
    let recorded = run_sweep_with(
        &plan,
        1,
        ExecOptions {
            record_traces: true,
            batch_lanes: 0,
        },
    );
    let per_rate = run_sweep_with(&plan, 1, options(1));
    assert_eq!(
        recorded.to_csv(),
        per_rate.to_csv(),
        "trace-recording sweeps must still match the streaming exports"
    );
}
