//! Rate-batched lockstep simulation: N lanes of one scenario, one tick
//! loop.
//!
//! The minimum-safe-FPR search re-simulates the *same* scenario instance
//! once per candidate perception rate. [`Simulation::run_batched`]
//! advances every candidate — one **lane** per rate — through a single
//! lockstep tick loop over the shared scenario, so that everything the
//! rate cannot touch is computed once per tick instead of once per lane:
//!
//! - **Shared**: the road, the actor scripts, and — while an actor's
//!   behavior provably never reads the ego observation
//!   ([`ScriptedActor::step_consults_ego`]) — the actor's integration and
//!   its per-tick pose projection. Scripted actors *do* react to the ego
//!   in general (gap triggers, `MatchEgoSpeed`), and each lane's ego
//!   diverges as soon as its perception latency changes a plan, so an
//!   actor is **forked** into per-lane copies at the first tick where its
//!   step could consult the ego; before that, one shared step is bitwise
//!   identical for every lane.
//! - **Per lane (forked)**: the frame samplers and droppers (the rate
//!   itself), the world-model tracks, the perceived-agent coast, the ego
//!   policy/plan/integration, the collision check against the lane's own
//!   ego, and the observer fold.
//!
//! Results are **bit-identical** to running each lane through
//! [`Simulation::run_with`] on its own: the per-lane tick replays the
//! engine's exact phase order (snapshot → observer → collision →
//! perception → plan → integrate → actor steps) with the same arithmetic,
//! and sharing only ever deduplicates computations whose inputs are
//! bitwise equal across lanes. The equivalence suites in `av-scenarios`
//! and `zhuyi-fleet` pin this across the scenario catalog.
//!
//! # Lane retirement
//!
//! A lane leaves the loop early when its outcome is decided:
//!
//! - **Collision** — the engine stops a run at the first collision
//!   (`stop_on_collision`), so a collided lane retires exactly where its
//!   standalone run would have ended.
//! - **Certified-safe suffix** (verdict-only runs,
//!   [`Simulation::run_batched_verdicts`]) — when a conservative
//!   closed-loop certificate ([`cert`]) proves no collision can occur in
//!   the remainder of the run, the lane retires with a `Finished`
//!   verdict. Certificates never fire for metrics-folding runs, whose
//!   observers need every remaining tick.
//!
//! Retirement is where the batched mode's throughput comes from: across
//! the Table-1 catalog roughly half of all simulated ticks lie in
//! suffixes whose outcome is already decided (an ego parked behind the
//! revealed obstacle, a steady IDM car-following equilibrium, actors
//! separated into other lanes for good).

use crate::engine::{Simulation, StepOutcome};
use crate::observer::{NullObserver, SimObserver};
use crate::policy::EgoVehicle;
use crate::road::Road;
use crate::script::{Action, EgoObservation, ScriptedActor, SpeedModeView, Trigger};
use crate::trace::SimEvent;
use av_core::geometry::OrientedRect;
use av_core::prelude::*;
use av_core::scene::{Scene, SceneColumns};
use av_perception::system::PerceptionSystem;

/// Everything a lane forks from its siblings at construction: the ego
/// (identical spawn state across lanes) and the perception system (the
/// rate axis itself).
#[derive(Debug, Clone)]
pub struct LaneSpec {
    /// The lane's ego vehicle, freshly spawned.
    pub ego: EgoVehicle,
    /// The lane's perception system, configured at the candidate rate.
    pub perception: PerceptionSystem,
}

/// Per-lane simulation state inside a [`BatchSim`].
#[derive(Debug)]
struct Lane {
    ego: EgoVehicle,
    perception: PerceptionSystem,
    /// Per-lane struct-of-arrays snapshot (the lane's ego differs, and
    /// forked actors differ, so each lane rebuilds its own columns).
    scratch: SceneColumns,
    scratch_aos: Scene,
    perceived: Vec<Agent>,
    hints: Vec<ProjectionHint>,
    ego_pose_hint: ProjectionHint,
    /// Pose hints for forked actors, indexed like the actor vector.
    fork_hints: Vec<ProjectionHint>,
    /// Per-lane actor copies; `None` while the actor is globally shared.
    forks: Vec<Option<ScriptedActor>>,
    ego_circumradius: f64,
    /// `StepOutcome::Running` while live; the final outcome once retired.
    outcome: StepOutcome,
    /// Ego observation captured this tick (pre-integration), consumed by
    /// the forked-actor steps at the tick's end.
    pending_obs: EgoObservation,
    /// Next tick at which to attempt a retirement certificate.
    next_cert_tick: u64,
    /// Current certificate retry backoff, in ticks.
    cert_backoff: u64,
}

/// A lockstep batched run over one scenario instance.
///
/// Use [`Simulation::run_batched`] / [`Simulation::run_batched_verdicts`]
/// for the one-call form; this type exposes the tick-stepped form so
/// tests (e.g. the counting-allocator suite) can drive and observe the
/// loop tick by tick.
#[allow(missing_debug_implementations)] // observers are unsized trait objects
pub struct BatchSim<'sim, 'obs> {
    sim: &'sim mut Simulation,
    lanes: Vec<Lane>,
    observers: Vec<&'obs mut dyn SimObserver>,
    /// Global per-actor fork flags: forking happens for every lane at the
    /// same tick (eligibility is a function of the still-shared state).
    forked: Vec<bool>,
    /// Shared actor poses for the current tick (garbage at forked slots).
    shared_agents: Vec<Agent>,
    /// Pose hints for the shared actors.
    shared_hints: Vec<ProjectionHint>,
    /// Shared actor Frenet stations for the idle fast path, rebuilt each
    /// tick (garbage at forked slots — the prefilter reads the fork).
    actor_s: Vec<f64>,
    /// Shared actor lateral offsets, indexed like `actor_s`.
    actor_d: Vec<f64>,
    /// Whether certificates may retire lanes (verdict-only runs).
    certify: bool,
    /// Memoized `road.path().max_abs_curvature()`.
    curvature: f64,
    tick: u64,
    live: usize,
    /// Reused classification scratch for certificate attempts.
    classes: Vec<cert::Class>,
    stats: BatchStats,
}

/// Cost accounting of one batched run, for benchmarks and logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lanes that ended in a collision.
    pub collided_lanes: usize,
    /// Lanes retired early by a safe-suffix certificate.
    pub certified_lanes: usize,
    /// Per-lane ticks actually simulated (sum over lanes).
    pub lane_ticks: u64,
    /// Per-lane ticks skipped by certificate retirement (sum over lanes).
    pub ticks_retired: u64,
    /// Per-lane ticks that took the verdict-only idle fast path (no
    /// snapshot rebuild, Frenet-space collision prefilter).
    pub idle_lane_ticks: u64,
    /// Idle fast-path ticks whose Frenet prefilter could not prove
    /// separation, forcing the exact world-frame collision check.
    pub prefilter_fallbacks: u64,
    /// Safe-suffix certificate attempts.
    pub cert_attempts: u64,
    /// Certificate attempts that declined (the lane kept simulating).
    pub cert_declines: u64,
}

impl BatchStats {
    /// Folds this accounting into the installed telemetry registry (a
    /// no-op without one), unifying batch cost accounting with the
    /// `zhuyi-telemetry` export schema. Called once per batched run by
    /// [`BatchSim::finish_with_stats`]; every field maps to a
    /// deterministic `batch_*` counter.
    pub fn fold_into_telemetry(&self) {
        use zhuyi_telemetry::Counter;
        zhuyi_telemetry::with(|t| {
            t.add(Counter::BatchCollidedLanes, self.collided_lanes as u64);
            t.add(Counter::BatchCertifiedLanes, self.certified_lanes as u64);
            t.add(Counter::BatchLaneTicks, self.lane_ticks);
            t.add(Counter::BatchTicksRetired, self.ticks_retired);
            t.add(Counter::BatchIdleLaneTicks, self.idle_lane_ticks);
            t.add(Counter::BatchPrefilterFallbacks, self.prefilter_fallbacks);
            t.add(Counter::BatchCertAttempts, self.cert_attempts);
            t.add(Counter::BatchCertDeclines, self.cert_declines);
        });
    }
}

/// Extra slack (m) the idle-tick Frenet-space circumcircle prefilter
/// adds on top of the footprint radii before it may *skip* the exact
/// world-frame collision check. On an exactly straight reference line
/// the (s, d) chart is an isometry, so the world-frame center distance
/// differs from the Frenet one only by floating-point noise (≲ 1e-9 m
/// at catalog coordinates); a full meter of slack makes the skip
/// decision robust by six orders of magnitude while still filtering
/// out essentially every far-apart pair. Pairs inside the slack run
/// the engine-identical world-frame check, so outcomes stay bitwise
/// equal either way.
const FRENET_PREFILTER_SLACK: f64 = 1.0;

impl<'sim, 'obs> BatchSim<'sim, 'obs> {
    /// Builds a batched run over `sim`'s scenario. Shared actors are
    /// rewound to their spawn state; each lane starts from its spec's
    /// fresh ego and perception. When `certify` is set, lanes may retire
    /// through the conservative safe-suffix certificates — callers must
    /// only set it when observers ignore the stream (verdict-only runs).
    ///
    /// # Panics
    ///
    /// Panics when `specs` and `observers` disagree in length, or when
    /// the simulation is not configured to stop on collision (batched
    /// lanes retire at the first collision, like the engine does).
    fn new(
        sim: &'sim mut Simulation,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
        certify: bool,
    ) -> Self {
        assert_eq!(
            specs.len(),
            observers.len(),
            "one observer per batched lane"
        );
        assert!(
            sim.config.stop_on_collision,
            "batched runs require stop_on_collision (lanes retire at the first collision)"
        );
        let actor_count = sim.actors.len();
        for actor in &mut sim.actors {
            actor.reset(&sim.road);
        }
        let finished = sim.total_ticks == 0;
        let curvature = sim.road.path().max_abs_curvature();
        let lanes: Vec<Lane> = specs
            .into_iter()
            .map(|spec| {
                let ego_agent = spec.ego.to_agent(&sim.road);
                Lane {
                    ego_circumradius: spec.ego.dims().circumradius(),
                    scratch: SceneColumns::new(Seconds::ZERO, ego_agent),
                    scratch_aos: Scene::new(
                        Seconds::ZERO,
                        ego_agent,
                        Vec::with_capacity(actor_count),
                    ),
                    perceived: Vec::new(),
                    hints: Vec::new(),
                    ego_pose_hint: ProjectionHint::default(),
                    fork_hints: vec![ProjectionHint::default(); actor_count],
                    forks: vec![None; actor_count],
                    outcome: if finished {
                        StepOutcome::Finished
                    } else {
                        StepOutcome::Running
                    },
                    pending_obs: EgoObservation {
                        s: spec.ego.s(),
                        speed: spec.ego.speed(),
                        half_length: Meters(spec.ego.dims().length.value() / 2.0),
                    },
                    next_cert_tick: cert::FIRST_ATTEMPT_TICK,
                    cert_backoff: cert::RETRY_BACKOFF_TICKS,
                    ego: spec.ego,
                    perception: spec.perception,
                }
            })
            .collect();
        let live = if finished { 0 } else { lanes.len() };
        Self {
            sim,
            live,
            lanes,
            observers,
            forked: vec![false; actor_count],
            shared_agents: Vec::with_capacity(actor_count),
            shared_hints: vec![ProjectionHint::default(); actor_count],
            actor_s: Vec::with_capacity(actor_count),
            actor_d: Vec::with_capacity(actor_count),
            certify,
            curvature,
            tick: 0,
            classes: Vec::with_capacity(actor_count),
            stats: BatchStats::default(),
        }
    }

    /// Cost accounting so far (final after [`BatchSim::finish`] — read it
    /// through [`Simulation::run_batched_verdicts_with_stats`]).
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of lanes still running.
    pub fn live_lanes(&self) -> usize {
        self.live
    }

    /// Completed lockstep ticks.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances every live lane by one tick. Returns `false` once no lane
    /// is live (the batch is done).
    pub fn step_all(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        self.stats.lane_ticks += self.live as u64;
        let time = Seconds(self.tick as f64 * self.sim.config.dt.value());
        let dt = self.sim.config.dt;
        // Tick-phase profiling, mirroring the engine's hooks: one
        // thread-local lookup per lockstep tick, branch-on-disabled laps.
        let mut phases = zhuyi_telemetry::PhaseTimer::start();

        // Verdict-only runs take the *idle fast path* on ticks where a
        // lane's perception cannot fire a frame and no certificate
        // attempt is due: the per-lane snapshot rebuild (world-frame
        // columns of the ego and every actor) exists only to feed the
        // observer, the perception frame and the certificate — with a
        // null observer, a guaranteed-idle perception tick and no
        // certificate due, only the collision check remains, and that
        // check reads world poses directly ([`collision_check_lean`])
        // instead of materializing the snapshot. On an exactly straight
        // road a Frenet-space circumcircle prefilter over the raw (s, d)
        // state settles the overwhelmingly common far-apart case without
        // any world-frame math at all ([`FRENET_PREFILTER_SLACK`]); on
        // curved roads every idle tick runs the lean check. Either way
        // the check is input-for-input the engine's, so outcomes are
        // bitwise unchanged.
        let fast = self.certify;
        let straight = self.curvature == 0.0;
        let mut shared_ready = false;

        // Phase 1 — shared actor poses, one projection per actor per tick
        // regardless of lane count. (Forked actors are projected per lane
        // in phase 2: their states differ.) The fast path defers the
        // projections until some lane actually needs world-frame poses
        // this tick; on straight roads it instead fills the shared Frenet
        // columns the prefilter sweeps.
        if fast {
            if straight {
                self.actor_s.clear();
                self.actor_d.clear();
                for (i, actor) in self.sim.actors.iter().enumerate() {
                    // Garbage at forked slots: the prefilter reads the fork.
                    self.actor_s.push(if self.forked[i] {
                        0.0
                    } else {
                        actor.s().value()
                    });
                    self.actor_d.push(if self.forked[i] {
                        0.0
                    } else {
                        actor.d().value()
                    });
                }
            }
        } else {
            // Placeholder at forked slots, never read (phase 2 checks the
            // fork flag).
            let placeholder = self.lanes[0].scratch.ego;
            fill_shared_agents(
                self.sim,
                &self.forked,
                &mut self.shared_hints,
                &mut self.shared_agents,
                placeholder,
            );
            shared_ready = true;
        }
        phases.lap(zhuyi_telemetry::Phase::Actors);

        // Phase 2 — per-lane engine tick, replaying `Simulation::step_with`
        // phase for phase on the lane's own state.
        let next_tick = self.tick + 1;
        for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
            if lane.outcome != StepOutcome::Running {
                continue;
            }
            // A certificate attempt (phase 5, after the tick increment)
            // reads this lane's snapshot, so the attempt tick must build
            // it even when perception idles.
            let cert_due = self.certify
                && next_tick < self.sim.total_ticks
                && next_tick >= lane.next_cert_tick;
            let idle = fast && !cert_due && lane.perception.frame_idle(time);

            let collided = if idle {
                self.stats.idle_lane_ticks += 1;
                // Frenet-space prefilter sweep over the shared columns
                // (straight roads only — curved Frenet distances don't
                // bound world distances, so every curved idle tick takes
                // the lean world-frame check).
                let near = if straight {
                    let e_s = lane.ego.s().value();
                    let e_d = lane.ego.d().value();
                    let mut near = false;
                    for i in 0..self.sim.actor_circumradii.len() {
                        let (a_s, a_d) = match &lane.forks[i] {
                            Some(fork) => (fork.s().value(), fork.d().value()),
                            None => (self.actor_s[i], self.actor_d[i]),
                        };
                        let ds = a_s - e_s;
                        let dd = a_d - e_d;
                        let r = lane.ego_circumradius
                            + self.sim.actor_circumradii[i]
                            + FRENET_PREFILTER_SLACK;
                        if ds * ds + dd * dd <= r * r {
                            near = true;
                            break;
                        }
                    }
                    near
                } else {
                    true
                };
                if near {
                    if straight {
                        self.stats.prefilter_fallbacks += 1;
                    }
                    if !shared_ready {
                        fill_shared_agents(
                            self.sim,
                            &self.forked,
                            &mut self.shared_hints,
                            &mut self.shared_agents,
                            lane.scratch.ego,
                        );
                        shared_ready = true;
                    }
                    collision_check_lean(lane, self.sim, &self.shared_agents, &mut **observer, time)
                } else {
                    false
                }
            } else {
                if !shared_ready {
                    fill_shared_agents(
                        self.sim,
                        &self.forked,
                        &mut self.shared_hints,
                        &mut self.shared_agents,
                        lane.scratch.ego,
                    );
                    shared_ready = true;
                }
                rebuild_snapshot(lane, self.sim, &self.shared_agents, time);
                observer.on_scene_columns(&lane.scratch, &mut lane.scratch_aos);
                collision_check(lane, self.sim, &mut **observer, time)
            };
            phases.lap(zhuyi_telemetry::Phase::Collision);
            if collided {
                lane.outcome = StepOutcome::Collided;
                self.live -= 1;
                self.stats.collided_lanes += 1;
                continue;
            }

            // Perception, perceived-world coast, plan, integrate. On the
            // idle path the perception tick is, bitwise, what
            // `tick_columns` does on a frameless tick — without the
            // snapshot it would not have read anyway.
            if idle {
                lane.perception.idle_tick(time);
            } else {
                lane.perception.tick_columns(&lane.scratch);
            }
            phases.lap(zhuyi_telemetry::Phase::Perception);
            lane.perception
                .world()
                .coast_into(&mut lane.perceived, time);
            phases.lap(zhuyi_telemetry::Phase::Prediction);
            lane.hints
                .resize(lane.perceived.len(), ProjectionHint::default());
            let command =
                lane.ego
                    .plan_with_hints(&lane.perceived, &self.sim.road, &mut lane.hints);
            lane.pending_obs = EgoObservation {
                s: lane.ego.s(),
                speed: lane.ego.speed(),
                half_length: Meters(lane.ego.dims().length.value() / 2.0),
            };
            lane.ego.integrate(command, dt);
            phases.lap(zhuyi_telemetry::Phase::Policy);
        }

        // Phase 3 — actor integration, in actor order (event order must
        // match the engine's). A shared actor is forked for every lane at
        // the first tick where its step could actually *read diverged*
        // ego state: an armed ego-coupled trigger only forces the fork
        // when the lanes' egos disagree on its decision this tick (the
        // firing predicate is re-evaluated per lane through the same code
        // path the step uses, so an all-lanes-equal decision makes one
        // shared step exact for everyone). Ego-speed *tracking* always
        // forks: it reads the ego continuously.
        for i in 0..self.sim.actors.len() {
            if !self.forked[i] && self.must_fork(i, time) {
                self.forked[i] = true;
                for lane in &mut self.lanes {
                    if lane.outcome == StepOutcome::Running {
                        lane.forks[i] = Some(self.sim.actors[i].clone());
                    }
                }
            }
            if self.forked[i] {
                for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
                    if lane.outcome != StepOutcome::Running {
                        continue;
                    }
                    let fork = lane.forks[i].as_mut().expect("forked lanes hold copies");
                    if let Some(description) =
                        fork.step(time, dt, &lane.pending_obs, &self.sim.road)
                    {
                        observer.on_event(&SimEvent::Maneuver { time, description });
                    }
                }
            } else {
                // The shared step must not read the observation — pinned
                // by the eligibility check above; any live lane's works.
                let obs = self
                    .lanes
                    .iter()
                    .find(|l| l.outcome == StepOutcome::Running)
                    .map(|l| l.pending_obs);
                let Some(obs) = obs else { break };
                if let Some(description) = self.sim.actors[i].step(time, dt, &obs, &self.sim.road) {
                    let event = SimEvent::Maneuver { time, description };
                    for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
                        if lane.outcome == StepOutcome::Running {
                            observer.on_event(&event);
                        }
                    }
                }
            }
        }
        phases.lap(zhuyi_telemetry::Phase::Actors);

        // Phase 4 — tick accounting and end-of-run retirement.
        self.tick += 1;
        if self.tick >= self.sim.total_ticks {
            for lane in &mut self.lanes {
                if lane.outcome == StepOutcome::Running {
                    lane.outcome = StepOutcome::Finished;
                    self.live -= 1;
                }
            }
            return false;
        }

        // Phase 5 — certified-safe retirement attempts (verdict-only).
        if self.certify {
            phases.skip(); // tick accounting belongs to no phase
            for lane in &mut self.lanes {
                if lane.outcome != StepOutcome::Running || self.tick < lane.next_cert_tick {
                    continue;
                }
                self.stats.cert_attempts += 1;
                if cert::certifies_safe_suffix(
                    self.sim,
                    lane,
                    &self.forked,
                    self.tick,
                    self.curvature,
                    &mut self.classes,
                ) {
                    lane.outcome = StepOutcome::Finished;
                    self.live -= 1;
                    self.stats.certified_lanes += 1;
                    self.stats.ticks_retired += self.sim.total_ticks - self.tick;
                } else {
                    self.stats.cert_declines += 1;
                    lane.next_cert_tick = self.tick + lane.cert_backoff;
                    lane.cert_backoff = (lane.cert_backoff * 2).min(cert::MAX_BACKOFF_TICKS);
                }
            }
            phases.lap(zhuyi_telemetry::Phase::Certificate);
        }
        self.live > 0
    }

    /// Whether shared actor `i` must fork into per-lane copies before
    /// this tick's step (see the phase-3 comment in
    /// [`BatchSim::step_all`]).
    fn must_fork(&self, i: usize, time: Seconds) -> bool {
        let actor = &self.sim.actors[i];
        if !actor.step_consults_ego() {
            return false;
        }
        if matches!(actor.mode_view(), SpeedModeView::MatchEgo { .. }) {
            return true;
        }
        // Armed ego-coupled trigger: shared exactly when every live lane
        // decides it the same way this tick (and a unanimous *fire* of an
        // ego-tracking action still forks — the new mode reads the ego in
        // this very step).
        let mut decision: Option<bool> = None;
        for lane in &self.lanes {
            if lane.outcome != StepOutcome::Running {
                continue;
            }
            let met = actor
                .armed_trigger_met(time, &lane.pending_obs)
                .expect("step_consults_ego implies an armed maneuver");
            if *decision.get_or_insert(met) != met {
                return true;
            }
        }
        let fires = decision.unwrap_or(false);
        fires
            && matches!(
                actor.armed_maneuver().map(|m| m.action),
                Some(Action::MatchEgoSpeed { .. })
            )
    }

    /// Runs to completion and returns the per-lane outcomes, in lane
    /// order.
    pub fn finish(self) -> Vec<StepOutcome> {
        self.finish_with_stats().0
    }

    /// [`BatchSim::finish`] plus the run's cost accounting.
    pub fn finish_with_stats(mut self) -> (Vec<StepOutcome>, BatchStats) {
        while self.step_all() {}
        let stats = self.stats;
        stats.fold_into_telemetry();
        (
            self.lanes.into_iter().map(|lane| lane.outcome).collect(),
            stats,
        )
    }
}

/// Shared-actor world poses for one tick (phase 1): one projection per
/// unforked actor regardless of lane count. `placeholder` fills forked
/// slots and is never read — phase 2 consults the fork flag first.
fn fill_shared_agents(
    sim: &Simulation,
    forked: &[bool],
    shared_hints: &mut [ProjectionHint],
    shared_agents: &mut Vec<Agent>,
    placeholder: Agent,
) {
    shared_agents.clear();
    for (i, actor) in sim.actors.iter().enumerate() {
        shared_agents.push(if forked[i] {
            placeholder
        } else {
            actor.to_agent_hinted(&sim.road, &mut shared_hints[i])
        });
    }
}

/// Rebuilds `lane`'s snapshot columns at `time`, exactly as the engine
/// does: the lane's ego pose, then every actor — a forked actor projects
/// its own state, a shared one copies the phase-1 pose.
fn rebuild_snapshot(lane: &mut Lane, sim: &Simulation, shared_agents: &[Agent], time: Seconds) {
    lane.scratch.time = time;
    lane.scratch.ego = lane.ego.to_agent_hinted(&sim.road, &mut lane.ego_pose_hint);
    lane.scratch.clear_actors();
    for ((fork, hint), shared) in lane
        .forks
        .iter()
        .zip(lane.fork_hints.iter_mut())
        .zip(shared_agents)
    {
        let agent = match fork {
            Some(fork) => fork.to_agent_hinted(&sim.road, hint),
            None => *shared,
        };
        lane.scratch.push_actor(agent);
    }
}

/// Ground-truth collision check (circumcircle prefilter + SAT) over the
/// lane's freshly rebuilt snapshot, identical to the engine's. Returns
/// whether the lane collided this tick (the event is already streamed).
fn collision_check(
    lane: &Lane,
    sim: &Simulation,
    observer: &mut dyn SimObserver,
    time: Seconds,
) -> bool {
    let ego = &lane.scratch.ego;
    let positions = lane.scratch.positions();
    let mut ego_fp = None;
    for (i, (&position, r_actor)) in positions.iter().zip(&sim.actor_circumradii).enumerate() {
        let r_sum = lane.ego_circumradius + r_actor;
        if (position - ego.state.position).norm_sq() > r_sum * r_sum {
            continue;
        }
        let ego_fp = ego_fp.get_or_insert_with(|| ego.footprint());
        let dims = lane.scratch.dims()[i];
        let footprint = OrientedRect::new(
            position,
            lane.scratch.headings()[i],
            dims.length,
            dims.width,
        );
        if ego_fp.intersects(&footprint) {
            observer.on_event(&SimEvent::Collision {
                time,
                actor: lane.scratch.ids()[i],
            });
            return true;
        }
    }
    false
}

/// The idle-tick collision check: same inputs, same circumcircle + SAT
/// sequence, same event as [`collision_check`] — but fed straight from
/// the lane's ego pose and the phase-1 shared poses (forks project their
/// own state), without materializing the snapshot columns nobody else
/// reads this tick. Every value equals what [`rebuild_snapshot`] would
/// have written, so the verdict is bitwise the engine's.
fn collision_check_lean(
    lane: &mut Lane,
    sim: &Simulation,
    shared_agents: &[Agent],
    observer: &mut dyn SimObserver,
    time: Seconds,
) -> bool {
    let ego = lane.ego.to_agent_hinted(&sim.road, &mut lane.ego_pose_hint);
    let mut ego_axis = None;
    let mut ego_fp = None;
    for (((fork, hint), shared), &circumradius) in lane
        .forks
        .iter()
        .zip(lane.fork_hints.iter_mut())
        .zip(shared_agents)
        .zip(&sim.actor_circumradii)
    {
        let agent = match fork {
            Some(fork) => fork.to_agent_hinted(&sim.road, hint),
            None => *shared,
        };
        let r_sum = lane.ego_circumradius + circumradius;
        let delta = agent.state.position - ego.state.position;
        if delta.norm_sq() > r_sum * r_sum {
            continue;
        }
        // Separating-axis early-out on the ego's own axes, with the
        // actor's circumradius over-approximating its extent: separation
        // here implies the SAT below separates on its first axis pair, so
        // skipping it cannot change the verdict. This settles the common
        // close-following case (inside the circumcircle, separated along
        // the ego's length) with two dot products instead of the full
        // corner projections.
        let axis = *ego_axis.get_or_insert_with(|| Vec2::from_heading(ego.state.heading));
        let r_actor = circumradius + 1e-6;
        if delta.dot(axis).abs() > ego.dims.length.value() / 2.0 + r_actor
            || delta.cross(axis).abs() > ego.dims.width.value() / 2.0 + r_actor
        {
            continue;
        }
        let ego_fp = ego_fp.get_or_insert_with(|| ego.footprint());
        let footprint = OrientedRect::new(
            agent.state.position,
            agent.state.heading,
            agent.dims.length,
            agent.dims.width,
        );
        if ego_fp.intersects(&footprint) {
            observer.on_event(&SimEvent::Collision {
                time,
                actor: agent.id,
            });
            return true;
        }
    }
    false
}

impl Simulation {
    /// Runs `specs.len()` lanes of this scenario in lockstep — one lane
    /// per candidate perception configuration — streaming each lane's
    /// ticks and events to its observer. Returns the per-lane outcomes.
    ///
    /// Each lane's stream and outcome are bit-identical to resetting this
    /// simulation to the lane's spec and calling
    /// [`Simulation::run_with`]; see the [module docs](self) for the
    /// sharing argument. Lanes retire at their first collision; no other
    /// early exit is taken, so metrics observers fold every tick exactly
    /// as in a standalone run.
    ///
    /// The simulation's shared actors are rewound before the run and left
    /// at their end-of-run state; [`Simulation::reset`] restores them, as
    /// after any run.
    ///
    /// # Panics
    ///
    /// Panics when `specs` and `observers` disagree in length, or when
    /// the engine is not configured to stop on collision.
    pub fn run_batched(
        &mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&mut dyn SimObserver>,
    ) -> Vec<StepOutcome> {
        BatchSim::new(self, specs, observers, false).finish()
    }

    /// [`Simulation::run_batched`] for verdict-only lanes: nothing is
    /// observed (every lane runs under a [`NullObserver`]), which allows
    /// the conservative safe-suffix certificates to retire lanes whose
    /// remaining ticks provably cannot produce a collision. The returned
    /// outcomes — `Collided` or `Finished` per lane — are identical to
    /// the per-lane [`Simulation::run_with`] outcomes.
    pub fn run_batched_verdicts(&mut self, specs: Vec<LaneSpec>) -> Vec<StepOutcome> {
        self.run_batched_verdicts_with_stats(specs).0
    }

    /// [`Simulation::run_batched_verdicts`] plus the run's cost
    /// accounting ([`BatchStats`]), for benchmarks and retirement logs.
    pub fn run_batched_verdicts_with_stats(
        &mut self,
        specs: Vec<LaneSpec>,
    ) -> (Vec<StepOutcome>, BatchStats) {
        let mut nulls: Vec<NullObserver> = vec![NullObserver; specs.len()];
        let observers: Vec<&mut dyn SimObserver> = nulls
            .iter_mut()
            .map(|n| n as &mut dyn SimObserver)
            .collect();
        BatchSim::new(self, specs, observers, true).finish_with_stats()
    }

    /// The tick-stepped form of [`Simulation::run_batched`], for tests
    /// that drive the lockstep loop manually (e.g. the counting-allocator
    /// suite asserting warm batched ticks stay allocation-free).
    pub fn batched<'sim, 'obs>(
        &'sim mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
    ) -> BatchSim<'sim, 'obs> {
        BatchSim::new(self, specs, observers, false)
    }

    /// The tick-stepped form of [`Simulation::run_batched_verdicts`]:
    /// certificates enabled, so callers must pass observers that ignore
    /// the stream (retired lanes stop producing ticks for them).
    pub fn batched_verdicts<'sim, 'obs>(
        &'sim mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
    ) -> BatchSim<'sim, 'obs> {
        BatchSim::new(self, specs, observers, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use crate::observer::{MetricsObserver, TraceRecorder};
    use crate::policy::PolicyConfig;
    use crate::road::LaneId;
    use crate::script::{ActorScript, Placement, Trigger};
    use av_perception::rig::CameraRig;
    use av_perception::system::RatePlan;
    use av_perception::world_model::TrackerConfig;

    fn perception(fpr: f64) -> PerceptionSystem {
        PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(fpr)),
            TrackerConfig::default(),
        )
        .expect("valid plan")
    }

    fn ego(road: &Road, speed: f64) -> EgoVehicle {
        EgoVehicle::spawn(
            road,
            LaneId(1),
            Meters(50.0),
            PolicyConfig::cruise(MetersPerSecond(speed)),
        )
    }

    /// A scenario exercising every sharing path: an ego-coupled cutter
    /// (forks), a time-triggered braker (stays shared through its fire),
    /// a static obstacle and an adjacent cruiser (shared forever).
    fn scripts() -> Vec<ActorScript> {
        vec![
            ActorScript::cruising(
                ActorId(1),
                Placement {
                    lane: LaneId(0),
                    s: Meters(120.0),
                    speed: MetersPerSecond(18.0),
                },
            )
            .with_maneuver(
                Trigger::GapAheadOfEgo(Meters(40.0)),
                Action::ChangeLane {
                    target: LaneId(1),
                    duration: Seconds(2.0),
                },
            ),
            ActorScript::cruising(
                ActorId(2),
                Placement {
                    lane: LaneId(1),
                    s: Meters(220.0),
                    speed: MetersPerSecond(24.0),
                },
            )
            .with_maneuver(
                Trigger::AtTime(Seconds(4.0)),
                Action::HardBrake {
                    decel: MetersPerSecondSquared(5.0),
                },
            ),
            ActorScript::obstacle(ActorId(3), LaneId(1), Meters(700.0)),
            ActorScript::cruising(
                ActorId(4),
                Placement {
                    lane: LaneId(2),
                    s: Meters(40.0),
                    speed: MetersPerSecond(22.0),
                },
            ),
        ]
    }

    fn sim(duration: f64) -> Simulation {
        let road = Road::straight_three_lane(Meters(3000.0));
        let e = ego(&road, 24.0);
        Simulation::new(
            road,
            e,
            scripts(),
            perception(30.0),
            SimulationConfig {
                duration: Seconds(duration),
                ..Default::default()
            },
        )
    }

    const RATES: [f64; 4] = [1.0, 3.0, 8.0, 30.0];

    #[test]
    fn batched_traces_are_bitwise_identical_to_standalone_runs() {
        // Reference: each rate through its own standalone run.
        let mut reference = Vec::new();
        for &fpr in &RATES {
            let mut s = sim(8.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let mut recorder = TraceRecorder::new(Seconds(0.01));
            let outcome = s.run_with(&mut recorder);
            reference.push((outcome, recorder.into_trace()));
        }
        // Batched: all rates through one lockstep loop.
        let mut batch_sim = sim(8.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let mut recorders: Vec<TraceRecorder> = RATES
            .iter()
            .map(|_| TraceRecorder::new(Seconds(0.01)))
            .collect();
        let observers: Vec<&mut dyn SimObserver> = recorders
            .iter_mut()
            .map(|r| r as &mut dyn SimObserver)
            .collect();
        let outcomes = batch_sim.run_batched(specs, observers);
        for (i, recorder) in recorders.into_iter().enumerate() {
            assert_eq!(outcomes[i], reference[i].0, "lane {i} outcome diverged");
            assert_eq!(
                recorder.into_trace(),
                reference[i].1,
                "lane {i} trace diverged from its standalone run"
            );
        }
    }

    #[test]
    fn batched_metrics_match_standalone_runs() {
        let mut reference = Vec::new();
        for &fpr in &RATES {
            let mut s = sim(6.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let mut metrics = MetricsObserver::new();
            s.run_with(&mut metrics);
            reference.push(metrics.summary());
        }
        let mut batch_sim = sim(6.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let mut folds: Vec<MetricsObserver> =
            RATES.iter().map(|_| MetricsObserver::new()).collect();
        let observers: Vec<&mut dyn SimObserver> = folds
            .iter_mut()
            .map(|m| m as &mut dyn SimObserver)
            .collect();
        batch_sim.run_batched(specs, observers);
        for (i, fold) in folds.iter().enumerate() {
            assert_eq!(fold.summary(), reference[i], "lane {i} summary diverged");
        }
    }

    #[test]
    fn verdict_lanes_match_standalone_outcomes() {
        let mut batch_sim = sim(8.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let verdicts = batch_sim.run_batched_verdicts(specs);
        for (i, &fpr) in RATES.iter().enumerate() {
            let mut s = sim(8.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let outcome = s.run_with(&mut NullObserver);
            assert_eq!(verdicts[i], outcome, "verdict diverged at {fpr} FPR");
        }
    }

    #[test]
    fn a_batched_run_leaves_the_simulation_resettable() {
        let mut s = sim(4.0);
        let road = s.road().clone();
        let specs = vec![LaneSpec {
            ego: ego(&road, 24.0),
            perception: perception(30.0),
        }];
        let mut null = NullObserver;
        let observers: Vec<&mut dyn SimObserver> = vec![&mut null];
        s.run_batched(specs, observers);
        // The engine path still works and matches a fresh build.
        s.reset(ego(&road, 24.0), perception(30.0));
        let mut metrics = MetricsObserver::new();
        s.run_with(&mut metrics);
        let mut fresh = sim(4.0);
        let road = fresh.road().clone();
        fresh.reset(ego(&road, 24.0), perception(30.0));
        let mut fresh_metrics = MetricsObserver::new();
        fresh.run_with(&mut fresh_metrics);
        assert_eq!(metrics.summary(), fresh_metrics.summary());
    }

    #[test]
    #[should_panic(expected = "one observer per batched lane")]
    fn lane_observer_arity_is_enforced() {
        let mut s = sim(1.0);
        let road = s.road().clone();
        let specs = vec![LaneSpec {
            ego: ego(&road, 24.0),
            perception: perception(30.0),
        }];
        s.run_batched(specs, Vec::new());
    }
}

pub mod cert {
    //! Conservative safe-suffix certificates for verdict-only lanes.
    //!
    //! A certificate retires a lane early by proving its remaining run
    //! cannot collide. Every rule errs toward *refusing*: a lane that
    //! fails certification simply keeps simulating, so the only cost of
    //! conservatism is ticks, never correctness. The rules reason about
    //! the *closed loop* — scripts, planner, and perception together —
    //! and decline whenever any ingredient resists a static argument
    //! (curved roads, pending ego-coupled maneuvers, injected frame
    //! loss, stale in-corridor tracks, unconverged speeds).
    //!
    //! Three shapes are certified, matching the Table-1 endgames:
    //!
    //! 1. **All-separated** — every actor is (and provably remains)
    //!    laterally separated from the ego's corridor by more than the
    //!    footprints plus the planner's corridor margin can ever bridge.
    //!    Collision is geometrically impossible regardless of what the
    //!    ego does, so no perception reasoning is needed at all.
    //! 2. **Parked ego** — the ego is (almost) stopped behind a static
    //!    in-corridor blocker it has confirmed at standstill gap. IDM
    //!    creep toward the standstill gap is bounded by the remaining
    //!    perceived gap; every other actor is separated or beyond the
    //!    blocker and receding.
    //! 3. **Steady following** — the ego tracks a constant-speed (or
    //!    ego-speed-matching) lead near the IDM equilibrium. Inside the
    //!    entry band the closed loop is a damped follower; the drift
    //!    bound [`FOLLOW_DRIFT`]·[`FOLLOW_DAMP_HORIZON`] over-covers the
    //!    worst transient the band admits, and the gap floor keeps the
    //!    certificate far from any state the planner could turn into a
    //!    collision.
    //!
    //! The constants below are deliberately conservative envelopes, not
    //! tuned-to-pass values; the batched-vs-per-rate equivalence suite
    //! (full jittered catalog × rate grid) and the late-collision
    //! adversarial test pin, per commit, that no certificate fires on a
    //! run whose suffix still held a collision.

    use super::*;
    use av_perception::occlusion::BLOCKER_SHRINK;
    use zhuyi_telemetry::CertReason;

    /// Whether `ZHUYI_CERT_DEBUG` is set, read once (the per-call
    /// environment lookup would allocate, and certificate attempts must
    /// stay allocation-free on the decline path).
    fn debug_declines() -> bool {
        static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *DEBUG.get_or_init(|| std::env::var_os("ZHUYI_CERT_DEBUG").is_some())
    }

    /// Decline telemetry: every decline bumps the structured per-reason
    /// counter in the installed telemetry registry (a branch plus one
    /// relaxed atomic add when enabled, a branch when not); set
    /// `ZHUYI_CERT_DEBUG=1` to additionally log the full per-instance
    /// message (reason + tick + parameters) to stderr, for tuning the
    /// conservative envelopes against real sweeps.
    macro_rules! decline {
        ($tick:expr, $reason:expr, $($why:tt)*) => {{
            zhuyi_telemetry::cert_decline($reason);
            if debug_declines() {
                eprintln!("cert declined @tick {}: {}", $tick, format!($($why)*));
            }
            return false;
        }};
    }

    /// First tick at which a lane attempts certification.
    pub const FIRST_ATTEMPT_TICK: u64 = 32;
    /// Initial retry backoff after a failed attempt, in ticks.
    pub const RETRY_BACKOFF_TICKS: u64 = 32;
    /// Backoff cap: a lane re-attempts at least this often.
    pub const MAX_BACKOFF_TICKS: u64 = 64;

    /// Extra lateral slack (m) beyond footprints + corridor margin
    /// required before an actor counts as separated for good.
    pub const SEP_SLACK: f64 = 0.7;
    /// How close to the ego's own lateral offset an in-corridor lead or
    /// trailer must sit (m) — the sight-corridor half-extent.
    pub const LEAD_D_TOL: f64 = 0.25;
    /// Parked-ego certificate: ego speed ceiling (m/s). Covers the IDM
    /// standstill creep, which peaks well below this.
    pub const PARKED_EGO_VMAX: f64 = 0.5;
    /// Parked-ego certificate: ego acceleration ceiling (m/s²).
    pub const PARKED_EGO_AMAX: f64 = 0.2;
    /// Parked-ego: the perceived gap may exceed the IDM standstill gap by
    /// at most this much (m) — the creep budget.
    pub const PARKED_GAP_SLACK: f64 = 1.0;
    /// Parked-ego: minimum true bumper gap (m) below which the
    /// certificate declines (too close to bound the residual creep).
    pub const PARKED_GAP_FLOOR: f64 = 0.8;
    /// Steady-following: relative-speed entry band (m/s).
    pub const FOLLOW_DV: f64 = 1.0;
    /// Steady-following: additional drift allowance (m/s) on top of the
    /// entry-band relative speed when bounding future gap change.
    pub const FOLLOW_DRIFT: f64 = 0.4;
    /// Steady-following: ego acceleration entry band (m/s²).
    pub const FOLLOW_AMAX: f64 = 1.5;
    /// Steady-following: horizon (s) over which the band's worst
    /// relative-speed transient is integrated. The IDM follower damps
    /// in-band perturbations well inside this window.
    pub const FOLLOW_DAMP_HORIZON: f64 = 8.0;
    /// Steady-following: bumper-gap floor (m) that must survive the
    /// worst-case drift.
    pub const FOLLOW_GAP_FLOOR: f64 = 4.0;
    /// Steady-following: the fraction of the IDM desired gap `s*` the
    /// current gap must exceed. The damped approach to the equilibrium
    /// gap (`s*/sqrt(1-(v/v0)^4)`, just above `s*`) undershoots it
    /// transiently, so this is a near-equilibrium gate, not the safety
    /// margin — the drift bound and the gap floor carry that.
    pub const FOLLOW_GAP_FRACTION: f64 = 0.8;
    /// Steady-following: absolute minimum bumper gap (m).
    pub const FOLLOW_MIN_GAP: f64 = 8.0;
    /// Minimum acceleration bound (m/s²) an ego-speed-matching actor must
    /// have for its tracking lag to stay inside the band.
    pub const MATCH_LIMIT_MIN: f64 = 1.5;
    /// Relative-speed band (m/s) for ego-speed-matching leads/trailers.
    pub const MATCH_DV: f64 = 0.5;
    /// Slack (m) kept below a camera's range when bounding the lead's
    /// future distance.
    pub const RANGE_MARGIN: f64 = 10.0;
    /// Longitudinal margin (m) an actor beyond the lead must keep from
    /// it.
    pub const BEYOND_MARGIN: f64 = 2.0;
    /// Convergence tolerance (m/s) for treating a `Toward` speed mode as
    /// settled at its target.
    pub const SPEED_CONVERGED: f64 = 1e-6;
    /// Extra bumper gap (m) kept above a pending `GapAheadOfEgo` trigger
    /// threshold when certifying the trigger never fires.
    pub const INERT_TRIGGER_MARGIN: f64 = 1.5;
    /// Parked-ego: ceiling (m) on ego speed × slowest frame period —
    /// bounds how far a stale perceived gap can overstate the true one
    /// while the ego creeps.
    pub const PARKED_STALE_CREEP: f64 = 0.35;
    /// Sharpest curvature (1/m) the certificates reason about; the
    /// catalog's arc is 1/400.
    pub const CURVE_KAPPA_MAX: f64 = 1.0 / 250.0;
    /// Extra lateral slack (m) on an arc: covers the polyline sampling
    /// of the arc (millimeters at a 2 m step) with two orders of margin.
    pub const CURVE_LAT_SLACK: f64 = 0.15;
    /// Extra longitudinal floor slack (m) on an arc: covers arc-vs-chord
    /// shortening of Frenet gaps at certificate scales.
    pub const CURVE_GAP_SLACK: f64 = 0.5;
    /// Extra dead-reckoning slack (m) on an arc: a coasted track runs
    /// straight while the road bends; at catalog speeds and periods the
    /// lateral error stays under `(v·T)²·κ/2 ≈ 0.4 m`.
    pub const CURVE_STALE_SLACK: f64 = 0.5;

    /// Certificate-relevant classification of one actor.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) enum Class {
        /// Laterally separated from the ego corridor, forever.
        Separated,
        /// In-corridor, ahead of the ego: candidate lead.
        ///
        /// `inert_floor` is the bumper gap the certificate must keep the
        /// lead above for the rest of the run: `0` for a completed
        /// script, or `G +` [`INERT_TRIGGER_MARGIN`] when the actor's
        /// next maneuver is gated on a `GapAheadOfEgo(G)` trigger —
        /// holding the gap above `G` forever keeps that maneuver (and
        /// every maneuver behind it) unfired, so the actor behaves as if
        /// its script were complete.
        Lead {
            /// Minimum future bumper gap that keeps the script inert.
            inert_floor: f64,
        },
        /// In-corridor, behind the ego: candidate trailer.
        Trailer,
    }

    /// A lead/trailer's certified future-speed behavior.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SpeedLaw {
        /// Holds `v` (± ulp wobble) forever.
        Constant(f64),
        /// Chases the ego's speed with at least [`MATCH_LIMIT_MIN`]
        /// authority.
        MatchesEgo,
    }

    /// Whether the actor's remaining script can be certified inert: no
    /// pending maneuvers (`Some(0.0)`), or a first pending maneuver gated
    /// on an ego-gap-ahead trigger that a gap floor keeps unfired
    /// (`Some(required_gap)`). Anything else returns `None`.
    fn pending_inertia(actor: &ScriptedActor) -> Option<f64> {
        match actor.pending_maneuvers().first() {
            None => Some(0.0),
            Some(m) => match m.trigger {
                Trigger::GapAheadOfEgo(g) => Some(g.value() + INERT_TRIGGER_MARGIN),
                _ => None,
            },
        }
    }

    fn speed_law(actor: &ScriptedActor) -> Option<SpeedLaw> {
        match actor.mode_view() {
            SpeedModeView::Hold => Some(SpeedLaw::Constant(actor.speed().value())),
            SpeedModeView::Toward { target, .. } => {
                if (actor.speed().value() - target.value()).abs() <= SPEED_CONVERGED {
                    Some(SpeedLaw::Constant(actor.speed().value()))
                } else {
                    None
                }
            }
            SpeedModeView::MatchEgo { limit } => {
                (limit.value() >= MATCH_LIMIT_MIN).then_some(SpeedLaw::MatchesEgo)
            }
        }
    }

    /// The hull of every lateral offset the actor can ever occupy: its
    /// current offset, an in-flight lane change's destination, and the
    /// destinations of every unfired `ChangeLane`. Lateral motion is a
    /// monotone blend between consecutive lane centers, so the hull
    /// contains the whole future `d` trajectory.
    fn d_hull(actor: &ScriptedActor, road: &Road) -> (f64, f64) {
        let mut lo = actor.d().value();
        let mut hi = lo;
        let mut cover = |d: f64| {
            lo = lo.min(d);
            hi = hi.max(d);
        };
        if let Some(target) = actor.lane_change_target() {
            cover(target.value());
        }
        for m in actor.pending_maneuvers() {
            if let Action::ChangeLane { target, .. } = m.action {
                if let Ok(d) = road.lane_offset(target) {
                    cover(d.value());
                }
            }
        }
        (lo, hi)
    }

    fn interval_distance(lo: f64, hi: f64, point: f64) -> f64 {
        if point < lo {
            lo - point
        } else if point > hi {
            point - hi
        } else {
            0.0
        }
    }

    /// Attempts every certificate for `lane` at `tick`; `true` retires
    /// the lane as provably collision-free for the rest of the run.
    pub(super) fn certifies_safe_suffix(
        sim: &Simulation,
        lane: &Lane,
        forked: &[bool],
        tick: u64,
        curvature: f64,
        classes: &mut Vec<Class>,
    ) -> bool {
        let now = Seconds(tick as f64 * sim.config.dt.value());
        // Frenet reasoning below needs an (s, d) chart whose distances
        // are honest. On a straight path it is globally Euclidean; on a
        // gentle arc, offset curves are concentric — lateral separation
        // is exact, and the longitudinal chord-vs-arc and dead-reckoning
        // distortions are covered by [`CURVE_LAT_SLACK`],
        // [`CURVE_GAP_SLACK`] and [`CURVE_STALE_SLACK`] below. Sharper
        // curvature declines.
        if curvature > CURVE_KAPPA_MAX {
            decline!(
                tick,
                CertReason::CurvatureBeyondBound,
                "curvature {curvature:.5} beyond certificate bound"
            );
        }
        let curved = curvature > 0.0;
        let lat_slack = if curved { CURVE_LAT_SLACK } else { 0.0 };
        let gap_slack = if curved { CURVE_GAP_SLACK } else { 0.0 };
        let stale_slack = if curved { CURVE_STALE_SLACK } else { 0.0 };
        let remaining = (sim.total_ticks.saturating_sub(tick)) as f64 * sim.config.dt.value();
        let ego = &lane.ego;
        let e_d = ego.d().value();
        let e_s = ego.s().value();
        let e_len = ego.dims().length.value();
        let e_w = ego.dims().width.value();
        let cfg = *ego.config();
        let corridor_margin = cfg.corridor_margin.value();

        // Classify every actor, declining on anything unclassifiable.
        classes.clear();
        let mut lead: Option<usize> = None;
        let mut trailer: Option<usize> = None;
        for (i, _) in sim.actors.iter().enumerate() {
            let actor = lane_actor(sim, lane, forked, i);
            let (d_lo, d_hi) = d_hull(actor, &sim.road);
            let w = actor.script().dims.width.value();
            let lateral = interval_distance(d_lo, d_hi, e_d);
            let sep_needed = (w + e_w) / 2.0 + corridor_margin + SEP_SLACK + lat_slack;
            // An occluder that can never overlap the sight corridor: its
            // shrunken half-width plus the corridor half-extent.
            let occ_needed = LEAD_D_TOL + BLOCKER_SHRINK * w / 2.0 + 0.3 + lat_slack;
            if lateral >= sep_needed.max(occ_needed) {
                classes.push(Class::Separated);
                continue;
            }
            // In-corridor actors must sit dead on the ego's lateral
            // line, have an inert-certifiable script, and follow a
            // certifiable speed law.
            let inertia = pending_inertia(actor);
            let tight = (actor.d().value() - e_d).abs() <= LEAD_D_TOL
                && actor.lane_change_target().is_none()
                && inertia.is_some()
                && speed_law(actor).is_some();
            if !tight {
                decline!(
                    tick,
                    CertReason::ActorUnclassifiable,
                    "actor {} unclassifiable (d {:.2} vs ego {:.2}, pending {}, law {:?})",
                    actor.script().id,
                    actor.d().value(),
                    e_d,
                    actor.pending_maneuvers().len(),
                    speed_law(actor)
                );
            }
            if actor.s().value() > e_s {
                classes.push(Class::Lead {
                    inert_floor: inertia.expect("checked above"),
                });
                match lead {
                    // Keep the nearest as "the" lead; remember the rest
                    // for the beyond-the-lead check below.
                    None => lead = Some(i),
                    Some(prev) => {
                        let prev_s = lane_actor(sim, lane, forked, prev).s().value();
                        if actor.s().value() < prev_s {
                            lead = Some(i);
                        }
                    }
                }
            } else {
                if trailer.is_some() {
                    decline!(tick, CertReason::MultipleTrailers, "multiple trailers");
                }
                if inertia != Some(0.0) {
                    decline!(
                        tick,
                        CertReason::TrailerPendingManeuvers,
                        "trailer with pending maneuvers"
                    );
                }
                classes.push(Class::Trailer);
                trailer = Some(i);
            }
        }

        // Corridor actors beyond the nearest lead must clear it and never
        // fall back into the sight segment.
        if let Some(li) = lead {
            let l = lane_actor(sim, lane, forked, li);
            let l_s = l.s().value();
            let l_len = l.script().dims.length.value();
            let l_law = speed_law(l).expect("leads have a speed law");
            for (i, class) in classes.iter().enumerate() {
                let Class::Lead { inert_floor } = *class else {
                    continue;
                };
                if i == li {
                    continue;
                }
                let b = lane_actor(sim, lane, forked, i);
                let clears = b.s().value() - l_s
                    > (b.script().dims.length.value() + l_len) / 2.0 + BEYOND_MARGIN;
                let receding = match (speed_law(b), l_law) {
                    (Some(SpeedLaw::Constant(vb)), SpeedLaw::Constant(vl)) => {
                        vb >= vl - SPEED_CONVERGED
                    }
                    _ => false,
                };
                if !(clears && receding && inert_floor == 0.0) {
                    decline!(
                        tick,
                        CertReason::BeyondLeadUnclear,
                        "actor beyond the lead too close, closing or scripted"
                    );
                }
            }
        }

        // Shape 1 — all separated: collision is geometrically impossible
        // whatever the ego or its (possibly phantom) perception does.
        if lead.is_none() && trailer.is_none() {
            return true;
        }

        // The remaining shapes reason about what the planner will do,
        // which requires trusting the lead's track to keep refreshing.
        if lane.perception.has_frame_loss() {
            decline!(tick, CertReason::FrameLoss, "injected frame loss");
        }

        // Every confirmed track other than the lead/trailer must already
        // be out of the corridor: a stale in-corridor track could still
        // be elected lead by the planner, taking the closed loop outside
        // this certificate's model. (Coasting preserves a track's
        // lateral offset — track headings are road-tangent — so one
        // check now holds until the track refreshes further out.)
        let lead_id = lead.map(|i| lane_actor(sim, lane, forked, i).script().id);
        let trailer_id = trailer.map(|i| lane_actor(sim, lane, forked, i).script().id);
        for track in lane.perception.world().tracks() {
            let id = track.agent.id;
            if Some(id) == lead_id || Some(id) == trailer_id {
                continue;
            }
            let f = sim.road.to_frenet(track.agent.state.position);
            let lateral = (f.d.value() - e_d).abs();
            let needed = (track.agent.dims.width.value() + e_w) / 2.0 + corridor_margin + 0.2;
            if lateral <= needed {
                decline!(
                    tick,
                    CertReason::StaleInCorridorTrack,
                    "stale in-corridor track {}",
                    id
                );
            }
        }

        // On an arc, every certified body must stay on the sampled path
        // for the rest of the run (the concentric-offset argument does
        // not extend past the ends, where frames extrapolate straight).
        if curved {
            let length = sim.road.path().length().value();
            let ego_v_max = ego.speed().value().max(cfg.desired_speed.value()) + 0.2;
            let mut s_hi = e_s + ego_v_max * remaining;
            for (i, class) in classes.iter().enumerate() {
                if *class == Class::Separated {
                    continue;
                }
                let a = lane_actor(sim, lane, forked, i);
                let v_hi = match speed_law(a) {
                    Some(SpeedLaw::Constant(v)) => v,
                    Some(SpeedLaw::MatchesEgo) => ego_v_max,
                    None => unreachable!("corridor actors have a speed law"),
                };
                s_hi = s_hi.max(a.s().value() + v_hi * remaining);
            }
            if s_hi > length - 10.0 || e_s < 2.0 {
                decline!(
                    tick,
                    CertReason::LeavesSampledArc,
                    "run leaves the sampled arc"
                );
            }
        }

        // Trailer condition (shared by shapes 2 and 3): an ego-matching
        // follower whose tracking lag cannot consume the gap.
        if let Some(ti) = trailer {
            let t = lane_actor(sim, lane, forked, ti);
            let gap_b = (e_s - t.s().value()) - (e_len + t.script().dims.length.value()) / 2.0;
            let ok = match speed_law(t) {
                Some(SpeedLaw::MatchesEgo) => {
                    let dv = (t.speed().value() - ego.speed().value()).abs();
                    dv <= MATCH_DV
                        && gap_b >= FOLLOW_MIN_GAP
                        && gap_b - (dv + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON)
                            >= FOLLOW_GAP_FLOOR
                }
                _ => false,
            };
            if !ok {
                decline!(
                    tick,
                    CertReason::TrailerOutsideBand,
                    "trailer {} outside band (law {:?}, gap {:.1})",
                    t.script().id,
                    speed_law(t),
                    gap_b
                );
            }
        }

        let Some(li) = lead else {
            // Trailer-only corridors: certified above; nothing ahead can
            // collide.
            return true;
        };
        let l = lane_actor(sim, lane, forked, li);
        let l_dims = l.script().dims;
        let gap_true = (l.s().value() - e_s) - (e_len + l_dims.length.value()) / 2.0;
        let law = speed_law(l).expect("leads have a speed law");
        let Class::Lead { inert_floor } = classes[li] else {
            unreachable!("lead index tracks lead classifications")
        };
        let slowest_period = 1.0 / lane.perception.slowest_rate().value();

        // The planner must currently hold a confirmed, fresh-shaped track
        // of the lead.
        let Some(track) = lane.perception.world().track(l.script().id) else {
            decline!(
                tick,
                CertReason::LeadUntracked,
                "lead {} untracked",
                l.script().id
            );
        };
        if !track.confirmed {
            decline!(
                tick,
                CertReason::LeadUnconfirmed,
                "lead {} unconfirmed",
                l.script().id
            );
        }
        // What the planner consumes is the *coasted* track — for a
        // constant-speed lead the dead-reckoned state tracks the truth,
        // which is exactly what the consistency checks below pin.
        let coasted = track.coasted(now);
        let f = sim.road.to_frenet(coasted.state.position);
        if (f.d.value() - e_d).abs() > LEAD_D_TOL + 0.2 + stale_slack {
            decline!(
                tick,
                CertReason::LeadLaterallyStale,
                "lead track laterally stale"
            );
        }
        let gap_perceived = (f.s.value() - e_s) - (e_len + l_dims.length.value()) / 2.0;

        // Current visibility, to anchor the refresh argument.
        let ego_state = lane.scratch.ego.state;
        let lead_agent = Agent::new(
            l.script().id,
            l.script().kind,
            l_dims,
            VehicleState::new(
                lane.scratch.positions()[li],
                lane.scratch.headings()[li],
                l.speed(),
                l.accel(),
            ),
        );
        let visible = lane
            .perception
            .rig()
            .cameras()
            .iter()
            .any(|cam| cam.sees_agent(&ego_state, &lead_agent));
        if !visible {
            decline!(
                tick,
                CertReason::LeadNotVisible,
                "lead not currently visible"
            );
        }

        let shape = match law {
            SpeedLaw::Constant(0.0) => {
                // Shape 2 — parked ego behind a static blocker.
                [
                    (
                        CertReason::ParkedEgoMoving,
                        ego.speed().value() <= PARKED_EGO_VMAX,
                    ),
                    (
                        CertReason::ParkedStaleCreep,
                        ego.speed().value() * slowest_period <= PARKED_STALE_CREEP,
                    ),
                    (CertReason::ParkedLeadScriptPending, inert_floor == 0.0),
                    (
                        CertReason::ParkedEgoAccelerating,
                        ego.accel().value() <= PARKED_EGO_AMAX,
                    ),
                    (
                        CertReason::ParkedGapFloor,
                        gap_true >= PARKED_GAP_FLOOR + gap_slack,
                    ),
                    (
                        CertReason::ParkedTrackNotAtRest,
                        track.agent.state.speed.value() == 0.0
                            && track.agent.state.accel.value() == 0.0,
                    ),
                    (
                        CertReason::ParkedCreepBudget,
                        gap_perceived <= cfg.min_gap.value() + PARKED_GAP_SLACK,
                    ),
                    (CertReason::ParkedTrailerPresent, trailer.is_none()),
                ]
                .iter()
                .find(|(_, ok)| !ok)
                .map(|(why, _)| *why)
            }
            SpeedLaw::Constant(v_l) => {
                // Shape 3 — steady following of a constant-speed lead.
                let dv = ego.speed().value() - v_l;
                let drift = (dv.abs() + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON) + 0.1;
                let desired = cfg.idm_desired_gap(ego.speed().value().max(0.0), v_l.max(0.0));
                let range_ok = max_forward_range(lane) - RANGE_MARGIN
                    >= gap_true + drift + (e_len + l_dims.length.value()) / 2.0;
                [
                    (CertReason::FollowRelativeSpeed, dv.abs() <= FOLLOW_DV),
                    (
                        CertReason::FollowEgoAccel,
                        ego.accel().value().abs() <= FOLLOW_AMAX,
                    ),
                    (CertReason::FollowGapTooSmall, gap_true >= FOLLOW_MIN_GAP),
                    (
                        CertReason::FollowBelowIdmGap,
                        gap_true >= desired * FOLLOW_GAP_FRACTION,
                    ),
                    (
                        CertReason::FollowDriftEatsGap,
                        gap_true - drift >= (FOLLOW_GAP_FLOOR + gap_slack).max(inert_floor),
                    ),
                    (
                        CertReason::FollowTrackUnsettled,
                        (coasted.state.speed.value() - v_l).abs() <= 1e-3,
                    ),
                    (
                        CertReason::FollowGapInconsistent,
                        (gap_perceived - gap_true).abs() <= 0.6 + stale_slack,
                    ),
                    (CertReason::FollowOutOfRange, range_ok),
                ]
                .iter()
                .find(|(_, ok)| !ok)
                .map(|(why, _)| *why)
            }
            SpeedLaw::MatchesEgo => {
                // Shape 3 — lead pacing the ego's speed.
                let dv = ego.speed().value() - l.speed().value();
                let period = slowest_period;
                let stale = 2.0 * period * period + 0.1;
                let match_limit = match l.mode_view() {
                    SpeedModeView::MatchEgo { limit } => limit.value(),
                    _ => MATCH_LIMIT_MIN,
                };
                let drift = (dv.abs() + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON) + stale;
                let range_ok = max_forward_range(lane) - RANGE_MARGIN
                    >= gap_true + drift + (e_len + l_dims.length.value()) / 2.0;
                [
                    (CertReason::MatchRelativeSpeed, dv.abs() <= MATCH_DV),
                    (
                        CertReason::MatchEgoAccel,
                        ego.accel().value().abs() <= FOLLOW_AMAX,
                    ),
                    (CertReason::MatchGapTooSmall, gap_true >= FOLLOW_MIN_GAP),
                    (
                        CertReason::MatchDriftEatsGap,
                        gap_true - drift >= (FOLLOW_GAP_FLOOR + gap_slack).max(inert_floor),
                    ),
                    (
                        CertReason::MatchTrackStale,
                        (coasted.state.speed.value() - l.speed().value()).abs()
                            <= match_limit * period + 0.2,
                    ),
                    (
                        CertReason::MatchGapInconsistent,
                        (gap_perceived - gap_true).abs() <= stale + 0.6 + stale_slack,
                    ),
                    (CertReason::MatchOutOfRange, range_ok),
                ]
                .iter()
                .find(|(_, ok)| !ok)
                .map(|(why, _)| *why)
            }
        };
        if let Some(why) = shape {
            decline!(tick, why, "{}", why.label());
        }
        true
    }

    fn lane_actor<'a>(
        sim: &'a Simulation,
        lane: &'a Lane,
        forked: &[bool],
        i: usize,
    ) -> &'a ScriptedActor {
        if forked[i] {
            lane.forks[i].as_ref().expect("forked lanes hold copies")
        } else {
            &sim.actors[i]
        }
    }

    /// The longest range among cameras mounted dead ahead.
    fn max_forward_range(lane: &Lane) -> f64 {
        lane.perception
            .rig()
            .cameras()
            .iter()
            .filter(|c| c.mount().value().abs() < 1e-9)
            .map(|c| c.range().value())
            .fold(0.0, f64::max)
    }
}
