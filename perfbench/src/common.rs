//! Shared run context, seeded input derivation, and small helpers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zhuyi_fleet::ResultStore;

use crate::report::median;

/// The paper's Table-1 candidate grid of uniform frame processing rates.
pub const GRID: [u32; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 30];

/// Pool threads and spawned worker processes: the reference box has two
/// cores.
pub const THREADS: usize = 2;

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// Run seed of every warm-up input. It is fixed, so `setup_s` measures
/// the same work whatever `--seed` is.
pub const WARM_SEED: u64 = 0;

/// The percentile `latency_ms_tail` reports for sweeps, plans and
/// distributed runs. On the shared reference box a neighbour's busy spells
/// move p90 by up to a quarter from run to run; p75 stays put.
pub const TAIL: f64 = 0.75;

/// Per-run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// The `fleet_shard` binary distributed runs spawn.
    pub worker_binary: PathBuf,
    scratch: Arc<Scratch>,
}

/// A scratch directory inside the working directory, removed on drop so
/// no run leaves journals or exports behind.
#[derive(Debug)]
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, worker_binary: PathBuf, tag: &str) -> Result<Self, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("cannot read the working directory: {e}"))?
            .join(".bench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
        Ok(Self {
            seed,
            seconds,
            worker_binary,
            scratch: Arc::new(Scratch(dir)),
        })
    }

    /// The same context with a shorter measured region.
    pub fn with_seconds(&self, seconds: f64) -> Self {
        Self {
            seconds,
            ..self.clone()
        }
    }

    /// A fresh, empty subdirectory of this run's scratch directory.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch subdirectory");
        dir
    }

    /// Whether a measuring loop that started at `start` has more to do;
    /// always true before the first operation, so every run attempts one.
    pub fn more(&self, start: Instant, done: usize) -> bool {
        done == 0 || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Median time of one [`HostProbe`] sample on the reference box (quiet
/// host, one thread per core), in seconds. End-to-end metrics are scaled to this speed.
const PROBE_REF_S: f64 = 0.012;

/// How often a measuring loop samples the host's speed.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Tracks the speed of the shared host while a workload runs.
///
/// The reference box shares its cores with other tenants, and its speed
/// drifts: the same run has read 2x slower for a minute at a time. A
/// sample times a fixed compute kernel that uses none of the program
/// under test, between the workload's operations and on as many threads
/// as the workload keeps busy: with one core slowed, two-thread work waits
/// for the slow core, and so does a two-thread probe.
/// The median sample over a run, against [`PROBE_REF_S`], says how much
/// slower than the reference the host ran; end-to-end timings are divided
/// by it, so a program change moves them and a noisy neighbour does not.
#[derive(Debug)]
pub struct HostProbe {
    threads: usize,
    samples: Vec<f64>,
    last: Instant,
}

impl HostProbe {
    /// Starts tracking with one sample. `threads` is the workload's
    /// parallelism; a one-thread probe runs on the calling thread, so it
    /// shares the core the workload's loop runs on.
    pub fn start(threads: usize) -> Self {
        let mut probe = Self {
            threads,
            samples: Vec::new(),
            last: Instant::now(),
        };
        probe.sample();
        probe
    }

    /// Samples the host if [`PROBE_EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.sample();
        }
    }

    /// Samples the host now.
    pub fn sample(&mut self) {
        let start = Instant::now();
        if self.threads == 1 {
            std::hint::black_box(probe_kernel(0.0));
        } else {
            std::thread::scope(|scope| {
                for thread in 0..self.threads {
                    scope.spawn(move || std::hint::black_box(probe_kernel(thread as f64)));
                }
            });
        }
        self.samples.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Host time per reference time over the run so far: 2.0 means the
    /// host ran at half the reference speed.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / PROBE_REF_S
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Floating-point math, branches and a 128 KiB working set, so the
/// kernel slows with the host the way the simulator does.
fn probe_kernel(seed: f64) -> f64 {
    let mut xs: Vec<f64> = (0..16_384).map(|i| seed + i as f64 * 1e-3).collect();
    let mut acc = 0.0;
    for round in 0..48 {
        for i in 0..xs.len() {
            let j = (i * 7919 + round) % xs.len();
            let y = (xs[j] * 1.0001 + 0.3).sin() * 0.5 + (xs[i] * xs[i] + 1.0).sqrt() * 0.01;
            xs[i] = if y > 0.7 { y - 0.5 } else { y + 0.01 };
            acc += xs[i];
        }
    }
    acc
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A well-mixed value determined by the run seed, an input stream, and an
/// index within it. Every generated input of every workload comes from
/// here, so the same `--seed` gives the same inputs.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_mul(0x1000_0001) ^ splitmix64(index)))
}

/// A jitter seed: never 0, which would select the nominal geometry.
pub fn jitter_seed(seed: u64, stream: u64, index: u64) -> u64 {
    derive(seed, stream, index).max(1)
}

/// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last
/// result; the earlier ones are dropped (torn down) outside the timed
/// region, where `host` also takes its samples.
pub fn setup_median<T>(
    host: &mut HostProbe,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        host.tick();
        let start = Instant::now();
        let value = setup(rep)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok((kept.expect("reps >= 1"), median(&times)))
}

/// Which operations of a measuring loop keep their outputs for the
/// correctness gates: the first few and then every power of two, so the
/// gate cost stays logarithmic in the run length.
pub fn sampled(index: usize) -> bool {
    index < 2 || index.is_power_of_two()
}

/// Every exported byte of a store: the per-job CSV ledger and the JSON
/// document.
pub fn export_bytes(store: &ResultStore) -> String {
    let mut bytes = store.to_csv();
    bytes.push_str(&store.to_json());
    bytes
}

/// Size of a file in bytes, 0 if it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
