//! `zhuyi-perfbench` — the repository benchmark: four workloads, each
//! driven only through the public API of the workspace crates, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separate traced run. See `perfbench/README.md` for the workloads, the
//! metric map, and how to run it; `perfbench/run.sh` builds and runs it.
//!
//! ```text
//! zhuyi-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                 --worker-binary PATH [--spans FILE]
//! ```

mod common;
mod corpus;
mod online;
mod report;
mod service;
mod spans;
mod table1;

use common::Ctx;
use report::Report;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every workload: its name and its untraced and traced entry points.
type Entry = (
    &'static str,
    fn(&Ctx, &mut Report),
    fn(&Ctx, &Spans, &mut Report),
);

const WORKLOADS: [Entry; 4] = [
    ("table1-sweep", table1::run, table1::trace),
    ("online-check", online::run, online::trace),
    ("sweep-service", service::run, service::trace),
    ("corpus-dist", corpus::run, corpus::trace),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker_binary: PathBuf,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: zhuyi-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         --worker-binary PATH [--spans FILE]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker_binary = None;
    let mut spans = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            "--worker-binary" => worker_binary = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        worker_binary: worker_binary.ok_or_else(|| missing("--worker-binary"))?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zhuyi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run, _)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!(
            "zhuyi-perfbench: unknown workload {:?}\n{}",
            args.workload,
            usage()
        );
        return ExitCode::from(2);
    };
    if !args.worker_binary.is_file() {
        eprintln!(
            "zhuyi-perfbench: worker binary {} not found — build it with \
             `cargo build --release -p zhuyi-distd --bin fleet_shard` (perfbench/run.sh does)",
            args.worker_binary.display()
        );
        return ExitCode::from(2);
    }
    let ctx = match Ctx::new(args.seed, args.seconds, args.worker_binary, &args.workload) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("zhuyi-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut report = Report::default();
    if args.trace {
        // The traced run covers every layer, each on the workload whose
        // path it sits on, so each workload gets an equal share of time.
        let spans = Spans::new();
        let share = ctx.with_seconds(ctx.seconds / WORKLOADS.len() as f64);
        for &(name, _, trace) in &WORKLOADS {
            eprintln!("zhuyi-perfbench: traced section {name}");
            trace(&share, &spans, &mut report);
        }
        if let Some(path) = &args.spans {
            let mut out = String::new();
            spans.write_jsonl(&args.workload, &mut out);
            if let Err(e) = std::fs::write(path, out) {
                report.gate(false, || {
                    format!("cannot write spans to {}: {e}", path.display())
                });
            }
        }
    } else {
        run(&ctx, &mut report);
    }
    report.check_finite();
    report.print(&args.workload, args.trace);
    drop(ctx);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
