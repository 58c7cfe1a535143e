//! The MIDAS benchmark: runs a workload through the capacity-planning
//! service's public entry points and prints every metric by name with its
//! unit, then one JSON result line.
//!
//! ```text
//! midas-benchmark --workload <paper_batch|metro_1024ap|mobility_64ap>
//!                 --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the serial traced pass for the per-layer metrics.  A
//! failed job or output check makes the run exit 1.  See `README.md`.

mod e2e;
mod machine;
mod pipeline;
mod stats;
mod traced;
mod tracer;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use machine::{fingerprint, Scratch};
use workload::{Plan, Workload};

/// The benchmark's one clock read: every timing starts here.
pub fn now() -> Instant {
    Instant::now() // lint: allow(wall-clock) — the benchmark times the program from outside; no result depends on the clock
}

/// Metrics, notes and failures of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    /// Job submissions made.
    pub attempted: usize,
    /// Failed submissions and output checks.
    pub failed: usize,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed job or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: midas-benchmark --workload <paper_batch|metro_1024ap|mobility_64ap> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds needs an integer")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("midas-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = if args.trace {
        Plan::traced(nproc)
    } else {
        Plan::untraced(args.workload, nproc)
    };
    if let Err(message) = plan.check() {
        eprintln!("midas-benchmark: {message}");
        return ExitCode::from(2);
    }
    // The direct experiment runners size their sweeps from MIDAS_THREADS;
    // set before any thread exists.
    std::env::set_var("MIDAS_THREADS", plan.sweep_threads.to_string());

    let fingerprint = fingerprint(&plan)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "# workload={} seed={} seconds={} trace={} {fingerprint}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = Report::default();
    let ran = Scratch::create().and_then(|scratch| {
        let run = if args.trace { traced::run } else { e2e::run };
        run(
            args.workload,
            args.seed,
            args.seconds,
            &plan,
            &scratch,
            &mut report,
        )
    });
    if let Err(e) = ran {
        eprintln!("midas-benchmark: i/o error: {e}");
        return ExitCode::from(1);
    }

    for line in &report.notes {
        println!("# {line}");
    }
    for failure in &report.failures {
        println!("# FAILED: {failure}");
    }
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value, unit) in &report.metrics {
        println!("# {name:<28} {value:>18.6} {unit}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
