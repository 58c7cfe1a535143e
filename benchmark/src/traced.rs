//! The traced run: per-layer metrics from spans around each public call.
//!
//! Serial (one queue worker, one sweep thread), so spans nest and the
//! self times of the layers plus the benchmark's own remainder add up to
//! the traced wall time.  Each pass runs the workload's job set once; the
//! run repeats passes for `seconds` (at least one), each from empty
//! directories.  Per job:
//!
//! 1. `svc.decode` (`JobSpec::from_json_str`) and `svc.cache_key`;
//! 2. `svc.queue` — a fresh `JobQueue::submit` waited to `done` (its
//!    queue wait read back from `status.json`), then `svc.submit_hit`;
//! 3. `svc.run_job` — `runner::run_job` called directly, untraced inside:
//!    the baseline for the tracing overhead;
//! 4. `svc.runner` — `run_job`'s path rebuilt from public calls
//!    ([`crate::pipeline::traced_run`]) with spans for `sim.*`, `net.*`,
//!    `experiment.*`, `svc.result_encode` and `svc.result_write`.
//!
//! The three `result.json`s must be byte-identical, and the exact counts
//! must repeat from pass to pass.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use midas_svc::hash::sha256_hex;
use midas_svc::pool::{JobOutcome, JobQueue};
use midas_svc::runner::{run_job, CancelToken};
use midas_svc::spec::JobSpec;
use midas_svc::status::{unix_ms, StatusRecord};

use crate::machine::Scratch;
use crate::pipeline::{traced_run, LayerProbe};
use crate::stats::{mean, median, percentile, sorted, tail_percentile};
use crate::tracer::{self_times, Span, Tracer};
use crate::workload::{spec_text, Plan, Workload};
use crate::Report;

/// Per-kind direct experiments, as `(span, metric)`.
const EXPERIMENTS: [(&str, &str); 7] = [
    ("experiment.fig08_09", "experiment.fig08_09_ms"),
    ("experiment.fig10", "experiment.fig10_ms"),
    ("experiment.fig11", "experiment.fig11_ms"),
    ("experiment.fig12", "experiment.fig12_ms"),
    ("experiment.fig13", "experiment.fig13_ms"),
    ("experiment.fig14", "experiment.fig14_ms"),
    ("experiment.sec534", "experiment.sec534_ms"),
];

/// Spans whose insides are not traced: the queue path and the direct
/// `run_job` baseline.  Their time is reported apart from the layers.
const UNTRACED_CALLS: [&str; 2] = ["svc.queue", "svc.run_job"];

/// What one pass produced besides its spans.
struct Pass {
    probe: LayerProbe,
    queue_wait_ms: Vec<f64>,
}

/// Runs the traced measurement of `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    plan: &Plan,
    scratch: &Scratch,
    report: &mut Report,
) -> io::Result<()> {
    let texts: Vec<String> = (0..workload.cycle_len())
        .map(|i| spec_text(workload, seed, i, plan.nproc, plan.sweep_threads))
        .collect();
    let tracer = Tracer::new();
    let budget = Duration::from_secs(seconds);
    let start = crate::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let dir = scratch.fresh(&format!("traced-{}", passes.len()))?;
        let pass = tracer.span("bench.pass", 0, || {
            run_pass(&texts, &dir, plan.workers, &tracer, report)
        })?;
        if let Some(first) = passes.first() {
            if pass.probe.counts != first.probe.counts {
                report.fail(format!(
                    "pass {} counts {:?} differ from pass 0 {:?}",
                    passes.len(),
                    pass.probe.counts,
                    first.probe.counts
                ));
            }
        }
        passes.push(pass);
    }
    let spans = tracer.into_spans();
    dump_spans(&spans, &scratch.path().join("spans.jsonl"))?;
    summarize(&spans, &passes, texts.len(), report);
    Ok(())
}

/// One pass over the job set from empty directories.
fn run_pass(
    texts: &[String],
    dir: &Path,
    workers: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> io::Result<Pass> {
    let queue = JobQueue::new(dir.join("queue"), workers)?;
    let probe = Mutex::new(LayerProbe::default());
    let mut queue_wait_ms = Vec::with_capacity(texts.len());
    let (mut result_bytes, mut jsonl_bytes, mut digests) = (0, 0, Vec::new());
    for (job, text) in texts.iter().enumerate() {
        report.attempted += 1;
        let spec = match tracer.span("svc.decode", job, || JobSpec::from_json_str(text)) {
            Ok(spec) => spec,
            Err(e) => {
                report.fail(format!("job {job}: spec does not decode: {e}"));
                continue;
            }
        };
        std::hint::black_box(tracer.span("svc.cache_key", job, || spec.cache_key()));

        let submitted_ms = unix_ms();
        let fresh = tracer.span("svc.queue", job, || {
            queue
                .submit(spec.clone())
                .map(|handle| (handle.wait(), handle))
        })?;
        let queued = match fresh {
            (
                JobOutcome::Done {
                    cache_hit: false, ..
                },
                handle,
            ) => handle.dir().to_path_buf(),
            (other, _) => {
                report.fail(format!("job {job}: fresh submission ended {other:?}"));
                continue;
            }
        };
        if let Some(started) = StatusRecord::read(&queued).and_then(|s| s.started_unix_ms) {
            queue_wait_ms.push(started.saturating_sub(submitted_ms) as f64);
        }
        report.attempted += 1;
        match tracer.span("svc.submit_hit", job, || {
            queue.submit(spec.clone()).map(|handle| handle.wait())
        })? {
            JobOutcome::Done {
                cache_hit: true, ..
            } => {}
            other => report.fail(format!(
                "job {job}: resubmission ended {other:?}, not a cache hit"
            )),
        }

        let direct = dir.join("direct").join(job.to_string());
        let ran = tracer.span("svc.run_job", job, || {
            run_job(&spec, &direct, &CancelToken::new())
        });
        if let Err(e) = ran {
            report.fail(format!("job {job}: run_job failed: {e}"));
            continue;
        }
        let rebuilt = dir.join("rebuilt").join(job.to_string());
        let traced = tracer.span("svc.runner", job, || {
            traced_run(&spec, &rebuilt, tracer, job, &probe)
        })?;

        let from_queue = fs::read_to_string(queued.join("result.json"))?;
        let from_run_job = fs::read_to_string(direct.join("result.json"))?;
        if from_queue != from_run_job {
            report.fail(format!(
                "job {job}: queued result.json differs from run_job's"
            ));
        }
        if traced != from_run_job {
            report.fail(format!(
                "job {job}: traced result bytes differ from run_job's"
            ));
        }
        result_bytes += from_queue.len() as u64;
        jsonl_bytes += fs::metadata(queued.join("rounds.jsonl")).map_or(0, |m| m.len());
        digests.push(sha256_hex(from_queue.as_bytes()));
    }
    queue.drain();
    let mut probe = probe
        .into_inner()
        .expect("probe lock poisoned by a panicking trial");
    probe.counts.result_bytes = result_bytes;
    probe.counts.jsonl_bytes = jsonl_bytes;
    probe.counts.digests = digests;
    Ok(Pass {
        probe,
        queue_wait_ms,
    })
}

/// Writes the spans as JSON lines (`name`, `job`, `parent`, `start_us`,
/// `end_us`).
fn dump_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
            span.name,
            span.job,
            span.start * 1e6,
            span.end * 1e6
        ));
    }
    fs::write(path, text)
}

/// Turns spans and passes into the per-layer metrics.
fn summarize(spans: &[Span], passes: &[Pass], jobs: usize, report: &mut Report) {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    };
    let median_of = |name: &str, scale: f64| -> f64 {
        let d = durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * scale
        }
    };
    let reps = passes.len() as f64;
    let first = &passes[0].probe;
    let counts = &first.counts;

    report.metric("svc.decode_us", median_of("svc.decode", 1e6), "us");
    report.metric("svc.cache_key_us", median_of("svc.cache_key", 1e6), "us");
    report.metric("svc.submit_hit_us", median_of("svc.submit_hit", 1e6), "us");
    let waits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.queue_wait_ms.clone())
        .collect();
    report.metric(
        "svc.queue_wait_ms",
        if waits.is_empty() { 0.0 } else { mean(&waits) },
        "ms",
    );
    report.metric("svc.run_job_ms", median_of("svc.run_job", 1e3), "ms");
    report.metric(
        "svc.result_encode_us",
        median_of("svc.result_encode", 1e6),
        "us",
    );
    report.metric("svc.result_bytes", counts.result_bytes as f64, "bytes");
    report.metric("svc.jsonl_bytes", counts.jsonl_bytes as f64, "bytes");
    report.metric("svc.jobs_attempted", report.attempted as f64, "count");
    report.metric("svc.jobs_failed", report.failed as f64, "count");

    for (span, metric) in EXPERIMENTS {
        report.metric(metric, median_of(span, 1e3), "ms");
    }

    report.metric(
        "sim.trial_build_ms",
        median_of("sim.trial_build", 1e3),
        "ms",
    );
    report.metric(
        "sim.simulator_new_ms",
        median_of("sim.simulator_new", 1e3),
        "ms",
    );
    report.metric(
        "net.workspace_bytes",
        counts.workspace_bytes as f64,
        "bytes",
    );

    let rounds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.probe.round_us.clone())
        .collect();
    let rounds_sorted = sorted(&rounds);
    let tail = tail_percentile(rounds.len());
    report.metric("net.run_ms", median_of("net.run", 1e3), "ms");
    report.metric(
        "net.round_p50_us",
        or_zero(percentile(&rounds_sorted, 50.0)),
        "us",
    );
    report.metric(
        "net.round_tail_us",
        or_zero(percentile(&rounds_sorted, tail)),
        "us",
    );
    report.metric("net.rounds", counts.rounds as f64, "count");
    report.metric("net.streams", counts.streams as f64, "count");
    report.metric("net.deliveries", counts.deliveries as f64, "count");
    report.metric("net.tx_aps", counts.tx_aps as f64, "count");
    let ratio = if counts.streams == 0 {
        0.0
    } else {
        counts.deliveries as f64 / counts.streams as f64
    };
    report.metric("net.delivered_ratio", ratio, "ratio");

    let stage = |f: fn(&midas::sim::StageTimings) -> f64| -> f64 {
        passes.iter().map(|p| f(&p.probe.stages)).sum::<f64>() / reps
    };
    report.metric("net.stage.evolve_s", stage(|t| t.evolve_s), "s");
    report.metric("net.stage.sense_s", stage(|t| t.sense_s), "s");
    report.metric("net.stage.select_s", stage(|t| t.select_s), "s");
    report.metric("net.stage.settle_s", stage(|t| t.settle_s), "s");
    report.metric("net.stage.precode_s", stage(|t| t.precode_s), "s");
    report.metric("net.stage.evaluate_s", stage(|t| t.evaluate_s), "s");
    report.metric("net.stage.dynamics_s", stage(|t| t.dynamics_s), "s");

    report.metric("dynamics.moves", counts.moves as f64, "count");
    report.metric("dynamics.handoffs", counts.handoffs as f64, "count");
    report.metric(
        "dynamics.heap_bytes",
        counts.dynamics_heap_bytes as f64,
        "bytes",
    );

    // Wall-time accounting, as means per pass so the parts add up.
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&own) {
        let bucket = if UNTRACED_CALLS.contains(&span.name) {
            "untraced_calls"
        } else if span.name == "bench.pass" {
            "remainder"
        } else {
            span.layer()
        };
        *by_layer.entry(bucket).or_default() += own / reps;
    }
    let wall = durations("bench.pass").iter().sum::<f64>() / reps;
    report.metric("trace.wall_s", wall, "s");
    for (bucket, metric) in [
        ("svc", "trace.self_svc_s"),
        ("experiment", "trace.self_experiment_s"),
        ("sim", "trace.self_sim_s"),
        ("net", "trace.self_net_s"),
        ("untraced_calls", "trace.untraced_calls_s"),
        ("remainder", "trace.remainder_s"),
    ] {
        report.metric(metric, by_layer.get(bucket).copied().unwrap_or(0.0), "s");
    }
    let traced_job = median_of("svc.runner", 1.0);
    let untraced_job = median_of("svc.run_job", 1.0);
    report.metric("trace.job_s", traced_job, "s");
    report.metric("trace.untraced_job_s", untraced_job, "s");
    report.metric("trace.overhead_s", traced_job - untraced_job, "s");

    report.note(format!(
        "{} traced passes of {jobs} jobs, {} spans, {} rounds timed (tail rule p{tail})",
        passes.len(),
        spans.len(),
        rounds.len()
    ));
    report.note(format!(
        "exact counts: rounds={} streams={} deliveries={} tx_aps={} moves={} handoffs={} result_bytes={} jsonl_bytes={}",
        counts.rounds,
        counts.streams,
        counts.deliveries,
        counts.tx_aps,
        counts.moves,
        counts.handoffs,
        counts.result_bytes,
        counts.jsonl_bytes
    ));
    report.note(format!("result.json sha256: {}", counts.digests.join(" ")));
    report.note(format!(
        "wall accounting per pass: {:.6} s = {}",
        wall,
        by_layer
            .iter()
            .map(|(k, v)| format!("{k} {v:.6}"))
            .collect::<Vec<_>>()
            .join(" + ")
    ));
}

fn or_zero(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}
