//! The untraced run: the end-to-end metrics a user of `midas` sees.
//!
//! 1. **Closed loop** — `clients` threads each keep one job outstanding
//!    against a `JobQueue` with `workers` workers: write the spec file,
//!    then read it, decode, submit and wait for `done`; every job has its
//!    own seed, so every first submission is a real miss.  Once it is
//!    `done`, the client resubmits the spec once: a real cache hit on a
//!    finished job directory, not in-flight dedup.  New jobs start until
//!    `seconds` have passed and at least one full pass over the workload
//!    has been submitted.  `peak_rss_mb` is read when the loop ends, so it
//!    covers the job path alone.
//! 2. **Setup pass** — `spec decode + Session::trial +
//!    SessionTrial::simulator` for every trial and MAC of one pass over
//!    the workload, no rounds run, on the `clients` threads.  It is
//!    repeated for half of `seconds`, at least [`SETUP_MIN_REPS`]
//!    times: single passes run in short bursts that land on fast or slow
//!    spells of a shared host, and the median over several seconds of
//!    passes does not.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use midas_svc::hash::sha256_hex;
use midas_svc::pool::{JobOutcome, JobQueue};
use midas_svc::spec::JobSpec;

use crate::machine::{peak_rss_mb, Scratch};
use crate::pipeline::build_simulators;
use crate::stats::{beyond, median, percentile, sorted, tail_percentile};
use crate::workload::{spec_text, Plan, Workload};
use crate::Report;

/// The fewest setup passes a run makes.
const SETUP_MIN_REPS: usize = 5;

/// One fresh job.
struct JobRecord {
    index: usize,
    /// Submit → `done`, ms.
    fresh_ms: f64,
    /// Spec text read → `result.json` on disk, s.
    job_s: f64,
    /// The decoded spec, once the job is `done` with a readable result.
    spec: Option<JobSpec>,
    /// Submit → `done` of the resubmission, ms; NaN if it failed.
    hit_ms: Option<f64>,
    /// SHA-256 of `result.json`.
    digest: String,
    /// Why the job or its output check failed.
    failure: Option<String>,
}

/// Runs the untraced measurement of `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    plan: &Plan,
    scratch: &Scratch,
    report: &mut Report,
) -> std::io::Result<()> {
    let cycle: Vec<String> = (0..workload.cycle_len())
        .map(|i| spec_text(workload, seed, i, plan.nproc, plan.sweep_threads))
        .collect();

    let specs_dir = scratch.fresh("specs")?;
    let queue = JobQueue::new(scratch.fresh("jobs")?, plan.workers)?;
    let budget = Duration::from_secs(seconds);
    let start = crate::now();
    let next = AtomicUsize::new(0);
    let mut records: Vec<JobRecord> = on_clients(plan.clients, || {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::SeqCst);
            if index >= cycle.len() && start.elapsed() >= budget {
                return local;
            }
            let text = spec_text(workload, seed, index, plan.nproc, plan.sweep_threads);
            let mut record = fresh_job(&queue, &specs_dir, index, &text);
            if let Some(spec) = &record.spec {
                record.hit_ms = Some(resubmit(&queue, spec, &record.digest));
            }
            local.push(record);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    queue.drain();
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");

    let mut setup_s = Vec::new();
    let setup_start = crate::now();
    while setup_s.len() < SETUP_MIN_REPS || setup_start.elapsed() < budget / 2 {
        let start = crate::now();
        let next = AtomicUsize::new(0);
        let errors = on_clients(plan.clients, || {
            let mut errors = Vec::new();
            while let Some(text) = cycle.get(next.fetch_add(1, Ordering::SeqCst)) {
                match JobSpec::from_json_str(text) {
                    Ok(spec) => build_simulators(&spec),
                    Err(e) => errors.push(format!("setup pass: spec does not decode: {e}")),
                }
            }
            errors
        });
        setup_s.push(start.elapsed().as_secs_f64());
        for why in errors {
            report.fail(why);
        }
    }

    records.sort_by_key(|r| r.index);

    let done: Vec<&JobRecord> = records.iter().filter(|r| r.spec.is_some()).collect();
    let hit_ms: Vec<f64> = done
        .iter()
        .filter_map(|r| r.hit_ms)
        .filter(|ms| ms.is_finite())
        .collect();
    let resubmitted = done.len();
    report.attempted += records.len() + resubmitted;
    for record in &records {
        if let Some(failure) = &record.failure {
            report.fail(format!("job {}: {failure}", record.index));
        }
    }
    for _ in hit_ms.len()..resubmitted {
        report.fail("a resubmission was not a byte-identical cache hit".into());
    }
    let completed = done.len() + hit_ms.len();

    let fresh_ms: Vec<f64> = done.iter().map(|r| r.fresh_ms).collect();
    let job_s: Vec<f64> = done.iter().map(|r| r.job_s).collect();
    let (fresh_sorted, hit_sorted) = (sorted(&fresh_ms), sorted(&hit_ms));
    report.note(format!(
        "samples: {} fresh jobs ({} beyond p95, tail rule p{}), {} cache hits ({} beyond p95, tail rule p{}), {} setup passes, batch wall {:.3} s",
        fresh_ms.len(),
        beyond(fresh_ms.len(), 95.0),
        tail_percentile(fresh_ms.len()),
        hit_ms.len(),
        beyond(hit_ms.len(), 95.0),
        tail_percentile(hit_ms.len()),
        setup_s.len(),
        wall_s
    ));
    let deciles = |v: &[f64]| -> String {
        (1..10)
            .map(|d| format!("{:.3}", percentile(v, d as f64 * 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!("fresh-job ms deciles: {}", deciles(&fresh_sorted)));
    report.note(format!("cache-hit ms deciles: {}", deciles(&hit_sorted)));
    report.note(format!(
        "setup pass s deciles: {}",
        deciles(&sorted(&setup_s))
    ));
    let digests: Vec<&str> = records
        .iter()
        .take(cycle.len())
        .map(|r| r.digest.as_str())
        .collect();
    report.note(format!(
        "first-pass result.json sha256: {}",
        digests.join(" ")
    ));

    report.metric("jobs_per_s", completed as f64 / wall_s, "1/s");
    report.metric("job_p50_ms", percentile(&fresh_sorted, 50.0), "ms");
    report.metric("job_p95_ms", percentile(&fresh_sorted, 95.0), "ms");
    // Printed, not gated: sub-millisecond hits drift by more than any
    // allowed bound from run to run on a shared VM (see README.md).
    report.note(format!(
        "hit_p50_ms {:.6} ms, hit_p95_ms {:.6} ms",
        percentile(&hit_sorted, 50.0),
        percentile(&hit_sorted, 95.0)
    ));
    report.metric("job_s", median(&job_s), "s");
    report.metric("setup_s", median(&setup_s), "s");
    Ok(())
}

/// Runs `client` on `clients` threads and concatenates what they return.
fn on_clients<T: Send>(clients: usize, client: impl Fn() -> Vec<T> + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|_| scope.spawn(&client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    })
}

/// One fresh job through the queue.  It must end `done` as a miss with a
/// readable `result.json`.
fn fresh_job(queue: &JobQueue, specs_dir: &Path, index: usize, text: &str) -> JobRecord {
    let mut record = JobRecord {
        index,
        fresh_ms: 0.0,
        job_s: 0.0,
        spec: None,
        hit_ms: None,
        digest: String::new(),
        failure: None,
    };
    let path = specs_dir.join(format!("{index}.json"));
    let result = fs::write(&path, text)
        .map_err(|e| format!("writing spec file: {e}"))
        .and_then(|()| {
            let start = crate::now();
            let text = fs::read_to_string(&path).map_err(|e| format!("reading spec file: {e}"))?;
            let spec =
                JobSpec::from_json_str(&text).map_err(|e| format!("spec does not decode: {e}"))?;
            let submitted = crate::now();
            let job = queue
                .submit(spec.clone())
                .map_err(|e| format!("submit: {e}"))?;
            let outcome = job.wait();
            record.fresh_ms = submitted.elapsed().as_secs_f64() * 1e3;
            record.job_s = start.elapsed().as_secs_f64();
            if !matches!(
                outcome,
                JobOutcome::Done {
                    cache_hit: false,
                    ..
                }
            ) {
                return Err(format!(
                    "fresh submission ended {outcome:?}, not a fresh done"
                ));
            }
            let bytes = fs::read(job.dir().join("result.json"))
                .map_err(|e| format!("reading result.json: {e}"))?;
            record.digest = sha256_hex(&bytes);
            Ok(spec)
        });
    match result {
        Ok(spec) => record.spec = Some(spec),
        Err(why) => record.failure = Some(why),
    }
    record
}

/// One resubmission of a finished job: submit → `done`, in ms, or NaN
/// unless it was a cache hit whose `result.json` has the fresh run's
/// digest.
fn resubmit(queue: &JobQueue, spec: &JobSpec, digest: &str) -> f64 {
    let submitted = crate::now();
    let Ok(job) = queue.submit(spec.clone()) else {
        return f64::NAN;
    };
    let outcome = job.wait();
    let elapsed_ms = submitted.elapsed().as_secs_f64() * 1e3;
    let same =
        fs::read(job.dir().join("result.json")).is_ok_and(|bytes| sha256_hex(&bytes) == digest);
    if matches!(
        outcome,
        JobOutcome::Done {
            cache_hit: true,
            ..
        }
    ) && same
    {
        elapsed_ms
    } else {
        f64::NAN
    }
}
