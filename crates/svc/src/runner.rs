//! The job executor: runs one [`JobSpec`] to completion inside a job
//! directory, streaming session-driven experiments into `rounds.jsonl` and
//! writing the typed output as `result.json`.
//!
//! ## Byte identity
//!
//! `result.json` is **byte-identical** to encoding the in-process
//! [`ExperimentSpec::run`] output, because the session-driven paths here
//! replicate the exact recipes the spec runner uses (same
//! [`PairedRecipe`], contention, seed mix and assembly order) and stream
//! through [`Accumulate`] — which rebuilds the legacy result bit for bit —
//! while a [`JsonlObserver`] tees the same rounds to disk.  The integration
//! tests pin this equivalence.
//!
//! ## Cancellation
//!
//! Cooperative, at *round* granularity: every sweep closure checks the
//! [`CancelToken`] before building its topology, and a `DeadlineProbe`
//! observer rides in each trial's observer tee, polling the token after
//! every round through [`Observer::stop_requested`] — so even a 1-trial,
//! many-round job stops within one round of the deadline instead of
//! running its trial to completion.  The direct (non-session) experiments
//! check once up front — they run a single library call with no interior
//! yield points.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::observer::{JsonlObserver, JsonlSink};
use crate::spec::JobSpec;
use midas::experiment::{CalibrationCell, EnterpriseScalingSeries, SmartPrecodingSeries};
use midas::sim::{
    Accumulate, ExperimentOutput, ExperimentSpec, MacKind, Observer, PairedRecipe, PairedSamples,
    RoundRecord, SessionBuilder, SessionSeries, SessionTrial, Tee,
};
use midas_net::contention::ContentionGraph;
use midas_net::scale::scenario::INTERACTION_MARGIN_DB;
use midas_net::simulator::TopologyResult;

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The deadline installed by [`CancelToken::set_deadline`] elapsed.
    DeadlineExceeded,
}

/// A shared cooperative-cancellation handle.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Default)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that never fires until asked to.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; checkpoints observe it on their next check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Installs (or replaces) the wall-clock deadline.
    pub fn set_deadline(&self, deadline: Instant) {
        *self.inner.deadline.lock().expect("deadline lock") = Some(deadline);
    }

    /// Whether the run should stop, and why.  Explicit cancellation wins
    /// over an elapsed deadline.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Some(StopReason::Cancelled);
        }
        let deadline = *self.inner.deadline.lock().expect("deadline lock");
        match deadline {
            // lint: allow(wall-clock) — deadline check: decides *whether* the job keeps
            // running, never what a completed result contains (timeouts produce no result.json).
            Some(d) if Instant::now() >= d => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A failed run.
#[derive(Debug)]
pub enum RunError {
    /// Stopped early by cancellation or deadline.
    Stopped(StopReason),
    /// Filesystem trouble in the job directory.
    Io(io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stopped(StopReason::Cancelled) => write!(f, "cancelled"),
            RunError::Stopped(StopReason::DeadlineExceeded) => write!(f, "deadline exceeded"),
            RunError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Runs the job inside `job_dir`: session-driven experiments stream
/// `rounds.jsonl`, every successful run writes `result.json`, and the
/// typed output is returned for summarising.
pub fn run_job(
    spec: &JobSpec,
    job_dir: &Path,
    token: &CancelToken,
) -> Result<ExperimentOutput, RunError> {
    fs::create_dir_all(job_dir)?;
    let output = match &spec.experiment {
        ExperimentSpec::EndToEnd {
            eight_aps,
            topologies,
            rounds,
            contention,
        } => {
            let recipe = if *eight_aps {
                PairedRecipe::eight_ap_paper()
            } else {
                PairedRecipe::three_ap_paper()
            };
            let builder = SessionBuilder::new(recipe)
                .rounds(*rounds)
                .contention(*contention)
                .seed_mix(193, 61);
            let session = apply_knobs(builder, spec).build();
            let sink = JsonlSink::create(&job_dir.join("rounds.jsonl"))?;
            let rows = session.run_trials(*topologies, spec.seed, &|trial: &SessionTrial<'_>| {
                if token.stop_reason().is_some() {
                    return None;
                }
                let (cas, das) = observe_pair(trial, &sink, token);
                Some((
                    (cas.mean_capacity(), das.mean_capacity()),
                    (
                        cas.per_client_mean_capacity(),
                        das.per_client_mean_capacity(),
                    ),
                ))
            });
            sink.finish()?;
            if let Some(reason) = token.stop_reason() {
                return Err(RunError::Stopped(reason));
            }
            // The exact assembly order of `Session::run`, which is what
            // keeps the series bit-identical to `ExperimentSpec::run`.
            let mut out = SessionSeries::default();
            for row in rows {
                let (net, clients) = row.expect("no stop reason, so every trial ran");
                out.network.cas.push(net.0);
                out.network.das.push(net.1);
                out.per_client.cas.extend(clients.0);
                out.per_client.das.extend(clients.1);
            }
            ExperimentOutput::EndToEnd(out)
        }
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies,
            rounds,
        } => {
            let env = scenario.environment();
            let builder = SessionBuilder::new(*scenario)
                .rounds(*rounds)
                .seed_mix(1021, 101);
            let session = apply_knobs(builder, spec).build();
            let sink = JsonlSink::create(&job_dir.join("rounds.jsonl"))?;
            let rows = session.run_trials(*topologies, spec.seed, &|trial: &SessionTrial<'_>| {
                if token.stop_reason().is_some() {
                    return None;
                }
                // The structural contention-degree diagnostic, exactly as
                // `experiment::enterprise_scaling` computes it.
                let graph = ContentionGraph::new(env, trial.seed() ^ 0x5151);
                let adjacency = graph.ap_adjacency_indexed(
                    &trial.pair().das,
                    env.interaction_range_m(INTERACTION_MARGIN_DB),
                );
                let degree = adjacency
                    .iter()
                    .map(|row| row.iter().filter(|&&x| x).count())
                    .sum::<usize>() as f64
                    / adjacency.len().max(1) as f64;
                let (cas, das) = observe_pair(trial, &sink, token);
                Some((
                    cas.mean_capacity(),
                    das.mean_capacity(),
                    cas.mean_streams(),
                    das.mean_streams(),
                    das.per_ap_mean_capacity(),
                    das.per_ap_duty_cycle(),
                    degree,
                ))
            });
            sink.finish()?;
            if let Some(reason) = token.stop_reason() {
                return Err(RunError::Stopped(reason));
            }
            let mut out = EnterpriseScalingSeries::default();
            for row in rows {
                let (cas, das, cas_streams, das_streams, per_ap_cap, per_ap_duty, degree) =
                    row.expect("no stop reason, so every trial ran");
                out.cas.push(cas);
                out.das.push(das);
                out.cas_streams.push(cas_streams);
                out.das_streams.push(das_streams);
                out.das_per_ap_capacity.extend(per_ap_cap);
                out.das_per_ap_duty.extend(per_ap_duty);
                out.das_contention_degree.push(degree);
            }
            ExperimentOutput::Enterprise(out)
        }
        direct => {
            // Single library call — cancellation is checked at the only
            // yield point there is.
            if let Some(reason) = token.stop_reason() {
                return Err(RunError::Stopped(reason));
            }
            direct.run(spec.seed)
        }
    };
    if let Some(reason) = token.stop_reason() {
        return Err(RunError::Stopped(reason));
    }
    write_result(job_dir, &output)?;
    Ok(output)
}

/// Applies the spec's session knobs onto a figure-pinned builder.
fn apply_knobs(builder: SessionBuilder, spec: &JobSpec) -> SessionBuilder {
    let mut builder = builder
        .traffic(spec.traffic)
        .stage_profiling(spec.stage_profiling);
    if let Some(interval) = spec.coherence_interval_rounds {
        builder = builder.coherence_interval_rounds(interval);
    }
    if let Some(threads) = spec.threads {
        builder = builder.threads(threads);
    }
    if let Some(dynamics) = spec.dynamics {
        builder = builder.dynamics(dynamics);
    }
    builder
}

/// A passive observer that asks the simulator to stop as soon as its
/// [`CancelToken`] fires — the round-granular half of job cancellation.
/// It records nothing, so teeing it alongside the result observers leaves
/// every completed run byte-identical.
struct DeadlineProbe<'a> {
    token: &'a CancelToken,
}

impl Observer for DeadlineProbe<'_> {
    fn on_round(&mut self, _record: &RoundRecord<'_>) {}

    fn stop_requested(&mut self) -> bool {
        self.token.stop_reason().is_some()
    }
}

/// Runs both MACs of one trial, teeing rounds into the JSONL sink while
/// accumulating the bit-exact [`TopologyResult`]s.  A [`DeadlineProbe`]
/// rides along so a fired token stops mid-trial, after the current round.
fn observe_pair(
    trial: &SessionTrial<'_>,
    sink: &JsonlSink,
    token: &CancelToken,
) -> (TopologyResult, TopologyResult) {
    let run = |mac: MacKind, label: &'static str| {
        let mut acc = Accumulate::new();
        let mut log = JsonlObserver::new(sink, trial.index(), label);
        let mut probe = DeadlineProbe { token };
        trial.observe(mac, &mut Tee::new(vec![&mut acc, &mut log, &mut probe]));
        acc.into_result()
    };
    let cas = run(MacKind::Cas, "cas");
    let das = run(MacKind::Midas, "midas");
    (cas, das)
}

/// Writes `result.json` atomically (tmp + rename): the compact encoding of
/// the typed output plus a trailing newline.
pub fn write_result(job_dir: &Path, output: &ExperimentOutput) -> io::Result<()> {
    let tmp = job_dir.join("result.json.tmp");
    fs::write(&tmp, result_bytes(output))?;
    fs::rename(&tmp, job_dir.join("result.json"))
}

/// The exact bytes of a `result.json` for this output — the form the cache
/// pins and the byte-identity tests compare.
pub fn result_bytes(output: &ExperimentOutput) -> String {
    encode_output(output).write_compact() + "\n"
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

fn paired_to_json(samples: &PairedSamples) -> Json {
    Json::Obj(vec![
        ("cas".into(), f64_arr(&samples.cas)),
        ("das".into(), f64_arr(&samples.das)),
    ])
}

/// Encodes a typed experiment output as `{"kind": ..., ...series}`.
pub fn encode_output(output: &ExperimentOutput) -> Json {
    let kind = |name: &str| ("kind".to_string(), Json::Str(name.into()));
    match output {
        ExperimentOutput::Paired(samples) => Json::Obj(vec![
            kind("paired"),
            ("cas".into(), f64_arr(&samples.cas)),
            ("das".into(), f64_arr(&samples.das)),
        ]),
        ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
            cas_naive,
            cas_smart,
            das_naive,
            das_smart,
        }) => Json::Obj(vec![
            kind("smart_precoding"),
            ("cas_naive".into(), f64_arr(cas_naive)),
            ("cas_smart".into(), f64_arr(cas_smart)),
            ("das_naive".into(), f64_arr(das_naive)),
            ("das_smart".into(), f64_arr(das_smart)),
        ]),
        ExperimentOutput::Ratios(ratios) => {
            Json::Obj(vec![kind("ratios"), ("ratios".into(), f64_arr(ratios))])
        }
        ExperimentOutput::Deadzones(rows) => Json::Obj(vec![
            kind("deadzones"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("cas_dead".into(), Json::UInt(row.cas_dead as u64)),
                                ("das_dead".into(), Json::UInt(row.das_dead as u64)),
                                ("total_spots".into(), Json::UInt(row.total_spots as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::HiddenTerminals(rows) => Json::Obj(vec![
            kind("hidden_terminals"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("cas_spots".into(), Json::UInt(row.cas_spots as u64)),
                                ("das_spots".into(), Json::UInt(row.das_spots as u64)),
                                ("total_spots".into(), Json::UInt(row.total_spots as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::EndToEnd(series) => Json::Obj(vec![
            kind("end_to_end"),
            ("network".into(), paired_to_json(&series.network)),
            ("per_client".into(), paired_to_json(&series.per_client)),
        ]),
        ExperimentOutput::Calibration(cells) => Json::Obj(vec![
            kind("calibration"),
            (
                "cells".into(),
                Json::Arr(cells.iter().map(calibration_cell_to_json).collect()),
            ),
        ]),
        ExperimentOutput::Enterprise(series) => Json::Obj(vec![
            kind("enterprise"),
            ("cas".into(), f64_arr(&series.cas)),
            ("das".into(), f64_arr(&series.das)),
            ("cas_streams".into(), f64_arr(&series.cas_streams)),
            ("das_streams".into(), f64_arr(&series.das_streams)),
            (
                "das_per_ap_capacity".into(),
                f64_arr(&series.das_per_ap_capacity),
            ),
            ("das_per_ap_duty".into(), f64_arr(&series.das_per_ap_duty)),
            (
                "das_contention_degree".into(),
                f64_arr(&series.das_contention_degree),
            ),
        ]),
        ExperimentOutput::LoadVsGain(rows) => Json::Obj(vec![
            kind("load_vs_gain"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("duty".into(), Json::Num(row.duty)),
                                ("cas_median".into(), Json::Num(row.cas_median)),
                                ("das_median".into(), Json::Num(row.das_median)),
                                ("gain".into(), Json::Num(row.gain)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::TagWidth(rows) => Json::Obj(vec![
            kind("tag_width"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(width, capacity)| {
                            Json::Obj(vec![
                                ("width".into(), Json::UInt(width as u64)),
                                ("mean_capacity".into(), Json::Num(capacity)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::DasRadius(rows) => Json::Obj(vec![
            kind("das_radius"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&((lo, hi), median)| {
                            Json::Obj(vec![
                                ("lo".into(), Json::Num(lo)),
                                ("hi".into(), Json::Num(hi)),
                                ("median_capacity".into(), Json::Num(median)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::AntennaWait(rows) => Json::Obj(vec![
            kind("antenna_wait"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(window_us, fraction)| {
                            Json::Obj(vec![
                                ("window_us".into(), Json::UInt(window_us)),
                                ("gain_fraction".into(), Json::Num(fraction)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn calibration_cell_to_json(cell: &CalibrationCell) -> Json {
    Json::Obj(vec![
        (
            "cs_threshold_dbm".into(),
            Json::Num(cell.config.cs_threshold_dbm),
        ),
        (
            "capture_margin_db".into(),
            Json::Num(cell.config.capture_margin_db),
        ),
        (
            "sensing_sigma_db".into(),
            match cell.config.sensing_sigma_db {
                Some(sigma) => Json::Num(sigma),
                None => Json::Null,
            },
        ),
        (
            "cas_network_median".into(),
            Json::Num(cell.cas_network_median),
        ),
        (
            "das_network_median".into(),
            Json::Num(cell.das_network_median),
        ),
        ("network_gain".into(), Json::Num(cell.network_gain)),
        (
            "cas_client_median".into(),
            Json::Num(cell.cas_client_median),
        ),
        (
            "das_client_median".into(),
            Json::Num(cell.das_client_median),
        ),
        (
            "client_median_gain".into(),
            Json::Num(cell.client_median_gain),
        ),
        ("score".into(), Json::Num(cell.score)),
    ])
}

/// A compact human summary of an output, for the CLI's post-run report:
/// `(label, value)` rows.
pub fn summarize(output: &ExperimentOutput) -> Vec<(String, f64)> {
    let median = |v: &[f64]| midas_net::metrics::Cdf::new(v).median();
    match output {
        ExperimentOutput::Paired(s) => vec![
            ("cas_median".into(), median(&s.cas)),
            ("das_median".into(), median(&s.das)),
            (
                "median_gain".into(),
                midas_net::metrics::relative_gain(median(&s.das), median(&s.cas)),
            ),
        ],
        ExperimentOutput::SmartPrecoding(s) => vec![
            ("cas_naive_median".into(), median(&s.cas_naive)),
            ("cas_smart_median".into(), median(&s.cas_smart)),
            ("das_naive_median".into(), median(&s.das_naive)),
            ("das_smart_median".into(), median(&s.das_smart)),
        ],
        ExperimentOutput::Ratios(r) => vec![("ratio_median".into(), median(r))],
        ExperimentOutput::Deadzones(rows) => vec![(
            "mean_reduction".into(),
            rows.iter().map(|r| r.reduction()).sum::<f64>() / rows.len().max(1) as f64,
        )],
        ExperimentOutput::HiddenTerminals(rows) => vec![(
            "mean_reduction".into(),
            rows.iter().map(|r| r.reduction()).sum::<f64>() / rows.len().max(1) as f64,
        )],
        ExperimentOutput::EndToEnd(s) => {
            let client_gain = midas_net::metrics::relative_gain(
                median(&s.per_client.das),
                median(&s.per_client.cas),
            );
            vec![
                ("network_cas_median".into(), median(&s.network.cas)),
                ("network_das_median".into(), median(&s.network.das)),
                ("client_cas_median".into(), median(&s.per_client.cas)),
                ("client_das_median".into(), median(&s.per_client.das)),
                ("client_median_gain".into(), client_gain),
            ]
        }
        ExperimentOutput::Calibration(cells) => {
            match midas::experiment::best_calibration_cell(cells) {
                Some(best) => vec![
                    ("best_cs_threshold_dbm".into(), best.config.cs_threshold_dbm),
                    (
                        "best_capture_margin_db".into(),
                        best.config.capture_margin_db,
                    ),
                    ("best_client_median_gain".into(), best.client_median_gain),
                    ("best_score".into(), best.score),
                ],
                None => vec![],
            }
        }
        ExperimentOutput::Enterprise(s) => vec![
            ("cas_median".into(), median(&s.cas)),
            ("das_median".into(), median(&s.das)),
            ("das_streams_median".into(), median(&s.das_streams)),
            (
                "das_contention_degree_median".into(),
                median(&s.das_contention_degree),
            ),
        ],
        ExperimentOutput::LoadVsGain(rows) => rows
            .iter()
            .map(|r| (format!("duty_{}_gain", r.duty), r.gain))
            .collect(),
        ExperimentOutput::TagWidth(rows) => rows
            .iter()
            .map(|&(w, c)| (format!("width_{w}_mean_capacity"), c))
            .collect(),
        ExperimentOutput::DasRadius(rows) => rows
            .iter()
            .map(|&((lo, hi), m)| (format!("band_{lo}_{hi}_median"), m))
            .collect(),
        ExperimentOutput::AntennaWait(rows) => rows
            .iter()
            .map(|&(w, f)| (format!("window_{w}us_gain_fraction"), f))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_reports_cancellation_then_deadline() {
        let token = CancelToken::new();
        assert_eq!(token.stop_reason(), None);
        token.set_deadline(Instant::now() - std::time::Duration::from_millis(1)); // lint: allow(wall-clock) — test constructs an already-expired deadline
        assert_eq!(token.stop_reason(), Some(StopReason::DeadlineExceeded));
        token.cancel();
        assert_eq!(token.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn result_bytes_are_a_pure_function_of_the_output() {
        let output = ExperimentOutput::Paired(PairedSamples {
            cas: vec![1.5, 2.25],
            das: vec![3.0, 4.125],
        });
        let bytes = result_bytes(&output);
        assert_eq!(
            bytes,
            "{\"kind\":\"paired\",\"cas\":[1.5,2.25],\"das\":[3.0,4.125]}\n"
        );
        assert_eq!(result_bytes(&output), bytes);
    }
}
