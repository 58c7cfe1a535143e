//! The job executor: runs one [`JobSpec`] to completion inside a job
//! directory, streaming session-driven experiments into `rounds.jsonl` and
//! writing the typed output as `result.json`.
//!
//! ## Byte identity
//!
//! `result.json` is **byte-identical** to encoding the in-process
//! [`ExperimentSpec::run`] output, because the job runs that very entry:
//! [`ExperimentSpec::run_observed`] with the spec's session knobs as its
//! `configure` hook and a tap whose observer only logs rounds and polls the
//! deadline — the recipe accumulates every result itself.  The integration
//! tests pin this equivalence.
//!
//! ## Cancellation
//!
//! Cooperative, at *round* granularity: the tap observer polls the
//! [`CancelToken`] after every round through [`Observer::stop_requested`],
//! so even a 1-trial, many-round job stops within one round of the
//! deadline, and trials that have not started by then are skipped.  The
//! direct (non-session) experiments run a single library call with no
//! interior yield points, so the token is checked before and after it.
//!
//! [`ExperimentSpec::run`]: midas::sim::ExperimentSpec::run
//! [`ExperimentSpec::run_observed`]: midas::sim::ExperimentSpec::run_observed

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
    ExperimentOutput, LoadGainRow, MacKind, Observer, PairedSamples, PhysicalConfig, RoundRecord,
    SessionBuilder, SessionSeries, StageTimings,
};
use midas_net::coverage::DeadzoneComparison;
use midas_net::hidden_terminal::HiddenTerminalComparison;

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
    if let Some(reason) = token.stop_reason() {
        return Err(RunError::Stopped(reason));
    }
    let sink = spec
        .is_session_driven()
        .then(|| JsonlSink::create(&job_dir.join("rounds.jsonl")))
        .transpose()?;
    let tap = |trial: usize, mac: MacKind| -> Box<dyn Observer + '_> {
        let sink = sink
            .as_ref()
            .expect("only session-driven runs call the tap");
        Box::new(JobTap {
            log: JsonlObserver::new(sink, trial, mac_label(mac)),
            token,
        })
    };
    let output =
        spec.experiment
            .run_observed(spec.seed, |builder| apply_knobs(builder, spec), Some(&tap));
    if let Some(sink) = sink {
        sink.finish()?;
    }
    if let Some(reason) = token.stop_reason() {
        return Err(RunError::Stopped(reason));
    }
    let output = output.expect("only a fired token stops a run");
    write_result(job_dir, &output)?;
    Ok(output)
}

fn mac_label(mac: MacKind) -> &'static str {
    match mac {
        MacKind::Cas => "cas",
        MacKind::Midas => "midas",
    }
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

/// The per-simulation tap of a job: logs every round to `rounds.jsonl` and
/// asks the simulator to stop as soon as the [`CancelToken`] fires — the
/// round-granular half of job cancellation.  It records no result, so a
/// completed run stays byte-identical.
struct JobTap<'a> {
    log: JsonlObserver<'a>,
    token: &'a CancelToken,
}

impl Observer for JobTap<'_> {
    fn on_start(&mut self, num_clients: usize, num_aps: usize, rounds: usize) {
        self.log.on_start(num_clients, num_aps, rounds);
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.log.on_round(record);
    }

    fn on_finish(&mut self, timings: &StageTimings) {
        self.log.on_finish(timings);
    }

    fn stop_requested(&mut self) -> bool {
        self.token.stop_reason().is_some()
    }
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
    let obj = |kind: &str, members: Vec<(&str, Json)>| {
        let kind = ("kind".to_string(), Json::Str(kind.into()));
        Json::Obj(
            std::iter::once(kind)
                .chain(members.into_iter().map(|(k, v)| (k.to_string(), v)))
                .collect(),
        )
    };
    fn rows<T>(kind: &str, rows: &[T], row: impl Fn(&T) -> Vec<(&str, Json)>) -> Json {
        let row = |r: &T| Json::Obj(row(r).into_iter().map(|(k, v)| (k.into(), v)).collect());
        Json::Obj(vec![
            ("kind".into(), Json::Str(kind.into())),
            ("rows".into(), Json::Arr(rows.iter().map(row).collect())),
        ])
    }
    let count = |n: usize| Json::UInt(n as u64);
    match output {
        ExperimentOutput::Paired(samples) => obj(
            "paired",
            vec![
                ("cas", f64_arr(&samples.cas)),
                ("das", f64_arr(&samples.das)),
            ],
        ),
        ExperimentOutput::SmartPrecoding(s) => obj(
            "smart_precoding",
            vec![
                ("cas_naive", f64_arr(&s.cas_naive)),
                ("cas_smart", f64_arr(&s.cas_smart)),
                ("das_naive", f64_arr(&s.das_naive)),
                ("das_smart", f64_arr(&s.das_smart)),
            ],
        ),
        ExperimentOutput::Ratios(ratios) => obj("ratios", vec![("ratios", f64_arr(ratios))]),
        ExperimentOutput::Deadzones(r) => rows("deadzones", r, |row| {
            vec![
                ("cas_dead", count(row.cas_dead)),
                ("das_dead", count(row.das_dead)),
                ("total_spots", count(row.total_spots)),
            ]
        }),
        ExperimentOutput::HiddenTerminals(r) => rows("hidden_terminals", r, |row| {
            vec![
                ("cas_spots", count(row.cas_spots)),
                ("das_spots", count(row.das_spots)),
                ("total_spots", count(row.total_spots)),
            ]
        }),
        ExperimentOutput::EndToEnd(series) => obj(
            "end_to_end",
            vec![
                ("network", paired_to_json(&series.network)),
                ("per_client", paired_to_json(&series.per_client)),
            ],
        ),
        ExperimentOutput::Calibration(cells) => obj(
            "calibration",
            vec![(
                "cells",
                Json::Arr(cells.iter().map(calibration_cell_to_json).collect()),
            )],
        ),
        ExperimentOutput::Enterprise(s) => obj(
            "enterprise",
            vec![
                ("cas", f64_arr(&s.cas)),
                ("das", f64_arr(&s.das)),
                ("cas_streams", f64_arr(&s.cas_streams)),
                ("das_streams", f64_arr(&s.das_streams)),
                ("das_per_ap_capacity", f64_arr(&s.das_per_ap_capacity)),
                ("das_per_ap_duty", f64_arr(&s.das_per_ap_duty)),
                ("das_contention_degree", f64_arr(&s.das_contention_degree)),
            ],
        ),
        ExperimentOutput::LoadVsGain(r) => rows("load_vs_gain", r, |row| {
            vec![
                ("duty", Json::Num(row.duty)),
                ("cas_median", Json::Num(row.cas_median)),
                ("das_median", Json::Num(row.das_median)),
                ("gain", Json::Num(row.gain)),
            ]
        }),
        ExperimentOutput::TagWidth(r) => rows("tag_width", r, |&(width, capacity)| {
            vec![
                ("width", count(width)),
                ("mean_capacity", Json::Num(capacity)),
            ]
        }),
        ExperimentOutput::DasRadius(r) => rows("das_radius", r, |&((lo, hi), median)| {
            vec![
                ("lo", Json::Num(lo)),
                ("hi", Json::Num(hi)),
                ("median_capacity", Json::Num(median)),
            ]
        }),
        ExperimentOutput::AntennaWait(r) => rows("antenna_wait", r, |&(window_us, fraction)| {
            vec![
                ("window_us", Json::UInt(window_us)),
                ("gain_fraction", Json::Num(fraction)),
            ]
        }),
    }
}

/// Decodes a `result.json` document back into the typed output: the
/// inverse of [`encode_output`], so `encode_output(decode_output(j))`
/// re-encodes to the same bytes.  Non-finite numbers, which the encoder
/// writes as `null`, come back as NaN.  `None` for any other shape.
pub fn decode_output(v: &Json) -> Option<ExperimentOutput> {
    let num = |v: &Json| match v {
        Json::Null => Some(f64::NAN),
        other => other.as_f64(),
    };
    let count = |v: &Json| Some(v.as_u64()? as usize);
    let floats = |v: &Json| -> Option<Vec<f64>> { v.as_arr()?.iter().map(num).collect() };
    let paired = |v: &Json| -> Option<PairedSamples> {
        Some(PairedSamples {
            cas: floats(v.get("cas")?)?,
            das: floats(v.get("das")?)?,
        })
    };
    fn rows<T>(v: &Json, row: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
        v.get("rows")?.as_arr()?.iter().map(row).collect()
    }
    Some(match v.get("kind")?.as_str()? {
        "paired" => ExperimentOutput::Paired(paired(v)?),
        "smart_precoding" => ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
            cas_naive: floats(v.get("cas_naive")?)?,
            cas_smart: floats(v.get("cas_smart")?)?,
            das_naive: floats(v.get("das_naive")?)?,
            das_smart: floats(v.get("das_smart")?)?,
        }),
        "ratios" => ExperimentOutput::Ratios(floats(v.get("ratios")?)?),
        "deadzones" => ExperimentOutput::Deadzones(rows(v, |row| {
            Some(DeadzoneComparison {
                cas_dead: count(row.get("cas_dead")?)?,
                das_dead: count(row.get("das_dead")?)?,
                total_spots: count(row.get("total_spots")?)?,
            })
        })?),
        "hidden_terminals" => ExperimentOutput::HiddenTerminals(rows(v, |row| {
            Some(HiddenTerminalComparison {
                cas_spots: count(row.get("cas_spots")?)?,
                das_spots: count(row.get("das_spots")?)?,
                total_spots: count(row.get("total_spots")?)?,
            })
        })?),
        "end_to_end" => ExperimentOutput::EndToEnd(SessionSeries {
            network: paired(v.get("network")?)?,
            per_client: paired(v.get("per_client")?)?,
        }),
        "calibration" => ExperimentOutput::Calibration(
            v.get("cells")?
                .as_arr()?
                .iter()
                .map(|cell| {
                    Some(CalibrationCell {
                        config: PhysicalConfig {
                            cs_threshold_dbm: num(cell.get("cs_threshold_dbm")?)?,
                            capture_margin_db: num(cell.get("capture_margin_db")?)?,
                            sensing_sigma_db: match cell.get("sensing_sigma_db")? {
                                Json::Null => None,
                                sigma => Some(num(sigma)?),
                            },
                        },
                        cas_network_median: num(cell.get("cas_network_median")?)?,
                        das_network_median: num(cell.get("das_network_median")?)?,
                        network_gain: num(cell.get("network_gain")?)?,
                        cas_client_median: num(cell.get("cas_client_median")?)?,
                        das_client_median: num(cell.get("das_client_median")?)?,
                        client_median_gain: num(cell.get("client_median_gain")?)?,
                        score: num(cell.get("score")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        ),
        "enterprise" => ExperimentOutput::Enterprise(EnterpriseScalingSeries {
            cas: floats(v.get("cas")?)?,
            das: floats(v.get("das")?)?,
            cas_streams: floats(v.get("cas_streams")?)?,
            das_streams: floats(v.get("das_streams")?)?,
            das_per_ap_capacity: floats(v.get("das_per_ap_capacity")?)?,
            das_per_ap_duty: floats(v.get("das_per_ap_duty")?)?,
            das_contention_degree: floats(v.get("das_contention_degree")?)?,
        }),
        "load_vs_gain" => ExperimentOutput::LoadVsGain(rows(v, |row| {
            Some(LoadGainRow {
                duty: num(row.get("duty")?)?,
                cas_median: num(row.get("cas_median")?)?,
                das_median: num(row.get("das_median")?)?,
                gain: num(row.get("gain")?)?,
            })
        })?),
        "tag_width" => ExperimentOutput::TagWidth(rows(v, |row| {
            Some((count(row.get("width")?)?, num(row.get("mean_capacity")?)?))
        })?),
        "das_radius" => ExperimentOutput::DasRadius(rows(v, |row| {
            Some((
                (num(row.get("lo")?)?, num(row.get("hi")?)?),
                num(row.get("median_capacity")?)?,
            ))
        })?),
        "antenna_wait" => ExperimentOutput::AntennaWait(rows(v, |row| {
            Some((
                row.get("window_us")?.as_u64()?,
                num(row.get("gain_fraction")?)?,
            ))
        })?),
        _ => return None,
    })
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

    #[test]
    fn decode_inverts_encode_for_every_output_kind() {
        let paired = PairedSamples {
            cas: vec![1.5, f64::NAN],
            das: vec![3.0, 4.125],
        };
        let cell = CalibrationCell {
            config: PhysicalConfig::calibrated(),
            cas_network_median: 10.0,
            das_network_median: 12.5,
            network_gain: 0.25,
            cas_client_median: 1.0,
            das_client_median: 1.75,
            client_median_gain: 0.75,
            score: 0.0,
        };
        let outputs = vec![
            ExperimentOutput::Paired(paired.clone()),
            ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
                cas_naive: vec![1.0],
                cas_smart: vec![2.0],
                das_naive: vec![3.0],
                das_smart: vec![4.0],
            }),
            ExperimentOutput::Ratios(vec![1.25, 0.5]),
            ExperimentOutput::Deadzones(vec![DeadzoneComparison {
                cas_dead: 9,
                das_dead: 2,
                total_spots: 100,
            }]),
            ExperimentOutput::HiddenTerminals(vec![HiddenTerminalComparison {
                cas_spots: 7,
                das_spots: 0,
                total_spots: 50,
            }]),
            ExperimentOutput::EndToEnd(SessionSeries {
                network: paired.clone(),
                per_client: paired,
            }),
            ExperimentOutput::Calibration(vec![
                cell,
                CalibrationCell {
                    config: PhysicalConfig {
                        sensing_sigma_db: None,
                        ..cell.config
                    },
                    ..cell
                },
            ]),
            ExperimentOutput::Enterprise(EnterpriseScalingSeries {
                cas: vec![1.0],
                das: vec![2.0],
                cas_streams: vec![3.0],
                das_streams: vec![4.0],
                das_per_ap_capacity: vec![5.0, 6.0],
                das_per_ap_duty: vec![0.5, 0.25],
                das_contention_degree: vec![1.5],
            }),
            ExperimentOutput::LoadVsGain(vec![LoadGainRow {
                duty: 0.5,
                cas_median: 8.0,
                das_median: 10.0,
                gain: 1.25,
            }]),
            ExperimentOutput::TagWidth(vec![(1, 20.5), (2, 17.25)]),
            ExperimentOutput::DasRadius(vec![((0.25, 0.5), 28.0)]),
            ExperimentOutput::AntennaWait(vec![(0, 0.0), (34, 0.625)]),
        ];
        // The result.json format of every kind, pinned: cached results
        // must keep reading back.
        let pinned = [
            r#"{"kind":"paired","cas":[1.5,null],"das":[3.0,4.125]}"#,
            r#"{"kind":"smart_precoding","cas_naive":[1.0],"cas_smart":[2.0],"das_naive":[3.0],"das_smart":[4.0]}"#,
            r#"{"kind":"ratios","ratios":[1.25,0.5]}"#,
            r#"{"kind":"deadzones","rows":[{"cas_dead":9,"das_dead":2,"total_spots":100}]}"#,
            r#"{"kind":"hidden_terminals","rows":[{"cas_spots":7,"das_spots":0,"total_spots":50}]}"#,
            r#"{"kind":"end_to_end","network":{"cas":[1.5,null],"das":[3.0,4.125]},"per_client":{"cas":[1.5,null],"das":[3.0,4.125]}}"#,
            r#"{"kind":"calibration","cells":[{"cs_threshold_dbm":-86.0,"capture_margin_db":10.0,"sensing_sigma_db":3.0,"cas_network_median":10.0,"das_network_median":12.5,"network_gain":0.25,"cas_client_median":1.0,"das_client_median":1.75,"client_median_gain":0.75,"score":0.0},{"cs_threshold_dbm":-86.0,"capture_margin_db":10.0,"sensing_sigma_db":null,"cas_network_median":10.0,"das_network_median":12.5,"network_gain":0.25,"cas_client_median":1.0,"das_client_median":1.75,"client_median_gain":0.75,"score":0.0}]}"#,
            r#"{"kind":"enterprise","cas":[1.0],"das":[2.0],"cas_streams":[3.0],"das_streams":[4.0],"das_per_ap_capacity":[5.0,6.0],"das_per_ap_duty":[0.5,0.25],"das_contention_degree":[1.5]}"#,
            r#"{"kind":"load_vs_gain","rows":[{"duty":0.5,"cas_median":8.0,"das_median":10.0,"gain":1.25}]}"#,
            r#"{"kind":"tag_width","rows":[{"width":1,"mean_capacity":20.5},{"width":2,"mean_capacity":17.25}]}"#,
            r#"{"kind":"das_radius","rows":[{"lo":0.25,"hi":0.5,"median_capacity":28.0}]}"#,
            r#"{"kind":"antenna_wait","rows":[{"window_us":0,"gain_fraction":0.0},{"window_us":34,"gain_fraction":0.625}]}"#,
        ];
        assert_eq!(outputs.len(), pinned.len());
        for (output, pin) in outputs.iter().zip(pinned) {
            let bytes = result_bytes(output);
            assert_eq!(bytes, format!("{pin}\n"));
            let decoded = decode_output(&Json::parse(&bytes).unwrap()).expect("decodes");
            assert_eq!(result_bytes(&decoded), bytes);
        }
        let unknown = Json::Obj(vec![("kind".into(), Json::Str("nope".into()))]);
        assert!(decode_output(&unknown).is_none());
    }
}
