//! The on-disk experiment spec: a JSON encoding of [`ExperimentSpec`] plus
//! the [`SessionBuilder`](midas::sim::SessionBuilder) knobs a capacity-
//! planning job may turn (traffic workload, coherence interval, dynamics,
//! worker threads, deadline).
//!
//! Decoding is strict: unknown keys, wrong types and out-of-range knobs are
//! errors, each carrying the `$.dotted.path` of the offending field.  The
//! encoding is total — [`JobSpec::to_json`] writes every field explicitly —
//! so a written spec re-reads to the identical value.
//!
//! The content address ([`JobSpec::cache_key`]) hashes only the fields that
//! affect the result bytes: experiment, seed, traffic, coherence interval
//! and (when set) dynamics.  Scheduling knobs (threads, deadline, stage
//! profiling) are excluded — the same experiment at a different worker
//! count is the same cached result, which the determinism tests guarantee.

use std::fmt;

use crate::hash::sha256_hex;
use crate::json::{Json, JsonError};
use midas::experiment::CalibrationGrid;
use midas::sim::{ContentionModel, ExperimentSpec, PhysicalConfig, TrafficKind};
use midas_channel::{EnvironmentKind, FadingEngine};
use midas_net::dynamics::{DynamicsSpec, MobilityModel, ReassociationSpec};
use midas_net::scale::{AssociationPolicy, Scenario};

/// A decode failure, locating the offending field.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Dotted path of the field (`$.experiment.contention.model`).
    pub path: String,
    /// What was wrong with it.
    pub message: String,
}

impl DecodeError {
    fn new(path: &str, message: impl Into<String>) -> Self {
        DecodeError {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Any failure turning spec text into a [`JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text was not JSON.
    Json(JsonError),
    /// The JSON did not describe a valid job.
    Decode(DecodeError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Decode(e) => write!(f, "invalid spec: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        SpecError::Decode(e)
    }
}

/// One capacity-planning job: an experiment plus the session knobs to run
/// it under.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The experiment to run.
    pub experiment: ExperimentSpec,
    /// The sweep seed (required in every spec file — reproducibility is
    /// explicit, never ambient).
    pub seed: u64,
    /// Selects nothing: [`FadingEngine`] has one variant.  Kept only because
    /// the repository benchmark (`benchmark/`) passes it to
    /// `SessionBuilder::fading_engine`; remove it together with that call.
    pub engine: FadingEngine,
    /// Downlink traffic workload (session-driven experiments only).
    pub traffic: TrafficKind,
    /// Channel coherence interval override, in TXOP rounds.
    pub coherence_interval_rounds: Option<usize>,
    /// Sweep worker override: the bound on the job's compute threads, which
    /// also runs a trial's CAS and MIDAS simulations side by side when there
    /// are at least two workers per trial (results are bit-identical at any
    /// setting).
    pub threads: Option<usize>,
    /// Per-job wall-clock deadline; an exceeded deadline cancels the job
    /// cooperatively and records `timeout`.
    pub deadline_ms: Option<u64>,
    /// Stream per-stage wall-clock into the round log.
    pub stage_profiling: bool,
    /// Long-horizon dynamics layer (session-driven experiments only):
    /// client mobility and per-round re-association.  `None` keeps the
    /// static pipeline — and the cache key — byte-identical to older specs.
    pub dynamics: Option<DynamicsSpec>,
}

impl JobSpec {
    /// A spec with the library-default knobs.
    pub fn new(experiment: ExperimentSpec, seed: u64) -> Self {
        JobSpec {
            experiment,
            seed,
            engine: FadingEngine::Counter,
            traffic: TrafficKind::FullBuffer,
            coherence_interval_rounds: None,
            threads: None,
            deadline_ms: None,
            stage_profiling: false,
            dynamics: None,
        }
    }

    /// Whether the experiment runs through the session machinery (and so
    /// accepts traffic/coherence/dynamics knobs and streams a round log).
    pub fn is_session_driven(&self) -> bool {
        self.experiment.is_session_driven()
    }

    /// Parses and validates spec text.
    pub fn from_json_str(text: &str) -> Result<JobSpec, SpecError> {
        let json = Json::parse(text)?;
        let spec = JobSpec::from_json(&json)?;
        spec.validate().map_err(SpecError::Decode)?;
        Ok(spec)
    }

    /// Decodes a parsed JSON document (structure only, plus the `engine`
    /// key's rules; see [`JobSpec::validate`] for the other cross-field
    /// rules).
    pub fn from_json(json: &Json) -> Result<JobSpec, DecodeError> {
        let path = "$";
        check_keys(
            json,
            path,
            &[
                "experiment",
                "seed",
                "engine",
                "traffic",
                "coherence_interval_rounds",
                "threads",
                "deadline_ms",
                "stage_profiling",
                "dynamics",
            ],
        )?;
        let experiment = experiment_from_json(field(json, path, "experiment")?, "$.experiment")?;
        let seed = take_u64(field(json, path, "seed")?, "$.seed")?;
        let traffic = match opt_field(json, "traffic") {
            None => TrafficKind::FullBuffer,
            Some(v) => traffic_from_json(v, "$.traffic")?,
        };
        let coherence_interval_rounds = match opt_field(json, "coherence_interval_rounds") {
            None => None,
            Some(v) => Some(take_usize(v, "$.coherence_interval_rounds")?),
        };
        let threads = match opt_field(json, "threads") {
            None => None,
            Some(v) => Some(take_usize(v, "$.threads")?),
        };
        let deadline_ms = match opt_field(json, "deadline_ms") {
            None => None,
            Some(v) => Some(take_u64(v, "$.deadline_ms")?),
        };
        let stage_profiling = match opt_field(json, "stage_profiling") {
            None => false,
            Some(v) => take_bool(v, "$.stage_profiling")?,
        };
        let dynamics = match opt_field(json, "dynamics") {
            None => None,
            Some(v) => Some(dynamics_from_json(v, "$.dynamics")?),
        };
        let spec = JobSpec {
            experiment,
            seed,
            engine: FadingEngine::Counter,
            traffic,
            coherence_interval_rounds,
            threads,
            deadline_ms,
            stage_profiling,
            dynamics,
        };
        // `engine` decodes to nothing, so its rules are checked here, where
        // the key's presence is still visible.
        if let Some(v) = opt_field(json, "engine") {
            engine_from_json(v, "$.engine")?;
            if !spec.is_session_driven() {
                return Err(DecodeError::new(
                    "$.engine",
                    format!(
                        "the fading engine only applies to session-driven experiments \
                         (end-to-end, enterprise scaling); {} runs its own fixed recipe",
                        spec.experiment.name()
                    ),
                ));
            }
        }
        Ok(spec)
    }

    /// Cross-field rules: session knobs only apply to session-driven
    /// experiments, and numeric knobs must be in range.
    pub fn validate(&self) -> Result<(), DecodeError> {
        if !self.is_session_driven() {
            if self.traffic != TrafficKind::FullBuffer {
                return Err(DecodeError::new(
                    "$.traffic",
                    format!(
                        "traffic workloads only apply to session-driven experiments; \
                         {} runs its own fixed recipe",
                        self.experiment.name()
                    ),
                ));
            }
            if self.coherence_interval_rounds.is_some() {
                return Err(DecodeError::new(
                    "$.coherence_interval_rounds",
                    format!(
                        "the coherence interval only applies to session-driven \
                         experiments; {} runs its own fixed recipe",
                        self.experiment.name()
                    ),
                ));
            }
            if self.dynamics.is_some() {
                return Err(DecodeError::new(
                    "$.dynamics",
                    format!(
                        "the dynamics layer only applies to session-driven \
                         experiments; {} runs its own fixed recipe",
                        self.experiment.name()
                    ),
                ));
            }
        }
        if let Some(dynamics) = &self.dynamics {
            if !(0.0..=1.0).contains(&dynamics.mobile_fraction) {
                return Err(DecodeError::new(
                    "$.dynamics.mobile_fraction",
                    "must be in [0, 1]",
                ));
            }
            if dynamics.period_rounds == 0 {
                return Err(DecodeError::new(
                    "$.dynamics.period_rounds",
                    "must be at least 1",
                ));
            }
            let speed = match dynamics.mobility {
                Some(MobilityModel::RandomWaypoint { speed_mps, .. })
                | Some(MobilityModel::CorridorFlow { speed_mps }) => speed_mps,
                None => 0.0,
            };
            if speed.is_nan() || speed < 0.0 {
                return Err(DecodeError::new(
                    "$.dynamics.mobility.speed_mps",
                    "must be non-negative",
                ));
            }
            if let Some(reassociation) = dynamics.reassociation {
                if reassociation.hysteresis_db.is_nan() || reassociation.hysteresis_db < 0.0 {
                    return Err(DecodeError::new(
                        "$.dynamics.reassociation.hysteresis_db",
                        "must be non-negative",
                    ));
                }
            }
        }
        if self.coherence_interval_rounds == Some(0) {
            return Err(DecodeError::new(
                "$.coherence_interval_rounds",
                "must be at least 1",
            ));
        }
        if self.threads == Some(0) {
            return Err(DecodeError::new("$.threads", "must be at least 1"));
        }
        if let TrafficKind::OnOff {
            duty,
            mean_burst_rounds,
        } = self.traffic
        {
            if !(0.0..=1.0).contains(&duty) {
                return Err(DecodeError::new("$.traffic.duty", "must be in [0, 1]"));
            }
            if mean_burst_rounds.is_nan() || mean_burst_rounds <= 0.0 {
                return Err(DecodeError::new(
                    "$.traffic.mean_burst_rounds",
                    "must be positive",
                ));
            }
        }
        if let TrafficKind::Poisson {
            mean_arrivals_per_round,
        } = self.traffic
        {
            if mean_arrivals_per_round.is_nan() || mean_arrivals_per_round < 0.0 {
                return Err(DecodeError::new(
                    "$.traffic.mean_arrivals_per_round",
                    "must be non-negative",
                ));
            }
        }
        if let TrafficKind::Diurnal {
            low_duty,
            high_duty,
            day_rounds,
            mean_burst_rounds,
        } = self.traffic
        {
            if !(0.0..=1.0).contains(&low_duty) {
                return Err(DecodeError::new("$.traffic.low_duty", "must be in [0, 1]"));
            }
            if !(0.0..=1.0).contains(&high_duty) {
                return Err(DecodeError::new("$.traffic.high_duty", "must be in [0, 1]"));
            }
            if day_rounds < 2 {
                return Err(DecodeError::new(
                    "$.traffic.day_rounds",
                    "must be at least 2",
                ));
            }
            if mean_burst_rounds.is_nan() || mean_burst_rounds <= 0.0 {
                return Err(DecodeError::new(
                    "$.traffic.mean_burst_rounds",
                    "must be positive",
                ));
            }
        }
        if let TrafficKind::FlashCrowd {
            base_duty,
            flash_every_rounds,
            flash_rounds,
        } = self.traffic
        {
            if !(0.0..=1.0).contains(&base_duty) {
                return Err(DecodeError::new("$.traffic.base_duty", "must be in [0, 1]"));
            }
            if flash_every_rounds < 2 {
                return Err(DecodeError::new(
                    "$.traffic.flash_every_rounds",
                    "must be at least 2",
                ));
            }
            if flash_rounds == 0 || flash_rounds > flash_every_rounds {
                return Err(DecodeError::new(
                    "$.traffic.flash_rounds",
                    "must be in [1, flash_every_rounds]",
                ));
            }
        }
        if let TrafficKind::Churn {
            attached_fraction,
            mean_session_rounds,
        } = self.traffic
        {
            if !(0.0..=1.0).contains(&attached_fraction) {
                return Err(DecodeError::new(
                    "$.traffic.attached_fraction",
                    "must be in [0, 1]",
                ));
            }
            if mean_session_rounds.is_nan() || mean_session_rounds < 1.0 {
                return Err(DecodeError::new(
                    "$.traffic.mean_session_rounds",
                    "must be at least 1",
                ));
            }
        }
        if let ExperimentSpec::EnterpriseScaling { scenario, .. } = &self.experiment {
            if Scenario::by_name(scenario.name(), scenario.num_aps()).as_ref() != Some(scenario) {
                return Err(DecodeError::new(
                    "$.experiment.scenario",
                    "not a library scenario",
                ));
            }
            let aps = scenario.num_aps();
            if self.dynamics.is_some() && aps > MAX_DYNAMIC_FLOOR_APS {
                return Err(DecodeError::new(
                    "$.experiment.aps",
                    format!(
                        "with dynamics, a floor of {aps} APs exceeds the \
                         {MAX_DYNAMIC_FLOOR_APS}-AP limit (every client keeps a \
                         {DENSE_ROW_BYTES} B channel row at every AP of each of \
                         {SIMULATORS_PER_TRIAL} simulators, against a \
                         {JOB_BUDGET_BYTES} B job budget)"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The full JSON encoding: every field explicit, so written specs
    /// re-read identically and the pretty form documents all the knobs.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), experiment_to_json(&self.experiment)),
            ("seed".into(), Json::UInt(self.seed)),
            ("traffic".into(), traffic_to_json(self.traffic)),
            (
                "coherence_interval_rounds".into(),
                opt_uint(self.coherence_interval_rounds.map(|n| n as u64)),
            ),
            ("threads".into(), opt_uint(self.threads.map(|n| n as u64))),
            ("deadline_ms".into(), opt_uint(self.deadline_ms)),
            ("stage_profiling".into(), Json::Bool(self.stage_profiling)),
            (
                "dynamics".into(),
                match self.dynamics {
                    Some(d) => dynamics_to_json(&d),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The canonical content-address material: the result-affecting fields
    /// only, canonically written (sorted keys, no whitespace).  One logical
    /// job, one string — scheduling knobs do not fork the cache.
    pub fn cache_key_material(&self) -> String {
        let mut members = vec![
            ("experiment".into(), experiment_to_json(&self.experiment)),
            ("seed".into(), Json::UInt(self.seed)),
            ("traffic".into(), traffic_to_json(self.traffic)),
            (
                "coherence_interval_rounds".into(),
                opt_uint(self.coherence_interval_rounds.map(|n| n as u64)),
            ),
        ];
        // Only when set, so every pre-dynamics spec keeps its pinned
        // material (and cache id) byte for byte.
        if let Some(dynamics) = self.dynamics {
            members.push(("dynamics".into(), dynamics_to_json(&dynamics)));
        }
        Json::Obj(members).write_canonical()
    }

    /// The job id: the first 16 hex chars (64 bits) of the SHA-256 of
    /// [`JobSpec::cache_key_material`].
    pub fn cache_key(&self) -> String {
        sha256_hex(self.cache_key_material().as_bytes())[..16].to_string()
    }
}

fn opt_uint(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::UInt(n),
        None => Json::Null,
    }
}

// ---------------------------------------------------------------------------
// Field helpers

fn check_keys(obj: &Json, path: &str, allowed: &[&str]) -> Result<(), DecodeError> {
    let members = obj.as_obj().ok_or_else(|| {
        DecodeError::new(
            path,
            format!("expected an object, found {}", obj.type_name()),
        )
    })?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(DecodeError::new(
                path,
                format!("unknown key {key:?} (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn field<'a>(obj: &'a Json, path: &str, key: &str) -> Result<&'a Json, DecodeError> {
    obj.get(key)
        .ok_or_else(|| DecodeError::new(path, format!("missing required key {key:?}")))
}

/// A present, non-null member.
fn opt_field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj.get(key) {
        None | Some(Json::Null) => None,
        Some(v) => Some(v),
    }
}

fn take_u64(v: &Json, path: &str) -> Result<u64, DecodeError> {
    v.as_u64().ok_or_else(|| {
        DecodeError::new(
            path,
            format!("expected an unsigned integer, found {}", v.type_name()),
        )
    })
}

fn take_usize(v: &Json, path: &str) -> Result<usize, DecodeError> {
    usize::try_from(take_u64(v, path)?).map_err(|_| DecodeError::new(path, "integer out of range"))
}

fn take_f64(v: &Json, path: &str) -> Result<f64, DecodeError> {
    v.as_f64().ok_or_else(|| {
        DecodeError::new(path, format!("expected a number, found {}", v.type_name()))
    })
}

fn take_bool(v: &Json, path: &str) -> Result<bool, DecodeError> {
    v.as_bool().ok_or_else(|| {
        DecodeError::new(path, format!("expected a boolean, found {}", v.type_name()))
    })
}

fn take_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, DecodeError> {
    v.as_str().ok_or_else(|| {
        DecodeError::new(path, format!("expected a string, found {}", v.type_name()))
    })
}

fn f64_list(v: &Json, path: &str) -> Result<Vec<f64>, DecodeError> {
    let items = v.as_arr().ok_or_else(|| {
        DecodeError::new(path, format!("expected an array, found {}", v.type_name()))
    })?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| take_f64(item, &format!("{path}[{i}]")))
        .collect()
}

fn usize_list(v: &Json, path: &str) -> Result<Vec<usize>, DecodeError> {
    let items = v.as_arr().ok_or_else(|| {
        DecodeError::new(path, format!("expected an array, found {}", v.type_name()))
    })?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| take_usize(item, &format!("{path}[{i}]")))
        .collect()
}

fn u64_list(v: &Json, path: &str) -> Result<Vec<u64>, DecodeError> {
    let items = v.as_arr().ok_or_else(|| {
        DecodeError::new(path, format!("expected an array, found {}", v.type_name()))
    })?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| take_u64(item, &format!("{path}[{i}]")))
        .collect()
}

// ---------------------------------------------------------------------------
// Leaf codecs

/// The `engine` key: `"counter"`, the only engine, is accepted as an
/// explicit default; `"legacy"` names the removed sequential engine.
fn engine_from_json(v: &Json, path: &str) -> Result<(), DecodeError> {
    match take_str(v, path)? {
        "counter" => Ok(()),
        "legacy" => Err(DecodeError::new(
            path,
            "the legacy fading engine was removed; omit \"engine\" (or write \"counter\") \
             to run the counter-keyed engine",
        )),
        other => Err(DecodeError::new(
            path,
            format!("unknown fading engine {other:?} (expected \"counter\")"),
        )),
    }
}

fn traffic_to_json(traffic: TrafficKind) -> Json {
    match traffic {
        TrafficKind::FullBuffer => {
            Json::Obj(vec![("model".into(), Json::Str("full_buffer".into()))])
        }
        TrafficKind::OnOff {
            duty,
            mean_burst_rounds,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("on_off".into())),
            ("duty".into(), Json::Num(duty)),
            ("mean_burst_rounds".into(), Json::Num(mean_burst_rounds)),
        ]),
        TrafficKind::Poisson {
            mean_arrivals_per_round,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("poisson".into())),
            (
                "mean_arrivals_per_round".into(),
                Json::Num(mean_arrivals_per_round),
            ),
        ]),
        TrafficKind::Diurnal {
            low_duty,
            high_duty,
            day_rounds,
            mean_burst_rounds,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("diurnal".into())),
            ("low_duty".into(), Json::Num(low_duty)),
            ("high_duty".into(), Json::Num(high_duty)),
            ("day_rounds".into(), Json::UInt(day_rounds as u64)),
            ("mean_burst_rounds".into(), Json::Num(mean_burst_rounds)),
        ]),
        TrafficKind::FlashCrowd {
            base_duty,
            flash_every_rounds,
            flash_rounds,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("flash_crowd".into())),
            ("base_duty".into(), Json::Num(base_duty)),
            (
                "flash_every_rounds".into(),
                Json::UInt(flash_every_rounds as u64),
            ),
            ("flash_rounds".into(), Json::UInt(flash_rounds as u64)),
        ]),
        TrafficKind::Churn {
            attached_fraction,
            mean_session_rounds,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("churn".into())),
            ("attached_fraction".into(), Json::Num(attached_fraction)),
            ("mean_session_rounds".into(), Json::Num(mean_session_rounds)),
        ]),
    }
}

fn traffic_from_json(v: &Json, path: &str) -> Result<TrafficKind, DecodeError> {
    let model_path = format!("{path}.model");
    match take_str(field(v, path, "model")?, &model_path)? {
        "full_buffer" => {
            check_keys(v, path, &["model"])?;
            Ok(TrafficKind::FullBuffer)
        }
        "on_off" => {
            check_keys(v, path, &["model", "duty", "mean_burst_rounds"])?;
            Ok(TrafficKind::OnOff {
                duty: take_f64(field(v, path, "duty")?, &format!("{path}.duty"))?,
                mean_burst_rounds: take_f64(
                    field(v, path, "mean_burst_rounds")?,
                    &format!("{path}.mean_burst_rounds"),
                )?,
            })
        }
        "poisson" => {
            check_keys(v, path, &["model", "mean_arrivals_per_round"])?;
            Ok(TrafficKind::Poisson {
                mean_arrivals_per_round: take_f64(
                    field(v, path, "mean_arrivals_per_round")?,
                    &format!("{path}.mean_arrivals_per_round"),
                )?,
            })
        }
        "diurnal" => {
            check_keys(
                v,
                path,
                &[
                    "model",
                    "low_duty",
                    "high_duty",
                    "day_rounds",
                    "mean_burst_rounds",
                ],
            )?;
            Ok(TrafficKind::Diurnal {
                low_duty: take_f64(field(v, path, "low_duty")?, &format!("{path}.low_duty"))?,
                high_duty: take_f64(field(v, path, "high_duty")?, &format!("{path}.high_duty"))?,
                day_rounds: take_usize(
                    field(v, path, "day_rounds")?,
                    &format!("{path}.day_rounds"),
                )?,
                mean_burst_rounds: take_f64(
                    field(v, path, "mean_burst_rounds")?,
                    &format!("{path}.mean_burst_rounds"),
                )?,
            })
        }
        "flash_crowd" => {
            check_keys(
                v,
                path,
                &["model", "base_duty", "flash_every_rounds", "flash_rounds"],
            )?;
            Ok(TrafficKind::FlashCrowd {
                base_duty: take_f64(field(v, path, "base_duty")?, &format!("{path}.base_duty"))?,
                flash_every_rounds: take_usize(
                    field(v, path, "flash_every_rounds")?,
                    &format!("{path}.flash_every_rounds"),
                )?,
                flash_rounds: take_usize(
                    field(v, path, "flash_rounds")?,
                    &format!("{path}.flash_rounds"),
                )?,
            })
        }
        "churn" => {
            check_keys(
                v,
                path,
                &["model", "attached_fraction", "mean_session_rounds"],
            )?;
            Ok(TrafficKind::Churn {
                attached_fraction: take_f64(
                    field(v, path, "attached_fraction")?,
                    &format!("{path}.attached_fraction"),
                )?,
                mean_session_rounds: take_f64(
                    field(v, path, "mean_session_rounds")?,
                    &format!("{path}.mean_session_rounds"),
                )?,
            })
        }
        other => Err(DecodeError::new(
            &model_path,
            format!(
                "unknown traffic model {other:?} (expected \"full_buffer\", \"on_off\", \
                 \"poisson\", \"diurnal\", \"flash_crowd\" or \"churn\")"
            ),
        )),
    }
}

fn environment_to_json(kind: EnvironmentKind) -> Json {
    Json::Str(
        match kind {
            EnvironmentKind::OfficeA => "office_a",
            EnvironmentKind::OfficeB => "office_b",
            EnvironmentKind::OpenPlan => "open_plan",
        }
        .into(),
    )
}

fn environment_from_json(v: &Json, path: &str) -> Result<EnvironmentKind, DecodeError> {
    match take_str(v, path)? {
        "office_a" => Ok(EnvironmentKind::OfficeA),
        "office_b" => Ok(EnvironmentKind::OfficeB),
        "open_plan" => Ok(EnvironmentKind::OpenPlan),
        other => Err(DecodeError::new(
            path,
            format!(
                "unknown environment {other:?} (expected \"office_a\", \"office_b\" or \
                 \"open_plan\")"
            ),
        )),
    }
}

fn contention_to_json(model: ContentionModel) -> Json {
    match model {
        ContentionModel::Graph => Json::Obj(vec![("model".into(), Json::Str("graph".into()))]),
        ContentionModel::Physical(config) => Json::Obj(vec![
            ("model".into(), Json::Str("physical".into())),
            (
                "cs_threshold_dbm".into(),
                Json::Num(config.cs_threshold_dbm),
            ),
            (
                "capture_margin_db".into(),
                Json::Num(config.capture_margin_db),
            ),
            (
                "sensing_sigma_db".into(),
                match config.sensing_sigma_db {
                    Some(sigma) => Json::Num(sigma),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

fn contention_from_json(v: &Json, path: &str) -> Result<ContentionModel, DecodeError> {
    let model_path = format!("{path}.model");
    match take_str(field(v, path, "model")?, &model_path)? {
        "graph" => {
            check_keys(v, path, &["model"])?;
            Ok(ContentionModel::Graph)
        }
        "physical" => {
            check_keys(
                v,
                path,
                &[
                    "model",
                    "cs_threshold_dbm",
                    "capture_margin_db",
                    "sensing_sigma_db",
                ],
            )?;
            Ok(ContentionModel::Physical(PhysicalConfig {
                cs_threshold_dbm: take_f64(
                    field(v, path, "cs_threshold_dbm")?,
                    &format!("{path}.cs_threshold_dbm"),
                )?,
                capture_margin_db: take_f64(
                    field(v, path, "capture_margin_db")?,
                    &format!("{path}.capture_margin_db"),
                )?,
                sensing_sigma_db: match opt_field(v, "sensing_sigma_db") {
                    None => None,
                    Some(sigma) => Some(take_f64(sigma, &format!("{path}.sensing_sigma_db"))?),
                },
            }))
        }
        other => Err(DecodeError::new(
            &model_path,
            format!("unknown contention model {other:?} (expected \"graph\" or \"physical\")"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Dynamics codec

/// Encodes a dynamics layer as
/// `{"mobility": ..., "mobile_fraction": ..., "reassociation": ...,
/// "period_rounds": ...}` with `null` for absent sub-layers.
pub fn dynamics_to_json(spec: &DynamicsSpec) -> Json {
    let mobility = match spec.mobility {
        None => Json::Null,
        Some(MobilityModel::RandomWaypoint {
            speed_mps,
            pause_rounds,
        }) => Json::Obj(vec![
            ("model".into(), Json::Str("random_waypoint".into())),
            ("speed_mps".into(), Json::Num(speed_mps)),
            ("pause_rounds".into(), Json::UInt(pause_rounds as u64)),
        ]),
        Some(MobilityModel::CorridorFlow { speed_mps }) => Json::Obj(vec![
            ("model".into(), Json::Str("corridor_flow".into())),
            ("speed_mps".into(), Json::Num(speed_mps)),
        ]),
    };
    let reassociation = match spec.reassociation {
        None => Json::Null,
        Some(ReassociationSpec {
            policy,
            hysteresis_db,
        }) => {
            let mut members = vec![(
                "policy".to_string(),
                Json::Str(
                    match policy {
                        AssociationPolicy::NearestAp => "nearest_ap",
                        AssociationPolicy::AntennaAware => "antenna_aware",
                        AssociationPolicy::LoadBalanced { .. } => "load_balanced",
                    }
                    .into(),
                ),
            )];
            if let AssociationPolicy::LoadBalanced { hysteresis_db } = policy {
                members.push(("load_hysteresis_db".into(), Json::Num(hysteresis_db)));
            }
            members.push(("hysteresis_db".into(), Json::Num(hysteresis_db)));
            Json::Obj(members)
        }
    };
    Json::Obj(vec![
        ("mobility".into(), mobility),
        ("mobile_fraction".into(), Json::Num(spec.mobile_fraction)),
        ("reassociation".into(), reassociation),
        (
            "period_rounds".into(),
            Json::UInt(spec.period_rounds as u64),
        ),
    ])
}

/// Decodes the [`dynamics_to_json`] form back into a [`DynamicsSpec`].
pub fn dynamics_from_json(v: &Json, path: &str) -> Result<DynamicsSpec, DecodeError> {
    check_keys(
        v,
        path,
        &[
            "mobility",
            "mobile_fraction",
            "reassociation",
            "period_rounds",
        ],
    )?;
    let mobility = match opt_field(v, "mobility") {
        None => None,
        Some(m) => {
            let mobility_path = format!("{path}.mobility");
            let model_path = format!("{mobility_path}.model");
            let speed_path = format!("{mobility_path}.speed_mps");
            Some(
                match take_str(field(m, &mobility_path, "model")?, &model_path)? {
                    "random_waypoint" => {
                        check_keys(m, &mobility_path, &["model", "speed_mps", "pause_rounds"])?;
                        MobilityModel::RandomWaypoint {
                            speed_mps: take_f64(
                                field(m, &mobility_path, "speed_mps")?,
                                &speed_path,
                            )?,
                            pause_rounds: take_usize(
                                field(m, &mobility_path, "pause_rounds")?,
                                &format!("{mobility_path}.pause_rounds"),
                            )?,
                        }
                    }
                    "corridor_flow" => {
                        check_keys(m, &mobility_path, &["model", "speed_mps"])?;
                        MobilityModel::CorridorFlow {
                            speed_mps: take_f64(
                                field(m, &mobility_path, "speed_mps")?,
                                &speed_path,
                            )?,
                        }
                    }
                    other => {
                        return Err(DecodeError::new(
                            &model_path,
                            format!(
                                "unknown mobility model {other:?} (expected \
                                 \"random_waypoint\" or \"corridor_flow\")"
                            ),
                        ))
                    }
                },
            )
        }
    };
    let mobile_fraction = match opt_field(v, "mobile_fraction") {
        None => 1.0,
        Some(f) => take_f64(f, &format!("{path}.mobile_fraction"))?,
    };
    let reassociation = match opt_field(v, "reassociation") {
        None => None,
        Some(r) => {
            let reassoc_path = format!("{path}.reassociation");
            let policy_path = format!("{reassoc_path}.policy");
            let policy = match take_str(field(r, &reassoc_path, "policy")?, &policy_path)? {
                "nearest_ap" => {
                    check_keys(r, &reassoc_path, &["policy", "hysteresis_db"])?;
                    AssociationPolicy::NearestAp
                }
                "antenna_aware" => {
                    check_keys(r, &reassoc_path, &["policy", "hysteresis_db"])?;
                    AssociationPolicy::AntennaAware
                }
                "load_balanced" => {
                    check_keys(
                        r,
                        &reassoc_path,
                        &["policy", "load_hysteresis_db", "hysteresis_db"],
                    )?;
                    AssociationPolicy::LoadBalanced {
                        hysteresis_db: take_f64(
                            field(r, &reassoc_path, "load_hysteresis_db")?,
                            &format!("{reassoc_path}.load_hysteresis_db"),
                        )?,
                    }
                }
                other => {
                    return Err(DecodeError::new(
                        &policy_path,
                        format!(
                            "unknown association policy {other:?} (expected \"nearest_ap\", \
                             \"antenna_aware\" or \"load_balanced\")"
                        ),
                    ))
                }
            };
            Some(ReassociationSpec {
                policy,
                hysteresis_db: take_f64(
                    field(r, &reassoc_path, "hysteresis_db")?,
                    &format!("{reassoc_path}.hysteresis_db"),
                )?,
            })
        }
    };
    let period_rounds = match opt_field(v, "period_rounds") {
        None => 1,
        Some(p) => take_usize(p, &format!("{path}.period_rounds"))?,
    };
    Ok(DynamicsSpec {
        mobility,
        mobile_fraction,
        reassociation,
        period_rounds,
    })
}

// ---------------------------------------------------------------------------
// Experiment codec

/// Encodes an experiment as `{"kind": <figure slug>, ...fields}` — the slug
/// is [`ExperimentSpec::name`], the fields mirror the variant.
pub fn experiment_to_json(spec: &ExperimentSpec) -> Json {
    let mut members = vec![("kind".to_string(), Json::Str(spec.name().into()))];
    let mut push = |key: &str, value: Json| members.push((key.to_string(), value));
    match spec {
        ExperimentSpec::NaiveScalingDrop { topologies }
        | ExperimentSpec::LinkSnr { topologies }
        | ExperimentSpec::SmartPrecoding { topologies }
        | ExperimentSpec::SimultaneousTx { topologies }
        | ExperimentSpec::PacketTagging { topologies } => {
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::MuMimoCapacity {
            environment,
            antennas,
            topologies,
        } => {
            push("environment", environment_to_json(*environment));
            push("antennas", Json::UInt(*antennas as u64));
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::OptimalComparison {
            topologies,
            stale_csi,
        } => {
            push("topologies", Json::UInt(*topologies as u64));
            push("stale_csi", Json::Bool(*stale_csi));
        }
        ExperimentSpec::Deadzones { deployments }
        | ExperimentSpec::HiddenTerminals { deployments } => {
            push("deployments", Json::UInt(*deployments as u64));
        }
        ExperimentSpec::EndToEnd {
            // The slug already distinguishes the layouts (fig15 vs fig16).
            eight_aps: _,
            topologies,
            rounds,
            contention,
        } => {
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
            push("contention", contention_to_json(*contention));
        }
        ExperimentSpec::Fig16Calibration {
            grid,
            topologies,
            rounds,
        } => {
            push(
                "cs_thresholds_dbm",
                Json::Arr(
                    grid.cs_thresholds_dbm
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push(
                "capture_margins_db",
                Json::Arr(
                    grid.capture_margins_db
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push(
                "sensing_sigmas_db",
                Json::Arr(
                    grid.sensing_sigmas_db
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
        }
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies,
            rounds,
        } => {
            push("scenario", Json::Str(scenario.name().into()));
            push("aps", Json::UInt(scenario.num_aps() as u64));
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
        }
        ExperimentSpec::LoadVsGain {
            duty_cycles,
            topologies,
            rounds,
            speed_mps,
        } => {
            push(
                "duty_cycles",
                Json::Arr(duty_cycles.iter().map(|&d| Json::Num(d)).collect()),
            );
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
            push("speed_mps", Json::Num(*speed_mps));
        }
        ExperimentSpec::TagWidth { widths, topologies } => {
            push(
                "widths",
                Json::Arr(widths.iter().map(|&w| Json::UInt(w as u64)).collect()),
            );
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::DasRadius {
            fractions,
            topologies,
        } => {
            push(
                "fractions",
                Json::Arr(
                    fractions
                        .iter()
                        .map(|&(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
                        .collect(),
                ),
            );
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::AntennaWait { windows_us, trials } => {
            push(
                "windows_us",
                Json::Arr(windows_us.iter().map(|&w| Json::UInt(w)).collect()),
            );
            push("trials", Json::UInt(*trials as u64));
        }
    }
    Json::Obj(members)
}

/// Peak resident bytes per AP of a static floor, in the worst case: a
/// trial's CAS and MIDAS simulators both live (they run side by side when
/// the sweep has two workers per trial) with nearly every held channel row
/// drawn.  `midas run` on the 1024-AP / 8192-client `enterprise_office`
/// floor at two threads peaks at 61,804 KiB after 400 rounds (60,996 KiB
/// after 100), i.e. 61,804 B per AP.  Rows are stored only once drawn, so a
/// short run peaks far lower (the 10-round `metro_1024ap` benchmark job at
/// ≈ 37.9 MiB), but the cap must hold for any round count.  A static
/// floor's memory grows linearly with its APs, because each AP keeps only
/// the channel rows of the clients in its radio range.
const BYTES_PER_AP: usize = 61_804;

/// Memory budget of one job.
const JOB_BUDGET_BYTES: usize = 1 << 30;

/// Largest floor an `enterprise_scaling` spec may ask for: the job budget
/// over the bytes per AP, 2^30 B ÷ 61,804 B = 17,373 APs.  Larger floors are
/// refused at decode, before anything is allocated for them.
const MAX_FLOOR_APS: usize = JOB_BUDGET_BYTES / BYTES_PER_AP;

/// Clients per AP on every library scenario floor.
const CLIENTS_PER_AP: usize = 8;

/// Simulators of one trial that may be live at once: its CAS and MIDAS
/// simulations run side by side when the sweep has two workers per trial.
const SIMULATORS_PER_TRIAL: usize = 2;

/// Bytes of one held channel row when dynamics make rows dense, at the
/// scenarios' 4 antennas, once the row is drawn: a 4 B client id, a 4 B
/// storage slot and 2 B of fading checkpoint (32 B per 16 rows) for every
/// held row, plus a 64 B composite-gain row, a 32 B large-scale row, an
/// 8 B evolution bookmark and an 8 B position version for a drawn one.
/// Only the rows a run reads are drawn, but a long mobile run can read
/// every one, so the dynamics cap assumes all are.
const DENSE_ROW_BYTES: usize = 122;

/// Resident bytes of an `aps`-AP floor with dynamics: every one of the
/// `8·aps` clients has a row at every AP in each of the trial's two
/// simulators, so `2·8·aps²` dense rows, on top of the static floor's
/// bytes per AP.
const fn dynamic_floor_bytes(aps: usize) -> usize {
    SIMULATORS_PER_TRIAL * CLIENTS_PER_AP * aps * aps * DENSE_ROW_BYTES + aps * BYTES_PER_AP
}

/// Largest floor an `enterprise_scaling` spec with dynamics may ask for:
/// the largest `aps` with `2·8·aps²·122 B + 61,804 B·aps ≤ 2^30 B`, i.e.
/// 726 APs (1,073,722,056 B; 727 APs would need 1,076,620,116 B).  The
/// rows are quadratic in APs, so this is far below the static cap.
const MAX_DYNAMIC_FLOOR_APS: usize = {
    let mut aps = 0;
    while dynamic_floor_bytes(aps + 1) <= JOB_BUDGET_BYTES {
        aps += 1;
    }
    aps
};

/// Decodes `{"kind": ..., ...}` back into an [`ExperimentSpec`].
pub fn experiment_from_json(v: &Json, path: &str) -> Result<ExperimentSpec, DecodeError> {
    let kind_path = format!("{path}.kind");
    let kind = take_str(field(v, path, "kind")?, &kind_path)?.to_string();
    let req_usize = |key: &str| take_usize(field(v, path, key)?, &format!("{path}.{key}"));
    let spec = match kind.as_str() {
        "fig03_naive_scaling_drop" => {
            check_keys(v, path, &["kind", "topologies"])?;
            ExperimentSpec::NaiveScalingDrop {
                topologies: req_usize("topologies")?,
            }
        }
        "fig07_link_snr" => {
            check_keys(v, path, &["kind", "topologies"])?;
            ExperimentSpec::LinkSnr {
                topologies: req_usize("topologies")?,
            }
        }
        "fig08_09_capacity" => {
            check_keys(v, path, &["kind", "environment", "antennas", "topologies"])?;
            ExperimentSpec::MuMimoCapacity {
                environment: environment_from_json(
                    field(v, path, "environment")?,
                    &format!("{path}.environment"),
                )?,
                antennas: req_usize("antennas")?,
                topologies: req_usize("topologies")?,
            }
        }
        "fig10_smart_precoding" => {
            check_keys(v, path, &["kind", "topologies"])?;
            ExperimentSpec::SmartPrecoding {
                topologies: req_usize("topologies")?,
            }
        }
        "fig11_optimal_comparison" => {
            check_keys(v, path, &["kind", "topologies", "stale_csi"])?;
            ExperimentSpec::OptimalComparison {
                topologies: req_usize("topologies")?,
                stale_csi: take_bool(field(v, path, "stale_csi")?, &format!("{path}.stale_csi"))?,
            }
        }
        "fig12_simultaneous_tx" => {
            check_keys(v, path, &["kind", "topologies"])?;
            ExperimentSpec::SimultaneousTx {
                topologies: req_usize("topologies")?,
            }
        }
        "fig13_deadzone" => {
            check_keys(v, path, &["kind", "deployments"])?;
            ExperimentSpec::Deadzones {
                deployments: req_usize("deployments")?,
            }
        }
        "sec534_hidden_terminals" => {
            check_keys(v, path, &["kind", "deployments"])?;
            ExperimentSpec::HiddenTerminals {
                deployments: req_usize("deployments")?,
            }
        }
        "fig14_packet_tagging" => {
            check_keys(v, path, &["kind", "topologies"])?;
            ExperimentSpec::PacketTagging {
                topologies: req_usize("topologies")?,
            }
        }
        "fig15_three_ap_end_to_end" | "fig16_eight_ap_simulation" => {
            check_keys(v, path, &["kind", "topologies", "rounds", "contention"])?;
            ExperimentSpec::EndToEnd {
                eight_aps: kind == "fig16_eight_ap_simulation",
                topologies: req_usize("topologies")?,
                rounds: req_usize("rounds")?,
                contention: contention_from_json(
                    field(v, path, "contention")?,
                    &format!("{path}.contention"),
                )?,
            }
        }
        "fig16_calibration" => {
            check_keys(
                v,
                path,
                &[
                    "kind",
                    "cs_thresholds_dbm",
                    "capture_margins_db",
                    "sensing_sigmas_db",
                    "topologies",
                    "rounds",
                ],
            )?;
            ExperimentSpec::Fig16Calibration {
                grid: CalibrationGrid {
                    cs_thresholds_dbm: f64_list(
                        field(v, path, "cs_thresholds_dbm")?,
                        &format!("{path}.cs_thresholds_dbm"),
                    )?,
                    capture_margins_db: f64_list(
                        field(v, path, "capture_margins_db")?,
                        &format!("{path}.capture_margins_db"),
                    )?,
                    sensing_sigmas_db: f64_list(
                        field(v, path, "sensing_sigmas_db")?,
                        &format!("{path}.sensing_sigmas_db"),
                    )?,
                },
                topologies: req_usize("topologies")?,
                rounds: req_usize("rounds")?,
            }
        }
        "enterprise_scaling" => {
            check_keys(
                v,
                path,
                &["kind", "scenario", "aps", "topologies", "rounds"],
            )?;
            let scenario_path = format!("{path}.scenario");
            let name = take_str(field(v, path, "scenario")?, &scenario_path)?;
            let aps = req_usize("aps")?;
            if aps > MAX_FLOOR_APS {
                return Err(DecodeError::new(
                    &format!("{path}.aps"),
                    format!(
                        "a floor of {aps} APs exceeds the {MAX_FLOOR_APS}-AP limit \
                         ({BYTES_PER_AP} B per AP against a {JOB_BUDGET_BYTES} B job budget)"
                    ),
                ));
            }
            let scenario = Scenario::by_name(name, aps).ok_or_else(|| {
                DecodeError::new(
                    &scenario_path,
                    format!(
                        "unknown scenario {name:?} (expected \"enterprise_office\", \
                         \"auditorium\" or \"dense_apartment\")"
                    ),
                )
            })?;
            ExperimentSpec::EnterpriseScaling {
                scenario,
                topologies: req_usize("topologies")?,
                rounds: req_usize("rounds")?,
            }
        }
        "load_vs_gain" => {
            check_keys(
                v,
                path,
                &["kind", "duty_cycles", "topologies", "rounds", "speed_mps"],
            )?;
            ExperimentSpec::LoadVsGain {
                duty_cycles: f64_list(
                    field(v, path, "duty_cycles")?,
                    &format!("{path}.duty_cycles"),
                )?,
                topologies: req_usize("topologies")?,
                rounds: req_usize("rounds")?,
                speed_mps: take_f64(field(v, path, "speed_mps")?, &format!("{path}.speed_mps"))?,
            }
        }
        "ablation_tag_width" => {
            check_keys(v, path, &["kind", "widths", "topologies"])?;
            ExperimentSpec::TagWidth {
                widths: usize_list(field(v, path, "widths")?, &format!("{path}.widths"))?,
                topologies: req_usize("topologies")?,
            }
        }
        "ablation_das_radius" => {
            check_keys(v, path, &["kind", "fractions", "topologies"])?;
            let fractions_path = format!("{path}.fractions");
            let items = field(v, path, "fractions")?.as_arr().ok_or_else(|| {
                DecodeError::new(&fractions_path, "expected an array of [lo, hi] pairs")
            })?;
            let mut fractions = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let pair_path = format!("{fractions_path}[{i}]");
                let pair = item
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| DecodeError::new(&pair_path, "expected a [lo, hi] pair"))?;
                fractions.push((
                    take_f64(&pair[0], &format!("{pair_path}[0]"))?,
                    take_f64(&pair[1], &format!("{pair_path}[1]"))?,
                ));
            }
            ExperimentSpec::DasRadius {
                fractions,
                topologies: req_usize("topologies")?,
            }
        }
        "ablation_antenna_wait" => {
            check_keys(v, path, &["kind", "windows_us", "trials"])?;
            ExperimentSpec::AntennaWait {
                windows_us: u64_list(field(v, path, "windows_us")?, &format!("{path}.windows_us"))?,
                trials: req_usize("trials")?,
            }
        }
        other => {
            return Err(DecodeError::new(
                &kind_path,
                format!("unknown experiment kind {other:?}"),
            ))
        }
    };
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig16_spec() -> JobSpec {
        JobSpec::new(ExperimentSpec::fig16(ContentionModel::Graph), 73125)
    }

    /// Every experiment variant survives the JSON round trip.
    #[test]
    fn experiments_round_trip_through_json() {
        let specs = vec![
            ExperimentSpec::fig03(),
            ExperimentSpec::fig07(),
            ExperimentSpec::fig08_09(EnvironmentKind::OfficeB, 8),
            ExperimentSpec::fig10(),
            ExperimentSpec::fig11(true),
            ExperimentSpec::fig12(),
            ExperimentSpec::fig13(),
            ExperimentSpec::sec534(),
            ExperimentSpec::fig14(),
            ExperimentSpec::fig15(),
            ExperimentSpec::fig16(ContentionModel::physical_calibrated()),
            ExperimentSpec::EndToEnd {
                eight_aps: true,
                topologies: 2,
                rounds: 3,
                contention: ContentionModel::Physical(PhysicalConfig {
                    cs_threshold_dbm: -82.0,
                    capture_margin_db: 6.0,
                    sensing_sigma_db: None,
                }),
            },
            ExperimentSpec::Fig16Calibration {
                grid: CalibrationGrid::default(),
                topologies: 2,
                rounds: 5,
            },
            ExperimentSpec::EnterpriseScaling {
                scenario: Scenario::enterprise_office(64),
                topologies: 3,
                rounds: 10,
            },
            ExperimentSpec::LoadVsGain {
                duty_cycles: vec![0.1, 0.5, 1.0],
                topologies: 4,
                rounds: 12,
                speed_mps: 1.2,
            },
            ExperimentSpec::TagWidth {
                widths: vec![1, 2, 4],
                topologies: 60,
            },
            ExperimentSpec::DasRadius {
                fractions: vec![(0.25, 0.5), (0.5, 0.75)],
                topologies: 60,
            },
            ExperimentSpec::AntennaWait {
                windows_us: vec![0, 10, 20],
                trials: 100,
            },
        ];
        for spec in specs {
            let json = experiment_to_json(&spec);
            let back = experiment_from_json(&json, "$")
                .unwrap_or_else(|e| panic!("decode failed for {}: {e}", json.write_compact()));
            assert_eq!(back, spec, "round trip changed {}", json.write_compact());
            // And the re-encoding is a fixed point (stable bytes).
            assert_eq!(experiment_to_json(&back), json);
        }
    }

    #[test]
    fn job_spec_round_trips_with_all_knobs() {
        let mut spec = JobSpec::new(ExperimentSpec::fig16(ContentionModel::Graph), 99);
        spec.traffic = TrafficKind::OnOff {
            duty: 0.3,
            mean_burst_rounds: 4.0,
        };
        spec.coherence_interval_rounds = Some(4);
        spec.threads = Some(8);
        spec.deadline_ms = Some(60_000);
        spec.stage_profiling = true;
        let text = spec.to_json().write_pretty();
        let back = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn dynamic_traffic_models_round_trip_through_json() {
        for traffic in [
            TrafficKind::Diurnal {
                low_duty: 0.1,
                high_duty: 0.9,
                day_rounds: 200,
                mean_burst_rounds: 4.0,
            },
            TrafficKind::FlashCrowd {
                base_duty: 0.2,
                flash_every_rounds: 50,
                flash_rounds: 5,
            },
            TrafficKind::Churn {
                attached_fraction: 0.7,
                mean_session_rounds: 30.0,
            },
        ] {
            let mut spec = JobSpec::new(ExperimentSpec::fig15(), 3);
            spec.traffic = traffic;
            let back = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn dynamics_knob_round_trips_and_forks_the_cache_key_only_when_set() {
        let mut spec = JobSpec::new(ExperimentSpec::fig15(), 5);
        // Absent dynamics must leave the pre-dynamics material untouched —
        // the key "dynamics" may not even appear.
        assert!(!spec.cache_key_material().contains("dynamics"));
        let static_key = spec.cache_key();

        spec.dynamics = Some(DynamicsSpec {
            mobility: Some(MobilityModel::RandomWaypoint {
                speed_mps: 1.2,
                pause_rounds: 3,
            }),
            mobile_fraction: 0.5,
            reassociation: Some(ReassociationSpec {
                policy: AssociationPolicy::LoadBalanced { hysteresis_db: 6.0 },
                hysteresis_db: 3.0,
            }),
            period_rounds: 2,
        });
        let back = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap();
        assert_eq!(back, spec);
        assert_ne!(spec.cache_key(), static_key, "dynamics must fork the key");

        // Corridor flow + simple policies round-trip too.
        spec.dynamics = Some(DynamicsSpec {
            mobility: Some(MobilityModel::CorridorFlow { speed_mps: 0.8 }),
            mobile_fraction: 1.0,
            reassociation: Some(ReassociationSpec {
                policy: AssociationPolicy::AntennaAware,
                hysteresis_db: 3.0,
            }),
            period_rounds: 1,
        });
        let back = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn dynamics_on_a_non_session_experiment_is_rejected() {
        let mut spec = JobSpec::new(ExperimentSpec::fig07(), 1);
        spec.dynamics = Some(DynamicsSpec::roaming_walk(1.0));
        let err = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap_err();
        assert!(err.to_string().contains("$.dynamics"), "{err}");
    }

    #[test]
    fn defaults_apply_when_knobs_are_omitted() {
        let text = r#"{
            "experiment": {"kind": "fig07_link_snr", "topologies": 60},
            "seed": 73125
        }"#;
        let spec = JobSpec::from_json_str(text).unwrap();
        assert_eq!(spec.traffic, TrafficKind::FullBuffer);
        assert_eq!(spec.coherence_interval_rounds, None);
        assert!(!spec.stage_profiling);
    }

    /// The cache-key material is a pinned golden: if these bytes drift, the
    /// whole on-disk cache silently invalidates, so any change here must be
    /// deliberate.  It is the one canonical encoding of a spec, so every
    /// experiment variant is pinned.
    #[test]
    fn cache_key_material_is_pinned() {
        let pinned: Vec<(ExperimentSpec, &str)> = vec![
            (
                ExperimentSpec::fig03(),
                r#"{"kind":"fig03_naive_scaling_drop","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig07(),
                r#"{"kind":"fig07_link_snr","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig08_09(EnvironmentKind::OfficeA, 4),
                r#"{"antennas":4,"environment":"office_a","kind":"fig08_09_capacity","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig08_09(EnvironmentKind::OfficeB, 8),
                r#"{"antennas":8,"environment":"office_b","kind":"fig08_09_capacity","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig10(),
                r#"{"kind":"fig10_smart_precoding","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig11(true),
                r#"{"kind":"fig11_optimal_comparison","stale_csi":true,"topologies":20}"#,
            ),
            (
                ExperimentSpec::fig12(),
                r#"{"kind":"fig12_simultaneous_tx","topologies":30}"#,
            ),
            (
                ExperimentSpec::fig13(),
                r#"{"deployments":10,"kind":"fig13_deadzone"}"#,
            ),
            (
                ExperimentSpec::sec534(),
                r#"{"deployments":10,"kind":"sec534_hidden_terminals"}"#,
            ),
            (
                ExperimentSpec::fig14(),
                r#"{"kind":"fig14_packet_tagging","topologies":60}"#,
            ),
            (
                ExperimentSpec::fig15(),
                r#"{"contention":{"model":"graph"},"kind":"fig15_three_ap_end_to_end","rounds":15,"topologies":30}"#,
            ),
            (
                ExperimentSpec::fig16(ContentionModel::Graph),
                r#"{"contention":{"model":"graph"},"kind":"fig16_eight_ap_simulation","rounds":10,"topologies":15}"#,
            ),
            (
                ExperimentSpec::fig16(ContentionModel::physical_calibrated()),
                r#"{"contention":{"capture_margin_db":10.0,"cs_threshold_dbm":-86.0,"model":"physical","sensing_sigma_db":3.0},"kind":"fig16_eight_ap_simulation","rounds":10,"topologies":15}"#,
            ),
            (
                ExperimentSpec::EndToEnd {
                    eight_aps: true,
                    topologies: 2,
                    rounds: 3,
                    contention: ContentionModel::Physical(PhysicalConfig {
                        cs_threshold_dbm: -82.0,
                        capture_margin_db: 6.0,
                        sensing_sigma_db: None,
                    }),
                },
                r#"{"contention":{"capture_margin_db":6.0,"cs_threshold_dbm":-82.0,"model":"physical","sensing_sigma_db":null},"kind":"fig16_eight_ap_simulation","rounds":3,"topologies":2}"#,
            ),
            (
                ExperimentSpec::Fig16Calibration {
                    grid: CalibrationGrid::default(),
                    topologies: 2,
                    rounds: 5,
                },
                r#"{"capture_margins_db":[6.0,8.0,10.0],"cs_thresholds_dbm":[-88.0,-86.0,-84.0],"kind":"fig16_calibration","rounds":5,"sensing_sigmas_db":[3.0,4.5],"topologies":2}"#,
            ),
            (
                ExperimentSpec::EnterpriseScaling {
                    scenario: Scenario::enterprise_office(64),
                    topologies: 3,
                    rounds: 10,
                },
                r#"{"aps":64,"kind":"enterprise_scaling","rounds":10,"scenario":"enterprise_office","topologies":3}"#,
            ),
            (
                ExperimentSpec::EnterpriseScaling {
                    scenario: Scenario::auditorium(16),
                    topologies: 2,
                    rounds: 5,
                },
                r#"{"aps":16,"kind":"enterprise_scaling","rounds":5,"scenario":"auditorium","topologies":2}"#,
            ),
            (
                ExperimentSpec::LoadVsGain {
                    duty_cycles: vec![0.1, 0.5, 1.0],
                    topologies: 4,
                    rounds: 12,
                    speed_mps: 1.2,
                },
                r#"{"duty_cycles":[0.1,0.5,1.0],"kind":"load_vs_gain","rounds":12,"speed_mps":1.2,"topologies":4}"#,
            ),
            (
                ExperimentSpec::TagWidth {
                    widths: vec![1, 2, 4],
                    topologies: 60,
                },
                r#"{"kind":"ablation_tag_width","topologies":60,"widths":[1,2,4]}"#,
            ),
            (
                ExperimentSpec::DasRadius {
                    fractions: vec![(0.25, 0.5), (0.5, 0.75)],
                    topologies: 60,
                },
                r#"{"fractions":[[0.25,0.5],[0.5,0.75]],"kind":"ablation_das_radius","topologies":60}"#,
            ),
            (
                ExperimentSpec::AntennaWait {
                    windows_us: vec![0, 10, 20],
                    trials: 100,
                },
                r#"{"kind":"ablation_antenna_wait","trials":100,"windows_us":[0,10,20]}"#,
            ),
        ];
        for (experiment, golden) in pinned {
            let material = JobSpec::new(experiment, 73125).cache_key_material();
            assert_eq!(
                material,
                format!(
                    r#"{{"coherence_interval_rounds":null,"experiment":{golden},"seed":73125,"traffic":{{"model":"full_buffer"}}}}"#
                ),
            );
        }
    }

    #[test]
    fn cache_key_is_pinned_and_ignores_scheduling_knobs() {
        let base = fig16_spec();
        let key = base.cache_key();
        assert_eq!(key.len(), 16);
        assert_eq!(key, sha256_hex(base.cache_key_material().as_bytes())[..16]);

        // Scheduling knobs do not fork the cache...
        let mut scheduled = base.clone();
        scheduled.threads = Some(8);
        scheduled.deadline_ms = Some(1000);
        scheduled.stage_profiling = true;
        assert_eq!(scheduled.cache_key(), key);

        // ...result-affecting knobs do.
        let mut reseeded = base.clone();
        reseeded.seed = 73126;
        assert_ne!(reseeded.cache_key(), key);
    }

    #[test]
    fn legacy_engine_is_rejected_as_removed() {
        let text = r#"{
            "experiment": {"kind": "fig15_three_ap_end_to_end", "topologies": 2,
                           "rounds": 3, "contention": {"model": "graph"}},
            "seed": 1,
            "engine": "legacy"
        }"#;
        let err = JobSpec::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("$.engine"), "{err}");
        assert!(err.contains("legacy fading engine was removed"), "{err}");
    }

    #[test]
    fn explicit_counter_engine_keeps_the_default_cache_id() {
        let implicit = r#"{
            "experiment": {"kind": "fig15_three_ap_end_to_end", "topologies": 2,
                           "rounds": 3, "contention": {"model": "graph"}},
            "seed": 1
        }"#;
        let explicit = implicit.replace("\"seed\": 1", "\"seed\": 1, \"engine\": \"counter\"");
        let implicit = JobSpec::from_json_str(implicit).unwrap();
        let explicit = JobSpec::from_json_str(&explicit).unwrap();
        assert_eq!(explicit, implicit);
        assert_eq!(explicit.cache_key(), implicit.cache_key());
    }

    #[test]
    fn decode_errors_carry_dotted_paths() {
        let err =
            JobSpec::from_json_str(r#"{"experiment": {"kind": "nope"}, "seed": 1}"#).unwrap_err();
        assert!(err.to_string().contains("$.experiment.kind"), "{err}");

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": "lots"}, "seed": 1}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("$.experiment.topologies"), "{err}");

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": 60}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("missing required key \"seed\""),
            "{err}"
        );

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": 60},
                "seed": 1, "typo_knob": true}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key \"typo_knob\""),
            "{err}"
        );

        // Not JSON at all: the line/column surfaces.
        let err = JobSpec::from_json_str("{oops}").unwrap_err();
        assert!(matches!(err, SpecError::Json(_)), "{err}");
    }

    #[test]
    fn oversize_floors_are_rejected_at_decode() {
        let spec = |aps: usize| {
            format!(
                r#"{{"experiment": {{"kind": "enterprise_scaling",
                    "scenario": "enterprise_office", "aps": {aps},
                    "topologies": 1, "rounds": 1}}, "seed": 1}}"#
            )
        };
        assert_eq!(MAX_FLOOR_APS, 17_373);
        JobSpec::from_json_str(&spec(MAX_FLOOR_APS)).expect("largest floor decodes");
        for aps in [MAX_FLOOR_APS + 1, 4_000_000_000] {
            match JobSpec::from_json_str(&spec(aps)) {
                Err(SpecError::Decode(err)) => {
                    assert_eq!(err.path, "$.experiment.aps", "{err}")
                }
                other => panic!("{aps} APs: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_dynamics_floors_are_rejected_at_decode() {
        // Decode only: the largest accepted floor is never run here.
        let spec = |aps: usize| {
            format!(
                r#"{{"experiment": {{"kind": "enterprise_scaling",
                    "scenario": "enterprise_office", "aps": {aps},
                    "topologies": 1, "rounds": 1}}, "seed": 1,
                    "dynamics": {}}}"#,
                dynamics_to_json(&DynamicsSpec::roaming_walk(1.4)).write_compact()
            )
        };
        for scenario in Scenario::all(64) {
            assert_eq!(scenario.grid.clients_per_ap, CLIENTS_PER_AP);
        }
        assert_eq!(MAX_DYNAMIC_FLOOR_APS, 726);
        assert!(dynamic_floor_bytes(MAX_DYNAMIC_FLOOR_APS) <= JOB_BUDGET_BYTES);
        assert!(dynamic_floor_bytes(MAX_DYNAMIC_FLOOR_APS + 1) > JOB_BUDGET_BYTES);
        JobSpec::from_json_str(&spec(MAX_DYNAMIC_FLOOR_APS))
            .expect("largest dynamics floor decodes");
        for aps in [MAX_DYNAMIC_FLOOR_APS + 1, 4_096, MAX_FLOOR_APS] {
            match JobSpec::from_json_str(&spec(aps)) {
                Err(SpecError::Decode(err)) => {
                    assert_eq!(err.path, "$.experiment.aps", "{err}")
                }
                other => panic!("{aps} APs: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn session_knobs_are_rejected_on_non_session_experiments() {
        let text = r#"{
            "experiment": {"kind": "fig07_link_snr", "topologies": 60},
            "seed": 1,
            "engine": "counter"
        }"#;
        let err = JobSpec::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("$.engine"), "{err}");
        assert!(err.contains("session-driven"), "{err}");

        let text = r#"{
            "experiment": {"kind": "fig07_link_snr", "topologies": 60},
            "seed": 1,
            "coherence_interval_rounds": 4
        }"#;
        let err = JobSpec::from_json_str(text).unwrap_err();
        assert!(
            err.to_string().contains("$.coherence_interval_rounds"),
            "{err}"
        );
    }

    #[test]
    fn sensing_sigma_null_round_trips() {
        let text = r#"{
            "experiment": {
                "kind": "fig16_eight_ap_simulation",
                "topologies": 2, "rounds": 3,
                "contention": {"model": "physical", "cs_threshold_dbm": -82,
                               "capture_margin_db": 6, "sensing_sigma_db": null}
            },
            "seed": 5
        }"#;
        let spec = JobSpec::from_json_str(text).unwrap();
        match spec.experiment {
            ExperimentSpec::EndToEnd {
                contention: ContentionModel::Physical(config),
                ..
            } => assert_eq!(config.sensing_sigma_db, None),
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
