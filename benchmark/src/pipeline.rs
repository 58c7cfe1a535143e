//! `runner::run_job`'s path rebuilt from public calls, so the traced pass
//! can put a span around each layer, and the setup pass can build every
//! trial's simulators without running a round.
//!
//! The recipes, seed mixes, knob order and result assembly below mirror
//! `midas_svc::runner` exactly; the traced pass checks that the bytes it
//! produces equal `run_job`'s for the same spec.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use midas::experiment::EnterpriseScalingSeries;
use midas::sim::{
    Accumulate, ExperimentOutput, ExperimentSpec, MacKind, Observer, PairedRecipe, RoundRecord,
    Session, SessionBuilder, SessionSeries, SessionTrial, StageTimings, Tee,
};
use midas_net::contention::ContentionGraph;
use midas_net::scale::scenario::INTERACTION_MARGIN_DB;
use midas_net::simulator::{NetworkSimulator, TopologyResult};
use midas_svc::observer::{JsonlObserver, JsonlSink};
use midas_svc::runner::result_bytes;
use midas_svc::spec::JobSpec;

use crate::tracer::Tracer;

/// The session a session-driven spec runs under, with its topology count;
/// `None` for the direct experiments.
pub fn session_for(spec: &JobSpec) -> Option<(Session, usize)> {
    let (builder, topologies) = match &spec.experiment {
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
            (builder, *topologies)
        }
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies,
            rounds,
        } => {
            let builder = SessionBuilder::new(*scenario)
                .rounds(*rounds)
                .seed_mix(1021, 101);
            (builder, *topologies)
        }
        _ => return None,
    };
    Some((apply_knobs(builder, spec).build(), topologies))
}

fn apply_knobs(builder: SessionBuilder, spec: &JobSpec) -> SessionBuilder {
    let mut builder = builder
        .fading_engine(spec.engine)
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

/// Everything up to round 0 of every trial and MAC of `spec`: topology
/// build (`Session::trial`) and simulator construction
/// (`SessionTrial::simulator`).  Nothing for direct experiments.
pub fn build_simulators(spec: &JobSpec) {
    if let Some((session, topologies)) = session_for(spec) {
        session.run_trials(topologies, spec.seed, &|trial: &SessionTrial<'_>| {
            for mac in [MacKind::Cas, MacKind::Midas] {
                std::hint::black_box(trial.simulator(mac));
            }
        });
    }
}

/// What the traced pass learns from inside the simulators: per-round
/// times and counts, stage timings, footprints and dynamics counters.
#[derive(Default)]
pub struct LayerProbe {
    /// Wall time of every simulated round, in µs.
    pub round_us: Vec<f64>,
    /// Exact per-pass counts.
    pub counts: Counts,
    /// Stage wall time summed over every simulator.
    pub stages: StageTimings,
}

/// Deterministic counts of one pass: identical at one seed, run after run.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub streams: u64,
    pub deliveries: u64,
    pub tx_aps: u64,
    pub moves: u64,
    pub handoffs: u64,
    /// Largest round-workspace footprint of any simulator.
    pub workspace_bytes: u64,
    /// Largest dynamics-layer footprint of any simulator.
    pub dynamics_heap_bytes: u64,
    /// `result.json` bytes summed over the pass.
    pub result_bytes: u64,
    /// `rounds.jsonl` bytes summed over the pass.
    pub jsonl_bytes: u64,
    /// SHA-256 of every `result.json`, in job order.
    pub digests: Vec<String>,
}

impl LayerProbe {
    fn record(&mut self, sim: &NetworkSimulator, clock: RoundClock) {
        let c = &mut self.counts;
        c.rounds += clock.round_us.len() as u64;
        c.streams += clock.streams;
        c.deliveries += clock.deliveries;
        c.tx_aps += clock.tx_aps;
        if let Some((moves, handoffs)) = sim.dynamics_stats() {
            c.moves += moves as u64;
            c.handoffs += handoffs as u64;
        }
        c.workspace_bytes = c
            .workspace_bytes
            .max(sim.workspace_heap_footprint_bytes() as u64);
        c.dynamics_heap_bytes = c
            .dynamics_heap_bytes
            .max(sim.dynamics_heap_footprint_bytes() as u64);
        self.round_us.extend(clock.round_us);
        let t = sim.stage_timings();
        let s = &mut self.stages;
        s.dynamics_s += t.dynamics_s;
        s.evolve_s += t.evolve_s;
        s.sense_s += t.sense_s;
        s.select_s += t.select_s;
        s.precode_s += t.precode_s;
        s.evaluate_s += t.evaluate_s;
        s.settle_s += t.settle_s;
        s.rounds += t.rounds;
    }
}

/// Times each round from the outside (the gap between consecutive
/// `on_round` calls, the first measured from `on_start`) and counts what
/// the rounds did.
#[derive(Default)]
struct RoundClock {
    last: Option<Instant>,
    round_us: Vec<f64>,
    streams: u64,
    deliveries: u64,
    tx_aps: u64,
}

impl Observer for RoundClock {
    fn on_start(&mut self, _clients: usize, _aps: usize, rounds: usize) {
        self.round_us.reserve(rounds);
        self.last = Some(crate::now());
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let now = crate::now();
        if let Some(last) = self.last {
            self.round_us.push((now - last).as_secs_f64() * 1e6);
        }
        self.last = Some(now);
        self.streams += record.streams as u64;
        self.deliveries += record.deliveries.len() as u64;
        self.tx_aps += record.transmitting_aps.len() as u64;
    }
}

/// The span name of a direct paper experiment.
fn experiment_span(spec: &ExperimentSpec) -> &'static str {
    match spec {
        ExperimentSpec::MuMimoCapacity { .. } => "experiment.fig08_09",
        ExperimentSpec::SmartPrecoding { .. } => "experiment.fig10",
        ExperimentSpec::OptimalComparison { .. } => "experiment.fig11",
        ExperimentSpec::SimultaneousTx { .. } => "experiment.fig12",
        ExperimentSpec::Deadzones { .. } => "experiment.fig13",
        ExperimentSpec::PacketTagging { .. } => "experiment.fig14",
        ExperimentSpec::HiddenTerminals { .. } => "experiment.sec534",
        _ => "experiment.other",
    }
}

/// Runs `spec` like `run_job` into `dir` (`rounds.jsonl`, `result.json`),
/// with a span around every layer call, and returns the `result.json`
/// bytes.
pub fn traced_run(
    spec: &JobSpec,
    dir: &Path,
    tracer: &Tracer,
    job: usize,
    probe: &Mutex<LayerProbe>,
) -> io::Result<String> {
    fs::create_dir_all(dir)?;
    let output = match (&spec.experiment, session_for(spec)) {
        (ExperimentSpec::EndToEnd { .. }, Some((session, topologies))) => {
            let sink = JsonlSink::create(&dir.join("rounds.jsonl"))?;
            let rows = session
                .sweep(spec.seed)
                .run(topologies, &|t: usize, seed: u64| {
                    let trial = tracer.span("sim.trial_build", job, || session.trial(t, seed));
                    let (cas, das) = observe_pair(&trial, &sink, tracer, job, probe);
                    (
                        (cas.mean_capacity(), das.mean_capacity()),
                        (
                            cas.per_client_mean_capacity(),
                            das.per_client_mean_capacity(),
                        ),
                    )
                });
            sink.finish()?;
            let mut out = SessionSeries::default();
            for (net, clients) in rows {
                out.network.cas.push(net.0);
                out.network.das.push(net.1);
                out.per_client.cas.extend(clients.0);
                out.per_client.das.extend(clients.1);
            }
            ExperimentOutput::EndToEnd(out)
        }
        (ExperimentSpec::EnterpriseScaling { scenario, .. }, Some((session, topologies))) => {
            let env = scenario.environment();
            let sink = JsonlSink::create(&dir.join("rounds.jsonl"))?;
            let rows = session
                .sweep(spec.seed)
                .run(topologies, &|t: usize, seed: u64| {
                    let trial = tracer.span("sim.trial_build", job, || session.trial(t, seed));
                    let degree = tracer.span("net.contention_degree", job, || {
                        let graph = ContentionGraph::new(env, trial.seed() ^ 0x5151);
                        let adjacency = graph.ap_adjacency_indexed(
                            &trial.pair().das,
                            env.interaction_range_m(INTERACTION_MARGIN_DB),
                        );
                        adjacency
                            .iter()
                            .map(|row| row.iter().filter(|&&x| x).count())
                            .sum::<usize>() as f64
                            / adjacency.len().max(1) as f64
                    });
                    let (cas, das) = observe_pair(&trial, &sink, tracer, job, probe);
                    (cas, das, degree)
                });
            sink.finish()?;
            let mut out = EnterpriseScalingSeries::default();
            for (cas, das, degree) in rows {
                out.cas.push(cas.mean_capacity());
                out.das.push(das.mean_capacity());
                out.cas_streams.push(cas.mean_streams());
                out.das_streams.push(das.mean_streams());
                out.das_per_ap_capacity.extend(das.per_ap_mean_capacity());
                out.das_per_ap_duty.extend(das.per_ap_duty_cycle());
                out.das_contention_degree.push(degree);
            }
            ExperimentOutput::Enterprise(out)
        }
        (direct, _) => tracer.span(experiment_span(direct), job, || direct.run(spec.seed)),
    };
    let bytes = tracer.span("svc.result_encode", job, || result_bytes(&output));
    tracer.span("svc.result_write", job, || {
        let tmp = dir.join("result.json.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, dir.join("result.json"))
    })?;
    Ok(bytes)
}

/// Both MACs of one trial, CAS first, each streamed into the JSONL sink
/// and accumulated, as the runner does; stage profiling and the round
/// clock ride along.
fn observe_pair(
    trial: &SessionTrial<'_>,
    sink: &JsonlSink,
    tracer: &Tracer,
    job: usize,
    probe: &Mutex<LayerProbe>,
) -> (TopologyResult, TopologyResult) {
    let run = |mac: MacKind, label: &'static str| {
        let mut sim = tracer.span("sim.simulator_new", job, || {
            trial.simulator(mac).with_stage_profiling()
        });
        let mut acc = Accumulate::new();
        let mut log = JsonlObserver::new(sink, trial.index(), label);
        let mut clock = RoundClock::default();
        tracer.span("net.run", job, || {
            sim.run_with(&mut Tee::new(vec![&mut acc, &mut log, &mut clock]))
        });
        probe
            .lock()
            .expect("probe lock poisoned by a panicking trial")
            .record(&sim, clock);
        acc.into_result()
    };
    let cas = run(MacKind::Cas, "cas");
    let das = run(MacKind::Midas, "midas");
    (cas, das)
}
