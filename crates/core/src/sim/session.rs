//! The session layer: composing a topology source, contention model,
//! traffic workload and observers into reproducible paired experiments.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use crate::runner::SeedSweep;
use crate::sim::source::TopologySource;
use midas_channel::FadingEngine;
use midas_net::capture::ContentionModel;
use midas_net::deployment::PairedTopology;
use midas_net::dynamics::DynamicsSpec;
use midas_net::observer::{Accumulate, Observer, Tee};
use midas_net::simulator::{MacKind, NetworkSimConfig, NetworkSimulator, TopologyResult};
use midas_net::traffic::TrafficKind;

/// A per-simulation observer factory: called once per simulation with the
/// trial index and MAC, its observer sees every round next to the result
/// accumulator (see [`ExperimentSpec::run_observed`]).
///
/// [`ExperimentSpec::run_observed`]: crate::sim::ExperimentSpec::run_observed
pub(crate) type Tap<'t> = dyn Fn(usize, MacKind) -> Box<dyn Observer + 't> + Sync + 't;

/// Paired per-topology samples of a CAS metric and a DAS/MIDAS metric —
/// the container behind every CAS-vs-MIDAS CDF in the paper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairedSamples {
    /// CAS (baseline) samples, one per topology.
    pub cas: Vec<f64>,
    /// DAS / MIDAS samples, one per topology.
    pub das: Vec<f64>,
}

impl PairedSamples {
    /// Collects per-trial `(cas, das)` pairs, in trial order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut out = PairedSamples::default();
        for (cas, das) in pairs {
            out.cas.push(cas);
            out.das.push(das);
        }
        out
    }

    /// Concatenates per-trial `(cas, das)` sample groups, in trial order —
    /// for runners that emit several samples per topology (e.g. one per
    /// client link).
    pub fn from_groups(groups: impl IntoIterator<Item = (Vec<f64>, Vec<f64>)>) -> Self {
        let mut out = PairedSamples::default();
        for (cas, das) in groups {
            out.cas.extend(cas);
            out.das.extend(das);
        }
        out
    }
}

/// The paired network-simulation series a [`Session::run`] produces — the
/// data behind the Figs. 15 / 16 comparisons.
#[derive(Debug, Clone, Default)]
pub struct SessionSeries {
    /// Mean network capacity per topology (bit/s/Hz) — the aggregate
    /// series.
    pub network: PairedSamples,
    /// Mean capacity delivered to each client per round (bit/s/Hz), pooled
    /// across topologies and paired by client (same positions in both
    /// deployments).  The CDF of these is the paper's Fig. 16 comparison:
    /// a client far from its co-located array vs the same client near a
    /// distributed antenna.
    pub per_client: PairedSamples,
}

/// Builder for a [`Session`]: composes the pieces the pre-redesign API
/// spread over a dozen free-function signatures.
///
/// Defaults reproduce the paper's experiments: binary-graph contention,
/// full-buffer traffic, 20 TXOP rounds, identity seed mix, ambient worker
/// count (`MIDAS_THREADS`).
///
/// ```
/// use midas::sim::{PairedRecipe, SessionBuilder};
/// use midas_net::capture::ContentionModel;
///
/// let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
///     .rounds(5)
///     .contention(ContentionModel::Graph)
///     .build();
/// let series = session.run(2, 7);
/// assert_eq!(series.network.cas.len(), 2);
/// ```
#[derive(Clone)]
pub struct SessionBuilder {
    source: Arc<dyn TopologySource>,
    contention: ContentionModel,
    traffic: TrafficKind,
    rounds: usize,
    tag_width: Option<usize>,
    coherence_interval_rounds: Option<usize>,
    evolve_threads: usize,
    stage_profiling: bool,
    dynamics: Option<DynamicsSpec>,
    mix: (u64, u64),
    threads: Option<usize>,
}

impl SessionBuilder {
    /// Starts a builder over a topology source with the library defaults.
    pub fn new(source: impl TopologySource + 'static) -> Self {
        SessionBuilder {
            source: Arc::new(source),
            contention: ContentionModel::Graph,
            traffic: TrafficKind::FullBuffer,
            rounds: 20,
            tag_width: None,
            coherence_interval_rounds: None,
            evolve_threads: 1,
            stage_profiling: false,
            dynamics: None,
            mix: (1, 0),
            threads: None,
        }
    }

    /// Sets the contention semantics (default: [`ContentionModel::Graph`],
    /// the paper's binary carrier-sense graph).
    pub fn contention(mut self, contention: ContentionModel) -> Self {
        self.contention = contention;
        self
    }

    /// Sets the downlink traffic workload (default:
    /// [`TrafficKind::FullBuffer`], the paper's saturation model).
    pub fn traffic(mut self, traffic: TrafficKind) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the number of TXOP rounds per simulation (default: 20).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Overrides how many antennas each client's packets are tagged with
    /// (MIDAS only; default: the simulator config's 2).
    pub fn tag_width(mut self, tag_width: usize) -> Self {
        self.tag_width = Some(tag_width);
        self
    }

    /// Sets the channel coherence interval in TXOP rounds (default: 1 —
    /// channels evolve every round).  Larger intervals reuse the cached
    /// channel realisation (and its precoding inputs) for `interval`
    /// consecutive rounds, evolving once per interval with a
    /// correspondingly longer delay.
    pub fn coherence_interval_rounds(mut self, interval: usize) -> Self {
        self.coherence_interval_rounds = Some(interval.max(1));
        self
    }

    /// Selects nothing: [`FadingEngine`] has one variant.  Kept only because
    /// the repository benchmark (`benchmark/`) still calls it; remove it
    /// together with that call.
    pub fn fading_engine(self, _engine: FadingEngine) -> Self {
        self
    }

    /// Sets how many threads each trial's channel evolution may use
    /// (default: 1).  Results are bit-identical at any setting: fading
    /// draws are keyed, not sequenced.
    pub fn evolve_threads(mut self, threads: usize) -> Self {
        self.evolve_threads = threads.max(1);
        self
    }

    /// Enables per-round stage timing accumulation (default: off).  When
    /// on, each simulator tracks wall-clock per pipeline stage and reports
    /// the totals through [`Observer::on_finish`].
    pub fn stage_profiling(mut self, enabled: bool) -> Self {
        self.stage_profiling = enabled;
        self
    }

    /// Installs a long-horizon dynamics layer (default: off).  When set,
    /// every trial's simulators run the per-round mutation stage — client
    /// mobility, re-association/handoff and the large-scale gain refresh
    /// it implies — ahead of channel evolution.  `None` (the default)
    /// keeps every session byte-identical to the static pipeline.
    pub fn dynamics(mut self, spec: DynamicsSpec) -> Self {
        self.dynamics = spec.is_active().then_some(spec);
        self
    }

    /// Sets the per-trial seed mix `trial_seed = seed ^ (t * prime +
    /// offset)` (default: identity).  The experiment specs pin each paper
    /// figure's historical mix here, which is what keeps their series
    /// bit-identical to the pre-redesign runners.
    pub fn seed_mix(mut self, prime: u64, offset: u64) -> Self {
        self.mix = (prime, offset);
        self
    }

    /// Overrides the sweep worker count (default: ambient
    /// `MIDAS_THREADS` / available parallelism) — the bound on the compute
    /// threads a run uses.  Trials fan out across the workers; when there
    /// are at least twice as many workers as trials, each trial also runs
    /// its CAS and MIDAS simulations side by side, one per worker.  Series
    /// are bit-identical at any setting.
    pub fn threads(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Finalises the session.
    pub fn build(self) -> Session {
        Session { inner: self }
    }
}

/// A composed, reusable experiment session: runs paired CAS/MIDAS network
/// simulations over seeded topology sweeps, streaming results through
/// observers.
///
/// Construct via [`SessionBuilder`]; see the [module docs](crate::sim) for
/// how sessions sit under the experiment specs.
#[derive(Clone)]
pub struct Session {
    inner: SessionBuilder,
}

impl Session {
    /// The topology source trials build from.
    pub fn source(&self) -> &dyn TopologySource {
        self.inner.source.as_ref()
    }

    /// The sweep engine this session fans trials through (mix and worker
    /// overrides applied).
    pub fn sweep(&self, seed: u64) -> SeedSweep {
        let mut sweep = SeedSweep::new(seed).with_mix(self.inner.mix.0, self.inner.mix.1);
        if let Some(workers) = self.inner.threads {
            sweep = sweep.with_threads(workers);
        }
        sweep
    }

    /// Materialises one trial: builds the paired topology at a pre-mixed
    /// seed and exposes paired simulators over it.  [`Session::run`] and
    /// friends call this per sweep index; it is public so callers with
    /// bespoke per-trial logic (extra diagnostics, custom observers) can
    /// compose their own sweeps via [`Session::run_trials`].
    pub fn trial(&self, index: usize, trial_seed: u64) -> SessionTrial<'_> {
        SessionTrial {
            session: self,
            index,
            seed: trial_seed,
            pair: self.inner.source.build(trial_seed),
        }
    }

    /// Runs `topologies` paired trials and accumulates the network and
    /// per-client series (the Figs. 15 / 16 shape).
    pub fn run(&self, topologies: usize, seed: u64) -> SessionSeries {
        self.run_series(topologies, seed, None)
            .expect("an untapped run never stops")
    }

    /// [`Session::run`] with an optional [`Tap`]; `None` once the tap asked
    /// to stop.
    pub(crate) fn run_series(
        &self,
        topologies: usize,
        seed: u64,
        tap: Option<&Tap<'_>>,
    ) -> Option<SessionSeries> {
        let rows = self.run_tapped(topologies, seed, tap, |_, pair| {
            let (cas, das) = pair.simulate();
            (
                (cas.mean_capacity(), das.mean_capacity()),
                (
                    cas.per_client_mean_capacity(),
                    das.per_client_mean_capacity(),
                ),
            )
        })?;
        let mut out = SessionSeries::default();
        for (net, clients) in rows {
            out.network.cas.push(net.0);
            out.network.das.push(net.1);
            out.per_client.cas.extend(clients.0);
            out.per_client.das.extend(clients.1);
        }
        Some(out)
    }

    /// [`Session::run_trials`] with an optional [`Tap`]: `f` gets the trial
    /// and its [`Pair`], which runs the trial's CAS and MIDAS simulations,
    /// teeing the tap's observer into each.  Once any tap observer requests
    /// a stop, trials that have not started are skipped before their
    /// topology is built, and the run returns `None`.  Without a tap, each
    /// simulation is [`SessionTrial::simulate`] and the run always
    /// completes.
    pub(crate) fn run_tapped<T, F>(
        &self,
        topologies: usize,
        seed: u64,
        tap: Option<&Tap<'_>>,
        f: F,
    ) -> Option<Vec<T>>
    where
        T: Send,
        F: Fn(&SessionTrial<'_>, &Pair<'_, '_>) -> T + Sync,
    {
        let sweep = self.sweep(seed);
        let split = splits_lanes(&sweep, topologies);
        let stopped = AtomicBool::new(false);
        let rows = sweep.run(topologies, &|t: usize, s: u64| {
            if stopped.load(Ordering::Relaxed) {
                return None;
            }
            let trial = self.trial(t, s);
            let pair = Pair {
                trial: &trial,
                tap,
                split,
                stopped: &stopped,
            };
            Some(f(&trial, &pair))
        });
        // The flag publishes no other data, and the sweep has joined its
        // workers by now.
        if stopped.into_inner() {
            return None;
        }
        rows.into_iter().collect()
    }

    /// Runs `topologies` trials through the sweep engine, mapping each
    /// materialised [`SessionTrial`] with `f` — the extension point for
    /// runners that need more than the standard paired series (per-AP
    /// diagnostics, contention-degree scans, custom observers).  Samples
    /// come back in trial order, bit-identical at any worker count.
    pub fn run_trials<T: Send>(
        &self,
        topologies: usize,
        seed: u64,
        f: &(dyn Fn(&SessionTrial<'_>) -> T + Sync),
    ) -> Vec<T> {
        self.sweep(seed)
            .run(topologies, &|t: usize, s: u64| f(&self.trial(t, s)))
    }

    /// Streaming variant of [`Session::run`]: per trial, builds one
    /// observer pair via `make` (one per MAC), streams both simulations
    /// through them — side by side when the sweep has spare workers, as in
    /// [`Session::run`] — and returns the pairs in trial order.  With
    /// fixed-size observers (e.g.
    /// [`RunningSummary`](midas_net::observer::RunningSummary)) peak memory
    /// is flat in the round count.
    pub fn stream<O, F>(&self, topologies: usize, seed: u64, make: F) -> Vec<(O, O)>
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        let observe = |trial: &SessionTrial<'_>, mac: MacKind| {
            let mut observer = make();
            trial.observe(mac, &mut observer);
            observer
        };
        self.run_tapped(topologies, seed, None, |trial, pair| {
            pair.lanes(
                || observe(trial, MacKind::Cas),
                || observe(trial, MacKind::Midas),
            )
        })
        .expect("an untapped run never stops")
    }
}

/// Whether a sweep of `trials` trials runs each trial's CAS and MIDAS
/// simulations on two lanes: only when it was granted at least two workers
/// per trial, so the lanes never take more threads than the sweep was
/// granted.  The rule rests on the worker and trial counts alone.
fn splits_lanes(sweep: &SeedSweep, trials: usize) -> bool {
    let lanes = trials.saturating_mul(2);
    trials > 0 && sweep.workers_for(lanes) >= lanes
}

/// One trial's paired simulations, as [`Session::run_tapped`] hands them
/// to its closure.  The two simulations share nothing but the topology, so
/// when the sweep has spare workers MIDAS runs on a scoped thread of its
/// own beside CAS; otherwise CAS runs first, then MIDAS.  Either way the
/// results are bit-identical.
pub(crate) struct Pair<'p, 't> {
    trial: &'p SessionTrial<'p>,
    tap: Option<&'p Tap<'t>>,
    split: bool,
    stopped: &'p AtomicBool,
}

impl Pair<'_, '_> {
    /// Runs the trial's CAS and MIDAS simulations to completion:
    /// `(cas, midas)`.
    pub(crate) fn simulate(&self) -> (TopologyResult, TopologyResult) {
        let ((), cas, midas) = self.simulate_after(|| ());
        (cas, midas)
    }

    /// [`Pair::simulate`], with `first` run ahead of CAS in the CAS lane
    /// (a per-trial diagnostic that overlaps the MIDAS simulation).
    pub(crate) fn simulate_after<A>(
        &self,
        first: impl FnOnce() -> A,
    ) -> (A, TopologyResult, TopologyResult) {
        let ((first, cas), midas) = self.lanes(
            || (first(), self.simulate_one(MacKind::Cas)),
            || self.simulate_one(MacKind::Midas),
        );
        (first, cas, midas)
    }

    /// Runs `cas` on this thread and `midas` beside it on a scoped thread
    /// when the lanes split, otherwise `cas` then `midas`.  A panic in
    /// either propagates with its original payload.
    pub(crate) fn lanes<A, B: Send>(
        &self,
        cas: impl FnOnce() -> A,
        midas: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        if !self.split {
            let cas = cas();
            return (cas, midas());
        }
        thread::scope(|scope| {
            let midas = scope.spawn(midas);
            let cas = cas();
            let midas = midas
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            (cas, midas)
        })
    }

    /// Runs one MAC to completion, teeing the tap's observer in; a run the
    /// tap cut short marks the sweep stopped.
    fn simulate_one(&self, mac: MacKind) -> TopologyResult {
        let Some(tap) = self.tap else {
            return self.trial.simulate(mac);
        };
        let mut acc = Accumulate::new();
        let mut observer = tap(self.trial.index(), mac);
        self.trial
            .observe(mac, &mut Tee::new(vec![&mut acc, &mut *observer]));
        let result = acc.into_result();
        // A simulator cuts a run short only when an observer asked it to
        // stop.
        if result.per_round_capacity.len() < self.trial.config(mac).rounds {
            self.stopped.store(true, Ordering::Relaxed);
        }
        result
    }
}

/// One materialised trial of a [`Session`]: the paired topology at one
/// mixed seed, plus paired simulator access.
pub struct SessionTrial<'a> {
    session: &'a Session,
    index: usize,
    seed: u64,
    pair: PairedTopology,
}

impl SessionTrial<'_> {
    /// The zero-based trial index within the sweep.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The mixed trial seed everything in this trial derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The paired CAS/DAS topology of this trial.
    pub fn pair(&self) -> &PairedTopology {
        &self.pair
    }

    /// The simulator configuration for one MAC variant: the source's
    /// config with the session's contention model (and tag-width override,
    /// if any) applied.
    pub fn config(&self, mac: MacKind) -> NetworkSimConfig {
        let inner = &self.session.inner;
        let mut config = inner.source.sim_config(mac, inner.rounds, self.seed);
        config.contention = inner.contention;
        if let Some(w) = inner.tag_width {
            config.tag_width = w;
        }
        if let Some(interval) = inner.coherence_interval_rounds {
            config.coherence_interval_rounds = interval;
        }
        config.evolve_threads = inner.evolve_threads;
        config.dynamics = inner.dynamics;
        config
    }

    /// Builds the simulator for one MAC variant ([`MacKind::Cas`] runs the
    /// co-located deployment, [`MacKind::Midas`] the distributed one) with
    /// the session's traffic workload installed.
    pub fn simulator(&self, mac: MacKind) -> NetworkSimulator {
        let topo = match mac {
            MacKind::Cas => self.pair.cas.clone(),
            MacKind::Midas => self.pair.das.clone(),
        };
        let sim = NetworkSimulator::new(topo, self.config(mac))
            .with_traffic_kind(self.session.inner.traffic);
        if self.session.inner.stage_profiling {
            sim.with_stage_profiling()
        } else {
            sim
        }
    }

    /// Runs one MAC variant to completion, accumulating the full
    /// [`TopologyResult`].
    pub fn simulate(&self, mac: MacKind) -> TopologyResult {
        self.simulator(mac).run()
    }

    /// Runs one MAC variant, streaming rounds into `observer` instead of
    /// accumulating — the memory-bounded path for long-horizon runs.
    pub fn observe(&self, mac: MacKind, observer: &mut dyn Observer) {
        self.simulator(mac).run_with(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::source::PairedRecipe;
    use midas_net::observer::{RoundRecord, RunningSummary};
    use std::sync::atomic::AtomicUsize;

    fn quick_session() -> Session {
        SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(4)
            .seed_mix(193, 61)
            .build()
    }

    #[test]
    fn paired_samples_collect_in_trial_order() {
        let s = PairedSamples::from_pairs([(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.cas, vec![1.0, 3.0]);
        assert_eq!(s.das, vec![2.0, 4.0]);
        let g = PairedSamples::from_groups([(vec![1.0], vec![2.0, 3.0]), (vec![4.0], vec![])]);
        assert_eq!(g.cas, vec![1.0, 4.0]);
        assert_eq!(g.das, vec![2.0, 3.0]);
    }

    #[test]
    fn session_run_produces_full_series() {
        let series = quick_session().run(3, 11);
        assert_eq!(series.network.cas.len(), 3);
        assert_eq!(series.network.das.len(), 3);
        // 3 topologies × 12 clients, paired by position.
        assert_eq!(series.per_client.cas.len(), 36);
        assert_eq!(series.per_client.das.len(), 36);
        assert!(series.network.das.iter().all(|c| c.is_finite() && *c > 0.0));
    }

    #[test]
    fn session_trial_exposes_the_mixed_seed_and_pair() {
        let session = quick_session();
        let sweep = session.sweep(11);
        let trial = session.trial(2, sweep.trial_seed(2));
        assert_eq!(trial.seed(), 11 ^ (2 * 193 + 61));
        assert_eq!(trial.pair().das.aps.len(), 3);
        assert_eq!(trial.config(MacKind::Midas).rounds, 4);
    }

    #[test]
    fn streamed_accumulate_equals_simulate() {
        let session = quick_session();
        let trial = session.trial(0, session.sweep(5).trial_seed(0));
        let direct = trial.simulate(MacKind::Midas);
        let mut acc = Accumulate::new();
        trial.observe(MacKind::Midas, &mut acc);
        assert_eq!(acc.into_result(), direct);
    }

    #[test]
    fn stream_returns_one_observer_pair_per_trial() {
        let session = quick_session();
        let pairs = session.stream(2, 9, RunningSummary::new);
        assert_eq!(pairs.len(), 2);
        for (cas, das) in &pairs {
            assert_eq!(cas.rounds(), 4);
            assert_eq!(das.rounds(), 4);
            assert!(das.mean_capacity() > 0.0);
        }
    }

    #[test]
    fn coherence_interval_one_is_bit_identical_to_the_default() {
        let default = quick_session().run(2, 17);
        let explicit = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(4)
            .seed_mix(193, 61)
            .coherence_interval_rounds(1)
            .build()
            .run(2, 17);
        assert_eq!(default.network.cas, explicit.network.cas);
        assert_eq!(default.network.das, explicit.network.das);
        assert_eq!(default.per_client.das, explicit.per_client.das);
    }

    #[test]
    fn longer_coherence_interval_changes_but_keeps_finite_series() {
        let slow_fading = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(4)
            .seed_mix(193, 61)
            .coherence_interval_rounds(4)
            .build()
            .run(2, 17);
        let baseline = quick_session().run(2, 17);
        assert!(slow_fading
            .network
            .das
            .iter()
            .all(|c| c.is_finite() && *c > 0.0));
        // Caching the realisation across the whole run evolves the channels
        // less often, so the series must differ from evolve-every-round.
        assert_ne!(slow_fading.network.das, baseline.network.das);
        // And it is still deterministic.
        let again = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(4)
            .seed_mix(193, 61)
            .coherence_interval_rounds(4)
            .build()
            .run(2, 17);
        assert_eq!(slow_fading.network.das, again.network.das);
    }

    #[test]
    fn a_passive_tap_leaves_the_series_bit_identical() {
        let tap = |_: usize, _: MacKind| -> Box<dyn Observer> { Box::new(RunningSummary::new()) };
        let tapped = quick_session().run_series(3, 11, Some(&tap)).unwrap();
        let plain = quick_session().run(3, 11);
        assert_eq!(tapped.network, plain.network);
        assert_eq!(tapped.per_client, plain.per_client);
    }

    #[test]
    fn a_tap_stop_skips_later_trials_before_their_topology_is_built() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        struct CountingFloor;
        impl TopologySource for CountingFloor {
            fn environment(&self) -> midas_channel::Environment {
                PairedRecipe::three_ap_paper().environment()
            }
            fn build(&self, seed: u64) -> PairedTopology {
                BUILDS.fetch_add(1, Ordering::SeqCst);
                PairedRecipe::three_ap_paper().build(seed)
            }
        }
        struct StopNow;
        impl Observer for StopNow {
            fn on_round(&mut self, _record: &RoundRecord<'_>) {}
            fn stop_requested(&mut self) -> bool {
                true
            }
        }
        let session = SessionBuilder::new(CountingFloor)
            .rounds(4)
            .threads(1)
            .build();
        let taps = AtomicUsize::new(0);
        let tap = |_: usize, _: MacKind| -> Box<dyn Observer> {
            taps.fetch_add(1, Ordering::SeqCst);
            Box::new(StopNow)
        };
        assert!(session.run_series(5, 3, Some(&tap)).is_none());
        // Trial 0 ran both MACs; trials 1..5 never built a topology.
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
        assert_eq!(taps.load(Ordering::SeqCst), 2);
    }

    /// A tap whose observers meet at `on_start`: each waits up to
    /// `patience` for the other MAC's observer to arrive, and records
    /// whether it did.  Only simulations running at the same time can meet.
    struct Rendezvous {
        arrived: std::sync::Mutex<usize>,
        all_here: std::sync::Condvar,
        met: AtomicUsize,
        patience: std::time::Duration,
    }

    impl Rendezvous {
        fn new(patience_ms: u64) -> Self {
            Rendezvous {
                arrived: std::sync::Mutex::new(0),
                all_here: std::sync::Condvar::new(),
                met: AtomicUsize::new(0),
                patience: std::time::Duration::from_millis(patience_ms),
            }
        }
    }

    impl Observer for &Rendezvous {
        fn on_start(&mut self, _clients: usize, _aps: usize, _rounds: usize) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_here.notify_all();
            let (arrived, _) = self
                .all_here
                .wait_timeout_while(arrived, self.patience, |n| *n < 2)
                .unwrap();
            if *arrived >= 2 {
                self.met.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn on_round(&mut self, _record: &RoundRecord<'_>) {}
    }

    #[test]
    fn a_trial_runs_cas_and_midas_side_by_side_given_two_workers_per_trial() {
        let session = |threads| {
            SessionBuilder::new(PairedRecipe::three_ap_paper())
                .rounds(2)
                .threads(threads)
                .build()
        };
        // Two workers for one trial: the two simulations overlap, so both
        // observers meet (the generous timeout only bounds a failure).
        let both = Rendezvous::new(60_000);
        let tap = |_: usize, _: MacKind| -> Box<dyn Observer + '_> { Box::new(&both) };
        let lanes = session(2).run_series(1, 5, Some(&tap)).unwrap();
        assert_eq!(both.met.load(Ordering::SeqCst), 2);
        // One worker, or fewer than two workers per trial: CAS then MIDAS,
        // so the CAS observer waits alone and gives up; only the MIDAS
        // observer, arriving after it, finds both arrived.
        for (threads, trials) in [(1, 1), (2, 2), (3, 2)] {
            let alone = Rendezvous::new(50);
            let tap = |t: usize, _: MacKind| -> Box<dyn Observer + '_> {
                // Only trial 0's observers take part.
                if t == 0 {
                    Box::new(&alone)
                } else {
                    Box::new(RunningSummary::new())
                }
            };
            session(threads).run_series(trials, 5, Some(&tap)).unwrap();
            assert_eq!(
                alone.met.load(Ordering::SeqCst),
                1,
                "{threads} workers, {trials} trials"
            );
        }
        // The overlap changes no bit of the series.
        let serial = session(1).run(1, 5);
        assert_eq!(lanes.network, serial.network);
        assert_eq!(lanes.per_client, serial.per_client);
    }

    #[test]
    fn a_tap_stop_ends_both_side_by_side_simulations() {
        struct StopAfterOne<'a>(&'a AtomicUsize);
        impl Observer for StopAfterOne<'_> {
            fn on_round(&mut self, _record: &RoundRecord<'_>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            fn stop_requested(&mut self) -> bool {
                true
            }
        }
        let rounds_seen = AtomicUsize::new(0);
        let taps = AtomicUsize::new(0);
        let tap = |_: usize, _: MacKind| -> Box<dyn Observer + '_> {
            taps.fetch_add(1, Ordering::SeqCst);
            Box::new(StopAfterOne(&rounds_seen))
        };
        let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(50)
            .threads(2)
            .build();
        assert!(session.run_series(1, 3, Some(&tap)).is_none());
        // Both MACs ran, and each stopped after its first round.
        assert_eq!(taps.load(Ordering::SeqCst), 2);
        assert_eq!(rounds_seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stream_is_bit_identical_with_side_by_side_simulations() {
        let stream = |threads| {
            SessionBuilder::new(PairedRecipe::three_ap_paper())
                .rounds(3)
                .threads(threads)
                .build()
                .stream(1, 13, Accumulate::new)
                .into_iter()
                .map(|(cas, das)| (cas.into_result(), das.into_result()))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(2));
    }

    #[test]
    fn thread_override_does_not_change_the_series() {
        let serial = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(3)
            .seed_mix(193, 61)
            .threads(1)
            .build()
            .run(4, 21);
        let parallel = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(3)
            .seed_mix(193, 61)
            .threads(4)
            .build()
            .run(4, 21);
        assert_eq!(serial.network.cas, parallel.network.cas);
        assert_eq!(serial.network.das, parallel.network.das);
        assert_eq!(serial.per_client.das, parallel.per_client.das);
    }
}
