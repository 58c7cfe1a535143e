//! Property tests for the simulator's counter-keyed fading evolution.
//!
//! Its whole value proposition is order-independence: because every
//! small-scale innovation is a pure function of `(trial_seed, ap, link,
//! round)`, the simulator may evolve channel rows lazily (only the rows a
//! round actually reads, caught up boundary by boundary) and in parallel
//! (any thread count) without changing a single bit of the results.  The
//! first two properties pin exactly that, over the same
//! `{scan} × {contention} × {mac} × {traffic}` grid the workspace
//! equivalence tests use.  The third pins what the keyed evolution shares
//! with the sequential one the stale-CSI experiments use
//! ([`ChannelModel::evolve_in_place`]): both realise the same first-order
//! Gauss–Markov process, so evolved fading must keep unit mean power and
//! show lag-1 autocorrelation `rho` under either.

use midas_channel::{ChannelModel, Environment, Point};
use midas_linalg::Complex;
use midas_net::capture::ContentionModel;
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimulator, ScanMode};
use midas_net::traffic::TrafficKind;
use proptest::prelude::*;

/// Builds a simulator for one configuration point.
#[allow(clippy::too_many_arguments)] // test helper: the grid IS the arguments
fn build_sim(
    scenario: &Scenario,
    mac: MacKind,
    scan: ScanMode,
    contention: ContentionModel,
    traffic: TrafficKind,
    rounds: usize,
    seed: u64,
    evolve_threads: usize,
    eager: bool,
) -> NetworkSimulator {
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut config = scenario.sim_config(mac, rounds, seed);
    config.scan = scan;
    config.contention = contention;
    config.evolve_threads = evolve_threads;
    let sim = NetworkSimulator::new(topo, config).with_traffic_kind(traffic);
    if eager {
        sim.with_eager_counter_evolve()
    } else {
        sim
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lazy active-set evolution (only the rows a round reads, with keyed
    /// catch-up) is bit-identical to eagerly evolving every in-range row at
    /// every coherence boundary, over the full
    /// `{scan} × {contention} × {mac} × {traffic}` grid at random seeds.
    #[test]
    fn lazy_evolution_is_bit_identical_to_eager(
        seed in 0u64..1_000_000,
        scan_sel in 0usize..2,
        contention_sel in 0usize..2,
        traffic_sel in 0usize..2,
    ) {
        let scenario = Scenario::enterprise_office(8);
        let scan = if scan_sel == 0 { ScanMode::Indexed } else { ScanMode::BruteForce };
        let contention = if contention_sel == 0 {
            ContentionModel::Graph
        } else {
            ContentionModel::physical_calibrated()
        };
        // Saturation exercises dense touched sets; the sparse duty-cycled
        // workload leaves many rows untouched for long stretches, which is
        // where lazy catch-up has to replay several boundaries at once.
        let traffic = if traffic_sel == 0 {
            TrafficKind::FullBuffer
        } else {
            TrafficKind::OnOff { duty: 0.2, mean_burst_rounds: 2.0 }
        };
        for mac in [MacKind::Midas, MacKind::Cas] {
            let lazy = build_sim(
                &scenario, mac, scan, contention, traffic, 6, seed, 1, false,
            ).run();
            let eager = build_sim(
                &scenario, mac, scan, contention, traffic, 6, seed, 1, true,
            ).run();
            prop_assert_eq!(
                &lazy, &eager,
                "{:?}/{:?}/{:?}/{:?}: lazy evolution diverged from eager",
                mac, scan, contention, traffic
            );
        }
    }

    /// Intra-trial parallel evolve is bit-identical to serial: the full
    /// `TopologyResult` at 4 evolve threads equals the 1-thread run.
    #[test]
    fn parallel_evolve_is_bit_identical_to_serial(
        seed in 0u64..1_000_000,
        contention_sel in 0usize..2,
    ) {
        let scenario = Scenario::enterprise_office(8);
        let contention = if contention_sel == 0 {
            ContentionModel::Graph
        } else {
            ContentionModel::physical_calibrated()
        };
        for mac in [MacKind::Midas, MacKind::Cas] {
            let serial = build_sim(
                &scenario, mac, ScanMode::Indexed, contention,
                TrafficKind::FullBuffer, 6, seed, 1, false,
            ).run();
            let parallel = build_sim(
                &scenario, mac, ScanMode::Indexed, contention,
                TrafficKind::FullBuffer, 6, seed, 4, false,
            ).run();
            prop_assert_eq!(
                &serial, &parallel,
                "{:?}/{:?}: 4-thread evolve diverged from serial",
                mac, contention
            );
        }
    }
}

/// The two Gauss–Markov evolution paths of [`ChannelModel`].
#[derive(Debug, Clone, Copy)]
enum Evolution {
    /// One sequential generator ([`ChannelModel::evolve_in_place`]).
    Sequential,
    /// Counter-keyed draws ([`ChannelModel::evolve_in_place_counter`]).
    Keyed,
}

/// Evolves one realisation `steps` times along the given path, returning
/// the large-scale-normalised fading coefficient of every link at every
/// step (the unit-power CN process both paths must realise).
fn evolved_coefficients(
    evolution: Evolution,
    steps: usize,
    seed: u64,
    delay_s: f64,
) -> Vec<Vec<Complex>> {
    let mut model = ChannelModel::new(Environment::office_a(), seed);
    // A 4-antenna DAS-like spread with a grid of clients: metres of antenna
    // separation keeps the initial realisation's spatial correlation low.
    let antennas = [
        Point::new(5.0, 5.0),
        Point::new(35.0, 5.0),
        Point::new(5.0, 35.0),
        Point::new(35.0, 35.0),
    ];
    let clients: Vec<Point> = (0..25)
        .map(|i| Point::new(4.0 + 6.4 * (i % 5) as f64, 4.0 + 6.4 * (i / 5) as f64))
        .collect();
    let mut channel = model.realize_positions(&antennas, &clients);
    let normalised = |ch: &midas_channel::ChannelMatrix| -> Vec<Complex> {
        let mut out = Vec::new();
        for j in 0..ch.num_clients() {
            for k in 0..ch.num_antennas() {
                let g = ch.large_scale.get(j, k);
                out.push(ch.h.get(j, k).scale(1.0 / g));
            }
        }
        out
    };
    let mut pairs = Vec::new();
    let mut series = Vec::with_capacity(steps);
    for step in 0..steps {
        match evolution {
            Evolution::Sequential => model.evolve_in_place(&mut channel, delay_s),
            Evolution::Keyed => {
                model.evolve_in_place_counter(&mut channel, delay_s, 0, step as u64, &mut pairs)
            }
        }
        series.push(normalised(&channel));
    }
    series
}

#[test]
fn both_engines_realise_unit_power_gauss_markov_fading() {
    // Statistical bands shared by both paths: the evolved unit-power
    // coefficients must keep E[|f|^2] = 1 and show lag-1 autocorrelation
    // Re E[f_t conj(f_{t-1})] / E[|f|^2] = rho.  ~10 ms steps in an office
    // coherence time give a rho well inside (0, 1), so both failure modes
    // (frozen channel rho->1, iid redraw rho->0) sit far outside the band.
    let delay_s = 0.010;
    let steps = 400;
    for evolution in [Evolution::Sequential, Evolution::Keyed] {
        let model = ChannelModel::new(Environment::office_a(), 9);
        let rho = model.step_correlation(delay_s);
        assert!(rho > 0.2 && rho < 0.98, "step rho {rho} outside test band");
        let series = evolved_coefficients(evolution, steps, 9, delay_s);
        let links = series[0].len();
        let mut power_sum = 0.0;
        let mut corr_sum = 0.0;
        let mut corr_n = 0usize;
        for t in 0..steps {
            for (l, f) in series[t].iter().enumerate() {
                power_sum += f.norm_sqr();
                if t > 0 {
                    corr_sum += (*f * series[t - 1][l].conj()).re;
                    corr_n += 1;
                }
            }
        }
        let mean_power = power_sum / (steps * links) as f64;
        let autocorr = corr_sum / corr_n as f64 / mean_power;
        assert!(
            (mean_power - 1.0).abs() < 0.05,
            "{evolution:?}: evolved mean power {mean_power} not ~1"
        );
        assert!(
            (autocorr - rho).abs() < 0.05,
            "{evolution:?}: lag-1 autocorrelation {autocorr} vs rho {rho}"
        );
    }
}
