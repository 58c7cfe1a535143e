//! Paper-fidelity suite: tolerance-banded assertions for every
//! paper-anchored headline number this reproduction claims.
//!
//! Unlike the bit-exact goldens in `runner_determinism.rs` (which pin that
//! refactors don't perturb a single ulp), these tests pin that the
//! *physics* stays inside an accepted band around what the paper reports.
//! Each test cites the paper section, the paper's number, and the band
//! this reproduction accepts — so a later change can tighten a band
//! deliberately, but cannot silently regress a headline.
//!
//! The suite runs at the bench seed (0x11DA5) and bench scale, so the
//! numbers here are exactly the ones the corresponding figure targets
//! print.  CI runs this file as its own named step ("Paper fidelity") to
//! keep physics regressions distinguishable from unit-test failures.

use midas::experiment::{
    end_to_end_series, fig12_simultaneous_tx, sec534_hidden_terminals, FIG16_GAIN_BAND,
};
use midas_net::capture::{ContentionModel, PhysicalConfig};
use midas_net::metrics::{relative_gain, Cdf};

/// The bench seed (`midas_bench::BENCH_SEED`; not imported to keep this
/// crate's dev-dependencies acyclic).
const SEED: u64 = 0x11DA5;

/// §5.3.1 / Fig. 12 — ratio of simultaneous transmissions, MIDAS / CAS,
/// over random 3-AP topologies whose APs all overhear each other.
///
/// Paper: the median ratio is well above 1 (the Fig. 12 CDF's median sits
/// near 2×: per-antenna carrier sensing roughly doubles the concurrent
/// transmissions a shared contention domain supports).
///
/// Accepted band: **[1.1, 2.5]** — this reproduction's propagation model
/// yields a median of 1.25 at the bench seed and scale (per-antenna
/// sensing wins spatial reuse, but our frozen-shadowing office reproduces
/// fewer sensing holes than the paper's testbed walls did).
#[test]
fn fig12_simultaneous_tx_ratio_is_in_band() {
    // Same (topologies, seed) as the fig12_simultaneous_tx bench target.
    let ratios = fig12_simultaneous_tx(30, SEED);
    let median = Cdf::new(&ratios).median();
    assert!(
        (1.1..=2.5).contains(&median),
        "Fig. 12 median simultaneous-tx ratio {median:.3} outside accepted band [1.1, 2.5] \
         (paper: ~2x)"
    );
}

/// §5.3.4 — fraction of CAS hidden-terminal spots removed by the DAS
/// deployment, at the paper's 1 m sampling grid.
///
/// Paper: "≈ 94 % of the hidden-terminal spots disappear" when each AP's
/// antennas are pushed outwards — some antenna of AP 1 can then sense
/// some antenna of AP 2, which restores carrier sensing between the
/// transmitters.
///
/// Accepted band: **[0.85, 1.0]** — this reproduction removes 100 % of
/// the spots at the bench seed and scale (3740 CAS spots, 0 DAS spots
/// over 10 deployments); the paper's residual 6 % comes from wall
/// geometry this model does not reproduce.
#[test]
fn sec534_hidden_terminal_reduction_is_in_band() {
    // Same (deployments, seed) as the sec534_hidden_terminals bench target.
    let comparisons = sec534_hidden_terminals(10, SEED);
    let cas: usize = comparisons.iter().map(|c| c.cas_spots).sum();
    let das: usize = comparisons.iter().map(|c| c.das_spots).sum();
    assert!(cas > 0, "CAS deployment must exhibit hidden-terminal spots");
    let reduction = 1.0 - das as f64 / cas as f64;
    assert!(
        (0.85..=1.0).contains(&reduction),
        "§5.3.4 hidden-terminal reduction {reduction:.3} (CAS {cas}, DAS {das}) outside \
         accepted band [0.85, 1.0] (paper: ~0.94)"
    );
}

/// §5.4 / Fig. 16 — the headline: MIDAS median gain over CAS in the 8-AP
/// large-scale simulation, under the calibrated physical contention model
/// (`PhysicalConfig::calibrated()`, promoted by the `fig16_calibration`
/// sweep).  The gain is read on the per-client capacity CDF — a client
/// far from its co-located array vs the same client near a distributed
/// antenna — which is the distribution the paper's >150 % claim describes.
///
/// Paper: "MIDAS outperforms CAS by more than 150 %" in median at 8 APs.
///
/// Accepted band: **[+50 %, +150 %]** (`FIG16_GAIN_BAND`) — the physical
/// model closes the gap from the graph model's +32 % to +67 % at the
/// bench seed (+39…+86 % over seeds 1–8, two of which fall below the
/// floor — the claim is not yet robust across seeds); the paper's full
/// +150 % would require testbed wall/trace structure this propagation
/// model does not reproduce.  The binary-graph reference must meanwhile
/// stay bit-identical (see `runner_determinism.rs`), so this band is
/// pinned on the physical model only.
/// The aggregate *network* capacity gain of the same simulation is also
/// banded: **[0 %, +60 %]** — not the paper's headline axis, but the
/// physical model must move the aggregate in the right direction too
/// (graph model: +8 % at the bench seed; calibrated physical: +15 %).
/// MIDAS must not lose the aggregate comparison, and a runaway gain would
/// mean the CAS baseline collapsed.  Both bands are asserted from one
/// simulation run — the 8-AP physical sim is the suite's most expensive
/// call.
#[test]
fn fig16_physical_gains_are_in_band() {
    // Same (topologies, rounds, seed) as the fig16_eight_ap_simulation
    // bench target.
    let s = end_to_end_series(true, 15, 10, SEED, ContentionModel::physical_calibrated());

    let client_gain = relative_gain(
        Cdf::new(&s.per_client.das).median(),
        Cdf::new(&s.per_client.cas).median(),
    );
    let (lo, hi) = FIG16_GAIN_BAND;
    assert!(
        client_gain >= 0.5,
        "Fig. 16 acceptance: MIDAS median per-client gain {:.1} % under the calibrated \
         physical model must be at least +50 % (paper claims >150 %)",
        100.0 * client_gain
    );
    assert!(
        (lo..=hi).contains(&client_gain),
        "Fig. 16 median per-client gain {:.1} % outside accepted band [{:.0} %, {:.0} %]",
        100.0 * client_gain,
        100.0 * lo,
        100.0 * hi
    );

    let network_gain = relative_gain(
        Cdf::new(&s.network.das).median(),
        Cdf::new(&s.network.cas).median(),
    );
    assert!(
        (0.0..=0.6).contains(&network_gain),
        "Fig. 16 network capacity gain {:.1} % outside accepted band [0 %, 60 %]",
        100.0 * network_gain
    );
}

/// The promoted calibration is self-consistent: the pinned defaults keep
/// the stricter-than-preset structure the calibration mechanism relies on
/// (a CCA more sensitive than every environment preset, a smoother
/// sensing field, and a rate-adaptation margin of at least two MCS steps).
#[test]
fn calibrated_defaults_hold_their_structure() {
    let cal = PhysicalConfig::calibrated();
    assert!(
        cal.cs_threshold_dbm < -76.0,
        "stricter than every preset CCA"
    );
    assert!(
        cal.capture_margin_db >= 6.0,
        "at least two MCS steps of headroom"
    );
    let sigma = cal
        .sensing_sigma_db
        .expect("calibration pins the sensing field spread");
    assert!((0.0..=6.0).contains(&sigma));
}
