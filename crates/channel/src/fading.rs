//! Small-scale fading: Rayleigh and Rician complex channel coefficients.
//!
//! Each antenna–client link gets a unit-mean-power complex fading coefficient
//! on top of the large-scale path loss + shadowing gain:
//!
//! * **Rayleigh** for non-line-of-sight links (typical of CAS antennas and of
//!   distant DAS antennas): `h ~ CN(0, 1)`.
//! * **Rician** with K-factor for line-of-sight links (a client standing next
//!   to its nearest DAS antenna often has LoS): deterministic LoS component
//!   plus scattered component.
//!
//! The module also provides first-order Gauss–Markov temporal evolution so
//! that CSI can go stale between sounding and transmission (used by the
//! sounding-staleness model in `midas-phy`).

use crate::rng::SimRng;
use midas_linalg::Complex;

/// The simulator's small-scale fading engine: stateless counter-keyed
/// draws.
///
/// Every Gauss–Markov innovation is keyed by `(trial_seed, ap, link, round)`
/// through a counter-based stream ([`CounterRng`](crate::rng::CounterRng)),
/// so evolution is order-independent: rows are evolved lazily (only when a
/// round reads them, with exact keyed catch-up), in batch, and in parallel
/// (bit-identical at any thread count).
///
/// This one-variant type selects nothing.  It exists only because the
/// repository benchmark (`benchmark/`) still names it, through
/// `JobSpec::engine` and `SessionBuilder::fading_engine`; remove all three
/// together with that caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FadingEngine {
    /// Stateless counter-keyed draws (order-independent; lazy/parallel).
    #[default]
    Counter,
}

/// Small-scale fading distribution for one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingKind {
    /// No fading: the coefficient is exactly `1 + 0i` times the large-scale gain.
    None,
    /// Rayleigh fading (NLoS), unit mean power.
    Rayleigh,
    /// Rician fading with the given K-factor in dB (LoS power / scattered power).
    Rician {
        /// K-factor in dB.
        k_db: f64,
    },
}

impl FadingKind {
    /// Draws one unit-mean-power complex fading coefficient.
    pub fn sample(&self, rng: &mut SimRng) -> Complex {
        match *self {
            FadingKind::None => Complex::ONE,
            FadingKind::Rayleigh => sample_cn01(rng),
            FadingKind::Rician { k_db } => {
                let k = 10f64.powf(k_db / 10.0);
                // LoS component with random phase + scattered CN(0,1) component,
                // normalised to unit mean power.
                let los_amp = (k / (k + 1.0)).sqrt();
                let scat_amp = (1.0 / (k + 1.0)).sqrt();
                let phase = rng.uniform_range(0.0, 2.0 * std::f64::consts::PI);
                Complex::from_polar(los_amp, phase) + sample_cn01(rng).scale(scat_amp)
            }
        }
    }
}

/// Samples a circularly-symmetric complex Gaussian `CN(0, 1)` value
/// (each component `N(0, 1/2)`), i.e. unit mean power.
pub fn sample_cn01(rng: &mut SimRng) -> Complex {
    let scale = std::f64::consts::FRAC_1_SQRT_2;
    Complex::new(rng.gaussian() * scale, rng.gaussian() * scale)
}

/// First-order Gauss–Markov (AR(1)) fading evolution.
///
/// Given the current coefficient `h`, the coefficient after a delay with
/// temporal correlation `rho` is `rho * h + sqrt(1 - rho^2) * CN(0,1)`.
/// `rho = 1` freezes the channel, `rho = 0` draws an independent channel.
pub fn evolve(h: Complex, rho: f64, rng: &mut SimRng) -> Complex {
    assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
    if rho >= 1.0 {
        return h;
    }
    h.scale(rho) + sample_cn01(rng).scale((1.0 - rho * rho).sqrt())
}

/// Temporal correlation implied by Clarke's model for a wait of
/// `delay_s` seconds in a channel with coherence time `coherence_s`.
///
/// Uses the common exponential approximation `rho = exp(-delay / Tc)` rather
/// than the Bessel-function form; for delays well below the coherence time
/// (the regime MIDAS operates in) the two agree closely.
pub fn correlation_for_delay(delay_s: f64, coherence_s: f64) -> f64 {
    assert!(coherence_s > 0.0);
    (-delay_s.max(0.0) / coherence_s).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rayleigh_has_unit_mean_power() {
        let mut rng = SimRng::new(1);
        let n = 50_000;
        let mean_power: f64 = (0..n)
            .map(|_| FadingKind::Rayleigh.sample(&mut rng).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((mean_power - 1.0).abs() < 0.03, "mean power {mean_power}");
    }

    #[test]
    fn rician_has_unit_mean_power_and_less_variance_than_rayleigh() {
        let mut rng = SimRng::new(2);
        let n = 50_000;
        let rician = FadingKind::Rician { k_db: 6.0 };
        let powers: Vec<f64> = (0..n).map(|_| rician.sample(&mut rng).norm_sqr()).collect();
        let mean: f64 = powers.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean power {mean}");

        let var_rician = powers.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n as f64;
        let ray_powers: Vec<f64> = (0..n)
            .map(|_| FadingKind::Rayleigh.sample(&mut rng).norm_sqr())
            .collect();
        let ray_mean: f64 = ray_powers.iter().sum::<f64>() / n as f64;
        let var_ray = ray_powers
            .iter()
            .map(|p| (p - ray_mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(
            var_rician < var_ray,
            "Rician power variance {var_rician} should be below Rayleigh {var_ray}"
        );
    }

    #[test]
    fn none_fading_is_deterministic_one() {
        let mut rng = SimRng::new(3);
        assert_eq!(FadingKind::None.sample(&mut rng), Complex::ONE);
    }

    #[test]
    fn evolve_with_rho_one_keeps_channel() {
        let mut rng = SimRng::new(4);
        let h = Complex::new(0.3, -0.8);
        assert_eq!(evolve(h, 1.0, &mut rng), h);
    }

    #[test]
    fn evolve_with_rho_zero_is_independent_unit_power() {
        let mut rng = SimRng::new(5);
        let h = Complex::new(10.0, 10.0); // large value should not leak through
        let n = 20_000;
        let mean_power: f64 = (0..n)
            .map(|_| evolve(h, 0.0, &mut rng).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((mean_power - 1.0).abs() < 0.05, "mean power {mean_power}");
    }

    #[test]
    fn evolve_preserves_unit_power_statistically() {
        let mut rng = SimRng::new(6);
        let n = 20_000;
        let rho = 0.7;
        let mean_power: f64 = (0..n)
            .map(|_| {
                let h = sample_cn01(&mut rng);
                evolve(h, rho, &mut rng).norm_sqr()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean_power - 1.0).abs() < 0.05, "mean power {mean_power}");
    }

    #[test]
    fn correlation_decays_with_delay() {
        let c0 = correlation_for_delay(0.0, 0.02);
        let c1 = correlation_for_delay(0.005, 0.02);
        let c2 = correlation_for_delay(0.02, 0.02);
        assert!((c0 - 1.0).abs() < 1e-12);
        assert!(c1 > c2);
        assert!((c2 - (-1.0f64).exp()).abs() < 1e-12);
    }
}
