//! Downlink channel matrix generation and link-budget computations.
//!
//! The composite complex gain of the link from AP antenna `k` to client `j`
//! is modelled as
//!
//! ```text
//! h_jk = g_jk * f_jk,
//! g_jk = 10^(-(PL(d_jk) + X_jk) / 20)      (large-scale amplitude gain)
//! f_jk ~ Rayleigh or Rician, unit power    (small-scale fading)
//! ```
//!
//! where `PL` is the log-distance path loss, `X` the per-link log-normal
//! shadowing and `d_jk` the antenna-to-client distance.  Received power for a
//! transmit power `P` is then `P * |h_jk|^2`, which is the convention the
//! SINR expressions of the paper (Eqn. 4) assume.
//!
//! The "average received signal strength from the different antennas" that
//! drives MIDAS's virtual packet tagging (§3.2.4) is the large-scale part
//! only (`g_jk`), because fading averages out over the measurement window.

use crate::environment::Environment;
use crate::fading;
use crate::geometry::Point;
use crate::rng::{CounterRng, SimRng};
use crate::topology::{Client, Deployment};
use crate::{dbm_to_mw, mw_to_dbm};
use midas_linalg::{CMat, Complex, FMat};

/// Per-link statistics of a single antenna → client link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Distance in metres.
    pub distance_m: f64,
    /// Mean (large-scale) received power in dBm at the environment's
    /// per-antenna transmit power.
    pub mean_rssi_dbm: f64,
    /// Mean SNR in dB implied by the noise floor.
    pub mean_snr_db: f64,
}

/// A channel realisation between one AP's antennas and a set of clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMatrix {
    /// Composite complex amplitude gains, `clients × antennas`.
    pub h: CMat,
    /// Large-scale amplitude gains (path loss + shadowing, no fading),
    /// `clients × antennas`, linear amplitude (not dB).  Stored flat
    /// (structure-of-arrays) so per-client rows are contiguous slices.
    pub large_scale: FMat,
    /// Per-antenna transmit power constraint, mW.
    pub tx_power_mw: f64,
    /// Noise power, mW.
    pub noise_mw: f64,
}

impl ChannelMatrix {
    /// Number of clients (rows).
    pub fn num_clients(&self) -> usize {
        self.h.rows()
    }

    /// Number of AP antennas (columns).
    pub fn num_antennas(&self) -> usize {
        self.h.cols()
    }

    /// Mean (large-scale) received power in dBm at client `j` from antenna `k`
    /// when that antenna transmits at the per-antenna power.
    pub fn mean_rssi_dbm(&self, client: usize, antenna: usize) -> f64 {
        let g = self.large_scale.get(client, antenna);
        mw_to_dbm(self.tx_power_mw * g * g)
    }

    /// Instantaneous SNR in dB of the SISO link client `j` ← antenna `k`
    /// (single antenna transmitting at full per-antenna power).
    pub fn siso_snr_db(&self, client: usize, antenna: usize) -> f64 {
        let p_rx = self.tx_power_mw * self.h.get(client, antenna).norm_sqr();
        10.0 * (p_rx / self.noise_mw).log10()
    }

    /// Antenna indices sorted by decreasing mean RSSI for the given client —
    /// the "preference list" used by virtual packet tagging.
    pub fn antenna_preference(&self, client: usize) -> Vec<usize> {
        let gains = self.large_scale.row(client);
        let mut idx: Vec<usize> = (0..self.num_antennas()).collect();
        idx.sort_by(|&a, &b| gains[b].partial_cmp(&gains[a]).unwrap());
        idx
    }

    /// Restricts the realisation to a subset of clients and antennas
    /// (in the given order).
    pub fn select(&self, clients: &[usize], antennas: &[usize]) -> ChannelMatrix {
        let h = self.h.select(clients, antennas);
        let large_scale = self.large_scale.select(clients, antennas);
        ChannelMatrix {
            h,
            large_scale,
            tx_power_mw: self.tx_power_mw,
            noise_mw: self.noise_mw,
        }
    }
}

/// Decorrelation distance (metres) of small-scale fading across antennas:
/// the fading correlation between two antennas is `exp(-d / this)`.  At
/// half-wavelength CAS spacing (~3 cm) the correlation is ≈ 0.94; at DAS
/// spacings of several metres it is essentially zero.
const FADING_DECORRELATION_M: f64 = 0.5;

/// Lower-triangular Cholesky factor of the antenna fading-correlation matrix
/// `R[k][l] = exp(-d(k, l) / FADING_DECORRELATION_M)`.
fn antenna_correlation_cholesky(antennas: &[Point]) -> Vec<Vec<f64>> {
    let n = antennas.len();
    let mut r = vec![vec![0.0f64; n]; n];
    for k in 0..n {
        for l in 0..n {
            let d = antennas[k].distance(&antennas[l]);
            r[k][l] = (-d / FADING_DECORRELATION_M).exp();
        }
        // Tiny diagonal jitter keeps the factorisation stable when antennas
        // coincide exactly.
        r[k][k] += 1e-9;
    }
    let mut l_mat = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = l_mat[i][..j]
                .iter()
                .zip(&l_mat[j][..j])
                .map(|(a, b)| a * b)
                .sum();
            let sum = r[i][j] - dot;
            if i == j {
                l_mat[i][j] = sum.max(1e-12).sqrt();
            } else {
                l_mat[i][j] = sum / l_mat[j][j];
            }
        }
    }
    l_mat
}

/// An antenna set's fading-correlation Cholesky factor, which mixes a
/// client's independent `CN(0, 1)` draws into spatially correlated fading.
///
/// It depends only on the antenna positions, so a caller that realises rows
/// one at a time ([`ChannelModel::finish_row`]) computes it once per AP.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingCorrelation {
    n: usize,
    /// Row-major `n × n`; entries above the diagonal are zero.
    l: Vec<f64>,
}

impl FadingCorrelation {
    /// Factors the correlation matrix of `antennas`.
    pub fn new(antennas: &[Point]) -> Self {
        FadingCorrelation {
            n: antennas.len(),
            l: antenna_correlation_cholesky(antennas).concat(),
        }
    }

    /// Entry `(k, l)` of the factor.
    #[inline]
    fn get(&self, k: usize, l: usize) -> f64 {
        self.l[k * self.n + l]
    }

    /// Bytes of heap the factor holds.
    pub fn heap_bytes(&self) -> usize {
        self.l.capacity() * std::mem::size_of::<f64>()
    }
}

/// Spatial grid size (metres) over which shadowing is fully correlated.
///
/// Two transmit positions falling in the same grid cell see the *same*
/// shadowing realisation towards a given receiver cell, so the co-located
/// antennas of a CAS AP share one shadowing value (as they do physically),
/// while DAS antennas several metres apart get independent values.  This is a
/// coarse but standard decorrelation-distance model.
const SHADOWING_CELL_M: f64 = 2.0;

/// The frozen shadowing field's cell of the link `tx -> rx`: both endpoints
/// quantised to [`SHADOWING_CELL_M`].
fn shadow_cell(tx: &Point, rx: &Point) -> [i64; 4] {
    let q = |v: f64| (v / SHADOWING_CELL_M).round() as i64;
    [q(tx.x), q(tx.y), q(rx.x), q(rx.y)]
}

/// Linear amplitude gain of a link with the given path loss and shadowing.
fn amp_from_db(path_loss_db: f64, shadow_db: f64) -> f64 {
    10f64.powf(-(path_loss_db + shadow_db) / 20.0)
}

/// Stateful channel generator bound to one environment.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    env: Environment,
    rng: SimRng,
    /// Seed of the frozen shadowing field (shared by all links of this model).
    shadow_field_seed: u64,
    /// Seed lane of the counter-keyed fading streams (see
    /// [`ChannelModel::evolve_row_counter`]); derived from the trial seed so
    /// different trials draw independent fading histories.
    fading_seed: u64,
}

impl ChannelModel {
    /// Creates a channel model for an environment with a deterministic seed.
    pub fn new(env: Environment, seed: u64) -> Self {
        ChannelModel {
            env,
            rng: SimRng::new(seed).fork(0xC4A77E1),
            shadow_field_seed: seed ^ 0x51AD0_F1E1D,
            fading_seed: seed ^ 0xFAD1_6E55_EED0,
        }
    }

    /// The environment this model draws from.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Shadowing (dB) of the link `tx -> rx`, drawn from a frozen spatial
    /// field: deterministic in the positions, fully correlated within a
    /// [`SHADOWING_CELL_M`] cell and independent across cells.
    fn shadowing_db(&self, tx: &Point, rx: &Point) -> f64 {
        self.shadowing_db_in(shadow_cell(tx, rx))
    }

    /// Shadowing (dB) of every link whose endpoints fall in `cell`.
    fn shadowing_db_in(&self, cell: [i64; 4]) -> f64 {
        if self.env.shadowing.sigma_db == 0.0 {
            return 0.0;
        }
        let mut h = self.shadow_field_seed;
        for coord in cell {
            h ^= (coord as u64).wrapping_mul(0x9E3779B97F4A7C15);
            h = h.rotate_left(23).wrapping_mul(0xBF58476D1CE4E5B9);
        }
        let mut link_rng = SimRng::new(h);
        link_rng.gaussian_with(0.0, self.env.shadowing.sigma_db)
    }

    /// Large-scale amplitude gain (path loss + frozen shadowing) for a link.
    fn large_scale_amp(&self, tx: &Point, rx: &Point) -> f64 {
        let pl_db = self.env.path_loss.path_loss_db(tx.distance(rx));
        amp_from_db(pl_db, self.shadowing_db(tx, rx))
    }

    /// [`large_scale_amp`](Self::large_scale_amp) of the link from each of
    /// `antennas` to `rx`, in antenna order, calling `each(k, distance, g)`.
    /// An antenna in the same shadowing cell as the one before it reuses
    /// that antenna's shadowing draw — a CAS AP's co-located array pays one
    /// draw, not one per antenna — which gives the same bits, because the
    /// draw is a function of the cell alone.
    fn large_scale_amps(
        &self,
        antennas: &[Point],
        rx: &Point,
        mut each: impl FnMut(usize, f64, f64),
    ) {
        let mut last: Option<([i64; 4], f64)> = None;
        for (k, tx) in antennas.iter().enumerate() {
            let cell = shadow_cell(tx, rx);
            let shadow_db = match last {
                Some((seen, db)) if seen == cell => db,
                _ => last.insert((cell, self.shadowing_db_in(cell))).1,
            };
            let d = tx.distance(rx);
            each(
                k,
                d,
                amp_from_db(self.env.path_loss.path_loss_db(d), shadow_db),
            );
        }
    }

    /// Small-scale fading distribution of a link of the given length.
    fn fading_kind(&self, distance_m: f64) -> fading::FadingKind {
        if distance_m <= self.env.los_distance_m {
            self.env.los_fading
        } else {
            self.env.nlos_fading
        }
    }

    /// Whether the link `apos → client` is Rician, i.e. draws a
    /// line-of-sight phase: `fading_kind(apos.distance(client))`, without
    /// the `hypot` where the answer cannot depend on it.  A link whose
    /// offset on either axis exceeds the line-of-sight distance (with a
    /// 1e-9 relative margin for the `hypot` rounding) is longer than it.
    fn draws_phase(&self, apos: &Point, client: &Point) -> bool {
        let rician = |kind| matches!(kind, fading::FadingKind::Rician { .. });
        let (los, nlos) = (rician(self.env.los_fading), rician(self.env.nlos_fading));
        if los == nlos {
            return los;
        }
        let reach = self.env.los_distance_m * (1.0 + 1e-9);
        if (apos.x - client.x).abs() > reach || (apos.y - client.y).abs() > reach {
            return nlos;
        }
        rician(self.fading_kind(apos.distance(client)))
    }

    /// Small-scale fading coefficient for a link of the given length.
    fn sample_fading(&mut self, distance_m: f64) -> Complex {
        self.fading_kind(distance_m).sample(&mut self.rng)
    }

    /// Deterministic mean received power (dBm) at `rx` from a transmitter at
    /// `tx` using only path loss (no shadowing, no fading).  Used for coarse
    /// range questions where an expectation is wanted.
    pub fn mean_rx_power_dbm(&self, tx: &Point, rx: &Point) -> f64 {
        let pl_db = self.env.path_loss.path_loss_db(tx.distance(rx));
        self.env.tx_power_dbm - pl_db
    }

    /// Large-scale received power (dBm) at `rx` from a transmitter at `tx`:
    /// path loss plus the frozen shadowing field, no fading.  This is the
    /// quantity carrier sensing and coverage mapping react to on the
    /// measurement timescale (fading averages out).
    pub fn large_scale_rx_power_dbm(&self, tx: &Point, rx: &Point) -> f64 {
        let amp = self.large_scale_amp(tx, rx);
        mw_to_dbm(dbm_to_mw(self.env.tx_power_dbm) * amp * amp)
    }

    /// One random received-power sample (dBm) at `rx` from a transmitter at
    /// `tx`, including shadowing and fading.  Used for dead-zone and
    /// hidden-terminal maps, which the paper builds from measurements.
    pub fn sample_rx_power_dbm(&mut self, tx: &Point, rx: &Point) -> f64 {
        let d = tx.distance(rx);
        let amp = self.large_scale_amp(tx, rx) * self.sample_fading(d).norm();
        mw_to_dbm(dbm_to_mw(self.env.tx_power_dbm) * amp * amp)
    }

    /// Statistics of the SISO link from one antenna position to one client position.
    pub fn link_stats(&self, antenna: &Point, client: &Point) -> LinkStats {
        let d = antenna.distance(client);
        let pl_db = self.env.path_loss.path_loss_db(d);
        let rssi = self.env.tx_power_dbm - pl_db;
        LinkStats {
            distance_m: d,
            mean_rssi_dbm: rssi,
            mean_snr_db: rssi - self.env.noise_floor_dbm,
        }
    }

    /// Generates a full channel realisation between one AP's antennas and the
    /// given clients.
    pub fn realize(&mut self, ap: &Deployment, clients: &[&Client]) -> ChannelMatrix {
        let positions: Vec<Point> = clients.iter().map(|c| c.position).collect();
        self.realize_positions(&ap.antennas, &positions)
    }

    /// Generates a channel realisation between arbitrary antenna positions and
    /// client positions.
    ///
    /// Small-scale fading is *spatially correlated across antennas*: two
    /// antennas separated by centimetres (a CAS array) see nearly the same
    /// multipath and therefore nearly the same fading towards a given client,
    /// while antennas metres apart (DAS) fade independently.  This is the
    /// channel-conditioning difference the paper's "cell capacity" argument
    /// rests on — a CAS channel matrix is poorly conditioned for MU-MIMO even
    /// though its entries have similar magnitudes.
    ///
    /// Each row is [`take_row`](Self::take_row) from the model's sequential
    /// generator followed by [`finish_row`](Self::finish_row).  A caller
    /// that needs only some rows can take every row's raw draws in this
    /// order (cheap), keep the generator state every few rows, and finish a
    /// row later by replaying from the nearest kept state: it gets exactly
    /// the row this method returns.  The network simulator realises its
    /// channel rows that way, on first read.
    pub fn realize_positions(&mut self, antennas: &[Point], clients: &[Point]) -> ChannelMatrix {
        let corr = FadingCorrelation::new(antennas);
        let mut channel = self.blank_matrix(clients.len(), antennas.len());
        let mut rng = self.rng.clone();
        let mut raw = Vec::new();
        for (j, cpos) in clients.iter().enumerate() {
            self.take_row(&mut rng, antennas, cpos, &mut raw);
            self.finish_row(
                &corr,
                antennas,
                cpos,
                &raw,
                channel.h.row_mut(j),
                channel.large_scale.row_mut(j),
            );
        }
        self.rng = rng;
        channel
    }

    /// An all-zero `clients × antennas` matrix carrying this model's
    /// transmit and noise powers — storage for rows realised one by one.
    pub fn blank_matrix(&self, clients: usize, antennas: usize) -> ChannelMatrix {
        ChannelMatrix {
            h: CMat::zeros(clients, antennas),
            large_scale: FMat::zeros(clients, antennas),
            tx_power_mw: dbm_to_mw(self.env.tx_power_dbm),
            noise_mw: dbm_to_mw(self.env.noise_floor_dbm),
        }
    }

    /// The model's sequential generator — the stream
    /// [`realize_positions`](Self::realize_positions) takes its rows from.
    /// A clone of it is a checkpoint a row can later be replayed from.
    pub fn sequential_rng(&self) -> &SimRng {
        &self.rng
    }

    /// Replaces the model's sequential generator, e.g. with a stream that
    /// has taken rows on the model's behalf.
    pub fn set_sequential_rng(&mut self, rng: SimRng) {
        self.rng = rng;
    }

    /// The RNG half of realising one row: takes, from `rng`, the raw values
    /// the row's fading consumes, in order, into `raw` (cleared first).
    ///
    /// Per antenna, one `CN(0, 1)` scattered component: two Box–Muller
    /// draws, each a [`SimRng::nonzero_bits`] value and a plain one.  Then one
    /// phase value per antenna whose link to `client` is Rician
    /// (line-of-sight).  This is the only step that advances the generator,
    /// and it costs a few nanoseconds per value.
    pub fn take_row(
        &self,
        rng: &mut SimRng,
        antennas: &[Point],
        client: &Point,
        raw: &mut Vec<u64>,
    ) {
        raw.clear();
        for _ in 0..2 * antennas.len() {
            raw.push(rng.nonzero_bits());
            raw.push(rng.next_u64());
        }
        for apos in antennas {
            if self.draws_phase(apos, client) {
                raw.push(rng.next_u64());
            }
        }
    }

    /// The pure half of realising one row: turns the raw values
    /// [`take_row`](Self::take_row) took for `client` into the row's
    /// large-scale gains (`g_row`) and composite gains (`h_row`).
    ///
    /// Box–Muller, the antenna-correlation mix, path loss with the frozen
    /// shadowing field and the Rician line-of-sight term.  Consumes no RNG
    /// and allocates nothing.
    pub fn finish_row(
        &self,
        corr: &FadingCorrelation,
        antennas: &[Point],
        client: &Point,
        raw: &[u64],
        h_row: &mut [Complex],
        g_row: &mut [f64],
    ) {
        let n_a = antennas.len();
        assert_eq!(corr.n, n_a, "correlation factor of another antenna set");
        assert!(h_row.len() == n_a && g_row.len() == n_a);
        let scale = std::f64::consts::FRAC_1_SQRT_2;
        // Independent CN(0, 1) components, staged in `h_row`.
        for (z, d) in h_row.iter_mut().zip(raw.chunks_exact(4)) {
            *z = Complex::new(
                SimRng::gaussian_from_bits(d[0], d[1]) * scale,
                SimRng::gaussian_from_bits(d[2], d[3]) * scale,
            );
        }
        // Correlated scattered components, mixed in place from the last
        // antenna down: antenna k reads components 0..=k, which the
        // antennas below it have not overwritten yet.
        for k in (0..n_a).rev() {
            h_row[k] = (0..=k)
                .map(|l| h_row[l].scale(corr.get(k, l)))
                .fold(Complex::ZERO, |acc, x| acc + x);
        }
        let mut phases = raw[4 * n_a..].iter();
        self.large_scale_amps(antennas, client, |k, d, g| {
            let f = match self.fading_kind(d) {
                fading::FadingKind::None => Complex::ONE,
                fading::FadingKind::Rayleigh => h_row[k],
                fading::FadingKind::Rician { k_db } => {
                    let k_lin = 10f64.powf(k_db / 10.0);
                    let bits = *phases.next().expect("a phase value per Rician link");
                    let phase =
                        SimRng::uniform_range_from_bits(0.0, 2.0 * std::f64::consts::PI, bits);
                    Complex::from_polar((k_lin / (k_lin + 1.0)).sqrt(), phase)
                        + h_row[k].scale((1.0 / (k_lin + 1.0)).sqrt())
                }
            };
            g_row[k] = g;
            h_row[k] = f.scale(g);
        });
    }

    /// Evolves a channel realisation forward by `delay_s` seconds using the
    /// environment's coherence time (Gauss–Markov small-scale evolution; the
    /// large-scale part is unchanged).
    pub fn evolve(&mut self, channel: &ChannelMatrix, delay_s: f64) -> ChannelMatrix {
        let mut out = channel.clone();
        self.evolve_in_place(&mut out, delay_s);
        out
    }

    /// In-place variant of [`ChannelModel::evolve`]: updates `channel.h`
    /// without cloning the matrix or its large-scale gains.
    ///
    /// Consumes RNG draws in exactly the same link order as `evolve`, so the
    /// two are bit-interchangeable.  This sequential path serves the
    /// stale-CSI experiments (Fig. 11); the simulator's round loop evolves
    /// through [`evolve_row_counter`](Self::evolve_row_counter) instead.
    pub fn evolve_in_place(&mut self, channel: &mut ChannelMatrix, delay_s: f64) {
        let rho = fading::correlation_for_delay(delay_s, self.env.coherence_time_s);
        for j in 0..channel.num_clients() {
            for k in 0..channel.num_antennas() {
                let g = channel.large_scale.get(j, k);
                if g <= 0.0 {
                    continue;
                }
                // Normalise out the large-scale gain, evolve the unit-power
                // fading coefficient, re-apply the gain.
                let f = channel.h.get(j, k).scale(1.0 / g);
                let f2 = fading::evolve(f, rho, &mut self.rng);
                channel.h.set(j, k, f2.scale(g));
            }
        }
    }

    /// Gauss–Markov correlation over a delay of `delay_s` seconds in this
    /// model's environment — the `rho` of one evolution step.
    pub fn step_correlation(&self, delay_s: f64) -> f64 {
        fading::correlation_for_delay(delay_s, self.env.coherence_time_s)
    }

    /// One counter-keyed Gauss–Markov step over a single channel row — the
    /// simulator's fading engine (see [`CounterRng`]).
    ///
    /// The row's innovations come from the stateless stream keyed by
    /// `(fading_seed, ap, link, round)`, so the update is a pure function of
    /// the key and the row's prior state: the same step can be applied
    /// eagerly, lazily (catching a row up boundary by boundary), or on
    /// another thread and produce identical bits.  `&self`, not `&mut self`
    /// — the model's sequential generator is untouched.
    ///
    /// The update works in the scaled domain: where the sequential path
    /// ([`evolve_in_place`](Self::evolve_in_place)) normalises `h` by the
    /// large-scale gain `g`, evolves the unit-power
    /// coefficient and re-applies `g`, this computes
    /// `h ← rho·h + sqrt(1−rho²)·g·CN(0,1)` directly — the same process
    /// without the divide.  `pairs` is caller-provided scratch (one slot per
    /// antenna) so steady-state evolution allocates nothing.
    #[allow(clippy::too_many_arguments)] // the argument list IS the stream key + row state
    pub fn evolve_row_counter(
        &self,
        h_row: &mut [Complex],
        g_row: &[f64],
        rho: f64,
        ap: u64,
        link: u64,
        round: u64,
        pairs: &mut Vec<(f64, f64)>,
    ) {
        assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
        assert_eq!(h_row.len(), g_row.len());
        if rho >= 1.0 {
            return;
        }
        // Components of CN(0,1) are N(0, 1/2).
        let s = (1.0 - rho * rho).sqrt() * std::f64::consts::FRAC_1_SQRT_2;
        pairs.clear();
        pairs.resize(h_row.len(), (0.0, 0.0));
        let mut stream = CounterRng::from_key([self.fading_seed, ap, link, round]);
        stream.fill_gaussian_pairs(pairs);
        for ((h, &g), &(zr, zi)) in h_row.iter_mut().zip(g_row).zip(pairs.iter()) {
            if g <= 0.0 {
                continue;
            }
            let sg = s * g;
            *h = h.scale(rho) + Complex::new(zr * sg, zi * sg);
        }
    }

    /// Re-derives one client row's large-scale gains after the client moved
    /// to `position`, rescaling the composite coefficients so the unit-power
    /// fading state carries over unchanged.
    ///
    /// The large-scale part (path loss + the frozen shadowing field) is a
    /// pure function of the endpoint positions — no sequential RNG draw is
    /// consumed — so moving one client perturbs nothing else in the model.
    /// That purity is what lets the dynamics layer keep static runs
    /// byte-identical: a model that never sees a move emits exactly the
    /// draws it always did.
    pub fn refresh_large_scale_row(
        &self,
        channel: &mut ChannelMatrix,
        row: usize,
        antennas: &[Point],
        position: &Point,
    ) {
        assert_eq!(antennas.len(), channel.num_antennas());
        self.large_scale_amps(antennas, position, |k, _, g_new| {
            let g_old = channel.large_scale.get(row, k);
            let h = channel.h.get(row, k);
            let h_new = if g_old > 0.0 {
                h.scale(g_new / g_old)
            } else {
                Complex::new(g_new, 0.0)
            };
            channel.large_scale.set(row, k, g_new);
            channel.h.set(row, k, h_new);
        });
    }

    /// Counter-keyed counterpart of [`ChannelModel::evolve_in_place`]:
    /// evolves every row of `channel` by one step keyed at `round`, with
    /// rows keyed by their index under AP lane `ap`.  Convenience for tests
    /// and single-matrix callers; the round loop calls
    /// [`evolve_row_counter`](Self::evolve_row_counter) per touched row.
    pub fn evolve_in_place_counter(
        &self,
        channel: &mut ChannelMatrix,
        delay_s: f64,
        ap: u64,
        round: u64,
        pairs: &mut Vec<(f64, f64)>,
    ) {
        let rho = self.step_correlation(delay_s);
        for j in 0..channel.num_clients() {
            let h_row = channel.h.row_mut(j);
            let g_row = channel.large_scale.row(j);
            self.evolve_row_counter(h_row, g_row, rho, ap, j as u64, round, pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::topology::{single_ap, DeploymentKind, TopologyConfig};
    use crate::Environment;

    fn das_topology(seed: u64) -> (crate::topology::Topology, ChannelModel) {
        let mut rng = SimRng::new(seed);
        let cfg = TopologyConfig::das(4, 4);
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&cfg, region, &mut rng);
        let model = ChannelModel::new(Environment::office_a(), seed);
        (topo, model)
    }

    #[test]
    fn channel_matrix_has_expected_shape() {
        let (topo, mut model) = das_topology(1);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        assert_eq!(ch.num_clients(), 4);
        assert_eq!(ch.num_antennas(), 4);
        assert!(ch.h.is_finite());
    }

    #[test]
    fn closer_links_have_larger_mean_gain() {
        let model = ChannelModel::new(Environment::office_a(), 2);
        let antenna = Point::new(0.0, 0.0);
        let near = model.link_stats(&antenna, &Point::new(2.0, 0.0));
        let far = model.link_stats(&antenna, &Point::new(20.0, 0.0));
        assert!(near.mean_rssi_dbm > far.mean_rssi_dbm);
        assert!(near.mean_snr_db > far.mean_snr_db);
    }

    #[test]
    fn snr_is_positive_at_short_range_in_office_a() {
        let model = ChannelModel::new(Environment::office_a(), 3);
        let stats = model.link_stats(&Point::new(0.0, 0.0), &Point::new(5.0, 0.0));
        assert!(stats.mean_snr_db > 15.0, "SNR {}", stats.mean_snr_db);
    }

    #[test]
    fn antenna_preference_is_sorted_by_gain() {
        let (topo, mut model) = das_topology(4);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        for j in 0..ch.num_clients() {
            let pref = ch.antenna_preference(j);
            assert_eq!(pref.len(), 4);
            for w in pref.windows(2) {
                assert!(ch.large_scale.get(j, w[0]) >= ch.large_scale.get(j, w[1]));
            }
        }
    }

    #[test]
    fn das_channel_is_more_imbalanced_than_cas() {
        // The core structural property the paper exploits: in DAS the spread
        // between a client's best and worst antenna gain is much larger than
        // in CAS.  Compare median dB spreads across topologies.
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let spreads = |kind: DeploymentKind, seed: u64| -> f64 {
            let mut rng = SimRng::new(seed);
            let mut model = ChannelModel::new(Environment::office_a(), seed);
            let mut all = Vec::new();
            for _ in 0..30 {
                let cfg = TopologyConfig {
                    kind,
                    ..TopologyConfig::das(4, 4)
                };
                let topo = single_ap(&cfg, region, &mut rng);
                let clients = topo.clients_of(0);
                let ch = model.realize(&topo.aps[0], &clients);
                for j in 0..ch.num_clients() {
                    let gains: Vec<f64> = (0..4).map(|k| ch.mean_rssi_dbm(j, k)).collect();
                    let max = gains.iter().cloned().fold(f64::MIN, f64::max);
                    let min = gains.iter().cloned().fold(f64::MAX, f64::min);
                    all.push(max - min);
                }
            }
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            all[all.len() / 2]
        };
        let das_spread = spreads(DeploymentKind::Das, 10);
        let cas_spread = spreads(DeploymentKind::Cas, 10);
        assert!(
            das_spread > cas_spread + 3.0,
            "DAS spread {das_spread:.1} dB should exceed CAS spread {cas_spread:.1} dB"
        );
    }

    #[test]
    fn evolve_with_zero_delay_keeps_channel() {
        let (topo, mut model) = das_topology(5);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let same = model.evolve(&ch, 0.0);
        assert!(same.h.approx_eq(&ch.h, 1e-12));
    }

    #[test]
    fn evolve_with_long_delay_decorrelates() {
        let (topo, mut model) = das_topology(6);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let later = model.evolve(&ch, 10.0); // >> coherence time
                                             // Large-scale structure retained, small-scale changed.
        assert_eq!(later.large_scale, ch.large_scale);
        assert!(!later.h.approx_eq(&ch.h, 1e-6));
    }

    #[test]
    fn select_restricts_rows_and_columns() {
        let (topo, mut model) = das_topology(7);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let sub = ch.select(&[1, 3], &[0, 2]);
        assert_eq!(sub.num_clients(), 2);
        assert_eq!(sub.num_antennas(), 2);
        assert_eq!(sub.h.get(0, 0), ch.h.get(1, 0));
        assert_eq!(sub.h.get(1, 1), ch.h.get(3, 2));
        assert_eq!(sub.large_scale.get(0, 1), ch.large_scale.get(1, 2));
    }

    #[test]
    fn refresh_large_scale_row_is_pure_and_preserves_fading() {
        let (topo, mut model) = das_topology(9);
        let clients = topo.clients_of(0);
        let mut ch = model.realize(&topo.aps[0], &clients);
        let before = ch.clone();
        let antennas = &topo.aps[0].antennas;
        let new_pos = Point::new(11.5, 7.25);
        model.refresh_large_scale_row(&mut ch, 1, antennas, &new_pos);
        for (k, antenna) in antennas.iter().enumerate() {
            // The new gains are exactly the frozen field at the new position.
            let expected_dbm = model.large_scale_rx_power_dbm(antenna, &new_pos);
            assert!((ch.mean_rssi_dbm(1, k) - expected_dbm).abs() < 1e-9);
            // The unit-power fading coefficient carried over unchanged.
            let f_old = before.h.get(1, k).scale(1.0 / before.large_scale.get(1, k));
            let f_new = ch.h.get(1, k).scale(1.0 / ch.large_scale.get(1, k));
            assert!((f_old - f_new).norm() < 1e-12);
            // Other rows are untouched.
            assert_eq!(ch.h.get(0, k), before.h.get(0, k));
            assert_eq!(ch.large_scale.get(2, k), before.large_scale.get(2, k));
        }
        // Moving back restores the original gains bit-for-bit in the
        // large-scale part (pure function of positions).
        let home = clients[1].position;
        model.refresh_large_scale_row(&mut ch, 1, antennas, &home);
        for k in 0..ch.num_antennas() {
            assert!((ch.large_scale.get(1, k) - before.large_scale.get(1, k)).abs() < 1e-15);
        }
    }

    #[test]
    fn shared_shadowing_cells_give_the_per_antenna_gains_bit_for_bit() {
        let mut rng = SimRng::new(0x5AD0);
        // Antennas alternating across a shadowing-cell boundary (x = 1 m),
        // then random CAS- and DAS-like sets.
        let straddling: Vec<Point> = [0.98, 1.02, 1.02, 0.98, 0.98]
            .iter()
            .map(|&x| Point::new(x, 4.0))
            .collect();
        let mut cases = vec![(straddling, vec![Point::new(9.0, 3.0), Point::new(1.0, 4.5)])];
        cases.extend((0..30).map(|_| random_links(&mut rng)));
        for (trial, (antennas, clients)) in cases.iter().enumerate() {
            let mut model = ChannelModel::new(Environment::office_a(), trial as u64);
            let mut ch = model.realize_positions(antennas, clients);
            for (j, client) in clients.iter().enumerate() {
                let direct: Vec<u64> = antennas
                    .iter()
                    .map(|a| model.large_scale_amp(a, client).to_bits())
                    .collect();
                let realised: Vec<u64> =
                    ch.large_scale.row(j).iter().map(|g| g.to_bits()).collect();
                assert_eq!(realised, direct, "trial {trial} client {j}: realised");
                model.refresh_large_scale_row(&mut ch, j, antennas, &Point::new(7.0, -2.0));
                model.refresh_large_scale_row(&mut ch, j, antennas, client);
                let refreshed: Vec<u64> =
                    ch.large_scale.row(j).iter().map(|g| g.to_bits()).collect();
                assert_eq!(refreshed, direct, "trial {trial} client {j}: refreshed");
            }
        }
    }

    /// Random antenna sets (a tight CAS-like cluster or spread DAS-like
    /// antennas) and clients, some within line-of-sight range of an antenna.
    fn random_links(rng: &mut SimRng) -> (Vec<Point>, Vec<Point>) {
        let n_a = 1 + rng.uniform_usize(6);
        let spread = if rng.bernoulli(0.5) { 0.1 } else { 12.0 };
        let antennas: Vec<Point> = (0..n_a)
            .map(|_| {
                Point::new(
                    rng.uniform_range(0.0, spread),
                    rng.uniform_range(0.0, spread),
                )
            })
            .collect();
        let clients = (0..1 + rng.uniform_usize(40))
            .map(|_| {
                let near = antennas[rng.uniform_usize(n_a)];
                let reach = if rng.bernoulli(0.3) { 3.0 } else { 30.0 };
                Point::new(
                    near.x + rng.uniform_range(-reach, reach),
                    near.y + rng.uniform_range(-reach, reach),
                )
            })
            .collect();
        (antennas, clients)
    }

    /// Row realisation drawn straight from the model's generator, sample by
    /// sample, without the take/finish split: the reference the split is
    /// checked against.
    fn direct_realisation(
        model: &mut ChannelModel,
        antennas: &[Point],
        clients: &[Point],
    ) -> ChannelMatrix {
        let corr = FadingCorrelation::new(antennas);
        let mut out = model.blank_matrix(clients.len(), antennas.len());
        for (j, cpos) in clients.iter().enumerate() {
            let z: Vec<Complex> = antennas
                .iter()
                .map(|_| fading::sample_cn01(&mut model.rng))
                .collect();
            for (k, apos) in antennas.iter().enumerate() {
                let scattered = (0..=k)
                    .map(|l| z[l].scale(corr.get(k, l)))
                    .fold(Complex::ZERO, |acc, x| acc + x);
                let g = model.large_scale_amp(apos, cpos);
                let f = match model.fading_kind(apos.distance(cpos)) {
                    fading::FadingKind::None => Complex::ONE,
                    fading::FadingKind::Rayleigh => scattered,
                    fading::FadingKind::Rician { k_db } => {
                        let k_lin = 10f64.powf(k_db / 10.0);
                        let phase = model.rng.uniform_range(0.0, 2.0 * std::f64::consts::PI);
                        Complex::from_polar((k_lin / (k_lin + 1.0)).sqrt(), phase)
                            + scattered.scale((1.0 / (k_lin + 1.0)).sqrt())
                    }
                };
                out.large_scale.set(j, k, g);
                out.h.set(j, k, f.scale(g));
            }
        }
        out
    }

    #[test]
    fn realize_positions_equals_the_direct_draws_bit_for_bit() {
        let mut rng = SimRng::new(0xD12E);
        for trial in 0..40 {
            let env = Environment::office_a();
            let (antennas, clients) = random_links(&mut rng);
            let mut split = ChannelModel::new(env, trial);
            let mut direct = ChannelModel::new(env, trial);
            let a = split.realize_positions(&antennas, &clients);
            let b = direct_realisation(&mut direct, &antennas, &clients);
            let bits = |m: &ChannelMatrix| -> Vec<u64> {
                m.h.data()
                    .iter()
                    .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                    .chain(m.large_scale.data().iter().map(|g| g.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&a), bits(&b), "trial {trial}");
            assert_eq!(split.rng.next_u64(), direct.rng.next_u64(), "trial {trial}");
        }
    }

    #[test]
    fn rows_finished_from_checkpoints_in_any_order_equal_realize_positions() {
        const EVERY: usize = 4;
        let mut rng = SimRng::new(0x7A4E);
        let mut los_rows = 0;
        for trial in 0..60 {
            let env = Environment::office_a();
            let (antennas, clients) = random_links(&mut rng);
            let eager = ChannelModel::new(env, trial).realize_positions(&antennas, &clients);

            // Take every row's raw draws, keeping the generator every
            // `EVERY` rows.
            let lazy = ChannelModel::new(env, trial);
            let mut stream = lazy.sequential_rng().clone();
            let mut checkpoints = Vec::new();
            let mut raw = Vec::new();
            for (j, c) in clients.iter().enumerate() {
                if j % EVERY == 0 {
                    checkpoints.push(stream.clone());
                }
                lazy.take_row(&mut stream, &antennas, c, &mut raw);
                los_rows += usize::from(raw.len() > 4 * antennas.len());
            }

            // Finish a random subset in a random order, each row replayed
            // from its own checkpoint.
            let corr = FadingCorrelation::new(&antennas);
            let mut order: Vec<usize> = (0..clients.len()).collect();
            rng.shuffle(&mut order);
            order.truncate(1 + rng.uniform_usize(clients.len()));
            let mut h_row = vec![Complex::ZERO; antennas.len()];
            let mut g_row = vec![0.0; antennas.len()];
            for &j in &order {
                let mut replay = checkpoints[j / EVERY].clone();
                for c in &clients[j - j % EVERY..j] {
                    lazy.take_row(&mut replay, &antennas, c, &mut raw);
                }
                lazy.take_row(&mut replay, &antennas, &clients[j], &mut raw);
                lazy.finish_row(&corr, &antennas, &clients[j], &raw, &mut h_row, &mut g_row);
                for k in 0..antennas.len() {
                    let (h, e) = (h_row[k], eager.h.get(j, k));
                    assert_eq!(
                        (h.re.to_bits(), h.im.to_bits()),
                        (e.re.to_bits(), e.im.to_bits()),
                        "trial {trial}, row {j}, antenna {k}"
                    );
                    assert_eq!(g_row[k].to_bits(), eager.large_scale.get(j, k).to_bits());
                }
            }
        }
        assert!(los_rows > 0, "no line-of-sight row was exercised");
    }

    #[test]
    fn stepping_rows_leaves_the_generator_where_realize_positions_does() {
        let mut rng = SimRng::new(0x57E9);
        for trial in 0..40 {
            let env = Environment::office_a();
            let (antennas, clients) = random_links(&mut rng);
            let mut eager = ChannelModel::new(env, trial);
            eager.realize_positions(&antennas, &clients);

            let lazy = ChannelModel::new(env, trial);
            let mut stream = lazy.sequential_rng().clone();
            let mut raw = Vec::new();
            for c in &clients {
                lazy.take_row(&mut stream, &antennas, c, &mut raw);
            }
            let mut after = eager.sequential_rng().clone();
            for _ in 0..4 {
                assert_eq!(stream.next_u64(), after.next_u64(), "trial {trial}");
            }
        }
    }

    #[test]
    fn sampled_rx_power_scatter_around_mean() {
        let mut model = ChannelModel::new(Environment::office_a(), 8);
        let tx = Point::new(0.0, 0.0);
        let rx = Point::new(10.0, 0.0);
        let mean = model.mean_rx_power_dbm(&tx, &rx);
        let n = 4000;
        let avg: f64 = (0..n)
            .map(|_| model.sample_rx_power_dbm(&tx, &rx))
            .sum::<f64>()
            / n as f64;
        // Shadowing + fading in dB domain biases the dB-average slightly below
        // the deterministic mean; just require the samples to be centred in a
        // plausible band around it.
        assert!((avg - mean).abs() < 6.0, "avg {avg} vs mean {mean}");
    }
}
