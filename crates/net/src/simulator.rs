//! Round-based end-to-end network simulator (Figs. 15 and 16).
//!
//! The simulator plays out full-buffer downlink traffic in a multi-AP network
//! over a sequence of TXOP rounds.  Within a round the APs attempt channel
//! access in a random order (standing in for the backoff race); an AP — or in
//! MIDAS, each of its distributed antennas — joins the round only if it does
//! not carrier-sense a transmitter that already won the round.  Winning APs
//! select clients (MIDAS: virtual packet tagging + antenna-specific DRR; CAS:
//! fairness-only), precode (MIDAS: power-balanced; CAS: naïve global scaling)
//! and the resulting per-client SINRs include *cross-AP interference* from
//! every other concurrent transmission, so more spatial reuse only pays off
//! when the interference geometry allows it — exactly the trade-off §5.4
//! discusses.

use crate::capture::ContentionModel;
use crate::contention::ContentionGraph;
use crate::dynamics::{DynamicsSpec, DynamicsState};
use crate::metrics::Cdf;
use crate::observer::{Accumulate, Observer, RoundRecord};
use crate::scale::index::SpatialIndex;
use crate::traffic::{FullBuffer, TrafficKind, TrafficModel};
use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{ChannelMatrix, ChannelModel, Environment, FadingCorrelation, SimRng};
use midas_linalg::{CMat, Complex};
use midas_mac::client_select::{select_clients_cas, select_clients_midas};
use midas_mac::drr::DrrScheduler;
use midas_mac::tagging::TagTable;
use midas_mac::timing::DEFAULT_TXOP_US;
use midas_phy::capacity::shannon_capacity_bps_hz;
use midas_phy::precoder::{make_precoder, Precoder, PrecoderKind};
use std::time::Instant;

/// Which MAC discipline the APs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacKind {
    /// MIDAS: per-antenna carrier sensing, packet tagging, DRR per antenna.
    Midas,
    /// CAS baseline: single channel state, all antennas, fairness-only selection.
    Cas,
}

/// How the simulator answers "who is near this point?" — carrier-sense and
/// cross-AP interference neighbourhoods.
///
/// Both modes apply the same interaction-range truncation and visit the
/// surviving points in the same (insertion) order, so they produce
/// **bit-identical** results; the property tests in `tests/proptest_scale.rs`
/// pin that equivalence.  `Indexed` is the default: O(n·k) per round via the
/// uniform-grid [`SpatialIndex`] instead of the O(n²) pairwise sweeps, which
/// is what keeps 64-AP / 512-client floors tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Uniform-grid spatial-index neighbourhood queries (default).
    Indexed,
    /// Reference all-pairs sweep, kept for equivalence testing.
    BruteForce,
}

/// Configuration of an end-to-end simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSimConfig {
    /// Propagation environment.
    pub env: Environment,
    /// MAC discipline.
    pub mac: MacKind,
    /// Precoder used by every AP.
    pub precoder: PrecoderKind,
    /// Number of TXOP rounds simulated.
    pub rounds: usize,
    /// Number of antennas each client's packets are tagged with (MIDAS only).
    pub tag_width: usize,
    /// Random seed for channel realisations and access order.
    pub seed: u64,
    /// Radio interaction range (metres): a transmitter farther than this
    /// from a sensing antenna contributes nothing to carrier sensing, and a
    /// transmission whose antennas are all farther than this from a client
    /// contributes no interference.  `f64::INFINITY` (the constructor
    /// default, matching the paper-scale figures) disables truncation;
    /// enterprise scenarios set it from `Environment::interaction_range_m`.
    pub interaction_range_m: f64,
    /// Neighbourhood scan implementation (results are bit-identical).
    pub scan: ScanMode,
    /// Channel-realisation cache length in rounds: channels evolve (fresh
    /// fading draws) only every this-many rounds, covering the elapsed time
    /// in one step.  `1` (the constructor default) evolves every round;
    /// larger values model a coherence interval longer than one TXOP and
    /// skip the evolution work on the cached rounds entirely.
    pub coherence_interval_rounds: usize,
    /// Contention semantics: the legacy binary carrier-sense graph
    /// (default, bit-identical to the pre-capture simulator) or the
    /// physical energy-detect + SINR-capture model (`crate::capture`).
    pub contention: ContentionModel,
    /// Worker threads for the fading stage's channel evolution (`1`, the
    /// constructor default, stays on the calling thread).  Results are
    /// bit-identical at any thread count — draws are keyed, not sequenced —
    /// which `tests/proptest_fading.rs` pins.
    pub evolve_threads: usize,
    /// Long-horizon dynamics: client mobility and per-round roaming (see
    /// [`crate::dynamics`]).  `None` (the constructor default) is the
    /// static simulator, byte-identical to every pre-dynamics golden; any
    /// `Some` switches the per-AP channels to dense rows (every client has
    /// a row at every AP) so moving and roaming clients always have channel
    /// state wherever they end up.
    pub dynamics: Option<DynamicsSpec>,
}

impl NetworkSimConfig {
    /// The MIDAS system configuration (DAS topology expected).
    pub fn midas(env: Environment, seed: u64) -> Self {
        NetworkSimConfig {
            env,
            mac: MacKind::Midas,
            precoder: PrecoderKind::PowerBalanced,
            rounds: 20,
            tag_width: 2,
            seed,
            interaction_range_m: f64::INFINITY,
            scan: ScanMode::Indexed,
            contention: ContentionModel::Graph,
            coherence_interval_rounds: 1,
            evolve_threads: 1,
            dynamics: None,
        }
    }

    /// The conventional 802.11ac CAS configuration.
    pub fn cas(env: Environment, seed: u64) -> Self {
        NetworkSimConfig {
            env,
            mac: MacKind::Cas,
            precoder: PrecoderKind::NaiveScaled,
            rounds: 20,
            tag_width: 2,
            seed,
            interaction_range_m: f64::INFINITY,
            scan: ScanMode::Indexed,
            contention: ContentionModel::Graph,
            coherence_interval_rounds: 1,
            evolve_threads: 1,
            dynamics: None,
        }
    }

    /// Cell size the simulator's spatial indices use: the interaction range
    /// (radius-`r` queries then touch at most a 3×3 window).
    fn index_cell_m(&self) -> f64 {
        self.interaction_range_m
    }

    /// Whether the indexed scan actually runs.  With an infinite interaction
    /// range a neighbourhood query degenerates to "every point" — provably
    /// the same result, but the query/sort machinery would be pure overhead
    /// on the paper-scale figures — so the index is only engaged when a
    /// finite range gives it something to prune.
    fn use_index(&self) -> bool {
        self.scan == ScanMode::Indexed && self.interaction_range_m.is_finite()
    }
}

/// Result of simulating one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyResult {
    /// Aggregate network capacity per round (bit/s/Hz summed over all
    /// concurrent streams).
    pub per_round_capacity: Vec<f64>,
    /// Number of concurrent streams per round.
    pub per_round_streams: Vec<usize>,
    /// Total service time credited to each client (µs), for fairness checks.
    pub per_client_airtime_us: Vec<f64>,
    /// Capacity delivered to each client, summed over all rounds
    /// (bit/s/Hz) — the per-client series whose pooled CDF the paper's
    /// Fig. 16 plots (a client far from its CAS array vs the same client
    /// near a distributed antenna).
    pub per_client_capacity: Vec<f64>,
    /// Capacity attributed to each AP, summed over all rounds (bit/s/Hz) —
    /// the per-AP diagnostic behind the Fig. 16 calibration work: it shows
    /// which APs in a large floor are starved by contention vs drowned in
    /// cross-AP interference.
    pub per_ap_capacity: Vec<f64>,
    /// Rounds in which each AP (any of its antennas) transmitted.
    pub per_ap_active_rounds: Vec<usize>,
}

impl TopologyResult {
    /// Mean aggregate network capacity over the rounds (the per-topology value
    /// whose CDF Figs. 15 and 16 plot); 0.0 for a zero-round run.
    pub fn mean_capacity(&self) -> f64 {
        if self.per_round_capacity.is_empty() {
            return 0.0;
        }
        Cdf::new(&self.per_round_capacity).mean()
    }

    /// Mean number of concurrent streams per round.
    pub fn mean_streams(&self) -> f64 {
        if self.per_round_streams.is_empty() {
            return 0.0;
        }
        self.per_round_streams.iter().sum::<usize>() as f64 / self.per_round_streams.len() as f64
    }

    /// Mean capacity attributed to each AP per round (bit/s/Hz) — zero for
    /// APs that never won channel access.
    pub fn per_ap_mean_capacity(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_ap_capacity.iter().map(|c| c / rounds).collect()
    }

    /// Mean capacity delivered to each client per round (bit/s/Hz) — zero
    /// for clients that were never served (or whose every frame collided).
    pub fn per_client_mean_capacity(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_client_capacity
            .iter()
            .map(|c| c / rounds)
            .collect()
    }

    /// Fraction of rounds each AP managed to transmit in; all zeros for a
    /// zero-round run.
    pub fn per_ap_duty_cycle(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_ap_active_rounds
            .iter()
            .map(|&r| r as f64 / rounds)
            .collect()
    }

    /// Jain fairness index of the per-client airtime.  Well-defined on any
    /// run: a zero-round (or never-served) run has uniformly zero airtime,
    /// which is perfectly fair, so it reports 1.0 rather than the 0/0 NaN
    /// the raw formula would produce.
    pub fn airtime_fairness(&self) -> f64 {
        let x = &self.per_client_airtime_us;
        let n = x.len() as f64;
        let sum: f64 = x.iter().sum();
        let sum_sq: f64 = x.iter().map(|v| v * v).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (n * sum_sq)
    }
}

/// Cumulative wall-clock spent in each stage of the round pipeline,
/// accumulated in the round workspace when stage profiling is enabled
/// (see [`NetworkSimulator::with_stage_profiling`]) and surfaced through
/// [`NetworkSimulator::stage_timings`] and [`Observer::on_finish`].
///
/// All-zero when profiling is off — the hot path then never reads a clock.
/// The gather of per-stream interferer neighbourhoods is attributed to
/// `evaluate_s` (it is the evaluate stage's discovery half, hoisted so the
/// fading stage knows which rows the round will read).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Dynamics: mobility, roaming and the MAC-state rebuilds they trigger,
    /// including the large-scale refresh of re-tagged own rows (0.0 when
    /// dynamics are off).
    pub dynamics_s: f64,
    /// Channel evolution: lazy large-scale refresh and keyed catch-up of
    /// the rows the round reads.
    pub evolve_s: f64,
    /// Carrier sensing against the antennas already on the air.
    pub sense_s: f64,
    /// Access-order shuffle, backlog queries, client selection, slot claims.
    pub select_s: f64,
    /// Per-slot precoding.
    pub precode_s: f64,
    /// Interferer gather + SINR/capacity computation.
    pub evaluate_s: f64,
    /// DRR fairness and traffic-queue bookkeeping.
    pub settle_s: f64,
    /// Rounds profiled into these totals.
    pub rounds: usize,
}

impl StageTimings {
    /// Total wall-clock across all stages.
    pub fn total_s(&self) -> f64 {
        self.dynamics_s
            + self.evolve_s
            + self.sense_s
            + self.select_s
            + self.precode_s
            + self.evaluate_s
            + self.settle_s
    }

    /// The stages as `(name, seconds)` pairs in pipeline order — the single
    /// place the stage names are spelled, so telemetry encoders (the
    /// capacity-planning service's JSONL stream, the pipeline bench's
    /// profile printout) cannot drift from the struct.
    pub fn stages(&self) -> [(&'static str, f64); 7] {
        [
            ("dynamics", self.dynamics_s),
            ("evolve", self.evolve_s),
            ("sense", self.sense_s),
            ("select", self.select_s),
            ("precode", self.precode_s),
            ("evaluate", self.evaluate_s),
            ("settle", self.settle_s),
        ]
    }
}

/// `Some(now)` when stage profiling is on — the pipeline's "maybe read the
/// clock" primitive.
#[inline]
fn tick(enabled: bool) -> Option<Instant> {
    // lint: allow(wall-clock) — stage profiling only: `tick` returns None (and the
    // hot path never reads a clock) unless `with_stage_profiling` was requested.
    enabled.then(Instant::now)
}

/// Seconds since a [`tick`], `0.0` when profiling was off.
#[inline]
fn secs_since(start: Option<Instant>) -> f64 {
    start.map_or(0.0, |s| s.elapsed().as_secs_f64())
}

/// One concurrent transmission inside a round.
///
/// Lives in the workspace's slot pool: the index buffers are cleared and
/// refilled round over round (retaining capacity), only the precoding matrix
/// is replaced wholesale (the precoder produces a fresh one).
struct ActiveTransmission {
    ap_id: usize,
    /// AP-local indices of the antennas used.
    antenna_idx: Vec<usize>,
    /// Topology-wide client indices served, aligned with precoder columns.
    clients: Vec<usize>,
    /// Precoding matrix (antennas × streams).
    v: CMat,
}

impl ActiveTransmission {
    fn empty() -> Self {
        ActiveTransmission {
            ap_id: 0,
            antenna_idx: Vec::new(),
            clients: Vec::new(),
            v: CMat::zeros(0, 0),
        }
    }
}

/// All per-round scratch of the staged round pipeline
/// (`dynamics → backlog → sense → select → gather → fading → precode →
/// evaluate → settle`).
///
/// The simulator owns exactly one of these and threads it through every
/// stage; every buffer is cleared — never reallocated — between rounds, the
/// spatial indexes are emptied in place, and the global↔local client id maps
/// are prebuilt at construction time.  Once warm, a steady-state round
/// allocates nothing from this struct (the remaining per-round allocations
/// are the precoder's internal matrices and the small selection vectors the
/// `midas-mac` helpers return); `NetworkSimulator::workspace_heap_footprint_bytes`
/// exposes the retained capacity so tests can pin that it stops growing.
#[derive(Default)]
struct RoundWorkspace {
    /// AP access order, reshuffled every round (the backoff race).
    order: Vec<usize>,
    /// Positions of the antennas already on the air this round.
    active_antenna_positions: Vec<Point>,
    /// Persistent spatial mirror of `active_antenna_positions` supporting
    /// O(k) "who can I hear?" queries; ids are insertion-ordered, so folding
    /// over a neighbourhood reproduces the brute-force sweep bit-for-bit.
    /// `None` when the indexed scan is disabled.
    active_index: Option<SpatialIndex>,
    /// Persistent index over the round's transmitting antennas, for the
    /// cross-AP interferer lookup in the evaluate stage.
    interferer_index: Option<SpatialIndex>,
    /// Active-antenna id (insertion order) → index into the live
    /// transmissions, aligned with `interferer_index`.
    tx_of_antenna: Vec<usize>,
    /// Backlogged AP-local client ids (traffic-model query scratch).
    backlogged: Vec<usize>,
    /// Antennas of the AP currently planning that cleared carrier sense.
    available: Vec<usize>,
    /// Shared scratch for every spatial neighbourhood query of the round.
    neighbors: Vec<usize>,
    /// Deduped interfering-transmission ids for one stream.
    interferers: Vec<usize>,
    /// Transmission slot pool; `live` slots are current this round, the
    /// rest keep their buffers for later rounds.
    transmissions: Vec<ActiveTransmission>,
    live: usize,
    /// `(client, serving AP, capacity)` triples of the current round.
    capacities: Vec<(usize, usize, f64)>,
    /// AP ids transmitting this round (observer record scratch).
    transmitting_aps: Vec<usize>,
    /// Settle-stage scratch: served / unserved AP-local ids and the
    /// membership mask that replaces the old quadratic `contains` scan.
    served: Vec<usize>,
    unserved: Vec<usize>,
    served_mask: Vec<bool>,
    /// Per-AP global ids of the AP's own clients, in id order — prebuilt so
    /// neither construction nor the round loop re-filters the client list.
    own_clients: Vec<Vec<usize>>,
    /// Global client id → AP-local index within its owning AP.
    local_of: Vec<u32>,
    /// Dynamics-stage scratch: APs whose membership changed this step
    /// (DRR and tags rebuilt) and APs whose tag tables went stale because
    /// an own client moved (tags rebuilt).
    dirty_membership: Vec<bool>,
    dirty_tags: Vec<bool>,
    /// Dynamics-stage scratch: one AP's own-client mean RSSI table,
    /// row-major (client × antenna), for the in-place tag rebuild.
    rssi: Vec<f64>,
    /// Flattened interfering-transmission ids of every stream this round,
    /// in stream order (gather stage output, evaluate stage input).
    stream_interferers: Vec<usize>,
    /// Per-stream end offsets into `stream_interferers`, in stream order.
    stream_bounds: Vec<usize>,
    /// `(ap, client)` channel rows the current round reads — the counter
    /// engine's active set (serving rows plus interferer rows).
    touched: Vec<(u32, u32)>,
    /// Gaussian-pair scratch of the serial counter evolve path.
    pairs: Vec<(f64, f64)>,
    /// Raw-draw scratch of lazy row realisation ([`ApChannel::realise`]).
    draws: Vec<u64>,
    /// Evolved-row staging of the parallel counter evolve path: each job
    /// writes its row into a disjoint segment, copied back serially.
    evolve_scratch: Vec<Complex>,
    /// Per-job segment offsets into `evolve_scratch` (prefix sums).
    job_offsets: Vec<usize>,
    /// Stage wall-clock totals (all-zero unless profiling is enabled).
    timings: StageTimings,
}

impl RoundWorkspace {
    /// Builds the workspace for a topology: id maps prebuilt, spatial
    /// indexes constructed (empty) when the indexed scan is active.
    fn for_simulator(topo: &Topology, config: &NetworkSimConfig) -> Self {
        let mut own_clients: Vec<Vec<usize>> = vec![Vec::new(); topo.aps.len()];
        let mut local_of = vec![0u32; topo.clients.len()];
        for c in &topo.clients {
            local_of[c.id] = own_clients[c.ap_id].len() as u32;
            own_clients[c.ap_id].push(c.id);
        }
        let make_index = || {
            config
                .use_index()
                .then(|| SpatialIndex::new(topo.region, config.index_cell_m()))
        };
        RoundWorkspace {
            active_index: make_index(),
            interferer_index: make_index(),
            own_clients,
            local_of,
            ..RoundWorkspace::default()
        }
    }

    /// Bytes of heap the workspace retains (capacities, not lengths).  The
    /// precoding matrices inside the slot pool are excluded: they are
    /// replaced — not reused — every round, so their size reflects the last
    /// round's stream counts rather than retained scratch.
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let idx =
            |i: &Option<SpatialIndex>| i.as_ref().map_or(0, SpatialIndex::heap_footprint_bytes);
        self.order.capacity() * size_of::<usize>()
            + self.active_antenna_positions.capacity() * size_of::<Point>()
            + idx(&self.active_index)
            + idx(&self.interferer_index)
            + self.tx_of_antenna.capacity() * size_of::<usize>()
            + self.backlogged.capacity() * size_of::<usize>()
            + self.available.capacity() * size_of::<usize>()
            + self.neighbors.capacity() * size_of::<usize>()
            + self.interferers.capacity() * size_of::<usize>()
            + self.transmissions.capacity() * size_of::<ActiveTransmission>()
            + self
                .transmissions
                .iter()
                .map(|t| (t.antenna_idx.capacity() + t.clients.capacity()) * size_of::<usize>())
                .sum::<usize>()
            + self.capacities.capacity() * size_of::<(usize, usize, f64)>()
            + self.transmitting_aps.capacity() * size_of::<usize>()
            + self.served.capacity() * size_of::<usize>()
            + self.unserved.capacity() * size_of::<usize>()
            + self.served_mask.capacity() * size_of::<bool>()
            + self.own_clients.capacity() * size_of::<Vec<usize>>()
            + self
                .own_clients
                .iter()
                .map(|v| v.capacity() * size_of::<usize>())
                .sum::<usize>()
            + self.local_of.capacity() * size_of::<u32>()
            + self.dirty_membership.capacity() * size_of::<bool>()
            + self.dirty_tags.capacity() * size_of::<bool>()
            + self.rssi.capacity() * size_of::<f64>()
            + self.stream_interferers.capacity() * size_of::<usize>()
            + self.stream_bounds.capacity() * size_of::<usize>()
            + self.touched.capacity() * size_of::<(u32, u32)>()
            + self.pairs.capacity() * size_of::<(f64, f64)>()
            + self.draws.capacity() * size_of::<u64>()
            + self.evolve_scratch.capacity() * size_of::<Complex>()
            + self.job_offsets.capacity() * size_of::<usize>()
    }
}

/// Rows between two kept states of the model's sequential generator.  A row
/// realised on first read is replayed from the nearest kept state at or
/// below it, re-taking the raw draws of at most this many − 1 rows before it
/// (≈ 55 ns each); one kept state (32 B) costs 2 B per row.
const ROWS_PER_CHECKPOINT: usize = 16;

/// `slot` of a held row whose fading has not been drawn yet.
const UNDRAWN: u32 = u32::MAX;

/// One AP's channel state, restricted to the clients in radio range.
///
/// With a finite interaction range an AP's signal is unreadable — and its
/// interference untruncated-zero — at clients beyond the cutoff, so there is
/// no reason to realise, store or evolve those rows: per-AP channel state
/// shrinks from O(all clients) to O(clients in range), which is what turns
/// the simulator's per-round cost from O(n²) into O(n·k) at enterprise
/// scale.  Held row `r` belongs to global client `clients[r]`; a client's
/// row is looked up in that ascending list, so the index costs 4 bytes per
/// row and nothing per out-of-range client.
///
/// A row's fading is drawn only when something first reads it, through
/// [`realise`](Self::realise), and only then is it stored: `ch` holds the
/// drawn rows in draw order and `slot` maps each held row to its storage
/// row.  Construction takes every row's raw draws from the model's
/// sequential generator in the eager order and keeps the generator state
/// every [`ROWS_PER_CHECKPOINT`] rows, so a row realised late — at its
/// client's setup position — holds exactly the bits eager realisation gave
/// it, and the lazy large-scale refresh and keyed catch-up then proceed as
/// if it had been realised at construction.  A held row costs 10 bytes
/// (client id, slot, checkpoint share); a drawn row adds its antenna-wide
/// `h` and `large_scale` rows and its bookkeeping.
struct ApChannel {
    /// Drawn rows only, in draw order (storage row `s` is the `s`-th row
    /// drawn).
    ch: ChannelMatrix,
    /// Held row → global client id, strictly ascending: every client within
    /// the interaction range of any of this AP's antennas, plus the AP's own
    /// clients (all clients when rows are dense).
    clients: Vec<u32>,
    /// Held row → storage row in `ch`; [`UNDRAWN`] until the row is drawn.
    slot: Vec<u32>,
    /// Per storage row, the next evolution boundary (round number).  A row
    /// whose entry is `b` has absorbed every keyed innovation for
    /// boundaries `< b`; lazy catch-up replays boundaries `b, b+interval, …`
    /// up to the current round before the row is read.  0 when the row is
    /// drawn (the initial realisation has seen no evolution).
    next_boundary: Vec<u64>,
    /// Per storage row, the position version of the large-scale gains: a
    /// row whose entry differs from its client's current version (see
    /// [`DynamicsState::position_versions`]) has gains from an older
    /// position and is refreshed just before it is read.  `None` when
    /// dynamics are off (positions never change).
    g_version: Option<Vec<u64>>,
    /// Sequential-generator state before held rows `0, K, 2K, …`
    /// (`K` = [`ROWS_PER_CHECKPOINT`]).
    checkpoints: Vec<SimRng>,
    /// The AP's antenna fading correlation, shared by all its rows.
    corr: FadingCorrelation,
}

impl ApChannel {
    /// Held row of global client `client`.  Panics when the client is out
    /// of radio range of every antenna of this AP (its channel is never
    /// read).
    fn row(&self, client: usize) -> usize {
        let id = u32::try_from(client).ok();
        // Dense rows list every client in id order, so row == client; that
        // probe answers them in O(1) and leaves sparse rows to the search.
        if id.is_some() && self.clients.get(client).copied() == id {
            return client;
        }
        id.and_then(|c| self.clients.binary_search(&c).ok())
            .expect("channel row requested for an out-of-range client")
    }

    /// Storage row in `ch` of global client `client`, whose row must have
    /// been drawn.
    fn stored(&self, client: usize) -> usize {
        let slot = self.slot[self.row(client)];
        debug_assert_ne!(slot, UNDRAWN, "read of an undrawn row");
        slot as usize
    }

    /// Bytes of heap this AP's channel state retains (vector and matrix
    /// capacities).  The exhaustive destructure makes a new field a compile
    /// error here until it is accounted for.
    #[cfg(test)]
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let ApChannel {
            ch,
            clients,
            slot,
            next_boundary,
            g_version,
            checkpoints,
            corr,
        } = self;
        ch.h.heap_bytes()
            + ch.large_scale.heap_bytes()
            + (clients.capacity() + slot.capacity()) * size_of::<u32>()
            + (next_boundary.capacity() + g_version.as_ref().map_or(0, Vec::capacity))
                * size_of::<u64>()
            + checkpoints.capacity() * size_of::<SimRng>()
            + corr.heap_bytes()
    }

    /// Appends one blank storage row for held row `row` and returns its
    /// index.  Every per-storage-row buffer grows together, doubling but
    /// never past the held row count, so they always share one row capacity
    /// and an AP whose every row is drawn stores no spare row.
    fn push_stored(&mut self, row: usize) -> usize {
        let stored = self.next_boundary.len();
        if stored == self.next_boundary.capacity() {
            let more = stored.max(4).min(self.clients.len() - stored);
            self.ch.h.reserve_rows(more);
            self.ch.large_scale.reserve_rows(more);
            self.next_boundary.reserve_exact(more);
            if let Some(versions) = &mut self.g_version {
                versions.reserve_exact(more);
            }
        }
        self.ch.h.push_zero_row();
        self.ch.large_scale.push_zero_row();
        self.next_boundary.push(0);
        if let Some(versions) = &mut self.g_version {
            versions.push(0);
        }
        self.slot[row] = u32::try_from(stored).expect("stored rows fit in u32");
        stored
    }

    /// Draws the fading of each listed client's row that has none yet — the
    /// one place a row is realised and stored — and returns how many it
    /// drew.
    ///
    /// A row is replayed from the nearest checkpoint at or below it and
    /// finished at its client's setup position (`setup`, by global id).  The
    /// replay stream carries over from one listed row to the next, so
    /// clients listed in ascending order (as every caller does) step each
    /// row of a checkpoint block at most once.
    fn realise(
        &mut self,
        model: &ChannelModel,
        antennas: &[Point],
        setup: &[Point],
        clients: impl IntoIterator<Item = usize>,
        raw: &mut Vec<u64>,
    ) -> usize {
        // The replay stream and the row it will take next.
        let mut cursor: Option<(SimRng, usize)> = None;
        let mut drawn = 0;
        for client in clients {
            let row = self.row(client);
            if self.slot[row] != UNDRAWN {
                continue;
            }
            let block = row - row % ROWS_PER_CHECKPOINT;
            let (stream, next) = match &mut cursor {
                Some((stream, next)) if (block..=row).contains(next) => (stream, next),
                stale => {
                    let checkpoint = self.checkpoints[row / ROWS_PER_CHECKPOINT].clone();
                    let (stream, next) = stale.insert((checkpoint, block));
                    (stream, next)
                }
            };
            for &skipped in &self.clients[*next..row] {
                model.take_row(stream, antennas, &setup[skipped as usize], raw);
            }
            model.take_row(stream, antennas, &setup[client], raw);
            *next = row + 1;
            let stored = self.push_stored(row);
            model.finish_row(
                &self.corr,
                antennas,
                &setup[client],
                raw,
                self.ch.h.row_mut(stored),
                self.ch.large_scale.row_mut(stored),
            );
            drawn += 1;
        }
        drawn
    }

    /// Client `client`'s composite gains towards every antenna of this AP.
    fn h_row(&self, client: usize) -> &[Complex] {
        self.ch.h.row(self.stored(client))
    }

    /// Brings `client`'s large-scale gains to position version `version`
    /// (the client now at `position`), rescaling its row once by
    /// `g_now / g_then`.  Returns whether the row was stale.
    fn sync_large_scale(
        &mut self,
        model: &ChannelModel,
        antennas: &[Point],
        client: usize,
        position: &Point,
        version: u64,
    ) -> bool {
        let stored = self.stored(client);
        let versions = self
            .g_version
            .as_mut()
            .expect("large-scale versions are kept when dynamics are on");
        if versions[stored] == version {
            return false;
        }
        versions[stored] = version;
        model.refresh_large_scale_row(&mut self.ch, stored, antennas, position);
        true
    }

    /// Mean RSSI (dBm) of a global client from AP-local antenna `k`.
    fn mean_rssi_dbm(&self, client: usize, antenna: usize) -> f64 {
        self.ch.mean_rssi_dbm(self.stored(client), antenna)
    }

    /// Sub-channel over global clients × AP-local antennas.
    fn select(&self, clients: &[usize], antennas: &[usize]) -> ChannelMatrix {
        let rows: Vec<usize> = clients.iter().map(|&c| self.stored(c)).collect();
        self.ch.select(&rows, antennas)
    }
}

/// The end-to-end network simulator bound to one topology.
pub struct NetworkSimulator {
    topo: Topology,
    config: NetworkSimConfig,
    model: ChannelModel,
    graph: ContentionGraph,
    rng: SimRng,
    /// Per-AP channel to the clients within radio range (all clients when
    /// the interaction range is infinite).
    channels: Vec<ApChannel>,
    /// Per-AP fairness state over the AP's own clients (AP-local indices).
    drr: Vec<DrrScheduler>,
    /// Per-AP tag tables over the AP's own clients (AP-local indices).
    tags: Vec<TagTable>,
    /// Downlink workload: which clients are backlogged each round.
    /// Defaults to [`FullBuffer`], which reproduces the pre-traffic-model
    /// simulator byte for byte.
    traffic: Box<dyn TrafficModel>,
    /// The precoder every AP runs, constructed once at build time — the
    /// round loop used to re-box one per AP per round.
    precoder: Box<dyn Precoder + Send + Sync>,
    /// All per-round scratch, reused across rounds (and runs).
    workspace: RoundWorkspace,
    /// Test knob: rebuild `workspace` from scratch every round, to prove
    /// reuse is observationally free (see `proptest_workspace.rs`).
    fresh_workspace_per_round: bool,
    /// Test knob: evolve *every* in-range row every round instead of only
    /// the rows the round reads.  Lazy evolution must be — and is pinned by
    /// `proptest_fading.rs` to be — bit-identical to this eager reference.
    eager_counter_evolve: bool,
    /// Collect per-stage wall-clock into the workspace's [`StageTimings`].
    profile_stages: bool,
    /// Long-horizon dynamics runtime state; `Some` iff
    /// `config.dynamics.is_some()`.
    dynamics: Option<DynamicsState>,
    /// Large-scale row refreshes performed so far (work counter).
    large_scale_refreshes: usize,
    /// Every client's position at construction: rows are realised there,
    /// whenever they are first read.
    setup_positions: Vec<Point>,
    /// Rows whose fading has been drawn so far (work counter).
    rows_drawn: usize,
}

impl NetworkSimulator {
    /// Creates a simulator for a topology.
    pub fn new(topo: Topology, config: NetworkSimConfig) -> Self {
        let mut model = ChannelModel::new(config.env, config.seed);
        // For `ContentionModel::Graph` this is exactly the legacy
        // `ContentionGraph::new(env, seed ^ 0x5151)`; the physical model
        // swaps in its own threshold / sensing field here and nothing else
        // in the planning path changes.
        let graph = config
            .contention
            .sensing_graph(config.env, config.seed ^ 0x5151);
        let rng = SimRng::new(config.seed).fork(0xAC);

        let num_clients = topo.clients.len();
        let cutoff = config.interaction_range_m;
        // One O(clients) bucketing pass: each AP's own clients in id order,
        // shared by the row sets, DRR and tags below and the round loop.
        let workspace = RoundWorkspace::for_simulator(&topo, &config);
        // With dynamics on, every client gets a row at every AP: mobility
        // and roaming would otherwise need sparse row insertion as clients
        // wander into range of new APs mid-run.
        let dense_rows = config.dynamics.is_some();
        let setup_positions: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        let client_index = (cutoff.is_finite() && !dense_rows).then(|| {
            SpatialIndex::from_points(topo.region, config.index_cell_m(), &setup_positions)
        });
        // Every row's raw draws are taken from this stream in the eager
        // order (AP by AP, row by row) — cheap — and the stream is kept
        // every `ROWS_PER_CHECKPOINT` rows; the fading itself is drawn
        // only when a row is first read (`ApChannel::realise`).
        let mut stream = model.sequential_rng().clone();
        let mut raw = Vec::new();
        let mut visible = Vec::new();
        let mut neighbors = Vec::new();
        let mut channels: Vec<ApChannel> = topo
            .aps
            .iter()
            .map(|ap| {
                // Rows: every client within the interaction range of any of
                // this AP's antennas (their signal/interference is exactly
                // zero beyond it), plus the AP's own clients so scheduling
                // state is always defined.
                visible.clear();
                if let Some(index) = &client_index {
                    for a in &ap.antennas {
                        index.neighbors_within_into(a, cutoff, &mut neighbors);
                        visible.extend_from_slice(&neighbors);
                    }
                    visible.extend_from_slice(&workspace.own_clients[ap.ap_id]);
                    visible.sort_unstable();
                    visible.dedup();
                } else {
                    visible.extend(0..num_clients);
                }
                let mut checkpoints =
                    Vec::with_capacity(visible.len().div_ceil(ROWS_PER_CHECKPOINT));
                for (row, &c) in visible.iter().enumerate() {
                    if row % ROWS_PER_CHECKPOINT == 0 {
                        checkpoints.push(stream.clone());
                    }
                    model.take_row(&mut stream, &ap.antennas, &setup_positions[c], &mut raw);
                }
                let clients: Vec<u32> = visible
                    .iter()
                    .map(|&c| u32::try_from(c).expect("client ids fit in u32"))
                    .collect();
                ApChannel {
                    ch: model.blank_matrix(0, ap.num_antennas()),
                    slot: vec![UNDRAWN; clients.len()],
                    clients,
                    next_boundary: Vec::new(),
                    g_version: dense_rows.then(Vec::new),
                    checkpoints,
                    corr: FadingCorrelation::new(&ap.antennas),
                }
            })
            .collect();
        model.set_sequential_rng(stream);

        let mut drr = Vec::new();
        let mut tags = Vec::new();
        let mut rows_drawn = 0;
        for ap in &topo.aps {
            let own_clients = &workspace.own_clients[ap.ap_id];
            rows_drawn += channels[ap.ap_id].realise(
                &model,
                &ap.antennas,
                &setup_positions,
                own_clients.iter().copied(),
                &mut raw,
            );
            drr.push(DrrScheduler::new(own_clients.len()));
            // Tagging is driven by mean RSSI of each own client from each antenna.
            let rssi: Vec<Vec<f64>> = own_clients
                .iter()
                .map(|&c| {
                    (0..ap.num_antennas())
                        .map(|k| channels[ap.ap_id].mean_rssi_dbm(c, k))
                        .collect()
                })
                .collect();
            tags.push(TagTable::from_rssi(&rssi, config.tag_width));
        }

        let dynamics = config
            .dynamics
            .map(|spec| DynamicsState::new(&spec, &topo, &config.env, config.seed));
        NetworkSimulator {
            topo,
            config,
            model,
            graph,
            rng,
            channels,
            drr,
            tags,
            traffic: Box::new(FullBuffer),
            precoder: make_precoder(config.precoder),
            workspace,
            fresh_workspace_per_round: false,
            eager_counter_evolve: false,
            profile_stages: false,
            dynamics,
            large_scale_refreshes: 0,
            setup_positions,
            rows_drawn,
        }
    }

    /// Test knob: discard and rebuild the round workspace every round
    /// instead of reusing it.  Results must be — and are pinned by property
    /// tests to be — bit-identical either way; this exists only so that
    /// equivalence is checkable.
    pub fn with_fresh_workspace_per_round(mut self) -> Self {
        self.fresh_workspace_per_round = true;
        self
    }

    /// Bytes of heap currently retained by the per-round workspace
    /// (capacities, not lengths).  Once the simulation is warm this stops
    /// growing: steady-state rounds allocate nothing from the workspace.
    pub fn workspace_heap_footprint_bytes(&self) -> usize {
        self.workspace.heap_footprint_bytes()
    }

    /// Test knob: evolve every in-range channel row every round instead of
    /// only the rows the round reads.  Results must be — and are pinned by
    /// property tests to be — bit-identical to the default lazy evolution;
    /// this exists only so that equivalence is checkable.
    pub fn with_eager_counter_evolve(mut self) -> Self {
        self.eager_counter_evolve = true;
        self
    }

    /// Enables per-stage wall-clock accumulation into [`StageTimings`]
    /// (read back via [`NetworkSimulator::stage_timings`], streamed to
    /// observers via [`Observer::on_finish`]).  Off by default so the hot
    /// path never reads a clock.
    pub fn with_stage_profiling(mut self) -> Self {
        self.profile_stages = true;
        self
    }

    /// Stage wall-clock totals accumulated so far (all-zero unless
    /// [`with_stage_profiling`](Self::with_stage_profiling) was used).
    pub fn stage_timings(&self) -> StageTimings {
        self.workspace.timings
    }

    /// Replaces the traffic model (default: [`FullBuffer`]) with a custom
    /// [`TrafficModel`] implementation.  Consumes and returns the simulator
    /// so it composes with construction.
    pub fn with_traffic(mut self, traffic: Box<dyn TrafficModel>) -> Self {
        self.traffic = traffic;
        self
    }

    /// Replaces the traffic model with a library workload described by
    /// `kind`, seeded from this simulation's seed.
    pub fn with_traffic_kind(self, kind: TrafficKind) -> Self {
        let seed = self.config.seed;
        self.with_traffic(kind.instantiate(seed))
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Runs the configured number of rounds and returns the aggregate result.
    ///
    /// Equivalent to streaming into an [`Accumulate`] observer — which is
    /// exactly what it does, so results are bit-identical to the historical
    /// accumulate-in-place loop.  For memory-bounded long-horizon runs,
    /// stream into a fixed-size observer via [`NetworkSimulator::run_with`]
    /// instead.
    pub fn run(&mut self) -> TopologyResult {
        let mut acc = Accumulate::new();
        self.run_with(&mut acc);
        acc.into_result()
    }

    /// Runs the configured number of rounds, streaming each round into
    /// `observer` instead of accumulating anything — peak memory is the
    /// observer's, flat in the round count for fixed-size observers.
    ///
    /// Each round is an explicit staged pipeline —
    /// `dynamics → backlog → sense → select → gather → fading → precode →
    /// evaluate → settle` — threaded through the simulator's round
    /// workspace: `dynamics_stage` moves and re-associates clients,
    /// `plan_stage` covers backlog through client selection,
    /// `gather_stage` records each stream's interferers,
    /// `counter_fading_stage` lazily catches up exactly the channel rows
    /// the round reads, `precode_stage` computes the precoding matrices,
    /// `evaluate_stage` computes deliveries, and `settle_stage` updates
    /// fairness and queues.
    pub fn run_with(&mut self, observer: &mut dyn Observer) {
        observer.on_start(
            self.topo.clients.len(),
            self.topo.aps.len(),
            self.config.rounds,
        );
        // The workspace leaves `self` for the duration of the run so the
        // stages can borrow simulator state and scratch independently.
        let mut ws = std::mem::take(&mut self.workspace);
        if ws.own_clients.len() != self.topo.aps.len() {
            // Defensive: a default-constructed workspace (nothing prebuilt)
            // can only appear if a previous run panicked mid-flight.
            ws = RoundWorkspace::for_simulator(&self.topo, &self.config);
        }
        for round in 0..self.config.rounds {
            if self.fresh_workspace_per_round {
                let carried = ws.timings;
                ws = RoundWorkspace::for_simulator(&self.topo, &self.config);
                ws.timings = carried;
            }
            let t = tick(self.profile_stages);
            self.dynamics_stage(round, &mut ws);
            ws.timings.dynamics_s += secs_since(t);

            self.plan_stage(round, &mut ws);

            // The gather half of evaluation runs before precoding so the
            // fading stage knows every channel row the round will read
            // (serving rows and interferer rows alike) and can catch
            // exactly those up; it reads only positions.
            let t = tick(self.profile_stages);
            self.gather_stage(&mut ws);
            ws.timings.evaluate_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.counter_fading_stage(round, &mut ws);
            ws.timings.evolve_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.precode_stage(&mut ws);
            ws.timings.precode_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.evaluate_stage(&mut ws);
            ws.timings.evaluate_s += secs_since(t);

            ws.transmitting_aps.clear();
            ws.transmitting_aps
                .extend(ws.transmissions[..ws.live].iter().map(|t| t.ap_id));
            let total_streams: usize = ws.transmissions[..ws.live]
                .iter()
                .map(|t| t.clients.len())
                .sum();
            observer.on_round(&RoundRecord {
                round,
                deliveries: &ws.capacities,
                transmitting_aps: &ws.transmitting_aps,
                streams: total_streams,
            });
            // Cooperative cancellation at round granularity: an observer
            // (e.g. a deadline probe) can stop the run between rounds.
            // Observers that keep the default `false` see no change.
            if observer.stop_requested() {
                break;
            }

            let t = tick(self.profile_stages);
            self.settle_stage(&mut ws);
            ws.timings.settle_s += secs_since(t);
            if self.profile_stages {
                ws.timings.rounds += 1;
            }
        }
        observer.on_finish(&ws.timings);
        self.workspace = ws;
    }

    /// Pipeline stage 0 — dynamics: client mobility, roaming, and the
    /// MAC-state rebuilds those trigger.  A no-op (and never installed)
    /// when `config.dynamics` is `None`, so static runs are byte-identical
    /// to the pre-dynamics simulator.
    ///
    /// Per step (every `period_rounds`, never at round 0):
    /// 1. Mobility moves the mobile clients and bumps their position
    ///    versions ([`DynamicsState::step_mobility`]).  No channel row is
    ///    touched here: a row's large-scale gains are refreshed
    ///    ([`ChannelModel::refresh_large_scale_row`]) only when something
    ///    reads it — the tag rebuild below, or the fading stage for the
    ///    rows the round reads.  The refresh preserves the fading phase and
    ///    consumes no sequential RNG, so the static pipeline's draw order is
    ///    untouched.
    /// 2. Roaming re-associates clients with hysteresis
    ///    ([`DynamicsState::step_roaming`]); it reads positions, not
    ///    channel rows.
    /// 3. The MAC-facing views are repaired: the workspace's ownership maps
    ///    are rebuilt when any client handed off, DRR restarts for APs whose
    ///    membership changed (a handoff is a fresh association), and tag
    ///    tables are rebuilt in place for any AP whose own-client RSSI
    ///    picture moved, after refreshing that AP's stale own rows.
    ///
    /// [`ChannelModel::refresh_large_scale_row`]: midas_channel::ChannelModel::refresh_large_scale_row
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (long-horizon footprint pin)
    fn dynamics_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let Some(spec) = self.config.dynamics else {
            return;
        };
        let Some(state) = self.dynamics.as_mut() else {
            return;
        };
        let period = spec.period_rounds.max(1);
        if round == 0 || !round.is_multiple_of(period) {
            return;
        }

        // 1. Move.  2. Roam.
        state.step_mobility(&spec, &mut self.topo);
        state.step_roaming(&spec, &mut self.topo, &self.config.env);

        // 3. Repair the MAC-facing views of whatever changed.
        let num_aps = self.topo.aps.len();
        ws.dirty_membership.clear();
        ws.dirty_membership.resize(num_aps, false);
        ws.dirty_tags.clear();
        ws.dirty_tags.resize(num_aps, false);
        let mut any_handoff = false;
        for cid in state.handed_off(&self.topo) {
            ws.dirty_membership[state.previous_ap(cid)] = true;
            ws.dirty_membership[self.topo.clients[cid].ap_id] = true;
            any_handoff = true;
        }
        for &cid in state.moved() {
            ws.dirty_tags[self.topo.clients[cid].ap_id] = true;
        }
        if any_handoff {
            for v in &mut ws.own_clients {
                v.clear();
            }
            for c in &self.topo.clients {
                ws.local_of[c.id] = ws.own_clients[c.ap_id].len() as u32;
                ws.own_clients[c.ap_id].push(c.id);
            }
        }
        let versions = state.position_versions();
        for ap_id in 0..num_aps {
            let membership = ws.dirty_membership[ap_id];
            if membership {
                self.drr[ap_id].restart(ws.own_clients[ap_id].len());
            }
            if membership || ws.dirty_tags[ap_id] {
                let antennas = &self.topo.aps[ap_id].antennas;
                let apch = &mut self.channels[ap_id];
                self.rows_drawn += apch.realise(
                    &self.model,
                    antennas,
                    &self.setup_positions,
                    ws.own_clients[ap_id].iter().copied(),
                    &mut ws.draws,
                );
                ws.rssi.clear();
                for &c in &ws.own_clients[ap_id] {
                    let position = &self.topo.clients[c].position;
                    if apch.sync_large_scale(&self.model, antennas, c, position, versions[c]) {
                        self.large_scale_refreshes += 1;
                    }
                    ws.rssi
                        .extend((0..antennas.len()).map(|k| apch.mean_rssi_dbm(c, k)));
                }
                self.tags[ap_id].rebuild(&ws.rssi, antennas.len());
            }
        }
    }

    /// `(total client moves, total handoffs)` performed by the dynamics
    /// layer so far; `None` when dynamics are off.
    pub fn dynamics_stats(&self) -> Option<(usize, usize)> {
        self.dynamics
            .as_ref()
            .map(|d| (d.moves_total(), d.handoffs_total()))
    }

    /// Large-scale channel-row refreshes performed so far — the dynamics
    /// layer's work counter (0 when dynamics are off).  A row is refreshed
    /// only when it is read at a stale position version, so this stays far
    /// below `moves × APs`, the count an eager refresh would pay.
    pub fn large_scale_refreshes(&self) -> usize {
        self.large_scale_refreshes
    }

    /// Channel rows held — the row count per-AP channel memory is
    /// proportional to: summed over APs, the clients within the
    /// interaction range of any of the AP's antennas plus the AP's own
    /// clients (every client at every AP when the range is infinite or
    /// dynamics are on).  A held row's fading is drawn only when it is first
    /// read; [`rows_drawn`](Self::rows_drawn) counts those.
    pub fn rows_realised(&self) -> usize {
        self.channels.iter().map(|apch| apch.clients.len()).sum()
    }

    /// Channel rows whose fading has been drawn so far — the lazy
    /// realisation's work counter.  Own rows are drawn at construction (tags
    /// read their gains); any other row the first time a round reads it.
    /// Never more than [`rows_realised`](Self::rows_realised).
    pub fn rows_drawn(&self) -> usize {
        self.rows_drawn
    }

    /// Bytes of heap the dynamics layer retains (0 when dynamics are off);
    /// stable once warm, which the long-horizon footprint test pins.
    pub fn dynamics_heap_footprint_bytes(&self) -> usize {
        self.dynamics
            .as_ref()
            .map_or(0, DynamicsState::heap_footprint_bytes)
    }

    /// Pipeline stages 1–3 — backlog, sense, select: decides who transmits
    /// this round, filling the workspace's transmission slots with the
    /// chosen clients and antennas.  Precoding happens in a later stage
    /// ([`precode_stage`](Self::precode_stage)) so the fading stage can
    /// bring the selected rows up to date in between; sensing and
    /// selection never read small-scale fading (tags and DRR run on
    /// large-scale RSSI).
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn plan_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let num_aps = self.topo.aps.len();
        let cutoff = self.config.interaction_range_m;
        let profile = self.profile_stages;
        let plan_start = tick(profile);
        let mut sense_s = 0.0;

        // Split the workspace into per-field borrows so the sensing closure
        // (reading active antennas) and the slot writes (mutating buffers)
        // coexist without aliasing.
        let RoundWorkspace {
            order,
            active_antenna_positions,
            active_index,
            backlogged,
            available,
            neighbors,
            transmissions,
            live,
            own_clients,
            timings,
            ..
        } = ws;

        order.clear();
        order.extend(0..num_aps);
        self.rng.shuffle(order);

        active_antenna_positions.clear();
        if let Some(index) = active_index.as_mut() {
            index.clear();
        }
        *live = 0;

        for &ap_id in order.iter() {
            let ap = &self.topo.aps[ap_id];
            let own = &own_clients[ap_id];
            if own.is_empty() {
                continue;
            }
            // Backlog: which of this AP's clients have downlink data this
            // round?  Full-buffer answers "all of them" without touching any
            // RNG, so the legacy figures are unchanged; lighter workloads
            // thin the candidate set (an AP with nothing queued stays
            // silent).
            self.traffic
                .backlogged_into(ap_id, own.len(), round, backlogged);
            if backlogged.is_empty() {
                continue;
            }

            // Sense: energy-detection carrier sensing against the
            // transmitters already on the air, truncated at the interaction
            // range.  The contention model only changes which graph
            // (threshold / sensing field) `self.graph` was built from — the
            // sensing arithmetic is shared, so both models and both scan
            // modes visit the surviving antennas in the same order.
            let graph = &self.graph;
            let positions = &*active_antenna_positions;
            let index_ref = active_index.as_ref();
            let senses = |antenna: &Point, scratch: &mut Vec<usize>| -> bool {
                match index_ref {
                    None => graph.senses_any_within(antenna, positions, cutoff),
                    Some(index) => {
                        index.neighbors_within_into(antenna, cutoff, scratch);
                        graph.senses_aggregate(antenna, scratch.iter().map(|&id| &positions[id]))
                    }
                }
            };

            // Which antennas may transmit given what is already on the air?
            let t_sense = tick(profile);
            available.clear();
            match self.config.mac {
                MacKind::Midas => available.extend(
                    (0..ap.num_antennas()).filter(|&k| !senses(&ap.antennas[k], neighbors)),
                ),
                MacKind::Cas => {
                    let busy = ap.antennas.iter().any(|a| senses(a, neighbors));
                    if !busy {
                        available.extend(0..ap.num_antennas());
                    }
                }
            }
            sense_s += secs_since(t_sense);
            if available.is_empty() {
                continue;
            }

            // Select.
            let local_selected: Vec<usize> = match self.config.mac {
                MacKind::Midas => {
                    let eligible = self.tags[ap_id].filter_clients(backlogged, available);
                    select_clients_midas(available, &eligible, &self.tags[ap_id], &self.drr[ap_id])
                }
                MacKind::Cas => select_clients_cas(available.len(), backlogged, &self.drr[ap_id]),
            };
            if local_selected.is_empty() {
                continue;
            }

            // Claim a transmission slot (buffers retained from prior rounds);
            // its stale precoding matrix is overwritten by the precode stage.
            if transmissions.len() == *live {
                transmissions.push(ActiveTransmission::empty());
            }
            let slot = &mut transmissions[*live];
            slot.ap_id = ap_id;
            slot.clients.clear();
            slot.clients.extend(local_selected.iter().map(|&l| own[l]));
            slot.antenna_idx.clear();
            slot.antenna_idx.extend_from_slice(available);

            for &k in slot.antenna_idx.iter() {
                active_antenna_positions.push(ap.antennas[k]);
                if let Some(index) = active_index.as_mut() {
                    index.insert(ap.antennas[k]);
                }
            }
            *live += 1;
        }

        if profile {
            timings.sense_s += sense_s;
            timings.select_s += secs_since(plan_start) - sense_s;
        }
    }

    /// Pipeline stage 4 — gather: discovers each stream's interfering
    /// transmissions (position-only neighbourhood queries) and stores them
    /// in the workspace for the evaluate stage to replay.
    ///
    /// Hoisted out of evaluation so the full set of channel rows the round
    /// reads — serving rows *and* interferer rows — is known before any
    /// fading value is consumed; that set is exactly what the counter
    /// engine's lazy evolution catches up.  A concurrent transmission only
    /// interferes with a client when at least one of its transmitting
    /// antennas is within the interaction range; both scan modes apply that
    /// rule and visit interferers in transmission order, so the stored
    /// lists are bit-identical between them.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn gather_stage(&self, ws: &mut RoundWorkspace) {
        let cutoff = self.config.interaction_range_m;
        let RoundWorkspace {
            interferer_index,
            tx_of_antenna,
            neighbors,
            interferers,
            transmissions,
            live,
            stream_interferers,
            stream_bounds,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        // Map every active antenna back to its transmission for the indexed
        // interferer lookup.
        if self.config.use_index() {
            let index = interferer_index.get_or_insert_with(|| {
                SpatialIndex::new(self.topo.region, self.config.index_cell_m())
            });
            index.clear();
            tx_of_antenna.clear();
            for (tx_idx, t) in transmissions.iter().enumerate() {
                for &k in &t.antenna_idx {
                    index.insert(self.topo.aps[t.ap_id].antennas[k]);
                    tx_of_antenna.push(tx_idx);
                }
            }
        }

        stream_interferers.clear();
        stream_bounds.clear();
        for t in transmissions.iter() {
            for &client in t.clients.iter() {
                let client_pos = &self.topo.clients[client].position;
                interferers.clear();
                match interferer_index {
                    Some(index) => {
                        index.neighbors_within_into(client_pos, cutoff, neighbors);
                        interferers.extend(
                            neighbors
                                .iter()
                                .map(|&antenna_id| tx_of_antenna[antenna_id]),
                        );
                        interferers.dedup(); // antenna ids are sorted, so tx ids are too
                    }
                    None => interferers.extend((0..transmissions.len()).filter(|&o| {
                        transmissions[o].antenna_idx.iter().any(|&k| {
                            self.topo.aps[transmissions[o].ap_id].antennas[k].distance(client_pos)
                                <= cutoff
                        })
                    })),
                }
                stream_interferers.extend_from_slice(interferers);
                stream_bounds.push(stream_interferers.len());
            }
        }
    }

    /// Pipeline stage 5 — fading: brings exactly the channel rows this
    /// round reads up to the current evolution boundary.
    ///
    /// With dynamics on, a read row whose client moved since the row last
    /// saw it first gets its large-scale gains refreshed to the client's
    /// current position — one rescale however many steps it missed.
    ///
    /// The active set is the union of each live slot's serving rows and
    /// each stream's interferer rows (from the gather stage): those — and
    /// only those — feed the precode and evaluate stages.  Rows not in the
    /// set are left behind; their `next_boundary` bookmark lets a later
    /// round replay the identical keyed innovations they skipped, boundary
    /// by boundary, so lazy evolution is bit-identical to eager (pinned by
    /// `proptest_fading.rs`).  Because every row's update is a pure
    /// function of `(key, prior state)`, the catch-up shards freely across
    /// `config.evolve_threads` workers: phase A computes evolved rows into
    /// disjoint scratch segments in parallel, phase B copies them back
    /// serially — no draw order exists to violate.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn counter_fading_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let interval = self.config.coherence_interval_rounds.max(1) as u64;
        // The last evolution boundary at or before this round; every row
        // read this round must have absorbed the innovations keyed by
        // boundaries 0, interval, …, current_boundary (channels evolve on
        // rounds divisible by the interval).
        let current_boundary = (round as u64 / interval) * interval;
        let delay_s = interval as f64 * DEFAULT_TXOP_US as f64 * 1e-6;
        let rho = self.model.step_correlation(delay_s);

        let RoundWorkspace {
            transmissions,
            live,
            stream_interferers,
            stream_bounds,
            touched,
            pairs,
            draws,
            evolve_scratch,
            job_offsets,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        touched.clear();
        if self.eager_counter_evolve {
            // Test reference: every in-range row of every AP, every round.
            for (ap_id, apch) in self.channels.iter().enumerate() {
                touched.extend(apch.clients.iter().map(|&client| (ap_id as u32, client)));
            }
        } else {
            // Serving rows: read by precode and by the evaluate stage's
            // signal/intra-interference terms.
            for t in transmissions.iter() {
                for &client in t.clients.iter() {
                    touched.push((t.ap_id as u32, client as u32));
                }
            }
            // Interferer rows: each served client's row in every other
            // transmission within radio range of it.
            let mut stream_no = 0;
            for (tx_idx, t) in transmissions.iter().enumerate() {
                for &client in t.clients.iter() {
                    let lo = if stream_no == 0 {
                        0
                    } else {
                        stream_bounds[stream_no - 1]
                    };
                    let hi = stream_bounds[stream_no];
                    stream_no += 1;
                    for &o in &stream_interferers[lo..hi] {
                        if o != tx_idx {
                            touched.push((transmissions[o].ap_id as u32, client as u32));
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Rows read this round must have been drawn, and carry the
        // large-scale gains of their client's current position, before the
        // catch-up below reads them (serially, so the parallel phase A
        // stays read-only).  `touched` is sorted, so each AP's rows come in
        // one ascending run.
        for run in touched.chunk_by(|a, b| a.0 == b.0) {
            let ap = run[0].0 as usize;
            self.rows_drawn += self.channels[ap].realise(
                &self.model,
                &self.topo.aps[ap].antennas,
                &self.setup_positions,
                run.iter().map(|&(_, client)| client as usize),
                draws,
            );
        }
        if let Some(state) = &self.dynamics {
            let versions = state.position_versions();
            for &(ap, client) in touched.iter() {
                let (ap, client) = (ap as usize, client as usize);
                if self.channels[ap].sync_large_scale(
                    &self.model,
                    &self.topo.aps[ap].antennas,
                    client,
                    &self.topo.clients[client].position,
                    versions[client],
                ) {
                    self.large_scale_refreshes += 1;
                }
            }
        }

        let threads = self.config.evolve_threads.max(1).min(touched.len().max(1));
        if threads <= 1 {
            for &(ap, client) in touched.iter() {
                let apch = &mut self.channels[ap as usize];
                let row = apch.stored(client as usize);
                let mut boundary = apch.next_boundary[row];
                if boundary > current_boundary {
                    continue; // up to date within this coherence interval
                }
                let h_row = apch.ch.h.row_mut(row);
                let g_row = apch.ch.large_scale.row(row);
                while boundary <= current_boundary {
                    self.model.evolve_row_counter(
                        h_row,
                        g_row,
                        rho,
                        ap as u64,
                        client as u64,
                        boundary,
                        pairs,
                    );
                    boundary += interval;
                }
                apch.next_boundary[row] = boundary;
            }
            return;
        }

        // Parallel catch-up.  Phase A: each worker evolves a contiguous
        // chunk of the (sorted, deduped — hence disjoint) touched rows into
        // its disjoint slice of one scratch buffer, reading the channel
        // state immutably.
        job_offsets.clear();
        job_offsets.push(0);
        let mut total = 0usize;
        for &(ap, _) in touched.iter() {
            total += self.channels[ap as usize].ch.num_antennas();
            job_offsets.push(total);
        }
        evolve_scratch.clear();
        evolve_scratch.resize(total, Complex::ZERO);

        let channels = &self.channels;
        let model = &self.model;
        let jobs = &touched[..];
        let per_thread = jobs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = evolve_scratch.as_mut_slice();
            let mut job_lo = 0usize;
            for _ in 0..threads {
                let job_hi = (job_lo + per_thread).min(jobs.len());
                if job_hi <= job_lo {
                    break;
                }
                let base = job_offsets[job_lo];
                let elems = job_offsets[job_hi] - base;
                let (mine, tail) = rest.split_at_mut(elems);
                rest = tail;
                let my_jobs = &jobs[job_lo..job_hi];
                let my_offsets = &job_offsets[job_lo..=job_hi];
                scope.spawn(move || {
                    // lint: allow(no-alloc-stage) — per-worker Box–Muller carry scratch, local to the
                    // parallel-evolve thread scope; only allocated when evolve_threads > 1 asks for
                    // intra-trial parallelism, and sized O(1) (one cached Gaussian pair per worker).
                    let mut pairs = Vec::new();
                    for (i, &(ap, client)) in my_jobs.iter().enumerate() {
                        let apch = &channels[ap as usize];
                        let row = apch.stored(client as usize);
                        let seg = &mut mine[my_offsets[i] - base..my_offsets[i + 1] - base];
                        seg.copy_from_slice(apch.ch.h.row(row));
                        let g_row = apch.ch.large_scale.row(row);
                        let mut boundary = apch.next_boundary[row];
                        while boundary <= current_boundary {
                            model.evolve_row_counter(
                                seg,
                                g_row,
                                rho,
                                ap as u64,
                                client as u64,
                                boundary,
                                &mut pairs,
                            );
                            boundary += interval;
                        }
                    }
                });
                job_lo = job_hi;
            }
        });

        // Phase B: serial copy-back + bookkeeping.
        for (i, &(ap, client)) in touched.iter().enumerate() {
            let apch = &mut self.channels[ap as usize];
            let row = apch.stored(client as usize);
            if apch.next_boundary[row] > current_boundary {
                continue; // was already up to date; scratch holds an unchanged copy
            }
            apch.ch
                .h
                .row_mut(row)
                .copy_from_slice(&evolve_scratch[job_offsets[i]..job_offsets[i + 1]]);
            apch.next_boundary[row] = current_boundary + interval;
        }
    }

    /// Pipeline stage 6 — precode: computes each live slot's precoding
    /// matrix over the (selected clients × available antennas) channel.
    /// Runs after the fading stage so it reads the current round's channel
    /// state; the precoder is pure (no RNG).
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn precode_stage(&self, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            ..
        } = ws;
        for slot in &mut transmissions[..*live] {
            let sub = self.channels[slot.ap_id].select(&slot.clients, &slot.antenna_idx);
            let precoding = self.precoder.precode(&sub.h, sub.tx_power_mw, sub.noise_mw);
            slot.v = precoding.v;
        }
    }

    /// Pipeline stage 7 — evaluate: computes per-client capacities including
    /// cross-AP interference, filling `ws.capacities` with
    /// `(client, serving AP, capacity)` triples.  Interferers come from the
    /// lists the gather stage stored, replayed in stream order.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn evaluate_stage(&self, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            capacities,
            stream_interferers,
            stream_bounds,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        capacities.clear();
        let mut stream_no = 0;
        for (tx_idx, t) in transmissions.iter().enumerate() {
            let ch = &self.channels[t.ap_id];
            for (stream_idx, &client) in t.clients.iter().enumerate() {
                // The client's channel row towards every antenna of the
                // serving AP, hoisted once per stream instead of one
                // row-lookup per (antenna, stream) pair.
                let h_row = ch.h_row(client);
                // Desired + intra-AP interference from this transmission.
                // Intra-AP leakage is tracked separately from cross-AP
                // interference: the serving AP's precoder knows about the
                // former, so only the former enters the *expected* SINR the
                // physical model's rate adaptation sees.
                let mut signal = 0.0;
                let mut intra_interference = 0.0;
                for (other_stream, _) in t.clients.iter().enumerate() {
                    let mut amp = Complex::ZERO;
                    for (row, &k) in t.antenna_idx.iter().enumerate() {
                        amp += h_row[k] * t.v.get(row, other_stream);
                    }
                    if other_stream == stream_idx {
                        signal = amp.norm_sqr();
                    } else {
                        intra_interference += amp.norm_sqr();
                    }
                }
                let mut interference = intra_interference;
                // Cross-AP interference from the concurrent transmissions in
                // radio range of this client, in transmission order.
                let lo = if stream_no == 0 {
                    0
                } else {
                    stream_bounds[stream_no - 1]
                };
                let hi = stream_bounds[stream_no];
                stream_no += 1;
                for &o in &stream_interferers[lo..hi] {
                    if o == tx_idx {
                        continue;
                    }
                    let other = &transmissions[o];
                    let och = &self.channels[other.ap_id];
                    let oh_row = och.h_row(client);
                    for other_stream in 0..other.clients.len() {
                        let mut amp = Complex::ZERO;
                        for (row, &k) in other.antenna_idx.iter().enumerate() {
                            amp += oh_row[k] * other.v.get(row, other_stream);
                        }
                        interference += amp.norm_sqr();
                    }
                }
                let noise = ch.ch.noise_mw;
                let sinr = signal / (noise + interference);
                // Graph model: every transmitted stream earns its Shannon
                // capacity.  Physical model: the serving AP's rate
                // adaptation picked an MCS from the SINR its precoding
                // predicts (intra-AP only — it cannot foresee who else won
                // the round), and the receiver only captures the frame when
                // the realized SINR still clears that MCS's threshold;
                // otherwise the collision costs the whole frame.
                let capacity = match self.config.contention.physical() {
                    Some(p) => {
                        let expected = signal / (noise + intra_interference);
                        if p.frame_captured_linear(expected, sinr) {
                            shannon_capacity_bps_hz(sinr)
                        } else {
                            0.0
                        }
                    }
                    None => shannon_capacity_bps_hz(sinr),
                };
                capacities.push((client, t.ap_id, capacity));
            }
        }
    }

    /// Pipeline stage 8 — settle: per-AP fairness (DRR) and traffic-queue
    /// bookkeeping for the round that just ran.
    ///
    /// Served clients are mapped from global ids back to AP-local ids through
    /// the workspace's prebuilt `local_of` table, and the unserved complement
    /// is read off a reusable bitmask — O(clients) instead of the former
    /// O(clients²) `contains` sweep.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn settle_stage(&mut self, ws: &mut RoundWorkspace) {
        for t in &ws.transmissions[..ws.live] {
            let n_local = ws.own_clients[t.ap_id].len();
            ws.served.clear();
            ws.served
                .extend(t.clients.iter().map(|&g| ws.local_of[g] as usize));
            ws.served_mask.clear();
            ws.served_mask.resize(n_local, false);
            for &l in &ws.served {
                ws.served_mask[l] = true;
            }
            ws.unserved.clear();
            ws.unserved
                .extend((0..n_local).filter(|&l| !ws.served_mask[l]));
            self.drr[t.ap_id].update_after_txop(&ws.served, &ws.unserved, DEFAULT_TXOP_US);
            for &l in &ws.served {
                self.traffic.served(t.ap_id, l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::PairedTopology;

    fn three_ap_pair(seed: u64) -> PairedTopology {
        let mut rng = SimRng::new(seed);
        let cfg = crate::deployment::paper_das_config(&Environment::office_a(), 4, 4);
        PairedTopology::three_ap(&cfg, &mut rng)
    }

    #[test]
    fn stage_timings_stages_cover_every_field_in_pipeline_order() {
        let timings = StageTimings {
            dynamics_s: 0.5,
            evolve_s: 1.0,
            sense_s: 2.0,
            select_s: 3.0,
            precode_s: 4.0,
            evaluate_s: 5.0,
            settle_s: 6.0,
            rounds: 7,
        };
        let stages = timings.stages();
        assert_eq!(
            stages.map(|(name, _)| name),
            ["dynamics", "evolve", "sense", "select", "precode", "evaluate", "settle"]
        );
        // Summing the pairs reproduces total_s: no field is missing or
        // double-counted.
        let sum: f64 = stages.iter().map(|(_, s)| s).sum();
        assert_eq!(sum, timings.total_s());
    }

    #[test]
    fn rows_are_refreshed_to_the_current_position_exactly_when_read() {
        use crate::scale::grid::FloorGrid;
        use midas_channel::topology::TopologyConfig;
        let topo = FloorGrid::new(4, 2, 15.0)
            .generate(&TopologyConfig::das(4, 4), &mut SimRng::new(41))
            .expect("valid grid");
        let mut config = NetworkSimConfig::midas(Environment::open_plan(), 41);
        config.dynamics = Some(DynamicsSpec::roaming_walk(250.0));
        let mut stale_rows_seen = false;
        for rounds in 1..=8 {
            config.rounds = rounds;
            let mut sim = NetworkSimulator::new(topo.clone(), config);
            sim.run();
            // Large-scale gains a fresh refresh at the client's current
            // position would give (the refresh sets `g` purely from the
            // positions).
            let fresh = |ap: usize, client: usize| {
                let apch = &sim.channels[ap];
                let row = apch.stored(client);
                let mut ch = apch.ch.clone();
                let position = &sim.topo.clients[client].position;
                sim.model.refresh_large_scale_row(
                    &mut ch,
                    row,
                    &sim.topo.aps[ap].antennas,
                    position,
                );
                ch.large_scale.row(row).to_vec()
            };
            let current = |ap: usize, client: usize| {
                let apch = &sim.channels[ap];
                apch.ch.large_scale.row(apch.stored(client)).to_vec()
            };
            let ws = &sim.workspace;
            let own = ws
                .own_clients
                .iter()
                .enumerate()
                .flat_map(|(ap, clients)| clients.iter().map(move |&c| (ap, c)));
            let read = ws.touched.iter().map(|&(ap, c)| (ap as usize, c as usize));
            for (ap, client) in own.chain(read) {
                assert_eq!(
                    current(ap, client),
                    fresh(ap, client),
                    "{rounds} rounds: row (ap {ap}, client {client}) is stale"
                );
            }
            // And the refresh really is lazy: some drawn row nobody read is
            // stale.
            let drawn = |ap: usize, c: usize| sim.channels[ap].slot[c] != UNDRAWN;
            stale_rows_seen |= (0..sim.topo.aps.len()).any(|ap| {
                (0..sim.topo.clients.len()).any(|c| drawn(ap, c) && current(ap, c) != fresh(ap, c))
            });
        }
        assert!(stale_rows_seen, "every row was refreshed: not lazy");
    }

    /// A 12-AP DAS floor (90 × 30 m) simulated with a 20 m interaction
    /// range, so most clients are out of range of most APs.
    fn finite_range_sim(clients_per_ap: usize) -> NetworkSimulator {
        use crate::scale::grid::FloorGrid;
        use midas_channel::topology::TopologyConfig;
        let grid = FloorGrid {
            clients_per_ap,
            ..FloorGrid::new(6, 2, 15.0)
        };
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut SimRng::new(43))
            .expect("valid grid");
        let mut config = NetworkSimConfig::midas(Environment::open_plan(), 43);
        config.interaction_range_m = 20.0;
        NetworkSimulator::new(topo, config)
    }

    #[test]
    fn rows_realised_counts_clients_in_range_plus_own_clients() {
        let sim = finite_range_sim(8);
        let cutoff = sim.config.interaction_range_m;
        let brute_force: usize = sim
            .topo
            .aps
            .iter()
            .map(|ap| {
                sim.topo
                    .clients
                    .iter()
                    .filter(|c| {
                        c.ap_id == ap.ap_id
                            || ap
                                .antennas
                                .iter()
                                .any(|a| a.distance(&c.position) <= cutoff)
                    })
                    .count()
            })
            .sum();
        assert_eq!(sim.rows_realised(), brute_force);
        assert_eq!(sim.rows_realised(), 524);
        assert!(sim.rows_realised() < sim.topo.aps.len() * sim.topo.clients.len());
    }

    #[test]
    fn rows_drawn_counts_own_rows_then_exactly_the_rows_rounds_read() {
        // Rows a run of `rounds` rounds reads, by brute force: the runs of
        // 1..=rounds rounds replay the same first rounds, so the union of
        // their last rounds' read sets is every row read.
        let read_rows = |rounds: usize| {
            let mut read = std::collections::BTreeSet::new();
            for r in 1..=rounds {
                let mut sim = finite_range_sim(8);
                sim.config.rounds = r;
                sim.run();
                read.extend(sim.workspace.touched.iter().copied());
            }
            read
        };
        let sim = finite_range_sim(8);
        let own: std::collections::BTreeSet<(u32, u32)> = sim
            .topo
            .clients
            .iter()
            .map(|c| (c.ap_id as u32, c.id as u32))
            .collect();
        assert_eq!(sim.rows_drawn(), own.len());
        assert_eq!(sim.rows_drawn(), 96);

        let mut sim = finite_range_sim(8);
        sim.config.rounds = 5;
        sim.run();
        // Exactly the own rows plus the rows read: nothing is drawn twice
        // or drawn unread.
        let brute_force = own.union(&read_rows(5)).count();
        assert_eq!(sim.rows_drawn(), brute_force);
        assert_eq!(sim.rows_drawn(), 130);
        assert!(sim.rows_drawn() < sim.rows_realised());
    }

    #[test]
    fn rows_drawn_late_in_any_order_equal_eager_realisation() {
        let mut sim = finite_range_sim(8);
        let mut raw = Vec::new();
        for (ap, apch) in sim.channels.iter_mut().enumerate() {
            let antennas = &sim.topo.aps[ap].antennas;
            let clients: Vec<usize> = apch.clients.iter().map(|&c| c as usize).collect();
            // Own rows were drawn at construction; draw every third row
            // from the top down (each one a fresh replay), then the rest.
            let rest = clients.iter().rev().step_by(3).chain(&clients);
            sim.rows_drawn += apch.realise(
                &sim.model,
                antennas,
                &sim.setup_positions,
                rest.copied(),
                &mut raw,
            );
        }
        assert_eq!(sim.rows_drawn(), sim.rows_realised());
        for apch in &sim.channels {
            // Every held row is drawn and no spare row is stored.
            assert_eq!(apch.next_boundary.capacity(), apch.clients.len());
        }

        // Eager: every AP's rows realised in turn from one fresh model.
        let mut eager = ChannelModel::new(sim.config.env, sim.config.seed);
        for (ap, apch) in sim.channels.iter().enumerate() {
            let positions: Vec<Point> = apch
                .clients
                .iter()
                .map(|&c| sim.topo.clients[c as usize].position)
                .collect();
            let reference = eager.realize_positions(&sim.topo.aps[ap].antennas, &positions);
            // Held row `r` against the eager row `r`, wherever it is stored.
            let bits = |ch: &ChannelMatrix, row: usize| -> Vec<u64> {
                ch.h.row(row)
                    .iter()
                    .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                    .chain(ch.large_scale.row(row).iter().map(|g| g.to_bits()))
                    .collect()
            };
            for (row, &stored) in apch.slot.iter().enumerate() {
                assert_eq!(
                    bits(&apch.ch, stored as usize),
                    bits(&reference, row),
                    "AP {ap} row {row}"
                );
            }
            assert_eq!(apch.ch.num_clients(), apch.clients.len(), "AP {ap}");
        }
        // And construction left the model's generator where eager
        // realisation leaves it.
        assert_eq!(
            sim.model.sequential_rng().clone().next_u64(),
            eager.sequential_rng().clone().next_u64()
        );
    }

    #[test]
    fn channel_heap_is_proportional_to_rows_not_floor_clients() {
        use std::mem::size_of;
        // A held row: its client id and storage slot.  Per checkpoint block
        // of held rows, one generator state; per AP, its antenna correlation
        // factor.
        let held = |rows: usize, antennas: usize| {
            rows * 2 * size_of::<u32>()
                + rows.div_ceil(ROWS_PER_CHECKPOINT) * size_of::<SimRng>()
                + antennas * antennas * size_of::<f64>()
        };
        // A stored (drawn) row: an antenna-wide `h` and `large_scale` row
        // and its evolution bookmark.
        let per_stored = |antennas: usize| {
            antennas * (size_of::<Complex>() + size_of::<f64>()) + size_of::<u64>()
        };
        for clients_per_ap in [4, 32] {
            for rounds in [0, 5] {
                let mut sim = finite_range_sim(clients_per_ap);
                sim.config.rounds = rounds;
                sim.run();
                for (apch, ap) in sim.channels.iter().zip(&sim.topo.aps) {
                    let drawn = apch.slot.iter().filter(|&&s| s != UNDRAWN).count();
                    assert_eq!(apch.ch.num_clients(), drawn, "only drawn rows are stored");
                    let capacity = apch.next_boundary.capacity();
                    // Storage grows by doubling: at most one spare row per
                    // row drawn (four, before the first doubling), and
                    // never room for more rows than are held.
                    assert!(
                        (drawn..=drawn.max(4) * 2).contains(&capacity)
                            && capacity <= apch.clients.len(),
                        "{drawn} of {} rows stored in room for {capacity}",
                        apch.clients.len()
                    );
                    assert_eq!(
                        apch.heap_footprint_bytes(),
                        held(apch.clients.len(), ap.num_antennas())
                            + capacity * per_stored(ap.num_antennas()),
                        "AP {} on a {}-client floor after {rounds} rounds",
                        ap.ap_id,
                        sim.topo.clients.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel row requested for an out-of-range client")]
    fn row_lookup_of_an_out_of_range_client_panics() {
        let sim = finite_range_sim(8);
        let cutoff = sim.config.interaction_range_m;
        let ap = &sim.topo.aps[0];
        let far = sim
            .topo
            .clients
            .iter()
            .find(|c| c.ap_id != 0 && ap.antennas.iter().all(|a| a.distance(&c.position) > cutoff))
            .expect("some client is out of range of AP 0");
        sim.channels[0].row(far.id);
    }

    #[test]
    fn simulation_produces_finite_positive_capacity() {
        let pair = three_ap_pair(1);
        let env = Environment::office_a();
        let mut sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, 1));
        let result = sim.run();
        assert_eq!(result.per_round_capacity.len(), 20);
        assert!(result.mean_capacity() > 0.0);
        assert!(result.mean_capacity().is_finite());
        assert!(result.mean_streams() >= 1.0);
    }

    #[test]
    fn cas_never_exceeds_one_active_ap_in_a_shared_domain() {
        let pair = three_ap_pair(2);
        let env = Environment::office_a();
        let mut sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, 2));
        let result = sim.run();
        // All three CAS APs overhear each other, so at most 4 streams per round.
        for &s in &result.per_round_streams {
            assert!(s <= 4, "round had {s} concurrent streams under CAS");
        }
    }

    #[test]
    fn midas_achieves_more_concurrent_streams_than_cas() {
        let env = Environment::office_a();
        let mut das_streams = 0.0;
        let mut cas_streams = 0.0;
        for seed in 0..3 {
            let pair = three_ap_pair(10 + seed);
            let mut das_sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, seed));
            let mut cas_sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, seed));
            das_streams += das_sim.run().mean_streams();
            cas_streams += cas_sim.run().mean_streams();
        }
        assert!(
            das_streams > cas_streams,
            "MIDAS mean streams {das_streams} should exceed CAS {cas_streams}"
        );
    }

    #[test]
    fn midas_outperforms_cas_end_to_end() {
        // Fig. 15's qualitative claim at test scale: MIDAS clearly beats CAS.
        let env = Environment::office_a();
        let mut das_capacity = 0.0;
        let mut cas_capacity = 0.0;
        for seed in 0..3 {
            let pair = three_ap_pair(20 + seed);
            let mut das_sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, seed));
            let mut cas_sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, seed));
            das_capacity += das_sim.run().mean_capacity();
            cas_capacity += cas_sim.run().mean_capacity();
        }
        assert!(
            das_capacity > cas_capacity,
            "MIDAS capacity {das_capacity:.1} should exceed CAS {cas_capacity:.1}"
        );
    }

    #[test]
    fn airtime_fairness_is_reasonable_under_full_buffer_traffic() {
        let pair = three_ap_pair(30);
        let env = Environment::office_a();
        let mut sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, 30));
        let result = sim.run();
        let fairness = result.airtime_fairness();
        assert!(
            fairness > 0.5,
            "Jain index {fairness} too low: {:?}",
            result.per_client_airtime_us
        );
    }
}
