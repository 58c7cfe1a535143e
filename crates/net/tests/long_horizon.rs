//! Long-horizon dynamics suite: a network that runs for 10⁵ rounds with
//! mobility, roaming and churn must stay flat in memory, bit-identical
//! across evolve-thread counts, and — with dynamics off — byte-identical
//! to the static simulator.
//!
//! These are the acceptance tests for the dynamics layer: everything here
//! runs on a deliberately tiny floor (2 APs, 8 clients) so the 10⁵-round
//! horizon stays debug-build friendly; the *scale* axis is covered by
//! `proptest_scale.rs` and the bench suite.

use midas_channel::topology::{Topology, TopologyConfig};
use midas_channel::{Environment, SimRng};
use midas_net::dynamics::DynamicsSpec;
use midas_net::observer::{Observer, RoundRecord, RunningSummary};
use midas_net::scale::FloorGrid;
use midas_net::simulator::{NetworkSimConfig, NetworkSimulator};
use midas_net::traffic::TrafficKind;

/// 2-AP / 8-client DAS floor — small enough that 10⁵ debug rounds are fast.
fn tiny_floor(seed: u64) -> (Topology, Environment) {
    let mut rng = SimRng::new(seed);
    let grid = FloorGrid {
        clients_per_ap: 4,
        ..FloorGrid::new(2, 1, 15.0)
    };
    let topo = grid
        .generate(&TopologyConfig::das(2, 2), &mut rng)
        .expect("valid grid");
    (topo, Environment::open_plan())
}

/// Roaming walkers plus churn traffic.
fn dynamic_sim(rounds: usize, seed: u64, evolve_threads: usize) -> NetworkSimulator {
    let (topo, env) = tiny_floor(seed);
    let mut config = NetworkSimConfig::midas(env, seed);
    config.rounds = rounds;
    config.evolve_threads = evolve_threads;
    config.dynamics = Some(DynamicsSpec::roaming_walk(1.4));
    NetworkSimulator::new(topo, config).with_traffic_kind(TrafficKind::Churn {
        attached_fraction: 0.7,
        mean_session_rounds: 30.0,
    })
}

#[test]
fn a_hundred_thousand_round_run_is_flat_in_memory() {
    // Warm up, snapshot every retained-heap account, then run a 100 000
    // round horizon through a fixed-size observer: nothing may grow.  This
    // is the long-horizon acceptance criterion — session memory is
    // O(network size), not O(rounds).  Warm-up is 20 000 rounds because
    // the last high-water marks (worst-case handoff membership, waypoint
    // clustering) are rare events, not first-round allocations.
    let mut sim = dynamic_sim(20_000, 42, 1);
    let mut warm_summary = RunningSummary::new();
    sim.run_with(&mut warm_summary);
    let warm_workspace = sim.workspace_heap_footprint_bytes();
    let warm_dynamics = sim.dynamics_heap_footprint_bytes();

    let mut long = dynamic_sim(100_000, 42, 1);
    let mut summary = RunningSummary::new();
    long.run_with(&mut summary);
    assert_eq!(summary.rounds(), 100_000);
    assert_eq!(
        long.workspace_heap_footprint_bytes(),
        warm_workspace,
        "workspace grew between the warm snapshot and 10^5 rounds"
    );
    assert_eq!(
        long.dynamics_heap_footprint_bytes(),
        warm_dynamics,
        "dynamics state grew between the warm snapshot and 10^5 rounds"
    );
    assert_eq!(
        summary.heap_footprint_bytes(),
        warm_summary.heap_footprint_bytes(),
        "the streaming observer's footprint must not depend on the horizon"
    );

    // And the horizon was genuinely dynamic: clients moved and handed off.
    let (moves, handoffs) = long.dynamics_stats().expect("dynamics are on");
    assert!(moves > 0, "nobody moved in 10^5 rounds");
    assert!(handoffs > 0, "nobody handed off in 10^5 rounds");
    assert!(summary.capacity_sum() > 0.0);
}

#[test]
fn dynamic_runs_are_bit_identical_across_evolve_thread_counts() {
    // Mobility, roaming and churn all draw from dedicated RNG streams, and
    // fading evolution is keyed rather than sequenced — so a
    // 4-thread run must reproduce the single-thread run bit for bit.
    let serial = dynamic_sim(400, 7, 1).run();
    let parallel = dynamic_sim(400, 7, 4).run();
    assert_eq!(serial, parallel);
}

#[test]
fn dynamic_runs_are_deterministic_in_the_seed() {
    let a = dynamic_sim(300, 11, 2).run();
    let b = dynamic_sim(300, 11, 2).run();
    assert_eq!(a, b);
}

#[test]
fn dynamics_off_is_byte_identical_to_the_static_simulator() {
    // `config.dynamics = None` must take exactly the legacy code path:
    // same draws, same rows, same bytes.  (An *inactive* spec is filtered
    // to `None` at the session layer — `Some` always switches to dense
    // channel rows, which re-keys nothing but allocates differently, so
    // the byte-identity contract lives on `None`.)
    let (topo, env) = tiny_floor(5);
    let mut config = NetworkSimConfig::midas(env, 5);
    config.rounds = 50;
    let static_run = NetworkSimulator::new(topo.clone(), config).run();
    assert!(config.dynamics.is_none());
    let again = NetworkSimulator::new(topo, config).run();
    assert_eq!(static_run, again);
}

#[test]
fn a_long_static_run_with_churn_stays_flat_too() {
    // Churn alone (no mobility) exercises the queue/session bookkeeping on
    // the long horizon; it must be as allocation-flat as the dynamic path.
    let build = |rounds: usize| {
        let (topo, env) = tiny_floor(13);
        let mut config = NetworkSimConfig::midas(env, 13);
        config.rounds = rounds;
        NetworkSimulator::new(topo, config).with_traffic_kind(TrafficKind::Churn {
            attached_fraction: 0.5,
            mean_session_rounds: 20.0,
        })
    };
    let mut warm = build(1_000);
    let mut warm_summary = RunningSummary::new();
    warm.run_with(&mut warm_summary);

    let mut long = build(100_000);
    let mut summary = RunningSummary::new();
    long.run_with(&mut summary);
    assert_eq!(
        long.workspace_heap_footprint_bytes(),
        warm.workspace_heap_footprint_bytes()
    );
    assert_eq!(
        summary.heap_footprint_bytes(),
        warm_summary.heap_footprint_bytes()
    );
    assert_eq!(summary.rounds(), 100_000);
}

/// 8-AP / 64-client DAS floor with fast walkers: enough handoffs and
/// out-of-read rows to exercise lazy large-scale refresh.
fn walker_sim(rounds: usize) -> NetworkSimulator {
    let mut rng = SimRng::new(31);
    let topo = FloorGrid::new(4, 2, 15.0)
        .generate(&TopologyConfig::das(4, 4), &mut rng)
        .expect("valid grid");
    let mut config = NetworkSimConfig::midas(Environment::open_plan(), 31);
    config.rounds = rounds;
    config.dynamics = Some(DynamicsSpec::roaming_walk(250.0));
    NetworkSimulator::new(topo, config)
}

/// Per-round counts and capacity sums of a run.
#[derive(Default)]
struct PerRound {
    deliveries: Vec<usize>,
    streams: Vec<usize>,
    tx_aps: Vec<usize>,
    capacity: Vec<f64>,
}

impl Observer for PerRound {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.deliveries.push(record.deliveries.len());
        self.streams.push(record.streams);
        self.tx_aps.push(record.transmitting_aps.len());
        self.capacity.push(record.total_capacity());
    }
}

#[test]
fn lazy_refresh_reproduces_the_eager_refresh_golden() {
    // Recorded from the simulator that refreshed every moved client's row
    // at every AP on every step.  Lazy refresh keeps the large-scale gains
    // bit-identical (they are a pure function of position), so every count
    // and handoff must match exactly; only the composite coefficients
    // differ, in their last bits (one `g_now / g_then` rescale replaces a
    // chain of per-step rescales), hence the capacity tolerance.
    const DELIVERIES: [usize; 40] = [
        9, 9, 10, 10, 10, 9, 9, 9, 8, 9, 9, 7, 8, 9, 8, 9, 9, 8, 7, 8, 9, 7, 8, 9, 7, 7, 9, 7, 8,
        8, 9, 9, 7, 8, 8, 7, 10, 10, 8, 7,
    ];
    const TX_APS: [usize; 40] = [
        3, 4, 4, 4, 4, 4, 5, 4, 4, 4, 4, 4, 4, 3, 3, 4, 3, 4, 3, 4, 4, 3, 3, 4, 3, 3, 3, 3, 3, 4,
        4, 4, 3, 4, 4, 4, 4, 6, 3, 4,
    ];
    const HANDOFFS: [usize; 40] = [
        0, 6, 8, 0, 1, 4, 3, 4, 3, 7, 4, 3, 4, 1, 2, 9, 7, 6, 3, 5, 6, 4, 4, 4, 6, 4, 5, 8, 1, 1,
        2, 4, 5, 4, 5, 6, 3, 5, 7, 3,
    ];
    const CAPACITY: [f64; 40] = [
        62.71432455872196,
        42.32376534348777,
        81.71825828483612,
        76.12627095593646,
        70.9588000924231,
        75.69947651540176,
        48.6961710739046,
        61.72834145275348,
        55.32618159141674,
        65.57612437239145,
        60.56074331092146,
        60.13682790478818,
        29.319679385798548,
        31.064811923525237,
        28.8141861759893,
        20.058101618590484,
        79.06992588493641,
        53.95711577272864,
        68.27442516710927,
        23.515585595507353,
        36.463001986022306,
        42.698967466132046,
        63.22487801803731,
        56.26024796506537,
        48.390254220717296,
        46.58729464171665,
        62.83498986794865,
        51.6689753928213,
        57.59196082936412,
        69.55885153023415,
        64.23939635287527,
        55.373999857620404,
        52.12435950360903,
        65.2194900314481,
        55.060769788248344,
        44.742580861042256,
        66.30452945505873,
        46.59041211863059,
        40.968568867504146,
        67.64467793557667,
    ];

    let mut rounds = PerRound::default();
    let mut sim = walker_sim(40);
    sim.run_with(&mut rounds);
    assert_eq!(rounds.deliveries, DELIVERIES);
    // Full buffer, graph contention: every selected stream is delivered.
    assert_eq!(rounds.streams, DELIVERIES);
    assert_eq!(rounds.tx_aps, TX_APS);
    assert_eq!(sim.dynamics_stats(), Some((2496, HANDOFFS.iter().sum())));
    for (round, (got, want)) in rounds.capacity.iter().zip(CAPACITY).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs(),
            "round {round}: capacity {got} vs golden {want}"
        );
    }

    // Per-round handoffs: a k-round run is the prefix of the 40-round run.
    let mut before = 0;
    for (k, &want) in HANDOFFS.iter().enumerate() {
        let mut prefix = walker_sim(k + 1);
        prefix.run();
        let (_, total) = prefix.dynamics_stats().expect("dynamics are on");
        assert_eq!(total - before, want, "handoffs in round {k}");
        before = total;
    }
}

#[test]
fn large_scale_refreshes_stay_lazy() {
    // The refresh counter is exact, so it gates laziness with no timing
    // noise: a change that refreshes rows nobody reads moves these pins.
    // Eager refresh pays `moves × APs`.  Every step re-tags each moved
    // client at its own AP, so on the 2-AP floor lazy refresh costs half of
    // that (the two APs overhear each other and never read interferer
    // rows); the 8-AP floor must stay under a quarter.
    let mut tiny = dynamic_sim(400, 7, 1);
    tiny.run();
    let (moves, _) = tiny.dynamics_stats().expect("dynamics are on");
    assert_eq!((moves, tiny.large_scale_refreshes()), (3192, 3192));

    let mut walkers = walker_sim(40);
    walkers.run();
    let (moves, _) = walkers.dynamics_stats().expect("dynamics are on");
    let aps = walkers.topology().aps.len();
    let refreshes = walkers.large_scale_refreshes();
    assert_eq!((moves, refreshes), (2496, 3405));
    assert!(
        4 * refreshes <= moves * aps,
        "{refreshes} refreshes for {moves} moves x {aps} APs"
    );
}
