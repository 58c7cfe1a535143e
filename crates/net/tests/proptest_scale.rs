//! Property tests for the enterprise-scale subsystem (`midas_net::scale`).
//!
//! The load-bearing property is *exact equivalence*: the spatial-index scan
//! path must reproduce the brute-force O(n²) sweeps bit-for-bit — same
//! neighbourhood sets, same carrier-sense decisions (active sets), same
//! capacities — across random topologies, placements and interaction
//! ranges.  Everything the figures show therefore cannot depend on which
//! scan implementation ran.

use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{Topology, TopologyConfig};
use midas_channel::{Environment, SimRng};
use midas_net::contention::ContentionGraph;
use midas_net::scale::grid::ClientPlacement;
use midas_net::scale::{
    associate, AssociationPolicy, FloorGrid, Reassociator, Scenario, SpatialIndex,
};
use midas_net::simulator::{MacKind, NetworkSimulator, ScanMode};
use proptest::prelude::*;

/// Draws a random floor grid covering all three placement models.
fn random_grid(cols: usize, rows: usize, spacing: f64, placement_sel: usize) -> FloorGrid {
    let placement = match placement_sel % 3 {
        0 => ClientPlacement::Uniform,
        1 => ClientPlacement::Hotspot {
            clusters: 2,
            sigma_m: 4.0,
        },
        _ => ClientPlacement::Corridor { width_m: 3.0 },
    };
    FloorGrid {
        clients_per_ap: 4,
        placement,
        ..FloorGrid::new(cols, rows, spacing)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SpatialIndex::neighbors_within` is set-identical (and, because both
    /// sides are id-sorted, sequence-identical) to the brute-force O(n²)
    /// pair scan, for random point clouds, query points and radii —
    /// including points outside the nominal bounds and infinite radii.
    #[test]
    fn spatial_index_matches_brute_force(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        cell in 2.0f64..30.0,
        radius_sel in 0usize..8,
    ) {
        let region = Rect::new(Point::new(0.0, 0.0), 70.0, 50.0);
        let mut rng = SimRng::new(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(
                rng.uniform_range(-10.0, 80.0),
                rng.uniform_range(-10.0, 60.0),
            ))
            .collect();
        let index = SpatialIndex::from_points(region, cell, &points);
        let radius = match radius_sel {
            0 => 0.0,
            7 => f64::INFINITY,
            _ => rng.uniform_range(0.0, 60.0),
        };
        for _ in 0..5 {
            let q = Point::new(
                rng.uniform_range(-15.0, 85.0),
                rng.uniform_range(-15.0, 65.0),
            );
            prop_assert_eq!(
                index.neighbors_within(&q, radius),
                SpatialIndex::brute_force_within(&points, &q, radius)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed AP-adjacency construction equals the all-pairs
    /// range-limited sweep on random floor grids.
    #[test]
    fn indexed_ap_adjacency_matches_pairwise_sweep(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();
        let graph = ContentionGraph::new(env, seed);
        let cutoff = env.interaction_range_m(30.0);
        let indexed = graph.ap_adjacency_indexed(&topo, cutoff);
        let n = topo.aps.len();
        for (a, row) in indexed.iter().enumerate() {
            for (b, &adjacent) in row.iter().enumerate() {
                let brute = a != b && graph.aps_share_domain_within(&topo, a, b, cutoff);
                prop_assert_eq!(
                    adjacent, brute,
                    "APs {} and {} disagree between indexed and brute-force adjacency", a, b
                );
            }
        }
        prop_assert_eq!(indexed.len(), n);
    }
}

/// Runs one simulator variant under both scan modes and asserts the results
/// are bit-for-bit identical: same per-round stream counts (active sets),
/// same capacities, same airtime, same per-AP attribution.
fn assert_scan_modes_agree(scenario: &Scenario, mac: MacKind, rounds: usize, seed: u64) {
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut indexed_cfg = scenario.sim_config(mac, rounds, seed);
    indexed_cfg.scan = ScanMode::Indexed;
    let mut brute_cfg = indexed_cfg;
    brute_cfg.scan = ScanMode::BruteForce;

    let indexed = NetworkSimulator::new(topo.clone(), indexed_cfg).run();
    let brute = NetworkSimulator::new(topo, brute_cfg).run();
    assert_eq!(
        indexed,
        brute,
        "{} {:?}: indexed and brute-force simulation diverged",
        scenario.name(),
        mac
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full end-to-end equivalence of the two scan modes on every scenario
    /// family, both MACs, with the finite enterprise interaction range.
    #[test]
    fn simulator_scan_modes_are_bit_identical(
        seed in 0u64..1_000_000,
        scenario_sel in 0usize..3,
    ) {
        let scenario = match scenario_sel {
            0 => Scenario::enterprise_office(8),
            1 => Scenario::auditorium(8),
            _ => Scenario::dense_apartment(8),
        };
        for mac in [MacKind::Midas, MacKind::Cas] {
            assert_scan_modes_agree(&scenario, mac, 5, seed);
        }
    }
}

/// Mean RSSI (dBm) of the best antenna (or chassis) of `ap` at `p` — the
/// association metric, replayed independently of `midas_net`.
fn rssi_dbm(env: &Environment, topo: &Topology, ap: usize, p: &Point) -> f64 {
    let best_d = topo.aps[ap]
        .antennas
        .iter()
        .map(|a| a.distance(p))
        .fold(topo.aps[ap].position.distance(p), f64::min);
    env.tx_power_dbm - env.path_loss.path_loss_db(best_d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `LoadBalanced` tie-break is pinned to the lexicographic order
    /// `(current load, ap id)`, processed in client-id order.  An
    /// independent sequential replay over the same candidate radius must
    /// reproduce `associate`'s assignment exactly — in particular, the
    /// all-qualify window (infinite hysteresis) makes *every* candidate a
    /// tie on RSSI, so any instability in the tie-break would diverge.
    #[test]
    fn load_balanced_ties_resolve_in_stable_order(
        seed in 0u64..1_000_000,
        cols in 2usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..18.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let mut topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();

        // Independent replay: per client in id order, the pick is the least
        // `(load-so-far, ap id)` among the APs with an antenna or chassis
        // inside the candidate radius (everything, if none is in range).
        let radius = 2.0 * env.coverage_range_m();
        let mut loads = vec![0usize; topo.aps.len()];
        let mut expected = Vec::with_capacity(topo.clients.len());
        for c in &topo.clients {
            let mut cands: Vec<usize> = (0..topo.aps.len())
                .filter(|&ap| {
                    let chassis = topo.aps[ap].position.distance(&c.position);
                    topo.aps[ap]
                        .antennas
                        .iter()
                        .map(|a| a.distance(&c.position))
                        .fold(chassis, f64::min)
                        <= radius
                })
                .collect();
            if cands.is_empty() {
                cands = (0..topo.aps.len()).collect();
            }
            let pick = cands
                .into_iter()
                .min_by_key(|&ap| (loads[ap], ap))
                .expect("at least one AP");
            loads[pick] += 1;
            expected.push(pick);
        }

        associate(
            &mut topo,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: f64::INFINITY },
        );
        let got: Vec<usize> = topo.clients.iter().map(|c| c.ap_id).collect();
        prop_assert_eq!(got, expected);
    }

    /// With a *finite* window the pick must still be the least
    /// `(load, ap id)` among the in-window candidates at its turn — no
    /// client may sit on an AP while a strictly smaller qualifying pair
    /// existed when it was processed.
    #[test]
    fn load_balanced_picks_are_minimal_inside_the_window(
        seed in 0u64..1_000_000,
        hysteresis in 0.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(3, 2, 14.0, seed as usize);
        let mut topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();
        associate(
            &mut topo,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: hysteresis },
        );

        // Replay the loads in client-id order and check minimality at each
        // step, over the same candidate radius `associate` used.
        let radius = 2.0 * env.coverage_range_m();
        let mut loads = vec![0usize; topo.aps.len()];
        for c in &topo.clients {
            let mut cands: Vec<usize> = (0..topo.aps.len())
                .filter(|&ap| {
                    let chassis = topo.aps[ap].position.distance(&c.position);
                    topo.aps[ap]
                        .antennas
                        .iter()
                        .map(|a| a.distance(&c.position))
                        .fold(chassis, f64::min)
                        <= radius
                })
                .collect();
            if cands.is_empty() {
                cands = (0..topo.aps.len()).collect();
            }
            let best = cands
                .iter()
                .map(|&ap| rssi_dbm(&env, &topo, ap, &c.position))
                .fold(f64::NEG_INFINITY, f64::max);
            let window: Vec<usize> = cands
                .into_iter()
                .filter(|&ap| rssi_dbm(&env, &topo, ap, &c.position) >= best - hysteresis)
                .collect();
            prop_assert!(window.contains(&c.ap_id), "client {} landed outside its window", c.id);
            let min = window
                .into_iter()
                .min_by_key(|&ap| (loads[ap], ap))
                .expect("non-empty window");
            prop_assert_eq!(
                (loads[c.ap_id], c.ap_id), (loads[min], min),
                "client {} took a non-minimal (load, ap) pair", c.id
            );
            loads[c.ap_id] += 1;
        }
    }
}

/// Brute-force roaming reference: one incumbent-aware pass that scores
/// *every* AP with an antenna or chassis inside the candidate radius, under
/// the rule `Reassociator::reassociate` documents.  Returns the handoffs.
fn brute_force_reassociate(
    topo: &mut Topology,
    env: &Environment,
    policy: AssociationPolicy,
    hysteresis: f64,
) -> usize {
    let chassis_only = policy == AssociationPolicy::NearestAp;
    let radius = 2.0 * env.coverage_range_m();
    let nearest = |topo: &Topology, ap: usize, p: &Point| {
        let chassis = topo.aps[ap].position.distance(p);
        topo.aps[ap]
            .antennas
            .iter()
            .map(|a| a.distance(p))
            .fold(chassis, f64::min)
    };
    let score = |topo: &Topology, ap: usize, p: &Point| {
        let d = if chassis_only {
            topo.aps[ap].position.distance(p)
        } else {
            nearest(topo, ap, p)
        };
        env.tx_power_dbm - env.path_loss.path_loss_db(d)
    };
    let mut loads = vec![0usize; topo.aps.len()];
    for c in &topo.clients {
        loads[c.ap_id] += 1;
    }
    let mut handoffs = 0;
    for cid in 0..topo.clients.len() {
        let p = topo.clients[cid].position;
        let incumbent = topo.clients[cid].ap_id;
        let candidates: Vec<usize> = (0..topo.aps.len())
            .filter(|&ap| nearest(topo, ap, &p) <= radius)
            .collect();
        let incumbent_rssi = score(topo, incumbent, &p);
        let (mut best_ap, mut best) = (incumbent, incumbent_rssi);
        for &ap in &candidates {
            let s = score(topo, ap, &p);
            if ap != incumbent && (s > best || (s == best && ap < best_ap)) {
                best_ap = ap;
                best = s;
            }
        }
        if incumbent_rssi >= best - hysteresis {
            continue;
        }
        let pick = match policy {
            AssociationPolicy::LoadBalanced { .. } => candidates
                .into_iter()
                .filter(|&ap| score(topo, ap, &p) >= best - hysteresis)
                .min_by_key(|&ap| (loads[ap], ap))
                .expect("the best AP is inside its own window"),
            _ => best_ap,
        };
        if pick != incumbent {
            loads[incumbent] -= 1;
            loads[pick] += 1;
            topo.clients[cid].ap_id = pick;
            handoffs += 1;
        }
    }
    handoffs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pruned roaming pass (one index query per client, cut at the
    /// incumbent's distance) decides exactly as the brute-force scan over
    /// every AP: same `ap_id`s and handoff counts over random CAS and DAS
    /// floors, all three policies, hysteresis 0 and 3 dB, through rounds of
    /// random client moves — short walks and cross-floor jumps.
    #[test]
    fn pruned_roaming_matches_brute_force_over_every_ap(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..40.0,
        das in any::<bool>(),
        policy_sel in 0usize..3,
        sticky in any::<bool>(),
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let config = if das {
            TopologyConfig::das(4, 4)
        } else {
            TopologyConfig::cas(4, 4)
        };
        let mut pruned = grid.generate(&config, &mut rng).expect("valid grid");
        let env = Environment::open_plan();
        let policy = [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
        ][policy_sel];
        let hysteresis = if sticky { 3.0 } else { 0.0 };
        let mut reference = pruned.clone();
        let mut roam = Reassociator::new(&pruned, &env);
        let region = pruned.region;
        for pass in 0..6 {
            for c in 0..pruned.clients.len() {
                let p = pruned.clients[c].position;
                let next = match rng.uniform_usize(4) {
                    0 => p, // stays put
                    1 => Point::new(
                        rng.uniform_range(region.min.x, region.max.x),
                        rng.uniform_range(region.min.y, region.max.y),
                    ),
                    _ => Point::new(
                        (p.x + rng.uniform_range(-4.0, 4.0)).clamp(region.min.x, region.max.x),
                        (p.y + rng.uniform_range(-4.0, 4.0)).clamp(region.min.y, region.max.y),
                    ),
                };
                pruned.clients[c].position = next;
                reference.clients[c].position = next;
            }
            let got = roam.reassociate(&mut pruned, &env, policy, hysteresis);
            let want = brute_force_reassociate(&mut reference, &env, policy, hysteresis);
            prop_assert_eq!(got, want, "pass {}: handoff counts", pass);
            let ids = |t: &Topology| t.clients.iter().map(|c| c.ap_id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&pruned), ids(&reference), "pass {}: ap ids", pass);
        }
    }
}

#[test]
fn scan_modes_agree_with_infinite_interaction_range_too() {
    // The paper-scale figures run untruncated.  An infinite radius gives the
    // index nothing to prune, so the config resolves it away internally —
    // this pins that the resolution really is output-neutral.
    let scenario = Scenario::enterprise_office(8);
    let pair = scenario.build(77).unwrap();
    let mut indexed_cfg = scenario.sim_config(MacKind::Midas, 5, 77);
    indexed_cfg.interaction_range_m = f64::INFINITY;
    indexed_cfg.scan = ScanMode::Indexed;
    let mut brute_cfg = indexed_cfg;
    brute_cfg.scan = ScanMode::BruteForce;
    let indexed = NetworkSimulator::new(pair.das.clone(), indexed_cfg).run();
    let brute = NetworkSimulator::new(pair.das, brute_cfg).run();
    assert_eq!(indexed, brute);
}

#[test]
fn a_64_ap_512_client_scenario_completes_quickly() {
    // Acceptance criterion: a full 64-AP / 512-client `NetworkSimulator`
    // run finishes in seconds.  The test budget is generous so CI noise
    // cannot flake it; locally this takes well under 10 s.
    let scenario = Scenario::enterprise_office(64);
    assert_eq!(scenario.num_aps(), 64);
    assert_eq!(scenario.num_clients(), 512);
    // lint: allow(wall-clock) — test-side perf guard: times the brute-force sweep to
    // assert the spatial index is not slower; never feeds a simulation result.
    let start = std::time::Instant::now();
    let pair = scenario.build(1).expect("64-AP scenario builds");
    let mut sim = NetworkSimulator::new(pair.das, scenario.sim_config(MacKind::Midas, 10, 1));
    let result = sim.run();
    let elapsed = start.elapsed();
    assert_eq!(result.per_round_capacity.len(), 10);
    assert!(result.mean_capacity() > 0.0 && result.mean_capacity().is_finite());
    assert_eq!(result.per_ap_capacity.len(), 64);
    // MIDAS at enterprise scale reuses spectrum: many APs transmit per round.
    assert!(
        result.mean_streams() > 8.0,
        "streams {}",
        result.mean_streams()
    );
    assert!(
        elapsed.as_secs() < 60,
        "64-AP run took {elapsed:?} — spatial index not effective"
    );
}
