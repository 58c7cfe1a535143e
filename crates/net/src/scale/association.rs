//! Pluggable client-association policies.
//!
//! At the paper's 8-AP scale every client simply belongs to the AP it was
//! generated around; at enterprise scale *which* AP a client associates with
//! becomes a real design axis — and with DAS the answer changes, because a
//! client may sit far from every AP chassis yet right next to one AP's
//! distributed antenna.  Association uses the **mean** (large-scale,
//! fading-free) RSSI, the quantity real clients average over beacons; with
//! the monotone path-loss models of `midas-channel` this is a strictly
//! decreasing function of distance, so candidate pruning can ride the
//! spatial index.

use crate::scale::index::SpatialIndex;
use midas_channel::topology::Topology;
use midas_channel::{Environment, Point};

/// How clients pick their AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssociationPolicy {
    /// Strongest mean RSSI from the AP **chassis** position — what a
    /// conventional scan-and-join client does, and all a CAS deployment can
    /// offer (its antennas sit at the chassis).
    NearestAp,
    /// Strongest mean RSSI over every **individual antenna** — the
    /// DAS-aware policy: a client adopts the AP whose distributed antenna
    /// is closest, even when that AP's chassis is remote.
    AntennaAware,
    /// Antenna-aware with load balancing: among the APs whose best-antenna
    /// RSSI is within `hysteresis_db` of the strongest, pick the one
    /// currently serving the fewest clients (ties to the lowest AP id).
    /// Clients are processed in id order, so the result is deterministic.
    LoadBalanced {
        /// RSSI window (dB) within which APs are considered equivalent.
        hysteresis_db: f64,
    },
}

/// Distance from `p` to the nearest antenna of `ap` (chassis included) — or
/// to the chassis alone when `chassis_only`.
fn best_distance(topo: &Topology, ap_id: usize, p: &Point, chassis_only: bool) -> f64 {
    let ap = &topo.aps[ap_id];
    let chassis = ap.position.distance(p);
    if chassis_only {
        chassis
    } else {
        ap.antennas
            .iter()
            .map(|a| a.distance(p))
            .fold(chassis, f64::min)
    }
}

/// Mean RSSI (dBm) at distance `d` under `env`.
fn rssi_at(env: &Environment, d: f64) -> f64 {
    env.tx_power_dbm - env.path_loss.path_loss_db(d)
}

/// Mean RSSI (dBm) of the best antenna of `ap` at `p` under `env` — or of
/// the chassis itself when `chassis_only`.
fn best_rssi_dbm(
    env: &Environment,
    topo: &Topology,
    ap_id: usize,
    p: &Point,
    chassis_only: bool,
) -> f64 {
    rssi_at(env, best_distance(topo, ap_id, p, chassis_only))
}

/// Static index over every AP chassis and antenna position, tagged with the
/// owning AP — the candidate source of both [`associate`] and
/// [`Reassociator`].  APs never move, so one build serves every query.
struct ApIndex {
    /// Every AP chassis and antenna position, inserted AP by AP (chassis
    /// first), so ascending point ids map to non-decreasing AP ids.
    points: SpatialIndex,
    /// Point id → owning AP id.
    owner: Vec<u32>,
    /// Beyond this distance no AP is a plausible candidate.
    candidate_radius: f64,
    /// Query scratch, sized for every indexed point up front.
    scratch: Vec<usize>,
}

impl ApIndex {
    fn new(topo: &Topology, env: &Environment) -> Self {
        let mut points = SpatialIndex::new(topo.region, env.coverage_range_m().max(1.0));
        let mut owner = Vec::new();
        for ap in &topo.aps {
            for &p in std::iter::once(&ap.position).chain(&ap.antennas) {
                points.insert(p);
                owner.push(ap.ap_id as u32);
            }
        }
        ApIndex {
            scratch: Vec::with_capacity(owner.len()),
            points,
            owner,
            candidate_radius: 2.0 * env.coverage_range_m(),
        }
    }

    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.points.heap_footprint_bytes()
            + self.owner.capacity() * size_of::<u32>()
            + self.scratch.capacity() * size_of::<usize>()
    }

    /// Queries the APs with a chassis or antenna within `radius` of `p`; read
    /// them back with [`ApIndex::candidates`].
    fn query(&mut self, p: &Point, radius: f64) {
        self.points
            .neighbors_within_into(p, radius, &mut self.scratch);
    }

    /// The distinct APs of the last [`ApIndex::query`], in ascending id
    /// order: ascending point ids visit each AP in one run.
    fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
        let mut last = u32::MAX;
        self.scratch.iter().filter_map(move |&id| {
            let ap = self.owner[id];
            (ap != last).then(|| {
                last = ap;
                ap as usize
            })
        })
    }
}

/// Re-associates every client of `topo` under `policy`.
///
/// Candidate APs per client are discovered through a [`SpatialIndex`] over
/// all chassis and antenna positions (O(k) per client instead of a scan over
/// every AP); a client out of range of every antenna falls back to the
/// globally strongest AP so nobody is left orphaned.
pub fn associate(topo: &mut Topology, env: &Environment, policy: AssociationPolicy) {
    if topo.aps.is_empty() {
        return;
    }
    let mut index = ApIndex::new(topo, env);
    let chassis_only = policy == AssociationPolicy::NearestAp;
    let mut loads = vec![0usize; topo.aps.len()];
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for cid in 0..topo.clients.len() {
        let p = topo.clients[cid].position;
        index.query(&p, index.candidate_radius);
        let score = |ap| (ap, best_rssi_dbm(env, topo, ap, &p, chassis_only));
        scored.clear();
        scored.extend(index.candidates().map(score));
        if scored.is_empty() {
            scored.extend((0..topo.aps.len()).map(score));
        }
        let best = scored
            .iter()
            .copied()
            .fold((usize::MAX, f64::NEG_INFINITY), |acc, (ap, s)| {
                if s > acc.1 {
                    (ap, s)
                } else {
                    acc
                }
            });

        let pick = match policy {
            AssociationPolicy::NearestAp | AssociationPolicy::AntennaAware => best.0,
            AssociationPolicy::LoadBalanced { hysteresis_db } => {
                // Total order over the qualifying window: lexicographic
                // `(current load, ap id)`, lowest wins.  `scored` ascends in
                // AP id and the load comparison is strict, so equal-RSSI /
                // equal-load ties always resolve to the lowest AP id — the
                // stable tie-break the per-round roaming path (and
                // 1-vs-4-thread bit-identity) relies on.  Pinned by the
                // property tests in `proptest_scale.rs`.
                let mut pick = best.0;
                let mut pick_load = usize::MAX;
                for &(ap, s) in &scored {
                    if s >= best.1 - hysteresis_db && loads[ap] < pick_load {
                        pick = ap;
                        pick_load = loads[ap];
                    }
                }
                pick
            }
        };
        loads[pick] += 1;
        // A client's choice reads only positions and `loads`, never another
        // client's `ap_id`, so it can be written back at once.
        topo.clients[cid].ap_id = pick;
    }
}

/// Incremental roaming engine: per-round, incumbent-aware re-association.
///
/// [`associate`] rebuilds its candidate index on every call — fine for
/// one-shot topology generation, wasteful when the dynamics layer
/// re-associates every round.  `Reassociator` builds one static
/// [`SpatialIndex`] over every AP chassis and antenna position (APs never
/// move) and reuses its scratch buffers across rounds, so steady-state
/// roaming allocates nothing and needs no notice of client moves: each pass
/// reads the current positions from the topology.
///
/// ## Candidate pruning
///
/// Path loss is monotone in distance, so an AP with no antenna (or chassis)
/// closer than the incumbent's scoring distance cannot out-score the
/// incumbent.  Each client therefore queries the index once, within the
/// smaller of that distance and the candidate radius.  Every AP that could
/// change a decision is still seen, whatever the policy or hysteresis, so
/// the pruned pass decides exactly as a scan over every AP within the
/// candidate radius would (pinned by `proptest_scale.rs`).
///
/// ## Handoff semantics
///
/// A client sticks with its incumbent AP while the incumbent's mean RSSI is
/// within `hysteresis_db` of the best candidate's.  Only when the incumbent
/// falls below that window does the client hand off: [`NearestAp`] /
/// [`AntennaAware`] pick the strongest candidate (lowest AP id on exact
/// RSSI ties), [`LoadBalanced`] picks the lexicographically least
/// `(current load, ap id)` among the candidates inside the window.  The
/// explicit `hysteresis_db` argument governs both the stickiness and the
/// load-equivalence window here; the policy's embedded window applies to
/// fresh [`associate`] passes only.
///
/// Because a freshly handed-off client lands inside the window by
/// construction, a static topology reaches a fix-point after one pass —
/// handoffs cannot oscillate — which the property tests pin.
///
/// [`NearestAp`]: AssociationPolicy::NearestAp
/// [`AntennaAware`]: AssociationPolicy::AntennaAware
/// [`LoadBalanced`]: AssociationPolicy::LoadBalanced
pub struct Reassociator {
    index: ApIndex,
    loads: Vec<usize>,
}

impl Reassociator {
    /// Builds the static AP-position index for `topo`.
    pub fn new(topo: &Topology, env: &Environment) -> Self {
        Reassociator {
            index: ApIndex::new(topo, env),
            loads: vec![0; topo.aps.len()],
        }
    }

    /// Bytes of heap the roaming engine retains; fixed at construction.
    pub fn heap_footprint_bytes(&self) -> usize {
        self.index.heap_footprint_bytes() + self.loads.capacity() * std::mem::size_of::<usize>()
    }

    /// One incumbent-aware re-association pass over every client (in client
    /// id order).  Returns the number of handoffs performed.
    pub fn reassociate(
        &mut self,
        topo: &mut Topology,
        env: &Environment,
        policy: AssociationPolicy,
        hysteresis_db: f64,
    ) -> usize {
        if topo.aps.is_empty() || topo.clients.is_empty() {
            return 0;
        }
        self.loads.clear();
        self.loads.resize(topo.aps.len(), 0);
        for c in &topo.clients {
            self.loads[c.ap_id] += 1;
        }

        let chassis_only = policy == AssociationPolicy::NearestAp;
        let hysteresis = hysteresis_db.max(0.0);
        let mut handoffs = 0usize;
        for cid in 0..topo.clients.len() {
            let p = topo.clients[cid].position;
            let incumbent = topo.clients[cid].ap_id;
            let incumbent_d = best_distance(topo, incumbent, &p, chassis_only);
            let incumbent_rssi = rssi_at(env, incumbent_d);
            self.index
                .query(&p, incumbent_d.min(self.index.candidate_radius));

            let mut best_ap = incumbent;
            let mut best_rssi = incumbent_rssi;
            for ap in self.index.candidates() {
                if ap == incumbent {
                    continue;
                }
                let s = best_rssi_dbm(env, topo, ap, &p, chassis_only);
                if s > best_rssi || (s == best_rssi && ap < best_ap) {
                    best_ap = ap;
                    best_rssi = s;
                }
            }
            if incumbent_rssi >= best_rssi - hysteresis {
                continue; // sticky: the incumbent is still good enough
            }
            let pick = match policy {
                AssociationPolicy::NearestAp | AssociationPolicy::AntennaAware => best_ap,
                AssociationPolicy::LoadBalanced { .. } => {
                    // Least `(current load, ap id)` inside the window — the
                    // same total order the fresh pass uses.
                    let mut pick = best_ap;
                    let mut pick_load = self.loads[best_ap];
                    for ap in self.index.candidates() {
                        let s = best_rssi_dbm(env, topo, ap, &p, chassis_only);
                        if s >= best_rssi - hysteresis && (self.loads[ap], ap) < (pick_load, pick) {
                            pick = ap;
                            pick_load = self.loads[ap];
                        }
                    }
                    pick
                }
            };
            if pick != incumbent {
                self.loads[incumbent] -= 1;
                self.loads[pick] += 1;
                topo.clients[cid].ap_id = pick;
                handoffs += 1;
            }
        }
        handoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::grid::FloorGrid;
    use midas_channel::topology::TopologyConfig;
    use midas_channel::SimRng;

    fn grid_topology(seed: u64) -> (Topology, Environment) {
        let mut rng = SimRng::new(seed);
        let grid = FloorGrid::new(4, 2, 15.0);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        (topo, Environment::open_plan())
    }

    #[test]
    fn nearest_ap_matches_chassis_distance() {
        let (mut topo, env) = grid_topology(1);
        associate(&mut topo, &env, AssociationPolicy::NearestAp);
        for c in &topo.clients {
            let own = topo.aps[c.ap_id].position.distance(&c.position);
            for ap in &topo.aps {
                assert!(
                    ap.position.distance(&c.position) >= own - 1e-9,
                    "client {} associated past a closer AP",
                    c.id
                );
            }
        }
    }

    #[test]
    fn antenna_aware_matches_best_antenna_distance() {
        let (mut topo, env) = grid_topology(2);
        associate(&mut topo, &env, AssociationPolicy::AntennaAware);
        let best_d = |topo: &Topology, ap_id: usize, p: &Point| {
            topo.aps[ap_id]
                .antennas
                .iter()
                .map(|a| a.distance(p))
                .fold(topo.aps[ap_id].position.distance(p), f64::min)
        };
        for c in &topo.clients {
            let own = best_d(&topo, c.ap_id, &c.position);
            for ap_id in 0..topo.aps.len() {
                assert!(best_d(&topo, ap_id, &c.position) >= own - 1e-9);
            }
        }
    }

    #[test]
    fn antenna_aware_differs_from_nearest_ap_on_das_floors() {
        // Distributed antennas must actually flip some associations —
        // otherwise the policy axis is vacuous.
        let mut flips = 0usize;
        for seed in 0..5 {
            let (mut a, env) = grid_topology(100 + seed);
            let mut b = a.clone();
            associate(&mut a, &env, AssociationPolicy::NearestAp);
            associate(&mut b, &env, AssociationPolicy::AntennaAware);
            flips += a
                .clients
                .iter()
                .zip(b.clients.iter())
                .filter(|(x, y)| x.ap_id != y.ap_id)
                .count();
        }
        assert!(flips > 0, "antenna-aware association never differed");
    }

    #[test]
    fn load_balancing_tightens_the_client_spread() {
        // Hotspot floors overload one AP under pure RSSI association; the
        // load-balanced policy must spread the peak.
        let mut rng = SimRng::new(7);
        let grid = FloorGrid {
            clients_per_ap: 12,
            placement: crate::scale::grid::ClientPlacement::Hotspot {
                clusters: 1,
                sigma_m: 8.0,
            },
            ..FloorGrid::new(3, 2, 14.0)
        };
        let env = Environment::open_plan();
        let mut rssi_only = grid.generate(&TopologyConfig::das(4, 4), &mut rng).unwrap();
        let mut balanced = rssi_only.clone();
        associate(&mut rssi_only, &env, AssociationPolicy::AntennaAware);
        associate(
            &mut balanced,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: 8.0 },
        );
        let peak = |topo: &Topology| {
            (0..topo.aps.len())
                .map(|ap| topo.clients_of(ap).len())
                .max()
                .unwrap()
        };
        assert!(
            peak(&balanced) < peak(&rssi_only),
            "load balancing did not reduce the peak load ({} vs {})",
            peak(&balanced),
            peak(&rssi_only)
        );
    }

    #[test]
    fn reassociate_reaches_a_fix_point_in_one_pass() {
        for policy in [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
        ] {
            let (mut topo, env) = grid_topology(21);
            // Scramble: everyone on AP 0 — far from optimal.
            for c in &mut topo.clients {
                c.ap_id = 0;
            }
            let mut roam = Reassociator::new(&topo, &env);
            let first = roam.reassociate(&mut topo, &env, policy, 3.0);
            assert!(first > 0, "{policy:?}: no handoffs from a scrambled start");
            let second = roam.reassociate(&mut topo, &env, policy, 3.0);
            assert_eq!(second, 0, "{policy:?}: handoffs oscillate");
        }
    }

    #[test]
    fn reassociate_agrees_with_fresh_association_at_zero_hysteresis() {
        let (mut fresh, env) = grid_topology(22);
        associate(&mut fresh, &env, AssociationPolicy::AntennaAware);
        let mut roamed = fresh.clone();
        for c in &mut roamed.clients {
            c.ap_id = 0;
        }
        let mut roam = Reassociator::new(&roamed, &env);
        roam.reassociate(&mut roamed, &env, AssociationPolicy::AntennaAware, 0.0);
        // Every client must land on an AP with the same best-antenna RSSI as
        // the fresh pass chose (ids can differ only on exact RSSI ties).
        for (a, b) in fresh.clients.iter().zip(roamed.clients.iter()) {
            let ra = best_rssi_dbm(&env, &fresh, a.ap_id, &a.position, false);
            let rb = best_rssi_dbm(&env, &roamed, b.ap_id, &b.position, false);
            assert!((ra - rb).abs() < 1e-9, "client {}: {ra} vs {rb}", a.id);
        }
        // And a fresh-associated topology is already a roaming fix-point.
        let mut stable = fresh.clone();
        let mut roam2 = Reassociator::new(&stable, &env);
        assert_eq!(
            roam2.reassociate(&mut stable, &env, AssociationPolicy::AntennaAware, 0.0),
            0
        );
    }

    #[test]
    fn reassociate_tracks_moved_clients_through_the_index() {
        let (mut topo, env) = grid_topology(23);
        associate(&mut topo, &env, AssociationPolicy::AntennaAware);
        let mut roam = Reassociator::new(&topo, &env);
        // Walk client 0 across the floor to the far corner; the pass reads
        // the new position straight from the topology.
        let far = Point::new(topo.region.max.x - 1.0, topo.region.max.y - 1.0);
        topo.clients[0].position = far;
        let handoffs = roam.reassociate(&mut topo, &env, AssociationPolicy::AntennaAware, 0.0);
        assert!(handoffs >= 1, "a cross-floor move must hand off");
        let own = best_rssi_dbm(&env, &topo, topo.clients[0].ap_id, &far, false);
        for ap in 0..topo.aps.len() {
            assert!(best_rssi_dbm(&env, &topo, ap, &far, false) <= own + 1e-9);
        }
    }

    #[test]
    fn association_is_deterministic() {
        for policy in [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 6.0 },
        ] {
            let (mut a, env) = grid_topology(9);
            let mut b = a.clone();
            associate(&mut a, &env, policy);
            associate(&mut b, &env, policy);
            let ids = |t: &Topology| t.clients.iter().map(|c| c.ap_id).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b));
        }
    }
}
