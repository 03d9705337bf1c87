//! Route choice at intersections.
//!
//! The paper's traffic has two macroscopic properties the protocols depend on:
//!
//! 1. **Arteries dominate**: main arteries carry roughly tenfold the vehicle density
//!    of normal roads ("almost 90 % \[of\] vehicles are driving on main arteries").
//! 2. **Artery traffic flows straight**: the update-suppression rule only pays off if
//!    artery vehicles usually continue straight rather than turning.
//!
//! We reproduce both with a weighted random-turn model: at each intersection a
//! vehicle picks the next road with probability proportional to
//! `class_weight × straightness_weight`, never U-turning unless the intersection is
//! a dead end.

use crate::vehicle::VehicleState;
use rand::rngs::SmallRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use vanet_geo::{classify_turn, TurnKind};
use vanet_roadnet::{IntersectionId, RoadClass, RoadId, RoadNetwork};

/// Parameters of the weighted random-turn model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteConfig {
    /// Weight multiplier for artery roads (the paper's ~10× density ratio).
    pub artery_bias: f64,
    /// Weight multiplier for continuing straight through an intersection.
    pub straight_bias: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        // straight_bias 4 gives artery traffic a mean straight run of ~1.2 km
        // between turns — consistent with the paper's table lifetimes (≈1000 m of
        // driving) and with city traffic, where forced turns are frequent.
        RouteConfig {
            artery_bias: 10.0,
            straight_bias: 4.0,
        }
    }
}

/// Chooses the next road for a vehicle arriving at intersection `at` off `incoming`.
///
/// Returns the chosen road. U-turns are excluded unless `incoming` is the only
/// incident road.
pub fn choose_next_road(
    net: &RoadNetwork,
    cfg: &RouteConfig,
    at: IntersectionId,
    incoming: RoadId,
    rng: &mut SmallRng,
) -> RoadId {
    let candidates = net.incident_roads(at);
    debug_assert!(candidates.contains(&incoming), "incoming road not incident");
    if candidates.len() == 1 {
        return incoming; // dead end: forced U-turn
    }
    // Heading we arrive with: driving toward `at`, i.e. from the other end.
    let arrive_heading = net.heading_from(incoming, net.other_end(incoming, at));
    // Weight buffer on the stack: grid intersections have at most 4 incident
    // roads, so the per-crossing heap allocation this loop used to make is
    // pure overhead (a spilled Vec covers pathological junctions).
    let mut stack_buf = [0.0f64; 8];
    let mut heap_buf;
    let weights: &mut [f64] = if candidates.len() <= stack_buf.len() {
        &mut stack_buf[..candidates.len()]
    } else {
        heap_buf = vec![0.0; candidates.len()];
        &mut heap_buf
    };
    let mut total = 0.0;
    for (j, &rid) in candidates.iter().enumerate() {
        if rid == incoming {
            weights[j] = 0.0;
            continue;
        }
        let leave_heading = net.heading_from(rid, at);
        let class_w = match net.road(rid).class {
            RoadClass::Artery => cfg.artery_bias,
            RoadClass::Normal => 1.0,
        };
        let straight_w = match classify_turn(arrive_heading, leave_heading) {
            TurnKind::Straight => cfg.straight_bias,
            TurnKind::Turn => 1.0,
            TurnKind::UTurn => 0.0, // geometric U-turn via a distinct road: skip
        };
        let w = class_w * straight_w;
        weights[j] = w;
        total += w;
    }
    if total <= 0.0 {
        // Every alternative was a U-turn-like road; fall back to any non-incoming.
        return *candidates
            .iter()
            .find(|&&r| r != incoming)
            .unwrap_or(&incoming);
    }
    let mut draw = rng.random_range(0.0..total);
    for (&rid, &w) in candidates.iter().zip(weights.iter()) {
        if w <= 0.0 {
            continue;
        }
        if draw < w {
            return rid;
        }
        draw -= w;
    }
    // Floating-point tail: take the last weighted candidate.
    *candidates
        .iter()
        .zip(weights.iter())
        .rev()
        .find(|(_, &w)| w > 0.0)
        .map(|(r, _)| r)
        .expect("total > 0 implies a weighted candidate")
}

/// Spawns `n` vehicles on roads weighted by `length × class weight`, with uniform
/// offsets and desired speeds drawn from `[min_speed, max_speed]` m/s.
///
/// # Panics
///
/// Panics on an invalid speed range, or unless the road weights are all
/// non-negative with a positive, finite total (a network with no roads has
/// nothing to spawn on).
pub fn spawn_vehicles(
    net: &RoadNetwork,
    cfg: &RouteConfig,
    n: usize,
    min_speed: f64,
    max_speed: f64,
    rng: &mut SmallRng,
) -> Vec<VehicleState> {
    use crate::vehicle::{VehicleId, VehicleState};
    assert!(
        max_speed >= min_speed && min_speed >= 0.0,
        "invalid speed range"
    );
    let table = SpawnTable::new(net, cfg);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let road = RoadId(table.pick(rng.random_range(0.0..table.total)) as u32);
        let r = net.road(road);
        let from = if rng.random_bool(0.5) { r.a } else { r.b };
        let offset = rng.random_range(0.0..r.length);
        let desired_speed = if max_speed > min_speed {
            rng.random_range(min_speed..max_speed)
        } else {
            min_speed
        };
        out.push(VehicleState {
            id: VehicleId(i as u32),
            road,
            from,
            offset,
            speed: desired_speed, // start at cruise so warm-up is short
            desired_speed,
        });
    }
    out
}

/// Spawn weights of every road with their running sums, so a road draw is a
/// binary search instead of a walk over all roads.
///
/// A draw's road is defined by walking the roads in id order, testing
/// `draw < w` and otherwise subtracting `w`. [`SpawnTable::pick`] returns
/// exactly that walk's answer: the running sums and the subtracted
/// remainders round differently, but by at most `margin` in total, so a draw
/// farther than `margin` from every running sum is classified identically by
/// both. Draws inside the margin replay the walk itself.
struct SpawnTable {
    weights: Vec<f64>,
    /// `ends[k]` = `weights[0] + … + weights[k]`, summed left to right.
    ends: Vec<f64>,
    /// `weights` summed left to right: the draw range `[0, total)`.
    total: f64,
    /// `roads × total × ε` bounds the rounding gap between a running sum
    /// and the walk's remainder at any road (see DESIGN.md).
    margin: f64,
}

impl SpawnTable {
    fn new(net: &RoadNetwork, cfg: &RouteConfig) -> Self {
        let weights: Vec<f64> = net
            .roads()
            .iter()
            .map(|r| {
                r.length
                    * match r.class {
                        RoadClass::Artery => cfg.artery_bias,
                        RoadClass::Normal => 1.0,
                    }
            })
            .collect();
        let ends: Vec<f64> = weights
            .iter()
            .scan(0.0, |sum, &w| {
                *sum += w;
                Some(*sum)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite() && weights.iter().all(|&w| w >= 0.0),
            "spawning needs roads with non-negative weights and a positive total"
        );
        SpawnTable {
            margin: weights.len() as f64 * total * f64::EPSILON,
            weights,
            ends,
            total,
        }
    }

    /// Index of the road the sequential walk picks for `draw`.
    fn pick(&self, draw: f64) -> usize {
        let k = self.ends.partition_point(|&end| end <= draw);
        if self.clear_of_boundaries(draw, k) {
            k
        } else {
            self.walk(draw)
        }
    }

    /// True if road `k` was found and `draw` lies farther than `margin` from
    /// both of its running-sum boundaries.
    fn clear_of_boundaries(&self, draw: f64, k: usize) -> bool {
        k < self.ends.len()
            && self.ends[k] - draw > self.margin
            && (k == 0 || draw - self.ends[k - 1] > self.margin)
    }

    /// The sequential walk; the last road takes a draw that outruns every
    /// remainder through rounding.
    fn walk(&self, mut draw: f64) -> usize {
        for (k, &w) in self.weights.iter().enumerate() {
            if draw < w {
                return k;
            }
            draw -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vanet_roadnet::{generate_grid, GridMapSpec};

    fn net() -> RoadNetwork {
        generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0))
    }

    #[test]
    fn never_uturns_at_four_way() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(7);
        // Interior node with 4 roads.
        let at = net.nearest_intersection(vanet_geo::Point::new(500.0, 500.0));
        assert!(net.incident_roads(at).len() == 4);
        let incoming = net.incident_roads(at)[0];
        for _ in 0..200 {
            let next = choose_next_road(&net, &cfg, at, incoming, &mut rng);
            assert_ne!(next, incoming);
        }
    }

    #[test]
    fn straight_bias_prefers_straight() {
        let net = net();
        let cfg = RouteConfig {
            artery_bias: 1.0,
            straight_bias: 10.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let at = net.nearest_intersection(vanet_geo::Point::new(500.0, 500.0));
        let incoming = net.incident_roads(at)[0];
        let arrive = net.heading_from(incoming, net.other_end(incoming, at));
        let mut straight = 0;
        let trials = 1000;
        for _ in 0..trials {
            let next = choose_next_road(&net, &cfg, at, incoming, &mut rng);
            let leave = net.heading_from(next, at);
            if classify_turn(arrive, leave) == TurnKind::Straight {
                straight += 1;
            }
        }
        // Expected share = 10 / 12 ≈ 0.83.
        assert!(
            straight > trials * 7 / 10,
            "straight only {straight}/{trials}"
        );
    }

    #[test]
    fn spawn_respects_artery_bias() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let vehicles = spawn_vehicles(&net, &cfg, 4000, 2.0, 16.0, &mut rng);
        assert_eq!(vehicles.len(), 4000);
        let on_artery = vehicles
            .iter()
            .filter(|v| v.road_class(&net) == RoadClass::Artery)
            .count();
        // 1 km paper map: artery length 3×2×1000 = 6000 m of 18000 m total.
        // Weighted share = 60000 / 72000 ≈ 0.83.
        let share = on_artery as f64 / vehicles.len() as f64;
        assert!((0.75..0.92).contains(&share), "artery share {share}");
    }

    #[test]
    fn spawned_vehicles_are_valid() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for v in spawn_vehicles(&net, &cfg, 500, 2.0, 16.0, &mut rng) {
            let r = net.road(v.road);
            assert!(v.offset >= 0.0 && v.offset < r.length);
            assert!(v.desired_speed >= 2.0 && v.desired_speed <= 16.0);
            assert!(v.from == r.a || v.from == r.b);
        }
    }

    /// The road the pre-table spawner chose for `draw`: walk every road in
    /// id order, testing `draw < w` and otherwise subtracting `w`.
    fn linear_pick(net: &RoadNetwork, cfg: &RouteConfig, mut draw: f64) -> RoadId {
        let mut road = net.roads().last().expect("non-empty network").id;
        for r in net.roads() {
            let w = r.length
                * match r.class {
                    RoadClass::Artery => cfg.artery_bias,
                    RoadClass::Normal => 1.0,
                };
            if draw < w {
                road = r.id;
                break;
            }
            draw -= w;
        }
        road
    }

    /// The pre-table spawner, kept as the reference the table must match.
    fn spawn_vehicles_linear(
        net: &RoadNetwork,
        cfg: &RouteConfig,
        n: usize,
        min_speed: f64,
        max_speed: f64,
        rng: &mut SmallRng,
    ) -> Vec<VehicleState> {
        use crate::vehicle::VehicleId;
        let total: f64 = net
            .roads()
            .iter()
            .map(|r| {
                r.length
                    * match r.class {
                        RoadClass::Artery => cfg.artery_bias,
                        RoadClass::Normal => 1.0,
                    }
            })
            .sum();
        (0..n)
            .map(|i| {
                let road = linear_pick(net, cfg, rng.random_range(0.0..total));
                let r = net.road(road);
                let from = if rng.random_bool(0.5) { r.a } else { r.b };
                let offset = rng.random_range(0.0..r.length);
                let desired_speed = if max_speed > min_speed {
                    rng.random_range(min_speed..max_speed)
                } else {
                    min_speed
                };
                VehicleState {
                    id: VehicleId(i as u32),
                    road,
                    from,
                    offset,
                    speed: desired_speed,
                    desired_speed,
                }
            })
            .collect()
    }

    fn maps() -> Vec<RoadNetwork> {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut out = Vec::new();
        for size in [500.0, 2000.0, 4000.0] {
            out.push(generate_grid(&GridMapSpec::paper(size), &mut rng));
            out.push(generate_grid(&GridMapSpec::jittered(size, 40.0), &mut rng));
        }
        out
    }

    #[test]
    fn spawn_matches_linear_reference() {
        let biased = RouteConfig {
            artery_bias: 7.3,
            straight_bias: 4.0,
        };
        for net in maps() {
            for cfg in [RouteConfig::default(), biased] {
                for seed in 0..12 {
                    let got = spawn_vehicles(
                        &net,
                        &cfg,
                        300,
                        2.0,
                        16.0,
                        &mut SmallRng::seed_from_u64(seed),
                    );
                    let want = spawn_vehicles_linear(
                        &net,
                        &cfg,
                        300,
                        2.0,
                        16.0,
                        &mut SmallRng::seed_from_u64(seed),
                    );
                    assert_eq!(got, want, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn boundary_draws_take_the_walk_and_match_it() {
        let cfg = RouteConfig::default();
        let mut naive_mismatches = 0;
        for net in maps() {
            let table = SpawnTable::new(&net, &cfg);
            for (k, &end) in table.ends.iter().enumerate() {
                for draw in [end, end.next_down(), end.next_up()] {
                    if draw >= table.total {
                        continue;
                    }
                    let found = table.ends.partition_point(|&e| e <= draw);
                    assert!(!table.clear_of_boundaries(draw, found), "road {k}");
                    let want = linear_pick(&net, &cfg, draw).0 as usize;
                    assert_eq!(table.pick(draw), want, "road {k}, draw {draw}");
                    naive_mismatches += usize::from(found != want);
                }
            }
        }
        // Without the fallback, the binary search alone would disagree with
        // the walk somewhere on these maps.
        assert!(naive_mismatches > 0);
    }

    #[test]
    fn interior_draws_never_take_the_walk_on_the_paper_grid() {
        let net = generate_grid(&GridMapSpec::paper(4000.0), &mut SmallRng::seed_from_u64(0));
        let table = SpawnTable::new(&net, &RouteConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20_000 {
            let draw = rng.random_range(0.0..table.total);
            let k = table.ends.partition_point(|&e| e <= draw);
            assert!(table.clear_of_boundaries(draw, k), "draw {draw}");
            assert_eq!(
                k,
                linear_pick(&net, &RouteConfig::default(), draw).0 as usize
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn roadless_network_is_rejected_before_drawing() {
        use vanet_roadnet::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        b.add_intersection(vanet_geo::Point::new(0.0, 0.0));
        let net = b.build();
        spawn_vehicles(
            &net,
            &RouteConfig::default(),
            1,
            2.0,
            16.0,
            &mut SmallRng::seed_from_u64(0),
        );
    }

    #[test]
    fn dead_end_forces_uturn() {
        use vanet_roadnet::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_intersection(vanet_geo::Point::new(0.0, 0.0));
        let c = b.add_intersection(vanet_geo::Point::new(100.0, 0.0));
        let r = b.add_road(a, c, RoadClass::Normal);
        let net = b.build();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            choose_next_road(&net, &RouteConfig::default(), c, r, &mut rng),
            r
        );
    }
}
