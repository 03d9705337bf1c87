//! # vanet-net — wireless and wired network simulation (ns-2 substitute)
//!
//! Everything between "protocol decides to send" and "payload arrives somewhere":
//!
//! * [`NodeRegistry`] — vehicles and RSUs in one id space with a spatial index.
//! * [`RadioConfig`] — 500 m unit-disk radio with edge fade, per-hop delays, MAC
//!   backoff slots, and unicast retries.
//! * [`gpsr`] — greedy + right-hand-recovery geographic routing (the paper's
//!   assumed routing protocol).
//! * [`flood`] — directional corridor broadcast (HLSRG's stale-target search) and
//!   region flooding.
//! * [`WiredNetwork`] — the RSU backbone with shortest-hop transfers.
//! * [`NetworkCore`] — the façade: emission-based send primitives plus per-class
//!   transmission counters that the paper's figures are computed from.

#![warn(missing_docs)]

pub mod core;
pub mod counters;
pub mod flood;
pub mod gpsr;
pub mod node;
pub mod radio;
pub mod service;
pub mod sync;
pub mod wired;

pub use crate::core::{Emission, GpsrPacket, NetworkCore, Transport};
pub use counters::{DropKind, NetCounters, PacketClass};
pub use flood::{directional_broadcast, region_broadcast, FloodResult, FloodScratch};
pub use gpsr::{
    gpsr_step, gpsr_step_scratch, GpsrFailure, GpsrHeader, GpsrMode, GpsrScratch, GpsrStep,
    GpsrTarget,
};
pub use node::{NodeId, NodeKind, NodeRegistry};
pub use radio::RadioConfig;
pub use service::{deliveries, Effect, LocationService, QueryId, QueryLog, QueryRecord};
pub use sync::{conservative_lookahead, LookaheadError};
pub use vanet_trace::{TraceEvent, Tracer};
pub use wired::WiredNetwork;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vanet_geo::Point;
    use vanet_mobility::VehicleId;

    /// Builds a registry from a connected chain of random-ish offsets so GPSR
    /// always has a geometric path.
    fn chain_registry(offsets: &[(f64, f64)]) -> NodeRegistry {
        let mut reg = NodeRegistry::new(500.0);
        let mut p = Point::ORIGIN;
        reg.add_vehicle(VehicleId(0), p);
        for (i, &(dx, dy)) in offsets.iter().enumerate() {
            p += vanet_geo::Vec2::new(dx, dy);
            reg.add_vehicle(VehicleId(i as u32 + 1), p);
        }
        reg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On a chain where consecutive nodes are within range, GPSR (greedy +
        /// recovery) delivers end-to-end within TTL.
        #[test]
        fn gpsr_delivers_on_connected_chains(
            offsets in proptest::collection::vec((50.0f64..350.0, -200.0f64..200.0), 1..30)
        ) {
            let reg = chain_registry(&offsets);
            let last = NodeId(offsets.len() as u32);
            let mut cur = NodeId(0);
            let mut header = GpsrHeader::new(GpsrTarget::Node(last), reg.pos(last));
            let mut hops = 0;
            loop {
                match gpsr_step(&reg, 500.0, cur, header) {
                    GpsrStep::Arrived => break,
                    GpsrStep::Forward { next, header: h } => {
                        cur = next;
                        header = h;
                        hops += 1;
                        prop_assert!(hops <= 200, "routing loop");
                    }
                    GpsrStep::Fail(f) => {
                        return Err(TestCaseError::fail(format!("failed: {f:?} at {cur}")));
                    }
                }
            }
        }

        /// Every GPSR hop spans at most the radio range.
        #[test]
        fn gpsr_hops_within_range(
            offsets in proptest::collection::vec((50.0f64..350.0, -200.0f64..200.0), 1..20)
        ) {
            let reg = chain_registry(&offsets);
            let last = NodeId(offsets.len() as u32);
            let mut cur = NodeId(0);
            let mut header = GpsrHeader::new(GpsrTarget::Node(last), reg.pos(last));
            loop {
                match gpsr_step(&reg, 500.0, cur, header) {
                    GpsrStep::Arrived => break,
                    GpsrStep::Forward { next, header: h } => {
                        prop_assert!(reg.pos(cur).distance(reg.pos(next)) < 500.0 + 1e-9);
                        cur = next;
                        header = h;
                    }
                    GpsrStep::Fail(_) => break,
                }
            }
        }

        /// Region broadcast never reaches outside the region and reaches exactly the
        /// connected component of the origin (with lossless links).
        #[test]
        fn region_flood_exact_component(
            pts in proptest::collection::vec((0.0f64..1500.0, 0.0f64..1500.0), 1..40),
        ) {
            let mut reg = NodeRegistry::new(500.0);
            reg.add_vehicle(VehicleId(0), Point::new(750.0, 750.0));
            for (i, &(x, y)) in pts.iter().enumerate() {
                reg.add_vehicle(VehicleId(i as u32 + 1), Point::new(x, y));
            }
            let region = vanet_geo::BBox::new(0.0, 0.0, 1500.0, 1500.0);
            let radio = RadioConfig { reliable_fraction: 1.0, edge_delivery: 1.0, ..Default::default() };
            let mut rng = SmallRng::seed_from_u64(0);
            let res = region_broadcast(
                &reg,
                &radio,
                NodeId(0),
                &region,
                64,
                &mut rng,
                &mut FloodScratch::default(),
            );

            // Brute-force connected component over the unit-disk graph.
            let n = pts.len() + 1;
            let mut reach = vec![false; n];
            reach[0] = true;
            let mut changed = true;
            #[allow(clippy::needless_range_loop)] // a and b index two roles in reach
            while changed {
                changed = false;
                for a in 0..n {
                    if !reach[a] { continue; }
                    for b in 0..n {
                        if !reach[b]
                            && reg.pos(NodeId(a as u32)).distance(reg.pos(NodeId(b as u32))) < 500.0
                        {
                            reach[b] = true;
                            changed = true;
                        }
                    }
                }
            }
            let mut expected: Vec<u32> = (1..n as u32).filter(|&i| reach[i as usize]).collect();
            expected.sort_unstable();
            let mut got: Vec<u32> = res.deliveries.iter().map(|&(n, _)| n.0).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
