//! # rlsmp — the baseline location service
//!
//! RLSMP ("Region-based Location Service Management Protocol", Saleet, Langar,
//! Basir & Boutaba, GLOBECOM 2008), re-implemented from its description so HLSRG
//! has the same comparison target the paper evaluated against:
//!
//! * longitude/latitude square cells (no road adaptation),
//! * an update broadcast on **every** cell crossing,
//! * cell leaders (vehicles near the cell's geometric center) as location stores,
//! * periodic aggregation to the cluster's central Location Service Cell (LSC),
//! * queries served by the LSC with a wait-and-aggregate pause and a spiral-order
//!   search across neighboring clusters on a miss,
//! * no RSUs and no wired infrastructure.
//!
//! Implements [`vanet_net::LocationService`], so the identical harness drives both
//! protocols.

#![warn(missing_docs)]

pub mod cells;
pub mod config;
pub mod protocol;

pub use cells::{CellGrid, CellId, ClusterId};
pub use config::RlsmpConfig;
pub use protocol::{
    RlsmpPayload, RlsmpProtocol, RlsmpRequest, RlsmpStage, RlsmpTimer, RlsmpUpdate,
};

#[cfg(test)]
mod protocol_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vanet_des::{EventQueue, SimDuration, SimTime};
    use vanet_geo::{BBox, Cardinal, Point};
    use vanet_mobility::{MoveSample, VehicleId};
    use vanet_net::{
        Effect, LocationService, NetworkCore, NodeRegistry, PacketClass, RadioConfig, Transport,
        WiredNetwork,
    };
    use vanet_roadnet::{IntersectionId, RoadClass, RoadId};

    enum Ev {
        Deliver(vanet_net::NodeId, Transport<RlsmpPayload>),
        Timer(RlsmpTimer),
    }

    struct Rig {
        proto: RlsmpProtocol,
        core: NetworkCore,
        queue: EventQueue<Ev>,
    }

    impl Rig {
        fn new(vehicle_positions: &[Point]) -> Rig {
            let mut reg = NodeRegistry::new(500.0);
            for (i, &p) in vehicle_positions.iter().enumerate() {
                reg.add_vehicle(VehicleId(i as u32), p);
            }
            let radio = RadioConfig {
                reliable_fraction: 1.0,
                edge_delivery: 1.0,
                ..Default::default()
            };
            let core = NetworkCore::new(
                reg,
                radio,
                WiredNetwork::empty(),
                SmallRng::seed_from_u64(1),
            );
            let proto = RlsmpProtocol::new(
                BBox::new(0.0, 0.0, 2000.0, 2000.0),
                RlsmpConfig::default(),
                SmallRng::seed_from_u64(2),
            );
            Rig {
                proto,
                core,
                queue: EventQueue::new(),
            }
        }

        fn apply(&mut self, fx: Vec<Effect<RlsmpPayload, RlsmpTimer>>) {
            for f in fx {
                match f {
                    Effect::Deliver(e) => self
                        .queue
                        .schedule_after(e.delay, Ev::Deliver(e.to, e.transport)),
                    Effect::Timer { delay, key } => {
                        self.queue.schedule_after(delay, Ev::Timer(key))
                    }
                }
            }
        }

        fn drain_until(&mut self, horizon: SimTime) {
            while let Some((now, ev)) = self.queue.pop_if_at_or_before(horizon) {
                match ev {
                    Ev::Deliver(to, tr) => {
                        let (arrived, more) = self.core.handle_deliver(to, tr);
                        for e in more {
                            self.queue
                                .schedule_after(e.delay, Ev::Deliver(e.to, e.transport));
                        }
                        if let Some((class, payload)) = arrived {
                            let fx = self
                                .proto
                                .on_packet(&mut self.core, to, class, payload, now);
                            self.apply(fx);
                        }
                    }
                    Ev::Timer(key) => {
                        let fx = self.proto.on_timer(&mut self.core, key, now);
                        self.apply(fx);
                    }
                }
            }
        }
    }

    /// With 250 m cells on the 2 km map (8×8 cells, 2×2 clusters of 4×4): cell 0's
    /// center is (125,125); cluster 0's LSC is cell (1,1) centered at (375,375).
    const CELL0_CENTER: Point = Point { x: 125.0, y: 125.0 };
    const LSC_CENTER: Point = Point { x: 375.0, y: 375.0 };

    fn crossing_sample(v: u32, old_pos: Point, new_pos: Point) -> MoveSample {
        MoveSample {
            id: VehicleId(v),
            old_pos,
            new_pos,
            road: RoadId(0),
            from: IntersectionId(0),
            road_class: RoadClass::Normal,
            heading: Cardinal::East.into(),
            speed: 10.0,
            turn: None,
        }
    }

    #[test]
    fn every_cell_crossing_updates() {
        let pos = Point::new(245.0, 125.0);
        let mut rig = Rig::new(&[CELL0_CENTER, pos]);
        // Crossing 0 → 1.
        let s = crossing_sample(1, pos, Point::new(255.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        // Moving inside cell 1: no update.
        let s2 = crossing_sample(1, Point::new(255.0, 125.0), Point::new(300.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s2], SimTime::ZERO);
        assert!(fx.is_empty());
        assert_eq!(rig.proto.update_count(), 1);
        assert_eq!(rig.core.counters.origination_count(PacketClass::Update), 1);
    }

    #[test]
    fn leader_records_update_and_old_cell_deletes() {
        // Leaders at cell 0's and cell 1's centers; the vehicle crosses 1 → 0 from
        // a spot in range of both.
        let cell1_center = Point::new(375.0, 125.0);
        let mut rig = Rig::new(&[CELL0_CENTER, cell1_center, Point::new(255.0, 125.0)]);
        // First enter cell 1 so its leader has an entry.
        let s = crossing_sample(2, Point::new(245.0, 125.0), Point::new(255.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.cell_table_len(CellId(1)), 1);

        // Now cross back into cell 0.
        rig.core.registry.set_pos(
            rig.core.registry.node_of_vehicle(VehicleId(2)),
            Point::new(245.0, 125.0),
        );
        let s = crossing_sample(2, Point::new(255.0, 125.0), Point::new(245.0, 125.0));
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[s],
            rig.queue.now() + SimDuration::from_secs(1),
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(3));
        assert_eq!(rig.proto.cell_table_len(CellId(0)), 1);
        assert_eq!(
            rig.proto.cell_table_len(CellId(1)),
            0,
            "old cell kept the entry"
        );
    }

    #[test]
    fn aggregation_reaches_lsc() {
        // Leader in cell 0, plus a relay toward the LSC and a leader there.
        let mut rig = Rig::new(&[
            CELL0_CENTER,
            LSC_CENTER,
            Point::new(250.0, 250.0), // relay
            Point::new(245.0, 125.0), // the updating vehicle
        ]);
        let s = crossing_sample(3, Point::new(255.0, 125.0), Point::new(245.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(25));
        assert_eq!(
            rig.proto.lsc_table_len(ClusterId(0)),
            1,
            "LSC never learned"
        );
        assert!(rig.core.counters.origination_count(PacketClass::Collection) >= 1);
    }

    #[test]
    fn query_resolves_after_aggregation() {
        let mut rig = Rig::new(&[
            CELL0_CENTER,             // 0: leader of Dv's cell
            LSC_CENTER,               // 1: LSC leader
            Point::new(250.0, 250.0), // 2: relay
            Point::new(245.0, 125.0), // 3: Dv
            Point::new(400.0, 300.0), // 4: Sv (close to the LSC)
        ]);
        let s = crossing_sample(3, Point::new(255.0, 125.0), Point::new(245.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(25));
        assert_eq!(rig.proto.lsc_table_len(ClusterId(0)), 1);

        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(4), VehicleId(3), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        let log = rig.proto.query_log();
        assert_eq!(
            log.success_count(SimDuration::from_secs(30)),
            1,
            "query failed"
        );
    }

    #[test]
    fn lsc_miss_waits_then_fails_on_single_cluster() {
        // Nothing aggregated: the LSC waits `query_wait`, finds nothing, and with a
        // single cluster the spiral is empty → failure.
        let mut rig = Rig::new(&[
            LSC_CENTER,
            Point::new(400.0, 300.0),
            Point::new(1900.0, 100.0),
        ]);
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(1), VehicleId(2), SimTime::ZERO);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(20));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            0
        );
    }

    #[test]
    fn wait_and_aggregate_rescues_a_query() {
        // The query reaches the LSC *before* the aggregation does; the wait-and-
        // recheck pause must rescue it.
        let mut rig = Rig::new(&[
            CELL0_CENTER,
            LSC_CENTER,
            Point::new(250.0, 250.0),
            Point::new(245.0, 125.0), // Dv
            Point::new(400.0, 300.0), // Sv
        ]);
        // Dv's update reaches its cell leader only.
        let s = crossing_sample(3, Point::new(255.0, 125.0), Point::new(245.0, 125.0));
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        // Arm the aggregation timers (first fires at ≈10 s), then launch the query
        // at 9 s: the 3 s wait spans the aggregation's arrival.
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.queue.schedule_at(
            SimTime::from_secs(9),
            Ev::Timer(RlsmpTimer::Aggregate { cell: CellId(15) }),
        );
        rig.drain_until(SimTime::from_secs(9));
        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(4), VehicleId(3), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(25));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            1,
            "wait-and-aggregate did not rescue the query"
        );
        let lat = rig
            .proto
            .query_log()
            .latency_stats(SimDuration::from_secs(30))
            .mean()
            .unwrap();
        assert!(lat > 1.0, "latency {lat}s should include the wait");
    }

    #[test]
    fn spiral_reaches_a_neighbor_cluster() {
        // Dv's information lives only in cluster 1 (east half); Sv's home LSC in
        // cluster 0 misses, waits, then spirals east and resolves.
        // Cluster 0 covers cells x∈[0,4); cluster 1 covers x∈[4,8). Cluster 1's
        // LSC is cell (5,1) centered at (1375, 375).
        let cluster1_lsc = Point::new(1375.0, 375.0);
        let dv_pos = Point::new(1130.0, 125.0); // cell (4,0), inside cluster 1
        let mut rig = Rig::new(&[
            LSC_CENTER,                // 0: home LSC leader
            cluster1_lsc,              // 1: neighbor cluster's LSC leader
            Point::new(1125.0, 125.0), // 2: leader of Dv's cell
            dv_pos,                    // 3: Dv
            Point::new(400.0, 300.0),  // 4: Sv near the home LSC
            Point::new(875.0, 375.0),  // 5: relay between the LSCs
        ]);
        // Dv registers in its cell and the aggregation reaches cluster 1's LSC.
        let s = crossing_sample(3, Point::new(995.0, 125.0), dv_pos);
        let fx = rig.proto.on_move(&mut rig.core, &[s], SimTime::ZERO);
        rig.apply(fx);
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(25));
        assert_eq!(
            rig.proto.lsc_table_len(ClusterId(1)),
            1,
            "cluster 1 never learned"
        );
        assert_eq!(
            rig.proto.lsc_table_len(ClusterId(0)),
            0,
            "home LSC should not know"
        );

        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(4), VehicleId(3), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(25));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            1,
            "the spiral never resolved the query"
        );
        // The spiral path includes the wait-and-aggregate pause.
        let lat = rig
            .proto
            .query_log()
            .latency_stats(SimDuration::from_secs(30))
            .mean()
            .unwrap();
        assert!(lat >= 3.0, "latency {lat}s skipped the LSC wait");
    }

    #[test]
    fn stale_cell_pointer_fails_cleanly() {
        // The LSC knows Dv was in cell 0, but the cell-leader entry is gone (we
        // inject an LSC row directly): the query must fail without panicking.
        let mut rig = Rig::new(&[
            CELL0_CENTER,
            LSC_CENTER,
            Point::new(250.0, 250.0),
            Point::new(400.0, 300.0),
        ]);
        let rows = vec![(VehicleId(9), SimTime::ZERO, CellId(0))];
        let lsc_leader = rig.core.registry.node_of_vehicle(VehicleId(1));
        let fx = rig.proto.on_packet(
            &mut rig.core,
            lsc_leader,
            PacketClass::Collection,
            RlsmpPayload::AggToLsc {
                cluster: ClusterId(0),
                rows,
            },
            SimTime::ZERO,
        );
        rig.apply(fx);
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(3), VehicleId(9), SimTime::ZERO);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(20));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            0
        );
    }

    /// Every queued RLSMP event moves at most 40 bytes: the rare recheck
    /// timer boxes its request so it does not widen the common case.
    #[test]
    fn effect_fits_in_forty_bytes() {
        let size = std::mem::size_of::<Effect<RlsmpPayload, RlsmpTimer>>();
        assert!(
            size <= 40,
            "Effect<RlsmpPayload, RlsmpTimer> is {size} bytes"
        );
    }
}

#[cfg(test)]
mod protocol_proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vanet_des::{EventQueue, SimDuration, SimTime};
    use vanet_geo::{BBox, Cardinal, Point};
    use vanet_mobility::{MoveSample, VehicleId};
    use vanet_net::{
        Effect, LocationService, NetworkCore, NodeRegistry, RadioConfig, Transport, WiredNetwork,
    };
    use vanet_roadnet::{IntersectionId, RoadClass, RoadId};

    #[derive(Debug, Clone)]
    enum Op {
        Move { v: u8, x: f64, y: f64 },
        Query { a: u8, b: u8 },
        Drain { ms: u16 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..10, 0.0f64..2000.0, 0.0f64..2000.0).prop_map(|(v, x, y)| Op::Move { v, x, y }),
            (0u8..10, 0u8..10).prop_map(|(a, b)| Op::Query { a, b }),
            (1u16..5000).prop_map(|ms| Op::Drain { ms }),
        ]
    }

    enum Ev {
        Deliver(vanet_net::NodeId, Transport<RlsmpPayload>),
        Timer(RlsmpTimer),
    }

    fn apply(queue: &mut EventQueue<Ev>, fx: Vec<Effect<RlsmpPayload, RlsmpTimer>>) {
        for f in fx {
            match f {
                Effect::Deliver(e) => queue.schedule_after(e.delay, Ev::Deliver(e.to, e.transport)),
                Effect::Timer { delay, key } => queue.schedule_after(delay, Ev::Timer(key)),
            }
        }
    }

    fn drain_until(
        queue: &mut EventQueue<Ev>,
        proto: &mut RlsmpProtocol,
        core: &mut NetworkCore,
        horizon: SimTime,
    ) {
        while let Some((now, ev)) = queue.pop_if_at_or_before(horizon) {
            match ev {
                Ev::Deliver(to, tr) => {
                    let (arrived, more) = core.handle_deliver(to, tr);
                    for e in more {
                        queue.schedule_after(e.delay, Ev::Deliver(e.to, e.transport));
                    }
                    if let Some((class, payload)) = arrived {
                        let fx = proto.on_packet(core, to, class, payload, now);
                        apply(queue, fx);
                    }
                }
                Ev::Timer(key) => {
                    let fx = proto.on_timer(core, key, now);
                    apply(queue, fx);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary interleavings never panic, ledger completions never precede
        /// launches, and cell tables stay bounded by the fleet size.
        #[test]
        fn random_stimuli_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut reg = NodeRegistry::new(500.0);
            for i in 0..10u32 {
                reg.add_vehicle(VehicleId(i), Point::new(100.0 + 180.0 * i as f64, 400.0));
            }
            let mut core = NetworkCore::new(
                reg,
                RadioConfig::default(),
                WiredNetwork::empty(),
                SmallRng::seed_from_u64(1),
            );
            let mut proto = RlsmpProtocol::new(
                BBox::new(0.0, 0.0, 2000.0, 2000.0),
                RlsmpConfig::default(),
                SmallRng::seed_from_u64(2),
            );
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let fx = proto.on_start(&mut core);
            apply(&mut queue, fx);

            for op in ops {
                match op {
                    Op::Move { v, x, y } => {
                        let id = VehicleId(v as u32);
                        let node = core.registry.node_of_vehicle(id);
                        let old_pos = core.registry.pos(node);
                        let new_pos = Point::new(x, y);
                        core.registry.set_pos(node, new_pos);
                        let sample = MoveSample {
                            id,
                            old_pos,
                            new_pos,
                            road: RoadId(0),
                            from: IntersectionId(0),
                            road_class: RoadClass::Normal,
                            heading: Cardinal::East.into(),
                            speed: 10.0,
                            turn: None,
                        };
                        let now = queue.now();
                        let fx = proto.on_move(&mut core, &[sample], now);
                        apply(&mut queue, fx);
                    }
                    Op::Query { a, b } => {
                        if a != b {
                            let now = queue.now();
                            let fx = proto.launch_query(
                                &mut core,
                                VehicleId(a as u32),
                                VehicleId(b as u32),
                                now,
                            );
                            apply(&mut queue, fx);
                        }
                    }
                    Op::Drain { ms } => {
                        let horizon = queue.now() + SimDuration::from_millis(ms as u64);
                        drain_until(&mut queue, &mut proto, &mut core, horizon);
                    }
                }
            }
            let end = queue.now() + SimDuration::from_secs(30);
            drain_until(&mut queue, &mut proto, &mut core, end);

            for r in proto.query_log().records() {
                if let Some(done) = r.completed {
                    prop_assert!(done >= r.launched);
                }
            }
            for c in 0..proto.grid().cell_count() as u32 {
                prop_assert!(proto.cell_table_len(CellId(c)) <= 10);
            }
        }
    }
}
