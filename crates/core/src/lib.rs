//! # hlsrg — the paper's contribution
//!
//! A Region-based Hierarchical Location Service with Road-adapted Grids (HLSRG),
//! reproduced from Chang, Chen & Sheu, ICPP Workshops 2010.
//!
//! * [`update`] — the class-1/class-2 location-update rules that suppress most
//!   artery traffic's updates (the 50 % overhead reduction of Fig 3.2).
//! * [`tables`] — the L1/L2/L3 location tables with the paper's 2.2 min / 4.4 min
//!   lifetimes and per-level detail reduction.
//! * [`protocol`] — the full state machine: update broadcasts, the collection
//!   pipeline (L1 custodians → L2 RSU → L3 RSU), hierarchical query resolution with
//!   backoff election, directional geo-broadcast target search, and the 5 s
//!   L3-fallback retry.
//!
//! The protocol implements [`vanet_net::LocationService`], so the same harness that
//! runs it also runs the RLSMP baseline.

#![warn(missing_docs)]

pub mod config;
pub mod messages;
pub mod protocol;
pub mod tables;
pub mod update;

pub use config::{CollectionMode, HlsrgConfig, PacketSizes};
pub use messages::{
    HlsrgPayload, HlsrgTimer, NotifyPacket, RequestPacket, RequestStage, UpdatePacket,
};
pub use protocol::HlsrgProtocol;
pub use tables::{L1Entry, L1Table, L2Table, L3Table, UpEntry};
pub use update::{update_trigger, update_trigger_with_policy, UpdatePolicy, UpdateReason};

#[cfg(test)]
mod protocol_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use vanet_des::{EventQueue, SimDuration, SimTime};
    use vanet_geo::{Cardinal, Point};
    use vanet_mobility::{MoveSample, TurnEvent, VehicleId};
    use vanet_net::{
        Effect, LocationService, NetworkCore, NodeRegistry, PacketClass, RadioConfig, Transport,
        WiredNetwork,
    };
    use vanet_roadnet::{
        generate_grid, GridMapSpec, IntersectionId, L1Id, L2Id, L3Id, Partition, RoadClass, RoadId,
    };

    /// Test event: either a delivery or a protocol timer.
    enum Ev {
        Deliver(vanet_net::NodeId, Transport<HlsrgPayload>),
        Timer(HlsrgTimer),
    }

    struct Rig {
        proto: HlsrgProtocol,
        core: NetworkCore,
        queue: EventQueue<Ev>,
        partition: Arc<Partition>,
    }

    impl Rig {
        /// Paper 2 km map with lossless radio; vehicles at the given positions.
        fn new(vehicle_positions: &[Point]) -> Rig {
            let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
            let partition = Arc::new(Partition::build(&net, 500.0));
            let mut reg = NodeRegistry::new(500.0);
            for (i, &p) in vehicle_positions.iter().enumerate() {
                reg.add_vehicle(VehicleId(i as u32), p);
            }
            for site in partition.rsus() {
                reg.add_rsu(site.id, site.pos);
            }
            let radio = RadioConfig {
                reliable_fraction: 1.0,
                edge_delivery: 1.0,
                ..Default::default()
            };
            let wired = WiredNetwork::from_partition(&partition, SimDuration::from_millis(2));
            let core = NetworkCore::new(reg, radio, wired, SmallRng::seed_from_u64(1));
            let proto = HlsrgProtocol::new(
                &net,
                Arc::clone(&partition),
                HlsrgConfig::default(),
                SmallRng::seed_from_u64(2),
            );
            Rig {
                proto,
                core,
                queue: EventQueue::new(),
                partition,
            }
        }

        fn apply(&mut self, fx: Vec<Effect<HlsrgPayload, HlsrgTimer>>) {
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

        /// Processes events until the queue drains or `horizon` passes.
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

    /// Positions on the 2 km paper map: grid 0's center is (250, 250); grid 5
    /// (ix=1, iy=1) has center (750, 750); the L2#0 RSU sits at (500, 500); the L3
    /// RSU at (1000, 1000).
    const G0_CENTER: Point = Point { x: 250.0, y: 250.0 };
    const G5_CENTER: Point = Point { x: 750.0, y: 750.0 };

    fn artery_update_sample(v: u32, pos: Point) -> MoveSample {
        // A turn on an artery — always an update trigger.
        MoveSample {
            id: VehicleId(v),
            old_pos: pos,
            new_pos: pos,
            road: RoadId(0),
            from: IntersectionId(0),
            road_class: RoadClass::Artery,
            heading: Cardinal::East.into(),
            speed: 10.0,
            turn: Some(TurnEvent {
                at: IntersectionId(0),
                from_road: RoadId(1),
                to_road: RoadId(0),
                kind: vanet_geo::TurnKind::Turn,
                from_class: RoadClass::Artery,
                onto_class: RoadClass::Artery,
            }),
        }
    }

    #[test]
    fn update_recorded_by_custodian() {
        // Vehicle 0 = custodian sitting at grid 0's center; vehicle 1 updates 200 m
        // away inside grid 0.
        let sender_pos = Point::new(250.0, 100.0);
        let mut rig = Rig::new(&[G0_CENTER, sender_pos]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, sender_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.l1_table_len(L1Id(0)), 1);
        assert_eq!(rig.core.counters.origination_count(PacketClass::Update), 1);
        // Other grids know nothing.
        assert_eq!(rig.proto.l1_table_len(L1Id(5)), 0);
    }

    #[test]
    fn update_not_recorded_without_custodian() {
        // Sender alone in grid 0: the broadcast reaches nobody at the center.
        let mut rig = Rig::new(&[Point::new(450.0, 20.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(0, Point::new(450.0, 20.0))],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.l1_table_len(L1Id(0)), 0);
    }

    #[test]
    fn old_grid_deletes_on_new_grid_update() {
        // Custodians at grid 0's and grid 1's centers; the vehicle first updates in
        // grid 0, then (having moved into grid 1) updates from a position still
        // within one hop of grid 0's center.
        let g1_center = Point::new(750.0, 250.0);
        let mut rig = Rig::new(&[G0_CENTER, g1_center, Point::new(450.0, 250.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(2, Point::new(450.0, 250.0))],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.l1_table_len(L1Id(0)), 1);

        // Move into grid 1 and update again; grid 0's custodian hears and deletes.
        let new_pos = Point::new(550.0, 250.0);
        rig.core
            .registry
            .set_pos(rig.core.registry.node_of_vehicle(VehicleId(2)), new_pos);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(2, new_pos)],
            rig.queue.now() + SimDuration::from_secs(1),
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(3));
        assert_eq!(
            rig.proto.l1_table_len(L1Id(0)),
            0,
            "old grid kept the entry"
        );
        assert_eq!(rig.proto.l1_table_len(L1Id(1)), 1);
    }

    #[test]
    fn collection_flows_l1_to_l2_to_l3() {
        let sender_pos = Point::new(250.0, 100.0);
        let mut rig = Rig::new(&[G0_CENTER, sender_pos]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, sender_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        // Arm the periodic timers and run a full collection + push cycle.
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(45));
        assert_eq!(rig.proto.l2_table_len(L2Id(0)), 1, "L2 missed the push");
        assert_eq!(rig.proto.l3_table_len(L3Id(0)), 1, "L3 missed the push");
        assert!(rig.core.counters.origination_count(PacketClass::Collection) >= 2);
        assert!(rig.core.counters.wired(PacketClass::Collection) >= 1);
    }

    #[test]
    fn local_query_resolves_via_l1_center() {
        // Dv (vehicle 1) updated in grid 0 while driving an artery eastward and is
        // still on that road. Sv (vehicle 2) is also in grid 0.
        let dv_pos = Point::new(300.0, 0.0); // on the southern artery
        let sv_pos = Point::new(150.0, 250.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, sv_pos]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.l1_table_len(L1Id(0)), 1);

        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), rig.queue.now());
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(4));
        let log = rig.proto.query_log();
        assert_eq!(log.launched_count(), 1);
        assert_eq!(log.success_count(SimDuration::from_secs(30)), 1);
        let lat = log
            .latency_stats(SimDuration::from_secs(30))
            .mean()
            .unwrap();
        assert!(lat < 1.0, "local query took {lat}s");
    }

    #[test]
    fn directional_search_finds_moved_artery_target() {
        // Dv updated at x=300 heading east on the artery y=0, then drove 600 m to
        // x=900 before the query arrived. The directional broadcast must catch it.
        let dv_update_pos = Point::new(300.0, 0.0);
        let dv_now_pos = Point::new(900.0, 0.0);
        let mut rig = Rig::new(&[
            G0_CENTER,
            dv_update_pos,            // vehicle 1 = Dv (moved below)
            Point::new(150.0, 250.0), // vehicle 2 = Sv
            Point::new(600.0, 0.0),   // relay on the artery
            Point::new(450.0, 20.0),  // second relay, within the corridor
        ]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_update_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        // Dv drives on.
        rig.core
            .registry
            .set_pos(rig.core.registry.node_of_vehicle(VehicleId(1)), dv_now_pos);

        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), rig.queue.now());
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(4));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            1
        );
    }

    #[test]
    fn query_escalates_to_l2_and_resolves_remotely() {
        // Dv is known only in grid 5 (whose custodian pushes to the L2 RSU);
        // Sv asks from grid 0, whose center has no entry.
        let dv_pos = Point::new(700.0, 500.0); // on artery y=500, inside grid 5
        let sv_pos = Point::new(150.0, 250.0);
        let mut rig = Rig::new(&[
            G0_CENTER,
            G5_CENTER,
            dv_pos,                   // vehicle 2 = Dv
            sv_pos,                   // vehicle 3 = Sv
            Point::new(500.0, 400.0), // relay between the grids
        ]);
        // Dv updates in grid 5.
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(2, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        // Run collection so L2#0 learns that grid 5 knows Dv.
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(30));
        assert!(rig.proto.l2_table_len(L2Id(0)) >= 1);

        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(3), VehicleId(2), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            1,
            "remote query failed"
        );
    }

    #[test]
    fn unanswerable_query_times_out_and_retries_at_l3() {
        // No updates anywhere: the query must fail, and the 5 s retry must fire.
        let mut rig = Rig::new(&[
            G0_CENTER,
            Point::new(150.0, 250.0),
            Point::new(1900.0, 1900.0),
        ]);
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(1), VehicleId(2), SimTime::ZERO);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(40));
        let log = rig.proto.query_log();
        assert_eq!(log.success_count(SimDuration::from_secs(30)), 0);
        assert!(
            log.get(vanet_net::QueryId(0)).retried,
            "timeout retry never fired"
        );
    }

    #[test]
    fn ttl_expires_stale_entries_before_queries() {
        let dv_pos = Point::new(300.0, 0.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, Point::new(150.0, 250.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        // Advance the clock far past the (distance-calibrated) L1 TTL.
        rig.queue.schedule_at(
            SimTime::from_secs(300),
            Ev::Timer(HlsrgTimer::L1Collect { l1: L1Id(15) }),
        );
        rig.drain_until(SimTime::from_secs(300));
        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(300)),
            0
        );
    }

    #[test]
    fn l2_rsu_nearest_gets_direct_request() {
        // Sv parked right next to the L2 RSU at (500,500): the request goes there
        // first, not to an L1 center, and still resolves.
        let dv_pos = Point::new(300.0, 0.0);
        let sv_pos = Point::new(510.0, 505.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, sv_pos]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        let fx = rig.proto.on_start(&mut rig.core);
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(30));

        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        assert_eq!(
            rig.proto
                .query_log()
                .success_count(SimDuration::from_secs(30)),
            1
        );
    }

    #[test]
    fn reason_counters_track_triggers() {
        let sender_pos = Point::new(250.0, 100.0);
        let mut rig = Rig::new(&[G0_CENTER, sender_pos]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, sender_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        assert_eq!(rig.proto.reason_counts()[0], 1); // ArteryTurn
        assert_eq!(rig.proto.reason_counts()[1..], [0, 0, 0]);
    }

    #[test]
    fn escalation_attaches_and_merges_the_l1_table() {
        // The L1 center knows vehicle 1 but is asked for (unknown) vehicle 9; the
        // escalation to L2 must carry the table so the RSU learns vehicle 1.
        let dv_pos = Point::new(300.0, 0.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, Point::new(150.0, 250.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        assert_eq!(rig.proto.l2_table_len(L2Id(0)), 0, "L2 knows too early");

        // Vehicle 2 queries a vehicle nobody knows.
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(9), rig.queue.now());
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(10));
        assert!(
            rig.proto.l2_table_len(L2Id(0)) >= 1,
            "the attached table never reached the L2 RSU"
        );
    }

    #[test]
    fn completed_query_suppresses_late_services() {
        use vanet_net::QueryId;
        let dv_pos = Point::new(300.0, 0.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, Point::new(150.0, 250.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        let log = rig.proto.query_log();
        assert!(log.is_complete(QueryId(0)));
        // The 5 s timeout fired *after* completion: no retry must be recorded.
        assert!(!log.get(QueryId(0)).retried, "retried a completed query");
    }

    #[test]
    fn exhausted_budget_kills_a_request_silently() {
        use messages::{RequestPacket, RequestStage};
        let mut rig = Rig::new(&[G0_CENTER, Point::new(150.0, 250.0)]);
        let query = {
            // Seed the ledger so handle_request's completion check has a record.
            let fx =
                rig.proto
                    .launch_query(&mut rig.core, VehicleId(1), VehicleId(0), SimTime::ZERO);
            rig.apply(fx);
            vanet_net::QueryId(0)
        };
        let node = rig.core.registry.node_of_vehicle(VehicleId(0));
        let dead = RequestPacket {
            query,
            src: VehicleId(1),
            dst: VehicleId(0),
            src_pos: Point::new(150.0, 250.0),
            stage: RequestStage::L1 {
                l1: L1Id(0),
                from_l2: false,
            },
            budget: 0,
            attach: None,
        };
        let fx = rig.proto.on_packet(
            &mut rig.core,
            node,
            PacketClass::Query,
            HlsrgPayload::Request(dead),
            SimTime::from_secs(1),
        );
        assert!(fx.is_empty(), "budget-0 request produced effects");
    }

    #[test]
    fn data_session_follows_successful_query() {
        let dv_pos = Point::new(300.0, 0.0);
        let mut rig = Rig::new(&[G0_CENTER, dv_pos, Point::new(150.0, 250.0)]);
        let fx = rig.proto.on_move(
            &mut rig.core,
            &[artery_update_sample(1, dv_pos)],
            SimTime::ZERO,
        );
        rig.apply(fx);
        rig.drain_until(SimTime::from_secs(1));
        let t0 = rig.queue.now();
        let fx = rig
            .proto
            .launch_query(&mut rig.core, VehicleId(2), VehicleId(1), t0);
        rig.apply(fx);
        rig.drain_until(t0 + SimDuration::from_secs(20));
        assert_eq!(
            rig.core.counters.origination_count(PacketClass::Data),
            rig.proto.config().data_packets_per_session as u64
        );
        let delivered = rig
            .proto
            .diagnostics()
            .iter()
            .find(|(k, _)| *k == "data_delivered")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(
            delivered,
            rig.proto.config().data_packets_per_session as f64
        );
    }

    #[test]
    fn partition_arc_is_shared_not_cloned() {
        let rig = Rig::new(&[G0_CENTER]);
        assert!(Arc::strong_count(&rig.partition) >= 2);
    }

    /// Every queued HLSRG event moves at most 40 bytes: large, rare timer
    /// fields are boxed so they do not widen the common case.
    #[test]
    fn effect_fits_in_forty_bytes() {
        let size = std::mem::size_of::<Effect<HlsrgPayload, HlsrgTimer>>();
        assert!(
            size <= 40,
            "Effect<HlsrgPayload, HlsrgTimer> is {size} bytes"
        );
    }
}

#[cfg(test)]
mod protocol_proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use vanet_des::{EventQueue, SimDuration, SimTime};
    use vanet_geo::{Cardinal, Point, TurnKind};
    use vanet_mobility::{MoveSample, TurnEvent, VehicleId};
    use vanet_net::{
        Effect, LocationService, NetworkCore, NodeRegistry, RadioConfig, Transport, WiredNetwork,
    };
    use vanet_roadnet::{generate_grid, GridMapSpec, IntersectionId, Partition, RoadClass, RoadId};

    /// One fuzzed protocol stimulus.
    #[derive(Debug, Clone)]
    enum Op {
        /// Vehicle `v` moves to `(x, y)` and maybe turns (class pair encoded).
        Move {
            v: u8,
            x: f64,
            y: f64,
            turned: bool,
            artery: bool,
        },
        /// Vehicle `a` queries vehicle `b`.
        Query { a: u8, b: u8 },
        /// Let the event queue drain for `ms` of simulated time.
        Drain { ms: u16 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                0u8..12,
                0.0f64..2000.0,
                0.0f64..2000.0,
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(v, x, y, turned, artery)| Op::Move {
                    v,
                    x,
                    y,
                    turned,
                    artery
                }),
            (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Query { a, b }),
            (1u16..5000).prop_map(|ms| Op::Drain { ms }),
        ]
    }

    enum Ev {
        Deliver(vanet_net::NodeId, Transport<HlsrgPayload>),
        Timer(HlsrgTimer),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary interleavings of moves, queries, and time never panic, never
        /// complete a query before its launch, and keep per-grid tables bounded by
        /// the fleet size.
        #[test]
        fn random_stimuli_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
            let partition = Arc::new(Partition::build(&net, 500.0));
            let mut reg = NodeRegistry::new(500.0);
            for i in 0..12u32 {
                reg.add_vehicle(VehicleId(i), Point::new(100.0 + 150.0 * i as f64, 300.0));
            }
            for site in partition.rsus() {
                reg.add_rsu(site.id, site.pos);
            }
            let wired = WiredNetwork::from_partition(&partition, SimDuration::from_millis(2));
            let mut core =
                NetworkCore::new(reg, RadioConfig::default(), wired, SmallRng::seed_from_u64(1));
            let mut proto = HlsrgProtocol::new(
                &net,
                Arc::clone(&partition),
                HlsrgConfig::default(),
                SmallRng::seed_from_u64(2),
            );
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let fx = proto.on_start(&mut core);
            apply(&mut queue, fx);

            for op in ops {
                match op {
                    Op::Move { v, x, y, turned, artery } => {
                        let id = VehicleId(v as u32);
                        let node = core.registry.node_of_vehicle(id);
                        let old_pos = core.registry.pos(node);
                        let new_pos = Point::new(x, y);
                        core.registry.set_pos(node, new_pos);
                        let class = if artery { RoadClass::Artery } else { RoadClass::Normal };
                        let sample = MoveSample {
                            id,
                            old_pos,
                            new_pos,
                            road: RoadId(0),
                            from: IntersectionId(0),
                            road_class: class,
                            heading: Cardinal::East.into(),
                            speed: 10.0,
                            turn: turned.then_some(TurnEvent {
                                at: IntersectionId(0),
                                from_road: RoadId(1),
                                to_road: RoadId(0),
                                kind: TurnKind::Turn,
                                from_class: class,
                                onto_class: class,
                            }),
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
            // Final drain bounded well past every timer.
            let end = queue.now() + SimDuration::from_secs(40);
            drain_until(&mut queue, &mut proto, &mut core, end);

            // Ledger sanity: completions never precede launches.
            for r in proto.query_log().records() {
                if let Some(done) = r.completed {
                    prop_assert!(done >= r.launched);
                }
            }
            // Table sanity: no grid can know more vehicles than exist.
            for g in 0..partition.l1_count() as u32 {
                prop_assert!(proto.l1_table_len(vanet_roadnet::L1Id(g)) <= 12);
            }
        }
    }

    fn apply(queue: &mut EventQueue<Ev>, fx: Vec<Effect<HlsrgPayload, HlsrgTimer>>) {
        for f in fx {
            match f {
                Effect::Deliver(e) => queue.schedule_after(e.delay, Ev::Deliver(e.to, e.transport)),
                Effect::Timer { delay, key } => queue.schedule_after(delay, Ev::Timer(key)),
            }
        }
    }

    fn drain_until(
        queue: &mut EventQueue<Ev>,
        proto: &mut HlsrgProtocol,
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
}
