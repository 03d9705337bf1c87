//! Microbenchmarks of the simulation substrate: event queue, spatial hash, GPSR
//! step, mobility tick, partition lookups, and world setup. These bound how far
//! the simulator scales beyond the paper's 700 vehicles.

use criterion::{BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use vanet_des::{EventQueue, HeapQueue, SimDuration, SimTime};
use vanet_geo::{Point, SpatialHash};
use vanet_mobility::{LightConfig, MobilityConfig, MobilityModel, TrafficLights, VehicleId};
use vanet_net::{gpsr_step, GpsrHeader, GpsrTarget, NodeId, NodeRegistry};
use vanet_roadnet::{generate_grid, GridMapSpec, Partition};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_10k", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        let times: Vec<u64> = (0..10_000)
            .map(|_| rng.random_range(0..1_000_000))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for &t in &times {
                q.schedule_at(SimTime::from_micros(t), t);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

/// The classic hold model: fill the queue to a steady-state depth, then
/// alternate pop-one/schedule-one so the depth stays constant. This isolates
/// the per-operation cost at a given depth — exactly where a calendar queue's
/// amortized O(1) should separate from the heap's O(log n) — for both the
/// calendar kernel and the retired heap reference.
fn bench_event_queue_hold(c: &mut Criterion) {
    const HOLD_OPS: usize = 1_000;
    let mut group = c.benchmark_group("kernel/event_queue_hold");
    for &depth in &[1_000usize, 10_000, 100_000] {
        let mut rng = SmallRng::seed_from_u64(7);
        // Exponential-ish inter-event delays keep the steady state realistic.
        let delays: Vec<u64> = (0..HOLD_OPS)
            .map(|_| 1 + rng.random_range(0u64..2_000))
            .collect();
        let initial: Vec<u64> = (0..depth as u64)
            .map(|_| rng.random_range(0..1_000_000))
            .collect();

        // The queues persist across iterations: every iteration pops
        // HOLD_OPS events and reinserts one per pop, so the depth — and with
        // it the per-operation cost being measured — stays constant while
        // the one-time fill stays out of the timing.
        let mut cal = EventQueue::with_capacity(depth);
        let mut heap = HeapQueue::with_capacity(depth);
        for &t in &initial {
            cal.schedule_at(SimTime::from_micros(t), t);
            heap.schedule_at(SimTime::from_micros(t), t);
        }

        group.bench_with_input(BenchmarkId::new("calendar", depth), &depth, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &d in &delays {
                    let (_, e) = cal.pop().unwrap();
                    acc = acc.wrapping_add(e);
                    cal.schedule_after(SimDuration::from_micros(d), d);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", depth), &depth, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &d in &delays {
                    let (_, e) = heap.pop().unwrap();
                    acc = acc.wrapping_add(e);
                    heap.schedule_after(SimDuration::from_micros(d), d);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_spatial_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/spatial_hash_query");
    for &n in &[500usize, 2_000, 8_000] {
        let mut h = SpatialHash::new(500.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..n {
            h.upsert(
                i as u64,
                Point::new(rng.random_range(0.0..4000.0), rng.random_range(0.0..4000.0)),
            );
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| black_box(h.query_radius(Point::new(2000.0, 2000.0), 500.0).len()))
        });
    }
    group.finish();
}

fn bench_gpsr(c: &mut Criterion) {
    let mut reg = NodeRegistry::new(500.0);
    let mut rng = SmallRng::seed_from_u64(2);
    for i in 0..1_000u32 {
        reg.add_vehicle(
            VehicleId(i),
            Point::new(rng.random_range(0.0..2000.0), rng.random_range(0.0..2000.0)),
        );
    }
    c.bench_function("kernel/gpsr_step_dense", |b| {
        let header = GpsrHeader::new(GpsrTarget::Node(NodeId(999)), reg.pos(NodeId(999)));
        b.iter(|| black_box(gpsr_step(&reg, 500.0, NodeId(0), header)))
    });
}

fn bench_mobility_tick(c: &mut Criterion) {
    let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut group = c.benchmark_group("kernel/mobility_tick");
    for &n in &[500usize, 2_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut model = MobilityModel::new(&net, MobilityConfig::default(), n, &mut rng);
            let tick = model.config().tick;
            let mut now = SimTime::ZERO;
            b.iter(|| {
                let s = model.step(&net, &lights, now);
                let len = s.len();
                now += tick;
                black_box(len)
            })
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
    let p = Partition::build(&net, 500.0);
    let mut rng = SmallRng::seed_from_u64(4);
    let pts: Vec<Point> = (0..1_000)
        .map(|_| Point::new(rng.random_range(0.0..2000.0), rng.random_range(0.0..2000.0)))
        .collect();
    c.bench_function("kernel/partition_l1_of_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &pt in &pts {
                acc = acc.wrapping_add(p.l1_of(pt).0);
            }
            black_box(acc)
        })
    });
}

/// World setup at city scale: the road-adapted partition (one nearest-
/// intersection lookup per grid centre) and the vehicle spawn (one weighted
/// road draw per vehicle). Vehicle counts keep the 12 km / 10k-vehicle
/// density of the large benchmark tier. Each partition iteration builds on
/// a fresh clone of the map, so the lazily built lookup index is part of the
/// measured cost, as it is in a run.
fn bench_world_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/world_setup");
    for &km in &[4usize, 12, 24] {
        let net = generate_grid(
            &GridMapSpec::paper(km as f64 * 1000.0),
            &mut SmallRng::seed_from_u64(0),
        );
        let vehicles = 10_000 * km * km / 144;
        group.bench_with_input(BenchmarkId::new("partition", km), &net, |b, net| {
            b.iter(|| {
                let fresh = net.clone();
                black_box(Partition::build(&fresh, 500.0).l1_count())
            })
        });
        group.bench_with_input(
            BenchmarkId::new(format!("spawn_{vehicles}"), km),
            &net,
            |b, net| {
                b.iter(|| {
                    let mut rng = SmallRng::seed_from_u64(5);
                    let model =
                        MobilityModel::new(net, MobilityConfig::default(), vehicles, &mut rng);
                    black_box(model.len())
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_event_queue(&mut c);
    bench_event_queue_hold(&mut c);
    bench_spatial_hash(&mut c);
    bench_gpsr(&mut c);
    bench_mobility_tick(&mut c);
    bench_partition(&mut c);
    bench_world_setup(&mut c);
    c.final_summary();
}
