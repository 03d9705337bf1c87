//! The traced driver: `run_simulation`'s event loop re-driven from this crate,
//! with a wall-clock span around every call into a layer's public API.
//!
//! The loop mirrors `vanet_scenario::runner` step for step — same construction
//! order, same RNG streams, same shard routing — so its [`RunReport`] must
//! reproduce the untraced run's counters exactly. `run.py` refuses to print a
//! layer table from a traced run that does not.
//!
//! Scope: generated or text maps with the native mobility model, no timeline
//! or telemetry sampler, and a positive conservative-sync lookahead (every
//! benchmark workload and `SimConfig::quick_demo`). Anything else is rejected
//! with an error rather than silently diverging.

use hlsrg::HlsrgProtocol;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use rlsmp::RlsmpProtocol;
use std::sync::Arc;
use std::time::Instant;
use vanet_des::{stream_rng, EpochExecutor, SimDuration, SimTime, StreamId};
use vanet_mobility::{LightConfig, MobilityModel, TrafficLights, VehicleId};
use vanet_net::{
    conservative_lookahead, Effect, LocationService, NetworkCore, NodeId, NodeRegistry, Transport,
    WiredNetwork,
};
use vanet_roadnet::{generate_grid, Partition, RoadNetwork};
use vanet_scenario::{Protocol, RunReport, SimConfig};

/// Wall-clock nanoseconds and work counts, per layer, for one or more runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spans {
    /// `generate_grid` / `from_map_text`.
    pub map_ns: u64,
    /// `Partition::build`.
    pub partition_ns: u64,
    /// `TrafficLights::new` + `MobilityModel::new`.
    pub mobility_setup_ns: u64,
    /// Node registry, wired backbone and `NetworkCore::new`.
    pub net_setup_ns: u64,
    /// Protocol constructor, `on_start`, `on_join` and scheduling their effects.
    pub protocol_setup_ns: u64,
    /// Executor construction and the up-front tick and query schedule.
    pub queue_setup_ns: u64,

    /// Event loop from the first pop to the empty horizon.
    pub loop_ns: u64,
    /// `EpochExecutor::pop_if_at_or_before`, including the final empty pop.
    pub pop_ns: u64,
    /// `EpochExecutor::schedule_after` for every effect and GPSR follow-up.
    pub schedule_ns: u64,
    /// `MobilityModel::step_par`.
    pub mobility_step_ns: u64,
    /// `NodeRegistry::apply_vehicle_moves`.
    pub apply_moves_ns: u64,
    /// `NetworkCore::handle_deliver_step`.
    pub deliver_ns: u64,
    /// `LocationService::on_move` (includes the sends it triggers).
    pub on_move_ns: u64,
    /// `LocationService::on_packet`.
    pub on_packet_ns: u64,
    /// `LocationService::on_timer`.
    pub on_timer_ns: u64,
    /// `LocationService::launch_query`.
    pub launch_query_ns: u64,

    /// Events popped.
    pub events: u64,
    /// Vehicle ticks stepped (fleet size × ticks).
    pub vehicle_ticks: u64,
    /// Grid moves that crossed a spatial-hash cell.
    pub cell_crossed: u64,
    /// Grid moves that stayed in their cell.
    pub cell_in_place: u64,
    /// `handle_deliver_step` calls.
    pub deliveries: u64,
    /// Deliveries that handed a payload to the protocol.
    pub arrived: u64,
    /// Deliveries that emitted a GPSR follow-up hop.
    pub relayed: u64,
    /// Protocol handler calls (start, join, move, packet, timer, query).
    pub handler_calls: u64,
    /// Effects those calls returned.
    pub effects: u64,
}

impl Spans {
    /// Sums another run's spans and counts into this one.
    pub fn add(&mut self, o: &Spans) {
        let pairs: [(&mut u64, u64); 25] = [
            (&mut self.map_ns, o.map_ns),
            (&mut self.partition_ns, o.partition_ns),
            (&mut self.mobility_setup_ns, o.mobility_setup_ns),
            (&mut self.net_setup_ns, o.net_setup_ns),
            (&mut self.protocol_setup_ns, o.protocol_setup_ns),
            (&mut self.queue_setup_ns, o.queue_setup_ns),
            (&mut self.loop_ns, o.loop_ns),
            (&mut self.pop_ns, o.pop_ns),
            (&mut self.schedule_ns, o.schedule_ns),
            (&mut self.mobility_step_ns, o.mobility_step_ns),
            (&mut self.apply_moves_ns, o.apply_moves_ns),
            (&mut self.deliver_ns, o.deliver_ns),
            (&mut self.on_move_ns, o.on_move_ns),
            (&mut self.on_packet_ns, o.on_packet_ns),
            (&mut self.on_timer_ns, o.on_timer_ns),
            (&mut self.launch_query_ns, o.launch_query_ns),
            (&mut self.events, o.events),
            (&mut self.vehicle_ticks, o.vehicle_ticks),
            (&mut self.cell_crossed, o.cell_crossed),
            (&mut self.cell_in_place, o.cell_in_place),
            (&mut self.deliveries, o.deliveries),
            (&mut self.arrived, o.arrived),
            (&mut self.relayed, o.relayed),
            (&mut self.handler_calls, o.handler_calls),
            (&mut self.effects, o.effects),
        ];
        for (acc, v) in pairs {
            *acc += v;
        }
    }

    /// World-building time before the first event.
    pub fn setup_ns(&self) -> u64 {
        self.map_ns
            + self.partition_ns
            + self.mobility_setup_ns
            + self.net_setup_ns
            + self.protocol_setup_ns
            + self.queue_setup_ns
    }

    /// Loop time inside a named span.
    pub fn attributed_ns(&self) -> u64 {
        self.pop_ns
            + self.schedule_ns
            + self.mobility_step_ns
            + self.apply_moves_ns
            + self.deliver_ns
            + self.on_move_ns
            + self.on_packet_ns
            + self.on_timer_ns
            + self.launch_query_ns
    }

    fn note_handler<P, T>(&mut self, fx: &[Effect<P, T>]) {
        self.handler_calls += 1;
        self.effects += fx.len() as u64;
    }
}

/// Adds the time since `start` to `acc` and returns the new instant, so
/// back-to-back spans share one clock read.
#[inline]
fn lap(acc: &mut u64, start: Instant) -> Instant {
    let now = Instant::now();
    *acc += now.duration_since(start).as_nanos() as u64;
    now
}

/// Why the driver cannot reproduce a config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub String);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "traced driver cannot reproduce this config: {}", self.0)
    }
}

impl std::error::Error for Unsupported {}

/// Runs one simulation through the traced loop.
pub fn run_traced(cfg: &SimConfig, protocol: Protocol) -> Result<(RunReport, Spans), Unsupported> {
    let mut spans = Spans::default();
    let report = run(cfg, protocol, &mut spans, false)?.expect("full run yields a report");
    Ok((report, spans))
}

/// Builds the world of one simulation up to its first event and drops it,
/// returning the per-layer setup spans.
pub fn setup_only(cfg: &SimConfig, protocol: Protocol) -> Result<Spans, Unsupported> {
    let mut spans = Spans::default();
    run(cfg, protocol, &mut spans, true)?;
    Ok(spans)
}

fn run(
    cfg: &SimConfig,
    protocol: Protocol,
    spans: &mut Spans,
    setup_only: bool,
) -> Result<Option<RunReport>, Unsupported> {
    if cfg.trace_ns2.is_some() {
        return Err(Unsupported("ns-2 trace replay".into()));
    }
    if cfg.timeline_period.is_some() || cfg.telemetry_interval.is_some() {
        return Err(Unsupported("timeline or telemetry sampling".into()));
    }
    let t = Instant::now();
    let mut map_rng = stream_rng(cfg.seed, StreamId::MapGen);
    let net = match &cfg.map_text {
        Some(text) => vanet_roadnet::from_map_text(text)
            .map_err(|e| Unsupported(format!("invalid map_text: {e:?}")))?,
        None => generate_grid(&cfg.map, &mut map_rng),
    };
    let t = lap(&mut spans.map_ns, t);
    let partition = Arc::new(Partition::build(&net, cfg.l1_size));
    let t = lap(&mut spans.partition_ns, t);
    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut workload_rng = stream_rng(cfg.seed, StreamId::Workload);
    let model = MobilityModel::new(&net, cfg.mobility, cfg.vehicles, &mut workload_rng);
    cfg.validate();
    let t = lap(&mut spans.mobility_setup_ns, t);

    let node_count = cfg.vehicles
        + match protocol {
            Protocol::Hlsrg => partition.rsus().len(),
            Protocol::Rlsmp => 0,
        };
    let mut registry = NodeRegistry::with_capacity(cfg.radio.range, node_count);
    for s in model.snapshot(&net) {
        registry.add_vehicle(s.id, s.new_pos);
    }
    let wired = match protocol {
        Protocol::Hlsrg => {
            for site in partition.rsus() {
                registry.add_rsu(site.id, site.pos);
            }
            if cfg.wired_backbone {
                WiredNetwork::from_partition(&partition, SimDuration::from_millis(2))
            } else {
                WiredNetwork::empty()
            }
        }
        Protocol::Rlsmp => WiredNetwork::empty(),
    };
    let core = NetworkCore::new(
        registry,
        cfg.radio,
        wired,
        stream_rng(cfg.seed, StreamId::Radio),
    );
    let t = lap(&mut spans.net_setup_ns, t);

    let world = World {
        cfg,
        protocol,
        net,
        partition,
        lights,
        model,
        core,
    };
    match protocol {
        Protocol::Hlsrg => {
            let mut proto = HlsrgProtocol::new(
                &world.net,
                Arc::clone(&world.partition),
                cfg.hlsrg,
                stream_rng(cfg.seed, StreamId::Protocol),
            );
            proto.reserve_vehicles(cfg.vehicles);
            spans.protocol_setup_ns += t.elapsed().as_nanos() as u64;
            drive(world, proto, cfg.hlsrg.query_deadline, spans, setup_only)
        }
        Protocol::Rlsmp => {
            let mut proto = RlsmpProtocol::new(
                world.net.bbox(),
                cfg.rlsmp,
                stream_rng(cfg.seed, StreamId::Protocol),
            );
            proto.reserve_vehicles(cfg.vehicles);
            spans.protocol_setup_ns += t.elapsed().as_nanos() as u64;
            drive(world, proto, cfg.rlsmp.query_deadline, spans, setup_only)
        }
    }
}

/// Everything built before the protocol.
struct World<'a> {
    cfg: &'a SimConfig,
    protocol: Protocol,
    net: RoadNetwork,
    partition: Arc<Partition>,
    lights: TrafficLights,
    model: MobilityModel,
    core: NetworkCore,
}

/// The loop's event type (the runner's, minus the samplers this driver does
/// not support).
enum Ev<P, T> {
    Tick,
    Deliver(NodeId, Transport<P>),
    Timer(T),
    Query(VehicleId, VehicleId),
}

type Queue<L> = EpochExecutor<Ev<<L as LocationService>::Payload, <L as LocationService>::Timer>>;

fn drive<L: LocationService>(
    world: World<'_>,
    mut proto: L,
    deadline: SimDuration,
    spans: &mut Spans,
    setup_only: bool,
) -> Result<Option<RunReport>, Unsupported> {
    let World {
        cfg,
        protocol,
        net,
        partition,
        lights,
        mut model,
        mut core,
    } = world;
    let t = Instant::now();
    let shards = cfg.shards;
    let wired_delay = (!core.wired.is_empty()).then_some(core.wired.link_delay);
    let lookahead = conservative_lookahead(&cfg.radio, wired_delay, cfg.mobility.max_speed)
        .map_err(|e| Unsupported(format!("zero lookahead: {e}")))?;
    let tick_count = (cfg.duration.as_micros() / cfg.mobility.tick.as_micros().max(1)) as usize;
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let threads = cfg.threads.clamp(1, shards).min(hw).max(1);
    let deliveries_cap = cfg.vehicles * 32;
    let control_cap = tick_count + cfg.vehicles / 8 + 64;
    let caps = if shards == 1 {
        vec![tick_count + deliveries_cap + 64]
    } else {
        let mut caps = vec![(deliveries_cap / shards).max(16); shards];
        caps[0] += control_cap;
        caps
    };
    let mut queue: Queue<L> =
        EpochExecutor::with_shard_capacities_and_horizon(threads, lookahead, &caps, cfg.duration)
            .map_err(|e| Unsupported(format!("executor: {e}")))?;
    let shard_of =
        |reg: &NodeRegistry, to: NodeId| partition.l3_of(reg.pos(to)).0 as usize % shards;
    let mut query_rng = stream_rng(cfg.seed, StreamId::Queries);
    let tick = cfg.mobility.tick;
    let mut at = tick;
    while at <= cfg.duration {
        queue.schedule_at(0, SimTime::ZERO + at, Ev::Tick);
        at += tick;
    }
    for (at, src, dst) in query_schedule(cfg, deadline, &mut query_rng) {
        queue.schedule_at(0, at, Ev::Query(src, dst));
    }
    let t = lap(&mut spans.queue_setup_ns, t);

    let fx = proto.on_start(&mut core);
    spans.note_handler(&fx);
    apply(&mut queue, fx, &core.registry, &shard_of, 0);
    let joins = model.snapshot(&net);
    let mut region_of: Vec<u32> = joins.iter().map(|s| partition.l3_of(s.new_pos).0).collect();
    let fx = proto.on_join(&mut core, &joins, SimTime::ZERO);
    spans.note_handler(&fx);
    apply(&mut queue, fx, &core.registry, &shard_of, 0);
    lap(&mut spans.protocol_setup_ns, t);
    if setup_only {
        return Ok(None);
    }

    let horizon = SimTime::ZERO + cfg.duration;
    let mut shard_migrations = 0u64;
    let mut boundary_events = 0u64;
    let mut events = 0u64;
    let mut peak_queue_depth = queue.len();
    let loop_start = Instant::now();
    loop {
        peak_queue_depth = peak_queue_depth.max(queue.len());
        let t = Instant::now();
        let popped = queue.pop_if_at_or_before(horizon);
        let t = lap(&mut spans.pop_ns, t);
        let Some((now, popped_shard, ev)) = popped else {
            break;
        };
        events += 1;
        core.set_trace_now(now);
        match ev {
            Ev::Tick => {
                let samples = model.step_par(&net, &lights, now, threads);
                let t = lap(&mut spans.mobility_step_ns, t);
                let grid = core
                    .registry
                    .apply_vehicle_moves(samples.iter().map(|s| (s.id, s.new_pos)));
                lap(&mut spans.apply_moves_ns, t);
                spans.vehicle_ticks += samples.len() as u64;
                spans.cell_crossed += grid.crossed;
                spans.cell_in_place += grid.in_place;
                for s in samples {
                    let r = partition.l3_of(s.new_pos).0;
                    let slot = &mut region_of[s.id.0 as usize];
                    if *slot != r {
                        *slot = r;
                        shard_migrations += 1;
                    }
                }
                let t = Instant::now();
                let fx = proto.on_move(&mut core, samples, now);
                let t = lap(&mut spans.on_move_ns, t);
                spans.note_handler(&fx);
                apply(&mut queue, fx, &core.registry, &shard_of, 0);
                lap(&mut spans.schedule_ns, t);
            }
            Ev::Deliver(to, transport) => {
                let current = shard_of(&core.registry, to);
                if current != popped_shard {
                    boundary_events += 1;
                }
                queue.set_origin(Some(current));
                let t = Instant::now();
                let (arrived, more) = core.handle_deliver_step(to, transport);
                let mut t = lap(&mut spans.deliver_ns, t);
                spans.deliveries += 1;
                if let Some(e) = more {
                    spans.relayed += 1;
                    let shard = if e.delay.is_zero() {
                        current
                    } else {
                        shard_of(&core.registry, e.to)
                    };
                    queue.schedule_after(shard, e.delay, Ev::Deliver(e.to, e.transport));
                    t = lap(&mut spans.schedule_ns, t);
                }
                if let Some((class, payload)) = arrived {
                    spans.arrived += 1;
                    let fx = proto.on_packet(&mut core, to, class, payload, now);
                    let t = lap(&mut spans.on_packet_ns, t);
                    spans.note_handler(&fx);
                    apply(&mut queue, fx, &core.registry, &shard_of, current);
                    lap(&mut spans.schedule_ns, t);
                }
                queue.set_origin(None);
            }
            Ev::Timer(key) => {
                queue.set_origin(Some(popped_shard));
                let fx = proto.on_timer(&mut core, key, now);
                let t = lap(&mut spans.on_timer_ns, t);
                spans.note_handler(&fx);
                apply(&mut queue, fx, &core.registry, &shard_of, popped_shard);
                lap(&mut spans.schedule_ns, t);
                queue.set_origin(None);
            }
            Ev::Query(src, dst) => {
                let fx = proto.launch_query(&mut core, src, dst, now);
                let t = lap(&mut spans.launch_query_ns, t);
                spans.note_handler(&fx);
                apply(&mut queue, fx, &core.registry, &shard_of, 0);
                lap(&mut spans.schedule_ns, t);
            }
        }
    }
    spans.loop_ns += loop_start.elapsed().as_nanos() as u64;
    spans.events += events;

    let queue_stats = queue.telemetry();
    let mut report = RunReport::from_counters(
        protocol.name(),
        cfg.seed,
        cfg.vehicles,
        net.bbox().width(),
        &core.counters,
    );
    let log = proto.query_log();
    report.queries_launched = log.launched_count();
    report.queries_succeeded = log.success_count(deadline);
    report.success_rate = log.success_rate(deadline);
    report.latency = log.latency_stats(deadline);
    let hist = log.latency_histogram(deadline);
    if hist.count() > 0 {
        report.latency_p95 = hist.quantile(0.95);
    }
    report.artery_share = model.artery_share(&net);
    report.diagnostics = proto.diagnostics();
    report.data_delivered = report
        .diagnostics
        .iter()
        .find(|(k, _)| *k == "data_delivered")
        .map(|&(_, v)| v as u64)
        .unwrap_or(0);
    report.events_processed = events;
    report.peak_queue_depth = peak_queue_depth;
    report.queue_resizes = queue_stats.resizes;
    report.queue_max_scan = queue_stats.max_pop_scan;
    report.shard_counts = queue
        .shard_stats()
        .iter()
        .map(|s| (s.scheduled, s.popped))
        .collect();
    report.boundary_events = boundary_events;
    report.shard_migrations = shard_migrations;
    report.lookahead_violations = queue.violations();
    report.barrier_epochs = queue.epochs();
    Ok(Some(report))
}

/// The paper's query workload, drawn exactly as the runner draws it.
fn query_schedule(
    cfg: &SimConfig,
    deadline: SimDuration,
    rng: &mut SmallRng,
) -> Vec<(SimTime, VehicleId, VehicleId)> {
    if let Some(qs) = &cfg.explicit_queries {
        return qs.clone();
    }
    let n = cfg.vehicles;
    let k = ((n as f64 * cfg.query_fraction).round() as usize).min(n);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    let sources: Vec<u32> = ids[..k].to_vec();
    ids.shuffle(rng);
    let dsts: Vec<u32> = ids[..k].to_vec();
    let window_start = cfg.warmup;
    let window_end_us = cfg
        .duration
        .as_micros()
        .saturating_sub(deadline.as_micros())
        .max(window_start.as_micros() + 1);
    let mut out = Vec::with_capacity(k);
    for (i, &s) in sources.iter().enumerate() {
        let mut d = dsts[i];
        if d == s {
            d = (d + 1) % n as u32;
        }
        let t = rng.random_range(window_start.as_micros()..window_end_us);
        out.push((SimTime::from_micros(t), VehicleId(s), VehicleId(d)));
    }
    out
}

/// Schedules protocol effects with the runner's routing rule: deliveries to
/// the recipient's shard unless zero-delay, timers to the emitting shard.
fn apply<P: Send + 'static, T: Send + 'static>(
    queue: &mut EpochExecutor<Ev<P, T>>,
    fx: Vec<Effect<P, T>>,
    registry: &NodeRegistry,
    shard_of: &impl Fn(&NodeRegistry, NodeId) -> usize,
    origin_shard: usize,
) {
    for f in fx {
        match f {
            Effect::Deliver(e) => queue.schedule_after(
                if e.delay.is_zero() {
                    origin_shard
                } else {
                    shard_of(registry, e.to)
                },
                e.delay,
                Ev::Deliver(e.to, e.transport),
            ),
            Effect::Timer { delay, key } => {
                queue.schedule_after(origin_shard, delay, Ev::Timer(key))
            }
        }
    }
}
