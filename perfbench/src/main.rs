//! One repetition of a benchmark workload, printed as one JSON line.
//!
//! ```text
//! perfbench run   --workload NAME --seed N              untraced workload
//! perfbench setup --workload NAME --seed N --reps K     world building only
//! perfbench trace --workload NAME --seed N --order U|T  untraced + traced
//! ```
//!
//! `run.py` starts one process per repetition so that CPU time and peak RSS
//! can be read per repetition from the kernel's accounting of the child.

use perfbench::driver::{run_traced, setup_only, Spans};
use perfbench::{counter_fingerprint, digest, Record, SimStats, Workload};
use std::process::ExitCode;
use std::time::Instant;
use vanet_scenario::{JobPool, RunReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let ix = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(ix + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse()
        .map_err(|_| format!("{name}: not a number: {v:?}"))
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let cmd = args.first().ok_or("missing subcommand (run|setup|trace)")?;
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = number(args, "--seed")?;
    let mut out = Record::default();
    out.text("workload", workload.name())
        .text("features", &features().join(","))
        .num("available_parallelism", Workload::threads() as f64);
    match cmd.as_str() {
        "run" => {
            let (wall, reports) = timed_run(workload, seed);
            let stats = SimStats::of(&reports, &workload.jobs(seed));
            out.num("wall_s", wall)
                .num("vehicle_s", stats.vehicle_s)
                .num("success_rate", stats.success_rate)
                .num("mean_latency_s", stats.mean_latency_s)
                .num("overhead_tx", stats.overhead_tx as f64)
                .num(
                    "violations",
                    reports.iter().map(|r| r.lookahead_violations).sum::<u64>() as f64,
                )
                .text("digest", &digest(&reports));
        }
        "setup" => {
            let reps: usize = number(args, "--reps")?;
            let jobs = workload.jobs(seed);
            let mut secs = Vec::with_capacity(reps);
            for _ in 0..reps.max(1) {
                let mut total = 0u64;
                for (cfg, p) in &jobs {
                    total += setup_only(cfg, *p).map_err(|e| e.to_string())?.setup_ns();
                }
                secs.push(total as f64 / 1e9);
            }
            out.num("setup_s", median(&mut secs));
        }
        "trace" => {
            let traced_first = match flag(args, "--order")? {
                "T" => true,
                "U" => false,
                o => return Err(format!("--order: expected U or T, got {o:?}")),
            };
            trace(workload, seed, traced_first, &mut out)?;
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    }
    Ok(out.to_json())
}

/// In-program instrumentation compiled into this build; any of it perturbs
/// timing.
fn features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(feature = "trace") {
        f.push("trace");
    }
    f
}

fn timed_run(workload: Workload, seed: u64) -> (f64, Vec<RunReport>) {
    let start = Instant::now();
    let reports = workload.run(seed);
    (start.elapsed().as_secs_f64(), reports)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The workload's simulations through the traced driver, as many at once as
/// the untraced workload runs.
struct TracedWorkload {
    wall_s: f64,
    pool_threads: usize,
    busy_ns: u64,
    reports: Vec<RunReport>,
    spans: Spans,
}

fn run_traced_workload(workload: Workload, seed: u64) -> Result<TracedWorkload, String> {
    let jobs = workload.jobs(seed);
    let pool = JobPool::new(workload.pool_threads());
    let start = Instant::now();
    let results = pool.run(jobs.len(), |i| {
        let t = Instant::now();
        let (cfg, p) = &jobs[i];
        run_traced(cfg, *p).map(|r| (r, t.elapsed().as_nanos() as u64))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = TracedWorkload {
        wall_s,
        pool_threads: pool.threads().min(jobs.len()),
        busy_ns: 0,
        reports: Vec::with_capacity(jobs.len()),
        spans: Spans::default(),
    };
    for r in results {
        let ((report, spans), ns) = r.map_err(|e| e.to_string())?;
        out.busy_ns += ns;
        out.reports.push(report);
        out.spans.add(&spans);
    }
    Ok(out)
}

fn trace(
    workload: Workload,
    seed: u64,
    traced_first: bool,
    out: &mut Record,
) -> Result<(), String> {
    let (traced, (plain_wall, plain)) = if traced_first {
        let t = run_traced_workload(workload, seed)?;
        (t, timed_run(workload, seed))
    } else {
        let p = timed_run(workload, seed);
        (run_traced_workload(workload, seed)?, p)
    };
    // The layer table is only meaningful if the re-driven loop did exactly
    // what `run_simulation` did.
    let mismatch = plain
        .iter()
        .zip(&traced.reports)
        .position(|(a, b)| counter_fingerprint(a) != counter_fingerprint(b))
        .map(|i| format!("simulation {i} diverged from run_simulation"));
    out.num("wall_untraced_s", plain_wall)
        .num("wall_traced_s", traced.wall_s)
        .text("digest", &digest(&plain))
        .text("mismatch", mismatch.as_deref().unwrap_or(""));
    if mismatch.is_none() {
        out.object("layers", &layers(&traced, plain_wall));
    }
    Ok(())
}

/// The per-layer metrics of one traced repetition, named as in
/// `BENCHMARK.json`'s `per_layer` list.
fn layers(t: &TracedWorkload, plain_wall: f64) -> Record {
    let s = &t.spans;
    let r = &t.reports;
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let sum = |f: fn(&RunReport) -> u64| r.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&RunReport) -> u64| r.iter().map(f).max().unwrap_or(0) as f64;
    let unattributed = s.loop_ns.saturating_sub(s.attributed_ns());
    let mut l = Record::default();
    l.num("des.pop_ms", ms(s.pop_ns))
        .num("des.pop_ns_per_event", ratio(s.pop_ns, s.events))
        .num("des.schedule_ms", ms(s.schedule_ns))
        .num("des.events", s.events as f64)
        .num("des.peak_depth", max(|r| r.peak_queue_depth as u64))
        .num("des.queue_resizes", sum(|r| r.queue_resizes))
        .num("des.max_bucket_scan", max(|r| r.queue_max_scan))
        .num("des.epochs", sum(|r| r.barrier_epochs))
        .num("des.boundary_events", sum(|r| r.boundary_events))
        .num("des.lookahead_violations", sum(|r| r.lookahead_violations))
        .num("mobility.step_ms", ms(s.mobility_step_ns))
        .num(
            "mobility.ns_per_vehicle_tick",
            ratio(s.mobility_step_ns, s.vehicle_ticks),
        )
        .num("geo.apply_moves_ms", ms(s.apply_moves_ns))
        .num(
            "geo.cell_cross_ratio",
            ratio(s.cell_crossed, s.cell_crossed + s.cell_in_place),
        )
        .num("net.deliver_ms", ms(s.deliver_ns))
        .num("net.deliver_ns_per_call", ratio(s.deliver_ns, s.deliveries))
        .num("net.deliveries", s.deliveries as f64)
        .num("net.arrived_ratio", ratio(s.arrived, s.deliveries))
        .num("net.relay_ratio", ratio(s.relayed, s.deliveries))
        .num("net.drops", sum(|r| r.drops.iter().sum()))
        .num("proto.on_move_ms", ms(s.on_move_ns))
        .num("proto.on_packet_ms", ms(s.on_packet_ns))
        .num("proto.on_timer_ms", ms(s.on_timer_ns))
        .num("proto.launch_query_ms", ms(s.launch_query_ns))
        .num("proto.fanout", ratio(s.effects, s.handler_calls))
        .num("setup.map_ms", ms(s.map_ns))
        .num("setup.partition_ms", ms(s.partition_ns))
        .num("setup.mobility_ms", ms(s.mobility_setup_ns))
        .num("setup.net_ms", ms(s.net_setup_ns))
        .num("setup.protocol_ms", ms(s.protocol_setup_ns))
        .num("setup.queue_ms", ms(s.queue_setup_ns))
        .num("scenario.loop_ms", ms(s.loop_ns))
        .num("scenario.unattributed_ms", ms(unattributed))
        .num(
            "scenario.attributed_pct",
            100.0 * ratio(s.attributed_ns(), s.loop_ns),
        )
        .num(
            "pool.busy_ratio",
            t.busy_ns as f64 / (t.wall_s * 1e9 * t.pool_threads as f64),
        )
        .num(
            "trace.overhead_pct",
            100.0 * (t.wall_s - plain_wall) / plain_wall,
        );
    l
}
