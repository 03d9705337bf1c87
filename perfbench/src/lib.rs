//! Layer-attributed benchmark for the HLSRG simulator.
//!
//! Three workloads run through the simulator's public entry points
//! ([`run_simulation`] and [`replicate_batch`]) for the end-to-end numbers;
//! [`driver`] re-drives the same event loop from this crate, timing every call
//! into a layer's public API, for the per-layer numbers. `run.py` launches the
//! `perfbench` binary once per repetition and aggregates the results.

pub mod driver;

use std::fmt::Write as _;
use vanet_des::SimDuration;
use vanet_scenario::{replicate_batch, run_simulation, Protocol, RunReport, SimConfig};

/// Fleet sizes of the Fig 3.3–3.5 vehicle sweep.
pub const SWEEP_VEHICLES: [usize; 4] = [300, 400, 500, 600];
/// Seeds per sweep point and protocol in `paper_sweep` (the paper averages
/// each point over 10 runs).
pub const SWEEP_REPLICATIONS: usize = 10;
/// Seeds per repetition of the large workloads. Two double the work in each
/// timed repetition and halve the seed-to-seed spread of the simulated
/// statistics, which one 10k-vehicle run alone moves by about 5 %.
pub const LARGE_REPLICATIONS: usize = 2;

/// One named benchmark workload. Every workload is a batch: each simulation
/// starts when the previous one (or, in the sweep, a pool worker) is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The large-tier HLSRG run on one queue shard (queue, radio, setup).
    Large1Shard,
    /// The same run on four shards through the threaded epoch executor.
    Large4Shard,
    /// The paper's vehicle sweep, both protocols, through the job pool.
    PaperSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Large1Shard,
        Workload::Large4Shard,
        Workload::PaperSweep,
    ];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Large1Shard => "large_1shard",
            Workload::Large4Shard => "large_4shard",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    /// Worker threads the workload may use: the host's core count.
    pub fn threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// How many simulations run at once: the sweep fans out over a job pool
    /// as wide as the host; the large runs go one after another.
    pub fn pool_threads(self) -> usize {
        match self {
            Workload::PaperSweep => Self::threads(),
            Workload::Large1Shard | Workload::Large4Shard => 1,
        }
    }

    /// The `(config, protocol)` pairs the workload replicates, before seed
    /// fan-out.
    fn pairs(self, seed: u64) -> Vec<(SimConfig, Protocol)> {
        match self {
            Workload::Large1Shard | Workload::Large4Shard => {
                // The legacy `--scale large` shard config: 10k vehicles on a
                // 12 km map, 60 s simulated with a 20 s warm-up.
                let mut cfg = SimConfig::paper_fig3_2(12_000.0, 10_000, seed);
                cfg.duration = SimDuration::from_secs(60);
                cfg.warmup = SimDuration::from_secs(20);
                if self == Workload::Large4Shard {
                    cfg.shards = 4;
                    cfg.threads = Self::threads();
                }
                vec![(cfg, Protocol::Hlsrg)]
            }
            Workload::PaperSweep => SWEEP_VEHICLES
                .iter()
                .flat_map(|&v| Protocol::ALL.map(|p| (SimConfig::paper_2km(v, seed), p)))
                .collect(),
        }
    }

    fn replications(self) -> usize {
        match self {
            Workload::PaperSweep => SWEEP_REPLICATIONS,
            Workload::Large1Shard | Workload::Large4Shard => LARGE_REPLICATIONS,
        }
    }

    /// Every simulation the workload runs, in report order: the same
    /// expansion [`replicate_batch`] performs (pair-major, seed offset by the
    /// replication index).
    pub fn jobs(self, seed: u64) -> Vec<(SimConfig, Protocol)> {
        let reps = self.replications();
        self.pairs(seed)
            .into_iter()
            .flat_map(|(cfg, p)| {
                (0..reps).map(move |r| {
                    let mut c = cfg.clone();
                    c.seed = cfg.seed.wrapping_add(r as u64);
                    (c, p)
                })
            })
            .collect()
    }

    /// Runs the workload through the simulator's public entry points, with
    /// no instrumentation from this crate.
    pub fn run(self, seed: u64) -> Vec<RunReport> {
        match self {
            Workload::PaperSweep => {
                replicate_batch(&self.pairs(seed), self.replications(), self.pool_threads())
                    .into_iter()
                    .flatten()
                    .collect()
            }
            Workload::Large1Shard | Workload::Large4Shard => self
                .jobs(seed)
                .iter()
                .map(|(cfg, p)| run_simulation(cfg, *p))
                .collect(),
        }
    }
}

/// The paper's simulated statistics, folded over a workload's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Queries answered within the deadline ÷ queries launched (Fig 3.4).
    pub success_rate: f64,
    /// Mean latency of the answered queries, simulated seconds (Fig 3.5).
    pub mean_latency_s: f64,
    /// Update, collection and query transmissions, radio plus wired
    /// (Figs 3.2–3.3).
    pub overhead_tx: u64,
    /// Simulated vehicle-seconds: fleet size × simulated duration, summed.
    pub vehicle_s: f64,
}

impl SimStats {
    /// Folds every run of a workload; `jobs` supplies each run's duration.
    pub fn of(reports: &[RunReport], jobs: &[(SimConfig, Protocol)]) -> SimStats {
        let launched: usize = reports.iter().map(|r| r.queries_launched).sum();
        let succeeded: usize = reports.iter().map(|r| r.queries_succeeded).sum();
        let answered: u64 = reports.iter().map(|r| r.latency.count()).sum();
        let latency_sum: f64 = reports
            .iter()
            .map(|r| r.latency.mean().unwrap_or(0.0) * r.latency.count() as f64)
            .sum();
        SimStats {
            success_rate: succeeded as f64 / launched.max(1) as f64,
            mean_latency_s: latency_sum / answered.max(1) as f64,
            overhead_tx: reports
                .iter()
                .map(|r| {
                    r.update_radio_tx
                        + r.collection_radio_tx
                        + r.collection_wired_tx
                        + r.query_radio_tx
                        + r.query_wired_tx
                })
                .sum(),
            vehicle_s: jobs
                .iter()
                .map(|(c, _)| c.vehicles as f64 * c.duration.as_secs_f64())
                .sum(),
        }
    }
}

/// Every simulated output of a run that must not depend on wall clock, shard
/// count or thread count — the field set `tests/shard_determinism.rs` pins.
/// Kernel self-diagnostics (`queue_resizes`, `queue_max_scan`) and per-shard
/// bookkeeping are left out because they legitimately vary with the shard
/// count; `phase_timings` is wall clock.
pub fn fingerprint(r: &RunReport) -> String {
    format!(
        "protocol={} seed={} vehicles={} map={:?} updates={} update_radio={} \
         coll_radio={} coll_wired={} query_radio={} query_wired={} launched={} \
         succeeded={} data_sent={} data_delivered={} rate={:?} lat_n={} \
         lat_mean={:?} lat_p95={:?} drops={:?} breakdown={:?} matrix={:?} \
         airtime={:?} artery={:?} diag={:?} timeline={} events={} peak={} \
         migrations={} violations={} epochs={}",
        r.protocol,
        r.seed,
        r.vehicles,
        r.map_size,
        r.update_packets,
        r.update_radio_tx,
        r.collection_radio_tx,
        r.collection_wired_tx,
        r.query_radio_tx,
        r.query_wired_tx,
        r.queries_launched,
        r.queries_succeeded,
        r.data_sent,
        r.data_delivered,
        r.success_rate,
        r.latency.count(),
        r.latency.mean(),
        r.latency_p95,
        r.drops,
        r.drop_breakdown,
        r.drop_matrix,
        r.airtime_us,
        r.artery_share,
        r.diagnostics,
        r.timeline.len(),
        r.events_processed,
        r.peak_queue_depth,
        r.shard_migrations,
        r.lookahead_violations,
        r.barrier_epochs,
    )
}

/// [`fingerprint`] plus the counters that are fixed for a given shard count:
/// what a re-driven loop must reproduce to be trusted.
pub fn counter_fingerprint(r: &RunReport) -> String {
    format!(
        "{} resizes={} max_scan={} shard_counts={:?} boundary={}",
        fingerprint(r),
        r.queue_resizes,
        r.queue_max_scan,
        r.shard_counts,
        r.boundary_events
    )
}

/// FNV-1a digest of every run's [`fingerprint`], in run order.
pub fn digest(reports: &[RunReport]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        for b in fingerprint(r).bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A flat JSON object of named numbers and strings: the one-line record the
/// binary hands to `run.py`.
#[derive(Debug, Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    /// Adds a number; non-finite values are written as `null`.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), text));
        self
    }

    /// Adds a string (the keys and values used here need no escaping beyond
    /// quotes and backslashes).
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a nested record.
    pub fn object(&mut self, key: &str, v: &Record) -> &mut Self {
        self.fields.push((key.to_string(), v.to_json()));
        self
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}
