//! Scenario configuration.

use hlsrg::HlsrgConfig;
use rlsmp::RlsmpConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_des::SimDuration;
use vanet_des::SimTime;
use vanet_mobility::MobilityConfig;
use vanet_mobility::VehicleId;
use vanet_net::{conservative_lookahead, LookaheadError, RadioConfig};
use vanet_roadnet::{GridMapSpec, MapSpecError};

/// Per-link latency of HLSRG's wired RSU backbone.
pub(crate) const WIRED_LINK_DELAY: SimDuration = SimDuration::from_millis(2);

/// Which location service a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// The paper's contribution.
    Hlsrg,
    /// The RLSMP baseline.
    Rlsmp,
}

impl Protocol {
    /// Both protocols, in comparison order.
    pub const ALL: [Protocol; 2] = [Protocol::Hlsrg, Protocol::Rlsmp];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Hlsrg => "HLSRG",
            Protocol::Rlsmp => "RLSMP",
        }
    }
}

/// One simulation run's full parameter set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Map generator parameters (used when `map_text` is `None`).
    pub map: GridMapSpec,
    /// A digital map in `vanet_roadnet::io` text format; overrides the generator.
    pub map_text: Option<String>,
    /// An ns-2 movement trace (`vanet_mobility::Ns2Trace` text format); when set,
    /// vehicles replay the trace instead of the native mobility model, and
    /// `vehicles` is overridden by the trace's fleet size.
    pub trace_ns2: Option<String>,
    /// L1 grid size (= communication range in the paper).
    pub l1_size: f64,
    /// Fleet size.
    pub vehicles: usize,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Time before the first query (tables need to fill).
    pub warmup: SimDuration,
    /// Fraction of vehicles that launch one query each (paper: 10 %). Ignored when
    /// `explicit_queries` is set.
    pub query_fraction: f64,
    /// An explicit query workload `(time, source, destination)` that overrides the
    /// random one — for application scenarios like fleet tracking.
    pub explicit_queries: Option<Vec<(SimTime, VehicleId, VehicleId)>>,
    /// Master seed; every subsystem derives its own stream from it.
    pub seed: u64,
    /// Radio model.
    pub radio: RadioConfig,
    /// Mobility model.
    pub mobility: MobilityConfig,
    /// HLSRG tunables.
    pub hlsrg: HlsrgConfig,
    /// RLSMP tunables.
    pub rlsmp: RlsmpConfig,
    /// Whether HLSRG's RSUs get their wired backbone (ablation knob; RSUs still
    /// exist and have radios when false, but wired transfers fail).
    pub wired_backbone: bool,
    /// When set, the run arms the telemetry sampler at this interval: one
    /// [`vanet_trace::TelemetrySample`] per interval multiple (plus a final
    /// end-of-run sample), scheduled as ordinary DES events so the stream is
    /// byte-identical across same-seed runs.
    pub telemetry_interval: Option<SimDuration>,
    /// When set, the run samples protocol diagnostics and cumulative counters at
    /// this period into [`crate::metrics::RunReport::timeline`].
    pub timeline_period: Option<SimDuration>,
    /// Number of L3-region shards the event queue is split across. One shard
    /// is the classic sequential run; more shards split the epoch executor's
    /// queues by region and audit the conservative-sync lookahead, with
    /// byte-identical results (the determinism contract tested in
    /// `tests/shard_determinism.rs`).
    pub shards: usize,
    /// Threads the mobility step fans out over (capped at the host's cores;
    /// independent of `shards`). Each steps a disjoint slice of the fleet, so the
    /// thread count never changes any output byte.
    pub threads: usize,
}

impl SimConfig {
    /// The paper's headline scenario: a 2 km × 2 km map (Fig 3.1) with `vehicles`
    /// vehicles, 300 s of simulated time, and 10 % of vehicles querying.
    pub fn paper_2km(vehicles: usize, seed: u64) -> Self {
        SimConfig {
            map: GridMapSpec::paper(2000.0),
            map_text: None,
            trace_ns2: None,
            l1_size: 500.0,
            vehicles,
            duration: SimDuration::from_secs(300),
            warmup: SimDuration::from_secs(60),
            query_fraction: 0.10,
            explicit_queries: None,
            seed,
            radio: RadioConfig::default(),
            mobility: MobilityConfig::default(),
            hlsrg: HlsrgConfig::default(),
            rlsmp: RlsmpConfig::default(),
            wired_backbone: true,
            telemetry_interval: None,
            timeline_period: None,
            shards: 1,
            threads: 1,
        }
    }

    /// The Fig 3.2 sweep point: map side `size_m` with the paper's proportional
    /// vehicle counts (31 / 125 / 500 for 500 / 1000 / 2000 m).
    pub fn paper_fig3_2(size_m: f64, vehicles: usize, seed: u64) -> Self {
        SimConfig {
            map: GridMapSpec::paper(size_m),
            vehicles,
            ..Self::paper_2km(vehicles, seed)
        }
    }

    /// A small fast scenario for demos, doc examples, and smoke tests.
    pub fn quick_demo(seed: u64) -> Self {
        SimConfig {
            duration: SimDuration::from_secs(90),
            warmup: SimDuration::from_secs(30),
            ..Self::paper_fig3_2(1000.0, 80, seed)
        }
    }

    /// Sanity-checks the configuration, panicking on nonsense.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] that [`SimConfig::check`] reports.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks the configuration, reporting the first nonsense setting.
    ///
    /// The generated map is checked only when no `map_text` overrides it.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.vehicles == 0 {
            return Err(ConfigError::NoVehicles);
        }
        if self.map_text.is_none() {
            self.map.check().map_err(ConfigError::Map)?;
        }
        if self.duration <= self.warmup {
            return Err(ConfigError::WarmupNotBeforeEnd);
        }
        if !(0.0..=1.0).contains(&self.query_fraction) {
            return Err(ConfigError::QueryFraction);
        }
        for &(_, s, d) in self.explicit_queries.iter().flatten() {
            if s.0 as usize >= self.vehicles {
                return Err(ConfigError::QuerySource);
            }
            if d.0 as usize >= self.vehicles {
                return Err(ConfigError::QueryDestination);
            }
            if s == d {
                return Err(ConfigError::SelfQuery);
            }
        }
        if self.l1_size.is_nan() || self.l1_size <= 0.0 {
            return Err(ConfigError::L1Size);
        }
        if self.telemetry_interval.is_some_and(|iv| iv.is_zero()) {
            return Err(ConfigError::TelemetryInterval);
        }
        if self.shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if self.shards > 1 {
            let wired = self.wired_backbone.then_some(WIRED_LINK_DELAY);
            conservative_lookahead(&self.radio, wired, self.mobility.max_speed)
                .map_err(ConfigError::Lookahead)?;
        }
        if self.threads == 0 {
            return Err(ConfigError::NoThreads);
        }
        Ok(())
    }
}

/// A [`SimConfig`] setting no run can use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `vehicles` is zero.
    NoVehicles,
    /// The map generator spec cannot be built.
    Map(MapSpecError),
    /// `warmup` does not end before `duration`.
    WarmupNotBeforeEnd,
    /// `query_fraction` is not a probability.
    QueryFraction,
    /// An explicit query's source is not a vehicle.
    QuerySource,
    /// An explicit query's destination is not a vehicle.
    QueryDestination,
    /// An explicit query targets its own source.
    SelfQuery,
    /// `l1_size` is not positive.
    L1Size,
    /// `telemetry_interval` is zero.
    TelemetryInterval,
    /// `shards` is zero.
    NoShards,
    /// `shards` is above one, but the radio and mobility settings give no
    /// conservative lookahead to synchronise the shards by.
    Lookahead(LookaheadError),
    /// `threads` is zero.
    NoThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoVehicles => write!(f, "need at least one vehicle"),
            ConfigError::Map(e) => write!(f, "{e}"),
            ConfigError::WarmupNotBeforeEnd => write!(f, "duration must exceed warmup"),
            ConfigError::QueryFraction => write!(f, "query fraction must be a probability"),
            ConfigError::QuerySource => write!(f, "query source out of range"),
            ConfigError::QueryDestination => write!(f, "query destination out of range"),
            ConfigError::SelfQuery => write!(f, "self-queries are meaningless"),
            ConfigError::L1Size => write!(f, "positive L1 size required"),
            ConfigError::TelemetryInterval => write!(f, "telemetry interval must be positive"),
            ConfigError::NoShards => write!(f, "need at least one event-queue shard"),
            ConfigError::Lookahead(e) => write!(f, "cannot shard this run: {e}"),
            ConfigError::NoThreads => write!(f, "need at least one executor thread"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        SimConfig::paper_2km(500, 0).validate();
        SimConfig::paper_fig3_2(500.0, 31, 1).validate();
        SimConfig::quick_demo(2).validate();
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Hlsrg.name(), "HLSRG");
        assert_eq!(Protocol::Rlsmp.name(), "RLSMP");
    }

    #[test]
    fn check_names_the_bad_setting() {
        assert_eq!(
            SimConfig::paper_2km(0, 0).check(),
            Err(ConfigError::NoVehicles)
        );
        assert!(matches!(
            SimConfig::paper_fig3_2(10.0, 5, 0).check(),
            Err(ConfigError::Map(MapSpecError::NoRoads { .. }))
        ));
        let mut c = SimConfig::paper_2km(5, 0);
        c.map_text = Some("node 0 0\n".into());
        c.map.width = 0.0;
        assert_eq!(c.check(), Ok(()), "a map text overrides the generator");
    }

    #[test]
    fn sharded_check_needs_a_lookahead() {
        let mut c = SimConfig::quick_demo(3);
        c.shards = 2;
        c.radio.per_hop_overhead = SimDuration::ZERO;
        assert_eq!(
            c.check(),
            Err(ConfigError::Lookahead(LookaheadError::ZeroRadioOverhead))
        );
        for max_speed in [0.0, -5.0, f64::NAN] {
            let mut c = SimConfig::quick_demo(3);
            c.shards = 4;
            c.mobility.max_speed = max_speed;
            assert!(
                matches!(
                    c.check(),
                    Err(ConfigError::Lookahead(LookaheadError::BadKinematics { .. }))
                ),
                "max_speed {max_speed}: {:?}",
                c.check()
            );
        }
    }

    /// One shard needs no cross-shard guarantee; the run itself is covered
    /// by `tests/shard_determinism.rs`.
    #[test]
    fn one_shard_needs_no_lookahead() {
        let mut c = SimConfig::quick_demo(3);
        c.radio.per_hop_overhead = SimDuration::ZERO;
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "need at least one vehicle")]
    fn zero_vehicles_rejected() {
        SimConfig::paper_2km(0, 0).validate();
    }

    #[test]
    #[should_panic(expected = "duration must exceed warmup")]
    fn inverted_warmup_rejected() {
        let mut c = SimConfig::paper_2km(10, 0);
        c.warmup = c.duration + SimDuration::from_secs(1);
        c.validate();
    }
}
