//! # vanet-scenario — experiment harness and paper-figure generators
//!
//! Assembles the whole stack (map → partition → mobility → radio → protocol) into
//! one deterministic discrete-event run, measures it, replicates it across seeds in
//! parallel, and regenerates every figure of the paper's evaluation:
//!
//! * [`run_simulation`] — one run, one protocol, one [`RunReport`];
//!   [`run_simulation_with`] also feeds optional [`RunSinks`] (event trace,
//!   invariant oracle) and returns them in a [`RunOutput`].
//! * [`replicate()`] / [`replicate_averaged`] — seed fan-out over threads.
//! * [`figures`] — `fig3_2` … `fig3_5`, the published sweeps.
//!
//! ```
//! use vanet_scenario::{run_simulation, Protocol, SimConfig};
//!
//! let cfg = SimConfig::quick_demo(42);
//! let report = run_simulation(&cfg, Protocol::Hlsrg);
//! assert!(report.queries_launched > 0);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod config;
pub mod figures;
#[cfg(feature = "check")]
pub mod fuzz;
pub mod metrics;
pub mod plot;
pub mod pool;
pub mod replicate;
pub mod report;
pub mod runner;

pub use bench::{
    append_trajectory, compare_trajectory, parse_trajectory, run_bench, BenchOptions, BenchRecord,
    BenchScale, CompareRow, BENCH_SHARD_COUNTS,
};
pub use config::{ConfigError, Protocol, SimConfig};
pub use figures::{fig3_2, fig3_3, fig3_345, fig3_4, fig3_5, ComparisonPoint, Figure, FigureScale};
pub use metrics::{AveragedReport, PhaseTimingRow, RunReport, TimelinePoint};
pub use plot::{ascii_chart, svg_chart};
pub use pool::JobPool;
pub use replicate::{replicate, replicate_averaged, replicate_batch, replicate_with_threads};
pub use report::{render_report, ReportInputs};
#[cfg(feature = "check")]
pub use runner::Violation;
pub use runner::{
    run_simulation, run_simulation_with, CheckSetup, RunOutput, RunSinks, RECONCILIATION_RING,
};
