//! Golden-report regression tests.
//!
//! A full `RunReport` for a fixed `quick_demo` scenario is rendered to a
//! stable line-per-field text form and compared against a committed golden
//! file, for both protocols. Any behavioural drift in the stack — partition,
//! mobility, MAC, GPSR, protocol logic, metrics — shows up as a precise
//! field-level diff here, not as a silent change.
//!
//! Intentional changes are blessed by regenerating the files:
//!
//! ```text
//! HLSRG_REGEN_GOLDEN=1 cargo test --test golden_report
//! ```

use hlsrg_suite::des::SimDuration;
use hlsrg_suite::scenario::{run_simulation, Protocol, RunReport, SimConfig};

/// The scenario every golden file pins: small enough to run in well under a
/// second, busy enough to exercise queries, drops, and the wired backbone.
fn golden_config() -> SimConfig {
    SimConfig::quick_demo(42)
}

/// Renders a report as one `key: value` line per field, in a fixed order.
/// Floats go through `{:?}` so the text round-trips every bit of the value.
fn render(r: &RunReport) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| out.push_str(&format!("{k}: {v}\n"));
    line("protocol", r.protocol.to_string());
    line("seed", r.seed.to_string());
    line("vehicles", r.vehicles.to_string());
    line("map_size", format!("{:?}", r.map_size));
    line("update_packets", r.update_packets.to_string());
    line("update_radio_tx", r.update_radio_tx.to_string());
    line("collection_radio_tx", r.collection_radio_tx.to_string());
    line("collection_wired_tx", r.collection_wired_tx.to_string());
    line("query_radio_tx", r.query_radio_tx.to_string());
    line("query_wired_tx", r.query_wired_tx.to_string());
    line("queries_launched", r.queries_launched.to_string());
    line("queries_succeeded", r.queries_succeeded.to_string());
    line("data_sent", r.data_sent.to_string());
    line("data_delivered", r.data_delivered.to_string());
    line("success_rate", format!("{:?}", r.success_rate));
    line("latency_count", r.latency.count().to_string());
    line("latency_mean", format!("{:?}", r.latency.mean()));
    line("latency_p95", format!("{:?}", r.latency_p95));
    line("drops", format!("{:?}", r.drops));
    line("drop_breakdown", format!("{:?}", r.drop_breakdown));
    line("drop_matrix", format!("{:?}", r.drop_matrix));
    line("airtime_us", format!("{:?}", r.airtime_us));
    line("artery_share", format!("{:?}", r.artery_share));
    for (k, v) in &r.diagnostics {
        line(&format!("diagnostic.{k}"), format!("{v:?}"));
    }
    line("timeline_points", r.timeline.len().to_string());
    out
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(protocol: Protocol, file: &str) {
    check_golden_sharded(protocol, file, 1);
}

/// Compares a run at `shards` against the same single-shard golden file: the
/// region-sharded executor's determinism contract means the committed goldens
/// also pin every sharded configuration. Regeneration always renders the
/// single-shard run.
fn check_golden_sharded(protocol: Protocol, file: &str, shards: usize) {
    let cfg = SimConfig {
        shards,
        ..golden_config()
    };
    check_golden_config(&cfg, protocol, file);
}

/// Compares a run of `cfg` against the golden file `file`. Regeneration only
/// ever writes single-shard runs.
fn check_golden_config(cfg: &SimConfig, protocol: Protocol, file: &str) {
    let report = run_simulation(cfg, protocol);
    let actual = render(&report);
    let path = golden_path(file);
    if cfg.shards == 1 && std::env::var_os("HLSRG_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(regenerate with HLSRG_REGEN_GOLDEN=1 cargo test --test golden_report)",
            path.display()
        )
    });
    // Field-by-field: a drift report names exactly which metrics moved.
    let mut diffs = Vec::new();
    let mut exp_lines = expected.lines();
    for got in actual.lines() {
        match exp_lines.next() {
            Some(want) if want == got => {}
            Some(want) => diffs.push(format!("  expected `{want}`\n  actual   `{got}`")),
            None => diffs.push(format!("  extra line `{got}`")),
        }
    }
    for want in exp_lines {
        diffs.push(format!("  missing line `{want}`"));
    }
    assert!(
        diffs.is_empty(),
        "{} drifted from {} ({} field(s)):\n{}\nIf intentional: HLSRG_REGEN_GOLDEN=1 cargo test --test golden_report",
        report.protocol,
        path.display(),
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn hlsrg_report_matches_golden() {
    check_golden(Protocol::Hlsrg, "hlsrg.txt");
}

#[test]
fn rlsmp_report_matches_golden() {
    check_golden(Protocol::Rlsmp, "rlsmp.txt");
}

#[test]
fn sharded_runs_match_the_single_shard_goldens() {
    for shards in [2, 4] {
        check_golden_sharded(Protocol::Hlsrg, "hlsrg.txt", shards);
        check_golden_sharded(Protocol::Rlsmp, "rlsmp.txt", shards);
    }
}

/// The golden scenario with a zero radio per-hop overhead, which leaves the
/// run no conservative lookahead: only a one-shard run accepts it.
fn zero_lookahead_config() -> SimConfig {
    let mut cfg = golden_config();
    cfg.radio.per_hop_overhead = SimDuration::ZERO;
    cfg
}

#[test]
fn zero_lookahead_hlsrg_report_matches_golden() {
    check_golden_config(
        &zero_lookahead_config(),
        Protocol::Hlsrg,
        "hlsrg_zero_lookahead.txt",
    );
}

#[test]
fn zero_lookahead_rlsmp_report_matches_golden() {
    check_golden_config(
        &zero_lookahead_config(),
        Protocol::Rlsmp,
        "rlsmp_zero_lookahead.txt",
    );
}
