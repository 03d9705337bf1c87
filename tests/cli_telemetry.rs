//! End-to-end tests for the observability surface of the `hlsrg` binary:
//! `inspect` diagnostics on damaged traces, `run --telemetry-out` determinism,
//! the `report` dashboard, and the `bench --compare` regression gate.

use hlsrg_suite::scenario::{
    append_trajectory, run_simulation_with, BenchRecord, Protocol, RunSinks, SimConfig,
};
use hlsrg_suite::trace::{
    parse_telemetry_jsonl, telemetry_to_jsonl, truncation_line, DEFAULT_RING_CAPACITY,
};
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hlsrg-suite");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hlsrg-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn hlsrg")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small but real trace, produced through the library so the lines match
/// whatever the current `TraceEvent` wire format is.
fn demo_trace_jsonl() -> String {
    let sinks = RunSinks {
        trace_ring: Some(DEFAULT_RING_CAPACITY),
        ..RunSinks::default()
    };
    let out = run_simulation_with(&SimConfig::quick_demo(3), Protocol::Hlsrg, &sinks);
    let text = out.tracer.expect("trace sink requested").to_jsonl();
    assert!(!text.is_empty(), "demo run produced no trace events");
    text
}

#[test]
fn inspect_names_the_corrupt_line_and_fails() {
    let mut text = demo_trace_jsonl();
    // Chop the final record in half — the classic partially-flushed tail.
    let keep = text.trim_end().rfind('\n').unwrap() + 1 + 10;
    text.truncate(keep);
    let line_no = text.lines().count();
    let path = tmp("corrupt.jsonl");
    std::fs::write(&path, &text).unwrap();

    let out = run(&["inspect", path.to_str().unwrap()]);
    assert!(!out.status.success(), "inspect must fail on a corrupt line");
    let err = stderr_of(&out);
    assert!(
        err.contains("not a valid trace record"),
        "stderr should explain the bad record, got:\n{err}"
    );
    assert!(
        err.contains(&format!(":{line_no}:")),
        "stderr should name line {line_no}, got:\n{err}"
    );
}

#[test]
fn inspect_warns_about_ring_overflow_trailer() {
    let mut text = demo_trace_jsonl();
    text.push_str(&truncation_line(42));
    text.push('\n');
    let path = tmp("truncated.jsonl");
    std::fs::write(&path, &text).unwrap();

    let out = run(&["inspect", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "a truncated-but-valid trace still summarizes: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("trace truncated, 42 events lost"),
        "stderr should warn about the lost events, got:\n{err}"
    );
}

#[test]
fn run_telemetry_stream_is_seed_reproducible() {
    fn args(path: &str) -> Vec<&str> {
        vec![
            "run",
            "--vehicles",
            "40",
            "--map-size",
            "500",
            "--duration",
            "40",
            "--seed",
            "7",
            "--telemetry-interval",
            "10",
            "--telemetry-out",
            path,
        ]
    }
    let a = tmp("telemetry-a.jsonl");
    let b = tmp("telemetry-b.jsonl");
    assert!(run(&args(a.to_str().unwrap())).status.success());
    assert!(run(&args(b.to_str().unwrap())).status.success());
    let (ta, tb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(ta, tb, "same seed must give byte-identical telemetry");
    let samples = parse_telemetry_jsonl(&ta);
    assert!(!samples.is_empty(), "telemetry stream should have samples");
    assert_eq!(samples.last().unwrap().t.as_micros(), 40_000_000);
}

#[test]
fn report_renders_a_self_contained_dashboard() {
    use hlsrg_suite::des::SimDuration;

    // Telemetry from a real instrumented run, written the way `run` writes it.
    let mut cfg = SimConfig::quick_demo(5);
    cfg.telemetry_interval = Some(SimDuration::from_secs(15));
    let samples = run_simulation_with(&cfg, Protocol::Hlsrg, &RunSinks::default()).telemetry;
    let telemetry_path = tmp("report-telemetry.jsonl");
    std::fs::write(&telemetry_path, telemetry_to_jsonl(&samples)).unwrap();

    // A tiny bench trajectory alongside it.
    let bench_path = tmp("report-bench.json");
    let _ = std::fs::remove_file(&bench_path);
    append_trajectory(&bench_path, &[bench_rec("base", 1000.0)]).unwrap();

    let html_path = tmp("report.html");
    let out = run(&[
        "report",
        "--telemetry",
        telemetry_path.to_str().unwrap(),
        "--bench",
        bench_path.to_str().unwrap(),
        "--title",
        "cli smoke",
        "--out",
        html_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "report failed: {}", stderr_of(&out));
    let html = std::fs::read_to_string(&html_path).unwrap();
    assert!(html.contains("<!doctype html>") || html.contains("<html"));
    assert!(html.contains("<svg "), "dashboard should embed SVG charts");
    assert!(html.contains("cli smoke"));
    for forbidden in ["<script", "<link", "src=", "@import", "url(", "<iframe"] {
        assert!(
            !html.contains(forbidden),
            "report must be self-contained, found {forbidden:?}"
        );
    }
}

fn bench_rec(label: &str, eps: f64) -> BenchRecord {
    BenchRecord {
        label: label.into(),
        scale: "smoke".into(),
        scenario: "hlsrg_single".into(),
        wall_ms: 10.0,
        events: (eps / 100.0) as u64,
        events_per_sec: eps,
        peak_queue_depth: 10,
        allocs_per_event: None,
        queue_resizes: None,
        max_bucket_scan: None,
        shards: None,
        threads: None,
    }
}

#[test]
fn bench_compare_gates_on_injected_regression() {
    let path = tmp("compare.json");
    let _ = std::fs::remove_file(&path);
    append_trajectory(&path, &[bench_rec("pr6-baseline", 1000.0)]).unwrap();
    append_trajectory(&path, &[bench_rec("dev", 700.0)]).unwrap();

    // 30% below baseline trips the default 20% threshold.
    let out = run(&[
        "bench",
        "--compare",
        "pr6-baseline",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "a 30% drop must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED"));

    // A looser threshold lets the same trajectory pass.
    let out = run(&[
        "bench",
        "--compare",
        "pr6-baseline",
        "--threshold",
        "50",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "30% drop is within a 50% threshold: {}",
        stderr_of(&out)
    );
}
