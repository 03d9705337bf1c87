//! End-to-end tests for the CLI's flag handling and output: malformed values
//! and unknown flags are errors, `--help` works for every command, `fuzz`
//! runs in the default build, and trace builds print the per-phase timing
//! summary on every `run` path.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hlsrg-suite");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn hlsrg")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A malformed value fails fast with one error line naming the flag, instead
/// of silently running with the default.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    assert!(out.stdout.is_empty(), "{args:?} must not run a simulation");
    let err = stderr_of(&out);
    assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    let lines: Vec<_> = err.lines().collect();
    assert_eq!(lines.len(), 1, "one error line for {args:?}, got:\n{err}");
    assert!(
        lines[0].starts_with("error: ") && lines[0].contains(flag),
        "error for {args:?} should name {flag}, got:\n{err}"
    );
}

#[test]
fn malformed_flag_values_are_rejected() {
    assert_rejected(&["run", "--vehicles", "abc"], "--vehicles");
    assert_rejected(&["run", "--duration", "ten"], "--duration");
    assert_rejected(&["run", "--seed", "-1"], "--seed");
    assert_rejected(&["run", "--protocol", "lar"], "--protocol");
    assert_rejected(
        &["run", "--telemetry-interval", "nan"],
        "--telemetry-interval",
    );
    assert_rejected(&["compare", "--reps", "3x"], "--reps");
    // A flag the command does not read is an error, not silently ignored.
    assert_rejected(
        &["run", "--vehicles", "5", "--duration", "5", "--bogus", "3"],
        "--bogus",
    );
    assert_rejected(&["run", "--bogus"], "--bogus");
    assert_rejected(&["figures", "--vehicles", "5"], "--vehicles");
    assert_rejected(&["fuzz", "--runs", "1", "--vehicles", "5"], "--vehicles");
    assert_rejected(&["inspect", "t.jsonl", "--shards", "2"], "--shards");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for args in [
        &["help"][..],
        &["--help"],
        &["run", "--help"],
        &["run", "-h"],
        &["run", "--vehicles", "5", "--help"],
        &["inspect", "--help"],
        &["fuzz", "-h"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert!(stderr_of(&out).contains("commands:"), "{args:?} usage");
    }
}

/// The invariant oracle is in every build: `fuzz` runs clean campaigns,
/// catches the deliberate table corruption, and replays its corpus.
#[test]
fn fuzz_runs_in_the_default_build() {
    let out = run(&["fuzz", "--runs", "3", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 runs from seed 1, 0 failing"), "{stdout}");

    let corpus = std::env::temp_dir().join(format!("hlsrg-fuzz-{}.jsonl", std::process::id()));
    let corpus_path = corpus.to_str().unwrap();
    let out = run(&["fuzz", "--runs", "2", "--corrupt", "--out", corpus_path]);
    // The corruption self-test succeeds when the oracle catches it.
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("table-soundness"), "{stdout}");

    let out = run(&["fuzz", "--replay", corpus_path]);
    std::fs::remove_file(&corpus).ok();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a failing corpus replays as failing"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL table-soundness"), "{stdout}");
}

/// Well-formed values that describe no runnable world — no roads, no
/// vehicles, more intersections than `u32` ids — are rejected before the
/// world is built rather than panicking inside it.
#[test]
fn unrunnable_worlds_are_rejected() {
    for size in ["10", "0", "-5", "nan", "1e9"] {
        assert_rejected(&["run", "--map-size", size], "--map-size");
        assert_rejected(&["trace", "--size", size], "--size");
        assert_rejected(&["map", "--size", size], "--size");
    }
    assert_rejected(&["run", "--vehicles", "0"], "--vehicles");
    assert_rejected(&["compare", "--vehicles", "0"], "--vehicles");
    assert_rejected(&["run", "--duration", "0"], "--duration");
    assert_rejected(&["trace", "--duration", "-1"], "--duration");
    assert_rejected(&["map", "--jitter", "nan"], "--jitter");
}

#[test]
fn both_protocol_names_still_parse() {
    for protocol in ["hlsrg", "RLSMP"] {
        let out = run(&[
            "run",
            "--protocol",
            protocol,
            "--vehicles",
            "20",
            "--duration",
            "15",
        ]);
        assert!(out.status.success(), "{protocol}: {}", stderr_of(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&protocol.to_uppercase()),
            "report should name {protocol}:\n{stdout}"
        );
    }
}

/// A plain `run` (no trace or telemetry output) takes its own early path;
/// the phase summary must be printed there too.
#[cfg(feature = "trace")]
#[test]
fn plain_run_prints_the_phase_summary() {
    let out = run(&["run", "--vehicles", "20", "--duration", "15"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.lines().any(|l| l.trim_start().starts_with("phase ")),
        "trace build must print phase timings, got:\n{err}"
    );
}
