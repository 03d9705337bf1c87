//! End-to-end tests for the `run` subcommand's flag handling and output:
//! malformed flag values are errors, and trace builds print the per-phase
//! timing summary on every `run` path.

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
