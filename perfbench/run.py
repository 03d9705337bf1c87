#!/usr/bin/env python3
"""Layer-attributed benchmark of the HLSRG simulator.

Run from the repository root:

    python3 perfbench/run.py --workload large_1shard --seed 42 --seconds 30 --trace 0

Builds the `perfbench` binary (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default `.bench_build`), then starts it once per repetition until
`--seconds` have been spent, and prints the medians. With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json, with `--trace 1` the
per-layer metrics of a re-driven, span-timed event loop. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

BENCH_JSON = "BENCHMARK.json"
MANIFEST = os.path.join("perfbench", "Cargo.toml")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Repetitions run even when one takes longer than the time budget, so that
# every reported median rests on at least this many samples.
MIN_REPS = 3
# Repetitions of world building behind one `setup_s` value.
SETUP_REPS = 3
# Every child is killed once this many seconds have passed since the build,
# so that a hung simulation still ends the invocation within its time limit.
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed repetition)."""


def load_metric_table():
    """Names and units of every metric, from BENCHMARK.json."""
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    table = {}
    for kind in ("end_to_end", "per_layer"):
        table[kind] = {}
        for m in spec[kind]:
            if not METRIC_NAME.fullmatch(m["name"]) or not m.get("unit"):
                raise BenchError(f"bad metric entry in {BENCH_JSON}: {m}")
            table[kind][m["name"]] = m["unit"]
    return spec, table


def build(features):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"build produced no {binary}")
    return binary


def run_child(argv, deadline):
    """Runs one child to completion, killing it at `deadline` (monotonic
    seconds); returns (record or None, rusage, error)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    remaining = max(1.0, deadline - time.monotonic())
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return None, usage, f"exit {proc.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), usage, None
    except (ValueError, IndexError) as e:
        return None, usage, f"unreadable child output: {e}"


def read_git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(child):
    """Host and build facts; `child` is a record printed by the binary."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    # The features the binary reports it was built with, not the ones asked
    # for. Every feature it can report compiles instrumentation into the
    # simulator, so any of them makes the timings not comparable.
    enabled = [f for f in child.get("features", "unknown").split(",") if f]
    return {
        "available_parallelism": int(child.get("available_parallelism", 0)),
        "cpu_model": cpu,
        "rustc": rustc,
        "git_commit": read_git_commit(),
        "features": enabled,
        "comparable": not enabled,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runs:
    """Repetitions of one invocation: outcomes, failures and samples."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.facts = {}

    def check(self, problems):
        """Records one attempted run; True when it had no problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return not problems

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def child(self, argv):
        return run_child(argv, self.deadline)


def repeat(seconds, deadline, once):
    """Calls `once(i)` until the budget is spent (at least MIN_REPS times,
    unless the deadline passes first)."""
    start = time.monotonic()
    i = 0
    while True:
        once(i)
        i += 1
        spent = time.monotonic() - start
        if i >= MIN_REPS and spent + spent / i > seconds:
            break
        if time.monotonic() > deadline:
            break


def drift(rec, first, keys):
    """Every repetition must reproduce the first one's simulated outputs."""
    return [
        f"{k} changed between repetitions: {first[k]} -> {rec.get(k)}"
        for k in keys
        if first is not None and rec.get(k) != first[k]
    ]


def end_to_end(binary, args, runs):
    workload, seed = args.workload, str(args.seed)
    base = [binary, "--workload", workload, "--seed", seed]
    sim_keys = ("digest", "success_rate", "mean_latency_s", "overhead_tx")

    rec, _, err = runs.child([base[0], "setup", *base[1:], "--reps", str(SETUP_REPS)])
    if runs.check([f"setup: {err}"] if err else []):
        runs.add("setup_s", rec["setup_s"])

    reference = None
    if workload == "large_4shard":
        # The 4-shard executor must reproduce the 1-shard run byte for byte.
        ref_args = [binary, "run", "--workload", "large_1shard", "--seed", seed]
        reference, _, err = runs.child(ref_args)
        runs.check([f"large_1shard reference: {err}"] if err else [])

    first = None

    def once(_):
        nonlocal first
        rec, usage, err = runs.child([base[0], "run", *base[1:]])
        if err:
            runs.check([err])
            return
        problems = drift(rec, first, sim_keys)
        first = first or rec
        if rec["violations"] != 0:
            problems.append(f"{rec['violations']} lookahead violations")
        if reference is not None and rec["digest"] != reference.get("digest"):
            problems.append("large_4shard output differs from large_1shard")
        if not (0 < rec["success_rate"] <= 1 and rec["mean_latency_s"] > 0
                and rec["overhead_tx"] > 0):
            problems.append(f"implausible simulated statistics: {rec}")
        if not runs.check(problems):
            return
        runs.facts = rec
        runs.add("wall_s", rec["wall_s"])
        runs.add("vehicle_s_per_s", rec["vehicle_s"] / rec["wall_s"])
        runs.add("cpu_s", usage.ru_utime + usage.ru_stime)
        runs.add("peak_rss_mb", usage.ru_maxrss / 1024.0)  # ru_maxrss is KiB
        runs.add("query_success_rate", rec["success_rate"])
        runs.add("sim_query_latency_s", rec["mean_latency_s"])
        runs.add("sim_overhead_tx", rec["overhead_tx"])

    repeat(args.seconds, runs.deadline, once)


def per_layer(binary, args, runs, names):
    base = [binary, "trace", "--workload", args.workload, "--seed", str(args.seed)]
    first = None

    def once(i):
        nonlocal first
        # Alternate which variant runs first so that neither always pays for
        # a cold cache.
        rec, _, err = runs.child(base + ["--order", "UT"[i % 2]])
        if err:
            runs.check([err])
            return
        problems = drift(rec, first, ("digest",))
        first = first or rec
        if rec["mismatch"]:
            # The re-driven loop did not reproduce run_simulation, so its
            # span table describes some other program: print no numbers.
            runs.check(problems + [f"layer table invalid: {rec['mismatch']}"])
            return
        layers = rec["layers"]
        if set(layers) != set(names):
            raise BenchError(
                f"per-layer names differ from {BENCH_JSON}: "
                f"{sorted(set(layers) ^ set(names))}"
            )
        if layers["des.lookahead_violations"] != 0:
            problems.append(f"{layers['des.lookahead_violations']} lookahead violations")
        if not runs.check(problems):
            return
        runs.facts = rec
        for k, v in layers.items():
            runs.add(k, v)

    repeat(args.seconds, runs.deadline, once)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--features", default="",
        help="cargo features for the build (results are flagged not comparable)",
    )
    args = ap.parse_args()
    try:
        spec, table = load_metric_table()
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; one of {workloads}")
        binary = build(args.features)
        kind = "per_layer" if args.trace else "end_to_end"
        units = table[kind]
        runs = Runs()
        if args.trace:
            per_layer(binary, args, runs, units)
        else:
            end_to_end(binary, args, runs)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    facts = host_facts(runs.facts)
    print("host " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runs.attempted} runs attempted, {runs.failed} failed")
    for why in runs.failures:
        print(f"  FAILED: {why}")
    metrics = {}
    for name, unit in units.items():
        values = runs.samples.get(name)
        if not values:
            continue
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<30} {med:>16.6g} {unit:<6} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    correct = not runs.failures and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
