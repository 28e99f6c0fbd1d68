"""teichkit benchmark: run one workload for one seed and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a teichkit checkout; NAME is cli-cold, cli-replay,
kernels or atlas-check.  The same seed gives the same inputs.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 a separate traced run
reports the per-layer metrics and writes its spans under perfbench/out/.  The
lines before the last name each metric with its unit, the environment and the
first failed op, if any.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

A failed op (a wrong output) is counted in `failed` and in fail_ratio, never
dropped.  The exit code is 0 when the run completed, whatever ops failed, and
non-zero, with no JSON line, when it could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-ups per end-to-end run; setup_s is their median
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def environment() -> str:
    return f"nproc={os.cpu_count()} python={platform.python_version()}"


def start_worker(args, setup_only: bool, deadline: float) -> tuple[subprocess.Popen, float, threading.Timer]:
    """Start a worker and wait for its ``ready`` line; returns it with the CPU
    seconds its set-up took."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *(["--setup-only"] if setup_only else []),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=workloads.child_env())
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    word, _, setup_s = proc.stdout.readline().partition(" ")
    if word != "ready":
        finish(proc, watchdog)
        raise RunError(f"worker stopped during set-up (exit code {proc.returncode})")
    return proc, float(setup_s), watchdog


def finish(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    """Wait for a worker to end; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> tuple[dict, dict[str, tuple[float, str]]]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s, watchdog = start_worker(args, True, deadline)
            finish(proc, watchdog)
            setups.append(setup_s)
    proc, setup_s, watchdog = start_worker(args, False, deadline)
    report = json.loads(finish(proc, watchdog).splitlines()[-1])
    if args.trace:
        return report, {name: tuple(pair) for name, pair in report["layers"].items()}
    if report["p90_us"] is None:
        raise RunError(f"p90_us unresolved: only {report['beyond_p90']} samples lie beyond it")
    setups.append(setup_s)
    return report, {
        "p50_us": (report["p50_us"], "us"),
        "p90_us": (report["p90_us"], "us"),
        "ops_per_s": (report["ops_per_s"], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads.require_checkout()

    load_start = os.getloadavg()[0]
    try:
        report, metrics = measure(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = report["attempted"], report["failed"]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env {environment()} load1_start={load_start:.2f} load1_end={os.getloadavg()[0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"p90_us has {report['beyond_p90']} samples beyond it")
        print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    else:
        share = metrics["cli.self_share"][0]
        verdict = "confirmed" if share > 0.5 else "refuted"
        print(f"cli self time is the majority of cli.dispatch_us: {verdict} (cli.self_share={share:.3f})")
        print("algebra.matrix2c_new_per_op.kernels absent: no kernels call constructs a Matrix2C")
        print(f"spans written to perfbench/out/trace-{args.workload}-seed{args.seed}.json")
    if report["first_failure"]:
        print(f"first failed op: {report['first_failure']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
