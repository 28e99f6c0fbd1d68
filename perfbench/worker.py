"""One benchmark process: build a workload, warm it up, time it, report.

run.py starts this file in a fresh interpreter.  Just before its first timed
op it prints ``ready`` and the CPU seconds its set-up took; its last line is
one JSON document.  Every workload is a closed loop with one client: the next
op starts only after the previous one returned.

An op is timed in CPU time, not wall time: the CPU time of this thread, plus
that of the child process for cli-cold.  The ops are CPU-bound, so on an idle
machine the two agree; on a machine whose CPUs other tenants share, CPU time
leaves out the time an op waits for a CPU, which is not the program's doing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import tracing
import workloads

MIN_OPS = 100  # enough that 10 samples lie beyond the 90th percentile
HARD_STOP_S = 120.0  # a timed phase ends here even below MIN_OPS
BARE_SPAWNS = 8
OUT = Path(__file__).resolve().parent / "out"


class Phase:
    """Op CPU times and failures of one run of a workload's loop."""

    def __init__(self) -> None:
        self.cpu_ns = array("q")  # one entry an op; 8 bytes an op keeps peak RSS nearly flat
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or reason

    @property
    def ops_per_s(self) -> float:
        return len(self.cpu_ns) / (sum(self.cpu_ns) / 1e9)


def run_phase(wl, seconds: float, min_ops: int = 1, max_ops: int | None = None, tracer=None, stats=None) -> Phase:
    """Run ops in pass order until `seconds` have passed and `min_ops` ran, or
    exactly `max_ops` ops when that is given.

    Only the op's calls are timed, on the workload's CPU clock; its check runs
    after the clock stops.  `seconds` is wall time.  An op whose call raises,
    or whose output the check rejects, is a failed op.  A workload with whole
    passes stops only at the end of a pass.
    """
    clock, cpu_clock = time.perf_counter_ns, wl.cpu_clock
    phase = Phase()
    start = clock()
    deadline, hard_stop = start + int(seconds * 1e9), start + int(HARD_STOP_S * 1e9)

    def finished() -> bool:
        n, now = len(phase.cpu_ns), clock()
        return (now >= deadline and n >= min_ops) or now >= hard_stop

    run = _untraced if tracer is None else tracer.step
    for order in wl.passes():
        for index in order:
            op = wl.pool[index]
            if tracer is not None:
                tracer.spans.clear()
                tracer.live[0] = True
            t0 = cpu_clock()
            try:
                results = [run(name, call) for name, call in op.steps]
            except Exception as exc:  # a library error on a valid input is a failed op
                results = None
                phase.fail(f"{type(exc).__name__}: {exc}")
            t1 = cpu_clock()
            phase.cpu_ns.append(t1 - t0)
            if tracer is not None:
                tracer.live[0] = False
                stats.fold(tracer.spans)
                if results is not None and wl.tally is not None:
                    wl.tally(results, stats)
            if results is not None:
                try:
                    reason = op.check(results)
                except Exception as exc:  # an output of the wrong shape
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is not None:
                    phase.fail(reason)
            if len(phase.cpu_ns) == max_ops or (max_ops is None and not wl.whole_passes and finished()):
                return phase
        if max_ops is None and finished():
            return phase


def _untraced(name: str, call):
    return call()


def end_to_end(wl, seconds: float) -> dict:
    phase = run_phase(wl, seconds, min_ops=MIN_OPS)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before sorting allocates a list
    lat = sorted(phase.cpu_ns)
    rank = math.ceil(0.9 * len(lat))  # nearest-rank 90th percentile
    return {
        "attempted": len(lat),
        "failed": phase.failed,
        "first_failure": phase.first_failure,
        "p50_us": statistics.median(lat) / 1e3,
        "p90_us": lat[rank - 1] / 1e3 if len(lat) - rank >= 10 else None,  # None: unresolved
        "beyond_p90": len(lat) - rank,
        "ops_per_s": phase.ops_per_s,
        "peak_rss_mb": peak_rss_mb,
    }


def traced(wl, seed: int, seconds: float, builds: dict) -> dict:
    """Untraced then traced halves of the run, then one short traced pass of
    every other workload, so each run yields every per-layer metric.

    `builds` holds every workload built for tracing, before the patching.
    """
    name = wl.name
    untraced = run_phase(wl, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    plan = [(name, builds[name], seconds / 2, None)]
    plan += [(other, target, 0.0, target.sweep_ops) for other, target in builds.items() if other != name]
    stats, phases = {}, [untraced]
    try:
        for other, target, budget, max_ops in plan:
            stats[other] = tracing.LayerStats(tracer)
            phases.append(run_phase(target, budget, max_ops=max_ops, tracer=tracer, stats=stats[other]))
            stats[other].finish()
    finally:
        tracer.uninstall()
    bare_ms = workloads.bare_spawn_ms(BARE_SPAWNS)
    metrics = tracing.layer_metrics(stats, bare_ms, workloads.ATLAS_SAMPLES)
    metrics["trace.overhead_ratio"] = (phases[1].ops_per_s / untraced.ops_per_s, "ratio")
    failures = [p.first_failure for p in phases if p.first_failure]
    OUT.mkdir(exist_ok=True)
    spans = {"workload": name, "seed": seed, "fields": tracing.SPAN_FIELDS, "spans": {k: v.kept for k, v in stats.items()}}
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans))
    return {
        "attempted": sum(len(p.cpu_ns) for p in phases),
        "failed": sum(p.failed for p in phases),
        "first_failure": failures[0] if failures else None,
        "layers": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = parser.parse_args()

    workloads.require_checkout()
    sys.path.insert(0, str(workloads.SRC))
    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        # built before the tracer patches teichkit, so each op calls the original functions
        builds = {name: workloads.build(name, args.seed, traced=True) for name in workloads.NAMES}
    run_phase(wl, 0.0, max_ops=wl.warmup_ops)
    print(f"ready {time.process_time() + workloads.children_cpu_ns() / 1e9}", flush=True)
    if args.setup_only:
        return 0

    report = traced(wl, args.seed, args.seconds, builds) if args.trace else end_to_end(wl, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
