"""Outside-in tracing: spans and counters around teichkit's public functions.

Nothing in teichkit is edited.  `install` replaces every public function of
the kernel modules and of `jsonio` with a wrapper, in every teichkit module
that binds the name (``from .x import y`` makes a second binding), and puts a
counting wrapper on the hottest helpers.  A span records its id, its parent,
its name, and its start and end in nanoseconds; a span's self time is its
duration minus the durations of its direct children.  Wrappers record only
while the tracer is live, which is during an op's calls and not during its
check.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict

KERNEL_MODULES = ("algebra", "hopf", "teich", "tori", "surd", "foliation", "atlas")

# Counted, not timed: each runs thousands of times per op, where a span
# would cost more than the call it measures.
COUNTED = {"tolerance.resolve", "algebra.ensure_finite", "atlas.g_mul"}
MATRIX_NEW = "algebra.Matrix2C"

# Called once per float inside canonical_dumps, whose span already holds it.
UNTRACED = {"jsonio.format_float"}

KEEP_OPS = 32  # ops whose raw spans are kept for the span file
SPAN_FIELDS = ("op", "id", "parent", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self) -> None:
        self.live = [False]
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn):
        live, spans, stack, ids, clock = self.live, self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not live[0]:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def counted(self, name: str, fn):
        live, counts = self.live, self.counts

        def counting(*args, **kwargs):
            if live[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def step(self, name: str, call):
        """Run one of an op's calls inside a top-level span."""
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, name, start, end))

    def install(self) -> None:
        """Patch every binding of the traced functions in all teichkit modules."""
        import teichkit.cli  # noqa: F401  (loads every module that binds a traced name)

        wrappers = {}
        for short in (*KERNEL_MODULES, "jsonio", "tolerance"):
            modname = f"teichkit.{short}"
            for attr, obj in vars(sys.modules[modname]).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                if name in COUNTED:
                    wrappers[id(obj)] = (obj, self.counted(name, obj))
                elif short != "tolerance" and name not in UNTRACED:
                    wrappers[id(obj)] = (obj, self.spanned(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "teichkit" and not modname.startswith("teichkit."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))
        matrix = sys.modules["teichkit.algebra"].Matrix2C
        self._restore.append((matrix, "__init__", matrix.__init__))
        matrix.__init__ = self.counted(MATRIX_NEW, matrix.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus its direct children's."""
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _, _, start, end in spans}


def _layer(name: str) -> str:
    if name.startswith(("jsonio.dec_", "jsonio.loads_strict")):
        return "decode"
    if name.startswith("jsonio."):
        return "encode"
    return "kernel"


class LayerStats:
    """Per-op aggregates of one traced phase of one workload."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.ops = 0
        self.steps: dict[str, list[int]] = defaultdict(list)
        self.top: list[int] = []  # summed duration of the op's top-level spans
        self.top_self: list[int] = []
        self.children: dict[str, list[int]] = defaultdict(list)  # direct children of top-level spans, by layer
        self.jsonio_calls = 0
        self.tally: Counter = Counter()  # exact counts read from outputs
        self.samples: dict[str, list[float]] = defaultdict(list)  # values read from outputs
        self.counts: Counter = Counter()  # the tracer's counters, once the phase is over
        self.kept: list[tuple] = []
        tracer.counts.clear()

    def fold(self, spans) -> None:
        """Fold one op's spans into the aggregates."""
        selfs = self_times(spans)
        top_ids = {sid for sid, parent, *_ in spans if parent == 0}
        per_layer = Counter()
        top = top_self = 0
        for sid, parent, name, start, end in spans:
            if parent == 0:
                self.steps[name].append(end - start)
                top += end - start
                top_self += selfs[sid]
            elif parent in top_ids:
                per_layer[_layer(name)] += end - start
            self.jsonio_calls += name.startswith("jsonio.")
        self.top.append(top)
        self.top_self.append(top_self)
        for layer in ("decode", "encode", "kernel"):
            self.children[layer].append(per_layer[layer])
        if self.ops < KEEP_OPS:
            self.kept.extend((self.ops, *span, selfs[span[0]]) for span in spans)
        self.ops += 1

    def finish(self) -> None:
        self.counts = Counter(self.tracer.counts)

    def per_op(self, count_name: str) -> float:
        return self.counts[count_name] / self.ops

    def median_us(self, step: str, scale: float = 1.0) -> float:
        return statistics.median(self.steps[step]) / 1e3 / scale


IMPORTTIME = "import time:"  # the prefix of every ``-X importtime`` line on stderr


def strip_importtime(stderr: str) -> str:
    return "".join(line for line in stderr.splitlines(keepends=True) if not line.startswith(IMPORTTIME))


def parse_importtime(stderr: str) -> tuple[float, int]:
    """(cumulative microseconds, module count) of the top-level teichkit imports
    in one ``-X importtime`` report."""
    cumulative_us, modules, block = 0.0, 0, 0
    for line in stderr.splitlines():
        if not line.startswith(IMPORTTIME):
            continue
        fields = line[len(IMPORTTIME):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2][1:]
        block += 1
        if name == name.lstrip():  # nesting depth 0
            if name == "teichkit" or name.startswith("teichkit."):
                cumulative_us += int(fields[1])
                modules += block
            block = 0
    return cumulative_us, modules


def layer_metrics(stats: dict[str, LayerStats], bare_ms: list[float], atlas_samples: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit), from one traced phase per workload."""
    cold, replay, kern, atlas = stats["cli-cold"], stats["cli-replay"], stats["kernels"], stats["atlas-check"]
    dispatch_ns = sum(replay.top)
    metrics = {
        "import.teichkit_us": (statistics.median(cold.samples["import_us"]), "us"),
        "import.modules": (statistics.median(cold.samples["import_modules"]), "count"),
        "interp.bare_ms": (statistics.median(bare_ms), "ms"),
        "cli.dispatch_us": (statistics.median(replay.top) / 1e3, "us"),
        "cli.self_us": (statistics.median(replay.top_self) / 1e3, "us"),
        "cli.self_share": (sum(replay.top_self) / dispatch_ns, "ratio"),
        "jsonio.decode_us": (statistics.median(replay.children["decode"]) / 1e3, "us"),
        "jsonio.encode_us": (statistics.median(replay.children["encode"]) / 1e3, "us"),
        "jsonio.calls_per_op": (replay.jsonio_calls / replay.ops, "count"),
        "kernel.share": (sum(replay.children["kernel"]) / dispatch_ns, "ratio"),
        "hopf.classify_us": (kern.median_us("hopf.classify"), "us"),
        "hopf.resonance_order_us": (kern.median_us("hopf.resonance_order"), "us"),
        "teich.twin_us": (kern.median_us("teich.twin"), "us"),
        "teich.twin_found_ratio": (kern.tally["twin_found"] / kern.tally["twin_calls"], "ratio"),
        "tori.reduce_us": (kern.median_us("tori.reduce_fundamental_domain"), "us"),
        "tori.equivalent_us": (kern.median_us("tori.tori_equivalent"), "us"),
        "tori.equiv_found_ratio": (kern.tally["equiv_found"] / kern.ops, "ratio"),
        "foliation.cf_expand_us": (kern.median_us("foliation.cf_expand"), "us"),
        "foliation.morita_us": (kern.median_us("foliation.morita_equivalent"), "us"),
        "foliation.cf_terms_per_op": (kern.tally["cf_terms"] / kern.ops, "count"),
        "atlas.check_trivial_us_per_sample": (atlas.median_us("atlas.groupoid_check.trivial", atlas_samples), "us"),
        "atlas.check_broken_us_per_sample": (atlas.median_us("atlas.groupoid_check.broken", atlas_samples), "us"),
        "atlas.z_action_us": (atlas.median_us("atlas.z_action"), "us"),
        "atlas.g_mul_calls_per_op": (atlas.per_op("atlas.g_mul"), "count"),
    }
    for name, layer in (("kernels", kern), ("atlas-check", atlas)):
        metrics[f"tolerance.resolve_calls_per_op.{name}"] = (layer.per_op("tolerance.resolve"), "count")
        metrics[f"algebra.ensure_finite_calls_per_op.{name}"] = (layer.per_op("algebra.ensure_finite"), "count")
    # no kernels call constructs a Matrix2C, so only atlas-check has this count
    metrics["algebra.matrix2c_new_per_op.atlas-check"] = (atlas.per_op(MATRIX_NEW), "count")
    return metrics
