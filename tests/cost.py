"""Deterministic cost: bytecode instructions executed per op in teichkit's own code.

Wall time on a shared host moves by more than 10% between sessions; the
number of bytecode instructions an op executes repeats to the decimal.  This
module counts them for three benchmark workloads, on the seed-1 pools that
``perfbench/workloads.py`` builds:

* ``kernels`` and ``atlas-check``, per op;
* ``cli-replay``, the fixture corpus through ``cli.dispatch``, per argv.

Only code objects whose file lies under ``src/teichkit`` are counted, with
``sys.settrace`` opcode events.  One untraced pass warms imports and caches
first.  The first counted pass in a process is discarded too: on CPython 3.12
it reads 0, and on 3.13 a little below every later pass.  Counts depend on the
interpreter's minor version, so compare them only within one.

    PYTHONHASHSEED=0 python tests/cost.py

prints each workload's count per op and its largest own counts by function
(``co_qualname``; ``co_name`` on 3.10, which has no qualified name).
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (SRC, ROOT / "perfbench"):  # workloads imports tracing as a top-level module
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402

WORKLOADS = ("kernels", "atlas-check", "cli-replay")
SEED = 1
_PACKAGE = str(SRC / "teichkit")


def counted_passes(name: str, passes: int = 1) -> list[Counter]:
    """Own instructions per op by function, one Counter for each of `passes`
    counted passes over the pool of workload `name`, after a warm pass and a
    discarded counted one."""
    pool = workloads.build(name, SEED).pool
    calls = [call for op in pool for _, call in op.steps]
    for call in calls:
        call()
    return [_counted(calls, len(pool)) for _ in range(passes + 1)][1:]


def _counted(calls: list, ops: int) -> Counter:
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def enter(frame, event, arg):
        if frame.f_code.co_filename.startswith(_PACKAGE):
            frame.f_trace_opcodes = True
            return local
        return None

    outer = sys.gettrace()
    sys.settrace(enter)
    try:
        for call in calls:
            call()
    finally:
        sys.settrace(outer)
    own: Counter = Counter()
    for code, n in counts.items():
        own[getattr(code, "co_qualname", code.co_name)] += n / ops
    return own


def main() -> None:
    for name in WORKLOADS:
        (own,) = counted_passes(name)
        print(f"{name}: {sum(own.values()):,.1f} instructions per op")
        for function, n in own.most_common(8):
            print(f"  {n:10,.1f}  {function}")


if __name__ == "__main__":
    main()
