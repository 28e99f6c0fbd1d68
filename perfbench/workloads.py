"""The four benchmark workloads: their seeded inputs, their calls and their checks.

A workload is a pool of ops.  Every op of one workload makes the same bundle of
calls (its steps) on its own seeded inputs, so no percentile of op cost can fall
on a seam between op kinds.  Each op carries a check that decides,
outside the timed region, whether the outputs are right; a wrong output is a
failed op, never a fast one.

The expected values come from the fixture documents and from small oracles in
this file (brute-force scans, direct formulas), not from the code under test.
Inputs are drawn from the distributions the acceptance suite uses; none is
shaped to avoid a known defect.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import parse_importtime, strip_importtime

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

EPS = 1e-9  # teichkit.tolerance.DEFAULT_EPS; the benchmark never changes it
ACCEPT_TOL = 100.0 * EPS  # the acceptance suite's tolerance for float results

KERNEL_POOL = 256
ATLAS_POOL = 64
ATLAS_SAMPLES = 8  # groupoid_check samples per structure in one atlas-check op
ATLAS_TWIST = 256  # |p| of the z_action in one atlas-check op

COLD_CODE = "import sys; from teichkit.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Op:
    steps: tuple[tuple[str, Callable[[], object]], ...]
    check: Callable[[list], str | None]  # None when every output is right


@dataclass
class Workload:
    name: str
    pool: list[Op]
    order_seed: int
    shuffle: bool  # draw a fresh seeded order of the pool for every pass
    whole_passes: bool  # stop only at the end of a pass, so counts per op are exact
    warmup_ops: int
    sweep_ops: int  # ops in the short traced pass of a run traced for another workload
    tally: Callable[[list, object], None] | None = None  # reads per-layer counts from an op's outputs
    cpu_clock: Callable[[], int] = time.thread_time_ns  # what an op costs, in nanoseconds

    def passes(self):
        """Endless sequence of passes, each a list of pool indices."""
        rng = random.Random(self.order_seed)
        order = list(range(len(self.pool)))
        while True:
            if self.shuffle:
                rng.shuffle(order)
            yield list(order)


def require_checkout() -> None:
    """Exit with an error unless the teichkit sources and fixtures are present."""
    if not (SRC / "teichkit" / "cli.py").is_file() or not FIXTURES.is_dir():
        sys.exit(f"perfbench: no teichkit checkout at {ROOT} (need src/teichkit and fixtures/)")


def children_cpu_ns() -> int:
    """CPU time of all reaped child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def cpu_with_children_ns() -> int:
    return time.thread_time_ns() + children_cpu_ns()


def child_env() -> dict[str, str]:
    """Environment for teichkit child processes: the checkout's sources, default eps."""
    env = {k: v for k, v in os.environ.items() if k not in ("TEICHKIT_EPS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def build(name: str, seed: int, traced: bool = False, fixtures: Path = FIXTURES) -> Workload:
    """The workload `name` with inputs drawn from `seed`.

    `traced` matters only for cli-cold, whose traced children run under
    ``-X importtime``; in-process workloads are traced by patching.  The CLI
    workloads take their argvs and expected outputs from `fixtures`.
    """
    if name == "cli-cold":
        return _cli_cold(seed, traced, fixtures)
    if name == "cli-replay":
        return _cli_replay(seed, fixtures)
    if name == "kernels":
        return _kernels(seed)
    if name == "atlas-check":
        return _atlas_check(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli-cold", "cli-replay", "kernels", "atlas-check")


# ------------------------------------------------------------ CLI workloads


def canonical(obj) -> str:
    """The CLI's canonical JSON text: no spaces, floats as %.12g, -0.0 as 0."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format(obj + 0.0, ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + canonical(v) for k, v in obj.items()) + "}"


@dataclass(frozen=True)
class Expected:
    code: int
    stdout: str  # exact bytes on success, empty otherwise
    stderr: str | None  # the error document for exit 1; None when not pinned


def corpus(fixtures: Path) -> list[tuple[list[str], Expected]]:
    """(argv, expected outcome) for every fixture, in file-name order."""
    cases = []
    for path in sorted(fixtures.glob("*.json")):
        doc = json.loads(path.read_text())
        code = doc.get("exit", 0)
        stdout = canonical(doc["expected"]) + "\n" if code == 0 else ""
        stderr = "" if code == 0 else None
        if code == 1 and "expected_error" in doc:
            stderr = canonical(doc["expected_error"]) + "\n"
        cases.append(([str(part) for part in doc["command"]], Expected(code, stdout, stderr)))
    return cases


def _check_cli(expected: Expected) -> Callable[[list], str | None]:
    def check(results: list) -> str | None:
        code, out, err = results[0]
        if code != expected.code:
            return f"exit code {code}, expected {expected.code}"
        if out != expected.stdout:
            return f"stdout {out!r} != expected {expected.stdout!r}"
        if expected.stderr is not None and strip_importtime(err) != expected.stderr:
            return f"stderr {err!r} != expected {expected.stderr!r}"
        return None

    return check


def _spawn(argv: list[str], env: dict[str, str], traced: bool) -> Callable[[], tuple]:
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), "-c", COLD_CODE, *argv]

    def call():
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    return call


def _cli_cold(seed: int, traced: bool, fixtures: Path) -> Workload:
    env = child_env()
    pool = [Op((("cli.main", _spawn(argv, env, traced)),), _check_cli(exp)) for argv, exp in corpus(fixtures)]
    return Workload(
        "cli-cold", pool, seed, shuffle=True, whole_passes=False, warmup_ops=3, sweep_ops=8,
        tally=_tally_imports if traced else None, cpu_clock=cpu_with_children_ns,
    )


def _tally_imports(results: list, stats) -> None:
    import_us, modules = parse_importtime(results[0][2])
    stats.samples["import_us"].append(import_us)
    stats.samples["import_modules"].append(modules)


def bare_spawn_ms(count: int) -> list[float]:
    """Wall times of `count` interpreters that start and exit, the floor under cli-cold."""
    env, times = child_env(), []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return times


def _dispatch_call(dispatch, argv: list[str]) -> Callable[[], tuple]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        code = dispatch(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_replay(seed: int, fixtures: Path) -> Workload:
    from teichkit.cli import dispatch

    pool = [Op((("cli.dispatch", _dispatch_call(dispatch, argv)),), _check_cli(exp)) for argv, exp in corpus(fixtures)]
    return Workload("cli-replay", pool, seed, shuffle=True, whole_passes=True, warmup_ops=16, sweep_ops=len(pool))


# ----------------------------------------------------------------- oracles


def brute_resonance_order(big: complex, small: complex, eps: float = EPS, max_order: int = 64) -> int | None:
    """Smallest p in 1..max_order with big**p == small within eps."""
    power = 1.0 + 0j
    for p in range(1, max_order + 1):
        power = power * big
        if abs(power - small) <= eps:
            return p
    return None


def int_mul(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def moebius(m: tuple, tau: complex) -> complex:
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def in_fundamental_domain(tau: complex, eps: float = EPS) -> bool:
    """The acceptance suite's membership test, canonical boundary side included."""
    slack = 10.0 * eps
    if not (-0.5 - slack <= tau.real < 0.5):
        return False
    if abs(tau) < 1.0 - slack:
        return False
    return not (abs(abs(tau) - 1.0) <= slack and tau.real > slack)


def curve_image(order: int, lam: complex) -> tuple[complex, complex]:
    return lam ** (order + 1), lam + lam**order


def _close(x: complex, y: complex, rel: float = 1e-6, abs_tol: float = 1e-8) -> bool:
    return abs(x - y) <= max(abs_tol, rel * abs(y))


# --------------------------------------------------------------- generators


def _annulus(rng: random.Random, low: float, high: float) -> complex:
    return cmath.rect(rng.uniform(low, high), rng.uniform(0.0, 2.0 * math.pi))


def _box(rng: random.Random, radius: float = 1.0) -> complex:
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


_LETTERS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))  # S, T, T^-1


def _unimodular(rng: random.Random, length: int) -> tuple[int, int, int, int]:
    m = (1, 0, 0, 1)
    for _ in range(length):
        m = int_mul(m, _LETTERS[rng.randrange(3)])
    return m


def _contracting(rng: random.Random, M):
    """Conjugated diagonal matrix with eigenvalue gap >= 1e-3, and its eigenvalues."""
    while True:
        lam1, lam2 = _annulus(rng, 0.1, 0.85), _annulus(rng, 0.1, 0.85)
        if abs(lam1 - lam2) >= 1e-3:
            break
    while True:
        basis = M(*(_box(rng) for _ in range(4)))
        if abs(basis.det) >= 0.3:
            break
    return basis @ (M.diag(lam1, lam2) @ basis.inverse()), (lam1, lam2)


def _dyadic_jordan(rng: random.Random, M):
    """Jordan block with a dyadic eigenvalue, conjugated by an integer word, so
    the double eigenvalue survives in floating point exactly."""
    while True:
        lam = complex(rng.randrange(-28, 29) / 32.0, rng.randrange(-28, 29) / 32.0)
        if 0.1 < abs(lam) < 0.85:
            break
    a, b, c, d = _unimodular(rng, rng.randrange(0, 4))
    basis, inverse = M(a, b, c, d), M(d, -b, -c, a)
    return basis @ (M(lam, 1.0, 0.0, lam) @ inverse), lam


def _resonance_pair(rng: random.Random, i: int) -> tuple[complex, complex]:
    """Criterion 2's mix: exact resonances, near misses well inside or well
    outside the tolerance, and generic pairs."""
    if i % 4 == 0:
        big = _annulus(rng, 0.05, 0.95)
        order = rng.randint(1, 8)
        while order > 1 and abs(big) ** order < 0.05:
            order -= 1
        return big, big**order
    if i % 4 == 2:
        big = _annulus(rng, 0.226, 0.95)
        order = rng.randint(2, 8)
        while order > 2 and abs(big) ** order < 0.051:
            order -= 1
        off = 1e-11 if i % 8 == 2 else 1e-7
        return big, big**order + cmath.rect(off, rng.uniform(0, 2 * math.pi))
    big = _annulus(rng, 0.05, 0.95)
    return big, _annulus(rng, 0.05, abs(big))


def _curve_point(rng: random.Random, CurvePoint, InvalidPointError):
    while True:
        order = rng.randint(1, 6)
        lam = cmath.rect(rng.uniform(0.15, 0.8), rng.uniform(0, 2 * math.pi))
        try:
            return CurvePoint(order, lam)
        except InvalidPointError:
            continue


def _tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-5.0, 5.0), rng.uniform(0.01, 10.0))


_SURDS = [(p, q, d) for d in (2, 3, 5, 6, 7, 10, 11, 13) for p in range(-3, 4) for q in (1, 2, 3, -2)]


# ---------------------------------------------------------------- kernels


@dataclass(frozen=True)
class KernelCase:
    """Inputs of one kernels op, with what the oracles expect of them."""

    matrix: object  # Matrix2C
    want_class: tuple  # ("jordan", lam) or ("diagonal", (lam1, lam2))
    big: complex
    small: complex
    want_order: int | None
    curve: object  # CurvePoint
    base: object  # BasePoint
    want_twin: tuple | None  # (order, lam) of the base point's twin
    tau: complex
    tau1: complex
    tau2: complex
    equivalent: bool  # tau2 is a planted SL2(Z) image of tau1
    surd: tuple[int, int, int]  # (p, q, d) of x = (p + sqrt(d)) / q
    x: object  # QuadraticIrrational
    y: object
    morita: bool  # y is a planted Moebius image of x


def _kernel_case(rng: random.Random, i: int) -> KernelCase:
    from teichkit import BasePoint, CurvePoint, IntMatrix2, InvalidPointError, Matrix2C, QuadraticIrrational, moebius_surd

    if i % 4 == 0:
        matrix, lam = _dyadic_jordan(rng, Matrix2C)
        want_class = ("jordan", lam)
    else:
        matrix, lams = _contracting(rng, Matrix2C)
        want_class = ("diagonal", lams)

    big, small = _resonance_pair(rng, i)

    curve = _curve_point(rng, CurvePoint, InvalidPointError)
    if i % 4 == 1:
        source = _curve_point(rng, CurvePoint, InvalidPointError)
        base = BasePoint(*curve_image(source.order, source.lam))
        want_twin = (source.order, source.lam)
    else:
        while True:
            r1, r2 = _annulus(rng, 0.1, 0.85), _annulus(rng, 0.1, 0.85)
            try:
                base = BasePoint(r1 * r2, r1 + r2)
                break
            except InvalidPointError:
                continue
        # a generic pair has a twin only if it is degenerate (p = 1) or resonant
        hi, lo = (r1, r2) if abs(r1) >= abs(r2) else (r2, r1)
        p = brute_resonance_order(hi, lo)
        want_twin = (p, hi) if p is not None else None

    tau, tau1 = _tau(rng), _tau(rng)
    equivalent = i % 2 == 0
    tau2 = moebius(_unimodular(rng, 6), tau1) if equivalent else _tau(rng)

    surd = rng.choice(_SURDS)
    x = QuadraticIrrational(*surd)
    morita = i % 2 == 1
    if morita:
        while True:
            m = tuple(rng.randint(-5, 5) for _ in range(4))
            if m[0] * m[3] - m[1] * m[2] in (1, -1):
                break
        y = moebius_surd(IntMatrix2(*m), x)
    else:  # a surd of another quadratic field is never a Moebius image of x
        y = QuadraticIrrational(*rng.choice([s for s in _SURDS if s[2] != surd[2]]))

    return KernelCase(
        matrix, want_class, big, small, brute_resonance_order(big, small), curve, base, want_twin,
        tau, tau1, tau2, equivalent, surd, x, y, morita,
    )


def _kernel_steps(c: KernelCase) -> tuple:
    from teichkit import cf_expand, classify, morita_equivalent, reduce_fundamental_domain, resonance_order, tori_equivalent, twin

    return (
        ("hopf.classify", lambda: classify(c.matrix)),
        ("hopf.resonance_order", lambda: resonance_order(c.big, c.small)),
        ("teich.twin", lambda: twin(c.curve)),
        ("teich.twin", lambda: twin(c.base)),
        ("tori.reduce_fundamental_domain", lambda: reduce_fundamental_domain(c.tau)),
        ("tori.tori_equivalent", lambda: tori_equivalent(c.tau1, c.tau2)),
        ("foliation.cf_expand", lambda: cf_expand(c.x)),
        ("foliation.morita_equivalent", lambda: morita_equivalent(c.x, c.y)),
    )


def _check_kernels(c: KernelCase, r: list) -> str | None:
    from teichkit import BasePoint, CurvePoint, Resonant, twin

    cls = r[0]
    kind, lams = c.want_class
    if kind == "jordan":
        if not (isinstance(cls, Resonant) and cls.p == 1 and abs(cls.lam - lams) <= 1e-7):
            return f"classify of a Jordan block with eigenvalue {lams!r} gave {cls!r}"
    elif not (
        any(abs(cls.lambda1 - u) <= 1e-7 and abs(cls.lambda2 - v) <= 1e-7 for u, v in (lams, lams[::-1]))
        and abs(cls.lambda1) >= abs(cls.lambda2) - EPS
    ):
        return f"classify with eigenvalues {lams!r} gave {cls!r}"

    if r[1] != c.want_order:
        return f"resonance_order({c.big!r}, {c.small!r}) = {r[1]!r}, brute force gives {c.want_order!r}"

    det, trace = curve_image(c.curve.order, c.curve.lam)
    if not (isinstance(r[2], BasePoint) and abs(r[2].det - det) <= ACCEPT_TOL and abs(r[2].trace - trace) <= ACCEPT_TOL):
        return f"twin of {c.curve!r} gave {r[2]!r}"
    back = twin(r[2])
    if not (isinstance(back, CurvePoint) and back.order == c.curve.order and abs(back.lam - c.curve.lam) <= 1e-7):
        return f"twin(twin({c.curve!r})) gave {back!r}"

    if c.want_twin is None:
        if r[3] is not None:
            return f"base point {c.base!r} without resonance got twin {r[3]!r}"
    else:
        order, lam = c.want_twin
        if not (isinstance(r[3], CurvePoint) and r[3].order == order and abs(r[3].lam - lam) <= 1e-7):
            return f"twin ({order}, {lam!r}) of {c.base!r} came out as {r[3]!r}"
        back = twin(r[3])
        if not (isinstance(back, BasePoint) and abs(back.det - c.base.det) <= ACCEPT_TOL and abs(back.trace - c.base.trace) <= ACCEPT_TOL):
            return f"twin(twin({c.base!r})) gave {back!r}"

    reduced, w = r[4]
    w = (w.a, w.b, w.c, w.d)
    if w[0] * w[3] - w[1] * w[2] != 1 or not in_fundamental_domain(reduced) or abs(moebius(w, c.tau) - reduced) > ACCEPT_TOL:
        return f"reduce({c.tau!r}) gave {reduced!r} with witness {w}"

    if r[5] is None:
        if c.equivalent:
            return f"planted equivalent pair {c.tau1!r}, {c.tau2!r} reported inequivalent"
    else:
        w = (r[5].a, r[5].b, r[5].c, r[5].d)
        if w[0] * w[3] - w[1] * w[2] != 1 or not _close(moebius(w, c.tau1), c.tau2):
            return f"tori_equivalent({c.tau1!r}, {c.tau2!r}) witness {w} is wrong"

    p, q, d = c.surd
    want = (p + math.sqrt(d)) / q
    if abs(r[6].value() - want) > 1e-9 * max(1.0, abs(want)):
        return f"cf_expand of ({p}+sqrt({d}))/{q} has value {r[6].value()!r}, expected {want!r}"

    if r[7] is not c.morita:
        return f"morita_equivalent({c.x}, {c.y}) gave {r[7]!r}, expected {c.morita!r}"
    return None


def _kernels(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = [_kernel_case(rng, i) for i in range(KERNEL_POOL)]
    pool = [Op(_kernel_steps(c), lambda r, c=c: _check_kernels(c, r)) for c in cases]
    return Workload(
        "kernels", pool, seed, shuffle=False, whole_passes=True, warmup_ops=32, sweep_ops=len(pool),
        tally=_tally_kernels,
    )


def _tally_kernels(results: list, stats) -> None:
    """Exact per-op counts read from one kernels op's outputs."""
    counts = stats.tally
    counts["twin_calls"] += 2
    counts["twin_found"] += (results[2] is not None) + (results[3] is not None)
    counts["equiv_found"] += results[5] is not None
    counts["cf_terms"] += len(results[6].preperiod) + len(results[6].period)


# ------------------------------------------------------------ atlas-check


def _atlas_check(seed: int) -> Workload:
    from teichkit import (
        AtlasPoint,
        GroupElement,
        Matrix2C,
        broken_structure,
        groupoid_check,
        trivial_structure,
        z_action,
    )

    rng = random.Random(seed)
    trivial, broken = trivial_structure(), broken_structure()

    def group_element():
        while True:
            m = Matrix2C(*(_box(rng, 1.5) for _ in range(4)))
            if abs(m.det) >= 0.2:
                return GroupElement(m, _box(rng))

    def check(r, g, m) -> str | None:
        report_t, report_b, (twisted_g, twisted_m) = r
        if not (report_t.passed and all(law.checked == ATLAS_SAMPLES and law.failures == 0 for law in report_t.laws)):
            return f"trivial structure failed a law: {report_t.laws!r}"
        failing = [law.name for law in report_b.laws if not law.passed]
        if failing != ["z-action-target-invariance"]:
            return f"broken structure failed {failing}, expected only z-action-target-invariance"
        if twisted_m is not m or twisted_g.t != g.t or twisted_g.a.entries() != g.a.entries():
            return f"trivial z_action changed g: {twisted_g!r} != {g!r}"
        return None

    pool = []
    for _ in range(ATLAS_POOL):
        check_seed = rng.randrange(2**31)
        g = group_element()
        m = AtlasPoint(_contracting(rng, Matrix2C)[0], _box(rng))
        p = rng.choice((-1, 1)) * ATLAS_TWIST
        steps = (
            ("atlas.groupoid_check.trivial", lambda s=check_seed: groupoid_check(trivial, ATLAS_SAMPLES, s)),
            ("atlas.groupoid_check.broken", lambda s=check_seed: groupoid_check(broken, ATLAS_SAMPLES, s)),
            ("atlas.z_action", lambda p=p, g=g, m=m: z_action(p, g, m, trivial)),
        )
        pool.append(Op(steps, lambda r, g=g, m=m: check(r, g, m)))
    return Workload("atlas-check", pool, seed, shuffle=False, whole_passes=True, warmup_ops=4, sweep_ops=len(pool))

