"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (exhaustive search, direct formulas)
and shares no algorithmic structure with the library paths it checks, save
the step-by-step replays letter_reduction, surd_cycle and the stepwise_*
atlas draws and action: they take the library's steps but build a validated
value object at every step, where the library keeps plain numbers; and
reference_groupoid_check, the checker's loop with one act per law, kept as
it was before the checker acted once per (m, g).
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from teichkit import AtlasPoint, GroupElement, IntMatrix2, Matrix2C, QuadraticIrrational, moebius_surd
from teichkit.atlas import (
    _LAW_NAMES,
    AtlasStructure,
    CheckReport,
    LawResult,
    _draw_atlas_point,
    _draw_group_element,
    _points_close,
    g_identity,
    g_inverse,
    g_mul,
    source,
    target,
    z_action,
)
from teichkit.errors import TeichkitError
from teichkit.hopf import is_contracting
from teichkit.tolerance import DEFAULT_EPS, tolerance


def brute_resonance_order(big: complex, small: complex, eps: float, max_order: int = 64) -> int | None:
    """Smallest p in 1..max_order with big**p == small within eps."""
    power = 1.0 + 0j
    for p in range(1, max_order + 1):
        power = power * big
        if abs(power - small) <= eps:
            return p
    return None


def _ext_gcd(u: int, v: int) -> tuple[int, int]:
    """(x, y) with x*u + y*v = gcd(u, v)."""
    old_r, r = u, v
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def fundamental_domain_point(tau: complex, box: int = 50, eps: float = 1e-9) -> complex:
    """Reduced representative of tau by exhaustive search.

    Minimizes |c*tau + d| over coprime pairs in the box (equivalently,
    maximizes the image's imaginary part), completes the row to an SL2(Z)
    matrix by the extended Euclidean algorithm, then applies the same
    boundary conventions the library uses (Re in [-1/2, 1/2), arc with
    Re <= 0).  Valid whenever the true minimizer lies in the box; for
    Im(tau) >= 0.05 entries never exceed 21 in absolute value.
    """
    shift = math.floor(tau.real + 0.5)
    tau0 = tau - shift
    best = None
    for c in range(-box, box + 1):
        for d in range(-box, box + 1):
            if math.gcd(c, d) != 1:
                continue
            value = abs(c * tau0 + d)
            if best is None or value < best[0] - 1e-15:
                best = (value, c, d)
    _, c, d = best
    x, y = _ext_gcd(d, c)
    a, b = x, -y
    assert a * d - b * c == 1
    point = (a * tau0 + b) / (c * tau0 + d)
    point -= math.floor(point.real + 0.5)
    if abs(abs(point) - 1.0) <= eps and point.real > eps:
        point = -1.0 / point
    if point.real >= 0.5 - eps:
        point -= 1.0
    return point


def tori_witness_search(tau1: complex, tau2: complex, box: int = 50, tol: float = 1e-6) -> IntMatrix2 | None:
    """SL2(Z) matrix with entries bounded by the box mapping tau1 to tau2.

    For each coprime bottom row (c, d) the top row is forced by the linear
    system a*tau1 + b = tau2*(c*tau1 + d); accept when it is integral and
    (a*tau1 + b)/(c*tau1 + d), computed here rather than by the library's
    moebius, lands on tau2.
    """
    for c in range(-box, box + 1):
        for d in range(-box, box + 1):
            if math.gcd(c, d) != 1:
                continue
            k = tau2 * (c * tau1 + d)
            a = k.imag / tau1.imag
            b = k.real - a * tau1.real
            ra, rb = round(a), round(b)
            if abs(a - ra) > tol or abs(b - rb) > tol:
                continue
            if ra * d - rb * c != 1:
                continue
            if abs((ra * tau1 + rb) / (c * tau1 + d) - tau2) <= tol:
                return IntMatrix2(ra, rb, c, d)
    return None


def letter_reduction(tau: complex, eps: float = 1e-9, max_steps: int = 2000) -> tuple[complex, IntMatrix2]:
    """Gauss reduction of tau with its witness folded letter by letter.

    The float steps are those of reduce_fundamental_domain, boundary glueing
    included, so the reduced point must come out identical.  The witness is
    an independent fold: each step left-multiplies the IntMatrix2 letter it
    applied, T**-n for a translation and S for an inversion, onto the
    running product.
    """
    s = IntMatrix2(0, -1, 1, 0)
    witness = IntMatrix2(1, 0, 0, 1)
    for _ in range(max_steps):
        n = math.floor(tau.real + 0.5)
        if n:
            tau = tau - n
            witness = IntMatrix2(1, -n, 0, 1) @ witness
        if abs(tau) >= 1.0 - eps:
            break
        tau = -1.0 / tau
        witness = s @ witness
    else:
        raise RuntimeError("letter reduction did not terminate")
    if abs(abs(tau) - 1.0) <= eps and tau.real > eps:
        tau = -1.0 / tau
        witness = s @ witness
    if tau.real >= 0.5 - eps:
        tau = tau - 1
        witness = IntMatrix2(1, -1, 0, 1) @ witness
    return tau, witness


def _surd_exceeds(a: int, p: int, q: int, d: int) -> bool:
    """Whether (p + sqrt(d)) / q > a, for d a positive non-square, by squaring.

    Multiplying by q turns the test into sqrt(d) > a*q - p when q > 0 and
    sqrt(d) < a*q - p when q < 0; the value is irrational, so never equal.
    """
    t = a * q - p
    if q > 0:
        return t < 0 or t * t < d
    return t > 0 and t * t > d


def surd_floor(p: int, q: int, d: int) -> int:
    """floor((p + sqrt(d)) / q) for d a positive non-square, exactly.

    The largest a with a < (p + sqrt(d)) / q, bracketed by doubling and
    found by bisection on _surd_exceeds; no isqrt, no float.
    """
    lo, hi = -1, 1
    while not _surd_exceeds(lo, p, q, d):
        lo *= 2
    while _surd_exceeds(hi, p, q, d):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _surd_exceeds(mid, p, q, d):
            lo = mid
        else:
            hi = mid
    return lo


def surd_cycle(x: QuadraticIrrational) -> tuple[list[int], int, frozenset]:
    """(quotients, cycle start, keys of the periodic complete quotients) of x.

    The state recursion of the continued fraction, with every complete
    quotient built as a QuadraticIrrational: its partial quotient is
    surd_floor of that value and its key that value's canonical_key.
    """
    p, q, d = x.p, x.q, x.d
    seen: dict[tuple[int, int], int] = {}
    quotients, keys = [], []
    while (p, q) not in seen:
        seen[(p, q)] = len(quotients)
        state = QuadraticIrrational(p, q, d)
        keys.append(state.canonical_key())
        a = surd_floor(state.p, state.q, state.d)
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    k = seen[(p, q)]
    return quotients, k, frozenset(keys[k:])


def surd_witness_search(x: QuadraticIrrational, y: QuadraticIrrational, box: int = 20) -> IntMatrix2 | None:
    """GL2(Z) matrix with |entries| <= box carrying x to y, if one exists.

    Enumerates (b, c, det) and factors the forced product a*d = det + b*c.
    The Moebius image is the library's moebius_surd: deciding that it equals
    y needs exact arithmetic in Q(sqrt d), which no naive formula here
    replaces, so this search checks the witness, not the surd arithmetic.
    """
    for b in range(-box, box + 1):
        for c in range(-box, box + 1):
            for det in (1, -1):
                n = det + b * c
                if n == 0:
                    for t in range(-box, box + 1):
                        for a, d in ((0, t), (t, 0)):
                            m = IntMatrix2(a, b, c, d)
                            if m.det() == det and moebius_surd(m, x) == y:
                                return m
                    continue
                for a in range(-box, box + 1):
                    if a == 0 or n % a:
                        continue
                    d = n // a
                    if abs(d) > box:
                        continue
                    m = IntMatrix2(a, b, c, d)
                    if moebius_surd(m, x) == y:
                        return m
    return None


def _gauss(z: complex) -> tuple[Fraction, Fraction]:
    """A finite complex as an exact Gaussian rational (re, im)."""
    return Fraction(z.real), Fraction(z.imag)


def _gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _gsub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return _gmul(x, (y[0] / n, -y[1] / n))


def _gdet(a, b, c, d):
    return _gsub(_gmul(a, d), _gmul(b, c))


def _exact_fold(a: Matrix2C, t: complex, p: int) -> tuple:
    """The matrix entries and twist of (a, t)**p, as exact Gaussian rationals."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    (ma, mb, mc, md), s = (_gauss(z) for z in a.entries()), _gauss(t)
    if p < 0:
        det = _gdet(ma, mb, mc, md)
        ma, mb, mc, md = (_gdiv(z, det) for z in (md, _gsub(zero, mb), _gsub(zero, mc), ma))
        s = _gdiv(_gsub(zero, s), det)
    xa, xb, xc, xd, xt = one, zero, zero, one, zero
    for _ in range(abs(p)):
        xt = _gadd(xt, _gmul(s, _gdet(xa, xb, xc, xd)))
        xa, xb, xc, xd = (
            _gadd(_gmul(xa, ma), _gmul(xb, mc)),
            _gadd(_gmul(xa, mb), _gmul(xb, md)),
            _gadd(_gmul(xc, ma), _gmul(xd, mc)),
            _gadd(_gmul(xc, mb), _gmul(xd, md)),
        )
    return xa, xb, xc, xd, xt


def _round(z) -> complex:
    return complex(float(z[0]), float(z[1]))


def exact_twisted_power(a: Matrix2C, t: complex, p: int) -> tuple[complex, complex]:
    """(t, det) of (a, t)**p in the twisted group, exactly, rounded once.

    Every number is a Gaussian rational of Fractions.  The power is |p|
    twisted products (A,t)(B,s) = (AB, t + s*det A) folded from the left,
    of (a, t) or, for p < 0, of its inverse (a^-1, -t/det a); each det is
    ad - bc of that step's matrix, never a product of dets.
    """
    xa, xb, xc, xd, xt = _exact_fold(a, t, p)
    return _round(xt), _round(_gdet(xa, xb, xc, xd))


def exact_matrix_power(a: Matrix2C, p: int) -> tuple[complex, complex, complex, complex]:
    """The entries of a**p, exactly, each rounded once; for p < 0 the power
    of the exact inverse, which is the exact inverse of a**|p|."""
    return tuple(_round(z) for z in _exact_fold(a, 0j, p)[:4])


def stepwise_group_element(rng: random.Random) -> GroupElement:
    """atlas._draw_group_element as rng.uniform and one Matrix2C per draw.
    The library's draw reads no eps, so this one checks at the default."""
    with tolerance(DEFAULT_EPS):
        while True:
            a = Matrix2C(*(random_complex(rng, 1.5) for _ in range(4)))
            if abs(a.det) >= 0.2:
                return GroupElement(a, random_complex(rng, 2.0))


def stepwise_atlas_point(rng: random.Random) -> AtlasPoint:
    """atlas._draw_atlas_point as rng.uniform and one Matrix2C operation
    per step: the basis, the diagonal, the inverse and two products.  The
    library's draw reads no eps, so this one checks at the default."""
    with tolerance(DEFAULT_EPS):
        lam1 = cmath.rect(rng.uniform(0.25, 0.8), rng.uniform(0.0, 2.0 * cmath.pi))
        lam2 = cmath.rect(rng.uniform(0.25, 0.8), rng.uniform(0.0, 2.0 * cmath.pi))
        while True:
            basis = Matrix2C(*(random_complex(rng, 1.0) for _ in range(4)))
            if abs(basis.det) >= 0.4:
                break
        a = basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())
        return AtlasPoint(a, random_complex(rng, 2.0))


def stepwise_broken_action(m: AtlasPoint, g: GroupElement) -> AtlasPoint:
    """The broken structure's action as three Matrix2C operations, inverting
    g.a as g_inverse does, by the det g carries."""
    return AtlasPoint(g_inverse(g).a @ (m.a @ g.a), m.t)


def rotation_power(z0: complex, alpha_value: float, k: int) -> complex:
    """k-th rotation iterate from the closed form, not iterated products."""
    return z0 * cmath.exp(2j * math.pi * alpha_value * k)


# ------------------------------------------------------------- generators


def random_complex(rng: random.Random, radius: float = 1.0) -> complex:
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def random_annulus(rng: random.Random, low: float, high: float) -> complex:
    return cmath.rect(rng.uniform(low, high), rng.uniform(0.0, 2.0 * math.pi))


def random_conjugator(rng: random.Random, min_det: float = 0.3) -> Matrix2C:
    """Well-conditioned complex matrix: unit-box entries, |det| bounded below."""
    while True:
        m = Matrix2C(*(random_complex(rng) for _ in range(4)))
        if abs(m.det) >= min_det:
            return m


def random_contracting(rng: random.Random, low: float = 0.1, high: float = 0.85, separation: float = 0.0) -> Matrix2C:
    """Random contracting matrix with eigenvalue moduli in [low, high] and
    eigenvalue gap at least `separation`, built by conjugating a diagonal."""
    while True:
        lam1 = random_annulus(rng, low, high)
        lam2 = random_annulus(rng, low, high)
        if abs(lam1 - lam2) >= separation:
            break
    basis = random_conjugator(rng)
    return basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())


_LETTERS = (
    IntMatrix2(0, -1, 1, 0),   # S
    IntMatrix2(1, 1, 0, 1),    # T
    IntMatrix2(1, -1, 0, 1),   # T^-1
)


def random_unimodular(rng: random.Random, length: int = 8) -> IntMatrix2:
    """Random SL2(Z) word in S and T."""
    m = IntMatrix2(1, 0, 0, 1)
    for _ in range(length):
        m = m @ _LETTERS[rng.randrange(3)]
    return m


def random_dyadic_jordan(rng: random.Random) -> Matrix2C:
    """Non-diagonalizable contracting matrix with exactly equal eigenvalues.

    The eigenvalue is dyadic and the conjugator integral, so every float
    operation is exact and the discriminant is exactly zero.
    """
    while True:
        lam = complex(rng.randrange(-28, 29) / 32.0, rng.randrange(-28, 29) / 32.0)
        if 0.1 < abs(lam) < 0.85:
            break
    jordan = Matrix2C(lam, 1.0, 0.0, lam)
    basis = random_unimodular(rng, rng.randrange(0, 4))
    u, u_inv = (Matrix2C(x.a, x.b, x.c, x.d) for x in (basis, basis.inverse()))
    return u @ (jordan @ u_inv)


def reference_groupoid_check(structure: AtlasStructure, samples: int, seed: int = 0) -> CheckReport:
    """groupoid_check's sample loop as it was before m.g was computed once:
    three acts with (m, g) per sample, source and target compared under the
    twist, and closure decided by is_contracting(image.a) for every image.
    The draws are the library's; inputs are not validated."""
    rng = random.Random(seed)
    failures = {name: 0 for name in _LAW_NAMES}
    first: dict[str, dict | None] = {name: None for name in _LAW_NAMES}

    def record(law: str, detail: str, **inputs) -> None:
        failures[law] += 1
        if first[law] is None:
            first[law] = {"detail": detail, **inputs}

    for _ in range(samples):
        m = _draw_atlas_point(rng)
        g = _draw_group_element(rng)
        h = _draw_group_element(rng)
        p = rng.randint(-3, 3)

        try:
            joint = structure.action(m, g_mul(g, h))
            stepwise = structure.action(structure.action(m, g), h)
            if not _points_close(joint, stepwise):
                record("action-composition", "m.(g*h) != (m.g).h", m=m, g=g, h=h)
        except TeichkitError as exc:
            record("action-composition", f"action raised {exc.code}: {exc}", m=m, g=g, h=h)

        try:
            if not _points_close(structure.action(m, g_identity()), m):
                record("action-identity", "m.identity != m", m=m)
        except TeichkitError as exc:
            record("action-identity", f"action raised {exc.code}: {exc}", m=m)

        # one twist serves both invariance laws; if it raises, both record it
        try:
            twisted_g, twisted_m = z_action(p, g, m, structure)
        except TeichkitError as exc:
            for law in ("z-action-source-invariance", "z-action-target-invariance"):
                record(law, f"twist raised {exc.code}: {exc}", m=m, g=g, p=p)
        else:
            if not _points_close(source(twisted_g, twisted_m), source(g, m)):
                record("z-action-source-invariance", "source changed under twist", m=m, g=g, p=p)
            try:
                if not _points_close(target(twisted_g, twisted_m, structure), target(g, m, structure)):
                    record("z-action-target-invariance", "target changed under twist", m=m, g=g, p=p)
            except TeichkitError as exc:
                record("z-action-target-invariance", f"twist raised {exc.code}: {exc}", m=m, g=g, p=p)

        try:
            image = structure.action(m, g)
            if not is_contracting(image.a):
                record("action-closure", "action image not contracting", m=m, g=g)
        except TeichkitError as exc:
            record("action-closure", f"action raised {exc.code}: {exc}", m=m, g=g)

    laws = tuple(
        LawResult(name, samples, failures[name], first[name]) for name in _LAW_NAMES
    )
    return CheckReport(structure.name, samples, seed, laws)
