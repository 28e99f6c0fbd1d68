"""Moduli of one-dimensional complex tori and their translation groupoid.

A torus is parameterized by a lattice parameter tau in the upper half-plane;
two parameters give isomorphic tori exactly when an integer Moebius map of
determinant one connects them.  Reduction into the standard fundamental
domain (|Re| <= 1/2, |tau| >= 1) accumulates an exact integer witness.

Boundary convention: reduced representatives keep the Re = -1/2 edge and the
|tau| = 1 arc with Re <= 0.  With that canonical side fixed, two parameters
are equivalent exactly when their reduced points coincide.
"""

from __future__ import annotations

import math

from .algebra import IntMatrix2, Value, ensure_finite, ensure_real
from .errors import InvalidInputError, LimitExceededError, MismatchedFiberError, NotUnimodularError
from .tolerance import above, below, within

S = IntMatrix2(0, -1, 1, 0)
T = IntMatrix2(1, 1, 0, 1)

_MAX_REDUCE_STEPS = 2000

# comparison slack for reduced points, floats pass through a few Moebius maps
_EQUIV_SCALE = 100.0


def require_upper_half(tau: complex, what: str = "tau") -> complex:
    tau = ensure_finite(tau, what)
    if not tau.imag > 0.0:
        raise InvalidInputError(f"{what} must lie in the upper half-plane, got {tau!r}")
    return tau


def moebius(m: IntMatrix2, tau: complex) -> complex:
    """(a*tau + b) / (c*tau + d) for m in SL2(Z); an entry or an image past float range is refused."""
    if m.det() != 1:
        raise NotUnimodularError(f"moebius action requires det 1, got {m.det()}")
    tau = require_upper_half(tau)
    try:
        image = (m.a * tau + m.b) / (m.c * tau + m.d)
    except OverflowError:  # an exact entry that float() cannot hold
        raise InvalidInputError("m has an entry past float range") from None
    if not (math.isfinite(image.real) and math.isfinite(image.imag)):
        raise InvalidInputError("the image of tau under m is past float range")
    return image


def reduce_fundamental_domain(tau: complex) -> tuple[complex, IntMatrix2]:
    """Reduce tau into the fundamental domain, returning (tau*, witness).

    Gauss reduction: alternately translate Re into [-1/2, 1/2) and invert
    while |tau| < 1.  Terminates because the imaginary part strictly grows
    on every inversion.  The witness A is exact in SL2(Z) and satisfies
    moebius(A, tau) = tau*; reduction is idempotent on interior points.
    A is kept as four exact ints, left-multiplied in place by T**-n and S,
    and one IntMatrix2 is built at the end.
    """
    tau = require_upper_half(tau)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCE_STEPS):
        n = math.floor(tau.real + 0.5)
        if n:
            tau = tau - n
            a, b = a - n * c, b - n * d
        if below(abs(tau), 1.0):
            tau = -1.0 / tau
            if math.isinf(tau.real) or math.isinf(tau.imag):  # |tau| too small for 1/tau to be finite
                raise InvalidInputError("tau is too close to 0 to invert in floating point")
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise LimitExceededError(f"fundamental-domain reduction did not finish within {_MAX_REDUCE_STEPS} steps")
    # glue boundary representatives to the canonical side
    if within(abs(tau) - 1.0) and above(tau.real, 0.0):
        tau = -1.0 / tau
        a, b, c, d = -c, -d, a, b
    if not below(tau.real, 0.5):
        tau = tau - 1
        a, b = a - c, b - d
    return tau, IntMatrix2(a, b, c, d)


def tori_equivalent(tau1: complex, tau2: complex) -> IntMatrix2 | None:
    """Witness in SL2(Z) mapping tau1 to tau2, or None.

    Both parameters are reduced; with the canonical boundary side they are
    equivalent iff the reduced points coincide (compared with a slack of
    100*eps to absorb the float noise of the two reductions).  The witness
    composes the reductions: A2^-1 . A1.
    """
    r1, a1 = reduce_fundamental_domain(tau1)
    r2, a2 = reduce_fundamental_domain(tau2)
    if within(r1 - r2, _EQUIV_SCALE):
        return a2.inverse() @ a1
    return None


def _frac(v: float) -> float:
    # Python's % can round up to exactly 1.0 for tiny negatives
    r = v % 1.0
    return 0.0 if r >= 1.0 else r


def lattice_reduce(z: complex, tau: complex) -> tuple[float, float]:
    """Lattice coordinates (x, y) in [0, 1)^2 with z = x + y*tau mod the
    lattice Z + Z*tau."""
    tau = require_upper_half(tau)
    z = ensure_finite(z, "z")
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    return _frac(x), _frac(y)


class TorusTranslation(Value):
    """Translation of the torus fiber at tau, stored in lattice coordinates
    (x, y) in [0, 1)^2; the translation vector is z = x + y*tau."""

    tau: complex
    x: float
    y: float

    def __init__(self, tau: complex, x: float, y: float) -> None:
        self.__dict__.update(tau=require_upper_half(tau), x=_frac(ensure_real(x, "x")), y=_frac(ensure_real(y, "y")))

    @classmethod
    def from_z(cls, tau: complex, z: complex) -> "TorusTranslation":
        x, y = lattice_reduce(z, tau)
        return cls(tau, x, y)

    @property
    def z(self) -> complex:
        return self.x + self.y * self.tau

    def inverse(self) -> "TorusTranslation":
        return TorusTranslation(self.tau, -self.x, -self.y)


def translation_compose(t1: TorusTranslation, t2: TorusTranslation) -> TorusTranslation:
    """Group law on one fiber: add lattice coordinates mod 1."""
    if not within(t1.tau - t2.tau):
        raise MismatchedFiberError(
            f"translations live on different fibers: {t1.tau!r} vs {t2.tau!r}"
        )
    return TorusTranslation(t1.tau, t1.x + t2.x, t1.y + t2.y)
