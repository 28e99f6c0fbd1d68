"""Exact quadratic irrationals (p + sqrt(d)) / q and their continued fractions.

The representation keeps the classical expansion invariant q | d - p**2,
restored on construction by the scaling (p, q, d) -> (p|q|, q|q|, d*q**2).
Equality and hashing go through the canonical integer minimal polynomial
plus the branch sign, so differently scaled representations of one number
compare equal.  Everything in this module is exact integer arithmetic; no
floats enter any decision.

By Galois' theorem (Perron, Kettenbrueche, section 23; Cohen, section 5.7)
(p + sqrt(d)) / q is purely periodic iff reduced: > 1, conjugate in (-1, 0),
that is 0 <= s - p < q <= s + p with s = isqrt(d).  The preperiod runs to the
first reduced state, the period until that state comes back.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from .algebra import IntMatrix2, Value, _ensure_int
from .errors import InvalidInputError, LimitExceededError, SingularMatrixError

# Most partial quotients expanded while looking for the period.  The period
# of sqrt(d) can be O(sqrt(d) log d) terms long, so a valid large d can
# exceed it.
_MAX_CF_STEPS = 100_000


class QuadraticIrrational(Value):
    """The real number (p + sqrt(d)) / q with d a positive non-square.

    Equal numbers are equal however they are written: equality and hash go
    by canonical_key, not by the fields.
    """

    p: int
    q: int
    d: int

    def __init__(self, p: int, q: int, d: int) -> None:
        p, q, d = _ensure_int(p, "p"), _ensure_int(q, "q"), _ensure_int(d, "d")
        if q == 0:
            raise InvalidInputError("denominator q must be nonzero")
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise InvalidInputError(f"d must be a positive non-square, got {d}")
        if (d - p * p) % q != 0:
            scale = abs(q)
            p, q, d = p * scale, q * scale, d * scale * scale
        self.__dict__.update(p=p, q=q, d=d)

    def canonical_key(self) -> tuple[int, int, int, int]:
        """(a, b, c, s): content-1 minimal polynomial a*x**2 + b*x + c with
        a > 0, plus the sign of the sqrt branch.  Equal numbers share keys."""
        return _key(self.p, self.q, self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticIrrational):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __float__(self) -> float:
        return (self.p + math.sqrt(self.d)) / self.q

    def __floor__(self) -> int:
        # sqrt(d) is in (s, s + 1), s = isqrt(d), so for q < 0 the floor is that of (p + s + 1) / q
        return (self.p + math.isqrt(self.d) + (self.q < 0)) // self.q


def _key(p: int, q: int, d: int) -> tuple[int, int, int, int]:
    """canonical_key of the state (p, q, d), which must satisfy q | d - p**2
    so that QuadraticIrrational(p, q, d) stores it unscaled."""
    a = q * q
    b = -2 * p * q
    c = p * p - d
    g = math.gcd(a, b, c)
    return (a // g, b // g, c // g, 1 if q > 0 else -1)


def _first_reduced(x: QuadraticIrrational) -> tuple[list[int], int, int, int]:
    """(quotients, p, q, s): x's preperiod, first reduced state and isqrt(d).
    p' = a*q - p keeps d - p'**2 = d - p**2 mod q, so each q' = (d - p'**2) / q is exact."""
    p, q, d, s = x.p, x.q, x.d, math.isqrt(x.d)
    quotients = []
    for _ in range(_MAX_CF_STEPS + 1):
        if 0 <= s - p < q <= s + p:
            return quotients, p, q, s
        a = (p + s + (q < 0)) // q  # the floor, as in __floor__
        p = a * q - p
        q = (d - p * p) // q
        quotients.append(a)
    raise LimitExceededError(f"continued fraction does not repeat within {_MAX_CF_STEPS} partial quotients")


def _period(d: int, quotients: list[int], p: int, q: int, s: int) -> Iterator[tuple[int, int, int]]:
    """Each state (p, q) of one period, q > 0, with its partial quotient, from
    _first_reduced's (quotients, p, q, s) of a surd with radicand d.  Refuses
    when the period is not closed within _MAX_CF_STEPS + 1 quotients, the
    preperiod's included; a caller that stops early is not refused."""
    p0, q0 = p, q
    for _ in range(_MAX_CF_STEPS + 1 - len(quotients)):
        a = (p + s) // q
        yield p, q, a
        p = a * q - p
        q = (d - p * p) // q
        if q == q0 and p == p0:
            return
    raise LimitExceededError(f"continued fraction does not repeat within {_MAX_CF_STEPS} partial quotients")


def _equivalent(x: QuadraticIrrational, y: QuadraticIrrational) -> bool:
    """Whether x and y share a continued-fraction tail: unequal discriminants of
    their keys say no, else x's cycle is walked until it meets y's first reduced
    state.  A cycle state (p, q) has key (q, -2*p, (p*p - d) / q) / g, and no step
    changes the content g = |q| / a; the discriminant fixes the third entry."""
    a, b, c, _ = _key(x.p, x.q, x.d)
    e, f, h, _ = _key(y.p, y.q, y.d)
    if b * b - 4 * a * c != f * f - 4 * e * h:
        return False
    gx, gy = abs(x.q) // a, abs(y.q) // e
    _, p, q, _ = _first_reduced(y)
    return (p * gx, q * gx) in ((u * gy, v * gy) for u, v, _ in _period(x.d, *_first_reduced(x)))


def moebius_surd(m: IntMatrix2, x: QuadraticIrrational) -> QuadraticIrrational:
    """Exact image (a*x + b) / (c*x + d) of a quadratic irrational under an
    integer matrix with nonzero determinant."""
    det = m.det()
    if det == 0:
        raise SingularMatrixError("moebius transform requires det != 0")
    p, q, disc = x.p, x.q, x.d
    top = m.a * p + m.b * q
    bot = m.c * p + m.d * q
    u = top * bot - m.a * m.c * disc
    v = det * q
    w = bot * bot - m.c * m.c * disc
    # w = 0 would force sqrt(disc) rational, impossible for non-square disc
    sign = 1 if v > 0 else -1
    return QuadraticIrrational(sign * u, sign * w, v * v * disc)
