"""Classification of Hopf surfaces from contraction data.

Input is either an invertible contracting linear map (a 2x2 matrix) or an
explicit resonant normal form (z, w) -> (lam*z + c*w**p, lam**p * w).  The
biholomorphism class is either Diagonal(l1, l2), moduli descending, or
Resonant(lam, p); p = 1 is the linear non-diagonalizable (Jordan) case.

Resonance convention: the eigenvalue of larger modulus raised to the p-th
power equals the smaller one.  For moduli below one this is the only
direction a resonance can hold for p >= 2, and it matches the normal form
whose eigenvalues are (lam, lam**p).
"""

from __future__ import annotations

import math

from .algebra import Matrix2C, Value, _ensure_int, _roots, eigen2, ensure_finite, order_by_modulus
from .errors import InvalidInputError, NotContractingError
from .tolerance import above, below, inside_unit, within

# |lam|**p reaches any sensible tolerance long before this cap
RESONANCE_MAX_ORDER = 64


class ResonantForm(Value):
    """The germ (z, w) -> (lam*z + c*w**p, lam**p * w)."""

    lam: complex
    p: int
    c: complex

    def __init__(self, lam: complex, p: int, c: complex = 1.0) -> None:
        lam = ensure_finite(lam, "lam")
        c = ensure_finite(c, "c")
        self.__dict__.update(lam=lam, p=_ensure_int(p, "p", positive=True), c=c)


ContractionInput = Matrix2C | ResonantForm


def _contracting(l1: complex, l2: complex) -> bool:
    """The one contraction test: both root moduli in (0, 1), with an eps guard band."""
    return inside_unit(abs(l1)) and inside_unit(abs(l2))


class Diagonal(Value):
    """Class of the diagonal surface with eigenvalues (lambda1, lambda2)."""

    lambda1: complex
    lambda2: complex

    def __init__(self, lambda1: complex, lambda2: complex) -> None:
        l1 = ensure_finite(lambda1, "lambda1")
        l2 = ensure_finite(lambda2, "lambda2")
        if not _contracting(l1, l2):
            raise InvalidInputError("eigenvalue moduli must lie strictly inside (0, 1)")
        if below(abs(l1), abs(l2)):
            raise InvalidInputError("Diagonal expects moduli in descending order")
        self.__dict__.update(lambda1=l1, lambda2=l2)


class Resonant(Value):
    """Class of the resonant model of order p with leading eigenvalue lam."""

    lam: complex
    p: int

    def __init__(self, lam: complex, p: int) -> None:
        lam = ensure_finite(lam, "lam")
        if not inside_unit(abs(lam)):
            raise InvalidInputError("lam modulus must lie strictly inside (0, 1)")
        self.__dict__.update(lam=lam, p=_ensure_int(p, "p", positive=True))


HopfClass = Diagonal | Resonant


def is_contracting(m: Matrix2C) -> bool:
    """Both eigenvalue moduli strictly inside (0, 1), with an eps guard band
    on either end (also excludes non-invertible matrices).

    The decision needs only the two moduli, so it takes the roots from
    algebra._roots: eigen2's eigenvalues, without eigen2's canonical order
    and diagonalizability tests.  The answer is the one eigen2's moduli give.
    """
    return _contracting(*_roots(m.a * m.d - m.b * m.c, m.a + m.d))


def resonance_order(lambda_big: complex, lambda_small: complex) -> int | None:
    """The unique p >= 1 with lambda_big**p = lambda_small, or None.

    |lambda_big|**p is strictly decreasing, so the modulus ratio pins down
    the single candidate; one closed-form guess plus one complex
    verification decides, capped at p <= 64.
    """
    lambda_big = ensure_finite(lambda_big, "lambda_big")
    lambda_small = ensure_finite(lambda_small, "lambda_small")
    try:
        b, s = abs(lambda_big), abs(lambda_small)
    except OverflowError:  # finite parts whose modulus is past float range; hypot gives inf
        what = "lambda_big" if math.hypot(lambda_big.real, lambda_big.imag) == math.inf else "lambda_small"
        raise InvalidInputError(f"{what} modulus is past float range") from None
    if not 0.0 < b < 1.0:
        raise InvalidInputError("lambda_big modulus must lie strictly inside (0, 1)")
    if s <= 0.0 or above(s, b):
        raise InvalidInputError("expected 0 < |lambda_small| <= |lambda_big|")
    if within(b - s):
        candidate = 1
    else:
        candidate = round(math.log(s) / math.log(b))
    if not 1 <= candidate <= RESONANCE_MAX_ORDER:
        return None
    return candidate if within(lambda_big**candidate - lambda_small) else None


def classify(data: ContractionInput) -> HopfClass:
    """Biholomorphism class of the Hopf surface of a contraction.

    Linear and diagonalizable gives Diagonal; linear with a Jordan block
    gives Resonant(lam, 1).  A resonant form with c = 0 is linear diagonal
    with eigenvalues (lam, lam**p); with c != 0 the class is Resonant(lam, p)
    independently of c (conjugating by (z, w) -> (c*z, w) rescales c to 1).
    A matrix's roots are solved once, by eigen2, and tested by _contracting,
    as is_contracting tests them; a class decided here is built unchecked.
    """
    if isinstance(data, Matrix2C):
        l1, l2, diagonalizable = eigen2(data)
        if not _contracting(l1, l2):
            raise NotContractingError("matrix eigenvalue moduli must lie in (0, 1)")
        if diagonalizable:
            return Diagonal._of(l1, l2)
        return Resonant._of(l1, 1)
    if isinstance(data, ResonantForm):
        if not inside_unit(abs(data.lam)):
            raise NotContractingError("resonant form requires 0 < |lam| < 1")
        if within(data.c):  # |lam**p| may fall below the band, so Diagonal decides
            try:
                small = data.lam**data.p
            except OverflowError:  # p past float range, where |lam| < 1 makes lam**p 0
                small = 0j
            big, small = order_by_modulus(data.lam, small)
            return Diagonal(big, small)
        return Resonant._of(data.lam, data.p)
    raise InvalidInputError(f"unsupported contraction input {data!r}")


def class_equal(a: HopfClass, b: HopfClass) -> bool:
    """Whether two classes are one within eps.  A Diagonal class is an unordered
    pair: either pairing of the eigenvalues may match, each pair within eps, as
    the canonical order jumps where an argument crosses 0 at a modulus tie."""
    if isinstance(a, Diagonal) and isinstance(b, Diagonal):
        x, y = b.lambda1, b.lambda2
        return within(a.lambda1 - x) and within(a.lambda2 - y) or within(a.lambda1 - y) and within(a.lambda2 - x)
    if isinstance(a, Resonant) and isinstance(b, Resonant):
        return a.p == b.p and within(a.lam - b.lam)
    return False


def biholomorphic(a: ContractionInput, b: ContractionInput) -> bool:
    """Whether two contractions define biholomorphic Hopf surfaces."""
    return class_equal(classify(a), classify(b))
