"""One comparison tolerance, carried in a context, and the one way to compare.

Every approximate decision calls :func:`within`, :func:`inside_unit`,
:func:`below` or :func:`above`, so floating noise is handled in one place.
The value lives in a :class:`contextvars.ContextVar` (PEP 567) whose default
is ``DEFAULT_EPS``.  ``with tolerance(eps):`` puts ``eps`` in force for the
block, value-object constructors included, and restores the outer value on
exit, also when the block raises.  The value is per thread: a new thread
starts at ``DEFAULT_EPS``, whatever is in force in the thread that started
it.  The CLI runs each command inside one such block, with the value of
``--eps`` or ``TEICHKIT_EPS`` when either is given.
"""

from __future__ import annotations

import contextvars
import math
import sys
import types

DEFAULT_EPS = 1e-9

_EPS = contextvars.ContextVar("teichkit_eps", default=DEFAULT_EPS)


def checked_eps(eps) -> float:
    """``eps`` as a float; ValueError unless it is a positive finite real."""
    try:
        value = float(eps)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"eps must be a positive finite real, got {eps!r}")
    return value


class _Block:
    """The block :func:`tolerance` returns: entering it checks eps and puts it
    in force, leaving it restores the outer value, also when the block raises."""

    __slots__ = ("_eps", "_token")

    def __init__(self, eps) -> None:
        self._eps = eps

    def __enter__(self) -> float:
        eps = checked_eps(self._eps)
        self._token = _EPS.set(eps)
        return eps

    def __exit__(self, *exc_info) -> None:
        _EPS.reset(self._token)


def tolerance(eps: float) -> _Block:
    """Compare within ``eps``, a positive finite real, inside the block; checked on entry."""
    return _Block(eps)


class _Module(types.ModuleType):
    """This module, callable as :func:`tolerance`: ``teichkit.tolerance`` is the
    module, and ``teichkit.tolerance(eps)`` still opens a block."""

    __call__ = staticmethod(tolerance)


sys.modules[__name__].__class__ = _Module


def resolve() -> float:
    """The tolerance in force."""
    return _EPS.get()


def within(x: complex, scale: float = 1.0) -> bool:
    """Whether ``|x| <= eps * scale``: x is zero at the given scale; a modulus past float range is within no bound."""
    try:
        return abs(x) <= resolve() * scale
    except OverflowError:  # finite parts whose modulus abs() cannot hold
        return False


def inside_unit(z: complex) -> bool:
    """Whether ``|z|`` lies in the open band (eps, 1 - eps); a modulus past float range does not."""
    eps = resolve()
    try:
        return eps < abs(z) < 1.0 - eps
    except OverflowError:  # finite parts whose modulus abs() cannot hold
        return False


def below(x: float, y: float) -> bool:
    """Whether ``x < y - eps``: x lies below y by more than eps."""
    return x < y - resolve()


def above(x: float, y: float) -> bool:
    """Whether ``x > y + eps``: x lies above y by more than eps."""
    return x > y + resolve()
