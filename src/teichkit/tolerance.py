"""One comparison tolerance, carried in a context.

Every approximate comparison in the library reads the tolerance in force
through :func:`resolve`, so floating noise is handled in one place.  The
value lives in a :class:`contextvars.ContextVar` (PEP 567) whose default is
``DEFAULT_EPS``.  ``with tolerance(eps):`` puts ``eps`` in force for the
block, value-object constructors included, and restores the outer value on
exit, also when the block raises.  The value is per thread: a new thread
starts at ``DEFAULT_EPS``, whatever is in force in the thread that started
it.  The CLI runs each command inside one such block, with the value of
``--eps`` or ``TEICHKIT_EPS`` when either is given.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

DEFAULT_EPS = 1e-9

_EPS = contextvars.ContextVar("teichkit_eps", default=DEFAULT_EPS)


@contextlib.contextmanager
def tolerance(eps: float):
    """Compare within ``eps``, a positive finite real, inside the block."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite real, got {eps!r}")
    token = _EPS.set(eps)
    try:
        yield eps
    finally:
        _EPS.reset(token)


def resolve() -> float:
    """The tolerance in force."""
    return _EPS.get()


# a second name for the same function; callers read the tolerance in force by it
default_eps = resolve
