"""The tolerance context: scoping, threads, validation, and its only entry point."""

import inspect
import io
import json
import threading

import pytest

import test_cli
from teichkit import DEFAULT_EPS, Diagonal, Matrix2C, algebra, atlas, classify, foliation, hopf, teich, tori
from teichkit.cli import dispatch
from teichkit.tolerance import resolve, tolerance


def test_nested_blocks_restore_the_outer_value():
    with tolerance(1e-3) as outer:
        assert outer == resolve() == 1e-3
        with tolerance(1e-6):
            assert resolve() == 1e-6
        assert resolve() == 1e-3
    assert resolve() == DEFAULT_EPS


def test_outer_value_restored_when_the_block_raises():
    with tolerance(1e-3):
        with pytest.raises(ZeroDivisionError):
            with tolerance(1e-6):
                1 / 0
        assert resolve() == 1e-3
    assert resolve() == DEFAULT_EPS


def test_inner_block_reaches_the_value_constructors():
    # Diagonal's own range check reads the same tolerance as classify: at 1e-2
    # the modulus 0.9995 lies in the guard band, at 1e-12 it does not
    m = Matrix2C(0.9995, 0, 0, 0.5)
    with tolerance(1e-2):
        with tolerance(1e-12):
            assert classify(m) == Diagonal(0.9995, 0.5)


def test_new_thread_starts_at_the_default():
    seen = []
    with tolerance(1e-3):
        worker = threading.Thread(target=lambda: seen.append(resolve()))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [DEFAULT_EPS]


@pytest.mark.parametrize("eps", [0, -1, float("nan"), float("inf")])
def test_invalid_values_rejected(eps):
    with pytest.raises(ValueError):
        with tolerance(eps):
            pass
    assert resolve() == DEFAULT_EPS


def test_dispatch_inherits_the_callers_tolerance(monkeypatch):
    monkeypatch.delenv("TEICHKIT_EPS", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with tolerance(0.2):
        assert dispatch(test_cli.TestEpsControls.ARGS, out, err) == 0
        assert resolve() == 0.2
    assert json.loads(out.getvalue()) == {"in_domain": False}


def _public_routines(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in inspect.getmembers(obj, inspect.isroutine):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", [algebra, hopf, teich, tori, foliation, atlas], ids=lambda m: m.__name__)
def test_no_public_callable_takes_eps(module):
    routines = dict(_public_routines(module))
    assert routines
    takes_eps = [name for name, obj in routines.items() if "eps" in inspect.signature(obj).parameters]
    assert takes_eps == []
