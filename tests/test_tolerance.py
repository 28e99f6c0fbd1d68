"""The tolerance context: scoping, threads, validation, its only entry point,
and the comparisons made against it, planted at the decision boundary."""

import ast
import inspect
import io
import json
import re
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import teichkit
import test_cli
from teichkit import DEFAULT_EPS, Diagonal, Matrix2C, algebra, atlas, classify, foliation, hopf, teich, tori
from teichkit.cli import dispatch
from teichkit.errors import InvalidInputError, MismatchedFiberError, NotOnCircleError, SingularMatrixError
from teichkit.tolerance import above, below, inside_unit, resolve, tolerance, within


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


@pytest.mark.parametrize("eps", [0, -1, float("nan"), float("inf"), "x"])
def test_invalid_values_rejected(eps):
    block = tolerance(eps)  # the call only builds the block; entering it checks eps
    with pytest.raises(ValueError, match=rf"^eps must be a positive finite real, got {re.escape(repr(eps))}$"):
        with block:
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


def test_tolerance_is_read_only_where_allowed():
    # Every decision goes through within, inside_unit, below or above.
    # Outside tolerance.py the value in force is read only by the CLI, which
    # hands the caller's value on without comparing.
    allowed = {"cli.dispatch"}
    names = {"resolve", "_EPS"}
    reads = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if getattr(child, "id", None) in names or getattr(child, "attr", None) in names:
                reads.add(scope)
            visit(child, scope)

    for path in sorted(Path(teichkit.__file__).parent.glob("*.py")):
        if path.stem != "tolerance":
            visit(ast.parse(path.read_text()), path.stem)
    assert reads == allowed


# Boundary oracles.  eps = 2**-20, and every planted offset is dyadic, so the
# quantity each decision compares is exactly 0.5, 1 or 2 times eps * scale:
# the 1x case lies on the boundary and passes, since the test is <=.
EPS = 2.0**-20
OFFSETS = [(0.5, True), (1.0, True), (2.0, False)]


@pytest.fixture
def boundary_eps():
    with tolerance(EPS):
        yield EPS


@pytest.mark.parametrize("factor, passes", OFFSETS)
@pytest.mark.parametrize("scale", [1.0, 3.0, 100.0])
def test_within_at_the_boundary(boundary_eps, factor, passes, scale):
    off = factor * EPS * scale
    assert within(off, scale) is passes
    assert within(-off, scale) is passes
    assert within(off * 1j, scale) is passes


def test_within_zero_at_scale_zero(boundary_eps):
    assert within(0.0, 0.0)
    assert not within(2.0**-1074, 0.0)


@pytest.mark.parametrize("factor, inside", [(0.5, False), (1.0, False), (2.0, True)])
def test_inside_unit_is_open_on_both_ends(boundary_eps, factor, inside):
    assert inside_unit(factor * EPS) is inside
    assert inside_unit(1.0 - factor * EPS) is inside


def test_inside_unit_takes_the_value():
    assert inside_unit(-0.3 + 0.4j) and not inside_unit(0.6 + 0.8j)
    # both parts are finite, but the modulus is past float range
    assert not inside_unit(complex(1.3e308, 1.3e308))


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_order_by_modulus_ties_within_eps(boundary_eps, factor, tie):
    # a tie sorts by argument, so 0.5 (arg 0) comes before -(0.5 + d) (arg pi)
    small, big = 0.5 + 0j, -(0.5 + factor * EPS) + 0j
    want = (small, big) if tie else (big, small)
    assert algebra.order_by_modulus(small, big) == want
    assert algebra.order_by_modulus(big, small) == want


@pytest.mark.parametrize("factor, equal", OFFSETS)
def test_eigen2_both_decisions(boundary_eps, factor, equal):
    d = factor * EPS
    # eigenvalues 0.5 + d and 0.5, exactly: distinct beyond eps is diagonalizable
    l1, l2, flag = algebra.eigen2(Matrix2C(0.5 + d, 1.0, 0.0, 0.5))
    assert (l1, l2) == (0.5 + d, 0.5)
    assert flag is not equal
    # a double eigenvalue 0.5: diagonalizable when within eps of the scalar matrix
    assert algebra.eigen2(Matrix2C(0.5, d, 0.0, 0.5)) == (0.5, 0.5, equal)


@pytest.mark.parametrize("factor, equal", OFFSETS)
def test_class_equal_at_the_boundary(boundary_eps, factor, equal):
    d = factor * EPS
    assert hopf.class_equal(Diagonal(0.5, 0.25), Diagonal(0.5, 0.25 + d)) is equal
    assert hopf.class_equal(Diagonal(0.5 + d, 0.25), Diagonal(0.5, 0.25)) is equal
    assert hopf.class_equal(hopf.Resonant(0.5, 2), hopf.Resonant(0.5 + d, 2)) is equal


@pytest.mark.parametrize("factor, equal", OFFSETS)
def test_points_equal_and_separated_at_the_boundary(boundary_eps, factor, equal):
    d = factor * EPS
    # (det, trace) = (0.125, 0.75) has roots 0.5 and 0.25, and is the image of
    # the order-2 curve point at 0.5
    base = teich.BasePoint(0.125, 0.75)
    assert teich.points_equal(base, teich.BasePoint(0.125 + d, 0.75)) is equal
    assert teich.points_equal(base, teich.BasePoint(0.125, 0.75 - d)) is equal
    curve = teich.CurvePoint(2, 0.5)
    assert teich.points_equal(curve, teich.CurvePoint(2, 0.5 - d)) is equal
    assert teich.separated(curve, teich.BasePoint(0.125 + d, 0.75)) is not equal
    assert teich.separated(teich.BasePoint(0.125, 0.75 + d), curve) is not equal


@pytest.mark.parametrize("factor, same", OFFSETS)
def test_translation_compose_fiber_test(boundary_eps, factor, same):
    t1 = tori.TorusTranslation(1j, 0.25, 0.5)
    t2 = tori.TorusTranslation(factor * EPS + 1j, 0.5, 0.25)
    if same:
        got = tori.translation_compose(t1, t2)
        assert (got.tau, got.x, got.y) == (1j, 0.75, 0.75)
    else:
        with pytest.raises(MismatchedFiberError):
            tori.translation_compose(t1, t2)


@pytest.mark.parametrize("factor, on_circle", OFFSETS)
def test_rotation_orbit_circle_test(boundary_eps, factor, on_circle):
    z0 = 1.0 + factor * EPS
    if on_circle:
        assert foliation.rotation_orbit(z0, Fraction(1, 2), 2)[0] == z0
    else:
        with pytest.raises(NotOnCircleError):
            foliation.rotation_orbit(z0, Fraction(1, 2), 2)


@pytest.mark.parametrize("factor, equivalent", OFFSETS)
def test_tori_equivalent_at_scale_100(boundary_eps, factor, equivalent):
    # 2i is interior to the fundamental domain, so both reductions are exact
    # and the compared difference is the planted offset
    got = tori.tori_equivalent(2j, factor * 100.0 * EPS + 2j)
    assert (got == tori.IntMatrix2.identity()) if equivalent else got is None


@pytest.mark.parametrize("s", [2.0**-10, 1.0, 2.0**10])
@pytest.mark.parametrize("factor, singular", [(0.5, True), (2.0, False)])
def test_group_element_det_is_relative(boundary_eps, s, factor, singular):
    # [[s, s], [s, s(1 + off)]] has det s*s*off and scale |ad| + |bc| about
    # 2*s*s, so off = factor * 2 * eps plants the det near factor times
    # eps * scale, whatever s is; an absolute test would move with s
    off = factor * 2.0 * EPS
    m = Matrix2C(s, s, s, s * (1.0 + off))
    assert m.det == s * s * off
    if singular:
        with pytest.raises(SingularMatrixError):
            atlas.GroupElement(m, 0)
    else:
        assert atlas.GroupElement(m, 0).a == m


# One-sided margins: x lies below y only when x < y - eps, so at 0.5 and 1
# times eps nothing is decided and at 2 times eps the call decides.
@pytest.mark.parametrize("factor, tie", OFFSETS)
@pytest.mark.parametrize("y", [0.0, 0.5, 1.0])
def test_below_and_above_are_strict_past_eps(boundary_eps, factor, tie, y):
    off = factor * EPS
    assert below(y - off, y) is not tie
    assert above(y + off, y) is not tie
    assert not below(y + off, y)
    assert not above(y - off, y)


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_diagonal_order_margin(boundary_eps, factor, tie):
    l1 = 0.5 - factor * EPS
    if tie:
        assert Diagonal(l1, 0.5).lambda1 == l1
    else:
        with pytest.raises(InvalidInputError, match="descending order"):
            Diagonal(l1, 0.5)


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_resonance_order_modulus_margin(boundary_eps, factor, tie):
    small = 0.5 + factor * EPS
    if tie:
        assert hopf.resonance_order(0.5, small) == 1
    else:
        with pytest.raises(InvalidInputError, match="expected 0 < "):
            hopf.resonance_order(0.5, small)


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_reduce_glues_the_arc_past_eps(boundary_eps, factor, tie):
    # |x + i| rounds to within eps of 1, so only Re > eps crosses to Re <= 0
    tau = factor * EPS + 1j
    if tie:
        assert tori.reduce_fundamental_domain(tau) == (tau, tori.IntMatrix2.identity())
    else:
        assert tori.reduce_fundamental_domain(tau) == (-1.0 / tau, tori.S)


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_reduce_moves_the_right_edge_within_eps(boundary_eps, factor, tie):
    tau = (0.5 - factor * EPS) + 2j
    if tie:
        assert tori.reduce_fundamental_domain(tau) == (tau - 1, tori.IntMatrix2(1, -1, 0, 1))
    else:
        assert tori.reduce_fundamental_domain(tau) == (tau, tori.IntMatrix2.identity())


@pytest.mark.parametrize("factor, tie", OFFSETS)
def test_reduce_inverts_only_past_eps(boundary_eps, factor, tie):
    tau = 1j * (1.0 - factor * EPS)
    if tie:
        assert tori.reduce_fundamental_domain(tau) == (tau, tori.IntMatrix2.identity())
    else:
        assert tori.reduce_fundamental_domain(tau) == (-1.0 / tau, tori.S)
