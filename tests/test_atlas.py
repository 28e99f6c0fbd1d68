"""Twisted group, atlas actions, and the randomized groupoid checker."""

import cmath
import io
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichkit import (
    AtlasPoint,
    AtlasStructure,
    GroupElement,
    InvalidInputError,
    Matrix2C,
    NotContractingError,
    SingularMatrixError,
    broken_structure,
    g_identity,
    g_inverse,
    g_mul,
    g_power,
    groupoid_check,
    source,
    structure_by_name,
    target,
    trivial_structure,
    z_action,
)
from teichkit import atlas, tolerance
from teichkit.cli import dispatch
from teichkit.tolerance import within
from oracles import exact_matrix_power, exact_twisted_power

DIAG21 = Matrix2C.diag(2.0, 1.0)
SHEAR = GroupElement(Matrix2C(1.0, 1.0, 0.0, 1.0), 1.0)
M_SAMPLE = AtlasPoint(Matrix2C.diag(0.5, 0.25), 1 + 2j)


def g_close(x: GroupElement, y: GroupElement, tol: float = 1e-9) -> bool:
    """Whether the largest twist or entry difference is at most tol."""
    with tolerance(tol):
        return within(max(abs(x.t - y.t), *(abs(u - v) for u, v in zip(x.a.entries(), y.a.entries()))))


def random_group_element(rng: random.Random) -> GroupElement:
    while True:
        a = Matrix2C(*(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)))
        if abs(a.det) >= 0.2:
            return GroupElement(a, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))


def near_unit_group_element(rng: random.Random) -> GroupElement:
    """A well-conditioned element whose eigenvalue moduli lie in [0.9, 1.1],
    so its powers up to |p| = 40 stay far from overflow and singularity."""
    lam1 = cmath.rect(rng.uniform(0.9, 1.1), rng.uniform(0.0, 2.0 * cmath.pi))
    lam2 = cmath.rect(rng.uniform(0.9, 1.1), rng.uniform(0.0, 2.0 * cmath.pi))
    while True:
        basis = Matrix2C(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)))
        if abs(basis.det) >= 0.4:
            break
    a = basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())
    return GroupElement(a, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))


def fold_power(x: GroupElement, p: int) -> GroupElement:
    """Reference x**p: |p| multiplications folded from the left."""
    base = x if p >= 0 else g_inverse(x)
    acc = g_identity()
    for _ in range(abs(p)):
        acc = g_mul(acc, base)
    return acc


class TestGroupElements:
    def test_rejects_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            GroupElement(Matrix2C(1.0, 2.0, 2.0, 4.0), 0j)

    def test_atlas_point_needs_contraction(self):
        with pytest.raises(NotContractingError):
            AtlasPoint(Matrix2C.diag(2.0, 0.5), 0j)

    @pytest.mark.parametrize("kind", [GroupElement, AtlasPoint])
    def test_matrix_part_must_be_a_matrix2c(self, kind):
        with pytest.raises(InvalidInputError, match="^matrix part must be Matrix2C, got tuple$"):
            kind((0.5, 0.0, 0.0, 0.25), 0j)

    def test_twisted_product(self):
        x = GroupElement(DIAG21, 3.0)
        y = GroupElement(Matrix2C.identity(), 5.0)
        assert g_mul(x, y).t == 13.0  # 3 + 5 * det(diag(2,1))
        assert g_mul(y, x).t == 8.0   # 5 + 3 * det(identity)

    def test_identity(self):
        e = g_identity()
        x = GroupElement(DIAG21, 3.0)
        assert g_close(g_mul(e, x), x) and g_close(g_mul(x, e), x)

    def test_inverse_closed_form(self):
        x = GroupElement(DIAG21, 3.0)
        inv = g_inverse(x)
        assert inv.a.entries() == (0.5, 0.0, 0.0, 1.0)
        assert inv.t == -1.5

    def test_power(self):
        x = GroupElement(DIAG21, 3.0)
        assert g_close(g_power(x, 0), g_identity())
        assert g_close(g_power(x, 3), g_mul(x, g_mul(x, x)))
        assert g_close(g_power(x, -2), g_inverse(g_mul(x, x)), tol=1e-9)
        with pytest.raises(InvalidInputError):
            g_power(x, 1.5)

    @pytest.mark.parametrize("p", [0, 1, -1, 2, -2, 3, -3, 255, -255, 256, -256, 257, -257, 10**6, 2**40])
    def test_power_shear_oracle(self, p):
        # (S, 1)**p = ([[1, p], [0, 1]], p) exactly, since det S = 1
        got = g_power(SHEAR, p)
        assert got.a.entries() == (1, p, 0, 1)
        assert got.t == p

    @given(st.integers(min_value=0, max_value=10**6), st.integers(-40, 40))
    @settings(max_examples=150)
    def test_power_matches_left_fold(self, seed, p):
        x = near_unit_group_element(random.Random(seed))
        want = fold_power(x, p)
        scale = max(1.0, *map(abs, want.a.entries()), abs(want.t))
        assert g_close(g_power(x, p), want, tol=1e-6 * scale)

    @pytest.mark.parametrize("p", [0, 1, -1, 3, -7, 256, -257, 10**6, 2**40, 2**1000 - 1])
    def test_power_takes_logarithmic_steps(self, monkeypatch, p):
        calls = []

        def counting_mul(x, y):
            calls.append(None)
            return g_mul(x, y)

        monkeypatch.setattr(atlas, "g_mul", counting_mul)
        g_power(GroupElement(Matrix2C.identity(), 1.0), p)
        assert len(calls) <= 2 * p.bit_length() + 1

    @pytest.mark.parametrize("seed", range(120))
    def test_power_matches_exact_oracle(self, seed):
        # dyadic entries and twist: ad - bc is exact, so only the products round
        rng = random.Random(seed)
        while True:
            a = Matrix2C(*(complex(rng.randrange(-8, 9) / 4, rng.randrange(-8, 9) / 4) for _ in range(4)))
            if a.det != 0:
                break
        t = complex(rng.randrange(-8, 9) / 4, rng.randrange(-8, 9) / 4)
        p = rng.randint(-64, 64)
        got = g_power(GroupElement(a, t), p)
        want_t, want_det = exact_twisted_power(a, t, p)
        # for p < 0, 1/det a is rounded once and the power multiplies that
        # relative error by |p|: allow 4 units of roundoff per factor
        rel = 1e-14 if p >= 0 else 1e-14 + abs(p) * 4 * 2.0**-53
        assert abs(got.t - want_t) <= rel * abs(want_t)
        assert abs(got._det - want_det) <= rel * abs(want_det)

    def test_power_carries_an_exact_small_det(self):
        # det 1/4, so the 16th power has det 2**-32, exact; the quotient
        # |ad - bc| / (|ad| + |bc|) of its entries is far below eps
        x = g_power(GroupElement(Matrix2C(0.75, 0.5, 0.25, 0.5), 1), 16)
        assert x._det == 2.0**-32
        ad, bc = x.a.a * x.a.d, x.a.b * x.a.c
        assert abs(ad - bc) < 1e-9 * (abs(ad) + abs(bc))

    def test_product_det_is_carried(self):
        x, y = GroupElement(DIAG21, 3.0), GroupElement(Matrix2C(0.0, 1.0, -4.0, 0.0), 1j)
        assert g_mul(x, y)._det == 8 and g_mul(y, x)._det == 8
        assert g_inverse(x)._det == 0.5 and g_identity()._det == 1

    @pytest.mark.parametrize("k", [-600, 600])
    def test_det_past_float_range_is_invalid_input(self, k):
        # diag(2**k, 2**k) is finite, but its det 2**(2k) underflows to 0 or overflows
        x, y = GroupElement(Matrix2C.diag(2.0**k, 1.0), 0j), GroupElement(Matrix2C.diag(1.0, 2.0**k), 0j)
        with pytest.raises(InvalidInputError, match="cannot be represented"):
            g_mul(x, y)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_associative(self, seed):
        rng = random.Random(seed)
        x, y, z = (random_group_element(rng) for _ in range(3))
        assert g_close(g_mul(g_mul(x, y), z), g_mul(x, g_mul(y, z)), tol=1e-7)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_two_sided_inverse(self, seed):
        x = random_group_element(random.Random(seed))
        assert g_close(g_mul(x, g_inverse(x)), g_identity(), tol=1e-7)
        assert g_close(g_mul(g_inverse(x), x), g_identity(), tol=1e-7)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=150)
    def test_power_additive(self, seed, p, q):
        x = random_group_element(random.Random(seed))
        if not 0.3 <= abs(x.a.det) <= 3.0:
            return
        assert g_close(g_mul(g_power(x, p), g_power(x, q)), g_power(x, p + q), tol=1e-5)


class TestInverseCarriesDet:
    """g_inverse divides the adjugate by the carried det and tests no
    singularity of its own."""

    def test_exact_small_det_is_invertible(self):
        # det 2**-30 is below the absolute eps, but exact
        x = g_inverse(GroupElement(Matrix2C.diag(2.0**-15, 2.0**-15), 0))
        assert x.a.entries() == (2.0**15, 0, 0, 2.0**15) and x._det == 2.0**30

    def test_inverse_of_a_power_carries_its_det(self):
        x = g_inverse(g_power(GroupElement(Matrix2C(0.75, 0.5, 0.25, 0.5), 1), 16))
        assert x._det == 2.0**32

    def test_inverse_of_a_near_rank_one_power_is_accurate(self):
        # the det recomputed from the entries of x**10 has lost about 1e-12
        # relative accuracy; the carried det has not
        a = Matrix2C(0.7, 0.3, 0.2, 0.45)
        got = g_inverse(g_power(GroupElement(a, 1), 10)).a.entries()
        for z, want in zip(got, exact_matrix_power(a, -10)):
            assert abs(z - want) <= 2e-15 * abs(want)

    def test_unrepresentable_inverse_is_invalid_input(self):
        # det 1e-10 is accurate, but d / det is past float range
        with pytest.raises(InvalidInputError, match="must be finite"):
            g_inverse(GroupElement(Matrix2C(1e-310, 0.0, 0.0, 1e300), 0j))


class TestZAction:
    def test_zero_power_is_identity(self):
        g = GroupElement(DIAG21, 3.0)
        got_g, got_m = z_action(0, g, M_SAMPLE, trivial_structure())
        assert g_close(got_g, g) and got_m == M_SAMPLE

    def test_trivial_injection_never_moves(self):
        g = GroupElement(DIAG21, 3.0)
        for p in (-3, 1, 7):
            got_g, got_m = z_action(p, g, M_SAMPLE, trivial_structure())
            assert g_close(got_g, g) and got_m == M_SAMPLE

    def test_broken_injection_moves(self):
        g = GroupElement(DIAG21, 3.0)
        got_g, _ = z_action(1, g, M_SAMPLE, broken_structure())
        assert not g_close(got_g, g)

    def test_power_must_be_integer(self):
        with pytest.raises(InvalidInputError):
            z_action(0.5, g_identity(), M_SAMPLE, trivial_structure())

    @given(st.integers(min_value=0, max_value=10**6), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=150)
    def test_additive_in_the_twist(self, seed, p, q):
        rng = random.Random(seed)
        g = random_group_element(rng)
        structure = broken_structure()
        m = M_SAMPLE
        step_g, _ = z_action(q, g, m, structure)
        twice_g, _ = z_action(p, step_g, m, structure)
        joint_g, _ = z_action(p + q, g, m, structure)
        assert g_close(twice_g, joint_g, tol=1e-6)


    @pytest.mark.parametrize("p", [9, 10, -10])
    def test_exact_small_determinant_is_invertible(self, p):
        # the broken twist of diag(0.5, 0.25) has det 2**(-3p), exact: at
        # p = 10 that is 2**-30 < 1e-9, which only a relative test accepts
        argv = [
            "atlas", "zaction", "--p", str(p), "--structure", "broken",
            "--g", '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[1,0]}',
            "--m", '{"a":[[[0.5,0],[0,0]],[[0,0],[0.25,0]]],"t":[0,1]}',
        ]
        out, err = io.StringIO(), io.StringIO()
        assert dispatch(argv, out, err) == 0, err.getvalue()
        assert json.loads(out.getvalue())["g"]["a"][0][0] == [2.0**-p, 0]

    def test_accurate_small_det_is_not_singular(self):
        # i(m)**13 has det 0.09375**13, about 4.3e-14, accurate to every
        # printed digit; its entries are close to rank one
        argv = [
            "atlas", "zaction", "--p", "13", "--structure", "broken",
            "--g", '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[1,0]}',
            "--m", '{"a":[[[0.5,0],[0.25,0]],[[0.125,0],[0.25,0]]],"t":[0,1]}',
        ]
        out, err = io.StringIO(), io.StringIO()
        assert dispatch(argv, out, err) == 0, err.getvalue()
        assert json.loads(out.getvalue())["g"]["t"][0] == pytest.approx(0.09375**13, rel=1e-12)


class TestSourceTarget:
    def test_source_is_projection(self):
        assert source(GroupElement(DIAG21, 3.0), M_SAMPLE) == M_SAMPLE

    def test_trivial_target_fixes_point(self):
        assert target(GroupElement(DIAG21, 3.0), M_SAMPLE, trivial_structure()) == M_SAMPLE

    def test_broken_target_conjugates(self):
        g = GroupElement(Matrix2C(1.0, 1.0, 0.0, 1.0), 0j)
        moved = target(g, M_SAMPLE, broken_structure())
        assert moved.t == M_SAMPLE.t
        assert not g_close(moved, M_SAMPLE)
        # conjugation preserves the determinant
        assert moved.a.det == pytest.approx(M_SAMPLE.a.det, abs=1e-12)

    def test_broken_target_inverts_by_the_carried_det(self):
        # det 1e-10 is below eps; g_inverse and the action invert it alike
        g = GroupElement(Matrix2C.diag(1e-5, 1e-5), 0j)
        m = AtlasPoint(Matrix2C(0.5, 4.0, 0.0, 0.25), 1j)
        moved = target(g, m, broken_structure())
        assert moved.a.entries() == (g_inverse(g).a @ (m.a @ g.a)).entries() and moved.t == m.t
        g_doc = '{"a":[[[1e-5,0],[0,0]],[[0,0],[1e-5,0]]],"t":[0,0]}'
        m_doc = '{"a":[[[0.5,0],[4,0]],[[0,0],[0.25,0]]],"t":[0,1]}'
        for argv, key in (
            (["atlas", "ginv", "--x", g_doc], "result"),
            (["atlas", "target", "--structure", "broken", "--g", g_doc, "--m", m_doc], "point"),
        ):
            out, err = io.StringIO(), io.StringIO()
            assert dispatch(argv, out, err) == 0, err.getvalue()
            assert set(json.loads(out.getvalue())) == {key}

    def test_wide_eps_identity_is_not_refused_as_singular(self):
        # at eps 1.0 the identity's det 1 was refused by the action's own
        # inverse; now the law fails only because no matrix is contracting
        out, err = io.StringIO(), io.StringIO()
        argv = ["--eps", "1.0", "atlas", "check", "--structure", "broken", "--samples", "1"]
        assert dispatch(argv, out, err) == 0, err.getvalue()
        (law,) = [law for law in json.loads(out.getvalue())["laws"] if law["name"] == "action-identity"]
        assert "singular_matrix" not in law["counterexample"]["detail"]
        assert law["counterexample"]["detail"].startswith("action raised not_contracting")


class TestStructureRegistry:
    def test_named_structures(self):
        assert trivial_structure().name == "trivial"
        assert broken_structure().name == "broken"
        assert structure_by_name("trivial").name == "trivial"
        assert structure_by_name("broken").name == "broken"

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            structure_by_name("??")


class TestGroupoidCheck:
    def test_trivial_structure_passes(self):
        report = groupoid_check(trivial_structure(), samples=300, seed=1)
        assert report.passed
        assert report.structure == "trivial"
        assert len(report.laws) == 5
        for law in report.laws:
            assert law.checked == 300
            assert law.failures == 0
            assert law.counterexample is None

    def test_broken_structure_fails_only_twist_invariance(self):
        report = groupoid_check(broken_structure(), samples=300, seed=1)
        assert not report.passed
        by_name = {law.name: law for law in report.laws}
        offender = by_name.pop("z-action-target-invariance")
        assert offender.failures > 0
        assert offender.counterexample is not None
        assert "detail" in offender.counterexample
        for law in by_name.values():
            assert law.failures == 0

    def test_deterministic_given_seed(self):
        a = groupoid_check(broken_structure(), samples=120, seed=7)
        b = groupoid_check(broken_structure(), samples=120, seed=7)
        assert [law.failures for law in a.laws] == [law.failures for law in b.laws]

    def test_raising_structure_is_counted_not_raised(self):
        def explode(m, g):
            raise SingularMatrixError("boom")

        structure = AtlasStructure("exploding", explode, lambda m: g_identity())
        report = groupoid_check(structure, samples=20, seed=0)
        by_name = {law.name: law for law in report.laws}
        assert by_name["action-composition"].failures == 20
        assert "boom" in by_name["action-composition"].counterexample["detail"]

    def test_one_twist_per_sample(self):
        calls = []

        def injection(m):
            calls.append(m)
            return GroupElement(Matrix2C(1.0, 1.0, 0.0, 1.0), 0j)

        report = groupoid_check(AtlasStructure("counted", lambda m, g: m, injection), samples=25, seed=4)
        assert len(calls) == 25
        assert report.passed

    def test_raising_twist_fails_both_twist_laws_alike(self):
        def injection(m):
            raise SingularMatrixError("boom")

        report = groupoid_check(AtlasStructure("raising", lambda m, g: m, injection), samples=20, seed=0)
        by_name = {law.name: law for law in report.laws}
        src, tgt = by_name["z-action-source-invariance"], by_name["z-action-target-invariance"]
        assert src.failures == tgt.failures == 20
        assert src.counterexample == tgt.counterexample
        assert src.counterexample["detail"] == "twist raised singular_matrix: boom"
        assert by_name["action-composition"].failures == 0

    def test_overflowing_difference_is_not_close_not_raised(self):
        # the twist adds 10p to the twist of g, which is drawn with |t| < 3, so
        # with p != 0 the images of g and of its twist differ by 2e308 in one
        # entry, which overflows to inf; that is a changed target, not a
        # raising twist
        rng = random.Random(0)
        atlas._draw_atlas_point(rng), atlas._draw_group_element(rng), atlas._draw_group_element(rng)
        assert rng.randint(-3, 3) != 0  # the sample's twist power

        def act(m, g):
            sign = 1.0 if abs(g.t) < 3 else -1.0
            return AtlasPoint(Matrix2C(0.5, sign * 1e308, 0.0, 0.25), m.t)

        structure = AtlasStructure("overflowing", act, lambda m: GroupElement(Matrix2C.identity(), 10j))
        report = groupoid_check(structure, samples=1, seed=0)
        by_name = {law.name: law for law in report.laws}
        target_law = by_name["z-action-target-invariance"]
        assert target_law.failures == 1
        assert target_law.counterexample["detail"] == "target changed under twist"

    def test_finite_difference_past_float_range_is_not_close_not_raised(self):
        # as above, but the two targets differ by 1.3e308+1.3e308j, whose
        # parts are finite and whose modulus is past float range
        def act(m, g):
            sign = 1.0 if abs(g.t) < 3 else -1.0
            return AtlasPoint(Matrix2C(0.5, sign * (6.5e307 + 6.5e307j), 0.0, 0.25), m.t)

        structure = AtlasStructure("overflowing", act, lambda m: GroupElement(Matrix2C.identity(), 10j))
        report = groupoid_check(structure, samples=1, seed=0)
        target_law = {law.name: law for law in report.laws}["z-action-target-invariance"]
        assert target_law.failures == 1
        assert target_law.counterexample["detail"] == "target changed under twist"

    def test_law_sides_agree_within_the_tolerance_in_force(self):
        # m.g moves the twist of m by 1e-6 unless g is the identity, so the
        # two sides of the composition law differ by 1e-6
        def act(m, g):
            return m if g.t == 0 else AtlasPoint(m.a, m.t + 1e-6)

        structure = AtlasStructure("drifting", act, lambda m: g_identity())
        by_name = {law.name: law for law in groupoid_check(structure, samples=10, seed=0).laws}
        assert [name for name, law in by_name.items() if not law.passed] == ["action-composition"]
        assert by_name["action-composition"].failures == 10
        assert by_name["action-composition"].counterexample["detail"] == "m.(g*h) != (m.g).h"
        with tolerance(1e-3):
            assert groupoid_check(structure, samples=10, seed=0).passed

    def test_wide_eps_gives_a_report(self):
        # a draw reads no eps, so even eps 1 fails laws rather than the check
        with tolerance(1.0):
            report = groupoid_check(trivial_structure(), samples=5, seed=0)
        closure = {law.name: law for law in report.laws}["action-closure"]
        assert closure.failures == 5 and closure.counterexample["detail"] == "action image not contracting"

    @pytest.mark.parametrize("structure", ["trivial", "broken"])
    def test_cli_check_at_a_wide_eps_prints_a_report(self, structure):
        argv = ["atlas", "check", "--eps", "0.3", "--structure", structure, "--samples", "1"]
        out, err = io.StringIO(), io.StringIO()
        assert dispatch(argv, out, err) == 0, err.getvalue()
        assert json.loads(out.getvalue())["structure"] == structure

    def test_tol_is_no_parameter(self):
        with pytest.raises(TypeError):
            groupoid_check(trivial_structure(), samples=10, tol=1e-6)

    @pytest.mark.parametrize("make", [trivial_structure, broken_structure])
    def test_five_actions_per_sample(self, make):
        # m.g, m.(g*h), (m.g).h, m.identity and m.(twisted g): m.g is
        # computed once and read by composition, target invariance and closure
        inner, calls = make(), []

        def act(m, g):
            calls.append(g)
            return inner.action(m, g)

        report = groupoid_check(AtlasStructure(inner.name, act, inner.injection), samples=25, seed=2)
        assert len(calls) == 5 * 25
        assert report == groupoid_check(inner, samples=25, seed=2)

    @pytest.mark.parametrize("a, failures", [(Matrix2C.diag(2.0, 0.5), 10), (Matrix2C.diag(0.5, 0.25), 0)])
    def test_closure_of_an_image_that_is_not_an_atlas_point(self, a, failures):
        # a duck-typed image is not checked when it is built, so closure
        # decides whether its matrix is contracting
        def act(m, g):
            return SimpleNamespace(a=a, t=m.t)

        report = groupoid_check(AtlasStructure("duck", act, lambda m: g_identity()), samples=10, seed=0)
        closure = {law.name: law for law in report.laws}["action-closure"]
        assert closure.failures == failures
        if failures:
            assert closure.counterexample["detail"] == "action image not contracting"
        else:
            assert closure.counterexample is None

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            groupoid_check(trivial_structure(), samples=0)
        with pytest.raises(InvalidInputError):
            groupoid_check(trivial_structure(), samples=True)
        with pytest.raises(InvalidInputError):
            groupoid_check(trivial_structure(), samples=10, seed=0.5)

    @pytest.mark.parametrize("seed", range(40))
    def test_wide_eps_refuses_no_twist(self, seed):
        # a broken twist's powers tend to rank one; with the det carried, a
        # wide eps still finds no singular product to refuse
        with tolerance(1e-3):
            report = groupoid_check(broken_structure(), 20, seed)
        by_name = {law.name: law for law in report.laws}
        assert by_name["z-action-source-invariance"].failures == 0

    def test_sample_count_is_capped(self):
        # cap + 1 only: running the cap itself takes seconds
        with pytest.raises(atlas.LimitExceededError):
            groupoid_check(trivial_structure(), samples=atlas.MAX_CHECK_SAMPLES + 1)
