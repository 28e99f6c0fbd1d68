"""Exact quadratic irrational arithmetic."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teichkit import (
    ContinuedFraction,
    IntMatrix2,
    InvalidInputError,
    LimitExceededError,
    QuadraticIrrational,
    SingularMatrixError,
    cf_expand,
    morita_equivalent,
    moebius_surd,
)
from teichkit import surd
from teichkit.surd import _key
from oracles import random_unimodular, surd_cycle, surd_floor

SQRT2 = QuadraticIrrational(0, 1, 2)
GOLDEN = QuadraticIrrational(1, 2, 5)

_NON_SQUARES = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 19, 21, 22, 23, 29, 31]


def expansion(x):
    """(preperiod, period) of x, as cf_expand gives them."""
    cf = cf_expand(x)
    return cf.preperiod, cf.period


def walk(x):
    """The (p, q, a) of each state of x's period, from the first reduced one."""
    return list(surd._period(x.d, *surd._first_reduced(x)))


def cycle_keys(x):
    """Canonical keys of the complete quotients in x's periodic cycle.  Two
    surds share a continued-fraction tail exactly when these sets intersect."""
    return frozenset(_key(p, q, x.d) for p, q, _ in walk(x))


def surds():
    return st.builds(
        QuadraticIrrational,
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-12, max_value=12).filter(lambda q: q != 0),
        st.sampled_from(_NON_SQUARES),
    )


class TestConstruction:
    def test_plain(self):
        assert float(SQRT2) == pytest.approx(math.sqrt(2))
        assert float(GOLDEN) == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_invariant_restored_by_scaling(self):
        x = QuadraticIrrational(0, 3, 2)  # sqrt(2)/3 needs rescaling
        assert (x.d - x.p * x.p) % x.q == 0
        assert float(x) == pytest.approx(math.sqrt(2) / 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(0, 0, 2)
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(0, 1, 4)  # square
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(0, 1, -2)
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(0.5, 1, 2)

    @given(surds())
    @settings(max_examples=200)
    def test_invariant_always_holds(self, x):
        assert (x.d - x.p * x.p) % x.q == 0


class TestEqualityAndHash:
    def test_equivalent_representations(self):
        assert QuadraticIrrational(0, 2, 8) == SQRT2  # sqrt(8)/2 = sqrt(2)
        assert hash(QuadraticIrrational(0, 2, 8)) == hash(SQRT2)

    def test_conjugate_branches_differ(self):
        x = QuadraticIrrational(-1, 1, 2)  # -1 + sqrt(2)
        y = QuadraticIrrational(1, -1, 2)  # -(1 + sqrt(2))
        assert x.canonical_key()[:3] == y.canonical_key()[:3]
        assert x != y

    def test_not_equal_to_other_types(self):
        assert SQRT2 != 1.4142135623730951

    @given(surds(), st.integers(min_value=2, max_value=7))
    @settings(max_examples=150)
    def test_scaling_representation_is_equal(self, x, k):
        scaled = QuadraticIrrational(x.p * k, x.q * k, x.d * k * k)
        assert scaled == x
        assert float(scaled) == pytest.approx(float(x), rel=1e-12)


class TestFloor:
    def test_values(self):
        assert math.floor(SQRT2) == 1
        assert math.floor(GOLDEN) == 1
        assert math.floor(QuadraticIrrational(1, -2, 2)) == -2  # (1+sqrt 2)/-2
        assert math.floor(QuadraticIrrational(-5, 1, 2)) == -4  # sqrt(2)-5

    @given(surds())
    @settings(max_examples=300)
    def test_floor_brackets_value(self, x):
        f = math.floor(x)
        v = float(x)
        assert f - 1e-9 <= v < f + 1 + 1e-9

    def test_oracle_floor_matches_float_on_small_inputs(self):
        # |sqrt(d) - m| >= 1/(sqrt(d) + |m|) for an integer m, so with d <= 31
        # and |q| <= 12 each value lies more than 1/150 from any integer, far
        # beyond float rounding: the float floor is exact
        for d in _NON_SQUARES:
            for q in range(-12, 13):
                for p in range(-30, 31):
                    if q:
                        assert surd_floor(p, q, d) == math.floor((p + math.sqrt(d)) / q), (p, q, d)

    @given(
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=-(10**20), max_value=10**20).filter(lambda q: q != 0),
        st.integers(min_value=2, max_value=10**60),
    )
    def test_floor_matches_oracle_at_any_size(self, p, q, d):
        assume(math.isqrt(d) ** 2 != d)
        x = QuadraticIrrational(p, q, d)
        assert math.floor(x) == surd_floor(p, q, d)


class TestContinuedFraction:
    def test_sqrt2(self):
        assert expansion(SQRT2) == ((1,), (2,))

    def test_golden(self):
        assert expansion(GOLDEN) == ((), (1,))

    def test_sqrt3(self):
        assert expansion(QuadraticIrrational(0, 1, 3)) == ((1,), (1, 2))

    def test_longer_preperiod(self):
        x = QuadraticIrrational(3, 7, 2)  # (3+sqrt 2)/7
        assert expansion(x) == ((0, 1, 1, 1), (2,))

    def test_negative_value(self):
        x = QuadraticIrrational(0, -1, 2)  # -sqrt(2)
        pre, per = expansion(x)
        assert pre[0] == -2
        assert all(a >= 1 for a in pre[1:] + per)

    @given(surds())
    @settings(max_examples=150)
    def test_period_nonempty_and_positive(self, x):
        pre, per = expansion(x)
        assert per
        assert all(a >= 1 for a in per)
        assert all(a >= 1 for a in pre[1:])

    @given(surds())
    @settings(max_examples=80)
    def test_convergents_approach_value(self, x):
        pre, per = expansion(x)
        quotients = list(pre)
        while len(quotients) < 30:
            quotients.extend(per)
        acc = float(quotients[-1])
        for a in reversed(quotients[:-1]):
            acc = a + 1.0 / acc
        assert acc == pytest.approx(float(x), abs=1e-8)


class TestPeriodicStateKeys:
    def test_shared_tail(self):
        shifted = QuadraticIrrational(1, 1, 2)  # 1 + sqrt(2)
        assert cycle_keys(SQRT2) & cycle_keys(shifted)

    def test_disjoint_tails(self):
        assert not cycle_keys(SQRT2) & cycle_keys(GOLDEN)

    def test_purely_periodic_contains_self(self):
        assert GOLDEN.canonical_key() in cycle_keys(GOLDEN)


# the (p, q, d) grid of the benchmark's kernels workload, copied
GRID = [(p, q, d) for d in (2, 3, 5, 6, 7, 10, 11, 13) for p in range(-3, 4) for q in (1, 2, 3, -2)]


def grid_and_images() -> list[QuadraticIrrational]:
    """The grid's surds, then seeded Moebius images of them under GL2(Z)."""
    rng = random.Random(20261019)
    surds = [QuadraticIrrational(*s) for s in GRID]
    images = []
    while len(images) < 200:
        m = IntMatrix2(*(rng.randint(-5, 5) for _ in range(4)))
        if m.det() in (1, -1):
            images.append(moebius_surd(m, rng.choice(surds)))
    return surds + images


class TestCycleStates:
    def test_states_keep_the_invariant_and_key(self):
        for x in grid_and_images():
            for p, q, a in walk(x):
                assert (x.d - p * p) % q == 0
                state = QuadraticIrrational(p, q, x.d)
                assert (state.p, state.q, state.d) == (p, q, x.d)
                assert a == surd_floor(p, q, x.d)
                key = _key(p, q, x.d)
                assert key == state.canonical_key()
                # a content-1 multiple of q*q*X**2 - 2*p*q*X + p*p - d, leading
                # coefficient positive, and the sign of q
                a, b, c, sign = key
                assert a > 0 and math.gcd(a, b, c) == 1 and sign == (1 if q > 0 else -1)
                assert a * -2 * p * q == b * q * q and a * (p * p - x.d) == c * q * q

    def test_matches_state_by_state_reference(self):
        for x in grid_and_images():
            quotients, k, keys = surd_cycle(x)
            assert expansion(x) == (tuple(quotients[:k]), tuple(quotients[k:]))
            assert cycle_keys(x) == keys

    def test_morita_matches_reference_on_the_grid(self):
        surds = grid_and_images()
        keys = [surd_cycle(x)[2] for x in surds]
        for x, kx in zip(surds[: len(GRID)], keys):
            for y, ky in zip(surds, keys):
                assert morita_equivalent(x, y) == bool(kx & ky), (x, y)

    def test_keys_build_no_surd(self, monkeypatch):
        calls = []
        init = QuadraticIrrational.__init__

        def counting_init(self, *fields):
            calls.append(fields)
            init(self, *fields)

        surds = grid_and_images()
        monkeypatch.setattr(QuadraticIrrational, "__init__", counting_init)
        for x in surds:
            cycle_keys(x)
        assert calls == []


@st.composite
def wide_surds(draw):
    """(p*k + sqrt(d*k*k)) / (q*k) with |p| <= 10**6, q of either sign, d <= 10**6 a
    non-square with q | d - p**2 (so no rescale grows d), and k a scale."""
    p = draw(st.integers(min_value=-(10**6), max_value=10**6))
    q = draw(st.integers(min_value=1, max_value=10**6))
    r = p * p % q
    d = r + q * draw(st.integers(min_value=0, max_value=(10**6 - r) // q))
    assume(d >= 2 and math.isqrt(d) ** 2 != d)
    k = draw(st.integers(min_value=1, max_value=5))
    return QuadraticIrrational(p * k, q * k * draw(st.sampled_from((1, -1))), d * k * k)


class TestGaloisPeriod:
    """The period found by the reduced test, against the state-by-state oracle."""

    @given(wide_surds())
    @settings(max_examples=150, deadline=None)
    def test_expansion_and_keys_match_reference(self, x):
        quotients, k, keys = surd_cycle(x)
        assert expansion(x) == (tuple(quotients[:k]), tuple(quotients[k:]))
        assert cycle_keys(x) == keys

    @given(wide_surds(), st.integers(min_value=0, max_value=10**6), st.integers(min_value=-40, max_value=40),
           st.sampled_from((1, 2, 3, -1, -2, 5)))
    @settings(max_examples=100, deadline=None)
    def test_morita_matches_reference_keys(self, x, seed, p, q):
        keys = surd_cycle(x)[2]
        image = moebius_surd(random_unimodular(random.Random(seed), length=6), x)
        assert morita_equivalent(x, image) and morita_equivalent(image, x)
        other = QuadraticIrrational(p, q, x.d)  # the same field, often the same discriminant
        want = bool(keys & surd_cycle(other)[2])
        assert morita_equivalent(x, other) == morita_equivalent(other, x) == want

    @pytest.mark.parametrize(
        "x, y, expanded, want",
        [
            # the same field, discriminants 8 and 32: no expansion
            (SQRT2, QuadraticIrrational(0, 1, 8), False, False),
            # discriminant 40 twice, but x**2 - 10*y**2 and 2*x**2 - 5*y**2 are not equivalent
            (QuadraticIrrational(0, 1, 10), QuadraticIrrational(0, 2, 10), True, False),
            (SQRT2, moebius_surd(IntMatrix2(2, 1, 1, 1), SQRT2), True, True),
            (GOLDEN, moebius_surd(IntMatrix2(3, -5, -1, 2), GOLDEN), True, True),
        ],
    )
    def test_each_branch_decides(self, monkeypatch, x, y, expanded, want):
        assert bool(surd_cycle(x)[2] & surd_cycle(y)[2]) is want
        calls = []
        first_reduced = surd._first_reduced
        monkeypatch.setattr(surd, "_first_reduced", lambda z: calls.append(z) or first_reduced(z))
        assert morita_equivalent(x, y) is want
        assert bool(calls) is expanded

    def test_preperiod_ends_at_the_first_reduced_state(self):
        # 3 + sqrt(2) has q > 0 and s - p < q <= s + p, but a positive conjugate
        assert expansion(QuadraticIrrational(3, 1, 2)) == ((4,), (2,))


def refusal_cases() -> list[QuadraticIrrational]:
    """Surds whose expansions need 2 to 19 quotients, on both sides of limits 0-12."""
    rng = random.Random(20261020)
    roots = [QuadraticIrrational(0, 1, d) for d in (2, 3, 7, 13, 19, 31, 43, 46, 94)]
    images = [moebius_surd(random_unimodular(rng, length=rng.randint(1, 10)), rng.choice(roots)) for _ in range(60)]
    return grid_and_images()[::7] + roots + images


class TestRefusalCount:
    """A limit of m refuses exactly the expansions of more than m + 1 quotients."""

    @pytest.mark.parametrize("limit", range(13))
    def test_refused_exactly_past_the_limit(self, monkeypatch, limit):
        monkeypatch.setattr(surd, "_MAX_CF_STEPS", limit)
        for x in refusal_cases():
            quotients, k, keys = surd_cycle(x)
            if len(quotients) > limit + 1:
                for expand in (cf_expand, cycle_keys):
                    with pytest.raises(LimitExceededError, match=f"within {limit} partial"):
                        expand(x)
            else:
                assert cf_expand(x) == ContinuedFraction(tuple(quotients[:k]), tuple(quotients[k:]))
                assert cycle_keys(x) == keys

    @pytest.mark.parametrize("limit", range(13))
    def test_a_surd_meets_itself_right_after_its_preperiod(self, monkeypatch, limit):
        # Morita stops at the first shared state: the preperiod and one more
        # quotient count against the limit, not the whole period.  So at limit 5,
        # sqrt(94) = [9; 1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18] meets
        # itself, while cf_expand of it is refused
        monkeypatch.setattr(surd, "_MAX_CF_STEPS", limit)
        for x in refusal_cases():
            if surd_cycle(x)[1] > limit:
                with pytest.raises(LimitExceededError, match=f"within {limit} partial"):
                    morita_equivalent(x, x)
            else:
                assert morita_equivalent(x, x) is True

    def test_an_unshared_tail_needs_the_whole_cycle(self, monkeypatch):
        # discriminant 424 twice, but x**2 - 106*y**2 and 2*x**2 - 53*y**2 are not
        # equivalent; after one preperiod quotient each, the cycles have 9 and 7 states
        x, y = QuadraticIrrational(0, 1, 106), QuadraticIrrational(0, 2, 106)
        assert morita_equivalent(x, y) is False and morita_equivalent(y, x) is False
        monkeypatch.setattr(surd, "_MAX_CF_STEPS", 5)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(LimitExceededError, match="within 5 partial"):
                morita_equivalent(a, b)

    def test_unequal_discriminants_need_no_expansion(self, monkeypatch):
        monkeypatch.setattr(surd, "_MAX_CF_STEPS", 0)
        assert morita_equivalent(SQRT2, GOLDEN) is False


class TestMoebiusSurd:
    def test_translation(self):
        t = IntMatrix2(1, 1, 0, 1)
        assert moebius_surd(t, SQRT2) == QuadraticIrrational(1, 1, 2)

    def test_inversion(self):
        s = IntMatrix2(0, -1, 1, 0)
        # -1/sqrt(2) = -sqrt(2)/2
        assert moebius_surd(s, SQRT2) == QuadraticIrrational(0, -2, 2)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            moebius_surd(IntMatrix2(1, 2, 2, 4), SQRT2)

    @given(surds(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150)
    def test_agrees_with_float_moebius(self, x, seed):
        m = random_unimodular(random.Random(seed), length=6)
        v = float(x)
        denom = m.c * v + m.d
        if abs(denom) < 1e-6:
            return
        want = (m.a * v + m.b) / denom
        assert float(moebius_surd(m, x)) == pytest.approx(want, rel=1e-6, abs=1e-9)

    @given(surds(), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_composition(self, x, seed1, seed2):
        m1 = random_unimodular(random.Random(seed1), length=5)
        m2 = random_unimodular(random.Random(seed2), length=5)
        assert moebius_surd(m1 @ m2, x) == moebius_surd(m1, moebius_surd(m2, x))

    @given(surds())
    @settings(max_examples=100)
    def test_identity_action(self, x):
        assert moebius_surd(IntMatrix2.identity(), x) == x
