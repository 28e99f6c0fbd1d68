"""End-to-end acceptance checks.

One test per shipped guarantee.  Each body runs inside `acceptance_criterion`,
which times the run and prints a PASS/FAIL line per criterion in the terminal
summary.  Expected values come from the independent oracles in oracles.py, not
from the library under test.
"""

import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

from conftest import acceptance_criterion
from oracles import (
    brute_resonance_order,
    fundamental_domain_point,
    random_annulus,
    random_complex,
    random_conjugator,
    random_contracting,
    random_dyadic_jordan,
    random_unimodular,
    surd_witness_search,
)
from teichkit import (
    AtlasPoint,
    BasePoint,
    Circle,
    CurvePoint,
    Diagonal,
    GroupElement,
    IntMatrix2,
    InvalidPointError,
    Matrix2C,
    NonHausdorffQuotient,
    QuadraticIrrational,
    Resonant,
    ResonantForm,
    S,
    adheres,
    broken_structure,
    cf_expand,
    class_equal,
    classify,
    g_identity,
    g_inverse,
    g_mul,
    groupoid_check,
    leaf_space,
    moebius,
    moebius_surd,
    morita_equivalent,
    points_equal,
    reduce_fundamental_domain,
    resonance_order,
    rotation_orbit,
    run_fixtures,
    separated,
    tolerance,
    trivial_structure,
    twin,
    z_action,
)
from teichkit.tolerance import resolve, within

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

SQRT2 = QuadraticIrrational(0, 1, 2)
SQRT3 = QuadraticIrrational(0, 1, 3)
GOLDEN = QuadraticIrrational(1, 2, 5)

# same mixed sample as the foliation unit tests: four rationals,
# {sqrt2, 1+sqrt2, (3+sqrt2)/7}, {golden}, {sqrt5}, {sqrt3, (1+sqrt3)/2}, {sqrt7}
TWELVE_SLOPES = [
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(0, 1),
    Fraction(7, 3),
    SQRT2,
    QuadraticIrrational(1, 1, 2),
    QuadraticIrrational(3, 7, 2),
    GOLDEN,
    QuadraticIrrational(0, 1, 5),
    SQRT3,
    QuadraticIrrational(1, 2, 3),
    QuadraticIrrational(0, 1, 7),
]


def _random_curve_point(rng, orders=(1, 2, 3, 4, 5, 6)):
    while True:
        order = rng.choice(orders)
        lam = cmath.rect(rng.uniform(0.15, 0.8), rng.uniform(0, 2 * math.pi))
        try:
            return CurvePoint(order, lam)
        except InvalidPointError:
            continue


def _random_base_point(rng):
    # choosing the two root moduli directly keeps every draw inside the domain
    while True:
        r1 = random_annulus(rng, 0.1, 0.85)
        r2 = random_annulus(rng, 0.1, 0.85)
        try:
            return BasePoint(r1 * r2, r1 + r2)
        except InvalidPointError:
            continue


def _random_group_element(rng):
    while True:
        m = Matrix2C(*(random_complex(rng, 1.5) for _ in range(4)))
        if abs(m.det) >= 0.2:
            return GroupElement(m, random_complex(rng))


def _random_atlas_point(rng):
    return AtlasPoint(random_contracting(rng, 0.25, 0.8), random_complex(rng))


def _group_close(x, y, tol):
    with tolerance(tol):
        return within(max(abs(x.t - y.t), *(abs(u - v) for u, v in zip(x.a.entries(), y.a.entries()))))


def _in_fundamental_domain(tau, eps):
    slack = 10.0 * eps
    if not (-0.5 - slack <= tau.real < 0.5):
        return False
    if abs(tau) < 1.0 - slack:
        return False
    if abs(abs(tau) - 1.0) <= slack and tau.real > slack:
        return False
    return True


def test_classification_trichotomy_and_conjugation_invariance():
    with acceptance_criterion(1, "classification trichotomy, conjugation invariance", 5.0):
        eps = resolve()
        tol = 100.0 * eps
        rng = random.Random(101)

        # 800 generic contracting matrices, conjugated by random complex
        # matrices with bounded condition number
        for _ in range(800):
            a = random_contracting(rng, separation=1e-3)
            cls = classify(a)
            assert isinstance(cls, (Diagonal, Resonant))
            p = random_conjugator(rng)
            conj = p @ (a @ p.inverse())
            got = classify(conj)
            with tolerance(tol):
                assert class_equal(got, cls)

        # 200 non-diagonalizable dyadic samples; exact integer conjugation so
        # the double eigenvalue survives in floating point
        for _ in range(200):
            a = random_dyadic_jordan(rng)
            cls = classify(a)
            assert isinstance(cls, Resonant)
            assert cls.p == 1
            w = random_unimodular(rng)
            u = Matrix2C(w.a, w.b, w.c, w.d)
            conj = u @ (a @ u.inverse())
            got = classify(conj)
            with tolerance(tol):
                assert class_equal(got, cls)

        # 200 explicit normal forms across resonance orders and off-diagonal
        # couplings, including the decoupled case
        for i in range(200):
            lam = random_annulus(rng, 0.1, 0.85)
            order = rng.randint(1, 6)
            c = (0j, 1 + 0j, random_complex(rng))[i % 3]
            cls = classify(ResonantForm(lam, order, c))
            if c == 0:
                assert isinstance(cls, Diagonal)
                want = Diagonal(lam, lam**order)
                with tolerance(tol):
                    assert class_equal(cls, want)
            else:
                assert isinstance(cls, Resonant)
                assert cls.p == order
                assert abs(cls.lam - lam) <= tol


def test_resonance_order_matches_exhaustive_search():
    with acceptance_criterion(2, "resonance order equals brute-force scan, 10000 pairs", 2.0):
        eps = resolve()
        rng = random.Random(202)
        disagreements = 0
        for i in range(10_000):
            if i % 4 == 0:
                # exact resonances, conditioned to keep the modulus above 0.05
                big = random_annulus(rng, 0.05, 0.95)
                order = rng.randint(1, 8)
                while order > 1 and abs(big) ** order < 0.05:
                    order -= 1
                small = big**order
            elif i % 4 == 2:
                # near misses: resonances nudged well inside or well outside
                # the tolerance; adjacent powers stay ~1e-3 apart, so both
                # sides must give the same answer
                big = random_annulus(rng, 0.226, 0.95)
                order = rng.randint(2, 8)
                while order > 2 and abs(big) ** order < 0.051:
                    order -= 1
                off = 1e-11 if i % 8 == 2 else 1e-7
                small = big**order + cmath.rect(off, rng.uniform(0, 2 * math.pi))
            else:
                big = random_annulus(rng, 0.05, 0.95)
                small = random_annulus(rng, 0.05, abs(big))
            if resonance_order(big, small) != brute_resonance_order(big, small, eps):
                disagreements += 1
        assert disagreements == 0


def test_one_way_adherence_between_strata():
    with acceptance_criterion(3, "inseparable twins adhere in one direction only", 1.0):
        for lam in (0.5 + 0j, 0.3 + 0.2j):
            for order in (1, 2, 3):
                curve = CurvePoint(order, lam)
                base = twin(curve)
                assert isinstance(base, BasePoint)
                assert separated(base, curve) is False
                assert separated(curve, base) is False
                assert adheres(base, curve) is True
                assert adheres(curve, base) is False


def test_twin_involution_and_collision_search():
    with acceptance_criterion(4, "twin is involutive; collisions only at twin pairs", 5.0):
        rng = random.Random(404)

        for _ in range(5000):
            x = _random_curve_point(rng)
            back = twin(twin(x))
            assert back is not None and points_equal(back, x)

        # 100000 cross-stratum pairs; every 100th is a planted twin pair so
        # the collision branch is exercised, the rest must separate
        collisions = 0
        for i in range(100_000):
            x = _random_curve_point(rng)
            if i % 100 == 0:
                y = twin(x)
            elif i % 2 == 0:
                y = _random_base_point(rng)
            else:
                other = tuple(o for o in (1, 2, 3, 4, 5, 6) if o != x.order)
                y = _random_curve_point(rng, other)
            if separated(x, y):
                continue
            collisions += 1
            tx, ty = twin(x), twin(y)
            assert (tx is not None and points_equal(tx, y)) or (
                ty is not None and points_equal(ty, x)
            )
        assert collisions == 1000


def test_fundamental_domain_reduction_with_exact_witness():
    with acceptance_criterion(5, "lattice reduction lands in the fundamental domain", 10.0):
        eps = resolve()
        tol = 100.0 * eps
        rng = random.Random(505)
        reductions = []
        for _ in range(2000):
            tau = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.01, 10.0))
            reduced, witness = reduce_fundamental_domain(tau)
            assert isinstance(witness, IntMatrix2)
            assert witness.det() == 1
            assert _in_fundamental_domain(reduced, eps)
            assert abs(moebius(witness, tau) - reduced) <= tol
            reductions.append((tau, reduced))
        # cross-check a hundred of them against the exhaustive oracle
        for tau, reduced in reductions[::20]:
            expect = fundamental_domain_point(tau, box=50)
            assert abs(expect - reduced) <= 1e-7 * max(1.0, abs(reduced))


def test_rotation_orbits_and_leaf_spaces():
    with acceptance_criterion(6, "orbit size equals denominator; leaf spaces by slope kind", 2.0):
        for q in range(1, 51):
            step_base = 2j * math.pi / q
            for p in range(q):
                if math.gcd(p, q) != 1:
                    continue
                orbit = rotation_orbit(1 + 0j, Fraction(p, q), q + 10)
                assert len(orbit) == q
                keys = {(round(z.real, 9), round(z.imag, 9)) for z in orbit}
                assert len(keys) == q
                # one more step must close the loop
                assert abs(orbit[-1] * cmath.exp(step_base * p) - orbit[0]) <= 1e-9

        for slope in TWELVE_SLOPES:
            space = leaf_space(slope)
            if isinstance(slope, Fraction):
                assert isinstance(space, Circle)
                assert space.deck_order == slope.denominator
            else:
                assert isinstance(space, NonHausdorffQuotient)


def test_tail_equivalence_and_moebius_images():
    with acceptance_criterion(7, "tail equivalence closed under integer moebius maps", 10.0):
        rng = random.Random(707)

        # worked positive pairs: translation by 1 twice, and inversion
        positives = [
            (SQRT2, QuadraticIrrational(1, 1, 2)),
            (GOLDEN, QuadraticIrrational(3, 2, 5)),
            (SQRT3, moebius_surd(S, SQRT3)),
        ]
        for x, y in positives:
            assert morita_equivalent(x, y) is True
            assert surd_witness_search(x, y, box=20) is not None
            for _ in range(20):
                while True:
                    m = IntMatrix2(*(rng.randint(-5, 5) for _ in range(4)))
                    if m.det() in (1, -1):
                        break
                assert morita_equivalent(x, moebius_surd(m, x)) is True

        assert morita_equivalent(SQRT2, GOLDEN) is False

        # random pairs with different repeating blocks, so provably
        # inequivalent; the bounded matrix search must come up empty too
        pool = [
            QuadraticIrrational(p, q, d)
            for d in (2, 3, 5, 6, 7, 10, 11, 13)
            for p in range(-3, 4)
            for q in (1, 2, 3, -2)
        ]
        negatives = []
        while len(negatives) < 10:
            x, y = rng.choice(pool), rng.choice(pool)
            if tuple(sorted(cf_expand(x).period)) != tuple(sorted(cf_expand(y).period)):
                negatives.append((x, y))
        for x, y in negatives:
            assert morita_equivalent(x, y) is False
            assert surd_witness_search(x, y, box=20) is None

        # equivalence laws over the mixed slope sample
        table = {}
        for i, x in enumerate(TWELVE_SLOPES):
            for j, y in enumerate(TWELVE_SLOPES):
                table[i, j] = morita_equivalent(x, y)
        n = len(TWELVE_SLOPES)
        for i in range(n):
            assert table[i, i] is True
            for j in range(n):
                assert table[i, j] == table[j, i]
                for k in range(n):
                    if table[i, j] and table[j, k]:
                        assert table[i, k]


def test_twisted_group_laws_and_groupoid_checker():
    with acceptance_criterion(8, "twisted group laws hold; checker flags the broken atlas", 5.0):
        tol = 100.0 * resolve()
        rng = random.Random(808)
        e = g_identity()
        for _ in range(10_000):
            x = _random_group_element(rng)
            y = _random_group_element(rng)
            z = _random_group_element(rng)
            assert _group_close(g_mul(g_mul(x, y), z), g_mul(x, g_mul(y, z)), tol)
            assert _group_close(g_mul(e, x), x, tol)
            assert _group_close(g_mul(x, e), x, tol)
            inv = g_inverse(x)
            assert _group_close(g_mul(x, inv), e, tol)
            assert _group_close(g_mul(inv, x), e, tol)

        # integer twists compose additively
        structure = broken_structure()
        for _ in range(1000):
            g = _random_group_element(rng)
            m = _random_atlas_point(rng)
            p = rng.randint(-3, 3)
            q = rng.randint(-3, 3)
            combined, m_after = z_action(p + q, g, m, structure)
            once, _ = z_action(q, g, m, structure)
            split, _ = z_action(p, once, m, structure)
            assert m_after == m
            # the two association orders agree relative to the magnitudes
            # reached, which grow with the twist exponent
            scale = max(1.0, *map(abs, combined.a.entries()), abs(combined.t))
            assert _group_close(split, combined, 1e-6 * scale)

        report = groupoid_check(trivial_structure(), 10_000, seed=0)
        assert report.passed
        assert all(law.passed and law.failures == 0 for law in report.laws)

        report = groupoid_check(broken_structure(), 400, seed=0)
        assert not report.passed
        broken_laws = [law for law in report.laws if not law.passed]
        assert [law.name for law in broken_laws] == ["z-action-target-invariance"]
        assert broken_laws[0].counterexample is not None


def test_fixture_corpus_is_byte_exact():
    with acceptance_criterion(9, "regression corpus replays byte-identically", 5.0):
        summary = run_fixtures(FIXTURES_DIR)
        assert summary["total"] >= 100
        assert summary["failed"] == 0, summary.get("failures")
        assert summary["passed"] == summary["total"]
        assert summary["byte_exact"] is True
