"""The public value types: frozen records with field equality, hashing and a
``Name(field=value!r, ...)`` repr, which survive copy, deepcopy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

import teichkit
from teichkit import (
    AtlasPoint,
    AtlasStructure,
    BasePoint,
    CheckReport,
    Circle,
    ClosedLeaf,
    ContinuedFraction,
    CurvePoint,
    DenseLine,
    Diagonal,
    GroupElement,
    IntMatrix2,
    LawResult,
    Matrix2C,
    NonHausdorffQuotient,
    QuadraticIrrational,
    Resonant,
    ResonantForm,
    TorusTranslation,
    g_identity,
    g_power,
    groupoid_check,
    rotation_orbit,
    structure_by_name,
    z_action,
)
from teichkit.algebra import Value


def fixing_action(m, g):
    return m


def identity_injection(m):
    return g_identity()


LAW = LawResult(name="action-identity", checked=3, failures=0, counterexample=None)

# (type, keyword arguments, the repr written out by hand)
SAMPLES = [
    (Matrix2C, {"a": 1, "b": 2j, "c": 0.5, "d": -1}, "Matrix2C(a=(1+0j), b=2j, c=(0.5+0j), d=(-1+0j))"),
    (IntMatrix2, {"a": 1, "b": 2, "c": 3, "d": 7}, "IntMatrix2(a=1, b=2, c=3, d=7)"),
    (
        GroupElement,
        {"a": Matrix2C(2, 0, 0, 1), "t": 1j},
        "GroupElement(a=Matrix2C(a=(2+0j), b=0j, c=0j, d=(1+0j)), t=1j)",
    ),
    (
        AtlasPoint,
        {"a": Matrix2C(0.5, 0, 0, 0.25), "t": 0},
        "AtlasPoint(a=Matrix2C(a=(0.5+0j), b=0j, c=0j, d=(0.25+0j)), t=0j)",
    ),
    (
        AtlasStructure,
        {"name": "fixed", "action": fixing_action, "injection": identity_injection},
        f"AtlasStructure(name='fixed', action={fixing_action!r}, injection={identity_injection!r})",
    ),
    (LawResult, {"name": "action-identity", "checked": 3, "failures": 0, "counterexample": None},
     "LawResult(name='action-identity', checked=3, failures=0, counterexample=None)"),
    (
        CheckReport,
        {"structure": "trivial", "samples": 3, "seed": 7, "laws": (LAW,)},
        "CheckReport(structure='trivial', samples=3, seed=7, laws=(LawResult(name='action-identity', "
        "checked=3, failures=0, counterexample=None),))",
    ),
    (ResonantForm, {"lam": 0.5, "p": 2, "c": 0}, "ResonantForm(lam=(0.5+0j), p=2, c=0j)"),
    (Diagonal, {"lambda1": 0.5, "lambda2": 0.25j}, "Diagonal(lambda1=(0.5+0j), lambda2=0.25j)"),
    (Resonant, {"lam": 0.5, "p": 3}, "Resonant(lam=(0.5+0j), p=3)"),
    (BasePoint, {"det": 0.125, "trace": 0.75}, "BasePoint(det=(0.125+0j), trace=(0.75+0j))"),
    (CurvePoint, {"order": 2, "lam": 0.5}, "CurvePoint(order=2, lam=(0.5+0j))"),
    (TorusTranslation, {"tau": 1j, "x": 0.25, "y": 1.5}, "TorusTranslation(tau=1j, x=0.25, y=0.5)"),
    (ClosedLeaf, {"vertical": 2, "horizontal": 5}, "ClosedLeaf(vertical=2, horizontal=5)"),
    (DenseLine, {}, "DenseLine()"),
    (Circle, {"deck_order": 5}, "Circle(deck_order=5)"),
    (NonHausdorffQuotient, {}, "NonHausdorffQuotient()"),
    (ContinuedFraction, {"preperiod": [1, 2], "period": [3]}, "ContinuedFraction(preperiod=(1, 2), period=(3,))"),
    (QuadraticIrrational, {"p": 1, "q": 2, "d": 5}, "QuadraticIrrational(p=1, q=2, d=5)"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# QuadraticIrrational compares numbers, not fields: see test_surd_equality_is_by_value
FIELD_EQUALITY = [sample for sample in SAMPLES if sample[0] is not QuadraticIrrational]


def test_every_public_value_type_is_sampled():
    public = [getattr(teichkit, name) for name in teichkit.__all__]
    assert {obj for obj in public if isinstance(obj, type) and issubclass(obj, Value)} == {cls for cls, _, _ in SAMPLES}
    assert len(SAMPLES) == 19


@pytest.mark.parametrize("cls, kwargs, text", SAMPLES, ids=IDS)
def test_repr_is_name_and_fields(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", SAMPLES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    value = cls(**kwargs)
    assert cls(*kwargs.values()) == value
    assert cls._fields == cls.__match_args__ == tuple(kwargs)


@pytest.mark.parametrize("cls, kwargs, text", SAMPLES, ids=IDS)
def test_equal_values_hash_equal(cls, kwargs, text):
    x, y = cls(**kwargs), cls(**kwargs)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("cls, kwargs, text", FIELD_EQUALITY, ids=[s[0].__name__ for s in FIELD_EQUALITY])
def test_equality_only_within_the_class(cls, kwargs, text):
    value = cls(**kwargs)
    sub = type(cls.__name__, (cls,), {})(**kwargs)  # same fields, same name, another class
    assert repr(sub) == text
    assert value != sub and sub != value
    assert value.__eq__(sub) is NotImplemented
    assert value != tuple(kwargs.values())
    assert value.__eq__(tuple(kwargs.values())) is NotImplemented


def test_same_fields_in_another_type_are_unequal():
    m = Matrix2C.diag(0.5, 0.25)
    assert GroupElement(m, 1j) != AtlasPoint(m, 1j)
    assert IntMatrix2(1, 0, 0, 1) != Matrix2C(1, 0, 0, 1)


def test_different_fields_are_unequal():
    assert Matrix2C(1, 2, 3, 4) != Matrix2C(1, 2, 3, 5)
    assert Resonant(0.5, 2) != Resonant(0.5, 3)
    assert ContinuedFraction((1,), (2,)) != ContinuedFraction((1, 2), ())


def test_surd_equality_is_by_value():
    x = QuadraticIrrational(1, 2, 5)
    assert x == QuadraticIrrational(2, 4, 20) and hash(x) == hash(QuadraticIrrational(2, 4, 20))
    assert x != QuadraticIrrational(1, 2, 13)


@pytest.mark.parametrize("cls, kwargs, text", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(cls, kwargs, text):
    value = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, kwargs, text", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, kwargs, text):
    value = cls(**kwargs)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text
        assert [getattr(twin, name) for name in kwargs] == [getattr(value, name) for name in kwargs]
        with pytest.raises(AttributeError):
            twin.extra = 0


def test_carried_det_is_not_a_field():
    # two elements with the same fields and different carried dets
    a = Matrix2C(2, 0, 0, 1)
    x, y = GroupElement(a, 1j), GroupElement._derived(a, 1j, 3 + 0j)
    assert (x._det, y._det) == (2, 3)
    assert repr(x) == repr(y) == "GroupElement(a=Matrix2C(a=(2+0j), b=0j, c=0j, d=(1+0j)), t=1j)"
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert GroupElement._fields == ("a", "t")


def test_carried_det_survives_copy_deepcopy_and_pickle():
    x = g_power(GroupElement(Matrix2C(0.75, 0.5, 0.25, 0.5), 1), 16)
    assert x._det == 2.0**-32  # det 1/4, exact in every product
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and twin._det == x._det


def test_defaults_and_keywords():
    assert ResonantForm(lam=0.5, p=2) == ResonantForm(0.5, 2, 1.0)
    assert ResonantForm(p=2, lam=0.5).c == 1 + 0j
    assert Matrix2C(d=4, c=3, b=2, a=1) == Matrix2C(1, 2, 3, 4)
    with pytest.raises(TypeError):
        Matrix2C(1, 2, 3)
    with pytest.raises(TypeError):
        DenseLine(1)


def test_class_patterns_match_fields_in_order():
    match Resonant(0.5, 2):
        case Resonant(lam, p):
            assert (lam, p) == (0.5, 2)
        case _:
            pytest.fail("no match")


TRIVIAL = structure_by_name("trivial")
POINT = AtlasPoint(Matrix2C(0.5, 0, 0, 0.25), 0)

# (call, the error code, the exact message)
INTEGER_CHECKS = [
    (lambda: g_power(g_identity(), 1.5), "invalid_input", "power must be an integer, got 1.5"),
    (lambda: z_action(True, g_identity(), POINT, TRIVIAL), "invalid_input", "twist power must be an integer, got True"),
    (lambda: groupoid_check(TRIVIAL, 0), "invalid_input", "samples must be a positive integer, got 0"),
    (lambda: groupoid_check(TRIVIAL, 1, 1.0), "invalid_input", "seed must be an integer, got 1.0"),
    (lambda: Circle(0), "invalid_input", "deck_order must be a positive integer, got 0"),
    (lambda: ContinuedFraction((1,), ()).value(0), "invalid_input", "terms must be a positive integer, got 0"),
    (lambda: rotation_orbit(1, Fraction(1, 3), True), "invalid_input", "max_points must be a positive integer, got True"),
    (lambda: ResonantForm(0.5, 0), "invalid_input", "p must be a positive integer, got 0"),
    (lambda: Resonant(0.5, 2.0), "invalid_input", "p must be a positive integer, got 2.0"),
    (lambda: QuadraticIrrational(1, 2.0, 2), "invalid_input", "q must be an integer, got 2.0"),
    (lambda: CurvePoint(0, 0.5), "invalid_point", "order must be a positive integer, got 0"),
    (lambda: IntMatrix2(1, 2, 3, 4.0), "invalid_input", "d must be an integer, got 4.0"),
]


@pytest.mark.parametrize("call, code, message", INTEGER_CHECKS, ids=[m.split(" must")[0] for _, _, m in INTEGER_CHECKS])
def test_integer_checks_name_the_parameter(call, code, message):
    with pytest.raises(teichkit.InvalidInputError) as info:
        call()
    assert (info.value.code, str(info.value)) == (code, message)
