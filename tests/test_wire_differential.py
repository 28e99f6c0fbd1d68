"""The wire code against its isinstance-chain reading (tests/wire_reference.py).

`canonical_dumps` dispatches on exact type and writes strings itself; the
decoders share one JSON decoder and build their labels only when a check
fails.  Neither may change a byte: on drawn values the writer must give the
reference's text or raise the reference's exception, and on drawn and
mutated JSON every decoder must give an equal value (compared by type and
repr, so -0.0 and +0.0 differ) or raise the same type with the same message.
The leaves, leaf spaces, continued fractions and check reports that `fol` and
`atlas check` print must write as the payloads the CLI once built for them.
"""

from __future__ import annotations

import json
import math
import re
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wire_reference as reference
from teichkit import foliation, jsonio, tolerance
from teichkit.algebra import IntMatrix2, Matrix2C
from teichkit.atlas import (
    AtlasPoint,
    AtlasStructure,
    CheckReport,
    GroupElement,
    LawResult,
    broken_structure,
    g_identity,
    groupoid_check,
    trivial_structure,
)
from teichkit.errors import SingularMatrixError
from teichkit.hopf import Diagonal, Resonant
from teichkit.surd import QuadraticIrrational
from teichkit.teich import BasePoint, CurvePoint
from teichkit.tori import TorusTranslation


class Level(IntEnum):
    LOW = 1
    HUGE = 10**30


class Text(str):
    pass


class Real(float):
    pass


class Row(list):
    pass


class Record(dict):
    pass


def outcome(call, *args):
    """What `call` makes of `args`: ("ok", type, repr) or (exception type, message)."""
    try:
        value = call(*args)
    except Exception as exc:  # the comparison is the test: any exception must match the reference's
        return type(exc), str(exc)
    return "ok", type(value), repr(value)


# ------------------------------------------------------------------ writing

HUGE_INTS = [2**63, -(2**1000), 10**400]
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
                  float("inf"), float("-inf"), float("nan")]
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # control characters and lone surrogates too
WIRE_VALUES = [
    Matrix2C(1, -0.5j, 2.5, 0), IntMatrix2(1, -5, 0, 1), GroupElement(Matrix2C.diag(2, 1), 0.5j),
    AtlasPoint(Matrix2C.diag(0.5, 0.25), 1), BasePoint(0.125, 0.75), CurvePoint(1, 0.5), CurvePoint(2, 0.5j),
    Diagonal(0.5, 0.25), Resonant(0.5, 2), TorusTranslation(1j, 0.25, 0), object(),
]
FINITE_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(list(Level)),
    st.integers(), st.sampled_from(HUGE_INTS),
    st.integers(4301, 4400).map(lambda n: 10**n),  # more digits than str() of an int writes
    st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats().map(Real),
    st.complex_numbers(), FINITE_COMPLEX,
    TEXT, TEXT.map(Text),
    st.sampled_from(WIRE_VALUES),
    st.builds(Matrix2C, FINITE_COMPLEX, FINITE_COMPLEX, FINITE_COMPLEX, FINITE_COMPLEX),
)
KEYS = st.one_of(TEXT, TEXT, TEXT.map(Text), st.sampled_from([1, None, 2.5, ("t",), Level.LOW, True]))
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(Row),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=3).map(Record),
    ),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None)
@given(VALUES)
def test_canonical_dumps_matches_the_reference(value):
    assert outcome(jsonio.canonical_dumps, value) == outcome(reference.canonical_dumps, value)


def test_writer_edge_cases_match_the_reference():
    cases = [
        [], {}, (), [[]], [{}], {"": {}}, "\x00\x1f\x7f \ud800", Text("é"), -0.0, 5e-324, 1e-13, 2**53 + 1,
        Level.HUGE, True, [None, False], complex(-0.0, 5e-324), complex(float("nan"), 0), float("inf"),
        {"a": 1, 2: "b"}, {"a": float("nan"), 2: "b"}, {1: float("nan")}, 10**5000, Row([1, (2, Record(x=3j))]),
        *WIRE_VALUES,
    ]
    for value in cases:
        assert outcome(jsonio.canonical_dumps, value) == outcome(reference.canonical_dumps, value), value


# ------------------------------------------- verb values against their payloads

SLOPES = st.one_of(
    st.fractions(),
    st.sampled_from([Fraction(0), Fraction(-7, 3), Fraction(10**400, 3), Fraction(10**5000 + 1, 2)]),
    st.builds(QuadraticIrrational, st.integers(-50, 50), st.integers(-9, 9).filter(bool),
              st.integers(2, 200).filter(lambda d: math.isqrt(d) ** 2 != d)),
)
SLOPE_VALUES = [
    (foliation.leaf_descriptor, reference._leaf),
    (foliation.leaf_space, reference._leaf_space),
    (foliation.cf_expand, reference._continued_fraction),
]


@settings(max_examples=300, deadline=None)
@given(SLOPES)
def test_slope_values_write_as_their_payloads(alpha):
    for call, payload in SLOPE_VALUES:
        value = call(alpha)
        assert outcome(jsonio.canonical_dumps, value) == outcome(reference.canonical_dumps, payload(value))


def test_constructed_slope_values_write_as_their_payloads():
    values = [
        (foliation.ClosedLeaf(-3, 7), reference._leaf), (foliation.DenseLine(), reference._leaf),
        (foliation.Circle(1), reference._leaf_space), (foliation.NonHausdorffQuotient(), reference._leaf_space),
        (foliation.ContinuedFraction((0,), ()), reference._continued_fraction),
        (foliation.ContinuedFraction((-2, 1), (3, 4)), reference._continued_fraction),
    ]
    for value, payload in values:
        assert jsonio.canonical_dumps(value) == reference.canonical_dumps(payload(value)), value


def _raising(m, g):
    raise SingularMatrixError("boom")


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("make", [
    trivial_structure, broken_structure, lambda: AtlasStructure("raising", _raising, lambda m: g_identity()),
])
def test_check_reports_write_as_their_payloads(make, eps):
    for seed in range(5):
        with tolerance(eps):
            report = groupoid_check(make(), 6, seed)
        assert jsonio.canonical_dumps(report) == reference.canonical_dumps(reference._check_report(report)), seed


def test_constructed_check_reports_write_as_their_payloads():
    law = LawResult("action-identity", 3, 1, {"detail": "x", "p": -2, "m": AtlasPoint(Matrix2C.diag(0.5, 0.25), 1j)})
    for report in (CheckReport("trivial", 3, 7, ()), CheckReport("x", 3, -1, (law, LawResult("y", 3, 0, None)))):
        assert jsonio.canonical_dumps(report) == reference.canonical_dumps(reference._check_report(report))


# ----------------------------------------------------------------- decoding

DECODERS = [name for name in dir(reference) if name.startswith("dec_")]
NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(-1, 1), st.floats(),
    st.sampled_from([0, 1, 2, 0.5, 0.25, -0.0, 5e-324, 1e308, 2**63, 10**400, -(10**400)]),
)
ODD = st.sampled_from([None, True, False, "x", "0.5", [], {}, [1], [1, 0, 0]])
PAIR = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), st.lists(st.one_of(NUMBERS, ODD), max_size=3), ODD)
INT = st.one_of(st.integers(-3, 5), st.sampled_from([2**63, 10**400, 2.0, True, None, "1"]))


def square(entry):
    """2x2 row-major arrays of `entry`, and ragged or mis-shaped ones."""
    row = st.one_of(st.lists(entry, min_size=2, max_size=2), st.lists(entry, max_size=3), entry)
    return st.one_of(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2),
                     st.lists(row, max_size=3), ODD)


def maybe_extra(objects):
    """Objects, sometimes with one key dropped or one key added."""
    keys = st.sampled_from(["a", "t", "p", "q", "d", "c", "lambda", "params"])
    dropped = st.tuples(objects, keys).map(lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]})
    added = st.tuples(objects, NUMBERS).map(lambda pair: {**pair[0], "extra": pair[1]})
    return st.one_of(objects, objects, dropped, added)


MATRIX = square(PAIR)
A_T = maybe_extra(st.fixed_dictionaries({"a": MATRIX, "t": PAIR}))
DOCUMENTS = st.one_of(
    PAIR,
    MATRIX,
    square(INT),
    maybe_extra(st.fixed_dictionaries({"p": INT, "q": INT, "d": INT})),
    maybe_extra(st.fixed_dictionaries(
        {"stratum": st.sampled_from(["base", "c", "cp", "x", 1]), "params": st.one_of(st.lists(PAIR, max_size=3), ODD)},
        optional={"p": INT})),
    maybe_extra(st.fixed_dictionaries(
        {"class": st.sampled_from(["diagonal", "resonant", "x", None])},
        optional={"lambda1": PAIR, "lambda2": PAIR, "lambda": PAIR, "p": INT, "det_trace": st.lists(PAIR)})),
    maybe_extra(st.fixed_dictionaries({"lambda": PAIR, "p": INT}, optional={"c": PAIR})),
    A_T,
    st.one_of(ODD, NUMBERS),
)

NUMBER_TOKEN = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
REPLACEMENTS = ["1e999", "-1e999", "1" + "0" * 400, "1" + "0" * 5000, "NaN", "Infinity", "-Infinity", "true",
                "null", '"x"', "[1,0]", "0.5", "[]", "{}"]


@st.composite
def texts(draw):
    """The JSON of a drawn document, often mutated: a number token replaced,
    a character dropped, a BOM, deep nesting, whitespace or trailing data."""
    text = json.dumps(draw(DOCUMENTS))  # NaN and Infinity literals included
    mutation = draw(st.sampled_from(["none", "token", "drop", "bom", "nest", "space", "extra"]))
    if mutation == "token" and (tokens := list(NUMBER_TOKEN.finditer(text))):
        token = draw(st.sampled_from(tokens))
        text = text[:token.start()] + draw(st.sampled_from(REPLACEMENTS)) + text[token.end():]
    elif mutation == "drop" and text:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + text[i + 1:]
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "nest":
        depth = draw(st.sampled_from([1, 2, 100_000]))  # far past any recursion limit, or shallow
        text = "[" * depth + text + "]" * depth
    elif mutation == "space":
        text = f" \n{text}\t "
    elif mutation == "extra":
        text += draw(st.sampled_from([" x", "]", ",", "0"]))
    return text


LABELS = st.sampled_from(["input", "--x", "matrix"])


@settings(max_examples=600, deadline=None)
@given(texts(), st.sampled_from(DECODERS), LABELS)
def test_decoders_of_json_text_match_the_reference(text, name, label):
    def decode(module):
        return getattr(module, name)(module.loads_strict(text, label), label)

    assert outcome(decode, jsonio) == outcome(decode, reference)


@settings(max_examples=300, deadline=None)
@given(texts(), LABELS)
def test_loads_strict_matches_the_reference(text, label):
    assert outcome(jsonio.loads_strict, text, label) == outcome(reference.loads_strict, text, label)


PYTHON_NUMBERS = st.one_of(NUMBERS, st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.floats().map(Real))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(PYTHON_NUMBERS, min_size=2, max_size=2), st.tuples(PYTHON_NUMBERS, PYTHON_NUMBERS),
                 square(st.lists(PYTHON_NUMBERS, min_size=2, max_size=2)), DOCUMENTS),
       st.sampled_from(DECODERS), LABELS)
def test_decoders_of_python_values_match_the_reference(value, name, label):
    # non-finite floats, tuples and float subclasses reach a decoder only from Python callers
    assert outcome(getattr(jsonio, name), value, label) == outcome(getattr(reference, name), value, label)


def test_decoder_edge_cases_match_the_reference():
    texts_ = [
        "[true, 0]", '["1", 0]', "[null, 0]", "[1e999, 0]", "[0, -1e999]", f"[{10**400}, 0]", "[NaN, 0]",
        "[0, Infinity]", "\ufeff[0, 1]", "[" * 100_000, '[[[1,0],[0,0]],[[0,0],[1,0],[0,0]]]',
        "[[[1,0],[0,0]],[[0,0]]]",
        '[[[1,0],[0,0]],[[0,0],[true,0]]]', '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[1e999,0]}',
        '{"a":[[[1,0],[2,0]],[[2,0],[4,0]]],"t":[0,0]}', '{"a":[[[1.5,0],[0,0]],[[0,0],[0.5,0]]],"t":[0,1]}',
        '{"p": 0, "q": 1, "d": "2"}', '{"stratum":"cp","p":1,"params":[[0.5,0]]}', "[[1, 2], [3, 4.5]]",
    ]
    for text in texts_:
        for name in DECODERS:
            def decode(module):
                return getattr(module, name)(module.loads_strict(text, "x"), "x")

            assert outcome(decode, jsonio) == outcome(decode, reference), (name, text)
