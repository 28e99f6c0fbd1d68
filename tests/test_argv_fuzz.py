"""Fuzzed argv: the total CLI contract, and the table parser against argparse.

Every argv, well formed, mutated or random, must exit 0, 1 or 2 without a
traceback, with exactly one JSON document on stdout on exit 0 (help aside)
and on stderr on exit 1.  Where the argparse reading of the same table
(tests/argparse_reference.py) accepts an argv too, both parsers must give
the same verb, flag values and --eps; every other disagreement must be one
of the differences named in `argued`.

Values come from the fixture corpus, per kind, plus numbers, huge integers,
nan and inf and malformed JSON.  Integers stay small or are past every cap:
an --samples, --p or --max-points between the two would be slow, not wrong.
Slopes are fixed strings, since a surd with a d of thousands of digits is a
known unbounded case of fol cf.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argparse_reference as reference
from teichkit import cli

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def corpus_values() -> dict[str, list[list[str]]]:
    """The values each kind of flag takes in the fixture corpus."""
    flags = {(verb.group, verb.name, f"--{flag.name}"): reference.kind_name(flag)
             for verb in cli.VERBS for flag in verb.flags}
    values: dict[str, list[list[str]]] = {name: [] for name in cli.KINDS}
    for path in sorted(FIXTURES_DIR.glob("*.json")):
        command = [str(part) for part in json.loads(path.read_text())["command"]]
        current = None
        for token in command[2:]:
            if token.startswith("--"):
                name, eq, value = token.partition("=")
                current = flags.get((*command[:2], name))
                if current is not None:
                    values[current].append([value] if eq else [])
            elif current is not None:
                values[current][-1].append(token)
    return {name: [v for v in found if v] for name, found in values.items()}


CORPUS = corpus_values()
HUGE = [str(2**31), str(2**63), str(10**30), str(10**400), "1" + "0" * 5000]
# two draws in three are plain numbers, so that most well-formed argv reach a verb
PLAIN = st.one_of(st.floats(-4, 4).map(repr), st.integers(-3, 3).map(str))
NUMBER = st.one_of(PLAIN, PLAIN, st.floats().map(repr), st.sampled_from(
    ["-1e-3", "-0.001", "1e400", "-1e400", "-inf", "inf", "nan", "1_0", " 2 ", "x", "", "-", "-.5", *HUGE]))
INT = st.one_of(st.integers(0, 20).map(str), st.integers(0, 20).map(str),
                st.sampled_from([*HUGE, "x", "1.5", "-1", " 7", "1_0", "", "-inf"]))
MALFORMED = ["[[[0.5", "[1,2,3]", "{}", "null", "x", "", "[[1e999,0],[0,1]]", f"[[{10**400},0],[0,1]]",
             "[[[NaN,0],[0,0]],[[0,0],[1,0]]]", f"[[{'1' + '0' * 5000},0],[0,1]]", "[" * 2000 + "]" * 2000]
EXTRA = {
    "slope": ["-7/3", "100000000000000000001/3", f"{10**400}/3", f"{10**308}/1", "1/0", "x", "-1e-3", "-inf",
              '{"p":0,"q":1,"d":4}', '{"p":-3,"q":2,"d":7}', f'{{"p":{10**400},"q":3,"d":2}}'],
    "structure": ["trivial", "broken", "bogus", ""],
    "text": [".", "nope", ""],
}


def values_of(flag: cli.Flag):
    kind = reference.kind_name(flag)
    if kind == "pair":
        return st.lists(NUMBER, min_size=2, max_size=2)
    if kind == "resonant":  # lambda, an integer order and an optional c, or any numbers
        form = st.tuples(NUMBER, NUMBER, st.integers(-2, 70).map(str), st.lists(NUMBER, min_size=0, max_size=2))
        return st.one_of(form.map(lambda v: [*v[:3], *v[3]]), st.lists(NUMBER, min_size=1, max_size=6))
    if kind in ("int", "float"):
        return st.lists(INT if kind == "int" else NUMBER, min_size=1, max_size=1)
    odd = [[value] for value in EXTRA.get(kind, MALFORMED)]
    usual = st.sampled_from(CORPUS[kind] or odd)  # no fixture runs `fixtures run`
    return st.one_of(usual, usual, st.sampled_from(odd))


def spelling(name: str):
    """--name, or a prefix of it, which may be ambiguous among the verb's options."""
    return st.one_of(st.just(name), st.sampled_from([name[:n] for n in range(3, len(name) + 1)]))


@st.composite
def well_formed(draw) -> list[str]:
    verb = draw(st.sampled_from(cli.VERBS))
    if verb.one_of:  # one flag, or both, which is a usage error
        flags = draw(st.lists(st.sampled_from(verb.flags), min_size=1, max_size=2, unique=True))
    else:
        flags = [flag for flag in verb.flags if flag.default is cli._REQUIRED or draw(st.booleans())]
    parts = []
    for flag in flags:
        for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):  # the last of two copies wins
            values = draw(values_of(flag))
            name = draw(spelling(f"--{flag.name}"))
            joined = len(values) == 1 and draw(st.booleans())
            parts.append([f"{name}={values[0]}"] if joined else [name, *values])
    argv = [verb.group, verb.name, *(token for part in draw(st.permutations(parts)) for token in part)]
    eps = draw(st.sampled_from([None, None, None, "0.2", "1e-12", "0", "-1", "nan", "x"]))
    if eps is not None:
        eps = [draw(spelling("--eps")), eps]
        argv = [*eps, *argv] if draw(st.booleans()) else [*argv, *eps]
    return argv


GROUP_AND_VERB_NAMES = sorted({*cli.GROUPS, *(verb.name for verb in cli.VERBS)})
FLAG_NAMES = sorted({f"--{flag.name}" for verb in cli.VERBS for flag in verb.flags})
TOKENS = st.one_of(
    st.sampled_from([
        "-h", "--help", "--he", "--h", "--help=x", "--", "-", "-x", "-hx", "-h x", "--bogus", "--bogus=1",
        "--eps", "--eps=0.1", "--=x", "--s", "--m", "--ma", "-1", "-1e-3", "-inf", "-7/3", "nan", "inf", "",
        "x", "--matrix=[[1,2],[3,4]]", "--max 3", "- 1", *GROUP_AND_VERB_NAMES, *FLAG_NAMES,
    ]),
    NUMBER,
    st.text(max_size=6),
)


@st.composite
def mutated(draw) -> list[str]:
    argv = draw(well_formed())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "swap", "duplicate", "truncate"]))
        if edit == "insert" or not argv:
            argv.insert(i, draw(TOKENS))
            continue
        i = min(i, len(argv) - 1)
        j = draw(st.integers(0, len(argv) - 1))
        if edit == "delete":
            del argv[i]
        elif edit == "replace":
            argv[i] = draw(TOKENS)
        elif edit == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        elif edit == "duplicate":
            argv.insert(j, argv[i])
        elif argv[i].startswith("--"):
            argv[i] = argv[i][: draw(st.integers(2, len(argv[i])))]
    return argv


@st.composite
def random_argv(draw) -> list[str]:
    head = draw(st.sampled_from([[], *([v.group] for v in cli.VERBS[::5]), *([v.group, v.name] for v in cli.VERBS)]))
    return [*head, *draw(st.lists(TOKENS, max_size=8))]


def argued(argv: list[str], ref: tuple, new: tuple) -> str | None:
    """The difference from argparse, argued in CHANGES.md, that `argv` hits."""
    negative = reference.PARSER._negative_number_matcher
    for token in argv:
        if token == "--":
            return "argparse ends options at --; the table parser has no such marker"
        if token[:1] == "-" and token[:2] != "--" and token != "-h" and len(token) > 1:
            if token.startswith("-h") or (" " not in token and not negative.match(token)):
                return "a token that starts with one dash is a value, not an option"
        if token.startswith("--") and " " in token:
            return "argparse reads a --token with a space that names no option as a value"
    if ref[0] == "usage" and "ambiguous option" in ref[1] and new == ("help",):
        return "options are read in order, so -h before an ambiguous option prints help"
    return None


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module", autouse=True)
def empty_working_directory(tmp_path_factory):
    # `fixtures run --dir .` then reads an empty directory
    before = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    os.chdir(before)


def check(argv: list[str]) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    new = reference.table_outcome(argv)
    if new == ("help",):
        assert (code, err) == (0, "") and out.startswith("usage: teichkit "), argv
    elif code == 0:
        assert err == "" and out.count("\n") == 1 and out.endswith("\n"), argv
        json.loads(out)
    elif code == 1:
        assert out == "" and err.count("\n") == 1, argv
        assert set(json.loads(err)) == {"error", "message"}, argv
    else:
        assert out == "" and err, argv
    ref = reference.outcome(argv)
    assert reference.same(ref, new) or argued(argv, ref, new), (argv, ref, new)


@settings(max_examples=400, deadline=None)
@given(well_formed())
def test_well_formed_argv(argv):
    check(argv)


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_argv(argv):
    check(argv)


@settings(max_examples=400, deadline=None)
@given(random_argv())
def test_random_argv(argv):
    check(argv)


def test_corpus_values_cover_every_json_kind():
    assert all(CORPUS[kind] for kind in cli.KINDS if kind not in ("int", "float", "text", "resonant"))
