"""The CLI verb table: fixture coverage, and argv that once escaped as tracebacks."""

import io
import json
from pathlib import Path

from teichkit import cli
from teichkit.atlas import MAX_CHECK_SAMPLES

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def assert_json_error(argv, error):
    code, out, err = run(argv)
    assert (code, out) == (1, ""), (argv, err)
    doc = json.loads(err)
    assert set(doc) == {"error", "message"} and doc["error"] == error


def test_every_verb_has_a_fixture():
    covered = {tuple(json.loads(path.read_text())["command"][:2]) for path in FIXTURES_DIR.glob("*.json")}
    rows = {(verb.group, verb.name) for verb in cli.VERBS} - {("fixtures", "run")}
    assert len(rows) == len(cli.VERBS) - 1
    assert sorted(rows - covered) == []


def test_non_finite_resonance_order_is_usage_error():
    for order in ("inf", "-inf", "nan"):
        code, out, err = run(["hopf", "classify", "--resonant", "0.5", "0", order])
        assert (code, out) == (2, ""), order
        # "-inf" is a value: only "-h" and tokens that start with "--" are options
        assert err == f"error: resonance order must be an integer, got {order}\n"


def test_unprintable_result_is_invalid_input():
    for argv in (
        ["alg", "det", "--matrix", "[[[1e200,0],[0,0]],[[0,0],[1e200,0]]]"],
        ["alg", "trace", "--matrix", "[[[1.7e308,0],[0,0]],[[0,0],[1.7e308,0]]]"],
        # a root whose modulus is past float range
        ["alg", "quadratic-roots", "--d", "0", "0", "--t", "1.7e308", "1.7e308"],
        ["tori", "moebius", "--matrix", "[[0,-1],[1,0]]", "--tau", "0", "1e-320"],
        ["tori", "reduce", "--tau", "0", "1e-320"],
        ["tori", "lattice-reduce", "--z", "1e308", "1e308", "--tau", "0", "1e-300"],
        # an exact product past the interpreter's 4300-digit int-to-str limit
        ["alg", "imul", "--a", f"[[{10**3000},0],[0,1]]", "--b", f"[[{10**3000},0],[0,1]]"],
    ):
        assert_json_error(argv, "invalid_input")


def test_check_sample_count_is_capped():
    # cap + 1 only: running the cap itself takes seconds
    assert_json_error(["atlas", "check", "--samples", str(MAX_CHECK_SAMPLES + 1)], "limit_exceeded")


# finite parts whose modulus is past float range
HUGE = "1.3e308"
HUGE_MATRIX = f"[[[{HUGE},{HUGE}],[0,0]],[[0,0],[1,0]]]"
HUGE_ELEMENT = f'{{"a":{HUGE_MATRIX},"t":[0,0]}}'


def test_modulus_past_float_range_is_invalid_input():
    for argv in (
        # each part is finite, but the modulus of lambda_small is past float range
        ["hopf", "resonance", "--big", "0.5", "0", "--small", "1.3e308", "1.3e308"],
        # reduction inverts tau, and 1/tau overflows
        ["tori", "reduce", "--tau", "1e-320", "1e-320"],
        # the library refuses an eigenvalue modulus past float range as outside the unit band
        ["teich", "point", "--class", f'{{"class":"diagonal","lambda1":[{HUGE},{HUGE}],"lambda2":[0.25,0]}}'],
        ["teich", "point", "--class", f'{{"class":"resonant","lambda":[{HUGE},{HUGE}],"p":2,"c":[1,0]}}'],
        # the library's singularity test refuses a det term whose modulus is past float range
        ["atlas", "ginv", "--x", HUGE_ELEMENT],
        ["atlas", "gmul", "--x", HUGE_ELEMENT, "--y", '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[0,0]}'],
        ["alg", "inv", "--matrix", HUGE_MATRIX],
    ):
        assert_json_error(argv, "invalid_input")
    # a start point whose modulus is past float range is not on the unit circle
    assert_json_error(["fol", "orbit", "--z0", HUGE, HUGE, "--alpha", "1/3", "--max-points", "3"], "not_on_circle")
    # a resonant form's lambda past float range lies outside the unit band, as lambda 2 does
    for lam in (f"[{HUGE},{HUGE}]", "[2,0]"):
        assert_json_error(["hopf", "biholo", "--a", f'{{"lambda":{lam},"p":2,"c":[1,0]}}',
                           "--b", '{"lambda":[0.5,0],"p":2,"c":[1,0]}'], "not_contracting")


def test_deeply_nested_json_is_usage_error():
    code, out, err = run(["alg", "idet", "--matrix", "[" * 5000 + "]" * 5000])
    assert (code, out, err) == (2, "", "error: matrix: JSON nested too deeply\n")
