"""Command-line dispatch, wire format, and the fixture runner."""

import io
import json
import random
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from teichkit import (
    AtlasPoint,
    BasePoint,
    CurvePoint,
    Diagonal,
    GroupElement,
    IntMatrix2,
    Matrix2C,
    Resonant,
    TorusTranslation,
    cli,
    run_fixtures,
)
from teichkit.cli import dispatch, main
from teichkit.foliation import MAX_ORBIT_POINTS
from teichkit.jsonio import SchemaError, canonical_dumps, format_float, loads_strict
from teichkit.tolerance import resolve


FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert format_float(0.1 + 0.2) == "0.3"
        assert format_float(-0.0) == "0"
        assert format_float(1e-13) == "1e-13"
        assert format_float(2.0) == "2"
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_dumps_shapes(self):
        assert canonical_dumps({"b": 1, "a": [True, None, "x"]}) == '{"b":1,"a":[true,null,"x"]}'
        assert canonical_dumps([0.5, -0.25]) == "[0.5,-0.25]"

    def test_dumps_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_dumps({1: 2})

    @pytest.mark.parametrize(
        "value, text",
        [
            (Matrix2C(1, -0.5j, 2.5, 0), "[[[1,0],[0,-0.5]],[[2.5,0],[0,0]]]"),
            (IntMatrix2(1, -5, 0, 1), "[[1,-5],[0,1]]"),
            (GroupElement(Matrix2C.diag(2, 1), 0.5j), '{"a":[[[2,0],[0,0]],[[0,0],[1,0]]],"t":[0,0.5]}'),
            (AtlasPoint(Matrix2C.diag(0.5, 0.25), 1), '{"a":[[[0.5,0],[0,0]],[[0,0],[0.25,0]]],"t":[1,0]}'),
            (BasePoint(0.125, 0.75), '{"stratum":"base","params":[[0.125,0],[0.75,0]]}'),
            (CurvePoint(1, 0.5), '{"stratum":"c","params":[[0.5,0]]}'),
            (CurvePoint(2, 0.5j), '{"stratum":"cp","p":2,"params":[[0,0.5]]}'),
            (Diagonal(0.5, 0.25), '{"class":"diagonal","lambda1":[0.5,0],"lambda2":[0.25,0]}'),
            (Resonant(0.5, 2), '{"class":"resonant","lambda":[0.5,0],"p":2}'),
            (complex(-0.0, -0.0), "[0,0]"),
            (
                {"detail": "d", "m": AtlasPoint(Matrix2C.diag(0.5, 0.5), 0), "g": GroupElement(Matrix2C.identity(), 0),
                 "t": 1 - 2j},
                '{"detail":"d","m":{"a":[[[0.5,0],[0,0]],[[0,0],[0.5,0]]],"t":[0,0]},'
                '"g":{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[0,0]},"t":[1,-2]}',
            ),
        ],
        ids=[
            "Matrix2C", "IntMatrix2", "GroupElement", "AtlasPoint", "BasePoint", "CurvePoint-order-1",
            "CurvePoint-order-2", "Diagonal", "Resonant", "complex-negative-zero", "counterexample",
        ],
    )
    def test_wire_shapes(self, value, text):
        assert canonical_dumps(value) == text

    def test_dumps_refuses_non_finite_complex_and_unknown_types(self):
        with pytest.raises(ValueError):
            canonical_dumps(complex("nan"))
        with pytest.raises(TypeError, match="cannot serialize TorusTranslation"):
            canonical_dumps(TorusTranslation(1j, 0.25, 0))

    def test_loads_strict(self):
        assert loads_strict('{"a": 1}') == {"a": 1}
        with pytest.raises(SchemaError):
            loads_strict("{broken")
        with pytest.raises(SchemaError):
            loads_strict("NaN")
        with pytest.raises(SchemaError):
            loads_strict('{"a": Infinity}')


class TestDecoding:
    def test_complex_shape_errors(self):
        from teichkit.jsonio import dec_complex

        with pytest.raises(SchemaError):
            dec_complex([1.0])
        with pytest.raises(SchemaError):
            dec_complex([1.0, True])

    def test_surd_shape(self):
        from teichkit.jsonio import dec_surd

        assert dec_surd({"p": 0, "q": 1, "d": 2}).d == 2
        with pytest.raises(SchemaError):
            dec_surd({"p": 0, "q": 1})
        with pytest.raises(SchemaError):
            dec_surd({"p": 0, "q": 1, "d": 2, "extra": 1})
        with pytest.raises(SchemaError):
            dec_surd({"p": 0.5, "q": 1, "d": 2})

    def test_teich_point_shape(self):
        from teichkit.jsonio import dec_teich_point

        point = dec_teich_point({"stratum": "cp", "p": 2, "params": [[0.5, 0]]})
        assert loads_strict(canonical_dumps(point)) == {"stratum": "cp", "p": 2, "params": [[0.5, 0]]}
        with pytest.raises(SchemaError):
            dec_teich_point({"stratum": "cp", "p": 1, "params": [[0.5, 0]]})
        with pytest.raises(SchemaError):
            dec_teich_point({"stratum": "??", "params": []})

    @pytest.mark.parametrize(
        "point, message",
        [
            ({"stratum": "base", "params": [[0.15, 0]]}, "base stratum needs [det, trace] params"),
            ({"stratum": "c", "params": [[0.5, 0], [0.5, 0]]}, "stratum c needs a single [lambda] param"),
            ({"stratum": "cp", "p": 2, "params": []}, "stratum cp needs a single [lambda] param"),
        ],
    )
    def test_teich_point_params_arity(self, point, message):
        from teichkit.jsonio import dec_teich_point

        with pytest.raises(SchemaError, match=re.escape(f"point: {message}")):
            dec_teich_point(point)

    @pytest.mark.parametrize(
        "cls, message",
        [
            ({"class": "diagonal", "lambda1": [0.5, 0]}, 'diagonal class needs "lambda1" and "lambda2"'),
            ({"class": "jordan", "lambda": [0.5, 0]}, "unknown class 'jordan'"),
        ],
    )
    def test_hopf_class_shape(self, cls, message):
        from teichkit.jsonio import dec_hopf_class

        with pytest.raises(SchemaError, match=re.escape(f"class: {message}")):
            dec_hopf_class(cls)

    def test_hopf_class_roundtrips_with_extra_keys(self):
        from teichkit.jsonio import dec_hopf_class

        got = dec_hopf_class(
            {"class": "resonant", "lambda": [0.5, 0], "p": 1, "det_trace": [[0.25, 0], [1, 0]]}
        )
        assert got.p == 1

    def test_int_matrix_shape(self):
        from teichkit.jsonio import dec_int_matrix

        assert dec_int_matrix([[1, -5], [0, 1]]).rows() == ((1, -5), (0, 1))
        with pytest.raises(SchemaError):
            dec_int_matrix([[1.5, 0], [0, 1]])

    @pytest.mark.parametrize(
        "decode, good, bad",
        [("dec_matrix2c", [0.5, 0], [True, 0]), ("dec_int_matrix", 1, 1.5)],
    )
    def test_matrix_decoders_name_the_first_bad_entry(self, decode, good, bad):
        from teichkit import jsonio

        decode = getattr(jsonio, decode)
        with pytest.raises(SchemaError, match=r"^matrix\[1\]\[0\] "):
            decode([[good, good], [bad, bad]], "matrix")
        with pytest.raises(SchemaError, match=r"^m\[0\]\[1\] "):
            decode([[good, bad], [bad, good]], "m")
        for ragged in ([[good, good], [good]], [[good, good]], "[[1, 0], [0, 1]]", [[good, good], [good, good, good]]):
            with pytest.raises(SchemaError, match=r"^matrix must be a 2x2 row-major array, got "):
                decode(ragged, "matrix")

    @pytest.mark.parametrize("decode", ["dec_group_element", "dec_atlas_point"])
    def test_a_t_objects_refuse_extra_keys(self, decode):
        from teichkit import jsonio

        decode = getattr(jsonio, decode)
        doc = {"a": [[[0.5, 0], [0, 0]], [[0, 0], [0.25, 0]]], "t": [0, 0]}
        assert decode(doc, "x").a.a == 0.5
        with pytest.raises(SchemaError, match=r'^x must be an object with keys "a" and "t", got '):
            decode({**doc, "extra": 1}, "x")
        with pytest.raises(SchemaError, match=r"^x a\[1\]\[1\] "):
            decode({**doc, "a": [[[0.5, 0], [0, 0]], [[0, 0], 0.25]]}, "x")


class TestDispatchExamples:
    def test_classify_jordan_bytes(self):
        code, out, _ = run(["hopf", "classify", "--matrix", "[[[0.5,0],[1,0]],[[0,0],[0.5,0]]]"])
        assert code == 0
        assert out == '{"class":"resonant","lambda":[0.5,0],"p":1,"det_trace":[[0.25,0],[1,0]]}\n'

    def test_quadratic_roots_bytes_where_atan2_underflows(self):
        argv = ["alg", "quadratic-roots", "--d", "-6.274500688187011e+304", "-1.2287973445484811e-76",
                "--t", "436.5826489614924", "-1.218763825625477e-264"]
        roots = "[[2.50489534476e+152,2.45279178454e-229],[-2.50489534476e+152,-4.90558356907e-229]]"
        assert run(argv) == (0, f'{{"roots":{roots}}}\n', "")

    def test_reduce_bytes(self):
        code, out, _ = run(["tori", "reduce", "--tau", "5", "1"])
        assert code == 0
        assert out == '{"reduced":[0,1],"witness":[[1,-5],[0,1]]}\n'

    def test_morita_bytes(self):
        code, out, _ = run(
            ["fol", "morita", "--alpha", '{"p":0,"q":1,"d":2}', "--beta", '{"p":1,"q":1,"d":2}']
        )
        assert code == 0
        assert out == '{"equivalent":true}\n'

    def test_classify_output_feeds_teich_point(self):
        doc = run_json(["hopf", "classify", "--matrix", "[[[0.5,0],[1,0]],[[0,0],[0.5,0]]]"])
        point = run_json(["teich", "point", "--class", json.dumps(doc)])
        assert point == {"point": {"stratum": "c", "params": [[0.5, 0]]}}

    def test_deterministic_bytes(self):
        argv = ["atlas", "check", "--structure", "trivial", "--samples", "50", "--seed", "3"]
        assert run(argv) == run(argv)

    def test_resonant_form_flag(self):
        doc = run_json(["hopf", "classify", "--resonant", "0.5", "0", "2"])
        assert doc["class"] == "resonant" and doc["p"] == 2
        doc = run_json(["hopf", "classify", "--resonant", "0.5", "0", "2", "0", "0"])
        assert doc["class"] == "diagonal"

    def test_fol_leaf_rational_string(self):
        assert run_json(["fol", "leaf", "--alpha", "2/3"]) == {
            "kind": "closed",
            "vertical": 2,
            "horizontal": 3,
        }

    def test_atlas_check_broken_reports_counterexample(self):
        doc = run_json(["atlas", "check", "--structure", "broken", "--samples", "40", "--seed", "0"])
        assert doc["passed"] is False
        bad = [law for law in doc["laws"] if not law["passed"]]
        assert [law["name"] for law in bad] == ["z-action-target-invariance"]
        assert bad[0]["counterexample"] is not None
        assert isinstance(bad[0]["counterexample"]["m"], dict)


class TestErrorChannels:
    def test_domain_error_is_exit_one_json(self):
        code, out, err = run(["hopf", "classify", "--matrix", "[[[2,0],[0,0]],[[0,0],[0.5,0]]]"])
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "not_contracting"

    def test_lower_half_plane_is_invalid_input(self):
        code, _, err = run(["tori", "reduce", "--tau", "1", "-1"])
        assert code == 1
        assert json.loads(err)["error"] == "invalid_input"

    def test_same_point_error_code(self):
        point = '{"stratum":"base","params":[[0.15,0],[0.8,0]]}'
        code, _, err = run(["teich", "separated", "--x", point, "--y", point])
        assert code == 1
        assert json.loads(err)["error"] == "same_point"

    def test_malformed_json_is_exit_two(self):
        code, _, err = run(["hopf", "classify", "--matrix", "[[[0.5"])
        assert code == 2
        assert "error:" in err

    def test_unknown_verb_is_exit_two(self):
        assert run(["hopf", "frobnicate"])[0] == 2
        assert run(["nope"])[0] == 2
        assert run([])[0] == 2

    def test_group_without_verb_prints_group_usage(self):
        assert run(["alg"]) == (2, "", "usage: teichkit alg [-h] VERB ...\n")
        assert run([]) == (2, "", "usage: teichkit [-h] [--eps EPS] GROUP ...\n")

    def test_integer_past_digit_limit_is_exit_two(self):
        # Python refuses to convert integer literals over 4300 digits
        huge = "1" + "0" * 5000
        for argv in (
            ["alg", "idet", "--matrix", f"[[{huge},0],[0,1]]"],
            ["fol", "cf", "--alpha", f'{{"p":{huge},"q":3,"d":2}}'],
        ):
            code, out, err = run(argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "Traceback" not in err

    def test_integer_past_float_range_is_exit_two(self):
        # 401 digits: under the digit limit, but float() overflows
        code, out, err = run(["alg", "det", "--matrix", f"[[[1{'0' * 400},0],[0,0]],[[0,0],[1,0]]]"])
        assert (code, out) == (2, "")
        assert err == "error: matrix[0][0] real part must be finite, got an integer past float range\n"

    def test_wrong_arity_is_exit_two(self):
        assert run(["tori", "reduce", "--tau", "1"])[0] == 2

    def test_mis_shaped_document_is_exit_two(self):
        # parses as JSON but has the wrong shape for a matrix
        code, _, err = run(["hopf", "classify", "--matrix", "[1,2,3]"])
        assert code == 2

    def test_huge_twist_power_is_bounded(self):
        g = '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[1,0]}'
        m = '{"a":[[[0.5,0],[0,0]],[[0,0],[0.25,0]]],"t":[0,1]}'
        argv = ["atlas", "zaction", "--p", "100000000", "--g", g, "--m", m]
        start = time.perf_counter()
        doc = run_json(argv)
        assert time.perf_counter() - start < 1.0
        assert doc["g"] == json.loads(g)

        # the broken twist's det 0.125**p underflows to 0: a limit of
        # representation, not a singular matrix
        self.assert_json_error([*argv, "--structure", "broken"], "invalid_input")

    def assert_json_error(self, argv, error):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert set(doc) == {"error", "message"} and doc["error"] == error

    def test_long_cf_period_is_limit_exceeded(self):
        # the period of sqrt(d) for this prime d is longer than the expansion limit
        self.assert_json_error(["fol", "cf", "--alpha", '{"p":0,"q":1,"d":1000000000000037}'], "limit_exceeded")

    def test_orbit_of_huge_slope_is_invalid_input(self):
        # reduced mod 1, sqrt(d) of the first is still past float range, as is q of the second
        orbit = ["fol", "orbit", "--z0", "1", "0", "--max-points", "3", "--alpha"]
        for alpha in (f'{{"p":0,"q":1,"d":{10**400 + 1}}}', f'{{"p":1,"q":{10**400},"d":2}}'):
            self.assert_json_error([*orbit, alpha], "invalid_input")

    def test_orbit_of_huge_slope_reduces_exactly(self):
        orbit = ["fol", "orbit", "--z0", "1", "0", "--max-points", "5", "--alpha"]
        assert run([*orbit, "100000000000000000001/3"]) == run([*orbit, "2/3"])
        for alpha, reduced in ((f"{10**400}/3", "1/3"), (f"{10**308}/1", "0"),
                               (f'{{"p":{3 * 10**400},"q":3,"d":2}}', '{"p":0,"q":3,"d":2}')):
            assert run([*orbit, alpha]) == run([*orbit, reduced])

    def test_orbit_size_is_capped(self):
        argv = ["fol", "orbit", "--z0", "1", "0", "--alpha", "1/3", "--max-points"]
        self.assert_json_error([*argv, str(MAX_ORBIT_POINTS + 1)], "limit_exceeded")
        assert len(run_json([*argv, str(MAX_ORBIT_POINTS)])["points"]) == 3


class TestEpsControls:
    ARGS = ["teich", "in-domain", "--d", "0.01", "0", "--t", "0.2", "0"]

    def test_default(self):
        assert run_json(self.ARGS) == {"in_domain": True}

    def test_flag_overrides(self):
        assert run_json(self.ARGS + ["--eps", "0.2"]) == {"in_domain": False}

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("TEICHKIT_EPS", "0.2")
        assert run_json(self.ARGS) == {"in_domain": False}

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("TEICHKIT_EPS", "0.2")
        assert run_json(self.ARGS + ["--eps", "1e-9"]) == {"in_domain": True}

    def test_root_level_flag_position(self):
        assert run_json(["--eps", "0.2"] + self.ARGS) == {"in_domain": False}

    def test_malformed_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("TEICHKIT_EPS", "banana")
        assert run(self.ARGS)[0] == 2

    def test_bad_eps_values_rejected(self):
        assert run(self.ARGS + ["--eps", "0"])[0] == 2
        assert run(self.ARGS + ["--eps", "-1"])[0] == 2
        assert run(self.ARGS + ["--eps", "nan"])[0] == 2

    @pytest.mark.parametrize("flag, env", [("0", None), ("-1", None), ("nan", None), ("inf", None), (None, "banana")])
    def test_invalid_eps_is_one_error_line(self, monkeypatch, flag, env):
        if env is None:
            monkeypatch.delenv("TEICHKIT_EPS", raising=False)
        else:
            monkeypatch.setenv("TEICHKIT_EPS", env)
        code, out, err = run(self.ARGS + (["--eps", flag] if flag else []))
        assert (code, out) == (2, "")
        assert err.startswith("error: eps must be a positive finite real") and err.count("\n") == 1

    def test_default_restored_after_dispatch(self):
        before = resolve()
        run(self.ARGS + ["--eps", "0.2"])
        assert resolve() == before

    def test_default_restored_after_error(self):
        before = resolve()
        run(["tori", "reduce", "--tau", "1", "-1", "--eps", "0.2"])
        assert resolve() == before

    def test_env_is_read_on_every_dispatch(self, monkeypatch):
        monkeypatch.setenv("TEICHKIT_EPS", "1e-9")
        assert run_json(self.ARGS) == {"in_domain": True}
        monkeypatch.setenv("TEICHKIT_EPS", "0.2")
        assert run_json(self.ARGS) == {"in_domain": False}


class TestSuccessPathBuildsOnlyOutput:
    """A successful call builds what it prints: no JSON decoder per flag and
    no json.dumps per string, so stdlib helpers are counted where they are
    looked up at call time."""

    GMUL = ["atlas", "gmul", "--x", '{"a":[[[2,0],[0,0]],[[0,0],[1,0]]],"t":[0,1]}',
            "--y", '{"a":[[[1,0],[0,0]],[[0,0],[1,0]]],"t":[1,0]}']
    PRINTED = '{"result":{"a":[[[2,0],[0,0]],[[0,0],[1,0]]],"t":[2,1]}}\n'

    def test_no_json_decoder_is_built(self, monkeypatch):
        built, init = [], json.JSONDecoder.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "__init__", counting)
        assert run(self.GMUL) == (0, self.PRINTED, "")
        assert built == []

    def test_no_json_dumps_call(self, monkeypatch):
        calls, dumps = [], json.dumps
        monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
        assert run(self.GMUL) == (0, self.PRINTED, "")
        assert run(["fol", "leaf", "--alpha", "1/3"]) == (0, '{"kind":"closed","vertical":1,"horizontal":3}\n', "")
        assert calls == []


class TestParserReuse:
    """The parser keeps no state between calls; no dispatch may see an earlier one."""

    RESONANCE = ["hopf", "resonance", "--big", "0.5", "0", "--small", "0.2505", "0"]
    # each unit runs as one block, so --eps is always followed by a run without it
    EXTRA_UNITS = [
        [[]],
        [["hopf"]],
        [["nope"]],
        [["alg", "det"]],
        [["hopf", "classify", "--matrix", "[[[0.5,0],[0,0]],[[0,0],[0.25,0]]]", "--resonant", "0.5", "0", "2"]],
        [["--help"]],
        [[*RESONANCE, "--eps", "1e-3"], RESONANCE],
    ]

    def test_help_ignores_terminal_width(self, monkeypatch):
        argv = ["hopf", "classify", "--help"]
        monkeypatch.setenv("COLUMNS", "40")
        narrow = run(argv)
        monkeypatch.setenv("COLUMNS", "200")
        assert run(argv) == narrow

    def test_replay_is_independent_of_dispatch_order(self):
        commands = [json.loads(path.read_text())["command"] for path in sorted(FIXTURES_DIR.glob("*.json"))]
        units = [[[str(part) for part in command]] for command in commands] + self.EXTRA_UNITS
        first = [[run(argv) for argv in unit] for unit in units]

        extra = first[len(commands):]
        assert [outcome[0][0] for outcome in extra[:5]] == [2] * 5
        code, out, err = extra[5][0]
        assert code == 0 and out.startswith("usage: teichkit") and err == ""
        assert [outcome[1] for outcome in extra[6]] == ['{"p":2}\n', '{"p":null}\n']

        for seed in (1, 2):
            order = list(range(len(units)))
            random.Random(seed).shuffle(order)
            for i in order:
                assert [run(argv) for argv in units[i]] == first[i], units[i]


class TestReplacedFunctionIsCalled:
    """A library function replaced at every binding in the teichkit modules,
    the package's included, as perfbench's tracer patches them, is what the
    next dispatch calls; once restored, the original is called again."""

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["alg", "quadratic-roots", "--d", "0.125", "0", "--t", "0.75", "0"], "algebra", "quadratic_roots"),
            (["tori", "reduce", "--tau", "0.1", "0.1"], "tori", "reduce_fundamental_domain"),
            (["hopf", "classify", "--matrix", "[[[0.5,0],[0,0]],[[0,0],[0.25,0]]]"], "hopf", "classify"),
            (["teich", "twin", "--point", '{"stratum":"c","params":[[0.5,0]]}'], "teich", "twin"),
            (["fol", "cf", "--alpha", "2/5"], "foliation", "cf_expand"),
            (TestSuccessPathBuildsOnlyOutput.GMUL, "atlas", "g_mul"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_next_dispatch_calls_the_replacement(self, argv, module, name):
        warm = run(argv)  # loads and keeps every name the verb reads
        assert warm[0] == 0, warm
        original = getattr(sys.modules[f"teichkit.{module}"], name)
        calls = []

        def replacement(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        bindings = [
            (namespace, attr)
            for modname, namespace in list(sys.modules.items())
            if modname == "teichkit" or modname.startswith("teichkit.")
            for attr, value in list(vars(namespace).items())
            if value is original
        ]
        try:
            for namespace, attr in bindings:
                setattr(namespace, attr, replacement)
            assert run(argv) == warm
        finally:
            for namespace, attr in bindings:
                setattr(namespace, attr, original)
        assert calls
        called = len(calls)
        assert run(argv) == warm
        assert len(calls) == called


class TestTableParser:
    def test_negative_values_are_values(self):
        assert run(["tori", "reduce", "--tau", "-1e-3", "1"]) == run(["tori", "reduce", "--tau", "-0.001", "1"])
        assert run(["tori", "reduce", "--tau", "-1e-3", "1"])[0] == 0
        assert run(["fol", "cf", "--alpha", "-7/3"]) == (0, '{"preperiod":[-3,1,2],"period":[]}\n', "")
        assert run(["fol", "cf", "--alpha", "-7/3"]) == run(["fol", "cf", "--alpha=-7/3"])
        assert run(["hopf", "classify", "--resonant", "0.5", "0", "-inf"]) == (
            2, "", "error: resonance order must be an integer, got -inf\n"
        )

    def test_option_forms(self):
        reduce = run(["tori", "reduce", "--tau", "5", "1"])
        assert run(["tori", "reduce", "--tau", "9", "9", "--tau", "5", "1"]) == reduce  # the last repeat wins
        assert run(["tori", "reduce", "--ta", "5", "1"]) == reduce  # a unique prefix
        orbit = ["fol", "orbit", "--z0", "1", "0", "--alpha", "1/3"]
        assert run([*orbit, "--max", "2"]) == run([*orbit, "--max-points=2"]) == run([*orbit, "--max-points", "2"])
        assert run_json(["hopf", "classify", "--resonant", "0.5", "0", "2", "--eps", "1e-6"])["p"] == 2

    @pytest.mark.parametrize("argv, message", [
        (["atlas", "check", "--s", "3"], "ambiguous option: --s could match --structure, --samples, --seed"),
        (["tori", "reduce", "--tau=5", "1"], "argument --tau: expected 2 value(s)"),
        (["tori", "reduce", "--tau", "5", "--eps", "1"], "argument --tau: expected 2 value(s)"),
        (["hopf", "classify", "--resonant"], "argument --resonant: expected at least 1 value(s)"),
        (["alg", "idet", "--help=x"], "argument --help: takes no value"),
        (["alg", "idet", "--matrix", "[[1,0],[0,1]]", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["alg", "idet"], "the following arguments are required: --matrix"),
        (["hopf", "classify"], "the following arguments are required: --matrix | --resonant"),
        (["atlas", "check", "--structure", "odd"],
         "argument --structure: invalid choice: 'odd' (choose from trivial, broken)"),
        (["atlas", "check", "--samples", "1.5"], "argument --samples: invalid int value in ['1.5']"),
        (["nope"], "invalid choice: 'nope' (choose from alg, tori, hopf, teich, fol, atlas, fixtures)"),
    ])
    def test_usage_errors(self, argv, message):
        code, out, err = run(argv)
        usage, error = err.splitlines()
        assert (code, out) == (2, "") and usage.startswith("usage: teichkit")
        assert error.endswith(f": error: {message}")

    def test_usage_line_lists_the_flags(self):
        assert run(["hopf", "classify", "--matrix", "[]", "--resonant", "1"])[2].splitlines()[0] == (
            "usage: teichkit hopf classify [-h] [--eps EPS] (--matrix MATRIX | --resonant V [V ...])"
        )
        assert run(["atlas", "check", "-x"])[2].splitlines()[0] == (
            "usage: teichkit atlas check [-h] [--eps EPS] "
            "[--structure {trivial,broken}] [--samples SAMPLES] [--seed SEED]"
        )

    def test_help_is_made_from_the_table(self):
        for argv, names in (
            (["-h"], [*cli.GROUPS, "--eps EPS"]),
            (["alg", "--help"], [verb.name for verb in cli.VERBS if verb.group == "alg"]),
            (["fol", "orbit", "--he"], ["--z0 RE IM", "--alpha ALPHA", "--max-points MAX-POINTS", "--eps EPS"]),
        ):
            code, out, err = run(argv)
            assert (code, err) == (0, "") and out.startswith("usage: teichkit")
            rows = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
            assert rows == [name.split()[0] for name in names] + ["-h,"]
            assert all(name in out for name in names)

    def test_help_wins_over_later_errors_only(self):
        assert run(["alg", "idet", "-h", "--bogus"])[0] == 0
        assert run(["alg", "idet", "--bogus", "-h"])[0] == 0
        assert run(["tori", "reduce", "--tau", "x", "0", "-h"])[0] == 2


class TestMain:
    def test_main_prints_to_stdout(self, capsys):
        assert main(["alg", "idet", "--matrix", "[[1,1],[0,1]]"]) == 0
        assert capsys.readouterr().out == '{"det":1}\n'

    def test_main_error_exit(self, capsys):
        assert main(["tori", "reduce", "--tau", "1", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid_input"


def write_fixture(directory, name, doc):
    (directory / name).write_text(json.dumps(doc))


class TestFixtureRunner:
    def test_empty_directory_passes_vacuously(self, tmp_path):
        summary = run_fixtures(tmp_path)
        assert summary == {"total": 0, "passed": 0, "failed": 0, "byte_exact": True, "failures": []}

    def test_passing_fixture(self, tmp_path):
        write_fixture(
            tmp_path,
            "det.json",
            {"command": ["alg", "idet", "--matrix", "[[1,1],[0,1]]"], "expected": {"det": 1}},
        )
        summary = run_fixtures(tmp_path)
        assert summary["passed"] == 1 and summary["byte_exact"] is True

    def test_numeric_command_parts_allowed(self, tmp_path):
        write_fixture(
            tmp_path,
            "reduce.json",
            {
                "command": ["tori", "reduce", "--tau", 5, 1],
                "expected": {"reduced": [0, 1], "witness": [[1, -5], [0, 1]]},
            },
        )
        assert run_fixtures(tmp_path)["failed"] == 0

    def test_near_miss_fails_with_reason(self, tmp_path):
        # within 1e-9 of the output, but not its bytes: a failure, not a pass
        write_fixture(
            tmp_path,
            "near.json",
            {"command": ["alg", "idet", "--matrix", "[[1,1],[0,1]]"], "expected": {"det": 1.0000000001}},
        )
        summary = run_fixtures(tmp_path)
        assert summary["failed"] == 1
        assert summary["byte_exact"] is False
        assert summary["failures"][0]["reason"] == 'output {"det":1} != expected {"det":1.0000000001}'

    def test_wrong_value_fails_with_reason(self, tmp_path):
        write_fixture(
            tmp_path,
            "bad.json",
            {"command": ["alg", "idet", "--matrix", "[[1,1],[0,1]]"], "expected": {"det": 2}},
        )
        summary = run_fixtures(tmp_path)
        assert summary["failed"] == 1
        assert summary["failures"][0]["fixture"] == "bad.json"
        assert '"det":2' in summary["failures"][0]["reason"]

    def test_expected_error_fixture(self, tmp_path):
        write_fixture(
            tmp_path,
            "err.json",
            {
                "command": ["tori", "reduce", "--tau", "1", "-1"],
                "exit": 1,
                "expected_error": {
                    "error": "invalid_input",
                    "message": "tau must lie in the upper half-plane, got (1-1j)",
                },
            },
        )
        assert run_fixtures(tmp_path)["failed"] == 0

    def test_exit_code_mismatch(self, tmp_path):
        write_fixture(
            tmp_path,
            "boom.json",
            {"command": ["tori", "reduce", "--tau", "1", "-1"], "expected": {}},
        )
        summary = run_fixtures(tmp_path)
        assert summary["failed"] == 1
        assert "exit code 1" in summary["failures"][0]["reason"]

    def test_malformed_fixture_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.json").write_text("{nope")
        write_fixture(tmp_path, "list.json", {"command": "not-a-list"})
        summary = run_fixtures(tmp_path)
        assert summary["total"] == 2 and summary["failed"] == 2

    @pytest.mark.parametrize("part", [True, None, ["alg"], {"verb": "idet"}])
    def test_command_entries_must_be_strings_or_numbers(self, tmp_path, part):
        write_fixture(tmp_path, "odd.json", {"command": ["alg", part], "expected": {}})
        summary = run_fixtures(tmp_path)
        assert summary["failed"] == 1
        assert summary["failures"][0]["reason"] == "command entries must be strings or numbers"

    def test_missing_expected_document(self, tmp_path):
        write_fixture(tmp_path, "holey.json", {"command": ["alg", "idet", "--matrix", "[[1,0],[0,1]]"]})
        summary = run_fixtures(tmp_path)
        assert summary["failed"] == 1

    def test_non_directory_raises(self, tmp_path):
        with pytest.raises(SchemaError):
            run_fixtures(tmp_path / "missing")

    def test_cli_verb_exit_codes(self, tmp_path):
        write_fixture(
            tmp_path,
            "ok.json",
            {"command": ["alg", "idet", "--matrix", "[[1,0],[0,1]]"], "expected": {"det": 1}},
        )
        code, out, _ = run(["fixtures", "run", "--dir", str(tmp_path)])
        assert code == 0
        assert json.loads(out)["passed"] == 1

        write_fixture(
            tmp_path,
            "zz_bad.json",
            {"command": ["alg", "idet", "--matrix", "[[1,0],[0,1]]"], "expected": {"det": 3}},
        )
        code, out, _ = run(["fixtures", "run", "--dir", str(tmp_path)])
        assert code == 1
        assert json.loads(out)["failed"] == 1


class TestExtremeScales:
    HUGE = "[[[1e300,0],[0,0]],[[0,0],[1e-300,0]]]"

    def test_eigen_of_a_huge_trace_prints_its_eigenvalues(self):
        assert run(["alg", "eigen", "--matrix", self.HUGE]) == (
            0, '{"eigenvalues":[[1e+300,0],[1e-300,0]],"diagonalizable":true}\n', ""
        )

    def test_huge_trace_is_not_contracting(self):
        assert run_json(["hopf", "contracting", "--matrix", self.HUGE]) == {"contracting": False}
        code, out, err = run(["hopf", "classify", "--matrix", self.HUGE])
        assert (code, out, json.loads(err)["error"]) == (1, "", "not_contracting")

    def test_roots_of_a_huge_trace(self):
        assert run_json(["alg", "quadratic-roots", "--d", "1e308", "0", "--t", "1e308", "0"]) == {
            "roots": [[1e308, 0], [1, 0]]
        }


def test_concurrent_help_and_usage_errors_keep_to_their_streams():
    # help goes to the call's out and usage errors to its err, and the
    # process-wide streams are never swapped, whichever thread runs
    argvs = [["--help"], ["alg", "--help"], ["hopf", "classify", "--help"], ["nope"], ["alg", "idet"],
             ["tori", "reduce", "--tau", "x", "0"], ["teich"]]
    expected = {tuple(argv): run(argv) for argv in argvs}
    assert all(out or err for _, out, err in expected.values())
    stdout, stderr = sys.stdout, sys.stderr
    outcomes, start = [], threading.Barrier(8)

    def worker(offset):
        start.wait(30)
        for i in range(40):
            argv = argvs[(offset + i) % len(argvs)]
            outcomes.append((tuple(argv), run(argv)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sys.stdout is stdout and sys.stderr is stderr
    assert len(outcomes) == 8 * 40
    for argv, outcome in outcomes:
        assert outcome == expected[argv], argv
