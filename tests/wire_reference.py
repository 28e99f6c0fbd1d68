"""The isinstance-chain wire code: the oracle of the differential wire tests.

This is the JSON reader and writer the CLI had before its fast paths, kept
as it was: ``_write`` tests each value with ``isinstance`` and writes
strings and keys with ``json.dumps``; ``loads_strict`` builds a decoder per
call through ``json.loads``; every decoder builds its labels before it
checks.  ``format_float``, ``wire`` and ``SchemaError`` are unchanged, so
they are the library's own.  ``_leaf``, ``_leaf_space``,
``_continued_fraction`` and ``_check_report`` are the payloads the CLI built
for `fol leaf`, `fol leafspace`, `fol cf` and `atlas check` before ``wire``
spelled those types.
"""

from __future__ import annotations

import json
import math

from teichkit import algebra, atlas, foliation, hopf, surd, teich
from teichkit.jsonio import SchemaError, format_float, wire


def canonical_dumps(obj) -> str:
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(repr(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, complex):
        parts.append(f"[{format_float(obj.real)},{format_float(obj.imag)}]")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _write(value, parts)
        parts.append("}")
    else:
        _write(wire(obj), parts)


def loads_strict(text: str, what: str = "input"):
    def reject(token: str):
        raise SchemaError(f"{what}: non-finite number {token} is not allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: malformed JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SchemaError(f"{what}: {exc}") from exc
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise SchemaError(f"{what}: JSON nested too deeply") from None


def _real(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{what} must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer past float range
        raise SchemaError(f"{what} must be finite, got an integer past float range") from None
    if math.isnan(v) or math.isinf(v):
        raise SchemaError(f"{what} must be finite, got {v!r}")
    return v


def _int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    return v


def dec_complex(v, what: str = "complex value") -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"{what} must be a [re, im] pair, got {v!r}")
    return complex(_real(v[0], f"{what} real part"), _real(v[1], f"{what} imaginary part"))


def _entries(v, what: str, entry) -> list:
    """The entries of a 2x2 row-major array, each decoded by entry(value,
    label) in a, b, c, d order, so the first bad one raises."""
    if not isinstance(v, list) or len(v) != 2 or any(not isinstance(r, list) or len(r) != 2 for r in v):
        raise SchemaError(f"{what} must be a 2x2 row-major array, got {v!r}")
    return [entry(v[i][j], f"{what}[{i}][{j}]") for i in (0, 1) for j in (0, 1)]


def dec_matrix2c(v, what: str = "matrix") -> algebra.Matrix2C:
    return algebra.Matrix2C(*_entries(v, what, dec_complex))


def dec_int_matrix(v, what: str = "integer matrix") -> algebra.IntMatrix2:
    return algebra.IntMatrix2(*_entries(v, what, _int))


def dec_surd(v, what: str = "quadratic irrational") -> surd.QuadraticIrrational:
    if not isinstance(v, dict) or set(v) != {"p", "q", "d"}:
        raise SchemaError(f'{what} must be an object with keys "p", "q", "d", got {v!r}')
    return surd.QuadraticIrrational(_int(v["p"], f"{what} p"), _int(v["q"], f"{what} q"), _int(v["d"], f"{what} d"))


def dec_teich_point(v, what: str = "point") -> teich.TeichPoint:
    if not isinstance(v, dict) or "stratum" not in v:
        raise SchemaError(f'{what} must be an object with a "stratum" key, got {v!r}')
    stratum = v["stratum"]
    params = v.get("params")
    if not isinstance(params, list):
        raise SchemaError(f'{what} must carry a "params" array')
    if stratum == "base":
        if len(params) != 2:
            raise SchemaError(f"{what}: base stratum needs [det, trace] params")
        return teich.BasePoint(dec_complex(params[0], f"{what} det"), dec_complex(params[1], f"{what} trace"))
    if stratum == "c":
        if len(params) != 1:
            raise SchemaError(f"{what}: stratum c needs a single [lambda] param")
        return teich.CurvePoint(1, dec_complex(params[0], f"{what} lambda"))
    if stratum == "cp":
        if len(params) != 1:
            raise SchemaError(f"{what}: stratum cp needs a single [lambda] param")
        p = _int(v.get("p"), f"{what} p")
        if p < 2:
            raise SchemaError(f"{what}: stratum cp needs p >= 2, got {p}")
        return teich.CurvePoint(p, dec_complex(params[0], f"{what} lambda"))
    raise SchemaError(f"{what}: unknown stratum {stratum!r}")


def dec_hopf_class(v, what: str = "class") -> hopf.HopfClass:
    # extra keys (e.g. the det_trace echoed by `hopf classify`) are ignored
    # so classification output can be piped straight back in
    if not isinstance(v, dict) or "class" not in v:
        raise SchemaError(f'{what} must be an object with a "class" key, got {v!r}')
    kind = v["class"]
    if kind == "diagonal":
        if "lambda1" not in v or "lambda2" not in v:
            raise SchemaError(f'{what}: diagonal class needs "lambda1" and "lambda2"')
        return hopf.Diagonal(dec_complex(v["lambda1"], f"{what} lambda1"), dec_complex(v["lambda2"], f"{what} lambda2"))
    if kind == "resonant":
        if "lambda" not in v or "p" not in v:
            raise SchemaError(f'{what}: resonant class needs "lambda" and "p"')
        return hopf.Resonant(dec_complex(v["lambda"], f"{what} lambda"), _int(v["p"], f"{what} p"))
    raise SchemaError(f"{what}: unknown class {kind!r}")


def dec_contraction(v, what: str = "contraction") -> algebra.Matrix2C | hopf.ResonantForm:
    if isinstance(v, list):
        return dec_matrix2c(v, what)
    if isinstance(v, dict):
        if "lambda" not in v or "p" not in v:
            raise SchemaError(f'{what} object needs "lambda" and "p" (and optional "c")')
        c = dec_complex(v["c"], f"{what} c") if "c" in v else 1.0 + 0j
        return hopf.ResonantForm(dec_complex(v["lambda"], f"{what} lambda"), _int(v["p"], f"{what} p"), c)
    raise SchemaError(f"{what} must be a matrix array or a resonant-form object, got {v!r}")


def _a_t(v, what: str) -> tuple:
    """The decoded fields of an {"a", "t"} object: a matrix and a complex."""
    if not isinstance(v, dict) or set(v) != {"a", "t"}:
        raise SchemaError(f'{what} must be an object with keys "a" and "t", got {v!r}')
    return dec_matrix2c(v["a"], f"{what} a"), dec_complex(v["t"], f"{what} t")


def dec_group_element(v, what: str = "group element") -> atlas.GroupElement:
    return atlas.GroupElement(*_a_t(v, what))


def dec_atlas_point(v, what: str = "atlas point") -> atlas.AtlasPoint:
    return atlas.AtlasPoint(*_a_t(v, what))


def _leaf(descriptor) -> dict:
    if isinstance(descriptor, foliation.ClosedLeaf):
        return {"kind": "closed", "vertical": descriptor.vertical, "horizontal": descriptor.horizontal}
    return {"kind": "dense_line"}


def _leaf_space(space) -> dict:
    if isinstance(space, foliation.Circle):
        return {"kind": "circle", "deck_order": space.deck_order}
    return {"kind": "non_hausdorff"}


def _continued_fraction(cf) -> dict:
    return {"preperiod": list(cf.preperiod), "period": list(cf.period)}


def _check_report(report) -> dict:
    return {
        "structure": report.structure,
        "samples": report.samples,
        "seed": report.seed,
        "passed": report.passed,
        "laws": [
            {
                "name": law.name,
                "passed": law.passed,
                "checked": law.checked,
                "failures": law.failures,
                "counterexample": law.counterexample,
            }
            for law in report.laws
        ],
    }
