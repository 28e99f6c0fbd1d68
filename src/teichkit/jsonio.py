"""Canonical JSON wire format for the command-line tool.

Every command emits one JSON document with a fixed key order and floats
printed with 12 significant digits, so identical invocations are
byte-identical and fixture files can be compared bytewise.  Decoders are
strict about shape (shape problems raise SchemaError, treated as usage
errors); value-level domain violations surface as the library's own
exceptions.  They share one JSON decoder and build an error's label only
when a check fails.

Encodings: complex as [re, im]; 2x2 complex matrices as row-major pairs of
such entries; integer matrices as plain integer rows.  canonical_dumps
writes complex numbers itself and every other value type through ``wire``,
the one place that spells each type's shape, so callers never encode.
Slopes, rationals "num/den" and surds (p + sqrt(d))/q as {"p","q","d"},
are only decoded.

Importing this module imports no kernel module.  A decoder reads its value
types from the package (``teichkit.Matrix2C``, ``teichkit.BasePoint`` and so
on), whose ``__getattr__`` imports the defining module the first time one of
them runs; ``wire`` reads only class names.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes a str with

import teichkit


class SchemaError(ValueError):
    """Malformed JSON or JSON of the wrong shape."""


def format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    # v + 0.0 folds -0.0 into 0.0 so the sign of a zero never leaks
    return format(v + 0.0, ".12g")


def canonical_dumps(obj) -> str:
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


# the types _write spells itself
_JSON_TYPES = (bool, int, float, complex, str, list, tuple, dict)


def _write(obj, parts: list[str]) -> None:
    kind = type(obj)
    if kind not in _JSON_TYPES and obj is not None:  # a value type, or a subclass written as its base type
        if not isinstance(obj, _JSON_TYPES):
            return _write(wire(obj), parts)
        kind = next(t for t in _JSON_TYPES if isinstance(obj, t))
    if kind is complex:
        parts.append(f"[{format_float(obj.real)},{format_float(obj.imag)}]")
    elif kind is dict:
        sep = "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{sep}{_quote(key)}:")
            _write(value, parts)
            sep = ","
        parts.append("{}" if sep == "{" else "}")  # "{}": no item was written
    elif kind is list or kind is tuple:
        sep = "["
        for item in obj:
            parts.append(sep)
            _write(item, parts)
            sep = ","
        parts.append("[]" if sep == "[" else "]")
    elif kind is float:
        parts.append(format_float(obj))
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif kind is int:
        parts.append(repr(obj))
    elif kind is str:
        parts.append(_quote(obj))
    else:
        parts.append("null")


def wire(obj):
    """The JSON shape of a value type that a command prints, as plain
    containers and numbers; any other type raises TypeError.

    Types are told apart by class name, not isinstance, so that writing a
    value imports no kernel module.
    """
    kind = type(obj).__name__
    if kind in ("Matrix2C", "IntMatrix2"):
        return [[obj.a, obj.b], [obj.c, obj.d]]
    if kind in ("GroupElement", "AtlasPoint"):
        return {"a": obj.a, "t": obj.t}
    if kind == "BasePoint":
        return {"stratum": "base", "params": [obj.det, obj.trace]}
    if kind == "CurvePoint":
        if obj.order == 1:
            return {"stratum": "c", "params": [obj.lam]}
        return {"stratum": "cp", "p": obj.order, "params": [obj.lam]}
    if kind == "Diagonal":
        return {"class": "diagonal", "lambda1": obj.lambda1, "lambda2": obj.lambda2}
    if kind == "Resonant":
        return {"class": "resonant", "lambda": obj.lam, "p": obj.p}
    if kind == "ClosedLeaf":
        return {"kind": "closed", "vertical": obj.vertical, "horizontal": obj.horizontal}
    if kind == "DenseLine":
        return {"kind": "dense_line"}
    if kind == "Circle":
        return {"kind": "circle", "deck_order": obj.deck_order}
    if kind == "NonHausdorffQuotient":
        return {"kind": "non_hausdorff"}
    if kind == "ContinuedFraction":
        return {"preperiod": obj.preperiod, "period": obj.period}
    if kind == "CheckReport":
        return {"structure": obj.structure, "samples": obj.samples, "seed": obj.seed, "passed": obj.passed,
                "laws": obj.laws}
    if kind == "LawResult":
        return {"name": obj.name, "passed": obj.passed, "checked": obj.checked, "failures": obj.failures,
                "counterexample": obj.counterexample}
    raise TypeError(f"cannot serialize {kind} to JSON")


def _refuse(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed")


# shared by every call, as json.loads shares json._default_decoder
_DECODER = json.JSONDecoder(parse_constant=_refuse)


def loads_strict(text: str, what: str = "input"):
    try:
        if text.startswith("\ufeff"):  # json.loads refuses a BOM before decoding; the decoder alone would not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except SchemaError as exc:  # from _refuse
        raise SchemaError(f"{what}: {exc}") from None
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
    # fast path: two plain numbers with a finite complex; the checks below build the labels
    if type(v) is list and len(v) == 2 and type(re := v[0]) in (int, float) and type(im := v[1]) in (int, float):
        try:
            z = complex(re, im)
            if z.real - z.real == 0.0 == z.imag - z.imag:  # inf - inf and nan - nan are nan
                return z
        except OverflowError:  # an integer past float range
            pass
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"{what} must be a [re, im] pair, got {v!r}")
    return complex(_real(v[0], f"{what} real part"), _real(v[1], f"{what} imaginary part"))


def _entries(v, what: str, entry) -> list:
    """The entries of a 2x2 row-major array, each decoded by entry(value,
    label) in a, b, c, d order, so the first bad one raises."""
    if type(v) is list and len(v) == 2:
        top, bottom = v
        if type(top) is list and type(bottom) is list and len(top) == 2 and len(bottom) == 2:
            try:  # unlabelled: a bad entry raises again below, with its label
                return [entry(top[0], what), entry(top[1], what), entry(bottom[0], what), entry(bottom[1], what)]
            except SchemaError:
                pass
    if not isinstance(v, list) or len(v) != 2 or any(not isinstance(r, list) or len(r) != 2 for r in v):
        raise SchemaError(f"{what} must be a 2x2 row-major array, got {v!r}")
    return [entry(v[i][j], f"{what}[{i}][{j}]") for i in (0, 1) for j in (0, 1)]


def dec_matrix2c(v, what: str = "matrix") -> teichkit.Matrix2C:
    return teichkit.Matrix2C(*_entries(v, what, dec_complex))


def dec_int_matrix(v, what: str = "integer matrix") -> teichkit.IntMatrix2:
    return teichkit.IntMatrix2(*_entries(v, what, _int))


def dec_surd(v, what: str = "quadratic irrational") -> teichkit.QuadraticIrrational:
    if not isinstance(v, dict) or set(v) != {"p", "q", "d"}:
        raise SchemaError(f'{what} must be an object with keys "p", "q", "d", got {v!r}')
    return teichkit.QuadraticIrrational(_int(v["p"], f"{what} p"), _int(v["q"], f"{what} q"), _int(v["d"], f"{what} d"))


def dec_teich_point(v, what: str = "point") -> teichkit.TeichPoint:
    if not isinstance(v, dict) or "stratum" not in v:
        raise SchemaError(f'{what} must be an object with a "stratum" key, got {v!r}')
    stratum = v["stratum"]
    params = v.get("params")
    if not isinstance(params, list):
        raise SchemaError(f'{what} must carry a "params" array')
    if stratum == "base":
        if len(params) != 2:
            raise SchemaError(f"{what}: base stratum needs [det, trace] params")
        return teichkit.BasePoint(dec_complex(params[0], f"{what} det"), dec_complex(params[1], f"{what} trace"))
    if stratum == "c":
        if len(params) != 1:
            raise SchemaError(f"{what}: stratum c needs a single [lambda] param")
        return teichkit.CurvePoint(1, dec_complex(params[0], f"{what} lambda"))
    if stratum == "cp":
        if len(params) != 1:
            raise SchemaError(f"{what}: stratum cp needs a single [lambda] param")
        p = _int(v.get("p"), f"{what} p")
        if p < 2:
            raise SchemaError(f"{what}: stratum cp needs p >= 2, got {p}")
        return teichkit.CurvePoint(p, dec_complex(params[0], f"{what} lambda"))
    raise SchemaError(f"{what}: unknown stratum {stratum!r}")


def dec_hopf_class(v, what: str = "class") -> teichkit.HopfClass:
    # extra keys (e.g. the det_trace echoed by `hopf classify`) are ignored
    # so classification output can be piped straight back in
    if not isinstance(v, dict) or "class" not in v:
        raise SchemaError(f'{what} must be an object with a "class" key, got {v!r}')
    kind = v["class"]
    if kind == "diagonal":
        if "lambda1" not in v or "lambda2" not in v:
            raise SchemaError(f'{what}: diagonal class needs "lambda1" and "lambda2"')
        return teichkit.Diagonal(
            dec_complex(v["lambda1"], f"{what} lambda1"), dec_complex(v["lambda2"], f"{what} lambda2")
        )
    if kind == "resonant":
        if "lambda" not in v or "p" not in v:
            raise SchemaError(f'{what}: resonant class needs "lambda" and "p"')
        return teichkit.Resonant(dec_complex(v["lambda"], f"{what} lambda"), _int(v["p"], f"{what} p"))
    raise SchemaError(f"{what}: unknown class {kind!r}")


def dec_contraction(v, what: str = "contraction") -> teichkit.Matrix2C | teichkit.ResonantForm:
    if isinstance(v, list):
        return dec_matrix2c(v, what)
    if isinstance(v, dict):
        if "lambda" not in v or "p" not in v:
            raise SchemaError(f'{what} object needs "lambda" and "p" (and optional "c")')
        c = dec_complex(v["c"], f"{what} c") if "c" in v else 1.0 + 0j
        return teichkit.ResonantForm(dec_complex(v["lambda"], f"{what} lambda"), _int(v["p"], f"{what} p"), c)
    raise SchemaError(f"{what} must be a matrix array or a resonant-form object, got {v!r}")


def _a_t(v, what: str) -> tuple:
    """The decoded fields of an {"a", "t"} object: a matrix and a complex."""
    if not isinstance(v, dict) or set(v) != {"a", "t"}:
        raise SchemaError(f'{what} must be an object with keys "a" and "t", got {v!r}')
    return dec_matrix2c(v["a"], f"{what} a"), dec_complex(v["t"], f"{what} t")


def dec_group_element(v, what: str = "group element") -> teichkit.GroupElement:
    return teichkit.GroupElement(*_a_t(v, what))


def dec_atlas_point(v, what: str = "atlas point") -> teichkit.AtlasPoint:
    return teichkit.AtlasPoint(*_a_t(v, what))
