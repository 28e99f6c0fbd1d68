"""Command-line entry point.

One binary, group-verb subcommands, one JSON document per invocation on
stdout.  Exit codes: 0 success; 1 domain error, with {"error", "message"}
on stderr; 2 usage error (unknown verbs, malformed or mis-shaped JSON,
bad flag values).  A result that cannot be written as JSON (a float that
overflowed to inf or nan, an integer too long to print) is the domain error
invalid_input, and nothing is printed on stdout.  Each command decodes its
flags and runs its library call inside one ``with tolerance(eps):`` block.
eps is --eps, else the TEICHKIT_EPS environment variable, else the tolerance
already in force where dispatch was called; nothing outlives the block.

Every verb is one row of VERBS: its group, name, help text, typed flags and
the library call, whose values canonical_dumps writes in the shapes of
jsonio.wire (a check report, a leaf, a continued fraction); no row
encodes.  The parser and dispatch both read only that table.  A flag's kind
(KINDS) says how many tokens the parser takes for it and how it converts
them, and how dispatch decodes the result.  Decoding runs inside dispatch,
inside the tolerance block, so that schema and domain errors keep their exit
codes; library and jsonio functions are looked up when called, never
captured when the table is built.

A command imports only what it uses.  Rows read every library value from
the package, as ``teichkit.quadratic_roots``; the package's ``__getattr__``
imports the defining module the first time a name is read and keeps the
name, and jsonio reads the value types it decodes the same way.  So
``teichkit alg idet`` imports algebra and no other kernel module.

The parser reads an optional --eps, the group, the verb, then its flags
(and --eps) in any order, each followed by its values or joined to one
value by "=".  A token is an option only if it starts with "--" or is "-h",
so negative numbers (--tau -1e-3 1) and slopes (--alpha -7/3) are values.
A unique prefix names an option (--max for --max-points); a repeated flag
keeps its last value.  Help goes to the call's `out` (exit 0), usage errors
to its `err` (exit 2); the parser keeps no state between calls.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple

import teichkit

from . import jsonio
from .errors import InvalidInputError, TeichkitError
from .jsonio import SchemaError, canonical_dumps, loads_strict, wire
from .tolerance import checked_eps, resolve, tolerance


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv, out=None, err=None) -> int:
    """Run one command; print its JSON to `out`. Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        verb, raw, eps = _parse(list(argv))
    except _Stop as stop:  # help, or a usage error
        code, text = stop.args
        print(text, end="", file=err if code else out)
        return code

    try:
        with tolerance(_resolve_eps(eps)):
            values = [None if v is None else flag.kind.decode(v, flag.name) for flag, v in zip(verb.flags, raw)]
            result = verb.run(*values)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        try:
            text = canonical_dumps(payload)
        except ValueError as exc:  # a result that overflowed, or an integer too long to print
            raise InvalidInputError(f"result cannot be written as JSON: {exc}") from None
    except SchemaError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except (TeichkitError, OverflowError) as exc:  # OverflowError: abs() or ** of a complex past float range
        print(canonical_dumps({"error": getattr(exc, "code", InvalidInputError.code), "message": str(exc)}), file=err)
        return 1

    out.write(text + "\n")
    return code


def _resolve_eps(value) -> float:
    """--eps, else TEICHKIT_EPS, else the tolerance already in force."""
    if value is None and (value := os.environ.get("TEICHKIT_EPS")) is None:
        return resolve()
    try:
        return checked_eps(value)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# ------------------------------------------------------------ argument kinds

_REQUIRED = object()  # the default of a flag that must be given


# How the parser reads one kind of flag, and how dispatch decodes it:
# `nargs` tokens (None: one or more, up to the next option), each
# converted; `decode(value, flag name)` then gets one token, or a list.
# `metavar` names the values in help; empty: the flag's name in capitals.
Kind = namedtuple("Kind", "decode nargs convert metavar choices default",
                  defaults=(lambda raw, label: raw, 1, str, "", (), _REQUIRED))


def _int_matrix(raw, label):
    # a lone --matrix keeps the decoder's own label, "integer matrix"
    return jsonio.dec_int_matrix(loads_strict(raw, label), "integer matrix" if label == "matrix" else label)


def _slope(raw, label) -> teichkit.Slope:
    stripped = raw.strip()
    if stripped.startswith("{"):
        return jsonio.dec_surd(loads_strict(stripped, label), label)
    from fractions import Fraction

    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f'{label} must be "num/den" or a {{"p","q","d"}} object: {exc}') from exc


def _resonant(values, label) -> teichkit.ResonantForm:
    if len(values) not in (3, 5):
        raise SchemaError("--resonant takes LAMBDA_RE LAMBDA_IM P with optional C_RE C_IM")
    p = values[2]
    if not p.is_integer():
        raise SchemaError(f"resonance order must be an integer, got {p!r}")
    c = complex(values[3], values[4]) if len(values) == 5 else 1.0 + 0j
    return teichkit.ResonantForm(complex(values[0], values[1]), int(p), c)


KINDS = {
    "pair": Kind(lambda v, label: complex(v[0], v[1]), 2, float, "RE IM"),
    "matrix": Kind(lambda raw, label: jsonio.dec_matrix2c(loads_strict(raw, label), label)),
    "int_matrix": Kind(_int_matrix),
    "teich_point": Kind(lambda raw, label: jsonio.dec_teich_point(loads_strict(raw, label), label)),
    "hopf_class": Kind(lambda raw, label: jsonio.dec_hopf_class(loads_strict(raw, label), label)),
    "contraction": Kind(lambda raw, label: jsonio.dec_contraction(loads_strict(raw, label), label)),
    "resonant": Kind(_resonant, None, float, "V [V ...]"),
    "group_element": Kind(lambda raw, label: jsonio.dec_group_element(loads_strict(raw, label), label)),
    "atlas_point": Kind(lambda raw, label: jsonio.dec_atlas_point(loads_strict(raw, label), label)),
    "slope": Kind(_slope),
    "structure": Kind(lambda name, label: teichkit.structure_by_name(name), 1, str, "{trivial,broken}",
                      ("trivial", "broken"), "trivial"),
    "int": Kind(convert=int),
    "float": Kind(convert=float),
    "text": Kind(),
}


class Flag:
    """One --name option of a verb: its kind, help text and default.  A flag
    without a default is required; an absent one of a one_of verb is None."""

    def __init__(self, name: str, kind: str, help: str = "", default=_REQUIRED) -> None:
        self.name, self.kind, self.help = name, KINDS[kind], help
        self.default = self.kind.default if default is _REQUIRED else default
        self.usage = f"--{name} {self.kind.metavar or name.upper()}"  # in help text
        self.label = f"argument --{name}"  # in usage errors


# One row of the verb table: `teichkit GROUP NAME --flag ...`.  `run` takes the
# decoded values of `flags`, in order, and returns a payload or (payload, exit
# code); with `one_of` the flags form one required mutually exclusive group.
Verb = namedtuple("Verb", "group name help flags run one_of", defaults=(False,))


# ------------------------------------------------------------------ payloads


def _eigen(l1, l2, diagonalizable) -> dict:
    return {"eigenvalues": [l1, l2], "diagonalizable": diagonalizable}


def _equivalence(witness) -> dict:
    return {"equivalent": witness is not None, "witness": witness}


def _compose(tau, z1, z2) -> dict:
    t1 = teichkit.TorusTranslation.from_z(tau, z1)
    t2 = teichkit.TorusTranslation.from_z(tau, z2)
    composed = teichkit.translation_compose(t1, t2)
    return {"x": composed.x, "y": composed.y, "z": composed.z}


def _classify(matrix, resonant) -> dict:
    cls = teichkit.classify(resonant if matrix is None else matrix)
    d, t = teichkit.image(teichkit.point_of_class(cls)) if matrix is None else (matrix.det, matrix.trace)
    return {**wire(cls), "det_trace": [d, t]}


def _fixture_summary(directory: str):
    summary = teichkit.run_fixtures(directory)
    return summary, (0 if summary["failed"] == 0 else 1)


# ---------------------------------------------------------------- the table

GROUPS = {
    "alg": "scalar and 2x2 matrix kernels",
    "tori": "complex torus moduli",
    "hopf": "Hopf surface classification",
    "teich": "non-Hausdorff deformation space",
    "fol": "linear torus foliations",
    "atlas": "the twisted atlas group and its checker",
    "fixtures": "fixture corpus runner",
}

VERBS = (
    Verb("alg", "quadratic-roots", "roots of x^2 - t x + d", (Flag("d", "pair"), Flag("t", "pair")),
         lambda d, t: {"roots": teichkit.quadratic_roots(d, t)}),
    Verb("alg", "eigen", "eigenvalues and diagonalizability",
         (Flag("matrix", "matrix", help="2x2 complex matrix JSON"),),
         lambda m: _eigen(*teichkit.eigen2(m))),
    Verb("alg", "mul", "complex matrix product", (Flag("a", "matrix"), Flag("b", "matrix")),
         lambda a, b: {"product": a @ b}),
    Verb("alg", "inv", "complex matrix inverse", (Flag("matrix", "matrix"),),
         lambda m: {"inverse": m.inverse()}),
    Verb("alg", "det", "complex matrix determinant", (Flag("matrix", "matrix"),),
         lambda m: {"det": m.det}),
    Verb("alg", "trace", "complex matrix trace", (Flag("matrix", "matrix"),),
         lambda m: {"trace": m.trace}),
    Verb("alg", "imul", "integer matrix product", (Flag("a", "int_matrix"), Flag("b", "int_matrix")),
         lambda a, b: {"product": a @ b}),
    Verb("alg", "iinv", "integer matrix inverse (det +-1)", (Flag("matrix", "int_matrix"),),
         lambda m: {"inverse": m.inverse()}),
    Verb("alg", "idet", "integer matrix determinant", (Flag("matrix", "int_matrix"),),
         lambda m: {"det": m.det()}),
    Verb("alg", "itrace", "integer matrix trace", (Flag("matrix", "int_matrix"),),
         lambda m: {"trace": m.trace()}),
    Verb("tori", "moebius", "apply an SL2(Z) matrix to tau",
         (Flag("matrix", "int_matrix", help="integer matrix JSON"), Flag("tau", "pair")),
         lambda m, tau: {"tau": teichkit.moebius(m, tau)}),
    Verb("tori", "reduce", "reduce tau into the fundamental domain", (Flag("tau", "pair"),),
         lambda tau: dict(zip(("reduced", "witness"), teichkit.reduce_fundamental_domain(tau)))),
    Verb("tori", "equiv", "decide biholomorphism of two tori", (Flag("tau1", "pair"), Flag("tau2", "pair")),
         lambda tau1, tau2: _equivalence(teichkit.tori_equivalent(tau1, tau2))),
    Verb("tori", "lattice-reduce", "canonical lattice coordinates of z", (Flag("z", "pair"), Flag("tau", "pair")),
         lambda z, tau: dict(zip(("x", "y"), teichkit.lattice_reduce(z, tau)))),
    Verb("tori", "compose", "compose two translations of one fiber",
         (Flag("tau", "pair"), Flag("z1", "pair"), Flag("z2", "pair")), _compose),
    Verb("hopf", "contracting", "test the contracting condition", (Flag("matrix", "matrix"),),
         lambda m: {"contracting": teichkit.is_contracting(m)}),
    Verb("hopf", "resonance", "resonance order of an eigenvalue pair", (Flag("big", "pair"), Flag("small", "pair")),
         lambda big, small: {"p": teichkit.resonance_order(big, small)}),
    Verb("hopf", "classify", "biholomorphism class of a contraction",
         (Flag("matrix", "matrix", help="2x2 complex matrix JSON", default=None),
          Flag("resonant", "resonant", help="LAMBDA_RE LAMBDA_IM P [C_RE C_IM]", default=None)),
         _classify, one_of=True),
    Verb("hopf", "det-trace", "(det, trace) image of a matrix", (Flag("matrix", "matrix"),),
         lambda m: {"det": m.det, "trace": m.trace}),
    Verb("hopf", "biholo", "biholomorphism test for two contractions",
         (Flag("a", "contraction", help="matrix JSON or resonant-form object"),
          Flag("b", "contraction", help="matrix JSON or resonant-form object")),
         lambda a, b: {"biholomorphic": teichkit.biholomorphic(a, b)}),
    Verb("teich", "in-domain", "membership in the base domain", (Flag("d", "pair"), Flag("t", "pair")),
         lambda d, t: {"in_domain": teichkit.in_base_domain(d, t)}),
    Verb("teich", "point", "deformation-space point of a class",
         (Flag("class", "hopf_class", help="class JSON"),),
         lambda c: {"point": teichkit.point_of_class(c)}),
    Verb("teich", "class", "class of a deformation-space point", (Flag("point", "teich_point", help="point JSON"),),
         lambda x: teichkit.class_of_point(x)),
    Verb("teich", "image", "(det, trace) image of a point", (Flag("point", "teich_point"),),
         lambda x: dict(zip("dt", teichkit.image(x)))),
    Verb("teich", "twin", "the non-separated partner, if any", (Flag("point", "teich_point"),),
         lambda x: {"twin": teichkit.twin(x)}),
    Verb("teich", "separated", "Hausdorff separation of two points",
         (Flag("x", "teich_point"), Flag("y", "teich_point")),
         lambda x, y: {"separated": teichkit.separated(x, y)}),
    Verb("teich", "adheres", "does every neighborhood of x contain y",
         (Flag("x", "teich_point"), Flag("y", "teich_point")),
         lambda x, y: {"adheres": teichkit.adheres(x, y)}),
    Verb("teich", "contains", "basic-neighborhood membership",
         (Flag("center", "teich_point"), Flag("radius", "float"), Flag("x", "teich_point")),
         lambda center, radius, x: {"contains": teichkit.neighborhood_contains(center, radius, x)}),
    Verb("fol", "leaf", "leaf type of a slope", (Flag("alpha", "slope", help='"num/den" or {"p","q","d"} JSON'),),
         lambda alpha: teichkit.leaf_descriptor(alpha)),
    Verb("fol", "leafspace", "leaf space of a slope", (Flag("alpha", "slope"),),
         lambda alpha: teichkit.leaf_space(alpha)),
    Verb("fol", "cf", "exact continued fraction of a slope", (Flag("alpha", "slope"),),
         lambda alpha: teichkit.cf_expand(alpha)),
    Verb("fol", "morita", "Morita equivalence of rotation groupoids", (Flag("alpha", "slope"), Flag("beta", "slope")),
         lambda alpha, beta: {"equivalent": teichkit.morita_equivalent(alpha, beta)}),
    Verb("fol", "orbit", "rotation orbit on the unit circle",
         (Flag("z0", "pair"), Flag("alpha", "slope"), Flag("max-points", "int")),
         lambda z0, alpha, n: {"points": teichkit.rotation_orbit(z0, alpha, n)}),
    Verb("atlas", "gmul", "twisted product (A,t)*(B,s)",
         (Flag("x", "group_element", help='{"a": matrix, "t": [re, im]} JSON'), Flag("y", "group_element")),
         lambda x, y: {"result": teichkit.g_mul(x, y)}),
    Verb("atlas", "ginv", "twisted-group inverse", (Flag("x", "group_element"),),
         lambda x: {"result": teichkit.g_inverse(x)}),
    Verb("atlas", "zaction", "integer twist (i(m)^p g, m)",
         (Flag("p", "int"), Flag("g", "group_element"), Flag("m", "atlas_point"), Flag("structure", "structure")),
         lambda p, g, m, structure: dict(zip("gm", teichkit.z_action(p, g, m, structure)))),
    Verb("atlas", "source", "source of the arrow (g, m)", (Flag("g", "group_element"), Flag("m", "atlas_point")),
         lambda g, m: {"point": teichkit.source(g, m)}),
    Verb("atlas", "target", "target of the arrow (g, m)",
         (Flag("g", "group_element"), Flag("m", "atlas_point"), Flag("structure", "structure")),
         lambda g, m, structure: {"point": teichkit.target(g, m, structure)}),
    Verb("atlas", "check", "randomized groupoid-law verification",
         (Flag("structure", "structure"), Flag("samples", "int", default=1000), Flag("seed", "int", default=0)),
         lambda structure, samples, seed: teichkit.groupoid_check(structure, samples, seed)),
    Verb("fixtures", "run", "run every fixture in a directory",
         (Flag("dir", "text", help="directory of fixture JSON files"),), _fixture_summary),
)


# ------------------------------------------------------------------ parser

_HELP_FLAG = Flag("help", "text", help="show this help message and exit")
_EPS_FLAG = Flag("eps", "float", help="tolerance override for approximate comparisons", default=None)
_GROUP_OPTIONS = {"-h": _HELP_FLAG, "--help": _HELP_FLAG}
_ROOT_OPTIONS = {**_GROUP_OPTIONS, "--eps": _EPS_FLAG}
# group -> verb name -> (verb, its option strings -> flags)
_TABLE = {group: {} for group in GROUPS}
for _verb in VERBS:
    _TABLE[_verb.group][_verb.name] = _verb, {**_ROOT_OPTIONS, **{f"--{f.name}": f for f in _verb.flags}}


class _Stop(Exception):
    """Parsing ends: args are the exit code and the help (0, for `out`) or usage (2, for `err`)."""


def _parse(argv: list[str]) -> tuple[Verb, list, float | None]:
    """The verb `argv` names, its raw flag values in table order, and --eps."""
    group = verb = None
    options, given, stray, i, n = _ROOT_OPTIONS, {}, [], 0, len(argv)
    while i < n:
        token, i = argv[i], i + 1
        if not (token.startswith("--") or token == "-h"):  # the group, the verb, or a stray value
            if verb is not None:
                stray.append(token)
            elif token not in (choices := _TABLE[group] if group else _TABLE):
                raise _usage(group, None, f"invalid choice: {token!r} (choose from {', '.join(choices)})")
            elif group is None:
                group, options = token, _GROUP_OPTIONS
            else:
                verb, options = choices[token]
            continue
        name, eq, value = token.partition("=")
        flag = options.get(name)
        if flag is None:  # a unique prefix of an option names it
            matches = [option for option in options if option.startswith(name)] if len(name) > 2 else []
            if len(matches) > 1:
                raise _usage(group, verb, f"ambiguous option: {name} could match {', '.join(matches)}")
            if not matches:
                stray.append(token)
                continue
            flag = options[matches[0]]
        if flag is _HELP_FLAG:
            raise _Stop(0, _help(group, verb)) if not eq else _usage(group, verb, f"{flag.label}: takes no value")
        kind, raw = flag.kind, [value] if eq else []
        while not eq and i < n and len(raw) != kind.nargs and not (argv[i].startswith("--") or argv[i] == "-h"):
            raw.append(argv[i])
            i += 1
        if len(raw) != (kind.nargs or len(raw) or 1):
            raise _usage(group, verb, f"{flag.label}: expected {kind.nargs or 'at least 1'} value(s)")
        if kind.convert is not str:  # argv tokens are strings already
            try:
                raw = [kind.convert(token) for token in raw]
            except ValueError:
                raise _usage(group, verb, f"{flag.label}: invalid {kind.convert.__name__} value in {raw}") from None
        if kind.choices and raw[0] not in kind.choices:
            choices = ", ".join(kind.choices)
            raise _usage(group, verb, f"{flag.label}: invalid choice: {raw[0]!r} (choose from {choices})")
        if flag is not _EPS_FLAG and verb.one_of and any(f in given for f in verb.flags if f is not flag):
            raise _usage(group, verb, f"{flag.label}: not allowed with the verb's other flag")
        given[flag] = raw[0] if kind.nargs == 1 else raw

    if verb is not None:
        values = [given.get(f, f.default) for f in verb.flags]
        if _REQUIRED in values or (verb.one_of and not any(f in given for f in verb.flags)):
            missing = [f"--{f.name}" for f in verb.flags if f not in given and f.default is _REQUIRED]
            if verb.one_of:  # none of its flags is given
                missing = [" | ".join(f"--{f.name}" for f in verb.flags)]
            raise _usage(group, verb, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        raise _usage(group, verb, f"unrecognized arguments: {' '.join(stray)}")
    if verb is None:  # no group, or a group without a verb: that level's usage
        raise _usage(group, None)
    return verb, values, given.get(_EPS_FLAG)


def _usage(group, verb, error: str = "") -> _Stop:
    """Exit 2 with the usage line of the root, a group or a verb, and `error`."""
    if verb is None:
        line = f"teichkit {group} [-h] VERB ..." if group else "teichkit [-h] [--eps EPS] GROUP ..."
    else:
        flags = [f.usage if f.default is _REQUIRED else f"[{f.usage}]" for f in verb.flags]
        if verb.one_of:
            flags = [f"({' | '.join(f.usage for f in verb.flags)})"]
        line = " ".join((f"teichkit {group} {verb.name} [-h] [--eps EPS]", *flags))
    return _Stop(2, f"usage: {line}\n" + (f"{line.partition(' [-h]')[0]}: error: {error}\n" if error else ""))


def _help(group, verb) -> str:
    """Help for the root, a group or a verb, made from the table."""
    if group is None:
        about = "Hopf surface classification, torus moduli, torus foliations, and the atlas group of S3 x S1."
        rows = [*GROUPS.items(), (_EPS_FLAG.usage, _EPS_FLAG.help)]
    elif verb is None:
        about, rows = GROUPS[group], [(v.name, v.help) for v in VERBS if v.group == group]
    else:
        about, rows = verb.help, [(f.usage, f.help) for f in (*verb.flags, _EPS_FLAG)]
    rows.append(("-h, --help", _HELP_FLAG.help))
    width = max(len(left) for left, _ in rows) + 2
    rows = "".join(f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows)
    return f"{_usage(group, verb).args[1]}\n{about}\n\n{rows}"


if __name__ == "__main__":
    sys.exit(main())
