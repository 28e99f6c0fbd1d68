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
the library call, whose values canonical_dumps writes; no row encodes.  The
parser and dispatch both read only that table.  A flag's kind (KINDS) says
how argparse reads it and how dispatch decodes the raw value.  Decoding runs
inside dispatch, inside the tolerance block, so that schema and domain
errors keep their exit codes; library and jsonio functions are looked up
when called, never captured when the table is built.

A command imports only what it uses.  The kernel modules are bound here as
stand-ins (teichkit._Deferred) that import the module the first time a row
reads from it, and then become the module itself; jsonio does the same for
the value types it decodes.  So ``teichkit alg idet`` imports algebra and no
other kernel module.

The argparse parser is built once per process and reused: parse_args keeps
no state between calls and returns a fresh namespace each time.  The first
dispatch builds the root parser and the group parsers; a group's verb
parsers are added once, on the first dispatch whose argv has a token naming
that group.  Everything that can differ between calls is still read per
call: --eps and TEICHKIT_EPS, the terminal width used for help text, and the
streams that help, usage and argparse errors go to.  Those are the call's
own `out` and `err`, held in a context variable while argparse runs, so
dispatch never swaps the process-wide sys.stdout or sys.stderr, and
concurrent calls in several threads each write only to their own streams.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
from contextvars import ContextVar
from typing import Any, Callable, NamedTuple

from . import _defer
from .errors import InvalidInputError, TeichkitError
from .jsonio import (
    SchemaError,
    canonical_dumps,
    dec_atlas_point,
    dec_contraction,
    dec_group_element,
    dec_hopf_class,
    dec_int_matrix,
    dec_matrix2c,
    dec_surd,
    dec_teich_point,
    loads_strict,
    wire,
)
from .tolerance import checked_eps, resolve, tolerance

_ENV_EPS = "TEICHKIT_EPS"

# bound to the modules themselves on first use; see teichkit._Deferred
algebra, atlas, foliation, hopf, teich, tori = _defer(
    globals(), "algebra", "atlas", "foliation", "hopf", "teich", "tori"
)


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv, out=None, err=None) -> int:
    """Run one command; print its JSON to `out`. Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = list(argv)
    parser, pending = _build_parser()
    for token in argv:
        if token in pending:  # a group whose verbs are not in the parser yet
            _add_verbs(token, pending)
    streams = _STREAMS.set((out, err))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        _STREAMS.reset(streams)

    verb = getattr(args, "command", None)
    if verb is None:  # no group, or a group without a verb: that parser's usage
        getattr(args, "group_parser", parser).print_usage(err)
        return 2

    try:
        with tolerance(_resolve_eps(args)):
            values = [flag.decode(getattr(args, flag.dest)) for flag in verb.flags]
            result = verb.run(*values)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        try:
            text = canonical_dumps(payload)
        except ValueError as exc:  # a result that overflowed, or an integer too long to print
            raise InvalidInputError(f"result cannot be written as JSON: {exc}") from None
    except SchemaError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except TeichkitError as exc:
        print(canonical_dumps({"error": exc.code, "message": str(exc)}), file=err)
        return 1

    print(text, file=out)
    return code


def _resolve_eps(args) -> float:
    """--eps, else TEICHKIT_EPS, else the tolerance already in force."""
    value = getattr(args, "eps", None)
    if value is None:
        value = os.environ.get(_ENV_EPS)
        if value is None:
            return resolve()
    try:
        return checked_eps(value)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# ------------------------------------------------------------ argument kinds


class Kind(NamedTuple):
    """How argparse reads one kind of flag, and how dispatch decodes it.

    `decode(raw, label)` gets the parsed value and the flag's name, which
    labels its error messages.
    """

    parse: dict
    decode: Callable[[Any, str], Any] = lambda raw, label: raw


def _int_matrix(raw, label):
    # a lone --matrix keeps the decoder's own label, "integer matrix"
    return dec_int_matrix(loads_strict(raw, label), "integer matrix" if label == "matrix" else label)


def _slope(raw, label) -> foliation.Slope:
    stripped = raw.strip()
    if stripped.startswith("{"):
        return dec_surd(loads_strict(stripped, label), label)
    from fractions import Fraction

    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f'{label} must be "num/den" or a {{"p","q","d"}} object: {exc}') from exc


def _resonant(values, label) -> hopf.ResonantForm:
    if len(values) not in (3, 5):
        raise SchemaError("--resonant takes LAMBDA_RE LAMBDA_IM P with optional C_RE C_IM")
    p = values[2]
    if not p.is_integer():
        raise SchemaError(f"resonance order must be an integer, got {p!r}")
    c = complex(values[3], values[4]) if len(values) == 5 else 1.0 + 0j
    return hopf.ResonantForm(complex(values[0], values[1]), int(p), c)


KINDS = {
    "pair": Kind({"nargs": 2, "type": float, "metavar": ("RE", "IM")}, lambda v, label: complex(v[0], v[1])),
    "matrix": Kind({}, lambda raw, label: dec_matrix2c(loads_strict(raw, label), label)),
    "int_matrix": Kind({}, _int_matrix),
    "teich_point": Kind({}, lambda raw, label: dec_teich_point(loads_strict(raw, label), label)),
    "hopf_class": Kind({}, lambda raw, label: dec_hopf_class(loads_strict(raw, label), label)),
    "contraction": Kind({}, lambda raw, label: dec_contraction(loads_strict(raw, label), label)),
    "resonant": Kind({"nargs": "+", "type": float, "metavar": "V"}, _resonant),
    "group_element": Kind({}, lambda raw, label: dec_group_element(loads_strict(raw, label), label)),
    "atlas_point": Kind({}, lambda raw, label: dec_atlas_point(loads_strict(raw, label), label)),
    "slope": Kind({}, _slope),
    "structure": Kind(
        {"choices": ("trivial", "broken"), "default": "trivial"},
        lambda name, label: atlas.structure_by_name(name),
    ),
    "int": Kind({"type": int}),
    "float": Kind({"type": float}),
    "text": Kind({}),
}


class Flag:
    """One --name option of a verb: its kind plus add_argument keywords
    (help, default, dest).  A flag without a default is required, unless it
    is one of a one_of verb's flags; an absent one decodes to None."""

    def __init__(self, name: str, kind: str, **options) -> None:
        self.name = name
        self.kind = KINDS[kind]
        self.dest = options.get("dest", name.replace("-", "_"))
        self.options = {**self.kind.parse, **options}

    def decode(self, raw):
        return None if raw is None else self.kind.decode(raw, self.name)


class Verb(NamedTuple):
    """One row of the verb table: `teichkit GROUP NAME --flag ...`."""

    group: str
    name: str
    help: str
    flags: tuple[Flag, ...]
    run: Callable  # decoded flag values, in order -> payload or (payload, exit code)
    one_of: bool = False  # the flags form one required mutually exclusive group


# ------------------------------------------------------------------ payloads


def _eigen(l1, l2, diagonalizable) -> dict:
    return {"eigenvalues": [l1, l2], "diagonalizable": diagonalizable}


def _equivalence(witness) -> dict:
    return {"equivalent": witness is not None, "witness": witness}


def _compose(tau, z1, z2) -> dict:
    t1 = tori.TorusTranslation.from_z(tau, z1)
    t2 = tori.TorusTranslation.from_z(tau, z2)
    composed = tori.translation_compose(t1, t2)
    return {"x": composed.x, "y": composed.y, "z": composed.z}


def _classify(matrix, resonant) -> dict:
    cls = hopf.classify(resonant if matrix is None else matrix)
    d, t = teich.image(teich.point_of_class(cls)) if matrix is None else (matrix.det, matrix.trace)
    return {**wire(cls), "det_trace": [d, t]}


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


def _fixture_summary(directory: str):
    from .fixtures import run_fixtures

    summary = run_fixtures(directory)
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
         lambda d, t: {"roots": algebra.quadratic_roots(d, t)}),
    Verb("alg", "eigen", "eigenvalues and diagonalizability",
         (Flag("matrix", "matrix", help="2x2 complex matrix JSON"),),
         lambda m: _eigen(*algebra.eigen2(m))),
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
         lambda m, tau: {"tau": tori.moebius(m, tau)}),
    Verb("tori", "reduce", "reduce tau into the fundamental domain", (Flag("tau", "pair"),),
         lambda tau: dict(zip(("reduced", "witness"), tori.reduce_fundamental_domain(tau)))),
    Verb("tori", "equiv", "decide biholomorphism of two tori", (Flag("tau1", "pair"), Flag("tau2", "pair")),
         lambda tau1, tau2: _equivalence(tori.tori_equivalent(tau1, tau2))),
    Verb("tori", "lattice-reduce", "canonical lattice coordinates of z", (Flag("z", "pair"), Flag("tau", "pair")),
         lambda z, tau: dict(zip(("x", "y"), tori.lattice_reduce(z, tau)))),
    Verb("tori", "compose", "compose two translations of one fiber",
         (Flag("tau", "pair"), Flag("z1", "pair"), Flag("z2", "pair")), _compose),
    Verb("hopf", "contracting", "test the contracting condition", (Flag("matrix", "matrix"),),
         lambda m: {"contracting": hopf.is_contracting(m)}),
    Verb("hopf", "resonance", "resonance order of an eigenvalue pair", (Flag("big", "pair"), Flag("small", "pair")),
         lambda big, small: {"p": hopf.resonance_order(big, small)}),
    Verb("hopf", "classify", "biholomorphism class of a contraction",
         (Flag("matrix", "matrix", help="2x2 complex matrix JSON"),
          Flag("resonant", "resonant", help="LAMBDA_RE LAMBDA_IM P [C_RE C_IM]")),
         _classify, one_of=True),
    Verb("hopf", "det-trace", "(det, trace) image of a matrix", (Flag("matrix", "matrix"),),
         lambda m: {"det": m.det, "trace": m.trace}),
    Verb("hopf", "biholo", "biholomorphism test for two contractions",
         (Flag("a", "contraction", help="matrix JSON or resonant-form object"),
          Flag("b", "contraction", help="matrix JSON or resonant-form object")),
         lambda a, b: {"biholomorphic": hopf.biholomorphic(a, b)}),
    Verb("teich", "in-domain", "membership in the base domain", (Flag("d", "pair"), Flag("t", "pair")),
         lambda d, t: {"in_domain": teich.in_base_domain(d, t)}),
    Verb("teich", "point", "deformation-space point of a class",
         (Flag("class", "hopf_class", dest="hopf_class", help="class JSON"),),
         lambda c: {"point": teich.point_of_class(c)}),
    Verb("teich", "class", "class of a deformation-space point", (Flag("point", "teich_point", help="point JSON"),),
         lambda x: teich.class_of_point(x)),
    Verb("teich", "image", "(det, trace) image of a point", (Flag("point", "teich_point"),),
         lambda x: dict(zip("dt", teich.image(x)))),
    Verb("teich", "twin", "the non-separated partner, if any", (Flag("point", "teich_point"),),
         lambda x: {"twin": teich.twin(x)}),
    Verb("teich", "separated", "Hausdorff separation of two points",
         (Flag("x", "teich_point"), Flag("y", "teich_point")),
         lambda x, y: {"separated": teich.separated(x, y)}),
    Verb("teich", "adheres", "does every neighborhood of x contain y",
         (Flag("x", "teich_point"), Flag("y", "teich_point")),
         lambda x, y: {"adheres": teich.adheres(x, y)}),
    Verb("teich", "contains", "basic-neighborhood membership",
         (Flag("center", "teich_point"), Flag("radius", "float"), Flag("x", "teich_point")),
         lambda center, radius, x: {"contains": teich.neighborhood_contains(center, radius, x)}),
    Verb("fol", "leaf", "leaf type of a slope", (Flag("alpha", "slope", help='"num/den" or {"p","q","d"} JSON'),),
         lambda alpha: _leaf(foliation.leaf_descriptor(alpha))),
    Verb("fol", "leafspace", "leaf space of a slope", (Flag("alpha", "slope"),),
         lambda alpha: _leaf_space(foliation.leaf_space(alpha))),
    Verb("fol", "cf", "exact continued fraction of a slope", (Flag("alpha", "slope"),),
         lambda alpha: _continued_fraction(foliation.cf_expand(alpha))),
    Verb("fol", "morita", "Morita equivalence of rotation groupoids", (Flag("alpha", "slope"), Flag("beta", "slope")),
         lambda alpha, beta: {"equivalent": foliation.morita_equivalent(alpha, beta)}),
    Verb("fol", "orbit", "rotation orbit on the unit circle",
         (Flag("z0", "pair"), Flag("alpha", "slope"), Flag("max-points", "int")),
         lambda z0, alpha, n: {"points": foliation.rotation_orbit(z0, alpha, n)}),
    Verb("atlas", "gmul", "twisted product (A,t)*(B,s)",
         (Flag("x", "group_element", help='{"a": matrix, "t": [re, im]} JSON'), Flag("y", "group_element")),
         lambda x, y: {"result": atlas.g_mul(x, y)}),
    Verb("atlas", "ginv", "twisted-group inverse", (Flag("x", "group_element"),),
         lambda x: {"result": atlas.g_inverse(x)}),
    Verb("atlas", "zaction", "integer twist (i(m)^p g, m)",
         (Flag("p", "int"), Flag("g", "group_element"), Flag("m", "atlas_point"), Flag("structure", "structure")),
         lambda p, g, m, structure: dict(zip("gm", atlas.z_action(p, g, m, structure)))),
    Verb("atlas", "source", "source of the arrow (g, m)", (Flag("g", "group_element"), Flag("m", "atlas_point")),
         lambda g, m: {"point": atlas.source(g, m)}),
    Verb("atlas", "target", "target of the arrow (g, m)",
         (Flag("g", "group_element"), Flag("m", "atlas_point"), Flag("structure", "structure")),
         lambda g, m, structure: {"point": atlas.target(g, m, structure)}),
    Verb("atlas", "check", "randomized groupoid-law verification",
         (Flag("structure", "structure"), Flag("samples", "int", default=1000), Flag("seed", "int", default=0)),
         lambda structure, samples, seed: _check_report(atlas.groupoid_check(structure, samples, seed))),
    Verb("fixtures", "run", "run every fixture in a directory",
         (Flag("dir", "text", help="directory of fixture JSON files"),), _fixture_summary),
)


# ------------------------------------------------------------------ parser

# (out, err) of the dispatch whose parse_args is running in this context
_STREAMS: ContextVar[tuple] = ContextVar("teichkit_cli_streams")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes to the calling dispatch's streams.

    argparse hands every message it prints to _print_message, with
    sys.stdout for help and sys.stderr for usage and errors; inside
    dispatch those stand for the call's `out` and `err`.  Subparsers are
    made of the same class.
    """

    def _print_message(self, message: str, file=None) -> None:
        streams = _STREAMS.get(None)
        if streams is not None:
            file = streams[0] if file is sys.stdout else streams[1]
        super()._print_message(message, file)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser and its group parsers, without verbs, and a dict of
    every group whose verbs are not added yet, mapped to its verb subparsers."""
    parser = _Parser(
        prog="teichkit",
        description="Hopf surface classification, torus moduli, torus foliations, "
        "and the atlas group of S3 x S1, with JSON output.",
    )
    parser.add_argument("--eps", type=float, default=None, help="tolerance override")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")
    pending = {}
    for name, help_text in GROUPS.items():
        group = groups.add_parser(name, help=help_text)
        group.set_defaults(group_parser=group)
        pending[name] = group.add_subparsers(dest="verb", metavar="VERB")
    return parser, pending


_ADDING = threading.Lock()


def _add_verbs(group: str, pending: dict) -> None:
    """Add a parser for each verb of `group`, unless an earlier dispatch did."""
    with _ADDING:
        verbs = pending.get(group)
        if verbs is None:
            return
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(
            "--eps",
            type=float,
            default=argparse.SUPPRESS,
            help="tolerance override for approximate comparisons",
        )
        for verb in VERBS:
            if verb.group != group:
                continue
            p = verbs.add_parser(verb.name, parents=[shared], help=verb.help)
            p.set_defaults(command=verb)
            target = p.add_mutually_exclusive_group(required=True) if verb.one_of else p
            for flag in verb.flags:
                required = not verb.one_of and "default" not in flag.options
                target.add_argument(f"--{flag.name}", required=required, **flag.options)
        del pending[group]  # only now: a concurrent dispatch that saw it pending waits above


if __name__ == "__main__":
    sys.exit(main())
