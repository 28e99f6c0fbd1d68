"""Command-line entry point.

One binary, noun-verb subcommands, one JSON document per invocation on
stdout.  Exit codes: 0 success; 1 domain error, with {"error", "message"}
on stderr; 2 usage error (unknown verbs, malformed or mis-shaped JSON,
bad flag values).  The tolerance used by approximate comparisons can be
overridden per invocation with --eps or the TEICHKIT_EPS environment
variable (the flag wins).

The argparse parser is built once per process, on the first dispatch, and
reused: parse_args keeps no state between calls and returns a fresh
namespace each time.  Everything that can differ between calls is still
read per call: --eps and TEICHKIT_EPS, the terminal width used for help
text, and the stdout/stderr redirection.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from fractions import Fraction

from . import algebra, atlas, foliation, hopf, teich, tori
from .errors import TeichkitError
from .jsonio import (
    SchemaError,
    canonical_dumps,
    dec_atlas_point,
    dec_complex,
    dec_contraction,
    dec_group_element,
    dec_hopf_class,
    dec_int_matrix,
    dec_matrix2c,
    dec_surd,
    dec_teich_point,
    enc_atlas_point,
    enc_complex,
    enc_group_element,
    enc_hopf_class,
    enc_int_matrix,
    enc_matrix2c,
    enc_teich_point,
    loads_strict,
)
from .tolerance import default_eps, set_default_eps

_ENV_EPS = "TEICHKIT_EPS"


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv, out=None, err=None) -> int:
    """Run one command; print its JSON to `out`. Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(list(argv))
        except SystemExit as exc:
            return int(exc.code or 0)

    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(err)
        return 2

    try:
        eps = _resolve_eps(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=err)
        return 2

    previous = default_eps()
    try:
        if eps is not None:
            set_default_eps(eps)
        result = handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except TeichkitError as exc:
        print(canonical_dumps({"error": exc.code, "message": str(exc)}), file=err)
        return 1
    finally:
        set_default_eps(previous)

    payload, code = result if isinstance(result, tuple) else (result, 0)
    print(canonical_dumps(payload), file=out)
    return code


def _resolve_eps(args) -> float | None:
    value = getattr(args, "eps", None)
    if value is None:
        raw = os.environ.get(_ENV_EPS)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise SchemaError(f"{_ENV_EPS} must be a number, got {raw!r}") from None
    if math.isnan(value) or math.isinf(value) or not value > 0.0:
        raise SchemaError(f"eps must be a positive finite number, got {value!r}")
    return value


def _pair(values) -> complex:
    return complex(values[0], values[1])


def _slope(text: str, what: str) -> foliation.Slope:
    stripped = text.strip()
    if stripped.startswith("{"):
        return dec_surd(loads_strict(stripped, what), what)
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f'{what} must be "num/den" or a {{"p","q","d"}} object: {exc}') from exc


# ---------------------------------------------------------------- handlers


def _run_alg_quadratic_roots(a):
    r1, r2 = algebra.quadratic_roots(_pair(a.d), _pair(a.t))
    return {"roots": [enc_complex(r1), enc_complex(r2)]}


def _run_alg_eigen(a):
    l1, l2, diagonalizable = algebra.eigen2(dec_matrix2c(loads_strict(a.matrix, "matrix")))
    return {"eigenvalues": [enc_complex(l1), enc_complex(l2)], "diagonalizable": diagonalizable}


def _run_alg_mul(a):
    x = dec_matrix2c(loads_strict(a.a, "a"), "a")
    y = dec_matrix2c(loads_strict(a.b, "b"), "b")
    return {"product": enc_matrix2c(x @ y)}


def _run_alg_inv(a):
    return {"inverse": enc_matrix2c(dec_matrix2c(loads_strict(a.matrix, "matrix")).inverse())}


def _run_alg_det(a):
    return {"det": enc_complex(dec_matrix2c(loads_strict(a.matrix, "matrix")).det)}


def _run_alg_trace(a):
    return {"trace": enc_complex(dec_matrix2c(loads_strict(a.matrix, "matrix")).trace)}


def _run_alg_imul(a):
    x = dec_int_matrix(loads_strict(a.a, "a"), "a")
    y = dec_int_matrix(loads_strict(a.b, "b"), "b")
    return {"product": enc_int_matrix(x @ y)}


def _run_alg_iinv(a):
    return {"inverse": enc_int_matrix(dec_int_matrix(loads_strict(a.matrix, "matrix")).inverse())}


def _run_alg_idet(a):
    return {"det": dec_int_matrix(loads_strict(a.matrix, "matrix")).det()}


def _run_alg_itrace(a):
    return {"trace": dec_int_matrix(loads_strict(a.matrix, "matrix")).trace()}


def _run_tori_moebius(a):
    m = dec_int_matrix(loads_strict(a.matrix, "matrix"))
    return {"tau": enc_complex(tori.moebius(m, _pair(a.tau)))}


def _run_tori_reduce(a):
    reduced, witness = tori.reduce_fundamental_domain(_pair(a.tau))
    return {"reduced": enc_complex(reduced), "witness": enc_int_matrix(witness)}


def _run_tori_equiv(a):
    witness = tori.tori_equivalent(_pair(a.tau1), _pair(a.tau2))
    return {
        "equivalent": witness is not None,
        "witness": None if witness is None else enc_int_matrix(witness),
    }


def _run_tori_lattice_reduce(a):
    x, y = tori.lattice_reduce(_pair(a.z), _pair(a.tau))
    return {"x": x, "y": y}


def _run_tori_compose(a):
    tau = _pair(a.tau)
    t1 = tori.TorusTranslation.from_z(tau, _pair(a.z1))
    t2 = tori.TorusTranslation.from_z(tau, _pair(a.z2))
    composed = tori.translation_compose(t1, t2)
    return {"x": composed.x, "y": composed.y, "z": enc_complex(composed.z)}


def _run_hopf_contracting(a):
    return {"contracting": hopf.is_contracting(dec_matrix2c(loads_strict(a.matrix, "matrix")))}


def _run_hopf_resonance(a):
    return {"p": hopf.resonance_order(_pair(a.big), _pair(a.small))}


def _contraction_from_args(a):
    if a.matrix is not None:
        return dec_matrix2c(loads_strict(a.matrix, "matrix"))
    values = a.resonant
    if len(values) not in (3, 5):
        raise SchemaError("--resonant takes LAMBDA_RE LAMBDA_IM P with optional C_RE C_IM")
    p = values[2]
    if p != int(p):
        raise SchemaError(f"resonance order must be an integer, got {p!r}")
    c = complex(values[3], values[4]) if len(values) == 5 else 1.0 + 0j
    return hopf.ResonantForm(complex(values[0], values[1]), int(p), c)


def _run_hopf_classify(a):
    data = _contraction_from_args(a)
    cls = hopf.classify(data)
    if isinstance(data, algebra.Matrix2C):
        d, t = hopf.det_trace(data)
    else:
        d, t = teich.image(teich.point_of_class(cls))
    payload = enc_hopf_class(cls)
    payload["det_trace"] = [enc_complex(d), enc_complex(t)]
    return payload


def _run_hopf_det_trace(a):
    d, t = hopf.det_trace(dec_matrix2c(loads_strict(a.matrix, "matrix")))
    return {"det": enc_complex(d), "trace": enc_complex(t)}


def _run_hopf_biholo(a):
    x = dec_contraction(loads_strict(a.a, "a"), "a")
    y = dec_contraction(loads_strict(a.b, "b"), "b")
    return {"biholomorphic": hopf.biholomorphic(x, y)}


def _run_teich_in_domain(a):
    return {"in_domain": teich.in_base_domain(_pair(a.d), _pair(a.t))}


def _run_teich_point(a):
    cls = dec_hopf_class(loads_strict(a.hopf_class, "class"))
    return {"point": enc_teich_point(teich.point_of_class(cls))}


def _run_teich_class(a):
    x = dec_teich_point(loads_strict(a.point, "point"))
    return enc_hopf_class(teich.class_of_point(x))


def _run_teich_image(a):
    d, t = teich.image(dec_teich_point(loads_strict(a.point, "point")))
    return {"d": enc_complex(d), "t": enc_complex(t)}


def _run_teich_twin(a):
    other = teich.twin(dec_teich_point(loads_strict(a.point, "point")))
    return {"twin": None if other is None else enc_teich_point(other)}


def _run_teich_separated(a):
    x = dec_teich_point(loads_strict(a.x, "x"), "x")
    y = dec_teich_point(loads_strict(a.y, "y"), "y")
    return {"separated": teich.separated(x, y)}


def _run_teich_adheres(a):
    x = dec_teich_point(loads_strict(a.x, "x"), "x")
    y = dec_teich_point(loads_strict(a.y, "y"), "y")
    return {"adheres": teich.adheres(x, y)}


def _run_teich_contains(a):
    center = dec_teich_point(loads_strict(a.center, "center"), "center")
    x = dec_teich_point(loads_strict(a.x, "x"), "x")
    return {"contains": teich.neighborhood_contains(center, a.radius, x)}


def _run_fol_leaf(a):
    descriptor = foliation.leaf_descriptor(_slope(a.alpha, "alpha"))
    if isinstance(descriptor, foliation.ClosedLeaf):
        return {"kind": "closed", "vertical": descriptor.vertical, "horizontal": descriptor.horizontal}
    return {"kind": "dense_line"}


def _run_fol_leafspace(a):
    space = foliation.leaf_space(_slope(a.alpha, "alpha"))
    if isinstance(space, foliation.Circle):
        return {"kind": "circle", "deck_order": space.deck_order}
    return {"kind": "non_hausdorff"}


def _run_fol_cf(a):
    cf = foliation.cf_expand(_slope(a.alpha, "alpha"))
    return {"preperiod": list(cf.preperiod), "period": list(cf.period)}


def _run_fol_morita(a):
    return {
        "equivalent": foliation.morita_equivalent(
            _slope(a.alpha, "alpha"), _slope(a.beta, "beta")
        )
    }


def _run_fol_orbit(a):
    points = foliation.rotation_orbit(_pair(a.z0), _slope(a.alpha, "alpha"), a.max_points)
    return {"points": [enc_complex(z) for z in points]}


def _run_atlas_gmul(a):
    x = dec_group_element(loads_strict(a.x, "x"), "x")
    y = dec_group_element(loads_strict(a.y, "y"), "y")
    return {"result": enc_group_element(atlas.g_mul(x, y))}


def _run_atlas_ginv(a):
    x = dec_group_element(loads_strict(a.x, "x"), "x")
    return {"result": enc_group_element(atlas.g_inverse(x))}


def _run_atlas_zaction(a):
    g = dec_group_element(loads_strict(a.g, "g"), "g")
    m = dec_atlas_point(loads_strict(a.m, "m"), "m")
    twisted_g, twisted_m = atlas.z_action(a.p, g, m, atlas.structure_by_name(a.structure))
    return {"g": enc_group_element(twisted_g), "m": enc_atlas_point(twisted_m)}


def _run_atlas_source(a):
    g = dec_group_element(loads_strict(a.g, "g"), "g")
    m = dec_atlas_point(loads_strict(a.m, "m"), "m")
    return {"point": enc_atlas_point(atlas.source(g, m))}


def _run_atlas_target(a):
    g = dec_group_element(loads_strict(a.g, "g"), "g")
    m = dec_atlas_point(loads_strict(a.m, "m"), "m")
    return {"point": enc_atlas_point(atlas.target(g, m, atlas.structure_by_name(a.structure)))}


def _encode_counterexample(example: dict | None):
    if example is None:
        return None
    encoded = {}
    for key, value in example.items():
        if isinstance(value, atlas.GroupElement):
            encoded[key] = enc_group_element(value)
        elif isinstance(value, atlas.AtlasPoint):
            encoded[key] = enc_atlas_point(value)
        elif isinstance(value, complex):
            encoded[key] = enc_complex(value)
        else:
            encoded[key] = value
    return encoded


def _run_atlas_check(a):
    report = atlas.groupoid_check(atlas.structure_by_name(a.structure), a.samples, a.seed)
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
                "counterexample": _encode_counterexample(law.counterexample),
            }
            for law in report.laws
        ],
    }


def _run_fixtures_run(a):
    from .fixtures import run_fixtures

    summary = run_fixtures(a.dir)
    return summary, (0 if summary["failed"] == 0 else 1)


# ------------------------------------------------------------------ parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--eps",
        type=float,
        default=argparse.SUPPRESS,
        help="tolerance override for approximate comparisons",
    )

    parser = argparse.ArgumentParser(
        prog="teichkit",
        description="Hopf surface classification, torus moduli, torus foliations, "
        "and the atlas group of S3 x S1, with JSON output.",
    )
    parser.add_argument("--eps", type=float, default=None, help="tolerance override")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")

    def leaf(sub, name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.set_defaults(handler=handler)
        return p

    alg = parser_group(groups, "alg", "scalar and 2x2 matrix kernels")
    p = leaf(alg, "quadratic-roots", _run_alg_quadratic_roots, "roots of x^2 - t x + d")
    p.add_argument("--d", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--t", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(alg, "eigen", _run_alg_eigen, "eigenvalues and diagonalizability")
    p.add_argument("--matrix", required=True, help="2x2 complex matrix JSON")
    p = leaf(alg, "mul", _run_alg_mul, "complex matrix product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = leaf(alg, "inv", _run_alg_inv, "complex matrix inverse")
    p.add_argument("--matrix", required=True)
    p = leaf(alg, "det", _run_alg_det, "complex matrix determinant")
    p.add_argument("--matrix", required=True)
    p = leaf(alg, "trace", _run_alg_trace, "complex matrix trace")
    p.add_argument("--matrix", required=True)
    p = leaf(alg, "imul", _run_alg_imul, "integer matrix product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = leaf(alg, "iinv", _run_alg_iinv, "integer matrix inverse (det +-1)")
    p.add_argument("--matrix", required=True)
    p = leaf(alg, "idet", _run_alg_idet, "integer matrix determinant")
    p.add_argument("--matrix", required=True)
    p = leaf(alg, "itrace", _run_alg_itrace, "integer matrix trace")
    p.add_argument("--matrix", required=True)

    tor = parser_group(groups, "tori", "complex torus moduli")
    p = leaf(tor, "moebius", _run_tori_moebius, "apply an SL2(Z) matrix to tau")
    p.add_argument("--matrix", required=True, help="integer matrix JSON")
    p.add_argument("--tau", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(tor, "reduce", _run_tori_reduce, "reduce tau into the fundamental domain")
    p.add_argument("--tau", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(tor, "equiv", _run_tori_equiv, "decide biholomorphism of two tori")
    p.add_argument("--tau1", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--tau2", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(tor, "lattice-reduce", _run_tori_lattice_reduce, "canonical lattice coordinates of z")
    p.add_argument("--z", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--tau", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(tor, "compose", _run_tori_compose, "compose two translations of one fiber")
    p.add_argument("--tau", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--z1", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--z2", nargs=2, type=float, required=True, metavar=("RE", "IM"))

    hpf = parser_group(groups, "hopf", "Hopf surface classification")
    p = leaf(hpf, "contracting", _run_hopf_contracting, "test the contracting condition")
    p.add_argument("--matrix", required=True)
    p = leaf(hpf, "resonance", _run_hopf_resonance, "resonance order of an eigenvalue pair")
    p.add_argument("--big", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--small", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(hpf, "classify", _run_hopf_classify, "biholomorphism class of a contraction")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="2x2 complex matrix JSON")
    src.add_argument(
        "--resonant",
        nargs="+",
        type=float,
        metavar="V",
        help="LAMBDA_RE LAMBDA_IM P [C_RE C_IM]",
    )
    p = leaf(hpf, "det-trace", _run_hopf_det_trace, "(det, trace) image of a matrix")
    p.add_argument("--matrix", required=True)
    p = leaf(hpf, "biholo", _run_hopf_biholo, "biholomorphism test for two contractions")
    p.add_argument("--a", required=True, help="matrix JSON or resonant-form object")
    p.add_argument("--b", required=True, help="matrix JSON or resonant-form object")

    tch = parser_group(groups, "teich", "non-Hausdorff deformation space")
    p = leaf(tch, "in-domain", _run_teich_in_domain, "membership in the base domain")
    p.add_argument("--d", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--t", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p = leaf(tch, "point", _run_teich_point, "deformation-space point of a class")
    p.add_argument("--class", dest="hopf_class", required=True, help="class JSON")
    p = leaf(tch, "class", _run_teich_class, "class of a deformation-space point")
    p.add_argument("--point", required=True, help="point JSON")
    p = leaf(tch, "image", _run_teich_image, "(det, trace) image of a point")
    p.add_argument("--point", required=True)
    p = leaf(tch, "twin", _run_teich_twin, "the non-separated partner, if any")
    p.add_argument("--point", required=True)
    p = leaf(tch, "separated", _run_teich_separated, "Hausdorff separation of two points")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = leaf(tch, "adheres", _run_teich_adheres, "does every neighborhood of x contain y")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = leaf(tch, "contains", _run_teich_contains, "basic-neighborhood membership")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--x", required=True)

    fol = parser_group(groups, "fol", "linear torus foliations")
    p = leaf(fol, "leaf", _run_fol_leaf, "leaf type of a slope")
    p.add_argument("--alpha", required=True, help='"num/den" or {"p","q","d"} JSON')
    p = leaf(fol, "leafspace", _run_fol_leafspace, "leaf space of a slope")
    p.add_argument("--alpha", required=True)
    p = leaf(fol, "cf", _run_fol_cf, "exact continued fraction of a slope")
    p.add_argument("--alpha", required=True)
    p = leaf(fol, "morita", _run_fol_morita, "Morita equivalence of rotation groupoids")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p = leaf(fol, "orbit", _run_fol_orbit, "rotation orbit on the unit circle")
    p.add_argument("--z0", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-points", type=int, required=True)

    atl = parser_group(groups, "atlas", "the twisted atlas group and its checker")
    p = leaf(atl, "gmul", _run_atlas_gmul, "twisted product (A,t)*(B,s)")
    p.add_argument("--x", required=True, help='{"a": matrix, "t": [re, im]} JSON')
    p.add_argument("--y", required=True)
    p = leaf(atl, "ginv", _run_atlas_ginv, "twisted-group inverse")
    p.add_argument("--x", required=True)
    p = leaf(atl, "zaction", _run_atlas_zaction, "integer twist (i(m)^p g, m)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--structure", choices=("trivial", "broken"), default="trivial")
    p = leaf(atl, "source", _run_atlas_source, "source of the arrow (g, m)")
    p.add_argument("--g", required=True)
    p.add_argument("--m", required=True)
    p = leaf(atl, "target", _run_atlas_target, "target of the arrow (g, m)")
    p.add_argument("--g", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--structure", choices=("trivial", "broken"), default="trivial")
    p = leaf(atl, "check", _run_atlas_check, "randomized groupoid-law verification")
    p.add_argument("--structure", choices=("trivial", "broken"), default="trivial")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    fix = parser_group(groups, "fixtures", "fixture corpus runner")
    p = leaf(fix, "run", _run_fixtures_run, "run every fixture in a directory")
    p.add_argument("--dir", required=True, help="directory of fixture JSON files")

    return parser


def parser_group(groups, name: str, help_text: str):
    group = groups.add_parser(name, help=help_text)
    return group.add_subparsers(dest="verb", metavar="VERB")


if __name__ == "__main__":
    sys.exit(main())
