"""The argparse reading of the verb table: the oracle of the argv fuzzer.

This is the argparse parser the CLI was built on before its own table-driven
parser, rebuilt from ``cli.GROUPS`` and ``cli.VERBS``: a root parser with
--eps, one subparser per group, and one per verb that takes --eps again and
the verb's flags, with a required mutually exclusive group for a one_of
verb.  `outcome(argv)` says what it makes of an argv, in the same terms as
`table_outcome` says it for ``cli._parse``.
"""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

from teichkit import cli

# add_argument keywords of each kind, as the argparse parser had them
PARSE = {
    "pair": {"nargs": 2, "type": float, "metavar": ("RE", "IM")},
    "resonant": {"nargs": "+", "type": float, "metavar": "V"},
    "structure": {"choices": ("trivial", "broken")},
    "int": {"type": int},
    "float": {"type": float},
}


def kind_name(flag: cli.Flag) -> str:
    return next(name for name, kind in cli.KINDS.items() if kind is flag.kind)


def build() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="teichkit")
    parser.add_argument("--eps", type=float, default=None)
    groups = parser.add_subparsers(dest="group", metavar="GROUP")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--eps", type=float, default=argparse.SUPPRESS)
    verbs = {name: groups.add_parser(name).add_subparsers(dest="verb", metavar="VERB") for name in cli.GROUPS}
    for verb in cli.VERBS:
        p = verbs[verb.group].add_parser(verb.name, parents=[shared])
        p.set_defaults(command=verb)
        target = p.add_mutually_exclusive_group(required=True) if verb.one_of else p
        for flag in verb.flags:
            options = dict(PARSE.get(kind_name(flag), {}))
            if flag.default is not cli._REQUIRED:
                options["default"] = flag.default
            target.add_argument(f"--{flag.name}", required=flag.default is cli._REQUIRED, **options)
    return parser


PARSER = build()


def outcome(argv: list[str]) -> tuple:
    """("help",), ("usage", message) or ("ok", group, verb, values, eps)."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("usage", sink.getvalue())
    verb = getattr(args, "command", None)
    if verb is None:
        return ("usage", "")
    return ("ok", verb.group, verb.name, [getattr(args, flag.name.replace("-", "_")) for flag in verb.flags], args.eps)


def table_outcome(argv: list[str]) -> tuple:
    """What ``cli._parse`` makes of argv, in the terms of `outcome`."""
    try:
        verb, values, eps = cli._parse(argv)
    except cli._Stop as stop:
        code, text = stop.args
        return ("help",) if code == 0 else ("usage", text)
    return ("ok", verb.group, verb.name, values, eps)


def same(a: tuple, b: tuple) -> bool:
    """Equal outcomes; usage messages may differ, and nan equals nan."""
    return a[0] == b[0] and (a[0] == "usage" or repr(a) == repr(b))
