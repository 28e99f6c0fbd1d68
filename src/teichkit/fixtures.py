"""Regression fixture runner.

A fixture is one JSON file:

    {"command": ["tori", "reduce", "--tau", "5", "1"],
     "expected": {"reduced": [0, 1], "witness": [[1, -5], [0, 1]]}}

Optional keys: "exit" (expected exit code, default 0) and, for exit 1,
"expected_error" compared against the stderr document.  Commands run
in-process through cli.dispatch.  A fixture passes only when its stdout
(or, for an expected error, its stderr document) equals the canonical
serialization of the expected document byte for byte; there is no numeric
tolerance.  The summary's "byte_exact" is true when every compared output
matched.
"""

from __future__ import annotations

import io
from pathlib import Path

from .jsonio import SchemaError, canonical_dumps, loads_strict


def run_fixtures(path) -> dict:
    """Run every *.json fixture under `path`; returns a summary document."""
    from .cli import dispatch

    directory = Path(path)
    if not directory.is_dir():
        raise SchemaError(f"fixture path {str(path)!r} is not a directory")

    total = 0
    byte_exact = True
    failures: list[dict] = []
    for fixture in sorted(directory.glob("*.json")):
        total += 1
        ok, bytes_ok, reason = _run_one(fixture, dispatch)
        byte_exact = byte_exact and bytes_ok
        if not ok:
            failures.append({"fixture": fixture.name, "reason": reason})

    return {
        "total": total,
        "passed": total - len(failures),
        "failed": len(failures),
        "byte_exact": byte_exact,
        "failures": failures,
    }


def _run_one(path: Path, dispatch) -> tuple[bool, bool, str]:
    try:
        doc = loads_strict(path.read_text(), path.name)
    except (OSError, SchemaError) as exc:
        return False, True, f"unreadable fixture: {exc}"

    if not isinstance(doc, dict) or not isinstance(doc.get("command"), list):
        return False, True, 'fixture must be an object with a "command" array'
    command = doc["command"]
    if not all(isinstance(part, (str, int, float)) and not isinstance(part, bool) for part in command):
        return False, True, "command entries must be strings or numbers"

    out, err = io.StringIO(), io.StringIO()
    code = dispatch([str(part) for part in command], out, err)
    want_code = doc.get("exit", 0)
    if code != want_code:
        detail = err.getvalue().strip() or out.getvalue().strip()
        return False, True, f"exit code {code}, expected {want_code}: {detail}"

    if want_code == 0:
        if "expected" not in doc:
            return False, True, 'fixture with exit 0 needs an "expected" document'
        return _compare(out.getvalue(), doc["expected"])
    if want_code == 1 and "expected_error" in doc:
        return _compare(err.getvalue(), doc["expected_error"])
    return True, True, ""


def _compare(text: str, expected) -> tuple[bool, bool, str]:
    want = canonical_dumps(expected)
    ok = text == want + "\n"
    return ok, ok, "" if ok else f"output {text.strip()} != expected {want}"
