"""Shared test configuration and the acceptance-suite report hook."""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from hypothesis import settings

# On CI (the CI environment variable set), every property and fuzz test draws
# the same examples on every run, so a failure there reproduces locally with
# CI=1; no deadline, since shared runners are slow at random.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Populated by tests/test_acceptance.py; one entry per criterion.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, float, float]] = []


@contextmanager
def acceptance_criterion(index: int, label: str, budget: float):
    """Time a criterion body and record a PASS/FAIL row for the summary.

    Any assertion error inside the body records a FAIL before propagating;
    exceeding the runtime budget is itself a failure.
    """
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((index, label, False, time.perf_counter() - start, budget))
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget
    ACCEPTANCE_RESULTS.append((index, label, within, elapsed, budget))
    assert within, f"criterion {index} runtime {elapsed:.2f}s exceeds {budget:.0f}s budget"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, label, ok, elapsed, budget in sorted(ACCEPTANCE_RESULTS):
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"{word} criterion {index}: {label} [{elapsed:.2f}s of {budget:.0f}s budget]"
        )
