"""The deterministic cost counter of tests/cost.py repeats exactly.

One workload is counted, to keep the test short on every CPython minor.
"""

from __future__ import annotations

import cost


def test_two_counted_passes_agree():
    first, second = cost.counted_passes("kernels", 2)
    assert sum(first.values()) > 0
    assert first == second
