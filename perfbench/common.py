"""Shared plumbing: locating the program's sources, the host probe, statistics.

The benchmark runs from the root of a source checkout and imports ``proverb``
from ``src/`` of that checkout, never from an installed copy, so that the
code measured is the code in the tree.  When ``src/proverb`` is missing the
benchmark stops with exit code 2 before printing any result.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_program() -> None:
    """Put ``src/`` of the checkout first on ``sys.path``; refuse without it."""
    if not (SRC / "proverb" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC / 'proverb'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: they import ``proverb`` from the checkout."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; it depends on the host, not on proverb."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc < 0:  # keeps the loop's result alive
        raise AssertionError
    return elapsed


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """90th percentile by linear interpolation between the sorted values."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
