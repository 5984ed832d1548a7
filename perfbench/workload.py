"""What the three workloads share: the round loop contract and input helpers.

A workload builds its inputs from the seed in :meth:`Workload.setup`, then
runs whole rounds of the same operations.  :meth:`Workload.round` returns
the time of each operation of the round (``None`` where the operation has no
time of its own) and the number that failed; :meth:`Workload.check` checks
every output of the last round against :mod:`oracle`.  Rounds are never cut
short, so every run attempts whole rounds and the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import oracle
from oracle import Truth


def signed(matrix) -> list[tuple[int, ...]]:
    """A ``proverb`` matrix as clauses of DIMACS-style signed integers."""
    return [
        tuple(-(lit.symbol_id + 1) if lit.negated else lit.symbol_id + 1 for lit in cl)
        for cl in matrix.clauses
    ]


def truth_of(matrix) -> Truth:
    return Truth(signed(matrix), matrix.alphabet_size)


def presorted_truths(matrices, truths: list[Truth], what: str) -> list[Truth]:
    """Truths of the matrices that the ``presort`` heuristic hands to the search.

    The reordered matrices come from the program, untimed, so the checks hold
    the heuristic to its invariants (the same clauses in the same order, each a
    permutation of its original, the same verdict) and not to one ordering.
    """
    from proverb.heuristics import Heuristic

    out = []
    for i, (matrix, truth) in enumerate(zip(matrices, truths)):
        clauses = signed(Heuristic.PRESORT.apply(matrix))
        oracle.check_reordering(truth.clauses, clauses, f"{what} instance {i}")
        reordered = Truth(clauses, truth.k)
        oracle.expect(reordered.sat == truth.sat, f"{what} instance {i}: presort changed the verdict")
        out.append(reordered)
    return out


def closure_count(state, *_args, **_kwargs) -> int:
    """Closure events a search state has taken so far: the tally of ``step_search``."""
    return state.closure_count


def family_seed(seed: int, salt: int) -> int:
    """Generator seed of one input family, derived from the workload seed."""
    return random.Random(seed * 1_000_003 + salt).getrandbits(48)


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.tracer = None

    def _call(self, name: str, fn, *args, **kwargs):
        """Call into the program, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def setup(self, tracer=None) -> None:
        """Build the inputs and fixtures; timed as ``setup_s``."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute what the checks compare against; untimed."""
        raise NotImplementedError

    def round(self) -> tuple[list[float | None], int]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def trace_hooks(self, tracer) -> None:
        """Wrap the program functions this workload calls."""
        raise NotImplementedError

    def layer_metrics(self, tracer, timed_s: float) -> dict[str, tuple[float, str]]:
        raise NotImplementedError
