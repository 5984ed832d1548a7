"""Clause matrices and exact-accounting open-path search.

A matrix is an ordered tuple of clauses (disjunctions of literals) that are
implicitly conjoined; a complete path picks one literal from every clause in
order.  The clause set is satisfiable exactly when some complete path is
*open*, i.e. contains no symbol together with its negation.  Equivalently,
when every complete path is closed, the negation of the clause set's
conjunction is entailed -- the question the prover actually answers.

The search walks the path tree depth first: the literals of clause ``d + 1``
are the children at depth ``d``.  As soon as a subpath carries a
complementary pair, every completion of that subpath is pruned in one step
and the count of pruned complete paths (the product of the remaining clause
widths) is added to an exact integer tally.  The explored fraction of the
path space is therefore an exact rational at every moment, and the walk can
be paused on a path budget and resumed later without losing a single count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "Literal",
    "Clause",
    "Matrix",
    "SearchStatus",
    "SearchState",
    "InvalidStateError",
    "total_paths",
    "step_search",
    "solve",
    "fraction_explored",
    "literals",
]


# Each complete path is pruned exactly once, at its first closed prefix, so a
# tally can neither pass the space nor be short of it when the walk ends.
_BROKE_CONSERVATION = "closure accounting broke conservation: {} != {}"


class InvalidStateError(RuntimeError):
    """Raised when a terminal search state is asked to keep searching."""


@dataclass(frozen=True, slots=True)
class Literal:
    """A propositional symbol or its negation.

    ``symbol_id`` is a 0-based index into the matrix alphabet; ``negated``
    selects the polarity.  Two literals are complementary when they share a
    symbol and differ in polarity.
    """

    symbol_id: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.symbol_id < 0:
            raise ValueError(f"symbol_id {self.symbol_id} must be >= 0")

    def __str__(self) -> str:
        return ("~x%d" if self.negated else "x%d") % self.symbol_id


# A clause is an ordered tuple of literals; order matters to the search
# (children are tried left to right) which is exactly what the presort
# heuristic exploits.
Clause = tuple[Literal, ...]


@dataclass(frozen=True)
class Matrix:
    """An ordered collection of clauses over symbols ``0 .. alphabet_size-1``."""

    clauses: tuple[Clause, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        # Normalize nested sequences to tuples so hand-built literals-in-lists
        # matrices behave identically to parsed ones.
        object.__setattr__(
            self, "clauses", tuple(tuple(cl) for cl in self.clauses)
        )
        if self.alphabet_size < 0:
            raise ValueError("alphabet_size must be >= 0")
        for cl in self.clauses:
            for lit in cl:
                if not isinstance(lit, Literal):
                    raise TypeError(f"not a Literal: {lit!r}")
                if not 0 <= lit.symbol_id < self.alphabet_size:
                    raise ValueError(
                        f"symbol_id {lit.symbol_id} outside alphabet of size "
                        f"{self.alphabet_size}"
                    )

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


class SearchStatus(Enum):
    RUNNING = "running"
    OPEN_FOUND = "open_found"
    EXHAUSTED = "exhausted"


class SearchState:
    """Resumable cursor into the depth-first walk of one matrix's path tree.

    ``SearchState(matrix)`` starts a fresh walk, terminal at once when the
    matrix has an empty clause or no clauses.  Single-owner and mutated in
    place by :func:`step_search`.  Public fields:

    ``matrix``         the matrix being searched (unchanged)
    ``closed``         exact count of complete paths pruned so far
    ``total``          exact size of the complete-path space
    ``status``         RUNNING / OPEN_FOUND / EXHAUSTED
    ``witness``        the open path (tuple of literals) once OPEN_FOUND
    ``closure_count``  number of closures taken so far
    """

    __slots__ = (
        "matrix",
        "closed",
        "total",
        "status",
        "witness",
        "closure_count",
        "_levels",
        "_on_path",
        "_stack",
        "_cursor",
    )

    def __init__(self, matrix: Matrix) -> None:
        self.matrix = matrix
        n = matrix.n_clauses
        # Per depth: the clause's literal codes, its width, and the paths one
        # closure there prunes (every completion through the later clauses).
        # A code is 2 * symbol + negated, so a literal's complement is
        # code ^ 1 and _on_path[code] counts its occurrences on the subpath.
        levels = []
        below = 1
        for cl in reversed(matrix.clauses):
            levels.append(([2 * lit.symbol_id + lit.negated for lit in cl], len(cl), below))
            below *= len(cl)
        levels.reverse()
        self._levels = levels
        self.total = below
        self.closed = 0
        self.closure_count = 0
        self.witness: tuple[Literal, ...] | None = None
        # Sized by the largest symbol the clauses use: the declared alphabet
        # (a DIMACS header's count) may be far larger.
        top = max((lit.symbol_id for cl in matrix.clauses for lit in cl), default=-1)
        self._on_path = [0] * (2 * top + 2)
        self._stack: list[int] = []
        self._cursor = 0
        if self.total == 0:
            # An empty clause admits no path at all: the space is vacuously
            # covered and the entailment holds.
            self.status = SearchStatus.EXHAUSTED
        elif n == 0:
            # No clauses: the empty path is a (trivially open) witness.
            self.status = SearchStatus.OPEN_FOUND
            self.witness = ()
        else:
            self.status = SearchStatus.RUNNING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchState(status={self.status.value}, closed={self.closed}, "
            f"total={self.total}, depth={len(self._stack)})"
        )


def total_paths(matrix: Matrix) -> int:
    """Exact number of complete paths: the product of the clause widths."""
    return math.prod(len(cl) for cl in matrix.clauses)


def step_search(
    state: SearchState, budget: int, *, event_cap: int | None = None
) -> None:
    """Advance the walk until at least ``budget`` paths are pruned this call.

    Returns None; ``state`` is advanced in place, so its ``closed`` and
    ``closure_count`` deltas are what this call pruned and how many closures
    it took.  The call pauses right after a closure, or ends at an open
    complete path.  After each closure the rule is, in this order:

    1. the walk ends EXHAUSTED when the closure brings ``closed`` to
       ``total``;
    2. the call pauses when this call's closures, the last one included,
       have pruned at least ``budget`` paths; the last closure may
       overshoot the budget (its full pruned count is always applied);
    3. the call pauses when this was its ``event_cap``-th closure.

    ``budget`` and ``event_cap`` are integers of at least 1 (a bool is
    refused), else ``ValueError``.  Stepping a terminal state raises
    :class:`InvalidStateError`.  A tally that passes ``total`` (checked at
    every pause) or falls short of it when the walk is back at the root
    breaks conservation: ``AssertionError``.
    """
    if state.status is not SearchStatus.RUNNING:
        raise InvalidStateError(f"search already terminal: {state.status.value}")
    if type(budget) is not int:  # a bool is no int
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if event_cap is not None and type(event_cap) is not int:
        raise ValueError(f"event_cap must be an integer when given, got {event_cap!r}")
    if event_cap is not None and event_cap < 1:
        raise ValueError("event_cap must be >= 1 when given")

    levels = state._levels
    on_path = state._on_path
    stack = state._stack
    n = len(levels)
    total = state.total
    cursor = state._cursor
    closed = state.closed
    # One test per closure covers both exhaustion and the budget; the cap is
    # 0 when absent, which the closure count (at least 1) never equals.
    stop = min(closed + budget, total)
    cap = 0 if event_cap is None else event_cap
    closures = 0
    status = SearchStatus.RUNNING
    witness: tuple[Literal, ...] | None = None
    depth = len(stack)
    row, width, pruned = levels[depth]

    while True:
        if cursor < width:
            code = row[cursor]
            cursor += 1
            if on_path[code ^ 1]:
                # Complement already on the subpath: close here, pruning
                # every completion through the remaining clauses at once.
                closed += pruned
                closures += 1
                if closed >= stop or closures == cap:
                    if closed == total:
                        status = SearchStatus.EXHAUSTED
                    elif closed > total:
                        raise AssertionError(_BROKE_CONSERVATION.format(closed, total))
                    break
                continue
            stack.append(cursor - 1)
            on_path[code] += 1
            depth += 1
            if depth == n:
                status = SearchStatus.OPEN_FOUND
                witness = tuple(
                    state.matrix.clauses[d][i] for d, i in enumerate(stack)
                )
                break
            row, width, pruned = levels[depth]
            cursor = 0
            continue
        if not depth:
            # Back at the root short of the space: the closure that completes
            # the tally ends the walk above.
            raise AssertionError(_BROKE_CONSERVATION.format(closed, total))
        cursor = stack.pop()
        depth -= 1
        row, width, pruned = levels[depth]
        on_path[row[cursor]] -= 1
        cursor += 1

    state._cursor = cursor
    state.closed = closed
    state.closure_count += closures
    state.status = status
    if witness is not None:
        state.witness = witness


def solve(matrix: Matrix, *, max_closures: int | None = None) -> SearchState:
    """Run the search to termination (or until ``max_closures`` closures).

    Returns the final state; ``state.status`` stays RUNNING when the closure
    cap was hit first, or at once under a cap of 0.
    """
    if max_closures is not None and type(max_closures) is not int:
        raise ValueError(f"max_closures must be an integer when given, got {max_closures!r}")
    if max_closures is not None and max_closures < 0:
        raise ValueError(f"max_closures must be >= 0 when given, got {max_closures}")
    state = SearchState(matrix)
    # A budget of the whole space stops only at termination or at the cap.
    if state.status is SearchStatus.RUNNING and max_closures != 0:
        step_search(state, state.total, event_cap=max_closures)
    return state


def fraction_explored(state: SearchState) -> Fraction:
    """Exact fraction of the complete-path space pruned so far."""
    if state.total <= 0:
        raise ValueError("fraction undefined on an empty path space")
    return Fraction(state.closed, state.total)


def literals(*specs: int | tuple[int, bool]) -> Clause:
    """Terse clause builder: ``literals(0, (1, True))`` -> ``(x0, ~x1)``."""
    out = []
    for sp in specs:
        if isinstance(sp, tuple):
            out.append(Literal(sp[0], sp[1]))
        else:
            out.append(Literal(sp))
    return tuple(out)
