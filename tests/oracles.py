"""Independent reference computations that the tests check the package against.

``brute_force_sat``, the truth-table oracle, answers the path search's
satisfiability question by sweeping all ``2**k`` truth assignments at once,
one bit per assignment in a big integer.  It shares no code or traversal
logic with the path search and serves as an independent verification oracle.
"""

import math
import warnings
from fractions import Fraction

from proverb.belief import ModelError, survival_analytic
from proverb.decision import ZERO_COST, TimeCost, UtilityModel, best_action
from proverb.matrix import Matrix


class OracleLimitError(ValueError):
    """Raised when the truth-table oracle is asked to sweep too many symbols."""


def brute_force_sat(matrix: Matrix, limit: int = 20) -> bool:
    """Truth-table satisfiability sweep over all ``2**alphabet_size`` rows.

    Independent oracle for the path search: a matrix is satisfiable iff the
    search finds an open path.  Row ``r`` assigns symbol ``i`` the value of
    bit ``i`` of ``r``; bit ``r`` of ``columns[i]`` holds that value, so each
    clause is the OR of its literals' columns, complemented for a negated
    literal.  Refuses alphabets beyond ``limit`` symbols.
    """
    k = matrix.alphabet_size
    if k > limit:
        raise OracleLimitError(f"alphabet of {k} symbols exceeds oracle limit {limit}")
    full = (1 << (1 << k)) - 1
    columns = [0] * k
    column = full
    for i in reversed(range(k)):
        # Bit i of r is bit i+1 of r xor bit i+1 of r + 2**i, rows past the
        # last reading 0; the all-ones start stands for a bit above the top.
        column ^= column >> (1 << i)
        columns[i] = column
    alive = full
    for cl in matrix.clauses:
        sat = 0
        for lit in cl:
            column = columns[lit.symbol_id]
            sat |= full ^ column if lit.negated else column
        alive &= sat
        if not alive:
            return False
    return alive != 0


def first_open_pmf(remaining: int, open_count: int, j: int) -> Fraction:
    """p(first open path is the j-th examined | ``open_count`` of ``remaining`` open).

    First-success-without-replacement:
    ``prod_{i=0}^{j-2} (1 - O/(l-i)) * O/(l-(j-1))``.  Positions past the
    support (j > l - O + 1) are impossible: flagged with a warning, value 0.
    The oracle for the closed forms ``first_open_cdf`` and
    ``first_open_mean_within`` that price halts in ``nevc_multi``.
    """
    if open_count < 1 or open_count > remaining:
        raise ModelError(
            f"open_count {open_count} invalid for {remaining} remaining paths"
        )
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > remaining - open_count + 1:
        warnings.warn(
            f"first-open position {j} beyond support (remaining={remaining}, "
            f"open={open_count}); probability 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return Fraction(0)
    return survival_analytic(remaining, open_count, j - 1) * Fraction(
        open_count, remaining - (j - 1)
    )


def nevc_one(
    p,
    remaining: int,
    open_dist,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    t0: float = 0.0,
) -> float:
    """Net expected value of examining exactly one more path before acting.

    The one-step case written out directly (halt on the next path with
    probability O/l, else act under the drifted posterior), as the oracle for
    ``nevc_multi`` at lookahead 1.  Takes the same belief arguments.
    """
    t1 = t0 + timecost.tau
    act_now = best_action(p, utilities, timecost, t0)[1]
    if p <= 0 or p >= 1 or remaining == 0:
        return best_action(p, utilities, timecost, t1)[1] - act_now
    pmf1 = sum(weight * Fraction(o, remaining) for o, weight in open_dist)
    p_halt = (1 - p) * pmf1
    survival = 1 - pmf1
    drifted = p / (p + survival * (1 - p))
    u_halt = timecost.utility_at(max(utilities.when_false), t1)
    return float(
        p_halt * u_halt
        + (1 - p_halt) * best_action(drifted, utilities, timecost, t1)[1]
        - act_now
    )


def reference_closures(matrix):
    """The closed prefixes of a plain depth-first walk, in the search's order.

    Yields ``(clause_index, pruned)`` for each prefix whose last literal, from
    clause ``clause_index`` (1-based), meets its complement earlier on the
    prefix; ``pruned`` is the number of complete paths through that prefix.
    Literals are tried left to right, and the walk stops at the first open
    complete path.  An empty clause leaves no complete path, hence nothing to
    close.  The oracle for the closure tallies of ``step_search``: it
    recurses over the clauses and keeps the prefix as a set of signed
    symbols, sharing no state or code with the search.
    """
    clauses = matrix.clauses
    widths = [len(clause) for clause in clauses]
    if not all(widths):
        return

    def walk(depth, prefix):
        # Returns True once the prefix is an open complete path.
        if depth == len(clauses):
            return True
        for lit in clauses[depth]:
            if (lit.symbol_id, not lit.negated) in prefix:
                yield depth + 1, math.prod(widths[depth + 1:])
            elif (yield from walk(depth + 1, prefix | {(lit.symbol_id, lit.negated)})):
                return True
        return False

    yield from walk(0, frozenset())
