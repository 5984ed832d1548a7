"""Independent reference computations that the tests check the package against."""

import math
import warnings
from fractions import Fraction

from proverb.belief import ModelError, survival_analytic
from proverb.decision import ZERO_COST, TimeCost, UtilityModel, best_action


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
