"""Independent reference computations that the tests check the package against."""

from fractions import Fraction

from proverb.decision import ZERO_COST, SearchBeliefs, TimeCost, UtilityModel, u_best


def nevc_one(
    beliefs: SearchBeliefs,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    t0: float = 0.0,
) -> float:
    """Net expected value of examining exactly one more path before acting.

    The one-step case written out directly (halt on the next path with
    probability O/l, else act under the drifted posterior), as the oracle for
    ``nevc_multi`` at lookahead 1.
    """
    p = beliefs.posterior
    l = beliefs.remaining
    act_now = u_best(p, utilities, timecost, 0, t0)
    if p <= 0 or p >= 1 or l == 0:
        return u_best(p, utilities, timecost, 1, t0) - act_now
    pmf1 = sum(weight * Fraction(o, l) for o, weight in beliefs.open_dist)
    p_halt = (1 - p) * pmf1
    survival = 1 - pmf1
    drifted = p / (p + survival * (1 - p))
    u_halt = timecost.utility_at(max(utilities.when_false), timecost.time_for(1, t0))
    return float(
        p_halt * u_halt
        + (1 - p_halt) * u_best(drifted, utilities, timecost, 1, t0)
        - act_now
    )
