"""Independent reference computations that the tests check the package against.

``brute_force_sat``, the truth-table oracle, answers the path search's
satisfiability question by sweeping all ``2**k`` truth assignments at once,
one bit per assignment in a big integer.  It shares no code or traversal
logic with the path search and serves as an independent verification oracle.

The ``fraction_*`` functions read the survival models and price lookaheads
with every exact probability a ``Fraction``; a float enters only where a
``Fraction`` meets a utility.  Since
CPython evaluates ``Fraction op float`` as ``float(Fraction) op float``, they
are the bit-for-bit oracle of the package's integer-pair pricing.  The best
expected utility of acting is read off the utility table here
(``_best_eu``), so they and ``nevc_one`` share no code with the pricing
they check.
``one_lookahead`` and ``one_chunk`` call the package's pricers, which take
all of a step's candidates at once, for one candidate in the oracles'
signatures.

Model time is ``float(Fraction(tau) * work)``, the exact time of ``work``
paths rounded once, and the paths that fit before a deadline are found by
bisection on that time.

``SplitMix64`` is the generator's random stream as a class, and
``reference_generate`` draws an instance from it the plain way, one method
call per draw and one new literal per literal: the reference that
``generator.generate`` must match byte for byte.
"""

import math
import warnings
from bisect import bisect_right
from fractions import Fraction

from proverb.belief import AnalyticModel, ModelError
from proverb.decision import (
    ZERO_COST,
    CostKind,
    LookaheadError,
    TimeCost,
    UtilityModel,
    nevc_multi,
    nevc_two_outcome,
)
from proverb.matrix import Literal, Matrix


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
    ``first_open_mean_within`` below.
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
    return fraction_survival(remaining, open_count, j - 1) * Fraction(
        open_count, remaining - (j - 1)
    )


def nevc_one(
    p,
    remaining: int,
    open_dist,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
) -> float:
    """Net expected value of examining exactly one more path before acting.

    The one-step case written out directly (halt on the next path with
    probability O/l, else act under the drifted posterior), as the oracle for
    ``nevc_multi`` at lookahead 1.  Takes the same belief arguments.
    """
    t1 = _time(timecost, 1)
    act_now = _best_eu(p, utilities, timecost, 0.0)
    if p <= 0 or p >= 1 or remaining == 0:
        return _best_eu(p, utilities, timecost, t1) - act_now
    pmf1 = sum(weight * Fraction(o, remaining) for o, weight in open_dist)
    p_halt = (1 - p) * pmf1
    survival = 1 - pmf1
    drifted = p / (p + survival * (1 - p))
    u_halt = timecost.utility_at(max(utilities.when_false), t1)
    return float(
        p_halt * u_halt
        + (1 - p_halt) * _best_eu(drifted, utilities, timecost, t1)
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


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-ratio increment."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by bitmask rejection (exactly uniform)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            value = self.next_u64() & mask
            if value < n:
                return value

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)


def reference_generate(config) -> Matrix:
    """One random matrix: distinct symbols per clause, fair negation coin."""
    rng = SplitMix64(config.seed)
    clauses = []
    for _ in range(config.n_clauses):
        used = set()
        lits = []
        for _ in range(config.lits_per_clause):
            symbol = rng.below(config.alphabet_size)
            while symbol in used:
                symbol = rng.below(config.alphabet_size)
            used.add(symbol)
            lits.append(Literal(symbol, rng.coin()))
        clauses.append(tuple(lits))
    return Matrix(tuple(clauses), config.alphabet_size)


def fraction_survival(total: int, open_count: int, searched: int) -> Fraction:
    """p(first ``searched`` examined paths all closed | ``open_count`` of ``total`` open).

    Sampling without replacement:  prod_{i<searched} (1 - O/(M-i)), computed
    via the equal closed form C(M-searched, O)/C(M, O) so huge path spaces
    cost only O(open_count) big-integer operations.  Searching past the
    closed population (searched > M - O) is impossible unfound: returns 0.
    """
    if open_count < 1:
        raise ModelError("open_count must be >= 1 (not-w guarantees an open path)")
    if open_count > total:
        raise ModelError(f"open_count {open_count} exceeds total paths {total}")
    if searched < 0:
        raise ValueError("searched must be >= 0")
    if searched > total - open_count:
        return Fraction(0)
    num = 1
    den = 1
    for i in range(open_count):
        num *= total - searched - i
        den *= total - i
    return Fraction(num, den)


def fraction_curve_value(fractions, s) -> Fraction:
    """The empirical survival curve at ``s``: the share of samples above ``s``.

    Pinned to 1 at ``s = 0`` (every search begins unfound), and 1 everywhere
    when there are no samples.  A bisection over the samples as
    ``Fraction``s, the oracle for ``SurvivalCurve.survivors``.
    """
    samples = sorted(Fraction(f) for f in fractions)
    s = Fraction(s)
    n = len(samples)
    if s == 0 or n == 0:
        return Fraction(1)
    return Fraction(n - bisect_right(samples, s), n)


def first_open_cdf(remaining: int, open_count: int, within: int) -> Fraction:
    """p(first open path appears within the next ``within`` examinations)."""
    if within < 0:
        raise ValueError("within must be >= 0")
    if within == 0:
        return Fraction(0)
    return 1 - fraction_survival(remaining, open_count, min(within, remaining))


def first_open_mean_within(remaining: int, open_count: int, within: int) -> Fraction:
    """Truncated mean  sum_{j<=within} j * p(j)  of the first-open position.

    The closed form  ((l+1) - S*(l+1+x*O)) / (O+1), with ``S`` the survival
    of the first ``x`` paths, comes from
    sum_{j<=x} j*p(j) = sum_{t=1..x} p(J >= t) - x*p(J > x) and the
    hockey-stick identity sum_{u<x} C(l-u, O) = C(l+1, O+1) - C(l-x+1, O+1),
    divided by C(l, O).  It costs one survival product, O(open_count)
    big-integer operations, regardless of x.
    """
    if within < 0:
        raise ValueError("within must be >= 0")
    l, o = remaining, open_count
    x = min(within, l)
    if x == 0:
        return Fraction(0)
    if o < 1 or o > l:
        raise ModelError(f"open_count {o} invalid for {l} remaining paths")
    survival = fraction_survival(l, o, x)
    return (l + 1 - survival * (l + 1 + x * o)) / (o + 1)


def fraction_posterior(prior, survival):
    """Posterior of the claim after surviving search: likelihood 1 under w."""
    for name, v in (("prior", prior), ("survival", survival)):
        if not 0 <= v <= 1:
            raise ValueError(f"{name} {v} outside [0, 1]")
    if prior == 0:
        # The claim is impossible a priori; no amount of survival revives it,
        # not even survival the model of not-w rules out.
        return Fraction(0)
    return prior / (prior + (1 - prior) * survival)


def fraction_analytic_posterior(prior, total: int, open_dist, closed: int):
    """The analytic source's posterior: Bayes over the mixture's survival."""
    survival = sum(p * fraction_survival(total, o, closed) for o, p in open_dist)
    return fraction_posterior(prior, survival)


def fraction_conditional(total: int, open_dist, searched: int):
    """Distribution of the open count given survival to ``searched``."""
    dist = open_dist
    if len(dist) == 1:
        return ((dist[0][0], Fraction(1)),)
    weighted = [(o, p * fraction_survival(total, o, searched)) for o, p in dist]
    norm = sum(w for _, w in weighted)
    if norm == 0:
        return dist
    return tuple((o, w / norm) for o, w in weighted if w)


def _time(timecost, work):
    """The model time of ``work`` examined paths, an int or a ``Fraction``."""
    return float(Fraction(timecost.tau) * work)


def _paths_in_time(timecost, searched, limit):
    """Largest j <= limit whose time, ``searched + j`` paths in, meets the
    deadline, else 0; by bisection."""
    if timecost.kind is not CostKind.DEADLINE:
        return limit

    def fits(j):
        return _time(timecost, searched + j) <= timecost.deadline_at

    lo, hi = 0, limit + 1  # hi is past the answer
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _best_eu(p, utilities, timecost, t):
    """Best expected utility of acting on ``p`` at model time ``t``, read off
    the table: past a deadline every utility is the penalty, and a linear
    cost lowers each by ``rate * t``.  Ties keep the first action's value."""
    if timecost.kind is CostKind.DEADLINE and t > timecost.deadline_at:
        late = timecost.penalty
        return float(p * (late - late) + late)
    shift = timecost.rate * t if timecost.kind is CostKind.LINEAR else None
    rows = zip(utilities.when_true, utilities.when_false)
    if shift is not None:
        rows = [(ut - shift, uf - shift) for ut, uf in rows]
    return max(float(p * (ut - uf) + uf) for ut, uf in rows)


def _act_value(p, utilities, timecost, paths, searched):
    """Best expected utility of acting on ``p`` after ``paths`` more examinations."""
    return _best_eu(p, utilities, timecost, _time(timecost, searched + paths))


def _halt_branch_value(dist, remaining, x, utilities, timecost, searched):
    """(sum_j pmf(j) * u_halt(t(j)), sum_j pmf(j)) for j = 1..x, per-(1-p).

    The mixture's halt mass, mean halt path and in-time mass are exact
    averages over ``dist`` of each count's closed forms, and each meets a
    float once.
    """
    max_false = max(utilities.when_false)
    halt_mass = sum(weight * first_open_cdf(remaining, o, x) for o, weight in dist)
    if timecost.kind is CostKind.ZERO:
        return halt_mass * max_false, halt_mass
    if timecost.kind is CostKind.LINEAR:
        mean_j = sum(weight * first_open_mean_within(remaining, o, x) for o, weight in dist)
        level = max_false - timecost.rate * _time(timecost, searched)
        return level * halt_mass - timecost.rate * _time(timecost, mean_j), halt_mass
    # deadline: step split at the last in-time path index
    j_ok = _paths_in_time(timecost, searched, x)
    early = sum(weight * first_open_cdf(remaining, o, j_ok) for o, weight in dist)
    return max_false * early + timecost.penalty * (halt_mass - early), halt_mass


def fraction_nevc_multi(
    posterior_w,
    remaining: int,
    open_dist,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    lookahead: int = 1,
    searched: int = 0,
) -> float:
    """Net expected value of examining ``lookahead`` more paths before acting,
    ``searched`` paths in; ``open_dist`` is the open count's distribution over
    the ``remaining`` paths."""
    if lookahead < 1:
        raise LookaheadError(f"lookahead {lookahead} must be >= 1")
    p = posterior_w
    if not 0 <= p <= 1:
        raise ValueError(f"posterior {p} outside [0, 1]")
    act_now = _act_value(p, utilities, timecost, 0, searched)
    if p <= 0 or p >= 1 or remaining == 0:
        return _act_value(p, utilities, timecost, lookahead, searched) - act_now
    if lookahead > remaining:
        raise LookaheadError(
            f"lookahead {lookahead} exceeds remaining paths {remaining}"
        )
    halt_value, halt_mass = _halt_branch_value(
        open_dist, remaining, lookahead, utilities, timecost, searched
    )
    survival = 1 - halt_mass
    p_halt = (1 - p) * halt_mass
    drifted = p / (p + survival * (1 - p))
    act_after = _act_value(drifted, utilities, timecost, lookahead, searched)
    return float((1 - p) * halt_value + (1 - p_halt) * act_after - act_now)


def fraction_nevc_two_outcome(
    posterior_w,
    survival_ratio,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    paths: int = 1,
    searched: int = 0,
) -> float:
    """Chunk-level net value from an empirical curve, halts priced at the chunk end."""
    if paths < 1:
        raise LookaheadError(f"paths {paths} must be >= 1")
    p = posterior_w
    if not 0 <= p <= 1:
        raise ValueError(f"posterior {p} outside [0, 1]")
    if not 0 <= survival_ratio <= 1:
        raise ValueError(f"survival ratio {survival_ratio} outside [0, 1]")
    act_now = _act_value(p, utilities, timecost, 0, searched)
    if p <= 0 or p >= 1:
        return _act_value(p, utilities, timecost, paths, searched) - act_now
    p_halt = (1 - p) * (1 - survival_ratio)
    drifted = p / (p + survival_ratio * (1 - p))
    u_halt = timecost.utility_at(
        max(utilities.when_false), _time(timecost, searched + paths)
    )
    return float(
        p_halt * u_halt
        + (1 - p_halt) * _act_value(drifted, utilities, timecost, paths, searched)
        - act_now
    )


def one_lookahead(
    p,
    remaining: int,
    open_dist,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    lookahead: int = 1,
) -> float:
    """``nevc_multi`` at one lookahead, in ``fraction_nevc_multi``'s signature.

    ``open_dist`` is the open count's distribution over the ``remaining``
    paths, so the urn model starts there with none searched.
    """
    model = AnalyticModel(remaining, dict(open_dist))
    return nevc_multi(p, model, 0, utilities, timecost, (lookahead,))[0]


def one_chunk(
    p,
    survival_ratio,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    paths: int = 1,
    searched: int = 0,
) -> float:
    """``nevc_two_outcome`` at one chunk, in ``fraction_nevc_two_outcome``'s signature."""
    return nevc_two_outcome(p, (survival_ratio,), utilities, timecost, (paths,), searched)[0]
