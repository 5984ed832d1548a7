"""Acting under uncertainty about the claim, and pricing further search.

The first half is classical: the best action under a binary belief about
the claim, and the indifference threshold p* between two actions.  Time
enters through a ``TimeCost``: utilities are additive-separable,
``u(A, outcome, t) = base - cost(t)`` for the zero/linear kinds, while the
deadline kind collapses every utility to a flat penalty once ``t`` passes
the deadline.  Model time is a function of the paths examined alone,
``t(w) = w * tau``, exact and rounded once (``TimeCost.time_of``).

The second half prices continued search by one rule, all of a step's
candidate lookaheads in one call.  The net expected value of examining x
more paths is the halt term plus the no-halt mass times the best utility at
the drifted posterior and t(x), minus the utility of acting now, which is
priced once.  With survival ``S`` of the claim's negation so far and
``S_x`` after x more paths, the no-halt mass is ``p + (1-p) * S_x / S`` and
the drifted posterior ``p / (p + (1-p) * S_x / S)``.  At a certain
posterior search carries no information, and the value is pure delay.  The
two belief sources differ only in the survival pair and the halt term:

* ``nevc_multi`` (urn model): with probability ``(1-p) * p(j)`` the search
  halts at path j with a disproof, acted on under certainty at t(j), where
  ``p(j)`` is the urn's first-open probability.  The sums over j follow
  from the survival ``S`` of the next x paths alone (``l`` paths remain,
  ``O`` of them open):

      sum_{j<=x} p(j) = 1 - S,   sum_{j<=x} j*p(j) = ((l+1) - S*(l+1+x*O)) / (O+1)

  ``tests/oracles.py`` writes both sums out and pins them to the literal
  sum of ``p(j)``.  The model's joint terms ``J(o) = scale(o) * P(l, o)``
  (count o's weight times its survival, over one common denominator) give
  the conditional weight ``J(o) / sum J`` and count o's survival of the
  next x paths, ``J'(o) / J(o)`` with ``J'`` the terms x paths on.  So the
  survival pair over the mixture is ``(sum J', sum J)``, with no
  conditional ``Fraction`` built and no product of the counts'
  denominators.  The halt mass ``(sum J - sum J') / sum J``, the in-time
  mass (the same with J at the deadline's last path) and the mean halt
  path ``sum ((l+1)*J - J'*(l+1+x*O)) * L/(O+1)`` over ``sum J * L``, with
  ``L`` the least common multiple of the counts' ``O+1``, are exact sums
  over the counts, each rounded once: one count prices as a one-point
  mixture.  The model builds ``L`` and each count's ``L/(O+1)`` once, and
  keeps the last searched count's terms beside their sum ``sum J``, which
  the posterior (through ``survival``) and the pricing at one step share.
  The zero cost is the linear cost at rate 0, priced in the same loop
  without forming the mean, which only the rate multiplies.  A lookahead
  of millions of paths costs one falling-factorial product per open count
  (two under a deadline).
* ``nevc_two_outcome`` (empirical curve): the pair is the ratio of survivor
  counts, and the halt is valued at the chunk end -- a step curve says
  nothing about where inside the chunk the find lands, and under
  nondecreasing costs end-pricing never overprices search (stops err
  early, not late).

Every probability is carried as an unreduced integer pair (numerator,
denominator), a float input at its exact rational value, and becomes a float
through one correctly rounded ``int / int`` where it meets a utility, so
each float is the one the reduced ``Fraction`` gives.  The best utility of
acting at (p, t) is one private float expression over the (u_w, u_~w) rows
that ``UtilityModel`` builds once; ``best_action`` adds its checks and the
action's name, and the pricing calls it per candidate unchecked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from .belief import AnalyticModel, ModelError, Probability, probability_pair

__all__ = [
    "DominanceError",
    "LookaheadError",
    "UtilitySpecError",
    "CostKind",
    "TimeCost",
    "UtilityModel",
    "ZERO_COST",
    "best_action",
    "threshold",
    "nevc_multi",
    "nevc_two_outcome",
    "parse_utility_spec",
    "format_utility_spec",
]


class DominanceError(ValueError):
    """No indifference threshold exists for this utility table."""


class LookaheadError(ValueError):
    """Lookahead outside 1..remaining."""


class UtilitySpecError(ValueError):
    """Malformed utility specification text."""


class CostKind(Enum):
    ZERO = "zero"
    LINEAR = "linear"
    DEADLINE = "deadline"


@dataclass(frozen=True)
class TimeCost:
    """Time pricing: kind plus the paths->time scale ``tau``.

    zero:      u(A, o, t) = base
    linear:    u(A, o, t) = base - rate * t
    deadline:  u(A, o, t) = base while t <= deadline, else the flat penalty
    """

    kind: CostKind = CostKind.ZERO
    rate: float = 0.0
    deadline_at: float = 0.0
    penalty: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rate", "deadline_at", "penalty", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.kind is CostKind.LINEAR and self.rate < 0:
            raise ValueError("linear rate must be >= 0")
        if self.kind is CostKind.DEADLINE and self.deadline_at < 0:
            raise ValueError("deadline must be >= 0")
        # The clock's constants: tau as an exact ratio, and the last path
        # count whose time is within the deadline (see ``paths_in_time``); m
        # is the deadline in units of its last place.
        (n, d), ulp = self.tau.as_integer_ratio(), math.ulp(self.deadline_at)
        m, (c, e) = int(self.deadline_at / ulp), ulp.as_integer_ratio()
        self.__dict__.update(_ratio=(n, d), _last=((2 * m + 1) * c * d - m % 2) // (2 * e * n))

    @classmethod
    def zero(cls, tau: float = 1.0) -> "TimeCost":
        return cls(CostKind.ZERO, tau=tau)

    @classmethod
    def linear(cls, rate: float, tau: float = 1.0) -> "TimeCost":
        return cls(CostKind.LINEAR, rate=rate, tau=tau)

    @classmethod
    def deadline(cls, at: float, penalty: float, tau: float = 1.0) -> "TimeCost":
        return cls(CostKind.DEADLINE, deadline_at=at, penalty=penalty, tau=tau)

    def utility_at(self, base: float, t: float) -> float:
        if self.kind is CostKind.DEADLINE and t > self.deadline_at:
            return self.penalty
        if t < 0:
            raise ValueError("t must be >= 0")
        if self.kind is CostKind.LINEAR:
            return base - self.rate * t
        return base

    def time_of(self, paths: int, per: int = 1) -> float:
        """The model time of ``paths / per`` examined paths, ``tau`` times
        that, exact and rounded once.  Beyond float's range it is inf below
        2**53 paths, where it is the float product, and raises
        ``OverflowError`` above."""
        if per == 1 and paths <= 2**53:  # float(paths) is exact: one rounding
            return paths * self.tau
        n, d = self._ratio
        return paths * n / (d * per)

    def paths_in_time(self, searched: int, limit: int) -> int:
        """Largest j <= limit with ``time_of(searched + j)`` within the
        deadline, or 0 when there is none.

        ``time_of(w) <= deadline_at`` exactly when ``w * tau`` lies below the
        midpoint between ``deadline_at`` and the next float up, or on it when
        that tie rounds down, to an even ``deadline_at``.
        """
        if self.kind is not CostKind.DEADLINE:
            return limit
        return max(0, min(limit, self._last - searched))


ZERO_COST = TimeCost()


@dataclass(frozen=True)
class UtilityModel:
    """Named actions with base utilities under the claim and its negation."""

    actions: tuple[str, ...]
    when_true: tuple[float, ...]
    when_false: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "when_true", tuple(float(v) for v in self.when_true))
        object.__setattr__(self, "when_false", tuple(float(v) for v in self.when_false))
        if len(self.actions) < 2:
            raise ValueError("need at least two actions")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("action names must be distinct")
        if not (len(self.actions) == len(self.when_true) == len(self.when_false)):
            raise ValueError("utility rows must match the action list")
        values = (*self.when_true, *self.when_false)
        if not all(map(math.isfinite, values)):
            raise ValueError("utilities must be finite")
        if not math.isfinite(max(values) - min(values)):
            raise ValueError("utilities must span less than float's range")
        # Each action's (u_w, u_~w), the rows ``_best`` reads.
        self.__dict__["_pairs"] = tuple(zip(self.when_true, self.when_false))

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, tuple[float, float]]) -> "UtilityModel":
        """Build from {action: (u_when_true, u_when_false)}, preserving order."""
        names = tuple(pairs)
        return cls(
            names,
            tuple(float(pairs[a][0]) for a in names),
            tuple(float(pairs[a][1]) for a in names),
        )


def _best(p: Probability, pairs, timecost: TimeCost, t: float) -> tuple[int, float]:
    """The first action of highest expected utility ``p * (ut - uf) + uf`` at
    model time ``t``, and that utility, over the table's (u_w, u_~w) rows: a
    linear cost lowers each utility by ``rate * t``, and past a deadline every
    utility is the penalty, where the first action ties the rest."""
    kind = timecost.kind
    if kind is CostKind.DEADLINE and t > timecost.deadline_at:
        late = timecost.penalty
        return 0, p * (late - late) + late
    shift = timecost.rate * t if kind is CostKind.LINEAR else 0.0  # u - 0.0 is u, bit for bit
    best_i = 0
    best_eu = None
    for i, (ut, uf) in enumerate(pairs):
        eu = p * ((ut - shift) - (uf - shift)) + (uf - shift)
        if best_eu is None or eu > best_eu:
            best_i, best_eu = i, eu
    return best_i, best_eu


def best_action(
    p_w: Probability,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    t: float = 0.0,
) -> tuple[str, float]:
    """Utility-maximizing action under a binary belief; ties -> lowest index."""
    if not 0 <= p_w <= 1:
        raise ValueError(f"p_w {p_w} outside [0, 1]")
    if t < 0:
        raise ValueError("t must be >= 0")
    best_i, best_eu = _best(p_w, utilities._pairs, timecost, t)
    return utilities.actions[best_i], float(best_eu)


def threshold(utilities: UtilityModel) -> float:
    """Indifference probability p* between two actions.

    Requires the canonical orientation: the first action is the bet on the
    claim (better when true), the second the hedge (better when false).
    Acting p > p* favors the first action, p < p* the second.
    """
    if len(utilities.actions) != 2:
        raise DominanceError("threshold is defined for exactly two actions")
    gain_true = utilities.when_true[0] - utilities.when_true[1]
    gain_false = utilities.when_false[1] - utilities.when_false[0]
    if gain_true <= 0 or gain_false <= 0:
        raise DominanceError(
            "no interior threshold: one action weakly dominates (or the bet/hedge "
            f"orientation is reversed); gains were {gain_true} when true, "
            f"{gain_false} when false"
        )
    return gain_false / (gain_false + gain_true)


def _check_lookaheads(lookaheads: Sequence[int], what: str) -> None:
    for x in lookaheads:
        if x < 1:
            raise LookaheadError(f"{what} {x} must be >= 1")


def _net_values(
    p_num: int,
    p_den: int,
    utilities: UtilityModel,
    timecost: TimeCost,
    lookaheads: Sequence[int],
    searched: int,
    branches: Callable[[int], Iterator[tuple[int, int, float]]] | None,
) -> tuple[float, ...]:
    """The pricing rule both belief sources share, ``searched`` paths in.

    ``branches(q_num)``, with ``q_num / p_den = 1 - p``, yields per lookahead
    the survival pair ``(S_x, S)`` of the claim's negation and the halt term.
    Over the denominator ``p_den * S`` the no-halt mass is
    ``p_num * S + q_num * S_x``, whose numerator also divides the drifted
    posterior.  ``branches`` is None when no search remains to inform.
    """
    pairs, time_of = utilities._pairs, timecost.time_of

    def act(p: float, paths: int) -> float:  # the best utility after ``paths``
        return _best(p, pairs, timecost, time_of(searched + paths))[1]

    p = p_num / p_den
    act_now = act(p, 0)
    if branches is None or p_num == 0 or p_num == p_den:
        return tuple(act(p, x) - act_now for x in lookaheads)
    q_num = p_den - p_num
    values = []
    s_last = None
    for x, (s_x, s, halt_term) in zip(lookaheads, branches(q_num)):
        if s != s_last:  # the candidates mostly share one survival S
            s_last, stay, whole = s, p_num * s, p_den * s
        no_halt = stay + q_num * s_x
        values.append(halt_term + no_halt / whole * act(stay / no_halt, x) - act_now)
    return tuple(values)


def nevc_multi(
    posterior_w: Probability | tuple[int, int],
    model: AnalyticModel,
    searched: int,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    lookaheads: Sequence[int] = (1,),
) -> tuple[float, ...]:
    """Net expected value of examining each of ``lookaheads`` more paths.

    ``model`` is the urn model of the whole search and ``searched`` the
    paths closed so far without an open one; the remaining paths are
    ``model.total - searched``, and the open count among them is conditioned
    on that survival here.  ``posterior_w`` may be an exact pair.  Each halt
    is valued at its own path's time: the halt mass, the in-time mass and
    the mean halt path are exact sums over the open counts, each rounded
    once where it meets a utility.  An empty remainder, like a certain
    posterior, leaves only the pure delay cost.
    """
    _check_lookaheads(lookaheads, "lookahead")
    p_num, p_den = probability_pair(posterior_w, "posterior")
    remaining = model.total - searched

    def branches(q_num: int) -> Iterator[tuple[int, int, float]]:
        # J are the joint terms at ``searched``, J' those x paths on, and a
        # deadline adds those at its last in-time path.  Each halt quantity
        # is an exact sum over the counts, a ruled-out count adding 0, that
        # meets a float once; the sums of J and J' are the model's own.
        for x in lookaheads:
            if x > remaining:
                raise LookaheadError(f"lookahead {x} exceeds remaining paths {remaining}")
        now, total_now = model._at(searched)
        if total_now == 0:
            raise ModelError(f"no open count fits the {remaining} remaining paths")
        max_false = max(utilities.when_false)
        weight, kind, at = q_num / p_den, timecost.kind, model._at
        if kind is not CostKind.DEADLINE:
            # The zero cost is the linear cost at rate 0, and forms no mean
            # halt path.  That mean over total_now * L, sum ((l+1)*J -
            # J'*(l+1+x*O)) * L/(O+1), is split into its sums over J and J'.
            linear, time_of = kind is CostKind.LINEAR, timecost.time_of
            level, cost = max_false, 0.0  # the linear cost's line, and the cost of the mean
            if linear:
                rate, den = timecost.rate, total_now * model._lcm
                level -= rate * time_of(searched)
                per_count, per_open = model._per_count, model._per_open
                lead = (remaining + 1) * sum(map(mul, now, per_count))
            for x in lookaheads:
                after, total_after = at(searched + x)
                if linear:
                    mean = lead - (remaining + 1) * sum(map(mul, after, per_count))
                    cost = rate * time_of(mean - x * sum(map(mul, after, per_open)), den)
                halt = (total_now - total_after) / total_now
                yield total_after, total_now, weight * (level * halt - cost)
        else:  # deadline: step split at the last in-time path index
            penalty = timecost.penalty
            for x in lookaheads:
                in_time = at(searched + timecost.paths_in_time(searched, x))[1]
                total_after = at(searched + x)[1]
                yield total_after, total_now, weight * (
                    max_false * ((total_now - in_time) / total_now)
                    + penalty * ((in_time - total_after) / total_now)
                )

    return _net_values(
        p_num, p_den, utilities, timecost, lookaheads, searched, branches if remaining else None
    )


def nevc_two_outcome(
    posterior_w: Probability | tuple[int, int],
    survival_ratios: Sequence[Probability | tuple[int, int]],
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    lookaheads: Sequence[int] = (1,),
    searched: int = 0,
) -> tuple[float, ...]:
    """Chunk-level net value of each of ``lookaheads`` from an empirical curve.

    ``survival_ratios[k]`` is curve(s') / curve(s) for ``lookaheads[k]``: the
    chance that a chunk of that many more examinations stays unfound given
    not-w and survival over the ``searched`` paths so far.  Ratios and
    posterior may be exact pairs.  The halt branch is valued at the chunk end
    t(searched + paths) -- a step curve says nothing about where inside the
    chunk the find lands, and end-pricing never overprices search under
    nondecreasing cost.
    """
    _check_lookaheads(lookaheads, "paths")
    p_num, p_den = probability_pair(posterior_w, "posterior")
    ratios = [probability_pair(r, "survival ratio") for r in survival_ratios]
    if len(ratios) != len(lookaheads):
        raise ValueError("need one survival ratio per lookahead")
    max_false = max(utilities.when_false)

    def branches(q_num: int) -> Iterator[tuple[int, int, float]]:
        for paths, (r_num, r_den) in zip(lookaheads, ratios):
            u_halt = timecost.utility_at(max_false, timecost.time_of(searched + paths))
            yield r_num, r_den, q_num * (r_den - r_num) / (p_den * r_den) * u_halt

    return _net_values(p_num, p_den, utilities, timecost, lookaheads, searched, branches)


# ---------------------------------------------------------------------------
# One-line utility spec text format.
#
#   actions=A1,A2; u(A1,w)=1; u(A1,~w)=0; u(A2,w)=0; u(A2,~w)=1;
#   cost=linear:0.01; tau=0.001
#
# cost is zero | linear:RATE | deadline:AT:PENALTY  (default zero, tau 1.0).
# Each key is given once; spaces inside a key do not count.

# The ``TimeCost`` fields that each cost kind's spec text carries after its
# name, in order: parsing and formatting both read this table.
_COST_FIELDS = {
    CostKind.ZERO: (),
    CostKind.LINEAR: ("rate",),
    CostKind.DEADLINE: ("deadline_at", "penalty"),
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_+-]*$")
_U_KEY_RE = re.compile(r"^u\(([^,()]+),(~?w)\)$")


def parse_utility_spec(text: str) -> tuple[UtilityModel, TimeCost]:
    actions: list[str] | None = None
    entries: dict[tuple[str, str], float] = {}
    cost_spec = "zero"
    tau = 1.0
    seen: set[str] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise UtilitySpecError(f"expected key=value, got {chunk!r}")
        key = key.strip().replace(" ", "")
        if key in seen:
            raise UtilitySpecError(f"{key} given twice")
        seen.add(key)
        value = value.strip()
        if key == "actions":
            actions = [a.strip() for a in value.split(",") if a.strip()]
            if len(actions) < 2:
                raise UtilitySpecError("actions= needs at least two names")
            for a in actions:
                if not _NAME_RE.match(a):
                    raise UtilitySpecError(f"bad action name {a!r}")
        elif key == "cost":
            cost_spec = value
        elif key == "tau":
            try:
                tau = float(value)
            except ValueError as exc:
                raise UtilitySpecError(f"bad tau {value!r}") from exc
        elif m := _U_KEY_RE.match(key):
            try:
                entries[(m.group(1), m.group(2))] = float(value)
            except ValueError as exc:
                raise UtilitySpecError(f"bad utility value {value!r}") from exc
        else:
            raise UtilitySpecError(f"unrecognized key {key!r}")
    if actions is None:
        raise UtilitySpecError("missing actions=")
    when_true = []
    when_false = []
    for a in actions:
        for outcome, bucket in (("w", when_true), ("~w", when_false)):
            if (a, outcome) not in entries:
                raise UtilitySpecError(f"missing u({a},{outcome})")
            bucket.append(entries[(a, outcome)])
    stray = ", ".join(f"u({a},{o})" for a, o in entries if a not in actions)
    if stray:
        raise UtilitySpecError(f"utilities for unknown actions: {stray}")
    try:
        model = UtilityModel(tuple(actions), tuple(when_true), tuple(when_false))
    except ValueError as exc:
        raise UtilitySpecError(str(exc)) from exc

    name, *args = cost_spec.split(":")
    try:
        for kind, names in _COST_FIELDS.items():
            if kind.value == name and len(names) == len(args):
                cost = TimeCost(kind, tau=tau, **dict(zip(names, map(float, args))))
                break
        else:
            raise UtilitySpecError(
                f"cost must be zero | linear:RATE | deadline:AT:PENALTY, got {cost_spec!r}"
            )
    except ValueError as exc:
        raise UtilitySpecError(f"bad cost spec {cost_spec!r}: {exc}") from exc
    return model, cost


def format_utility_spec(utilities: UtilityModel, timecost: TimeCost) -> str:
    """Canonical text form; parse(format(...)) round-trips exactly."""
    bits = ["actions=" + ",".join(utilities.actions)]
    for i, a in enumerate(utilities.actions):
        bits.append(f"u({a},w)={utilities.when_true[i]!r}")
        bits.append(f"u({a},~w)={utilities.when_false[i]!r}")
    values = [repr(getattr(timecost, name)) for name in _COST_FIELDS[timecost.kind]]
    bits.append(":".join(["cost=" + timecost.kind.value, *values]))
    bits.append(f"tau={timecost.tau!r}")
    return "; ".join(bits)
