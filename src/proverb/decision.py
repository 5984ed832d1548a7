"""Acting under uncertainty about the claim, and pricing further search.

The first half is classical: the best action under a binary belief about
the claim, and the indifference threshold p* between two actions.  Time
enters through a ``TimeCost``: utilities are additive-separable,
``u(A, outcome, t) = base - cost(t)`` for the zero/linear kinds, while the
deadline kind collapses every utility to a flat penalty once ``t`` passes
the deadline.  Model time is proportional to
paths examined: ``t(j) = t0 + j * tau``.

The second half prices continued search.  ``nevc_multi`` computes the net
expected value of examining x more paths before acting:
with probability ``(1-p) * p(j)`` the search halts at path j with a disproof
(act under certainty, at time t(j)), where ``p(j)`` is the urn's first-open
probability; otherwise the posterior drifts up by the survival ratio and the
best action is taken at t(x).  The net value subtracts the utility of acting
immediately.  The sums over j follow from the survival ``S`` of the next x
paths alone (``l`` paths remain, ``O`` of them open):

    sum_{j<=x} p(j) = 1 - S,   sum_{j<=x} j*p(j) = ((l+1) - S*(l+1+x*O)) / (O+1)

``tests/oracles.py`` writes both sums out and pins them to the literal sum
of ``p(j)``.  Every probability is carried as an unreduced integer pair
(numerator, denominator), a float input at its exact rational value, and
becomes a float through one correctly rounded ``int / int`` where it meets a
utility.  A lookahead of millions of paths costs one falling-factorial
product per open count (two under a deadline) and no ``Fraction``
arithmetic.

``nevc_two_outcome`` is the empirical-curve variant used when only a step
curve is known: the halt branch is valued at the chunk end, which under
nondecreasing costs never overprices search (stops err early, not late).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from math import perm
from typing import Mapping

from .belief import OpenDist, Probability, check_open_count, probability_pair

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

    def paths_in_time(self, t0: float, limit: int) -> int:
        """Largest j <= limit with t0 + j*tau within the deadline (float-robust)."""
        if self.kind is not CostKind.DEADLINE:
            return limit
        if t0 > self.deadline_at:
            return 0
        j = int((self.deadline_at - t0) / self.tau)
        while j > 0 and t0 + j * self.tau > self.deadline_at:
            j -= 1
        while j < limit and t0 + (j + 1) * self.tau <= self.deadline_at:
            j += 1
        return min(j, limit)


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
        for v in (*self.when_true, *self.when_false):
            if not math.isfinite(v):
                raise ValueError("utilities must be finite")

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, tuple[float, float]]) -> "UtilityModel":
        """Build from {action: (u_when_true, u_when_false)}, preserving order."""
        names = tuple(pairs)
        return cls(
            names,
            tuple(float(pairs[a][0]) for a in names),
            tuple(float(pairs[a][1]) for a in names),
        )


def best_action(
    p_w: Probability,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    t: float = 0.0,
) -> tuple[str, float]:
    """Utility-maximizing action under a binary belief; ties -> lowest index."""
    if not 0 <= p_w <= 1:
        raise ValueError(f"p_w {p_w} outside [0, 1]")
    best_i = 0
    best_eu = None
    for i in range(len(utilities.actions)):
        ut = timecost.utility_at(utilities.when_true[i], t)
        uf = timecost.utility_at(utilities.when_false[i], t)
        eu = p_w * (ut - uf) + uf
        if best_eu is None or eu > best_eu:
            best_i, best_eu = i, eu
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


def _act_value(
    p: Probability,
    utilities: UtilityModel,
    timecost: TimeCost,
    paths: int,
    t0: float,
) -> float:
    """Best expected utility of acting on ``p`` after ``paths`` more examinations."""
    return best_action(p, utilities, timecost, t0 + paths * timecost.tau)[1]


def _halt_branch_value(
    dist: OpenDist,
    remaining: int,
    x: int,
    utilities: UtilityModel,
    timecost: TimeCost,
    t0: float,
) -> tuple[float, int, int]:
    """sum_j pmf(j) * u_halt(t(j)) for j = 1..x, per-(1-p), and sum_j pmf(j).

    The halt mass comes back as an integer pair (numerator, denominator).
    Per open count, one survival product ``P(l-x, o) / P(l, o)`` gives both
    the halt mass and the truncated mean; a deadline adds the survival of
    the in-time paths.  Mixture-averaged over ``dist``.
    """
    max_false = max(utilities.when_false)
    kind = timecost.kind
    if kind is CostKind.LINEAR:
        level = max_false - timecost.rate * t0
        slope = timecost.rate * timecost.tau
    elif kind is CostKind.DEADLINE:
        j_ok = timecost.paths_in_time(t0, x)
    mass_num, mass_den = 0, 1
    value = 0.0
    for o, weight in dist:
        check_open_count(o, remaining)
        w_num, w_den = weight.as_integer_ratio()
        den = perm(remaining, o)
        stay = perm(remaining - x, o)
        hit = den - stay  # halt mass of this count: hit / den
        mass_num = mass_num * w_den * den + w_num * hit * mass_den
        mass_den *= w_den * den
        if kind is CostKind.ZERO:
            value += w_num * hit / (w_den * den) * max_false
        elif kind is CostKind.LINEAR:
            mean = (remaining + 1) * den - stay * (remaining + 1 + x * o)
            value += w_num / w_den * (
                level * (hit / den) - slope * (mean / (den * (o + 1)))
            )
        else:  # deadline: step split at the last in-time path index
            stay_ok = perm(remaining - j_ok, o)
            value += w_num / w_den * (
                max_false * ((den - stay_ok) / den)
                + timecost.penalty * ((stay_ok - stay) / den)
            )
    return value, mass_num, mass_den


def nevc_multi(
    posterior_w: Probability,
    remaining: int,
    open_dist: OpenDist,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    lookahead: int = 1,
    t0: float = 0.0,
) -> float:
    """Net expected value of examining ``lookahead`` more paths before acting.

    ``remaining`` counts unexplored complete paths; ``open_dist`` is the
    distribution of the open-path count among them under not-w, already
    conditioned on the progress so far (``AnalyticModel.conditional``).

    Exactly: sum over halt positions j of p(halt at j) * best-disproof
    utility at t(j), plus the no-halt mass times the best utility at the
    drifted posterior and t(lookahead), minus the best utility of acting
    now.  At a posterior already certain (or an empty remainder) search
    carries no information and the value is the pure delay cost.
    """
    if lookahead < 1:
        raise LookaheadError(f"lookahead {lookahead} must be >= 1")
    p_num, p_den = probability_pair(posterior_w, "posterior")
    act_now = _act_value(p_num / p_den, utilities, timecost, 0, t0)
    if p_num == 0 or p_num == p_den or remaining == 0:
        return _act_value(p_num / p_den, utilities, timecost, lookahead, t0) - act_now
    if lookahead > remaining:
        raise LookaheadError(
            f"lookahead {lookahead} exceeds remaining paths {remaining}"
        )
    halt_value, h_num, h_den = _halt_branch_value(
        open_dist, remaining, lookahead, utilities, timecost, t0
    )
    # Over the denominator p_den * h_den: 1-p and p_halt = (1-p) * halt mass;
    # the drifted posterior p / (p + (1 - halt mass) * (1-p)) over its own.
    q_num = p_den - p_num
    halt_num, den = q_num * h_num, p_den * h_den
    drift_num = p_num * h_den
    drifted = drift_num / (drift_num + (h_den - h_num) * q_num)
    act_after = _act_value(drifted, utilities, timecost, lookahead, t0)
    return q_num / p_den * halt_value + (den - halt_num) / den * act_after - act_now


def nevc_two_outcome(
    posterior_w: Probability,
    survival_ratio: Probability,
    utilities: UtilityModel,
    timecost: TimeCost = ZERO_COST,
    paths: int = 1,
    t0: float = 0.0,
) -> float:
    """Chunk-level net value from an empirical curve.

    ``survival_ratio`` is curve(s') / curve(s): the chance that a chunk of
    ``paths`` more examinations stays unfound given not-w and survival so
    far.  The halt branch is valued at the chunk end t(paths) -- a step
    curve says nothing about where inside the chunk the find lands, and
    end-pricing never overprices search under nondecreasing cost.
    """
    if paths < 1:
        raise LookaheadError(f"paths {paths} must be >= 1")
    p_num, p_den = probability_pair(posterior_w, "posterior")
    r_num, r_den = probability_pair(survival_ratio, "survival ratio")
    act_now = _act_value(p_num / p_den, utilities, timecost, 0, t0)
    if p_num == 0 or p_num == p_den:
        return _act_value(p_num / p_den, utilities, timecost, paths, t0) - act_now
    # Over the denominator p_den * r_den: p_halt = (1-p) * (1-ratio).
    q_num = p_den - p_num
    halt_num, den = q_num * (r_den - r_num), p_den * r_den
    drift_num = p_num * r_den
    drifted = drift_num / (drift_num + r_num * q_num)
    u_halt = timecost.utility_at(
        max(utilities.when_false), t0 + paths * timecost.tau
    )
    return (
        halt_num / den * u_halt
        + (den - halt_num) / den * _act_value(drifted, utilities, timecost, paths, t0)
        - act_now
    )


# ---------------------------------------------------------------------------
# One-line utility spec text format.
#
#   actions=A1,A2; u(A1,w)=1; u(A1,~w)=0; u(A2,w)=0; u(A2,~w)=1;
#   cost=linear:0.01; tau=0.001
#
# cost is zero | linear:RATE | deadline:AT:PENALTY  (default zero, tau 1.0).

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_+-]*$")
_U_KEY_RE = re.compile(r"^u\(([^,()]+),(~?w)\)$")


def parse_utility_spec(text: str) -> tuple[UtilityModel, TimeCost]:
    actions: list[str] | None = None
    entries: dict[tuple[str, str], float] = {}
    cost_spec = "zero"
    tau = 1.0
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise UtilitySpecError(f"expected key=value, got {chunk!r}")
        key = key.strip().replace(" ", "")
        value = value.strip()
        if key == "actions":
            actions = [a.strip() for a in value.split(",") if a.strip()]
            if len(actions) < 2:
                raise UtilitySpecError("actions= needs at least two names")
            for a in actions:
                if not _NAME_RE.match(a):
                    raise UtilitySpecError(f"bad action name {a!r}")
            continue
        if key == "cost":
            cost_spec = value.strip()
            continue
        if key == "tau":
            try:
                tau = float(value)
            except ValueError as exc:
                raise UtilitySpecError(f"bad tau {value!r}") from exc
            continue
        m = _U_KEY_RE.match(key)
        if not m:
            raise UtilitySpecError(f"unrecognized key {key!r}")
        try:
            entries[(m.group(1), m.group(2))] = float(value)
        except ValueError as exc:
            raise UtilitySpecError(f"bad utility value {value!r}") from exc
    if actions is None:
        raise UtilitySpecError("missing actions=")
    when_true = []
    when_false = []
    for a in actions:
        for outcome, bucket in (("w", when_true), ("~w", when_false)):
            if (a, outcome) not in entries:
                raise UtilitySpecError(f"missing u({a},{outcome})")
            bucket.append(entries.pop((a, outcome)))
    if entries:
        stray = ", ".join(f"u({a},{o})" for a, o in entries)
        raise UtilitySpecError(f"utilities for unknown actions: {stray}")
    try:
        model = UtilityModel(tuple(actions), tuple(when_true), tuple(when_false))
    except ValueError as exc:
        raise UtilitySpecError(str(exc)) from exc

    parts = cost_spec.split(":")
    try:
        if parts[0] == "zero" and len(parts) == 1:
            cost = TimeCost.zero(tau)
        elif parts[0] == "linear" and len(parts) == 2:
            cost = TimeCost.linear(float(parts[1]), tau)
        elif parts[0] == "deadline" and len(parts) == 3:
            cost = TimeCost.deadline(float(parts[1]), float(parts[2]), tau)
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
    if timecost.kind is CostKind.ZERO:
        bits.append("cost=zero")
    elif timecost.kind is CostKind.LINEAR:
        bits.append(f"cost=linear:{timecost.rate!r}")
    else:
        bits.append(f"cost=deadline:{timecost.deadline_at!r}:{timecost.penalty!r}")
    bits.append(f"tau={timecost.tau!r}")
    return "; ".join(bits)
