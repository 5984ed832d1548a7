"""Turning search progress into belief about the entailment claim.

The claim under test ("w") is that every complete path closes.  Before the
search finishes, the evidence is survival: the search has pruned a fraction
``s`` of the path space without meeting an open path.  Under w that has
likelihood 1; under not-w it has the survival probability of the open paths
escaping the explored region.  Bayes then gives

    posterior(p, survival) = p / (p + survival * (1 - p))

Survival comes from either an empirical step curve (collected over a corpus,
see :mod:`proverb.profiles`) or an analytic urn model: if ``O`` of ``M``
complete paths are open and the searcher removes paths one at a time without
replacement, the chance that the first ``searched`` are all closed is

    prod_{i=0..searched-1} (1 - O / (M - i))  ==  P(M-searched, O) / P(M, O)

with ``P(n, k) = n! / (n-k)!`` the falling factorial (``math.perm``).  The
same urn yields the distribution of *when* the first open path appears
among the remaining paths; :mod:`proverb.decision` prices halts with its
closed forms, and ``tests/oracles.py`` holds them written out.

Everything here is exact: a survival is a ratio of integer products, a
probability given as a float is taken at its exact rational value, and the
results are `fractions.Fraction`.  Floats are only introduced by the caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from math import perm, prod
from typing import Iterable, Mapping, Union

__all__ = [
    "FLOAT_TOL",
    "Probability",
    "OpenDist",
    "ModelError",
    "ContextTag",
    "context_to_json",
    "context_from_json",
    "rational_to_json",
    "rational_from_json",
    "context_mismatches",
    "SurvivalCurve",
    "AnalyticModel",
    "posterior",
    "probability_pair",
    "check_open_count",
    "survival_analytic",
]

# Agreement tolerance for float-valued probability checks throughout the
# package (replay verification, mixture normalization, tests).
FLOAT_TOL = 1e-9

Probability = Union[float, Fraction]


class ModelError(ValueError):
    """Inconsistent survival-model parameters (e.g. more open paths than paths)."""


@dataclass(frozen=True)
class ContextTag:
    """Background context a belief was calibrated under.

    Profiles only transfer to instances drawn from the same distribution;
    the tag records the generator configuration and heuristic so a mismatch
    can at least be flagged.
    """

    n_clauses: int | None = None
    lits_per_clause: int | None = None
    alphabet_size: int | None = None
    seed: int | None = None
    count: int | None = None
    heuristic: str = "none"


_CONTEXT_KEYS = tuple(f.name for f in fields(ContextTag))


def context_to_json(tag: ContextTag) -> dict:
    """The tag as a JSON object."""
    return {key: getattr(tag, key) for key in _CONTEXT_KEYS}


def context_from_json(node: object) -> ContextTag:
    """Inverse of :func:`context_to_json`; absent keys take their defaults."""
    if not isinstance(node, dict):
        raise ValueError("missing context object")
    return ContextTag(**{key: node[key] for key in _CONTEXT_KEYS if key in node})


def rational_to_json(value: Probability) -> dict:
    """An exact rational as ``{"num": .., "den": ..}`` in lowest terms."""
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(node: object, what: str) -> Fraction:
    """Inverse of :func:`rational_to_json`: integer (not bool) num/den, den > 0."""
    node = node if isinstance(node, dict) else {}
    num, den = node.get("num"), node.get("den")
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"{what} must be an object with integer num/den")
    if den <= 0:
        raise ValueError(f"{what} denominator must be positive")
    return Fraction(num, den)


_MATCH_FIELDS = ("n_clauses", "lits_per_clause", "alphabet_size", "heuristic")


def context_mismatches(expected: ContextTag, actual: ContextTag) -> list[str]:
    """Names of distribution-shaping fields that disagree (None = unknown, skipped)."""
    out = []
    for name in _MATCH_FIELDS:
        a, b = getattr(expected, name), getattr(actual, name)
        if a is not None and b is not None and a != b:
            out.append(name)
    return out


class SurvivalCurve:
    """Nonincreasing step function s -> p(search passes fraction s unfound | not-w).

    Built by ``from_samples(fractions)`` from the discovery fractions of the
    satisfiable instances of a corpus; the value at ``s > 0`` is the strict
    count ``#{fraction > s} / n``.  The value at exactly 0 is pinned to 1
    (every search trivially begins unfound), which only matters when some
    instance was discovered after zero closures.  Zero samples give the
    constant-1 (uninformative) curve.
    """

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        raise TypeError("use SurvivalCurve.from_samples")

    @classmethod
    def from_samples(cls, fractions: Iterable[Probability]) -> "SurvivalCurve":
        samples = sorted(Fraction(f) for f in fractions)
        for f in samples:
            if not 0 <= f < 1:
                raise ValueError(f"discovery fraction {f} outside [0, 1)")
        obj = object.__new__(cls)
        obj._samples = samples
        return obj

    def value(self, s: Probability) -> Fraction:
        """Right-continuous evaluation at ``s`` in [0, 1]."""
        s = Fraction(s)
        if not 0 <= s <= 1:
            raise ValueError(f"fraction {s} outside [0, 1]")
        n = len(self._samples)
        if s == 0 or n == 0:
            return Fraction(1)
        return Fraction(n - bisect_right(self._samples, s), n)

    def thresholds(self, total: int) -> tuple[int, ...]:
        """The samples as path counts ``ceil(f * total)``, in order.

        For integers ``c`` and ``total > 0``, ``f <= c/total`` exactly when
        ``ceil(f * total) <= c``.  So with ``n`` samples and ``c > 0``,
        ``value(Fraction(c, total))`` is ``n - bisect_right(thresholds, c)``
        over ``n``, found without building a Fraction.
        """
        return tuple(-(-f.numerator * total // f.denominator) for f in self._samples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurvivalCurve):
            return NotImplemented
        return self._samples == other._samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SurvivalCurve.from_samples(<{len(self._samples)} fractions>)"


def probability_pair(value: Probability, name: str) -> tuple[int, int]:
    """``value`` as its exact integer pair (numerator, denominator > 0).

    A float counts at its exact rational value.  Raises ``ValueError``
    naming ``name`` unless the value lies in [0, 1].
    """
    try:
        num, den = value.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN float
        num, den = -1, 1
    if not 0 <= num <= den:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return num, den


def posterior(prior: Probability, survival: Probability) -> Fraction:
    """Posterior of the claim after surviving search: likelihood 1 under w.

    With ``prior = a/b`` and ``survival = c/d`` it is ``a*d / (a*d + (b-a)*c)``.
    """
    a, b = probability_pair(prior, "prior")
    c, d = probability_pair(survival, "survival")
    if a == 0:
        # The claim is impossible a priori; no amount of survival revives it,
        # not even survival the model of not-w rules out.
        return Fraction(0)
    return Fraction(a * d, a * d + (b - a) * c)


def check_open_count(open_count: int, total: int) -> None:
    """Raise :class:`ModelError` unless ``1 <= open_count <= total``."""
    if open_count < 1:
        raise ModelError("open_count must be >= 1 (not-w guarantees an open path)")
    if open_count > total:
        raise ModelError(f"open_count {open_count} exceeds total paths {total}")


def survival_analytic(total: int, open_count: int, searched: int) -> Fraction:
    """p(first ``searched`` examined paths all closed | ``open_count`` of ``total`` open).

    Sampling without replacement:  prod_{i<searched} (1 - O/(M-i)), computed
    via the equal closed form P(M-searched, O)/P(M, O) so huge path spaces
    cost only O(open_count) big-integer operations.  Searching past the
    closed population (searched > M - O) is impossible unfound: returns 0.
    """
    check_open_count(open_count, total)
    if searched < 0:
        raise ValueError("searched must be >= 0")
    return Fraction(perm(max(total - searched, 0), open_count), perm(total, open_count))


# An open-path distribution: (open count, weight) pairs in increasing count order.
OpenDist = tuple[tuple[int, Probability], ...]


def _normalized_dist(open_dist: Mapping[int, Probability], total: int) -> OpenDist:
    if not open_dist:
        raise ModelError("open-path distribution is empty")
    items = tuple(sorted(open_dist.items()))
    weight = 0
    for o, p in items:
        if not isinstance(o, int) or o < 1:
            raise ModelError(f"open-path count {o!r} must be a positive integer")
        if o > total:
            raise ModelError(f"open-path count {o} exceeds total paths {total}")
        if p < 0:
            raise ModelError("open-path probabilities must be >= 0")
        weight += p
    exact = all(isinstance(p, (int, Fraction)) for _, p in items)
    if exact:
        if weight != 1:
            raise ModelError(f"open-path distribution sums to {weight}, not 1")
    elif abs(weight - 1) > FLOAT_TOL:
        raise ModelError(f"open-path distribution sums to {weight!r}, not 1")
    return items


@dataclass(frozen=True)
class AnalyticModel:
    """Urn model of one search: ``total`` paths, open count fixed or distributed.

    ``open_paths`` is given as a count or a mapping count -> probability,
    and is stored validated as an :data:`OpenDist`.
    """

    total: int
    open_paths: int | Mapping[int, Probability]

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ModelError("total must be >= 0")
        dist = self.open_paths
        if isinstance(dist, int):
            dist = {dist: Fraction(1)}
        dist = _normalized_dist(dist, self.total)
        object.__setattr__(self, "open_paths", dist)
        # Over one common denominator, p(o) * survival(searched) is
        # scale(o) * P(M-searched, o): p(o) = num/den and survival has
        # denominator P(M, o), so the common one is their product over counts.
        dens = [p.as_integer_ratio()[1] * perm(self.total, o) for o, p in dist]
        common = prod(dens)
        scales = tuple(
            (o, p.as_integer_ratio()[0] * (common // d)) for (o, p), d in zip(dist, dens)
        )
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_common", common)
        object.__setattr__(self, "_last", (None, ()))

    def _terms(self, searched: int) -> tuple[int, ...]:
        """Each count's p(o) * survival(searched), times the common denominator.

        The last result is kept, so the posterior and ``conditional`` at one
        step share the survival products.
        """
        last, terms = self._last
        if searched != last:
            if searched < 0:
                raise ValueError("searched must be >= 0")
            left = max(self.total - searched, 0)
            terms = tuple(scale * perm(left, o) for o, scale in self._scales)
            object.__setattr__(self, "_last", (searched, terms))
        return terms

    def survival(self, searched: int) -> Fraction:
        return Fraction(sum(self._terms(searched)), self._common)

    def conditional(self, searched: int) -> OpenDist:
        """Distribution of the open count given survival to ``searched``.

        Counts that the survival rules out are dropped: they carry no weight,
        and more open paths than remain could not be priced.
        """
        dist = self.open_paths
        if len(dist) == 1:
            return ((dist[0][0], Fraction(1)),)
        terms = self._terms(searched)
        norm = sum(terms)
        if norm == 0:
            # Survival impossible under every admitted count; the posterior on
            # the claim is 1 and this distribution is never consulted again.
            return dist
        return tuple((o, Fraction(t, norm)) for (o, _), t in zip(dist, terms) if t)

