"""Turning search progress into belief about the entailment claim.

The claim under test ("w") is that every complete path closes.  Before the
search finishes, the evidence is survival: the search has pruned a fraction
``s`` of the path space without meeting an open path.  Under w that has
likelihood 1; under not-w it has the survival probability of the open paths
escaping the explored region.  Bayes then gives

    posterior(p, survival) = p / (p + survival * (1 - p))

Survival comes from either an empirical step curve, :class:`SurvivalCurve`
(collected over a corpus, see :mod:`proverb.profiles`), or an analytic urn
model, :class:`AnalyticModel`; each is evaluated there and nowhere else.  The
urn's open-path distribution has one form, :data:`OpenDist`, and one reader,
:func:`open_dist`, which checks it; ``controller.AnalyticSource`` stores the
``OpenDist`` when it is built, and the model reads it.  If ``O`` of ``M``
complete paths are open and the searcher removes paths one at a time without
replacement, the chance that the first ``searched`` are all closed is

    prod_{i=0..searched-1} (1 - O / (M - i))  ==  P(M-searched, O) / P(M, O)

with ``P(n, k) = n! / (n-k)!`` the falling factorial (``math.perm``).  The
same urn yields the distribution of *when* the first open path appears
among the remaining paths; :mod:`proverb.decision` prices halts with its
closed forms, and ``tests/oracles.py`` holds them written out.

Everything here is exact: a survival is a ratio of integer products, and a
probability given as a float is taken at its exact rational value.  The
survival and the posterior come back as exact pairs (numerator,
denominator), unreduced, so the controller's step builds no ``Fraction``;
``Fraction(*pair)`` gives the reduced value.  Floats are only introduced by
the caller.  An ``AnalyticModel`` keeps the joint terms of the last searched
count beside their sum, the survival's numerator, so the posterior and
``decision.nevc_multi`` at one step share one sum; and it builds once the
constants of the pricing's mean halt path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from math import lcm, perm
from typing import Iterable, Mapping, Union

__all__ = [
    "FLOAT_TOL",
    "Probability",
    "OpenDist",
    "open_dist",
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
    can at least be flagged.  The tag checks its fields when it is built:
    each count and the seed an integer (not a bool) or None, the heuristic
    a string.
    """

    n_clauses: int | None = None
    lits_per_clause: int | None = None
    alphabet_size: int | None = None
    seed: int | None = None
    count: int | None = None
    heuristic: str = "none"

    def __post_init__(self) -> None:
        for key in _CONTEXT_KEYS[:-1]:  # the counts and the seed
            value = getattr(self, key)
            if value is not None and type(value) is not int:
                raise ValueError(f"context {key} must be an integer or null, got {value!r}")
        if type(self.heuristic) is not str:
            raise ValueError(f"context heuristic must be a string, got {self.heuristic!r}")


_CONTEXT_KEYS = tuple(f.name for f in fields(ContextTag))


def context_to_json(tag: ContextTag) -> dict:
    """The tag as a JSON object."""
    return {key: getattr(tag, key) for key in _CONTEXT_KEYS}


def context_from_json(node: object) -> ContextTag:
    """Inverse of :func:`context_to_json`: picks the tag's keys, absent ones
    taking their defaults, and the tag checks their values."""
    if not isinstance(node, dict):
        raise ValueError("missing context object")
    return ContextTag(**{key: node[key] for key in _CONTEXT_KEYS if key in node})


def rational_to_json(value: Probability) -> dict:
    """An exact rational as ``{"num": .., "den": ..}`` in lowest terms."""
    num, den = value.as_integer_ratio()  # lowest terms for an int, a float and a Fraction
    return {"num": num, "den": den}


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

    ``SurvivalCurve(fractions)`` takes the discovery fractions of the
    satisfiable instances of a corpus, each in [0, 1), and keeps them
    sorted; the value at ``s > 0`` is the strict count
    ``#{fraction > s} / n``.  The value at exactly 0 is pinned to 1 (every
    search trivially begins unfound), which only matters when some instance
    was discovered after zero closures.  Zero samples give the constant-1
    (uninformative) curve.  A curve defines no ``==``: compare two curves by
    what ``survivors`` answers.
    """

    __slots__ = ("_samples", "_counts")

    def __init__(self, fractions: Iterable[Probability]) -> None:
        samples = sorted(Fraction(f) for f in fractions)
        for f in samples:
            if not 0 <= f < 1:
                raise ValueError(f"discovery fraction {f} outside [0, 1)")
        self._samples = samples
        self._counts = (None, ())

    def value(self, s: Probability) -> Fraction:
        """Right-continuous evaluation at ``s`` in [0, 1]."""
        s = Fraction(s)
        if not 0 <= s <= 1:
            raise ValueError(f"fraction {s} outside [0, 1]")
        return Fraction(*self.survivors(s.numerator, s.denominator))

    def survivors(self, closed: int, total: int) -> tuple[int, int]:
        """The curve at ``closed / total`` as the exact pair (survivors, samples).

        The samples are read as path counts ``ceil(f * total)``: for integers
        ``c`` and ``total > 0``, ``f <= c/total`` exactly when
        ``ceil(f * total) <= c``, so no Fraction is built.  The counts for
        the last ``total`` asked are kept, as the curve never changes.
        ``closed`` outside [0, total] is refused, as ``AnalyticModel`` does.
        """
        if not 0 <= closed <= total:
            raise ValueError(f"closed {closed} outside [0, total {total}]")
        n = len(self._samples)
        if n == 0:
            return 1, 1
        if closed == 0:
            return n, n
        last, counts = self._counts
        if total != last:
            counts = [-(-f.numerator * total // f.denominator) for f in self._samples]
            self._counts = (total, counts)
        return n - bisect_right(counts, closed), n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SurvivalCurve(<{len(self._samples)} fractions>)"


def probability_pair(
    value: Probability | tuple[int, int], name: str
) -> tuple[int, int]:
    """``value`` as its exact integer pair (numerator, denominator > 0).

    A float counts at its exact rational value, and an exact pair is taken
    as it is, unreduced.  Raises ``ValueError`` naming ``name`` unless the
    value lies in [0, 1].
    """
    try:
        num, den = value if type(value) is tuple else value.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN float
        num, den = -1, 1
    if den <= 0 or not 0 <= num <= den:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return num, den


def posterior(
    prior: Probability | tuple[int, int], survival: Probability | tuple[int, int]
) -> tuple[int, int]:
    """Posterior of the claim after surviving search: likelihood 1 under w.

    With ``prior = a/b`` and ``survival = c/d`` it is the exact pair
    ``(a*d, a*d + (b-a)*c)``; either input may itself be an exact pair.
    """
    a, b = probability_pair(prior, "prior")
    c, d = probability_pair(survival, "survival")
    if a == 0:
        # The claim is impossible a priori; no amount of survival revives it,
        # not even survival the model of not-w rules out.
        return 0, 1
    return a * d, a * d + (b - a) * c


# An open-path distribution: (open count, weight) pairs in increasing count order.
OpenDist = tuple[tuple[int, Probability], ...]


def open_dist(
    open_paths: int | Mapping[int, Probability] | Iterable[tuple[int, Probability]],
) -> OpenDist:
    """``open_paths`` as its :data:`OpenDist`: a count, a mapping count ->
    weight, or (count, weight) pairs; a count ``o`` reads ``((o, 1),)``.

    Raises ``ModelError`` unless the distribution is not empty, each count is
    a positive ``int`` (not a bool) given once, each weight is ``>= 0`` (not
    NaN) and the weights sum to 1: exactly for ints and Fractions, within
    ``FLOAT_TOL`` once a float is among them.  An ``OpenDist`` reads back as
    itself.
    """
    if isinstance(open_paths, int):
        open_paths = {open_paths: Fraction(1)}
    dist: dict[int, Probability] = {}
    for o, p in open_paths.items() if isinstance(open_paths, Mapping) else open_paths:
        if type(o) is not int or o < 1:
            raise ModelError(f"open-path count {o!r} must be a positive integer")
        if not p >= 0:
            raise ModelError("open-path probabilities must be >= 0")
        if o in dist:
            raise ModelError(f"open-path count {o} given twice")
        dist[o] = p
    if not dist:
        raise ModelError("open-path distribution is empty")
    items = tuple(sorted(dist.items()))
    weight = sum(p for _, p in items)
    tol = 0 if all(isinstance(p, (int, Fraction)) for _, p in items) else FLOAT_TOL
    if abs(weight - 1) > tol:
        raise ModelError(f"open-path distribution sums to {weight}, not 1")
    return items


@dataclass(frozen=True)
class AnalyticModel:
    """Urn model of one search: ``total`` paths, open count fixed or distributed.

    ``open_paths`` is given in any form :func:`open_dist` reads, and is
    stored as the :data:`OpenDist` it returns; its largest count must not
    exceed ``total``.
    """

    total: int
    open_paths: OpenDist

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ModelError("total must be >= 0")
        dist = open_dist(self.open_paths)
        if dist[-1][0] > self.total:
            raise ModelError(f"open-path count {dist[-1][0]} exceeds total paths {self.total}")
        object.__setattr__(self, "open_paths", dist)
        # Over one common denominator, p(o) * survival(searched) is
        # scale(o) * P(M-searched, o): p(o) = num/den and survival has
        # denominator P(M, o), so the common one is their least common
        # multiple over counts.  scale(o) is the weight of each placement of
        # the o open paths among the M.
        dens = [p.as_integer_ratio()[1] * perm(self.total, o) for o, p in dist]
        common = lcm(*dens)
        scales = tuple(
            (o, p.as_integer_ratio()[0] * (common // d)) for (o, p), d in zip(dist, dens)
        )
        # Survival divides by the terms' sum at 0 searched: the common
        # denominator itself when the weights sum to 1, and the exact
        # normalization of float weights that sum to 1 only within FLOAT_TOL.
        terms = tuple(scale * perm(self.total, o) for o, scale in scales)
        norm = sum(terms)
        # The pricing's constants (``decision.nevc_multi``): L, the least
        # common multiple of the counts' O+1, and each count's L // (O+1)
        # and O * L // (O+1).
        lcm_o = lcm(*(o + 1 for o, _ in dist))
        self.__dict__.update(
            _scales=scales,
            _norm=norm,
            _last=(0, terms, norm),
            _lcm=lcm_o,
            _per_count=tuple(lcm_o // (o + 1) for o, _ in dist),
            _per_open=tuple(o * (lcm_o // (o + 1)) for o, _ in dist),
        )

    def _at(self, searched: int) -> tuple[tuple[int, ...], int]:
        """The joint terms at ``searched`` and their sum.  The last result is
        kept, so the posterior and the pricing at one step share them;
        ``searched`` outside [0, total] is refused."""
        last = self._last
        if searched == last[0]:
            return last[1], last[2]
        if not 0 <= searched <= self.total:
            raise ValueError(f"closed {searched} outside [0, total {self.total}]")
        terms = tuple([scale * perm(self.total - searched, o) for o, scale in self._scales])
        mass = sum(terms)
        self.__dict__["_last"] = (searched, terms, mass)
        return terms, mass

    def joint(self, searched: int) -> tuple[int, ...]:
        """Each count's p(o) * survival(searched), times the common denominator.

        One integer per count of ``open_paths``, in its order; a count that
        the survival rules out reads 0.
        """
        return self._at(searched)[0]

    def survival(self, searched: int) -> tuple[int, int]:
        """p(the first ``searched`` paths are all closed | not-w), an exact pair."""
        return self._at(searched)[1], self._norm

    def conditional(self, searched: int) -> OpenDist:
        """Distribution of the open count given survival to ``searched``.

        Counts that the survival rules out are dropped: they carry no weight,
        and more open paths than remain could not be priced.
        """
        dist = self.open_paths
        terms, norm = self._at(searched)
        if norm == 0:
            # Survival impossible under every admitted count; the posterior on
            # the claim is 1 and this distribution is never consulted again.
            return dist
        return tuple((o, Fraction(t, norm)) for (o, _), t in zip(dist, terms) if t)
