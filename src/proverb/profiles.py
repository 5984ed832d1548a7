"""Corpus runs distilled into priors and empirical survival curves.

A profile answers two questions about a family of random instances: how
often the entailment holds at all (the prior), and -- for the instances
where it fails -- how deep the search tends to go before an open path turns
up (the survival curve over discovery fractions).  Both are exact rationals
computed from full search runs.

File format (JSON, format_version 1):

    {"format_version": 1,
     "context": {"n_clauses":.., "lits_per_clause":.., "alphabet_size":..,
                 "seed":.., "count":.., "heuristic":"none"},
     "prior": {"num":.., "den":..},
     "excluded": 0,
     "records": [{"id":0, "sat":true, "frac":{"num":..,"den":..}, "closures":..}, ..]}

The prior and the curve are implied by the records: both are rebuilt on
load, and a file whose written prior disagrees is refused, so nothing in
the file can drift out of sync with the data.  Per-instance wall time is
advisory, in-memory only, and excluded from equality.

Each field has its rules in one place, the constructor that holds it:
``InstanceRecord`` (an integer id, a bool verdict, a discovery fraction
that is an int, float or ``Fraction`` and fits the verdict, a closure count
>= 0), ``Profile`` (at least one record, an excluded count >= 0) and
``belief.ContextTag``.  A bool is no number here.
``load`` only maps the JSON onto them, so every profile they accept reads
back from the file ``save`` writes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .belief import (
    ContextTag,
    SurvivalCurve,
    context_from_json,
    context_to_json,
    posterior,
    rational_from_json,
    rational_to_json,
)
from .heuristics import Heuristic
from .matrix import Matrix, SearchStatus, fraction_explored, solve

__all__ = [
    "FORMAT_VERSION",
    "InstanceRecord",
    "Profile",
    "MalformedProfileError",
    "VersionMismatchError",
    "collect",
    "save",
    "load",
    "export_curve_csv",
]

FORMAT_VERSION = 1


class MalformedProfileError(ValueError):
    pass


class VersionMismatchError(MalformedProfileError):
    pass


def _check_count(value: object, what: str) -> None:
    """Refuse a count that is not an ``int`` >= 0; a bool is no ``int`` here."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome of one full search: verdict, where it ended, how hard it was."""

    instance_id: int
    satisfiable: bool
    discovery_fraction: Fraction
    closure_count: int
    wall_time: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if type(self.instance_id) is not int:
            raise ValueError(f"id must be an integer, got {self.instance_id!r}")
        if type(self.satisfiable) is not bool:
            raise ValueError(f"sat flag must be a bool, got {self.satisfiable!r}")
        frac = self.discovery_fraction
        if type(frac) not in (int, float, Fraction):
            raise ValueError(f"discovery fraction must be a number, got {frac!r}")
        if self.satisfiable and not 0 <= frac < 1:
            raise ValueError(f"satisfiable instances discover inside [0, 1); got {frac}")
        if not self.satisfiable and frac != 1:
            raise ValueError("unsatisfiable instances record fraction 1 (exhaustion)")
        _check_count(self.closure_count, "closure count")


@dataclass
class Profile:
    """Prior + survival curve for one instance family, with raw records.

    Both are read off the records: the prior is the share of unsatisfiable
    instances, the curve the discovery fractions of the satisfiable ones.
    """

    context: ContextTag
    records: tuple[InstanceRecord, ...]
    excluded: int = 0
    prior: Fraction = field(init=False)
    curve: SurvivalCurve = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.records = tuple(self.records)
        if not self.records:
            raise ValueError("a profile needs at least one record")
        _check_count(self.excluded, "excluded count")
        unsat = sum(not r.satisfiable for r in self.records)
        self.prior = Fraction(unsat, len(self.records))
        self.curve = SurvivalCurve(
            r.discovery_fraction for r in self.records if r.satisfiable
        )

    def posterior_at(self, total: int, closed: int) -> tuple[int, int]:
        """Posterior of the claim once ``closed`` of ``total`` paths are
        searched without an open one, as an exact pair.  The order is the
        belief sources' own; the curve refuses ``closed`` outside [0, total]."""
        return posterior(self.prior, self.curve.survivors(closed, total))


def collect(
    corpus: Sequence[Matrix],
    heuristic: Heuristic = Heuristic.NONE,
    *,
    context: ContextTag | None = None,
    step_cap: int | None = None,
) -> Profile:
    """Run every instance to termination, in order, and distill the outcomes.

    ``step_cap`` bounds the closures spent per instance; instances that
    exceed it are excluded from the statistics and counted in ``excluded``.
    The profile's tag is ``context`` (default: an empty one) with its count
    and heuristic set to the corpus size and the search order run here.
    """
    if step_cap is not None and type(step_cap) is not int:
        raise ValueError(f"step_cap must be an integer when given, got {step_cap!r}")
    if step_cap is not None and step_cap < 0:
        raise ValueError(f"step_cap must be >= 0 when given, got {step_cap}")
    if not corpus:
        raise ValueError("corpus is empty")
    records = []
    for instance_id, matrix in enumerate(corpus):
        prepared = heuristic.apply(matrix)
        started = time.perf_counter()
        state = solve(prepared, max_closures=step_cap)
        elapsed = time.perf_counter() - started
        if state.status is SearchStatus.RUNNING:
            continue  # hit the closure cap: excluded
        sat = state.status is SearchStatus.OPEN_FOUND
        frac = fraction_explored(state) if sat else Fraction(1)
        records.append(InstanceRecord(instance_id, sat, frac, state.closure_count, elapsed))
    if not records:
        raise ValueError("every instance exceeded the step cap; no data to profile")
    context = replace(context or ContextTag(), count=len(corpus), heuristic=heuristic.value)
    return Profile(context, records, len(corpus) - len(records))


def save(profile: Profile, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "context": context_to_json(profile.context),
        "prior": rational_to_json(profile.prior),
        "excluded": profile.excluded,
        "records": [
            {
                "id": r.instance_id,
                "sat": r.satisfiable,
                "frac": rational_to_json(r.discovery_fraction),
                "closures": r.closure_count,
            }
            for r in profile.records
        ],
    }
    Path(path).write_bytes((json.dumps(doc, indent=1) + "\n").encode("ascii"))


def _record(i: int, row: object) -> InstanceRecord:
    """Record ``i`` of a profile document; the record checks its fields."""
    if not isinstance(row, dict):
        raise MalformedProfileError(f"record {i} must be an object")
    try:
        frac = rational_from_json(row.get("frac"), "frac")
        return InstanceRecord(row.get("id"), row.get("sat"), frac, row.get("closures"))
    except ValueError as exc:
        raise MalformedProfileError(f"record {i}: {exc}") from exc


def load(path: str | Path) -> Profile:
    """The profile ``save`` wrote to ``path``.

    Only what JSON alone can get wrong is checked here: the document, its
    version, the records' list and objects, and the ``{num, den}`` rationals.
    Every other value goes to the constructor that holds it, and a refusal
    is raised as a ``MalformedProfileError``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer beyond int()'s digit limit, or arrays
        # nested beyond the decoder's recursion limit
        raise MalformedProfileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedProfileError("profile document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"profile format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    raw_records = doc.get("records")
    if not isinstance(raw_records, list):
        raise MalformedProfileError("missing records")
    records = [_record(i, row) for i, row in enumerate(raw_records)]
    try:
        context = context_from_json(doc.get("context"))
        prior = rational_from_json(doc.get("prior"), "prior")
        profile = Profile(context, records, doc.get("excluded", 0))
    except ValueError as exc:
        raise MalformedProfileError(str(exc)) from exc
    if prior != profile.prior:
        raise MalformedProfileError(f"prior {prior} inconsistent with records ({profile.prior})")
    return profile


def export_curve_csv(profile: Profile, prior_override: Fraction | None = None) -> str:
    """101-row CSV (s from 0.00 to 1.00 in 0.01 steps): s, survival, posterior."""
    prior = profile.prior if prior_override is None else prior_override
    lines = ["s,survival,posterior"]
    for i in range(101):
        survivors, samples = profile.curve.survivors(i, 100)
        num, den = posterior(prior, (survivors, samples))
        lines.append(f"{i / 100:.6f},{survivors / samples:.6f},{num / den:.6f}")
    return "\n".join(lines) + "\n"
