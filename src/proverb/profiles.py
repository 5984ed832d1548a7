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


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome of one full search: verdict, where it ended, how hard it was."""

    instance_id: int
    satisfiable: bool
    discovery_fraction: Fraction
    closure_count: int
    wall_time: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.satisfiable:
            if not 0 <= self.discovery_fraction < 1:
                raise ValueError(
                    "satisfiable instances discover inside [0, 1); got "
                    f"{self.discovery_fraction}"
                )
        elif self.discovery_fraction != 1:
            raise ValueError("unsatisfiable instances record fraction 1 (exhaustion)")
        if self.closure_count < 0:
            raise ValueError("closure_count must be >= 0")


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
        if self.excluded < 0:
            raise ValueError("excluded count must be >= 0")
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


def _run_one(args: tuple[int, Matrix, Heuristic, int | None]) -> InstanceRecord | None:
    """The instance's record, or None when it hit the closure cap."""
    instance_id, matrix, heuristic, cap = args
    prepared = heuristic.apply(matrix)
    started = time.perf_counter()
    state = solve(prepared, max_closures=cap)
    elapsed = time.perf_counter() - started
    if state.status is SearchStatus.RUNNING:
        return None
    sat = state.status is SearchStatus.OPEN_FOUND
    frac = fraction_explored(state) if sat else Fraction(1)
    return InstanceRecord(instance_id, sat, frac, state.closure_count, elapsed)


def collect(
    corpus: Sequence[Matrix],
    heuristic: Heuristic = Heuristic.NONE,
    *,
    context: ContextTag | None = None,
    step_cap: int | None = None,
    jobs: int = 1,
) -> Profile:
    """Run every instance to termination and distill the outcomes.

    ``step_cap`` bounds the closures spent per instance; instances that
    exceed it are excluded from the statistics and counted in ``excluded``.
    ``jobs`` > 1 fans instances out to worker processes; outcomes are folded
    in instance order either way, so the result is identical.  The profile's
    tag is ``context`` (default: an empty one) with its count and heuristic
    set to the corpus size and the search order run here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if step_cap is not None and step_cap < 0:
        raise ValueError(f"step_cap must be >= 0 when given, got {step_cap}")
    if not corpus:
        raise ValueError("corpus is empty")
    work = [(i, m, heuristic, step_cap) for i, m in enumerate(corpus)]
    if jobs > 1:
        # Imported here: only a parallel run pays for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, work, chunksize=8))
    else:
        outcomes = [_run_one(w) for w in work]
    records = [r for r in outcomes if r is not None]
    excluded = len(outcomes) - len(records)
    if not records:
        raise ValueError("every instance exceeded the step cap; no data to profile")
    context = replace(context or ContextTag(), count=len(corpus), heuristic=heuristic.value)
    return Profile(context, records, excluded)


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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedProfileError(message)


def load(path: str | Path) -> Profile:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer beyond int()'s digit limit, or arrays
        # nested beyond the decoder's recursion limit
        raise MalformedProfileError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "profile document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"profile format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    try:
        context = context_from_json(doc.get("context"))
        prior = rational_from_json(doc.get("prior"), "prior")
    except ValueError as exc:
        raise MalformedProfileError(str(exc)) from exc
    excluded = doc.get("excluded", 0)
    _require(type(excluded) is int and excluded >= 0, "bad excluded count")
    raw_records = doc.get("records")
    _require(isinstance(raw_records, list) and raw_records, "missing records")
    records = []
    for i, row in enumerate(raw_records):
        _require(isinstance(row, dict), f"record {i} must be an object")
        _require(type(row.get("id")) is int, f"record {i}: bad id")
        _require(isinstance(row.get("sat"), bool), f"record {i}: bad sat flag")
        _require(
            type(row.get("closures")) is int and row["closures"] >= 0,
            f"record {i}: bad closure count",
        )
        try:
            frac = rational_from_json(row.get("frac"), "frac")
            records.append(InstanceRecord(row["id"], row["sat"], frac, row["closures"]))
        except ValueError as exc:
            raise MalformedProfileError(f"record {i}: {exc}") from exc
    profile = Profile(context, records, excluded)
    _require(prior == profile.prior, f"prior {prior} inconsistent with records ({profile.prior})")
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
