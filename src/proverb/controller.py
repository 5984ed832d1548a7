"""The stop-or-search loop: metareasoning wrapped around the path search.

One step rule, ``_deliberate``, is applied over and over: it reads off the
exact explored fraction, turns it into a posterior on the claim through its
belief source, prices the candidate lookaheads (net expected value of
computation), and returns a stop verdict.  ``run`` records each step and
either acts on the verdict or buys one more chunk of search; ``replay``
applies the same rule at each recorded closed count.  Termination:

* ``nonpositive_evc``  -- no candidate lookahead is worth its time (acting at
  equality included),
* ``proof_of_not_w``   -- an open path turned up: the claim is disproved,
* ``proof_of_w``       -- the space is exhausted: the claim is proved,
* ``deadline_forced``  -- the next chunk cannot finish before a hard deadline.

Belief sources: ``AnalyticSource`` (prior + open-path urn model, exact
per-path pricing) or ``ProfileSource`` (empirical prior + survival curve,
chunk-granularity pricing; see ``nevc_two_outcome``).  Both offer the same
three methods, and the step rule, ``run`` and ``replay`` use only these,
never asking which source they hold:

* ``posterior_at(total, closed)`` -- the posterior on the claim once
  ``closed`` of ``total`` paths are closed without an open one;
* ``nevc_at(config, total, closed, post, t_now)`` -- the net expected value
  of each candidate lookahead at that point;
* ``describe()`` -- the JSON object the trace header records for the source.

A misspecified analytic model can drive the posterior to 1 while the search
still runs; the controller then stops and acts on that certainty, which is
the honest reading of the model it was given.

Every run yields a ``DecisionTrace``; ``save_trace``/``load_trace`` move it
through JSON lines and ``replay`` re-derives every recorded quantity from
the fractions alone, reporting the first divergence if any.  It also checks
the numbering (0, 1, 2, ...), that step 0 sits at fraction 0, and each
step's stop verdict: no step may follow a verdict, and the recorded stop
reason must be the last verdict, or a proof when there is none.  The final
record's posterior and model time must be where the run stopped: the last
step's after a verdict, 1 and ``total * tau`` after ``proof_of_w``, 0 and no
earlier than the last step after ``proof_of_not_w``.  Wall-clock time is
recorded as advisory and never checked.  Model time is ``closed * tau``,
computed fresh each step so replay reproduces it bit for bit.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .belief import (
    FLOAT_TOL,
    AnalyticModel,
    Probability,
    context_to_json,
    posterior,
    rational_from_json,
    rational_to_json,
)
from .decision import (
    TimeCost,
    UtilityModel,
    best_action,
    format_utility_spec,
    nevc_multi,
    nevc_two_outcome,
)
from .matrix import Matrix, SearchStatus, init_search, step_search
from .profiles import Profile

__all__ = [
    "FULL_LOOKAHEAD",
    "TRACE_FORMAT_VERSION",
    "StopReason",
    "AnalyticSource",
    "ProfileSource",
    "ControllerConfig",
    "TraceStep",
    "DecisionTrace",
    "MalformedTraceError",
    "ReplayReport",
    "run",
    "save_trace",
    "load_trace",
    "replay",
]

TRACE_FORMAT_VERSION = 1
FULL_LOOKAHEAD = "full"


class StopReason(Enum):
    NONPOSITIVE_EVC = "nonpositive_evc"
    PROOF_OF_NOT_W = "proof_of_not_w"
    PROOF_OF_W = "proof_of_w"
    DEADLINE_FORCED = "deadline_forced"


class MalformedTraceError(ValueError):
    pass


@dataclass(frozen=True)
class AnalyticSource:
    """Prior plus an open-path urn model (count or distribution over counts).

    Halts are priced per path (``nevc_multi``).  The :class:`AnalyticModel`
    is built on first use for a path-space size and kept for the next call,
    so a run or replay builds it once, and never for an empty space.
    """

    prior: Probability
    open_paths: int | Mapping[int, Probability]

    def __post_init__(self) -> None:
        if not 0 <= self.prior <= 1:
            raise ValueError(f"prior {self.prior} outside [0, 1]")

    def _model(self, total: int) -> AnalyticModel:
        model = self.__dict__.get("_built")
        if model is None or model.total != total:
            model = AnalyticModel(total, self.open_paths)
            object.__setattr__(self, "_built", model)
        return model

    def posterior_at(self, total: int, closed: int) -> Probability:
        return posterior(self.prior, self._model(total).survival(closed))

    def nevc_at(
        self,
        config: ControllerConfig,
        total: int,
        closed: int,
        post: Probability,
        t_now: float,
    ) -> tuple[float, ...]:
        remaining = total - closed
        dist = self._model(total).conditional(closed)
        return tuple(
            nevc_multi(
                post, remaining, dist, config.utilities, config.timecost, x, t_now
            )
            for x in config.lookahead_paths(remaining)
        )

    def describe(self) -> dict:
        open_paths = self.open_paths
        if isinstance(open_paths, int):
            open_desc: Any = open_paths
        else:
            open_desc = [
                {"open": o, **rational_to_json(p)}
                for o, p in sorted(open_paths.items())
            ]
        return {
            "kind": "analytic",
            "prior": rational_to_json(self.prior),
            "open_paths": open_desc,
        }


@dataclass(frozen=True)
class ProfileSource:
    """Empirical prior and survival curve from a collected profile.

    Halts are priced at the chunk end (``nevc_two_outcome``).  The curve is
    read at ``closed / total`` through its integer thresholds
    (``SurvivalCurve.thresholds``), built on first use for a path-space size
    and kept for the next call, as ``AnalyticSource`` keeps its model.
    """

    profile: Profile

    def _survivors(self, total: int, closed: int) -> tuple[int, int]:
        """The curve at ``closed / total`` as an integer pair (survivors, samples)."""
        grid = self.__dict__.get("_grid")
        if grid is None or grid[0] != total:
            grid = (total, self.profile.curve.thresholds(total))
            object.__setattr__(self, "_grid", grid)
        thresholds = grid[1]
        n = len(thresholds)
        if n == 0:
            return 1, 1
        if closed == 0:  # pinned to 1, as in ``SurvivalCurve.value``
            return n, n
        return n - bisect_right(thresholds, closed), n

    def posterior_at(self, total: int, closed: int) -> Probability:
        return posterior(self.profile.prior, Fraction(*self._survivors(total, closed)))

    def nevc_at(
        self,
        config: ControllerConfig,
        total: int,
        closed: int,
        post: Probability,
        t_now: float,
    ) -> tuple[float, ...]:
        now = self._survivors(total, closed)[0]
        values = []
        for x in config.lookahead_paths(total - closed):
            nxt = self._survivors(total, closed + x)[0]
            ratio = Fraction(nxt, now) if now > 0 else Fraction(1)
            values.append(
                nevc_two_outcome(
                    post, ratio, config.utilities, config.timecost, x, t_now
                )
            )
        return tuple(values)

    def describe(self) -> dict:
        return {
            "kind": "profile",
            "prior": rational_to_json(self.profile.prior),
            "context": context_to_json(self.profile.context),
        }


@dataclass(frozen=True)
class ControllerConfig:
    """chunk size, utilities, time cost, belief source, candidate lookaheads.

    ``lookaheads`` empty means myopic (the chunk itself is the only
    candidate); entries are path counts or the string "full" (the whole
    remaining space, resolved per step).  Candidates larger than the
    remaining space are truncated to it.
    """

    chunk: int
    utilities: UtilityModel
    timecost: TimeCost
    source: AnalyticSource | ProfileSource
    lookaheads: tuple[int | str, ...] = ()

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        for x in self.lookaheads:
            if isinstance(x, str):
                if x != FULL_LOOKAHEAD:
                    raise ValueError(f"unknown lookahead {x!r}")
            elif x < 1:
                raise ValueError("candidate lookaheads must be >= 1")

    def candidates(self) -> tuple[int | str, ...]:
        return self.lookaheads if self.lookaheads else (self.chunk,)

    def lookahead_paths(self, remaining: int) -> list[int]:
        """The candidates in paths, each truncated to ``remaining``."""
        return [
            remaining if cand == FULL_LOOKAHEAD else min(cand, remaining)
            for cand in self.candidates()
        ]


@dataclass(frozen=True)
class TraceStep:
    step: int
    fraction: Fraction
    posterior: float
    nevc: tuple[float, ...]
    elapsed: float


@dataclass
class DecisionTrace:
    """Everything needed to audit one controller run."""

    total: int
    chunk: int
    lookaheads: tuple[int | str, ...]
    source_desc: dict
    utility_spec: str
    steps: list[TraceStep]
    stop_reason: StopReason
    action: str
    eu: float
    final_posterior: float
    final_elapsed: float
    wall_time: float = field(default=0.0, compare=False)


def _deliberate(
    config: ControllerConfig, total: int, closed: int
) -> tuple[Probability, tuple[float, ...], float, StopReason | None]:
    """The stop rule at one step, ``closed`` of ``total`` paths closed.

    Returns the posterior, the candidate values (empty when the deadline
    forces the stop), the model time ``closed * tau``, and the verdict:
    ``DEADLINE_FORCED``, ``NONPOSITIVE_EVC``, or None to search on.
    """
    source = config.source
    timecost = config.timecost
    t_now = closed * timecost.tau
    post = source.posterior_at(total, closed)
    chunk = min(config.chunk, total - closed)
    if timecost.paths_in_time(t_now, chunk) < chunk:
        return post, (), t_now, StopReason.DEADLINE_FORCED
    nevcs = source.nevc_at(config, total, closed, post, t_now)
    verdict = StopReason.NONPOSITIVE_EVC if max(nevcs) <= 0 else None
    return post, nevcs, t_now, verdict


def run(matrix: Matrix, config: ControllerConfig) -> DecisionTrace:
    """Deliberate over one matrix until proof, worthlessness, or deadline."""
    wall_started = time.perf_counter()
    state = init_search(matrix)
    total = state.total
    steps: list[TraceStep] = []
    verdict = None
    while verdict is None and state.status is SearchStatus.RUNNING:
        closed = state.closed
        post, nevcs, t_now, verdict = _deliberate(config, total, closed)
        steps.append(
            TraceStep(len(steps), Fraction(closed, total), float(post), nevcs, t_now)
        )
        if verdict is None:
            step_search(state, min(config.chunk, total - closed))
    if verdict is None:  # the search ended in a proof
        proved = state.status is SearchStatus.EXHAUSTED
        verdict = StopReason.PROOF_OF_W if proved else StopReason.PROOF_OF_NOT_W
        post, t_now = float(proved), state.closed * config.timecost.tau
    action, eu = best_action(float(post), config.utilities, config.timecost, t_now)
    return DecisionTrace(
        total=total,
        chunk=config.chunk,
        lookaheads=config.candidates(),
        source_desc=config.source.describe(),
        utility_spec=format_utility_spec(config.utilities, config.timecost),
        steps=steps,
        stop_reason=verdict,
        action=action,
        eu=eu,
        final_posterior=float(post),
        final_elapsed=t_now,
        wall_time=time.perf_counter() - wall_started,
    )


# ---------------------------------------------------------------------------
# Trace persistence (JSON lines) and replay verification.


def save_trace(trace: DecisionTrace, path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "kind": "header",
                "format_version": TRACE_FORMAT_VERSION,
                "total": trace.total,
                "chunk": trace.chunk,
                "lookaheads": list(trace.lookaheads),
                "source": trace.source_desc,
                "utility_spec": trace.utility_spec,
            }
        )
    ]
    for s in trace.steps:
        lines.append(
            json.dumps(
                {
                    "kind": "step",
                    "step": s.step,
                    "fraction": rational_to_json(s.fraction),
                    "posterior": s.posterior,
                    "nevc": list(s.nevc),
                    "t": s.elapsed,
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "kind": "final",
                "stop_reason": trace.stop_reason.value,
                "action": trace.action,
                "eu": trace.eu,
                "posterior": trace.final_posterior,
                "t": trace.final_elapsed,
                "wall_time": trace.wall_time,
            }
        )
    )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def load_trace(path: str | Path) -> DecisionTrace:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(f"line {lineno}: not JSON: {exc}") from exc
    if not rows or rows[0].get("kind") != "header":
        raise MalformedTraceError("first line must be the header record")
    if rows[-1].get("kind") != "final":
        raise MalformedTraceError("last line must be the final record")
    header, final = rows[0], rows[-1]
    if header.get("format_version") != TRACE_FORMAT_VERSION:
        raise MalformedTraceError(
            f"unsupported trace format_version {header.get('format_version')!r}"
        )
    steps = []
    for row in rows[1:-1]:
        if row.get("kind") != "step":
            raise MalformedTraceError(f"unexpected record kind {row.get('kind')!r}")
        try:
            steps.append(
                TraceStep(
                    row["step"],
                    rational_from_json(row["fraction"], "fraction"),
                    float(row["posterior"]),
                    tuple(float(v) for v in row["nevc"]),
                    float(row["t"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTraceError(f"bad step record: {exc}") from exc
    try:
        lookaheads = tuple(
            x if isinstance(x, int) else str(x) for x in header["lookaheads"]
        )
        trace = DecisionTrace(
            total=header["total"],
            chunk=header["chunk"],
            lookaheads=lookaheads,
            source_desc=header["source"],
            utility_spec=header["utility_spec"],
            steps=steps,
            stop_reason=StopReason(final["stop_reason"]),
            action=final["action"],
            eu=float(final["eu"]),
            final_posterior=float(final["posterior"]),
            final_elapsed=float(final["t"]),
            wall_time=float(final.get("wall_time", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTraceError(f"bad header/final record: {exc}") from exc
    return trace


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-deriving a trace: clean, parameter mismatch, or divergence."""

    ok: bool
    kind: str  # "clean" | "parameter_mismatch" | "inconsistency"
    steps_checked: int = 0
    step: int | None = None
    field: str | None = None
    expected: object = None
    actual: object = None
    message: str = ""


def _mismatch(message: str) -> ReplayReport:
    return ReplayReport(False, "parameter_mismatch", message=message)


def _diverged(step: int | None, fld: str, expected, actual, checked: int) -> ReplayReport:
    return ReplayReport(
        False,
        "inconsistency",
        steps_checked=checked,
        step=step,
        field=fld,
        expected=expected,
        actual=actual,
        message=f"step {step}: {fld} expected {expected!r}, got {actual!r}",
    )


def replay(
    trace: DecisionTrace,
    *,
    utilities: UtilityModel,
    timecost: TimeCost,
    profile: Profile | None = None,
    analytic: AnalyticSource | None = None,
) -> ReplayReport:
    """Re-derive every step of a trace and compare against what was recorded.

    The belief source the run used must be supplied (the profile for profile
    traces, the analytic source for analytic ones); supplying different
    parameters than the header records is reported as a parameter mismatch,
    not as trace corruption.
    """
    spec = format_utility_spec(utilities, timecost)
    if spec != trace.utility_spec:
        return _mismatch(
            f"utilities/timecost differ from the run's: {trace.utility_spec!r} "
            f"vs {spec!r}"
        )
    desc = trace.source_desc
    kind = desc.get("kind")
    if kind == "profile":
        if profile is None:
            return _mismatch("trace was run with a profile source; pass profile=")
        source: AnalyticSource | ProfileSource = ProfileSource(profile)
    elif kind == "analytic":
        if analytic is None:
            return _mismatch("trace was run with an analytic source; pass analytic=")
        source = analytic
    else:
        raise MalformedTraceError(f"unknown source kind {kind!r}")
    if source.describe() != desc:
        return _mismatch(f"the {kind} source's parameters differ from the run's")

    total = trace.total
    config = ControllerConfig(
        chunk=trace.chunk,
        utilities=utilities,
        timecost=timecost,
        source=source,
        lookaheads=trace.lookaheads,
    )

    checked = 0
    last_fraction = None
    verdict = None
    for s in trace.steps:
        if verdict is not None:
            return _diverged(
                s.step, "step", f"no step after {verdict.value}", s.step, checked
            )
        if s.step != checked:
            return _diverged(s.step, "step", checked, s.step, checked)
        closed_exact = s.fraction * total
        if checked == 0 and s.fraction != 0:
            return _diverged(s.step, "fraction", Fraction(0), s.fraction, checked)
        if not 0 <= closed_exact < total:
            return _diverged(s.step, "fraction", "within [0, 1)", s.fraction, checked)
        if last_fraction is not None and s.fraction <= last_fraction:
            return _diverged(
                s.step, "fraction", f"> {last_fraction}", s.fraction, checked
            )
        last_fraction = s.fraction
        if closed_exact.denominator != 1:
            return _diverged(
                s.step, "fraction", "a multiple of 1/total", s.fraction, checked
            )
        post, nevcs, t_now, verdict = _deliberate(
            config, total, closed_exact.numerator
        )
        if abs(t_now - s.elapsed) > FLOAT_TOL:
            return _diverged(s.step, "t", t_now, s.elapsed, checked)
        if abs(float(post) - s.posterior) > FLOAT_TOL:
            return _diverged(s.step, "posterior", float(post), s.posterior, checked)
        if len(nevcs) != len(s.nevc):
            return _diverged(s.step, "nevc", nevcs, s.nevc, checked)
        for k, (a, b) in enumerate(zip(nevcs, s.nevc)):
            if abs(a - b) > FLOAT_TOL:
                return _diverged(s.step, f"nevc[{k}]", a, b, checked)
        checked += 1

    # Without a verdict the search went on, so only a proof can have ended it.
    proofs = (StopReason.PROOF_OF_W, StopReason.PROOF_OF_NOT_W)
    if trace.stop_reason not in ((verdict,) if verdict else proofs):
        expected = verdict.value if verdict else "a proof"
        return _diverged(None, "stop_reason", expected, trace.stop_reason.value, checked)
    # The run acts at the belief and time it stopped at.
    last_t = trace.steps[-1].elapsed if trace.steps else 0.0
    if verdict is not None:
        final = (trace.steps[-1].posterior, last_t)
    elif trace.stop_reason is StopReason.PROOF_OF_W:
        final = (1.0, total * timecost.tau)
    else:  # the open path turned up within the last chunk searched
        final = (0.0, max(last_t, trace.final_elapsed))
    for fld, expected, actual in (
        ("posterior", final[0], trace.final_posterior),
        ("t", final[1], trace.final_elapsed),
    ):
        if abs(expected - actual) > FLOAT_TOL:
            return _diverged(None, fld, expected, actual, checked)
    action, eu = best_action(
        trace.final_posterior, utilities, timecost, trace.final_elapsed
    )
    if action != trace.action:
        return _diverged(None, "action", action, trace.action, checked)
    if abs(eu - trace.eu) > FLOAT_TOL:
        return _diverged(None, "eu", eu, trace.eu, checked)
    return ReplayReport(True, "clean", steps_checked=checked)
