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
per-path pricing; it stores its open-path distribution as the ``OpenDist``
that ``belief.open_dist`` checks, when the source is built) or
``ProfileSource`` (empirical prior + survival curve, chunk-granularity
pricing; see ``nevc_two_outcome``).  Both offer the same
three methods, and the step rule, ``run`` and ``replay`` use only these,
never asking which source they hold:

* ``posterior_at(total, closed)`` -- the posterior on the claim once
  ``closed`` of ``total`` paths are closed without an open one, as an exact
  pair (``Profile.posterior_at`` takes the same order);
* ``nevc_at(config, total, closed, post)`` -- the net expected value of
  each of the config's ``lookaheads`` at that point, all priced in one
  call (a myopic config's only candidate is its chunk);
* ``describe()`` -- the JSON object the trace header records for the source.

A misspecified analytic model can drive the posterior to 1 while the search
still runs; the controller then stops and acts on that certainty, which is
the honest reading of the model it was given.

Every run yields a ``DecisionTrace``; ``save_trace``/``load_trace`` move it
through JSON lines.  One table, ``_FIELDS``, lists each record's fields in
order with each field's reader, which checks the JSON value and returns what
the trace holds; ``load_trace`` refuses any other value with ``line N: bad
KIND KEY VALUE``, so a new field is one table entry.  ``replay`` re-derives
every recorded quantity from the fractions alone, reporting the first
divergence if any.  It also checks
the numbering (0, 1, 2, ...) and each step's stop verdict: no step may
follow a verdict, and the recorded stop reason must be the last verdict, or
a proof when there is none.  Every closed count it reads must be one the
last chunk could reach, the one rule ``run`` follows: after a step at ``c``
the chunk is ``b = min(chunk, total - c)`` (``_deliberate`` returns it), the
next step lies at a whole count in ``[c + b, total - 1]``, a disproof at a
count in ``[c, c + b - 1]``, so at a model time in ``[time_of(c),
time_of(c + b - 1)]``, and a proof of w at ``total``.  The first step lies
at 0; a trace with no step stopped before any search, by ``proof_of_w`` on a
0-path space or ``proof_of_not_w`` on the 1-path empty matrix, at time 0.
The final record's posterior and model time must be where the run stopped:
the last step's after a verdict, 1 and ``time_of(total)`` after
``proof_of_w``, 0 and a time in reach after ``proof_of_not_w``.  Wall-clock
time is recorded as advisory: its reader takes a finite number, or reads 0.0
where the final record leaves it out, and replay never reads it.  Model time is ``closed * tau``, exact and rounded
once (``TimeCost.time_of``), so replay reproduces it bit for bit.  Before
any search, ``run`` and ``replay`` refuse a path space whose utilities the
clock cannot score: a full search's model time beyond float's range, or
utilities over the run that span beyond it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any

from .belief import (
    FLOAT_TOL,
    AnalyticModel,
    OpenDist,
    Probability,
    context_to_json,
    open_dist,
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
from .matrix import Matrix, SearchState, SearchStatus, step_search
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

    ``open_paths`` is stored as the :data:`~proverb.belief.OpenDist` that
    ``open_dist`` reads from a count, a mapping or pairs, so a bad
    distribution is refused here, before any search, and equivalent inputs
    give equal sources.  Halts are priced per path (``nevc_multi``).  The
    :class:`AnalyticModel` is built on first use for a path-space size and
    kept for the next call, so a run or replay builds it once, and never for
    an empty space; it refuses a count beyond that size.
    """

    prior: Probability
    open_paths: OpenDist

    def __post_init__(self) -> None:
        if not 0 <= self.prior <= 1:
            raise ValueError(f"prior {self.prior} outside [0, 1]")
        object.__setattr__(self, "open_paths", open_dist(self.open_paths))

    def _model(self, total: int) -> AnalyticModel:
        model = self.__dict__.get("_built")
        if model is None or model.total != total:
            model = AnalyticModel(total, self.open_paths)
            object.__setattr__(self, "_built", model)
        return model

    def posterior_at(self, total: int, closed: int) -> tuple[int, int]:
        return posterior(self.prior, self._model(total).survival(closed))

    def nevc_at(
        self,
        config: ControllerConfig,
        total: int,
        closed: int,
        post: tuple[int, int],
    ) -> tuple[float, ...]:
        return nevc_multi(
            post,
            self._model(total),
            closed,
            config.utilities,
            config.timecost,
            config.lookahead_paths(total - closed),
        )

    def describe(self) -> dict:
        dist = self.open_paths
        if len(dist) == 1 and dist[0][1] == 1:
            open_desc: Any = dist[0][0]  # a single count is written bare
        else:
            open_desc = [{"open": o, **rational_to_json(p)} for o, p in dist]
        return {
            "kind": "analytic",
            "prior": rational_to_json(self.prior),
            "open_paths": open_desc,
        }


@dataclass(frozen=True)
class ProfileSource:
    """Empirical prior and survival curve from a collected profile.

    Halts are priced at the chunk end (``nevc_two_outcome``).  The posterior
    is the profile's own, ``Profile.posterior_at``.  The curve is read at
    ``closed / total`` as an exact pair through ``SurvivalCurve.survivors``,
    which keeps its integer thresholds for the last path-space size, so a run
    or replay builds them once.  The survival ratios reach the pricing as
    exact pairs of survivor counts.
    """

    profile: Profile

    def posterior_at(self, total: int, closed: int) -> tuple[int, int]:
        return self.profile.posterior_at(total, closed)

    def nevc_at(
        self,
        config: ControllerConfig,
        total: int,
        closed: int,
        post: tuple[int, int],
    ) -> tuple[float, ...]:
        curve = self.profile.curve
        now = curve.survivors(closed, total)[0]
        lookaheads = config.lookahead_paths(total - closed)
        ratios = [
            (curve.survivors(closed + x, total)[0], now) if now else (1, 1)
            for x in lookaheads
        ]
        return nevc_two_outcome(
            post, ratios, config.utilities, config.timecost, lookaheads, closed
        )

    def describe(self) -> dict:
        return {
            "kind": "profile",
            "prior": rational_to_json(self.profile.prior),
            "context": context_to_json(self.profile.context),
        }


@dataclass(frozen=True)
class ControllerConfig:
    """chunk size, utilities, time cost, belief source, candidate lookaheads.

    ``lookaheads`` are path counts or the string "full" (the whole remaining
    space, resolved per step); given empty, the config is myopic and stores
    ``(chunk,)``, so ``lookaheads`` always names the candidates a run
    prices and its trace records.  Candidates larger than the remaining
    space are truncated to it.
    """

    chunk: int
    utilities: UtilityModel
    timecost: TimeCost
    source: AnalyticSource | ProfileSource
    lookaheads: tuple[int | str, ...] = ()

    def __post_init__(self) -> None:
        # The trace header's own checks, so every run's trace can be read back.
        if not _positive(self.chunk):
            raise ValueError("chunk must be >= 1")
        for x in self.lookaheads:
            if isinstance(x, str):
                if x != FULL_LOOKAHEAD:
                    raise ValueError(f"unknown lookahead {x!r}")
            elif not _positive(x):
                raise ValueError("candidate lookaheads must be >= 1")
        if not self.lookaheads:
            object.__setattr__(self, "lookaheads", (self.chunk,))

    def lookahead_paths(self, remaining: int) -> list[int]:
        """The candidates in paths, each truncated to ``remaining``."""
        return [
            remaining if cand == FULL_LOOKAHEAD else min(cand, remaining)
            for cand in self.lookaheads
        ]


@dataclass(frozen=True, slots=True)
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
) -> tuple[float, tuple[float, ...], float, StopReason | None, int]:
    """The stop rule at one step, ``closed`` of ``total`` paths closed.

    Returns the posterior, the candidate values (empty when the deadline
    forces the stop), the model time ``closed * tau``, the verdict:
    ``DEADLINE_FORCED``, ``NONPOSITIVE_EVC``, or None to search on; and the
    chunk the next search takes, truncated to the paths left.  The
    posterior reaches the pricing as its exact pair and comes back as the
    float of that pair.
    """
    t_now = config.timecost.time_of(closed)
    post = config.source.posterior_at(total, closed)
    chunk = min(config.chunk, total - closed)
    if config.timecost.paths_in_time(closed, chunk) < chunk:
        return post[0] / post[1], (), t_now, StopReason.DEADLINE_FORCED, chunk
    nevcs = config.source.nevc_at(config, total, closed, post)
    verdict = StopReason.NONPOSITIVE_EVC if max(nevcs) <= 0 else None
    return post[0] / post[1], nevcs, t_now, verdict, chunk


def _check_scoreable(config: ControllerConfig, total: int) -> None:
    """Refuse a search of ``total`` paths whose utilities cannot all be scored.

    The utilities a run meets lie between their values at time 0 and at the
    full search's model time, ``time_of(total)``: each must be a float, and
    all within float's range of each other.
    """
    timecost, paths = config.timecost, f"2**{total.bit_length() - 1} or more paths"
    try:
        end = timecost.time_of(total)
    except OverflowError:
        end = math.inf
    if end == math.inf:
        raise ValueError(
            f"a full search of {paths} at tau {timecost.tau!r} ends beyond "
            "float's range of model time"
        )
    values = [*config.utilities.when_true, *config.utilities.when_false]
    values += [timecost.utility_at(u, end) for u in values]
    if not math.isfinite(max(values) - min(values)):
        raise ValueError(f"utilities over a search of {paths} span beyond float's range")


def run(matrix: Matrix, config: ControllerConfig) -> DecisionTrace:
    """Deliberate over one matrix until proof, worthlessness, or deadline."""
    wall_started = time.perf_counter()
    state = SearchState(matrix)
    total = state.total
    _check_scoreable(config, total)
    steps: list[TraceStep] = []
    verdict = None
    while verdict is None and state.status is SearchStatus.RUNNING:
        closed = state.closed
        post, nevcs, t_now, verdict, chunk = _deliberate(config, total, closed)
        steps.append(TraceStep(len(steps), Fraction(closed, total), post, nevcs, t_now))
        if verdict is None:
            step_search(state, chunk)
    if verdict is None:  # the search ended in a proof
        proved = state.status is SearchStatus.EXHAUSTED
        verdict = StopReason.PROOF_OF_W if proved else StopReason.PROOF_OF_NOT_W
        post, t_now = float(proved), config.timecost.time_of(state.closed)
    action, eu = best_action(post, config.utilities, config.timecost, t_now)
    return DecisionTrace(
        total=total,
        chunk=config.chunk,
        lookaheads=config.lookaheads,
        source_desc=config.source.describe(),
        utility_spec=format_utility_spec(config.utilities, config.timecost),
        steps=steps,
        stop_reason=verdict,
        action=action,
        eu=eu,
        final_posterior=post,
        final_elapsed=t_now,
        wall_time=time.perf_counter() - wall_started,
    )


# ---------------------------------------------------------------------------
# Trace persistence (JSON lines) and replay verification.


def _positive(v: object) -> bool:
    return type(v) is int and v >= 1  # a bool is no int


def _need(ok: bool, value):
    """``value`` when ``ok``, else a reader's refusal."""
    if not ok:
        raise ValueError
    return value


def _count(v: object) -> int:
    return _need(type(v) is int and v >= 0, v)


def _number(v: object) -> float:
    """A finite float, from a JSON int or float (a bool is neither)."""
    if type(v) is int:
        v = float(v)  # OverflowError beyond float's range
    return _need(type(v) is float and math.isfinite(v), v)


def _text(v: object) -> str:
    return _need(type(v) is str, v)


_ABSENT = object()  # a field the record leaves out; no JSON value reads as it

# The fields each kind of trace record carries, in order, with their readers:
# ``save_trace`` writes them, and ``load_trace`` passes each JSON value to
# its reader, which returns what the trace holds or raises.
_FIELDS = {
    "header": {
        "format_version": lambda v: _need(type(v) is int and v == TRACE_FORMAT_VERSION, v),
        "total": _count,
        "chunk": lambda v: _need(_positive(v), v),
        "lookaheads": lambda v: tuple(
            _need(x == FULL_LOOKAHEAD or _positive(x), x) for x in _need(type(v) is list, v)
        ),
        "source": lambda v: _need(type(v) is dict, v),
        "utility_spec": _text,
    },
    "step": {
        "step": _count,
        "fraction": lambda v: rational_from_json(v, "fraction"),
        "posterior": _number,
        "nevc": lambda v: tuple(map(_number, _need(type(v) is list, v))),
        "t": _number,
    },
    "final": {
        "stop_reason": StopReason,
        "action": _text,
        "eu": _number,
        "posterior": _number,
        "t": _number,
        # Advisory: replay never reads it, and a trace without it reads 0.0.
        "wall_time": lambda v: 0.0 if v is _ABSENT else _number(v),
    },
}


_ENCODER = json.JSONEncoder(allow_nan=False)  # json.dumps would build one per call


def _record(kind: str, *values) -> str:
    row = {"kind": kind}
    row.update(zip(_FIELDS[kind], values, strict=True))
    return _ENCODER.encode(row)


def save_trace(trace: DecisionTrace, path: str | Path) -> None:
    lines = [
        _record(
            "header", TRACE_FORMAT_VERSION, trace.total, trace.chunk, trace.lookaheads,
            trace.source_desc, trace.utility_spec,
        )
    ]
    lines += [
        _record("step", s.step, rational_to_json(s.fraction), s.posterior, s.nevc, s.elapsed)
        for s in trace.steps
    ]
    lines.append(
        _record(
            "final", trace.stop_reason.value, trace.action, trace.eu,
            trace.final_posterior, trace.final_elapsed, trace.wall_time,
        )
    )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _fields(lineno: int, row: dict, kind: str) -> list:
    """The values of the fields of a ``kind`` record, each from its reader."""
    if row.get("kind") != kind:
        raise MalformedTraceError(f"line {lineno}: expected a {kind} record")
    values = []
    for key, read in _FIELDS[kind].items():
        try:
            values.append(read(row.get(key, _ABSENT)))
        except (OverflowError, ValueError) as exc:
            raise MalformedTraceError(f"line {lineno}: bad {kind} {key} {row.get(key)!r}") from exc
    return values


def load_trace(path: str | Path) -> DecisionTrace:
    """The trace in ``path``.  Raises ``MalformedTraceError`` unless a header,
    the steps and a final record each carry their fields, as their readers
    accept them."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # not JSON, an integer beyond int()'s digit limit, or arrays
            # nested beyond the decoder's recursion limit
            raise MalformedTraceError(f"line {lineno}: not JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise MalformedTraceError(f"line {lineno}: not a JSON object")
        rows.append((lineno, row))
    if len(rows) < 2:
        raise MalformedTraceError("a trace needs a header and a final record")
    _, *header = _fields(*rows[0], "header")
    steps = [TraceStep(*_fields(*row, "step")) for row in rows[1:-1]]
    return DecisionTrace(*header, steps, *_fields(*rows[-1], "final"))


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
    _check_scoreable(config, total)

    # The closed counts in reach of the last step, as ``run`` moves: the
    # next step in [low, high] and below total, a proof of w at total in
    # [low, high], a disproof in ``found``.  Before any step that is step 0,
    # or a stop before any search: a proof of w on a 0-path space, or the
    # open empty path of the 1-path empty matrix.
    low, high, found = 0, 0, (0, 0 if total == 1 else -1)
    checked = 0
    verdict = None
    for s in trace.steps:
        if verdict is not None:
            return _diverged(
                s.step, "step", f"no step after {verdict.value}", s.step, checked
            )
        if s.step != checked:
            return _diverged(s.step, "step", checked, s.step, checked)
        num, den = s.fraction.as_integer_ratio()
        (closed, part), top = divmod(num * total, den), min(high, total - 1)
        if part or not low <= closed <= top:
            expected = f"a whole count of paths in [{low}, {top}]"
            return _diverged(s.step, "fraction", expected, s.fraction, checked)
        post, nevcs, t_now, verdict, chunk = _deliberate(config, total, closed)
        # The chunk searched from here closes at least ``chunk`` paths
        # before the next step; an open path turns up before it has.
        low, high, found = closed + chunk, total, (closed, closed + chunk - 1)
        if abs(t_now - s.elapsed) > FLOAT_TOL:
            return _diverged(s.step, "t", t_now, s.elapsed, checked)
        if abs(post - s.posterior) > FLOAT_TOL:
            return _diverged(s.step, "posterior", post, s.posterior, checked)
        if len(nevcs) != len(s.nevc):
            return _diverged(s.step, "nevc", nevcs, s.nevc, checked)
        for k, (a, b) in enumerate(zip(nevcs, s.nevc)):
            if abs(a - b) > FLOAT_TOL:
                return _diverged(s.step, f"nevc[{k}]", a, b, checked)
        checked += 1

    # The run stops at the last step's verdict, or else at a proof in reach:
    # each end is a posterior and the closed counts it may lie at, the
    # proof of w's [total, total] cut to [low, high].  The run acts at that
    # belief and at the model time of one of those counts.
    if verdict is not None:
        ends = {verdict: (post, closed, closed)}
    else:
        ends = {
            StopReason.PROOF_OF_W: (1.0, max(low, total), min(high, total)),
            StopReason.PROOF_OF_NOT_W: (0.0, *found),
        }
    ends = {reason: end for reason, end in ends.items() if end[1] <= end[2]}
    if trace.stop_reason not in ends:
        expected = " or ".join(r.value for r in ends) or "a step at 0 first"
        return _diverged(None, "stop_reason", expected, trace.stop_reason.value, checked)
    final_post, first, last = ends[trace.stop_reason]
    t = min(max(trace.final_elapsed, timecost.time_of(first)), timecost.time_of(last))
    for fld, expected, actual in (
        ("posterior", final_post, trace.final_posterior),
        ("t", t, trace.final_elapsed),
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
