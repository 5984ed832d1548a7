"""Property tests: resumable search, its closures, and the trace, utility-spec
and DIMACS round trips on random inputs.

Hypothesis runs derandomized, with no example database and a bounded number
of examples, so the file gives the same verdict on every run and takes a few
seconds.
"""

import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_sat, reference_closures
from proverb.belief import ContextTag
from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    ProfileSource,
    load_trace,
    replay,
    run,
    save_trace,
)
from proverb.decision import (
    TimeCost,
    UtilityModel,
    format_utility_spec,
    parse_utility_spec,
)
from proverb.dimacs import format_dimacs, parse_dimacs
from proverb.generator import GeneratorConfig, generate_corpus
from proverb.matrix import (
    Literal,
    Matrix,
    SearchStatus,
    init_search,
    solve,
    step_search,
    total_paths,
)
from proverb.profiles import collect

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

ALPHABET = 4
# Indifference thresholds 1/2 and 3/10.
UTILITIES = st.sampled_from([
    UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)}),
    UtilityModel.from_pairs({"bet": (1.0, 0.0), "hedge": (0.3, 0.3)}),
])

literal = st.builds(Literal, st.integers(0, ALPHABET - 1), st.booleans())


def matrices(min_clauses, min_width):
    """Up to 5 clauses of up to 3 literals: at most 243 paths.

    ``matrices(0, 0)`` admits the degenerate matrices too: an empty clause
    (no path at all) and no clauses (the empty path is open).
    """
    clause = st.lists(literal, min_size=min_width, max_size=3)
    clauses = st.lists(clause, min_size=min_clauses, max_size=5)
    return clauses.map(lambda cls: Matrix(tuple(map(tuple, cls)), ALPHABET))


def _profile(family, seed):
    context = ContextTag(*family, seed=seed, count=20)
    return collect(generate_corpus(GeneratorConfig(*family, seed), 20), context=context)


# One profile with both verdicts and one whose corpus is all satisfiable
# (prior 0), which the search of an unsatisfiable matrix outlives.
PROFILES = (_profile((8, 2, 3), 1), _profile((3, 3, 10), 1))


@PROPERTY
@given(matrices(0, 0), st.lists(st.integers(1, 60), min_size=1, max_size=8))
def test_any_budget_sequence_reaches_the_solve_state(matrix, budgets):
    state = init_search(matrix)
    for budget in itertools.cycle(budgets):
        if state.status is not SearchStatus.RUNNING:
            break
        step_search(state, budget)
    whole = solve(matrix)
    assert state.status is whole.status
    assert state.closed == whole.closed
    assert state.witness == whole.witness
    assert state.closure_count == whole.closure_count


@PROPERTY
@given(matrices(0, 0))
def test_unit_steps_match_the_reference_walk(matrix):
    whole = solve(matrix)
    assert (whole.status is SearchStatus.OPEN_FOUND) == brute_force_sat(matrix)
    reference = [pruned for _clause, pruned in reference_closures(matrix)]
    state = init_search(matrix)
    deltas = []
    while state.status is SearchStatus.RUNNING:
        before = state.closed
        step_search(state, 1)
        deltas.append(state.closed - before)
    if deltas and deltas[-1] == 0:
        # The last call reached the open path without closing anything.
        assert state.status is SearchStatus.OPEN_FOUND
        deltas.pop()
    assert deltas == reference
    assert state.closure_count == len(reference)


PRIORS = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
)


def costs(total):
    """Zero, linear and deadline costs; the whole space takes 0.2 to 4 time units."""
    tau = st.sampled_from([0.2, 1.0, 4.0]).map(lambda span: span / total)
    return st.one_of(
        st.builds(TimeCost.zero, tau=tau),
        st.builds(TimeCost.linear, st.sampled_from([0.0, 0.05, 0.5, 2.0]), tau=tau),
        st.builds(
            TimeCost.deadline,
            st.floats(0, 2),
            st.sampled_from([-1.0, 0.0, 0.5, 5.0]),
            tau=tau,
        ),
    )


@st.composite
def sources(draw, total):
    """A source and the keyword ``replay`` needs for it."""
    kind = draw(st.sampled_from(["count", "mixture", "profile"]))
    if kind == "profile":
        profile = draw(st.sampled_from(PROFILES))
        return ProfileSource(profile), {"profile": profile}
    prior = draw(PRIORS)
    if kind == "count" or total < 2:
        open_paths = draw(st.integers(1, total))
    else:
        low = draw(st.integers(1, total - 1))
        high = draw(st.integers(low + 1, total))
        weight = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
        open_paths = {low: weight, high: 1 - weight}
    source = AnalyticSource(prior, open_paths)
    return source, {"analytic": source}


@PROPERTY
@given(matrices(3, 1), st.data())
def test_run_save_load_replay_is_clean(matrix, data):
    total = total_paths(matrix)
    source, kw = data.draw(sources(total))
    utilities = data.draw(UTILITIES)
    timecost = data.draw(costs(total))
    chunk = data.draw(st.integers(1, max(1, total // 4)))
    lookahead = st.one_of(st.integers(1, total), st.just("full"))
    lookaheads = tuple(data.draw(st.lists(lookahead, max_size=3)))
    config = ControllerConfig(chunk, utilities, timecost, source, lookaheads)
    trace = run(matrix, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
    assert loaded == trace
    report = replay(loaded, utilities=utilities, timecost=timecost, **kw)
    assert report.ok, report.message
    assert report.steps_checked == len(trace.steps)


finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(0, allow_infinity=False)
positive = st.floats(0, allow_infinity=False, exclude_min=True)
action_name = st.from_regex(r"\A[A-Za-z_][A-Za-z0-9_+-]{0,6}\Z")


@st.composite
def utility_models(draw):
    names = draw(st.lists(action_name, min_size=2, max_size=4, unique=True))
    rows = st.lists(finite, min_size=len(names), max_size=len(names))
    return UtilityModel(tuple(names), tuple(draw(rows)), tuple(draw(rows)))


time_costs = st.one_of(
    st.builds(TimeCost.zero, tau=positive),
    st.builds(TimeCost.linear, nonnegative, tau=positive),
    st.builds(TimeCost.deadline, nonnegative, finite, tau=positive),
)


@PROPERTY
@given(utility_models(), time_costs)
def test_utility_spec_round_trips(utilities, timecost):
    assert parse_utility_spec(format_utility_spec(utilities, timecost)) == (utilities, timecost)


metadata = st.dictionaries(
    st.from_regex(r"\A[a-z_]{1,8}\Z"), st.from_regex(r"\A[A-Za-z0-9_.:-]{0,8}\Z"), max_size=4
)


@PROPERTY
@given(matrices(0, 0), metadata)
def test_dimacs_round_trips(matrix, meta):
    assert parse_dimacs(format_dimacs(matrix)) == (matrix, {})
    assert parse_dimacs(format_dimacs(matrix, meta)) == (matrix, meta)
