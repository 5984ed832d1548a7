"""Property tests: resumable search, its closures, the generator's stream, the
paths that fit before a deadline, and the trace, utility-spec, DIMACS and
profile round trips on random inputs; and the command line, which answers
malformed input of every kind with exit 2 and the cause on stderr, and
writes a trace that replays clean from any value it accepts at the digit
bound.

Hypothesis runs derandomized, with no example database and a bounded number
of examples, so the file gives the same verdict on every run and takes a few
seconds.
"""

import io
import itertools
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_sat, reference_closures, reference_generate
from proverb import controller
from proverb.belief import ContextTag
from proverb.cli import main
from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    ProfileSource,
    TraceStep,
    _deliberate,
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
from proverb.generator import GeneratorConfig, generate, generate_corpus
from proverb.matrix import (
    Literal,
    Matrix,
    SearchState,
    SearchStatus,
    solve,
    step_search,
    total_paths,
)
from proverb.profiles import (
    InstanceRecord,
    MalformedProfileError,
    Profile,
    collect,
    load,
    save,
)

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


def long_walk(shape, seed):
    """The first instance of ``shape`` from ``seed`` on whose walk takes at
    least 20 closures; about half of the instances of these shapes do."""
    for seed in itertools.count(seed):
        matrix = generate(GeneratorConfig(*shape, seed))
        if solve(matrix).closure_count >= 20:
            return matrix


# Instances of 256 to 1,024 paths, so that a budget sequence splits a long
# walk.  Two draws in three are such walks; the rest are small matrices, the
# degenerate ones included.
long_walks = st.builds(
    long_walk, st.sampled_from([(8, 2, 3), (10, 2, 3), (10, 2, 4)]), st.integers(0, 2**32)
)
walks = st.sampled_from([long_walks, long_walks, matrices(0, 0)]).flatmap(lambda s: s)


@PROPERTY
@given(
    walks,
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
)
def test_any_budget_sequence_reaches_the_solve_state(matrix, budgets):
    state = SearchState(matrix)
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
@given(
    walks,
    st.lists(st.integers(1, 300), min_size=1, max_size=8),
    st.none() | st.integers(1, 5),
)
def test_each_call_stops_at_the_first_closure_its_rule_names(matrix, budgets, cap):
    reference = [pruned for _clause, pruned in reference_closures(matrix)]
    running_total = list(itertools.accumulate(reference, initial=0))
    whole = solve(matrix)
    state = SearchState(matrix)
    for budget in itertools.cycle(budgets):
        if state.status is not SearchStatus.RUNNING:
            break
        start, base = state.closure_count, state.closed
        step_search(state, budget, event_cap=cap)
        assert state.closed == running_total[state.closure_count]
        # The first later closure that exhausts the space, brings this call's
        # pruned paths to the budget, or is the cap-th of this call.
        stops = [
            k
            for k in range(start + 1, len(reference) + 1)
            if running_total[k] == state.total
            or running_total[k] - base >= budget
            or k - start == cap
        ]
        if stops:
            assert state.closure_count == stops[0]
            assert state.status is (
                SearchStatus.EXHAUSTED
                if state.closed == state.total
                else SearchStatus.RUNNING
            )
        else:
            # No closure left stops the call: it runs on to the open path.
            assert state.closure_count == len(reference)
            assert state.status is SearchStatus.OPEN_FOUND
            assert state.witness == whole.witness


@PROPERTY
@given(matrices(0, 0))
def test_unit_steps_match_the_reference_walk(matrix):
    whole = solve(matrix)
    assert (whole.status is SearchStatus.OPEN_FOUND) == brute_force_sat(matrix)
    reference = [pruned for _clause, pruned in reference_closures(matrix)]
    state = SearchState(matrix)
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


INTERIOR = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
PRIORS = st.sampled_from([Fraction(0), *INTERIOR, Fraction(1)])


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
def sources(draw, total, priors=PRIORS, profiles=PROFILES):
    """A source and the keyword ``replay`` needs for it."""
    kind = draw(st.sampled_from(["count", "mixture", "profile"]))
    if kind == "profile":
        profile = draw(st.sampled_from(profiles))
        return ProfileSource(profile), {"profile": profile}
    prior = draw(priors)
    if kind == "count" or total < 2:
        open_paths = draw(st.integers(1, total))
    else:
        low = draw(st.integers(1, total - 1))
        high = draw(st.integers(low + 1, total))
        weight = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
        open_paths = {low: weight, high: 1 - weight}
    source = AnalyticSource(prior, open_paths)
    return source, {"analytic": source}


@st.composite
def configs(draw, total, least_chunk=1, **source_kw):
    """A run's config for ``total`` paths and the keyword ``replay`` needs;
    ``source_kw`` narrows the priors and profiles ``sources`` draws."""
    source, kw = draw(sources(total, **source_kw))
    utilities = draw(UTILITIES)
    timecost = draw(costs(total))
    chunk = draw(st.integers(least_chunk, max(least_chunk, total // 4)))
    lookahead = st.one_of(st.integers(1, total), st.just("full"))
    lookaheads = tuple(draw(st.lists(lookahead, max_size=3)))
    return ControllerConfig(chunk, utilities, timecost, source, lookaheads), kw


def assert_round_trip_is_clean(matrix, config, kw):
    trace = run(matrix, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
    assert loaded == trace
    report = replay(loaded, utilities=config.utilities, timecost=config.timecost, **kw)
    assert report.ok, report.message
    assert report.steps_checked == len(trace.steps)


@PROPERTY
@given(matrices(3, 1), st.data())
def test_run_save_load_replay_is_clean(matrix, data):
    assert_round_trip_is_clean(matrix, *data.draw(configs(total_paths(matrix))))


@PROPERTY
@given(long_walks, st.data())
def test_long_runs_save_load_replay_clean(matrix, data):
    # A prior strictly inside (0, 1), or the profile with both verdicts, on
    # a long walk: search is worth something at the start, so most runs
    # take several steps and replay re-derives each of them.
    config = configs(total_paths(matrix), priors=st.sampled_from(INTERIOR), profiles=PROFILES[:1])
    assert_round_trip_is_clean(matrix, *data.draw(config))


@PROPERTY
@given(long_walks, st.data())
def test_replay_refuses_a_step_closer_than_a_chunk(matrix, data):
    # Each step after the first lies a whole chunk or more past the one
    # before: move one nearer, priced as run would price it there.  On a
    # long walk, under a prior inside (0, 1) or the profile with both
    # verdicts, about two runs in three take two steps a chunk of 2 or more
    # apart.
    total = total_paths(matrix)
    config, kw = data.draw(
        configs(total, least_chunk=2, priors=st.sampled_from(INTERIOR), profiles=PROFILES[:1])
    )
    trace = run(matrix, config)
    counts = [int(s.fraction * total) for s in trace.steps]
    chunks = [_deliberate(config, total, c)[-1] for c in counts[:-1]]
    movable = [k for k in range(1, len(counts)) if chunks[k - 1] > 1]
    assume(movable)
    k = data.draw(st.sampled_from(movable))
    closed = data.draw(st.integers(counts[k - 1] + 1, counts[k - 1] + chunks[k - 1] - 1))
    post, nevc, t, _verdict, _chunk = _deliberate(config, total, closed)
    trace.steps[k] = TraceStep(k, Fraction(closed, total), post, nevc, t)
    report = replay(trace, utilities=config.utilities, timecost=config.timecost, **kw)
    assert (report.kind, report.field, report.step) == ("inconsistency", "fraction", k)


finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(0, allow_infinity=False)
positive = st.floats(0, allow_infinity=False, exclude_min=True)
action_name = st.from_regex(r"\A[A-Za-z_][A-Za-z0-9_+-]{0,6}\Z")


@st.composite
def utility_models(draw):
    names = draw(st.lists(action_name, min_size=2, max_size=4, unique=True))
    rows = st.lists(finite, min_size=len(names), max_size=len(names))
    when_true, when_false = draw(rows), draw(rows)
    values = when_true + when_false
    assume(math.isfinite(max(values) - min(values)))  # a wider table is refused
    return UtilityModel(tuple(names), tuple(when_true), tuple(when_false))


time_costs = st.one_of(
    st.builds(TimeCost.zero, tau=positive),
    st.builds(TimeCost.linear, nonnegative, tau=positive),
    st.builds(TimeCost.deadline, nonnegative, finite, tau=positive),
)


@PROPERTY
@given(utility_models(), time_costs)
def test_utility_spec_round_trips(utilities, timecost):
    assert parse_utility_spec(format_utility_spec(utilities, timecost)) == (utilities, timecost)


@PROPERTY
@given(st.integers(0, 2**80), nonnegative, positive, st.integers(0, 2**80))
# Deadlines 1e26 and 1e600 paths away: stepping one path at a time never
# reached the first, and the second overflows a float.
@example(0, 1e20, 1e-6, 3**60)
@example(0, 1e300, 1e-300, 3**60)
# A tie: 2**53 + 1 paths take 2**53 + 1 time units, which round to 2**53.
@example(0, 2.0**53, 1.0, 2**60)
# 3 * 0.1 rounds above 0.3.
@example(0, 0.3, 0.1, 5)
# The last path within the largest float, whose midpoint rounds up.
@example(0, sys.float_info.max, 1.0, 2**1024)
@example(2**1000, sys.float_info.max, 2.0**-3, 2**1030)
def test_paths_in_time_is_the_last_path_within_the_deadline(searched, at, tau, limit):
    cost = TimeCost.deadline(at, -1.0, tau)

    def late(paths):
        try:
            return cost.time_of(paths) > at
        except OverflowError:  # beyond every float, so past the deadline
            return True

    j = cost.paths_in_time(searched, limit)
    assert 0 <= j <= limit
    if late(searched):
        assert j == 0
    else:
        assert not late(searched + j)
        assert j == limit or late(searched + j + 1)


metadata = st.dictionaries(
    st.from_regex(r"\A[a-z_]{1,8}\Z"), st.from_regex(r"\A[A-Za-z0-9_.:-]{0,8}\Z"), max_size=4
)


@PROPERTY
@given(matrices(0, 0), metadata)
def test_dimacs_round_trips(matrix, meta):
    assert parse_dimacs(format_dimacs(matrix)) == (matrix, {})
    assert parse_dimacs(format_dimacs(matrix, meta)) == (matrix, meta)


@st.composite
def generator_configs(draw):
    """Any shape the generator accepts, over alphabets of 1 to 20 symbols."""
    alphabet = draw(st.integers(1, 20))
    width = draw(st.integers(1, alphabet))
    seed = draw(st.integers(0, 2**64 - 1))
    return GeneratorConfig(draw(st.integers(1, 12)), width, alphabet, seed)


@PROPERTY
@given(generator_configs())
@example(GeneratorConfig(9, 1, 7, 3))  # width 1, an alphabet of 7
@example(GeneratorConfig(9, 6, 6, 4))  # full width: each clause a permutation
@example(GeneratorConfig(9, 5, 16, 2**64 - 1))  # a power of two, the largest seed
def test_generate_draws_the_reference_stream(config):
    matrix = generate(config)
    expected = reference_generate(config)
    assert matrix == expected
    assert format_dimacs(matrix) == format_dimacs(expected)


counts = st.none() | st.integers(0, 2**40)
contexts = st.builds(
    ContextTag, counts, counts, counts, counts, counts, st.sampled_from(["none", "presort"])
)
outcomes = st.tuples(
    st.integers(0, 2**40),
    st.booleans(),
    st.fractions(0, 1, max_denominator=3**30).filter(lambda f: f < 1),
    st.integers(0, 2**70),
)


@st.composite
def profiles(draw):
    rows = draw(st.lists(outcomes, min_size=1, max_size=12))
    records = tuple(
        InstanceRecord(i, sat, frac if sat else Fraction(1), closures)
        for i, sat, frac, closures in rows
    )
    return Profile(draw(contexts), records, draw(st.integers(0, 2**40)))


@PROPERTY
@given(profiles())
def test_profile_save_load_round_trips(profile):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save(profile, first)
        loaded = load(first)
        save(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert loaded == profile
    points = [r.discovery_fraction.as_integer_ratio() for r in profile.records]
    assert [loaded.curve.survivors(*pt) for pt in points] == [
        profile.curve.survivors(*pt) for pt in points
    ]


# What a JSON field can hold but a float or a container.
loose = st.one_of(st.integers(-2, 2**70), st.booleans(), st.none(), st.text(max_size=3))


@PROPERTY
@given(contexts, st.lists(outcomes, min_size=1, max_size=4), st.data())
def test_what_the_constructors_accept_loads_back_equal(context, rows, data):
    # Good inputs for a tag, its records and an excluded count, two of them
    # swapped for loose values.  A record's fraction follows its verdict.
    tag_fields = list(astuple(context))
    record_fields = [[i, sat, closures] for i, sat, _, closures in rows]
    excluded = [0]
    slots = [(tag_fields, k) for k in range(len(tag_fields))]
    slots += [(fields, k) for fields in record_fields for k in range(3)] + [(excluded, 0)]
    for _ in range(2):
        fields, k = data.draw(st.sampled_from(slots))
        fields[k] = data.draw(loose)
    try:
        records = [
            InstanceRecord(i, sat, frac if sat is True else Fraction(1), closures)
            for (i, sat, closures), (_, _, frac, _) in zip(record_fields, rows)
        ]
        profile = Profile(ContextTag(*tag_fields), records, excluded[0])
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        save(profile, path)
        loaded = load(path)
    assert loaded == profile
    assert loaded.context == profile.context


# --- malformed command-line input ----------------------------------------------

SPEC = "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1"
CNF, PROFILE, OUT, BAD = "@cnf", "@profile", "@out", "@bad"  # stand-ins for paths
CNF_TEXT = "p cnf 3 3\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n"  # 27 paths
ANALYTIC = ("run", CNF, "--utilities", SPEC, "--analytic", "1", "--prior", "1/2")


def call_cli(argv, bad=b""):
    """``main(argv)`` on fresh files, ``bad`` the content of the ``@bad`` file:
    exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        names = {CNF: "f.cnf", PROFILE: "p.json", OUT: "out", BAD: "bad"}
        paths = {arg: Path(tmp) / name for arg, name in names.items()}
        paths[CNF].write_text(CNF_TEXT)
        paths[PROFILE].write_text(PROFILE_TEXT)
        paths[BAD].write_bytes(bad)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(paths.get(arg, arg)) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv, cause, bad=b""):
    """Exit 2, nothing on stdout and ``cause`` on stderr; nothing raised."""
    code, out, err = call_cli(argv, bad)
    assert (code, out) == (2, ""), err
    assert cause in err, err


def rejected_by(parse):
    def rejects(text):
        try:
            parse(text)
        except (ValueError, ZeroDivisionError):
            return True
        return False

    return rejects


def fill(template, text):
    return tuple(arg.format(text) for arg in template)


word = st.from_regex(r"\A[a-z]{1,6}\Z")
not_a_fraction = st.text(st.sampled_from("0123456789+-./eE x"), min_size=1, max_size=6).filter(
    rejected_by(Fraction)
)
not_an_int = st.text(st.sampled_from("0123456789+-.ex "), max_size=4).filter(rejected_by(int))
# Malformed probabilities: the error quotes each one.
bad_fractions = st.one_of(
    not_a_fraction,
    st.integers(0, 99).map(lambda n: f"{n}/0"),
    st.fractions().filter(lambda f: not 0 <= f <= 1).map(str),
)
FRACTION_SLOTS = [
    ("decide", "--utilities", SPEC, "--posterior={}"),
    ("decide", "--utilities", SPEC, "--prior={}", "--survival", "1/2"),
    ("decide", "--utilities", SPEC, "--prior", "1/2", "--survival={}"),
    ("decide", "--utilities", SPEC, "--profile", PROFILE, "--fraction={}"),
    ("curve", "--profile", PROFILE, "--out", OUT, "--prior={}"),
    ANALYTIC[:-2] + ("--prior={}",),
    ANALYTIC[:4] + ("--analytic", "1:{}", "--prior", "1/2"),
]
FAMILY_CAUSES = {
    "--clauses": "n_clauses must be >= 1",
    "--lits": "lits_per_clause must be >= 1",
    "--alphabet": "alphabet_size must be >= 1",
    "--count": "count must be >= 1",
}


def family_template(command, flag):
    values = {"--clauses": 3, "--lits": 1, "--alphabet": 2, "--seed": 1, "--count": 2, flag: "{}"}
    return (command, *(f"{key}={value}" for key, value in values.items()), "--out", OUT)


# Integer flags and the cause a value below 1 gets.
INT_SLOTS = [
    (("prove", CNF, "--budget={}"), "budget must be >= 1"),
    (ANALYTIC + ("--chunk={}",), "chunk must be >= 1"),
    *(
        (family_template(command, flag), cause)
        for command in ("gen", "profile", "compare-heuristic")
        for flag, cause in FAMILY_CAUSES.items()
    ),
]


@st.composite
def bad_numbers(draw):
    """A malformed number in some command's slot, and the cause stderr must name."""
    kind = draw(st.sampled_from(["fraction", "not an int", "below 1"]))
    if kind == "fraction":
        text = draw(bad_fractions)
        return fill(draw(st.sampled_from(FRACTION_SLOTS)), text), repr(text)
    template, cause = draw(st.sampled_from(INT_SLOTS))
    if kind == "not an int":
        text = draw(not_an_int)
        return fill(template, text), f"invalid int value: {text!r}"
    return fill(template, str(draw(st.integers(-5, 0)))), cause


@PROPERTY
@given(bad_numbers())
def test_malformed_number_is_usage_error(case):
    assert_usage_error(*case)


weights = st.fractions(0, 1, max_denominator=6)


@st.composite
def bad_open_paths(draw):
    """A malformed ``--analytic`` value (of 27 paths) and its cause."""
    kind = draw(st.sampled_from(["repeat", "no weight", "count", "range", "sum"]))
    if kind == "repeat":
        counts = draw(st.lists(st.integers(1, 27), min_size=1, max_size=3, unique=True))
        again = draw(st.sampled_from(counts))
        text = ",".join(f"{c}:{draw(weights)}" for c in counts + [again])
        cause = f"open-path count {again} given twice"
    elif kind == "no weight":
        bare = draw(st.integers(1, 27))
        text, cause = f"1:1/2,{bare}", f"bad open-path entry '{bare}'"
    elif kind == "count":
        count = draw(not_an_int)
        text, cause = draw(st.sampled_from([count, f"{count}:1"])), repr(count)
    elif kind == "range":
        count = draw(st.integers(-5, 0) | st.integers(28, 10**6))
        text = draw(st.sampled_from([str(count), f"{count}:1"]))
        cause = f"open-path count {count} "
    else:
        counts = draw(st.lists(st.integers(1, 27), min_size=1, max_size=4, unique=True))
        shares = draw(st.lists(weights, min_size=len(counts), max_size=len(counts)))
        assume(sum(shares) != 1)
        text = ",".join(f"{c}:{w}" for c, w in zip(counts, shares))
        cause = f"open-path distribution sums to {sum(shares)}, not 1"
    return ANALYTIC[:4] + ANALYTIC[6:] + (f"--analytic={text}",), cause


@st.composite
def bad_lookaheads(draw):
    """A malformed ``--lookahead`` list and its cause."""
    kind = draw(st.sampled_from(["below 1", "empty", "word"]))
    if kind == "empty":
        text, cause = draw(st.text(st.sampled_from(", "), min_size=1, max_size=4)), "empty"
    else:
        if kind == "below 1":
            bad, cause = str(draw(st.integers(-5, 0))), "lookaheads must be >= 1"
        else:
            bad = draw(word.filter(lambda w: w != "full"))
            cause = repr(bad)
        good = st.lists(st.integers(1, 30).map(str) | st.just("full"), max_size=2)
        text = ",".join(draw(good) + [bad] + draw(good))
    return ANALYTIC + (f"--lookahead={text}",), cause


@PROPERTY
@given(bad_open_paths() | bad_lookaheads())
def test_malformed_open_paths_or_lookaheads_are_usage_errors(case):
    assert_usage_error(*case)


@st.composite
def bad_specs(draw):
    """A malformed utility spec and its cause."""
    chunks = SPEC.split("; ")
    kind = draw(
        st.sampled_from(["key", "pair", "value", "missing", "action", "span", "cost", "tau"])
    )
    if kind == "key":
        key = draw(word.filter(lambda w: w not in ("actions", "cost", "tau")))
        chunks.append(f"{key}=1")
        cause = f"unrecognized key {key!r}"
    elif kind == "pair":
        chunks.append(draw(word))
        cause = f"expected key=value, got {chunks[-1]!r}"
    elif kind == "value":
        i, value = draw(st.integers(1, 4)), draw(word.filter(rejected_by(float)))
        chunks[i] = chunks[i].partition("=")[0] + "=" + value
        cause = f"bad utility value {value!r}"
    elif kind == "missing":
        cause = "missing " + chunks.pop(draw(st.integers(1, 4))).partition("=")[0]
    elif kind == "action":
        name = draw(st.from_regex(r"\A[0-9+-][a-z0-9]{0,3}\Z"))
        chunks[0] = f"actions=a,{name}"
        cause = f"bad action name {name!r}"
    elif kind == "span":  # finite utilities whose difference is not
        big = draw(st.floats(9e307, 1.7e308))
        chunks[1], chunks[3] = f"u(a,w)={big!r}", f"u(b,w)={-big!r}"
        cause = "utilities must span less than float's range"
    elif kind == "cost":
        cost = draw(
            word.filter(lambda w: w != "zero")
            | word.filter(rejected_by(float)).map("linear:{}".format)
            | st.sampled_from(["linear:-1", "linear:nan", "deadline:-1:0", "deadline:1:inf"])
            | st.sampled_from(["zero:1", "linear", "deadline:1"])
        )
        chunks.append(f"cost={cost}")
        cause = repr(cost)
    else:
        tau, cause = draw(
            word.filter(rejected_by(float)).map(lambda w: (w, f"bad tau {w!r}"))
            | st.sampled_from([("0", "tau must be > 0"), ("-1", "tau must be > 0")])
            | st.sampled_from([("nan", "tau must be finite"), ("inf", "tau must be finite")])
        )
        chunks.append(f"tau={tau}")
    spec = "; ".join(chunks)
    command = draw(st.sampled_from([("decide", "--posterior", "1/2"), ANALYTIC[:2] + ANALYTIC[4:]]))
    return command + (f"--utilities={spec}",), cause


@PROPERTY
@given(bad_specs())
def test_malformed_utility_spec_is_usage_error(case):
    assert_usage_error(*case)


@st.composite
def bad_dimacs(draw):
    """Malformed DIMACS bytes and their cause."""
    n = draw(st.integers(1, 4))
    clause = st.lists(st.integers(-n, n).filter(bool), max_size=3)
    body = "".join(" ".join(map(str, c + [0])) + "\n" for c in draw(st.lists(clause, max_size=3)))
    count = body.count("\n")
    header = f"p cnf {n} {count}\n"
    kind = draw(
        st.sampled_from(
            ["no header", "data first", "twice", "fields", "not int", "negative",
             "token", "alphabet", "unterminated", "count", "encoding"]
        )
    )
    if kind == "no header":
        return f"c only comments\n{draw(st.sampled_from(['', 'c more']))}\n", "no 'p cnf' header"
    if kind == "data first":
        return "1 0\n" + header + body, "line 1: clause data before header"
    if kind == "twice":
        return header + body + header, f"line {count + 2}: duplicate header"
    if kind == "fields":
        line = draw(st.sampled_from([f"p cnf {n}", f"p sat {n} {count}", f"p cnf {n} {count} 1"]))
        return line + "\n" + body, f"line 1: malformed header {line!r}"
    if kind == "not int":
        return f"p cnf {draw(word)} {count}\n" + body, "line 1: non-integer header field"
    if kind == "negative":
        return f"p cnf {n} -{count + 1}\n" + body, "line 1: negative header field"
    if kind == "token":
        tok = draw(word)
        return header + body + f"1 {tok} 0\n", f"bad token {tok!r}"
    if kind == "alphabet":
        lit = draw(st.integers(n + 1, 99)) * draw(st.sampled_from([1, -1]))
        return header + body + f"{lit} 0\n", f"literal {lit} outside declared alphabet"
    if kind == "unterminated":
        return f"p cnf {n} {count + 1}\n" + body + "1\n", "unterminated clause"
    if kind == "count":
        extra = draw(st.integers(1, 3))
        cause = f"declares {count + extra} clauses, found {count}"
        return f"p cnf {n} {count + extra}\n" + body, cause
    return (header + body).encode("ascii") + b"\xff\xfe\n", "can't decode"


@PROPERTY
@given(bad_dimacs(), st.sampled_from([("prove", BAD), ("prove", BAD, "--presort"), ANALYTIC]))
def test_malformed_dimacs_is_usage_error(case, argv):
    text, cause = case
    bad = text if isinstance(text, bytes) else text.encode("ascii")
    assert_usage_error(tuple(BAD if arg == CNF else arg for arg in argv), cause, bad)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def other_than(*kinds):
    """JSON values whose type is none of ``kinds`` (a bool is no int)."""
    return json_values.filter(lambda v: type(v) not in kinds)


def profile_text(profile):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        save(profile, path)
        return path.read_text()


PROFILE_TEXT = profile_text(PROFILES[0])
COUNT_KEYS = ("n_clauses", "lits_per_clause", "alphabet_size", "seed", "count")


@st.composite
def bad_profiles(draw):
    """The bytes of a malformed profile: a field of a valid one given a value
    of the wrong type or range, a part dropped, or the document broken."""
    doc = json.loads(PROFILE_TEXT)
    kind = draw(st.sampled_from(["text", "document", "version", "drop", "field"]))
    if kind == "text":
        return draw(st.sampled_from(["", "{", "[1,", "not json", '{"a": 1'])).encode()
    if kind == "document":
        doc = draw(other_than(dict))
    elif kind == "version":
        doc["format_version"] = draw(other_than(int) | st.integers().filter(lambda v: v != 1))
    elif kind == "drop":
        del doc[draw(st.sampled_from(["context", "prior", "records"]))]
    else:
        row = draw(st.integers(0, len(doc["records"]) - 1))
        fields = [
            *((("context", key), other_than(int, type(None))) for key in COUNT_KEYS),
            (("context", "heuristic"), other_than(str)),
            (("context",), other_than(dict)),
            (("prior",), other_than(dict)),
            (("prior", "num"), other_than(int)),
            (("prior", "den"), other_than(int) | st.integers(max_value=0)),
            (("excluded",), other_than(int) | st.integers(max_value=-1)),
            (("records",), other_than(list) | st.just([])),
            (("records", row), other_than(dict)),
            (("records", row, "id"), other_than(int)),
            (("records", row, "sat"), other_than(bool)),
            (("records", row, "closures"), other_than(int) | st.integers(max_value=-1)),
            (("records", row, "frac"), other_than(dict)),
        ]
        (*parents, last), values = draw(st.sampled_from(fields))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(values)
    return json.dumps(doc).encode()


@PROPERTY
@given(
    bad_profiles(),
    st.sampled_from(
        [
            ("curve", "--profile", BAD, "--out", OUT),
            ("decide", "--utilities", SPEC, "--profile", BAD, "--fraction", "1/2"),
            ANALYTIC[:4] + ("--profile", BAD, "--strict"),
        ]
    ),
)
def test_malformed_profile_json_is_usage_error(bad, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_bytes(bad)
        with pytest.raises(MalformedProfileError) as caught:
            load(path)
    assert_usage_error(argv, f"error: {caught.value}\n", bad)


BOUND = 4300  # Python's default limit on the digits int() reads and str() writes


def digits(n):
    """A numeral of ``n`` digits: a short pattern repeated, as Hypothesis
    cannot report an integer beyond the bound."""
    return st.from_regex(r"\A[1-9][0-9]{0,5}\Z").map(lambda pattern: (pattern * n)[:n])


@st.composite
def values_at_the_digit_bound(draw):
    """``run`` flags with values at the digit bound or just past it: the utility
    spec, the flags, and whether every value fits the bound."""
    fits = True
    # The prior a/10**e, written with an exponent or as a decimal.
    a, e = draw(st.integers(1, 9)), draw(st.integers(BOUND - 3, BOUND + 1))
    text = draw(st.sampled_from([f"{a}e-{e}", f"0.{a:0{e}d}"]))
    fits &= len(text) <= BOUND and Fraction(a, 10**e).denominator < 10**BOUND
    flags = ["--prior", text]
    if draw(st.booleans()):  # two open counts, weighted with k decimals each
        k = draw(st.integers(BOUND - 4, BOUND - 1))
        d = int(draw(digits(k)))
        fits &= k + 2 <= BOUND
        flags += ["--analytic", f"1:0.{d:0{k}d},5:0.{10**k - d:0{k}d}"]
    else:
        flags += ["--analytic", str(draw(st.integers(1, 27)))]
    # A utility and a cost rate of many digits: floats, whatever their length.
    n = draw(st.integers(BOUND - 2, BOUND + 2))
    spec = SPEC.replace("u(a,w)=1", f"u(a,w)=0.{draw(digits(n))}")
    spec += f"; cost=linear:{draw(st.integers(1, 9))}e-{draw(st.integers(3, BOUND + 2))}"
    # Path counts of many digits; any number of them exceeds the 27 paths.
    counts = st.integers(BOUND - 2, BOUND + 1).flatmap(digits)
    chunk = draw(st.none() | counts)
    if chunk is not None:
        fits &= len(chunk) <= BOUND
        flags += ["--chunk", chunk]
    lookaheads = draw(st.lists(counts | st.just("full"), max_size=2))
    if lookaheads:
        fits &= all(len(x) <= BOUND for x in lookaheads)
        flags += ["--lookahead", ",".join(lookaheads)]
    return spec, flags, fits


def analytic_source(prior, analytic):
    """The source that ``--prior`` and ``--analytic`` name, read by ``Fraction``."""
    if ":" not in analytic:
        return AnalyticSource(Fraction(prior), int(analytic))
    pairs = (part.split(":") for part in analytic.split(","))
    return AnalyticSource(Fraction(prior), {int(c): Fraction(w) for c, w in pairs})


@settings(PROPERTY, max_examples=40)
@given(values_at_the_digit_bound())
@example((SPEC, ["--prior", "1e-4299", "--analytic", "1:1/3,5:2/3"], True))
def test_run_at_the_digit_bound_replays_clean_or_refuses_before_the_search(case):
    spec, flags, fits = case
    with tempfile.TemporaryDirectory() as tmp:
        cnf, trace = Path(tmp) / "f.cnf", Path(tmp) / "t.jsonl"
        cnf.write_text(CNF_TEXT)
        out, err = io.StringIO(), io.StringIO()
        argv = ["run", str(cnf), "--utilities", spec, *flags, "--out", str(trace)]
        with mock.patch.object(controller, "run", wraps=controller.run) as search:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        if not fits:
            assert (code, out.getvalue(), search.called) == (2, "", False), err.getvalue()
            return
        assert code == 0, err.getvalue()
        loaded = load_trace(trace)
    utilities, timecost = parse_utility_spec(spec)
    source = analytic_source(flags[1], flags[3])
    report = replay(loaded, utilities=utilities, timecost=timecost, analytic=source)
    assert report.ok, report.message
