"""The one-pass pricing against the ``Fraction`` oracle, bit for bit.

``tests/oracles.py`` writes ``nevc_multi``, ``nevc_two_outcome``, the
posterior, the analytic source's conditioning and the survival curve's
reading with every exact probability a ``Fraction``, one candidate at a
time.  The package prices all of a step's candidates in one call and must
return the same floats (compared by ``repr``, so even the sign of a zero
counts) and raise the same exception type with the same message.  A float
posterior counts at its exact rational value, so the oracle gets
``Fraction(p)``; an exact pair gets ``Fraction(*pair)``.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_analytic_posterior,
    fraction_conditional,
    fraction_curve_value,
    fraction_nevc_multi,
    fraction_nevc_two_outcome,
    fraction_posterior,
    one_chunk,
    one_lookahead,
)
from proverb.belief import AnalyticModel, ContextTag, ModelError, posterior
from proverb.controller import AnalyticSource, ControllerConfig, ProfileSource
from proverb.decision import TimeCost, UtilityModel, nevc_multi, nevc_two_outcome
from proverb.profiles import InstanceRecord, Profile

PRICING = settings(derandomize=True, database=None, max_examples=300, deadline=None)
SOURCES = settings(PRICING, max_examples=100)

ALMOST_ONE = Fraction(2**60 - 1, 2**60)  # rounds to 1.0; the exact branch differs

UTILITIES = st.sampled_from([
    UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)}),
    UtilityModel.from_pairs({"bet": (1.0, -2.5), "hedge": (0.3, 0.7), "wait": (0.1, 0.1)}),
])


def outcome(fn, *args):
    """What ``fn`` returns, by repr (each value of a tuple), or the type and
    message it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the spec
        return type(exc), str(exc)
    return [repr(v) for v in value] if isinstance(value, tuple) else repr(value)


def probabilities():
    """Edge values first, then rationals and floats anywhere in [0, 1]."""
    return st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), ALMOST_ONE, Fraction(1, 2)]),
        st.fractions(0, 1, max_denominator=10**6),
        st.floats(0, 1),
    )


def exact_pairs():
    """Unreduced (numerator, denominator) pairs in [0, 1]."""
    return st.integers(1, 10**6).flatmap(
        lambda den: st.tuples(st.integers(0, den), st.just(den)).map(
            lambda pair: (pair[0] * 6, pair[1] * 6)
        )
    )


def costs(remaining):
    """Zero, linear and deadline costs whose deadlines fall anywhere in the run."""
    tau = st.sampled_from([1e-3, 0.25, 1.0]).map(lambda span: span / remaining)
    return st.one_of(
        st.builds(TimeCost.zero, tau=tau),
        st.builds(TimeCost.linear, st.floats(0, 3), tau=tau),
        st.builds(TimeCost.deadline, st.floats(0, 2), st.floats(-2, 2), tau=tau),
    )


def searched_by(timecost):
    """Paths already searched, putting the time at 0, near 0.5 or near 3:
    before, inside or past each deadline ``costs`` draws."""
    return st.sampled_from([0.0, 0.5, 3.0]).map(lambda t: round(t / timecost.tau))


@st.composite
def open_dists(draw, remaining, floats=False):
    """One to five distinct open counts with Fraction (or int 1) weights, or
    with float weights that sum to 1 only within rounding."""
    counts = draw(st.lists(st.integers(1, remaining), min_size=1, max_size=5, unique=True))
    if len(counts) == 1 and draw(st.booleans()):
        return ((counts[0], 1),)
    raw = draw(st.lists(st.integers(1, 9), min_size=len(counts), max_size=len(counts)))
    if floats:
        return tuple((o, r / sum(raw)) for o, r in sorted(zip(counts, raw)))
    return tuple((o, Fraction(r, sum(raw))) for o, r in sorted(zip(counts, raw)))


def as_exact(p):
    if isinstance(p, tuple):
        return Fraction(*p)
    return Fraction(p) if isinstance(p, float) else p


@PRICING
@given(st.data())
def test_nevc_multi_matches_the_fraction_oracle(data):
    remaining = data.draw(st.integers(1, 60))
    dist = data.draw(open_dists(remaining))
    p = data.draw(st.one_of(probabilities(), exact_pairs()))
    xs = data.draw(st.lists(
        st.one_of(st.just(1), st.just(remaining), st.integers(1, remaining)),
        min_size=1, max_size=3,
    ))
    timecost = data.draw(costs(remaining))
    searched = data.draw(searched_by(timecost))
    utilities = data.draw(UTILITIES)
    # The model's counts survive the searched paths; the oracle gets their
    # weights conditioned on that survival.
    total = searched + remaining
    model = AnalyticModel(total, dict(dist))
    cond = fraction_conditional(total, dist, searched)
    got = outcome(nevc_multi, p, model, searched, utilities, timecost, tuple(xs))
    want = [
        outcome(fraction_nevc_multi, as_exact(p), remaining, cond, utilities, timecost, x, searched)
        for x in xs
    ]
    assert got == want


@PRICING
@given(probabilities(), st.lists(st.tuples(st.one_of(probabilities(), exact_pairs()),
                                           st.integers(1, 100)), min_size=1, max_size=3),
       UTILITIES, costs(100).flatmap(lambda cost: st.tuples(st.just(cost), searched_by(cost))))
def test_nevc_two_outcome_matches_the_fraction_oracle(p, candidates, utilities, cost_searched):
    timecost, searched = cost_searched
    ratios = tuple(ratio for ratio, _ in candidates)
    paths = tuple(x for _, x in candidates)
    got = outcome(nevc_two_outcome, p, ratios, utilities, timecost, paths, searched)
    want = [
        outcome(fraction_nevc_two_outcome, as_exact(p), as_exact(ratio), utilities, timecost, x,
                searched)
        for ratio, x in candidates
    ]
    assert got == want


@PRICING
@given(st.one_of(probabilities(), exact_pairs()), st.one_of(probabilities(), exact_pairs()))
def test_posterior_matches_the_fraction_oracle(prior, survival):
    (num, den), want = posterior(prior, survival), fraction_posterior(*map(as_exact, (prior, survival)))
    assert Fraction(num, den) == want and repr(num / den) == repr(float(want))


ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})
BAD_INPUTS = [
    (Fraction(1, 2), 5, ((1, 1),), 0),
    (Fraction(1, 2), 5, ((1, 1),), 6),
    (Fraction(3, 2), 5, ((1, 1),), 1),
    (-0.25, 5, ((1, 1),), 1),
    (float("nan"), 5, ((1, 1),), 1),
]


@pytest.mark.parametrize("p, remaining, dist, x", BAD_INPUTS)
def test_bad_input_raises_as_the_oracle_does(p, remaining, dist, x):
    args = (remaining, dist, ACT, TimeCost.linear(0.1), x)
    got = outcome(one_lookahead, p, *args)
    assert got == outcome(fraction_nevc_multi, p, *args)
    assert isinstance(got, tuple)


def test_the_linear_halt_term_reads_the_mean_halt_time_off_the_clock():
    # The mean halt time is tau times the mean halt path, rounded once; the
    # rate times tau, times that path, rounds twice and gives
    # -0.5000000000000001 here.
    args = (Fraction(1, 2), 5, ((1, 1),), ACT, TimeCost.linear(3.0, 1 / 5), 1)
    assert repr(one_lookahead(*args)) == repr(fraction_nevc_multi(*args)) == "-0.5"


@pytest.mark.parametrize("dist", [
    ((6, 1),),  # one open count beyond the remaining paths
    ((1, Fraction(1, 2)), (9, Fraction(1, 2))),
    ((0, 1),),
])
def test_bad_open_counts_are_refused_with_the_model(dist):
    # The oracle meets them while pricing; the package when the model is built.
    assert outcome(fraction_nevc_multi, Fraction(1, 2), 5, dist, ACT)[0] is ModelError
    with pytest.raises(ModelError):
        AnalyticModel(5, dict(dist))
    largest = dist[-1][0]
    if largest > 5:
        # A count beyond the space is the model's refusal: the source knows no space.
        source = AnalyticSource(Fraction(1, 2), dist)
        with pytest.raises(ModelError, match=f"open-path count {largest} exceeds total paths 5"):
            source.posterior_at(5, 0)
    else:
        with pytest.raises(ModelError, match="open-path count 0 must be a positive integer"):
            AnalyticSource(Fraction(1, 2), dist)


@pytest.mark.parametrize("dist, error", [
    (True, "open-path count True must be a positive integer"),
    (0, "open-path count 0 must be a positive integer"),
    (-3, "open-path count -3 must be a positive integer"),
    ({}, "open-path distribution is empty"),
    ({1: 0.7}, "open-path distribution sums to 0.7, not 1"),
    ({1: -0.5, 2: 1.5}, "open-path probabilities must be >= 0"),
    ({1: float("nan"), 2: 1.0}, "open-path probabilities must be >= 0"),
])
def test_bad_distributions_are_refused_when_the_source_is_built(dist, error):
    with pytest.raises(ModelError, match=f"^{re.escape(error)}$"):
        AnalyticSource(Fraction(1, 2), dist)


def test_one_distribution_gives_one_source():
    # A count, its one-entry mapping (exact or float) and its pairs.
    forms = (3, {3: Fraction(1)}, {3: 1.0}, ((3, 1),))
    three = [AnalyticSource(Fraction(1, 2), d) for d in forms]
    assert all(source == three[0] for source in three)
    assert len({hash(source) for source in three}) == 1
    assert {source.describe()["open_paths"] for source in three} == {3}
    # A mixture in either key order; its header stays the list of weights.
    one, four = Fraction(1, 4), Fraction(3, 4)
    mixture = AnalyticSource(Fraction(1, 2), {4: four, 1: one})
    assert mixture == AnalyticSource(Fraction(1, 2), ((1, one), (4, four)))
    assert mixture.open_paths == ((1, one), (4, four))
    assert mixture.describe()["open_paths"] == [
        {"open": 1, "num": 1, "den": 4}, {"open": 4, "num": 3, "den": 4}
    ]


@pytest.mark.parametrize("p", [(3, 2), (1, 0), (-1, 2)])
def test_bad_exact_pair_posterior_is_refused(p):
    model = AnalyticModel(5, 1)
    with pytest.raises(ValueError, match="posterior"):
        nevc_multi(p, model, 0, ACT)
    with pytest.raises(ValueError, match="posterior"):
        nevc_two_outcome(p, ((1, 2),), ACT)


def test_one_survival_ratio_per_lookahead():
    with pytest.raises(ValueError, match="one survival ratio per lookahead"):
        nevc_two_outcome(Fraction(1, 2), ((1, 2),), ACT, lookaheads=(1, 2))


@pytest.mark.parametrize("p, ratio", [(Fraction(3, 2), Fraction(1, 2)),
                                      (Fraction(1, 2), Fraction(3, 2)),
                                      (Fraction(1, 2), float("inf"))])
def test_bad_two_outcome_input_raises_as_the_oracle_does(p, ratio):
    got = outcome(one_chunk, p, ratio, ACT)
    assert got == outcome(fraction_nevc_two_outcome, p, ratio, ACT)
    assert isinstance(got, tuple)


# --- the sources, against the oracle composed the old way ---------------------


def analytic_oracle(source, config, total, closed):
    """The analytic source's posterior and candidate values, in Fractions.

    A float prior and float weights count at their exact values, the weights
    normalized by their exact sum as the model does.
    """
    open_paths = dict(source.open_paths)
    norm = sum(Fraction(w) for w in open_paths.values())
    dist = tuple(sorted((o, Fraction(w) / norm) for o, w in open_paths.items()))
    post = fraction_analytic_posterior(Fraction(source.prior), total, dist, closed)
    remaining = total - closed
    cond = fraction_conditional(total, dist, closed)
    nevcs = tuple(
        fraction_nevc_multi(post, remaining, cond, config.utilities, config.timecost, x, closed)
        for x in config.lookahead_paths(remaining)
    )
    return post, nevcs


def check_analytic(source, config, total, closed):
    post, nevcs = analytic_oracle(source, config, total, closed)
    num, den = source.posterior_at(total, closed)
    assert Fraction(num, den) == post and repr(num / den) == repr(float(post))
    got_nevcs = source.nevc_at(config, total, closed, (num, den))
    assert list(map(repr, got_nevcs)) == list(map(repr, nevcs))


@SOURCES
@given(st.data())
def test_analytic_source_matches_the_oracle(data):
    # Open counts up to the whole space, so that later steps rule some out,
    # and a middle candidate that may exceed what remains.
    total = data.draw(st.integers(1, 80))
    dist = data.draw(open_dists(total, floats=data.draw(st.booleans())))
    open_paths = dist[0][0] if dist[0][1] == 1 else dict(dist)
    prior = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), ALMOST_ONE, 0.3]))
    source = AnalyticSource(prior, open_paths)
    timecost = data.draw(costs(total))
    chunk = data.draw(st.integers(1, total))
    wide = data.draw(st.integers(1, 2 * total))
    config = ControllerConfig(chunk, ACT, timecost, source, (chunk, wide, "full"))
    for closed in sorted(set(data.draw(st.lists(st.integers(0, total - 1), max_size=4)))):
        check_analytic(source, config, total, closed)


@pytest.mark.parametrize("cost", [TimeCost.zero(0.01), TimeCost.linear(0.3, 0.01),
                                  TimeCost.deadline(0.2, -1.0, 0.01)])
def test_ruled_out_counts_float_weights_and_a_truncated_candidate(cost):
    # Past 60 - 40 = 20 closed paths only the counts 1 and 7 survive, past 53
    # only the count 1; the 30-path candidate is cut to what remains from 31.
    source = AnalyticSource(0.25, {1: 0.5, 7: 0.3, 40: 0.2})
    config = ControllerConfig(5, ACT, cost, source, (5, 30, "full"))
    for closed in (0, 19, 20, 21, 31, 53, 54, 58, 59):
        check_analytic(source, config, 60, closed)


@pytest.mark.parametrize("cost", ["zero", "linear", "deadline"])
def test_path_space_beyond_2_to_the_64(cost):
    total = 3**45
    tau = 1 / total
    timecost = {
        "zero": TimeCost.zero(tau),
        "linear": TimeCost.linear(0.5, tau),
        "deadline": TimeCost.deadline(0.75, -1.0, tau),
    }[cost]
    open_paths = {1: Fraction(1, 4), 8: Fraction(1, 4), 64: Fraction(1, 2)}
    source = AnalyticSource(Fraction(1, 2), open_paths)
    chunk = total // 40
    config = ControllerConfig(chunk, ACT, timecost, source, (chunk, 10 * chunk, "full"))
    for closed in (0, 1, total // 3, total // 2 + 7, total - 70, total - 2):
        check_analytic(source, config, total, closed)


def profile_of(fractions, unsat):
    records = [InstanceRecord(i, True, f, 0) for i, f in enumerate(fractions)]
    records += [InstanceRecord(len(records) + i, False, Fraction(1), 0) for i in range(unsat)]
    return Profile(ContextTag(), tuple(records))


@SOURCES
@given(st.lists(st.fractions(0, 1, max_denominator=50).filter(lambda f: f < 1), max_size=8),
       st.integers(1, 400), st.integers(1, 400))
def test_threshold_lookup_equals_the_curve(fractions, total, other):
    curve = profile_of(fractions, unsat=1).curve
    n = len(fractions)
    # Alternating sizes rebuild the kept thresholds each time.
    for size in (total, other, total):
        near = {0, size}
        for f in fractions:
            low = f.numerator * size // f.denominator
            near.update(c for c in (low - 1, low, low + 1, low + 2) if 0 <= c <= size)
        for c in sorted(near):
            want = fraction_curve_value(fractions, Fraction(c, size))
            survivors, samples = curve.survivors(c, size)
            assert samples == (n or 1)
            assert Fraction(survivors, samples) == want
            assert curve.value(Fraction(c, size)) == want


def test_empty_curve_lookup_is_one():
    curve = profile_of([], unsat=2).curve
    for total, c in [(1, 0), (1, 1), (7, 0), (7, 3), (7, 7)]:
        assert curve.survivors(c, total) == (1, 1)
    curve = profile_of([Fraction(0), Fraction(1, 2)], unsat=1).curve
    assert curve.survivors(0, 7) == (2, 2)  # pinned at 0, past a discovery at 0
    assert curve.survivors(1, 7) == (1, 2)


@SOURCES
@given(st.lists(st.fractions(0, 1, max_denominator=50).filter(lambda f: f < 1),
                min_size=1, max_size=8),
       st.integers(1, 3), st.integers(2, 300), st.data())
def test_profile_source_matches_the_oracle(fractions, unsat, total, data):
    source = ProfileSource(profile_of(fractions, unsat))
    profile = source.profile
    timecost = data.draw(costs(total))
    chunk = data.draw(st.integers(1, total))
    config = ControllerConfig(chunk, ACT, timecost, source, (chunk, "full"))
    for closed in range(0, total, max(1, total // 7)):
        now = fraction_curve_value(fractions, Fraction(closed, total))
        post = fraction_posterior(profile.prior, now)
        got = source.posterior_at(total, closed)
        assert Fraction(*got) == post
        want = []
        for x in config.lookahead_paths(total - closed):
            nxt = fraction_curve_value(fractions, Fraction(closed + x, total))
            ratio = nxt / now if now > 0 else Fraction(1)
            want.append(repr(fraction_nevc_two_outcome(post, ratio, ACT, timecost, x, closed)))
        assert list(map(repr, source.nevc_at(config, total, closed, got))) == want
