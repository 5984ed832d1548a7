"""The integer-pair pricing against the ``Fraction`` oracle, bit for bit.

``tests/oracles.py`` writes ``nevc_multi``, ``nevc_two_outcome``, the
posterior, the analytic source's conditioning and the survival curve's
reading with every exact probability a ``Fraction``.  The package must return the same float
(compared by ``repr``, so even the sign of a zero counts) and raise the same
exception type with the same message.  A float posterior counts at its exact
rational value, so the oracle gets ``Fraction(p)``.
"""

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
)
from proverb.belief import ContextTag, ModelError, posterior
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
    """The float ``fn`` returns, by repr, or the type and message it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the spec
        return type(exc), str(exc)


def probabilities():
    """Edge values first, then rationals and floats anywhere in [0, 1]."""
    return st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), ALMOST_ONE, Fraction(1, 2)]),
        st.fractions(0, 1, max_denominator=10**6),
        st.floats(0, 1),
    )


def costs(remaining):
    """Zero, linear and deadline costs whose deadlines fall anywhere in the run."""
    tau = st.sampled_from([1e-3, 0.25, 1.0]).map(lambda span: span / remaining)
    return st.one_of(
        st.builds(TimeCost.zero, tau=tau),
        st.builds(TimeCost.linear, st.floats(0, 3), tau=tau),
        st.builds(TimeCost.deadline, st.floats(0, 2), st.floats(-2, 2), tau=tau),
    )


@st.composite
def open_dists(draw, remaining):
    """One to three distinct open counts with Fraction (or int 1) weights."""
    counts = draw(st.lists(st.integers(1, remaining), min_size=1, max_size=3, unique=True))
    if len(counts) == 1 and draw(st.booleans()):
        return ((counts[0], 1),)
    raw = draw(st.lists(st.integers(1, 9), min_size=len(counts), max_size=len(counts)))
    return tuple((o, Fraction(r, sum(raw))) for o, r in sorted(zip(counts, raw)))


def as_exact(p):
    return Fraction(p) if isinstance(p, float) else p


@PRICING
@given(st.data())
def test_nevc_multi_matches_the_fraction_oracle(data):
    remaining = data.draw(st.integers(1, 60))
    dist = data.draw(open_dists(remaining))
    p = data.draw(probabilities())
    x = data.draw(st.one_of(st.just(1), st.just(remaining), st.integers(1, remaining)))
    timecost = data.draw(costs(remaining))
    # t0 = 0, somewhere inside, or past every deadline drawn above.
    t0 = data.draw(st.sampled_from([0.0, 0.5, 3.0]))
    utilities = data.draw(UTILITIES)
    args = (remaining, dist, utilities, timecost, x, t0)
    assert outcome(nevc_multi, p, *args) == outcome(fraction_nevc_multi, as_exact(p), *args)


@PRICING
@given(probabilities(), probabilities(), UTILITIES, costs(100), st.integers(1, 100),
       st.sampled_from([0.0, 0.5, 3.0]))
def test_nevc_two_outcome_matches_the_fraction_oracle(p, ratio, utilities, timecost, paths, t0):
    args = (utilities, timecost, paths, t0)
    assert outcome(nevc_two_outcome, p, ratio, *args) == outcome(
        fraction_nevc_two_outcome, as_exact(p), as_exact(ratio), *args
    )


@PRICING
@given(probabilities(), probabilities())
def test_posterior_matches_the_fraction_oracle(prior, survival):
    got, want = posterior(prior, survival), fraction_posterior(*map(as_exact, (prior, survival)))
    assert got == want and repr(float(got)) == repr(float(want))


ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})
BAD_INPUTS = [
    (Fraction(1, 2), 5, ((6, 1),), 1),  # one open count beyond the remaining paths
    (Fraction(1, 2), 5, ((1, Fraction(1, 2)), (9, Fraction(1, 2))), 2),
    (Fraction(1, 2), 5, ((0, 1),), 1),
    (Fraction(1, 2), 5, ((1, 1),), 0),
    (Fraction(1, 2), 5, ((1, 1),), 6),
    (Fraction(3, 2), 5, ((1, 1),), 1),
    (-0.25, 5, ((1, 1),), 1),
    (float("nan"), 5, ((1, 1),), 1),
]


@pytest.mark.parametrize("p, remaining, dist, x", BAD_INPUTS)
def test_bad_input_raises_as_the_oracle_does(p, remaining, dist, x):
    args = (remaining, dist, ACT, TimeCost.linear(0.1), x)
    got = outcome(nevc_multi, p, *args)
    assert got == outcome(fraction_nevc_multi, p, *args)
    assert isinstance(got, tuple)
    if dist[-1][0] > remaining:
        assert got[0] is ModelError


@pytest.mark.parametrize("p, ratio", [(Fraction(3, 2), Fraction(1, 2)),
                                      (Fraction(1, 2), Fraction(3, 2)),
                                      (Fraction(1, 2), float("inf"))])
def test_bad_two_outcome_input_raises_as_the_oracle_does(p, ratio):
    got = outcome(nevc_two_outcome, p, ratio, ACT)
    assert got == outcome(fraction_nevc_two_outcome, p, ratio, ACT)
    assert isinstance(got, tuple)


# --- the sources, against the oracle composed the old way ---------------------


def analytic_oracle(source, config, total, closed):
    """The analytic source's posterior and candidate values, in Fractions."""
    open_paths = source.open_paths
    if isinstance(open_paths, int):
        open_paths = {open_paths: Fraction(1)}
    dist = tuple(sorted(open_paths.items()))
    post = fraction_analytic_posterior(source.prior, total, dist, closed)
    remaining = total - closed
    cond = fraction_conditional(total, dist, closed)
    t_now = closed * config.timecost.tau
    nevcs = tuple(
        fraction_nevc_multi(post, remaining, cond, config.utilities, config.timecost, x, t_now)
        for x in config.lookahead_paths(remaining)
    )
    return post, nevcs


def check_analytic(source, config, total, closed):
    post, nevcs = analytic_oracle(source, config, total, closed)
    got = source.posterior_at(total, closed)
    assert got == post and repr(float(got)) == repr(float(post))
    t_now = closed * config.timecost.tau
    got_nevcs = source.nevc_at(config, total, closed, got, t_now)
    assert list(map(repr, got_nevcs)) == list(map(repr, nevcs))


@SOURCES
@given(st.data())
def test_analytic_source_matches_the_oracle(data):
    total = data.draw(st.integers(1, 80))
    dist = data.draw(open_dists(total))
    open_paths = dist[0][0] if dist[0][1] == 1 else dict(dist)
    prior = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), ALMOST_ONE]))
    source = AnalyticSource(prior, open_paths)
    timecost = data.draw(costs(total))
    chunk = data.draw(st.integers(1, total))
    config = ControllerConfig(chunk, ACT, timecost, source, (chunk, "full"))
    for closed in sorted(set(data.draw(st.lists(st.integers(0, total - 1), max_size=4)))):
        check_analytic(source, config, total, closed)


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
    return Profile(ContextTag(), Fraction(unsat, len(records)), tuple(records))


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
        assert got == post
        t_now = closed * timecost.tau
        want = []
        for x in config.lookahead_paths(total - closed):
            nxt = fraction_curve_value(fractions, Fraction(closed + x, total))
            ratio = nxt / now if now > 0 else Fraction(1)
            want.append(repr(fraction_nevc_two_outcome(post, ratio, ACT, timecost, x, t_now)))
        assert list(map(repr, source.nevc_at(config, total, closed, got, t_now))) == want
