"""Survival/posterior math against enumeration and product-form oracles."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from oracles import (
    first_open_cdf,
    first_open_mean_within,
    first_open_pmf,
    fraction_curve_value,
    fraction_survival,
)
from proverb.belief import (
    AnalyticModel,
    ContextTag,
    ModelError,
    SurvivalCurve,
    context_mismatches,
    open_dist,
    posterior,
)


def survival_product_form(total, open_count, searched):
    """Oracle: literal product prod_{i<searched} (1 - O/(M-i))."""
    value = Fraction(1)
    for i in range(searched):
        value *= 1 - Fraction(open_count, total - i)
    return value


def survival_by_placement(total, open_count, searched):
    """Oracle: enumerate open-path placements; count those missing the prefix."""
    placements = list(itertools.combinations(range(total), open_count))
    safe = sum(1 for p in placements if min(p) >= searched)
    return Fraction(safe, len(placements))


def pmf_by_placement(total, open_count, j):
    """Oracle: p(first open position is j), 1-based, by enumeration."""
    placements = list(itertools.combinations(range(total), open_count))
    hits = sum(1 for p in placements if min(p) == j - 1)
    return Fraction(hits, len(placements))


# --- posterior updating ------------------------------------------------------


def test_posterior_worked_values():
    assert Fraction(*posterior(Fraction(3, 10), Fraction(1, 5))) == Fraction(15, 22)
    assert abs(float(Fraction(*posterior(0.3, 0.2))) - 0.681818) < 1e-4
    assert Fraction(*posterior(Fraction(3, 10), Fraction(2, 25))) == Fraction(75, 89)
    assert abs(float(Fraction(*posterior(0.3, 0.08))) - 0.842697) < 1e-4


def test_posterior_monotone_in_survival():
    values = [float(Fraction(*posterior(Fraction(3, 10), Fraction(k, 10)))) for k in range(10, -1, -1)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.3)  # no evidence yet
    assert values[-1] == 1.0  # survival 0: only w explains it


def test_posterior_extremes_are_absorbing():
    assert Fraction(*posterior(Fraction(0), Fraction(1, 2))) == 0
    assert Fraction(*posterior(Fraction(1), Fraction(1, 2))) == 1


def test_posterior_range_checks():
    with pytest.raises(ValueError):
        posterior(1.5, 1)
    with pytest.raises(ValueError):
        posterior(0.5, -0.1)
    with pytest.raises(ValueError):
        posterior(0.5, 1.5)


def test_prior_zero_posterior_is_zero():
    # Even survival that not-w rules out (0) leaves an impossible claim at 0.
    for survival in (0, Fraction(1, 10**9), Fraction(1, 2), 1):
        assert Fraction(*posterior(Fraction(0), survival)) == 0
    assert Fraction(*posterior(0, 0)) == 0


# --- analytic survival -------------------------------------------------------


def test_survival_single_open_worked_value():
    # One open path among four, two searched: half the placements survive.
    assert Fraction(*AnalyticModel(4, 1).survival(2)) == Fraction(1, 2)


def test_survival_closed_form_equals_product_form():
    for total in range(1, 31):
        for open_count in range(1, total + 1):
            model = AnalyticModel(total, open_count)
            for searched in range(0, total + 1):
                assert Fraction(*model.survival(searched)) == (
                    survival_product_form(total, open_count, searched)
                )


def test_survival_matches_placement_enumeration():
    for total in range(1, 9):
        for open_count in range(1, total + 1):
            model = AnalyticModel(total, open_count)
            for searched in range(0, total):
                assert Fraction(*model.survival(searched)) == (
                    survival_by_placement(total, open_count, searched)
                )


def test_survival_pigeonhole_zero():
    assert Fraction(*AnalyticModel(10, 3).survival(8)) == 0
    assert Fraction(*AnalyticModel(10, 3).survival(7)) > 0


def test_survival_validation():
    with pytest.raises(ModelError):
        AnalyticModel(5, 0)
    with pytest.raises(ModelError):
        AnalyticModel(5, 6)
    with pytest.raises(ValueError):
        AnalyticModel(5, 1).survival(-1)


def test_survival_handles_huge_path_spaces():
    total = 3**40
    value = Fraction(*AnalyticModel(total, 2).survival(total // 2))
    assert 0 < value < 1
    assert abs(float(value) - 0.25) < 1e-6


def test_survival_mixture_worked_value():
    dist = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert Fraction(*AnalyticModel(4, dist).survival(2)) == Fraction(1, 3)


def test_mixture_validation():
    with pytest.raises(ModelError):
        AnalyticModel(4, {}).survival(1)
    with pytest.raises(ModelError):
        AnalyticModel(4, {0: Fraction(1)}).survival(1)
    with pytest.raises(ModelError):
        AnalyticModel(4, {5: Fraction(1)}).survival(1)
    with pytest.raises(ModelError):
        AnalyticModel(4, {1: Fraction(1, 2)}).survival(1)  # sums to 1/2
    with pytest.raises(ModelError, match="must be >= 0"):
        AnalyticModel(4, {1: Fraction(3, 2), 2: Fraction(-1, 2)})
    with pytest.raises(ModelError, match="sums to 0.9, not 1"):
        AnalyticModel(4, {1: 0.5, 2: 0.4})  # float weights, beyond FLOAT_TOL
    assert Fraction(*AnalyticModel(4, {1: 0.5, 2: 0.5}).survival(2)) == pytest.approx(1 / 3)


def test_float_weights_are_normalized_exactly():
    # 0.9 + 0.1 is not exactly 1 at the floats' exact values; survival must
    # still start at 1 and stay the exactly normalized mixture.
    weights = {1: 0.9, 2: 0.1}
    model = AnalyticModel(100, weights)
    assert Fraction(*model.survival(0)) == 1
    norm = sum(Fraction(w) for w in weights.values())
    for searched in (1, 37, 99, 100):
        want = sum(Fraction(w) * fraction_survival(100, o, searched) for o, w in weights.items())
        assert Fraction(*model.survival(searched)) == want / norm


def test_analytic_model_point_and_mixture_agree():
    point = AnalyticModel(6, 2)
    mixed = AnalyticModel(6, {2: Fraction(1)})
    for searched in range(7):
        assert Fraction(*point.survival(searched)) == Fraction(*mixed.survival(searched))


def test_analytic_model_conditional_shifts_toward_fewer_open():
    model = AnalyticModel(4, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    cond = model.conditional(2)
    assert cond == ((1, Fraction(3, 4)), (2, Fraction(1, 4)))
    assert sum(w for _, w in cond) == 1


def test_analytic_model_conditional_drops_ruled_out_counts():
    model = AnalyticModel(6, {1: Fraction(1, 2), 5: Fraction(1, 2)})
    # After 2 closed paths, 5 open of 6 is impossible: only the count 1 is left.
    assert model.conditional(2) == ((1, Fraction(1)),)
    assert model.conditional(1) == ((1, Fraction(5, 6)), (5, Fraction(1, 6)))


def test_analytic_model_conditional_after_impossible_survival():
    model = AnalyticModel(4, {3: Fraction(1, 2), 4: Fraction(1, 2)})
    # Surviving 2 paths with >= 3 of 4 open is impossible; the prior returns.
    assert model.conditional(2) == model.open_paths


def test_analytic_model_stores_one_sorted_distribution():
    assert AnalyticModel(6, 2).open_paths == ((2, Fraction(1)),)
    model = AnalyticModel(6, {5: Fraction(1, 3), 1: Fraction(2, 3)})
    assert model.open_paths == ((1, Fraction(2, 3)), (5, Fraction(1, 3)))
    assert AnalyticModel(6, 2).conditional(3) == ((2, Fraction(1)),)


def test_open_dist_reads_a_count_a_mapping_or_pairs():
    dist = ((1, Fraction(2, 3)), (5, Fraction(1, 3)))
    assert open_dist({5: Fraction(1, 3), 1: Fraction(2, 3)}) == dist
    assert open_dist(reversed(dist)) == dist
    assert open_dist(dist) == dist  # an OpenDist reads back as itself
    assert open_dist(2) == ((2, Fraction(1)),)
    # No space is known here: a count beyond one is the model's to refuse.
    assert open_dist(7) == ((7, Fraction(1)),)
    with pytest.raises(ModelError, match="open-path count 7 exceeds total paths 6"):
        AnalyticModel(6, 7)
    with pytest.raises(ModelError, match="open-path count '1' must be a positive integer"):
        open_dist({"1": Fraction(1)})
    with pytest.raises(ModelError, match="must be >= 0"):
        AnalyticModel(6, {1: math.nan, 2: 1.0})
    # Pairs may repeat a count, which a mapping cannot; keeping only the last
    # weight would pass this one as (3, 1/2), (4, 1/2).
    half = Fraction(1, 2)
    with pytest.raises(ModelError, match="^open-path count 3 given twice$"):
        open_dist(((3, half), (3, half), (4, half)))


def test_analytic_model_validation():
    with pytest.raises(ModelError):
        AnalyticModel(0, 1)
    with pytest.raises(ModelError):
        AnalyticModel(4, 5)
    with pytest.raises(ModelError):
        AnalyticModel(-1, 1)


# --- first-open distribution -------------------------------------------------


def test_first_open_pmf_uniform_single_open():
    assert [first_open_pmf(3, 1, j) for j in (1, 2, 3)] == [Fraction(1, 3)] * 3


def test_first_open_pmf_matches_enumeration():
    for total in range(1, 9):
        for open_count in range(1, total + 1):
            for j in range(1, total - open_count + 2):
                assert first_open_pmf(total, open_count, j) == (
                    pmf_by_placement(total, open_count, j)
                )


def test_first_open_pmf_sums_to_one():
    for remaining in range(1, 21):
        for open_count in range(1, remaining + 1):
            support = range(1, remaining - open_count + 2)
            assert sum(first_open_pmf(remaining, open_count, j) for j in support) == 1


def test_first_open_pmf_past_support_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        assert first_open_pmf(3, 2, 3) == 0


def test_first_open_pmf_validation():
    with pytest.raises(ModelError):
        first_open_pmf(3, 0, 1)
    with pytest.raises(ValueError):
        first_open_pmf(3, 1, 0)


def test_first_open_cdf_complements_survival():
    for within in range(0, 6):
        assert first_open_cdf(5, 2, within) == 1 - Fraction(*AnalyticModel(5, 2).survival(within))
    assert first_open_cdf(5, 2, 99) == 1  # clamped at the urn size


def test_first_open_mean_closed_form_equals_literal_sum():
    rng = random.Random(7)
    for _ in range(200):
        remaining = rng.randint(1, 40)
        open_count = rng.randint(1, remaining)
        within = rng.randint(0, remaining)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            literal = sum(
                j * first_open_pmf(remaining, open_count, j)
                for j in range(1, within + 1)
            )
        assert first_open_mean_within(remaining, open_count, within) == literal


def test_first_open_mean_full_support_is_expectation():
    # E[min of O uniform draws from 1..l without replacement] = (l+1)/(O+1).
    for l, o in [(10, 1), (10, 3), (7, 7), (12, 4)]:
        assert first_open_mean_within(l, o, l) == Fraction(l + 1, o + 1)


# --- survival curves ---------------------------------------------------------


def test_curve_counts_strictly_later_discoveries():
    curve = SurvivalCurve(
        [Fraction(1, 10), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5)]
    )
    assert curve.value(Fraction(0)) == 1
    assert curve.value(Fraction(3, 20)) == Fraction(3, 4)
    assert curve.value(Fraction(1, 5)) == Fraction(1, 4)  # ties drop at s
    assert curve.value(Fraction(3, 10)) == Fraction(1, 4)
    assert curve.value(Fraction(1, 2)) == 0
    assert curve.value(1) == 0
    # All four samples are kept, the tied pair included, in any input order.
    shuffled = SurvivalCurve(
        [Fraction(2, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 5)]
    )
    untied = SurvivalCurve([Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)])
    grid = range(11)  # closed counts of a 10-path space
    assert [shuffled.survivors(c, 10) for c in grid] == [curve.survivors(c, 10) for c in grid]
    assert [untied.survivors(c, 10) for c in grid] != [curve.survivors(c, 10) for c in grid]


def test_curve_value_zero_is_pinned_to_one():
    curve = SurvivalCurve([Fraction(0)])
    # A discovery logged at fraction 0 still cannot lower the s=0 value.
    assert curve.value(Fraction(0)) == 1
    assert curve.value(Fraction(1, 1000)) == 0


def test_empty_curve_is_uninformative():
    curve = SurvivalCurve([])
    for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert curve.value(s) == 1
    assert curve.survivors(1, 2) != SurvivalCurve([Fraction(1, 2)]).survivors(1, 2)


def test_curve_is_nonincreasing_and_right_continuous():
    rng = random.Random(12)
    samples = [Fraction(rng.randint(0, 99), 100) for _ in range(30)]
    curve = SurvivalCurve(samples)
    grid = [Fraction(k, 200) for k in range(201)]
    values = [curve.value(s) for s in grid]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier
    for s in sorted(set(samples)):
        if 0 < s < 1:  # s=0 is pinned to 1 by design, tested separately
            assert curve.value(s) == curve.value(s + Fraction(1, 10**9))


def test_curve_value_matches_the_fraction_bisect():
    rng = random.Random(3)
    samples = [Fraction(rng.randint(0, 59), 60) for _ in range(25)] + [Fraction(0)]
    curve = SurvivalCurve(samples)
    grid = [Fraction(k, d) for d in (7, 60, 97) for k in range(d + 1)]
    for s in grid + [0.25, 0.5, 1e-9, 1.0]:
        assert curve.value(s) == fraction_curve_value(samples, s)


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        SurvivalCurve([Fraction(1)])  # discovery at 1 impossible
    with pytest.raises(ValueError):
        SurvivalCurve([Fraction(-1, 2)])


def test_curve_value_range_check():
    curve = SurvivalCurve([Fraction(1, 2)])
    with pytest.raises(ValueError):
        curve.value(Fraction(3, 2))


def test_posterior_along_curve_never_decreases():
    rng = random.Random(5)
    samples = [Fraction(rng.randint(0, 49), 50) for _ in range(25)]
    curve = SurvivalCurve(samples)
    prior = Fraction(3, 10)
    posts = [
        Fraction(*posterior(prior, curve.value(Fraction(k, 100))))
        if curve.value(Fraction(k, 100)) > 0 or prior > 0
        else None
        for k in range(101)
    ]
    posts = [p for p in posts if p is not None]
    assert all(b >= a for a, b in zip(posts, posts[1:]))


# --- context tags ------------------------------------------------------------


def test_context_mismatch_reporting():
    a = ContextTag(n_clauses=20, lits_per_clause=3, alphabet_size=4)
    b = ContextTag(n_clauses=20, lits_per_clause=3, alphabet_size=5)
    assert context_mismatches(a, a) == []
    fields = context_mismatches(a, b)
    assert fields and "alphabet_size" in fields[0]


def test_context_none_fields_are_wildcards():
    a = ContextTag(n_clauses=20)
    b = ContextTag(n_clauses=20, lits_per_clause=3)
    assert context_mismatches(a, b) == []


def test_seed_and_count_do_not_trigger_mismatch():
    a = ContextTag(n_clauses=20, seed=1, count=100)
    b = ContextTag(n_clauses=20, seed=2, count=500)
    assert context_mismatches(a, b) == []
