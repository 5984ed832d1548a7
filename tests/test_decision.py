"""Decision layer: utilities, thresholds, and lookahead value against oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import first_open_pmf, fraction_survival, nevc_one, one_chunk, one_lookahead
from proverb.belief import AnalyticModel, ModelError
from proverb.decision import (
    CostKind,
    DominanceError,
    LookaheadError,
    TimeCost,
    UtilityModel,
    UtilitySpecError,
    ZERO_COST,
    best_action,
    format_utility_spec,
    nevc_multi,
    parse_utility_spec,
    threshold,
)

ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})


def oracle_nevc(p, remaining, open_dist, utilities, timecost, x):
    """Independent lookahead value by full placement enumeration.

    Policy: examine up to x paths; an open path proves the negation and the
    best disproof action is taken on the spot; otherwise act at the end under
    the drifted posterior.  Baseline: act immediately, at time 0.
    """
    p = Fraction(p)

    def at(base, t):
        if timecost.kind is CostKind.DEADLINE and t > timecost.deadline_at:
            return Fraction(timecost.penalty)
        if timecost.kind is CostKind.LINEAR:
            return Fraction(base) - Fraction(timecost.rate) * Fraction(t)
        return Fraction(base)

    def act_value(belief, t):
        return max(
            belief * at(wt, t) + (1 - belief) * at(wf, t)
            for wt, wf in zip(utilities.when_true, utilities.when_false)
        )

    t_end = float(Fraction(timecost.tau) * x)
    # Survival mass after x examinations, mixed over the open-count model.
    survival = Fraction(0)
    halt_terms = []  # (probability, time-of-halt) under not-w
    for o, weight in open_dist.items():
        placements = list(itertools.combinations(range(remaining), o))
        w_each = Fraction(weight) / len(placements)
        for c in placements:
            j = min(c) + 1
            if j <= x:
                halt_terms.append((w_each, float(Fraction(timecost.tau) * j)))
            else:
                survival += w_each
    drifted = p / (p + survival * (1 - p)) if survival > 0 or p > 0 else p
    max_false = max(utilities.when_false)

    value = p * act_value(drifted, t_end)
    value += (1 - p) * survival * act_value(drifted, t_end)
    value += (1 - p) * sum(w * at(max_false, t) for w, t in halt_terms)
    return float(value - act_value(p, 0.0))


# --- action choice --------------------------------------------------------------


def test_best_action_worked_values():
    assert best_action(0.68, ACT) == ("act_w", pytest.approx(0.68))
    assert best_action(0.32, ACT) == ("act_not_w", pytest.approx(0.68))
    with pytest.raises(ValueError):
        best_action(1.2, ACT)


def test_best_action_with_linear_cost():
    cost = TimeCost.linear(0.1)
    assert best_action(0.6, ACT, cost, t=2.0) == ("act_w", pytest.approx(0.4))
    with pytest.raises(ValueError, match="t must be >= 0"):
        best_action(0.6, ACT, cost, t=-1.0)


def test_best_action_tie_takes_lowest_index():
    action, _ = best_action(0.5, ACT)
    assert action == "act_w"


def test_best_action_under_deadline_collapse():
    cost = TimeCost.deadline(at=1.0, penalty=-5.0)
    action, eu = best_action(0.9, ACT, cost, t=2.0)
    assert action == "act_w"  # all actions collapse; tie at lowest index
    assert eu == pytest.approx(-5.0)


# --- threshold ----------------------------------------------------------------


def test_threshold_worked_values():
    assert threshold(ACT) == pytest.approx(0.5)
    lopsided = UtilityModel.from_pairs({"go": (100.0, -50.0), "stay": (0.0, 0.0)})
    assert threshold(lopsided) == pytest.approx(Fraction(50, 150))


def test_threshold_orientation_errors():
    dominant = UtilityModel.from_pairs({"a": (1.0, 1.0), "b": (0.0, 0.0)})
    with pytest.raises(DominanceError):
        threshold(dominant)
    three = UtilityModel.from_pairs(
        {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (0.5, 0.5)}
    )
    with pytest.raises(ValueError):
        threshold(three)


def test_threshold_equivalence_property():
    rng = random.Random(60601)
    for _ in range(300):
        u1w = rng.uniform(-5, 5)
        u2f = rng.uniform(-5, 5)
        # Force the orientation: action 1 wins under w, action 2 under not-w.
        u2w = u1w - rng.uniform(0.1, 4)
        u1f = u2f - rng.uniform(0.1, 4)
        model = UtilityModel.from_pairs({"one": (u1w, u1f), "two": (u2w, u2f)})
        p_star = threshold(model)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0, rng.random()):
            if abs(p - p_star) < 1e-9:
                continue
            expected = "one" if p > p_star else "two"
            assert best_action(p, model)[0] == expected


def test_threshold_tie_goes_to_first_action():
    assert best_action(0.5, ACT)[0] == ACT.actions[0]
    lopsided = UtilityModel.from_pairs({"go": (2.0, -1.0), "stay": (0.0, 0.0)})
    assert threshold(lopsided) == pytest.approx(1 / 3)
    assert best_action(1 / 3, lopsided)[0] == "go"


# --- utility model -------------------------------------------------------------


def test_utility_model_validation():
    with pytest.raises(ValueError):
        UtilityModel(("only",), (1.0,), (0.0,))
    with pytest.raises(ValueError):
        UtilityModel(("a", "a"), (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        UtilityModel(("a", "b"), (1.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        UtilityModel(("a", "b"), (math.inf, 0.0), (0.0, 1.0))
    # Every utility finite, but their differences are not: the expected
    # utility at posterior 0 would be 0 * inf = nan.
    with pytest.raises(ValueError, match="utilities must span less than float's range"):
        UtilityModel(("a", "b"), (1e308, -1e308), (-1e308, 1e308))
    wide = UtilityModel(("a", "b"), (8e307, -8e307), (-8e307, 8e307))
    assert best_action(0.0, wide) == ("b", 8e307)


# --- one-step lookahead ----------------------------------------------------------


def test_nevc_one_worked_value():
    assert nevc_one(0.5, 2, ((1, 1),), ACT) == pytest.approx(0.25)


def test_nevc_one_nonnegative_under_zero_cost():
    rng = random.Random(40)
    for _ in range(400):
        remaining = rng.randint(1, 50)
        open_count = rng.randint(1, remaining)
        p = rng.random()
        assert nevc_one(p, remaining, ((open_count, 1),), ACT) >= -1e-12


def test_nevc_one_certainty_is_pure_delay():
    assert nevc_one(0.0, 5, ((1, 1),), ACT) == 0.0
    assert nevc_one(1.0, 5, ((1, 1),), ACT) == 0.0
    assert nevc_one(0.5, 0, ((1, 1),), ACT) == 0.0
    cost = TimeCost.linear(0.25)
    assert nevc_one(1.0, 5, ((1, 1),), ACT, cost) == pytest.approx(-0.25)


def test_nevc_one_matches_enumeration_oracle():
    rng = random.Random(41)
    for _ in range(100):
        remaining = rng.randint(1, 6)
        open_count = rng.randint(1, remaining)
        p = Fraction(rng.randint(1, 9), 10)
        cost = rng.choice([ZERO_COST, TimeCost.linear(0.05), TimeCost.deadline(3.0, -2.0)])
        got = nevc_one(p, remaining, ((open_count, 1),), ACT, cost)
        want = oracle_nevc(p, remaining, {open_count: 1}, ACT, cost, 1)
        assert got == pytest.approx(want, abs=1e-12)


# --- multi-step lookahead ---------------------------------------------------------


def test_nevc_multi_x1_equals_nevc_one():
    rng = random.Random(42)
    for _ in range(200):
        remaining = rng.randint(1, 30)
        open_count = rng.randint(1, remaining)
        p = rng.random()
        cost = rng.choice(
            [ZERO_COST, TimeCost.linear(0.1), TimeCost.deadline(10.0, -1.0)]
        )
        beliefs = (p, remaining, ((open_count, 1),))
        assert one_lookahead(*beliefs, ACT, cost, 1) == pytest.approx(
            nevc_one(*beliefs, ACT, cost), abs=1e-12
        )


def test_nevc_multi_full_lookahead_is_value_of_perfect_information():
    assert one_lookahead(0.5, 2, ((1, 1),), ACT, lookahead=2) == pytest.approx(0.5)


def test_nevc_multi_matches_enumeration_oracle():
    rng = random.Random(43)
    costs = [ZERO_COST, TimeCost.linear(0.05), TimeCost.deadline(2.5, -1.5)]
    for remaining in range(1, 6):
        for open_count in range(1, remaining + 1):
            for x in range(1, remaining + 1):
                p = Fraction(rng.randint(1, 9), 10)
                cost = costs[(remaining + open_count + x) % 3]
                got = one_lookahead(p, remaining, ((open_count, 1),), ACT, cost, x)
                want = oracle_nevc(p, remaining, {open_count: 1}, ACT, cost, x)
                assert got == pytest.approx(want, abs=1e-12)


def test_nevc_multi_mixture_matches_enumeration_oracle():
    dist = {1: Fraction(1, 2), 3: Fraction(1, 2)}
    for x in range(1, 5):
        got = one_lookahead(Fraction(2, 5), 5, tuple(dist.items()), ACT, ZERO_COST, x)
        want = oracle_nevc(Fraction(2, 5), 5, dist, ACT, ZERO_COST, x)
        assert got == pytest.approx(want, abs=1e-12)


def test_nevc_multi_against_pmf_literal_sum():
    # Closed-form halt branch == literal sum over first-open positions.
    p, remaining, open_count, x = Fraction(1, 3), 40, 3, 17
    rate = 0.01
    cost = TimeCost.linear(rate)
    got = one_lookahead(p, remaining, ((open_count, 1),), ACT, cost, x)
    halt = sum(
        first_open_pmf(remaining, open_count, j) * Fraction(1 - rate * j)
        for j in range(1, x + 1)
    )
    mass = 1 - fraction_survival(remaining, open_count, x)
    survival = fraction_survival(remaining, open_count, x)
    drifted = p / (p + survival * (1 - p))
    act_after = max(drifted, 1 - drifted) - Fraction(rate) * x
    act_now = max(p, 1 - p)
    want = float((1 - p) * halt + (1 - (1 - p) * mass) * act_after - act_now)
    assert got == pytest.approx(want, abs=1e-12)


def test_nevc_multi_nonnegative_under_zero_cost_grid():
    for remaining in (1, 2, 5, 17, 64):
        for open_count in (1, 2, remaining):
            if open_count > remaining:
                continue
            for x in (1, remaining // 2 or 1, remaining):
                for p in (0.01, 0.3, 0.5, 0.97):
                    dist = ((open_count, 1),)
                    value = one_lookahead(p, remaining, dist, ACT, ZERO_COST, x)
                    assert value >= -1e-12


def test_nevc_multi_lookahead_validation():
    with pytest.raises(LookaheadError):
        one_lookahead(0.5, 3, ((1, 1),), ACT, lookahead=0)
    with pytest.raises(LookaheadError):
        one_lookahead(0.5, 3, ((1, 1),), ACT, lookahead=4)
    with pytest.raises(ValueError):
        one_lookahead(1.5, 3, ((1, 1),), ACT)
    with pytest.raises(ValueError):
        one_lookahead(-0.1, 3, ((1, 1),), ACT)
    # All four paths open, yet one searched path closed: no count survives.
    with pytest.raises(ModelError, match="no open count fits the 3 remaining paths"):
        nevc_multi(0.5, AnalyticModel(4, 4), 1, ACT, ZERO_COST, (1,))
    # At certainty the remaining-paths cap does not apply: pure delay value.
    assert one_lookahead(1.0, 3, ((1, 1),), ACT, lookahead=9) == 0.0


def test_nevc_multi_deadline_forces_negative_value():
    cost = TimeCost.deadline(at=0.5, penalty=0.0)
    value = one_lookahead(0.5, 2, ((1, 1),), ACT, cost, 1)
    assert value == pytest.approx(-0.5)


def test_nevc_grows_with_lookahead_under_zero_cost():
    values = [one_lookahead(0.4, 20, ((2, 1),), ACT, ZERO_COST, x) for x in range(1, 21)]
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 1e-12


@pytest.mark.parametrize("tau", [1.0, 0.01, 3.7])
@pytest.mark.parametrize(
    "open_paths", [2, {1: Fraction(1, 2), 3: Fraction(1, 4), 9: Fraction(1, 4)}]
)
def test_zero_cost_prices_as_the_linear_cost_at_rate_0(tau, open_paths):
    # One loop prices both, bit for bit; a zero cost built with a rate
    # ignores it.
    model = AnalyticModel(27, open_paths)
    bet = UtilityModel.from_pairs({"bet": (1.0, -0.25), "hedge": (0.3, 0.5)})
    costs = TimeCost.zero(tau), TimeCost.linear(0.0, tau), TimeCost(CostKind.ZERO, 0.3, tau=tau)
    for utilities in (ACT, bet):
        for searched in (0, 5):
            lookaheads = tuple(range(1, model.total - searched + 1))
            for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
                zero, linear, ignored = (
                    repr(nevc_multi(p, model, searched, utilities, cost, lookaheads))
                    for cost in costs
                )
                assert zero == linear == ignored


# --- two-outcome chunk value ------------------------------------------------------


def test_nevc_two_outcome_matches_analytic_single_chunk():
    # With survival ratio taken from the analytic urn, one chunk of size x
    # valued at its end equals the analytic lookahead when all halt times
    # price identically (zero cost).
    p, remaining, open_count, x = 0.5, 8, 2, 3
    ratio = fraction_survival(remaining, open_count, x)
    got = one_chunk(p, ratio, ACT, ZERO_COST, paths=x)
    want = one_lookahead(p, remaining, ((open_count, 1),), ACT, ZERO_COST, x)
    assert got == pytest.approx(want, abs=1e-12)


def test_nevc_two_outcome_prices_halt_at_chunk_end():
    cost = TimeCost.linear(0.1)
    value = one_chunk(0.5, Fraction(1, 2), ACT, cost, paths=4)
    # Halt branch pays the full 4-path delay even if the find lands earlier.
    p_halt = 0.5 * 0.5
    drifted = 0.5 / (0.5 + 0.5 * 0.5)
    want = p_halt * (1 - 0.4) + (1 - p_halt) * (max(drifted, 1 - drifted) - 0.4) - 0.5
    assert value == pytest.approx(want)


def test_nevc_two_outcome_validation():
    with pytest.raises(LookaheadError):
        one_chunk(0.5, Fraction(1, 2), ACT, paths=0)
    with pytest.raises(ValueError):
        one_chunk(1.5, Fraction(1, 2), ACT)
    with pytest.raises(ValueError):
        one_chunk(0.5, Fraction(3, 2), ACT)
    assert one_chunk(1.0, Fraction(1, 2), ACT) == 0.0


# --- certainty convention ----------------------------------------------------------


def test_certainty_value_is_negative_cost_of_waiting():
    cost = TimeCost.linear(0.2)
    value = one_lookahead(0.0, 4, ((1, 1),), ACT, cost, 3)
    assert value == pytest.approx(-0.6)
    late = TimeCost.deadline(at=1.0, penalty=-3.0)
    value = one_lookahead(1.0, 4, ((1, 1),), ACT, late, 3)
    assert value == pytest.approx(-3.0 - 1.0)  # collapse replaces the win


# --- spec strings -------------------------------------------------------------------


def test_utility_spec_round_trip():
    for cost in (ZERO_COST, TimeCost.linear(0.01), TimeCost.deadline(9.0, -2.0, tau=0.5)):
        text = format_utility_spec(ACT, cost)
        utilities, parsed_cost = parse_utility_spec(text)
        assert utilities == ACT
        assert parsed_cost == cost
        assert format_utility_spec(utilities, parsed_cost) == text


def test_utility_spec_worked_example():
    utilities, cost = parse_utility_spec(
        "actions=go,stay; u(go,w)=2; u(go,~w)=-1; u(stay,w)=0; u(stay,~w)=0; "
        "cost=deadline:5:-1; tau=0.25"
    )
    assert utilities.actions == ("go", "stay")
    assert utilities.when_true == (2.0, 0.0)
    assert utilities.when_false == (-1.0, 0.0)
    assert cost.kind is CostKind.DEADLINE
    assert (cost.deadline_at, cost.penalty, cost.tau) == (5.0, -1.0, 0.25)


def test_utility_spec_defaults_to_zero_cost():
    _, cost = parse_utility_spec(
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1"
    )
    assert cost == ZERO_COST


@pytest.mark.parametrize(
    "text",
    [
        "",  # nothing
        "actions=a; u(a,w)=1; u(a,~w)=0",  # one action
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0",  # missing entry
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; u(c,w)=0",  # stray
        "actions=a,b; u(a,w)=x; u(a,~w)=0; u(b,w)=0; u(b,~w)=1",  # bad number
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=weird",  # kind
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=linear",  # rate
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; tau=0",  # tau
        "actions=a,a; u(a,w)=1; u(a,~w)=0",  # duplicate names
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; hue=3",  # unknown key
        # Costs and tau that are not finite.
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=linear:nan",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=linear:inf",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=deadline:nan:1",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=deadline:inf:0",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=deadline:1:-inf",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; tau=inf",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; tau=nan",
        # A key given twice, spaces inside it not counting.
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; u(a, w)=5",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; tau=1; tau=2",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=zero; cost=linear:0.5",
        "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; actions=b,a",
    ],
)
def test_utility_spec_rejects_malformed(text):
    with pytest.raises(UtilitySpecError):
        parse_utility_spec(text)


# --- time cost ----------------------------------------------------------------------


def test_timecost_validation():
    with pytest.raises(ValueError):
        TimeCost(tau=0.0)
    with pytest.raises(ValueError):
        TimeCost.linear(-0.1)
    with pytest.raises(ValueError):
        TimeCost.deadline(-1.0, 0.0)
    for name, value in [
        ("rate", math.nan),
        ("rate", math.inf),
        ("deadline_at", math.nan),
        ("deadline_at", math.inf),
        ("penalty", -math.inf),
        ("tau", math.inf),
        ("tau", math.nan),
    ]:
        for kind in CostKind:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TimeCost(kind, **{name: value})
    # Model time is never negative.
    for cost in (ZERO_COST, TimeCost.linear(0.1), TimeCost.deadline(1.0, -1.0)):
        with pytest.raises(ValueError, match="t must be >= 0"):
            cost.utility_at(1.0, -0.5)


def test_timecost_schedules():
    cost = TimeCost.linear(0.5, tau=2.0)
    assert cost.utility_at(10.0, 4.0) == 8.0
    # At certainty search only delays: 3 paths from 1 searched end at t = 8,
    # and waiting 6 time units at rate 0.5 costs 3.
    assert nevc_multi(1.0, AnalyticModel(6, 1), 1, ACT, cost, (3,)) == (-3.0,)
    assert one_chunk(1.0, Fraction(1, 2), ACT, cost, 3, searched=1) == -3.0
    assert ZERO_COST.utility_at(10.0, 4.0) == 10.0
    late = TimeCost.deadline(at=3.0, penalty=-7.0)
    assert late.utility_at(10.0, 3.0) == 10.0
    assert late.utility_at(10.0, 3.5) == -7.0
    # Paths that still finish in time: time_of(searched + j) <= deadline, at
    # most limit.
    assert late.paths_in_time(0, 10) == 3
    assert late.paths_in_time(2, 10) == 1
    assert late.paths_in_time(0, 2) == 2
    assert late.paths_in_time(4, 10) == 0
    assert cost.paths_in_time(10**9, 10) == 10
    # Exact: 3 * 0.1 rounds once to 0.30000000000000004, above 0.3, so only
    # two paths fit.
    assert TimeCost.deadline(at=0.3, penalty=0.0, tau=0.1).paths_in_time(0, 5) == 2
    # One rounding, where float arithmetic would round twice.
    assert TimeCost(tau=0.1).time_of(3) == 0.30000000000000004
    assert TimeCost(tau=1.0).time_of(2**53 + 1) == 2.0**53
    assert (2**53 + 1) * 0.1 == 900719925474099.2
    assert TimeCost(tau=0.1).time_of(2**53 + 1) == 900719925474099.4
