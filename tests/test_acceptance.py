"""Acceptance suite: ten end-to-end checks, one summary line each.

Each test prints ``ACCEPTANCE n (<name>): PASS|FAIL`` into the terminal
summary (see conftest).  The corpus fixtures are module-scoped so the
heavier criteria share one generation pass.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import criterion
from oracles import brute_force_sat, first_open_pmf, nevc_one, one_lookahead, reference_closures
from proverb.belief import AnalyticModel, posterior
from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    ProfileSource,
    StopReason,
    load_trace,
    replay,
    run,
    save_trace,
)
from proverb.decision import (
    TimeCost,
    UtilityModel,
    ZERO_COST,
    best_action,
    threshold,
)
from proverb.generator import GeneratorConfig, generate, generate_corpus
from proverb.heuristics import presort
from proverb.matrix import (
    SearchState,
    SearchStatus,
    solve,
    step_search,
)
from proverb.profiles import collect, load, save

ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})

CORPUS_MIX = [
    ((20, 3, 4), 150),
    ((15, 3, 5), 100),
    ((16, 2, 4), 100),
    ((25, 2, 6), 50),
    ((8, 3, 10), 50),
    ((9, 3, 12), 50),
]


@pytest.fixture(scope="module")
def mixed_corpus():
    corpus = []
    for (n_clauses, lits, alphabet), count in CORPUS_MIX:
        corpus.extend(
            generate_corpus(
                GeneratorConfig(n_clauses, lits, alphabet, seed=20260819), count
            )
        )
    assert len(corpus) == 500
    return corpus


@pytest.fixture(scope="module")
def mixed_verdicts(mixed_corpus):
    return [solve(m).status is SearchStatus.OPEN_FOUND for m in mixed_corpus]


def test_criterion_01_search_matches_truth_table_oracle(mixed_corpus, mixed_verdicts):
    with criterion(1, "search agrees with the truth-table oracle on 500 matrices"):
        started = time.perf_counter()
        verdicts = [
            solve(m).status is SearchStatus.OPEN_FOUND for m in mixed_corpus
        ]
        oracle = [brute_force_sat(m) for m in mixed_corpus]
        elapsed = time.perf_counter() - started
        assert verdicts == oracle == mixed_verdicts
        assert sum(oracle) not in (0, 500)  # both verdicts represented
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_worked_posterior_values():
    with criterion(2, "posterior updates reproduce the worked values to 1e-4"):
        assert abs(float(Fraction(*posterior(Fraction(3, 10), Fraction(1, 5)))) - 0.6818) < 1e-4
        assert abs(float(Fraction(*posterior(Fraction(3, 10), Fraction(2, 25)))) - 0.8427) < 1e-4
        assert Fraction(*posterior(Fraction(3, 10), Fraction(1, 5))) == Fraction(15, 22)
        assert Fraction(*posterior(Fraction(3, 10), Fraction(2, 25))) == Fraction(75, 89)


def test_criterion_03_survival_closed_forms():
    with criterion(3, "survival closed form equals the product form; pmf sums to 1"):
        for total in range(1, 31):
            for open_count in range(1, total + 1):
                model = AnalyticModel(total, open_count)
                for searched in range(total + 1):
                    product = Fraction(1)
                    for i in range(searched):
                        product *= 1 - Fraction(open_count, total - i)
                    assert Fraction(*model.survival(searched)) == product
        for remaining in range(1, 21):
            for open_count in range(1, remaining + 1):
                support = range(1, remaining - open_count + 2)
                assert (
                    sum(first_open_pmf(remaining, open_count, j) for j in support) == 1
                )


def test_criterion_04_closure_conservation(mixed_corpus):
    with criterion(4, "every pruned path is accounted for exactly once"):
        for matrix in mixed_corpus:
            tails = {}
            lengths = [len(c) for c in matrix.clauses]
            for idx in range(1, len(lengths) + 1):
                tails[idx] = math.prod(lengths[idx:])
            reference = reference_closures(matrix)
            taken = reference_closed = 0
            state = SearchState(matrix)
            budget = max(1, state.total // 7)
            while state.status is SearchStatus.RUNNING:
                step_search(state, budget)
                # The kernel's tally at every pause is the reference walk's
                # prefix sum over the closures taken so far.
                closures = itertools.islice(reference, state.closure_count - taken)
                for clause_index, pruned in closures:
                    assert pruned == tails[clause_index]
                    reference_closed += pruned
                taken = state.closure_count
                assert state.closed == reference_closed
            assert next(reference, None) is None
            if state.status is SearchStatus.EXHAUSTED:
                assert state.closed == state.total
            else:
                assert state.closed < state.total


def test_criterion_05_profile_prior_band():
    with criterion(5, "the 20x3x4 family prior lands inside [0.20, 0.45]"):
        started = time.perf_counter()
        corpus = generate_corpus(GeneratorConfig(20, 3, 4, seed=104729), 300)
        profile = collect(corpus)
        elapsed = time.perf_counter() - started
        assert len(profile.records) == 300
        assert Fraction(1, 5) <= profile.prior <= Fraction(9, 20), profile.prior
        assert elapsed < 600.0, f"collection took {elapsed:.1f}s"


def test_criterion_06_threshold_equivalence():
    with criterion(6, "argmax action choice equals the threshold rule"):
        rng = random.Random(65537)
        for _ in range(1000):
            u1w = rng.uniform(-10, 10)
            u2f = rng.uniform(-10, 10)
            u2w = u1w - rng.uniform(0.05, 8)
            u1f = u2f - rng.uniform(0.05, 8)
            model = UtilityModel.from_pairs({"one": (u1w, u1f), "two": (u2w, u2f)})
            p_star = threshold(model)
            for k in range(21):
                p = k / 20
                best = best_action(p, model)[0]
                if p > p_star + 1e-12:
                    assert best == "one"
                elif p < p_star - 1e-12:
                    assert best == "two"
                else:
                    assert best == "one"  # exact tie resolves to the first action


def oracle_lookahead_value(p, remaining, open_count, utilities, timecost, x):
    """Placement-enumeration value of 'search x paths, act on what you learn'."""
    p = Fraction(p)

    def utility(base, t):
        if timecost.kind.value == "deadline" and t > timecost.deadline_at:
            return Fraction(timecost.penalty)
        if timecost.kind.value == "linear":
            return Fraction(base) - Fraction(timecost.rate) * Fraction(t)
        return Fraction(base)

    def act(belief, t):
        return max(
            belief * utility(wt, t) + (1 - belief) * utility(wf, t)
            for wt, wf in zip(utilities.when_true, utilities.when_false)
        )

    placements = list(itertools.combinations(range(remaining), open_count))
    survivors = sum(1 for c in placements if min(c) + 1 > x)
    survival = Fraction(survivors, len(placements))
    drifted = p / (p + survival * (1 - p))
    t_end = x * timecost.tau
    max_false = max(utilities.when_false)
    value = p * act(drifted, t_end)
    value += (1 - p) * survival * act(drifted, t_end)
    for c in placements:
        j = min(c) + 1
        if j <= x:
            value += (
                (1 - p)
                * Fraction(1, len(placements))
                * utility(max_false, j * timecost.tau)
            )
    return float(value - act(p, 0.0))


def test_criterion_07_lookahead_value():
    with criterion(7, "free lookahead is never harmful and matches enumeration"):
        rng = random.Random(271828)
        for _ in range(600):
            remaining = rng.randint(1, 40)
            open_count = rng.randint(1, remaining)
            p = rng.uniform(0.01, 0.99)
            assert nevc_one(p, remaining, ((open_count, 1),), ACT) >= -1e-12
        costs = [ZERO_COST, TimeCost.linear(0.04), TimeCost.deadline(3.0, -1.0)]
        for remaining in range(1, 6):
            for open_count in range(1, remaining + 1):
                for x in range(1, remaining + 1):
                    for timecost in costs:
                        p = Fraction(rng.randint(1, 19), 20)
                        dist = ((open_count, 1),)
                        got = one_lookahead(p, remaining, dist, ACT, timecost, x)
                        want = oracle_lookahead_value(
                            p, remaining, open_count, ACT, timecost, x
                        )
                        assert got == pytest.approx(want, abs=1e-12)


def test_criterion_08_cost_pressure_stops_earlier():
    with criterion(8, "stop fraction falls as the linear rate rises; deadline 0 stops at once"):
        matrix = generate(GeneratorConfig(10, 2, 4, seed=5))
        assert solve(matrix).status is SearchStatus.EXHAUSTED
        total = SearchState(matrix).total
        fractions = []
        for rate in (0.0, 0.01, 0.1, 1.0):
            config = ControllerConfig(
                chunk=4,
                utilities=ACT,
                timecost=TimeCost.linear(rate, tau=1 / total),
                source=AnalyticSource(Fraction(1, 2), 1),
                lookaheads=(4, "full"),
            )
            trace = run(matrix, config)
            if rate == 0.0:
                assert trace.stop_reason is StopReason.PROOF_OF_W
            fractions.append(
                trace.steps[-1].fraction if trace.steps else Fraction(0)
            )
        for cheap, dear in zip(fractions, fractions[1:]):
            assert dear <= cheap
        assert fractions[-1] < fractions[0]

        forced = run(
            matrix,
            ControllerConfig(
                chunk=4,
                utilities=ACT,
                timecost=TimeCost.deadline(at=0.0, penalty=-1.0),
                source=AnalyticSource(Fraction(1, 2), 1),
            ),
        )
        assert forced.stop_reason is StopReason.DEADLINE_FORCED
        assert len(forced.steps) == 1
        assert forced.steps[0].nevc == ()
        assert forced.final_elapsed == 0.0


def test_criterion_09_presort_is_safe(mixed_corpus, mixed_verdicts):
    with criterion(9, "presorting never changes a verdict and is idempotent"):
        for matrix, verdict in zip(mixed_corpus, mixed_verdicts):
            sorted_m = presort(matrix)
            assert presort(sorted_m) == sorted_m
            for before, after in zip(matrix.clauses, sorted_m.clauses):
                assert sorted(map(str, before)) == sorted(map(str, after))
            assert (
                solve(sorted_m).status is SearchStatus.OPEN_FOUND
            ) == verdict


def test_criterion_10_persistence_round_trips(tmp_path):
    with criterion(10, "profiles and traces survive save, load, and replay"):
        corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=7), 40)
        profile = collect(corpus)
        profile_path = tmp_path / "profile.json"
        save(profile, profile_path)
        assert load(profile_path) == profile

        cost = TimeCost.linear(0.0004)
        sources = [
            AnalyticSource(Fraction(1, 2), 1),
            ProfileSource(profile),
        ]
        run_corpus = generate_corpus(GeneratorConfig(7, 2, 4, seed=33), 20)
        for i, matrix in enumerate(run_corpus):
            source = sources[i % 2]
            config = ControllerConfig(
                chunk=16,
                utilities=ACT,
                timecost=cost,
                source=source,
                lookaheads=(16, "full"),
            )
            trace = run(matrix, config)
            path = tmp_path / f"trace_{i}.jsonl"
            save_trace(trace, path)
            loaded = load_trace(path)
            assert loaded == trace
            report = replay(
                loaded,
                utilities=ACT,
                timecost=cost,
                profile=profile if isinstance(source, ProfileSource) else None,
                analytic=source if isinstance(source, AnalyticSource) else None,
            )
            assert report.ok and report.kind == "clean", report.message
