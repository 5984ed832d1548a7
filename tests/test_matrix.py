"""Path search against independent enumeration and truth-table oracles."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from oracles import OracleLimitError, brute_force_sat, reference_closures
from proverb.dimacs import parse_dimacs
from proverb.generator import GeneratorConfig, generate
from proverb.matrix import (
    InvalidStateError,
    Literal,
    Matrix,
    SearchState,
    SearchStatus,
    fraction_explored,
    literals,
    solve,
    step_search,
    total_paths,
)


def path_is_closed(path):
    """Oracle: a path is closed iff it holds a complementary literal pair."""
    seen = set()
    for lit in path:
        if (lit.symbol_id, not lit.negated) in seen:
            return True
        seen.add((lit.symbol_id, lit.negated))
    return False


def enumerate_paths(matrix):
    return itertools.product(*matrix.clauses)


def count_open_paths(matrix):
    return sum(1 for p in enumerate_paths(matrix) if not path_is_closed(p))


def naive_sat(matrix):
    """Oracle: truth-table satisfiability, written independently of the library."""
    for bits in itertools.product([False, True], repeat=matrix.alphabet_size):
        if all(
            any(bits[l.symbol_id] != l.negated for l in clause)
            for clause in matrix.clauses
        ):
            return True
    return False


# --- construction ----------------------------------------------------------


def test_literal_basics():
    a = Literal(0)
    assert str(a) == "x0"
    assert str(Literal(0, True)) == "~x0"
    with pytest.raises(ValueError):
        Literal(-1)


def test_literals_builder():
    clause = literals(0, (1, True), 2)
    assert clause == (Literal(0), Literal(1, True), Literal(2))


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix((literals(3),), 3)  # symbol 3 needs alphabet >= 4
    with pytest.raises(ValueError):
        Matrix((), -1)
    with pytest.raises(TypeError, match="not a Literal: 1"):
        Matrix(((Literal(0), 1),), 2)
    m = Matrix([literals(0), literals(1)], 2)
    assert isinstance(m.clauses, tuple)
    assert m.n_clauses == 2


def test_total_paths_is_clause_length_product():
    m = Matrix((literals(0, 1), literals(0, 1, 2), literals(2)), 3)
    assert total_paths(m) == 6
    assert total_paths(Matrix((), 0)) == 1  # no clauses: the empty path
    assert total_paths(Matrix((literals(0), ()), 1)) == 0  # empty clause


# --- worked examples -------------------------------------------------------


def test_single_symbol_contradiction_exhausts():
    m = Matrix((literals(0), literals((0, True))), 1)
    state = solve(m)
    assert state.status is SearchStatus.EXHAUSTED
    assert (state.closed, state.total) == (1, 1)
    assert not naive_sat(m)


def test_open_path_is_a_satisfying_certificate():
    m = Matrix((literals(0, 1), literals((0, True), 1)), 2)
    state = solve(m)
    assert state.status is SearchStatus.OPEN_FOUND
    assert state.witness == (Literal(0), Literal(1))
    assert not path_is_closed(state.witness)
    assert naive_sat(m)


def test_fraction_after_first_closure_of_nine_paths():
    # 3x3 literal grid: the first path closes at clause 2, pruning one of 9.
    m = Matrix(
        (literals(0, 1, 2), literals((0, True), 3, 4)),
        5,
    )
    state = SearchState(m)
    step_search(state, 1)
    assert state.total == 9
    assert (state.closed, state.closure_count) == (1, 1)
    assert next(reference_closures(m)) == (2, 1)
    assert fraction_explored(state) == Fraction(1, 9)


def test_empty_matrix_is_open():
    state = solve(Matrix((), 0))
    assert state.status is SearchStatus.OPEN_FOUND
    assert state.witness == ()


def test_empty_clause_has_no_paths():
    state = solve(Matrix((literals(0), ()), 1))
    assert state.status is SearchStatus.EXHAUSTED
    assert state.total == 0
    with pytest.raises(ValueError):
        fraction_explored(state)


def test_duplicate_literal_clause_counts_both_branches():
    m = Matrix((literals(0, 0), literals((0, True),)), 1)
    state = solve(m)
    assert state.total == 2
    assert state.status is SearchStatus.EXHAUSTED
    assert state.closed == 2


def test_tautological_clause_keeps_paths_open():
    # x0 | ~x0 cannot be closed by itself.
    m = Matrix((literals(0, (0, True)),), 1)
    state = solve(m)
    assert state.status is SearchStatus.OPEN_FOUND


# --- stepping, budgets, closures -------------------------------------------


def test_step_budget_validation():
    state = SearchState(Matrix((literals(0, 1),), 2))
    with pytest.raises(ValueError):
        step_search(state, 0)
    with pytest.raises(ValueError, match="event_cap must be >= 1 when given"):
        step_search(state, 1, event_cap=0)


@pytest.mark.parametrize(
    "budget, event_cap, error",
    [
        (True, None, "budget must be an integer, got True"),
        (2.5, None, "budget must be an integer, got 2.5"),
        (1, True, "event_cap must be an integer when given, got True"),
        (1, 2.5, "event_cap must be an integer when given, got 2.5"),
    ],
)
def test_a_budget_or_cap_that_is_not_an_int_is_refused(budget, event_cap, error):
    state = SearchState(generate(GeneratorConfig(8, 2, 3, seed=21)))
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        step_search(state, budget, event_cap=event_cap)
    assert (state.closed, state.closure_count) == (0, 0)


def test_stepping_terminal_state_raises():
    state = solve(Matrix((literals(0),), 1))
    with pytest.raises(InvalidStateError):
        step_search(state, 1)


def test_single_closure_may_overshoot_budget():
    # First branch closes at clause 2 and prunes a 3^5 tail in one closure.
    clauses = [literals(0, 1, 2), literals((0, True), 1, 2)]
    clauses += [literals(3, 4, 5)] * 5
    m = Matrix(clauses, 6)
    state = SearchState(m)
    step_search(state, 5)
    assert state.closure_count == 1
    assert state.closed == 3**5
    assert state.status is SearchStatus.RUNNING


def test_event_cap_pauses_before_budget():
    m = Matrix((literals(0), literals((0, True), 1), literals((1, True), 2)), 3)
    state = SearchState(m)
    step_search(state, state.total, event_cap=1)
    assert state.closure_count == 1
    assert state.closed < state.total
    assert state.status is SearchStatus.RUNNING


def test_cumulative_closed_matches_running_total():
    config = GeneratorConfig(8, 2, 4, seed=1905)
    m = generate(config)
    reference = [pruned for _clause, pruned in reference_closures(m)]
    running_total = list(itertools.accumulate(reference, initial=0))
    state = SearchState(m)
    while state.status is SearchStatus.RUNNING:
        step_search(state, 3)
        assert state.closed == running_total[state.closure_count]
    assert state.closure_count == len(reference)


# --- conservation and oracle equivalence ------------------------------------


def random_matrix(rng, n_clauses, max_lits, alphabet):
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, max_lits)
        clauses.append(
            tuple(
                Literal(rng.randrange(alphabet), rng.random() < 0.5)
                for _ in range(width)
            )
        )
    return Matrix(tuple(clauses), alphabet)


def test_closure_conservation_on_random_matrices():
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), 3, rng.randint(1, 5))
        state = SearchState(m)
        while state.status is SearchStatus.RUNNING:
            before = state.closed
            step_search(state, 7)
            assert state.closed - before >= 7 or state.status is not SearchStatus.RUNNING
        reference = [pruned for _clause, pruned in reference_closures(m)]
        assert state.closure_count == len(reference)
        assert state.closed == sum(reference)
        if state.status is SearchStatus.EXHAUSTED:
            assert state.closed == state.total
        else:
            assert state.closed < state.total


def deep_unsat_state():
    """An unsatisfiable search paused after its first closure.

    Clauses (x0 | x1), ~x0, ~x1, then seven of width 3: 2 * 3**7 paths, and
    each of the walk's two closures prunes 3**7 of them.
    """
    wide = literals(2, 3, 4)
    m = Matrix((literals(0, 1), literals((0, True)), literals((1, True))) + (wide,) * 7, 5)
    state = SearchState(m)
    step_search(state, 1)
    assert (state.status, state.closed, state.total) == (SearchStatus.RUNNING, 3**7, 2 * 3**7)
    return state


def test_tally_past_the_space_breaks_conservation():
    # The last closure takes the tally 3**7 - 1 past the space: a pause must
    # not report it as RUNNING.
    state = deep_unsat_state()
    state.closed = state.total - 1
    with pytest.raises(AssertionError, match="conservation"):
        step_search(state, 1)


def test_tally_short_of_the_space_breaks_conservation():
    # The walk gets back to the root with 3**7 paths unaccounted for.
    state = deep_unsat_state()
    state.closed = 0
    with pytest.raises(AssertionError, match="conservation"):
        step_search(state, state.total)


def test_search_memory_follows_the_symbols_used():
    # The header declares a million symbols; the one clause uses one.
    matrix, _meta = parse_dimacs("p cnf 1000000 1\n1 0\n")
    tracemalloc.start()
    try:
        state = SearchState(matrix)
        step_search(state, 1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.status is SearchStatus.OPEN_FOUND
    assert peak < 64 * 1024


def test_exhaustion_agrees_with_path_enumeration():
    rng = random.Random(2718)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), 3, rng.randint(1, 4))
        state = solve(m)
        open_count = count_open_paths(m)
        if state.status is SearchStatus.EXHAUSTED:
            assert open_count == 0
        else:
            assert open_count > 0
            assert not path_is_closed(state.witness)


def test_exhaustion_agrees_with_truth_tables():
    rng = random.Random(31415)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 7), 3, rng.randint(1, 5))
        state = solve(m)
        assert (state.status is SearchStatus.OPEN_FOUND) == naive_sat(m)


def test_brute_force_oracle_matches_search():
    config = GeneratorConfig(10, 2, 6, seed=42)
    for i in range(50):
        m = generate(GeneratorConfig(10, 2, 6, seed=42 + i))
        state = solve(m)
        assert (state.status is SearchStatus.OPEN_FOUND) == brute_force_sat(m)


def test_brute_force_refuses_large_alphabets():
    m = Matrix((literals(20),), 21)
    with pytest.raises(OracleLimitError):
        brute_force_sat(m)
    assert brute_force_sat(m, limit=21) is True


def test_brute_force_edge_cases():
    assert brute_force_sat(Matrix((), 0)) is True
    assert brute_force_sat(Matrix((literals(0), ()), 1)) is False


def test_search_is_deterministic_under_any_budget_split():
    m = generate(GeneratorConfig(9, 2, 4, seed=77))
    reference = [pruned for _clause, pruned in reference_closures(m)]
    running_total = list(itertools.accumulate(reference, initial=0))

    def run(budget):
        state = SearchState(m)
        while state.status is SearchStatus.RUNNING:
            step_search(state, budget)
            assert state.closed == running_total[state.closure_count]
        return state.status, state.closed, state.closure_count, state.witness

    whole = run(total_paths(m))
    assert whole[2] == len(reference)
    for budget in (1, 2, 5, 13):
        assert run(budget) == whole


def test_witness_signs_satisfy_every_clause():
    # The open path assigns each symbol the polarity it carries on the path.
    rng = random.Random(99)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), 3, rng.randint(1, 5))
        state = solve(m)
        if state.status is not SearchStatus.OPEN_FOUND:
            continue
        assignment = {}
        for lit in state.witness:
            assert assignment.setdefault(lit.symbol_id, not lit.negated) == (
                not lit.negated
            )
        for clause, lit in zip(m.clauses, state.witness):
            assert lit in clause


def test_max_closures_cap_leaves_state_running():
    m = Matrix((literals(0), literals((0, True), 1), literals((1, True), 2)), 3)
    full = solve(m)
    assert full.closure_count >= 2
    for cap in (1, 0):
        capped = solve(m, max_closures=cap)
        assert capped.status is SearchStatus.RUNNING
        assert capped.closure_count == cap


def test_negative_max_closures_is_refused():
    m = Matrix((literals(0), literals((0, True), 1), literals((1, True), 2)), 3)
    with pytest.raises(ValueError, match="max_closures must be >= 0 when given, got -1"):
        solve(m, max_closures=-1)


def test_total_paths_matches_math_prod():
    m = generate(GeneratorConfig(12, 3, 5, seed=5))
    assert total_paths(m) == math.prod(len(c) for c in m.clauses) == 3**12


# --- path spaces beyond 2**64 -------------------------------------------------


def test_unsatisfiable_space_beyond_64_bits_is_counted_exactly():
    # x0 then ~x0 closes at depth 2 and prunes all 3**45 paths at once.
    tail = [literals(1, 2, 3)] * 45
    m = Matrix((literals(0), literals((0, True)), *tail), 4)
    assert total_paths(m) == 3**45 > 2**64
    state = SearchState(m)
    step_search(state, 1)
    assert state.status is SearchStatus.EXHAUSTED
    assert state.closed == state.total == 3**45
    assert state.closure_count == 1
    assert fraction_explored(state) == 1

    # Six closures of 3**45 paths each: a budget of one closure's worth,
    # or one path less, pauses after every closure.
    m = Matrix((literals(0, 0), literals(*[(0, True)] * 3), *tail), 4)
    assert total_paths(m) == 6 * 3**45
    for budget in (3**45, 3**45 - 1):
        state = SearchState(m)
        for k in range(1, 7):
            step_search(state, budget)
            assert state.closure_count == k
            assert state.closed == k * 3**45
            assert fraction_explored(state) == Fraction(k, 6)
            assert state.status is (
                SearchStatus.EXHAUSTED if k == 6 else SearchStatus.RUNNING
            )
    state = SearchState(m)
    step_search(state, 2 * 3**45 + 1)
    assert (state.closure_count, state.closed) == (3, 3 * 3**45)
    step_search(state, 2 * 3**45 + 1)
    assert (state.closure_count, state.closed) == (6, 6 * 3**45)
    assert state.status is SearchStatus.EXHAUSTED


def test_satisfiable_space_beyond_64_bits_finds_its_last_path():
    # x0 then (~x0 | x1), then 45 clauses (~x1 | ~x0 | x_k): at every depth the
    # first literals close, so the only open path is the last one.
    clauses = [literals(0), literals((0, True), 1)]
    clauses += [literals((1, True), (0, True), k) for k in range(2, 47)]
    m = Matrix(tuple(clauses), 47)
    total = 2 * 3**45
    assert total_paths(m) == total > 2**64
    reference = [pruned for _clause, pruned in reference_closures(m)]
    running_total = list(itertools.accumulate(reference, initial=0))
    assert len(reference) == 91
    for budget in (1, 3**43, 3**45, total):
        state = SearchState(m)
        while state.status is SearchStatus.RUNNING:
            step_search(state, budget)
            assert state.closed == running_total[state.closure_count]
        assert state.status is SearchStatus.OPEN_FOUND
        assert state.closure_count == 91
        assert state.closed == total - 1
        assert fraction_explored(state) == Fraction(total - 1, total)
        assert state.witness == literals(*range(47))
        assert not path_is_closed(state.witness)
        for clause, lit in zip(m.clauses, state.witness):
            assert lit in clause
