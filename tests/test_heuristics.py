"""Clause-literal presorting: safety, idempotence, and the intended bias."""

import random

import pytest

from oracles import brute_force_sat
from proverb.generator import GeneratorConfig, generate
from proverb.heuristics import Heuristic, presort
from proverb.matrix import (
    Literal,
    Matrix,
    SearchStatus,
    literals,
    solve,
)


def test_worked_reordering():
    # In clause 2, ~x0 has one complement above (x0) while x1 has none,
    # so ~x0 moves first.
    m = Matrix((literals(0, 1), literals(1, (0, True))), 2)
    sorted_m = presort(m)
    assert sorted_m.clauses[0] == literals(0, 1)
    assert sorted_m.clauses[1] == literals((0, True), 1)


def test_first_clause_keeps_its_order():
    m = Matrix((literals(2, 0, 1),), 3)
    assert presort(m).clauses[0] == literals(2, 0, 1)


def test_sort_is_stable_for_tied_scores():
    m = Matrix((literals(0), literals(1, 2), literals(3, 4)), 5)
    assert presort(m) == m  # all scores zero: nothing moves


def test_idempotent():
    rng = random.Random(404)
    for _ in range(50):
        m = generate(GeneratorConfig(rng.randint(2, 12), 3, 6, seed=rng.randint(0, 9999)))
        once = presort(m)
        assert presort(once) == once


def test_preserves_clause_multisets_and_shape():
    m = generate(GeneratorConfig(15, 3, 5, seed=3333))
    sorted_m = presort(m)
    assert sorted_m.alphabet_size == m.alphabet_size
    assert sorted_m.n_clauses == m.n_clauses
    for before, after in zip(m.clauses, sorted_m.clauses):
        assert sorted(map(str, before)) == sorted(map(str, after))


def test_preserves_proof_outcome():
    rng = random.Random(808)
    for _ in range(60):
        m = generate(
            GeneratorConfig(
                rng.randint(2, 10), rng.choice([2, 3]), rng.randint(3, 6),
                seed=rng.randint(0, 99999),
            )
        )
        plain = solve(m).status
        sorted_status = solve(presort(m)).status
        assert plain == sorted_status
        assert (plain is SearchStatus.OPEN_FOUND) == brute_force_sat(m)


def test_counts_come_from_preceding_clauses_only():
    # x0 in clause 1 scores 0 even though ~x0 appears later.
    m = Matrix((literals(1, 0), literals((0, True), 1)), 2)
    sorted_m = presort(m)
    assert sorted_m.clauses[0] == literals(1, 0)


def test_heuristic_enum_dispatch():
    m = generate(GeneratorConfig(8, 2, 4, seed=11))
    assert Heuristic.NONE.apply(m) == m
    assert Heuristic.PRESORT.apply(m) == presort(m)
    assert Heuristic("presort") is Heuristic.PRESORT
    with pytest.raises(ValueError):
        Heuristic("fancy")


def test_empty_and_unit_clauses_pass_through():
    m = Matrix((literals(0), (), literals((0, True), 1)), 2)
    sorted_m = presort(m)
    assert sorted_m.clauses[0] == literals(0)
    assert sorted_m.clauses[1] == ()
    assert sorted_m.clauses[2] == literals((0, True), 1)


def test_duplicate_complements_weigh_more():
    # ~x1 sees two complements above; ~x0 sees one: ~x1 sorts first.
    m = Matrix(
        (literals(0, 1), literals(1, 2), literals((0, True), (1, True))),
        3,
    )
    sorted_m = presort(m)
    assert sorted_m.clauses[2] == literals((1, True), (0, True))


def test_presort_tends_to_close_earlier():
    # Not a guarantee per instance, only the design intent on average.
    rng = random.Random(1234)
    plain_closures = 0
    sorted_closures = 0
    for _ in range(120):
        m = generate(
            GeneratorConfig(12, 3, 4, seed=rng.randint(0, 10**6))
        )
        plain_closures += solve(m).closure_count
        sorted_closures += solve(presort(m)).closure_count
    assert sorted_closures <= plain_closures * 1.05
