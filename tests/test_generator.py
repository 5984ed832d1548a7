"""Instance generator: portability, determinism, and distributional checks."""

import re
import tracemalloc

import pytest

from oracles import SplitMix64
from proverb.dimacs import read_dimacs
from proverb.generator import (
    ConfigError,
    GeneratorConfig,
    generate,
    generate_corpus,
    instance_seed,
    write_corpus,
)


def test_splitmix_reference_stream():
    # Known-answer values for seed 0: published reference outputs.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_below_is_unbiased_rejection():
    rng = SplitMix64(123)
    draws = [rng.below(6) for _ in range(6000)]
    assert set(draws) <= set(range(6))
    for face in range(6):
        assert draws.count(face) > 800  # ~1000 expected


def test_splitmix_coin_balance():
    rng = SplitMix64(99)
    heads = sum(rng.coin() for _ in range(10000))
    assert abs(heads / 10000 - 0.5) < 0.02


def test_instance_seed_spreads_indices():
    seeds = {instance_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert instance_seed(7, 0) == instance_seed(7, 0)
    assert instance_seed(7, 0) != instance_seed(8, 0)
    with pytest.raises(ValueError, match="index must be >= 0"):
        instance_seed(1, -1)


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(0, 1, 1, 0)
    with pytest.raises(ConfigError):
        GeneratorConfig(1, 0, 1, 0)
    with pytest.raises(ConfigError):
        GeneratorConfig(1, 2, 1, 0)  # more literals than symbols


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_clauses", True),
        ("n_clauses", 3.0),
        ("lits_per_clause", "2"),
        ("alphabet_size", None),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_a_field_that_is_not_an_int_is_refused(field, value):
    shape = dict(n_clauses=3, lits_per_clause=2, alphabet_size=3, seed=1)
    error = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        GeneratorConfig(**{**shape, field: value})


def test_generated_shape_and_distinct_symbols():
    config = GeneratorConfig(20, 3, 5, seed=1)
    m = generate(config)
    assert m.n_clauses == 20
    assert m.alphabet_size == 5
    for clause in m.clauses:
        assert len(clause) == 3
        symbols = [lit.symbol_id for lit in clause]
        assert len(set(symbols)) == 3
        assert all(0 <= s < 5 for s in symbols)


def test_full_width_clause_is_a_permutation():
    m = generate(GeneratorConfig(30, 4, 4, seed=6))
    for clause in m.clauses:
        assert sorted(lit.symbol_id for lit in clause) == [0, 1, 2, 3]


def test_generation_is_deterministic():
    config = GeneratorConfig(15, 3, 6, seed=512)
    assert generate(config) == generate(config)


def test_an_instance_shares_one_literal_per_signed_symbol():
    m = generate(GeneratorConfig(40, 3, 4, seed=9))
    assert len({id(lit) for clause in m.clauses for lit in clause}) <= 2 * 4


def test_a_held_corpus_stays_small():
    # 640 instances of 42 literals over 3 symbols; with one object per
    # literal drawn the corpus holds about 1.9 MB, with shared ones 0.8 MB.
    config = GeneratorConfig(14, 3, 3, seed=11)
    generate_corpus(config, 1)  # first-call set-up is not the corpus
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = generate_corpus(config, 640)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == 640
    assert held < 1_200_000


def test_negation_rate_is_about_half():
    m = generate(GeneratorConfig(4000, 3, 8, seed=20))
    lits = [lit for clause in m.clauses for lit in clause]
    rate = sum(lit.negated for lit in lits) / len(lits)
    assert abs(rate - 0.5) < 0.02


def test_corpus_instances_differ_and_are_stable():
    config = GeneratorConfig(10, 2, 5, seed=88)
    corpus = generate_corpus(config, 10)
    assert len(corpus) == 10
    assert len({m.clauses for m in corpus}) > 1
    assert corpus == generate_corpus(config, 10)
    # A longer corpus starts with the same instances.
    assert generate_corpus(config, 12)[:10] == corpus


def test_corpus_filenames(tmp_path):
    config = GeneratorConfig(3, 1, 2, seed=5)
    paths = write_corpus(config, 2, tmp_path, prefix="run")
    assert [p.name for p in paths] == ["run_0.cnf", "run_1.cnf"]


def test_write_corpus_round_trips_with_provenance(tmp_path):
    config = GeneratorConfig(7, 2, 4, seed=314)
    paths = write_corpus(config, 3, tmp_path)
    assert [p.name for p in paths] == ["matrix_0.cnf", "matrix_1.cnf", "matrix_2.cnf"]
    corpus = generate_corpus(config, 3)
    for i, path in enumerate(paths):
        matrix, meta = read_dimacs(path)
        assert matrix == corpus[i]
        assert meta["n_clauses"] == "7"
        assert meta["lits_per_clause"] == "2"
        assert meta["alphabet_size"] == "4"
        assert meta["seed"] == "314"
        assert meta["index"] == str(i)
        assert int(meta["instance_seed"]) == instance_seed(314, i)


def test_write_corpus_bytes_are_reproducible(tmp_path):
    config = GeneratorConfig(5, 2, 3, seed=161)
    first = write_corpus(config, 2, tmp_path / "a")
    second = write_corpus(config, 2, tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
