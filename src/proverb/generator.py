"""Random clause-matrix corpora with a portable, documented RNG.

Reproducibility contract: corpora are bit-identical across platforms and
Python versions.  The stream is SplitMix64 (Steele, Lea & Flood's 64-bit mix
generator) in pure integer arithmetic, walked in one loop in ``generate``: a
local state advances by the golden-ratio increment, and each draw is one call
of ``_mix64``, the finalizer that ``instance_seed`` shares.  The stream as a
class, ``SplitMix64``, lives in ``tests/oracles.py`` as the reference that
``generate`` is checked against.  Integers below ``n`` are drawn by bitmask
rejection (exactly uniform); negation is one low bit per literal.

Draw order per instance, and so the stream layout, is fixed and unchanged:
clauses in order; within a clause, each literal draws symbols by rejection
until one not already in the clause appears, then draws the negation coin.
Instance ``i`` of a corpus uses the derived seed ``mix64(seed + (i+1)*GAMMA)``
so any single instance can be regenerated without replaying the corpus.
Within one instance equal literals are one object, from a table that lives
for one ``generate`` call: no cache outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dimacs import format_dimacs
from .matrix import Clause, Literal, Matrix

__all__ = [
    "GeneratorConfig",
    "ConfigError",
    "instance_seed",
    "generate",
    "generate_corpus",
    "write_corpus",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit mix."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def instance_seed(seed: int, index: int) -> int:
    """Derived per-instance seed: mix64(seed + (index+1) * GAMMA) mod 2^64."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK64)


class ConfigError(ValueError):
    """Unsatisfiable generator configuration."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of one random instance: clause count, clause width, alphabet, seed.

    Each field is an ``int`` (a bool is refused), else ``ConfigError``.
    """

    n_clauses: int
    lits_per_clause: int
    alphabet_size: int
    seed: int

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # a bool is no int
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.n_clauses < 1:
            raise ConfigError("n_clauses must be >= 1")
        if self.lits_per_clause < 1:
            raise ConfigError("lits_per_clause must be >= 1")
        if self.alphabet_size < 1:
            raise ConfigError("alphabet_size must be >= 1")
        if self.lits_per_clause > self.alphabet_size:
            raise ConfigError(
                f"cannot place {self.lits_per_clause} distinct symbols in an "
                f"alphabet of {self.alphabet_size}"
            )


def generate(config: GeneratorConfig) -> Matrix:
    """One random matrix: distinct symbols per clause, fair negation coin."""
    n = config.alphabet_size
    mask = (1 << (n - 1).bit_length()) - 1
    state = config.seed & _MASK64
    table: dict[int, Literal] = {}
    clauses: list[Clause] = []
    for _ in range(config.n_clauses):
        used: set[int] = set()
        lits: list[Literal] = []
        for _ in range(config.lits_per_clause):
            while True:
                state = (state + _GAMMA) & _MASK64
                symbol = _mix64(state) & mask
                if symbol < n and symbol not in used:
                    break
            used.add(symbol)
            state = (state + _GAMMA) & _MASK64
            key = symbol << 1 | _mix64(state) & 1
            lit = table.get(key)
            if lit is None:
                lit = table[key] = Literal(symbol, bool(key & 1))
            lits.append(lit)
        clauses.append(tuple(lits))
    return Matrix(tuple(clauses), n)


def generate_corpus(config: GeneratorConfig, count: int) -> list[Matrix]:
    """``count`` independent instances, seeded per instance via instance_seed."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    return [
        generate(replace(config, seed=instance_seed(config.seed, i)))
        for i in range(count)
    ]


def write_corpus(
    config: GeneratorConfig,
    count: int,
    directory: str | Path,
    prefix: str = "matrix",
) -> list[Path]:
    """Write a corpus as DIMACS files with provenance comments; returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, m in enumerate(generate_corpus(config, count)):
        meta = {
            "n_clauses": config.n_clauses,
            "lits_per_clause": config.lits_per_clause,
            "alphabet_size": config.alphabet_size,
            "seed": config.seed,
            "index": i,
            "instance_seed": instance_seed(config.seed, i),
        }
        path = directory / f"{prefix}_{i}.cnf"
        path.write_bytes(format_dimacs(m, meta).encode("ascii"))
        paths.append(path)
    return paths
