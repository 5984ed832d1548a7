"""Random clause-matrix corpora with a portable, documented RNG.

Reproducibility contract: the generator is built on SplitMix64 (Steele,
Lea & Flood's 64-bit mix generator), implemented here in ~20 lines of pure
integer arithmetic so corpora are bit-identical across platforms and Python
versions.  Uniform integers below ``n`` are drawn by bitmask rejection
(exactly uniform); negation is one low bit per literal.

Draw order per instance, and therefore the stream layout, is fixed: clauses
in order; within a clause, each literal draws symbols by rejection until one
not already in the clause appears, then draws the negation coin.  Instance
``i`` of a corpus uses the derived seed ``mix64(seed + (i+1)*GAMMA)`` so any
single instance can be regenerated without replaying the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dimacs import format_dimacs
from .matrix import Clause, Literal, Matrix

__all__ = [
    "SplitMix64",
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


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-ratio increment."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by bitmask rejection (exactly uniform)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            value = self.next_u64() & mask
            if value < n:
                return value

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)


def instance_seed(seed: int, index: int) -> int:
    """Derived per-instance seed: mix64(seed + (index+1) * GAMMA) mod 2^64."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK64)


class ConfigError(ValueError):
    """Unsatisfiable generator configuration."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of one random instance: clause count, clause width, alphabet, seed."""

    n_clauses: int
    lits_per_clause: int
    alphabet_size: int
    seed: int

    def __post_init__(self) -> None:
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
    rng = SplitMix64(config.seed)
    clauses: list[Clause] = []
    for _ in range(config.n_clauses):
        used: set[int] = set()
        lits: list[Literal] = []
        for _ in range(config.lits_per_clause):
            symbol = rng.below(config.alphabet_size)
            while symbol in used:
                symbol = rng.below(config.alphabet_size)
            used.add(symbol)
            lits.append(Literal(symbol, rng.coin()))
        clauses.append(tuple(lits))
    return Matrix(tuple(clauses), config.alphabet_size)


def generate_corpus(config: GeneratorConfig, count: int) -> list[Matrix]:
    """``count`` independent instances, seeded per instance via instance_seed."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    from dataclasses import replace

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
