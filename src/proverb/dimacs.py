"""DIMACS CNF reading and writing.

The accepted dialect: optional ``c`` comment lines, one ``p cnf <symbols>
<clauses>`` header, then clauses as whitespace-separated nonzero integers
each terminated by ``0`` (clauses may span lines).  Positive integer ``i``
denotes symbol ``i - 1``; a negative integer denotes that symbol negated.

Comment tokens of the form ``key=value`` are collected into a metadata
mapping; the generator stamps instance provenance (config fields, seed,
index) this way and the CLI reads it back to cross-check profiles against
instances.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .matrix import Clause, Literal, Matrix

__all__ = ["DimacsError", "parse_dimacs", "read_dimacs", "format_dimacs"]


class DimacsError(ValueError):
    """Malformed DIMACS input."""


def parse_dimacs(text: str) -> tuple[Matrix, dict[str, str]]:
    """Parse DIMACS text into (matrix, metadata-from-comments)."""
    meta: dict[str, str] = {}
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[Literal] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            for tok in line[1:].split():
                if "=" in tok:
                    key, _, value = tok.partition("=")
                    meta[key] = value
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                n_symbols, n_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer header field") from exc
            if n_symbols < 0 or n_clauses < 0:
                raise DimacsError(f"line {lineno}: negative header field")
            header = (n_symbols, n_clauses)
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause data before header")
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from exc
            if value == 0:
                clauses.append(tuple(pending))
                pending = []
                continue
            symbol = abs(value) - 1
            if symbol >= header[0]:
                raise DimacsError(
                    f"line {lineno}: literal {value} outside declared alphabet"
                )
            pending.append(Literal(symbol, value < 0))

    if header is None:
        raise DimacsError("no 'p cnf' header found")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != header[1]:
        raise DimacsError(
            f"header declares {header[1]} clauses, found {len(clauses)}"
        )
    return Matrix(tuple(clauses), header[0]), meta


def read_dimacs(path: str | Path) -> tuple[Matrix, dict[str, str]]:
    return parse_dimacs(Path(path).read_text())


def format_dimacs(matrix: Matrix, metadata: Mapping[str, object] | None = None) -> str:
    """Render a matrix as DIMACS text (deterministic bytes, LF line ends)."""
    lines = []
    if metadata:
        lines.append("c " + " ".join(f"{k}={v}" for k, v in metadata.items()))
    lines.append(f"p cnf {matrix.alphabet_size} {matrix.n_clauses}")
    for cl in matrix.clauses:
        ints = [(-1 if lit.negated else 1) * (lit.symbol_id + 1) for lit in cl]
        lines.append(" ".join(str(v) for v in ints + [0]))
    return "\n".join(lines) + "\n"

