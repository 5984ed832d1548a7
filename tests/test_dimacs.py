"""DIMACS reader/writer: round trips and strict rejection of malformed input."""

import pytest

from proverb.dimacs import (
    DimacsError,
    format_dimacs,
    parse_dimacs,
    read_dimacs,
)
from proverb.generator import GeneratorConfig, generate
from proverb.matrix import Literal, Matrix, literals


def test_parse_simple():
    matrix, meta = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert matrix.alphabet_size == 2
    assert matrix.clauses == (
        (Literal(0), Literal(1, True)),
        (Literal(1),),
    )
    assert meta == {}


def test_parse_collects_comment_metadata():
    text = "c seed=7 n_clauses=2 note\nc extra=yes\np cnf 1 1\n1 0\n"
    _, meta = parse_dimacs(text)
    assert meta == {"seed": "7", "n_clauses": "2", "extra": "yes"}


def test_clause_may_span_lines():
    matrix, _ = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert matrix.clauses == (literals(0, 1, 2),)


def test_empty_clause_parses():
    matrix, _ = parse_dimacs("p cnf 1 2\n0\n1 0\n")
    assert matrix.clauses[0] == ()


@pytest.mark.parametrize(
    "text",
    [
        "1 0\n",  # data before header
        "p cnf 1 1\np cnf 1 1\n1 0\n",  # duplicate header
        "p cnf x 1\n1 0\n",  # non-integer field
        "p cnf -1 1\n1 0\n",  # negative field
        "p dnf 1 1\n1 0\n",  # wrong format word
        "p cnf 1\n1 0\n",  # short header
        "p cnf 1 1\n2 0\n",  # literal outside alphabet
        "p cnf 1 1\n1\n",  # unterminated clause
        "p cnf 1 2\n1 0\n",  # clause count mismatch
        "p cnf 1 1\n1 a 0\n",  # bad token
        "",  # no header at all
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


def test_format_round_trip():
    m = Matrix((literals((0, True), 2), literals(1)), 3)
    text = format_dimacs(m, {"seed": 9, "index": 0})
    again, meta = parse_dimacs(text)
    assert again == m
    assert meta == {"seed": "9", "index": "0"}
    assert text == "c seed=9 index=0\np cnf 3 2\n-1 3 0\n2 0\n"


def test_file_round_trip(tmp_path):
    m = generate(GeneratorConfig(6, 3, 5, seed=2024))
    path = tmp_path / "m.cnf"
    path.write_bytes(format_dimacs(m, {"seed": 2024}).encode("ascii"))
    again, meta = read_dimacs(path)
    assert again == m
    assert meta["seed"] == "2024"


def test_format_is_byte_deterministic(tmp_path):
    m = generate(GeneratorConfig(5, 2, 4, seed=3))
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    a.write_bytes(format_dimacs(m, {"k": "v"}).encode("ascii"))
    b.write_bytes(format_dimacs(m, {"k": "v"}).encode("ascii"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
