"""Budgeted open-path proving with value-of-computation stopping.

The package splits into three layers, and its modules are the API: import
each name from the module that declares it in ``__all__``, e.g.
``from proverb.controller import run``.  ``matrix``/``dimacs``/``generator``
hold the object language: clause matrices, exhaustive path search with an
explicit budget, and a portable random-instance generator.  ``heuristics``
reorders clauses before search.  ``belief`` and ``profiles`` turn partial
search into a posterior over entailment, either from a counting model or
from survival statistics collected on a corpus.  ``decision`` and
``controller`` put a price on further search and stop the prover when
expected value runs out.  ``cli`` is the command-line front end.
"""

__version__ = "0.1.0"
