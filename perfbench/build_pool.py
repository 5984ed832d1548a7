"""Rebuild ``pool.json``, the stored instance pool of the ``profile`` workload.

    python3 perfbench/build_pool.py

The pool lists the first ``POOL_SIZE`` instances of the family (20 clauses,
3 literals, 4 symbols) under the base seed, each with its search cost: the
closure events that a full search takes without and with the presort
heuristic.  The costs only sort instances into strata, so that every
workload seed draws a corpus of the same make-up (see README.md); the
instances themselves are regenerated from their index at run time, and every
output is checked against the benchmark's own oracles, never against this
file.  A full rebuild takes about two minutes.
"""

from __future__ import annotations

import json
import sys

from common import BENCH_DIR, require_program

FAMILY = (20, 3, 4)
BASE_SEED = 2013
POOL_SIZE = 1200
POOL_PATH = BENCH_DIR / "pool.json"


def build() -> dict:
    require_program()
    from proverb.generator import GeneratorConfig, generate_corpus
    from proverb.heuristics import presort
    from proverb.matrix import solve

    corpus = generate_corpus(GeneratorConfig(*FAMILY, BASE_SEED), POOL_SIZE)
    costs = [[solve(m).closure_count, solve(presort(m)).closure_count] for m in corpus]
    return {"family": list(FAMILY), "base_seed": BASE_SEED, "costs": costs}


def main() -> int:
    pool = build()
    POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    print(f"wrote {len(pool['costs'])} instance costs to {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
