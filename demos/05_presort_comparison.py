"""Does literal presorting speed up discovery?  Paired family comparison.

Presorting reorders the literals inside each clause so that the ones with
more complements in earlier clauses are tried first.  It never changes a
verdict (same paths, different visiting order), so both profiles share one
prior; only the survival curve can shift.
"""

from fractions import Fraction

from proverb.generator import GeneratorConfig, generate_corpus
from proverb.heuristics import Heuristic
from proverb.profiles import collect


def main():
    config = GeneratorConfig(n_clauses=14, lits_per_clause=3, alphabet_size=4, seed=99)
    corpus = generate_corpus(config, 150)

    plain = collect(corpus, Heuristic.NONE)
    sorted_ = collect(corpus, Heuristic.PRESORT)

    print(f"family: ({config.n_clauses}, {config.lits_per_clause}, "
          f"{config.alphabet_size}), {len(corpus)} instances")
    assert plain.prior == sorted_.prior
    print(f"shared prior: {float(plain.prior):.4f} "
          "(reordering cannot change a verdict)\n")

    def closure_total(profile):
        return sum(r.closure_count for r in profile.records)

    print(f"closure events, plain:    {closure_total(plain):7d}")
    print(f"closure events, presort:  {closure_total(sorted_):7d}\n")

    def mean_discovery(profile):
        found = [r.discovery_fraction for r in profile.records if r.satisfiable]
        return float(sum(found) / len(found))

    print(f"mean discovery fraction, plain:   {mean_discovery(plain):.6f}")
    print(f"mean discovery fraction, presort: {mean_discovery(sorted_):.6f}\n")

    print("survival side by side (s, plain, presort):")
    for pct in (1, 2, 5, 10, 20):
        s = Fraction(pct, 100)
        print(f"  s={float(s):4.2f}   {float(plain.curve.value(s)):8.6f}   "
              f"{float(sorted_.curve.value(s)):8.6f}")

    print("\nnote: profiles are heuristic-specific; a run that presorts its")
    print("matrix must consult the presort profile, and the context tags")
    print("embedded in each profile enforce exactly that.")


if __name__ == "__main__":
    main()
