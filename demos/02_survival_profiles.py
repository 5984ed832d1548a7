"""Collect a survival profile for one instance family.

Running many instances of the same random family to completion yields two
statistics: the fraction that were theorems (the prior), and for the rest,
how deep the search was when the countermodel turned up.  The latter becomes
the survival curve: p(search alive at fraction s | the claim is false).
"""

from fractions import Fraction

from proverb.generator import GeneratorConfig, generate_corpus
from proverb.profiles import collect, export_curve_csv


def main():
    config = GeneratorConfig(n_clauses=12, lits_per_clause=2, alphabet_size=4, seed=7)
    corpus = generate_corpus(config, 200)
    profile = collect(corpus)

    print(f"family: {config.n_clauses} clauses x {config.lits_per_clause} literals, "
          f"alphabet {config.alphabet_size}, seed {config.seed}")
    print(f"instances: {len(profile.records)}")
    print(f"prior p(w): {profile.prior} = {float(profile.prior):.4f}\n")

    found = sorted(
        r.discovery_fraction for r in profile.records if r.satisfiable
    )
    print(f"countermodels found: {len(found)}")
    print(f"  earliest discovery fraction: {float(found[0]):.6f}")
    print(f"  median   discovery fraction: {float(found[len(found) // 2]):.6f}")
    print(f"  latest   discovery fraction: {float(found[-1]):.6f}\n")

    print("survival curve samples (s, survival, posterior):")
    for pct in (0, 1, 2, 5, 10, 20, 50):
        s = Fraction(pct, 100)
        surv = profile.curve.value(s)
        num, den = profile.posterior_at(100, pct)
        print(f"  s={float(s):4.2f}  survival={float(surv):8.6f}  "
              f"posterior={num / den:8.6f}")

    print("\nfirst lines of the exportable table:")
    for line in export_curve_csv(profile).splitlines()[:4]:
        print("  " + line)


if __name__ == "__main__":
    main()
