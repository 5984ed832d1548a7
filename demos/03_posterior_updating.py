"""Posterior on the claim as unrewarded search accumulates.

Two belief sources are compared on the same progression.  The analytic
source assumes the countermodel count among the remaining paths (an urn
model, exact hypergeometric survival).  The empirical source uses a
survival curve measured on a family of similar instances.  Both feed the
same one-line Bayes update: survival is the only evidence.
"""

from fractions import Fraction

from proverb.belief import AnalyticModel, posterior
from proverb.generator import GeneratorConfig, generate_corpus
from proverb.profiles import collect


def main():
    prior = Fraction(3, 10)

    print("worked example: prior 0.3")
    for surv in (Fraction(1, 5), Fraction(2, 25)):
        post = Fraction(*posterior(prior, surv))
        print(f"  survival {float(surv):5.2f} -> posterior {float(post):.6f}")
    print()

    total, open_count = 1024, 3
    print(f"analytic urn: {total} paths, {open_count} open under not-w")
    urn = AnalyticModel(total, open_count)
    for searched in (0, 128, 256, 512, 768, 1000):
        surv = Fraction(*urn.survival(searched))
        post = Fraction(*posterior(prior, surv))
        print(f"  searched {searched:5d}  survival {float(surv):.6f}  "
              f"posterior {float(post):.6f}")
    print()

    model = AnalyticModel(total, {1: Fraction(1, 2), 5: Fraction(1, 2)})
    print("mixture urn: open count 1 or 5, equally likely")
    for searched in (0, 256, 512, 900):
        surv = Fraction(*model.survival(searched))
        cond = model.conditional(searched)
        post = Fraction(*posterior(prior, surv))
        weights = ", ".join(f"{o}: {float(p):.3f}" for o, p in cond)
        print(f"  searched {searched:4d}  posterior {float(post):.6f}  "
              f"open-count belief {{{weights}}}")
    print("  (deeper survival favors the sparse-countermodel hypothesis)\n")

    config = GeneratorConfig(12, 2, 4, seed=7)
    profile = collect(generate_corpus(config, 200))
    print(f"empirical curve from 200 instances (prior {float(profile.prior):.3f}):")
    for pct in (0, 1, 5, 10, 25):
        num, den = profile.posterior_at(100, pct)
        print(f"  explored {pct / 100:5.2f} of the space  posterior {num / den:.6f}")


if __name__ == "__main__":
    main()
