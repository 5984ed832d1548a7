"""Deliberation-controlled proving: search until it stops paying.

The controller prices one more chunk of search against acting right now.
While some candidate lookahead has positive net expected value the search
continues; otherwise it stops and takes the best action under the current
posterior.  Proofs and deadlines cut the loop short.  Each run's trace is
saved, loaded back and replayed, as an auditor would check it, before it is
shown.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    load_trace,
    replay,
    run,
    save_trace,
)
from proverb.decision import TimeCost, UtilityModel
from proverb.generator import GeneratorConfig, generate
from proverb.matrix import total_paths

UTILITIES = UtilityModel.from_pairs(
    {"publish": (1.0, 0.0), "withdraw": (0.0, 1.0)}
)


def show(matrix, config, label):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(run(matrix, config), path)
        trace = load_trace(path)
    report = replay(
        trace, utilities=config.utilities, timecost=config.timecost,
        analytic=config.source,
    )
    if not report.ok:
        raise SystemExit(f"replay failed: {report.message}")
    print(f"--- {label}")
    print(f"  path space {trace.total}, chunk {trace.chunk}, "
          f"lookaheads {trace.lookaheads}")
    for step in trace.steps:
        nevc = ", ".join(f"{v:+.5f}" for v in step.nevc) or "(deadline check)"
        print(f"  step {step.step:2d}  explored {float(step.fraction):6.4f}  "
              f"posterior {step.posterior:.4f}  value of more search: {nevc}")
    print(f"  stop: {trace.stop_reason.value}")
    print(f"  action {trace.action!r}, expected utility {trace.eu:.4f}, "
          f"posterior {trace.final_posterior:.4f}\n")


def main():
    matrix = generate(GeneratorConfig(10, 2, 4, seed=5))
    total = total_paths(matrix)
    source = AnalyticSource(Fraction(1, 2), 1)
    tau = 1 / total  # whole space = one time unit

    # Free search: only a proof can stop it.
    config = ControllerConfig(
        chunk=64, utilities=UTILITIES, timecost=TimeCost.zero(tau=tau),
        source=source, lookaheads=(64, "full"),
    )
    show(matrix, config, "no time cost")

    # Linear pressure: stops as soon as the information is priced out.
    config = ControllerConfig(
        chunk=64, utilities=UTILITIES,
        timecost=TimeCost.linear(0.8, tau=tau),
        source=source, lookaheads=(64, "full"),
    )
    show(matrix, config, "linear cost, rate 0.8 per unit")

    # Hard deadline before a third of the space is searched.
    config = ControllerConfig(
        chunk=64, utilities=UTILITIES,
        timecost=TimeCost.deadline(at=0.30, penalty=0.0, tau=tau),
        source=source, lookaheads=(64,),
    )
    show(matrix, config, "deadline at t=0.30, missing it scores 0")


if __name__ == "__main__":
    main()
