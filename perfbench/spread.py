"""Run-to-run spread of the end-to-end metrics, the figure each bound comes from.

    python3 perfbench/spread.py --runs 10 --seconds 30 [--first-seed 1] [WORKLOAD ...]

Runs the benchmark ``--runs`` times per workload, one run at a time, each
with another seed, and prints per metric the median, the quartiles and
their distance as a share of the median (``statistics.quantiles(values,
n=4)``), and the share of failed operations.  Raw results are appended as
JSON lines to ``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import OUT_DIR, ROOT

WORKLOADS = ("profile", "deliberate", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            started = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            lines = out.stdout.strip().splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            results.append(result)
            with (OUT_DIR / "spread.jsonl").open("a") as fh:
                fh.write(json.dumps({"seed": seed, "report": report, "result": result}) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']} rounds={report['rounds']} "
                  f"probe {report['probe_start_ms']:.1f}/{report['probe_end_ms']:.1f} ms wall {wall:.1f} s", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: failed share {sorted(shares)}, all correct {all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:32s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
