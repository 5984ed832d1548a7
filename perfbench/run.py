"""Run the benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]
    python3 perfbench/run.py --workload NAME --smoke

Run from the root of a source checkout.  ``--trace 0`` times whole rounds of
the workload for ``--seconds`` seconds and reports the end-to-end metrics;
``--trace 1`` is the separate traced run that reports the per-layer metrics
(see README.md).  Every output of every round is checked against the
benchmark's own oracles.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value and unit); the line before it reports the seed, the rounds, the host
probe at the start and the end, and the set-up samples.  ``--all`` runs the
self-tests, then every workload untraced and traced, and prints every
metric.  ``--smoke`` runs one round on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
import traceback

from common import OUT_DIR, ROOT, SetupError, child_env, host_probe, median, p90, peak_rss_mb, require_program
from oracle import CheckError

SETUP_REPEATS = 7
MIN_ROUNDS = 3
UNTRACED_SHARE = 0.4  # of a traced run's seconds, spent on the untraced rounds it alternates with
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import proverb, proverb.cli; "
    "print(time.perf_counter() - t)"
)


def workloads():
    from wl_cli import CliWorkload
    from wl_deliberate import DeliberateWorkload
    from wl_profile import ProfileWorkload

    return {w.name: w for w in (ProfileWorkload, DeliberateWorkload, CliWorkload)}


def import_seconds() -> float:
    """``import proverb`` in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip())


class Runner:
    def __init__(self, cls, seed: int, seconds: float, smoke: bool) -> None:
        self.cls = cls
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = OUT_DIR / f"work_{cls.name}_{seed}"
        self.problems: list[str] = []
        self.report: dict = {"workload": cls.name, "seed": seed, "seconds": seconds}

    def make(self, cls=None, smoke=None, tag=None):
        from workload import fresh_dir

        cls = cls or self.cls
        smoke = self.smoke if smoke is None else smoke
        return cls(self.seed, fresh_dir(self.workdir / (tag or cls.name)), smoke)

    def prepare(self, wl) -> None:
        """The untimed expectations of the checks; a fixture that fails them is a failed check."""
        try:
            wl.prepare_checks()
        except CheckError as exc:
            self.problems.append(str(exc))

    def set_up(self, tag=None):
        """One set-up in a fresh directory: ``import proverb`` in a fresh interpreter, then the workload's."""
        imported = import_seconds()
        wl = self.make(tag=tag)
        started = time.perf_counter()
        wl.setup()
        return wl, imported + time.perf_counter() - started

    def one_round(self, wl):
        """One round and its checks; returns the round time, operation times and failures."""
        started = time.perf_counter()
        lat, nfail = wl.round()
        took = time.perf_counter() - started
        try:
            wl.check()
        except CheckError as exc:
            self.problems.append(str(exc))
        return took, lat, nfail

    def rounds(self, wl, seconds: float, at_least: int = 1, between=None):
        """Whole rounds until ``seconds`` of round time have passed.

        ``between(timed)`` runs after each round, outside the round time.
        """
        timed, count, times, attempted, failed, round_times = 0.0, 0, [], 0, 0, []
        while count < at_least or timed < seconds:
            took, lat, nfail = self.one_round(wl)
            timed += took
            round_times.append(took)
            count += 1
            attempted += len(lat)
            failed += nfail
            times.append(lat)
            if between is not None:
                between(timed)
        return {"timed": timed, "rounds": count, "times": times, "attempted": attempted,
                "failed": failed, "round_times": round_times}

    def untraced(self) -> tuple[dict, dict]:
        wl, first = self.set_up()
        setups = [first]
        self.prepare(wl)
        self.wl = wl
        repeats = 1 if self.smoke else SETUP_REPEATS

        def sample_setups(timed: float) -> None:
            # Further set-ups run between rounds, spread over the run as the rounds
            # are, so that setup_s sees the same host as the latencies.  All are
            # due once the rounds have taken ``seconds``.
            while len(setups) < repeats and timed >= len(setups) * self.seconds / repeats:
                setups.append(self.set_up(f"setup{len(setups)}")[1])

        r = self.rounds(wl, self.seconds, at_least=1 if self.smoke else MIN_ROUNDS, between=sample_setups)
        # Every round repeats the same operations.  An operation's time is its mean
        # over the rounds: the host changes speed for stretches of many seconds, and
        # a mean over the whole run varies less between runs than a median or minimum.
        per_op = [sum(ts) / len(ts) for ts in zip(*r["times"]) if None not in ts]
        completed = r["attempted"] - r["failed"]
        self.report.update(rounds=r["rounds"], setup_samples=setups, timed_s=r["timed"],
                           round_times=r["round_times"], operations_per_round=len(r["times"][0]))
        children = self.cls.name == "cli"
        metrics = {
            "throughput_per_s": (completed / r["timed"], "1/s"),
            "latency_p50_ms": (median(per_op) * 1e3, "ms"),
            "latency_p90_ms": (p90(per_op) * 1e3, "ms"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(children=children), "MB"),
        }
        return r, metrics

    def traced(self) -> tuple[dict, dict]:
        from tracer import Tracer

        tracer = Tracer()
        wl = self.make()
        wl.setup(tracer)
        self.prepare(wl)
        self.wl = wl
        # Untraced and traced rounds alternate, so that both see the same host.
        plain_s = traced_s = 0.0
        rounds = attempted = failed = 0
        while rounds == 0 or plain_s < self.seconds * UNTRACED_SHARE:
            wl.tracer = None
            plain_s += self.one_round(wl)[0]
            wl.trace_hooks(tracer)
            try:
                took, lat, nfail = self.one_round(wl)
            finally:
                tracer.restore()
            traced_s += took
            rounds += 1
            attempted += len(lat)
            failed += nfail
        metrics = wl.layer_metrics(tracer, rounds)
        metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
        tracer.write(OUT_DIR / f"spans_{self.cls.name}.tsv")
        self.report.update(rounds=rounds, untraced_s=plain_s, traced_s=traced_s)
        if hasattr(wl, "share_sum"):
            self.report["run_self_time_shares_sum"] = wl.share_sum
        # The layers this workload does not reach, from one small round of each other workload.
        for cls in workloads().values():
            if cls is self.cls:
                continue
            other_tracer = Tracer()
            other = self.make(cls, smoke=True)
            other.setup(other_tracer)
            self.prepare(other)
            other.trace_hooks(other_tracer)
            try:
                self.one_round(other)
            finally:
                other_tracer.restore()
            for key, value in other.layer_metrics(other_tracer, 1).items():
                metrics.setdefault(key, value)
        return {"attempted": attempted, "failed": failed}, metrics

    def run(self, trace: bool) -> dict:
        self.report["probe_start_ms"] = host_probe() * 1e3
        r, metrics = self.traced() if trace else self.untraced()
        self.report["probe_end_ms"] = host_probe() * 1e3
        self.report["problems"] = self.problems[:20]
        self.report["failed_operations"] = sorted(getattr(self.wl, "failure_notes", ()))
        return {
            "correct": not self.problems,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        }


def run_one(args) -> int:
    try:
        require_program()
        import proverb  # noqa: F401  -- imported once before set-up is timed
        cls = workloads()[args.workload]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cls, args.seed, 0 if args.smoke else args.seconds, args.smoke)
    try:
        result = runner.run(bool(args.trace))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    report = json.dumps({"report": runner.report})
    line = json.dumps(result)
    (OUT_DIR / f"result_{args.workload}_trace{args.trace}.json").write_text(report + "\n" + line + "\n")
    print(report)
    print(line)
    return 0


def run_all(args) -> int:
    """Self-tests, then every workload untraced and traced, one child at a time."""
    here = ROOT / "perfbench"
    status = subprocess.run([sys.executable, str(here / "selftest.py")], cwd=ROOT).returncode
    ok = status == 0
    for name in workloads():
        for trace in (0, 1):
            cmd = [sys.executable, str(here / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name} trace={trace}: exit {out.returncode}")
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["profile", "deliberate", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash of the program or the benchmark: no result line
        traceback.print_exc()
        sys.exit(1)
