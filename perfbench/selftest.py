"""Self-tests of the benchmark's checks, then a smoke run of every workload.

    python3 perfbench/selftest.py [--no-smoke]

Each check must accept the program's real output and reject a corrupted
copy of it: a flipped verdict, a shifted fraction, a closed witness, a wrong
action, a wrong posterior, a curve off by one sample, a truncated trace, a
misprinted command output.  The oracles themselves are compared with brute
force on small random clause sets.  The smoke run then runs each workload
end to end, untraced and traced, on tiny inputs in a few seconds each.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracle
from common import OUT_DIR, ROOT, require_program
from oracle import CheckError


def rejects(fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except CheckError:
        return
    raise AssertionError(f"{fn.__name__} accepted a corrupted output")


def random_clauses(rng: random.Random, n: int, width: int, k: int):
    return [
        tuple(s if rng.random() < 0.5 else -s for s in rng.sample(range(1, k + 1), width))
        for _ in range(n)
    ]


# -- the oracles against brute force ------------------------------------------


def test_truth_table_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 5)
        clauses = random_clauses(rng, rng.randint(1, 9), rng.randint(1, min(3, k)), k)
        brute = any(
            all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
            for bits in itertools.product([False, True], repeat=k)
        )
        assert oracle.is_sat(clauses, k) == brute


def test_first_open_path_matches_enumeration():
    rng = random.Random(6)
    for _ in range(300):
        k = rng.randint(2, 4)
        clauses = random_clauses(rng, rng.randint(1, 7), rng.randint(1, min(3, k)), k)
        first = None
        for rank, choice in enumerate(itertools.product(*[range(len(c)) for c in clauses])):
            lits = {clauses[d][i] for d, i in enumerate(choice)}
            if not any(-lit in lits for lit in lits):
                first = (rank, choice)
                break
        truth = oracle.Truth(clauses, k)
        if first is None:
            assert not truth.sat and truth.fraction == 1
        else:
            assert truth.sat and truth.rank == first[0]
            assert oracle.first_open_path(clauses, k) == first[1]


def test_urn_survival_matches_product():
    for total, o, s in [(10, 1, 3), (27, 3, 5), (100, 4, 96), (100, 4, 97), (12, 12, 0)]:
        direct = Fraction(1)
        for i in range(s):
            direct *= 1 - Fraction(o, total - i)
        assert oracle.urn_survival(total, o, s) == max(direct, Fraction(0))


# -- each check rejects a corrupted output ------------------------------------


def _instance():
    clauses = [(1, 2, -3), (-1, 3, 2), (-2, -3, 1), (3, -1, -2), (2, 1, 3)]
    return oracle.Truth(clauses, 3)


def test_verdict_and_fraction_checks():
    t = _instance()
    oracle.check_verdict(t, t.sat, t.fraction, "real")
    rejects(oracle.check_verdict, t, not t.sat, t.fraction, "flipped verdict")
    rejects(oracle.check_verdict, t, t.sat, t.fraction + Fraction(1, t.total), "shifted fraction")


def test_reordering_check():
    clauses = [(1, -2, 3), (-1, 2, -3)]
    oracle.check_reordering(clauses, [(3, 1, -2), (-1, 2, -3)], "real")
    rejects(oracle.check_reordering, clauses, [(3, 1, 2), (-1, 2, -3)], "changed literal")
    rejects(oracle.check_reordering, clauses, [(-1, 2, -3), (1, -2, 3)], "clauses swapped")
    rejects(oracle.check_reordering, clauses, clauses[:1], "clause dropped")


def test_witness_check():
    t = _instance()
    chosen = oracle.first_open_path(t.clauses, t.k)
    witness = [t.clauses[d][i] for d, i in enumerate(chosen)]
    oracle.check_witness(t.clauses, witness)
    rejects(oracle.check_witness, t.clauses, witness[:-1])
    rejects(oracle.check_witness, t.clauses, [-witness[0]] + witness[1:])
    rejects(oracle.check_witness, [(1, 2), (-1, 3)], [1, -1])


def test_curve_check():
    fractions = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(9, 10)]
    oracle.check_curve(lambda s: oracle.curve_at(fractions, s), fractions, "real")
    rejects(oracle.check_curve, lambda s: oracle.curve_at(fractions[1:], s), fractions, "one sample short")
    rejects(oracle.check_curve, lambda s: oracle.curve_at(fractions, s) if s < Fraction(1, 2) else Fraction(1),
            fractions, "increasing")


def test_action_check():
    utils = oracle.Utilities([("publish", 1.0, 0.0), ("withdraw", 0.0, 1.0)], kind="linear", rate=0.1)
    action, eu = utils.best(0.8, 0.5)
    oracle.check_action(utils, 0.8, 0.5, action, eu, "real")
    rejects(oracle.check_action, utils, 0.8, 0.5, "withdraw", eu, "wrong action")
    rejects(oracle.check_action, utils, 0.8, 0.5, action, eu + 1e-3, "wrong utility")


def _real_run(tmp: Path):
    """A controller run of the program that stops on value, its trace file and the oracle's view."""
    require_program()
    import wl_deliberate

    wl = wl_deliberate.DeliberateWorkload(1, tmp, smoke=True)
    wl.setup()
    wl.prepare_checks()
    wl.round()
    for (i, name, cfg, _kw), (trace, _l, _r), path in zip(wl.runs, wl.outputs, wl.trace_paths):
        if trace.stop_reason.value == "nonpositive_evc" and len(trace.steps) >= 3:
            n = len(cfg.lookaheads)
            return path.read_text(), wl.truths[i], wl.beliefs[name], wl_deliberate.CONFIGS[name][1], n
    raise AssertionError("no run of the smoke corpus stops on value after three steps")


def test_run_check(tmp: Path):
    text, truth, belief, utils, n = _real_run(tmp)
    run = oracle.RunRecord.from_jsonl(text)
    oracle.check_run(run, truth, belief, utils, n, "real")
    lines = text.splitlines()
    rejects(oracle.RunRecord.from_jsonl, "\n".join(lines[:-1]))  # final record cut off
    rejects(oracle.RunRecord.from_jsonl, text[: len(text) // 2])  # cut inside a record
    cut = oracle.RunRecord.from_jsonl("\n".join(lines[:-2] + lines[-1:]))  # last step cut off
    rejects(oracle.check_run, cut, truth, belief, utils, n, "truncated")
    rows = [json.loads(line) for line in lines]
    rows[1]["posterior"] += 1e-6
    rejects(oracle.check_run, oracle.RunRecord.from_jsonl("\n".join(map(json.dumps, rows))),
            truth, belief, utils, n, "posterior")
    rows = [json.loads(line) for line in lines]
    rows[-1]["action"] = "withdraw" if rows[-1]["action"] == "publish" else "publish"
    rejects(oracle.check_run, oracle.RunRecord.from_jsonl("\n".join(map(json.dumps, rows))),
            truth, belief, utils, n, "action")
    rows = [json.loads(line) for line in lines]
    rows[-1]["stop_reason"] = "proof_of_not_w"
    rejects(oracle.check_run, oracle.RunRecord.from_jsonl("\n".join(map(json.dumps, rows))),
            truth, belief, utils, n, "stop reason")


def test_cli_output_checks(tmp: Path):
    """The ``cli`` checks parse printed output; misprints are rejected."""
    from types import SimpleNamespace

    import wl_cli

    wl = wl_cli.CliWorkload(1, tmp, smoke=True)
    wl.zero_path = tmp / "none.json"
    spec = wl_cli.UTILS.spec()
    argv = ["decide", "--posterior", "7/10", "--utilities", spec]
    good = SimpleNamespace(returncode=0, stdout="posterior: 0.700000\np*: 0.500000\naction: publish\neu: 0.700000\n")
    wl.check_decide(argv, good)
    rejects(wl.check_decide, argv, SimpleNamespace(returncode=0, stdout=good.stdout.replace("publish", "withdraw")))
    rejects(wl.check_decide, argv, SimpleNamespace(returncode=0, stdout=good.stdout.replace("0.700000\np", "0.700001\np")))

    clauses = [(1, 2, -3), (-1, 3, 2), (-2, -3, 1)]
    cnf = tmp / "m.cnf"
    cnf.write_text("p cnf 3 3\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    truth = oracle.Truth(clauses, 3)
    wl.file_truths = {str(cnf): truth}
    chosen = oracle.first_open_path(clauses, 3)
    witness = " ".join(str(clauses[d][i]) for d, i in enumerate(chosen))
    frac = truth.fraction
    out = f"status: W_FALSE\nfraction: {frac.numerator}/{frac.denominator} (x)\nclosures: 1\nwitness: {witness}\n"
    wl.check_prove_full(["prove", str(cnf)], SimpleNamespace(returncode=0, stdout=out))
    rejects(wl.check_prove_full, ["prove", str(cnf)],
            SimpleNamespace(returncode=0, stdout=out.replace("W_FALSE", "W_TRUE")))


# -- smoke run -----------------------------------------------------------------


def smoke() -> list[str]:
    problems = []
    for name in ("profile", "deliberate", "cli"):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--smoke",
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if out.returncode != 0:
                problems.append(f"smoke {name} trace={trace}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"smoke {name} trace={trace}: incorrect\n{out.stderr}")
            print(f"smoke {name} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    failures = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name, fn in sorted(globals().items()):
            if not name.startswith("test_"):
                continue
            sub = Path(tmp) / name
            sub.mkdir()
            try:
                fn(sub) if fn.__code__.co_argcount else fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every failing self-test, not just the first
                failures.append(name)
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    if "--no-smoke" not in args:
        for problem in smoke():
            failures.append(problem)
            print(problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
