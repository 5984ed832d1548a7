"""``cli``: a scripted session of the ``proverb`` command line.

One round runs twelve commands, one at a time, each in a fresh interpreter
(``python -m proverb.cli``): ``gen``; ``prove`` of a satisfiable and of an
unsatisfiable file and under ``--budget``; ``profile``; ``curve``; ``decide``
from a posterior, from prior and survival, and from a profile and fraction;
``run --out``; ``compare-heuristic``; and ``decide`` on a profile of prior 0.
Interpreter start, the import and DIMACS handling take most of the time;
search and deliberation are small.  Every printed output and every file a
command writes is parsed and checked against the oracle.

The last command fails today through a fault of the program:
``Profile.posterior_at`` calls ``posterior(0, 0)`` past the last discovery
of a prior-0 profile and the command exits 2 ("evidence impossible under
both hypotheses").  Its expected output is exit 0, posterior 0 and the
hedge action, the rule ``export_curve_csv`` already follows.  It counts as
failed, once per round, and its inputs do not depend on the seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import oracle
from common import child_env, median
from workload import Workload, family_seed, fresh_dir, presorted_truths, signed, truth_of

FAMILY = (14, 3, 3)
COMPARE_FAMILY = (12, 2, 4)
GEN_COUNT = 4
FILES_UNSAT, FILES_SAT = 1, 3
CANDIDATES = 60
PROFILE_COUNT = 30
COMPARE_COUNT = 20
FIXTURE_COUNT = 60
PRIOR_ZERO = (3, 3, 10, 1, 20)  # clauses, lits, alphabet, seed, count: a profile of prior 0
BET_HEDGE = [("publish", 1.0, 0.0), ("withdraw", 0.0, 1.0)]
UTILS = oracle.Utilities(BET_HEDGE)
RUN_UTILS = oracle.Utilities(BET_HEDGE, kind="linear", rate=0.02, tau=1e-6)
RUN_PARTS = 32


def parse_dimacs_text(text: str) -> tuple[list[tuple[int, ...]], int, dict[str, str]]:
    """The benchmark's own DIMACS reader: clauses, symbol count, comment keys."""
    meta: dict[str, str] = {}
    symbols = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line[0] == "c":
            meta.update(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
        elif line[0] == "p":
            symbols = int(line.split()[2])
        else:
            for tok in line.split():
                if tok == "0":
                    clauses.append(tuple(pending))
                    pending = []
                else:
                    pending.append(int(tok))
    oracle.expect(symbols is not None and not pending, "DIMACS text without header or with an open clause")
    return clauses, symbols, meta


def fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def close6(printed: str, exact, what: str) -> None:
    oracle.expect(printed == f"{float(exact):.6f}", f"{what}: printed {printed}, expected {float(exact):.6f}")


class CliWorkload(Workload):
    name = "cli"

    def setup(self, tracer=None) -> None:
        from proverb import dimacs, profiles
        from proverb.belief import ContextTag
        from proverb.generator import GeneratorConfig, generate_corpus

        self.tracer = tracer
        self.failure_notes: set[str] = set()
        self.command_times: dict[str, list[float]] = {}  # traced rounds, by command
        fixtures = fresh_dir(self.workdir / "fixtures")
        cfg = GeneratorConfig(*FAMILY, family_seed(self.seed, 11))
        stream = self._call("generator.generate_corpus", generate_corpus, cfg, CANDIDATES)
        self.generated = len(stream)
        unsat = [i for i, m in enumerate(stream) if not oracle.is_sat(signed(m), m.alphabet_size)]
        sat = [i for i in range(len(stream)) if i not in unsat]
        if len(unsat) < FILES_UNSAT or len(sat) < FILES_SAT:
            raise RuntimeError("seeded stream too short for the session's files")
        self.files = []  # the unsatisfiable ones first
        for i in unsat[:FILES_UNSAT] + sat[:FILES_SAT]:
            m = stream[i]
            meta = {"n_clauses": FAMILY[0], "lits_per_clause": FAMILY[1], "alphabet_size": FAMILY[2],
                    "seed": cfg.seed, "index": i}
            text = self._call("dimacs.format_dimacs", dimacs.format_dimacs, m, meta)
            back, _meta = self._call("dimacs.parse_dimacs", dimacs.parse_dimacs, text)
            if back != m:
                raise RuntimeError("DIMACS fixture does not read back as written")
            path = fixtures / f"matrix_{i}.cnf"
            path.write_text(text)
            self.files.append(path)

        # Fixture profiles: one of the session's family with both verdicts, one of prior 0.
        for salt in range(12, 100):
            fcfg = GeneratorConfig(*FAMILY, family_seed(self.seed, salt))
            fixture_corpus = generate_corpus(fcfg, FIXTURE_COUNT)
            verdicts = {oracle.is_sat(signed(m), m.alphabet_size) for m in fixture_corpus}
            if verdicts == {True, False}:
                break
        made = profiles.collect(fixture_corpus, context=ContextTag(*FAMILY, fcfg.seed, FIXTURE_COUNT))
        self.fixture_corpus = fixture_corpus
        self.profile_path = fixtures / "family.json"
        profiles.save(made, self.profile_path)
        n, k, a, s, count = PRIOR_ZERO
        zero_corpus = generate_corpus(GeneratorConfig(n, k, a, s), count)
        self.zero_corpus = zero_corpus
        self.zero_path = fixtures / "prior_zero.json"
        profiles.save(profiles.collect(zero_corpus, context=ContextTag(n, k, a, s, count)), self.zero_path)
        self._plan()

    def _plan(self) -> None:
        """Seeded arguments of the session; every command is checked by its own function."""
        import random

        from proverb.generator import GeneratorConfig, generate_corpus

        rng = random.Random(self.seed)
        work = self.workdir / "session"
        self.session_dir = work
        fam = [str(x) for x in FAMILY]
        spec = UTILS.spec()
        self.gen_seed = rng.randrange(10**6)
        self.profile_seed = rng.randrange(10**6)
        self.compare_seed = rng.randrange(10**6)
        # compare-heuristic on a corpus of prior 0 meets the same fault as the last
        # command, so its corpus seed is the first from here on with prior > 0.
        while True:
            corpus = generate_corpus(GeneratorConfig(*COMPARE_FAMILY, self.compare_seed), COMPARE_COUNT)
            if not all(oracle.is_sat(signed(m), m.alphabet_size) for m in corpus):
                break
            self.compare_seed += 1
        self.compare_corpus = corpus
        self.fraction = Fraction(rng.randrange(5, 95), 100)
        self.posterior = Fraction(rng.randrange(5, 95), 100)
        self.prior_surv = (Fraction(rng.randrange(5, 95), 100), Fraction(rng.randrange(5, 95), 100))
        total = 3 ** FAMILY[0]
        self.run_chunk = total // RUN_PARTS
        self.budget = total // 16
        unsat, sat = [str(p) for p in self.files[:FILES_UNSAT]], [str(p) for p in self.files[FILES_UNSAT:]]
        cmp_fam = [str(x) for x in COMPARE_FAMILY]
        self.commands = [
            ("gen", ["gen", "--clauses", fam[0], "--lits", fam[1], "--alphabet", fam[2],
                     "--seed", str(self.gen_seed), "--count", str(GEN_COUNT), "--out", str(work / "gen")],
             self.check_gen),
            ("prove", ["prove", sat[0]], self.check_prove_full),
            ("prove", ["prove", unsat[0]], self.check_prove_full),
            ("prove", ["prove", sat[1], "--budget", str(self.budget)], self.check_prove_budget),
            ("profile", ["profile", "--clauses", fam[0], "--lits", fam[1], "--alphabet", fam[2],
                         "--seed", str(self.profile_seed), "--count", str(PROFILE_COUNT),
                         "--out", str(work / "profile.json")], self.check_profile),
            ("curve", ["curve", "--profile", str(self.profile_path), "--out", str(work / "curve.csv")],
             self.check_curve),
            ("decide", ["decide", "--posterior", str(self.posterior), "--utilities", spec], self.check_decide),
            ("decide", ["decide", "--prior", str(self.prior_surv[0]), "--survival", str(self.prior_surv[1]),
                        "--utilities", spec], self.check_decide),
            ("decide", ["decide", "--profile", str(self.profile_path), "--fraction", str(self.fraction),
                        "--utilities", spec], self.check_decide),
            ("run", ["run", sat[2], "--profile", str(self.profile_path), "--chunk", str(self.run_chunk),
                     "--lookahead", f"{self.run_chunk},full", "--utilities", RUN_UTILS.spec(),
                     "--out", str(work / "trace.jsonl")], self.check_run),
            ("compare-heuristic", ["compare-heuristic", "--clauses", cmp_fam[0], "--lits", cmp_fam[1],
                                   "--alphabet", cmp_fam[2], "--seed", str(self.compare_seed),
                                   "--count", str(COMPARE_COUNT),
                                   "--out", str(work / "compare")], self.check_compare),
            ("decide", ["decide", "--profile", str(self.zero_path), "--fraction", "0.99", "--utilities", spec],
             self.check_decide),
        ]

    def prepare_checks(self) -> None:
        from proverb.generator import GeneratorConfig, generate_corpus

        self.file_truths = {}
        for path in self.files:
            clauses, k, _meta = parse_dimacs_text(path.read_text())
            self.file_truths[str(path)] = oracle.Truth(clauses, k)
        self.fixture_truths = [truth_of(m) for m in self.fixture_corpus]
        self.zero_truths = [truth_of(m) for m in self.zero_corpus]
        oracle.expect(oracle.prior_of(self.zero_truths) == 0, "the prior-0 fixture has an unsatisfiable instance")
        self.profile_truths = [
            truth_of(m) for m in generate_corpus(GeneratorConfig(*FAMILY, self.profile_seed), PROFILE_COUNT)
        ]
        self.compare_truths = [truth_of(m) for m in self.compare_corpus]
        self.compare_presorted = presorted_truths(self.compare_corpus, self.compare_truths, "compare-heuristic")
        self.gen_corpus = generate_corpus(GeneratorConfig(*FAMILY, self.gen_seed), GEN_COUNT)

    def round(self):
        fresh_dir(self.session_dir)
        times = []
        failed = 0
        self.outputs = []
        env = child_env()
        for name, argv, _check in self.commands:
            started = time.perf_counter()
            out = subprocess.run([sys.executable, "-m", "proverb.cli", *argv], env=env,
                                 capture_output=True, text=True, timeout=120)
            took = time.perf_counter() - started
            ok = out.returncode in (0, 3)
            failed += not ok
            times.append(took if ok else None)
            self.outputs.append(out)
            if not ok:
                self.failure_notes.add(f"{' '.join(argv[:3])} ...: exit {out.returncode}: {out.stderr.strip()}")
            elif self.tracer is not None:
                self.command_times.setdefault(name, []).append(took)
        return times, failed

    def check(self) -> None:
        for (name, argv, checker), out in zip(self.commands, self.outputs):
            if out.returncode in (0, 3):
                checker(argv, out)

    # -- per-command checks ------------------------------------------------------

    def check_gen(self, argv, out) -> None:
        gen_dir = self.session_dir / "gen"
        oracle.expect(out.stdout.strip() == f"wrote {GEN_COUNT} instances to {gen_dir}", f"gen printed {out.stdout!r}")
        for i, m in enumerate(self.gen_corpus):
            clauses, k, meta = parse_dimacs_text((gen_dir / f"matrix_{i}.cnf").read_text())
            oracle.expect(clauses == signed(m) and k == FAMILY[2], f"gen: file {i} differs from instance {i}")
            oracle.expect(meta.get("seed") == str(self.gen_seed) and meta.get("index") == str(i),
                          f"gen: file {i} has provenance {meta}")

    def _prove_fields(self, argv, out):
        f = fields(out.stdout)
        num, _, den = f["fraction"].split(" ")[0].partition("/")
        return self.file_truths[argv[1]], f, Fraction(int(num), int(den))

    def check_prove_full(self, argv, out) -> None:
        truth, f, frac = self._prove_fields(argv, out)
        oracle.expect(out.returncode == 0, f"prove exited {out.returncode}")
        oracle.check_verdict(truth, f["status"] == "W_FALSE", frac, f"prove {argv[1]}")
        oracle.expect(f["status"] in ("W_FALSE", "W_TRUE"), f"prove printed status {f['status']}")
        if truth.sat:
            oracle.check_witness(truth.clauses, [int(x) for x in f["witness"].split()])

    def check_prove_budget(self, argv, out) -> None:
        truth, f, frac = self._prove_fields(argv, out)
        closed = frac * truth.total
        if f["status"] == "RUNNING":
            oracle.expect(out.returncode == 3, f"prove --budget exited {out.returncode} while running")
            oracle.expect(self.budget <= closed <= truth.rank, f"prove --budget stopped after {closed} paths")
        else:
            oracle.check_verdict(truth, f["status"] == "W_FALSE", frac, "prove --budget")

    def check_profile(self, argv, out) -> None:
        doc = json.loads((self.session_dir / "profile.json").read_text())
        oracle.check_profile_doc(doc, self.profile_truths, "profile")
        prior = oracle.prior_of(self.profile_truths)
        oracle.expect(f"prior {prior} (" in out.stdout, f"profile printed {out.stdout!r}, prior is {prior}")

    def _curve_rows(self, truths, s):
        prior = oracle.prior_of(truths)
        fractions = [t.fraction for t in truths if t.sat]
        surv = oracle.curve_at(fractions, s)
        return f"{float(surv):.6f}", f"{float(oracle.curve_posterior(prior, fractions, s)):.6f}"

    def check_curve(self, argv, out) -> None:
        lines = (self.session_dir / "curve.csv").read_text().splitlines()
        oracle.expect(lines[0] == "s,survival,posterior" and len(lines) == 102, "curve: table shape")
        for i, line in enumerate(lines[1:]):
            s = Fraction(i, 100)
            want = ",".join((f"{float(s):.6f}", *self._curve_rows(self.fixture_truths, s)))
            oracle.expect(line == want, f"curve row {i}: {line}, expected {want}")

    def check_decide(self, argv, out) -> None:
        opts = dict(zip(argv[1::2], argv[2::2]))
        if "--posterior" in opts:
            post = Fraction(opts["--posterior"])
        elif "--prior" in opts:
            p, s = Fraction(opts["--prior"]), Fraction(opts["--survival"])
            post = p / (p + s * (1 - p))
        else:
            truths = self.zero_truths if opts["--profile"] == str(self.zero_path) else self.fixture_truths
            prior = oracle.prior_of(truths)
            post = oracle.curve_posterior(prior, [t.fraction for t in truths if t.sat], Fraction(opts["--fraction"]))
        f = fields(out.stdout)
        close6(f["posterior"], post, "decide posterior")
        action, eu = UTILS.best(float(post))
        oracle.expect(f["action"] == action, f"decide: action {f['action']}, argmax is {action}")
        close6(f["eu"], eu, "decide eu")

    def check_run(self, argv, out) -> None:
        run = oracle.RunRecord.from_jsonl((self.session_dir / "trace.jsonl").read_text())
        prior = oracle.prior_of(self.fixture_truths)
        belief = ("profile", prior, [t.fraction for t in self.fixture_truths if t.sat])
        oracle.check_run(run, self.file_truths[argv[1]], belief, RUN_UTILS, 2, "run")
        m = re.match(r"stop: (\w+) after (\d+) steps; action (\w+), eu (\S+), posterior (\S+);", out.stdout)
        oracle.expect(m is not None, f"run printed {out.stdout!r}")
        oracle.expect(
            (m[1], int(m[2]), m[3]) == (run.stop, len(run.steps), run.action),
            f"run printed {m[0]!r}, the trace says {run.stop} after {len(run.steps)} steps, {run.action}",
        )
        close6(m[4].rstrip(","), run.eu, "run eu")
        close6(m[5].rstrip(";"), run.posterior, "run posterior")

    def check_compare(self, argv, out) -> None:
        cmp_dir = self.session_dir / "compare"
        presorted = self.compare_presorted
        for h, truths in (("none", self.compare_truths), ("presort", presorted)):
            doc = json.loads((cmp_dir / f"profile_{h}.json").read_text())
            oracle.check_profile_doc(doc, truths, f"compare-heuristic {h}")
        lines = (cmp_dir / "curves.csv").read_text().splitlines()
        oracle.expect(len(lines) == 102, "compare-heuristic: curves.csv shape")
        for i, line in enumerate(lines[1:]):
            s = Fraction(i, 100)
            want = ",".join((f"{float(s):.6f}", *self._curve_rows(self.compare_truths, s),
                             *self._curve_rows(presorted, s)))
            oracle.expect(line == want, f"compare-heuristic curves row {i}: {line}, expected {want}")

    # -- traced run ----------------------------------------------------------------

    def trace_hooks(self, tracer) -> None:
        """Commands run in child interpreters and are timed from outside, not wrapped.

        Before each traced round, outside its time, this also times the floor
        (``python -c pass``) and the import, next to the commands they are part of.
        """
        self.tracer = tracer
        for name, code in (("floor", "pass"), ("import", "import proverb.cli")):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, capture_output=True, timeout=60)
            self.command_times.setdefault(name, []).append(time.perf_counter() - started)

    def layer_metrics(self, tracer, rounds: int) -> dict:
        times = dict(self.command_times)
        floor = median(times.pop("floor"))
        imported = median(times.pop("import"))
        dur = tracer.durations()
        metrics = {
            "generator.instance_us": (median(dur["generator.generate_corpus"]) / self.generated * 1e6, "us"),
            "dimacs.format_us": (median(dur["dimacs.format_dimacs"]) * 1e6, "us"),
            "dimacs.parse_us": (median(dur["dimacs.parse_dimacs"]) * 1e6, "us"),
            "cli.interpreter_ms": (floor * 1e3, "ms"),
            "cli.import_ms": ((imported - floor) * 1e3, "ms"),
        }
        for name, samples in times.items():
            metrics[f"cli.{name}_ms"] = (median(samples) * 1e3, "ms")
        return metrics
