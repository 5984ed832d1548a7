"""``profile``: survival profiles of a stratified corpus, under both heuristics.

One round calls ``profiles.collect`` over the corpus under ``none`` and under
``presort``, then ``save`` and ``load`` of each profile.  An operation is one
instance profiled under one heuristic; ``collect`` runs as one batch, so the
benchmark times each instance by a bare clock pair around the ``solve`` call
that ``collect`` makes (``proverb.profiles.solve``).  The search kernel does
nearly all of the work and nothing deliberates.

The corpus comes from the stored pool (``pool.json``, rebuilt by
``build_pool.py``) of the family (20 clauses, 3 literals, 4 symbols).  The
pool is sorted by search cost and the seed draws one instance from each of
``CORPUS - 1`` strata of equal size.  Costs are heavy-tailed, so a corpus
drawn at random would change its work by half from seed to seed; drawn by
strata, its work changes by about 2% while the instances differ.  The
costliest 2% of the pool are left out: each takes over 400k closure events,
up to 9.7M (13 s of search), and one of them would set the length of a
round.  The kept instance whose single search takes the most closure events
is in every corpus: ``step_search`` keeps one event object per closure, so
that search sets the peak memory, and it stays the same for every seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace

import oracle
from common import BENCH_DIR, median, p90
from workload import Workload, closure_count, presorted_truths, truth_of

POOL_PATH = BENCH_DIR / "pool.json"
CORPUS = 100
KEEP = 0.98  # share of the pool, cheapest first, that corpora are drawn from
SMOKE_CORPUS = 6


def stratified(costs: list[list[int]], n: int, rng: random.Random) -> list[int]:
    """Pool indexes: the kept instance of the costliest single search, and one
    drawn from each of ``n - 1`` equal strata of the rest of the kept pool."""
    order = sorted(range(len(costs)), key=lambda i: (sum(costs[i]), i))
    kept = order[: int(len(order) * KEEP)]
    anchor = max(kept, key=lambda i: (max(costs[i]), i))
    rest = [i for i in kept if i != anchor]
    picks = [anchor]
    for h in range(n - 1):
        lo, hi = h * len(rest) // (n - 1), (h + 1) * len(rest) // (n - 1)
        picks.append(rest[lo + rng.randrange(hi - lo)])
    return sorted(picks)


class ProfileWorkload(Workload):
    name = "profile"

    def setup(self, tracer=None) -> None:
        from proverb.belief import ContextTag
        from proverb.generator import GeneratorConfig, generate, instance_seed
        from proverb.heuristics import Heuristic

        self.tracer = tracer
        pool = json.loads(POOL_PATH.read_text())
        costs = pool["costs"]
        rng = random.Random(self.seed)
        if self.smoke:
            cheap = sorted(range(len(costs)), key=lambda i: (sum(costs[i]), i))[: len(costs) // 2]
            self.indexes = sorted(rng.sample(cheap, SMOKE_CORPUS))
        else:
            self.indexes = stratified(costs, CORPUS, rng)
        base = GeneratorConfig(*pool["family"], pool["base_seed"])
        configs = [replace(base, seed=instance_seed(base.seed, i)) for i in self.indexes]
        self.corpus = self._call("generator.generate", lambda: [generate(c) for c in configs])
        self.heuristics = (Heuristic.NONE, Heuristic.PRESORT)
        self.contexts = {
            h: ContextTag(*pool["family"], seed=pool["base_seed"], count=len(self.corpus), heuristic=h.value)
            for h in self.heuristics
        }
        self.paths = {h: self.workdir / f"profile_{h.value}.json" for h in self.heuristics}
        self.instances = len(self.corpus)

    def prepare_checks(self) -> None:
        plain = [truth_of(m) for m in self.corpus]
        self.truths = {"none": plain, "presort": presorted_truths(self.corpus, plain, "profile[presort]")}

    def round(self):
        from proverb import profiles

        times = []
        solve, clock = profiles.solve, time.perf_counter

        def timed_solve(*args, **kwargs):
            started = clock()
            try:
                return solve(*args, **kwargs)
            finally:
                times.append(clock() - started)

        self.outputs = {}
        profiles.solve = timed_solve
        try:
            for h in self.heuristics:
                made = self._call("profiles.collect", profiles.collect, self.corpus, h, context=self.contexts[h])
                self._call("profiles.save", profiles.save, made, self.paths[h])
                loaded = self._call("profiles.load", profiles.load, self.paths[h])
                self.outputs[h] = (made, loaded)
        finally:
            profiles.solve = solve
        self.solved = len(times)
        return times, 0

    def check(self) -> None:
        expected = len(self.heuristics) * self.instances
        oracle.expect(self.solved == expected, f"profile: {self.solved} timed solve calls for {expected} instances")
        for h, (made, loaded) in self.outputs.items():
            check_profile(made, loaded, self.truths[h.value], self.paths[h], f"profile[{h.value}]")

    # -- traced run ----------------------------------------------------------

    def trace_hooks(self, tracer) -> None:
        import proverb.heuristics
        import proverb.matrix
        import proverb.profiles

        self.tracer = tracer
        tracer.wrap(proverb.profiles, "solve", "matrix.solve")
        tracer.wrap(proverb.matrix, "step_search", "matrix.step_search", tally=closure_count)
        tracer.wrap(proverb.heuristics, "presort", "heuristics.presort")

    def layer_metrics(self, tracer, rounds: int) -> dict:
        own = tracer.self_times()
        dur = tracer.durations()
        search_s = (sum(own["matrix.solve"]) + sum(own["matrix.step_search"])) / rounds
        closures = tracer.counts["matrix.step_search"] // rounds
        verdict_ms = [d * 1e3 for d in dur["matrix.solve"]]
        return {
            "generator.instance_us": (median(dur["generator.generate"]) / self.instances * 1e6, "us"),
            "heuristics.presort_us": (median(dur["heuristics.presort"]) * 1e6, "us"),
            "matrix.closures": (closures, "count"),
            "matrix.closures_per_s": (closures / search_s, "1/s"),
            "matrix.search_s": (search_s, "s"),
            "matrix.search_calls": (len(dur["matrix.step_search"]) // rounds, "count"),
            "matrix.verdict_ms_p50": (median(verdict_ms), "ms"),
            "matrix.verdict_ms_p90": (p90(verdict_ms), "ms"),
            "profiles.collect_s": (median(dur["profiles.collect"]), "s"),
            "profiles.save_ms": (median(dur["profiles.save"]) * 1e3, "ms"),
            "profiles.load_ms": (median(dur["profiles.load"]) * 1e3, "ms"),
            "profiles.file_bytes": (sum(p.stat().st_size for p in self.paths.values()), "bytes"),
        }


def check_profile(made, loaded, truths, path, what: str) -> None:
    """A collected profile, its file and its reloaded copy against the oracle."""
    expect = oracle.expect
    expect(len(made.records) == len(truths), f"{what}: {len(made.records)} records for {len(truths)} instances")
    expect(made.excluded == 0, f"{what}: {made.excluded} instances excluded without a cap")
    for i, (rec, truth) in enumerate(zip(made.records, truths)):
        expect(rec.instance_id == i, f"{what}: record {i} has id {rec.instance_id}")
        oracle.check_verdict(truth, rec.satisfiable, rec.discovery_fraction, f"{what} instance {i}")
    prior = oracle.prior_of(truths)
    expect(made.prior == prior, f"{what}: prior {made.prior}, oracle's unsatisfiable share is {prior}")
    expect(loaded == made, f"{what}: the loaded profile differs from the saved one")
    oracle.check_profile_doc(json.loads(path.read_text()), truths, what)
    fractions = [t.fraction for t in truths if t.sat]
    oracle.check_curve(loaded.curve.value, fractions, what)
