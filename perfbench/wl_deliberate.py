"""``deliberate``: the stop-or-search controller on a seeded corpus.

One round runs ``controller.run`` on every instance under each of four fixed
configurations, then ``save_trace``, ``load_trace`` and ``replay`` of each
trace.  An operation is one instance decided under one configuration; its
time covers the run and the trace's save, load and replay, so a change that
speeds up ``run`` by slowing ``replay`` shows.

The configurations cover the single-count and the 3-point mixture urn
model, the profile-source belief, linear, zero and deadline costs and the
``full`` lookahead; together they reach all four stop reasons.  The chunk
is 1/32 of the path space, so a run takes at most 33 steps, and the family
is small enough that belief and decision, not search, take most of the time.

The length of a run follows from the verdict and, for a satisfiable
instance, from where its first open path lies.  So that every seed gives
rounds of the same make-up, corpus and profile fixture are drawn from
seeded streams of ``STREAM`` instances by the truth table: the first
unsatisfiable ones, and the satisfiable ones at evenly spaced quantiles of
their discovery fractions.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracle
from common import median
from workload import Workload, closure_count, family_seed, truth_of
from wl_profile import check_profile

FAMILY = (14, 3, 3)
STREAM, SMOKE_STREAM = 320, 60
UNSAT, SAT = 32, 20  # corpus make-up: 208 runs a round
FIXTURE_UNSAT, FIXTURE_SAT = 16, 64  # profile fixture: prior 1/5
SMOKE_UNSAT, SMOKE_SAT = 2, 3
SMOKE_FIXTURE_UNSAT, SMOKE_FIXTURE_SAT = 3, 9
CHUNK_PARTS = 32
TAU = 1e-6  # model time per path; the whole space is about 4.8 time units
BET_HEDGE = [("publish", 1.0, 0.0), ("withdraw", 0.0, 1.0)]

# name: (open paths of the urn model, or None for the profile source;
#        utilities; lookaheads in chunks or "full").  Analytic priors are 1/2.
CONFIGS = {
    "single-zero": (1, oracle.Utilities(BET_HEDGE, tau=TAU), (1, "full")),
    "mixture-linear": (
        {1: Fraction(1, 2), 3: Fraction(1, 4), 9: Fraction(1, 4)},
        oracle.Utilities(BET_HEDGE, kind="linear", rate=0.05, tau=TAU),
        (1, 4, "full"),
    ),
    "profile-linear": (None, oracle.Utilities(BET_HEDGE, kind="linear", rate=0.02, tau=TAU), (1, "full")),
    "single-deadline": (
        1,
        oracle.Utilities(BET_HEDGE, kind="deadline", deadline_at=2.0, penalty=-1.0, tau=TAU),
        (1, "full"),
    ),
}
PRIOR = Fraction(1, 2)
STOP_REASONS = {"nonpositive_evc", "proof_of_not_w", "proof_of_w", "deadline_forced"}


def compose(stream, unsat: int, sat: int) -> list:
    """The first ``unsat`` unsatisfiable instances of the stream, then ``sat``
    satisfiable ones at evenly spaced quantiles of their discovery fractions."""
    truths = [truth_of(m) for m in stream]
    no = [m for m, t in zip(stream, truths) if not t.sat]
    yes = sorted((t.fraction, i) for i, t in enumerate(truths) if t.sat)
    if len(no) < unsat or len(yes) < sat:
        raise RuntimeError("seeded stream too short for the corpus make-up")
    return no[:unsat] + [stream[yes[(2 * j + 1) * len(yes) // (2 * sat)][1]] for j in range(sat)]


class DeliberateWorkload(Workload):
    name = "deliberate"

    def setup(self, tracer=None) -> None:
        from proverb import controller, decision, profiles
        from proverb.belief import ContextTag
        from proverb.generator import GeneratorConfig, generate_corpus
        from proverb.heuristics import Heuristic

        self.tracer = tracer
        size = SMOKE_STREAM if self.smoke else STREAM
        corpus_cfg = GeneratorConfig(*FAMILY, family_seed(self.seed, 1))
        stream = self._call("generator.generate_corpus", generate_corpus, corpus_cfg, size)
        self.generated = size
        self.corpus = compose(stream, *((SMOKE_UNSAT, SMOKE_SAT) if self.smoke else (UNSAT, SAT)))
        fixture_cfg = GeneratorConfig(*FAMILY, family_seed(self.seed, 2))
        fixture_corpus = compose(
            generate_corpus(fixture_cfg, size),
            *((SMOKE_FIXTURE_UNSAT, SMOKE_FIXTURE_SAT) if self.smoke else (FIXTURE_UNSAT, FIXTURE_SAT)),
        )
        context = ContextTag(*FAMILY, seed=fixture_cfg.seed, count=len(fixture_corpus), heuristic="none")
        self.fixture = profiles.collect(fixture_corpus, Heuristic.NONE, context=context)
        self.fixture_path = self.workdir / "fixture_profile.json"
        profiles.save(self.fixture, self.fixture_path)
        self.fixture_corpus = fixture_corpus

        total = 3 ** FAMILY[0]
        self.chunk = total // CHUNK_PARTS
        self.runs = []  # (instance index, config name, ControllerConfig, replay kwargs)
        for name, (open_paths, utils, looks) in CONFIGS.items():
            utilities, timecost = decision.parse_utility_spec(utils.spec())
            if open_paths is not None:
                source = controller.AnalyticSource(PRIOR, open_paths)
                replay_kw = {"analytic": source}
            else:
                source = controller.ProfileSource(self.fixture)
                replay_kw = {"profile": self.fixture}
            lookaheads = tuple(x if x == "full" else x * self.chunk for x in looks)
            cfg = controller.ControllerConfig(self.chunk, utilities, timecost, source, lookaheads)
            replay_kw.update(utilities=utilities, timecost=timecost)
            for i in range(len(self.corpus)):
                self.runs.append((i, name, cfg, replay_kw))
        self.trace_paths = [self.workdir / f"trace_{k}.jsonl" for k in range(len(self.runs))]

    def prepare_checks(self) -> None:
        from proverb import profiles

        self.truths = [truth_of(m) for m in self.corpus]
        fixture_truths = [truth_of(m) for m in self.fixture_corpus]
        check_profile(self.fixture, profiles.load(self.fixture_path), fixture_truths, self.fixture_path, "fixture profile")
        self.fixture_fractions = [t.fraction for t in fixture_truths if t.sat]
        self.beliefs = {}
        for name, (open_paths, _utils, _looks) in CONFIGS.items():
            if open_paths is None:
                self.beliefs[name] = ("profile", self.fixture.prior, self.fixture_fractions)
            elif isinstance(open_paths, int):
                self.beliefs[name] = ("analytic", PRIOR, {open_paths: Fraction(1)})
            else:
                self.beliefs[name] = ("analytic", PRIOR, open_paths)

    def round(self):
        from proverb import controller

        times = []
        self.outputs = []
        clock = time.perf_counter
        for op, ((i, _name, cfg, replay_kw), path) in enumerate(zip(self.runs, self.trace_paths)):
            if self.tracer is not None:
                self.tracer.op = op
            started = clock()
            trace = self._call("controller.run", controller.run, self.corpus[i], cfg)
            self._call("controller.save_trace", controller.save_trace, trace, path)
            loaded = self._call("controller.load_trace", controller.load_trace, path)
            report = self._call("controller.replay", controller.replay, loaded, **replay_kw)
            times.append(clock() - started)
            self.outputs.append((trace, loaded, report))
        return times, 0

    def check(self) -> None:
        seen = set()
        for (i, name, cfg, _kw), (trace, loaded, report), path in zip(self.runs, self.outputs, self.trace_paths):
            what = f"deliberate[{name}] instance {i}"
            oracle.expect(loaded == trace, f"{what}: the loaded trace differs from the saved one")
            oracle.expect(
                report.ok and report.steps_checked == len(trace.steps),
                f"{what}: replay is {report.kind}: {report.message}",
            )
            run = oracle.RunRecord.from_jsonl(path.read_text())
            utils = CONFIGS[name][1]
            oracle.check_run(run, self.truths[i], self.beliefs[name], utils, len(cfg.lookaheads), what)
            seen.add(run.stop)
        missing = STOP_REASONS - seen
        oracle.expect(self.smoke or not missing, f"deliberate: stop reasons {sorted(missing)} never occurred")

    # -- traced run ----------------------------------------------------------

    def trace_hooks(self, tracer) -> None:
        import proverb.controller as c
        from proverb.belief import AnalyticModel, SurvivalCurve

        self.tracer = tracer
        tracer.wrap(c, "step_search", "matrix.step_search", tally=closure_count)
        tracer.wrap(c, "posterior", "belief.posterior")
        tracer.wrap(AnalyticModel, "survival", "belief.survival")
        tracer.wrap(AnalyticModel, "conditional", "belief.conditional")
        tracer.wrap(SurvivalCurve, "value", "belief.curve_value")
        tracer.wrap(c, "nevc_multi", "decision.nevc_multi")
        tracer.wrap(c, "nevc_two_outcome", "decision.nevc_two_outcome")
        tracer.wrap(c, "best_action", "decision.best_action")

    def layer_metrics(self, tracer, rounds: int) -> dict:
        spans = tracer.spans
        own = tracer.self_times()
        dur = tracer.durations()
        root = [0] * len(spans)
        for k, (_n, _s, _e, parent, _op) in enumerate(spans):
            root[k] = k if parent < 0 else root[parent]
        in_run: dict[str, float] = {}  # self time inside run spans, by layer
        calls_in_run: dict[str, int] = {}
        for k, ((name, *_rest), self_s) in enumerate(zip(spans, tracer.own_times())):
            if spans[root[k]][0] != "controller.run":
                continue
            layer = name.split(".")[0]
            in_run[layer] = in_run.get(layer, 0.0) + self_s
            calls_in_run[name] = calls_in_run.get(name, 0) + 1
        run_s = sum(dur["controller.run"])
        steps = sum(len(t.steps) for t, _l, _r in self.outputs)  # per round
        shares = {layer: v / run_s for layer, v in in_run.items()}
        self.share_sum = sum(shares.values())
        replay_checked = sum(r.steps_checked for _t, _l, r in self.outputs)

        def us(name):
            return median(own[name]) * 1e6 if own.get(name) else 0.0

        search_s = sum(own["matrix.step_search"]) / rounds
        closures = tracer.counts["matrix.step_search"] // rounds
        return {
            "generator.instance_us": (median(dur["generator.generate_corpus"]) / self.generated * 1e6, "us"),
            "matrix.closures": (closures, "count"),
            "matrix.closures_per_s": (closures / search_s, "1/s"),
            "matrix.search_s": (search_s, "s"),
            "matrix.search_calls": (len(dur["matrix.step_search"]) // rounds, "count"),
            "belief.survival_us": (us("belief.survival"), "us"),
            "belief.posterior_us": (us("belief.posterior"), "us"),
            "belief.curve_value_us": (us("belief.curve_value"), "us"),
            "belief.conditional_us": (us("belief.conditional"), "us"),
            "belief.conditional_per_step": (calls_in_run.get("belief.conditional", 0) / rounds / steps, "ratio"),
            "decision.nevc_calls": (
                (calls_in_run.get("decision.nevc_multi", 0) + calls_in_run.get("decision.nevc_two_outcome", 0)) // rounds,
                "count",
            ),
            "decision.nevc_multi_us": (us("decision.nevc_multi"), "us"),
            "decision.nevc_two_outcome_us": (us("decision.nevc_two_outcome"), "us"),
            "decision.best_action_us": (us("decision.best_action"), "us"),
            "controller.steps": (steps, "count"),
            "controller.step_us": (run_s / rounds / steps * 1e6, "us"),
            "controller.replay_step_us": (sum(dur["controller.replay"]) / rounds / replay_checked * 1e6, "us"),
            "controller.decide_share": (shares.get("belief", 0.0) + shares.get("decision", 0.0), "ratio"),
            "controller.search_share": (shares.get("matrix", 0.0), "ratio"),
            "controller.rest_share": (shares.get("controller", 0.0), "ratio"),
            "controller.trace_save_ms": (median(dur["controller.save_trace"]) * 1e3, "ms"),
            "controller.trace_load_ms": (median(dur["controller.load_trace"]) * 1e3, "ms"),
            "controller.trace_bytes": (sum(p.stat().st_size for p in self.trace_paths), "bytes"),
        }

