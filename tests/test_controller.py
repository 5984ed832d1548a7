"""Stopping controller: terminal proofs, forced stops, traces, and replay."""

import json
import math
import re
from fractions import Fraction

import pytest

from proverb import controller
from proverb.belief import AnalyticModel, ContextTag, rational_to_json
from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    DecisionTrace,
    MalformedTraceError,
    ProfileSource,
    StopReason,
    TraceStep,
    load_trace,
    replay,
    run,
    save_trace,
    _deliberate,
)
from proverb.decision import TimeCost, UtilityModel, ZERO_COST, best_action, format_utility_spec
from proverb.generator import GeneratorConfig, generate, generate_corpus
from proverb.matrix import Matrix, literals, solve, total_paths, SearchStatus
from proverb.profiles import InstanceRecord, Profile, collect

ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})
HALF = AnalyticSource(Fraction(1, 2), 1)


def analytic_config(**kw):
    defaults = dict(
        chunk=1, utilities=ACT, timecost=ZERO_COST, source=HALF, lookaheads=()
    )
    defaults.update(kw)
    return ControllerConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match=r"prior 3/2 outside \[0, 1\]"):
        AnalyticSource(Fraction(3, 2), 1)
    assert analytic_config(lookaheads=(3, "full")).lookaheads == (3, "full")
    assert analytic_config(chunk=7).lookaheads == (7,)


# Each value as the chunk and as a lookahead, and a bare "full" as the
# lookaheads: what a config refuses, with its own message, a trace header
# refuses, and what a config takes, a header takes.
SHARED_RULES = [
    *(("chunk", v, "chunk must be >= 1") for v in (True, 2.5, 0, -1, "fast")),
    *(("lookaheads", (v,), "candidate lookaheads must be >= 1") for v in (True, 2.5, 0, -1)),
    ("lookaheads", (True, "full"), "candidate lookaheads must be >= 1"),
    ("lookaheads", ("fast",), "unknown lookahead 'fast'"),
    ("lookaheads", "full", "lookaheads must be a list or tuple, got 'full'"),
    ("chunk", 1, None),
    ("lookaheads", (8, "full"), None),
]


@pytest.mark.parametrize(
    "key, value, error", SHARED_RULES, ids=[f"{k}={v!r}" for k, v, _ in SHARED_RULES]
)
def test_a_config_and_a_trace_header_take_the_same_values(tmp_path, key, value, error):
    path = tmp_path / "trace.jsonl"
    save_trace(run(generate(GeneratorConfig(6, 2, 3, seed=1)), analytic_config(chunk=4)), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0][key] = list(value) if type(value) is tuple else value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if error is None:
        assert getattr(analytic_config(**{key: value}), key) == value
        assert getattr(load_trace(path), key) == value
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            analytic_config(**{key: value})
        with pytest.raises(MalformedTraceError, match=f"^line 1: bad header {key} "):
            load_trace(path)


def test_a_config_stores_its_lookaheads_as_a_tuple():
    config = analytic_config(lookaheads=[8, "full"])
    assert config.lookaheads == (8, "full")
    assert hash(config) == hash(analytic_config(lookaheads=(8, "full")))


@pytest.mark.parametrize("prior", [True, "0.5", None, [0]])
def test_a_prior_that_is_not_a_number_is_refused(prior):
    with pytest.raises(ValueError, match=re.escape(f"prior must be a number, got {prior!r}")):
        AnalyticSource(prior, 1)
    for taken in (0, 0.5, Fraction(1, 2)):
        assert AnalyticSource(taken, 1).prior == taken


def test_unsat_matrix_proves_the_claim():
    m = Matrix((literals(0), literals((0, True),)), 1)
    trace = run(m, analytic_config(lookaheads=("full",)))
    assert trace.stop_reason is StopReason.PROOF_OF_W
    assert trace.final_posterior == 1.0
    assert trace.action == "act_w"
    assert trace.eu == pytest.approx(1.0)
    assert len(trace.steps) == 1  # one deliberation, then the proof lands


def test_sat_matrix_disproves_the_claim():
    m = Matrix((literals(0, 1), literals((0, True), 1)), 2)
    trace = run(m, analytic_config(chunk=4, lookaheads=("full",)))
    assert trace.stop_reason is StopReason.PROOF_OF_NOT_W
    assert trace.final_posterior == 0.0
    assert trace.action == "act_not_w"


def test_zero_path_matrix_is_an_instant_proof():
    m = Matrix((literals(0), ()), 1)
    trace = run(m, analytic_config())
    assert trace.stop_reason is StopReason.PROOF_OF_W
    assert trace.steps == []
    assert trace.total == 0
    assert replay(trace, utilities=ACT, timecost=ZERO_COST, analytic=HALF).ok


def test_empty_matrix_is_an_instant_disproof():
    trace = run(Matrix((), 0), analytic_config())
    assert trace.stop_reason is StopReason.PROOF_OF_NOT_W
    assert trace.final_elapsed == 0.0
    assert replay(trace, utilities=ACT, timecost=ZERO_COST, analytic=HALF).ok


def test_zero_cost_full_lookahead_runs_to_proof():
    # With no time price and a full-horizon candidate, deliberation never
    # stops short: only a proof ends the run.
    for seed in range(6):
        m = generate(GeneratorConfig(6, 2, 4, seed=seed))
        trace = run(m, analytic_config(chunk=2, lookaheads=(2, "full")))
        assert trace.stop_reason in (
            StopReason.PROOF_OF_W,
            StopReason.PROOF_OF_NOT_W,
        )


def test_huge_linear_rate_stops_immediately():
    m = generate(GeneratorConfig(8, 2, 4, seed=10))
    trace = run(m, analytic_config(timecost=TimeCost.linear(50.0)))
    assert trace.stop_reason is StopReason.NONPOSITIVE_EVC
    assert len(trace.steps) == 1
    assert trace.steps[0].fraction == 0
    assert trace.final_posterior == pytest.approx(0.5)


def test_deadline_zero_forces_a_single_step_trace():
    m = generate(GeneratorConfig(8, 2, 4, seed=10))
    trace = run(m, analytic_config(timecost=TimeCost.deadline(at=0.0, penalty=-1.0)))
    assert trace.stop_reason is StopReason.DEADLINE_FORCED
    assert len(trace.steps) == 1
    assert trace.steps[0].nevc == ()
    assert trace.final_elapsed == 0.0


def test_deadline_allows_exactly_the_budgeted_chunks():
    m = generate(GeneratorConfig(8, 2, 4, seed=10))
    chunk = 16
    config = analytic_config(
        chunk=chunk, timecost=TimeCost.deadline(at=32.0, penalty=-1.0)
    )
    trace = run(m, config)
    if trace.stop_reason is StopReason.DEADLINE_FORCED:
        assert trace.final_elapsed <= 32.0
        assert trace.final_elapsed + chunk > 32.0


def test_elapsed_time_is_closed_paths_times_tau():
    m = generate(GeneratorConfig(8, 2, 4, seed=4))
    tau = 0.125
    config = analytic_config(
        chunk=8, timecost=TimeCost.linear(0.001, tau=tau), lookaheads=(8,)
    )
    trace = run(m, config)
    for step in trace.steps:
        assert step.elapsed == float(step.fraction * total_paths(m)) * tau


HUGE = 2**1100  # paths: beyond float's range, as no path count ever is made a float


@pytest.mark.parametrize(
    "cost",
    [TimeCost.zero(1e-300), TimeCost.linear(1e-40, 1e-300), TimeCost.deadline(1e30, -1.0, 1e-300)],
    ids=["zero", "linear", "deadline"],
)
def test_a_space_beyond_float_range_is_priced_where_its_time_is_not(cost):
    # A full search takes about 1.4e31 time units.  Only step 0 is priced: the
    # search itself would never end.
    chunk = HUGE // 100
    source = AnalyticSource(Fraction(1, 2), {1: Fraction(1, 2), 8: Fraction(1, 2)})
    config = analytic_config(chunk=chunk, timecost=cost, source=source, lookaheads=(chunk, "full"))
    post, nevcs, t_now, verdict, _chunk = _deliberate(config, HUGE, 0)
    assert (post, t_now, verdict) == (0.5, 0.0, None)
    assert len(nevcs) == 2 and all(map(math.isfinite, nevcs))
    assert nevcs[0] > 0


def test_a_small_space_whose_time_is_beyond_float_range_is_refused():
    # 256 paths of 1e307 time units each: the float product is inf.
    m = generate(GeneratorConfig(8, 2, 4, seed=10))
    with pytest.raises(ValueError, match="ends beyond float's range of model time"):
        run(m, analytic_config(timecost=TimeCost.zero(1e307)))


def huge_trace(utilities, timecost):
    """A proof of the claim over ``HUGE`` paths, recorded with no step."""
    return DecisionTrace(
        HUGE, 1, (1,), HALF.describe(), format_utility_spec(utilities, timecost), [],
        StopReason.PROOF_OF_W, "act_w", 1.0, 1.0, 1.0,
    )


@pytest.mark.parametrize(
    "utilities, timecost, error",
    [
        (ACT, ZERO_COST, "ends beyond float's range of model time"),
        # Every utility drops by up to rate * time_of(total) = 1e308 * 2**1100 * 1e-300.
        (ACT, TimeCost.linear(1e308, 1e-300), "utilities over a search of 2[*][*]1100"),
        # Past the deadline a bet of 1e308 becomes a penalty of -1e308.
        (UtilityModel.from_pairs({"act_w": (1e308, 0.0), "act_not_w": (0.0, 1e308)}),
         TimeCost.deadline(1.0, -1e308, 1e-300), "utilities over a search of 2[*][*]1100"),
    ],
    ids=["time", "linear", "deadline"],
)
def test_run_and_replay_refuse_what_they_cannot_score(utilities, timecost, error, monkeypatch):
    def search(*_args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(controller, "step_search", search)
    # Two literals of fresh symbols per clause: 2**1100 paths and no closure.
    matrix = Matrix(tuple(literals(2 * i, 2 * i + 1) for i in range(1100)), 2200)
    config = analytic_config(utilities=utilities, timecost=timecost)
    with pytest.raises(ValueError, match=error):
        run(matrix, config)
    with pytest.raises(ValueError, match=error):
        replay(huge_trace(utilities, timecost), utilities=utilities, timecost=timecost,
               analytic=HALF)


def test_linear_rate_stop_fraction_is_monotone():
    m = generate(GeneratorConfig(10, 2, 4, seed=5))
    # This instance must survive long enough to leave room between rates.
    assert solve(m).status is SearchStatus.EXHAUSTED
    fractions = []
    for rate in (0.0, 0.01, 0.1, 1.0):
        config = analytic_config(
            chunk=4,
            timecost=TimeCost.linear(rate, tau=1 / total_paths(m)),
            lookaheads=(4, "full"),
        )
        trace = run(m, config)
        fractions.append(trace.steps[-1].fraction if trace.steps else Fraction(0))
    assert fractions[0] == max(fractions)
    for cheap, dear in zip(fractions, fractions[1:]):
        assert dear <= cheap


def test_profile_source_run(tmp_path):
    corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=7), 40)
    profile = collect(corpus)
    m = generate_corpus(GeneratorConfig(8, 2, 3, seed=7), 41)[40]
    config = ControllerConfig(
        chunk=32,
        utilities=ACT,
        timecost=TimeCost.linear(0.0002),
        source=ProfileSource(profile),
        lookaheads=(32,),
    )
    trace = run(m, config)
    assert trace.stop_reason in set(StopReason)
    assert trace.source_desc["kind"] == "profile"
    assert trace.source_desc["prior"] == {
        "num": profile.prior.numerator,
        "den": profile.prior.denominator,
    }
    report = replay(trace, utilities=ACT, timecost=TimeCost.linear(0.0002), profile=profile)
    assert report.ok, report.message


def test_profile_and_its_source_read_total_then_closed():
    # Prior 1/4; after 20 of 100 paths two of the three discoveries remain.
    records = [InstanceRecord(0, False, Fraction(1), 1)] + [
        InstanceRecord(i, True, f, 1)
        for i, f in enumerate((Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)), start=1)
    ]
    profile = Profile(ContextTag(), records)
    assert Fraction(*ProfileSource(profile).posterior_at(100, 20)) == Fraction(1, 3)
    assert Fraction(*profile.posterior_at(100, 20)) == Fraction(1, 3)
    # Prior 1/2 and 3 open paths: 20 closed paths survive with P(80, 3) / P(100, 3).
    analytic = AnalyticSource(Fraction(1, 2), 3)
    survival = Fraction(math.perm(80, 3), math.perm(100, 3))
    assert Fraction(*analytic.posterior_at(100, 20)) == 1 / (1 + survival)
    # The closed count first, as the profile once took it, or a count outside
    # the space, is refused by every reader of a search's progress.
    readers = [
        profile.posterior_at,
        ProfileSource(profile).posterior_at,
        analytic.posterior_at,
        lambda total, closed: profile.curve.survivors(closed, total),
        lambda total, closed: AnalyticModel(total, 3).survival(closed),
    ]
    for total, closed in [(20, 100), (100, 200), (100, -1)]:
        for read in readers:
            with pytest.raises(ValueError, match=rf"closed {closed} outside \[0, total {total}\]"):
                read(total, closed)


def test_posteriors_rise_while_search_survives():
    m = Matrix(
        tuple(literals((i % 4, bool(i % 2))) for i in range(1)) * 0
        or (literals(0, 1), literals((0, True), (1, True))),
        2,
    )
    trace = run(m, analytic_config(lookaheads=("full",)))
    posts = [s.posterior for s in trace.steps]
    assert posts == sorted(posts)


def test_trace_save_load_round_trip(tmp_path):
    m = generate(GeneratorConfig(8, 2, 4, seed=2))
    config = analytic_config(chunk=8, timecost=TimeCost.linear(0.001), lookaheads=(8, "full"))
    trace = run(m, config)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace  # wall_time excluded from comparison by design
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["kind"] == "header"
    assert lines[-1]["kind"] == "final"
    assert all(l["kind"] == "step" for l in lines[1:-1])
    # The advisory wall time may be left out; it then reads 0.
    del lines[-1]["wall_time"]
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    loaded = load_trace(path)
    assert loaded == trace and loaded.wall_time == 0.0
    # Blank lines, anywhere, are skipped.
    path.write_text("\n \n".join(json.dumps(l) for l in lines) + "\n\n")
    assert load_trace(path) == trace


def test_trace_steps_keep_no_instance_dict():
    # A round holds thousands of steps: each run's trace and its reloaded copy.
    trace = run(generate(GeneratorConfig(8, 2, 4, seed=2)), analytic_config(chunk=8))
    assert trace.steps and isinstance(trace.steps[0], TraceStep)
    assert not hasattr(trace.steps[0], "__dict__")


def test_replay_clean_across_twenty_runs(tmp_path):
    corpus = generate_corpus(GeneratorConfig(7, 2, 4, seed=33), 20)
    cost = TimeCost.linear(0.0005)
    config = analytic_config(chunk=16, timecost=cost, lookaheads=(16, "full"))
    for i, m in enumerate(corpus):
        trace = run(m, config)
        path = tmp_path / f"t{i}.jsonl"
        save_trace(trace, path)
        report = replay(load_trace(path), utilities=ACT, timecost=cost, analytic=HALF)
        assert report.ok and report.kind == "clean", report.message


def test_replay_detects_tampered_posterior(tmp_path):
    m = generate(GeneratorConfig(8, 2, 4, seed=6))
    trace = run(m, analytic_config(chunk=8, timecost=TimeCost.linear(0.001)))
    assert len(trace.steps) >= 2
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["posterior"] += 0.01
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    report = replay(
        load_trace(path), utilities=ACT, timecost=TimeCost.linear(0.001), analytic=HALF
    )
    assert not report.ok
    assert report.kind == "inconsistency"
    assert report.field == "posterior"
    assert report.step == doc["step"]


def test_replay_detects_wrong_parameters(tmp_path):
    m = generate(GeneratorConfig(8, 2, 4, seed=6))
    trace = run(m, analytic_config(chunk=8, timecost=TimeCost.linear(0.001)))
    report = replay(trace, utilities=ACT, timecost=TimeCost.linear(0.002), analytic=HALF)
    assert not report.ok and report.kind == "parameter_mismatch"
    other_source = AnalyticSource(Fraction(1, 3), 1)
    report = replay(
        trace, utilities=ACT, timecost=TimeCost.linear(0.001), analytic=other_source
    )
    assert not report.ok and report.kind == "parameter_mismatch"
    report = replay(trace, utilities=ACT, timecost=TimeCost.linear(0.001))
    assert not report.ok and report.kind == "parameter_mismatch"


def test_replay_detects_non_advancing_fraction(tmp_path):
    m = generate(GeneratorConfig(8, 2, 4, seed=6))
    trace = run(m, analytic_config(chunk=8, timecost=TimeCost.linear(0.001)))
    assert len(trace.steps) >= 2
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    first_step = json.loads(lines[1])
    second = json.loads(lines[2])
    second["fraction"] = first_step["fraction"]
    lines[2] = json.dumps(second)
    path.write_text("\n".join(lines) + "\n")
    report = replay(
        load_trace(path), utilities=ACT, timecost=TimeCost.linear(0.001), analytic=HALF
    )
    assert not report.ok and report.field == "fraction"


THREE_OPEN = AnalyticSource(Fraction(1, 2), 3)
STOP_COST = TimeCost.linear(0.004)


def stopped_config():
    return analytic_config(
        chunk=8, timecost=STOP_COST, source=THREE_OPEN, lookaheads=(8, "full")
    )


def step_record(config, total, closed, step):
    """The step record ``run`` would write at ``closed`` of ``total`` paths."""
    post, nevc, t, _verdict, _chunk = _deliberate(config, total, closed)
    fraction = rational_to_json(Fraction(closed, total))
    return {"kind": "step", "step": step, "fraction": fraction, "posterior": post,
            "nevc": list(nevc), "t": t}


def renumber(rows):
    for k, row in enumerate(rows[1:-1]):
        row["step"] = k


def step_after(trace, config):
    """The step record ``run`` would write one chunk past the trace's last step."""
    closed = int(trace.steps[-1].fraction * trace.total) + config.chunk
    return step_record(config, trace.total, closed, len(trace.steps))


def drop_middle_values(trace, rows):
    rows[len(rows) // 2]["nevc"] = []


def relabel_deadline(trace, rows):
    rows[-2]["nevc"] = []
    rows[-1]["stop_reason"] = "deadline_forced"


def renumber_one(trace, rows):
    rows[2]["step"] = 99


def step_past_stop(trace, rows):
    rows.insert(-1, step_after(trace, stopped_config()))


def last_step_at_the_end(trace, rows):
    # Consistent in time and posterior, but no path is left to deliberate on.
    rows[-2].update(fraction={"num": 1, "den": 1}, t=trace.total * 1.0, posterior=1.0)


def final_moved(trace, rows):
    # The stop moved to another belief and time, its action and eu recomputed.
    action, eu = best_action(0.99, ACT, STOP_COST, 0.0)
    rows[-1].update(posterior=0.99, t=0.0, action=action, eu=eu)


def first_step_dropped(trace, rows):
    # Run always deliberates first with nothing closed.
    del rows[1]
    renumber(rows)


def step_closer_than_a_chunk(trace, rows):
    # Rising, whole and priced as run prices it, but the chunk searched
    # after the step before closes at least 8 paths first.
    before, after = (int(s.fraction * trace.total) for s in trace.steps[1:3])
    assert before + 1 < after
    rows.insert(3, step_record(stopped_config(), trace.total, before + 1, 0))
    renumber(rows)


def time_nudged(trace, rows):
    rows[2]["t"] += 1e-6


def second_value_nudged(trace, rows):
    rows[2]["nevc"][1] += 1e-6


def action_swapped(trace, rows):
    rows[-1]["action"] = "act_w" if rows[-1]["action"] == "act_not_w" else "act_not_w"


def eu_nudged(trace, rows):
    rows[-1]["eu"] += 1e-6


def fraction_between_paths(trace, rows):
    # Still rising and inside [0, 1), but half a path past a whole count.
    middle = rows[len(rows) // 2]
    moved = Fraction(middle["fraction"]["num"], middle["fraction"]["den"])
    middle["fraction"] = rational_to_json(moved + Fraction(1, 2 * trace.total))


def profile_header(trace, rows):
    rows[0]["source"] = {"kind": "profile"}


def oracle_header(trace, rows):
    rows[0]["source"] = {"kind": "oracle"}


def replay_edited(tmp_path, trace, tamper, timecost, source):
    """The replay of ``trace``, clean as run wrote it, once ``tamper`` has
    edited its rows."""
    assert replay(trace, utilities=ACT, timecost=timecost, analytic=source).ok
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    tamper(trace, rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return replay(load_trace(path), utilities=ACT, timecost=timecost, analytic=source)


def replay_tampered(tmp_path, tamper):
    """The replay of a stopped run's trace once ``tamper`` has edited its rows."""
    trace = run(generate(GeneratorConfig(8, 2, 4, seed=10)), stopped_config())
    assert trace.stop_reason is StopReason.NONPOSITIVE_EVC
    assert len(trace.steps) >= 3
    return replay_edited(tmp_path, trace, tamper, STOP_COST, THREE_OPEN)


@pytest.mark.parametrize(
    "tamper, field",
    [
        (drop_middle_values, "nevc"),
        (relabel_deadline, "nevc"),
        (renumber_one, "step"),
        (step_past_stop, "step"),
        (last_step_at_the_end, "fraction"),
        (final_moved, "posterior"),
        (first_step_dropped, "fraction"),
        (time_nudged, "t"),
        (second_value_nudged, "nevc[1]"),
        (action_swapped, "action"),
        (eu_nudged, "eu"),
        (fraction_between_paths, "fraction"),
        (step_closer_than_a_chunk, "fraction"),
    ],
)
def test_replay_rejects_a_trace_run_could_not_write(tmp_path, tamper, field):
    report = replay_tampered(tmp_path, tamper)
    assert report.kind == "inconsistency", report.message
    assert report.field == field


DISPROOF_COST = TimeCost.linear(0.001)


def disproof_late(trace, rows):
    # The open path turned up within the chunk after the last step, at 128
    # paths: by 135 paths, model time 135.
    action, eu = best_action(0.0, ACT, DISPROOF_COST, 1000.0)
    rows[-1].update(t=1000.0, action=action, eu=eu)


def proof_without_search(trace, rows):
    # Only a 0-path space is proved before step 0.
    del rows[1:-1]
    t = DISPROOF_COST.time_of(trace.total)
    action, eu = best_action(1.0, ACT, DISPROOF_COST, t)
    rows[-1].update(stop_reason="proof_of_w", posterior=1.0, t=t, action=action, eu=eu)


@pytest.mark.parametrize(
    "tamper, field", [(disproof_late, "t"), (proof_without_search, "stop_reason")]
)
def test_replay_rejects_a_disproof_run_could_not_write(tmp_path, tamper, field):
    config = analytic_config(chunk=8, timecost=DISPROOF_COST)
    trace = run(generate(GeneratorConfig(8, 2, 4, seed=0)), config)
    assert trace.stop_reason is StopReason.PROOF_OF_NOT_W
    assert trace.steps[-1].fraction * trace.total == 128
    report = replay_edited(tmp_path, trace, tamper, DISPROOF_COST, HALF)
    assert report.kind == "inconsistency", report.message
    assert report.field == field


def test_replay_finds_no_step_in_reach_of_a_0_path_space():
    trace = run(Matrix((literals(0), ()), 1), analytic_config())
    trace.steps.append(TraceStep(0, Fraction(0), 0.5, (), 0.0))
    report = replay(trace, utilities=ACT, timecost=ZERO_COST, analytic=HALF)
    assert (report.kind, report.field, report.step) == ("inconsistency", "fraction", 0)


def test_replay_asks_for_the_source_its_header_names(tmp_path):
    report = replay_tampered(tmp_path, profile_header)
    assert report.kind == "parameter_mismatch"
    assert "pass profile=" in report.message
    # The header names one of the kinds the sources describe, or the trace
    # does not load; a trace built in memory meets the source it is given.
    error = "line 1: bad header source {'kind': 'oracle'}"
    with pytest.raises(MalformedTraceError, match=f"^{re.escape(error)}$"):
        replay_tampered(tmp_path, oracle_header)
    trace = run(generate(GeneratorConfig(8, 2, 4, seed=10)), stopped_config())
    trace.source_desc = {"kind": "oracle"}
    report = replay(trace, utilities=ACT, timecost=STOP_COST, analytic=THREE_OPEN)
    assert report.kind == "parameter_mismatch"


def test_replay_accepts_a_deadline_stop(tmp_path):
    cost = TimeCost.deadline(at=40.0, penalty=-1.0)
    config = analytic_config(chunk=8, timecost=cost, lookaheads=(8, "full"))
    trace = run(generate(GeneratorConfig(8, 2, 4, seed=6)), config)
    assert trace.stop_reason is StopReason.DEADLINE_FORCED
    assert trace.steps[-1].nevc == ()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    report = replay(load_trace(path), utilities=ACT, timecost=cost, analytic=HALF)
    assert report.kind == "clean", report.message
    assert report.steps_checked == len(trace.steps)
    # The same steps cannot end in any other stop.
    path.write_text(path.read_text().replace("deadline_forced", "nonpositive_evc"))
    report = replay(load_trace(path), utilities=ACT, timecost=cost, analytic=HALF)
    assert (report.kind, report.field) == ("inconsistency", "stop_reason")


def test_load_trace_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(MalformedTraceError):
        load_trace(path)
    path.write_text('{"kind": "step"}\n')
    with pytest.raises(MalformedTraceError):
        load_trace(path)
    for rows in ('[1]\n', '{"kind": "header", "format_version": 1}\n[2]\n{"kind": "final"}\n'):
        path.write_text(rows)
        with pytest.raises(MalformedTraceError, match="not a JSON object"):
            load_trace(path)

    m = generate(GeneratorConfig(6, 2, 3, seed=1))
    trace = run(m, analytic_config(chunk=4))
    good = tmp_path / "good.jsonl"
    save_trace(trace, good)
    lines = good.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    bad = tmp_path / "v99.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(MalformedTraceError):
        load_trace(bad)
    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MalformedTraceError):
        load_trace(truncated)


TAMPERED_FIELDS = [
    (0, "format_version", True),
    (0, "total", "16"),
    (0, "total", True),
    (0, "total", -1),
    (0, "chunk", "2"),
    (0, "chunk", 0),
    (0, "lookaheads", [1.5]),
    (0, "lookaheads", [True]),
    (0, "lookaheads", [0]),
    (0, "lookaheads", ["whole"]),
    (0, "lookaheads", "full"),
    (0, "source", 3),
    (0, "source", {"kind": "oracle"}),
    (0, "source", {}),
    (0, "utility_spec", 5),
    (1, "step", True),
    (1, "step", "0"),
    (1, "fraction", {"den": 0, "num": 0}),
    (1, "fraction", {"num": 0.5, "den": 1}),
    (1, "fraction", [0, 1]),
    (1, "posterior", "0.5"),
    (1, "nevc", "12"),
    (1, "nevc", [True]),
    (1, "nevc", [10**400]),  # beyond float's range
    (1, "t", True),
    (-1, "stop_reason", "foo"),
    (-1, "stop_reason", 3),
    (-1, "action", 3),
    (-1, "eu", "1"),
    (-1, "posterior", 10**400),
    # json reads NaN and Infinity, and no tolerance test fails on a NaN.
    (1, "posterior", math.nan),
    (1, "nevc", [math.nan]),
    (1, "t", math.nan),
    (1, "t", math.inf),
    (-1, "eu", -math.inf),
    (-1, "posterior", math.nan),
    (-1, "t", math.nan),
    # The advisory wall time, when present, is a finite number too.
    (-1, "wall_time", "nan"),
    (-1, "wall_time", True),
    (-1, "wall_time", "12"),
    (-1, "wall_time", None),
]


@pytest.mark.parametrize(
    "line, key, value",
    TAMPERED_FIELDS,
    ids=[f"{key}={json.dumps(value)[:8]}" for _, key, value in TAMPERED_FIELDS],
)
def test_load_trace_checks_the_type_of_each_field(tmp_path, line, key, value):
    m = generate(GeneratorConfig(6, 2, 3, seed=1))
    good = tmp_path / "good.jsonl"
    save_trace(run(m, analytic_config(chunk=4)), good)
    rows = [json.loads(text) for text in good.read_text().splitlines()]
    rows[line][key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    # Every refusal names the line, the record kind and the field.
    lineno = line % len(rows) + 1
    kind = {1: "header", len(rows): "final"}.get(lineno, "step")
    with pytest.raises(MalformedTraceError, match=rf"^line {lineno}: bad {kind} {key} "):
        load_trace(bad)


def test_save_trace_refuses_a_non_finite_number(tmp_path):
    m = generate(GeneratorConfig(6, 2, 3, seed=1))
    trace = run(m, analytic_config(chunk=4))
    trace.eu = math.inf
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_trace(trace, tmp_path / "t.jsonl")


def test_load_trace_rejects_an_integer_beyond_the_digit_limit(tmp_path):
    # json reads a 9,300-digit integer with int(), which refuses it with a
    # plain ValueError rather than a JSONDecodeError.
    m = generate(GeneratorConfig(6, 2, 3, seed=1))
    good = tmp_path / "good.jsonl"
    save_trace(run(m, analytic_config(chunk=4)), good)
    lines = good.read_text().splitlines()
    step = json.loads(lines[1])
    step["fraction"] = {"num": 0, "den": "DEN"}
    huge = json.dumps(step).replace('"DEN"', "1" + "0" * 9300)
    bad = tmp_path / "huge.jsonl"
    bad.write_text("\n".join([lines[0], huge] + lines[2:]) + "\n")
    with pytest.raises(MalformedTraceError, match="line 2: not JSON"):
        load_trace(bad)


def test_load_trace_rejects_arrays_nested_beyond_the_decoder(tmp_path):
    bad = tmp_path / "deep.jsonl"
    bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(MalformedTraceError, match="^line 1: not JSON"):
        load_trace(bad)


def test_runs_are_deterministic():
    m = generate(GeneratorConfig(9, 2, 4, seed=14))
    config = analytic_config(chunk=8, timecost=TimeCost.linear(0.0008), lookaheads=(8, 64))
    a = run(m, config)
    b = run(m, config)
    assert a == b  # wall_time is excluded from equality


def test_mixture_source_round_trip(tmp_path):
    m = generate(GeneratorConfig(8, 2, 4, seed=21))
    source = AnalyticSource(
        Fraction(2, 5), {1: Fraction(1, 2), 4: Fraction(1, 2)}
    )
    config = analytic_config(
        source=source, chunk=8, timecost=TimeCost.linear(0.002), lookaheads=(8,)
    )
    trace = run(m, config)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    report = replay(
        load_trace(path), utilities=ACT, timecost=TimeCost.linear(0.002), analytic=source
    )
    assert report.ok, report.message


@pytest.mark.parametrize(
    "family, index, dist, reason",
    [
        # Each run deliberates after its largest open count is ruled out.
        ((8, 3, 3), 4, {1: Fraction(1, 2), 6556: Fraction(1, 2)}, "proof_of_not_w"),
        ((8, 2, 3), 1, {1: Fraction(1, 2), 250: Fraction(1, 2)}, "proof_of_w"),
    ],
)
def test_mixture_runs_past_its_largest_open_count(
    tmp_path, family, index, dist, reason
):
    matrix = generate_corpus(GeneratorConfig(*family, seed=5), 40)[index]
    source = AnalyticSource(Fraction(1, 2), dist)
    trace = run(matrix, analytic_config(source=source))
    assert trace.stop_reason.value == reason
    total = total_paths(matrix)
    assert any(s.fraction * total > total - max(dist) for s in trace.steps)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    report = replay(
        load_trace(path), utilities=ACT, timecost=ZERO_COST, analytic=source
    )
    assert report.ok and report.steps_checked == len(trace.steps), report.message


def test_float_mixture_weights_start_at_the_prior(tmp_path):
    # 0.9 + 0.1 sums to 1 only within FLOAT_TOL at the floats' exact values;
    # the weights are normalized, so step 0 reads survival 1 and the prior.
    m = generate(GeneratorConfig(8, 2, 4, seed=21))
    source = AnalyticSource(Fraction(1, 2), {1: 0.9, 2: 0.1})
    trace = run(m, analytic_config(source=source, chunk=8, lookaheads=(8, "full")))
    assert trace.steps[0].posterior == 0.5
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    report = replay(load_trace(path), utilities=ACT, timecost=ZERO_COST, analytic=source)
    assert report.ok and report.steps_checked == len(trace.steps), report.message
