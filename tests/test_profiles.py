"""Survival profiles: collection, hand-worked statistics, and persistence."""

import json
import re
from fractions import Fraction
from functools import partial

import pytest

from oracles import fraction_curve_value, fraction_posterior
from proverb.belief import ContextTag, SurvivalCurve, posterior
from proverb.generator import GeneratorConfig, generate_corpus
from proverb.heuristics import Heuristic
from proverb.matrix import solve
from proverb.profiles import (
    FORMAT_VERSION,
    InstanceRecord,
    MalformedProfileError,
    Profile,
    VersionMismatchError,
    collect,
    export_curve_csv,
    load,
    save,
)


def hand_profile():
    """Ten searches: six exhausted, four found open paths at known fractions."""
    records = [
        InstanceRecord(i, False, Fraction(1), 5) for i in range(6)
    ] + [
        InstanceRecord(6, True, Fraction(1, 10), 1),
        InstanceRecord(7, True, Fraction(1, 5), 2),
        InstanceRecord(8, True, Fraction(1, 5), 2),
        InstanceRecord(9, True, Fraction(2, 5), 3),
    ]
    return Profile(ContextTag(n_clauses=4), tuple(records))


# --- records and profile invariants -----------------------------------------


def test_record_validation():
    with pytest.raises(ValueError):
        InstanceRecord(0, True, Fraction(1), 1)  # sat must discover before 1
    with pytest.raises(ValueError):
        InstanceRecord(0, False, Fraction(1, 2), 1)  # unsat means exhausted
    with pytest.raises(ValueError):
        InstanceRecord(0, True, Fraction(1, 2), -1)


@pytest.mark.parametrize(
    "build, error",
    [
        (
            lambda: Profile(ContextTag(), hand_profile().records, excluded=True),
            "excluded count must be an integer, got True",
        ),
        (lambda: InstanceRecord(True, False, Fraction(1), 0), "id must be an integer, got True"),
        (
            lambda: InstanceRecord(0, False, Fraction(1), True),
            "closure count must be an integer, got True",
        ),
        (lambda: InstanceRecord(0, 1, Fraction(1, 2), 0), "sat flag must be a bool, got 1"),
        (lambda: ContextTag(seed=True), "context seed must be an integer or null, got True"),
        *(
            (partial(InstanceRecord, 0, sat, frac, 1), f"discovery fraction must be a number, got {frac!r}")
            for sat, frac in [(True, "0.5"), (True, None), (True, [0]), (False, True), (True, False)]
        ),
    ],
    ids=["excluded", "id", "closures", "sat", "seed", "frac-str", "frac-none", "frac-list",
         "frac-true", "frac-false"],
)
def test_constructors_refuse_what_load_would(build, error):
    # Each value here is one the file cannot hold as given: saving fails, or
    # loading refuses it or reads back another type.  The rule lives in the
    # constructor, so no such profile can be built.
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        build()


def test_profile_prior_is_the_records_unsat_share():
    records = (InstanceRecord(0, False, Fraction(1), 1),)
    assert Profile(ContextTag(), records).prior == 1
    records += (InstanceRecord(1, True, Fraction(1, 2), 1),) * 2
    assert Profile(ContextTag(), records).prior == Fraction(1, 3)
    with pytest.raises(TypeError, match="prior"):
        Profile(ContextTag(), records, prior=Fraction(1, 3))  # no argument: derived


def test_profile_needs_records():
    with pytest.raises(ValueError):
        Profile(ContextTag(), ())
    with pytest.raises(ValueError, match="excluded count must be >= 0"):
        Profile(ContextTag(), (InstanceRecord(0, False, Fraction(1), 1),), excluded=-1)


def test_hand_profile_statistics():
    profile = hand_profile()
    assert profile.prior == Fraction(3, 5)
    assert profile.curve.value(Fraction(0)) == 1
    assert profile.curve.value(Fraction(3, 20)) == Fraction(3, 4)
    assert profile.curve.value(Fraction(3, 10)) == Fraction(1, 4)
    assert profile.curve.value(Fraction(1, 2)) == 0
    # Surviving past every recorded discovery leaves only exhaustion.
    assert Fraction(*profile.posterior_at(2, 1)) == 1
    assert Fraction(*profile.posterior_at(1, 0)) == Fraction(3, 5)
    assert Fraction(*profile.posterior_at(20, 3)) == Fraction(
        Fraction(3, 5), Fraction(3, 5) + Fraction(3, 4) * Fraction(2, 5)
    )


def test_all_unsat_profile_has_constant_curve():
    records = tuple(InstanceRecord(i, False, Fraction(1), 2) for i in range(5))
    profile = Profile(ContextTag(), records)
    assert profile.curve.survivors(1, 2) == SurvivalCurve([]).survivors(1, 2) == (1, 1)
    assert profile.curve.value(Fraction(1, 2)) == 1
    assert Fraction(*profile.posterior_at(10, 9)) == 1


def test_found_immediately_profile():
    # Every satisfiable instance discovered at fraction 0: any survival at all
    # is conclusive evidence for the claim.
    records = (
        InstanceRecord(0, True, Fraction(0), 0),
        InstanceRecord(1, False, Fraction(1), 3),
    )
    profile = Profile(ContextTag(), records)
    assert profile.curve.value(Fraction(1, 100)) == 0
    assert Fraction(*profile.posterior_at(100, 1)) == 1
    assert Fraction(*profile.posterior_at(100, 0)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "sat_fractions, unsat",
    [
        ([Fraction(1, 10), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5)], 6),
        ([Fraction(1, 7), Fraction(3, 4)], 0),  # prior 0
        ([Fraction(0), Fraction(1, 2)], 1),  # one found before any closure
        ([], 3),  # prior 1, the constant curve
    ],
)
def test_posterior_at_equals_the_fraction_reader(sat_fractions, unsat):
    records = tuple(InstanceRecord(i, True, f, 1) for i, f in enumerate(sat_fractions))
    records += tuple(InstanceRecord(len(records) + i, False, Fraction(1), 1) for i in range(unsat))
    profile = Profile(ContextTag(), records)
    # Every s = p/q on a grid, unreduced too, up to 1: past the last discovery.
    for q in (1, 2, 3, 5, 10, 20, 28, 100):
        for p in range(q + 1):
            s = Fraction(p, q)
            old_reader = Fraction(*posterior(profile.prior, profile.curve.value(s)))
            oracle = fraction_posterior(profile.prior, fraction_curve_value(sat_fractions, s))
            assert Fraction(*profile.posterior_at(q, p)) == old_reader == oracle


# --- collection --------------------------------------------------------------


def test_collect_runs_every_instance():
    corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=7), 30)
    profile = collect(corpus)
    assert len(profile.records) == 30
    assert profile.excluded == 0
    assert profile.context == ContextTag(count=30, heuristic="none")
    assert 0 <= profile.prior <= 1
    for record in profile.records:
        assert record.wall_time is not None


def test_collect_is_deterministic_and_order_stable():
    corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=7), 20)
    a = collect(corpus)
    b = collect(corpus)
    assert a == b
    assert [r.instance_id for r in a.records] == list(range(20))


@pytest.mark.parametrize("step_cap", [None, 5])
def test_collect_calls_the_module_solve_once_per_instance_in_order(monkeypatch, step_cap):
    # The benchmark times each instance by replacing ``profiles.solve``: the
    # loop must look it up when it calls it, and call it once per instance,
    # excluded ones too (a cap of 5 excludes 4 of these 6).
    from proverb import profiles

    corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=21), 6)
    calls, real = [], profiles.solve

    def recording(matrix, **kwargs):
        calls.append((matrix, kwargs))
        return real(matrix, **kwargs)

    monkeypatch.setattr(profiles, "solve", recording)
    collect(corpus, Heuristic.PRESORT, step_cap=step_cap)
    assert calls == [(Heuristic.PRESORT.apply(m), {"max_closures": step_cap}) for m in corpus]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda corpus: collect(corpus, step_cap=True), "step_cap must be an integer when given, got True"),
        (lambda corpus: collect(corpus, step_cap=2.5), "step_cap must be an integer when given, got 2.5"),
        (
            lambda corpus: solve(corpus[0], max_closures=True),
            "max_closures must be an integer when given, got True",
        ),
    ],
    ids=["collect-bool", "collect-float", "solve-bool"],
)
def test_a_cap_that_is_not_an_int_is_refused(call, error):
    corpus = generate_corpus(GeneratorConfig(8, 2, 3, seed=21), 6)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call(corpus)


def test_collect_respects_heuristic_and_context():
    corpus = generate_corpus(GeneratorConfig(9, 2, 4, seed=5), 15)
    # The tag's count and heuristic are those of the search collect ran.
    tag = ContextTag(n_clauses=9, count=99, heuristic="none")
    profile = collect(corpus, Heuristic.PRESORT, context=tag)
    assert profile.context == ContextTag(n_clauses=9, count=15, heuristic="presort")
    # Reordering literals never changes the verdicts, hence not the prior.
    assert profile.prior == collect(corpus).prior


def test_collect_step_cap_excludes_instances():
    corpus = generate_corpus(GeneratorConfig(10, 2, 3, seed=3), 12)
    reference = collect(corpus)
    hardest = max(r.closure_count for r in reference.records)
    capped = collect(corpus, step_cap=hardest - 1)
    assert capped.excluded >= 1
    assert len(capped.records) + capped.excluded == 12
    with pytest.raises(ValueError):
        collect(corpus, step_cap=0)  # everything excluded


def test_collect_empty_corpus_rejected():
    with pytest.raises(ValueError):
        collect([])


# --- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    profile = hand_profile()
    path = tmp_path / "profile.json"
    save(profile, path)
    loaded = load(path)
    assert loaded == profile
    grid = range(11)  # closed counts of a 10-path space
    assert [loaded.curve.survivors(c, 10) for c in grid] == [profile.curve.survivors(c, 10) for c in grid]
    assert loaded.context == profile.context
    assert loaded.excluded == profile.excluded


def test_saved_json_shape(tmp_path):
    path = tmp_path / "p.json"
    save(hand_profile(), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["prior"] == {"num": 3, "den": 5}
    assert doc["context"]["n_clauses"] == 4
    assert len(doc["records"]) == 10
    assert doc["records"][6] == {
        "id": 6,
        "sat": True,
        "frac": {"num": 1, "den": 10},
        "closures": 1,
    }


def test_save_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save(hand_profile(), a)
    save(hand_profile(), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "p.json"
    save(hand_profile(), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatchError):
        load(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("prior", {"num": 6, "den": 5}),  # prior 1.2
        lambda d: d.__setitem__("prior", {"num": 1, "den": 0}),
        lambda d: d.pop("records"),
        lambda d: d["records"][6].__setitem__("frac", {"num": 1, "den": 1}),
        lambda d: d["records"][0].__setitem__("sat", "yes"),
        lambda d: d.__setitem__("excluded", -2),
        lambda d: d["records"][0].__setitem__("closures", -1),
        lambda d: d["records"][0].__setitem__("closures", True),
        lambda d: d.__setitem__("excluded", True),
        lambda d: d.__setitem__("format_version", True),
        lambda d: d["context"].__setitem__("heuristic", 5),
        lambda d: d["context"].__setitem__("heuristic", None),
        lambda d: d["context"].__setitem__("n_clauses", [1]),
        lambda d: d["context"].__setitem__("seed", True),
        lambda d: d["context"].__setitem__("count", 2.0),
    ],
)
def test_load_rejects_malformed_documents(tmp_path, mutate):
    path = tmp_path / "p.json"
    save(hand_profile(), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedProfileError):
        load(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("not json at all")
    with pytest.raises(MalformedProfileError):
        load(path)


def test_load_rejects_an_integer_beyond_the_digit_limit(tmp_path):
    path = tmp_path / "p.json"
    save(hand_profile(), path)
    text = path.read_text()
    doc = json.loads(text)
    den = doc["prior"]["den"]
    path.write_text(text.replace(f'"den": {den}', '"den": 1' + "0" * 9300, 1))
    with pytest.raises(MalformedProfileError, match="not valid JSON"):
        load(path)


def test_load_rejects_arrays_nested_beyond_the_decoder(tmp_path):
    # The decoder recurses once per level and gives up with a RecursionError.
    path = tmp_path / "p.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(MalformedProfileError, match="not valid JSON"):
        load(path)


def test_load_rejects_inconsistent_prior(tmp_path):
    path = tmp_path / "p.json"
    save(hand_profile(), path)
    doc = json.loads(path.read_text())
    doc["prior"] = {"num": 1, "den": 2}  # records say 3/5
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedProfileError):
        load(path)


# --- curve export --------------------------------------------------------------


def test_curve_csv_shape_and_values():
    profile = hand_profile()
    csv = export_curve_csv(profile)
    lines = csv.splitlines()
    assert lines[0] == "s,survival,posterior"
    assert len(lines) == 102
    assert lines[1] == "0.000000,1.000000,0.600000"
    # s = 0.15: survival 3/4, posterior 0.6/(0.6 + 0.75*0.4) = 2/3.
    assert lines[16] == "0.150000,0.750000,0.666667"
    assert lines[-1].startswith("1.000000,0.000000,")


def test_curve_csv_prior_override():
    profile = hand_profile()
    csv = export_curve_csv(profile, prior_override=Fraction(0))
    assert csv.splitlines()[1] == "0.000000,1.000000,0.000000"
    # A zero prior stays zero whatever the evidence.
    assert csv.splitlines()[50].endswith(",0.000000")
