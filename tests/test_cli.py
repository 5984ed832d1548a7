"""End-to-end command-line behavior, including exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from proverb.cli import main
from proverb.controller import AnalyticSource, load_trace, replay
from proverb.decision import TimeCost, parse_utility_spec
from proverb.profiles import load

UTIL = (
    "actions=act_w,act_not_w; u(act_w,w)=1; u(act_w,~w)=0; "
    "u(act_not_w,w)=0; u(act_not_w,~w)=1"
)


def run_cli(*argv):
    return main(list(argv))


def test_no_command_is_usage_error(capsys):
    assert run_cli() == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_gen_writes_deterministic_corpus(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli(
            "gen", "--clauses", "6", "--lits", "2", "--alphabet", "4",
            "--seed", "11", "--count", "3", "--out", str(out),
        )
        assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["matrix_0.cnf", "matrix_1.cnf", "matrix_2.cnf"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert "wrote 3 instances" in capsys.readouterr().out


def test_gen_rejects_bad_config(tmp_path, capsys):
    code = run_cli(
        "gen", "--clauses", "5", "--lits", "9", "--alphabet", "4",
        "--seed", "1", "--count", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def make_corpus(tmp_path, *, clauses=8, alphabet=3, seed=7, count=3):
    out = tmp_path / "corpus"
    assert (
        run_cli(
            "gen", "--clauses", str(clauses), "--lits", "2", "--alphabet",
            str(alphabet), "--seed", str(seed), "--count", str(count),
            "--out", str(out),
        )
        == 0
    )
    return out


def test_prove_reports_verdict_and_witness(tmp_path, capsys):
    corpus = make_corpus(tmp_path, count=8)
    saw_open = saw_exhausted = False
    for i in range(8):
        code = run_cli("prove", str(corpus / f"matrix_{i}.cnf"))
        out = capsys.readouterr().out
        assert code == 0
        if "status: W_FALSE" in out:
            saw_open = True
            witness_line = [l for l in out.splitlines() if l.startswith("witness:")]
            assert len(witness_line) == 1
            ints = [int(v) for v in witness_line[0].split()[1:]]
            assert len(ints) == 8
            assert all(v != 0 for v in ints)
        else:
            assert "status: W_TRUE" in out
            assert "fraction: 1/1 (1.000000)" in out
            saw_exhausted = True
        assert "closures:" in out
    assert saw_open and saw_exhausted


# One empty clause admits no path at all; no clause leaves one path, the empty
# one, and it is open.  Neither space is ever searched.
EMPTY_CLAUSE, NO_CLAUSE = "p cnf 1 1\n0\n", "p cnf 1 0\n"


@pytest.mark.parametrize(
    "text, lines",
    [
        (EMPTY_CLAUSE, ["status: W_TRUE", "fraction: 1/1 (1.000000)", "closures: 0"]),
        (NO_CLAUSE,
         ["status: W_FALSE", "fraction: 0/1 (0.000000)", "closures: 0", "witness: "]),
    ],
    ids=["empty clause", "no clause"],
)
def test_prove_on_a_space_of_no_path_or_one(text, lines, tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    assert run_cli("prove", str(cnf)) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_prove_budget_exhaustion_exits_3(tmp_path, capsys):
    out = tmp_path / "c"
    run_cli(
        "gen", "--clauses", "20", "--lits", "3", "--alphabet", "4",
        "--seed", "3", "--count", "1", "--out", str(out),
    )
    code = run_cli("prove", str(out / "matrix_0.cnf"), "--budget", "5")
    text = capsys.readouterr().out
    assert code == 3
    assert "status: RUNNING" in text


def test_prove_presort_flag_preserves_verdict(tmp_path, capsys):
    corpus = make_corpus(tmp_path, count=5)
    capsys.readouterr()
    for i in range(5):
        run_cli("prove", str(corpus / f"matrix_{i}.cnf"))
        plain = capsys.readouterr().out.splitlines()[0]
        run_cli("prove", str(corpus / f"matrix_{i}.cnf"), "--presort")
        sorted_out = capsys.readouterr().out.splitlines()[0]
        assert plain == sorted_out


def test_profile_and_curve(tmp_path, capsys):
    prof_path = tmp_path / "prof.json"
    code = run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "40", "--out", str(prof_path),
    )
    assert code == 0
    assert "profile over 40 instances" in capsys.readouterr().out
    profile = load(prof_path)
    assert len(profile.records) == 40
    assert profile.context.n_clauses == 8
    assert profile.context.heuristic == "none"

    curve_path = tmp_path / "curve.csv"
    assert run_cli("curve", "--profile", str(prof_path), "--out", str(curve_path)) == 0
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "s,survival,posterior"
    assert len(lines) == 102
    capsys.readouterr()


def test_curve_prior_override(tmp_path, capsys):
    prof_path = tmp_path / "p.json"
    run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "20", "--out", str(prof_path),
    )
    out = tmp_path / "c.csv"
    assert run_cli(
        "curve", "--profile", str(prof_path), "--out", str(out), "--prior", "0"
    ) == 0
    assert out.read_text().splitlines()[1].endswith(",0.000000")
    capsys.readouterr()


def test_decide_from_posterior(capsys):
    assert run_cli("decide", "--utilities", UTIL, "--posterior", "0.7") == 0
    out = capsys.readouterr().out
    assert "posterior: 0.700000" in out
    assert "p*: 0.500000" in out
    assert "action: act_w" in out
    assert "eu: 0.700000" in out


@pytest.mark.parametrize(
    "text, shown",
    [("0.5", "0.500000"), ("1/3", "0.333333"), ("1e-6", "0.000001"), ("2.5E-3", "0.002500")],
)
def test_decide_reads_decimals_fractions_and_exponents(text, shown, capsys):
    assert run_cli("decide", "--utilities", UTIL, "--posterior", text) == 0
    assert f"posterior: {shown}" in capsys.readouterr().out


def test_decide_from_prior_and_survival(capsys):
    assert run_cli(
        "decide", "--utilities", UTIL, "--prior", "0.3", "--survival", "0.2"
    ) == 0
    out = capsys.readouterr().out
    assert "posterior: 0.681818" in out
    assert "action: act_w" in out


def test_decide_from_profile(tmp_path, capsys):
    prof_path = tmp_path / "p.json"
    run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "30", "--out", str(prof_path),
    )
    capsys.readouterr()
    code = run_cli(
        "decide", "--utilities", UTIL, "--profile", str(prof_path),
        "--fraction", "1/2",
    )
    assert code == 0
    out = capsys.readouterr().out
    num, den = load(prof_path).posterior_at(2, 1)
    want = num / den
    got = float(out.splitlines()[0].split()[1])
    assert got == pytest.approx(want, abs=1e-6)


def test_decide_requires_exactly_one_input_form(capsys):
    assert run_cli("decide", "--utilities", UTIL) == 2
    assert (
        run_cli(
            "decide", "--utilities", UTIL, "--posterior", "0.5", "--prior", "0.5",
            "--survival", "0.5",
        )
        == 2
    )
    capsys.readouterr()


def test_decide_dominant_action_reports_undefined_threshold(capsys):
    spec = (
        "actions=always,never; u(always,w)=1; u(always,~w)=1; "
        "u(never,w)=0; u(never,~w)=0"
    )
    assert run_cli("decide", "--utilities", spec, "--posterior", "0.5") == 0
    out = capsys.readouterr().out
    assert "p*: undefined" in out
    assert "action: always" in out


def test_run_analytic_writes_replayable_trace(tmp_path, capsys):
    corpus = make_corpus(tmp_path, count=1)
    trace_path = tmp_path / "trace.jsonl"
    spec = UTIL + "; cost=linear:0.001"
    code = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", spec,
        "--analytic", "1", "--prior", "1/2", "--chunk", "16",
        "--out", str(trace_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stop:" in out
    trace = load_trace(trace_path)
    utilities, timecost = parse_utility_spec(spec)
    from proverb.controller import AnalyticSource
    from fractions import Fraction

    report = replay(
        trace, utilities=utilities, timecost=timecost,
        analytic=AnalyticSource(Fraction(1, 2), 1),
    )
    assert report.ok, report.message


def test_run_with_mixture_and_lookaheads(tmp_path, capsys):
    corpus = make_corpus(tmp_path, count=1)
    code = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
        "--analytic", "1:0.5,2:0.5", "--prior", "0.4",
        "--chunk", "8", "--lookahead", "8,full",
    )
    assert code == 0
    assert "stop:" in capsys.readouterr().out


def test_run_requires_one_source(tmp_path, capsys):
    corpus = make_corpus(tmp_path, count=1)
    assert run_cli("run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL) == 2
    assert (
        run_cli(
            "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
            "--analytic", "1",
        )
        == 2
    )  # missing --prior
    capsys.readouterr()


def test_run_profile_source_with_matching_context(tmp_path, capsys):
    corpus = make_corpus(tmp_path, clauses=8, seed=7, count=2)
    prof_path = tmp_path / "p.json"
    run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "30", "--out", str(prof_path),
    )
    code = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL + "; cost=linear:0.002",
        "--profile", str(prof_path), "--chunk", "16", "--strict",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning:" not in captured.err


def test_run_strict_context_mismatch_exits_4(tmp_path, capsys):
    corpus = make_corpus(tmp_path, clauses=6, seed=3, count=1)
    prof_path = tmp_path / "p.json"
    run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "20", "--out", str(prof_path),
    )
    capsys.readouterr()
    relaxed = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
        "--profile", str(prof_path), "--chunk", "8",
    )
    captured = capsys.readouterr()
    assert relaxed == 0
    assert captured.err.splitlines() == [
        "warning: profile context does not match instance context "
        "(n_clauses: 8 != 6)"
    ]
    strict = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
        "--profile", str(prof_path), "--chunk", "8", "--strict",
    )
    captured = capsys.readouterr()
    assert strict == 4
    assert captured.err.splitlines() == [
        "warning: profile context does not match instance context "
        "(n_clauses: 8 != 6)",
        "error: context mismatch under --strict",
    ]


def test_run_presort_profile_context(tmp_path, capsys):
    # A presort profile applied to a presorted run matches contexts.
    corpus = make_corpus(tmp_path, clauses=8, seed=7, count=1)
    prof_path = tmp_path / "p.json"
    run_cli(
        "profile", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "20", "--presort", "--out", str(prof_path),
    )
    capsys.readouterr()
    code = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
        "--profile", str(prof_path), "--presort", "--strict", "--chunk", "8",
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    mismatched = run_cli(
        "run", str(corpus / "matrix_0.cnf"), "--utilities", UTIL,
        "--profile", str(prof_path), "--strict", "--chunk", "8",
    )
    captured = capsys.readouterr()
    assert mismatched == 4
    assert captured.err.splitlines()[0] == (
        "warning: profile context does not match instance context "
        "(heuristic: 'presort' != 'none')"
    )


def test_compare_heuristic_outputs(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    code = run_cli(
        "compare-heuristic", "--clauses", "8", "--lits", "2", "--alphabet", "3",
        "--seed", "7", "--count", "20", "--out", str(out_dir),
    )
    assert code == 0
    assert "priors:" in capsys.readouterr().out
    plain = load(out_dir / "profile_none.json")
    sorted_p = load(out_dir / "profile_presort.json")
    assert plain.prior == sorted_p.prior  # verdicts cannot differ
    assert plain.context.heuristic == "none"
    assert sorted_p.context.heuristic == "presort"
    lines = (out_dir / "curves.csv").read_text().splitlines()
    assert lines[0] == (
        "s,survival_none,posterior_none,survival_presort,posterior_presort"
    )
    assert len(lines) == 102


# A family whose 20 instances are all satisfiable: prior 0, and every
# discovery lies before 0.99 of the path space.
PRIOR_ZERO_FAMILY = (
    "--clauses", "3", "--lits", "3", "--alphabet", "10", "--seed", "1", "--count", "20",
)


def test_decide_prior_zero_past_last_discovery(tmp_path, capsys):
    prof_path = tmp_path / "p.json"
    assert run_cli("profile", *PRIOR_ZERO_FAMILY, "--out", str(prof_path)) == 0
    capsys.readouterr()
    assert load(prof_path).prior == 0
    code = run_cli(
        "decide", "--utilities", UTIL, "--profile", str(prof_path),
        "--fraction", "0.99",
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "posterior: 0.000000"
    assert "action: act_not_w" in out


def test_compare_heuristic_prior_zero(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert run_cli("compare-heuristic", *PRIOR_ZERO_FAMILY, "--out", str(out_dir)) == 0
    assert "priors: none 0.0000, presort 0.0000" in capsys.readouterr().out
    lines = (out_dir / "curves.csv").read_text().splitlines()
    assert len(lines) == 102
    assert all(line.split(",")[2::2] == ["0.000000", "0.000000"] for line in lines[1:])


@pytest.fixture(scope="module")
def prior_zero_files(tmp_path_factory):
    """The prior-0 profile and a 3-clause file its search outlives."""
    out = tmp_path_factory.mktemp("prior_zero")
    profile = out / "p.json"
    assert run_cli("profile", *PRIOR_ZERO_FAMILY, "--out", str(profile)) == 0
    cnf = out / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n")
    return profile, cnf


def test_run_to_a_far_deadline_stops_at_once(tmp_path, capsys):
    # 3^60 paths and a deadline 1e26 paths away, where (j+1)*tau no longer
    # changes with j: counting paths one at a time never reached it.  A
    # subprocess, so that a hang fails the test instead of stalling the suite.
    import proverb

    assert run_cli(
        "gen", "--clauses", "60", "--lits", "3", "--alphabet", "12",
        "--seed", "1", "--count", "1", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    src = str(Path(proverb.__file__).resolve().parents[1])
    done = subprocess.run(
        [
            sys.executable, "-m", "proverb.cli", "run", str(tmp_path / "matrix_0.cnf"),
            "--analytic", "1", "--prior", "1/2",
            "--utilities", TWO_ACTIONS + "; cost=deadline:1e20:-1; tau=1e-6",
        ],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("stop: deadline_forced after 1 steps")


def test_run_at_the_float_range_deadline_runs(prior_zero_files, capsys):
    # The deadline's distance in paths, 1e600, overflowed a float.
    _, cnf = prior_zero_files
    spec = TWO_ACTIONS + "; cost=deadline:1e300:-1; tau=1e-300"
    assert run_cli("run", str(cnf), "--analytic", "1", "--prior", "1/2", "--utilities", spec) == 0
    assert capsys.readouterr().out.startswith("stop: ")


def test_run_prior_zero_profile_past_last_discovery(prior_zero_files, tmp_path, capsys):
    # A deadline penalty above every utility keeps the search going past the
    # profile's last discovery; the posterior must stay 0 there.
    profile_path, cnf = prior_zero_files
    spec = "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=deadline:20:5"
    trace_path = tmp_path / "t.jsonl"
    code = run_cli(
        "run", str(cnf), "--profile", str(profile_path), "--chunk", "1",
        "--lookahead", "full", "--utilities", spec, "--out", str(trace_path),
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith("stop: proof_of_not_w")
    assert "posterior 0.000000" in captured.out
    profile = load(profile_path)
    trace = load_trace(trace_path)
    last_discovery = max(r.discovery_fraction for r in profile.records)
    assert trace.steps[-1].fraction > last_discovery
    assert all(step.posterior == 0 for step in trace.steps)
    utilities, timecost = parse_utility_spec(spec)
    report = replay(trace, utilities=utilities, timecost=timecost, profile=profile)
    assert report.ok, report.message


def test_run_prior_zero_analytic_past_declared_open_count(tmp_path, capsys):
    # 12 declared open paths among 16 rule out surviving more than 4 closed
    # paths; the deadline penalty keeps the search going past that point.
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    spec = "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1; cost=deadline:10:5"
    trace_path = tmp_path / "t.jsonl"
    code = run_cli(
        "run", str(cnf), "--analytic", "12", "--prior", "0", "--chunk", "1",
        "--lookahead", "full", "--utilities", spec, "--out", str(trace_path),
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith("stop: deadline_forced after 6 steps; action b,")
    assert "posterior 0.000000" in captured.out
    trace = load_trace(trace_path)
    assert trace.steps[-1].fraction > Fraction(4, 16)
    assert all(step.posterior == 0 for step in trace.steps)
    utilities, timecost = parse_utility_spec(spec)
    source = AnalyticSource(Fraction(0), 12)
    report = replay(trace, utilities=utilities, timecost=timecost, analytic=source)
    assert report.ok, report.message


def test_decide_prior_zero_survival_zero(capsys):
    code = run_cli("decide", "--utilities", UTIL, "--prior", "0", "--survival", "0")
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "posterior: 0.000000"
    assert "action: act_not_w" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (("decide", "--utilities", UTIL, "--posterior", "1/0"), "zero denominator"),
        (
            ("decide", "--utilities", UTIL, "--prior", "1/0", "--survival", "1/2"),
            "zero denominator",
        ),
        (
            ("decide", "--utilities", UTIL, "--profile", "{profile}", "--fraction", "1/0"),
            "zero denominator",
        ),
        (
            ("curve", "--profile", "{profile}", "--out", "{out}", "--prior", "1/0"),
            "zero denominator",
        ),
        (
            ("run", "{cnf}", "--utilities", UTIL, "--analytic", "1", "--prior", "1/0"),
            "zero denominator",
        ),
        (
            ("run", "{cnf}", "--utilities", UTIL, "--analytic", "1:1/0", "--prior", "1/2"),
            "zero denominator",
        ),
        (
            ("decide", "--utilities", UTIL + "; cost=linear:nan", "--posterior", "1/2"),
            "rate must be finite",
        ),
    ],
)
def test_bad_number_is_usage_error(argv, error, prior_zero_files, tmp_path, capsys):
    assert_usage_error(argv, error, prior_zero_files, tmp_path, capsys)


def assert_usage_error(argv, error, prior_zero_files, tmp_path, capsys):
    """Exit 2 with nothing on stdout, nothing at ``{out}`` and ``error`` on stderr."""
    profile, cnf = prior_zero_files
    names = {"profile": profile, "cnf": cnf, "out": tmp_path / "c.csv"}
    assert run_cli(*(arg.format(**names) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err
    assert not names["out"].exists()


@pytest.mark.parametrize(
    "analytic, prior",
    [("1", "1e-4300"), ("1:1e-4300,2:1", "1/2"), ("1", "0." + "0" * 4300 + "1")],
    ids=["prior", "weight", "long-literal"],
)
def test_value_beyond_the_digit_limit_is_refused_before_the_search(
    analytic, prior, prior_zero_files, tmp_path, capsys, monkeypatch
):
    # Each value's reduced denominator has more digits than a trace can write.
    from proverb import controller

    def search(*_args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(controller, "run", search)
    _, cnf = prior_zero_files
    trace = tmp_path / "t.jsonl"
    argv = ("run", str(cnf), "--utilities", UTIL, "--analytic", analytic,
            "--prior", prior, "--out", str(trace))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not trace.exists()
    assert "exceeds 4300 digits" in captured.err or "needs more than 4300 digits" in captured.err


@pytest.mark.parametrize("text", [EMPTY_CLAUSE, NO_CLAUSE], ids=["empty clause", "no clause"])
@pytest.mark.parametrize(
    "analytic, error",
    [
        ("0", "open-path count 0 must be a positive integer"),
        ("-3", "open-path count -3 must be a positive integer"),
        ("1:0.7", "open-path distribution sums to 7/10, not 1"),
    ],
)
def test_run_refuses_a_bad_distribution_where_it_never_searches(
    text, analytic, error, tmp_path, capsys
):
    # The run stops before any search, so only the source can refuse it.
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    trace = tmp_path / "t.jsonl"
    argv = ("run", str(cnf), "--utilities", UTIL, "--analytic", analytic,
            "--prior", "1/2", "--out", str(trace))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not trace.exists()
    assert captured.err == f"error: {error}\n"


def test_decide_on_a_profile_with_an_integer_beyond_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"format_version": 1, "prior": {"num": 1, "den": 1' + "0" * 9300 + "}}")
    code = run_cli("decide", "--utilities", UTIL, "--profile", str(path), "--fraction", "1/2")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: not valid JSON")


DECIDE_FORMS = (
    "give exactly one of --posterior, --prior with --survival, or --profile with --fraction"
)
ANALYTIC_RUN = ("run", "{cnf}", "--utilities", UTIL, "--analytic", "1", "--prior", "1/2")
TWO_ACTIONS = "actions=a,b; u(a,w)=1; u(a,~w)=0; u(b,w)=0; u(b,~w)=1"


WIDE = "actions=a,b; u(a,w)=1e308; u(a,~w)=-1e308; u(b,w)=-1e308; u(b,~w)=1e308"


@pytest.mark.parametrize(
    "huge, utilities, prior, error",
    [
        # 2**1100 or more paths: a full search at tau 1 takes longer than any float.
        (True, TWO_ACTIONS, "1/2",
         "a full search of 2**1100 or more paths at tau 1.0 ends beyond float's range"),
        # Finite utilities 2e308 apart: at prior 0 the bet scored 0 * inf = nan.
        (False, WIDE, "0", "utilities must span less than float's range"),
    ],
    ids=["time", "utilities"],
)
def test_run_refuses_what_it_cannot_score_before_the_search(
    huge, utilities, prior, error, prior_zero_files, tmp_path, capsys, monkeypatch
):
    from proverb import controller

    def search(*_args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(controller, "step_search", search)
    cnf = prior_zero_files[1]
    if huge:
        assert run_cli(
            "gen", "--clauses", "1100", "--lits", "2", "--alphabet", "3000",
            "--seed", "1", "--count", "1", "--out", str(tmp_path),
        ) == 0
        cnf = tmp_path / "matrix_0.cnf"
    capsys.readouterr()
    trace = tmp_path / "t.jsonl"
    argv = ("run", str(cnf), "--analytic", "1", "--prior", prior, "--utilities", utilities)
    assert run_cli(*argv, "--out", str(trace)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not trace.exists()
    assert error in captured.err


def test_decide_refuses_utilities_it_cannot_score(capsys):
    assert run_cli("decide", "--posterior", "0", "--utilities", WIDE) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "utilities must span less than float's range" in captured.err


@pytest.mark.parametrize(
    "argv, error",
    [
        (("decide", "--utilities", UTIL, "--posterior", "3/2"), "outside [0, 1]"),
        (
            ("decide", "--utilities", UTIL, "--posterior", "1e-4000000"),
            "exponent beyond 4300",
        ),
        (
            ("decide", "--utilities", UTIL, "--prior", "1/2", "--survival", "2.5E+4301"),
            "exponent beyond 4300",
        ),
        (ANALYTIC_RUN[:-1] + ("1e-4_301",), "exponent beyond 4300"),
        (
            ("run", "{cnf}", "--utilities", UTIL, "--analytic", "1:", "--prior", "1/2"),
            "bad open-path entry",
        ),
        (
            ("run", "{cnf}", "--utilities", UTIL, "--analytic", "1:0.5,1:0.5", "--prior", "1/2"),
            "open-path count 1 given twice",
        ),
        (ANALYTIC_RUN + ("--lookahead", "0"), "lookaheads must be >= 1"),
        (ANALYTIC_RUN + ("--lookahead", ","), "empty lookahead list"),
        (
            ("decide", "--utilities", TWO_ACTIONS + "; cost", "--posterior", "1/2"),
            "expected key=value",
        ),
        (
            ("decide", "--utilities", "actions=a,9b; u(a,w)=1", "--posterior", "1/2"),
            "bad action name",
        ),
        (
            ("decide", "--utilities", TWO_ACTIONS + "; tau=soon", "--posterior", "1/2"),
            "bad tau",
        ),
        (
            ("decide", "--utilities", "actions=a,a; u(a,w)=1; u(a,~w)=0", "--posterior", "1/2"),
            "action names must be distinct",
        ),
        (
            ("decide", "--utilities", TWO_ACTIONS + "; u(a, w)=5", "--posterior", "1/2"),
            "error: u(a,w) given twice\n",
        ),
        (
            ("gen", "--clauses", "3", "--lits", "1", "--alphabet", "0", "--seed", "1",
             "--count", "1", "--out", "{out}"),
            "alphabet_size must be >= 1",
        ),
        (
            ("profile", "--clauses", "6", "--lits", "2", "--alphabet", "3", "--seed", "1",
             "--count", "2", "--step-cap", "-1", "--out", "{out}"),
            "step_cap must be >= 0 when given, got -1",
        ),
        # A profile is collected in the calling process: there is no --jobs.
        *(
            (
                (command, "--clauses", "6", "--lits", "2", "--alphabet", "3", "--seed", "1",
                 "--count", "2", "--jobs", "2", "--out", "{out}"),
                "unrecognized arguments: --jobs 2",
            )
            for command in ("profile", "compare-heuristic")
        ),
        # A flag of an input form not chosen, or a form given incomplete.
        *(
            (("decide", "--utilities", UTIL) + flags, DECIDE_FORMS)
            for flags in [
                ("--profile", "{profile}", "--fraction", "1/2", "--prior", "0.01"),
                ("--profile", "{profile}", "--fraction", "1/2", "--survival", "1/2"),
                ("--posterior", "1/2", "--prior", "0.3"),
                ("--posterior", "1/2", "--survival", "0.3"),
            ]
        ),
        # A flag the run's belief source would ignore.
        (
            ("run", "{cnf}", "--utilities", UTIL, "--profile", "{profile}", "--prior", "1/2"),
            "--profile takes none",
        ),
        (ANALYTIC_RUN + ("--strict",), "--strict checks a profile's context"),
    ],
)
def test_bad_input_is_usage_error(argv, error, prior_zero_files, tmp_path, capsys):
    assert_usage_error(argv, error, prior_zero_files, tmp_path, capsys)


def test_import_leaves_numpy_out():
    import proverb

    src = str(Path(proverb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import proverb.cli, sys; "
        "loaded = {'numpy', 'concurrent.futures', 'multiprocessing'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


PROBE = """\
import sys
from proverb.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(n for n in sys.modules if n == "proverb" or n.startswith("proverb.")))
"""


def modules_after(argv, cwd):
    """Exit code and the ``proverb`` modules loaded by ``main(argv)`` in a fresh
    interpreter, named without the package prefix."""
    import proverb

    src = str(Path(proverb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    code, *names = done.stdout.splitlines()[-1].split()
    return int(code), {name.removeprefix("proverb.") for name in names}


def test_import_loads_only_the_front_end(tmp_path):
    assert modules_after([], tmp_path) == (0, {"proverb", "cli"})


SMALL_FAMILY = (
    "--clauses", "3", "--lits", "1", "--alphabet", "2", "--seed", "1", "--count", "2",
)


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (
            ("prove", "{cnf}"),
            {"matrix", "dimacs", "heuristics"},
            {"controller", "decision", "profiles", "belief"},
        ),
        (
            ("decide", "--utilities", UTIL, "--posterior", "1/2"),
            {"decision", "belief"},
            {"controller", "matrix", "profiles"},
        ),
        (
            ("gen", *SMALL_FAMILY, "--out", "{out}"),
            {"generator"},
            {"controller", "decision", "profiles", "belief"},
        ),
        (
            ("decide", "--utilities", UTIL, "--profile", "{profile}", "--fraction", "1/2"),
            {"decision", "profiles"},
            {"controller"},
        ),
        (
            ("curve", "--profile", "{profile}", "--out", "{out}"),
            {"profiles"},
            {"controller", "decision"},
        ),
        (("profile", *SMALL_FAMILY, "--out", "{out}"), {"profiles"}, {"controller", "decision"}),
        (
            ("compare-heuristic", *SMALL_FAMILY, "--out", "{out}"),
            {"profiles"},
            {"controller", "decision"},
        ),
        (ANALYTIC_RUN, {"controller"}, set()),
    ],
)
def test_each_command_loads_only_its_layers(argv, loaded, absent, prior_zero_files, tmp_path):
    profile, cnf = prior_zero_files
    names = {"profile": profile, "cnf": cnf, "out": tmp_path / "out"}
    code, modules = modules_after([arg.format(**names) for arg in argv], tmp_path)
    assert code == 0
    assert loaded <= modules
    assert not absent & modules, absent & modules


@pytest.mark.parametrize(
    "field, value",
    [("heuristic", 5), ("n_clauses", [1])],
)
def test_run_profile_with_mistyped_context_is_usage_error(
    field, value, prior_zero_files, tmp_path, capsys
):
    profile, cnf = prior_zero_files
    doc = json.loads(profile.read_text())
    doc["context"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run_cli(
        "run", str(cnf), "--utilities", UTIL, "--profile", str(bad), "--strict"
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: context {field} must be ")


def test_malformed_profile_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "records": []}))
    assert run_cli("curve", "--profile", str(bad), "--out", str(tmp_path / "c.csv")) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_profile_is_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli("curve", "--profile", str(deep), "--out", str(tmp_path / "c.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: not valid JSON: ")
