"""Byte-identity pins for every file the package writes, and for the demos.

Each test writes a file through the public API and compares its sha256
digest with a recorded constant.  A refactor that keeps these digests keeps
the profile, curve, compare and trace formats byte for byte; a deliberate
change of format, or of the values computed, must update the constant
alongside the code.  Trace files are compared with the advisory
``wall_time`` removed, because it is the only value that differs between
two runs.  The five scripts under ``demos/`` are deterministic, so their
stdout is pinned the same way, and so is one scripted command-line session:
every subcommand's exit code, stdout, stderr and written files.
"""

import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from proverb.belief import ContextTag
from proverb.cli import main
from proverb.controller import (
    AnalyticSource,
    ControllerConfig,
    ProfileSource,
    _deliberate,
    run,
    save_trace,
)
from proverb.decision import TimeCost, UtilityModel, parse_utility_spec
from proverb.generator import GeneratorConfig, generate_corpus
from proverb.heuristics import Heuristic
from proverb.profiles import collect, export_curve_csv, save

# Profiles are pinned on a family whose corpus is all satisfiable (prior 0);
# the compare table and the traces on one with both verdicts.
FAMILY = (12, 3, 4)
SEED = 7
COUNT = 30
MIXED = (16, 3, 4)
MIXED_SEED = 11

PROFILE_NONE = "a789e4f4b1ed2446a7e88c8e5069b7b8f90665d8c36900c1635971cf14de5bf8"
PROFILE_PRESORT = "204c283ce0da962533cef70fc93d11726b0f866698e0e5c0a08a1e4cceb2d025"
CURVE = "119f69797d4c94d04c0ea9d70472d80eea48a81670fc7b13a33c41d55b5c0813"
CURVE_PRIOR_OVERRIDE = "319928a559d028385d91f5239f9676fe5164a073f92df2038a6492b656ad252b"
COMPARE_CSV = "f25e808fd76d50660affd43113c1ca179c50bc2f9ffb8f59b25cfee0f2223881"
TRACE_ANALYTIC = "98ed41cbbcd198047d593dcdbb9d4228369e160bb05ff6c691ed3df92690afa1"
TRACE_MIXTURE = "0a89890f70957401b9a168934628f31dbc54f1e3d6bf2ae202d65e61a22062f8"
TRACE_PROFILE = "441405c6bfaa870a34039386279384c76c4cf49e1b896bb3d1ef7cd16424284b"
PRICING = "28ac50a435b6dc256feee1f559fe6a144ed0442e03f7a79ec799d70976a3e77c"
CLI_SESSION = "47dd0c9f046fd4f39f999bab6410689c14bac7d08cf9a1b8295392013921baaa"

ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "01_path_search.py": "2c5b074eb029791f4e5babd181d47b9c379685c5866592effe4afbd87e024d21",
    "02_survival_profiles.py": "06c504adf59e97366fbf30afb9d85056ec580a55abb4cbe5601210cdb9587760",
    "03_posterior_updating.py": "15c244a009b7ca1e5ae8d89e93b7f5a01f4609461d093ad0b6a0b12add199217",
    "04_stopping_controller.py": "7ff24fd3c555cf3aeae3daf2dc423afb50ce87c691cd171c3f20400cf2fea1ba",
    "05_presort_comparison.py": "3fc87c23495d7fe5cdba14e99fa6cfb1bd1e50e1a22960382fb91d62f2a49380",
}

ACT = UtilityModel.from_pairs({"act_w": (1.0, 0.0), "act_not_w": (0.0, 1.0)})
COST = TimeCost.linear(1e-9)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GeneratorConfig(*FAMILY, SEED), COUNT)


@pytest.fixture(scope="module")
def plain_profile(corpus):
    context = ContextTag(*FAMILY, SEED, COUNT, Heuristic.NONE.value)
    return collect(corpus, Heuristic.NONE, context=context)


@pytest.fixture(scope="module")
def mixed_corpus():
    return generate_corpus(GeneratorConfig(*MIXED, MIXED_SEED), COUNT)


@pytest.fixture(scope="module")
def mixed_profile(mixed_corpus):
    context = ContextTag(*MIXED, MIXED_SEED, COUNT, Heuristic.NONE.value)
    return collect(mixed_corpus, Heuristic.NONE, context=context)


@pytest.mark.parametrize(
    "heuristic, expected",
    [(Heuristic.NONE, PROFILE_NONE), (Heuristic.PRESORT, PROFILE_PRESORT)],
)
def test_profile_bytes(corpus, tmp_path, heuristic, expected):
    context = ContextTag(*FAMILY, SEED, COUNT, heuristic.value)
    path = tmp_path / "profile.json"
    save(collect(corpus, heuristic, context=context), path)
    assert digest(path.read_bytes()) == expected


def test_curve_bytes(plain_profile):
    assert plain_profile.prior == 0
    assert digest(export_curve_csv(plain_profile).encode("ascii")) == CURVE
    override = export_curve_csv(plain_profile, Fraction(1, 3)).encode("ascii")
    assert digest(override) == CURVE_PRIOR_OVERRIDE


def test_compare_csv_bytes(tmp_path, capsys):
    code = main([
        "compare-heuristic", "--clauses", str(MIXED[0]), "--lits", str(MIXED[1]),
        "--alphabet", str(MIXED[2]), "--seed", str(MIXED_SEED), "--count", str(COUNT),
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert digest((tmp_path / "curves.csv").read_bytes()) == COMPARE_CSV


def trace_digest(corpus, source, path) -> str:
    # The first unsatisfiable instance runs the most deliberation steps.
    matrix = next(m for m in corpus if collect([m]).prior == 1)
    chunk = 3 ** MIXED[0] // 40
    config = ControllerConfig(
        chunk=chunk,
        utilities=ACT,
        timecost=COST,
        source=source,
        lookaheads=(chunk, 10 * chunk, "full"),
    )
    save_trace(run(matrix, config), path)
    text = re.sub(r', "wall_time": [^,}]+', "", path.read_text())
    return digest(text.encode("ascii"))


@pytest.mark.parametrize(
    "open_paths, expected",
    [
        (3, TRACE_ANALYTIC),
        ({1: Fraction(1, 4), 8: Fraction(1, 4), 64: Fraction(1, 2)}, TRACE_MIXTURE),
    ],
)
def test_analytic_trace_bytes(mixed_corpus, tmp_path, open_paths, expected):
    source = AnalyticSource(Fraction(1, 2), open_paths)
    assert trace_digest(mixed_corpus, source, tmp_path / "trace.jsonl") == expected


def test_profile_trace_bytes(mixed_corpus, mixed_profile, tmp_path):
    assert 0 < mixed_profile.prior < 1
    source = ProfileSource(mixed_profile)
    assert trace_digest(mixed_corpus, source, tmp_path / "trace.jsonl") == TRACE_PROFILE


BET_HEDGE = (
    "actions=publish,withdraw; u(publish,w)=1; u(publish,~w)=0; "
    "u(withdraw,w)=0; u(withdraw,~w)=1"
)
HALF = Fraction(1, 2)
MIXTURE = {1: HALF, 3: Fraction(1, 4), 9: Fraction(1, 4)}
# The benchmark's four step configurations on its 3^14 paths, chunk 1/32 of
# them and tau 1e-6, with this module's profile for the profile source; and
# the packaging smoke test's mixture run on 256 paths.  Each is (total,
# chunk, open paths or None for the profile, cost and tau, lookaheads).
DELIBERATE = 3**14
STEP_CONFIGS = [
    (DELIBERATE, DELIBERATE // 32, 1, "cost=zero; tau=1e-6", (1, "full")),
    (DELIBERATE, DELIBERATE // 32, MIXTURE, "cost=linear:0.05; tau=1e-6", (1, 4, "full")),
    (DELIBERATE, DELIBERATE // 32, None, "cost=linear:0.02; tau=1e-6", (1, "full")),
    (DELIBERATE, DELIBERATE // 32, 1, "cost=deadline:2.0:-1.0; tau=1e-6", (1, "full")),
    (256, 4, MIXTURE, "cost=linear:0.1; tau=0.01", (1, 4, "full")),
]


def test_step_values(mixed_profile):
    # Every value of the step rule on a grid of closed counts: 0, each chunk
    # boundary, both sides of the count where the next chunk first misses the
    # deadline and of its last in-time path, and the last path.  A last-bit
    # drift in the posterior, the pricing or the clock fails here even where
    # no trace reaches it.
    rows = []
    for total, chunk, open_paths, cost, looks in STEP_CONFIGS:
        utilities, timecost = parse_utility_spec(f"{BET_HEDGE}; {cost}")
        if open_paths is None:
            source = ProfileSource(mixed_profile)
        else:
            source = AnalyticSource(HALF, open_paths)
        lookaheads = tuple(x if x == "full" else x * chunk for x in looks)
        config = ControllerConfig(chunk, utilities, timecost, source, lookaheads)
        last = timecost.paths_in_time(0, total)
        grid = {0, total - 1, *range(chunk, total, chunk)}
        grid |= {c for c in (last - chunk, last - chunk + 1, last - 1, last) if 0 <= c < total}
        rows += [f"{closed} {_deliberate(config, total, closed)!r}\n" for closed in sorted(grid)]
    assert digest("".join(rows).encode("ascii")) == PRICING


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_stdout(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, check=True,
    )
    assert digest(result.stdout) == DEMOS[script]


UTIL = (
    "actions=act_w,act_not_w; u(act_w,w)=1; u(act_w,~w)=0; "
    "u(act_not_w,w)=0; u(act_not_w,~w)=1"
)
FAMILY_FLAGS = ["--clauses", "8", "--lits", "2", "--alphabet", "4", "--seed", "10"]
CNF, PROFILE = "{tmp}/corpus/matrix_0.cnf", "{tmp}/profile.json"
LINEAR = UTIL + "; cost=linear:0.004"
# One argv per command; ``{tmp}`` stands for the session directory.
SESSION = [
    ["gen", *FAMILY_FLAGS, "--count", "4", "--out", "{tmp}/corpus"],
    ["prove", CNF],
    ["prove", CNF, "--budget", "5"],
    ["prove", CNF, "--presort"],
    ["profile", *FAMILY_FLAGS, "--count", "12", "--out", PROFILE],
    ["curve", "--profile", PROFILE, "--out", "{tmp}/curve.csv"],
    ["curve", "--profile", PROFILE, "--out", "{tmp}/curve13.csv", "--prior", "1/3"],
    ["decide", "--utilities", UTIL, "--posterior", "0.7"],
    ["decide", "--utilities", UTIL, "--prior", "0.3", "--survival", "0.2"],
    ["decide", "--utilities", UTIL, "--profile", PROFILE, "--fraction", "1/2"],
    ["run", CNF, "--utilities", LINEAR, "--analytic", "3", "--prior", "1/2",
     "--chunk", "1", "--lookahead", "1,full", "--out", "{tmp}/analytic.jsonl"],
    ["run", CNF, "--utilities", LINEAR, "--profile", PROFILE, "--chunk", "4",
     "--out", "{tmp}/profile.jsonl"],
    ["run", CNF, "--utilities", UTIL, "--profile", PROFILE, "--presort", "--strict"],
    ["compare-heuristic", *FAMILY_FLAGS, "--count", "12", "--out", "{tmp}/cmp"],
    ["prove", "{tmp}/bad.cnf"],
]


def test_cli_session_bytes(tmp_path, capsys):
    (tmp_path / "bad.cnf").write_text("p cnf 2 1\n1 x 0\n")
    record = []
    for argv in SESSION:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        out, err = capsys.readouterr()
        record.append(f"$ {' '.join(argv)}\nexit {code}\n{out}--- stderr\n{err}")
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        text = re.sub(r', "wall_time": [^,}]+', "", path.read_text())
        record.append(f"# {path.relative_to(tmp_path)}\n{text}")
    session = "".join(record).replace(str(tmp_path), "{tmp}")
    assert digest(session.encode("ascii")) == CLI_SESSION
