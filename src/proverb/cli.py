"""Command-line front end.

Subcommands: gen, prove, profile, curve, decide, run, compare-heuristic.
Exit codes: 0 success (including a terminal proof), 2 parse/configuration
error, 3 budget exhausted while still running, 4 context mismatch under
--strict.

Each subcommand imports only the layers it runs, inside its handler:
``prove`` never loads the belief or decision layers, ``decide --posterior``
never loads the search kernel, and only ``run`` loads the controller.  A
command runs in a fresh interpreter, where start-up is most of its time.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNNING = 3
EXIT_CONTEXT = 4

_USER_ERRORS = (ValueError, OSError)  # every input error subclasses ValueError


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


_MAX_DIGITS = 4300  # the default of Python's own digit limit for int() and str()


def _parse_fraction(text: str) -> Fraction:
    # Fraction expands a decimal exponent exactly: 1e-4000000 would build a
    # four-million-digit denominator before the range check.  A value within
    # the exponent bound must still fit the digit limit once reduced, as a
    # trace or profile writes its numerator and denominator in decimal.
    if len(text) > _MAX_DIGITS:  # int() would refuse its digits
        raise ValueError(f"a number of {len(text)} characters exceeds {_MAX_DIGITS} digits")
    _, _, exponent = text.lower().partition("e")
    try:
        huge = abs(int(exponent)) > _MAX_DIGITS
    except ValueError:  # no integer exponent: Fraction names the fault
        huge = False
    if huge:
        raise ValueError(f"{text!r} has an exponent beyond {_MAX_DIGITS}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    if not 0 <= value <= 1:
        raise ValueError(f"{text!r} outside [0, 1]")
    if value.denominator >= 10**_MAX_DIGITS:  # the numerator is no larger
        raise ValueError(f"{text!r} needs more than {_MAX_DIGITS} digits")
    return value


def _parse_open_paths(text: str):
    """'3' -> 3;  '1:0.5,2:0.5' -> [(1, Fraction(1,2)), (2, Fraction(1,2))].

    A repeated count is left for the source to refuse, with the rest of the
    distribution's checks.
    """
    if ":" not in text:
        return int(text)
    pairs = []
    for part in text.split(","):
        count, _, weight = part.partition(":")
        if not weight:
            raise ValueError(f"bad open-path entry {part!r} (want COUNT:PROB)")
        weight = _parse_fraction(weight)
        pairs.append((int(count), weight))
    return pairs


def _parse_lookaheads(text: str) -> tuple:
    from .controller import FULL_LOOKAHEAD

    parts = [part.strip() for part in text.split(",")]
    out = tuple(part if part == FULL_LOOKAHEAD else int(part) for part in parts if part)
    if not out:
        raise ValueError("empty lookahead list")
    return out


def _instance_context(meta: dict, heuristic):
    from .belief import ContextTag

    def _int(key):
        try:
            return int(meta[key])
        except (KeyError, ValueError):
            return None

    return ContextTag(
        n_clauses=_int("n_clauses"),
        lits_per_clause=_int("lits_per_clause"),
        alphabet_size=_int("alphabet_size"),
        seed=_int("seed"),
        heuristic=heuristic.value,
    )


def _family(args):
    from .generator import GeneratorConfig

    return GeneratorConfig(args.clauses, args.lits, args.alphabet, args.seed)


def _collect(args, corpus, heuristic):
    """Profile the family's corpus; ``collect`` tags it with the count and heuristic."""
    from .belief import ContextTag
    from .profiles import collect

    context = ContextTag(args.clauses, args.lits, args.alphabet, args.seed)
    return collect(corpus, heuristic, context=context, step_cap=args.step_cap)


def _read_instance(args):
    """The DIMACS file's matrix (presorted under --presort), header and heuristic."""
    from .dimacs import read_dimacs
    from .heuristics import Heuristic

    matrix, meta = read_dimacs(args.file)
    heuristic = Heuristic.PRESORT if args.presort else Heuristic.NONE
    return heuristic.apply(matrix), meta, heuristic


def _gen(args) -> int:
    from .generator import write_corpus

    paths = write_corpus(_family(args), args.count, args.out, args.prefix)
    print(f"wrote {len(paths)} instances to {args.out}")
    return EXIT_OK


def _prove(args) -> int:
    from .matrix import SearchState, SearchStatus, step_search

    matrix, _meta, _heuristic = _read_instance(args)
    state = SearchState(matrix)
    if state.status is SearchStatus.RUNNING:
        step_search(state, state.total if args.budget is None else args.budget)

    status = {
        SearchStatus.EXHAUSTED: "W_TRUE",
        SearchStatus.OPEN_FOUND: "W_FALSE",
        SearchStatus.RUNNING: "RUNNING",
    }[state.status]
    print(f"status: {status}")
    if state.total > 0:
        frac = Fraction(state.closed, state.total)
        print(f"fraction: {frac.numerator}/{frac.denominator} ({float(frac):.6f})")
    else:
        # Vacuously covered: an empty clause admits no path at all.
        print("fraction: 1/1 (1.000000)")
    print(f"closures: {state.closure_count}")
    if state.status is SearchStatus.OPEN_FOUND:
        ints = [
            (-1 if lit.negated else 1) * (lit.symbol_id + 1) for lit in state.witness
        ]
        print("witness: " + " ".join(str(v) for v in ints))
    return EXIT_OK if state.status is not SearchStatus.RUNNING else EXIT_RUNNING


def _profile(args) -> int:
    from .generator import generate_corpus
    from .heuristics import Heuristic
    from .profiles import save

    corpus = generate_corpus(_family(args), args.count)
    heuristic = Heuristic.PRESORT if args.presort else Heuristic.NONE
    profile = _collect(args, corpus, heuristic)
    save(profile, args.out)
    print(
        f"profile over {len(profile.records)} instances "
        f"(excluded {profile.excluded}): prior {profile.prior} "
        f"({float(profile.prior):.4f}) -> {args.out}"
    )
    return EXIT_OK


def _curve(args) -> int:
    from .profiles import export_curve_csv, load

    profile = load(args.profile)
    override = _parse_fraction(args.prior) if args.prior is not None else None
    Path(args.out).write_bytes(export_curve_csv(profile, override).encode("ascii"))
    print(f"wrote curve table to {args.out}")
    return EXIT_OK


_DECIDE_FORMS = (("posterior",), ("prior", "survival"), ("profile", "fraction"))


def _decide(args) -> int:
    from . import decision
    from .belief import posterior

    utilities, timecost = decision.parse_utility_spec(args.utilities)
    # Exactly one input form, given whole, and no flag of another.
    given = [[getattr(args, flag) is not None for flag in form] for form in _DECIDE_FORMS]
    if sum(map(any, given)) != 1 or not any(map(all, given)):
        return _fail(
            "give exactly one of --posterior, --prior with --survival, "
            "or --profile with --fraction"
        )
    if args.posterior is not None:
        post = _parse_fraction(args.posterior)
    elif args.prior is not None:
        post = Fraction(*posterior(_parse_fraction(args.prior), _parse_fraction(args.survival)))
    else:
        from .profiles import load

        profile = load(args.profile)
        s = _parse_fraction(args.fraction)
        post = Fraction(*profile.posterior_at(s.denominator, s.numerator))
    print(f"posterior: {float(post):.6f}")
    try:
        print(f"p*: {decision.threshold(utilities):.6f}")
    except decision.DominanceError as exc:
        print(f"p*: undefined ({exc})")
    action, eu = decision.best_action(post, utilities, timecost)
    print(f"action: {action}")
    print(f"eu: {eu:.6f}")
    return EXIT_OK


def _run(args) -> int:
    from . import controller
    from .belief import context_mismatches
    from .decision import parse_utility_spec
    from .matrix import total_paths
    from .profiles import load

    matrix, meta, heuristic = _read_instance(args)
    utilities, timecost = parse_utility_spec(args.utilities)

    if (args.profile is None) == (args.analytic is None):
        return _fail("give exactly one of --profile or --analytic (with --prior)")
    if (args.prior is None) != (args.analytic is None):
        return _fail("--analytic needs --prior, and --profile takes none (it has its own)")
    if args.strict and args.profile is None:
        return _fail("--strict checks a profile's context; it needs --profile")
    if args.profile is not None:
        profile = load(args.profile)
        source = controller.ProfileSource(profile)
        instance_ctx = _instance_context(meta, heuristic)
        bad = context_mismatches(profile.context, instance_ctx)
        if bad:
            detail = ", ".join(
                f"{name}: {getattr(profile.context, name)!r} "
                f"!= {getattr(instance_ctx, name)!r}"
                for name in bad
            )
            print(
                f"warning: profile context does not match instance context ({detail})",
                file=sys.stderr,
            )
            if args.strict:
                print("error: context mismatch under --strict", file=sys.stderr)
                return EXIT_CONTEXT
    else:
        source = controller.AnalyticSource(
            _parse_fraction(args.prior), _parse_open_paths(args.analytic)
        )

    total = total_paths(matrix)
    chunk = args.chunk if args.chunk is not None else max(1, total // 100)
    lookaheads = _parse_lookaheads(args.lookahead) if args.lookahead else ()
    config = controller.ControllerConfig(
        chunk=chunk,
        utilities=utilities,
        timecost=timecost,
        source=source,
        lookaheads=lookaheads,
    )
    trace = controller.run(matrix, config)
    if args.out:
        controller.save_trace(trace, args.out)
    print(
        f"stop: {trace.stop_reason.value} after {len(trace.steps)} steps; "
        f"action {trace.action}, eu {trace.eu:.6f}, "
        f"posterior {trace.final_posterior:.6f}"
        + (f"; trace -> {args.out}" if args.out else "")
    )
    return EXIT_OK


def _compare(args) -> int:
    from .generator import generate_corpus
    from .heuristics import Heuristic
    from .profiles import export_curve_csv, save

    corpus = generate_corpus(_family(args), args.count)
    plain = _collect(args, corpus, Heuristic.NONE)
    sorted_ = _collect(args, corpus, Heuristic.PRESORT)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save(plain, out_dir / "profile_none.json")
    save(sorted_, out_dir / "profile_presort.json")
    # Same s column in both tables: keep plain's, then presort's other two.
    rows = zip(*(export_curve_csv(p).splitlines()[1:] for p in (plain, sorted_)))
    lines = ["s,survival_none,posterior_none,survival_presort,posterior_presort"]
    lines += [f"{a},{b.partition(',')[2]}" for a, b in rows]
    (out_dir / "curves.csv").write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    print(
        f"priors: none {float(plain.prior):.4f}, presort {float(sorted_.prior):.4f}; "
        f"wrote {out_dir}/profile_none.json, profile_presort.json, curves.csv"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proverb",
        description="budgeted open-path proving with value-of-computation stopping",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An instance family and where its output goes; then how to profile it.
    family = argparse.ArgumentParser(add_help=False)
    for flag in ("--clauses", "--lits", "--alphabet", "--seed", "--count"):
        family.add_argument(flag, type=int, required=True)
    family.add_argument("--out", required=True)
    collecting = argparse.ArgumentParser(add_help=False, parents=[family])
    collecting.add_argument("--step-cap", type=int, default=None)

    p = sub.add_parser("gen", parents=[family], help="write a random DIMACS corpus")
    p.add_argument("--prefix", default="matrix")
    p.set_defaults(handler=_gen)

    p = sub.add_parser("prove", help="search one DIMACS file for an open path")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None, help="path budget (default: run to proof)")
    p.add_argument("--presort", action="store_true")
    p.set_defaults(handler=_prove)

    p = sub.add_parser(
        "profile",
        parents=[collecting],
        help="collect a prior + survival curve over a corpus",
    )
    p.add_argument("--presort", action="store_true")
    p.set_defaults(handler=_profile)

    p = sub.add_parser("curve", help="export a profile's survival/posterior table")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prior", default=None, help="override the profile prior")
    p.set_defaults(handler=_curve)

    p = sub.add_parser("decide", help="best action for a posterior and utility spec")
    p.add_argument("--utilities", required=True)
    p.add_argument("--posterior", default=None)
    p.add_argument("--prior", default=None)
    p.add_argument("--survival", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--fraction", default=None)
    p.set_defaults(handler=_decide)

    p = sub.add_parser("run", help="deliberation-controlled proving of one file")
    p.add_argument("file")
    p.add_argument("--utilities", required=True)
    p.add_argument("--profile", default=None)
    p.add_argument("--analytic", default=None, help="open paths: '3' or '1:0.5,2:0.5'")
    p.add_argument("--prior", default=None)
    p.add_argument("--chunk", type=int, default=None)
    p.add_argument("--lookahead", default=None, help="e.g. '1000,full'")
    p.add_argument("--presort", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None, help="trace file (JSON lines)")
    p.set_defaults(handler=_run)

    p = sub.add_parser(
        "compare-heuristic",
        parents=[collecting],
        help="paired plain/presort profiles on one corpus",
    )
    p.set_defaults(handler=_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
