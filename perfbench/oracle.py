"""Independent computations that every output of the program is checked against.

Nothing here imports ``proverb``.  Instances reach this module as lists of
clauses of signed integers (DIMACS style: ``k + 1`` is symbol ``k``,
``-(k + 1)`` its negation), and each check derives the expected value its
own way:

* satisfiability from a bit-sliced truth table (one big integer per symbol
  column, no numpy, no path search);
* the first open path in depth-first order from a greedy walk that asks the
  truth table, clause by clause, whether the prefix still extends to a
  model; its lexicographic rank over the path count is the discovery
  fraction every search must report;
* priors, survival curves and posteriors by direct counts and by the urn
  product ``C(M - s, O) / C(M, O)``;
* the best action by an argmax over the utility table.

A failed check raises :class:`CheckError` with what was expected and what
the program gave.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

FLOAT_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, what: str, tol: float = FLOAT_TOL) -> None:
    expect(abs(float(a) - float(b)) <= tol, f"{what}: expected {b!r}, got {a!r}")


# ---------------------------------------------------------------------------
# Truth table and the first open path.


def _columns(k: int) -> tuple[list[int], int]:
    """Bit ``r`` of column ``v`` is bit ``v`` of row ``r``, for the 2**k rows."""
    rows = 1 << k
    full = (1 << rows) - 1
    cols = []
    for v in range(k):
        half = 1 << v
        block = ((1 << half) - 1) << half  # one period: 2**v zeros, 2**v ones
        period = half << 1
        cols.append(block * (full // ((1 << period) - 1)))
    return cols, full


def _literal_set(cols: list[int], full: int, lit: int) -> int:
    col = cols[abs(lit) - 1]
    return col if lit > 0 else full ^ col


def models(clauses: list[tuple[int, ...]], k: int) -> int:
    """Bit set of the rows (assignments) that satisfy every clause."""
    cols, full = _columns(k)
    alive = full
    for clause in clauses:
        sat = 0
        for lit in clause:
            sat |= _literal_set(cols, full, lit)
        alive &= sat
    return alive


def is_sat(clauses: list[tuple[int, ...]], k: int) -> bool:
    return models(clauses, k) != 0


def first_open_path(clauses: list[tuple[int, ...]], k: int) -> tuple[int, ...] | None:
    """Literal index per clause of the depth-first first open path, or None.

    A prefix extends to an open path exactly when some assignment makes all
    its literals true and satisfies every later clause; taking at each clause
    the leftmost literal that keeps this true gives the first open path.
    """
    cols, full = _columns(k)
    suffix = [full] * (len(clauses) + 1)
    for d in range(len(clauses) - 1, -1, -1):
        sat = 0
        for lit in clauses[d]:
            sat |= _literal_set(cols, full, lit)
        suffix[d] = suffix[d + 1] & sat
    if suffix[0] == 0:
        return None
    prefix = full
    chosen = []
    for d, clause in enumerate(clauses):
        for i, lit in enumerate(clause):
            narrowed = prefix & _literal_set(cols, full, lit)
            if narrowed & suffix[d + 1]:
                prefix = narrowed
                chosen.append(i)
                break
        else:  # unreachable: prefix & suffix[d] is never empty here
            raise CheckError("oracle walk lost its model")
    return tuple(chosen)


def path_count(clauses: list[tuple[int, ...]]) -> int:
    return prod(len(c) for c in clauses)


def path_rank(clauses: list[tuple[int, ...]], chosen: tuple[int, ...]) -> int:
    """Number of complete paths that come before ``chosen`` in depth-first order."""
    rank = 0
    below = 1
    for d in range(len(clauses) - 1, -1, -1):
        rank += chosen[d] * below
        below *= len(clauses[d])
    return rank


class Truth:
    """What the oracle knows about one instance."""

    __slots__ = ("clauses", "k", "sat", "rank", "total", "fraction")

    def __init__(self, clauses: list[tuple[int, ...]], k: int) -> None:
        self.clauses = clauses
        self.k = k
        self.total = path_count(clauses)
        chosen = first_open_path(clauses, k)
        self.sat = chosen is not None
        expect(self.sat == is_sat(clauses, k), "oracle walk and truth table disagree")
        self.rank = path_rank(clauses, chosen) if chosen is not None else self.total
        self.fraction = Fraction(self.rank, self.total)


def check_reordering(original: list[tuple[int, ...]], reordered: list[tuple[int, ...]], what: str) -> None:
    """A heuristic's matrix: the same clauses in the same order, each a permutation of its original."""
    expect(len(reordered) == len(original), f"{what}: {len(reordered)} clauses for {len(original)}")
    for d, (a, b) in enumerate(zip(original, reordered)):
        expect(sorted(a) == sorted(b), f"{what}: clause {d + 1} {b} is not a permutation of {a}")


def check_witness(clauses: list[tuple[int, ...]], witness: list[int]) -> None:
    """One literal taken from each clause in order, with no complementary pair."""
    expect(len(witness) == len(clauses), f"witness has {len(witness)} literals for {len(clauses)} clauses")
    for d, (lit, clause) in enumerate(zip(witness, clauses)):
        expect(lit in clause, f"witness literal {lit} is not in clause {d + 1}")
    lits = set(witness)
    expect(not any(-lit in lits for lit in lits), f"witness {witness} is closed")


def check_verdict(truth: Truth, sat: bool, fraction: Fraction, what: str) -> None:
    """A full search's verdict and where it ended: the rank, or all of the space."""
    expect(sat == truth.sat, f"{what}: verdict sat={sat}, truth table says sat={truth.sat}")
    expect(
        fraction == truth.fraction,
        f"{what}: fraction {fraction}, first open path is at {truth.fraction}",
    )


# ---------------------------------------------------------------------------
# Priors, curves, posteriors, actions.


def prior_of(truths: list[Truth]) -> Fraction:
    return Fraction(sum(1 for t in truths if not t.sat), len(truths))


def curve_at(fractions: list[Fraction], s: Fraction) -> Fraction:
    """Share of discovery fractions strictly beyond ``s``; 1 at ``s == 0``."""
    if s == 0 or not fractions:
        return Fraction(1)
    return Fraction(sum(1 for f in fractions if f > s), len(fractions))


def check_curve(value, fractions: list[Fraction], what: str) -> None:
    """``value(s)`` equals the direct count at the samples, between them and on a grid."""
    points = {Fraction(i, 64) for i in range(65)} | set(fractions)
    points |= {f + Fraction(1, 10**12) for f in fractions if f + Fraction(1, 10**12) <= 1}
    last = None
    for s in sorted(points):
        got = value(s)
        want = curve_at(fractions, s)
        expect(got == want, f"{what}: curve({s}) = {got}, direct count gives {want}")
        expect(last is None or got <= last, f"{what}: curve increases at {s}")
        last = got


def check_profile_doc(doc: dict, truths: list[Truth], what: str) -> None:
    """A profile file, read as JSON: its prior, and each record's verdict and fraction."""
    prior = prior_of(truths)
    expect(Fraction(doc["prior"]["num"], doc["prior"]["den"]) == prior, f"{what}: prior in the file")
    expect(len(doc["records"]) == len(truths) and doc["excluded"] == 0, f"{what}: records in the file")
    for i, (row, truth) in enumerate(zip(doc["records"], truths)):
        frac = Fraction(row["frac"]["num"], row["frac"]["den"])
        check_verdict(truth, row["sat"], frac, f"{what} record {i}")


def urn_survival(total: int, open_count: int, searched: int) -> Fraction:
    if searched > total - open_count:
        return Fraction(0)
    return Fraction(comb(total - searched, open_count), comb(total, open_count))


def urn_posterior(prior: Fraction, dist: dict[int, Fraction], total: int, searched: int) -> Fraction:
    survival = sum(p * urn_survival(total, o, searched) for o, p in dist.items())
    return prior / (prior + survival * (1 - prior))


def curve_posterior(prior: Fraction, fractions: list[Fraction], s: Fraction) -> Fraction:
    if prior == 0:
        return Fraction(0)
    survival = curve_at(fractions, s)
    return prior / (prior + survival * (1 - prior))


class Utilities:
    """Utility table and time pricing, kept apart from ``proverb.decision``."""

    def __init__(self, table, kind="zero", rate=0.0, deadline_at=0.0, penalty=0.0, tau=1.0):
        self.table = list(table)  # [(action, u_when_true, u_when_false), ...]
        self.kind = kind
        self.rate = rate
        self.deadline_at = deadline_at
        self.penalty = penalty
        self.tau = tau

    def spec(self) -> str:
        """The one-line text form the program's ``--utilities`` option reads."""
        bits = ["actions=" + ",".join(a for a, _, _ in self.table)]
        for a, ut, uf in self.table:
            bits += [f"u({a},w)={ut!r}", f"u({a},~w)={uf!r}"]
        if self.kind == "linear":
            bits.append(f"cost=linear:{self.rate!r}")
        elif self.kind == "deadline":
            bits.append(f"cost=deadline:{self.deadline_at!r}:{self.penalty!r}")
        bits.append(f"tau={self.tau!r}")
        return "; ".join(bits)

    def at(self, base: float, t: float) -> float:
        if self.kind == "deadline" and t > self.deadline_at:
            return self.penalty
        if self.kind == "linear":
            return base - self.rate * t
        return base

    def best(self, p: float, t: float = 0.0) -> tuple[str, float]:
        """First action of highest expected utility at belief ``p`` and time ``t``."""
        best_name, best_eu = None, None
        for name, ut, uf in self.table:
            eu = p * self.at(ut, t) + (1 - p) * self.at(uf, t)
            if best_eu is None or eu > best_eu + 1e-12:
                best_name, best_eu = name, eu
        return best_name, best_eu


def check_action(utils: Utilities, p: float, t: float, action: str, eu: float, what: str) -> None:
    want, want_eu = utils.best(p, t)
    expect(action == want, f"{what}: action {action!r} at posterior {p}, argmax is {want!r}")
    close(eu, want_eu, f"{what}: expected utility")


# ---------------------------------------------------------------------------
# Controller runs.


class RunRecord:
    """A controller run as plain values: from a trace object or a trace file."""

    def __init__(self, total, chunk, steps, stop, action, eu, posterior, t):
        self.total = total
        self.chunk = chunk
        self.steps = steps  # [(step, fraction, posterior, nevc, t), ...]
        self.stop = stop
        self.action = action
        self.eu = eu
        self.posterior = posterior
        self.t = t

    @classmethod
    def from_jsonl(cls, text: str) -> "RunRecord":
        """Read a trace file with the benchmark's own parser."""
        import json

        try:
            rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        except ValueError as exc:
            raise CheckError(f"trace file is not JSON lines: {exc}") from None
        expect(len(rows) >= 2, "trace file has no header and final record")
        head, final = rows[0], rows[-1]
        expect(head.get("kind") == "header", "trace file does not start with its header")
        expect(final.get("kind") == "final", "trace file does not end with its final record")
        steps = []
        for row in rows[1:-1]:
            expect(row.get("kind") == "step", f"unexpected trace record {row.get('kind')!r}")
            frac = Fraction(row["fraction"]["num"], row["fraction"]["den"])
            steps.append((row["step"], frac, row["posterior"], tuple(row["nevc"]), row["t"]))
        return cls(
            head["total"], head["chunk"], steps, final["stop_reason"],
            final["action"], final["eu"], final["posterior"], final["t"],
        )


def check_run(run: RunRecord, truth: Truth, belief, utils: Utilities, n_candidates: int, what: str) -> None:
    """Every recorded step and the stop against the oracle.

    ``belief`` is ``("analytic", prior, {open_count: weight})`` or
    ``("profile", prior, discovery_fractions)``.
    """
    expect(run.total == truth.total, f"{what}: total {run.total}, path count is {truth.total}")
    expect(run.steps, f"{what}: trace has no step")
    kind, prior, detail = belief
    last_closed = None
    last_post = None
    for i, (step, frac, post, nevc, t) in enumerate(run.steps):
        at = f"{what} step {i}"
        expect(step == i, f"{at}: numbered {step}")
        closed = frac * run.total
        expect(closed.denominator == 1, f"{at}: fraction {frac} is not a whole number of paths")
        closed = int(closed)
        if last_closed is None:
            expect(closed == 0, f"{at}: first step after {closed} paths")
        else:
            expect(
                closed - last_closed >= min(run.chunk, run.total - last_closed),
                f"{at}: searched {closed - last_closed} paths, chunk is {run.chunk}",
            )
        expect(closed <= truth.rank and closed < run.total, f"{at}: {closed} paths closed, first open path is at {truth.rank}")
        if kind == "analytic":
            want = urn_posterior(prior, detail, run.total, closed)
        else:
            want = curve_posterior(prior, detail, frac)
        close(post, want, f"{at}: posterior")
        expect(last_post is None or post >= last_post, f"{at}: posterior fell from {last_post} to {post}")
        close(t, closed * utils.tau, f"{at}: model time")
        last_step = i == len(run.steps) - 1
        if not (last_step and run.stop == "deadline_forced"):
            expect(len(nevc) == n_candidates, f"{at}: {len(nevc)} nevc values for {n_candidates} candidates")
        if not last_step:
            expect(max(nevc) > 0, f"{at}: search went on with max nevc {max(nevc)}")
        last_closed, last_post = closed, post

    if run.stop == "proof_of_not_w":
        expect(truth.sat, f"{what}: disproof reported, truth table says unsatisfiable")
        close(run.t, truth.rank * utils.tau, f"{what}: time of the disproof")
        expect(run.posterior == 0.0, f"{what}: posterior {run.posterior} after a disproof")
    elif run.stop == "proof_of_w":
        expect(not truth.sat, f"{what}: proof reported, truth table says satisfiable")
        close(run.t, truth.total * utils.tau, f"{what}: time of the proof")
        expect(run.posterior == 1.0, f"{what}: posterior {run.posterior} after a proof")
    elif run.stop == "nonpositive_evc":
        expect(max(run.steps[-1][3]) <= 0, f"{what}: stopped with positive nevc")
        expect(run.posterior == run.steps[-1][2], f"{what}: final posterior differs from the last step")
        close(run.t, run.steps[-1][4], f"{what}: stop time")
    elif run.stop == "deadline_forced":
        expect(utils.kind == "deadline", f"{what}: deadline stop without a deadline")
        expect(run.steps[-1][3] == (), f"{what}: deadline step priced candidates")
        closed = int(run.steps[-1][1] * run.total)
        nxt = min(run.chunk, run.total - closed) * utils.tau
        expect(run.steps[-1][4] + nxt > utils.deadline_at, f"{what}: next chunk still fits the deadline")
        expect(run.posterior == run.steps[-1][2], f"{what}: final posterior differs from the last step")
    else:
        raise CheckError(f"{what}: unknown stop reason {run.stop!r}")
    check_action(utils, run.posterior, run.t, run.action, run.eu, what)
