"""Walk the path search by hand on a four-clause matrix.

A claim w is checked by negating it: the clauses below are the CNF of ~w.
Every path (one literal per clause) that contains a complementary pair is
contradictory, hence closed.  If every path closes, ~w is impossible and w
is proved; one open path is a countermodel and disproves w.
"""

from proverb.matrix import (
    Matrix,
    SearchState,
    SearchStatus,
    fraction_explored,
    literals,
    solve,
    step_search,
    total_paths,
)


def show(matrix):
    for i, clause in enumerate(matrix.clauses, start=1):
        print(f"  clause {i}: " + " | ".join(map(str, clause)))


def main():
    matrix = Matrix(
        (
            literals(0, 1),
            literals((0, True), 2),
            literals((1, True), (2, True)),
            literals(0, 2),
        ),
        alphabet_size=3,
    )
    print("matrix (CNF of the negated claim):")
    show(matrix)
    print(f"path space: {total_paths(matrix)} complete paths\n")

    # A closure at clause c prunes the paths through the later clauses, all
    # two wide here: tails[c] of them, so the pruned count names the clause.
    n = matrix.n_clauses
    tails = [2 ** (n - c) for c in range(n + 1)]
    state = SearchState(matrix)
    while state.status is SearchStatus.RUNNING:
        before = state.closed
        step_search(state, 1)  # a budget of one path stops after one closure
        pruned = state.closed - before
        if pruned:
            print(
                f"closed branch at clause {tails.index(pruned)}: "
                f"pruned {pruned} path(s), "
                f"{state.closed}/{state.total} done "
                f"(fraction {fraction_explored(state)})"
            )

    print(f"\nverdict: {state.status.value}")
    if state.status is SearchStatus.OPEN_FOUND:
        print("open path found, the claim is false; countermodel literals:")
        print("  " + ", ".join(str(lit) for lit in state.witness))
        print("(each literal read as an assignment: x0 means x0=true,")
        print(" ~x2 means x2=false; unmentioned symbols are free)")
    else:
        print("every path closed: the claim is a theorem")

    # Second act: pin the countermodel down with one more clause and the
    # whole path space closes; every path is pruned exactly once.
    theorem = Matrix(
        matrix.clauses + (literals((0, True), (2, True)),),
        alphabet_size=3,
    )
    print("\nadding clause 5: ~x0 | ~x2 and starting over:")
    state = solve(theorem)
    print(f"verdict: {state.status.value}")
    print(f"pruned path total {state.closed} == path space {state.total}")


if __name__ == "__main__":
    main()
