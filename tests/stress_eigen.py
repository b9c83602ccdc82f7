"""Stress comparison of the eigensolver with the dense oracle.

Runs ``generalized_smallest_eigs`` on two fixed sets of problems
from ``test_eigen.py`` and compares each solve with ``dense_oracle``:

- 3000 graphs from ``weighted_graphs``: random components with up to four
  exact copies of one of them, joined by no edges or by edges of weight
  1e-18, 1e-12 or 1e-9, so many eigenvalues repeat or nearly repeat;
- 500 bipartite reductions from ``bipartite_reductions``: the t x t matrix
  that ``transfer_cut`` solves, of random codes whose rows fall in up to
  four groups of categories that never co-occur, some of them exact copies.

A problem counts as wrong when ``oracle_mismatch`` of ``test_eigen.py``
reports a difference (an eigenvalue off by more than 1e-8, or eigenvectors
not D-orthonormal within 1e-8) or when the solve raises. Each set is drawn
from a fixed seed, its example count, so every run sees the same problems
whatever the source of this file (a derandomized draw alone is seeded from
the test function's source, and any edit of it redraws the set). For each
set it also prints the summed ``EigenPairs.products`` of its solves, which
tells two versions of the solver apart solve for solve. pytest does not
collect this file (its name does not start with ``test_``); run it on its
own, from the repository root:

    PYTHONPATH=src python tests/stress_eigen.py

It prints the counts and exits nonzero when any problem is wrong.
"""

import sys
import time

from hypothesis import HealthCheck, given, seed, settings

from specmix import generalized_smallest_eigs
from test_eigen import bipartite_reductions, oracle_mismatch, weighted_graphs


def graph_problem(graph):
    w, k, _ = graph
    return w, w.sum(axis=1), k


# name: (strategy drawing (w, d, k), examples)
EXAMPLES = {"graphs": (weighted_graphs().map(graph_problem), 3000),
            "bipartite reductions": (bipartite_reductions(), 500)}


def stress(problems, examples: int) -> tuple[int, int, list[str]]:
    """Solve ``examples`` problems (w, d, k) drawn from the strategy
    ``problems``; return their count, the summed products of the solves
    that returned and a line for each wrong one."""
    seen, products, wrong = [], [], []

    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None, suppress_health_check=list(HealthCheck))
    @given(problems)
    @seed(examples)
    def run(problem):
        w, d, k = problem
        seen.append(1)
        try:
            pairs = generalized_smallest_eigs(w, k)
            products.append(pairs.products)
            mismatch = oracle_mismatch(pairs, w, d, k)
        except Exception as exc:  # a stable error code or a raw one: both wrong
            mismatch = f"raised {type(exc).__name__}: {exc}"
        if mismatch is not None:
            wrong.append(f"n={w.shape[0]} k={k}: {mismatch}")

    run()
    return len(seen), sum(products), wrong


def main() -> int:
    failed = False
    for name, (problems, examples) in EXAMPLES.items():
        start = time.perf_counter()
        seen, products, wrong = stress(problems, examples)
        for line in wrong[:20]:
            print(line)
        print(f"{len(wrong)} wrong of {seen} {name}, {products} products, "
              f"in {time.perf_counter() - start:.1f} s")
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
