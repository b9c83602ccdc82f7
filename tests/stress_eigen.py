"""Stress comparison of the default eigensolver with the dense oracle.

Runs ``generalized_smallest_eigs`` and its ``method="dense"`` oracle on 3000
graphs from the ``weighted_graphs`` strategy of ``test_eigen.py``: random
components with up to four exact copies of one of them, joined by no edges
or by edges of weight 1e-18, 1e-12 or 1e-9, so many eigenvalues repeat or
nearly repeat. A graph counts as wrong when ``oracle_mismatch`` of
``test_eigen.py`` reports a difference (an eigenvalue off by more than 1e-8,
or eigenvectors not D-orthonormal within 1e-8) or when the solve raises.
The draws are derandomized, so every run sees the same graphs. pytest does
not collect this file (its name does not start with ``test_``); run it on
its own, from the repository root:

    PYTHONPATH=src python tests/stress_eigen.py

It prints the counts and exits nonzero when any graph is wrong.
"""

import sys
import time

from hypothesis import HealthCheck, given, settings

from specmix import generalized_smallest_eigs
from test_eigen import oracle_mismatch, weighted_graphs

EXAMPLES = 3000


def main() -> int:
    seen, wrong = [], []

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
              database=None, suppress_health_check=list(HealthCheck))
    @given(weighted_graphs())
    def run(graph):
        w, k, _ = graph
        d = w.sum(axis=1)
        seen.append(1)
        try:
            problem = oracle_mismatch(generalized_smallest_eigs(w, d, k), w, d, k)
        except Exception as exc:  # a stable error code or a raw one: both wrong
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            wrong.append(f"n={w.shape[0]} k={k}: {problem}")

    start = time.perf_counter()
    run()
    for line in wrong[:20]:
        print(line)
    print(f"{len(wrong)} wrong of {len(seen)} graphs "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
