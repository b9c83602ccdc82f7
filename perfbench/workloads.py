"""Workload definitions shared by the orchestrator and the child process.

A workload is a fixed list of problems. Each problem runs in its own fresh
interpreter (``child.py``), so its peak RSS is its own. The problems only
receive inputs generated from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SWEEP_METHODS = ("specmix", "onlycat", "kmodes", "kprototypes",
                 "numeric-spectral")


@dataclass(frozen=True)
class Problem:
    """One unit of work: ``kind`` selects how the child runs it."""

    name: str
    kind: str  # "sweep" | "pipeline" | "cli"
    params: dict = field(default_factory=dict)


WORKLOADS: dict[str, tuple[Problem, ...]] = {
    # The paper's experiment path: every spectral solve has dim <= 1024, so
    # the dense eigensolver dominates; the only workload that runs the
    # baselines and the sweep's CSV bookkeeping. K=8 stays in on purpose:
    # its spectral rows fail at this commit (see NOTES.md).
    "sweep-small": (
        Problem("sweep", "sweep", dict(
            n=(500,), k=(2, 4, 8), q=(3,), sigma=(0.5, 1.0), p=(0.25,),
            lam=(0.0, 10.0, 50.0), methods=SWEEP_METHODS, reps=2)),
    ),
    # Above the dense cutoff: Lanczos on the operator, the n x n graph build
    # dominates time and sets peak RSS.
    "mixed-large": (
        Problem("specmix", "pipeline", dict(
            method="specmix", n=4000, k=4, q=3, sigma=1.0, p=0.25, lam=50.0)),
        Problem("numeric_spectral", "pipeline", dict(
            method="numeric_spectral", n=4000, k=4, q=3, sigma=1.0, p=0.25,
            lam=50.0)),
    ),
    # The linear-in-n path users run on files: CSV parsing plus K-means on
    # heavily duplicated rows (64 distinct category tuples in 400k rows).
    "cat-cli": (
        Problem("cli-onlycat", "cli", dict(
            n=400_000, k=4, q=3, sigma=1.0, p=0.25)),
    ),
    # Counterpart to cat-cli: K-means sees mostly distinct rows, so a change
    # that only pays off on duplicated rows shows its cost here.
    "cat-distinct": (
        Problem("onlycat", "pipeline", dict(
            method="onlycat", n=60_000, k=16, q=8, sigma=1.0, p=0.3,
            lam=1.0)),
    ),
}
