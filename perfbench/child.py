"""Run one benchmark problem in a fresh interpreter and report it as JSON.

Started by ``run.py`` as ``python3 perfbench/child.py '<spec json>'``. The
spec names the workload, the problem index, the seed, whether to trace,
and a scratch directory inside the checkout.

Set-up is importing ``specmix`` from the checkout's ``src/`` and generating
the inputs; it ends at ``ready_at``, a CLOCK_MONOTONIC timestamp that the
parent compares with its own spawn time. Only the problem's call is timed;
the output checks run after it. The last stdout line is the report.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from checks import (check_json_round_trip, check_labels, check_sweep_rows,
                    weighted_purity)
from tracer import Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``specmix`` from this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import specmix
    found = Path(specmix.__file__).resolve().parent
    if found != (src / "specmix").resolve():
        raise SystemExit(f"specmix imported from {found}, not from {src}")
    return specmix


def environment(sm) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "specmix": getattr(sm, "__version__", "?")}


def write_categorical_csv(path: Path, categorical, labels) -> None:
    """Write single-digit category codes plus the label as a headed CSV."""
    cols = np.column_stack([categorical, labels])
    if cols.min() < 0 or cols.max() > 9:
        raise ValueError("codes must be single digits")
    buf = np.empty((cols.shape[0], 2 * cols.shape[1]), dtype=np.uint8)
    buf[:, 0::2] = cols + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    header = [f"cat{j}" for j in range(categorical.shape[1])] + ["label"]
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        buf.tofile(handle)


class SweepProblem:
    def __init__(self, sm, params, seed, workdir):
        self.sm = sm
        self.params = params
        self.grid = sm.ExperimentGrid(
            n_values=params["n"], k_values=params["k"], q_values=params["q"],
            sigma_values=params["sigma"], p_values=params["p"],
            lambda_values=params["lam"], methods=params["methods"],
            repetitions=params["reps"], seed=seed)
        self.out = workdir / "results.csv"

    def run(self):
        self.sm.sweep.run_sweep(self.grid, self.out, workers=1)

    def check(self) -> dict:
        p = self.params
        cells = (len(p["n"]) * len(p["k"]) * len(p["q"]) * len(p["sigma"])
                 * len(p["p"]) * p["reps"])
        expected = cells * sum(len(p["lam"]) if m == "specmix" else 1
                               for m in p["methods"])
        with open(self.out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        errors = self.sm.errors
        codes = {cls.code for cls in (errors.SchemaError, errors.DataError,
                                      errors.ConfigError,
                                      errors.SpectralGapError,
                                      errors.ConvergenceError)}
        # The sweep records a failed case as a row with an error code; the
        # sweep call itself has not failed, so the report has no "error".
        return {"cases": len(rows),
                "failed_cases": sum(1 for row in rows if row["error"]),
                "purities": [float(row["purity_weighted"]) for row in rows
                             if not row["error"]],
                "problems": check_sweep_rows(rows, expected, codes)}


class PipelineProblem:
    def __init__(self, sm, params, seed, workdir):
        self.sm = sm
        self.params = params
        self.data, self.truth = sm.generate_synthetic(sm.SyntheticParams(
            n=params["n"], k=params["k"], q=params["q"],
            sigma=params["sigma"], p=params["p"], seed=seed))
        self.cfg = sm.SpecMixConfig(k=params["k"], lambdas=params["lam"],
                                    seed=seed)
        self.result = None
        self.error = None

    def run(self):
        method = getattr(self.sm.pipelines, self.params["method"])
        try:
            self.result = method(self.data, self.cfg)
        except self.sm.SpecmixError as exc:
            self.error = exc.code

    def check(self) -> dict:
        if self.error is not None:
            return {"cases": 1, "failed_cases": 1, "purities": [],
                    "problems": [], "error": self.error}
        labels = self.result.labels
        problems = check_labels(labels, self.params["n"], self.params["k"])
        return {"cases": 1, "failed_cases": 0,
                "purities": [] if problems else
                [weighted_purity(labels, self.truth)],
                "cluster_sizes": [] if problems else
                np.bincount(labels, minlength=self.params["k"]).tolist(),
                "problems": problems}


class CliProblem:
    """``specmix cluster --method onlycat --output FILE`` on a generated CSV."""

    def __init__(self, sm, params, seed, workdir):
        self.sm = sm
        self.params = params
        data, self.truth = sm.generate_synthetic(sm.SyntheticParams(
            n=params["n"], k=params["k"], q=params["q"],
            sigma=params["sigma"], p=params["p"], seed=seed))
        self.csv = workdir / "data.csv"
        self.out = workdir / "result.json"
        write_categorical_csv(self.csv, data.categorical, self.truth)
        schema = ",".join(["cat"] * params["q"] + ["label"])
        self.argv = ["cluster", str(self.csv), "--schema", schema,
                     "--method", "onlycat", "--k", str(params["k"]),
                     "--seed", str(seed), "--output", str(self.out)]
        self.cli = importlib.import_module(f"{sm.__name__}.cli")
        self.stdout = io.StringIO()
        self.code = None

    def run(self):
        with contextlib.redirect_stdout(self.stdout):
            self.code = self.cli.main(self.argv)

    def check(self) -> dict:
        if self.code != 0:
            return {"cases": 1, "failed_cases": 1, "purities": [],
                    "problems": [], "error": f"exit code {self.code}"}
        result, problems = check_json_round_trip(
            self.out.read_text(encoding="utf-8"),
            self.sm.pipelines.ClusteringResult)
        problems += check_labels(result.labels, self.params["n"],
                                 self.params["k"])
        if problems:
            return {"cases": 1, "failed_cases": 0, "purities": [],
                    "problems": problems}
        purity = weighted_purity(result.labels, self.truth)
        printed = dict(tok.split("=", 1)
                       for tok in self.stdout.getvalue().split())
        if not abs(float(printed.get("purity_weighted", "nan")) - purity) <= 1e-8:
            problems.append(f"CLI printed purity {printed!r}, "
                            f"recomputed {purity}")
        return {"cases": 1, "failed_cases": 0, "purities": [purity],
                "problems": problems}


KINDS = {"sweep": SweepProblem, "pipeline": PipelineProblem,
         "cli": CliProblem}


def main(argv) -> int:
    spec = json.loads(argv[1])
    sm = import_program()
    problem = WORKLOADS[spec["workload"]][spec["problem"]]
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    runner = KINDS[problem.kind](sm, problem.params, spec["seed"], workdir)
    report = {"ready_at": time.monotonic(), "env": environment(sm)}
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        instrument(tracer, sm)
    start = time.perf_counter()
    runner.run()
    report["run_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report.update(runner.check())
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
