"""Benchmark harness: declarative synthetic sweeps with resumable CSV output.

A grid config enumerates axes over (n, K, Q, sigma, p, lambda), a method
list, a repetition count and a base seed. Every (cell, repetition, method)
row gets an independent seed derived by hashing the base seed with the row
coordinates, so rows are reproducible in isolation and sweeps can resume:
rows already present in the output are not recomputed.

The results CSV and its aggregation contain only deterministic quantities
and are byte-identical across runs; wall-clock stage timings go to sidecar
files (``<name>.timings.csv`` and ``<name>.agg_timings.csv``) keyed by the
same row coordinates. All CSVs are UTF-8, comma-delimited, with a header
row, '.' decimal separator and 9-significant-digit floats.

Rows may execute in a process pool (``workers`` argument or the
SPECMIX_WORKERS environment variable); the output is ordered canonically
before writing, so concurrency never changes the artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import kmodes, kprototypes
from .dataset import SyntheticParams, generate_synthetic
from .errors import ConfigError, DataError, SpecmixError
from .kmeans import KMeansConfig
from .metrics import purity
from .pipelines import SpecMixConfig, numeric_spectral, onlycat, specmix

METHODS = ("specmix", "onlycat", "kmodes", "kprototypes", "numeric-spectral")

# Methods that consume the lambda axis; the others get one row per cell
# with a fixed placeholder (onlycat's labels are invariant in lambda).
_LAMBDA_METHODS = ("specmix",)
_FIXED_LAMBDA = {"onlycat": 1.0, "kmodes": 0.0, "kprototypes": 0.0,
                 "numeric-spectral": 0.0}

RESULT_COLUMNS = ("n", "K", "Q", "sigma", "p", "lambda", "method", "rep",
                  "seed", "purity_weighted", "purity_macro", "error")
TIMING_COLUMNS = ("n", "K", "Q", "sigma", "p", "lambda", "method", "rep",
                  "seconds_graph", "seconds_eigen", "seconds_kmeans",
                  "seconds_total")
AGG_COLUMNS = ("n", "K", "Q", "sigma", "p", "lambda", "method",
               "repetitions", "errors", "purity_weighted", "purity_macro")
AGG_TIMING_COLUMNS = ("n", "K", "Q", "sigma", "p", "lambda", "method",
                      "repetitions", "median_graph", "median_eigen",
                      "median_kmeans", "median_total")


def fmt(value) -> str:
    """Canonical 9-significant-digit rendering used in every CSV cell."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministic per-row seed: sha256 of the base seed and coordinates."""
    text = "|".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class RowKey:
    """Coordinates of one sweep row, in canonical string form."""

    n: str
    k: str
    q: str
    sigma: str
    p: str
    lam: str
    method: str
    rep: str

    def as_tuple(self) -> tuple[str, ...]:
        return (self.n, self.k, self.q, self.sigma, self.p, self.lam,
                self.method, self.rep)


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative sweep: axis values, methods, repetitions, base seed."""

    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    q_values: tuple[int, ...] = (3,)
    sigma_values: tuple[float, ...] = (0.0,)
    p_values: tuple[float, ...] = (0.0,)
    lambda_values: tuple[float, ...] = (50.0,)
    methods: tuple[str, ...] = ("specmix",)
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_values", "k_values", "q_values", "sigma_values",
                     "p_values", "lambda_values", "methods"):
            if not getattr(self, name):
                raise ConfigError(f"grid axis {name} is empty")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (choose from {METHODS})")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentGrid":
        """Parse the plain key-value grid format (``key = v1, v2, ...``)."""
        values: dict[str, list[str]] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"grid line {line_no}: expected 'key = values'")
            key, _, rhs = line.partition("=")
            key = key.strip().lower()
            values[key] = [tok.strip() for tok in rhs.split(",") if tok.strip()]

        def ints(key, default=None):
            if key not in values:
                return default
            return tuple(int(tok) for tok in values[key])

        def floats(key, default=None):
            if key not in values:
                return default
            return tuple(float(tok) for tok in values[key])

        known = {"n", "k", "q", "sigma", "p", "lambda", "methods", "reps",
                 "seed"}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        if "n" not in values or "k" not in values:
            raise ConfigError("grid must define 'n' and 'K'")
        return cls(
            n_values=ints("n"), k_values=ints("k"),
            q_values=ints("q", cls.q_values),
            sigma_values=floats("sigma", cls.sigma_values),
            p_values=floats("p", cls.p_values),
            lambda_values=floats("lambda", cls.lambda_values),
            methods=tuple(values.get("methods", cls.methods)),
            repetitions=int(values["reps"][0]) if "reps" in values else 1,
            seed=int(values["seed"][0]) if "seed" in values else 0)

    @classmethod
    def from_file(cls, path) -> "ExperimentGrid":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def method_lambdas(self, method: str) -> tuple[float, ...]:
        if method in _LAMBDA_METHODS:
            return self.lambda_values
        return (_FIXED_LAMBDA[method],)

    def row_keys(self) -> list[RowKey]:
        """All row coordinates in canonical emission order."""
        keys = []
        for n in self.n_values:
            for k in self.k_values:
                for q in self.q_values:
                    for sigma in self.sigma_values:
                        for p in self.p_values:
                            for method in self.methods:
                                for lam in self.method_lambdas(method):
                                    for rep in range(self.repetitions):
                                        keys.append(RowKey(
                                            fmt(n), fmt(k), fmt(q), fmt(sigma),
                                            fmt(p), fmt(lam), method, fmt(rep)))
        return keys


def _compute_row(args: tuple[RowKey, int]) -> tuple[RowKey, dict]:
    key, seed = args
    n, k, q = int(key.n), int(key.k), int(key.q)
    sigma, p, lam = float(key.sigma), float(key.p), float(key.lam)
    out = {"seed": str(seed), "purity_weighted": "", "purity_macro": "",
           "error": "", "timings": None}
    start = time.perf_counter()
    try:
        ds, truth = generate_synthetic(
            SyntheticParams(n=n, k=k, q=q, sigma=sigma, p=p, seed=seed))
        cfg = SpecMixConfig(k=k, lambdas=lam, kmeans=KMeansConfig(),
                            seed=seed)
        if key.method == "specmix":
            result = specmix(ds, cfg)
            labels, timings = result.labels, result.timings
        elif key.method == "onlycat":
            result = onlycat(ds, cfg)
            labels, timings = result.labels, result.timings
        elif key.method == "numeric-spectral":
            result = numeric_spectral(ds, cfg)
            labels, timings = result.labels, result.timings
        elif key.method == "kmodes":
            labels = kmodes(ds.categorical, k, seed=seed)
            timings = {"total": time.perf_counter() - start}
        elif key.method == "kprototypes":
            labels = kprototypes(ds, k, seed=seed)
            timings = {"total": time.perf_counter() - start}
        else:
            raise ConfigError(f"unknown method {key.method!r}")
        out["purity_weighted"] = fmt(purity(labels, truth, "weighted"))
        out["purity_macro"] = fmt(purity(labels, truth, "macro"))
        out["timings"] = {
            "seconds_graph": fmt(timings.get("graph", 0.0)),
            "seconds_eigen": fmt(timings.get("eigen", 0.0)),
            "seconds_kmeans": fmt(timings.get("kmeans", 0.0)),
            "seconds_total": fmt(timings.get("total", 0.0)),
        }
    except SpecmixError as exc:
        out["error"] = exc.code
    except Exception:  # record the row and keep the sweep going
        print(f"sweep row {','.join(key.as_tuple())} failed:", file=sys.stderr)
        traceback.print_exc()
        out["error"] = "internal"
    return key, out


def _read_csv(path, expected_columns) -> dict[tuple[str, ...], dict]:
    rows: dict[tuple[str, ...], dict] = {}
    if not Path(path).exists():
        return rows
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != expected_columns:
            raise DataError(f"{path} has unexpected columns; refusing to resume")
        for row in reader:
            key = (row["n"], row["K"], row["Q"], row["sigma"], row["p"],
                   row["lambda"], row["method"], row["rep"])
            rows[key] = row
    return rows


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])


def sidecar_paths(results_path) -> dict[str, Path]:
    base = Path(results_path)
    stem = base.stem
    return {
        "timings": base.with_name(f"{stem}.timings.csv"),
        "aggregated": base.with_name(f"{stem}.agg.csv"),
        "agg_timings": base.with_name(f"{stem}.agg_timings.csv"),
    }


def run_sweep(grid: ExperimentGrid, results_path, workers: int | None = None) -> dict:
    """Run every missing row of the grid and (re)write all output files.

    Returns a summary dict with row counts. Existing rows in the results CSV
    are trusted and skipped, which makes interrupted sweeps resumable and
    completed reruns no-ops.
    """
    if workers is None:
        workers = int(os.environ.get("SPECMIX_WORKERS", "1"))
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    keys = grid.row_keys()
    wanted = {key.as_tuple() for key in keys}
    existing = _read_csv(results_path, RESULT_COLUMNS)
    foreign = set(existing) - wanted
    if foreign:
        raise DataError(
            f"{results_path} contains {len(foreign)} rows not generated by "
            "this grid; refusing to resume")
    paths = sidecar_paths(results_path)
    existing_timings = _read_csv(paths["timings"], TIMING_COLUMNS)

    todo = [key for key in keys if key.as_tuple() not in existing]
    tasks = [(key, derive_seed(grid.seed, *key.as_tuple())) for key in todo]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_compute_row, tasks))
    else:
        computed = [_compute_row(task) for task in tasks]

    fresh = {key.as_tuple(): out for key, out in computed}
    result_rows = []
    timing_rows = []
    for key in keys:
        tup = key.as_tuple()
        coord = dict(zip(("n", "K", "Q", "sigma", "p", "lambda", "method",
                          "rep"), tup))
        if tup in existing:
            result_rows.append(existing[tup])
            if tup in existing_timings:
                timing_rows.append(existing_timings[tup])
            continue
        out = fresh[tup]
        row = dict(coord)
        row.update(seed=out["seed"], purity_weighted=out["purity_weighted"],
                   purity_macro=out["purity_macro"], error=out["error"])
        result_rows.append(row)
        if out["timings"] is not None:
            trow = dict(coord)
            trow.update(out["timings"])
            timing_rows.append(trow)

    _write_csv(results_path, RESULT_COLUMNS, result_rows)
    _write_csv(paths["timings"], TIMING_COLUMNS, timing_rows)
    aggregate_results(results_path, paths["aggregated"])
    aggregate_timings(paths["timings"], paths["agg_timings"])
    return {"rows": len(keys), "computed": len(todo),
            "skipped": len(keys) - len(todo)}


def _group_rows(rows: list[dict]) -> dict[tuple[str, ...], list[dict]]:
    groups: dict[tuple[str, ...], list[dict]] = {}
    for row in rows:
        key = (row["n"], row["K"], row["Q"], row["sigma"], row["p"],
               row["lambda"], row["method"])
        groups.setdefault(key, []).append(row)
    return groups


def _read_ordered(path, columns) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != columns:
            raise DataError(f"{path} has unexpected columns")
        return list(reader)


def aggregate_results(results_path, out_path) -> None:
    """Per-cell means of the purity columns, recomputed from disk so the
    aggregate is a pure function of the results CSV."""
    rows = _read_ordered(results_path, RESULT_COLUMNS)
    out = []
    for key, group in _group_rows(rows).items():
        ok = [row for row in group if not row["error"]]
        record = dict(zip(("n", "K", "Q", "sigma", "p", "lambda", "method"), key))
        record["repetitions"] = str(len(group))
        record["errors"] = str(len(group) - len(ok))
        for col in ("purity_weighted", "purity_macro"):
            if ok:
                record[col] = fmt(statistics.fmean(float(row[col]) for row in ok))
            else:
                record[col] = ""
        out.append(record)
    _write_csv(out_path, AGG_COLUMNS, out)


def aggregate_timings(timings_path, out_path) -> None:
    """Per-cell medians of the wall-clock stage timings."""
    if not Path(timings_path).exists():
        _write_csv(out_path, AGG_TIMING_COLUMNS, [])
        return
    rows = _read_ordered(timings_path, TIMING_COLUMNS)
    out = []
    for key, group in _group_rows(rows).items():
        record = dict(zip(("n", "K", "Q", "sigma", "p", "lambda", "method"), key))
        record["repetitions"] = str(len(group))
        for stage in ("graph", "eigen", "kmeans", "total"):
            med = statistics.median(float(row[f"seconds_{stage}"]) for row in group)
            record[f"median_{stage}"] = fmt(med)
        out.append(record)
    _write_csv(out_path, AGG_TIMING_COLUMNS, out)
