"""Benchmark harness: declarative synthetic sweeps with resumable CSV output,
run through ``run_method``, the dispatch over ``METHODS`` that the CLI shares.

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
import itertools
import os
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .baselines import kmodes, kprototypes
from .dataset import (MixedDataset, SyntheticParams, csv_error,
                      generate_synthetic, read_text)
from .errors import ConfigError, DataError, SpecmixError
from .kmeans import KMeansConfig
from .metrics import purity
from .pipelines import (ClusteringResult, SpecMixConfig, numeric_spectral,
                        onlycat, specmix)

METHODS = ("specmix", "onlycat", "kmodes", "kprototypes", "numeric-spectral")

# specmix consumes the lambda axis; the others get one row per cell with a
# fixed placeholder (onlycat's labels are invariant in lambda).
_FIXED_LAMBDA = {"onlycat": 1.0, "kmodes": 0.0, "kprototypes": 0.0,
                 "numeric-spectral": 0.0}

# CSV names of the row coordinates; a cell is a row without its repetition.
COORDS = ("n", "K", "Q", "sigma", "p", "lambda", "method", "rep")
CELL = COORDS[:-1]
STAGES = ("graph", "eigen", "kmeans", "total")

RESULT_COLUMNS = COORDS + ("seed", "purity_weighted", "purity_macro", "error")
TIMING_COLUMNS = COORDS + tuple(f"seconds_{stage}" for stage in STAGES)
AGG_COLUMNS = CELL + ("repetitions", "errors", "purity_weighted",
                      "purity_macro")
AGG_TIMING_COLUMNS = CELL + ("repetitions",) + tuple(
    f"median_{stage}" for stage in STAGES)


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


def parse_values(name: str, text: str, convert=float) -> tuple:
    """Parse a comma-separated list, naming ``name`` and the bad token in
    the ConfigError raised for an empty list or an unparsable value."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(f"{name} needs at least one value")
    try:
        return tuple(convert(tok) for tok in tokens)
    except ValueError as exc:  # its message quotes the token
        raise ConfigError(f"{name}: {exc}") from None


def run_method(method: str, ds: MixedDataset,
               cfg: SpecMixConfig) -> ClusteringResult:
    """Run one of ``METHODS`` on ``ds``: the dispatch of the CLI and the sweep.

    The baselines use ``cfg.k``, ``cfg.seed`` and ``cfg.kmeans.restarts``;
    their result carries no eigenvalues and times only the whole run.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    # Looked up in the module globals at call time so wrappers set on this
    # module's attributes (tracing, tests) see every call.
    run = globals()[method.replace("-", "_")]
    if method not in ("kmodes", "kprototypes"):
        return run(ds, cfg)
    start = time.perf_counter()
    labels = run(ds.categorical if method == "kmodes" else ds, cfg.k,
                 seed=cfg.seed, restarts=cfg.kmeans.restarts)
    return ClusteringResult(
        labels=np.asarray(labels, dtype=np.int64), eigenvalues=np.empty(0),
        embedding_rows_used=0, timings={"total": time.perf_counter() - start},
        config=cfg.echo(), seed=cfg.seed, method=method)


class RowKey(NamedTuple):
    """Coordinates of one sweep row, in canonical string form, in the order
    of ``COORDS``."""

    n: str
    k: str
    q: str
    sigma: str
    p: str
    lam: str
    method: str
    rep: str


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
        values: dict[str, str] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"grid line {line_no}: expected 'key = values'")
            key, _, rhs = line.partition("=")
            values[key.strip().lower()] = rhs

        def parse(key, convert, default):
            if key not in values:
                return default
            return parse_values(f"grid key {key!r}", values[key], convert)

        def single(key, default):
            value, *extra = parse(key, int, (default,))
            if extra:
                raise ConfigError(f"grid key {key!r} takes one value")
            return value

        known = {"n", "k", "q", "sigma", "p", "lambda", "methods", "reps",
                 "seed"}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        if "n" not in values or "k" not in values:
            raise ConfigError("grid must define 'n' and 'K'")
        return cls(
            n_values=parse("n", int, None), k_values=parse("k", int, None),
            q_values=parse("q", int, cls.q_values),
            sigma_values=parse("sigma", float, cls.sigma_values),
            p_values=parse("p", float, cls.p_values),
            lambda_values=parse("lambda", float, cls.lambda_values),
            methods=parse("methods", str, cls.methods),
            repetitions=single("reps", 1), seed=single("seed", 0))

    @classmethod
    def from_file(cls, path) -> "ExperimentGrid":
        return cls.from_text(read_text(path, ConfigError))

    def method_lambdas(self, method: str) -> tuple[float, ...]:
        if method in _FIXED_LAMBDA:
            return (_FIXED_LAMBDA[method],)
        return self.lambda_values

    def row_keys(self) -> list[RowKey]:
        """All row coordinates in canonical emission order."""
        keys = []
        for n, k, q, sigma, p, method in itertools.product(
                self.n_values, self.k_values, self.q_values,
                self.sigma_values, self.p_values, self.methods):
            for lam in self.method_lambdas(method):
                for rep in range(self.repetitions):
                    keys.append(RowKey(fmt(n), fmt(k), fmt(q), fmt(sigma),
                                       fmt(p), fmt(lam), method, fmt(rep)))
        return keys


def _compute_row(args: tuple[RowKey, int]) -> tuple[RowKey, dict]:
    key, seed = args
    out = {"seed": str(seed), "purity_weighted": "", "purity_macro": "",
           "error": "", "timings": None}
    try:
        k = int(key.k)
        ds, truth = generate_synthetic(SyntheticParams(
            n=int(key.n), k=k, q=int(key.q), sigma=float(key.sigma),
            p=float(key.p), seed=seed))
        cfg = SpecMixConfig(k=k, lambdas=float(key.lam), kmeans=KMeansConfig(),
                            seed=seed)
        result = run_method(key.method, ds, cfg)
        out["purity_weighted"] = fmt(purity(result.labels, truth, "weighted"))
        out["purity_macro"] = fmt(purity(result.labels, truth, "macro"))
        out["timings"] = {f"seconds_{stage}": fmt(result.timings.get(stage, 0.0))
                          for stage in STAGES}
    except SpecmixError as exc:
        out["error"] = exc.code
    except Exception:  # record the row and keep the sweep going
        print(f"sweep row {','.join(key)} failed:", file=sys.stderr)
        traceback.print_exc()
        out["error"] = "internal"
    return key, out


def _read_csv(path, expected_columns) -> dict[tuple[str, ...], dict]:
    return {tuple(row[col] for col in COORDS): row
            for row in _read_ordered(path, expected_columns)}


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
    existing = _read_csv(results_path, RESULT_COLUMNS)
    foreign = set(existing) - set(keys)
    if foreign:
        raise DataError(
            f"{results_path} contains {len(foreign)} rows not generated by "
            "this grid; refusing to resume")
    paths = sidecar_paths(results_path)
    existing_timings = _read_csv(paths["timings"], TIMING_COLUMNS)

    todo = [key for key in keys if key not in existing]
    tasks = [(key, derive_seed(grid.seed, *key)) for key in todo]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_compute_row, tasks))
    else:
        computed = [_compute_row(task) for task in tasks]

    fresh = dict(computed)
    result_rows = []
    timing_rows = []
    for key in keys:
        if key in existing:
            result_rows.append(existing[key])
            if key in existing_timings:
                timing_rows.append(existing_timings[key])
            continue
        coord = dict(zip(COORDS, key))
        out = fresh[key]
        result_rows.append({**coord, **out})
        if out["timings"] is not None:
            timing_rows.append({**coord, **out["timings"]})

    _write_csv(results_path, RESULT_COLUMNS, result_rows)
    _write_csv(paths["timings"], TIMING_COLUMNS, timing_rows)
    aggregate_results(results_path, paths["aggregated"])
    aggregate_timings(paths["timings"], paths["agg_timings"])
    return {"rows": len(keys), "computed": len(todo),
            "skipped": len(keys) - len(todo)}


def _group_rows(rows: list[dict]) -> dict[tuple[str, ...], list[dict]]:
    groups: dict[tuple[str, ...], list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in CELL), []).append(row)
    return groups


def _read_ordered(path, columns) -> list[dict]:
    """The rows of a CSV written with ``columns``; none if it is missing."""
    if not Path(path).exists():
        return []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        try:
            fieldnames = tuple(reader.fieldnames or ())
            rows = list(reader)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise csv_error(path, reader, exc) from None
    if fieldnames != columns:
        raise DataError(f"{path} has unexpected columns")
    return rows


def aggregate_results(results_path, out_path) -> None:
    """Per-cell means of the purity columns, recomputed from disk so the
    aggregate is a pure function of the results CSV."""
    rows = _read_ordered(results_path, RESULT_COLUMNS)
    out = []
    for cell, group in _group_rows(rows).items():
        ok = [row for row in group if not row["error"]]
        record = dict(zip(CELL, cell))
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
    rows = _read_ordered(timings_path, TIMING_COLUMNS)
    out = []
    for cell, group in _group_rows(rows).items():
        record = dict(zip(CELL, cell))
        record["repetitions"] = str(len(group))
        for stage in STAGES:
            med = statistics.median(float(row[f"seconds_{stage}"]) for row in group)
            record[f"median_{stage}"] = fmt(med)
        out.append(record)
    _write_csv(out_path, AGG_TIMING_COLUMNS, out)
