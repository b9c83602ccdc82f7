"""Benchmark harness: declarative synthetic sweeps with resumable CSV output,
run through ``run_method``, the dispatch over ``METHODS`` that the CLI shares.

A grid config enumerates axes over (n, K, Q, sigma, p, lambda), a method
list, a repetition count and a base seed. Every (cell, repetition, method)
row gets an independent seed derived by hashing the base seed with the row
coordinates, so rows are reproducible in isolation and sweeps can resume:
rows already present in the output are not recomputed. A resume refuses,
before it computes or writes anything, a kept row whose coordinates or seed
cell this grid does not derive, and a row with a missing, extra or
non-finite number cell.

The sweep is one table, a row per row key (the tuple of its ``COORDS``
cells, the strings the row is written with), written as two column views:
the deterministic results CSV and ``<name>.timings.csv`` (the rows with
wall-clock timings), the timings first. ``<name>.agg.csv`` and
``<name>.agg_timings.csv`` aggregate the rows just written. Each file is
replaced whole, so an interrupted write leaves the previous one. All CSVs
are UTF-8, comma-delimited, with a header row, '.' decimal separator and
9-significant-digit floats.

Rows may execute in a process pool of ``workers`` processes; the output is
ordered canonically before writing, so concurrency never changes the
artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
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
from .dataset import (MixedDataset, SyntheticParams, _check_seed,
                      _read_records, as_int, generate_synthetic, read_text)
from .errors import ConfigError, DataError, SpecmixError
from .metrics import ContingencyTable
from .pipelines import (STAGES, ClusteringResult, SpecMixConfig,
                        numeric_spectral, onlycat, specmix)

METHODS = ("specmix", "onlycat", "kmodes", "kprototypes", "numeric-spectral")

# specmix consumes the lambda axis; the others get one row per cell with a
# fixed placeholder (onlycat's labels are invariant in lambda).
_FIXED_LAMBDA = {"onlycat": (1.0,), "kmodes": (0.0,), "kprototypes": (0.0,),
                 "numeric-spectral": (0.0,)}

# CSV names of the row coordinates; a cell is a row without its repetition.
COORDS = ("n", "K", "Q", "sigma", "p", "lambda", "method", "rep")
CELL = COORDS[:-1]

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

    The baselines use ``cfg.k``, ``cfg.seed`` and ``cfg.kmeans.restarts``,
    and their result's config holds only these three; it carries no
    eigenvalues and times only the whole run.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    # Looked up in the module globals at call time so wrappers set on this
    # module's attributes (tracing, tests) see every call.
    run = globals()[method.replace("-", "_")]
    if method not in ("kmodes", "kprototypes"):
        return run(ds, cfg)
    settings = {"seed": cfg.seed, "restarts": cfg.kmeans.restarts}
    start = time.perf_counter()
    labels = run(ds.categorical if method == "kmodes" else ds, cfg.k, **settings)
    return ClusteringResult(
        labels=np.asarray(labels, dtype=np.int64), eigenvalues=np.empty(0),
        embedding_rows_used=0, timings={"total": time.perf_counter() - start},
        config={"k": cfg.k, **settings}, seed=cfg.seed, method=method)


# grid key -> (ExperimentGrid field, value type); reps and seed take one value
_GRID_KEYS = {"n": ("n_values", int), "k": ("k_values", int), "q": ("q_values", int),
              "sigma": ("sigma_values", float), "p": ("p_values", float),
              "lambda": ("lambda_values", float), "methods": ("methods", str),
              "reps": ("repetitions", int), "seed": ("seed", int)}


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative sweep: axis values, methods, repetitions, base seed.

    A cell that SyntheticParams refuses, or a specmix lambda that
    SpecMixConfig does, is a ConfigError; a method that fails on a valid
    cell, as kmodes does on Q = 0, gives an error row."""

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
        for cell in itertools.product(self.n_values, self.k_values, self.q_values,
                                      self.sigma_values, self.p_values):
            SyntheticParams(*cell)
        object.__setattr__(self, "repetitions",
                           as_int(self.repetitions, "repetitions", 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (choose from {METHODS})")
        if "specmix" in self.methods:  # the one method whose rows take the lambda axis
            SpecMixConfig(2, self.lambda_values)
        # values that format alike (sigma = 1, 1.0) would name a row twice
        for key, after in itertools.pairwise(sorted(self.row_keys())):
            if key == after:
                raise ConfigError(f"grid names the row {dict(zip(COORDS, key))} "
                                  "twice: an axis repeats a value")

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
            if key.strip().lower() in values:
                raise ConfigError(f"grid line {line_no}: repeated key {key.strip()!r}")
            values[key.strip().lower()] = rhs

        unknown = set(values) - set(_GRID_KEYS)
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        if "n" not in values or "k" not in values:
            raise ConfigError("grid must define 'n' and 'K'")
        fields = {}
        for key, (name, convert) in _GRID_KEYS.items():
            if key not in values:  # the field keeps its default
                continue
            parsed = parse_values(f"grid key {key!r}", values[key], convert)
            if key in ("reps", "seed"):
                if len(parsed) > 1:
                    raise ConfigError(f"grid key {key!r} takes one value")
                parsed = parsed[0]
            fields[name] = parsed
        return cls(**fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentGrid":
        return cls.from_text(read_text(path, ConfigError))

    def row_keys(self) -> list[tuple[str, ...]]:
        """The ``COORDS`` cells of every row, in canonical emission order."""
        return [(*map(fmt, (n, k, q, sigma, p, lam)), method, fmt(rep))
                for n, k, q, sigma, p, method in itertools.product(
                    self.n_values, self.k_values, self.q_values,
                    self.sigma_values, self.p_values, self.methods)
                for lam in _FIXED_LAMBDA.get(method, self.lambda_values)
                for rep in range(self.repetitions)]


def _compute_row(args: tuple[tuple, str]) -> tuple[tuple, dict]:
    """The table row of the ``COORDS`` cells ``key`` and the ``seed`` cell;
    it has ``seconds_*`` cells if it succeeded."""
    key, seed = args
    row = dict(zip(RESULT_COLUMNS, (*key, seed, "", "", "")))
    try:
        n, k, q, seed = (int(row[col]) for col in ("n", "K", "Q", "seed"))
        sigma, p, lam = (float(row[col]) for col in ("sigma", "p", "lambda"))
        ds, truth = generate_synthetic(SyntheticParams(
            n=n, k=k, q=q, sigma=sigma, p=p, seed=seed))
        cfg = SpecMixConfig(k=k, lambdas=lam, seed=seed)
        result = run_method(row["method"], ds, cfg)
        table = ContingencyTable.from_labels(result.labels, truth)
        row["purity_weighted"] = fmt(table.purity("weighted"))
        row["purity_macro"] = fmt(table.purity("macro"))
        row.update((f"seconds_{stage}", fmt(result.timings.get(stage, 0.0)))
                   for stage in STAGES)
    except SpecmixError as exc:
        row["error"] = exc.code
    except Exception:  # record the row and keep the sweep going
        print(f"sweep row {','.join(key)} failed:", file=sys.stderr)
        traceback.print_exc()
        row["error"] = "internal"
    return key, row


def _read_table(path, columns) -> dict[tuple[str, ...], dict]:
    """The rows of a ``columns`` CSV by coordinates; none if it is missing.
    The file is read as a dataset CSV is (``_read_records``). A row that
    lacks a cell or has one too many, or a number cell that the aggregates
    read that is not finite, is a DataError naming its line."""
    if not Path(path).exists():
        return {}
    header, records, _, lines = _read_records(path)
    if header != list(columns):
        raise DataError(f"{path} has unexpected columns")
    table = {}
    for cells, line in zip(records, lines):
        where = f"{path}, line {line}"
        if len(cells) != len(columns):
            raise DataError(f"{where}: {len(cells)} cells, expected "
                            f"{len(columns)}")
        row = dict(zip(columns, cells))
        for col in columns:  # an error row has no purities
            number = col.startswith("seconds_") or (
                col.startswith("purity_") and not row["error"])
            if number and not _is_finite(row[col]):
                raise DataError(f"{where}, column {col}: {row[col]!r} "
                                "is not a finite number")
        table[tuple(cells[:len(COORDS)])] = row
    return table


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def write_whole(path, write) -> None:
    """Call ``write`` with a UTF-8 text handle, line ends written as given,
    on a sibling file that replaces ``path`` once ``write`` returns, so a
    write that fails or is interrupted leaves ``path`` as it was. A symlink
    is followed, so its target is replaced and the link stays. A ``path``
    that is neither absent nor a regular file, such as a pipe or
    ``/dev/null``, is written through, not replaced."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "w", newline="", encoding="utf-8") as handle:
            write(handle)
        return
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "w", newline="", encoding="utf-8") as handle:
            write(handle)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_rows(path, rows) -> None:
    """Write ``rows``, each a sequence of cells, whole (``write_whole``) as a
    CSV with '\n' line ends: the settings of every CSV that specmix writes."""
    write_whole(path, lambda handle: csv.writer(
        handle, lineterminator="\n").writerows(rows))


def _write_csv(path, columns, rows) -> None:
    write_rows(path, itertools.chain(
        [columns], ([row.get(col, "") for col in columns] for row in rows)))


def sidecar_paths(results_path) -> dict[str, Path]:
    base = Path(results_path)
    stem = base.stem
    return {
        "timings": base.with_name(f"{stem}.timings.csv"),
        "aggregated": base.with_name(f"{stem}.agg.csv"),
        "agg_timings": base.with_name(f"{stem}.agg_timings.csv"),
    }


def run_sweep(grid: ExperimentGrid, results_path, workers: int = 1) -> dict:
    """Run every missing row of the grid and (re)write all output files.

    Returns a summary dict with row counts. Rows already in the results CSV
    are checked and skipped, which makes interrupted sweeps resumable and
    completed reruns no-ops.
    """
    workers = as_int(workers, "workers", 1)

    keys = grid.row_keys()
    seeds = {key: str(derive_seed(grid.seed, *key)) for key in keys}
    table = _read_table(results_path, RESULT_COLUMNS)
    foreign = [key for key, row in table.items()
               if row["seed"] != seeds.get(key)]
    if foreign:
        raise DataError(
            f"{results_path} contains {len(foreign)} rows not generated by "
            "this grid and its base seed; refusing to resume")
    paths = sidecar_paths(results_path)
    # kept rows keep their timings; a sidecar row without its result is stale
    for key, timing in _read_table(paths["timings"], TIMING_COLUMNS).items():
        if key in table:
            table[key].update(timing)

    todo = [key for key in keys if key not in table]
    tasks = [(key, seeds[key]) for key in todo]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            table.update(pool.map(_compute_row, tasks))
    else:
        table.update(_compute_row(task) for task in tasks)

    rows = [table[key] for key in keys]
    timed = [row for row in rows if "seconds_total" in row]
    # timings first: a resume takes a row without its result as not yet
    # computed, but a kept result row whose timings were never written
    # would stay without them
    _write_csv(paths["timings"], TIMING_COLUMNS, timed)
    _write_csv(results_path, RESULT_COLUMNS, rows)
    _aggregate(rows, paths["aggregated"], AGG_COLUMNS, _mean_purities)
    _aggregate(timed, paths["agg_timings"], AGG_TIMING_COLUMNS, lambda group: {
        f"median_{stage}": fmt(statistics.median(
            float(row[f"seconds_{stage}"]) for row in group)) for stage in STAGES})
    return {"rows": len(keys), "computed": len(todo),
            "skipped": len(keys) - len(todo)}


def _aggregate(rows, out_path, columns, summarize) -> None:
    """Write one row per cell of ``rows``, in order of first appearance: its
    coordinates, its repetition count and the cells of ``summarize(group)``."""
    groups: dict[tuple[str, ...], list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in CELL), []).append(row)
    _write_csv(out_path, columns, (
        {**dict(zip(CELL, cell)), "repetitions": str(len(group)),
         **summarize(group)} for cell, group in groups.items()))


def _mean_purities(group: list[dict]) -> dict:
    """The error count and, over the rows without one, the mean purities."""
    ok = [row for row in group if not row["error"]]
    return {"errors": str(len(group) - len(ok)), **{
        col: fmt(statistics.fmean(float(row[col]) for row in ok)) if ok else ""
        for col in ("purity_weighted", "purity_macro")}}
