"""Mixed-type dataset model.

Holds the numeric/categorical data matrices, handles CSV ingestion driven by
a column-role schema, preprocessing (standardization, missing-row removal) and
the synthetic cluster generator used by the benchmark harness.

All types are treated as immutable after construction and are safe to share
across threads for reading.
"""

from __future__ import annotations

import csv
import gc
import numbers
import operator
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError, SpecmixError

ROLE_NUMERIC = "numeric"
ROLE_CATEGORICAL = "categorical"
ROLE_ORDINAL = "ordinal"
ROLE_LABEL = "label"
ROLE_IGNORE = "ignore"

_ROLE_ALIASES = {
    "num": ROLE_NUMERIC,
    "numeric": ROLE_NUMERIC,
    "cat": ROLE_CATEGORICAL,
    "categorical": ROLE_CATEGORICAL,
    "ord": ROLE_ORDINAL,
    "ordinal": ROLE_ORDINAL,
    "label": ROLE_LABEL,
    "ignore": ROLE_IGNORE,
}

# UCI convention: "?" marks a missing value; empty fields always count as
# missing regardless of the configured sentinels.
DEFAULT_MISSING = ("?",)

MAX_SEED = 2**64 - 1


def _not_utf8(path, error: type[SpecmixError] = DataError) -> SpecmixError:
    """``error`` for a file that is not UTF-8, naming the line of its first
    undecodable byte. A text reader decodes in chunks, so its own error
    cannot say which line."""
    data = Path(path).read_bytes()
    where = ""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        where = f", line {line}"
    return error(f"{path}{where}: not UTF-8 text")


def read_text(path, error: type[SpecmixError] = DataError) -> str:
    """The UTF-8 text of ``path``; bytes that do not decode raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, error) from None


def csv_error(path, reader, exc: Exception) -> DataError:
    """The DataError for a decode or ``csv.Error`` met by ``reader``."""
    if isinstance(exc, UnicodeDecodeError):
        return _not_utf8(path)
    return DataError(f"{path}, line {reader.line_num}: {exc}")


def as_codes(values, message: str, error: type[SpecmixError] = DataError) -> np.ndarray:
    """``values`` as int64 codes. Fractional and non-finite values raise
    ``error`` with ``message``, where a bare cast would truncate them."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":  # nothing to truncate; int64 is not copied
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
        codes = values.astype(np.int64)
    if not np.array_equal(codes, values):
        raise error(message)
    return codes


def check_codes(values, limit, what: str,
                error: type[SpecmixError] = DataError) -> np.ndarray:
    """``values`` as int64 codes in [0, limit), ``limit`` being one bound or
    one per column. Other values raise ``error`` naming ``what``."""
    codes = as_codes(values, f"{what} must be integers", error)
    # one column at a time: numpy reduces a narrow matrix along axis 0 slowly
    columns = codes.T if np.ndim(limit) else codes.reshape(1, -1)
    for l, (column, bound) in enumerate(zip(columns, np.ravel(limit))):
        if column.min(initial=0) < 0 or column.max(initial=-1) >= bound:
            where = f" in column {l}" if np.ndim(limit) else ""
            raise error(f"{what}{where} must lie in [0, {bound})")
    return codes


def _first_appearance(keys: np.ndarray, size: int | None = None):
    """(first, inverse) for the 1-D ``keys``: the index where each distinct
    key first appears, in increasing order, and the number of each entry's
    key in that order.

    ``size``, when given, bounds nonnegative integer keys, which then need
    no sort; only the keys present are ordered."""
    if size is None:
        unique, keys = np.unique(keys, return_inverse=True)
        size = unique.size
    first = np.full(size, keys.size)
    np.minimum.at(first, keys, np.arange(keys.size))
    present = np.flatnonzero(first < keys.size)
    order = present[np.argsort(first[present])]  # the key of each rank
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return first[order], rank[keys]


def as_int(value, what: str, low: int,
           error: type[SpecmixError] = ConfigError) -> int:
    """``value`` as an int of at least ``low``. A value ``operator.index``
    refuses (a float, even a whole one) or a smaller one raises ``error``
    naming ``what``; numpy integers pass."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def as_real(value, what: str) -> float:
    """``value`` as a float; a non-number raises ConfigError naming ``what``."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _check_seed(seed) -> int:
    """``seed`` as an int in [0, MAX_SEED]; anything else, a whole float
    too, raises ConfigError."""
    seed = as_int(seed, "seed", 0)
    if seed > MAX_SEED:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


@dataclass(frozen=True)
class ColumnSchema:
    """Per-column role tags for CSV ingestion.

    Roles: numeric | categorical | ordinal (treated as categorical) |
    label | ignore. At most one label column is allowed.
    """

    roles: tuple[str, ...]

    def __post_init__(self):
        if not self.roles:
            raise SchemaError("schema is empty")
        for role in self.roles:
            if role not in set(_ROLE_ALIASES.values()):
                raise SchemaError(f"unknown column role {role!r}")
        if sum(r == ROLE_LABEL for r in self.roles) > 1:
            raise SchemaError("schema declares more than one label column")

    @classmethod
    def parse(cls, spec: str) -> "ColumnSchema":
        """Parse a comma-separated role string, e.g. ``"num,num,cat,label"``."""
        tokens = [tok.strip().lower() for tok in spec.split(",")]
        if not any(tokens):
            raise SchemaError("schema is empty")
        # an unknown token passes through unmapped and is rejected by __post_init__
        return cls(tuple(_ROLE_ALIASES.get(tok, tok) for tok in tokens))

    @classmethod
    def from_file(cls, path) -> "ColumnSchema":
        return cls.parse(read_text(path, SchemaError).strip())

    @property
    def width(self) -> int:
        return len(self.roles)

    @property
    def numeric_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == ROLE_NUMERIC)

    @property
    def categorical_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles)
                     if r in (ROLE_CATEGORICAL, ROLE_ORDINAL))

    @property
    def label_index(self) -> Optional[int]:
        for i, r in enumerate(self.roles):
            if r == ROLE_LABEL:
                return i
        return None


@dataclass(frozen=True)
class MixedDataset:
    """n datapoints with R numeric and Q categorical features.

    ``numeric`` is (n, R) finite float64; ``categorical`` is (n, Q) int64
    with the entry of column l in ``range(cardinalities[l])``. A declared
    category may have zero occurrences (the synthetic generator fixes the
    cardinality per column), though the graph pipelines reject one; the CSV
    loader only declares categories it has seen.
    """

    numeric: np.ndarray
    categorical: np.ndarray
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        num = np.asarray(self.numeric, dtype=np.float64)
        cat = np.asarray(self.categorical)
        if num.ndim != 2 or cat.ndim != 2:
            raise DataError("numeric and categorical parts must be 2-D")
        if num.shape[0] != cat.shape[0]:
            raise DataError("numeric and categorical parts disagree on row count")
        cards = tuple(as_int(t, "cardinality", 1, DataError) for t in self.cardinalities)
        if len(cards) != cat.shape[1]:
            raise DataError("cardinalities length does not match categorical columns")
        object.__setattr__(self, "numeric", num)
        object.__setattr__(self, "categorical", check_codes(cat, cards, "categorical codes"))
        object.__setattr__(self, "cardinalities", cards)
        if self.n < 1:
            raise DataError("dataset has no rows")
        if self.num_numeric + self.num_categorical < 1:
            raise DataError("dataset has no feature columns")
        nonfinite = np.flatnonzero(~np.isfinite(num).all(axis=0))
        if nonfinite.size:
            raise DataError(
                f"numeric column {int(nonfinite[0])} has non-finite values")

    @property
    def n(self) -> int:
        return self.numeric.shape[0]

    @property
    def num_numeric(self) -> int:
        return self.numeric.shape[1]

    @property
    def num_categorical(self) -> int:
        return self.categorical.shape[1]


def _read_columns(path, schema: ColumnSchema):
    """(header, lines, columns): the header, the line number of each data
    record and the columns of the data records, after the width checks.

    The records are read with the cyclic garbage collector paused: each is a
    new tracked list, and on large files the collector's repeated full
    passes over them cost almost as much as the rest of the load. No record
    or column tuple forms a reference cycle, and the records are freed by
    reference counting when this returns.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    enabled = gc.isenabled()
    gc.disable()
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                rows = list(reader)
            except (UnicodeDecodeError, csv.Error) as exc:
                raise csv_error(path, reader, exc) from None
        if header is None:
            raise DataError(f"{path} is empty")
        if len(header) != schema.width:
            raise SchemaError(
                f"schema has {schema.width} roles but header has {len(header)} columns")

        widths = np.fromiter(map(len, rows), np.int64, len(rows))
        wrong = np.flatnonzero((widths != schema.width) & (widths > 0))
        if wrong.size:
            raise SchemaError(f"line {wrong[0] + 2}: expected {schema.width} "
                              f"fields, got {widths[wrong[0]]}")
        if not schema.numeric_indices and not schema.categorical_indices:
            raise SchemaError("schema declares no feature columns")

        lines = np.flatnonzero(widths) + 2
        # a file without data records has no columns to transpose
        columns = list(zip(*filter(None, rows))) or [()] * schema.width
    finally:
        if enabled:
            gc.enable()
    return header, lines, columns


def _token_codes(column, missing) -> tuple[np.ndarray, list[int]]:
    """(codes, absent) for a column of raw tokens: each row's code is the
    first row whose token strips to the same value, and ``absent`` holds the
    codes of values in ``missing``. Only distinct raw tokens are stripped."""
    first: dict[str, int] = {}
    codes = np.fromiter(map(first.setdefault, column, range(len(column))),
                        np.int64, len(column))
    merged: dict[str, int] = {}  # raw tokens that strip alike share a code
    remap = np.empty(len(column), dtype=np.int64)
    remap[np.fromiter(first.values(), np.int64, len(first))] = np.fromiter(
        map(merged.setdefault, map(str.strip, first), first.values()),
        np.int64, len(first))
    return remap[codes], [merged[value] for value in missing if value in merged]


def load_mixed_csv(path, schema: ColumnSchema,
                   missing_values: Sequence[str] = DEFAULT_MISSING,
                   ) -> tuple[MixedDataset, Optional[np.ndarray]]:
    """Load a header-ed CSV into a MixedDataset plus optional labels.

    The records are read once and parsed column-wise. Blank records are
    skipped but counted in the line numbers of error messages. Tokens are
    compared after stripping surrounding whitespace. Rows with a missing value
    in any non-ignored column are dropped. Categorical (and ordinal)
    columns and the label, which is returned separately, are
    dictionary-encoded in first-appearance order over the surviving rows, so
    unused category levels never receive a code.

    Cost: numeric tokens are stripped, tested and parsed one by one. A
    categorical or label column costs one dictionary lookup per token, and
    the strip, the merge of padded tokens and the missing test run once per
    distinct token, so it is cheapest when distinct tokens are few.
    """
    missing = set(missing_values) | {""}
    header, lines, columns = _read_columns(path, schema)
    keep = np.ones(lines.size, dtype=bool)
    for col in schema.numeric_indices:
        columns[col] = list(map(str.strip, columns[col]))
        keep &= ~np.fromiter(map(missing.__contains__, columns[col]), bool, lines.size)
    label = () if schema.label_index is None else (schema.label_index,)
    for col in schema.categorical_indices + label:
        columns[col], absent = _token_codes(columns[col], missing)
        keep &= np.isin(columns[col], absent, invert=True)
    n = int(keep.sum())
    if n == 0:
        raise DataError("dataset empty after removing rows with missing values")

    numeric = np.empty((n, len(schema.numeric_indices)))
    kept = keep.tolist()
    for j, col in enumerate(schema.numeric_indices):
        tokens = list(compress(columns[col], kept))
        try:
            numeric[:, j] = np.fromiter(map(float, tokens), np.float64, n)
        except ValueError:
            for line_no, tok in zip(lines[keep], tokens):
                try:
                    float(tok)
                except ValueError:
                    raise DataError(
                        f"line {line_no}, column {header[col]!r}: "
                        f"cannot parse {tok!r} as numeric") from None

    categorical = np.empty((n, len(schema.categorical_indices)), dtype=np.int64)
    cards = []
    for j, col in enumerate(schema.categorical_indices):
        first, categorical[:, j] = _first_appearance(columns[col][keep], lines.size)
        cards.append(first.size)
    labels = _first_appearance(columns[label[0]][keep], lines.size)[1] if label else None
    return MixedDataset(numeric, categorical, tuple(cards)), labels


def standardize_numeric(ds: MixedDataset) -> MixedDataset:
    """Shift/scale every numeric column to mean 0 and standard deviation 1.

    Uses the population (divide-by-n) convention. Constant columns map to
    all-zeros. The categorical part is untouched.
    """
    if ds.num_numeric < 1:
        raise ConfigError("standardize_numeric requires at least one numeric column")
    means = ds.numeric.mean(axis=0)
    stds = ds.numeric.std(axis=0)
    centered = ds.numeric - means
    out = np.where(stds > 0.0, centered / np.where(stds > 0.0, stds, 1.0), 0.0)
    return MixedDataset(out, ds.categorical, ds.cardinalities)


@dataclass(frozen=True)
class SyntheticParams:
    """Parameters for the synthetic mixed-data generator.

    ``corruption`` selects how a corrupted categorical value is drawn:
    ``"others"`` (default) draws uniformly over the K-1 non-attached
    categories, so ``p`` is exactly the probability of landing outside the
    attached cluster's category; ``"uniform"`` draws over all K categories.
    """

    n: int
    k: int
    q: int
    sigma: float
    p: float
    seed: int = 0
    corruption: str = "others"

    def __post_init__(self):
        if as_int(self.n, "n", 1) < as_int(self.k, "cluster count k", 2):
            raise ConfigError("synthetic generator requires n >= k")
        as_int(self.q, "q", 0)
        if not 0.0 <= as_real(self.p, "p") <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
        if not 0.0 <= as_real(self.sigma, "sigma") < np.inf:
            raise ConfigError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.corruption not in ("others", "uniform"):
            raise ConfigError("corruption must be 'others' or 'uniform'")
        object.__setattr__(self, "seed", _check_seed(self.seed))


def generate_synthetic(params: SyntheticParams) -> tuple[MixedDataset, np.ndarray]:
    """Generate a synthetic mixed dataset with ground-truth labels.

    Cluster k contributes n//k points (one extra for the first n % k
    clusters), drawn from an isotropic normal around the k-th canonical basis
    vector of R^K with standard deviation sigma. Each of the q categorical
    columns has K categories; a point of cluster k keeps category k with
    probability 1-p and is otherwise corrupted per ``params.corruption``.
    Points are emitted in cluster order; output is bitwise reproducible for a
    fixed seed (numeric part drawn first, then categorical columns in order).
    """
    rng = np.random.default_rng(params.seed)
    n, k, q = params.n, params.k, params.q

    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)

    eye = np.eye(k)
    numeric = np.vstack([
        rng.normal(loc=eye[c], scale=params.sigma, size=(sizes[c], k))
        for c in range(k)
    ])

    columns = []
    for _ in range(q):
        values = labels.copy()
        corrupt = rng.random(n) < params.p
        m = int(corrupt.sum())
        if m:
            if params.corruption == "others":
                draw = rng.integers(0, k - 1, size=m)
                values[corrupt] = draw + (draw >= labels[corrupt])
            else:
                values[corrupt] = rng.integers(0, k, size=m)
        columns.append(values)
    categorical = (np.column_stack(columns) if columns
                   else np.empty((n, 0), dtype=np.int64))

    ds = MixedDataset(numeric, categorical, tuple([k] * q))
    return ds, labels
