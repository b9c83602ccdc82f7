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
import io
import numbers
import operator
from dataclasses import dataclass
from itertools import chain, compress
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


def read_text(path, error: type[SpecmixError] = DataError) -> str:
    """The UTF-8 text of ``path``, line ends as they are in the file. A byte
    that does not decode raises ``error`` naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # lines end at \r\n, \r or \n, as in csv
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}, line {line}: not UTF-8 text") from None


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
    """``value`` as an int of at least ``low``. A bool, a value
    ``operator.index`` refuses (a float, even a whole one) or a smaller one
    raises ``error`` naming ``what``; numpy integers pass."""
    try:  # None for a bool, which operator.index takes as 0 or 1
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def is_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_real(value, what: str) -> float:
    """``value`` as a float; a bool or another non-number raises ConfigError
    naming ``what``."""
    if not is_real(value):
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


def _each_record(path, text: str):
    """``_read_records`` for CSV text with a ``"``, read record by record
    since a quoted field may span lines: every nonblank data record counts
    as distinct, and its line is the one it starts on. A quoted field still
    open at the end of the text is a DataError naming that line."""
    ended = []  # nonempty once the csv reader has asked past the last line

    def physical_lines():
        yield from io.StringIO(text, newline="")
        ended.append(True)

    reader = csv.reader(physical_lines())
    records, lines, end = [], [], 0
    try:
        for record in reader:
            if ended:  # only an open quoted field reads past the last line
                raise DataError(f"{path}, line {end + 1}: quoted field not "
                                "closed before the end of the file")
            if record or not lines:  # the header, and each nonblank record
                records.append(record)
                lines.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    header, *records = records or [None]
    return header, records, np.arange(len(records)), np.array(lines[1:], np.int64)


def _read_records(path):
    """(header, records, inverse, lines) for the CSV file at ``path``: the
    header record (None for an empty file), the distinct nonblank data
    records in order of first appearance, the number of each nonblank data
    line's record, and the line on which each record first starts.

    Text without a ``"`` holds one record per line. It is split where the
    csv module ends a line, at ``\\r\\n``, ``\\r`` and ``\\n``
    (``str.splitlines`` would also split at ``\\x0c``, ``\\x1c``,
    ``\\u2028`` and more), each line is numbered by its first appearance in
    one dictionary pass, and only the distinct lines are parsed. Text with a
    ``"`` is parsed record by record (``_each_record``).
    """
    text = read_text(path)
    if '"' in text:
        return _each_record(path, text)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = text.split("\n")
    del text  # the lines hold a second copy
    if not rows[-1]:
        rows.pop()  # what follows the last line end, or the empty text
    head, data = rows[:1], rows[1:]
    first: dict[str, int] = {}  # each distinct data line -> its first line
    codes = np.fromiter(map(first.setdefault, data, range(2, len(rows) + 1)),
                        np.int64, len(data))
    blank = first.pop("", 0)  # a blank line holds no record
    lines = np.fromiter(first.values(), np.int64, len(first))
    rank = np.zeros(len(rows) + 1, dtype=np.int64)
    rank[lines] = np.arange(lines.size)
    reader = csv.reader(chain(head, first))
    try:
        header = next(reader, None)
        records = list(reader)
    except csv.Error as exc:
        at = lines[reader.line_num - 2] if reader.line_num > 1 else 1
        raise DataError(f"{path}, line {at}: {exc}") from None
    return header, records, rank[codes[codes != blank]], lines


def _token_codes(column, missing) -> tuple[np.ndarray, list[int]]:
    """(codes, absent) for a column of raw tokens: each entry's code is the
    first entry whose token strips to the same value, and ``absent`` holds
    the codes of values in ``missing``. Only distinct raw tokens are
    stripped."""
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

    Blank lines are skipped but counted in the line numbers of error
    messages. Tokens are compared after stripping surrounding whitespace.
    Rows with a missing value in any non-ignored column are dropped.
    Categorical (and ordinal) columns and the label, which is returned
    separately, are dictionary-encoded in first-appearance order over the
    surviving rows, so unused category levels never receive a code.

    Everything runs once per distinct data record of ``_read_records``:
    the width check, the strip, the missing test, the numeric parse and
    the dictionary encoding, and also the first-appearance renumbering,
    since the records come in order of first appearance. Rows are reached
    only by numpy gathers through the records' inverse.

    Cost: a file without a ``"`` is split into lines and each line looked
    up once in a dictionary; the csv parse and all the work above then run
    per distinct line, so the load is cheapest when lines repeat. Text
    holding a ``"`` is parsed record by record and every record counts as
    distinct. A file whose lines are all distinct, as any file with a
    numeric column is, pays the split and the lookup on top of parsing
    every line: 11-17% more than a record-by-record read at 400k rows with
    4 numeric columns.
    """
    missing = set(missing_values) | {""}
    # Each record is a new tracked list. Where many are built, the
    # collector's repeated full passes over them cost almost as much as the
    # rest of the load, so they are built, transposed and freed with it
    # paused; no record forms a reference cycle.
    enabled = gc.isenabled()
    gc.disable()
    try:
        header, records, inverse, lines = _read_records(path)
        if header is None:
            raise DataError(f"{path} is empty")
        if len(header) != schema.width:
            raise SchemaError(f"schema has {schema.width} roles but header "
                              f"has {len(header)} columns")
        widths = np.fromiter(map(len, records), np.int64, len(records))
        wrong = np.flatnonzero(widths != schema.width)
        if wrong.size:
            raise SchemaError(f"line {lines[wrong[0]]}: expected {schema.width} "
                              f"fields, got {widths[wrong[0]]}")
        if not schema.numeric_indices and not schema.categorical_indices:
            raise SchemaError("schema declares no feature columns")
        # a file without data records has no columns to transpose
        columns = list(zip(*records)) or [()] * schema.width
        del records
    finally:
        if enabled:
            gc.enable()
    keep = np.ones(lines.size, dtype=bool)
    for col in schema.numeric_indices:
        columns[col] = list(map(str.strip, columns[col]))
        keep &= ~np.fromiter(map(missing.__contains__, columns[col]), bool, lines.size)
    label = () if schema.label_index is None else (schema.label_index,)
    for col in schema.categorical_indices + label:
        columns[col], absent = _token_codes(columns[col], missing)
        keep &= np.isin(columns[col], absent, invert=True)
    rows = (np.cumsum(keep) - 1)[inverse[keep[inverse]]]  # kept record per kept row
    n = rows.size
    if n == 0:
        raise DataError("dataset empty after removing rows with missing values")

    numeric = np.empty((n, len(schema.numeric_indices)))
    kept = keep.tolist()
    for j, col in enumerate(schema.numeric_indices):
        tokens = list(compress(columns[col], kept))
        try:
            numeric[:, j] = np.fromiter(map(float, tokens), np.float64, len(tokens))[rows]
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
        first, codes = _first_appearance(columns[col][keep], lines.size)
        categorical[:, j] = codes[rows]
        cards.append(first.size)
    labels = (_first_appearance(columns[label[0]][keep], lines.size)[1][rows]
              if label else None)
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
    # a constant column whose mean rounds has a tiny positive std, not 0
    stds[(ds.numeric == ds.numeric[:1]).all(axis=0)] = 0.0
    centered = ds.numeric - means
    out = np.where(stds > 0.0, centered / np.where(stds > 0.0, stds, 1.0), 0.0)
    return MixedDataset(out, ds.categorical, ds.cardinalities)


@dataclass(frozen=True)
class SyntheticParams:
    """Parameters for the synthetic mixed-data generator."""

    n: int
    k: int
    q: int
    sigma: float
    p: float
    seed: int = 0

    def __post_init__(self):
        for name, value in dict(
                n=as_int(self.n, "n", 1), k=as_int(self.k, "cluster count k", 2),
                q=as_int(self.q, "q", 0), p=as_real(self.p, "p"),
                sigma=as_real(self.sigma, "sigma"), seed=_check_seed(self.seed)).items():
            object.__setattr__(self, name, value)
        if self.n < self.k:
            raise ConfigError("synthetic generator requires n >= k")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and nonnegative, got {self.sigma}")


def generate_synthetic(params: SyntheticParams) -> tuple[MixedDataset, np.ndarray]:
    """Generate a synthetic mixed dataset with ground-truth labels.

    Cluster k contributes n//k points (one extra for the first n % k
    clusters), drawn from an isotropic normal around the k-th canonical basis
    vector of R^K with standard deviation sigma. Each of the q categorical
    columns has K categories; a point of cluster k keeps category k with
    probability 1-p and is otherwise corrupted: it takes one of the K-1
    other categories, uniformly, so ``p`` is exactly the probability of
    landing outside the attached cluster's category.
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
            draw = rng.integers(0, k - 1, size=m)
            values[corrupt] = draw + (draw >= labels[corrupt])
        columns.append(values)
    categorical = (np.column_stack(columns) if columns
                   else np.empty((n, 0), dtype=np.int64))

    ds = MixedDataset(numeric, categorical, tuple([k] * q))
    return ds, labels
