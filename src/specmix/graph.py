"""Similarity graphs for mixed-type spectral clustering.

The base graph connects datapoints through a Gaussian similarity on their
numeric features. The augmented graph appends one extra node per category of
each categorical variable; datapoint i is linked to the extra node of its
category in variable l with weight lambda_l, and every extra node carries a
unit self-loop. The base graph keeps only its lower triangle, in row panels
(``BaseWeights``). The augmentation is never materialized densely: products
go through the one-hot matrix H, kept as the category column of each row and
variable, costing O(n^2 + nQ) per column, and take a vector or a block of
column vectors.

Graphs are immutable after assembly; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .dataset import MixedDataset, as_int, check_codes, is_real
from .eigen import _as_operator
from .errors import ConfigError, DataError

# Bytes per row block of the similarity build: small enough to stay in cache.
_BLOCK_BYTES = 1 << 20
# Bytes per row panel of the stored lower triangle: a panel holds the most
# rows of n columns that fit, so a graph of n <= 1448 is one panel, the whole
# matrix.
_PANEL_BYTES = 1 << 24


def _block(x, rows: int) -> np.ndarray:
    """``x`` as a float64 vector or block of column vectors with ``rows`` rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != rows:
        raise ConfigError(f"expected a vector or block with {rows} rows, got shape {x.shape}")
    return x


def _panel_bounds(n: int) -> list[tuple[int, int]]:
    """The row ranges [a, b) of the panels of an n-node graph."""
    step = max(1, _PANEL_BYTES // (8 * max(n, 1)))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


@dataclass(frozen=True)
class BaseWeights:
    """Symmetric similarity matrix over the n datapoints, stored as its lower
    triangle.

    Entries lie in [0, 1]; the diagonal is exactly 1 (zero self-distance),
    which adds a unit self-loop per data node. Self-loops cancel in the
    Laplacian but contribute to degrees, consistently with the unit
    self-loops on extra nodes.

    ``panels`` holds the triangle in row panels of at most ``_PANEL_BYTES``:
    panel [a, b) is the (b - a) x b block of rows a..b-1 and columns 0..b-1,
    its square diagonal block stored whole. What lies above the diagonal
    blocks is not stored; products read it from the panels below.
    ``degrees`` holds the row sums.
    """

    panels: tuple[np.ndarray, ...]
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.degrees.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Weight matrix times a vector or a block of column vectors.

        Computed as (X.T W).T: on one panel X.T @ W, which at n=1000 with 2
        BLAS threads takes a block of 4 columns in 0.48 ms against 0.58 ms
        for W @ X. A later panel [a, b) gives rows a..b-1 of the product as
        X.T times the transposed panel, and adds the block left of its
        diagonal block, times rows a..b-1 of X, to rows 0..a-1. That reads
        the block twice, so the product costs about what the dense one did,
        8 ms for 4 columns at n=4000.
        """
        xt = _block(x, self.n).T
        yt = np.empty(xt.shape)
        for p in self.panels:
            a, b = p.shape[1] - p.shape[0], p.shape[1]
            if a:
                yt[..., a:b] = xt[..., :b] @ p.T
                yt[..., :a] += xt[..., a:b] @ p[:, :a]
            else:
                yt[..., :b] = xt[..., :b] @ p
        return yt.T


def base_similarity(ds: MixedDataset) -> BaseWeights:
    """Fully connected Gaussian similarity on the numeric features.

    w(i, j) = exp(-sum_l (x_il - x_jl)^2), with no bandwidth scaling.

    No n x n buffer: each panel starts as its rows of the Gram matrix, and
    each row block of it in turn becomes ``(sq_i + sq_j) - 2 g_ij``, then
    its similarities, then its row sums and the column sums left of the
    diagonal block, while it is still in cache. The degree vector comes
    from the same pass.

    The features are centered first: that moves no distance, but far from
    the origin ``(sq_i + sq_j) - 2 g_ij`` would cancel to noise. Features
    whose doubled squared norms overflow raise DataError.
    """
    if ds.num_numeric < 1:
        raise ConfigError("numeric features required; use onlycat")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = ds.numeric - ds.numeric.mean(axis=0)
        sq = np.einsum("ij,ij->i", x, x)
    if not (sq <= np.finfo(np.float64).max / 2).all():  # NaN fails too
        raise DataError("numeric features too large: their squared norms overflow")
    n = x.shape[0]
    degrees = np.zeros(n)
    panels = []
    for a, b in _panel_bounds(n):
        panel = np.empty((b - a, b))
        xa = x[a:b]
        np.matmul(xa, x[:a].T, out=panel[:, :a])
        np.matmul(xa, xa.T, out=panel[:, a:])  # numpy mirrors one triangle: exactly symmetric
        step = max(1, _BLOCK_BYTES // (8 * b))
        for start in range(a, b, step):
            r = slice(start, min(start + step, b))
            blk = panel[start - a:r.stop - a]
            blk *= 2.0
            np.subtract(np.add.outer(sq[r], sq[:b]), blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            np.exp(np.negative(blk, out=blk), out=blk)
            np.fill_diagonal(blk[:, r], 1.0)
            degrees[r] += blk.sum(axis=1)
            degrees[:a] += blk[:, :a].sum(axis=0)
        panels.append(panel)
    return BaseWeights(tuple(panels), degrees)


def as_lambdas(lambdas) -> tuple[float, ...]:
    """The edge weights ``lambdas``, one number or a flat sequence of them,
    as a tuple of floats. A non-number, a bool too, or a negative, infinite
    or NaN value raises ConfigError."""
    lams = np.asarray(lambdas, dtype=object)  # ragged nesting too
    if lams.ndim > 1 or not all(map(is_real, lams.flat)):
        raise ConfigError(f"lambda values must be finite numbers, got {lambdas!r}")
    values = tuple(map(float, lams.flat))
    if not all(0.0 <= v < np.inf for v in values):  # NaN fails too
        raise ConfigError("lambda values must be finite and nonnegative")
    return values


@dataclass(frozen=True)
class StackedEncoder:
    """The n x t matrix H = unit @ diag(weights) of the n x Q ``codes``:
    ``unit`` is the one-hot matrix of all Q variables side by side (one unit
    entry per row and variable), kept as ``cols``, the column of each row's
    entry for each variable, and ``weights`` holds each column's lambda.

    Every row sums to the total edge weight (``lam_total``); column j of
    variable l sums to lambda_l times that category's count.

    With ``inverse``, the rows of ``codes`` are category tuples and
    ``inverse`` maps each of the n datapoints to its tuple, so H repeats a
    tuple's row for each of its ``counts`` datapoints. Products then act on
    vectors that are equal over each tuple's datapoints and hold one entry
    per tuple: ``apply`` gives each tuple's entry of H x, and
    ``apply_transpose`` weights each tuple's entry by its count.
    """

    codes: np.ndarray
    cardinalities: tuple[int, ...]
    lambdas: tuple[float, ...]
    inverse: Optional[np.ndarray] = None

    def __post_init__(self):
        cards = tuple(as_int(t, "cardinality", 1, DataError) for t in self.cardinalities)
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "lambdas", as_lambdas(self.lambdas))
        if not cards:
            raise ConfigError("stacked encoder needs at least one variable")
        if len(self.lambdas) != len(cards):
            raise ConfigError("one lambda per categorical variable is required")
        if not all(self.lambdas):
            raise ConfigError("edge weights lambda must be positive")
        if np.shape(self.codes)[1:] != (len(cards),):
            raise DataError(f"category codes must be an n x {len(cards)} matrix")
        object.__setattr__(self, "codes", check_codes(self.codes, cards, "category codes"))
        # Columns ascend within each row, so products sum in variable order.
        cols = self.codes + np.cumsum((0,) + cards[:-1])
        if self.inverse is None:
            counts = np.ones(cols.shape[0], dtype=np.int64)
        else:
            if np.ndim(self.inverse) != 1:
                raise DataError("tuple inverse must be a 1-D array")
            inverse = check_codes(self.inverse, cols.shape[0], "tuple inverse")
            object.__setattr__(self, "inverse", inverse)
            counts = np.bincount(inverse, minlength=cols.shape[0])
            if not counts.all():
                raise DataError(f"tuple {int(np.argmin(counts))} has no datapoints")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weights", np.repeat(self.lambdas, cards))
        # An unused category would be an isolated extra node (specmix) or a
        # zero-degree one (onlycat); both pipelines reject it here.
        empty = np.flatnonzero(self.column_sums <= 0.0)
        if empty.size:
            raise DataError(f"category column {int(empty[0])} has no datapoints")

    @property
    def n(self) -> int:
        """The datapoint count."""
        return self.rows if self.inverse is None else self.inverse.size

    @property
    def rows(self) -> int:
        """The row count of ``codes``: n, or the tuple count with ``inverse``."""
        return self.cols.shape[0]

    @property
    def t(self) -> int:
        return self.weights.size

    @property
    def lam_total(self) -> float:
        """Constant row sum of the stacked matrix."""
        return float(sum(self.lambdas))

    @cached_property
    def category_counts(self) -> np.ndarray:
        """How many datapoints take each category, exact integers."""
        q = self.cols.shape[1]
        return np.bincount(self.cols.ravel(), np.repeat(self.counts, q), self.t)

    @cached_property
    def column_sums(self) -> np.ndarray:
        return self.weights * self.category_counts

    def cooccurrence(self) -> np.ndarray:
        """The dense t x t matrix unit.T @ unit over the n datapoints: how
        many datapoints take both categories, exact integers. The category
        counts make the diagonal, and one bincount over the pair keys
        code_a * card_b + code_b the block of each two variables a < b."""
        cards, lows = self.cardinalities, np.cumsum((0,) + self.cardinalities)
        codes = [np.ascontiguousarray(column) for column in self.codes.T]
        out = np.diag(self.category_counts)
        for a, b in combinations(range(len(cards)), 2):
            pairs = np.bincount(codes[a] * cards[b] + codes[b], self.counts, cards[a] * cards[b])
            out[lows[a]:lows[a + 1], lows[b]:lows[b + 1]] = pairs.reshape(cards[a], cards[b])
            out[lows[b]:lows[b + 1], lows[a]:lows[a + 1]] = pairs.reshape(cards[a], cards[b]).T
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x for a length-t vector or a t x m block, one row per row of
        ``codes``: each row of the weighted ``x`` gathered once per variable
        and added in variable order to +0.0, as a sparse row-by-row product
        sums, a chunk of rows at a time, so no whole gathered block is held."""
        xw = np.ascontiguousarray((self.weights * _block(x, self.t).T).T)
        out = np.zeros((self.rows,) + xw.shape[1:])
        step = max(1, _BLOCK_BYTES // (8 * max(1, xw[0].size)))
        gathered = np.empty((min(step, self.rows),) + xw.shape[1:])
        for a in range(0, self.rows, step):
            chunk = out[a:a + step]
            for col in self.cols[a:a + step].T:
                chunk += np.take(xw, col, axis=0, out=gathered[:chunk.shape[0]], mode="clip")
        return out

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """H.T @ x for a vector or block with one row per row of ``codes``:
        each row, times its count, added to its Q columns in row order from
        +0.0, as a sparse column-by-column product sums: one ``np.bincount``
        per variable and column of ``x``."""
        x = _block(x, self.rows)
        counted = np.multiply(self.counts, x.T, order="C")  # a row per column of x
        sums = np.empty(counted.shape[:-1] + (self.t,))
        lows = np.cumsum((0,) + self.cardinalities)
        for codes, lo, hi in zip(self.codes.T, lows[:-1], lows[1:]):
            codes = np.ascontiguousarray(codes)
            for column, out in zip(counted.reshape(-1, self.rows), sums.reshape(-1, self.t)):
                out[lo:hi] = np.bincount(codes, column, hi - lo)
        return (self.weights * sums).T


@dataclass(frozen=True)
class AugmentedGraph:
    """Base graph plus category extra nodes, in block-structured form.

    Node layout: data nodes 0..n-1, then the categories of variable 0, of
    variable 1, and so on. The implied dense matrix is [[W, H], [H.T, I]]:
    the base weights W, the stacked lambda-weighted one-hot matrix H
    off-diagonal, and unit self-loops on the extra nodes.
    """

    base: BaseWeights
    stacked: StackedEncoder

    def __post_init__(self):
        if self.stacked.inverse is not None:
            raise ConfigError("the augmented graph needs one encoder row per datapoint")
        if self.stacked.n != self.base.n:
            raise DataError(f"stacked encoder has {self.stacked.n} rows, "
                            f"base graph has {self.base.n}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def t(self) -> int:
        return self.stacked.t

    @property
    def dim(self) -> int:
        return self.n + self.t

    @cached_property
    def degrees(self) -> np.ndarray:
        """Data node i: its base row sum + sum_l lambda_l; extra node (l, j):
        lambda_l * (count of category j) + 1."""
        return np.concatenate([self.base.degrees + self.stacked.lam_total,
                               self.stacked.column_sums + 1.0])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Implied dense weight matrix times a vector or a block of column
        vectors."""
        x = _block(x, self.dim)
        n = self.n
        return np.concatenate([
            self.base.matvec(x[:n]) + self.stacked.apply(x[n:]),
            self.stacked.apply_transpose(x[:n]) + x[n:]])


def assemble_augmented(base: BaseWeights, stacked: StackedEncoder) -> AugmentedGraph:
    """The augmented graph of ``base`` and ``stacked``; a DataError when they
    disagree on the row count."""
    return AugmentedGraph(base, stacked)


def assignment_matrix(labels, degrees, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, volumes) for a hard partition against ``degrees``: the
    volume-normalized indicator matrix Z, whose row i holds
    1/sqrt(vol(cluster of i)) in its cluster's column so that Z.T @ D @ Z is
    the identity, and each cluster's volume."""
    labels = check_codes(labels, k, "labels", ConfigError)
    degrees = np.asarray(degrees, dtype=np.float64)
    if labels.shape != degrees.shape:
        raise ConfigError("labels and degrees must have equal length")
    volumes = np.bincount(labels, weights=degrees, minlength=k)
    if (volumes <= 0.0).any():
        empty = int(np.flatnonzero(volumes <= 0.0)[0])
        raise ConfigError(f"cluster {empty} is empty (zero volume)")
    z = np.zeros((labels.size, k))
    z[np.arange(labels.size), labels] = 1.0 / np.sqrt(volumes[labels])
    return z, volumes


def assignment_energy(z, graph) -> float:
    """tr(Z.T L Z) for L = D - W, without materializing L.

    Equals the normalized-cut value of the partition whose assignment
    matrix is ``z``. ``graph`` is an AugmentedGraph, BaseWeights or a
    symmetric matrix, read with its degrees as the eigensolver reads it
    (``eigen._as_operator``).
    """
    matvec, degrees = _as_operator(graph)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != degrees.size:
        raise ConfigError(f"assignment must be a {degrees.size}-row matrix, "
                          f"got shape {z.shape}")
    degree_term = float(np.sum(degrees * np.einsum("ik,ik->i", z, z)))
    return degree_term - float(np.einsum("ik,ik->", z, matvec(z)))


def delta_counts(data_labels, extra_labels, codes, cardinality: int, k: int) -> np.ndarray:
    """K x K matrix counting datapoints of cluster a whose category node
    (for the variable with these ``codes``) was assigned to cluster b."""
    data_labels = check_codes(data_labels, k, "labels", ConfigError)
    extra_labels = check_codes(extra_labels, k, "labels", ConfigError)
    cardinality = as_int(cardinality, "cardinality", 1, DataError)
    if np.ndim(codes) != 1:
        raise DataError("category codes must be a vector")
    codes = check_codes(codes, cardinality, "category codes")
    if data_labels.size != codes.size:
        raise ConfigError("data labels length does not match the code count")
    if extra_labels.size != cardinality:
        raise ConfigError("extra labels length does not match category count")
    pairs = data_labels * k + extra_labels[codes]
    return np.bincount(pairs, minlength=k * k).reshape(k, k)
