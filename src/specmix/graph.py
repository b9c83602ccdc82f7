"""Similarity graphs for mixed-type spectral clustering.

The base graph connects datapoints through a Gaussian similarity on their
numeric features. The augmented graph appends one extra node per category of
each categorical variable; datapoint i is linked to the extra node of its
category in variable l with weight lambda_l, and every extra node carries a
unit self-loop. The augmentation is never materialized densely except on
demand: products go through the sparse one-hot matrix H, costing
O(n^2 + nQ) per column, and take a vector or a block of column vectors.

Graphs are immutable after assembly; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

from .dataset import MixedDataset, as_int, check_codes, is_real
from .eigen import _SYM_TOL, _as_operator
from .errors import ConfigError, DataError

# Bytes per row block of the similarity build: small enough to stay in cache.
_BLOCK_BYTES = 1 << 20


def _block(x, rows: int) -> np.ndarray:
    """``x`` as a float64 vector or block of column vectors with ``rows`` rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != rows:
        raise ConfigError(f"expected a vector or block with {rows} rows, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class BaseWeights:
    """Dense symmetric similarity matrix over the n datapoints.

    Entries lie in [0, 1]; the diagonal is exactly 1 (zero self-distance),
    which adds a unit self-loop per data node. Self-loops cancel in the
    Laplacian but contribute to degrees, consistently with the unit
    self-loops on extra nodes.
    """

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataError("weight matrix must be square")
        if w.size and not (w.min() >= 0.0 and w.max() <= 1.0 + _SYM_TOL):  # NaN fails
            raise DataError("base similarities must lie in [0, 1]")
        if np.abs(w - w.T).max(initial=0.0) > _SYM_TOL:
            raise DataError("weight matrix must be symmetric")
        if w.size and np.abs(np.diag(w) - 1.0).max() > _SYM_TOL:
            raise DataError("base similarity diagonal must be 1 (unit self-loops)")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.n

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Weight matrix times a vector or a block of column vectors.

        W is symmetric, so W X is computed as (X.T W).T: at n=4000 with 2
        BLAS threads a block of 4 columns takes about 10 ms that way against
        16-18 ms for W @ X.
        """
        return (_block(x, self.n).T @ self.matrix).T

    def dense(self) -> np.ndarray:
        return self.matrix


def base_similarity(ds: MixedDataset) -> BaseWeights:
    """Fully connected Gaussian similarity on the numeric features.

    w(i, j) = exp(-sum_l (x_il - x_jl)^2), with no bandwidth scaling.

    The Gram matrix is the only n x n buffer: each row block in turn becomes
    ``(sq_i + sq_j) - 2 g_ij``, then its similarities, then its row sums,
    while it is still in cache. The degree vector comes from the same pass.
    """
    if ds.num_numeric < 1:
        raise ConfigError("numeric features required; use onlycat")
    x = ds.numeric
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    w = x @ x.T  # numpy fills one triangle and mirrors it: exactly symmetric
    degrees = np.empty(n)
    step = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, step):
        r = slice(start, min(start + step, n))
        blk = w[r]
        blk *= 2.0
        np.subtract(np.add.outer(sq[r], sq), blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        np.exp(np.negative(blk, out=blk), out=blk)
        np.fill_diagonal(blk[:, r], 1.0)
        degrees[r] = blk.sum(axis=1)
    # Symmetric, in [0, 1] and with a unit diagonal by construction.
    weights = object.__new__(BaseWeights)
    object.__setattr__(weights, "matrix", w)
    object.__setattr__(weights, "degrees", degrees)
    return weights


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
    ``unit`` is the sparse one-hot matrix of all Q variables side by side (one
    unit entry per row and variable), and ``weights`` holds each column's lambda.

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
        shape = (cols.shape[0], sum(cards))
        indptr = np.arange(0, cols.size + 1, len(cards))
        unit = sparse.csr_array((np.ones(cols.size), cols.ravel(), indptr), shape=shape)
        if self.inverse is None:
            counts = np.ones(shape[0], dtype=np.int64)
        else:
            if np.ndim(self.inverse) != 1:
                raise DataError("tuple inverse must be a 1-D array")
            inverse = check_codes(self.inverse, shape[0], "tuple inverse")
            object.__setattr__(self, "inverse", inverse)
            counts = np.bincount(inverse, minlength=shape[0])
            if not counts.all():
                raise DataError(f"tuple {int(np.argmin(counts))} has no datapoints")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_unit_t", unit.T)  # a CSC view; .T rebuilds it per call
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
        return self.unit.shape[0]

    @property
    def t(self) -> int:
        return self.unit.shape[1]

    @property
    def lam_total(self) -> float:
        """Constant row sum of the stacked matrix."""
        return float(sum(self.lambdas))

    @cached_property
    def column_sums(self) -> np.ndarray:
        return self.weights * (self._unit_t @ self.counts)  # exact integer counts

    def cooccurrence(self) -> np.ndarray:
        """The dense t x t matrix unit.T @ unit over the n datapoints: how
        many datapoints take both categories, exact integers."""
        counted = sparse.diags_array(self.counts.astype(np.float64)) @ self.unit
        return (self._unit_t @ counted).toarray()

    def dense(self) -> np.ndarray:
        """H, one row per row of ``codes``."""
        return self.unit.toarray() * self.weights

    # Weights act on the t side, so H.T x is lambda times a sum of x_i and
    # rounds as a per-variable scatter-add. x.T puts the rows last, so the
    # weights broadcast over a vector and a block alike.
    def apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x for a length-t vector or a t x m block, one row per row of
        ``codes``."""
        return self.unit @ (self.weights * _block(x, self.t).T).T

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """H.T @ x for a vector or block with one row per row of ``codes``."""
        counted = (self.counts * _block(x, self.rows).T).T  # exact at count 1
        return (self.weights * (self._unit_t @ counted).T).T


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

    def dense(self) -> np.ndarray:
        """Materialize the full (n+t) x (n+t) weight matrix."""
        h = self.stacked.dense()
        return np.block([[self.base.matrix, h], [h.T, np.eye(self.t)]])


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
    symmetric matrix.
    """
    matvec, dim = _as_operator(graph)
    degrees = graph.degrees if hasattr(graph, "degrees") else np.asarray(graph).sum(axis=1)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != dim:
        raise ConfigError(f"assignment must be a {dim}-row matrix, got shape {z.shape}")
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
