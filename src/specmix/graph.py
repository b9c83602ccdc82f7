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

import numpy as np
from scipy import sparse

from .dataset import MixedDataset, OneHotMatrix
from .eigen import _as_operator
from .errors import ConfigError, DataError

_SYM_TOL = 1e-10
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
        """Weight matrix times a vector or a block of column vectors."""
        return self.matrix @ _block(x, self.n)

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


@dataclass(frozen=True)
class StackedEncoder:
    """The n x t matrix H = unit @ diag(weights): ``unit`` is the sparse
    one-hot matrix of all categorical variables side by side (one unit entry
    per row and variable), and ``weights`` holds each column's lambda.

    Every row sums to the total edge weight (``lam_total``); column j of
    variable l sums to lambda_l times that category's count.
    """

    encoders: tuple[OneHotMatrix, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        if not self.encoders:
            raise ConfigError("stacked encoder needs at least one variable")
        if len(self.encoders) != len(self.lambdas):
            raise ConfigError("one lambda per categorical variable is required")
        if not all(0.0 < lam < np.inf for lam in self.lambdas):
            raise ConfigError("edge weights lambda must be positive and finite")
        if len({enc.n for enc in self.encoders}) > 1:
            raise DataError("encoders disagree on row count")
        cards = [enc.cardinality for enc in self.encoders]
        # Columns ascend within each row, so products sum in variable order.
        cols = np.column_stack([enc.codes for enc in self.encoders])
        cols += np.cumsum([0] + cards[:-1])
        unit = sparse.csr_array(
            (np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, len(cards))),
            shape=(cols.shape[0], sum(cards)))
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_unit_t", unit.T)  # a CSC view; .T rebuilds it per call
        object.__setattr__(self, "weights", np.repeat(self.lambdas, cards))
        # An unused category would be an isolated extra node (specmix) or a
        # zero-degree one (onlycat); both pipelines reject it here.
        empty = np.flatnonzero(self.column_sums <= 0.0)
        if empty.size:
            raise DataError(f"category column {int(empty[0])} has no datapoints")

    @property
    def n(self) -> int:
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
        return self.weights * np.bincount(self.unit.indices, minlength=self.t)

    def dense(self) -> np.ndarray:
        return self.unit.toarray() * self.weights

    # Weights act on the t side, so H.T x is lambda times a sum of x_i and
    # rounds as a per-variable scatter-add. x.T puts the rows last, so the
    # weights broadcast over a vector and a block alike.
    def apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x for a length-t vector or a t x m block."""
        return self.unit @ (self.weights * _block(x, self.t).T).T

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """H.T @ x for a length-n vector or an n x m block."""
        return (self.weights * (self._unit_t @ _block(x, self.n)).T).T


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
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def t(self) -> int:
        return self.stacked.t

    @property
    def dim(self) -> int:
        return self.n + self.t

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Implied dense weight matrix times a vector or a block of column
        vectors."""
        x = _block(x, self.dim)
        n = self.n
        return np.concatenate([
            self.base.matrix @ x[:n] + self.stacked.apply(x[n:]),
            self.stacked.apply_transpose(x[:n]) + x[n:]])

    def dense(self) -> np.ndarray:
        """Materialize the full (n+t) x (n+t) weight matrix."""
        h = self.stacked.dense()
        return np.block([[self.base.matrix, h], [h.T, np.eye(self.t)]])


def assemble_augmented(base: BaseWeights, encoders, lambdas) -> AugmentedGraph:
    """Assemble the augmented graph and cache its degree vector.

    Data node i has degree (row sum of the base weights) + sum_l lambda_l;
    extra node (l, j) has degree lambda_l * (count of category j) + 1.
    """
    stacked = StackedEncoder(tuple(encoders), tuple(float(v) for v in lambdas))
    if stacked.n != base.n:
        raise DataError(f"encoders have {stacked.n} rows, base graph has {base.n}")
    degrees = np.concatenate([base.degrees + stacked.lam_total,
                              stacked.column_sums + 1.0])
    return AugmentedGraph(base, stacked, degrees)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Volume-normalized cluster indicator matrix.

    Row i has a single nonzero 1/sqrt(vol(cluster of i)) in its cluster's
    column, where volumes are taken with respect to the degrees the matrix
    was built against; this makes Z.T @ D @ Z the identity.
    """

    entries: np.ndarray
    labels: np.ndarray
    volumes: np.ndarray


def assignment_matrix(labels, degrees, k: int) -> AssignmentMatrix:
    """Build the assignment matrix of a hard partition against ``degrees``."""
    labels = np.asarray(labels, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.float64)
    if labels.shape != degrees.shape:
        raise ConfigError("labels and degrees must have equal length")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ConfigError(f"labels must lie in [0, {k})")
    volumes = np.bincount(labels, weights=degrees, minlength=k)
    if (volumes <= 0.0).any():
        empty = int(np.flatnonzero(volumes <= 0.0)[0])
        raise ConfigError(f"cluster {empty} is empty (zero volume)")
    entries = np.zeros((labels.size, k))
    entries[np.arange(labels.size), labels] = 1.0 / np.sqrt(volumes[labels])
    return AssignmentMatrix(entries, labels, volumes)


def assignment_energy(assign: AssignmentMatrix, graph) -> float:
    """tr(Z.T L Z) for L = D - W, without materializing L.

    Equals the normalized-cut value of the partition the matrix encodes.
    ``graph`` is an AugmentedGraph, BaseWeights or a symmetric matrix.
    """
    matvec, dim, _ = _as_operator(graph)
    degrees = graph.degrees if hasattr(graph, "degrees") else np.asarray(graph).sum(axis=1)
    z = assign.entries
    if z.shape[0] != dim:
        raise ConfigError(f"assignment has {z.shape[0]} rows, graph has {dim} nodes")
    degree_term = float(np.sum(degrees * np.einsum("ik,ik->i", z, z)))
    return degree_term - float(np.einsum("ik,ik->", z, matvec(z)))


def delta_counts(data_labels, extra_labels, encoder: OneHotMatrix, k: int) -> np.ndarray:
    """K x K matrix counting datapoints of cluster a whose category node
    (for this variable) was assigned to cluster b."""
    data_labels = np.asarray(data_labels, dtype=np.int64)
    extra_labels = np.asarray(extra_labels, dtype=np.int64)
    if data_labels.size != encoder.n:
        raise ConfigError("data labels length does not match encoder rows")
    if extra_labels.size != encoder.cardinality:
        raise ConfigError("extra labels length does not match category count")
    for arr in (data_labels, extra_labels):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise ConfigError(f"labels must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (data_labels, extra_labels[encoder.codes]), 1)
    return counts
