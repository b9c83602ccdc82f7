"""Clustering quality metrics and dataset statistics.

Pure, reentrant functions. Purity comes in two flavors: ``weighted`` (the
fraction of all points covered by each cluster's majority class) and
``macro`` (the per-cluster majority fractions averaged over nonempty
clusters). Both are invariant to relabeling of either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of predicted clusters against true classes."""

    counts: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, pred, truth) -> "ContingencyTable":
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        if pred.shape != truth.shape or pred.ndim != 1:
            raise DataError("label vectors must be 1-D and of equal length")
        if pred.size < 1:
            raise DataError("label vectors are empty")
        _, pi = np.unique(pred, return_inverse=True)
        _, ti = np.unique(truth, return_inverse=True)
        counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
        np.add.at(counts, (pi, ti), 1)
        return cls(counts, pred.size)


def purity(pred, truth, mode: str = "weighted") -> float:
    """Majority-class purity of a predicted clustering against ground truth."""
    if mode not in ("weighted", "macro"):
        raise DataError(f"unknown purity mode {mode!r}")
    table = ContingencyTable.from_labels(pred, truth)
    maxima = table.counts.max(axis=1)
    if mode == "weighted":
        return int(maxima.sum()) / table.n
    sizes = table.counts.sum(axis=1)
    nonempty = sizes > 0
    # fsum keeps the mean exactly invariant under cluster relabeling
    return math.fsum(maxima[nonempty] / sizes[nonempty]) / int(nonempty.sum())


def imbalance_ratio(truth) -> float:
    """Size of the smallest class divided by the size of the largest."""
    truth = np.asarray(truth)
    if truth.size < 1:
        raise DataError("label vector is empty")
    _, counts = np.unique(truth, return_counts=True)
    return int(counts.min()) / int(counts.max())


def label_agreement(a, b) -> float:
    """Largest fraction of positions where ``a`` equals a cluster-id
    permutation of ``b``.

    Exact optimal matching over the contingency table.
    """
    table = ContingencyTable.from_labels(a, b)
    rows, cols = linear_sum_assignment(table.counts, maximize=True)
    return int(table.counts[rows, cols].sum()) / table.n
