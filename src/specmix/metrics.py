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

from .errors import DataError


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of predicted clusters against true classes. Build
    one per pair of label vectors and read every score from it."""

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
        clusters, pi = np.unique(pred, return_inverse=True)
        classes, ti = np.unique(truth, return_inverse=True)
        shape = (clusters.size, classes.size)
        counts = np.bincount(pi * shape[1] + ti, minlength=shape[0] * shape[1])
        return cls(counts.reshape(shape), pred.size)

    def purity(self, mode: str = "weighted") -> float:
        """Majority-class purity of the clusters against the classes."""
        if mode not in ("weighted", "macro"):
            raise DataError(f"unknown purity mode {mode!r}")
        maxima = self.counts.max(axis=1)
        if mode == "weighted":
            return int(maxima.sum()) / self.n
        sizes = self.counts.sum(axis=1)
        nonempty = sizes > 0
        # fsum keeps the mean exactly invariant under cluster relabeling
        return math.fsum(maxima[nonempty] / sizes[nonempty]) / int(nonempty.sum())

    def agreement(self) -> float:
        """Largest fraction of points on which the clusters equal a
        relabeling of the classes: exact optimal matching over the table."""
        # imported here: scipy.optimize costs every process about 0.3 s and
        # 19 MB to import, and only ``specmix eval`` calls this
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(self.counts, maximize=True)
        return int(self.counts[rows, cols].sum()) / self.n


def purity(pred, truth, mode: str = "weighted") -> float:
    """Majority-class purity of a predicted clustering against ground truth."""
    return ContingencyTable.from_labels(pred, truth).purity(mode)


def imbalance_ratio(truth) -> float:
    """Size of the smallest class divided by the size of the largest."""
    truth = np.asarray(truth)
    if truth.ndim != 1:
        raise DataError("label vector must be 1-D")
    if truth.size < 1:
        raise DataError("label vector is empty")
    _, counts = np.unique(truth, return_counts=True)
    return int(counts.min()) / int(counts.max())


def label_agreement(a, b) -> float:
    """Largest fraction of positions where ``a`` equals a cluster-id
    permutation of ``b``."""
    return ContingencyTable.from_labels(a, b).agreement()
