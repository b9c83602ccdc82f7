"""Partitional reference baselines: K-modes and K-prototypes.

Both alternate between computing cluster prototypes and nearest-prototype
assignment, starting from K distinct random datapoints, with independent
restarts keeping the best objective. All tie-breaks (nearest prototype,
column modes, farthest-point repair) go to the lowest index, so runs are
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import MixedDataset, as_codes
from .errors import ConfigError, DataError
from .kmeans import _repair_empty, _sq_dists


@dataclass(frozen=True)
class PrototypeSet:
    """Cluster prototypes: numeric means, categorical modes, and the weight
    of the categorical (Hamming) term in the mixed assignment cost."""

    numeric_centers: np.ndarray
    modes: np.ndarray
    gamma_mix: float


def _column_modes(categorical, labels, k, cards) -> np.ndarray:
    """The (k, Q) per-cluster majority codes, ties to the lowest code."""
    modes = np.empty((k, categorical.shape[1]), dtype=np.int64)
    for col, card in enumerate(cards):
        counts = np.bincount(labels * card + categorical[:, col], minlength=k * card)
        modes[:, col] = counts.reshape(k, card).argmax(axis=1)
    return modes


def _alternate(numeric, categorical, cards, k, rng, max_iters, gamma_mix):
    """One restart of the alternating minimization shared by both baselines.
    ``numeric`` is None for the purely categorical case."""
    n, q = categorical.shape
    init = rng.choice(n, size=k, replace=False)
    centers = numeric[init].copy() if numeric is not None else None
    modes = categorical[init].copy()
    p2 = np.einsum("ij,ij->i", numeric, numeric) if numeric is not None else None

    def assignment_cost():
        cost = (_sq_dists(numeric, centers, p2) if numeric is not None
                else np.zeros((n, k)))
        if gamma_mix != 0.0:
            # Hamming distance = Q - matches, counted one column at a time so
            # memory stays O(nk) whatever the cardinalities
            matches = np.zeros((n, k))
            for col in range(q):
                matches += categorical[:, col, None] == modes[None, :, col]
            cost += gamma_mix * (q - matches)
        return cost

    # The cost matrix computed for an iteration's assignment also gives the
    # previous iteration's objective. When the labels repeat, the prototypes
    # do too, so that iteration's own matrix gives its objective.
    labels = np.full(n, -1, dtype=np.int64)
    objective = np.inf
    history = []
    cost = assignment_cost()
    for _ in range(max_iters):
        new_labels = np.argmin(cost, axis=1).astype(np.int64)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            new_labels, counts = _repair_empty(new_labels, counts, cost)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if not converged:
            if numeric is not None:
                for c in range(k):
                    centers[c] = numeric[labels == c].mean(axis=0)
            modes = _column_modes(categorical, labels, k, cards)
            cost = assignment_cost()
        objective = float(cost[np.arange(n), labels].sum())
        history.append(objective)
        if converged:
            break
    return labels, centers, modes, objective, history


def kmodes(categorical, k: int, seed: int = 0, max_iters: int = 100,
           restarts: int = 10) -> np.ndarray:
    """K-modes over an (n, Q) integer category matrix.

    Alternates columnwise-majority mode computation with nearest-mode
    (Hamming) assignment until the labels stabilize.
    """
    codes = np.asarray(categorical)
    if codes.ndim != 2 or codes.shape[1] < 1:
        raise ConfigError("kmodes needs an (n, Q) category matrix with Q >= 1")
    message = "kmodes needs nonnegative integer category codes"
    categorical = as_codes(codes, message)
    if (categorical < 0).any():
        raise DataError(message)
    n = categorical.shape[0]
    if n < k:
        raise ConfigError(f"need at least k={k} rows, got {n}")
    cards = categorical.max(axis=0) + 1

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, _, _, objective, _ = _alternate(
            None, categorical, cards, k, rng, max_iters, gamma_mix=1.0)
        if best is None or objective < best[1]:
            best = (labels, objective)
    return best[0]


def kprototypes(ds: MixedDataset, k: int, gamma_mix: Optional[float] = None,
                seed: int = 0, max_iters: int = 100, restarts: int = 10,
                return_prototypes: bool = False):
    """K-prototypes over a mixed dataset.

    Assignment cost is the squared Euclidean distance to the numeric center
    plus ``gamma_mix`` times the Hamming distance to the categorical mode.
    ``gamma_mix`` defaults to half the mean numeric column variance.
    """
    if ds.num_numeric < 1 or ds.num_categorical < 1:
        raise ConfigError("kprototypes needs both numeric and categorical features")
    if ds.n < k:
        raise ConfigError(f"need at least k={k} rows, got {ds.n}")
    if gamma_mix is None:
        gamma_mix = 0.5 * float(np.mean(np.var(ds.numeric, axis=0)))
    if not 0.0 <= gamma_mix < np.inf:
        raise ConfigError(f"gamma_mix must be finite and nonnegative, got {gamma_mix}")
    cards = np.asarray(ds.cardinalities, dtype=np.int64)

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, centers, modes, objective, _ = _alternate(
            ds.numeric, ds.categorical, cards, k, rng, max_iters, gamma_mix)
        if best is None or objective < best[3]:
            best = (labels, centers, modes, objective)
    labels, centers, modes, _ = best
    if return_prototypes:
        return labels, PrototypeSet(centers, modes, float(gamma_mix))
    return labels
