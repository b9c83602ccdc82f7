"""Partitional reference baselines: K-modes and K-prototypes.

Both alternate between computing cluster prototypes and nearest-prototype
assignment, starting from K distinct random datapoints, with independent
restarts keeping the best objective. All tie-breaks (nearest prototype,
column modes, farthest-point repair) go to the lowest index, so runs are
deterministic given the seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dataset import MixedDataset, _check_seed, as_codes, as_int, as_real
from .errors import ConfigError, DataError
from .kmeans import _assign, _sq_dists, best_of_restarts, cluster_means


def _column_modes(categorical, labels, k, cards) -> np.ndarray:
    """The (k, Q) per-cluster majority codes, ties to the lowest code."""
    modes = np.empty((k, categorical.shape[1]), dtype=np.int64)
    for col, card in enumerate(cards):
        counts = np.bincount(labels * card + categorical[:, col], minlength=k * card)
        modes[:, col] = counts.reshape(k, card).argmax(axis=1)
    return modes


def _alternate(numeric, categorical, cards, k, rng, max_iters, gamma_mix, p2):
    """One restart of the alternating minimization shared by both baselines:
    (labels, objective, history). ``numeric`` is None for the purely
    categorical case, and so is ``p2``; otherwise ``p2`` holds the squared
    row norms of ``numeric``."""
    n, q = categorical.shape
    init = rng.choice(n, size=k, replace=False)
    centers = numeric[init] if numeric is not None else None
    modes = categorical[init].copy()

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
    for _ in range(as_int(max_iters, "max_iters", 1)):
        new_labels = _assign(cost, k)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if not converged:
            if numeric is not None:
                centers = cluster_means(numeric, labels, k, np.ones(n))
            modes = _column_modes(categorical, labels, k, cards)
            cost = assignment_cost()
        objective = float(cost[np.arange(n), labels].sum())
        history.append(objective)
        if converged:
            break
    return labels, objective, history


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
    if n < as_int(k, "cluster count k", 1):
        raise ConfigError(f"need at least k={k} rows, got {n}")
    seed = _check_seed(seed)
    # each column renumbered in increasing order: count tables sized by the
    # codes that occur, ties still to the lowest code, so the same labels
    columns = [np.unique(column, return_inverse=True) for column in categorical.T]
    categorical = np.column_stack([inverse for _, inverse in columns])
    cards = [unique.size for unique, _ in columns]

    return best_of_restarts(as_int(restarts, "restarts", 1), seed, lambda rng: _alternate(
        None, categorical, cards, k, rng, max_iters, 1.0, None))[0]


def kprototypes(ds: MixedDataset, k: int, gamma_mix: Optional[float] = None,
                seed: int = 0, max_iters: int = 100,
                restarts: int = 10) -> np.ndarray:
    """K-prototypes over a mixed dataset.

    Assignment cost is the squared Euclidean distance to the numeric center
    plus ``gamma_mix`` times the Hamming distance to the categorical mode.
    ``gamma_mix`` defaults to half the mean numeric column variance.
    """
    if ds.num_numeric < 1 or ds.num_categorical < 1:
        raise ConfigError("kprototypes needs both numeric and categorical features")
    if ds.n < as_int(k, "cluster count k", 1):
        raise ConfigError(f"need at least k={k} rows, got {ds.n}")
    seed = _check_seed(seed)
    if gamma_mix is None:
        gamma_mix = 0.5 * float(np.mean(np.var(ds.numeric, axis=0)))
    if not 0.0 <= as_real(gamma_mix, "gamma_mix") < np.inf:
        raise ConfigError(f"gamma_mix must be finite and nonnegative, got {gamma_mix}")
    cards = np.asarray(ds.cardinalities, dtype=np.int64)
    p2 = np.einsum("ij,ij->i", ds.numeric, ds.numeric)  # once for all restarts
    return best_of_restarts(as_int(restarts, "restarts", 1), seed, lambda rng: _alternate(
        ds.numeric, ds.categorical, cards, k, rng, max_iters, gamma_mix, p2))[0]
