"""Partitional reference baselines: K-modes and K-prototypes.

Both run ``kmeans.alternate``, the loop K-means runs, from K distinct random
datapoints at unit weights, with independent restarts keeping the best
objective. All tie-breaks (nearest prototype, column modes, farthest-point
repair) go to the lowest index, so runs are deterministic given the seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dataset import MixedDataset, as_codes, as_int, as_real
from .errors import ConfigError, DataError
from .kmeans import KMeansConfig, alternate, best_of_restarts, weighted_columns


def _best_run(numeric, codes, cards, k, gamma_mix, seed, restarts, max_iters):
    """(labels, centers, modes, objective) of the best of ``restarts`` runs
    of ``alternate`` at unit weights, each from k distinct random rows."""
    cfg, n = KMeansConfig(restarts=restarts, max_iters=max_iters), codes.shape[0]
    if n < k:
        raise ConfigError(f"need at least k={k} rows, got {n}")
    unit = np.ones(n)
    p2 = np.einsum("ij,ij->i", numeric, numeric)  # these two once for all restarts
    weighted = weighted_columns(numeric, unit)

    def restart(rng):
        init = rng.choice(n, size=k, replace=False)
        return alternate(numeric, codes, cards, numeric[init], codes[init], unit, p2,
                         weighted, gamma_mix, cfg.max_iters)

    return best_of_restarts(cfg.restarts, seed, restart)


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
    k = as_int(k, "cluster count k", 1)
    # each column renumbered in increasing order: count tables sized by the
    # codes that occur, ties still to the lowest code, so the same labels
    columns = [np.unique(column, return_inverse=True) for column in categorical.T]
    categorical = np.column_stack([inverse for _, inverse in columns])
    cards = [unique.size for unique, _ in columns]
    return _best_run(np.empty((n, 0)), categorical, cards, k, 1.0, seed, restarts,
                     max_iters)[0]


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
    k = as_int(k, "cluster count k", 1)
    if gamma_mix is None:
        gamma_mix = 0.5 * float(np.mean(np.var(ds.numeric, axis=0)))
    gamma_mix = as_real(gamma_mix, "gamma_mix")
    if not 0.0 <= gamma_mix < np.inf:
        raise ConfigError(f"gamma_mix must be finite and nonnegative, got {gamma_mix}")
    return _best_run(ds.numeric, ds.categorical, ds.cardinalities, k, gamma_mix, seed,
                     restarts, max_iters)[0]
