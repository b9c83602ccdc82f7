"""Lloyd's K-means over the rows of a spectral embedding, and the
assignment step and restart loop that K-modes and K-prototypes share.

k-means++ seeding, a configurable number of independent restarts (the
lowest-inertia run wins, ties going to the earliest restart), and
deterministic empty-cluster repair. Restart r draws from a generator seeded
with (seed, r), so restarts are independent and may run concurrently.

Embeddings repeat rows: an ``onlycat`` row depends only on its datapoint's
category tuple. Each distinct row is clustered once, weighted by its
multiplicity, and the labels are scattered back to the datapoints. The
objective is unchanged; only the random draws differ. When every row is
distinct, the distinct rows are the points in order with unit weights, so
the draws and results are those of an unweighted run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _check_seed, as_int
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class KMeansConfig:
    restarts: int = 10
    max_iters: int = 300
    tol: float = 1e-6  # relative inertia-improvement stopping threshold
    seed: int = 0
    normalize_rows: bool = False

    def __post_init__(self):
        object.__setattr__(self, "restarts", as_int(self.restarts, "restarts", 1))
        object.__setattr__(self, "max_iters", as_int(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if not self.tol > 0.0:  # NaN fails too
            raise ConfigError("tol must be positive")


def _sq_dists(points: np.ndarray, centers: np.ndarray, p2) -> np.ndarray:
    """Squared distances of every point to every center; ``p2`` holds the
    squared row norms of ``points``."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, None] + c2[None, :] - 2.0 * (points @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(points: np.ndarray, k: int, rng, w, inverse, p2) -> np.ndarray:
    """Greedy k-means++: each new center is the best of a few
    squared-distance-sampled candidates.

    Row i stands for ``w[i]`` datapoints, and ``inverse`` maps each
    datapoint to its row, so the draws are over datapoints. ``p2`` is
    passed on to ``_sq_dists``."""
    m = points.shape[0]
    trials = 2 + int(np.log(k))
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[inverse[rng.integers(inverse.size)]]
    d2 = _sq_dists(points, centers[:1], p2)[:, 0]
    for j in range(1, k):
        wd2 = w * d2
        total = wd2.sum()
        if total <= 0.0:
            candidates = inverse[rng.integers(inverse.size, size=trials)]
        else:
            candidates = rng.choice(m, size=trials, p=wd2 / total)
        best_idx, best_d2, best_total = None, None, np.inf
        for idx in candidates:
            cand = np.minimum(d2, _sq_dists(points, points[idx][None, :], p2)[:, 0])
            cand_total = (w * cand).sum()
            if cand_total < best_total:
                best_idx, best_d2, best_total = int(idx), cand, cand_total
        centers[j] = points[best_idx]
        d2 = best_d2
    return centers


def _assign(cost, k) -> np.ndarray:
    """Each row's lowest-cost cluster, then the worst-fit row of a
    multi-member cluster moved into each empty one. Ties break toward the
    lowest index."""
    labels = np.argmin(cost, axis=1).astype(np.int64)
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0):
        own = cost[np.arange(labels.size), labels]
        movable = counts[labels] > 1
        own = np.where(movable, own, -np.inf)
        p = int(np.argmax(own))
        counts[labels[p]] -= 1
        labels[p] = c
        counts[c] = 1
    return labels


def best_of_restarts(restarts: int, seed: int, run):
    """The lowest-objective result of ``run(rng)`` over ``restarts`` calls,
    ties to the earliest. A result ends with its objective and history, as
    ``_lloyd``'s does; call r draws from a generator seeded with (seed, r)."""
    results = (run(np.random.default_rng([seed, r])) for r in range(restarts))
    return min(results, key=lambda result: result[-2])


def _lloyd(points, k, centers, max_iters, tol, w, p2):
    """Lloyd iterations on rows that stand for ``w`` datapoints each. Empty
    clusters are repaired, so all k labels stay used while there are at
    least k rows. ``p2`` is passed on to ``_sq_dists``."""
    n = points.shape[0]
    sqrt_w = np.sqrt(w)[:, None]
    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    history = []
    for _ in range(max_iters):
        new_labels = _assign(_sq_dists(points, centers, p2), k)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        mass = np.bincount(labels, weights=w, minlength=k)
        for dim in range(points.shape[1]):
            centers[:, dim] = np.bincount(labels, weights=w * points[:, dim],
                                          minlength=k) / mass
        prev = inertia
        diff = points - centers[labels]
        diff *= sqrt_w  # exact at unit weight
        inertia = float(np.einsum("ij,ij->", diff, diff))
        history.append(inertia)
        if converged or prev - inertia <= tol * max(prev, 1e-300):
            break
    return labels, centers, inertia, history


def _distinct_rows(points: np.ndarray):
    """(rows, weights, inverse): the distinct rows of ``points`` in order of
    first appearance, how many datapoints each stands for, and the row of
    each datapoint. Rows are compared by their bytes, so ``points`` must be
    finite. -0.0 and 0.0 differ in their bytes, so such rows stay apart,
    which is correct but merges less."""
    flat = np.ascontiguousarray(points)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)  # sorted-key position of each rank
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return points[first[order]], counts[order].astype(np.float64), rank[inverse]


def kmeans(points, k: int, cfg: KMeansConfig | None = None):
    """Cluster rows of ``points`` into k groups.

    Returns (labels, centers, inertia) for the best of ``cfg.restarts``
    k-means++-seeded runs. All k labels are used whenever the row count
    allows it. Deterministic given ``cfg.seed``. Each distinct row is
    clustered once, weighted by its multiplicity; with fewer distinct rows
    than k, every row is clustered with unit weight.
    """
    cfg = cfg or KMeansConfig()
    k = as_int(k, "cluster count k", 1)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ConfigError("points must be a 2-D array")
    if points.shape[0] < k:
        raise ConfigError(f"need at least k={k} rows, got {points.shape[0]}")
    if not np.isfinite(points).all():
        raise DataError("points have non-finite entries")
    if cfg.normalize_rows:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0.0, points / np.where(norms > 0.0, norms, 1.0), 0.0)

    rows, weights, inverse = _distinct_rows(points)
    if rows.shape[0] < k:  # too few to fill k clusters: keep every row
        rows, weights, inverse = points, np.ones(len(points)), np.arange(len(points))
    p2 = np.einsum("ij,ij->i", rows, rows)  # once for all restarts

    def restart(rng):
        centers = _plus_plus_init(rows, k, rng, weights, inverse, p2)
        return _lloyd(rows, k, centers, cfg.max_iters, cfg.tol, weights, p2)

    labels, centers, inertia, _ = best_of_restarts(cfg.restarts, cfg.seed, restart)
    return labels[inverse], centers, inertia
