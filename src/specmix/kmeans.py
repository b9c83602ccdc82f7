"""Lloyd's K-means over the rows of a spectral embedding.

k-means++ seeding, a configurable number of independent restarts (the
lowest-inertia run wins, ties going to the earliest restart), and
deterministic empty-cluster repair. Restart r draws from a generator seeded
with (seed, r), so restarts are independent and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class KMeansConfig:
    restarts: int = 10
    max_iters: int = 300
    tol: float = 1e-6  # relative inertia-improvement stopping threshold
    seed: int = 0
    normalize_rows: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not self.tol > 0.0:  # NaN fails too
            raise ConfigError("tol must be positive")


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, None] + c2[None, :] - 2.0 * (points @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Greedy k-means++: each new center is the best of a few
    squared-distance-sampled candidates."""
    n = points.shape[0]
    trials = 2 + int(np.log(k))
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            candidates = rng.integers(n, size=trials)
        else:
            candidates = rng.choice(n, size=trials, p=d2 / total)
        best_idx, best_d2, best_total = None, None, np.inf
        for idx in candidates:
            cand = np.minimum(d2, _sq_dists(points, points[idx][None, :])[:, 0])
            cand_total = cand.sum()
            if cand_total < best_total:
                best_idx, best_d2, best_total = int(idx), cand, cand_total
        centers[j] = points[best_idx]
        d2 = best_d2
    return centers


def _repair_empty(labels, counts, d2):
    """Move the worst-fit point of a multi-member cluster into each empty one.
    Ties break toward the lowest point index."""
    for c in np.flatnonzero(counts == 0):
        own = d2[np.arange(labels.size), labels]
        movable = counts[labels] > 1
        own = np.where(movable, own, -np.inf)
        p = int(np.argmax(own))
        counts[labels[p]] -= 1
        labels[p] = c
        counts[c] = 1
    return labels, counts


def _lloyd(points, k, centers, max_iters, tol):
    n = points.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    history = []
    for _ in range(max_iters):
        d2 = _sq_dists(points, centers)
        new_labels = np.argmin(d2, axis=1).astype(np.int64)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            new_labels, counts = _repair_empty(new_labels, counts, d2)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        for dim in range(points.shape[1]):
            centers[:, dim] = np.bincount(labels, weights=points[:, dim],
                                          minlength=k) / counts
        prev = inertia
        diff = points - centers[labels]
        inertia = float(np.einsum("ij,ij->", diff, diff))
        history.append(inertia)
        if converged or prev - inertia <= tol * max(prev, 1e-300):
            break
    return labels, centers, inertia, history


def kmeans(points, k: int, cfg: KMeansConfig | None = None):
    """Cluster rows of ``points`` into k groups.

    Returns (labels, centers, inertia) for the best of ``cfg.restarts``
    k-means++-seeded runs. All k labels are used whenever the row count
    allows it. Deterministic given ``cfg.seed``.
    """
    cfg = cfg or KMeansConfig()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ConfigError("points must be a 2-D array")
    if points.shape[0] < k:
        raise ConfigError(f"need at least k={k} rows, got {points.shape[0]}")
    if cfg.normalize_rows:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0.0, points / np.where(norms > 0.0, norms, 1.0), 0.0)

    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        centers0 = _plus_plus_init(points, k, rng)
        labels, centers, inertia, _ = _lloyd(points, k, centers0,
                                             cfg.max_iters, cfg.tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best
