"""Lloyd's K-means over the rows of a spectral embedding. Its assignment
step, mean update and restart loop serve the baselines too.

Greedy k-means++ seeding scores each step's few candidates as one block, one
product with all the rows, and draws them as ``Generator.choice`` would,
index for index. Lloyd's center update is one sparse one-hot product. Restart
r draws from a generator seeded with (seed, r), so restarts are independent
and may run concurrently; the lowest-inertia run wins, ties going to the
earliest, and empty clusters are repaired deterministically.

Rows may stand for several datapoints: ``onlycat`` hands over one row per
distinct category tuple and an ``inverse`` that gives each datapoint's row.
Equal rows are merged as well, so each distinct row is clustered once,
weighted by the datapoints it stands for, and the labels are scattered back
to the datapoints. The objective is unchanged. The random draws are over
datapoints, and the distinct rows keep the order of the given rows. Given
rows in order of their first datapoint, as ``onlycat``'s tuples are, thus
draw and label exactly as one row per datapoint would; in another order
only the draws differ. When every row is distinct, the distinct rows are the
points in order with unit weights, so the draws and results are those of an
unweighted run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .dataset import _check_seed, _first_appearance, as_int, as_real, check_codes
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class KMeansConfig:
    """K-means settings. Known defect: every restart stops after its first
    assignment (the strict xfail ``test_lloyd_iterates_past_the_first_assignment``),
    so ``max_iters`` and ``tol`` do not act yet."""

    restarts: int = 10
    max_iters: int = 300
    tol: float = 1e-6  # relative inertia-improvement stopping threshold
    seed: int = 0
    normalize_rows: bool = False

    def __post_init__(self):
        object.__setattr__(self, "restarts", as_int(self.restarts, "restarts", 1))
        object.__setattr__(self, "max_iters", as_int(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if not as_real(self.tol, "tol") > 0.0:  # NaN fails too
            raise ConfigError("tol must be positive")
        if not isinstance(self.normalize_rows, bool):  # "no" would be true
            raise ConfigError(f"normalize_rows must be a bool, "
                              f"got {self.normalize_rows!r}")


def _sq_dists(points: np.ndarray, centers: np.ndarray, p2) -> np.ndarray:
    """Squared distances of every point to every center; ``p2`` holds the
    squared row norms of ``points``."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, None] + c2[None, :] - 2.0 * (points @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _choice(rng, p, size) -> np.ndarray:
    """``rng.choice(p.size, size, p=p)``'s indices and state, unvalidated."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _plus_plus_init(points: np.ndarray, k: int, rng, w, inverse, p2) -> np.ndarray:
    """Greedy k-means++: each new center is the best of a few
    squared-distance-sampled candidates.

    Row i stands for ``w[i]`` datapoints, and ``inverse`` maps each
    datapoint to its row, so the draws are over datapoints. ``p2`` holds the
    squared row norms. Each step scores its candidates as one block."""
    trials = 2 + int(np.log(k))
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[inverse[rng.integers(inverse.size)]]
    d2 = _sq_dists(points, centers[:1], p2)[:, 0]
    block = np.empty((trials, points.shape[0]))
    for j in range(1, k):
        wd2 = w * d2
        total = wd2.sum()
        if total <= 0.0:
            candidates = inverse[rng.integers(inverse.size, size=trials)]
        else:
            candidates = _choice(rng, wd2 / total, trials)
        cand = points[candidates]
        np.matmul(-2.0 * cand, points.T, out=block)  # exact scaling
        block += p2
        block += np.einsum("ij,ij->i", cand, cand)[:, None]
        np.maximum(block, 0.0, out=block)
        np.minimum(block, d2, out=block)
        best = int(np.argmin(block @ w))  # ties to the earliest candidate
        centers[j] = cand[best]
        d2 = block[best].copy()
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


def cluster_means(points, labels, k, w) -> np.ndarray:
    """The k means of the rows of ``points`` by label, row i weighing ``w[i]``:
    one sparse one-hot product, which sums each cluster's rows in row order."""
    one_hot = csr_array((w, labels, np.arange(labels.size + 1)), shape=(labels.size, k))
    return (one_hot.T @ points) / np.bincount(labels, weights=w, minlength=k)[:, None]


def _lloyd(points, k, centers, max_iters, tol, w, p2):
    """Lloyd iterations on rows that stand for ``w`` datapoints each. Empty
    clusters are repaired, so all k labels stay used while there are at
    least k rows. ``p2`` is passed on to ``_sq_dists``."""
    sqrt_w = np.sqrt(w)[:, None]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    inertia = np.inf
    history = []
    for _ in range(max_iters):
        new_labels = _assign(_sq_dists(points, centers, p2), k)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        centers = cluster_means(points, labels, k, w)
        prev = inertia
        diff = centers[labels]
        np.subtract(points, diff, out=diff)  # one m x d buffer, not two
        diff *= sqrt_w  # exact at unit weight
        inertia = float(np.einsum("ij,ij->", diff, diff))
        history.append(inertia)
        if converged or prev - inertia <= tol * max(prev, 1e-300):
            break
    return labels, centers, inertia, history


def _distinct_rows(points: np.ndarray):
    """(rows, inverse): the distinct rows of ``points`` in order of first
    appearance, and the distinct row of each given row. Rows are compared by
    their bytes, so ``points`` must be finite. -0.0 and 0.0 differ in their
    bytes, so such rows stay apart, which is correct but merges less."""
    flat = np.ascontiguousarray(points)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    first, inverse = _first_appearance(keys)
    return points[first], inverse


def kmeans(points, k: int, cfg: KMeansConfig | None = None, inverse=None):
    """Cluster the datapoints that the rows of ``points`` stand for into k
    groups.

    ``inverse``, when given, maps each datapoint to its row of ``points``,
    and every row must stand for at least one datapoint; by default row i is
    datapoint i. With the rows in order of their first datapoint, the result
    is that of ``kmeans(points[inverse], k, cfg)``, bit for bit.

    Returns (labels, centers, inertia), one label per datapoint, for the
    best of ``cfg.restarts`` k-means++-seeded runs. All k labels are used
    whenever the datapoint count allows it. Deterministic given
    ``cfg.seed``. Each distinct row is clustered once, weighted by its
    datapoints; with fewer distinct rows than k, every datapoint is
    clustered on its own with unit weight.
    """
    cfg = cfg or KMeansConfig()
    k = as_int(k, "cluster count k", 1)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ConfigError("points must be a 2-D array")
    given = points.shape[0]
    if inverse is None:
        inverse = np.arange(given)
    elif np.ndim(inverse) != 1:
        raise ConfigError("inverse must be a 1-D array")
    else:
        inverse = check_codes(inverse, given, "inverse", ConfigError)
    counts = np.bincount(inverse, minlength=given)
    if (counts == 0).any():
        raise ConfigError(f"row {int(np.argmin(counts))} of points stands for no datapoint")
    if inverse.size < k:
        raise ConfigError(f"need at least k={k} rows, got {inverse.size}")
    if not np.isfinite(points).all():
        raise DataError("points have non-finite entries")
    if cfg.normalize_rows:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0.0, points / np.where(norms > 0.0, norms, 1.0), 0.0)

    rows, merged = _distinct_rows(points)
    if rows.shape[0] < k:  # too few to fill k clusters: one row per datapoint
        rows, weights = points[inverse], np.ones(inverse.size)
        inverse = np.arange(inverse.size)
    else:
        weights = np.bincount(merged, weights=counts)  # sums of counts: exact
        inverse = merged[inverse]
    p2 = np.einsum("ij,ij->i", rows, rows)  # once for all restarts

    def restart(rng):
        centers = _plus_plus_init(rows, k, rng, weights, inverse, p2)
        return _lloyd(rows, k, centers, cfg.max_iters, cfg.tol, weights, p2)

    labels, centers, inertia, _ = best_of_restarts(cfg.restarts, cfg.seed, restart)
    return labels[inverse], centers, inertia
