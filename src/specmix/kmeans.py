"""Lloyd's K-means over the rows of a spectral embedding, run by
``alternate``, the one alternating loop that the K-modes and K-prototypes
baselines run too, through the same restart loop, ``best_of_restarts``.

Rows may stand for several datapoints, as ``onlycat``'s distinct category
tuples do, and equal rows are merged, so each distinct row is clustered once,
weighted by its datapoints. The random draws are over datapoints: rows in
order of their first datapoint draw and label exactly as one row per
datapoint would (in another order only the draws differ), and all-distinct
rows exactly as an unweighted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dataset import _check_seed, _first_appearance, as_int, check_codes
from .errors import ConfigError, DataError

# Bytes of the rows that one step of ``_row_keys`` reads: small enough to stay
# in cache.
_CHUNK_BYTES = 1 << 20
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: multiplying by it is one-to-one


@dataclass(frozen=True)
class KMeansConfig:
    """K-means settings. Each restart runs at most ``max_iters`` Lloyd
    assignments and stops early when the labels repeat. The default of 1 is
    one assignment and one mean update per restart."""

    restarts: int = 10
    max_iters: int = 1

    def __post_init__(self):
        object.__setattr__(self, "restarts", as_int(self.restarts, "restarts", 1))
        object.__setattr__(self, "max_iters", as_int(self.max_iters, "max_iters", 1))


def check_config(cfg) -> KMeansConfig:
    """``cfg``, which must be a KMeansConfig: a dict or a number is a ConfigError."""
    if not isinstance(cfg, KMeansConfig):
        raise ConfigError(f"kmeans must be a KMeansConfig, got {cfg!r}")
    return cfg


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
    ties to the earliest. A result ends with its objective, as ``alternate``'s
    does; call r draws from a generator seeded with (seed, r), so the calls
    are independent. The seed is checked here, for every caller."""
    seed = _check_seed(seed)
    results = (run(np.random.default_rng([seed, r])) for r in range(restarts))
    return min(results, key=lambda result: result[-1])


def weighted_columns(points, w):
    """A function that returns the d x m array of w[i] * points[i, j], one
    C-contiguous row per column of ``points``, what ``cluster_means`` sums,
    building it on its first call only. ``alternate`` first calls it after
    the first assignment: built there, once for all restarts, the array
    reuses memory that the assignment's m x k temporaries freed, where one
    built before the restarts made K-means fault in several times more
    pages."""
    return cache(lambda: np.multiply(w, points.T, order="C"))


def cluster_means(weighted, labels, k, w) -> np.ndarray:
    """The k means by label of the rows whose weighted columns are
    ``weighted`` (``weighted_columns``), row i weighing ``w[i]``. Each
    cluster's weighted rows are added in row order to +0.0, one
    ``np.bincount`` per column, as a product with the k x m one-hot sums."""
    sums = np.empty((k, weighted.shape[0]))
    for j, column in enumerate(weighted):
        sums[:, j] = np.bincount(labels, column, k)
    return sums / np.bincount(labels, weights=w, minlength=k)[:, None]


def _column_modes(codes, labels, k, cards, w) -> np.ndarray:
    """The (k, Q) weighted majority codes of each cluster, ties to the lowest."""
    modes = np.empty((k, codes.shape[1]), dtype=np.int64)
    for col, card in enumerate(cards):
        counts = np.bincount(labels * card + codes[:, col], weights=w, minlength=k * card)
        modes[:, col] = counts.reshape(k, card).argmax(axis=1)
    return modes


def alternate(numeric, codes, cards, centers, modes, w, p2, weighted, gamma_mix,
              max_iters):
    """Alternating minimization from the given prototypes, as K-means,
    K-modes and K-prototypes run it: (labels, centers, modes, objective).
    Row i of ``numeric`` and of ``codes`` (either may have no columns)
    weighs ``w[i]`` and costs its squared distance to a center, ``p2[i]``
    being its squared norm, plus ``gamma_mix`` times its mismatches with a
    mode; ``weighted()`` returns the weighted columns of ``numeric``
    (``weighted_columns``). Each of at most ``max_iters`` iterations assigns
    the rows and stops if the labels repeat, or else updates the means and
    modes. The objective is the weighted cost of the last labels and
    prototypes."""
    (m, d), (k, q) = numeric.shape, modes.shape
    labels = np.full(m, -1, dtype=np.int64)
    for _ in range(max_iters):
        # a block with no columns adds nothing, but its products cost time
        cost = _sq_dists(numeric, centers, p2) if d else np.zeros((m, k))
        if q:
            # Hamming distance = Q - matches, counted one column at a time so
            # memory stays O(mk) whatever the cardinalities
            matches = np.zeros_like(cost)
            for col in range(q):
                matches += codes[:, col, None] == modes[None, :, col]
            cost += gamma_mix * (q - matches)
        new_labels = _assign(cost, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if d:
            centers = cluster_means(weighted(), labels, k, w)
        if q:
            modes = _column_modes(codes, labels, k, cards, w)
    diff = centers[labels]
    np.subtract(numeric, diff, out=diff)  # one m x d buffer, not two
    diff *= np.sqrt(w)[:, None]  # exact at unit weight
    objective = float(np.einsum("ij,ij->", diff, diff))
    if q:
        objective += gamma_mix * float(w @ (codes != modes[labels]).sum(axis=1))
    return labels, centers, modes, objective


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One uint64 key per row of the m x d uint64 ``words``, mixed in column
    by column, a chunk of rows at a time: key = mix(key) + word, where
    mix(h) = g ^ (g >> 32) for g = h * 0x9E3779B97F4A7C15 (mod 2**64) is
    one-to-one. Rows with equal words get equal keys; distinct rows may too,
    rarely."""
    keys = np.zeros(words.shape[0], dtype=np.uint64)
    step = max(1, _CHUNK_BYTES // (8 * max(1, words.shape[1])))
    shifted = np.empty(min(step, keys.size), dtype=np.uint64)
    for a in range(0, keys.size, step):
        chunk = keys[a:a + step]
        for column in words[a:a + step].T:
            chunk *= _KEY_MULTIPLIER
            chunk ^= np.right_shift(chunk, 32, out=shifted[:chunk.size])
            chunk += column
    return keys


def _distinct_rows(points: np.ndarray):
    """(rows, inverse): the distinct rows of ``points`` in order of first
    appearance, and the distinct row of each given row. Rows are compared by
    their bytes, so ``points`` must be finite. -0.0 and 0.0 differ in their
    bytes, so such rows stay apart, which is correct but merges less. With
    every row distinct, the rows are ``points`` as a C-contiguous array, not
    a copy.

    Rows are grouped by one uint64 key each (``_row_keys``), and every row
    is checked against the first of its group, byte for byte; only where
    two distinct rows share a key are the rows sorted by their bytes."""
    flat = np.ascontiguousarray(points)
    words = flat.view(np.uint64)
    first, inverse = _first_appearance(_row_keys(words))
    firsts = first[inverse]
    later = np.flatnonzero(firsts != np.arange(firsts.size))
    if not (words[later] == words[firsts[later]]).all():
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        first, inverse = _first_appearance(keys)
    return (flat if first.size == flat.shape[0] else points[first]), inverse


def kmeans(points, k: int, cfg: KMeansConfig | None = None, inverse=None,
           seed: int = 0):
    """Cluster the datapoints that the rows of ``points`` stand for into k
    groups.

    ``inverse``, when given, maps each datapoint to its row of ``points``,
    and every row must stand for at least one datapoint; by default row i is
    datapoint i. With the rows in order of their first datapoint, the result
    is that of ``kmeans(points[inverse], k, cfg, seed=seed)``, bit for bit.

    Returns (labels, centers, inertia), one label per datapoint, for the
    best of ``cfg.restarts`` k-means++-seeded runs. All k labels are used
    whenever the datapoint count allows it. Deterministic given ``seed``.
    Each distinct row is clustered once, weighted by its datapoints; with
    fewer distinct rows than k, every datapoint is clustered on its own with
    unit weight.
    """
    cfg = KMeansConfig() if cfg is None else check_config(cfg)
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

    rows, merged = _distinct_rows(points)
    if rows.shape[0] < k:  # too few to fill k clusters: one row per datapoint
        rows, weights = points[inverse], np.ones(inverse.size)
        inverse = np.arange(inverse.size)
    else:
        weights = np.bincount(merged, weights=counts)  # sums of counts: exact
        inverse = merged[inverse]
    p2 = np.einsum("ij,ij->i", rows, rows)  # these two once for all restarts
    weighted = weighted_columns(rows, weights)
    no_codes, no_modes = np.empty((rows.shape[0], 0), np.int64), np.empty((k, 0), np.int64)

    def restart(rng):
        centers = _plus_plus_init(rows, k, rng, weights, inverse, p2)
        return alternate(rows, no_codes, (), centers, no_modes, weights, p2, weighted,
                         0.0, cfg.max_iters)

    labels, centers, _, inertia = best_of_restarts(cfg.restarts, seed, restart)
    return labels[inverse], centers, inertia
