import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmix import ConfigError, DataError, KMeansConfig, kmeans
from specmix.kmeans import _lloyd, _plus_plus_init


def brute_force_two_clusters(points):
    """Exhaustive optimum over all nonempty bipartitions."""
    n = points.shape[0]
    best = np.inf
    for mask_bits in range(1, 2 ** n - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for part in (mask, ~mask):
            center = points[part].mean(axis=0)
            inertia += float(((points[part] - center) ** 2).sum())
        best = min(best, inertia)
    return best


class TestKMeans:
    def test_two_tight_clusters(self):
        points = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        labels, centers, inertia = kmeans(points, 2, KMeansConfig(seed=0))
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_equals_rows(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 2))
        labels, _, inertia = kmeans(points, 6, KMeansConfig(seed=1))
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(labels.tolist()) == list(range(6))

    def test_k_one_closed_form(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        labels, centers, inertia = kmeans(points, 1, KMeansConfig(seed=2))
        assert np.allclose(centers[0], points.mean(axis=0))
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert inertia == pytest.approx(expected, rel=1e-12)

    def test_rows_fewer_than_k(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((2, 2)), 3)

    def test_inertia_non_increasing_within_run(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((40, 3))
        centers = _plus_plus_init(points, 4, rng)
        _, _, _, history = _lloyd(points, 4, centers, 300, 1e-9)
        diffs = np.diff(history)
        assert (diffs <= 1e-12).all()

    def test_all_clusters_used(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            points = rng.standard_normal((15, 2))
            k = int(rng.integers(2, 6))
            labels, _, _ = kmeans(points, k, KMeansConfig(seed=4))
            assert len(set(labels.tolist())) == k

    def test_identical_points_repaired(self):
        points = np.zeros((7, 2))
        labels, _, inertia = kmeans(points, 2, KMeansConfig(seed=5))
        assert len(set(labels.tolist())) == 2
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_golden_labels_and_inertia(self):
        # Quarter-grid points keep the distance arithmetic exact; the pinned
        # values guard the draws and the rounding of every restart.
        rng = np.random.default_rng(20261018)
        means = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 1.0],
                          [0.0, 3.0, -1.0], [2.5, 2.5, 2.5]])
        points = np.round(4.0 * (np.repeat(means, 15, axis=0)
                                  + 0.8 * rng.standard_normal((60, 3)))) / 4.0
        repeated = np.vstack([points[:20]] * 3)[rng.permutation(60)]
        cfg = KMeansConfig(restarts=3, seed=9)
        labels, _, inertia = kmeans(points, 4, cfg)
        assert "".join(map(str, labels)) == (
            "233333333323333000000020300030111111111111111022222022200222")
        assert inertia.hex() == "0x1.f6f679e79e7a0p+6"
        labels, _, inertia = kmeans(repeated, 4, cfg)  # the weighted path
        assert "".join(map(str, labels)) == (
            "022220121022211112311123222300201222222332222221302123302230")
        assert inertia.hex() == "0x1.2b6cccccccccdp+6"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 4))
        a = kmeans(points, 3, KMeansConfig(seed=7))
        b = kmeans(points, 3, KMeansConfig(seed=7))
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]

    def test_near_optimal_against_brute_force(self):
        rng = np.random.default_rng(5)
        hits = 0
        trials = 60
        for _ in range(trials):
            n = int(rng.integers(4, 9))
            points = rng.standard_normal((n, 2))
            _, _, inertia = kmeans(points, 2, KMeansConfig(seed=int(rng.integers(1000))))
            if inertia <= brute_force_two_clusters(points) + 1e-9:
                hits += 1
        assert hits >= 0.95 * trials

    def test_row_normalization_flag(self):
        points = np.array([[10.0, 0.0], [0.1, 0.0], [0.0, 5.0], [0.0, 0.2]])
        labels, _, _ = kmeans(points, 2, KMeansConfig(seed=6, normalize_rows=True))
        # after unit-normalizing rows, co-directional points must co-cluster
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KMeansConfig(restarts=0)
        with pytest.raises(ConfigError):
            KMeansConfig(max_iters=0)
        with pytest.raises(ConfigError):
            KMeansConfig(tol=0.0)

    def test_nan_tol_rejected(self):
        # NaN fails every comparison, so it used to pass the sign check
        with pytest.raises(ConfigError, match="tol"):
            KMeansConfig(tol=float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # a NaN used to escape from rng.choice as a raw ValueError
        points = np.array([[bad, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DataError, match="non-finite"):
            kmeans(points, 2)

    def test_all_distinct_rows_pinned(self):
        # every row distinct: the same draws and bits as unweighted K-means
        points = np.random.default_rng(0).standard_normal((300, 4))
        labels, centers, inertia = kmeans(points, 4, KMeansConfig(seed=3))
        assert hashlib.sha256(labels.astype("<i8").tobytes()).hexdigest() == (
            "eadd53c6c926f45088a3836f9578345b491cbe87f143f547541e3bb7cb4b80c2")
        assert np.bincount(labels).tolist() == [58, 114, 64, 64]
        expected = [
            ["-0x1.212ee3018f38cp+0", "-0x1.c6b7010dac801p-1",
             "-0x1.51eb7a0f0acf1p-2", "-0x1.667abc466f99cp-2"],
            ["-0x1.fe600e01d99edp-5", "0x1.ce7193597c188p-2",
             "-0x1.6ca769c2551aap-1", "0x1.ad388e47d4508p-6"],
            ["0x1.c4b1b1f5be04bp-1", "-0x1.4642141b3ad3ep-2",
             "0x1.bb61a6f663170p-2", "-0x1.240cfda4bbcc6p-1"],
            ["0x1.6dddcd251557fp-4", "0x1.021507893415ap-4",
             "0x1.4bf8fb5c29401p-1", "0x1.24e9bb5453975p+0"],
        ]
        assert [[float(x).hex() for x in row] for row in centers] == expected
        assert inertia.hex() == "0x1.6e7ea58d4cb08p+9"


@st.composite
def repeated_rows(draw):
    """A pool of 1-12 distinct rows, each repeated 1-20 times and shuffled,
    and a k no larger than the row count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((draw(st.integers(1, 12)), draw(st.integers(1, 4))))
    repeats = draw(st.lists(st.integers(1, 20), min_size=pool.shape[0],
                            max_size=pool.shape[0]))
    points = rng.permutation(np.repeat(pool, repeats, axis=0))
    return points, draw(st.integers(1, points.shape[0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repeated_rows(), st.integers(0, 1000))
def test_repeated_rows_weighted_invariants(data, seed):
    points, k = data
    labels, centers, inertia = kmeans(points, k, KMeansConfig(restarts=2, seed=seed))
    distinct = np.unique(points, axis=0)
    if k <= distinct.shape[0]:
        for row in distinct:
            same = (points == row).all(axis=1)
            assert np.unique(labels[same]).size == 1
    assert np.unique(labels).tolist() == list(range(k))
    expected = float(((points - centers[labels]) ** 2).sum())
    assert inertia == pytest.approx(expected, rel=1e-12, abs=1e-300)
    for c in range(k):
        assert np.allclose(centers[c], points[labels == c].mean(axis=0),
                           rtol=1e-12, atol=1e-12)
