import numpy as np
import pytest

from specmix import ConfigError, KMeansConfig, kmeans
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
