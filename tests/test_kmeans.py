import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmix import ConfigError, DataError, KMeansConfig, kmeans
from specmix.kmeans import (_choice, _distinct_rows, _plus_plus_init, _row_keys, _sq_dists,
                            alternate, weighted_columns)


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
        labels, centers, inertia = kmeans(points, 2, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_equals_rows(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 2))
        labels, _, inertia = kmeans(points, 6, seed=1)
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(labels.tolist()) == list(range(6))

    def test_k_one_closed_form(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        labels, centers, inertia = kmeans(points, 1, seed=2)
        assert np.allclose(centers[0], points.mean(axis=0))
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert inertia == pytest.approx(expected, rel=1e-12)

    def test_rows_fewer_than_k(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((2, 2)), 3)

    def test_lloyd_iterates_past_the_first_assignment(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((40, 3))
        unit, identity = np.ones(40), np.arange(40)
        p2 = np.einsum("ij,ij->i", points, points)
        centers = _plus_plus_init(points, 4, rng, unit, identity, p2)
        no_codes, no_modes = np.empty((40, 0), np.int64), np.empty((4, 0), np.int64)
        weighted = weighted_columns(points, unit)
        once, converged = (alternate(points, no_codes, (), centers, no_modes, unit, p2,
                                     weighted, 0.0, max_iters)[-1] for max_iters in (1, 300))
        assert converged < once

    def test_all_clusters_used(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            points = rng.standard_normal((15, 2))
            k = int(rng.integers(2, 6))
            labels, _, _ = kmeans(points, k, seed=4)
            assert len(set(labels.tolist())) == k

    def test_identical_points_repaired(self):
        points = np.zeros((7, 2))
        labels, _, inertia = kmeans(points, 2, seed=5)
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
        cfg = KMeansConfig(restarts=3)
        labels, _, inertia = kmeans(points, 4, cfg, seed=9)
        assert "".join(map(str, labels)) == (
            "233333333323333000000020300030111111111111111022222022200222")
        assert inertia.hex() == "0x1.f6f679e79e7a0p+6"
        labels, _, inertia = kmeans(repeated, 4, cfg, seed=9)  # the weighted path
        assert "".join(map(str, labels)) == (
            "022220121022211112311123222300201222222332222221302123302230")
        assert inertia.hex() == "0x1.2b6cccccccccdp+6"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_restarts_keep_the_earliest(self, seed):
        # every restart splits the two blobs and reaches the same inertia;
        # the restarts differ only in which blob gets label 0
        rng = np.random.default_rng(7)
        points = np.vstack([0.01 * rng.standard_normal((6, 2)),
                            10.0 + 0.01 * rng.standard_normal((6, 2))])
        first, _, first_inertia = kmeans(points, 2, KMeansConfig(restarts=1), seed=seed)
        for restarts in (2, 5, 10):
            labels, _, inertia = kmeans(points, 2, KMeansConfig(restarts=restarts),
                                        seed=seed)
            assert inertia == first_inertia
            assert np.array_equal(labels, first)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 4))
        a = kmeans(points, 3, seed=7)
        b = kmeans(points, 3, seed=7)
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]

    def test_near_optimal_against_brute_force(self):
        rng = np.random.default_rng(5)
        hits = 0
        trials = 60
        for _ in range(trials):
            n = int(rng.integers(4, 9))
            points = rng.standard_normal((n, 2))
            _, _, inertia = kmeans(points, 2, seed=int(rng.integers(1000)))
            if inertia <= brute_force_two_clusters(points) + 1e-9:
                hits += 1
        assert hits >= 0.95 * trials

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KMeansConfig(restarts=0)
        with pytest.raises(ConfigError):
            KMeansConfig(max_iters=0)

    # no dict or number is a config, not even a falsy one that would pass for None
    @pytest.mark.parametrize("cfg", [{"restarts": 2}, 3, {}, 0],
                             ids=["dict", "int", "empty-dict", "zero"])
    def test_config_that_is_not_a_kmeans_config(self, cfg):
        with pytest.raises(ConfigError, match="kmeans must be a KMeansConfig, got"):
            kmeans(np.eye(3), 2, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # a NaN used to escape from rng.choice as a raw ValueError
        points = np.array([[bad, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DataError, match="non-finite"):
            kmeans(points, 2)

    def test_all_distinct_rows_pinned(self):
        # every row distinct: the same draws and bits as unweighted K-means
        points = np.random.default_rng(0).standard_normal((300, 4))
        labels, centers, inertia = kmeans(points, 4, seed=3)
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
    labels, centers, inertia = kmeans(points, k, KMeansConfig(restarts=2), seed=seed)
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repeated_rows(), st.integers(0, 1000))
def test_rows_with_an_inverse_cluster_as_their_datapoints(data, seed):
    """Rows in order of their first datapoint that stand for datapoints
    through ``inverse`` give the bits that one row per datapoint gives, equal
    given rows and the fallback to one row per datapoint (fewer distinct rows
    than k) included."""
    points, k = data
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, points.shape[0], rng.integers(0, 30))
    inverse = rng.permutation(np.concatenate([np.arange(points.shape[0]), extra]))
    _, first = np.unique(inverse, return_index=True)
    order = inverse[np.sort(first)]  # the rows by their first datapoint
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    cfg = KMeansConfig(restarts=2)
    expected = kmeans(points[inverse], k, cfg, seed=seed)
    result = kmeans(points[order], k, cfg, inverse=rank[inverse], seed=seed)
    assert np.array_equal(result[0], expected[0])
    assert np.array_equal(result[1], expected[1])
    assert result[2] == expected[2]


def test_inverse_is_checked():
    points = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ConfigError, match="row 1 of points stands for no datapoint"):
        kmeans(points, 2, inverse=[0, 2, 2])
    with pytest.raises(ConfigError, match="inverse"):
        kmeans(points, 2, inverse=[0, 1, 3])
    with pytest.raises(ConfigError, match="1-D"):
        kmeans(points, 2, inverse=[[0, 1, 2]])
    with pytest.raises(ConfigError, match="at least k=4"):
        kmeans(points, 4, inverse=[0, 1, 2])


def reference_plus_plus(points, k, rng, w, inverse, p2):
    """Greedy k-means++ scored one candidate at a time: one distance
    product, minimum and weighted sum per candidate, drawn with
    ``rng.choice``. The oracle of the block seeding."""
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


@st.composite
def quarter_grid_rows(draw):
    """1-60 rows of 1-6 quarter-grid coordinates in [-4, 4], so that every
    distance and weighted sum is exact; each row stands for 1-5 datapoints
    through a shuffled inverse. A narrow grid repeats rows, and a k above
    the distinct row count reaches the all-zero-distance draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d, span = draw(st.integers(1, 60)), draw(st.integers(1, 6)), draw(st.integers(0, 16))
    points = rng.integers(-span, span + 1, (m, d)) / 4.0
    counts = rng.integers(1, 6, m)
    inverse = rng.permutation(np.repeat(np.arange(m), counts))
    return points, counts.astype(np.float64), inverse, draw(st.integers(2, 16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quarter_grid_rows(), st.integers(0, 2**32 - 1))
def test_block_seeding_matches_per_candidate_reference(data, seed):
    points, w, inverse, k = data
    p2 = np.einsum("ij,ij->i", points, points)
    block_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    centers = _plus_plus_init(points, k, block_rng, w, inverse, p2)
    expected = reference_plus_plus(points, k, reference_rng, w, inverse, p2)
    assert centers.tobytes() == expected.tobytes()
    assert block_rng.random() == reference_rng.random()


@st.composite
def weight_vectors(draw):
    """Nonnegative weights with a positive sum: 1 to 60,000 of them, dense,
    with a share of zeros, or with a single nonzero weight."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.integers(1, 50), st.integers(1, 60_000)))
    w = rng.exponential(1.0, size)
    shape = draw(st.sampled_from(["dense", "zeros", "single"]))
    if shape == "zeros":
        w[rng.random(size) < draw(st.floats(0.0, 0.99))] = 0.0
    elif shape == "single":
        w[:] = 0.0
    w[rng.integers(size)] = rng.exponential(1.0) + 1e-3
    return w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weight_vectors(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_inverse_cdf_draw_is_generator_choice(w, size, seed):
    p = w / w.sum()
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(_choice(ours, p, size), numpys.choice(p.size, size, p=p))
    assert ours.random() == numpys.random()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 50_000), st.integers(1, 20), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_center_update_matches_per_column_bincounts(m, d, k, seed):
    """One Lloyd step's centers equal the weighted per-column bincount
    means, bit for bit: both sum each cluster's rows in row order."""
    rng = np.random.default_rng(seed)
    k = min(k, m)
    points = rng.standard_normal((m, d)) * rng.exponential(1.0, d)
    w = rng.exponential(1.0, m)
    p2 = np.einsum("ij,ij->i", points, points)
    start = points[rng.choice(m, k, replace=False)]
    labels, centers, _, _ = alternate(points, np.empty((m, 0), np.int64), (), start,
                                      np.empty((k, 0), np.int64), w, p2,
                                      weighted_columns(points, w), 0.0, 1)
    mass = np.bincount(labels, weights=w, minlength=k)
    expected = np.empty((k, d))
    for dim in range(d):
        expected[:, dim] = np.bincount(labels, weights=w * points[:, dim],
                                       minlength=k) / mass
    assert centers.tobytes() == expected.tobytes()


def fixed_start(clusterer):
    """The inputs of ``alternate`` for one of the three clusterers on 60
    rows in 4 clusters, started from fixed prototypes: K-means on weighted
    numeric rows, K-modes on category codes, K-prototypes on both."""
    rng = np.random.default_rng(11)
    m, k = 60, 4
    numeric = rng.standard_normal((m, 3)) if clusterer != "kmodes" else np.empty((m, 0))
    codes = rng.integers(0, 4, (m, 3)) if clusterer != "kmeans" else np.empty((m, 0), np.int64)
    w = rng.integers(1, 4, m).astype(np.float64) if clusterer == "kmeans" else np.ones(m)
    start = rng.choice(m, k, replace=False)
    gamma_mix = {"kmeans": 0.0, "kmodes": 1.0, "kprototypes": 0.5}[clusterer]
    return (numeric, codes, (4,) * codes.shape[1], numeric[start], codes[start], w,
            np.einsum("ij,ij->i", numeric, numeric), weighted_columns(numeric, w), gamma_mix)


@pytest.mark.parametrize("clusterer", ["kmeans", "kmodes", "kprototypes"])
def test_objective_falls_until_the_labels_repeat(clusterer):
    """After j iterations the objective is no larger than after j - 1; once
    the labels repeat, more iterations change nothing, bit for bit."""
    args = fixed_start(clusterer)
    runs = [alternate(*args, max_iters) for max_iters in range(1, 41)]
    for before, after in zip(runs, runs[1:]):
        assert after[-1] <= before[-1] * (1.0 + 1e-12)
    repeat = next(j for j in range(1, len(runs))
                  if np.array_equal(runs[j][0], runs[j - 1][0]))
    assert repeat > 1 and runs[repeat - 1][-1] < runs[0][-1]  # it did iterate
    for run in runs[repeat:]:
        assert np.array_equal(run[0], runs[repeat - 1][0])
        assert run[1].tobytes() == runs[repeat - 1][1].tobytes()
        assert np.array_equal(run[2], runs[repeat - 1][2])
        assert run[3] == runs[repeat - 1][3]


def test_distinct_rows_are_not_copied():
    points = np.random.default_rng(0).standard_normal((50, 3))
    rows, inverse = _distinct_rows(points)
    assert rows is points and np.array_equal(inverse, np.arange(50))
    # a repeated row takes the copy that drops it
    rows, inverse = _distinct_rows(points[[0, 1, 0, 2]])
    assert np.array_equal(rows, points[:3]) and inverse.tolist() == [0, 1, 0, 2]


def test_rows_that_share_a_key_stay_apart():
    # y's last word is chosen so that x and y get one key: key = mix(key) +
    # word, so the keys of [x0, 0] and [y0, 0] differ from theirs by the last
    # words alone
    x = np.array([1.0, 2.0])
    for y0 in np.nextafter(1.0, np.arange(2.0, 10.0)):
        heads = _row_keys(np.array([[x[0], 0.0], [y0, 0.0]]).view(np.uint64))
        last = x[1:].view(np.uint64) + heads[:1] - heads[1:]
        if np.isfinite(last.view(np.float64)).all():
            break
    y = np.array([y0, last.view(np.float64)[0]])
    pair = np.array([x, y])
    keys = _row_keys(pair.view(np.uint64))
    assert keys[0] == keys[1] and not np.array_equal(x, y)
    rows, inverse = _distinct_rows(pair[[0, 1, 0, 1, 1]])
    assert rows.tobytes() == pair.tobytes() and inverse.tolist() == [0, 1, 0, 1, 1]


def test_signed_zeros_stay_apart():
    points = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    rows, inverse = _distinct_rows(points)
    assert rows.tobytes() == points[:2].tobytes() and inverse.tolist() == [0, 1, 0]
