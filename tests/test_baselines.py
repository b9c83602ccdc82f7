import tracemalloc

import numpy as np
import pytest

from specmix import (ConfigError, DataError, MixedDataset, SyntheticParams,
                     generate_synthetic, kmodes, kprototypes, label_agreement)
from specmix.baselines import _best_run
from specmix.kmeans import alternate, weighted_columns


class TestKModes:
    def test_identical_blocks_perfect_split(self):
        cats = np.array([[0, 1, 2]] * 6 + [[3, 0, 1]] * 6)
        labels = kmodes(cats, 2, seed=0)
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_k_one_is_majority_mode(self):
        rng = np.random.default_rng(0)
        cats = rng.integers(0, 3, (20, 4))
        labels = kmodes(cats, 1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_all_rows_identical_repair(self):
        cats = np.zeros((8, 3), dtype=int)
        labels = kmodes(cats, 2, seed=0)
        assert labels.shape == (8,)
        assert len(set(labels.tolist())) == 2

    def test_rows_fewer_than_k(self):
        with pytest.raises(ConfigError):
            kmodes(np.zeros((2, 2), dtype=int), 3)

    @pytest.mark.parametrize("bad", [-1, 0.5, np.nan, np.inf])
    def test_codes_must_be_nonnegative_integers(self, bad):
        # negative codes used to escape from np.bincount as a raw ValueError,
        # and 0.5 was truncated to 0 and clustered
        with pytest.raises(DataError, match="nonnegative integer"):
            kmodes([[bad], [0], [1]], 2)

    def test_sparse_codes_label_as_their_dense_renumbering(self):
        # the count tables used to have max code + 1 columns: a code of
        # 2**40 asked for 16 TiB
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 4, (30, 3))
        values = np.array([[0, 5, 2**40, 2**62], [1, 7, 9, 10],
                           [3, 4, 5, 6]]).T  # increasing, per column
        sparse = np.take_along_axis(values, dense, axis=0)
        for seed in range(3):
            assert np.array_equal(kmodes(sparse, 3, seed=seed),
                                  kmodes(dense, 3, seed=seed))
        assert kmodes(np.array([[0], [2**40], [3], [2**40]]), 2).shape == (4,)

    def test_integral_float_codes_accepted(self):
        cats = np.array([[0, 1, 2]] * 3 + [[3, 0, 1]] * 3)
        assert np.array_equal(kmodes(cats.astype(float), 2, seed=0),
                              kmodes(cats, 2, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cats = rng.integers(0, 4, (30, 3))
        assert np.array_equal(kmodes(cats, 3, seed=5), kmodes(cats, 3, seed=5))


class TestKPrototypes:
    def test_zero_weight_ignores_categorical(self):
        rng = np.random.default_rng(3)
        numeric = np.vstack([rng.normal(0, 0.1, (10, 2)),
                             rng.normal(5, 0.1, (10, 2))])
        cats_a = rng.integers(0, 3, (20, 2))
        cats_b = rng.integers(0, 3, (20, 2))
        ds_a = MixedDataset(numeric, cats_a, (3, 3))
        ds_b = MixedDataset(numeric, cats_b, (3, 3))
        la = kprototypes(ds_a, 2, gamma_mix=0.0, seed=4)
        lb = kprototypes(ds_b, 2, gamma_mix=0.0, seed=4)
        assert np.array_equal(la, lb)
        assert len(set(la[:10])) == 1 and la[0] != la[10]

    def test_huge_weight_matches_kmodes(self):
        ds, _ = generate_synthetic(SyntheticParams(n=60, k=2, q=3,
                                                   sigma=3.0, p=0.0, seed=5))
        lp = kprototypes(ds, 2, gamma_mix=1e9, seed=6)
        lm = kmodes(ds.categorical, 2, seed=6)
        assert label_agreement(lp, lm) == 1.0

    def test_requires_both_parts(self):
        ds = MixedDataset(np.random.default_rng(0).standard_normal((10, 2)),
                          np.empty((10, 0), dtype=int), ())
        with pytest.raises(ConfigError):
            kprototypes(ds, 2)

    @pytest.mark.parametrize("gamma_mix", ["0.5", [0.5]])
    def test_non_number_gamma_mix_rejected(self, gamma_mix):
        # used to raise a raw TypeError from the range comparison
        ds, _ = generate_synthetic(SyntheticParams(n=60, k=2, q=2,
                                                   sigma=1.0, p=0.2, seed=0))
        with pytest.raises(ConfigError, match="gamma_mix"):
            kprototypes(ds, 2, gamma_mix=gamma_mix)

    @pytest.mark.parametrize("gamma_mix", [np.nan, np.inf])
    def test_non_finite_gamma_mix_rejected(self, gamma_mix):
        # nan used to pass the sign check and return clusters of sizes [59, 1]
        ds, _ = generate_synthetic(SyntheticParams(n=60, k=2, q=2,
                                                   sigma=1.0, p=0.2, seed=0))
        with pytest.raises(ConfigError, match="gamma_mix"):
            kprototypes(ds, 2, gamma_mix=gamma_mix)

    def test_labels_cover_at_least_one_cluster(self):
        ds, _ = generate_synthetic(SyntheticParams(n=30, k=2, q=2,
                                                   sigma=1.0, p=0.4, seed=10))
        labels = kprototypes(ds, 2, seed=11)
        assert labels.shape == (30,)
        assert len(set(labels.tolist())) >= 1


def winning_objective(numeric, categorical, cards, k, seed, gamma_mix):
    """The lowest objective over the ten restarts the baselines run."""
    numeric = np.empty((categorical.shape[0], 0)) if numeric is None else numeric
    return _best_run(numeric, categorical, cards, k, gamma_mix, seed, 10, 100)[-1]


def test_golden_kmodes():
    # recorded before the assignment cost became one matrix per iteration;
    # any change to the arithmetic or tie-breaking moves these bits
    cats = np.random.default_rng(2024).integers(0, 3, (40, 4))
    labels = kmodes(cats, 3, seed=5)
    assert "".join(map(str, labels)) == "0000221012020102111001210121201200000112"
    objective = winning_objective(None, cats, cats.max(axis=0) + 1, 3, 5, 1.0)
    assert objective.hex() == "0x1.c800000000000p+5"


# the objectives are the loop's difference pass, which rounds 1-2 ulp apart
# from the sum of cost-matrix entries they were first pinned as
@pytest.mark.parametrize("gamma_mix, expected, objective", [
    (None, "010001011010111110200122000021012102221210211", "0x1.eb9362ffff984p+5"),
    (0.0, "010001012010111110200122000021012102221210211", "0x1.66a6abba840bap+5"),
    (1.0, "222222221022212210000200000002221101111110112", "0x1.629dbeac7856ep+6"),
])
def test_golden_kprototypes(gamma_mix, expected, objective):
    ds, _ = generate_synthetic(SyntheticParams(n=45, k=3, q=2, sigma=0.8,
                                               p=0.3, seed=6))
    labels = kprototypes(ds, 3, gamma_mix=gamma_mix, seed=7)
    assert "".join(map(str, labels)) == expected
    if gamma_mix is None:  # the default: half the mean numeric column variance
        gamma_mix = 0.5 * float(np.mean(np.var(ds.numeric, axis=0)))
    best = winning_objective(ds.numeric, ds.categorical,
                             np.asarray(ds.cardinalities), 3, 7, gamma_mix)
    assert best.hex() == objective


# two blocks of identical rows: every restart splits them and reaches the same
# objective, and the restarts differ only in the order of the labels
TWO_BLOCKS = MixedDataset(np.repeat([[0.0, 0.0], [10.0, 10.0]], 6, axis=0),
                          np.array([[0, 1, 2]] * 6 + [[3, 0, 1]] * 6), (4, 2, 3))


@pytest.mark.parametrize("numeric, gamma_mix", [(False, 1.0), (True, 0.5)])
def test_two_blocks_every_restart_ties(numeric, gamma_mix):
    ds = TWO_BLOCKS
    features = ds.numeric if numeric else np.empty((ds.n, 0))
    p2 = np.einsum("ij,ij->i", features, features)

    def restart(rng):  # as the baselines start each restart
        init = rng.choice(ds.n, size=2, replace=False)
        return alternate(features, ds.categorical, ds.cardinalities, features[init],
                         ds.categorical[init], np.ones(ds.n), p2,
                         weighted_columns(features, np.ones(ds.n)), gamma_mix, 100)

    objectives = {restart(np.random.default_rng([seed, r]))[-1]
                  for seed in range(3) for r in range(10)}
    assert objectives == {0.0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmodes_equal_restarts_keep_the_earliest(seed):
    cats = TWO_BLOCKS.categorical
    first = kmodes(cats, 2, seed=seed, restarts=1)
    for restarts in (2, 5, 10):
        assert np.array_equal(kmodes(cats, 2, seed=seed, restarts=restarts), first)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kprototypes_equal_restarts_keep_the_earliest(seed):
    first = kprototypes(TWO_BLOCKS, 2, gamma_mix=0.5, seed=seed, restarts=1)
    for restarts in (2, 5, 10):
        labels = kprototypes(TWO_BLOCKS, 2, gamma_mix=0.5, seed=seed,
                             restarts=restarts)
        assert np.array_equal(labels, first)


@pytest.mark.parametrize("numeric_columns", [0, 2])
def test_high_cardinality_column_stays_small(numeric_columns):
    # a column with as many levels as rows: the Hamming term must not build
    # an n x sum(cards) matrix (32 MB here), only O(nk) buffers
    n = 2000
    rng = np.random.default_rng(8)
    cats = np.column_stack([rng.permutation(n), rng.integers(0, 3, n)])
    ds = MixedDataset(rng.normal(size=(n, numeric_columns)), cats, (n, 3))
    tracemalloc.start()
    try:
        if numeric_columns:
            labels = kprototypes(ds, 4, seed=0)
        else:
            labels = kmodes(cats, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(labels.tolist())) == 4
    assert peak <= n * n // 4
