import tracemalloc

import numpy as np
import pytest

from specmix import (ConfigError, DataError, MixedDataset, SyntheticParams,
                     generate_synthetic, kmodes, kprototypes, label_agreement)
from specmix.baselines import _alternate


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

    def test_integral_float_codes_accepted(self):
        cats = np.array([[0, 1, 2]] * 3 + [[3, 0, 1]] * 3)
        assert np.array_equal(kmodes(cats.astype(float), 2, seed=0),
                              kmodes(cats, 2, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cats = rng.integers(0, 4, (30, 3))
        assert np.array_equal(kmodes(cats, 3, seed=5), kmodes(cats, 3, seed=5))

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        cats = rng.integers(0, 4, (40, 4))
        cards = cats.max(axis=0) + 1
        _, _, _, _, history = _alternate(None, cats, cards, 3,
                                         np.random.default_rng(0), 100, 1.0)
        assert (np.diff(history) <= 1e-9).all()


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

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        ds, _ = generate_synthetic(SyntheticParams(n=50, k=3, q=2,
                                                   sigma=1.0, p=0.3, seed=7))
        cards = np.asarray(ds.cardinalities)
        _, _, _, _, history = _alternate(ds.numeric, ds.categorical, cards, 3,
                                         rng, 100, 0.5)
        assert (np.diff(history) <= 1e-9).all()

    def test_prototype_set_returned(self):
        ds, _ = generate_synthetic(SyntheticParams(n=40, k=2, q=2,
                                                   sigma=0.5, p=0.1, seed=8))
        labels, protos = kprototypes(ds, 2, seed=9, return_prototypes=True)
        assert protos.numeric_centers.shape == (2, ds.num_numeric)
        assert protos.modes.shape == (2, ds.num_categorical)
        assert protos.gamma_mix >= 0.0
        for c in range(2):
            assert (protos.modes[c] < np.asarray(ds.cardinalities)).all()

    def test_requires_both_parts(self):
        ds = MixedDataset(np.random.default_rng(0).standard_normal((10, 2)),
                          np.empty((10, 0), dtype=int), ())
        with pytest.raises(ConfigError):
            kprototypes(ds, 2)

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
    return min(_alternate(numeric, categorical, cards, k,
                          np.random.default_rng([seed, r]), 100, gamma_mix)[3]
               for r in range(10))


def test_golden_kmodes():
    # recorded before the assignment cost became one matrix per iteration;
    # any change to the arithmetic or tie-breaking moves these bits
    cats = np.random.default_rng(2024).integers(0, 3, (40, 4))
    labels = kmodes(cats, 3, seed=5)
    assert "".join(map(str, labels)) == "0000221012020102111001210121201200000112"
    objective = winning_objective(None, cats, cats.max(axis=0) + 1, 3, 5, 1.0)
    assert objective.hex() == "0x1.c800000000000p+5"


@pytest.mark.parametrize("gamma_mix, expected, objective", [
    (None, "010001011010111110200122000021012102221210211", "0x1.eb9362ffff982p+5"),
    (0.0, "010001012010111110200122000021012102221210211", "0x1.66a6abba840b9p+5"),
    (1.0, "222222221022212210000200000002221101111110112", "0x1.629dbeac7856dp+6"),
])
def test_golden_kprototypes(gamma_mix, expected, objective):
    ds, _ = generate_synthetic(SyntheticParams(n=45, k=3, q=2, sigma=0.8,
                                               p=0.3, seed=6))
    labels, protos = kprototypes(ds, 3, gamma_mix=gamma_mix, seed=7,
                                 return_prototypes=True)
    assert "".join(map(str, labels)) == expected
    best = winning_objective(ds.numeric, ds.categorical,
                             np.asarray(ds.cardinalities), 3, 7, protos.gamma_mix)
    assert best.hex() == objective


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
