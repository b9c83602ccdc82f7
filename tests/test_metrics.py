import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specmix
from specmix import (ContingencyTable, DataError, imbalance_ratio,
                     label_agreement, purity)


def test_import_does_not_load_scipy_optimize():
    # only label_agreement needs it, and it costs every process about 0.3 s
    env = dict(os.environ, PYTHONPATH=str(Path(specmix.__file__).parent.parent))
    code = ("import sys, specmix, specmix.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_loads_no_scipy():
    # the one-hot products, the cluster means and the Lanczos eigensolve of
    # T are numpy code: only the agreement score imports scipy, when it is
    # called
    env = dict(os.environ, PYTHONPATH=str(Path(specmix.__file__).parent.parent))
    code = ("import sys, specmix, specmix.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestPurity:
    def test_perfect_clustering(self):
        labels = [0, 0, 1, 1, 2]
        assert purity(labels, labels, "weighted") == 1.0
        assert purity(labels, labels, "macro") == 1.0

    def test_single_cluster(self):
        pred = [0, 0, 0, 0, 0]
        truth = [0, 0, 0, 1, 1]
        assert purity(pred, truth, "weighted") == pytest.approx(0.6)
        assert purity(pred, truth, "macro") == pytest.approx(0.6)

    def test_two_cluster_example(self):
        pred = [0, 0, 0, 1, 1]
        truth = [0, 0, 1, 1, 1]
        assert purity(pred, truth, "weighted") == pytest.approx(0.8)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            purity([0, 1], [0, 1, 1])

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            purity([0], [0], "median")

    def test_empty_labels_rejected(self):
        with pytest.raises(DataError, match="label vectors are empty"):
            ContingencyTable.from_labels([], [])

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 5, 200)
        truth = rng.integers(0, 4, 200)
        base_w = purity(pred, truth, "weighted")
        base_m = purity(pred, truth, "macro")
        for _ in range(100):
            perm_p = rng.permutation(5)
            perm_t = rng.permutation(4)
            assert purity(perm_p[pred], perm_t[truth], "weighted") == base_w
            assert purity(perm_p[pred], perm_t[truth], "macro") == base_m

    def test_weighted_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k_true = int(rng.integers(2, 6))
            truth = np.concatenate([np.arange(k_true),
                                    rng.integers(0, k_true, 40)])
            pred = rng.integers(0, 4, truth.size)
            value = purity(pred, truth, "weighted")
            assert 1.0 / k_true <= value <= 1.0

    def test_arbitrary_label_values(self):
        assert purity([10, 10, -3], ["a", "a", "b"]) == 1.0


class TestImbalanceRatio:
    def test_balanced(self):
        assert imbalance_ratio([0, 0, 1, 1, 2, 2]) == 1.0

    def test_ninety_ten(self):
        truth = [0] * 90 + [1] * 10
        assert imbalance_ratio(truth) == pytest.approx(0.1111, abs=1e-4)

    def test_single_class(self):
        assert imbalance_ratio([3, 3, 3]) == 1.0

    @pytest.mark.parametrize("truth", [np.zeros((2, 2)), np.array(3)])
    def test_not_one_dimensional_rejected(self, truth):
        # a 2-D array used to give a ratio over all its cells
        with pytest.raises(DataError, match="1-D"):
            imbalance_ratio(truth)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="label vector is empty"):
            imbalance_ratio([])


class TestLabelAgreement:
    def test_identical(self):
        assert label_agreement([0, 1, 2], [0, 1, 2]) == 1.0

    def test_swapped_ids(self):
        assert label_agreement([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_partial(self):
        assert label_agreement([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 4, 100)
        b = rng.integers(0, 3, 100)
        assert label_agreement(a, b) == label_agreement(b, a)

    def test_self_agreement(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 6, 50)
        assert label_agreement(a, a) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, 80)
        b = rng.integers(0, 4, 80)
        base = label_agreement(a, b)
        for _ in range(100):
            perm = rng.permutation(4)
            assert label_agreement(a, perm[b]) == base

    def test_exact_above_twelve_clusters(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 15, 400)
        assert label_agreement(a, a) == 1.0
        b = rng.integers(0, 15, 400)
        value = label_agreement(a, b)
        assert 0.0 <= value <= 1.0
        # contingency block [[3, 2], [2, 0]] plus 11 singleton clusters:
        # matching the 3 first (greedy) gives 14/18, the optimum is 15/18
        pred = [0] * 5 + [1] * 2 + list(range(2, 13))
        truth = [0, 0, 0, 1, 1, 0, 0] + list(range(2, 13))
        assert label_agreement(pred, truth) == pytest.approx(15 / 18)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            label_agreement([0], [0, 1])


class TestContingency:
    def test_total_and_nonnegative(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 3, 50)
        truth = rng.integers(0, 4, 50)
        table = ContingencyTable.from_labels(pred, truth)
        assert table.counts.sum() == 50
        assert (table.counts >= 0).all()
        assert table.n == 50
