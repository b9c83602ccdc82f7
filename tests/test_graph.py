import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmix import (ConfigError, DataError, MixedDataset,
                     StackedEncoder, assemble_augmented, assignment_energy,
                     assignment_matrix, base_similarity,
                     build_bipartite_reduction, delta_counts)
from specmix import graph
from specmix.graph import _BLOCK_BYTES, BaseWeights

# The largest n whose similarity build is a single row block.
ONE_BLOCK_N = math.isqrt(_BLOCK_BYTES // 8)
# Panel height of the panel tests.
PANEL_ROWS = 16


def random_mixed(rng, n, r, q, max_card=4):
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(q)]
    cats = np.column_stack([
        np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        for c in cards]) if q else np.empty((n, 0), dtype=int)
    return MixedDataset(rng.standard_normal((n, r)), cats, tuple(cards))


def random_augmented(rng, n=12, r=2, q=2):
    ds = random_mixed(rng, n, r, q)
    weights = base_similarity(ds)
    lams = rng.uniform(0.1, 10.0, q)
    stacked = StackedEncoder(ds.categorical, ds.cardinalities, lams)
    return assemble_augmented(weights, stacked), ds, lams


def nonempty_partition(rng, size, k):
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
    rng.shuffle(labels)
    return labels


def ncut_oracle(dense, labels, k):
    """Direct double-sum evaluation of the normalized-cut objective."""
    degrees = dense.sum(axis=1)
    total = 0.0
    for c in range(k):
        inside = labels == c
        cut = dense[np.ix_(inside, ~inside)].sum()
        vol = degrees[inside].sum()
        total += cut / vol
    return total


class TestBaseSimilarity:
    def test_identical_rows(self):
        ds = MixedDataset(np.array([[1.0, 2.0], [1.0, 2.0]]),
                          np.empty((2, 0), dtype=int), ())
        w = base_similarity(ds)
        assert w.matvec(np.eye(w.n))[0, 1] == 1.0

    def test_unit_distance_pair(self):
        ds = MixedDataset(np.array([[0.0, 0.0], [1.0, 1.0]]),
                          np.empty((2, 0), dtype=int), ())
        w = base_similarity(ds)
        assert w.matvec(np.eye(w.n))[0, 1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_symmetric_and_unit_diagonal(self):
        rng = np.random.default_rng(0)
        ds = random_mixed(rng, 30, 3, 0)
        w = base_similarity(ds).matvec(np.eye(30))
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), np.ones(30))

    def test_requires_numeric(self):
        ds = MixedDataset(np.empty((3, 0)), np.zeros((3, 1), dtype=int), (1,))
        with pytest.raises(ConfigError):
            base_similarity(ds)

    @pytest.mark.parametrize("n", [1, ONE_BLOCK_N - 1, ONE_BLOCK_N,
                                   ONE_BLOCK_N + 1, 777])
    def test_row_blocks_match_pairwise_definition(self, n):
        rng = np.random.default_rng(n)
        ds = random_mixed(rng, n, 3, 0)
        weights = base_similarity(ds)
        # in C order, so that its row sums add in the build's order
        w = np.ascontiguousarray(weights.matvec(np.eye(n)))
        x = ds.numeric
        expected = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(w - expected).max() <= 1e-12
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), np.ones(n))
        assert np.array_equal(weights.degrees, w.sum(axis=1))

    def test_build_holds_the_lower_triangle(self):
        # five panels of at most 699 rows: the lower triangle is 0.5 x 8n^2
        # bytes, the upper halves of the diagonal blocks 0.11 x (about
        # _PANEL_BYTES / 2 at any n), and one row block's temporaries 0.015 x.
        # One n x n buffer would be 1.0 x
        n = 3000
        ds = random_mixed(np.random.default_rng(3), n, 4, 0)
        tracemalloc.start()
        try:
            weights = base_similarity(ds)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(weights.panels) == 5
        assert built <= 0.65 * n * n * 8

    @pytest.mark.parametrize("n", [1, PANEL_ROWS - 1, PANEL_ROWS, PANEL_ROWS + 1,
                                   3 * PANEL_ROWS + 7])
    def test_panels_match_pairwise_definition(self, n, monkeypatch):
        # panels of PANEL_ROWS rows, each built in row blocks of 5 or more
        monkeypatch.setattr(graph, "_PANEL_BYTES", 8 * PANEL_ROWS * n)
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 8 * 5 * n)
        rng = np.random.default_rng(n)
        ds = random_mixed(rng, n, 3, 0)
        weights = base_similarity(ds)
        assert len(weights.panels) == -(-n // PANEL_ROWS)
        w = weights.matvec(np.eye(n))
        x = ds.numeric
        expected = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(w - expected).max() <= 1e-12
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), np.ones(n))
        assert np.abs(weights.degrees - w.sum(axis=1)).max() <= 1e-12 * n
        block = rng.standard_normal((n, 3))
        assert np.abs(weights.matvec(block) - w @ block).max() <= 1e-12
        assert np.abs(weights.matvec(block[:, 0]) - w @ block[:, 0]).max() <= 1e-12
        codes = np.column_stack([np.arange(n) % 3, rng.permutation(n) % 2])
        op = assemble_augmented(weights, StackedEncoder(
            codes, (min(n, 3), min(n, 2)), [2.0, 0.5]))
        h = op.stacked.apply(np.eye(op.t))
        dense = np.block([[w, h], [h.T, np.eye(op.t)]])
        assert np.abs(op.matvec(np.eye(op.dim)) - dense).max() <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), r=st.integers(1, 4), rows=st.integers(1, 40),
           offset=st.floats(-1e9, 1e9), scale=st.floats(1e-3, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_build_is_a_similarity(self, n, r, rows, offset, scale, seed):
        # what the build guarantees without a check: entries in [0, 1], an
        # exactly symmetric matrix with a unit diagonal, close to the
        # pairwise definition wherever the features sit, and its row sums
        x = offset + scale * np.random.default_rng(seed).standard_normal((n, r))
        ds = MixedDataset(x, np.empty((n, 0), dtype=int), ())
        with pytest.MonkeyPatch.context() as patch:  # panels of `rows` rows
            patch.setattr(graph, "_PANEL_BYTES", 8 * rows * n)
            weights = base_similarity(ds)
        assert len(weights.panels) == -(-n // min(rows, n))
        assert all(p.min() >= 0.0 and p.max() <= 1.0 for p in weights.panels)
        w = weights.matvec(np.eye(n))
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), np.ones(n))
        x = ds.numeric
        expected = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(w - expected).max() <= 1e-12
        assert np.abs(weights.degrees - w.sum(axis=1)).max() <= 1e-12 * n

    @pytest.mark.parametrize("scale", [1e154, 1e300])
    def test_overflowing_features_rejected(self, scale):
        # these used to build all-NaN weights, refused later as a config
        # error about node 0's degree
        x = scale * np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.0]])
        ds = MixedDataset(x, np.empty((3, 0), dtype=int), ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                base_similarity(ds)


class TestAssemble:
    def test_hand_assembled_dense(self):
        w = 0.25
        m = np.array([[1.0, w], [w, 1.0]])
        base = BaseWeights((m,), m.sum(axis=1))
        ds = MixedDataset(np.empty((2, 0)), np.array([[0], [1]]), (2,))
        graph = assemble_augmented(base, StackedEncoder(ds.categorical, ds.cardinalities, [1.0]))
        expected = np.array([
            [1, w, 1, 0],
            [w, 1, 0, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ], dtype=float)
        assert np.array_equal(graph.matvec(np.eye(graph.dim)), expected)
        # data node 0: 1 + w + lambda; extra node (var 0, category 0): 1*1 + 1
        assert graph.degrees[0] == pytest.approx(2.0 + w)
        assert graph.degrees[2] == pytest.approx(2.0)

    def test_degree_matches_dense_row_sums(self):
        rng = np.random.default_rng(1)
        graph, *_ = random_augmented(rng)
        assert np.allclose(graph.degrees, graph.matvec(np.eye(graph.dim)).sum(axis=1))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        graph, *_ = random_augmented(rng, n=17, r=3, q=3)
        dense = graph.matvec(np.eye(graph.dim))
        for _ in range(5):
            x = rng.standard_normal(graph.dim)
            assert np.allclose(graph.matvec(x), dense @ x, atol=1e-12)

    def test_dense_symmetric_nonnegative(self):
        rng = np.random.default_rng(3)
        graph, *_ = random_augmented(rng)
        dense = graph.matvec(np.eye(graph.dim))
        assert np.array_equal(dense, dense.T)
        assert dense.min() >= 0.0

    def test_nonpositive_lambda_rejected(self):
        rng = np.random.default_rng(4)
        ds = random_mixed(rng, 8, 1, 1)
        with pytest.raises(ConfigError):
            assemble_augmented(base_similarity(ds),
                               StackedEncoder(ds.categorical, ds.cardinalities, [0.0]))

    # "x" used to escape as a raw ValueError, and "1.5" built an encoder
    # that SpecMixConfig refuses
    @pytest.mark.parametrize("lam", [np.nan, np.inf, "x", "1.5"])
    def test_non_finite_lambda_rejected(self, lam):
        ds = random_mixed(np.random.default_rng(4), 8, 1, 1)
        with pytest.raises(ConfigError, match="finite"):
            assemble_augmented(base_similarity(ds),
                               StackedEncoder(ds.categorical, ds.cardinalities, [lam]))

    def test_row_count_mismatch(self):
        rng = np.random.default_rng(5)
        ds = random_mixed(rng, 8, 1, 1)
        other = random_mixed(rng, 9, 1, 1)
        with pytest.raises(DataError):
            assemble_augmented(base_similarity(ds),
                               StackedEncoder(other.categorical, other.cardinalities, [1.0]))


class TestStackedEncoderChecks:
    CODES = np.array([[0, 1], [1, 0], [2, 0]])

    def test_accepts_code_matrix(self):
        stacked = StackedEncoder(self.CODES, (3, 2), [1.0, 2.0])
        assert stacked.cardinalities == (3, 2) and stacked.lambdas == (1.0, 2.0)
        assert stacked.codes.dtype == np.int64 and not hasattr(stacked, "encoders")
        assert stacked.apply(np.eye(stacked.t)).tolist() == [[1, 0, 0, 0, 2],
                                                             [0, 1, 0, 2, 0],
                                                             [0, 0, 1, 2, 0]]

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3)])
    def test_products_add_in_row_and_variable_order(self, monkeypatch, shape):
        # H x row by row, ((0.0 + x'[c_0]) + x'[c_1]) + x'[c_2] for the
        # weighted x', and H.T y column by column, count times y added in
        # row order to +0.0, bit for bit, over 40 decades and across chunks
        # of rows
        rng = np.random.default_rng(len(shape))
        codes = np.column_stack([np.arange(7) % 3, np.arange(7) % 2, (np.arange(7) // 2) % 4])
        stacked = StackedEncoder(codes, (3, 2, 4), [0.3, 1.7, 2.9], inverse=np.arange(9) % 7)
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 2 * 8 * int(np.prod(shape[1:])))
        x = rng.standard_normal((stacked.t,) + shape[1:]) * np.exp(rng.uniform(-46, 46, (stacked.t,) + shape[1:]))
        xw = (stacked.weights * x.T).T
        expected = np.zeros((stacked.rows,) + shape[1:])
        for i, cols in enumerate(stacked.cols):
            for c in cols:
                expected[i] = expected[i] + xw[c]
        assert stacked.apply(x).tobytes() == expected.tobytes()
        y = rng.standard_normal((stacked.rows,) + shape[1:]) * np.exp(rng.uniform(-46, 46, (stacked.rows,) + shape[1:]))
        y[stacked.codes[:, 0] == 0] = -0.0  # whose sum is +0.0
        sums = np.zeros((stacked.t,) + shape[1:])
        for i, cols in enumerate(stacked.cols):
            for c in cols:
                sums[c] = sums[c] + stacked.counts[i] * y[i]
        assert stacked.apply_transpose(y).tobytes() == (stacked.weights * sums.T).T.tobytes()

    @pytest.mark.parametrize("codes", [CODES[:, :1], CODES[:, 0], CODES[:, :, None]])
    def test_wrong_column_count_rejected(self, codes):
        with pytest.raises(DataError, match="n x 2"):
            StackedEncoder(codes, (3, 2), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_code_rejected(self, bad):
        codes = self.CODES.copy()
        codes[1, 1] = bad
        with pytest.raises(DataError, match=r"column 1 must lie in \[0, 2\)"):
            StackedEncoder(codes, (3, 2), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [0.5, np.nan])
    def test_fractional_code_rejected(self, bad):
        codes = self.CODES.astype(float)
        codes[2, 0] = bad
        with pytest.raises(DataError, match="must be integers"):
            StackedEncoder(codes, (3, 2), [1.0, 1.0])

    @pytest.mark.parametrize("cards", [(3,), (3, 2, 1), ()])
    def test_variable_count_checked(self, cards):
        with pytest.raises(ConfigError):
            StackedEncoder(self.CODES, cards, [1.0, 1.0])


class TestAssignment:
    def test_single_cluster_constant(self):
        degrees = np.array([1.0, 2.0, 3.0])
        z, volumes = assignment_matrix(np.zeros(3, dtype=int), degrees, 1)
        assert np.allclose(z[:, 0], 1.0 / np.sqrt(6.0))
        assert volumes.tolist() == [6.0]

    def test_two_node_example(self):
        z, _ = assignment_matrix([0, 1], np.array([2.0, 3.0]), 2)
        assert z[0, 0] == pytest.approx(1 / np.sqrt(2))
        assert z[1, 1] == pytest.approx(1 / np.sqrt(3))
        assert z[0, 1] == 0.0 and z[1, 0] == 0.0

    def test_ztdz_identity(self):
        rng = np.random.default_rng(6)
        graph, *_ = random_augmented(rng, n=15, r=2, q=2)
        labels = nonempty_partition(rng, graph.dim, 3)
        z, _ = assignment_matrix(labels, graph.degrees, 3)
        gram = z.T @ (graph.degrees[:, None] * z)
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigError):
            assignment_matrix([0, 0, 0], np.ones(3), 2)

    def test_fractional_labels_not_truncated(self):
        # these used to be truncated to the labels [0, 1, 0]
        with pytest.raises(ConfigError, match="must be integers"):
            assignment_matrix([0.5, 1.7, 0.2], np.ones(3), 2)

    @pytest.mark.parametrize("labels", [[0, 2, 1], [-1, 0, 1]])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(ConfigError, match=r"must lie in \[0, 2\)"):
            assignment_matrix(labels, np.ones(3), 2)


class TestEnergy:
    def test_single_cluster_zero(self):
        rng = np.random.default_rng(7)
        graph, *_ = random_augmented(rng)
        z, _ = assignment_matrix(np.zeros(graph.dim, dtype=int), graph.degrees, 1)
        assert abs(assignment_energy(z, graph)) <= 1e-10

    def test_disconnected_components_zero(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        z, _ = assignment_matrix([0, 0, 1, 1], w.sum(axis=1), 2)
        assert abs(assignment_energy(z, w)) <= 1e-12

    def test_matches_ncut_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.uniform(0.05, 1.0, (6, 6))
            w = 0.5 * (w + w.T)
            labels = nonempty_partition(rng, 6, 2)
            z, _ = assignment_matrix(labels, w.sum(axis=1), 2)
            assert assignment_energy(z, w) == pytest.approx(
                ncut_oracle(w, labels, 2), rel=1e-10)

    def test_augmented_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            graph, *_ = random_augmented(rng, n=10, r=2, q=2)
            labels = nonempty_partition(rng, graph.dim, 3)
            z, _ = assignment_matrix(labels, graph.degrees, 3)
            assert assignment_energy(z, graph) == pytest.approx(
                ncut_oracle(graph.matvec(np.eye(graph.dim)), labels, 3), rel=1e-10)

    def test_laplacian_psd_via_edge_sum(self):
        rng = np.random.default_rng(10)
        graph, *_ = random_augmented(rng)
        dense = graph.matvec(np.eye(graph.dim))
        for _ in range(10):
            v = rng.standard_normal(graph.dim)
            quad = v @ (graph.degrees * v - graph.matvec(v))
            edge_sum = 0.5 * np.sum(dense * (v[:, None] - v[None, :]) ** 2)
            assert quad == pytest.approx(edge_sum, rel=1e-9, abs=1e-9)
            assert quad >= -1e-10 * max(1.0, abs(quad))


class TestDeltaCounts:
    def test_direct_example(self):
        # points 0,1: cluster 0, category 0 whose node sits in cluster 0;
        # point 2: cluster 1, category 1 whose node sits in cluster 1
        counts = delta_counts([0, 0, 1], [0, 1], [0, 0, 1], 2, 2)
        assert counts.tolist() == [[2, 0], [0, 1]]
        counts = delta_counts([0, 0, 1], [0, 0], [0, 0, 1], 2, 2)
        assert counts.tolist() == [[2, 0], [1, 0]]

    def test_pure_diagonal_when_coclustered(self):
        rng = np.random.default_rng(11)
        ds = random_mixed(rng, 20, 1, 1, max_card=3)
        codes, card = ds.categorical[:, 0], ds.cardinalities[0]
        extra_labels = np.arange(card) % 3
        data_labels = extra_labels[codes]
        counts = delta_counts(data_labels, extra_labels, codes, card, 3)
        assert np.array_equal(counts, np.diag(np.diag(counts)))
        assert counts.trace() == ds.n

    @pytest.mark.parametrize("data, extra", [([0.9, 1.2, 0.4], [0, 1]),
                                             ([0, 1, 0], [0.3, 1.9]),
                                             ([0.9, 1.2, 0.4], [0.3, 1.9])])
    def test_fractional_labels_not_truncated(self, data, extra):
        # these used to be counted as the truncated labels
        with pytest.raises(ConfigError, match="must be integers"):
            delta_counts(data, extra, [0, 0, 1], 2, 2)

    @pytest.mark.parametrize("bad", [0.5, np.nan, -np.inf])
    def test_non_integer_codes_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="must be integers"):
                delta_counts([0, 1, 0], [0, 1], np.array([0.0, bad, 1.0]), 2, 2)

    @pytest.mark.parametrize("codes", [[0, 2, 1], [0, -1, 1], [[0, 1, 1]]])
    def test_codes_checked(self, codes):
        with pytest.raises(DataError, match="category codes"):
            delta_counts([0, 1, 0], [0, 1], codes, 2, 2)

    def test_total_is_n(self):
        rng = np.random.default_rng(12)
        ds = random_mixed(rng, 25, 1, 1)
        codes, card = ds.categorical[:, 0], ds.cardinalities[0]
        counts = delta_counts(rng.integers(0, 3, 25),
                              rng.integers(0, 3, card), codes, card, 3)
        assert counts.sum() == 25


class TestIdentities:
    """Algebraic identities of the augmented-graph energy on random
    instances with random hard partitions. E_l Y, the one-hot matrix of
    variable l times the extra-node rows Y, is the row gather y[codes]."""

    def test_energy_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            graph, ds, lams = random_augmented(
                rng, n=int(rng.integers(8, 30)), r=int(rng.integers(1, 4)),
                q=int(rng.integers(1, 4)))
            k = int(rng.integers(2, 5))
            labels = nonempty_partition(rng, graph.dim, k)
            z, _ = assignment_matrix(labels, graph.degrees, k)
            lhs = assignment_energy(z, graph)

            x = z[:ds.n]
            w = graph.base.matvec(np.eye(ds.n))
            base_energy = np.trace(x.T @ (np.diag(w.sum(axis=1)) - w) @ x)
            rhs = base_energy
            off = ds.n
            for codes, card, lam in zip(ds.categorical.T, ds.cardinalities, lams):
                y = z[off:off + card]
                rhs += lam * np.linalg.norm(x - y[codes]) ** 2
                off += card
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_delta_identity(self):
        # The coupling term equals sum_k (rowsum_k + colsum_k - 2 delta_kk)
        # / vol_k: a datapoint split from its category node is charged once
        # through each cluster it touches.
        rng = np.random.default_rng(14)
        for _ in range(20):
            graph, ds, _ = random_augmented(
                rng, n=int(rng.integers(8, 30)), r=1,
                q=int(rng.integers(1, 4)))
            k = int(rng.integers(2, 5))
            labels = nonempty_partition(rng, graph.dim, k)
            z, volumes = assignment_matrix(labels, graph.degrees, k)
            x = z[:ds.n]
            off = ds.n
            for codes, card in zip(ds.categorical.T, ds.cardinalities):
                y = z[off:off + card]
                frob = np.linalg.norm(x - y[codes]) ** 2
                counts = delta_counts(labels[:ds.n], labels[off:off + card],
                                      codes, card, k)
                incident = counts.sum(axis=1) + counts.sum(axis=0) - 2 * np.diag(counts)
                rhs = float(np.sum(incident / volumes))
                assert abs(frob - rhs) <= 1e-9 * max(1.0, frob)
                off += card


def per_variable_products(stacked, u, x):
    """H @ u and H.T @ x for vectors, one variable at a time: a gather and a
    scatter-add on each variable's codes."""
    hu, htx, start = np.zeros(stacked.n), [], 0
    for codes, card, lam in zip(stacked.codes.T, stacked.cardinalities, stacked.lambdas):
        stop = start + card
        hu += lam * u[start:stop][codes]
        htx.append(lam * np.bincount(codes, weights=x, minlength=card))
        start = stop
    return hu, np.concatenate(htx)


def within(result, reference, bound, tol=1e-12):
    """Elementwise |result - reference| <= tol * bound, where ``bound`` is the
    product of the absolute values (a bound on the rounding error)."""
    return bool(np.all(np.abs(result - reference) <= tol * bound))


@st.composite
def stacked_problems(draw):
    """One to four categorical variables of 1-6 categories (each used at
    least once) over up to 40 rows, with equal lambdas from a few values or
    unequal random ones, plus random blocks of 1-5 columns on both sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cards = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = draw(st.integers(max(cards), 40))
    codes = np.column_stack([rng.permutation(np.concatenate(
        [np.arange(c), rng.integers(0, c, n - c)])) for c in cards])
    equal = draw(st.booleans())
    if equal:
        lams = (draw(st.sampled_from([0.5, 1.0, 3.0, 10.0, 50.0])),) * len(cards)
    else:
        lams = tuple(draw(st.floats(1e-3, 1e3)) for _ in cards)
    m = draw(st.integers(1, 5))
    return (StackedEncoder(codes, cards, lams), equal,
            rng.standard_normal((sum(cards), m)), rng.standard_normal((n, m)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stacked_problems())
def test_block_products(problem):
    stacked, equal, u, x = problem
    h = stacked.apply(np.eye(stacked.t))
    hu, htx = stacked.apply(u), stacked.apply_transpose(x)
    assert hu.shape == x.shape and htx.shape == u.shape
    for j in range(u.shape[1]):
        # a block is bitwise its columns, and a column bitwise the
        # per-variable gather and scatter-add
        assert np.array_equal(hu[:, j], stacked.apply(u[:, j]))
        assert np.array_equal(htx[:, j], stacked.apply_transpose(x[:, j]))
        gathered, scattered = per_variable_products(stacked, u[:, j], x[:, j])
        assert np.array_equal(hu[:, j], gathered)
        assert np.array_equal(htx[:, j], scattered)
    assert within(hu, h @ u, np.abs(h) @ np.abs(u))
    assert within(htx, h.T @ x, np.abs(h.T) @ np.abs(x))

    numeric = np.random.default_rng(stacked.n).standard_normal((stacked.n, 2))
    graph = assemble_augmented(base_similarity(MixedDataset(
        numeric, np.empty((stacked.n, 0), dtype=int), ())), stacked)
    block = np.vstack([x, u])
    columns = np.column_stack([graph.matvec(block[:, j]) for j in range(u.shape[1])])
    dense = graph.matvec(np.eye(graph.dim))
    assert within(graph.matvec(block), columns, np.abs(dense) @ np.abs(block))

    w_small, _ = build_bipartite_reduction(stacked)
    reference = (h.T @ h) / stacked.lam_total
    if equal:  # lambda^2 times a count is exact for these lambdas
        assert np.array_equal(w_small, reference)
    else:
        assert within(w_small, reference, np.abs(reference))


class TestBlockShape:
    def setup_method(self):
        graph, *_ = random_augmented(np.random.default_rng(15))
        self.graph, self.stacked = graph, graph.stacked

    def test_block_matches_matrix_product(self):
        block = np.random.default_rng(16).standard_normal((self.graph.dim, 3))
        dense = self.graph.matvec(np.eye(self.graph.dim))
        assert np.allclose(self.graph.matvec(block), dense @ block,
                           rtol=0.0, atol=1e-12)
        base = self.graph.base
        assert np.array_equal(base.matvec(block[:base.n]),
                              base.matvec(np.eye(base.n)) @ block[:base.n])

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_wrong_row_count_rejected(self, rows):
        stacked, graph = self.stacked, self.graph
        for product, size in ((stacked.apply, stacked.t),
                              (stacked.apply_transpose, stacked.n),
                              (graph.matvec, graph.dim),
                              (graph.base.matvec, graph.n)):
            for shape in ((size + rows,), (size + rows, 2)):
                with pytest.raises(ConfigError, match="rows"):
                    product(np.zeros(shape))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ConfigError):
            self.graph.matvec(np.zeros((self.graph.dim, 2, 2)))
