import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from specmix import (ConfigError, SymmetricOperator, generalized_smallest_eigs,
                     symmetric_smallest_eigs)


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def random_graph_weights(rng, dim):
    w = rng.uniform(0.0, 1.0, (dim, dim))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def subspace_sine(a, b):
    """Largest principal-angle sine between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)[0]


class TestSymmetric:
    def test_identity_spectrum(self):
        pairs = symmetric_smallest_eigs(np.eye(4), 2)
        assert np.allclose(pairs.values, [1.0, 1.0])

    def test_diagonal_matrix(self):
        pairs = symmetric_smallest_eigs(np.diag([3.0, 1.0, 2.0]), 2)
        assert np.allclose(pairs.values, [1.0, 2.0])
        assert np.allclose(np.abs(pairs.vectors[:, 0]), [0, 1, 0])
        assert np.allclose(np.abs(pairs.vectors[:, 1]), [0, 0, 1])

    def test_residuals_random(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 20)
        pairs = symmetric_smallest_eigs(a, 5)
        scale = max(1.0, np.abs(pairs.values).max())
        for i in range(5):
            res = np.linalg.norm(a @ pairs.vectors[:, i]
                                 - pairs.values[i] * pairs.vectors[:, i])
            assert res <= 1e-8 * scale
        gram = pairs.vectors.T @ pairs.vectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ConfigError):
            symmetric_smallest_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_k_too_large(self):
        with pytest.raises(ConfigError):
            symmetric_smallest_eigs(np.eye(3), 4)

    def test_lanczos_matches_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_symmetric(rng, 50)
            dense = symmetric_smallest_eigs(a, 6, method="dense")
            lanczos = symmetric_smallest_eigs(a, 6, method="lanczos")
            assert np.abs(dense.values - lanczos.values).max() <= 1e-8

    def test_operator_form(self):
        rng = np.random.default_rng(2)
        a = random_symmetric(rng, 40)
        op = SymmetricOperator(lambda x: a @ x, 40)
        pairs = symmetric_smallest_eigs(op, 3)
        dense = symmetric_smallest_eigs(a, 3, method="dense")
        assert np.abs(pairs.values - dense.values).max() <= 1e-8


class TestGeneralized:
    def test_complete_graph_three_nodes(self):
        w = np.ones((3, 3)) - np.eye(3)
        pairs = generalized_smallest_eigs(w, w.sum(axis=1), 3)
        assert np.allclose(pairs.values, [0.0, 1.5, 1.5], atol=1e-10)

    def test_connected_graph_null_vector(self):
        rng = np.random.default_rng(3)
        w = random_graph_weights(rng, 12)
        pairs = generalized_smallest_eigs(w, w.sum(axis=1), 3)
        assert abs(pairs.values[0]) <= 1e-10
        v0 = pairs.vectors[:, 0]
        assert np.abs(v0 - v0.mean()).max() <= 1e-8 * abs(v0.mean())

    def test_residual_oracle(self):
        rng = np.random.default_rng(4)
        w = random_graph_weights(rng, 25)
        d = w.sum(axis=1)
        pairs = generalized_smallest_eigs(w, d, 6)
        lap = np.diag(d) - w
        for i in range(6):
            res = np.linalg.norm(lap @ pairs.vectors[:, i]
                                 - pairs.values[i] * d * pairs.vectors[:, i])
            assert res <= 1e-8 * d.max()

    def test_spectrum_bounds_and_d_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = random_graph_weights(rng, 15)
            d = w.sum(axis=1)
            pairs = generalized_smallest_eigs(w, d, 15)
            assert pairs.values.min() >= -1e-10
            assert pairs.values.max() <= 2.0 + 1e-10
            gram = pairs.vectors.T @ (d[:, None] * pairs.vectors)
            assert np.abs(gram - np.eye(15)).max() <= 1e-8

    def test_zero_degree_rejected(self):
        w = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            generalized_smallest_eigs(w, w.sum(axis=1), 1)

    def test_deterministic_with_sign_convention(self):
        rng = np.random.default_rng(6)
        w = random_graph_weights(rng, 18)
        d = w.sum(axis=1)
        a = generalized_smallest_eigs(w, d, 4)
        b = generalized_smallest_eigs(w, d, 4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_agrees_with_full_dense_decomposition(self):
        # brute-force oracle: full symmetric-reduction spectrum via eigh
        rng = np.random.default_rng(7)
        for dim in (10, 30, 50):
            w = random_graph_weights(rng, dim)
            d = w.sum(axis=1)
            k = 4
            pairs = generalized_smallest_eigs(w, d, k)
            dinv = 1.0 / np.sqrt(d)
            lsym = np.eye(dim) - w * dinv[:, None] * dinv[None, :]
            ref_vals, ref_vecs = np.linalg.eigh(0.5 * (lsym + lsym.T))
            assert np.abs(pairs.values - ref_vals[:k]).max() <= 1e-8
            gap = ref_vals[k] - ref_vals[k - 1]
            if gap > 1e-6:
                scaled = np.sqrt(d)[:, None] * pairs.vectors
                assert subspace_sine(ref_vecs[:, :k], scaled) <= 1e-6

    def test_lanczos_path_on_operator(self):
        rng = np.random.default_rng(8)
        w = random_graph_weights(rng, 60)
        d = w.sum(axis=1)
        dense = generalized_smallest_eigs(w, d, 5, method="dense")
        op = SymmetricOperator(lambda x: w @ x, 60)
        lanczos = generalized_smallest_eigs(op, d, 5, method="lanczos")
        assert np.abs(dense.values - lanczos.values).max() <= 1e-8

    def test_default_matches_dense_at_dim_2100(self):
        rng = np.random.default_rng(9)
        dim = 2100
        w = random_graph_weights(rng, dim)
        d = w.sum(axis=1)
        default = generalized_smallest_eigs(w, d, 2)
        forced = generalized_smallest_eigs(w, d, 2, method="dense")
        assert np.abs(default.values - forced.values).max() <= 1e-8


class TestRepeatedEigenvalues:
    @pytest.mark.parametrize("link", [0.0, 1e-18])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_twin_components_match_dense(self, k, link):
        # two identical components: with link = 0 every eigenvalue is doubled
        c = connected_block(np.random.default_rng(0), 46, 1.0)
        w = np.block([[c, np.full_like(c, link)], [np.full_like(c, link), c]])
        d = w.sum(axis=1)
        pairs = generalized_smallest_eigs(w, d, k)
        oracle = generalized_smallest_eigs(w, d, k, method="dense")
        assert np.abs(pairs.values - oracle.values).max() <= 1e-8

    def test_one_null_vector_per_component(self):
        # four disconnected clusters: mu = 0 four times, and the eigenvectors
        # span the four component indicators
        rng = np.random.default_rng(1)
        sizes = [12, 20, 9, 15]
        w = block_diag(*[random_graph_weights(rng, s) for s in sizes])
        d = w.sum(axis=1)
        pairs = generalized_smallest_eigs(w, d, 4)
        assert np.abs(pairs.values).max() <= 1e-10
        labels = np.repeat(np.arange(4), sizes)
        indicators = (labels[:, None] == np.arange(4)).astype(float)
        assert subspace_sine(indicators, pairs.vectors) <= 1e-8

    def test_repeated_values_past_the_start_block(self):
        # k=6 needs all five copies of 1 and one of 2: the basis fills the
        # 15-dimensional space after three blocks, and the last block
        # narrows to what is left of it
        pairs = symmetric_smallest_eigs(np.diag(np.repeat([1.0, 2.0, 3.0], 5)), 6)
        assert np.abs(pairs.values - [1, 1, 1, 1, 1, 2]).max() <= 1e-8
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(6)).max() <= 1e-8

    def test_symmetric_block_copies(self):
        rng = np.random.default_rng(2)
        a = random_symmetric(rng, 30)
        b = block_diag(a, a, a)
        pairs = symmetric_smallest_eigs(b, 7)
        dense = symmetric_smallest_eigs(b, 7, method="dense")
        assert np.abs(pairs.values - dense.values).max() <= 1e-8
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(7)).max() <= 1e-8


class TestProducts:
    @staticmethod
    def counting(a, columns):
        def matvec(x):
            columns.append(1 if x.ndim == 1 else x.shape[1])
            return a @ x
        return SymmetricOperator(matvec, a.shape[0])

    @pytest.mark.parametrize("k", [1, 4, 60])
    def test_symmetric_counts_every_column(self, k):
        a = random_symmetric(np.random.default_rng(10), 60)
        columns = []
        pairs = symmetric_smallest_eigs(self.counting(a, columns), k)
        assert pairs.products == sum(columns) >= 2 * k

    @pytest.mark.parametrize("k", [1, 3])
    def test_generalized_counts_every_column(self, k):
        w = random_graph_weights(np.random.default_rng(11), 50)
        d = w.sum(axis=1)
        columns = []
        pairs = generalized_smallest_eigs(self.counting(w, columns), d, k)
        assert pairs.products == sum(columns) >= 2 * k

    def test_dense_oracle_applies_only_the_residual_check(self):
        w = random_graph_weights(np.random.default_rng(12), 20)
        d = w.sum(axis=1)
        assert generalized_smallest_eigs(w, d, 3, method="dense").products == 3
        assert symmetric_smallest_eigs(w, 2, method="dense").products == 2


class TestNonFiniteInput:
    # NaN fails every comparison, so these inputs used to reach
    # eigh_tridiagonal (ValueError) or LAPACK (LinAlgError)
    @pytest.mark.parametrize("method", ["lanczos", "dense"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetric_matrix(self, method, bad):
        a = random_symmetric(np.random.default_rng(0), 6)
        a[2, 3] = a[3, 2] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            symmetric_smallest_eigs(a, 2, method=method)

    @pytest.mark.parametrize("method", ["lanczos", "dense"])
    def test_generalized_matrix(self, method):
        w = random_graph_weights(np.random.default_rng(1), 6)
        d = w.sum(axis=1)
        w[0, 1] = w[1, 0] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(w, d, 2, method=method)

    @pytest.mark.parametrize("method", ["lanczos", "dense"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generalized_degrees(self, method, bad):
        w = random_graph_weights(np.random.default_rng(2), 6)
        d = w.sum(axis=1)
        d[4] = bad
        with pytest.raises(ConfigError, match="node 4"):
            generalized_smallest_eigs(w, d, 2, method=method)

    # operators are not inspected up front; a non-finite product used to
    # escape from eigh_tridiagonal as a raw ValueError
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetric_operator(self, bad):
        op = SymmetricOperator(lambda x: bad * x, 5)
        with pytest.raises(ConfigError, match="non-finite"):
            symmetric_smallest_eigs(op, 2)

    def test_symmetric_operator_fails_mid_run(self):
        a = random_symmetric(np.random.default_rng(3), 40)
        calls = []

        def matvec(x):
            calls.append(1)
            y = a @ x
            if len(calls) == 7:
                y[0] = np.nan
            return y

        with pytest.raises(ConfigError, match="non-finite"):
            symmetric_smallest_eigs(SymmetricOperator(matvec, 40), 3)

    # the last product is the returned residual check; a NaN there used to
    # come back as a NaN residual, which passes every bound
    @pytest.mark.parametrize("generalized", [False, True])
    def test_last_product_non_finite(self, generalized):
        w = random_graph_weights(np.random.default_rng(4), 30)
        calls = []

        def matvec(x):
            calls.append(1)
            y = w @ x
            if len(calls) == last:
                y[0] = np.nan
            return y

        def solve():
            calls.clear()
            op = SymmetricOperator(matvec, 30)
            if generalized:
                return generalized_smallest_eigs(op, w.sum(axis=1), 3)
            return symmetric_smallest_eigs(op, 3)

        last = 0
        solve()
        last = len(calls)
        with pytest.raises(ConfigError, match="non-finite"):
            solve()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generalized_operator(self, bad):
        op = SymmetricOperator(lambda x: bad * x, 5)
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(op, np.ones(5), 2)


def connected_block(rng, size, density):
    """A random connected weighted graph: a random spanning tree plus random
    extra edges."""
    w = rng.uniform(0.01, 1.0, (size, size)) * (rng.uniform(size=(size, size)) < density)
    order = rng.permutation(size)
    for i in range(1, size):
        w[order[i], order[rng.integers(i)]] = rng.uniform(0.01, 1.0)
    w = np.triu(w + w.T, 1)
    return w + w.T


@st.composite
def weighted_graphs(draw):
    """One to four random connected components of 3-40 nodes, plus up to
    three exact copies of the first one (so up to four copies in all), joined
    by no edges, by edges too weak to matter (1e-18) or by weak ones (1e-12,
    1e-9) that split repeated eigenvalues into clusters; also draws k and a
    node permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(3, 40), min_size=1, max_size=4))
    density = draw(st.floats(0.0, 1.0))
    blocks = [connected_block(rng, size, density) for size in sizes]
    blocks += [blocks[0]] * draw(st.integers(0, 3))
    w = block_diag(*blocks)
    labels = np.repeat(np.arange(len(blocks)), [b.shape[0] for b in blocks])
    w[labels[:, None] != labels[None, :]] = draw(
        st.sampled_from([0.0, 1e-18, 1e-12, 1e-9]))
    k = draw(st.integers(1, w.shape[0]))
    return w, k, rng.permutation(w.shape[0])


def oracle_mismatch(pairs, w, d, k) -> str | None:
    """How the default solve ``pairs`` of graph ``w`` at k departs from the
    dense oracle: an eigenvalue off by more than 1e-8, or eigenvectors not
    D-orthonormal within 1e-8. None when it does not."""
    oracle = generalized_smallest_eigs(w, d, k, method="dense")
    gap = float(np.abs(pairs.values - oracle.values).max())
    gram = pairs.vectors.T @ (d[:, None] * pairs.vectors)
    loss = float(np.abs(gram - np.eye(k)).max())
    if gap > 1e-8 or loss > 1e-8:
        return f"eigenvalue error {gap:.3g}, D-orthonormality error {loss:.3g}"
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_default_solver_matches_dense_oracle(graph):
    w, k, perm = graph
    d = w.sum(axis=1)
    pairs = generalized_smallest_eigs(w, d, k)
    assert oracle_mismatch(pairs, w, d, k) is None
    permuted = generalized_smallest_eigs(w[np.ix_(perm, perm)], d[perm], k)
    assert np.abs(permuted.values - pairs.values).max() <= 1e-8


@st.composite
def symmetric_copies(draw):
    """Block-diagonal copies (1 to 4) of one random symmetric matrix of 2-30
    rows, so every eigenvalue repeats once per copy; also draws k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_symmetric(rng, draw(st.integers(2, 30)))
    b = block_diag(*[a] * draw(st.integers(1, 4)))
    return b, draw(st.integers(1, b.shape[0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(symmetric_copies())
def test_symmetric_copies_match_dense_oracle(problem):
    b, k = problem
    pairs = symmetric_smallest_eigs(b, k)
    oracle = symmetric_smallest_eigs(b, k, method="dense")
    assert np.abs(pairs.values - oracle.values).max() <= 1e-8
    assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(k)).max() <= 1e-8
