import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from specmix import (ConfigError, ConvergenceError, SpecMixConfig,
                     StackedEncoder, SyntheticParams, base_similarity,
                     build_bipartite_reduction, eigen,
                     generalized_smallest_eigs, generate_synthetic, specmix)
from specmix.pipelines import specmix_graph


class Operator:
    """The graph protocol the solver accepts: ``matvec`` and ``degrees``."""

    def __init__(self, matvec, degrees):
        self.matvec, self.degrees = matvec, degrees


def lanczos_core(a, k, seed=0):
    """(values, vectors, columns) of the Lanczos core on the symmetric matrix
    or operator ``a``: orthonormal vectors, without the sign convention."""
    matvec, degrees = eigen._as_operator(a)
    return eigen._lanczos_smallest(matvec, degrees.size, k, seed)


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def random_graph_weights(rng, dim):
    w = rng.uniform(0.0, 1.0, (dim, dim))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def dense_oracle(a, degrees=None):
    """The whole spectrum by LAPACK, values ascending: ``eigh`` of the
    symmetric ``a``, or with ``degrees`` d of D^-1/2 (D - W) D^-1/2 for
    W = ``a``, its eigenvectors mapped back by D^-1/2 so that they are
    D-orthonormal."""
    if degrees is None:
        return np.linalg.eigh(a)
    dinv = 1.0 / np.sqrt(degrees)
    lsym = np.eye(dinv.size) - a * dinv[:, None] * dinv[None, :]
    values, vectors = np.linalg.eigh(0.5 * (lsym + lsym.T))
    return values, dinv[:, None] * vectors


def subspace_sine(a, b):
    """Largest principal-angle sine between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)[0]


class TestSymmetric:
    def test_identity_spectrum(self):
        values, _, _ = lanczos_core(np.eye(4), 2)
        assert np.allclose(values, [1.0, 1.0])

    def test_diagonal_matrix(self):
        values, vectors, _ = lanczos_core(np.diag([3.0, 1.0, 2.0]), 2)
        assert np.allclose(values, [1.0, 2.0])
        assert np.allclose(np.abs(vectors[:, 0]), [0, 1, 0])
        assert np.allclose(np.abs(vectors[:, 1]), [0, 0, 1])

    def test_residuals_random(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 20)
        values, vectors, _ = lanczos_core(a, 5)
        scale = max(1.0, np.abs(values).max())
        for i in range(5):
            res = np.linalg.norm(a @ vectors[:, i] - values[i] * vectors[:, i])
            assert res <= 1e-8 * scale
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ConfigError):
            lanczos_core(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_k_too_large(self):
        with pytest.raises(ConfigError):
            lanczos_core(np.eye(3), 4)

    def test_lanczos_matches_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_symmetric(rng, 50)
            values, _, _ = lanczos_core(a, 6)
            assert np.abs(dense_oracle(a)[0][:6] - values).max() <= 1e-8

    def test_operator_form(self):
        rng = np.random.default_rng(2)
        a = random_symmetric(rng, 40)
        op = Operator(lambda x: a @ x, np.ones(40))
        values, _, _ = lanczos_core(op, 3)
        assert np.abs(values - dense_oracle(a)[0][:3]).max() <= 1e-8


class TestGeneralized:
    def test_complete_graph_three_nodes(self):
        w = np.ones((3, 3)) - np.eye(3)
        pairs = generalized_smallest_eigs(w, 3)
        assert np.allclose(pairs.values, [0.0, 1.5, 1.5], atol=1e-10)

    def test_connected_graph_null_vector(self):
        rng = np.random.default_rng(3)
        w = random_graph_weights(rng, 12)
        pairs = generalized_smallest_eigs(w, 3)
        assert abs(pairs.values[0]) <= 1e-10
        v0 = pairs.vectors[:, 0]
        assert np.abs(v0 - v0.mean()).max() <= 1e-8 * abs(v0.mean())

    def test_residual_oracle(self):
        rng = np.random.default_rng(4)
        w = random_graph_weights(rng, 25)
        d = w.sum(axis=1)
        pairs = generalized_smallest_eigs(w, 6)
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
            pairs = generalized_smallest_eigs(w, 15)
            assert pairs.values.min() >= -1e-10
            assert pairs.values.max() <= 2.0 + 1e-10
            gram = pairs.vectors.T @ (d[:, None] * pairs.vectors)
            assert np.abs(gram - np.eye(15)).max() <= 1e-8

    def test_zero_degree_rejected(self):
        w = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            generalized_smallest_eigs(w, 1)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ConfigError, match="square matrix"):
            generalized_smallest_eigs(np.ones((3, 4)), 1)

    def test_non_symmetric_operator_fails_the_residual_check(self):
        # an operator is not checked for symmetry; its Ritz pairs are not
        # eigenpairs, and the residual check says so
        w = np.random.default_rng(7).uniform(0.0, 1.0, (12, 12))
        with pytest.raises(ConvergenceError, match="residual"):
            generalized_smallest_eigs(Operator(lambda x: w @ x, w.sum(axis=1)), 3)

    def test_deterministic_with_sign_convention(self):
        rng = np.random.default_rng(6)
        w = random_graph_weights(rng, 18)
        a = generalized_smallest_eigs(w, 4)
        b = generalized_smallest_eigs(w, 4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_agrees_with_full_dense_decomposition(self):
        # brute-force oracle: full symmetric-reduction spectrum via eigh
        rng = np.random.default_rng(7)
        for dim in (10, 30, 50):
            w = random_graph_weights(rng, dim)
            d = w.sum(axis=1)
            k = 4
            pairs = generalized_smallest_eigs(w, k)
            ref_vals, ref_vecs = dense_oracle(w, d)
            assert np.abs(pairs.values - ref_vals[:k]).max() <= 1e-8
            gap = ref_vals[k] - ref_vals[k - 1]
            if gap > 1e-6:
                scale = np.sqrt(d)[:, None]
                assert subspace_sine(scale * ref_vecs[:, :k],
                                     scale * pairs.vectors) <= 1e-6

    def test_lanczos_path_on_operator(self):
        rng = np.random.default_rng(8)
        w = random_graph_weights(rng, 60)
        d = w.sum(axis=1)
        op = Operator(lambda x: w @ x, d)
        lanczos = generalized_smallest_eigs(op, 5)
        assert np.abs(dense_oracle(w, d)[0][:5] - lanczos.values).max() <= 1e-8

    def test_default_matches_dense_at_dim_2100(self):
        rng = np.random.default_rng(9)
        dim = 2100
        w = random_graph_weights(rng, dim)
        d = w.sum(axis=1)
        default = generalized_smallest_eigs(w, 2)
        assert np.abs(default.values - dense_oracle(w, d)[0][:2]).max() <= 1e-8


class TestRepeatedEigenvalues:
    @pytest.mark.parametrize("link", [0.0, 1e-18])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_twin_components_match_dense(self, k, link):
        # two identical components: with link = 0 every eigenvalue is doubled
        c = connected_block(np.random.default_rng(0), 46, 1.0)
        w = np.block([[c, np.full_like(c, link)], [np.full_like(c, link), c]])
        d = w.sum(axis=1)
        pairs = generalized_smallest_eigs(w, k)
        assert np.abs(pairs.values - dense_oracle(w, d)[0][:k]).max() <= 1e-8

    def test_one_null_vector_per_component(self):
        # four disconnected clusters: mu = 0 four times, and the eigenvectors
        # span the four component indicators
        rng = np.random.default_rng(1)
        sizes = [12, 20, 9, 15]
        w = block_diag(*[random_graph_weights(rng, s) for s in sizes])
        pairs = generalized_smallest_eigs(w, 4)
        assert np.abs(pairs.values).max() <= 1e-10
        labels = np.repeat(np.arange(4), sizes)
        indicators = (labels[:, None] == np.arange(4)).astype(float)
        assert subspace_sine(indicators, pairs.vectors) <= 1e-8

    def test_clustered_eigenvalues_of_a_filled_basis(self):
        # two 3-node paths joined by edges of 1e-18: mu = 0, 1 and 2 twice
        # each. A band solver's inverse iteration (LAPACK sbevx) did not
        # converge on the band matrix of the filled basis and raised
        # LinAlgError
        w = np.full((6, 6), 1e-18)
        w[:3, :3] = [[0.0, 0.7674835508884524, 0.0],
                     [0.7674835508884524, 0.0, 0.5377452629845352],
                     [0.0, 0.5377452629845352, 0.0]]
        w[3:, 3:] = [[0.0, 0.0, 0.5420978021245769],
                     [0.0, 0.0, 0.5339158059052364],
                     [0.5420978021245769, 0.5339158059052364, 0.0]]
        pairs = generalized_smallest_eigs(w, 3)
        assert oracle_mismatch(pairs, w, w.sum(axis=1), 3) is None

    def test_repeated_values_past_the_start_block(self):
        # k=6 needs all five copies of 1 and one of 2: the basis fills the
        # 15-dimensional space after three blocks, and the last block
        # narrows to what is left of it
        values, vectors, _ = lanczos_core(np.diag(np.repeat([1.0, 2.0, 3.0], 5)), 6)
        assert np.abs(values - [1, 1, 1, 1, 1, 2]).max() <= 1e-8
        assert np.abs(vectors.T @ vectors - np.eye(6)).max() <= 1e-8

    def test_symmetric_block_copies(self):
        rng = np.random.default_rng(2)
        a = random_symmetric(rng, 30)
        b = block_diag(a, a, a)
        values, vectors, _ = lanczos_core(b, 7)
        assert np.abs(values - dense_oracle(b)[0][:7]).max() <= 1e-8
        assert np.abs(vectors.T @ vectors - np.eye(7)).max() <= 1e-8


class TestProducts:
    @staticmethod
    def counting(a, degrees, columns):
        def matvec(x):
            columns.append(1 if x.ndim == 1 else x.shape[1])
            return a @ x
        return Operator(matvec, degrees)

    # a symmetric matrix as the weights at unit degrees: the solve of I - A
    @pytest.mark.parametrize("k", [1, 4, 60])
    def test_symmetric_counts_every_column(self, k):
        a = random_symmetric(np.random.default_rng(10), 60)
        columns = []
        pairs = generalized_smallest_eigs(self.counting(a, np.ones(60), columns), k)
        assert pairs.products == sum(columns) >= 2 * k

    @pytest.mark.parametrize("k", [1, 3])
    def test_generalized_counts_every_column(self, k):
        w = random_graph_weights(np.random.default_rng(11), 50)
        d = w.sum(axis=1)
        columns = []
        pairs = generalized_smallest_eigs(self.counting(w, d, columns), k)
        assert pairs.products == sum(columns) >= 2 * k


class TestNonFiniteInput:
    # NaN fails every comparison, so these inputs used to reach
    # eigh_tridiagonal (ValueError) or LAPACK (LinAlgError); ``method`` names
    # the one solver, and keeps the test ids of the three matrix cases. A
    # dense matrix is refused before its row sums are read; the operator
    # cases carry unit degrees, or broken ones.
    @pytest.mark.parametrize("method", ["lanczos"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetric_matrix(self, method, bad):
        a = random_symmetric(np.random.default_rng(0), 6)
        a[2, 3] = a[3, 2] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(a, 2)

    @pytest.mark.parametrize("method", ["lanczos"])
    def test_generalized_matrix(self, method):
        w = random_graph_weights(np.random.default_rng(1), 6)
        w[0, 1] = w[1, 0] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(w, 2)

    @pytest.mark.parametrize("method", ["lanczos"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generalized_degrees(self, method, bad):
        w = random_graph_weights(np.random.default_rng(2), 6)
        d = w.sum(axis=1)
        d[4] = bad
        with pytest.raises(ConfigError, match="node 4"):
            generalized_smallest_eigs(Operator(lambda x: w @ x, d), 2)

    # operators are not inspected up front; a non-finite product used to
    # escape from eigh_tridiagonal as a raw ValueError
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetric_operator(self, bad):
        op = Operator(lambda x: bad * x, np.ones(5))
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(op, 2)

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
            generalized_smallest_eigs(Operator(matvec, np.ones(40)), 3)

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
            op = Operator(matvec, w.sum(axis=1) if generalized else np.ones(30))
            return generalized_smallest_eigs(op, 3)

        last = 0
        solve()
        last = len(calls)
        with pytest.raises(ConfigError, match="non-finite"):
            solve()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generalized_operator(self, bad):
        op = Operator(lambda x: bad * x, np.ones(5))
        with pytest.raises(ConfigError, match="non-finite"):
            generalized_smallest_eigs(op, 2)


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
    """How the solve ``pairs`` of graph ``w`` at k departs from the dense
    oracle: an eigenvalue off by more than 1e-8, or eigenvectors not
    D-orthonormal within 1e-8. None when it does not."""
    gap = float(np.abs(pairs.values - dense_oracle(w, d)[0][:k]).max())
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
    pairs = generalized_smallest_eigs(w, k)
    assert oracle_mismatch(pairs, w, d, k) is None
    permuted = generalized_smallest_eigs(w[np.ix_(perm, perm)], k)
    assert np.abs(permuted.values - pairs.values).max() <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_a_matrix_solves_as_the_operator_of_its_row_sums(graph):
    # a dense matrix's degrees are its row sums: the same solve, bit for
    # bit, as an operator that carries them
    w, k, _ = graph
    dense = generalized_smallest_eigs(w, k)
    op = generalized_smallest_eigs(Operator(lambda x: w @ x, w.sum(axis=1)), k)
    for field in ("values", "vectors", "residuals"):
        assert np.array_equal(getattr(dense, field), getattr(op, field))
    assert dense.products == op.products


@st.composite
def bipartite_reductions(draw):
    """The t x t reduction that ``transfer_cut`` solves, of random codes: 1-4
    variables, with rows in 1-4 groups whose categories never co-occur, so
    the reduced graph has one component per group. Groups after the first
    are drawn afresh or are exact copies of it, which repeats every
    eigenvalue. Also draws the lambdas and k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 4))
    copies = draw(st.booleans())
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        if copies and groups:
            groups.append(groups[0])
            continue
        cards = rng.integers(1, 7, q)
        rows = int(cards.max()) + int(rng.integers(0, 30))
        groups.append((np.column_stack([rng.permutation(np.concatenate(
            [np.arange(c), rng.integers(0, c, rows - c)])) for c in cards]), cards))
    offsets = np.cumsum([np.zeros(q, dtype=np.int64)] + [c for _, c in groups], axis=0)
    codes = np.concatenate([g + o for (g, _), o in zip(groups, offsets)])
    lams = draw(st.sampled_from([np.ones(q), rng.uniform(0.1, 5.0, q)]))
    w, d = build_bipartite_reduction(StackedEncoder(codes, offsets[-1], lams))
    return w, d, draw(st.integers(1, d.size))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bipartite_reductions())
def test_bipartite_reductions_match_dense_oracle(problem):
    w, d, k = problem
    assert oracle_mismatch(generalized_smallest_eigs(w, k), w, d, k) is None


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
    values, vectors, _ = lanczos_core(b, k)
    assert np.abs(values - dense_oracle(b)[0][:k]).max() <= 1e-8
    assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-8


class TestCheckSchedule:
    """The convergence checks of the Lanczos solver, seen as the basis width
    of each eigensolve of its block tridiagonal T (``_smallest``): one at
    least every max(10, end/8) new columns, none once the basis holds 4/5 of
    the space, and the exact solve of a filled basis."""

    @staticmethod
    def record_widths(monkeypatch) -> list:
        widths, solve = [], eigen._smallest

        def recording(t, k):
            widths.append(t.shape[1])
            return solve(t, k)

        monkeypatch.setattr(eigen, "_smallest", recording)
        return widths

    def test_no_check_past_four_fifths_of_a_filled_basis(self, monkeypatch):
        # eight clusters that overlap at sigma = 1: eight eigenvalues close to
        # 0, and the basis fills all 200 columns
        ds, _ = generate_synthetic(SyntheticParams(n=200, k=8, q=3, sigma=1.0,
                                                   p=0.25, seed=1))
        graph = base_similarity(ds)
        widths = self.record_widths(monkeypatch)
        pairs = generalized_smallest_eigs(graph, 8)
        assert all(5 * end < 4 * graph.n for end in widths[:-1])
        assert widths[-1] == graph.n
        assert widths[:-1] == [16, 32, 48, 64, 80, 96, 112, 128, 152]
        assert oracle_mismatch(pairs, graph.matvec(np.eye(graph.n)), graph.degrees, 8) is None

    def test_a_converging_solve_keeps_its_checks(self, monkeypatch):
        # of 512 columns, a one-panel graph, and of 2012, a two-panel one
        widths = self.record_widths(monkeypatch)
        for n, checks in [(500, [12, 24, 36, 48, 60]),
                          (2000, [12, 24, 36, 48, 60, 72, 84])]:
            ds, _ = generate_synthetic(SyntheticParams(n=n, k=4, q=3, sigma=1.0,
                                                       p=0.25, seed=1))
            widths.clear()
            specmix(ds, SpecMixConfig(k=4, lambdas=10.0))
            assert widths == checks, n

    def test_a_converging_solve_verifies_once(self, monkeypatch):
        # the problem above: the basis columns and one verification product
        # of k columns, so a check applies no product of its own
        ds, _ = generate_synthetic(SyntheticParams(n=500, k=4, q=3, sigma=1.0,
                                                   p=0.25, seed=1))
        graph = specmix_graph(ds, SpecMixConfig(k=4, lambdas=10.0))
        widths = self.record_widths(monkeypatch)
        pairs = generalized_smallest_eigs(graph, 4)
        assert widths[-1] < graph.dim
        assert pairs.products == widths[-1] + 4
