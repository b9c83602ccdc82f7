import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmix import (ClusteringResult, ConfigError, DataError, MixedDataset,
                     SpecMixConfig, SpectralGapError, StackedEncoder, SyntheticParams,
                     base_similarity, build_bipartite_reduction, build_stacked,
                     generalized_smallest_eigs, generate_synthetic,
                     label_agreement, numeric_spectral, onlycat, purity,
                     specmix, transfer_cut)
from specmix.pipelines import specmix_graph
from specmix.sweep import METHODS


def categorical_dataset(rng, n, cards):
    cats = np.column_stack([
        np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        for c in cards])
    return MixedDataset(np.empty((n, 0)), cats, tuple(cards))


def dense_bipartite(stacked):
    """Oracle: the explicit bipartite graph, without extra-node self-loops."""
    h = stacked.dense()
    n, t = h.shape
    w = np.zeros((n + t, n + t))
    w[:n, n:] = h
    w[n:, :n] = h.T
    return w, w.sum(axis=1)


class TestStackedEncoder:
    def test_row_sums_constant(self):
        rng = np.random.default_rng(0)
        ds = categorical_dataset(rng, 20, [3, 2])
        stacked = build_stacked(ds, [2.0, 0.5])
        assert np.allclose(stacked.dense().sum(axis=1), 2.5)
        assert stacked.lam_total == 2.5

    def test_column_sums(self):
        rng = np.random.default_rng(1)
        ds = categorical_dataset(rng, 20, [3, 2])
        stacked = StackedEncoder(ds.categorical, ds.cardinalities, [2.0, 0.5])
        assert np.allclose(stacked.column_sums, stacked.dense().sum(axis=0))

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(2)
        ds = categorical_dataset(rng, 15, [4, 3, 2])
        stacked = StackedEncoder(ds.categorical, ds.cardinalities, [1.0, 3.0, 0.2])
        h = stacked.dense()
        u = rng.standard_normal(stacked.t)
        x = rng.standard_normal(stacked.n)
        assert np.allclose(stacked.apply(u), h @ u)
        assert np.allclose(stacked.apply_transpose(x), h.T @ x)


class TestBipartiteReduction:
    def test_single_variable_example(self):
        ds = MixedDataset(np.empty((3, 0)), np.array([[0], [0], [1]]), (2,))
        stacked = build_stacked(ds, [1.0])
        w_small, d_small = build_bipartite_reduction(stacked)
        assert np.allclose(w_small, [[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(d_small, [2.0, 1.0])
        assert stacked.lam_total == 1.0

    def test_reduced_degrees_are_bipartite_degrees(self):
        rng = np.random.default_rng(3)
        ds = categorical_dataset(rng, 30, [4, 3])
        stacked = build_stacked(ds, [2.0, 5.0])
        _, d_small = build_bipartite_reduction(stacked)
        assert np.allclose(d_small, stacked.column_sums)
        assert d_small.sum() == pytest.approx(30 * stacked.lam_total)

    def test_zero_count_category_rejected(self):
        # declared category 2 never occurs
        ds = MixedDataset(np.empty((3, 0)), np.array([[0], [0], [1]]), (3,))
        with pytest.raises(DataError):
            build_bipartite_reduction(build_stacked(ds, [1.0]))


def unused_category_dataset():
    """Two separated numeric clusters whose category column declares a third
    category that no datapoint takes."""
    rng = np.random.default_rng(9)
    truth = np.repeat([0, 1], 20)
    numeric = truth[:, None] * 3.0 + 0.3 * rng.standard_normal((40, 1))
    return MixedDataset(numeric, truth[:, None], (3,))


@pytest.mark.parametrize("pipeline", [specmix, onlycat])
def test_unused_category_rejected_by_both_pipelines(pipeline):
    # specmix used to return one cluster ([40, 0]) here without an error:
    # the unused category is an isolated node and adds a zero eigenvalue
    with pytest.raises(DataError, match="category column 2 has no datapoints"):
        pipeline(unused_category_dataset(), SpecMixConfig(k=2, lambdas=1.0))


def test_unused_category_ignored_at_zero_lambda():
    # a variable with lambda 0 is left out of the graph, empty category or not
    result = specmix(unused_category_dataset(), SpecMixConfig(k=2, lambdas=0.0))
    assert sorted(np.bincount(result.labels).tolist()) == [20, 20]


class TestTransferCut:
    def test_null_space_lift(self):
        rng = np.random.default_rng(4)
        ds = categorical_dataset(rng, 25, [3, 4])
        stacked = build_stacked(ds, [1.0, 2.0])
        pairs, embedding = transfer_cut(stacked, 2)
        assert pairs.values[0] == pytest.approx(0.0, abs=1e-10)
        col = embedding[:, 0]
        assert np.abs(col - col.mean()).max() <= 1e-8 * abs(col.mean())

    def test_lift_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(40, 151))
            ds = categorical_dataset(rng, n, [4, 3])
            stacked = StackedEncoder(ds.categorical, ds.cardinalities,
                                     list(rng.uniform(0.2, 5.0, 2)))
            k = 3
            pairs, _ = transfer_cut(stacked, k)
            w, d = dense_bipartite(stacked)
            lap = np.diag(d) - w
            vals = scipy.linalg.eigh(lap, np.diag(d), eigvals_only=True)
            assert np.abs(pairs.values - vals[:k]).max() <= 1e-7
            for i in range(k):
                v = pairs.vectors[:, i]
                res = np.linalg.norm(lap @ v - pairs.values[i] * d * v)
                assert res <= 1e-7
            assert pairs.residuals.max() <= 1e-7

    def test_mu_gamma_relation(self):
        # lifted values satisfy gamma = mu (2 - mu) against the reduced solve
        from specmix import generalized_smallest_eigs
        rng = np.random.default_rng(6)
        ds = categorical_dataset(rng, 60, [5, 4])
        stacked = build_stacked(ds, [1.5, 0.7])
        w_small, d_small = build_bipartite_reduction(stacked)
        gammas = generalized_smallest_eigs(w_small, d_small, 4).values
        mus = transfer_cut(stacked, 4)[0].values
        assert np.abs(mus * (2.0 - mus) - gammas).max() <= 1e-12

    def test_products_are_the_reduced_solve_plus_the_lift_residual(self):
        rng = np.random.default_rng(9)
        stacked = build_stacked(categorical_dataset(rng, 80, [6, 5, 4]),
                                [1.0, 2.0, 0.5])
        small = generalized_smallest_eigs(*build_bipartite_reduction(stacked), 4)
        assert transfer_cut(stacked, 4)[0].products == small.products + 4

    def test_k_above_categories_rejected(self):
        rng = np.random.default_rng(7)
        ds = categorical_dataset(rng, 20, [2, 2])
        with pytest.raises(ConfigError):
            transfer_cut(build_stacked(ds, [1.0, 1.0]), 5)

    def test_gap_failure_reported(self):
        # with Q=2 the stacked matrix has a one-dimensional kernel, so asking
        # for all t reduced pairs runs into gamma = 1
        rng = np.random.default_rng(8)
        ds = categorical_dataset(rng, 30, [2, 2])
        with pytest.raises(SpectralGapError):
            transfer_cut(build_stacked(ds, [1.0, 1.0]), 4)


class TestOnlyCat:
    def test_perfectly_separable(self):
        ds, truth = generate_synthetic(SyntheticParams(n=80, k=2, q=2,
                                                       sigma=5.0, p=0.0, seed=0))
        result = onlycat(ds, SpecMixConfig(k=2, lambdas=1.0, seed=0))
        assert purity(result.labels, truth) == 1.0

    def test_disjoint_category_groups(self):
        # Four row groups whose categories never co-occur: the reduced graph
        # has four components, so gamma = 0 is a fourfold eigenvalue, and a
        # single-vector Krylov solve can return fewer than four copies.
        rng = np.random.default_rng(3)
        n, per, groups = 1000, 12, 4
        t = groups * per
        group = np.concatenate([np.arange(t) // per,
                                rng.integers(0, groups, n - t)])
        cats = np.column_stack([
            np.concatenate([np.arange(t),
                            group[t:] * per + rng.integers(0, per, n - t)])
            for _ in range(2)])
        ds = MixedDataset(np.empty((n, 0)), cats, (t, t))
        result = onlycat(ds, SpecMixConfig(k=groups, lambdas=1.0, seed=0))
        assert label_agreement(result.labels, group) == 1.0

    def test_lambda_invariance(self):
        ds, _ = generate_synthetic(SyntheticParams(n=120, k=3, q=3,
                                                   sigma=0.0, p=0.3, seed=1))
        a = onlycat(ds, SpecMixConfig(k=3, lambdas=1.0, seed=1))
        b = onlycat(ds, SpecMixConfig(k=3, lambdas=7.0, seed=1))
        assert label_agreement(a.labels, b.labels) == 1.0

    def test_contract(self):
        ds, _ = generate_synthetic(SyntheticParams(n=50, k=2, q=2,
                                                   sigma=1.0, p=0.2, seed=2))
        result = onlycat(ds, SpecMixConfig(k=2, seed=2))
        assert result.labels.shape == (50,)
        assert set(result.labels.tolist()) <= {0, 1}
        assert result.method == "onlycat"
        assert set(result.timings) == {"graph", "eigen", "kmeans", "total"}

    def test_requires_categorical(self):
        ds = MixedDataset(np.random.default_rng(0).standard_normal((10, 2)),
                          np.empty((10, 0), dtype=int), ())
        with pytest.raises(ConfigError):
            onlycat(ds, SpecMixConfig(k=2))

    def test_requires_positive_lambda(self):
        ds, _ = generate_synthetic(SyntheticParams(n=20, k=2, q=1,
                                                   sigma=0.0, p=0.0, seed=3))
        with pytest.raises(ConfigError):
            onlycat(ds, SpecMixConfig(k=2, lambdas=0.0))


class TestSpecMix:
    def test_zero_lambda_is_numeric_spectral(self):
        for seed in range(3):
            ds, _ = generate_synthetic(SyntheticParams(n=60, k=2, q=3,
                                                       sigma=1.0, p=0.3, seed=seed))
            cfg = SpecMixConfig(k=2, lambdas=0.0, seed=seed)
            assert np.array_equal(specmix(ds, cfg).labels,
                                  numeric_spectral(ds, cfg).labels)

    def test_easy_regime_purity(self):
        scores = []
        for seed in range(10):
            ds, truth = generate_synthetic(SyntheticParams(
                n=200, k=2, q=3, sigma=0.1, p=0.0, seed=seed))
            result = specmix(ds, SpecMixConfig(k=2, lambdas=50.0, seed=seed))
            scores.append(purity(result.labels, truth))
        assert np.mean(scores) >= 0.99

    def test_contract(self):
        ds, _ = generate_synthetic(SyntheticParams(n=40, k=3, q=2,
                                                   sigma=0.5, p=0.1, seed=4))
        result = specmix(ds, SpecMixConfig(k=3, lambdas=5.0, seed=4))
        assert result.labels.shape == (40,)
        assert set(result.labels.tolist()) <= {0, 1, 2}
        assert result.embedding_rows_used == 40 + sum(ds.cardinalities)
        assert (result.eigenvalues >= -1e-10).all()
        assert (result.eigenvalues <= 2.0 + 1e-10).all()

    def test_large_lambda_matches_onlycat(self):
        for seed in range(3):
            ds, _ = generate_synthetic(SyntheticParams(
                n=200, k=2, q=3, sigma=2.0, p=0.0, seed=seed))
            a = specmix(ds, SpecMixConfig(k=2, lambdas=1e6, seed=seed))
            b = onlycat(ds, SpecMixConfig(k=2, lambdas=1.0, seed=seed))
            assert label_agreement(a.labels, b.labels) >= 0.95

    def test_partial_zero_lambdas_drop_variables(self):
        # a variable with lambda 0 contributes nothing: same labels as the
        # dataset without it
        ds, _ = generate_synthetic(SyntheticParams(n=50, k=2, q=2,
                                                   sigma=0.8, p=0.1, seed=5))
        trimmed = MixedDataset(ds.numeric, ds.categorical[:, :1],
                               ds.cardinalities[:1])
        a = specmix(ds, SpecMixConfig(k=2, lambdas=[3.0, 0.0], seed=5))
        b = specmix(trimmed, SpecMixConfig(k=2, lambdas=[3.0], seed=5))
        assert np.array_equal(a.labels, b.labels)

    def test_deterministic_given_seed(self):
        ds, _ = generate_synthetic(SyntheticParams(n=60, k=2, q=2,
                                                   sigma=0.7, p=0.2, seed=8))
        cfg = SpecMixConfig(k=2, lambdas=10.0, seed=8)
        assert np.array_equal(specmix(ds, cfg).labels, specmix(ds, cfg).labels)
        assert np.array_equal(onlycat(ds, cfg).labels, onlycat(ds, cfg).labels)

    def test_requires_numeric(self):
        ds = MixedDataset(np.empty((10, 0)),
                          np.zeros((10, 1), dtype=int), (1,))
        with pytest.raises(ConfigError, match="onlycat"):
            specmix(ds, SpecMixConfig(k=2))

    def test_k_above_n_rejected(self):
        ds, _ = generate_synthetic(SyntheticParams(n=4, k=2, q=1,
                                                   sigma=0.0, p=0.0, seed=6))
        with pytest.raises(ConfigError):
            specmix(ds, SpecMixConfig(k=5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SpecMixConfig(k=1)
        cfg = SpecMixConfig(k=2, lambdas=[1.0, 2.0])
        with pytest.raises(ConfigError):
            cfg.resolve_lambdas(3)
        with pytest.raises(ConfigError):
            SpecMixConfig(k=2, lambdas=-1.0).resolve_lambdas(1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, [1.0, np.nan], "abc", ["x", 1.0]])
    def test_non_finite_lambda_rejected(self, lam):
        # nan used to pass the sign check and cluster without an error, and
        # a string escaped as a raw ValueError
        with pytest.raises(ConfigError, match="finite"):
            SpecMixConfig(k=2, lambdas=lam).resolve_lambdas(2)

    @pytest.mark.parametrize("value", [{"restarts": 3}, None, 3])
    def test_kmeans_settings_must_be_a_kmeans_config(self, value):
        # such a value used to build, and the pipeline then failed with a raw
        # TypeError from dataclasses.replace
        with pytest.raises(ConfigError, match="KMeansConfig"):
            SpecMixConfig(k=2, kmeans=value)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def edge_weights(draw):
    """(q, lambdas, bad): a categorical variable count from 0 to 3 and
    lambdas, one value or a list or tuple of q values; ``bad`` when a value
    is negative, NaN, infinite or a string, and then a sequence holds one
    bad value besides its q good ones."""
    q = draw(st.integers(0, 3))
    good = st.floats(0.0, 100.0) | st.integers(0, 100)
    bad_value = (st.floats(max_value=-1e-300) | st.sampled_from([np.nan, np.inf, -np.inf])
                 | st.text("abcxyz ", max_size=4))
    bad = draw(st.booleans())
    if draw(st.booleans()):
        return q, draw(bad_value if bad else good), bad
    values = draw(st.lists(good, min_size=q, max_size=q))
    if bad:
        values.insert(draw(st.integers(0, q)), draw(bad_value))
    return q, draw(st.sampled_from([list, tuple]))(values), bad


@settings(max_examples=40, deadline=None, derandomize=True)
@given(edge_weights())
@example((0, -1.0, True))
@example((0, float("nan"), True))
def test_edge_weights_checked_when_the_config_is_built(case):
    # Q = 0 uses no lambda, so only the check when the config is built
    # can refuse -1 or nan there
    q, lambdas, bad = case
    if bad:
        with pytest.raises(ConfigError):
            SpecMixConfig(k=2, lambdas=lambdas)
        return
    ds, _ = generate_synthetic(SyntheticParams(n=40, k=2, q=q, sigma=0.3, p=0.0))
    text = specmix(ds, SpecMixConfig(k=2, lambdas=lambdas)).to_json()
    echoed = json.loads(text, parse_constant=_refuse_constant)["config"]["lambdas"]
    assert echoed == (list(map(float, lambdas)) if isinstance(lambdas, (list, tuple))
                      else float(lambdas))


def test_eight_cluster_solves_pass_residual_gate():
    # Regression: the sign convention once negated column views of the
    # (rows, 8) eigenvector array in place, which corrupted other entries
    # and failed every K=8 solve with ConvergenceError.
    ds, truth = generate_synthetic(SyntheticParams(n=500, k=8, q=3, sigma=0.5,
                                                   p=0.25, seed=0))
    cat = onlycat(ds, SpecMixConfig(k=8, lambdas=1.0, seed=0))
    mixed = specmix(ds, SpecMixConfig(k=8, lambdas=10.0, seed=0))
    assert purity(cat.labels, truth) > 0.85
    assert purity(mixed.labels, truth) > 0.85


@pytest.mark.parametrize("pipeline", ["numeric_spectral", "specmix_zero_lambda"])
def test_far_apart_clusters_each_get_a_cluster(pipeline):
    # Clusters 7 units apart: cross weights exp(-49) ~ 5e-22, so mu = 0 is
    # repeated to working precision, once per cluster, and one Krylov
    # sequence alone sees a single copy of it.
    rng = np.random.default_rng(0)
    truth = np.repeat(np.arange(4), 25)
    x = 0.3 * rng.standard_normal((100, 2))
    x[:, 0] += 7.0 * truth
    ds = MixedDataset(x, rng.integers(0, 3, (100, 1)), (3,))
    if pipeline == "numeric_spectral":
        result = numeric_spectral(ds, SpecMixConfig(k=4, seed=0))
    else:
        result = specmix(ds, SpecMixConfig(k=4, lambdas=0.0, seed=0))
    assert np.allclose(result.eigenvalues, 0.0, atol=1e-10)
    assert label_agreement(result.labels, truth) == 1.0


class TestResultSerialization:
    def test_round_trip(self):
        ds, _ = generate_synthetic(SyntheticParams(n=30, k=2, q=2,
                                                   sigma=0.5, p=0.1, seed=7))
        result = specmix(ds, SpecMixConfig(k=2, lambdas=2.0, seed=7))
        restored = ClusteringResult.from_json(result.to_json())
        assert np.array_equal(restored.labels, result.labels)
        assert np.allclose(restored.eigenvalues, result.eigenvalues)
        assert restored.method == "specmix"
        assert restored.seed == 7
        assert restored.config == result.config

    def test_version_check(self):
        with pytest.raises(DataError):
            ClusteringResult.from_json('{"version": 99}')

    @pytest.mark.parametrize("name, value", [
        ("labels", None), ("eigenvalues", None), ("embedding_rows_used", None),
        ("timings", None), ("config", None), ("seed", None), ("method", None),
        ("labels", [0.5, 1]), ("labels", [True, False]), ("labels", [[0], [1]]),
        ("labels", [[0], [1, 2]]), ("labels", "01"), ("eigenvalues", ["0.1"]),
        ("embedding_rows_used", 4.0), ("seed", "7"), ("method", 3),
        ("timings", []), ("config", []), ("max_residual", "0"),
        ("version", None), ("version", True), ("labels", [2 ** 63]),
        ("labels", [-2 ** 63 - 1]),
        # to_json used to raise a raw ValueError or TypeError on these, or to
        # write True back as 1.0, or NaN, which is not JSON
        ("timings", {"total": "x"}), ("timings", {"total": None}),
        ("timings", {"total": [1]}), ("timings", {"total": True}),
        ("timings", {"total": float("nan")}), ("eigenvalues", [0.0, float("nan")]),
        ("eigenvalues", [float("inf")]), ("max_residual", float("nan")),
        ("max_residual", float("-inf")), ("max_residual", -1.0),
        pytest.param("max_residual", 10 ** 400, id="max_residual-10**400"),
        ("seed", -1), ("seed", 2 ** 64), ("embedding_rows_used", -1),
    ])
    def test_malformed_field_is_data_error(self, name, value):
        doc = json.loads(ClusteringResult(
            labels=np.array([0, 1]), eigenvalues=np.array([0.0, 0.5]),
            embedding_rows_used=2, timings={}, config={}, seed=0,
            method="onlycat").to_json())
        if value is None:
            del doc[name]
        else:
            doc[name] = value
        with pytest.raises(DataError, match=repr(name)):
            ClusteringResult.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["", '{"version": 1, "labels": [0,', "[1]"])
    def test_malformed_json_is_data_error(self, text):
        with pytest.raises(DataError, match="result"):
            ClusteringResult.from_json(text)

    def test_empty_labels_round_trip(self):
        result = ClusteringResult(
            labels=np.array([], dtype=np.int64), eigenvalues=np.array([]),
            embedding_rows_used=0, timings={}, config={}, seed=0,
            method="specmix")
        text = result.to_json()
        assert '"labels": [],' in text
        assert ClusteringResult.from_json(text).to_json() == text

    def test_to_json_bytes_pinned(self):
        result = ClusteringResult(
            labels=np.array([1, 0, 2, 0], dtype=np.int64),
            eigenvalues=np.array([0.0, 1e-17, 0.1, 2.5]),
            embedding_rows_used=4, timings={"total": 0.25},
            config={"k": 3, "lambdas": 1.5}, seed=7, method="specmix",
            max_residual=3e-12)
        assert result.to_json() == (
            '{\n  "config": {\n    "k": 3,\n    "lambdas": 1.5\n  },\n'
            '  "eigenvalues": [\n    0.0,\n    1e-17,\n    0.1,\n    2.5\n  ],\n'
            '  "embedding_rows_used": 4,\n'
            '  "labels": [\n    1,\n    0,\n    2,\n    0\n  ],\n'
            '  "max_residual": 3e-12,\n  "method": "specmix",\n  "seed": 7,\n'
            '  "timings": {\n    "total": 0.25\n  },\n  "version": 1\n}')


@st.composite
def mixed_problems(draw):
    """A small synthetic mixed dataset and the cluster count it was drawn
    with."""
    k = draw(st.integers(2, 4))
    params = SyntheticParams(n=draw(st.integers(6 * k, 60)), k=k,
                             q=draw(st.integers(1, 3)),
                             sigma=draw(st.sampled_from([0.3, 0.7, 1.5])),
                             p=draw(st.sampled_from([0.0, 0.25])),
                             seed=draw(st.integers(0, 1000)))
    return generate_synthetic(params)[0], k


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mixed_problems(), st.integers(0, 1000))
def test_zero_lambdas_reduce_to_numeric_spectral(problem, seed):
    ds, k = problem
    cfg = SpecMixConfig(k=k, lambdas=0.0, seed=seed)
    a, b = specmix(ds, cfg), numeric_spectral(ds, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mixed_problems(), st.sampled_from([0.0, 0.5, 5.0, 50.0]),
       st.booleans(), st.integers(0, 1000))
def test_pipeline_eigenvectors_are_d_orthonormal(problem, lam, augmented, seed):
    ds, k = problem
    graph = (specmix_graph(ds, SpecMixConfig(k=k, lambdas=lam)) if augmented
             else base_similarity(ds))
    pairs = generalized_smallest_eigs(graph, graph.degrees, k, seed=seed)
    v = pairs.vectors
    assert np.abs(v.T @ (graph.degrees[:, None] * v) - np.eye(k)).max() <= 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mixed_problems(), st.sampled_from([0.5, 5.0, 50.0]), st.integers(0, 1000))
def test_row_permutation_equivariance(problem, lam, seed):
    """Permuting the datapoints permutes ``transfer_cut``'s embedding rows
    bitwise and leaves its eigenvalues bitwise equal; ``specmix``'s
    eigenvalues agree to rounding. Labels are not compared: the K-means
    draws depend on the row order."""
    ds, k = problem
    perm = np.random.default_rng(seed).permutation(ds.n)
    shuffled = MixedDataset(ds.numeric[perm], ds.categorical[perm], ds.cardinalities)
    lams = [lam] * ds.num_categorical
    pairs, embedding = transfer_cut(
        StackedEncoder(ds.categorical, ds.cardinalities, lams), k)
    pairs_p, embedding_p = transfer_cut(
        StackedEncoder(shuffled.categorical, shuffled.cardinalities, lams), k)
    assert np.array_equal(pairs_p.values, pairs.values)
    assert np.array_equal(embedding_p, embedding[perm])

    cfg = SpecMixConfig(k=k, lambdas=lam, seed=seed)
    values = specmix(ds, cfg).eigenvalues
    assert np.abs(specmix(shuffled, cfg).eigenvalues - values).max() <= 1e-12


@st.composite
def results(draw, method):
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 3000))
    # from_json accepts negative labels and labels beyond 32 bits
    low = draw(st.sampled_from([0, -10, 2**31 - 5, -2**40, 2**62]))
    labels = low + np.random.default_rng(draw(st.integers(0, 1000))).integers(
        0, draw(st.integers(1, 20)), n)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return ClusteringResult(
        labels=labels,
        eigenvalues=np.array(draw(st.lists(finite, max_size=6)), dtype=np.float64),
        embedding_rows_used=draw(st.integers(0, 10**6)),
        timings=draw(st.dictionaries(st.sampled_from(["graph", "eigen", "total"]),
                                     finite)),
        # a nested "labels" key and strings with newlines must stay as dumped
        config=draw(st.dictionaries(
            st.sampled_from(["k", "labels", "lambdas", "seed"]),
            st.one_of(st.integers(), st.text(max_size=6),
                      st.lists(st.integers(), max_size=3)))),
        seed=draw(st.integers(0, 2**64 - 1)),
        method=method,
        max_residual=draw(finite))


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_to_json_matches_json_dumps(method, data):
    result = data.draw(results(method))
    doc = {
        "version": 1, "method": result.method,
        "labels": [int(v) for v in result.labels],
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "embedding_rows_used": result.embedding_rows_used,
        "timings": {k: float(v) for k, v in result.timings.items()},
        "config": result.config, "seed": result.seed,
        "max_residual": float(result.max_residual),
    }
    assert result.to_json() == json.dumps(doc, indent=2, sort_keys=True)
