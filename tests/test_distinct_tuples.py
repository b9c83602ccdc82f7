"""``onlycat`` on distinct category tuples: pinned labels, and labels equal
to K-means on the full embedding of the uncompressed encoder."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmix import (ConfigError, DataError, KMeansConfig, MixedDataset, SpecMixConfig,
                     SpecmixError, SpectralGapError, StackedEncoder, SyntheticParams,
                     assemble_augmented, base_similarity, build_stacked,
                     generate_synthetic, kmeans, onlycat, transfer_cut)
from specmix.pipelines import distinct_tuples


def labels_digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


# recorded before onlycat ran on distinct tuples; any change to the
# arithmetic or the K-means draws moves these bits
@pytest.mark.parametrize("n, k, q, p, normalize, digest", [
    # heavily duplicated: 64 distinct tuples
    (20000, 4, 3, 0.25, False, "121258752309520c6a1fd98448f8572ca070d35d25ad8ba2a14845dc0e34af74"),
    (20000, 4, 3, 0.25, True, "1c1d8163875a6e19683d197ffcc3f61e3158e08bb51f38d83ecb00c8f3c8ba3a"),
    # mostly distinct: 5344 tuples in 6000 rows
    (6000, 16, 8, 0.3, False, "11d71273a22e763a493e92221e49d4f4a18b03f12644c05f62be167754bc53b8"),
    (6000, 16, 8, 0.3, True, "cb18b010a589dd7f974cf98407632e7790a10d571e08b686ba48804a25ae94ae"),
])
def test_golden_onlycat_labels(n, k, q, p, normalize, digest):
    ds, _ = generate_synthetic(SyntheticParams(n=n, k=k, q=q, sigma=1.0, p=p, seed=1))
    cfg = SpecMixConfig(k=k, lambdas=1.0, seed=1,
                        kmeans=KMeansConfig(normalize_rows=normalize))
    assert labels_digest(onlycat(ds, cfg).labels) == digest


@st.composite
def tuple_codes(draw):
    """Codes drawn from a pool of tuples, each used at least once, with
    every category used: 1-5 variables of 1-6 categories, or 20 variables of
    50 categories, whose cardinality product overflows int64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cards = [50] * 20
    else:
        cards = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    size = max(cards + [2]) + draw(st.integers(0, 2) | st.integers(0, 30))
    pool = np.column_stack([rng.permutation(np.concatenate(
        [np.arange(c), rng.integers(0, c, size - c)])) for c in cards])
    repeats = rng.integers(1, draw(st.sampled_from([2, 6, 40])), size)
    codes = rng.permutation(np.repeat(pool, repeats, axis=0))
    return codes, tuple(cards)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tuple_codes())
def test_distinct_tuples_in_order_of_first_appearance(problem):
    codes, cards = problem
    first, inverse = distinct_tuples(codes, cards)
    assert np.array_equal(codes[first][inverse], codes)
    assert (np.diff(first) > 0).all()
    assert np.array_equal(inverse[first], np.arange(first.size))
    assert first.size == np.unique(codes, axis=0).shape[0]


def test_distinct_tuples_dense_and_sorted_keys_agree():
    # 64 possible keys in 500 rows take the bincount path, 4^8 the sort
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 4, (500, 3))
    wide = np.column_stack([codes] + [np.zeros((500, 5), dtype=np.int64)])
    for a, b in zip(distinct_tuples(codes, (4,) * 3),
                    distinct_tuples(wide, (4,) * 8)):
        assert np.array_equal(a, b)


@st.composite
def onlycat_problems(draw):
    """Categorical data from ``tuple_codes`` with lambdas, a seed and a
    cluster count k: 2, or at or just below the tuple count (k = 2 may exceed
    it, and then both paths must refuse it)."""
    codes, cards = draw(tuple_codes())
    ds = MixedDataset(np.empty((codes.shape[0], 0)), codes, cards)
    tuples = np.unique(codes, axis=0).shape[0]
    k = draw(st.sampled_from([2, max(2, tuples - 1), max(2, tuples)]))
    lams = draw(st.sampled_from([1.0, tuple(np.linspace(0.5, 3.0, len(cards)))]))
    return ds, k, lams, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(onlycat_problems(), st.booleans())
def test_onlycat_labels_equal_kmeans_on_the_full_embedding(problem, normalize):
    ds, k, lams, seed = problem
    kcfg = KMeansConfig(normalize_rows=normalize, restarts=3)
    cfg = SpecMixConfig(k=k, lambdas=lams, kmeans=kcfg, seed=seed)
    full = StackedEncoder(ds.categorical, ds.cardinalities,
                          cfg.resolve_lambdas(ds.num_categorical))
    try:
        _, embedding = transfer_cut(full, k)
    except SpecmixError as exc:
        with pytest.raises(type(exc)):
            onlycat(ds, cfg)
        return
    expected, _, _ = kmeans(embedding, k, kcfg, seed=seed)
    assert np.array_equal(onlycat(ds, cfg).labels, expected)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tuple_codes(), st.integers(2, 4))
def test_transfer_cut_on_tuples_is_the_full_cut_once_per_tuple(problem, k):
    codes, cards = problem
    ds = MixedDataset(np.empty((codes.shape[0], 0)), codes, cards)
    lams = np.linspace(0.5, 2.0, len(cards))
    full = StackedEncoder(codes, cards, lams)
    tuples = build_stacked(ds, lams)
    assert tuples.n == full.n and tuples.rows == np.unique(codes, axis=0).shape[0]
    assert np.array_equal(tuples.cooccurrence(), full.cooccurrence())
    assert np.array_equal(tuples.column_sums, full.column_sums)
    try:
        pairs, embedding = transfer_cut(full, k)
    except SpecmixError as exc:
        with pytest.raises(type(exc)):
            transfer_cut(tuples, k)
        return
    pairs_u, embedding_u = transfer_cut(tuples, k)
    inverse = tuples.inverse
    assert np.array_equal(pairs_u.values, pairs.values)
    assert np.array_equal(embedding_u[inverse], embedding)
    assert np.array_equal(pairs_u.vectors[tuples.rows:], pairs.vectors[full.n:])
    assert np.allclose(pairs_u.residuals, pairs.residuals, rtol=0.0, atol=1e-12)


def test_encoder_products_on_tuples_weight_each_tuple_by_its_count():
    codes = np.array([[0, 1], [2, 0], [0, 1], [1, 1], [0, 1], [2, 0]])
    full = StackedEncoder(codes, (3, 2), [1.0, 2.5])
    first, inverse = distinct_tuples(codes, (3, 2))
    assert first.tolist() == [0, 1, 3] and inverse.tolist() == [0, 1, 0, 2, 0, 1]
    tuples = StackedEncoder(codes[first], (3, 2), [1.0, 2.5], inverse)
    assert tuples.counts.tolist() == [3, 2, 1] and tuples.n == 6 and tuples.rows == 3
    u = np.random.default_rng(0).standard_normal((5, 2))
    x = np.random.default_rng(1).standard_normal((3, 2))
    assert np.allclose(tuples.apply(u)[inverse], full.apply(u))
    assert np.allclose(tuples.apply_transpose(x), full.apply_transpose(x[inverse]))


def test_encoder_inverse_is_checked():
    codes = np.array([[0, 1], [1, 0]])
    with pytest.raises(DataError, match="tuple 1 has no datapoints"):
        StackedEncoder(codes, (2, 2), [1.0, 1.0], np.array([0, 0]))
    with pytest.raises(DataError, match="tuple inverse"):
        StackedEncoder(codes, (2, 2), [1.0, 1.0], np.array([0, 2]))
    with pytest.raises(DataError, match="1-D"):
        StackedEncoder(codes, (2, 2), [1.0, 1.0], np.array([[0, 1]]))


def test_augmented_graph_refuses_an_encoder_on_tuples():
    ds = MixedDataset(np.arange(4.0)[:, None], np.array([[0], [1], [0], [1]]), (2,))
    tuples = build_stacked(ds, [1.0])
    with pytest.raises(ConfigError, match="one encoder row per datapoint"):
        assemble_augmented(base_similarity(ds), tuples)


def test_fewer_tuples_than_k_is_a_gap_error():
    # two tuples cannot fill three clusters: gamma_3 is 1 on the reduced side
    codes = np.array([[0, 0], [1, 1]] * 10)
    ds = MixedDataset(np.empty((20, 0)), codes, (2, 2))
    with pytest.raises(SpectralGapError):
        onlycat(ds, SpecMixConfig(k=3))


def test_onlycat_holds_no_n_by_k_array():
    # past the tuple pass only int64 n-vectors (keys, the inverse, labels)
    # grow with n: the peak stays at a few of them, where one n x k float
    # block alone would be k = 24 of them
    n, k = 200_000, 24
    codes = np.random.default_rng(0).integers(0, 10, (n, 3))
    ds = MixedDataset(np.empty((n, 0)), codes, (10, 10, 10))
    cfg = SpecMixConfig(k=k, kmeans=KMeansConfig(restarts=2))
    tracemalloc.start()
    try:
        onlycat(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n
