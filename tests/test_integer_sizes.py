"""Counts, sizes and cardinalities must be integers in range. Most cases
below used to escape as a raw Python or numpy error (or, for a fractional
cardinality, to be silently truncated) instead of a stable error code; the
rest pin checks that were already in place."""

import json

import numpy as np
import pytest

from specmix import (ConfigError, DataError, ExperimentGrid, KMeansConfig,
                     MixedDataset, SpecMixConfig, StackedEncoder, SyntheticParams,
                     delta_counts, generate_synthetic, kmeans, kmodes, kprototypes,
                     specmix)


def mixed():
    return generate_synthetic(SyntheticParams(n=12, k=2, q=2, sigma=0.3, p=0.0,
                                              seed=1))[0]


def grid(**changes):
    return ExperimentGrid(**{"n_values": (60,), "k_values": (2,),
                             "q_values": (1,), **changes})


POINTS = np.random.default_rng(0).standard_normal((10, 2))
CODES = np.array([[0, 1], [1, 0], [0, 0], [1, 1]])

CONFIG_CASES = {
    "kmeans k=0": lambda: kmeans(POINTS, 0),
    "kmeans k=1.5": lambda: kmeans(POINTS, 1.5),
    "kmodes k=0": lambda: kmodes(CODES, 0),
    "kmodes restarts=0": lambda: kmodes(CODES, 2, restarts=0),
    "kmodes max_iters=0": lambda: kmodes(CODES, 2, max_iters=0),
    "kprototypes k=0": lambda: kprototypes(mixed(), 0),
    "kprototypes restarts=1.5": lambda: kprototypes(mixed(), 2, restarts=1.5),
    "SpecMixConfig k=2.5": lambda: SpecMixConfig(k=2.5),
    "SpecMixConfig k=2.0": lambda: SpecMixConfig(k=2.0),
    "KMeansConfig restarts=1.5": lambda: KMeansConfig(restarts=1.5),
    "KMeansConfig max_iters=0": lambda: KMeansConfig(max_iters=0),
    "SyntheticParams n=10.5": lambda: SyntheticParams(n=10.5, k=2, q=1,
                                                      sigma=0.1, p=0.0),
    "SyntheticParams k=2.5": lambda: SyntheticParams(n=10, k=2.5, q=1,
                                                     sigma=0.1, p=0.0),
    "SyntheticParams q=-1": lambda: SyntheticParams(n=10, k=2, q=-1,
                                                    sigma=0.1, p=0.0),
    # seeds: 2.5 used to reach SeedSequence (raw TypeError), -1 a raw
    # ValueError; a whole float is refused like any other float
    "SpecMixConfig seed=2.5": lambda: SpecMixConfig(k=2, seed=2.5),
    "SpecMixConfig seed=2.0": lambda: SpecMixConfig(k=2, seed=2.0),
    "kmeans seed=-1": lambda: kmeans(POINTS, 2, seed=-1),
    "kmodes seed=-1": lambda: kmodes(CODES, 2, seed=-1),
    "kmodes seed=2.5": lambda: kmodes(CODES, 2, seed=2.5),
    "kprototypes seed=2.5": lambda: kprototypes(mixed(), 2, seed=2.5),
    "SyntheticParams seed=2**64": lambda: SyntheticParams(
        n=10, k=2, q=1, sigma=0.1, p=0.0, seed=2**64),
    # the grid used to accept all of these: seed=2.5 wrote the rows of
    # seed=2, repetitions=1.5 raised a raw TypeError in run_sweep, and a
    # fractional n or Q recorded every row as an internal error
    "ExperimentGrid seed=2.5": lambda: grid(seed=2.5),
    "ExperimentGrid seed=-1": lambda: grid(seed=-1),
    "ExperimentGrid seed=2**70": lambda: grid(seed=2**70),
    "ExperimentGrid repetitions=1.5": lambda: grid(repetitions=1.5),
    "ExperimentGrid n=60.5": lambda: grid(n_values=(60.5,)),
    "ExperimentGrid q=1.5": lambda: grid(q_values=(1.5,)),
    "ExperimentGrid k=2.0": lambda: grid(k_values=(2.0,)),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_bad_size_is_config_error(case):
    with pytest.raises(ConfigError):
        CONFIG_CASES[case]()


# a bool is an int to operator.index and a numbers.Real: kmodes and
# kprototypes used to pass k=True on to rng.choice (a raw TypeError),
# KMeansConfig(restarts=True) ran one restart, and lambdas=True built 1.0
BOOL_CASES = {
    "kmeans k": lambda: kmeans(POINTS, True),
    "kmodes k": lambda: kmodes(CODES, True),
    "kmodes restarts": lambda: kmodes(CODES, 2, restarts=True),
    "kmodes max_iters": lambda: kmodes(CODES, 2, max_iters=True),
    "kprototypes k": lambda: kprototypes(mixed(), True),
    "kprototypes gamma_mix": lambda: kprototypes(mixed(), 2, gamma_mix=True),
    "KMeansConfig restarts": lambda: KMeansConfig(restarts=True),
    "KMeansConfig max_iters": lambda: KMeansConfig(max_iters=True),
    "SpecMixConfig k": lambda: SpecMixConfig(k=True),
    "SpecMixConfig lambdas": lambda: SpecMixConfig(k=2, lambdas=True),
    "SpecMixConfig lambdas list": lambda: SpecMixConfig(k=2, lambdas=[1.0, False]),
    "StackedEncoder lambdas": lambda: StackedEncoder(CODES, (2, 2), [True, 1.0]),
    "SyntheticParams n": lambda: SyntheticParams(n=True, k=2, q=1, sigma=0.1, p=0.0),
    "SyntheticParams p": lambda: SyntheticParams(n=10, k=2, q=1, sigma=0.1, p=True),
    "SyntheticParams sigma": lambda: SyntheticParams(n=10, k=2, q=1, sigma=True, p=0.0),
    "ExperimentGrid repetitions": lambda: grid(repetitions=True),
}


@pytest.mark.parametrize("case", sorted(BOOL_CASES))
def test_bool_is_config_error(case):
    with pytest.raises(ConfigError):
        BOOL_CASES[case]()


DATA_CASES = {
    "MixedDataset cardinality 2.7": lambda: MixedDataset(
        np.empty((3, 0)), np.array([[0], [1], [0]]), (2.7,)),
    "MixedDataset cardinality 0": lambda: MixedDataset(
        np.empty((3, 0)), np.array([[0], [1], [0]]), (0,)),
    "delta_counts cardinality 2.5": lambda: delta_counts([0, 1], [0, 1], [0, 1], 2.5, 2),
    "delta_counts cardinality -1": lambda: delta_counts([], [], np.array([], int), -1, 2),
}


@pytest.mark.parametrize("case", sorted(DATA_CASES))
def test_bad_cardinality_is_data_error(case):
    with pytest.raises(DataError, match="cardinality"):
        DATA_CASES[case]()


def test_numpy_integers_accepted():
    two, three = np.int64(2), np.int32(3)
    cfg = SpecMixConfig(k=two, kmeans=KMeansConfig(restarts=three, max_iters=two))
    # stored as ints, so the result JSON can echo them
    assert json.dumps(cfg.echo()) and type(cfg.k) is int
    assert type(cfg.kmeans.restarts) is int and type(cfg.kmeans.max_iters) is int
    params = SyntheticParams(n=np.int64(10), k=two, q=np.uint8(1), sigma=1, p=0)
    # stored as checked: p and sigma used to stay as given, here ints
    assert [type(getattr(params, name)) for name in ("n", "k", "q", "sigma", "p")] == (
        [int, int, int, float, float])
    labels, _, _ = kmeans(POINTS, two, KMeansConfig(restarts=1))
    assert labels.shape == (10,)
    assert kmodes(CODES, two, restarts=three).shape == (4,)
    ds = MixedDataset(np.empty((3, 0)), np.array([[0], [1], [0]]), (np.int64(2),))
    assert ds.cardinalities == (2,) and type(ds.cardinalities[0]) is int
    assert delta_counts([0, 1], [0, 1], [0, 1], np.int32(2), two).trace() == 2


def test_numpy_seed_stored_as_int():
    # a numpy seed used to pass the check unchanged, and to_json then raised
    # "uint64 is not JSON serializable"
    seed = np.uint64(3)
    cfg = SpecMixConfig(k=2, seed=seed)
    assert type(cfg.seed) is int
    assert type(SyntheticParams(n=10, k=2, q=1, sigma=0.1, p=0.0, seed=seed).seed) is int
    assert json.loads(specmix(mixed(), cfg).to_json())["seed"] == 3
