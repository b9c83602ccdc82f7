"""End-to-end clusterers, each ending in K-means on a spectral embedding:
``specmix`` on the augmented graph (numeric similarities plus category extra
nodes), ``numeric_spectral`` on the numeric graph alone, and ``onlycat``
through the bipartite reduction. Pipelines are pure given (dataset, config);
many invocations may run concurrently.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence, Union

import numpy as np

from .dataset import MAX_SEED, MixedDataset, _check_seed, _first_appearance, as_int
from .eigen import EigenPairs, _fix_signs, generalized_smallest_eigs
from .errors import ConfigError, DataError, SpectralGapError
from .graph import (AugmentedGraph, BaseWeights, StackedEncoder, as_lambdas,
                    assemble_augmented, base_similarity)
from .kmeans import KMeansConfig, check_config, kmeans

RESULT_FORMAT_VERSION = 1
STAGES = ("graph", "eigen", "kmeans", "total")  # the timings of a spectral result

_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SpecMixConfig:
    """Clustering configuration of the three spectral pipelines; the
    baselines read only ``k``, ``seed`` and ``kmeans.restarts``.

    ``lambdas``, checked when the config is built, is one finite nonnegative
    number for every categorical variable or a sequence of one per variable,
    kept as a float or a tuple of floats. ``seed`` pins the whole run: the
    eigensolver starts and the K-means restarts. For ``onlycat`` it drives
    K-means only: the reduced solve starts from seed 0 (see
    ``transfer_cut``).
    """

    k: int
    lambdas: Union[float, Sequence[float]] = 1.0
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "cluster count k", 2))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        values = as_lambdas(self.lambdas)
        object.__setattr__(self, "lambdas", values if np.ndim(self.lambdas) else values[0])
        check_config(self.kmeans)

    def resolve_lambdas(self, q: int) -> np.ndarray:
        lams = (np.full(q, self.lambdas) if isinstance(self.lambdas, float)
                else np.array(self.lambdas))
        if lams.shape != (q,):
            raise ConfigError(f"expected {q} lambda values, got {lams.shape}")
        return lams

    def echo(self) -> dict:
        lams = self.lambdas if isinstance(self.lambdas, float) else list(self.lambdas)
        return {"k": self.k, "lambdas": lams, "kmeans": asdict(self.kmeans),
                "seed": self.seed}


@dataclass(frozen=True)
class ClusteringResult:
    """Per-datapoint labels plus run diagnostics."""

    labels: np.ndarray
    eigenvalues: np.ndarray
    embedding_rows_used: int
    timings: dict
    config: dict
    seed: int
    method: str
    max_residual: float = 0.0

    def to_json(self) -> str:
        """The result as ``json.dumps(doc, indent=2, sort_keys=True)`` would
        write it. The labels, one per line, are joined in one pass instead of
        through the encoder's pure-Python indenting path, and each distinct
        label is formatted once."""
        doc = {
            "version": RESULT_FORMAT_VERSION,
            "method": self.method,
            "labels": [],
            "eigenvalues": self.eigenvalues.tolist(),
            "embedding_rows_used": self.embedding_rows_used,
            "timings": {k: float(v) for k, v in self.timings.items()},
            "config": self.config,
            "seed": self.seed,
            "max_residual": float(self.max_residual),
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        values = self.labels.tolist()
        text_of = {v: str(v) for v in set(values)}
        labels = ("[\n    " + ",\n    ".join(map(text_of.__getitem__, values)) + "\n  ]"
                  if values else "[]")
        # JSON escapes newlines inside strings, so only a top-level key can
        # start a line with exactly two spaces and a quote
        return text.replace('\n  "labels": []', '\n  "labels": ' + labels, 1)

    @classmethod
    def from_json(cls, text: str) -> "ClusteringResult":
        """Read what ``to_json`` wrote. Text that is not JSON, and a missing
        field, one of the wrong type or one out of range, raise a DataError
        naming it."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"result is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise DataError("result JSON is not an object")
        version = _field(doc, "version", int, "an integer")
        if version != RESULT_FORMAT_VERSION:
            raise DataError(f"unsupported result version {version!r}")
        doc.setdefault("max_residual", 0.0)
        return cls(
            labels=_array_field(doc, "labels", {int}, np.int64, "integers"),
            eigenvalues=_finite("eigenvalues", _array_field(
                doc, "eigenvalues", {int, float}, np.float64, "numbers")),
            embedding_rows_used=_field(doc, "embedding_rows_used", int, "an integer",
                                       (0, _INT64_MAX)),
            timings=_finite("timings", _field(doc, "timings", dict, "an object")),
            config=_field(doc, "config", dict, "an object"),
            seed=_field(doc, "seed", int, "an integer", (0, MAX_SEED)),
            method=_field(doc, "method", str, "a string"),
            max_residual=float(_field(doc, "max_residual", (int, float), "a number",
                                      (0.0, _FLOAT_MAX))),
        )


def _field(doc: dict, name: str, types, what: str, bounds=None):
    """``doc[name]``, which must be an instance of ``types`` (bools are not
    numbers here) and lie within the closed interval ``bounds`` if given."""
    if name not in doc:
        raise DataError(f"result has no {name!r} field")
    value = doc[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise DataError(f"result field {name!r} is not {what}")
    if bounds and not bounds[0] <= value <= bounds[1]:
        raise DataError(f"result field {name!r} is not in {list(bounds)}, got {value}")
    return value


def _finite(name: str, values):
    """``values``, a list or an object, if its values are ints and floats
    within the float range: Python's ``json`` also reads NaN, Infinity and
    larger ints, which ``to_json`` cannot write (NaN fails any comparison)."""
    numbers = values.values() if isinstance(values, dict) else values
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in numbers):
        raise DataError(f"result field {name!r} holds a value that is not a finite number")
    return values


def _array_field(doc: dict, name: str, types: set, dtype, what: str) -> np.ndarray:
    """``doc[name]``, a list whose items are all of exactly the ``types`` (so
    neither a bool nor a list), as a ``dtype`` vector. An int out of
    ``dtype``'s range is refused too."""
    values = _field(doc, name, list, f"a list of {what}")
    try:
        if set(map(type, values)) <= types:
            return np.asarray(values, dtype=dtype)
    except OverflowError:
        pass
    raise DataError(f"result field {name!r} is not a list of {what}")


_INT64_MAX = np.iinfo(np.int64).max
_FLOAT_MAX = float(np.finfo(np.float64).max)


def distinct_tuples(codes: np.ndarray, cardinalities):
    """(first, inverse) for the rows of the n x Q ``codes``: the row where
    each distinct tuple first appears, in increasing order, and each row's
    tuple number in that order.

    One pass over the columns folds each row into an int64 mixed-radix key.
    Where the next column would overflow it, the key so far is first
    renumbered to the dense tuple numbers of the columns before.
    """
    keys, size = np.zeros(codes.shape[0], dtype=np.int64), 1
    for column, card in zip(codes.T, cardinalities):
        if size > _INT64_MAX // card:
            first, keys = _first_appearance(keys)
            size = first.size
        keys = keys * card + column
        size *= card
    return _first_appearance(keys, size if size <= keys.size else None)


def build_stacked(ds: MixedDataset, lambdas) -> StackedEncoder:
    """The stacked encoder of ``ds``'s categorical variables with one row per
    distinct category tuple, in order of first appearance, and the inverse
    from datapoints to tuples."""
    first, inverse = distinct_tuples(ds.categorical, ds.cardinalities)
    return StackedEncoder(ds.categorical[first], ds.cardinalities, lambdas, inverse)


def build_bipartite_reduction(stacked: StackedEncoder):
    """Reduce the bipartite category graph to its small side.

    Returns (w_small, d_small): the t x t weight matrix
    H.T diag(row sums)^{-1} H of the reduced graph and its degree vector.
    Every row of H sums to ``stacked.lam_total``, the degree of each data
    node, so the reduced degrees coincide with the bipartite degrees of the
    category nodes.
    """
    # Co-occurrence counts scaled by lambda_a lambda_b: exactly symmetric,
    # and equal to h.T @ h while every lambda^2 times a count is exact. The
    # counts are exact integers, whether a tuple's datapoints are counted
    # one by one or through the tuple's count.
    weights = stacked.weights
    w_small = stacked.cooccurrence() * np.outer(weights, weights) / stacked.lam_total
    return w_small, w_small.sum(axis=1)


def transfer_cut(stacked: StackedEncoder, k: int) -> tuple[EigenPairs, np.ndarray]:
    """Solve the bipartite spectral problem on the t x t side and lift.

    A reduced pair (gamma, u) maps to the full-graph pair with
    mu = 1 - sqrt(1 - gamma) (equivalently gamma = mu (2 - mu)) and
    data-side block f = D_rows^{-1} H u / (1 - mu); the stacked vector
    (f, u) / sqrt(2) is D-orthonormal on the full bipartite graph. Requires
    gamma_k < 1; the reduction and lift cost O(rt(k+t)) for an encoder with
    r rows, r = n or r = u with one row per distinct tuple, which does not
    grow with n; the block Lanczos solve of the reduction costs O(t^3) at
    worst. The solve starts from seed 0: in a repeated eigenspace the start
    block picks the basis, so a fixed one gives every encoder of the same
    data the same pairs.

    Returns the lifted pairs over the encoder's r rows and the t category
    rows, and the r x k data-row embedding fed to K-means. A datapoint's
    rows depend only on its tuple, so with one row per tuple these are the
    full-graph vectors with each tuple's rows once; the residuals are still
    norms over all n+t nodes.
    """
    if k > stacked.t:
        raise ConfigError(f"k={k} exceeds the {stacked.t} category nodes")
    w_small, d_small = build_bipartite_reduction(stacked)
    small = generalized_smallest_eigs(w_small, k)
    gammas = small.values
    if gammas[-1] >= 1.0 - _GAP_TOL:
        raise SpectralGapError(
            "insufficient bipartite spectral gap: "
            f"gamma_{k} = {gammas[-1]:.12g} is too close to 1")
    mus = 1.0 - np.sqrt(np.maximum(1.0 - gammas, 0.0))

    # Whole r x k blocks, at most three at a time: the vectors, filled in
    # place as one (r + t) x k block, plus a product and the one residual
    # buffer. The embedding is copied only after that buffer is freed, so it
    # never makes a fourth. Each in-place step rounds as the expression it
    # stands for (a / b, a * c, a - b, a * a), so the bits do not move.
    rows = stacked.rows
    vectors = np.empty((rows + stacked.t, k))
    np.divide(stacked.apply(small.vectors), stacked.lam_total * (1.0 - mus),
              out=vectors[:rows])
    vectors[rows:] = small.vectors
    vectors *= 1.0 / np.sqrt(2.0)
    # Sign convention on the lifted vectors; keep the embedding consistent.
    # A column's first largest-magnitude entry is at the first appearance of
    # its tuple, so one row per tuple flips as one row per datapoint does.
    _fix_signs(vectors)

    # (D - W - mu D) v per node; each tuple's row stands for its datapoints'
    # equal rows. ``products`` counts the reduced solve's columns plus these k.
    f, u = vectors[:rows], vectors[rows:]
    cats = (1.0 - mus) * d_small[:, None] * u - stacked.apply_transpose(f)
    data = stacked.lam_total * (1.0 - mus) * f
    data -= stacked.apply(u)
    np.square(data, out=data)
    residuals = np.sqrt(stacked.counts @ data + np.einsum("ij,ij->j", cats, cats))
    del data
    embedding = vectors[:rows] * np.sqrt(2.0)
    return EigenPairs(mus, vectors, residuals, small.products + k), embedding


def _cluster(ds: MixedDataset, cfg: SpecMixConfig, method: str,
             build, solve) -> ClusteringResult:
    """The timed stages of a spectral pipeline: ``build(ds, cfg)`` makes the
    graph, ``solve(graph, cfg)`` returns (pairs, embedding, inverse), and
    K-means on the embedding's rows labels the datapoints, which come first;
    ``inverse`` maps each datapoint to its row, None meaning row i. Stages
    look up what they call in the module globals, so wrappers set there see
    it."""
    if cfg.k > ds.n:
        raise ConfigError(f"k={cfg.k} exceeds the {ds.n} datapoints")
    t0 = time.perf_counter()
    graph = build(ds, cfg)
    t1 = time.perf_counter()
    pairs, embedding, inverse = solve(graph, cfg)
    # only the values and the worst residual outlive the solve: where the
    # embedding is a copy (onlycat), the eigenvectors are freed before K-means
    values, max_residual = pairs.values, float(np.max(pairs.residuals))
    del pairs
    t2 = time.perf_counter()
    labels, _, _ = kmeans(embedding, cfg.k, cfg.kmeans, inverse=inverse, seed=cfg.seed)
    t3 = time.perf_counter()
    timings = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t3 - t0), strict=True))
    return ClusteringResult(
        labels=np.asarray(labels[:ds.n], dtype=np.int64),
        eigenvalues=np.asarray(values, dtype=np.float64),
        embedding_rows_used=labels.size,
        timings=timings,
        config=cfg.echo(),
        seed=cfg.seed,
        method=method,
        max_residual=max_residual,
    )


def _spectral_embedding(graph, cfg: SpecMixConfig):
    """The k smallest generalized pairs of ``graph``, whose vectors embed it."""
    pairs = generalized_smallest_eigs(graph, cfg.k, seed=cfg.seed)
    return pairs, pairs.vectors, None


def numeric_spectral(ds: MixedDataset, cfg: SpecMixConfig) -> ClusteringResult:
    """Normalized spectral clustering on the numeric similarity graph only."""
    return _cluster(ds, cfg, "numeric-spectral",
                    lambda ds, cfg: base_similarity(ds), _spectral_embedding)


def specmix_graph(ds: MixedDataset,
                  cfg: SpecMixConfig) -> Union[AugmentedGraph, BaseWeights]:
    """The graph ``specmix`` clusters: the numeric similarity graph augmented
    with every categorical variable whose lambda is positive, or the bare
    similarity graph when every lambda is zero."""
    lams = cfg.resolve_lambdas(ds.num_categorical)
    active = np.flatnonzero(lams > 0.0)
    weights = base_similarity(ds)
    if active.size == 0:
        return weights
    return assemble_augmented(weights, StackedEncoder(
        ds.categorical[:, active], np.take(ds.cardinalities, active), lams[active]))


def specmix(ds: MixedDataset, cfg: SpecMixConfig) -> ClusteringResult:
    """Cluster mixed-type data through the augmented graph.

    K-means runs on the eigenvector rows of all n+t nodes; the extra-node
    labels are discarded. Variables with a zero lambda contribute nothing to
    the graph and are omitted; with every lambda at zero this is exactly
    ``numeric_spectral``.
    """
    return _cluster(ds, cfg, "specmix", specmix_graph, _spectral_embedding)


def onlycat(ds: MixedDataset, cfg: SpecMixConfig) -> ClusteringResult:
    """Cluster purely categorical data through the bipartite reduction.

    Without a numeric graph the augmentation, less the extra-node self-loops,
    is exactly bipartite, so the eigenproblem is solved on the t x t category
    side and lifted (``transfer_cut``). After one O(nQ) pass over the codes
    (``distinct_tuples``) every stage works on the distinct tuples, weighted
    by their counts. The numeric part of the dataset, if any, is ignored.
    Any common positive lambda yields the same labels up to numerical error,
    since a uniform scale cancels from the reduced problem and from the lift.
    """
    if ds.num_categorical < 1:
        raise ConfigError("onlycat requires at least one categorical variable")
    lams = cfg.resolve_lambdas(ds.num_categorical)  # build_stacked rejects zeros
    return _cluster(ds, cfg, "onlycat",
                    lambda ds, cfg: build_stacked(ds, lams),
                    lambda stacked, cfg: (*transfer_cut(stacked, cfg.k), stacked.inverse))
