"""End-to-end clusterers.

``specmix`` runs normalized spectral clustering on the augmented graph
(numeric similarities plus category extra nodes), applies K-means to the
eigenvector rows of all n+t nodes, and keeps the first n labels. With all
edge weights at zero the extra nodes are omitted entirely and the pipeline
collapses to plain normalized spectral clustering on the numeric graph.

``onlycat`` is the purely categorical specialization: without a numeric
graph the augmentation (minus the extra-node self-loops) is exactly
bipartite, so the generalized eigenproblem is solved on the small t x t
side and each pair is lifted back, which is linear in n at fixed (t, K).

Pipelines are pure given (dataset, config); many invocations may run
concurrently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .dataset import MixedDataset, _check_seed, as_int
from .eigen import EigenPairs, _fix_signs, generalized_smallest_eigs
from .errors import ConfigError, DataError, SpectralGapError
from .graph import (AugmentedGraph, BaseWeights, StackedEncoder,
                    assemble_augmented, base_similarity)
from .kmeans import KMeansConfig, kmeans

RESULT_FORMAT_VERSION = 1

_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SpecMixConfig:
    """Clustering configuration shared by both pipelines.

    ``lambdas`` is either one value broadcast to every categorical variable
    or an explicit per-variable sequence. ``seed`` pins the whole run: it
    supersedes ``kmeans.seed`` so a single value controls eigensolver starts
    and K-means restarts.
    """

    k: int
    lambdas: Union[float, Sequence[float]] = 1.0
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "cluster count k", 2))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def resolve_lambdas(self, q: int) -> np.ndarray:
        if np.isscalar(self.lambdas):
            lams = np.full(q, float(self.lambdas))
        else:
            lams = np.asarray(self.lambdas, dtype=np.float64)
            if lams.shape != (q,):
                raise ConfigError(
                    f"expected {q} lambda values, got {lams.shape}")
        if not (np.isfinite(lams).all() and (lams >= 0.0).all()):
            raise ConfigError("lambda values must be finite and nonnegative")
        return lams

    def echo(self) -> dict:
        lams = (float(self.lambdas) if np.isscalar(self.lambdas)
                else [float(v) for v in self.lambdas])
        km = self.kmeans
        return {
            "k": self.k,
            "lambdas": lams,
            "kmeans": {"restarts": km.restarts, "max_iters": km.max_iters,
                       "tol": km.tol, "normalize_rows": km.normalize_rows},
            "seed": self.seed,
        }


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
        through the encoder's pure-Python indenting path."""
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
        labels = ("[\n    " + ",\n    ".join(map(str, self.labels.tolist())) + "\n  ]"
                  if self.labels.size else "[]")
        # JSON escapes newlines inside strings, so only a top-level key can
        # start a line with exactly two spaces and a quote
        return text.replace('\n  "labels": []', '\n  "labels": ' + labels, 1)

    @classmethod
    def from_json(cls, text: str) -> "ClusteringResult":
        """Read what ``to_json`` wrote. Text that is not JSON, and a missing
        field or one of the wrong type, raise a DataError naming it."""
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
            labels=_array_field(doc, "labels", "i", np.int64, "integers"),
            eigenvalues=_array_field(doc, "eigenvalues", "iuf", np.float64, "numbers"),
            embedding_rows_used=_field(doc, "embedding_rows_used", int, "an integer"),
            timings=_field(doc, "timings", dict, "an object"),
            config=_field(doc, "config", dict, "an object"),
            seed=_field(doc, "seed", int, "an integer"),
            method=_field(doc, "method", str, "a string"),
            max_residual=float(_field(doc, "max_residual", (int, float), "a number")),
        )


def _field(doc: dict, name: str, types, what: str):
    """``doc[name]``, which must be an instance of ``types`` (bools are not
    numbers here)."""
    if name not in doc:
        raise DataError(f"result has no {name!r} field")
    value = doc[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise DataError(f"result field {name!r} is not {what}")
    return value


def _array_field(doc: dict, name: str, kinds: str, dtype, what: str) -> np.ndarray:
    """``doc[name]``, a list of numbers whose numpy dtype kind is in
    ``kinds``, as a ``dtype`` vector."""
    values = _field(doc, name, list, f"a list of {what}")
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting
        values = None
    if (values is None or values.ndim != 1
            or (values.size and values.dtype.kind not in kinds)):
        raise DataError(f"result field {name!r} is not a list of {what}")
    return values.astype(dtype, copy=False)


def build_stacked(ds: MixedDataset, lambdas) -> StackedEncoder:
    return StackedEncoder(ds.categorical, ds.cardinalities, lambdas)


def build_bipartite_reduction(stacked: StackedEncoder):
    """Reduce the bipartite category graph to its small side.

    Returns (w_small, d_small, d_rows): the t x t weight matrix
    H.T diag(row sums)^{-1} H of the reduced graph, its degree vector, and
    the constant data-side row-degree vector. Since every row of H sums to
    the same total, the reduced degrees coincide with the bipartite degrees
    of the category nodes.
    """
    # Co-occurrence counts scaled by lambda_a lambda_b: exactly symmetric,
    # and equal to h.T @ h while every lambda^2 times a count is exact.
    unit, weights = stacked.unit, stacked.weights
    w_small = (unit.T @ unit).toarray() * np.outer(weights, weights) / stacked.lam_total
    d_small = w_small.sum(axis=1)
    d_rows = np.full(stacked.n, stacked.lam_total)
    return w_small, d_small, d_rows


def transfer_cut(stacked: StackedEncoder, k: int) -> tuple[EigenPairs, np.ndarray]:
    """Solve the bipartite spectral problem on the t x t side and lift.

    A reduced pair (gamma, u) maps to the full-graph pair with
    mu = 1 - sqrt(1 - gamma) (equivalently gamma = mu (2 - mu)) and
    data-side block f = D_rows^{-1} H u / (1 - mu); the stacked vector
    (f, u) / sqrt(2) is D-orthonormal on the full bipartite graph. Requires
    gamma_k < 1; total work is O(nt(k+t) + t^3), linear in n.

    Returns the lifted pairs over all n+t rows and the n x k data-row
    embedding fed to K-means.
    """
    if k > stacked.t:
        raise ConfigError(f"k={k} exceeds the {stacked.t} category nodes")
    w_small, d_small, _ = build_bipartite_reduction(stacked)
    # The reduction is already dense and costs O(n t^2), more than a full
    # O(t^3) decomposition, so Lanczos would save nothing here.
    small = generalized_smallest_eigs(w_small, d_small, k, method="dense")
    gammas = small.values
    if gammas[-1] >= 1.0 - _GAP_TOL:
        raise SpectralGapError(
            "insufficient bipartite spectral gap: "
            f"gamma_{k} = {gammas[-1]:.12g} is too close to 1")
    mus = 1.0 - np.sqrt(np.maximum(1.0 - gammas, 0.0))

    n = stacked.n
    vectors = np.empty((n + stacked.t, k))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(k):
        u = small.vectors[:, i]
        f = stacked.apply(u) / (stacked.lam_total * (1.0 - mus[i]))
        vectors[:n, i] = f * inv_sqrt2
        vectors[n:, i] = u * inv_sqrt2

    # Sign convention on the lifted vectors; keep the embedding consistent.
    vectors = _fix_signs(vectors)
    embedding = vectors[:n, :] * np.sqrt(2.0)

    d_all = np.concatenate([np.full(n, stacked.lam_total), d_small])
    residuals = np.empty(k)
    for i in range(k):
        v = vectors[:, i]
        wv = np.concatenate([stacked.apply(v[n:]), stacked.apply_transpose(v[:n])])
        residuals[i] = np.linalg.norm(d_all * v - wv - mus[i] * (d_all * v))
    # the reduced problem is solved densely: the residual loop's k columns
    # are the only products with the full graph
    return EigenPairs(mus, vectors, residuals, k), embedding


def _cluster(ds: MixedDataset, cfg: SpecMixConfig, method: str,
             build, solve) -> ClusteringResult:
    """The timed stages of a spectral pipeline: ``build(ds, cfg)`` makes the
    graph, ``solve(graph, cfg)`` returns (pairs, embedding), and K-means on
    the embedding's rows labels the datapoints, which come first. Stages look
    up what they call in the module globals, so wrappers set there see it."""
    if cfg.k > ds.n:
        raise ConfigError(f"k={cfg.k} exceeds the {ds.n} datapoints")
    t0 = time.perf_counter()
    graph = build(ds, cfg)
    t1 = time.perf_counter()
    pairs, embedding = solve(graph, cfg)
    t2 = time.perf_counter()
    labels, _, _ = kmeans(embedding, cfg.k, replace(cfg.kmeans, seed=cfg.seed))
    t3 = time.perf_counter()
    timings = {"graph": t1 - t0, "eigen": t2 - t1, "kmeans": t3 - t2}
    timings["total"] = sum(timings.values())
    return ClusteringResult(
        labels=np.asarray(labels[:ds.n], dtype=np.int64),
        eigenvalues=np.asarray(pairs.values, dtype=np.float64),
        embedding_rows_used=embedding.shape[0],
        timings=timings,
        config=cfg.echo(),
        seed=cfg.seed,
        method=method,
        max_residual=float(np.max(pairs.residuals)),
    )


def _spectral_embedding(graph, cfg: SpecMixConfig):
    """The k smallest generalized pairs of ``graph``, whose vectors embed it."""
    pairs = generalized_smallest_eigs(graph, graph.degrees, cfg.k, seed=cfg.seed)
    return pairs, pairs.vectors


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

    The numeric part of the dataset, if any, is ignored. Any common positive
    lambda yields the same labels up to numerical error, since a uniform
    scale cancels from the reduced generalized problem and from the lift.
    """
    if ds.num_categorical < 1:
        raise ConfigError("onlycat requires at least one categorical variable")
    lams = cfg.resolve_lambdas(ds.num_categorical)  # build_stacked rejects zeros
    return _cluster(ds, cfg, "onlycat", lambda ds, cfg: build_stacked(ds, lams),
                    lambda stacked, cfg: transfer_cut(stacked, cfg.k))
