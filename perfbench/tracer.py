"""Span tracing around the program's layer boundaries, from outside.

``instrument`` replaces each layer's public entry point where its callers
look it up (for example ``specmix.pipelines.base_similarity`` and
``specmix.sweep.specmix``) with a wrapper that records a span. Spans keep
their name, start, end and parent in memory until the run ends; a span's
self time is its duration minus the durations of its direct children.

Work the tracer itself does (unique-row counts, tracemalloc start/stop) runs
inside ``trace.bookkeeping`` spans, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus named counters for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def summary(self) -> dict:
        """Self seconds and call counts per span name, plus counters."""
        selfs = self_times(self.spans)
        per_name: dict[str, dict] = {}
        for span, own in zip(self.spans, selfs):
            entry = per_name.setdefault(span.name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
        return {"spans": per_name, "counters": dict(self.counters),
                "maxima": dict(self.maxima)}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_total)]


def distinct_rows(points: np.ndarray) -> int:
    """Number of distinct rows; a lexsort is several times faster than
    ``np.unique(points, axis=0)`` at a million rows."""
    if points.shape[0] == 0:
        return 0
    ordered = points[np.lexsort(points.T[::-1])]
    return 1 + int(np.any(ordered[1:] != ordered[:-1], axis=1).sum())


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _kmeans(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(points, *args, **kwargs):
        with tracer.span(name):
            result = fn(points, *args, **kwargs)
        with tracer.span(BOOKKEEPING):
            rows = np.asarray(points, dtype=np.float64)
            tracer.count("kmeans.rows", rows.shape[0])
            tracer.count("kmeans.distinct_rows", distinct_rows(rows))
        return result
    return wrapper


def _base_similarity(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(BOOKKEEPING):
            was_tracing = tracemalloc.is_tracing()
            if was_tracing:
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
        try:
            with tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            with tracer.span(BOOKKEEPING):
                peak = tracemalloc.get_traced_memory()[1]
                if not was_tracing:
                    tracemalloc.stop()
                tracer.record_max(f"{name}.peak_alloc_bytes", float(peak))
    return wrapper


def _eigensolve(tracer: Tracer, name: str, fn, *, eigen_module, error_type):
    # The program picks the dense branch for explicit or materializable
    # graphs up to DENSE_CUTOFF; without that constant every call counts as
    # an operator (Lanczos) solve.
    cutoff = getattr(eigen_module, "DENSE_CUTOFF", 0)

    @functools.wraps(fn)
    def wrapper(weights, *args, **kwargs):
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        if isinstance(weights, np.ndarray):
            dim, can_densify = weights.shape[0], True
        else:
            dim = getattr(weights, "dim", 0)
            can_densify = hasattr(weights, "dense")
        dense = method == "dense" or (method == "auto" and can_densify
                                      and dim <= cutoff)
        tracer.count("eigen.calls_dense" if dense else "eigen.calls_lanczos")
        try:
            with tracer.span(name):
                pairs = fn(weights, *args, **kwargs)
        except error_type:
            tracer.count("eigen.failed")
            raise
        tracer.record_max("eigen.max_residual",
                          float(np.max(pairs.residuals, initial=0.0)))
        return pairs
    return wrapper


def _matvec(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.count("eigen.matvec_bytes_computed", 8.0 * self.n * self.n)
        with tracer.span(name):
            return fn(self, *args, **kwargs)
    return wrapper


def _load_csv(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        tracer.count(f"{name}.rows", result[0].n)
        return result
    return wrapper


# Span name -> (defining module, attribute, modules that look it up).
FUNCTIONS = (
    ("dataset.generate_synthetic", "dataset", "generate_synthetic",
     ("sweep", "cli")),
    ("dataset.load_mixed_csv", "dataset", "load_mixed_csv", ("cli",)),
    ("graph.base_similarity", "graph", "base_similarity", ("pipelines", "cli")),
    ("graph.assemble_augmented", "graph", "assemble_augmented",
     ("pipelines", "cli")),
    ("eigen.generalized_smallest_eigs", "eigen", "generalized_smallest_eigs",
     ("pipelines",)),
    ("kmeans.kmeans", "kmeans", "kmeans", ("pipelines",)),
    ("pipelines.build_stacked", "pipelines", "build_stacked", ("pipelines",)),
    ("pipelines.transfer_cut", "pipelines", "transfer_cut", ("pipelines",)),
    ("pipelines.specmix", "pipelines", "specmix", ("pipelines", "sweep", "cli")),
    ("pipelines.onlycat", "pipelines", "onlycat", ("pipelines", "sweep", "cli")),
    ("pipelines.numeric_spectral", "pipelines", "numeric_spectral",
     ("pipelines", "sweep", "cli")),
    ("baselines.kmodes", "baselines", "kmodes", ("sweep", "cli")),
    ("baselines.kprototypes", "baselines", "kprototypes", ("sweep", "cli")),
    ("metrics.purity", "metrics", "purity", ("sweep", "cli")),
    ("sweep.run_sweep", "sweep", "run_sweep", ("sweep", "cli")),
    ("cli.main", "cli", "main", ("cli",)),
)
MATVEC = "graph.AugmentedGraph.matvec"
TO_JSON = "pipelines.ClusteringResult.to_json"
SPAN_NAMES = tuple(entry[0] for entry in FUNCTIONS) + (MATVEC, TO_JSON)


def instrument(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap the layer entry points of ``package`` (the imported ``specmix``).

    Returns the replaced (owner, attribute, original) triples so a caller
    can restore them with ``restore``. Entry points a module no longer has
    are skipped, so their metrics read zero.
    """
    modules = {name: importlib.import_module(f"{package.__name__}.{name}")
               for name in ("dataset", "graph", "eigen", "kmeans",
                            "pipelines", "baselines", "metrics", "sweep",
                            "cli", "errors")}
    special = {
        "kmeans.kmeans": _kmeans,
        "graph.base_similarity": _base_similarity,
        "eigen.generalized_smallest_eigs": functools.partial(
            _eigensolve, eigen_module=modules["eigen"],
            error_type=modules["errors"].SpecmixError),
        "dataset.load_mixed_csv": _load_csv,
    }
    replaced = []
    for span_name, home, attr, callers in FUNCTIONS:
        original = getattr(modules[home], attr, None)
        if original is None:
            continue
        wrapped = special.get(span_name, _spanned)(tracer, span_name, original)
        for caller in callers:
            module = modules[caller]
            if getattr(module, attr, None) is original:
                replaced.append((module, attr, original))
                setattr(module, attr, wrapped)

    for home, cls, attr, span_name, make in (
            ("graph", "AugmentedGraph", "matvec", MATVEC, _matvec),
            ("pipelines", "ClusteringResult", "to_json", TO_JSON, _spanned)):
        owner = getattr(modules[home], cls, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is not None:
            replaced.append((owner, attr, original))
            setattr(owner, attr, make(tracer, span_name, original))
    return replaced


def restore(replaced) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)
