"""Arithmetic that turns raw child reports into reported metrics."""

from __future__ import annotations

import statistics

from tracer import MATVEC, SPAN_NAMES


def share(part: float, base: float) -> float:
    """``part / base``; a share without a positive base is an error."""
    if base <= 0:
        raise ValueError(f"share needs a positive base, got {base}")
    return part / base


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and quartile spread (IQR over median).

    Quartiles follow ``statistics.quantiles(values, n=4)``; one value has
    zero spread.
    """
    values = [float(v) for v in values]
    median = statistics.median(values)
    q1, q3 = ((statistics.quantiles(values, n=4)[0::2]) if len(values) > 1
              else (values[0], values[0]))
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0}


def combine_traces(summaries: list[dict]) -> dict:
    """Merge per-process tracer summaries of one pass into one."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            into["self_s"] += entry["self_s"]
            into["calls"] += entry["calls"]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in summary["maxima"].items():
            maxima[name] = max(maxima.get(name, value), value)
    return {"spans": spans, "counters": counters, "maxima": maxima}


def per_layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values from one pass's combined trace.

    A layer that did not run reads zero. Shares and rates whose base is zero
    also read zero.
    """
    spans, counters, maxima = trace["spans"], trace["counters"], trace["maxima"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    out = {f"{name}.self_s": self_s(name) for name in SPAN_NAMES}
    rows = counters.get("kmeans.rows", 0.0)
    csv_rows = counters.get("dataset.load_mixed_csv.rows", 0.0)
    csv_s = self_s("dataset.load_mixed_csv")
    out.update({
        "graph.base_similarity.peak_alloc_mb": maxima.get(
            "graph.base_similarity.peak_alloc_bytes", 0.0) / 2**20,
        f"{MATVEC}.calls": spans.get(MATVEC, {}).get("calls", 0),
        "eigen.generalized_smallest_eigs.calls_dense": counters.get(
            "eigen.calls_dense", 0.0),
        "eigen.generalized_smallest_eigs.calls_lanczos": counters.get(
            "eigen.calls_lanczos", 0.0),
        "eigen.generalized_smallest_eigs.failed": counters.get(
            "eigen.failed", 0.0),
        "eigen.generalized_smallest_eigs.max_residual": maxima.get(
            "eigen.max_residual", 0.0),
        "eigen.matvec_bytes_computed": counters.get(
            "eigen.matvec_bytes_computed", 0.0),
        "kmeans.kmeans.rows": rows,
        "kmeans.kmeans.distinct_row_share": (
            share(counters.get("kmeans.distinct_rows", 0.0), rows)
            if rows else 0.0),
        "dataset.load_mixed_csv.rows_per_s": (
            share(csv_rows, csv_s) if csv_rows else 0.0),
    })
    return out
