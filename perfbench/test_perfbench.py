"""Tests of the benchmark's own arithmetic, checks and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import specmix as sm  # noqa: E402
from specmix import pipelines  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import tracer  # noqa: E402


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [tracer.Span("root", None, 0.0, 10.0),
             tracer.Span("a", 0, 1.0, 4.0),
             tracer.Span("a.child", 1, 2.0, 3.0),
             tracer.Span("b", 0, 5.0, 6.0)]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_sums_self_time_per_name(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0])

    class Clock:
        @staticmethod
        def perf_counter():
            return next(ticks)

    monkeypatch.setattr(tracer, "time", Clock)
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    assert [s.parent for s in t.spans] == [None, 0, 0]
    summary = t.summary()["spans"]
    assert summary["inner"] == {"self_s": 2.0, "calls": 2}
    assert summary["outer"] == {"self_s": 7.0, "calls": 1}


# --- shares, bases and spreads ---------------------------------------------

def test_share_requires_a_positive_base():
    assert measure.share(20, 84) == pytest.approx(20 / 84)
    with pytest.raises(ValueError):
        measure.share(0, 0)


def test_summarize_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = measure.summarize(values)
    assert (s["q1"], s["q3"], s["n"]) == (q1, q3, 10)
    assert s["median"] == statistics.median(values)
    assert s["spread"] == pytest.approx((q3 - q1) / s["median"])
    assert (s["min"], s["max"]) == (1.0, 9.0)
    assert measure.summarize([2.5])["spread"] == 0.0


def test_per_layer_shares_and_rates_use_their_bases():
    trace = measure.combine_traces([
        {"spans": {"kmeans.kmeans": {"self_s": 1.0, "calls": 1},
                   "dataset.load_mixed_csv": {"self_s": 2.0, "calls": 1}},
         "counters": {"kmeans.rows": 100.0, "kmeans.distinct_rows": 10.0,
                      "dataset.load_mixed_csv.rows": 500.0},
         "maxima": {"graph.base_similarity.peak_alloc_bytes": 2.0**20}},
        {"spans": {"kmeans.kmeans": {"self_s": 0.5, "calls": 2}},
         "counters": {"kmeans.rows": 300.0, "kmeans.distinct_rows": 30.0},
         "maxima": {"graph.base_similarity.peak_alloc_bytes": 3.0 * 2**20}},
    ])
    m = measure.per_layer_metrics(trace)
    assert m["kmeans.kmeans.self_s"] == 1.5
    assert m["kmeans.kmeans.rows"] == 400.0
    assert m["kmeans.kmeans.distinct_row_share"] == pytest.approx(40 / 400)
    assert m["dataset.load_mixed_csv.rows_per_s"] == pytest.approx(250.0)
    assert m["graph.base_similarity.peak_alloc_mb"] == 3.0
    assert m["graph.base_similarity.self_s"] == 0.0


def test_layers_that_did_not_run_read_zero():
    empty = {"spans": {}, "counters": {}, "maxima": {}}
    m = measure.per_layer_metrics(empty)
    assert m["kmeans.kmeans.distinct_row_share"] == 0.0
    assert m["dataset.load_mixed_csv.rows_per_s"] == 0.0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {entry["name"] for entry in bench["per_layer"]}
    assert listed == set(m) | {"trace.overhead_s"}


def test_pass_summary_counts_failures_against_attempts():
    reports = [
        {"name": "a", "setup_s": 0.5, "run_s": 2.0, "peak_rss_mb": 100.0,
         "cases": 84, "failed_cases": 20, "purities": [0.5, 1.0],
         "problems": []},
        {"name": "b", "setup_s": 0.25, "run_s": 1.0, "peak_rss_mb": 300.0,
         "cases": 1, "failed_cases": 0, "purities": [0.75],
         "problems": ["bad labels"]},
        {"name": "c", "setup_s": 0.25, "run_s": 1.0, "peak_rss_mb": 200.0,
         "cases": 1, "failed_cases": 1, "purities": [], "problems": [],
         "error": "convergence"},
    ]
    s = run.pass_summary(reports)
    assert (s["setup_s"], s["run_s"], s["peak_rss_mb"]) == (1.0, 4.0, 300.0)
    # Sweep rows with an error code are failed cases of a sweep run that
    # itself succeeded; a raised SpecmixError fails the run and its case.
    assert (s["cases"], s["failed_cases"]) == (86, 21)
    assert (s["runs"], s["failed_runs"]) == (3, 1)
    assert run.outcome([s, s])[:2] == (6, 2)
    assert s["purity_mean"] == pytest.approx(0.75)
    assert s["problems"] == ["b: bad labels"]


def test_answers_that_change_between_passes_are_flagged():
    same = {"purity_mean": 0.8, "failed_cases": 20, "cases": 84}
    assert run.determinism_problems([same, dict(same)]) == []
    moved = dict(same, purity_mean=0.81)
    assert len(run.determinism_problems([same, moved])) == 1
    runs = [(1, {"metrics": {"purity_mean": {"value": 0.8},
                             "ok_share": {"value": 1.0}}}),
            (1, {"metrics": {"purity_mean": {"value": 0.7},
                             "ok_share": {"value": 1.0}}}),
            (2, {"metrics": {"purity_mean": {"value": 0.7},
                             "ok_share": {"value": 1.0}}})]
    assert len(steady.nondeterminism(runs)) == 1
    assert steady.parse_seeds("1-3,3") == [1, 2, 3, 3]


# --- output checks ---------------------------------------------------------

def test_weighted_purity_counts_majority_classes():
    assert checks.weighted_purity([0, 0, 1, 1, 1], [0, 1, 1, 1, 0]) == 3 / 5
    assert checks.weighted_purity([5, 5, 9], ["x", "x", "y"]) == 1.0


def test_labels_must_be_n_integers_in_range():
    assert checks.check_labels(np.array([0, 1, 2]), 3, 3) == []
    assert checks.check_labels(np.array([0, 1]), 3, 3)
    assert checks.check_labels(np.array([0, 1, 3]), 3, 3)
    assert checks.check_labels(np.array([0, -1, 2]), 3, 3)
    assert checks.check_labels(np.array([0.0, 1.0, 2.0]), 3, 3)


def test_result_json_must_round_trip():
    ds, _ = sm.generate_synthetic(sm.SyntheticParams(
        n=40, k=2, q=2, sigma=0.3, p=0.1, seed=3))
    result = sm.onlycat(ds, sm.SpecMixConfig(k=2, seed=3))
    text = result.to_json() + "\n"
    parsed, problems = checks.check_json_round_trip(text, sm.ClusteringResult)
    assert problems == []
    assert np.array_equal(parsed.labels, result.labels)
    compact = json.dumps(json.loads(text))
    assert checks.check_json_round_trip(compact, sm.ClusteringResult)[1]


def test_sweep_rows_accept_known_errors_and_reject_the_rest():
    codes = {"convergence", "data"}
    good = {"method": "specmix", "K": "4", "rep": "0", "error": "",
            "purity_weighted": "0.9", "purity_macro": "0.8"}
    failed = dict(good, error="convergence", purity_weighted="",
                  purity_macro="")
    assert checks.check_sweep_rows([good, failed], 2, codes) == []
    assert checks.check_sweep_rows([good], 2, codes)
    assert checks.check_sweep_rows([dict(failed, error="internal")], 1, codes)
    assert checks.check_sweep_rows([dict(good, purity_weighted="0.2")], 1,
                                   codes)
    assert checks.check_sweep_rows([dict(good, purity_macro="0")], 1, codes)


# --- instrumentation -------------------------------------------------------

@pytest.fixture
def traced():
    t = tracer.Tracer()
    replaced = tracer.instrument(t, sm)
    try:
        yield t
    finally:
        tracer.restore(replaced)


def test_instrumented_specmix_records_layer_spans(traced):
    ds, _ = sm.generate_synthetic(sm.SyntheticParams(
        n=60, k=2, q=2, sigma=0.3, p=0.1, seed=5))
    pipelines.specmix(ds, sm.SpecMixConfig(k=2, lambdas=10.0, seed=5))
    summary = traced.summary()
    spans = summary["spans"]
    for name in ("pipelines.specmix", "graph.base_similarity",
                 "graph.assemble_augmented", "eigen.generalized_smallest_eigs",
                 "graph.AugmentedGraph.matvec", "kmeans.kmeans"):
        assert spans[name]["calls"] >= 1, name
    assert summary["counters"]["eigen.calls_dense"] == 1
    assert summary["counters"]["kmeans.rows"] == 60 + 4
    assert summary["maxima"]["graph.base_similarity.peak_alloc_bytes"] > 0
    matvecs = spans["graph.AugmentedGraph.matvec"]["calls"]
    assert summary["counters"]["eigen.matvec_bytes_computed"] == \
        matvecs * 60 * 60 * 8
    root = traced.spans[0]
    assert root.parent is None and root.name == "pipelines.specmix"
    total_self = sum(e["self_s"] for e in spans.values())
    assert total_self == pytest.approx(root.duration)


def test_distinct_rows_matches_numpy_unique():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((7, 3))
    rows = base[rng.integers(0, 7, 500)]
    rows[0] = 0.0
    rows[1] = -0.0
    assert tracer.distinct_rows(rows) == np.unique(rows, axis=0).shape[0]
    assert tracer.distinct_rows(np.empty((0, 3))) == 0


def test_restore_puts_the_original_functions_back():
    original = pipelines.base_similarity
    replaced = tracer.instrument(tracer.Tracer(), sm)
    assert pipelines.base_similarity is not original
    tracer.restore(replaced)
    assert pipelines.base_similarity is original
    assert "matvec" in sm.AugmentedGraph.__dict__


def test_failed_eigensolves_are_counted():
    def refuse(*args, **kwargs):
        raise sm.ConvergenceError("no")

    t = tracer.Tracer()
    wrapped = tracer._eigensolve(t, "eigen.generalized_smallest_eigs", refuse,
                                 eigen_module=sm.eigen,
                                 error_type=sm.SpecmixError)
    with pytest.raises(sm.ConvergenceError):
        wrapped(np.eye(3), np.ones(3), 2)
    assert t.counters == {"eigen.calls_dense": 1, "eigen.failed": 1}


# --- the benchmark refuses to run without the program ------------------------

def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cat-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
