"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The real-data check (criterion 10) is soft: it needs the Mushroom and
Soybean UCI files on disk (see ``_find_data_file``) and logs deviations
instead of failing, since the upstream preprocessing is underspecified.
"""

import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import specmix as sm
from specmix.graph import assignment_energy, assignment_matrix, delta_counts
from specmix.pipelines import build_stacked, transfer_cut
from specmix.sweep import sidecar_paths

# max residual of every eigensolve performed by criteria 3-6, checked by
# criterion 9 (pytest executes this module top to bottom)
RESIDUALS: list[float] = []


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {status} - {name}{suffix}")
    return ok


def random_partition(rng, size, k):
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
    rng.shuffle(labels)
    return labels


def random_instance(rng):
    """Random mixed instance with its augmented graph and a hard partition."""
    n = int(rng.integers(8, 41))
    r = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    cards = [int(rng.integers(2, 5)) for _ in range(q)]
    cats = np.column_stack([
        np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        for c in cards])
    ds = sm.MixedDataset(rng.standard_normal((n, r)), cats, tuple(cards))
    lams = rng.uniform(1e-6, 10.0, q)
    graph = sm.assemble_augmented(sm.base_similarity(ds),
                                  sm.StackedEncoder(ds.categorical, ds.cardinalities, lams))
    labels = random_partition(rng, graph.dim, k)
    return ds, graph, lams, labels, k


def subspace_sine(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)[0])


def test_criterion_01_energy_decomposition():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        ds, graph, lams, labels, k = random_instance(rng)
        z, _ = assignment_matrix(labels, graph.degrees, k)
        lhs = assignment_energy(z, graph)
        x = z[:ds.n]
        w = graph.base.matrix
        rhs = float(np.trace(x.T @ (np.diag(w.sum(axis=1)) - w) @ x))
        off = ds.n
        # E_l Y, variable l's one-hot matrix times its extra-node rows, is
        # the row gather y[codes]
        for codes, card, lam in zip(ds.categorical.T, ds.cardinalities, lams):
            y = z[off:off + card]
            rhs += lam * float(np.linalg.norm(x - y[codes]) ** 2)
            off += card
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(1, "energy decomposition over 200 random instances", ok,
                  f"worst rel err {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_delta_identity():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        ds, graph, lams, labels, k = random_instance(rng)
        z, volumes = assignment_matrix(labels, graph.degrees, k)
        x = z[:ds.n]
        off = ds.n
        for codes, card in zip(ds.categorical.T, ds.cardinalities):
            y = z[off:off + card]
            frob = float(np.linalg.norm(x - y[codes]) ** 2)
            counts = delta_counts(labels[:ds.n], labels[off:off + card],
                                  codes, card, k)
            incident = (counts.sum(axis=1) + counts.sum(axis=0)
                        - 2 * np.diag(counts))
            rhs = float(np.sum(incident / volumes))
            worst = max(worst, abs(frob - rhs) / max(1.0, frob, rhs))
            off += card
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(2, "coupling-term delta identity on the same instances", ok,
                  f"worst rel err {worst:.3g}, {elapsed:.2f}s")


def _random_categorical_instance(rng):
    """Categorical-only instance with n <= 300, t <= 15 and every declared
    category occupied."""
    q = int(rng.integers(1, 4))
    while True:
        cards = [int(rng.integers(2, 7)) for _ in range(q)]
        if sum(cards) <= 15:
            break
    n = int(rng.integers(max(30, sum(cards) * 2), 301))
    cats = np.column_stack([
        np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        for c in cards])
    for col in range(q):
        rng.shuffle(cats[:, col])
    ds = sm.MixedDataset(np.empty((n, 0)), cats, tuple(cards))
    t = sum(cards)
    k = int(rng.integers(2, min(5, t - q + 1) + 1))
    lams = rng.uniform(1e-3, 10.0, q)
    return ds, lams, k


def test_criterion_03_transfer_cut_oracle():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_val, worst_res, worst_angle = 0.0, 0.0, 0.0
    checked_angles = 0
    for _ in range(50):
        ds, lams, k = _random_categorical_instance(rng)
        stacked = sm.StackedEncoder(ds.categorical, ds.cardinalities, lams)
        pairs, _ = transfer_cut(stacked, k)
        RESIDUALS.append(float(pairs.residuals.max()))

        h = stacked.dense()
        n, t = h.shape
        w = np.zeros((n + t, n + t))
        w[:n, n:] = h
        w[n:, :n] = h.T
        d = w.sum(axis=1)
        lap = np.diag(d) - w
        vals, vecs = scipy.linalg.eigh(lap, np.diag(d))
        worst_val = max(worst_val, float(np.abs(pairs.values - vals[:k]).max()))
        for i in range(k):
            v = pairs.vectors[:, i]
            res = float(np.linalg.norm(lap @ v - pairs.values[i] * d * v))
            worst_res = max(worst_res, res)
        if vals[k] - vals[k - 1] > 1e-6:
            scale = np.sqrt(d)[:, None]
            angle = subspace_sine(scale * vecs[:, :k], scale * pairs.vectors)
            worst_angle = max(worst_angle, angle)
            checked_angles += 1
    elapsed = time.perf_counter() - start
    ok = (worst_val <= 1e-7 and worst_res <= 1e-7 and worst_angle <= 1e-5
          and elapsed < 60.0)
    assert report(3, "transfer cut matches the dense bipartite solve", ok,
                  f"values {worst_val:.3g}, residuals {worst_res:.3g}, "
                  f"angle {worst_angle:.3g} over {checked_angles} gapped "
                  f"instances, {elapsed:.2f}s")


def test_criterion_04_zero_lambda_reduction():
    rng = np.random.default_rng(104)
    identical = 0
    for seed in range(20):
        n = int(rng.integers(30, 81))
        k = int(rng.integers(2, 5))
        q = int(rng.integers(1, 4))
        ds, _ = sm.generate_synthetic(sm.SyntheticParams(
            n=n, k=k, q=q, sigma=float(rng.uniform(0.2, 2.0)),
            p=float(rng.uniform(0.0, 0.5)), seed=seed))
        cfg = sm.SpecMixConfig(k=k, lambdas=0.0, seed=seed)
        if np.array_equal(sm.specmix(ds, cfg).labels,
                          sm.numeric_spectral(ds, cfg).labels):
            identical += 1
    ok = identical == 20
    assert report(4, "zero-lambda run equals numeric-only spectral labels",
                  ok, f"{identical}/20 bitwise identical")


def test_criterion_05_large_lambda_matches_onlycat():
    agreements = []
    for seed in range(20):
        ds, _ = sm.generate_synthetic(sm.SyntheticParams(
            n=500, k=2, q=3, sigma=2.0, p=0.0, seed=seed))
        a = sm.specmix(ds, sm.SpecMixConfig(k=2, lambdas=1e6, seed=seed))
        b = sm.onlycat(ds, sm.SpecMixConfig(k=2, lambdas=1.0, seed=seed))
        RESIDUALS.extend([a.max_residual, b.max_residual])
        agreements.append(sm.label_agreement(a.labels, b.labels))
    hits = sum(v >= 0.95 for v in agreements)
    ok = hits >= 18
    assert report(5, "large-lambda run agrees with the categorical pipeline",
                  ok, f"{hits}/20 seeds at agreement >= 0.95")


def test_criterion_06_easy_regime_purity():
    spec_scores, cat_scores = [], []
    for seed in range(10):
        ds, truth = sm.generate_synthetic(sm.SyntheticParams(
            n=500, k=2, q=3, sigma=0.1, p=0.0, seed=seed))
        a = sm.specmix(ds, sm.SpecMixConfig(k=2, lambdas=50.0, seed=seed))
        b = sm.onlycat(ds, sm.SpecMixConfig(k=2, lambdas=1.0, seed=seed))
        RESIDUALS.extend([a.max_residual, b.max_residual])
        spec_scores.append(sm.purity(a.labels, truth))
        cat_scores.append(sm.purity(b.labels, truth))
    mean_spec = float(np.mean(spec_scores))
    mean_cat = float(np.mean(cat_scores))
    ok = mean_spec >= 0.99 and mean_cat >= 0.99
    assert report(6, "easy-regime mean purity for both pipelines", ok,
                  f"specmix {mean_spec:.4f}, onlycat {mean_cat:.4f}")


def test_criterion_07_onlycat_linear_scaling():
    sizes = (100_000, 200_000, 400_000)
    times = {n: [] for n in sizes}
    for rep in range(5):
        # the three sizes in turn within each repetition, so that a slow
        # phase of the machine slows all of them rather than one
        for n in sizes:
            ds, _ = sm.generate_synthetic(sm.SyntheticParams(
                n=n, k=4, q=3, sigma=1.0, p=0.2, seed=1000 + rep))
            result = sm.onlycat(ds, sm.SpecMixConfig(k=4, lambdas=1.0,
                                                     seed=rep))
            # the graph stage holds the tuple pass, the one step that grows
            # with n; the stages after it work on the distinct tuples
            times[n].append(result.timings["graph"])

    t1, t2, t4 = (statistics.median(times[n]) for n in sizes)
    ok = t4 <= 2.5 * t2 and t4 <= 6.0 * t1
    assert report(7, "categorical pipeline scales linearly in n", ok,
                  f"median graph stage {t1*1e3:.2f}/{t2*1e3:.2f}/"
                  f"{t4*1e3:.2f} ms at n=1e5/2e5/4e5")


def test_criterion_08_purity_invariances():
    rng = np.random.default_rng(108)
    pred = rng.integers(0, 5, 300)
    truth = rng.integers(0, 4, 300)
    base_w = sm.purity(pred, truth, "weighted")
    base_m = sm.purity(pred, truth, "macro")
    base_a = sm.label_agreement(pred, truth)
    exact = True
    for _ in range(100):
        perm_p = rng.permutation(5)
        perm_t = rng.permutation(4)
        exact = exact and sm.purity(perm_p[pred], perm_t[truth],
                                    "weighted") == base_w
        exact = exact and sm.purity(perm_p[pred], perm_t[truth],
                                    "macro") == base_m
        exact = exact and sm.label_agreement(perm_p[pred],
                                             perm_t[truth]) == base_a
    assert report(8, "purity and agreement invariant under relabeling",
                  exact, "100 random relabelings, exact equality")


def test_criterion_09_eigen_residuals():
    if not RESIDUALS:
        # criteria 3-6 were not run in this session; repopulate cheaply
        rng = np.random.default_rng(109)
        for _ in range(10):
            ds, lams, k = _random_categorical_instance(rng)
            pairs, _ = transfer_cut(build_stacked(ds, lams), k)
            RESIDUALS.append(float(pairs.residuals.max()))
    worst_pipeline = max(RESIDUALS)

    rng = np.random.default_rng(110)
    worst_gap = 0.0
    for _ in range(20):
        a = rng.standard_normal((50, 50))
        a = 0.5 * (a + a.T)
        lanczos = sm.symmetric_smallest_eigs(a, 6)
        worst_gap = max(worst_gap, float(np.abs(np.linalg.eigvalsh(a)[:6]
                                                - lanczos.values).max()))
    ok = worst_pipeline <= 1e-7 and worst_gap <= 1e-8
    assert report(9, "eigensolver residuals and dense-vs-iterative agreement",
                  ok, f"pipeline residual {worst_pipeline:.3g} over "
                      f"{len(RESIDUALS)} solves, dense-vs-lanczos {worst_gap:.3g}")


def _find_data_file(*names):
    roots = []
    if os.environ.get("SPECMIX_DATA_DIR"):
        roots.append(Path(os.environ["SPECMIX_DATA_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for name in names:
            path = root / name
            if path.exists():
                return path
    return None


def _load_uci_categorical(path, tmp_path):
    """UCI .data files have no header and put the class label first."""
    first = path.read_text(encoding="utf-8").splitlines()[0]
    width = len(first.split(","))
    header = ",".join(["class"] + [f"a{j}" for j in range(width - 1)])
    staged = tmp_path / (path.stem + ".csv")
    staged.write_text(header + "\n" + path.read_text(encoding="utf-8"),
                      encoding="utf-8")
    schema = sm.ColumnSchema.parse(",".join(["label"] + ["cat"] * (width - 1)))
    return sm.load_mixed_csv(staged, schema)


def test_criterion_10_real_data_soft_check(tmp_path):
    """SOFT check: logged, not failed, since the upstream preprocessing and
    K-means seeding are underspecified."""
    targets = [
        ("mushroom", ("agaricus-lepiota.data", "mushroom.data"), 23, 0.852),
        ("soybean", ("soybean-large.data", "soybean.data"), 19, 0.789),
    ]
    found_any = False
    for name, filenames, k, expected in targets:
        path = _find_data_file(*filenames)
        if path is None:
            continue
        found_any = True
        ds, truth = _load_uci_categorical(path, tmp_path)
        result = sm.onlycat(ds, sm.SpecMixConfig(k=k, lambdas=1.0, seed=0))
        score = sm.purity(result.labels, truth)
        within = abs(score - expected) <= 0.10
        report(10, f"real-data soft check: {name}", within,
               f"weighted purity {score:.3f} vs reported {expected:.3f}; "
               "soft, not blocking")
    if not found_any:
        report(10, "real-data soft check", True,
               "skipped: place agaricus-lepiota.data / soybean-large.data "
               "under ./data or $SPECMIX_DATA_DIR")
        pytest.skip("UCI data files not available offline")


def test_criterion_11_sweep_determinism_and_resume(tmp_path):
    grid = sm.ExperimentGrid(
        n_values=(40,), k_values=(2,), q_values=(2,), sigma_values=(0.5,),
        p_values=(0.1,), lambda_values=(0.0, 50.0),
        methods=("specmix", "onlycat", "kmodes"), repetitions=2, seed=3)

    out_a = tmp_path / "a" / "results.csv"
    out_b = tmp_path / "b" / "results.csv"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    sm.run_sweep(grid, out_a)
    sm.run_sweep(grid, out_b)
    agg_a = sidecar_paths(out_a)["aggregated"]
    agg_b = sidecar_paths(out_b)["aggregated"]
    deterministic = (agg_a.read_bytes() == agg_b.read_bytes()
                     and out_a.read_bytes() == out_b.read_bytes())

    original = out_a.read_bytes()
    original_agg = agg_a.read_bytes()
    lines = out_a.read_text(encoding="utf-8").splitlines(keepends=True)
    out_a.write_text("".join(lines[:1] + lines[1::2]), encoding="utf-8")
    sm.run_sweep(grid, out_a)
    resumable = (out_a.read_bytes() == original
                 and agg_a.read_bytes() == original_agg)
    ok = deterministic and resumable
    assert report(11, "sweep outputs byte-identical across runs and resume",
                  ok, f"deterministic={deterministic} resumable={resumable}")
