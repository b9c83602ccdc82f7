"""Output-correctness checks, computed without the program's own metrics.

Each check returns a list of human-readable problems; an empty list means
the output passed.
"""

from __future__ import annotations

import numpy as np


def weighted_purity(labels, truth) -> float:
    """Share of points that fall in their cluster's majority true class."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    _, pred_idx = np.unique(labels, return_inverse=True)
    _, true_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_idx.max() + 1, true_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (pred_idx, true_idx), 1)
    return int(table.max(axis=1).sum()) / labels.size


def check_labels(labels, n: int, k: int) -> list[str]:
    """A successful clustering has n integer labels in [0, k)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"expected {n} labels, got shape {labels.shape}"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels have dtype {labels.dtype}, expected integers"]
    if labels.min() < 0 or labels.max() >= k:
        return [f"labels outside [0, {k}): min {labels.min()}, "
                f"max {labels.max()}"]
    return []


def check_json_round_trip(text: str, result_type) -> tuple[object, list[str]]:
    """Parse a result document and require that it serializes back unchanged."""
    result = result_type.from_json(text)
    if result.to_json() != text.rstrip("\n"):
        return result, ["result JSON does not round-trip through from_json"]
    return result, []


def check_sweep_rows(rows: list[dict], expected: int, error_codes) -> list[str]:
    """Every row either names a known error code or carries both purities.

    Weighted purity is at least the largest true-class share, so it lies in
    [1/K, 1]; macro purity lies in (0, 1].
    """
    problems = []
    if len(rows) != expected:
        problems.append(f"expected {expected} sweep rows, got {len(rows)}")
    for row in rows:
        where = f"row {row.get('method')} K={row.get('K')} rep={row.get('rep')}"
        if row["error"]:
            if row["error"] not in error_codes:
                problems.append(f"{where}: unknown error code {row['error']!r}")
            continue
        weighted = float(row["purity_weighted"])
        macro = float(row["purity_macro"])
        if not 1.0 / int(row["K"]) - 1e-9 <= weighted <= 1.0:
            problems.append(f"{where}: weighted purity {weighted} out of range")
        if not 0.0 < macro <= 1.0:
            problems.append(f"{where}: macro purity {macro} out of range")
    return problems
