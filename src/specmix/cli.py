"""Command-line front door.

Subcommands: ``cluster`` (run one method on a CSV dataset), ``synth``
(write a synthetic dataset), ``sweep`` (run a grid of synthetic
experiments), ``eval`` (score label files against each other).

Errors are reported as one JSON object on stderr with a stable ``error``
code; the exit code is the error's ``exit_code`` (2 usage/schema, 3 data and
I/O, 4 configuration, 5 numerical failure, 1 anything else), 0 on success.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import (ColumnSchema, SyntheticParams, generate_synthetic,
                      load_mixed_csv, read_text, standardize_numeric)
from .errors import DataError, SpecmixError
from .kmeans import KMeansConfig
from .metrics import ContingencyTable, imbalance_ratio
from .pipelines import ClusteringResult, SpecMixConfig
from .sweep import (METHODS, ExperimentGrid, fmt, parse_values, run_method,
                    run_sweep, write_rows, write_whole)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmix",
        description="Spectral clustering for mixed-type and categorical data")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster one CSV dataset")
    cluster.add_argument("dataset", help="CSV file with a header row")
    schema = cluster.add_mutually_exclusive_group(required=True)
    schema.add_argument("--schema",
                        help="comma-separated column roles, e.g. num,num,cat,label")
    schema.add_argument("--schema-file", help="file containing the role string")
    cluster.add_argument("--method", choices=METHODS, default="specmix")
    cluster.add_argument("--k", type=int, required=True, help="cluster count")
    cluster.add_argument("--lambda", dest="lam", default="1",
                         help="edge weight; one value or a comma list per variable")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--restarts", type=int, default=10,
                         help="K-means restarts")
    cluster.add_argument("--missing", default="?",
                         help="comma-separated missing-value sentinels "
                              "(empty fields always count)")
    cluster.add_argument("--no-standardize", action="store_true",
                         help="skip standardization of numeric columns")
    cluster.add_argument("--output", help="write the result JSON here "
                                          "(default: stdout)")

    synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--k", type=int, required=True)
    synth.add_argument("--q", type=int, default=3)
    synth.add_argument("--sigma", type=float, default=0.0)
    synth.add_argument("--p", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", required=True)

    sweep = sub.add_parser("sweep", help="run a grid of synthetic experiments")
    sweep.add_argument("--grid", required=True, help="grid config file")
    sweep.add_argument("--output", required=True, help="results CSV path")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process count (default: 1)")

    evaluate = sub.add_parser("eval", help="score predicted labels")
    evaluate.add_argument("--pred", required=True,
                          help="result JSON or one-label-per-line file")
    evaluate.add_argument("--truth", required=True,
                          help="labels file, or a dataset CSV when --schema "
                               "is given")
    schema = evaluate.add_mutually_exclusive_group()
    schema.add_argument("--schema", help="role string for --truth as a CSV")
    schema.add_argument("--schema-file",
                        help="file containing the role string for --truth")
    return parser


def _load_schema(args) -> Optional[ColumnSchema]:
    """The schema given as text or as a file, or None when neither is."""
    if args.schema is not None:
        return ColumnSchema.parse(args.schema)
    if args.schema_file is not None:
        return ColumnSchema.from_file(args.schema_file)
    return None


def _cmd_cluster(args) -> int:
    schema = _load_schema(args)
    lams = parse_values("--lambda", args.lam)
    cfg = SpecMixConfig(k=args.k, lambdas=lams[0] if len(lams) == 1 else lams,
                        kmeans=KMeansConfig(restarts=args.restarts),
                        seed=args.seed)
    missing = tuple(tok.strip() for tok in args.missing.split(",")) if args.missing else ()
    ds, truth = load_mixed_csv(args.dataset, schema, missing_values=missing)
    if ds.num_numeric >= 1 and not args.no_standardize:
        ds = standardize_numeric(ds)

    result = run_method(args.method, ds, cfg)
    doc = result.to_json()
    if args.output:
        write_whole(args.output, lambda handle: handle.write(doc + "\n"))
    else:
        print(doc)
    if truth is not None:
        table = ContingencyTable.from_labels(result.labels, truth)
        line = (f"purity_weighted={fmt(table.purity('weighted'))} "
                f"purity_macro={fmt(table.purity('macro'))}")
        print(line, file=sys.stdout if args.output else sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    params = SyntheticParams(n=args.n, k=args.k, q=args.q, sigma=args.sigma,
                             p=args.p, seed=args.seed)
    ds, labels = generate_synthetic(params)
    header = ([f"num{j}" for j in range(ds.num_numeric)]
              + [f"cat{j}" for j in range(ds.num_categorical)] + ["label"])
    rows = ([fmt(v) for v in ds.numeric[i]] + [str(int(v)) for v in ds.categorical[i]]
            + [str(int(labels[i]))] for i in range(ds.n))
    write_rows(args.output, itertools.chain([header], rows))
    return 0


def _cmd_sweep(args) -> int:
    grid = ExperimentGrid.from_file(args.grid)
    summary = run_sweep(grid, args.output, workers=args.workers)
    print(f"rows={summary['rows']} computed={summary['computed']} "
          f"skipped={summary['skipped']}")
    return 0


def _read_labels(path, schema: Optional[ColumnSchema] = None) -> np.ndarray:
    path = Path(path)
    if schema is not None:
        _, labels = load_mixed_csv(path, schema)
        if labels is None:
            raise DataError(f"{path}: schema declares no label column")
        return labels
    text = read_text(path).strip()
    if text.startswith("{"):
        return ClusteringResult.from_json(text).labels
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        int(lines[0])
    except (ValueError, IndexError):
        lines = lines[1:]  # tolerate a single header line
    if not lines:
        raise DataError(f"{path} contains no labels")
    try:
        return np.array([int(line) for line in lines], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"{path}: cannot parse labels: {exc}") from None


def _cmd_eval(args) -> int:
    pred = _read_labels(args.pred)
    truth = _read_labels(args.truth, _load_schema(args))
    if pred.size != truth.size:
        raise DataError(
            f"prediction has {pred.size} labels, truth has {truth.size}")
    table = ContingencyTable.from_labels(pred, truth)
    print(f"purity_weighted={fmt(table.purity('weighted'))}")
    print(f"purity_macro={fmt(table.purity('macro'))}")
    print(f"label_agreement={fmt(table.agreement())}")
    print(f"imbalance_ratio={fmt(imbalance_ratio(truth))}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"cluster": _cmd_cluster, "synth": _cmd_synth,
                "sweep": _cmd_sweep, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except SpecmixError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
