"""Command-line front door.

Subcommands: ``cluster`` (run one method on a CSV dataset), ``synth``
(write a synthetic dataset), ``sweep`` (run a grid of synthetic
experiments), ``eval`` (score label files against each other).

Errors are reported as one JSON object on stderr with a stable ``error``
code; exit codes: 0 success, 2 usage/schema, 3 data, 4 configuration,
5 numerical failure, 1 anything else.
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
from .errors import (ConfigError, ConvergenceError, DataError, SchemaError,
                     SpecmixError, SpectralGapError)
from .kmeans import KMeansConfig
from .metrics import imbalance_ratio, label_agreement, purity
from .pipelines import ClusteringResult, SpecMixConfig, specmix_graph
from .sweep import (METHODS, ExperimentGrid, fmt, parse_values, run_method,
                    run_sweep, write_rows)

_EXIT_CODES = {
    SchemaError: 2,
    DataError: 3,
    ConfigError: 4,
    SpectralGapError: 5,
    ConvergenceError: 5,
}

DUMP_NODE_LIMIT = 5000


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
    cluster.add_argument("--dump-graph", metavar="PATH",
                         help="debug: dump the dense augmented weight matrix "
                              f"and degrees to CSV (refused above "
                              f"{DUMP_NODE_LIMIT} nodes)")

    synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--k", type=int, required=True)
    synth.add_argument("--q", type=int, default=3)
    synth.add_argument("--sigma", type=float, default=0.0)
    synth.add_argument("--p", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--corruption", choices=("others", "uniform"),
                       default="others")
    synth.add_argument("--output", required=True)

    sweep = sub.add_parser("sweep", help="run a grid of synthetic experiments")
    sweep.add_argument("--grid", required=True, help="grid config file")
    sweep.add_argument("--output", required=True, help="results CSV path")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process count (default: SPECMIX_WORKERS or 1)")

    evaluate = sub.add_parser("eval", help="score predicted labels")
    evaluate.add_argument("--pred", required=True,
                          help="result JSON or one-label-per-line file")
    evaluate.add_argument("--truth", required=True,
                          help="labels file, or a dataset CSV when --schema "
                               "is given")
    evaluate.add_argument("--schema", help="role string for --truth as a CSV")
    evaluate.add_argument("--schema-file")
    return parser


def _load_schema(args) -> Optional[ColumnSchema]:
    """The schema given as text or as a file, or None when neither is."""
    if args.schema is not None:
        return ColumnSchema.parse(args.schema)
    if args.schema_file is not None:
        return ColumnSchema.from_file(args.schema_file)
    return None


def _dump_graph(ds, cfg, path) -> None:
    graph = specmix_graph(ds, cfg)
    if graph.dim > DUMP_NODE_LIMIT:
        raise ConfigError(f"refusing to dump a graph with {graph.dim} > "
                          f"{DUMP_NODE_LIMIT} nodes")
    path = Path(path)
    write_rows(path, ([fmt(v) for v in row] for row in graph.dense()))
    write_rows(path.with_name(path.stem + ".degrees.csv"),
               ([fmt(v)] for v in graph.degrees))


def _cmd_cluster(args) -> int:
    schema = _load_schema(args)
    missing = tuple(tok.strip() for tok in args.missing.split(",")) if args.missing else ()
    ds, truth = load_mixed_csv(args.dataset, schema, missing_values=missing)
    if ds.num_numeric >= 1 and not args.no_standardize:
        ds = standardize_numeric(ds)
    lams = parse_values("--lambda", args.lam)
    cfg = SpecMixConfig(k=args.k, lambdas=lams[0] if len(lams) == 1 else lams,
                        kmeans=KMeansConfig(restarts=args.restarts),
                        seed=args.seed)
    if args.dump_graph:
        _dump_graph(ds, cfg, args.dump_graph)

    result = run_method(args.method, ds, cfg)
    doc = result.to_json()
    if args.output:
        Path(args.output).write_text(doc + "\n", encoding="utf-8")
    else:
        print(doc)
    if truth is not None:
        line = (f"purity_weighted={fmt(purity(result.labels, truth, 'weighted'))} "
                f"purity_macro={fmt(purity(result.labels, truth, 'macro'))}")
        print(line, file=sys.stdout if args.output else sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    params = SyntheticParams(n=args.n, k=args.k, q=args.q, sigma=args.sigma,
                             p=args.p, seed=args.seed,
                             corruption=args.corruption)
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
    print(f"purity_weighted={fmt(purity(pred, truth, 'weighted'))}")
    print(f"purity_macro={fmt(purity(pred, truth, 'macro'))}")
    print(f"label_agreement={fmt(label_agreement(pred, truth))}")
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
        return _EXIT_CODES.get(type(exc), 1)
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
