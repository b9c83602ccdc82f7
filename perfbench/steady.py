"""Steadiness mode: repeat workloads over seeds and summarize the spread.

    python3 perfbench/steady.py --seeds 1-10 --output perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, sequentially,
and prints for every end-to-end metric its median, quartiles, extremes and
quartile spread (IQR over median) next to the bound fixed in
``BENCHMARK.json``. Then it makes one traced run per workload with the
first seed and records its per-layer metrics. ``purity_mean`` and
``ok_share`` (one minus the failed share of cases) must repeat exactly across runs of
the same seed; a repeated seed in ``--seeds`` (for example ``1,1,2,2``)
checks that. With ``--seeds 1`` this is the one command that prints every
metric of every workload.

Exits nonzero when a run fails, an output check fails or an answer is not
reproducible.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("purity_mean", "ok_share")


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,1,2`` (ranges and lists may be mixed)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int,
             trace: bool = False) -> tuple[dict | None, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    if proc.returncode != 0 or not lines:
        return None, env, (proc.stdout + proc.stderr).strip()
    return json.loads(lines[-1]), env, ""


def nondeterminism(runs: list[tuple[int, dict]]) -> list[str]:
    """Exact metrics that differ between runs of the same seed."""
    seen: dict[tuple[int, str], float] = {}
    out = []
    for seed, result in runs:
        for name in EXACT:
            value = result["metrics"][name]["value"]
            if seen.setdefault((seed, name), value) != value:
                out.append(f"nondeterminism: seed {seed} {name} "
                           f"{value!r} != {seen[(seed, name)]!r}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--output", help="write the summary JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    failures = []
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in sorted(WORKLOADS):
        runs = []
        for seed in seeds:
            result, env, error = run_once(name, seed, args.seconds)
            report.setdefault("env", env)
            if result is None or not result["correct"]:
                failures.append(f"{name} seed {seed}: {error or result}")
                continue
            runs.append((seed, result))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        if not runs:
            continue
        failures += [f"{name}: {p}" for p in nondeterminism(runs)]
        stats = {}
        for metric, bound in bounds.items():
            summary = summarize([r["metrics"][metric]["value"] for _, r in runs])
            summary.update(unit=bound["unit"], bound=bound["bound"])
            stats[metric] = summary
            verdict = ("ok" if summary["spread"] <= bound["bound"] / 3
                       else "over a third of the bound"
                       if summary["spread"] <= bound["bound"]
                       else "OVER THE BOUND")
            print(f"  {metric:12s} median {summary['median']:.6g} "
                  f"{bound['unit']}  q1 {summary['q1']:.6g}  "
                  f"q3 {summary['q3']:.6g}  min {summary['min']:.6g}  "
                  f"max {summary['max']:.6g}  spread {summary['spread']:.4f} "
                  f"(bound {bound['bound']}, n={summary['n']}): {verdict}",
                  flush=True)
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        print(f"  {failed} failed of {attempted} problem runs attempted",
              flush=True)
        traced, _, error = run_once(name, seeds[0], args.seconds, trace=True)
        if traced is None or not traced["correct"]:
            failures.append(f"{name} traced seed {seeds[0]}: {error or traced}")
            traced = {"metrics": {}}
        for metric, m in traced["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
        report["workloads"][name] = {
            "metrics": stats, "attempted": attempted, "failed": failed,
            "runs": [{"seed": s, **r} for s, r in runs],
            "per_layer": {"seed": seeds[0], **traced["metrics"]}}

    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
