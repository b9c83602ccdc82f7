"""The specmix benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

Every workload is a closed loop: one client in one process, one problem at
a time, each problem in a fresh interpreter (``child.py``) so its peak RSS
is its own. BLAS threads are capped at the number of usable CPUs. A run
repeats passes over the workload's problems until ``--seconds`` would be
exceeded (at least two passes), and reports medians.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced ``run_s``).

Human-readable lines come first; the last stdout line is the JSON result.
Its ``attempted`` and ``failed`` count problem runs: a run fails when the
program raises a ``SpecmixError`` or the CLI exits nonzero. ``ok_share``
counts cases instead: a problem run is one case, except a sweep, whose rows
are its cases and which records a failed case as a row with an error code.
The exit code is nonzero when the program cannot be run or an output check
fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import combine_traces, per_layer_metrics, share
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_PASSES = 2
# Every run must end well inside three minutes, the first one included.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run the program or read its reports."""


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def host_info() -> dict:
    """CPU, caches and commit; fields that cannot be read say so."""
    info = {"nproc": os.cpu_count(), "usable_cpus": blas_threads(),
            "cpu": "unknown", "caches": {}, "commit": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    else:
        info["commit"] = "unknown (not a git checkout)"
    return info


def cache_bytes(text: str) -> int:
    """Parse a sysfs cache size such as ``48K`` or ``300M``."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text and text[-1] in scale:
        return int(text[:-1]) * scale[text[-1]]
    return int(text)


class Runner:
    """Starts child processes for one workload and collects their reports."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.problems = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads())
        self.workdir = WORK / str(os.getpid())
        self._ids = itertools.count()
        self.program_env: dict = {}

    def child(self, index: int, trace: bool) -> dict:
        workdir = self.workdir / str(next(self._ids))
        spec = {"workload": self.workload, "problem": index, "seed": self.seed,
                "trace": trace, "workdir": str(workdir)}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        name = self.problems[index].name
        if proc.returncode != 0:
            raise BenchError(f"problem {name} exited with {proc.returncode}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"problem {name} printed no report") from None
        report["setup_s"] = report["ready_at"] - spawned
        report["name"] = name
        self.program_env = report["env"]
        return report

    def each_problem(self, trace: bool) -> list[dict]:
        return [self.child(i, trace) for i in range(len(self.problems))]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def timed_passes(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would end after ``seconds`` (at least two).

    In trace mode passes alternate untraced, traced, untraced, ...
    """
    start = time.monotonic()
    longest = 0.0
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        reports = runner.each_problem(traced)
        longest = max(longest, time.monotonic() - began)
        passes.append({"traced": traced, "reports": reports})
        if (len(passes) >= MIN_PASSES
                and time.monotonic() - start + longest > seconds):
            return passes


def pass_summary(reports: list[dict]) -> dict:
    purities = [p for r in reports for p in r["purities"]]
    return {
        "setup_s": sum(r["setup_s"] for r in reports),
        "run_s": sum(r["run_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "runs": len(reports),
        "failed_runs": sum(1 for r in reports if r.get("error")),
        "cases": sum(r["cases"] for r in reports),
        "failed_cases": sum(r["failed_cases"] for r in reports),
        "purity_mean": statistics.fmean(purities) if purities else None,
        "problems": [f"{r['name']}: {p}" for r in reports for p in r["problems"]],
    }


def determinism_problems(summaries: list[dict]) -> list[str]:
    """Answers must repeat exactly across passes of the same code and seed."""
    first = summaries[0]
    out = []
    for i, s in enumerate(summaries[1:], start=2):
        for key in ("purity_mean", "failed_cases", "cases"):
            if s[key] != first[key]:
                out.append(f"nondeterminism: pass {i} {key} {s[key]!r} "
                           f"!= pass 1 {first[key]!r}")
    return out


def describe(workload: str, env: dict, host: dict) -> list[str]:
    lines = [
        f"workload {workload}: closed loop, 1 client, 1 problem at a time, "
        "each problem in a fresh process",
        "env " + json.dumps({**host, **env, "blas_threads": blas_threads()},
                            sort_keys=True),
    ]
    sizes = sorted({p.params["n"] for p in WORKLOADS[workload]
                    if p.kind == "pipeline" and p.params["method"] != "onlycat"})
    level, size = max(host["caches"].items(), default=("L?", "0"))
    for n in sizes:
        lines.append(
            f"size: the n x n float64 matrix at n={n} is {n * n * 8 / 1e6:.0f} MB "
            f"(10^6 bytes); the last-level cache {level} is "
            f"{cache_bytes(size) / 1e6:.0f} MB ({size})")
    return lines


def outcome(summaries: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed problem runs over all passes, and failed checks."""
    problems = [p for s in summaries for p in s["problems"]]
    problems += determinism_problems(summaries)
    return (sum(s["runs"] for s in summaries),
            sum(s["failed_runs"] for s in summaries), problems)


def end_to_end(runner: Runner, seconds: float):
    """End-to-end metric values, note lines, attempted, failed, problems."""
    timed = timed_passes(runner, seconds, trace=False)
    passes = [pass_summary(p["reports"]) for p in timed]
    attempted, failed, problems = outcome(passes)
    cases = sum(s["cases"] for s in passes)
    failed_cases = sum(s["failed_cases"] for s in passes)
    purity = passes[0]["purity_mean"]
    if purity is None:
        problems.append("no problem succeeded, so purity_mean is undefined")
        purity = 0.0
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in passes),
        "run_s": statistics.median(s["run_s"] for s in passes),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in passes),
        "ok_share": share(cases - failed_cases, cases),
        "purity_mean": purity,
    }
    notes = [
        f"setup_s, run_s and peak_rss_mb are medians of {len(passes)} "
        "passes (run_s "
        + ", ".join(f"{s['run_s']:.3f}" for s in passes) + ")",
        f"failed_share {share(failed_cases, cases):.4f} ({failed_cases} "
        f"failed of {cases} cases attempted)",
        f"{failed} failed of {attempted} problem runs attempted",
        f"purity_mean is the mean weighted purity of the "
        f"{cases - failed_cases} cases that succeeded",
    ]
    return values, notes, attempted, failed, problems


def traced(runner: Runner, seconds: float):
    """Per-layer metric values, note lines, attempted, failed, problems."""
    passes = timed_passes(runner, seconds, trace=True)
    summaries = [pass_summary(p["reports"]) for p in passes]
    attempted, failed, problems = outcome(summaries)
    layer_runs = [
        per_layer_metrics(combine_traces([r["trace"] for r in p["reports"]]))
        for p in passes if p["traced"]]
    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    run_traced = statistics.median(
        s["run_s"] for s, p in zip(summaries, passes) if p["traced"])
    run_plain = statistics.median(
        s["run_s"] for s, p in zip(summaries, passes) if not p["traced"])
    values["trace.overhead_s"] = run_traced - run_plain
    notes = [
        f"traced run_s {run_traced:.4f} s, untraced run_s {run_plain:.4f} s "
        f"({len(layer_runs)} traced of {len(passes)} passes)",
        "eigen.matvec_bytes_computed is AugmentedGraph matvecs x n^2 x 8 "
        "bytes, computed, not measured",
    ]
    return values, notes, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "specmix" / "__init__.py").is_file():
        print(f"no specmix sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args.workload, args.seed)
    try:
        measure_run = traced if args.trace else end_to_end
        values, notes, attempted, failed, problems = measure_run(
            runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    for line in describe(args.workload, runner.program_env, host_info()):
        print(line)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
