"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload static-solve --seed 1 --seconds 30 --trace 0

Each step runs in a fresh process, from the root of the checkout:

1. selection (``ops.py --select``), untimed: draw the random instances and
   apply the benchmark's size filters;
2. set-up (``ops.py``), repeated ``SETUP_REPEATS`` times: import robustflow,
   generate the selected instances and their flows, write the input files;
3. references (``reference.py``), outside the timed region;
4. measurement (``measure.py``): passes over the op list for ``--seconds``,
   every result checked; with ``--trace 1`` also traced passes.

Prints a human-readable summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Exits 1
when any op failed its check, 2 when the benchmark itself could not run.
Records (``result.json``, ``rows.jsonl``, ``spans.jsonl``) stay in
``.bench_build/perfbench/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import measure

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAYERS = ("instances.gen_ms", "maxflow.ms")


class StepFailed(Exception):
    pass


def child(script: str, args: list, deadline: float) -> str:
    """Run one step in a fresh interpreter; its stdout, or StepFailed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=common.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{script} did not finish within the run's time budget") from exc
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise StepFailed(f"{script} exited with {done.returncode}:\n{tail}")
    return done.stdout


def prepare(workload: str, seed: int, trace: int, deadline: float):
    """Selection, set-up (repeated) and references; returns the work dir and set-up timings."""
    work = common.ROOT / ".bench_build" / "perfbench" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = ["--workload", workload, "--seed", seed, "--dir", work]
    child("ops.py", args + ["--select"], deadline)
    setups = [json.loads(child("ops.py", args, deadline).strip().splitlines()[-1]) for _ in range(SETUP_REPEATS)]
    child("reference.py", ["--dir", work], deadline)
    return work, setups


def measure_run(work: Path, workload: str, seed: int, seconds: float, trace: int, setups, deadline: float):
    """The measuring process; returns its result record and the metrics to print."""
    args = ["--workload", workload, "--seed", seed, "--dir", work, "--seconds", seconds, "--trace", trace]
    child("measure.py", args, deadline)
    result = common.read_json(work / "result.json")
    if trace:
        metrics = dict(result["per_layer"])
        for name in SETUP_LAYERS:
            metrics[name] = statistics.median(s[name] for s in setups)
    else:
        metrics = {name: result[name] for name in END_TO_END if name in result}
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    return result, metrics


def report(workload: str, seed: int, work: Path, result: dict, metrics: dict) -> int:
    """Print the summary and the final JSON line; the exit code."""
    units = {**END_TO_END, **measure.PER_LAYER_UNITS}
    env = result["env"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload} seed {seed}: {len(result['passes'])} passes in {result['measured_s']:.1f} s, "
        f"{result['op_samples']} timed ops; BACKEND={env['BACKEND']} KERNEL={env['KERNEL']} "
        f"python {env['python']} commit {env['commit']}"
    )
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, value in metrics.items():
        extra = f"  ({result['op_samples']} samples)" if name.startswith("op_ms.") else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{extra}")
    for number, kind, op, text in result["problems"]:
        print(f"  FAILED pass {number} ({kind}) {op}: {text}")
    print(f"  records: {work.relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "robustflow" / "__init__.py").is_file():
        print(f"robustflow sources not found under {common.SRC}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        work, setups = prepare(args.workload, args.seed, args.trace, deadline)
        result, metrics = measure_run(work, args.workload, args.seed, args.seconds, args.trace, setups, deadline)
    except StepFailed as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 2
    return report(args.workload, args.seed, work, result, metrics)


if __name__ == "__main__":
    raise SystemExit(main())
