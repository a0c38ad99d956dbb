"""Smoke test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

1. The entry point prints every end-to-end metric by name with its unit, and
   reports the run as correct.
2. Two traced runs of the same seed give exactly the same per-layer counts,
   per run and per op.
3. A planted wrong reference is reported as a failed op, with the JSON line
   still printed and a nonzero exit code, not as a crash.

Uses the ``verify`` workload, whose passes are the shortest.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time

import common
import measure
import run

WORKLOAD = "verify"
SEED = 7
TIME_UNITS = ("ms", "s")
TIMED_RATIOS = ("trace.coverage", "trace.overhead_ratio")


def entry_point(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def op_counts(trace: int) -> dict:
    rows = common.ROOT / ".bench_build" / "perfbench" / f"{WORKLOAD}-s{SEED}-t{trace}" / "rows.jsonl"
    with open(rows, encoding="utf-8") as handle:
        return {row["id"]: row["counts"] for row in map(json.loads, handle) if row["traced"]}


def check_metrics_print() -> None:
    out = entry_point(0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100, out
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == run.END_TO_END, printed
    assert all(m["value"] > 0 for m in out["metrics"].values()), out["metrics"]


def check_counts_repeat() -> None:
    first, first_ops = entry_point(1), op_counts(1)
    second, second_ops = entry_point(1), op_counts(1)
    counts = [n for n, unit in measure.PER_LAYER_UNITS.items() if unit not in TIME_UNITS and n not in TIMED_RATIOS]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, f"{name}: {a} != {b}"
    assert first_ops == second_ops, "per-op counts differ between two runs of one seed"
    assert first["metrics"]["network.scenarios"]["value"] > 0


def check_planted_reference() -> None:
    deadline = time.monotonic() + run.BUDGET_S
    work, setups = run.prepare(WORKLOAD, SEED, 0, deadline)
    refs = common.read_json(work / "refs.json")
    planted = next(op_id for op_id, ref in refs.items() if ref["rc"] == 0)
    refs[planted]["robust"] = str(common.frac(refs[planted]["robust"]) + 1)
    common.write_json(work / "refs.json", refs)
    result, metrics = run.measure_run(work, WORKLOAD, SEED, 0.1, 0, setups, deadline)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.report(WORKLOAD, SEED, work, result, metrics)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0, "a failed check must give a nonzero exit code"
    assert last["correct"] is False and last["failed"] == 1, last
    assert any(op == planted for _, _, op, _ in result["problems"]), result["problems"]


def main() -> int:
    for check in (check_metrics_print, check_counts_repeat, check_planted_reference):
        start = time.monotonic()
        check()
        print(f"PASS {check.__name__} ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
