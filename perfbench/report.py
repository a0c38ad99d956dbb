"""Run every workload untraced and traced, print all metrics, and optionally
write a BENCH record:

    python3 perfbench/report.py --seed 1 --out perfbench/history/BENCH_<label>.json

Each run measures for ``run_seconds`` of ``BENCHMARK.json``, the length the
benchmark's records are compared at.

The record holds, per workload, the end-to-end metrics with their units, the
fail ratio and sample counts, and the traced run's per-layer table with its
coverage and tracing overhead, under the environment stamp of the runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common
import run


def one(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=200,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if not done.stdout.strip():
        raise SystemExit(f"{workload} --trace {trace} printed no result (exit {done.returncode})")
    work = common.ROOT / ".bench_build" / "perfbench" / f"{workload}-s{seed}-t{trace}"
    return json.loads(done.stdout.strip().splitlines()[-1]), common.read_json(work / "result.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=common.read_json(common.ROOT / "BENCHMARK.json")["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the BENCH record here")
    args = parser.parse_args(argv)
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in common.WORKLOADS:
        plain, plain_result = one(workload, args.seed, args.seconds, 0)
        traced, traced_result = one(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        record["env"] = {k: v for k, v in plain_result["env"].items() if k not in ("workload", "seed")}
        record["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "fail_ratio": plain["failed"] / plain["attempted"],
            "attempted": plain["attempted"],
            "op_samples": plain_result["op_samples"],
            "passes": len(plain_result["passes"]),
            "per_layer": traced["metrics"],
            "traced_fail_ratio": traced["failed"] / traced["attempted"],
        }
    print("\nworkload        " + "".join(f"{name:>16s}" for name in run.END_TO_END))
    for workload, data in record["workloads"].items():
        cells = "".join(f"{data['end_to_end'][n]['value']:>13.4g} {data['end_to_end'][n]['unit']:<2s}" for n in run.END_TO_END)
        print(f"{workload:16s}{cells}   fail_ratio {data['fail_ratio']:.3g}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
