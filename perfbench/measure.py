"""The measuring process: runs one workload's ops for a fixed time and checks
every result against the references.

Every pass calls ``robustflow.cli.main([...])`` in-process, one op after the
other (a closed loop with one client), and times each call. In a traced pass
the package's layer functions are wrapped, wherever the package binds them,
so that each call records a span and the work it did; the traced pass must
reach the same exact values as the untraced one. ``--trace 0`` runs untraced
passes only; ``--trace 1`` alternates untraced and traced passes, so that the
tracing overhead is the ratio of their medians.

Writes ``result.json`` (summary and metrics), ``rows.jsonl`` (one row per op
run) and, when tracing, ``spans.jsonl`` into ``--dir``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import common

FLOAT_TOL = 1e-6
# Models whose optima must coincide: gm1 is gm for Gamma = 1, dam-compact is dam.
SAME_AS = {"gm1": "gm", "dam-compact": "dam"}
# (larger, smaller) relaxation orderings between model classes of one group.
ORDERINGS = (("gm", "pm"), ("gm", "am"), ("dgm", "dpm"), ("dgm", "dam"), ("dpm", "tr"))
# Span name -> per-layer time metric.
SPAN_METRICS = {
    "cli.op": "cli.residual_ms",
    "serialize.load": "serialize.load_ms",
    "serialize.dump": "serialize.dump_ms",
    "network.catalog": "network.catalog_ms",
    "static_models.build": "static_models.build_ms",
    "static_models.extract": "static_models.extract_ms",
    "static_models.eval": "static_models.eval_ms",
    "dynamic_models.build": "dynamic_models.build_ms",
    "dynamic_models.eval": "dynamic_models.eval_ms",
    "lp.solve": "lp.solve_ms",
    "lp.lex": "lp.lex_ms",
}
# Per-op counts; summed over a pass except the two taken as a maximum.
COUNTS = (
    "lp.vars", "lp.rows", "lp.nnz", "lp.tableau_cells", "lp.value_bits_max",
    "static_models.scenario_rows", "static_models.tight_rows", "static_models.eval_violations",
    "dynamic_models.scenario_rows", "dynamic_models.tight_rows", "dynamic_models.eval_violations",
    "network.scenarios", "network.st_paths", "network.subpaths", "serialize.out_bytes",
)
MAX_COUNTS = ("lp.tableau_cells", "lp.value_bits_max")
# Every per-layer metric of a traced run, with its unit. The two set-up
# layers are timed by the set-up step.
PER_LAYER_UNITS = {
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    **{name: "count" for name in COUNTS},
    "lp.value_bits_max": "bits",
    "serialize.out_bytes": "bytes",
    "lp.tight_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "instances.gen_ms": "ms",
    "maxflow.ms": "ms",
}


# -- checks ---------------------------------------------------------------------


def close(value: Fraction, ref: float) -> bool:
    return abs(float(value) - ref) <= FLOAT_TOL * max(1.0, abs(ref))


def check(op, seen: dict, ref: dict) -> list:
    """Problems with one op's observed result; empty when it is correct."""
    if seen.get("error"):
        return [seen["error"]]
    if op["cmd"] == "evaluate":
        problems = []
        for key in ("rc", "violations"):
            if seen[key] != ref[key]:
                problems.append(f"{key} {seen[key]} != reference {ref[key]}")
        if ref["rc"] == 0 and seen["rc"] == 0:
            for key in ("robust", "nominal"):
                if seen[key] != common.frac(ref[key]):
                    problems.append(f"{key} {seen[key]} != reference {ref[key]}")
        return problems
    if seen["rc"] != 0:
        return [f"exit code {seen['rc']}"]
    problems = []
    robust, nominal = seen["robust"], seen["nominal"]
    if "exact" in ref and robust != common.frac(ref["exact"]):
        problems.append(f"value {robust} != closed form {ref['exact']}")
    if not close(robust, ref["float"]):
        problems.append(f"value {robust} != HiGHS {ref['float']}")
    if "float_nominal" in ref and not close(nominal, ref["float_nominal"]):
        problems.append(f"nominal {nominal} != HiGHS {ref['float_nominal']}")
    if "exact_nominal" in ref and nominal != common.frac(ref["exact_nominal"]):
        problems.append(f"nominal {nominal} != closed form {ref['exact_nominal']}")
    if ref.get("positive") and not robust > 0:
        problems.append(f"value {robust} is not positive although a balanced split exists")
    return problems


def relation_problems(ops, values: dict) -> dict:
    """Cross-model checks within each group: op id -> problems."""
    groups = {}
    for op in ops:
        if op["cmd"] == "solve" and op["id"] in values:
            model = SAME_AS.get(op["model"], op["model"])
            groups.setdefault(op["group"], {}).setdefault(model, []).append(op["id"])
    problems = {}

    def flag(ids, text):
        for op_id in ids:
            problems.setdefault(op_id, []).append(text)

    for group, classes in groups.items():
        for model, ids in classes.items():
            if len({values[i] for i in ids}) > 1:
                flag(ids, f"{model} optima differ within {group}")
        for big, small in ORDERINGS:
            for hi in classes.get(big, ()):
                for lo in classes.get(small, ()):
                    if values[hi] < values[lo]:
                        flag((hi, lo), f"{big} below {small} in {group}")
    return problems


# -- the ops: calls to cli.main --------------------------------------------------


def violation_lines(stderr: str) -> int:
    lines = stderr.splitlines()
    if not lines or lines[0] != "infeasible flow:":
        return 0
    return sum(1 for line in lines[1:] if line.startswith("  "))


class Workload:
    def __init__(self, cli, directory: Path, ops, refs):
        self.cli = cli
        self.inputs = directory / "inputs"
        self.outputs = directory / "out"
        self.outputs.mkdir(exist_ok=True)
        self.ops = ops
        self.refs = refs
        self.argv = {op["id"]: self.cli_args(op) for op in ops}

    def output(self, op) -> Path:
        return self.outputs / (op["id"].replace("/", "_").replace("@", "_") + ".json")

    def cli_args(self, op) -> list:
        inst = str(self.inputs / f"{op['inst']}.json")
        if op["cmd"] == "evaluate":
            argv = ["evaluate", inst, str(self.inputs / op["flow"])]
        else:
            argv = ["solve", inst, "--model", op["model"]] + (["--lex-nominal"] if op["lex"] else [])
        if not op["dynamic"]:
            argv += ["--gamma", str(op["gamma"])]
        return argv + ["-o", str(self.output(op))]

    def run_cli(self, op, tracer=None) -> dict:
        """One op through ``cli.main``; returns what it produced and its time.

        With a ``tracer`` (whose wrappers are installed) the call is the
        op's root span, and the op's per-layer counts are taken after it.
        """
        out = self.output(op)
        if out.exists():
            out.unlink()
        err = io.StringIO()
        seen = {}
        if tracer:
            tracer.op = op["id"]
        root = tracer.span("cli.op") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), root:
                seen["rc"] = self.cli.main(self.argv[op["id"]])
        except SystemExit as exc:
            seen["rc"] = exc.code
        except Exception:  # a crash of the package is a failed op, not a failed run
            seen["error"] = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seen["ms"] = (time.perf_counter() - start) * 1000.0
        if tracer:
            seen["counts"] = tracer.op_counts()
        if "error" in seen:
            return seen
        seen["violations"] = violation_lines(err.getvalue())
        if seen["rc"] == 0:
            try:
                data = common.read_json(out)
            except (OSError, ValueError) as exc:
                seen["error"] = f"unreadable output: {exc}"
                return seen
            seen["robust"] = common.frac(data["robust_value"])
            seen["nominal"] = common.frac(data["nominal_value"])
            seen["out_bytes"] = out.stat().st_size
        return seen


# -- traced passes: spans around the package's layer functions -------------------

# Span name -> (module, functions). In a traced pass each function is replaced,
# wherever the package binds it, by a wrapper that records a span and keeps
# the call's arguments and result, so the counts come from the very objects
# the CLI built.
LAYER_FUNCTIONS = {
    "serialize.load": ("serialize", ("instance_from_json", "flow_from_json")),
    "serialize.dump": ("serialize", ("result_to_json", "report_to_json", "dumps")),
    "network.catalog": ("network", ("enumerate_subpaths",)),
    "static_models.build": ("static_models", ("build_pm_lp", "build_am_lp", "build_gm_lp", "build_gamma1_compact_lp")),
    "static_models.extract": ("static_models", ("extract_gamma1_solution", "decompose_gamma1_solution")),
    "static_models.eval": ("static_models", ("evaluate_static",)),
    "dynamic_models.build": (
        "dynamic_models", ("build_dpm_lp", "build_dgm_lp", "build_dam_lp", "build_dam_compact_lp", "build_tr_lp"),
    ),
    "dynamic_models.eval": ("dynamic_models", ("evaluate_dynamic",)),
    "lp.solve": ("lp", ("solve_lp",)),
    "lp.lex": ("lp", ("lexicographic_solve",)),
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.calls = []  # (span name, function, args, kwargs, result, exception) of the current op

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer.calls.append((name, fn, args, kwargs, None, exc))
                    raise
            tracer.calls.append((name, fn, args, kwargs, result, None))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function wherever a robustflow module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "robustflow" or n.startswith("robustflow.")]
        patched = []
        for name, (module, functions) in LAYER_FUNCTIONS.items():
            for function in functions:
                fn = getattr(sys.modules[f"robustflow.{module}"], function)
                wrapper = self.wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
        try:
            yield
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def self_ms(self, first: int = 0) -> dict:
        """Self time per span name over spans[first:], in ms."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        total = {}
        for (name, start, end, _, _), child in zip(spans, covered):
            total[name] = total.get(name, 0.0) + (end - start - child) * 1000.0
        return total

    def op_counts(self) -> dict:
        """The current op's per-layer counts, from its recorded calls; clears them."""
        counts = dict.fromkeys(COUNTS, 0)
        built = {}  # id(lp) -> layer that built it
        for name, fn, args, kwargs, result, exc in self.calls:
            if exc is not None and not name.endswith(".eval"):
                continue  # the op failed; the check reports it
            layer = name.split(".")[0]
            call = inspect.signature(fn).bind(*args, **kwargs).arguments
            if name == "network.catalog":
                counts["network.st_paths"] += len(result.st_paths)
                counts["network.subpaths"] += len(result.subpaths)
            elif name.endswith(".build"):
                built[id(result.lp)] = layer
            elif name in ("lp.solve", "lp.lex") and result.status == "optimal":
                found = lp_counts(call["lp"], result.values, built.get(id(call["lp"])))
                for key, value in found.items():
                    counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value
            elif name.endswith(".eval"):
                if layer == "static_models":
                    arcs, gamma = len(call["net"].arcs), call["gamma"]
                else:
                    arcs, gamma = len(call["inst"].network.arcs), call["inst"].gamma
                counts["network.scenarios"] += scenarios(arcs, gamma)
                if exc is not None and hasattr(exc, "violations"):
                    counts[f"{layer}.eval_violations"] += len(exc.violations)
            elif fn.__name__ == "dumps":
                counts["serialize.out_bytes"] += len(result.encode("utf-8"))
        self.calls = []
        return counts


def lp_counts(lp, values, layer) -> dict:
    rows = cells_rows = artificial = nnz = scenario = tight = 0
    for con in lp.constraints:
        rows += 1
        nnz += len(con.coeffs)
        cells_rows += 2 if con.rel == "==" else 1
        if (con.rel == "<=" and con.rhs < 0) or (con.rel == ">=" and con.rhs > 0) or (
            con.rel == "==" and con.rhs != 0
        ):
            artificial += 1
        if "{" in (con.label or ""):
            scenario += 1
            if sum(c * values[j] for j, c in con.coeffs.items()) == con.rhs:
                tight += 1
    columns = lp.n_vars + sum(lp.free) + cells_rows + artificial + 1
    counts = {
        "lp.vars": lp.n_vars,
        "lp.rows": rows,
        "lp.nnz": nnz,
        "lp.tableau_cells": cells_rows * columns,
        "lp.value_bits_max": max(
            (abs(Fraction(v).numerator).bit_length() + Fraction(v).denominator.bit_length() for v in values),
            default=0,
        ),
    }
    if layer:
        counts[f"{layer}.scenario_rows"] = scenario
        counts[f"{layer}.tight_rows"] = tight
    return counts


def scenarios(arc_count: int, gamma: int) -> int:
    return sum(math.comb(arc_count, k) for k in range(min(gamma, arc_count) + 1))


# -- the run ---------------------------------------------------------------------


class Run:
    def __init__(self, workload: Workload, env: dict, rows_path: Path):
        self.w = workload
        self.env = env
        self.rows = open(rows_path, "w", encoding="utf-8")
        self.tracer = Tracer()
        self.passes = []
        self.op_ms = []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (pass, op id, text), first few kept
        self.plain_values = {}  # op id -> exact value from the CLI
        self.layer_counts = None

    def close(self):
        self.rows.close()

    def record(self, number, kind, op, seen, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend((number, kind, op["id"], p) for p in problems[:2])
        row = {
            "pass": number,
            "traced": kind == "traced",
            "id": op["id"],
            "instance": op["inst"],
            "cmd": op["cmd"],
            "model": op.get("model", op.get("flow_kind")),
            "gamma": op["gamma"],
            "horizon": op.get("horizon"),
            "lex": op.get("lex", False),
            "rc": seen.get("rc"),
            "value": None if "robust" not in seen else str(seen["robust"]),
            "nominal": None if "nominal" not in seen else str(seen["nominal"]),
            "violations": seen.get("violations"),
            "ms": round(seen["ms"], 4),
            "ok": not problems,
            "problems": problems,
            "env": self.env,
        }
        if "counts" in seen:
            row["counts"] = seen["counts"]
        self.rows.write(json.dumps(row, sort_keys=True) + "\n")

    def one_pass(self, number: int, traced: bool) -> dict:
        kind = "traced" if traced else "plain"
        first_span = len(self.tracer.spans)
        results = []
        start = time.perf_counter()
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for op in self.w.ops:
                seen = self.w.run_cli(op, self.tracer if traced else None)
                problems = check(op, seen, self.w.refs[op["id"]])
                if traced and op["id"] in self.plain_values and seen.get("robust") != self.plain_values[op["id"]]:
                    problems.append(f"traced value {seen.get('robust')} != untraced value {self.plain_values[op['id']]}")
                results.append((op, seen, problems))
        values = {op["id"]: seen["robust"] for op, seen, problems in results if "robust" in seen}
        related = relation_problems(self.w.ops, values)
        wall = time.perf_counter() - start
        for op, seen, problems in results:
            self.record(number, kind, op, seen, problems + related.get(op["id"], []))
        summary = {"kind": kind, "wall_s": wall, "op_total_ms": sum(seen["ms"] for _, seen, _ in results)}
        if traced:
            summary["layers_ms"] = self.tracer.self_ms(first_span)
            counts = dict.fromkeys(COUNTS, 0)
            for _, seen, _ in results:
                for name, value in seen.get("counts", {}).items():
                    counts[name] = max(counts[name], value) if name in MAX_COUNTS else counts[name] + value
            if self.layer_counts is None:
                self.layer_counts = counts
            elif counts != self.layer_counts:
                self.problems.append((number, kind, None, "per-layer counts differ between traced passes"))
                self.failed += 1
        else:
            self.op_ms.extend(seen["ms"] for _, seen, _ in results)
            self.plain_values.update(values)
        self.passes.append(summary)
        return summary


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile, as ``statistics.quantiles(method='inclusive')``."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(run: Run) -> dict:
    traced = [p for p in run.passes if p["kind"] == "traced"]
    plain = [p for p in run.passes if p["kind"] == "plain"]
    out = {}
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = statistics.median(p["layers_ms"].get(span_name, 0.0) for p in traced)
    out.update(run.layer_counts or {})
    shares = []
    for p in traced:
        layers = sum(ms for name, ms in p["layers_ms"].items() if name != "cli.op")
        shares.append(layers / p["op_total_ms"] if p["op_total_ms"] else 0.0)
    out["trace.coverage"] = statistics.median(shares)
    # Traced over untraced op time: the counting after each op is left out.
    out["trace.overhead_ratio"] = statistics.median(p["op_total_ms"] for p in traced) / statistics.median(
        p["op_total_ms"] for p in plain
    )
    scen = out["static_models.scenario_rows"] + out["dynamic_models.scenario_rows"]
    tight = out["static_models.tight_rows"] + out["dynamic_models.tight_rows"]
    out["lp.tight_share"] = tight / scen if scen else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run and check one workload's ops.")
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("python -O strips the package's own checks; run without it")
    common.use_checkout_package()
    import robustflow as rf
    from robustflow import cli

    common.check_loaded_from_checkout(rf)
    # File names in the CLI calls, and so in their outputs, are relative to
    # the run's directory, wherever the checkout is.
    os.chdir(args.dir)
    ops = common.read_json("ops.json")
    refs = common.read_json("refs.json")
    env = common.environment(rf, args.workload, args.seed)
    run = Run(Workload(cli, Path("."), ops, refs), env, Path("rows.jsonl"))
    start = time.perf_counter()
    deadline = start + args.seconds
    try:
        number = 0
        while True:
            traced = bool(args.trace) and number % 2 == 1
            run.one_pass(number, traced)
            number += 1
            kinds = {p["kind"] for p in run.passes}
            done = kinds == ({"plain", "traced"} if args.trace else {"plain"})
            projected = time.perf_counter() + run.passes[-1]["wall_s"]
            if done and projected > deadline:
                break
    finally:
        run.close()
    if args.trace:
        with open("spans.jsonl", "w", encoding="utf-8") as handle:
            for name, t0, t1, parent, op in run.tracer.spans:
                handle.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}) + "\n")
    plain = [p["wall_s"] for p in run.passes if p["kind"] == "plain"]
    result = {
        "env": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "passes": [{k: v for k, v in p.items() if k != "layers_ms"} for p in run.passes],
        "op_samples": len(run.op_ms),
        "measured_s": time.perf_counter() - start,
        "wall_s": statistics.median(plain),
        "op_ms.p50": percentile(run.op_ms, 0.5),
        "op_ms.p90": percentile(run.op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["per_layer"] = layer_metrics(run)
    common.write_json("result.json", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
