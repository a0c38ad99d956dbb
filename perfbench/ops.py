"""Workload definitions and the set-up step that writes their input files.

A workload is a list of operations ("ops"), each one user-level CLI call:
``robustflow solve`` or ``robustflow evaluate`` on an instance file. The
workload seed sets the seeds of the random families and the op order; the
structured families are fixed. Random instances are drawn until they pass a
size filter computed by this benchmark (not by the package), so that no seed
yields an op that dwarfs the rest of the pass.

Run as a script, this is one of two steps:

* ``--select``: draw the random instances and apply the size filters; writes
  the accepted ``gen_random`` arguments to ``selection.json`` in ``--dir``.
  Nothing here is timed.
* without it, the set-up step: import robustflow, generate the accepted
  instances and their flows, write them with ``ops.json`` into ``--dir``, and
  print the step's timings as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import common

# Static solves on bottleneck(gamma, beta) at Gamma = gamma. With gamma = 2 the
# lexicographic solves and beta = 3 are left out: they take 0.4-8 s each
# (1 s for am on bottleneck(2, 3)), too long for a pass.
BOTTLENECK = {
    (1, 1): ("pm", "am", "gm", "gm1", "gm+lex"),
    (1, 2): ("pm", "am", "gm", "gm1", "gm+lex"),
    (1, 3): ("pm", "am", "gm", "gm1", "gm+lex"),
    (1, 4): ("pm", "am", "gm", "gm1", "gm+lex"),
    (2, 1): ("pm", "am", "gm"),
    (2, 2): ("pm", "am", "gm"),
}
# por-static(Gamma, alpha): lexicographic solves. Gamma = 3 takes 1.2 s (pm)
# and 2 s (gm), too long for a pass.
POR_STATIC = ((2, "6/5", ("pm", "gm")),)
FANS = (1, 2, 3)  # fan(Gamma): pm, am, gm at Gamma
# Seeded random DAGs of criteria 04-06 shape at Gamma = 1, five solves each:
# (nodes, arcs, simple paths, subpaths). A DAG is kept only when it has
# exactly these sizes, the most common ones for its node and arc count, so
# that its LPs have the same size whatever the seed.
DAGS = (
    (5, 6, 3, 15), (6, 8, 4, 18), (7, 10, 5, 28), (8, 12, 6, 31), (5, 7, 4, 15),
    (6, 9, 5, 24), (7, 11, 6, 34), (8, 13, 7, 37), (5, 8, 5, 19),
)
# Fixed unit-capacity DAGs of criterion 07 (its instance k has seed 300 + k),
# gm at Gamma = 2 and 3. The others take 0.6-28 s at Gamma = 3.
UNIT_DAGS = (0, 4, 6, 9)
# Fixed bases (4 nodes, 5 arcs, capacities <= 2, these seeds): gm on the base,
# gm and gm1 on its capacity split.
SPLIT_BASES = (502, 505, 506)

DYNAMIC_MODELS = ("dpm", "dam", "dam-compact", "dgm", "tr")
# dgm on the last two takes 1.6 s and 10.7 s per solve, and dam on (2,2,2,4)
# 2.7 s, too long for a pass. dam-compact on (2,2,2,4) sets the peak memory.
PARTITIONS = {
    (1, 1): DYNAMIC_MODELS,
    (2, 2): DYNAMIC_MODELS,
    (2, 4): DYNAMIC_MODELS,
    (1, 1, 2): DYNAMIC_MODELS,
    (2, 2, 2): DYNAMIC_MODELS,
    (2, 2, 4): DYNAMIC_MODELS,
    (1, 1, 1, 1): ("dpm", "dam", "dam-compact", "tr"),
    (2, 2, 2, 4): ("dpm", "dam-compact", "tr"),
}
# por-dynamic(Gamma, alpha), scaled twin: lexicographic solves. dgm on
# Gamma = 2 takes 9.4 s.
POR_DYNAMIC = ((1, "3/2", ("dpm", "dam", "dgm", "tr")), (2, "2", ("dpm", "dam", "tr")))
# Random-dynamic instances (6 nodes, 8 arcs, T = 6, Gamma = 2), four solves
# each. dgm is left out here: its time varies 30-500 ms between instances of
# one size. An instance is kept only with 4 simple paths, 18 subpaths and a
# dpm LP of 15-20 variables and 58-64 rows, so that the solve times vary
# about 2-fold between seeds rather than 10-fold.
RANDOM_DYNAMIC = 10
# Static instances embedded with horizon 1 (criterion 14), at their Gamma.
EMBEDDED = (("two-hop", 1), ("fan-2", 2), ("bottleneck-1-2", 1))

VERIFY_STATIC = 60  # one path-flow and one arc-flow evaluate each
VERIFY_DYNAMIC = 60  # one timed arc-flow evaluate each; 8-11 arcs and Gamma 1-2 in turn
# (nodes, arcs, Gamma, busy) of the static verify DAGs, used in turn. Gamma = 3
# only up to 30 arcs, which caps the sweep at 4,526 scenarios. The arc-flow
# check costs about scenarios x interior nodes that carry flow, so a DAG is
# kept only when that node count is ``busy``, the usual count for the shape:
# then each shape's ops do about the same work whatever the seed.
VERIFY_SHAPES = (
    (8, 18, 3, 4), (9, 22, 2, 6), (10, 24, 3, 5), (11, 26, 2, 7), (12, 28, 2, 6), (13, 30, 3, 7),
    (14, 34, 2, 8), (8, 24, 2, 4), (10, 20, 3, 5), (12, 30, 2, 6), (9, 26, 3, 5), (14, 28, 2, 7),
)


class Clock:
    """Sums wall time per named step."""

    def __init__(self):
        self.ms = {}

    @contextmanager
    def step(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + (time.perf_counter() - start) * 1000.0


def as_doc(net) -> dict:
    """Minimal instance document for this benchmark's own graph code."""
    return {
        "nodes": list(net.nodes),
        "arcs": [
            {"id": a.id, "tail": a.tail, "head": a.head, "capacity": str(a.capacity)}
            for a in net.arcs
        ],
        "source": net.source,
        "sink": net.sink,
    }


def subpath_count(net) -> int:
    return common.subpath_count(as_doc(net))


def dpm_size_ok(rf, inst) -> bool:
    """The size filter of the random-dynamic instances in ``timed-solve``."""
    doc = as_doc(inst.network)
    if len(common.st_paths(doc)) != 4 or common.subpath_count(doc) != 18:
        return False
    lp = rf.build_dpm_lp(inst, rf.enumerate_subpaths(inst.network)).lp
    return 15 <= lp.n_vars <= 20 and 58 <= len(lp.constraints) <= 64


def carrying_nodes(net, arc_flow) -> int:
    """Interior nodes with outgoing flow: the arc-flow check's work per scenario."""
    return sum(
        1 for v in net.nodes
        if v not in (net.source, net.sink) and any(arc_flow[a.id] for a in net.out_arcs(v))
    )


class Builder:
    """Collects the instances, flows and ops of one workload."""

    def __init__(self, rf, workload: str, seed: int, clock: Clock, chosen=None):
        self.rf = rf
        self.workload = workload
        self.seed = seed
        self.clock = clock
        # Instance key -> keyword arguments of its accepted gen_random draw:
        # filled while selecting (``chosen`` is None), given otherwise.
        self.selecting = chosen is None
        self.chosen = {} if chosen is None else chosen
        self.instances = {}  # key -> (package object, dynamic?)
        self.flows = {}  # file name -> flow document
        self.ops = []

    def rng(self, family: str) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{family}")

    def instance(self, key, obj, dynamic=False):
        with self.clock.step("gen"):
            self.instances[key] = (obj() if callable(obj) else obj, dynamic)
        return key

    def random_instance(self, key, rng, draw, accept, dynamic=False):
        """A seeded ``gen_random`` instance.

        While selecting, ``draw(rng)`` gives gen_random's keyword arguments,
        and draws repeat until ``accept`` passes on the instance; the accepted
        arguments are kept. Otherwise the kept arguments are used as they are,
        and only their instance is generated.
        """
        if not self.selecting:
            return self.instance(key, lambda: self.rf.gen_random(**self.chosen[key]), dynamic)
        for _ in range(5000):
            kwargs = dict(draw(rng), seed=rng.randrange(1 << 30))
            obj = self.rf.gen_random(**kwargs)
            if accept(obj):
                self.chosen[key] = kwargs
                return self.instance(key, obj, dynamic)
        raise RuntimeError(f"no random instance for {key} passed the size filter")

    def solve(self, key, model, family, *, gamma=None, lex=False, group=None, params=None):
        at = "" if gamma is None else f"@{gamma}"
        self.ops.append(
            {
                "id": f"{key}{at}/{model}{'+lex' if lex else ''}",
                "cmd": "solve",
                "inst": key,
                "model": model,
                "gamma": gamma,
                "lex": lex,
                "group": group or f"{key}{at}",
                "family": family,
                "params": params or {},
            }
        )

    def evaluate(self, key, flow, kind, gamma=None, catalog=None):
        name = f"{key}.{kind}.flow.json"
        with self.clock.step("serialize"):
            self.flows[name] = self.rf.flow_to_json(flow, catalog)
        self.ops.append(
            {
                "id": f"{key}/{kind}",
                "cmd": "evaluate",
                "inst": key,
                "flow": name,
                "flow_kind": kind,
                "gamma": gamma,
                "family": "verify",
            }
        )


def static_solve(b: Builder) -> None:
    rf = b.rf
    key = b.instance("two-hop", rf.gen_two_hop)
    for model in ("pm", "am", "gm", "gm1", "gm+lex"):
        b.solve(key, model.split("+")[0], "two-hop", gamma=1, lex=model.endswith("+lex"))
    for gamma in FANS:
        key = b.instance(f"fan-{gamma}", lambda: rf.gen_fan(gamma))
        for model in ("pm", "am", "gm"):
            b.solve(key, model, "fan", gamma=gamma)
    for (gamma, beta), models in BOTTLENECK.items():
        key = b.instance(f"bottleneck-{gamma}-{beta}", lambda: rf.gen_bottleneck(gamma, beta))
        for model in models:
            b.solve(key, model.split("+")[0], "bottleneck", gamma=gamma, lex=model.endswith("+lex"),
                    params={"gamma": gamma, "beta": beta})
    for gamma, alpha, models in POR_STATIC:
        key = b.instance(f"por-static-{gamma}", lambda: rf.gen_por_static(gamma, rf.rat(alpha))[0])
        for model in models:
            b.solve(key, model, "por-static", gamma=gamma, lex=True, params={"alpha": alpha})
    rng = b.rng("dag")
    for k, (nodes, arcs, paths, subpaths) in enumerate(DAGS):
        key = b.random_instance(
            f"dag{k}", rng,
            lambda r: dict(kind="dag", nodes=nodes, arcs=arcs, max_cap=3),
            lambda net: len(common.st_paths(as_doc(net))) == paths and subpath_count(net) == subpaths,
        )
        for model in ("pm", "am", "gm", "gm1"):
            b.solve(key, model, "dag", gamma=1)
        b.solve(key, "gm", "dag", gamma=1, lex=True)
    for k in UNIT_DAGS:
        nodes = 5 + k % 3
        key = b.instance(
            f"unit{k}", lambda: rf.gen_random("dag", nodes, 2 * (nodes - 2) + 2 + k % 3, max_cap=1, seed=300 + k)
        )
        for gamma in (2, 3):
            b.solve(key, "gm", "unit", gamma=gamma)
    for seed in SPLIT_BASES:
        base = b.instance(f"splitbase{seed}", lambda: rf.gen_random("dag", 4, 5, max_cap=2, seed=seed))
        split = b.instance(f"split{seed}", lambda: rf.split_capacities(b.instances[base][0]))
        b.solve(base, "gm", "split", gamma=1)
        for model in ("gm", "gm1"):
            b.solve(split, model, "split", gamma=1, group=f"{base}@1")


def timed_solve(b: Builder) -> None:
    rf = b.rf
    key = b.instance("ti-gap", rf.gen_ti_gap, dynamic=True)
    for model in DYNAMIC_MODELS:
        b.solve(key, model, "ti-gap")
    for values, models in PARTITIONS.items():
        key = b.instance(f"partition-{'-'.join(map(str, values))}", lambda: rf.gen_partition(values), dynamic=True)
        for model in models:
            b.solve(key, model, "partition", params={"b": list(values)})
    for name, gamma in EMBEDDED:
        static = {"two-hop": rf.gen_two_hop, "fan-2": lambda: rf.gen_fan(2),
                  "bottleneck-1-2": lambda: rf.gen_bottleneck(1, 2)}[name]
        key = b.instance(f"embedded-{name}", lambda: rf.embed_static(static(), gamma), dynamic=True)
        for model in DYNAMIC_MODELS:
            b.solve(key, model, "embedded", params={"static": name})
    for gamma, alpha, models in POR_DYNAMIC:
        key = b.instance(f"por-dynamic-{gamma}", lambda: rf.gen_por_dynamic(gamma, rf.rat(alpha))[1], dynamic=True)
        for model in models:
            b.solve(key, model, "por-dynamic", lex=True, params={"gamma": gamma, "alpha": alpha})
    rng = b.rng("random-dynamic")
    for k in range(RANDOM_DYNAMIC):
        key = b.random_instance(
            f"dyn{k}", rng,
            lambda r: dict(kind="dynamic", nodes=6, arcs=8, max_cap=3, max_tau=2, max_delay=2, horizon=6, gamma=2),
            lambda inst: dpm_size_ok(rf, inst),
            dynamic=True,
        )
        for model in ("dpm", "dam", "dam-compact", "tr"):
            b.solve(key, model, "random-dynamic")


def verify(b: Builder) -> None:
    rf = b.rf
    rng = b.rng("static")
    for k in range(VERIFY_STATIC):
        nodes, arcs, gamma, busy = VERIFY_SHAPES[k % len(VERIFY_SHAPES)]
        key = b.random_instance(
            f"vdag{k}", rng,
            lambda r: dict(kind="dag", nodes=nodes, arcs=arcs, max_cap=4),
            lambda net: len(common.st_paths(as_doc(net))) <= 300
            and carrying_nodes(net, rf.nominal_max_flow(net)[1]) == busy,
        )
        net = b.instances[key][0]
        with b.clock.step("maxflow"):
            _, arc_flow, _ = rf.nominal_max_flow(net)
            pieces = rf.path_decompose(arc_flow, net, net.source, net.sink)
        # The routes written with the path flow let the reference read it
        # without the package's path numbering.
        catalog = SimpleNamespace(st_paths=rf.enumerate_st_paths(net))
        index = {p.arcs: i for i, p in enumerate(catalog.st_paths)}
        b.evaluate(key, rf.StaticFlow("path", {index[p.arcs]: v for p, v in pieces}), "path", gamma, catalog)
        b.evaluate(key, rf.StaticFlow("arc", {a: v for a, v in arc_flow.items() if v != 0}), "arc", gamma)
    rng = b.rng("dynamic")
    for k in range(VERIFY_DYNAMIC):
        key = b.random_instance(
            f"vdyn{k}", rng,
            lambda r: dict(kind="dynamic", nodes=6, arcs=8 + k % 4, max_cap=3, max_tau=2,
                           max_delay=2, horizon=6, gamma=1 + k // 4 % 2),
            lambda inst: True,
            dynamic=True,
        )
        with b.clock.step("maxflow"):
            _, flow = rf.nominal_dynamic_max_flow(b.instances[key][0])
        b.evaluate(key, flow, "timed-arc")


BUILDERS = {"static-solve": static_solve, "timed-solve": timed_solve, "verify": verify}


def build(rf, workload: str, seed: int, clock: Clock, chosen=None) -> Builder:
    b = Builder(rf, workload, seed, clock, chosen)
    BUILDERS[workload](b)
    b.rng("order").shuffle(b.ops)
    return b


def write_inputs(b: Builder, directory: Path) -> None:
    """Serialize every instance and flow, plus the op list, into ``directory``."""
    rf = b.rf
    inputs = directory / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    with b.clock.step("serialize"):
        texts = {f"{key}.json": rf.dumps(rf.instance_to_json(obj)) for key, (obj, _) in b.instances.items()}
        texts.update({name: rf.dumps(doc) for name, doc in b.flows.items()})
    for name, text in texts.items():
        (inputs / name).write_text(text, encoding="utf-8")
    ops = []
    for op in b.ops:
        obj, dynamic = b.instances[op["inst"]]
        op = dict(op, dynamic=dynamic)
        if dynamic:
            op.update(gamma=obj.gamma, horizon=obj.horizon)
        ops.append(op)
    common.write_json(directory / "ops.json", ops)


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="Select or write one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--select", action="store_true", help="only draw and filter the random instances")
    args = parser.parse_args(argv)
    selection = args.dir / "selection.json"
    chosen = None if args.select else common.read_json(selection)
    common.use_checkout_package()
    import robustflow as rf

    common.check_loaded_from_checkout(rf)
    imported = time.perf_counter()
    clock = Clock()
    b = build(rf, args.workload, args.seed, clock, chosen)
    if args.select:
        common.write_json(selection, b.chosen)
        return 0
    write_inputs(b, args.dir)
    end = time.perf_counter()
    print(json.dumps({
        "setup_s": end - start,
        "import_s": imported - start,
        "instances.gen_ms": clock.ms.get("gen", 0.0),
        "maxflow.ms": clock.ms.get("maxflow", 0.0),
        "ops": len(b.ops),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
