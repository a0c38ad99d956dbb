"""Independent references for every op of a workload.

Runs in its own process, before and outside the timed region, so that numpy
and scipy never count in the measuring process's memory. Writes
``refs.json`` into ``--dir``: one entry per op id.

* Solve ops: the optimum of the model LP from ``scipy.optimize.linprog``
  (HiGHS, floating point), and for lexicographic ops the best nominal value
  among those optima; plus exact closed forms where the family has one
  (bottleneck, unit capacities, ti-gap, price of robustness, balanced
  partitions).
* Evaluate ops: expected exit code, exact robust and nominal values, and the
  exact number of violations, from a brute-force worst case and a
  conservation count written here, on the JSON files alone.

The LPs are built by the package's builders; everything else here reads only
the input files.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import common

TI_GAP = {"dpm": 2, "dam": 2, "dam-compact": 2, "dgm": 2, "tr": Fraction(3, 2)}
TWO_HOP = {"pm": Fraction(3, 2), "am": Fraction(4, 3), "gm": 2, "gm1": 2}  # criterion 01
FAN = {"pm": 1, "am": 0, "gm": 1}  # criterion 02, any Gamma
# Embedding with horizon 1 keeps each static optimum (criterion 14): dpm = pm,
# dam = dam-compact = am, dgm = gm of the static instance.
EMBEDDED = {
    "two-hop": TWO_HOP,
    "fan-2": FAN,
    "bottleneck-1-2": {"pm": 2, "am": 3, "gm": 3},
}
DYNAMIC_TO_STATIC = {"dpm": "pm", "dam": "am", "dam-compact": "am", "dgm": "gm"}
# Nominal max flow of the scaled por-dynamic instances (criterion 13).
POR_DYNAMIC_FSTAR = {(1, "3/2"): 6, (2, "2"): 12}


# -- closed forms -------------------------------------------------------------


def closed_form(op, doc) -> dict:
    """Exact expectations from the family's theory; empty when there is none."""
    family, model, params = op["family"], op["model"], op["params"]
    if family == "bottleneck":
        gamma = op["gamma"]
        eta = params["beta"] * params["gamma"] * (params["gamma"] + 1)
        value = Fraction(eta, gamma + 1) if model == "pm" else Fraction(eta - gamma)
        return {"exact": value}
    if family == "two-hop":
        return {"exact": Fraction(TWO_HOP[model])}
    if family == "fan":
        return {"exact": Fraction(FAN[model])}
    if family == "embedded" and model in DYNAMIC_TO_STATIC:
        return {"exact": Fraction(EMBEDDED[params["static"]][DYNAMIC_TO_STATIC[model]])}
    if family == "unit":
        return {"exact": max(common.min_cut(doc) - op["gamma"], Fraction(0))}
    if family == "ti-gap":
        return {"exact": Fraction(TI_GAP[model])}
    if family == "por-static":
        return {"exact_nominal": common.min_cut(doc) / Fraction(params["alpha"])}
    if family == "por-dynamic" and model in ("dpm", "dgm"):
        fstar = POR_DYNAMIC_FSTAR[(params["gamma"], params["alpha"])]
        return {"exact_nominal": fstar / Fraction(params["alpha"])}
    if family == "partition" and model in ("dpm", "dgm"):
        # A balanced split forces a positive optimum; the converse fails
        # (criterion 12), so only this direction is checked.
        if common.has_balanced_split(params["b"]):
            return {"positive": True}
    return {}


# -- floating-point LP reference ------------------------------------------------


def model_lp(rf, op, doc):
    """The model LP the solve op's CLI call builds, via the package's builders."""
    inst = rf.instance_from_json(doc)
    model = op["model"]
    if not op["dynamic"]:
        gamma = op["gamma"]
        catalog = rf.enumerate_subpaths(inst) if model in ("pm", "gm") else None
        build = {
            "pm": lambda: rf.build_pm_lp(inst, catalog, gamma),
            "am": lambda: rf.build_am_lp(inst, gamma),
            "gm": lambda: rf.build_gm_lp(inst, catalog, gamma),
            "gm1": lambda: rf.build_gamma1_compact_lp(inst),
        }[model]()
    else:
        catalog = rf.enumerate_subpaths(inst.network) if model in ("dpm", "dgm", "tr") else None
        build = {
            "dpm": lambda: rf.build_dpm_lp(inst, catalog),
            "dgm": lambda: rf.build_dgm_lp(inst, catalog),
            "dam": lambda: rf.build_dam_lp(inst),
            "dam-compact": lambda: rf.build_dam_compact_lp(inst),
            "tr": lambda: rf.build_tr_lp(inst, catalog),
        }[model]()
    return build


def highs(lp, objective, floor=None):
    """Optimum of ``objective`` over ``lp`` with HiGHS; ``floor`` adds
    ``lp.objective >= floor`` (the lexicographic pin)."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = lp.n_vars
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = np.zeros(n)
    for j, c in objective.items():
        cost[j] = sign * float(c)
    ub, eq = ([], [], []), ([], [], [])
    b_ub, b_eq = [], []

    def add(target, rhs_list, coeffs, rhs, flip):
        row = len(rhs_list)
        for j, c in coeffs.items():
            target[0].append(row)
            target[1].append(j)
            target[2].append(-float(c) if flip else float(c))
        rhs_list.append(-float(rhs) if flip else float(rhs))

    constraints = [(con.coeffs, con.rel, con.rhs) for con in lp.constraints]
    if floor is not None:
        constraints.append((lp.objective, ">=" if lp.sense == "max" else "<=", floor))
    for coeffs, rel, rhs in constraints:
        if rel == "==":
            add(eq, b_eq, coeffs, rhs, False)
        else:
            add(ub, b_ub, coeffs, rhs, rel == ">=")

    def matrix(parts, rows):
        return coo_matrix((parts[2], (parts[0], parts[1])), shape=(rows, n)).tocsr() if rows else None

    result = linprog(
        cost,
        A_ub=matrix(ub, len(b_ub)),
        b_ub=b_ub or None,
        A_eq=matrix(eq, len(b_eq)),
        b_eq=b_eq or None,
        bounds=[(None, None) if free else (0, None) for free in lp.free],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS: {result.message}")
    return sign * result.fun


def solve_ref(rf, op, doc) -> dict:
    build = model_lp(rf, op, doc)
    primary = highs(build.lp, build.lp.objective)
    ref = {"float": primary}
    if op["lex"]:
        slack = 1e-9 * max(1.0, abs(primary))
        floor = primary - slack if build.lp.sense == "max" else primary + slack
        ref["float_nominal"] = highs(build.lp, build.nominal_coeffs, floor=floor)
    ref.update(closed_form(op, doc))
    return ref


# -- brute-force evaluation of a given flow ---------------------------------


def scenario_multiplicity(outside: int, budget: int) -> int:
    """Scenarios that add at most ``budget`` more arcs from ``outside`` arcs."""
    return sum(math.comb(outside, k) for k in range(budget + 1)) if budget >= 0 else 0


def subsets(items, gamma):
    for k in range(min(gamma, len(items)) + 1):
        yield from combinations(items, k)


def static_path_ref(doc, flow, gamma) -> dict:
    """Worst case of a path flow by sweeping every scenario of <= gamma arcs."""
    arc_ids = [a["id"] for a in doc["arcs"]]
    bit = {a: 1 << i for i, a in enumerate(arc_ids)}
    caps = {a["id"]: common.frac(a["capacity"]) for a in doc["arcs"]}
    heads = {a["id"]: (a["tail"], a["head"]) for a in doc["arcs"]}
    routes = flow["routes"]
    carried = []
    load = {}
    for index, value in flow["entries"]:
        arcs = routes[str(index)]
        node = doc["source"]
        for a in arcs:
            if heads[a][0] != node:
                raise ValueError(f"route {index} is not a path")
            node = heads[a][1]
        if node != doc["sink"]:
            raise ValueError(f"route {index} does not end at the sink")
        value = common.frac(value)
        mask = 0
        for a in arcs:
            mask |= bit[a]
            load[a] = load.get(a, 0) + value
        carried.append((mask, value))
    over = sum(1 for a, v in load.items() if v > caps[a])
    if over:
        return {"rc": 4, "violations": over}
    scale = math.lcm(*(v.denominator for _, v in carried)) if carried else 1
    scaled = [(mask, int(v * scale)) for mask, v in carried]
    worst = 0
    for scenario in subsets(list(bit.values()), gamma):
        hit = sum(scenario)
        worst = max(worst, sum(v for mask, v in scaled if mask & hit))
    nominal = sum((v for _, v in carried), Fraction(0))
    return {"rc": 0, "violations": 0, "nominal": nominal, "robust": nominal - Fraction(worst, scale)}


def static_arc_ref(doc, flow, gamma) -> dict:
    """Robust conservation of an arc flow, counted per (node, scenario)."""
    x = {key: common.frac(value) for key, value in flow["entries"]}
    arcs = doc["arcs"]
    over = sum(1 for a in arcs if x.get(a["id"], 0) > common.frac(a["capacity"]))
    interior = [v for v in doc["nodes"] if v not in (doc["source"], doc["sink"])]
    violations = over
    for v in interior:
        incoming = [a["id"] for a in arcs if a["head"] == v]
        out = sum((x.get(a["id"], 0) for a in arcs if a["tail"] == v), Fraction(0))
        if out == 0:
            continue
        inflow = sum((x.get(a, 0) for a in incoming), Fraction(0))
        for removed in subsets(incoming, gamma):
            if inflow - sum((x.get(a, 0) for a in removed), Fraction(0)) < out:
                violations += scenario_multiplicity(len(arcs) - len(incoming), gamma - len(removed))
    if violations:
        return {"rc": 4, "violations": violations}
    into_sink = sorted((x.get(a["id"], Fraction(0)) for a in arcs if a["head"] == doc["sink"]), reverse=True)
    nominal = sum(into_sink, Fraction(0))
    return {"rc": 0, "violations": 0, "nominal": nominal, "robust": nominal - sum(into_sink[:gamma], Fraction(0))}


def timed_arc_ref(doc, flow) -> dict:
    """Robust conservation and worst arrival of a timed arc flow."""
    horizon, gamma = doc["horizon"], doc["gamma"]
    arcs = {a["id"]: a for a in doc["arcs"]}
    entries = [(a, theta, common.frac(v)) for a, theta, v in flow["entries"] if common.frac(v) != 0]
    violations = sum(1 for a, theta, v in entries if v > common.frac(arcs[a]["capacity"]) or not 1 <= theta <= horizon)
    outflow = {}
    for a, theta, v in entries:
        if arcs[a]["tail"] != doc["source"]:
            key = (arcs[a]["tail"], theta)
            outflow[key] = outflow.get(key, 0) + v

    def arrivals(incoming, delayed):
        got = {}
        for a, theta, v in entries:
            if a in incoming:
                at = theta + arcs[a]["travel_time"] + (arcs[a]["delay"] if a in delayed else 0)
                if at <= horizon:
                    got[at] = got.get(at, 0) + v
        return got

    for v in doc["nodes"]:
        if v in (doc["source"], doc["sink"]):
            continue
        incoming = [a for a in arcs if arcs[a]["head"] == v]
        demand = {theta: out for (node, theta), out in outflow.items() if node == v}
        if not demand:
            continue
        for delayed in subsets(incoming, gamma):
            got = arrivals(set(incoming), set(delayed))
            short = sum(1 for theta, out in demand.items() if got.get(theta, 0) < out)
            violations += short * scenario_multiplicity(len(arcs) - len(incoming), gamma - len(delayed))
    if violations:
        return {"rc": 4, "violations": violations}
    into_sink = [a for a in arcs if arcs[a]["head"] == doc["sink"]]
    totals = [sum(arrivals(set(into_sink), set(d)).values(), Fraction(0)) for d in subsets(into_sink, gamma)]
    return {"rc": 0, "violations": 0, "nominal": totals[0], "robust": min(totals)}


def verify_ref(op, doc, flow) -> dict:
    if op["flow_kind"] == "path":
        return static_path_ref(doc, flow, op["gamma"])
    if op["flow_kind"] == "arc":
        return static_arc_ref(doc, flow, op["gamma"])
    return timed_arc_ref(doc, flow)


def encode(ref: dict) -> dict:
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in ref.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compute independent references for a workload.")
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    ops = common.read_json(args.dir / "ops.json")
    inputs = args.dir / "inputs"
    docs = {}
    refs = {}
    rf = None
    for op in ops:
        if op["inst"] not in docs:
            docs[op["inst"]] = common.read_json(inputs / f"{op['inst']}.json")
        doc = docs[op["inst"]]
        if op["cmd"] == "evaluate":
            refs[op["id"]] = encode(verify_ref(op, doc, common.read_json(inputs / op["flow"])))
            continue
        if rf is None:
            common.use_checkout_package()
            import robustflow as rf

            common.check_loaded_from_checkout(rf)
        refs[op["id"]] = encode(solve_ref(rf, op, doc))
    common.write_json(args.dir / "refs.json", refs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
