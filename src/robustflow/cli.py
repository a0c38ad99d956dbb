"""Command-line workbench for the robust flow models.

Subcommands:

* ``generate`` — write an instance from one of the built-in families.
* ``solve``    — solve one model on an instance; JSON or CSV output.
* ``compare``  — solve several models and tabulate them side by side.
* ``evaluate`` — check a flow file against an instance, LP-free.
* ``suite``    — run an invariant suite or the conjecture probe.

Exit codes: 0 success, 2 parameter/domain error, 3 enumeration guard
exceeded, 4 invariant violation (including infeasible flows).  All outputs
are deterministic; ``compare`` adds wall-clock timings unless ``--no-timing``
is passed, which makes reruns byte-identical.

Usage examples::

    robustflow generate bottleneck --gamma 1 --beta 2 -o net.json
    robustflow solve net.json --model gm --gamma 1
    robustflow compare net.json --models pm,am,gm --gamma 1 --no-timing
    robustflow suite static-invariants --seeds 5
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .dynamic_models import (
    DYNAMIC_MODELS,
    DynamicFlow,
    DynamicInstance,
    embed_static,
    evaluate_dynamic,
    solve_dynamic,
)
from .instances import (
    brute_force_partition,
    gen_bottleneck,
    gen_fan,
    gen_partition,
    gen_por_dynamic,
    gen_por_static,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    partition_multisets,
    split_capacities,
)
from .maxflow import nominal_max_flow
from .network import (
    GuardExceeded,
    Network,
    NetworkError,
    enumerate_subpaths,
    validate_network,
)
from .rational import rat
from .serialize import (
    compare_to_csv,
    dumps,
    flow_from_json,
    instance_from_json,
    instance_to_json,
    report_to_json,
    result_to_json,
)
from .static_models import (
    STATIC_MODELS,
    InfeasibleFlowError,
    evaluate_static,
    solve_static,
)

SUITES = (
    "static-invariants",
    "dynamic-invariants",
    "embedding",
    "oracle-equivalence",
    "partition-roundtrip",
    "conjecture-probe",
)
MODEL_CHOICES = STATIC_MODELS + DYNAMIC_MODELS


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise NetworkError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_json(data)


def cmd_generate(args) -> int:
    family = args.family
    if family == "two-hop":
        instance = gen_two_hop()
    elif family == "fan":
        instance = gen_fan(args.gamma)
    elif family == "bottleneck":
        instance = gen_bottleneck(args.gamma, args.beta)
    elif family == "por-static":
        if args.alpha is None:
            raise NetworkError("por-static needs --alpha")
        net, scaled, _ = gen_por_static(args.gamma, rat(args.alpha))
        instance = scaled if args.scaled else net
    elif family == "por-dynamic":
        if args.alpha is None:
            raise NetworkError("por-dynamic needs --alpha")
        _, instance, _ = gen_por_dynamic(args.gamma, rat(args.alpha))
    elif family == "partition":
        if not args.b:
            raise NetworkError("partition needs --b values")
        instance = gen_partition(tuple(args.b), extra_budget=args.extra_budget)
    elif family == "ti-gap":
        instance = gen_ti_gap()
    elif family.startswith("random-"):
        instance = gen_random(
            family.removeprefix("random-"),
            nodes=args.nodes,
            arcs=args.arcs,
            max_cap=args.max_cap,
            max_tau=args.max_tau,
            max_delay=args.max_delay,
            horizon=args.horizon or 4,
            gamma=args.gamma,
            seed=args.seed,
        )
    else:
        raise NetworkError(f"unknown family {family!r}")
    if args.split:
        if isinstance(instance, DynamicInstance):
            raise NetworkError("--split applies to static instances only")
        instance = split_capacities(instance)
    _write(dumps(instance_to_json(instance)), args.out)
    return 0


def _solve_any(instance, model: str, gamma, horizon, lex: bool):
    """Solve one model on a loaded instance; returns (flow, report, catalog, meta)."""
    if model in STATIC_MODELS:
        if isinstance(instance, DynamicInstance):
            raise NetworkError(f"model {model!r} needs a static instance")
        g = 1 if gamma is None else gamma
        catalog = enumerate_subpaths(instance) if model != "am" else None
        flow, report = solve_static(
            instance, model, g, maximize_nominal=lex, catalog=catalog
        )
        return flow, report, catalog, {"gamma": g, "horizon": None}
    if not isinstance(instance, DynamicInstance):
        raise NetworkError(f"model {model!r} needs a dynamic instance (horizon field)")
    inst = DynamicInstance(
        instance.network,
        horizon if horizon is not None else instance.horizon,
        gamma if gamma is not None else instance.gamma,
    )
    catalog = (
        enumerate_subpaths(inst.network) if model in ("dpm", "dgm", "tr") else None
    )
    flow, report = solve_dynamic(
        inst, model, maximize_nominal=lex, catalog=catalog
    )
    return flow, report, catalog, {"gamma": inst.gamma, "horizon": inst.horizon}


def _report_scenarios(report):
    return getattr(report, "worst_scenarios", None) or getattr(
        report, "minimizing_scenarios", ()
    )


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    start = time.perf_counter()
    flow, report, catalog, meta = _solve_any(
        instance, args.model, args.gamma, args.horizon, args.lex_nominal
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    if args.format == "csv":
        row = {
            "model": args.model,
            "robust_value": report.robust_value,
            "nominal_value": report.nominal_value,
            "worst_scenarios": _report_scenarios(report),
            "wall_ms": wall_ms,
        }
        _write(compare_to_csv([row], include_timing=not args.no_timing), args.out)
        return 0
    result = result_to_json(
        args.model,
        meta["gamma"],
        flow,
        report,
        horizon=meta["horizon"],
        catalog=catalog,
    )
    result["manifest"] = {
        "command": "solve",
        "instance": args.instance,
        "model": args.model,
        "gamma": meta["gamma"],
        "horizon": meta["horizon"],
        "lex_nominal": args.lex_nominal,
    }
    _write(dumps(result), args.out)
    return 0


def cmd_compare(args) -> int:
    instance = _load_instance(args.instance)
    if args.models:
        models = [m.strip() for m in args.models.split(",") if m.strip()]
    elif isinstance(instance, DynamicInstance):
        models = list(DYNAMIC_MODELS)
    else:
        models = ["pm", "am", "gm"]
    for model in models:
        if model not in MODEL_CHOICES:
            raise NetworkError(f"unknown model {model!r}")
    rows = []
    for model in models:
        start = time.perf_counter()
        flow, report, catalog, meta = _solve_any(
            instance, model, args.gamma, args.horizon, args.lex_nominal
        )
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "model": model,
                "robust_value": report.robust_value,
                "nominal_value": report.nominal_value,
                "worst_scenarios": _report_scenarios(report),
                "wall_ms": wall_ms,
            }
        )
    _write(compare_to_csv(rows, include_timing=not args.no_timing), args.out)
    return 0


def cmd_evaluate(args) -> int:
    instance = _load_instance(args.instance)
    try:
        with open(args.flow, "r", encoding="utf-8") as handle:
            flow = flow_from_json(json.load(handle))
    except OSError as exc:
        raise NetworkError(f"cannot read {args.flow}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkError(f"{args.flow} is not valid JSON: {exc}") from exc
    if isinstance(instance, DynamicInstance):
        if not isinstance(flow, DynamicFlow):
            raise NetworkError(
                "the instance is dynamic but the flow file is static (timed false)"
            )
        inst = DynamicInstance(
            instance.network,
            args.horizon if args.horizon is not None else instance.horizon,
            args.gamma if args.gamma is not None else instance.gamma,
        )
        report = evaluate_dynamic(flow, inst, kind=args.kind)
    else:
        if isinstance(flow, DynamicFlow):
            raise NetworkError(
                "the instance is static but the flow file is timed"
            )
        gamma = 1 if args.gamma is None else args.gamma
        kind = args.kind or flow.kind
        catalog = (
            enumerate_subpaths(instance) if kind in ("path", "subpath") else None
        )
        report = evaluate_static(flow, instance, catalog, gamma)
    data = {"feasible": True}
    data.update(report_to_json(report))
    _write(dumps(data), args.out)
    return 0


def _drop_arc(net: Network, arc_id):
    """Remove one arc and every node no longer on a source-sink route."""
    arcs = [a for a in net.arcs if a.id != arc_id]
    forward, backward = {net.source}, {net.sink}
    changed = True
    while changed:
        changed = False
        for a in arcs:
            if a.tail in forward and a.head not in forward:
                forward.add(a.head)
                changed = True
            if a.head in backward and a.tail not in backward:
                backward.add(a.tail)
                changed = True
    keep = forward & backward
    if net.source not in keep or net.sink not in keep:
        return None
    arcs = [a for a in arcs if a.tail in keep and a.head in keep]
    if not arcs:
        return None
    nodes = [v for v in net.nodes if v in keep]
    candidate = Network(nodes, arcs, net.source, net.sink, meta=dict(net.meta))
    return candidate if validate_network(candidate).ok else None


def _minimize(net: Network, violated) -> Network:
    """Greedily drop arcs while the violation persists."""
    current = net
    progress = True
    while progress:
        progress = False
        for arc in list(current.arcs):
            candidate = _drop_arc(current, arc.id)
            if candidate is None:
                continue
            try:
                still_bad = violated(candidate)
            except (NetworkError, GuardExceeded, RuntimeError):
                continue
            if still_bad:
                current = candidate
                progress = True
                break
    return current


class _SuiteFailure(Exception):
    def __init__(self, message: str, net=None, violated=None):
        super().__init__(message)
        self.net = net
        self.violated = violated


def _check(ok: bool, message: str, net=None, violated=None) -> None:
    if not ok:
        raise _SuiteFailure(message, net=net, violated=violated)


def _parse_sizes(text: str):
    try:
        nodes, arcs = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise NetworkError(f"--sizes must be 'nodes,arcs', got {text!r}") from exc
    return nodes, arcs


def _static_value(net, model, gamma, catalog=None, lex=False):
    flow, report = solve_static(
        net, model, gamma, maximize_nominal=lex, catalog=catalog
    )
    return report


def _suite_static_invariants(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "6,10")
    lines = []
    for seed in range(args.seeds):
        net = gen_random("dag", nodes, arcs, max_cap=4, seed=seed)
        catalog = enumerate_subpaths(net)
        nominal, _, _ = nominal_max_flow(net)
        for gamma in (1, 2):
            vals = {
                m: _static_value(net, m, gamma, catalog).robust_value
                for m in ("pm", "am", "gm")
            }

            def bad_order(candidate, g=gamma):
                cat = enumerate_subpaths(candidate)
                v = {
                    m: _static_value(candidate, m, g, cat).robust_value
                    for m in ("pm", "am", "gm")
                }
                return v["gm"] < v["pm"] or v["gm"] < v["am"]

            _check(
                vals["gm"] >= vals["pm"] and vals["gm"] >= vals["am"],
                f"seed {seed} gamma {gamma}: gm below pm/am: {vals}",
                net,
                bad_order,
            )
            if gamma == 1:
                def bad_factor(candidate):
                    cat = enumerate_subpaths(candidate)
                    v = {
                        m: _static_value(candidate, m, 1, cat).robust_value
                        for m in ("pm", "am", "gm")
                    }
                    return v["gm"] > 2 * v["pm"] or v["am"] > 2 * v["pm"]

                _check(
                    vals["gm"] <= 2 * vals["pm"] and vals["am"] <= 2 * vals["pm"],
                    f"seed {seed}: budget-1 factor-2 bound broken: {vals}",
                    net,
                    bad_factor,
                )

                def bad_compact(candidate):
                    cat = enumerate_subpaths(candidate)
                    return (
                        _static_value(candidate, "gm1", 1, cat).robust_value
                        != _static_value(candidate, "gm", 1, cat).robust_value
                    )

                compact = _static_value(net, "gm1", 1, catalog).robust_value
                _check(
                    compact == vals["gm"],
                    f"seed {seed}: compact budget-1 model diverges: {compact} vs {vals['gm']}",
                    net,
                    bad_compact,
                )

                def bad_lex(candidate):
                    cat = enumerate_subpaths(candidate)
                    best = nominal_max_flow(candidate)[0]
                    rep = _static_value(candidate, "gm", 1, cat, lex=True)
                    return rep.nominal_value != best

                lex_report = _static_value(net, "gm", 1, catalog, lex=True)
                _check(
                    lex_report.nominal_value == nominal,
                    f"seed {seed}: lexicographic gm nominal {lex_report.nominal_value} != {nominal}",
                    net,
                    bad_lex,
                )
        lines.append(f"PASS seed {seed} ({nodes} nodes, {arcs} arcs)")
    lines.append(
        f"PASS static-invariants: order, budget-1 factor 2, compact model, lex nominal ({args.seeds} seeds)"
    )
    return lines


def _random_dynamic(seed: int, nodes: int, arcs: int) -> DynamicInstance:
    return gen_random(
        "dynamic",
        nodes,
        arcs,
        max_cap=3,
        max_tau=2,
        max_delay=2,
        horizon=4 + (seed % 3),
        gamma=1 + (seed % 2),
        seed=seed,
    )


def _suite_dynamic_invariants(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "5,7")
    lines = []
    for seed in range(args.seeds):
        inst = _random_dynamic(seed, nodes, arcs)
        catalog = enumerate_subpaths(inst.network)
        vals = {}
        for model in ("dpm", "dam", "dgm", "tr"):
            _, report = solve_dynamic(inst, model, catalog=catalog)
            vals[model] = report.robust_value

        def bad(candidate, base=inst):
            probe = DynamicInstance(candidate, base.horizon, base.gamma)
            cat = enumerate_subpaths(candidate)
            v = {}
            for model in ("dpm", "dam", "dgm", "tr"):
                _, rep = solve_dynamic(probe, model, catalog=cat)
                v[model] = rep.robust_value
            return (
                v["dgm"] < v["dpm"] or v["dgm"] < v["dam"] or v["tr"] > v["dpm"]
            )

        _check(
            vals["dgm"] >= vals["dpm"] and vals["dgm"] >= vals["dam"],
            f"seed {seed}: dgm below dpm/dam: {vals}",
            inst.network,
            bad,
        )
        _check(
            vals["tr"] <= vals["dpm"],
            f"seed {seed}: repeated flow beats timed path flow: {vals}",
            inst.network,
            bad,
        )
        lines.append(f"PASS seed {seed} (T={inst.horizon}, gamma={inst.gamma})")
    lines.append(f"PASS dynamic-invariants: dgm>=max(dpm,dam), tr<=dpm ({args.seeds} seeds)")
    return lines


def _suite_embedding(args) -> list:
    cases = [
        ("two-hop", gen_two_hop(), 1),
        ("fan(2)", gen_fan(2), 2),
        ("bottleneck(1,2)", gen_bottleneck(1, 2), 1),
    ]
    pairs = (("pm", "dpm"), ("am", "dam"), ("gm", "dgm"))
    lines = []
    for label, net, gamma in cases:
        inst = embed_static(net, gamma)
        catalog = enumerate_subpaths(net)
        dyn_catalog = enumerate_subpaths(inst.network)
        for s_model, d_model in pairs:
            s_val = _static_value(net, s_model, gamma, catalog).robust_value
            _, d_report = solve_dynamic(inst, d_model, catalog=dyn_catalog)

            def bad(candidate, sm=s_model, dm=d_model, g=gamma):
                cat = enumerate_subpaths(candidate)
                emb = embed_static(candidate, g)
                _, rep = solve_dynamic(emb, dm, catalog=enumerate_subpaths(emb.network))
                return _static_value(candidate, sm, g, cat).robust_value != rep.robust_value

            _check(
                s_val == d_report.robust_value,
                f"{label}: {s_model}={s_val} but embedded {d_model}={d_report.robust_value}",
                net,
                bad,
            )
        lines.append(f"PASS {label}: static trio equals embedded dynamic trio")
    lines.append("PASS embedding: horizon-1 embedding preserves all three optima")
    return lines


def _suite_oracle_equivalence(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "5,7")
    lines = []
    for seed in range(args.seeds):
        inst = _random_dynamic(seed, nodes, arcs)
        _, direct = solve_dynamic(inst, "dam")
        _, compact = solve_dynamic(inst, "dam-compact")

        def bad(candidate, base=inst):
            probe = DynamicInstance(candidate, base.horizon, base.gamma)
            _, a = solve_dynamic(probe, "dam")
            _, b = solve_dynamic(probe, "dam-compact")
            return a.robust_value != b.robust_value

        _check(
            direct.robust_value == compact.robust_value,
            f"seed {seed}: dam={direct.robust_value} dam-compact={compact.robust_value}",
            inst.network,
            bad,
        )
        lines.append(f"PASS seed {seed}: dam == dam-compact == {direct.robust_value}")
    lines.append(f"PASS oracle-equivalence: compact reformulation matches dam ({args.seeds} seeds)")
    return lines


def _suite_partition_roundtrip(args) -> list:
    import random as _random

    lines = []
    cases = partition_multisets(3, 3)
    target = len(cases) + args.seeds
    rng = _random.Random(20260817)
    while len(cases) < target:
        n = rng.randint(1, 3)
        b = tuple(sorted(rng.randint(1, 3) for _ in range(n)))
        if sum(b) % 2 == 0:
            cases.append(b)
    mismatches = []
    for b in cases:
        expected = brute_force_partition(b)
        inst = gen_partition(b)
        _, report = solve_dynamic(inst, "dpm")
        got = report.robust_value > 0
        if got == expected:
            lines.append(f"PASS b={b}: dpm>0 is {got}, matching brute force")
        else:
            mismatches.append((b, report.robust_value, expected))
            lines.append(
                f"MISMATCH b={b}: dpm={report.robust_value} but subset-sum says {expected}"
            )
    if mismatches:
        detail = ", ".join(f"b={b} (dpm={v})" for b, v, _ in mismatches)
        raise _SuiteFailure(
            f"{len(mismatches)} of {len(cases)} multisets break the subset-sum "
            f"equivalence: {detail}. These are no-instances whose deadline-feasible "
            "paths pairwise overlap yet share no single arc, so a budget-1 delay "
            "cannot stop all of them and the robust optimum is positive; the "
            "equivalence only holds when positivity forces two arc-disjoint paths."
        )
    lines.append(f"PASS partition-roundtrip ({len(cases)} multisets)")
    return lines


def _suite_conjecture_probe(args) -> list:
    gamma = 1 if args.gamma is None else args.gamma
    lines = []
    best = rat(0)
    best_label = "none"

    def ratio_of(net, label):
        nonlocal best, best_label
        catalog = enumerate_subpaths(net)
        pm = _static_value(net, "pm", gamma, catalog).robust_value
        gm = _static_value(net, "gm", gamma, catalog).robust_value
        if pm > 0:
            ratio = gm / pm
            if ratio > best:
                best, best_label = ratio, label
            lines.append(f"  {label}: gm/pm = {ratio}")
        else:
            lines.append(f"  {label}: pm = 0, ratio skipped")

    ratio_of(gen_two_hop(), "two-hop")
    ratio_of(gen_fan(gamma), f"fan({gamma})")
    for beta in (1, 2, 4, 8):
        ratio_of(gen_bottleneck(gamma, beta), f"bottleneck({gamma},{beta})")
    for seed in range(args.seeds):
        ratio_of(gen_random("dag", 6, 10, max_cap=4, seed=seed), f"random-dag seed {seed}")
    bound = gamma + 1
    lines.append(
        f"max observed gm/pm = {best} on {best_label}; conjectured bound gamma+1 = {bound}: "
        + ("consistent" if best <= bound else "EXCEEDED")
    )
    return lines


def cmd_suite(args) -> int:
    runner = {
        "static-invariants": _suite_static_invariants,
        "dynamic-invariants": _suite_dynamic_invariants,
        "embedding": _suite_embedding,
        "oracle-equivalence": _suite_oracle_equivalence,
        "partition-roundtrip": _suite_partition_roundtrip,
        "conjecture-probe": _suite_conjecture_probe,
    }[args.name]
    try:
        lines = runner(args)
    except _SuiteFailure as failure:
        print(f"FAIL {args.name}: {failure}")
        if failure.net is not None and failure.violated is not None:
            small = _minimize(failure.net, failure.violated)
            print("minimized counterexample:")
            print(dumps(instance_to_json(small)), end="")
        return 4
    for line in lines:
        print(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``parse_args`` gives a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="robustflow",
        description="Exact workbench for robust maximum flows (static and over time).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance from a built-in family")
    gen.add_argument(
        "family",
        choices=[
            "two-hop",
            "fan",
            "bottleneck",
            "por-static",
            "por-dynamic",
            "partition",
            "ti-gap",
            "random-dag",
            "random-general",
            "random-dynamic",
        ],
    )
    gen.add_argument("--gamma", type=int, default=1, help="attack budget (default 1)")
    gen.add_argument("--beta", type=int, default=1, help="bottleneck width factor")
    gen.add_argument("--alpha", help="target price-of-robustness ratio, e.g. 6/5")
    gen.add_argument("--scaled", action="store_true", help="emit the integrally scaled variant")
    gen.add_argument("--b", type=int, nargs="+", help="partition multiset values")
    gen.add_argument("--extra-budget", type=int, default=0, help="extra wide arcs for partition")
    gen.add_argument("--nodes", type=int, default=6)
    gen.add_argument("--arcs", type=int, default=10)
    gen.add_argument("--max-cap", type=int, default=4)
    gen.add_argument("--max-tau", type=int, default=2)
    gen.add_argument("--max-delay", type=int, default=2)
    gen.add_argument("--horizon", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--split", action="store_true", help="apply the capacity-splitting transform")
    gen.add_argument("-o", "--out", help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve one model on an instance file")
    slv.add_argument("instance")
    slv.add_argument("--model", required=True, choices=MODEL_CHOICES)
    slv.add_argument("--gamma", type=int, default=None)
    slv.add_argument("--horizon", type=int, default=None)
    slv.add_argument(
        "--lex-nominal",
        action="store_true",
        help="among robust optima, maximize the nominal value",
    )
    slv.add_argument("--format", choices=["json", "csv"], default="json")
    slv.add_argument("--no-timing", action="store_true", help="omit wall time from CSV")
    slv.add_argument("-o", "--out")
    slv.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="solve several models and tabulate")
    cmp_.add_argument("instance")
    cmp_.add_argument("--models", help="comma-separated list (default: all that fit)")
    cmp_.add_argument("--gamma", type=int, default=None)
    cmp_.add_argument("--horizon", type=int, default=None)
    cmp_.add_argument("--lex-nominal", action="store_true")
    cmp_.add_argument("--no-timing", action="store_true")
    cmp_.add_argument("-o", "--out")
    cmp_.set_defaults(func=cmd_compare)

    ev = sub.add_parser("evaluate", help="check a flow file without any LP")
    ev.add_argument("instance")
    ev.add_argument("flow")
    ev.add_argument("--kind", choices=["path", "arc", "subpath", "tr"], default=None)
    ev.add_argument("--gamma", type=int, default=None)
    ev.add_argument("--horizon", type=int, default=None)
    ev.add_argument("-o", "--out")
    ev.set_defaults(func=cmd_evaluate)

    ste = sub.add_parser("suite", help="run an invariant suite or the conjecture probe")
    ste.add_argument("name", choices=SUITES)
    ste.add_argument("--seeds", type=int, default=5)
    ste.add_argument("--sizes", help="random instance size as 'nodes,arcs'")
    ste.add_argument("--gamma", type=int, default=None)
    ste.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleFlowError as exc:
        print("infeasible flow:", file=sys.stderr)
        for line in exc.lines:
            print(f"  {line}", file=sys.stderr)
        return 4
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
