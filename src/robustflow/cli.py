"""Command-line workbench for the robust flow models.

Subcommands:

* ``generate`` — write an instance from one of the ``FAMILIES``.
* ``solve``    — solve one model on an instance; JSON or CSV output.
* ``compare``  — solve several models and tabulate them side by side.
* ``evaluate`` — check a flow file against an instance, LP-free.
* ``suite``    — run one of the ``SUITES``; each check states its invariant once,
  as a predicate, and a failure prints a counterexample minimized under it.

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
import random
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
    RANDOM_KINDS,
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
from .network import GuardExceeded, Network, NetworkError, reachable, validate_network
from .rational import rat
from .serialize import (
    compare_to_csv,
    dumps,
    flow_from_json,
    instance_from_json,
    instance_to_json,
    rational_from_json,
    report_to_json,
    result_to_json,
)
from .static_models import (
    STATIC_MODELS,
    InfeasibleFlowError,
    evaluate_static,
    solve_static,
)

MODEL_CHOICES = STATIC_MODELS + DYNAMIC_MODELS


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise NetworkError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkError(f"{path} is not valid JSON: {exc}") from exc


def _alpha(args):
    if args.alpha is None:
        raise NetworkError(f"{args.family} needs --alpha")
    return rational_from_json(args.alpha, "--alpha")


def _partition(args):
    if not args.b:
        raise NetworkError("partition needs --b values")
    return gen_partition(tuple(args.b), extra_budget=args.extra_budget)


def _random(kind: str, args):
    names = ("nodes", "arcs", "max_cap", "max_tau", "max_delay", "horizon", "gamma", "seed")
    return gen_random(kind, **{name: getattr(args, name) for name in names})


# Family name -> the instance it builds from the parsed ``generate`` options.
FAMILIES = {
    "two-hop": lambda args: gen_two_hop(),
    "fan": lambda args: gen_fan(args.gamma),
    "bottleneck": lambda args: gen_bottleneck(args.gamma, args.beta),
    "por-static": lambda args: gen_por_static(args.gamma, _alpha(args))[1 if args.scaled else 0],
    "por-dynamic": lambda args: gen_por_dynamic(args.gamma, _alpha(args))[1],
    "partition": _partition,
    "ti-gap": lambda args: gen_ti_gap(),
    **{f"random-{kind}": functools.partial(_random, kind) for kind in RANDOM_KINDS},
}


def cmd_generate(args) -> int:
    instance = FAMILIES[args.family](args)
    if args.split:
        if isinstance(instance, DynamicInstance):
            raise NetworkError("--split applies to static instances only")
        instance = split_capacities(instance)
    _write(dumps(instance_to_json(instance)), args.out)
    return 0


def _overridden(instance, gamma, horizon):
    """The loaded instance with ``--gamma``/``--horizon`` applied, and its budget.

    A dynamic instance keeps its own horizon and budget where an option is
    absent; a static instance has neither, so ``--horizon`` is rejected for
    it, and its budget defaults to 1.
    """
    if horizon is not None and not isinstance(instance, DynamicInstance):
        raise NetworkError("--horizon applies to dynamic instances only")
    if isinstance(instance, DynamicInstance):
        instance = DynamicInstance(
            instance.network,
            instance.horizon if horizon is None else horizon,
            instance.gamma if gamma is None else gamma,
        )
        return instance, instance.gamma
    return instance, 1 if gamma is None else gamma


def _solve_any(instance, model: str, gamma, horizon, lex: bool):
    """Solve one model on a loaded instance; returns (flow, report, meta)."""
    dynamic = isinstance(instance, DynamicInstance)
    if (model in STATIC_MODELS) == dynamic:
        need = "a static instance" if dynamic else "a dynamic instance (horizon field)"
        raise NetworkError(f"model {model!r} needs {need}")
    inst, g = _overridden(instance, gamma, horizon)
    if dynamic:
        flow, report = solve_dynamic(inst, model, maximize_nominal=lex)
        return flow, report, {"gamma": g, "horizon": inst.horizon}
    flow, report = solve_static(inst, model, g, maximize_nominal=lex)
    return flow, report, {"gamma": g, "horizon": None}


def _csv_row(model: str, report, wall_ms: float) -> dict:
    """One row of ``compare_to_csv`` for a solved model."""
    return {
        "model": model,
        "robust_value": report.robust_value,
        "nominal_value": report.nominal_value,
        "worst_scenarios": getattr(report, "worst_scenarios", None)
        or getattr(report, "minimizing_scenarios", ()),
        "wall_ms": wall_ms,
    }


def cmd_solve(args) -> int:
    instance = instance_from_json(_read_json(args.instance))
    start = time.perf_counter()
    flow, report, meta = _solve_any(
        instance, args.model, args.gamma, args.horizon, args.lex_nominal
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    if args.format == "csv":
        row = _csv_row(args.model, report, wall_ms)
        _write(compare_to_csv([row], include_timing=not args.no_timing), args.out)
        return 0
    result = result_to_json(
        args.model,
        meta["gamma"],
        flow,
        report,
        horizon=meta["horizon"],
        catalog=(instance.network if isinstance(instance, DynamicInstance) else instance).catalog,
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
    instance = instance_from_json(_read_json(args.instance))
    if args.models is not None:
        models = [m.strip() for m in args.models.split(",") if m.strip()]
        if not models:
            raise NetworkError(f"--models names no model, got {args.models!r}")
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
        _, report, _ = _solve_any(
            instance, model, args.gamma, args.horizon, args.lex_nominal
        )
        rows.append(_csv_row(model, report, (time.perf_counter() - start) * 1000.0))
    _write(compare_to_csv(rows, include_timing=not args.no_timing), args.out)
    return 0


def _check_routes(routes, kind: str, net: Network) -> None:
    """Check a flow file's ``routes``, route index -> arc list as ``solve``
    writes it: each listed index must name the route with those arcs in
    ``net.catalog``, so that a flow's indices mean the routes it was made on."""
    if routes is None:
        return
    if kind == "arc":
        raise NetworkError("an arc flow is keyed by arc id and has no 'routes'")
    if not isinstance(routes, dict):
        raise NetworkError(f"'routes' must be an object of route index -> arc list, got {routes!r}")
    noun = "subpath" if kind == "subpath" else "path"
    known = net.catalog.subpaths if kind == "subpath" else net.catalog.st_paths
    for index, arcs in routes.items():
        if not (
            index.isdecimal()
            and str(int(index)) == index
            and isinstance(arcs, list)
            and all(isinstance(a, (str, int)) and not isinstance(a, bool) for a in arcs)
        ):
            raise NetworkError(f"'routes' must map route indices to arc lists, got {index!r}: {arcs!r}")
        i = int(index)
        if i >= len(known):
            raise NetworkError(f"routes[{index!r}]: the network has no {noun} {i}")
        if tuple(arcs) != known[i].arcs:
            raise NetworkError(
                f"routes[{index!r}] is {arcs!r}, but {noun} {i} of the network is {list(known[i].arcs)!r}"
            )


def cmd_evaluate(args) -> int:
    instance = instance_from_json(_read_json(args.instance))
    document = _read_json(args.flow)
    flow = flow_from_json(document)
    if isinstance(instance, DynamicInstance) and not isinstance(flow, DynamicFlow):
        raise NetworkError("the instance is dynamic but the flow file is static (timed false)")
    if not isinstance(instance, DynamicInstance) and isinstance(flow, DynamicFlow):
        raise NetworkError("the instance is static but the flow file is timed")
    if args.kind is not None and args.kind != flow.kind:
        raise NetworkError(f"flow kind {flow.kind!r} does not match {args.kind!r}")
    inst, gamma = _overridden(instance, args.gamma, args.horizon)
    net = inst.network if isinstance(inst, DynamicInstance) else inst
    _check_routes(document.get("routes"), flow.kind, net)
    if isinstance(inst, DynamicInstance):
        report = evaluate_dynamic(flow, inst)
    else:
        report = evaluate_static(flow, inst, gamma)
    data = {"feasible": True}
    data.update(report_to_json(report))
    _write(dumps(data), args.out)
    return 0


def _drop_arc(net: Network, arc_id):
    """Remove one arc and every node no longer on a source-sink route."""
    removed = {arc_id}
    keep = reachable(net, net.source, removed=removed)
    keep &= reachable(net, net.sink, forward=False, removed=removed)
    if net.source not in keep or net.sink not in keep:
        return None
    arcs = [a for a in net.arcs if a.id != arc_id and a.tail in keep and a.head in keep]
    nodes = [v for v in net.nodes if v in keep]
    candidate = Network(nodes, arcs, net.source, net.sink, meta=dict(net.meta))
    return candidate if validate_network(candidate).ok else None


def _minimize(net: Network, violated) -> Network:
    """Greedily drop arcs while the violation persists."""
    while True:
        for arc in net.arcs:
            candidate = _drop_arc(net, arc.id)
            try:
                if candidate is not None and violated(candidate):
                    net = candidate
                    break
            except (NetworkError, GuardExceeded):
                continue
        else:
            return net


class _SuiteFailure(Exception):
    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


def _check(vals, broken, message: str, net, values, instance=lambda net: net) -> None:
    """Fail when ``broken(vals)``, with ``net`` minimized under that same predicate.

    ``values(instance(candidate))`` recomputes ``vals`` on a network with
    fewer arcs.  A timed suite's ``instance`` puts a network under the failing
    seed's horizon and budget, so the counterexample, ``instance`` of the
    minimized network, can be solved again as it is printed.
    """
    if broken(vals):
        small = _minimize(net, lambda candidate: broken(values(instance(candidate))))
        raise _SuiteFailure(message, instance(small))


def _differ(pair) -> bool:
    return pair[0] != pair[1]


def _seeds(args) -> range:
    """The seeds of a suite that checks only seeded random instances: at least one."""
    if args.seeds < 1:
        raise NetworkError(f"suite {args.name} checks only random instances: --seeds must be >= 1")
    return range(args.seeds)


def _parse_sizes(text: str):
    try:
        nodes, arcs = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise NetworkError(f"--sizes must be 'nodes,arcs', got {text!r}") from exc
    return nodes, arcs


def _static_value(net, model, gamma, lex=False):
    return solve_static(net, model, gamma, maximize_nominal=lex)[1]


def _trio(net, gamma) -> dict:
    """The robust values of pm, am and gm on ``net`` at budget ``gamma``."""
    return {m: _static_value(net, m, gamma).robust_value for m in ("pm", "am", "gm")}


def _lex_nominal(net) -> tuple:
    """The nominal value of a lexicographic gm solve at budget 1, and the nominal maximum."""
    return _static_value(net, "gm", 1, lex=True).nominal_value, nominal_max_flow(net)[0]


def _suite_static_invariants(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "6,10")
    lines = []
    for seed in _seeds(args):
        net = gen_random("dag", nodes, arcs, max_cap=4, seed=seed)
        for gamma in (1, 2):
            vals = _trio(net, gamma)
            _check(
                vals,
                lambda v: v["gm"] < v["pm"] or v["gm"] < v["am"],
                f"seed {seed} gamma {gamma}: gm below pm/am: {vals}",
                net,
                lambda candidate: _trio(candidate, gamma),
            )
            if gamma == 1:
                _check(
                    vals,
                    lambda v: v["gm"] > 2 * v["pm"] or v["am"] > 2 * v["pm"],
                    f"seed {seed}: budget-1 factor-2 bound broken: {vals}",
                    net,
                    lambda candidate: _trio(candidate, 1),
                )
                compact = (_static_value(net, "gm1", 1).robust_value, vals["gm"])
                _check(
                    compact,
                    _differ,
                    f"seed {seed}: compact budget-1 model diverges: {compact[0]} vs {compact[1]}",
                    net,
                    lambda candidate: (
                        _static_value(candidate, "gm1", 1).robust_value,
                        _static_value(candidate, "gm", 1).robust_value,
                    ),
                )
                lex = _lex_nominal(net)
                _check(
                    lex,
                    _differ,
                    f"seed {seed}: lexicographic gm nominal {lex[0]} != {lex[1]}",
                    net,
                    _lex_nominal,
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


def _timed_values(inst: DynamicInstance) -> dict:
    """The robust values of dpm, dam, dgm and tr on ``inst``."""
    models = ("dpm", "dam", "dgm", "tr")
    return {m: solve_dynamic(inst, m)[1].robust_value for m in models}


def _retimed(inst: DynamicInstance):
    """Networks -> timed instances at ``inst``'s horizon and budget."""
    return functools.partial(DynamicInstance, horizon=inst.horizon, gamma=inst.gamma)


def _suite_dynamic_invariants(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "5,7")
    lines = []
    for seed in _seeds(args):
        inst = _random_dynamic(seed, nodes, arcs)
        vals = _timed_values(inst)
        for message, broken in (
            ("dgm below dpm/dam", lambda v: v["dgm"] < v["dpm"] or v["dgm"] < v["dam"]),
            ("repeated flow beats timed path flow", lambda v: v["tr"] > v["dpm"]),
        ):
            _check(
                vals,
                broken,
                f"seed {seed}: {message}: {vals}",
                inst.network,
                _timed_values,
                _retimed(inst),
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
        for s_model, d_model in pairs:

            def embedded(candidate):
                return (
                    _static_value(candidate, s_model, gamma).robust_value,
                    solve_dynamic(embed_static(candidate, gamma), d_model)[1].robust_value,
                )

            vals = embedded(net)
            _check(
                vals,
                _differ,
                f"{label}: {s_model}={vals[0]} but embedded {d_model}={vals[1]}",
                net,
                embedded,
            )
        lines.append(f"PASS {label}: static trio equals embedded dynamic trio")
    lines.append("PASS embedding: horizon-1 embedding preserves all three optima")
    return lines


def _dams(inst: DynamicInstance) -> tuple:
    """The robust values of dam and dam-compact on ``inst``."""
    return tuple(solve_dynamic(inst, m)[1].robust_value for m in ("dam", "dam-compact"))


def _suite_oracle_equivalence(args) -> list:
    nodes, arcs = _parse_sizes(args.sizes or "5,7")
    lines = []
    for seed in _seeds(args):
        inst = _random_dynamic(seed, nodes, arcs)
        vals = _dams(inst)
        _check(
            vals,
            _differ,
            f"seed {seed}: dam={vals[0]} dam-compact={vals[1]}",
            inst.network,
            _dams,
            _retimed(inst),
        )
        lines.append(f"PASS seed {seed}: dam == dam-compact == {vals[0]}")
    lines.append(f"PASS oracle-equivalence: compact reformulation matches dam ({args.seeds} seeds)")
    return lines


def _suite_partition_roundtrip(args) -> list:
    cases = partition_multisets(3, 3)
    target = len(cases) + args.seeds
    rng = random.Random(20260817)
    while len(cases) < target:
        n = rng.randint(1, 3)
        b = tuple(sorted(rng.randint(1, 3) for _ in range(n)))
        if sum(b) % 2 == 0:
            cases.append(b)
    lines, mismatches = [], []
    for b in cases:
        value = solve_dynamic(gen_partition(b), "dpm")[1].robust_value
        if (value > 0) == brute_force_partition(b):
            lines.append(f"PASS b={b}: dpm>0 is {value > 0}, matching brute force")
        else:
            mismatches.append(f"b={b} (dpm={value})")
    if mismatches:
        raise _SuiteFailure(
            f"{len(mismatches)} of {len(cases)} multisets break the subset-sum equivalence: "
            f"{', '.join(mismatches)}. These are no-instances whose deadline-feasible "
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
        pm = _static_value(net, "pm", gamma).robust_value
        gm = _static_value(net, "gm", gamma).robust_value
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


# Suite name -> its runner, which returns the PASS lines or raises _SuiteFailure.
SUITES = {
    "static-invariants": _suite_static_invariants,
    "dynamic-invariants": _suite_dynamic_invariants,
    "embedding": _suite_embedding,
    "oracle-equivalence": _suite_oracle_equivalence,
    "partition-roundtrip": _suite_partition_roundtrip,
    "conjecture-probe": _suite_conjecture_probe,
}


def cmd_suite(args) -> int:
    if args.seeds < 0:
        raise NetworkError(f"--seeds must be >= 0, got {args.seeds}")
    try:
        lines = SUITES[args.name](args)
    except _SuiteFailure as failure:
        print(f"FAIL {args.name}: {failure}")
        if failure.counterexample is not None:
            print("minimized counterexample:")
            print(dumps(instance_to_json(failure.counterexample)), end="")
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
    gen.add_argument("family", choices=FAMILIES)
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
    gen.add_argument("--horizon", type=int, default=4)
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
        sys.stderr.write("\n  ".join(("infeasible flow:", *exc.lines)) + "\n")
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
