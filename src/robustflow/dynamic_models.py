"""Dynamic (time-indexed) robust maximum-flow models.

Flows move through a discrete horizon 1..T; each arc has a nominal travel
time and a delay increment, and the adversary picks up to ``gamma`` arcs to
delay.  Flow riding a delayed arc arrives late; only flow reaching the sink
by T counts.  Models mirror the static trio plus two extras:

* ``dpm`` — flow on simple source-sink paths with a departure time,
* ``dam`` — flow on arcs with entry times and robust conservation,
* ``dgm`` — flow on contiguous subpaths with departure times,
* ``tr``  — temporally repeated path flow (one rate per path, shipped every
  feasible departure slot),
* ``dam-compact`` — a polynomial-size reformulation of ``dam`` with
  auxiliary bounding variables replacing the scenario enumeration.

Builders prune variables that can never reach the sink in time even without
delays (``theta + travel + remaining distance > T``) and restrict scenario
families to the positive-delay arcs that can actually shift a constraint;
both transformations are exact.  ``full_lambda=True`` disables the scenario
restriction for cross-checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from .lp import lexicographic_solve, solve_lp, LinearProgram
from .maxflow import nominal_max_flow
from .network import (
    Arc,
    Network,
    NetworkError,
    PathCatalog,
    ValidationReport,
    enumerate_scenarios,
    enumerate_subpaths,
    validate_network,
)
from .rational import ONE, ZERO, rat
from .static_models import InfeasibleFlowError, ModelBuild, ModelCheckError, Violation, _Rows

DYNAMIC_MODELS = ("dpm", "dam", "dam-compact", "dgm", "tr")


@dataclass(frozen=True)
class DynamicInstance:
    network: Network
    horizon: int
    gamma: int


def validate_dynamic_instance(inst: DynamicInstance) -> ValidationReport:
    bad = list(validate_network(inst.network).violations)
    if isinstance(inst.horizon, bool) or not isinstance(inst.horizon, int) or inst.horizon < 1:
        bad.append(f"horizon must be an integer >= 1, got {inst.horizon!r}")
    if isinstance(inst.gamma, bool) or not isinstance(inst.gamma, int) or inst.gamma < 0:
        bad.append(f"gamma must be an integer >= 0, got {inst.gamma!r}")
    return ValidationReport(tuple(bad))


@dataclass(frozen=True)
class DynamicFlow:
    """Keys: ``(path index, theta)`` / ``(arc id, theta)`` for the timed
    kinds, or a bare path index for kind ``tr`` (one rate per path)."""

    kind: str
    values: Mapping


@dataclass(frozen=True)
class DynamicRobustReport:
    robust_value: object
    nominal_value: object
    per_scenario_arrival: tuple
    minimizing_scenarios: tuple
    earliest_arrival: Optional[int]


@dataclass(frozen=True)
class DamDualSolution:
    """Solution of ``dam-compact``: the arc flow plus its bounding variables."""

    arc_flow: Mapping
    eta: Mapping
    lam: Mapping
    mu: object
    nu: Mapping
    objective: object


def path_delay(net: Network, arcs, scenario) -> int:
    """Total extra delay a scenario inflicts on one path."""
    hit = set(scenario)
    return sum(net.arc_by_id[a].delay for a in arcs if a in hit)


def _travel(net: Network, arcs) -> int:
    return sum(net.arc_by_id[a].travel_time for a in arcs)


def _dist_to_sink(net: Network) -> dict:
    """Nominal shortest travel time from every node to the sink (Dijkstra)."""
    dist = {net.sink: 0}
    heap = [(0, net.sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, float("inf")):
            continue
        for arc in net.in_arcs(v):
            nd = d + arc.travel_time
            if nd < dist.get(arc.tail, float("inf")):
                dist[arc.tail] = nd
                heapq.heappush(heap, (nd, arc.tail))
    return dist


def _positive_delay_ids(net: Network, arcs) -> list:
    return sorted(
        {a for a in arcs if net.arc_by_id[a].delay > 0}, key=lambda a: net.arc_rank[a]
    )


def _check_instance(inst: DynamicInstance) -> None:
    report = validate_dynamic_instance(inst)
    if not report.ok:
        raise NetworkError("invalid dynamic instance: " + "; ".join(report.violations))


class _Timed:
    """Shared scaffolding for the timed builders: pruning windows and prefixes."""

    def __init__(self, inst: DynamicInstance, paths, net: Network) -> None:
        self.T = inst.horizon
        self.net = net
        self.dist = _dist_to_sink(net)
        self.tau = [_travel(net, p.arcs) for p in paths]
        self.window = []
        for p, tau in zip(paths, self.tau):
            slack = self.T - tau - self.dist.get(p.end, self.T + 1)
            self.window.append(max(0, slack))
        # prefix[i][k] = nominal travel time of path i strictly before arc k
        self.prefix = []
        for p in paths:
            acc, pre = 0, []
            for a in p.arcs:
                pre.append(acc)
                acc += net.arc_by_id[a].travel_time
            self.prefix.append(pre)

    def entry_time(self, i: int, k: int, theta: int, hit) -> int:
        """Time flow departing at ``theta`` on path i enters its k-th arc,
        given the delayed-arc set ``hit``."""
        t = theta + self.prefix[i][k]
        if hit:
            path = self.paths[i]
            for a in path.arcs[:k]:
                if a in hit:
                    t += self.net.arc_by_id[a].delay
        return t


def build_dpm_lp(
    inst: DynamicInstance,
    catalog: PathCatalog,
    *,
    full_lambda: bool = False,
    guard: Optional[int] = None,
) -> ModelBuild:
    """Timed path flow against worst-case delays."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    paths = catalog.st_paths
    timed = _Timed(inst, paths, net)
    timed.paths = paths
    lp = LinearProgram("max")
    xs: dict = {}
    for i in range(len(paths)):
        for theta in range(1, timed.window[i] + 1):
            xs[(i, theta)] = lp.add_var(f"x[{i},{theta}]")
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: ONE})
    rows = _Rows(lp)
    all_ids = [a.id for a in net.arcs]
    on_paths = sorted({a for p in paths for a in p.arcs}, key=lambda a: net.arc_rank[a])
    universe = all_ids if full_lambda else _positive_delay_ids(net, on_paths)
    for scenario in enumerate_scenarios(universe, gamma, guard=guard).scenarios:
        hit = set(scenario)
        coeffs = {w: ONE}
        for i in range(len(paths)):
            lim = min(timed.window[i], T - timed.tau[i] - path_delay(net, paths[i].arcs, hit))
            for theta in range(1, lim + 1):
                coeffs[xs[(i, theta)]] = -ONE
        rows.add(coeffs, "<=", ZERO, f"arrive{_scenario_label(scenario)}")
    _timed_capacity_rows(rows, timed, xs, catalog.st_by_arc, gamma, full_lambda, guard)
    return ModelBuild(lp, "path", xs, w, nominal_coeffs={c: ONE for c in xs.values()})


def build_dgm_lp(
    inst: DynamicInstance,
    catalog: PathCatalog,
    *,
    full_lambda: bool = False,
    guard: Optional[int] = None,
) -> ModelBuild:
    """Timed subpath flow: flow may be re-declared at interior nodes."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    subs = catalog.subpaths
    timed = _Timed(inst, subs, net)
    timed.paths = subs
    lp = LinearProgram("max")
    xs: dict = {}
    for i in range(len(subs)):
        for theta in range(1, timed.window[i] + 1):
            xs[(i, theta)] = lp.add_var(f"x[{i},{theta}]")
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: ONE})
    rows = _Rows(lp)
    all_ids = [a.id for a in net.arcs]
    enders = catalog.by_end.get(net.sink, ())

    def arcs_on(indices) -> list:
        seen = set()
        for i in indices:
            seen.update(subs[i].arcs)
        return sorted(seen, key=lambda a: net.arc_rank[a])

    universe = all_ids if full_lambda else _positive_delay_ids(net, arcs_on(enders))
    for scenario in enumerate_scenarios(universe, gamma, guard=guard).scenarios:
        hit = set(scenario)
        coeffs = {w: ONE}
        for i in enders:
            lim = min(timed.window[i], T - timed.tau[i] - path_delay(net, subs[i].arcs, hit))
            for theta in range(1, lim + 1):
                coeffs[xs[(i, theta)]] = -ONE
        rows.add(coeffs, "<=", ZERO, f"arrive{_scenario_label(scenario)}")
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        ending = catalog.by_end.get(v, ())
        starting = catalog.by_start.get(v, ())
        if not starting:
            continue
        node_universe = all_ids if full_lambda else _positive_delay_ids(net, arcs_on(ending))
        for scenario in enumerate_scenarios(node_universe, gamma, guard=guard).scenarios:
            hit = set(scenario)
            shift = {i: timed.tau[i] + path_delay(net, subs[i].arcs, hit) for i in ending}
            for theta in range(1, T + 1):
                coeffs = {}
                for j in starting:
                    if (j, theta) in xs:
                        coeffs[xs[(j, theta)]] = ONE
                if not coeffs:
                    continue
                for i in ending:
                    key = (i, theta - shift[i])
                    if key in xs:
                        coeffs[xs[key]] = coeffs.get(xs[key], ZERO) - ONE
                rows.add(
                    coeffs, "<=", ZERO, f"cons[{v},{theta}]{_scenario_label(scenario)}"
                )
    _timed_capacity_rows(rows, timed, xs, catalog.by_arc, gamma, full_lambda, guard)
    return ModelBuild(
        lp,
        "subpath",
        xs,
        w,
        nominal_coeffs={xs[(i, theta)]: ONE for (i, theta) in xs if i in set(enders)},
    )


def _scenario_label(scenario) -> str:
    return "{" + ",".join(str(a) for a in scenario) + "}"


def _timed_capacity_rows(rows, timed, xs, by_arc, gamma, full_lambda, guard) -> None:
    """Capacity rows for the timed path-like builders.

    For each arc and each scenario over the positive-delay arcs that sit
    strictly upstream on some route through it, tally which departures
    occupy the arc at each time step.
    """
    net, T = timed.net, timed.T
    all_ids = [a.id for a in net.arcs]
    for arc in net.arcs:
        routes = by_arc.get(arc.id, ())
        if not routes:
            continue
        upstream = set()
        positions = {}
        for i in routes:
            k = timed.paths[i].arcs.index(arc.id)
            positions[i] = k
            upstream.update(
                a for a in timed.paths[i].arcs[:k] if net.arc_by_id[a].delay > 0
            )
        universe = (
            all_ids
            if full_lambda
            else sorted(upstream, key=lambda a: net.arc_rank[a])
        )
        for scenario in enumerate_scenarios(universe, gamma, guard=guard).scenarios:
            hit = set(scenario)
            offsets = {i: timed.entry_time(i, positions[i], 0, hit) for i in routes}
            by_theta: dict = {}
            for i in routes:
                for dep in range(1, timed.window[i] + 1):
                    occupied = dep + offsets[i]
                    if occupied <= T:
                        by_theta.setdefault(occupied, []).append((i, dep))
            for theta in sorted(by_theta):
                coeffs = {xs[(i, dep)]: ONE for i, dep in by_theta[theta]}
                rows.add(
                    coeffs,
                    "<=",
                    rat(arc.capacity),
                    f"cap[{arc.id},{theta}]{_scenario_label(scenario)}",
                )


def build_dam_lp(
    inst: DynamicInstance,
    *,
    full_lambda: bool = False,
    guard: Optional[int] = None,
) -> ModelBuild:
    """Timed arc flow with robust conservation under worst-case delays."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    dist = _dist_to_sink(net)
    lp = LinearProgram("max")
    xs: dict = {}
    for arc in net.arcs:
        limit = T - arc.travel_time - dist.get(arc.head, T + 1)
        for theta in range(1, limit + 1):
            xs[(arc.id, theta)] = lp.add_var(f"x[{arc.id},{theta}]")
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: ONE})
    rows = _Rows(lp)
    all_ids = [a.id for a in net.arcs]
    sink_in = [a for a in net.in_arcs(net.sink)]
    universe = (
        all_ids if full_lambda else _positive_delay_ids(net, [a.id for a in sink_in])
    )
    for scenario in enumerate_scenarios(universe, gamma, guard=guard).scenarios:
        hit = set(scenario)
        coeffs = {w: ONE}
        for arc in sink_in:
            lim = T - arc.travel_time - (arc.delay if arc.id in hit else 0)
            for theta in range(1, lim + 1):
                if (arc.id, theta) in xs:
                    coeffs[xs[(arc.id, theta)]] = -ONE
        rows.add(coeffs, "<=", ZERO, f"arrive{_scenario_label(scenario)}")
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        incoming = net.in_arcs(v)
        outgoing = net.out_arcs(v)
        if not outgoing:
            continue
        node_universe = (
            all_ids
            if full_lambda
            else _positive_delay_ids(net, [a.id for a in incoming])
        )
        for scenario in enumerate_scenarios(node_universe, gamma, guard=guard).scenarios:
            hit = set(scenario)
            for theta in range(1, T + 1):
                coeffs = {}
                for arc in outgoing:
                    if (arc.id, theta) in xs:
                        coeffs[xs[(arc.id, theta)]] = ONE
                if not coeffs:
                    continue
                for arc in incoming:
                    entry = theta - arc.travel_time - (arc.delay if arc.id in hit else 0)
                    key = (arc.id, entry)
                    if key in xs:
                        coeffs[xs[key]] = coeffs.get(xs[key], ZERO) - ONE
                rows.add(
                    coeffs, "<=", ZERO, f"cons[{v},{theta}]{_scenario_label(scenario)}"
                )
    for (a, theta), col in xs.items():
        rows.add({col: ONE}, "<=", rat(net.arc_by_id[a].capacity), f"cap[{a},{theta}]")
    sink_ids = {a.id for a in sink_in}
    return ModelBuild(
        lp,
        "arc",
        xs,
        w,
        nominal_coeffs={col: ONE for (a, theta), col in xs.items() if a in sink_ids},
    )


def build_dam_compact_lp(inst: DynamicInstance) -> ModelBuild:
    """Polynomial-size equivalent of ``dam``: scenario enumeration replaced
    by per-node and per-arc bounding variables."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    lp = LinearProgram("max")
    xs = {
        (arc.id, theta): lp.add_var(f"x[{arc.id},{theta}]")
        for arc in net.arcs
        for theta in range(1, T + 1)
    }
    lam = {
        (arc.id, theta): lp.add_var(f"lam[{arc.id},{theta}]")
        for arc in net.arcs
        if arc.head != net.sink
        for theta in range(1, T + 1)
    }
    eta = {
        (v, theta): lp.add_var(f"eta[{v},{theta}]")
        for v in net.nodes
        if v not in (net.source, net.sink)
        for theta in range(1, T + 1)
    }
    mu = lp.add_var("mu")
    sink_in = list(net.in_arcs(net.sink))
    nu = {arc.id: lp.add_var(f"nu[{arc.id}]") for arc in sink_in}
    objective: dict = {}
    nominal: dict = {}
    for arc in sink_in:
        for theta in range(1, T - arc.travel_time + 1):
            col = xs[(arc.id, theta)]
            objective[col] = objective.get(col, ZERO) + ONE
            nominal[col] = nominal.get(col, ZERO) + ONE
    for arc in sink_in:
        objective[nu[arc.id]] = -ONE
    objective[mu] = objective.get(mu, ZERO) - rat(gamma)
    lp.set_objective(objective)
    rows = _Rows(lp)
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        for theta in range(1, T + 1):
            coeffs = {eta[(v, theta)]: rat(gamma)}
            for arc in net.out_arcs(v):
                col = xs[(arc.id, theta)]
                coeffs[col] = coeffs.get(col, ZERO) + ONE
            for arc in net.in_arcs(v):
                entry = theta - arc.travel_time
                if 1 <= entry <= T:
                    col = xs[(arc.id, entry)]
                    coeffs[col] = coeffs.get(col, ZERO) - ONE
                coeffs[lam[(arc.id, theta)]] = coeffs.get(lam[(arc.id, theta)], ZERO) + ONE
            rows.add(coeffs, "<=", ZERO, f"flow[{v},{theta}]")
            for arc in net.in_arcs(v):
                c2 = {eta[(v, theta)]: -ONE, lam[(arc.id, theta)]: -ONE}
                entry = theta - arc.travel_time
                if 1 <= entry <= T:
                    col = xs[(arc.id, entry)]
                    c2[col] = c2.get(col, ZERO) + ONE
                late = theta - arc.travel_time - arc.delay
                if 1 <= late <= T:
                    col = xs[(arc.id, late)]
                    c2[col] = c2.get(col, ZERO) - ONE
                rows.add(c2, "<=", ZERO, f"shift[{v},{arc.id},{theta}]")
    for arc in sink_in:
        c3 = {mu: -ONE, nu[arc.id]: -ONE}
        for i in range(1, arc.delay + 1):
            late = T - arc.travel_time - (i - 1)
            if 1 <= late <= T:
                col = xs[(arc.id, late)]
                c3[col] = c3.get(col, ZERO) + ONE
        rows.add(c3, "<=", ZERO, f"tail[{arc.id}]")
    for (a, theta), col in xs.items():
        rows.add({col: ONE}, "<=", rat(net.arc_by_id[a].capacity), f"cap[{a},{theta}]")
    return ModelBuild(
        lp,
        "arc",
        xs,
        None,
        nominal_coeffs=nominal,
        aux={"lam": lam, "eta": eta, "mu": mu, "nu": nu},
    )


def extract_dam_dual(build: ModelBuild, values, objective) -> DamDualSolution:
    aux = build.aux
    return DamDualSolution(
        arc_flow={k: values[c] for k, c in build.flow_vars.items() if values[c] != 0},
        eta={k: values[c] for k, c in aux["eta"].items() if values[c] != 0},
        lam={k: values[c] for k, c in aux["lam"].items() if values[c] != 0},
        mu=values[aux["mu"]],
        nu={k: values[c] for k, c in aux["nu"].items()},
        objective=objective,
    )


def build_tr_lp(
    inst: DynamicInstance,
    catalog: PathCatalog,
    *,
    full_lambda: bool = False,
    guard: Optional[int] = None,
) -> ModelBuild:
    """Temporally repeated flow: one rate per path, shipped every slot."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    paths = catalog.st_paths
    timed = _Timed(inst, paths, net)
    timed.paths = paths
    lp = LinearProgram("max")
    xs = {
        i: lp.add_var(f"x[{i}]")
        for i in range(len(paths))
        if T - timed.tau[i] >= 1
    }
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: ONE})
    rows = _Rows(lp)
    all_ids = [a.id for a in net.arcs]
    on_paths = sorted(
        {a for i in xs for a in paths[i].arcs}, key=lambda a: net.arc_rank[a]
    )
    universe = all_ids if full_lambda else _positive_delay_ids(net, on_paths)
    for scenario in enumerate_scenarios(universe, gamma, guard=guard).scenarios:
        hit = set(scenario)
        coeffs = {w: ONE}
        for i in xs:
            window = T - timed.tau[i] - path_delay(net, paths[i].arcs, hit)
            if window > 0:
                coeffs[xs[i]] = -rat(window)
        rows.add(coeffs, "<=", ZERO, f"arrive{_scenario_label(scenario)}")
    for arc in net.arcs:
        routes = [i for i in catalog.st_by_arc.get(arc.id, ()) if i in xs]
        if not routes:
            continue
        upstream = set()
        positions = {}
        for i in routes:
            k = paths[i].arcs.index(arc.id)
            positions[i] = k
            upstream.update(a for a in paths[i].arcs[:k] if net.arc_by_id[a].delay > 0)
        universe_a = (
            all_ids if full_lambda else sorted(upstream, key=lambda a: net.arc_rank[a])
        )
        for scenario in enumerate_scenarios(universe_a, gamma, guard=guard).scenarios:
            hit = set(scenario)
            offsets = {i: timed.entry_time(i, positions[i], 0, hit) for i in routes}
            for theta in range(1, T + 1):
                coeffs = {}
                for i in routes:
                    dep = theta - offsets[i]
                    if 1 <= dep <= T - timed.tau[i]:
                        coeffs[xs[i]] = ONE
                if coeffs:
                    rows.add(
                        coeffs,
                        "<=",
                        rat(arc.capacity),
                        f"cap[{arc.id},{theta}]{_scenario_label(scenario)}",
                    )
    nominal = {xs[i]: rat(T - timed.tau[i]) for i in xs}
    return ModelBuild(lp, "tr", dict(xs), w, nominal_coeffs=nominal)


def nominal_dynamic_max_flow(inst: DynamicInstance):
    """Exact nominal optimum via max flow on the time-expanded network.

    Returns ``(value, flow)`` with an arc-kind :class:`DynamicFlow` mapping
    ``(arc id, entry time)`` to the flow rate entering the arc then.
    """
    _check_instance(inst)
    net, T = inst.network, inst.horizon
    src, snk = ("~source~", "~sink~")
    nodes = [src, snk] + [f"{v}@{theta}" for v in net.nodes for theta in range(1, T + 1)]
    arcs = []
    big = sum((rat(a.capacity) for a in net.arcs), ZERO) * T + 1
    for theta in range(1, T + 1):
        arcs.append(Arc(f"~in@{theta}", src, f"{net.source}@{theta}", big))
        arcs.append(Arc(f"~out@{theta}", f"{net.sink}@{theta}", snk, big))
    copies = {}
    for arc in net.arcs:
        for theta in range(1, T - arc.travel_time + 1):
            cid = f"{arc.id}@{theta}"
            copies[cid] = (arc.id, theta)
            arcs.append(
                Arc(cid, f"{arc.tail}@{theta}", f"{arc.head}@{theta + arc.travel_time}", rat(arc.capacity))
            )
    expanded = Network(nodes, arcs, src, snk)
    value, flow, cut = nominal_max_flow(expanded)
    if value != cut:
        raise ModelCheckError("max-flow value must match its min-cut certificate")
    values = {
        copies[cid]: val for cid, val in flow.items() if cid in copies and val != 0
    }
    return value, DynamicFlow("arc", values)


def embed_static(net: Network, gamma: int) -> DynamicInstance:
    """Embed a static network as a dynamic instance with horizon 1.

    Travel times become 0 and every delay 1, so a delayed arc misses the
    horizon entirely — arc removal and delay coincide, and each dynamic
    model's optimum equals its static counterpart's.
    """
    arcs = [
        Arc(a.id, a.tail, a.head, rat(a.capacity), travel_time=0, delay=1)
        for a in net.arcs
    ]
    embedded = Network(net.nodes, arcs, net.source, net.sink, meta=dict(net.meta))
    return DynamicInstance(embedded, horizon=1, gamma=gamma)


def evaluate_dynamic(
    flow: DynamicFlow,
    inst: DynamicInstance,
    catalog: Optional[PathCatalog] = None,
    kind: Optional[str] = None,
    *,
    guard: Optional[int] = None,
) -> DynamicRobustReport:
    """LP-free evaluation of a dynamic flow over the exhaustive scenario set.

    Checks capacities under every scenario (and robust conservation for the
    arc/subpath kinds), then reports per-scenario arrivals, their minimum,
    and the earliest arrival time guaranteed across scenarios.
    """
    _check_instance(inst)
    kind = kind or flow.kind
    if kind == "temporally-repeated":
        kind = "tr"
    if kind not in ("path", "arc", "subpath", "tr"):
        raise NetworkError(f"unknown dynamic flow kind {kind!r}")
    if kind != flow.kind and not (kind == "tr" and flow.kind == "temporally-repeated"):
        raise NetworkError(f"flow kind {flow.kind!r} does not match {kind!r}")
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    if kind in ("path", "subpath", "tr") and catalog is None:
        catalog = enumerate_subpaths(net, guard=guard)
    violations = []
    values = {}
    for key, raw in flow.values.items():
        value = rat(raw)
        if value < 0:
            violations.append(Violation("nonnegativity", key, None, f"value {value}"))
        elif value > 0:
            values[key] = value
    if kind != "tr":
        for key in values:
            if not (
                isinstance(key, tuple)
                and len(key) == 2
                and isinstance(key[1], int)
                and not isinstance(key[1], bool)
            ):
                raise NetworkError(
                    f"timed flow keys are (key, theta) pairs, got {key!r}"
                )
    routes = None
    if kind in ("path", "tr"):
        routes = catalog.st_paths
    elif kind == "subpath":
        routes = catalog.subpaths

    def route_tau(i: int) -> int:
        return _travel(net, routes[i].arcs)

    support = []  # (route index or arc id, departure, value)
    if kind == "tr":
        for i, value in values.items():
            if not isinstance(i, int) or not 0 <= i < len(routes):
                raise NetworkError(f"unknown path index {i!r}")
            for dep in range(1, T - route_tau(i) + 1):
                support.append((i, dep, value))
    elif kind in ("path", "subpath"):
        for (i, theta), value in sorted(values.items()):
            if not isinstance(i, int) or not 0 <= i < len(routes):
                raise NetworkError(f"unknown route index {i!r}")
            if not 1 <= theta <= T:
                violations.append(
                    Violation("horizon", (i, theta), None, f"departure {theta} outside 1..{T}")
                )
                continue
            support.append((i, theta, value))
    else:
        for (a, theta), value in sorted(values.items(), key=lambda kv: (net.arc_rank.get(kv[0][0], -1), kv[0][1])):
            if a not in net.arc_by_id:
                raise NetworkError(f"unknown arc id {a!r}")
            if not 1 <= theta <= T:
                violations.append(
                    Violation("horizon", (a, theta), None, f"entry {theta} outside 1..{T}")
                )
                continue
            support.append((a, theta, value))
    scenario_set = enumerate_scenarios([a.id for a in net.arcs], gamma, guard=guard)
    # Capacity under every scenario.
    if kind == "arc":
        for a, theta, value in support:
            cap = rat(net.arc_by_id[a].capacity)
            if value > cap:
                violations.append(
                    Violation("capacity", (a, theta), None, f"load {value} exceeds {cap}")
                )
    else:
        for scenario in scenario_set.scenarios:
            hit = set(scenario)
            loads: dict = {}
            for i, dep, value in support:
                t = dep
                for a in routes[i].arcs:
                    if t > T:
                        break
                    loads[(a, t)] = loads.get((a, t), ZERO) + value
                    arc = net.arc_by_id[a]
                    t += arc.travel_time + (arc.delay if a in hit else 0)
            for (a, theta), load in sorted(
                loads.items(), key=lambda kv: (net.arc_rank[kv[0][0]], kv[0][1])
            ):
                cap = rat(net.arc_by_id[a].capacity)
                if load > cap:
                    violations.append(
                        Violation(
                            "capacity",
                            (a, theta),
                            scenario,
                            f"load {load} exceeds {cap}",
                        )
                    )
    # Robust conservation for the declarable kinds.
    if kind in ("arc", "subpath"):
        interior = [v for v in net.nodes if v not in (net.source, net.sink)]
        for scenario in scenario_set.scenarios:
            hit = set(scenario)
            inflow: dict = {}
            outflow: dict = {}
            for key, dep, value in support:
                if kind == "arc":
                    arc = net.arc_by_id[key]
                    start, end = arc.tail, arc.head
                    shift = arc.travel_time + (arc.delay if key in hit else 0)
                else:
                    route = routes[key]
                    start, end = route.start, route.end
                    shift = route_tau(key) + path_delay(net, route.arcs, hit)
                arrival = dep + shift
                if end != net.sink and arrival <= T:
                    inflow[(end, arrival)] = inflow.get((end, arrival), ZERO) + value
                if start != net.source:
                    outflow[(start, dep)] = outflow.get((start, dep), ZERO) + value
            for (v, theta), out in sorted(outflow.items()):
                if v not in interior:
                    continue
                have = inflow.get((v, theta), ZERO)
                if have < out:
                    violations.append(
                        Violation(
                            "conservation",
                            (v, theta),
                            scenario,
                            f"surviving inflow {have} < outflow {out}",
                        )
                    )
    if violations:
        raise InfeasibleFlowError(violations)
    # Arrivals per scenario.
    arrivals = []
    arrival_times = []
    for scenario in scenario_set.scenarios:
        hit = set(scenario)
        total = ZERO
        times = set()
        for key, dep, value in support:
            if kind == "arc":
                arc = net.arc_by_id[key]
                if arc.head != net.sink:
                    continue
                shift = arc.travel_time + (arc.delay if key in hit else 0)
            else:
                route = routes[key]
                if route.end != net.sink:
                    continue
                shift = route_tau(key) + path_delay(net, route.arcs, hit)
            if dep + shift <= T:
                total += value
                times.add(dep + shift)
        arrivals.append((scenario, total))
        arrival_times.append(times)
    robust = min(total for _, total in arrivals)
    minimizing = tuple(sc for sc, total in arrivals if total == robust)
    nominal = arrivals[0][1]
    common = set.intersection(*arrival_times) if arrival_times else set()
    earliest = min(common) if common else None
    return DynamicRobustReport(
        robust_value=robust,
        nominal_value=nominal,
        per_scenario_arrival=tuple(arrivals),
        minimizing_scenarios=minimizing,
        earliest_arrival=earliest,
    )


def solve_dynamic(
    inst: DynamicInstance,
    model: str,
    *,
    maximize_nominal: bool = False,
    catalog: Optional[PathCatalog] = None,
    guard: Optional[int] = None,
):
    """Build, solve and cross-validate one dynamic model; returns (flow, report)."""
    if model not in DYNAMIC_MODELS:
        raise NetworkError(f"unknown dynamic model {model!r}")
    _check_instance(inst)
    if catalog is None and model in ("dpm", "dgm", "tr"):
        catalog = enumerate_subpaths(inst.network, guard=guard)
    if model == "dpm":
        build = build_dpm_lp(inst, catalog, guard=guard)
    elif model == "dgm":
        build = build_dgm_lp(inst, catalog, guard=guard)
    elif model == "dam":
        build = build_dam_lp(inst, guard=guard)
    elif model == "dam-compact":
        build = build_dam_compact_lp(inst)
    else:
        build = build_tr_lp(inst, catalog, guard=guard)
    if maximize_nominal:
        lex = lexicographic_solve(build.lp, build.nominal_coeffs)
        if lex.status != "optimal":
            raise RuntimeError(f"model LP came back {lex.status}")
        objective, lp_values = lex.primary_value, lex.values
    else:
        sol = solve_lp(build.lp)
        if sol.status != "optimal":
            raise RuntimeError(f"model LP came back {sol.status}")
        objective, lp_values = sol.objective_value, sol.values
    flow = DynamicFlow(
        build.kind,
        {key: lp_values[col] for key, col in build.flow_vars.items() if lp_values[col] != 0},
    )
    report = evaluate_dynamic(flow, inst, catalog, build.kind, guard=guard)
    if report.robust_value != objective:
        raise ModelCheckError(
            f"evaluator disagrees with the LP: {report.robust_value} != {objective}"
        )
    if maximize_nominal and report.nominal_value != lex.secondary_value:
        raise ModelCheckError("nominal value mismatch")
    return flow, report
