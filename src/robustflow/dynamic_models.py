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
both transformations are exact: every restricted row is also a row of the
full family, and the exhaustive evaluator re-checks each optimum.  Solving
goes through the pipeline shared with the static models
(:mod:`robustflow.model_lp`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from .lp import LinearProgram
from .maxflow import nominal_max_flow
from .model_lp import (
    ModelBuild,
    ModelCheckError,
    Rows,
    arcs_on,
    nonzero,
    scenario_label,
    solve_model,
)
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
from .rational import ZERO, rat
from .static_models import InfeasibleFlowError, Violation

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
    """Shared scaffolding for the timed builders: routes, pruning windows and prefixes."""

    def __init__(self, inst: DynamicInstance, paths) -> None:
        self.T = inst.horizon
        self.net = net = inst.network
        self.paths = paths
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


def _timed_route_lp(inst: DynamicInstance, routes, sink_routes):
    """Start a timed path-like model.

    Adds one column per route and departure time inside its window, the
    arrival bound ``w`` as the objective, and for each scenario over the
    positive-delay arcs of the routes in ``sink_routes`` the row bounding
    ``w`` by their flow that still arrives by T.  Returns
    ``(timed, lp, xs, w, rows)``.
    """
    net, T = inst.network, inst.horizon
    timed = _Timed(inst, routes)
    lp = LinearProgram("max")
    xs: dict = {}
    for i in range(len(routes)):
        for theta in range(1, timed.window[i] + 1):
            xs[(i, theta)] = lp.add_var(f"x[{i},{theta}]")
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: 1})
    rows = Rows(lp)
    universe = _positive_delay_ids(net, arcs_on(net, (routes[i] for i in sink_routes)))
    for scenario in enumerate_scenarios(universe, inst.gamma).scenarios:
        hit = set(scenario)
        coeffs = {w: 1}
        for i in sink_routes:
            lim = min(timed.window[i], T - timed.tau[i] - path_delay(net, routes[i].arcs, hit))
            for theta in range(1, lim + 1):
                coeffs[xs[(i, theta)]] = -1
        rows.add(coeffs, "<=", 0, f"arrive{scenario_label(scenario)}")
    return timed, lp, xs, w, rows


def build_dpm_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Timed path flow against worst-case delays."""
    _check_instance(inst)
    paths = catalog.st_paths
    timed, lp, xs, w, rows = _timed_route_lp(inst, paths, range(len(paths)))
    _timed_capacity_rows(rows, timed, xs, catalog.st_by_arc, inst.gamma)
    return ModelBuild(lp, "path", xs, w, nominal_coeffs={c: 1 for c in xs.values()})


def build_dgm_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Timed subpath flow: flow may be re-declared at interior nodes."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    subs = catalog.subpaths
    enders = catalog.by_end.get(net.sink, ())
    timed, lp, xs, w, rows = _timed_route_lp(inst, subs, enders)
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        ending = catalog.by_end.get(v, ())
        starting = catalog.by_start.get(v, ())
        if not starting:
            continue
        node_universe = _positive_delay_ids(net, arcs_on(net, (subs[i] for i in ending)))
        for scenario in enumerate_scenarios(node_universe, gamma).scenarios:
            hit = set(scenario)
            shift = {i: timed.tau[i] + path_delay(net, subs[i].arcs, hit) for i in ending}
            for theta in range(1, T + 1):
                coeffs = {}
                for j in starting:
                    if (j, theta) in xs:
                        coeffs[xs[(j, theta)]] = 1
                if not coeffs:
                    continue
                for i in ending:
                    key = (i, theta - shift[i])
                    if key in xs:
                        coeffs[xs[key]] = coeffs.get(xs[key], 0) - 1
                rows.add(
                    coeffs, "<=", 0, f"cons[{v},{theta}]{scenario_label(scenario)}"
                )
    _timed_capacity_rows(rows, timed, xs, catalog.by_arc, gamma)
    return ModelBuild(
        lp,
        "subpath",
        xs,
        w,
        nominal_coeffs={xs[(i, theta)]: 1 for (i, theta) in xs if i in set(enders)},
    )


def _arc_scenarios(timed, by_arc, gamma):
    """Per-arc scenarios for the timed capacity rows.

    For each arc with routes through it, and each scenario over the
    positive-delay arcs that sit strictly upstream on some of those routes,
    yields ``(arc, scenario, offsets)``: ``offsets[i]`` is the time flow
    departing at 0 on route i enters the arc under that scenario.
    """
    net = timed.net
    for arc in net.arcs:
        routes = by_arc.get(arc.id, ())
        if not routes:
            continue
        positions = {i: timed.paths[i].arcs.index(arc.id) for i in routes}
        upstream = {a for i, k in positions.items() for a in timed.paths[i].arcs[:k]}
        universe = _positive_delay_ids(net, upstream)
        for scenario in enumerate_scenarios(universe, gamma).scenarios:
            hit = set(scenario)
            yield arc, scenario, {i: timed.entry_time(i, k, 0, hit) for i, k in positions.items()}


def _timed_capacity_rows(rows, timed, xs, by_arc, gamma) -> None:
    """Capacity rows for the timed path-like builders: for each arc and
    scenario, tally which departures occupy the arc at each time step."""
    for arc, scenario, offsets in _arc_scenarios(timed, by_arc, gamma):
        by_theta: dict = {}
        for i, offset in offsets.items():
            for dep in range(1, timed.window[i] + 1):
                occupied = dep + offset
                if occupied <= timed.T:
                    by_theta.setdefault(occupied, []).append((i, dep))
        for theta in sorted(by_theta):
            coeffs = {xs[(i, dep)]: 1 for i, dep in by_theta[theta]}
            rows.add(
                coeffs,
                "<=",
                arc.capacity,
                f"cap[{arc.id},{theta}]{scenario_label(scenario)}",
            )


def build_dam_lp(inst: DynamicInstance) -> ModelBuild:
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
    lp.set_objective({w: 1})
    rows = Rows(lp)
    sink_in = [a for a in net.in_arcs(net.sink)]
    universe = _positive_delay_ids(net, [a.id for a in sink_in])
    for scenario in enumerate_scenarios(universe, gamma).scenarios:
        hit = set(scenario)
        coeffs = {w: 1}
        for arc in sink_in:
            lim = T - arc.travel_time - (arc.delay if arc.id in hit else 0)
            for theta in range(1, lim + 1):
                if (arc.id, theta) in xs:
                    coeffs[xs[(arc.id, theta)]] = -1
        rows.add(coeffs, "<=", 0, f"arrive{scenario_label(scenario)}")
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        incoming = net.in_arcs(v)
        outgoing = net.out_arcs(v)
        if not outgoing:
            continue
        node_universe = _positive_delay_ids(net, [a.id for a in incoming])
        for scenario in enumerate_scenarios(node_universe, gamma).scenarios:
            hit = set(scenario)
            for theta in range(1, T + 1):
                coeffs = {}
                for arc in outgoing:
                    if (arc.id, theta) in xs:
                        coeffs[xs[(arc.id, theta)]] = 1
                if not coeffs:
                    continue
                for arc in incoming:
                    entry = theta - arc.travel_time - (arc.delay if arc.id in hit else 0)
                    key = (arc.id, entry)
                    if key in xs:
                        coeffs[xs[key]] = coeffs.get(xs[key], 0) - 1
                rows.add(
                    coeffs, "<=", 0, f"cons[{v},{theta}]{scenario_label(scenario)}"
                )
    for (a, theta), col in xs.items():
        rows.add({col: 1}, "<=", net.arc_by_id[a].capacity, f"cap[{a},{theta}]")
    sink_ids = {a.id for a in sink_in}
    return ModelBuild(
        lp,
        "arc",
        xs,
        w,
        nominal_coeffs={col: 1 for (a, theta), col in xs.items() if a in sink_ids},
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
            objective[col] = objective.get(col, 0) + 1
            nominal[col] = nominal.get(col, 0) + 1
    for arc in sink_in:
        objective[nu[arc.id]] = -1
    objective[mu] = objective.get(mu, 0) - gamma
    lp.set_objective(objective)
    rows = Rows(lp)
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        for theta in range(1, T + 1):
            coeffs = {eta[(v, theta)]: gamma}
            for arc in net.out_arcs(v):
                col = xs[(arc.id, theta)]
                coeffs[col] = coeffs.get(col, 0) + 1
            for arc in net.in_arcs(v):
                entry = theta - arc.travel_time
                if 1 <= entry <= T:
                    col = xs[(arc.id, entry)]
                    coeffs[col] = coeffs.get(col, 0) - 1
                coeffs[lam[(arc.id, theta)]] = coeffs.get(lam[(arc.id, theta)], 0) + 1
            rows.add(coeffs, "<=", 0, f"flow[{v},{theta}]")
            for arc in net.in_arcs(v):
                c2 = {eta[(v, theta)]: -1, lam[(arc.id, theta)]: -1}
                entry = theta - arc.travel_time
                if 1 <= entry <= T:
                    col = xs[(arc.id, entry)]
                    c2[col] = c2.get(col, 0) + 1
                late = theta - arc.travel_time - arc.delay
                if 1 <= late <= T:
                    col = xs[(arc.id, late)]
                    c2[col] = c2.get(col, 0) - 1
                rows.add(c2, "<=", 0, f"shift[{v},{arc.id},{theta}]")
    for arc in sink_in:
        c3 = {mu: -1, nu[arc.id]: -1}
        for i in range(1, arc.delay + 1):
            late = T - arc.travel_time - (i - 1)
            if 1 <= late <= T:
                col = xs[(arc.id, late)]
                c3[col] = c3.get(col, 0) + 1
        rows.add(c3, "<=", 0, f"tail[{arc.id}]")
    for (a, theta), col in xs.items():
        rows.add({col: 1}, "<=", net.arc_by_id[a].capacity, f"cap[{a},{theta}]")
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
        arc_flow=nonzero(build.flow_vars, values),
        eta=nonzero(aux["eta"], values),
        lam=nonzero(aux["lam"], values),
        mu=values[aux["mu"]],
        nu={k: values[c] for k, c in aux["nu"].items()},
        objective=objective,
    )


def build_tr_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Temporally repeated flow: one rate per path, shipped every slot."""
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    paths = catalog.st_paths
    timed = _Timed(inst, paths)
    lp = LinearProgram("max")
    xs = {
        i: lp.add_var(f"x[{i}]")
        for i in range(len(paths))
        if T - timed.tau[i] >= 1
    }
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: 1})
    rows = Rows(lp)
    universe = _positive_delay_ids(net, arcs_on(net, (paths[i] for i in xs)))
    for scenario in enumerate_scenarios(universe, gamma).scenarios:
        hit = set(scenario)
        coeffs = {w: 1}
        for i in xs:
            window = T - timed.tau[i] - path_delay(net, paths[i].arcs, hit)
            if window > 0:
                coeffs[xs[i]] = -window
        rows.add(coeffs, "<=", 0, f"arrive{scenario_label(scenario)}")
    by_arc = {a: [i for i in ids if i in xs] for a, ids in catalog.st_by_arc.items()}
    for arc, scenario, offsets in _arc_scenarios(timed, by_arc, gamma):
        for theta in range(1, T + 1):
            coeffs = {}
            for i, offset in offsets.items():
                dep = theta - offset
                if 1 <= dep <= T - timed.tau[i]:
                    coeffs[xs[i]] = 1
            if coeffs:
                rows.add(
                    coeffs,
                    "<=",
                    arc.capacity,
                    f"cap[{arc.id},{theta}]{scenario_label(scenario)}",
                )
    nominal = {xs[i]: T - timed.tau[i] for i in xs}
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
    big = sum((a.capacity for a in net.arcs), ZERO) * T + 1
    for theta in range(1, T + 1):
        arcs.append(Arc(f"~in@{theta}", src, f"{net.source}@{theta}", big))
        arcs.append(Arc(f"~out@{theta}", f"{net.sink}@{theta}", snk, big))
    copies = {}
    for arc in net.arcs:
        for theta in range(1, T - arc.travel_time + 1):
            cid = f"{arc.id}@{theta}"
            copies[cid] = (arc.id, theta)
            arcs.append(
                Arc(cid, f"{arc.tail}@{theta}", f"{arc.head}@{theta + arc.travel_time}", arc.capacity)
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
        Arc(a.id, a.tail, a.head, a.capacity, travel_time=0, delay=1)
        for a in net.arcs
    ]
    embedded = Network(net.nodes, arcs, net.source, net.sink, meta=dict(net.meta))
    return DynamicInstance(embedded, horizon=1, gamma=gamma)


def evaluate_dynamic(
    flow: DynamicFlow,
    inst: DynamicInstance,
    catalog: Optional[PathCatalog] = None,
    kind: Optional[str] = None,
) -> DynamicRobustReport:
    """LP-free evaluation of a dynamic flow over the exhaustive scenario set.

    Checks capacities under every scenario (and robust conservation for the
    arc/subpath kinds), then reports per-scenario arrivals, their minimum,
    and the earliest arrival time guaranteed across scenarios.
    """
    _check_instance(inst)
    kind = kind or flow.kind
    if kind not in ("path", "arc", "subpath", "tr"):
        raise NetworkError(f"unknown dynamic flow kind {kind!r}")
    if kind != flow.kind:
        raise NetworkError(f"flow kind {flow.kind!r} does not match {kind!r}")
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    if kind in ("path", "subpath", "tr") and catalog is None:
        catalog = enumerate_subpaths(net)
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

    def ends(key) -> tuple:
        """Start and end node of the arc or route ``key``."""
        if kind == "arc":
            return net.arc_by_id[key].tail, net.arc_by_id[key].head
        return routes[key].start, routes[key].end

    def shift(key, hit) -> int:
        """Travel time along the arc or route ``key`` when the arcs in ``hit`` are delayed."""
        if kind == "arc":
            arc = net.arc_by_id[key]
            return arc.travel_time + (arc.delay if key in hit else 0)
        return _travel(net, routes[key].arcs) + path_delay(net, routes[key].arcs, hit)

    support = []  # (route index or arc id, departure, value)
    if kind == "tr":
        for i, value in values.items():
            if not isinstance(i, int) or not 0 <= i < len(routes):
                raise NetworkError(f"unknown path index {i!r}")
            for dep in range(1, T - _travel(net, routes[i].arcs) + 1):
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
    scenario_set = enumerate_scenarios([a.id for a in net.arcs], gamma)
    # Capacity under every scenario.
    if kind == "arc":
        for a, theta, value in support:
            cap = net.arc_by_id[a].capacity
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
                cap = net.arc_by_id[a].capacity
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
        outflow: dict = {}  # departures do not depend on the scenario
        for key, dep, value in support:
            start = ends(key)[0]
            if start != net.source:
                outflow[(start, dep)] = outflow.get((start, dep), ZERO) + value
        demands = [(slot, out) for slot, out in sorted(outflow.items()) if slot[0] in interior]
        for scenario in scenario_set.scenarios:
            hit = set(scenario)
            inflow: dict = {}
            for key, dep, value in support:
                end = ends(key)[1]
                if end == net.sink:
                    continue
                arrival = dep + shift(key, hit)
                if arrival <= T:
                    inflow[(end, arrival)] = inflow.get((end, arrival), ZERO) + value
            for (v, theta), out in demands:
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
            if ends(key)[1] != net.sink:
                continue
            arrival = dep + shift(key, hit)
            if arrival <= T:
                total += value
                times.add(arrival)
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
):
    """Build, solve and cross-validate one dynamic model; returns (flow, report)."""
    if model not in DYNAMIC_MODELS:
        raise NetworkError(f"unknown dynamic model {model!r}")
    _check_instance(inst)
    if catalog is None and model in ("dpm", "dgm", "tr"):
        catalog = enumerate_subpaths(inst.network)
    if model == "dpm":
        build = build_dpm_lp(inst, catalog)
    elif model == "dgm":
        build = build_dgm_lp(inst, catalog)
    elif model == "dam":
        build = build_dam_lp(inst)
    elif model == "dam-compact":
        build = build_dam_compact_lp(inst)
    else:
        build = build_tr_lp(inst, catalog)
    return solve_model(
        build,
        maximize_nominal,
        lambda values: DynamicFlow(build.kind, nonzero(build.flow_vars, values)),
        lambda flow: evaluate_dynamic(flow, inst, catalog, build.kind),
    )
