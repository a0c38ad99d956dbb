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

As in the static case, ``dpm`` and ``dam`` are ``dgm`` over whole
source-sink paths and over single arcs, and ``tr`` is ``dpm`` whose
departures from one path share one rate column.  One function writes every
row of all four; ``dam``'s capacity rows are its rows for the empty scenario
(a one-arc route has no arc upstream), without a scenario suffix.

Every timed builder gives each node v one time window, from the nominal
travel times: ``first[v]`` is 1 plus the shortest time from the source to
v, ``last[v]`` is T less the shortest time from v to the sink (one Dijkstra
run each way).  Delays only make flow later, so no flow reaches v before
``first[v]``, and flow at v after ``last[v]`` cannot reach the sink by T
even undelayed; the builders make columns and rows only for times inside
the windows.  They also restrict scenario families to the positive-delay
arcs that can actually shift a constraint.  Both are exact: the columns
left out are 0 at some optimum of the full LP (flow there either arrives
too late or can only circulate before any flow from the source arrives),
every restricted row is also a row of the full family, and the exhaustive
evaluator re-checks each optimum.  Solving goes through the pipeline shared
with the static models (:mod:`robustflow.model_lp`).

The evaluator (:func:`evaluate_dynamic`) walks each flow entry's route once
per distinct projection of the scenarios onto the positive-delay arcs of the
flow's routes; an arc flow's loads, the same in every scenario, are checked
once, under the empty scenario ``()``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .lp import LinearProgram
from .maxflow import nominal_max_flow
from .model_lp import (
    ModelBuild,
    ModelCheckError,
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
    arc_routes,
    enumerate_scenarios,
    flow_routes,
    route_index,
    scenario_masks,
)
from .rational import ZERO, common_denominator, rat
from .static_models import InfeasibleFlowError, _intake, _line

DYNAMIC_MODELS = ("dpm", "dam", "dam-compact", "dgm", "tr")


@dataclass(frozen=True)
class DynamicInstance:
    network: Network
    horizon: int
    gamma: int


def validate_dynamic_instance(inst: DynamicInstance) -> ValidationReport:
    return ValidationReport(inst.network.validation.violations + timing_violations(inst))


def timing_violations(inst: DynamicInstance) -> tuple:
    """The horizon and budget violations of a timed instance, its network's aside."""
    bad = []
    if isinstance(inst.horizon, bool) or not isinstance(inst.horizon, int) or inst.horizon < 1:
        bad.append(f"horizon must be an integer >= 1, got {inst.horizon!r}")
    if isinstance(inst.gamma, bool) or not isinstance(inst.gamma, int) or inst.gamma < 0:
        bad.append(f"gamma must be an integer >= 0, got {inst.gamma!r}")
    return tuple(bad)


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


def _shortest_times(net: Network, start: str, forward: bool) -> dict:
    """Nominal shortest travel time from ``start`` to every node (to ``start``
    from every node, if not ``forward``), by Dijkstra."""
    dist = {start: 0}
    order = itertools.count()  # breaks ties, so nodes are never compared
    heap = [(0, next(order), start)]
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for arc in net.out_arcs(v) if forward else net.in_arcs(v):
            w, nd = (arc.head if forward else arc.tail), d + arc.travel_time
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, next(order), w))
    return dist


def _windows(net: Network, horizon: int) -> tuple:
    """``(first, last)``: each node's time window (module docstring).

    Every node of a valid network is on a source-sink path, so both ends
    are defined for each.
    """
    to_node = _shortest_times(net, net.source, forward=True)
    to_sink = _shortest_times(net, net.sink, forward=False)
    return {v: 1 + d for v, d in to_node.items()}, {v: horizon - d for v, d in to_sink.items()}


def _check_instance(inst: DynamicInstance) -> None:
    report = validate_dynamic_instance(inst)
    if not report.ok:
        raise NetworkError("invalid dynamic instance: " + "; ".join(report.violations))


def _timed_route_lp(inst: DynamicInstance, routes: Callable[[], Mapping], kind: str) -> ModelBuild:
    """The timed subpath model over the routes ``routes()`` returns (key -> Path).

    ``routes`` is called only after the instance is validated, so an invalid
    instance raises :class:`NetworkError` before any route is enumerated (or
    guarded).  A route departs in ``first[start] .. last[end] - travel``
    (module docstring): no earlier, since no flow reaches its start node
    before, and no later, since it could not reach the sink by T.  One column
    ``x[key,theta]`` per route and departure time in that window (kind
    ``tr``: one rate column ``x[key]`` per route, keyed on the first
    departure of the window and shared by all its departures), and the
    arrival bound ``w`` as the objective.  It writes four row families, in
    this order:

    * ``arrive{S}``: each scenario S over the positive-delay arcs of the
      routes into the sink bounds ``w`` by their flow that still arrives by T;
    * ``cons[v,theta]{S}``: at each interior node v where routes start, each
      scenario S over the positive-delay arcs of the routes ending there keeps
      the departures at each time of v's window within the arrivals then;
    * ``cap[a,theta]{S}``: for each arc a and each scenario S over the
      positive-delay arcs strictly upstream of a on the routes through it, the
      departures that occupy a at each time step by T stay within its capacity;
    * ``cap[a,theta]`` for kind ``arc``: one-arc routes have nothing upstream,
      so the only capacity scenario is ``()``, and its rows carry no suffix.

    Routes whose window is empty carry no column and are left out of the
    scenario universes.  With them in, a scenario would only yield the row of
    its restriction to the arcs of routes with departures, which comes
    earlier in (size, arc order), and :meth:`LinearProgram.add_row` would skip
    the repeat.
    """
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    first, last = _windows(net, T)
    # Per route with departures: its arc walk ((arc, travel time, delay), ...)
    # and its departure window, a range of times.
    kept, walk, window = {}, {}, {}
    for i, route in routes().items():
        steps = tuple((a, net.arc_by_id[a].travel_time, net.arc_by_id[a].delay) for a in route.arcs)
        travel = sum(t for _, t, _ in steps)
        departures = range(first[route.start], last[route.end] - travel + 1)
        if departures:
            kept[i], walk[i], window[i] = route, steps, departures
    by_start, by_end, by_arc = route_index(kept)
    lp = LinearProgram()
    xs: dict = {}
    for i in kept:
        start = window[i].start
        for theta in window[i]:
            if kind != "tr":
                xs[(i, theta)] = lp.add_var(f"x[{i},{theta}]")
            else:
                xs[(i, theta)] = xs[(i, start)] if theta > start else lp.add_var(f"x[{i}]")
    w = lp.add_var("arrival_bound")
    lp.set_objective({w: 1})

    def shifted(walks):
        """Each scenario over the positive-delay arcs of ``walks``, with each walk's duration.

        ``walks`` maps a route to steps ``(arc, travel time, delay)``.
        """
        universe = {a for steps in walks.values() for a, _, d in steps if d > 0}
        for scenario in enumerate_scenarios(universe, gamma):
            hit = set(scenario)
            yield scenario, {
                i: sum(t + d if a in hit else t for a, t, d in steps) for i, steps in walks.items()
            }

    enders = by_end.get(net.sink, ())
    for scenario, shift in shifted({i: walk[i] for i in enders}):
        coeffs = {w: 1}
        for i in enders:
            for theta in range(window[i].start, min(window[i].stop, T - shift[i] + 1)):
                col = xs[(i, theta)]
                coeffs[col] = coeffs.get(col, 0) - 1
        lp.add_row(coeffs, "<=", 0, f"arrive{scenario_label(scenario)}")
    for v in net.nodes:
        starting = by_start.get(v, ())
        if v in (net.source, net.sink) or not starting:
            continue
        ending = by_end.get(v, ())
        for scenario, shift in shifted({i: walk[i] for i in ending}):
            for theta in range(first[v], last[v] + 1):
                coeffs = {xs[(j, theta)]: 1 for j in starting if (j, theta) in xs}
                if not coeffs:
                    continue
                for i in ending:
                    key = (i, theta - shift[i])
                    if key in xs:
                        coeffs[xs[key]] = coeffs.get(xs[key], 0) - 1
                lp.add_row(coeffs, "<=", 0, f"cons[{v},{theta}]{scenario_label(scenario)}")
    for arc in net.arcs:
        through = by_arc.get(arc.id, ())
        if not through:
            continue
        # The steps each route through the arc takes before it.
        before = {i: walk[i][: kept[i].arcs.index(arc.id)] for i in through}
        for scenario, offsets in shifted(before):
            by_theta: dict = {}
            for i, offset in offsets.items():
                # Flow departing at 0 on route i enters the arc at ``offset``.
                for dep in range(window[i].start, min(window[i].stop, T - offset + 1)):
                    by_theta.setdefault(dep + offset, []).append(xs[(i, dep)])
            label = "" if kind == "arc" else scenario_label(scenario)
            for theta in sorted(by_theta):
                coeffs = dict.fromkeys(by_theta[theta], 1)
                lp.add_row(coeffs, "<=", arc.capacity, f"cap[{arc.id},{theta}]{label}")
    sink_set = set(enders)
    nominal: dict = {}
    for (i, _), col in xs.items():
        if i in sink_set:
            nominal[col] = nominal.get(col, 0) + 1
    flow_vars = {i: xs[(i, window[i].start)] for i in kept} if kind == "tr" else xs
    return ModelBuild(lp, kind, flow_vars, w, nominal_coeffs=nominal)


def build_dpm_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Timed path flow against worst-case delays: timed subpaths that are whole paths."""
    return _timed_route_lp(inst, lambda: dict(enumerate(catalog.st_paths)), "path")


def build_dgm_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Timed subpath flow: flow may be re-declared at interior nodes."""
    return _timed_route_lp(inst, lambda: dict(enumerate(catalog.subpaths)), "subpath")


def build_tr_lp(inst: DynamicInstance, catalog: PathCatalog) -> ModelBuild:
    """Temporally repeated flow: ``dpm`` with one rate per path, shipped every slot."""
    return _timed_route_lp(inst, lambda: dict(enumerate(catalog.st_paths)), "tr")


def build_dam_lp(inst: DynamicInstance) -> ModelBuild:
    """Timed arc flow with robust conservation: timed subpaths of one arc."""
    return _timed_route_lp(inst, lambda: arc_routes(inst.network), "arc")


def build_dam_compact_lp(inst: DynamicInstance) -> ModelBuild:
    """Polynomial-size equivalent of ``dam``: each worst case over the
    delayed arcs is replaced by its LP dual's bounding variables.

    Each node v has the window ``first[v] .. last[v]`` of the module
    docstring.  Columns: ``x[a,theta]``, the flow entering arc a at theta,
    for theta in ``first[tail] .. last[head] - travel``; ``lam[a,theta]`` for
    each arc not into the sink and ``eta[v,theta]`` for each interior node,
    for theta in the window of the arc's head and of v; ``mu``; ``nu[a]``
    for each arc into the sink.  The objective is the flow entering the arcs
    into the sink by T minus their travel time, less ``gamma * mu`` and
    every ``nu``.  Rows, in this order:

    * ``flow[v,theta]``: at each interior node v and time theta of its
      window, the outflow at theta plus ``gamma * eta[v,theta]`` and the
      ``lam[a,theta]`` of the arcs into v is at most the inflow that arrives
      at theta undelayed;
    * ``shift[v,a,theta]``, after each node and time's ``flow`` row: the
      inflow at theta that delaying arc a into v takes away, less what it
      brings from earlier, is at most ``eta[v,theta] + lam[a,theta]``;
    * ``tail[a]``: the flow on arc a into the sink that its delay pushes past
      T is at most ``mu + nu[a]``;
    * ``cap[a,theta]``: ``x[a,theta]`` is within the arc's capacity.

    A term of an entry time outside its arc's window has no column and is
    left out.  That is exact.  Before ``first[v]``, flow can arrive at v
    only from nodes before their own first time, so the ``flow`` rows force
    all of it to 0, but for circulations that never leave those early
    times; after ``last[v]``, nothing reaches the sink by T.  Setting all
    those columns to 0 keeps every other row feasible and the objective the
    same, since the objective's ``x`` columns all lie inside the windows.
    Terms on one column are summed, so with a zero delay, or a self-loop of
    travel time 0, the two terms cancel and :meth:`LinearProgram.add_row`
    drops the 0.
    """
    _check_instance(inst)
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    first, last = _windows(net, T)
    times = {v: range(first[v], last[v] + 1) for v in net.nodes}
    inner = [v for v in net.nodes if v not in (net.source, net.sink)]
    sink_in = net.in_arcs(net.sink)
    lp = LinearProgram()
    xs = {
        (arc.id, theta): lp.add_var(f"x[{arc.id},{theta}]")
        for arc in net.arcs for theta in range(first[arc.tail], last[arc.head] - arc.travel_time + 1)
    }
    lam = {
        (arc.id, theta): lp.add_var(f"lam[{arc.id},{theta}]")
        for arc in net.arcs if arc.head != net.sink for theta in times[arc.head]
    }
    eta = {(v, theta): lp.add_var(f"eta[{v},{theta}]") for v in inner for theta in times[v]}
    mu = lp.add_var("mu")
    nu = {arc.id: lp.add_var(f"nu[{arc.id}]") for arc in sink_in}

    def add(coeffs: dict, arc: Arc, theta: int, k: int) -> None:
        """Add ``k * x[arc, theta]`` to ``coeffs`` when that column exists."""
        col = xs.get((arc.id, theta))
        if col is not None:
            coeffs[col] = coeffs.get(col, 0) + k

    nominal = {
        xs[(arc.id, theta)]: 1 for arc in sink_in for theta in range(first[arc.tail], T - arc.travel_time + 1)
    }
    lp.set_objective({**nominal, **dict.fromkeys(nu.values(), -1), mu: -gamma})
    for v in inner:
        for theta in times[v]:
            coeffs = {eta[(v, theta)]: gamma}
            for arc in net.out_arcs(v):
                add(coeffs, arc, theta, 1)
            for arc in net.in_arcs(v):
                add(coeffs, arc, theta - arc.travel_time, -1)
                coeffs[lam[(arc.id, theta)]] = 1
            lp.add_row(coeffs, "<=", 0, f"flow[{v},{theta}]")
            for arc in net.in_arcs(v):
                shift = {eta[(v, theta)]: -1, lam[(arc.id, theta)]: -1}
                add(shift, arc, theta - arc.travel_time, 1)
                add(shift, arc, theta - arc.travel_time - arc.delay, -1)
                lp.add_row(shift, "<=", 0, f"shift[{v},{arc.id},{theta}]")
    for arc in sink_in:
        tail = {mu: -1, nu[arc.id]: -1}
        for late in range(T - arc.travel_time, T - arc.travel_time - arc.delay, -1):
            add(tail, arc, late, 1)
        lp.add_row(tail, "<=", 0, f"tail[{arc.id}]")
    for (a, theta), col in xs.items():
        lp.add_row({col: 1}, "<=", net.arc_by_id[a].capacity, f"cap[{a},{theta}]")
    aux = {"lam": lam, "eta": eta, "mu": mu, "nu": nu}
    return ModelBuild(lp, "arc", xs, None, nominal_coeffs=nominal, aux=aux)


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


def evaluate_dynamic(flow: DynamicFlow, inst: DynamicInstance) -> DynamicRobustReport:
    """LP-free evaluation of a dynamic flow over the exhaustive scenario set.

    Checks capacities under every scenario (and robust conservation for the
    arc/subpath kinds), then reports per-scenario arrivals, their minimum,
    and the earliest arrival time guaranteed across scenarios.  Every key,
    whatever its value, is checked before any value is read: its
    ``(key, theta)`` shape, then that it names a known route; only then are
    the entries sorted.

    An arc flow is a flow on one-arc routes.  A delayed arc shifts the entry
    time of every later arc on a route and the route's arrival, but only an
    arc with a positive delay on some walk of the flow moves anything, so
    the unit of work is a scenario's projection onto those arcs (its arc
    mask, :func:`~robustflow.network.scenario_masks`, ``&`` theirs), not
    the scenario.  Each distinct projection walks each flow entry's route
    once: the walk adds the entry's value to the load of each arc it enters
    by T and, if it ends by T, to the inflow of its end node then, or to the
    arrivals when that node is the sink.  Each scenario then takes its
    projection's total and arrival times, and its capacity and conservation
    texts, under the scenario's own label.  An arc flow's loads are the same
    in every scenario, so they are checked once, under the empty scenario
    ``()``, and reported with scenario ``None``.  Capacity violations come
    before conservation ones, each in scenario order.  The
    values are put over one common denominator D
    (:func:`~robustflow.rational.common_denominator`): loads, inflow, outflow
    and arrivals are summed as integers, a capacity is exceeded when
    ``n * cap.denominator > cap.numerator * D``, and only reported values
    and violation texts are turned back into ``Fraction``s.  An infeasible
    flow raises :class:`InfeasibleFlowError` with its violations in this
    order: nonnegativity and horizon, then capacity, then conservation.
    """
    _check_instance(inst)
    kind = flow.kind
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    if kind not in ("arc", "path", "subpath", "tr"):
        raise NetworkError(f"unknown dynamic flow kind {kind!r}")
    routes, known = flow_routes(net, kind)
    noun = {"arc": "arc id", "tr": "path index"}.get(kind, "route index")
    # Every key is checked before any is used, and each route is walked once:
    # info[route key] = (start, end, ((arc, travel time, delay, arc bit), ...)).
    info = {}
    for key in flow.values:
        if kind != "tr":
            theta = key[1] if isinstance(key, tuple) and len(key) == 2 else None
            if not isinstance(theta, int) or isinstance(theta, bool):
                raise NetworkError(f"timed flow keys are (key, theta) pairs, got {key!r}")
            key = key[0]
        if not known(key):
            raise NetworkError(f"unknown {noun} {key!r}")
        if key not in info:
            route = routes[key]
            arcs = [net.arc_by_id[a] for a in route.arcs]
            walk = tuple((arc.id, arc.travel_time, arc.delay, 1 << net.arc_rank[arc.id]) for arc in arcs)
            info[key] = (route.start, route.end, walk)
    values, violations = _intake(flow.values)
    support = []  # (route key, departure, value)
    if kind == "tr":
        for i, value in values.items():
            tau = sum(travel for _, travel, _, _ in info[i][2])
            support.extend((i, dep, value) for dep in range(1, T - tau + 1))
    else:
        # An arc flow is a flow on one-arc routes, keyed by arc id and sorted in arc order.
        order = (lambda item: (net.arc_rank[item[0][0]], item[0][1])) if kind == "arc" else None
        word = "entry" if kind == "arc" else "departure"
        for (key, theta), value in sorted(values.items(), key=order):
            if not 1 <= theta <= T:
                violations.append(("horizon", (key, theta), None, f"{word} {theta} outside 1..{T}"))
                continue
            support.append((key, theta, value))
    den, nums = common_denominator([value for _, _, value in support])
    # Entries as (walk, end, departure, scaled value), and the departures from
    # interior nodes, which no scenario moves: only arc and subpath flows have them.
    # Only the positive-delay arcs of the walks (``union``, one bit per arc)
    # move a walk, so scenarios with the same projection onto them agree.
    entries = []
    outflow: dict = {}
    union = 0
    for (key, dep, _), n in zip(support, nums):
        start, end, walk = info[key]
        entries.append((walk, end, dep, n))
        if start not in (net.source, net.sink):
            outflow[(start, dep)] = outflow.get((start, dep), 0) + n
        for _, _, delay, bit in walk:
            if delay > 0:
                union |= bit
    demands = sorted(outflow.items())

    def walked(projection):
        """``(total, arrival times, capacity texts, conservation texts)`` of the
        scenarios with this projection; an arc flow's loads only under 0."""
        loading = kind != "arc" or not projection
        loads: dict = {}
        inflow: dict = {}
        total = 0
        times = set()
        for walk, end, t, n in entries:
            for a, travel, delay, bit in walk:
                if t > T:
                    break
                if loading:
                    loads[(a, t)] = loads.get((a, t), 0) + n
                t += travel + delay if bit & projection else travel
            if t > T:
                continue
            if end == net.sink:
                total += n
                times.add(t)
            else:
                inflow[(end, t)] = inflow.get((end, t), 0) + n
        bad = []
        for (a, theta), load in loads.items():
            cap = net.arc_by_id[a].capacity
            if load * cap.denominator > cap.numerator * den:
                bad.append((net.arc_rank[a], theta, a, load, cap))
        over = [((a, theta), f"load {rat(load, den)} exceeds {cap}") for _, theta, a, load, cap in sorted(bad)]
        short = []
        for slot, out in demands:
            have = inflow.get(slot, 0)
            if have < out:
                short.append((slot, f"surviving inflow {rat(have, den)} < outflow {rat(out, den)}"))
        return total, times, over, short

    scenarios, masks = scenario_masks(net, gamma)
    by_projection: dict = {}
    over, short, totals = [], [], []
    for scenario, mask in zip(scenarios, masks):
        projection = mask & union
        result = by_projection.get(projection)
        if result is None:
            result = by_projection[projection] = walked(projection)
        totals.append(result[0])
        if kind != "arc":
            over += [("capacity", slot, scenario, text) for slot, text in result[2]]
        short += [("conservation", slot, scenario, text) for slot, text in result[3]]
    if kind == "arc":
        # An arc flow's loads are the same in every scenario: taken under ().
        over = [("capacity", slot, None, text) for slot, text in by_projection[0][2]]
    violations += over + short
    if violations:
        raise InfeasibleFlowError(itertools.starmap(_line, violations), lambda: violations)
    exact = {n: rat(n, den) for n in set(totals)}
    arrivals = tuple((scenario, exact[n]) for scenario, n in zip(scenarios, totals))
    robust = min(totals)
    minimizing = tuple(sc for sc, n in zip(scenarios, totals) if n == robust)
    # Every projection is some scenario's, so its arrival times are intersected once.
    common = set.intersection(*(result[1] for result in by_projection.values()))
    earliest = min(common) if common else None
    return DynamicRobustReport(
        robust_value=exact[robust],
        nominal_value=arrivals[0][1],
        per_scenario_arrival=arrivals,
        minimizing_scenarios=minimizing,
        earliest_arrival=earliest,
    )


def solve_dynamic(
    inst: DynamicInstance,
    model: str,
    *,
    maximize_nominal: bool = False,
):
    """Build, solve and cross-validate one dynamic model; returns (flow, report).

    Each builder validates the instance before it reads a route.
    """
    if model not in DYNAMIC_MODELS:
        raise NetworkError(f"unknown dynamic model {model!r}")
    catalog = inst.network.catalog
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
        lambda flow: evaluate_dynamic(flow, inst),
    )
