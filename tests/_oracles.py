"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and data
structures than the library code: path enumeration is iterative instead of
recursive, the min cut comes from node-partition enumeration instead of a
max-flow run, the nominal dynamic value comes from an Edmonds-Karp solve of
a freshly built time expansion, the subset-sum check is a DP bitset, the
static evaluator re-sums every scenario instead of each distinct projection,
the static LPs are built with every row family over all arcs, the dynamic
evaluator re-walks every route for every scenario, and the optimum check
sums each row as Fractions.
"""

from fractions import Fraction
from itertools import combinations


def st_paths(net):
    """All simple source-sink paths as tuples of arc ids (iterative DFS)."""
    found = []
    # Stack entries: (node, visited-node-set, arc-id tuple).
    stack = [(net.source, frozenset({net.source}), ())]
    while stack:
        node, seen, arcs = stack.pop()
        if node == net.sink:
            found.append(arcs)
            continue
        for arc in net.out_arcs(node):
            if arc.head not in seen:
                stack.append((arc.head, seen | {arc.head}, arcs + (arc.id,)))
    return sorted(found)


def full_family_lp(net, model, gamma):
    """The ``pm``, ``am`` or ``gm`` LP with every scenario family over all arcs.

    Routes are this module's source-sink paths (``pm``), their contiguous
    pieces (``gm``) or single arcs (``am``).  Every loss row and every robust
    conservation row ranges over all subsets of at most ``gamma`` arcs of the
    network, not only over the arcs that can affect the row; exact repeats
    are dropped.
    """
    from robustflow import LinearProgram

    ends = {a.id: (a.tail, a.head) for a in net.arcs}
    if model == "am":
        routes = [(a.id,) for a in net.arcs]
    else:
        paths = st_paths(net)
        routes = paths if model == "pm" else sorted(
            {p[i:j] for p in paths for i in range(len(p)) for j in range(i + 1, len(p) + 1)}
        )
    lp = LinearProgram("max")
    x = [lp.add_var() for _ in routes]
    loss = lp.add_var()
    into_sink = [k for k, r in enumerate(routes) if ends[r[-1]][1] == net.sink]
    objective = {x[k]: 1 for k in into_sink}
    objective[loss] = -1
    lp.set_objective(objective)
    ids = [a.id for a in net.arcs]
    scenarios = [set(c) for size in range(min(gamma, len(ids)) + 1) for c in combinations(ids, size)]
    seen = set()

    def add(coeffs, rhs):
        coeffs = {j: c for j, c in coeffs.items() if c}
        key = (frozenset(coeffs.items()), rhs)
        if coeffs and key not in seen:
            seen.add(key)
            lp.add_constraint(coeffs, "<=", rhs)

    for hit in scenarios:
        row = {x[k]: 1 for k in into_sink if hit.intersection(routes[k])}
        row[loss] = -1
        add(row, 0)
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        for hit in scenarios:
            row = {}
            for k, r in enumerate(routes):
                if ends[r[0]][0] == v:
                    row[x[k]] = row.get(x[k], 0) + 1
                if ends[r[-1]][1] == v and not hit.intersection(r):
                    row[x[k]] = row.get(x[k], 0) - 1
            add(row, 0)
    for a in net.arcs:
        add({x[k]: 1 for k, r in enumerate(routes) if a.id in r}, a.capacity)
    return lp


def min_cut_value(net):
    """Minimum s-t cut by enumerating node bipartitions (small graphs only)."""
    others = [v for v in net.nodes if v not in (net.source, net.sink)]
    if len(others) > 16:
        raise ValueError("oracle min cut is exponential; use a smaller graph")
    best = None
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            side = {net.source, *chosen}
            value = Fraction(0)
            for arc in net.arcs:
                if arc.tail in side and arc.head not in side:
                    value += Fraction(int(arc.capacity.numerator), int(arc.capacity.denominator))
            if best is None or value < best:
                best = value
    return best


def edmonds_karp(nodes, arc_list, source, sink):
    """Max-flow value on (tail, head, capacity) triples; parallel arcs merge."""
    cap = {}
    adj = {v: set() for v in nodes}
    for tail, head, capacity in arc_list:
        cap[(tail, head)] = cap.get((tail, head), Fraction(0)) + Fraction(
            int(capacity.numerator), int(capacity.denominator)
        )
        cap.setdefault((head, tail), Fraction(0))
        adj[tail].add(head)
        adj[head].add(tail)
    total = Fraction(0)
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            v = queue.pop(0)
            for w in adj[v]:
                if w not in parent and cap[(v, w)] > 0:
                    parent[w] = v
                    queue.append(w)
        if sink not in parent:
            return total
        bottleneck = None
        w = sink
        while parent[w] is not None:
            v = parent[w]
            if bottleneck is None or cap[(v, w)] < bottleneck:
                bottleneck = cap[(v, w)]
            w = v
        w = sink
        while parent[w] is not None:
            v = parent[w]
            cap[(v, w)] -= bottleneck
            cap[(w, v)] += bottleneck
            w = v
        total += bottleneck


def nominal_dynamic_value(inst):
    """Nominal flow-over-time value via an independently built time expansion.

    Node copies v@theta for theta in [0..T]; an arc (v, w, tau) becomes copies
    v@theta -> w@(theta+tau) for departures theta with theta+tau <= T; flow may
    enter the source copies at any time and leaves from every sink copy.  No
    holdover arcs: flow cannot wait at intermediate nodes.
    """
    net = inst.network
    horizon = inst.horizon
    big = Fraction(0)
    for arc in net.arcs:
        big += Fraction(int(arc.capacity.numerator), int(arc.capacity.denominator)) * horizon
    big += 1
    nodes = ["SRC", "SNK"]
    arc_list = []
    for theta in range(1, horizon + 1):
        for v in net.nodes:
            nodes.append(f"{v}@{theta}")
    for theta in range(1, horizon + 1):
        arc_list.append(("SRC", f"{net.source}@{theta}", big))
        arc_list.append((f"{net.sink}@{theta}", "SNK", big))
        for arc in net.arcs:
            arrive = theta + arc.travel_time
            if arrive <= horizon:
                arc_list.append((f"{arc.tail}@{theta}", f"{arc.head}@{arrive}", arc.capacity))
    return edmonds_karp(nodes, arc_list, "SRC", "SNK")


def subset_sum_half(values):
    """True iff some subset of ``values`` sums to half the (even) total."""
    total = sum(values)
    if total % 2:
        return False
    reachable = 1
    for v in values:
        reachable |= reachable << v
    return bool(reachable >> (total // 2) & 1)


def brute_force_evaluate_static(flow, net, catalog, gamma):
    """Reference static evaluator: every sum is re-done for every scenario.

    The per-scenario loops of the original ``evaluate_static``, kept as the
    brute-force side of a differential test.  Returns ``(violations, None)``
    with ``(constraint, where, scenario, detail)`` tuples when the flow is
    infeasible, else ``((), fields)`` with the ``RobustReport`` fields as a dict.
    """
    from robustflow import ZERO, enumerate_scenarios, enumerate_subpaths, rat

    if flow.kind in ("path", "subpath") and catalog is None:
        catalog = enumerate_subpaths(net)
    values = {}
    violations = []
    for key, raw in flow.values.items():
        value = rat(raw)
        if value < 0:
            violations.append(("nonnegativity", key, None, f"value {value}"))
            continue
        if value == 0:
            continue
        values[key] = value
    support = []
    if flow.kind == "path":
        for key, value in values.items():
            support.append((key, frozenset(catalog.st_paths[key].arcs), value))
        t_support = support
    elif flow.kind == "subpath":
        for key, value in values.items():
            support.append((key, frozenset(catalog.subpaths[key].arcs), value))
        enders = set(catalog.by_end.get(net.sink, ()))
        t_support = [entry for entry in support if entry[0] in enders]
    else:
        t_support = [
            (a.id, frozenset([a.id]), values[a.id])
            for a in net.in_arcs(net.sink)
            if a.id in values
        ]
    loads = {}
    if flow.kind == "arc":
        for key, value in values.items():
            loads[key] = value
    else:
        for key, arcset, value in support:
            arcs = (
                catalog.st_paths[key].arcs if flow.kind == "path" else catalog.subpaths[key].arcs
            )
            for a in arcs:
                loads[a] = loads.get(a, ZERO) + value
    for a, load in sorted(loads.items(), key=lambda kv: net.arc_rank[kv[0]]):
        cap = rat(net.arc_by_id[a].capacity)
        if load > cap:
            violations.append(("capacity", a, None, f"load {load} exceeds capacity {cap}"))
    scenarios = enumerate_scenarios([a.id for a in net.arcs], gamma)
    if flow.kind in ("arc", "subpath"):
        for v in net.nodes:
            if v in (net.source, net.sink):
                continue
            if flow.kind == "arc":
                incoming = [
                    (a.id, frozenset([a.id]), values[a.id])
                    for a in net.in_arcs(v)
                    if a.id in values
                ]
                outflow = sum((values[a.id] for a in net.out_arcs(v) if a.id in values), ZERO)
            else:
                ender_ids = set(catalog.by_end.get(v, ()))
                starter_ids = set(catalog.by_start.get(v, ()))
                incoming = [e for e in support if e[0] in ender_ids]
                outflow = sum((e[2] for e in support if e[0] in starter_ids), ZERO)
            if outflow == 0:
                continue
            for scenario in scenarios:
                hit = set(scenario)
                surviving = sum((val for _, arcset, val in incoming if not (arcset & hit)), ZERO)
                if surviving < outflow:
                    violations.append(
                        (
                            "conservation",
                            v,
                            scenario,
                            f"surviving inflow {surviving} < outflow {outflow}",
                        )
                    )
    if violations:
        return tuple(violations), None
    nominal = sum((val for _, _, val in t_support), ZERO)
    worst_loss = None
    worst = []
    for scenario in scenarios:
        hit = set(scenario)
        loss = sum((val for _, arcset, val in t_support if arcset & hit), ZERO)
        if worst_loss is None or loss > worst_loss:
            worst_loss = loss
            worst = [scenario]
        elif loss == worst_loss:
            worst.append(scenario)
    exposure = {}
    for key, arcset, value in t_support:
        arcs = arcset
        if flow.kind == "path":
            arcs = catalog.st_paths[key].arcs
        elif flow.kind == "subpath":
            arcs = catalog.subpaths[key].arcs
        for a in arcs:
            exposure[a] = exposure.get(a, ZERO) + value
    fields = {
        "nominal_value": nominal,
        "robust_value": nominal - worst_loss,
        "worst_loss": worst_loss,
        "worst_scenarios": tuple(worst),
        "per_arc_exposure": exposure,
    }
    return (), fields


def _line(constraint, where, scenario, detail):
    """One violation as the evaluators' ``InfeasibleFlowError.lines`` print it."""
    parts = [f"{constraint} at {where!r}"]
    if scenario is not None:
        parts.append(f"scenario {list(scenario)}")
    parts.append(detail)
    return "; ".join(parts)


def brute_force_evaluate_dynamic(flow, inst, catalog=None):
    """Reference dynamic evaluator: Fraction sums, every route re-walked per scenario.

    The loops of the original ``evaluate_dynamic``, kept as the brute-force
    side of a differential test.  Returns ``(lines, None)`` with the
    violation lines in the evaluator's order when the flow is infeasible,
    else ``((), fields)`` with the ``DynamicRobustReport`` fields as a dict.
    Keys must name known routes or arcs.
    """
    from robustflow import ZERO, enumerate_scenarios, enumerate_subpaths, rat

    kind = flow.kind
    net, T, gamma = inst.network, inst.horizon, inst.gamma
    if kind in ("path", "subpath", "tr") and catalog is None:
        catalog = enumerate_subpaths(net)
    violations = []
    values = {}
    for key, raw in flow.values.items():
        value = rat(raw)
        if value < 0:
            violations.append(("nonnegativity", key, None, f"value {value}"))
        elif value > 0:
            values[key] = value
    routes = None
    if kind in ("path", "tr"):
        routes = catalog.st_paths
    elif kind == "subpath":
        routes = catalog.subpaths

    def travel(arcs):
        return sum(net.arc_by_id[a].travel_time for a in arcs)

    def ends(key):
        if kind == "arc":
            return net.arc_by_id[key].tail, net.arc_by_id[key].head
        return routes[key].start, routes[key].end

    def shift(key, hit):
        if kind == "arc":
            arc = net.arc_by_id[key]
            return arc.travel_time + (arc.delay if key in hit else 0)
        arcs = routes[key].arcs
        return travel(arcs) + sum(net.arc_by_id[a].delay for a in arcs if a in hit)

    support = []
    if kind == "tr":
        for i, value in values.items():
            for dep in range(1, T - travel(routes[i].arcs) + 1):
                support.append((i, dep, value))
    elif kind in ("path", "subpath"):
        for (i, theta), value in sorted(values.items()):
            if not 1 <= theta <= T:
                violations.append(("horizon", (i, theta), None, f"departure {theta} outside 1..{T}"))
                continue
            support.append((i, theta, value))
    else:
        for (a, theta), value in sorted(values.items(), key=lambda kv: (net.arc_rank[kv[0][0]], kv[0][1])):
            if not 1 <= theta <= T:
                violations.append(("horizon", (a, theta), None, f"entry {theta} outside 1..{T}"))
                continue
            support.append((a, theta, value))
    scenarios = enumerate_scenarios([a.id for a in net.arcs], gamma)
    if kind == "arc":
        for a, theta, value in support:
            cap = net.arc_by_id[a].capacity
            if value > cap:
                violations.append(("capacity", (a, theta), None, f"load {value} exceeds {cap}"))
    else:
        for scenario in scenarios:
            hit = set(scenario)
            loads = {}
            for i, dep, value in support:
                t = dep
                for a in routes[i].arcs:
                    if t > T:
                        break
                    loads[(a, t)] = loads.get((a, t), ZERO) + value
                    arc = net.arc_by_id[a]
                    t += arc.travel_time + (arc.delay if a in hit else 0)
            for (a, theta), load in sorted(loads.items(), key=lambda kv: (net.arc_rank[kv[0][0]], kv[0][1])):
                cap = net.arc_by_id[a].capacity
                if load > cap:
                    violations.append(("capacity", (a, theta), scenario, f"load {load} exceeds {cap}"))
    if kind in ("arc", "subpath"):
        interior = [v for v in net.nodes if v not in (net.source, net.sink)]
        outflow = {}
        for key, dep, value in support:
            start = ends(key)[0]
            if start != net.source:
                outflow[(start, dep)] = outflow.get((start, dep), ZERO) + value
        for scenario in scenarios:
            hit = set(scenario)
            inflow = {}
            for key, dep, value in support:
                end = ends(key)[1]
                if end == net.sink:
                    continue
                arrival = dep + shift(key, hit)
                if arrival <= T:
                    inflow[(end, arrival)] = inflow.get((end, arrival), ZERO) + value
            for (v, theta), out in sorted(outflow.items()):
                if v not in interior:
                    continue
                have = inflow.get((v, theta), ZERO)
                if have < out:
                    violations.append(
                        ("conservation", (v, theta), scenario, f"surviving inflow {have} < outflow {out}")
                    )
    if violations:
        return tuple(_line(*v) for v in violations), None
    arrivals = []
    arrival_times = []
    for scenario in scenarios:
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
    common = set.intersection(*arrival_times) if arrival_times else set()
    fields = {
        "robust_value": robust,
        "nominal_value": arrivals[0][1],
        "per_scenario_arrival": tuple(arrivals),
        "minimizing_scenarios": tuple(sc for sc, total in arrivals if total == robust),
        "earliest_arrival": min(common) if common else None,
    }
    return (), fields


def row_by_row_verify(lp, values):
    """Reference optimum check: each row's left side summed as Fractions.

    The original ``lp._verify``; raises ``LpCheckError`` with the same
    messages.
    """
    from robustflow.lp import LpCheckError

    for j in range(lp.n_vars):
        if not (lp.free[j] or values[j] >= 0):
            raise LpCheckError("solver produced a negative variable")
    for con in lp.constraints:
        lhs = sum((c * values[j] for j, c in con.coeffs.items()), Fraction(0))
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            raise LpCheckError(f"solver violated constraint {con.label or ''}")
