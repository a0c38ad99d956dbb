"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and data
structures than the library code: path enumeration is iterative instead of
recursive, the min cut comes from node-partition enumeration instead of a
max-flow run, the nominal dynamic value comes from an Edmonds-Karp solve of
a freshly built time expansion, the subset-sum check is a DP bitset, and the
static evaluator re-sums every scenario instead of each distinct projection.
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
            support.append((key, catalog.st_arcsets[key], value))
        t_support = support
    elif flow.kind == "subpath":
        for key, value in values.items():
            support.append((key, catalog.sub_arcsets[key], value))
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
    scenario_set = enumerate_scenarios([a.id for a in net.arcs], gamma)
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
            for scenario in scenario_set.scenarios:
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
    for scenario in scenario_set.scenarios:
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
