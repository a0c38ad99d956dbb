"""Exact maximum flow (Edmonds-Karp) and flow decomposition.

Everything here runs over exact rationals; the max-flow routine also returns
the value of a minimum cut, which callers use as an optimality certificate.
The cut is read off the last augmenting search, the one that finds no path:
the nodes it reaches are the source side of a minimum cut (the max-flow
min-cut theorem: Ford & Fulkerson, 1956; Edmonds & Karp, 1972).  The same
routine on unit capacities gives a smallest source-sink arc cut
(:func:`min_arc_cut`).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Optional

from .network import Network, NetworkError, Path
from .rational import ONE, ZERO, rat


def nominal_max_flow(net: Network):
    """Maximum source-sink flow value, an optimal arc flow, and a min-cut value.

    Returns ``(value, arc_flow, min_cut_value)`` with ``arc_flow`` keyed by
    arc id.  The cut value comes from the cut of the last augmenting search
    (module docstring), so ``value == min_cut_value`` certifies optimality.
    """
    flow, cut = _max_flow(net, {arc.id: arc.capacity for arc in net.arcs})
    value = sum((flow[a.id] for a in net.out_arcs(net.source)), ZERO) - sum(
        (flow[a.id] for a in net.in_arcs(net.source)), ZERO
    )
    cut_value = sum((arc.capacity for arc in cut), ZERO)
    return value, flow, cut_value


def min_arc_cut(net: Network) -> tuple:
    """A smallest set of arcs whose removal leaves no source-sink path.

    The ids come in the network's arc order.  It is the minimum cut of the
    unit-capacity max flow, so its size is the largest number of arc-disjoint
    source-sink paths.
    """
    return tuple(arc.id for arc in _max_flow(net, {arc.id: ONE for arc in net.arcs})[1])


def _max_flow(net: Network, capacity: Mapping):
    """Edmonds-Karp under ``capacity`` (arc id -> rational).

    Returns ``(arc_flow, cut)``: a maximum flow keyed by arc id, and a
    minimum cut: the arcs (in arc order) leaving the nodes that the last
    breadth-first search reaches.  That search finds no augmenting path, so
    it has explored everything reachable in the final residual graph.
    """
    flow = {arc.id: ZERO for arc in net.arcs}
    source, sink = net.source, net.sink
    while True:
        # BFS for a shortest augmenting path; parent[v] = (arc, direction)
        parent: dict = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            v = queue.popleft()
            for arc in net.out_arcs(v):
                if arc.head not in parent and capacity[arc.id] - flow[arc.id] > 0:
                    parent[arc.head] = (arc, 1)
                    queue.append(arc.head)
            for arc in net.in_arcs(v):
                if arc.tail not in parent and flow[arc.id] > 0:
                    parent[arc.tail] = (arc, -1)
                    queue.append(arc.tail)
        if sink not in parent:
            break  # parent holds the source side of a minimum cut
        # Find the bottleneck along the augmenting path, then push.
        slack = None
        v = sink
        while v != source:
            arc, direction = parent[v]
            room = capacity[arc.id] - flow[arc.id] if direction > 0 else flow[arc.id]
            slack = room if slack is None or room < slack else slack
            v = arc.tail if direction > 0 else arc.head
        v = sink
        while v != source:
            arc, direction = parent[v]
            flow[arc.id] += slack if direction > 0 else -slack
            v = arc.tail if direction > 0 else arc.head
    cut = tuple(arc for arc in net.arcs if arc.tail in parent and arc.head not in parent)
    return flow, cut


def path_decompose(arc_flow: Mapping, net: Network, from_node: str, to_node: str):
    """Decompose an arc flow into simple ``from_node``-``to_node`` paths.

    Cycle flow is discarded; the returned path values sum to the net outflow
    of ``from_node``.  Negative entries or a conservation violation at any
    other node raise :class:`NetworkError`.
    """
    if from_node == to_node:
        raise NetworkError("decomposition endpoints must differ")
    remaining = {}
    for arc_id, value in arc_flow.items():
        value = rat(value)
        if value < 0:
            raise NetworkError(f"negative flow on arc {arc_id!r}")
        if arc_id not in net.arc_by_id:
            raise NetworkError(f"flow on unknown arc {arc_id!r}")
        if value > 0:
            remaining[arc_id] = value
    balance: dict = {}
    for arc_id, value in remaining.items():
        arc = net.arc_by_id[arc_id]
        balance[arc.head] = balance.get(arc.head, ZERO) + value
        balance[arc.tail] = balance.get(arc.tail, ZERO) - value
    for v, net_in in balance.items():
        if v not in (from_node, to_node) and net_in != 0:
            raise NetworkError(f"flow conservation violated at node {v!r}")

    def find_path() -> Optional[list]:
        stack = [(from_node, [])]
        visited = {from_node}
        while stack:
            v, trail = stack.pop()
            if v == to_node:
                return trail
            # The network keeps out-arcs in arc order; pushing them reversed
            # pops the first arc first.
            for arc in [
                a for a in net.out_arcs(v) if remaining.get(a.id, ZERO) > 0 and a.head not in visited
            ][::-1]:
                visited.add(arc.head)
                stack.append((arc.head, trail + [arc]))
        return None

    pieces = []
    while True:
        trail = find_path()
        if trail is None:
            break
        value = min(remaining[arc.id] for arc in trail)
        for arc in trail:
            remaining[arc.id] -= value
            if remaining[arc.id] == 0:
                del remaining[arc.id]
        nodes = (from_node,) + tuple(arc.head for arc in trail)
        pieces.append((Path(tuple(arc.id for arc in trail), nodes), value))
    return pieces
