"""Network model: nodes, capacitated arcs, paths, subpaths and failure scenarios.

A network is a directed multigraph with a dedicated source and sink.  Arcs
carry exact rational capacities plus integer travel times / delays (only used
by the dynamic models; static instances leave both at 0).

Enumeration helpers are deterministic: arcs are ordered by id, simple paths
lexicographically by their arc-id sequences, scenarios by (size, arc order);
a scenario's arc mask has bit i set when it holds arc ``net.arcs[i]``.
Exhaustive enumerations are protected by guards that raise ``GuardExceeded``
instead of looping for hours; the defaults can be overridden with the
``ROBUSTFLOW_GUARD_PATHS`` / ``ROBUSTFLOW_GUARD_SCENARIOS`` environment
variables.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .rational import rat

DEFAULT_GUARD_PATHS = 100_000
DEFAULT_GUARD_SCENARIOS = 1_000_000


class NetworkError(ValueError):
    """Malformed network, flow or parameter (domain error)."""


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its configured guard."""


def _env_guard(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise NetworkError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise NetworkError(f"{name} must be positive, got {value}")
    return value


def guard_paths() -> int:
    return _env_guard("ROBUSTFLOW_GUARD_PATHS", DEFAULT_GUARD_PATHS)


def guard_scenarios() -> int:
    return _env_guard("ROBUSTFLOW_GUARD_SCENARIOS", DEFAULT_GUARD_SCENARIOS)


def arc_sort_key(arc_id: Hashable):
    """Total order on arc ids: ints first by value, then strings by (length, text).

    The length-first rule keeps numbered ids in natural order (a2 before a10).
    """
    if isinstance(arc_id, int):
        return (0, arc_id, "")
    text = str(arc_id)
    return (1, len(text), text)


@dataclass(frozen=True)
class Arc:
    """One directed arc.  ``capacity`` is a positive exact rational.

    A :class:`Network` stores its arcs with the capacity converted to
    ``Fraction`` once, so code reading ``net.arcs`` uses it as it is.
    """

    id: Hashable
    tail: str
    head: str
    capacity: object
    travel_time: int = 0
    delay: int = 0


class Network:
    """Directed multigraph with source/sink and deterministic arc order.

    The constructor accepts any input, normalizes arc order and converts
    every capacity to a ``Fraction`` once (one that cannot be converted is
    kept as given, for :func:`validate_network` to report); use
    :func:`validate_network` to check the structural invariants.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        arcs: Iterable[Arc],
        source: str,
        sink: str,
        meta: Optional[Mapping] = None,
    ) -> None:
        self.nodes = tuple(nodes)
        self.arcs = tuple(sorted(map(_exact_capacity, arcs), key=lambda a: arc_sort_key(a.id)))
        self.source = source
        self.sink = sink
        self.meta = dict(meta) if meta else {}
        self.arc_by_id = {}
        for arc in self.arcs:
            self.arc_by_id.setdefault(arc.id, arc)
        out: dict = {v: [] for v in self.nodes}
        inc: dict = {v: [] for v in self.nodes}
        for arc in self.arcs:
            out.setdefault(arc.tail, []).append(arc)
            inc.setdefault(arc.head, []).append(arc)
        self._out = {v: tuple(lst) for v, lst in out.items()}
        self._in = {v: tuple(lst) for v, lst in inc.items()}
        self.arc_rank = {arc.id: i for i, arc in enumerate(self.arcs)}

    @functools.cached_property
    def catalog(self) -> PathCatalog:
        """This network's routes; each route set is enumerated on its first read."""
        return enumerate_subpaths(self)

    def out_arcs(self, v: str) -> tuple:
        return self._out.get(v, ())

    def in_arcs(self, v: str) -> tuple:
        return self._in.get(v, ())

    def __repr__(self) -> str:
        return (
            f"Network(|V|={len(self.nodes)}, |A|={len(self.arcs)}, "
            f"source={self.source!r}, sink={self.sink!r})"
        )


def _exact_capacity(arc: Arc) -> Arc:
    if isinstance(arc.capacity, Fraction):
        return arc
    try:
        return dataclasses.replace(arc, capacity=rat(arc.capacity))
    except (TypeError, ValueError, ZeroDivisionError):
        return arc


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_network(net: Network) -> ValidationReport:
    """Check the structural invariants; returns all violations, never raises."""
    bad = []
    nodeset = set(net.nodes)
    if len(nodeset) != len(net.nodes):
        bad.append("duplicate node names")
    if net.source not in nodeset:
        bad.append(f"source {net.source!r} is not a node")
    if net.sink not in nodeset:
        bad.append(f"sink {net.sink!r} is not a node")
    if net.source == net.sink:
        bad.append("source equals sink")
    seen_ids = set()
    texts: dict = {}  # the first arc id printed as each text
    for arc in net.arcs:
        if isinstance(arc.id, bool):
            bad.append(f"arc id {arc.id!r} is a boolean")
        if arc.id in seen_ids:
            bad.append(f"duplicate arc id {arc.id!r}")
        elif str(arc.id) in texts:
            bad.append(f"arc ids {texts[str(arc.id)]!r} and {arc.id!r} have the same text")
        seen_ids.add(arc.id)
        texts.setdefault(str(arc.id), arc.id)
        if arc.tail not in nodeset:
            bad.append(f"arc {arc.id!r}: unknown tail {arc.tail!r}")
        if arc.head not in nodeset:
            bad.append(f"arc {arc.id!r}: unknown head {arc.head!r}")
        if not (isinstance(arc.capacity, Fraction) and arc.capacity > 0):
            bad.append(f"arc {arc.id!r}: capacity must be a positive rational")
        for attr in ("travel_time", "delay"):
            value = getattr(arc, attr)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                bad.append(f"arc {arc.id!r}: {attr} must be an integer >= 0")
        if arc.head == net.source:
            bad.append(f"arc {arc.id!r} enters the source")
        if arc.tail == net.sink:
            bad.append(f"arc {arc.id!r} leaves the sink")
    if net.source in nodeset and net.sink in nodeset and net.source != net.sink:
        fwd = reachable(net, net.source, forward=True)
        bwd = reachable(net, net.sink, forward=False)
        for v in net.nodes:
            if v not in fwd or v not in bwd:
                bad.append(f"node {v!r} is not on any source-sink path")
    return ValidationReport(tuple(bad))


def separates(net: Network, arc_ids) -> bool:
    """True when removing the arcs ``arc_ids`` leaves no source-sink path."""
    return net.sink not in reachable(net, net.source, forward=True, removed=frozenset(arc_ids))


def reachable(net: Network, start: str, *, forward: bool = True, removed=frozenset()) -> set:
    """The nodes reachable from ``start`` (reaching it, if not ``forward``) avoiding ``removed``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        arcs = net.out_arcs(v) if forward else net.in_arcs(v)
        for arc in arcs:
            w = arc.head if forward else arc.tail
            if w not in seen and arc.id not in removed:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class Path:
    """A directed path, stored as its arc-id sequence plus visited nodes."""

    arcs: tuple
    nodes: tuple

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.arcs)


class PathCatalog:
    """The simple source-sink paths of a network and their contiguous subpaths.

    Each route set is enumerated on first read, under the path guard:
    ``st_paths`` lexicographic in the arc order; ``subpaths`` deduplicated
    and sorted; ``by_end``/``by_start`` map nodes to subpath indices.
    """

    def __init__(self, net: Network) -> None:
        self._net = net

    @functools.cached_property
    def st_paths(self) -> tuple:
        return enumerate_st_paths(self._net)

    @functools.cached_property
    def subpaths(self) -> tuple:
        st_paths = self.st_paths
        limit = guard_paths()
        seen = {}
        for path in st_paths:
            n = len(path.arcs)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    key = path.arcs[i:j]
                    if key not in seen:
                        if len(seen) >= limit:
                            raise GuardExceeded(
                                f"more than {limit} subpaths; raise the guard to proceed"
                            )
                        seen[key] = Path(key, path.nodes[i : j + 1])
        rank = self._net.arc_rank
        return tuple(seen[key] for key in sorted(seen, key=lambda key: tuple(rank[a] for a in key)))

    @functools.cached_property
    def _ends(self) -> tuple:
        return route_index(dict(enumerate(self.subpaths)))

    @property
    def by_start(self) -> Mapping:
        return self._ends[0]

    @property
    def by_end(self) -> Mapping:
        return self._ends[1]

    @functools.cached_property
    def sub_index(self) -> Mapping:
        return {sub.arcs: i for i, sub in enumerate(self.subpaths)}

    def subpath_id(self, arcs: Sequence) -> Optional[int]:
        return self.sub_index.get(tuple(arcs))


def enumerate_st_paths(net: Network) -> tuple:
    """All simple source-sink paths, lexicographic in the arc order.

    A depth-first search that keeps one iterator over the out-arcs of each
    node on the current path, so a path of any length needs no recursion.
    """
    limit = guard_paths()
    paths = []
    ids = []  # the arc ids of the current path
    nodes = [net.source]
    visited = {net.source}
    out_left = [iter(net.out_arcs(net.source))]
    while out_left:
        for arc in out_left[-1]:
            if arc.head == net.sink:
                if len(paths) >= limit:
                    raise GuardExceeded(
                        f"more than {limit} source-sink paths; raise the guard to proceed"
                    )
                paths.append(Path((*ids, arc.id), (*nodes, arc.head)))
            elif arc.head not in visited:
                visited.add(arc.head)
                ids.append(arc.id)
                nodes.append(arc.head)
                out_left.append(iter(net.out_arcs(arc.head)))
                break
        else:
            out_left.pop()
            visited.discard(nodes.pop())
            del ids[-1:]  # empty once the source's arcs run out
    return tuple(paths)


def enumerate_subpaths(net: Network) -> PathCatalog:
    """Catalog of simple s-t paths plus every contiguous segment of one.

    Each route set is enumerated when it is first read; ``net.catalog`` is
    the network's own catalog, so each set is enumerated at most once.
    """
    return PathCatalog(net)


def arc_routes(net: Network) -> dict:
    """Every arc as a one-arc route: ``{arc id: Path}``, in the network's arc order."""
    return {a: Path((a,), (arc.tail, arc.head)) for a, arc in net.arc_by_id.items()}


def flow_routes(net: Network, kind: str) -> tuple:
    """``(routes, known)``: the routes the keys of a ``kind`` flow name, and a key test.

    An ``arc`` flow is keyed by arc id (:func:`arc_routes`), a ``subpath``
    flow by subpath index and any other kind by source-sink path index, into
    ``net.catalog``.  No ``bool`` is a key, although ``True == 1``.
    """
    if kind == "arc":
        routes = arc_routes(net)
        return routes, lambda key: not isinstance(key, bool) and key in routes
    routes = net.catalog.subpaths if kind == "subpath" else net.catalog.st_paths
    return routes, lambda key: isinstance(key, int) and not isinstance(key, bool) and 0 <= key < len(routes)


def route_index(routes: Mapping) -> tuple:
    """``(by_start, by_end, by_arc)`` of a ``key -> Path`` mapping.

    Each maps a node (the route's first or last node) or an arc id to the
    tuple of the keys of the routes there, in the mapping's order.
    """
    by_start: dict = {}
    by_end: dict = {}
    by_arc: dict = {}
    for key, route in routes.items():
        by_start.setdefault(route.start, []).append(key)
        by_end.setdefault(route.end, []).append(key)
        for a in route.arcs:
            by_arc.setdefault(a, []).append(key)
    return tuple(
        {k: tuple(keys) for k, keys in index.items()} for index in (by_start, by_end, by_arc)
    )


def scenario_count(universe_size: int, gamma: int) -> int:
    return sum(math.comb(universe_size, k) for k in range(0, min(gamma, universe_size) + 1))


def check_scenarios(size: int, gamma: int) -> None:
    """Raise unless ``gamma`` is an integer >= 0 and the scenarios of at most
    ``gamma`` of ``size`` arcs are within the scenario guard."""
    if isinstance(gamma, bool) or not isinstance(gamma, int) or gamma < 0:
        raise NetworkError(f"gamma must be an integer >= 0, got {gamma!r}")
    limit = guard_scenarios()
    total = scenario_count(size, gamma)
    if total > limit:
        raise GuardExceeded(
            f"{total} scenarios exceed the guard of {limit}; raise the guard to proceed"
        )


def enumerate_scenarios(universe: Iterable[Hashable], gamma: int) -> tuple:
    """All subsets of ``universe`` of size <= gamma, ordered by (size, arc order).

    Each scenario is a tuple of arc ids.
    """
    ordered = tuple(sorted(set(universe), key=arc_sort_key))
    check_scenarios(len(ordered), gamma)
    scenarios = []
    for k in range(0, min(gamma, len(ordered)) + 1):
        scenarios.extend(itertools.combinations(ordered, k))
    return tuple(scenarios)


def subset_masks(mask: int, gamma: int) -> Iterator[int]:
    """The masks of every subset of at most ``gamma`` of the bits of ``mask``.

    They come in scenario order: by size, then in the order of
    ``itertools.combinations`` over the bits from the lowest.  Nothing is
    guarded here: the caller checks the scenarios of all arcs first
    (:func:`check_scenarios`), and a mask's subsets are no more than those.
    """
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    sizes = range(min(gamma, len(bits)) + 1)
    return itertools.chain.from_iterable(map(sum, itertools.combinations(bits, k)) for k in sizes)


def scenario_masks(net: Network, gamma: int) -> tuple:
    """``(scenarios, masks)``: the scenarios of at most ``gamma`` arcs of ``net``
    (:func:`enumerate_scenarios`, which guards their number) and, in the same
    order, each one's arc mask.

    Arc ``net.arcs[i]`` is bit ``i``.  ``net.arcs`` is sorted by
    :func:`arc_sort_key`, the enumeration's order, so the subsets of all the
    bits (:func:`subset_masks`) come in step with the tuples.
    """
    scenarios = enumerate_scenarios([a.id for a in net.arcs], gamma)
    return scenarios, list(subset_masks((1 << len(net.arcs)) - 1, gamma))
