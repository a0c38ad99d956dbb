"""Static robust maximum-flow models.

Three LP formulations over a common adversary that removes up to ``gamma``
arcs after the flow is fixed:

* ``pm`` — flow on simple source-sink paths; a removed arc kills the whole
  path (#worst-case loss enters through an epigraph variable).
* ``am`` — flow on arcs; survival is modeled through robust conservation
  (for every node and every subset of its incoming arcs up to the budget,
  the surviving inflow still covers the outflow), and only losses directly
  at the sink count.
* ``gm`` — flow on contiguous subpaths of simple source-sink paths; strictly
  more expressive than both of the above (flow may be re-declared mid-route).

``pm`` and ``am`` are ``gm`` over other route sets: whole source-sink paths,
and single arcs.  One builder emits all three from the routes it is given,
and one evaluator checks a flow of any kind on its routes.  Scenario families
are restricted per constraint to the arcs that can affect it (the test suite
cross-checks against the unrestricted families).  A compact polynomial-size
reformulation of ``gm`` for budget 1 is provided alongside, with an exact
decomposition back to subpath flow.  Solving goes through the pipeline shared
with the dynamic models (:mod:`robustflow.model_lp`), unless a cut of at most
``gamma`` arcs proves the optimum 0 before any LP is built (:func:`solve_static`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .lp import LinearProgram
from .maxflow import min_arc_cut, path_decompose
from .model_lp import (
    ModelBuild,
    ModelCheckError,
    nonzero,
    scenario_label,
    solve_model,
)
from .network import (
    Network,
    NetworkError,
    PathCatalog,
    arc_routes,
    check_scenarios,
    enumerate_scenarios,
    flow_routes,
    reachable,
    route_index,
    separates,
    subset_masks,
)
from .rational import ZERO, common_denominator, rat

STATIC_MODELS = ("pm", "am", "gm", "gm1")


@dataclass(frozen=True)
class StaticFlow:
    """A flow of one of the three kinds.

    ``values`` maps path indices (``path``/``subpath`` kinds, indices into
    the network's catalog) or arc ids (``arc`` kind) to rational values.
    """

    kind: str
    values: Mapping


def _scenario_text(scenario) -> str:
    """``repr(list(scenario))``, the scenario as a violation line prints it."""
    return "[" + ", ".join(map(repr, scenario)) + "]"


def _line(constraint: str, where, scenario: Optional[tuple], detail: str) -> str:
    """The text of one violation: ``Violation.__str__`` and the evaluators' lines."""
    if scenario is None:
        return f"{constraint} at {where!r}; {detail}"
    return f"{constraint} at {where!r}; scenario {_scenario_text(scenario)}; {detail}"


@dataclass(frozen=True)
class Violation:
    constraint: str
    where: object
    scenario: Optional[tuple]
    detail: str

    def __str__(self) -> str:
        return _line(self.constraint, self.where, self.scenario, self.detail)


class InfeasibleFlowError(NetworkError):
    """A flow failed the evaluator's checks.

    ``lines`` holds the text of each violation, in order.  ``found()``
    yields the same violations, in the same order, as ``(constraint, where,
    scenario, detail)`` tuples; ``violations``, the tuple of their
    :class:`Violation` objects, is built from it on first read and cached,
    so a caller that only prints ``lines`` never builds one.
    """

    def __init__(self, lines, found) -> None:
        self.lines = tuple(lines)
        self._found = found
        super().__init__()

    @functools.cached_property
    def violations(self) -> tuple:
        return tuple(itertools.starmap(Violation, self._found()))

    def __str__(self) -> str:
        return "flow is infeasible:\n  " + "\n  ".join(self.lines)


@dataclass(frozen=True)
class RobustReport:
    """Evaluation of a fixed flow against the exhaustive scenario set."""

    nominal_value: object
    robust_value: object
    worst_loss: object
    worst_scenarios: tuple
    per_arc_exposure: Mapping


def build_pm_lp(net: Network, catalog: PathCatalog, gamma: int) -> ModelBuild:
    """Path-flow model: the subpath model over the whole source-sink paths."""
    return _route_lp(net, dict(enumerate(catalog.st_paths)), "path", gamma)


def build_am_lp(net: Network, gamma: int) -> ModelBuild:
    """Arc-flow model: the subpath model over the one-arc routes."""
    return _route_lp(net, arc_routes(net), "arc", gamma)


def build_gm_lp(net: Network, catalog: PathCatalog, gamma: int) -> ModelBuild:
    """Subpath-flow model: the most general of the three static models."""
    return _route_lp(net, dict(enumerate(catalog.subpaths)), "subpath", gamma)


def _route_lp(net: Network, routes: Mapping, kind: str, gamma: int) -> ModelBuild:
    """Maximize the flow of ``routes`` (key -> Path) reaching the sink minus the worst loss.

    One column ``x[key]`` per route.  Each scenario over the arcs of the
    routes into the sink bounds the loss by the flow of those it hits; at
    each interior node where routes start, each scenario over the arcs of the
    routes ending there keeps the outflow within the inflow that survives;
    each arc bounds the flow of the routes through it.

    From ``gamma = 2`` the loss rows are lazy (:mod:`robustflow.lp`): there
    are C(u, gamma) and more of them over the u arcs of the routes into the
    sink.  At ``gamma <= 1`` there are at most u + 1, about as many as the
    capacity rows.  The LP is the same, and so is its optimum, but the
    simplex may return another optimal vertex.
    """
    by_start, by_end, by_arc = route_index(routes)
    lp = LinearProgram()
    xs = {key: lp.add_var(f"x[{key}]") for key in routes}
    lam = lp.add_var("loss_bound")
    enders = by_end.get(net.sink, ())
    nominal = {xs[key]: 1 for key in enders}
    lp.set_objective({**nominal, lam: -1})

    def scenarios(ending):
        """Each scenario over the arcs of the routes ``ending``, with the routes it hits."""
        universe = {a for key in ending for a in routes[key].arcs}
        for scenario in enumerate_scenarios(universe, gamma):
            yield scenario, set().union(*(by_arc[a] for a in scenario))

    for scenario, hit in scenarios(enders):
        coeffs = {xs[key]: 1 for key in enders if key in hit}
        coeffs[lam] = -1
        lp.add_row(coeffs, "<=", 0, f"loss{scenario_label(scenario)}", lazy=gamma >= 2)
    for v in net.nodes:
        starting = by_start.get(v, ())
        if v in (net.source, net.sink) or not starting:
            continue
        ending = by_end.get(v, ())
        for scenario, hit in scenarios(ending):
            coeffs = {xs[key]: 1 for key in starting}
            for key in ending:
                if key not in hit:
                    coeffs[xs[key]] = coeffs.get(xs[key], 0) - 1
            lp.add_row(coeffs, "<=", 0, f"cons[{v}]{scenario_label(scenario)}")
    for arc in net.arcs:
        through = by_arc.get(arc.id, ())
        if through:
            lp.add_row({xs[key]: 1 for key in through}, "<=", arc.capacity, f"cap[{arc.id}]")
    return ModelBuild(lp, kind, xs, lam, nominal_coeffs=nominal)


@dataclass(frozen=True)
class CompactGamma1Solution:
    """Solution of the compact budget-1 reformulation of ``gm``."""

    y: Mapping
    nu: object
    objective: object
    nominal: object


def build_gamma1_compact_lp(net: Network) -> ModelBuild:
    """Polynomial-size equivalent of ``gm`` for budget 1.

    A commodity (v, w) is the subpath flow from v to w, for each w reachable
    from v (v not the sink, w not the source).  Its column ``y[a,v,w]`` is
    its flow on arc a, for the arcs on some v-w walk that neither enter v
    nor leave w; a commodity without such an arc is dropped.  ``nu`` bounds
    the flow crossing any single arc on its way to the sink, which for
    budget 1 is exactly the worst-case loss.  The objective is the
    commodities' flow on the arcs into the sink, minus ``nu``.  Rows, in
    this order:

    * ``exposure[a]``: the flow on arc a of the commodities that end at the
      sink is at most ``nu``;
    * ``robust[v',f]``: at each interior node v', the flow of the
      commodities starting there is at most the inflow of those ending
      there, less their flow on the failed arc f;
    * ``route[v,w,v']``: each commodity is conserved at every other node v';
    * ``cap[a]``: the commodities' flow on arc a is within its capacity.

    Junk cycles through neither endpoint are dropped during decomposition.
    """
    source, sink = net.source, net.sink
    reach = {v: reachable(net, v) for v in net.nodes}
    lp = LinearProgram()
    nu = lp.add_var("nu")
    y: dict = {}
    # (v, w, {arc id: column}), and the columns of each by first and by last node.
    commodities = []
    starting: dict = {}
    ending: dict = {}
    for v in net.nodes:
        for w in net.nodes:
            if v == sink or w in (source, v) or w not in reach[v]:
                continue
            cols = {}
            for arc in net.arcs:
                if arc.head != v and arc.tail != w and arc.tail in reach[v] and w in reach[arc.head]:
                    cols[arc.id] = y[(arc.id, v, w)] = lp.add_var(f"y[{arc.id},{v},{w}]")
            if cols:
                commodities.append((v, w, cols))
                starting.setdefault(v, []).append(cols)
                ending.setdefault(w, []).append(cols)
    into_sink = ending.get(sink, ())
    nominal = {cols[a.id]: 1 for a in net.in_arcs(sink) for cols in into_sink if a.id in cols}
    lp.set_objective({**nominal, nu: -1})
    for arc in net.arcs:
        exposed = {cols[arc.id]: 1 for cols in into_sink if arc.id in cols}
        if exposed:
            lp.add_row({**exposed, nu: -1}, "<=", 0, f"exposure[{arc.id}]")
    for vp in net.nodes:
        if vp in (source, sink):
            continue
        arriving = ending.get(vp, ())
        base = {cols[a.id]: 1 for a in net.out_arcs(vp) for cols in starting.get(vp, ()) if a.id in cols}
        base.update({cols[a.id]: -1 for a in net.in_arcs(vp) for cols in arriving if a.id in cols})
        # A failed arc that no arriving commodity uses leaves the base row,
        # which is written at the first such arc only.
        base_written = False
        for fail in net.arcs:
            lost = [cols[fail.id] for cols in arriving if fail.id in cols]
            if not lost:
                if base_written:
                    continue
                base_written = True
            coeffs = dict(base)
            for col in lost:
                coeffs[col] = coeffs.get(col, 0) + 1
            lp.add_row(coeffs, "<=", 0, f"robust[{vp},{fail.id}]")
    for v, w, cols in commodities:
        # Inflow minus outflow of the commodity at each node; a self-loop cancels.
        balance: dict = {}
        for a, col in cols.items():
            balance.setdefault(net.arc_by_id[a].head, {})[col] = 1
        for a, col in cols.items():
            out = balance.setdefault(net.arc_by_id[a].tail, {})
            out[col] = out.get(col, 0) - 1
        for vp in net.nodes:
            if vp in balance and vp not in (v, w):
                lp.add_row(balance[vp], "==", 0, f"route[{v},{w},{vp}]")
    for arc in net.arcs:
        through = {cols[arc.id]: 1 for _, _, cols in commodities if arc.id in cols}
        if through:
            lp.add_row(through, "<=", arc.capacity, f"cap[{arc.id}]")
    return ModelBuild(lp, "gamma1", y, nu, nominal_coeffs=nominal)


def extract_gamma1_solution(build: ModelBuild, values) -> CompactGamma1Solution:
    y = nonzero(build.flow_vars, values)
    nu = values[build.lam_var]
    nominal = sum((values[c] * k for c, k in build.nominal_coeffs.items()), ZERO)
    return CompactGamma1Solution(y=y, nu=nu, objective=nominal - nu, nominal=nominal)


def decompose_gamma1_solution(solution: CompactGamma1Solution, net: Network) -> StaticFlow:
    """Turn a compact solution into subpath flow; loud error if a decomposed
    piece is not a contiguous segment of any simple source-sink path."""
    per_commodity: dict = {}
    for (a, v, w), value in solution.y.items():
        per_commodity.setdefault((v, w), {})[a] = value
    values: dict = {}
    for (v, w), arc_flow in sorted(per_commodity.items()):
        for piece, val in path_decompose(arc_flow, net, v, w):
            idx = net.catalog.subpath_id(piece.arcs)
            if idx is None:
                raise NetworkError(
                    f"decomposed piece {list(piece.arcs)} is not a subpath of any "
                    "simple source-sink path"
                )
            values[idx] = values.get(idx, ZERO) + val
    return StaticFlow("subpath", values)


def _intake(raw_values: Mapping) -> tuple:
    """``(values, violations)`` of a flow's ``key -> value`` entries, in their order.

    ``values`` holds the positive values as ``Fraction``s; each negative one
    is a ``nonnegativity`` violation tuple (:class:`InfeasibleFlowError`),
    and zeros are dropped.  Both evaluators take their flow in through here,
    after they have checked every key.
    """
    values: dict = {}
    violations = []
    for key, raw in raw_values.items():
        value = rat(raw)
        if value < 0:
            violations.append(("nonnegativity", key, None, f"value {value}"))
        elif value > 0:
            values[key] = value
    return values, violations


def _scenario_texts(net: Network, gamma: int) -> list:
    """The text of each scenario of at most ``gamma`` arcs of ``net``, in
    scenario order, as :func:`_scenario_text` prints it, formatted in bulk."""
    reprs = [repr(arc.id) for arc in net.arcs]
    return [
        "[" + ", ".join(combination) + "]"
        for k in range(min(gamma, len(reprs)) + 1)
        for combination in itertools.combinations(reprs, k)
    ]


def _hit_sums(entries, gamma: int) -> tuple:
    """``(union, sums)`` of ``(key, arc mask, value)`` triples with integer values.

    ``union`` is the union of the entries' masks, and ``sums`` maps each
    subset of at most ``gamma`` of its arcs (:func:`subset_masks`), in
    scenario order, to the sum of the values of the entries it meets.  A
    scenario meets the same entries as its projection ``mask & union``, so
    these are the sums of every scenario, each taken once per projection.
    """
    masks = [mask for _, mask, _ in entries]
    nums = [n for _, _, n in entries]
    union = functools.reduce(int.__or__, masks, 0)
    sums = {p: sum(itertools.compress(nums, map(p.__and__, masks))) for p in subset_masks(union, gamma)}
    return union, sums


def _scenarios_onto(net: Network, union: int, projections, gamma: int) -> tuple:
    """The scenarios of at most ``gamma`` arcs of ``net`` that project onto
    ``union`` as one of ``projections``, in scenario order.

    Each is a projection's arcs plus a combination of the arcs outside
    ``union``, so each is built once, as arc ranks, then sorted by (size,
    ranks): the order of :func:`~robustflow.network.enumerate_scenarios`.
    """
    off = [i for i in range(len(net.arcs)) if not union >> i & 1]
    ranked = []
    for p in projections:
        own = tuple(i for i in range(p.bit_length()) if p >> i & 1)
        for k in range(min(gamma - len(own), len(off)) + 1):
            ranked.extend(tuple(sorted(own + extra)) for extra in itertools.combinations(off, k))
    ranked.sort(key=lambda ranks: (len(ranks), ranks))
    ids = [arc.id for arc in net.arcs]
    return tuple(tuple(ids[i] for i in ranks) for ranks in ranked)


def evaluate_static(flow: StaticFlow, net: Network, gamma: int) -> RobustReport:
    """LP-free evaluation of a fixed flow.

    Checks feasibility (capacity everywhere; robust conservation at every
    interior node where flow starts, which path flow never does) and
    computes the worst case over every scenario of at most ``gamma`` arcs.
    Every key is checked before any value is read, and the number of
    scenarios before any is looked at (:func:`check_scenarios`).  Raises
    :class:`InfeasibleFlowError` with all violations when the flow is not
    feasible: nonnegativity in entry order, then capacity in arc order, then
    robust conservation by node, each node's in scenario order.

    The values are put over one common denominator D
    (:func:`~robustflow.rational.common_denominator`), so that loads, inflow,
    outflow and losses are summed and compared as integers; only reported
    values and violation texts are turned back into ``Fraction``s.  Each
    flow-carrying route is an int with one bit per arc.  A sum over routes
    depends only on the part of a scenario that meets their arcs, its
    projection, so the unit of work is the distinct projection, not the
    scenario: each sum is taken once per subset of at most ``gamma`` of the
    arcs of the routes summed (:func:`_hit_sums`).  All scenarios are
    enumerated only to list violations: when some node's subset falls
    short, every scenario's mask and text (:func:`_scenario_texts`) are
    built once per call, each node's violated scenarios are picked by
    projecting the masks with one ``map``, and its lines are built in one
    comprehension.  The worst scenarios are built from the worst projections
    onto the arcs of the routes into the sink (:func:`_scenarios_onto`); when
    no flow reaches the sink, every scenario is worst.  No
    :class:`Violation` is built unless ``violations`` is read, and a
    feasible flow builds no scenario tuple but its worst ones.
    """
    if flow.kind not in ("arc", "path", "subpath"):
        raise NetworkError(f"unknown static flow kind {flow.kind!r}")
    # An arc flow is a flow on one-arc routes.
    routes, known = flow_routes(net, flow.kind)
    noun = "arc id" if flow.kind == "arc" else f"{flow.kind} index"
    for key in flow.values:
        if not known(key):
            raise NetworkError(f"unknown {noun} {key!r}")
    values, violations = _intake(flow.values)
    if flow.kind == "arc":
        values = {a: values[a] for a in routes if a in values}  # exposure in arc order
    den, nums = common_denominator(list(values.values()))
    # (key, arc mask, value * D) of the flow-carrying routes by last node;
    # outflow by first node and load by arc, times D.  Arc i of net.arcs is bit i.
    ending: dict = {}
    outflow: dict = {}
    loads: dict = {}
    for key, n in zip(values, nums):
        route = routes[key]
        mask = 0
        for a in route.arcs:
            mask |= 1 << net.arc_rank[a]
            loads[a] = loads.get(a, 0) + n
        ending.setdefault(route.end, []).append((key, mask, n))
        outflow[route.start] = outflow.get(route.start, 0) + n
    # Capacity.
    for a, load in sorted(loads.items(), key=lambda kv: net.arc_rank[kv[0]]):
        cap = net.arc_by_id[a].capacity
        if load * cap.denominator > cap.numerator * den:
            violations.append(("capacity", a, None, f"load {rat(load, den)} exceeds capacity {cap}"))
    lines = list(itertools.starmap(_line, violations))
    check_scenarios(len(net.arcs), gamma)
    ids = [arc.id for arc in net.arcs]
    # Robust conservation: (node, union, short) of each node where some
    # projection onto the union of its incoming routes' arcs falls short;
    # short maps each such projection to its detail.
    conservation = []
    for v in net.nodes:
        out = outflow.get(v, 0)
        if v in (net.source, net.sink) or out == 0:
            continue
        incoming = ending.get(v, ())
        total_in = sum(n for _, _, n in incoming)
        union, hit_sums = _hit_sums(incoming, gamma)
        short = {
            projection: f"surviving inflow {rat(total_in - hit, den)} < outflow {rat(out, den)}"
            for projection, hit in hit_sums.items()
            if total_in - hit < out
        }
        if short:
            conservation.append((v, union, short))
    if conservation:
        masks = list(subset_masks((1 << len(ids)) - 1, gamma))
        texts = _scenario_texts(net, gamma)
        for v, union, short in conservation:
            prefix = f"conservation at {v!r}; scenario "
            details = map(short.get, map(union.__and__, masks))
            lines += [f"{prefix}{text}; {detail}" for text, detail in zip(texts, details) if detail]
    if lines:

        def found():
            yield from violations
            scenarios = enumerate_scenarios(ids, gamma) if conservation else ()
            for v, union, short in conservation:
                details = map(short.get, map(union.__and__, masks))
                for scenario, detail in zip(scenarios, details):
                    if detail:
                        yield "conservation", v, scenario, detail

        raise InfeasibleFlowError(lines, found)
    # Worst case over every scenario, one loss per projection onto the
    # arcs of the routes into the sink.
    t_support = ending.get(net.sink, [])
    nominal = sum(n for _, _, n in t_support)
    union, losses = _hit_sums(t_support, gamma)
    worst_loss = max(losses.values())
    if union:
        top = [projection for projection, loss in losses.items() if loss == worst_loss]
        worst = _scenarios_onto(net, union, top, gamma)
    else:
        worst = enumerate_scenarios(ids, gamma)  # no flow reaches the sink: each loses 0
    exposure: dict = {}
    for key, _, n in t_support:
        for a in routes[key].arcs:
            exposure[a] = exposure.get(a, 0) + n
    if gamma == 1 and worst_loss != max(exposure.values(), default=0):
        raise ModelCheckError("budget-1 worst loss must equal the peak exposure")
    return RobustReport(
        nominal_value=rat(nominal, den),
        robust_value=rat(nominal - worst_loss, den),
        worst_loss=rat(worst_loss, den),
        worst_scenarios=worst,
        per_arc_exposure={a: rat(n, den) for a, n in exposure.items()},
    )


def prune_low_indegree(flow: StaticFlow, net: Network, gamma: int) -> StaticFlow:
    """Zero out subpath flow ending at interior nodes of indegree <= gamma.

    At such a node the adversary can cut all incoming arcs, so feasibility
    already forces the outgoing subpath flow to zero (error if it is not),
    and the incoming subpath flow is useless.  The robust value is checked
    unchanged.
    """
    if flow.kind != "subpath":
        raise NetworkError("pruning applies to subpath flow")
    before = evaluate_static(flow, net, gamma)
    doomed = set()
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        if len(net.in_arcs(v)) <= gamma:
            for i in net.catalog.by_start.get(v, ()):
                if rat(flow.values.get(i, 0)) > 0:
                    raise NetworkError(
                        f"feasible flow cannot start at node {v!r} whose indegree "
                        f"{len(net.in_arcs(v))} is within the failure budget"
                    )
            doomed.update(net.catalog.by_end.get(v, ()))
    pruned = StaticFlow(
        "subpath",
        {i: v for i, v in flow.values.items() if i not in doomed and rat(v) != 0},
    )
    after = evaluate_static(pruned, net, gamma)
    if after.robust_value != before.robust_value:
        raise ModelCheckError("pruning changed the robust value")
    return pruned


def solve_static(
    net: Network,
    model: str,
    gamma: int,
    *,
    maximize_nominal: bool = False,
):
    """Build, solve and cross-validate one static model.

    Returns ``(flow, report)``; with ``maximize_nominal`` the nominal value
    is maximized among robust-optimal flows.  The report always comes from
    :func:`evaluate_static`, so the LP optimum is re-derived independently.

    A plain solve first computes a smallest source-sink arc cut C
    (:func:`min_arc_cut`).  When ``|C| <= gamma``, the scenario that removes
    C leaves no source-sink path, and every flow of every model has robust
    value 0:

    * ``pm``: every source-sink path crosses C, so removing C loses all of
      the flow.
    * ``am`` and ``gm``: let T be the sink side of the cut, the nodes that
      removing C cuts off from the source; every arc from the source side
      into T is in C.  Add up robust conservation under C (outflow <=
      surviving inflow) over the nodes of T other than the sink; the sum is
      <= 0.  A unit of flow (an arc, or a subpath) that ends in T and
      survives C cannot have crossed from the source side, so it starts at
      a node of T other than the sink, which has no outgoing arcs.  Each
      unit is counted once as outflow at its start and at most once as
      surviving inflow, so the sum is at least the surviving inflow of the
      sink, which bounds the robust value.
    * ``gm1`` has the optimum of ``gm`` at budget 1.

    No LP is built then.  The cut is re-checked (it separates the source
    from the sink, and no arc leaves the sink), and the zero flow of the
    model's kind is returned with its report from :func:`evaluate_static`,
    which must read a robust value of 0: the zero flow is feasible and
    reaches the bound.  ``--lex-nominal`` solves always run the simplex:
    among robust-0 flows, the nominal optimum need not be 0.
    """
    if model not in STATIC_MODELS:
        raise NetworkError(f"unknown static model {model!r}")
    if isinstance(gamma, bool) or not isinstance(gamma, int) or gamma < 0:
        raise NetworkError(f"gamma must be an integer >= 0, got {gamma!r}")
    if model == "gm1" and gamma != 1:
        raise NetworkError("the compact model is defined for gamma = 1 only")
    if not maximize_nominal:
        cut = min_arc_cut(net)
        if len(cut) <= gamma:
            if not separates(net, cut):
                raise ModelCheckError(f"zero cut {list(cut)} leaves a source-sink path")
            if net.out_arcs(net.sink):
                raise ModelCheckError("zero cut given for a network with arcs leaving the sink")
            flow = StaticFlow({"pm": "path", "am": "arc"}.get(model, "subpath"), {})
            report = evaluate_static(flow, net, gamma)
            if report.robust_value != 0:
                raise ModelCheckError(f"the zero flow evaluates to {report.robust_value}, not 0")
            return flow, report
    if model == "pm":
        build = build_pm_lp(net, net.catalog, gamma)
    elif model == "am":
        build = build_am_lp(net, gamma)
    elif model == "gm":
        build = build_gm_lp(net, net.catalog, gamma)
    else:
        build = build_gamma1_compact_lp(net)

    def extract(values) -> StaticFlow:
        if model == "gm1":
            compact = extract_gamma1_solution(build, values)
            return decompose_gamma1_solution(compact, net)
        return StaticFlow(build.kind, nonzero(build.flow_vars, values))

    return solve_model(
        build,
        maximize_nominal,
        extract,
        lambda flow: evaluate_static(flow, net, gamma),
    )
