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

Scenario families are restricted per constraint to the arcs that can affect
it; ``full_lambda=True`` emits the unrestricted families instead (the two
are equivalent; the test suite cross-checks).  A compact polynomial-size
reformulation of ``gm`` for budget 1 is provided alongside, with an exact
decomposition back to subpath flow.  Solving goes through the pipeline shared
with the dynamic models (:mod:`robustflow.model_lp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .lp import LinearProgram
from .maxflow import min_arc_cut, path_decompose
from .model_lp import (
    ModelBuild,
    ModelCheckError,
    Rows,
    ZeroCut,
    arcs_on,
    nonzero,
    scenario_label,
    solve_model,
)
from .network import (
    Network,
    NetworkError,
    PathCatalog,
    enumerate_scenarios,
    enumerate_subpaths,
)
from .rational import ZERO, rat

STATIC_MODELS = ("pm", "am", "gm", "gm1")


@dataclass(frozen=True)
class StaticFlow:
    """A flow of one of the three kinds.

    ``values`` maps path indices (``path``/``subpath`` kinds, indices into
    the catalog) or arc ids (``arc`` kind) to rational values.
    """

    kind: str
    values: Mapping


@dataclass(frozen=True)
class Violation:
    constraint: str
    where: object
    scenario: Optional[tuple]
    detail: str

    def __str__(self) -> str:
        parts = [f"{self.constraint} at {self.where!r}"]
        if self.scenario is not None:
            parts.append(f"scenario {list(self.scenario)}")
        parts.append(self.detail)
        return "; ".join(parts)


class InfeasibleFlowError(NetworkError):
    """A flow failed the evaluator's checks; ``lines`` formats each violation once."""

    def __init__(self, violations) -> None:
        self.violations = tuple(violations)
        self.lines = tuple(str(v) for v in self.violations)
        super().__init__()

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


def build_pm_lp(
    net: Network,
    catalog: PathCatalog,
    gamma: int,
    *,
    full_lambda: bool = False,
) -> ModelBuild:
    """Path-flow model: maximize total flow minus worst-case lost flow."""
    lp = LinearProgram("max")
    xs = [lp.add_var(f"x[{i}]") for i in range(len(catalog.st_paths))]
    lam = lp.add_var("loss_bound")
    lp.set_objective({**{x: 1 for x in xs}, lam: -1})
    rows = Rows(lp)
    if full_lambda:
        universe = [a.id for a in net.arcs]
    else:
        universe = list(catalog.st_by_arc)
    for scenario in enumerate_scenarios(universe, gamma).scenarios:
        touched = set()
        for a in scenario:
            touched.update(catalog.st_by_arc.get(a, ()))
        coeffs = {xs[i]: 1 for i in touched}
        coeffs[lam] = -1
        rows.add(coeffs, "<=", 0, f"loss{scenario_label(scenario)}")
    for arc in net.arcs:
        hit = catalog.st_by_arc.get(arc.id, ())
        if hit:
            rows.add({xs[i]: 1 for i in hit}, "<=", arc.capacity, f"cap[{arc.id}]")
    return ModelBuild(
        lp,
        "path",
        {i: xs[i] for i in range(len(xs))},
        lam,
        nominal_coeffs={x: 1 for x in xs},
    )


def build_am_lp(
    net: Network,
    gamma: int,
    *,
    full_lambda: bool = False,
) -> ModelBuild:
    """Arc-flow model with robust conservation at every interior node."""
    lp = LinearProgram("max")
    xs = {arc.id: lp.add_var(f"x[{arc.id}]") for arc in net.arcs}
    lam = lp.add_var("loss_bound")
    sink_arcs = [a.id for a in net.in_arcs(net.sink)]
    lp.set_objective({**{xs[a]: 1 for a in sink_arcs}, lam: -1})
    rows = Rows(lp)
    all_ids = [a.id for a in net.arcs]
    universe = all_ids if full_lambda else sink_arcs
    sink_set = set(sink_arcs)
    for scenario in enumerate_scenarios(universe, gamma).scenarios:
        coeffs = {xs[a]: 1 for a in scenario if a in sink_set}
        coeffs[lam] = -1
        rows.add(coeffs, "<=", 0, f"loss{scenario_label(scenario)}")
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        incoming = [a.id for a in net.in_arcs(v)]
        outgoing = [a.id for a in net.out_arcs(v)]
        if not outgoing:
            continue
        node_universe = all_ids if full_lambda else incoming
        incoming_set = set(incoming)
        for scenario in enumerate_scenarios(node_universe, gamma).scenarios:
            removed = set(scenario) & incoming_set
            coeffs = {xs[a]: 1 for a in outgoing}
            for a in incoming:
                if a not in removed:
                    coeffs[xs[a]] = coeffs.get(xs[a], 0) - 1
            rows.add(coeffs, "<=", 0, f"cons[{v}]{scenario_label(scenario)}")
    for arc in net.arcs:
        rows.add({xs[arc.id]: 1}, "<=", arc.capacity, f"cap[{arc.id}]")
    return ModelBuild(
        lp,
        "arc",
        dict(xs),
        lam,
        nominal_coeffs={xs[a]: 1 for a in sink_arcs},
    )


def build_gm_lp(
    net: Network,
    catalog: PathCatalog,
    gamma: int,
    *,
    full_lambda: bool = False,
) -> ModelBuild:
    """Subpath-flow model: the most general of the three static models."""
    lp = LinearProgram("max")
    xs = [lp.add_var(f"x[{i}]") for i in range(len(catalog.subpaths))]
    lam = lp.add_var("loss_bound")
    enders = catalog.by_end.get(net.sink, ())
    lp.set_objective({**{xs[i]: 1 for i in enders}, lam: -1})
    rows = Rows(lp)
    all_ids = [a.id for a in net.arcs]
    subs = catalog.subpaths
    universe = all_ids if full_lambda else arcs_on(net, (subs[i] for i in enders))
    for scenario in enumerate_scenarios(universe, gamma).scenarios:
        hit = set(scenario)
        coeffs = {xs[i]: 1 for i in enders if catalog.sub_arcsets[i] & hit}
        coeffs[lam] = -1
        rows.add(coeffs, "<=", 0, f"loss{scenario_label(scenario)}")
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        ending = catalog.by_end.get(v, ())
        starting = catalog.by_start.get(v, ())
        if not starting:
            continue
        node_universe = all_ids if full_lambda else arcs_on(net, (subs[i] for i in ending))
        for scenario in enumerate_scenarios(node_universe, gamma).scenarios:
            hit = set(scenario)
            coeffs = {xs[i]: 1 for i in starting}
            for i in ending:
                if not (catalog.sub_arcsets[i] & hit):
                    coeffs[xs[i]] = coeffs.get(xs[i], 0) - 1
            rows.add(coeffs, "<=", 0, f"cons[{v}]{scenario_label(scenario)}")
    for arc in net.arcs:
        hit = catalog.by_arc.get(arc.id, ())
        if hit:
            rows.add({xs[i]: 1 for i in hit}, "<=", arc.capacity, f"cap[{arc.id}]")
    return ModelBuild(
        lp,
        "subpath",
        {i: xs[i] for i in range(len(xs))},
        lam,
        nominal_coeffs={xs[i]: 1 for i in enders},
    )


@dataclass(frozen=True)
class CompactGamma1Solution:
    """Solution of the compact budget-1 reformulation of ``gm``."""

    y: Mapping
    nu: object
    objective: object
    nominal: object


def build_gamma1_compact_lp(net: Network) -> ModelBuild:
    """Polynomial-size equivalent of ``gm`` for budget 1.

    Variables ``y[a, v, w]`` carve the subpath flow into commodities by
    (start, end); ``nu`` bounds the flow crossing any single arc on its way
    to the sink, which for budget 1 is exactly the worst-case loss.
    Commodities are limited to reachable pairs, and arcs to those on some
    v-w walk; junk cycles through neither endpoint are dropped during
    decomposition.
    """
    source, sink = net.source, net.sink
    reach_from = {v: _forward_reach(net, v) for v in net.nodes}
    commodities = [
        (v, w)
        for v in net.nodes
        if v != sink
        for w in net.nodes
        if w != source and w != v and w in reach_from[v]
    ]
    lp = LinearProgram("max")
    nu = lp.add_var("nu")
    y: dict = {}
    by_commodity: dict = {}
    for v, w in commodities:
        cols = {}
        for arc in net.arcs:
            if arc.head == v or arc.tail == w:
                continue
            if arc.tail not in reach_from[v] or w not in reach_from[arc.head]:
                continue
            cols[arc.id] = lp.add_var(f"y[{arc.id},{v},{w}]")
        if cols:
            by_commodity[(v, w)] = cols
            for a, col in cols.items():
                y[(a, v, w)] = col
    rows = Rows(lp)
    sink_cols: dict = {}
    for (v, w), cols in by_commodity.items():
        if w != sink:
            continue
        for a, col in cols.items():
            sink_cols.setdefault(a, []).append(col)
    objective = {col: 1 for a in net.in_arcs(sink) for col in sink_cols.get(a.id, ())}
    nominal = dict(objective)
    objective[nu] = -1
    lp.set_objective(objective)
    for a, cols in sorted(sink_cols.items(), key=lambda kv: net.arc_rank[kv[0]]):
        rows.add({col: 1 for col in cols} | {nu: -1}, "<=", 0, f"exposure[{a}]")
    for vprime in net.nodes:
        if vprime in (source, sink):
            continue
        inflow = {
            col: 1
            for arc in net.in_arcs(vprime)
            for (v, w), cols in by_commodity.items()
            if w == vprime
            for a, col in cols.items()
            if a == arc.id
        }
        outflow: dict = {}
        for arc in net.out_arcs(vprime):
            for (v, w), cols in by_commodity.items():
                if v == vprime and arc.id in cols:
                    outflow[cols[arc.id]] = 1
        for fail in net.arcs:
            coeffs = dict(outflow)
            for col in inflow:
                coeffs[col] = coeffs.get(col, 0) - 1
            for (v, w), cols in by_commodity.items():
                if w == vprime and fail.id in cols:
                    col = cols[fail.id]
                    coeffs[col] = coeffs.get(col, 0) + 1
            rows.add(coeffs, "<=", 0, f"robust[{vprime},{fail.id}]")
    for (v, w), cols in by_commodity.items():
        for vprime in net.nodes:
            if vprime in (v, w):
                continue
            coeffs: dict = {}
            for arc in net.in_arcs(vprime):
                if arc.id in cols:
                    coeffs[cols[arc.id]] = coeffs.get(cols[arc.id], 0) + 1
            for arc in net.out_arcs(vprime):
                if arc.id in cols:
                    coeffs[cols[arc.id]] = coeffs.get(cols[arc.id], 0) - 1
            if coeffs:
                rows.add(coeffs, "==", 0, f"route[{v},{w},{vprime}]")
    for arc in net.arcs:
        coeffs = {}
        for (v, w), cols in by_commodity.items():
            if arc.id in cols:
                coeffs[cols[arc.id]] = 1
        if coeffs:
            rows.add(coeffs, "<=", arc.capacity, f"cap[{arc.id}]")
    build = ModelBuild(lp, "gamma1", dict(y), nu, nominal_coeffs=nominal)
    return build


def _forward_reach(net: Network, start: str) -> frozenset:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for arc in net.out_arcs(v):
            if arc.head not in seen:
                seen.add(arc.head)
                stack.append(arc.head)
    return frozenset(seen)


def extract_gamma1_solution(build: ModelBuild, values) -> CompactGamma1Solution:
    y = nonzero(build.flow_vars, values)
    nu = values[build.lam_var]
    nominal = sum((values[c] * k for c, k in build.nominal_coeffs.items()), ZERO)
    return CompactGamma1Solution(y=y, nu=nu, objective=nominal - nu, nominal=nominal)


def decompose_gamma1_solution(
    solution: CompactGamma1Solution,
    net: Network,
    catalog: Optional[PathCatalog] = None,
) -> StaticFlow:
    """Turn a compact solution into subpath flow; loud error if a decomposed
    piece is not a contiguous segment of any simple source-sink path."""
    if catalog is None:
        catalog = enumerate_subpaths(net)
    per_commodity: dict = {}
    for (a, v, w), value in solution.y.items():
        per_commodity.setdefault((v, w), {})[a] = value
    values: dict = {}
    for (v, w), arc_flow in sorted(per_commodity.items()):
        for piece, val in path_decompose(arc_flow, net, v, w):
            idx = catalog.subpath_id(piece.arcs)
            if idx is None:
                raise NetworkError(
                    f"decomposed piece {list(piece.arcs)} is not a subpath of any "
                    "simple source-sink path"
                )
            values[idx] = values.get(idx, ZERO) + val
    return StaticFlow("subpath", values)


def _projected_sums(entries, scenarios):
    """Sum the hit values of ``entries`` once per distinct scenario projection.

    ``entries`` are ``(key, arcset, value)`` triples.  A scenario's projection
    is the ordered tuple of its arcs that lie in the union of the arcsets;
    scenarios with the same projection hit the same entries.  Returns the
    projections in scenario order and a dict from each distinct projection to
    the sum of the values of the entries it hits.
    """
    union = frozenset().union(*(arcset for _, arcset, _ in entries))
    projections = [tuple(filter(union.__contains__, scenario)) for scenario in scenarios]
    sums = {}
    for projection in projections:
        if projection not in sums:
            sums[projection] = sum(
                (val for _, arcset, val in entries if not arcset.isdisjoint(projection)), ZERO
            )
    return projections, sums


def evaluate_static(
    flow: StaticFlow,
    net: Network,
    catalog: Optional[PathCatalog],
    gamma: int,
) -> RobustReport:
    """LP-free evaluation of a fixed flow.

    Checks feasibility (capacity everywhere; robust conservation for the
    arc/subpath kinds) and computes the worst case by exhaustive scenario
    enumeration over all arcs.  Raises :class:`InfeasibleFlowError` with all
    violations when the flow is not feasible.

    A sum over flow-carrying routes only depends on the part of a scenario
    that meets those routes' arcs, so each scenario is projected onto that
    union (:func:`_projected_sums`) and the rationals are summed and compared
    once per distinct projection, not once per scenario.  The cost is
    O(scenarios x nodes) tuple lookups plus one rational sum per distinct
    projection; violations and worst scenarios still come out in scenario
    order.
    """
    if flow.kind not in ("path", "arc", "subpath"):
        raise NetworkError(f"unknown static flow kind {flow.kind!r}")
    if flow.kind in ("path", "subpath") and catalog is None:
        catalog = enumerate_subpaths(net)
    values = {}
    violations = []
    for key, raw in flow.values.items():
        value = rat(raw)
        if value < 0:
            violations.append(Violation("nonnegativity", key, None, f"value {value}"))
            continue
        if value == 0:
            continue
        values[key] = value
    support = []  # (key, arcset, value) of flow-carrying routes
    if flow.kind == "path":
        for key, value in values.items():
            if not isinstance(key, int) or not 0 <= key < len(catalog.st_paths):
                raise NetworkError(f"unknown path index {key!r}")
            support.append((key, catalog.st_arcsets[key], value))
        t_support = support
    elif flow.kind == "subpath":
        for key, value in values.items():
            if not isinstance(key, int) or not 0 <= key < len(catalog.subpaths):
                raise NetworkError(f"unknown subpath index {key!r}")
            support.append((key, catalog.sub_arcsets[key], value))
        enders = set(catalog.by_end.get(net.sink, ()))
        t_support = [entry for entry in support if entry[0] in enders]
    else:
        for key in values:
            if key not in net.arc_by_id:
                raise NetworkError(f"unknown arc id {key!r}")
        t_support = [
            (a.id, frozenset([a.id]), values[a.id])
            for a in net.in_arcs(net.sink)
            if a.id in values
        ]
    # Capacity.
    loads: dict = {}
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
        cap = net.arc_by_id[a].capacity
        if load > cap:
            violations.append(
                Violation("capacity", a, None, f"load {load} exceeds capacity {cap}")
            )
    scenario_set = enumerate_scenarios([a.id for a in net.arcs], gamma)
    # Robust conservation.
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
            total_in = sum((val for _, _, val in incoming), ZERO)
            projections, hit_sums = _projected_sums(incoming, scenario_set.scenarios)
            short = {}
            for projection, hit in hit_sums.items():
                surviving = total_in - hit
                if surviving < outflow:
                    short[projection] = f"surviving inflow {surviving} < outflow {outflow}"
            if not short:
                continue
            for scenario, projection in zip(scenario_set.scenarios, projections):
                detail = short.get(projection)
                if detail is not None:
                    violations.append(Violation("conservation", v, scenario, detail))
    if violations:
        raise InfeasibleFlowError(violations)
    # Worst case over the exhaustive scenario set.
    nominal = sum((val for _, _, val in t_support), ZERO)
    projections, losses = _projected_sums(t_support, scenario_set.scenarios)
    worst_loss = max(losses.values())
    top = {projection for projection, loss in losses.items() if loss == worst_loss}
    worst = tuple(
        scenario
        for scenario, projection in zip(scenario_set.scenarios, projections)
        if projection in top
    )
    exposure: dict = {}
    for key, arcset, value in t_support:
        arcs = arcset
        if flow.kind == "path":
            arcs = catalog.st_paths[key].arcs
        elif flow.kind == "subpath":
            arcs = catalog.subpaths[key].arcs
        for a in arcs:
            exposure[a] = exposure.get(a, ZERO) + value
    if gamma == 1 and worst_loss != max(exposure.values(), default=ZERO):
        raise ModelCheckError("budget-1 worst loss must equal the peak exposure")
    return RobustReport(
        nominal_value=nominal,
        robust_value=nominal - worst_loss,
        worst_loss=worst_loss,
        worst_scenarios=worst,
        per_arc_exposure=exposure,
    )


def prune_low_indegree(
    flow: StaticFlow,
    net: Network,
    catalog: PathCatalog,
    gamma: int,
) -> StaticFlow:
    """Zero out subpath flow ending at interior nodes of indegree <= gamma.

    At such a node the adversary can cut all incoming arcs, so feasibility
    already forces the outgoing subpath flow to zero (error if it is not),
    and the incoming subpath flow is useless.  The robust value is checked
    unchanged.
    """
    if flow.kind != "subpath":
        raise NetworkError("pruning applies to subpath flow")
    before = evaluate_static(flow, net, catalog, gamma)
    doomed = set()
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        if len(net.in_arcs(v)) <= gamma:
            for i in catalog.by_start.get(v, ()):
                if rat(flow.values.get(i, 0)) > 0:
                    raise NetworkError(
                        f"feasible flow cannot start at node {v!r} whose indegree "
                        f"{len(net.in_arcs(v))} is within the failure budget"
                    )
            doomed.update(catalog.by_end.get(v, ()))
    pruned = StaticFlow(
        "subpath",
        {i: v for i, v in flow.values.items() if i not in doomed and rat(v) != 0},
    )
    after = evaluate_static(pruned, net, catalog, gamma)
    if after.robust_value != before.robust_value:
        raise ModelCheckError("pruning changed the robust value")
    return pruned


def solve_static(
    net: Network,
    model: str,
    gamma: int,
    *,
    maximize_nominal: bool = False,
    catalog: Optional[PathCatalog] = None,
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
      the flow, and the loss row of C bounds the objective by 0.
    * ``am`` and ``gm``: let T be the sink side of the cut, the nodes that
      removing C cuts off from the source; every arc from the source side
      into T is in C.  Add up robust conservation under C (outflow <=
      surviving inflow) over the nodes of T other than the sink; the sum is
      <= 0.  A unit of flow (an arc, or a subpath) that ends in T and
      survives C cannot have crossed from the source side, so it starts at
      a node of T other than the sink, which has no outgoing arcs.  Each
      unit is counted once as outflow at its start and at most once as
      surviving inflow, so the sum is at least the surviving inflow of the
      sink.  The loss row of C bounds the objective by that inflow, so by 0.
    * ``gm1`` has the optimum of ``gm`` at budget 1.

    Each row uses C restricted to the arcs the row can see, a scenario of
    at most ``gamma`` arcs in its family that hits the same routes.

    The LP is still built, and :func:`~robustflow.model_lp.solve_model`
    checks that x = 0 is its simplex's starting vertex, re-checks the cut
    and passes the all-zero vector through the same extraction and
    evaluator: an optimum of 0 from the starting vertex x = 0 means every
    pivot of Bland's rule is degenerate, so the simplex returns exactly
    x = 0 and the flow and report are the same.  ``--lex-nominal`` solves
    still run the simplex: among robust-0 flows, the nominal optimum need
    not be 0.
    """
    if model not in STATIC_MODELS:
        raise NetworkError(f"unknown static model {model!r}")
    if isinstance(gamma, bool) or not isinstance(gamma, int) or gamma < 0:
        raise NetworkError(f"gamma must be an integer >= 0, got {gamma!r}")
    if model == "gm1" and gamma != 1:
        raise NetworkError("the compact model is defined for gamma = 1 only")
    if catalog is None and model in ("pm", "gm", "gm1"):
        catalog = enumerate_subpaths(net)
    if model == "pm":
        build = build_pm_lp(net, catalog, gamma)
    elif model == "am":
        build = build_am_lp(net, gamma)
    elif model == "gm":
        build = build_gm_lp(net, catalog, gamma)
    else:
        build = build_gamma1_compact_lp(net)
    zero_cut = None
    if not maximize_nominal:
        cut = min_arc_cut(net)
        if len(cut) <= gamma:
            zero_cut = ZeroCut(net, gamma, cut)

    def extract(values) -> StaticFlow:
        if model == "gm1":
            compact = extract_gamma1_solution(build, values)
            return decompose_gamma1_solution(compact, net, catalog)
        return StaticFlow(build.kind, nonzero(build.flow_vars, values))

    return solve_model(
        build,
        maximize_nominal,
        extract,
        lambda flow: evaluate_static(flow, net, catalog, gamma),
        zero_cut,
    )
