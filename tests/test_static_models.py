"""Static robust flow models: frozen optima, evaluator agreement, edge cases."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

import robustflow
from robustflow import (
    Arc,
    InfeasibleFlowError,
    ModelCheckError,
    Network,
    NetworkError,
    StaticFlow,
    build_am_lp,
    build_gamma1_compact_lp,
    build_gm_lp,
    build_pm_lp,
    decompose_gamma1_solution,
    enumerate_scenarios,
    enumerate_subpaths,
    evaluate_static,
    extract_gamma1_solution,
    gen_bottleneck,
    gen_fan,
    gen_random,
    gen_two_hop,
    min_arc_cut,
    nominal_max_flow,
    path_decompose,
    prune_low_indegree,
    rat,
    solve_lp,
    solve_static,
    split_capacities,
)

from robustflow import static_models

from _oracles import brute_force_evaluate_static, full_family_lp


@pytest.fixture(scope="module")
def two_hop():
    return gen_two_hop()


def test_two_hop_all_models(two_hop):
    net = two_hop
    expectations = {"pm": rat(3, 2), "am": rat(4, 3), "gm": rat(2), "gm1": rat(2)}
    for model, expected in expectations.items():
        flow, report = solve_static(net, model, 1)
        assert report.robust_value == expected, model
    assert nominal_max_flow(net)[0] == 3


def test_two_hop_pm_report_details(two_hop):
    net = two_hop
    _, report = solve_static(net, "pm", 1)
    assert report.robust_value == rat(3, 2)
    assert report.nominal_value == 3
    assert report.worst_loss == rat(3, 2)
    assert set(report.worst_scenarios) == {("a1",), ("a2",)}
    # Budget-1 worst loss equals the largest single-arc exposure.
    assert max(report.per_arc_exposure.values()) == report.worst_loss


def test_solve_reports_come_from_independent_evaluation(two_hop):
    net = two_hop
    for model in ("pm", "am", "gm"):
        flow, report = solve_static(net, model, 1)
        again = evaluate_static(flow, net, 1)
        assert again.robust_value == report.robust_value
        assert again.nominal_value == report.nominal_value
        assert again.worst_scenarios == report.worst_scenarios


def test_gamma_zero_is_nominal(two_hop):
    net = two_hop
    value = nominal_max_flow(net)[0]
    for model in ("pm", "am", "gm"):
        _, report = solve_static(net, model, 0)
        assert report.robust_value == value == report.nominal_value


def test_large_gamma_kills_everything(two_hop):
    net = two_hop
    for model in ("pm", "am", "gm"):
        _, report = solve_static(net, model, len(net.arcs))
        assert report.robust_value == 0


def test_fan_spot_check():
    net = gen_fan(2)
    assert solve_static(net, "pm", 2)[1].robust_value == 1
    assert solve_static(net, "gm", 2)[1].robust_value == 1
    assert solve_static(net, "am", 2)[1].robust_value == 0


def test_bottleneck_spot_check():
    net = gen_bottleneck(1, 3)  # eta = 6
    assert solve_static(net, "am", 1)[1].robust_value == 5  # eta - gamma
    assert solve_static(net, "gm", 1)[1].robust_value == 5
    assert solve_static(net, "pm", 1)[1].robust_value == 3  # eta / 2


def test_bottleneck_closed_forms_at_gamma_3():
    # 697 loss rows, one per scenario of up to 3 of the 16 arcs; the simplex
    # takes in only those its vertices violate.
    net = gen_bottleneck(3, 1)  # eta = 12
    for model, robust in (("pm", 3), ("gm", 9)):  # eta / (gamma + 1), eta - gamma
        _, report = solve_static(net, model, 3)
        assert (report.robust_value, report.nominal_value) == (robust, 12)


def test_full_scenario_families_match_restricted():
    for seed in (3, 5):
        net = gen_random("dag", 5, 8, max_cap=3, seed=seed)
        for gamma in (1, 2):
            for model, restricted in (
                ("pm", build_pm_lp(net, net.catalog, gamma)),
                ("am", build_am_lp(net, gamma)),
                ("gm", build_gm_lp(net, net.catalog, gamma)),
            ):
                full = solve_lp(full_family_lp(net, model, gamma))
                assert solve_lp(restricted.lp).objective_value == full.objective_value


def test_gamma1_compact_matches_and_decomposes(two_hop):
    net = two_hop
    build = build_gamma1_compact_lp(net)
    sol = solve_lp(build.lp)
    assert sol.status == "optimal"
    compact = extract_gamma1_solution(build, sol.values)
    assert compact.objective == 2
    flow = decompose_gamma1_solution(compact, net)
    assert flow.kind == "subpath"
    report = evaluate_static(flow, net, 1)
    assert report.robust_value == 2


def test_lexicographic_gm_restores_nominal(two_hop):
    net = two_hop
    _, plain = solve_static(net, "gm", 1)
    _, lex = solve_static(net, "gm", 1, maximize_nominal=True)
    assert lex.robust_value == plain.robust_value == 2
    assert lex.nominal_value == 3  # the unique robust optimum already ships f*


def test_evaluate_rejects_infeasible_flows(two_hop):
    net = two_hop
    over_capacity = StaticFlow("path", {0: rat(7, 2)})
    with pytest.raises(InfeasibleFlowError) as err:
        evaluate_static(over_capacity, net, 1)
    assert any(v.constraint == "capacity" for v in err.value.violations)
    negative = StaticFlow("path", {0: rat(-1)})
    with pytest.raises(InfeasibleFlowError):
        evaluate_static(negative, net, 1)


def test_evaluate_rejects_conservation_violation(two_hop):
    net = two_hop
    # Arc flow 1 on a1 (s->v) with nothing leaving v violates nothing (excess
    # is allowed to vanish only at interior nodes per robust conservation
    # inflow >= outflow), but outflow without inflow must be rejected.
    bad = StaticFlow("arc", {"a3": rat(1)})
    with pytest.raises(InfeasibleFlowError) as err:
        evaluate_static(bad, net, 1)
    assert any(v.constraint == "conservation" for v in err.value.violations)


def test_prune_low_indegree_zeroes_dead_subpaths():
    # Interior node with indegree 1 <= gamma: flow through it is worthless.
    net = gen_fan(1)
    flow, report = solve_static(net, "gm", 1)
    pruned = prune_low_indegree(flow, net, 1)
    again = evaluate_static(pruned, net, 1)
    assert again.robust_value == report.robust_value
    ends = {net.catalog.subpaths[idx].end for idx, v in pruned.values.items() if v > 0}
    for v in ends:
        if v not in (net.source, net.sink):
            assert len(net.in_arcs(v)) > 1


def test_unknown_model_rejected(two_hop):
    net = two_hop
    with pytest.raises(Exception):
        solve_static(net, "nope", 1)


# -- zero-optimum shortcut: a cut of at most Gamma arcs skips the LP -----------


def _solve_both_ways(net, model, gamma):
    """``solve_static`` as it is, and with ``min_arc_cut`` handing it a cut
    over the budget (the simplex path); returns both results and whether the
    real cut is within the budget."""
    shortcut = solve_static(net, model, gamma)
    with mock.patch.object(static_models, "min_arc_cut", lambda net: (None,) * (gamma + 1)):
        simplex = solve_static(net, model, gamma)
    return shortcut, simplex, len(min_arc_cut(net)) <= gamma


def test_zero_cut_shortcut_matches_the_simplex_path():
    fired = []

    @given(
        kind=st.sampled_from(["dag", "general"]),
        nodes=st.integers(3, 5),
        extra=st.integers(0, 2),
        seed=st.integers(0, 10_000),
        model=st.sampled_from(["pm", "am", "gm", "gm1"]),
        gamma_share=st.fractions(0, 1),
    )
    @settings(deadline=None, max_examples=120, derandomize=True)
    def check(kind, nodes, extra, seed, model, gamma_share):
        net = gen_random(kind, nodes, 2 * (nodes - 2) + extra, max_cap=3, seed=seed)
        gamma = 1 if model == "gm1" else round(gamma_share * len(net.arcs))
        shortcut, simplex, takes_cut = _solve_both_ways(net, model, gamma)
        if takes_cut:
            # The simplex may return another optimal flow than the zero one:
            # at Gamma >= 2 it solves on lazy loss rows.
            assert shortcut[0].values == {} and simplex[1].robust_value == 0
            assert shortcut[1].robust_value == simplex[1].robust_value
        else:
            assert shortcut == simplex
        fired.append(takes_cut)

    check()
    assert len(fired) >= 100
    assert 0.2 <= sum(fired) / len(fired) <= 0.8, sum(fired)


def _raising(*args, **kwargs):
    raise AssertionError("an LP was built")


def test_zero_cut_solves_build_no_lp(monkeypatch):
    # Every static builder raises, so these solves return only through the cut.
    split = split_capacities(gen_random("dag", 4, 5, max_cap=2, seed=505))
    assert len(min_arc_cut(split)) == 1
    for builder in ("build_pm_lp", "build_am_lp", "build_gm_lp", "build_gamma1_compact_lp"):
        monkeypatch.setattr(static_models, builder, _raising)
    for net, model, gamma in ((gen_two_hop(), "gm", 2), (split, "gm1", 1)):
        flow, report = solve_static(net, model, gamma)
        assert (flow, report.robust_value) == (StaticFlow("subpath", {}), 0)


def test_lexicographic_solves_take_no_zero_cut(two_hop):
    net = two_hop
    cuts = []

    def spy(net):
        cuts.append(min_arc_cut(net))
        return cuts[-1]

    with mock.patch.object(static_models, "min_arc_cut", spy):
        _, plain = solve_static(net, "gm", 2)
        _, lex = solve_static(net, "gm", 2, maximize_nominal=True)
    assert len(cuts) == 1 and len(cuts[0]) <= 2
    assert (plain.robust_value, plain.nominal_value) == (0, 0)
    assert (lex.robust_value, lex.nominal_value) == (0, 3)


@pytest.mark.parametrize(
    "arcs, budget, message",
    [
        ((), 0, "zero cut [] leaves a source-sink path"),
        (("a1",), 2, "zero cut ['a1'] leaves a source-sink path"),
    ],
)
def test_zero_cut_is_rechecked(two_hop, arcs, budget, message):
    with mock.patch.object(static_models, "min_arc_cut", lambda net: arcs):
        with pytest.raises(ModelCheckError, match=re.escape(message)):
            solve_static(two_hop, "gm", budget)


def test_zero_cut_needs_a_sink_without_outgoing_arcs():
    # Not a valid network: the circulation t -> u -> t counts as flow into
    # the sink for am, so although arc a alone separates s from t, the
    # optimum at Gamma = 1 is 1, not 0.
    arcs = [Arc("a", "s", "t", 1)]
    arcs += [Arc(f"b{k}", "t", "u", 1) for k in (1, 2)]
    arcs += [Arc(f"c{k}", "u", "t", 1) for k in (1, 2)]
    net = Network(("s", "u", "t"), arcs, "s", "t")
    assert min_arc_cut(net) == ("a",)
    assert solve_lp(build_am_lp(net, 1).lp).objective_value == 1
    with pytest.raises(ModelCheckError, match="arcs leaving the sink"):
        solve_static(net, "am", 1)


# -- differential test of the evaluator against the brute-force oracle ---------


def _evaluated(flow, net, gamma):
    """``evaluate_static`` in the oracle's shape: (violation tuples, report fields)."""
    try:
        report = evaluate_static(flow, net, gamma)
    except InfeasibleFlowError as exc:
        assert exc.lines == tuple(str(v) for v in exc.violations)
        return tuple((v.constraint, v.where, v.scenario, v.detail) for v in exc.violations), None
    return (), {f.name: getattr(report, f.name) for f in fields(report)}


def _candidate_flows(net, catalog, gamma, noise):
    """Path, subpath and arc flows: LP optima, nominal max flow, starved node, noise."""
    flows = []
    for model in ("pm", "am", "gm"):
        flows.append(solve_static(net, model, gamma)[0])
    _, arc_flow, _ = nominal_max_flow(net)
    arc_flow = {a: v for a, v in arc_flow.items() if v != 0}
    flows.append(StaticFlow("arc", arc_flow))
    pieces = path_decompose(arc_flow, net, net.source, net.sink)
    st_index = {p.arcs: i for i, p in enumerate(catalog.st_paths)}
    path_flow = {st_index[tuple(piece.arcs)]: val for piece, val in pieces}
    flows.append(StaticFlow("path", path_flow))
    flows.append(
        StaticFlow("subpath", {catalog.subpath_id(catalog.st_paths[i].arcs): v for i, v in path_flow.items()})
    )
    for v in net.nodes:
        if v not in (net.source, net.sink) and net.out_arcs(v):
            # Flow leaves v although nothing enters it.
            flows.append(StaticFlow("arc", {net.out_arcs(v)[0].id: rat(1)}))
            flows.append(StaticFlow("subpath", {catalog.by_start[v][0]: rat(1, 2)}))
            break
    keys = {
        "arc": [a.id for a in net.arcs],
        "path": list(range(len(catalog.st_paths))),
        "subpath": list(range(len(catalog.subpaths))),
    }
    for kind, choices in keys.items():
        flows.append(
            StaticFlow(kind, {choices[i % len(choices)]: rat(num, den) for i, num, den in noise})
        )
    return flows


@given(
    nodes=st.integers(3, 6),
    extra=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    gamma_pick=st.sampled_from(["zero", "one", "two", "all", "beyond"]),
    noise=st.lists(
        st.tuples(st.integers(0, 50), st.integers(-1, 4), st.integers(1, 3)), max_size=6
    ),
)
@settings(deadline=None, max_examples=150, derandomize=True)
def test_evaluator_matches_brute_force_oracle(nodes, extra, seed, gamma_pick, noise):
    try:
        net = gen_random("dag", nodes=nodes, arcs=max(1, 2 * (nodes - 2)) + extra, max_cap=3, seed=seed)
    except NetworkError:
        reject()
    gamma = {"zero": 0, "one": 1, "two": 2, "all": len(net.arcs), "beyond": len(net.arcs) + 1}[
        gamma_pick
    ]
    catalog = enumerate_subpaths(net)
    for flow in _candidate_flows(net, catalog, gamma, noise):
        violations, report = _evaluated(flow, net, gamma)
        expected_violations, expected_report = brute_force_evaluate_static(flow, net, catalog, gamma)
        assert violations == expected_violations, flow
        assert report == expected_report, flow
        if report is not None:
            assert list(report["per_arc_exposure"].items()) == list(
                expected_report["per_arc_exposure"].items()
            )


def test_evaluator_matches_brute_force_oracle_on_a_wide_dag():
    # 72 arcs, so every arc mask is wider than a machine word; at budget 1
    # the oracle's per-scenario loops stay cheap.
    net = gen_random("dag", nodes=30, arcs=72, max_cap=3, seed=1)
    catalog = enumerate_subpaths(net)
    _, arc_flow, _ = nominal_max_flow(net)
    arc_flow = {a: v for a, v in arc_flow.items() if v != 0}
    pieces = path_decompose(arc_flow, net, net.source, net.sink)
    pieces = [(tuple(piece.arcs), val) for piece, val in pieces]
    st_index = {p.arcs: i for i, p in enumerate(catalog.st_paths)}
    # Each path cut in two at its middle node: flow to check at interior nodes.
    halves: dict = {}
    for arcs, val in pieces:
        for part in (arcs[: len(arcs) // 2], arcs[len(arcs) // 2 :]):
            if part:
                key = catalog.subpath_id(part)
                halves[key] = halves.get(key, 0) + val
    flows = [
        StaticFlow("arc", arc_flow),
        StaticFlow("path", {st_index[arcs]: val for arcs, val in pieces}),
        StaticFlow("path", {st_index[arcs]: val * 2 for arcs, val in pieces}),
        StaticFlow("subpath", {catalog.subpath_id(arcs): val / 3 for arcs, val in pieces}),
        StaticFlow("subpath", halves),
    ]
    outcomes = []
    for flow in flows:
        violations, report = _evaluated(flow, net, 1)
        assert (violations, report) == brute_force_evaluate_static(flow, net, catalog, 1), flow
        outcomes.append(("conservation" in {v[0] for v in violations}, report is not None))
    # The nominal arc flow and the cut paths break robust conservation, the
    # doubled path flow only capacity; the others are feasible.
    assert outcomes == [(True, False), (False, True), (False, False), (False, True), (True, False)]


@pytest.mark.parametrize(
    "net",
    [
        gen_two_hop(),
        gen_fan(2),
        gen_random("dag", nodes=5, arcs=8, max_cap=3, seed=2),
        Network(
            ("s", "u", "t"),
            [
                Arc("a10", "s", "u", 1),
                Arc(2, "s", "u", 1),
                Arc("a2", "u", "t", 1),
                Arc(10, "u", "t", 1),
                Arc("b", "s", "t", 1),
            ],
            "s",
            "t",
        ),
        gen_random("dag", nodes=30, arcs=72, max_cap=3, seed=1),
    ],
    ids=["two-hop", "fan", "dag8", "mixed-ids", "dag72"],
)
def test_scenario_masks_align_with_scenario_tuples(net):
    # Mask i is the OR of the bits (arc rank in net.arcs) of scenario i.
    bit = {arc.id: 1 << i for i, arc in enumerate(net.arcs)}
    m = len(net.arcs)
    # Every budget on the small networks; the 72-arc one has C(72, 3) = 59,640
    # scenarios of size 3 alone, so it stops at 2.
    for gamma in (0, 1, 2) if m > 64 else (0, 1, 2, m, m + 1):
        scenarios, masks = static_models._scenarios(net, gamma)
        assert scenarios == enumerate_scenarios([a.id for a in net.arcs], gamma)
        expected = []
        for scenario in scenarios:
            mask = 0
            for a in scenario:
                mask |= bit[a]
            expected.append(mask)
        assert masks == expected
    if m > 64:
        assert max(masks).bit_length() == m


# -- model checks survive ``python -O`` ----------------------------------------


def _raises_under_python_O(plant, call, expected):
    # Run the module-level code ``plant``, then ``call``, under ``python -O``
    # and check that ``call`` raises ModelCheckError with ``expected``.
    code = f"""
import dataclasses, sys
from robustflow import ModelCheckError, gen_ti_gap, gen_two_hop, solve_dynamic, solve_static
assert False, "asserts must be stripped in this interpreter"
{plant}
try:
    {call}
except ModelCheckError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(robustflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"raised: {expected}" in done.stdout


def _planted_mismatch_raises(module, evaluator, call, expected):
    # Plant a wrong robust value through ``module.evaluator``: the solve
    # must still raise with the ``expected`` message.
    plant = f"""
from robustflow import {module} as module
honest = module.{evaluator}
def lying(*args, **kwargs):
    report = honest(*args, **kwargs)
    return dataclasses.replace(report, robust_value=report.robust_value + 1)
module.{evaluator} = lying
"""
    _raises_under_python_O(plant, call, expected)


def test_model_checks_raise_under_python_O():
    # A planted evaluator/LP mismatch must raise ModelCheckError even when
    # the interpreter strips asserts.
    _planted_mismatch_raises(
        "static_models",
        "evaluate_static",
        'solve_static(gen_two_hop(), "gm", 1)',
        "evaluator disagrees with the LP: 3 != 2",
    )


def test_dynamic_model_checks_raise_under_python_O():
    # The dynamic solvers run the same shared check as the static ones.
    _planted_mismatch_raises(
        "dynamic_models",
        "evaluate_dynamic",
        'solve_dynamic(gen_ti_gap(), "dpm")',
        "evaluator disagrees with the LP: 3 != 2",
    )


def test_zero_cut_check_raises_under_python_O():
    # Two-hop gm at Gamma = 2 takes the zero-cut shortcut, which builds no LP:
    # the evaluator's report of the zero flow is checked against the cut.
    _planted_mismatch_raises(
        "static_models",
        "evaluate_static",
        'solve_static(gen_two_hop(), "gm", 2)',
        "the zero flow evaluates to 1, not 0",
    )
