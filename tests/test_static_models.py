"""Static robust flow models: frozen optima, evaluator agreement, edge cases."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import robustflow
from robustflow import (
    InfeasibleFlowError,
    NetworkError,
    StaticFlow,
    build_am_lp,
    build_gamma1_compact_lp,
    build_gm_lp,
    build_pm_lp,
    decompose_gamma1_solution,
    enumerate_subpaths,
    evaluate_static,
    extract_gamma1_solution,
    gen_bottleneck,
    gen_fan,
    gen_random,
    gen_two_hop,
    nominal_max_flow,
    path_decompose,
    prune_low_indegree,
    rat,
    solve_lp,
    solve_static,
)

from _oracles import brute_force_evaluate_static


@pytest.fixture(scope="module")
def two_hop():
    net = gen_two_hop()
    return net, enumerate_subpaths(net)


def test_two_hop_all_models(two_hop):
    net, catalog = two_hop
    expectations = {"pm": rat(3, 2), "am": rat(4, 3), "gm": rat(2), "gm1": rat(2)}
    for model, expected in expectations.items():
        flow, report = solve_static(net, model, 1, catalog=catalog)
        assert report.robust_value == expected, model
    assert nominal_max_flow(net)[0] == 3


def test_two_hop_pm_report_details(two_hop):
    net, catalog = two_hop
    _, report = solve_static(net, "pm", 1, catalog=catalog)
    assert report.robust_value == rat(3, 2)
    assert report.nominal_value == 3
    assert report.worst_loss == rat(3, 2)
    assert set(report.worst_scenarios) == {("a1",), ("a2",)}
    # Budget-1 worst loss equals the largest single-arc exposure.
    assert max(report.per_arc_exposure.values()) == report.worst_loss


def test_solve_reports_come_from_independent_evaluation(two_hop):
    net, catalog = two_hop
    for model in ("pm", "am", "gm"):
        flow, report = solve_static(net, model, 1, catalog=catalog)
        again = evaluate_static(flow, net, catalog, 1)
        assert again.robust_value == report.robust_value
        assert again.nominal_value == report.nominal_value
        assert again.worst_scenarios == report.worst_scenarios


def test_gamma_zero_is_nominal(two_hop):
    net, catalog = two_hop
    value = nominal_max_flow(net)[0]
    for model in ("pm", "am", "gm"):
        _, report = solve_static(net, model, 0, catalog=catalog)
        assert report.robust_value == value == report.nominal_value


def test_large_gamma_kills_everything(two_hop):
    net, catalog = two_hop
    for model in ("pm", "am", "gm"):
        _, report = solve_static(net, model, len(net.arcs), catalog=catalog)
        assert report.robust_value == 0


def test_fan_spot_check():
    net = gen_fan(2)
    catalog = enumerate_subpaths(net)
    assert solve_static(net, "pm", 2, catalog=catalog)[1].robust_value == 1
    assert solve_static(net, "gm", 2, catalog=catalog)[1].robust_value == 1
    assert solve_static(net, "am", 2)[1].robust_value == 0


def test_bottleneck_spot_check():
    net = gen_bottleneck(1, 3)  # eta = 6
    catalog = enumerate_subpaths(net)
    assert solve_static(net, "am", 1)[1].robust_value == 5  # eta - gamma
    assert solve_static(net, "gm", 1, catalog=catalog)[1].robust_value == 5
    assert solve_static(net, "pm", 1, catalog=catalog)[1].robust_value == 3  # eta / 2


def test_full_scenario_families_match_restricted():
    for seed in (3, 5):
        net = gen_random("dag", 5, 8, max_cap=3, seed=seed)
        catalog = enumerate_subpaths(net)
        for gamma in (1, 2):
            for build_fn, needs_catalog in (
                (build_pm_lp, True),
                (build_am_lp, False),
                (build_gm_lp, True),
            ):
                args = (net, catalog, gamma) if needs_catalog else (net, gamma)
                restricted = solve_lp(build_fn(*args).lp)
                full = solve_lp(build_fn(*args, full_lambda=True).lp)
                assert restricted.objective_value == full.objective_value


def test_gamma1_compact_matches_and_decomposes(two_hop):
    net, catalog = two_hop
    build = build_gamma1_compact_lp(net)
    sol = solve_lp(build.lp)
    assert sol.status == "optimal"
    compact = extract_gamma1_solution(build, sol.values)
    assert compact.objective == 2
    flow = decompose_gamma1_solution(compact, net, catalog)
    assert flow.kind == "subpath"
    report = evaluate_static(flow, net, catalog, 1)
    assert report.robust_value == 2


def test_lexicographic_gm_restores_nominal(two_hop):
    net, catalog = two_hop
    _, plain = solve_static(net, "gm", 1, catalog=catalog)
    _, lex = solve_static(net, "gm", 1, maximize_nominal=True, catalog=catalog)
    assert lex.robust_value == plain.robust_value == 2
    assert lex.nominal_value == 3  # the unique robust optimum already ships f*


def test_evaluate_rejects_infeasible_flows(two_hop):
    net, catalog = two_hop
    over_capacity = StaticFlow("path", {0: rat(7, 2)})
    with pytest.raises(InfeasibleFlowError) as err:
        evaluate_static(over_capacity, net, catalog, 1)
    assert any(v.constraint == "capacity" for v in err.value.violations)
    negative = StaticFlow("path", {0: rat(-1)})
    with pytest.raises(InfeasibleFlowError):
        evaluate_static(negative, net, catalog, 1)


def test_evaluate_rejects_conservation_violation(two_hop):
    net, catalog = two_hop
    # Arc flow 1 on a1 (s->v) with nothing leaving v violates nothing (excess
    # is allowed to vanish only at interior nodes per robust conservation
    # inflow >= outflow), but outflow without inflow must be rejected.
    bad = StaticFlow("arc", {"a3": rat(1)})
    with pytest.raises(InfeasibleFlowError) as err:
        evaluate_static(bad, net, None, 1)
    assert any(v.constraint == "conservation" for v in err.value.violations)


def test_prune_low_indegree_zeroes_dead_subpaths():
    # Interior node with indegree 1 <= gamma: flow through it is worthless.
    net = gen_fan(1)
    catalog = enumerate_subpaths(net)
    flow, report = solve_static(net, "gm", 1, catalog=catalog)
    pruned = prune_low_indegree(flow, net, catalog, 1)
    again = evaluate_static(pruned, net, catalog, 1)
    assert again.robust_value == report.robust_value
    ends = {catalog.subpaths[idx].end for idx, v in pruned.values.items() if v > 0}
    for v in ends:
        if v not in (net.source, net.sink):
            assert len(net.in_arcs(v)) > 1


def test_unknown_model_rejected(two_hop):
    net, catalog = two_hop
    with pytest.raises(Exception):
        solve_static(net, "nope", 1, catalog=catalog)


# -- differential test of the evaluator against the brute-force oracle ---------


def _evaluated(flow, net, catalog, gamma):
    """``evaluate_static`` in the oracle's shape: (violation tuples, report fields)."""
    try:
        report = evaluate_static(flow, net, catalog, gamma)
    except InfeasibleFlowError as exc:
        assert exc.lines == tuple(str(v) for v in exc.violations)
        return tuple((v.constraint, v.where, v.scenario, v.detail) for v in exc.violations), None
    return (), {f.name: getattr(report, f.name) for f in fields(report)}


def _candidate_flows(net, catalog, gamma, noise):
    """Path, subpath and arc flows: LP optima, nominal max flow, starved node, noise."""
    flows = []
    for model in ("pm", "am", "gm"):
        flows.append(solve_static(net, model, gamma, catalog=catalog)[0])
    _, arc_flow, _ = nominal_max_flow(net)
    arc_flow = {a: v for a, v in arc_flow.items() if v != 0}
    flows.append(StaticFlow("arc", arc_flow))
    pieces = path_decompose(arc_flow, net, net.source, net.sink)
    path_flow = {catalog.st_index[tuple(piece.arcs)]: val for piece, val in pieces}
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
        violations, report = _evaluated(flow, net, catalog, gamma)
        expected_violations, expected_report = brute_force_evaluate_static(flow, net, catalog, gamma)
        assert violations == expected_violations, flow
        assert report == expected_report, flow
        if report is not None:
            assert list(report["per_arc_exposure"].items()) == list(
                expected_report["per_arc_exposure"].items()
            )


# -- model checks survive ``python -O`` ----------------------------------------


def test_model_checks_raise_under_python_O():
    # A planted evaluator/LP mismatch must raise ModelCheckError even when
    # the interpreter strips asserts.
    code = """
import dataclasses, sys
from robustflow import ModelCheckError, gen_two_hop, solve_static, static_models
assert False, "asserts must be stripped in this interpreter"
honest = static_models.evaluate_static
def lying(*args, **kwargs):
    report = honest(*args, **kwargs)
    return dataclasses.replace(report, robust_value=report.robust_value + 1)
static_models.evaluate_static = lying
try:
    solve_static(gen_two_hop(), "gm", 1)
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
    assert "raised: evaluator disagrees with the LP: 3 != 2" in done.stdout
