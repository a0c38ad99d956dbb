"""Dynamic robust flow models: frozen optima, duals, evaluator, embedding."""

from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from robustflow import (
    DynamicFlow,
    DynamicInstance,
    InfeasibleFlowError,
    Network,
    NetworkError,
    build_dam_compact_lp,
    embed_static,
    enumerate_subpaths,
    evaluate_dynamic,
    extract_dam_dual,
    gen_partition,
    gen_por_dynamic,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    nominal_dynamic_max_flow,
    path_delay,
    rat,
    solve_dynamic,
    solve_lp,
    solve_static,
    validate_dynamic_instance,
)

from _oracles import brute_force_evaluate_dynamic, nominal_dynamic_value


@pytest.fixture(scope="module")
def ti_gap():
    return gen_ti_gap()


def test_ti_gap_all_models(ti_gap):
    inst = ti_gap
    assert nominal_dynamic_max_flow(inst)[0] == 3
    for model, expected in (
        ("dpm", 2),
        ("dam", 2),
        ("dam-compact", 2),
        ("dgm", 2),
        ("tr", rat(3, 2)),
    ):
        _, report = solve_dynamic(inst, model)
        assert report.robust_value == expected, model


def test_ti_gap_explicit_increasing_flow(ti_gap):
    inst = ti_gap
    values = {}
    for theta in (1, 2):
        values[("a1", theta)] = rat(1)
        values[("a4", theta)] = rat(1)
        values[("a2", theta)] = rat(1, 2)
        values[("a3", theta)] = rat(1, 2)
    report = evaluate_dynamic(DynamicFlow("arc", values), inst)
    assert report.robust_value == rat(3, 2)
    assert report.nominal_value == rat(5, 2)
    assert report.earliest_arrival == 2


def test_path_delay_calculus(ti_gap):
    inst = ti_gap
    net = inst.network
    assert path_delay(net, ("a1", "a2"), ()) == 0
    assert path_delay(net, ("a1", "a2"), ("a2",)) == 2
    assert path_delay(net, ("a1", "a2"), ("a2", "a3")) == 2
    assert path_delay(net, ("a1", "a3"), ("a2",)) == 0
    assert path_delay(net, ("a4",), ("a4",)) == 1


def test_nominal_dynamic_matches_oracle():
    assert nominal_dynamic_max_flow(gen_ti_gap())[0] == nominal_dynamic_value(gen_ti_gap())
    for seed in range(6):
        inst = gen_random(
            "dynamic", 4 + seed % 3, 7 + seed % 3,
            max_cap=3, max_tau=2, max_delay=2,
            horizon=4 + seed % 3, gamma=1, seed=seed,
        )
        value, flow = nominal_dynamic_max_flow(inst)
        assert value == nominal_dynamic_value(inst)
        # The returned arc flow re-evaluates to at least... exactly its value
        # under the empty-budget instance.
        nominal_inst = DynamicInstance(inst.network, inst.horizon, 0)
        report = evaluate_dynamic(flow, nominal_inst)
        assert report.robust_value == value


def test_dam_compact_dual_extraction(ti_gap):
    inst = ti_gap
    build = build_dam_compact_lp(inst)
    sol = solve_lp(build.lp)
    assert sol.status == "optimal"
    dual = extract_dam_dual(build, sol.values, sol.objective_value)
    assert dual.objective == 2
    # The x-part alone is a feasible dynamic arc flow of the same value.
    report = evaluate_dynamic(
        DynamicFlow("arc", {k: v for k, v in dual.arc_flow.items() if v != 0}), inst
    )
    assert report.robust_value == dual.objective
    assert all(v >= 0 for v in dual.nu.values())
    assert dual.mu >= 0


def test_dam_compact_equals_dam_on_random_instances():
    for seed in (0, 7, 13):
        inst = gen_random(
            "dynamic", 4 + seed % 3, 8, max_cap=3, max_tau=2, max_delay=2,
            horizon=4 + seed % 2, gamma=1 + seed % 2, seed=seed,
        )
        _, direct = solve_dynamic(inst, "dam")
        _, compact = solve_dynamic(inst, "dam-compact")
        assert direct.robust_value == compact.robust_value


def test_dynamic_orderings_on_random_instances():
    for seed in range(5):
        inst = gen_random(
            "dynamic", 5, 8 + seed % 2, max_cap=3, max_tau=2, max_delay=2,
            horizon=4 + seed % 3, gamma=1 + seed % 2, seed=100 + seed,
        )
        values = {
            model: solve_dynamic(inst, model)[1].robust_value
            for model in ("dpm", "dam", "dgm", "tr")
        }
        assert values["dgm"] >= values["dpm"]
        assert values["dgm"] >= values["dam"]
        assert values["tr"] <= values["dpm"]


def test_temporally_repeated_flow_shape(ti_gap):
    inst = ti_gap
    flow, report = solve_dynamic(inst, "tr")
    assert flow.kind == "tr"
    assert report.robust_value == rat(3, 2)
    # Keys are bare path indices; the evaluator expands them over departures.
    assert all(isinstance(k, int) for k in flow.values)
    again = evaluate_dynamic(flow, inst)
    assert again.robust_value == report.robust_value


def test_embedding_matches_static_models():
    net = gen_two_hop()
    inst = embed_static(net, 1)
    assert inst.horizon == 1
    assert inst.gamma == 1
    assert all(a.travel_time == 0 and a.delay == 1 for a in inst.network.arcs)
    for static_model, dynamic_model in (("pm", "dpm"), ("am", "dam"), ("gm", "dgm")):
        s = solve_static(net, static_model, 1)[1].robust_value
        d = solve_dynamic(inst, dynamic_model)[1].robust_value
        assert s == d, (static_model, dynamic_model)


def test_partition_instance_solves(ti_gap):
    inst = gen_partition((1, 1))
    _, report = solve_dynamic(inst, "dpm")
    assert report.robust_value == 1
    assert report.nominal_value == 2


def test_por_dynamic_instances():
    unscaled, scaled, scale = gen_por_dynamic(1, rat(3, 2))
    assert scale == 6
    # The raw construction has fractional travel times, flagged by validation;
    # the scaled twin is integral and valid.
    assert not validate_dynamic_instance(unscaled).ok
    assert validate_dynamic_instance(scaled).ok
    assert nominal_dynamic_max_flow(scaled)[0] == 6


def test_evaluator_rejects_bad_dynamic_flows(ti_gap):
    inst = ti_gap
    with pytest.raises(InfeasibleFlowError):
        evaluate_dynamic(DynamicFlow("arc", {("a1", 1): rat(9)}), inst)
    with pytest.raises(InfeasibleFlowError):
        evaluate_dynamic(DynamicFlow("arc", {("a1", 1): rat(-1)}), inst)
    # Malformed keys (static-shaped flow against a dynamic instance).
    with pytest.raises(NetworkError):
        evaluate_dynamic(DynamicFlow("arc", {"a1": rat(1)}), inst)
    with pytest.raises(NetworkError):
        evaluate_dynamic(DynamicFlow("arc", {("a1", "one"): rat(1)}), inst)
    # Flow departing outside the horizon.
    with pytest.raises(InfeasibleFlowError):
        evaluate_dynamic(DynamicFlow("arc", {("a1", 3): rat(1)}), inst)


def test_validate_dynamic_instance_errors():
    inst = gen_ti_gap()
    assert validate_dynamic_instance(inst).ok
    assert not validate_dynamic_instance(
        DynamicInstance(inst.network, 0, 1)
    ).ok
    assert not validate_dynamic_instance(
        DynamicInstance(inst.network, 2, -1)
    ).ok


def test_lexicographic_dynamic_solve(ti_gap):
    inst = ti_gap
    _, lex = solve_dynamic(inst, "dpm", maximize_nominal=True)
    _, plain = solve_dynamic(inst, "dpm")
    assert lex.robust_value == plain.robust_value == 2
    assert lex.nominal_value >= plain.nominal_value
    assert lex.nominal_value == 3


def _evaluated_dynamic(flow, inst):
    """The evaluator's result in the oracle's shape: ``(lines, None)`` or ``((), fields)``."""
    try:
        report = evaluate_dynamic(flow, inst)
    except InfeasibleFlowError as exc:
        return exc.lines, None
    return (), {f.name: getattr(report, f.name) for f in fields(report)}


def _perturbed(flow, horizon, noise):
    """``flow``; scaled by 7/3; with some values replaced by negative, zero or
    positive ones; and, for the timed kinds, with entries moved outside 1..T."""
    yield flow
    items = sorted(flow.values.items(), key=repr)
    yield DynamicFlow(flow.kind, {k: v * Fraction(7, 3) for k, v in items})
    if not items:
        return
    negated = dict(items)
    for pick, num, den in noise:
        key = items[pick % len(items)][0]
        negated[key] = Fraction(num - 2, den)
    yield DynamicFlow(flow.kind, negated)
    if flow.kind != "tr":
        outside = dict(items)
        for pick, num, den in noise:
            (key, _), value = items[pick % len(items)]
            outside[(key, 0 if num % 2 else horizon + 1 + num)] = value * Fraction(num + 1, den)
        yield DynamicFlow(flow.kind, outside)


@given(
    nodes=st.integers(3, 5),
    extra=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    horizon=st.integers(1, 5),
    gamma=st.integers(0, 3),
    cap_scale=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(5, 3)]),
    noise=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=4
    ),
)
@settings(deadline=None, max_examples=60, derandomize=True)
def test_dynamic_evaluator_matches_brute_force_oracle(
    nodes, extra, seed, horizon, gamma, cap_scale, noise
):
    try:
        inst = gen_random(
            "dynamic", nodes, max(1, 2 * (nodes - 2)) + extra, max_cap=3, max_tau=2,
            max_delay=2, horizon=horizon, gamma=gamma, seed=seed,
        )
    except NetworkError:
        reject()
    net = inst.network
    arcs = [replace(a, capacity=a.capacity * cap_scale) for a in net.arcs]
    inst = DynamicInstance(Network(net.nodes, arcs, net.source, net.sink), horizon, gamma)
    catalog = enumerate_subpaths(inst.network)
    flows = [nominal_dynamic_max_flow(inst)[1]]
    flows += [solve_dynamic(inst, model)[0] for model in ("dam", "dpm", "dgm", "tr")]
    # Flow on arbitrary routes, so that conservation and capacity can fail.
    keys = {
        "path": range(len(catalog.st_paths)),
        "subpath": range(len(catalog.subpaths)),
        "arc": [a.id for a in inst.network.arcs],
    }
    for kind, choices in keys.items():
        if choices:
            flows.append(
                DynamicFlow(
                    kind,
                    {
                        (choices[pick % len(choices)], 1 + num % horizon): Fraction(num + 1, den)
                        for pick, num, den in noise
                    },
                )
            )
    if catalog.st_paths:
        paths = len(catalog.st_paths)
        flows.append(DynamicFlow("tr", {pick % paths: Fraction(num, den) for pick, num, den in noise}))
    for base in flows:
        for flow in _perturbed(base, horizon, noise):
            assert _evaluated_dynamic(flow, inst) == brute_force_evaluate_dynamic(
                flow, inst, catalog
            ), flow
