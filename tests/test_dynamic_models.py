"""Dynamic robust flow models: frozen optima, duals, evaluator, embedding."""

import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from robustflow import (
    Arc,
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

import robustflow.network as network
from _oracles import brute_force_evaluate_dynamic, full_timed_arc_lp, nominal_dynamic_value, time_windows


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


def _cyclic_timed(seed):
    """A seeded general network, cycles allowed, with travel times and delays 0-2."""
    net = gen_random("general", 5 + seed % 2, 9 + seed % 3, max_cap=3, seed=seed)
    rng = random.Random(seed)
    arcs = [replace(a, travel_time=rng.randint(0, 2), delay=rng.randint(0, 2)) for a in net.arcs]
    timed = Network(net.nodes, arcs, net.source, net.sink)
    return DynamicInstance(timed, horizon=3 + seed % 4, gamma=1 + seed % 2)


def _zero_time_cycle(net) -> bool:
    """True when arcs of travel time 0 close a cycle (a depth-first search for a back arc)."""
    succ = {v: [a.head for a in net.arcs if a.tail == v and a.travel_time == 0] for v in net.nodes}
    state = {}  # node -> "open" while on the search path, "done" after

    def closes(v):
        state[v] = "open"
        for w in succ[v]:
            if state.get(w) == "open" or (w not in state and closes(w)):
                return True
        state[v] = "done"
        return False

    return any(v not in state and closes(v) for v in net.nodes)


def test_dam_compact_equals_dam_and_the_full_lp_on_cyclic_networks():
    # Flow can circulate on a zero-time cycle before its nodes' first times,
    # the edge case of the windows; the full LP (every entry time, every
    # scenario) is the reference.
    pytest.importorskip("scipy")
    from test_lp import _highs

    zero_cycles = positive = 0
    for seed in range(24):
        inst = _cyclic_timed(seed)
        _, direct = solve_dynamic(inst, "dam")
        _, compact = solve_dynamic(inst, "dam-compact")
        status, full = _highs(full_timed_arc_lp(inst))
        assert direct.robust_value == compact.robust_value, seed
        assert status == "optimal" and abs(float(direct.robust_value) - full) <= 1e-6 * max(1.0, full), seed
        zero_cycles += _zero_time_cycle(inst.network)
        positive += direct.robust_value > 0
    assert zero_cycles >= 5 and positive >= 12


def test_dam_compact_returns_no_flow_that_cannot_arrive_by_the_horizon():
    # The LP has no column for flow entering an arc before its tail can be
    # reached, or too late to reach the sink by T, so no such entry is returned.
    partitions = ((1, 1), (2, 2), (2, 4), (1, 1, 2), (2, 2, 2), (2, 2, 4), (1, 1, 1, 1), (2, 2, 2, 4))
    instances = [gen_partition(values) for values in partitions]
    instances += [
        gen_random("dynamic", 6, 8, max_cap=3, max_tau=2, max_delay=2, horizon=6, gamma=2, seed=seed)
        for seed in range(20)
    ]
    for inst in instances:
        flow, _ = solve_dynamic(inst, "dam-compact")
        early, late = time_windows(inst)
        arcs = inst.network.arc_by_id
        for a, theta in flow.values:
            assert early[arcs[a].tail] <= theta <= late[arcs[a].head] - arcs[a].travel_time, (a, theta)


def test_time_windows_do_not_compare_node_names():
    # Nodes named by a number and by a string, at equal distances from the
    # source: the windows' shortest-time searches never order the names.
    arcs = [
        Arc("a1", "s", 1, 1, travel_time=1, delay=1),
        Arc("a2", "s", "u", 1, travel_time=1, delay=1),
        Arc("a3", 1, "t", 1, travel_time=1),
        Arc("a4", "u", "t", 1, travel_time=1),
    ]
    inst = DynamicInstance(Network(["s", 1, "u", "t"], arcs, "s", "t"), horizon=4, gamma=1)
    entries = {"a1": (1, 2), "a2": (1, 2), "a3": (2, 3), "a4": (2, 3)}
    expected = {(a, theta) for a, times in entries.items() for theta in times}
    assert set(build_dam_compact_lp(inst).flow_vars) == expected
    # Two paths of travel time 2 and capacity 1, departing at 1 and 2; one
    # delay makes a departure at 2 arrive after T.
    assert solve_dynamic(inst, "dpm")[1].robust_value == 3


def test_each_network_is_validated_once(monkeypatch):
    # The report is kept on the network: the builder validates it, and the
    # evaluator and every later build only look the report up.
    calls = []
    honest = network.reachable

    def counted(net, start, **kw):
        calls.append(start)
        return honest(net, start, **kw)

    monkeypatch.setattr(network, "reachable", counted)
    base = gen_ti_gap().network
    assert calls == [base.source, base.sink]
    inst = DynamicInstance(Network(base.nodes, base.arcs, base.source, base.sink), horizon=3, gamma=1)
    solve_dynamic(inst, "dam-compact")
    assert calls == [base.source, base.sink] * 2
    solve_dynamic(inst, "dam")
    evaluate_dynamic(DynamicFlow("arc", {}), DynamicInstance(inst.network, horizon=4, gamma=0))
    assert calls == [base.source, base.sink] * 2


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


@pytest.mark.parametrize(
    "flow, message",
    [
        (DynamicFlow("arc", {"junk": 0}), "timed flow keys are (key, theta) pairs, got 'junk'"),
        (DynamicFlow("arc", {("a1", 1): 1, ("zz", 1): 0}), "unknown arc id 'zz'"),
        (DynamicFlow("path", {(99, 1): -1}), "unknown route index 99"),
        (DynamicFlow("tr", {0: 1, 99: 0}), "unknown path index 99"),
    ],
)
def test_evaluator_checks_every_key_before_its_value(ti_gap, flow, message):
    with pytest.raises(NetworkError) as err:
        evaluate_dynamic(flow, ti_gap)
    assert not isinstance(err.value, InfeasibleFlowError)
    assert str(err.value) == message


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
    """The evaluator's result in the oracle's shape: ``(lines, None)`` or ``((), fields)``.

    An infeasible flow's ``violations``, built on first read and then cached,
    print its lines.
    """
    try:
        report = evaluate_dynamic(flow, inst)
    except InfeasibleFlowError as exc:
        violations = exc.violations
        assert exc.violations is violations
        assert tuple(map(str, violations)) == exc.lines
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


def _mixed_delays():
    """Two routes s-u-t and two direct arcs; delays 0, 1 and 2, travel times 0 to 2."""
    arcs = [
        Arc("d0", "s", "u", 1, travel_time=1, delay=0),
        Arc("d1", "s", "u", 2, travel_time=0, delay=1),
        Arc("e0", "u", "t", 2, travel_time=0, delay=0),
        Arc("e2", "u", "t", 1, travel_time=1, delay=2),
        Arc("f1", "s", "t", 1, travel_time=1, delay=1),
        Arc("g0", "s", "t", 1, travel_time=2, delay=0),
    ]
    return Network(("s", "u", "t"), arcs, "s", "t")


@pytest.mark.parametrize("gamma", [0, 1, 2, 3, 6])
def test_dynamic_evaluator_matches_the_oracle_on_zero_and_partial_delays(gamma):
    # Zero-delay arcs never move a walk, and a flow that touches only some
    # delayed arcs projects the scenarios onto those: both are walked once
    # per distinct projection, and each scenario is labelled as its own.
    inst = DynamicInstance(_mixed_delays(), 4, gamma)
    catalog = enumerate_subpaths(inst.network)
    path = {p.arcs: i for i, p in enumerate(catalog.st_paths)}
    sub = {p.arcs: i for i, p in enumerate(catalog.subpaths)}
    undelayed = {(path[("d0", "e0")], 1): Fraction(1), (path[("g0",)], 2): Fraction(1)}
    flows = [
        nominal_dynamic_max_flow(inst)[1],
        *(solve_dynamic(inst, model)[0] for model in ("dam", "dpm", "dgm", "tr")),
        DynamicFlow("path", undelayed),
        DynamicFlow("path", {(path[("d1", "e0")], 1): Fraction(1), (path[("d1", "e0")], 3): Fraction(1, 2)}),
        DynamicFlow("path", {**undelayed, (path[("f1",)], 3): Fraction(1)}),
        DynamicFlow("subpath", {(sub[("d1",)], 1): Fraction(2), (sub[("e2",)], 1): Fraction(1)}),
        DynamicFlow("subpath", {(sub[("d0",)], 1): Fraction(1), (sub[("e0",)], 2): Fraction(1)}),
        DynamicFlow("arc", {("d0", 1): Fraction(1), ("e0", 2): Fraction(1), ("g0", 1): Fraction(1)}),
        DynamicFlow("tr", {path[("d1", "e0")]: Fraction(1, 2), path[("g0",)]: Fraction(1)}),
    ]
    outcomes = []
    for flow in flows:
        expected = brute_force_evaluate_dynamic(flow, inst, catalog)
        assert _evaluated_dynamic(flow, inst) == expected, flow
        outcomes.append(expected[1] is not None)
    assert all(outcomes[1:8])  # the nominal arc flow may break conservation
    report = evaluate_dynamic(DynamicFlow("path", undelayed), inst)
    assert report.minimizing_scenarios == tuple(s for s, _ in report.per_scenario_arrival)


@pytest.mark.parametrize("gamma", [0, 1, 2, 6])
def test_dynamic_evaluator_matches_the_oracle_on_arc_flows_over_capacity(gamma):
    # An arc flow's loads are checked once, under (), whatever the budget;
    # its conservation lines still come once per violated scenario.
    inst = DynamicInstance(_mixed_delays(), 4, gamma)
    _, nominal = nominal_dynamic_max_flow(inst)
    flows = [
        DynamicFlow("arc", {key: value * 3 for key, value in nominal.values.items()}),
        DynamicFlow("arc", {("d1", 1): Fraction(5, 2), ("e2", 1): Fraction(3), ("e0", 1): Fraction(1, 2)}),
        DynamicFlow("arc", {("f1", 1): Fraction(2), ("f1", 3): Fraction(3, 2), ("g0", 2): Fraction(1)}),
    ]
    for flow in flows:
        lines, report = brute_force_evaluate_dynamic(flow, inst)
        assert report is None and any(line.startswith("capacity") for line in lines)
        assert not any(line.startswith("capacity") and "scenario" in line for line in lines)
        assert _evaluated_dynamic(flow, inst) == (lines, None), flow
