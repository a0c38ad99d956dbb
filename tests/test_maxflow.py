"""Nominal max flow against the partition-enumeration min-cut oracle."""

from fractions import Fraction

import pytest

from robustflow import (
    Arc,
    Network,
    NetworkError,
    enumerate_st_paths,
    gen_bottleneck,
    gen_random,
    gen_two_hop,
    min_arc_cut,
    nominal_max_flow,
    path_decompose,
    rat,
    separates,
)

from _oracles import min_cut_value


def test_two_hop_value_and_certificate():
    value, arc_flow, cut = nominal_max_flow(gen_two_hop())
    assert value == 3 == cut
    assert arc_flow["a1"] + arc_flow["a2"] == 3
    assert arc_flow["a3"] + arc_flow["a4"] + arc_flow["a5"] == 3


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_match_cut_oracle(seed):
    kind = "general" if seed % 2 else "dag"
    nodes = 4 + seed % 5
    net = gen_random(kind, nodes, 2 * nodes + seed % 3, max_cap=4, seed=seed)
    value, arc_flow, cut = nominal_max_flow(net)
    assert value == cut == min_cut_value(net)
    # The arc flow is feasible and conserves at interior nodes.
    for arc in net.arcs:
        assert 0 <= arc_flow.get(arc.id, 0) <= arc.capacity
    for v in net.nodes:
        if v in (net.source, net.sink):
            continue
        inflow = sum(arc_flow.get(a.id, 0) for a in net.in_arcs(v))
        outflow = sum(arc_flow.get(a.id, 0) for a in net.out_arcs(v))
        assert inflow == outflow


@pytest.mark.parametrize("seed", range(12))
def test_min_arc_cut_is_a_smallest_separating_cut(seed):
    kind = "general" if seed % 2 else "dag"
    nodes = 3 + seed % 5
    net = gen_random(kind, nodes, 2 * (nodes - 2) + seed % 4, max_cap=5, seed=100 + seed)
    cut = min_arc_cut(net)
    unit = Network(net.nodes, [Arc(a.id, a.tail, a.head, 1) for a in net.arcs], "s", "t")
    assert len(cut) == nominal_max_flow(unit)[0] == min_cut_value(unit)
    assert list(cut) == [a.id for a in net.arcs if a.id in cut]  # in arc order
    # Removing the cut leaves no source-sink path; keeping any one arc of it
    # leaves one, since the cut is smallest.
    assert all(set(path.arcs) & set(cut) for path in enumerate_st_paths(net))
    assert separates(net, cut)
    for kept in cut:
        assert not separates(net, [a for a in cut if a != kept])


def test_network_normalizes_capacities_once():
    net = Network(("s", "t"), (Arc("a", "s", "t", 2), Arc("b", "s", "t", "3/2")), "s", "t")
    assert [type(a.capacity) for a in net.arcs] == [Fraction, Fraction]
    assert [a.capacity for a in net.arcs] == [2, rat(3, 2)]
    assert nominal_max_flow(net)[0] == rat(7, 2)


def test_rational_capacities_stay_exact():
    net = Network(
        nodes=("s", "v", "t"),
        arcs=(
            Arc("a", "s", "v", rat(1, 3)),
            Arc("b", "s", "v", rat(1, 7)),
            Arc("c", "v", "t", rat(2, 5)),
        ),
        source="s",
        sink="t",
    )
    value, _, cut = nominal_max_flow(net)
    assert value == cut == rat(2, 5)  # min(1/3 + 1/7, 2/5) = min(10/21, 2/5)


def test_bottleneck_value():
    net = gen_bottleneck(2, 2)
    value, _, _ = nominal_max_flow(net)
    assert value == 12  # eta = beta * gamma * (gamma + 1)


def test_path_decompose_reconstructs_flow():
    net = gen_two_hop()
    value, arc_flow, _ = nominal_max_flow(net)
    parts = path_decompose(arc_flow, net, net.source, net.sink)
    assert sum(amount for _, amount in parts) == value
    per_arc = {}
    for path, amount in parts:
        assert amount > 0
        assert path.start == "s" and path.end == "t"
        for a in path.arcs:
            per_arc[a] = per_arc.get(a, 0) + amount
    assert per_arc == {a: v for a, v in arc_flow.items() if v != 0}


def test_path_decompose_discards_cycles():
    net = Network(
        nodes=("s", "u", "v", "t"),
        arcs=(
            Arc("a", "s", "u", rat(1)),
            Arc("b", "u", "v", rat(5)),
            Arc("c", "v", "u", rat(5)),
            Arc("d", "u", "t", rat(1)),
        ),
        source="s",
        sink="t",
    )
    flow = {"a": rat(1), "b": rat(2), "c": rat(2), "d": rat(1)}
    parts = path_decompose(flow, net, "s", "t")
    assert [(p.arcs, amount) for p, amount in parts] == [(("a", "d"), 1)]


def test_path_decompose_rejects_imbalance():
    net = gen_two_hop()
    with pytest.raises(NetworkError):
        path_decompose({"a1": rat(2), "a3": rat(1)}, net, "s", "t")
    with pytest.raises(NetworkError):
        path_decompose({"a1": rat(-1)}, net, "s", "t")
