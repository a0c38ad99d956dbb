"""Network structure, validation, enumeration determinism and guards."""

import pytest

from robustflow import (
    Arc,
    DynamicInstance,
    GuardExceeded,
    Network,
    enumerate_scenarios,
    enumerate_st_paths,
    enumerate_subpaths,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    rat,
    scenario_count,
    solve_dynamic,
    solve_static,
    validate_network,
)
from robustflow import network

from _oracles import st_paths as oracle_st_paths


def diamond():
    return Network(
        nodes=("s", "u", "v", "t"),
        arcs=(
            Arc("e1", "s", "u", rat(1)),
            Arc("e2", "s", "v", rat(1)),
            Arc("e3", "u", "v", rat(1)),
            Arc("e4", "u", "t", rat(1)),
            Arc("e5", "v", "t", rat(1)),
        ),
        source="s",
        sink="t",
    )


def test_arc_order_is_deterministic():
    net = Network(
        nodes=("s", "t"),
        arcs=(
            Arc("a10", "s", "t", rat(1)),
            Arc("a2", "s", "t", rat(1)),
            Arc(3, "s", "t", rat(1)),
            Arc(1, "s", "t", rat(1)),
        ),
        source="s",
        sink="t",
    )
    assert [a.id for a in net.arcs] == [1, 3, "a2", "a10"]
    assert net.arc_rank["a2"] == 2


def test_in_out_arcs():
    net = diamond()
    assert [a.id for a in net.out_arcs("s")] == ["e1", "e2"]
    assert [a.id for a in net.in_arcs("t")] == ["e4", "e5"]
    assert net.out_arcs("missing") == ()


def test_validate_accepts_good_network():
    assert validate_network(diamond()).ok
    assert validate_network(gen_two_hop()).ok


def test_validate_reports_all_violations():
    net = Network(
        nodes=("s", "s", "v", "t"),
        arcs=(
            Arc("a", "s", "v", rat(1)),
            Arc("a", "v", "t", rat(0)),
            Arc("b", "v", "ghost", rat(1), travel_time=-1),
            Arc("c", "t", "v", rat(1)),
            Arc("d", "v", "s", rat(1)),
        ),
        source="s",
        sink="t",
    )
    report = validate_network(net)
    assert not report.ok
    text = "\n".join(report.violations)
    assert "duplicate node names" in text
    assert "duplicate arc id" in text
    assert "capacity must be a positive rational" in text
    assert "unknown head" in text
    assert "travel_time must be an integer >= 0" in text
    assert "leaves the sink" in text
    assert "enters the source" in text


def test_validate_rejects_arc_ids_that_print_the_same():
    net = Network(
        nodes=("s", "t"),
        arcs=(Arc("1", "s", "t", rat(2)), Arc(1, "s", "t", rat(1)), Arc("2", "s", "t", rat(1))),
        source="s",
        sink="t",
    )
    assert validate_network(net).violations == ("arc ids 1 and '1' have the same text",)


def test_validate_rejects_boolean_arc_ids():
    # JSON true is no arc id; an unvalidated network sorts it as the int 1.
    net = Network(
        nodes=("s", "t"),
        arcs=(Arc("a", "s", "t", rat(1)), Arc(2, "s", "t", rat(1)), Arc(True, "s", "t", rat(1))),
        source="s",
        sink="t",
    )
    assert validate_network(net).violations == ("arc id True is a boolean",)
    assert [arc.id for arc in net.arcs] == [True, 2, "a"]


def test_validate_flags_off_route_nodes():
    net = Network(
        nodes=("s", "v", "w", "t"),
        arcs=(Arc("a", "s", "v", rat(1)), Arc("b", "v", "t", rat(1)), Arc("c", "s", "w", rat(1))),
        source="s",
        sink="t",
    )
    report = validate_network(net)
    assert any("'w' is not on any source-sink path" in v for v in report.violations)


def test_path_enumeration_matches_oracle():
    for seed in range(8):
        nodes = 4 + seed % 4
        net = gen_random("general", nodes, 2 * nodes, max_cap=2, seed=seed)
        got = sorted(p.arcs for p in enumerate_st_paths(net))
        assert got == oracle_st_paths(net)


def test_path_enumeration_handles_parallel_arcs():
    net = gen_two_hop()
    paths = enumerate_st_paths(net)
    assert sorted(p.arcs for p in paths) == [
        ("a1", "a3"),
        ("a1", "a4"),
        ("a1", "a5"),
        ("a2", "a3"),
        ("a2", "a4"),
        ("a2", "a5"),
    ]


def test_subpath_catalog_contains_all_contiguous_segments():
    net = diamond()
    catalog = enumerate_subpaths(net)
    arcsets = {p.arcs for p in catalog.subpaths}
    assert ("e1",) in arcsets
    assert ("e1", "e3") in arcsets
    assert ("e1", "e3", "e5") in arcsets
    assert ("e3", "e5") in arcsets
    # e2->e4 is not a path (head/tail mismatch), so it must be absent.
    assert ("e2", "e4") not in arcsets
    # Each subpath is a contiguous segment of some full path.
    full = [p.arcs for p in catalog.st_paths]
    for sub in catalog.subpaths:
        n = len(sub.arcs)
        assert any(
            path[i : i + n] == sub.arcs for path in full for i in range(len(path) - n + 1)
        )


def test_subpath_catalog_indices_are_consistent():
    catalog = enumerate_subpaths(gen_two_hop())
    for node, indices in catalog.by_end.items():
        for idx in indices:
            assert catalog.subpaths[idx].end == node
    for idx, sub in enumerate(catalog.subpaths):
        assert catalog.sub_index[sub.arcs] == idx
        assert catalog.subpath_id(sub.arcs) == idx


def test_scenario_enumeration_counts_and_order():
    scenarios = enumerate_scenarios(["b", "a", "c"], 2)
    assert scenarios[0] == ()
    assert len(scenarios) == scenario_count(3, 2) == 1 + 3 + 3
    sizes = [len(z) for z in scenarios]
    assert sizes == sorted(sizes)
    assert ("a", "b") in scenarios


def test_guards_raise_instead_of_exploding(monkeypatch):
    # A 12-layer diamond chain has 2^12 paths; a tiny guard must trip.
    nodes = ["s"] + [f"n{i}" for i in range(1, 12)] + ["t"]
    arcs = []
    layer = ["s"] + [f"n{i}" for i in range(1, 12)] + ["t"]
    for i in range(len(layer) - 1):
        arcs.append(Arc(f"u{i}", layer[i], layer[i + 1], rat(1)))
        arcs.append(Arc(f"w{i}", layer[i], layer[i + 1], rat(1)))
    net = Network(nodes=nodes, arcs=arcs, source="s", sink="t")
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "100")
    with pytest.raises(GuardExceeded):
        enumerate_st_paths(net)
    monkeypatch.setenv("ROBUSTFLOW_GUARD_SCENARIOS", "50")
    with pytest.raises(GuardExceeded):
        enumerate_scenarios([f"u{i}" for i in range(12)], 6)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "3")
    with pytest.raises(GuardExceeded):
        enumerate_st_paths(gen_two_hop())
    monkeypatch.setenv("ROBUSTFLOW_GUARD_PATHS", "50")
    assert len(enumerate_st_paths(gen_two_hop())) == 6


def test_each_network_enumerates_its_routes_once(monkeypatch):
    calls = []
    honest = network.enumerate_st_paths
    monkeypatch.setattr(network, "enumerate_st_paths", lambda net: calls.append(net) or honest(net))
    net = gen_two_hop()
    solve_static(net, "pm", 1)
    solve_static(net, "gm", 1)
    assert calls == [net]
    # Re-wrapping one network in a new timed instance keeps its catalog.
    inst = gen_ti_gap()
    for model in ("dpm", "dgm"):
        solve_dynamic(DynamicInstance(inst.network, inst.horizon, inst.gamma), model)
    assert calls == [net, inst.network]


def test_catalog_enumerates_each_route_set_on_first_read():
    net = gen_two_hop()
    catalog = net.catalog
    assert net.catalog is catalog
    assert "st_paths" not in vars(catalog) and "subpaths" not in vars(catalog)
    assert len(catalog.st_paths) == 6
    assert "subpaths" not in vars(catalog)
    assert len(catalog.subpaths) == 11


def test_flow_routes_reject_boolean_keys():
    # True == 1 and hash(True) == hash(1): a bool must not pass for an int key.
    net = Network(["s", "t"], [Arc(0, "s", "t", 1), Arc(1, "s", "t", 1)], "s", "t")
    for kind in ("arc", "path", "subpath"):
        _, known = network.flow_routes(net, kind)
        assert known(0) and known(1)
        assert not known(True) and not known(False)
