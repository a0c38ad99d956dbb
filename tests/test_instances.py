"""Instance generators: structure, deterministic seeding, domain guards."""

import pytest

from robustflow import (
    NetworkError,
    brute_force_partition,
    enumerate_st_paths,
    gen_bottleneck,
    gen_fan,
    gen_partition,
    gen_por_dynamic,
    gen_por_static,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    partition_multisets,
    rat,
    solve_static,
    split_capacities,
    validate_dynamic_instance,
    validate_network,
)

from _oracles import subset_sum_half


def test_two_hop_structure():
    net = gen_two_hop()
    assert validate_network(net).ok
    shape = [(a.id, a.tail, a.head, a.capacity) for a in net.arcs]
    assert shape == [
        ("a1", "s", "v", 2),
        ("a2", "s", "v", 2),
        ("a3", "v", "t", 1),
        ("a4", "v", "t", 1),
        ("a5", "v", "t", 1),
    ]


def test_fan_structure():
    net = gen_fan(3)
    assert validate_network(net).ok
    assert len(net.arcs) == 8  # gamma+1 middle nodes, in/out pairs
    assert all(a.capacity == 1 for a in net.arcs)
    assert len(enumerate_st_paths(net)) == 4
    with pytest.raises(NetworkError):
        gen_fan(-1)


def test_bottleneck_structure():
    net = gen_bottleneck(2, 3)
    eta = 3 * 2 * (2 + 1)
    assert validate_network(net).ok
    wides = [a for a in net.arcs if str(a.id).startswith("wide")]
    units = [a for a in net.arcs if str(a.id).startswith("unit")]
    assert len(wides) == 3 and all(a.capacity == eta for a in wides)
    assert len(units) == eta and all(a.capacity == 1 for a in units)
    with pytest.raises(NetworkError):
        gen_bottleneck(0, 1)
    with pytest.raises(NetworkError):
        gen_bottleneck(1, 0)


def test_por_static_domain_and_scaling():
    net, scaled, scale = gen_por_static(2, rat(6, 5))
    assert validate_network(net).ok
    assert validate_network(scaled).ok
    assert scale == 2
    by_id = {a.id: a for a in net.arcs}
    assert by_id["mid1"].capacity == rat(1, 2)
    assert by_id["skipA"].capacity == rat(3, 2)
    scaled_by_id = {a.id: a for a in scaled.arcs}
    assert scaled_by_id["mid1"].capacity == 1
    assert scaled_by_id["skipA"].capacity == 3
    # alpha must stay strictly inside (1, 2*gamma/(gamma+1)).
    for bad in (rat(1), rat(4, 3), rat(2)):
        with pytest.raises(NetworkError):
            gen_por_static(2, bad)
    with pytest.raises(NetworkError):
        gen_por_static(1, rat(6, 5))


def test_por_dynamic_domain_and_scaling():
    unscaled, scaled, scale = gen_por_dynamic(2, 2)
    assert scale == 12
    assert not validate_dynamic_instance(unscaled).ok
    assert validate_dynamic_instance(scaled).ok
    assert scaled.gamma == 2
    assert scaled.horizon == 12
    with pytest.raises(NetworkError):
        gen_por_dynamic(1, 2)  # alpha must be < gamma + 1
    with pytest.raises(NetworkError):
        gen_por_dynamic(0, 1)


def test_ti_gap_structure():
    inst = gen_ti_gap()
    assert inst.horizon == 2 and inst.gamma == 1
    assert validate_dynamic_instance(inst).ok
    times = {(a.id): (a.travel_time, a.delay) for a in inst.network.arcs}
    assert times == {"a1": (0, 0), "a2": (0, 2), "a3": (1, 0), "a4": (1, 1)}


def test_partition_structure():
    inst = gen_partition((1, 3))
    net = inst.network
    assert inst.gamma == 1
    n, bbar, half = 2, 3, 2
    assert inst.horizon == (2 * n * bbar + 1) * half + 1 == 27
    by_id = {a.id: a for a in net.arcs}
    assert by_id["quick1"].travel_time == n * bbar * 1
    assert by_id["slack1"].travel_time == n * bbar * 1 + 1
    assert by_id["quick2"].travel_time == n * bbar * 3
    assert by_id["slack2"].travel_time == n * bbar * 3 + 3
    assert all(a.capacity == 1 and a.delay == inst.horizon for a in net.arcs)


def test_partition_extra_budget():
    inst = gen_partition((1, 3), extra_budget=1)
    assert inst.gamma == 2
    extras = [a for a in inst.network.arcs if str(a.id).startswith("extra")]
    assert len(extras) == 1
    extra = extras[0]
    assert extra.capacity == 2
    assert extra.travel_time == 0
    assert extra.delay == inst.horizon
    assert extra.tail == inst.network.source and extra.head == inst.network.sink


def test_partition_rejects_bad_input():
    with pytest.raises(NetworkError):
        gen_partition((1, 2))  # odd sum
    with pytest.raises(NetworkError):
        gen_partition(())
    with pytest.raises(NetworkError):
        gen_partition((0, 2))
    with pytest.raises(NetworkError):
        gen_partition((True, 1))


def test_brute_force_partition_matches_dp_oracle():
    import random

    assert brute_force_partition((1, 2, 3)) is True
    assert brute_force_partition((1, 1, 4)) is False
    assert brute_force_partition((2, 2)) is True
    rng = random.Random(99)
    for _ in range(40):
        b = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        if sum(b) % 2:
            continue
        assert brute_force_partition(b) == subset_sum_half(b)


def test_partition_multisets_enumeration():
    assert partition_multisets(2, 2) == [(2,), (1, 1), (2, 2)]
    cases = partition_multisets(4, 4)
    assert len(cases) == 37
    assert all(sum(b) % 2 == 0 for b in cases)
    assert all(len(b) <= 4 and max(b) <= 4 for b in cases)
    assert all(tuple(sorted(b)) == b for b in cases)
    assert len(set(cases)) == len(cases)


def test_split_capacities_structure_and_value():
    net = gen_two_hop()
    split = split_capacities(net)
    assert validate_network(split).ok
    # a1 (capacity 2) becomes one intake arc plus two unit arcs.
    by_id = {a.id: a for a in split.arcs}
    assert by_id["a1:in"].capacity == 2
    assert by_id["a1:u1"].capacity == 1
    assert by_id["a1:u2"].capacity == 1
    assert len(split.arcs) == 5 + 2 + 2 + 1 + 1 + 1
    gm_before = solve_static(net, "gm", 1)[1]
    gm_after = solve_static(split, "gm", 1)[1]
    assert gm_before.robust_value == gm_after.robust_value == 2


def test_split_rejects_fractional_capacities():
    net, _, _ = gen_por_static(2, rat(6, 5))
    with pytest.raises(NetworkError):
        split_capacities(net)


def test_gen_random_determinism_and_validity():
    for kind in ("dag", "general", "dynamic"):
        a = gen_random(kind, 6, 10, max_cap=3, max_tau=2, max_delay=2, horizon=4, seed=11)
        b = gen_random(kind, 6, 10, max_cap=3, max_tau=2, max_delay=2, horizon=4, seed=11)
        net_a = a.network if kind == "dynamic" else a
        net_b = b.network if kind == "dynamic" else b
        assert [(x.id, x.tail, x.head, x.capacity, x.travel_time, x.delay) for x in net_a.arcs] == [
            (x.id, x.tail, x.head, x.capacity, x.travel_time, x.delay) for x in net_b.arcs
        ]
        if kind == "dynamic":
            assert validate_dynamic_instance(a).ok
        else:
            assert validate_network(net_a).ok
        assert len(enumerate_st_paths(net_a)) >= 1


def test_gen_random_dag_is_acyclic():
    for seed in range(5):
        net = gen_random("dag", 7, 12, max_cap=2, seed=seed)
        order = {v: i for i, v in enumerate(net.nodes)}
        assert all(order[a.tail] < order[a.head] for a in net.arcs)


def test_gen_random_rejects_impossible_requests():
    with pytest.raises(NetworkError):
        gen_random("dag", 6, 3, seed=0)  # fewer arcs than the backbone needs
    with pytest.raises(NetworkError):
        gen_random("triangle", 4, 5, seed=0)
    with pytest.raises(NetworkError):
        gen_random("dag", 1, 1, seed=0)


@pytest.mark.parametrize(
    "horizon, gamma, violations",
    [
        (0, 1, "horizon must be an integer >= 1, got 0"),
        (4, -2, "gamma must be an integer >= 0, got -2"),
        (0, -2, "horizon must be an integer >= 1, got 0; gamma must be an integer >= 0, got -2"),
    ],
)
def test_gen_random_rejects_an_invalid_timed_instance(horizon, gamma, violations):
    # The same text the timed solvers report for an invalid instance.
    with pytest.raises(NetworkError) as excinfo:
        gen_random("dynamic", 4, 5, horizon=horizon, gamma=gamma)
    assert str(excinfo.value) == f"invalid dynamic instance: {violations}"
    assert validate_dynamic_instance(gen_random("dynamic", 4, 5, horizon=1, gamma=0)).ok
