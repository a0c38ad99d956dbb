"""Property-based checks: model orderings, serialization, partition oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from robustflow import (
    brute_force_partition,
    evaluate_static,
    gen_random,
    nominal_max_flow,
    rat,
    rational_from_json,
    rational_to_json,
    solve_static,
)

from _oracles import subset_sum_half

COMMON = dict(deadline=None, max_examples=20)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_integrated_model_dominates_on_random_dags(seed):
    nodes = 5 + seed % 3
    net = gen_random("dag", nodes=nodes, arcs=2 * (nodes - 2) + seed % 3, max_cap=3, seed=seed)
    values = {
        model: solve_static(net, model, 1)[1].robust_value
        for model in ("pm", "am", "gm")
    }
    nominal = nominal_max_flow(net)[0]
    assert values["gm"] >= values["pm"]
    assert values["gm"] >= values["am"]
    assert nominal >= values["gm"]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_robust_value_matches_independent_reevaluation(seed):
    nodes = 5 + seed % 3
    net = gen_random("dag", nodes=nodes, arcs=2 * (nodes - 2) + seed % 2, max_cap=2, seed=seed)
    flow, report = solve_static(net, "gm", 1)
    again = evaluate_static(flow, net, 1)
    assert again.robust_value == report.robust_value
    assert again.nominal_value == report.nominal_value


@given(num=st.integers(min_value=-10**9, max_value=10**9),
       den=st.integers(min_value=1, max_value=10**9))
@settings(**COMMON)
def test_rational_json_roundtrip(num, den):
    value = rat(num, den)
    encoded = rational_to_json(value)
    assert isinstance(encoded, (int, str))
    assert rational_from_json(encoded) == value
    assert rat(Fraction(num, den)) == value


@given(values=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=9))
@settings(deadline=None, max_examples=60)
def test_partition_brute_force_matches_bitset_oracle(values):
    b = tuple(sorted(values))
    assert brute_force_partition(b) == subset_sum_half(b)
