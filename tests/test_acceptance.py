"""Acceptance gate: sixteen exact checks covering every model and family.

Each test is one pass/fail criterion; the terminal summary prints one line per
criterion.  All comparisons are exact rational equality — no tolerances.  Every
solve is routed through the session registry so the final ordering and probe
criteria can revisit exactly the instances the earlier criteria touched.
"""

import random
import time
from itertools import combinations

import conftest

from robustflow import (
    DynamicFlow,
    brute_force_partition,
    embed_static,
    evaluate_dynamic,
    evaluate_static,
    gen_bottleneck,
    gen_fan,
    gen_partition,
    gen_por_dynamic,
    gen_por_static,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    nominal_dynamic_max_flow,
    nominal_max_flow,
    partition_multisets,
    rat,
    split_capacities,
)

from _oracles import min_cut_value, nominal_dynamic_value


def _seeded_dags():
    """The 20 random DAGs shared by criteria 4, 5, and 6 (<=8 nodes, <=14 arcs)."""
    nets = []
    for seed in range(20):
        nodes = 5 + seed % 4
        arcs = 2 * (nodes - 2) + seed % 3
        nets.append((f"dag{seed}@1", gen_random("dag", nodes=nodes, arcs=arcs, max_cap=3, seed=seed)))
    return nets


def _seeded_dynamic():
    """The 20 random dynamic instances for criterion 10 (<=6 nodes, T<=6, Gamma<=2)."""
    out = []
    for seed in range(20):
        nodes = 4 + seed % 3
        inst = gen_random(
            "dynamic",
            nodes=nodes,
            arcs=2 * (nodes - 2) + 2 + seed % 3,
            horizon=4 + seed % 3,
            gamma=1 + seed % 2,
            max_cap=3,
            max_tau=2,
            max_delay=2,
            seed=seed,
        )
        out.append((f"dyn{seed}", inst))
    return out


def _unit_dags():
    """Criterion 7's 10 unit-capacity DAGs at budgets 1, 2 and 3: (key, network, budget)."""
    out = []
    for seed in range(10):
        nodes = 5 + seed % 3
        arcs = 2 * (nodes - 2) + 2 + seed % 3
        net = gen_random("dag", nodes=nodes, arcs=arcs, max_cap=1, seed=300 + seed)
        out += [(f"unit-dag{seed}@{gamma}", net, gamma) for gamma in (1, 2, 3)]
    return out


def _split_cases():
    """Criterion 8's networks and their capacity splits: (key, network, split key, split)."""
    cases = [("two-hop", gen_two_hop())]
    for seed in range(5):
        nodes = 5 + seed % 2
        arcs = 2 * (nodes - 2) + 3 + seed % 2
        cases.append((f"splitbase{seed}", gen_random("dag", nodes=nodes, arcs=arcs, max_cap=3, seed=500 + seed)))
    return [(f"{name}@1", net, f"{name}-split@1", split_capacities(net)) for name, net in cases]


def _embedding_cases():
    """Criterion 14's networks and their horizon-1 embeddings: (key, network, budget, key, instance)."""
    cases = (
        ("two-hop", gen_two_hop(), 1),
        ("fan(2)", gen_fan(2), 2),
        ("bottleneck(1,2)", gen_bottleneck(1, 2), 1),
    )
    return [
        (f"{name}@{gamma}", net, gamma, f"embed:{name}", embed_static(net, gamma))
        for name, net, gamma in cases
    ]


def test_criterion_01_two_hop_exact_values(registry):
    start = time.perf_counter()
    net = gen_two_hop()
    for model, expected in (("pm", rat(3, 2)), ("am", rat(4, 3)), ("gm", rat(2))):
        _, report = registry.solve_static("two-hop@1", net, model, 1)
        assert report.robust_value == expected, model
    assert nominal_max_flow(net)[0] == 3
    assert min_cut_value(net) == 3
    assert time.perf_counter() - start < 1.0


def test_criterion_02_fan_family_values(registry):
    for gamma in (1, 2, 3):
        net = gen_fan(gamma)
        key = f"fan({gamma})@{gamma}"
        assert registry.solve_static(key, net, "pm", gamma)[1].robust_value == 1
        assert registry.solve_static(key, net, "gm", gamma)[1].robust_value == 1
        assert registry.solve_static(key, net, "am", gamma)[1].robust_value == 0


def test_criterion_03_bottleneck_family_values(registry):
    for gamma in (1, 2):
        for beta in (1, 2, 3):
            eta = beta * gamma * (gamma + 1)
            net = gen_bottleneck(gamma, beta)
            key = f"bottleneck({gamma},{beta})@{gamma}"
            am = registry.solve_static(key, net, "am", gamma)[1].robust_value
            gm = registry.solve_static(key, net, "gm", gamma)[1].robust_value
            pm = registry.solve_static(key, net, "pm", gamma)[1].robust_value
            assert am == eta - gamma
            assert gm == eta - gamma
            assert pm == rat(eta, gamma + 1)
            assert rat(gm) / pm == gamma + 1 - rat(1, beta)


def test_criterion_04_gamma1_compact_lp_matches_integrated_model(registry):
    cases = [("two-hop@1", gen_two_hop())] + _seeded_dags()
    for key, net in cases:
        gm = registry.solve_static(key, net, "gm", 1)[1].robust_value
        flow, report = registry.solve_static(key, net, "gm1", 1)
        assert report.robust_value == gm, key
        assert flow.kind == "subpath"
        again = evaluate_static(flow, net, 1)
        assert again.robust_value == gm, key


def test_criterion_05_gamma1_lexicographic_solve_attains_nominal_optimum(registry):
    cases = [("two-hop@1", gen_two_hop())] + _seeded_dags()
    for key, net in cases:
        fstar = nominal_max_flow(net)[0]
        assert fstar == min_cut_value(net), key
        _, report = registry.solve_static(key, net, "gm", 1, lex=True)
        assert report.nominal_value == fstar, key


def test_criterion_06_gamma1_dag_gap_bound(registry):
    for key, net in _seeded_dags():
        pm = registry.solve_static(key, net, "pm", 1)[1].robust_value
        gm = registry.solve_static(key, net, "gm", 1)[1].robust_value
        am = registry.solve_static(key, net, "am", 1)[1].robust_value
        assert gm <= 2 * pm, key
        assert am <= 2 * pm, key


def test_criterion_07_unit_capacity_closed_form(registry):
    for key, net, gamma in _unit_dags():
        gm = registry.solve_static(key, net, "gm", gamma)[1].robust_value
        assert gm == max(min_cut_value(net) - gamma, 0), key


def test_criterion_08_capacity_split_invariance(registry):
    for key, net, split_key, split in _split_cases():
        gm = registry.solve_static(key, net, "gm", 1)[1].robust_value
        gm_split = registry.solve_static(split_key, split, "gm", 1)[1].robust_value
        assert gm_split == gm, key


def test_criterion_09_static_price_of_robustness(registry):
    for gamma, alpha, fstar, lex_nominal in (
        (2, rat(6, 5), rat(3), rat(5, 2)),
        (3, rat(5, 4), rat(10, 3), rat(8, 3)),
    ):
        net, _, _ = gen_por_static(gamma, alpha)
        key = f"por-static({gamma},{alpha})@{gamma}"
        assert nominal_max_flow(net)[0] == fstar
        for model in ("pm", "gm"):
            _, report = registry.solve_static(key, net, model, gamma, lex=True)
            assert report.nominal_value == lex_nominal, model
            assert fstar / report.nominal_value == alpha, model


def test_criterion_10_robust_conservation_compact_dual_equivalence(registry):
    cases = [("ti-gap", gen_ti_gap())] + _seeded_dynamic()
    for key, inst in cases:
        dam = registry.solve_dynamic(key, inst, "dam")[1].robust_value
        compact = registry.solve_dynamic(key, inst, "dam-compact")[1].robust_value
        assert compact == dam, key


def test_criterion_11_ti_gap_example(registry):
    inst = gen_ti_gap()
    assert nominal_dynamic_max_flow(inst)[0] == 3
    assert nominal_dynamic_value(inst) == 3
    for model, expected in (("dpm", 2), ("dam", 2), ("dgm", 2), ("tr", rat(3, 2))):
        _, report = registry.solve_dynamic("ti-gap", inst, model)
        assert report.robust_value == expected, model
    values = {}
    for theta in (1, 2):
        values[("a1", theta)] = rat(1)
        values[("a4", theta)] = rat(1)
        values[("a2", theta)] = rat(1, 2)
        values[("a3", theta)] = rat(1, 2)
    report = evaluate_dynamic(DynamicFlow("arc", values), inst)
    assert report.robust_value == rat(3, 2)


def test_criterion_12_partition_round_trip(registry):
    start = time.perf_counter()
    cases = list(partition_multisets(4, 4))
    rng = random.Random(12)
    seeded = []
    while len(seeded) < 10:
        n = rng.randint(1, 4)
        b = tuple(sorted(rng.randint(1, 4) for _ in range(n)))
        if sum(b) % 2 == 0:
            seeded.append(b)
    assert seeded == [
        (2, 3, 3, 4), (1, 2, 3, 4), (2,), (4,), (1, 2, 3, 4),
        (4,), (2,), (3, 3, 4), (1, 2, 3), (2, 3, 3),
    ]
    mismatches = []
    for b in cases + seeded:
        expected = brute_force_partition(b)
        inst = gen_partition(b)
        key = f"partition{b}"
        for model in ("dpm", "dgm"):
            value = registry.solve_dynamic(key, inst, model)[1].robust_value
            if (value > 0) != expected:
                mismatches.append((model, b, value, expected))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    conftest.ACCEPTANCE_EXTRA.append(
        f"criterion 12 detail: {len(mismatches)} model/multiset pairs break the "
        f"equivalence in {elapsed:.1f}s (see FAILURES section)"
    )
    assert not mismatches, (
        f"{len(mismatches)} model/multiset pairs break the balanced-bipartition "
        "equivalence: "
        + "; ".join(f"{m} on b={b} gives {v} but the split answer is {e}" for m, b, v, e in mismatches)
        + ".  Each violating multiset admits three deadline-feasible paths that "
        "pairwise overlap yet share no single arc, so a budget-1 delay cannot stop "
        "them all and the robust optimum is positive even though no balanced split "
        "exists; positivity does not force two arc-disjoint paths."
    )


def test_criterion_13_dynamic_price_of_robustness(registry):
    for gamma, alpha, fstar, lex_nominal in (
        (1, rat(3, 2), rat(6), rat(4)),
        (2, rat(2), rat(12), rat(6)),
    ):
        _, scaled, _ = gen_por_dynamic(gamma, alpha)
        key = f"por-dynamic({gamma},{alpha})"
        assert nominal_dynamic_max_flow(scaled)[0] == fstar
        assert nominal_dynamic_value(scaled) == fstar
        for model in ("dpm", "dgm"):
            _, report = registry.solve_dynamic(key, scaled, model, lex=True)
            assert report.nominal_value == lex_nominal, model
            assert fstar / report.nominal_value == alpha, model


def test_criterion_14_static_embedding_equivalence(registry):
    for key, net, gamma, embed_key, inst in _embedding_cases():
        assert inst.horizon == 1
        for static_model, dynamic_model in (("pm", "dpm"), ("am", "dam"), ("gm", "dgm")):
            static_value = registry.solve_static(key, net, static_model, gamma)[1].robust_value
            dynamic_value = registry.solve_dynamic(embed_key, inst, dynamic_model)[1].robust_value
            assert dynamic_value == static_value, (key, static_model)


def test_criterion_15_relaxation_orderings_across_all_touched_instances(registry):
    # Register the instance lists of criteria 04-14 here too, so that this
    # criterion checks them when it runs alone; after those criteria have run,
    # every key is already there and nothing changes.
    for key, net in _seeded_dags():
        registry.static.setdefault(key, (net, 1))
    for key, net, gamma in _unit_dags():
        registry.static.setdefault(key, (net, gamma))
    for key, net, split_key, split in _split_cases():
        registry.static.setdefault(key, (net, 1))
        registry.static.setdefault(split_key, (split, 1))
    for key, inst in _seeded_dynamic():
        registry.dynamic.setdefault(key, inst)
    for b in partition_multisets(4, 4):  # criterion 12's seeded draws repeat some of these
        registry.dynamic.setdefault(f"partition{b}", gen_partition(b))
    for key, net, gamma, embed_key, inst in _embedding_cases():
        registry.static.setdefault(key, (net, gamma))
        registry.dynamic.setdefault(embed_key, inst)
    static_checked = 0
    for key, (net, gamma) in list(registry.static.items()):
        pm = registry.solve_static(key, net, "pm", gamma)[1].robust_value
        am = registry.solve_static(key, net, "am", gamma)[1].robust_value
        gm = registry.solve_static(key, net, "gm", gamma)[1].robust_value
        assert gm >= pm, key
        assert gm >= am, key
        static_checked += 1
    dynamic_checked = 0
    for key, inst in list(registry.dynamic.items()):
        dpm = registry.solve_dynamic(key, inst, "dpm")[1].robust_value
        dam = registry.solve_dynamic(key, inst, "dam")[1].robust_value
        dgm = registry.solve_dynamic(key, inst, "dgm")[1].robust_value
        tr = registry.solve_dynamic(key, inst, "tr")[1].robust_value
        assert dgm >= dpm, key
        assert dgm >= dam, key
        assert tr <= dpm, key
        dynamic_checked += 1
    # Every family from the earlier criteria must actually be present.
    assert static_checked >= 60
    assert dynamic_checked >= 60
    conftest.ACCEPTANCE_EXTRA.append(
        f"criterion 15 detail: orderings verified on {static_checked} static and "
        f"{dynamic_checked} dynamic instances"
    )


def test_criterion_16_conjecture_probe(registry):
    trend = []
    for beta in (1, 2, 4, 8):
        net = gen_bottleneck(1, beta)
        key = f"bottleneck(1,{beta})@1"
        pm = registry.solve_static(key, net, "pm", 1)[1].robust_value
        gm = registry.solve_static(key, net, "gm", 1)[1].robust_value
        trend.append((beta, rat(gm) / pm))
    best = {}
    for key, (net, gamma) in list(registry.static.items()):
        pm = registry.solve_static(key, net, "pm", gamma)[1].robust_value
        gm = registry.solve_static(key, net, "gm", gamma)[1].robust_value
        if pm == 0:
            continue
        ratio = rat(gm) / pm
        assert ratio <= gamma + 1, key
        if gamma not in best or ratio > best[gamma][0]:
            best[gamma] = (ratio, key)
    trend_text = ", ".join(f"beta={beta}: {ratio}" for beta, ratio in trend)
    conftest.ACCEPTANCE_EXTRA.append(
        f"criterion 16 probe: bottleneck gm/pm ratios [{trend_text}] approach gamma+1 = 2"
    )
    for gamma in sorted(best):
        ratio, key = best[gamma]
        conftest.ACCEPTANCE_EXTRA.append(
            f"criterion 16 probe: max gm/pm at gamma={gamma} is {ratio} on {key} "
            f"(bound {gamma + 1})"
        )
