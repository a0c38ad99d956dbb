"""Exact-rational simplex: optima, statuses, degeneracy, lexicographic mode."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import robustflow
from robustflow import (
    LexSolution,
    LinearProgram,
    LpError,
    build_am_lp,
    build_dam_compact_lp,
    build_dam_lp,
    build_dgm_lp,
    build_dpm_lp,
    build_gamma1_compact_lp,
    build_gm_lp,
    build_pm_lp,
    build_tr_lp,
    enumerate_subpaths,
    format_rational,
    gen_bottleneck,
    gen_fan,
    gen_partition,
    gen_por_dynamic,
    gen_por_static,
    gen_random,
    gen_ti_gap,
    gen_two_hop,
    lexicographic_solve,
    rat,
    solve_lp,
    split_capacities,
)
from robustflow.lp import LpCheckError, _Simplex, _forced_zero, _verify, dump_lp, in_form

from _oracles import row_by_row_verify


def test_small_max_lp():
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: 1, y: 2}, "<=", 14)
    lp.add_constraint({x: -3, y: 1}, "<=", 0)  # 3x - y >= 0
    lp.add_constraint({x: 1, y: -1}, "<=", 2)
    lp.set_objective({x: 3, y: 4})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 34
    assert sol.values[x] == 6 and sol.values[y] == 4


def test_rational_coefficients_solve_exactly():
    lp = LinearProgram()
    x = lp.add_var()
    y = lp.add_var()
    lp.add_constraint({x: rat(1, 3), y: rat(1, 7)}, "<=", 1)
    lp.add_constraint({x: rat(1, 2), y: rat(2, 3)}, "<=", 2)
    lp.set_objective({x: 1, y: 1})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    # Vertex of the two constraints (7x+3y=21, 3x+4y=12): x = 48/19, y = 21/19.
    assert sol.values[x] == rat(48, 19)
    assert sol.values[y] == rat(21, 19)
    assert sol.objective_value == rat(69, 19)


def test_min_sense_and_free_variables():
    # The LP maximizes over nonnegative variables only: there is no sense to
    # choose and no free variable, and the ">=" rows that bound a minimum or
    # a free column from below are out of form.
    with pytest.raises(TypeError):
        LinearProgram("min")
    lp = LinearProgram()
    with pytest.raises(TypeError):
        lp.add_var("z", free=True)
    z = lp.add_var("z")
    x = lp.add_var("x")
    with pytest.raises(LpError):
        lp.add_constraint({z: 1}, ">=", -5)
    # x + z <= 0 with z free would allow x = -z > 0; with z >= 0 it forces both.
    lp.add_constraint({x: 1, z: 1}, "<=", 0)
    with pytest.raises(LpError):
        lp.add_constraint({z: 1}, ">=", -3)
    assert lp.free == (False, False) and lp.sense == "max"
    assert _forced_zero(lp) == [True, True]


def test_equality_constraints():
    lp = LinearProgram()
    x = lp.add_var()
    y = lp.add_var()
    z = lp.add_var()
    # x + y == 4 becomes x + y - z == 0 with z <= 4; 2x + y is at most
    # x + z <= 5, so every optimum has z = 4.
    lp.add_constraint({x: 1, y: 1, z: -1}, "==", 0)
    lp.add_constraint({z: 1}, "<=", 4)
    lp.add_constraint({x: 1}, "<=", 1)
    lp.set_objective({x: 2, y: 1})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 5
    assert sol.values == (1, 3, 4)


def test_infeasible_detected():
    # x = 0 is feasible in every LP of the form, so an infeasible LP is one
    # with a row out of form, and it is rejected when the row is added.
    lp = LinearProgram()
    x = lp.add_var()
    lp.add_constraint({x: 1}, "<=", 1)
    with pytest.raises(LpError):
        lp.add_constraint({x: 1}, ">=", 2)
    with pytest.raises(LpError):
        lp.add_constraint({x: -1}, "<=", -2)
    lp.set_objective({x: 1})
    assert lp.n_constraints == 1 and solve_lp(lp).objective_value == 1


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.add_var()
    y = lp.add_var()
    lp.add_constraint({x: 1, y: -1}, "<=", 1)
    lp.set_objective({x: 1})
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


def test_lexicographic_unbounded_steps():
    # Unbounded in the primary objective, then only in the secondary one.
    lp = LinearProgram()
    x, y = lp.add_var("x"), lp.add_var("y")
    lp.set_objective({x: 1})
    assert lexicographic_solve(lp, {y: 1}) == LexSolution("unbounded", None, None, ())
    lp.add_constraint({x: 1}, "<=", 1)
    assert lexicographic_solve(lp, {y: 1}) == LexSolution("unbounded", 1, None, ())


@pytest.fixture
def pivot_bound(monkeypatch):
    """Fail a solve after 100 pivots, so that a pivot rule that cycles fails
    the test instead of hanging it.  Returns the list of entering columns;
    clearing it resets the bound."""
    pivots = []
    pivot = _Simplex._pivot

    def counted(self, r, col):
        pivots.append(col)
        if len(pivots) > 100:
            raise AssertionError("the simplex cycles")
        pivot(self, r, col)

    monkeypatch.setattr(_Simplex, "_pivot", counted)
    return pivots


def test_degenerate_cycling_guard(pivot_bound):
    # Beale's classic cycling example, minimize (-3/4, 150, -1/50, 6) . x,
    # as the maximum of its negation; Bland's rule must terminate on it.
    lp = LinearProgram()
    x1, x2, x3, x4 = (lp.add_var() for _ in range(4))
    lp.add_constraint({x1: rat(1, 4), x2: -60, x3: rat(-1, 25), x4: 9}, "<=", 0)
    lp.add_constraint({x1: rat(1, 2), x2: -90, x3: rat(-1, 50), x4: 3}, "<=", 0)
    lp.add_constraint({x3: 1}, "<=", 1)
    lp.set_objective({x1: rat(3, 4), x2: -150, x3: rat(1, 50), x4: -6})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == rat(1, 20)
    assert sol.values[x1] == rat(1, 25) and sol.values[x3] == 1


def test_dantzig_cycling_example_ends_under_the_bland_fallback(pivot_bound):
    # Chvatal, Linear Programming (1983), ch. 3: the largest-coefficient rule
    # alone cycles here.  A repeated basis must hand over to Bland's rule.
    lp = LinearProgram()
    x1, x2, x3, x4 = (lp.add_var() for _ in range(4))
    lp.add_constraint({x1: rat(1, 2), x2: rat(-11, 2), x3: rat(-5, 2), x4: 9}, "<=", 0)
    lp.add_constraint({x1: rat(1, 2), x2: rat(-3, 2), x3: rat(-1, 2), x4: 1}, "<=", 0)
    lp.add_constraint({x1: 1}, "<=", 1)
    lp.set_objective({x1: 10, x2: -57, x3: -9, x4: -24})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert sol.values == (1, 0, 1, 0)


def test_zero_variable_lp():
    lp = LinearProgram()
    lp.set_objective({})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 0


def test_bad_inputs_raise():
    with pytest.raises(TypeError):
        LinearProgram("max")
    lp = LinearProgram()
    lp.add_var("x")
    with pytest.raises(LpError):
        lp.add_constraint({3: 1}, "<=", 1)
    with pytest.raises(LpError):
        lp.add_constraint({0: 1}, "=<", 1)
    with pytest.raises(LpError):
        lp.set_objective({5: 1})


OUT_OF_FORM = [(">=", 1), ("<=", -1), ("==", 1)]


@pytest.mark.parametrize("rel, rhs", OUT_OF_FORM)
def test_add_constraint_rejects_rows_out_of_form(rel, rhs):
    lp = LinearProgram()
    x = lp.add_var("x")
    with pytest.raises(LpError):
        lp.add_constraint({x: 1}, rel, rhs)
    assert lp.n_constraints == 0


@pytest.mark.parametrize("rel, rhs", OUT_OF_FORM)
def test_add_row_rejects_rows_out_of_form(rel, rhs):
    # add_row skips add_constraint's checks of the terms, not of the form: a
    # row out of form raises before its zero terms go, so an empty one too,
    # instead of being skipped and leaving an LP the simplex does not solve.
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: 1}, "<=", 2)
    lp.set_objective({x: 1})
    for coeffs in ({x: 1}, {x: 0}, {}):
        with pytest.raises(LpError, match=f"got {rel} {rhs}"):
            lp.add_row(coeffs, rel, rhs, "planted")
    assert lp.n_constraints == 1 and solve_lp(lp).objective_value == 2


def test_add_row_skips_empty_rows_and_repeats():
    # A repeat is the same relation, right-hand side and nonzero terms; an
    # int keys a row like the equal Fraction, and the first label stays.
    lp = LinearProgram()
    x, y, z = lp.add_var("x"), lp.add_var("y"), lp.add_var("z")
    lp.add_constraint({x: 1, y: 2}, "<=", 3, label="first")
    lp.add_constraint({y: 2, x: 1}, "<=", rat(3), label="again")
    lp.add_row({x: 1, y: 2, z: 0}, "<=", 3, "zero term")
    lp.add_row({x: 0}, "<=", 3, "empty")
    lp.add_constraint({x: 1, y: 2}, "<=", 4, label="other rhs")
    lp.add_constraint({x: 1, y: 2}, "==", 0, label="other rel")
    assert [con.label for con in lp.constraints] == ["first", "other rhs", "other rel"]
    assert lp.constraints[0].coeffs == {x: 1, y: 2}


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None, True])
def test_inexact_data_raises(bad):
    # Only ints and Fractions are LP data; nothing is coerced on the way in.
    lp = LinearProgram()
    x = lp.add_var("x")
    with pytest.raises(LpError):
        lp.add_constraint({x: bad}, "<=", 1)
    with pytest.raises(LpError):
        lp.add_constraint({x: 1}, "<=", bad)
    with pytest.raises(LpError):
        lp.set_objective({x: bad})
    lp.set_objective({x: 1})
    lp.add_constraint({x: 1}, "<=", rat(3, 2))
    with pytest.raises(LpError):
        lexicographic_solve(lp, {x: bad})
    assert lp.n_constraints == 1 and solve_lp(lp).objective_value == rat(3, 2)


def test_lexicographic_secondary_optimum():
    # Primary: maximize a+b on a+b<=10 (a whole edge is optimal).
    # Secondary: maximize a among those optima -> the (10, 0) vertex.
    lp = LinearProgram()
    a = lp.add_var("a")
    b = lp.add_var("b")
    lp.add_constraint({a: 1, b: 1}, "<=", 10)
    lp.add_constraint({a: 1}, "<=", 7)
    lp.set_objective({a: 1, b: 1})
    lex = lexicographic_solve(lp, {a: 1})
    assert lex.status == "optimal"
    assert lex.primary_value == 10
    assert lex.secondary_value == 7
    assert lex.values[a] == 7 and lex.values[b] == 3


def test_lexicographic_keeps_primary_pinned():
    lp = LinearProgram()
    x = lp.add_var()
    y = lp.add_var()
    lp.add_constraint({x: 1, y: 1}, "<=", 4)
    lp.add_constraint({y: 1}, "<=", 3)
    lp.set_objective({y: 1})  # primary optimum y=3, x free in [0,1]
    lex = lexicographic_solve(lp, {x: 1, y: 1})
    assert lex.primary_value == 3
    assert lex.values[y] == 3
    assert lex.values[x] == 1
    assert lex.secondary_value == 4


def test_dump_lp_is_readable():
    lp = LinearProgram()
    x = lp.add_var("flow")
    assert dump_lp(lp) == "max: 0\nsubject to:\nfree: (none)\n"
    lp.add_constraint({x: 1}, "<=", rat(3, 2), label="cap")
    lp.set_objective({x: 1})
    text = dump_lp(lp)
    assert "flow" in text and "3/2" in text and "cap" in text


# Vertices returned by Dantzig's rule, with its Bland fallback, on degenerate
# model LPs, as recorded from the dense rational tableau: (LP, lexicographic?,
# optimum, digest of the values).  The LPs at Gamma >= 2 have lazy loss rows;
# their vertices were re-recorded then, with the same optima.  A change to the
# pivot rule that changes the returned flow fails here.
def _bottleneck_lp(builder):
    net = gen_bottleneck(2, 2)
    return builder(net, enumerate_subpaths(net), 2)


def _unit_dag_gm_lp():
    # Criterion 07's unit-capacity DAG number 7 (seed 307), at Gamma = 3.
    net = gen_random("dag", nodes=6, arcs=11, max_cap=1, seed=307)
    return build_gm_lp(net, enumerate_subpaths(net), 3)


def _por_static_lp(builder):
    net, _, _ = gen_por_static(2, rat(6, 5))
    return builder(net, enumerate_subpaths(net), 2)


GOLDEN = {
    "bottleneck(2,2) gm": (lambda: _bottleneck_lp(build_gm_lp), False, "10", "75e5e537c4cbef7d"),
    "bottleneck(2,2) pm": (lambda: _bottleneck_lp(build_pm_lp), False, "4", "4897c468b68cdb9f"),
    "unit-dag 307 gm": (_unit_dag_gm_lp, False, "0", "54f9543d8c798592"),
    "partition(2,2,4) dam-compact": (
        lambda: build_dam_compact_lp(gen_partition((2, 2, 4))), False, "0", "96009c799e69c10c"
    ),
    "por-static(2,6/5) gm lex": (lambda: _por_static_lp(build_gm_lp), True, "1/2", "3a7ca4473a6f44e2"),
    "por-static(2,6/5) pm lex": (lambda: _por_static_lp(build_pm_lp), True, "1/2", "db9199ccc5df3d96"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vertices_of_degenerate_model_lps(name):
    make, lex, objective, digest = GOLDEN[name]
    build = make()
    if lex:
        sol = lexicographic_solve(build.lp, build.nominal_coeffs)
        value = sol.primary_value
    else:
        sol = solve_lp(build.lp)
        value = sol.objective_value
    assert sol.status == "optimal"
    assert format_rational(value) == objective
    text = ",".join(format_rational(v) for v in sol.values)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# sha256 of ``dump_lp`` of every builder's LP, recorded before the builders
# shared one pipeline: variables, objective, rows, their order and labels.
# A change to any of them, including row order, fails here.
STATIC_NETS = {
    "bottleneck(1,2)": lambda: gen_bottleneck(1, 2),
    "por-static(2,6/5)": lambda: gen_por_static(2, rat(6, 5))[0],
}
DYNAMIC_INSTANCES = {"ti-gap": gen_ti_gap, "partition(2,2,2)": lambda: gen_partition((2, 2, 2))}


def _model_lp(instance, model, gamma):
    if instance in STATIC_NETS:
        net = STATIC_NETS[instance]()
        if model == "am":
            return build_am_lp(net, gamma)
        if model == "gm1":
            return build_gamma1_compact_lp(net)
        return {"pm": build_pm_lp, "gm": build_gm_lp}[model](net, enumerate_subpaths(net), gamma)
    inst = DYNAMIC_INSTANCES[instance]()
    if model == "dam":
        return build_dam_lp(inst)
    if model == "dam-compact":
        return build_dam_compact_lp(inst)
    builder = {"dpm": build_dpm_lp, "dgm": build_dgm_lp, "tr": build_tr_lp}[model]
    return builder(inst, enumerate_subpaths(inst.network))


# (instance, model, Gamma or None for the dynamic instances' own) -> digest
LP_GOLDEN = {
    ("bottleneck(1,2)", "pm", 1):
        "84b63b250d18d0eba20163a7846df5d84d87a453ef131fef6b6b110b02f3cd78",
    ("bottleneck(1,2)", "am", 1):
        "63af92ac5e7863e7942e4a8292ca6308078c41378c97d1faa1ab81a8d99cafa2",
    ("bottleneck(1,2)", "gm", 1):
        "39c9c79e06940b40ea52f2dec63f151a0c47a507dd897f6e216f79a578474474",
    ("bottleneck(1,2)", "pm", 2):
        "05503b53cfc68a0222685324e9fc88aa998ee49d9f4b23f03fafad12655d4972",
    ("bottleneck(1,2)", "am", 2):
        "fe115ae00b8307359c8ffd9c2ff9b814419597d7ce3d1203c5cb643666747f11",
    ("bottleneck(1,2)", "gm", 2):
        "c0cb42434796fef16c8dcc0acb3715ca8a664e52689cf7b00045be54bf08fce0",
    ("bottleneck(1,2)", "gm1", 1):
        "8a0d2e98cb585b55d3169e5b24bb3ba1a97045b02615ef2f868b68ee5a47492a",
    ("por-static(2,6/5)", "pm", 1):
        "3d4a7930054b0cba9d3859ab24ae60eac86795b90e16f5b78ebc7354f1619652",
    ("por-static(2,6/5)", "am", 1):
        "6b81aabdf7c5543ce3ce9cc2d568224725206f4a41d24d89e64f61ea4a2ac27b",
    ("por-static(2,6/5)", "gm", 1):
        "9d38f0916436f147b52599e7fc4a83cabc0c460869829e37436ce7d7b658578b",
    ("por-static(2,6/5)", "pm", 2):
        "9af07892d127ba6f65860b5c4446d82bd788acca55972763b60904111158934e",
    ("por-static(2,6/5)", "am", 2):
        "2bd63868fcb6ad7728b45bbb02255ff7e6f8e3af4a9ca9c833eb0200e347dd46",
    ("por-static(2,6/5)", "gm", 2):
        "4b1d97322bacb8749f4e79a6f443d24bf9c49f7d9f4e75454f5f9a5804f786df",
    ("por-static(2,6/5)", "gm1", 1):
        "c8e8e4374f22713eee5985c17e5df3349f8455d881e4872a2aded77d7f523e98",
    ("ti-gap", "dpm", None):
        "cf166f7eafdea7c482151184301229e3e5f5d5f232b133ed70b4be09899ef014",
    ("ti-gap", "dgm", None):
        "047987e13bf6ddd688868357c3950ed0f7624e75ac16712558b893a43ef5a108",
    ("ti-gap", "dam", None):
        "971af20e3948fde6d1fcfefd96d9b85852e9e79d16f21805de66147d71bc5d3b",
    ("ti-gap", "dam-compact", None):
        "45aa5d4828e68b216ad9c8c12a7e46b5aa9069428a77fdf175de9a4346bd1ae9",
    ("ti-gap", "tr", None):
        "721b71adb87d65069816103a57668b903f9d392be84f90831a62972658d6a615",
    ("partition(2,2,2)", "dpm", None):
        "5d0746f4d297b63a21342acb9435225ddbf19ab7d7d12de857904530feea6fa3",
    ("partition(2,2,2)", "dgm", None):
        "c3e15da0a4746e35be55618a18738aa0d9af17f436112741329defa56b0842e2",
    ("partition(2,2,2)", "dam", None):
        "6faabd4fd50a866698f922e4fa67a85b08344af5965d6d7c3359c1935d3c9549",
    ("partition(2,2,2)", "dam-compact", None):
        "202361731f78f375a17232beb17769a7f476a9d535ba301a7df9d1662ec2edbc",
    ("partition(2,2,2)", "tr", None):
        "0ba5de453852e452537aab6f592a357a753e0d2f338cc907ad23b58b57d6904e",
}


@pytest.mark.parametrize(
    "key", sorted(LP_GOLDEN, key=str), ids=lambda key: " ".join(str(k) for k in key if k is not None)
)
def test_golden_model_lps(key):
    build = _model_lp(*key)
    assert hashlib.sha256(dump_lp(build.lp).encode()).hexdigest() == LP_GOLDEN[key]
    # The builders emit int coefficients; only capacities make a rational rhs.
    forms = [build.lp.objective, build.nominal_coeffs] + [con.coeffs for con in build.lp.constraints]
    assert all(type(c) is int for form in forms for c in form.values())
    assert all(type(con.rhs) in (int, Fraction) for con in build.lp.constraints)


# One sha256 over the ``dump_lp`` text of the path, arc and subpath LPs (static
# and timed) and the temporally repeated LPs on a wider set of networks than
# ``LP_GOLDEN``: the structured families and seeded random graphs at budgets
# 0-3, and ti-gap, the partitions, the scaled por-dynamic twins and the random
# dynamic instances the timed benchmark solves.  Each LP's text is followed by
# its kind, flow columns, arrival column and nominal objective.
BROAD_DIGEST = "85f22719cea30bd496d0226045d44d30dd103caf98881928910f4fd08b61b0ac"
TIMED_PARTITIONS = {
    (1, 1): ("dpm", "dgm", "dam", "tr"),
    (2, 2): ("dpm", "dgm", "dam", "tr"),
    (2, 4): ("dpm", "dgm", "dam", "tr"),
    (1, 1, 2): ("dpm", "dgm", "dam", "tr"),
    (2, 2, 2): ("dpm", "dgm", "dam", "tr"),
    (2, 2, 4): ("dpm", "dgm", "dam", "tr"),
    (1, 1, 1, 1): ("dpm", "dam", "tr"),
    (2, 2, 2, 4): ("dpm", "tr"),
}


def _broad_nets():
    nets = [gen_two_hop()] + [gen_fan(g) for g in (1, 2, 3)]
    nets += [gen_bottleneck(g, b) for g in (1, 2) for b in (1, 2)]
    for seed in range(20):
        for kind in ("dag", "general"):
            nets.append(gen_random(kind, 5 + seed % 2, 8 + seed % 3, max_cap=3, seed=seed))
    return nets


def _broad_timed():
    """``(instance, timed models)`` pairs of ``_broad_lps``."""
    timed = [(gen_partition(values), models) for values, models in TIMED_PARTITIONS.items()]
    for seed in range(20):
        inst = gen_random(
            "dynamic", 6, 8, max_cap=3, max_tau=2, max_delay=2, horizon=6, gamma=2, seed=seed
        )
        timed.append((inst, ("dpm", "dgm", "dam", "tr")))
    timed.append((gen_ti_gap(), ("tr",)))
    for gamma, alpha in ((1, "3/2"), (2, "2")):
        timed.append((gen_por_dynamic(gamma, rat(alpha))[1], ("tr",)))
    return timed


def _broad_lps():
    for net in _broad_nets():
        catalog = enumerate_subpaths(net)
        for gamma in range(4):
            yield build_pm_lp(net, catalog, gamma)
            yield build_am_lp(net, gamma)
            yield build_gm_lp(net, catalog, gamma)
    for inst, models in _broad_timed():
        catalog = enumerate_subpaths(inst.network)
        for model in models:
            if model == "dam":
                yield build_dam_lp(inst)
            else:
                builder = {"dpm": build_dpm_lp, "dgm": build_dgm_lp, "tr": build_tr_lp}[model]
                yield builder(inst, catalog)


def test_model_lps_start_at_zero():
    # Every model LP is in the simplex's form, so x = 0 is its starting vertex.
    builds = list(_broad_lps())
    builds += [build_gamma1_compact_lp(make()) for make in STATIC_NETS.values()]
    builds += [build_dam_compact_lp(make()) for make in DYNAMIC_INSTANCES.values()]
    for build in builds:
        for con in build.lp.constraints:
            assert in_form(con.rel, con.rhs), (con.label, con.rel, con.rhs)
    assert len(builds) == 692


def test_broad_model_lp_digest():
    digest = hashlib.sha256()
    for build in _broad_lps():
        columns = (build.kind, list(build.flow_vars.items()), build.lam_var)
        nominal = sorted(build.nominal_coeffs.items())
        text = f"{dump_lp(build.lp)}{columns!r}{nominal!r}"
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == BROAD_DIGEST


# One sha256 each over the compact reformulations, recorded before their
# builders were rewritten: ``gm1`` on the static networks of ``_broad_lps``
# and the capacity splits of three fixed bases (as the static benchmark
# solves them), ``dam-compact`` on its timed instances.  Each LP's ``dump_lp``
# text is followed by its kind, flow columns, loss column, objective, nominal
# objective and auxiliary columns, each dict in its insertion order.
SPLIT_BASES = (502, 505, 506)
GM1_DIGEST = "bdbfa569445d63d277dfa0ed1fbc819ef9c5c0466f6f050730e99d61220595ba"
DAM_COMPACT_DIGEST = "d1593fc60867f07c89f0bb0357d085db36d6900bf9c074e4cf04aafcc34ee0cc"


def _compact_digest(builds) -> str:
    digest = hashlib.sha256()
    for build in builds:
        columns = (build.kind, build.flow_vars, build.lam_var, build.lp.objective)
        text = f"{dump_lp(build.lp)}{columns!r}{build.nominal_coeffs!r}{build.aux!r}"
        digest.update(text.encode() + b"\0")
    return digest.hexdigest()


def _gm1_lps():
    nets = _broad_nets()
    nets += [split_capacities(gen_random("dag", 4, 5, max_cap=2, seed=s)) for s in SPLIT_BASES]
    return (build_gamma1_compact_lp(net) for net in nets)


def _dam_compact_lps():
    return (build_dam_compact_lp(inst) for inst, _ in _broad_timed())


def test_gm1_lp_digest():
    assert _compact_digest(_gm1_lps()) == GM1_DIGEST


def test_gm1_writes_no_repeated_row(monkeypatch):
    """Each node's base ``robust`` row is written once, not once per unused failed arc."""
    add_row = LinearProgram.add_row
    dropped = []

    def counting(lp, coeffs, rel, rhs, label=None, lazy=False):
        before = len(lp.constraints)
        add_row(lp, coeffs, rel, rhs, label, lazy)
        if len(lp.constraints) == before:
            dropped.append(label)

    monkeypatch.setattr(LinearProgram, "add_row", counting)
    for seed in SPLIT_BASES:
        build_gamma1_compact_lp(split_capacities(gen_random("dag", 4, 5, max_cap=2, seed=seed)))
    assert dropped == []


def test_dam_compact_lp_digest():
    assert _compact_digest(_dam_compact_lps()) == DAM_COMPACT_DIGEST


# One sha256 over ``repr((status, values, pivots))`` of the plain and then the
# lexicographic solve of every LP of ``_broad_lps``, ``_gm1_lps`` and
# ``_dam_compact_lps``, where ``pivots`` lists the ``(row, column)`` of each
# pivot: 1,540 solves and 14,232 pivots, recorded before the tableau's row
# intake was merged into one routine.
PIVOT_DIGEST = "ee959eed60422de815fab7bc883b2ddd0dd0620bb194b48fe0dd90335174507d"


def test_model_lps_keep_their_pivot_sequence(monkeypatch):
    pivots = []
    pivot = _Simplex._pivot

    def traced(self, r, col):
        pivots.append((r, col))
        pivot(self, r, col)

    monkeypatch.setattr(_Simplex, "_pivot", traced)
    digest = hashlib.sha256()
    for build in (*_broad_lps(), *_gm1_lps(), *_dam_compact_lps()):
        for solve in (solve_lp, lambda lp: lexicographic_solve(lp, build.nominal_coeffs)):
            pivots.clear()
            sol = solve(build.lp)
            digest.update(repr((sol.status, sol.values, pivots)).encode())
    assert digest.hexdigest() == PIVOT_DIGEST


def _row_digest() -> str:
    """sha256 over each row's label, relation, rhs and terms in insertion order."""
    digest = hashlib.sha256()
    for build in (*_broad_lps(), *_gm1_lps(), *_dam_compact_lps()):
        for con in build.lp.constraints:
            digest.update(repr((con.label, con.rel, con.rhs, list(con.coeffs.items()))).encode())
    return digest.hexdigest()


def test_model_lps_do_not_depend_on_the_hash_seed():
    # Set iteration order follows PYTHONHASHSEED for string keys such as arc
    # ids; no builder may let it order a row's terms.
    src = str(Path(robustflow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    code = "import test_lp; print(test_lp._row_digest())"
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert all(run.returncode == 0 for run in runs), [err for _, err in outputs]
    assert outputs[0][0] == outputs[1][0]


def test_checks_raise_under_python_O():
    # The solver's self-checks are explicit raises, so ``python -O`` keeps them.
    code = """
import sys
from fractions import Fraction
from robustflow import LinearProgram
from robustflow.lp import LpCheckError, _verify
assert False, "asserts must be stripped in this interpreter"
lp = LinearProgram()
x = lp.add_var("x")
lp.add_constraint({x: 1}, "<=", 1, label="cap")
try:
    _verify(lp, (2,))
except LpCheckError as exc:
    print("raised:", exc)
# x + y <= 1 at (1/2, 4/7): over D = 14 the left side is 15/14, one 1/D too many.
y = lp.add_var("y")
lp.add_constraint({x: 1, y: 1}, "<=", 1, label="sum")
_verify(lp, (Fraction(1, 2), Fraction(3, 7)))
try:
    _verify(lp, (Fraction(1, 2), Fraction(4, 7)))
except LpCheckError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(robustflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised: solver violated constraint cap",
        "raised: solver violated constraint sum",
    ]


# -- differential test against a floating-point solver -------------------------

# Objectives must agree to this relative tolerance, fixed before any run; the
# exact solver is the authority, HiGHS only a second opinion.
REL_TOL = 1e-9
SMALL = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))
NONNEGATIVE = st.builds(rat, st.integers(0, 3), st.integers(1, 3))
MOSTLY_POSITIVE = st.builds(rat, st.integers(-1, 3), st.integers(1, 3))


@st.composite
def random_lps(draw):
    """Small LPs in the solver's form with rational data.

    ``<=`` rows get a right-hand side >= 0 and ``==`` rows 0.  Equalities are
    sometimes repeated with a copy scaled by k, so the tableau holds dependent
    rows; at k = 1 the copy is an exact repeat, and the LP keeps one row.  Bounds on some columns and a mostly positive objective, as in the
    models, make more of the LPs bounded with an optimum above 0.
    """
    n = draw(st.integers(1, 4))
    lp = LinearProgram()
    for _ in range(n):
        lp.add_var()
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {j: draw(SMALL) for j in range(n) if draw(st.booleans())}
        rel = draw(st.sampled_from(["<=", "<=", "=="]))
        lp.add_constraint(coeffs, rel, draw(NONNEGATIVE) if rel == "<=" else 0)
        if rel == "==" and draw(st.booleans()):
            k = draw(st.integers(1, 3))
            lp.add_constraint({j: k * c for j, c in coeffs.items()}, "==", 0)
    for j in range(n):
        if draw(st.booleans()):
            lp.add_constraint({j: 1}, "<=", draw(st.integers(0, 3)))
    lp.set_objective({j: draw(MOSTLY_POSITIVE) for j in range(n)})
    return lp


def _highs(lp, objective=None):
    """HiGHS's status and maximum of ``lp``'s objective, or of ``objective``, over its rows."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n = lp.n_vars
    c = np.zeros(n)
    for j, v in (lp.objective if objective is None else objective).items():
        c[j] = -float(v)
    parts = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for con in lp.constraints:
        data, rows, cols, rhs = parts["eq" if con.rel == "==" else "ub"]
        for j, v in con.coeffs.items():
            data.append(float(v))
            rows.append(len(rhs))
            cols.append(j)
        rhs.append(float(con.rhs))
    matrices = {
        key: (csr_matrix((data, (rows, cols)), shape=(len(rhs), n)), np.array(rhs))
        if rhs
        else (None, None)
        for key, (data, rows, cols, rhs) in parts.items()
    }
    res = linprog(
        c,
        A_ub=matrices["ub"][0],
        b_ub=matrices["ub"][1],
        A_eq=matrices["eq"][0],
        b_eq=matrices["eq"][1],
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message)
    return status, (-res.fun if res.status == 0 else None)


@given(lp=random_lps())
@settings(deadline=None, max_examples=200, derandomize=True)
def test_statuses_and_optima_agree_with_highs(lp):
    pytest.importorskip("scipy")
    sol = solve_lp(lp)
    status, value = _highs(lp)
    assert sol.status == status
    if status == "optimal":
        exact = float(sol.objective_value)
        assert abs(exact - value) <= REL_TOL * max(1.0, abs(exact))


def _bounded_lps():
    """Seeded LPs of 6-10 columns, each column bounded, so that every one is optimal.

    Most Hypothesis draws of ``random_lps`` are tiny and take no pivot; these
    are large enough that the simplex must pivot to reach the optimum.
    """
    rng = random.Random(18)
    lps = []
    for _ in range(40):
        n = rng.randint(6, 10)
        lp = LinearProgram()
        for _ in range(n):
            lp.add_var()
        for _ in range(rng.randint(3, 8)):
            support = rng.sample(range(n), rng.randint(2, n))
            coeffs = {j: rat(rng.randint(-2, 4), rng.randint(1, 3)) for j in support}
            lp.add_constraint(coeffs, "<=", rat(rng.randint(0, 12), rng.randint(1, 2)))
        if rng.random() < 0.3:
            lp.add_constraint({j: rng.choice((-1, 1)) for j in rng.sample(range(n), 3)}, "==", 0)
        for j in range(n):
            lp.add_constraint({j: 1}, "<=", rng.randint(1, 5))
        lp.set_objective({j: rat(rng.randint(-1, 5), rng.randint(1, 3)) for j in range(n)})
        lps.append(lp)
    return lps


def test_bounded_lps_pivot_and_agree_with_highs(pivot_bound):
    pytest.importorskip("scipy")
    pivots = []
    for lp in _bounded_lps():
        pivot_bound.clear()
        sol = solve_lp(lp)
        pivots.append(len(pivot_bound))
        status, value = _highs(lp)
        assert sol.status == status == "optimal"
        exact = float(sol.objective_value)
        assert abs(exact - value) <= REL_TOL * max(1.0, abs(exact))
    assert sum(1 for k in pivots if k >= 2) >= 0.8 * len(pivots), pivots


def _check_outcome(check, lp, values):
    """``None`` when ``check`` accepts ``values``, else its ``LpCheckError`` message."""
    try:
        check(lp, values)
    except LpCheckError as exc:
        return str(exc)
    return None


POINT = st.one_of(st.integers(-3, 3), st.builds(rat, st.integers(-14, 14), st.integers(1, 7)))


@given(lp=random_lps(), data=st.data())
@settings(deadline=None, max_examples=300, derandomize=True)
def test_integer_verify_matches_row_by_row_oracle(lp, data):
    for i, con in enumerate(lp.constraints):
        con.label = f"r{i}"  # so the message names the first violated row
    points = [data.draw(st.lists(POINT, min_size=lp.n_vars, max_size=lp.n_vars)) for _ in range(3)]
    sol = solve_lp(lp)
    if sol.status == "optimal":
        # The optimum, and the optimum moved by 1/7 in one coordinate.
        points.append(list(sol.values))
        j = data.draw(st.integers(0, lp.n_vars - 1))
        moved = list(sol.values)
        moved[j] += data.draw(st.sampled_from([Fraction(1, 7), Fraction(-1, 7)]))
        points.append(moved)
    for values in points:
        expected = _check_outcome(row_by_row_verify, lp, values)
        assert _check_outcome(_verify, lp, values) == expected, values


# -- the exact presolve ---------------------------------------------------------

# A HiGHS point may break a row by up to HiGHS's primal feasibility tolerance,
# 1e-7, so a column that the presolve proves is 0 may read that much there.
ZERO_TOL = 1e-7
# (LPs where the presolve fixes a column, columns fixed) over ``_broad_lps``.
PRESOLVE_FIRES = (328, 4021)


def _check_presolve_against_highs(lp) -> list:
    """Compare ``lp`` with HiGHS; returns the columns the presolve fixes.

    Status and optimum must agree, and over the rows of ``lp`` HiGHS's
    maximum of the sum of the fixed columns must be 0: one solve per LP.
    """
    sol = solve_lp(lp)
    status, value = _highs(lp)
    assert sol.status == status
    if status == "optimal":
        exact = float(sol.objective_value)
        assert abs(exact - value) <= REL_TOL * max(1.0, abs(exact))
    fixed = [j for j, flag in enumerate(_forced_zero(lp)) if flag]
    if fixed:
        top_status, top = _highs(lp, {j: 1 for j in fixed})
        assert top_status == "optimal" and abs(top) <= ZERO_TOL
    if fixed and status == "optimal":
        assert all(sol.values[j] == 0 for j in fixed)
    return fixed


def test_presolve_on_model_lps_agrees_with_highs():
    pytest.importorskip("scipy")
    fixed = [len(_check_presolve_against_highs(build.lp)) for build in _broad_lps()]
    assert (sum(1 for k in fixed if k), sum(fixed)) == PRESOLVE_FIRES


POSITIVE = st.builds(rat, st.integers(1, 3), st.integers(1, 3))


@st.composite
def forcing_lps(draw):
    """Small LPs built around rows with right-hand side 0, so the presolve fires.

    Each such row has coefficients of the sign its relation makes forcing:
    positive for ``<=``, either for ``==``.  Some also get one entry of the
    other sign, which keeps the row from firing until (or unless) that
    column is fixed by another row.  A few random rows in form, and bounds
    on some columns, follow.
    """
    n = draw(st.integers(1, 5))
    lp = LinearProgram()
    for _ in range(n):
        lp.add_var()
    for _ in range(draw(st.integers(1, 5))):
        rel = draw(st.sampled_from(["<=", "=="]))
        sign = 1 if rel == "<=" else draw(st.sampled_from([1, -1]))
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {j: sign * draw(POSITIVE) for j in cols}
        if draw(st.booleans()):
            coeffs[draw(st.integers(0, n - 1))] = -sign * draw(POSITIVE)
        lp.add_constraint(coeffs, rel, 0)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {j: draw(SMALL) for j in range(n) if draw(st.booleans())}
        rel = draw(st.sampled_from(["<=", "=="]))
        lp.add_constraint(coeffs, rel, draw(NONNEGATIVE) if rel == "<=" else 0)
    for j in range(n):
        if draw(st.booleans()):
            lp.add_constraint({j: 1}, "<=", draw(st.integers(0, 3)))
    lp.set_objective({j: draw(SMALL) for j in range(n)})
    return lp


@given(lp=forcing_lps())
@settings(deadline=None, max_examples=200, derandomize=True)
def test_presolve_statuses_and_optima_agree_with_highs(lp):
    pytest.importorskip("scipy")
    _check_presolve_against_highs(lp)


def _lp(n, rows, objective):
    """An LP over ``n`` variables from ``(coeffs, rel, rhs)`` rows."""
    lp = LinearProgram()
    for j in range(n):
        lp.add_var(f"x{j}")
    for coeffs, rel, rhs in rows:
        lp.add_constraint(coeffs, rel, rhs)
    lp.set_objective(objective)
    return lp


def test_presolve_follows_a_chain_of_forcing_rows():
    # x0 <= 0 forces x0; then x1 - x0 <= 0 has only a positive live entry
    # and forces x1; x2 is bounded by 5 and not fixed.
    rows = [({1: 1, 0: -1}, "<=", 0), ({0: 1}, "<=", 0), ({2: 1}, "<=", 5)]
    lp = _lp(3, rows, {0: 1, 1: 1, 2: 1})
    assert _forced_zero(lp) == [True, True, False]
    sol = solve_lp(lp)
    assert (sol.status, sol.objective_value, sol.values) == ("optimal", 5, (0, 0, 5))


def test_presolve_fixes_all_negative_eq_rows():
    # -x0 - 2 x1 == 0, like x0 + 2 x1 <= 0, holds only at x0 = x1 = 0;
    # -x0 - 2 x1 <= 0 is slack.
    for row in (({0: -1, 1: -2}, "==", 0), ({0: 1, 1: 2}, "<=", 0)):
        lp = _lp(3, [row, ({0: 1, 1: 1, 2: 1}, "<=", 4)], {0: 3, 1: 2, 2: 1})
        assert _forced_zero(lp) == [True, True, False]
        assert solve_lp(lp).values == (0, 0, 4)
    loose = _lp(3, [({0: -1, 1: -2}, "<=", 0), ({0: 1, 1: 1, 2: 1}, "<=", 4)], {0: 3, 1: 2, 2: 1})
    assert _forced_zero(loose) == [False, False, False]
    assert solve_lp(loose).objective_value == 12


def test_a_free_column_blocks_the_presolve():
    # A free z enters as z = x1 - x2. x0 + z <= 0 then allows x0 = -z > 0;
    # z >= -3 is -x1 + x2 <= 3, so x0 = 3 and nothing is fixed.
    lp = _lp(3, [({0: 1, 1: 1, 2: -1}, "<=", 0), ({1: -1, 2: 1}, "<=", 3)], {0: 1})
    assert _forced_zero(lp) == [False, False, False]
    sol = solve_lp(lp)
    assert (sol.objective_value, sol.values) == (3, (3, 0, 3))


def test_a_row_left_without_columns_holds_and_is_dropped():
    # x0 <= 0 fixes x0.  A row x0 <= -1 would be left as 0 <= -1, which the
    # simplex could only drop, so the LP refuses it on the way in.
    lp = _lp(2, [({0: 1}, "<=", 0), ({1: 1}, "<=", 1)], {1: 1})
    with pytest.raises(LpError):
        lp.add_row({0: 1}, "<=", -1, "planted")
    assert _forced_zero(lp) == [True, False]
    assert solve_lp(lp).values == (0, 1)
    # An emptied row in form (0 == 0, 0 <= 1) holds and is dropped.
    rows = [({0: 1}, "<=", 0), ({0: 2}, "==", 0), ({0: 1}, "<=", 1), ({1: 1}, "<=", 1)]
    ok = _lp(2, rows, {1: 1})
    assert _forced_zero(ok) == [True, False]
    assert solve_lp(ok).values == (0, 1)


def test_lexicographic_secondary_over_fixed_columns():
    # x0 - x1 <= 0 and x1 <= 0 fix x0 and x1; x2 <= 2 bounds the primary.
    # The secondary objective rewards the fixed columns, which stay at 0.
    lp = _lp(3, [({0: 1, 1: -1}, "<=", 0), ({1: 1}, "<=", 0), ({2: 1}, "<=", 2)], {2: 1})
    assert _forced_zero(lp) == [True, True, False]
    lex = lexicographic_solve(lp, {0: 5, 1: 1, 2: 1})
    assert (lex.status, lex.primary_value, lex.secondary_value) == ("optimal", 2, 2)
    assert lex.values == (0, 0, 2)
    only_fixed = lexicographic_solve(lp, {0: 1, 1: 1})
    assert (only_fixed.secondary_value, only_fixed.values) == (0, (0, 0, 2))


# -- lazy rows -----------------------------------------------------------------


def _copy(lp, lazy=()):
    """A copy of ``lp`` whose rows ``lazy`` (indices) are lazy and the others eager."""
    copy = LinearProgram()
    for name in lp.var_names:
        copy.add_var(name)
    copy.set_objective(lp.objective)
    for i, con in enumerate(lp.constraints):
        copy.add_row(con.coeffs, con.rel, con.rhs, con.label, lazy=i in lazy)
    return copy


def test_lazy_loss_rows_give_the_eager_optima():
    # The lexicographic solve starts with the plain one, so its status and
    # primary value are the plain solve's.
    lazy = [build for build in _broad_lps() if any(con.lazy for con in build.lp.constraints)]
    assert len(lazy) == 288  # pm, am and gm on the 48 static networks at Gamma = 2, 3
    for build in lazy:
        assert {con.label[:4] for con in build.lp.constraints if con.lazy} == {"loss"}
        got = lexicographic_solve(build.lp, build.nominal_coeffs)
        want = lexicographic_solve(_copy(build.lp), build.nominal_coeffs)
        assert (got.status, got.primary_value, got.secondary_value) == (
            want.status,
            want.primary_value,
            want.secondary_value,
        )


@given(lp=random_lps(), data=st.data())
@settings(deadline=None, max_examples=100, derandomize=True)
def test_lazy_rows_give_the_eager_optimum_and_highs(lp, data):
    pytest.importorskip("scipy")
    rows = range(lp.n_constraints)
    lazy = _copy(lp, {i for i in rows if data.draw(st.booleans())})
    sol, eager = solve_lp(lazy), solve_lp(lp)
    status, value = _highs(lp)
    assert sol.status == eager.status == status
    if status == "optimal":
        assert sol.objective_value == eager.objective_value
        exact = float(sol.objective_value)
        assert abs(exact - value) <= REL_TOL * max(1.0, abs(exact))


def test_the_dual_step_keeps_the_reduced_costs_and_restores_feasibility(monkeypatch, pivot_bound):
    # After each dual simplex step the vertex is feasible and still optimal
    # for the rows in the tableau, so the primal simplex has nothing to do.
    # Every other row of the pivoting LPs is lazy.
    steps = []
    dual = _Simplex._dual

    def checked(self):
        dual(self)
        assert min(self.rhs) >= 0 and max(self.obj.values(), default=0) <= 0
        steps.append(len(self.rows))

    monkeypatch.setattr(_Simplex, "_dual", checked)
    for lp in _bounded_lps():
        pivot_bound.clear()
        lazy = _copy(lp, set(range(0, lp.n_constraints, 2)))
        assert solve_lp(lazy).objective_value == solve_lp(lp).objective_value
    net = gen_bottleneck(2, 1)
    for builder in (build_pm_lp, build_gm_lp):
        build = builder(net, enumerate_subpaths(net), 2)
        pivot_bound.clear()
        lexicographic_solve(build.lp, build.nominal_coeffs)
    assert len(steps) >= 40


def test_the_dual_step_ends_on_many_tied_cuts(pivot_bound):
    # max x0 + ... + x5 - 2 l over x_j <= 1, with a lazy row x_i + x_j <= l
    # per pair, and its double: the first vertex x = 1, l = 0 violates all
    # 30 rows, the 15 of each multiple by the same amount.
    n = 6
    lp = LinearProgram()
    xs = [lp.add_var(f"x{j}") for j in range(n)]
    lam = lp.add_var("l")
    for x in xs:
        lp.add_row({x: 1}, "<=", 1)
    for k in (1, 2):
        for i in range(n):
            for j in range(i + 1, n):
                lp.add_row({xs[i]: k, xs[j]: k, lam: -k}, "<=", 0, lazy=True)
    lp.set_objective({**{x: 1 for x in xs}, lam: -2})
    sol = solve_lp(lp)
    assert (sol.status, sol.objective_value, sol.values) == ("optimal", 2, (1,) * n + (2,))
    assert len(pivot_bound) > n
    # Chvatal's cycling example with its two degenerate rows lazy.
    rows = [
        ({0: rat(1, 2), 1: rat(-11, 2), 2: rat(-5, 2), 3: 9}, "<=", 0),
        ({0: rat(1, 2), 1: rat(-3, 2), 2: rat(-1, 2), 3: 1}, "<=", 0),
        ({0: 1}, "<=", 1),
    ]
    chvatal = _copy(_lp(4, rows, {0: 10, 1: -57, 2: -9, 3: -24}), {0, 1})
    pivot_bound.clear()
    assert solve_lp(chvatal).objective_value == 1


def test_lazy_rows_bound_an_lp_its_eager_rows_leave_unbounded():
    # max x + y over x <= 2, with y <= x lazy: the eager rows leave y
    # unbounded; the full LP has the optimum 4.
    lp = _lp(2, [({0: 1}, "<=", 2)], {0: 1, 1: 1})
    lp.add_row({1: 1, 0: -1}, "<=", 0, "lazy", lazy=True)
    sol = solve_lp(lp)
    assert (sol.status, sol.objective_value, sol.values) == ("optimal", 4, (2, 2))
    # The same in the lexicographic step: max x, then y.
    lp.set_objective({0: 1})
    lex = lexicographic_solve(lp, {1: 1})
    assert (lex.status, lex.primary_value, lex.secondary_value) == ("optimal", 2, 2)
    # Lazy rows that leave the LP unbounded keep it so.
    open_lp = _lp(2, [({0: 1}, "<=", 2)], {0: 1, 1: 1})
    open_lp.add_row({0: 1, 1: -1}, "<=", 0, lazy=True)
    assert solve_lp(open_lp).status == "unbounded"


def test_a_solve_drops_the_repeat_keys_and_add_row_rebuilds_them():
    lp = _lp(2, [({0: 1, 1: 1}, "<=", 3)], {0: 1, 1: 1})
    assert solve_lp(lp).objective_value == 3
    assert lp._seen is None
    lp.add_constraint({1: 1, 0: 1}, "<=", rat(3), label="repeat")
    lp.add_constraint({0: 1}, "<=", 1, label="new")
    assert [con.label for con in lp.constraints] == [None, "new"]
    assert solve_lp(lp).objective_value == 3
