"""Exact-rational simplex: optima, statuses, degeneracy, lexicographic mode."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import robustflow
from robustflow import (
    LinearProgram,
    LpError,
    build_dam_compact_lp,
    build_gm_lp,
    build_pm_lp,
    enumerate_subpaths,
    format_rational,
    gen_bottleneck,
    gen_partition,
    gen_por_static,
    gen_random,
    lexicographic_solve,
    rat,
    solve_lp,
)
from robustflow.lp import dump_lp


def test_small_max_lp():
    lp = LinearProgram("max")
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: 1, y: 2}, "<=", 14)
    lp.add_constraint({x: 3, y: -1}, ">=", 0)
    lp.add_constraint({x: 1, y: -1}, "<=", 2)
    lp.set_objective({x: 3, y: 4})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 34
    assert sol.values[x] == 6 and sol.values[y] == 4


def test_rational_coefficients_solve_exactly():
    lp = LinearProgram("max")
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
    lp = LinearProgram("min")
    z = lp.add_var("z", free=True)
    lp.add_constraint({z: 1}, ">=", -5)
    lp.set_objective({z: 1})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == -5
    assert sol.values[z] == -5


def test_equality_constraints():
    lp = LinearProgram("max")
    x = lp.add_var()
    y = lp.add_var()
    lp.add_constraint({x: 1, y: 1}, "==", 4)
    lp.add_constraint({x: 1}, "<=", 1)
    lp.set_objective({x: 2, y: 1})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 5
    assert sol.values[x] == 1 and sol.values[y] == 3


def test_infeasible_detected():
    lp = LinearProgram("max")
    x = lp.add_var()
    lp.add_constraint({x: 1}, "<=", 1)
    lp.add_constraint({x: 1}, ">=", 2)
    lp.set_objective({x: 1})
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.objective_value is None


def test_unbounded_detected():
    lp = LinearProgram("max")
    x = lp.add_var()
    y = lp.add_var()
    lp.add_constraint({x: 1, y: -1}, "<=", 1)
    lp.set_objective({x: 1})
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate on it.
    lp = LinearProgram("min")
    x1, x2, x3, x4 = (lp.add_var() for _ in range(4))
    lp.add_constraint({x1: rat(1, 4), x2: -60, x3: rat(-1, 25), x4: 9}, "<=", 0)
    lp.add_constraint({x1: rat(1, 2), x2: -90, x3: rat(-1, 50), x4: 3}, "<=", 0)
    lp.add_constraint({x3: 1}, "<=", 1)
    lp.set_objective({x1: rat(-3, 4), x2: 150, x3: rat(-1, 50), x4: 6})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == rat(-1, 20)
    assert sol.values[x1] == rat(1, 25) and sol.values[x3] == 1


def test_zero_variable_lp():
    lp = LinearProgram("max")
    lp.set_objective({})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 0


def test_bad_inputs_raise():
    with pytest.raises(LpError):
        LinearProgram("maximize")
    lp = LinearProgram("max")
    lp.add_var("x")
    with pytest.raises(LpError):
        lp.add_constraint({3: 1}, "<=", 1)
    with pytest.raises(LpError):
        lp.add_constraint({0: 1}, "=<", 1)
    with pytest.raises(LpError):
        lp.set_objective({5: 1})


def test_lexicographic_secondary_optimum():
    # Primary: maximize a+b on a+b<=10 (a whole edge is optimal).
    # Secondary: maximize a among those optima -> the (10, 0) vertex.
    lp = LinearProgram("max")
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
    lp = LinearProgram("max")
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
    lp = LinearProgram("max")
    x = lp.add_var("flow")
    lp.add_constraint({x: 1}, "<=", rat(3, 2), label="cap")
    lp.set_objective({x: 1})
    text = dump_lp(lp)
    assert "flow" in text and "3/2" in text and "cap" in text


# Vertices returned by Bland's rule on degenerate model LPs, as recorded from
# the dense rational tableau: (LP, lexicographic?, optimum, digest of the
# values).  A change to the pivot rule that changes the returned flow fails
# here.
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
    "bottleneck(2,2) gm": (lambda: _bottleneck_lp(build_gm_lp), False, "10", "26441fcdec8a7b95"),
    "bottleneck(2,2) pm": (lambda: _bottleneck_lp(build_pm_lp), False, "4", "0427431ceedcad60"),
    "unit-dag 307 gm": (_unit_dag_gm_lp, False, "0", "fc96d4f8d87d03d9"),
    "partition(2,2,4) dam-compact": (
        lambda: build_dam_compact_lp(gen_partition((2, 2, 4))), False, "0", "96009c799e69c10c"
    ),
    "por-static(2,6/5) gm lex": (lambda: _por_static_lp(build_gm_lp), True, "1/2", "e14a667d799ae4c3"),
    "por-static(2,6/5) pm lex": (lambda: _por_static_lp(build_pm_lp), True, "1/2", "3f5f3fb989eae3ee"),
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


def test_checks_raise_under_python_O():
    # The solver's self-checks are explicit raises, so ``python -O`` keeps them.
    code = """
import sys
from robustflow import LinearProgram
from robustflow.lp import LpCheckError, _verify
assert False, "asserts must be stripped in this interpreter"
lp = LinearProgram("max")
x = lp.add_var("x")
lp.add_constraint({x: 1}, "<=", 1, label="cap")
try:
    _verify(lp, (2,))
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
    assert "raised: solver violated constraint cap" in done.stdout


# -- differential test against a floating-point solver -------------------------

# Objectives must agree to this relative tolerance, fixed before any run; the
# exact solver is the authority, HiGHS only a second opinion.
REL_TOL = 1e-9
SMALL = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def random_lps(draw):
    """Small LPs with all three relations, free variables and rational data.

    With ``planted`` the right-hand sides are set from a point, so the LP is
    feasible; equalities are sometimes repeated with a scaled copy, which
    makes phase 1 drive degenerate artificials out of the basis.
    """
    n = draw(st.integers(1, 4))
    lp = LinearProgram(draw(st.sampled_from(["max", "min"])))
    for _ in range(n):
        lp.add_var(free=draw(st.booleans()))
    point = [draw(SMALL) for _ in range(n)]
    planted = draw(st.booleans())
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {j: draw(SMALL) for j in range(n) if draw(st.booleans())}
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        if planted:
            at = sum((c * point[j] for j, c in coeffs.items()), rat(0))
            gap = draw(st.integers(0, 2))
            rhs = at + gap if rel == "<=" else at - gap if rel == ">=" else at
        else:
            rhs = draw(SMALL)
        lp.add_constraint(coeffs, rel, rhs)
        if rel == "==" and draw(st.booleans()):
            k = draw(st.integers(1, 3))
            lp.add_constraint({j: k * c for j, c in coeffs.items()}, "==", k * rhs)
    lp.set_objective({j: draw(SMALL) for j in range(n)})
    return lp


def _highs(lp):
    import numpy as np
    from scipy.optimize import linprog

    n = lp.n_vars
    sign = -1.0 if lp.sense == "max" else 1.0
    c = np.zeros(n)
    for j, v in lp.objective.items():
        c[j] = sign * float(v)
    ub, b_ub, eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.zeros(n)
        for j, v in con.coeffs.items():
            row[j] = float(v)
        if con.rel == "==":
            eq.append(row)
            b_eq.append(float(con.rhs))
        elif con.rel == "<=":
            ub.append(row)
            b_ub.append(float(con.rhs))
        else:
            ub.append(-row)
            b_ub.append(-float(con.rhs))
    res = linprog(
        c,
        A_ub=np.array(ub) if ub else None,
        b_ub=np.array(b_ub) if ub else None,
        A_eq=np.array(eq) if eq else None,
        b_eq=np.array(b_eq) if eq else None,
        bounds=[(None, None) if lp.free[j] else (0, None) for j in range(n)],
        method="highs",
        options={"presolve": False},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message)
    return status, (sign * res.fun if res.status == 0 else None)


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
