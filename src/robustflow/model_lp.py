"""The model-LP pipeline shared by the static and dynamic models.

Every model is solved the same way: a builder emits the scenario LP into a
:class:`ModelBuild` through :class:`Rows`, :func:`solve_model` solves it
exactly (plainly or lexicographically), turns the optimal values into a flow
and re-derives the flow's value with the model family's LP-free evaluator,
raising :class:`ModelCheckError` when the two disagree.  A plain solve that
comes with a :class:`ZeroCut` skips the simplex: the cut proves the optimum
is 0, and the simplex would then return x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .lp import LinearProgram, LpSolution, _Constraint, in_form, lexicographic_solve, solve_lp
from .network import Network, separates
from .rational import ZERO


class ModelCheckError(AssertionError):
    """A model's result failed one of its exact cross-checks."""


@dataclass
class ModelBuild:
    """An LP plus the meaning of its columns."""

    lp: LinearProgram
    kind: str
    flow_vars: dict
    lam_var: Optional[int] = None
    nominal_coeffs: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ZeroCut:
    """At most ``budget`` arcs of ``net`` whose removal leaves no source-sink path.

    An adversary that removes up to ``budget`` arcs can remove them all, so
    every flow of a model that this cut is given for has robust value 0.  The
    proofs (see :func:`robustflow.static_models.solve_static`) also need a
    sink without outgoing arcs, as in every valid network.
    """

    net: Network
    budget: int
    arcs: tuple

    def check(self) -> None:
        if len(self.arcs) > self.budget:
            raise ModelCheckError(
                f"zero cut has {len(self.arcs)} arcs, over the budget {self.budget}"
            )
        if not separates(self.net, self.arcs):
            raise ModelCheckError(f"zero cut {list(self.arcs)} leaves a source-sink path")
        if self.net.out_arcs(self.net.sink):
            raise ModelCheckError("zero cut given for a network with arcs leaving the sink")


class Rows:
    """Adds constraints with exact-duplicate elimination.

    Builders hand in ``int`` coefficients on the LP's own columns and ``int``
    or ``Fraction`` right-hand sides; they are appended as given (zeros
    dropped) without the input checks of :meth:`LinearProgram.add_constraint`,
    and an ``int`` keys a row like the equal ``Fraction`` would.  Rows with no
    nonzero coefficient, and repeats of a row already added, are skipped.  A
    row out of the LP's one form (:func:`robustflow.lp.in_form`) is caught
    later: the simplex rejects it, and so does :func:`check_zero_start` on
    the path that skips the simplex.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.seen = set()

    def add(self, coeffs: Mapping, rel: str, rhs, label: Optional[str] = None) -> None:
        clean = {j: c for j, c in coeffs.items() if c != 0}
        if not clean:
            return
        key = (rel, rhs, frozenset(clean.items()))
        if key in self.seen:
            return
        self.seen.add(key)
        self.lp.constraints.append(_Constraint(clean, rel, rhs, label))


def scenario_label(scenario) -> str:
    return "{" + ",".join(str(a) for a in scenario) + "}"


def arcs_on(net, routes) -> list:
    """The arcs of any of ``routes``, each once, in the network's arc order."""
    return sorted({a for route in routes for a in route.arcs}, key=lambda a: net.arc_rank[a])


def nonzero(columns: Mapping, values) -> dict:
    """``{key: value}`` of the columns whose LP value is nonzero."""
    return {key: values[col] for key, col in columns.items() if values[col] != 0}


def check_zero_start(lp: LinearProgram) -> None:
    """Raise unless x = 0 is the simplex's starting vertex of ``lp``.

    That holds when every row is in the one form the simplex takes
    (:func:`robustflow.lp.in_form`): then the all-slack basis is feasible at
    x = 0.
    """
    for con in lp.constraints:
        if not in_form(con.rel, con.rhs):
            raise ModelCheckError(
                f"x = 0 is not the starting vertex: row {con.label} is {con.rel} {con.rhs}"
            )


def solve_model(build: ModelBuild, maximize_nominal: bool, extract, evaluate, zero_cut=None):
    """Solve ``build.lp`` and cross-check the result; returns ``(flow, report)``.

    With ``maximize_nominal`` the nominal objective ``build.nominal_coeffs``
    is maximized among the robust optima.  ``extract`` turns the LP values
    into a flow and ``evaluate`` re-derives its report independently; the
    report's robust (and, lexicographically, nominal) value must equal the
    LP's.

    The simplex returns ``optimal`` or ``unbounded``; an unbounded model LP
    raises :class:`ModelCheckError`.  A plain solve given a
    :class:`ZeroCut` (which must prove that the LP optimum is 0) does not run
    the simplex.  In its place it checks the rows' form, which makes x = 0
    the simplex's starting vertex (:func:`check_zero_start`), and re-checks
    the cut.  The simplex enters only columns with a positive reduced cost,
    so a pivot that moved off x = 0 would raise the objective above the
    optimum; every pivot is degenerate, whichever column it enters, and the
    simplex would return exactly x = 0.  That vector goes through the same
    ``extract`` and ``evaluate``.
    """
    if maximize_nominal:
        sol = lexicographic_solve(build.lp, build.nominal_coeffs)
        objective = sol.primary_value
    elif zero_cut is not None:
        check_zero_start(build.lp)
        zero_cut.check()
        sol = LpSolution("optimal", ZERO, (ZERO,) * build.lp.n_vars)
        objective = ZERO
    else:
        sol = solve_lp(build.lp)
        objective = sol.objective_value
    if sol.status != "optimal":
        raise ModelCheckError(f"model LP came back {sol.status}")
    flow = extract(sol.values)
    report = evaluate(flow)
    if report.robust_value != objective:
        raise ModelCheckError(
            f"evaluator disagrees with the LP: {report.robust_value} != {objective}"
        )
    if maximize_nominal and report.nominal_value != sol.secondary_value:
        raise ModelCheckError("nominal value mismatch")
    return flow, report
