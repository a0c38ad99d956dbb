"""The model-LP pipeline shared by the static and dynamic models.

Every model LP is solved the same way: a builder emits the scenario LP into a
:class:`ModelBuild` through :class:`Rows`, :func:`solve_model` solves it
exactly (plainly or lexicographically), turns the optimal values into a flow
and re-derives the flow's value with the model family's LP-free evaluator,
raising :class:`ModelCheckError` when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .lp import LinearProgram, _Constraint, lexicographic_solve, solve_lp


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


class Rows:
    """Adds constraints with exact-duplicate elimination.

    Builders hand in ``int`` coefficients on the LP's own columns and ``int``
    or ``Fraction`` right-hand sides; they are appended as given (zeros
    dropped) without the input checks of :meth:`LinearProgram.add_constraint`,
    and an ``int`` keys a row like the equal ``Fraction`` would.  Rows with no
    nonzero coefficient, and repeats of a row already added, are skipped.  A
    row out of the LP's one form (:func:`robustflow.lp.in_form`) is caught
    later, by the simplex.
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


def solve_model(build: ModelBuild, maximize_nominal: bool, extract, evaluate):
    """Solve ``build.lp`` and cross-check the result; returns ``(flow, report)``.

    With ``maximize_nominal`` the nominal objective ``build.nominal_coeffs``
    is maximized among the robust optima.  ``extract`` turns the LP values
    into a flow and ``evaluate`` re-derives its report independently; the
    report's robust (and, lexicographically, nominal) value must equal the
    LP's.

    The simplex returns ``optimal`` or ``unbounded``; an unbounded model LP
    raises :class:`ModelCheckError`.
    """
    if maximize_nominal:
        sol = lexicographic_solve(build.lp, build.nominal_coeffs)
        objective = sol.primary_value
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
