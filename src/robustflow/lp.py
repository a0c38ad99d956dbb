"""Exact-arithmetic linear programming.

A deliberately small LP toolkit: nonnegative (or free) variables, three
relation kinds, one objective, and a two-phase primal simplex with Bland's
rule.  The tableau is sparse and integer: each row is a ``{column: int}``
dict whose rational value is the row divided by its basic entry, as in
integer-preserving elimination (Bareiss) and the integer pivoting of lrs.
There is no floating point anywhere, no tolerance knobs, and statuses are
decided exactly: ``optimal``, ``infeasible`` or ``unbounded``.  Values are
returned as backend rationals (``rat``).

Every optimum is re-checked against the constraints before it is returned;
a failed check raises :class:`LpCheckError`, also under ``python -O``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .rational import ONE, ZERO, rat

KERNEL = "sparse-int"

_RELATIONS = ("<=", ">=", "==")


class LpError(ValueError):
    """Malformed LP input."""


class LpCheckError(AssertionError):
    """The solver's result failed one of its own exact checks."""


@dataclass
class _Constraint:
    coeffs: dict
    rel: str
    rhs: object
    label: Optional[str]


class LinearProgram:
    """LP container; variables are nonnegative unless declared free."""

    def __init__(self, sense: str = "max") -> None:
        if sense not in ("max", "min"):
            raise LpError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.var_names: list = []
        self.free: list = []
        self.objective: dict = {}
        self.constraints: list = []

    def add_var(self, name: Optional[str] = None, *, free: bool = False) -> int:
        idx = len(self.var_names)
        self.var_names.append(name if name is not None else f"x{idx}")
        self.free.append(bool(free))
        return idx

    def set_objective(self, coeffs: Mapping) -> None:
        self.objective = {j: rat(c) for j, c in coeffs.items() if rat(c) != 0}
        self._check_indices(self.objective)

    def add_constraint(
        self, coeffs: Mapping, rel: str, rhs, label: Optional[str] = None
    ) -> int:
        if rel not in _RELATIONS:
            raise LpError(f"relation must be one of {_RELATIONS}, got {rel!r}")
        clean = {j: rat(c) for j, c in coeffs.items() if rat(c) != 0}
        self._check_indices(clean)
        self.constraints.append(_Constraint(clean, rel, rat(rhs), label))
        return len(self.constraints) - 1

    def _check_indices(self, coeffs: Mapping) -> None:
        for j in coeffs:
            if not isinstance(j, int) or not 0 <= j < len(self.var_names):
                raise LpError(f"unknown variable index {j!r}")

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective_value: Optional[object]
    values: tuple


@dataclass(frozen=True)
class LexSolution:
    status: str
    primary_value: Optional[object]
    secondary_value: Optional[object]
    values: tuple


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text rendering of the LP, mainly for debugging and goldens."""

    def term(j, c, first):
        name = lp.var_names[j]
        sign = "-" if c < 0 else ("" if first else "+")
        mag = abs(c)
        coef = "" if mag == 1 else f"{mag} "
        return f"{sign}{' ' if sign and not first else ''}{coef}{name}".strip()

    def linear(coeffs):
        if not coeffs:
            return "0"
        parts = []
        for k, j in enumerate(sorted(coeffs)):
            parts.append(term(j, coeffs[j], k == 0))
        return " ".join(parts)

    lines = [f"{lp.sense}: {linear(lp.objective)}", "subject to:"]
    for i, con in enumerate(lp.constraints):
        tag = f" [{con.label}]" if con.label else ""
        lines.append(f"  c{i}{tag}: {linear(con.coeffs)} {con.rel} {con.rhs}")
    frees = [lp.var_names[j] for j in range(lp.n_vars) if lp.free[j]]
    lines.append(f"free: {', '.join(frees) if frees else '(none)'}")
    return "\n".join(lines) + "\n"


def _normalize(row: dict, rhs: int) -> int:
    """Divide ``row`` in place, and ``rhs``, by their gcd; returns the new ``rhs``."""
    g = gcd(rhs, *row.values())
    if g > 1:
        for j in row:
            row[j] //= g
        rhs //= g
    return rhs


def _integer_row(coeffs: Mapping, rhs) -> tuple:
    """The primitive integer multiple ``(row, rhs)`` of a rational row."""
    den = lcm(int(rhs.denominator), *(int(c.denominator) for c in coeffs.values()))
    row = {j: int(c.numerator) * (den // int(c.denominator)) for j, c in coeffs.items()}
    return row, _normalize(row, int(rhs.numerator) * (den // int(rhs.denominator)))


def _cancel(row: dict, rhs: int, prow: dict, prhs: int, col: int, colrows=None, i=None) -> int:
    """Zero ``row[col]`` by adding a multiple of ``prow``, whose ``col`` entry is positive.

    ``row`` is first scaled by a positive integer, so the sign of every
    multiple it stands for is kept; the result is primitive.  When
    ``colrows`` is given, row ``i``'s entries in it are kept current.
    Returns the new right-hand side.
    """
    piv = prow[col]
    e = row[col]
    g = gcd(piv, e)
    k, f = piv // g, e // g
    if k != 1:
        for j in row:
            row[j] *= k
        rhs *= k
    get = row.get
    for j, v in prow.items():
        w = get(j)
        if w is None:
            row[j] = -f * v
            if colrows is not None:
                colrows[j].add(i)
        else:
            w -= f * v
            if w:
                row[j] = w
            else:
                del row[j]
                if colrows is not None:
                    colrows[j].discard(i)
    return _normalize(row, rhs - f * prhs)


class _Simplex:
    """Two-phase primal simplex with Bland's rule on sparse integer rows.

    Columns are the structural ones (a free variable takes two), one slack
    per ``<=`` row (an equality is split into two ``<=`` rows), then one
    artificial per row with a negative right-hand side, then one slack per
    pin row.  Row ``i`` is a dict ``{column: int}`` with the integer
    right-hand side ``rhs[i]``; it stands for the rational tableau row
    obtained by dividing by its basic entry ``rows[i][basis[i]]``, which is
    kept positive.  Every row is kept primitive (divided by the gcd of its
    entries), so each rational row has one integer form.  The objective row
    is a positive integer multiple of the reduced costs: only its signs are
    read.  ``colrows`` maps each column to the rows where it is nonzero, so
    a pivot touches only those rows.

    An artificial column is stored only as the basic entry of its own row
    and is dropped when it leaves the basis, so it can never enter.  The
    entering column is the smallest one with a positive reduced cost and the
    ratio test breaks ties on the smallest basic column, the same pivots as
    on a dense rational tableau.

    Kept as an object so a solved tableau can be extended with pin rows and
    re-optimized for lexicographic objectives without a cold restart.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        # Structural columns: free variables are split into two parts.
        self.col_pos: list = []
        self.col_neg: list = []
        n = 0
        for j in range(lp.n_vars):
            self.col_pos.append(n)
            n += 1
            if lp.free[j]:
                self.col_neg.append(n)
                n += 1
            else:
                self.col_neg.append(None)
        # Constraints in <= form (equalities become two rows).
        halves = []
        for con in lp.constraints:
            coeffs = self._columns(con.coeffs)
            if con.rel in ("<=", "=="):
                halves.append((coeffs, con.rhs))
            if con.rel in (">=", "=="):
                halves.append(({j: -c for j, c in coeffs.items()}, -con.rhs))
        self.ncols = n + len(halves)
        self.artificial: set = set()
        self.rows: list = []
        self.rhs: list = []
        self.basis: list = []
        self.colrows = defaultdict(set)
        self.obj: dict = {}
        for i, (coeffs, b) in enumerate(halves):
            coeffs[n + i] = ONE
            basic = n + i
            if b < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                b = -b
                basic = self.ncols
                self.ncols += 1
                coeffs[basic] = ONE
                self.artificial.add(basic)
            self._add_row(*_integer_row(coeffs, b), basic)

    def _columns(self, coeffs: Mapping, sign: int = 1) -> dict:
        """Rational column coefficients of a linear form over the LP's variables."""
        out = {}
        for j, c in coeffs.items():
            c = sign * rat(c)
            if c:
                out[self.col_pos[j]] = c
                if self.col_neg[j] is not None:
                    out[self.col_neg[j]] = -c
        return out

    def _add_row(self, row: dict, rhs: int, basic: int) -> None:
        i = len(self.rows)
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)
        for j in row:
            self.colrows[j].add(i)

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, col: int) -> None:
        prow = self.rows[r]
        leaving = self.basis[r]
        if leaving in self.artificial:
            del prow[leaving]
            self.colrows[leaving].discard(r)
        prhs = self.rhs[r]
        if prow[col] < 0:
            for j in prow:
                prow[j] = -prow[j]
            prhs = -prhs
        self.rhs[r] = prhs = _normalize(prow, prhs)
        for i in list(self.colrows[col]):
            if i != r:
                self.rhs[i] = _cancel(self.rows[i], self.rhs[i], prow, prhs, col, self.colrows, i)
        if col in self.obj:
            _cancel(self.obj, 0, prow, prhs, col)
        self.basis[r] = col

    def _run(self) -> str:
        rows, rhs, basis, obj = self.rows, self.rhs, self.basis, self.obj
        while True:
            col = min((j for j, v in obj.items() if v > 0), default=-1)
            if col < 0:
                return "optimal"
            # Ratio test: the smallest rhs[i] / rows[i][col] over positive
            # entries, compared by cross-multiplication; ties go to the
            # smallest basic column.
            best = -1
            for i in self.colrows[col]:
                a = rows[i][col]
                if a > 0:
                    if best < 0:
                        best, num, den = i, rhs[i], a
                        continue
                    lhs, rhs_best = rhs[i] * den, num * a
                    if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[best]):
                        best, num, den = i, rhs[i], a
            if best < 0:
                return "unbounded"
            self._pivot(best, col)

    def _set_objective(self, coeffs: Mapping) -> None:
        """Reduced-cost row of ``coeffs`` (a column -> rational map) at the current basis."""
        obj, _ = _integer_row(coeffs, ZERO)
        for i, b in enumerate(self.basis):
            if b in obj:
                _cancel(obj, 0, self.rows[i], self.rhs[i], b)
        self.obj = obj

    # -- phases -----------------------------------------------------------

    def _phase1(self) -> bool:
        """Returns True when a feasible basis was reached."""
        if not self.artificial:
            return True
        self._set_objective({a: -ONE for a in self.artificial})
        if self._run() != "optimal":
            raise LpCheckError("phase 1 cannot be unbounded")
        if any(self.rhs[i] for i, b in enumerate(self.basis) if b in self.artificial):
            return False
        # Drive leftover artificials (all at value 0) out of the basis.  Every
        # row has a nonzero slack entry (its slack part is, up to signs, a
        # row of the inverse basis), so there is always a column to pivot on
        # and no row is ever redundant, even with duplicated equalities.
        for i in range(len(self.rows)):
            if self.basis[i] in self.artificial:
                self._pivot(i, min(j for j in self.rows[i] if j != self.basis[i]))
        return True

    def _phase2(self, coeffs: Mapping) -> str:
        self._set_objective(self._columns(coeffs, 1 if self.lp.sense == "max" else -1))
        return self._run()

    # -- results ----------------------------------------------------------

    def var_values(self) -> tuple:
        cols = {b: rat(self.rhs[i], self.rows[i][b]) for i, b in enumerate(self.basis)}
        out = []
        for j in range(self.lp.n_vars):
            v = cols.get(self.col_pos[j], ZERO)
            if self.col_neg[j] is not None:
                v = v - cols.get(self.col_neg[j], ZERO)
            out.append(v)
        return tuple(out)

    def objective_of(self, coeffs: Mapping, values: Sequence) -> object:
        return sum((rat(c) * values[j] for j, c in coeffs.items()), ZERO)

    # -- lexicographic continuation ----------------------------------------

    def pin_objective(self, coeffs: Mapping, value) -> None:
        """Add rows fixing ``coeffs . x == value``; the current vertex stays basic."""
        for sign in (1, -1):
            slack = self.ncols
            self.ncols += 1
            pin = self._columns(coeffs, sign)
            pin[slack] = ONE
            row, rhs = _integer_row(pin, sign * rat(value))
            for i, b in enumerate(self.basis):
                if b in row:
                    rhs = _cancel(row, rhs, self.rows[i], self.rhs[i], b)
            if rhs != 0:
                raise LpCheckError("pin row must be tight at the solved vertex")
            self._add_row(row, rhs, slack)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly; statuses are ``optimal``/``infeasible``/``unbounded``."""
    simplex = _Simplex(lp)
    solution, _ = _solve_with(simplex)
    return solution


def _solve_with(simplex: _Simplex):
    lp = simplex.lp
    if not simplex._phase1():
        return LpSolution("infeasible", None, ()), simplex
    status = simplex._phase2(lp.objective)
    if status == "unbounded":
        return LpSolution("unbounded", None, ()), simplex
    values = simplex.var_values()
    _verify(lp, values)
    return LpSolution("optimal", simplex.objective_of(lp.objective, values), values), simplex


def _verify(lp: LinearProgram, values: Sequence) -> None:
    for j in range(lp.n_vars):
        if not (lp.free[j] or values[j] >= 0):
            raise LpCheckError("solver produced a negative variable")
    for con in lp.constraints:
        lhs = sum((c * values[j] for j, c in con.coeffs.items()), ZERO)
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            raise LpCheckError(f"solver violated constraint {con.label or ''}")


def lexicographic_solve(lp: LinearProgram, secondary: Mapping) -> LexSolution:
    """Optimize ``lp``'s objective, then ``secondary`` among its optima.

    Both objectives share ``lp.sense``.  The follow-up solve warm-continues
    from the optimal tableau with the primary objective pinned to its value.
    """
    first, simplex = _solve_with(_Simplex(lp))
    if first.status != "optimal":
        return LexSolution(first.status, None, None, ())
    simplex.pin_objective(lp.objective, first.objective_value)
    status = simplex._phase2(secondary)
    if status == "unbounded":
        return LexSolution("unbounded", first.objective_value, None, ())
    values = simplex.var_values()
    _verify(lp, values)
    primary = simplex.objective_of(lp.objective, values)
    if primary != first.objective_value:
        raise LpCheckError("lexicographic step moved the primary objective")
    return LexSolution("optimal", primary, simplex.objective_of(secondary, values), values)
