"""Exact-arithmetic linear programming.

A deliberately small LP toolkit: nonnegative (or free) variables, three
relation kinds, one objective, and a two-phase primal simplex that enters
the largest reduced cost (Dantzig) and falls back to Bland's rule when a
basis repeats during a run of degenerate pivots.  The tableau is sparse
and integer: each row is a ``{column: int}`` dict whose rational value is
the row divided by its basic entry, as in integer-preserving elimination
(Bareiss) and the integer pivoting of lrs.
There is no floating point anywhere, no tolerance knobs, and statuses are
decided exactly: ``optimal``, ``infeasible`` or ``unbounded``.

Input contract: every coefficient and right-hand side is an ``int`` or a
``fractions.Fraction``; anything else raises :class:`LpError`.  The LP keeps
the values it is given (only zeros are dropped) and :func:`_integer_row`
turns each row into integers once, on its way into the tableau.  Values are
returned as ``Fraction``s.

An exact presolve (:func:`_forced_zero`, after Brearley, Mitra & Williams,
1975) fixes columns at 0 before the simplex.  A forcing row has right-hand
side 0, no free column, and live coefficients of one sign: positive for
``<=``, negative for ``>=``, either for ``==``.  Nonnegative terms of one
sign sum to 0 only if each is 0, so its columns are 0 at every feasible
point; fixing them can make another row forcing, up to a fixpoint.

Every optimum is re-checked against every row of the original LP, fixed
columns included, before it is returned, in integers: the values are put
over one common denominator and each row compares integer sums
(:func:`_verify`).  A failed check raises :class:`LpCheckError`, also under
``python -O``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .rational import ZERO, common_denominator, rat

KERNEL = "sparse-int"

_RELATIONS = ("<=", ">=", "==")


class LpError(ValueError):
    """Malformed LP input."""


class LpCheckError(AssertionError):
    """The solver's result failed one of its own exact checks."""


def _exact(value):
    """``value`` itself when it is an ``int`` or a ``Fraction``; else :class:`LpError`."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise LpError(f"LP data must be int or Fraction, got {value!r}")


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
        self.objective = self._clean(coeffs)

    def add_constraint(
        self, coeffs: Mapping, rel: str, rhs, label: Optional[str] = None
    ) -> int:
        if rel not in _RELATIONS:
            raise LpError(f"relation must be one of {_RELATIONS}, got {rel!r}")
        self.constraints.append(_Constraint(self._clean(coeffs), rel, _exact(rhs), label))
        return len(self.constraints) - 1

    def _clean(self, coeffs: Mapping) -> dict:
        """The nonzero entries of ``coeffs``, checked, with their values as given."""
        for j in coeffs:
            if not isinstance(j, int) or not 0 <= j < len(self.var_names):
                raise LpError(f"unknown variable index {j!r}")
        return {j: c for j, c in coeffs.items() if _exact(c) != 0}

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
    """The primitive integer multiple ``(row, rhs)`` of a row of ints and Fractions.

    This is the one place where LP data is converted: into the tableau.
    """
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    row = {j: c.numerator * (den // c.denominator) for j, c in coeffs.items()}
    return row, _normalize(row, rhs.numerator * (den // rhs.denominator))


def _cancel(row: dict, rhs: int, prow: dict, prhs: int, col: int) -> int:
    """Zero ``row[col]`` by adding a multiple of ``prow``, whose ``col`` entry is positive.

    ``row`` is first scaled by a positive integer, so the sign of every
    multiple it stands for is kept; the result is primitive.  Returns the
    new right-hand side.
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
        else:
            w -= f * v
            if w:
                row[j] = w
            else:
                del row[j]
    return _normalize(row, rhs - f * prhs)


def _holds(lhs, rel: str, rhs) -> bool:
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _forced_zero(lp: LinearProgram) -> list:
    """Flags of the variables that forcing rows (module docstring) fix at 0, to a fixpoint.

    Per-row counts of live positive and negative entries, kept through a
    column-to-rows index, reach it in O(nonzeros); each row fires at most once.
    """
    fixed = [False] * lp.n_vars
    rows = lp.constraints
    free = lp.free if any(lp.free) else None
    live = {}  # row -> [live positive entries, live negative entries]
    rows_of = defaultdict(list)
    for i, con in enumerate(rows):
        if con.rhs == 0 and not (free and any(free[j] for j in con.coeffs)):
            neg = sum(1 for c in con.coeffs.values() if c < 0)
            live[i] = [len(con.coeffs) - neg, neg]
            for j in con.coeffs:
                rows_of[j].append(i)

    def forcing(i):
        pos, neg = live[i]
        rel = rows[i].rel
        return neg == 0 if rel == "<=" else pos == 0 if rel == ">=" else pos == 0 or neg == 0

    ready = [i for i in live if forcing(i)]
    fired = set(ready)
    while ready:
        for j in rows[ready.pop()].coeffs:
            if not fixed[j]:
                fixed[j] = True
                for k in rows_of[j]:
                    live[k][rows[k].coeffs[j] < 0] -= 1
                    if k not in fired and forcing(k):
                        fired.add(k)
                        ready.append(k)
    return fixed


class _Simplex:
    """Two-phase primal simplex on sparse integer rows: Dantzig's rule, Bland's on a repeat.

    The tableau is the presolved LP.  A forcing row (right-hand side 0, no
    free column, live coefficients of the one sign its relation allows) fixes
    its columns at 0, as nonnegative terms of one sign sum to 0 only if each
    is 0.  Fixed columns get no tableau column and read 0; a row left with no
    column is dropped if ``0 rel rhs`` holds and kept otherwise.
    :func:`_verify` still checks every optimum against the original LP.

    Columns are the structural ones (a free variable takes two), one slack
    per ``<=`` row (an equality is split into two ``<=`` rows), then one
    artificial per row with a negative right-hand side, then one slack per
    pin row.  Row ``i`` is a dict ``{column: int}`` with the integer
    right-hand side ``rhs[i]``; it stands for the rational tableau row
    obtained by dividing by its basic entry ``rows[i][basis[i]]``, which is
    kept positive.  Every row is kept primitive (divided by the gcd of its
    entries), so each rational row has one integer form.  The objective row
    is a positive integer multiple of the reduced costs, so its largest
    entry marks the largest reduced cost.  A pivot scans ``rows`` once for
    the rows that hold the entering column.

    An artificial column is stored only as the basic entry of its own row
    and is dropped when it leaves the basis, so it can never enter.  The
    entering column has the largest reduced cost, the smallest such column
    on ties, and the ratio test breaks ties on the smallest basic column:
    the same pivots as on a dense rational tableau of the presolved LP.

    Dantzig's rule can cycle on degenerate pivots, so each run of them keeps
    the hash of every basis it reaches.  On the first repeat, the entering
    column is the smallest one with a positive reduced cost (Bland, 1977)
    until the next nondegenerate pivot, which clears the hashes and restores
    Dantzig's rule.  The loop ends: a run either reaches no basis twice, or
    Bland's rule takes over, and it never cycles; a nondegenerate pivot
    raises the objective, so no earlier basis returns.  A hash collision
    only starts Bland's rule early.  Only the hashes are kept, one int per
    pivot, not the bases.

    Kept as an object so a solved tableau can be extended with a pin row and
    re-optimized for lexicographic objectives without a cold restart.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        # Structural columns: free variables are split into two parts; a fixed
        # variable (never a free one) gets none.
        self.col_pos: list = []
        self.col_neg: list = []
        n = 0
        for j, fixed in enumerate(_forced_zero(lp)):
            self.col_pos.append(None if fixed else n)
            if not fixed:
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
            if not coeffs and _holds(0, con.rel, con.rhs):
                continue
            if con.rel in ("<=", "=="):
                halves.append((coeffs, con.rhs))
            if con.rel in (">=", "=="):
                halves.append(({j: -c for j, c in coeffs.items()}, -con.rhs))
        self.ncols = n + len(halves)
        self.artificial: set = set()
        self.rows: list = []
        self.rhs: list = []
        self.basis: list = []
        self.obj: dict = {}
        for i, (coeffs, b) in enumerate(halves):
            coeffs[n + i] = 1
            basic = n + i
            if b < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                b = -b
                basic = self.ncols
                self.ncols += 1
                coeffs[basic] = 1
                self.artificial.add(basic)
            self._add_row(*_integer_row(coeffs, b), basic)

    def _columns(self, coeffs: Mapping, sign: int = 1) -> dict:
        """Column coefficients of a (zero-free) linear form over the LP's variables."""
        out = {}
        for j, c in coeffs.items():
            if self.col_pos[j] is not None:
                out[self.col_pos[j]] = sign * c
            if self.col_neg[j] is not None:
                out[self.col_neg[j]] = -sign * c
        return out

    def _add_row(self, row: dict, rhs: int, basic: int) -> None:
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, col: int) -> None:
        prow = self.rows[r]
        leaving = self.basis[r]
        if leaving in self.artificial:
            del prow[leaving]
        prhs = self.rhs[r]
        if prow[col] < 0:
            for j in prow:
                prow[j] = -prow[j]
            prhs = -prhs
        self.rhs[r] = prhs = _normalize(prow, prhs)
        for i, row in enumerate(self.rows):
            if col in row and i != r:
                self.rhs[i] = _cancel(row, self.rhs[i], prow, prhs, col)
        if col in self.obj:
            _cancel(self.obj, 0, prow, prhs, col)
        self.basis[r] = col

    def _run(self) -> str:
        rows, rhs, basis, obj = self.rows, self.rhs, self.basis, self.obj
        seen = set()  # hashes of the bases met since the last nondegenerate pivot
        bland = False
        while True:
            top = max(obj.values(), default=0)
            if top <= 0:
                return "optimal"
            if bland:
                col = min(j for j, v in obj.items() if v > 0)
            else:
                col = min(j for j, v in obj.items() if v == top)
            # Ratio test: the smallest rhs[i] / rows[i][col] over positive
            # entries, compared by cross-multiplication; ties go to the
            # smallest basic column.
            best = -1
            for i, row in enumerate(rows):
                a = row.get(col, 0)
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
            if num:
                seen.clear()
                bland = False
            elif not bland:
                key = hash(frozenset(basis))
                bland = key in seen
                seen.add(key)

    def _set_objective(self, coeffs: Mapping) -> None:
        """Reduced-cost row of ``coeffs`` (a column -> exact number map) at the current basis."""
        obj, _ = _integer_row(coeffs, 0)
        for i, b in enumerate(self.basis):
            if b in obj:
                _cancel(obj, 0, self.rows[i], self.rhs[i], b)
        self.obj = obj

    # -- phases -----------------------------------------------------------

    def _phase1(self) -> bool:
        """Returns True when a feasible basis was reached."""
        # The presolve kept the original feasible set: it fixed at 0 only the
        # columns of forcing rows, whose nonnegative terms of one sign sum to
        # 0 only if each is 0, and kept each emptied row that ``0 rel rhs``
        # breaks, such as ``0 <= -1``, whose artificial then stays positive.
        # The optimum is checked against the original LP (``_verify``).
        if not self.artificial:
            return True
        self._set_objective({a: -1 for a in self.artificial})
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
            v = cols.get(self.col_pos[j], ZERO)  # a fixed column (None) reads 0
            if self.col_neg[j] is not None:
                v = v - cols.get(self.col_neg[j], ZERO)
            out.append(v)
        return tuple(out)

    def objective_of(self, coeffs: Mapping, values: Sequence) -> object:
        return sum((c * values[j] for j, c in coeffs.items()), ZERO)

    # -- lexicographic continuation ----------------------------------------

    def pin_objective(self, coeffs: Mapping, value) -> None:
        """Pin ``coeffs . x`` at its optimum ``value`` with one row; the vertex stays basic.

        Optimality already bounds ``coeffs . x`` by ``value`` on one side (from
        above for ``max``, from below for ``min``), so the row bounds the other.
        """
        sign = -1 if self.lp.sense == "max" else 1
        slack = self.ncols
        self.ncols += 1
        pin = self._columns(coeffs, sign)
        pin[slack] = 1
        row, rhs = _integer_row(pin, sign * value)
        for i, b in enumerate(self.basis):
            if b in row:
                rhs = _cancel(row, rhs, self.rows[i], self.rhs[i], b)
        if rhs != 0:
            raise LpCheckError("pin row must be tight at the solved vertex")
        self._add_row(row, rhs, slack)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly; statuses are ``optimal``/``infeasible``/``unbounded``."""
    return _solve(lp)[0]


def _solve(lp: LinearProgram):
    simplex = _Simplex(lp)
    if not simplex._phase1():
        return LpSolution("infeasible", None, ()), simplex
    status = simplex._phase2(lp.objective)
    if status == "unbounded":
        return LpSolution("unbounded", None, ()), simplex
    values = simplex.var_values()
    _verify(lp, values)
    return LpSolution("optimal", simplex.objective_of(lp.objective, values), values), simplex


def _verify(lp: LinearProgram, values: Sequence) -> None:
    """Re-check an optimum ``values`` against every row of ``lp``, exactly.

    ``lp`` is the original LP, with the presolve's dropped rows and fixed columns.
    ``values`` is put over one common denominator D once
    (:func:`common_denominator`), so each row compares the integer
    ``sum(c_j * X_j)`` over its nonzero columns (D times its left side) with
    D times its right side.  A ``Fraction`` coefficient keeps its row's sum
    exact, only slower.
    """
    den, nums = common_denominator(values)
    for x, free in zip(nums, lp.free):
        if x < 0 and not free:
            raise LpCheckError("solver produced a negative variable")
    get = {j: x for j, x in enumerate(nums) if x}.get
    for con in lp.constraints:
        lhs = 0
        for j, c in con.coeffs.items():
            x = get(j)
            if x is not None:
                lhs += c * x
        if not _holds(lhs * con.rhs.denominator, con.rel, con.rhs.numerator * den):
            raise LpCheckError(f"solver violated constraint {con.label or ''}")


def lexicographic_solve(lp: LinearProgram, secondary: Mapping) -> LexSolution:
    """Optimize ``lp``'s objective, then ``secondary`` among its optima.

    Both objectives share ``lp.sense``.  The follow-up solve warm-continues
    from the optimal tableau with the primary objective pinned to its value.
    """
    secondary = lp._clean(secondary)
    first, simplex = _solve(lp)
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
