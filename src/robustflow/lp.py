"""Exact-arithmetic linear programming.

A deliberately small LP toolkit for the one form every model emits:
maximize ``c.x`` over ``x >= 0`` subject to ``<=`` rows with right-hand side
>= 0 and ``==`` rows with right-hand side 0.  The zero vector is then
feasible, so the primal simplex starts from the all-slack basis and needs no
phase 1.  It enters the largest reduced cost (Dantzig) and falls back to
Bland's rule when a basis repeats during a run of degenerate pivots.  The
tableau is sparse and integer: each row is a ``{column: int}`` dict whose
rational value is the row divided by its basic entry, as in
integer-preserving elimination (Bareiss) and the integer pivoting of lrs.
There is no floating point anywhere, no tolerance knobs, and statuses are
decided exactly: ``optimal`` or ``unbounded``.

Input contract: every coefficient and right-hand side is an ``int`` or a
``fractions.Fraction``; anything else, and any row out of the form above,
raises :class:`LpError` on its way in.  Every row enters through
:meth:`LinearProgram.add_row`, which keeps the values it is given (only
zeros are dropped) and skips an empty row or an exact repeat;
:func:`_integer_row` turns each row into integers once, on its way into the
tableau.  Values are returned as ``Fraction``s.

An exact presolve (:func:`_forced_zero`, after Brearley, Mitra & Williams,
1975) fixes columns at 0 before the simplex.  A forcing row has right-hand
side 0 and live coefficients of one sign: positive for ``<=``, either for
``==``.  Nonnegative terms of one sign sum to 0 only if each is 0, so its
columns are 0 at every feasible point; fixing them can make another row
forcing, up to a fixpoint.

A row may be *lazy* (``add_row(..., lazy=True)``): it is part of the LP,
but the simplex starts without it, as in the cutting-plane scheme of
Fischetti & Monaci (2012).  One loop, :meth:`_Simplex._settle`, serves the
plain solve and the lexicographic step.  It optimizes over the rows in the
tableau, then evaluates each pending lazy row at the vertex, in integers
over one common denominator, as :func:`_verify` does.  Every violated row
goes into the solved tableau, the most violated first, expressed in the
current basis.  A dual simplex under the dual Bland rule, which cannot
cycle, makes the vertex feasible again, and the primal simplex
re-optimizes; this repeats until no lazy row is violated.  If the rows in
the tableau leave the LP unbounded, every pending lazy row goes in.  The LP
without its pending rows is a relaxation of the full LP, so its optimum,
once feasible for every row, is optimal for the full LP.  An LP without lazy
rows takes the same tableau and pivots as if laziness did not exist.

Every row enters the tableau through one routine,
:meth:`_Simplex._insert`: the eager rows when the tableau is built, each
lazy row a vertex violates, and the pin row of the lexicographic step.  It
expresses a row in the current basis by :meth:`_Simplex._reduce`, the
elimination that also expresses each objective in the basis.

Every optimum is re-checked against every row of the original LP, lazy rows
and fixed columns included, before it is returned, in integers: the values
are put over one common denominator and each row compares integer sums
(:func:`_verify`).  A failed check raises :class:`LpCheckError`, also under
``python -O``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Optional, Sequence

from .rational import ZERO, common_denominator, rat

KERNEL = "sparse-int"


class LpError(ValueError):
    """Malformed LP input."""


class LpCheckError(AssertionError):
    """The solver's result failed one of its own exact checks."""


def _exact(value):
    """``value`` itself when it is an ``int`` or a ``Fraction``; else :class:`LpError`."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise LpError(f"LP data must be int or Fraction, got {value!r}")


def in_form(rel: str, rhs) -> bool:
    """Whether a row ``... rel rhs`` is in the one form: ``<=`` with ``rhs >= 0``, or ``== 0``."""
    return rhs >= 0 if rel == "<=" else rel == "==" and rhs == 0


@dataclass
class _Constraint:
    coeffs: dict
    rel: str
    rhs: object
    label: Optional[str]
    lazy: bool = False


class LinearProgram:
    """LP container: maximize over nonnegative variables, rows in the module's one form."""

    # Kept as constants for readers of the LP, such as perfbench's HiGHS reference.
    sense = "max"

    def __init__(self) -> None:
        self.var_names: list = []
        self.objective: dict = {}
        self.constraints: list = []
        # The (rel, rhs, terms) of every row kept, while rows are being added;
        # a solve drops it, and a later add_row rebuilds it from the rows.
        self._seen: Optional[set] = set()

    @property
    def free(self) -> tuple:
        return (False,) * len(self.var_names)

    def add_var(self, name: Optional[str] = None) -> int:
        idx = len(self.var_names)
        self.var_names.append(name if name is not None else f"x{idx}")
        return idx

    def set_objective(self, coeffs: Mapping) -> None:
        self.objective = self._clean(coeffs)

    def add_constraint(self, coeffs: Mapping, rel: str, rhs, label: Optional[str] = None) -> None:
        """:meth:`add_row` after checking every index and value."""
        self.add_row(self._clean(coeffs), rel, _exact(rhs), label)

    def add_row(
        self, coeffs: Mapping, rel: str, rhs, label: Optional[str] = None, lazy: bool = False
    ) -> None:
        """Add the row ``coeffs . x rel rhs``, unless it is empty or repeats an earlier row.

        A row out of the one form raises :class:`LpError` first, empty or
        not.  Zero terms are dropped.  The model builders call this directly
        with ``int`` coefficients on the LP's own columns, so the terms are
        not checked; an ``int`` keys a row like the equal ``Fraction`` would.
        A ``lazy`` row enters the simplex only once a vertex violates it
        (module docstring); the LP, and its optimum, are the same.
        """
        if not in_form(rel, rhs):
            raise LpError(f"rows must be '<=' with rhs >= 0 or '==' with rhs 0, got {rel} {rhs}")
        terms = {j: c for j, c in coeffs.items() if c != 0}
        if self._seen is None:
            self._seen = {(c.rel, c.rhs, frozenset(c.coeffs.items())) for c in self.constraints}
        key = (rel, rhs, frozenset(terms.items()))
        if terms and key not in self._seen:
            self._seen.add(key)
            self.constraints.append(_Constraint(terms, rel, rhs, label, lazy))

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

    # Every LP maximizes and has no free variable, so the "max:" header and the
    # "free: (none)" line say nothing; they stay because the goldens hash this text.
    lines = [f"max: {linear(lp.objective)}", "subject to:"]
    for i, con in enumerate(lp.constraints):
        tag = f" [{con.label}]" if con.label else ""
        lines.append(f"  c{i}{tag}: {linear(con.coeffs)} {con.rel} {con.rhs}")
    lines.append("free: (none)")
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


def _forced_zero(lp: LinearProgram) -> list:
    """Flags of the variables that forcing rows (module docstring) fix at 0, to a fixpoint.

    Per-row counts of live positive and negative entries, kept through a
    column-to-rows index, reach it in O(nonzeros); each row fires at most once.
    """
    fixed = [False] * lp.n_vars
    rows = lp.constraints
    live = {}  # row -> [live positive entries, live negative entries]
    rows_of = defaultdict(list)
    for i, con in enumerate(rows):
        if con.rhs == 0:
            neg = sum(1 for c in con.coeffs.values() if c < 0)
            live[i] = [len(con.coeffs) - neg, neg]
            for j in con.coeffs:
                rows_of[j].append(i)

    def forcing(i):
        pos, neg = live[i]
        return neg == 0 or (pos == 0 and rows[i].rel == "==")

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
    """Primal simplex from the all-slack basis on sparse integer rows, and a dual simplex for cuts.

    The tableau is the presolved LP.  A forcing row (right-hand side 0, live
    coefficients of the one sign its relation allows) fixes its columns at
    0, as nonnegative terms of one sign sum to 0 only if each is 0.  A fixed
    column appears in no row and reads 0; a row left with no column reads
    ``0 <= rhs`` or ``0 == 0``, holds, and is dropped.  :func:`_verify`
    still checks every optimum against the original LP.

    Every row came in through :meth:`LinearProgram.add_row`, which refuses a
    row out of the module's one form, so every right-hand side is >= 0 and
    the slacks make a feasible basis at x = 0.

    Tableau columns are the LP's own variable indices, then one slack per
    tableau row: the slacks start at ``first_slack == lp.n_vars``, and row
    ``i``'s slack is column ``first_slack + i``.  Every row enters through
    :meth:`_insert`, which gives it that slack: the ``<=`` halves of the
    eager rows (an equality is split into two) when the tableau is built,
    then each half of a lazy row that a vertex violates, and the pin row.
    :meth:`_reduce` expresses a new row in the current basis, and the
    objective as well (:meth:`optimize`).  Row ``i`` is a dict ``{column:
    int}`` with the integer right-hand side ``rhs[i]``; it stands for the
    rational tableau row obtained by dividing by its basic entry
    ``rows[i][basis[i]]``, which is kept positive.  Every row is kept
    primitive (divided by the gcd of its entries), so each rational row has
    one integer form.  The objective row is a positive integer multiple of
    the reduced costs, so its largest entry marks the largest reduced cost.
    A pivot scans ``rows`` once for the rows that hold the entering column.

    The entering column has the largest reduced cost, the smallest such
    column on ties, and the ratio test breaks ties on the smallest basic
    column: the same pivots as on a dense rational tableau of the presolved
    LP.

    Dantzig's rule (:meth:`_run`) can cycle on degenerate pivots, so each
    run of them keeps the hash of every basis it reaches.  On the first
    repeat, the entering column is the smallest one with a positive reduced
    cost (Bland, 1977) until the next nondegenerate pivot, which clears the
    hashes and restores Dantzig's rule.  The loop ends: a run either reaches
    no basis twice, or Bland's rule takes over, and it never cycles; a
    nondegenerate pivot raises the objective, so no earlier basis returns.
    A hash collision only starts Bland's rule early.  Only the hashes are
    kept, one int per pivot, not the bases.

    Lazy rows get no tableau row at first.  :meth:`_settle` inserts the
    ones a vertex violates, each with its slack basic, so a violated row has
    a negative right-hand side.  The dual simplex (:meth:`_dual`) then
    restores primal feasibility, keeping every reduced cost <= 0.  The
    leaving row is the one of negative right-hand side with the smallest
    basic column.  The entering column has the smallest ratio of reduced
    cost to row entry, over the row's negative entries, and the smallest
    column on ties.  That is Bland's rule applied to the dual, so it cannot
    cycle either.

    Kept as an object so a solved tableau can take cut rows and a pin row,
    and be re-optimized without a cold restart.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.fixed = _forced_zero(lp)  # a fixed column enters no row
        self.first_slack = lp.n_vars
        self.rows: list = []
        self.rhs: list = []
        self.basis: list = []
        self.row_of: dict = {}  # the row of each column that a pivot made basic
        self.obj: dict = {}
        self.lazy = [con for con in lp.constraints if con.lazy]  # not in the tableau yet
        self._insert(self._halves(con for con in lp.constraints if not con.lazy))

    def _columns(self, coeffs: Mapping) -> dict:
        """The (zero-free) linear form over the LP's variables, without fixed columns."""
        fixed = self.fixed
        return {j: c for j, c in coeffs.items() if not fixed[j]}

    def _halves(self, cons) -> Iterator:
        """``(coeffs, rhs)`` of each ``<=`` half of the rows ``cons``, over the tableau's columns.

        An ``==`` row gives two halves, and a row left with no column none.
        """
        for con in cons:
            row = self._columns(con.coeffs)
            if row:
                halves = [row] if con.rel == "<=" else [row, {j: -c for j, c in row.items()}]
                for half in halves:
                    yield half, con.rhs

    def _insert(self, new_rows) -> None:
        """Append each row ``coeffs . x <= rhs`` of ``new_rows``, in the current basis.

        This is the one way a row enters the tableau.  ``coeffs`` is over
        the LP's columns; row ``t`` gets the slack ``first_slack + t``, basic
        in it, and :meth:`_reduce` expresses it in the basis, so its
        right-hand side is negative when the vertex violates it.
        """
        for coeffs, rhs in new_rows:
            slack = self.first_slack + len(self.rows)
            coeffs[slack] = 1
            row, rhs = _integer_row(coeffs, rhs)
            self.rhs.append(self._reduce(row, rhs))
            self.rows.append(row)
            self.basis.append(slack)

    def _reduce(self, row: dict, rhs: int) -> int:
        """Eliminate every basic column from ``row``, in place; returns the new right-hand side.

        ``row`` is a new row or an objective.  Its columns are the LP's, and a
        new row's own slack, which is not basic yet, so each basic one among
        them was made basic by a pivot (``row_of``; on the all-slack basis
        there is none).  Each is eliminated by its own row, which holds no
        other basic column.  The result is the primitive positive multiple
        of ``row`` in the current basis, whatever the order.
        """
        for j in self.row_of.keys() & row.keys() if self.row_of else ():
            i = self.row_of[j]
            rhs = _cancel(row, rhs, self.rows[i], self.rhs[i], j)
        return rhs

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, col: int) -> None:
        """Make ``col`` basic in row ``r``, whose ``col`` entry the ratio test chose positive."""
        prow, prhs = self.rows[r], self.rhs[r]
        for i, row in enumerate(self.rows):
            if col in row and i != r:
                self.rhs[i] = _cancel(row, self.rhs[i], prow, prhs, col)
        if col in self.obj:
            _cancel(self.obj, 0, prow, prhs, col)
        self.row_of.pop(self.basis[r], None)
        self.row_of[col] = r
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

    def optimize(self, coeffs: Mapping) -> str:
        """Maximize ``coeffs . x`` over the tableau's rows, from the current basis.

        The objective goes through :meth:`_reduce`, as a new row does, and
        is then a positive multiple of the reduced costs at the basis.
        Returns ``optimal`` or ``unbounded``.
        """
        self.obj, _ = _integer_row(self._columns(coeffs), 0)
        self._reduce(self.obj, 0)
        return self._run()

    def _dual(self) -> None:
        """Pivot a dual feasible basis to a feasible one by the dual simplex (dual Bland rule).

        The leaving row is negated first, so that its entry in the entering
        column is positive, as :meth:`_pivot` expects.
        """
        rows, rhs, basis, obj = self.rows, self.rhs, self.basis, self.obj
        while True:
            r = min((i for i, v in enumerate(rhs) if v < 0), key=basis.__getitem__, default=-1)
            if r < 0:
                return
            # Ratio test: the smallest -obj[j] / -rows[r][j] over negative
            # entries, compared by cross-multiplication; ties go to the
            # smallest column.  Every -obj[j] is >= 0, as the basis is dual
            # feasible.
            col = -1
            for j, a in rows[r].items():
                if a < 0:
                    cost = -obj.get(j, 0)
                    if col < 0 or cost * den < num * -a or (cost * den == num * -a and j < col):
                        col, num, den = j, cost, -a
            if col < 0:
                raise LpCheckError("a cut row left no feasible point, but x = 0 is feasible")
            rows[r] = {j: -a for j, a in rows[r].items()}
            rhs[r] = -rhs[r]
            self._pivot(r, col)

    # -- lazy rows --------------------------------------------------------

    def _settle(self, coeffs: Mapping) -> str:
        """Maximize ``coeffs . x`` over every row, lazy ones included; ``optimal`` or ``unbounded``.

        After :meth:`optimize`, the lazy rows that the vertex violates go
        into the tableau, :meth:`_dual` makes the vertex feasible again and
        :meth:`_run` re-optimizes, until the vertex violates no lazy row.
        If the rows in the tableau leave ``coeffs . x`` unbounded, every
        lazy row goes in, the dual simplex starts from the zero objective
        (which every basis is dual feasible for), and ``coeffs`` is
        optimized afresh.
        """
        status = self.optimize(coeffs)
        while self.lazy:
            if status == "unbounded":
                cuts, self.lazy = self.lazy, []
                self.obj = {}
            else:
                cuts = self._separate()
                if not cuts:
                    break
            self._insert(self._halves(cuts))
            self._dual()
            status = self.optimize(coeffs) if status == "unbounded" else self._run()
        return status

    def _separate(self) -> list:
        """Take the lazy rows that the vertex violates out of ``lazy``.

        They are returned the most violated first, with ties in row order.
        """
        den, nums = common_denominator(self.var_values())
        found = sorted(_violations(self.lazy, den, nums), key=lambda hit: -hit[1])
        taken = {i for i, _ in found}
        cuts = [self.lazy[i] for i, _ in found]
        self.lazy = [con for i, con in enumerate(self.lazy) if i not in taken]
        return cuts

    # -- results ----------------------------------------------------------

    def var_values(self) -> tuple:
        cols = {b: rat(self.rhs[i], self.rows[i][b]) for i, b in enumerate(self.basis)}
        return tuple(cols.get(j, ZERO) for j in range(self.first_slack))  # a fixed column reads 0

    def objective_of(self, coeffs: Mapping, values: Sequence) -> object:
        return sum((c * values[j] for j, c in coeffs.items()), ZERO)

    # -- lexicographic continuation ----------------------------------------

    def pin_objective(self, coeffs: Mapping, value) -> None:
        """Pin ``coeffs . x`` at its optimum ``value`` with one row; the vertex stays basic.

        Optimality already bounds ``coeffs . x`` by ``value`` from above, so
        the row ``-coeffs . x <= -value`` bounds it from below.
        """
        self._insert([({j: -c for j, c in self._columns(coeffs).items()}, -value)])
        if self.rhs[-1] != 0:
            raise LpCheckError("pin row must be tight at the solved vertex")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly; statuses are ``optimal``/``unbounded``."""
    return _solve(lp)[0]


def _solve(lp: LinearProgram):
    lp._seen = None  # the repeat keys are read only while rows are added
    simplex = _Simplex(lp)
    if simplex._settle(lp.objective) == "unbounded":
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
    if any(x < 0 for x in nums):
        raise LpCheckError("solver produced a negative variable")
    for i, _ in _violations(lp.constraints, den, nums):
        raise LpCheckError(f"solver violated constraint {lp.constraints[i].label or ''}")


def _violations(rows: Sequence, den: int, nums: Sequence):
    """``(i, excess)`` for each row ``rows[i]`` that the point ``nums / den`` violates.

    Each row compares integer sums (:func:`_verify`); ``excess`` is ``den``
    times the amount by which the row fails, exactly.
    """
    get = {j: x for j, x in enumerate(nums) if x}.get
    for i, con in enumerate(rows):
        lhs = 0
        for j, c in con.coeffs.items():
            x = get(j)
            if x is not None:
                lhs += c * x
        lhs, rhs = lhs * con.rhs.denominator, con.rhs.numerator * den
        if not (lhs <= rhs if con.rel == "<=" else lhs == rhs):
            yield i, Fraction(abs(lhs - rhs), con.rhs.denominator)


def lexicographic_solve(lp: LinearProgram, secondary: Mapping) -> LexSolution:
    """Maximize ``lp``'s objective, then ``secondary`` among its optima.

    The follow-up solve warm-continues from the optimal tableau with the
    primary objective pinned to its value.
    """
    secondary = lp._clean(secondary)
    first, simplex = _solve(lp)
    if first.status != "optimal":
        return LexSolution(first.status, None, None, ())
    simplex.pin_objective(lp.objective, first.objective_value)
    if simplex._settle(secondary) == "unbounded":
        return LexSolution("unbounded", first.objective_value, None, ())
    values = simplex.var_values()
    _verify(lp, values)
    primary = simplex.objective_of(lp.objective, values)
    if primary != first.objective_value:
        raise LpCheckError("lexicographic step moved the primary objective")
    return LexSolution("optimal", primary, simplex.objective_of(secondary, values), values)
