"""Exact two-phase simplex over Q, fraction-free, on integers only.

Problems are given in the form

    minimize / maximize  sum_(j in S) x_j
    subject to           A_i . x  (<= | = | >=)  b_i,   x >= 0,

with S a set of variables, passed as a 0/1 objective, and entries of A and b
int or Fraction.  They are solved exactly: the optimum and the witness x come
back as Fraction.

The tableau is held over the integers and pivoted by the Bareiss / Edmonds
integer-preserving rule, so the pivot loop builds no fractions.  Row i of
the initial tableau [A_i | slack | artificial | b_i] is multiplied by
c_i > 0, the lcm of its denominators; its slack becomes +-c_i and its
artificial c_i.  Scaling a row does not change B^-1 A, so at every basis B
the tableau M and d > 0 satisfy M / d = B^-1 A, the tableau of the same
problem solved over Fraction, with d = |det B| over the scaled columns.
Initially B is diagonal with entries c_i, so d is their product and
M = d * T_0.  A pivot on p = M[r][e] maps

    M[i][j]  ->  (M[i][j] * p - M[i][e] * M[r][j]) // d,      d -> p,

and every division is exact: the new entries are p * (B'^-1 A)[i][j] and
|p| = |det B'|, so by Cramer's rule they are minors of the scaled tableau.
When p < 0 the whole tableau is negated to keep d > 0.  The cost row is the
last row of M and is pivoted the same way: it holds d times the reduced
costs, so the pivot rule reads only its signs, and its last entry is -d
times the optimum.  Bland's rule (first entering column with a negative
reduced cost, ratio test by cross-multiplication, ties to the smallest basic
index) therefore makes the same choices as on the Fraction tableau, and the
solver is deterministic, terminates, and returns the same optimum, witness
and exceptions.

Redundant equality rows keep their artificial basic at 0 instead of being
deleted: they are zero on every other column, and deleting one would break
the exactness of the division by d.

Phase 1, phase 2, faces and slack maxima share two routines of
`FeasibleBasis`: `_optimize` runs Bland's rule from a feasible basis for unit
costs on a set of tableau columns, and `_drop` drives given columns out of
the basis by degenerate pivots, then deletes them.  Deleting non-basic
columns keeps M / d = B^-1 A exact on the columns left, so later pivots are
those of the system without them.

Phase 1 is a face: the problem's solutions are the face {artificials = 0} of
the system with one artificial per row.  `phase1` minimizes the sum of the
artificials from their identity basis, raises Infeasible on a positive
minimum and drops them.  It never reads an objective, so one phase 1 serves
every objective over the same rows: `phase2` optimizes one on a copy of the
basis, pivoting exactly as a separate solve would, and returns the optimum
and the optimal basis, from which the vertex is read on demand.  `solve_lp`
is `phase1` then `phase2`.

A face {x : x_j = 0 for j in J} of the feasible region needs no new phase 1
either: `FeasibleBasis.face` minimizes sum_(j in J) x_j from the basis (no
pivot when the basic solution is already zero on J), reads a positive
minimum as an empty face, and drops the columns of J.  `cols` names each
tableau column in the original numbering, so `point`, `support` and
`phase2` take and return vectors over all nvar variables.  The slack of the
k-th inequality row is named nvar + k: `support` lists the slacks that the
basic solution makes positive, and `FeasibleBasis.lift` maximizes one, so a
strict inequality A_i . x > b_i is decided on the closed system's basis.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional


class LPError(Exception):
    """Base class for solver errors."""


class Infeasible(LPError):
    """The constraint set has no nonnegative solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


@dataclass
class LPSolution:
    value: object
    basis: "FeasibleBasis"  # the optimal basis, from which a further phase 2 may start

    @property
    def x(self) -> list:
        """The optimal vertex, read from the basis."""
        return self.basis.point()


def _scale_int(values):
    """values times the lcm c of their denominators, as ints; (row, c)."""
    c = lcm(*[v.denominator for v in values])
    if c == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (c // v.denominator) for v in values], c


class _Tableau:
    """Fraction-free simplex tableau: rows / d = B^-1 A, the cost row last while optimizing."""

    __slots__ = ("rows", "d", "basis")

    def pivot(self, r, e):
        rows, d = self.rows, self.d
        prow = rows[r]
        p = prow[e]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[e]
            if f:
                rows[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                rows[i] = [a * p // d for a in row]
        if p < 0:
            self.rows = rows = [[-a for a in row] for row in rows]
            p = -p
        self.d = p
        self.basis[r] = e

    def iterate(self):
        """Bland's rule minimization over every column; raises Unbounded."""
        basis = self.basis
        ncols = len(self.rows[-1]) - 1
        while True:
            cost = self.rows[-1]
            for enter in range(ncols):
                if cost[enter] < 0:
                    break
            else:
                return
            leave = None
            for i, row in enumerate(self.rows[:-1]):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[-1], a
                        continue
                    # row[-1] / a  vs  num / den, both denominators positive.
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], a
            if leave is None:
                raise Unbounded("objective unbounded below")
            self.pivot(leave, enter)


class FeasibleBasis(_Tableau):
    """A feasible basis of {x >= 0 : A x (senses) b}, as a fraction-free tableau.

    rows[i] / d is row i of B^-1 [A | slack | artificial | b] less the
    deleted columns, and basis[i] is its basic tableau column (an index >=
    len(cols) for a redundant row, which is zero on every column left).
    cols[t] names tableau column t: variables are < nvar, and the slacks and
    then the artificials come after them.
    """

    __slots__ = ("nvar", "cols")

    def __init__(self, rows, d, basis, nvar, cols):
        self.rows = rows
        self.d = d
        self.basis = basis
        self.nvar = nvar
        self.cols = cols

    def support(self) -> set:
        """The columns, by name, that the basic solution makes positive: the
        variables, and the slack of the k-th inequality row as nvar + k."""
        cols = self.cols
        return {cols[bi] for row, bi in zip(self.rows, self.basis) if bi < len(cols) and row[-1]}

    def point(self) -> list:
        """The basic solution x, as Fraction."""
        x = [Fraction(0)] * self.nvar
        cols, nv = self.cols, bisect(self.cols, self.nvar - 1)  # variables come first
        for row, bi in zip(self.rows, self.basis):
            if bi < nv:
                x[cols[bi]] = Fraction(row[-1], self.d)
        return x

    def face(self, fixed) -> Optional["FeasibleBasis"]:
        """A feasible basis of the solutions with x_j = 0 for every j in fixed,
        or None if there are none.

        A phase 2 minimizes the sum of those x_j from this basis, unless the
        basic solution is already zero on them; a positive minimum means the
        face is empty.  Their columns are then dropped, as phase 1 drops its
        artificials.
        """
        fixed = set(fixed)
        start = self
        if not fixed.isdisjoint(self.support()):
            solution = phase2(self, [1 if j in fixed else 0 for j in range(self.nvar)])
            if solution.value:
                return None
            start = solution.basis
        return start._drop({t for t, j in enumerate(start.cols) if j in fixed})

    def lift(self, column) -> Optional["FeasibleBasis"]:
        """A feasible basis whose solution makes the named column positive,
        by Bland's rule maximizing it from this basis, or None when its
        maximum is 0.  Columns are named as in `support`."""
        optimal, value = self._optimize({self.cols.index(column)}, maximize=True)
        return optimal if value else None

    def _optimize(self, columns, maximize=False):
        """Bland's rule minimizing (maximizing) the sum of the x_t over the
        tableau columns t in columns from this basis, which is left as it
        was.  Returns the optimal basis and its d times the optimum."""
        rows, d = self.rows, self.d
        # The cost row d * (c - c_B B^-1 A) of the unit costs c: minus the
        # rows whose basic column is in columns, then plus d on each of them;
        # negated to maximize.
        cost = [0] * (len(self.cols) + 1)
        for row, bi in zip(rows, self.basis):
            if bi in columns:
                cost = [k - a for k, a in zip(cost, row)]
        for t in columns:
            cost[t] += d
        if maximize:
            cost = [-k for k in cost]
        tab = FeasibleBasis(list(rows) + [cost], d, list(self.basis), self.nvar, self.cols)
        tab.iterate()
        value = tab.rows.pop()[-1]  # -d times the minimum of the costs
        return tab, value if maximize else -value

    def _drop(self, columns) -> "FeasibleBasis":
        """This basis with the tableau columns in columns, on which the basic
        solution is zero, deleted.  A row whose basic column is one of them
        first pivots on its first nonzero entry in a column kept; a row with
        none is redundant."""
        ncols = len(self.cols)
        tab = FeasibleBasis(list(self.rows), self.d, list(self.basis), self.nvar, self.cols)
        for i, bi in enumerate(tab.basis):
            if bi in columns:
                row = tab.rows[i]
                for t in range(ncols):
                    if row[t] and t not in columns:
                        tab.pivot(i, t)
                        break
        k = ncols - len(columns)  # the columns left
        if min(columns, default=k) >= k:
            # A trailing block, as phase 1's artificials: the columns left keep
            # their numbers, and a redundant row's basic column is >= k.
            tab.rows = [row[:k] + row[-1:] for row in tab.rows]
            tab.cols = self.cols[:k]
            return tab
        kept = [t for t in range(ncols) if t not in columns]
        index = {t: n for n, t in enumerate(kept)}
        tab.basis = [index.get(bi, k + i) for i, bi in enumerate(tab.basis)]
        tab.rows = [[row[t] for t in kept] + row[-1:] for row in tab.rows]
        tab.cols = [self.cols[t] for t in kept]
        return tab


def phase1(rows, senses, rhs, nvar) -> FeasibleBasis:
    """A feasible basis of {x >= 0 : A x (senses) b} over nvar variables.

    Raises Infeasible when there is no nonnegative solution.
    """
    nrows = len(rows)
    assert len(senses) == nrows and len(rhs) == nrows
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")

    # Each row scaled to Z by its own c_i > 0, the rhs last.
    scaled = [_scale_int(list(row) + [b]) for row, b in zip(rows, rhs)]
    d = prod(c for _, c in scaled)

    # Slack/surplus columns for inequalities, then one artificial per row;
    # M = d * T_0, so row i is (d / c_i) times its scaled row.
    slack_cols = [i for i, s in enumerate(senses) if s != "="]
    nslack = len(slack_cols)
    nkeep = nvar + nslack
    ncols = nkeep + nrows
    M = []
    for i, (srow, c) in enumerate(scaled):
        # As over Fraction: slack +1 for <=, -1 for >=, and the row negated
        # when its rhs is negative, before the artificial is set.
        flip = srow[-1] < 0
        g = -(d // c) if flip else d // c
        row = [g * v for v in srow[:-1]] + [0] * (nslack + nrows) + [g * srow[-1]]
        if senses[i] != "=":
            row[nvar + slack_cols.index(i)] = -d if (senses[i] == ">=") != flip else d
        row[nkeep + i] = d
        M.append(row)

    # The face {artificials = 0} of the artificials' basis: minimize their sum.
    artificials = range(nkeep, ncols)
    start = FeasibleBasis(M, d, list(artificials), nvar, range(ncols))
    optimal, minimum = start._optimize(artificials)
    if minimum:
        raise Infeasible("phase 1 optimum is positive")
    return optimal._drop(artificials)


def phase2(start: FeasibleBasis, objective, maximize=False) -> LPSolution:
    """Minimize (maximize) c.x from a feasible basis, which is left as it
    was; the solution carries the optimal basis.  c is over all nvar
    variables, and each entry is 0 or 1: the optimum is the least (greatest)
    mass on a set of variables.  Raises ValueError on any other entry."""
    if not set(objective) <= {0, 1}:
        raise ValueError("phase 2 takes a 0/1 objective")
    nvar = start.nvar
    columns = {t for t, j in enumerate(start.cols) if j < nvar and objective[j]}
    optimal, value = start._optimize(columns, maximize)
    return LPSolution(Fraction(value, optimal.d), optimal)


def solve_lp(objective, rows, senses, rhs, maximize=False) -> LPSolution:
    """Optimize c.x, c a 0/1 objective, over {x >= 0 : A x (senses) b};
    exact optimum and witness."""
    return phase2(phase1(rows, senses, rhs, len(objective)), objective, maximize)

