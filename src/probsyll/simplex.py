"""Exact two-phase simplex over Q and Q(eps), fraction-free.

Problems are given in the form

    minimize / maximize  c . x
    subject to           A_i . x  (<= | = | >=)  b_i,   x >= 0,

with entries int, Fraction or EpsRational, and solved exactly: the optimum
and the witness x come back as Fraction (EpsRational when some entry is one).

The tableau is held over the integers (over Z[eps] when some entry is an
EpsRational: the integer polynomials of infinitesimals.py, whose num / den
pairs are read and built here without conversion) and pivoted by the
Bareiss / Edmonds integer-preserving rule, so the pivot loop builds no
fractions.  Row i of the initial tableau [A_i | slack | artificial | b_i] is
multiplied by c_i > 0, the lcm of its denominators (times any non-constant
eps-denominator); its slack becomes +-c_i and its artificial c_i.  Scaling a
row does not change B^-1 A, so at every basis B the tableau M and d > 0
satisfy M / d = B^-1 A, the tableau of the same problem solved over Fraction,
with d = |det B| over the scaled columns.  Initially B is diagonal with
entries c_i, so d is their product and M = d * T_0.  A pivot on p = M[r][e]
maps

    M[i][j]  ->  (M[i][j] * p - M[i][e] * M[r][j]) // d,      d -> p,

and every division is exact: the new entries are p * (B'^-1 A)[i][j] and
|p| = |det B'|, so by Cramer's rule they are minors of the scaled tableau.
When p < 0 the whole tableau is negated to keep d > 0.  The cost row is the
last row of M and is pivoted the same way: it holds d times the reduced costs
(times the positive lcm of the objective's denominators in phase 2), so only
its signs are read.
Bland's rule (first entering column with a negative reduced cost, ratio test
by cross-multiplication, ties to the smallest basic index) therefore makes
the same choices as on the Fraction tableau, and the solver is deterministic,
terminates, and returns the same optimum, witness and exceptions.

Redundant equality rows keep their artificial basic at 0 instead of being
deleted: they are zero on every other column, and deleting one would break
the exactness of the division by d.

The two phases are separate steps.  `phase1` drives the artificials out and
returns the tableau as a `FeasibleBasis`; `phase2` runs Bland's rule for one
objective on a copy of it, so one phase 1 serves every objective over the
same rows.  Phase 1 never reads the objective, so a phase 2 from a shared
basis pivots exactly as a separate solve would and returns the same optimum
and vertex.  `solve_lp` is `phase1` then `phase2`; `feasible_point` is
`phase1` alone, whose basic solution is what a zero objective would return.
Phase 1 works over Z[eps] when the rows or rhs have an EpsRational entry; an
objective over Q(eps) on a tableau over Z lifts its entries to constant
polynomials first, which changes no sign and so no pivot.

A face {x : x_j = 0 for j in a set J} of the feasible region is reached from
a feasible basis without a new phase 1: `FeasibleBasis.face` runs a phase 2
minimizing sum_{j in J} x_j (none when the basic solution is already zero on
J), reads a positive minimum as an empty face, then drives the columns of J
out of the basis by degenerate pivots, as phase 1 drives out its artificials,
and deletes them.  Deleting non-basic columns keeps M / d = B^-1 A exact on
the columns left, so later pivots on the face are those of the system with
the columns of J deleted.  A face keeps the original variable numbering:
`cols` maps its tableau columns back, so `point`, `support` and `phase2` take
and return vectors over all nvar variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .infinitesimals import EpsRational, _Poly, _PONE, _PZERO


class LPError(Exception):
    """Base class for solver errors."""


class Infeasible(LPError):
    """The constraint set has no nonnegative solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


@dataclass
class LPSolution:
    value: object
    x: list
    basis: "FeasibleBasis"  # the optimal basis, from which a further phase 2 may start




def _scale_int(values):
    """values times the lcm c of their denominators, as ints; (row, c)."""
    c = lcm(*[v.denominator for v in values])
    if c == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (c // v.denominator) for v in values], c


def _eps_parts(v):
    """v = num / den over Z[eps], den > 0: an EpsRational's own polynomials."""
    if isinstance(v, EpsRational):
        return v.num, v.den
    return _Poly((v.numerator,) if v else ()), _Poly((v.denominator,))


def _scale_eps(values):
    """values times a positive common multiple c of their denominators, in Z[eps]."""
    parts = [_eps_parts(v) for v in values]
    c = _Poly((lcm(*[den.c[0] for _, den in parts if len(den.c) == 1]),))
    for den in dict.fromkeys(den.c for _, den in parts if len(den.c) > 1):
        c = c * _Poly(den)
    return [num * (c // den) for num, den in parts], c


class _Tableau:
    """Fraction-free simplex tableau: rows[:-1] / d = B^-1 A, rows[-1] the cost row."""

    def __init__(self, rows, d, basis):
        self.rows = rows
        self.d = d
        self.basis = basis

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

    def iterate(self, ncols):
        """Bland's rule minimization over the first ncols columns; raises Unbounded."""
        basis = self.basis
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


class FeasibleBasis:
    """Phase 1's result for {x >= 0 : A x (senses) b}: a feasible basis.

    rows[i] / d is row i of B^-1 [A | slack | b], the artificial columns
    dropped; basis[i] is its basic column (an index >= nkeep for a redundant
    row).  The tableau's first len(cols) columns are the variables cols, in
    the original numbering of nvar variables: all of them after phase 1, the
    ones not held at zero on a face.  `phase2` optimizes any objective from
    here, on a copy, and `face` restricts the basis to x_j = 0 on given j.
    """

    __slots__ = ("rows", "d", "basis", "nvar", "nkeep", "cols")

    def __init__(self, rows, d, basis, nvar, nkeep, cols):
        self.rows = rows
        self.d = d
        self.basis = basis
        self.nvar = nvar
        self.nkeep = nkeep
        self.cols = cols

    def support(self) -> set:
        """The variables the basic solution makes positive."""
        cols = self.cols
        return {cols[bi] for row, bi in zip(self.rows, self.basis) if bi < len(cols) and row[-1]}

    def point(self) -> list:
        """The basic solution x, as Fraction (EpsRational over Q(eps))."""
        x = [Fraction(0)] * self.nvar
        cols = self.cols
        for row, bi in zip(self.rows, self.basis):
            if bi < len(cols):
                x[cols[bi]] = _convert(row[-1], self.d)
        return x

    def face(self, fixed) -> Optional["FeasibleBasis"]:
        """A feasible basis of the solutions with x_j = 0 for every j in fixed,
        or None if there are none.

        A phase 2 minimizes the sum of those x_j from this basis, unless the
        basic solution is already zero on them; a positive minimum means the
        face is empty.  As phase 1 does with its artificials, degenerate
        pivots then drive the fixed columns out of the basis, and the columns
        are deleted.  A row that is zero on every column left is redundant on
        the face and keeps its (fixed) basic column, marked >= nkeep.
        """
        fixed = set(fixed)
        start = self
        if not fixed.isdisjoint(self.support()):
            solution = phase2(self, [1 if j in fixed else 0 for j in range(self.nvar)])
            if solution.value:
                return None
            start = solution.basis
        drop = {t for t, j in enumerate(start.cols) if j in fixed}
        tab = _Tableau(list(start.rows), start.d, list(start.basis))
        for i, bi in enumerate(tab.basis):
            if bi in drop:
                row = tab.rows[i]
                for t in range(start.nkeep):
                    if row[t] and t not in drop:
                        tab.pivot(i, t)
                        break
        kept = [t for t in range(start.nkeep) if t not in drop]
        index = {t: k for k, t in enumerate(kept)}
        basis = [index.get(bi, len(kept) + i) for i, bi in enumerate(tab.basis)]
        return FeasibleBasis([[row[t] for t in kept] + [row[-1]] for row in tab.rows], tab.d,
                             basis, self.nvar, len(kept), [j for j in start.cols if j not in fixed])


def phase1(rows, senses, rhs, nvar) -> FeasibleBasis:
    """A feasible basis of {x >= 0 : A x (senses) b} over nvar variables.

    Works over Z[eps] when some entry of rows or rhs is an EpsRational, else
    over Z.  Raises Infeasible when there is no nonnegative solution.
    """
    nrows = len(rows)
    assert len(senses) == nrows and len(rhs) == nrows
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")
    eps = any(EpsRational in set(map(type, vec)) for vec in (rhs, *rows))
    scale = _scale_eps if eps else _scale_int
    zero = _PZERO if eps else 0

    # Each row scaled to Z / Z[eps] by its own c_i > 0, the rhs last.
    scaled = [scale(list(row) + [b]) for row, b in zip(rows, rhs)]
    d = _PONE if eps else 1
    for _, c in scaled:
        d = d * c

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
        row = [g * v for v in srow[:-1]] + [zero] * (nslack + nrows) + [g * srow[-1]]
        if senses[i] != "=":
            row[nvar + slack_cols.index(i)] = -d if (senses[i] == ">=") != flip else d
        row[nkeep + i] = d
        M.append(row)

    # Minimize the sum of artificials; the cost row is d times the reduced
    # costs, 0 on the basic artificials.
    cost = [zero] * (ncols + 1)
    for row in M:
        cost = [k - a for k, a in zip(cost, row)]
    for i in range(nrows):
        cost[nkeep + i] = zero
    tab = _Tableau(M + [cost], d, [nkeep + i for i in range(nrows)])
    tab.iterate(ncols)
    if tab.rows[-1][-1]:  # the cost row stores -d * z in its last entry
        raise Infeasible("phase 1 optimum is positive")

    # Drive any leftover artificials out of the basis; a row that is zero on
    # every original and slack column is redundant and keeps its artificial.
    basis = tab.basis
    for i in range(nrows):
        if basis[i] >= nkeep:
            row = tab.rows[i]
            for j in range(nkeep):
                if row[j]:
                    tab.pivot(i, j)
                    break
    return FeasibleBasis([row[:nkeep] + [row[-1]] for row in tab.rows[:-1]],
                         tab.d, basis, nvar, nkeep, range(nvar))


def phase2(start: FeasibleBasis, objective, maximize=False) -> LPSolution:
    """Optimize c.x from a feasible basis, which is left as it was; the
    solution carries the optimal basis.  c is over all nvar variables."""
    rows, d, nkeep, cols = start.rows, start.d, start.nkeep, start.cols
    objective = [objective[j] for j in cols]
    eps = d.__class__ is _Poly or EpsRational in set(map(type, objective))
    if eps and d.__class__ is int:
        # An objective over Q(eps) on a tableau over Z: the same entries in Z[eps].
        rows = [[_Poly((a,)) if a else _PZERO for a in row] for row in rows]
        d = _Poly((d,))
    zero = _PZERO if eps else 0

    # Bland's rule on the original and slack columns only, with the objective
    # scaled to Z / Z[eps] by the positive lcm of its denominators.
    obj, scale_obj = (_scale_eps if eps else _scale_int)(list(objective))
    costs = [-v if maximize else v for v in obj] + [zero] * (nkeep - len(cols))
    cost = [d * v for v in costs] + [zero]
    for row, bi in zip(rows, start.basis):
        if bi < nkeep and costs[bi]:
            f = costs[bi]
            cost = [k - f * a for k, a in zip(cost, row)]
    tab = _Tableau(list(rows) + [cost], d, list(start.basis))
    tab.iterate(nkeep)

    d = tab.d
    x = [Fraction(0)] * start.nvar
    value = zero
    for row, bi in zip(tab.rows, tab.basis):
        if bi < len(cols):
            x[cols[bi]] = _convert(row[-1], d)
            value = value + obj[bi] * row[-1]
    optimal = FeasibleBasis(tab.rows[:-1], d, tab.basis, start.nvar, nkeep, cols)
    return LPSolution(_convert(value, scale_obj * d), x, optimal)


def solve_lp(objective, rows, senses, rhs, maximize=False) -> LPSolution:
    """Optimize c.x over {x >= 0 : A x (senses) b}; exact optimum and witness."""
    return phase2(phase1(rows, senses, rhs, len(objective)), objective, maximize)


def _convert(num, den):
    """num / den back to Fraction, or to EpsRational over Z[eps]."""
    if num.__class__ is int:
        return Fraction(num, den)
    return EpsRational._make(num, den)


def feasible_point(rows, senses, rhs):
    """Phase-1 only: a nonnegative solution of the constraints, or None."""
    try:
        return phase1(rows, senses, rhs, len(rows[0])).point()
    except Infeasible:
        return None
