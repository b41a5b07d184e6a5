"""Exact two-phase simplex over Q and Q(eps), fraction-free.

Problems are given in the form

    minimize / maximize  c . x
    subject to           A_i . x  (<= | = | >=)  b_i,   x >= 0,

with entries int, Fraction or EpsRational, and solved exactly: the optimum
and the witness x come back as Fraction (EpsRational when some entry is one).

The tableau is held over the integers (over Z[eps], integer polynomials in
the infinitesimal, when some entry is an EpsRational) and pivoted by the
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

In Z[eps] an element is ordered by the sign of its lowest-order nonzero
coefficient, its eventual sign for small positive eps.  Redundant equality
rows keep their artificial basic at 0 instead of being deleted: they are zero
on every other column, and deleting one would break the exactness of the
division by d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .infinitesimals import EpsRational


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


class _Poly:
    """An element of Z[eps]: integer coefficients, low order first, no trailing zeros.

    Offers what the tableau needs: *, +, -, unary -, exact //, truth value, ==,
    and < / > against another element or against int 0.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = coeffs

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return _PZERO
        if len(a) == 1:
            k = a[0]
            return _Poly(tuple(k * y for y in b))
        if len(b) == 1:
            k = b[0]
            return _Poly(tuple(x * k for x in a))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _Poly(tuple(out))

    def __add__(self, other):
        return self - -other

    def __sub__(self, other):
        a, b = self.c, other.c
        n = len(b)
        if len(a) > n:
            return _Poly(tuple(x - y for x, y in zip(a, b)) + a[n:])
        out = [x - y for x, y in zip(a, b)] + [-y for y in b[len(a):]]
        while out and not out[-1]:
            out.pop()
        return _Poly(tuple(out))

    def __neg__(self):
        return _Poly(tuple(-x for x in self.c))

    def __floordiv__(self, other):
        """The quotient of an exact division, as every division in the tableau is."""
        b = other.c
        if len(b) == 1:
            k = b[0]
            return _Poly(tuple(x // k for x in self.c))
        a = list(self.c)
        nb, lead = len(b), b[-1]
        q = [0] * max(len(a) - nb + 1, 0)
        for k in range(len(q) - 1, -1, -1):
            t = a[k + nb - 1]
            if t:
                qk, rem = divmod(t, lead)
                if rem:
                    raise ArithmeticError("inexact division in Z[eps]")
                q[k] = qk
                for j, y in enumerate(b):
                    a[k + j] -= qk * y
        if any(a):
            raise ArithmeticError("inexact division in Z[eps]")
        return _Poly(tuple(q))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return self.c == other.c

    __hash__ = None

    def _sign(self, other) -> int:
        coeffs = self.c if other.__class__ is int else (self - other).c
        for x in coeffs:
            if x:
                return 1 if x > 0 else -1
        return 0

    def __lt__(self, other):
        return self._sign(other) < 0

    def __gt__(self, other):
        return self._sign(other) > 0


_PZERO = _Poly(())


def _scale_int(values):
    """values times the lcm c of their denominators, as ints; (row, c)."""
    c = lcm(*[v.denominator for v in values])
    if c == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (c // v.denominator) for v in values], c


def _eps_parts(v):
    """v = num / den with num, den integer coefficient tuples and den > 0."""
    if isinstance(v, EpsRational):
        num, den = v.num, v.den  # Fraction coefficients; den's lowest is 1
        k = lcm(*[x.denominator for x in num + den])
        return (tuple(x.numerator * (k // x.denominator) for x in num),
                tuple(x.numerator * (k // x.denominator) for x in den))
    return ((v.numerator,) if v else ()), (v.denominator,)


def _scale_eps(values):
    """values times a positive common multiple c of their denominators, in Z[eps]."""
    parts = [_eps_parts(v) for v in values]
    c = _Poly((lcm(*[den[0] for _, den in parts if len(den) == 1]),))
    for den in dict.fromkeys(den for _, den in parts if len(den) > 1):
        c = c * _Poly(den)
    return [_Poly(num) * (c // _Poly(den)) for num, den in parts], c


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


def solve_lp(objective, rows, senses, rhs, maximize=False) -> LPSolution:
    """Optimize c.x over {x >= 0 : A x (senses) b}; exact optimum and witness."""
    nvar = len(objective)
    nrows = len(rows)
    assert len(senses) == nrows and len(rhs) == nrows
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")
    eps = any(isinstance(v, EpsRational)
              for vec in (objective, rhs, *rows) for v in vec)
    scale = _scale_eps if eps else _scale_int
    zero = _PZERO if eps else 0

    # Each row scaled to Z / Z[eps] by its own c_i > 0, the rhs last.
    scaled = [scale(list(row) + [b]) for row, b in zip(rows, rhs)]
    d = _Poly((1,)) if eps else 1
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

    # Phase 1: minimize the sum of artificials; the cost row is d times the
    # reduced costs, 0 on the basic artificials.
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

    # Phase 2 on the original and slack columns only, with the objective
    # scaled to Z / Z[eps] by the positive lcm of its denominators.
    M = [row[:nkeep] + [row[-1]] for row in tab.rows[:-1]]
    obj, scale_obj = scale(list(objective))
    costs = [-v if maximize else v for v in obj] + [zero] * nslack
    cost = [tab.d * v for v in costs] + [zero]
    for row, bi in zip(M, basis):
        if bi < nkeep and costs[bi]:
            f = costs[bi]
            cost = [k - f * a for k, a in zip(cost, row)]
    tab.rows = M + [cost]
    tab.iterate(nkeep)

    d = tab.d
    x = [Fraction(0)] * nvar
    value = zero
    for row, bi in zip(tab.rows, basis):
        if bi < nvar:
            x[bi] = _convert(row[-1], d)
            value = value + obj[bi] * row[-1]
    return LPSolution(_convert(value, scale_obj * d), x)


def _convert(num, den):
    """num / den back to Fraction, or to EpsRational over Z[eps]."""
    if num.__class__ is int:
        return Fraction(num, den)
    return EpsRational.from_coefficients(num.c, den.c)


def feasible_point(rows, senses, rhs):
    """Phase-1 only: a nonnegative solution of the constraints, or None."""
    try:
        sol = solve_lp([0] * len(rows[0]), rows, senses, rhs)
    except Infeasible:
        return None
    return sol.x
