"""Exact two-phase simplex over Q and Q(eps), fraction-free, on integers only.

Problems are given in the form

    minimize / maximize  c . x
    subject to           A_i . x  (<= | = | >=)  b_i,   x >= 0,

with entries int, Fraction or EpsRational, and solved exactly: the optimum
and the witness x come back as Fraction (EpsRational when some entry is one).

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
last row of M and is pivoted the same way: it holds d times the reduced costs
(times the positive lcm of the objective's denominators in phase 2), so the
pivot rule reads only its signs, and its last entry is -d times the optimum.
Bland's rule (first entering column with a negative reduced cost, ratio test
by cross-multiplication, ties to the smallest basic index) therefore makes
the same choices as on the Fraction tableau, and the solver is deterministic,
terminates, and returns the same optimum, witness and exceptions.

Q(eps) runs on the same integer tableau, with eps = 1/Y and Y = 2^bits.
Phase 1 scales each row, rhs included, to Z[eps] (the integer polynomials of
infinitesimals.py): c_i is then a positive common multiple of the row's
denominators, times any non-constant one.  Row i has degree D_i, the largest
degree among its entries, its rhs and c_i, and becomes the integer row
Y^D_i * s_i(1/Y).  Evaluating at 1/Y is a ring map and every division is
exact, so each integer entry is Y^D * P(1/Y), D = sum_i D_i, for the entry P
of the tableau over Z[eps] (Y^(D + D_c) for the cost row of an objective of
degree D_c), provided the pivots are the same.  They are, by this bound.

- Every sign and zero test is one minor.  Entries, d, reduced costs, the
  optimum and the tests rhs < 0 (phase 1's row flip), p < 0, cost < 0,
  a > 0 and a != 0 read minors of [S; c] of order <= r = nrows + 1, where S
  holds the scaled rows (entries, +-c_i, rhs) and c the scaled objective.
  So does the ratio test: rhs_i * a_l - rhs_l * a_i is d times the rhs that
  row i would have after pivoting on (l, e), and d > 0.  (p != d in the
  pivot reads no sign: the integer tableau is exact whichever branch runs.)
- Let ||p||_1 be the sum of |coefficients| of p.  A minor over rows R takes
  one entry per row, so ||P||_1 <= |R|! * prod_(i in R) max_j ||s_ij||_1,
  and as |R| <= r and every factor below is >= 1, that is at most B * C with
      B = prod_i r * max_j ||s_ij||_1   (j over row i's entries, rhs and c_i),
      C = r * max_j ||c_j||_1           (C = r for phase 1's unit costs).
  Only each row's largest entry counts, never the width of the row.
- With 2^bits > 2 * B * C every coefficient of P is below Y/2 in size, so
  P(1/Y) has the sign of P's lowest-order coefficient, its sign for small
  positive eps, and the integer tableau takes the pivots of the one over
  Z[eps].  P comes back exactly from the D + 1 balanced base-Y digits of
  Y^D * P(1/Y), and so do the witness and the optimum, whose numerator and
  d are decoded separately.

Phase 1 picks bits for its own C = r.  A phase 2 whose objective needs more
bits re-encodes the tableau once, each entry's digits read out at the old Y
and back in at the new.  A tableau over Q has D = 0, so a Q(eps) objective
there re-encodes nothing and only picks bits for its cost row; B comes from
the scaled rows the tableau keeps, and is computed only then.

Redundant equality rows keep their artificial basic at 0 instead of being
deleted: they are zero on every other column, and deleting one would break
the exactness of the division by d.

Phase 1, phase 2 and faces share two routines of `FeasibleBasis`:
`_optimize` runs Bland's rule from a feasible basis for costs over the
tableau columns, and `_drop` drives given columns out of the basis by
degenerate pivots, then deletes them.  Deleting non-basic columns keeps
M / d = B^-1 A exact on the columns left, so later pivots are those of the
system without them.

Phase 1 is a face: the problem's solutions are the face {artificials = 0} of
the system with one artificial per row.  `phase1` optimizes the sum of the
artificials from their identity basis, raises Infeasible on a positive
minimum and drops them.  It never reads an objective, so one phase 1 serves
every objective over the same rows: `phase2` optimizes one on a copy of the
basis, pivoting exactly as a separate solve would, and returns the optimum
and the optimal basis, from which the vertex is read on demand.  `solve_lp`
is `phase1` then `phase2`.

A face {x : x_j = 0 for j in J} of the feasible region needs no new phase 1
either: `FeasibleBasis.face` runs a phase 2 minimizing sum_{j in J} x_j
(none when the basic solution is already zero on J), reads a positive
minimum as an empty face, and drops the columns of J.  `cols` names each
tableau column in the original numbering, so `point`, `support` and
`phase2` take and return vectors over all nvar variables.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional

from .infinitesimals import EpsRational, _Poly


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


def _norm(p):
    """||p||_1, the sum of the sizes of p's coefficients."""
    return sum(map(abs, p.c))


def _encode(p, deg, bits):
    """Y^deg * p(1/Y) for Y = 2^bits and p in Z[eps] of degree <= deg."""
    v = 0
    for x in p.c:
        v = (v << bits) + x
    return v << bits * (deg + 1 - len(p.c))


def _decode(v, deg, bits):
    """The p in Z[eps] of degree <= deg with Y^deg * p(1/Y) = v, Y = 2^bits,
    read from the deg + 1 balanced base-Y digits of v, which are p's
    coefficients when each is below Y/2 in size."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []  # eps^deg first
    for _ in range(deg + 1):
        t = v & mask
        if t >= half:
            t -= mask + 1
        digits.append(t)
        v = (v - t) >> bits
    assert not v, "a coefficient exceeds the bound"
    digits.reverse()
    while digits and not digits[-1]:
        digits.pop()
    return _Poly(tuple(digits))


def _substitute(scaled):
    """Rows (s_i, c_i) scaled to Z[eps] as the integer rows Y^D_i * s_i(1/Y),
    with bits for phase 1's cost row: (rows, (bits, sum_i D_i), B)."""
    r = len(scaled) + 1
    degs, bound = [], 1
    for srow, c in scaled:
        degs.append(max(len(p.c) for p in (*srow, c)) - 1)
        bound *= r * max(map(_norm, (*srow, c)))
    bits = (2 * bound * r).bit_length()
    rows = [([_encode(p, deg, bits) for p in srow], _encode(c, deg, bits))
            for (srow, c), deg in zip(scaled, degs)]
    return rows, (bits, sum(degs)), bound


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
    then the artificials come after them.  eps is None over Q, else
    (bits, deg): the tableau over Z[eps], of total row degree deg, at
    eps = 2^-bits.  bound is the row bound B, or over Q the scaled rows
    (row, c_i) it is computed from once a Q(eps) objective needs it.
    """

    __slots__ = ("nvar", "cols", "eps", "bound")

    def __init__(self, rows, d, basis, nvar, cols, eps, bound):
        self.rows = rows
        self.d = d
        self.basis = basis
        self.nvar = nvar
        self.cols = cols
        self.eps = eps
        self.bound = bound

    def support(self) -> set:
        """The variables the basic solution makes positive."""
        cols, nv = self.cols, bisect(self.cols, self.nvar - 1)  # variables come first
        return {cols[bi] for row, bi in zip(self.rows, self.basis) if bi < nv and row[-1]}

    def point(self) -> list:
        """The basic solution x, as Fraction (EpsRational over Q(eps))."""
        x = [Fraction(0)] * self.nvar
        cols, nv = self.cols, bisect(self.cols, self.nvar - 1)
        values = [(cols[bi], row[-1]) for row, bi in zip(self.rows, self.basis) if bi < nv]
        if self.eps is None:
            for j, v in values:
                x[j] = Fraction(v, self.d)
            return x
        bits, deg = self.eps
        d = _decode(self.d, deg, bits)
        for j, v in values:
            x[j] = EpsRational._make(_decode(v, deg, bits), d)
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

    def _optimize(self, costs):
        """Bland's rule minimizing sum_t costs[t] x_t from this basis, which is
        left as it was; costs maps tableau columns to their nonzero integer
        costs.  Returns the optimal basis and its d times the minimum."""
        rows, d = self.rows, self.d
        # The cost row d * (c - c_B B^-1 A): minus c_B times the rows, which
        # is -d * c_t on a basic column t, then plus d * c.
        cost = [0] * (len(self.cols) + 1)
        for row, bi in zip(rows, self.basis):
            f = costs.get(bi, 0)
            if f == 1:  # all of phase 1's costs: no multiply
                cost = [k - a for k, a in zip(cost, row)]
            elif f:
                cost = [k - f * a for k, a in zip(cost, row)]
        for t, v in costs.items():
            cost[t] += d * v
        tab = FeasibleBasis(list(rows) + [cost], d, list(self.basis), self.nvar, self.cols,
                            self.eps, self.bound)
        tab.iterate()
        return tab, -tab.rows.pop()[-1]  # the cost row ends in -d times the minimum

    def _drop(self, columns) -> "FeasibleBasis":
        """This basis with the tableau columns in columns, on which the basic
        solution is zero, deleted.  A row whose basic column is one of them
        first pivots on its first nonzero entry in a column kept; a row with
        none is redundant."""
        ncols = len(self.cols)
        tab = FeasibleBasis(list(self.rows), self.d, list(self.basis), self.nvar, self.cols,
                            self.eps, self.bound)
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

    def _encoded(self, cnorm) -> "FeasibleBasis":
        """This basis over Z[eps] with bits for a cost row whose largest entry
        has ||c_j||_1 = cnorm: itself, or the same tableau at a larger Y.  A
        tableau over Q keeps its entries, which are of degree 0."""
        r = len(self.rows) + 1
        bound = self.bound
        if bound.__class__ is not int:
            bound = prod(r * max(c, *map(abs, row)) for row, c in bound)
        bits = (2 * bound * r * cnorm).bit_length()
        if self.eps is None:
            return FeasibleBasis(self.rows, self.d, self.basis, self.nvar, self.cols,
                                 (bits, 0), bound)
        old, deg = self.eps
        if bits <= old:
            return self

        def recode(v):
            return _encode(_decode(v, deg, old), deg, bits)

        return FeasibleBasis([[recode(v) for v in row] for row in self.rows], recode(self.d),
                             self.basis, self.nvar, self.cols, (bits, deg), bound)


def phase1(rows, senses, rhs, nvar) -> FeasibleBasis:
    """A feasible basis of {x >= 0 : A x (senses) b} over nvar variables.

    Works over Z[eps], substituted into Z, when some entry of rows or rhs is
    an EpsRational, else over Z.  Raises Infeasible when there is no
    nonnegative solution.
    """
    nrows = len(rows)
    assert len(senses) == nrows and len(rhs) == nrows
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")

    # Each row scaled to Z / Z[eps] by its own c_i > 0, the rhs last, and a
    # row over Z[eps] substituted into Z.
    if any(EpsRational in set(map(type, vec)) for vec in (rhs, *rows)):
        scaled, eps, bound = _substitute(
            [_scale_eps(list(row) + [b]) for row, b in zip(rows, rhs)])
    else:
        scaled = [_scale_int(list(row) + [b]) for row, b in zip(rows, rhs)]
        eps, bound = None, scaled
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
    start = FeasibleBasis(M, d, list(artificials), nvar, range(ncols), eps, bound)
    optimal, minimum = start._optimize(dict.fromkeys(artificials, 1))
    if minimum:
        raise Infeasible("phase 1 optimum is positive")
    return optimal._drop(artificials)


def phase2(start: FeasibleBasis, objective, maximize=False) -> LPSolution:
    """Optimize c.x from a feasible basis, which is left as it was; the
    solution carries the optimal basis.  c is over all nvar variables."""
    nvar, cols = start.nvar, start.cols
    objective = [objective[j] if j < nvar else 0 for j in cols]
    sign = -1 if maximize else 1
    if start.eps is None and EpsRational not in set(map(type, objective)):
        # The objective scaled to Z by the lcm of its denominators.
        obj, scale = _scale_int(objective)
        optimal, minimum = start._optimize({t: sign * v for t, v in enumerate(obj) if v})
        return LPSolution(Fraction(sign * minimum, scale * optimal.d), optimal)

    # Over Q(eps): the objective scaled to Z[eps], on a tableau with bits for
    # it, then substituted; the optimum's numerator and d decoded apart.
    obj, scale = _scale_eps(objective)
    deg = max([len(p.c) - 1 for p in obj] + [0])
    start = start._encoded(max([_norm(p) for p in obj] + [1]))
    bits, rows_deg = start.eps
    optimal, minimum = start._optimize(
        {t: sign * _encode(p, deg, bits) for t, p in enumerate(obj) if p})
    value = EpsRational._make(_decode(sign * minimum, rows_deg + deg, bits),
                              scale * _decode(optimal.d, rows_deg, bits))
    return LPSolution(value, optimal)


def solve_lp(objective, rows, senses, rhs, maximize=False) -> LPSolution:
    """Optimize c.x over {x >= 0 : A x (senses) b}; exact optimum and witness."""
    return phase2(phase1(rows, senses, rhs, len(objective)), objective, maximize)

