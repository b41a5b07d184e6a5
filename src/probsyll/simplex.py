"""Exact two-phase simplex over an ordered field.

Works with any exact numeric type supporting field arithmetic and total order
against int 0/1 (Fraction, or the Q(eps) infinitesimal field).  Dense tableau,
Bland's anti-cycling rule, so the solver is deterministic and terminates.

Problems are given in the form

    minimize / maximize  c . x
    subject to           A_i . x  (<= | = | >=)  b_i,   x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def _pivot(T, basis, cost_row, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for i, r in enumerate(T):
        if i != row and r[col] != 0:
            factor = r[col]
            T[i] = [a - factor * b for a, b in zip(r, T[row])]
    if cost_row[col] != 0:
        factor = cost_row[col]
        prow = T[row]
        for j in range(len(cost_row)):
            cost_row[j] = cost_row[j] - factor * prow[j]
    basis[row] = col


def _reduced_costs(T, basis, cost):
    """cost row [c_1..c_N, -z] after eliminating the basic columns."""
    row = list(cost) + [0]
    for i, bi in enumerate(basis):
        if row[bi] != 0:
            factor = row[bi]
            trow = T[i]
            for j in range(len(row)):
                row[j] = row[j] - factor * trow[j]
    return row


def _iterate(T, basis, cost_row, ncols):
    """Bland's rule minimization until optimal; raises Unbounded."""
    while True:
        enter = None
        for j in range(ncols):
            if cost_row[j] < 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(T):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise Unbounded("objective unbounded below")
        _pivot(T, basis, cost_row, leave, enter)


def _exact(value):
    # ints must become Fractions up front: int / int is float division.
    return Fraction(value) if isinstance(value, int) else value


def solve_lp(objective, rows, senses, rhs, maximize=False) -> LPSolution:
    """Optimize c.x over {x >= 0 : A x (senses) b}; exact optimum and witness."""
    objective = [_exact(c) for c in objective]
    rows = [[_exact(v) for v in row] for row in rows]
    rhs = [_exact(b) for b in rhs]
    nvar = len(objective)
    nrows = len(rows)
    assert len(senses) == nrows and len(rhs) == nrows

    # Slack/surplus columns for inequalities.
    slack_cols = [i for i, s in enumerate(senses) if s != "="]
    nslack = len(slack_cols)
    ncols = nvar + nslack + nrows  # + one artificial per row
    T = []
    for i in range(nrows):
        row = list(rows[i]) + [Fraction(0)] * (nslack + nrows) + [rhs[i]]
        if senses[i] == "<=":
            row[nvar + slack_cols.index(i)] = Fraction(1)
        elif senses[i] == ">=":
            row[nvar + slack_cols.index(i)] = Fraction(-1)
        elif senses[i] != "=":
            raise ValueError(f"bad sense {senses[i]!r}")
        if row[-1] < 0:
            row = [-v for v in row[:-1]] + [-row[-1]]
        row[nvar + nslack + i] = Fraction(1)
        T.append(row)

    basis = [nvar + nslack + i for i in range(nrows)]

    # Phase 1: minimize the sum of artificials.
    phase1_cost = [0] * (nvar + nslack) + [1] * nrows
    cost_row = _reduced_costs(T, basis, phase1_cost)
    _iterate(T, basis, cost_row, ncols)
    if -cost_row[-1] != 0:  # cost row stores -z in its last entry
        raise Infeasible("phase 1 optimum is positive")

    # Drive any leftover artificials out of the basis.
    drop_rows = []
    for i in range(nrows):
        if basis[i] >= nvar + nslack:
            piv_col = None
            for j in range(nvar + nslack):
                if T[i][j] != 0:
                    piv_col = j
                    break
            if piv_col is None:
                drop_rows.append(i)  # redundant row
            else:
                _pivot(T, basis, cost_row, i, piv_col)
    for i in reversed(drop_rows):
        del T[i]
        del basis[i]

    # Phase 2 on the original columns only.
    ncols = nvar + nslack
    T = [row[:ncols] + [row[-1]] for row in T]
    sign = -1 if maximize else 1
    phase2_cost = [sign * c for c in objective] + [0] * nslack
    cost_row = _reduced_costs(T, basis, phase2_cost)
    _iterate(T, basis, cost_row, ncols)

    x = [Fraction(0)] * nvar
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = T[i][-1]
    value = sum((c * v for c, v in zip(objective, x)), start=Fraction(0))
    return LPSolution(value, x)


def feasible_point(rows, senses, rhs):
    """Phase-1 only: a nonnegative solution of the constraints, or None."""
    try:
        sol = solve_lp([0] * len(rows[0]), rows, senses, rhs)
    except Infeasible:
        return None
    return sol.x
