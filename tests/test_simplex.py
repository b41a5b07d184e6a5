"""Exact two-phase simplex over Fraction and over the infinitesimal field."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from probsyll import EPS, EpsRational
from probsyll.simplex import Infeasible, Unbounded, feasible_point, solve_lp

F = Fraction


class TestBasics:
    def test_maximize_on_simplex(self):
        sol = solve_lp([3, 1, 2], [[1, 1, 1]], ["="], [1], maximize=True)
        assert sol.value == 3
        assert sol.x == [1, 0, 0]

    def test_minimize_on_simplex(self):
        sol = solve_lp([3, 1, 2], [[1, 1, 1]], ["="], [1])
        assert sol.value == 1
        assert sol.x == [0, 1, 0]

    def test_inequalities(self):
        # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6
        sol = solve_lp([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6],
                       maximize=True)
        assert sol.value == F(14, 5)
        assert sol.x == [F(8, 5), F(6, 5)]

    def test_geq_constraints(self):
        # min x + y  s.t.  x + y >= 2, x >= 1/2
        sol = solve_lp([1, 1], [[1, 1], [1, 0]], [">=", ">="], [2, F(1, 2)])
        assert sol.value == 2

    def test_exact_fractions(self):
        sol = solve_lp([1], [[F(1, 3)]], ["="], [F(1, 7)], maximize=True)
        assert sol.value == F(3, 7)
        assert isinstance(sol.value, Fraction)

    def test_negative_rhs_normalized(self):
        # x - y = -1, x + y = 3  ->  x = 1, y = 2
        sol = solve_lp([1, 0], [[1, -1], [1, 1]], ["=", "="], [-1, 3])
        assert sol.x == [1, 2]

    def test_redundant_row_dropped(self):
        sol = solve_lp([1, 1], [[1, 1], [2, 2]], ["=", "="], [1, 2],
                       maximize=True)
        assert sol.value == 1

    def test_round_trip(self):
        sol = solve_lp((1, 2), ((1, 1),), ("<=",), (1,), maximize=True)
        assert sol.value == 2
        assert sol.x == [0, 1]

    def test_minimize_default(self):
        assert solve_lp((1, 2), ((1, 1),), ("=",), (1,)).value == 1

    def test_degenerate_no_cycle(self):
        # Klee-Minty-ish degeneracy; Bland's rule must terminate.
        sol = solve_lp([1, 1, 1],
                       [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
                       ["<=", "<=", "<="], [0, 0, 1], maximize=True)
        assert sol.value == 1


class TestErrors:
    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([1], [[1], [1]], ["=", "="], [0, 1])

    def test_infeasible_inequalities(self):
        with pytest.raises(Infeasible):
            solve_lp([1, 1], [[1, 1], [1, 1]], ["<=", ">="], [1, 2])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([1], [[1]], [">="], [1], maximize=True)

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            solve_lp([1], [[1]], ["!!"], [1])


class TestFeasiblePoint:
    def test_witness_satisfies_rows(self):
        rows = [[1, 1, 1], [1, 0, -1]]
        x = feasible_point(rows, ["=", "="], [1, 0])
        assert x is not None
        assert sum(x) == 1 and x[0] == x[2]
        assert all(v >= 0 for v in x)

    def test_none_when_infeasible(self):
        assert feasible_point([[1], [1]], ["=", "="], [0, 1]) is None


class TestEpsilonField:
    def test_optimum_with_infinitesimal_bound(self):
        sol = solve_lp([1], [[1]], ["<="], [1 - EPS], maximize=True)
        assert sol.value == 1 - EPS

    def test_strict_positivity_encoded_as_eps(self):
        # max -x  s.t. x >= eps  (i.e. min x over x > 0)
        sol = solve_lp([-1], [[1]], [">="], [EPS], maximize=True)
        assert -sol.value == EPS

    def test_mixed_rational_eps_rows(self):
        # max x + y  s.t.  x + y <= 1, y <= eps
        sol = solve_lp([1, 2], [[1, 1], [0, 1]], ["<=", "<="], [1, EPS],
                       maximize=True)
        assert sol.value == 1 + EPS
        assert sol.x[1] == EPS


class TestRandomized:
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                    min_size=1, max_size=5))
    def test_linear_objective_over_simplex(self, costs):
        sol = solve_lp(costs, [[1] * len(costs)], ["="], [1], maximize=True)
        assert sol.value == max(costs)
        assert sum(sol.x) == 1

    @given(st.integers(min_value=1, max_value=6),
           st.fractions(min_value=0, max_value=1, max_denominator=10))
    def test_box_constrained_scalar(self, scale, cap):
        # max scale*x  s.t.  x <= cap
        sol = solve_lp([scale], [[1]], ["<="], [cap], maximize=True)
        assert sol.value == scale * cap


# ---------------------------------------------------------------------------
# An independent oracle: every vertex of {x >= 0 : A x = b}, by Gaussian
# elimination over each set of columns, in plain field arithmetic.
# ---------------------------------------------------------------------------

def _support_solution(A, b, cols):
    """The x with support in cols that solves A x = b, or None when the
    columns are dependent or the system is inconsistent."""
    M = [[row[c] for c in cols] + [bi] for row, bi in zip(A, b)]
    r = 0
    for c in range(len(cols)):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            return None
        M[r], M[piv] = M[piv], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [u - f * v for u, v in zip(M[i], M[r])]
        r += 1
    if any(M[i][-1] != 0 for i in range(r, len(M))):
        return None
    x = [F(0)] * len(A[0])
    for k, c in enumerate(cols):
        x[c] = M[k][-1]
    return x


def _brute_force(objective, rows, senses, rhs, maximize):
    """Optimum over the vertices of the standard form; None if there are none."""
    def field(v):  # ints would divide as floats
        return v if isinstance(v, EpsRational) else F(v)

    slacks = [i for i, s in enumerate(senses) if s != "="]
    A = [[field(v) for v in row]
         + [F({"<=": 1, ">=": -1}[senses[k]]) if k == i else F(0) for k in slacks]
         for i, row in enumerate(rows)]
    b = [field(v) for v in rhs]
    best = None
    for size in range(len(A) + 1):
        for cols in combinations(range(len(A[0])), size):
            x = _support_solution(A, b, cols)
            if x is None or any(v < 0 for v in x):
                continue
            value = sum((c * v for c, v in zip(objective, x)), F(0))
            if best is None or (value > best if maximize else value < best):
                best = value
    return best


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _entries(draw, values=_small):
    """A rational, or a + b*eps with rational a and b."""
    value = draw(values)
    if draw(st.integers(0, 3)) == 0:
        value = value + draw(_small.filter(bool)) * EPS
    return value


@st.composite
def _bounded_lps(draw):
    """<= 4 variables, sum x <= U plus <= 2 further rows, and one row repeated."""
    nvar = draw(st.integers(1, 4))
    rows = [[1] * nvar]
    senses = ["<="]
    rhs = [draw(_entries(_small.map(abs)))]
    for _ in range(draw(st.integers(0, 2))):
        rows.append([draw(_entries()) for _ in range(nvar)])
        senses.append(draw(st.sampled_from(["<=", "=", ">="])))
        rhs.append(draw(_entries()))
    k = draw(st.integers(0, len(rows) - 1))
    rows.append(list(rows[k]))
    senses.append(senses[k])
    rhs.append(rhs[k])
    objective = [draw(_entries()) for _ in range(nvar)]
    return objective, rows, senses, rhs, draw(st.booleans())


class TestVertexOracle:
    @settings(max_examples=60, deadline=None)
    @given(_bounded_lps())
    def test_optimum_matches_vertex_enumeration(self, lp):
        objective, rows, senses, rhs, maximize = lp
        best = _brute_force(objective, rows, senses, rhs, maximize)
        if best is None:
            with pytest.raises(Infeasible):
                solve_lp(objective, rows, senses, rhs, maximize=maximize)
            return
        sol = solve_lp(objective, rows, senses, rhs, maximize=maximize)
        assert sol.value == best
        assert sum((c * v for c, v in zip(objective, sol.x)), F(0)) == best
        assert all(v >= 0 for v in sol.x)
        for row, sense, b in zip(rows, senses, rhs):
            lhs = sum((a * v for a, v in zip(row, sol.x)), F(0))
            assert {"<=": lhs <= b, "=": lhs == b, ">=": lhs >= b}[sense]
