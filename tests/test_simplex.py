"""Exact two-phase simplex over Fraction and over the infinitesimal field."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from probsyll import EPS
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
