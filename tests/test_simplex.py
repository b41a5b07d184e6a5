"""Exact two-phase simplex over Fraction and over the infinitesimal field.

Every objective is 0/1, the mass on a set of variables: the only kind the
solver takes.  Weighted optima are still exercised through the rows."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from probsyll import EPS, EpsRational
from probsyll.simplex import Infeasible, Unbounded, phase1, phase2, solve_lp

F = Fraction


class TestBasics:
    def test_maximize_on_simplex(self):
        sol = solve_lp([0, 1, 0], [[1, 1, 1]], ["="], [1], maximize=True)
        assert sol.value == 1
        assert sol.x == [0, 1, 0]

    def test_minimize_on_simplex(self):
        sol = solve_lp([1, 0, 1], [[1, 1, 1]], ["="], [1])
        assert sol.value == 0
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
        sol = solve_lp((0, 1), ((1, 2),), ("<=",), (1,), maximize=True)
        assert sol.value == F(1, 2)
        assert sol.x == [0, F(1, 2)]

    def test_minimize_default(self):
        assert solve_lp((1, 0), ((1, 1),), ("=",), (1,)).value == 0

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

    @pytest.mark.parametrize("entry", [2, -1, F(1, 2), EPS, 1 + EPS])
    def test_objective_not_zero_one(self, entry):
        start = phase1([[1, 1]], ["<="], [1], 2)
        with pytest.raises(ValueError):
            phase2(start, [1, entry])


class TestFeasiblePoint:
    def test_witness_satisfies_rows(self):
        rows = [[1, 1, 1], [1, 0, -1]]
        x = phase1(rows, ["=", "="], [1, 0], 3).point()
        assert x is not None
        assert sum(x) == 1 and x[0] == x[2]
        assert all(v >= 0 for v in x)

    def test_none_when_infeasible(self):
        with pytest.raises(Infeasible):
            phase1([[1], [1]], ["=", "="], [0, 1], 1)


class TestEpsilonField:
    def test_optimum_with_infinitesimal_bound(self):
        sol = solve_lp([1], [[1]], ["<="], [1 - EPS], maximize=True)
        assert sol.value == 1 - EPS

    def test_strict_positivity_encoded_as_eps(self):
        # min x  s.t. x >= eps  (i.e. min x over x > 0)
        sol = solve_lp([1], [[1]], [">="], [EPS])
        assert sol.value == EPS

    def test_mixed_rational_eps_rows(self):
        # max x + y  s.t.  x + 2y <= 1, y >= eps
        sol = solve_lp([1, 1], [[1, 2], [0, 1]], ["<=", ">="], [1, EPS],
                       maximize=True)
        assert sol.value == 1 - EPS
        assert sol.x == [1 - 2 * EPS, EPS]


class TestRandomized:
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=5))
    def test_linear_objective_over_simplex(self, costs):
        sol = solve_lp(costs, [[1] * len(costs)], ["="], [1], maximize=True)
        assert sol.value == max(costs)
        assert sum(sol.x) == 1

    @given(st.integers(min_value=1, max_value=6),
           st.fractions(min_value=0, max_value=1, max_denominator=10))
    def test_box_constrained_scalar(self, scale, cap):
        # max x  s.t.  scale*x <= cap
        sol = solve_lp([1], [[scale]], ["<="], [cap], maximize=True)
        assert sol.value == cap / scale


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
_unit = st.sampled_from([0, 1])  # an objective entry


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
    objective = [draw(_unit) for _ in range(nvar)]
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


@st.composite
def _shared_rows(draw):
    """One bounded LP's rows with up to four objectives over them."""
    _objective, rows, senses, rhs, _maximize = draw(_bounded_lps())
    nvar = len(rows[0])
    objectives = draw(st.lists(
        st.tuples(st.lists(_unit, min_size=nvar, max_size=nvar), st.booleans()),
        min_size=1, max_size=4))
    return rows, senses, rhs, objectives


class TestWarmPhase2:
    @settings(max_examples=60, deadline=None)
    @given(_shared_rows())
    def test_one_phase1_many_objectives(self, lp):
        # Phase 2 from one shared phase 1 takes the same Bland path as a
        # solve_lp per objective, so it returns the same optimum and vertex.
        rows, senses, rhs, objectives = lp
        try:
            start = phase1(rows, senses, rhs, len(rows[0]))
        except Infeasible:
            with pytest.raises(Infeasible):
                phase1(rows, senses, rhs, len(rows[0]))
            for objective, maximize in objectives:
                with pytest.raises(Infeasible):
                    solve_lp(objective, rows, senses, rhs, maximize=maximize)
            return
        assert start.point() == phase1(rows, senses, rhs, len(rows[0])).point()
        for objective, maximize in objectives:
            cold = solve_lp(objective, rows, senses, rhs, maximize=maximize)
            warm = phase2(start, objective, maximize=maximize)
            assert warm.value == cold.value
            assert warm.x == cold.x
        assert start.point() == phase1(rows, senses, rhs, len(rows[0])).point()


@st.composite
def _faces(draw):
    """One bounded LP's rows, a proper subset of its variables to hold at
    zero, and three objectives."""
    _objective, rows, senses, rhs, _maximize = draw(
        _bounded_lps().filter(lambda lp: len(lp[1][0]) >= 2))
    nvar = len(rows[0])
    fixed = draw(st.sets(st.integers(0, nvar - 1), min_size=1, max_size=nvar - 1))
    objectives = draw(st.lists(
        st.tuples(st.lists(_unit, min_size=nvar, max_size=nvar), st.booleans()),
        min_size=3, max_size=3))
    return rows, senses, rhs, fixed, objectives


class TestFace:
    def test_empty_face(self):
        # x0 + x1 = 1 and x0 - x1 = 1 force x0 = 1, so x0 = 0 has no solution.
        start = phase1([[1, 1], [1, -1]], ["=", "="], [1, 1], 2)
        assert start.face({0}) is None
        assert start.face({1}).point() == [1, 0]

    @settings(max_examples=60, deadline=None)
    @given(_faces())
    def test_face_matches_deleted_columns(self, lp):
        # The face x_j = 0 (j in fixed) of a phase-1 basis is the system with
        # those columns deleted: same feasibility, same optima, and its
        # points are read in the original numbering.
        rows, senses, rhs, fixed, objectives = lp
        nvar = len(rows[0])
        kept = [j for j in range(nvar) if j not in fixed]
        smaller = [[row[j] for j in kept] for row in rows]
        try:
            start = phase1(rows, senses, rhs, nvar)
        except Infeasible:
            with pytest.raises(Infeasible):
                phase1(smaller, senses, rhs, len(kept))
            return
        before = start.point()
        face = start.face(fixed)
        assert start.point() == before
        if face is None:
            with pytest.raises(Infeasible):
                phase1(smaller, senses, rhs, len(kept))
            return
        assert all(face.point()[j] == 0 for j in fixed)
        for objective, maximize in objectives:
            cold = solve_lp([objective[j] for j in kept], smaller, senses, rhs,
                            maximize=maximize)
            warm = phase2(face, objective, maximize=maximize)
            assert warm.value == cold.value
            assert all(warm.x[j] == 0 for j in fixed)
            for row, sense, b in zip(rows, senses, rhs):
                lhs = sum((a * v for a, v in zip(row, warm.x)), F(0))
                assert {"<=": lhs <= b, "=": lhs == b, ">=": lhs >= b}[sense]


# (a0 + a1*eps + a2*eps^2) / den over a grid of a0, a1, a2 and den, the
# rationals first so that examples shrink towards them.
_DEEP = sorted({(a0 + a1 * EPS + a2 * EPS * EPS) / den
                for a0 in (0, 1, -1, F(1, 2), F(-2, 3), 2)
                for a1 in (0, 1, -2, F(1, 3))
                for a2 in (0, 1, F(-3, 2))
                for den in (1, 1 + EPS, 2 - EPS, 3 + 2 * EPS)},
               key=lambda v: (not v.is_rational(), repr(v)))
_deep_entries = st.sampled_from(_DEEP)


@st.composite
def _deep_lps(draw):
    """<= 3 variables, sum x <= U plus 1-3 rows over deep entries: rows of
    degree 2 and more in eps, so the tableau's total degree often reaches 6."""
    nvar = draw(st.integers(1, 3))
    rows = [[1] * nvar]
    senses = ["<="]
    rhs = [draw(_small.map(abs)) + draw(st.sampled_from([0, 1, F(1, 2)])) * EPS * EPS]
    for _ in range(draw(st.integers(1, 3))):
        rows.append([draw(_deep_entries) for _ in range(nvar)])
        senses.append(draw(st.sampled_from(["<=", "=", ">="])))
        rhs.append(draw(_deep_entries))
    objective = [draw(_unit) for _ in range(nvar)]
    return objective, rows, senses, rhs, draw(st.booleans())


def _assert_optimal(sol, best, objective, rows, senses, rhs):
    """sol attains best at a feasible x."""
    assert sol.value == best
    assert sum((c * v for c, v in zip(objective, sol.x)), F(0)) == best
    assert all(v >= 0 for v in sol.x)
    for row, sense, b in zip(rows, senses, rhs):
        lhs = sum((a * v for a, v in zip(row, sol.x)), F(0))
        assert {"<=": lhs <= b, "=": lhs == b, ">=": lhs >= b}[sense]


class TestDeepEpsilon:
    @settings(max_examples=60, deadline=None)
    @given(_deep_lps())
    def test_optimum_matches_vertex_enumeration(self, lp):
        # eps^2 terms and non-constant denominators: the substitution
        # eps = 2^-bits must keep every sign the tableau over Z[eps] reads.
        objective, rows, senses, rhs, maximize = lp
        best = _brute_force(objective, rows, senses, rhs, maximize)
        if best is None:
            with pytest.raises(Infeasible):
                solve_lp(objective, rows, senses, rhs, maximize=maximize)
            return
        _assert_optimal(solve_lp(objective, rows, senses, rhs, maximize=maximize),
                        best, objective, rows, senses, rhs)

    def test_phase2_keeps_the_bits(self):
        # A tableau of total degree 8.  Every phase 2 has unit costs, C = r as
        # in phase 1, so it pivots at phase 1's Y and reads optima exactly.
        rows = [[1, 1, 1],
                [(1 + EPS * EPS) / (2 - EPS), (F(1, 2) + EPS) / (3 + 2 * EPS), -1],
                [(EPS - 2 * EPS * EPS) / (1 + EPS), 1, (2 + EPS) / (3 + 2 * EPS)]]
        senses = ["<=", ">=", "="]
        rhs = [F(3, 2) + EPS * EPS, EPS * EPS / (2 - EPS), (1 - EPS) / (1 + EPS)]
        start = phase1(rows, senses, rhs, 3)
        assert start.eps[1] == 8
        for objective in product([0, 1], repeat=3):
            for maximize in (False, True):
                sol = phase2(start, objective, maximize=maximize)
                assert sol.basis.eps == start.eps
                best = _brute_force(objective, rows, senses, rhs, maximize)
                _assert_optimal(sol, best, objective, rows, senses, rhs)
