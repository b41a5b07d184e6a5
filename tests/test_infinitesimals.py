"""Ordered-field arithmetic with one positive infinitesimal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probsyll import EPS, EpsRational


def lin(a, b):
    """a + b*eps"""
    return EpsRational(a) + EpsRational(b) * EPS


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestConstruction:
    def test_from_int_and_fraction(self):
        assert EpsRational(3) == 3
        assert EpsRational(Fraction(2, 7)) == Fraction(2, 7)
        assert EpsRational(EpsRational(5)) == 5

    def test_zero_and_bool(self):
        assert not EpsRational(0)
        assert EPS
        assert EpsRational(0) == 0

    def test_repr_smoke(self):
        assert "eps" in repr(EPS)
        assert repr(EpsRational(0)) == "EpsRational(0)"


class TestOrder:
    def test_infinitesimal_position(self):
        assert 0 < EPS
        assert EPS < Fraction(1, 10**12)
        assert EPS * EPS < EPS
        assert 1 - EPS < 1
        assert 1 < 1 + EPS

    def test_mixed_comparisons(self):
        assert Fraction(1, 2) < lin(Fraction(1, 2), 1)
        assert lin(Fraction(1, 2), -1) < Fraction(1, 2)
        assert 2 > 1 + EPS
        assert not (EPS < 0)

    def test_total_order_consistency(self):
        vals = [EpsRational(0), EPS, EPS * EPS, lin(1, -1), EpsRational(1),
                lin(1, 1), EpsRational(2)]
        expected = [EpsRational(0), EPS * EPS, EPS, lin(1, -1), EpsRational(1),
                    lin(1, 1), EpsRational(2)]
        assert sorted(vals) == expected

    def test_sign(self):
        assert EPS.sign() == 1
        assert (-EPS).sign() == -1
        assert (1 - EPS).sign() == 1
        assert EpsRational(0).sign() == 0
        assert (EPS - EPS).sign() == 0


class TestArithmetic:
    def test_cancellation(self):
        assert (1 - EPS) * (1 + EPS) == 1 - EPS * EPS
        assert ((1 - EPS * EPS) / (1 - EPS)) == 1 + EPS
        assert (EPS * EPS) / EPS == EPS
        assert EPS - EPS == 0

    def test_division(self):
        x = lin(1, 2) / lin(1, 1)
        assert x * lin(1, 1) == lin(1, 2)
        with pytest.raises(ZeroDivisionError):
            EPS / EpsRational(0)

    def test_right_operand_forms(self):
        assert 1 + EPS == EPS + 1
        assert 2 * EPS == EPS * 2
        assert 1 - EPS == -(EPS - 1)
        assert Fraction(1, 2) / (1 + EPS) == 1 / (2 + 2 * EPS)

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            EPS + "x"

    @given(rationals, rationals, rationals, rationals)
    def test_field_axioms_linear(self, a, b, c, d):
        u, v = lin(a, b), lin(c, d)
        assert u + v == v + u
        assert u * v == v * u
        assert u * (v + 1) == u * v + u
        assert u - u == 0
        if v != 0:
            assert (u / v) * v == u

    @given(rationals, rationals)
    def test_order_respects_addition(self, a, b):
        u = lin(a, b)
        assert u < u + EPS
        assert u - EPS < u


class TestInspection:
    def test_is_rational(self):
        assert EpsRational(7).is_rational()
        assert not EPS.is_rational()
        assert not (1 - EPS).is_rational()
        assert ((1 + EPS) - EPS).is_rational()
        assert (EPS / EPS).is_rational()

    def test_standard_part(self):
        assert EPS.standard_part() == 0
        assert (1 - EPS).standard_part() == 1
        assert (lin(1, 1) / lin(2, 1)).standard_part() == Fraction(1, 2)
        assert (EPS / (1 + EPS)).standard_part() == 0
        assert ((EPS + EPS * EPS) / EPS).standard_part() == 1

    def test_standard_part_unbounded(self):
        with pytest.raises(OverflowError):
            (1 / EPS).standard_part()
        with pytest.raises(OverflowError):
            (EPS / (EPS * EPS)).standard_part()

    def test_hash_agrees_with_rationals(self):
        assert hash(EpsRational(Fraction(3, 4))) == hash(Fraction(3, 4))
        assert len({EPS, EPS, EpsRational(0)}) == 2


# -- an oracle that evaluates eps-polynomials exactly at a small rational eps0 --
# Polynomials are coefficient lists, low order first; nothing below reads
# EpsRational's representation.

def _pmul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _lowest(p):
    """(i, p_i) for the lowest nonzero coefficient, or None for the zero polynomial."""
    return next(((i, c) for i, c in enumerate(p) if c), None)


def _below_roots(polys):
    """A rational eps0 > 0 such that no polynomial in polys has a root in (0, eps0].

    If p = eps^k (a_k + a_(k+1) eps + ...) and M = max |a_i| over i > k, the
    Cauchy bound on the reciprocal polynomial puts every nonzero root at
    |eps| >= |a_k| / (|a_k| + M); eps0 is half the least such bound.
    """
    eps0 = Fraction(1, 2)
    for p in polys:
        low = _lowest(p)
        if low:
            k, a = low
            m = max((abs(c) for c in p[k + 1:]), default=0)
            eps0 = min(eps0, Fraction(abs(a), abs(a) + m) / 2)
    return eps0


def _at(p, eps0):
    value = Fraction(0)
    for c in reversed(p):
        value = value * eps0 + c
    return value


def _limit(num, den):
    """The limit of num / den as eps -> 0+, or None when it is unbounded."""
    if _lowest(num) is None:
        return Fraction(0)
    (i, a), (j, b) = _lowest(num), _lowest(den)
    if i != j:
        return Fraction(0) if i > j else None
    return Fraction(a, b)


def _from_poly(coeffs):
    """The polynomial as an EpsRational, built by public arithmetic only."""
    value = EpsRational(0)
    for c in reversed(coeffs):
        value = value * EPS + c
    return value


def _sgn(q):
    return (q > 0) - (q < 0)


_coeffs = st.lists(st.integers(-3, 3), max_size=4)
_nonconstant = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda p: p[-1])


class TestQuotientOracle:
    """Quotients of eps-polynomials of degree <= 3 with non-constant denominators."""

    @settings(max_examples=300, deadline=None)
    @given(_coeffs, _nonconstant, _coeffs, _nonconstant,
           _coeffs.filter(any), st.integers(-3, 3))
    def test_against_evaluation(self, n1, d1, n2, d2, f, c):
        x = _from_poly(n1) / _from_poly(d1)
        y = _from_poly(n2) / _from_poly(d2)
        cross = _psub(_pmul(n1, d2), _pmul(n2, d1))
        eps0 = _below_roots([n1, d1, n2, d2, cross])
        vx, vy = _at(n1, eps0) / _at(d1, eps0), _at(n2, eps0) / _at(d2, eps0)
        assert x.sign() == _sgn(vx)
        assert (x < y) == (vx < vy)
        assert (x > y) == (vx > vy)
        assert (x == y) == (not any(cross))

        # The same value as x with a common factor f, and the rational c
        # over a non-constant denominator.
        z = (_from_poly(n1) * _from_poly(f)) / (_from_poly(d1) * _from_poly(f))
        w = _from_poly([c * k for k in d1]) / _from_poly(d1)
        assert z == x and w == c
        for u, v in ((x, y), (x, z), (w, EpsRational(c))):
            if u == v:
                assert hash(u) == hash(v)
        assert hash(w) == hash(c)

        limit = _limit(n1, d1)
        for u in (x, z):
            if limit is None:
                with pytest.raises(OverflowError):
                    u.standard_part()
            else:
                assert u.standard_part() == limit
                assert u.is_rational() == (u == limit)
        assert w.is_rational() and w.standard_part() == c
