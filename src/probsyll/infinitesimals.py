"""Exact arithmetic in Q(eps): rational functions of one positive infinitesimal.

An element is a quotient num / den of integer polynomials in eps (Z[eps], the
ring the simplex scales its rows to before it substitutes eps = 2^-bits),
ordered by the sign it eventually takes for small positive real eps.  This
makes Q(eps) an ordered field extending the rationals with 0 < eps < q for
every positive rational q.

The quotient is never reduced by a polynomial gcd: only the integer content is
divided out, and den's lowest nonzero coefficient is kept positive (den > 0
for small eps).  That is exact because every query reads only what a common
factor cancels from: the sign is that of num's lowest nonzero coefficient;
x < y and x == y read the sign of num_x * den_y - num_y * den_x; the limit
and the hash read the leading term (a / b) * eps^(i - j) from the lowest terms
a*eps^i of num and b*eps^j of den; and the value is rational iff num = c * den.

Strict constraints like "p > 0" become the closed constraint "p >= eps" here;
running an exact closed-form theorem (or an exact LP) over Q(eps) then answers
both the limiting value of a bound (standard_part) and whether the bound is
attained for the open constraint (is_rational: no eps-dependence means the
value is constant for all small real eps, hence attained).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class _Poly:
    """An element of Z[eps]: integer coefficients, low order first, no trailing zeros.

    Offers *, +, -, unary -, exact // (the simplex divides by non-constant
    denominators when it scales a row), truth value, == and the eventual sign.
    It has no order: EpsRational compares by sign, and the simplex pivots on
    integers.
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
        """The quotient of an exact division."""
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

    def low(self):
        """(i, a): the lowest-order nonzero term a*eps^i (the polynomial is nonzero)."""
        for i, x in enumerate(self.c):
            if x:
                return i, x
        raise ValueError("zero polynomial")

    def sign(self) -> int:
        """The sign for small positive eps: that of the lowest nonzero coefficient."""
        for x in self.c:
            if x:
                return 1 if x > 0 else -1
        return 0


_PZERO = _Poly(())
_PONE = _Poly((1,))


class EpsRational:
    """An element of Q(eps).  Interoperates with int and Fraction operands.

    num and den are _Poly; den's lowest nonzero coefficient is positive and
    num and den have no common integer factor.
    """

    __slots__ = ("num", "den")

    def __init__(self, value=0):
        if isinstance(value, EpsRational):
            self.num, self.den = value.num, value.den
            return
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        self.num = _Poly((value.numerator,)) if value else _PZERO
        self.den = _Poly((value.denominator,))

    @classmethod
    def _make(cls, num, den) -> "EpsRational":
        """num / den with the integer content divided out and den > 0."""
        if not den:
            raise ZeroDivisionError("division by zero in Q(eps)")
        if not num:
            num, den = _PZERO, _PONE
        else:
            g = gcd(*num.c, *den.c)
            if den.sign() < 0:
                g = -g
            if g != 1:
                k = _Poly((g,))
                num, den = num // k, den // k
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    @classmethod
    def epsilon(cls) -> "EpsRational":
        return cls._make(_Poly((0, 1)), _PONE)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, EpsRational):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return EpsRational._make(self.num + other.num, self.den)
        return EpsRational._make(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return EpsRational._make(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EpsRational._make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EpsRational._make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Eventual sign for small positive real eps."""
        return self.num.sign()

    def _cmp(self, other):
        other = self._coerce(other)
        if other is None:
            return None
        return (self.num * other.den - other.num * self.den).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        # The leading term c*eps^k, so hash(EpsRational(q)) == hash(q).
        if not self.num:
            return hash(0)
        (i, a), (j, b) = self.num.low(), self.den.low()
        c = Fraction(a, b)
        return hash(c) if i == j else hash((c, i - j))

    # -- inspection ---------------------------------------------------------

    def is_rational(self) -> bool:
        """True iff the value does not depend on eps."""
        if not self.num:
            return True
        j, b = self.den.low()
        a = self.num.c[j] if j < len(self.num.c) else 0
        return bool(a) and self.num * _Poly((b,)) == self.den * _Poly((a,))

    def standard_part(self) -> Fraction:
        """Limit as eps -> 0+ (finite cases only)."""
        if not self.num:
            return Fraction(0)
        (i, a), (j, b) = self.num.low(), self.den.low()
        if i > j:
            return Fraction(0)
        if i == j:
            return Fraction(a, b)
        raise OverflowError("value is unbounded as eps -> 0+")

    def __repr__(self):
        def poly(cs):
            return " + ".join(f"{c}*eps^{i}" if i else str(c)
                              for i, c in enumerate(cs) if c) or "0"

        if self.den == _PONE:
            return f"EpsRational({poly(self.num.c)})"
        return f"EpsRational(({poly(self.num.c)}) / ({poly(self.den.c)}))"


EPS = EpsRational.epsilon()
