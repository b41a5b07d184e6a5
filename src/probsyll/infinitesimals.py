"""Exact arithmetic in Q(eps): rational functions of one positive infinitesimal.

Elements are quotients of polynomials in eps with Fraction coefficients,
ordered by the sign they eventually take for small positive real eps (the sign
of the lowest-degree nonzero coefficient).  This makes Q(eps) an ordered field
extending the rationals with 0 < eps < q for every positive rational q.

Strict constraints like "p > 0" become the closed constraint "p >= eps" here;
running an exact closed-form theorem (or an exact LP) over Q(eps) then answers
both the limiting value of a bound (standard_part) and whether the bound is
attained for the open constraint (is_rational: no eps-dependence means the
value is constant for all small real eps, hence attained).
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = ()
_ONE = (Fraction(1),)


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return _ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _pdivmod(a, b):
    """Polynomial long division (coefficients low-order first)."""
    assert b
    rem = list(a)
    if len(rem) < len(b):
        return _ZERO, _trim(rem)
    q = [Fraction(0)] * (len(rem) - len(b) + 1)
    lead = b[-1]
    for k in range(len(rem) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1] / lead
        if coeff != 0:
            q[k] = coeff
            for j, bj in enumerate(b):
                rem[k + j] -= coeff * bj
    return _trim(q), _trim(rem)


def _pgcd(a, b):
    """Monic gcd via Euclid; gcd(0, b) = monic b."""
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if not a:
        return _ZERO
    lead = a[-1]
    return tuple(c / lead for c in a)


def _low_index(a) -> int:
    for i, c in enumerate(a):
        if c != 0:
            return i
    raise ValueError("zero polynomial")


class EpsRational:
    """An element of Q(eps).  Interoperates with int and Fraction operands."""

    __slots__ = ("num", "den")

    def __init__(self, value=0):
        if isinstance(value, EpsRational):
            self.num, self.den = value.num, value.den
            return
        self.num = _trim((Fraction(value),))
        self.den = _ONE

    @classmethod
    def _make(cls, num, den) -> "EpsRational":
        if not den:
            raise ZeroDivisionError("division by zero in Q(eps)")
        if not num:
            obj = object.__new__(cls)
            obj.num, obj.den = _ZERO, _ONE
            return obj
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        # Normalize: lowest nonzero denominator coefficient becomes 1.
        scale = den[_low_index(den)]
        num = tuple(c / scale for c in num)
        den = tuple(c / scale for c in den)
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    @classmethod
    def from_coefficients(cls, num, den) -> "EpsRational":
        """num / den from coefficient sequences (low order first) of ints or Fractions."""
        return cls._make(_trim(Fraction(c) for c in num), _trim(Fraction(c) for c in den))

    @classmethod
    def epsilon(cls) -> "EpsRational":
        return cls._make((Fraction(0), Fraction(1)), _ONE)

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
        return EpsRational._make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return EpsRational._make(_pneg(self.num), self.den)

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
        return EpsRational._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EpsRational._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Eventual sign for small positive real eps."""
        if not self.num:
            return 0
        # den's lowest nonzero coefficient is normalized to +1.
        return 1 if self.num[_low_index(self.num)] > 0 else -1

    def _cmp(self, other):
        other = self._coerce(other)
        if other is None:
            return None
        return (self - other).sign()

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
        if self.is_rational():
            return hash(self.standard_part())
        return hash((self.num, self.den))

    # -- inspection ---------------------------------------------------------

    def is_rational(self) -> bool:
        """True iff the value does not depend on eps."""
        return len(self.num) <= 1 and len(self.den) <= 1

    def standard_part(self) -> Fraction:
        """Limit as eps -> 0+ (finite cases only)."""
        if not self.num:
            return Fraction(0)
        a, b = _low_index(self.num), _low_index(self.den)
        if a > b:
            return Fraction(0)
        if a == b:
            return self.num[a] / self.den[b]
        raise OverflowError("value is unbounded as eps -> 0+")

    def __repr__(self):
        def poly(cs):
            if not cs:
                return "0"
            parts = []
            for i, c in enumerate(cs):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*eps" if c != 1 else "eps")
                else:
                    parts.append(f"{c}*eps^{i}" if c != 1 else f"eps^{i}")
            return " + ".join(parts)

        if self.den == _ONE:
            return f"EpsRational({poly(self.num)})"
        return f"EpsRational(({poly(self.num)}) / ({poly(self.den)}))"


EPS = EpsRational.epsilon()
