"""Closed-form propagation rules for syllogistic Figures I, II, III.

Each figure has a canonical premise family over atoms A, B, C and a canonical
target, with (x, y, t) the assessment on the family:

  Figure I    (C|B, B|A, A|(A v B))  ->  C|A
  Figure II   (B|C, !B|A, A|(A v C)) ->  !C|A
  Figure III  (C|B, A|B, B|(A v B))  ->  C|A

The precise and interval (box) bound formulas are implemented verbatim; the
interval formulas only involve box corners, so evaluating them over Q(eps)
with infinitesimally shrunk open faces yields the coherent-extension set Sigma
for boxes with strict-inequality faces: an endpoint is open exactly when the
Q(eps) value depends on eps (limit only), closed when it is plain rational.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence, Tuple

from .events import ConditionalEvent, Event
from .infinitesimals import EPS, EpsRational
from .intervals import ExtensionInterval, OpenInterval


class NotGCoherent(Exception):
    """The premise box contains no coherent point (or lies outside [0,1]^3)."""


class Figure(enum.Enum):
    I = 1
    II = 2
    III = 3

    def __str__(self):
        return self.name


_A, _B, _C = Event.atom("A"), Event.atom("B"), Event.atom("C")

_FAMILIES = {
    Figure.I: (
        (ConditionalEvent(_C, _B), ConditionalEvent(_B, _A), ConditionalEvent(_A, _A | _B)),
        ConditionalEvent(_C, _A),
    ),
    Figure.II: (
        (ConditionalEvent(_B, _C), ConditionalEvent(~_B, _A), ConditionalEvent(_A, _A | _C)),
        ConditionalEvent(~_C, _A),
    ),
    Figure.III: (
        (ConditionalEvent(_C, _B), ConditionalEvent(_A, _B), ConditionalEvent(_B, _A | _B)),
        ConditionalEvent(_C, _A),
    ),
}


def canonical_family(figure: Figure) -> Tuple[tuple, ConditionalEvent]:
    """The figure's canonical premise family and target over atoms A, B, C."""
    return _FAMILIES[figure]


# ---------------------------------------------------------------------------
# Bound formulas, generic over the coefficient field.
# ---------------------------------------------------------------------------

def _fig1_box(x1, x2, y1, y2, t1, t2):
    if t1 == 0:
        return 0, 1
    lo = x1 * y1 - (1 - t1) * (1 - x1) / t1
    hi = (1 - x2) * (1 - y1) + x2 / t1
    return (lo if lo > 0 else 0), (hi if hi < 1 else 1)


def _fig2_box(x1, x2, y1, y2, t1, t2):
    if x2 + y2 * t1 >= t1 and x1 + y1 * t1 <= 1:
        return 0, 1
    if x1 + y1 * t1 > 1:
        return (x1 + y1 * t1 - 1) / (t1 * x1), 1
    return (t1 - x2 - y2 * t1) / (t1 * (1 - x2)), 1


def _fig3_box(x1, x2, y1, y2, t1, t2):
    denom = 1 - t1 * (1 - y1)
    lo = 0 if t1 * (x1 + y1 - 1) <= 0 else t1 * (x1 + y1 - 1) / denom
    hi = 1 if t1 * (y1 - x2) <= 0 else 1 - t1 * (y1 - x2) / denom
    return lo, hi


_BOX_FORMULAS = {Figure.I: _fig1_box, Figure.II: _fig2_box, Figure.III: _fig3_box}


def _check_unit(*values):
    for v in values:
        if not 0 <= v <= 1:
            raise ValueError(f"value {v} outside [0, 1]")


def _box_corners(box):
    corners = []
    for lo, hi in box:
        _check_unit(Fraction(lo), Fraction(hi))
        if lo > hi:
            raise ValueError(f"empty box component [{lo}, {hi}]")
        corners.extend((Fraction(lo), Fraction(hi)))
    if len(corners) != 6:
        raise ValueError("box must have exactly three components")
    return corners


def figure_bounds(figure: Figure, x, y, t) -> ExtensionInterval:
    """[z', z''] for the figure's target given the precise premises (x, y, t).

    Figure I, P(C|A): t = 0 -> [0, 1]; else
        [max{0, xy - (1-t)(1-x)/t}, min{1, (1-x)(1-y) + x/t}].
    Figure II, P(!C|A): [0, 1] if t <= x+yt <= 1;
        [(x+yt-1)/(tx), 1] if x+yt > 1; [(t-x-yt)/(t(1-x)), 1] if x+yt < t.
    Figure III, P(C|A): z' = max{0, t(x+y-1)}/(1-t(1-y)) style cases,
        z'' = 1 unless t(y-x) > 0.
    """
    x, y, t = Fraction(x), Fraction(y), Fraction(t)
    _check_unit(x, y, t)
    return ExtensionInterval(*_BOX_FORMULAS[figure](x, x, y, y, t, t))


def figure_box_bounds(figure: Figure, box) -> ExtensionInterval:
    """Interval version of figure_bounds; box = ((x1,x2), (y1,y2), (t1,t2))."""
    return ExtensionInterval(*_BOX_FORMULAS[figure](*_box_corners(box)))


# ---------------------------------------------------------------------------
# Sigma with open faces.
# ---------------------------------------------------------------------------

def _endpoint(value):
    """(standard part, open?) of a bound computed over the field."""
    if isinstance(value, EpsRational):
        return value.standard_part(), not value.is_rational()
    return Fraction(value), False


def sigma_with_openness(figure: Figure, box: Sequence[OpenInterval]) -> OpenInterval:
    """The coherent-extension set Sigma of a (possibly half-open) premise box.

    The box components constrain (x, y, t) on the figure's canonical family;
    the canonical families are totally coherent on [0,1]^3, so any nonempty
    box inside the unit cube is g-coherent.
    """
    box = tuple(box)
    if len(box) != 3:
        raise ValueError("box must have three components")
    for iv in box:
        if iv.lower < 0 or iv.upper > 1:
            raise NotGCoherent(f"component {iv} outside [0, 1]")
    corners = []
    for iv in box:
        corners += (iv.lower + EPS if iv.lower_open else iv.lower,
                    iv.upper - EPS if iv.upper_open else iv.upper)
    bounds = _BOX_FORMULAS[figure](*corners)
    lo, lo_open = _endpoint(bounds[0])
    hi, hi_open = _endpoint(bounds[1])
    return OpenInterval(lo, hi, lo_open, hi_open)
