"""Closed-form propagation rules for the three figures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from probsyll import (
    ExtensionInterval, Figure, NotGCoherent, OpenInterval, canonical_family,
    figure_bounds, figure_box_bounds, sigma_with_openness,
)
from probsyll.coherence import grid_points
from conftest import unit_triples

F = Fraction


class TestCanonicalFamilies:
    def test_shapes(self):
        for figure in Figure:
            family, target = canonical_family(figure)
            assert len(family) == 3
            assert target.atoms() <= frozenset("ABC")

    def test_figure_targets(self):
        assert str(canonical_family(Figure.I)[1]) == "C / A"
        assert str(canonical_family(Figure.II)[1]) == "!C / A"
        assert str(canonical_family(Figure.III)[1]) == "C / A"


class TestPreciseFormulas:
    def test_figure1_values(self):
        assert figure_bounds(Figure.I, F(4, 5), F(9, 10), F(1, 2)) \
            == ExtensionInterval(F(13, 25), 1)
        assert figure_bounds(Figure.I, F(1, 2), F(1, 2), 0) == ExtensionInterval(0, 1)
        assert figure_bounds(Figure.I, 1, 1, 1) == ExtensionInterval(1, 1)
        # t = 1 reduces to the x*y / (1-x)(1-y)+x chain bounds
        assert figure_bounds(Figure.I, F(4, 5), F(9, 10), 1) \
            == ExtensionInterval(F(18, 25), F(41, 50))

    def test_figure2_values(self):
        assert figure_bounds(Figure.II, F(9, 10), F(1, 2), F(4, 5)) \
            == ExtensionInterval(F(5, 12), 1)
        assert figure_bounds(Figure.II, F(1, 10), F(1, 20), F(4, 5)) \
            == ExtensionInterval(F(11, 12), 1)
        # middle case: t <= x + y t <= 1
        assert figure_bounds(Figure.II, F(1, 2), F(1, 2), F(1, 2)) \
            == ExtensionInterval(0, 1)

    def test_figure3_values(self):
        assert figure_bounds(Figure.III, F(7, 10), F(4, 5), F(1, 2)) \
            == ExtensionInterval(F(5, 18), F(17, 18))
        assert figure_bounds(Figure.III, F(1, 2), F(1, 2), 0) == ExtensionInterval(0, 1)
        assert figure_bounds(Figure.III, 1, 1, 1) == ExtensionInterval(1, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            figure_bounds(Figure.I, F(3, 2), 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(unit_triples(max_denominator=12))
    def test_complement_symmetry_figure3(self, values):
        x, y, t = values
        lo = figure_bounds(Figure.III, x, y, t).lower
        hi = figure_bounds(Figure.III, 1 - x, y, t).upper
        assert lo + hi == 1


class TestBoxFormulas:
    def test_degenerate_box_equals_precise(self):
        for figure in Figure:
            point = (F(3, 10), F(7, 10), F(9, 10))
            box = tuple((v, v) for v in point)
            assert figure_box_bounds(figure, box) == figure_bounds(figure, *point)

    def test_figure1_unit_cube_corner(self):
        assert figure_box_bounds(Figure.I, ((F(1, 2), 1), (F(1, 2), 1), (F(1, 2), 1))) \
            == ExtensionInterval(0, 1)

    def test_figure2_box_value(self):
        assert figure_box_bounds(Figure.II, ((F(9, 10), 1), (F(3, 4), 1), (F(1, 2), 1))) \
            == ExtensionInterval(F(11, 18), 1)

    def test_figure3_box_value(self):
        assert figure_box_bounds(Figure.III, ((0, F(1, 4)), (F(9, 10), 1), (F(1, 2), 1))) \
            == ExtensionInterval(0, F(25, 38))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            figure_box_bounds(Figure.I, ((F(1, 2), F(1, 4)), (0, 1), (0, 1)))
        with pytest.raises(ValueError):
            figure_box_bounds(Figure.I, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            figure_box_bounds(Figure.II, ((0, 2), (0, 1), (0, 1)))

    @settings(max_examples=20, deadline=None)
    @given(unit_triples(max_denominator=6), unit_triples(max_denominator=6))
    def test_box_contains_pointwise_bounds(self, corner_a, corner_b):
        lows = tuple(min(a, b) for a, b in zip(corner_a, corner_b))
        highs = tuple(max(a, b) for a, b in zip(corner_a, corner_b))
        box = tuple(zip(lows, highs))
        assessment = tuple(OpenInterval.closed(lo, hi) for lo, hi in box)
        for figure in Figure:
            hull = figure_box_bounds(figure, box)
            for point in grid_points(assessment, 2):
                inner = figure_bounds(figure, *point)
                assert hull.lower <= inner.lower
                assert inner.upper <= hull.upper


class TestSigmaWithOpenness:
    def test_closed_box_stays_closed(self):
        box = (OpenInterval.closed(F(1, 2), 1), OpenInterval.closed(F(1, 2), 1),
               OpenInterval.closed(F(1, 2), 1))
        assert sigma_with_openness(Figure.I, box) == OpenInterval.closed(0, 1)

    def test_point_box(self):
        box = tuple(OpenInterval.point(1) for _ in range(3))
        assert sigma_with_openness(Figure.I, box) == OpenInterval.point(1)

    def test_darii_style_box(self):
        # x = 1, y in (0,1], t in (0,1]  ->  sigma = (0, 1]
        box = (OpenInterval.point(1), OpenInterval(0, 1, lower_open=True),
               OpenInterval(0, 1, lower_open=True))
        sigma = sigma_with_openness(Figure.I, box)
        assert sigma == OpenInterval(0, 1, lower_open=True)

    def test_bocardo_style_box(self):
        # Figure III with x in [0,1), y = 1, t in (0,1]  ->  sigma = [0, 1)
        box = (OpenInterval(0, 1, upper_open=True), OpenInterval.point(1),
               OpenInterval(0, 1, lower_open=True))
        sigma = sigma_with_openness(Figure.III, box)
        assert sigma == OpenInterval(0, 1, upper_open=True)

    def test_festino_style_box(self):
        # Figure II with x = 0, y in [0,1), t in (0,1]  ->  sigma = (0, 1]
        box = (OpenInterval.point(0), OpenInterval(0, 1, upper_open=True),
               OpenInterval(0, 1, lower_open=True))
        sigma = sigma_with_openness(Figure.II, box)
        assert sigma == OpenInterval(0, 1, lower_open=True)

    def test_rational_bound_closes_endpoint(self):
        # x = 1 exactly: the lower bound y1 is attained even with t open
        box = (OpenInterval.point(1), OpenInterval.closed(F(3, 4), 1),
               OpenInterval(0, 1, lower_open=True))
        sigma = sigma_with_openness(Figure.II, box)
        assert sigma == OpenInterval.closed(F(3, 4), 1)

    def test_outside_unit_cube(self):
        box = (OpenInterval.closed(1, 2), OpenInterval.point(1),
               OpenInterval.point(1))
        with pytest.raises(NotGCoherent):
            sigma_with_openness(Figure.I, box)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            sigma_with_openness(Figure.I, (OpenInterval.point(1),))
