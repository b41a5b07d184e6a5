"""Extension bounds for a further conditional event, and box sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from probsyll import (
    ExtensionInterval, Figure, IncoherentPremises, OpenInterval,
    canonical_family, check_coherence, check_g_coherence, extension_bounds,
    extension_union_sampled,
    figure_bounds, parse_conditional,
)
from conftest import assessed_families, unit_fractions, unit_triples

F = Fraction


def ce(text):
    return parse_conditional(text)


class TestPreciseExtension:
    def test_figure1_derived_value(self):
        family, target = canonical_family(Figure.I)
        bounds = extension_bounds(family, [F(4, 5), F(9, 10), F(1, 2)], target)
        assert bounds == ExtensionInterval(F(13, 25), 1)

    def test_figure2_derived_values(self):
        family, target = canonical_family(Figure.II)
        assert extension_bounds(family, [F(9, 10), F(1, 2), F(4, 5)], target) \
            == ExtensionInterval(F(5, 12), 1)
        assert extension_bounds(family, [F(1, 10), F(1, 20), F(4, 5)], target) \
            == ExtensionInterval(F(11, 12), 1)

    def test_figure3_derived_value(self):
        family, target = canonical_family(Figure.III)
        bounds = extension_bounds(family, [F(7, 10), F(4, 5), F(1, 2)], target)
        assert bounds == ExtensionInterval(F(5, 18), F(17, 18))

    def test_certain_premises_force_conclusion(self):
        family, target = canonical_family(Figure.I)
        assert extension_bounds(family, [1, 1, 1], target) == ExtensionInterval(1, 1)

    def test_zero_import_non_informative(self):
        for figure in Figure:
            family, target = canonical_family(figure)
            bounds = extension_bounds(family, [F(1, 2), F(1, 2), 0], target)
            assert bounds == ExtensionInterval(0, 1)

    def test_two_premises_non_informative(self):
        # without the import premise, nothing propagates
        fam = (ce("C / B"), ce("B / A"))
        bounds = extension_bounds(fam, [F(9, 10), F(9, 10)], ce("C / A"))
        assert bounds == ExtensionInterval(0, 1)

    def test_conjunction_frechet_bounds(self):
        fam = (ce("A / A | !A"), ce("B / B | !B"))
        bounds = extension_bounds(fam, [F(1, 2), F(3, 4)], ce("A & B / A | !A"))
        assert bounds == ExtensionInterval(F(1, 4), F(1, 2))

    def test_incoherent_premises_raise(self):
        fam = (ce("A / A"),)
        with pytest.raises(IncoherentPremises):
            extension_bounds(fam, [F(1, 2)], ce("B / A"))

    def test_incoherent_premise_beside_covered_target(self):
        # The premise system's only solution puts all mass on !A, inside the
        # target's antecedent and outside the premise's: only the premise's
        # coverage certifies coherence, so the check must still run.
        fam = (ce("A / A"),)
        with pytest.raises(IncoherentPremises):
            extension_bounds(fam, [F(1, 2)], ce("B / !A"))

    def test_check_false_skips_validation(self):
        fam = (ce("A / A | !A"),)
        bounds = extension_bounds(fam, [F(1, 2)], ce("!A / A | !A"), check=False)
        assert bounds == ExtensionInterval(F(1, 2), F(1, 2))

    def test_idempotent_on_family_member(self):
        family, _ = canonical_family(Figure.III)
        values = [F(7, 10), F(4, 5), F(1, 2)]
        for member, value in zip(family, values):
            assert extension_bounds(family, values, member) \
                == ExtensionInterval(value, value)

    @settings(max_examples=30, deadline=None)
    @given(unit_triples(max_denominator=10))
    def test_matches_closed_forms(self, values):
        for figure in Figure:
            family, target = canonical_family(figure)
            assert extension_bounds(family, list(values), target, check=False) \
                == figure_bounds(figure, *values)


class TestSampledUnion:
    def test_degenerate_box_equals_precise(self):
        family, target = canonical_family(Figure.III)
        values = (F(7, 10), F(4, 5), F(1, 2))
        box = tuple(OpenInterval.point(v) for v in values)
        assert extension_union_sampled(family, box, target) \
            == extension_bounds(family, list(values), target)

    def test_figure2_box_hull(self):
        family, target = canonical_family(Figure.II)
        box = (OpenInterval.point(1), OpenInterval.closed(F(3, 4), 1),
               OpenInterval.closed(F(1, 2), 1))
        assert extension_union_sampled(family, box, target) \
            == ExtensionInterval(F(3, 4), 1)

    def test_figure2_wider_box_hull(self):
        family, target = canonical_family(Figure.II)
        box = (OpenInterval.closed(F(9, 10), 1), OpenInterval.closed(F(3, 4), 1),
               OpenInterval.closed(F(1, 2), 1))
        assert extension_union_sampled(family, box, target, grid_density=3) \
            == ExtensionInterval(F(11, 18), 1)

    def test_incoherent_points_skipped(self):
        fam = (ce("A / A"),)
        box = (OpenInterval.closed(F(1, 2), 1),)
        # only the endpoint 1 is coherent; there p(B|A) is unconstrained
        assert extension_union_sampled(fam, box, ce("B / A")) \
            == ExtensionInterval(0, 1)

    def test_no_coherent_point_raises(self):
        fam = (ce("A / A"),)
        box = (OpenInterval.closed(0, F(1, 2)),)
        with pytest.raises(IncoherentPremises):
            extension_union_sampled(fam, box, ce("B / A"))


class TestAgainstFullCoherence:
    @settings(max_examples=150, deadline=None)
    @given(assessed_families())
    def test_bounds_are_the_coherent_extensions(self, case):
        # The oracle is the literal criterion (all maxima per I0 level), not
        # the probes: [z', z''] holds exactly the coherent target values.
        family, values, target = case
        if not check_coherence(family, values, method="full"):
            with pytest.raises(IncoherentPremises):
                extension_bounds(family, values, target)
            return
        bounds = extension_bounds(family, values, target)
        extended = family + (target,)
        for z in (bounds.lower, bounds.upper):
            assert check_coherence(extended, values + [z], method="full")
        for z in (bounds.lower - F(1, 1000), bounds.upper + F(1, 1000)):
            if 0 <= z <= 1:
                assert not check_coherence(extended, values + [z], method="full")
        # Exactly: no target value below z' or above z'' is coherent, i.e.
        # the premises times [0, z') and times (z'', 1] are not g-coherent.
        premises = tuple(OpenInterval.point(v) for v in values)
        if bounds.lower > 0:
            below = OpenInterval(0, bounds.lower, upper_open=True)
            assert not check_g_coherence(extended, premises + (below,))
        if bounds.upper < 1:
            above = OpenInterval(bounds.upper, 1, lower_open=True)
            assert not check_g_coherence(extended, premises + (above,))
