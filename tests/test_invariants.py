"""Metamorphic invariants: answers that must not depend on the path taken.

Each test asks two questions whose answers the theory relates, so no second
implementation is needed: the premises in another order, the complement of
the target, one more premise that every assessment satisfies, and the events
of a box in another order.  A changed tableau, table or recursion that
changes an answer breaks one of them even where no pin covers the case.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from probsyll import (ConditionalEvent, IncoherentPremises, check_g_coherence,
                      extension_bounds, parse_conditional)
from conftest import assessed_boxes, assessed_families


def _bounds(family, values, target):
    """extension_bounds as (z', z''), or IncoherentPremises."""
    try:
        return tuple(extension_bounds(family, values, target))
    except IncoherentPremises:
        return IncoherentPremises


@settings(max_examples=60, deadline=None)
@given(assessed_families(), st.data())
def test_premise_order(case, data):
    family, values, target = case
    order = data.draw(st.permutations(range(len(family))))
    assert (_bounds([family[j] for j in order], [values[j] for j in order], target)
            == _bounds(family, values, target))


@settings(max_examples=60, deadline=None)
@given(assessed_families())
def test_complement_target(case):
    # Sigma(!E|H) = 1 - Sigma(E|H), and both raise alike.
    family, values, target = case
    bounds = _bounds(family, values, target)
    complement = _bounds(family, values, ConditionalEvent(~target.consequent, target.antecedent))
    if bounds is IncoherentPremises:
        assert complement is IncoherentPremises
    else:
        assert complement == (1 - bounds[1], 1 - bounds[0])


@settings(max_examples=60, deadline=None)
@given(assessed_families())
def test_certain_premise(case):
    # p(A|A) = 1 holds in every assessment, so it adds no constraint.
    family, values, target = case
    assert (_bounds(family + (parse_conditional("A / A"),), values + [Fraction(1)], target)
            == _bounds(family, values, target))


@settings(max_examples=60, deadline=None)
@given(assessed_boxes(), st.data())
def test_box_order(case, data):
    family, box = case
    order = data.draw(st.permutations(range(len(family))))
    assert (check_g_coherence([family[j] for j in order], [box[j] for j in order])
            == check_g_coherence(family, box))
