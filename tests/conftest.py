"""Shared fixtures and strategies for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from probsyll import Event, ConditionalEvent, Figure, OpenInterval, canonical_family


def A():
    return Event.atom("A")


def B():
    return Event.atom("B")


def C():
    return Event.atom("C")


@pytest.fixture(scope="session")
def families():
    """The five three-event families used throughout the golden tests."""
    a, b, c = A(), B(), C()
    return {
        "fig1_triple": (ConditionalEvent(c, b), ConditionalEvent(b, a),
                        ConditionalEvent(c, a)),
        "fig1_premise": canonical_family(Figure.I)[0],
        "fig2_triple": (ConditionalEvent(b, c), ConditionalEvent(~b, a),
                        ConditionalEvent(~c, a)),
        "fig2_premise": canonical_family(Figure.II)[0],
        "fig3_premise": canonical_family(Figure.III)[0],
    }


# One line per acceptance criterion, echoed after the test summary so the
# pass/fail status of each criterion is visible in captured runs.
criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@st.composite
def unit_fractions(draw, max_denominator=24):
    """Exact rationals in [0, 1] with small denominators."""
    den = draw(st.integers(min_value=1, max_value=max_denominator))
    num = draw(st.integers(min_value=0, max_value=den))
    return Fraction(num, den)


@st.composite
def unit_triples(draw, max_denominator=24):
    return tuple(draw(unit_fractions(max_denominator)) for _ in range(3))


_ATOMS = [Event.atom(name) for name in "ABCD"]
_literals = st.sampled_from(_ATOMS + [~a for a in _ATOMS])
_formulas = st.recursive(
    _literals,
    lambda inner: st.tuples(inner, inner, st.booleans()).map(
        lambda t: t[0] & t[1] if t[2] else t[0] | t[1]),
    max_leaves=4)
_conditionals = st.builds(ConditionalEvent, _formulas, _formulas.filter(Event.is_satisfiable))


@st.composite
def assessed_families(draw):
    """1-3 premises and a target over <= 4 atoms.  Half the assessments are
    the conditional probabilities of a random distribution over the worlds
    (coherent), half are drawn freely (often incoherent)."""
    family = tuple(draw(st.lists(_conditionals, min_size=1, max_size=3)))
    target = draw(_conditionals)
    values = [draw(unit_fractions(max_denominator=4)) for _ in family]
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=16, max_size=16))
        worlds = [dict(zip("ABCD", (w >> k & 1 == 1 for k in range(4)))) for w in range(16)]
        for j, ce in enumerate(family):
            inside = [wt for wt, world in zip(weights, worlds)
                      if ce.antecedent.evaluate(world)]
            true = [wt for wt, world in zip(weights, worlds)
                    if ce.antecedent.evaluate(world) and ce.consequent.evaluate(world)]
            if sum(inside):
                values[j] = Fraction(sum(true), sum(inside))
    return family, values, target


@st.composite
def assessed_boxes(draw):
    """An assessed family's values widened to boxes [v - 1/8, v + 1/8] within
    [0, 1], each face open or closed at random."""
    family, values, _target = draw(assessed_families())
    eighth = Fraction(1, 8)
    box = tuple(OpenInterval(max(v - eighth, 0), min(v + eighth, 1), draw(st.booleans()),
                             draw(st.booleans())) for v in values)
    return family, box

