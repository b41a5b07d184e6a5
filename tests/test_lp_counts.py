"""LP solves per answer: a regression bound that does not depend on timing."""

import sys
from fractions import Fraction

import pytest

from probsyll import (Figure, OpenInterval, canonical_family, check_coherence,
                      check_g_coherence, extension_bounds)
from probsyll import simplex

F = Fraction


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that grows by one per solve_lp call, whichever binding is used."""
    calls = []
    original = simplex.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "probsyll" or name.startswith("probsyll."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("figure, values, lps", [
    (Figure.I, (F(4, 5), F(9, 10), F(1, 2)), 4),
    (Figure.I, (F(1, 2), F(1, 2), 0), 12),
    (Figure.II, (F(4, 5), F(9, 10), F(1, 2)), 4),
    (Figure.II, (F(1, 2), F(1, 2), 0), 12),
    (Figure.III, (F(4, 5), F(9, 10), F(1, 2)), 5),
    (Figure.III, (F(1, 2), F(1, 2), 0), 4),
])
def test_extension_bounds(lp_calls, figure, values, lps):
    family, target = canonical_family(figure)
    extension_bounds(family, list(values), target)
    assert len(lp_calls) == lps


def test_check_coherence(lp_calls, families):
    assert check_coherence(families["fig1_premise"], [F(1, 2), F(1, 2), 0])
    assert len(lp_calls) == 2


@pytest.mark.parametrize("lower_open, lps", [
    # Two I0 levels (t = 0 starves B|A), one phase-1 witness each.
    ((False, False, False), 2),
    ((True, False, False), 2),
])
def test_check_g_coherence(lp_calls, families, lower_open, lps):
    box = (OpenInterval(F(1, 2), 1, lower_open[0]), OpenInterval(F(1, 2), 1, lower_open[1]),
           OpenInterval.point(0))
    assert check_g_coherence(families["fig1_premise"], box)
    assert len(lp_calls) == lps
