"""LP work per answer: a regression bound that does not depend on timing.

A phase-1 run solves a system from scratch; a phase-2 run optimizes one
objective from a phase-1 basis.  `solve_lp` counts once in each.  The pivot
counts pin the Bland path itself: every pivot of phase 1, phase 2 and faces.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from probsyll import (Figure, OpenInterval, canonical_family, check_coherence,
                      check_g_coherence, extension_bounds, parse_conditional)
from probsyll import simplex

F = Fraction


@pytest.fixture
def lp_runs(monkeypatch):
    """A Counter of "phase1" and "phase2" runs, whichever binding is used."""
    runs = Counter()
    for phase in ("phase1", "phase2"):
        original = getattr(simplex, phase)

        def counting(*args, _phase=phase, _original=original, **kwargs):
            runs[_phase] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "probsyll" or name.startswith("probsyll."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return runs


# figure, premise values, then the phase-1 and phase-2 runs when each probe
# solved its system (6) with a phase 1 of its own, which also name the cases,
# and the runs with one premise phase 1 per (sub)family.
EXTENSIONS = [
    (Figure.I, (F(4, 5), F(9, 10), F(1, 2)), 4, 1, 2, 3),
    (Figure.I, (F(1, 2), F(1, 2), 0), 6, 4, 3, 5),
    (Figure.II, (F(4, 5), F(9, 10), F(1, 2)), 4, 1, 2, 3),
    (Figure.II, (F(1, 2), F(1, 2), 0), 6, 4, 3, 5),
    (Figure.III, (F(4, 5), F(9, 10), F(1, 2)), 5, 2, 2, 4),
    (Figure.III, (F(1, 2), F(1, 2), 0), 4, 0, 2, 1),
]
RUNS = {(figure, values): (cold1, phase1, phase2)
        for figure, values, cold1, _cold2, phase1, phase2 in EXTENSIONS}


@pytest.mark.parametrize("figure, values, cold", [case[:3] for case in EXTENSIONS])
def test_extension_bounds(lp_runs, figure, values, cold):
    # One premise phase 1 per (sub)family, and one for Step 2's program.
    family, target = canonical_family(figure)
    extension_bounds(family, list(values), target)
    assert lp_runs["phase1"] == RUNS[figure, values][1] <= cold


@pytest.mark.parametrize("figure, values, cold", [case[:2] + case[3:4] for case in EXTENSIONS])
def test_extension_bounds_warm(lp_runs, figure, values, cold):
    # A probe's face costs a phase 2, in place of the probe's own phase 1,
    # only where the premise witness puts mass on the constituents it holds
    # at zero; maxima the face's witness already shows positive need none.
    cold1, _phase1, phase2 = RUNS[figure, values]
    family, target = canonical_family(figure)
    extension_bounds(family, list(values), target)
    assert lp_runs["phase2"] == phase2
    assert lp_runs["phase1"] + lp_runs["phase2"] <= cold1 + cold


def test_check_coherence(lp_runs, families):
    assert check_coherence(families["fig1_premise"], [F(1, 2), F(1, 2), 0])
    assert lp_runs == {"phase1": 2}


def test_check_coherence_full(lp_runs, families):
    # One phase 1 per level, then a warm phase 2 per maximum: 3 events, then 1.
    assert check_coherence(families["fig1_premise"], [F(1, 2), F(1, 2), 0], method="full")
    assert lp_runs == {"phase1": 2, "phase2": 4}


@pytest.mark.parametrize("lower_open, lps", [
    # Two I0 levels (t = 0 starves B|A), one phase-1 witness each.
    ((False, False, False), 2),
    ((True, False, False), 2),
])
def test_check_g_coherence(lp_runs, families, lower_open, lps):
    box = (OpenInterval(F(1, 2), 1, lower_open[0]), OpenInterval(F(1, 2), 1, lower_open[1]),
           OpenInterval.point(0))
    assert check_g_coherence(families["fig1_premise"], box)
    assert lp_runs == {"phase1": lps}


@pytest.fixture
def pivots(monkeypatch):
    """A Counter whose "pivot" entry counts the simplex tableau's pivots."""
    count = Counter()
    original = simplex._Tableau.pivot

    def counting(self, r, e):
        count["pivot"] += 1
        return original(self, r, e)

    monkeypatch.setattr(simplex._Tableau, "pivot", counting)
    return count


# Pivots per EXTENSIONS case, in order: the entering and leaving choices, the
# bases phase 1 and faces start from, and the degenerate drive-out pivots.
EXTENSION_PIVOTS = [11, 14, 13, 15, 12, 12]


@pytest.mark.parametrize("figure, values, count",
                         [case[:2] + (count,) for case, count in zip(EXTENSIONS, EXTENSION_PIVOTS)])
def test_extension_bounds_pivots(pivots, figure, values, count):
    family, target = canonical_family(figure)
    extension_bounds(family, list(values), target)
    assert pivots["pivot"] == count


def test_check_coherence_pivots(pivots, families):
    assert check_coherence(families["fig1_premise"], [F(1, 2), F(1, 2), 0])
    assert pivots["pivot"] == 8


@pytest.mark.parametrize("lower_open, count", [
    ((False, False, False), 17),
    ((True, False, False), 17),
])
def test_check_g_coherence_pivots(pivots, families, lower_open, count):
    box = (OpenInterval(F(1, 2), 1, lower_open[0]), OpenInterval(F(1, 2), 1, lower_open[1]),
           OpenInterval.point(0))
    assert check_g_coherence(families["fig1_premise"], box)
    assert pivots["pivot"] == count


# Boxes with two open faces, decided over Q(eps): the Bland path on the
# substituted tableau.  t = 0 starves B|A, so each takes two I0 levels.
@pytest.mark.parametrize("figure, count", [
    (Figure.I, 16),
    (Figure.II, 17),
    (Figure.III, 13),
])
def test_check_g_coherence_two_open_faces_pivots(pivots, figure, count):
    box = (OpenInterval(F(1, 2), 1, lower_open=True),
           OpenInterval(F(1, 2), 1, upper_open=True), OpenInterval.point(0))
    assert check_g_coherence(canonical_family(figure)[0], box)
    assert pivots["pivot"] == count


# E|H and !E|H are coherent exactly on x + y = 1, which these boxes touch in
# the one point x = y = 1/2, closed in both boxes or open in the first.
@pytest.mark.parametrize("first_open, coherent, count", [
    (False, True, 6),
    (True, False, 4),
])
def test_check_g_coherence_pair_pivots(pivots, first_open, coherent, count):
    family = (parse_conditional("A & B / C"), parse_conditional("!(A & B) / C"))
    box = (OpenInterval(F(1, 2), F(3, 4), lower_open=first_open, upper_open=not first_open),
           OpenInterval(F(1, 2), F(3, 4), upper_open=True))
    assert check_g_coherence(family, box) is coherent
    assert pivots["pivot"] == count
