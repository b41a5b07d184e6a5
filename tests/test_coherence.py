"""Coherence of precise assessments; g-coherence of boxes."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probsyll import (
    ConditionalEvent, Event, InfeasibleSystem, LengthMismatch, OpenInterval, TOP,
    build_system, check_coherence, check_g_coherence,
    compute_I0, enumerate_constituents, parse_conditional,
)
from probsyll.coherence import grid_points
from conftest import unit_fractions, unit_triples

F = Fraction


def ce(text):
    return parse_conditional(text)


def points(values):
    """The box of closed point intervals at values."""
    return tuple(OpenInterval.point(v) for v in values)


_LITERALS = [Event.atom(a) for a in "ABCD"]
_LITERALS += [~a for a in _LITERALS]
_WORLDS = [dict(zip("ABCD", (w >> k & 1 == 1 for k in range(4)))) for w in range(16)]
_OFFSETS = (0, F(1, 4), F(-1, 4), F(1, 8), F(-1, 8))


def _seeded_formula(rng):
    """A literal joined to 0-2 more by & or |."""
    formula = rng.choice(_LITERALS)
    for _ in range(rng.randint(0, 2)):
        other = rng.choice(_LITERALS)
        formula = formula & other if rng.random() < 0.5 else formula | other
    return formula


def seeded_boxes(seed):
    """Boxes of 1-4 events over <= 4 atoms, without end.  Each face lies at,
    or 1/4 or 1/8 off, the value that a random distribution over the worlds
    gives the event (a coherent point), clipped to [0, 1] and open at random."""
    rng = random.Random(seed)
    while True:
        family, size = [], rng.randint(1, 4)
        while len(family) < size:
            antecedent = _seeded_formula(rng)
            if antecedent.is_satisfiable():
                family.append(ConditionalEvent(_seeded_formula(rng), antecedent))
        weights = [rng.randint(0, 3) for _ in _WORLDS]
        box = []
        for event in family:
            cells = [(event.value_in(world), weight) for world, weight in zip(_WORLDS, weights)]
            inside = sum(weight for cell, weight in cells if cell is not None)
            true = sum(weight for cell, weight in cells if cell)
            v = F(true, inside) if inside else F(rng.randint(0, 4), 4)
            lo, hi = sorted(min(max(v + rng.choice(_OFFSETS), 0), 1) for _ in range(2))
            box.append(OpenInterval.point(lo) if lo == hi else
                       OpenInterval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        yield tuple(family), tuple(box)


GOLDEN_VERDICTS = (
    "baffc8fb6fddf7ebea3d4f51feed9bdf6f1ffbedec7f6d7df73dfe638bf74b79eb7f5ef7daddf99e7ffd9f91"
    "95bbdfddfb3bddfe78fdd6f36dbefd7f7abfbfebeefae69ef22d5fff3d3ded85afbfcd7f547f97a3aff63ff7"
    "fbd9cde3ad6af8fbfd1efe9e0e3d9f65ffd73f6f4ffeefef7f7b70f33fbedddfdfc99b8fbf"
)


@st.composite
def intervals(draw, max_denominator=4):
    """Nonempty subintervals of [0, 1] with small denominators, faces open at random."""
    lo, hi = sorted(draw(unit_fractions(max_denominator)) for _ in range(2))
    if lo == hi:
        return OpenInterval.point(lo)
    return OpenInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


# ---------------------------------------------------------------------------
# Precise assessments.
# ---------------------------------------------------------------------------

class TestLinearSystem:
    def test_build_system_figure3(self, families):
        table = enumerate_constituents(families["fig3_premise"])
        x, y, t = F(7, 10), F(4, 5), F(1, 2)
        system = build_system(table, [x, y, t], [x, y, t])
        assert system.rows == (
            (1, 0, x, 1, 0),
            (1, 1, y, 0, 0),
            (1, 1, 0, 1, 1),
            (1, 1, 1, 1, 1),
        )
        assert system.rhs == (x, y, t, 1)
        assert system.ncols == 5

    def test_solve_feasible_witness(self, families):
        table = enumerate_constituents(families["fig3_premise"])
        values = [F(7, 10), F(4, 5), F(1, 2)]
        system = build_system(table, values, values)
        witness = system.witness()
        assert witness is not None
        assert sum(witness) == 1
        for row, target in zip(system.rows, system.rhs):
            assert sum(q * l for q, l in zip(row, witness)) == target

    def test_solve_feasible_none(self):
        table = enumerate_constituents([ce("A / A")])
        system = build_system(table, [F(1, 2)], [F(1, 2)])
        assert system.witness() is None


class TestPreciseCoherence:
    def test_conditional_certainty_forced(self):
        fam = [ce("A / A")]
        assert check_coherence(fam, [1])
        assert not check_coherence(fam, [F(1, 2)])
        assert not check_coherence(fam, [0])

    def test_conflicting_duplicate(self):
        fam = [ce("A / A | !A"), ce("A / A | !A")]
        assert not check_coherence(fam, [F(1, 2), F(1, 3)])
        assert check_coherence(fam, [F(1, 2), F(1, 2)])

    def test_complement_must_sum_to_one(self):
        fam = [ce("A / A | !A"), ce("!A / A | !A")]
        assert check_coherence(fam, [F(1, 3), F(2, 3)])
        assert not check_coherence(fam, [F(1, 3), F(1, 3)])

    def test_conjunction_bounds(self):
        # p(A & B) > min(p(A), p(B)) is incoherent
        fam = [ce("A / A | !A"), ce("B / B | !B"), ce("A & B / A | !A")]
        assert check_coherence(fam, [F(1, 2), F(1, 2), F(1, 4)])
        assert not check_coherence(fam, [F(1, 2), F(1, 2), F(3, 4)])

    def test_recursion_needed_zero_antecedent(self, families):
        # t = 0 empties the A-antecedent; the subfamily check still passes.
        fam = families["fig1_premise"]
        assert check_coherence(fam, [F(1, 2), F(1, 2), 0])
        assert check_coherence(fam, [F(1, 2), F(1, 2), 0], method="full")

    def test_recursion_rejects_bad_subassessment(self):
        # p(B|TOP) = 0 forces all mass off B, where p(A|B) = 1/2 must still be
        # coherent on its own -- it is; but a duplicate conflict below it is not.
        fam = [ce("B / B | !B"), ce("A / B"), ce("A / B")]
        assert check_coherence(fam, [0, F(1, 2), F(1, 2)])
        assert not check_coherence(fam, [0, F(1, 2), F(1, 3)])

    def test_methods_agree_on_examples(self, families):
        cases = [
            (families["fig1_triple"], [F(4, 5), F(9, 10), F(1, 2)]),
            (families["fig2_premise"], [F(9, 10), F(1, 2), F(4, 5)]),
            (families["fig3_premise"], [F(7, 10), F(4, 5), 0]),
            ([ce("A / A")], [F(1, 2)]),
        ]
        for fam, values in cases:
            assert check_coherence(fam, values) == check_coherence(fam, values, method="full")

    def test_unknown_method(self, families):
        with pytest.raises(ValueError):
            check_coherence(families["fig1_premise"], [1, 1, 1], method="bogus")

    @settings(max_examples=40, deadline=None)
    @given(unit_triples(max_denominator=12))
    def test_premise_families_totally_coherent(self, families, values):
        for key in ("fig1_premise", "fig2_premise", "fig3_premise"):
            fam = families[key]
            assert check_coherence(fam, list(values))
            assert check_coherence(fam, list(values), method="full")


class TestI0:
    def test_zero_set_for_empty_import(self, families):
        fam = families["fig1_premise"]
        table = enumerate_constituents(fam)
        values = [F(1, 2), F(1, 2), 0]
        system = build_system(table, values, values)
        result = compute_I0(system)
        assert result.zero_set == (1,)  # only the B|A row is starved
        assert result.maxima[0] > 0 and result.maxima[2] > 0

    def test_all_positive_when_interior(self, families):
        fam = families["fig3_premise"]
        table = enumerate_constituents(fam)
        values = [F(7, 10), F(4, 5), F(1, 2)]
        system = build_system(table, values, values)
        result = compute_I0(system)
        assert result.zero_set == ()
        assert all(m > 0 for m in result.maxima)

    def test_infeasible_system_raises(self):
        table = enumerate_constituents([ce("A / A")])
        system = build_system(table, [F(1, 2)], [F(1, 2)])
        with pytest.raises(InfeasibleSystem):
            compute_I0(system)


# ---------------------------------------------------------------------------
# Boxes.
# ---------------------------------------------------------------------------

class TestBoxAssessment:
    """Boxes are sequences of OpenInterval; build_system checks their bounds."""

    def test_point_box(self, families):
        # lo == hi on every event gives the precise system: one "=" row each.
        table = enumerate_constituents(families["fig3_premise"])
        values = [F(1, 3), 1, 0]
        system = build_system(table, values, values)
        assert system.senses == ("=",) * 4
        assert system.rhs == (F(1, 3), 1, 0, 1)

    def test_box_rows(self, families):
        # lo < hi gives a ">= lo" and a "<= hi" row, with lo and hi off H_j.
        table = enumerate_constituents(families["fig3_premise"])
        y = F(4, 5)
        system = build_system(table, [F(1, 4), y, 0], [F(3, 4), y, 1])
        assert system.senses == (">=", "<=", "=", ">=", "<=", "=")
        assert system.rows[:2] == ((1, 0, F(1, 4), 1, 0), (1, 0, F(3, 4), 1, 0))
        assert system.rows[3:5] == ((1, 1, 0, 1, 1),) * 2  # H_3 covers every C_h
        assert system.rhs == (F(1, 4), F(3, 4), y, 0, 1, 1)

    def test_validation(self, families):
        with pytest.raises(ValueError):
            OpenInterval(F(1, 2), F(1, 4))
        with pytest.raises(ValueError):
            OpenInterval(1, 1, lower_open=True)
        fam = families["fig3_premise"]
        with pytest.raises(ValueError):
            check_g_coherence(fam, (OpenInterval(0, 2),) + points([0, 0]))
        with pytest.raises(LengthMismatch):
            check_g_coherence(fam, (OpenInterval(0, 1),))


class TestGCoherence:
    def test_full_box_always_g_coherent(self, families):
        box = (OpenInterval.closed(0, 1),) * 3
        for key in ("fig1_premise", "fig2_premise", "fig3_premise"):
            assert check_g_coherence(families[key], box)

    def test_point_box_matches_precise(self):
        fam = [ce("A / A")]
        assert check_g_coherence(fam, points([1]))
        assert not check_g_coherence(fam, points([F(1, 2)]))

    def test_interval_containing_coherent_point(self):
        fam = [ce("A / A")]
        assert check_g_coherence(fam, (OpenInterval.closed(F(1, 2), 1),))
        assert not check_g_coherence(fam, (OpenInterval.closed(0, F(1, 2)),))

    def test_open_face_excluding_only_point(self):
        fam = [ce("A / A")]
        # [1/2, 1) excludes the single coherent point 1
        assert not check_g_coherence(fam, (OpenInterval(F(1, 2), 1, upper_open=True),))
        # (1/2, 1] still contains it
        assert check_g_coherence(fam, (OpenInterval(F(1, 2), 1, lower_open=True),))

    def test_open_faces_on_figure_family(self, families):
        fam = families["fig3_premise"]
        box = points([1, 1]) + (OpenInterval(0, 1, lower_open=True),)
        assert check_g_coherence(fam, box)

    def test_conflicting_pair(self):
        fam = [ce("A / A | !A"), ce("!A / A | !A")]
        assert not check_g_coherence(fam, points([1, 1]))
        box = (OpenInterval.closed(F(3, 4), 1),) * 2
        assert not check_g_coherence(fam, box)
        box = (OpenInterval.closed(0, 1), OpenInterval.closed(F(3, 4), 1))
        assert check_g_coherence(fam, box)

    @settings(max_examples=25, deadline=None)
    @given(unit_triples(max_denominator=8))
    def test_point_in_gcoherent_box_iff_coherent(self, families, values):
        fam = families["fig2_premise"]
        assert check_g_coherence(fam, points(values)) == \
            check_coherence(fam, list(values), method="full")

    def test_open_face_forced_in_sub_box(self):
        # p(!A|A) = 0 is the only coherent value, so (0, 1/4) excludes it
        # and [0, 1/4) holds it; !D|C is free within [1/12, 5/24].
        fam = [ce("!D / C"), ce("!A / A")]
        first = OpenInterval.closed(F(1, 12), F(5, 24))
        assert not check_g_coherence(fam, (first, OpenInterval(0, F(1, 4), True, True)))
        assert check_g_coherence(fam, (first, OpenInterval(0, F(1, 4), upper_open=True)))

    def test_seeded_boxes_golden(self):
        # Verdicts on the first 1,000 seeded boxes, bit i for box i, as
        # decided with every open face shrunk by an infinitesimal over Q(eps).
        verdicts = [check_g_coherence(fam, box) for fam, box in islice(seeded_boxes(1), 1000)]
        golden = int(GOLDEN_VERDICTS, 16)
        assert [i for i, v in enumerate(verdicts) if v != (golden >> i & 1)] == []

    def test_wide_open_box(self):
        # 7 events over 12 atoms, every face open: a top system of 15 rows
        # over 351 constituents, whose open faces are slack maxima over Q.
        lines = [("C & E / J | B", 1, 3, 8, 11), ("H & D / K | G", 1, 3, 8, 10),
                 ("G & A / L | J", 1, 8, 8, 11), ("L & B / D | J", 1, 5, 5, 10),
                 ("A & A / K | I", 1, 6, 6, 11), ("L & D / A | I", 1, 9, 8, 11),
                 ("I & D / D | F", 1, 8, 6, 11)]
        fam = [ce(text) for text, *_ in lines]
        box = [OpenInterval(F(a, b), F(c, d), True, True) for _, a, b, c, d in lines]
        assert check_g_coherence(fam, box)

    @settings(max_examples=60, deadline=None)
    @given(intervals(), intervals())
    @example(OpenInterval.closed(F(1, 2), 1), OpenInterval(F(1, 2), 1, lower_open=True))
    def test_complement_pair(self, first, second):
        # p(E|H) + p(!E|H) = 1 is the only constraint: the box is g-coherent
        # iff first meets 1 - second, openness included.
        fam = [ce("A / B"), ce("!A / B")]
        mirror = OpenInterval(1 - second.upper, 1 - second.lower,
                              second.upper_open, second.lower_open)
        lo, hi = max(first.lower, mirror.lower), min(first.upper, mirror.upper)
        meets = lo < hi or (lo == hi and lo in first and lo in mirror)
        assert check_g_coherence(fam, (first, second)) == meets

    @settings(max_examples=60, deadline=None)
    @given(intervals(), intervals())
    @example(OpenInterval.closed(F(1, 2), 1), OpenInterval(0, F(1, 2), upper_open=True))
    def test_monotone_pair(self, first, second):
        # p(E & X|H) <= p(E|H) is the only constraint: the box is g-coherent
        # iff some x in first and y in second have x <= y.
        fam = [ce("A & C / B"), ce("A / B")]
        lo, hi = first.lower, second.upper
        some = lo < hi or (lo == hi and lo in first and hi in second)
        assert check_g_coherence(fam, (first, second)) == some


class TestGrids:
    def test_grid_density_and_endpoints(self):
        box = (OpenInterval.closed(0, 1), OpenInterval.point(F(1, 2)))
        pts = list(grid_points(box, 3))
        assert pts == [(0, F(1, 2)), (F(1, 2), F(1, 2)), (1, F(1, 2))]

    def test_grid_skips_open_endpoints(self):
        box = (OpenInterval(0, 1, True, True),)
        vals = [p[0] for p in grid_points(box, 5)]
        assert vals == [F(1, 4), F(1, 2), F(3, 4)]

    def test_grid_midpoint_fallback(self):
        box = (OpenInterval(0, 1, True, True),)
        vals = [p[0] for p in grid_points(box, 2)]
        assert vals == [F(1, 2)]

    def test_grid_density_validation(self):
        with pytest.raises(ValueError):
            list(grid_points(points([F(1, 2)]), 1))
