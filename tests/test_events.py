"""Event algebra, parsing, and constituent tables."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from probsyll import (
    Event, TOP, BOT, ConditionalEvent, ImpossibleAntecedent, LengthMismatch,
    OpenInterval, ParseError, EventError, build_system, check_coherence,
    check_g_coherence, enumerate_constituents, parse_event, parse_conditional,
)

T, F = True, False


def world(a, b, c):
    return {"A": a, "B": b, "C": c}


# ---------------------------------------------------------------------------
# Formulas and parsing.
# ---------------------------------------------------------------------------

class TestEventAlgebra:
    def test_atom_evaluation(self):
        a = Event.atom("A")
        assert a.evaluate({"A": True})
        assert not a.evaluate({"A": False})

    def test_connectives(self):
        a, b = Event.atom("A"), Event.atom("B")
        w = {"A": True, "B": False}
        assert (a | b).evaluate(w)
        assert not (a & b).evaluate(w)
        assert (~b).evaluate(w)
        assert TOP.evaluate(w)
        assert not BOT.evaluate(w)

    def test_atoms_collection(self):
        e = parse_event("A & (B | !C) | D")
        assert e.atoms() == frozenset("ABCD")

    def test_satisfiability(self):
        a = Event.atom("A")
        assert (a | ~a).is_satisfiable()
        assert not (a & ~a).is_satisfiable()
        assert TOP.is_satisfiable()
        assert not BOT.is_satisfiable()

    def test_substitute(self):
        defs = {"MP": parse_event("M & P")}
        e = parse_event("MP | S").substitute(defs)
        assert e.atoms() == frozenset("MPS")
        assert e.evaluate({"M": True, "P": True, "S": False})

    def test_str_round_trip(self):
        for text in ["A", "!A", "A & B", "A | B & C", "!(A | B)", "A & (B | C)"]:
            e = parse_event(text)
            again = parse_event(str(e))
            for bits in product((True, False), repeat=len(e.atoms())):
                w = dict(zip(sorted(e.atoms()), bits))
                assert e.evaluate(w) == again.evaluate(w)

    @given(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_de_morgan(self, bits):
        a, b = Event.atom("A"), Event.atom("B")
        w = world(*bits)
        assert (~(a & b)).evaluate(w) == ((~a) | (~b)).evaluate(w)
        assert (~(a | b)).evaluate(w) == ((~a) & (~b)).evaluate(w)


class TestParsing:
    def test_precedence(self):
        # '|' binds looser than '&', '!' tightest.
        e = parse_event("A | B & C")
        assert e.evaluate(world(T, F, F))
        assert not e.evaluate(world(F, T, F))
        assert e.evaluate(world(F, T, T))
        e = parse_event("!A & B")
        assert e.evaluate(world(F, T, F))
        assert not e.evaluate(world(T, T, F))

    def test_parentheses(self):
        e = parse_event("(A | B) & C")
        assert not e.evaluate(world(T, T, F))
        assert e.evaluate(world(F, T, T))

    def test_multi_char_atoms(self):
        e = parse_event("Rain_1 & bird2")
        assert e.atoms() == frozenset({"Rain_1", "bird2"})

    @pytest.mark.parametrize("bad", ["", "A &", "& A", "(A", "A)", "A ? B", "A B"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_event(bad)

    def test_parse_conditional(self):
        ce = parse_conditional("C / A & B")
        assert str(ce.consequent) == "C"
        assert ce.antecedent.atoms() == frozenset("AB")
        ce = parse_conditional("A / (A | B)")
        assert ce.value_in(world(F, T, F)) is False
        assert ce.value_in(world(T, F, F)) is True
        assert ce.value_in(world(F, F, F)) is None

    @pytest.mark.parametrize("bad", ["A", "A / B / C", "/ A", "A /"])
    def test_conditional_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_conditional(bad)

    def test_impossible_antecedent(self):
        with pytest.raises(ImpossibleAntecedent):
            parse_conditional("C / A & !A")


class TestConditionalEvent:
    def test_three_values(self):
        ce = parse_conditional("C / B")
        assert ce.value_in(world(F, T, T)) is True
        assert ce.value_in(world(F, T, F)) is False
        assert ce.value_in(world(F, F, T)) is None

    def test_atoms(self):
        assert parse_conditional("C / A | B").atoms() == frozenset("ABC")


# ---------------------------------------------------------------------------
# Constituent tables: golden rows for the five families used throughout.
# ---------------------------------------------------------------------------

def _cells(table):
    return [c.cells for c in table.constituents]


def _rows(table):
    return [(table.describe(c), c.cells) for c in table.constituents]


def _formulas():
    """Formula trees over at most six atoms, with T, F, nested negations,
    n-ary connectives and subterms that occur twice."""
    leaves = st.one_of(st.sampled_from(["A", "B", "C", "D", "x", "Y2"]).map(Event.atom),
                       st.just(TOP), st.just(BOT))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            children.map(lambda e: ~e),
            children.map(lambda e: ~~e),
            pairs.map(lambda ab: ab[0] & ab[1]),
            pairs.map(lambda ab: ab[0] | ab[1]),
            pairs.map(lambda ab: (ab[0] & ab[1]) | ~ab[0]),
            st.tuples(st.sampled_from(["and", "or"]), st.lists(children, min_size=1, max_size=3))
            .map(lambda t: Event(t[0], args=tuple(t[1]))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _brute_satisfiable(event):
    names = sorted(event.atoms())
    return any(event.evaluate(dict(zip(names, bits)))
               for bits in product((True, False), repeat=len(names)))


def _brute_table(family):
    """Atoms, blocks and residual by a sweep of every world, as index, cells,
    worlds and representative."""
    names = sorted(set().union(*(ce.atoms() for ce in family)))
    blocks = {}
    for bits in product((True, False), repeat=len(names)):
        world = dict(zip(names, bits))
        blocks.setdefault(tuple(ce.value_in(world) for ce in family), []).append(bits)
    void = (None,) * len(family)
    residual = blocks.pop(void, None)
    return (tuple(names),
            [(i + 1, cells, tuple(ws), ws[0]) for i, (cells, ws) in enumerate(blocks.items())],
            residual and (0, void, tuple(residual), residual[0]))


def _fields(c):
    return c and (c.index, c.cells, c.worlds, c.representative)


class TestGoldenTables:
    def test_modus_ponens_family(self, families):
        # (C|B, B|A, C|A)
        table = enumerate_constituents(families["fig1_triple"])
        assert _rows(table) == [
            ("A B C", (T, T, T)),
            ("A B !C", (F, T, F)),
            ("A !B C", (None, F, T)),
            ("A !B !C", (None, F, F)),
            ("!A B C", (T, None, None)),
            ("!A B !C", (F, None, None)),
        ]
        assert table.residual is not None
        assert set(table.residual.worlds) == {(F, F, T), (F, F, F)}

    def test_figure1_premise_family(self, families):
        # (C|B, B|A, A|(A v B)); the two A!B worlds induce the same cells.
        table = enumerate_constituents(families["fig1_premise"])
        assert _cells(table) == [
            (T, T, T),
            (F, T, T),
            (None, F, T),
            (T, None, F),
            (F, None, F),
        ]
        assert table.constituents[2].worlds == ((T, F, T), (T, F, F))
        assert set(table.residual.worlds) == {(F, F, T), (F, F, F)}

    def test_figure2_triple_family(self, families):
        # (B|C, !B|A, !C|A)
        table = enumerate_constituents(families["fig2_triple"])
        assert _rows(table) == [
            ("A B C", (T, F, F)),
            ("A B !C", (None, F, T)),
            ("A !B C", (F, T, F)),
            ("A !B !C", (None, T, T)),
            ("!A B C", (T, None, None)),
            ("!A !B C", (F, None, None)),
        ]
        assert set(table.residual.worlds) == {(F, T, F), (F, F, F)}

    def test_figure2_premise_family(self, families):
        # (B|C, !B|A, A|(A v C))
        table = enumerate_constituents(families["fig2_premise"])
        assert _rows(table) == [
            ("A B C", (T, F, T)),
            ("A B !C", (None, F, T)),
            ("A !B C", (F, T, T)),
            ("A !B !C", (None, T, T)),
            ("!A B C", (T, None, F)),
            ("!A !B C", (F, None, F)),
        ]
        assert set(table.residual.worlds) == {(F, T, F), (F, F, F)}

    def test_figure3_premise_family(self, families):
        # (C|B, A|B, B|(A v B))
        table = enumerate_constituents(families["fig3_premise"])
        assert _cells(table) == [
            (T, T, T),
            (F, T, T),
            (None, None, F),
            (T, F, T),
            (F, F, T),
        ]
        assert table.constituents[2].worlds == ((T, F, T), (T, F, F))
        assert set(table.residual.worlds) == {(F, F, T), (F, F, F)}


class TestEnumeration:
    def test_single_event(self):
        table = enumerate_constituents([parse_conditional("A / A")])
        assert _cells(table) == [(T,)]
        assert table.residual.worlds == ((F,),)

    def test_no_residual(self):
        table = enumerate_constituents([parse_conditional("A / A | !A")])
        assert table.residual is None
        assert table.m == 2

    def test_indices(self, families):
        table = enumerate_constituents(families["fig3_premise"])
        assert [c.index for c in table.constituents] == [1, 2, 3, 4, 5]
        assert table.residual.index == 0

    def test_cache_identity(self, families):
        fam = families["fig1_premise"]
        assert enumerate_constituents(fam) is enumerate_constituents(fam)

    def test_empty_family(self):
        with pytest.raises(EventError):
            enumerate_constituents([])

    def test_atom_cap(self):
        fam = [ConditionalEvent(Event.atom(f"X{i}"), TOP) for i in range(13)]
        with pytest.raises(EventError):
            enumerate_constituents(fam)

    @given(st.lists(st.sampled_from(
        ["C / B", "B / A", "A / A | B", "!B / A", "C / A", "B / A | C",
         "A & B / C", "C / A & B"]), min_size=1, max_size=4, unique=True))
    def test_partition_invariants(self, texts):
        family = tuple(parse_conditional(t) for t in texts)
        table = enumerate_constituents(family)
        n, k = len(family), len(table.atoms)
        # blocks partition all 2^k assignments
        seen = [w for c in table.constituents for w in c.worlds]
        if table.residual:
            seen += list(table.residual.worlds)
        assert sorted(seen) == sorted(product((True, False), repeat=k))
        # cell tuples are pairwise distinct and consistent within a block
        cells = _cells(table)
        assert len(set(cells)) == len(cells)
        for c in table.constituents:
            for w in c.worlds:
                wd = dict(zip(table.atoms, w))
                assert tuple(ce.value_in(wd) for ce in family) == c.cells
        # at most 3^n blocks counting the residual
        assert table.m + (1 if table.residual else 0) <= 3 ** n

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_formulas(), _formulas()), min_size=1, max_size=4))
    def test_table_matches_brute_force(self, pairs):
        family = []
        for consequent, antecedent in pairs:
            for e in (consequent, antecedent):
                assert e.is_satisfiable() == _brute_satisfiable(e)
            if _brute_satisfiable(antecedent):
                family.append(ConditionalEvent(consequent, antecedent))
            else:
                with pytest.raises(ImpossibleAntecedent):
                    ConditionalEvent(consequent, antecedent)
        if not family:
            return
        table = enumerate_constituents(family)
        atoms, blocks, residual = _brute_table(family)
        assert table.atoms == atoms
        assert [_fields(c) for c in table.constituents] == blocks
        assert _fields(table.residual) == residual


class TestPoints:
    """The points Q_h of the constituents are the columns of the precise system."""

    def test_points_for_figure3(self, families):
        table = enumerate_constituents(families["fig3_premise"])
        x, y, t = Fraction(7, 10), Fraction(4, 5), Fraction(1, 2)
        rows = build_system(table, [x, y, t], [x, y, t]).rows[:3]
        assert list(zip(*rows)) == [
            (1, 1, 1),
            (0, 1, 1),
            (x, y, 0),
            (1, 0, 1),
            (0, 0, 1),
        ]

    def test_length_mismatch(self, families):
        fam = families["fig3_premise"]
        with pytest.raises(LengthMismatch):
            check_coherence(fam, [Fraction(1, 2)])
        with pytest.raises(LengthMismatch):
            check_g_coherence(fam, [OpenInterval.point(Fraction(1, 2))])

    def test_range_check(self, families):
        fam = families["fig3_premise"]
        half = Fraction(1, 2)
        with pytest.raises(ValueError):
            check_coherence(fam, [half, Fraction(3, 2), half])
        with pytest.raises(ValueError):
            check_g_coherence(fam, [OpenInterval.point(half),
                                    OpenInterval.closed(half, Fraction(3, 2)),
                                    OpenInterval.point(half)])
