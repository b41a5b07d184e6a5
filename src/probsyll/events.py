"""Boolean event formulas, conditional events, and constituent tables.

An Event is a boolean formula over named atoms.  A ConditionalEvent E|H is the
three-valued object that is true when E and H both hold, false when H holds but
E does not, and void when H fails; its antecedent must be possible.

Given a family (E_1|H_1, ..., E_n|H_n), the constituents are the atoms of the
partition it generates: total truth assignments merged whenever they induce the
same truth value on every cell E_jH_j / not-E_j H_j / not-H_j.  Constituents
inside the disjunction H_1 v ... v H_n are numbered C_1..C_m; the residual
block outside every antecedent, when present, is C_0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional

#: Cap on the number of distinct atoms in a family; constituent generation is a
#: brute-force sweep over 2**k assignments.
MAX_ATOMS = 12

#: Cap on the depth of a formula tree, and on nested parentheses and negations
#: while parsing: formulas are walked recursively.
MAX_DEPTH = 100

#: Cap on the number of nodes `Event.substitute` may build: definitions that
#: reuse earlier names (D1 = D0 | D0, D2 = D1 | D1, ...) double the tree at
#: every line, well within MAX_DEPTH.
MAX_NODES = 10_000


class EventError(Exception):
    """Base class for event-algebra errors."""


class ParseError(EventError):
    """Malformed event or conditional-event text."""


class ImpossibleAntecedent(EventError):
    """A conditioning event with no satisfying assignment."""


class LengthMismatch(EventError):
    """Assessment length differs from family length."""


@dataclass(frozen=True)
class Event:
    """Boolean formula tree: atoms, negation, conjunction, disjunction, T, F."""

    op: str  # 'atom' | 'not' | 'and' | 'or' | 'top' | 'bot'
    name: Optional[str] = None
    args: tuple = ()

    @staticmethod
    def atom(name: str) -> "Event":
        return Event("atom", name=name)

    def __invert__(self) -> "Event":
        return Event("not", args=(self,))

    def __and__(self, other: "Event") -> "Event":
        return Event("and", args=(self, other))

    def __or__(self, other: "Event") -> "Event":
        return Event("or", args=(self, other))

    def atoms(self) -> frozenset:
        if self.op == "atom":
            return frozenset((self.name,))
        out = frozenset()
        for a in self.args:
            out |= a.atoms()
        return out

    def evaluate(self, world: Mapping[str, bool]) -> bool:
        if self.op == "atom":
            return bool(world[self.name])
        if self.op == "not":
            return not self.args[0].evaluate(world)
        if self.op == "and":
            return all(a.evaluate(world) for a in self.args)
        if self.op == "or":
            return any(a.evaluate(world) for a in self.args)
        if self.op == "top":
            return True
        if self.op == "bot":
            return False
        raise AssertionError(f"unknown op {self.op!r}")

    def is_satisfiable(self) -> bool:
        names = sorted(self.atoms())
        if len(names) > MAX_ATOMS:
            raise EventError(f"too many atoms ({len(names)} > {MAX_ATOMS})")
        return any(
            self.evaluate(dict(zip(names, bits)))
            for bits in product((True, False), repeat=len(names))
        )

    def substitute(self, definitions: Mapping[str, "Event"]) -> "Event":
        """Replace atoms by named sub-formulas (used by the CLI's [events] section).

        Raises ParseError when the result nests deeper than MAX_DEPTH, each
        replaced name counting as one more level, so a definition that refers
        to itself cannot recurse forever, or when it has more than MAX_NODES
        nodes.
        """
        nodes = 0

        def walk(event, depth):
            nonlocal nodes
            nodes += 1
            if nodes > MAX_NODES:
                raise ParseError(f"formula expands to more than {MAX_NODES} nodes")
            if depth > MAX_DEPTH:
                raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels")
            if event.op == "atom":
                repl = definitions.get(event.name)
                return event if repl is None else walk(repl, depth + 1)
            if not event.args:
                return event
            return Event(event.op, event.name,
                         tuple(walk(a, depth + 1) for a in event.args))

        return walk(self, 1)

    def _render(self, parent_prec: int) -> str:
        prec = {"or": 1, "and": 2, "not": 3, "atom": 4, "top": 4, "bot": 4}[self.op]
        if self.op == "atom":
            s = self.name
        elif self.op == "top":
            s = "T"
        elif self.op == "bot":
            s = "F"
        elif self.op == "not":
            s = "!" + self.args[0]._render(3)
        else:
            sep = " & " if self.op == "and" else " | "
            s = sep.join(a._render(prec) for a in self.args)
        if prec < parent_prec:
            return "(" + s + ")"
        return s

    def __str__(self):
        return self._render(0)


TOP = Event("top")
BOT = Event("bot")


@dataclass(frozen=True)
class ConditionalEvent:
    """Three-valued conditional event consequent|antecedent."""

    consequent: Event
    antecedent: Event

    def __post_init__(self):
        if not self.antecedent.is_satisfiable():
            raise ImpossibleAntecedent(f"impossible antecedent: {self.antecedent}")

    def atoms(self) -> frozenset:
        return self.consequent.atoms() | self.antecedent.atoms()

    def value_in(self, world: Mapping[str, bool]) -> Optional[bool]:
        """True / False / None (void) in the given world."""
        if not self.antecedent.evaluate(world):
            return None
        return self.consequent.evaluate(world)

    def __str__(self):
        return f"{self.consequent} / {self.antecedent}"


# ---------------------------------------------------------------------------
# Parsing.  Grammar:
#   conditional := expr '/' expr
#   expr   := term ('|' term)*
#   term   := factor ('&' factor)*
#   factor := '!' factor | atom | '(' expr ')'
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[!&|()/])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self, depth=0) -> Event:
        node = self.term(depth)
        while self.peek() == "|":
            self.take()
            node = node | self.term(depth)
        return node

    def term(self, depth) -> Event:
        node = self.factor(depth)
        while self.peek() == "&":
            self.take()
            node = node & self.factor(depth)
        return node

    def factor(self, depth) -> Event:
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels")
        tok = self.take()
        if tok == "!":
            return ~self.factor(depth + 1)
        if tok == "(":
            node = self.expr(depth + 1)
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return node
        if tok is None:
            raise ParseError("unexpected end of input")
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            return Event.atom(tok)
        raise ParseError(f"unexpected token {tok!r}")


def _check_depth(event: Event) -> Event:
    """The formula itself, or ParseError if its tree is deeper than MAX_DEPTH."""
    level, depth = [event], 0
    while level:
        depth += 1
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels")
        level = [a for e in level for a in e.args]
    return event


def _parse(tokens, text: str) -> Event:
    parser = _Parser(tokens)
    node = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at {parser.peek()!r} in {text!r}")
    return _check_depth(node)


def parse_event(text: str) -> Event:
    return _parse(_tokenize(text), text)


def parse_conditional(text: str) -> ConditionalEvent:
    """Parse 'E / H' (slash = given)."""
    tokens = _tokenize(text)
    depth = 0
    split = None
    for idx, tok in enumerate(tokens):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif tok == "/" and depth == 0:
            if split is not None:
                raise ParseError(f"more than one top-level '/' in {text!r}")
            split = idx
    if split is None:
        raise ParseError(f"missing '/' in conditional event {text!r}")
    return ConditionalEvent(_parse(tokens[:split], text), _parse(tokens[split + 1:], text))


# ---------------------------------------------------------------------------
# Constituents.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constituent:
    """One block of the partition generated by a family.

    cells[j] is True / False / None according to whether the block lies inside
    E_jH_j, inside not-E_j H_j, or outside H_j.  worlds lists the merged atom
    assignments (tuples of booleans over the table's sorted atoms), in
    descending lexicographic order; worlds[0] is the canonical representative.
    """

    index: int
    worlds: tuple
    cells: tuple

    @property
    def representative(self):
        return self.worlds[0]


@dataclass(frozen=True)
class ConstituentTable:
    family: tuple
    atoms: tuple
    constituents: tuple  # C_1 .. C_m, all inside H_1 v ... v H_n
    residual: Optional[Constituent]  # C_0, outside every antecedent

    @property
    def m(self) -> int:
        return len(self.constituents)

    def indicators(self, j: int) -> tuple:
        """0/1 rows over C_1..C_m of membership in E_jH_j and in H_j; built per
        call, since cached tables holding them would grow by 2n rows of m."""
        cells = [c.cells[j] for c in self.constituents]
        return [1 if v else 0 for v in cells], [0 if v is None else 1 for v in cells]

    def describe(self, constituent: Constituent) -> str:
        """Human-readable conjunction for the representative world, e.g. 'A !B C'."""
        rep = constituent.representative
        return " ".join(a if v else "!" + a for a, v in zip(self.atoms, rep))


def enumerate_constituents(family: Iterable[ConditionalEvent]) -> ConstituentTable:
    """Partition the atom assignments by the cell values they induce.

    Constituent order is canonical: assignments are swept in descending
    lexicographic order (True before False, atoms sorted alphabetically) and
    blocks appear in order of their first (maximal) assignment.  The all-void
    block, if any, is returned separately as the residual C_0.
    """
    family = tuple(family)
    if not family:
        raise EventError("empty family")
    return _table(family)


@lru_cache(maxsize=1024)
def _table(family: tuple) -> ConstituentTable:
    names = sorted(set().union(*(ce.atoms() for ce in family)))
    if len(names) > MAX_ATOMS:
        raise EventError(f"too many atoms ({len(names)} > {MAX_ATOMS})")
    for ce in family:
        if not ce.antecedent.is_satisfiable():
            raise ImpossibleAntecedent(f"impossible antecedent: {ce.antecedent}")

    blocks: dict = {}
    for bits in product((True, False), repeat=len(names)):
        world = dict(zip(names, bits))
        cells = tuple(ce.value_in(world) for ce in family)
        blocks.setdefault(cells, []).append(bits)

    void = (None,) * len(family)
    residual_worlds = blocks.pop(void, None)
    constituents = tuple(
        Constituent(i + 1, tuple(worlds), cells)
        for i, (cells, worlds) in enumerate(blocks.items())
    )
    residual = Constituent(0, tuple(residual_worlds), void) if residual_worlds else None
    return ConstituentTable(family, tuple(names), constituents, residual)


def points_for(table: ConstituentTable, assessment) -> list:
    """Points Q_h associated with C_1..C_m: entries 1, 0 or p_j per cell.

    Entries are taken from the assessment unchanged, so any exact numeric type
    with rational semantics works (Fraction, or the infinitesimal field used
    for open-endpoint analysis).
    """
    values = list(assessment)
    if len(values) != len(table.family):
        raise LengthMismatch(
            f"assessment length {len(values)} != family length {len(table.family)}"
        )
    for v in values:
        if not 0 <= v <= 1:
            raise ValueError(f"assessment value {v} outside [0, 1]")
    return [
        tuple(
            p if cell is None else (1 if cell else 0)
            for cell, p in zip(c.cells, values)
        )
        for c in table.constituents
    ]
