"""Boolean event formulas, conditional events, and constituent tables.

An Event is a boolean formula over named atoms.  A ConditionalEvent E|H is the
three-valued object that is true when E and H both hold, false when H holds but
E does not, and void when H fails; its antecedent must be possible.

Given a family (E_1|H_1, ..., E_n|H_n), the constituents are the atoms of the
partition it generates: total truth assignments merged whenever they induce the
same truth value on every cell E_jH_j / not-E_j H_j / not-H_j.  Constituents
inside the disjunction H_1 v ... v H_n are numbered C_1..C_m; the residual
block outside every antecedent, when present, is C_0.  A set of worlds is a
bitmask: bit w is the w-th assignment to the sorted atoms in descending
lexicographic order (world 0 is all True).  Formulas are evaluated once, as
truth-table masks, and the partition is refined by E_jH_j and H_j.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterable, Mapping, Optional

#: Cap on the number of distinct atoms in a family; every truth-table mask has
#: 2**k bits.
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

    def _mask(self, tables: Mapping[str, int], full: int) -> int:
        """Truth-table mask over the worlds of `_truth_tables`."""
        if self.op == "atom":
            return tables[self.name]
        masks = [a._mask(tables, full) for a in self.args]
        if self.op == "not":
            return full ^ masks[0]
        if self.op in ("and", "top"):  # T is the empty conjunction
            return reduce(and_, masks, full)
        if self.op in ("or", "bot"):  # F is the empty disjunction
            return reduce(or_, masks, 0)
        raise AssertionError(f"unknown op {self.op!r}")

    def is_satisfiable(self) -> bool:
        return self._mask(*_truth_tables(sorted(self.atoms()))) != 0

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

_ATOM = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*({_ATOM.pattern}|[!&|()/])")


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
        if _ATOM.fullmatch(tok):
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

def _truth_tables(names) -> tuple:
    """Masks of the sorted atoms `names` over their 2**k worlds, and the mask
    of all worlds: atom i holds in alternating runs of 2**(k-1-i) worlds."""
    k = len(names)
    if k > MAX_ATOMS:
        raise EventError(f"too many atoms ({k} > {MAX_ATOMS})")
    full = (1 << (1 << k)) - 1
    tables = {}
    for i, name in enumerate(names):
        run = 1 << (k - 1 - i)
        # A 1 at the start of every period of 2 * run worlds, times run ones.
        tables[name] = full // ((1 << 2 * run) - 1) * ((1 << run) - 1)
    return tables, full


def _world(w: int, width: int) -> tuple:
    """World w as booleans over the sorted atoms (world 0 is all True)."""
    return tuple(w >> s & 1 == 0 for s in range(width - 1, -1, -1))


@dataclass(frozen=True)
class Constituent:
    """One block of the partition generated by a family.

    cells[j] is True / False / None according to whether the block lies inside
    E_jH_j, inside not-E_j H_j, or outside H_j.  Bit w of mask is set when
    world w over the table's `width` sorted atoms lies in the block; worlds
    decodes them on demand (tuples of booleans, in descending lexicographic
    order), and worlds[0] is the canonical representative.
    """

    index: int
    mask: int
    width: int
    cells: tuple

    @property
    def worlds(self) -> tuple:
        bits = bin(self.mask)[:1:-1]
        return tuple(_world(w, self.width) for w, b in enumerate(bits) if b == "1")

    @property
    def representative(self) -> tuple:
        return _world((self.mask & -self.mask).bit_length() - 1, self.width)


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

    Constituent order is canonical: assignments are ordered descending
    lexicographically (True before False, atoms sorted alphabetically) and
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
    tables, full = _truth_tables(names)
    blocks = {(): full}  # cells so far -> mask of the worlds inducing them
    for ce in family:
        h = ce.antecedent._mask(tables, full)
        if not h:
            raise ImpossibleAntecedent(f"impossible antecedent: {ce.antecedent}")
        eh = h & ce.consequent._mask(tables, full)
        parts = ((True, eh), (False, h ^ eh), (None, full ^ h))
        blocks = {cells + (value,): mask & part
                  for cells, mask in blocks.items() for value, part in parts
                  if mask & part}

    width, void = len(names), (None,) * len(family)
    residual = blocks.pop(void, 0)
    ordered = sorted(blocks.items(), key=lambda item: item[1] & -item[1])
    constituents = tuple(Constituent(i + 1, mask, width, cells)
                         for i, (cells, mask) in enumerate(ordered))
    residual = Constituent(0, residual, width, void) if residual else None
    return ConstituentTable(family, tuple(names), constituents, residual)

