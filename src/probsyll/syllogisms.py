"""Aristotelian syllogistics over coherence-based probability semantics.

Sentence types are read probabilistically (A: p(P|S)=1, E: p(P|S)=0,
I: p(P|S)>0, O: p(not-P|S)>0).  A syllogism's premises plus an existential
import assumption carve a (half-open) box on the canonical premise family of
its figure; the inference is valid when the coherent-extension set Sigma of
the conclusion event is contained in the conclusion sentence's set of
admissible values, and strictly valid when the two sets are equal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .events import ConditionalEvent, Event, TOP
from .figures import Figure, NotGCoherent, sigma_with_openness
from .intervals import ExtensionInterval, OpenInterval
from .propagation import IncoherentPremises, extension_bounds


class SyllogismError(Exception):
    pass


class UnknownForm(SyllogismError):
    """Name not in the catalog of traditionally valid forms."""


class SentenceKind(enum.Enum):
    A = "A"  # universal affirmative: every S is P
    E = "E"  # universal negative: no S is P
    I = "I"  # particular affirmative: some S is P
    O = "O"  # particular negative: some S is not P

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SentenceType:
    kind: SentenceKind
    subject: str
    predicate: str


class ImportKind(enum.Enum):
    NONE = "none"
    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"

    @classmethod
    def coerce(cls, value) -> "ImportKind":
        if isinstance(value, cls):
            return value
        if value is None:
            return cls.NONE
        return cls(str(value).lower())


@dataclass(frozen=True)
class ProbConstraint:
    """A bound on the probability of one conditional event."""

    event: ConditionalEvent
    relation: str  # '=', '>', '<', '>=', '<='
    value: Fraction

    def interval(self) -> OpenInterval:
        v = Fraction(self.value)
        if self.relation == "=":
            return OpenInterval.point(v)
        if self.relation == ">":
            if v >= 1:
                raise ValueError("empty constraint: probability > 1 is unsatisfiable")
            return OpenInterval(v, 1, lower_open=True)
        if self.relation == ">=":
            return OpenInterval(v, 1)
        if self.relation == "<":
            if v <= 0:
                raise ValueError("empty constraint: probability < 0 is unsatisfiable")
            return OpenInterval(0, v, upper_open=True)
        if self.relation == "<=":
            return OpenInterval(0, v)
        raise ValueError(f"bad relation {self.relation!r}")

    def complement(self) -> "ProbConstraint":
        flipped = {"=": "=", ">": "<", "<": ">", ">=": "<=", "<=": ">="}[self.relation]
        return ProbConstraint(
            ConditionalEvent(~self.event.consequent, self.event.antecedent),
            flipped, 1 - self.value)

    def __str__(self):
        ante = str(self.event.antecedent)
        if self.event.antecedent.op in ("and", "or"):
            ante = f"({ante})"
        return f"p({self.event.consequent}|{ante}) {self.relation} {self.value}"


@dataclass(frozen=True)
class SyllogismForm:
    figure: Figure
    mood: Tuple[SentenceKind, SentenceKind, SentenceKind]
    name: Optional[str] = None
    subject: str = "S"
    middle: str = "M"
    predicate: str = "P"

    @property
    def mood_str(self) -> str:
        return "".join(k.value for k in self.mood)

    def sentences(self) -> Tuple[SentenceType, SentenceType, SentenceType]:
        """Major premise, minor premise, conclusion with the figure's term order."""
        s, m, p = self.subject, self.middle, self.predicate
        pairs = {
            Figure.I: ((m, p), (s, m)),
            Figure.II: ((p, m), (s, m)),
            Figure.III: ((m, p), (m, s)),
        }[self.figure]
        (maj_s, maj_p), (min_s, min_p) = pairs
        return (
            SentenceType(self.mood[0], maj_s, maj_p),
            SentenceType(self.mood[1], min_s, min_p),
            SentenceType(self.mood[2], s, p),
        )


@dataclass(frozen=True)
class Verdict:
    sigma: OpenInterval
    conclusion_set: OpenInterval
    valid: bool
    strictly_valid: bool


@dataclass(frozen=True)
class Default:
    """H ~> E (plausible consequence, p(E|H)=1); negated H ~/> E (p(E|H)<1)."""

    antecedent: str
    consequent: str
    negated: bool

    def __str__(self):
        arrow = "~/>" if self.negated else "~>"
        return f"{self.antecedent} {arrow} {self.consequent}"


@dataclass(frozen=True)
class DefaultRule:
    premises: tuple
    conclusion: Default
    strict: bool  # |=s marker vs plain |=

    def serialize(self) -> str:
        marker = "|=s" if self.strict else "|="
        return f"{', '.join(str(p) for p in self.premises)} {marker} {self.conclusion}"


# ---------------------------------------------------------------------------
# Sentence interpretation.
# ---------------------------------------------------------------------------

def interpret_sentence(sentence: SentenceType) -> ProbConstraint:
    """The probabilistic constraint of a basic sentence type."""
    s = Event.atom(sentence.subject)
    p = Event.atom(sentence.predicate)
    kind = sentence.kind
    if kind is SentenceKind.A:
        return ProbConstraint(ConditionalEvent(p, s), "=", Fraction(1))
    if kind is SentenceKind.E:
        return ProbConstraint(ConditionalEvent(p, s), "=", Fraction(0))
    if kind is SentenceKind.I:
        return ProbConstraint(ConditionalEvent(p, s), ">", Fraction(0))
    return ProbConstraint(ConditionalEvent(~p, s), ">", Fraction(0))


def _kind_interval(kind: SentenceKind) -> OpenInterval:
    """Admissible values of p(predicate|subject) for a sentence kind."""
    return {
        SentenceKind.A: OpenInterval.point(1),
        SentenceKind.E: OpenInterval.point(0),
        SentenceKind.I: OpenInterval(0, 1, lower_open=True),
        SentenceKind.O: OpenInterval(0, 1, upper_open=True),
    }[kind]


def _reflect(iv: OpenInterval) -> OpenInterval:
    """Interval of 1 - v for v in iv."""
    return OpenInterval(1 - iv.upper, 1 - iv.lower, iv.upper_open, iv.lower_open)


def _import_interval(import_kind) -> OpenInterval:
    """The import component t: [0,1] with no import, (0,1] otherwise."""
    if ImportKind.coerce(import_kind) is ImportKind.NONE:
        return OpenInterval.closed(0, 1)
    return OpenInterval(0, 1, lower_open=True)


def import_constraint(figure: Figure, kind) -> ProbConstraint:
    """Existential import for the figure (terms S, M, P).

    Conditional form: positive probability of the minor premise's antecedent
    given the disjunction of all premise antecedents.  Unconditional form:
    positive probability of the minor antecedent itself (a stronger premise).
    """
    kind = ImportKind.coerce(kind)
    if kind is ImportKind.NONE:
        raise ValueError("no import assumption requested")
    s, m, p = Event.atom("S"), Event.atom("M"), Event.atom("P")
    minor = {Figure.I: s, Figure.II: s, Figure.III: m}[figure]
    if kind is ImportKind.UNCONDITIONAL:
        return ProbConstraint(ConditionalEvent(minor, TOP), ">", Fraction(0))
    disjunction = {Figure.I: s | m, Figure.II: s | p, Figure.III: s | m}[figure]
    return ProbConstraint(ConditionalEvent(minor, disjunction), ">", Fraction(0))


# ---------------------------------------------------------------------------
# Verdicts.
# ---------------------------------------------------------------------------

def premise_box(form: SyllogismForm, import_kind) -> Tuple[OpenInterval, OpenInterval, OpenInterval]:
    """(x, y, t) component sets on the figure's canonical premise family.

    x and y measure the canonical first and second family components; in
    Figure II the second component is p(not-M|S), so the minor sentence's
    interval on p(M|S) is reflected.  t is the import component: [0,1] with no
    import, (0,1] otherwise (the unconditional form implies the conditional
    one, and reuses its Sigma).
    """
    t = _import_interval(import_kind)
    x = _kind_interval(form.mood[0])
    y = _kind_interval(form.mood[1])
    if form.figure is Figure.II:
        y = _reflect(y)
    return x, y, t


def conclusion_set(form: SyllogismForm) -> OpenInterval:
    """Admissible values for the figure's canonical target event."""
    iv = _kind_interval(form.mood[2])
    if form.figure is Figure.II:
        iv = _reflect(iv)  # target is p(not-P|S)
    return iv


def evaluate_syllogism(form: SyllogismForm, import_kind=ImportKind.CONDITIONAL) -> Verdict:
    box = premise_box(form, import_kind)
    sigma = sigma_with_openness(form.figure, box)
    concl = conclusion_set(form)
    return Verdict(
        sigma=sigma,
        conclusion_set=concl,
        valid=sigma.issubset(concl),
        strictly_valid=sigma == concl,
    )


# ---------------------------------------------------------------------------
# Catalog of traditionally valid forms.
# ---------------------------------------------------------------------------

_CATALOG_FORMS = (
    (Figure.I, "AAA", "Barbara"),
    (Figure.I, "AAI", "Barbari"),
    (Figure.I, "EAE", "Celarent"),
    (Figure.I, "EAO", "Celaront"),
    (Figure.I, "AII", "Darii"),
    (Figure.I, "EIO", "Ferio"),
    (Figure.II, "AEE", "Camestres"),
    (Figure.II, "AEO", "Camestrop"),
    (Figure.II, "EAE", "Cesare"),
    (Figure.II, "EAO", "Cesaro"),
    (Figure.II, "AOO", "Baroco"),
    (Figure.II, "EIO", "Festino"),
    (Figure.III, "AAI", "Darapti"),
    (Figure.III, "AII", "Datisi"),
    (Figure.III, "IAI", "Disamis"),
    (Figure.III, "EAO", "Felapton"),
    (Figure.III, "EIO", "Ferison"),
    (Figure.III, "OAO", "Bocardo"),
)


def parse_mood(mood: str) -> Tuple[SentenceKind, SentenceKind, SentenceKind]:
    if len(mood) != 3:
        raise UnknownForm(f"mood must have three letters, got {mood!r}")
    try:
        return tuple(SentenceKind(ch) for ch in mood.upper())
    except ValueError as exc:
        raise UnknownForm(f"bad mood {mood!r}") from exc


def catalog() -> list:
    """The 18 traditionally valid forms of Figures I-III."""
    return [
        SyllogismForm(fig, parse_mood(mood), name)
        for fig, mood, name in _CATALOG_FORMS
    ]


def form_by_name(name: str) -> SyllogismForm:
    for form in catalog():
        if form.name.lower() == name.lower():
            return form
    raise UnknownForm(f"unknown syllogism {name!r}")


# ---------------------------------------------------------------------------
# Defaults translation.
# ---------------------------------------------------------------------------

def _sentence_default(kind: SentenceKind, subject: str, predicate: str) -> Default:
    if kind is SentenceKind.A:
        return Default(subject, predicate, False)
    if kind is SentenceKind.E:
        return Default(subject, "~" + predicate, False)
    if kind is SentenceKind.I:
        return Default(subject, "~" + predicate, True)
    return Default(subject, predicate, True)


def to_defaults(form: SyllogismForm) -> DefaultRule:
    """Defaults / negated-defaults reading of a catalog form.

    The import assumption becomes the negated default
    (disjunction of antecedents) ~/> (complement of the minor antecedent).
    """
    if (form.figure, form.mood_str) not in {(f, m) for f, m, _ in _CATALOG_FORMS}:
        raise UnknownForm(f"{form.figure} {form.mood_str} is not a catalog form")
    major, minor, concl = form.sentences()
    disjunction = {
        Figure.I: f"({form.subject} v {form.middle})",
        Figure.II: f"({form.subject} v {form.predicate})",
        Figure.III: f"({form.subject} v {form.middle})",
    }[form.figure]
    minor_antecedent = {Figure.I: form.subject, Figure.II: form.subject,
                        Figure.III: form.middle}[form.figure]
    premises = (
        _sentence_default(major.kind, major.subject, major.predicate),
        _sentence_default(minor.kind, minor.subject, minor.predicate),
        Default(disjunction, "~" + minor_antecedent, True),
    )
    verdict = evaluate_syllogism(form, ImportKind.CONDITIONAL)
    return DefaultRule(
        premises,
        _sentence_default(concl.kind, concl.subject, concl.predicate),
        strict=verdict.strictly_valid,
    )


# ---------------------------------------------------------------------------
# p-entailment and generalized quantifiers.
# ---------------------------------------------------------------------------

def check_p_entailment(premises: Iterable, conclusion: ConditionalEvent) -> bool:
    """Premises p-entail the conclusion iff the all-ones premise assessment is
    coherent (p-consistency) and forces the conclusion to probability one."""
    premises = tuple(premises)
    try:
        bounds = extension_bounds(premises, [1] * len(premises), conclusion)
    except IncoherentPremises:
        return False
    return bounds == ExtensionInterval(1, 1)


def gq_syllogism(figure: Figure, thresholds: Sequence, import_kind=ImportKind.CONDITIONAL) -> OpenInterval:
    """Sigma for generalized-quantifier premises on a figure's canonical family.

    thresholds: two (relation, value) pairs constraining the canonical first
    and second components directly (e.g. Figure II: p(M|P) and p(not-M|S)),
    with relations '=', '>=', '<=', '>', '<'.
    """
    if len(thresholds) != 2:
        raise ValueError("expected one (relation, value) pair per premise")
    components = []
    for relation, value in thresholds:
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError(f"threshold {value} outside [0, 1]")
        dummy = ProbConstraint(
            ConditionalEvent(Event.atom("P"), Event.atom("S")), relation, value)
        components.append(dummy.interval())
    t = _import_interval(import_kind)
    return sigma_with_openness(figure, (components[0], components[1], t))
