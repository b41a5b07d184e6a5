"""Coherence-based probabilistic reasoning over conditional events.

Exact (rational-arithmetic) coherence checking of conditional probability
assessments, linear-programming extension bounds, closed-form propagation
rules for syllogistic Figures I-III, and probabilistic verdicts for the
traditional Aristotelian syllogisms under existential import.
"""

from .events import (
    Event, TOP, BOT, ConditionalEvent, Constituent, ConstituentTable,
    EventError, ParseError, ImpossibleAntecedent, LengthMismatch,
    enumerate_constituents, parse_event, parse_conditional,
)
from .intervals import ExtensionInterval, OpenInterval
from .infinitesimals import EPS, EpsRational
from .coherence import (
    LinearSystem, I0Result, InfeasibleSystem,
    build_system, compute_I0, coherence_witness,
    check_coherence, check_g_coherence,
)
from .simplex import Infeasible, Unbounded
from .propagation import (
    IncoherentPremises, extension_bounds, extension_union_sampled,
)
from .figures import (
    Figure, NotGCoherent, canonical_family,
    figure_bounds, figure_box_bounds, sigma_with_openness,
)
from .syllogisms import (
    SentenceKind, SentenceType, SyllogismForm, ImportKind,
    ProbConstraint, Verdict, Default, DefaultRule, UnknownForm,
    interpret_sentence, import_constraint, premise_box, conclusion_set,
    evaluate_syllogism, catalog, form_by_name, parse_mood, to_defaults,
    check_p_entailment, gq_syllogism,
)

__version__ = "0.1.0"
