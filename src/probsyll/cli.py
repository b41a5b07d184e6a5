"""Command-line front end.

Problem files are line-oriented with sections:

    [events]
    MP = M & P            # named sub-formulas, usable as atoms below

    [assess]
    C / B = 0.3           # exact: 0.3 means 3/10
    B / A = 1/2
    A / (A | B) in (0, 1]

    [target]
    C / A

    [syllogism]
    name = barbara        # or: figure = I  /  mood = AAA
    import = conditional

Subcommands: check, propagate, syllogism, catalog.
Exit codes: 0 coherent/valid, 1 incoherent/invalid, 2 errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .coherence import (BoxAssessment, check_coherence, check_g_coherence,
                        coherence_witness)
from .events import (ConditionalEvent, EventError, ParseError,
                     parse_conditional, parse_event)
from .figures import Figure, NotGCoherent
from .intervals import ExtensionInterval, OpenInterval
from .propagation import (IncoherentPremises, extension_bounds,
                          extension_union_sampled)
from .syllogisms import (ImportKind, SyllogismForm, UnknownForm, catalog,
                         evaluate_syllogism, form_by_name, import_constraint,
                         interpret_sentence, parse_mood, premise_box,
                         to_defaults)


class ProblemFileError(Exception):
    pass


class ProblemFile:
    def __init__(self):
        self.events: dict = {}
        self.assessments: list = []  # (ConditionalEvent, OpenInterval)
        self.target: Optional[ConditionalEvent] = None
        self.syllogism: dict = {}

    @property
    def family(self):
        return tuple(ce for ce, _ in self.assessments)

    @property
    def is_precise(self):
        return all(iv.is_point for _, iv in self.assessments)

    def point_values(self):
        return [iv.lower for _, iv in self.assessments]

    def box(self) -> BoxAssessment:
        return BoxAssessment.from_intervals([iv for _, iv in self.assessments])


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFileError(f"bad rational value {text!r}") from exc


_INTERVAL_RE = re.compile(r"^([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])$")
_POINT_SET_RE = re.compile(r"^\{\s*([^}\s]+)\s*\}$")


def parse_value_set(text: str) -> OpenInterval:
    """A point value, a {v} singleton, or an interval like (0, 1]."""
    text = text.strip()
    m = _POINT_SET_RE.match(text)
    if m:
        return OpenInterval.point(parse_rational(m.group(1)))
    m = _INTERVAL_RE.match(text)
    if m:
        return OpenInterval(
            parse_rational(m.group(2)), parse_rational(m.group(3)),
            lower_open=m.group(1) == "(", upper_open=m.group(4) == ")",
        )
    return OpenInterval.point(parse_rational(text))


def load_problem(path: str) -> ProblemFile:
    problem = ProblemFile()
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("events", "assess", "target", "syllogism"):
                    raise ProblemFileError(f"line {lineno}: unknown section [{section}]")
                continue
            if section == "events":
                name, _, expr = line.partition("=")
                if not _:
                    raise ProblemFileError(f"line {lineno}: expected NAME = formula")
                name = name.strip()
                expansion = parse_event(expr).substitute(problem.events)
                if name in expansion.atoms():
                    raise ProblemFileError(f"line {lineno}: {name} is defined in terms of itself")
                problem.events[name] = expansion
            elif section == "assess":
                if " in " in line:
                    lhs, rhs = line.rsplit(" in ", 1)
                else:
                    lhs, _, rhs = line.rpartition("=")
                    if not _:
                        raise ProblemFileError(f"line {lineno}: expected EVENT = value")
                ce = parse_conditional(lhs)
                ce = ConditionalEvent(ce.consequent.substitute(problem.events),
                                      ce.antecedent.substitute(problem.events))
                problem.assessments.append((ce, parse_value_set(rhs)))
            elif section == "target":
                ce = parse_conditional(line)
                problem.target = ConditionalEvent(
                    ce.consequent.substitute(problem.events),
                    ce.antecedent.substitute(problem.events))
            elif section == "syllogism":
                key, _, value = line.partition("=")
                if not _:
                    raise ProblemFileError(f"line {lineno}: expected key = value")
                problem.syllogism[key.strip().lower()] = value.strip()
            else:
                raise ProblemFileError(f"line {lineno}: content before any section")
    return problem


# ---------------------------------------------------------------------------
# Report helpers.
# ---------------------------------------------------------------------------

def _interval_json(iv):
    if isinstance(iv, ExtensionInterval):
        return {"lower": str(iv.lower), "upper": str(iv.upper),
                "lower_open": False, "upper_open": False}
    return {"lower": str(iv.lower), "upper": str(iv.upper),
            "lower_open": iv.lower_open, "upper_open": iv.upper_open}


def _emit(report: dict, fmt: str, lines):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_check(path: str, fmt: str = "text") -> int:
    problem = load_problem(path)
    if not problem.assessments:
        raise ProblemFileError("no [assess] section")
    family = problem.family
    if problem.is_precise:
        witness = coherence_witness(family, problem.point_values())
        coherent = witness is not None
        report = {
            "mode": "precise",
            "coherent": coherent,
            "witness": [str(l) for l in witness] if witness else None,
        }
        lines = ["coherent" if coherent else "incoherent"]
        if witness:
            lines.append("witness: " + " ".join(str(l) for l in witness))
    else:
        coherent = check_g_coherence(family, problem.box())
        report = {"mode": "box", "g_coherent": coherent}
        lines = ["g-coherent" if coherent else "not g-coherent"]
    _emit(report, fmt, lines)
    return 0 if coherent else 1


def cmd_propagate(path: str, fmt: str = "text", grid: int = 5, oracle: bool = False) -> int:
    problem = load_problem(path)
    if problem.target is None:
        raise ProblemFileError("no [target] section")
    family = problem.family
    if problem.is_precise:
        bounds = extension_bounds(family, problem.point_values(), problem.target)
    else:
        bounds = extension_union_sampled(family, problem.box(), problem.target,
                                         grid_density=grid)
    non_informative = bounds.lower == 0 and bounds.upper == 1
    verified = None
    if oracle and problem.is_precise:
        values = problem.point_values()
        verified = all(
            check_coherence(family + (problem.target,), values + [endpoint])
            for endpoint in (bounds.lower, bounds.upper)
        )
    report = {
        "interval": _interval_json(bounds),
        "decimal": [float(bounds.lower), float(bounds.upper)],
        "non_informative": non_informative,
        "sampled": not problem.is_precise,
        "oracle_verified": verified,
    }
    lines = [f"[{bounds.lower}, {bounds.upper}]"
             + ("  non-informative" if non_informative else ""),
             f"decimal: [{float(bounds.lower):.6g}, {float(bounds.upper):.6g}]"]
    if verified is not None:
        lines.append("oracle: endpoints re-checked coherent" if verified
                     else "oracle: ENDPOINT CHECK FAILED")
    _emit(report, fmt, lines)
    if verified is False:
        return 2
    return 0


def _resolve_form(name_or_mood: str, figure: Optional[str]) -> SyllogismForm:
    if figure is not None:
        return SyllogismForm(Figure[figure.upper()], parse_mood(name_or_mood), None)
    return form_by_name(name_or_mood)


def _verdict_word(verdict) -> str:
    if verdict.strictly_valid:
        return "s-valid"
    if verdict.valid:
        return "valid (not s-valid)"
    return "invalid"


def _syllogism_report(form: SyllogismForm, import_kind: ImportKind):
    verdict = evaluate_syllogism(form, import_kind)
    major, minor, concl = form.sentences()
    premises = [str(interpret_sentence(major)), str(interpret_sentence(minor))]
    if import_kind is not ImportKind.NONE:
        premises.append(str(import_constraint(form.figure, import_kind)))
    report = {
        "name": form.name,
        "figure": str(form.figure),
        "mood": form.mood_str,
        "import": import_kind.value,
        "premises": premises,
        "sigma": _interval_json(verdict.sigma),
        "conclusion_set": _interval_json(verdict.conclusion_set),
        "valid": verdict.valid,
        "strictly_valid": verdict.strictly_valid,
        "verdict": _verdict_word(verdict),
    }
    return verdict, report


def _oracle_check_sigma(form: SyllogismForm, verdict, import_kind: ImportKind,
                        grid: int) -> bool:
    """LP cross-check: the sampled extension hull must land inside Sigma's closure.

    True when no grid point is coherent: there is nothing to check.
    """
    from .figures import canonical_family

    family, target = canonical_family(form.figure)
    box = BoxAssessment.from_intervals(list(premise_box(form, import_kind)))
    try:
        hull = extension_union_sampled(family, box, target, grid_density=grid)
    except IncoherentPremises:
        return True
    closure = verdict.sigma.closure()
    return hull.lower in closure and hull.upper in closure


def cmd_syllogism(name_or_mood: str, import_kind="conditional",
                  figure: Optional[str] = None, fmt: str = "text",
                  oracle: bool = False, grid: int = 5) -> int:
    form = _resolve_form(name_or_mood, figure)
    import_kind = ImportKind.coerce(import_kind)
    verdict, report = _syllogism_report(form, import_kind)
    lines = [
        f"{form.name or form.mood_str} ({form.figure}-{form.mood_str}), import: {import_kind.value}",
        "premises: " + "; ".join(report["premises"]),
        f"sigma: {verdict.sigma}",
        f"conclusion set: {verdict.conclusion_set}",
        f"verdict: {report['verdict']}",
    ]
    if oracle:
        ok = _oracle_check_sigma(form, verdict, import_kind, grid)
        report["oracle_verified"] = ok
        lines.append("oracle: sampled LP bounds inside sigma" if ok
                     else "oracle: SAMPLED BOUNDS OUTSIDE SIGMA")
        if not ok:
            _emit(report, fmt, lines)
            return 2
    _emit(report, fmt, lines)
    return 0 if verdict.valid else 1


def cmd_catalog(fmt: str = "text", defaults: bool = False,
                import_kind="conditional") -> int:
    import_kind = ImportKind.coerce(import_kind)
    rows = []
    lines = []
    for form in catalog():
        verdict, report = _syllogism_report(form, import_kind)
        if defaults:
            report["defaults"] = to_defaults(form).serialize()
        rows.append(report)
        label = f"{form.name:<10} {form.figure!s:<3} {form.mood_str}"
        if defaults:
            lines.append(f"{label}  {report['defaults']}")
        else:
            lines.append(f"{label}  sigma={str(verdict.sigma):<10}  {report['verdict']}")
    _emit({"import": import_kind.value, "forms": rows}, fmt, lines)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probsyll",
        description="Coherence-based probabilistic reasoning over conditional events.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="coherence / g-coherence of an assessment file")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_prop = sub.add_parser("propagate", help="extension bounds for the [target] event")
    p_prop.add_argument("file")
    p_prop.add_argument("--format", choices=("text", "json"), default="text")
    p_prop.add_argument("--grid", type=int, default=5)
    p_prop.add_argument("--oracle", action="store_true")

    p_syl = sub.add_parser("syllogism", help="verdict for a named form or figure+mood")
    p_syl.add_argument("name", help="catalog name, or a mood like AEE with --figure")
    p_syl.add_argument("--figure", choices=("I", "II", "III"))
    p_syl.add_argument("--import", dest="import_kind",
                       choices=("none", "conditional", "unconditional"),
                       default="conditional")
    p_syl.add_argument("--format", choices=("text", "json"), default="text")
    p_syl.add_argument("--oracle", action="store_true")
    p_syl.add_argument("--grid", type=int, default=5)

    p_cat = sub.add_parser("catalog", help="all 18 forms with verdicts")
    p_cat.add_argument("--defaults", action="store_true")
    p_cat.add_argument("--import", dest="import_kind",
                       choices=("none", "conditional", "unconditional"),
                       default="conditional")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.file, args.format)
        if args.command == "propagate":
            return cmd_propagate(args.file, args.format, args.grid, args.oracle)
        if args.command == "syllogism":
            return cmd_syllogism(args.name, args.import_kind, args.figure,
                                 args.format, args.oracle, args.grid)
        if args.command == "catalog":
            return cmd_catalog(args.format, args.defaults, args.import_kind)
        raise AssertionError(args.command)
    except (ProblemFileError, ParseError, EventError, UnknownForm, NotGCoherent,
            IncoherentPremises, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
