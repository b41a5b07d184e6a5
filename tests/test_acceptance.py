"""End-to-end acceptance checks, one test (and one printed line) per criterion."""

import random
import time
from fractions import Fraction

import conftest

from probsyll import (
    Figure, ImportKind, OpenInterval, canonical_family, catalog,
    check_coherence, check_p_entailment, conclusion_set, evaluate_syllogism,
    extension_bounds, figure_bounds, gq_syllogism,
    parse_conditional, premise_box, sigma_with_openness,
)
from test_syllogisms import EXPECTED_VERDICTS

F = Fraction


def report(num, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {num}: {description} ... {status} ({elapsed:.1f}s, budget {budget:.0f}s)"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def grid21():
    return [F(i, 20) for i in range(21)]


def test_criterion_1_catalog_verdicts():
    start = time.perf_counter()
    ok = True
    for form in catalog():
        verdict = evaluate_syllogism(form, ImportKind.CONDITIONAL)
        sigma_text, strict = EXPECTED_VERDICTS[form.name]
        ok = ok and verdict.valid
        ok = ok and str(verdict.sigma) == sigma_text
        ok = ok and verdict.strictly_valid == strict
    report(1, "18 catalog verdicts with exact sigma under conditional import",
           ok, time.perf_counter() - start, 10)


def test_criterion_2_no_import_non_informative():
    start = time.perf_counter()
    ok = True
    full = OpenInterval.closed(0, 1)
    for form in catalog():
        verdict = evaluate_syllogism(form, ImportKind.NONE)
        ok = ok and verdict.sigma == full and not verdict.valid
    report(2, "all forms non-informative (sigma = [0,1]) without import",
           ok, time.perf_counter() - start, 5)


def test_criterion_3_closed_forms_match_lp_oracle():
    start = time.perf_counter()
    rng = random.Random(20260825)
    ok = True
    for figure in Figure:
        family, target = canonical_family(figure)
        points = [(x, y, t) for x in grid21() for y in grid21() for t in grid21()]
        for _ in range(500):
            den = rng.randint(1, 40)
            points.append(tuple(F(rng.randint(0, den), den) for _ in range(3)))
        for x, y, t in points:
            closed = figure_bounds(figure, x, y, t)
            lp = extension_bounds(family, [x, y, t], target, check=False)
            if closed != lp:
                ok = False
                break
        if not ok:
            break
    report(3, "closed-form bounds equal LP bounds on 21^3 grid + 500 random "
              "triples per figure", ok, time.perf_counter() - start, 300)


def test_criterion_4_total_coherence_of_table_families(families):
    start = time.perf_counter()
    grid = [F(i, 8) for i in range(9)]
    ok = True
    for family in families.values():
        for x in grid:
            for y in grid:
                for t in grid:
                    if not check_coherence(family, [x, y, t]):
                        ok = False
    report(4, "every 9^3 grid assessment coherent on all five table families",
           ok, time.perf_counter() - start, 120)


def test_criterion_5_figure3_complement_identity():
    start = time.perf_counter()
    ok = all(
        figure_bounds(Figure.III, x, y, t).lower + figure_bounds(Figure.III, 1 - x, y, t).upper == 1
        for x in grid21() for y in grid21() for t in grid21()
    )
    report(5, "lower(x,y,t) + upper(1-x,y,t) = 1 for Figure III on the 21^3 grid",
           ok, time.perf_counter() - start, 60)


def test_criterion_6_generalized_baroco():
    start = time.perf_counter()
    ok = True
    for y in (F(1, 2), F(3, 4), F(9, 10)):
        sigma = gq_syllogism(Figure.II, [("=", 1), (">=", y)])
        ok = ok and sigma == OpenInterval.closed(y, 1)
    ok = ok and gq_syllogism(Figure.II, [("=", 1), (">=", 0)]) \
        == OpenInterval.closed(0, 1)
    report(6, "threshold-quantifier Baroco yields sigma = [y, 1]",
           ok, time.perf_counter() - start, 10)


def test_criterion_7_p_entailment():
    start = time.perf_counter()
    chain1 = (parse_conditional("P / M"), parse_conditional("M / S"),
              parse_conditional("S / S | M"))
    chain3 = (parse_conditional("P / M"), parse_conditional("S / M"),
              parse_conditional("M / S | M"))
    ok = check_p_entailment(chain1, parse_conditional("P / S"))
    ok = ok and check_p_entailment(chain3, parse_conditional("P / S"))
    ok = ok and not check_p_entailment((parse_conditional("B / A"),),
                                       parse_conditional("C / A"))
    report(7, "import-augmented chains p-entail the conclusion; single premise "
              "does not", ok, time.perf_counter() - start, 10)


def _random_subinterval(iv, rng):
    if iv.is_point:
        return iv
    candidates = [iv.lower + F(k, 12) * (iv.upper - iv.lower) for k in range(13)]
    candidates = [v for v in candidates if v in iv]
    a, b = sorted((rng.choice(candidates), rng.choice(candidates)))
    return OpenInterval.closed(a, b)


def _random_superinterval(iv, rng):
    lo = iv.lower * F(rng.randint(0, 12), 12)
    hi = iv.upper + (1 - iv.upper) * F(rng.randint(0, 12), 12)
    return OpenInterval.closed(lo, hi)


def test_criterion_8_validity_monotone_under_weakening():
    start = time.perf_counter()
    rng = random.Random(8)
    forms = catalog()
    ok = True
    for _ in range(100):
        form = rng.choice(forms)
        box = premise_box(form, ImportKind.CONDITIONAL)
        concl = conclusion_set(form)
        shrunk = tuple(_random_subinterval(iv, rng) for iv in box)
        sigma = sigma_with_openness(form.figure, shrunk)
        enlarged = _random_superinterval(concl, rng)
        ok = ok and sigma.issubset(concl) and sigma.issubset(enlarged)
    report(8, "100 random premise-strengthened / conclusion-weakened instances "
              "stay valid", ok, time.perf_counter() - start, 60)
