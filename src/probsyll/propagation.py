"""Coherent extension bounds for one further conditional event (Algorithm 1).

Given a coherent precise assessment P on F = (E_1|H_1, ..., E_n|H_n) and a
target E_{n+1}|H_{n+1}, the set of coherent values z for the target is a closed
interval [z', z''].  Each bound is found by probing z = 0 (resp. z = 1):

  Step 0  build system (6) over the constituents of the extended family, the
          premise rows and the probe row in points form, with sum l = 1;
  Step 1  if the probe value solves the system, go to Step 3, else Step 2;
          this is the system's one phase-1 solve, which also yields a
          witness solution;
  Step 2  optimize  sum_{E_{n+1}H_{n+1}} l  subject to the premise rows in
          homogeneous form, sum_{E_jH_j} l = p_j sum_{H_j} l, and
          sum_{H_{n+1}} l = 1; the optimum is the bound;
  Step 3  compute the maxima M_j of the antecedent masses over the probe
          solutions: if M_{n+1} > 0 the probe value is the bound; if
          M_{n+1} = 0 but M_j > 0 for every premise, the probe value is the
          bound (no witness exists in this boundary case); otherwise the
          procedure restarts with the subfamily J = {j : M_j = 0}.

Step 3 only asks whether each M_j is zero.  Where the Step-1 witness puts
mass inside H_j, it shows M_j > 0 with no LP; a maximum is computed, as a
phase 2 from the Step-1 basis, only for the target and for the premises the
witness leaves empty.

The restart strictly shrinks the premise family, so the number of cycles is
finite (at most n).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .coherence import build_system, check_coherence, grid_points
from .events import ConditionalEvent, enumerate_constituents
from .intervals import ExtensionInterval, OpenInterval
from .simplex import Infeasible, solve_lp


class IncoherentPremises(Exception):
    """The premise assessment is not coherent; no extension interval exists."""


def _probe(family, values, target, probe, maximize):
    fam = list(family)
    vals = list(values)
    for _ in range(len(family) + 1):
        table = enumerate_constituents(tuple(fam) + (target,))
        n = len(fam)  # the target's index in the extended family
        point = vals + [probe]
        system = build_system(table, point, point)
        if system.basis is None:
            # Step 2, over the premise rows in homogeneous form: a points-form
            # row minus p_j times sum lambda = 1 reads sum_{E_jH_j} l = p_j Phi_j.
            # Its entries 1, 0 and p_j become 1 - p_j, -p_j and 0.
            premises = [tuple(map({1: 1 - p, 0: -p, p: 0}.__getitem__, row))
                        for row, p in zip(system.rows, vals)]
            a_t, phi_t = table.indicators(n)
            try:
                return Fraction(solve_lp(a_t, premises + [phi_t], ["="] * (n + 1),
                                         [0] * n + [1], maximize=maximize).value)
            except Infeasible as exc:  # pragma: no cover - excluded by coherence
                raise AssertionError("Step-2 program infeasible for coherent premises") from exc
        # Step 3.  M_j > 0 wherever the Step-1 witness puts mass in H_j; the
        # other maxima are phase 2s from the same basis.
        positive = system.positive()
        if n in positive or system.maximum(n) > 0:
            return Fraction(probe)
        zero = [j for j in range(n) if j not in positive and system.maximum(j) == 0]
        if not zero:
            # Boundary case: the bound equals the probe value but admits
            # no witness with positive target-antecedent probability.
            return Fraction(probe)
        assert len(zero) < n, "restart must strictly shrink the family"
        fam = [fam[j] for j in zero]
        vals = [vals[j] for j in zero]
    raise AssertionError("restart cycle bound exceeded")  # pragma: no cover


def extension_bounds(family: Iterable, assessment: Sequence,
                     target: ConditionalEvent, check: bool = True) -> ExtensionInterval:
    """The interval [z', z''] of coherent extension values for the target."""
    family = tuple(family)
    values = [Fraction(v) for v in assessment]
    if check and not check_coherence(family, values):
        raise IncoherentPremises(f"assessment {values} is incoherent on the family")
    lower = _probe(family, values, target, 0, maximize=False)
    upper = _probe(family, values, target, 1, maximize=True)
    return ExtensionInterval(lower, upper)


def extension_union_sampled(family: Iterable, box: Sequence[OpenInterval],
                            target: ConditionalEvent,
                            grid_density: int = 5) -> ExtensionInterval:
    """Hull of extension_bounds over the coherent grid points of the box.

    A sampling cross-check for the closed-form interval theorems, not a
    verdict source; incoherent grid points are skipped.
    """
    family = tuple(family)
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for point in grid_points(box, grid_density):
        values = list(point)
        if not check_coherence(family, values):
            continue
        bounds = extension_bounds(family, values, target, check=False)
        lo = bounds.lower if lo is None else min(lo, bounds.lower)
        hi = bounds.upper if hi is None else max(hi, bounds.upper)
    if lo is None:
        raise IncoherentPremises("no coherent grid point in the box")
    return ExtensionInterval(lo, hi)
