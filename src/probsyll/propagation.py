"""Coherent extension bounds for one further conditional event (Algorithm 1).

Given a coherent precise assessment P on F = (E_1|H_1, ..., E_n|H_n) and a
target E_{n+1}|H_{n+1}, the set of coherent values z for the target is a closed
interval [z', z''].  Each bound is found by probing z = 0 (resp. z = 1), as in
Biazzo & Gilio (2000, IJAR 24), and both probes of a (sub)family start from
one phase-1 basis:

  Step 0  build the premise system over the constituents of the extended
          family: the premise rows in points form and sum l = 1, with no row
          for the target.  Its one phase 1 gives a basis and a witness.  The
          probe system (6) for z is a face of it: z = 0 holds the l of
          E_{n+1}H_{n+1} at 0, and z = 1 the l of not-E_{n+1} H_{n+1};
  Step 1  if the face is empty (a warm phase 2 minimizes the mass on those
          constituents to a positive value), go to Step 2, else to Step 3;
  Step 2  optimize  sum_{E_{n+1}H_{n+1}} l  subject to the premise rows in
          homogeneous form, sum_{E_jH_j} l = p_j sum_{H_j} l, and
          sum_{H_{n+1}} l = 1; the optimum is the bound.  This program has
          one phase 1, shared by the two probes, and a phase 2 for each;
  Step 3  compute the maxima M_j of the antecedent masses over the face: if
          M_{n+1} > 0 the probe value is the bound; otherwise the procedure
          restarts with the subfamily J = {j : M_j = 0} and the target.  If J
          is empty (M_j > 0 for every premise) that is the target alone, whose
          bound is the probe value unless H_{n+1} implies E_{n+1} (z = 0) or
          its negation (z = 1), when it is 1 - z.

Step 3 only asks whether each M_j is zero.  Where the face's basic solution
puts mass inside H_j, it shows M_j > 0 with no LP; a maximum is computed, as
a phase 2 from the face's basis, only for the target and for the premises
that solution leaves empty.  The face keeps the constituent numbering of the
premise system, so Step 3 reads it as it would read the probe system.

The premise witness also certifies coherence, by Gilio's criterion applied
to that one solution.  A solution l of the premise system, restricted to the
constituents inside H_1 v ... v H_n and rescaled, solves the system (S) of P
whenever it gives some H_j mass, and its I0 is the set of premises whose H_j
it leaves empty.  So P is coherent if the witness gives every H_j mass, and
otherwise iff `check_coherence` holds on the premises it leaves empty (all
of them when it gives none mass).  An unsolvable premise system shows P
incoherent.  Only the premises are read: the target's antecedent holding
mass says nothing about P.

The restart strictly shrinks the premise family, so the number of cycles is
finite (at most n).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .coherence import (LinearSystem, build_system, check_coherence, grid_points,
                        matched_lengths)
from .events import ConditionalEvent, enumerate_constituents
from .intervals import ExtensionInterval, OpenInterval
from .simplex import phase2


class IncoherentPremises(Exception):
    """The premise assessment is not coherent; no extension interval exists."""


def _step2(system: LinearSystem, values: list) -> LinearSystem:
    """Step 2's program on the premise system's table: a points-form premise
    row minus p_j times sum lambda = 1 reads sum_{E_jH_j} l = p_j Phi_j, so
    its entries 1, 0 and p_j become 1 - p_j, -p_j and 0; then Phi_{n+1} = 1."""
    n = len(values)
    premises = tuple(tuple(map({1: 1 - p, 0: -p, p: 0}.__getitem__, row))
                     for row, p in zip(system.rows, values))
    phi_t = tuple(system.table.indicators(n)[1])
    return LinearSystem(system.table, premises + (phi_t,), ("=",) * (n + 1), (0,) * n + (1,))


def _bounds(family: tuple, values: list, target: ConditionalEvent, probes, check: bool) -> dict:
    """{z: bound} for each probe z in probes, all from one premise basis."""
    n = len(family)  # the target's index in the extended family
    table = enumerate_constituents(family + (target,))
    system = build_system(table, values, values)
    if system.basis is None:
        raise IncoherentPremises(f"assessment {values} is incoherent on the family")
    if check:
        positive = system.positive()
        empty = [j for j in range(n) if j not in positive]
        if empty and not check_coherence([family[j] for j in empty], [values[j] for j in empty]):
            raise IncoherentPremises(f"assessment {values} is incoherent on the family")

    target_cells = [c.cells[n] for c in table.constituents]
    step2 = None
    bounds, restarts = {}, {}
    for z in probes:
        # Step 1: z = 0 holds E_{n+1}H_{n+1} at zero mass, z = 1 not-E_{n+1} H_{n+1}.
        held = z == 0  # the target cell of the constituents held at zero
        face = system.face([h for h, cell in enumerate(target_cells) if cell is held])
        if face is None:
            if step2 is None:
                step2 = _step2(system, values)
            if step2.basis is None:  # pragma: no cover - excluded by coherence
                raise AssertionError("Step-2 program infeasible for coherent premises")
            objective = table.indicators(n)[0]
            bounds[z] = Fraction(phase2(step2.basis, objective, maximize=z == 1).value)
            continue
        # Step 3.  M_j > 0 wherever the face's basic solution puts mass in H_j;
        # the other maxima are phase 2s from the face's basis.
        positive = face.positive()
        if n in positive or face.maximum(n) > 0:
            bounds[z] = Fraction(z)
            continue
        zero = tuple(j for j in range(n) if j not in positive and face.maximum(j) == 0)
        if not zero:
            # Boundary case: I0 is the target alone, so z is coherent iff
            # not-E_{n+1} H_{n+1} (z = 0), resp. E_{n+1}H_{n+1} (z = 1), is
            # possible; otherwise the target's only coherent value is 1 - z.
            bounds[z] = Fraction(z if (not held) in target_cells else 1 - z)
            continue
        assert len(zero) < n, "restart must strictly shrink the family"
        restarts.setdefault(zero, []).append(z)
    for zero, zs in restarts.items():
        bounds.update(_bounds(tuple(family[j] for j in zero), [values[j] for j in zero],
                              target, zs, check=False))
    return bounds


def extension_bounds(family: Iterable, assessment: Sequence,
                     target: ConditionalEvent, check: bool = True) -> ExtensionInterval:
    """The interval [z', z''] of coherent extension values for the target.

    Raises IncoherentPremises when the premise system has no solution, and,
    with check, whenever the assessment is incoherent.
    """
    family = tuple(family)
    matched_lengths(family, assessment)
    bounds = _bounds(family, [Fraction(v) for v in assessment], target, (0, 1), check)
    return ExtensionInterval(bounds[0], bounds[1])


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
        try:
            bounds = extension_bounds(family, point, target)
        except IncoherentPremises:
            continue
        lo = bounds.lower if lo is None else min(lo, bounds.lower)
        hi = bounds.upper if hi is None else max(hi, bounds.upper)
    if lo is None:
        raise IncoherentPremises("no coherent grid point in the box")
    return ExtensionInterval(lo, hi)
