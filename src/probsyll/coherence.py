"""Coherence of precise assessments and g-coherence of box assessments.

Coherence, g-coherence and the extension bounds of `propagation` share one
construction, a `LinearSystem` over the masses lambda_h of the constituents
C_1..C_m of a family, built by `build_system` from lower and upper bounds per
event.  Each event j gives rows in points form: sum_h q_hj lambda_h, where
q_hj is 1 on E_jH_j, 0 on not-E_j H_j and v off H_j, equals v = p_j for a
precise value (lo = hi), or is >= lo and <= hi with v = lo and v = hi for a
box; then sum_h lambda_h = 1.  Since the masses sum to one, the points-form
row reads sum_{E_jH_j} lambda = v Phi_j, where Phi_j is the total mass of the
constituents inside H_j.

A precise assessment P is coherent iff its system is solvable and, for any
solution lambda, the sub-assessment on I0(lambda) = {j : Phi_j(lambda) = 0}
is coherent (Gilio's criterion; coherence passes to sub-families, so one
solution decides).  A box is g-coherent, i.e. holds some coherent point, iff
its system is solvable and the sub-box on I0(lambda) is g-coherent for any
solution lambda: a coherent point of that sub-box together with the ratios
sum_{E_jH_j} lambda / Phi_j elsewhere is a coherent point of the box, with
lambda solving its system, and every sub-box of a g-coherent box is
g-coherent.  I0(lambda) is a strict subset of the indices (the masses sum to
one), so the recursion terminates.  Both checks run the one recursion
`_witness`, taking lambda to be the phase-1 witness, one phase 1 and no
phase 2 per level; I0(lambda) is read from the basic columns with positive
mass.  method="full" takes I0 = {j : max Phi_j = 0} over all solutions
(`compute_I0`) instead, the literal criterion, as a reference.

A `LinearSystem` solves its phase 1 once, on first use, and keeps the basis:
`witness()` reads it, and `maximum(j)` is a phase 2 from it, so `compute_I0`
costs one phase 1 and n phase 2s.  `face(columns)` holds some masses at zero
and derives the face's basis from this one (`FeasibleBasis.face`), with no
new phase 1; `build_system` may give rows to the leading events of a table's
family only, so the probes of `propagation` are faces of one premise system.

Open faces of a box are shrunk an infinitesimal eps and decided exactly over
Q(eps); see `check_g_coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .events import ConstituentTable, LengthMismatch, enumerate_constituents
from .infinitesimals import EPS, EpsRational
from .intervals import OpenInterval
from .simplex import FeasibleBasis, Infeasible, phase1, phase2

#: Cap on the number of points `grid_points` may enumerate; each point costs
#: at least one coherence check.
MAX_GRID_POINTS = 100_000


class CoherenceError(Exception):
    pass


class InfeasibleSystem(CoherenceError):
    """System (S) has no solution; maxima M_j are undefined."""


@dataclass(frozen=True)
class LinearSystem:
    """rows[i] . lambda (senses[i]) rhs[i] over the masses of table's constituents;
    a face (see `face`) also holds some masses at zero, which its basis keeps."""

    table: ConstituentTable
    rows: tuple  # one entry per constituent C_1..C_m in each row
    senses: tuple  # "=", "<=" or ">=" per row
    rhs: tuple

    @property
    def ncols(self) -> int:
        return self.table.m

    @cached_property
    def basis(self) -> Optional[FeasibleBasis]:
        """The system's one phase-1 solve, or None if it has no solution."""
        try:
            return phase1(self.rows, self.senses, self.rhs, self.ncols)
        except Infeasible:
            return None

    def witness(self) -> Optional[list]:
        """The phase-1 solution, or None if there is none."""
        return None if self.basis is None else self.basis.point()

    def maximum(self, j: int):
        """max Phi_j, the mass inside H_j, over the solutions; raises Infeasible.

        A phase 2 from the system's phase-1 basis, so no phase 1 is repeated.
        """
        if self.basis is None:
            raise Infeasible("the system is unsolvable")
        return phase2(self.basis, self.table.indicators(j)[1], maximize=True).value

    def face(self, columns) -> Optional["LinearSystem"]:
        """This system with lambda_h = 0 also for every h in columns, or None if
        that has no solution.  Its basis is `FeasibleBasis.face` of this one's,
        so no phase 1 is run; its witness and maxima keep the numbering C_1..C_m."""
        basis = None if self.basis is None else self.basis.face(columns)
        if basis is None:
            return None
        face = replace(self)
        face.__dict__["basis"] = basis  # the cached_property, filled warm
        return face

    def positive(self) -> set:
        """The j with Phi_j(witness) > 0, hence M_j > 0: the events whose H_j
        holds a constituent that the phase-1 solution gives positive mass."""
        cells = [self.table.constituents[h].cells for h in self.basis.support()]
        return {j for j in range(len(self.table.family)) if any(c[j] is not None for c in cells)}


@dataclass(frozen=True)
class I0Result:
    maxima: tuple  # M_j per assessment row
    zero_set: tuple  # sorted indices j with M_j = 0


def build_system(table: ConstituentTable, lowers: Sequence, uppers: Sequence) -> LinearSystem:
    """The system of the box lowers <= P <= uppers on the leading events of
    table's family, in points form, over all of the table's constituents.

    One "=" row per event with lo == hi (a precise value), else a ">= lo" and a
    "<= hi" row, then sum lambda = 1; events past the bounds get no row.
    Entries are taken from the bounds unchanged, so any exact type with
    rational semantics works (Fraction, or EpsRational for shrunk open faces).
    Raises LengthMismatch on more bounds than events, or ValueError unless
    0 <= lo <= hi <= 1.
    """
    if not len(lowers) == len(uppers) <= len(table.family):
        raise LengthMismatch(f"{len(lowers)} lower and {len(uppers)} upper bounds "
                             f"for {len(table.family)} events")
    rows, senses, rhs = [], [], []
    columns = zip(*(c.cells for c in table.constituents))  # cells of event j per C_h
    for lo, hi, cells in zip(lowers, uppers, columns):
        point = lo is hi or lo == hi  # a precise value is usually one object
        if not (0 <= lo <= 1 if point else 0 <= lo < hi <= 1):
            raise ValueError(f"assessment bounds [{lo}, {hi}] not within [0, 1]")
        for v, sense in ((lo, "="),) if point else ((lo, ">="), (hi, "<=")):
            rows.append(tuple(map({True: 1, False: 0, None: v}.__getitem__, cells)))
            senses.append(sense)
            rhs.append(v)
    rows.append((1,) * table.m)
    return LinearSystem(table, tuple(rows), tuple(senses) + ("=",), tuple(rhs) + (1,))


def compute_I0(system: LinearSystem) -> I0Result:
    """Maxima M_j of Phi_j over the solution set, and I0 = {j : M_j = 0}.

    The system's one phase 1, then a phase 2 per event from its basis.
    """
    try:
        maxima = tuple(system.maximum(j) for j in range(len(system.table.family)))
    except Infeasible as exc:
        raise InfeasibleSystem("the system is unsolvable") from exc
    return I0Result(maxima, tuple(j for j, mj in enumerate(maxima) if mj == 0))


def _witness(family: tuple, lowers: list, uppers: list, method: str) -> Optional[LinearSystem]:
    """The box's system if the box holds a coherent point, else None."""
    system = build_system(enumerate_constituents(family), lowers, uppers)
    if system.basis is None:
        return None
    if method == "witness":
        positive = system.positive()
        zero = [j for j in range(len(family)) if j not in positive]
    else:
        zero = compute_I0(system).zero_set
    if zero:
        assert len(zero) < len(family)
        if _witness(tuple(family[j] for j in zero), [lowers[j] for j in zero],
                    [uppers[j] for j in zero], method) is None:
            return None
    return system


def matched_lengths(family: tuple, assessment: Sequence) -> None:
    """Raise LengthMismatch unless the assessment has one entry per event."""
    if len(assessment) != len(family):
        raise LengthMismatch(f"assessment length {len(assessment)} != family length {len(family)}")


def _precise(family: Iterable, assessment: Sequence, method: str) -> Optional[LinearSystem]:
    """`_witness` on a precise assessment, its values made exact."""
    if method not in ("witness", "full"):
        raise ValueError(f"unknown method {method!r}")
    family = tuple(family)
    matched_lengths(family, assessment)
    values = [Fraction(v) if not isinstance(v, EpsRational) else v for v in assessment]
    return _witness(family, values, values, method)


def coherence_witness(family: Iterable, assessment: Sequence,
                      method: str = "witness") -> Optional[list]:
    """The phase-1 solution of the top-level system (S) if the assessment is
    coherent, else None."""
    system = _precise(family, assessment, method)
    return None if system is None else system.witness()


def check_coherence(family: Iterable, assessment: Sequence, method: str = "witness") -> bool:
    """Coherence of a precise assessment via the I0 reduction."""
    return _precise(family, assessment, method) is not None


def check_g_coherence(family: Iterable, box: Sequence[OpenInterval]) -> bool:
    """True iff some precise point of the box (respecting openness) is coherent.

    Open faces are shrunk an infinitesimal amount and the decision runs exactly
    over Q(eps); the box is g-coherent iff some eps-shrunk closed sub-box is,
    and signs in Q(eps) are the eventual signs for small real eps.  Closed
    faces stay rational, so a closed box is decided over Q alone.
    """
    family = tuple(family)
    matched_lengths(family, box)
    lowers = [iv.lower + EPS if iv.lower_open else iv.lower for iv in box]
    uppers = [iv.upper - EPS if iv.upper_open else iv.upper for iv in box]
    return _witness(family, lowers, uppers, "witness") is not None


def grid_points(box: Sequence[OpenInterval], grid_density: int):
    """Cartesian rational grid inside the box, skipping open endpoints.

    Raises ValueError when the grid would have more than MAX_GRID_POINTS points.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    count = prod(1 if iv.is_point else max(1, grid_density - iv.lower_open - iv.upper_open)
                 for iv in box)
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count} points exceeds {MAX_GRID_POINTS}")
    axes = []
    for iv in box:
        lo, hi = iv.lower, iv.upper
        if lo == hi:
            axes.append([lo])
            continue
        step = (hi - lo) / (grid_density - 1)
        vals = [lo + i * step for i in range(grid_density)]
        if iv.lower_open:
            vals = vals[1:] if len(vals) > 1 else [lo + (hi - lo) / 2]
        if iv.upper_open:
            vals = vals[:-1] if len(vals) > 1 else [lo + (hi - lo) / 2]
        axes.append(vals)
    yield from product(*axes)
