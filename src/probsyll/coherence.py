"""Coherence of precise assessments and g-/t-coherence of box assessments.

Coherence, g-coherence and the extension bounds of `propagation` share one
construction, a `LinearSystem` over the masses lambda_h of the constituents
C_1..C_m of a family, and one recursion on I0 = {j : max Phi_j = 0}, the
antecedents that every solution forces to zero probability (Phi_j is the
total mass of the constituents inside H_j).  A precise assessment P on F is
coherent iff its system (S)

    sum_h q_hj lambda_h = p_j   (j = 1..n),   sum_h lambda_h = 1,   lambda >= 0

is solvable and, whenever I0 is nonempty, the sub-assessment restricted to
those events is itself coherent; I0 is a strict subset of the indices when
solutions exist, so the recursion terminates.  A box is g-coherent iff the
same holds with the relaxed rows l_j Phi_j <= sum_{E_jH_j} lambda <= u_j Phi_j.

The default precise check uses the subset variant of the criterion with the
singleton {phase-1 witness}: I0' = {j : Phi_j(witness) = 0}; the variant is an
exact characterization for any nonempty subset of the solution set, and avoids
one LP per index.  method="full" runs the literal max-based recursion instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .events import ConstituentTable, enumerate_constituents, points_for
from .infinitesimals import EPS, EpsRational
from .intervals import OpenInterval
from .simplex import Infeasible, feasible_point, solve_lp

#: Cap on the number of points `grid_points` may enumerate; each point costs
#: at least one coherence check.
MAX_GRID_POINTS = 100_000


class CoherenceError(Exception):
    pass


class InfeasibleSystem(CoherenceError):
    """System (S) has no solution; maxima M_j are undefined."""


@dataclass(frozen=True)
class LinearSystem:
    """rows[i] . lambda (senses[i]) rhs[i] over the masses of table's constituents."""

    table: ConstituentTable
    rows: tuple  # one entry per constituent C_1..C_m in each row
    senses: tuple  # "=", "<=" or ">=" per row
    rhs: tuple

    @property
    def ncols(self) -> int:
        return self.table.m

    def witness(self) -> Optional[list]:
        """A solution (exact phase-1 simplex), or None if there is none."""
        return feasible_point(self.rows, self.senses, self.rhs)

    def maximum(self, j: int):
        """max Phi_j, the mass inside H_j, over the solutions; raises Infeasible."""
        return solve_lp(self.table.indicators(j)[1], self.rows, self.senses, self.rhs,
                        maximize=True).value


def homogeneous_row(table: ConstituentTable, j: int, p) -> tuple:
    """Row of  sum_{E_jH_j} lambda - p sum_{H_j} lambda  over the constituents."""
    a, phi = table.indicators(j)
    return tuple(ai - p * pi for ai, pi in zip(a, phi))


@dataclass(frozen=True)
class I0Result:
    maxima: tuple  # M_j per assessment row
    zero_set: tuple  # sorted indices j with M_j = 0


def build_system(table: ConstituentTable, assessment) -> LinearSystem:
    """System (S) for (F, P): solution set {L : P = sum l_h Q_h, sum l_h = 1, l >= 0}."""
    points = points_for(table, assessment)
    n = len(table.family)
    rows = [tuple(q[j] for q in points) for j in range(n)]
    rows.append((1,) * table.m)
    return LinearSystem(table, tuple(rows), ("=",) * (n + 1),
                        tuple(list(assessment) + [1]))


def compute_I0(system: LinearSystem) -> I0Result:
    """Maxima M_j of Phi_j over the solution set, and I0 = {j : M_j = 0}."""
    try:
        maxima = tuple(system.maximum(j) for j in range(len(system.table.family)))
    except Infeasible as exc:
        raise InfeasibleSystem("the system is unsolvable") from exc
    return I0Result(maxima, tuple(j for j, mj in enumerate(maxima) if mj == 0))


def coherence_witness(family: Iterable, assessment: Sequence,
                      method: str = "witness") -> Optional[list]:
    """A solution of the top-level system (S) if the assessment is coherent, else None."""
    family = tuple(family)
    values = [Fraction(v) if not isinstance(v, EpsRational) else v for v in assessment]
    table = enumerate_constituents(family)
    system = build_system(table, values)
    witness = system.witness()
    if witness is None:
        return None
    if method == "witness":
        # Masses are nonnegative: Phi_j(witness) = 0 iff no H_j block has mass.
        zero = [j for j in range(len(family))
                if not any(l for l, h in zip(witness, table.indicators(j)[1]) if h)]
    elif method == "full":
        zero = list(compute_I0(system).zero_set)
    else:
        raise ValueError(f"unknown method {method!r}")
    if zero:
        assert len(zero) < len(family)
        if not check_coherence([family[j] for j in zero], [values[j] for j in zero], method):
            return None
    return witness


def check_coherence(family: Iterable, assessment: Sequence, method: str = "witness") -> bool:
    """Coherence of a precise assessment via the I0 reduction."""
    return coherence_witness(family, assessment, method) is not None


# ---------------------------------------------------------------------------
# Box assessments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxAssessment:
    """Interval bounds per component, with endpoint-openness flags."""

    lowers: tuple
    uppers: tuple
    lower_open: tuple
    upper_open: tuple

    def __post_init__(self):
        object.__setattr__(self, "lowers", tuple(Fraction(v) for v in self.lowers))
        object.__setattr__(self, "uppers", tuple(Fraction(v) for v in self.uppers))
        object.__setattr__(self, "lower_open", tuple(bool(b) for b in self.lower_open))
        object.__setattr__(self, "upper_open", tuple(bool(b) for b in self.upper_open))
        sizes = {len(self.lowers), len(self.uppers), len(self.lower_open), len(self.upper_open)}
        if len(sizes) != 1:
            raise ValueError("component lists have different lengths")
        for lo, hi, lo_o, hi_o in zip(self.lowers, self.uppers,
                                      self.lower_open, self.upper_open):
            if not 0 <= lo <= hi <= 1:
                raise ValueError(f"bad component bounds [{lo}, {hi}]")
            if lo == hi and (lo_o or hi_o):
                raise ValueError("degenerate component must be closed")

    @classmethod
    def from_intervals(cls, intervals: Sequence[OpenInterval]) -> "BoxAssessment":
        return cls(
            tuple(iv.lower for iv in intervals),
            tuple(iv.upper for iv in intervals),
            tuple(iv.lower_open for iv in intervals),
            tuple(iv.upper_open for iv in intervals),
        )

    @classmethod
    def point(cls, values) -> "BoxAssessment":
        vals = tuple(Fraction(v) for v in values)
        flags = (False,) * len(vals)
        return cls(vals, vals, flags, flags)

    def intervals(self) -> tuple:
        return tuple(
            OpenInterval(lo, hi, lo_o, hi_o)
            for lo, hi, lo_o, hi_o in zip(self.lowers, self.uppers,
                                          self.lower_open, self.upper_open)
        )

    @property
    def has_open_faces(self) -> bool:
        return any(self.lower_open) or any(self.upper_open)

    def __len__(self):
        return len(self.lowers)


def _g_coherent(family: tuple, lowers: list, uppers: list) -> bool:
    """Relaxed-system solvability with the I0 recursion on the sub-box."""
    table = enumerate_constituents(family)
    rows, senses = [], []
    for j, (lo, hi) in enumerate(zip(lowers, uppers)):
        rows += [homogeneous_row(table, j, lo), homogeneous_row(table, j, hi)]
        senses += [">=", "<="]
    system = LinearSystem(table, tuple(rows) + ((1,) * table.m,),
                          tuple(senses) + ("=",), (0,) * len(rows) + (1,))
    try:
        zero = compute_I0(system).zero_set
    except InfeasibleSystem:
        return False
    if not zero:
        return True
    assert len(zero) < len(family)
    return _g_coherent(
        tuple(family[j] for j in zero),
        [lowers[j] for j in zero],
        [uppers[j] for j in zero],
    )


def check_g_coherence(family: Iterable, box: BoxAssessment) -> bool:
    """True iff some precise point of the box (respecting openness) is coherent.

    Open faces are shrunk an infinitesimal amount and the decision runs exactly
    over Q(eps); the box is g-coherent iff some eps-shrunk closed sub-box is,
    and signs in Q(eps) are the eventual signs for small real eps.  Closed
    faces stay rational, so a closed box is decided over Q alone.
    """
    lowers = [lo + EPS if lo_o else lo for lo, lo_o in zip(box.lowers, box.lower_open)]
    uppers = [hi - EPS if hi_o else hi for hi, hi_o in zip(box.uppers, box.upper_open)]
    return _g_coherent(tuple(family), lowers, uppers)


def grid_points(box: BoxAssessment, grid_density: int):
    """Cartesian rational grid inside the box, skipping open endpoints.

    Raises ValueError when the grid would have more than MAX_GRID_POINTS points.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    count = prod(1 if lo == hi else max(1, grid_density - lo_o - hi_o)
                 for lo, hi, lo_o, hi_o in zip(box.lowers, box.uppers,
                                               box.lower_open, box.upper_open))
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count} points exceeds {MAX_GRID_POINTS}")
    axes = []
    for lo, hi, lo_o, hi_o in zip(box.lowers, box.uppers, box.lower_open, box.upper_open):
        if lo == hi:
            axes.append([lo])
            continue
        step = Fraction(hi - lo, grid_density - 1)
        vals = [lo + i * step for i in range(grid_density)]
        if lo_o:
            vals = vals[1:] if len(vals) > 1 else [lo + (hi - lo) / 2]
        if hi_o:
            vals = vals[:-1] if len(vals) > 1 else [lo + (hi - lo) / 2]
        axes.append(vals)
    yield from product(*axes)


def check_t_coherence_grid(family: Iterable, box: BoxAssessment, grid_density: int) -> bool:
    """True iff every grid point of the box passes check_coherence."""
    family = tuple(family)
    return all(check_coherence(family, point) for point in grid_points(box, grid_density))
