"""Invariants of curves embedded in a surface germ, from arrow data.

Arrows on the graph encode transversal curve components; the associated
cycle is the arrow-weighted sum of dual cycles.  On rational graphs the
delta invariant and the local Riemann-Roch correction of the curve are
exact chi expressions in minimal anti-nef representatives; the kappa
counting invariants are defined on every graph, and the rationality gate
is what separates them.  Verification routines compare the twisted-duality
sides and reassemble delta through the relative series route, with every
periodic constant exact from ``periodic_constant_reduced``: the surgery
closed form for the duality sides, and for the relative series one count
(two or more arrows) or one division (a single arrow).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .counting import (InternalCheckError, _twist_data, counting_Q, counting_q,
                       periodic_constant_reduced, plain_zeta, relative_zeta,
                       twisted_zeta)
from .cycles import RationalCycle, zero_cycle
from .graphs import (ResolutionGraph, artin_rationality, chi,
                     min_antinef_rep)


class RationalityError(ValueError):
    """Raised when a rational-only invariant is requested on a non-rational
    graph."""


NON_RATIONAL_MESSAGE = (
    "the graph is not rational (Artin criterion fails: chi of the fundamental "
    "cycle is {chi_val}, not 1), so the delta invariant of an embedded curve "
    "is not determined by the embedded topological data; on non-rational "
    "germs, curves with the same embedded type can have different delta "
    "(already for the E8-like hypersurface x^2 + y^3 + z^7 = 0).  Only the "
    "kappa counting invariants are defined here."
)


@dataclass(frozen=True)
class EmbeddedCurve:
    """Curve attached to a graph through its arrow multiplicities."""

    graph: ResolutionGraph
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.multiplicities) != self.graph.n:
            raise ValueError("one multiplicity per vertex required")
        if any(a < 0 for a in self.multiplicities):
            raise ValueError("arrow multiplicities must be nonnegative")
        if not any(self.multiplicities):
            raise ValueError("curve needs at least one arrow")

    @classmethod
    def from_graph_arrows(cls, graph: ResolutionGraph) -> "EmbeddedCurve":
        return cls(graph=graph, multiplicities=graph.arrows)

    @property
    def cycle(self) -> RationalCycle:
        return self.graph.dual_combination(self.multiplicities)

    @property
    def support_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.multiplicities) if a)

    @property
    def support_ids(self) -> tuple[int, ...]:
        return tuple(self.graph.ids[i] for i in self.support_positions)

    @property
    def unit_arrows(self) -> bool:
        return all(a <= 1 for a in self.multiplicities)

    def class_label(self) -> tuple[int, ...]:
        return self.graph.group.class_of(self.cycle)


def kappa_topological(graph: ResolutionGraph, x: RationalCycle,
                      positions: Sequence[int] | None = None) -> int:
    """Counting function of the zeta expansion at the canonical shift of x,
    optionally reduced to a variable subset."""
    pos = tuple(range(graph.n)) if positions is None else tuple(sorted(positions))
    arg = graph.canonical + x
    return counting_Q(plain_zeta(graph), graph.residue(arg), pos, arg)


def _require_rational(graph: ResolutionGraph) -> None:
    zmin, rational = artin_rationality(graph)
    if not rational:
        raise RationalityError(
            NON_RATIONAL_MESSAGE.format(chi_val=chi(graph, zmin)))


def delta_embedded(graph: ResolutionGraph, curve: EmbeddedCurve) -> int:
    """Delta invariant of an embedded curve on a rational graph.

    Computed as the chi drop to the minimal anti-nef representative of the
    shifted class; internally checked to coincide with the full and the
    support-reduced kappa invariants.
    """
    _require_rational(graph)
    ell = curve.cycle
    shifted = graph.canonical + ell
    h = graph.group.class_of(shifted)
    s = min_antinef_rep(graph, h)
    val = chi(graph, shifted) - chi(graph, s)
    if val.denominator != 1:
        raise InternalCheckError(f"delta is not an integer: {val}")
    delta = int(val)
    if delta != kappa_topological(graph, ell):
        raise InternalCheckError("delta disagrees with the full kappa invariant")
    if delta != kappa_topological(graph, ell, curve.support_positions):
        raise InternalCheckError("delta disagrees with the support-reduced kappa invariant")
    return delta


def blache_correction(graph: ResolutionGraph, curve: EmbeddedCurve) -> Fraction:
    """Local Riemann-Roch correction of the curve on a rational graph.

    chi of the minimal anti-nef representative of the negated curve class;
    checked equal to the value at the canonically shifted class and to the
    chi-minus-delta expression it corrects.
    """
    _require_rational(graph)
    ell = curve.cycle
    group = graph.group
    a_neg = chi(graph, min_antinef_rep(graph, group.class_of(-ell)))
    a_can = chi(graph, min_antinef_rep(graph, group.class_of(graph.canonical + ell)))
    if a_neg != a_can:
        raise InternalCheckError("the two minimal-representative chi values disagree")
    if a_neg != chi(graph, -ell) - delta_embedded(graph, curve):
        raise InternalCheckError("correction does not account for chi minus delta")
    return a_neg


# ---------------------------------------------------------------------------
# verification reports

@dataclass(frozen=True)
class DualityReport:
    """One twisted-duality instance: periodic constants against counting
    values, plain and modified."""

    h: tuple[int, ...]
    twist: RationalCycle
    positions: tuple[int, ...]
    dual_shift: RationalCycle
    lhs: int
    rhs: int
    lhs_modified: int
    rhs_modified: int
    status: str           # plain comparison: pass | fail
    status_modified: str

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def failed(self) -> bool:
        return self.status == "fail" or self.status_modified == "fail"


def verify_twisted_duality(graph: ResolutionGraph, twist: RationalCycle | None,
                           h: tuple[int, ...], positions: Sequence[int]) -> DualityReport:
    """Compare the periodic constant of a twisted class part against the
    counting value of the dual class at the reflected argument, in both the
    plain and the modified form.

    Both constants come from ``periodic_constant_reduced``; a table refusal
    reaches the caller.
    """
    pos = tuple(sorted(positions))
    tw = twist if twist is not None else zero_cycle(graph.n)
    spec = plain_zeta(graph) if tw.is_zero else twisted_zeta(graph, tw)
    rhs_arg, rres, dual_shift = _twist_data(graph, tw.scaled(spec.den), tuple(h))[2:]
    pspec = plain_zeta(graph)
    rhs = counting_Q(pspec, rres, pos, rhs_arg)
    rhs_mod = counting_q(pspec, rres, pos, rhs_arg)
    lhs, lhs_mod = (periodic_constant_reduced(graph, spec, h, pos, modified)
                    for modified in (False, True))
    return DualityReport(h=h, twist=tw, positions=pos, dual_shift=dual_shift,
                         lhs=lhs, rhs=rhs, lhs_modified=lhs_mod,
                         rhs_modified=rhs_mod,
                         status="pass" if lhs == rhs else "fail",
                         status_modified="pass" if lhs_mod == rhs_mod else "fail")


@dataclass(frozen=True)
class DeltaCrossCheckReport:
    """Delta of an embedded curve assembled through the relative series
    against the direct chi expression."""

    branch_deltas: tuple[int, ...]
    subset_values: tuple[tuple[tuple[int, ...], int], ...]
    delta_series: int
    delta_chi: int
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _relative_pc(graph: ResolutionGraph, arrow_ids: tuple[int, ...]) -> int:
    """Periodic constant of the reduced class-zero relative series.

    For a single marked vertex this is minus the branch delta; for two or
    more the series is a polynomial and the constant is its coefficient
    sum, the evaluation at one."""
    marked = tuple(sorted(arrow_ids))
    return periodic_constant_reduced(graph, relative_zeta(graph, marked), graph.group.zero,
                                     [graph.index[v] for v in arrow_ids])


def delta_cross_check(graph: ResolutionGraph, curve: EmbeddedCurve) -> DeltaCrossCheckReport:
    """Assemble delta from periodic constants of relative series over every
    branch subset and compare with the direct chi expression.

    Requires unit arrows: each marked vertex carries exactly one transversal
    branch, so branch subsets correspond to vertex subsets.
    """
    _require_rational(graph)
    if not curve.unit_arrows:
        raise ValueError("relative-series route needs arrow multiplicities 0 or 1")
    arrows = curve.support_ids
    branch_deltas = []
    for v in arrows:
        pc = _relative_pc(graph, (v,))
        branch_deltas.append(-pc)
    subset_values = []
    total = sum(branch_deltas)
    for k in range(2, len(arrows) + 1):
        for js in itertools.combinations(arrows, k):
            val = _relative_pc(graph, js)
            subset_values.append((js, val))
            total += (-1) ** k * val
    delta_chi = delta_embedded(graph, curve)
    status = "pass" if total == delta_chi else "fail"
    return DeltaCrossCheckReport(branch_deltas=tuple(branch_deltas),
                                 subset_values=tuple(subset_values),
                                 delta_series=total, delta_chi=delta_chi,
                                 status=status)
