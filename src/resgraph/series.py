"""Zeta factorisations of plumbing trees and their bounded exact expansions.

The zeta function of a tree is the product over vertices of
``(1 - t^{E*_v}) ** (valence(v) - 2)``.  Factors with positive power are
expanded symbolically into a signed numerator; factors with negative power
become geometric denominators whose exponents have strictly positive
entries.  A twist multiplies by the monomial ``t^{l0}`` for an anti-nef
``l0``; a relative vertex set multiplies by one extra ``(1 - t^{E*_v})``
per chosen vertex (cancelling the denominator at a leaf).

Expansions are sparse: a finite exact term map together with the region it
is guaranteed to cover.  Reading a coefficient outside the region raises,
never silently returns zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .cycles import RationalCycle
from .graphs import ResolutionGraph


class RegionError(LookupError):
    """Coefficient requested outside the guaranteed enumeration region."""


class TwistError(ValueError):
    """Twist cycle outside the anti-nef cone (or outside the dual lattice)."""


@dataclass(frozen=True)
class ZetaSpec:
    """Expanded numerator / geometric denominator presentation of a zeta
    function, with all exponents scaled by the common denominator ``den``.

    ``num`` never includes the twist monomial; expansion and counting fold
    the twist in where it matters, which keeps the twisted/untwisted
    coefficient relation an exact shift.
    """

    ids: tuple[int, ...]
    den: int
    num: tuple[tuple[int, tuple[int, ...]], ...]
    dens: tuple[tuple[int, ...], ...]
    twist: tuple[int, ...] | None = None

    @property
    def nvars(self) -> int:
        return len(self.ids)

    @property
    def twist_or_zero(self) -> tuple[int, ...]:
        return self.twist if self.twist is not None else (0,) * self.nvars

    def untwisted(self) -> "ZetaSpec":
        if self.twist is None:
            return self
        return ZetaSpec(self.ids, self.den, self.num, self.dens, None)


def synthetic_spec(num: Sequence[tuple[int, Sequence[int]]],
                   dens: Sequence[Sequence[int]], den: int = 1,
                   ids: Sequence[int] | None = None) -> ZetaSpec:
    """Hand-built spec on an abstract lattice; used for one-variable checks."""
    nvars = len(dens[0]) if dens else len(num[0][1])
    if ids is None:
        ids = tuple(range(1, nvars + 1))
    for a in dens:
        if any(x <= 0 for x in a):
            raise ValueError("denominator exponents must be strictly positive")
    return ZetaSpec(tuple(ids), den,
                    tuple((int(c), tuple(e)) for c, e in num),
                    tuple(tuple(a) for a in dens))


def build_zeta(graph: ResolutionGraph, twist: RationalCycle | None = None,
               relative: Iterable[int] = ()) -> ZetaSpec:
    """Zeta spec of a graph, optionally twisted and with relative factors.

    ``relative`` lists vertex ids receiving one extra ``(1 - t^{E*_v})``
    factor.  Powers are combined before splitting into numerator and
    denominator, so a relative factor at a leaf cancels instead of stacking.
    """
    d = graph.det_abs
    rel = set(relative)
    unknown = rel - set(graph.ids)
    if unknown:
        raise ValueError(f"relative set contains unknown vertex {min(unknown)}")
    powers = []
    for i in range(graph.n):
        p = graph.valences[i] - 2
        if graph.ids[i] in rel:
            p += 1
        powers.append(p)
    num: list[tuple[int, tuple[int, ...]]] = [(1, (0,) * graph.n)]
    dens: list[tuple[int, ...]] = []
    for i, p in enumerate(powers):
        exp = graph.duals[i].scaled(d)
        if p < 0:
            dens.extend([exp] * (-p))
        elif p > 0:
            factor = [((-1) ** j * comb(p, j), tuple(j * e for e in exp))
                      for j in range(p + 1)]
            num = [(c1 * c2, tuple(a + b for a, b in zip(e1, e2)))
                   for c1, e1 in num for c2, e2 in factor]
    tw = None
    if twist is not None and not twist.is_zero:
        if d % twist.den:
            raise TwistError("twist does not lie in the dual lattice")
        if not graph.in_lipman_cone(twist):
            raise TwistError("twist must be anti-nef")
        tw = twist.scaled(d)
    for a in dens:
        assert all(x > 0 for x in a), "denominator exponent with a nonpositive entry"
    return ZetaSpec(graph.ids, d, tuple(num), tuple(dens), tw)


@dataclass(frozen=True)
class SparseSeries:
    """Finite exact term map with an explicit enumeration guarantee.

    Every support point with some scaled coordinate strictly below ``bound``
    is present with its exact coefficient.  ``projected`` marks series whose
    variables were reduced; their terms no longer determine classes.
    """

    ids: tuple[int, ...]
    den: int
    bound: Fraction
    terms: dict[tuple[int, ...], int] = field(hash=False)
    projected: bool = False

    def in_region(self, scaled: Sequence[int]) -> bool:
        return any(x < self.bound for x in scaled)

    def coefficient(self, exponent: RationalCycle) -> int:
        key = exponent.scaled(self.den)
        if not self.in_region(key):
            raise RegionError(
                f"exponent {exponent} lies outside the guaranteed region "
                f"(every coordinate >= {self.bound}/{self.den})")
        return self.terms.get(key, 0)

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def dump(self) -> str:
        """One term per line: ``coeff n_1/d ... n_k/d``, lexicographic order."""
        lines = []
        for key, c in self.sorted_items():
            lines.append(f"{c} " + " ".join(f"{x}/{self.den}" for x in key))
        return "\n".join(lines)


def _geometric_sums(dens: Sequence[tuple[int, ...]], nvars: int,
                    bound: Fraction) -> dict[tuple[int, ...], int]:
    """Multiplicities of all sums of denominator exponents having some
    coordinate below ``bound`` (scaled units)."""
    sums: dict[tuple[int, ...], int] = {}
    gens = list(dens)

    def rec(i: int, vec: tuple[int, ...]) -> None:
        if all(x >= bound for x in vec):
            return
        if i == len(gens):
            sums[vec] = sums.get(vec, 0) + 1
            return
        g = gens[i]
        cur = vec
        while any(x < bound for x in cur):
            rec(i + 1, cur)
            cur = tuple(a + b for a, b in zip(cur, g))

    rec(0, (0,) * nvars)
    return sums


def expansion_cost(spec: ZetaSpec, bound: int | Fraction) -> int:
    """Upper estimate of the enumeration work for ``expand`` at this bound."""
    bscaled = Fraction(bound) * spec.den
    total = len(spec.num)
    for gen in spec.dens:
        total *= int(max(bscaled / c for c in gen)) + 2
    return total


def expand(spec: ZetaSpec, bound: int | Fraction) -> SparseSeries:
    """Exact expansion covering all support with some coordinate < bound."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("expansion bound must be positive")
    bscaled = bound * spec.den
    sums = _geometric_sums(spec.dens, spec.nvars, bscaled)
    tw = spec.twist_or_zero
    shifted_num = [(c, tuple(a + b for a, b in zip(e, tw))) for c, e in spec.num]
    terms: dict[tuple[int, ...], int] = {}
    for c, base in shifted_num:
        for vec, mult in sums.items():
            p = tuple(a + b for a, b in zip(base, vec))
            if any(x < bscaled for x in p):
                terms[p] = terms.get(p, 0) + c * mult
    return SparseSeries(
        ids=spec.ids, den=spec.den, bound=bscaled,
        terms={k: v for k, v in terms.items() if v})


def h_part(series: SparseSeries, residue: tuple[int, ...], d: int) -> SparseSeries:
    """Restrict to the terms of one discriminant class.

    The class of an exponent is its residue mod the integral lattice, read
    off coordinatewise from the scaled entries mod d.  Refuses projected
    series, whose exponents no longer determine classes.
    """
    if series.projected:
        raise ValueError("class decomposition of a variable-reduced series is not defined")
    if d != series.den:
        raise ValueError("residue scale does not match the series")
    keep = {k: v for k, v in series.terms.items()
            if tuple(x % d for x in k) == tuple(residue)}
    return SparseSeries(series.ids, series.den, series.bound, keep)


def reduce_to(series: SparseSeries, keep_ids: Sequence[int]) -> SparseSeries:
    """Set t_v = 1 for the variables outside ``keep_ids``.

    Complete fibers are guaranteed for every projected point with some kept
    coordinate below the original bound, because any preimage shares that
    small coordinate; projected points outside that window are dropped.
    """
    keep = list(keep_ids)
    if not keep:
        raise ValueError("cannot reduce away every variable")
    unknown = set(keep) - set(series.ids)
    if unknown:
        raise ValueError(f"unknown variable id {min(unknown)}")
    pos = [series.ids.index(v) for v in keep]
    if len(pos) == len(series.ids):
        return series
    out: dict[tuple[int, ...], int] = {}
    for k, v in series.terms.items():
        q = tuple(k[p] for p in pos)
        if any(x < series.bound for x in q):
            out[q] = out.get(q, 0) + v
    return SparseSeries(tuple(keep), series.den, series.bound,
                        {k: v for k, v in out.items() if v}, projected=True)
