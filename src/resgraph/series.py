"""Zeta factorisations of plumbing trees and their bounded exact expansions.

The zeta function of a tree is the product over vertices of
``(1 - t^{E*_v}) ** (valence(v) - 2)``.  Factors with positive power are
expanded symbolically into a signed numerator; factors with negative power
become geometric denominators whose exponents have strictly positive
entries.  A twist multiplies by the monomial ``t^{l0}`` for an anti-nef
``l0``; a relative vertex set multiplies by one extra ``(1 - t^{E*_v})``
per chosen vertex (cancelling the denominator at a leaf).

Expansions are sparse: finitely many exact terms together with the region
they are guaranteed to cover.  Reading a coefficient outside the region
raises, never silently returns zero.  A series keeps its terms as two
arrays, the exponent rows and their multiplicities; its term map is built
on first read, and ``h_part`` and ``reduce_to`` work on the arrays, so a
class part taken from an expansion never builds the expansion's map.

``expand`` enumerates on numpy arrays: rows of exponents with a column of
multiplicities.  Each denominator generator repeats every row once per copy
that keeps some coordinate below the bound (less any negative numerator
entry there); the region is downward closed, so a row pruned there never
returns.  Equal rows are merged by a stable sort
of packed int64 keys (``lexsort`` where the packed range reaches 2**63) and
``np.add.reduceat``.  Each numerator term shifts the rows and keeps those
still in the region, and the terms are merged once.  Python-int bounds on
every coordinate and on every multiplicity times coefficient come first;
where one reaches 2**63 the same code runs on object arrays of Python ints,
so no sum wraps.  No step materialises more than ``TABLE_STATE_CAP`` rows:
``expand`` raises ``TableBudgetExceeded`` instead, as a partition table of
``counting`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, prod
from typing import Iterable, Sequence

import numpy as np

from .cycles import RationalCycle
from .graphs import InternalCheckError, ResolutionGraph


TABLE_STATE_CAP = 1_800_000


class TableBudgetExceeded(Exception):
    """An enumeration would hold more than ``TABLE_STATE_CAP`` rows: a
    partition table of ``counting`` or the rows of an ``expand``.

    It reaches the caller.  Two-generator specs build no partition table,
    so they never meet it there.  The verify suites and the fuzz campaign
    count the instance as inconclusive, and elsewhere the CLI prints one
    ``refused:`` line and exits with status 2."""

    def __init__(self, size, what: str = "partition table"):
        super().__init__(size)
        self.what = what


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
        if not all(x > 0 for x in a):
            raise InternalCheckError("denominator exponent with a nonpositive entry")
    return ZetaSpec(graph.ids, d, tuple(num), tuple(dens), tw)


@dataclass(frozen=True, eq=False)
class SparseSeries:
    """Finite exact terms with an explicit enumeration guarantee.

    Every support point with some scaled coordinate strictly below ``bound``
    is present with its exact coefficient.  ``rows`` holds one scaled
    exponent per row (int64, or object where an entry may pass 2**63) and
    ``mult`` its nonzero coefficient; no row repeats.  ``terms`` is the same
    data as a dict of Python ints in row order, built on first read.
    ``projected`` marks series whose variables were reduced; their terms no
    longer determine classes.  Compare two series by their ``terms``.
    """

    ids: tuple[int, ...]
    den: int
    bound: Fraction
    rows: np.ndarray
    mult: np.ndarray
    projected: bool = False

    @cached_property
    def terms(self) -> dict[tuple[int, ...], int]:
        # the keys are built column by column, about twice as fast as a tuple per row
        return dict(zip(zip(*self.rows.T.tolist()), self.mult.tolist()))

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


def _merge(rows: np.ndarray, mult: np.ndarray, low: np.ndarray | None,
           strides: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows merged into one, their multiplicities summed, in
    lexicographic order: by the packed keys ``(rows - low) @ strides``, or
    column by column with ``lexsort`` where ``strides`` is None."""
    if not len(rows):
        return rows, mult
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    if strides is not None:
        key = (rows - low).astype(np.int64) @ strides
        order = key.argsort(kind="stable")
        key = key[order]
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = fresh.nonzero()[0]
    return rows[order[first]], np.add.reduceat(mult[order], first)


def _refuse_over_cap(rows: int) -> None:
    if rows > TABLE_STATE_CAP:
        raise TableBudgetExceeded(rows, "series expansion")


def expansion_cost(spec: ZetaSpec, bound: int | Fraction) -> int:
    """Upper estimate of the enumeration work for ``expand`` at this bound."""
    bscaled = Fraction(bound) * spec.den
    total = len(spec.num)
    for gen in spec.dens:
        total *= int(max(bscaled / c for c in gen)) + 2
    return total


def expand(spec: ZetaSpec, bound: int | Fraction) -> SparseSeries:
    """Exact expansion covering all support with some coordinate < bound.

    Raises ``TableBudgetExceeded`` instead of materialising more than
    ``TABLE_STATE_CAP`` rows at once."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("expansion bound must be positive")
    bscaled = bound * spec.den
    # exponents are integers, so x < bscaled exactly when x < its ceiling
    top = ceil(bscaled)
    tw = spec.twist_or_zero
    shifted = [(c, [a + b for a, b in zip(e, tw)]) for c, e in spec.num if c]
    columns = list(zip(*(e for _, e in shifted))) or [()] * spec.nvars
    low = [min((0, *col)) for col in columns]
    # a sum of generators matters while some coordinate j stays below
    # limit_j, where a numerator term can still bring it below top; no such
    # sum takes `copies` copies of a generator, so every coordinate stays in
    # [low, high] and every multiplicity times |coeff| below `weight`
    limit = [top - x for x in low]
    copies = [max(-(-b // x) for b, x in zip(limit, gen)) for gen in spec.dens]
    high = [max((0, *col)) + sum((k - 1) * gen[j] for k, gen in zip(copies, spec.dens))
            for j, col in enumerate(columns)]
    weight = prod(copies) * sum(abs(c) for c, _ in spec.num)
    dtype = object if max(weight, *limit, *high) >= 2 ** 63 else np.int64
    spans = [b - a + 1 for a, b in zip(low, high)]
    strides = (np.array([prod(spans[j + 1:]) for j in range(spec.nvars)], dtype=np.int64)
               if prod(spans) < 2 ** 63 else None)
    offset = np.array(low, dtype=dtype)
    gens = np.array(spec.dens, dtype=dtype).reshape(-1, spec.nvars)
    if len(gens):  # the first generator's copies are distinct rows
        _refuse_over_cap(copies[0])
        rows = np.arange(copies[0])[:, None] * gens[0]
        mult = np.ones(copies[0], dtype=dtype)
    else:
        rows = np.zeros((1, spec.nvars), dtype=dtype)
        mult = np.ones(1, dtype=dtype)
    limit = np.array(limit, dtype=dtype)
    for gen in gens[1:]:
        # copies k >= 0 of gen keeping some coordinate below its limit; the
        # region is downward closed, so no later generator brings a row back
        room = (-((rows - limit) // gen)).max(axis=1)
        n = int(room.sum())
        _refuse_over_cap(n)
        room = room.astype(np.int64)
        k = np.arange(n) - np.repeat(np.cumsum(room) - room, room)
        rows, mult = _merge(np.repeat(rows, room, axis=0) + k[:, None] * gen,
                            np.repeat(mult, room), offset, strides)
    picked = []
    for c, e in shifted:
        if any(e) or any(low):
            moved = rows + np.array(e, dtype=dtype)
            keep = (moved < top).any(axis=1)
            picked.append((moved[keep], c * mult[keep]))
        else:  # every row has a coordinate below top already
            picked.append((rows, c * mult))
    _refuse_over_cap(sum(len(m) for m, _ in picked))
    if len(picked) == 1:  # coefficients are nonzero and multiplicities positive
        (rows, mult), = picked
    else:  # terms may cancel
        rows, mult = _merge(np.concatenate([rows[:0], *(m for m, _ in picked)]),
                            np.concatenate([mult[:0], *(p for _, p in picked)]),
                            offset, strides)
        nonzero = mult != 0
        rows, mult = rows[nonzero], mult[nonzero]
    return SparseSeries(spec.ids, spec.den, bscaled, rows, mult)


def h_part(series: SparseSeries, residue: tuple[int, ...], d: int) -> SparseSeries:
    """Restrict to the terms of one discriminant class.

    The class of an exponent is its residue mod the integral lattice, read
    off coordinatewise from the scaled entries mod d.  Refuses projected
    series, whose exponents no longer determine classes.  A residue with
    negative or unreduced entries, or of another length than the exponents,
    names no class and selects nothing.
    """
    if series.projected:
        raise ValueError("class decomposition of a variable-reduced series is not defined")
    if d != series.den:
        raise ValueError("residue scale does not match the series")
    res = tuple(residue)
    rows = series.rows
    if len(res) != len(series.ids):
        sel = np.arange(0)
    else:  # one column rules out most rows before the others are tested
        sel = (rows[:, 0] % d == res[0]).nonzero()[0]
        sel = sel[(rows[sel, 1:] % d == res[1:]).all(axis=1)]
    return SparseSeries(series.ids, series.den, series.bound, rows[sel], series.mult[sel])


def reduce_to(series: SparseSeries, keep_ids: Sequence[int]) -> SparseSeries:
    """Set t_v = 1 for the variables outside ``keep_ids``; the columns follow
    ``keep_ids`` in the order given.

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
    repeated = [v for i, v in enumerate(keep) if v in keep[:i]]
    if repeated:
        raise ValueError(f"duplicate variable id {repeated[0]}")
    if tuple(keep) == series.ids:
        return series
    rows = series.rows[:, [series.ids.index(v) for v in keep]]
    inside = (rows < ceil(series.bound)).any(axis=1)
    rows, mult = _merge(rows[inside], series.mult[inside], None, None)
    nonzero = mult != 0
    return SparseSeries(tuple(keep), series.den, series.bound,
                        rows[nonzero], mult[nonzero], projected=True)
