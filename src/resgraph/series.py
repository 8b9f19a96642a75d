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

``expand`` enumerates on packed keys: ``_Layout`` packs each row of
exponents into as few int64 words as its column ranges need (one, unless
the ranges multiply past 2**63), or into one object word of Python ints
where a single column's range reaches 2**63, beside a column of
multiplicities.  Each denominator generator repeats every row once per copy
that keeps some coordinate below the bound (less any negative numerator
entry there), counted from the columns decoded out of the words; the region
is downward closed, so a row pruned there never returns.  The copies add
multiples of the packed generator, and equal keys are merged by a stable
``argsort`` (``lexsort`` over the words where the range passes 2**63) and
``np.add.reduceat``; a partition table of ``counting`` and ``reduce_to``
merge on the same layout.  Each numerator term keeps the rows still in the
region and shifts their keys, the terms are merged once, and the rows are
decoded into one (N, n) array at the end.  Python-int bounds on every
coordinate and on every multiplicity times coefficient come first; where
one reaches 2**63 the rows or the multiplicities are object arrays of
Python ints, so no sum wraps.  A generator's copies are counted before they
are built and the numerator's rows before they are moved; where the count
passes ``TABLE_STATE_CAP``, ``expand`` raises ``TableBudgetExceeded``, as a
partition table of ``counting`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cycles import RationalCycle
from .graphs import InternalCheckError, KeyedEquality, ResolutionGraph


TABLE_STATE_CAP = 1_800_000


class TableBudgetExceeded(Exception):
    """An enumeration would hold more than ``TABLE_STATE_CAP`` rows: the
    rows of an ``expand``, or a partition table of ``counting`` together
    with its spec's other tables (the budget holds per spec and caps the
    cells of all of its tables together).

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


@dataclass(frozen=True, eq=False)
class ZetaSpec(KeyedEquality):
    """Expanded numerator / geometric denominator presentation of a zeta
    function, with all exponents scaled by the common denominator ``den``.

    A twist t^{l0} is part of ``num``: every numerator exponent moved by l0.
    """

    ids: tuple[int, ...]
    den: int
    num: tuple[tuple[int, tuple[int, ...]], ...]
    dens: tuple[tuple[int, ...], ...]

    @property
    def nvars(self) -> int:
        return len(self.ids)

    def _fields(self) -> tuple:
        return (self.ids, self.den, self.num, self.dens)


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
    A twist l0 starts the numerator at t^{l0} instead of 1.
    """
    d = graph.det_abs
    rel = set(relative)
    unknown = rel - set(graph.ids)
    if unknown:
        raise ValueError(f"relative set contains unknown vertex {min(unknown)}")
    start = (0,) * graph.n
    if twist is not None and not twist.is_zero:
        if d % twist.den:
            raise TwistError("twist does not lie in the dual lattice")
        if not graph.in_lipman_cone(twist):
            raise TwistError("twist must be anti-nef")
        start = twist.scaled(d)
    powers = []
    for i in range(graph.n):
        p = graph.valences[i] - 2
        if graph.ids[i] in rel:
            p += 1
        powers.append(p)
    num: list[tuple[int, tuple[int, ...]]] = [(1, start)]
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
    for a in dens:
        if not all(x > 0 for x in a):
            raise InternalCheckError("denominator exponent with a nonpositive entry")
    return ZetaSpec(graph.ids, d, tuple(num), tuple(dens))


@dataclass(frozen=True, eq=False)
class SparseSeries:
    """Finite exact terms with an explicit enumeration guarantee.

    Every support point with some scaled coordinate strictly below ``bound``
    is present with its exact coefficient.  ``rows`` holds one scaled
    exponent per row and ``mult`` its nonzero coefficient, each int64, or
    object where its own entries may pass 2**63; no row repeats, and the
    rows are in increasing lexicographic order, as ``expand``, ``h_part``
    and ``reduce_to`` return them.  ``terms`` is the same data as a dict of
    Python ints in row order, built on first read, and ``dump`` writes the
    rows in that order.
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

    def dump(self) -> str:
        """One term per line, ``coeff n_1/d ... n_k/d``, in row order."""
        return "\n".join(self.dump_blocks())

    def dump_blocks(self) -> Iterator[str]:
        """The lines of ``dump``, 65,536 to a string, joined by newlines
        inside a block and none at its end.  Each block is made straight from
        the arrays, so a writer holds one block of text and Python rows at a
        time."""
        line = "{} " + " ".join([f"{{}}/{self.den}"] * len(self.ids))
        step = 1 << 16
        for a in range(0, len(self.mult), step):
            yield "\n".join(line.format(c, *key) for c, key in
                             zip(self.mult[a:a + step].tolist(),
                                 zip(*self.rows[a:a + step].T.tolist())))


class _Layout:
    """Packs a row whose column j takes ``spans[j]`` values from ``low[j]``
    up into integer keys.  The columns are cut greedily, last column fastest,
    into as few int64 words as keep each word's range below 2**63; where one
    column's span alone reaches 2**63, the whole row is one object word of
    Python ints.  Comparing the words in turn compares the rows
    lexicographically, and adding ``shift(v)`` to the words adds ``v`` to
    every row whose sum stays in the spans."""

    def __init__(self, low: Sequence[int], spans: Sequence[int]):
        self.low, self.spans = list(low), list(spans)
        self.dtype = object if max(spans, default=1) >= 2 ** 63 else np.int64
        # per column its stride and its word counted from the last; a new
        # word starts where the product of the spans after it would reach 2**63
        n = len(spans)
        self.stride, self.word, size, last = [1] * n, [0] * n, 1, 0
        for j in range(n - 1, -1, -1):
            if size * spans[j] >= 2 ** 63 and self.dtype is np.int64:
                size, last = 1, last + 1
            self.stride[j], self.word[j] = size, last
            size *= spans[j]
        self.word = [last - w for w in self.word]
        # one product with rows packs every word: column j's stride sits in
        # its word's row of the (words, columns) matrix
        self.strides = np.zeros((last + 1, n), dtype=self.dtype)
        for j, w in enumerate(self.word):
            self.strides[w, j] = self.stride[j]

    def shift(self, vec: Sequence[int]) -> np.ndarray:
        """The (words, 1) key offset that adds ``vec`` to a row."""
        out = [0] * len(self.strides)
        for j, x in enumerate(vec):
            out[self.word[j]] += x * self.stride[j]
        return np.array(out, dtype=self.dtype).reshape(-1, 1)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The (words, N) keys of an (N, columns) row array."""
        if self.dtype is object:
            rows = rows.astype(object)
        if any(self.low):
            rows = rows - np.array(self.low, dtype=rows.dtype)
        return self.strides @ rows.astype(self.dtype, copy=False).T

    def column(self, words: np.ndarray, j: int, dtype) -> np.ndarray:
        """Column j of the rows packed in ``words``, as a new array of ``dtype``."""
        x = words[self.word[j]]
        if self.stride[j] > 1:
            x = x // self.stride[j]
        if j and self.word[j - 1] == self.word[j]:  # not the top digit of its word
            x = x % self.spans[j]
        elif self.stride[j] == 1:  # a word of one column
            x = x.copy()
        if dtype == object:  # ``object`` or the dtype of Python-int rows
            x = x.astype(object)
        if self.low[j]:
            x += self.low[j]
        return x.astype(dtype, copy=False)

    def decode(self, words: np.ndarray, dtype) -> np.ndarray:
        """The (N, columns) rows packed in ``words``."""
        rows = np.empty((words.shape[1], len(self.spans)), dtype=dtype)
        for j in range(len(self.spans)):
            rows[:, j] = self.column(words, j, dtype)
        return rows


def _runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For nonempty (words, N) keys: the order that sorts them, the sorted
    keys, and the places in that order where a run of equal keys starts.
    One word sorts by a stable ``argsort``, several by ``lexsort``."""
    fresh = np.empty(words.shape[1], dtype=bool)
    fresh[0] = True
    if len(words) == 1:
        key = words[0]
        order = key.argsort(kind="stable")
        key = key.take(order)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        ranked = key[None]
    else:
        order = np.lexsort(words[::-1])
        ranked = words.take(order, axis=1)
        np.not_equal(ranked[:, 1:], ranked[:, :-1]).any(axis=0, out=fresh[1:])
    return order, ranked, fresh.nonzero()[0]


def _merge(words: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal keys merged into one, their multiplicities summed, in
    increasing order."""
    if not len(mult):
        return words, mult
    order, ranked, first = _runs(words)
    return ranked.take(first, axis=1), np.add.reduceat(mult.take(order), first)


def _refuse_over_cap(rows: int) -> None:
    if rows > TABLE_STATE_CAP:
        raise TableBudgetExceeded(rows, "series expansion")


def expand(spec: ZetaSpec, bound: int | Fraction) -> SparseSeries:
    """Exact expansion covering all support with some coordinate < bound.

    Raises ``TableBudgetExceeded`` at the first step that would hold more
    than ``TABLE_STATE_CAP`` rows, so the work follows the rows kept; it is
    the only budget a series dump meets."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("expansion bound must be positive")
    bscaled = bound * spec.den
    # exponents are integers, so x < bscaled exactly when x < its ceiling
    top = ceil(bscaled)
    terms = [(c, e) for c, e in spec.num if c]
    columns = list(zip(*(e for _, e in terms))) or [()] * spec.nvars
    low = [min((0, *col)) for col in columns]
    # a sum of generators matters while some coordinate j stays below
    # limit_j, where a numerator term can still bring it below top; no such
    # sum takes `copies` copies of a generator, so every coordinate stays in
    # [low, high] and every multiplicity times |coeff| below `weight`.  One
    # copy of a generator with copies == 1 leaves the region, so it adds nothing
    limit = [top - x for x in low]
    copies = [max(-(-b // x) for b, x in zip(limit, gen)) for gen in spec.dens]
    gens = [(gen, k) for gen, k in zip(spec.dens, copies) if k > 1]
    high = [max((0, *col)) + sum((k - 1) * gen[j] for gen, k in gens)
            for j, col in enumerate(columns)]
    weight = prod(k for _, k in gens) * sum(abs(c) for c, _ in terms)
    rtype = object if max(*limit, *high) >= 2 ** 63 else np.int64
    mtype = object if weight >= 2 ** 63 else np.int64
    layout = _Layout(low, [b - a + 1 for a, b in zip(low, high)])
    words, mult = layout.shift([-x for x in low]), np.ones(1, dtype=mtype)  # the row 0
    if gens:  # the row 0 has room for every copy of the first generator
        k = gens[0][1]
        _refuse_over_cap(k)
        words = words + np.arange(k) * layout.shift(gens[0][0])
        mult = np.ones(k, dtype=mtype)
    for gen, _ in gens[1:]:
        # copies k >= 0 of gen keeping some coordinate below its limit; the
        # region is downward closed, so no later generator brings a row back
        room = None
        for j, x in enumerate(gen):
            col = layout.column(words, j, rtype)
            col -= limit[j]
            col //= x
            room = col if room is None else np.minimum(room, col, out=room)
        room = np.negative(room, out=room)
        n = int(room.sum())
        _refuse_over_cap(n)
        room = room.astype(np.int64, copy=False)
        k = np.arange(n)
        k -= np.repeat(np.cumsum(room) - room, room)
        words = np.repeat(words, room, axis=1)
        words += k.astype(layout.dtype, copy=False) * layout.shift(gen)
        del k
        words, mult = _merge(words, np.repeat(mult, room))
    # the rows each numerator term keeps in the region, column by column;
    # every row has some coordinate j below limit_j, so a term at low keeps all
    if all(list(e) == low for _, e in terms):
        keep = np.ones((len(terms), len(mult)), dtype=bool)
    else:
        keep = np.zeros((len(terms), len(mult)), dtype=bool)
        for j in range(spec.nvars):
            below = np.array([[top - e[j]] for _, e in terms], dtype=rtype)
            keep |= layout.column(words, j, rtype) < below
    sizes = keep.sum(axis=1).tolist()
    _refuse_over_cap(sum(sizes))
    if len(terms) == 1:  # a shift keeps distinct keys distinct and in order
        (c, e), = terms
        if list(e) != low:
            words, mult = words.compress(keep[0], axis=1), mult.compress(keep[0])
        if any(e):
            words = words + layout.shift(e)
        if c != 1:
            mult = c * mult
    else:  # terms may cancel
        moved = np.empty((len(words), sum(sizes)), dtype=layout.dtype)
        summed = np.empty(sum(sizes), dtype=mtype)
        at = 0
        for (c, e), kept, size in zip(terms, keep, sizes):
            part = moved[:, at:at + size]
            words.compress(kept, axis=1, out=part)
            part += layout.shift(e)
            np.multiply(mult.compress(kept), c, out=summed[at:at + size])
            at += size
        del words, mult, keep
        words, mult = _merge(moved, summed)
        nonzero = mult != 0
        words, mult = words.compress(nonzero, axis=1), mult[nonzero]
    return SparseSeries(spec.ids, spec.den, bscaled, layout.decode(words, rtype), mult)


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
    rows, mult = rows[inside], series.mult[inside]
    if len(mult):  # merged on keys packed from each column's own range
        low, high = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
        layout = _Layout(low, [b - a + 1 for a, b in zip(low, high)])
        words, mult = _merge(layout.pack(rows), mult)
        rows = layout.decode(words, rows.dtype)
    nonzero = mult != 0
    return SparseSeries(tuple(keep), series.den, series.bound,
                        rows[nonzero], mult[nonzero], projected=True)
