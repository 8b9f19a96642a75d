"""Reduced curve germs as multibranch value semigroups.

A curve with r branches is described by its value set inside the box below
the conductor: the finite list of multi-orders realised by functions on the
germ.  Membership beyond the box follows the conductor rule: a vector
belongs to the semigroup iff its coordinatewise clamp to the conductor does,
so a value set is accepted only if the clamp of s + t is a value for every
pair of values s, t.
From this single piece of data the module computes the multivariable Hilbert
function, the signed Poincare coefficients, and the delta invariant three
ways (gap counts of the branches plus the alternating evaluation sum, the
Hilbert value at the conductor, and for one branch the plain gap count),
with mandatory agreement.

Every box computation is a handful of operations on dense integer arrays
indexed by the cells of the box [0, c + 1], c the conductor:

* Jumps.  The increment of the Hilbert function in direction i at l is
  D_i(l) = 1 iff some semigroup element s has s_i = l_i and s_j >= l_j for
  j != i.  With I the membership indicator on [0, c + 1] (the values on
  [0, c], edge-padded by one cell along every axis: the clamp rule), D_i is
  a reverse cumulative maximum of I along every axis j != i, read at
  l_i <= c_i.
* Hilbert table.  H is the cumulative sum of the increments along one path
  (axis 0 first, then axis 1, ...).  The value set is a curve semigroup only
  if every path agrees, that is if the slice difference along every axis i,
  H[l_i >= 1] - H[l_i <= c_i], equals D_i; the first cell in lexicographic
  order where a predecessor disagrees is reported.
* Poincare coefficients.  H continues to [0, c + 2] by the linear rule (each
  coordinate past c + 1 adds one), and P = (-1)^(r+1) Delta_1 ... Delta_r H
  on [0, c + 1], each axis continued just before its difference.  For r >= 2
  the top layers l_i = c_i + 1 vanish for any table: the support is in [0, c].
* Inversion.  H is the sum R over the nonempty branch subsets J of
  (-1)^(|J|-1) times the prefix sums of P_J (over the cells strictly below l
  on the coordinates in J), broadcast over the other axes: one sum, then one
  prefix sum per axis.  The delta sum is sum_i (c_i + 1) - R(c + 1).  A curve
  object builds I (on [0, c]), H (``hilbert_table`` returns it, read-only)
  and R once; the subcurve on J takes I reduced by ``any`` over the other
  axes, with no closure re-check (the clamp of s + t projects to the clamp of
  the projected sum, 0 and c to 0 and c_J).  One branch needs no table: its
  series is its semigroup indicator, so P_J on [0, c_j] is the projected I
  itself (H(l + 1) - H(l) = I(l), and a one-axis table has one path).  Two or
  more branches build a table from the projection, with the path check.

The work grows with the box cells prod(c_i + 2) and, through the branch
subsets, with 2^r.  A curve whose box holds more than ``BOX_CELL_CAP`` cells
is refused with a ``CurveDataError`` before anything of that size is built,
and the command line prints one ``error:`` line and exits 2.  The costliest
accepted shape is eleven branches with conductor zero (2^11 cells, 2^11
subsets): ``delta_total``, ``verify_inversion`` and the value at one together
take about 0.31 s there on a 2-CPU machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

import numpy as np

BOX_CELL_CAP = 2048  # largest accepted box [0, conductor + 1], in cells


class CurveDataError(ValueError):
    """Invalid multibranch value-set input."""


def _check_box(conductor: Iterable[int]) -> None:
    """Refuse a box [0, conductor + 1] of more than ``BOX_CELL_CAP`` cells;
    stops reading ``conductor`` as soon as the product passes the cap."""
    cells = 1
    for c in conductor:
        cells *= c + 2
        if cells > BOX_CELL_CAP:
            raise CurveDataError(
                f"the box [0, conductor + 1] holds more than {BOX_CELL_CAP} "
                "cells; refused")


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """First True cell of ``mask`` in lexicographic order, as Python ints."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(mask.argmax(), mask.shape))


@dataclass(frozen=True)
class MultibranchCurve:
    """Value-set description of a reduced curve germ with ``branches`` branches.

    ``values`` is the full intersection of the semigroup with [0, conductor].
    """

    branches: int
    conductor: tuple[int, ...]
    values: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        r, c = self.branches, self.conductor
        if r < 1:
            raise CurveDataError("branch count must be positive")
        if len(c) != r:
            raise CurveDataError("conductor length must equal the branch count")
        if any(x < 0 for x in c):
            raise CurveDataError("conductor entries must be nonnegative")
        _check_box(c)
        for v in self.values:
            if len(v) != r or any(x < 0 for x in v) or any(x > m for x, m in zip(v, c)):
                raise CurveDataError(f"value {v} outside the box [0, conductor]")
        if (0,) * r not in self.values:
            raise CurveDataError("the zero vector must belong to the value set")
        if c not in self.values:
            raise CurveDataError("the conductor must belong to the value set")
        # the clamp of s + t to c must be a value for every value t (the
        # membership rule); the first failing t in lexicographic order is the
        # first missing sum
        present = self._present
        # absence on [0, 2c], a cell past c read at its clamp
        absent = ~present[np.ix_(*(np.minimum(np.arange(2 * m + 1), m) for m in c))]
        for s in sorted(self.values):
            sums = tuple(slice(x, x + m + 1) for x, m in zip(s, c))
            t = _first(present & absent[sums])
            if t is not None:
                u = tuple(a + b for a, b in zip(s, t))
                w = tuple(map(min, u, c))
                clamp = "" if u == w else f" clamps to {w}, which"
                raise CurveDataError(f"value set is not closed under addition: "
                                     f"{s} + {t} = {u}{clamp} is missing")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_semigroup(cls, generators: Sequence[int]) -> "MultibranchCurve":
        """Single monomial branch from numerical semigroup generators."""
        gens = [int(g) for g in generators]
        for g in gens:
            if g <= 0:
                raise CurveDataError(f"semigroup generator {g} is not positive")
        gens = sorted(set(gens))
        if not gens:
            raise CurveDataError("need at least one generator")
        if gcd(*gens) != 1:
            raise CurveDataError("generators must be coprime (finite gap set)")
        a = gens[0]
        _check_box((a if a > 1 else 0,))  # 1 .. a - 1 are gaps
        # the conductor is at most (a - 1)(b - 1) for the largest generator b.
        # A gap x >= a makes x - a a gap, so a gap past the limit leaves one
        # in (limit - a, limit], above the cap: the array can stop there.
        limit = min(a * gens[-1], BOX_CELL_CAP + a)
        member = np.zeros(limit + 1, dtype=bool)
        member[0] = True
        for g in gens:
            step = g  # adds 0 .. 2k - 1 copies of g once step = k * g
            while step <= limit:
                member[step:] |= member[:-step]
                step *= 2
        gaps = np.flatnonzero(~member)
        cond = int(gaps[-1]) + 1 if len(gaps) else 0
        _check_box((cond,))
        values = np.flatnonzero(member[:cond + 1]).tolist()
        return cls(branches=1, conductor=(cond,), values=frozenset((x,) for x in values))

    @classmethod
    def ordinary(cls, r: int) -> "MultibranchCurve":
        """r smooth branches in general position (pairwise transversal axes)."""
        _check_box(itertools.repeat(1, r))
        return cls(branches=r, conductor=(1,) * r,
                   values=frozenset({(0,) * r, (1,) * r}))

    # -- membership beyond the box ------------------------------------------

    def member(self, v: Sequence[int]) -> bool:
        if any(x < 0 for x in v):
            return False
        clamp = tuple(min(x, m) for x, m in zip(v, self.conductor))
        return clamp in self.values

    @cached_property
    def _present(self) -> np.ndarray:
        """Boolean membership array on the box [0, conductor]."""
        present = np.zeros(tuple(m + 1 for m in self.conductor), dtype=bool)
        present[tuple(zip(*self.values))] = True  # one index array per axis
        return present

    @cached_property
    def _hilbert(self) -> "HilbertTable":
        """The Hilbert table, built once and read-only: ``hilbert_table`` shares it."""
        grid = _hilbert_grid(self._present)
        grid.flags.writeable = False
        return HilbertTable(curve=self, grid=grid)

    @cached_property
    def _reassembly(self) -> np.ndarray:
        """R on [0, conductor + 1]: the signed sum over the branch subsets J,
        by size with the whole curve last, of the prefix sums of P_J: each P_J
        at index 1.. on J and 0 elsewhere, then one prefix sum per axis.

        A one-branch P_J is the projected membership on [0, c_j], since
        H(l + 1) - H(l) = I(l) there, so only subsets of two or more
        branches build a table (and check it for path dependence).  A
        subcurve's table is the face of the whole one where the other
        coordinates are zero, so the whole is read first to name its cell."""
        r, c = self.branches, self.conductor
        whole = self._hilbert.grid
        total = np.zeros(tuple(m + 2 for m in c), dtype=np.int64)
        for k in range(1, r + 1):
            for js in itertools.combinations(range(r), k):
                outside = tuple(j for j in range(r) if j not in js)
                present = self._present.any(axis=outside) if outside else self._present
                if k == 1:
                    series = present
                else:
                    series = _poincare_grid(_hilbert_grid(present) if outside else whole)
                at = tuple(slice(1, None) if j in js else 0 for j in range(r))
                total[at] += series if k % 2 else -series
        for axis in range(r):
            total.cumsum(axis=axis, out=total)
        return total


def parse_curve(text: str) -> MultibranchCurve:
    """Parse the curve file grammar: ``branches r``, ``conductor c1 .. cr``,
    one ``s v1 .. vr`` line per value vector in the box."""
    r = None
    cond: tuple[int, ...] | None = None
    values: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            nums = [int(t) for t in args]
        except ValueError:
            raise CurveDataError(f"line {line_no}: expected integers in {raw!r}")
        if kind == "branches":
            if r is not None:
                raise CurveDataError(f"line {line_no}: duplicate branches line")
            if len(nums) != 1:
                raise CurveDataError(f"line {line_no}: branches line needs one integer")
            r = nums[0]
        elif kind == "conductor":
            if cond is not None:
                raise CurveDataError(f"line {line_no}: duplicate conductor line")
            cond = tuple(nums)
        elif kind == "s":
            values.append(tuple(nums))
        else:
            raise CurveDataError(f"line {line_no}: unknown directive {kind!r}")
    if r is None or cond is None:
        raise CurveDataError("curve file needs 'branches' and 'conductor' lines")
    return MultibranchCurve(branches=r, conductor=cond, values=frozenset(values))


# ---------------------------------------------------------------------------
# Hilbert function

@dataclass(frozen=True)
class HilbertTable:
    """Hilbert function on the box [0, conductor + 1] (``grid``), with the
    linear extension rule beyond it."""

    curve: MultibranchCurve
    grid: np.ndarray = field(compare=False, repr=False)

    def value(self, ell: Sequence[int]) -> int:
        capped, overflow = [], 0
        for x, c in zip(ell, self.curve.conductor):
            if x > c + 1:
                overflow += x - (c + 1)
                x = c + 1
            capped.append(max(x, 0))
        return int(self.grid[tuple(capped)]) + overflow


def _differences(grid: np.ndarray) -> np.ndarray:
    """Delta_1 ... Delta_r of a Hilbert table continued to [0, conductor + 2]:
    an array on [0, conductor + 1].

    Each axis is continued by one cell just before its difference is taken.
    By the extension rule a step past c + 1 adds one, but only until the
    first difference: after it that ramp cancels, and the continuation is
    constant.  So for r >= 2 every top layer of the result is zero, whatever
    the table: the first difference makes the layer l_0 = c_0 + 1 all ones,
    the second turns it to zeros that later differences keep, and each later
    axis, continued by a constant, gets a zero top layer of its own.
    """
    out = grid
    for axis in range(grid.ndim):
        at = (slice(None),) * axis
        step = np.empty_like(out)
        np.subtract(out[at + (slice(1, None),)], out[at + (slice(0, -1),)],
                    out=step[at + (slice(0, -1),)])
        step[at + (-1,)] = int(axis == 0)  # the continued cell less the edge
        out = step
    return out


def hilbert_table(curve: MultibranchCurve) -> HilbertTable:
    """The curve's table, the increments summed from h(0) = 0 along one path.

    The increment in direction i is one exactly when the jump criterion
    holds.  Every coordinate path must give the same value; disagreement
    means the value set was not a valid semigroup of a curve.
    """
    return curve._hilbert


def _hilbert_grid(present: np.ndarray) -> np.ndarray:
    """The grid of ``hilbert_table`` from the membership array on [0, c]."""
    r, c = present.ndim, tuple(m - 1 for m in present.shape)
    # membership on [0, c + 1] by the clamp rule: each axis's last layer
    # copied once (a cell whose later axes are still unset is set again by
    # their copies)
    padded = np.empty(tuple(m + 2 for m in c), dtype=bool)
    padded[tuple(slice(0, m + 1) for m in c)] = present
    for i in range(r):
        padded[(slice(None),) * i + (-1,)] = padded[(slice(None),) * i + (-2,)]
    flip = (slice(None, None, -1),) * r  # reverse cumulative maxima as forward ones
    flipped = padded[flip]
    jumps = []
    for i in range(r):
        d = flipped[(slice(None),) * i + (slice(1, None),)]  # l_i <= c_i
        for j in range(r):
            if j != i:
                d = np.logical_or.accumulate(d, axis=j)
        jumps.append(d[flip])
    grid = np.zeros(tuple(m + 2 for m in c), dtype=np.int64)
    for i, d in enumerate(jumps):
        # the path runs along axis i once the earlier axes are set and the
        # later ones are still zero
        at, zeros = (slice(None),) * i, (0,) * (r - i - 1)
        steps = d[at + (slice(None),) + zeros].cumsum(axis=i)
        grid[at + (slice(1, None),) + zeros] = grid[at + (slice(0, 1),) + zeros] + steps
    # the cells where some predecessor disagrees with the path
    bad = np.zeros(grid.shape, dtype=bool)
    for i, d in enumerate(jumps):
        at = (slice(None),) * i
        upper = at + (slice(1, None),)
        bad[upper] |= grid[upper] - grid[at + (slice(0, -1),)] != d
    ell = _first(bad)
    if ell is not None:
        vals = set()
        for i, d in enumerate(jumps):
            if ell[i] > 0:
                prev = tuple(x - (j == i) for j, x in enumerate(ell))
                vals.add(int(grid[prev] + d[prev]))
        raise CurveDataError(
            f"Hilbert recursion is path dependent at {ell}: got {sorted(vals)}; "
            "the value set is not a valid curve semigroup")
    return grid


# ---------------------------------------------------------------------------
# Poincare coefficients and delta

@dataclass(frozen=True)
class CurvePoincare:
    """Signed coefficient map of the Poincare series of a (sub)curve.

    ``grid`` holds the coefficients on the box [0, conductor].  For two or
    more branches that box holds the whole (finite) support; for one branch
    the coefficients are the semigroup indicator, constant one from the
    conductor on.
    """

    curve: MultibranchCurve
    terms: dict[tuple[int, ...], int] = field(hash=False)
    grid: np.ndarray = field(compare=False, repr=False)

    def coefficient(self, ell: Sequence[int]) -> int:
        ell = tuple(ell)
        if self.curve.branches == 1:
            return int(self.curve.member(ell))
        return self.terms.get(ell, 0)

    def value_at_one(self) -> int:
        """Coefficient sum; only meaningful for the finite (multibranch) case."""
        if self.curve.branches == 1:
            raise CurveDataError("one-branch series has no finite value at 1")
        return int(self.grid.sum())


def poincare_series(curve: MultibranchCurve) -> CurvePoincare:
    """Poincare coefficients of the curve via the alternating Hilbert sum;
    for several branches the top layers dropped from the differences are
    zero for any table (see ``_differences``)."""
    grid = _poincare_grid(curve._hilbert.grid)
    cells = np.argwhere(grid)
    terms = dict(zip(map(tuple, cells.tolist()), grid[tuple(cells.T)].tolist()))
    return CurvePoincare(curve=curve, terms=terms, grid=grid)


def _poincare_grid(table: np.ndarray) -> np.ndarray:
    """Poincare coefficients on [0, c] from a Hilbert table on [0, c + 1]."""
    return (-1) ** (table.ndim + 1) * _differences(table)[(slice(0, -1),) * table.ndim]


def delta_branch(curve: MultibranchCurve) -> int:
    """Delta of a single branch: the gap count of its numerical semigroup
    (minus the periodic constant of its one-variable series)."""
    if curve.branches != 1:
        raise CurveDataError("gap count is a one-branch notion")
    return curve.conductor[0] - (len(curve.values) - 1)


def delta_total(curve: MultibranchCurve) -> int:
    """Delta invariant of the whole curve.

    Branch deltas plus the alternating sum of Poincare evaluations over the
    branch subsets of size two or more, read off the reassembly at the
    corner as sum_i (c_i + 1) - R(c + 1); hard-checked against the stable
    Hilbert value at the conductor.
    """
    total = sum(curve.conductor) + curve.branches - int(
        curve._reassembly[(-1,) * curve.branches])
    stable = sum(curve.conductor) - curve._hilbert.value(curve.conductor)
    if total != stable:
        raise CurveDataError(
            f"delta cross-check failed: alternating sum gives {total}, the "
            f"Hilbert value at the conductor gives {stable}")
    return total


def verify_inversion(curve: MultibranchCurve) -> tuple[bool, tuple[int, ...] | None]:
    """Reassemble the Hilbert table from the Poincare data of all subcurves
    and compare on the box; returns the first mismatch as a witness."""
    ell = _first(curve._hilbert.grid != curve._reassembly)  # the table first
    return ell is None, ell
