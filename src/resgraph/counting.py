"""Counting functions of zeta expansions and their periodic constants.

Two sums over the support of a class part are needed: the counting function
(exponents not dominating the test cycle on a variable subset) and the
modified one (exponents strictly below it on every chosen coordinate).  Both
reduce, through inclusion-exclusion, to box-bounded sums, which are computed
from a dynamic-programming table of denominator-exponent sums keyed by the
projected coordinates and the residue class mod the integral lattice.
Tables are cached per spec and only grow, so a ray of evaluations costs one
table build plus cheap scans.  A first build covers exactly the box asked
for; a box beyond the cached one rebuilds to the union of both with each
bound rounded up to three significant bits, so a base point that creeps
with the class does not rebuild at every step.  The rounded box falls back
to the exact one wherever the budget would refuse it.

A table has two builders with one output, residue -> (coordinates, counts)
arrays.  The sparse one walks a dictionary of reachable cells.  The dense
one fills a numpy array over the kept coordinates divided by their
generator gcds and one index into the residue subgroup the generators
span.  ``_table_for`` picks dense when the table compresses (its reduced
grid is no larger than the multiset estimate) and the estimate is at least
``DENSE_MIN_CELLS``; the builder itself declines specs without generators,
arrays above ``DENSE_CELL_CAP`` cells and counts that could reach 2**63.
Counts are Python ints instead of int64 once a ray sum could overflow.

Periodic constants are read off by sampling the counting function along a
ray interior to the Lipman cone, stabilising a Newton difference table on
the deep tail, and extrapolating the fitted polynomial back to the ray base.
Samples sit on an even grid k = s, 2s, ..., so the back-check and the
extrapolation are integer operations on the difference rows (Newton's
backward formula); no rational interpolation is needed.  Two strides must
stabilise and agree before a value is accepted, and a stride that is not a
multiple of a quasi-period the samples show is never fitted.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm, prod
from typing import Sequence

import numpy as _np

from .cycles import RationalCycle, zero_cycle
from .graphs import ResolutionGraph, chi, laufer_saturate, strict_interior_cycle, subgraph_components
from .series import ZetaSpec, build_zeta
from .snf import fraction_inverse


class StabilizationError(ArithmeticError):
    """A probe or difference-table fit failed to settle."""


class TableBudgetExceeded(Exception):
    """A partition table would hold more than ``TABLE_STATE_CAP`` cells.

    Ray fits treat it as the end of the ray and two-generator specs fall
    back to their closed evaluation; anywhere else it reaches the caller,
    and verification drivers report the instance as inconclusive."""


class InternalCheckError(AssertionError):
    """A mandatory internal cross-check failed.  Raised explicitly, so the
    check also runs under ``python -O``, where ``assert`` is stripped."""


def _integral(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise InternalCheckError(f"{what} is not an integer: {val}")
    return int(val)


# ---------------------------------------------------------------------------
# partition tables

_TABLES: "weakref.WeakKeyDictionary[ZetaSpec, dict]" = weakref.WeakKeyDictionary()
_FAILED: "weakref.WeakKeyDictionary[ZetaSpec, dict]" = weakref.WeakKeyDictionary()
_PLAIN: "weakref.WeakKeyDictionary[ResolutionGraph, ZetaSpec]" = weakref.WeakKeyDictionary()

TABLE_STATE_CAP = 1_800_000
DENSE_CELL_CAP = 2 ** 23  # largest dense table: residue classes x reduced grid
DENSE_MIN_CELLS = 10 ** 4  # smallest multiset estimate worth numpy's overhead

FIT_WINDOW = 3  # length of the constant difference tail a fit demands
SPECIAL_CAP = 64  # largest period candidate read off the generators
RAY_DEPTHS = (12, 18, 26, 38, 56, 80)  # ray depths every fit tries
MAX_RAY_DEPTH = 320  # deepest ray queued for a long period


def plain_zeta(graph: ResolutionGraph) -> ZetaSpec:
    spec = _PLAIN.get(graph)
    if spec is None:
        spec = build_zeta(graph)
        _PLAIN[graph] = spec
    return spec


def _build_table(spec: ZetaSpec, positions: tuple[int, ...],
                 bounds: tuple[int, ...]) -> dict:
    """Sparse table of denominator-exponent sums.

    Keys are ``(projected coordinates, full residue mod den)``; values count
    the multisets of denominator exponents realising them.  Only sums whose
    projection lies strictly inside the box are kept; every generator has
    strictly positive projected coordinates, so the table is finite.
    """
    d = spec.den
    zero = ((0,) * len(positions), (0,) * spec.nvars)
    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {zero: 1}
    if any(b <= 0 for b in bounds):
        return {}
    for gen in spec.dens:
        step_y = tuple(gen[p] for p in positions)
        step_r = tuple(x % d for x in gen)
        cells: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for y, rho in states:
            cy, cr = y, rho
            while all(a < b for a, b in zip(cy, bounds)):
                cell = (cy, cr)
                if cell in cells:
                    break
                cells.add(cell)
                cy = tuple(a + s for a, s in zip(cy, step_y))
                cr = tuple((a + s) % d for a, s in zip(cr, step_r))
            if len(cells) > TABLE_STATE_CAP:
                raise TableBudgetExceeded(len(cells))
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for cell in sorted(cells, key=lambda c: (sum(c[0]), c)):
            y, rho = cell
            py = tuple(a - s for a, s in zip(y, step_y))
            prev = 0
            if all(a >= 0 for a in py):
                pr = tuple((a - s) % d for a, s in zip(rho, step_r))
                prev = out.get((py, pr), 0)
            total = states.get(cell, 0) + prev
            if total:
                out[cell] = total
        states = out
    return states


def _wide(spec: ZetaSpec, total: int) -> bool:
    """Whether scans of a table holding ``total`` multisets could leave int64:
    a ray histogram sums up to ``sum |coeff| * total`` in absolute value."""
    return sum(abs(c) for c, _ in spec.num) * total >= 2 ** 63


def _bucketise(spec: ZetaSpec, states: dict) -> dict:
    """Group table states by residue: residue -> (projection matrix, counts),
    as integer arrays for vectorised box queries.  Counts are Python-int
    object arrays when int64 scans could overflow."""
    grouped: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for (y, rho), count in states.items():
        grouped.setdefault(rho, []).append((y, count))
    dtype = object if _wide(spec, sum(states.values())) else _np.int64
    buckets = {}
    for rho, items in grouped.items():
        ys = _np.array([y for y, _ in items], dtype=_np.int64).reshape(len(items), -1)
        cs = _np.array([c for _, c in items], dtype=dtype)
        buckets[rho] = (ys, cs)
    return buckets


def _dense_shape(spec: ZetaSpec, positions: tuple[int, ...],
                 bounds: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Per kept coordinate, the gcd g_p of the generator entries there (every
    reachable y_p is a multiple of it) and the count ceil(b_p / g_p) of those
    multiples below the bound.  The spec must have generators."""
    gs = [reduce(gcd, (gen[p] for gen in spec.dens)) for p in positions]
    return gs, tuple(-(-b // g) for b, g in zip(bounds, gs))


def _build_dense(spec: ZetaSpec, positions: tuple[int, ...],
                 bounds: tuple[int, ...]) -> dict | None:
    """The buckets of ``_bucketise(spec, _build_table(...))`` from a dense DP.

    The array is indexed by the reduced coordinates ``y_p / g_p`` and one
    scalar index into the subgroup of residues mod den that the generator
    residues generate.  Each generator is one unbounded-knapsack pass over
    blocks of the first axis; projected steps are strictly positive, so a
    block only reads blocks already final.  Returns None where the dense form
    does not apply: no generators, more than ``DENSE_CELL_CAP`` cells, or
    counts that could reach 2**63.
    """
    if any(b <= 0 for b in bounds):
        return {}
    if not spec.dens:
        return None
    most = 1  # multisets inside the box bound every count
    for gen in spec.dens:
        most *= 1 + min((b - 1) // gen[p] for p, b in zip(positions, bounds))
    if most >= 2 ** 63:
        return None
    gs, shape = _dense_shape(spec, positions, bounds)
    grid = prod(shape)
    d = spec.den
    steps = [tuple(x % d for x in gen) for gen in spec.dens]
    classes = [(0,) * spec.nvars]
    index = {classes[0]: 0}
    for rho in classes:  # breadth-first; the list grows while it is walked
        if len(classes) * grid > DENSE_CELL_CAP:
            return None
        for st in steps:
            nxt = tuple((a + b) % d for a, b in zip(rho, st))
            if nxt not in index:
                index[nxt] = len(classes)
                classes.append(nxt)
    table = _np.zeros(shape + (len(classes),),
                      dtype=_np.int32 if most < 2 ** 31 else _np.int64)
    table[(0,) * table.ndim] = 1
    for gen, st in zip(spec.dens, steps):
        s = [gen[p] // g for p, g in zip(positions, gs)]
        if any(a >= n for a, n in zip(s, shape)):
            continue  # not even one copy fits in the box
        src = _np.array([index[tuple((a - b) % d for a, b in zip(rho, st))]
                         for rho in classes])
        dst = tuple(slice(a, None) for a in s[1:])
        lo = tuple(slice(0, n - a) for a, n in zip(s[1:], shape[1:]))
        for y0 in range(s[0], shape[0], s[0]):
            top = min(y0 + s[0], shape[0])
            table[(slice(y0, top),) + dst] += \
                table[(slice(y0 - s[0], top - s[0]),) + lo][..., src]
    cells = int(_np.count_nonzero(table))
    if cells > TABLE_STATE_CAP:
        raise TableBudgetExceeded(cells)
    dtype = object if _wide(spec, int(table.sum(dtype=_np.int64))) else _np.int64
    scale = _np.asarray(gs, dtype=_np.int64)
    buckets = {}
    for c, rho in enumerate(classes):
        plane = table[..., c]
        at = _np.nonzero(plane)
        if at[0].size:
            buckets[rho] = (_np.stack(at, axis=1) * scale, plane[at].astype(dtype))
    return buckets


def _simplex_estimate(spec: ZetaSpec, positions: tuple[int, ...],
                      bounds: tuple[int, ...]) -> int:
    """The multiset bound with a simplex correction: roughly how many
    multisets of generators project inside the box."""
    box = 1
    for gen in spec.dens:
        ranges = [(b + gen[p] - 1) // gen[p] for p, b in zip(positions, bounds)]
        box *= max(1, min(ranges))
        if box > 5000 * TABLE_STATE_CAP:
            break
    return box // max(1, factorial(len(spec.dens))) + 1


def _estimate_cells(spec: ZetaSpec, positions: tuple[int, ...],
                    bounds: tuple[int, ...]) -> int:
    """Cheap upper-estimate of the state count: the residue-weighted grid
    bound against the multiset bound with a simplex correction."""
    grid = spec.den
    for i, b in enumerate(bounds):
        g = 0
        for gen in spec.dens:
            g = gcd(g, gen[positions[i]])
        grid *= max(1, b // max(1, g))
        if grid > 64 * TABLE_STATE_CAP:
            break
    return min(grid, _simplex_estimate(spec, positions, bounds))


def _rounded_up(b: int) -> int:
    """``b`` rounded up to three significant bits: 288 and 298 become 320."""
    step = 1 << max(0, b.bit_length() - 3)
    return -(-b // step) * step


def _build_box(spec: ZetaSpec, positions: tuple[int, ...],
               bounds: tuple[int, ...]) -> dict:
    """Buckets of one box, dense when the table compresses and is large
    enough to repay numpy, sparse otherwise."""
    simplex = _simplex_estimate(spec, positions, bounds)
    table = None
    if (spec.dens and simplex >= DENSE_MIN_CELLS
            and prod(_dense_shape(spec, positions, bounds)[1]) <= simplex):
        table = _build_dense(spec, positions, bounds)
    if table is None:
        table = _bucketise(spec, _build_table(spec, positions, bounds))
    return table


def _table_for(spec: ZetaSpec, positions: tuple[int, ...],
               bounds: tuple[int, ...]) -> dict:
    """Cached buckets covering the box.

    A first build is exact.  A larger box rebuilds the table to the union of
    both boxes with every bound rounded up to three significant bits, so a
    base point that creeps along with the class does not force one rebuild
    per step.  The rounded box is only tried where it cannot be refused by
    the budget; otherwise, and if its build runs over the budget, the exact
    box is built, so the rounding never refuses a table the exact box gets.
    Estimates refuse oversized tables before either builder is chosen."""
    per_spec = _TABLES.setdefault(spec, {})
    entry = per_spec.get(positions)
    grown = bounds
    if entry is not None:
        stored_bounds, stored = entry
        if all(a <= b for a, b in zip(bounds, stored_bounds)):
            return stored
        bounds = tuple(max(a, b) for a, b in zip(bounds, stored_bounds))
        grown = tuple(_rounded_up(b) for b in bounds)
    failed = _FAILED.setdefault(spec, {})
    known_bad = failed.get(positions)

    def covered(box: tuple[int, ...]) -> bool:  # a known refusal fits inside
        return known_bad is not None and all(a >= b for a, b in zip(box, known_bad))

    over = (5 * TABLE_STATE_CAP) // 4
    if covered(bounds):
        raise TableBudgetExceeded(bounds)
    if _estimate_cells(spec, positions, bounds) > over:
        failed[positions] = bounds
        raise TableBudgetExceeded(bounds)
    table = None
    if (grown != bounds and not covered(grown)
            and _estimate_cells(spec, positions, grown) <= over):
        try:
            table = _build_box(spec, positions, grown)
            bounds = grown
        except TableBudgetExceeded:
            failed[positions] = grown  # the exact box may still fit
    if table is None:
        try:
            table = _build_box(spec, positions, bounds)
        except TableBudgetExceeded:
            failed[positions] = bounds
            raise
    per_spec[positions] = (bounds, table)
    return table


def _untwist(spec: ZetaSpec, residue: tuple[int, ...],
             x: RationalCycle) -> tuple[ZetaSpec, tuple[int, ...], RationalCycle]:
    if spec.twist is None:
        return spec, tuple(residue), x
    d = spec.den
    tw = RationalCycle(spec.twist, d)
    res = tuple((a - b) % d for a, b in zip(residue, spec.twist))
    return spec.untwisted(), res, x - tw


_PAIR_RES: "weakref.WeakKeyDictionary[ZetaSpec, dict]" = weakref.WeakKeyDictionary()


def _pair_residue_classes(spec: ZetaSpec, need: tuple[int, ...]) -> list[tuple[int, int]]:
    """Multiplicity pairs mod den whose generator combination has the wanted
    residue (two-generator specs only)."""
    cache = _PAIR_RES.setdefault(spec, {})
    if need in cache:
        return cache[need]
    d = spec.den
    ga, gb = spec.dens
    pairs = []
    for r1 in range(d):
        for r2 in range(d):
            if all((r1 * a + r2 * b) % d == w
                   for a, b, w in zip(ga, gb, need)):
                pairs.append((r1, r2))
    cache[need] = pairs
    return pairs


def _q_two_gens(spec: ZetaSpec, residue: tuple[int, ...],
                positions: tuple[int, ...], xs: tuple[int, ...]) -> int:
    """Exact closed evaluation for two geometric generators: sum over the
    second multiplicity of arithmetic-progression counts of the first.
    Depth costs almost nothing here, which rescues rays whose partition
    tables are unaffordable."""
    ga, gb = spec.dens
    d = spec.den
    total = 0
    for coeff, base in spec.num:
        t = [xs[p] - base[p] for p in positions]
        if any(v <= 0 for v in t):
            continue
        need = tuple((a - b) % d for a, b in zip(residue, base))
        a_pos = [ga[p] for p in positions]
        b_pos = [gb[p] for p in positions]
        c2_cap = min((tw - 1) // bw for tw, bw in zip(t, b_pos))
        for r1, r2 in _pair_residue_classes(spec, need):
            c2 = r2
            while c2 <= c2_cap:
                u = min((tw - c2 * bw - 1) // aw
                        for tw, aw, bw in zip(t, a_pos, b_pos)) + 1
                if u > r1:
                    total += coeff * ((u - r1 - 1) // d + 1)
                c2 += d
    return total


def _signed_subsets(positions: Sequence[int]):
    """Nonempty subsets with their inclusion-exclusion signs, sizes ascending,
    then ``itertools.combinations`` order.  Tables grow monotonically, so the
    order also fixes which tables get built and rebuilt."""
    for r in range(1, len(positions) + 1):
        sign = (-1) ** (r + 1)
        for sub in itertools.combinations(positions, r):
            yield sign, sub


def counting_q(spec: ZetaSpec, residue: tuple[int, ...],
               positions: Sequence[int], x: RationalCycle) -> int:
    """Modified counting function: coefficient sum over support exponents of
    the given class lying strictly below x on every chosen coordinate."""
    if not positions:
        raise ValueError("variable subset must be nonempty")
    spec, residue, x = _untwist(spec, residue, x)
    pos = tuple(sorted(positions))
    d = spec.den
    xs = x.scaled(d)
    targets = []
    for coeff, base in spec.num:
        t = tuple(xs[p] - base[p] for p in pos)
        base_res = tuple(a % d for a in base)
        need = tuple((a - b) % d for a, b in zip(residue, base_res))
        targets.append((coeff, t, need))
    bounds = tuple(max(0, *(t[i] for _, t, _ in targets)) for i in range(len(pos)))
    if all(b <= 0 for b in bounds):
        return 0
    try:
        table = _table_for(spec, pos, bounds)
    except TableBudgetExceeded:
        if len(spec.dens) == 2:
            return _q_two_gens(spec, residue, pos, xs)
        raise
    total = 0
    for coeff, t, need in targets:
        entry = table.get(need)
        if entry is None or any(b <= 0 for b in t):
            continue
        ys, cs = entry
        mask = (ys < _np.asarray(t, dtype=_np.int64)).all(axis=1)
        total += coeff * int(cs[mask].sum())
    return total


def counting_Q(spec: ZetaSpec, residue: tuple[int, ...],
               positions: Sequence[int], x: RationalCycle) -> int:
    """Counting function: coefficient sum over support exponents of the given
    class not dominating x on the chosen coordinates.  Assembled from the
    modified counting function by inclusion-exclusion."""
    if not positions:
        raise ValueError("variable subset must be nonempty")
    return sum(sign * counting_q(spec, residue, sub, x)
               for sign, sub in _signed_subsets(sorted(positions)))


def _ray_q_values(spec: ZetaSpec, residue: tuple[int, ...],
                  positions: tuple[int, ...], base: RationalCycle,
                  step: RationalCycle, nk: int) -> list[int]:
    """Modified counting values at ``base + k * step`` for k = 1..nk.

    One histogram pass over the table: each state contributes from the first
    k whose box contains it, so a whole ray costs one table scan.
    """
    spec, residue, base = _untwist(spec, residue, base)
    d = spec.den
    bs = base.scaled(d)
    ss = step.scaled(d)
    if not all(ss[p] > 0 for p in positions):
        raise ValueError("ray step must increase every kept coordinate")
    bounds = []
    for i, p in enumerate(positions):
        worst = max(bs[p] - b[p] for _, b in spec.num)
        bounds.append(max(0, worst + nk * ss[p]))
    try:
        table = _table_for(spec, positions, tuple(bounds))
    except TableBudgetExceeded:
        if len(spec.dens) != 2:
            raise
        out = []
        for k in range(1, nk + 1):
            xk = tuple(b + k * s for b, s in zip(bs, ss))
            out.append(_q_two_gens(spec, residue, positions, xk))
        return out
    wide = any(cs.dtype == object for _, cs in table.values())
    hist = _np.zeros(nk + 2, dtype=object if wide else _np.int64)
    svec = _np.asarray([ss[p] for p in positions], dtype=_np.int64)
    for coeff, bexp in spec.num:
        need = tuple((a - b) % d for a, b in zip(residue, bexp))
        entry = table.get(need)
        if entry is None:
            continue
        ys, cs = entry
        t0 = _np.asarray([bs[p] - bexp[p] for p in positions], dtype=_np.int64)
        kmin = ((ys - t0) // svec).max(axis=1) + 1
        kmin = _np.clip(kmin, 1, nk + 1)
        _np.add.at(hist, kmin, coeff * cs)
    return [int(v) for v in _np.cumsum(hist[1:nk + 1])]


def _ray_count_values(spec: ZetaSpec, residue: tuple[int, ...],
                      positions: tuple[int, ...], base: RationalCycle,
                      step: RationalCycle, nk: int) -> list[int]:
    totals = [0] * nk
    for sign, sub in _signed_subsets(positions):
        vals = _ray_q_values(spec, residue, sub, base, step, nk)
        totals = [t + sign * v for t, v in zip(totals, vals)]
    return totals


# ---------------------------------------------------------------------------
# ray fits and periodic constants

@dataclass(frozen=True)
class FitConfig:
    """Knobs for the difference-table fit of counting functions along rays."""

    max_substride: int = 12


def _period_candidates(spec: ZetaSpec, positions: tuple[int, ...],
                       direction: RationalCycle) -> list[int]:
    """Quasi-period candidates of the counting function along the ray.

    Jumps of the count happen when a face of the dilating region crosses
    lattice points; the relevant denominators are the single generator
    entries and the two-by-two minors of the projected generator matrix,
    each divided by its alignment with the step.  Candidates above
    ``SPECIAL_CAP`` are dropped (the fit then reports non-stabilisation honestly).
    """
    step = direction.scaled(spec.den)
    entry = 1
    for gen in spec.dens:
        for p in positions:
            entry = lcm(entry, gen[p] // gcd(gen[p], step[p]))
    cands = {entry}
    minor = entry
    for (i, gi), (j, gj) in itertools.combinations(enumerate(spec.dens), 2):
        for p, q in itertools.combinations(positions, 2):
            det = abs(gi[p] * gj[q] - gi[q] * gj[p])
            if det == 0:
                continue
            vertex_move = gcd(abs(gj[q] * step[p] - gj[p] * step[q]),
                              abs(gi[p] * step[q] - gi[q] * step[p]))
            minor = lcm(minor, det // gcd(det, vertex_move))
            if minor > 16 * SPECIAL_CAP:
                break
    cands.add(minor)
    return sorted(c for c in cands if 1 < c <= SPECIAL_CAP)


def _detected_periods(vals: Sequence[int], deg_cap: int,
                      max_period: int) -> tuple[list[int], list[int]]:
    """Periods read off the sampled ray itself: the smallest tail period of
    each difference row.  Complements the entry analysis, which only bounds
    periods from above and misses interactions.

    Returns every period found and, second, those of rows whose inspected
    tail is not constant: a constant row shows the trivial period 2, a
    non-constant one a genuine quasi-period of the counting function."""
    found = set()
    genuine = set()
    row = list(vals)
    for _ in range(deg_cap + 1):
        n = len(row)
        for rho in range(2, max_period + 1):
            if n < 2 * rho:
                break
            span = min(n - rho, 3 * rho)
            if all(row[-i] == row[-i - rho] for i in range(1, span + 1)):
                found.add(rho)
                if len(set(row[-(span + rho):])) > 1:
                    genuine.add(rho)
                break
        if len(row) < 2:
            break
        row = [b - a for a, b in zip(row, row[1:])]
    return sorted(found), sorted(genuine)


def _stabilised_extrapolation(vals: Sequence[int], deg_cap: int) -> int | None:
    """Extrapolate samples at k = s, 2s, ..., m*s to k = 0 once the Newton
    difference tail is constant.

    A constant window of differences is necessary but not sufficient: small
    periodic blips with longer periods can hide inside it.  The polynomial
    through the last deg + 1 samples must therefore back-predict the last
    ``check`` samples exactly, which on an even grid means the last
    ``check - deg`` entries of the deg-th difference row agree.  Its value at
    k = 0 is then the integer sum over i <= deg of (-1)**i C(m, i) times the
    last entry of the i-th difference row (Newton's backward formula).
    """
    m = len(vals)
    row = list(vals)
    last = []  # last entry of each difference row so far
    for deg in range(0, deg_cap + 1):
        if len(row) < FIT_WINDOW:
            return None
        last.append(row[-1])
        if len(set(row[-FIT_WINDOW:])) == 1:
            check = min(m, max(2 * (deg + 2), 10))
            if len(set(row[-(check - deg):])) != 1:
                return None
            return sum((-1) ** i * comb(m, i) * d for i, d in enumerate(last))
        row = [b - a for a, b in zip(row, row[1:])]
    return None


def quasipoly_value(spec: ZetaSpec, residue: tuple[int, ...],
                    positions: Sequence[int], base: RationalCycle,
                    direction: RationalCycle, fit: FitConfig = FitConfig()) -> int:
    """Value at the ray base of the polynomial the counting function agrees
    with deep along ``base + k * direction``.

    The fit must stabilise on two nested substride subsequences of the ray
    with the same extrapolation before a value is accepted.  Quasi-periods
    show up as unstable difference tails and push the fit to coarser
    substrides or a deeper ray; a substride that is not a multiple of a
    quasi-period the samples show would mix constituents, so it is never
    fitted.  A ray is only deepened while its tables stay affordable, and
    nothing is ever guessed.
    """
    pos = tuple(sorted(positions))
    deg_cap = len(spec.dens) + 1
    specials = _period_candidates(spec, pos, direction)
    depths = sorted(set(RAY_DEPTHS)
                    | {2 * a * (FIT_WINDOW + 2) for a in specials
                       if 2 * a * (FIT_WINDOW + 2) > max(RAY_DEPTHS)})
    i = 0
    while i < len(depths):
        depth = depths[i]
        i += 1
        try:
            vals = _ray_count_values(spec, residue, pos, base, direction, depth)
        except TableBudgetExceeded:
            break  # a deeper ray would only grow the tables further
        top = min(fit.max_substride, depth // (2 * (FIT_WINDOW + 1)))
        found, genuine = _detected_periods(vals, deg_cap, depth // 2)
        sweep = list(range(1, top + 1))
        sweep += [a for a in specials if a > top]
        sweep += [a for a in found if a > top and a not in sweep]
        for a in sorted(set(sweep)):
            if 2 * a * (FIT_WINDOW + 1) > depth:
                # not enough samples yet; queue a deeper ray for this period
                need = 2 * a * (FIT_WINDOW + 2)
                if need <= MAX_RAY_DEPTH and need not in depths:
                    depths = sorted(set(depths) | {need})
                continue
            if any(a % p for p in genuine):
                continue
            # samples at k = a, 2a, ... and at k = 2a, 4a, ...
            v1 = _stabilised_extrapolation(vals[a - 1::a], deg_cap)
            if v1 is None:
                continue
            v2 = _stabilised_extrapolation(vals[2 * a - 1::2 * a], deg_cap)
            if v2 is not None and v1 == v2:
                return v1
    raise StabilizationError(
        f"counting function did not stabilise along the ray (positions {pos})")


_SW_CACHE: "weakref.WeakKeyDictionary[ResolutionGraph, dict]" = weakref.WeakKeyDictionary()
# per graph: pure functions of the graph and a key, e.g. ("components", ids)
_PIECES: "weakref.WeakKeyDictionary[ResolutionGraph, dict]" = weakref.WeakKeyDictionary()


def _graph_cached(graph: ResolutionGraph, kind: str, key: tuple[int, ...], compute):
    cache = _PIECES.setdefault(graph, {})
    if (kind, key) not in cache:
        cache[kind, key] = compute(graph, key)
    return cache[kind, key]


def _interior_certified(projected_duals: list[tuple[Fraction, ...]],
                        y: tuple[int, ...]) -> bool:
    """Exact interiority certificate for the projected anti-nef cone: some
    full-rank subset of projected dual cycles expresses y with strictly
    positive coefficients, which places y in the interior of the sub-cone it
    spans and hence of the whole cone."""
    k = len(y)
    for subset in itertools.combinations(projected_duals, k):
        try:
            inv = fraction_inverse([[subset[j][i] for j in range(k)] for i in range(k)])
        except ValueError:
            continue  # singular: the subset spans no full-rank sub-cone
        if all(sum(a * b for a, b in zip(row, y)) > 0 for row in inv):
            return True
    return False


def _ray_directions(graph: ResolutionGraph,
                    positions: tuple[int, ...]) -> tuple[RationalCycle, ...]:
    """Lattice directions whose projections are interior to the projected
    anti-nef cone, smallest first.

    Only the kept coordinates of the direction matter, and any integer
    vector is a lattice cycle, so candidates are roundings of the projected
    dual sum at a few scales, each certified interior exactly.  Different
    directions align differently with the generator entries, so a
    quasi-period that defeats one ray can be invisible along another.
    """
    proj = [tuple(dual.coeff(p) for p in positions) for dual in graph.duals]
    y0 = [sum(col) for col in zip(*proj)]
    peak = max(y0)
    seen = set()
    dirs = []
    for scale in (2, 3, 5, 8, 12):
        y = tuple(max(1, round(scale * c / peak)) for c in y0)
        if y in seen:
            continue
        seen.add(y)
        if _interior_certified(proj, y):
            coords = [0] * graph.n
            for i, p in enumerate(positions):
                coords[p] = y[i]
            dirs.append(RationalCycle(tuple(coords)))
    w1 = strict_interior_cycle(graph)
    if tuple(w1.coeff(p) for p in positions) not in seen:
        dirs.append(w1)
    if not dirs:
        dirs.append(w1)
    return tuple(dirs[:4])


def fitted_qp_value(graph: ResolutionGraph, spec: ZetaSpec,
                    residue: tuple[int, ...], positions: Sequence[int],
                    base: RationalCycle, fit: FitConfig = FitConfig(),
                    modified: bool = False) -> int:
    """Ray-fitted quasi-polynomial value with direction retry.

    The modified variant is assembled from plain fits over the nonempty
    variable subsets, so each subset picks its own ray: the
    inclusion-exclusion relation between the two counting functions holds
    identically at the quasi-polynomial level, and the subsetwise fits are
    far more stable because the deeper periodic parts of the modified
    function cancel in the alternating sum.
    """
    pos = tuple(sorted(positions))
    if modified:
        return sum(sign * fitted_qp_value(graph, spec, residue, sub, base, fit)
                   for sign, sub in _signed_subsets(pos))
    cause = "no ray direction"
    for direction in _graph_cached(graph, "directions", pos, _ray_directions):
        try:
            return quasipoly_value(spec, residue, pos, base, direction, fit)
        except StabilizationError as exc:
            # keep the message only: a kept exception references this frame
            # through its traceback, and the cycle holds every spec and table
            # of the failed fits until the cyclic collector runs
            cause = str(exc)
    raise StabilizationError(cause)


def sw_norm(graph: ResolutionGraph, h: tuple[int, ...]) -> int:
    """Normalised Seiberg-Witten invariant of the link for one class.

    Probes the counting function at two depths inside the cone shifted by the
    canonical cycle; the two stabilised values must agree.
    """
    cache = _SW_CACHE.setdefault(graph, {})
    if h in cache:
        return cache[h]
    group = graph.group
    r = group.frac_rep(h)
    zk = graph.canonical
    spec = plain_zeta(graph)
    allpos = tuple(range(graph.n))
    vals = []
    for margin in (1, 2):
        shift = zk + margin * graph.sum_duals
        probe = laufer_saturate(graph, r - shift) + shift
        q = counting_Q(spec, graph.residue(probe), allpos, probe)
        vals.append(_integral(q - chi(graph, probe) + chi(graph, r), "SW probe value"))
    if vals[0] != vals[1]:
        raise StabilizationError(
            f"normalised SW probe did not stabilise: margins (1, 2) gave {vals}")
    cache[h] = vals[0]
    return vals[0]


def counting_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                       positions: Sequence[int], lbar: RationalCycle) -> int:
    """Closed-form value of the reduced counting quasi-polynomial at a
    lattice argument.

    In the full variable set the quasi-polynomial is the chi quadratic plus
    the normalised SW constant.  The tree-surgery identity transfers that to
    a variable subset: subtract the same closed form on each subtree of the
    complement, at the projected argument and its own class.  Serves as an
    exact cross-oracle for the ray fitter.
    """
    if not lbar.is_integral:
        raise ValueError("quasi-polynomial argument must be a lattice cycle")
    group = graph.group
    rg = group.frac_rep(g)
    point = rg + lbar
    total = chi(graph, point) - chi(graph, rg) + sw_norm(graph, g)
    keep_ids = tuple(graph.ids[p] for p in sorted(positions))
    for piece in _graph_cached(graph, "components", keep_ids, subgraph_components):
        sub = piece.graph
        y = piece.project(point)
        gk = sub.group.class_of(y)
        rk = sub.group.frac_rep(gk)
        total -= chi(sub, y) - chi(sub, rk) + sw_norm(sub, gk)
    return _integral(total, "closed quasi-polynomial value")


def modified_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                       positions: Sequence[int], lbar: RationalCycle) -> int:
    """Closed-form value of the reduced modified-counting quasi-polynomial,
    by inverting the inclusion-exclusion relation subsetwise."""
    return sum(sign * counting_qp_closed(graph, g, sub, lbar)
               for sign, sub in _signed_subsets(sorted(positions)))


def _twist_data(graph: ResolutionGraph, spec: ZetaSpec,
                h: tuple[int, ...]) -> tuple[tuple[int, ...], RationalCycle]:
    """Class and base point for periodic constants of a possibly twisted part.

    For twist l0 of class h0, the h-part of the twisted series is the
    (h - h0)-part of the plain series shifted by l0; its quasi-polynomial is
    the plain one evaluated with base r_h - l0.
    """
    group = graph.group
    if spec.twist is None:
        g = h
        base = group.frac_rep(h)
    else:
        tw = RationalCycle(spec.twist, spec.den)
        g = group.sub(h, group.class_of(tw))
        base = group.frac_rep(h) - tw
    lbar = base - group.frac_rep(g)
    if not lbar.is_integral:
        raise InternalCheckError("twisted base does not differ from r_g by a lattice cycle")
    return g, base


def periodic_constant_full(graph: ResolutionGraph, spec: ZetaSpec,
                           h: tuple[int, ...]) -> int:
    """Periodic constant of one class part in all variables.

    In the full variable set the counting quasi-polynomial is the closed
    quadratic chi form plus the normalised SW constant, so no fitting is
    needed; the untwisted case collapses to the SW constant itself.
    """
    group = graph.group
    g, base = _twist_data(graph, spec, h)
    rg = group.frac_rep(g)
    return _integral(chi(graph, base) - chi(graph, rg) + sw_norm(graph, g),
                     "full periodic constant")


def periodic_constant_reduced(graph: ResolutionGraph, spec: ZetaSpec,
                              h: tuple[int, ...], positions: Sequence[int],
                              fit: FitConfig = FitConfig(),
                              modified: bool = False) -> int:
    """Periodic constant of one class part reduced to a variable subset,
    via the two-stride ray fit."""
    g, base = _twist_data(graph, spec, h)
    return fitted_qp_value(graph, spec.untwisted(),
                           graph.residue(graph.group.frac_rep(g)),
                           tuple(positions), base, fit, modified)


# ---------------------------------------------------------------------------
# structural checks

def verify_symmetry(graph: ResolutionGraph) -> bool:
    """Functional-equation check for the zeta factorisation.

    Substituting 1/t into the factor product and clearing denominators
    multiplies by the monomial of exponent sum((val - 2) E*) and the sign
    (-1)**sum(val - 2); the product is symmetric exactly when that exponent
    is the canonical cycle minus the unit cycle and the sign is even.
    """
    total_power = sum(v - 2 for v in graph.valences)
    shift = zero_cycle(graph.n)
    for i in range(graph.n):
        shift = shift + (graph.valences[i] - 2) * graph.duals[i]
    return total_power % 2 == 0 and shift == graph.canonical - graph.unit_cycle


@dataclass(frozen=True)
class SurgeryReport:
    """Both sides of the tree-surgery identity for counting functions."""

    x: RationalCycle
    removed_ids: tuple[int, ...]
    full: int
    reduced: int
    corrections: tuple[int, ...]
    residual: int

    @property
    def passed(self) -> bool:
        return self.residual == 0


def surgery_check(graph: ResolutionGraph, keep_ids: Sequence[int],
                  x: RationalCycle) -> SurgeryReport:
    """Compare the full counting function at x against its reduction to
    ``keep_ids`` plus the counting functions of the complementary subtrees
    at the projected arguments."""
    keep = sorted(keep_ids)
    spec = plain_zeta(graph)
    res = graph.residue(x)
    allpos = tuple(range(graph.n))
    pos = tuple(graph.index[v] for v in keep)
    full = counting_Q(spec, res, allpos, x)
    reduced = counting_Q(spec, res, pos, x)
    corrections = []
    removed = tuple(v for v in graph.ids if v not in set(keep))
    for piece in subgraph_components(graph, keep):
        xk = piece.project(x)
        sub = piece.graph
        corrections.append(counting_Q(plain_zeta(sub), sub.residue(xk),
                                      tuple(range(sub.n)), xk))
    residual = full - reduced - sum(corrections)
    return SurgeryReport(x=x, removed_ids=removed, full=full, reduced=reduced,
                         corrections=tuple(corrections), residual=residual)
