"""Counting functions of zeta expansions and their periodic constants.

Two sums over the support of a class part are needed: the counting function
(exponents not dominating the test cycle on a variable subset) and the
modified one (exponents strictly below it on every chosen coordinate).  Both
reduce, through inclusion-exclusion, to box-bounded sums, which are computed
from a sparse dynamic-programming table of denominator-exponent sums keyed by
the projected coordinates and the residue class mod the integral lattice.
Tables grow monotonically and are cached per spec, so a ray of evaluations
costs one table build plus cheap scans.

Periodic constants are read off by sampling the counting function along a
ray interior to the Lipman cone, stabilising a Newton difference table on
the deep tail, and extrapolating the fitted polynomial back to the ray base.
Two strides must stabilise and agree before a value is accepted.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as _np

from .cycles import RationalCycle, zero_cycle
from .graphs import ResolutionGraph, chi, laufer_saturate, strict_interior_cycle, subgraph_components
from .series import ZetaSpec, build_zeta
from .snf import fraction_inverse


class StabilizationError(ArithmeticError):
    """A probe or difference-table fit failed to settle."""


class _TableBudgetExceeded(Exception):
    """Internal: a partition table grew past the configured cap."""


# ---------------------------------------------------------------------------
# partition tables

_TABLES: "weakref.WeakKeyDictionary[ZetaSpec, dict]" = weakref.WeakKeyDictionary()
_FAILED: "weakref.WeakKeyDictionary[ZetaSpec, dict]" = weakref.WeakKeyDictionary()
_PLAIN: "weakref.WeakKeyDictionary[ResolutionGraph, ZetaSpec]" = weakref.WeakKeyDictionary()

TABLE_STATE_CAP = 1_800_000

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
                raise _TableBudgetExceeded(len(cells))
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


def _bucketise(states: dict) -> dict:
    """Group table states by residue: residue -> (projection matrix, counts),
    as integer arrays for vectorised box queries."""
    grouped: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for (y, rho), count in states.items():
        grouped.setdefault(rho, []).append((y, count))
    buckets = {}
    for rho, items in grouped.items():
        ys = _np.array([y for y, _ in items], dtype=_np.int64).reshape(len(items), -1)
        cs = _np.array([c for _, c in items], dtype=_np.int64)
        buckets[rho] = (ys, cs)
    return buckets


def _estimate_cells(spec: ZetaSpec, positions: tuple[int, ...],
                    bounds: tuple[int, ...]) -> int:
    """Cheap upper-estimate of the state count: the residue-weighted grid
    bound against the multiset bound with a simplex correction."""
    from math import factorial
    from math import gcd
    grid = spec.den
    for i, b in enumerate(bounds):
        g = 0
        for gen in spec.dens:
            g = gcd(g, gen[positions[i]])
        grid *= max(1, b // max(1, g))
        if grid > 64 * TABLE_STATE_CAP:
            break
    box = 1
    for gen in spec.dens:
        ranges = [(b + gen[p] - 1) // gen[p] for p, b in zip(positions, bounds)]
        box *= max(1, min(ranges))
        if box > 5000 * TABLE_STATE_CAP:
            break
    simplex = box // max(1, factorial(len(spec.dens))) + 1
    return min(grid, simplex)


def _table_for(spec: ZetaSpec, positions: tuple[int, ...],
               bounds: tuple[int, ...]) -> dict:
    per_spec = _TABLES.setdefault(spec, {})
    entry = per_spec.get(positions)
    if entry is not None:
        stored_bounds, stored = entry
        if all(a <= b for a, b in zip(bounds, stored_bounds)):
            return stored
        bounds = tuple(max(a, b) for a, b in zip(bounds, stored_bounds))
    failed = _FAILED.setdefault(spec, {})
    known_bad = failed.get(positions)
    if known_bad is not None and all(a >= b for a, b in zip(bounds, known_bad)):
        raise _TableBudgetExceeded(bounds)
    if _estimate_cells(spec, positions, bounds) > (5 * TABLE_STATE_CAP) // 4:
        failed[positions] = bounds
        raise _TableBudgetExceeded(bounds)
    try:
        table = _bucketise(_build_table(spec, positions, bounds))
    except _TableBudgetExceeded:
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
    except _TableBudgetExceeded:
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
    assert all(ss[p] > 0 for p in positions), "ray step must increase every kept coordinate"
    bounds = []
    for i, p in enumerate(positions):
        worst = max(bs[p] - b[p] for _, b in spec.num)
        bounds.append(max(0, worst + nk * ss[p]))
    try:
        table = _table_for(spec, positions, tuple(bounds))
    except _TableBudgetExceeded:
        if len(spec.dens) != 2:
            raise
        out = []
        for k in range(1, nk + 1):
            xk = tuple(b + k * s for b, s in zip(bs, ss))
            out.append(_q_two_gens(spec, residue, positions, xk))
        return out
    hist = _np.zeros(nk + 2, dtype=_np.int64)
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
    from math import gcd, lcm
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
                      max_period: int) -> list[int]:
    """Periods read off the sampled ray itself: the smallest tail period of
    each difference row.  Complements the entry analysis, which only bounds
    periods from above and misses interactions."""
    found = set()
    row = list(vals)
    for _ in range(deg_cap + 1):
        n = len(row)
        for rho in range(2, max_period + 1):
            if n < 2 * rho:
                break
            span = min(n - rho, 3 * rho)
            if all(row[-i] == row[-i - rho] for i in range(1, span + 1)):
                found.add(rho)
                break
        if len(row) < 2:
            break
        row = [b - a for a, b in zip(row, row[1:])]
    return sorted(found)


def _poly_eval(ks: Sequence[int], vals: Sequence[int], at: int) -> Fraction:
    total = Fraction(0)
    for i, (ki, vi) in enumerate(zip(ks, vals)):
        w = Fraction(1)
        for j, kj in enumerate(ks):
            if j != i:
                w *= Fraction(at - kj, ki - kj)
        total += vi * w
    return total


def _stabilised_extrapolation(ks: Sequence[int], vals: Sequence[int],
                              deg_cap: int) -> int | None:
    """Extrapolate to zero once the Newton difference tail is constant.

    A constant window of differences is necessary but not sufficient: small
    periodic blips with longer periods can hide inside it.  The fitted
    polynomial must therefore back-predict a long stretch of the sampled
    tail exactly before its value at zero is trusted.
    """
    row = list(vals)
    for deg in range(0, deg_cap + 1):
        if len(row) >= FIT_WINDOW and len(set(row[-FIT_WINDOW:])) == 1:
            pts = vals[-(deg + 1):]
            kpts = ks[-(deg + 1):]
            if len(pts) < deg + 1:
                return None
            check = min(len(vals), max(2 * (deg + 2), 10))
            for k, v in zip(ks[-check:], vals[-check:]):
                if _poly_eval(kpts, pts, k) != v:
                    return None
            val = _poly_eval(kpts, pts, 0)
            if val.denominator != 1:
                return None
            return int(val)
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
    substrides or a deeper ray; a ray is only deepened while its tables stay
    affordable, and nothing is ever guessed.
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
        except _TableBudgetExceeded:
            break  # a deeper ray would only grow the tables further
        top = min(fit.max_substride, depth // (2 * (FIT_WINDOW + 1)))
        sweep = list(range(1, top + 1))
        sweep += [a for a in specials if a > top]
        sweep += [a for a in _detected_periods(vals, deg_cap, depth // 2)
                  if a > top and a not in sweep]
        for a in sorted(set(sweep)):
            if 2 * a * (FIT_WINDOW + 1) > depth:
                # not enough samples yet; queue a deeper ray for this period
                need = 2 * a * (FIT_WINDOW + 2)
                if need <= MAX_RAY_DEPTH and need not in depths:
                    depths = sorted(set(depths) | {need})
                continue
            ks1 = list(range(a, depth + 1, a))
            ks2 = list(range(2 * a, depth + 1, 2 * a))
            v1 = _stabilised_extrapolation(ks1, [vals[k - 1] for k in ks1], deg_cap)
            if v1 is None:
                continue
            v2 = _stabilised_extrapolation(ks2, [vals[k - 1] for k in ks2], deg_cap)
            if v2 is not None and v1 == v2:
                return v1
    raise StabilizationError(
        f"counting function did not stabilise along the ray (positions {pos})")


_SW_CACHE: "weakref.WeakKeyDictionary[ResolutionGraph, dict]" = weakref.WeakKeyDictionary()
_PIECES: "weakref.WeakKeyDictionary[ResolutionGraph, dict]" = weakref.WeakKeyDictionary()


def _components_cached(graph: ResolutionGraph, keep_ids: tuple[int, ...]):
    cache = _PIECES.setdefault(graph, {})
    if keep_ids not in cache:
        cache[keep_ids] = subgraph_components(graph, keep_ids)
    return cache[keep_ids]


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
                    positions: tuple[int, ...]) -> list[RationalCycle]:
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
    return dirs[:4]


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
    last: StabilizationError | None = None
    for direction in _ray_directions(graph, pos):
        try:
            return quasipoly_value(spec, residue, pos, base, direction, fit)
        except StabilizationError as exc:
            last = exc
    raise last if last is not None else StabilizationError("no ray direction")


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
        val = q - chi(graph, probe) + chi(graph, r)
        assert val.denominator == 1
        vals.append(int(val))
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
    for piece in _components_cached(graph, keep_ids):
        sub = piece.graph
        y = piece.project(point)
        gk = sub.group.class_of(y)
        rk = sub.group.frac_rep(gk)
        total -= chi(sub, y) - chi(sub, rk) + sw_norm(sub, gk)
    assert total.denominator == 1
    return int(total)


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
    assert lbar.is_integral, "twisted base does not differ from r_g by a lattice cycle"
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
    val = chi(graph, base) - chi(graph, rg) + sw_norm(graph, g)
    assert val.denominator == 1
    return int(val)


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
