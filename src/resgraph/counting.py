"""Counting functions of zeta expansions and their periodic constants.

Two sums over the support of a class part are needed: the counting function
(exponents not dominating the test cycle on a variable subset) and the
modified one (exponents strictly below it on every chosen coordinate).  With
three or more generators both reduce, through inclusion-exclusion, to
box-bounded sums, which are computed from a dynamic-programming table of
denominator-exponent sums keyed by the projected coordinates and the residue
class mod the integral lattice.  Tables are cached per spec and only grow.
A first build covers exactly the box asked for, and a box beyond the cached
one grows the table to the exact union of both.

A spec with exactly two generators (a chain) needs no table: the
multiplicity pairs of the wanted residue are a coset of a rank-2 lattice
read off a Smith normal form, and the pairs of that coset under the lower
envelope of the positions' lines (the modified count) or under their upper
envelope (the counting function, with no inclusion-exclusion) are counted in
closed form by floor sums, with work bounded independently of den and of the
box.

Everything cached lives in one store, one dict of entries per owner: a spec
keeps its tables, budget refusals, Smith normal form, residue group and
two-generator lattice and cosets, a graph its plain and twisted specs, SW
invariants, subgraph components and surgery closed values.  Owners are
held weakly and matched by equality, so an equal owner is served the
entries of the first one stored, which live as long as that first owner
does.  No entry refers back to its owner, so an owner and its entries are
freed together.

A table is built as residue -> (coordinates, counts) arrays, on the kept
coordinates divided by their generator gcds and on the digits of the
residue class in the subgroup the generators span, read off a Smith normal
form.  Only the reachable cells are kept, as sorted packed int64 keys, and
each generator is added by binary doubling.  Counts are Python ints instead
of int64 once a sum over the table could overflow.

Every periodic constant goes through ``periodic_constant_reduced``, and
every route is exact.  The plain zeta function (twisted or not) has a closed
one on any variable subset: chi quadratic plus normalised SW invariant in
all variables, less the same closed form on each subtree of the complement
(the surgery formula, Braun-Nemethi, J. reine angew. Math. 638, 2010).  A
relative series reduced to its two or more marked vertices is a polynomial,
so its constant is one count past the polynomial's degree bound.  Reduced
to one vertex, its class part N / D has the constant P(1) of N = P D + M
(Laszlo-Nemethi, Geom. Topol. 2014).  With two generators that is the value
at 0 of the quadratic through closed counts at three multiples of the
period past the degree bound, and a fourth count must lie on it.  Otherwise
N / D is divided exactly: the class part's coefficients along the vertex
are read off one table, whose one box serves every class, and the division
runs over the at most 2^r nonzero terms of D = prod_i (1 - v^{e_i}), whose
degree can reach thousands.

The normalised SW invariant is the periodic constant of a class part in all
variables, and it survives reduction to the node variables (same
reference), or to any one vertex of a chain, which has no node.  On a chain
it is therefore the two-generator constant at vertex 0, and on a
star-shaped tree, with exactly one node, the one-variable division at the
node.  Where the budget refuses that node table (asked once per graph), and
on trees with two or more nodes, it is read off two full-variable counts at
two margins inside the canonically shifted cone, which must agree.
"""

from __future__ import annotations

import inspect
import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce, wraps
from math import factorial, gcd, lcm, prod
from typing import Sequence

import numpy as _np

from .cycles import RationalCycle
from .graphs import (InternalCheckError, ResolutionGraph, SubgraphComponent, chi,
                     laufer_saturate, subgraph_components)
from .series import TABLE_STATE_CAP, TableBudgetExceeded, ZetaSpec, build_zeta
from .snf import smith_normal_form, unimodular_inverse


class StabilizationError(ArithmeticError):
    """The two margins of an SW probe disagree."""


def _integral(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise InternalCheckError(f"{what} is not an integer: {val}")
    return int(val)


# ---------------------------------------------------------------------------
# the cache store

# owner -> {("table", positions): (bounds, buckets), ("refused", positions):
# smallest refused box, (function name, *key): value of a memoised function,
# such as a graph's ("_counting_qp_closed", class, positions, lbar)}
_STORE = weakref.WeakKeyDictionary()


def _entries(owner) -> dict:
    """The owner's entries, an empty dict stored on the first call."""
    entries = _STORE.get(owner)
    if entries is None:
        entries = _STORE[owner] = {}
    return entries


def _memo(fn):
    """Cache ``fn(owner, *key)`` among the owner's entries under the
    function's name; a call that raises stores nothing."""
    bind = inspect.signature(fn).bind

    @wraps(fn)
    def cached(*args, **kwargs):
        if kwargs:  # a keyword call shares the entry of the positional one
            args = bind(*args, **kwargs).args
        entries = _entries(args[0])
        tag = (fn.__name__, *args[1:])
        if tag not in entries:
            entries[tag] = fn(*args)
        return entries[tag]
    return cached


# ---------------------------------------------------------------------------
# partition tables

@_memo
def plain_zeta(graph: ResolutionGraph) -> ZetaSpec:
    return build_zeta(graph)


@_memo
def twisted_zeta(graph: ResolutionGraph, twist: RationalCycle) -> ZetaSpec:
    """The zeta spec twisted by a nonzero ``twist``, built once per graph
    and twist."""
    return build_zeta(graph, twist=twist)


@_memo
def _generator_snf(spec: ZetaSpec) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form ``U @ M @ V = diag(d_j)`` of the matrix M of
    generator columns mod den (spec with generators only)."""
    return smith_normal_form([[gen[i] % spec.den for gen in spec.dens]
                              for i in range(spec.nvars)])


@_memo
def _residue_group(spec: ZetaSpec) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The residues mod den that sums of generators reach, as a product of
    cyclic groups Z/e_j with every e_j > 1: the orders e_j, per generator its
    digits in that product, and per digit the residue of its unit.

    With ``U @ M @ V = diag(d_j)`` for the matrix M of generator columns mod
    den, a multiset with multiplicities c has residue zero exactly when every
    ``(V^-1 c)_j`` is a multiple of ``e_j = den / gcd(den, d_j)``, and digit
    j's unit has residue ``M @ V[:, j] = d_j U^-1[:, j]``.  Nothing is
    enumerated, so the cost does not grow with the group order."""
    d = spec.den
    orders: list[int] = []
    digits: list[list[int]] = [[] for _ in spec.dens]
    units: list[list[int]] = []
    if spec.dens:
        diag, _, v = _generator_snf(spec)
        v_inv = unimodular_inverse(v)
        for j, dj in enumerate(diag):
            e = d // gcd(d, dj)
            if e > 1:
                orders.append(e)
                for i, dig in enumerate(digits):
                    dig.append(v_inv[j][i] % e)
                units.append([sum(gen[i] * row[j] for gen, row in zip(spec.dens, v)) % d
                              for i in range(spec.nvars)])
    return orders, digits, units


def _multiset_bound(spec: ZetaSpec, positions: tuple[int, ...],
                    bounds: tuple[int, ...]) -> int:
    """How many multisets of generators fit in the box if each generator is
    capped separately; it bounds every count of the table."""
    most = 1
    for gen in spec.dens:
        most *= 1 + min((b - 1) // gen[p] for p, b in zip(positions, bounds))
    return most


def _wide(spec: ZetaSpec, total: int) -> bool:
    """Whether a table holding ``total`` multisets keeps Python-int counts: a
    count sums at most ``total`` of them, and ``sum |coeff| * total`` bounds
    that sum weighted by the numerator, conservatively."""
    return sum(abs(c) for c, _ in spec.num) * total >= 2 ** 63


def _reduced_shape(spec: ZetaSpec, positions: tuple[int, ...],
                   bounds: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Per kept coordinate, the gcd g_p of the generator entries there (every
    reachable y_p is a multiple of it; 1 without generators) and the count
    ceil(b_p / g_p) of those multiples below the bound."""
    gs = [reduce(gcd, (gen[p] for gen in spec.dens), 0) or 1 for p in positions]
    return gs, tuple(-(-b // g) for b, g in zip(bounds, gs))


def _build_sparse(spec: ZetaSpec, positions: tuple[int, ...],
                  bounds: tuple[int, ...]) -> dict:
    """Buckets ``residue -> (coordinates, counts)`` of the table of
    denominator-exponent sums: per residue class mod den and projected point
    strictly inside the box, the number of multisets of generators realising
    it.  Every generator has strictly positive projected coordinates, so the
    table is finite.

    The cells are kept as sorted arrays.  A cell packs the digits of its
    class (as in ``_residue_group``) and its coordinates divided by the
    generator gcds into one int64 key, class first, so sorted keys come
    grouped by class.  Each generator is a binary-doubling knapsack:
    multiplying by (1 + t^(h g)) for h = 1, 2, 4, ... shifts every cell with
    room for h more copies, appends the shifted cells and merges equal keys.
    Where the packed range would reach 2**63, every digit keeps its own
    column and the merge sorts rows with ``lexsort``.  The cell count only
    grows, so the budget is checked after each merge.
    """
    if any(b <= 0 for b in bounds):
        return {}
    orders, gen_digits, units = _residue_group(spec)
    gs, shape = _reduced_shape(spec, positions, bounds)
    r = len(orders)  # digits 0..r-1 are the class, r.. the coordinates
    radices = tuple(orders) + shape
    if prod(radices) < 2 ** 63:  # one column, digit i at stride prod(radices[i+1:])
        column = [0] * len(radices)
        stride = [prod(radices[i + 1:]) for i in range(len(radices))]
    else:
        column = list(range(len(radices)))
        stride = [1] * len(radices)
    cols = [_np.zeros(1, dtype=_np.int64) for _ in range(column[-1] + 1)]
    counts = _np.ones(1, dtype=_np.int64 if _multiset_bound(spec, positions, bounds)
                      < 2 ** 63 else object)

    def digit(cols: list[_np.ndarray], i: int) -> _np.ndarray:
        val = cols[column[i]] // stride[i]  # the top digit of a column is exact
        return val if i == 0 or column[i] != column[i - 1] else val % radices[i]

    for gen, dig in zip(spec.dens, gen_digits):
        s = [gen[p] // g for p, g in zip(positions, gs)]
        room = reduce(_np.minimum, ((n - 1 - digit(cols, r + i)) // a
                                    for i, (a, n) in enumerate(zip(s, shape))))
        step = [0] * len(cols)  # the key shift of one copy's coordinates, per column
        for i, a in enumerate(s, r):
            step[column[i]] += a * stride[i]
        h = 1
        top = int(room.max())
        while h <= top:
            fits = room >= h
            moved = [c[fits] for c in cols]
            shift = [h * x for x in step]
            for j, (a, e) in enumerate(zip(dig, orders)):
                sh = h * a % e
                if sh:  # class digit j moves up by sh, less e where that passes e
                    moved[column[j]] -= (digit(moved, j) >= e - sh) * (e * stride[j])
                    shift[column[j]] += sh * stride[j]
            for c, k in enumerate(shift):
                moved[c] += k
            cols = [_np.concatenate(pair) for pair in zip(cols, moved)]
            if len(cols) == 1:
                order = cols[0].argsort(kind="stable")
            else:
                order = _np.lexsort(cols[::-1])
            cols = [c[order] for c in cols]
            fresh = _np.empty(len(order), dtype=bool)
            fresh[0] = True
            _np.not_equal(cols[0][1:], cols[0][:-1], out=fresh[1:])
            for c in cols[1:]:
                fresh[1:] |= c[1:] != c[:-1]
            first = fresh.nonzero()[0]
            if len(first) > TABLE_STATE_CAP:
                raise TableBudgetExceeded(len(first))
            counts = _np.add.reduceat(_np.concatenate((counts, counts[fits]))[order], first)
            room = _np.concatenate((room, room[fits] - h))[order[first]]
            cols = [c[first] for c in cols]
            h *= 2
    dtype = object if _wide(spec, int(counts.sum())) else _np.int64
    counts = counts.astype(dtype, copy=False)
    ys = _np.stack([digit(cols, i) for i in range(r, len(radices))], axis=1) \
        * _np.asarray(gs, dtype=_np.int64)
    cls = [digit(cols, j) for j in range(r)]
    new_class = _np.zeros(len(counts) - 1, dtype=bool)
    for c in cls:
        new_class |= c[1:] != c[:-1]
    cuts = (new_class.nonzero()[0] + 1).tolist()
    starts = [0, *cuts]
    residues = _np.zeros((len(starts), spec.nvars), dtype=object)
    for c, unit in zip(cls, units):  # Python ints: den * order may pass int64
        residues += _np.outer(c[starts].astype(object), _np.array(unit, dtype=object))
    buckets = {}
    for a, b, rho in zip(starts, [*cuts, len(counts)], (residues % spec.den).tolist()):
        buckets[tuple(rho)] = (ys[a:b], counts[a:b])
    return buckets


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
    box = 1
    for gen in spec.dens:
        ranges = [(b + gen[p] - 1) // gen[p] for p, b in zip(positions, bounds)]
        box *= max(1, min(ranges))
        if box > 5000 * TABLE_STATE_CAP:
            break
    return min(grid, box // max(1, factorial(len(spec.dens))) + 1)


def _table_for(spec: ZetaSpec, positions: tuple[int, ...],
               bounds: tuple[int, ...]) -> dict:
    """Cached buckets covering the box.

    A first build covers exactly the box asked for, and a box beyond the
    stored one rebuilds the table to exactly the union of both.  A box that
    contains a refused one is refused with no build; otherwise an estimate
    over the budget, or a build that runs over it, refuses the box and
    records it."""
    entries = _entries(spec)
    entry = entries.get(("table", positions))
    if entry is not None:
        stored_bounds, stored = entry
        if all(a <= b for a, b in zip(bounds, stored_bounds)):
            return stored
        bounds = tuple(max(a, b) for a, b in zip(bounds, stored_bounds))
    known_bad = entries.get(("refused", positions))
    if known_bad is not None and all(a >= b for a, b in zip(bounds, known_bad)):
        raise TableBudgetExceeded(bounds)
    try:
        if _estimate_cells(spec, positions, bounds) > (5 * TABLE_STATE_CAP) // 4:
            raise TableBudgetExceeded(bounds)
        table = _build_sparse(spec, positions, bounds)
    except TableBudgetExceeded:
        entries["refused", positions] = bounds
        raise
    entries["table", positions] = (bounds, table)
    return table


def _untwist(spec: ZetaSpec, residue: tuple[int, ...],
             x: RationalCycle) -> tuple[ZetaSpec, tuple[int, ...], RationalCycle]:
    if spec.twist is None:
        return spec, tuple(residue), x
    d = spec.den
    tw = RationalCycle(spec.twist, d)
    res = tuple((a - b) % d for a, b in zip(residue, spec.twist))
    return spec.untwisted(), res, x - tw


# ---------------------------------------------------------------------------
# two generators: closed counts by floor sums

def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a*i + b) / m) for i in range(n))`` for m > 0 and any signs
    of a and b, in O(log m) steps: reduce a and b mod m, then swap the roles
    of m and a (Graham-Knuth-Patashnik, *Concrete Mathematics* 3.5; the
    AtCoder Library's ``floor_sum``)."""
    total = 0
    while n > 0:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """``(g, u, v)`` with ``u*x + v*y = g = gcd(x, y) >= 0``."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        k, r = divmod(x, y)
        x, y = y, r
        u0, v0, u1, v1 = u1, v1, u0 - k * u1, v0 - k * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


@_memo
def _two_gen_lattice(spec: ZetaSpec) -> tuple[int, int, int]:
    """Hermite basis ``{(p, 0), (q, s)}``, with 0 <= q < p, of the lattice of
    multiplicity pairs (c1, c2) whose combination c1 A + c2 B of the two
    generators is zero mod den.  By the Smith normal form it is spanned by
    the columns ``e_j V[:, j]``, with ``e_j = den / gcd(den, d_j)`` (1 for a
    column beyond the diagonal); it contains den Z^2."""
    d = spec.den
    diag, _, v = _generator_snf(spec)
    es = [d // gcd(d, dj) for dj in diag] + [1] * (2 - len(diag))
    (x1, x2), (y1, y2) = [[e * v[i][j] for j, e in enumerate(es)] for i in range(2)]
    s, f1, f2 = _ext_gcd(y1, y2)
    p = abs(x1 * y2 - x2 * y1) // s
    return p, (f1 * x1 + f2 * x2) % p, s


@_memo
def _two_gen_coset(spec: ZetaSpec,
                   need: tuple[int, ...]) -> tuple[int, int, int, int, int] | None:
    """The pairs with c1 A + c2 B = need mod den, as ``(p, q, s, r, c)``:
    they are ``(r + q*j + p*n, c + s*j)`` over all integers j, n, with the
    Hermite basis of ``_two_gen_lattice`` and ``0 <= c < s``; None if there
    are none.

    With z = V^-1 (c1, c2), the congruence reads ``d_j z_j = (U need)_j`` mod
    den on the diagonal and ``(U need)_j = 0`` mod den on any row below it."""
    d = spec.den
    diag, u, v = _generator_snf(spec)
    p, q, s = _two_gen_lattice(spec)
    z = [0, 0]
    for j, row in enumerate(u):
        rhs = sum(a * b for a, b in zip(row, need)) % d
        dj = diag[j] if j < len(diag) else 0
        g = gcd(d, dj)
        if rhs % g:
            return None
        if g < d:
            z[j] = rhs // g * pow(dj // g, -1, d // g)
    c1, c2 = (v[i][0] * z[0] + v[i][1] * z[1] for i in range(2))
    shift = -(c2 // s)  # multiples of (q, s) that bring c2 into [0, s)
    return p, q, s, (c1 + shift * q) % p, c2 + shift * s


def _two_gen_count(spec: ZetaSpec, residue: tuple[int, ...], positions: tuple[int, ...],
                   xs: tuple[int, ...], union: bool) -> int:
    """Exact closed count for two geometric generators A and B.

    The pairs (c1, c2) >= 0 with the wanted residue and c1 A + c2 B strictly
    below the target on every position (on some position if ``union``) are a
    lattice coset cut by a box: with ``c2 = c + s*j``, c1 runs over a
    progression of step p whose offset is linear in j (``_two_gen_coset``)
    and up to ``F(j) = min_k floor((T_k - B_k j) / a_k)``, or the upper
    envelope ``max_k`` for the union.  That minimum or maximum of lines
    splits the range of j into at most one piece per position, at crossings
    found by cross-multiplication, and on each piece the count is a floor
    sum, since ``floor(floor(x/a)/p) = floor(x/(a p))``.  The work is bounded
    by the number of positions and logarithms of the entries; it grows
    neither with den nor with the box.
    """
    ga, gb = spec.dens
    d = spec.den
    envelope, sign = (max, -1) if union else (min, 1)
    total = 0
    for coeff, base in spec.num:
        t = {k: xs[k] - base[k] for k in positions}
        if union:  # a line with t <= 0 is negative for every j >= 0, never the largest
            t = {k: tk for k, tk in t.items() if tk > 0}
        if not t or min(t.values()) <= 0:
            continue
        coset = _two_gen_coset(spec, tuple((a - b) % d for a, b in zip(residue, base)))
        if coset is None:
            continue
        p, q, s, r, c = coset
        # F_k(j) = floor((T_k - B_k j) / a_k), the largest c1 the position allows
        lines = [(ga[k], gb[k] * s, tk - 1 - gb[k] * c) for k, tk in t.items()]
        top = envelope(tt // bb for _, bb, tt in lines)  # F(j) >= 0 exactly for j <= top
        if top < 0:
            continue
        # per j: floor((F(j) - r - q j) / p) + floor((r + q j) / p) + 1 values of c1
        count = top + 1 + _floor_sum(top + 1, p, q, r)
        for k, (a, bb, tt) in enumerate(lines):
            lo, hi = 0, top  # the j where line k is the first smallest (largest)
            for m, (a2, bb2, tt2) in enumerate(lines):
                if m == k:
                    continue
                # line k <= line m  <=>  j * dd <= nn (strictly below for m < k);
                # for the largest, line k >= line m flips both signs
                dd = sign * (bb2 * a - bb * a2)
                nn = sign * (tt2 * a - tt * a2) - (m < k)
                if dd > 0:
                    hi = min(hi, nn // dd)
                elif dd < 0:
                    lo = max(lo, -(nn // -dd))
                elif nn < 0:
                    hi = -1
            if lo <= hi:
                count += _floor_sum(hi - lo + 1, a * p, -(bb + a * q),
                                    tt - a * r - (bb + a * q) * lo)
        total += coeff * count
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
    the given class lying strictly below x on every chosen coordinate.  Two
    generators are counted in closed form, any other spec off its table."""
    if not positions:
        raise ValueError("variable subset must be nonempty")
    spec, residue, x = _untwist(spec, residue, x)
    pos = tuple(sorted(positions))
    d = spec.den
    xs = x.scaled(d)
    if len(spec.dens) == 2:
        return _two_gen_count(spec, residue, pos, xs, union=False)
    targets = []
    for coeff, base in spec.num:
        t = tuple(xs[p] - base[p] for p in pos)
        need = tuple((a - b) % d for a, b in zip(residue, base))
        targets.append((coeff, t, need))
    bounds = tuple(max(0, *(t[i] for _, t, _ in targets)) for i in range(len(pos)))
    if all(b <= 0 for b in bounds):
        return 0
    table = _table_for(spec, pos, bounds)
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
    class not dominating x on the chosen coordinates, that is, strictly below
    x on some chosen coordinate.  For two generators (a chain) it is one
    closed count of the coset pairs under the upper envelope of the
    positions' lines, untwisted as in ``counting_q``; for three or more it is
    assembled from the modified counting function by inclusion-exclusion."""
    if not positions:
        raise ValueError("variable subset must be nonempty")
    if len(spec.dens) == 2:
        spec, residue, x = _untwist(spec, residue, x)
        return _two_gen_count(spec, residue, tuple(sorted(positions)),
                              x.scaled(spec.den), union=True)
    return sum(sign * counting_q(spec, residue, sub, x)
               for sign, sub in _signed_subsets(sorted(positions)))


# ---------------------------------------------------------------------------
# exact periodic constants of relative series

def _degree_data(spec: ZetaSpec, p: int) -> tuple[int, list[int]]:
    """Degree data of every class part along coordinate p (scaled by den).

    With o_i = den / gcd(den, g_i) the order of generator i's residue, the
    class part is N_h / prod_i (1 - t^{o_i g_i}), and every monomial of N_h
    is a numerator shift b_j plus fewer than o_i copies of each g_i.  So N_h
    has no term past top_p = max_j b_j[p] + sum_i (o_i - 1) g_i[p].  Returns
    top_p and the denominator exponents o_i g_i[p] / den.
    """
    d = spec.den
    orders = [d // reduce(gcd, gen, d) for gen in spec.dens]
    top = max(b[p] for _, b in spec.num) + sum((o - 1) * gen[p]
                                               for o, gen in zip(orders, spec.dens))
    return top, [o * gen[p] // d for o, gen in zip(orders, spec.dens)]


def _step_bound(spec: ZetaSpec, p: int, base: tuple[int, ...]) -> tuple[int, list[int]]:
    """The degree bound B_p of a class part along p in whole steps from
    ``base`` (scaled by den), and the denominator exponents."""
    top, degs = _degree_data(spec, p)
    return (top - base[p]) // spec.den, degs


def _row_box(spec: ZetaSpec, p: int) -> int:
    """The one box along p whose table holds the coefficient row of every
    class part: the row from a base reaches B_p + deg D steps, so it ends
    below top_p + (deg D + 1) den, and a numerator shift b_j leaves the
    generators less than that minus b_j[p]."""
    top, degs = _degree_data(spec, p)
    return top + (sum(degs) + 1) * spec.den - min(b[p] for _, b in spec.num)


def quasipoly_value(spec: ZetaSpec, residue: tuple[int, ...],
                    positions: Sequence[int], base: RationalCycle) -> int:
    """Periodic constant of a class part whose reduction to ``positions`` is a
    polynomial: its coefficient sum, which is the counting function at any
    point past the polynomial's support.  A relative series reduced to
    exactly its two or more marked vertices is such a polynomial.

    The point is base + x with x_p two steps past the degree bound B_p of
    ``_step_bound``.  Polynomiality is the premise, so the count must not move
    one step further along any kept coordinate, and it must equal the division
    ``fitted_qp_value`` on each (a polynomial keeps its coefficient sum when
    variables are set to 1); otherwise ``InternalCheckError`` is raised.
    """
    pos = tuple(sorted(positions))
    bs = base.scaled(spec.den)
    steps = [_step_bound(spec, p, bs)[0] + 2 if p in pos else 0 for p in range(spec.nvars)]

    def count(shift: list[int]) -> int:
        return counting_Q(spec, residue, pos, base + RationalCycle(tuple(shift)))
    value = count(steps)
    for p in pos:
        if count([k + (i == p) for i, k in enumerate(steps)]) != value:
            raise InternalCheckError(
                f"reduced series is not a polynomial: the count moves past its "
                f"degree bound on coordinate {p}")
        if (constant := fitted_qp_value(spec, residue, p, base)) != value:
            raise InternalCheckError(
                f"reduced series is not a polynomial: its count {value} differs "
                f"from the one-variable constant {constant} on coordinate {p}")
    return value


def _class_row(spec: ZetaSpec, residue: tuple[int, ...], p: int, base: RationalCycle,
               lo: int, top: int) -> list[int]:
    """Coefficients a_m, m = lo .. top, of a class part along coordinate p:
    the coefficient sums over its exponents whose coordinate p lies m whole
    steps past the base's (an untwisted spec without exactly two generators).

    The one table of ``_row_box`` along p, shared by every class, is read
    once: every cell of a numerator term's class sits at a whole number of
    steps from the base, and its count, times the term's coefficient, is
    added there in Python ints."""
    d = spec.den
    bs = base.scaled(d)
    table = _table_for(spec, (p,), (_row_box(spec, p),))
    row = [0] * (top + 1 - lo)
    for coeff, b in spec.num:
        entry = table.get(tuple((x - y) % d for x, y in zip(residue, b)))
        if entry is None:
            continue
        ys, cs = entry
        steps, off = _np.divmod(ys[:, 0] + (b[p] - bs[p]), d)
        if off.any():
            raise InternalCheckError(
                f"class part along coordinate {p} has an exponent off the base's steps")
        keep = steps <= top
        for m, c in zip(steps[keep].tolist(), cs[keep].tolist()):
            row[m - lo] += coeff * c
    return row


def fitted_qp_value(spec: ZetaSpec, residue: tuple[int, ...], p: int,
                    base: RationalCycle) -> int:
    """Periodic constant of a class part reduced to the one coordinate p.

    In v, one step along p from the base, the class part is
    S = sum_m a_m v^m = N / D with D = prod_i (1 - v^{o_i g_i[p] / den}) and N
    a Laurent polynomial of degree at most B (``_step_bound``).  Dividing,
    N = P D + M with M's powers in [0, deg D); M / D has periodic constant
    zero, so the constant is P(1) (Laszlo-Nemethi, Geom. Topol. 2014).

    Two generators take four closed counts (``_two_gen_constant``) and build
    no table.  Any other spec reads the a_m up to B + deg D off one table
    along p (``_class_row``), forms N = S D there, and N must vanish on
    (B, B + deg D], else ``InternalCheckError`` is raised; then P is divided
    out.  P has negative powers where exponents lie below the base.  D has at
    most 2^r nonzero terms for r generators while deg D can reach thousands,
    so the product and both division loops run over D's nonzero terms only.
    The work grows with B and deg D, not with the period of the counting
    function.  The table is fetched before D is built, so a table refused by
    the budget raises ``TableBudgetExceeded`` at once.
    """
    spec, residue, base = _untwist(spec, residue, base)
    d = spec.den
    bs = base.scaled(d)
    bound, degs = _step_bound(spec, p, bs)
    if len(spec.dens) == 2:
        return _two_gen_constant(spec, residue, p, bs, bound, lcm(*degs))
    n = sum(degs)  # deg D
    lo = (min(b[p] for _, b in spec.num) - bs[p]) // d  # no exponent below
    s = min(lo, 0)  # the lists below start at power s
    coeffs = [0] * (lo - s) + _class_row(spec, residue, p, base, lo, bound + n)
    dpoly = {0: 1}
    for e in degs:  # times (1 - v^e)
        for k, c in list(dpoly.items()):
            dpoly[k + e] = dpoly.get(k + e, 0) - c
    dterms = [(k, c) for k, c in sorted(dpoly.items()) if c]
    num = [0] * len(coeffs)
    for k, dk in dterms:
        for i in range(k, len(coeffs)):
            num[i] += dk * coeffs[i - k]
    if any(num[bound + 1 - s:]):
        raise InternalCheckError(
            f"class part along coordinate {p} has a numerator term past its degree bound")
    num = num[:bound + 1 - s] + [0] * (n - 1 - bound)
    total = 0  # P(1), the sum of the quotient's coefficients
    for i in range(-s):  # negative powers, lowest first: D has constant term 1
        c = num[i]
        total += c
        for k, dk in dterms:
            num[i + k] -= c * dk
    lead = dterms[-1][1]  # D's leading coefficient is +-1
    for i in range(len(num) - 1, n - s - 1, -1):  # powers >= deg D, highest first
        c = num[i] * lead
        total += c
        for k, dk in dterms:
            num[i - n + k] -= c * dk
    return total


def _two_gen_constant(spec: ZetaSpec, residue: tuple[int, ...], p: int,
                      bs: tuple[int, ...], bound: int, period: int) -> int:
    """The constant of ``fitted_qp_value`` for two generators, from closed
    counts at the base ``bs`` (scaled by den).

    Past the degree bound B the counting function along p is a
    quasi-polynomial of degree at most 2 whose period divides Pi, the lcm of
    the two denominator exponents.  So at k = j Pi steps, for j >= j0 with
    j0 >= 1 and j0 Pi > B, it is one quadratic in j, and its value at j = 0
    is the constant P(1).  Three counts at j0, j0 + 1, j0 + 2 fix the
    quadratic, and Newton's forward form extrapolates it to 0 with integer
    weights; a fourth count at j0 + 3 must lie on it, else
    ``InternalCheckError`` is raised.  Each count is one ``_two_gen_count``,
    whose work does not grow with Pi."""
    j0 = max(bound, 0) // period + 1
    point = list(bs)
    ys = []
    for j in range(j0, j0 + 4):
        point[p] = bs[p] + j * period * spec.den
        ys.append(_two_gen_count(spec, residue, (p,), tuple(point), union=False))
    y0, y1, y2, y3 = ys
    if y3 - 3 * y2 + 3 * y1 - y0:
        raise InternalCheckError(
            f"two-generator counts along coordinate {p} are not quadratic in "
            f"steps of {period} past the degree bound: {ys}")
    return y0 - j0 * (y1 - y0) + j0 * (j0 + 1) // 2 * (y2 - 2 * y1 + y0)


@_memo
def _sw_vertex(graph: ResolutionGraph) -> int | None:
    """The vertex whose one-variable constant is the normalised SW invariant
    of every class, or None where the probe reads it.  A chain (its plain
    zeta function has two generators) takes vertex 0: its counts are closed
    and build no table.  A star-shaped tree (exactly one vertex of valence
    three or more) takes its node if the budget admits its node table, the
    one box of ``_row_box`` that every class reads.  Decided once per graph,
    so a refused node table costs a class nothing."""
    spec = plain_zeta(graph)
    if len(spec.dens) == 2:
        return 0
    nodes = [i for i, val in enumerate(graph.valences) if val >= 3]
    if len(nodes) != 1:
        return None
    try:
        _table_for(spec, (nodes[0],), (_row_box(spec, nodes[0]),))
    except TableBudgetExceeded:
        return None
    return nodes[0]


@_memo
def sw_norm(graph: ResolutionGraph, h: tuple[int, ...]) -> int:
    """Normalised Seiberg-Witten invariant of the link for one class.

    It is the periodic constant of the class part of the zeta function, and
    that constant survives reduction to the node variables (Laszlo-Nemethi,
    Geom. Topol. 2014); a chain has no node, and it survives reduction to
    any one vertex.  So on a chain it is the one-variable constant
    ``fitted_qp_value`` at r_h at vertex 0, four closed counts, and on a
    star-shaped tree the same constant at the node, read off the node table.
    Where that table is over the budget, and on trees with two or more
    nodes, it is the two-margin probe ``_sw_probe``.
    """
    vertex = _sw_vertex(graph)
    if vertex is None:
        return _sw_probe(graph, h)
    r = graph.group.frac_rep(h)
    return fitted_qp_value(plain_zeta(graph), graph.residue(r), vertex, r)


def _sw_probe(graph: ResolutionGraph, h: tuple[int, ...]) -> int:
    """The normalised SW invariant read off the counting function in all
    variables: probes at two depths inside the cone shifted by the canonical
    cycle, whose stabilised values must agree, else ``StabilizationError``.
    """
    group = graph.group
    r = group.frac_rep(h)
    zk = graph.canonical
    spec = plain_zeta(graph)
    allpos = tuple(range(graph.n))
    chi_r = chi(graph, r)
    vals = []
    for margin in (1, 2):
        shift = zk + margin * graph.sum_duals
        probe = laufer_saturate(graph, r - shift) + shift
        q = counting_Q(spec, graph.residue(probe), allpos, probe)
        vals.append(_integral(q - chi(graph, probe) + chi_r, "SW probe value"))
    if vals[0] != vals[1]:
        raise StabilizationError(
            f"normalised SW probe did not stabilise: margins (1, 2) gave {vals}")
    return vals[0]


@_memo
def _components(graph: ResolutionGraph,
                removed_ids: tuple[int, ...]) -> list[SubgraphComponent]:
    return subgraph_components(graph, removed_ids)


def counting_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                       positions: Sequence[int], lbar: RationalCycle) -> int:
    """Closed-form value of the reduced counting quasi-polynomial at a
    lattice argument.

    In the full variable set the quasi-polynomial is the chi quadratic plus
    the normalised SW constant.  The tree-surgery identity transfers that to
    a variable subset: subtract the same closed form on each subtree of the
    complement, at the projected argument and its own class.

    Each value is computed once: it is stored among the graph's entries
    under the class, the sorted positions and lbar, so the subsets a
    modified constant sums over, and the same subsets asked again by another
    twist or subset, are read back.
    """
    return _counting_qp_closed(graph, tuple(g), tuple(sorted(positions)), lbar)


@_memo
def _counting_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                        positions: tuple[int, ...], lbar: RationalCycle) -> int:
    """The body of ``counting_qp_closed``, on a normalised key: the class a
    tuple, the positions a sorted tuple."""
    if not lbar.is_integral:
        raise ValueError("quasi-polynomial argument must be a lattice cycle")
    group = graph.group
    rg = group.frac_rep(g)
    point = rg + lbar
    total = chi(graph, point) - chi(graph, rg) + sw_norm(graph, g)
    keep_ids = tuple(graph.ids[p] for p in positions)
    for piece in _components(graph, keep_ids):
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
    """Periodic constant of one class part in all variables."""
    return periodic_constant_reduced(graph, spec, h, range(graph.n))


def periodic_constant_reduced(graph: ResolutionGraph, spec: ZetaSpec,
                              h: tuple[int, ...], positions: Sequence[int],
                              modified: bool = False) -> int:
    """Periodic constant of one class part reduced to a variable subset, and
    the one place its route is chosen.  Every route is exact: the plain zeta
    function (twisted or not) takes the surgery closed form on any subset
    (``modified_qp_closed`` for the modified constant); a relative series
    takes the one-variable division on one position (``fitted_qp_value``)
    and, on two or more, the coefficient sum of its polynomial
    (``quasipoly_value``), which needs the marked vertices to be exactly the
    kept ones.  A relative series has no modified route."""
    g, base = _twist_data(graph, spec, h)
    spec = spec.untwisted()
    rg = graph.group.frac_rep(g)
    if spec == plain_zeta(graph):
        closed = modified_qp_closed if modified else counting_qp_closed
        return closed(graph, g, positions, base - rg)
    if modified:
        raise ValueError("a relative series has no modified periodic constant")
    pos = sorted(positions)
    if len(pos) == 1:
        return fitted_qp_value(spec, graph.residue(rg), pos[0], base)
    if spec != build_zeta(graph, relative=[graph.ids[p] for p in pos]):
        raise ValueError("a relative series is a polynomial only in the variables "
                         "of its marked vertices")
    return quasipoly_value(spec, graph.residue(rg), pos, base)


# ---------------------------------------------------------------------------
# tree surgery

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
