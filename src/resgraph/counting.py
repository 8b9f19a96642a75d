"""Counting functions of zeta expansions and their periodic constants.

Two sums over the support of a class part are needed: the counting function
(exponents not dominating the test cycle on a variable subset) and the
modified one (exponents strictly below it on every chosen coordinate).  With
three or more generators both are read in one pass, with no
inclusion-exclusion, off the spec's one count table: a dynamic-programming
table of the denominator-exponent sums with some coordinate below its
bound, keyed by the residue class mod the integral lattice and the
coordinates on every position, each coordinate that reaches its bound
saturated there.  Below its bound a coordinate is exact, so both sums at a
point within the bounds are exact.  Tables are cached per spec and only
grow.  A first build covers exactly the bounds asked for, and bounds beyond
the cached ones grow the table to their coordinatewise maximum.  One budget
caps the cells of all of a spec's tables together.

A spec with exactly two generators (a chain) needs no table: the
multiplicity pairs of the wanted residue are a coset of a rank-2 lattice
read off a Smith normal form, and the pairs of that coset under the lower
envelope of the positions' lines (the modified count) or under their upper
envelope (the counting function, with no inclusion-exclusion) are counted in
closed form by floor sums, with work bounded independently of den and of the
box.  What every coset reads (the lattice's Hermite basis and, per row of
the Smith form, its gcd with den and modular inverse) is one record per
spec, so a coset is one dot product per row.

Everything cached lives in one store, one dict of entries per owner: a spec
keeps its tables, budget refusals, degree data, two-generator record and
cosets and point counts, a graph its plain, twisted and relative specs, each
spec's twist, SW invariants, subgraph components, full-variable closed
terms, surgery closed values and twist data, which
``embedded.verify_twisted_duality`` reads too.  Owners are held weakly and
matched by equality on their first lookup, so an equal owner is served the
entries of the first one stored; each owner served keeps its entries from
then on and reads them straight off itself, so they live as long as any
owner that was served them.  Rebinding the store forgets them all.  No
entry refers back to its owner, nor does a graph's discriminant group, so
an owner and its entries are freed together as soon as it is dropped.

A table is built as residue -> (coordinates, counts) arrays.  Only the
reachable cells are kept, each as one int64 row (Python ints once den or a
coordinate reaches 2^62) of its residue mod den and its kept coordinates
divided by their generator gcds, a saturated one held at ceil(b / g), and
each generator is added by binary doubling as far as some coordinate stays
below its bound, equal rows merged as ``series`` merges the rows of an
expansion.  On one position the region is the box, as for the one-variable
row tables.  Counts are Python ints instead of int64 where the region holds
2^63 or more multisets of generators, which bounds any sum of them.

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
period past the degree bound, and a fourth count must lie on it; each
numerator term finds its coset once for all four.  Otherwise
N / D is divided exactly: the class part's coefficients along the vertex
are read off one table, whose one box serves every class, and the division
runs over the at most 2^r nonzero terms of D = prod_i (1 - v^{e_i}), whose
degree can reach thousands.

The normalised SW invariant is the periodic constant of a class part in all
variables, and it survives reduction to the node variables (same
reference), or to any one vertex of a chain, which has no node.  On a chain
it is therefore the two-generator constant at vertex 0, and on a
star-shaped tree, with exactly one node, the one-variable division at the
node.  Every other tree, and a star whose node table the budget refuses
(asked once per graph), takes the surgery formula on one vertex: the
one-variable constant at the vertex of smallest row box plus the
full-variable closed term of each subtree of its complement.
"""

from __future__ import annotations

import inspect
import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce, wraps
from math import gcd, lcm
from typing import Sequence

import numpy as _np

from .cycles import RationalCycle
from .graphs import (InternalCheckError, ResolutionGraph, SubgraphComponent, chi,
                     subgraph_components)
from .series import (TABLE_STATE_CAP, TableBudgetExceeded, ZetaSpec, _Layout, _runs,
                     build_zeta)
from .snf import smith_normal_form


def _integral(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise InternalCheckError(f"{what} is not an integer: {val}")
    return int(val)


# ---------------------------------------------------------------------------
# the cache store

# owner -> {("table", positions): (bounds, buckets, cells), ("held",): the
# cells of all of a spec's tables together, within TABLE_STATE_CAP (the
# budget holds per spec), ("refused", positions): smallest refused bounds,
# (function name, *key): value of a memoised function, such as a graph's
# ("_full_term", y) and ("_counting_qp_closed", class, positions, lbar) or a
# spec's ("_point_counts", residue, positions, scaled point)}
_STORE = weakref.WeakKeyDictionary()

_MISSING = object()


def _entries(owner) -> dict:
    """The owner's entries.  The first lookup matches the owner by equality
    in ``_STORE``, storing an empty dict if no equal owner is there, and
    keeps ``(_STORE, entries)`` in the owner's ``__dict__``, where
    ``cached_property`` keeps its hash; later lookups read the held dict
    while the store it came from is still ``_STORE``."""
    try:
        store, entries = owner._held_entries
        if store is _STORE:
            return entries
    except AttributeError:
        pass
    entries = _STORE.get(owner)
    if entries is None:
        entries = _STORE[owner] = {}
    owner.__dict__["_held_entries"] = (_STORE, entries)
    return entries


def _memo(fn):
    """Cache ``fn(owner, *key)`` among the owner's entries under the
    function's name; a call that raises stores nothing."""
    bind = inspect.signature(fn).bind
    name = fn.__name__

    @wraps(fn)
    def cached(*args, **kwargs):
        if kwargs:  # a keyword call shares the entry of the positional one
            args = bind(*args, **kwargs).args
        entries = _entries(args[0])
        tag = (name, *args[1:])
        value = entries.get(tag, _MISSING)
        if value is _MISSING:
            value = entries[tag] = fn(*args)
        return value
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
def relative_zeta(graph: ResolutionGraph, marked: tuple[int, ...]) -> ZetaSpec:
    """The relative zeta spec with a factor at each of the ``marked`` vertex
    ids (a sorted tuple), built once per graph and marked set."""
    return build_zeta(graph, relative=marked)


def _multiset_bound(spec: ZetaSpec, positions: tuple[int, ...],
                    bounds: tuple[int, ...]) -> int:
    """How many multisets of generators the table's region holds if each
    generator is capped separately, at the most copies that keep some kept
    coordinate below its bound; it bounds every count of the table and their
    sum."""
    most = 1
    for gen in spec.dens:
        most *= 1 + max((b - 1) // gen[p] for p, b in zip(positions, bounds))
    return most


def _reduced_shape(spec: ZetaSpec, positions: tuple[int, ...],
                   bounds: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Per kept coordinate, the gcd g_p of the generator entries there (every
    reachable y_p is a multiple of it; 1 without generators) and the count
    ceil(b_p / g_p) of those multiples in [0, b_p), the reduced value at which
    the coordinate is saturated."""
    gs = [reduce(gcd, (gen[p] for gen in spec.dens), 0) or 1 for p in positions]
    return gs, tuple(max(0, -(-b // g)) for b, g in zip(bounds, gs))


def _build_sparse(spec: ZetaSpec, positions: tuple[int, ...],
                  bounds: tuple[int, ...], held: int = 0) -> dict:
    """Buckets ``residue -> (coordinates, counts)`` of the table of
    denominator-exponent sums over the union region: per residue class mod
    den and projected point with some kept coordinate y_p strictly below its
    bound b_p, the number of multisets of generators realising it.  A
    coordinate that reaches its bound is saturated, held at ceil(b_p / g_p)
    g_p for the gcd g_p of the generator entries there, so a point below b_p
    on p is exact there.  Every generator has strictly positive projected
    coordinates, so the table is finite.  On one position the region is the
    box.  Dropping the saturated coordinates maps the cells whose
    unsaturated set is U one-to-one into the box table on U at the same
    bounds, so the table holds no more cells than the box tables of every
    nonempty U together.  That bound is per set of bounds: a spec's count
    table grows to the coordinatewise maximum over its queries, so queries
    on {0} and then on {1} leave the region on {0, 1}, which can pass the
    budget where box tables on {0} and on {1} would not.

    A cell is one int64 row: its residue mod den on every variable, then its
    coordinates divided by the generator gcds, in Python ints once den or a
    saturated coordinate reaches 2**62, so no sum of two wraps.  Each
    generator's shifts are clamped at the saturated values, which leaves
    every sum's saturation as it is.  Each generator is a
    binary-doubling knapsack: multiplying by (1 + t^(h g)) for h = 1, 2, 4,
    ... shifts every cell with room for h more copies (the most copies that
    keep some kept coordinate below its bound, a function of the row, so
    merged rows agree on it), saturates the shifted cells, appends them and
    merges equal rows on their keys packed by ``series._Layout``
    (``series._runs``), so the cells stay sorted, residue first, and a
    bucket is a run of equal residues.  The cell count only grows, so the
    budget is checked after each merge: with the ``held`` cells of the
    spec's other tables, the cells may not pass ``TABLE_STATE_CAP``.  The
    k copies of one generator with k·gen[p] < b_p are ceil(b_p / gen[p])
    distinct cells of the region, so bounds where they pass the budget are
    refused before the build, exactly: no such table fits.
    """
    if all(b <= 0 for b in bounds):
        return {}
    most = max((-(-b // gen[p]) for gen in spec.dens for p, b in zip(positions, bounds)),
               default=0)
    if held + most > TABLE_STATE_CAP:
        raise TableBudgetExceeded(held + most)
    d, n = spec.den, spec.nvars
    gs, shape = _reduced_shape(spec, positions, bounds)
    dtype = _np.int64 if max(d, *(a * g for a, g in zip(shape, gs))) < 2 ** 62 else object
    layout = _Layout([0] * (n + len(positions)), (d,) * n + tuple(a + 1 for a in shape))
    rows = _np.zeros((1, n + len(positions)), dtype=dtype)
    counts = _np.ones(1, dtype=_np.int64 if _multiset_bound(spec, positions, bounds)
                      < 2 ** 63 else object)
    full = _np.array(shape, dtype=dtype)
    last = full - 1
    for gen in spec.dens:
        # a step longer than a + 1 gives the same room and, clamped, the same shift
        s = [min(gen[p] // g, a + 1) for p, g, a in zip(positions, gs, shape)]
        room = ((last - rows[:, n:]) // _np.array(s, dtype=dtype)).max(axis=1)
        h = 1
        top = int(room.max())
        while h <= top:
            fits = room >= h
            shift = [h * x % d for x in gen] + [min(h * a, b) for a, b in zip(s, shape)]
            moved = rows.compress(fits, axis=0) + _np.array(shift, dtype=dtype)
            moved[:, :n] %= d
            _np.minimum(moved[:, n:], full, out=moved[:, n:])
            rows = _np.concatenate((rows, moved))
            order, _, first = _runs(layout.pack(rows))
            if held + len(first) > TABLE_STATE_CAP:
                raise TableBudgetExceeded(held + len(first))
            counts = _np.add.reduceat(_np.concatenate((counts, counts[fits]))[order], first)
            keep = order[first]
            room = _np.concatenate((room, room[fits] - h))[keep]
            rows = rows.take(keep, axis=0)  # faster than rows[keep] on 2-D rows
            h *= 2
    ys = rows[:, n:] * _np.asarray(gs, dtype=dtype)
    cuts = ((rows[1:, :n] != rows[:-1, :n]).any(axis=1).nonzero()[0] + 1).tolist()
    return {tuple(rows[a, :n].tolist()): (ys[a:b], counts[a:b])
            for a, b in zip([0, *cuts], [*cuts, len(rows)])}


def _table_for(spec: ZetaSpec, positions: tuple[int, ...],
               bounds: tuple[int, ...]) -> dict:
    """Cached buckets covering the bounds.

    A first build covers exactly the bounds asked for, and bounds beyond the
    stored ones rebuild the table at the coordinatewise maximum of both.  The
    budget holds per spec: the cells of all of its tables together may not
    pass ``TABLE_STATE_CAP``, so a build is charged the cells of the spec's
    other tables, the running total ``("held",)`` less the cells of the
    table it replaces.  A build that runs over refuses the bounds and
    records them, and bounds that contain refused ones are refused with no
    build: the cells held by the other tables only grow."""
    entries = _entries(spec)
    entry = entries.get(("table", positions))
    held = entries.get(("held",), 0)
    if entry is not None:
        stored_bounds, stored, cells = entry
        if all(a <= b for a, b in zip(bounds, stored_bounds)):
            return stored
        bounds = tuple(max(a, b) for a, b in zip(bounds, stored_bounds))
        held -= cells
    known_bad = entries.get(("refused", positions))
    if known_bad is not None and all(a >= b for a, b in zip(bounds, known_bad)):
        raise TableBudgetExceeded(bounds)
    try:
        table = _build_sparse(spec, positions, bounds, held)
    except TableBudgetExceeded:
        entries["refused", positions] = bounds
        raise
    cells = sum(len(cs) for _, cs in table.values())
    entries["table", positions] = (bounds, table, cells)
    entries["held",] = held + cells
    return table


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
def _two_gen_data(spec: ZetaSpec) -> tuple[int, int, int, tuple, list[list[int]]]:
    """What every coset of a two-generator spec reads, once per spec:
    ``(p, q, s, rows, V)``.

    ``{(p, 0), (q, s)}``, with 0 <= q < p, is the Hermite basis of the
    lattice of multiplicity pairs (c1, c2) whose combination c1 A + c2 B of
    the two generators is zero mod den.  By the Smith normal form
    ``U @ M @ V = diag(d_j)`` of the matrix M of generator columns mod den,
    it is spanned by the columns ``e_j V[:, j]``, with ``e_j = den / gcd(den,
    d_j)`` (1 for a column beyond the diagonal); it contains den Z^2.  Each
    row j of U comes with ``g_j = gcd(den, d_j)`` (d_j = 0 below the
    diagonal) and, where g_j < den, the inverse of d_j / g_j mod den / g_j.
    """
    d = spec.den
    diag, u, v = smith_normal_form([[gen[i] % d for gen in spec.dens]
                                    for i in range(spec.nvars)])
    es = [d // gcd(d, dj) for dj in diag] + [1] * (2 - len(diag))
    (x1, x2), (y1, y2) = [[e * v[i][j] for j, e in enumerate(es)] for i in range(2)]
    s, f1, f2 = _ext_gcd(y1, y2)
    p = abs(x1 * y2 - x2 * y1) // s
    rows = []
    for j, row in enumerate(u):
        dj = diag[j] if j < len(diag) else 0
        g = gcd(d, dj)
        rows.append((row, g, pow(dj // g, -1, d // g) if g < d else 0))
    return p, (f1 * x1 + f2 * x2) % p, s, tuple(rows), v


@_memo
def _two_gen_coset(spec: ZetaSpec,
                   need: tuple[int, ...]) -> tuple[int, int, int, int, int] | None:
    """The pairs with c1 A + c2 B = need mod den, as ``(p, q, s, r, c)``:
    they are ``(r + q*j + p*n, c + s*j)`` over all integers j, n, with the
    Hermite basis of ``_two_gen_data`` and ``0 <= c < s``; None if there
    are none.

    With z = V^-1 (c1, c2), the congruence reads ``d_j z_j = (U need)_j`` mod
    den on the diagonal and ``(U need)_j = 0`` mod den on any row below it,
    one dot product per row of U."""
    d = spec.den
    p, q, s, rows, v = _two_gen_data(spec)
    z = [0, 0]
    for j, (row, g, inv) in enumerate(rows):
        rhs = sum(a * b for a, b in zip(row, need)) % d
        if rhs % g:
            return None
        if g < d:
            z[j] = rhs // g * inv
    c1, c2 = (v[i][0] * z[0] + v[i][1] * z[1] for i in range(2))
    shift = -(c2 // s)  # multiples of (q, s) that bring c2 into [0, s)
    return p, q, s, (c1 + shift * q) % p, c2 + shift * s


def _coset_count(p: int, q: int, r: int, lines: list[tuple[int, int, int]],
                 union: bool) -> int:
    """The number of integer pairs (j, n) with j >= 0 and ``0 <= r + q*j +
    p*n <= F(j)``, where ``F(j) = min_k floor((tt_k - bb_k j) / a_k)`` over
    the ``lines`` (a_k, bb_k, tt_k), or the upper envelope ``max_k`` for the
    union.  That minimum or maximum of lines splits the range of j into at
    most one piece per line, at crossings found by cross-multiplication,
    and on each piece the count is a floor sum, since ``floor(floor(x/a)/p)
    = floor(x/(a p))``."""
    envelope, sign = (max, -1) if union else (min, 1)
    top = envelope(tt // bb for _, bb, tt in lines)  # F(j) >= 0 exactly for j <= top
    if top < 0:
        return 0
    # per j: floor((F(j) - r - q j) / p) + floor((r + q j) / p) + 1 values
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
    return count


def _line_count(p: int, q: int, r: int, line: tuple[int, int, int, int],
                tt: int) -> int:
    """``_coset_count(p, q, r, [(a, bb, tt)], False)`` for one line, read as
    its constants ``(bb, a*p, -(bb + a*q), a*r)``: one line is the whole
    envelope, so the count is ``top + 1`` and two floor sums over j in [0,
    top]."""
    bb, ap, slope, ar = line
    top = tt // bb
    if top < 0:
        return 0
    return top + 1 + _floor_sum(top + 1, p, q, r) + _floor_sum(top + 1, ap, slope, tt - ar)


@_memo
def _two_gen_count(spec: ZetaSpec, residue: tuple[int, ...], positions: tuple[int, ...],
                   xs: tuple[int, ...], union: bool) -> int:
    """Exact closed count for two geometric generators A and B.

    The pairs (c1, c2) >= 0 with the wanted residue and c1 A + c2 B strictly
    below the target on every position (on some position if ``union``) are a
    lattice coset cut by a box: with ``c2 = c + s*j``, c1 runs over a
    progression of step p whose offset is linear in j (``_two_gen_coset``)
    and up to ``F_k(j) = floor((T_k - 1 - B_k (c + s j)) / A_k)`` on position
    k, the lines that ``_coset_count`` counts under.  The work is bounded by
    the number of positions and logarithms of the entries; it grows neither
    with den nor with the box.
    """
    ga, gb = spec.dens
    d = spec.den
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
        lines = [(ga[k], gb[k] * s, tk - 1 - gb[k] * c) for k, tk in t.items()]
        total += coeff * _coset_count(p, q, r, lines, union)
    return total


def _signed_subsets(positions: Sequence[int]):
    """Nonempty subsets with their inclusion-exclusion signs, sizes ascending,
    then ``itertools.combinations`` order (``modified_qp_closed``)."""
    for r in range(1, len(positions) + 1):
        sign = (-1) ** (r + 1)
        for sub in itertools.combinations(positions, r):
            yield sign, sub


def _count(spec: ZetaSpec, residue: tuple[int, ...], positions: Sequence[int],
           x: RationalCycle, union: bool) -> int:
    """``counting_Q`` if ``union``, else ``counting_q``, on a normalised key:
    the residue a tuple, the positions a sorted tuple, x scaled by den."""
    if not positions:
        raise ValueError("variable subset must be nonempty")
    key = (tuple(residue), tuple(sorted(positions)), x.scaled(spec.den))
    if len(spec.dens) == 2:
        return _two_gen_count(spec, *key, union)  # positional: the memo binds keywords
    return _point_counts(spec, *key)[union]


def counting_q(spec: ZetaSpec, residue: tuple[int, ...],
               positions: Sequence[int], x: RationalCycle) -> int:
    """Modified counting function: coefficient sum over support exponents of
    the given class lying strictly below x on every chosen coordinate.  Two
    generators are counted in closed form, any other spec off its table
    (``_point_counts``, which counts ``counting_Q`` at the same point in the
    same read).  Each count is computed once, stored among the spec's
    entries under the residue, the sorted positions and x scaled by den."""
    return _count(spec, residue, positions, x, False)


def counting_Q(spec: ZetaSpec, residue: tuple[int, ...],
               positions: Sequence[int], x: RationalCycle) -> int:
    """Counting function: coefficient sum over support exponents of the given
    class not dominating x on the chosen coordinates, that is, strictly below
    x on some chosen coordinate.  For two generators (a chain) it is one
    closed count of the coset pairs under the upper envelope of the
    positions' lines; for three or more it is read off the spec's one count
    table with ``counting_q`` at the same point (``_point_counts``), with no
    inclusion-exclusion.  Each count is computed once, as ``counting_q``'s."""
    return _count(spec, residue, positions, x, True)


@_memo
def _point_counts(spec: ZetaSpec, residue: tuple[int, ...], pos: tuple[int, ...],
                  xs: tuple[int, ...]) -> tuple[int, int]:
    """``(counting_q, counting_Q)`` at one normalised key of a spec without
    exactly two generators, from one read of its one count table.  The table
    is keyed on every position; a position's bound is the largest target
    asked there so far, 0 if never asked.  Each target t_p is at most b_p,
    so a cell below t_p on p is not saturated there and both sums are exact."""
    d = spec.den
    targets = []
    bounds = [0] * spec.nvars
    for coeff, base in spec.num:
        t = [xs[p] - base[p] for p in pos]
        if max(t) > 0:
            targets.append((coeff, t, tuple((a - b) % d for a, b in zip(residue, base))))
            for p, tp in zip(pos, t):
                bounds[p] = max(bounds[p], tp)
    if not targets:
        return 0, 0
    table = _table_for(spec, tuple(range(spec.nvars)), tuple(bounds))
    cols = list(pos)
    every = some = 0
    for coeff, t, need in targets:
        entry = table.get(need)
        if entry is None:
            continue
        ys, cs = entry
        below = ys[:, cols] < _np.asarray([max(a, 0) for a in t], dtype=ys.dtype)
        every += coeff * int(cs[below.all(axis=1)].sum())
        some += coeff * int(cs[below.any(axis=1)].sum())
    return every, some


# ---------------------------------------------------------------------------
# exact periodic constants of relative series

@_memo
def _degree_data(spec: ZetaSpec, p: int) -> tuple[int, tuple[int, ...]]:
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
    return top, tuple(o * gen[p] // d for o, gen in zip(orders, spec.dens))


def _step_bound(spec: ZetaSpec, p: int,
                base: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
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
    steps past the base's (a spec without exactly two generators).

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
        steps = ys[:, 0] + (b[p] - bs[p])  # np.divmod has no loop for Python ints
        steps, off = steps // d, steps % d
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

    Two generators take four closed counts (``_two_gen_constant``), one
    coset per numerator term for all four, and build no table.  Any other
    spec reads the a_m up to B + deg D off one table along p
    (``_class_row``), forms N = S D there, and N must vanish on (B, B + deg
    D], else ``InternalCheckError`` is raised; then P is divided out.  P has negative powers where exponents lie below the base.  D has at
    most 2^r nonzero terms for r generators while deg D can reach thousands,
    so the product and both division loops run over D's nonzero terms only.
    The work grows with B and deg D, not with the period of the counting
    function.  The table is fetched before D is built, so a table refused by
    the budget raises ``TableBudgetExceeded`` at once.
    """
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
    ``InternalCheckError`` is raised.

    Each numerator term's coset, its one line along p and the line's
    constants are worked out once; the four counts differ only in the
    line's top, which moves by Pi den per sample.  Each count is the line's
    ``top + 1`` and two floor sums (``_line_count``), whose work does not
    grow with Pi."""
    d = spec.den
    a, b = spec.dens[0][p], spec.dens[1][p]
    j0 = max(bound, 0) // period + 1
    step = period * d
    ys = [0, 0, 0, 0]
    for coeff, base in spec.num:
        coset = _two_gen_coset(spec, tuple((x - y) % d for x, y in zip(residue, base)))
        if coset is None:
            continue
        pp, q, s, r, c = coset
        line = (b * s, a * pp, -(b * s + a * q), a * r)
        # the line's top at j0, from T = bs[p] + j0 Pi den - base[p] > 0
        tt = bs[p] + j0 * step - base[p] - 1 - b * c
        for j in range(4):
            ys[j] += coeff * _line_count(pp, q, r, line, tt + j * step)
    y0, y1, y2, y3 = ys
    if y3 - 3 * y2 + 3 * y1 - y0:
        raise InternalCheckError(
            f"two-generator counts along coordinate {p} are not quadratic in "
            f"steps of {period} past the degree bound: {ys}")
    return y0 - j0 * (y1 - y0) + j0 * (j0 + 1) // 2 * (y2 - 2 * y1 + y0)


@_memo
def _sw_route(graph: ResolutionGraph) -> tuple[int, list[SubgraphComponent]]:
    """The vertex v of ``sw_norm`` and the subtrees of G - v it adds.  A
    chain (its plain zeta function has two generators) takes vertex 0, whose
    counts are closed, and a star-shaped tree (exactly one vertex of valence
    three or more) its node if the budget admits the node table, the one
    box of ``_row_box`` that every class reads; neither adds a subtree.
    Every other tree, and a star whose node table is refused, takes the
    vertex of smallest ``_row_box``.  Decided once per graph, so a refused
    node table costs a class nothing."""
    spec = plain_zeta(graph)
    if len(spec.dens) == 2:
        return 0, []
    nodes = [i for i, val in enumerate(graph.valences) if val >= 3]
    if len(nodes) == 1:
        try:
            _table_for(spec, (nodes[0],), (_row_box(spec, nodes[0]),))
            return nodes[0], []
        except TableBudgetExceeded:
            pass
    vertex = min(range(graph.n), key=lambda p: _row_box(spec, p))
    return vertex, _components(graph, (graph.ids[vertex],))


@_memo
def sw_norm(graph: ResolutionGraph, h: tuple[int, ...]) -> int:
    """Normalised Seiberg-Witten invariant of the link for one class.

    It is ``_full_term`` at r_h, so the surgery formula on the vertex v of
    ``_sw_route`` gives it as the one-variable constant ``fitted_qp_value``
    at r_h at v plus ``_full_term`` on each subtree of G - v at the
    projected r_h, a smaller tree, so the recursion ends.  The subtree terms
    vanish at a chain's vertex and at a star's node, where the constant
    survives reduction (Laszlo-Nemethi, Geom. Topol. 2014).  A table over
    the budget at v raises ``TableBudgetExceeded``.
    """
    vertex, pieces = _sw_route(graph)
    r = graph.group.frac_rep(h)
    total = fitted_qp_value(plain_zeta(graph), graph.residue(r), vertex, r) + \
        sum(_full_term(piece.graph, piece.project(r)) for piece in pieces)
    return _integral(total, "normalised SW invariant")


@_memo
def _components(graph: ResolutionGraph,
                removed: tuple[int, ...]) -> list[SubgraphComponent]:
    return subgraph_components(graph, removed)


def counting_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                       positions: Sequence[int], lbar: RationalCycle) -> int:
    """Closed-form value of the reduced counting quasi-polynomial at a
    lattice argument.

    In the full variable set the quasi-polynomial is the chi quadratic plus
    the normalised SW constant: at y = r_g + lbar it is the full-variable
    term ``_full_term`` chi(y) - chi(r_g) + sw_norm(g).  The tree-surgery
    identity transfers that to a variable subset: subtract the same term on
    each subtree of the complement, at the projected argument and its own
    class.

    Each value is computed once: it is stored among the graph's entries
    under the class, the sorted positions and lbar, so the subsets a
    modified constant sums over, and the same subsets asked again by another
    twist or subset, are read back.  Each term is stored among its tree's
    entries under its point, so the subsets and twists that meet one tree
    and point, and equal subtrees of different complements, share it.
    """
    return _counting_qp_closed(graph, tuple(g), tuple(sorted(positions)), lbar)


@_memo
def _full_term(graph: ResolutionGraph, y: RationalCycle) -> Fraction:
    """The full-variable closed term at y in L': chi(y) - chi(r_[y]) +
    sw_norm([y]), with [y] the class of y and r_[y] its reduced
    representative."""
    g = graph.group.class_of(y)
    return chi(graph, y) - chi(graph, graph.group.frac_rep(g)) + sw_norm(graph, g)


@_memo
def _counting_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                        positions: tuple[int, ...], lbar: RationalCycle) -> int:
    """The body of ``counting_qp_closed``, on a normalised key: the class a
    tuple, the positions a sorted tuple."""
    if not lbar.is_integral:
        raise ValueError("quasi-polynomial argument must be a lattice cycle")
    point = graph.group.frac_rep(g) + lbar
    total = _full_term(graph, point)
    for piece in _components(graph, tuple(graph.ids[p] for p in positions)):
        total -= _full_term(piece.graph, piece.project(point))
    return _integral(total, "closed quasi-polynomial value")


def modified_qp_closed(graph: ResolutionGraph, g: tuple[int, ...],
                       positions: Sequence[int], lbar: RationalCycle) -> int:
    """Closed-form value of the reduced modified-counting quasi-polynomial,
    by inverting the inclusion-exclusion relation subsetwise."""
    return sum(sign * counting_qp_closed(graph, g, sub, lbar)
               for sign, sub in _signed_subsets(sorted(positions)))


def _monomial_shift(spec: ZetaSpec, ref: ZetaSpec) -> tuple[int, ...] | None:
    """The scaled v with spec = t^v ref (ref's numerator terms each moved by
    v, in order, over the same denominators), or None if there is none."""
    v = tuple(a - b for a, b in zip(spec.num[0][1], ref.num[0][1]))
    moved = tuple((c, tuple(a + b for a, b in zip(e, v))) for c, e in ref.num)
    same = (spec.ids, spec.den, spec.dens, spec.num) == (ref.ids, ref.den, ref.dens, moved)
    return v if same else None


@_memo
def _plain_shift(graph: ResolutionGraph, spec: ZetaSpec) -> tuple[int, ...] | None:
    """The scaled twist l0 of a spec of t^{l0} times the plain zeta function,
    or None for any other spec; worked out once per graph and spec."""
    return _monomial_shift(spec, plain_zeta(graph))


@_memo
def _twist_data(graph: ResolutionGraph, twist: tuple[int, ...], h: tuple[int, ...]) -> tuple:
    """For the twist l0 (scaled by |det|) and the class h, once per graph,
    twist and class: the class g = h - h0 (h0 the class of l0) and the
    lattice argument lbar = r_h - l0 - r_g at which the closed route
    evaluates the h-part of t^{l0} Z, since that part is the g-part of Z
    moved by l0; then the counting side of twisted duality, the argument
    Z_K - r_h + l0, its residue and the dual shift l0 + r_g."""
    group = graph.group
    tw = RationalCycle(twist, graph.det_abs)
    g = group.sub(h, group.class_of(tw))
    rg = group.frac_rep(g)
    lbar = group.frac_rep(h) - tw - rg
    if not lbar.is_integral:
        raise InternalCheckError("twisted base does not differ from r_g by a lattice cycle")
    arg = graph.canonical - group.frac_rep(h) + tw
    return g, lbar, arg, graph.residue(arg), tw + rg


def periodic_constant_full(graph: ResolutionGraph, spec: ZetaSpec,
                           h: tuple[int, ...]) -> int:
    """Periodic constant of one class part in all variables."""
    return periodic_constant_reduced(graph, spec, h, range(graph.n))


def periodic_constant_reduced(graph: ResolutionGraph, spec: ZetaSpec,
                              h: tuple[int, ...], positions: Sequence[int],
                              modified: bool = False) -> int:
    """Periodic constant of one class part reduced to a variable subset, and
    the one place its route is chosen.  Every route is exact: the plain zeta
    function times a monomial t^{l0} (twisted or not) takes the surgery
    closed form on any subset (``modified_qp_closed`` for the modified
    constant).  Any other spec is a relative series, read at base r_h: the
    one-variable division on one position (``fitted_qp_value``) and, on two
    or more, the coefficient sum of its polynomial (``quasipoly_value``),
    which needs the marked vertices to be exactly the kept ones.  A relative
    series has no modified route."""
    h = tuple(h)
    shift = _plain_shift(graph, spec)
    if shift is not None:
        g, lbar = _twist_data(graph, shift, h)[:2]
        closed = modified_qp_closed if modified else counting_qp_closed
        return closed(graph, g, positions, lbar)
    if modified:
        raise ValueError("a relative series has no modified periodic constant")
    r = graph.group.frac_rep(h)
    pos = sorted(positions)
    if len(pos) == 1:
        return fitted_qp_value(spec, graph.residue(r), pos[0], r)
    if _monomial_shift(spec, relative_zeta(graph, tuple(graph.ids[p] for p in pos))) is None:
        raise ValueError("a relative series is a polynomial only in the variables "
                         "of its marked vertices")
    return quasipoly_value(spec, graph.residue(r), pos, r)


# ---------------------------------------------------------------------------
# tree surgery

@dataclass(frozen=True)
class SurgeryReport:
    """Both sides of the tree-surgery identity for counting functions."""

    x: RationalCycle
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
    for piece in _components(graph, tuple(keep)):
        xk = piece.project(x)
        sub = piece.graph
        corrections.append(counting_Q(plain_zeta(sub), sub.residue(xk),
                                      tuple(range(sub.n)), xk))
    residual = full - reduced - sum(corrections)
    return SurgeryReport(x=x, full=full, reduced=reduced,
                         corrections=tuple(corrections), residual=residual)
