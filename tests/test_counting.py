"""Counting functions, periodic constants, normalised SW invariants and the
surgery identity, all checked against brute-force oracles."""

import dataclasses
import functools
import gc
import itertools
import math
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as _np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIHEDRAL_TEXT
from resgraph import counting
from resgraph.cli import check_sw, tally
from resgraph.counting import (InternalCheckError, TableBudgetExceeded,
                               _build_sparse, _table_for, _twist_data,
                               counting_Q, counting_q, counting_qp_closed,
                               fitted_qp_value, modified_qp_closed,
                               periodic_constant_full,
                               periodic_constant_reduced, plain_zeta,
                               surgery_check, sw_norm)
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.embedded import (EmbeddedCurve, _relative_pc, blache_correction,
                               delta_cross_check, verify_twisted_duality)
from resgraph.graphs import (NotNegativeDefiniteError, ResolutionGraph,
                             artin_rationality, chi, laufer_saturate,
                             min_antinef_rep, parse_graph, subgraph_components)
from resgraph.randtrees import (_random_tree_edges, random_antinef, random_class,
                                random_positions, random_rational_graph,
                                random_unit_arrows)
from resgraph.series import ZetaSpec, _Layout, build_zeta, expand, synthetic_spec


def brute_count(spec, residue, positions, x, strict_all: bool) -> int:
    """Direct definition: enumerate the support far enough to cover the
    condition region, then sum matching coefficients."""
    den = spec.den
    xs = x.scaled(den)
    gens = list(spec.dens)
    # a numerator entry below zero needs that many more copies to leave
    low = min([0, *(b for _, base in spec.num for b in base)])
    bound = max(max(xs) - low, 1)
    ranges = [int(Fraction(bound, min(g))) + 2 for g in gens]
    total = 0
    for combo in itertools.product(*(range(r) for r in ranges)):
        vec = [0] * spec.nvars
        for c, g in zip(combo, gens):
            for i in range(spec.nvars):
                vec[i] += c * g[i]
        for coeff, base in spec.num:
            p = tuple(b + v for b, v in zip(base, vec))
            if tuple(a % den for a in p) != tuple(residue):
                continue
            if strict_all:
                ok = all(p[i] < xs[i] for i in positions)
            else:
                ok = any(p[i] < xs[i] for i in positions)
            if ok:
                total += coeff
    return total


# ---------------------------------------------------------------------------
# counting functions

def test_counting_below_zero_is_empty(a3):
    spec = plain_zeta(a3)
    x = RationalCycle((0, 0, 0))
    assert counting_Q(spec, a3.residue(x), (0, 1, 2), x) == 0
    assert counting_Q(spec, a3.residue(x), (1,), -1 * a3.unit_cycle) == 0


def test_a3_counting_values(a3):
    spec = plain_zeta(a3)
    x = RationalCycle((3, 2, 1))  # four copies of the first dual
    assert counting_Q(spec, a3.residue(x), (0, 1, 2), x) == 6
    e2 = a3.dual(2)
    assert counting_Q(spec, a3.residue(e2), (0, 1, 2), e2) == 0


def test_brieskorn_counting_value(brieskorn):
    spec = plain_zeta(brieskorn)
    x = brieskorn.canonical + brieskorn.dual(4)
    assert x == RationalCycle((8, 4, 3, 2))
    assert counting_Q(spec, brieskorn.residue(x), (0, 1, 2, 3), x) == 2


@pytest.mark.parametrize("seed", range(6))
def test_counting_against_brute_force(seed):
    rng = random.Random(900 + seed)
    g = random_rational_graph(rng, max_vertices=5, order_cap=30)
    spec = plain_zeta(g)
    grp = g.group
    for _ in range(4):
        x = random_antinef(rng, g, max_coeff=2)
        cls = rng.choice(grp.elements())
        res = g.residue(grp.frac_rep(cls))
        size = rng.randint(1, g.n)
        pos = tuple(sorted(rng.sample(range(g.n), size)))
        assert counting_q(spec, res, pos, x) == brute_count(spec, res, pos, x, True)
        assert counting_Q(spec, res, pos, x) == brute_count(spec, res, pos, x, False)


def test_twisted_counting_shift_relation(dihedral):
    # counting of the twisted series at x equals the plain counting at x - twist
    tw = dihedral.dual(1)
    spec = build_zeta(dihedral, twist=tw)
    pspec = plain_zeta(dihedral)
    grp = dihedral.group
    rng = random.Random(4)
    for _ in range(8):
        x = random_antinef(rng, dihedral, max_coeff=2)
        cls = rng.choice(grp.elements())
        res = dihedral.residue(grp.frac_rep(cls))
        res_shift = tuple((a - b) % 12 for a, b in zip(res, tw.scaled(12)))
        pos = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
        assert counting_Q(spec, res, pos, x) == \
            counting_Q(pspec, res_shift, pos, x - tw)


def test_inclusion_exclusion_identity():
    rng = random.Random(41)
    for _ in range(10):
        g = random_rational_graph(rng, max_vertices=5, order_cap=30)
        spec = plain_zeta(g)
        grp = g.group
        x = random_antinef(rng, g, max_coeff=2)
        cls = rng.choice(grp.elements())
        res = g.residue(grp.frac_rep(cls))
        size = rng.randint(1, g.n)
        pos = tuple(sorted(rng.sample(range(g.n), size)))
        total = 0
        for k in range(1, len(pos) + 1):
            for sub in itertools.combinations(pos, k):
                total += (-1) ** (k + 1) * counting_q(spec, res, sub, x)
        assert counting_Q(spec, res, pos, x) == total


def test_counts_beyond_int64_stay_exact():
    # sixteen copies of t: q at 100 counts the multisets with sum below 100
    spec = synthetic_spec([(1, (0,))], [(1,)] * 16)
    exact = math.comb(115, 16)
    assert exact >= 2 ** 63
    assert counting_q(spec, (0,), (0,), RationalCycle((100,))) == exact
    assert counting_q(spec, (0,), (0,), RationalCycle((1,))) == 1


# ---------------------------------------------------------------------------
# partition tables: the builder against a dictionary DP

def _build_table(spec: ZetaSpec, positions: tuple[int, ...],
                 bounds: tuple[int, ...], union: bool = False) -> dict:
    """Sparse table of denominator-exponent sums.

    Keys are ``(projected coordinates, full residue mod den)``; values count
    the multisets of denominator exponents realising them.  Only sums whose
    projection lies strictly inside the box are kept; every generator has
    strictly positive projected coordinates, so the table is finite.

    With ``union``, the sums kept are those with some projected coordinate
    below its bound, and a coordinate that reaches its bound is saturated:
    held at the least multiple of its generator gcd at or above the bound.
    Each sum pushes its count along the copies of the next generator that
    stay in that region.
    """
    d = spec.den
    zero = ((0,) * len(positions), (0,) * spec.nvars)
    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {zero: 1}
    if union:
        return _build_union_table(spec, positions, bounds, states)
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
            if len(cells) > counting.TABLE_STATE_CAP:
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


def _build_union_table(spec, positions, bounds, states) -> dict:
    """The union-region mode of ``_build_table``, from the one zero sum."""
    if all(b <= 0 for b in bounds):
        return {}
    d = spec.den
    gcds = [math.gcd(*(gen[p] for gen in spec.dens)) or 1 for p in positions]
    held = tuple(max(0, -(-b // g)) * g for b, g in zip(bounds, gcds))
    for gen in spec.dens:
        step_y = tuple(gen[p] for p in positions)
        step_r = tuple(x % d for x in gen)
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (y, rho), count in states.items():
            while True:
                out[y, rho] = out.get((y, rho), 0) + count
                if len(out) > counting.TABLE_STATE_CAP:
                    raise TableBudgetExceeded(len(out))
                y = tuple(min(a + s, h) for a, s, h in zip(y, step_y, held))
                if not any(a < b for a, b in zip(y, bounds)):
                    break
                rho = tuple((a + s) % d for a, s in zip(rho, step_r))
        states = out
    return states


def _bucketise(states: dict, wide: bool) -> dict:
    """Group table states by residue: residue -> (projection matrix, counts),
    as integer arrays for vectorised box queries.  Counts are Python-int
    object arrays where ``wide``."""
    grouped: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for (y, rho), count in states.items():
        grouped.setdefault(rho, []).append((y, count))
    dtype = object if wide else _np.int64
    buckets = {}
    for rho, items in grouped.items():
        ys = _np.array([y for y, _ in items], dtype=_np.int64).reshape(len(items), -1)
        cs = _np.array([c for _, c in items], dtype=dtype)
        buckets[rho] = (ys, cs)
    return buckets


def _oracle_table(spec, positions, bounds, union=False):
    """The dictionary DP's table, its counts Python ints where its region
    holds 2**63 or more multisets of generators, each capped separately:
    that bounds every sum of counts.  A generator is capped at the most
    copies below the bound on every kept coordinate in the box, on some in
    the union region."""
    most = max if union else min
    multisets = math.prod(1 + most((b - 1) // gen[p] for p, b in zip(positions, bounds))
                          for gen in spec.dens)
    return _bucketise(_build_table(spec, positions, bounds, union), multisets >= 2 ** 63)


def _table_cells(buckets):
    return {(tuple(y), rho): (c, cs.dtype)
            for rho, (ys, cs) in buckets.items()
            for y, c in zip(ys.tolist(), cs.tolist())}


def _assert_same_table(buckets, oracle):
    assert _table_cells(buckets) == _table_cells(oracle)
    assert all(ys.dtype == oracle[rho][0].dtype for rho, (ys, _) in buckets.items())


def _restricted(buckets, box):
    return {cell: v for cell, v in _table_cells(buckets).items()
            if all(a < b for a, b in zip(cell[0], box))}


def _box_counts(buckets, box):
    """The counts of the cells below ``box`` on every coordinate."""
    return {cell: c for cell, (c, _) in _restricted(buckets, box).items()}


def _assert_matches_oracle(spec, positions, bounds):
    """The builder's table is the dictionary DP's in the union region, and
    its cells below every bound are the box table's."""
    table = _build_sparse(spec, positions, bounds)
    _assert_same_table(table, _oracle_table(spec, positions, bounds, union=True))
    assert _box_counts(table, bounds) == _box_counts(_oracle_table(spec, positions, bounds),
                                                     bounds)
    return table


def test_dense_table_dihedral(dihedral):
    table = _assert_matches_oracle(plain_zeta(dihedral), (0, 2), (300, 300))
    assert sum(len(cs) for _, cs in table.values()) > 5000


def test_dense_table_cyclic4_every_subset(a3):
    spec = plain_zeta(a3)
    for r in range(1, 4):
        for pos in itertools.combinations(range(3), r):
            _assert_matches_oracle(spec, pos, (37, 41, 29)[:r])


def test_dense_table_twisted_relative(dihedral):
    spec = build_zeta(dihedral, twist=dihedral.dual(2), relative=(1,))
    _assert_matches_oracle(spec, (1, 3), (90, 70))


def test_dense_table_reduced_coordinates():
    # gcd 2 on the first coordinate, 3 on the second; bounds not multiples
    spec = synthetic_spec([(1, (0, 0)), (-2, (2, 3))],
                          [(2, 6), (4, 3), (6, 9)], den=5)
    _assert_matches_oracle(spec, (0, 1), (61, 50))
    _assert_matches_oracle(spec, (1,), (80,))


def test_dense_table_wide_counts():
    # a huge coefficient leaves the counts int64, since the box holds fewer
    # than 2**63 multisets; the count multiplies them by it in Python ints
    spec = synthetic_spec([(2 ** 50, (0,)), (-1, (1,))], [(1,), (2,), (3,)])
    table = _assert_matches_oracle(spec, (0,), (2000,))
    assert all(cs.dtype == _np.int64 for _, cs in table.values())

    def below(m):  # multisets a*1 + b*2 + c*3 < m
        return sum(m - 2 * b - 3 * c
                   for c in range(-(-m // 3)) for b in range(-(-(m - 3 * c) // 2)))
    value = counting_q(spec, (0,), (0,), RationalCycle((600,)))
    assert value == 2 ** 50 * below(600) - below(599) > 2 ** 63


def test_dense_table_edge_cases(dihedral, a3):
    spec = plain_zeta(dihedral)
    # a zero bound empties the box but not the union region: the cells of
    # the box are none, and every bound zero empties the region too
    assert _build_table(spec, (0, 2), (0, 10)) == {}
    assert _box_counts(_assert_matches_oracle(spec, (0, 2), (0, 10)), (0, 10)) == {}
    assert _build_sparse(spec, (0, 2), (0, 0)) == {}
    assert _build_table(spec, (0, 2), (0, 0), union=True) == {}
    # a relative factor at both leaves of the chain cancels every generator
    bare = build_zeta(a3, relative=(1, 3))
    assert bare.dens == ()
    _assert_same_table(_table_for(bare, (0,), (5,)), _oracle_table(bare, (0,), (5,)))
    # the multiset bound passes 2**63: counts accumulate as Python ints
    many = synthetic_spec([(1, (0,))], [(1,)] * 16)
    table = _assert_matches_oracle(many, (0,), (100,))
    assert table[(0,)][1][-1] == math.comb(114, 15)


@st.composite
def _small_tables(draw):
    """A synthetic spec with up to four generators on up to three variables,
    kept positions, a box, and a cell cap that may refuse the table."""
    nvars = draw(st.integers(1, 3))
    vec = st.lists(st.integers(1, 7), min_size=nvars, max_size=nvars)
    num = [(1, [0] * nvars)]
    if draw(st.booleans()):  # a numerator term, huge or not, leaves the table as it is
        num.append((draw(st.sampled_from([-1, 3, 2 ** 62])), draw(vec)))
    spec = synthetic_spec(num, draw(st.lists(vec, max_size=4)),
                          den=draw(st.integers(1, 12)))
    positions = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=1))))
    bounds = tuple(draw(st.integers(-1, 30)) for _ in positions)
    cap = draw(st.sampled_from([1, 4, 16, 64, counting.TABLE_STATE_CAP]))
    return spec, positions, bounds, cap


@settings(max_examples=300, deadline=None)
@given(_small_tables())
def test_sparse_table_matches_dictionary_dp(case):
    spec, positions, bounds, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "TABLE_STATE_CAP", cap)
        try:
            oracle = _oracle_table(spec, positions, bounds, union=True)
        except TableBudgetExceeded:
            with pytest.raises(TableBudgetExceeded):
                _build_sparse(spec, positions, bounds)
            return
        table = _build_sparse(spec, positions, bounds)
        _assert_same_table(table, oracle)
        # the box has no more cells than the region, so its oracle fits the cap
        assert _box_counts(table, bounds) == \
            _box_counts(_oracle_table(spec, positions, bounds), bounds)


def test_sparse_table_beyond_the_packed_key_range():
    # three coordinates of about 2**23 reduced cells each, one more value
    # each for the saturated one: the residues mod den and the coordinates
    # no longer pack into one int64, so rows are merged on two packed words
    big = 2 ** 21
    spec = synthetic_spec([(1, (0, 0, 0)), (-1, (5, 0, 7))],
                          [(big - 1, big + 1, big + 3), (big + 5, big - 3, big + 7),
                           (big + 11, big + 13, big - 5)], den=3)
    positions, bounds = (0, 1, 2), (4 * big, 4 * big, 4 * big)
    gs, shape = counting._reduced_shape(spec, positions, bounds)
    assert gs == [1, 1, 1]
    spans = tuple(a + 1 for a in shape)
    assert spec.den ** spec.nvars * math.prod(spans) >= 2 ** 63
    assert _Layout([0] * 6, (3,) * 3 + spans).word[-1] == 1  # two words
    table = _assert_matches_oracle(spec, positions, bounds)
    assert len(_box_counts(table, bounds)) == 20  # 3 copies at most in all
    # four copies fall below the bound on the coordinates where they sum low
    assert sum(len(cs) for _, cs in table.values()) > 20


def test_large_group_small_table_enumerates_nothing():
    # |H| = 1,000,999: the residue columns take den**2, about 10**12, values,
    # and a table whose box holds one cell must not walk them; its region
    # adds the 49 copies of each generator that stay below 50 on one
    # coordinate, the other saturated
    g = parse_graph("v 1 -1000\nv 2 -1001\ne 1 2\n")
    spec = plain_zeta(g)
    assert spec.den == g.group.order == 1000999
    _, shape = counting._reduced_shape(spec, (0, 1), (50, 50))
    assert spec.den ** spec.nvars * math.prod(a + 1 for a in shape) < 2 ** 63  # one key
    table = _assert_matches_oracle(spec, (0, 1), (50, 50))
    assert _restricted(table, (50, 50)) == {((0, 0), (0, 0)): (1, _np.dtype(_np.int64))}
    assert sum(len(cs) for _, cs in table.values()) == 99


@settings(max_examples=200, deadline=None)
@given(_small_tables())
def test_table_holds_no_more_cells_than_the_box_tables_of_its_subsets(case):
    # a cell below its bound on the coordinates U only is one of the box
    # table on U at the same bounds, and no two cells are the same one
    spec, positions, bounds, _ = case
    cells = _table_cells(_build_sparse(spec, positions, bounds))
    boxes = {}
    for r in range(1, len(positions) + 1):
        for u in itertools.combinations(range(len(positions)), r):
            boxes[u] = _build_table(spec, tuple(positions[i] for i in u),
                                    tuple(bounds[i] for i in u))
    images = set()
    for y, rho in cells:
        u = tuple(i for i, (a, b) in enumerate(zip(y, bounds)) if a < b)
        image = (tuple(y[i] for i in u), rho)
        assert image in boxes[u]
        images.add((u, image))
    assert len(images) == len(cells) <= sum(len(box) for box in boxes.values())


@settings(max_examples=200, deadline=None)
@given(_small_tables())
def test_one_position_tables_are_box_tables(case):
    spec, positions, bounds, _ = case
    for p, b in zip(positions, bounds):
        _assert_same_table(_build_sparse(spec, (p,), (b,)), _oracle_table(spec, (p,), (b,)))


def test_row_tables_are_box_tables(dihedral, brieskorn):
    # the one-variable row tables and a star's node table, as built before
    # tables held the union region
    for spec in (plain_zeta(dihedral), plain_zeta(brieskorn),
                 build_zeta(dihedral, twist=dihedral.dual(2), relative=(1,))):
        for p in range(spec.nvars):
            box = (counting._row_box(spec, p),)
            _assert_same_table(_build_sparse(spec, (p,), box), _oracle_table(spec, (p,), box))


def _box_count(spec, residue, positions, xs) -> int:
    """``counting_q`` read off the dictionary DP's box table at each
    numerator term's own target."""
    total = 0
    for coeff, base in spec.num:
        t = tuple(xs[k] - base[k] for k in positions)
        need = tuple((a - b) % spec.den for a, b in zip(residue, base))
        total += coeff * sum(c for (_, rho), c in _build_table(spec, positions, t).items()
                             if rho == need)
    return total


@st.composite
def _table_points(draw):
    """A synthetic spec of zero, one or three generators on up to three
    variables with den <= 12 and 1-3 signed numerator terms, and two points
    on it, each the residue of a support exponent, a variable subset and a
    target."""
    nvars = draw(st.integers(1, 3))
    vec = st.lists(st.integers(1, 6), min_size=nvars, max_size=nvars)
    den = draw(st.integers(1, 12))
    num = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]),
                                  st.lists(st.integers(-3, 6), min_size=nvars,
                                           max_size=nvars)),
                        min_size=1, max_size=3))
    gens = draw(st.sampled_from([0, 1, 3]))
    spec = synthetic_spec(num, draw(st.lists(vec, min_size=gens, max_size=gens)), den=den)

    def residue():  # of a support exponent: a numerator term plus a few generators
        _, base = draw(st.sampled_from(spec.num))
        copies = draw(st.lists(st.integers(0, 3), min_size=gens, max_size=gens))
        return tuple((b + sum(c * gen[i] for c, gen in zip(copies, spec.dens))) % den
                     for i, b in enumerate(base))
    points = [(residue(), tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=1)))),
               tuple(draw(st.integers(-4, 16)) for _ in range(nvars)))
              for _ in range(2)]
    return spec, points


@settings(max_examples=200, deadline=None)
@given(_table_points())
def test_one_table_counts_match_brute_force_and_box_tables(case):
    # both counting functions off the spec's one count table, the second
    # point growing it, against the definition and against inclusion-
    # exclusion over box tables the dictionary DP builds on every subset
    spec, points = case
    for residue, positions, xs in points:
        x = RationalCycle(xs, spec.den)
        q, big_q = counting_q(spec, residue, positions, x), counting_Q(spec, residue, positions, x)
        assert q == brute_count(spec, residue, positions, x, True) == \
            _box_count(spec, residue, positions, xs)
        assert big_q == brute_count(spec, residue, positions, x, False) == \
            _inclusion_exclusion(lambda sub: _box_count(spec, residue, sub, xs), positions)
    assert [tag[1] for tag in counting._STORE[spec] if tag[0] == "table"] in \
        ([], [tuple(range(spec.nvars))])


@settings(max_examples=200, deadline=None)
@given(_small_tables(), st.sampled_from([0, 5]))
def test_a_table_that_fits_the_budget_is_never_refused_before_its_build(case, held):
    # the check before the build counts cells every table at these bounds
    # holds, so at a cap of exactly its cells and the held ones it is built,
    # and one cell less refuses it
    spec, positions, bounds, _ = case
    table = _build_sparse(spec, positions, bounds)
    cells = sum(len(cs) for _, cs in table.values())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "TABLE_STATE_CAP", held + cells)
        assert _table_cells(_build_sparse(spec, positions, bounds, held)) == _table_cells(table)
        if cells > 1:
            mp.setattr(counting, "TABLE_STATE_CAP", held + cells - 1)
            with pytest.raises(TableBudgetExceeded):
                _build_sparse(spec, positions, bounds, held)


def test_a_bound_past_int64_is_refused_before_any_merge(fresh_tables, monkeypatch):
    # k copies of a generator below the bound on one coordinate are k cells
    # of the region, so a bound of 2**63 is refused before the build; it
    # used to raise OverflowError at the table's int64 shape.  ``counting``
    # merges through its own name for ``series._runs``
    merges = []
    runs = counting._runs

    def spy(words):
        merges.append(words.shape)
        return runs(words)
    monkeypatch.setattr(counting, "_runs", spy)
    spec = synthetic_spec([(1, (0, 0, 0))], [(1, 2, 3), (2, 1, 1), (3, 1, 2)])
    with pytest.raises(TableBudgetExceeded):
        _build_sparse(spec, (0, 1, 2), (2 ** 63, 0, 0))
    for count in (counting_q, counting_Q):
        with pytest.raises(TableBudgetExceeded):
            count(spec, (0, 0, 0), (0, 2), RationalCycle((2 ** 63, 5, 1)))
    assert merges == []
    assert counting_q(spec, (0, 0, 0), (0,), RationalCycle((6, 0, 0))) == \
        brute_count(spec, (0, 0, 0), (0,), RationalCycle((6, 0, 0)), True)
    assert merges


def test_a_generator_entry_past_int64_keeps_int64_rows(fresh_tables):
    # an entry of 2**70 where the bound is small moves a cell straight to
    # its saturated value: its step and its shifts are clamped there, so
    # the rows stay int64; the step and the shift once raised OverflowError
    spec = synthetic_spec([(1, (0, 0, 0)), (-1, (1, 0, 2))],
                          [(1, 2 ** 70, 3), (2, 1, 1), (1, 3, 2 ** 66)])
    for xs in [(5, 4, 6), (7, 2, 3)]:
        x = RationalCycle(xs)
        for pos in [(0,), (0, 1), (0, 1, 2)]:
            for count in (counting_q, counting_Q):
                assert count(spec, (0, 0, 0), pos, x) == \
                    brute_count(spec, (0, 0, 0), pos, x, count is counting_q)
    # h copies of (1, 2**55), h up to 8191 below 10000 on the first
    # position, shift the second coordinate by h (2**50 + 1) unclamped
    spec = synthetic_spec([(1, (0, 0))], [(1, 2 ** 55), (3, 2 ** 49 + 1), (5, 2 ** 51)])
    x = RationalCycle((10000, 2 ** 50))
    assert counting_q(spec, (0, 0), (0, 1), x) == 2  # (2**49 + 1) k, k = 0, 1
    # the triples with k1 + 3 k2 + 5 k3 < 10000, by the sum over k2 per k3
    assert counting_Q(spec, (0, 0), (0, 1), x) == \
        sum((m + 1) * r - 3 * m * (m + 1) // 2 for r in range(10000, 0, -5)
            for m in [(r - 1) // 3])
    assert _table_dtypes(spec) == {_np.dtype(_np.int64)}


def _scaled(spec: ZetaSpec, factor: int, den: int) -> ZetaSpec:
    """The spec with every exponent times ``factor``, over ``den``."""
    return synthetic_spec([(c, [a * factor for a in b]) for c, b in spec.num],
                          [[a * factor for a in gen] for gen in spec.dens], den=den)


def _table_dtypes(spec) -> set:
    return {ys.dtype for tag, entry in counting._STORE[spec].items() if tag[0] == "table"
            for ys, _ in entry[1].values()}


def test_tables_past_int64_hold_python_ints(fresh_tables):
    # a den of 2**63 or more with a small region, and coordinates whose
    # saturated value reaches 2**63, count as the int64 tables they scale:
    # every exponent and den times F leaves the counts and the constants,
    # and every exponent times F = 1 mod den leaves the counts
    spec = synthetic_spec([(1, (0, 0, 0)), (-2, (1, 2, 1)), (3, (2, 0, 5))],
                          [(1, 2, 3), (2, 1, 1), (3, 1, 2)], den=3)
    f = 2 ** 63
    wide_den, wide_ys = _scaled(spec, f, 3 * f), _scaled(spec, 3 * f + 1, 3)
    for xs in [(5, 6, 7), (9, 3, 4), (2, 8, 8)]:
        for residue in [(0, 0, 0), (1, 2, 1), (2, 1, 0)]:
            for pos in [(0,), (1, 2), (0, 1, 2)]:
                for count in (counting_q, counting_Q):
                    want = count(spec, residue, pos, RationalCycle(xs, 3))
                    assert want == brute_count(spec, residue, pos, RationalCycle(xs, 3),
                                               count is counting_q)
                    assert count(wide_den, tuple(r * f for r in residue), pos,
                                 RationalCycle(xs, 3)) == want
                    assert count(wide_ys, residue, pos,
                                 RationalCycle(tuple(x * (3 * f + 1) for x in xs), 3)) == want
    # a target far below 0 on one position reads no cell there
    far = RationalCycle((5, -2 ** 70, 3), 3)
    for count in (counting_q, counting_Q):
        assert count(spec, (2, 1, 0), (0, 1), far) == \
            brute_count(spec, (2, 1, 0), (0, 1), far, count is counting_q)
    assert _table_dtypes(spec) == {_np.dtype(_np.int64)}
    assert _table_dtypes(wide_den) == _table_dtypes(wide_ys) == {_np.dtype(object)}
    # a one-variable constant reads its coefficient row off a Python-int table
    line = synthetic_spec([(1, (0,)), (-2, (6,)), (1, (-9,)), (3, (21,)), (5, (4,))],
                          [(150,), (180,), (225,)], den=3)
    wide = _scaled(line, f, 3 * f)
    for k in (0, 1, -6, 11):
        assert fitted_qp_value(wide, (k % 3 * f,), 0, RationalCycle((k,), 3)) == \
            fitted_qp_value(line, (k % 3,), 0, RationalCycle((k,), 3))
    assert _table_dtypes(wide) == {_np.dtype(object)}


# ---------------------------------------------------------------------------
# two generators: closed counts by floor sums

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(-200, 200),
       st.integers(-200, 200))
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert counting._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data(), st.integers(1, 12), st.integers(1, 60),
       st.integers(-300, 3000))
def test_one_line_count_matches_the_envelope_count(p, data, a, bb, tt):
    # the one-line sample count of the two-generator constant against the
    # envelope count it stands for; tt < 0 gives a negative top and no pairs
    q, r = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    line = (bb, a * p, -(bb + a * q), a * r)
    assert counting._line_count(p, q, r, line, tt) == \
        counting._coset_count(p, q, r, [(a, bb, tt)], False)


def _pair_count(spec, residue, positions, xs) -> int:
    """Direct definition for two generators: every multiplicity pair."""
    ga, gb = spec.dens
    total = 0
    for coeff, base in spec.num:
        t = [xs[k] - base[k] for k in positions]
        if any(v <= 0 for v in t):
            continue
        for c1 in range(min((v - 1) // ga[k] for v, k in zip(t, positions)) + 1):
            for c2 in range(min((v - 1) // gb[k] for v, k in zip(t, positions)) + 1):
                y = [b + c1 * u + c2 * v for b, u, v in zip(base, ga, gb)]
                if (all(y[k] < xs[k] for k in positions)
                        and all((a - r) % spec.den == 0 for a, r in zip(y, residue))):
                    total += coeff
    return total


def _table_count(spec, residue, positions, xs) -> int:
    """The same count read off a partition table of ``_build_sparse``."""
    targets = [(coeff, tuple(xs[k] - base[k] for k in positions),
                tuple((a - b) % spec.den for a, b in zip(residue, base)))
               for coeff, base in spec.num]
    bounds = tuple(max(0, *(t[i] for _, t, _ in targets)) for i in range(len(positions)))
    table = _build_sparse(spec, positions, bounds)
    total = 0
    for coeff, t, need in targets:
        if need in table and all(b > 0 for b in t):
            ys, cs = table[need]
            total += coeff * int(cs[(ys < _np.asarray(t)).all(axis=1)].sum())
    return total


@st.composite
def _two_generator_points(draw, max_vars=3):
    """A two-generator spec on 1 to ``max_vars`` variables with den <= 12 and
    1-3 signed numerator terms, a variable subset, a residue and a target
    that may sit at or below the numerator exponents."""
    nvars = draw(st.integers(1, max_vars))
    vec = st.lists(st.integers(1, 9), min_size=nvars, max_size=nvars)
    den = draw(st.integers(1, 12))
    num = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]),
                                  st.lists(st.integers(-3, 6), min_size=nvars,
                                           max_size=nvars)),
                        min_size=1, max_size=3))
    spec = synthetic_spec(num, [draw(vec), draw(vec)], den=den)
    positions = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=1))))
    residue = tuple(draw(st.integers(0, den - 1)) for _ in range(nvars))
    xs = tuple(draw(st.integers(-4, 40)) for _ in range(nvars))
    return spec, residue, positions, xs


@settings(max_examples=300, deadline=None)
@given(_two_generator_points())
def test_two_generator_count_matches_pairs_and_tables(case):
    spec, residue, positions, xs = case
    closed = counting._two_gen_count(spec, residue, positions, xs, union=False)
    assert closed == _pair_count(spec, residue, positions, xs)
    assert closed == _table_count(spec, residue, positions, xs)


def _moved(spec: ZetaSpec, twist) -> ZetaSpec:
    """The spec times t^twist (scaled by den): its numerator moved."""
    return dataclasses.replace(spec, num=tuple((c, tuple(a + b for a, b in zip(e, twist)))
                                               for c, e in spec.num))


@settings(max_examples=100, deadline=None)
@given(_two_generator_points(), st.data())
def test_twisted_two_generator_count_matches_brute_force(case, data):
    spec, residue, positions, xs = case
    twisted = _moved(spec, [data.draw(st.integers(0, 9)) for _ in range(spec.nvars)])
    x = RationalCycle(xs, spec.den)
    assert counting_q(twisted, residue, positions, x) == \
        brute_count(twisted, residue, positions, x, True)


def test_two_generator_points_build_no_table(fresh_tables):
    # |H| = 1,000,999: the coset count touches nothing of den's size
    g = parse_graph("v 1 -1000\nv 2 -1001\ne 1 2\n")
    spec = plain_zeta(g)
    x = 2 * g.dual(1) + 3 * g.dual(2)
    for h in ((0, 0), g.residue(g.dual(2)), g.residue(x)):
        assert counting_q(spec, h, (0, 1), x) == \
            _pair_count(spec, h, (0, 1), x.scaled(spec.den))
    assert not any(tag[0] == "table" for tag in counting._STORE[spec])


def _inclusion_exclusion(count, positions):
    """Some position below, assembled from every-position-below counts."""
    return sum(sign * count(sub) for sign, sub in counting._signed_subsets(positions))


@settings(max_examples=300, deadline=None)
@given(_two_generator_points(max_vars=5))
def test_two_generator_union_count_matches_inclusion_exclusion(case):
    # chains in the fuzz workloads have up to five vertices
    spec, residue, positions, xs = case
    union = counting._two_gen_count(spec, residue, positions, xs, union=True)
    assert union == _inclusion_exclusion(
        lambda sub: counting._two_gen_count(spec, residue, sub, xs, union=False),
        positions)
    x = RationalCycle(xs, spec.den)
    assert union == counting_Q(spec, residue, positions, x)
    assert union == brute_count(spec, residue, positions, x, False)


@settings(max_examples=100, deadline=None)
@given(_two_generator_points(max_vars=5), st.data())
def test_twisted_two_generator_union_matches_brute_force(case, data):
    spec, residue, positions, xs = case
    twisted = _moved(spec, [data.draw(st.integers(0, 9)) for _ in range(spec.nvars)])
    x = RationalCycle(xs, spec.den)
    assert counting_Q(twisted, residue, positions, x) == \
        brute_count(twisted, residue, positions, x, False)


def test_two_generator_union_below_every_numerator_is_empty():
    # t_k <= 0 on every position of every term: no line reaches j = 0
    spec = synthetic_spec([(1, (2, 3)), (-1, (5, 4))], [(2, 3), (3, 1)], den=5)
    x = RationalCycle((2, 3), 5)
    for residue in itertools.product(range(5), repeat=2):
        for positions in ((0,), (1,), (0, 1)):
            assert counting._two_gen_count(spec, residue, positions, (2, 3), True) == 0
            assert counting_Q(spec, residue, positions, x) == 0
            assert brute_count(spec, residue, positions, x, False) == 0


def test_chain_counting_Q_makes_no_modified_count(monkeypatch, a3):
    def refuse(*args):
        raise AssertionError("modified count on a chain")
    closed = counting._two_gen_count

    def union_only(*args):  # the last argument is ``union``
        if not args[-1]:
            refuse()
        return closed(*args)
    spec, twisted = plain_zeta(a3), build_zeta(a3, twist=a3.dual(1))
    x = RationalCycle((3, 2, 1))
    res = a3.residue(x)
    subsets = [sub for _, sub in counting._signed_subsets((0, 1, 2))]
    want = [brute_count(twisted, res, sub, x, False) for sub in subsets]
    monkeypatch.setattr(counting, "counting_q", refuse)
    monkeypatch.setattr(counting, "_two_gen_count", union_only)
    assert counting_Q(spec, res, (0, 1, 2), x) == 6
    assert [counting_Q(twisted, res, sub, x) for sub in subsets] == want


def test_two_generator_union_builds_no_table(fresh_tables):
    # the |H| = 1,000,999 chain: one closed count, no table of den's size
    g = parse_graph("v 1 -1000\nv 2 -1001\ne 1 2\n")
    spec = plain_zeta(g)
    x = 2 * g.dual(1) + 3 * g.dual(2)
    xs = x.scaled(spec.den)
    for h in ((0, 0), g.residue(g.dual(2)), g.residue(x)):
        assert counting_Q(spec, h, (0, 1), x) == _inclusion_exclusion(
            lambda sub: _pair_count(spec, h, sub, xs), (0, 1))
    assert not any(tag[0] == "table" for tag in counting._STORE[spec])


def test_chain_constants_build_no_table(a3, fresh_tables):
    # every count behind a chain's constants is closed: the plain ones (SW
    # invariants at one vertex of the chain and its subchains) and the
    # one-variable constants of a relative series that keeps two generators
    spec, grp = plain_zeta(a3), a3.group
    relative = build_zeta(a3, relative=(2,))
    assert len(relative.dens) == 2
    for h in grp.elements():
        for pos in ((0,), (0, 2), (0, 1, 2)):
            assert periodic_constant_reduced(a3, spec, h, pos) == \
                counting_qp_closed(a3, h, pos, zero_cycle(a3.n))
        base = grp.frac_rep(h)
        for p in range(a3.n):
            assert periodic_constant_reduced(a3, relative, h, (p,)) == \
                sampled_constant(relative, a3.residue(base), p, base)
    assert not any(tag[0] == "table" for entries in counting._STORE.values()
                   for tag in entries)


def _empty_caches(mp):
    mp.setattr(counting, "_STORE", weakref.WeakKeyDictionary())


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty cache store, so a test sees its own builds only."""
    _empty_caches(monkeypatch)


def test_table_caches_hold_specs_weakly(fresh_tables):
    spec = synthetic_spec([(1, (0, 0))], [(2, 3), (3, 1)], den=5)
    _table_for(spec, (0, 1), (40, 40))
    entries = counting._STORE[spec]
    assert ("table", (0, 1)) in entries
    ref = weakref.ref(spec)
    del spec, entries
    gc.collect()
    assert ref() is None


def test_caches_hold_graphs_weakly(fresh_tables):
    graph = parse_graph(DIHEDRAL_TEXT)
    spec = plain_zeta(graph)
    h = graph.group.elements()[3]
    sw_norm(graph, h)
    x = 3 * graph.sum_duals
    counting_q(spec, graph.residue(x), (0, 2), x)
    entries = counting._STORE[graph]
    assert {("plain_zeta",), ("sw_norm", h)} <= set(entries)
    assert ("table", (0, 1, 2, 3)) in counting._STORE[spec]  # one count table per spec
    refs = [weakref.ref(graph), weakref.ref(spec)]
    del graph, spec, entries
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert len(counting._STORE) == 0


def test_cached_components_free_their_graph(fresh_tables):
    graph = parse_graph(DIHEDRAL_TEXT)
    h = graph.group.elements()[3]
    counting_qp_closed(graph, h, (0, 2), zero_cycle(graph.n))
    assert any(tag[0] == "_components" for tag in counting._STORE[graph])
    assert ("_counting_qp_closed", h, (0, 2), zero_cycle(graph.n)) in counting._STORE[graph]
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


TWO_NODE_TEXT = ("v 1 -2\nv 2 -2\nv 3 -2\nv 4 -3\nv 5 -2\nv 6 -2\n"
                 "e 1 2\ne 1 3\ne 1 4\ne 4 5\ne 4 6\n")


def test_graphs_are_freed_without_the_cycle_collector(fresh_tables):
    # the discriminant group once held its graph, and the graph caches its
    # group: only the cycle collector freed such a graph and its store entries
    refs = []
    gc.collect()
    gc.disable()
    try:
        for text in (DIHEDRAL_TEXT + "a 1\na 3\na 4\n", TWO_NODE_TEXT):
            graph = parse_graph(text)
            group = graph.group
            for h in group.elements():
                sw_norm(graph, h)
            surgery_check(graph, [graph.ids[1]], 3 * graph.sum_duals)
            verify_twisted_duality(graph, None, group.elements()[-1], (0, 2))
            if any(graph.arrows):
                curve = EmbeddedCurve.from_graph_arrows(graph)
                delta_cross_check(graph, curve)
                blache_correction(graph, curve)
                del curve
            expand(plain_zeta(graph), 2)
            refs.append(weakref.ref(graph))
            del graph, group
        assert [ref() for ref in refs] == [None, None]
        assert len(counting._STORE) == 0
    finally:
        gc.enable()


def _fixed_sweep(a3, dihedral):
    """The fixed duality sweep: every class x nonempty subset x {no twist,
    the suite's twist} of the cyclic and the dihedral tree."""
    for graph, twist in ((a3, a3.duals[1]), (dihedral, dihedral.duals[2])):
        for tw in (None, twist):
            for h in graph.group.elements():
                for r in range(1, graph.n + 1):
                    for pos in itertools.combinations(range(graph.n), r):
                        rep = verify_twisted_duality(graph, tw, h, pos)
                        assert rep.status == rep.status_modified == "pass"


def _closed_tags(graph):
    return [tag for tag in counting._STORE.get(graph, {})
            if tag[0] == "_counting_qp_closed"]


def test_each_closed_value_is_computed_once(fresh_tables, monkeypatch, a3, dihedral):
    # in the fixed duality sweep, modified constants and repeated subsets
    # read the stored values back
    body = counting._counting_qp_closed.__wrapped__
    evaluated = []

    @functools.wraps(body)
    def body_spy(*args):
        evaluated.append(args)
        return body(*args)
    monkeypatch.setattr(counting, "_counting_qp_closed", counting._memo(body_spy))
    calls = []
    closed = counting.counting_qp_closed

    def closed_spy(graph, g, positions, lbar):
        calls.append((graph, tuple(g), tuple(sorted(positions)), lbar))
        return closed(graph, g, positions, lbar)
    monkeypatch.setattr(counting, "counting_qp_closed", closed_spy)
    _fixed_sweep(a3, dihedral)
    keys = set(calls)
    assert len(evaluated) == len(keys) < len(calls)
    assert set(evaluated) == keys
    for graph, g, positions, lbar in keys:
        stored = counting._STORE[graph]["_counting_qp_closed", g, positions, lbar]
        assert stored == body(graph, g, positions, lbar)


def test_duality_sweep_builds_each_spec_once(fresh_tables, monkeypatch, a3, dihedral):
    # every class on one and on all positions, with no twist, a zero twist
    # and the suite's twist, builds one plain and one twisted spec of each
    # graph (the surgery builds its subtrees' plain specs besides)
    built = []
    build = counting.build_zeta

    def spy(graph, **kw):
        built.append(graph)
        return build(graph, **kw)
    monkeypatch.setattr(counting, "build_zeta", spy)
    for graph, twist in ((a3, a3.duals[1]), (dihedral, dihedral.duals[2])):
        for tw in (None, zero_cycle(graph.n), twist):
            for h in graph.group.elements():
                for pos in ((0,), tuple(range(graph.n))):
                    verify_twisted_duality(graph, tw, h, pos)
        assert counting.twisted_zeta(graph, twist) == build(graph, twist=twist)
    assert [g for g in built if g in (a3, dihedral)] == [a3, a3, dihedral, dihedral]


def test_delta_cross_check_builds_each_relative_spec_once(fresh_tables, monkeypatch,
                                                          dihedral):
    # arrows at 1, 3 and 4: one relative spec per nonempty subset (three
    # singletons and four of two or more arrows), which the polynomial
    # route's premise check reads back, and the plain spec it compares with
    built = []
    build = counting.build_zeta

    def spy(graph, **kw):
        built.append(tuple(sorted(kw.get("relative", ()))))
        return build(graph, **kw)
    monkeypatch.setattr(counting, "build_zeta", spy)
    probe = dataclasses.replace(dihedral, arrows=(1, 0, 1, 1))
    assert delta_cross_check(probe, EmbeddedCurve.from_graph_arrows(probe)).passed
    assert len(built) == 8
    assert sorted(built) == sorted([(), (1,), (3,), (4,), (1, 3), (1, 4), (3, 4), (1, 3, 4)])


def test_equal_owners_parsed_apart_hash_alike_and_share_entries(fresh_tables):
    a, b = parse_graph(DIHEDRAL_TEXT), parse_graph(DIHEDRAL_TEXT)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.ids, a.eulers, a.edges, a.arrows))
    other = dataclasses.replace(a, arrows=(1, 0, 0, 0))
    assert other != a and a != "graph"
    spec = plain_zeta(a)
    assert plain_zeta(b) is spec
    assert len(counting._STORE) == 1 and counting._STORE[b] is counting._STORE[a]
    apart = build_zeta(b)
    assert apart is not spec and apart == spec and hash(apart) == hash(spec)
    assert hash(spec) == hash((spec.ids, spec.den, spec.num, spec.dens))
    assert counting._degree_data(apart, 0) == counting._degree_data(spec, 0)
    assert counting._STORE[apart] is counting._STORE[spec]
    assert [tag for tag in counting._STORE[spec] if tag[0] == "_degree_data"] == \
        [("_degree_data", 0)]


def test_closed_values_key_on_sorted_positions(fresh_tables):
    graph = parse_graph(DIHEDRAL_TEXT)
    h = graph.group.elements()[3]
    lbar = RationalCycle((1, 0, 2, 0))
    values = {counting_qp_closed(graph, g, pos, lbar)
              for g in (h, list(h))
              for pos in ([1, 2, 3], (1, 2, 3), range(1, 4), (3, 1, 2))}
    assert len(values) == 1
    assert _closed_tags(graph) == [("_counting_qp_closed", h, (1, 2, 3), lbar)]


def _inline_closed(graph, g, positions, lbar):
    """The surgery closed form written out term by term: chi(y) - chi(r_[y])
    + sw_norm([y]) on the tree at y = r_g + lbar, less the same on each
    subtree of the complement at the projected point."""
    rg = graph.group.frac_rep(g)
    point = rg + lbar
    total = chi(graph, point) - chi(graph, rg) + sw_norm(graph, g)
    for piece in subgraph_components(graph, [graph.ids[p] for p in positions]):
        sub, y = piece.graph, piece.project(point)
        gk = sub.group.class_of(y)
        total -= chi(sub, y) - chi(sub, sub.group.frac_rep(gk)) + sw_norm(sub, gk)
    return total


def test_closed_values_match_the_inline_surgery_formula(fresh_tables, a3, dihedral):
    for graph, twist in ((a3, a3.duals[1]), (dihedral, dihedral.duals[2])):
        for tw in (zero_cycle(graph.n), twist):
            for h in graph.group.elements():
                g, lbar = _twist_data(graph, tw.scaled(graph.det_abs), h)[:2]
                for r in range(1, graph.n + 1):
                    for pos in itertools.combinations(range(graph.n), r):
                        assert counting_qp_closed(graph, g, pos, lbar) == \
                            _inline_closed(graph, g, pos, lbar)
    # stars whose SW invariants differ between classes, so a term read at
    # the wrong class shows; then seeded random trees
    stars = [parse_graph(f"v 1 {e0}\nv 2 -2\nv 3 {b}\nv 4 {c}\ne 1 2\ne 1 3\ne 1 4\n")
             for e0, b, c in ((-1, -3, -11), (-1, -5, -7), (-2, -3, -7))]
    rng = random.Random(29)
    graphs = stars + [random_rational_graph(rng, max_vertices=5, order_cap=30)
                      for _ in range(12)]
    for graph in graphs:
        for _ in range(4):
            g, pos = random_class(rng, graph), random_positions(rng, graph)
            lbar = RationalCycle(tuple(rng.randint(-2, 3) for _ in range(graph.n)))
            assert counting_qp_closed(graph, g, pos, lbar) == \
                _inline_closed(graph, g, pos, lbar)
    assert all(len({sw_norm(star, h) for h in star.group.elements()}) == 2 for star in stars)


def test_each_full_term_is_computed_once(fresh_tables, monkeypatch, a3, dihedral):
    # the sweep's closed values ask the full-variable term 792 times, on the
    # two trees and on the subtrees of each complement, at 103 distinct
    # points; equal subtrees of different complements share their terms
    body = counting._full_term.__wrapped__
    evaluated, calls = [], []

    @functools.wraps(body)
    def body_spy(*args):
        evaluated.append(args)
        return body(*args)
    memo = counting._memo(body_spy)

    def term_spy(graph, y):
        calls.append((graph, y))
        return memo(graph, y)
    monkeypatch.setattr(counting, "_full_term", term_spy)
    _fixed_sweep(a3, dihedral)
    keys = set(calls)
    assert len(calls) == 792
    assert len(evaluated) == len(set(evaluated)) == len(keys) == 103
    assert any(graph not in (a3, dihedral) for graph, _ in keys)
    for graph, y in keys:
        assert counting._STORE[graph]["_full_term", y] == body(graph, y)


class _ProbeCounter(weakref.WeakKeyDictionary):
    """A store that counts the lookups made in it."""

    def __init__(self):
        super().__init__()
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_a_served_owner_makes_no_store_probe(monkeypatch, a3, dihedral):
    store = _ProbeCounter()
    monkeypatch.setattr(counting, "_STORE", store)
    _fixed_sweep(a3, dihedral)
    first = store.probes
    assert first > 0
    _fixed_sweep(a3, dihedral)  # every memo call is a hit on a served owner
    assert store.probes == first


def test_rebinding_the_store_forgets_what_an_owner_was_served(fresh_tables, monkeypatch):
    graph = parse_graph(DIHEDRAL_TEXT)
    spec = plain_zeta(graph)
    served = counting._entries(graph)
    assert counting._entries(graph) is served and ("plain_zeta",) in served
    _empty_caches(monkeypatch)
    assert counting._entries(graph) == {}
    rebuilt = plain_zeta(graph)
    assert rebuilt == spec and rebuilt is not spec
    # equal owners still share, and the entries outlive the first owner
    twin = parse_graph(DIHEDRAL_TEXT)
    assert plain_zeta(twin) is rebuilt
    assert counting._entries(twin) is counting._entries(graph)
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None and len(counting._STORE) == 0  # the first owner's key is gone
    assert plain_zeta(twin) is rebuilt  # and the twin still holds what it was served
    # serving an owner leaves its equality, hash and repr as they were
    fresh = parse_graph(DIHEDRAL_TEXT)
    assert (twin == fresh, hash(twin), repr(twin)) == (True, hash(fresh), repr(fresh))
    assert (rebuilt == spec, hash(rebuilt), repr(rebuilt)) == (True, hash(spec), repr(spec))


def test_refused_closed_values_store_nothing(fresh_tables, monkeypatch, a3):
    h = a3.group.elements()[1]
    half = RationalCycle((1, 0, 0), 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="lattice cycle"):
            counting_qp_closed(a3, h, (0, 2), half)
    assert _closed_tags(a3) == []
    lbar = RationalCycle((0, 1, 1))
    expected = counting_qp_closed(a3, h, (0, 2), lbar)
    _empty_caches(monkeypatch)  # a served owner keeps its entries until the store is rebound

    closed = counting._line_count

    def off_quadratic(p, q, r, line, tt):
        # a cubic in the line's top, which moves with the sample point, puts
        # the fourth count off the quadratic
        return closed(p, q, r, line, tt) + tt ** 3
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_line_count", off_quadratic)
        with pytest.raises(InternalCheckError, match="not quadratic"):
            counting_qp_closed(a3, h, (0, 2), lbar)
    assert _closed_tags(a3) == []
    assert counting_qp_closed(a3, h, (0, 2), lbar) == expected
    assert _closed_tags(a3) == [("_counting_qp_closed", h, (0, 2), lbar)]


def _count_tags(spec):
    return [tag for tag in counting._STORE.get(spec, {}) if tag[0] == "_point_counts"]


def _spy_point_bodies(monkeypatch, names) -> list:
    """Replace each named memoised count by a memo over a spy on its body,
    under the same name, so stored counts are shared; returns the evaluated
    ``(name, *key)`` tags."""
    evaluated = []
    for name in names:
        body = getattr(counting, name).__wrapped__

        @functools.wraps(body)
        def body_spy(*args, name=name, body=body):
            evaluated.append((name, *args))
            return body(*args)
        monkeypatch.setattr(counting, name, counting._memo(body_spy))
    return evaluated


def test_each_point_count_is_computed_once(fresh_tables, monkeypatch, a3, dihedral):
    # the fixed duality sweep: counting_Q and counting_q at one point, and
    # the modified side, ask the same counts again, and read them back: a
    # table's spec from one read of its count table, the chain from one
    # closed count per union
    names = ("_point_counts", "_two_gen_count")
    bodies = {name: getattr(counting, name).__wrapped__ for name in names}
    evaluated = _spy_point_bodies(monkeypatch, names)
    calls = []
    for name, union in (("counting_q", False), ("counting_Q", True)):
        def count_spy(spec, residue, positions, x, count=getattr(counting, name),
                      union=union):
            key = (spec, tuple(residue), tuple(sorted(positions)), x.scaled(spec.den))
            calls.append(("_two_gen_count", *key, union) if len(spec.dens) == 2
                         else ("_point_counts", *key))
            return count(spec, residue, positions, x)
        monkeypatch.setattr(counting, name, count_spy)
        monkeypatch.setattr(f"resgraph.embedded.{name}", count_spy)
    _fixed_sweep(a3, dihedral)
    keys = set(calls)
    assert len(evaluated) == len(keys) < len(calls)
    assert set(evaluated) == keys
    # the chain's counts of both unions and the table counts are all asked
    assert {tag[-1] for tag in keys if tag[0] == "_two_gen_count"} == {False, True}
    assert any(tag[0] == "_point_counts" for tag in keys)
    for name, spec, *key in keys:
        assert counting._STORE[spec][(name, *key)] == bodies[name](spec, *key)


def test_refused_point_counts_store_nothing(fresh_tables, monkeypatch, dihedral):
    spec = plain_zeta(dihedral)
    x = dihedral.canonical + 2 * dihedral.sum_duals
    residue = dihedral.residue(x)
    pos = (0, 1, 2)
    expected = counting_q(spec, residue, pos, x)
    _empty_caches(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(counting, "TABLE_STATE_CAP", 10)
        for _ in range(2):
            with pytest.raises(TableBudgetExceeded):
                counting_q(spec, residue, pos, x)
    assert _count_tags(spec) == []
    # the refusal of the one count table, on every position, is all that is kept
    assert ("refused", (0, 1, 2, 3)) in counting._STORE[spec]
    _empty_caches(monkeypatch)  # forget the refusal the small cap recorded
    assert counting_q(spec, residue, pos, x) == expected
    assert _count_tags(spec) == [("_point_counts", residue, pos, x.scaled(spec.den))]


def test_disjoint_singleton_queries_grow_one_table(fresh_tables, monkeypatch):
    # the count table's bound on a position is the largest target asked
    # there, whatever the other positions were: after a query on {0} and one
    # on {1}, each at 20, the table is the region with y0 < 20 or y1 < 20,
    # 184 cells here, where the box tables on {0} and on {1} hold 20 each.
    # So the cell bound holds per query, not across queries: under a cap
    # between the two, the second query is refused, and answers on its own
    spec = synthetic_spec([(1, (0, 0))], [(2, 3), (3, 1), (1, 2)])
    zero = (0, 0)
    first, second = ((0,), RationalCycle((20, 0))), ((1,), RationalCycle((0, 20)))
    values = [counting_Q(spec, zero, pos, x) for pos, x in (first, second)]
    assert values == [brute_count(spec, zero, pos, x, strict_all=False)
                      for pos, x in (first, second)]
    assert counting._STORE[spec]["held",] == 184
    for pos, x in (first, second):
        _empty_caches(monkeypatch)
        counting_Q(spec, zero, pos, x)
        assert counting._STORE[spec]["held",] == 20
    _empty_caches(monkeypatch)
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 100)
    assert counting_Q(spec, zero, *first) == values[0]
    with pytest.raises(TableBudgetExceeded):
        counting_Q(spec, zero, *second)
    assert counting._STORE[spec]["refused", (0, 1)] == (20, 20)
    _empty_caches(monkeypatch)
    assert counting_Q(spec, zero, *second) == values[1]


def test_equal_graphs_share_their_entries(fresh_tables, monkeypatch):
    # owners match by equality: a second parse of the same file reads the
    # first graph's entries and counts nothing again
    first = parse_graph(DIHEDRAL_TEXT)
    h = first.group.elements()[3]
    value = sw_norm(first, h)
    counted = []
    count = counting.counting_Q

    def counting_Q_spy(*args):
        counted.append(args)
        return count(*args)
    monkeypatch.setattr(counting, "counting_Q", counting_Q_spy)
    second = parse_graph(DIHEDRAL_TEXT)
    assert second is not first and second == first
    assert sw_norm(second, h) == value
    assert sw_norm(graph=second, h=h) == value
    assert plain_zeta(second) is plain_zeta(first)
    assert counted == []
    assert len(counting._STORE) == 2  # the first graph and its plain spec


@pytest.mark.parametrize("positions, first, second", [
    ((0, 2), (200, 260), (290, 250)),        # two coordinates, grown to (290, 260)
    ((0, 1, 3), (9, 12, 10), (19, 17, 21)),  # sparse, three coordinates
])
def test_grown_table_restricts_to_exact_build(dihedral, fresh_tables,
                                              positions, first, second):
    spec = plain_zeta(dihedral)
    _table_for(spec, positions, first)
    assert counting._STORE[spec]["table", positions][0] == first  # first builds are exact
    grown = _table_for(spec, positions, second)
    union = tuple(max(a, b) for a, b in zip(first, second))
    assert counting._STORE[spec]["table", positions][0] == union  # and so are grown ones
    assert _table_cells(grown) == _table_cells(_build_sparse(spec, positions, union))
    for box in (second, union):
        exact = _build_sparse(spec, positions, box)
        assert _restricted(grown, box) == _restricted(exact, box) == \
            _table_cells(_oracle_table(spec, positions, box))


def _spy_builds(monkeypatch) -> list:
    """The boxes ``_table_for`` hands to ``_build_sparse`` from now on."""
    built = []
    build = counting._build_sparse
    monkeypatch.setattr(counting, "_build_sparse",
                        lambda spec, positions, bounds, held: built.append(bounds)
                        or build(spec, positions, bounds, held))
    return built


def _refused(spec, positions, box):
    with pytest.raises(counting.TableBudgetExceeded):
        _table_for(spec, positions, box)
    return counting._STORE[spec]["refused", positions]


def test_refused_boxes_are_recorded_and_cover_larger_ones(monkeypatch, fresh_tables):
    # one generator t: a box of b cells holds exactly b cells, so boxes over
    # 100 are refused once their build passes the cap
    spec = synthetic_spec([(1, (0,))], [(1,)])
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 100)
    built = _spy_builds(monkeypatch)
    assert _refused(spec, (0,), (110,)) == (110,)  # built, over the cap
    assert built == [(110,)]
    assert _refused(spec, (0,), (120,)) == (110,)  # covers the record: nothing is built
    assert built == [(110,)]
    _table_for(spec, (0,), (50,))
    _table_for(spec, (0,), (70,))  # grows to exactly the union
    table = _table_for(spec, (0,), (99,))  # and still builds just under the record
    assert built == [(110,), (50,), (70,), (99,)]
    assert counting._STORE[spec]["table", (0,)][0] == (99,)
    assert _table_for(spec, (0,), (60,)) is table  # inside the union: served
    assert built == [(110,), (50,), (70,), (99,)]


def test_table_budget_holds_per_spec(monkeypatch, fresh_tables):
    # one generator (1, 1) on two variables: a box of b along either one
    # holds exactly b cells, and the two tables share one budget of 100
    spec = synthetic_spec([(1, (0, 0))], [(1, 1)])
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 100)
    built = _spy_builds(monkeypatch)

    def held():
        return sum(len(cs) for tag, entry in counting._STORE[spec].items()
                   if tag[0] == "table" for _, cs in entry[1].values())

    _table_for(spec, (0,), (60,))
    _table_for(spec, (0,), (90,))  # grown, not charged for its own 60 cells
    assert held() == 90
    assert _refused(spec, (1,), (20,)) == (20,)  # 90 + 20 cells are over the cap
    assert held() == 90
    _table_for(spec, (1,), (10,))  # 90 + 10 cells fit exactly
    assert held() == 100
    assert _refused(spec, (1,), (30,)) == (20,)  # covers the record: nothing is built
    assert _refused(spec, (0,), (95,)) == (95,)  # 95 + 10 cells are over the cap
    assert built == [(60,), (90,), (20,), (10,), (95,)]
    assert held() == 100
    assert [counting._STORE[spec]["table", pos][0] for pos in [(0,), (1,)]] == [(90,), (10,)]


# ---------------------------------------------------------------------------
# one-variable periodic constants

def sampled_constant(spec, residue, p, base, count=None) -> int:
    """Oracle for the constant of a class part along coordinate p: its
    counting function is a quasi-polynomial of degree <= r (r generators)
    whose period divides Pi = lcm_i(o_i g_i[p] / den), exact past the largest
    numerator shift; r + 1 counts at multiples of Pi there, interpolated to
    0, give it.  ``count(k)`` is the count k steps past the base,
    ``counting_q`` unless given."""
    d = spec.den
    bs = base.scaled(d)
    orders = [d // math.gcd(d, *gen) for gen in spec.dens]
    period = math.lcm(1, *(o * gen[p] // d for o, gen in zip(orders, spec.dens)))
    shift = (max(b[p] for _, b in spec.num) - bs[p]) // d
    ks = [(max(shift, 0) // period + 1 + j) * period for j in range(len(spec.dens) + 1)]
    if count is None:
        unit = RationalCycle(tuple(int(i == p) for i in range(spec.nvars)))

        def count(k):
            return counting_q(spec, residue, (p,), base + k * unit)
    total = Fraction(0)
    for i, k in enumerate(ks):
        weight = math.prod(Fraction(-kj, k - kj) for j, kj in enumerate(ks) if j != i)
        total += count(k) * weight
    assert total.denominator == 1
    return int(total)


def _pair_constant(spec, residue, p, base) -> int:
    """``sampled_constant`` of a two-generator spec with every count taken
    by enumerating the multiplicity pairs (``_pair_count``), independently
    of the closed counts the production route samples."""
    bs = base.scaled(spec.den)

    def count(k):
        xs = tuple(x + k * spec.den if i == p else x for i, x in enumerate(bs))
        return _pair_count(spec, residue, (p,), xs)
    return sampled_constant(spec, residue, p, base, count)


def one_var_pc(num, dens):
    spec = synthetic_spec(num=num, dens=dens, den=1)
    return fitted_qp_value(spec, (0,), 0, RationalCycle((0,)))


def test_full_semigroup_has_zero_constant():
    assert one_var_pc([(1, (0,))], [(1,)]) == 0


def test_gap_series_constant_counts_gaps():
    # the numerical semigroup generated by 2 and 3 has one gap
    assert one_var_pc([(1, (0,)), (-1, (6,))], [(2,), (3,)]) == -1
    # generated by 2 and 7: gaps 1, 3, 5
    assert one_var_pc([(1, (0,)), (-1, (14,))], [(2,), (7,)]) == -3


def test_polynomial_constant_is_coefficient_sum():
    assert one_var_pc([(1, (0,)), (2, (3,)), (-1, (5,))], []) == 2


@st.composite
def _one_variable_parts(draw):
    """A synthetic spec on up to two variables with den <= 12, up to three
    generators and 1-3 signed numerator terms, some below the base; a kept
    coordinate p, a base, and a residue that agrees with the base on p."""
    nvars = draw(st.integers(1, 2))
    den = draw(st.integers(1, 12))
    vec = st.lists(st.integers(1, 9), min_size=nvars, max_size=nvars)
    num = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]),
                                  st.lists(st.integers(-20, 30), min_size=nvars,
                                           max_size=nvars)),
                        min_size=1, max_size=3))
    spec = synthetic_spec(num, draw(st.lists(vec, max_size=3)), den=den)
    p = draw(st.integers(0, nvars - 1))
    base = RationalCycle(tuple(draw(st.integers(-15, 25)) for _ in range(nvars)), den)
    residue = tuple(a % den if i == p else draw(st.integers(0, den - 1))
                    for i, a in enumerate(base.scaled(den)))
    return spec, residue, p, base


@settings(max_examples=200, deadline=None)
@given(_one_variable_parts())
def test_one_variable_division_matches_sampled_counts(case):
    # two generators sample closed counts in production, so their oracle
    # enumerates pairs instead
    spec, residue, p, base = case
    oracle = _pair_constant if len(spec.dens) == 2 else sampled_constant
    assert fitted_qp_value(spec, residue, p, base) == oracle(spec, residue, p, base)


def test_sparse_division_matches_sampled_counts_on_a_long_denominator():
    # deg D = 50 + 60 + 75 = 185 while D has 8 nonzero terms, and three
    # generators read their coefficient row off one table; numerator terms
    # in every class mod 3, some below the base
    spec = synthetic_spec([(1, (0,)), (-2, (6,)), (1, (-9,)), (3, (21,)), (5, (4,))],
                          [(150,), (180,), (225,)], den=3)
    for k in (0, 1, -6, 11):
        base = RationalCycle((k,), 3)
        residue = (k % 3,)
        _, degs = counting._step_bound(spec, 0, base.scaled(3))
        assert sum(degs) >= 100
        assert fitted_qp_value(spec, residue, 0, base) == \
            sampled_constant(spec, residue, 0, base)


def test_one_variable_row_off_the_base_steps_is_an_internal_error():
    # a residue that disagrees with the base on p puts the class's
    # exponents between the base's steps
    spec = synthetic_spec([(1, (0,))], [(1,), (2,), (3,)], den=2)
    with pytest.raises(InternalCheckError, match="off the base's steps"):
        fitted_qp_value(spec, (1,), 0, RationalCycle((0,)))


def test_one_position_relative_constants_match_sampled_counts():
    # relative series, twisted or not, in every class, on one position: the
    # exact division against the sampled oracle; a draw is skipped only
    # when a sampled table is over the budget
    rng = random.Random(1616)
    checked = 0
    for _ in range(40):
        graph = random_unit_arrows(rng, random_rational_graph(rng, max_vertices=6))
        marked = [v for v, a in zip(graph.ids, graph.arrows) if a]
        twist = random_antinef(rng, graph, max_coeff=1) if rng.random() < 0.5 else None
        spec = build_zeta(graph, twist=twist, relative=marked)
        h = random_class(rng, graph)
        p = rng.randrange(graph.n)
        value = periodic_constant_reduced(graph, spec, h, (p,))
        r = graph.group.frac_rep(h)
        try:
            oracle = sampled_constant(spec, graph.residue(r), p, r)
        except TableBudgetExceeded:
            continue
        assert value == oracle
        checked += 1
    assert checked >= 36


def test_closed_constants_on_proper_subsets_match_sampled_counts():
    # the surgery closed form the entry takes for a plain spec on one
    # position of a larger tree, twisted or not, against the sampled oracle
    rng = random.Random(1717)
    checked = 0
    for _ in range(60):
        graph = random_rational_graph(rng, max_vertices=6)
        if graph.n < 2:
            continue
        twist = random_antinef(rng, graph, max_coeff=1) if rng.random() < 0.5 else None
        spec = build_zeta(graph, twist=twist)
        h = random_class(rng, graph)
        p = rng.randrange(graph.n)
        value = periodic_constant_reduced(graph, spec, h, (p,))
        r = graph.group.frac_rep(h)
        try:
            oracle = sampled_constant(spec, graph.residue(r), p, r)
        except TableBudgetExceeded:
            continue
        assert value == oracle
        checked += 1
    assert checked >= 36


# ---------------------------------------------------------------------------
# normalised SW and periodic constants on graphs

def _sw_probe(graph: ResolutionGraph, h: tuple[int, ...]) -> int:
    """Oracle for the normalised SW invariant, read off the counting
    function in all variables: probes at two depths inside the cone shifted
    by the canonical cycle, whose stabilised values must agree."""
    r = graph.group.frac_rep(h)
    spec = plain_zeta(graph)
    vals = []
    for margin in (1, 2):
        shift = graph.canonical + margin * graph.sum_duals
        probe = laufer_saturate(graph, r - shift) + shift
        q = counting_Q(spec, graph.residue(probe), tuple(range(graph.n)), probe)
        vals.append(q - chi(graph, probe) + chi(graph, r))
    assert vals[0] == vals[1] and vals[0].denominator == 1, vals
    return int(vals[0])


def test_sw_trivial_class_on_rational(a3):
    assert sw_norm(a3, a3.group.zero) == 0


def test_sw_rational_identity(a3, dihedral):
    for g in (a3, dihedral):
        grp = g.group
        for h in grp.elements():
            expect = chi(g, grp.frac_rep(h)) - chi(g, min_antinef_rep(g, h))
            assert sw_norm(g, h) == expect


def test_sw_brieskorn_regression(brieskorn):
    # the non-rational germ, through its node and by the two-margin probe;
    # frozen after validating both probes against the brute-force oracle
    assert sw_norm(brieskorn, ()) == _sw_probe(brieskorn, ()) == 1


def test_two_node_sw_takes_subtree_terms(fresh_tables, monkeypatch):
    # a tree with two nodes has no one vertex whose constant is the SW
    # invariant: its route adds subtree terms to one vertex's constant and
    # makes no full-variable count; on this rational tree with |H| = 16
    # every class equals chi(r_h) - chi(s_h) and the two-margin probe
    graph = parse_graph(TWO_NODE_TEXT)
    assert artin_rationality(graph)[1] and graph.det_abs == 16
    grp = graph.group
    probes = [_sw_probe(graph, h) for h in grp.elements()]
    calls = []
    count = counting.counting_Q
    monkeypatch.setattr(counting, "counting_Q", lambda *args: calls.append(args) or count(*args))
    assert counting._sw_route(graph)[1]
    assert [sw_norm(graph, h) for h in grp.elements()] == probes == \
        [chi(graph, grp.frac_rep(h)) - chi(graph, min_antinef_rep(graph, h))
         for h in grp.elements()]
    assert calls == []


def _random_two_node_tree(rng: random.Random) -> ResolutionGraph:
    """A negative definite tree with exactly two nodes, adjacent or joined
    through one vertex, each with two leaves: six or seven vertices with
    Euler numbers from -4 to -1 and determinant at most 8, rational or
    not."""
    while True:
        eulers, edges = {1: rng.randint(-4, -1)}, []
        for _ in range(rng.randint(1, 2)):  # the path to the second node
            edges.append((len(eulers), len(eulers) + 1))
            eulers[len(eulers) + 1] = rng.randint(-4, -1)
        for node in (1, len(eulers)):
            for _ in range(2):
                edges.append((node, len(eulers) + 1))
                eulers[len(eulers) + 1] = rng.randint(-4, -1)
        try:
            graph = ResolutionGraph.build(eulers, edges)
        except NotNegativeDefiniteError:
            continue
        if graph.det_abs <= 8:
            return graph


def test_two_node_sw_matches_the_probe(fresh_tables):
    # the surgery formula on one vertex, its constant plus the subtree
    # terms, against the two-margin probe in all variables, on every class
    # of seeded random two-node trees
    rng = random.Random(3131)
    kinds = set()
    classes = 0
    for _ in range(8):
        graph = _random_two_node_tree(rng)
        assert [v >= 3 for v in graph.valences].count(True) == 2
        assert counting._sw_route(graph)[1]
        kinds.add(artin_rationality(graph)[1])
        for h in graph.group.elements():
            assert sw_norm(graph, h) == _sw_probe(graph, h)
            classes += 1
    assert kinds == {True, False}
    assert classes >= 40


NON_RATIONAL_TWO_NODE_TEXT = ("v 1 -2\nv 2 -2\nv 3 -5\nv 4 -2\nv 5 -3\nv 6 -2\n"
                              "e 1 4\ne 2 4\ne 2 5\ne 2 6\ne 3 4\n")
NON_RATIONAL_STAR_TEXT = ("v 1 -1\nv 2 -2\nv 3 -3\nv 4 -5\nv 5 -5\nv 6 -5\n"
                          "e 1 2\ne 1 4\ne 1 5\ne 2 6\ne 3 4\n")


def _non_rational_trees():
    """The two trees above and six seeded draws kept only when not rational:
    six to nine vertices, Euler numbers from (-1, -2, -2, -2, -3, -5) and
    2 <= |H| <= 60."""
    graphs = [parse_graph(NON_RATIONAL_TWO_NODE_TEXT), parse_graph(NON_RATIONAL_STAR_TEXT)]
    rng = random.Random(7)
    while len(graphs) < 8:
        n = rng.randint(6, 9)
        edges = _random_tree_edges(rng, n)
        eulers = {v: rng.choice((-1, -2, -2, -2, -3, -5)) for v in range(1, n + 1)}
        try:
            graph = ResolutionGraph.build(eulers, edges)
        except NotNegativeDefiniteError:
            continue
        if 2 <= graph.det_abs <= 60 and not artin_rationality(graph)[1]:
            graphs.append(graph)
    return graphs


def test_sw_value_is_the_same_at_every_vertex(fresh_tables):
    # the surgery formula with I = {v} holds at every vertex v: the
    # one-variable constant at v plus the full terms of the subtrees of
    # G - v give sw_norm, which reads one vertex, on every class
    graphs = _non_rational_trees()
    assert [g.det_abs for g in graphs[:2]] == [31, 19]
    assert not any(artin_rationality(g)[1] for g in graphs)
    assert any([v >= 3 for v in g.valences].count(True) == 2 for g in graphs)
    classes = 0
    for graph in graphs:
        spec = plain_zeta(graph)
        for h in graph.group.elements():
            r = graph.group.frac_rep(h)
            for v in range(graph.n):
                pieces = counting._components(graph, (graph.ids[v],))
                value = fitted_qp_value(spec, graph.residue(r), v, r) + \
                    sum(counting._full_term(p.graph, p.project(r)) for p in pieces)
                assert value == sw_norm(graph, h), (graph, h, v)
            classes += 1
    assert classes >= 100


def test_two_node_sw_refused_at_its_vertex_is_inconclusive(fresh_tables, monkeypatch):
    # a table over the budget at the route's vertex is the answer: no other
    # vertex is tried, the route is decided once per graph, and the SW
    # check counts every class inconclusive
    vertex = counting._sw_route(parse_graph(TWO_NODE_TEXT))[0]
    _empty_caches(monkeypatch)
    graph = parse_graph(TWO_NODE_TEXT)
    spec = plain_zeta(graph)
    refused, removed = [], []
    table_for, components = counting._table_for, counting._components

    def refusing(spec_, positions, bounds):
        if spec_ == spec and len(positions) == 1:
            refused.append(positions)
            raise TableBudgetExceeded(bounds)
        return table_for(spec_, positions, bounds)
    monkeypatch.setattr(counting, "_table_for", refusing)
    monkeypatch.setattr(counting, "_components",
                        lambda g, ids: removed.append(ids) or components(g, ids))
    with pytest.raises(TableBudgetExceeded):
        sw_norm(graph, graph.group.elements()[0])
    lines = []
    cases = [(f"h={h}", functools.partial(check_sw, graph, h))
             for h in graph.group.elements()]
    assert tally(cases, lines) == (0, 0, 16)
    assert all(line.startswith("  inconclusive h=")
               and line.endswith(": partition table over the cell budget") for line in lines)
    assert refused == [(vertex,)] * 17
    assert removed == [(graph.ids[vertex],)]


def _random_star(rng: random.Random) -> ResolutionGraph:
    """A negative definite tree with exactly one node: three or four legs
    of one or two vertices, at most six vertices, determinant at most 40,
    rational or not."""
    while True:
        eulers, edges = {1: rng.randint(-4, -1)}, []
        for _ in range(rng.randint(3, 4)):
            prev = 1
            for _ in range(rng.randint(1, 2)):
                v = len(eulers) + 1
                eulers[v] = rng.randint(-4, -2)
                edges.append((prev, v))
                prev = v
        try:
            graph = ResolutionGraph.build(eulers, edges)
        except NotNegativeDefiniteError:
            continue
        if graph.n <= 6 and graph.det_abs <= 40:
            return graph


def test_star_sw_through_the_node_matches_the_probe(fresh_tables):
    # the one-variable constant at the node against the two-margin probe in
    # all variables, on every class of seeded random stars
    rng = random.Random(1818)
    kinds = set()
    classes = 0
    for _ in range(16):
        graph = _random_star(rng)
        assert [v >= 3 for v in graph.valences].count(True) == 1
        kinds.add(artin_rationality(graph)[1])
        for h in graph.group.elements():
            assert sw_norm(graph, h) == _sw_probe(graph, h)
            classes += 1
    assert kinds == {True, False}
    assert classes >= 100


def test_star_sw_takes_no_full_count(dihedral, brieskorn, a3, fresh_tables, monkeypatch):
    # a star's SW invariants come from one node table and a chain's from
    # closed counts at one vertex, with no counting_Q call
    calls = []
    count = counting.counting_Q
    monkeypatch.setattr(counting, "counting_Q", lambda *args: calls.append(args) or count(*args))
    for g in (dihedral, brieskorn, a3):
        for h in g.group.elements():
            sw_norm(g, h)
    assert calls == []


def test_star_sw_falls_back_to_the_probe(brieskorn, dihedral, fresh_tables, monkeypatch):
    # a node table over the budget sends the star to another vertex and its
    # subtree terms, which keep the probe's value, and it is refused once
    # per graph, not once per class
    table_for = counting._table_for
    for g in (brieskorn, dihedral):
        node = g.valences.index(3)
        refused = []

        def refusing(spec, positions, bounds):
            if positions == (node,) and bounds == (counting._row_box(spec, node),):
                refused.append(bounds)
                raise TableBudgetExceeded(bounds)
            return table_for(spec, positions, bounds)
        probes = [_sw_probe(g, h) for h in g.group.elements()]
        with monkeypatch.context() as mp:
            mp.setattr(counting, "_table_for", refusing)
            assert [sw_norm(g, h) for h in g.group.elements()] == probes
        assert len(refused) == 1
        assert counting._sw_route(g)[1]


def _random_chain(rng: random.Random) -> ResolutionGraph:
    """A negative definite chain of one to seven vertices with Euler
    numbers from -9 to -1."""
    while True:
        n = rng.randint(1, 7)
        eulers = {v: rng.randint(-9, -1) for v in range(1, n + 1)}
        try:
            return ResolutionGraph.build(eulers, [(v, v + 1) for v in range(1, n)])
        except NotNegativeDefiniteError:
            continue


def _chain_period(graph: ResolutionGraph) -> int:
    """The largest Pi, the lcm of the denominator exponents, over the
    chain's vertices."""
    spec = plain_zeta(graph)
    return max(math.lcm(*counting._step_bound(spec, p, (0,) * graph.n)[1])
               for p in range(graph.n))


def _assert_chain_sw_matches_the_probe(graph, classes):
    spec = plain_zeta(graph)
    for h in classes:
        probe = _sw_probe(graph, h)
        assert sw_norm(graph, h) == probe
        r = graph.group.frac_rep(h)
        assert [fitted_qp_value(spec, graph.residue(r), p, r)
                for p in range(graph.n)] == [probe] * graph.n


def test_chain_sw_at_every_vertex_matches_the_probe(fresh_tables):
    # a chain has no node, so its constant survives reduction to any one
    # vertex: four closed counts there against the two-margin probe, on
    # every class of seeded random chains with |H| <= 80
    rng = random.Random(2121)
    chains = classes = 0
    while chains < 40:
        graph = _random_chain(rng)
        if graph.det_abs > 80:
            continue
        assert len(plain_zeta(graph).dens) == 2
        _assert_chain_sw_matches_the_probe(graph, graph.group.elements())
        chains += 1
        classes += graph.det_abs
    assert classes >= 800


def test_chain_sw_with_a_long_period_matches_the_probe(fresh_tables):
    # Pi >= 10,000 costs the closed counts nothing: ten seeded classes of
    # each of the first three such chains, at every vertex
    rng = random.Random(2121)
    periods = []
    while len(periods) < 3:
        graph = _random_chain(rng)
        if (period := _chain_period(graph)) >= 10_000:
            periods.append(period)
            _assert_chain_sw_matches_the_probe(
                graph, [random_class(rng, graph) for _ in range(10)])
    assert max(periods) >= 40_000
    assert not any(tag[0] == "table" for entries in counting._STORE.values()
                   for tag in entries)


def test_two_generator_samples_off_the_quadratic_are_an_internal_error(a3, monkeypatch):
    # the fourth closed count must lie on the quadratic through the first
    # three; the check is an explicit raise, so it holds under python -O
    r = a3.group.frac_rep(a3.group.elements()[1])
    closed = counting._line_count
    calls = itertools.count()
    monkeypatch.setattr(counting, "_line_count",
                        lambda *args: closed(*args) + (next(calls) % 4 == 3))
    with pytest.raises(InternalCheckError, match="not quadratic"):
        fitted_qp_value(plain_zeta(a3), a3.residue(r), 1, r)


def test_two_generator_base_above_every_shift_samples_past_it(monkeypatch):
    # the semigroup <2, 3> from base 100: the degree bound is negative, and
    # the samples still sit at positive multiples of Pi = 6 past the base;
    # 99 + k semigroup elements lie below 100 + k, so the constant is 99
    spec = synthetic_spec([(1, (0,)), (-1, (6,))], [(2,), (3,)], den=1)
    base = RationalCycle((100,))
    assert counting._step_bound(spec, 0, (100,))[0] < 0
    tops = []
    closed = counting._line_count

    def spy(p, q, r, line, tt):
        tops.append(tt)
        return closed(p, q, r, line, tt)
    monkeypatch.setattr(counting, "_line_count", spy)
    assert fitted_qp_value(spec, (0,), 0, base) == 99 == _pair_constant(spec, (0,), 0, base)
    # every pair is in the coset (p = s = 1, c = 0), so the term t^b counts
    # at the sample point x under the line (2, 3, x - b - 1): four points per
    # term, the term t^0 first
    points = [(top + 1 + b,) for top, b in zip(tops, [0] * 4 + [6] * 4)]
    assert points == [(106,), (112,), (118,), (124,)] * 2


def _four_count_constant(spec, residue, p, bs, bound, period) -> int:
    """The two-generator constant as four separate ``_two_gen_count`` calls,
    each finding its own coset, at j0 .. j0 + 3 periods past the degree
    bound, with the same check and Newton extrapolation as production."""
    j0 = max(bound, 0) // period + 1
    ys = []
    for j in range(j0, j0 + 4):
        xs = tuple(x + j * period * spec.den if i == p else x for i, x in enumerate(bs))
        ys.append(counting._two_gen_count(spec, residue, (p,), xs, union=False))
    y0, y1, y2, y3 = ys
    if y3 - 3 * y2 + 3 * y1 - y0:
        raise InternalCheckError(
            f"two-generator counts along coordinate {p} are not quadratic in "
            f"steps of {period} past the degree bound: {ys}")
    return y0 - j0 * (y1 - y0) + j0 * (j0 + 1) // 2 * (y2 - 2 * y1 + y0)


def _assert_constant_matches_four_counts(spec, residue, p, bs):
    bound, degs = counting._step_bound(spec, p, bs)
    outcomes = []
    for constant in (counting._two_gen_constant, _four_count_constant):
        try:
            outcomes.append(constant(spec, residue, p, bs, bound, math.lcm(*degs)))
        except InternalCheckError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], (spec, residue, p, bs)


@settings(max_examples=300, deadline=None)
@given(_two_generator_points(), st.data())
def test_two_generator_constant_matches_four_separate_counts(case, data):
    # synthetic specs: up to three signed numerator terms, den up to 12, and
    # bases below, among or above every numerator shift
    spec, residue, positions, xs = case
    lift = data.draw(st.sampled_from([0, 50]))
    _assert_constant_matches_four_counts(spec, residue, positions[0],
                                         tuple(x + lift for x in xs))


def test_chain_constants_match_four_separate_counts():
    # every class at every vertex of the stored chains and of seeded random
    # rational chains
    stored = sorted((Path(__file__).resolve().parent.parent / "graphs").glob("*.graph"))
    chains = [g for g in (parse_graph(path.read_text()) for path in stored)
              if len(plain_zeta(g).dens) == 2]
    assert chains
    rng = random.Random(2727)
    drawn = 0
    while drawn < 40:
        graph = random_rational_graph(rng, max_vertices=6, order_cap=120)
        if len(plain_zeta(graph).dens) == 2:
            chains.append(graph)
            drawn += 1
    for graph in chains:
        spec = plain_zeta(graph)
        for h in graph.group.elements():
            r = graph.group.frac_rep(h)
            for p in range(graph.n):
                _assert_constant_matches_four_counts(spec, graph.residue(r), p,
                                                     r.scaled(spec.den))


def test_reduced_constant_matches_full(a3, dihedral):
    # on every singleton, the one-variable division of the plain spec equals
    # the surgery closed value the entry takes; in all variables the entry
    # is the full constant
    for g in (a3, dihedral):
        spec = plain_zeta(g)
        for h in g.group.elements():
            base = g.group.frac_rep(h)
            for p in range(g.n):
                assert fitted_qp_value(spec, g.residue(base), p, base) == \
                    periodic_constant_reduced(g, spec, h, (p,))
            assert periodic_constant_reduced(g, spec, h, range(g.n)) == \
                periodic_constant_full(g, spec, h)


def test_relative_constant_in_all_variables_is_fitted(a3, dihedral):
    # every vertex marked is still a relative series, not the plain zeta
    # function: its closed value (0 on both graphs) does not apply
    for g in (a3, dihedral):
        spec = build_zeta(g, relative=g.ids)
        fit = _relative_pc(g, g.ids)
        assert fit == 1
        assert periodic_constant_full(g, spec, g.group.zero) == fit
        assert periodic_constant_reduced(g, spec, g.group.zero, range(g.n)) == fit


def _count_routes(monkeypatch) -> dict:
    """Calls of the two relative routes, by name."""
    calls = {"quasipoly_value": 0, "fitted_qp_value": 0}
    for name in calls:
        route = getattr(counting, name)

        def counted(*args, _route=route, _name=name):
            calls[_name] += 1
            return _route(*args)
        monkeypatch.setattr(counting, name, counted)
    return calls


def test_only_proper_subsets_are_fitted(dihedral, monkeypatch):
    # a plain spec, twisted or not, takes the closed form on every subset;
    # a relative series takes the division on one position and the
    # polynomial count on its marked vertices.  The closed forms are stubbed:
    # the SW values they read may or may not be stored already, and
    # computing one reaches fitted_qp_value at the node
    calls = _count_routes(monkeypatch)
    closed = []
    for name in ("counting_qp_closed", "modified_qp_closed"):
        monkeypatch.setattr(counting, name,
                            lambda *args, _name=name: closed.append(_name) or 0)
    for tw in (None, dihedral.dual(1)):
        spec = build_zeta(dihedral, twist=tw)
        for h in dihedral.group.elements():
            for r in range(1, dihedral.n + 1):
                for pos in itertools.combinations(range(dihedral.n), r):
                    for modified in (False, True):
                        periodic_constant_reduced(dihedral, spec, h, pos, modified)
    assert calls == {"quasipoly_value": 0, "fitted_qp_value": 0}
    each = 2 * len(dihedral.group.elements()) * (2 ** dihedral.n - 1)
    assert closed.count("counting_qp_closed") == closed.count("modified_qp_closed") == each
    relative = build_zeta(dihedral, twist=dihedral.dual(1), relative=(1, 3))
    periodic_constant_reduced(dihedral, relative, dihedral.group.zero, (2,))
    assert calls == {"quasipoly_value": 0, "fitted_qp_value": 1}
    periodic_constant_reduced(dihedral, relative, dihedral.group.zero, (0, 2))
    # the count checks itself against the division on both of its positions
    assert calls == {"quasipoly_value": 1, "fitted_qp_value": 3}


def test_relative_modified_constant_is_refused(dihedral):
    spec = build_zeta(dihedral, relative=(1, 3))
    for pos in ((0,), (0, 2)):
        with pytest.raises(ValueError, match="no modified periodic constant"):
            periodic_constant_reduced(dihedral, spec, dihedral.group.zero, pos,
                                      modified=True)


def test_relative_polynomial_count_needs_its_marked_vertices():
    # one arrow reduced to two positions is no polynomial, yet the count past
    # the degree bound is 2 here and does not move one step further; both
    # one-variable constants are 0, and the route compares the count with them
    g = parse_graph("v 1 -1\nv 2 -4\nv 3 -4\ne 1 3\ne 2 3\n")
    tw = g.dual(2)
    spec = build_zeta(g, twist=tw, relative=(2,))
    h = (8,)
    r = g.group.frac_rep(h)
    with pytest.raises(InternalCheckError, match="not a polynomial: its count 2 "
                       "differs from the one-variable constant 0 on coordinate 0"):
        counting.quasipoly_value(spec, g.residue(r), (0, 2), r)
    assert [periodic_constant_reduced(g, spec, h, (p,)) for p in (0, 2)] == [0, 0]
    with pytest.raises(ValueError, match="marked vertices"):
        periodic_constant_reduced(g, spec, h, (0, 2))


def test_twisted_relative_polynomial_count_reads_its_twist(dihedral):
    # the count once took its degree bound from the numerator without the
    # twist and stopped short of it: "the count moves past its degree bound
    # on coordinate 0" for 6 of the 36 draws at k = 3, 6, 10, this one among
    # them
    spec = build_zeta(dihedral, twist=dihedral.dual_combination([3, 0, 3, 2]),
                      relative=(1, 3))
    zero = dihedral.group.zero
    r = dihedral.group.frac_rep(zero)
    assert counting.quasipoly_value(spec, dihedral.residue(r), (0, 2), r) == 1
    assert periodic_constant_reduced(dihedral, spec, zero, (0, 2)) == 1
    for k in (1, 3, 6, 10):
        spec = build_zeta(dihedral, twist=dihedral.dual_combination([k, 0, k, 2]),
                          relative=(1, 3))
        for h in dihedral.group.elements():
            r = dihedral.group.frac_rep(h)
            assert counting.quasipoly_value(spec, dihedral.residue(r), (0, 2), r) == \
                periodic_constant_reduced(dihedral, spec, h, (0, 2))


def test_broken_polynomial_premise_is_an_internal_error(dihedral, monkeypatch):
    # both relative routes check their premise with an explicit raise, so
    # the checks hold under python -O as well
    spec = build_zeta(dihedral, relative=(1, 3))
    zero = dihedral.group.zero
    count = counting.counting_Q
    drift = itertools.count()
    monkeypatch.setattr(counting, "counting_Q", lambda *args: count(*args) + next(drift))
    with pytest.raises(InternalCheckError, match="not a polynomial"):
        periodic_constant_reduced(dihedral, spec, zero, (0, 2))
    monkeypatch.undo()
    bound = counting._step_bound
    monkeypatch.setattr(counting, "_step_bound",
                        lambda *args: (bound(*args)[0] - 1, bound(*args)[1]))
    with pytest.raises(InternalCheckError, match="past its degree bound"):
        periodic_constant_reduced(dihedral, spec, zero, (0,))


def test_premise_checks_hold_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_counting.py", "-k",
         "broken_polynomial_premise or samples_off_the_quadratic"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("2 passed")


def test_twisted_full_constant_matches_counting(dihedral):
    # h = 0 specialisation: the constant of the twisted zero part equals the
    # counting value at the canonically shifted twist
    grp = dihedral.group
    zk = dihedral.canonical
    pspec = plain_zeta(dihedral)
    for tw in (dihedral.dual(1), dihedral.dual(2), 2 * dihedral.dual(4)):
        spec = build_zeta(dihedral, twist=tw)
        lhs = periodic_constant_full(dihedral, spec, grp.zero)
        cls = grp.class_of(zk + tw)
        rhs = counting_Q(pspec, dihedral.residue(grp.frac_rep(cls)),
                         tuple(range(4)), zk + tw)
        assert lhs == rhs


def test_fitter_agrees_with_closed_form():
    # the one-variable division of the plain spec at a shifted base, on each
    # position of a random subset, against the closed value at that shift
    rng = random.Random(77)
    checked = 0
    for _ in range(12):
        g = random_rational_graph(rng, max_vertices=5, order_cap=30)
        grp = g.group
        spec = plain_zeta(g)
        h = rng.choice(grp.elements())
        size = rng.randint(1, g.n - 1) if g.n > 1 else 1
        pos = tuple(sorted(rng.sample(range(g.n), size)))
        lbar = RationalCycle(tuple(rng.randint(-2, 2) for _ in range(g.n)))
        base = grp.frac_rep(h) + lbar
        for p in pos:
            assert fitted_qp_value(spec, g.residue(base), p, base) == \
                counting_qp_closed(g, h, (p,), lbar)
            checked += 1
    assert checked >= 12


def test_qp_closed_matches_counting_deep(dihedral):
    # deep in the cone both closed quasi-polynomial values equal the counts
    grp = dihedral.group
    spec = plain_zeta(dihedral)
    rng = random.Random(9)
    for _ in range(5):
        h = rng.choice(grp.elements())
        r = grp.frac_rep(h)
        deep = zero_cycle(4)
        for i in range(4):
            deep = deep + rng.randint(4, 5) * dihedral.duals[i]
        # nearby lattice point, still deep
        lbar = RationalCycle(tuple(a // deep.den for a in deep.num))
        pos = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
        res = dihedral.residue(r)
        assert modified_qp_closed(dihedral, h, pos, lbar) == \
            counting_q(spec, res, pos, r + lbar)
        assert counting_qp_closed(dihedral, h, pos, lbar) == \
            counting_Q(spec, res, pos, r + lbar)


def test_singleton_constant_with_a_long_quasi_period():
    # period 19 shows along e_1, where a ray fit at substride 5 once took 1
    # for the constant 0 and the modified duality reported a wrong failure
    g = parse_graph("v 1 -3\nv 2 -4\nv 3 -5\ne 1 3\ne 2 3\n")
    tw = RationalCycle((23, 4, 16), 53)
    spec = build_zeta(g, twist=tw)
    cls, lbar = _twist_data(g, tw.scaled(spec.den), (48,))[:2]
    r = g.group.frac_rep((48,))
    closed = counting_qp_closed(g, cls, (0,), lbar)
    assert closed == 0
    assert fitted_qp_value(spec, g.residue(r), 0, r) == closed
    assert sampled_constant(spec, g.residue(r), 0, r) == closed
    rep = verify_twisted_duality(g, tw, (48,), (0, 2))
    assert (rep.lhs_modified, rep.rhs_modified) == (0, 0)
    assert (rep.status, rep.status_modified) == ("pass", "pass")


# ---------------------------------------------------------------------------
# surgery

def test_rational_counting_is_chi_exact_beyond_canonical():
    # on rational graphs, counting at points of the canonically shifted cone
    # equals the chi drop to the class minimum
    rng = random.Random(271)
    checked = 0
    for _ in range(12):
        g = random_rational_graph(rng, max_vertices=6, order_cap=40)
        spec = plain_zeta(g)
        grp = g.group
        for _ in range(3):
            ell = random_antinef(rng, g, max_coeff=2)
            x = g.canonical + ell
            h = grp.class_of(x)
            got = counting_Q(spec, g.residue(x), tuple(range(g.n)), x)
            expect = chi(g, x) - chi(g, min_antinef_rep(g, h))
            assert got == expect
            checked += 1
    assert checked >= 30


def test_surgery_keep_everything_is_trivial(dihedral):
    x = 3 * dihedral.sum_duals
    rep = surgery_check(dihedral, list(dihedral.ids), x)
    assert rep.passed
    assert rep.full == rep.reduced
    assert rep.corrections == ()


def test_surgery_canonical_shift_corrections_vanish():
    rng = random.Random(31)
    for _ in range(12):
        g = random_rational_graph(rng, max_vertices=6)
        ell = random_antinef(rng, g, max_coeff=2)
        if ell.is_zero:
            continue
        support = [g.ids[v] for v in range(g.n)
                   if g.form.pair_basis(ell, v) != 0]
        rep = surgery_check(g, support, g.canonical + ell)
        assert rep.passed
        assert all(c == 0 for c in rep.corrections)


def test_surgery_random_deep():
    rng = random.Random(57)
    for _ in range(15):
        g = random_rational_graph(rng, max_vertices=6)
        keep = sorted(rng.sample(list(g.ids), rng.randint(1, g.n)))
        x = zero_cycle(g.n)
        for i in range(g.n):
            x = x + rng.randint(2, 4) * g.duals[i]
        assert surgery_check(g, keep, x).passed
