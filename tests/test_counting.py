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
from resgraph.counting import (InternalCheckError, TableBudgetExceeded,
                               _build_sparse, _table_for, _twist_data, _wide,
                               counting_Q, counting_q, counting_qp_closed,
                               _sw_probe, fitted_qp_value, modified_qp_closed,
                               periodic_constant_full,
                               periodic_constant_reduced, plain_zeta,
                               surgery_check, sw_norm)
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.embedded import _relative_pc, verify_twisted_duality
from resgraph.graphs import (NotNegativeDefiniteError, ResolutionGraph, chi, is_rational,
                             min_antinef_rep, parse_graph)
from resgraph.randtrees import (random_antinef, random_class, random_positions,
                                random_rational_graph, random_unit_arrows)
from resgraph.series import ZetaSpec, build_zeta, synthetic_spec


def brute_count(spec, residue, positions, x, strict_all: bool) -> int:
    """Direct definition: enumerate the support far enough to cover the
    condition region, then sum matching coefficients."""
    den = spec.den
    xs = x.scaled(den)
    gens = list(spec.dens)
    tw = spec.twist_or_zero
    # a numerator entry below zero needs that many more copies to leave
    low = min([0, *(b + t for _, base in spec.num for b, t in zip(base, tw))])
    bound = max(max(xs) - low, 1)
    ranges = [int(Fraction(bound, min(g))) + 2 for g in gens]
    total = 0
    for combo in itertools.product(*(range(r) for r in ranges)):
        vec = [0] * spec.nvars
        for c, g in zip(combo, gens):
            for i in range(spec.nvars):
                vec[i] += c * g[i]
        for coeff, base in spec.num:
            p = tuple(b + v + t for b, v, t in zip(base, vec, tw))
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


def _oracle_table(spec, positions, bounds):
    return _bucketise(spec, _build_table(spec, positions, bounds))


def _table_cells(buckets):
    return {(tuple(y), rho): (c, cs.dtype)
            for rho, (ys, cs) in buckets.items()
            for y, c in zip(ys.tolist(), cs.tolist())}


def _assert_same_table(buckets, oracle):
    assert _table_cells(buckets) == _table_cells(oracle)
    assert all(ys.dtype == oracle[rho][0].dtype for rho, (ys, _) in buckets.items())


def _assert_matches_oracle(spec, positions, bounds):
    table = _build_sparse(spec, positions, bounds)
    _assert_same_table(table, _oracle_table(spec, positions, bounds))
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
    _assert_matches_oracle(spec.untwisted(), (1, 3), (90, 70))


def test_dense_table_reduced_coordinates():
    # gcd 2 on the first coordinate, 3 on the second; bounds not multiples
    spec = synthetic_spec([(1, (0, 0)), (-2, (2, 3))],
                          [(2, 6), (4, 3), (6, 9)], den=5)
    _assert_matches_oracle(spec, (0, 1), (61, 50))
    _assert_matches_oracle(spec, (1,), (80,))


def test_dense_table_wide_counts():
    # a huge coefficient pushes ray sums past int64: counts are Python ints
    spec = synthetic_spec([(2 ** 50, (0,)), (-1, (1,))], [(1,), (2,), (3,)])
    table = _assert_matches_oracle(spec, (0,), (2000,))
    assert all(cs.dtype == object for _, cs in table.values())


def test_dense_table_edge_cases(dihedral, a3):
    spec = plain_zeta(dihedral)
    assert _build_sparse(spec, (0, 2), (0, 10)) == {}
    assert _build_table(spec, (0, 2), (0, 10)) == {}
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
    if draw(st.booleans()):  # a huge coefficient makes the counts Python ints
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
            oracle = _oracle_table(spec, positions, bounds)
        except TableBudgetExceeded:
            with pytest.raises(TableBudgetExceeded):
                _build_sparse(spec, positions, bounds)
            return
        _assert_same_table(_build_sparse(spec, positions, bounds), oracle)


def test_sparse_table_beyond_the_packed_key_range():
    # three coordinates of about 2**23 reduced cells each: class index and
    # coordinates no longer pack into one int64, so rows are merged by lexsort
    big = 2 ** 21
    spec = synthetic_spec([(1, (0, 0, 0)), (-1, (5, 0, 7))],
                          [(big - 1, big + 1, big + 3), (big + 5, big - 3, big + 7),
                           (big + 11, big + 13, big - 5)], den=3)
    positions, bounds = (0, 1, 2), (4 * big, 4 * big, 4 * big)
    orders, _, _ = counting._residue_group(spec)
    gs, shape = counting._reduced_shape(spec, positions, bounds)
    assert gs == [1, 1, 1]
    assert math.prod(orders) * math.prod(shape) >= 2 ** 63
    table = _build_sparse(spec, positions, bounds)
    _assert_same_table(table, _oracle_table(spec, positions, bounds))
    assert sum(len(cs) for _, cs in table.values()) == 20  # 3 copies at most in all


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 40), min_size=n, max_size=n), max_size=4),
    st.integers(1, 12))))
def test_residue_group_matches_the_reachable_residues(case):
    gens, den = case
    nvars = len(gens[0]) if gens else 1
    spec = synthetic_spec([(1, [0] * nvars)], [[x + den for x in g] for g in gens],
                          den=den)
    reached = {(0,) * nvars}  # breadth-first walk over sums of generators
    frontier = list(reached)
    while frontier:
        frontier = {tuple((a + b) % den for a, b in zip(rho, g))
                    for rho in frontier for g in spec.dens} - reached
        reached |= frontier
    orders, digits, units = counting._residue_group(spec)

    def residue(ks):
        return tuple(sum(k * u[i] for k, u in zip(ks, units)) % den for i in range(nvars))

    assert all(e > 1 for e in orders)
    assert {residue(ks) for ks in itertools.product(*map(range, orders))} == reached
    assert math.prod(orders) == len(reached)
    for g, dig in zip(spec.dens, digits):
        assert residue(dig) == tuple(x % den for x in g)


def test_large_group_small_table_enumerates_nothing():
    # |H| = 1,000,999: a table of one cell must not walk the whole group
    g = parse_graph("v 1 -1000\nv 2 -1001\ne 1 2\n")
    spec = plain_zeta(g)
    orders, _, _ = counting._residue_group(spec)
    assert math.prod(orders) == 1000999
    table = _build_sparse(spec, (0, 1), (50, 50))
    assert _table_cells(table) == {((0, 0), (0, 0)): (1, _np.dtype(_np.int64))}


# ---------------------------------------------------------------------------
# two generators: closed counts by floor sums

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(-200, 200),
       st.integers(-200, 200))
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert counting._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


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


@settings(max_examples=100, deadline=None)
@given(_two_generator_points(), st.data())
def test_twisted_two_generator_count_matches_brute_force(case, data):
    spec, residue, positions, xs = case
    twist = tuple(data.draw(st.integers(0, 9)) for _ in range(spec.nvars))
    twisted = dataclasses.replace(spec, twist=twist)
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
    twist = tuple(data.draw(st.integers(0, 9)) for _ in range(spec.nvars))
    twisted = dataclasses.replace(spec, twist=twist)
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

    def union_only(*args, union):
        if not union:
            refuse()
        return closed(*args, union=union)
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
    assert ("table", (0, 1)) in entries and ("_residue_group",) in entries
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
    assert ("table", (0, 2)) in counting._STORE[spec]
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


def _closed_tags(graph):
    return [tag for tag in counting._STORE.get(graph, {})
            if tag[0] == "_counting_qp_closed"]


def test_each_closed_value_is_computed_once(fresh_tables, monkeypatch, a3, dihedral):
    # the fixed duality sweep: every class x nonempty subset x {no twist,
    # the suite's twist}; modified constants and repeated subsets read the
    # stored values back
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
    for graph, twist in ((a3, a3.duals[1]), (dihedral, dihedral.duals[2])):
        for tw in (None, twist):
            for h in graph.group.elements():
                for r in range(1, graph.n + 1):
                    for pos in itertools.combinations(range(graph.n), r):
                        rep = verify_twisted_duality(graph, tw, h, pos)
                        assert rep.status == rep.status_modified == "pass"
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
    monkeypatch.setattr("resgraph.embedded.build_zeta", spy)
    for graph, twist in ((a3, a3.duals[1]), (dihedral, dihedral.duals[2])):
        for tw in (None, zero_cycle(graph.n), twist):
            for h in graph.group.elements():
                for pos in ((0,), tuple(range(graph.n))):
                    verify_twisted_duality(graph, tw, h, pos)
        assert counting.twisted_zeta(graph, twist) == build(graph, twist=twist)
    assert [g for g in built if g in (a3, dihedral)] == [a3, a3, dihedral, dihedral]


def test_closed_values_key_on_sorted_positions(fresh_tables):
    graph = parse_graph(DIHEDRAL_TEXT)
    h = graph.group.elements()[3]
    lbar = RationalCycle((1, 0, 2, 0))
    values = {counting_qp_closed(graph, g, pos, lbar)
              for g in (h, list(h))
              for pos in ([1, 2, 3], (1, 2, 3), range(1, 4), (3, 1, 2))}
    assert len(values) == 1
    assert _closed_tags(graph) == [("_counting_qp_closed", h, (1, 2, 3), lbar)]


def test_refused_closed_values_store_nothing(fresh_tables, monkeypatch, a3):
    h = a3.group.elements()[1]
    half = RationalCycle((1, 0, 0), 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="lattice cycle"):
            counting_qp_closed(a3, h, (0, 2), half)
    assert _closed_tags(a3) == []
    lbar = RationalCycle((0, 1, 1))
    expected = counting_qp_closed(a3, h, (0, 2), lbar)
    counting._STORE.clear()

    closed = counting._two_gen_count

    def off_quadratic(spec, residue, positions, xs, union):
        # a cubic in the sample point puts the fourth count off the quadratic
        return closed(spec, residue, positions, xs, union) + xs[positions[0]] ** 3
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_two_gen_count", off_quadratic)
        with pytest.raises(InternalCheckError, match="not quadratic"):
            counting_qp_closed(a3, h, (0, 2), lbar)
    assert _closed_tags(a3) == []
    assert counting_qp_closed(a3, h, (0, 2), lbar) == expected
    assert _closed_tags(a3) == [("_counting_qp_closed", h, (0, 2), lbar)]


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


def _restricted(buckets, box):
    return {cell: v for cell, v in _table_cells(buckets).items()
            if all(a < b for a, b in zip(cell[0], box))}


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
    for box in (second, union):
        exact = _build_sparse(spec, positions, box)
        assert _restricted(grown, box) == _table_cells(exact)


def test_refused_boxes_are_recorded_and_cover_larger_ones(monkeypatch, fresh_tables):
    # one generator t: a box of b cells holds exactly b cells, and the
    # estimate is b, so boxes up to 125 are built and boxes over 100 refused
    spec = synthetic_spec([(1, (0,))], [(1,)])
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 100)
    built = []
    build = counting._build_sparse
    monkeypatch.setattr(counting, "_build_sparse",
                        lambda spec, positions, bounds: built.append(bounds)
                        or build(spec, positions, bounds))

    def refused(box):
        with pytest.raises(counting.TableBudgetExceeded):
            _table_for(spec, (0,), box)
        return counting._STORE[spec]["refused", (0,)]

    assert refused((200,)) == (200,)  # the estimate refuses it: nothing is built
    assert built == []
    assert refused((110,)) == (110,)  # built, over the cap
    assert built == [(110,)]
    assert refused((120,)) == (110,)  # covers the record: nothing is built
    assert built == [(110,)]
    _table_for(spec, (0,), (50,))
    _table_for(spec, (0,), (70,))  # grows to exactly the union
    table = _table_for(spec, (0,), (99,))  # and still builds just under the record
    assert built == [(110,), (50,), (70,), (99,)]
    assert counting._STORE[spec]["table", (0,)][0] == (99,)
    assert _table_for(spec, (0,), (60,)) is table  # inside the union: served
    assert built == [(110,), (50,), (70,), (99,)]


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
        g, base = _twist_data(graph, spec, h)
        try:
            oracle = sampled_constant(spec.untwisted(), graph.residue(graph.group.frac_rep(g)),
                                      p, base)
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
        g, base = _twist_data(graph, spec, h)
        try:
            oracle = sampled_constant(spec.untwisted(), graph.residue(graph.group.frac_rep(g)),
                                      p, base)
        except TableBudgetExceeded:
            continue
        assert value == oracle
        checked += 1
    assert checked >= 36


# ---------------------------------------------------------------------------
# normalised SW and periodic constants on graphs

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
        kinds.add(is_rational(graph))
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
    # a node table over the budget leaves the probe's value, and it is
    # refused once per graph, not once per class
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
    closed = counting._two_gen_count
    calls = itertools.count()
    monkeypatch.setattr(counting, "_two_gen_count",
                        lambda *args, **kw: closed(*args, **kw) + (next(calls) % 4 == 3))
    with pytest.raises(InternalCheckError, match="not quadratic"):
        fitted_qp_value(plain_zeta(a3), a3.residue(r), 1, r)


def test_two_generator_base_above_every_shift_samples_past_it(monkeypatch):
    # the semigroup <2, 3> from base 100: the degree bound is negative, and
    # the samples still sit at positive multiples of Pi = 6 past the base;
    # 99 + k semigroup elements lie below 100 + k, so the constant is 99
    spec = synthetic_spec([(1, (0,)), (-1, (6,))], [(2,), (3,)], den=1)
    base = RationalCycle((100,))
    assert counting._step_bound(spec, 0, (100,))[0] < 0
    points = []
    closed = counting._two_gen_count

    def spy(spec, residue, positions, xs, union):
        points.append(xs)
        return closed(spec, residue, positions, xs, union)
    monkeypatch.setattr(counting, "_two_gen_count", spy)
    assert fitted_qp_value(spec, (0,), 0, base) == 99 == _pair_constant(spec, (0,), 0, base)
    assert points == [(106,), (112,), (118,), (124,)]


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
    # polynomial count on its marked vertices
    calls = _count_routes(monkeypatch)
    for tw in (None, dihedral.dual(1)):
        spec = build_zeta(dihedral, twist=tw)
        for h in dihedral.group.elements():
            for r in range(1, dihedral.n + 1):
                for pos in itertools.combinations(range(dihedral.n), r):
                    for modified in (False, True):
                        periodic_constant_reduced(dihedral, spec, h, pos, modified)
    assert calls == {"quasipoly_value": 0, "fitted_qp_value": 0}
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
    cls, base = _twist_data(g, spec, h)
    assert cls == g.group.zero
    with pytest.raises(InternalCheckError, match="not a polynomial: its count 2 "
                       "differs from the one-variable constant 0 on coordinate 0"):
        counting.quasipoly_value(spec.untwisted(), g.residue(base), (0, 2), base)
    assert [periodic_constant_reduced(g, spec, h, (p,)) for p in (0, 2)] == [0, 0]
    with pytest.raises(ValueError, match="marked vertices"):
        periodic_constant_reduced(g, spec, h, (0, 2))


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
        cls = grp.add(grp.class_of(zk), grp.class_of(tw))
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
        lbar = deep.floor_part()  # nearby lattice point, still deep
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
    cls, base = _twist_data(g, spec, (48,))
    residue = g.residue(g.group.frac_rep(cls))
    closed = counting_qp_closed(g, cls, (0,), base - g.group.frac_rep(cls))
    assert closed == 0
    assert fitted_qp_value(spec.untwisted(), residue, 0, base) == closed
    assert sampled_constant(spec.untwisted(), residue, 0, base) == closed
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
