"""Counting functions, periodic constants, normalised SW invariants and the
surgery identity, all checked against brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from resgraph.counting import (DENSE_CELL_CAP, StabilizationError,
                               _bucketise, _build_dense, _build_table,
                               _ray_q_values, _table_for, counting_Q,
                               counting_q, counting_qp_closed,
                               modified_qp_closed, periodic_constant_full,
                               periodic_constant_reduced, plain_zeta,
                               quasipoly_value, surgery_check, sw_norm,
                               verify_symmetry)
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.graphs import chi, min_antinef_rep, strict_interior_cycle
from resgraph.randtrees import random_antinef, random_rational_graph
from resgraph.series import build_zeta, synthetic_spec


def brute_count(spec, residue, positions, x, strict_all: bool) -> int:
    """Direct definition: enumerate the support far enough to cover the
    condition region, then sum matching coefficients."""
    den = spec.den
    xs = x.scaled(den)
    gens = list(spec.dens)
    tw = spec.twist_or_zero
    bound = max(max(xs), 1)
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
    vals = _ray_q_values(spec, (0,), (0,), RationalCycle((0,)),
                         RationalCycle((1,)), 100)
    assert vals[-1] == exact
    assert vals[0] == 1


# ---------------------------------------------------------------------------
# partition tables: the dense builder against the sparse one

def _table_cells(buckets):
    return {(tuple(y), rho): (c, cs.dtype)
            for rho, (ys, cs) in buckets.items()
            for y, c in zip(ys.tolist(), cs.tolist())}


def _assert_builders_agree(spec, positions, bounds):
    dense = _build_dense(spec, positions, bounds)
    assert dense is not None
    sparse = _bucketise(spec, _build_table(spec, positions, bounds))
    assert _table_cells(dense) == _table_cells(sparse)
    assert all(ys.dtype == sparse[rho][0].dtype for rho, (ys, _) in dense.items())
    return dense


def test_dense_table_dihedral(dihedral):
    dense = _assert_builders_agree(plain_zeta(dihedral), (0, 2), (300, 300))
    assert sum(len(cs) for _, cs in dense.values()) > 5000


def test_dense_table_cyclic4_every_subset(a3):
    spec = plain_zeta(a3)
    for r in range(1, 4):
        for pos in itertools.combinations(range(3), r):
            _assert_builders_agree(spec, pos, (37, 41, 29)[:r])


def test_dense_table_twisted_relative(dihedral):
    spec = build_zeta(dihedral, twist=dihedral.dual(2), relative=(1,))
    _assert_builders_agree(spec.untwisted(), (1, 3), (90, 70))


def test_dense_table_reduced_coordinates():
    # gcd 2 on the first coordinate, 3 on the second; bounds not multiples
    spec = synthetic_spec([(1, (0, 0)), (-2, (2, 3))],
                          [(2, 6), (4, 3), (6, 9)], den=5)
    _assert_builders_agree(spec, (0, 1), (61, 50))
    _assert_builders_agree(spec, (1,), (80,))


def test_dense_table_wide_counts():
    # a huge coefficient pushes ray sums past int64: both store Python ints
    spec = synthetic_spec([(2 ** 50, (0,)), (-1, (1,))], [(1,), (2,), (3,)])
    dense = _assert_builders_agree(spec, (0,), (2000,))
    assert all(cs.dtype == object for _, cs in dense.values())


def test_dense_table_edge_cases(dihedral, a3):
    spec = plain_zeta(dihedral)
    assert _build_dense(spec, (0, 2), (0, 10)) == {}
    assert _build_table(spec, (0, 2), (0, 10)) == {}
    # a relative factor at both leaves of the chain cancels every generator
    bare = build_zeta(a3, relative=(1, 3))
    assert bare.dens == ()
    assert _build_dense(bare, (0,), (5,)) is None
    assert _table_cells(_table_for(bare, (0,), (5,))) == \
        _table_cells(_bucketise(bare, _build_table(bare, (0,), (5,))))
    # declined without allocating: over the cell cap, counts past int64
    line = synthetic_spec([(1, (0,))], [(1,), (2,)])
    assert _build_dense(line, (0,), (DENSE_CELL_CAP + 1,)) is None
    many = synthetic_spec([(1, (0,))], [(1,)] * 16)
    assert _build_dense(many, (0,), (100,)) is None


# ---------------------------------------------------------------------------
# one-variable periodic constants

def one_var_pc(num, dens):
    spec = synthetic_spec(num=num, dens=dens, den=1)
    return quasipoly_value(spec, (0,), (0,), RationalCycle((0,)),
                           RationalCycle((1,)))


def test_full_semigroup_has_zero_constant():
    assert one_var_pc([(1, (0,))], [(1,)]) == 0


def test_gap_series_constant_counts_gaps():
    # the numerical semigroup generated by 2 and 3 has one gap
    assert one_var_pc([(1, (0,)), (-1, (6,))], [(2,), (3,)]) == -1
    # generated by 2 and 7: gaps 1, 3, 5
    assert one_var_pc([(1, (0,)), (-1, (14,))], [(2,), (7,)]) == -3


def test_polynomial_constant_is_coefficient_sum():
    assert one_var_pc([(1, (0,)), (2, (3,)), (-1, (5,))], []) == 2


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
    # stabilised double probe on the non-rational germ; frozen after
    # validating both probes against the brute-force counting oracle
    assert sw_norm(brieskorn, ()) == 1


def test_reduced_constant_matches_full(a3, dihedral):
    for g in (a3, dihedral):
        spec = plain_zeta(g)
        for h in g.group.elements():
            full = periodic_constant_full(g, spec, h)
            red = periodic_constant_reduced(g, spec, h, tuple(range(g.n)))
            assert full == red


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
        closed = counting_qp_closed(g, h, pos, lbar)
        try:
            fitted = quasipoly_value(spec, g.residue(grp.frac_rep(h)), pos,
                                     grp.frac_rep(h) + lbar,
                                     strict_interior_cycle(g))
        except StabilizationError:
            continue
        assert fitted == closed
        checked += 1
    assert checked >= 8


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


# ---------------------------------------------------------------------------
# symmetry and surgery

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


def test_symmetry_known_graphs(a3, dihedral, brieskorn):
    assert verify_symmetry(a3)
    assert verify_symmetry(dihedral)
    assert verify_symmetry(brieskorn)


def test_symmetry_random_trees():
    rng = random.Random(13)
    for _ in range(25):
        assert verify_symmetry(random_rational_graph(rng, max_vertices=7))


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
