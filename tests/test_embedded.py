"""Embedded-curve invariants: kappa, delta, the Riemann-Roch correction,
rationality gating, twisted duality and the relative-series delta route."""

import random
from fractions import Fraction

import pytest

from conftest import dihedral_rows
from resgraph.cycles import RationalCycle
from resgraph.embedded import (EmbeddedCurve, RationalityError,
                               blache_correction, delta_cross_check,
                               delta_embedded, kappa_topological,
                               verify_twisted_duality)
from resgraph.graphs import ResolutionGraph, chi, min_antinef_rep
from resgraph.randtrees import (random_antinef, random_rational_graph,
                                random_unit_arrows)


def curve_on(graph: ResolutionGraph, arrows: dict[int, int]) -> EmbeddedCurve:
    mults = tuple(arrows.get(v, 0) for v in graph.ids)
    return EmbeddedCurve(graph=graph, multiplicities=mults)


# ---------------------------------------------------------------------------
# quotient chain

def test_quartic_pair_on_chain(a3):
    curve = curve_on(a3, {1: 4})
    assert curve.cycle == RationalCycle((3, 2, 1))
    assert kappa_topological(a3, curve.cycle) == 6
    assert delta_embedded(a3, curve) == 6
    assert blache_correction(a3, curve) == chi(a3, -curve.cycle) - 6
    assert blache_correction(a3, curve) == 0


def test_smooth_cut_on_chain(a3):
    curve = curve_on(a3, {2: 1})
    h = a3.group.class_of(curve.cycle)
    assert min_antinef_rep(a3, h) == curve.cycle
    assert kappa_topological(a3, curve.cycle) == 0
    assert delta_embedded(a3, curve) == 0


# ---------------------------------------------------------------------------
# dihedral table

DIHEDRAL_EXPECT = {
    "one_center": (0, Fraction(2, 3), Fraction(2, 3)),
    "two_center": (2, Fraction(2), Fraction(0)),
    "one_leg": (0, Fraction(1, 2), Fraction(1, 2)),
    "leg_center": (1, Fraction(3, 2), Fraction(1, 2)),
    "leg_two_center": (1, Fraction(7, 6), Fraction(1, 6)),
}


def minimal_curve(graph, h):
    """Arrow data realising the minimal anti-nef representative of a class."""
    s = min_antinef_rep(graph, h)
    mult = [int(-graph.form.pair_basis(s, v)) for v in range(graph.n)]
    return EmbeddedCurve(graph=graph, multiplicities=tuple(mult))


def test_dihedral_curve_table(dihedral):
    rows = dihedral_rows(dihedral)
    for name, h in rows.items():
        kappa_expect, chi_neg_s, corr_expect = DIHEDRAL_EXPECT[name]
        curve = minimal_curve(dihedral, h)
        s = min_antinef_rep(dihedral, h)
        assert curve.cycle == s
        assert delta_embedded(dihedral, curve) == kappa_expect, name
        assert chi(dihedral, -s) == chi_neg_s, name
        assert blache_correction(dihedral, curve) == corr_expect, name


def test_correction_depends_only_on_class(dihedral):
    rows = dihedral_rows(dihedral)
    h = rows["leg_center"]
    curve = minimal_curve(dihedral, h)
    base = blache_correction(dihedral, curve)
    # shift the curve cycle by a lattice element keeping it anti-nef
    shifted = EmbeddedCurve(
        graph=dihedral,
        multiplicities=tuple(a + 6 * b for a, b in
                             zip(curve.multiplicities, (1, 0, 1, 1))))
    assert dihedral.group.class_of(shifted.cycle - curve.cycle) == dihedral.group.zero
    assert blache_correction(dihedral, shifted) == base


def test_cartier_curve_has_zero_correction(a3):
    curve = curve_on(a3, {1: 4})  # integral cycle, trivial classes
    assert a3.group.class_of(curve.cycle) == a3.group.zero
    assert blache_correction(a3, curve) == 0


# ---------------------------------------------------------------------------
# non-rational germ: kappa survives, delta refuses

def test_brieskorn_kappa_and_refusal(brieskorn):
    curve = curve_on(brieskorn, {4: 1})
    assert kappa_topological(brieskorn, curve.cycle) == 2
    assert kappa_topological(brieskorn, curve.cycle, curve.support_positions) == 2
    with pytest.raises(RationalityError) as err:
        delta_embedded(brieskorn, curve)
    assert "not rational" in str(err.value)
    with pytest.raises(RationalityError):
        blache_correction(brieskorn, curve)


def test_blown_up_brieskorn_reduced_kappa_differs(brieskorn_blown):
    curve = EmbeddedCurve.from_graph_arrows(brieskorn_blown)
    assert curve.support_ids == (5,)
    assert kappa_topological(brieskorn_blown, curve.cycle) == 2
    assert kappa_topological(brieskorn_blown, curve.cycle,
                             curve.support_positions) == 1


# ---------------------------------------------------------------------------
# kappa equalities on rational germs

def _dual_support(graph, x):
    """Vertices pairing nontrivially with x (support in the dual basis)."""
    return tuple(v for v, p in enumerate(graph.form.apply_scaled(x.num)) if p)


def test_full_equals_support_reduced_kappa():
    rng = random.Random(2718)
    for _ in range(25):
        g = random_rational_graph(rng, max_vertices=6)
        ell = random_antinef(rng, g, max_coeff=2)
        if ell.is_zero:
            continue
        support = _dual_support(g, ell)
        assert kappa_topological(g, ell) == kappa_topological(g, ell, support)


def test_canonical_shift_reduction_identity():
    # the counting value at the canonical shift is unchanged by reduction to
    # the dual support, and the subtree corrections vanish individually
    rng = random.Random(3141)
    from resgraph.counting import surgery_check
    for _ in range(15):
        g = random_rational_graph(rng, max_vertices=6)
        ell = random_antinef(rng, g, max_coeff=2)
        if ell.is_zero:
            continue
        support = [g.ids[p] for p in _dual_support(g, ell)]
        rep = surgery_check(g, support, g.canonical + ell)
        assert rep.passed
        assert all(c == 0 for c in rep.corrections)


# ---------------------------------------------------------------------------
# twisted duality and the relative-series delta

def test_duality_trivial_instance(a3):
    rep = verify_twisted_duality(a3, None, a3.group.zero, (0, 1, 2))
    assert rep.passed
    assert rep.lhs == 0 and rep.rhs == 0


def test_duality_specialisations(dihedral):
    rng = random.Random(6)
    grp = dihedral.group
    for _ in range(6):
        h = rng.choice(grp.elements())
        positions = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
        plain = verify_twisted_duality(dihedral, None, h, positions)
        assert (plain.status, plain.status_modified) == ("pass", "pass")
        twisted = verify_twisted_duality(dihedral, dihedral.dual(4), h, positions)
        assert (twisted.status, twisted.status_modified) == ("pass", "pass")


def test_dual_shift_reported(dihedral):
    grp = dihedral.group
    tw = dihedral.dual(1)
    h = grp.class_of(dihedral.dual(2))
    rep = verify_twisted_duality(dihedral, tw, h, (0, 1))
    expected_shift = tw + grp.frac_rep(grp.sub(h, grp.class_of(tw)))
    assert rep.dual_shift == expected_shift


def test_delta_cross_check_smooth_cut(a3, dihedral):
    for graph, vertex in ((a3, 2), (dihedral, 2)):
        probe = ResolutionGraph(ids=graph.ids, eulers=graph.eulers,
                                edges=graph.edges,
                                arrows=tuple(1 if v == vertex else 0
                                             for v in graph.ids))
        rep = delta_cross_check(probe, EmbeddedCurve.from_graph_arrows(probe))
        assert rep.passed
        assert rep.delta_series == 0 == rep.delta_chi


def test_delta_cross_check_multibranch(dihedral):
    probe = ResolutionGraph(ids=dihedral.ids, eulers=dihedral.eulers,
                            edges=dihedral.edges, arrows=(1, 0, 1, 1))
    rep = delta_cross_check(probe, EmbeddedCurve.from_graph_arrows(probe))
    assert rep.passed


def test_delta_cross_check_requires_unit_arrows(a3):
    probe = ResolutionGraph(ids=a3.ids, eulers=a3.eulers, edges=a3.edges,
                            arrows=(4, 0, 0))
    with pytest.raises(ValueError):
        delta_cross_check(probe, EmbeddedCurve.from_graph_arrows(probe))


def test_delta_cross_check_random_trees():
    rng = random.Random(515)
    passed = 0
    for _ in range(12):
        g = random_unit_arrows(rng, random_rational_graph(rng, max_vertices=5))
        rep = delta_cross_check(g, EmbeddedCurve.from_graph_arrows(g))
        assert rep.passed
        passed += 1
    assert passed == 12


def test_delta_nonnegative_on_probes():
    rng = random.Random(88)
    for _ in range(20):
        g = random_rational_graph(rng, max_vertices=6)
        ga = random_unit_arrows(rng, g)
        delta = delta_embedded(ga, EmbeddedCurve.from_graph_arrows(ga))
        assert delta >= 0
