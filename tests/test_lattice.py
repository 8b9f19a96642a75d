"""Lattice layer: parsing, dual cycles, canonical cycle, discriminant group,
anti-nef saturation, rationality, subtree projections."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIHEDRAL_TEXT, dihedral_rows
from resgraph.cycles import RationalCycle, basis_cycle, zero_cycle
from resgraph import graphs as graphs_module
from resgraph.graphs import (DiscriminantGroup, GraphError, GraphSyntaxError,
                             InternalCheckError, IntersectionForm, NotATreeError,
                             NotNegativeDefiniteError,
                             artin_rationality, chi,
                             fundamental_cycle, is_rational, laufer_saturate,
                             min_antinef_rep, parse_graph,
                             strict_interior_cycle, subgraph_components)
from resgraph.randtrees import random_rational_graph
from resgraph.snf import fraction_inverse, smith_normal_form, unimodular_inverse


def frac_cycle(*entries):
    return RationalCycle.from_fractions([Fraction(e) for e in entries])


# ---------------------------------------------------------------------------
# parsing

def test_parse_a3_duals_match_known_quotient(a3):
    assert a3.dual(1) == frac_cycle("3/4", "1/2", "1/4")
    assert a3.dual(2) == frac_cycle("1/2", "1", "1/2")
    assert a3.dual(3) == frac_cycle("1/4", "1/2", "3/4")


def test_parse_single_vertex():
    g = parse_graph("v 1 -1\n")
    assert g.n == 1
    assert g.dual(1) == RationalCycle((1,))


def test_degenerate_star_rejected():
    text = "v 1 -2\nv 2 -2\nv 3 -2\nv 4 -2\nv 5 -2\n" \
           "e 1 5\ne 2 5\ne 3 5\ne 4 5\n"
    with pytest.raises(NotNegativeDefiniteError) as err:
        parse_graph(text)
    # determinant of the five-vertex degenerate star vanishes
    assert err.value.order == 5
    assert err.value.minor == 0


def test_positive_euler_rejected():
    with pytest.raises(GraphError):
        parse_graph("v 1 1\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("v 1 -2\nv 1 -3\n")
    assert err.value.line_no == 2


def test_unknown_directive():
    with pytest.raises(GraphSyntaxError):
        parse_graph("w 1 -2\n")


def test_not_a_tree():
    with pytest.raises(NotATreeError):
        parse_graph("v 1 -2\nv 2 -2\nv 3 -2\ne 1 2\n")


def test_duplicate_edge_and_arrow_rejected():
    with pytest.raises(GraphSyntaxError):
        parse_graph("v 1 -2\nv 2 -2\ne 1 2\ne 2 1\n")
    with pytest.raises(GraphSyntaxError):
        parse_graph("v 1 -2\na 1\na 1 2\n")


def test_arrow_multiplicities_recorded():
    g = parse_graph("v 1 -2\nv 2 -2\ne 1 2\na 1 4\na 2\n")
    assert g.arrows == (4, 1)


# ---------------------------------------------------------------------------
# duals, canonical cycle, chi

def test_dual_pairing_is_negated_kronecker(a3, dihedral, brieskorn):
    for g in (a3, dihedral, brieskorn):
        for v in range(g.n):
            for w in range(g.n):
                expect = Fraction(-1 if v == w else 0)
                assert g.form.pair_basis(g.duals[v], w) == expect


def test_dual_entries_strictly_positive(dihedral, brieskorn):
    for g in (dihedral, brieskorn):
        for cyc in g.duals:
            assert all(a > 0 for a in cyc.num)


def test_dihedral_center_dual(dihedral):
    assert dihedral.dual(2) == frac_cycle("1/3", "2/3", "1/3", "1/3")


def test_canonical_cycles(a3, dihedral, brieskorn):
    assert a3.canonical == zero_cycle(3)
    assert dihedral.canonical == dihedral.dual(2)
    assert brieskorn.canonical == RationalCycle((2, 1, 1, 1))


def test_adjunction_relations_hold(dihedral, brieskorn):
    # (-Z_K + E_v, E_v) + 2 = 0 for every vertex
    for g in (dihedral, brieskorn):
        zk = g.canonical
        for v in range(g.n):
            assert g.form.pair_basis(basis_cycle(g.n, v) - zk, v) + 2 == 0


def test_chi_basics(a3, dihedral):
    assert chi(a3, zero_cycle(3)) == 0
    assert chi(a3, a3.canonical) == 0
    rows = dihedral_rows(dihedral)
    s = min_antinef_rep(dihedral, rows["one_center"])
    assert chi(dihedral, -s) == Fraction(2, 3)


def _chi_by_definition(graph, x):
    """-(x, x - Z_K)/2 summed coordinatewise in Fractions over the form."""
    xs = x.fractions()
    diff = [a - b for a, b in zip(xs, graph.canonical.fractions())]
    pairing = sum(xs[i] * row[j] * diff[j]
                  for i, row in enumerate(graph.form.rows) for j in range(graph.n))
    return -pairing / 2


def test_integer_chi_equals_its_definition():
    rng = random.Random(377)
    for _ in range(40):
        graph = random_rational_graph(rng, max_vertices=6)
        det = graph.det_abs
        coprime = next(p for p in (7, 11, 13, 17, 19, 23) if det % p)
        for den in (1, det, coprime, det * coprime):
            for _ in range(3):
                x = RationalCycle(tuple(rng.randint(-4 * den, 4 * den)
                                        for _ in range(graph.n)), den)
                assert chi(graph, x) == _chi_by_definition(graph, x)
        for x in (graph.canonical, graph.sum_duals, *graph.duals):
            assert chi(graph, x) == _chi_by_definition(graph, x)


# ---------------------------------------------------------------------------
# discriminant group

def test_group_orders(a3, dihedral, brieskorn):
    assert a3.group.invariant_factors == (4,)
    assert dihedral.group.invariant_factors == (2, 6)
    assert brieskorn.group.invariant_factors == ()
    assert brieskorn.group.order == 1


def test_integral_cycles_have_trivial_class(dihedral):
    grp = dihedral.group
    assert grp.class_of(dihedral.unit_cycle) == grp.zero
    assert grp.class_of(RationalCycle((3, -1, 2, 7))) == grp.zero


def test_three_center_cuts_are_integral(dihedral):
    # E*_2 has order three in the discriminant group
    grp = dihedral.group
    assert grp.class_of(3 * dihedral.dual(2)) == grp.zero
    assert grp.class_of(dihedral.dual(2)) != grp.zero


def test_frac_rep_reduces_coordinates(dihedral):
    grp = dihedral.group
    for h in grp.elements():
        r = grp.frac_rep(h)
        assert all(0 <= a < r.den for a in r.num) or r.is_zero
        assert grp.class_of(r) == h


def test_dihedral_representatives(dihedral):
    rows = dihedral_rows(dihedral)
    grp = dihedral.group
    assert grp.frac_rep(rows["leg_center"]) == frac_cycle(0, 0, "1/2", "1/2")
    assert grp.frac_rep(rows["two_center"]) == frac_cycle("2/3", "1/3", "2/3", "2/3")


def test_frac_rep_is_built_and_checked_once_per_class(monkeypatch):
    grp = parse_graph(DIHEDRAL_TEXT).group  # a fresh group: an empty memo
    checked = []
    class_of = DiscriminantGroup.class_of

    def counted(self, x):
        checked.append(x)
        return class_of(self, x)
    monkeypatch.setattr(DiscriminantGroup, "class_of", counted)
    first = [grp.frac_rep(h) for h in grp.elements()]
    assert len(checked) == grp.order == 12
    assert all(grp.frac_rep(h) is r for h, r in zip(grp.elements(), first))
    assert len(checked) == grp.order


def test_frac_rep_memo_leaves_equality_and_hash_alone():
    g1, g2 = parse_graph(DIHEDRAL_TEXT), parse_graph(DIHEDRAL_TEXT)
    h = g1.group.elements()[1]
    g1.group.frac_rep(h)
    assert h in g1.group._reps and h not in g2.group._reps
    assert g1.group == g2.group and hash(g1.group) == hash(g2.group)
    assert g1 == g2 and hash(g1) == hash(g2)


def test_frac_rep_check_raises_on_a_wrong_representative(monkeypatch):
    # an explicit raise, so the check also runs under python -O
    graph = parse_graph(DIHEDRAL_TEXT)
    grp = graph.group
    h = next(h for h in grp.elements() if h != grp.zero)
    monkeypatch.setattr(DiscriminantGroup, "representative",
                        lambda self, h: zero_cycle(graph.n))
    for _ in range(2):  # a failed check stores nothing
        with pytest.raises(InternalCheckError, match="misses class"):
            grp.frac_rep(h)
    assert h not in grp._reps


# ---------------------------------------------------------------------------
# one factorisation: the Smith form against the parent's algorithms

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture(scope="module")
def lattice_draws():
    """The shipped graphs and seeded random rational trees, twelve of them
    drawn without an order cap so that |H| reaches the thousands."""
    shipped = [parse_graph(p.read_text()) for p in sorted(GRAPHS.glob("*.graph"))]
    rng = random.Random(14)
    uncapped = [random_rational_graph(rng, max_vertices=7, order_cap=None)
                for _ in range(12)]
    rng = random.Random(15)
    capped = [random_rational_graph(rng, max_vertices=7) for _ in range(12)]
    graphs = shipped + uncapped + capped
    assert max(g.det_abs for g in graphs) >= 1000
    return graphs


def _dual_sum(g, coeffs):
    """The dual-basis sum as a loop of RationalCycle additions."""
    total = zero_cycle(g.n)
    for c, dual in zip(coeffs, g.duals, strict=True):
        if c:
            total = total + c * dual
    return total


def test_duals_match_the_fraction_inverse(lattice_draws):
    for g in lattice_draws:
        rows = [list(r) for r in g.form.rows]
        diag, u, v = g.form.smith
        assert _product(_product(u, rows), v) == [
            [diag[i] if i == j else 0 for j in range(g.n)] for i in range(g.n)]
        inv = fraction_inverse(rows)
        for v in range(g.n):
            assert g.duals[v] == RationalCycle.from_fractions(
                [-inv[u][v] for u in range(g.n)])


def test_representative_matches_the_dual_sum_of_u_inverse(lattice_draws):
    for g in lattice_draws:
        diag, u, _v = g.form.smith
        uinv = unimodular_inverse([list(r) for r in u])
        positions = [p for p, d in enumerate(diag) if d > 1]
        grp = g.group
        for h in grp.elements():
            coords = [0] * g.n
            for x, p in zip(h, positions, strict=True):
                coords[p] = x
            a = [sum(r * c for r, c in zip(row, coords)) for row in uinv]
            rep = grp.representative(h)
            assert rep == _dual_sum(g, a)
            assert grp.class_of(rep) == h


def test_dual_combination_matches_the_sum_loop(lattice_draws):
    rng = random.Random(16)
    for g in lattice_draws:
        for _ in range(6):
            coeffs = [rng.randint(-3, 3) for _ in range(g.n)]
            x = g.dual_combination(coeffs)
            assert x == _dual_sum(g, coeffs)
            assert g.in_lipman_cone(x) == all(p <= 0 for p in g.antinef_defect(x))
        assert g.sum_duals == _dual_sum(g, [1] * g.n)


def test_a_wrong_smith_form_makes_duals_raise(monkeypatch):
    # an explicit raise, so the check also runs under python -O
    graph = parse_graph(DIHEDRAL_TEXT)
    diag, u, v = graph.form.smith
    wrong = (diag, (u[1], u[0]) + u[2:], v)
    monkeypatch.setattr(IntersectionForm, "smith", property(lambda self: wrong))
    with pytest.raises(InternalCheckError, match="dual cycle"):
        parse_graph(DIHEDRAL_TEXT).duals


def test_invariant_factors_are_checked_against_the_determinant(monkeypatch):
    def bad_snf(rows):
        diag, u, v = smith_normal_form(rows)
        return diag[:-1] + [2 * diag[-1]], u, v
    monkeypatch.setattr(graphs_module, "smith_normal_form", bad_snf)
    with pytest.raises(InternalCheckError, match="multiply to"):
        parse_graph(DIHEDRAL_TEXT).group


# ---------------------------------------------------------------------------
# saturation

def test_saturation_fixes_antinef_input(dihedral):
    x = dihedral.dual(1) + dihedral.dual(3)
    assert laufer_saturate(dihedral, x) == x


def test_dihedral_minimal_representatives(dihedral):
    rows = dihedral_rows(dihedral)
    expected = {
        "one_center": frac_cycle("1/3", "2/3", "1/3", "1/3"),
        "two_center": frac_cycle("2/3", "4/3", "2/3", "2/3"),
        "one_leg": frac_cycle("2/3", "1/3", "1/6", "1/6"),
        "leg_center": frac_cycle(1, 1, "1/2", "1/2"),
        "leg_two_center": frac_cycle("1/3", "2/3", "5/6", "5/6"),
    }
    for name, h in rows.items():
        assert min_antinef_rep(dihedral, h) == expected[name], name


def random_dual_lattice_cycle(rng, g, span=3):
    """Random element of the dual lattice: a small dual-basis combination."""
    x = zero_cycle(g.n)
    for i in range(g.n):
        c = rng.randint(-span, span)
        if c:
            x = x + c * g.duals[i]
    return x


def test_saturation_properties_random():
    rng = random.Random(11)
    for _ in range(40):
        g = random_rational_graph(rng, max_vertices=6)
        grp = g.group
        x = random_dual_lattice_cycle(rng, g)
        s = laufer_saturate(g, x)
        assert g.in_lipman_cone(s)
        diff = s - x
        assert diff.is_integral and diff.is_effective
        assert grp.class_of(s) == grp.class_of(x)


def test_saturation_choice_independence():
    rng = random.Random(23)
    for _ in range(100):
        g = random_rational_graph(rng, max_vertices=6)
        x = random_dual_lattice_cycle(rng, g)
        det = laufer_saturate(g, x)
        rnd = laufer_saturate(g, x, choose=rng.choice)
        assert det == rnd


def test_reduced_rep_below_minimal_rep():
    rng = random.Random(5)
    for _ in range(25):
        g = random_rational_graph(rng, max_vertices=6)
        grp = g.group
        for h in grp.elements():
            r = grp.frac_rep(h)
            s = min_antinef_rep(g, h)
            assert r.leq(s)
            assert laufer_saturate(g, r) == s


def test_minimal_rep_is_minimal(dihedral):
    grp = dihedral.group
    for h in grp.elements():
        s = min_antinef_rep(dihedral, h)
        for v in range(dihedral.n):
            smaller = s - basis_cycle(dihedral.n, v)
            if smaller.is_effective:
                assert not dihedral.in_lipman_cone(smaller)


# ---------------------------------------------------------------------------
# rationality

def test_a3_fundamental_cycle(a3):
    zmin, rational = artin_rationality(a3)
    assert zmin == RationalCycle((1, 1, 1))
    assert rational


def test_dihedral_rational(dihedral):
    assert is_rational(dihedral)


def test_brieskorn_not_rational(brieskorn):
    zmin, rational = artin_rationality(brieskorn)
    assert zmin == RationalCycle((6, 3, 2, 1))
    assert chi(brieskorn, zmin) == 0
    assert not rational


def test_strict_interior_cycle_properties(a3, dihedral, brieskorn):
    for g in (a3, dihedral, brieskorn):
        w = strict_interior_cycle(g)
        assert w.is_integral
        assert all(g.form.pair_basis(w, v) <= -1 for v in range(g.n))
        for v in range(g.n):
            smaller = w - basis_cycle(g.n, v)
            assert any(g.form.pair_basis(smaller, u) >= 0 for u in range(g.n))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_inverses_reject_singular_and_non_unimodular():
    for inverse in (fraction_inverse, unimodular_inverse):
        with pytest.raises(ValueError):
            inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_inverse_round_trips(dihedral):
    rows = [list(r) for r in dihedral.form.rows]
    eye = [[int(i == j) for j in range(dihedral.n)] for i in range(dihedral.n)]
    assert _product(rows, fraction_inverse(rows)) == eye
    _diag, u, _v = smith_normal_form(rows)
    assert _product(u, unimodular_inverse(u)) == eye


@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(-12, 12), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_smith_normal_form_of_rectangular_matrices(m, n, entries):
    rows = [entries[i * n:(i + 1) * n] for i in range(m)]
    diag, u, v = smith_normal_form(rows)
    assert len(u) == m and len(v) == n
    for w in (u, v):
        eye = [[int(i == j) for j in range(len(w))] for i in range(len(w))]
        assert _product(w, unimodular_inverse(w)) == eye
    out = _product(_product(u, rows), v)
    assert out == [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


# ---------------------------------------------------------------------------
# subtree projections

def test_remove_all_gives_nothing(a3):
    assert subgraph_components(a3, a3.ids) == []


def test_remove_none_gives_whole_graph(a3):
    pieces = subgraph_components(a3, [])
    assert len(pieces) == 1
    assert pieces[0].vertex_ids == a3.ids


def test_brieskorn_minus_end_is_connected(brieskorn):
    pieces = subgraph_components(brieskorn, [4])
    assert [p.vertex_ids for p in pieces] == [(1, 2, 3)]


def test_projection_sends_basis_to_basis(dihedral):
    pieces = subgraph_components(dihedral, [2])  # remove the centre: three legs
    assert len(pieces) == 3
    for piece in pieces:
        vid = piece.vertex_ids[0]
        img = piece.project(basis_cycle(dihedral.n, dihedral.index[vid]))
        assert img == basis_cycle(piece.graph.n, piece.graph.index[vid])


def test_projection_of_canonical_gives_subtree_canonical():
    rng = random.Random(3)
    for _ in range(20):
        g = random_rational_graph(rng, max_vertices=6)
        removed = [v for v in g.ids if rng.random() < 0.4]
        for piece in subgraph_components(g, removed):
            assert piece.project(g.canonical) == piece.graph.canonical


def test_minimal_reps_project_to_minimal_reps():
    rng = random.Random(17)
    checked = 0
    for _ in range(25):
        g = random_rational_graph(rng, max_vertices=6)
        removed = [v for v in g.ids if rng.random() < 0.4]
        pieces = subgraph_components(g, removed)
        for h in g.group.elements():
            s = min_antinef_rep(g, h)
            for piece in pieces:
                img = piece.project(s)
                sub = piece.graph
                assert img == min_antinef_rep(sub, sub.group.class_of(img))
                checked += 1
    assert checked >= 100


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_random_graphs_have_consistent_group_order(seed):
    g = random_rational_graph(random.Random(seed), max_vertices=5)
    order = 1
    for m in g.group.invariant_factors:
        order *= m
    assert order == g.det_abs
    assert g.group.order == g.det_abs
