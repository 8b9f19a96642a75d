"""Multibranch value semigroups: Hilbert tables, Poincare coefficients,
delta invariants, and the Hilbert-Poincare inversion round trip."""

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import sample_curves
from resgraph import curves
from resgraph.curves import (BOX_CELL_CAP, CurveDataError, HilbertTable,
                             MultibranchCurve, delta_branch, delta_total,
                             hilbert_table, parse_curve, poincare_series,
                             verify_inversion)


def cusp23():
    return MultibranchCurve.from_semigroup([2, 3])


def tacnode():
    return MultibranchCurve.from_values([(0, 0), (1, 1), (2, 2)], (2, 2))


def cusp_with_line():
    # cusp branch (t^2, t^3) with the transversal line x = 0; values derived
    # by hand from the orders of x, y combinations on both branches
    return MultibranchCurve.from_values(
        [(0, 0), (2, 1), (3, 1), (2, 2), (4, 2)], (4, 2))


# ---------------------------------------------------------------------------
# construction

def test_semigroup_constructor():
    c = cusp23()
    assert c.conductor == (2,)
    assert sorted(c.values) == [(0,), (2,)]


def test_semigroup_needs_coprime_generators():
    with pytest.raises(CurveDataError):
        MultibranchCurve.from_semigroup([4, 6])


def test_ordinary_tuple_shape():
    c = MultibranchCurve.ordinary(3)
    assert c.conductor == (1, 1, 1)
    assert sorted(c.values) == [(0, 0, 0), (1, 1, 1)]


def test_missing_zero_rejected():
    with pytest.raises(CurveDataError):
        MultibranchCurve.from_values([(1, 1)], (1, 1))


def test_closure_violation_rejected():
    with pytest.raises(CurveDataError):
        MultibranchCurve.from_values([(0,), (2,), (3,), (5,)], (5,))


def test_missing_conductor_value_rejected():
    with pytest.raises(CurveDataError):
        MultibranchCurve.from_values([(0, 0), (1, 1)], (2, 2))


def test_parse_curve_grammar():
    text = "branches 2\nconductor 2 2\ns 0 0\ns 1 1\ns 2 2\n"
    assert parse_curve(text) == tacnode()


def test_membership_clamps_beyond_conductor():
    c = cusp_with_line()
    assert c.member((7, 9))
    assert c.member((2, 5))
    assert not c.member((1, 1))
    assert not c.member((3, 0))


# ---------------------------------------------------------------------------
# Hilbert tables

def test_cusp_hilbert_values():
    h = hilbert_table(cusp23())
    assert [h.value((k,)) for k in range(6)] == [0, 1, 1, 2, 3, 4]


def test_ordinary_pair_hilbert_values():
    h = hilbert_table(MultibranchCurve.ordinary(2))
    assert h.value((1, 1)) == 1
    assert h.value((2, 2)) == 3
    assert h.value((0, 0)) == 0
    assert h.value((-3, 1)) == h.value((0, 1))


def test_hilbert_unit_steps():
    for curve in (tacnode(), cusp_with_line(), MultibranchCurve.ordinary(3)):
        h = hilbert_table(curve)
        limits = tuple(c + 1 for c in curve.conductor)
        for ell in itertools.product(*(range(m + 1) for m in limits)):
            for i in range(curve.branches):
                if ell[i] < limits[i]:
                    bumped = tuple(x + 1 if j == i else x for j, x in enumerate(ell))
                    assert 0 <= h.value(bumped) - h.value(ell) <= 1


def test_hilbert_stability_on_fringe():
    for curve in (tacnode(), cusp_with_line()):
        h = hilbert_table(curve)
        delta = delta_total(curve)
        c = curve.conductor
        for bump in itertools.product((0, 1), repeat=curve.branches):
            ell = tuple(a + b for a, b in zip(c, bump))
            assert h.value(ell) == sum(ell) - delta


# ---------------------------------------------------------------------------
# Poincare series and delta

def test_single_branch_series_is_semigroup_indicator():
    ps = poincare_series(cusp23())
    assert [ps.coefficient((k,)) for k in range(7)] == [1, 0, 1, 1, 1, 1, 1]


def test_ordinary_pair_value_at_one():
    assert poincare_series(MultibranchCurve.ordinary(2)).value_at_one() == 1


def test_plane_pairs_evaluate_to_intersection_multiplicity():
    assert poincare_series(tacnode()).value_at_one() == 2
    assert poincare_series(cusp_with_line()).value_at_one() == 2


def test_poincare_support_in_conductor_box():
    for curve in (tacnode(), cusp_with_line()):
        ps = poincare_series(curve)
        for key in ps.terms:
            assert all(0 <= x <= c + 1 for x, c in zip(key, curve.conductor))


def test_branch_deltas():
    assert delta_branch(cusp23()) == 1
    assert delta_branch(MultibranchCurve.from_semigroup([1])) == 0
    assert delta_branch(MultibranchCurve.from_semigroup([2, 7])) == 3


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_ordinary_tuple_delta(r):
    assert delta_total(MultibranchCurve.ordinary(r)) == r - 1


def test_plane_curve_delta_decomposition():
    # two smooth transversal branches: 0 + 0 + 1
    assert delta_total(MultibranchCurve.ordinary(2)) == 1
    # two smooth branches with second-order contact: 0 + 0 + 2
    assert delta_total(tacnode()) == 2
    # cusp plus transversal line: 1 + 0 + 2
    assert delta_total(cusp_with_line()) == 3


def test_subcurve_projection():
    sub = cusp_with_line().subcurve((0,))
    assert delta_branch(sub) == 1
    assert sub.conductor == (4,)


# ---------------------------------------------------------------------------
# inversion round trip

@pytest.mark.parametrize("make", [cusp23, tacnode, cusp_with_line,
                                  lambda: MultibranchCurve.ordinary(2),
                                  lambda: MultibranchCurve.ordinary(3)])
def test_inversion_on_fixtures(make):
    ok, witness = verify_inversion(make())
    assert ok, witness


def test_inversion_fails_on_perturbed_data():
    # drop an interior value but keep additive closure: (2,2) alone closes,
    # yet the Hilbert recursion becomes path dependent or inversion breaks
    bad = None
    try:
        bad = MultibranchCurve.from_values([(0, 0), (2, 2)], (2, 2))
    except CurveDataError:
        pass
    if bad is not None:
        try:
            ok, _ = verify_inversion(bad)
        except CurveDataError:
            return
        assert not ok or delta_total(bad) >= 0


def test_fuzzed_value_sets_invert():
    curves = sample_curves(seed=424242, count=100)
    assert len(curves) >= 100
    for curve in curves:
        ok, witness = verify_inversion(curve)
        assert ok, (curve, witness)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_random_two_generator_semigroups(seed):
    rng = random.Random(seed)
    a = rng.randint(2, 9)
    b = rng.randint(a + 1, 12)
    from math import gcd
    if gcd(a, b) != 1:
        return
    curve = MultibranchCurve.from_semigroup([a, b])
    # the plane branch with exponents a, b has (a-1)(b-1)/2 gaps
    assert delta_branch(curve) == (a - 1) * (b - 1) // 2
    ok, _ = verify_inversion(curve)
    assert ok


# ---------------------------------------------------------------------------
# the per-cell loops the array code replaced, kept as an oracle

def _boxes(limits):
    return itertools.product(*(range(m + 1) for m in limits))


def _has_jump(curve, ell, i):
    need = tuple(min(x, m) for x, m in zip(ell, curve.conductor))
    return any(s[i] == ell[i] and all(s[j] >= need[j] for j in range(curve.branches)
                                      if j != i)
               for s in curve.values)


def oracle_table(curve):
    """Hilbert values on [0, conductor + 1], filled cell by cell."""
    table = {}
    for ell in _boxes(tuple(x + 1 for x in curve.conductor)):
        if not any(ell):
            table[ell] = 0
            continue
        vals = set()
        for i in range(curve.branches):
            if ell[i] > 0:
                prev = tuple(x - 1 if j == i else x for j, x in enumerate(ell))
                vals.add(table[prev] + int(_has_jump(curve, prev, i)))
        if len(vals) != 1:
            raise CurveDataError(
                f"Hilbert recursion is path dependent at {ell}: got {sorted(vals)}; "
                "the value set is not a valid curve semigroup")
        table[ell] = vals.pop()
    return table


def oracle_value(curve, table, ell):
    clipped = tuple(max(x, 0) for x in ell)
    capped = tuple(min(x, c + 1) for x, c in zip(clipped, curve.conductor))
    return table[capped] + sum(x - (c + 1) for x, c in zip(clipped, curve.conductor)
                               if x > c + 1)


def oracle_terms(curve, js=None):
    """Poincare coefficients by the alternating sum of 2^r Hilbert values."""
    sub = curve if js is None else curve.subcurve(js)
    r = sub.branches
    table = oracle_table(sub)
    if r == 1:
        return {(x,): 1 for x in range(sub.conductor[0] + 1) if sub.member((x,))}

    def coef(ell):
        return sum((-1) ** (len(ks) + 1)
                   * oracle_value(sub, table, tuple(x + (j in ks) for j, x in enumerate(ell)))
                   for k in range(r + 1) for ks in itertools.combinations(range(r), k))

    limits = tuple(x + 1 for x in sub.conductor)
    terms = {ell: coef(ell) for ell in _boxes(limits) if coef(ell)}
    for ell in _boxes(tuple(x + 2 for x in sub.conductor)):
        if any(x > m for x, m in zip(ell, limits)) and coef(ell):
            raise CurveDataError(
                f"Poincare support escapes the conductor box at {ell}; "
                "inconsistent value data")
    return terms


def oracle_delta(curve):
    r = curve.branches
    total = sum(delta_branch(curve.subcurve((i,))) for i in range(r))
    for k in range(2, r + 1):
        for js in itertools.combinations(range(r), k):
            total += (-1) ** k * sum(oracle_terms(curve, js).values())
    stable = sum(curve.conductor) - oracle_table(curve)[curve.conductor]
    if total != stable:
        raise CurveDataError(
            f"delta cross-check failed: alternating sum gives {total}, the "
            f"Hilbert value at the conductor gives {stable}")
    return total


def oracle_inversion(curve):
    r = curve.branches
    table = oracle_table(curve)
    series = {js: (curve.subcurve(js), oracle_terms(curve, js))
              for k in range(1, r + 1) for js in itertools.combinations(range(r), k)}
    for ell in _boxes(tuple(x + 1 for x in curve.conductor)):
        total = 0
        for js, (sub, terms) in series.items():
            bound = [ell[j] - 1 for j in js]
            if any(b < 0 for b in bound):
                continue
            coefficient = ((lambda t: int(sub.member(t))) if len(js) == 1
                           else (lambda t: terms.get(t, 0)))
            total += (-1) ** (len(js) - 1) * sum(
                coefficient(t) for t in _boxes(bound))
        if total != table[ell]:
            return False, ell
    return True, None


def _outcome(compute):
    try:
        return "value", compute()
    except CurveDataError as exc:
        return "error", str(exc)


@st.composite
def closed_value_sets(draw):
    """Random value sets closed under addition inside the box; many are not
    curve semigroups (their Hilbert recursion is path dependent)."""
    r = draw(st.integers(1, 3))
    c = tuple(draw(st.integers(0, 5)) for _ in range(r))
    values = {(0,) * r, c}
    values |= set(draw(st.lists(st.tuples(*(st.integers(0, m) for m in c)),
                                max_size=5)))
    with_minima = draw(st.booleans())
    grown = True
    while grown:
        old = set(values)
        values |= {u for s in old for t in old
                   for u in [tuple(a + b for a, b in zip(s, t))]
                   if all(x <= m for x, m in zip(u, c))}
        if with_minima:
            values |= {tuple(map(min, s, t)) for s in old for t in old}
        grown = values != old
    return MultibranchCurve.from_values(values, c)


@given(closed_value_sets())
@example(MultibranchCurve.from_values(  # mismatches at (1, 0, 1) and (2, 1, 1)
    [(0, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1), (2, 2, 0),
     (2, 2, 1)], (2, 2, 1)))
@settings(max_examples=300, deadline=None)
def test_array_layer_matches_per_cell_oracle(curve):
    box = list(_boxes(tuple(x + 1 for x in curve.conductor)))
    assert (_outcome(lambda: {ell: hilbert_table(curve).value(ell) for ell in box})
            == _outcome(lambda: oracle_table(curve)))
    terms = _outcome(lambda: list(poincare_series(curve).terms.items()))
    assert terms == _outcome(lambda: list(oracle_terms(curve).items()))
    if terms[0] == "value":
        assert all(type(x) is int for key, v in terms[1] for x in key + (v,))
    assert _outcome(lambda: delta_total(curve)) == _outcome(lambda: oracle_delta(curve))
    assert (_outcome(lambda: verify_inversion(curve))
            == _outcome(lambda: oracle_inversion(curve)))


def oracle_closure_error(values, c):
    """The first missing sum s + t over sorted pairs of values, as an error."""
    for s in sorted(values):
        for t in sorted(values):
            u = tuple(a + b for a, b in zip(s, t))
            if all(x <= m for x, m in zip(u, c)) and u not in values:
                return ("error", f"value set is not closed under addition: "
                                 f"{s} + {t} = {u} is missing")
    return "value", None


@st.composite
def value_sets(draw):
    c = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    values = draw(st.sets(st.tuples(*(st.integers(0, m) for m in c))))
    return frozenset(values | {(0,) * len(c), c}), c


@given(value_sets())
@settings(max_examples=200, deadline=None)
def test_closure_check_names_the_first_missing_sum(data):
    values, c = data

    def build():
        MultibranchCurve.from_values(values, c)
    assert _outcome(build) == oracle_closure_error(values, c)


# ---------------------------------------------------------------------------
# routes valid value data never takes

def _shifted_tables(monkeypatch, shift):
    """Make every Hilbert table of a two-branch (sub)curve come out as
    ``shift(grid)``."""
    build = curves.hilbert_table

    def shifted(curve):
        h = build(curve)
        if curve.branches != 2:
            return h
        return HilbertTable(curve=h.curve, grid=shift(h.grid.copy()))
    monkeypatch.setattr(curves, "hilbert_table", shifted)


@st.composite
def integer_tables(draw):
    """A table of arbitrary integers on the box of a curve with 2..4 branches."""
    c = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=4)))
    curve = MultibranchCurve.from_values([(0,) * len(c), c], c)
    grid = draw(arrays(np.int64, tuple(m + 2 for m in c),
                       elements=st.integers(-10 ** 6, 10 ** 6)))
    return HilbertTable(curve=curve, grid=grid)


@given(integer_tables())
@settings(max_examples=200, deadline=None)
def test_differences_vanish_on_every_top_layer(table):
    # what lets poincare_series drop the layers l_i = c_i + 1 unchecked and
    # delta_total read the evaluations at one off the corner of the reassembly
    out = table.differences()
    c = table.curve.conductor
    assert out.shape == tuple(m + 2 for m in c)
    for i, m in enumerate(c):
        assert not np.take(out, m + 1, axis=i).any()


def test_delta_cross_check_failure_is_reported(monkeypatch):
    def plus_one(grid):
        return grid + 1  # every difference, so every coefficient, stays
    _shifted_tables(monkeypatch, plus_one)
    with pytest.raises(CurveDataError) as err:
        delta_total(tacnode())
    assert str(err.value) == ("delta cross-check failed: alternating sum gives 2, "
                              "the Hilbert value at the conductor gives 1")


def test_failed_inversion_names_a_python_int_witness(monkeypatch):
    def bump(grid):
        grid[1, 0] += 1  # a face cell: the one-branch series no longer match
        return grid
    _shifted_tables(monkeypatch, bump)
    ok, witness = verify_inversion(tacnode())
    assert (ok, witness) == (False, (1, 0))
    assert all(type(x) is int for x in witness)


# ---------------------------------------------------------------------------
# one reassembly per curve object

def _counted(monkeypatch, name):
    """Count the calls of ``curves.<name>`` by the branch count of the curve."""
    calls = collections.Counter()
    build = getattr(curves, name)

    def counted(curve, *args):
        calls[curve.branches] += 1
        return build(curve, *args)
    monkeypatch.setattr(curves, name, counted)
    return calls


def test_delta_and_inversion_share_one_subset_pass(monkeypatch):
    tables = _counted(monkeypatch, "hilbert_table")
    curve = MultibranchCurve.ordinary(3)
    assert delta_total(curve) == 2
    assert verify_inversion(curve) == (True, None)
    # each 2-branch subcurve once; the whole curve in the pass, for the
    # delta cross-check and for the inversion check
    assert tables == {2: 3, 3: 3}


def test_equal_curves_do_not_share_the_reassembly(monkeypatch):
    series = _counted(monkeypatch, "poincare_series")
    first, second = tacnode(), tacnode()
    assert first == second and first is not second
    assert type(delta_total(first)) is int
    assert sum(series.values()) == 3
    delta_total(first)
    assert sum(series.values()) == 3
    delta_total(second)
    assert sum(series.values()) == 6


# ---------------------------------------------------------------------------
# the box cap

def test_box_cap_refuses_before_building():
    for make in (lambda: MultibranchCurve.ordinary(20),
                 lambda: MultibranchCurve.ordinary(10 ** 9),
                 lambda: MultibranchCurve.from_semigroup([1000, 1001]),
                 lambda: MultibranchCurve.from_semigroup([100000007, 100000009]),
                 lambda: MultibranchCurve.from_values([(0, 0), (50, 50)], (50, 50))):
        with pytest.raises(CurveDataError, match=f"more than {BOX_CELL_CAP} cells"):
            make()


def test_box_cap_admits_its_largest_boxes():
    # the two-generator conductor is (a - 1)(b - 1): boxes of 2026 and 2048 cells
    assert MultibranchCurve.from_semigroup([45, 47]).conductor == (2024,)
    assert MultibranchCurve.from_semigroup([2, 2047]).conductor == (2046,)
    assert delta_total(MultibranchCurve.ordinary(6)) == 5
    with pytest.raises(CurveDataError):
        MultibranchCurve.from_semigroup([46, 47])
