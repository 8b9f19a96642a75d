"""Zeta factorisation and bounded expansion, checked against a brute-force
expander that knows nothing about the production enumeration order."""

import itertools
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph import series as seriesmod
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.series import (RegionError, SparseSeries, TableBudgetExceeded,
                             TwistError, ZetaSpec, build_zeta, expand, h_part,
                             reduce_to, synthetic_spec)


def brute_ranges(spec, bound: Fraction) -> list[int]:
    """Per generator, how many multiplicities ``brute_terms`` tries."""
    den = spec.den
    tw = spec.twist_or_zero
    # a numerator entry below zero needs that many more copies to leave
    low = min([0, *(b + t for _, e in spec.num for b, t in zip(e, tw))])
    return [int(max((Fraction(bound) - Fraction(low, den)) / Fraction(c, den) for c in g)) + 2
            for g in spec.dens]


def brute_terms(spec, bound: Fraction) -> dict:
    """Independent expansion: plain nested loops over multiplicities with
    Fraction arithmetic, no pruning tricks."""
    bound = Fraction(bound)
    nvars, den = spec.nvars, spec.den
    gens = [tuple(Fraction(x, den) for x in g) for g in spec.dens]
    tw = tuple(Fraction(x, den) for x in spec.twist_or_zero)
    num = [(c, tuple(Fraction(x, den) for x in e)) for c, e in spec.num]
    ranges = brute_ranges(spec, bound)
    out: dict = {}
    for combo in itertools.product(*(range(r) for r in ranges)):
        vec = [Fraction(0)] * nvars
        for c, g in zip(combo, gens):
            for i in range(nvars):
                vec[i] += c * g[i]
        for coeff, base in num:
            p = tuple(b + v + t for b, v, t in zip(base, vec, tw))
            if any(x < bound for x in p):
                key = tuple(int(x * den) for x in p)
                out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def test_a3_zeta_shape(a3):
    spec = build_zeta(a3)
    assert spec.num == ((1, (0, 0, 0)),)
    assert sorted(spec.dens) == sorted([a3.dual(1).scaled(4), a3.dual(3).scaled(4)])


def test_brieskorn_zeta_shape(brieskorn):
    spec = build_zeta(brieskorn)
    coeffs = sorted(c for c, _ in spec.num)
    assert coeffs == [-1, 1]
    exps = {e for _, e in spec.num}
    assert (0, 0, 0, 0) in exps
    assert brieskorn.dual(1).scaled(1) in exps
    assert len(spec.dens) == 3


def test_zero_twist_same_as_untwisted(a3):
    assert build_zeta(a3, twist=zero_cycle(3)) == build_zeta(a3)


def test_twist_outside_cone_rejected(a3):
    with pytest.raises(TwistError):
        build_zeta(a3, twist=RationalCycle((1, 0, 0)))


def test_relative_factor_cancels_at_leaf(a3):
    spec = build_zeta(a3, relative=[1])
    # the extra factor at a valence-one vertex cancels one denominator
    assert len(spec.dens) == 1
    assert spec.num == ((1, (0, 0, 0)),)


def test_a3_class_zero_expansion_matches_quotient_series(a3):
    series = expand(build_zeta(a3), 3)
    zero = h_part(series, a3.residue(zero_cycle(3)), 4)
    small = {k: v for k, v in zero.terms.items()
             if not RationalCycle(k, 4).geq(RationalCycle((3, 2, 1)))}
    expected = {(0, 0, 0): 1, (4, 4, 4): 1, (4, 8, 12): 1,
                (8, 8, 8): 1, (8, 12, 16): 1, (8, 16, 24): 1}
    assert small == expected


def test_brieskorn_expansion_starts_with_known_monomial(brieskorn):
    series = expand(build_zeta(brieskorn), 2)
    assert series.sorted_items() == [((0, 0, 0, 0), 1), ((6, 3, 2, 1), 1)]


def test_constant_spec_expands_to_one():
    spec = synthetic_spec(num=[(1, (0, 0))], dens=[], den=1)
    series = expand(spec, 5)
    assert series.terms == {(0, 0): 1}


@pytest.mark.parametrize("twisted", [False, True])
def test_expansion_against_brute_force(dihedral, twisted):
    twist = dihedral.dual(4) if twisted else None
    spec = build_zeta(dihedral, twist=twist)
    bound = Fraction(5, 2)
    series = expand(spec, bound)
    assert series.terms == brute_terms(spec, bound)


def test_expansion_support_is_antinef(dihedral):
    series = expand(build_zeta(dihedral), 2)
    for key in series.terms:
        assert dihedral.in_lipman_cone(RationalCycle(key, series.den))


def test_twist_shifts_support_exactly(dihedral):
    tw = dihedral.dual(1)
    plain = expand(build_zeta(dihedral), 2)
    twisted = expand(build_zeta(dihedral, twist=tw), 2 + max(tw.fractions()))
    shift = tw.scaled(12)
    for key, coeff in plain.terms.items():
        moved = tuple(a + b for a, b in zip(key, shift))
        assert twisted.terms.get(moved) == coeff


def test_coefficient_region_guard(a3):
    series = expand(build_zeta(a3), 2)
    assert series.coefficient(RationalCycle((1, 1, 1))) == 1
    assert series.coefficient(RationalCycle((1, 9, 9))) == 0  # in region: coord 1 < 2
    with pytest.raises(RegionError):
        series.coefficient(RationalCycle((2, 2, 2)))


def test_h_part_refuses_projected(brieskorn):
    series = expand(build_zeta(brieskorn), 2)
    red = reduce_to(series, [4])
    with pytest.raises(ValueError):
        h_part(red, (0,), 1)


def test_reduce_identity_when_all_kept(a3):
    series = expand(build_zeta(a3), 2)
    assert reduce_to(series, list(a3.ids)) is series


def test_reduce_keeps_the_order_asked_for(a3):
    zero = h_part(expand(build_zeta(a3), 2), a3.residue(zero_cycle(3)), 4)
    for keep in ([3, 2, 1], [2, 1, 3]):
        red = reduce_to(zero, keep)
        assert red.ids == tuple(keep) and red.projected
        pos = [a3.ids.index(v) for v in keep]
        assert red.terms == {tuple(k[p] for p in pos): c for k, c in zero.terms.items()}


def test_brieskorn_reduction_to_seifert_end(brieskorn):
    series = expand(build_zeta(brieskorn), 2)
    zero = h_part(series, brieskorn.residue(zero_cycle(4)), 1)
    red = reduce_to(zero, [4])
    assert red.terms == {(0,): 1, (1,): 1}


def test_reduce_fibers_complete(dihedral):
    # fiber sums computed from the full expansion must match the reduction
    series = expand(build_zeta(dihedral), 3)
    zero = h_part(series, dihedral.residue(zero_cycle(4)), 12)
    red = reduce_to(zero, [2])
    pos = 1  # vertex 2 sits at position 1
    for key, coeff in red.terms.items():
        direct = sum(v for k, v in zero.terms.items() if (k[pos],) == key)
        assert coeff == direct


def test_expansion_cost_estimate_monotone(dihedral):
    from resgraph.series import expansion_cost
    spec = build_zeta(dihedral)
    small, big = expansion_cost(spec, 2), expansion_cost(spec, 4)
    assert 0 < small < big


def test_dump_format(a3):
    series = expand(build_zeta(a3), Fraction(3, 2))
    zero = h_part(series, a3.residue(zero_cycle(3)), 4)
    assert zero.dump() == ("1 0/4 0/4 0/4\n1 4/4 4/4 4/4\n"
                           "1 4/4 8/4 12/4\n1 12/4 8/4 4/4")


@st.composite
def _specs_and_bounds(draw):
    """A spec on 1-3 variables with den <= 12, 0-4 generators and 1-3 signed
    numerator terms, twisted or not, and a Fraction bound small enough for
    the brute force."""
    nvars = draw(st.integers(1, 3))

    def vec(lo: int, hi: int):
        return st.lists(st.integers(lo, hi), min_size=nvars, max_size=nvars).map(tuple)

    den = draw(st.integers(1, 12))
    dens = draw(st.lists(vec(1, 9), max_size=4))
    num = draw(st.lists(st.tuples(st.sampled_from([-3, -1, 1, 2]), vec(-3, 9)),
                        min_size=1, max_size=3))
    twist = draw(st.none() | vec(0, 6))
    spec = ZetaSpec(tuple(range(1, nvars + 1)), den, tuple(num), tuple(dens), twist)
    scaled, q = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    while scaled > 1 and prod(brute_ranges(spec, Fraction(scaled, q * den))) > 1500:
        scaled -= 1
    return spec, Fraction(scaled, q * den)


@settings(max_examples=150, deadline=None)
@given(_specs_and_bounds())
def test_expand_matches_brute_force_on_random_specs(case):
    spec, bound = case
    series = expand(spec, bound)
    assert series.terms == brute_terms(spec, bound)
    assert series.bound == bound * spec.den
    assert all(type(x) is int for key in series.terms for x in key)
    assert all(type(c) is int for c in series.terms.values())


def test_wide_coordinates_match_brute_force():
    # int64 sums of these entries wrap after two copies
    big = 2 ** 62 + 5
    spec = synthetic_spec(num=[(1, (0, 0)), (-2, (big, 3))], dens=[(1, big), (big, 2)])
    series = expand(spec, 6)
    assert series.terms == brute_terms(spec, 6)
    assert max(max(key) for key in series.terms) > 2 ** 63


def test_packed_range_over_int64_matches_brute_force():
    # each coordinate fits int64, the product of their ranges does not
    w = 2 ** 22
    spec = synthetic_spec(num=[(1, (0, 0, 0)), (-1, (1, 1, 1))],
                          dens=[(1, w, w), (w, 1, w), (w, w, 1)])
    assert expand(spec, 4).terms == brute_terms(spec, 4)


def test_wide_multiplicities_stay_exact():
    big = 2 ** 70
    spec = synthetic_spec(num=[(big, (0,)), (1 - big, (1,)), (3, (2,))], dens=[(1,), (2,)])
    series = expand(spec, 9)
    assert series.terms == brute_terms(spec, 9)
    assert max(abs(c) for c in series.terms.values()) > 2 ** 63
    assert all(type(c) is int for c in series.terms.values())


@pytest.mark.parametrize("num, dens, cap, refused", [
    ([(1, (0,))], [(1,)], 9, True),  # the first generator's 10 copies
    ([(1, (0,))], [(1,)], 10, False),
    ([(1, (0,))], [(1,), (1,)], 54, True),  # 55 rows before the merge
    ([(1, (0,))], [(1,), (1,)], 55, False),
    ([(1, (0,)), (-1, (1,))], [(1,)], 18, True),  # 10 + 9 numerator rows
    ([(1, (0,)), (-1, (1,))], [(1,)], 19, False),
])
def test_expand_refuses_rows_over_the_cap(monkeypatch, num, dens, cap, refused):
    from resgraph import counting
    monkeypatch.setattr(seriesmod, "TABLE_STATE_CAP", cap)
    spec = synthetic_spec(num=num, dens=dens)
    if refused:
        with pytest.raises(TableBudgetExceeded) as exc:
            expand(spec, 10)
        assert exc.value.what == "series expansion"
    else:
        assert expand(spec, 10).terms == brute_terms(spec, 10)
    assert counting.TABLE_STATE_CAP == 1_800_000  # counting keeps its own binding


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_h_part_prefilter_equals_the_plain_filter(data):
    nvars = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 12))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(-30, 30)] * nvars),
        st.integers(-5, 5).filter(bool), max_size=60))
    key = data.draw(st.sampled_from(sorted(terms))) if terms else (0,) * nvars
    residue = tuple(x % d for x in key)
    kind = data.draw(st.sampled_from(["class", "unreduced", "short", "long"]))
    if kind == "unreduced":  # unreduced and negative residues match nothing
        residue = tuple(data.draw(st.integers(-d, 2 * d)) for _ in range(nvars))
    elif kind == "short":  # nor does a residue of another length
        residue = residue[:data.draw(st.integers(0, nvars - 1))]
    elif kind == "long":
        residue += residue[:1]
    rows = np.array(list(terms), dtype=np.int64).reshape(-1, nvars)
    mult = np.array(list(terms.values()), dtype=np.int64)
    series = SparseSeries(tuple(range(1, nvars + 1)), d, Fraction(10), rows, mult)
    plain = {k: v for k, v in terms.items() if tuple(x % d for x in k) == residue}
    assert list(h_part(series, residue, d).terms.items()) == list(plain.items())


def test_h_part_on_wide_coordinates_matches_brute_force():
    # the spec of test_wide_coordinates_match_brute_force over den 3, so its
    # rows are object arrays and fall into all nine classes
    big = 2 ** 62 + 5
    spec = synthetic_spec(num=[(1, (0, 0)), (-2, (big, 3))], dens=[(1, big), (big, 2)],
                          den=3)
    series = expand(spec, 6)
    assert series.rows.dtype == object
    brute = brute_terms(spec, 6)
    for residue in itertools.product(range(3), repeat=2):
        plain = {k: v for k, v in brute.items() if tuple(x % 3 for x in k) == residue}
        assert h_part(series, residue, 3).terms == plain
    # the row (0, 0) would match (0,) and (0, 0, 0) under broadcasting
    assert (0, 0) in h_part(series, (0, 0), 3).terms
    for residue in [(0,), (), (0, 0, 0), (3, 0)]:
        assert not h_part(series, residue, 3).terms


def test_h_part_leaves_the_expansion_term_map_unbuilt(dihedral):
    spec = build_zeta(dihedral)
    series = expand(spec, Fraction(5, 2))
    residue = dihedral.residue(zero_cycle(4))
    part = h_part(series, residue, 12)
    assert "terms" not in series.__dict__
    assert series.terms is series.terms
    brute = brute_terms(spec, Fraction(5, 2))
    assert list(series.terms.items()) == sorted(brute.items())
    assert part.terms == {k: v for k, v in brute.items()
                          if tuple(x % 12 for x in k) == residue}


def test_h_part_on_a_shuffled_term_map(dihedral):
    # the row order of an expansion is not part of its contract
    series = expand(build_zeta(dihedral), 3)
    order = np.random.default_rng(3).permutation(len(series.mult))
    shuffled = SparseSeries(series.ids, series.den, series.bound,
                            series.rows[order], series.mult[order])
    residue = dihedral.residue(zero_cycle(4))
    assert h_part(shuffled, residue, 12).sorted_items() == \
        h_part(series, residue, 12).sorted_items()
    assert shuffled.dump() == series.dump()


@pytest.mark.parametrize("keep, dup", [([1, 1, 1], 1), ([1, 1], 1), ([2, 3, 2], 2)])
def test_reduce_refuses_duplicate_ids(a3, keep, dup):
    zero = h_part(expand(build_zeta(a3), 2), a3.residue(zero_cycle(3)), 4)
    with pytest.raises(ValueError, match=f"^duplicate variable id {dup}$"):
        reduce_to(zero, keep)
