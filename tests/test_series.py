"""Zeta factorisation and bounded expansion, checked against a brute-force
expander that knows nothing about the production enumeration order."""

import itertools
import tracemalloc
from fractions import Fraction
from math import ceil, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph import series as seriesmod
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.graphs import parse_graph
from resgraph.series import (RegionError, SparseSeries, TableBudgetExceeded,
                             TwistError, ZetaSpec, build_zeta, expand, h_part,
                             reduce_to, synthetic_spec)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def brute_ranges(spec, bound: Fraction) -> list[int]:
    """Per generator, how many multiplicities ``brute_terms`` tries."""
    den = spec.den
    # a numerator entry below zero needs that many more copies to leave
    low = min([0, *(b for _, e in spec.num for b in e)])
    return [int(max((Fraction(bound) - Fraction(low, den)) / Fraction(c, den) for c in g)) + 2
            for g in spec.dens]


def brute_terms(spec, bound: Fraction) -> dict:
    """Independent expansion: plain nested loops over multiplicities with
    Fraction arithmetic, no pruning tricks."""
    bound = Fraction(bound)
    nvars, den = spec.nvars, spec.den
    gens = [tuple(Fraction(x, den) for x in g) for g in spec.dens]
    num = [(c, tuple(Fraction(x, den) for x in e)) for c, e in spec.num]
    ranges = brute_ranges(spec, bound)
    out: dict = {}
    for combo in itertools.product(*(range(r) for r in ranges)):
        vec = [Fraction(0)] * nvars
        for c, g in zip(combo, gens):
            for i in range(nvars):
                vec[i] += c * g[i]
        for coeff, base in num:
            p = tuple(b + v for b, v in zip(base, vec))
            if any(x < bound for x in p):
                key = tuple(int(x * den) for x in p)
                out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _lexmerge(rows, mult):
    """Equal rows merged, multiplicities summed, by ``lexsort`` over every
    column."""
    if not len(rows):
        return rows, mult
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = fresh.nonzero()[0]
    return ranked[first], np.add.reduceat(mult[order], first)


def rowwise_expand(spec, bound):
    """The row-matrix kernel ``expand`` replaced, kept as its oracle: the
    rows are an (N, n) matrix, shifted, filtered and merged by ``lexsort``
    over every column.  As in ``expand``, the rows and the multiplicities
    take their dtypes from their own bounds, and a generator one copy of
    which leaves the region is skipped, so its entries never enter an
    array."""
    bound = Fraction(bound)
    bscaled = bound * spec.den
    top = ceil(bscaled)
    terms = [(c, e) for c, e in spec.num if c]
    columns = list(zip(*(e for _, e in terms))) or [()] * spec.nvars
    low = [min((0, *col)) for col in columns]
    limit = [top - x for x in low]
    copies = [max(-(-b // x) for b, x in zip(limit, gen)) for gen in spec.dens]
    high = [max((0, *col)) + sum((k - 1) * gen[j] for k, gen in zip(copies, spec.dens))
            for j, col in enumerate(columns)]
    weight = prod(copies) * sum(abs(c) for c, _ in terms)
    rtype = object if max(*limit, *high) >= 2 ** 63 else np.int64
    rows = np.zeros((1, spec.nvars), dtype=rtype)
    mult = np.ones(1, dtype=object if weight >= 2 ** 63 else np.int64)
    limit = np.array(limit, dtype=rtype)
    for gen in (g for g, k in zip(spec.dens, copies) if k > 1):
        gen = np.array(gen, dtype=rtype)
        room = (-((rows - limit) // gen)).max(axis=1)
        n = int(room.sum())
        seriesmod._refuse_over_cap(n)
        room = room.astype(np.int64)
        k = np.arange(n) - np.repeat(np.cumsum(room) - room, room)
        rows, mult = _lexmerge(np.repeat(rows, room, axis=0) + k[:, None] * gen,
                               np.repeat(mult, room))
    picked = []
    held = 0
    for c, e in terms:
        moved = rows + np.array(e, dtype=rtype)
        keep = (moved < top).any(axis=1)
        picked.append((moved[keep], c * mult[keep]))
        held += len(picked[-1][1])
        seriesmod._refuse_over_cap(held)
    if len(picked) == 1:
        (rows, mult), = picked
    else:
        rows, mult = _lexmerge(np.concatenate([rows[:0], *(m for m, _ in picked)]),
                               np.concatenate([mult[:0], *(p for _, p in picked)]))
        nonzero = mult != 0
        rows, mult = rows[nonzero], mult[nonzero]
    return SparseSeries(spec.ids, spec.den, bscaled, rows, mult)


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


def test_twist_moves_every_numerator_exponent(dihedral):
    # the spec of t^{l0} Z is the plain spec with its numerator moved by l0
    tw = dihedral.dual(1)
    plain, twisted = build_zeta(dihedral), build_zeta(dihedral, twist=tw)
    shift = tw.scaled(12)
    assert (twisted.ids, twisted.den, twisted.dens) == (plain.ids, plain.den, plain.dens)
    assert twisted.num == tuple((c, tuple(a + b for a, b in zip(e, shift)))
                                for c, e in plain.num)


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
             if not all(a >= b for a, b in zip(k, (12, 8, 4)))}  # below (3, 2, 1)
    expected = {(0, 0, 0): 1, (4, 4, 4): 1, (4, 8, 12): 1,
                (8, 8, 8): 1, (8, 12, 16): 1, (8, 16, 24): 1}
    assert small == expected


def test_brieskorn_expansion_starts_with_known_monomial(brieskorn):
    series = expand(build_zeta(brieskorn), 2)
    assert list(series.terms.items()) == [((0, 0, 0, 0), 1), ((6, 3, 2, 1), 1)]


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


def test_dump_format(a3):
    series = expand(build_zeta(a3), Fraction(3, 2))
    zero = h_part(series, a3.residue(zero_cycle(3)), 4)
    assert zero.dump() == ("1 0/4 0/4 0/4\n1 4/4 4/4 4/4\n"
                           "1 4/4 8/4 12/4\n1 12/4 8/4 4/4")


@st.composite
def _specs_and_bounds(draw):
    """A spec on 1-3 variables with den <= 12, 0-4 generators and 1-3 signed
    numerator terms, and a Fraction bound small enough for the brute
    force."""
    nvars = draw(st.integers(1, 3))

    def vec(lo: int, hi: int):
        return st.lists(st.integers(lo, hi), min_size=nvars, max_size=nvars).map(tuple)

    den = draw(st.integers(1, 12))
    dens = draw(st.lists(vec(1, 9), max_size=4))
    num = draw(st.lists(st.tuples(st.sampled_from([-3, -1, 1, 2]), vec(-3, 9)),
                        min_size=1, max_size=3))
    spec = ZetaSpec(tuple(range(1, nvars + 1)), den, tuple(num), tuple(dens))
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


REFUSAL_POINTS = [
    ([(1, (0,))], [(1,)], 9, True),  # the first generator's 10 copies
    ([(1, (0,))], [(1,)], 10, False),
    ([(1, (0,))], [(1,), (1,)], 54, True),  # 55 rows before the merge
    ([(1, (0,))], [(1,), (1,)], 55, False),
    ([(1, (0,)), (-1, (1,))], [(1,)], 18, True),  # 10 + 9 numerator rows
    ([(1, (0,)), (-1, (1,))], [(1,)], 19, False),
]


@pytest.mark.parametrize("num, dens, cap, refused", REFUSAL_POINTS)
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


@pytest.mark.parametrize("dens, bound, terms", [
    ([(2 ** 64,)], 1, {(0,): 1}),
    ([(1, 2 ** 64)], 1, {(0, 0): 1}),
    ([(1, 2 ** 64)], 3, {(0, 0): 1, (1, 2 ** 64): 1, (2, 2 ** 65): 1}),
])
def test_generator_entries_past_int64(dens, bound, terms):
    # a generator one copy of which leaves the region never enters an array
    spec = synthetic_spec(num=[(1, (0,) * len(dens[0]))], dens=dens)
    assert expand(spec, bound).terms == terms == brute_terms(spec, bound)


W22, WIDE = 2 ** 22, 2 ** 62 + 5
ORACLE_CASES = [
    # two int64 words: each coordinate fits, the product of their ranges does not
    (synthetic_spec(num=[(1, (0, 0, 0)), (-1, (1, 1, 1))],
                    dens=[(1, W22, W22), (W22, 1, W22), (W22, W22, 1)]), 4, None),
    # one object word: a single coordinate's range passes 2**63
    (synthetic_spec(num=[(1, (0, 0)), (-2, (WIDE, 3))], dens=[(1, WIDE), (WIDE, 2)]), 6, None),
    # multiplicities past int64 on int64 rows
    (synthetic_spec(num=[(2 ** 70, (0,)), (1 - 2 ** 70, (1,)), (3, (2,))],
                    dens=[(1,), (2,)]), 9, None),
    *((synthetic_spec(num=num, dens=dens), 10, cap) for num, dens, cap, _ in REFUSAL_POINTS),
]


def _copies_product(spec, top: int) -> int:
    """The bound ``expand`` puts on its generator rows at the scaled bound
    ``top``."""
    low = [min([0, *(e[j] for _, e in spec.num)]) for j in range(spec.nvars)]
    return prod(max(-(-(top - lo) // x) for lo, x in zip(low, gen)) for gen in spec.dens)


@st.composite
def _scaled_specs(draw):
    """A spec on 1-4 variables whose columns are scaled by up to 2**62, so
    the keys take one int64 word, several, or one object word, with
    coefficients up to 2**70; the bound keeps at most 5,000 generator rows."""
    nvars = draw(st.integers(1, 4))
    scale = draw(st.lists(st.sampled_from([1, 1, 2 ** 21, 2 ** 31, 2 ** 62]),
                          min_size=nvars, max_size=nvars))

    def vec(lo: int, hi: int):
        return st.lists(st.integers(lo, hi), min_size=nvars, max_size=nvars).map(
            lambda v: tuple(x * s for x, s in zip(v, scale)))

    den = draw(st.integers(1, 12))
    dens = draw(st.lists(vec(1, 12), max_size=4))
    num = draw(st.lists(st.tuples(st.sampled_from([-3, -1, 1, 2, 2 ** 70, 1 - 2 ** 70]),
                                  vec(-3, 12)), min_size=1, max_size=4))
    spec = ZetaSpec(tuple(range(1, nvars + 1)), den, tuple(num), tuple(dens))
    top = draw(st.integers(1, 60))
    while top > 1 and _copies_product(spec, top) > 5000:
        top -= 1
    return spec, Fraction(top, den), None


def _outcome(kernel, spec, bound):
    """The rows, their dtype kind and order, and the multiplicities of an
    expansion, or the refusal it meets."""
    try:
        series = kernel(spec, bound)
    except TableBudgetExceeded as exc:
        return "refused", exc.args, exc.what
    return (series.rows.dtype.kind, series.rows.tolist(), series.mult.dtype.kind,
            series.mult.tolist(), series.bound)


def _assert_same_expansion(spec, bound, cap):
    with mock.patch.object(seriesmod, "TABLE_STATE_CAP", cap or seriesmod.TABLE_STATE_CAP):
        assert _outcome(expand, spec, bound) == _outcome(rowwise_expand, spec, bound)


@settings(max_examples=200, deadline=None)
@given(_scaled_specs())
def test_expand_equals_the_rowwise_kernel(case):
    _assert_same_expansion(*case)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_expand_equals_the_rowwise_kernel_at_fixed_cases(case):
    _assert_same_expansion(*case)


def test_layout_takes_as_few_words_as_the_spans_allow():
    # 4 * 2**60 < 2**63 <= 8 * 2**60: the first three columns share a word
    layout = seriesmod._Layout([0] * 4, [2, 2, 2 ** 60, 8])
    assert layout.word == [0, 0, 0, 1] and layout.stride == [2 ** 61, 2 ** 60, 1, 1]
    assert seriesmod._Layout([0] * 3, [2 ** 22] * 3).word == [0, 1, 1]
    wide = seriesmod._Layout([0, 0], [2 ** 63, 2])
    assert wide.dtype is object and wide.word == [0, 0] and wide.stride == [2, 1]


def test_expand_peaks_below_three_times_its_result(dihedral):
    # the rows stay packed keys until the end, so the enumeration holds
    # about twice the series it returns
    spec = build_zeta(dihedral)
    tracemalloc.start()
    try:
        series = expand(spec, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.mult) == 154_400
    assert peak <= 3 * (series.rows.nbytes + series.mult.nbytes)

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
    # h_part selects by residue and needs no row order; dump writes the rows
    # in the order they are held, which every constructor keeps sorted
    series = expand(build_zeta(dihedral), 3)
    order = np.random.default_rng(3).permutation(len(series.mult))
    shuffled = SparseSeries(series.ids, series.den, series.bound,
                            series.rows[order], series.mult[order])
    residue = dihedral.residue(zero_cycle(4))
    assert h_part(shuffled, residue, 12).terms == h_part(series, residue, 12).terms
    lines = series.dump().split("\n")
    assert shuffled.dump().split("\n") == [lines[i] for i in order]


def _sorted_dump(series) -> str:
    """The dump written from the sorted term map, one line per term."""
    return "\n".join(f"{c} " + " ".join(f"{x}/{series.den}" for x in key)
                     for key, c in sorted(series.terms.items()))


@pytest.mark.parametrize("path", sorted(GRAPHS.glob("*.graph")), ids=lambda p: p.stem)
def test_series_rows_stay_in_lexicographic_order(path):
    # expand, h_part and reduce_to hand their rows over sorted, so the dump
    # writes them as held and matches the dump of the sorted term map
    graph = parse_graph(path.read_text())
    zero = graph.residue(zero_cycle(graph.n))
    for bound in (1, Fraction(5, 2), 4):
        full = expand(build_zeta(graph), bound)
        part = h_part(full, zero, graph.det_abs)
        for series in (full, part, reduce_to(part, graph.ids[:0:-1])):
            assert list(series.terms) == sorted(series.terms)
            assert series.dump() == _sorted_dump(series)


def test_dump_keeps_the_order_across_blocks_and_wide_rows(dihedral):
    # 154,400 rows span three blocks of lines; the wide spec's rows are
    # object arrays
    series = expand(build_zeta(dihedral), 16)
    assert len(series.mult) > 2 * 2 ** 16
    assert series.dump() == _sorted_dump(series)
    lines = [block.count("\n") + 1 for block in series.dump_blocks()]
    assert lines == [2 ** 16, 2 ** 16, len(series.mult) - 2 ** 17]
    big = 2 ** 62 + 5
    wide = expand(synthetic_spec(num=[(1, (0, 0)), (-2, (big, 3))],
                                 dens=[(1, big), (big, 2)], den=3), 6)
    assert wide.rows.dtype == object
    assert wide.dump() == _sorted_dump(wide)
    assert expand(build_zeta(dihedral), Fraction(1, 24)).dump() == "1 0/12 0/12 0/12 0/12"
    assert h_part(series, (1,), 12).dump() == ""
    assert list(h_part(series, (1,), 12).dump_blocks()) == []


def _assert_reduction_sums_the_fibers(series, keep):
    pos = [series.ids.index(v) for v in keep]
    fibers: dict = {}
    for key, c in series.terms.items():
        image = tuple(key[p] for p in pos)
        if min(image) < series.bound:
            fibers[image] = fibers.get(image, 0) + c
    red = reduce_to(series, keep)
    assert red.rows.dtype == series.rows.dtype
    assert list(red.terms.items()) == sorted((k, c) for k, c in fibers.items() if c)


@pytest.mark.parametrize("spec, bound", [case[:2] for case in ORACLE_CASES[:2]])
def test_reduce_on_wide_layouts_sums_the_fibers(spec, bound):
    # rows that pack into two int64 words, and rows of one object word
    series = expand(spec, bound)
    for size in range(1, spec.nvars + 1):
        for keep in itertools.permutations(spec.ids, size):
            _assert_reduction_sums_the_fibers(series, keep)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_sums_the_fibers_of_random_series(data):
    # many rows on every layout, so keys packed on a span too short for
    # their column would merge rows that differ
    spec, bound, _ = data.draw(_scaled_specs())
    keep = data.draw(st.permutations(spec.ids))[:data.draw(st.integers(1, spec.nvars))]
    _assert_reduction_sums_the_fibers(expand(spec, bound), keep)


@pytest.mark.parametrize("keep, dup", [([1, 1, 1], 1), ([1, 1], 1), ([2, 3, 2], 2)])
def test_reduce_refuses_duplicate_ids(a3, keep, dup):
    zero = h_part(expand(build_zeta(a3), 2), a3.residue(zero_cycle(3)), 4)
    with pytest.raises(ValueError, match=f"^duplicate variable id {dup}$"):
        reduce_to(zero, keep)
