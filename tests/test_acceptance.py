"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every comparison is equality.  Runtime ceilings are
asserted with the stated budgets.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import dihedral_rows, sample_curves
from resgraph.counting import plain_zeta, surgery_check, sw_norm
from resgraph.curves import MultibranchCurve, delta_total, hilbert_table, verify_inversion
from resgraph.cycles import RationalCycle, zero_cycle
from resgraph.embedded import (EmbeddedCurve, RationalityError,
                               blache_correction, delta_cross_check,
                               delta_embedded, kappa_topological,
                               verify_twisted_duality)
from resgraph.graphs import artin_rationality, chi, min_antinef_rep
from resgraph.randtrees import (random_antinef, random_class,
                                random_positions, random_rational_graph,
                                random_unit_arrows)
from resgraph.series import expand, h_part


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def frac_cycle(*entries):
    fracs = [Fraction(e) for e in entries]
    den = math.lcm(*(f.denominator for f in fracs))
    return RationalCycle(tuple(int(f * den) for f in fracs), den)


def test_criterion_1_cyclic_quotient(a3):
    t0 = time.monotonic()
    ok = (a3.dual(1) == frac_cycle("3/4", "1/2", "1/4")
          and a3.dual(2) == frac_cycle("1/2", 1, "1/2")
          and a3.dual(3) == frac_cycle("1/4", "1/2", "3/4")
          and a3.canonical == zero_cycle(3))
    quartic = EmbeddedCurve(graph=a3, multiplicities=(4, 0, 0))
    ok = ok and quartic.cycle == RationalCycle((3, 2, 1))
    ok = ok and kappa_topological(a3, quartic.cycle) == 6
    ok = ok and delta_embedded(a3, quartic) == 6
    cut = EmbeddedCurve(graph=a3, multiplicities=(0, 1, 0))
    h = a3.group.class_of(cut.cycle)
    ok = ok and min_antinef_rep(a3, h) == cut.cycle
    ok = ok and kappa_topological(a3, cut.cycle) == 0
    ok = ok and delta_embedded(a3, cut) == 0
    report("criterion 1 (cyclic quotient chain)", ok, time.monotonic() - t0, 1.0)


DIHEDRAL_TABLE = {
    # row: (r_h, s_h, kappa, chi(-s_h), correction, leading class monomials)
    "one_center": (("1/3", "2/3", "1/3", "1/3"), ("1/3", "2/3", "1/3", "1/3"),
                   0, Fraction(2, 3), Fraction(2, 3), {}),
    "two_center": (("2/3", "1/3", "2/3", "2/3"), ("2/3", "4/3", "2/3", "2/3"),
                   2, Fraction(2), Fraction(0),
                   {(0, 0, 0, 0): 1, (12, 12, 12, 12): 1}),
    "one_leg": (("2/3", "1/3", "1/6", "1/6"), ("2/3", "1/3", "1/6", "1/6"),
                0, Fraction(1, 2), Fraction(1, 2), {}),
    # the leading monomial here is the minimal representative of the class
    # [Z_K] + h: exponent (1/3, 2/3, 5/6, 5/6) with coefficient one
    "leg_center": ((0, 0, "1/2", "1/2"), (1, 1, "1/2", "1/2"),
                   1, Fraction(3, 2), Fraction(1, 2), {(4, 8, 10, 10): 1}),
    "leg_two_center": (("1/3", "2/3", "5/6", "5/6"), ("1/3", "2/3", "5/6", "5/6"),
                       1, Fraction(7, 6), Fraction(1, 6), {(8, 4, 2, 2): 1}),
}


def test_criterion_2_dihedral_table(dihedral):
    t0 = time.monotonic()
    rows = dihedral_rows(dihedral)
    grp = dihedral.group
    zk = dihedral.canonical
    series = expand(plain_zeta(dihedral), 3)
    ok = len(rows) == 5
    detail = ""
    for name, h in rows.items():
        r_exp, s_exp, kappa_exp, chi_exp, corr_exp, monos = DIHEDRAL_TABLE[name]
        r = grp.frac_rep(h)
        s = min_antinef_rep(dihedral, h)
        curve = EmbeddedCurve(
            graph=dihedral,
            multiplicities=tuple(int(-dihedral.form.pair_basis(s, v))
                                 for v in range(4)))
        row_ok = (r == frac_cycle(*r_exp) and s == frac_cycle(*s_exp)
                  and delta_embedded(dihedral, curve) == kappa_exp
                  and chi(dihedral, -s) == chi_exp
                  and blache_correction(dihedral, curve) == corr_exp)
        part = h_part(series, dihedral.residue(zk + s), 12)
        shifted = (zk + s).scaled(12)
        witness = {k: v for k, v in part.terms.items()
                   if not all(a >= b for a, b in zip(k, shifted))}
        row_ok = row_ok and witness == monos
        if not row_ok:
            detail += f" row {name} mismatch;"
        ok = ok and row_ok
    report("criterion 2 (dihedral quotient table)", ok, time.monotonic() - t0,
           5.0, detail)


def test_criterion_3_nonrational(brieskorn, brieskorn_blown):
    t0 = time.monotonic()
    ok = (brieskorn.canonical == RationalCycle((2, 1, 1, 1))
          and brieskorn.group.order == 1)
    zmin, rational = artin_rationality(brieskorn)
    ok = ok and not rational
    series = expand(plain_zeta(brieskorn), 2)
    ok = ok and list(series.terms.items()) == [((0, 0, 0, 0), 1), ((6, 3, 2, 1), 1)]
    curve = EmbeddedCurve(graph=brieskorn, multiplicities=(0, 0, 0, 1))
    ok = ok and kappa_topological(brieskorn, curve.cycle) == 2
    refused = False
    try:
        delta_embedded(brieskorn, curve)
    except RationalityError as exc:
        refused = "not rational" in str(exc)
    ok = ok and refused
    blown_curve = EmbeddedCurve.from_graph_arrows(brieskorn_blown)
    ok = ok and kappa_topological(brieskorn_blown, blown_curve.cycle) == 2
    ok = ok and kappa_topological(brieskorn_blown, blown_curve.cycle,
                                  blown_curve.support_positions) == 1
    report("criterion 3 (non-rational germ)", ok, time.monotonic() - t0, 5.0)


def test_criterion_4_twisted_duality(a3, dihedral):
    t0 = time.monotonic()
    checked = failures = mod_failures = 0
    rng = random.Random(20260808)

    def check(graph, twist, h, positions):
        nonlocal checked, failures, mod_failures
        checked += 1
        rep = verify_twisted_duality(graph, twist, h, positions)
        failures += rep.status == "fail"
        mod_failures += rep.status_modified == "fail"

    for graph in (a3, dihedral):
        twists = [None, random_antinef(rng, graph, max_coeff=1)]
        for twist in twists:
            for h in graph.group.elements():
                for r in range(1, graph.n + 1):
                    for positions in itertools.combinations(range(graph.n), r):
                        check(graph, twist, h, positions)
    for _ in range(100):
        graph = random_rational_graph(rng, max_vertices=6)
        h = random_class(rng, graph)
        positions = random_positions(rng, graph)
        twist = random_antinef(rng, graph, max_coeff=1) \
            if rng.random() < 0.7 else None
        check(graph, twist, h, positions)
    ok = failures == 0 and mod_failures == 0
    report("criterion 4 (twisted duality)", ok, time.monotonic() - t0, 600.0,
           f"{checked} instances, {failures} failures, "
           f"{mod_failures} modified failures")


def test_criterion_5_sw_identity():
    t0 = time.monotonic()
    rng = random.Random(5050)
    bad = 0
    trees = 0
    while trees < 50:
        graph = random_rational_graph(rng, max_vertices=6)
        trees += 1
        grp = graph.group
        for h in grp.elements():
            expect = chi(graph, grp.frac_rep(h)) - \
                chi(graph, min_antinef_rep(graph, h))
            if sw_norm(graph, h) != expect:
                bad += 1
    report("criterion 5 (rational SW identity)", bad == 0,
           time.monotonic() - t0, 300.0, f"{trees} trees, {bad} mismatches")


def test_criterion_6_surgery():
    t0 = time.monotonic()
    rng = random.Random(6060)
    bad = corrections_bad = 0
    for _ in range(50):
        graph = random_rational_graph(rng, max_vertices=6)
        keep = [graph.ids[p] for p in random_positions(rng, graph,
                                                       allow_full=False)]
        x = zero_cycle(graph.n)
        for i in range(graph.n):
            x = x + rng.randint(2, 4) * graph.duals[i]
        if not surgery_check(graph, keep, x).passed:
            bad += 1
        ell = random_antinef(rng, graph, max_coeff=2)
        if not ell.is_zero:
            support = [graph.ids[v] for v in range(graph.n)
                       if graph.form.pair_basis(ell, v) != 0]
            rep = surgery_check(graph, support, graph.canonical + ell)
            if not (rep.passed and all(c == 0 for c in rep.corrections)):
                corrections_bad += 1
    ok = bad == 0 and corrections_bad == 0
    report("criterion 6 (surgery identity)", ok, time.monotonic() - t0, 300.0,
           f"{bad} residuals, {corrections_bad} correction mismatches")


def test_criterion_7_curve_module():
    t0 = time.monotonic()
    ok = all(delta_total(MultibranchCurve.ordinary(r)) == r - 1
             for r in (2, 3, 4, 5))
    ok = ok and delta_total(MultibranchCurve.from_semigroup([2, 3])) == 1
    ok = ok and delta_total(MultibranchCurve.ordinary(2)) == 1
    curves = sample_curves(seed=424242, count=100)
    ok = ok and len(curves) >= 100
    stability_bad = inversion_bad = 0
    for curve in curves:
        delta = delta_total(curve)
        table = hilbert_table(curve)
        for bump in itertools.product((0, 1), repeat=curve.branches):
            ell = tuple(a + b for a, b in zip(curve.conductor, bump))
            if table.value(ell) != sum(ell) - delta:
                stability_bad += 1
        good, _ = verify_inversion(curve)
        if not good:
            inversion_bad += 1
    ok = ok and stability_bad == 0 and inversion_bad == 0
    report("criterion 7 (curve module)", ok, time.monotonic() - t0, 120.0,
           f"{len(curves)} fuzzed curves, {stability_bad} stability and "
           f"{inversion_bad} inversion mismatches")


def test_criterion_8_dual_route_delta():
    t0 = time.monotonic()
    rng = random.Random(8080)
    bad = 0
    trees = 0
    while trees < 50:
        base = random_rational_graph(rng, max_vertices=6)
        graph = random_unit_arrows(rng, base)
        trees += 1
        rep = delta_cross_check(graph, EmbeddedCurve.from_graph_arrows(graph))
        if not rep.passed:
            bad += 1
    ok = bad == 0
    report("criterion 8 (dual-route delta)", ok, time.monotonic() - t0, 600.0,
           f"{trees} trees, {bad} mismatches")


def test_acceptance_under_python_O():
    # python -O strips assert statements: criteria 1-3 and 6 run the
    # library's mandatory cross-checks, which must raise explicitly instead
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k",
         "criterion_1 or criterion_2 or criterion_3 or criterion_6"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("4 passed")
