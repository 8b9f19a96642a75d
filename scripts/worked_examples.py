#!/usr/bin/env python3
"""Walk through three classical germs and print their invariant reports.

Covers the order-four cyclic quotient chain, the binary dihedral quotient
with a curve in each of its eleven nonzero classes, and the non-rational
Brieskorn germ where the delta invariant is refused but the kappa invariants
survive (including the blown-up resolution where the reduced kappa drops).
"""

from pathlib import Path

from resgraph.counting import plain_zeta
from resgraph.cycles import RationalCycle
from resgraph.embedded import (EmbeddedCurve, RationalityError,
                               blache_correction, delta_embedded,
                               kappa_topological)
from resgraph.graphs import artin_rationality, chi, min_antinef_rep, parse_graph
from resgraph.series import expand, h_part

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def load(name):
    return parse_graph((GRAPHS / name).read_text())


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main():
    banner("cyclic quotient of order four (chain of three -2 curves)")
    a3 = load("cyclic4.graph")
    for v in a3.ids:
        print(f"  E*_{v} = {a3.dual(v)}")
    print(f"  Z_K = {a3.canonical},  |H| = {a3.det_abs}")
    quartic = EmbeddedCurve(graph=a3, multiplicities=(4, 0, 0))
    print(f"  quartic pair curve: cycle {quartic.cycle}, "
          f"delta = {delta_embedded(a3, quartic)}, "
          f"correction = {blache_correction(a3, quartic)}")

    banner("binary dihedral quotient of order twelve")
    dih = load("dihedral12.graph")
    grp = dih.group
    print(f"  invariant factors: {grp.invariant_factors}, Z_K = {dih.canonical}")
    print(f"  {'class':>12} {'r_h':>26} {'s_h':>26} {'delta':>6} "
          f"{'chi(-s)':>8} {'corr':>6}")
    for h in grp.elements():
        if h == grp.zero:
            continue
        s = min_antinef_rep(dih, h)
        curve = EmbeddedCurve(
            graph=dih,
            multiplicities=tuple(int(-dih.form.pair_basis(s, v))
                                 for v in range(4)))
        print(f"  {str(h):>12} {str(grp.frac_rep(h)):>26} {str(s):>26} "
              f"{delta_embedded(dih, curve):>6} {str(chi(dih, -s)):>8} "
              f"{str(blache_correction(dih, curve)):>6}")

    banner("Brieskorn germ x^2 + y^3 + z^7 (non-rational)")
    br = load("brieskorn237_curve.graph")
    zmin, rational = artin_rationality(br)
    print(f"  Z_K = {br.canonical}, Z_min = {zmin}, "
          f"chi(Z_min) = {chi(br, zmin)}, rational: {rational}")
    series = h_part(expand(plain_zeta(br), 2), br.residue(RationalCycle((0,)*4)), 1)
    print("  expansion below bound two:")
    for line in series.dump().splitlines():
        print("   ", line)
    curve = EmbeddedCurve.from_graph_arrows(br)
    print(f"  kappa = {kappa_topological(br, curve.cycle)}, reduced = "
          f"{kappa_topological(br, curve.cycle, curve.support_positions)}")
    try:
        delta_embedded(br, curve)
    except RationalityError as exc:
        print(f"  delta refused: {str(exc)[:90]}...")
    blown = load("brieskorn237_blown.graph")
    bcurve = EmbeddedCurve.from_graph_arrows(blown)
    print(f"  after one blow-up: kappa = "
          f"{kappa_topological(blown, bcurve.cycle)}, reduced at the new "
          f"vertex = "
          f"{kappa_topological(blown, bcurve.cycle, bcurve.support_positions)}")


if __name__ == "__main__":
    main()
